"""Interlacement graph invariants of double occurrence words.

Two chords interleave when their passages alternate around the cyclic
word.  The interlacement graph has one vertex per chord and one edge
per interleaved pair; X, tr and H are all read from the bitsets that
``words.interlacement_masks`` builds.  Everything here is word level:
no embedding is required, although some laws (such as evenness of the
trivializing number) hold only for realizable words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import List, Sequence, Tuple

from .embedding import _realize_cached
from .words import (
    Word,
    _canonical_cached,
    _partners,
    chord_count,
    format_word,
    interlacement_masks,
    prime_decompose,
    validate_word,
)

TREFOIL_SHAPE: Word = ("a", "b", "c", "a", "b", "c")
CURL_SHAPE: Word = ("a", "a")


def _pair_count(masks: Tuple[int, ...]) -> int:
    return sum(mask.bit_count() for mask in masks) // 2


@lru_cache(maxsize=65536)
def _cross_count(shape: Word) -> int:
    """X of a validated word.  X does not depend on the presentation, so
    callers that hold canonical shapes share one entry per class."""
    return _pair_count(interlacement_masks(shape))


def cross_chord_number(word: Sequence[str]) -> int:
    """X: the number of interleaved chord pairs."""
    w = tuple(word)
    validate_word(w)
    return _cross_count(w)


def _trivializing(w: Word) -> int:
    """tr of a validated word.  Chords go by increasing span; ``inside[q]``
    is 1 for chord (p, q) plus the best interval schedule of the chords
    inside it, with ``row[t + 1]`` the best over p + 1 .. t.  The sentinel
    chord (-1, 2n) spans the word and gives the most non-crossing chords."""
    partner = _partners(w)
    total = len(w)
    inside = [0] * (total + 1)
    row = [0] * (total + 1)
    spans = sorted((q - p, p, q) for p, q in enumerate(partner) if p < q)
    for _, p, q in spans + [(total + 1, -1, total)]:
        row[p + 1] = 0
        for t in range(p + 1, q):
            a = partner[t]
            row[t + 1] = max(row[t], row[a] + inside[t]) if p < a < t else row[t]
        inside[q] = 1 + row[q]
    return total // 2 - row[total]


def trivializing_number(word: Sequence[str]) -> int:
    """tr: the least number of chords whose removal kills every interleaving.

    The least vertex cover of the interlacement graph is n minus its
    largest set of pairwise non-interleaved chords, which an exact
    interval DP finds for a circle graph in O(n^2) time and O(n) memory
    (Gavril, Networks 3, 1973; Supowit, IEEE TCAD 6, 1987).  Cutting the
    cyclic word at position 0 keeps the interleaving relation of
    ``interlacement_masks``: whether one passage of chord j lies between
    the passages of chord i does not depend on where the circle is cut.
    For realizable words the value is always even.
    """
    w = tuple(word)
    validate_word(w)
    return _trivializing(w)


def _h_flag(masks: Tuple[int, ...]) -> int:
    n = len(masks)
    # An induced path u - v - x: x is a neighbour of v, not u, not a neighbour of u.
    has_path = any(
        masks[v] & ~masks[u] & ~(1 << u) for v in range(n) for u in range(n) if masks[v] >> u & 1
    )
    # A union of cliques: each member's closed neighbourhood is its component.
    clique_union = True
    unseen = (1 << n) - 1
    while unseen:
        component, grown = 0, unseen & -unseen
        while grown != component:
            component = grown
            for v in range(n):
                if component >> v & 1:
                    grown |= masks[v]
        unseen &= ~component
        if any(component >> v & 1 and masks[v] | 1 << v != component for v in range(n)):
            clique_union = False
    if has_path == clique_union:
        raise RuntimeError("h invariant characterizations disagree; this is a defect")
    return int(has_path)


def h_invariant(word: Sequence[str]) -> int:
    """H: 1 when the interlacement graph is not a union of cliques.

    Computed through both characterizations (induced three vertex path,
    and completeness of every connected component), which must agree.
    """
    w = tuple(word)
    validate_word(w)
    return _h_flag(interlacement_masks(w))


def reduce_r1(word: Sequence[str]) -> Word:
    """Delete cyclically adjacent equal pairs until none remain.

    Each label is pushed, or pops its partner off the top.  No two stack
    neighbours are then equal, so only the ends can pair, across the
    wrap, and trimming them changes no inner neighbours.
    """
    w = tuple(word)
    validate_word(w)
    stack: List[str] = []
    for label in w:
        if stack and stack[-1] == label:
            stack.pop()
        else:
            stack.append(label)
    lo, hi = 0, len(stack)
    while lo < hi and stack[lo] == stack[hi - 1]:
        lo, hi = lo + 1, hi - 1
    return tuple(stack[lo:hi])


def r1_normal_form(word: Sequence[str]) -> Word:
    """Canonical form of the fully curl reduced word.

    Two words are connected by curl moves alone exactly when their
    normal forms coincide.
    """
    return _canonical_cached(reduce_r1(word))


def trefoil_summand_count(word: Sequence[str]) -> int:
    """Number of prime factors equal to the a b c a b c shape."""
    return sum(1 for factor in prime_decompose(word) if factor == TREFOIL_SHAPE)


@dataclass(frozen=True)
class InvariantReport:
    word: Word
    chords: int
    cross_chords: int
    cross_chords_mod3: int
    trivializing: int
    h: int
    reduced: Word
    trefoil_summands: int
    realizable: bool

    def to_dict(self) -> dict:
        """The JSON schema of a report, as ``invariants --json`` and ``table --json`` print it."""
        return {
            "word": format_word(self.word),
            "n": self.chords,
            "X": self.cross_chords,
            "X_mod3": self.cross_chords_mod3,
            "tr": self.trivializing,
            "H": self.h,
            "reduced": format_word(self.reduced),
            "trefoil_summands": self.trefoil_summands,
            "realizable": self.realizable,
        }


def invariant_report(word: Sequence[str]) -> InvariantReport:
    """Every invariant of one word; X and H share one interlacement graph, tr reads partners."""
    w = tuple(word)
    validate_word(w)
    masks = interlacement_masks(w)
    x = _pair_count(masks)
    tr = _trivializing(w)
    realizable = _realize_cached(w) is not None
    if realizable and tr % 2 != 0:
        raise RuntimeError(
            f"trivializing number {tr} is odd for the realizable word "
            f"{' '.join(w)}; the evenness law failed, this is a defect"
        )
    return InvariantReport(
        word=w,
        chords=chord_count(w),
        cross_chords=x,
        cross_chords_mod3=x % 3,
        trivializing=tr,
        h=_h_flag(masks),
        reduced=r1_normal_form(w),
        trefoil_summands=trefoil_summand_count(w),
        realizable=realizable,
    )
