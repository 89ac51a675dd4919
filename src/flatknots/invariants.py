"""Interlacement graph invariants of double occurrence words.

Two chords interleave when their passages alternate around the cyclic
word.  The interlacement graph has one vertex per chord and one edge
per interleaved pair.  Everything here is word level: no embedding is
required, although some laws (such as evenness of the trivializing
number) hold only for realizable words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, FrozenSet, Sequence, Set, Tuple

from .embedding import is_realizable
from .words import (
    Word,
    canonical,
    chord_count,
    interlacement_masks,
    letters,
    prime_decompose,
    validate_word,
)

TREFOIL_SHAPE: Word = ("a", "b", "c", "a", "b", "c")
CURL_SHAPE: Word = ("a", "a")


@lru_cache(maxsize=65536)
def _interlacement_items(w: Word) -> Tuple[Tuple[str, FrozenSet[str]], ...]:
    labels = letters(w)
    items = []
    for label, mask in zip(labels, interlacement_masks(w)):
        nbrs = []
        while mask:
            low = mask & -mask
            nbrs.append(labels[low.bit_length() - 1])
            mask ^= low
        items.append((label, frozenset(nbrs)))
    return tuple(items)


def interlacement(word: Sequence[str]) -> Dict[str, FrozenSet[str]]:
    """Adjacency of the interlacement graph, keyed by chord label."""
    w = tuple(word)
    validate_word(w)
    return dict(_interlacement_items(w))


@lru_cache(maxsize=65536)
def _cross_count(shape: Word) -> int:
    """X of a validated word.  X does not depend on the presentation, so
    callers that hold canonical shapes share one entry per class."""
    return sum(mask.bit_count() for mask in interlacement_masks(shape)) // 2


def cross_chord_number(word: Sequence[str]) -> int:
    """X: the number of interleaved chord pairs."""
    w = tuple(word)
    validate_word(w)
    return _cross_count(w)


def _remove_vertices(edges: FrozenSet[Tuple[str, str]], gone: Set[str]) -> FrozenSet[Tuple[str, str]]:
    return frozenset(e for e in edges if e[0] not in gone and e[1] not in gone)


@lru_cache(maxsize=65536)
def _exact_cover(edges: FrozenSet[Tuple[str, str]]) -> int:
    if not edges:
        return 0
    degree: Dict[str, int] = {}
    for a, b in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[b] = degree.get(b, 0) + 1
    # A degree one vertex never beats its neighbor: take the neighbor.
    for a, b in sorted(edges):
        if degree[a] == 1:
            return 1 + _exact_cover(_remove_vertices(edges, {b}))
        if degree[b] == 1:
            return 1 + _exact_cover(_remove_vertices(edges, {a}))
    pivot = min(v for v, d in degree.items() if d == max(degree.values()))
    neighbors = {u for e in edges if pivot in e for u in e if u != pivot}
    with_pivot = 1 + _exact_cover(_remove_vertices(edges, {pivot}))
    without_pivot = len(neighbors) + _exact_cover(_remove_vertices(edges, neighbors | {pivot}))
    return min(with_pivot, without_pivot)


def trivializing_number(word: Sequence[str]) -> int:
    """tr: the least number of chords whose removal kills every interleaving.

    Equals the minimum vertex cover of the interlacement graph, computed
    exactly.  For realizable words the value is always even.
    """
    adjacency = interlacement(word)
    edges = frozenset(
        (a, b) if a < b else (b, a)
        for a, nbrs in adjacency.items()
        for b in nbrs
    )
    return _exact_cover(edges)


def h_invariant(word: Sequence[str]) -> int:
    """H: 1 when the interlacement graph is not a union of cliques.

    Computed through both characterizations (induced three vertex path,
    and completeness of every connected component), which must agree.
    """
    w = tuple(word)
    validate_word(w)
    return _h_cached(w)


@lru_cache(maxsize=65536)
def _h_cached(word: Word) -> int:
    adjacency = interlacement(word)
    labels = sorted(adjacency)

    has_path = False
    for i, a in enumerate(labels):
        for j in range(i + 1, len(labels)):
            for k in range(j + 1, len(labels)):
                b, c = labels[j], labels[k]
                count = (b in adjacency[a]) + (c in adjacency[a]) + (c in adjacency[b])
                if count == 2:
                    has_path = True

    clique_union = True
    seen: Set[str] = set()
    for root in labels:
        if root in seen:
            continue
        component = {root}
        stack = [root]
        while stack:
            x = stack.pop()
            for y in adjacency[x]:
                if y not in component:
                    component.add(y)
                    stack.append(y)
        seen |= component
        members = sorted(component)
        for i, a in enumerate(members):
            for b in members[i + 1 :]:
                if b not in adjacency[a]:
                    clique_union = False

    if has_path == clique_union:
        raise RuntimeError(
            "h invariant characterizations disagree; this is a defect"
        )
    return int(has_path)


def reduce_r1(word: Sequence[str]) -> Word:
    """Delete cyclically adjacent equal pairs until none remain."""
    w = list(word)
    validate_word(tuple(w))
    changed = True
    while changed and w:
        changed = False
        total = len(w)
        for i in range(total):
            if w[i] == w[(i + 1) % total]:
                if i + 1 < total:
                    del w[i : i + 2]
                else:
                    del w[i]
                    del w[0]
                changed = True
                break
    return tuple(w)


def r1_normal_form(word: Sequence[str]) -> Word:
    """Canonical form of the fully curl reduced word.

    Two words are connected by curl moves alone exactly when their
    normal forms coincide.
    """
    return canonical(reduce_r1(word))


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


def invariant_report(word: Sequence[str]) -> InvariantReport:
    w = tuple(word)
    validate_word(w)
    x = cross_chord_number(w)
    tr = trivializing_number(w)
    realizable = is_realizable(w)
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
        h=h_invariant(w),
        reduced=r1_normal_form(w),
        trefoil_summands=trefoil_summand_count(w),
        realizable=realizable,
    )
