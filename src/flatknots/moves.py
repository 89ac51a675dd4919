"""Local rewrites of double occurrence words: curls and triangles.

A curl move inserts or deletes a fresh adjacent equal pair.  A triangle
site is three pairwise disjoint cyclic factors of length two whose
endpoint pairs are the three two element subsets of three chords; the
move swaps the two labels inside each factor.  The swap toggles exactly
the three interleavings among the site chords and nothing else, so the
cross chord count changes by +3 or -3 when the three sides bound a
coherently oriented triangle (0 or 3 internal interleavings) and by +1
or -1 otherwise.  The first kind preserves both the residue of the
cross chord count mod 3 and the clique union flag; the second kind
preserves the trivializing number.  ``MOVE_LAWS`` states these laws
once for every move kind, and the ``deltas`` suite of
``flatknots.checks`` checks the whole table.

Sites and faces: every triangle site is a trigon face of some sphere
realization of the word, and every trigon face of a realization with
three distinct corners is a triangle site, strong exactly when the face
is coherent (``embedding.Face.is_coherent``).  This is checked, not
proved, for every realizable class with at most 7 chords: the first
direction over every realization, the second on the least-bits one
(``tests/test_moves.py``).

``find_sites`` is the one statement of where a move applies.
``apply_move`` accepts exactly the sites ``find_sites`` reports, then
enforces the change in X that ``MOVE_LAWS`` allows and the keeping of
realizability.  Callers that apply sites they have just found go
through ``neighbors`` or ``_apply``, which skip the site lookup but not
the laws.

Words are validated once, at the public entry points.  An applied move
canonicalizes its result once and checks both laws on that shape.
Searches and ``neighbors`` read the moves of a word from one bounded
memo of the move graph, ``_moves_of``, so each (word, site) they meet
is found, applied and law-checked once per process while the memo
holds it; a move that breaks a law raises every time it is met.  A
word's triangle sites are found once, in the bounded memo
``_triangle_sites``, however many move sets ask for them.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import lru_cache
from typing import FrozenSet, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .embedding import _realize_cached
from .invariants import _cross_count
from .words import (
    Word,
    _canonical_cached,
    all_slots,
    format_word,
    fresh_label,
    positions,
    validate_word,
)


class MoveError(ValueError):
    """The site does not apply to the word, or the move broke a law."""


class MoveKind(enum.Enum):
    CURL_ADD = "curl-add"
    CURL_DELETE = "curl-delete"
    STRONG_CONTRACT = "strong-contract"
    STRONG_EXPAND = "strong-expand"
    WEAK_SLIDE = "weak-slide"


MOVE_SETS = {
    "r1": frozenset({MoveKind.CURL_ADD, MoveKind.CURL_DELETE}),
    "strong": frozenset(
        {
            MoveKind.CURL_ADD,
            MoveKind.CURL_DELETE,
            MoveKind.STRONG_EXPAND,
            MoveKind.STRONG_CONTRACT,
        }
    ),
    "weak": frozenset(
        {MoveKind.CURL_ADD, MoveKind.CURL_DELETE, MoveKind.WEAK_SLIDE}
    ),
    "both": frozenset(MoveKind),
}


def move_set(name: str) -> "frozenset[MoveKind]":
    try:
        return MOVE_SETS[name]
    except KeyError:
        raise MoveError(
            f"unknown move set {name!r}; choose from {sorted(MOVE_SETS)}"
        ) from None


class MoveLaw(NamedTuple):
    """What one move kind does to the invariants of a realizable word."""

    dx: Tuple[int, ...]  # signed changes of the cross chord count X
    dtr: Tuple[int, ...]  # allowed changes of the trivializing number
    keeps_h: bool  # whether the clique union flag H is unchanged


MOVE_LAWS = {
    MoveKind.CURL_ADD: MoveLaw((0,), (0,), True),
    MoveKind.CURL_DELETE: MoveLaw((0,), (0,), True),
    MoveKind.STRONG_EXPAND: MoveLaw((3,), (-2, 0, 2), True),
    MoveKind.STRONG_CONTRACT: MoveLaw((-3,), (-2, 0, 2), True),
    MoveKind.WEAK_SLIDE: MoveLaw((-1, 1), (0,), False),
}


@dataclass(frozen=True, slots=True)
class MoveSite:
    """A place where one move applies.

    ``positions`` holds the insertion slot for CURL_ADD, the first pair
    position for CURL_DELETE, and the three sorted factor start
    positions for triangle kinds (factor i covers positions i and i+1,
    cyclically).  ``chords`` names the labels involved.
    """

    kind: MoveKind
    positions: Tuple[int, ...]
    chords: Tuple[str, ...]

    def describe(self) -> str:
        spots = ",".join(str(p) for p in self.positions)
        names = " ".join(self.chords) if self.chords else "-"
        return f"{self.kind.value} at [{spots}] on {names}"


def _curl_add_sites(w: Word) -> List[MoveSite]:
    return [MoveSite(MoveKind.CURL_ADD, (slot,), ()) for slot in all_slots(w)]


def _curl_delete_sites(w: Word) -> List[MoveSite]:
    total = len(w)
    return [
        MoveSite(MoveKind.CURL_DELETE, (i,), (w[i],))
        for i in range(total)
        if w[i] == w[(i + 1) % total]
    ]


# The kind of a triangle site by the number of interleaved pairs among its
# three chords.
_KIND_BY_INTERNAL = (
    MoveKind.STRONG_EXPAND,
    MoveKind.WEAK_SLIDE,
    MoveKind.WEAK_SLIDE,
    MoveKind.STRONG_CONTRACT,
)


@lru_cache(maxsize=4096)
def _triangle_sites(w: Word) -> Tuple[MoveSite, ...]:
    """All triangle sites, ordered by their factor start positions.

    Distinct sites may involve the same three chords.  A memo with one
    entry per word, so a word's sites are found once however many move
    sets ask for them.  The three factors hold both passages of each
    site chord, so a site's internal interleavings are read off the
    passages of its chords in ``w``.
    """
    total = len(w)
    if total < 6:
        return ()
    at = positions(w)
    other = [0] * total
    for p, q in at.values():
        other[p], other[q] = q, p

    def apart(s: int, t: int) -> bool:
        return (t - s) % total not in (0, 1, total - 1)

    def crossed(x: str, y: str) -> bool:
        (p, q), (r, s) = at[x], at[y]
        return (p < r < q) != (p < s < q)

    sites: List[MoveSite] = []
    # Each site is found once, from its first factor i = {a, b}: its
    # other sides are a factor j = {b, c} through the other passage q
    # of b and a factor k = {a, c} through the other passage r of a,
    # both after i.  Neither can hold a second a or b, so c is a third
    # chord.
    for i in range(total):
        a, b = w[i], w[(i + 1) % total]
        if a == b:
            continue
        q, r = other[(i + 1) % total], other[i]
        for j, c in (((q - 1) % total, w[q - 1]), (q, w[(q + 1) % total])):
            for k, d in (((r - 1) % total, w[r - 1]), (r, w[(r + 1) % total])):
                if c == d and j > i < k and apart(i, j) and apart(i, k) and apart(j, k):
                    kind = _KIND_BY_INTERNAL[crossed(a, b) + crossed(a, c) + crossed(b, c)]
                    sites.append(MoveSite(kind, tuple(sorted((i, j, k))), tuple(sorted((a, b, c)))))
    sites.sort(key=lambda site: site.positions)
    return tuple(sites)


# The move groups, one per site finder, in the order ``MoveKind`` declares
# them: ``_triangle_sites`` finds the three triangle kinds at once.
_CURL_ADDS = frozenset({MoveKind.CURL_ADD})
_CURL_DELETES = frozenset({MoveKind.CURL_DELETE})
_GROUPS = (_CURL_ADDS, _CURL_DELETES, MOVE_SETS["both"] - MOVE_SETS["r1"])


def _group_sites(w: Word, kinds: FrozenSet[MoveKind]) -> List[MoveSite]:
    """The sites of ``kinds``, a nonempty part of one move group, by kind and then by position."""
    if kinds == _CURL_ADDS:
        return _curl_add_sites(w)
    if kinds == _CURL_DELETES:
        return _curl_delete_sites(w)
    found = _triangle_sites(w)
    return [site for kind in MoveKind if kind in kinds for site in found if site.kind is kind]


def find_sites(word: Sequence[str], kinds: Iterable[MoveKind]) -> List[MoveSite]:
    """Every site of the requested kinds: the one statement of where a move applies.

    Sites are ordered by kind, in the order ``MoveKind`` declares them,
    then by position.
    """
    w = tuple(word)
    validate_word(w)
    wanted = frozenset(kinds)
    return [site for group in _GROUPS if (part := group & wanted) for site in _group_sites(w, part)]


def apply_move(word: Sequence[str], site: MoveSite) -> Word:
    """Apply one move and enforce its laws.

    The site must be one that ``find_sites`` reports for the word;
    otherwise MoveError.  The move must then change the cross chord
    count as ``MOVE_LAWS`` allows for its kind, and a realizable word
    must stay realizable; a violation raises MoveError.
    """
    w = tuple(word)
    validate_word(w)
    if site not in find_sites(w, (site.kind,)):
        raise MoveError(f"{site.describe()} is not a site of {format_word(w)}")
    return _apply(w, site)[0]


def _apply(w: Word, site: MoveSite) -> Tuple[Word, Word]:
    """Apply a site that ``find_sites`` reported for ``w``; returns the result and its shape.

    The site is not checked again.  Both laws are, on every call: the
    result is canonicalized once, and the X law and the keeping of
    realizability compare that shape with ``w``.  Searches reach this
    through the memo ``_moves_of``, so each (word, site) they meet is
    applied and law-checked once per process.  A curl addition inserts
    ``fresh_label(w)``.
    """
    if site.kind == MoveKind.CURL_ADD:
        (slot,) = site.positions
        label = fresh_label(w)
        result = w[:slot] + (label, label) + w[slot:]
    elif site.kind == MoveKind.CURL_DELETE:
        (i,) = site.positions
        result = w[:i] + w[i + 2 :] if i + 1 < len(w) else w[1:i]
    else:
        swapped = list(w)
        for start in site.positions:
            nxt = (start + 1) % len(w)
            swapped[start], swapped[nxt] = w[nxt], w[start]
        result = tuple(swapped)

    shape = _canonical_cached(result)
    change = _cross_count(shape) - _cross_count(w)
    if change not in MOVE_LAWS[site.kind].dx:
        raise MoveError(
            f"{site.kind.value} changed the cross chord count by {change}"
        )
    if _realize_cached(shape) is None and _realize_cached(w) is not None:
        raise MoveError(
            f"{site.describe()} broke realizability on {' '.join(w)}"
        )
    return result, shape


@lru_cache(maxsize=4096)
def _moves_of(w: Word, kinds: FrozenSet[MoveKind]) -> Tuple[Tuple[MoveSite, Word, Word], ...]:
    """The memo of the move graph: (site, result, shape) for every site of ``w`` of ``kinds``.

    ``w`` is a valid word and ``kinds`` a nonempty part of one move
    group.  The sites come from ``_group_sites``, in the order
    ``find_sites`` gives them, and each is applied through ``_apply``,
    so every law is checked when an entry is first computed; a
    MoveError propagates and, as ``lru_cache`` stores no exception, is
    raised again the next time.  A search under the strong or the weak
    moves thus never applies the other triangle kinds.

    Memory: entries outlive the searches that fill them.  An entry of an
    n chord word holds O(n) sites (2n curl additions, at most n curl
    deletions, a bounded number of triangle sites per factor), each
    with two words of at most 2n + 2 letters, so it grows as n^2.  The
    largest is the curl additions, about 64 n^2 + 640 n bytes on 64-bit
    CPython (measured: 9.2 KB at n = 8, 77 KB at n = 30), so a full
    memo of n chord words holds at most about 4,096 times that: 38 MB
    at n = 8, 310 MB at n = 30.  The site memo ``_triangle_sites``
    holds the same site objects, one tuple per word (330 bytes on
    average over the 750 realizable 8 chord words).
    """
    return tuple((site, *_apply(w, site)) for site in _group_sites(w, kinds))


def _moves_from(w: Word, kinds: FrozenSet[MoveKind]) -> Iterator[Tuple[MoveSite, Word, Word]]:
    """(site, result, shape) for every site that ``find_sites(w, kinds)`` reports, in its order.

    ``w`` is a valid word.  Read only from the memo ``_moves_of``, one
    entry for the part of each move group that ``kinds`` holds: each
    (word, site) is found, applied and law-checked once per process
    while the memo holds it.
    """
    for group in _GROUPS:
        wanted = group & kinds
        if wanted:
            yield from _moves_of(w, wanted)


def neighbors(word: Sequence[str], kinds: Iterable[MoveKind]) -> List[Tuple[MoveSite, Word]]:
    """(site, result) for every site that ``find_sites`` reports.

    A site found here that breaks a law is a defect, so its MoveError
    propagates instead of being skipped.
    """
    w = tuple(word)
    validate_word(w)
    return [(site, result) for site, result, _ in _moves_from(w, frozenset(kinds))]
