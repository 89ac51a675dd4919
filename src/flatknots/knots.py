"""Crossing resolutions of realized words and their state sums.

A realized word becomes a knot diagram once every passage point is
resolved: each chord names one of its two passages as the over strand.
The bracket polynomial is then the usual state sum.  At a crossing the
two over-strand dart ends either join their counterclockwise
predecessors (an A split) or their counterclockwise successors (a B
split); a state picks one split per crossing, closes the arcs into
loops, and contributes A^(a - b) * (-A^2 - A^(-2))^(loops - 1).

The bracket multiplies over the prime factors of the word, the blocks
that ``words._closed_blocks`` cuts out.  Let a closed block A run along
the curve from point x to point y, and let B be the rest of the curve.
B meets A only at x and y, so it runs inside one face of the sphere cut
along A, and an arc in that face from y back to x closes A into a curve
that crosses itself exactly where A does.  At each of those crossings
the four dart ends leave in the same directions as on the whole curve,
so the rotation bits and over strands of A's chords, read off the whole
diagram, realize and resolve A's word; the same holds for B.  In any
state the split paths through A's crossings leave A only at x and y,
so exactly one of them runs from x to y, and the state's loops are
those inside A, those inside B and one through x and y.  Closing A
alone gives the loops inside A and one more, and so for B.  The loop
count of the whole is thus the factors' sum less one and the B splits
add, so the bracket, normalized to 1 on the empty word, is the product
of the factors' brackets.

Each factor's sum is taken by a sweep, not by listing the 2^n states
(the tangle-cutting idea of Bar-Natan, "Fast Khovanov homology
computations", JKTR 16, 2007).  Crossings are added one at a time.
After each step the open dart ends are the placed ends whose arc
partner is not placed yet, and the frontier is their pairing: two open
ends are paired when a path of split joins and closed arcs runs between
them.  Each frontier keeps a tally (B splits, closed loops) -> number
of partial states.  Adding a crossing joins its four dart ends in pairs
by the chosen split; every arc whose two ends are then both placed
either closes a loop (its ends were paired) or joins two paths into one.
Once all crossings are in, the frontier is empty and the bracket is
built from the one remaining tally.  Every state is counted once with
its B splits and loops whatever the order, so the order only sets the
cost, which follows the number of frontiers.  The order is greedy: the
next crossing is the one that leaves the fewest open ends, the first in
chord order on a tie.  A sweep that needs more than ``MAX_FRONTIERS``
frontiers stops with ``StateSumBudgetError``.

The determinant runs no sweep.  Cut the curve at its n under passages
into n arcs.  The coloring matrix has one row per crossing: 2 on the
arc through the over passage, -1 on the arc entering the under passage
and -1 on the arc leaving it, summed where two of them are one arc
(Crowell and Fox, "Introduction to Knot Theory", 1963).  It is the
Alexander matrix of the Wirtinger presentation at t = -1.  Which
passage goes over fixes the arcs and each row, so the rotation bits are
not needed: a crossing and its mirror image have the same row.  Every
row sums to zero, so the columns add up to zero and striking any one
column gives the same minor up to sign.  The Wirtinger relators, each
conjugated, multiply to 1, and at t = -1 each conjugating word is a
sign, so the rows satisfy one relation with coefficients +1 and -1 and
striking any one row also gives the same minor up to sign.  Its
absolute value is the determinant |Alexander(-1)|, which is also the
absolute value of the normalized bracket at A^4 = -1.  The bracket
multiplies over prime factors as shown above, and the writhe is the sum
of the factors' writhes, so the determinant is the product of the
factors' minors.  Each is taken by exact sparse integer elimination
(``_abs_minor``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterator, List, Sequence, Set, Tuple

from .embedding import realize, vertex_rotations
from .laurent import (
    Laurent,
    laurent_mul,
    laurent_one,
    laurent_trim,
    monomial,
)
from .words import Word, _closed_blocks, chord_count, letters, positions, validate_word

# The most frontiers a sweep may hold after any step, ten times the 429
# that the torus closure T(7,8) needs (twist_family(28) needs 2).  It
# guards the bracket and Jones only: the determinant runs no sweep.  On a
# 2-CPU Xeon with Python 3.11, the bracket of T(8,9) peaks at 1,430 and
# takes about 2 s at 43 MB; that of T(9,10) would need 4,862, 9 s and
# 165 MB, and stops here after 0.6 s.
MAX_FRONTIERS = 4096


class DiagramError(ValueError):
    """The over-strand assignment does not fit the word."""


class StateSumBudgetError(RuntimeError):
    """A sweep needed more than ``MAX_FRONTIERS`` frontiers; nothing is returned."""


@dataclass(frozen=True)
class Diagram:
    """A realized word with an over strand chosen at every chord.

    ``bits`` is the rotation assignment of the underlying realization
    and ``over_first`` marks, per chord in first occurrence order,
    whether the over strand is the chord's first passage.
    """

    word: Word
    bits: Tuple[int, ...]
    over_first: Tuple[bool, ...]

    @property
    def crossings(self) -> int:
        return chord_count(self.word)

    def sign(self, index: int) -> int:
        # With both strands oriented by the traversal, the crossing is
        # positive exactly when the under strand leaves to the left of
        # the over strand; in the stored rotation data that happens when
        # the over strand and the rotation bit agree.
        return 1 if self.over_first[index] == (self.bits[index] == 0) else -1

    @property
    def signs(self) -> Tuple[int, ...]:
        return tuple(self.sign(i) for i in range(self.crossings))

    @property
    def writhe(self) -> int:
        return sum(self.signs)


def resolve(word: Sequence[str], over_first: Sequence[bool]) -> Diagram:
    """Build a diagram from a word and an over-strand choice per chord."""
    w = tuple(word)
    validate_word(w)
    marks = tuple(bool(b) for b in over_first)
    if len(marks) != chord_count(w):
        raise DiagramError(
            f"need one over-strand mark per chord, got {len(marks)} for {chord_count(w)}"
        )
    return Diagram(word=w, bits=realize(w).bits, over_first=marks)


def positive_resolution(word: Sequence[str]) -> Diagram:
    """The resolution in which every crossing is positive."""
    w = tuple(word)
    bits = realize(w).bits
    return Diagram(word=w, bits=bits, over_first=tuple(b == 0 for b in bits))


def alternating_diagram(word: Sequence[str]) -> Diagram:
    """The resolution that goes over at even and under at odd passages.

    The two passages of any chord of a realizable word sit at positions
    of opposite parity (each chord meets every other one an even number
    of times in between), so marking the even positions as over strands
    alternates over and under along the whole traversal.
    """
    w = tuple(word)
    bits = realize(w).bits
    pos = positions(w)
    marks = []
    for label in letters(w):
        p, q = pos[label]
        if (p + q) % 2 == 0:
            raise DiagramError(f"passages of chord {label!r} share parity")
        marks.append(p % 2 == 0)
    return Diagram(word=w, bits=bits, over_first=tuple(marks))


def mirror_diagram(diagram: Diagram) -> Diagram:
    """Reflect the realization while keeping every over strand."""
    flipped = tuple(1 - b for b in diagram.bits)
    return Diagram(word=diagram.word, bits=flipped, over_first=diagram.over_first)


def _split_pairs(diagram: Diagram) -> Tuple[Tuple[Tuple[int, int], ...], ...]:
    """Per chord: the two A-split dart joins then the two B-split joins."""
    w = diagram.word
    total = len(w)
    rotations = vertex_rotations(w, diagram.bits)
    pos = positions(w)
    out = []
    for index, label in enumerate(letters(w)):
        p, q = pos[label]
        over = p if diagram.over_first[index] else q
        over_darts = {2 * over, 2 * ((over - 1) % total) + 1}
        cycle = rotations[index]
        a_joins = []
        b_joins = []
        for k, dart in enumerate(cycle):
            if dart in over_darts:
                a_joins.append((cycle[(k - 1) % 4], dart))
                b_joins.append((dart, cycle[(k + 1) % 4]))
        out.append((a_joins[0], a_joins[1], b_joins[0], b_joins[1]))
    return tuple(out)


_Tally = Dict[Tuple[int, int], int]

_DELTA: Laurent = {2: -1, -2: -1}


def _greedy_order(darts: Sequence[Set[int]]) -> List[int]:
    """Crossing indices, each leaving the fewest open dart ends, ties by index.

    ``darts[c]`` holds the four dart ends of crossing c.  ``closing[c]``
    counts those whose arc partner is placed, plus the arcs that start
    and end at c, so adding c opens 4 - 2 * closing[c] more ends.
    """
    owner = {d: c for c, ends in enumerate(darts) for d in ends}
    closing = [sum(owner[d ^ 1] == c for d in ends) // 2 for c, ends in enumerate(darts)]
    pending = list(range(len(darts)))
    order = []
    while pending:
        c = max(pending, key=closing.__getitem__)
        pending.remove(c)
        order.append(c)
        for d in darts[c]:
            closing[owner[d ^ 1]] += 1
    return order


def _sweep(diagram: Diagram) -> _Tally:
    """(B splits, loops) -> state count, over every split of every crossing."""
    split_pairs = _split_pairs(diagram)
    darts_at = [{d for join in joins for d in join} for joins in split_pairs]
    placed: Set[int] = set()
    ends: Tuple[int, ...] = ()
    frontier: Dict[Tuple[int, ...], _Tally] = {(): {(0, 0): 1}}
    for step, crossing in enumerate(_greedy_order(darts_at), 1):
        joins = split_pairs[crossing]
        darts = darts_at[crossing]
        placed |= darts
        # Arcs whose two ends are both placed from now on, each met once.
        arcs = [
            (d, d ^ 1)
            for d in sorted(darts)
            if d ^ 1 in placed and (d ^ 1 not in darts or d % 2 == 0)
        ]
        next_ends = tuple(sorted(d for d in placed if d ^ 1 not in placed))
        swept: Dict[Tuple[int, ...], _Tally] = {}
        for pairing, tally in frontier.items():
            for split in (0, 1):
                partner = dict(zip(ends, pairing))
                for x, y in joins[2 * split : 2 * split + 2]:
                    partner[x] = y
                    partner[y] = x
                closed = 0
                for x, y in arcs:
                    far_x = partner.pop(x)
                    far_y = partner.pop(y)
                    if far_x == y:
                        closed += 1
                    else:
                        partner[far_x] = far_y
                        partner[far_y] = far_x
                bucket = swept.setdefault(tuple(partner[d] for d in next_ends), {})
                for (b_count, loops), count in tally.items():
                    key = (b_count + split, loops + closed)
                    bucket[key] = bucket.get(key, 0) + count
        if len(swept) > MAX_FRONTIERS:
            raise StateSumBudgetError(
                f"state sum needs more than {MAX_FRONTIERS} frontiers"
                f" after {step} of {len(split_pairs)} crossings"
            )
        frontier, ends = swept, next_ends
    return frontier[()]


def _factors(diagram: Diagram) -> Iterator[Diagram]:
    """The diagram restricted to each prime factor of its word."""
    index = {label: i for i, label in enumerate(letters(diagram.word))}
    for block in _closed_blocks(diagram.word):
        chords = [index[label] for label in letters(block)]
        yield Diagram(
            word=block,
            bits=tuple(diagram.bits[i] for i in chords),
            over_first=tuple(diagram.over_first[i] for i in chords),
        )


def _prime_bracket(diagram: Diagram) -> Laurent:
    """The state sum of one factor, from its sweep."""
    tally = _sweep(diagram)
    delta_powers = [laurent_one()]
    for _ in range(max(loops for _, loops in tally) - 1):
        delta_powers.append(laurent_mul(delta_powers[-1], _DELTA))
    bracket: Laurent = {}
    for (b_count, loops), count in tally.items():
        for exponent, coefficient in delta_powers[loops - 1].items():
            e = diagram.crossings - 2 * b_count + exponent
            bracket[e] = bracket.get(e, 0) + count * coefficient
    return laurent_trim(bracket)


def kauffman_bracket(diagram: Diagram) -> Laurent:
    """State sum over all splits, normalized to 1 on the empty word.

    The product of the brackets of the prime factors, each swept in
    greedy order (see the module docstring).  Raises
    ``StateSumBudgetError`` when a sweep passes ``MAX_FRONTIERS``.
    """
    bracket = laurent_one()
    for factor in _factors(diagram):
        bracket = laurent_mul(bracket, _prime_bracket(factor))
    return bracket


def jones_normalized(diagram: Diagram) -> Laurent:
    """The bracket rescaled by the writhe so untwisted curls drop out."""
    return _writhe_normalized(kauffman_bracket(diagram), diagram.writhe)


def _writhe_normalized(bracket: Laurent, w: int) -> Laurent:
    """``bracket`` times (-A^3)^(-w), the normalization of ``jones_normalized``."""
    return laurent_mul(monomial(-3 * w, 1 if w % 2 == 0 else -1), bracket)


def _coloring_rows(diagram: Diagram) -> List[Dict[int, int]]:
    """The coloring matrix, one row of arc -> coefficient per chord.

    Rows follow first occurrence order.  Arc k runs from the k-th under
    passage along the word to the next one, and arc 0 also holds the
    passages before the first.  Row i has 2 on the arc through chord
    i's over passage and -1 on each arc at its under passage, the one
    entering it and the one leaving it.
    """
    n = diagram.crossings
    rows: List[Dict[int, int]] = [{} for _ in range(n)]
    index: Dict[str, int] = {}
    arc = 0
    for label in diagram.word:
        first = label not in index
        i = index.setdefault(label, len(index))
        row = rows[i]
        if first == diagram.over_first[i]:
            row[arc % n] = row.get(arc % n, 0) + 2
        else:
            for a in (arc % n, (arc + 1) % n):
                row[a] = row.get(a, 0) - 1
            arc += 1
    return rows


def _abs_minor(rows: List[Dict[int, int]]) -> int:
    """|det| of the square sparse matrix ``rows`` less its last row and column.

    Only unimodular row operations are used, so the absolute value of
    the determinant never changes.  Each step takes a row with the
    fewest entries and its entry of least absolute value, and clears the
    rest of that entry's column by Euclid's algorithm: the row holding
    the column's least entry, on the fewest entries, is subtracted from
    the others until it is the only one left.  Expanding along the
    column multiplies the answer by that entry and drops its row and
    column.
    """
    last = len(rows) - 1
    live = {r: {c: v for c, v in row.items() if c != last} for r, row in enumerate(rows[:last])}
    holders: Dict[int, Set[int]] = {}
    for r, row in live.items():
        for c in row:
            holders.setdefault(c, set()).add(r)
    value = 1
    while live:
        row = min(live.values(), key=len)
        if not row:
            return 0
        column = min(row, key=lambda c: abs(row[c]))
        here = holders[column]
        while len(here) > 1:
            r = min(here, key=lambda x: (abs(live[x][column]), len(live[x])))
            pivot = live[r]
            for x in here - {r}:
                row = live[x]
                q = row[column] // pivot[column]
                for c, v in pivot.items():
                    new = row.get(c, 0) - q * v
                    if new:
                        row[c] = new
                        holders[c].add(x)
                    elif c in row:
                        del row[c]
                        holders[c].discard(x)
        (r,) = holders.pop(column)
        row = live.pop(r)
        value *= abs(row.pop(column))
        for c in row:
            holders[c].discard(r)
    return value


def determinant(diagram: Diagram) -> int:
    """The knot determinant: |det| of an (n-1) minor of the coloring matrix.

    The product over the prime factors of the word, each factor's minor
    taken by exact sparse elimination (see the module docstring).  No
    state sum is run, so no budget applies.
    """
    value = 1
    for factor in _factors(diagram):
        value *= _abs_minor(_coloring_rows(factor))
    return value


def alternating_determinant(word: Sequence[str]) -> int:
    """Determinant of the alternating resolution of the word."""
    return determinant(alternating_diagram(word))

