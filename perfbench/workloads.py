"""Seeded workloads for the flatknots benchmark.

Every word is generated here from the seed and the bundled catalog file;
the library receives only these words.  A pass is a list of items.  An
item is one timed call into the public API of ``flatknots`` plus an
output check, and every check runs after the last item has been timed,
against the independent oracles in ``tests/oracles.py``.

Every pass of a run gets the same inputs.  Two sizes exist: ``full`` is
what the benchmark measures, ``tiny`` is a seconds-long smoke pass that
only the self-tests build.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

Word = Tuple[str, ...]

FROZEN = Path(__file__).resolve().parent / "frozen"
CATALOG = Path("src") / "flatknots" / "data" / "projections_upto7.txt"

LABELS = "abcdefghijklmnopqrstuvwxyz"

# Reduced prime classes per chord count, as published in the catalog.
CENSUS_COUNTS = {3: 1, 4: 1, 5: 2, 6: 3, 7: 10}
CENSUS_RANGE = {"full": range(3, 8), "tiny": range(3, 6)}

# Closure sizes within the chord cap; the cap truncates both searches.
CLOSURE_CAP = {"full": 7, "tiny": 5}
BOTH_CLOSURE_WORDS = {"full": 239, "tiny": 25}
STRONG_CLOSURE_WORDS = {"full": 127, "tiny": 21}
QUERY_MAX_CHORDS = 8

# Equivalence queries between catalog entries: (moves, first, second,
# verdict).  Pairs are fixed so that every seed asks for the same work;
# the seed picks the presentation of each word.
FIXED_QUERIES = {
    "full": (
        ("strong", "4_1", "5_2", "equivalent"),
        ("strong", "4_1", "6_3", "equivalent"),
        ("strong", "5_2", "6_3", "equivalent"),
        ("strong", "6_1", "6_2", "unknown"),
        ("weak", "5_1", "6_3", "equivalent"),
        ("weak", "3_1", "5_2", "unknown"),
        ("weak", "4_1", "5_2", "unknown"),
        ("weak", "4_1", "6_1", "unknown"),
        ("weak", "3_1", "6_1", "unknown"),
        ("both", "3_1", "6_1", "equivalent"),
        ("both", "3_1", "6_3", "equivalent"),
        ("both", "4_1", "6_2", "equivalent"),
        ("both", "6_1", "6_2", "equivalent"),
        ("both", "6_1", "6_3", "equivalent"),
        ("both", "5_2", "6_2", "equivalent"),
    ),
    "tiny": (
        ("strong", "4_1", "5_2", "equivalent"),
        ("weak", "3_1", "4_1", "equivalent"),
        ("both", "4_1", "5_2", "equivalent"),
    ),
}
# Pairs an invariant refutes; the seed draws one pair per move set, asked
# after that move set's fixed queries.
REFUTABLE = {
    "strong": (
        ("3_1", "4_1"), ("3_1", "6_1"), ("4_1", "5_1"), ("5_1", "6_2"),
        ("5_2", "6_1"), ("6_2", "6_3"), ("5_1", "6_3"), ("3_1", "6_3"),
    ),
    "weak": (
        ("3_1", "5_1"), ("4_1", "6_2"), ("5_1", "5_2"), ("5_2", "6_3"),
        ("6_1", "6_2"), ("3_1", "6_3"),
    ),
}

TWISTS = {"full": (8, 10, 12), "tiny": (2, 3, 4)}
# Chord counts of the connected sums whose determinant is asked for.  The
# six 13-chord sums cost more than the T(10) brackets and less than the
# T(12) ones, so the median item falls inside this group and not in a
# gap between two groups, where the machine's noise would move it most.
DETERMINANT_CHORDS = {"full": (13, 13, 13, 13, 13, 13), "tiny": (6, 7)}

# Realizability decisions.  Accepted words: a twist member or a sum of
# three catalog entries, as the seed draws.  Rejected words:
# random words that fail even interlacement, and sums with a prime factor
# that passes even interlacement but has no sphere embedding.  Rejections
# outnumber acceptances so that the median item is a full search.
REALIZE = {
    "full": {"accepted": 1, "twist": 14, "sum3": 16, "random": (16, 16), "bad_sum": (16,)},
    "tiny": {"accepted": 2, "twist": 4, "sum3": 9, "random": (8,), "bad_sum": (8,)},
}
BAD_FACTOR: Word = tuple("abcabdecde")


@dataclass
class Item:
    """One timed call and the check of its output.

    ``check`` returns None when the output is right, else a message.
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]


@dataclass
class Outcome:
    kind: str
    seconds: float
    error: Optional[str]


# ---------------------------------------------------------------------------
# word generation (independent of the library)


def read_catalog(root: Path) -> Dict[str, Word]:
    """Entries of the bundled catalog, parsed here and not by the library."""
    entries = {}
    for raw in (root / CATALOG).read_text(encoding="utf-8").splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            name, _, code = line.partition(":")
            entries[name.strip()] = tuple(code.split())
    return entries


def chords(word: Sequence[str]) -> int:
    return len(word) // 2


def first_occurrence(word: Sequence[str]) -> List[str]:
    return list(dict.fromkeys(word))


def present(word: Sequence[str], rng: random.Random) -> Word:
    """The same curve written another way: rotated, maybe reversed, relabeled."""
    w = list(word)
    if w:
        shift = rng.randrange(len(w))
        w = w[shift:] + w[:shift]
    if rng.random() < 0.5:
        w.reverse()
    old = first_occurrence(w)
    new = rng.sample(LABELS, len(old))
    rename = dict(zip(old, new))
    return tuple(rename[label] for label in w)


def splice(first: Sequence[str], second: Sequence[str], slot: int) -> Word:
    """Connected sum: ``second`` inserted before position ``slot`` of ``first``."""
    free = [label for label in LABELS if label not in set(first)]
    rename = dict(zip(first_occurrence(second), free))
    return tuple(first[:slot]) + tuple(rename[x] for x in second) + tuple(first[slot:])


def splice_all(words: Sequence[Word], rng: random.Random) -> Word:
    out: Word = ()
    for word in words:
        out = splice(out, word, rng.randrange(len(out) + 1))
    return out


def add_curl(word: Sequence[str], rng: random.Random) -> Word:
    label = next(x for x in LABELS if x not in set(word))
    slot = rng.randrange(len(word) + 1)
    return tuple(word[:slot]) + (label, label) + tuple(word[slot:])


def twist(n: int) -> Word:
    """The n twist projection: two clasp chords and n twist chords."""
    p, q = LABELS[0], LABELS[1]
    t = list(LABELS[2 : 2 + n])
    if n % 2:
        return tuple([p, q] + t + [p, q] + t[::-1])
    return tuple(t + [p, q] + t[::-1] + [q, p])


def random_word(n: int, rng: random.Random) -> Word:
    slots = list(range(2 * n))
    rng.shuffle(slots)
    word = [""] * (2 * n)
    for i in range(n):
        word[slots[2 * i]] = word[slots[2 * i + 1]] = LABELS[i]
    return tuple(word)


def fails_even_interlacement(word: Sequence[str]) -> bool:
    """True when some chord is interlaced with an odd number of others."""
    where: Dict[str, List[int]] = {}
    for i, label in enumerate(word):
        where.setdefault(label, []).append(i)
    return any(
        sum(1 for b, (r, s) in where.items() if b != a and (p < r < q) != (p < s < q)) % 2
        for a, (p, q) in where.items()
    )


def catalog_parts(total: int, counts: Sequence[int], catalog: Dict[str, Word], rng: random.Random) -> List[Word]:
    """Catalog entries drawn at random, ``total`` chords together, in one of ``counts`` parts."""
    by_size: Dict[int, List[Word]] = {}
    for word in catalog.values():
        by_size.setdefault(chords(word), []).append(word)
    splits = [c for parts in counts for c in _compositions(total, parts, sorted(by_size))]
    return [rng.choice(by_size[size]) for size in rng.choice(splits)]


def _compositions(total: int, parts: int, sizes: Sequence[int]) -> List[Tuple[int, ...]]:
    if parts == 0:
        return [()] if total == 0 else []
    return [
        (size,) + rest
        for size in sizes
        if size <= total
        for rest in _compositions(total - size, parts - 1, sizes)
    ]


# ---------------------------------------------------------------------------
# checks shared by several workloads


def same_shape(oracles, a: Sequence[str], b: Sequence[str]) -> bool:
    return min(oracles.all_canonical_variants(a)) == min(oracles.all_canonical_variants(b))


def _graph(oracles, word: Sequence[str]):
    return sorted(set(word)), oracles.interlacement_edges(word)


def refuted(oracles, moves: str, a: Word, b: Word) -> bool:
    """True when an oracle invariant separates the two words under the move set."""
    if moves == "r1":
        return not (oracles.reduce_r1_all_orders(a) & oracles.reduce_r1_all_orders(b))
    if moves == "strong":
        return (
            oracles.cross_pairs(a) % 3 != oracles.cross_pairs(b) % 3
            or oracles.has_induced_path3(*_graph(oracles, a))
            != oracles.has_induced_path3(*_graph(oracles, b))
        )
    if moves == "weak":
        return oracles.brute_min_cover(*_graph(oracles, a)) != oracles.brute_min_cover(*_graph(oracles, b))
    return False


def check_query(fk, oracles, moves: str, a: Word, b: Word, expected: str, result) -> Optional[str]:
    verdict = result.verdict
    if verdict != expected and not (expected == "unknown" and verdict == "not-equivalent"):
        return f"{moves} query gave {verdict}, expected {expected}"
    if verdict == "not-equivalent" and not refuted(oracles, moves, a, b):
        return f"{moves} refutation is not confirmed by the oracles"
    if verdict == "equivalent":
        path = result.path
        if path is None:
            if moves != "r1" or refuted(oracles, "r1", a, b):
                return f"{moves} equivalence without a path"
            return None
        if not fk.verify_path(path):
            return "witness path does not replay"
        if not (same_shape(oracles, path.words[0], a) and same_shape(oracles, path.words[-1], b)):
            return "witness path has the wrong endpoints"
        if any(site.kind not in fk.move_set(moves) for site in path.moves):
            return f"witness path uses moves outside {moves}"
    return None


def expect(condition: bool, message: str) -> Optional[str]:
    return None if condition else message


# ---------------------------------------------------------------------------
# workloads


def census_items(fk, oracles, catalog, rng, size) -> List[Item]:
    ns = CENSUS_RANGE[size]

    def check(result) -> Optional[str]:
        for n, words in zip(ns, result):
            if len(words) != CENSUS_COUNTS[n]:
                return f"census({n}) has {len(words)} classes, expected {CENSUS_COUNTS[n]}"
            rows = sorted(w for w in catalog.values() if chords(w) == n)
            if sorted(words) != rows:
                return f"census({n}) differs from the catalog rows"
        return None

    return [Item("census", lambda: [fk.reduced_prime_census(n) for n in ns], check)]


def search_items(fk, oracles, catalog, rng, size) -> List[Item]:
    cap = CLOSURE_CAP[size]
    trefoil = present(catalog["3_1"], rng)
    curl_strong = [fk.MoveKind.CURL_ADD, fk.MoveKind.STRONG_EXPAND, fk.MoveKind.STRONG_CONTRACT]
    frozen_table = (FROZEN / "table.json").read_text(encoding="utf-8")

    def run_table():
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = fk.cli.main(["table", "--json"])
        return code, out.getvalue()

    items = [
        Item(
            "closure-both",
            lambda: fk.search_class(trefoil, fk.move_set("both"), fk.SearchConfig(max_chords=cap)),
            lambda r: expect(
                len(r.words) == BOTH_CLOSURE_WORDS[size] and r.truncated,
                f"both closure has {len(r.words)} words, expected {BOTH_CLOSURE_WORDS[size]}",
            ),
        ),
        Item(
            "closure-strong",
            lambda: fk.search_class((), curl_strong, fk.SearchConfig(max_chords=cap)),
            lambda r: expect(
                len(r.words) == STRONG_CLOSURE_WORDS[size]
                and all(fk.strong_trivial_test(w) for w in r.words),
                f"strong closure has {len(r.words)} words, expected "
                f"{STRONG_CLOSURE_WORDS[size]}, all strong trivial",
            ),
        ),
        Item(
            "table",
            run_table,
            lambda r: expect(r == (0, frozen_table), "table --json differs from the frozen copy"),
        ),
    ]

    small = sorted(name for name, word in catalog.items() if chords(word) <= 6)
    # Curl moves alone: a word against itself with a curl spliced in, and
    # two different entries.
    base = catalog[rng.choice(small)]
    queries = [("r1", base, add_curl(base, rng), "equivalent")]
    a, b = rng.sample(small, 2)
    queries.append(("r1", catalog[a], add_curl(catalog[b], rng), "not-equivalent"))
    for moves in ("strong", "weak", "both"):
        for kind, a, b, verdict in FIXED_QUERIES[size]:
            if kind == moves:
                queries.append((moves, catalog[a], catalog[b], verdict))
        if moves in REFUTABLE:
            a, b = rng.choice(REFUTABLE[moves])
            queries.append((moves, catalog[a], catalog[b], "not-equivalent"))

    for moves, a, b, verdict in queries:
        a, b = present(a, rng), present(b, rng)
        window = fk.SearchConfig(max_chords=min(QUERY_MAX_CHORDS, max(chords(a), chords(b)) + 2))
        items.append(
            Item(
                f"query-{moves}",
                lambda a=a, b=b, moves=moves, window=window: fk.equivalence_query(a, b, moves, window),
                lambda r, a=a, b=b, moves=moves, verdict=verdict: check_query(
                    fk, oracles, moves, a, b, verdict, r
                ),
            )
        )
    return items


def laurent_pairs(poly) -> List[List[int]]:
    return sorted([e, c] for e, c in poly.items() if c)


def statesum_items(fk, oracles, catalog, rng, size) -> List[Item]:
    frozen = json.loads((FROZEN / "brackets.json").read_text(encoding="utf-8"))
    items = []
    # Twist members keep their standard presentation: the cost of the
    # state sum depends on how the word is written, and these items are
    # the fixed part of the workload.
    for n in TWISTS[size]:
        word = twist(n)
        for key, function in (("bracket", "kauffman_bracket"), ("jones", "jones_normalized")):
            expected = frozen[str(n)][key]
            items.append(
                Item(
                    key,
                    lambda word=word, function=function: getattr(fk, function)(fk.positive_resolution(word)),
                    lambda r, n=n, key=key, expected=expected: expect(
                        laurent_pairs(r) == expected, f"{key} of T({n}) differs from the frozen value"
                    ),
                )
            )
    for total in DETERMINANT_CHORDS[size]:
        word = present(splice_all(catalog_parts(total, (2, 3), catalog, rng), rng), rng)

        def check(result, word=word) -> Optional[str]:
            bits = fk.realize(word).bits
            if len(oracles.corner_faces(word, bits)) != chords(word) + 2:
                return "realization used for the determinant is not spherical"
            truth = oracles.goeritz_determinant(word, bits)
            return expect(result == truth, f"determinant {result}, oracle says {truth}")

        items.append(Item("determinant", lambda word=word: fk.alternating_determinant(word), check))
    return items


def realize_items(fk, oracles, catalog, rng, size) -> List[Item]:
    plan = REALIZE[size]
    items = []

    def accepted(word) -> Item:
        def check(emb) -> Optional[str]:
            faces = oracles.corner_faces(word, emb.bits)
            return expect(len(faces) == chords(word) + 2, "realization bits do not give n + 2 faces")

        return Item("accept", lambda: fk.realize(word), check)

    def rejected(word, kind, proof) -> Item:
        """``proof`` confirms with the oracles that the word has no embedding."""

        def check(r) -> Optional[str]:
            return proof() if r is False else "accepted a word that has no sphere embedding"

        return Item(kind, lambda: fk.is_realizable(word), check)

    for _ in range(plan["accepted"]):
        if rng.random() < 0.5:
            word = twist(plan["twist"])
        else:
            word = splice_all(catalog_parts(plan["sum3"], (3,), catalog, rng), rng)
        items.append(accepted(present(word, rng)))
    for n in plan["random"]:
        word = random_word(n, rng)
        while not fails_even_interlacement(word):
            word = random_word(n, rng)
        proof = lambda word=word: expect(
            any(d % 2 for d in _degrees(oracles, word).values()),
            "oracle finds every interlacement degree even",
        )
        items.append(rejected(word, "reject-random", proof))
    for total in plan["bad_sum"]:
        rest = catalog_parts(total - chords(BAD_FACTOR), (1, 2), catalog, rng)
        word = present(splice_all([BAD_FACTOR] + rest, rng), rng)
        proof = lambda: expect(not oracles.corner_realizable(BAD_FACTOR), "oracle realizes the bad factor")
        items.append(rejected(word, "reject-factor", proof))
    return items


def _degrees(oracles, word) -> Dict[str, int]:
    """Interlacement degree of each chord, counted from the oracles' edges."""
    degree = {label: 0 for label in word}
    for a, b in oracles.interlacement_edges(word):
        degree[a] += 1
        degree[b] += 1
    return degree


WORKLOAD_ITEMS = {
    "census": census_items,
    "search": search_items,
    "statesum": statesum_items,
    "realize": realize_items,
}
WORKLOADS = tuple(WORKLOAD_ITEMS)


def build(workload: str, fk, oracles, root: Path, seed: str, size: str = "full") -> List[Item]:
    """Items of one pass; its inputs come from (workload, seed) alone."""
    rng = random.Random(f"{workload}:{seed}")
    return WORKLOAD_ITEMS[workload](fk, oracles, read_catalog(root), rng, size)


def run_items(items: Sequence[Item]) -> Tuple[List[Outcome], List[object], float]:
    """Time every item; returns outcomes, outputs and the wall time of the pass."""
    outcomes, outputs = [], []
    clock = time.perf_counter
    start = clock()
    for item in items:
        t0 = clock()
        try:
            output, error = item.run(), None
        except Exception as exc:  # a failed operation is counted, not fatal
            output, error = None, f"{type(exc).__name__}: {exc}"
        outcomes.append(Outcome(item.kind, clock() - t0, error))
        outputs.append(output)
    return outcomes, outputs, clock() - start


def check_items(items: Sequence[Item], outcomes: Sequence[Outcome], outputs: Sequence[object]) -> None:
    """Run the output checks; a failed check is stored on the outcome."""
    for item, outcome, output in zip(items, outcomes, outputs):
        if outcome.error is None:
            try:
                outcome.error = item.check(output)
            except Exception as exc:
                outcome.error = f"check raised {type(exc).__name__}: {exc}"
