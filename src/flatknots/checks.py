"""Named checking suites and the catalog's one-triangle adjacency.

Each suite re-derives one claim of the package from scratch and records
one pass or fail line per check.  ``SUITES`` maps a suite name to its
function; every suite takes the run to record into, and as keyword
parameters, with their defaults, only the options it reads (a chord
bound ``max_n``, a ``seed``).  The ``deltas`` suite checks every site
against ``moves.MOVE_LAWS``.
"""

from __future__ import annotations

import random
from typing import Callable, Dict, List, Sequence, Tuple

from .corpus import CorpusEntry
from .explore import (
    SearchConfig,
    enumerate_realizable,
    equivalence_query,
    search_class,
    strong_trivial_test,
    twist_family,
    verify_path,
)
from .invariants import (
    cross_chord_number,
    h_invariant,
    r1_normal_form,
    trivializing_number,
)
from .knots import determinant, jones_normalized, positive_resolution
from .moves import MOVE_LAWS, MoveKind, move_set, neighbors
from .words import Word, format_word


def move_deltas(word: Word, after: Word) -> Tuple[int, int, int]:
    """Changes (dX, dtr, dH) from ``word`` to ``after``."""
    return (
        cross_chord_number(after) - cross_chord_number(word),
        trivializing_number(after) - trivializing_number(word),
        h_invariant(after) - h_invariant(word),
    )


def _one_triangle_images(word: Word) -> frozenset:
    """Curl normal forms one triangle move away from the curl normal form of ``word``."""
    return frozenset(
        r1_normal_form(after)
        for _, after in neighbors(r1_normal_form(word), move_set("both") - move_set("r1"))
    )


def table_adjacency(entries: Sequence[CorpusEntry]) -> List[Tuple[str, str]]:
    """Pairs related by finitely many curl moves and one triangle move.

    An edge deletes curls from one entry down to its curl normal form,
    applies one triangle move, then deletes curls down to the other
    entry's normal form, so each edge has an explicit witness.  No edge
    means that no triangle move on either normal form lands, after curl
    deletions, on the other.
    """
    images = {entry.name: _one_triangle_images(entry.word) for entry in entries}
    normal = {entry.name: r1_normal_form(entry.word) for entry in entries}
    edges = []
    for i, first in enumerate(entries):
        for second in entries[i + 1 :]:
            if (
                normal[second.name] in images[first.name]
                or normal[first.name] in images[second.name]
            ):
                edges.append(tuple(sorted((first.name, second.name))))
    return sorted(edges)


class SuiteRun:
    """The checks one suite recorded, each a name, a verdict and a detail."""

    def __init__(self) -> None:
        self.checks: List[Dict[str, object]] = []

    def record(self, name: str, passed: bool, detail: str) -> None:
        self.checks.append({"name": name, "passed": passed, "detail": detail})

    @property
    def passed(self) -> bool:
        return all(c["passed"] for c in self.checks)


def _suite_parity(run: SuiteRun, max_n: int = 6) -> None:
    failures = []
    total = 0
    for n in range(0, max_n + 1):
        for word in enumerate_realizable(n):
            total += 1
            if trivializing_number(word) % 2 != 0:
                failures.append(format_word(word))
    run.record(
        "tr-even",
        not failures,
        f"{total} realizable words with n <= {max_n}"
        + (f"; first violation {failures[0]}" if failures else ""),
    )


def _check_deltas_on(word: Word, failures: List[str]) -> int:
    applied = neighbors(word, tuple(MoveKind))
    for site, after in applied:
        dx, dtr, dh = move_deltas(word, after)
        law = MOVE_LAWS[site.kind]
        if dx not in law.dx or dtr not in law.dtr or (law.keeps_h and dh != 0):
            failures.append(
                f"{format_word(word)} via {site.describe()} -> "
                f"dX={dx} dtr={dtr} dH={dh}"
            )
    return len(applied)


def _suite_deltas(run: SuiteRun, max_n: int = 6, seed: int = 20260819) -> None:
    failures: List[str] = []
    checked = 0
    exhaustive_limit = min(max_n, 6)
    for n in range(0, exhaustive_limit + 1):
        for word in enumerate_realizable(n):
            checked += _check_deltas_on(word, failures)
    sampled = 0
    rng = random.Random(seed)
    for n in range(7, max_n + 1):
        words = enumerate_realizable(n)
        for word in rng.sample(words, min(25, len(words))):
            checked += _check_deltas_on(word, failures)
            sampled += 1
    detail = f"{checked} site applications, exhaustive n <= {exhaustive_limit}"
    if sampled:
        detail += f", plus {sampled} sampled words up to n = {max_n}"
    if failures:
        detail += f"; first violation {failures[0]}"
    run.record("move-deltas", not failures, detail)


def _suite_twist(run: SuiteRun) -> None:
    words = {n: twist_family(n) for n in range(1, 9)}
    bad_tr = [n for n, w in words.items() if trivializing_number(w) != 2]
    run.record("twist-tr", not bad_tr, "tr = 2 for n = 1..8")
    xs = {n: cross_chord_number(w) for n, w in words.items()}
    bad_gap = [n for n in range(1, 8, 2) if xs[n + 1] - xs[n] != 1]
    run.record(
        "twist-x-step",
        not bad_gap,
        "X gains 1 at odd n; X = " + " ".join(str(xs[n]) for n in range(1, 9)),
    )
    for n in (1, 3):
        res = equivalence_query(words[n], words[n + 1], moves_name="weak")
        ok = (
            res.verdict == "equivalent"
            and res.path is not None
            and len(res.path) <= 2
            and verify_path(res.path)
        )
        run.record(
            f"twist-weak-path-{n}",
            ok,
            f"T({n}) ~ T({n + 1}) by a weak path of <= 2 moves",
        )
    res = equivalence_query(words[2], words[3], moves_name="strong")
    run.record(
        "twist-strong-step",
        res.verdict == "equivalent" and res.path is not None and len(res.path) <= 2,
        "T(2) ~ T(3) by a strong path of <= 2 moves",
    )


def _suite_strong_trivial(run: SuiteRun) -> None:
    kinds = (MoveKind.CURL_ADD, MoveKind.STRONG_EXPAND, MoveKind.STRONG_CONTRACT)
    result = search_class((), kinds, SearchConfig(max_chords=7, max_states=10 ** 6))
    offenders = [w for w in result.words if not strong_trivial_test(w)]
    run.record(
        "reached-are-trivial",
        not offenders,
        f"{len(result.words)} words reached within 7 chords"
        + (f"; first offender {format_word(offenders[0])}" if offenders else ""),
    )
    targets = [w for n in range(8) for w in enumerate_realizable(n) if strong_trivial_test(w)]
    missing = [w for w in targets if w not in result.words]
    run.record(
        "targets-reached",
        not missing,
        f"{len(targets)} realizable words with n <= 7 pass strong_trivial_test"
        + (f"; first missing {format_word(missing[0])}" if missing else ""),
    )


def _suite_bracket(run: SuiteRun) -> None:
    empty = jones_normalized(positive_resolution(()))
    curl = jones_normalized(positive_resolution(("a", "a")))
    run.record(
        "normalized-units",
        empty == {0: 1} and curl == {0: 1},
        "normalized bracket of the empty word and one curl is 1",
    )
    trefoil_det = determinant(positive_resolution(("a", "b", "c", "a", "b", "c")))
    run.record("trefoil-det", trefoil_det == 3, f"determinant {trefoil_det}")
    dets = [determinant(positive_resolution(twist_family(n))) for n in (1, 3, 5)]
    run.record(
        "twist-dets-distinct",
        len(set(dets)) == 3,
        "determinants " + " ".join(str(d) for d in dets),
    )


SUITES: Dict[str, Callable[..., None]] = {
    "parity": _suite_parity,
    "deltas": _suite_deltas,
    "twist": _suite_twist,
    "strong-trivial": _suite_strong_trivial,
    "bracket": _suite_bracket,
}
