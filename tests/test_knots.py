"""Laurent arithmetic, crossing resolutions, state sums, and determinants."""

import itertools
import json
import random
from pathlib import Path

import pytest

from flatknots import cli, knots
from flatknots.corpus import load_corpus
from flatknots.embedding import NotRealizableError, realize
from flatknots.explore import enumerate_realizable, twist_family
from flatknots.knots import (
    _sweep,
    Diagram,
    DiagramError,
    StateSumBudgetError,
    alternating_determinant,
    alternating_diagram,
    determinant,
    jones_normalized,
    kauffman_bracket,
    mirror_diagram,
    positive_resolution,
    resolve,
)
from flatknots.laurent import laurent_add, laurent_format, laurent_mul, laurent_one, monomial
from flatknots.moves import MoveKind, apply_move, find_sites
from flatknots.words import connected_sum

from oracles import bracket_state_sum, goeritz_determinant, seifert_circles
from sample_words import CURL, FIGURE8, NONREALIZABLE_2, TREFOIL, chain_sum, torus_closure

# Brackets of the positive resolutions of torus closures, taken by the
# sweep in first-occurrence order over the whole word, before the sweep
# split words into prime factors and ordered crossings greedily.
TORUS_BRACKETS = {
    (3, 7): {-14: -1, 10: 1, 18: 1},
    (4, 5): {-7: 1, 1: 1, 5: -1, 13: -1, 21: -1},
    (3, 10): {-20: -1, 16: 1, 24: 1},
    (6, 7): {1: 1, 9: 1, 17: 1, 21: -1, 29: -1, 37: -1, 45: -1},
}


def test_laurent_basic_arithmetic():
    a = {0: 1, 2: 3}
    b = {2: -3, 5: 1}
    assert laurent_add(a, b) == {0: 1, 5: 1}
    assert laurent_mul(monomial(1, 2), monomial(-1, 3)) == {0: 6}
    assert laurent_mul(a, {}) == {}
    assert laurent_mul(a, laurent_one()) == a
    assert monomial(4, 0) == {}
    cube = laurent_mul(laurent_mul(monomial(2, -1), monomial(2, -1)), monomial(2, -1))
    assert cube == {6: -1}
    assert laurent_add(a, {e: -c for e, c in a.items()}) == {}


def test_laurent_format_and_mirror():
    poly = {3: -1, -7: 2}
    assert laurent_format(poly) == "-7:2 3:-1"
    assert laurent_format({}) == "0"
    assert laurent_format({0: 0}) == "0"
    assert laurent_format({-e: c for e, c in poly.items()}) == "-3:-1 7:2"


def test_empty_word_diagram():
    diagram = positive_resolution(())
    assert diagram.crossings == 0
    assert diagram.writhe == 0
    assert kauffman_bracket(diagram) == {0: 1}
    assert jones_normalized(diagram) == {0: 1}
    assert determinant(diagram) == 1


def test_positive_curl_bracket():
    diagram = positive_resolution(CURL)
    assert diagram.signs == (1,)
    assert kauffman_bracket(diagram) == {3: -1}
    assert jones_normalized(diagram) == {0: 1}
    assert determinant(diagram) == 1


def test_positive_trefoil_values():
    diagram = positive_resolution(TREFOIL)
    assert diagram.signs == (1, 1, 1)
    assert diagram.writhe == 3
    assert kauffman_bracket(diagram) == {-7: 1, -3: -1, 5: -1}
    assert jones_normalized(diagram) == {-4: 1, -12: 1, -16: -1}
    assert determinant(diagram) == 3


def test_alternating_trefoil_matches_positive_one():
    # The all positive resolution of this word happens to alternate.
    assert alternating_diagram(TREFOIL).signs == (1, 1, 1)
    assert alternating_determinant(TREFOIL) == 3


def test_alternating_figure_eight_values():
    diagram = alternating_diagram(FIGURE8)
    assert diagram.signs == (1, 1, -1, -1)
    assert diagram.writhe == 0
    assert jones_normalized(diagram) == {-8: 1, -4: -1, 0: 1, 4: -1, 8: 1}
    assert alternating_determinant(FIGURE8) == 5


def test_trefoil_resolutions_split_by_alternation():
    dets = []
    for marks in itertools.product((False, True), repeat=3):
        dets.append(determinant(resolve(TREFOIL, marks)))
    # Only the two alternating mark patterns knot; all others untie.
    assert dets == [1, 1, 3, 1, 1, 3, 1, 1]


def test_mirror_reverses_bracket_exponents():
    for word in (CURL, TREFOIL, FIGURE8, twist_family(3)):
        diagram = alternating_diagram(word)
        mirrored = mirror_diagram(diagram)
        assert kauffman_bracket(mirrored) == {
            -e: c for e, c in kauffman_bracket(diagram).items()
        }
        assert mirrored.writhe == -diagram.writhe
        assert determinant(mirrored) == determinant(diagram)


def test_twist_family_determinants_step_by_two():
    assert [alternating_determinant(twist_family(n)) for n in range(1, 6)] == [
        3, 5, 7, 9, 11,
    ]
    for n in range(6, 28):
        assert alternating_determinant(twist_family(n)) == 2 * n + 1
    assert alternating_determinant(twist_family(28)) == 57  # 30 crossings


def test_thirty_crossing_bracket_keeps_the_fourth_root_guard():
    word = twist_family(28)
    for diagram in (positive_resolution(word), alternating_diagram(word)):
        assert diagram.crossings == 30
        assert len({e % 4 for e in kauffman_bracket(diagram)}) == 1
        assert all(e % 4 == 0 for e in jones_normalized(diagram))


def test_bracket_sweep_matches_state_sum_oracle():
    rng = random.Random(4)
    for n in range(1, 7):
        for word in enumerate_realizable(n):
            positive = positive_resolution(word)
            diagrams = [positive, alternating_diagram(word), mirror_diagram(positive)]
            for _ in range(3):
                diagrams.append(resolve(word, [rng.random() < 0.5 for _ in range(n)]))
            for diagram in diagrams:
                expected = bracket_state_sum(word, diagram.bits, diagram.over_first)
                assert kauffman_bracket(diagram) == expected, (word, diagram.over_first)


def test_twist_brackets_match_frozen_state_sums():
    # Values taken by the 2^n state sum and kept with the benchmark.
    path = Path(__file__).resolve().parents[1] / "perfbench" / "frozen" / "brackets.json"
    frozen = json.loads(path.read_text(encoding="utf-8"))
    for n in (8, 10, 12):
        diagram = positive_resolution(twist_family(n))
        for key, function in (("bracket", kauffman_bracket), ("jones", jones_normalized)):
            pairs = sorted([e, c] for e, c in function(diagram).items())
            assert pairs == frozen[str(n)][key], (n, key)


def test_determinant_is_odd_and_matches_spanning_count():
    for n in range(1, 7):
        for word in enumerate_realizable(n):
            det = alternating_determinant(word)
            assert det % 2 == 1
            assert det == goeritz_determinant(word, realize(word).bits)


def test_state_loops_never_exceed_chords_plus_one():
    for n in range(1, 6):
        for word in enumerate_realizable(n):
            tally = _sweep(alternating_diagram(word))
            assert sum(tally.values()) == 2 ** n
            assert all(1 <= loops <= n + 1 for _, loops in tally)


def _all_a_splits(diagram):
    """The loop count of the one state with no B split."""
    ((loops, count),) = [(loops, count) for (b, loops), count in _sweep(diagram).items() if b == 0]
    assert count == 1
    return loops


def test_oriented_split_counts_match_arc_merge_oracle():
    for n in range(1, 6):
        for word in enumerate_realizable(n):
            diagram = positive_resolution(word)
            # Every crossing is positive, so the A split at each one
            # follows the traversal orientation.
            assert diagram.signs == (1,) * n
            assert _all_a_splits(diagram) == seifert_circles(word)
    for word, circles in ((CURL, 2), (TREFOIL, 2), (FIGURE8, 3)):
        assert _all_a_splits(positive_resolution(word)) == circles


def test_determinant_multiplies_over_connected_sums():
    assert alternating_determinant(connected_sum(TREFOIL, FIGURE8)) == 15
    assert alternating_determinant(connected_sum(TREFOIL, TREFOIL)) == 9
    assert alternating_determinant(connected_sum(FIGURE8, CURL, slot=3)) == 5


def test_curl_insertion_preserves_the_determinant():
    for word in (TREFOIL, FIGURE8):
        base = alternating_determinant(word)
        for site in find_sites(word, (MoveKind.CURL_ADD,)):
            curled = apply_move(word, site)
            assert alternating_determinant(curled) == base


def test_curl_insertion_preserves_jones_up_to_mirror():
    word = TREFOIL
    reference = jones_normalized(alternating_diagram(word))
    site = find_sites(word, (MoveKind.CURL_ADD,))[0]
    curled = jones_normalized(alternating_diagram(apply_move(word, site)))
    assert curled in (reference, {-e: c for e, c in reference.items()})


def test_resolve_validates_mark_count():
    with pytest.raises(DiagramError, match="one over-strand mark per chord"):
        resolve(TREFOIL, (True,))


def test_nonrealizable_words_cannot_resolve():
    with pytest.raises(NotRealizableError):
        positive_resolution(NONREALIZABLE_2)
    with pytest.raises(NotRealizableError):
        alternating_diagram(NONREALIZABLE_2)


def test_sign_depends_on_over_strand_choice():
    diagram = positive_resolution(TREFOIL)
    flipped = Diagram(
        word=diagram.word,
        bits=diagram.bits,
        over_first=tuple(not m for m in diagram.over_first),
    )
    assert flipped.signs == (-1, -1, -1)
    assert flipped.writhe == -3


def test_bracket_of_fully_flipped_resolution_mirrors():
    diagram = positive_resolution(TREFOIL)
    flipped = Diagram(
        word=diagram.word,
        bits=diagram.bits,
        over_first=tuple(not m for m in diagram.over_first),
    )
    assert kauffman_bracket(flipped) == {
        -e: c for e, c in kauffman_bracket(diagram).items()
    }


def _torus_knot_jones(p, q):
    """t^((p-1)(q-1)/2) (1 - t^(p+1) - t^(q+1) + t^(p+q)) / (1 - t^2), as t-power -> coefficient."""
    rest = {0: 1, p + 1: -1, q + 1: -1, p + q: 1}
    quotient = {}
    for e in range(p + q - 1):
        c = rest.pop(e, 0)
        if c:
            quotient[e + (p - 1) * (q - 1) // 2] = c
            rest[e + 2] = rest.get(e + 2, 0) + c
    assert not any(rest.values())
    return quotient


def test_torus_closure_brackets_match_frozen_values_and_the_torus_knot_jones():
    for (p, q), expected in TORUS_BRACKETS.items():
        word = torus_closure(p, q)
        assert len(word) == 2 * (p - 1) * q
        assert kauffman_bracket(positive_resolution(word)) == expected, (p, q)
    for p, q in ((3, 7), (4, 5), (3, 10), (5, 8)):
        jones = jones_normalized(positive_resolution(torus_closure(p, q)))
        # A = t^(-1/4), up to the mirror image that the realization picks.
        assert _torus_knot_jones(p, q) in (
            {-e // 4: c for e, c in jones.items()},
            {e // 4: c for e, c in jones.items()},
        ), (p, q)


def _splice_all(rng, summands):
    """The summands spliced one by one, each at a random slot."""
    word = ()
    for summand in summands:
        word = connected_sum(word, summand, rng.randrange(len(word) + 1))
    return word


def test_bracket_of_sums_with_curls_matches_state_sum_oracle():
    rng = random.Random(21)
    primes = [entry.word for entry in load_corpus() if 3 <= len(entry.word) // 2 <= 4]
    words = [_splice_all(rng, rng.sample(primes, 2) + [CURL] * curls) for curls in (0, 1, 2, 2)]
    words.append(connected_sum(connected_sum(TREFOIL, FIGURE8, 2), CURL, 5))
    for word in words:
        n = len(word) // 2
        assert n <= 10
        positive = positive_resolution(word)
        alternating = alternating_diagram(word)
        for diagram in (
            positive,
            alternating,
            mirror_diagram(alternating),
            resolve(word, [rng.random() < 0.5 for _ in range(n)]),
        ):
            expected = bracket_state_sum(word, diagram.bits, diagram.over_first)
            assert kauffman_bracket(diagram) == expected, (word, diagram.over_first)
    # One sum at 14 crossings, where the oracle lists 16,384 states.
    fives = [entry.word for entry in load_corpus() if len(entry.word) == 10]
    word = _splice_all(rng, fives + [CURL] * 4)
    assert len(word) == 28
    diagram = resolve(word, [rng.random() < 0.5 for _ in range(14)])
    assert kauffman_bracket(diagram) == bracket_state_sum(word, diagram.bits, diagram.over_first)


def test_determinant_of_random_sums_is_the_product_and_the_goeritz_count():
    rng = random.Random(5)
    primes = [entry.word for entry in load_corpus() if entry.word]
    for parts in (2, 3, 4, 6, 8):
        summands = [rng.choice(primes) for _ in range(parts)]
        word = _splice_all(rng, summands)
        product = 1
        for prime in summands:
            product *= alternating_determinant(prime)
        assert alternating_determinant(word) == product, summands
        assert goeritz_determinant(word, realize(word).bits) == product, summands


def test_bracket_of_four_hundred_curls_is_a_power_of_the_curl():
    word = chain_sum([CURL] * 400)
    assert kauffman_bracket(positive_resolution(word)) == {1200: 1}


def test_sweep_past_the_frontier_budget_raises(monkeypatch):
    word = torus_closure(3, 10)
    monkeypatch.setattr(knots, "MAX_FRONTIERS", 4)  # T(3,10) peaks at 5
    with pytest.raises(StateSumBudgetError, match="more than 4 frontiers"):
        kauffman_bracket(positive_resolution(word))
    monkeypatch.setattr(knots, "MAX_FRONTIERS", 5)
    assert kauffman_bracket(positive_resolution(word)) == TORUS_BRACKETS[3, 10]


@pytest.mark.parametrize("action", ["bracket", "det"])
def test_cli_maps_the_budget_error_to_its_exit_code(monkeypatch, capsys, action):
    monkeypatch.setattr(knots, "MAX_FRONTIERS", 4)
    code = cli.main(["knots", action, " ".join(torus_closure(3, 10))])
    out, err = capsys.readouterr()
    assert code == cli.EXIT_BUDGET == 4
    assert out == ""
    assert err.startswith("budget exceeded: state sum needs more than 4 frontiers")
    assert err.count("\n") == 1
