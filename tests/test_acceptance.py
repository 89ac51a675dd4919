"""Acceptance gate: one check per shipped claim, one verdict line each.

Run with -s to see the verdict lines; each test is also named after its
claim so the -v listing reads as the same checklist.  C4b asserts the
literal universal step law for the twist family; the even steps break
it, so it is a strict expected failure with the analysis printed before
the assert.
"""

import itertools
import random

import pytest

import oracles
from sample_words import NONREALIZABLE_4, TREFOIL

from flatknots import (
    MOVE_LAWS,
    MoveKind,
    NotRealizableError,
    SearchConfig,
    apply_move,
    canonical,
    chord_count,
    connected_sum,
    cross_chord_number,
    enumerate_realizable,
    enumerate_words,
    equivalence_query,
    find_sites,
    format_word,
    h_invariant,
    invariant_report,
    jones_normalized,
    letters,
    load_corpus,
    positive_resolution,
    realize,
    reduced_prime_census,
    search_class,
    strong_trivial_test,
    trefoil_summand_count,
    trivializing_number,
    twist_family,
    verify_path,
)
from flatknots.knots import determinant


def _note(line):
    print(line)


@pytest.fixture(scope="module")
def realizable_upto6():
    words = []
    for n in range(0, 7):
        words.extend(enumerate_realizable(n))
    return tuple(words)


# ---------------------------------------------------------------- C1


def test_criterion_1_trivializing_number_is_even(realizable_upto6):
    odd = [w for w in realizable_upto6 if trivializing_number(w) % 2 != 0]
    assert not odd, f"odd tr on {format_word(odd[0])}"
    _note(
        f"C1 PASS: tr is even on all {len(realizable_upto6)} realizable "
        f"words with n <= 6"
    )


# ---------------------------------------------------------------- C2


# The paper's move laws, written out here rather than read from the
# library: kind -> (signed changes in X, allowed changes in tr, H kept).
# Curls change nothing; a strong move changes X by exactly 3 (so keeps
# X mod 3), keeps H and moves the even tr by at most 2; a weak move
# changes X by 1 and keeps tr.
PAPER_LAWS = {
    MoveKind.CURL_ADD: ((0,), (0,), True),
    MoveKind.CURL_DELETE: ((0,), (0,), True),
    MoveKind.STRONG_EXPAND: ((3,), (-2, 0, 2), True),
    MoveKind.STRONG_CONTRACT: ((-3,), (-2, 0, 2), True),
    MoveKind.WEAK_SLIDE: ((-1, 1), (0,), False),
}


def _assert_move_laws(word, where):
    """Check every site of the word against PAPER_LAWS; return the count."""
    sites = find_sites(word, tuple(MoveKind))
    for site in sites:
        after = apply_move(word, site)
        dx = cross_chord_number(after) - cross_chord_number(word)
        dtr = trivializing_number(after) - trivializing_number(word)
        dh = h_invariant(after) - h_invariant(word)
        want_dx, want_dtr, keeps_h = PAPER_LAWS[site.kind]
        assert dx in want_dx and dtr in want_dtr and not (keeps_h and dh), (
            f"{where} via {site.describe()}: dX={dx} dtr={dtr} dH={dh}"
        )
    return len(sites)


def test_move_laws_match_the_paper():
    assert MOVE_LAWS == PAPER_LAWS


def test_criterion_2_move_deltas(realizable_upto6):
    checked = 0
    for word in realizable_upto6:
        checked += _assert_move_laws(word, format_word(word))
    _note(
        f"C2 PASS: curl, strong, and weak delta laws hold over {checked} "
        f"move applications on all realizable words with n <= 6"
    )


# ---------------------------------------------------------------- C3


def _random_matching(rng, n):
    slots = [None] * (2 * n)
    free = list(range(2 * n))
    for index in range(n):
        label = chr(ord("a") + index)
        first = free.pop(0)
        other = free.pop(rng.randrange(len(free)))
        slots[first] = slots[other] = label
    return tuple(slots)


def test_criterion_3_oracle_agreement():
    rng = random.Random(20260819)
    sampled = 0
    for n in range(1, 11):
        for _ in range(100):
            word = _random_matching(rng, n)
            expected = oracles.brute_min_cover(
                letters(word), oracles.interlacement_edges(word)
            )
            assert trivializing_number(word) == expected, format_word(word)
            sampled += 1
    assert sampled >= 1000

    dual_checked = 0
    for n in range(0, 7):
        for word in enumerate_words(n):
            verts = letters(word)
            edges = oracles.interlacement_edges(word)
            by_path = 1 if oracles.has_induced_path3(verts, edges) else 0
            by_cliques = 0 if oracles.is_union_of_cliques(verts, edges) else 1
            assert by_path == by_cliques == h_invariant(word), format_word(word)
            dual_checked += 1
    _note(
        f"C3 PASS: tr matches brute force cover on {sampled} sampled words "
        f"with n <= 10; H matches both dual oracles on {dual_checked} words "
        f"with n <= 6"
    )


# ---------------------------------------------------------------- C4


TWIST_X = [3, 4, 7, 8, 11, 12, 15, 16]


def test_criterion_4_twist_family():
    xs = []
    for n in range(1, 9):
        word = twist_family(n)
        assert trivializing_number(word) == 2, n
        xs.append(cross_chord_number(word))
    assert xs == TWIST_X

    # odd steps: one weak move away, cross chords differ by exactly 1
    for n in (1, 3):
        assert xs[n] - xs[n - 1] == 1
        assert (xs[n] - xs[n - 1]) % 3 != 0
        res = equivalence_query(
            twist_family(n),
            twist_family(n + 1),
            moves_name="weak",
            config=SearchConfig(max_chords=chord_count(twist_family(n + 1)) + 1),
        )
        assert res.verdict == "equivalent" and res.path is not None
        assert len(res.path) <= 2 and verify_path(res.path), n

    # even steps: the gap is one strong move (plus a curl), never 1
    for n in (2, 4, 6):
        assert xs[n] - xs[n - 1] == 3
    res = equivalence_query(
        twist_family(2),
        twist_family(3),
        moves_name="strong",
        config=SearchConfig(max_chords=chord_count(twist_family(3)) + 1),
    )
    assert res.verdict == "equivalent" and res.path is not None
    assert len(res.path) <= 2 and verify_path(res.path)

    _note(
        "C4 PASS: twist family keeps tr = 2 through n = 8 with cross chords "
        f"{' '.join(str(x) for x in TWIST_X)}; odd steps are single weak "
        "moves with +1 cross chords, even steps are strong moves with +3"
    )


@pytest.mark.xfail(
    strict=True,
    reason=(
        "the +1 cross chord step holds only entering even members; "
        "the step from an even member to the next odd one is +3"
    ),
)
def test_criterion_4_universal_unit_step_literal():
    xs = [cross_chord_number(twist_family(n)) for n in range(1, 9)]
    steps = [xs[i + 1] - xs[i] for i in range(len(xs) - 1)]
    _note(
        "C4b FAIL (expected): universal unit step is refuted, the steps are "
        f"{' '.join(str(s) for s in steps)}; no 5 chord projection with "
        "tr = 2 exists other than the n = 3 twist member, so no family "
        "can step by +1 at every n"
    )
    assert all(step == 1 for step in steps)


# ---------------------------------------------------------------- C5


STRONG_MOVES = (MoveKind.CURL_ADD, MoveKind.STRONG_EXPAND, MoveKind.STRONG_CONTRACT)


@pytest.fixture(scope="module")
def strong_reachable():
    return search_class(
        (), STRONG_MOVES, SearchConfig(max_chords=7, max_states=10 ** 6)
    )


def _sums_of(factors, cap):
    """Canonical sums of the factors in every insertion order and slot."""
    shapes = {()}
    for order in set(itertools.permutations(factors)):
        partials = {()}
        for factor in order:
            grown = set()
            for base in partials:
                for slot in range(max(1, len(base))):
                    word = connected_sum(base, factor, slot=slot)
                    if chord_count(word) <= cap:
                        grown.add(canonical(word))
            partials = grown
            shapes.update(partials)
    return shapes


def test_criterion_5_strong_trivial_class(strong_reachable):
    for word in strong_reachable.words:
        assert strong_trivial_test(word), format_word(word)

    trefoil = ("a", "b", "c", "a", "b", "c")
    curl = ("a", "a")
    targets = set()
    for count in range(3):
        for curls in range(2):
            targets |= _sums_of([trefoil] * count + [curl] * curls, 7)
    missing = [w for w in targets if w not in strong_reachable]
    assert not missing, format_word(missing[0]) if missing else ""
    _note(
        f"C5 PASS: every one of the {len(strong_reachable.words)} words "
        "reached from the empty word by curls and strong moves within 7 "
        f"chords is a sum of curls and trefoils, and all {len(targets)} "
        "sums of at most 2 trefoils and 1 curl are reached"
    )


def test_criterion_5_strong_trivial_class_both_directions():
    # For every chord cap, the strong closure of the empty word is
    # exactly the realizable words within the cap that pass the test.
    for cap in range(9):
        reached = search_class(
            (), STRONG_MOVES, SearchConfig(max_chords=cap, max_states=10 ** 6)
        )
        passing = {
            w
            for k in range(cap + 1)
            for w in enumerate_realizable(k)
            if strong_trivial_test(w)
        }
        assert reached.words == passing, cap
    _note(
        "C5 PASS (both directions): for every cap n <= 8 the strong closure "
        f"of the empty word is exactly the {len(passing)} realizable words "
        "within the cap that pass strong_trivial_test"
    )


# ---------------------------------------------------------------- C6


def test_criterion_6_expand_moves_count_trefoil_summands():
    kinds = (MoveKind.CURL_ADD, MoveKind.STRONG_EXPAND)
    result = search_class((), kinds, SearchConfig(max_chords=7, max_states=10 ** 6))

    for parent, site, child in result.edges():
        gain = trefoil_summand_count(child) - trefoil_summand_count(parent)
        expected = 1 if site.kind is MoveKind.STRONG_EXPAND else 0
        assert gain == expected, f"{format_word(parent)} via {site.describe()}"

    for word in result.words:
        path = result.path_to(word)
        assert path is not None and verify_path(path)
        expands = sum(
            1 for site in path.moves if site.kind is MoveKind.STRONG_EXPAND
        )
        assert expands == trefoil_summand_count(word), format_word(word)
    _note(
        f"C6 PASS: along every growth path to all {len(result.words)} "
        "reachable words, the number of strong expand moves equals the "
        "trefoil summand count of the endpoint"
    )


# ---------------------------------------------------------------- C7


def test_criterion_7_state_sums():
    assert jones_normalized(positive_resolution(())) == {0: 1}
    assert jones_normalized(positive_resolution(("a", "a"))) == {0: 1}

    trefoil_det = determinant(positive_resolution(TREFOIL))
    goeritz = oracles.goeritz_determinant(TREFOIL, realize(TREFOIL).bits)
    assert trefoil_det == goeritz == 3

    dets = [determinant(positive_resolution(twist_family(n))) for n in (1, 3, 5)]
    assert len(set(dets)) == 3
    _note(
        "C7 PASS: normalized bracket is 1 on the empty word and one curl; "
        f"trefoil determinant 3 matches the two colored face form oracle; "
        f"odd twist determinants {dets[0]} {dets[1]} {dets[2]} are distinct"
    )


# ---------------------------------------------------------------- C8


def test_criterion_8_realizability():
    with pytest.raises(NotRealizableError):
        realize(NONREALIZABLE_4)
    assert realize(TREFOIL).inventory.faces

    agreed = 0
    for n in range(0, 6):
        for word in enumerate_words(n):
            ours = True
            try:
                realize(word)
            except NotRealizableError:
                ours = False
            assert ours == oracles.corner_realizable(word), format_word(word)
            agreed += 1
    _note(
        "C8 PASS: the interleaved repeat word is rejected, the trefoil is "
        f"accepted, and realizability matches the corner tracing oracle on "
        f"all {agreed} words with n <= 5"
    )


# ---------------------------------------------------------------- C9


def test_criterion_9_catalog_rows(realizable_upto6):
    entries = load_corpus()
    assert len(entries) == 17

    checked_sites = 0
    for entry in entries:
        rep = invariant_report(entry.word)
        assert rep.realizable, entry.name
        assert rep.trivializing % 2 == 0, entry.name

        checked_sites += _assert_move_laws(entry.word, entry.name)

        expected_tr = oracles.brute_min_cover(
            letters(entry.word), oracles.interlacement_edges(entry.word)
        )
        assert rep.trivializing == expected_tr, entry.name
        by_cliques = 0 if oracles.is_union_of_cliques(
            letters(entry.word), oracles.interlacement_edges(entry.word)
        ) else 1
        assert rep.h == by_cliques, entry.name

    three_one = invariant_report(
        next(e.word for e in entries if e.name == "3_1")
    )
    assert (three_one.cross_chords, three_one.trivializing) == (3, 2)
    twist_rows = {"3_1": 3, "4_1": 4, "5_2": 7, "6_1": 8, "7_2": 11}
    for entry in entries:
        if entry.name in twist_rows:
            rep = invariant_report(entry.word)
            assert rep.trivializing == 2, entry.name
            assert rep.cross_chords == twist_rows[entry.name], entry.name
    _note(
        "C9 PASS: all 17 catalog rows keep tr even, obey the move delta "
        f"laws over {checked_sites} sites, and match the brute force tr and "
        "clique union oracles; the twist rows carry tr = 2 with their "
        "frozen cross chord counts"
    )


# ---------------------------------------------------------------- C10


def test_criterion_10_trivializing_two_is_the_twist_family():
    # The paper's classification: among reduced prime projections with
    # n chords, the twist member T(n - 2) is the only one with tr = 2.
    for n in range(3, 11):
        twos = [w for w in reduced_prime_census(n) if trivializing_number(w) == 2]
        assert twos == [canonical(twist_family(n - 2))], n
    _note(
        "C10 PASS: for n = 3..10 the only reduced prime projection with "
        "tr = 2 is the twist member T(n - 2)"
    )
