from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sample_words import (
    CURL,
    FIGURE8,
    NONREALIZABLE_2,
    NONREALIZABLE_3,
    TREFOIL,
)
from flatknots.corpus import load_corpus
from flatknots.embedding import is_realizable
from flatknots.explore import twist_family
from flatknots.invariants import (
    cross_chord_number,
    h_invariant,
    invariant_report,
    r1_normal_form,
    reduce_r1,
    trefoil_summand_count,
    trivializing_number,
)
from flatknots.words import canonical, connected_sum, interlacement_masks, letters, rank_sequence


def _canonical_words(n):
    seen = set()
    for word in oracles.enumerate_matchings(n):
        c = canonical(word)
        if c not in seen:
            seen.add(c)
            yield c


def _mask_edges(word):
    """The interlacement edges decoded from ``interlacement_masks``."""
    labels = letters(word)
    return {
        tuple(sorted((labels[i], labels[j])))
        for i, mask in enumerate(interlacement_masks(word))
        for j in range(len(labels))
        if mask >> j & 1
    }


def test_interlacement_frozen():
    assert _mask_edges(TREFOIL) == {("a", "b"), ("a", "c"), ("b", "c")}
    # A four cycle with parts {a, b} and {c, d}.
    assert _mask_edges(FIGURE8) == {("a", "c"), ("a", "d"), ("b", "c"), ("b", "d")}


def test_cross_chord_frozen():
    assert cross_chord_number(()) == 0
    assert cross_chord_number(CURL) == 0
    assert cross_chord_number(NONREALIZABLE_2) == 1
    assert cross_chord_number(NONREALIZABLE_3) == 2
    assert cross_chord_number(TREFOIL) == 3
    assert cross_chord_number(FIGURE8) == 4


def test_trivializing_frozen():
    assert trivializing_number(()) == 0
    assert trivializing_number(CURL) == 0
    assert trivializing_number(NONREALIZABLE_2) == 1
    assert trivializing_number(NONREALIZABLE_3) == 1
    assert trivializing_number(TREFOIL) == 2
    assert trivializing_number(FIGURE8) == 2


def test_h_frozen():
    assert h_invariant(()) == 0
    assert h_invariant(CURL) == 0
    assert h_invariant(NONREALIZABLE_2) == 0
    assert h_invariant(NONREALIZABLE_3) == 1
    assert h_invariant(TREFOIL) == 0
    assert h_invariant(FIGURE8) == 1


def test_h_one_needs_three_chords_and_is_unique_there():
    # Up to symmetry exactly one word on three chords has an induced
    # path in its interlacement graph.
    for n in (1, 2):
        for word in _canonical_words(n):
            assert h_invariant(word) == 0
    with_h = {word for word in _canonical_words(3) if h_invariant(word) == 1}
    assert with_h == {canonical(NONREALIZABLE_3)}
    assert canonical(NONREALIZABLE_3) == ("a", "b", "a", "c", "b", "c")


def test_interlacement_matches_oracle():
    for n in (2, 3, 4, 5):
        for word in oracles.enumerate_matchings(n):
            assert _mask_edges(word) == oracles.interlacement_edges(word), word


def test_cross_chord_matches_oracle():
    for n in (2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            assert cross_chord_number(word) == oracles.cross_pairs(word)


def _brute_tr(word):
    return oracles.brute_min_cover(sorted(set(word)), oracles.interlacement_edges(word))


def test_trivializing_matches_brute_force():
    for n in range(7):
        for word in _canonical_words(n):
            assert trivializing_number(word) == _brute_tr(word), word


@settings(derandomize=True)
@given(st.integers(0, 12).flatmap(lambda n: st.permutations([f"c{i}" for i in range(n)] * 2)))
def test_trivializing_matches_brute_force_on_random_words(word):
    assert trivializing_number(word) == _brute_tr(word)


def test_trivializing_adds_over_connected_sums():
    # The interlacement graph of a connected sum is the disjoint union
    # of the summands' graphs, so tr adds up.
    primes = [entry.word for entry in load_corpus()]
    word, total = (), 0
    for k in range(20):
        prime = primes[(7 * k) % len(primes)]
        word = connected_sum(word, prime, slot=(5 * k) % (len(word) + 1))
        total += _brute_tr(prime)
        assert trivializing_number(word) == total, k + 1


def test_trivializing_of_long_twist_members():
    for k in list(range(1, 61)) + [98, 198]:
        assert trivializing_number(twist_family(k)) == 2, k


def test_trivializing_of_a_long_chord_path():
    n = 2100
    # c0 c1 c0 c2 c1 c3 c2 ... c2099: chord i interleaves only its
    # neighbours i - 1 and i + 1 on the path.
    pairs = (label for i in range(1, n) for label in (f"c{i}", f"c{i - 1}"))
    word = ("c0", *pairs, f"c{n - 1}")
    path = tuple((1 << i - 1 if i else 0) | (1 << i + 1 if i < n - 1 else 0) for i in range(n))
    assert interlacement_masks(word) == path
    assert trivializing_number(word) == n // 2


def test_h_matches_both_oracles():
    for n in range(7):
        for word in _canonical_words(n):
            vertices = sorted(set(word))
            edges = oracles.interlacement_edges(word)
            path = oracles.has_induced_path3(vertices, edges)
            cliques = oracles.is_union_of_cliques(vertices, edges)
            assert path != cliques
            assert h_invariant(word) == int(path), word


def test_trivializing_even_for_realizable():
    for n in (1, 2, 3, 4, 5):
        for word in _canonical_words(n):
            if is_realizable(word):
                assert trivializing_number(word) % 2 == 0, word


def test_reduce_r1_frozen():
    assert reduce_r1(()) == ()
    assert reduce_r1(CURL) == ()
    assert reduce_r1(("x", "y", "y", "z", "z", "x")) == ()
    assert reduce_r1(TREFOIL) == TREFOIL
    assert reduce_r1(("a", "b", "b", "c", "a", "c")) == ("a", "c", "a", "c")
    # 3,000 nested curls, alone and after a part no deletion touches.
    nested = [f"x{i}" for i in range(3000)]
    nested += nested[::-1]
    assert reduce_r1(nested) == ()
    assert reduce_r1(["p", "q", "p", "q"] + nested) == ("p", "q", "p", "q")
    # A wrap chain: pairs that meet only across the wrap, one inside the other.
    assert reduce_r1(("a", "b", "x", "y", "x", "y", "c", "c", "b", "a")) == ("x", "y", "x", "y")


def test_reduce_r1_wraparound_pair():
    assert reduce_r1(("a", "b", "b", "a")) == ()


def test_reduce_r1_confluent():
    for n in (1, 2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            outcomes = oracles.reduce_r1_all_orders(word)
            assert len(outcomes) == 1
            assert rank_sequence(r1_normal_form(word)) == next(iter(outcomes))


def test_r1_normal_form_shape_invariant():
    word = ("a", "b", "b", "c", "a", "c")
    assert r1_normal_form(word) == r1_normal_form(word[3:] + word[:3])
    assert r1_normal_form(word) == r1_normal_form(word[::-1])


def test_trefoil_summand_count():
    assert trefoil_summand_count(()) == 0
    assert trefoil_summand_count(CURL) == 0
    assert trefoil_summand_count(TREFOIL) == 1
    assert trefoil_summand_count(FIGURE8) == 0
    two = connected_sum(TREFOIL, TREFOIL, slot=2)
    assert trefoil_summand_count(two) == 2
    with_curl = connected_sum(TREFOIL, CURL, slot=4)
    assert trefoil_summand_count(with_curl) == 1
    # A curl buried inside the trefoil must disappear before counting.
    buried = connected_sum(TREFOIL, CURL, slot=3)
    assert trefoil_summand_count(buried) == 1


def test_invariant_report_trefoil():
    report = invariant_report(TREFOIL)
    assert report.chords == 3
    assert report.cross_chords == 3
    assert report.cross_chords_mod3 == 0
    assert report.trivializing == 2
    assert report.h == 0
    assert report.reduced == TREFOIL
    assert report.trefoil_summands == 1
    assert report.realizable is True


def test_invariant_report_nonrealizable_word():
    report = invariant_report(NONREALIZABLE_2)
    assert report.realizable is False
    assert report.trivializing == 1
