import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from sample_words import CURL, FIGURE8, TREFOIL
from flatknots.corpus import load_corpus
from flatknots.explore import enumerate_words, twist_family
from flatknots.words import (
    WordError,
    _back_distances,
    _least_views,
    all_slots,
    canonical,
    chord_count,
    connected_sum,
    format_word,
    fresh_label,
    is_prime,
    label_for_rank,
    letters,
    parse_word,
    positions,
    prime_decompose,
    rank_sequence,
    rank_word,
    validate_word,
)


def test_parse_basic():
    assert parse_word("a b a b") == ("a", "b", "a", "b")
    assert parse_word("x1 x2 x1 x2") == ("x1", "x2", "x1", "x2")


def test_parse_compact_run():
    assert parse_word("abcabc") == TREFOIL
    assert parse_word("aa") == CURL


def test_parse_comment_and_empty():
    assert parse_word("a a  # a curl") == CURL
    assert parse_word("") == ()
    assert parse_word("-") == ()
    assert parse_word("# nothing here") == ()


def test_parse_rejects_odd_occurrences():
    with pytest.raises(WordError, match="occurs once"):
        parse_word("a b a")
    with pytest.raises(WordError, match="3 times"):
        parse_word("a a a b b")


def test_validate_accepts_empty():
    validate_word(())


def test_format_word():
    assert format_word(TREFOIL) == "a b c a b c"
    assert format_word(()) == "-"


def test_chord_count():
    assert chord_count(()) == 0
    assert chord_count(TREFOIL) == 3


def test_letters_and_positions():
    assert letters(FIGURE8) == ("a", "b", "c", "d")
    assert positions(TREFOIL) == {"a": (0, 3), "b": (1, 4), "c": (2, 5)}


def test_rank_sequence():
    assert rank_sequence(("b", "c", "b", "c")) == (0, 1, 0, 1)
    assert rank_word(("q", "p", "q", "p")) == ("a", "b", "a", "b")


def test_label_for_rank():
    assert label_for_rank(0) == "a"
    assert label_for_rank(25) == "z"
    assert label_for_rank(26) == "x26"
    with pytest.raises(ValueError):
        label_for_rank(-1)


def test_canonical_frozen_values():
    assert canonical(()) == ()
    assert canonical(("b", "b")) == ("a", "a")
    assert canonical(("b", "c", "b", "c")) == ("a", "b", "a", "b")
    assert canonical(("c", "a", "b", "c", "a", "b")) == TREFOIL
    assert canonical(("b", "b", "a", "a")) == ("a", "a", "b", "b")


def test_canonical_is_least_variant():
    # The canonical rank sequence must be the minimum over every
    # rotation of the word and of its reverse.
    for n in (2, 3):
        for word in oracles.enumerate_matchings(n):
            expected = min(oracles.all_canonical_variants(word))
            assert rank_sequence(canonical(word)) == expected


def test_canonical_idempotent_and_invariant():
    for n in (2, 3):
        for word in oracles.enumerate_matchings(n):
            c = canonical(word)
            assert canonical(c) == c
            rotated = word[2:] + word[:2]
            assert canonical(rotated) == c
            assert canonical(word[::-1]) == c
            relabeled = tuple(label.upper() for label in word)
            assert canonical(relabeled) == c


@st.composite
def _word_and_symmetry(draw):
    n = draw(st.integers(1, 16))
    word = tuple(draw(st.permutations([f"c{i}" for i in range(n)] * 2)))
    shift = draw(st.integers(0, 2 * n - 1))
    renames = draw(st.permutations([f"r{i}" for i in range(n)]))
    return word, shift, dict(zip((f"c{i}" for i in range(n)), renames))


@settings(derandomize=True)
@given(_word_and_symmetry())
def test_canonical_is_least_variant_and_invariant_on_random_words(case):
    word, shift, renames = case
    c = canonical(word)
    assert rank_sequence(c) == min(oracles.all_canonical_variants(word))
    assert canonical(word[shift:] + word[:shift]) == c
    assert canonical(word[::-1]) == c
    assert canonical(tuple(renames[label] for label in word)) == c


def _torus(k):
    labels = [label_for_rank(i) for i in range(k)]
    return tuple(labels + labels)


def _curl_chain(k):
    return tuple(label_for_rank(i) for i in range(k) for _ in range(2))


def _copies(prime, count):
    word = ()
    for _ in range(count):
        word = connected_sum(word, prime, len(word))
    return word


FIVE_TWO = parse_word("a b c a d e b c e d")

# Words with many symmetries, so that many views tie to the end of the
# comparison: torus words (labels past z at k > 26), twist family
# members, curl chains and sums of equal primes placed block after block.
TIE_HEAVY = (
    [_torus(k) for k in (1, 2, 3, 4, 7, 26, 27, 30)]
    + [twist_family(n) for n in (1, 2, 3, 4, 9, 10)]
    + [_curl_chain(k) for k in (1, 2, 3, 8, 27)]
    + [_copies(prime, count) for prime in (TREFOIL, FIGURE8, FIVE_TWO) for count in (2, 3, 5)]
)


def _view_ranks(word):
    views = []
    for w in (word, word[::-1]):
        views += [rank_sequence(w[s:] + w[:s]) for s in range(len(w))]
    return views


@pytest.mark.parametrize("word", TIE_HEAVY, ids=lambda w: format_word(w)[:24])
def test_canonical_of_tie_heavy_words(word):
    c = canonical(word)
    assert rank_sequence(c) == min(oracles.all_canonical_variants(word))
    reverse = word[::-1]
    for s in range(len(word)):
        assert canonical(word[s:] + word[:s]) == c
        assert canonical(reverse[s:] + reverse[:s]) == c
    renames = {label: f"q{i}" for i, label in enumerate(reversed(letters(word)))}
    assert canonical(tuple(renames[label] for label in word)) == c
    # The views left live are exactly those of least rank sequence.
    views = _view_ranks(word)
    assert len(_least_views(_back_distances(word))) == views.count(min(views))


def test_canonical_of_torus_and_curl_words_past_z():
    assert canonical(_torus(30)) == _torus(30)
    assert canonical(_torus(30))[26:30] == ("x26", "x27", "x28", "x29")
    assert canonical(_curl_chain(27)[::-1]) == _curl_chain(27)


def test_fresh_label():
    assert fresh_label(()) == "a"
    assert fresh_label(CURL) == "b"
    assert fresh_label(("b", "b")) == "a"


def test_all_slots():
    assert list(all_slots(())) == [0]
    assert list(all_slots(CURL)) == [0, 1]


def test_connected_sum_relabels_and_splices():
    joined = connected_sum(CURL, CURL, slot=1)
    assert joined == ("a", "b", "b", "a")
    assert sorted(prime_decompose(joined)) == [("a", "a"), ("a", "a")]


def test_connected_sum_slot_range():
    with pytest.raises(ValueError):
        connected_sum(CURL, CURL, slot=3)
    assert connected_sum((), TREFOIL) == TREFOIL


def test_prime_examples():
    assert is_prime(CURL)
    assert is_prime(TREFOIL)
    assert is_prime(FIGURE8)
    assert not is_prime(())
    assert not is_prime(("a", "a", "b", "b"))
    for k in (98, 198, 398):
        assert is_prime(twist_family(k)), k


def test_prime_decompose_frozen():
    assert prime_decompose(()) == ()
    assert prime_decompose(TREFOIL) == (TREFOIL,)
    assert prime_decompose(("a", "a", "b", "b")) == (("a", "a"), ("a", "a"))
    assert prime_decompose(("x", "y", "y", "z", "z", "x")) == (
        ("a", "a"),
        ("a", "a"),
        ("a", "a"),
    )


def test_prime_decompose_recovers_random_sums(rng):
    primes = [CURL, TREFOIL, FIGURE8, ("a", "b", "a", "b")]
    for _ in range(200):
        parts = [rng.choice(primes) for _ in range(rng.randint(1, 3))]
        word = ()
        for part in parts:
            word = connected_sum(word, part, slot=rng.randrange(max(1, len(word))))
        expected = sorted(canonical(p) for p in parts)
        assert sorted(prime_decompose(word)) == expected
    # Long sums of catalog primes and curls, up to 40 summands.
    primes = [CURL] + [entry.word for entry in load_corpus()]
    for _ in range(20):
        parts = [rng.choice(primes) for _ in range(rng.randint(1, 40))]
        word = ()
        for part in parts:
            word = connected_sum(word, part, slot=rng.randrange(max(1, len(word))))
        expected = sorted(canonical(p) for p in parts)
        assert sorted(prime_decompose(word)) == expected


def test_prime_decompose_factors_are_prime():
    for n in (2, 3):
        for word in oracles.enumerate_matchings(n):
            factors = prime_decompose(word)
            assert sum(chord_count(f) for f in factors) == n
            for factor in factors:
                assert is_prime(factor)
                assert canonical(factor) == factor
    for n in range(8):
        for word in enumerate_words(n):
            expected = oracles.prime_factors_by_intervals(word)
            factors = prime_decompose(word)
            assert tuple(rank_sequence(f) for f in factors) == expected, word
            assert is_prime(word) == (len(expected) == 1), word


def test_prime_decompose_seam_pairs():
    # Removing an inner factor can create a new adjacency at the seam;
    # the remainder must still decompose fully.
    word = ("a", "x", "x", "a", "b", "b")
    assert prime_decompose(word) == (("a", "a"), ("a", "a"), ("a", "a"))


def test_connected_sum_slot_positions_cover_cyclic_choices():
    base = TREFOIL
    results = {canonical(connected_sum(base, CURL, slot=s)) for s in all_slots(base)}
    # Every splice of a curl into the trefoil is one of these words.
    for candidate in results:
        assert chord_count(candidate) == 4
    assert len(results) >= 1
