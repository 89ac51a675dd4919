"""Bundled catalog: loading, validation errors, and frozen rows."""

import re

import pytest

from flatknots import (
    CorpusError,
    alternating_determinant,
    canonical,
    chord_count,
    corpus_entry,
    enumerate_words,
    invariant_report,
    is_prime,
    is_realizable,
    load_corpus,
    parse_corpus,
    reduce_r1,
    reduced_prime_census,
    twist_family,
)

# name, chords, cross chords, trivializing number, clique union flag,
# determinant of the alternating resolution
FROZEN_ROWS = [
    ("3_1", 3, 3, 2, 0, 3),
    ("4_1", 4, 4, 2, 1, 5),
    ("5_1", 5, 10, 4, 0, 5),
    ("5_2", 5, 7, 2, 1, 7),
    ("6_1", 6, 8, 2, 1, 9),
    ("6_2", 6, 11, 4, 1, 11),
    ("6_3", 6, 10, 4, 1, 13),
    ("7_1", 7, 21, 6, 0, 7),
    ("7_2", 7, 11, 2, 1, 11),
    ("7_3", 7, 18, 4, 1, 13),
    ("7_4", 7, 15, 4, 1, 15),
    ("7_5", 7, 14, 4, 1, 17),
    ("7_6", 7, 11, 4, 1, 19),
    ("7_7", 7, 12, 4, 1, 21),
    ("7_A", 7, 11, 4, 1, 19),
    ("7_B", 7, 12, 4, 1, 21),
    ("7_C", 7, 14, 4, 1, 17),
]


@pytest.fixture(scope="module")
def entries():
    return load_corpus()


def test_bundled_corpus_has_seventeen_entries(entries):
    assert len(entries) == 17
    assert [e.name for e in entries] == [row[0] for row in FROZEN_ROWS]


def test_entries_are_canonical_reduced_prime_and_realizable(entries):
    for entry in entries:
        assert entry.word == canonical(entry.word), entry.name
        assert entry.word == reduce_r1(entry.word), entry.name
        assert is_prime(entry.word), entry.name
        assert is_realizable(entry.word), entry.name


def test_chord_counts_match_name_prefixes(entries):
    for entry in entries:
        assert chord_count(entry.word) == int(entry.name.split("_")[0]), entry.name


def test_frozen_invariant_rows(entries):
    for entry, (name, n, x, tr, h, det) in zip(entries, FROZEN_ROWS):
        rep = invariant_report(entry.word)
        got = (entry.name, rep.chords, rep.cross_chords, rep.trivializing, rep.h)
        assert got == (name, n, x, tr, h)
        assert alternating_determinant(entry.word) == det, name


def test_twist_members_appear_under_standard_names(entries):
    for n, name in [(1, "3_1"), (2, "4_1"), (3, "5_2"), (4, "6_1"), (5, "7_2")]:
        assert corpus_entry(name, entries).word == canonical(twist_family(n))


def test_trivializing_two_exactly_on_twist_members(entries):
    twisty = {e.name for e in entries if invariant_report(e.word).trivializing == 2}
    assert twisty == {"3_1", "4_1", "5_2", "6_1", "7_2"}


def test_census_counts_and_corpus_agreement(entries):
    for n, count in [(3, 1), (4, 1), (5, 2), (6, 3), (7, 10)]:
        census = reduced_prime_census(n)
        assert len(census) == count
        named = {e.word for e in entries if e.name.startswith(str(n))}
        assert set(census) == named


def test_census_equals_the_filtered_enumeration():
    # The census prunes while it generates; it must keep exactly the
    # classes that filtering every class keeps.
    for n in range(8):
        kept = tuple(
            w
            for w in enumerate_words(n)
            if is_realizable(w) and reduce_r1(w) == w and is_prime(w)
        )
        assert reduced_prime_census(n) == kept, n


def test_census_sizes_at_eight_and_nine():
    # Equal to the filtered unpruned enumeration in a one-off run.
    assert len(reduced_prime_census(8)) == 27
    assert len(reduced_prime_census(9)) == 101


def test_seven_chord_entries_are_pairwise_distinct(entries):
    sevens = [e.word for e in entries if e.name.startswith("7")]
    assert len(sevens) == 10
    assert len(set(sevens)) == 10


def test_corpus_entry_lookup(entries):
    assert corpus_entry("4_1", entries).word == canonical(twist_family(2))
    with pytest.raises(KeyError):
        corpus_entry("9_99", entries)


def test_parse_corpus_reports_line_numbers():
    with pytest.raises(CorpusError, match="line 1"):
        parse_corpus("3_1 a b c a b c")
    with pytest.raises(CorpusError, match="line 2.*empty entry name"):
        parse_corpus("k: a a\n: b b")
    with pytest.raises(CorpusError, match="duplicate name 'k'.*line 1"):
        parse_corpus("k: a a\nk: b b")
    with pytest.raises(CorpusError, match="line 1"):
        parse_corpus("k: a b a")
    with pytest.raises(CorpusError, match="not realizable"):
        parse_corpus("k: a b c d a b c d")


def test_parse_corpus_ignores_comments_and_blanks():
    text = "# heading\n\nk: a a  # one curl\n  # trailing note\n"
    entries = parse_corpus(text)
    assert len(entries) == 1
    assert entries[0].name == "k"
    assert entries[0].word == ("a", "a")


def test_load_corpus_from_custom_path(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("t: a b c a b c\n")
    entries = load_corpus(str(path))
    assert [e.name for e in entries] == ["t"]
    assert entries[0].word == ("a", "b", "c", "a", "b", "c")


def test_load_corpus_names_an_unreadable_path(tmp_path):
    missing = tmp_path / "absent.txt"
    with pytest.raises(CorpusError, match=re.escape(f"cannot read {missing}: No such file")):
        load_corpus(str(missing))
    with pytest.raises(CorpusError, match=re.escape(f"cannot read {tmp_path}: Is a directory")):
        load_corpus(str(tmp_path))
    latin1 = tmp_path / "latin1.txt"
    latin1.write_bytes(b"\xff")
    with pytest.raises(CorpusError, match=re.escape(f"cannot read {latin1}: 'utf-8' codec")):
        load_corpus(str(latin1))
