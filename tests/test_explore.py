"""Class search, equivalence queries, enumeration, and the twist family."""

from collections import deque
from functools import lru_cache
from itertools import product

import pytest

import oracles
from flatknots import explore, moves
from flatknots.corpus import load_corpus
from flatknots.embedding import is_realizable
from flatknots.explore import (
    ClassSearchResult,
    EquivalenceResult,
    SearchConfig,
    WitnessPath,
    enumerate_realizable,
    enumerate_words,
    equivalence_query,
    search_class,
    strong_class_test,
    strong_trivial_test,
    twist_family,
    verify_path,
)
from flatknots.invariants import (
    cross_chord_number,
    r1_normal_form,
    trivializing_number,
)
from flatknots.moves import (
    MOVE_LAWS,
    MOVE_SETS,
    MoveError,
    MoveKind,
    MoveSite,
    apply_move,
    move_set,
    neighbors,
)
from flatknots.words import (
    canonical,
    chord_count,
    connected_sum,
    is_prime,
    rank_sequence,
)

from sample_words import CURL, FIGURE8, TREFOIL

THREE_CURLS = ("a", "a", "b", "b", "c", "c")
FIVE_ONE = ("a", "b", "c", "d", "e", "a", "b", "c", "d", "e")


def test_search_class_contains_start():
    result = search_class(TREFOIL, move_set("r1"))
    assert canonical(TREFOIL) in result.words
    assert TREFOIL in result
    # Curl insertion never stops, so any finite window truncates.
    assert result.truncated


def test_delete_only_search_is_finite_and_complete():
    result = search_class(("a", "a", "b", "b"), (MoveKind.CURL_DELETE,))
    assert result.words == {canonical(("a", "a", "b", "b")), canonical(CURL), ()}
    assert not result.truncated


def test_search_class_r1_only_reaches_curled_forms():
    result = search_class(TREFOIL, move_set("r1"), SearchConfig(max_chords=4))
    # One extra chord of room: the trefoil plus every single curl insertion.
    assert all(r1_normal_form(w) == canonical(TREFOIL) for w in result.words)
    assert all(is_realizable(w) for w in result.words)
    assert any(len(w) == 8 for w in result.words)
    assert result.truncated  # five chord words exist but fall outside


def test_search_class_add_only_at_cap_stays_put():
    result = search_class(
        TREFOIL, (MoveKind.CURL_ADD,), SearchConfig(max_chords=3)
    )
    assert result.words == {canonical(TREFOIL)}
    assert result.truncated


def test_search_class_state_cap_truncates():
    result = search_class((), move_set("r1"), SearchConfig(max_chords=3, max_states=3))
    assert len(result.words) <= 3
    assert result.truncated


def _plain_search(word, kinds, config):
    """Breadth first search over every neighbor, each canonicalized."""
    start = canonical(word)
    visited = {start}
    parents = {}
    queue = deque([start])
    truncated = chord_count(start) > config.max_chords
    while queue:
        current = queue.popleft()
        for site, result in neighbors(current, kinds):
            if chord_count(result) > config.max_chords:
                truncated = True
                continue
            shape = canonical(result)
            if shape in visited:
                continue
            if len(visited) >= config.max_states:
                truncated = True
                continue
            visited.add(shape)
            parents[shape] = (current, site)
            queue.append(shape)
    return visited, truncated, parents


# The named move sets, and kind sets without curl addition, whose
# classes are finite, so that a search can end without truncation.
_KIND_SETS = {
    **MOVE_SETS,
    "curl-delete": frozenset({MoveKind.CURL_DELETE}),
    "triangles": frozenset(
        {MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND, MoveKind.WEAK_SLIDE}
    ),
    "strong-triangles": frozenset({MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND}),
}


@pytest.mark.parametrize("moves_name", sorted(_KIND_SETS))
def test_search_matches_a_plain_search(moves_name):
    kinds = _KIND_SETS[moves_name]
    # Chord caps below, at and above the start, and state caps that bind
    # from the first level on, so the comparison also covers a start
    # outside the window and which state a full window refuses.  The
    # state cap equal to the size of the unbounded closure fits the class
    # exactly: a full window that meets only known states cuts nothing.
    for n in range(5):
        for word in enumerate_realizable(n):
            for cap in (max(n - 1, 0), n, n + 1):
                exact = len(_plain_search(word, kinds, SearchConfig(max_chords=cap))[0])
                for max_states in (1, 2, 5, exact, 200000):
                    config = SearchConfig(max_chords=cap, max_states=max_states)
                    result = search_class(word, kinds, config)
                    words, truncated, parents = _plain_search(word, kinds, config)
                    assert result.words == words, (word, config)
                    assert result.truncated == truncated, (word, config)
                    assert result.parents == parents, (word, config)


def test_the_benchmark_closure_of_the_trefoil_replays():
    result = search_class(TREFOIL, move_set("both"), SearchConfig(max_chords=7))
    assert len(result.words) == 239
    assert result.truncated
    assert all(verify_path(result.path_to(word)) for word in result.words)


def test_search_checks_the_cross_chord_law(monkeypatch):
    # A move held in the memo is not checked again, so start it empty.
    moves._moves_of.cache_clear()
    law = MOVE_LAWS[MoveKind.CURL_DELETE]
    monkeypatch.setitem(MOVE_LAWS, MoveKind.CURL_DELETE, law._replace(dx=(1,)))
    with pytest.raises(MoveError, match="curl-delete changed the cross chord count by 0"):
        search_class(CURL, move_set("r1"), SearchConfig(max_chords=2))


def test_search_tree_edges_replay():
    result = search_class(TREFOIL, move_set("strong"), SearchConfig(max_chords=4))
    assert len(result.parents) == len(result.words) - 1
    for parent, site, child in result.edges():
        assert canonical(apply_move(parent, site)) == child


def test_path_to_start_is_empty():
    result = search_class(TREFOIL, move_set("strong"), SearchConfig(max_chords=4))
    path = result.path_to(TREFOIL)
    assert path is not None
    assert len(path) == 0
    assert verify_path(path)


def test_path_to_unreached_word_is_none():
    result = search_class(TREFOIL, (MoveKind.CURL_ADD,), SearchConfig(max_chords=3))
    assert result.path_to(FIGURE8) is None


def test_trefoil_contracts_to_three_curls_in_one_move():
    result = equivalence_query(TREFOIL, THREE_CURLS, moves_name="strong")
    assert result.verdict == "equivalent"
    assert result.path is not None
    assert len(result.path) == 1
    assert result.path.moves[0].kind is MoveKind.STRONG_CONTRACT
    assert verify_path(result.path)


def test_trefoil_is_strongly_trivial_via_path():
    result = equivalence_query(TREFOIL, (), moves_name="strong")
    assert result.verdict == "equivalent"
    assert result.path is not None
    assert len(result.path) == 4  # one contraction, three curl deletions
    assert verify_path(result.path)


def test_figure_eight_is_not_strongly_trivial():
    result = equivalence_query(FIGURE8, (), moves_name="strong")
    assert result.verdict == "not-equivalent"
    assert "mod 3" in result.reason
    assert result.path is None


def test_weak_moves_cannot_untie_the_trefoil():
    result = equivalence_query(TREFOIL, (), moves_name="weak")
    assert result.verdict == "not-equivalent"
    assert "trivializing" in result.reason


def test_refutations_follow_the_move_laws(monkeypatch):
    law = MOVE_LAWS[MoveKind.WEAK_SLIDE]
    monkeypatch.setitem(MOVE_LAWS, MoveKind.WEAK_SLIDE, law._replace(dtr=(-2, 0, 2)))
    result = equivalence_query(TREFOIL, (), moves_name="weak", config=SearchConfig(max_chords=3))
    assert result.verdict == "unknown"
    assert "trivializing" not in result.reason


def test_r1_verdicts_follow_the_normal_form():
    refuted = equivalence_query(TREFOIL, (), moves_name="r1")
    assert refuted.verdict == "not-equivalent"
    assert "normal forms differ" in refuted.reason
    settled = equivalence_query(CURL, (), moves_name="r1")
    assert settled.verdict == "equivalent"
    assert settled.path is not None
    assert verify_path(settled.path)


def test_the_curl_normal_form_is_the_first_refutation():
    # X mod 3 differs too (1 vs 0), but the curl normal form row comes first.
    assert cross_chord_number(FIGURE8) % 3 != cross_chord_number(()) % 3
    result = equivalence_query(FIGURE8, (), moves_name="r1")
    assert result.reason == "curl reduced normal forms differ: a b c a d c b d vs -"


def test_an_open_chord_cap_is_two_more_than_the_larger_end():
    open_cap = SearchConfig(max_chords=None)
    assert search_class(TREFOIL, move_set("r1"), open_cap).config.max_chords == 5
    unknown = equivalence_query(TREFOIL, FIGURE8, "weak", SearchConfig(max_chords=None, max_states=1))
    assert unknown.reason == "no path within chords <= 6, states <= 1"
    assert equivalence_query(TREFOIL, FIGURE8, "weak") == equivalence_query(
        TREFOIL, FIGURE8, "weak", SearchConfig(max_chords=6)
    )


def test_r1_equivalence_survives_a_tiny_window():
    result = equivalence_query(
        ("a", "a", "b", "b"),
        (),
        moves_name="r1",
        config=SearchConfig(max_chords=4, max_states=1),
    )
    assert result.verdict == "equivalent"
    assert result.path is None
    assert "normal forms match" in result.reason


def test_exhausted_window_reports_unknown():
    granny = connected_sum(TREFOIL, TREFOIL)
    result = equivalence_query(
        TREFOIL,
        granny,
        moves_name="strong",
        config=SearchConfig(max_chords=6, max_states=5),
    )
    assert result.verdict == "unknown"
    assert "no path within" in result.reason


def test_trefoil_summand_is_absorbed_in_the_strong_class():
    bigger = connected_sum(FIGURE8, TREFOIL)
    # The witness path contracts the extra summand and deletes its
    # curls, never growing the word, so a tight window keeps this fast.
    result = equivalence_query(
        bigger, FIGURE8, moves_name="strong", config=SearchConfig(max_chords=7)
    )
    assert result.verdict == "equivalent"
    assert result.path is not None
    assert verify_path(result.path)


def test_to_dict_round_trip_fields():
    result = equivalence_query(TREFOIL, THREE_CURLS, moves_name="strong")
    payload = result.to_dict()
    assert payload["verdict"] == "equivalent"
    assert payload["path"][0] == list(canonical(TREFOIL))
    assert payload["path"][-1] == list(THREE_CURLS)
    assert len(payload["moves"]) == 1
    refuted = equivalence_query(TREFOIL, (), moves_name="weak").to_dict()
    assert "path" not in refuted


def test_verify_path_rejects_tampering():
    result = equivalence_query(TREFOIL, THREE_CURLS, moves_name="strong")
    path = result.path
    broken = WitnessPath(words=(path.words[0], FIGURE8), moves=path.moves)
    assert not verify_path(broken)
    short = WitnessPath(words=path.words[:1], moves=path.moves)
    assert not verify_path(short)
    missing_chord = MoveSite(MoveKind.CURL_DELETE, (0,), ("zz",))
    assert not verify_path(WitnessPath(words=(CURL, ()), moves=(missing_chord,)))


@lru_cache(maxsize=None)
def _closure(word, moves_name, cap):
    return search_class(word, MOVE_SETS[moves_name], SearchConfig(max_chords=cap))


@pytest.mark.parametrize("moves_name", sorted(MOVE_SETS))
def test_queries_match_a_one_sided_search(moves_name):
    small = [entry for entry in load_corpus() if chord_count(entry.word) <= 6]
    for first, second in product(small, repeat=2):
        a, b = first.word, second.word
        result = equivalence_query(a, b, moves_name)
        cap = max(chord_count(a), chord_count(b)) + 2
        expected = _closure(canonical(a), moves_name, cap).path_to(b)
        pair = (first.name, second.name)
        if expected is None:
            assert result.path is None, pair
            assert result.verdict != "equivalent" or moves_name == "r1", pair
        else:
            assert result.verdict == "equivalent", pair
            assert len(result.path) == len(expected), pair
            assert verify_path(result.path), pair


def test_query_of_a_word_against_itself_is_empty():
    result = equivalence_query(FIGURE8, FIGURE8[::-1], moves_name="both")
    assert result.verdict == "equivalent"
    assert result.reason == "path of 0 moves found"
    assert result.path == WitnessPath((canonical(FIGURE8),), ())


def test_an_end_above_the_chord_cap_is_searched_from_either_side():
    # Both ends are states even above the cap, so the order of the
    # words does not matter: two curl deletions join them.
    curled = connected_sum(connected_sum(TREFOIL, CURL), CURL)
    config = SearchConfig(max_chords=4)
    for first, second in ((TREFOIL, curled), (curled, TREFOIL)):
        result = equivalence_query(first, second, moves_name="strong", config=config)
        assert result.reason == "path of 2 moves found"
        assert verify_path(result.path)


def test_query_with_a_tiny_state_cap_is_unknown():
    # Two strong moves apart (a curl and an expansion), so the two ends
    # alone fill the cap and cannot meet.
    five_2 = ("a", "b", "c", "a", "d", "e", "b", "c", "e", "d")
    assert len(equivalence_query(FIGURE8, five_2, moves_name="strong").path) == 2
    result = equivalence_query(
        FIGURE8, five_2, moves_name="strong", config=SearchConfig(max_chords=7, max_states=2)
    )
    assert result.verdict == "unknown"
    assert result.reason == "no path within chords <= 7, states <= 2"
    assert result.path is None


def test_a_missing_inverse_move_is_a_defect():
    # A b-side link that no move of the set undoes cannot be joined.
    stray = MoveSite(MoveKind.WEAK_SLIDE, (0, 2, 4), ("a", "b", "c"))
    a, b = canonical(TREFOIL), canonical(FIGURE8)
    trees = ({a: None}, {b: None, a: (b, stray)})
    with pytest.raises(MoveError, match="none takes it back"):
        explore._join(trees, a, move_set("strong"))


def _search_outputs():
    """A closure and a query under every named move set, in comparable form."""
    closure = search_class(TREFOIL, move_set("both"), SearchConfig(max_chords=5))
    outputs = [(list(closure.tree.items()), closure.truncated)]
    queries = [
        ("r1", TREFOIL, connected_sum(TREFOIL, CURL, slot=2)),
        ("strong", FIGURE8, ("a", "b", "c", "a", "d", "e", "b", "c", "e", "d")),
        ("weak", FIGURE8, connected_sum(FIGURE8, CURL)),
        ("both", TREFOIL, connected_sum(FIGURE8, CURL)),
    ]
    for name, a, b in queries:
        result = equivalence_query(a, b, moves_name=name)
        outputs.append((result.verdict, result.reason, result.path))
    return outputs


def test_searches_from_a_warm_memo_match_those_from_a_cold_one():
    moves._moves_of.cache_clear()
    cold = _search_outputs()
    misses = moves._moves_of.cache_info().misses
    assert _search_outputs() == cold
    # The second pass read every move from the memo.
    assert moves._moves_of.cache_info().misses == misses
    assert all(path is not None for _, _, path in cold[1:])


@pytest.mark.parametrize("moves_name", sorted(MOVE_SETS))
def test_a_search_applies_only_its_moves_and_a_repeat_applies_none(monkeypatch, moves_name):
    kinds = move_set(moves_name)
    config = SearchConfig(max_chords=5)
    applied = []
    apply = moves._apply

    def counted(w, site, *rest):
        applied.append(site.kind)
        return apply(w, site, *rest)

    moves._moves_of.cache_clear()
    monkeypatch.setattr(moves, "_apply", counted)
    first = search_class(TREFOIL, kinds, config)
    assert applied and set(applied) <= kinds
    applied.clear()
    again = search_class(TREFOIL, kinds, config)
    assert applied == []
    assert list(again.tree.items()) == list(first.tree.items())


def test_a_broken_law_is_never_held_in_the_memo(monkeypatch):
    law = MOVE_LAWS[MoveKind.CURL_DELETE]
    monkeypatch.setitem(MOVE_LAWS, MoveKind.CURL_DELETE, law._replace(dx=(1,)))
    moves._moves_of.cache_clear()
    for _ in range(2):
        with pytest.raises(MoveError, match="curl-delete changed the cross chord count by 0"):
            search_class(CURL, move_set("r1"), SearchConfig(max_chords=2))


def test_enumerate_words_counts():
    assert enumerate_words(0) == ((),)
    assert len(enumerate_words(1)) == 1
    assert len(enumerate_words(2)) == 2
    assert len(enumerate_words(3)) == 5
    assert len(enumerate_words(4)) == 17
    assert len(enumerate_words(5)) == 79
    assert len(enumerate_words(6)) == 554
    assert len(enumerate_words(7)) == 5283


def test_enumerate_words_are_sorted_canonical_forms():
    # Orderly generation must give exactly the least variant of every
    # chord matching, once each, in sorted order.
    for n in range(7):
        shapes = enumerate_words(n)
        expected = [least for least, _ in oracles.matchings_by_class(n)]
        assert [rank_sequence(w) for w in shapes] == expected, n
        assert shapes == tuple(sorted(shapes))
        assert all(canonical(w) == w for w in shapes)


def test_enumerate_realizable_counts():
    assert len(enumerate_realizable(1)) == 1
    assert len(enumerate_realizable(2)) == 1
    assert len(enumerate_realizable(3)) == 3
    assert len(enumerate_realizable(4)) == 5
    assert len(enumerate_realizable(5)) == 15
    for n in range(8):
        kept = tuple(w for w in enumerate_words(n) if is_realizable(w))
        assert enumerate_realizable(n) == kept, n


def test_enumerate_realizable_sizes_at_eight_and_nine():
    # Both sizes equal those of filtering the unpruned enumeration, from
    # a one-off run (enumerate_words(9) alone takes minutes).
    eights = enumerate_realizable(8)
    assert len(eights) == 750
    assert all(canonical(w) == w for w in eights)
    assert len(enumerate_realizable(9)) == 3891


def test_enumerate_words_rejects_negative():
    with pytest.raises(ValueError):
        enumerate_words(-1)


def test_strong_trivial_test_examples():
    assert strong_trivial_test(())
    assert strong_trivial_test(CURL)
    assert strong_trivial_test(TREFOIL)
    assert strong_trivial_test(connected_sum(TREFOIL, TREFOIL))
    assert strong_trivial_test(connected_sum(TREFOIL, CURL, slot=2))
    assert not strong_trivial_test(FIGURE8)
    assert not strong_trivial_test(connected_sum(FIGURE8, TREFOIL))


def test_strong_class_membership_with_the_five_one_base():
    assert strong_class_test(FIVE_ONE, FIVE_ONE)
    assert strong_class_test(connected_sum(FIVE_ONE, TREFOIL), FIVE_ONE)
    assert strong_class_test(connected_sum(CURL, FIVE_ONE, slot=1), FIVE_ONE)
    assert not strong_class_test(TREFOIL, FIVE_ONE)
    assert not strong_class_test(FIGURE8, FIVE_ONE)
    assert not strong_class_test((), FIVE_ONE)
    assert not strong_class_test(connected_sum(FIVE_ONE, FIVE_ONE), FIVE_ONE)


def test_strong_class_rejects_inadmissible_bases():
    with pytest.raises(ValueError, match="coherent"):
        strong_class_test(TREFOIL, TREFOIL)
    with pytest.raises(ValueError, match="monogon"):
        strong_class_test(CURL, CURL)


def test_strong_class_test_refuses_a_base_the_strong_search_leaves():
    # T(2) has two coherent bigons.  A curl added on a side of one makes
    # a coherent trigon, and the strong search goes on from there to T(3).
    base, word = twist_family(2), twist_family(3)
    with pytest.raises(ValueError, match="coherent bigon"):
        strong_class_test(word, base)
    found = equivalence_query(base, word, moves_name="strong")
    assert found.verdict == "equivalent"
    assert verify_path(found.path)


def _admissible(base):
    try:
        strong_class_test(base, base)
    except ValueError:
        return False
    return True


def test_strong_class_test_equals_the_strong_search_on_admissible_bases():
    # C12: for every admissible base with n <= 5, the factor rule answers
    # exactly membership in the base's strong closure, for every
    # realizable word within the closure's chord cap of n + 3.
    bases = [base for n in range(6) for base in enumerate_realizable(n) if _admissible(base)]
    assert bases == [(), canonical(FIVE_ONE)]
    for base in bases:
        cap = chord_count(base) + 3
        closure = search_class(base, MOVE_SETS["strong"], SearchConfig(max_chords=cap))
        for n in range(cap + 1):
            for word in enumerate_realizable(n):
                assert strong_class_test(word, base) == (word in closure.words), word


def test_twist_family_small_members_are_familiar_shadows():
    assert canonical(twist_family(1)) == canonical(TREFOIL)
    assert canonical(twist_family(2)) == canonical(FIGURE8)


def test_twist_family_cross_chord_numbers():
    # Odd members gain one extra crossing over the even rule.
    assert [cross_chord_number(twist_family(n)) for n in range(1, 7)] == [
        3, 4, 7, 8, 11, 12,
    ]


def test_twist_family_members_are_prime_realizable_and_tr_two():
    for n in range(1, 7):
        word = twist_family(n)
        assert is_realizable(word)
        assert is_prime(word)
        assert trivializing_number(word) == 2


def test_twist_family_rejects_nonpositive():
    with pytest.raises(ValueError):
        twist_family(0)
