import itertools
import random

import pytest

import oracles
from sample_words import CURL, FIGURE8, TREFOIL
from flatknots.embedding import faces, is_realizable
from flatknots import moves
from flatknots.explore import enumerate_realizable, enumerate_words
from flatknots.invariants import (
    cross_chord_number,
    h_invariant,
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
    find_sites,
    move_set,
    neighbors,
)
from flatknots.words import canonical, label_for_rank, letters


def _canonical_realizable(n):
    seen = set()
    for word in oracles.enumerate_matchings(n):
        c = canonical(word)
        if c not in seen:
            seen.add(c)
            if is_realizable(c):
                yield c


def _curl_add_sites(word):
    return find_sites(word, (MoveKind.CURL_ADD,))


def _curl_delete_sites(word):
    return find_sites(word, (MoveKind.CURL_DELETE,))


def _triangle_sites(word):
    return find_sites(
        word, (MoveKind.STRONG_EXPAND, MoveKind.STRONG_CONTRACT, MoveKind.WEAK_SLIDE)
    )


def test_curl_add_sites():
    assert len(_curl_add_sites(())) == 1
    assert len(_curl_add_sites(CURL)) == 2
    assert len(_curl_add_sites(TREFOIL)) == 6


def test_curl_delete_sites():
    assert len(_curl_delete_sites(TREFOIL)) == 0
    assert len(_curl_delete_sites(CURL)) == 2
    chain = ("x", "y", "y", "z", "z", "x")
    assert len(_curl_delete_sites(chain)) == 3


def test_curl_add_then_delete_roundtrip():
    for slot in range(len(TREFOIL)):
        grown = apply_move(TREFOIL, MoveSite(MoveKind.CURL_ADD, (slot,), ()))
        assert len(grown) == 8
        pair_sites = _curl_delete_sites(grown)
        assert len(pair_sites) == 1
        back = apply_move(grown, pair_sites[0])
        assert canonical(back) == canonical(TREFOIL)


def test_curl_add_on_empty_word():
    grown = apply_move((), MoveSite(MoveKind.CURL_ADD, (0,), ()))
    assert grown == ("a", "a")


def test_trefoil_triangle_sites_frozen():
    sites = _triangle_sites(TREFOIL)
    assert len(sites) == 2
    assert {site.positions for site in sites} == {(0, 2, 4), (1, 3, 5)}
    assert all(site.kind == MoveKind.STRONG_CONTRACT for site in sites)
    assert all(site.chords == ("a", "b", "c") for site in sites)


# The move kind a site has, by the number of interleaved pairs among
# its three chords.
_KIND_BY_INTERNAL = {
    0: MoveKind.STRONG_EXPAND,
    1: MoveKind.WEAK_SLIDE,
    2: MoveKind.WEAK_SLIDE,
    3: MoveKind.STRONG_CONTRACT,
}


def _assert_triangle_sites_match_oracle(word):
    found = [(s.positions, s.chords, s.kind) for s in moves._triangle_sites(word)]
    expected = [
        (positions, chords, _KIND_BY_INTERNAL[internal])
        for positions, chords, internal in oracles.triangle_sites(word)
    ]
    assert found == expected, word


def test_triangle_sites_match_the_oracle_on_every_small_matching():
    for n in range(7):
        for word in oracles.enumerate_matchings(n):
            _assert_triangle_sites_match_oracle(word)


def test_triangle_sites_match_the_oracle_on_random_words():
    rng = random.Random(20261018)
    for _ in range(300):
        n = rng.randint(7, 12)
        word = [chr(ord("a") + i) for i in range(n) for _ in (0, 1)]
        rng.shuffle(word)
        _assert_triangle_sites_match_oracle(tuple(word))


def test_trefoil_contract_results():
    sites = _triangle_sites(TREFOIL)
    results = {site.positions: apply_move(TREFOIL, site) for site in sites}
    assert results[(0, 2, 4)] == ("b", "a", "a", "c", "c", "b")
    assert results[(1, 3, 5)] == ("c", "c", "b", "b", "a", "a")
    for result in results.values():
        assert canonical(result) == ("a", "a", "b", "b", "c", "c")
        assert cross_chord_number(result) == 0


def test_figure_eight_triangle_sites_all_weak():
    sites = _triangle_sites(FIGURE8)
    assert len(sites) == 4
    assert all(site.kind == MoveKind.WEAK_SLIDE for site in sites)


def test_trigon_faces_are_triangle_sites_strong_exactly_when_coherent():
    # One law read two ways: a face is coherent when its boundary walk
    # meets every side the same way, and a triangle site is strong when
    # its chords have 0 or 3 internal interleavings.  Side i of a face
    # is arc i, the factor starting at position i.
    triangles = move_set("both") - move_set("r1")
    seen = 0
    for n in range(8):
        for word in enumerate_realizable(n):
            sites = {site.positions: site for site in find_sites(word, triangles)}
            for face in faces(word).faces:
                if face.length != 3:
                    continue
                starts = tuple(sorted(d // 2 for d in face.darts))
                if len(set(face.corners)) < 3:
                    assert starts not in sites, (word, face)
                    continue
                site = sites[starts]
                assert site.chords == tuple(sorted(face.corners)), (word, face)
                assert (site.kind != MoveKind.WEAK_SLIDE) == face.is_coherent, (word, face)
                seen += 1
    assert seen == 324


def test_every_triangle_site_is_a_trigon_face_of_some_realization():
    # The converse of the test above, over every realization: the bit
    # vectors that give n + 2 faces, walked by the corner oracle.
    triangles = move_set("both") - move_set("r1")
    classes = realizations = sites = 0
    for n in range(8):
        for word in enumerate_realizable(n):
            trigons = set()
            for bits in itertools.product((0, 1), repeat=n):
                found = oracles.corner_face_sides(word, bits)
                if len(found) == n + 2:
                    realizations += 1
                    trigons.update(tuple(sorted(s)) for s in found if len(s) == 3)
            for site in find_sites(word, triangles):
                assert site.positions in trigons, (word, site)
                sites += 1
            classes += 1
    assert (classes, realizations, sites) == (241, 7305, 415)


def test_triangle_swap_is_involutive():
    for word in (TREFOIL, FIGURE8):
        for site in _triangle_sites(word):
            once = apply_move(word, site)
            flipped = _triangle_sites(once)
            matching = [s for s in flipped if s.positions == site.positions]
            assert len(matching) == 1
            assert apply_move(once, matching[0]) == word


def test_apply_rejects_bad_sites():
    with pytest.raises(MoveError, match="is not a site"):
        apply_move(TREFOIL, MoveSite(MoveKind.CURL_ADD, (7,), ()))
    with pytest.raises(MoveError, match="is not a site"):
        apply_move(TREFOIL, MoveSite(MoveKind.CURL_DELETE, (0,), ("a",)))
    with pytest.raises(MoveError, match="is not a site"):
        apply_move(
            TREFOIL,
            MoveSite(MoveKind.STRONG_CONTRACT, (0, 1, 3), ("a", "b", "c")),
        )
    with pytest.raises(MoveError, match="is not a site"):
        apply_move(
            TREFOIL,
            MoveSite(MoveKind.WEAK_SLIDE, (0, 2, 4), ("a", "b", "c")),
        )
    with pytest.raises(MoveError, match="is not a site"):
        apply_move(CURL, MoveSite(MoveKind.WEAK_SLIDE, (0,), ("a",)))


def _assert_accepted_exactly_when(word, site, rule_holds):
    if rule_holds:
        apply_move(word, site)
    else:
        with pytest.raises(MoveError, match="is not a site"):
            apply_move(word, site)


def _assert_site_rule(word):
    """A curl-add needs a slot in range and no chords, a curl-delete an
    adjacent equal pair and its chord, and a triangle an oracle site
    with the kind its internal interleavings give."""
    total = len(word)
    wrong = ("zz",)
    for slot in range(-1, total + 1):
        in_range = 0 <= slot < max(1, total)
        _assert_accepted_exactly_when(word, MoveSite(MoveKind.CURL_ADD, (slot,), ()), in_range)
        _assert_accepted_exactly_when(word, MoveSite(MoveKind.CURL_ADD, (slot,), wrong), False)
    for i in range(total):
        adjacent = word[i] == word[(i + 1) % total]
        _assert_accepted_exactly_when(
            word, MoveSite(MoveKind.CURL_DELETE, (i,), (word[i],)), adjacent
        )
        _assert_accepted_exactly_when(word, MoveSite(MoveKind.CURL_DELETE, (i,), wrong), False)
    sites = {
        (positions, chords, _KIND_BY_INTERNAL[internal])
        for positions, chords, internal in oracles.triangle_sites(word)
    }
    for triple in itertools.combinations(range(total), 3):
        chords = tuple(sorted({word[(p + d) % total] for p in triple for d in (0, 1)}))
        for kind in (MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND, MoveKind.WEAK_SLIDE):
            _assert_accepted_exactly_when(
                word, MoveSite(kind, triple, chords), (triple, chords, kind) in sites
            )


def test_apply_move_accepts_exactly_the_oracle_sites():
    for n in range(5):
        for word in oracles.enumerate_matchings(n):
            _assert_site_rule(word)
    rng = random.Random(20261019)
    for _ in range(12):
        n = rng.randint(5, 7)
        word = [chr(ord("a") + i) for i in range(n) for _ in (0, 1)]
        rng.shuffle(word)
        _assert_site_rule(tuple(word))


def test_move_set_names():
    assert move_set("r1") == {MoveKind.CURL_ADD, MoveKind.CURL_DELETE}
    assert MoveKind.WEAK_SLIDE in move_set("weak")
    assert MoveKind.WEAK_SLIDE not in move_set("strong")
    assert move_set("both") == frozenset(MoveKind)
    with pytest.raises(MoveError, match="unknown move set"):
        move_set("fancy")


def test_find_sites_is_sorted_and_filtered():
    sites = find_sites(TREFOIL, move_set("strong"))
    kinds = [site.kind for site in sites]
    assert kinds == sorted(kinds, key=lambda k: [MoveKind.CURL_ADD, MoveKind.CURL_DELETE, MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND, MoveKind.WEAK_SLIDE].index(k))
    assert len([s for s in sites if s.kind == MoveKind.STRONG_CONTRACT]) == 2
    assert not [s for s in sites if s.kind == MoveKind.WEAK_SLIDE]
    weak_only = find_sites(FIGURE8, {MoveKind.WEAK_SLIDE})
    assert len(weak_only) == 4


def test_neighbors_on_trefoil():
    found = neighbors(TREFOIL, move_set("strong"))
    assert len(found) == 8
    for site, result in found:
        assert is_realizable(result)


def test_curl_moves_preserve_all_invariants():
    for n in (1, 2, 3):
        for word in _canonical_realizable(n):
            base = (
                cross_chord_number(word),
                trivializing_number(word),
                h_invariant(word),
                r1_normal_form(word),
            )
            for site, result in neighbors(word, move_set("r1")):
                assert (
                    cross_chord_number(result),
                    trivializing_number(result),
                    h_invariant(result),
                    r1_normal_form(result),
                ) == base


def test_triangle_cross_change_laws_small_words():
    triangle_kinds = {
        MoveKind.STRONG_CONTRACT,
        MoveKind.STRONG_EXPAND,
        MoveKind.WEAK_SLIDE,
    }
    checked = 0
    for n in (3, 4, 5, 6):
        for word in _canonical_realizable(n):
            x0 = cross_chord_number(word)
            for site in find_sites(word, triangle_kinds):
                result = apply_move(word, site)
                change = cross_chord_number(result) - x0
                assert change in MOVE_LAWS[site.kind].dx
                checked += 1
    assert checked > 50


def test_no_triangle_site_breaks_realizability_small_words():
    # apply_move only raises when a law fails; none may fail here.
    triangle_kinds = {
        MoveKind.STRONG_CONTRACT,
        MoveKind.STRONG_EXPAND,
        MoveKind.WEAK_SLIDE,
    }
    for n in (3, 4, 5):
        for word in _canonical_realizable(n):
            sites = find_sites(word, triangle_kinds)
            applied = neighbors(word, triangle_kinds)
            assert len(applied) == len(sites), word


def test_no_site_breaks_a_law_small_words():
    # neighbors lets a MoveError from apply_move propagate, so this fails
    # if any site of any class with n <= 6 breaks a law.
    every_kind = set(MoveKind)
    applied = sum(
        len(neighbors(word, every_kind)) for n in range(7) for word in enumerate_words(n)
    )
    assert applied == 9173


def test_neighbors_propagates_a_broken_law(monkeypatch):
    # The memo finds sites, through the finder of each move group, only
    # for words it does not hold yet.
    moves._moves_of.cache_clear()
    bogus = MoveSite(MoveKind.CURL_DELETE, (0,), ("a",))
    monkeypatch.setattr(moves, "_curl_delete_sites", lambda word: [bogus])
    with pytest.raises(MoveError, match="changed the cross chord count"):
        neighbors(TREFOIL, {MoveKind.CURL_DELETE})


# The parts of a move group that some move set asks the memo for.
_MEMO_PARTS = {group & kinds for group in moves._GROUPS for kinds in MOVE_SETS.values()} - {
    frozenset()
}


def presentations(word):
    """The word and one rotated, reversed and relabelled presentation of it."""
    names = letters(word)
    rename = {label: label_for_rank(len(names) - i) for i, label in enumerate(names)}
    k = len(word) // 3
    return word, tuple(rename[label] for label in reversed(word[k:] + word[:k]))


def memo_mismatches(words):
    """(sites, mismatches) of the move-graph memo over ``words``.

    ``sites`` counts every site of every word once.  Each entry for each
    part in ``_MEMO_PARTS`` must list the sites that ``find_sites``
    gives, in its order, each with the result that ``apply_move`` makes
    and that result's canonical form.
    """
    sites = mismatches = 0
    for word in words:
        sites += len(find_sites(word, MoveKind))
        for kinds in _MEMO_PARTS:
            entry = moves._moves_of(word, kinds)
            mismatches += [site for site, _, _ in entry] != find_sites(word, kinds)
            mismatches += sum(
                result != apply_move(word, site) or shape != canonical(result)
                for site, result, shape in entry
            )
    return sites, mismatches


def test_the_memo_matches_find_sites_and_canonical_forms():
    moves._moves_of.cache_clear()
    moves._triangle_sites.cache_clear()
    words = [p for n in range(7) for word in enumerate_words(n) for p in presentations(word)]
    sites, mismatches = memo_mismatches(words)
    assert sites > len(words)
    assert mismatches == 0


def test_a_word_s_triangle_sites_are_found_once_for_every_move_set():
    moves._moves_of.cache_clear()
    moves._triangle_sites.cache_clear()
    for name in ("strong", "weak", "both"):
        neighbors(FIGURE8, move_set(name))
    assert moves._triangle_sites.cache_info().misses == 1


def test_strong_moves_preserve_h_and_residue():
    strong = {MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND}
    for n in (3, 4, 5):
        for word in _canonical_realizable(n):
            h0 = h_invariant(word)
            x0 = cross_chord_number(word) % 3
            for site, result in neighbors(word, strong):
                assert h_invariant(result) == h0, (word, site)
                assert cross_chord_number(result) % 3 == x0


def test_strong_moves_shift_trivializing_by_even_amounts():
    strong = {MoveKind.STRONG_CONTRACT, MoveKind.STRONG_EXPAND}
    for n in (3, 4, 5):
        for word in _canonical_realizable(n):
            tr0 = trivializing_number(word)
            for site, result in neighbors(word, strong):
                assert trivializing_number(result) - tr0 in (-2, 0, 2), (word, site)


def test_weak_moves_preserve_trivializing():
    for n in (3, 4, 5):
        for word in _canonical_realizable(n):
            tr0 = trivializing_number(word)
            for site, result in neighbors(word, {MoveKind.WEAK_SLIDE}):
                assert trivializing_number(result) == tr0, (word, site)


def test_site_describe():
    site = MoveSite(MoveKind.STRONG_CONTRACT, (0, 2, 4), ("a", "b", "c"))
    text = site.describe()
    assert "strong-contract" in text
    assert "0,2,4" in text
