import itertools
import random
from functools import lru_cache

import pytest

import oracles
from sample_words import (
    CURL,
    FIGURE8,
    NONREALIZABLE_2,
    NONREALIZABLE_3,
    NONREALIZABLE_4,
    TREFOIL,
)
from flatknots.embedding import (
    Embedding,
    NotRealizableError,
    faces,
    is_realizable,
    realize,
    vertex_rotations,
)
from flatknots.corpus import load_corpus
from flatknots.explore import twist_family
from flatknots.words import canonical, chord_count, connected_sum

BAD_FACTOR = tuple("abcabdecde")


@lru_cache(maxsize=None)
def _realizing_vectors(n):
    """Each matching on n chords with its bit vectors that give n + 2 faces.

    The vectors come from ``oracles.corner_faces`` in product order.  The
    oracle decides realizability once per class of rotations, reversals
    and relabelings (it is a property of the curve), so vectors are only
    listed for the matchings of realizable classes; the others have none.
    """
    out = {}
    for _, members in oracles.matchings_by_class(n):
        realizable = oracles.corner_realizable(members[0])
        for word in members:
            vectors = ()
            if realizable:
                vectors = tuple(
                    bits
                    for bits in itertools.product((0, 1), repeat=n)
                    if len(oracles.corner_faces(word, bits)) == n + 2
                )
                assert vectors, word
            out[word] = vectors
    return out


def _interlacement(word):
    nbrs = {label: set() for label in word}
    for a, c in oracles.interlacement_edges(word):
        nbrs[a].add(c)
        nbrs[c].add(a)
    return nbrs


def _pair_rule_holds(word, bits):
    """bit_a ^ bit_c == (|N(a) & N(c)| + q1 - p1 - 1) mod 2 on every edge."""
    pos = oracles.word_positions(word)
    index = {label: i for i, label in enumerate(sorted(pos, key=lambda x: pos[x][0]))}
    nbrs = _interlacement(word)
    for a, c in oracles.interlacement_edges(word):
        if pos[a][0] > pos[c][0]:
            a, c = c, a
        parity = (len(nbrs[a] & nbrs[c]) + pos[c][0] - pos[a][0] - 1) % 2
        if bits[index[a]] ^ bits[index[c]] != parity:
            return False
    return True


def _components(word):
    nbrs = _interlacement(word)
    seen = set()
    count = 0
    for label in nbrs:
        if label in seen:
            continue
        count += 1
        stack = [label]
        seen.add(label)
        while stack:
            for other in nbrs[stack.pop()] - seen:
                seen.add(other)
                stack.append(other)
    return count


def test_realizable_frozen_examples():
    assert is_realizable(())
    assert is_realizable(CURL)
    assert is_realizable(TREFOIL)
    assert is_realizable(FIGURE8)
    assert not is_realizable(NONREALIZABLE_2)
    assert not is_realizable(NONREALIZABLE_3)
    assert not is_realizable(NONREALIZABLE_4)
    assert not is_realizable(("a", "b", "a", "c", "b", "c"))


def test_realize_raises_with_word_in_message():
    with pytest.raises(NotRealizableError, match="a b a b"):
        realize(NONREALIZABLE_2)


def _lengths(inventory):
    return tuple(sorted(face.length for face in inventory.faces))


def test_empty_word_faces():
    inventory = faces(())
    assert len(inventory.faces) == 2
    assert _lengths(inventory) == (0, 0)
    assert inventory.monogons == 0


def test_curl_faces():
    assert _lengths(faces(CURL)) == (1, 1, 2)
    assert faces(CURL).monogons == 2


def test_trefoil_faces():
    inventory = faces(TREFOIL)
    assert _lengths(inventory) == (2, 2, 2, 3, 3)
    assert inventory.monogons == 0
    assert inventory.coherent_trigons == 2
    # The trefoil bigons carry parallel strands, which the boundary walk
    # meets in opposite ways (the word holds the same-order factor pair
    # a b ... a b and its rotations), so none is coherent.
    assert inventory.coherent_bigons == 0


def test_figure_eight_faces():
    inventory = faces(FIGURE8)
    assert _lengths(inventory) == (2, 2, 3, 3, 3, 3)
    assert inventory.monogons == 0
    # Both bigons are cyclically oriented (the factor pairs b c ... c b
    # and d a ... a d).
    assert inventory.coherent_bigons == 2
    assert sum(face.length == 2 for face in inventory.faces) == 2
    assert sum(face.length == 3 for face in inventory.faces) == 4
    assert inventory.coherent_trigons == 0


def test_face_totals_match_euler_count():
    for n in (1, 2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            if not is_realizable(word):
                continue
            inventory = faces(word)
            assert len(inventory.faces) == n + 2
            assert sum(face.length for face in inventory.faces) == 4 * n


def test_realizability_agrees_with_corner_walk_oracle():
    for n in range(1, 7):
        for word, vectors in _realizing_vectors(n).items():
            assert is_realizable(word) == bool(vectors), word


def test_pair_rule_is_necessary_and_fixes_each_component_up_to_a_flip():
    for n in range(1, 7):
        for word, vectors in _realizing_vectors(n).items():
            if not vectors:
                continue
            assert all(_pair_rule_holds(word, bits) for bits in vectors), word
            assert len(vectors) == 2 ** _components(word), word


def test_realize_returns_the_least_realizing_bits():
    for n in range(1, 6):
        for word, vectors in _realizing_vectors(n).items():
            if not vectors:
                with pytest.raises(NotRealizableError):
                    realize(word)
                continue
            assert realize(word).bits == vectors[0], word


def _catalog_sum(rng, min_chords):
    catalog = [entry.word for entry in load_corpus()]
    word = ()
    while chord_count(word) < min_chords:
        word = connected_sum(word, rng.choice(catalog), rng.randrange(len(word) + 1))
    return word


def test_large_words_realize_with_n_plus_two_faces():
    rng = random.Random(7)
    words = [twist_family(k) for k in (18, 48, 98)]
    words += [_catalog_sum(rng, 20) for _ in range(4)]
    for word in words:
        n = chord_count(word)
        assert n >= 20
        assert len(oracles.corner_faces(word, realize(word).bits)) == n + 2


def test_sums_with_an_unrealizable_factor_are_rejected():
    assert not oracles.corner_realizable(BAD_FACTOR)
    rng = random.Random(11)
    for _ in range(4):
        rest = _catalog_sum(rng, 15)
        word = connected_sum(rest, BAD_FACTOR, rng.randrange(len(rest) + 1))
        assert not is_realizable(word)
        with pytest.raises(NotRealizableError):
            realize(word)


def test_face_multiset_agrees_with_corner_walk_oracle():
    for n in (1, 2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            if not is_realizable(word):
                continue
            allowed = oracles.corner_face_multisets(word)
            assert _lengths(faces(word)) in allowed, word


def _face_count(word, bits):
    return len(Embedding(word, bits).inventory.faces)


def test_face_count_for_bits_matches_oracle_for_all_assignments():
    for n in (1, 2, 3):
        for word in oracles.enumerate_matchings(n):
            for bits in itertools.product((0, 1), repeat=n):
                expected = len(oracles.corner_faces(word, bits))
                assert _face_count(word, bits) == expected


def test_reflection_symmetry_of_face_counts():
    # Complementing every rotation bit reverses global orientation and
    # must keep each face count.
    for word in oracles.enumerate_matchings(3):
        for bits in itertools.product((0, 1), repeat=3):
            flipped = tuple(1 - b for b in bits)
            assert _face_count(word, bits) == _face_count(word, flipped)


def test_monogons_equal_adjacent_pairs_in_every_realization():
    for n in (1, 2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            if not is_realizable(word):
                continue
            total = len(word)
            sites = sum(1 for i in range(total) if word[i] == word[(i + 1) % total])
            assert faces(word).monogons == sites, word


def test_coherent_bigon_face_implies_word_pattern():
    # A cyclically oriented bigon on chords x and y is bounded by two
    # disjoint factors read in opposite orders, x y ... y x.
    for n in (2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            if not is_realizable(word):
                continue
            inventory = faces(word)
            for face in inventory.faces:
                if face.length != 2 or not face.is_coherent:
                    continue
                x, y = face.corners
                total = len(word)
                found = False
                for i in range(total):
                    for j in range(total):
                        if {i, (i + 1) % total} & {j, (j + 1) % total}:
                            continue
                        if (
                            word[i] == word[(j + 1) % total]
                            and word[(i + 1) % total] == word[j]
                            and {word[i], word[(i + 1) % total]} == {x, y}
                        ):
                            found = True
                assert found, (word, face)


def test_realizability_is_shape_invariant():
    for word in oracles.enumerate_matchings(3):
        value = is_realizable(word)
        assert is_realizable(word[::-1]) == value
        assert is_realizable(word[3:] + word[:3]) == value


def test_vertex_rotations_are_quadrivalent():
    rotation = vertex_rotations(TREFOIL, (0, 0, 0))
    assert set(rotation) == {0, 1, 2}
    all_darts = [d for cycle in rotation.values() for d in cycle]
    assert sorted(all_darts) == list(range(12))


def test_realizable_words_have_even_interlacement_degrees():
    # Even interleaving degree at every chord is necessary for a sphere
    # embedding.
    for n in (2, 3, 4):
        for word in oracles.enumerate_matchings(n):
            if not is_realizable(word):
                continue
            for label in set(word):
                degree = sum(
                    1
                    for other in set(word)
                    if other != label and oracles.interleaved(word, label, other)
                )
                assert degree % 2 == 0
