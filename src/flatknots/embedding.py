"""Sphere realizations of double occurrence words.

A word with n chords is traced as a closed curve through 2n passage
points; arc i runs from passage i to passage i + 1 (mod 2n) and carries
two dart ends, 2i at its tail and 2i + 1 at its head.  A realization
assigns each chord one of the two admissible counterclockwise orders of
its four incident dart ends (the strand runs straight through, so the
two ends of one passage sit opposite each other).  Faces are the orbits
of the map d -> next(other_end(d)); the word embeds in the sphere
exactly when some assignment produces n + 2 faces.

The bits are read off the interlacement graph, where N(x) is the set of
chords interleaved with chord x (Rosenstiehl 1976; de Fraysseix and
Ossona de Mendez, "On a characterization of Gauss codes", Discrete
Comput. Geom. 22, 1999).  Every chord of a sphere curve has even degree,
two chords that do not interleave share an even number of neighbours
(both are checked by ``_breaks_gauss``), and for interleaved chords a
before c in first occurrence order, with passages at p1 < q1 < p2 < q2,
every realization satisfies the pair rule

    bit_a XOR bit_c = (|N(a) & N(c)| + q1 - p1 - 1) mod 2.

The rule fixes the bits of each interlacement component up to flipping
the whole component, so propagating it from the first chord of each
component with bit 0 gives the lexicographically least bit vector that
can realize the word, in time polynomial in n.  The face count stays
the certificate: a word is accepted only when those bits give n + 2
faces.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import Dict, Sequence, Tuple

from .words import Word, canonical, interlacement_masks, letters, positions, validate_word


class NotRealizableError(ValueError):
    """The word admits no embedding in the sphere."""


@dataclass(frozen=True)
class Face:
    """One face of a realization.

    ``darts`` lists the dart ends met while walking the boundary, one
    per arc side, so ``length`` counts the sides.  ``corners`` gives the
    chord label at each step and ``parities`` the dart parity (0 when
    the boundary walk runs along the arc, 1 when against it).
    """

    darts: Tuple[int, ...]
    corners: Tuple[str, ...]
    parities: Tuple[int, ...]

    @property
    def length(self) -> int:
        return len(self.darts)

    @property
    def is_coherent(self) -> bool:
        # The boundary walk meets every side the same way, all along
        # their arcs or all against them: the sides are cyclically
        # oriented.  A monogon always is.
        return len(set(self.parities)) == 1


@dataclass(frozen=True)
class FaceInventory:
    faces: Tuple[Face, ...]

    @property
    def monogons(self) -> int:
        return sum(face.length == 1 for face in self.faces)

    @property
    def coherent_bigons(self) -> int:
        return sum(face.length == 2 and face.is_coherent for face in self.faces)

    @property
    def coherent_trigons(self) -> int:
        return sum(face.length == 3 and face.is_coherent for face in self.faces)


@dataclass(frozen=True)
class Embedding:
    """A realization: one rotation bit per chord, in first occurrence order."""

    word: Word
    bits: Tuple[int, ...]

    @property
    def inventory(self) -> FaceInventory:
        """The faces, built each time they are read; only the bits are stored."""
        total = len(self.word)
        faces = []
        for orbit in _face_orbits(self.word, self.bits):
            corners = tuple(self.word[_dart_position(d, total)] for d in orbit)
            parities = tuple(d % 2 for d in orbit)
            faces.append(Face(darts=tuple(orbit), corners=corners, parities=parities))
        return FaceInventory(faces=tuple(faces))


def vertex_rotations(word: Sequence[str], bits: Sequence[int]) -> Dict[int, Tuple[int, int, int, int]]:
    """Counterclockwise dart order at each chord, keyed by chord index."""
    w = tuple(word)
    total = len(w)
    out: Dict[int, Tuple[int, int, int, int]] = {}
    pos = positions(w)
    for index, label in enumerate(letters(w)):
        p, q = pos[label]
        in_p = 2 * ((p - 1) % total) + 1
        out_p = 2 * p
        in_q = 2 * ((q - 1) % total) + 1
        out_q = 2 * q
        if bits[index] == 0:
            out[index] = (in_p, in_q, out_p, out_q)
        else:
            out[index] = (in_p, out_q, out_p, in_q)
    return out


def _face_orbits(word: Word, bits: Sequence[int]) -> list:
    """Orbits of d -> next(d ^ 1); dart d ^ 1 is the other arc end.

    The simple closed curve (the empty word) splits the sphere into two
    faces with no crossings on their boundary, so it has two empty orbits.
    """
    if not word:
        return [[], []]
    sigma = [0] * (2 * len(word))
    for cycle in vertex_rotations(word, bits).values():
        for a, b in zip(cycle, cycle[1:] + cycle[:1]):
            sigma[a] = b
    seen = [False] * len(sigma)
    orbits = []
    for start in range(len(sigma)):
        if seen[start]:
            continue
        orbit = []
        d = start
        while not seen[d]:
            seen[d] = True
            orbit.append(d)
            d = sigma[d ^ 1]
        orbits.append(orbit)
    return orbits


def _dart_position(d: int, total: int) -> int:
    if d % 2 == 0:
        return d // 2
    return (d // 2 + 1) % total


def _breaks_gauss(mask: int, masks: Sequence[int], others: int) -> bool:
    """True when a chord breaks Gauss parity or the non-interleaved pair condition.

    ``mask`` is the chord's neighbour set N(c) and ``masks[a]`` that of
    chord a.  Gauss parity: |N(c)| is odd.  Pair condition: some chord a
    in the bitset ``others`` does not interleave c and |N(a) & N(c)| is
    odd.  Either makes the word unrealizable (Rosenstiehl 1976; de
    Fraysseix and Ossona de Mendez 1999).  With ``others`` empty only
    parity is tested, in constant time.
    """
    if mask.bit_count() & 1:
        return True
    rest = others & ~mask
    while rest:
        low = rest & -rest
        rest ^= low
        if (masks[low.bit_length() - 1] & mask).bit_count() & 1:
            return True
    return False


def _propagated_bits(w: Word) -> "Tuple[int, ...] | None":
    """The least bits that the pair rule allows, or None if it allows none."""
    nbrs = interlacement_masks(w)
    if any(_breaks_gauss(mask, nbrs, 0) for mask in nbrs):
        return None
    pos = positions(w)
    firsts = [pos[label][0] for label in letters(w)]
    bits = [-1] * len(nbrs)
    for root in range(len(nbrs)):
        if bits[root] >= 0:
            continue
        bits[root] = 0
        stack = [root]
        while stack:
            a = stack.pop()
            rest = nbrs[a]
            while rest:
                low = rest & -rest
                rest ^= low
                c = low.bit_length() - 1
                gap = abs(firsts[c] - firsts[a])
                want = bits[a] ^ (((nbrs[a] & nbrs[c]).bit_count() + gap - 1) & 1)
                if bits[c] < 0:
                    bits[c] = want
                    stack.append(c)
                elif bits[c] != want:
                    return None
    return tuple(bits)


@lru_cache(maxsize=65536)
def _realize_cached(w: Word) -> "Embedding | None":
    bits = _propagated_bits(w)
    if bits is None or len(_face_orbits(w, bits)) != len(w) // 2 + 2:
        return None
    return Embedding(word=w, bits=bits)


def realize(word: Sequence[str]) -> Embedding:
    """The sphere embedding with the least rotation bits.

    The bits come from the pair rule of the module docstring, the least
    choice in each interlacement component, and are accepted only when
    they give n + 2 faces.  The result holds the word and its bits; its
    face inventory is built when it is read.  Raises NotRealizableError
    otherwise.
    """
    w = tuple(word)
    validate_word(w)
    found = _realize_cached(w)
    if found is None:
        raise NotRealizableError(f"word is not realizable in the sphere: {' '.join(w)}")
    return found


def is_realizable(word: Sequence[str]) -> bool:
    """Whether the word embeds in the sphere.

    Keyed by the canonical form, so every spelling of one curve shares
    one cache entry.
    """
    return _realize_cached(canonical(word)) is not None


def faces(word: Sequence[str]) -> FaceInventory:
    """Face inventory of ``realize(word)``, the least-bits embedding."""
    return realize(word).inventory

