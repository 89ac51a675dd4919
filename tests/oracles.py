"""Independent slow reference implementations used only by the tests.

Everything here is written from scratch against the definitions, not by
calling the package internals, so that agreement is evidence and not
tautology.  The only shared convention is the dart layout (arc i has
tail end 2i and head end 2i + 1), which is part of the public model.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Set, Tuple


# ---------------------------------------------------------------------------
# words


def word_positions(word: Sequence[str]) -> Dict[str, Tuple[int, int]]:
    out: Dict[str, List[int]] = {}
    for i, label in enumerate(word):
        out.setdefault(label, []).append(i)
    return {label: (p[0], p[1]) for label, p in out.items()}


def interleaved(word: Sequence[str], a: str, b: str) -> bool:
    """Chords interleave when their four passages alternate cyclically."""
    pattern = [label for label in word if label in (a, b)]
    assert len(pattern) == 4
    return pattern[0] == pattern[2] and pattern[1] == pattern[3]


def cross_pairs(word: Sequence[str]) -> int:
    labels = sorted(set(word))
    return sum(
        1
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
        if interleaved(word, a, b)
    )


def interlacement_edges(word: Sequence[str]) -> Set[Tuple[str, str]]:
    labels = sorted(set(word))
    return {
        (a, b)
        for i, a in enumerate(labels)
        for b in labels[i + 1 :]
        if interleaved(word, a, b)
    }


def enumerate_matchings(n: int) -> Iterator[Tuple[str, ...]]:
    """All double occurrence words on n chords, one per chord matching."""
    alphabet = "abcdefghijklmnopqrstuvwxyz"

    def build(free: Tuple[int, ...], partner: Dict[int, int]) -> Iterator[Dict[int, int]]:
        if not free:
            yield dict(partner)
            return
        first = free[0]
        for other in free[1:]:
            partner[first] = other
            rest = tuple(p for p in free[1:] if p != other)
            yield from build(rest, partner)
            del partner[first]

    for matching in build(tuple(range(2 * n)), {}):
        word = [""] * (2 * n)
        next_label = 0
        for p in range(2 * n):
            if word[p]:
                continue
            word[p] = word[matching[p]] = alphabet[next_label]
            next_label += 1
        yield tuple(word)


def all_canonical_variants(word: Sequence[str]) -> Set[Tuple[int, ...]]:
    """Rank sequences of every rotation of the word and of its reverse."""
    variants = set()
    for view in (list(word), list(word)[::-1]):
        for s in range(max(1, len(view))):
            rotated = view[s:] + view[:s]
            ranks: List[int] = []
            seen: Dict[str, int] = {}
            for label in rotated:
                if label not in seen:
                    seen[label] = len(seen)
                ranks.append(seen[label])
            variants.add(tuple(ranks))
    return variants


@lru_cache(maxsize=None)
def matchings_by_class(n: int) -> Tuple[Tuple[Tuple[int, ...], Tuple[Tuple[str, ...], ...]], ...]:
    """Every matching on n chords grouped under its least variant, sorted by it."""
    by_class: Dict[Tuple[int, ...], List[Tuple[str, ...]]] = {}
    for word in enumerate_matchings(n):
        by_class.setdefault(min(all_canonical_variants(word)), []).append(word)
    return tuple((least, tuple(members)) for least, members in sorted(by_class.items()))


def reduce_r1_all_orders(word: Sequence[str]) -> Set[Tuple[int, ...]]:
    """Rank sequences of every fully reduced word over all deletion orders."""

    def ranks(w: Tuple[str, ...]) -> Tuple[int, ...]:
        seen: Dict[str, int] = {}
        out = []
        for label in w:
            if label not in seen:
                seen[label] = len(seen)
            out.append(seen[label])
        return tuple(out)

    results: Set[Tuple[int, ...]] = set()
    seen_states: Set[Tuple[str, ...]] = set()

    def walk(w: Tuple[str, ...]) -> None:
        if w in seen_states:
            return
        seen_states.add(w)
        total = len(w)
        sites = [i for i in range(total) if total and w[i] == w[(i + 1) % total]]
        if not sites:
            results.add(min(ranks(v) for v in all_rotation_views(w)))
            return
        for i in sites:
            j = (i + 1) % total
            if j > i:
                walk(w[:i] + w[j + 1 :])
            else:
                walk(w[1:i])

    def all_rotation_views(w: Tuple[str, ...]):
        views = []
        for view in (w, w[::-1]):
            for s in range(max(1, len(view))):
                views.append(view[s:] + view[:s])
        return views

    walk(tuple(word))
    return results


def prime_factors_by_intervals(word: Sequence[str]) -> Tuple[Tuple[int, ...], ...]:
    """Least rank sequences of the prime factors, sorted; () for the empty word.

    A word is composite when some cyclic interval, neither empty nor the
    whole word, holds both passages of each chord it meets.  Every start
    and length is tried; the word splits into the first such interval
    and its complement, and each part is decomposed again.
    """
    w = list(word)
    total = len(w)
    for length in range(1, total):
        for start in range(total):
            rotated = w[start:] + w[:start]
            inside = rotated[:length]
            if 2 * len(set(inside)) == length:
                parts = prime_factors_by_intervals(inside) + prime_factors_by_intervals(
                    rotated[length:]
                )
                return tuple(sorted(parts, key=lambda f: (len(f), f)))
    return (min(all_canonical_variants(w)),) if w else ()


# ---------------------------------------------------------------------------
# triangle sites


def triangle_sites(
    word: Sequence[str],
) -> List[Tuple[Tuple[int, int, int], Tuple[str, str, str], int]]:
    """Every triangle site, by brute force over triples of factors.

    A side is a cyclic window of length two, named by its start
    position, that holds two distinct labels.  A site is three pairwise
    disjoint sides whose label pairs are the three two element subsets
    of three chords.  Each entry holds the
    factor start positions, the sorted chords and the number of
    interleaved pairs among those chords, in order of positions.
    """
    total = len(word)
    factors = [
        (s, {s, (s + 1) % total}, frozenset((word[s], word[(s + 1) % total])))
        for s in range(total)
        if word[s] != word[(s + 1) % total]
    ]
    sites = []
    for (i, span_i, p), (j, span_j, q), (k, span_k, r) in itertools.combinations(
        factors, 3
    ):
        labels = p | q | r
        if len(labels) != 3 or len({p, q, r}) != 3:
            continue
        if span_i & span_j or span_i & span_k or span_j & span_k:
            continue
        a, b, c = sorted(labels)
        internal = (
            interleaved(word, a, b) + interleaved(word, a, c) + interleaved(word, b, c)
        )
        sites.append(((i, j, k), (a, b, c), internal))
    return sites


# ---------------------------------------------------------------------------
# graphs


def brute_min_cover(vertices: Sequence[str], edges: Set[Tuple[str, str]]) -> int:
    """Smallest vertex set touching every edge, by ascending exhaustion."""
    edge_list = list(edges)
    for k in range(len(list(vertices)) + 1):
        for combo in itertools.combinations(vertices, k):
            chosen = set(combo)
            if all(a in chosen or b in chosen for a, b in edge_list):
                return k
    return len(list(vertices))


def has_induced_path3(vertices: Sequence[str], edges: Set[Tuple[str, str]]) -> bool:
    """Three vertices with exactly two of the three possible edges."""

    def adjacent(x: str, y: str) -> bool:
        return (x, y) in edges or (y, x) in edges

    for a, b, c in itertools.combinations(vertices, 3):
        count = adjacent(a, b) + adjacent(b, c) + adjacent(a, c)
        if count == 2:
            return True
    return False


def is_union_of_cliques(vertices: Sequence[str], edges: Set[Tuple[str, str]]) -> bool:
    def adjacent(x: str, y: str) -> bool:
        return (x, y) in edges or (y, x) in edges

    component: Dict[str, int] = {}
    for v in vertices:
        if v in component:
            continue
        stack = [v]
        component[v] = len(component)
        members = [v]
        while stack:
            x = stack.pop()
            for y in vertices:
                if y != x and adjacent(x, y) and y not in component:
                    component[y] = component[v]
                    members.append(y)
                    stack.append(y)
        for a, b in itertools.combinations(members, 2):
            if not adjacent(a, b):
                return False
    return True


# ---------------------------------------------------------------------------
# corner walking face tracer (independent of the package's orbit tracer)


def corner_faces(word: Sequence[str], bits: Sequence[int]) -> List[int]:
    """Face sizes for one rotation assignment, by walking corner to corner."""
    return [len(sides) for sides in corner_face_sides(word, bits)]


def corner_face_sides(word: Sequence[str], bits: Sequence[int]) -> List[Tuple[int, ...]]:
    """The sides of each face for one rotation assignment, in walk order.

    A corner of a chord is the region between consecutive ports in its
    counterclockwise dart order.  Leaving a corner through its second
    port (the exit dart) runs along arc ``exit_dart // 2`` to its far
    end, so that arc is a side of the face; the next corner starts at
    the arrival port.
    """
    w = tuple(word)
    total = len(w)
    if total == 0:
        return [(), ()]
    order: Dict[str, int] = {}
    for label in w:
        if label not in order:
            order[label] = len(order)
    pos = word_positions(w)

    ports: Dict[str, Tuple[int, int, int, int]] = {}
    for label, (p, q) in pos.items():
        in_p = 2 * ((p - 1) % total) + 1
        out_p = 2 * p
        in_q = 2 * ((q - 1) % total) + 1
        out_q = 2 * q
        if bits[order[label]] == 0:
            ports[label] = (in_p, in_q, out_p, out_q)
        else:
            ports[label] = (in_p, out_q, out_p, in_q)

    label_of_dart: Dict[int, str] = {}
    index_of_dart: Dict[int, int] = {}
    for label, cycle in ports.items():
        for k, d in enumerate(cycle):
            label_of_dart[d] = label
            index_of_dart[d] = k

    faces = []
    seen: Set[Tuple[str, int]] = set()
    for label in ports:
        for k in range(4):
            corner = (label, k)
            sides = []
            while corner not in seen:
                seen.add(corner)
                at, index = corner
                exit_dart = ports[at][(index + 1) % 4]
                sides.append(exit_dart // 2)
                far = exit_dart ^ 1
                corner = (label_of_dart[far], index_of_dart[far])
            if sides:
                faces.append(tuple(sides))
    return faces


def corner_realizable(word: Sequence[str]) -> bool:
    w = tuple(word)
    n = len(w) // 2
    if n == 0:
        return True
    for bits in itertools.product((0, 1), repeat=n):
        if len(corner_faces(w, bits)) == n + 2:
            return True
    return False


def corner_face_multisets(word: Sequence[str]) -> Set[Tuple[int, ...]]:
    """Sorted face size tuples over all sphere realizations of the word."""
    w = tuple(word)
    n = len(w) // 2
    out: Set[Tuple[int, ...]] = set()
    if n == 0:
        return {(0, 0)}
    for bits in itertools.product((0, 1), repeat=n):
        sizes = corner_faces(w, bits)
        if len(sizes) == n + 2:
            out.add(tuple(sorted(sizes)))
    return out


# ---------------------------------------------------------------------------
# oriented smoothing loop count (no embedding needed)


def seifert_circles(word: Sequence[str]) -> int:
    """Loops after smoothing every passage along the orientation."""
    w = tuple(word)
    total = len(w)
    if total == 0:
        return 1
    parent = list(range(2 * total))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(x: int, y: int) -> None:
        parent[find(x)] = find(y)

    for i in range(total):
        union(2 * i, 2 * i + 1)
    for p, q in word_positions(w).values():
        in_p = 2 * ((p - 1) % total) + 1
        out_p = 2 * p
        in_q = 2 * ((q - 1) % total) + 1
        out_q = 2 * q
        union(in_p, out_q)
        union(in_q, out_p)
    return len({find(d) for d in range(2 * total)})


# ---------------------------------------------------------------------------
# bracket polynomial by the full 2^n state sum


def bracket_state_sum(
    word: Sequence[str], bits: Sequence[int], over_first: Sequence[bool]
) -> Dict[int, int]:
    """Kauffman bracket as an exponent -> coefficient map, over all 2^n states.

    At each crossing the over strand's two ends join the port just
    before them counterclockwise (A) or just after them (B); a state
    with a splits of kind A, b of kind B and some loops adds
    A^(a - b) * (-A^2 - A^(-2))^(loops - 1).
    """
    w = tuple(word)
    total = len(w)
    n = total // 2
    if n == 0:
        return {0: 1}
    order: Dict[str, int] = {}
    for label in w:
        if label not in order:
            order[label] = len(order)
    choices = []
    for label, (p, q) in word_positions(w).items():
        in_p = 2 * ((p - 1) % total) + 1
        out_p = 2 * p
        in_q = 2 * ((q - 1) % total) + 1
        out_q = 2 * q
        if bits[order[label]] == 0:
            ports = (in_p, in_q, out_p, out_q)
        else:
            ports = (in_p, out_q, out_p, in_q)
        over = {in_p, out_p} if over_first[order[label]] else {in_q, out_q}
        slots = [k for k in range(4) if ports[k] in over]
        a_joins = [(ports[k - 1], ports[k]) for k in slots]
        b_joins = [(ports[k], ports[(k + 1) % 4]) for k in slots]
        choices.append((order[label], a_joins, b_joins))
    choices.sort()

    out: Dict[int, int] = {}
    for state in itertools.product((0, 1), repeat=n):
        parent = list(range(2 * total))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for i in range(total):
            parent[find(2 * i)] = find(2 * i + 1)
        for (_, a_joins, b_joins), split in zip(choices, state):
            for x, y in b_joins if split else a_joins:
                parent[find(x)] = find(y)
        loops = len({find(d) for d in range(2 * total)})
        b_count = sum(state)
        k = loops - 1
        for j in range(k + 1):
            e = n - 2 * b_count + 2 * k - 4 * j
            out[e] = out.get(e, 0) + (-1) ** k * math.comb(k, j)
    return {e: c for e, c in out.items() if c != 0}


# ---------------------------------------------------------------------------
# checkerboard determinant for an alternating resolution


def _bareiss_abs_det(matrix: List[List[int]]) -> int:
    m = [row[:] for row in matrix]
    size = len(m)
    if size == 0:
        return 1
    sign = 1
    prev = 1
    for k in range(size - 1):
        if m[k][k] == 0:
            for r in range(k + 1, size):
                if m[r][k] != 0:
                    m[k], m[r] = m[r], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, size):
            for j in range(k + 1, size):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return abs(sign * m[size - 1][size - 1])


def goeritz_determinant(word: Sequence[str], bits: Sequence[int]) -> int:
    """Knot determinant of the alternating diagram over one realization.

    Faces are two colored; each crossing contributes -1 when the white
    corners are the pair merged by rotating the over strand back
    counterclockwise, else +1; the absolute determinant of the reduced
    white face form is color and sign convention independent.
    """
    w = tuple(word)
    total = len(w)
    n = total // 2
    assert n > 0
    order: Dict[str, int] = {}
    for label in w:
        if label not in order:
            order[label] = len(order)
    pos = word_positions(w)

    ports: Dict[str, Tuple[int, int, int, int]] = {}
    for label, (p, q) in pos.items():
        in_p = 2 * ((p - 1) % total) + 1
        out_p = 2 * p
        in_q = 2 * ((q - 1) % total) + 1
        out_q = 2 * q
        if bits[order[label]] == 0:
            ports[label] = (in_p, in_q, out_p, out_q)
        else:
            ports[label] = (in_p, out_q, out_p, in_q)

    label_of_dart: Dict[int, str] = {}
    index_of_dart: Dict[int, int] = {}
    for label, cycle in ports.items():
        for k, d in enumerate(cycle):
            label_of_dart[d] = label
            index_of_dart[d] = k

    def step(corner: Tuple[str, int]) -> Tuple[str, int]:
        label, k = corner
        exit_dart = ports[label][(k + 1) % 4]
        far = exit_dart ^ 1
        return (label_of_dart[far], index_of_dart[far])

    face_of: Dict[Tuple[str, int], int] = {}
    face_total = 0
    for label in ports:
        for k in range(4):
            corner = (label, k)
            if corner in face_of:
                continue
            walk = corner
            members = []
            while walk not in face_of:
                face_of[walk] = face_total
                members.append(walk)
                walk = step(walk)
            face_total += 1
    assert face_total == n + 2, "oracle expects a sphere realization"

    # Two color faces: corners k and k + 1 at one crossing share an arc
    # side, so they get opposite colors.
    color: Dict[int, int] = {0: 0}
    queue = [0]
    adjacency: Dict[int, Set[int]] = {f: set() for f in range(face_total)}
    for label in ports:
        for k in range(4):
            f1 = face_of[(label, k)]
            f2 = face_of[(label, (k + 1) % 4)]
            adjacency[f1].add(f2)
            adjacency[f2].add(f1)
    while queue:
        f = queue.pop()
        for g in adjacency[f]:
            if g not in color:
                color[g] = 1 - color[f]
                queue.append(g)
            else:
                assert color[g] != color[f], "faces must be two colorable"

    white = [f for f in range(face_total) if color[f] == 0]
    white_index = {f: i for i, f in enumerate(white)}

    size = len(white)
    form = [[0] * size for _ in range(size)]
    for label, (p, q) in pos.items():
        # Alternating resolution: the strand goes over at its even
        # numbered passage.  Over ports of the crossing are that
        # passage's in and out darts.
        over_passage = p if p % 2 == 0 else q
        in_over = 2 * ((over_passage - 1) % total) + 1
        out_over = 2 * over_passage
        cycle = ports[label]
        over_slots = {index_of_dart[in_over], index_of_dart[out_over]}
        # Rotate labels so the over strand sits on slots {0, 2}; the
        # merged pair for the counterclockwise rotation of the over
        # strand is then corners (0,1)+(2,3), i.e. corner indices 0, 2.
        if over_slots == {0, 2}:
            merged = {0, 2}
        else:
            assert over_slots == {1, 3}
            merged = {1, 3}
        corner_faces_here = [face_of[(label, k)] for k in range(4)]
        white_slots = {k for k in range(4) if color[corner_faces_here[k]] == 0}
        assert white_slots in ({0, 2}, {1, 3})
        eta = -1 if white_slots == merged else 1
        i, j = (corner_faces_here[k] for k in sorted(white_slots))
        if i != j:
            a, b = white_index[i], white_index[j]
            form[a][b] -= eta
            form[b][a] -= eta
    for i in range(size):
        form[i][i] = -sum(form[i][j] for j in range(size) if j != i)
    reduced = [row[1:] for row in form[1:]]
    return _bareiss_abs_det(reduced)
