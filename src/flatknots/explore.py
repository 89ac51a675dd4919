"""Equivalence class search, word enumeration, and structured families.

Classes under move sets that include curl insertion are infinite, so
searches run inside a window, stated once in ``_grow``, the breadth
first step of every search: no curl addition from a state at or above
the chord cap, no result above it, and a new state only while the
searched trees hold fewer than ``max_states`` states together.  An open
chord cap is two chords more than the larger end (``_window``).  A
completed path certifies equivalence; exhausting the window certifies
nothing, and the result says so.  Equivalence queries grow trees from
both ends and stop where they meet.  That joins the same words as a
search from one end, because each move set holds the inverse of every
move in it and the chord cap is the same from either end.  The path is
a shortest one inside the window.  The rows of ``_REFUTATIONS`` decide
inequivalence outright: the curl reduced normal form, complete for
curl moves alone, and the cross chord residue mod 3, the clique union
flag and the trivializing number wherever ``moves.MOVE_LAWS`` keeps
them for every move in the set.

Every search reads the moves of a word from the memo of the move graph
in ``moves``, so each (word, site) that the searches of one process
meet is found, applied and law-checked once while the memo holds it,
and a word's triangle sites are found once however many move sets ask
for them.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Dict, FrozenSet, Iterator, List, Optional, Sequence, Tuple

from .embedding import _breaks_gauss, _realize_cached, faces
from .invariants import (
    CURL_SHAPE,
    TREFOIL_SHAPE,
    cross_chord_number,
    h_invariant,
    r1_normal_form,
    trivializing_number,
)
from .moves import (
    MOVE_LAWS, MOVE_SETS, MoveError, MoveKind, MoveSite, _apply, _moves_from, find_sites, move_set,
)
from .words import (
    Word,
    _back_distances,
    _least_views,
    _prefix_ties,
    canonical,
    chord_count,
    format_word,
    label_for_rank,
    prime_decompose,
)


@dataclass(frozen=True)
class SearchConfig:
    """Window for bounded class search; ``_window`` resolves ``max_chords=None``."""

    max_chords: Optional[int] = 6
    max_states: int = 200000


def _window(config: SearchConfig, *ends: Word) -> SearchConfig:
    """``config`` with an open chord cap set to two more than the larger end."""
    if config.max_chords is not None:
        return config
    return replace(config, max_chords=max(chord_count(w) for w in ends) + 2)


@dataclass(frozen=True)
class WitnessPath:
    """A replayable move sequence: moves[i] applies to words[i]."""

    words: Tuple[Word, ...]
    moves: Tuple[MoveSite, ...]

    def __len__(self) -> int:
        return len(self.moves)


def verify_path(path: WitnessPath) -> bool:
    """Replay every move; words are compared as projections.

    False whenever the path does not replay: the word and move counts do
    not match, a move is not a site of its word, or it lands on another
    projection.  A replayed move that breaks a law of ``MOVE_LAWS`` is a
    defect of the library, not of the path, and still raises MoveError.
    """
    if len(path.words) != len(path.moves) + 1:
        return False
    for i, site in enumerate(path.moves):
        word = tuple(path.words[i])
        if site not in find_sites(word, (site.kind,)):
            return False
        if _apply(word, site)[1] != canonical(path.words[i + 1]):
            return False
    return True


# Each word a search reached, with the word it was reached from and the
# site applied there; None at the word the tree grew from.
_Tree = Dict[Word, Optional[Tuple[Word, MoveSite]]]


def _to_root(tree: _Tree, word: Word) -> List[Word]:
    """``word``, its parent, and so on up to the word its tree grew from."""
    chain = [word]
    link = tree[word]
    while link is not None:
        chain.append(link[0])
        link = tree[link[0]]
    return chain


@dataclass
class ClassSearchResult:
    start: Word
    kinds: FrozenSet[MoveKind]
    config: SearchConfig
    words: FrozenSet[Word]
    truncated: bool
    tree: _Tree = field(repr=False)

    @property
    def parents(self) -> Dict[Word, Tuple[Word, MoveSite]]:
        """Each reached word but the start, with the word and site it was reached by."""
        return {child: link for child, link in self.tree.items() if link is not None}

    def __contains__(self, word: Sequence[str]) -> bool:
        return canonical(word) in self.words

    def edges(self) -> Iterator[Tuple[Word, MoveSite, Word]]:
        """The search tree: one discovering edge per reached word."""
        for child, (parent, site) in self.parents.items():
            yield parent, site, child

    def path_to(self, target: Sequence[str]) -> Optional[WitnessPath]:
        goal = canonical(target)
        if goal not in self.tree:
            return None
        words = _to_root(self.tree, goal)[::-1]
        return WitnessPath(tuple(words), tuple(self.tree[child][1] for child in words[1:]))


def _grow(
    own: _Tree, other: _Tree, frontier: List[Word], kinds: FrozenSet[MoveKind], config: SearchConfig
) -> Tuple[List[Word], List[Tuple[Word, MoveSite, Word]], bool]:
    """Expand one breadth first level of ``own``: the one statement of the window.

    Every move of ``kinds`` is applied from each word of ``frontier``,
    except curl addition from a word at or above the chord cap, which
    always leaves the window.  A result above the chord cap is dropped.
    One in ``other`` is a meeting, returned as (word, site, result).  A
    new one joins ``own`` and the level while ``own`` and ``other``
    together hold fewer than ``max_states``.  Returns the level, the
    meetings, and whether the window cut anything: a frontier word above
    the cap, a move not applied, a result dropped, or a state refused.
    """
    level: List[Word] = []
    meetings: List[Tuple[Word, MoveSite, Word]] = []
    cut = False
    for current in frontier:
        size = chord_count(current)
        wanted = kinds - {MoveKind.CURL_ADD} if size >= config.max_chords else kinds
        cut = cut or size > config.max_chords or wanted != kinds
        for site, result, shape in _moves_from(current, wanted):
            if chord_count(result) > config.max_chords:
                cut = True
            elif shape in other:
                meetings.append((current, site, shape))
            elif shape in own:
                continue
            elif len(own) + len(other) >= config.max_states:
                cut = True
            else:
                own[shape] = (current, site)
                level.append(shape)
    return level, meetings, cut


def search_class(
    word: Sequence[str],
    kinds: Sequence[MoveKind],
    config: SearchConfig = SearchConfig(),
) -> ClassSearchResult:
    """Breadth first closure of a word under the given moves, windowed.

    States are canonical forms.  The moves of each expanded state come
    from the memo of the move graph in ``moves``, so a move is applied,
    canonicalized and law-checked once per process, however many
    searches meet it.  The tree grows by ``_grow`` one level at a time
    until no level is left, and the result is truncated when the window
    cut any level.
    """
    start = canonical(word)
    kind_set = frozenset(kinds)
    config = _window(config, start)
    tree: _Tree = {start: None}
    frontier = [start]
    truncated = False
    while frontier:
        frontier, _, cut = _grow(tree, {}, frontier, kind_set, config)
        truncated = truncated or cut
    return ClassSearchResult(start, kind_set, config, frozenset(tree), truncated, tree)


def _two_ended_search(
    a: Word, b: Word, kinds: FrozenSet[MoveKind], config: SearchConfig
) -> Optional[WitnessPath]:
    """A shortest path from ``a`` to ``b`` inside the window, or None.

    Breadth first search from both ends (Pohl, "Bi-directional search",
    Machine Intelligence 6, 1971): ``_grow`` takes one whole level at a
    time on the side whose frontier is smaller.  The first level that
    reaches the other side stops at the meeting state of least total
    depth: until then each side holds every state within its depth, so
    no shorter path exists.  None as soon as either frontier is empty.
    """
    if a == b:
        return WitnessPath((a,), ())
    trees: Tuple[_Tree, _Tree] = ({a: None}, {b: None})
    frontiers = [[a], [b]]
    while frontiers[0] and frontiers[1]:
        side = 0 if len(frontiers[0]) <= len(frontiers[1]) else 1
        own, other = trees[side], trees[1 - side]
        frontiers[side], meetings, _ = _grow(own, other, frontiers[side], kinds, config)
        if meetings:
            current, site, meeting = min(meetings, key=lambda m: len(_to_root(other, m[2])))
            own[meeting] = (current, site)
            return _join(trees, meeting, kinds)
    return None


def _join(trees: Tuple[_Tree, _Tree], meeting: Word, kinds: FrozenSet[MoveKind]) -> WitnessPath:
    """The path from the end of ``trees[0]`` through ``meeting`` to that of ``trees[1]``.

    The second tree's links point toward its end, so each of its steps
    is read backwards: the site ``find_sites`` reports on the word whose
    result has the shape of the word's parent.  Every move set holds its
    inverses, so a missing site is a defect of the library.
    """
    words = _to_root(trees[0], meeting)[::-1]
    moves = [trees[0][child][1] for child in words[1:]]
    second = _to_root(trees[1], meeting)
    for word, parent in zip(second, second[1:]):
        site = next((s for s, _, shape in _moves_from(word, kinds) if shape == parent), None)
        if site is None:
            raise MoveError(
                f"a move takes {format_word(parent)} to {format_word(word)}, but none takes it back"
            )
        moves.append(site)
        words.append(parent)
    return WitnessPath(tuple(words), tuple(moves))


@dataclass(frozen=True)
class EquivalenceResult:
    verdict: str  # "equivalent" | "not-equivalent" | "unknown"
    reason: str
    path: Optional[WitnessPath]

    def to_dict(self) -> dict:
        payload: dict = {"verdict": self.verdict, "reason": self.reason}
        if self.path is not None:
            payload["path"] = [list(w) for w in self.path.words]
            payload["moves"] = [site.describe() for site in self.path.moves]
        return payload


def _kept(law_keeps: Callable[..., bool]) -> Callable[[FrozenSet[MoveKind]], bool]:
    """Whether every law of a move set keeps an invariant."""
    return lambda kinds: all(law_keeps(MOVE_LAWS[kind]) for kind in kinds)


# Invariants that refute equivalence under the move sets that keep them,
# in order: the curl reduced normal form, which decides curl moves alone
# completely, then the cross chord residue mod 3, H and tr wherever every
# move law in the set keeps them.
_REFUTATIONS = (
    (lambda kinds: kinds <= MOVE_SETS["r1"], lambda w: format_word(r1_normal_form(w)),
     "curl reduced normal forms differ: {} vs {}"),
    (_kept(lambda law: all(d % 3 == 0 for d in law.dx)), lambda w: cross_chord_number(w) % 3,
     "cross chord residues mod 3 differ: {} vs {}"),
    (_kept(lambda law: law.keeps_h), h_invariant, "clique union flags differ: H={} vs H={}"),
    (_kept(lambda law: law.dtr == (0,)), trivializing_number,
     "trivializing numbers differ: {} vs {}"),
)


def equivalence_query(
    first: Sequence[str],
    second: Sequence[str],
    moves_name: str = "both",
    config: SearchConfig = SearchConfig(max_chords=None),
) -> EquivalenceResult:
    """Decide, refute, or give up on equivalence under a named move set.

    Inequivalence verdicts come from invariants and are certain.
    Equivalence verdicts come with a replayable path.  "unknown" only
    reports that the window was exhausted.

    The path is searched from both ends at once.  Every move set holds
    the inverse of each of its moves (curl addition and deletion, strong
    expansion and contraction, and the weak slide, which undoes itself),
    and the chord cap is the same from either end, so the words each end
    reaches inside the window are joined by the same moves read
    backwards.  The path found is a shortest one inside the window, and
    ``max_states`` bounds the states of both ends together.  Both ends
    are searched from even when they lie above the chord cap, which by
    default is two chords more than the larger end.
    """
    a = canonical(first)
    b = canonical(second)
    kinds = move_set(moves_name)
    config = _window(config, a, b)
    for keeps, invariant, reason in _REFUTATIONS:
        if keeps(kinds):
            va, vb = invariant(a), invariant(b)
            if va != vb:
                return EquivalenceResult("not-equivalent", reason.format(va, vb), None)

    path = _two_ended_search(a, b, kinds, config)
    if path is not None:
        return EquivalenceResult("equivalent", f"path of {len(path)} moves found", path)
    if kinds <= MOVE_SETS["r1"]:
        # Normal forms matched, so a path exists; the window was just
        # too small to exhibit it.
        reason = "curl reduced normal forms match (no path within the window)"
        return EquivalenceResult("equivalent", reason, None)
    reason = f"no path within chords <= {config.max_chords}, states <= {config.max_states}"
    return EquivalenceResult("unknown", reason, None)


def enumerate_words(n: int) -> Tuple[Word, ...]:
    """All canonical double occurrence words with n chords, sorted.

    Orderly generation (Read 1978, "Every one a winner"; McKay 1998,
    "Isomorph-free exhaustive generation", J. Algorithms 26): only the
    canonical rank sequence of each class is built, so each class comes
    out once and no other word is canonicalized.  Rank sequences grow
    depth first, one position at a time.  Each step closes an open
    chord or opens chord ``next_rank``, in increasing rank order, so the
    output comes out sorted.  A chord is opened only while unopened
    chords remain, so open chords plus twice the unopened chords always
    equal the positions left and every prefix can be completed.

    A prefix ``w[:L]`` is pruned when a forward view ``w[s:L]`` falls
    below it: every completion would then have a smaller rotation.  Only
    forward views prune; reversals are left to the leaf.  Views are
    compared by back-distances, and the starts that still tie the prefix
    are carried down, as stated in ``words.canonical``.  A finished word
    is accepted only when it is among its least views
    (``words._least_views``, which reads the reversed views too), which
    makes it the least rank sequence of its class.

    Here a chord may close at any gap.  ``enumerate_realizable`` and
    ``corpus.reduced_prime_census`` run the same generator under
    stricter closing rules, each checked when a chord closes: Gauss
    parity (the chord closes an odd distance after it opened, so it has
    even degree), the pair condition (it shares an even number of
    neighbours with every closed chord it does not interleave;
    Rosenstiehl, C. R. Acad. Sci. Paris 283, 1976; de Fraysseix and
    Ossona de Mendez, "On a characterization of Gauss codes", Discrete
    Comput. Geom. 22, 1999) and the closed block rule (it ends no proper
    block closed under partners).  Each rule holds for a whole class or
    for none of it, and is final once the chords it names are closed,
    so a pruned prefix has no completion that those callers keep.
    """
    return _orderly(n, _ANY_GAP)


def enumerate_realizable(n: int) -> Tuple[Word, ...]:
    """The realizable words of ``enumerate_words(n)``, in the same order.

    The generator closes chords under Gauss parity and the pair
    condition (see ``enumerate_words``; Rosenstiehl 1976; de Fraysseix
    and Ossona de Mendez 1999).  Both are necessary for realizability
    and read only the interlacement graph, so they drop whole
    unrealizable classes and never a realizable one.  A closing chord's
    neighbours are the chords met once since it opened, so its degree
    and its common neighbours with closed chords are final.
    ``_realize_cached`` at the leaves stays the certificate.
    """
    return tuple(w for w in _orderly(n, _GAUSS) if _realize_cached(w) is not None)


# Closing rules of the orderly generator, from the weakest: a chord may
# close at any gap; only where Gauss parity and the pair condition hold;
# only where, in addition, it ends no proper block closed under partners.
_ANY_GAP, _GAUSS, _GAUSS_PRIME = range(3)


def _orderly(n: int, rule: int) -> Tuple[Word, ...]:
    """The orderly generator of ``enumerate_words`` under a closing rule.

    Its recursion carries the starts whose view still ties the prefix
    (``live``), as stated in ``words.canonical``.
    """
    if n < 0:
        raise ValueError("chord count must be nonnegative")
    total = 2 * n
    found: List[Word] = []
    prefix: List[int] = []
    # dist[i] is the back-distance of position i inside the prefix (0
    # while its chord is open).
    dist: List[int] = []
    # A parity bitset holds the chords met once so far.  parities[L] is
    # that of w[:L], after[r] that just past the opening of chord r, and
    # masks[r] the neighbour set of chord r once it is closed.
    parities: List[int] = []
    after = [0] * n
    masks = [0] * n

    def extend(
        next_rank: int, open_chords: FrozenSet[int], parity: int, closed: int, live: Tuple[int, ...]
    ) -> None:
        here = len(prefix)
        if here == total:
            if _least_views(_back_distances(prefix))[0] == 0:
                found.append(tuple(label_for_rank(r) for r in prefix))
            return
        parities.append(parity)
        choices = sorted(open_chords) + ([next_rank] if next_rank < n else [])
        for rank in choices:
            opening = rank == next_rank
            if opening:
                after[rank] = parity ^ (1 << rank)
            elif rule != _ANY_GAP:
                mask = parity ^ after[rank]
                if _breaks_gauss(mask, masks, closed):
                    continue
                masks[rank] = mask
                # The law of ``words._closed_blocks``: a proper block ends
                # here when this parity was seen before.  One ending at
                # the last position has a closed complement ending earlier.
                if (
                    rule == _GAUSS_PRIME
                    and here < total - 1
                    and parity ^ (1 << rank) in parities
                ):
                    continue
            d = 0 if opening else here - prefix.index(rank)
            prefix.append(rank)
            dist.append(d)
            ties = _prefix_ties(dist, live)
            if ties is not None:
                if here:
                    ties.append(here)
                extend(
                    next_rank + opening,
                    open_chords ^ {rank},
                    parity ^ (1 << rank),
                    closed if opening else closed | (1 << rank),
                    tuple(ties),
                )
            dist.pop()
            prefix.pop()
        parities.pop()

    extend(0, frozenset(), 0, 0, ())
    return tuple(found)


def strong_trivial_test(word: Sequence[str]) -> bool:
    """Membership in the strong class of the empty word.

    The empty word is an admissible base of ``strong_class_test`` (its
    two faces are empty), so this holds exactly when every prime factor
    is a curl or a trefoil shape.
    """
    return strong_class_test(word, ())


def strong_class_test(word: Sequence[str], base: Sequence[str]) -> bool:
    """Membership in the strong class of a small face free base.

    The base must realize with no coherent face of at most three sides
    (ValueError otherwise), where a face is coherent when its boundary
    walk meets every side the same way (``Face.is_coherent``).  Each
    such face opens a strong move: a monogon is a curl to delete, a
    coherent trigon is a strong triangle, and a curl added on one side
    of a coherent bigon, its loop outside the bigon, makes the bigon a
    coherent trigon, where a strong move applies.  The path
    twist_family(2), curl-add, strong-expand, twist_family(3) is
    exactly this.  Membership holds when the word's prime factors,
    curls aside, are the base's prime factors plus any number of
    trefoils.  Curl factors are filtered from the raw decomposition,
    not removed by curl deletion first: a curl wrapped around another
    summand has no adjacent pair to delete, but it is still a curl
    factor of the word.
    """
    b = tuple(base)
    inventory = faces(b)
    counts = (
        (inventory.monogons, "monogon"),
        (inventory.coherent_bigons, "coherent bigon"),
        (inventory.coherent_trigons, "coherent trigon"),
    )
    problems = [f"{count} {name}(s)" for count, name in counts if count]
    if problems:
        raise ValueError("base word is not admissible, it has " + " and ".join(problems))
    remaining = [factor for factor in prime_decompose(tuple(word)) if factor != CURL_SHAPE]
    for factor in prime_decompose(b):
        if factor not in remaining:
            return False
        remaining.remove(factor)
    return all(factor == TREFOIL_SHAPE for factor in remaining)


def twist_family(n: int) -> Word:
    """The n twist standard projection: two clasp chords and n twists.

    Small members coincide with familiar knot shadows (1 gives the
    trefoil shadow, 2 the figure eight shadow); every member is prime
    with trivializing number 2.
    """
    if n < 1:
        raise ValueError("twist families start at 1")
    clasp_p = label_for_rank(0)
    clasp_q = label_for_rank(1)
    twists = [label_for_rank(i + 2) for i in range(n)]
    if n % 2 == 1:
        word = (
            [clasp_p, clasp_q]
            + twists
            + [clasp_p, clasp_q]
            + list(reversed(twists))
        )
    else:
        word = (
            twists
            + [clasp_p, clasp_q]
            + list(reversed(twists))
            + [clasp_q, clasp_p]
        )
    return tuple(word)
