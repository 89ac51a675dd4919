"""Cyclic double occurrence words and their canonical forms.

A word is a tuple of string labels in which every label occurs exactly
twice.  Words are read cyclically: rotations, reversal, and relabeling
all describe the same closed curve, so two words denote the same
projection exactly when their canonical forms are equal.  The empty
word denotes the simple closed curve.
"""

from __future__ import annotations

from functools import lru_cache
from typing import Dict, Iterator, List, Sequence, Tuple

Word = Tuple[str, ...]

_ALPHABET = "abcdefghijklmnopqrstuvwxyz"


class WordError(ValueError):
    """Input text or label sequence is not a double occurrence word."""


def label_for_rank(rank: int) -> str:
    """Standard label for chord number ``rank``: a..z, then x26, x27, ..."""
    if rank < 0:
        raise ValueError(f"rank must be nonnegative, got {rank}")
    if rank < len(_ALPHABET):
        return _ALPHABET[rank]
    return f"x{rank}"


def parse_word(text: str) -> Word:
    """Parse a word from text.

    Labels are whitespace separated and anything after ``#`` is a
    comment.  As a convenience, a single unbroken run of lowercase
    letters ("abcabc") is unpacked into one-letter labels.  A lone "-"
    is the empty word.  Raises WordError unless every label occurs
    exactly twice.
    """
    body = text.split("#", 1)[0]
    tokens = body.split()
    if tokens == ["-"]:
        tokens = []
    if len(tokens) == 1 and len(tokens[0]) > 1 and all(c in _ALPHABET for c in tokens[0]):
        tokens = list(tokens[0])
    word = tuple(tokens)
    validate_word(word)
    return word


def validate_word(word: Sequence[str]) -> None:
    """Raise WordError unless every label occurs exactly twice."""
    counts: Dict[str, int] = {}
    for label in word:
        counts[label] = counts.get(label, 0) + 1
    bad = {label: k for label, k in counts.items() if k != 2}
    if bad:
        parts = ", ".join(
            f"label {label!r} occurs {'once' if k == 1 else '%d times' % k}"
            for label, k in sorted(bad.items())
        )
        raise WordError(f"not a double occurrence word: {parts}")


def format_word(word: Sequence[str]) -> str:
    """Space separated rendering; the empty word renders as '-'."""
    return " ".join(word) if word else "-"


def chord_count(word: Sequence[str]) -> int:
    return len(word) // 2


def letters(word: Sequence[str]) -> Tuple[str, ...]:
    """Labels in order of first occurrence."""
    seen: Dict[str, None] = {}
    for label in word:
        if label not in seen:
            seen[label] = None
    return tuple(seen)


def positions(word: Sequence[str]) -> Dict[str, Tuple[int, int]]:
    """Map each label to its pair of positions (p, q) with p < q."""
    first: Dict[str, int] = {}
    out: Dict[str, Tuple[int, int]] = {}
    for i, label in enumerate(word):
        if label in first:
            out[label] = (first[label], i)
        else:
            first[label] = i
    return out


def interlacement_masks(word: Sequence[str]) -> Tuple[int, ...]:
    """The interlacement graph as bitsets, one per chord in first occurrence order.

    Bit j of entry i is set when chords i and j interleave, that is when
    chord j has exactly one passage between the two passages of chord i.
    """
    index: Dict[str, int] = {}
    masks: List[int] = []
    # prefix holds the chords met an odd number of times so far; after[i]
    # is its value just past the first passage of chord i.
    prefix = 0
    after: List[int] = []
    for label in word:
        i = index.get(label)
        if i is None:
            index[label] = len(masks)
            prefix ^= 1 << len(masks)
            after.append(prefix)
            masks.append(0)
        else:
            masks[i] = prefix ^ after[i]
            prefix ^= 1 << i
    return tuple(masks)


def rank_sequence(seq: Sequence[str]) -> Tuple[int, ...]:
    """Relabel by order of first occurrence: ranks 0, 1, 2, ..."""
    seen: Dict[str, int] = {}
    out = []
    for label in seq:
        if label not in seen:
            seen[label] = len(seen)
        out.append(seen[label])
    return tuple(out)


def _back_distances(word: Sequence) -> List[int]:
    """Entry p is (p - partner(p)) mod L, the cyclic back-distance of position p."""
    length = len(word)
    first: Dict[object, int] = {}
    dist = [0] * length
    for i, label in enumerate(word):
        j = first.pop(label, None)
        if j is None:
            first[label] = i
        else:
            dist[i] = i - j
            dist[j] = length - i + j
    return dist


def _prefix_ties(dist: Sequence[int], live: Sequence[int]) -> "List[int] | None":
    """The starts of ``live`` whose view still ties a prefix after its last entry.

    ``dist`` holds the back-distances of the prefix (0 at an open
    chord).  None when a view falls below the prefix (see ``canonical``).
    """
    here = len(dist) - 1
    d = dist[here]
    ties = []
    for s in live:
        k = here - s
        e = d if d <= k else 0
        if e == dist[k]:
            ties.append(s)
        elif e > dist[k]:
            return None
    return ties


def _least_views(dist: Sequence[int]) -> List[int]:
    """The views of least rank sequence (see ``canonical``), from ``_back_distances``.

    View s is the rotation that starts at position s and view 2L + s
    that of the reverse, so view 0 comes first.  Several views come back
    only when their rank sequences are equal.
    """
    length = len(dist)
    table = list(dist) * 2 + [length - d for d in reversed(dist)] * 2
    # The empty word has the one view 0.
    live = [*range(length), *range(2 * length, 3 * length)] or [0]
    for k in range(1, length):
        if len(live) == 1:
            break
        best = 0
        ties = []
        for t in live:
            d = table[t + k]
            if d > k:
                d = 0
            if d == best:
                ties.append(t)
            elif d > best:
                best = d
                ties = [t]
        live = ties
    return live


@lru_cache(maxsize=65536)
def _canonical_cached(word: Word) -> Word:
    view = _least_views(_back_distances(word))[0]
    if view < len(word):
        return rank_word(word[view:] + word[:view])
    s = view - 2 * len(word)
    r = word[::-1]
    return rank_word(r[s:] + r[:s])


def canonical(word: Sequence[str]) -> Word:
    """Least relabeled representative over all rotations and reversal.

    The representative is the least rank sequence (``rank_sequence``)
    over the 4n rotations of the word and of its reverse, written with
    standard labels.  Views are compared by back-distances: entry k of a
    view is d when the partner of its k-th position sits d places
    earlier in the view (d <= k), and 0 otherwise.  Where two views
    first differ, closing an earlier opened chord gives the smaller rank
    and the larger d, and an opening the largest rank and 0, so the
    least rank sequence is the view with the lexicographically greatest
    back-distances.  All 4n views start live; each step reads one entry
    per live view and keeps those that reach the maximum, until one is
    left (``_least_views``).  The orderly generator
    (``explore.enumerate_words``) carries down its recursion the starts
    whose view still ties the prefix and reads one new entry for each
    per node: a start that reads less is above the prefix for good and
    is dropped, one that reads more prunes the node (``_prefix_ties``).
    """
    w = tuple(word)
    validate_word(w)
    return _canonical_cached(w)


def fresh_label(word: Sequence[str]) -> str:
    """Smallest standard label not already used in the word."""
    used = set(word)
    rank = 0
    while label_for_rank(rank) in used:
        rank += 1
    return label_for_rank(rank)


def all_slots(word: Sequence[str]) -> range:
    """Insertion slots: before position i; the empty word has one slot."""
    return range(max(1, len(word)))


def connected_sum(first: Sequence[str], second: Sequence[str], slot: int = 0) -> Word:
    """Splice ``second`` into ``first`` at the given slot.

    Labels of ``second`` are renamed to avoid those of ``first``.  Slot i
    inserts before position i of ``first``; slots differing by the length
    of ``first`` coincide cyclically.
    """
    a = tuple(first)
    b = tuple(second)
    validate_word(a)
    validate_word(b)
    if not 0 <= slot <= len(a):
        raise ValueError(f"slot {slot} out of range for a word of length {len(a)}")
    used = set(a)
    renames: Dict[str, str] = {}
    rank = 0
    for label in letters(b):
        while label_for_rank(rank) in used:
            rank += 1
        renames[label] = label_for_rank(rank)
        rank += 1
    inserted = tuple(renames[label] for label in b)
    return a[:slot] + inserted + a[slot:]


def _partners(word: Sequence[str]) -> list:
    return [(p - d) % len(word) for p, d in enumerate(_back_distances(word))]


def _closed_blocks(w: Word) -> Iterator[Word]:
    """The prime factors of ``w`` as raw blocks, with their own labels.

    A block holds every chord 0 or 2 times exactly when the parity
    bitsets (the chords met once) of the prefixes before and after it
    agree, so the least j whose parity was seen before, at i, ends the
    first closed block ``w[i:j]``.  A closed block that wraps has a
    closed complement that does not.  The block found is prime: a closed
    block inside it would repeat a parity before j.  It is cut out and
    the pass goes on over the rest, whose prefix parities are those of
    ``w`` with the block skipped, so each position is read once and no
    call recurses.  The last block yielded is what is left when the
    word closes: the whole word when it is prime, nothing when empty.
    """
    bits: Dict[str, int] = {}
    rest: List[str] = []
    parity = 0
    parities = [parity]  # parities[k]: the chords met once in rest[:k]
    first = {parity: 0}
    for label in w:
        parity ^= bits.setdefault(label, 1 << len(bits))
        rest.append(label)
        j = len(rest)
        i = first.setdefault(parity, j)
        if i < j:
            yield tuple(rest[i:])
            for cut in parities[i + 1 :]:
                del first[cut]
            del rest[i:], parities[i + 1 :]
        else:
            parities.append(parity)


def is_prime(word: Sequence[str]) -> bool:
    """True when the word is nonempty and not a nontrivial splice."""
    w = tuple(word)
    validate_word(w)
    return next(_closed_blocks(w), None) == w


def prime_decompose(word: Sequence[str]) -> Tuple[Word, ...]:
    """Canonical prime factors, sorted by (size, word); () for the empty word."""
    w = tuple(word)
    validate_word(w)
    shapes = [_canonical_cached(rank_word(f)) for f in _closed_blocks(w)]
    return tuple(sorted(shapes, key=lambda f: (len(f), f)))


def rank_word(seq: Sequence[str]) -> Word:
    """The word relabeled with standard labels by first occurrence."""
    names: Dict[str, str] = {}
    for label in seq:
        if label not in names:
            names[label] = label_for_rank(len(names))
    return tuple([names[label] for label in seq])
