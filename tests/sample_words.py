"""Shared fixed words for the test suite."""

CURL = ("a", "a")
TREFOIL = ("a", "b", "c", "a", "b", "c")
FIGURE8 = ("a", "b", "c", "d", "b", "a", "d", "c")

# Interleaved pair and the three chord chain: fine as words, but no
# sphere embedding exists for either.
NONREALIZABLE_2 = ("a", "b", "a", "b")
NONREALIZABLE_3 = ("a", "b", "c", "a", "c", "b")
NONREALIZABLE_4 = ("a", "b", "c", "d", "a", "b", "c", "d")


def torus_closure(p, q):
    """The closure of the braid (s1 ... s(p-1))^q on p strands, as a word.

    Crossing k is the k-th letter of the braid word.  The strand is followed
    from the bottom of strand 0 up through the whole braid, again and again,
    until it is back on strand 0; the closure must be one curve (p and q
    coprime).  The word has (p - 1) * q chords, labelled c0, c1, ... in
    braid order.
    """
    letters = [i for _ in range(q) for i in range(p - 1)]
    word = []
    strand = 0
    while True:
        for k, i in enumerate(letters):
            if strand in (i, i + 1):
                word.append(f"c{k}")
                strand = 2 * i + 1 - strand
        if strand == 0:
            break
    if len(word) != 2 * len(letters):
        raise ValueError(f"the closure of T({p},{q}) has more than one component")
    return tuple(word)


def chain_sum(words):
    """The connected sum of the words, each spliced into the middle of the sum so far.

    Chords are relabelled s0, s1, ... in the order the words come.
    """
    total = ()
    for word in words:
        rename = {}
        for label in word:
            rename.setdefault(label, f"s{len(total) // 2 + len(rename)}")
        middle = len(total) // 2
        total = total[:middle] + tuple(rename[label] for label in word) + total[middle:]
    return total
