"""Isomorphism-free generation of connected unicyclic graphs.

A connected unicyclic graph is a cycle of length l >= 3 whose vertices each
carry a rooted tree (the cycle vertex being the root).  Its isomorphism
class is the cycle length plus the bracelet of canonical rooted-tree codes
around the cycle: the sequence up to rotation and reflection.  The class is
represented by the lexicographically smallest such sequence, trees compared
as tuples.

Generation is orderly.  The alphabet is every rooted tree on 1..n-2
vertices, sorted by tuple order.  For each l the prenecklace recursion of
Fredricksen, Kessler and Maiorana (Ruskey, Savage and Wang, "Generating
necklaces", J. Algorithms 13, 1992) runs over alphabet indices with the
vertex budget carried along.  Each position takes only trees that leave at
least one vertex for every later position; the last runs over the trees with
exactly the vertices left.  A prenecklace of period p is a necklace when p
divides l, and is kept when no rotation of its reversal is smaller, which
makes it the smallest in its bracelet; as it starts with its least letter,
only the rotations tied with it there are compared.  So each class is
produced once, and none is generated and then discarded as a duplicate.

Words stream out in increasing (cycle length, trees) order, the order of the
recursion; nothing is sorted or stored.  Memory is the alphabet (trees on at
most n - 2 vertices, four ints each) plus O(n).  ``unicyclic_words`` hands
out the words themselves with the alphabet: the search reads words, and
computes phi from the alphabet's trees without building a graph.
``unicyclic_graphs`` turns each word into a ``UnicyclicCode`` and a
labelled ``Graph`` (``realize``) for the listing and the census.

Counting generates nothing.  By Polya's theorem the classes with cycle length
l number [x^n] Z(D_l; R(x), R(x^2), ...), the cycle index of the dihedral
group with R(x) the series of rooted trees by size (Polya 1937; Harary and
Palmer, "Graphical Enumeration", 1973), computed in Python ints.  The count
shares no code with the generator, so a stream of that many distinct codes,
such as the one the search reads, holds every class.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from math import gcd
from typing import Iterator

from .graphs import Graph
from .trees import rooted_tree_counts, rooted_trees


@dataclass(frozen=True)
class UnicyclicCode:
    """Canonical code: cycle length plus one rooted-tree code per position.

    Equal codes mean isomorphic graphs and vice versa; tree sizes (each tree
    includes its cycle vertex) sum to the graph order.
    """

    cycle_len: int
    trees: tuple[tuple[int, ...], ...]

    @classmethod
    def of_word(
        cls, l: int, word: list[int], alphabet: list[tuple[int, ...]]
    ) -> "UnicyclicCode":
        """The code of a word of ``unicyclic_words``: its trees in order."""
        return cls(l, tuple(alphabet[j] for j in word))

    @property
    def n(self) -> int:
        return sum(len(t) for t in self.trees)

    def __str__(self) -> str:
        parts = [
            "-".join(str(level) for level in tree) if len(tree) > 1 else "."
            for tree in self.trees
        ]
        return "U[l=%d|%s]" % (self.cycle_len, ",".join(parts))


def realize(code: UnicyclicCode) -> Graph:
    """Graph for a code: cycle vertices 0..l-1 in order, trees appended.

    Each tree's vertices get labels in preorder.  The parent of a vertex at
    depth d is the last vertex met at depth d - 1, so one label per depth
    stands for the path walked so far, as in ``charpoly.rooted_pair``.
    """
    l = code.cycle_len
    # every edge is written (smaller, larger): a tree vertex gets a label
    # above its parent's, so the edges need only sorting
    edges = [(i, i + 1) for i in range(l - 1)]
    edges.append((0, l - 1))
    nxt = l
    for i, tree in enumerate(code.trees):
        last = [i] * len(tree)  # last[d]: the latest label at depth d; the root is i
        for d in tree[1:]:
            edges.append((last[d - 1], nxt))
            last[d] = nxt
            nxt += 1
    return Graph(code.n, tuple(sorted(edges)))


class _Alphabet:
    """Rooted trees on 1..max_size vertices in tuple order, as a prefix trie.

    A prefix of a canonical level sequence is canonical (the last subtree on
    each level only shrinks), so the sorted list is a preorder walk of the
    trie of its own prefixes.  ``parent[j]`` is the index of trees[j][:-1]
    and ``after[j]`` the first index past every extension of trees[j].
    """

    def __init__(self, max_size: int):
        self.trees = sorted(t for k in range(1, max_size + 1) for t in rooted_trees(k))
        self.size = [len(t) for t in self.trees]
        self.by_size: list[list[int]] = [[] for _ in range(max_size + 1)]
        count = len(self.trees)
        self.parent = [-1] * count
        self.after = [count] * count
        path: list[int] = []
        for j, size in enumerate(self.size):
            self.by_size[size].append(j)
            while path and self.size[path[-1]] >= size:
                self.after[path.pop()] = j
            if path:
                self.parent[j] = path[-1]
            path.append(j)

    def next_fit(self, j: int, cap: int) -> int:
        """Smallest index after j whose tree has at most cap vertices."""
        size, parent = self.size, self.parent
        while size[j] > cap:
            j = parent[j]
        return j + 1 if size[j] < cap else self.after[j]


def _bracelet_words(alphabet: _Alphabet, l: int, n: int) -> Iterator[list[int]]:
    """Lexicographically smallest bracelets of length l over alphabet
    indices whose trees hold n vertices in total, in increasing order."""
    size, count, next_fit = alphabet.size, len(alphabet.size), alphabet.next_fit
    a = [0] * (l + 1)  # a[0] = 0 seeds the recursion; the word is a[1:]

    def extend(t: int, p: int, budget: int) -> Iterator[list[int]]:
        # a[1:t] is a prenecklace of period p; budget vertices remain for
        # positions t..l, at least one each
        cap = budget - (l - t)
        j, period = a[t - p], p
        if size[j] > cap:
            j, period = next_fit(j, cap), t
        while j < count:
            a[t] = j
            if t < l - 1:
                yield from extend(t + 1, period, budget - size[j])
            else:  # position l: the trees of the size left, from a[l - period] on
                low, last = a[l - period], alphabet.by_size[budget - size[j]]
                for k in last[bisect_left(last, low) :]:
                    a[l] = k
                    if (k > low or l % period == 0) and _least_reflection(a[1:]):
                        yield a[1:]
            j, period = next_fit(j, cap), t

    yield from extend(1, 1, n)


def _least_reflection(word: list[int]) -> bool:
    """Whether a necklace is no larger than any rotation of its reversal."""
    l, twice = len(word), word[::-1] * 2
    s = twice.index(word[0])  # only rotations that start with the least letter tie
    while s < l and twice[s : s + l] >= word:
        s = twice.index(word[0], s + 1)
    return s >= l


def _check_order(n: int) -> None:
    if n < 3:
        raise ValueError("unicyclic graphs need n >= 3, got %d" % n)


def unicyclic_words(
    n: int,
) -> tuple[list[tuple[int, ...]], Iterator[tuple[int, list[int]]]]:
    """The alphabet of order n and every unicyclic class of order n as a word.

    The alphabet is the list of rooted trees on 1..n-2 vertices in tuple
    order.  The words come once per class, in increasing code order, as
    (cycle length l, list of l alphabet indices round the cycle); the class
    is ``UnicyclicCode.of_word(l, word, alphabet)``.
    """
    _check_order(n)
    # largest possible pendant tree: everything outside a triangle plus root
    alphabet = _Alphabet(n - 2)
    words = (
        (l, word) for l in range(3, n + 1) for word in _bracelet_words(alphabet, l, n)
    )
    return alphabet.trees, words


def unicyclic_graphs(n: int) -> Iterator[tuple[UnicyclicCode, Graph]]:
    """Every connected unicyclic graph on n vertices, once per class.

    Codes are emitted in sorted code order (cycle length, then the tree
    sequence) as they are generated, each realised with the fixed labelling
    convention of ``realize``.
    """
    trees, words = unicyclic_words(n)
    for l, word in words:
        code = UnicyclicCode.of_word(l, word, trees)
        yield code, realize(code)


def count_unicyclic(n: int) -> int:
    """Number of unicyclic classes of order n (OEIS A001429).

    The sum over cycle lengths l = 3..n of [x^n] Z(D_l; R(x), R(x^2), ...),
    by Polya's theorem (Harary and Palmer, "Graphical Enumeration", 1973);
    no graph or code is generated.
    """
    return sum(_count_by_cycle_length(n).values())


def _count_by_cycle_length(n: int) -> dict[int, int]:
    """Unicyclic classes of order n per cycle length l, by Polya's theorem.

    A class is an orbit of the dihedral group D_l on the l rooted trees
    round the cycle, with sizes summing to n.  By Burnside's lemma, 2l times
    the number of orbits is the sum over the group of the weight each
    element fixes, which is [x^n] of
      R(x^(l/g))^g for the rotation by k, g = gcd(k, l);
      R(x) R(x^2)^((l-1)/2) for each of the l reflections when l is odd;
      R(x^2)^(l/2) and R(x)^2 R(x^2)^(l/2-1) for l/2 reflections each when
      l is even,
    with R(x) = sum r_s x^s counting rooted trees by size.  As
    [x^k] R(x^d)^m is [x^(k/d)] R(x)^m when d divides k and 0 otherwise,
    only the powers of R(x), truncated at x^n, are built, each from the last.
    """
    _check_order(n)
    r = rooted_tree_counts(n)
    powers = [[1] + [0] * n]  # R(x)^m for m = 0..n; R^m starts at x^m
    for m in range(1, n + 1):
        last = powers[-1]
        powers.append(
            [sum(last[i] * r[k - i] for i in range(m - 1, k)) for k in range(n + 1)]
        )

    def fixed(m: int, d: int, k: int) -> int:  # [x^k] R(x^d)^m
        return 0 if k % d else powers[m][k // d]

    counts = {}
    for l in range(3, n + 1):
        total = sum(fixed(g, l // g, n) for g in (gcd(k, l) for k in range(l)))
        half = l // 2
        if l % 2:
            total += l * sum(r[s] * fixed(half, 2, n - s) for s in range(1, n + 1))
        else:
            total += half * fixed(half, 2, n)
            total += half * sum(powers[2][j] * fixed(half - 1, 2, n - j) for j in range(n + 1))
        counts[l], rest = divmod(total, 2 * l)
        if rest:
            raise ArithmeticError(
                "Burnside sum %d is not a multiple of 2l = %d (n = %d)" % (total, 2 * l, n)
            )
    return counts
