"""Test-only brute-force oracles, kept independent of the production paths.

Nothing in here may call into ucenergy's generators, canonical forms, or
recurrences: counts come from labeled exhaustion with isomorphism dedup
(networkx VF2), matchings from subset enumeration or a forest DP, the
graph6 reference encoder is a literal transcription of the published format
description, the cycle energy comes from the closed-form spectrum of C_n,
the bipartite sign pattern is read straight off the coefficients, and the
unicyclic codes come from every composition of the order around the cycle,
normalised by brute-force minimum over rotations and reflections.  The
cycle of a unicyclic graph comes from leaf stripping on the edge list, and
the bracelet rule compares a word with every rotation of its reversal.
The parent of a vertex in a level sequence is found by scanning back for
the nearest vertex one level up.

Some helpers are exceptions.  ``yun_decomposition`` is Yun's square-free
decomposition on a primitive pseudo-remainder gcd (``primitive_gcd``), both
kept here because the package reads its factors off the Sturm chains'
multiplicity walk instead; it divides with ucenergy's ``poly_div_exact``.
``squarefree_part``, the radical of p that tests of the Sturm and root code
start from, multiplies its factors.  ``coulson_bracket`` and the tuple
bracket helpers expand |p(ix)|**2 term by term and only wrap the result in
an ``IntPolynomial``.  ``bisect_reference`` halves ``Fraction`` intervals
and reads signs from ``IntPolynomial.sign_at``.  ``sturm_chain_reference``
builds the chain from the pseudo-remainders and contents of this module.
``energy_reference`` is the exact energy by an earlier route: Yun factors,
each seeded by ucenergy's Jacobi seeds of its own square-free Sturm chain
and checked by ``sign_at`` at ``Fraction`` bracket ends, else isolated by
Sturm counting, and summed in ``Fraction``s.  ``search_enclose_all`` is
the search as it was before the Coulson-bracket filter.  It takes its
graphs, characteristic polynomials and enclosures from ucenergy, which
other tests check against their own oracles, and encloses every distinct
spectrum, so it shares no code with the filter it is compared against.
``search_from_graphs`` is the search as it was before phi was read from the
bracelet word: a ``Graph`` per class and its ``charpoly``, fed to
ucenergy's own filter and ranking, so it differs from the search only in
the stream.  ``gaussian_of`` names each spectrum as the search does,
z = phi(iX) / i**n, by Horner's rule on the coefficients rather than by the
matching fold.
``yun_core`` is the certifier's core as it was built before the
multiplicity-level walk, from the Yun factors of this module.
"""

from __future__ import annotations

import functools
import heapq
import itertools
import math


def labeled_unicyclic_edge_sets(n: int) -> set[frozenset]:
    """All labeled connected unicyclic graphs on n vertices (edge sets).

    Every such graph is a labeled spanning tree (from its Pruefer sequence)
    plus one extra edge, so the enumeration below hits each exactly once
    after set dedup.
    """
    out: set[frozenset] = set()
    if n < 3:
        return out
    for seq in itertools.product(range(n), repeat=n - 2):
        degree = [1] * n
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(n) if degree[v] == 1]
        heapq.heapify(heap)
        tree = []
        for v in seq:
            leaf = heapq.heappop(heap)
            tree.append((min(leaf, v), max(leaf, v)))
            degree[leaf] -= 1
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        last = [v for v in range(n) if degree[v] == 1]
        tree.append((min(last), max(last)))
        tree_set = frozenset(tree)
        for extra in itertools.combinations(range(n), 2):
            if extra not in tree_set:
                out.add(tree_set | {extra})
    return out


def unicyclic_class_count_vf2(n: int) -> int:
    """Isomorphism classes by labeled exhaustion plus VF2 dedup (n <= 6)."""
    import networkx as nx

    buckets: dict[tuple, list] = {}
    for edges in labeled_unicyclic_edge_sets(n):
        g = nx.Graph(list(edges))
        g.add_nodes_from(range(n))
        key = tuple(sorted(d for _, d in g.degree()))
        bucket = buckets.setdefault(key, [])
        for rep in bucket:
            if nx.is_isomorphic(g, rep):
                break
        else:
            bucket.append(g)
    return sum(len(b) for b in buckets.values())


def automorphism_count(n: int, edges) -> int:
    """|Aut| by brute force over all vertex permutations."""
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    count = 0
    for perm in itertools.permutations(range(n)):
        if all((min(perm[u], perm[v]), max(perm[u], perm[v])) in edge_set
               for u, v in edge_set):
            count += 1
    return count


def orbit_sum_matches_labeled(n: int, representatives) -> bool:
    """Check sum over classes of n!/|Aut| against the labeled census.

    ``representatives`` is an iterable of ucenergy Graphs claimed to be one
    per isomorphism class; the orbit-counting identity holds iff they cover
    every labeled graph exactly once.
    """
    import networkx as nx

    labeled = len(labeled_unicyclic_edge_sets(n))
    reps = list(representatives)
    # candidates must be pairwise non-isomorphic for the identity to bite
    buckets: dict[tuple, list] = {}
    for g in reps:
        ng = nx.Graph(list(g.edges))
        ng.add_nodes_from(range(g.n))
        key = tuple(sorted(d for _, d in ng.degree()))
        for other in buckets.setdefault(key, []):
            if nx.is_isomorphic(ng, other):
                return False
        buckets[key].append(ng)
    total = sum(math.factorial(n) // automorphism_count(g.n, g.edges) for g in reps)
    return total == labeled


def matchings_brute(n: int, edges, k: int) -> int:
    """k-matchings by enumerating all k-subsets of the edge set."""
    count = 0
    for combo in itertools.combinations(edges, k):
        used = set()
        ok = True
        for u, v in combo:
            if u in used or v in used:
                ok = False
                break
            used.add(u)
            used.add(v)
        if ok:
            count += 1
    return count


def matching_count(g, k: int) -> int:
    """Number of k-edge matchings of a forest, by direct tree DP."""
    if k < 0:
        raise ValueError("negative matching size")
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    seen: set[int] = set()
    total = [1]
    trees = 0
    for root in range(g.n):
        if root not in seen:
            trees += 1
            free, matched = _matchings_rooted(adj, root, seen)
            total = _convolve(total, _add_lists(free, matched))
    if len(g.edges) != g.n - trees:
        raise ValueError("matching_count expects a forest")
    return total[k] if k < len(total) else 0


def _matchings_rooted(adj, v: int, seen: set) -> tuple[list[int], list[int]]:
    """Counts by matching size: (root unmatched, root matched to a child)."""
    seen.add(v)
    free = [1]
    matched = [0]
    for w in adj[v]:
        if w in seen:
            continue
        w_free, w_matched = _matchings_rooted(adj, w, seen)
        w_any = _add_lists(w_free, w_matched)
        new_free = _convolve(free, w_any)
        # either v was already matched deeper in, or v matches w now
        new_matched = _add_lists(
            _convolve(matched, w_any),
            [0] + _convolve(free, w_free),
        )
        free, matched = new_free, new_matched
    return free, matched


def _convolve(a: list[int], b: list[int]) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += x * y
    return out


def _add_lists(a: list[int], b: list[int]) -> list[int]:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    for i, c in enumerate(b):
        out[i] += c
    return out


def graph6_reference(n: int, edges) -> str:
    """Throwaway graph6 encoder transcribed from the format description.

    Bit vector is the upper triangle read column-wise (x_01, x_02, x_12,
    x_03, ...), padded with zeros to a multiple of six, each sixtet emitted
    as chr(value + 63) after a single order byte chr(n + 63).
    """
    assert n <= 62
    edge_set = {(min(u, v), max(u, v)) for u, v in edges}
    bitstring = "".join(
        "1" if (i, j) in edge_set else "0"
        for j in range(1, n)
        for i in range(j)
    )
    bitstring += "0" * (-len(bitstring) % 6)
    chunks = [bitstring[i: i + 6] for i in range(0, len(bitstring), 6)]
    return chr(n + 63) + "".join(chr(int(chunk, 2) + 63) for chunk in chunks)


def rooted_tree_class_count(k: int) -> int:
    """Non-isomorphic rooted trees on k vertices by labeled brute force.

    Labeled trees come from Pruefer sequences; rooted isomorphism is decided
    by a locally computed canonical form (sorted nested child tuples).
    """
    def canon(adj, v, parent):
        return tuple(sorted(canon(adj, w, v) for w in adj[v] if w != parent))

    seen = set()
    if k == 1:
        return 1
    for seq in itertools.product(range(k), repeat=max(k - 2, 0)):
        degree = [1] * k
        for v in seq:
            degree[v] += 1
        heap = [v for v in range(k) if degree[v] == 1]
        heapq.heapify(heap)
        adj = {v: [] for v in range(k)}
        for v in seq:
            leaf = heapq.heappop(heap)
            adj[leaf].append(v)
            adj[v].append(leaf)
            degree[leaf] -= 1
            degree[v] -= 1
            if degree[v] == 1:
                heapq.heappush(heap, v)
        last = [v for v in range(k) if degree[v] == 1]
        adj[last[0]].append(last[1])
        adj[last[1]].append(last[0])
        for root in range(k):
            seen.add(canon(adj, root, None))
    return len(seen)


def cycle_energy_reference(n: int) -> float:
    """Energy of C_n from its spectrum: sum over |2 cos(2 pi j / n)|."""
    if n < 3:
        raise ValueError("cycle needs n >= 3")
    return sum(abs(2.0 * math.cos(2.0 * math.pi * j / n)) for j in range(n))


def bipartite_b_coeffs(p) -> tuple[int, ...]:
    """Alternating-sign coefficients of a bipartite characteristic polynomial.

    Interprets p as a degree-n characteristic polynomial with descending
    coefficients a_0..a_n (a_k multiplies x**(n-k)).  Requires every
    odd-index a to vanish and every (-1)**k * a_{2k} to be nonnegative;
    returns the tuple of those values.
    """
    n = p.degree
    if n < 0:
        raise ValueError("zero polynomial")
    bs = []
    for k in range(n + 1):
        a_k = p.coeffs[n - k]
        if k % 2 == 1:
            if a_k != 0:
                raise ValueError("odd coefficient a_%d = %d is nonzero" % (k, a_k))
        else:
            b = (-1) ** (k // 2) * a_k
            if b < 0:
                raise ValueError("sign pattern broken at a_%d" % k)
            bs.append(b)
    return tuple(bs)


def coulson_bracket(p):
    """|x**n p(i/x)|**2 for p of degree n, as an ``IntPolynomial``.

    Expanded term by term: |p(ix)|**2 = sum_(j,k) c_j c_k i**(j-k) x**(j+k),
    where the terms with j - k odd cancel in pairs, so the coefficient of
    x**m is the sum of c_j c_k (-1)**((j-k)/2) over j + k = m with m even.
    The bracket is that polynomial reversed at degree 2n.
    """
    from ucenergy.polynomials import IntPolynomial

    c = p.coeffs
    n = len(c) - 1
    out = [0] * (2 * n + 1)
    for j, k in itertools.product(range(n + 1), repeat=2):
        if (j - k) % 2 == 0:
            out[2 * n - j - k] += c[j] * c[k] * (-1) ** ((j - k) // 2)
    return IntPolynomial.from_coeffs(out)


def bracket_coefficients(coeffs: tuple[int, ...]) -> tuple[int, ...]:
    """The Coulson bracket of the polynomial with these coefficients, in
    x**2, padded with zeros to deg p + 1 entries."""
    from ucenergy.polynomials import IntPolynomial

    even = coulson_bracket(IntPolynomial(coeffs)).coeffs[::2]
    return even + (0,) * (len(coeffs) - len(even))


def bracket_dominates(h: tuple[int, ...], s: tuple[int, ...]) -> bool:
    """Dominance of ``bracket_coefficients`` values, entry by entry."""
    return h != s and all(a >= b for a, b in zip(h, s))


def bisect_reference(f, enc, width):
    """``refine_enclosure`` as plain ``Fraction`` bisection: halve at the
    midpoint, keep the half whose ends change sign, stop at a root or once
    the width is at most ``width``."""
    from ucenergy.roots import RootEnclosure

    lo, hi = enc.lo, enc.hi
    while hi - lo > width:
        mid = (lo + hi) / 2
        s = f.sign_at(mid)
        if s == 0:
            return RootEnclosure(mid, mid)
        if s == f.sign_at(lo):
            lo = mid
        else:
            hi = mid
    return RootEnclosure(lo, hi)


def derivative(p):
    """p' with integer coefficients."""
    from ucenergy.polynomials import IntPolynomial

    return IntPolynomial.from_coeffs([k * c for k, c in enumerate(p.coeffs)][1:])


def _primitive(p):
    """p divided by the gcd of its coefficients; the sign is kept."""
    from ucenergy.polynomials import IntPolynomial

    g = math.gcd(*p.coeffs)
    return p if g in (0, 1) else IntPolynomial(tuple(c // g for c in p.coeffs))


def _pseudo_remainder(a, b):
    """Remainder of |lc b|**(deg a - deg b + 1) * a on division by b, b
    nonzero: one scaled step per power of x from deg a down to deg b."""
    scale, sign = abs(b.leading), (1 if b.leading > 0 else -1)
    r = a
    for k in range(a.degree, b.degree - 1, -1):
        top = r.coeffs[k] if k <= r.degree else 0
        r = r * scale - (b * (sign * top)).shift_up(k - b.degree)
    return r


def primitive_gcd(p, q):
    """Primitive gcd with a positive leading coefficient, by the primitive
    pseudo-remainder sequence (Brown and Traub, J. ACM 18(4), 1971)."""
    a, b = _primitive(p), _primitive(q)
    while not b.is_zero:
        a, b = b, _primitive(_pseudo_remainder(a, b))
    return -a if not a.is_zero and a.leading < 0 else a


def yun_decomposition(p):
    """Yun's square-free decomposition: pairs (factor, multiplicity), the
    factors primitive with a positive leading coefficient, their product to
    the multiplicities equal to p up to a constant."""
    from ucenergy.polynomials import poly_div_exact

    if p.is_zero:
        raise ValueError("zero polynomial")
    if p.degree == 0:
        return []
    work = _primitive(p)
    dp = derivative(work)
    g = primitive_gcd(work, dp)
    if g.degree == 0:
        return [(work if work.leading > 0 else -work, 1)]
    # Yun's recurrence; intermediate c, d must not be rescaled or the sums
    # below would mix incompatible normalisations.
    c = poly_div_exact(work, g)
    d = poly_div_exact(dp, g) - derivative(c)
    out = []
    i = 1
    while c.degree > 0:
        f = primitive_gcd(c, d)
        if f.degree > 0:
            out.append((f, i))
        c = poly_div_exact(c, f)
        d = poly_div_exact(d, f) - derivative(c)
        i += 1
    return out


def sturm_chain_reference(p):
    """``sturm_chain`` on ``IntPolynomial``s: p, p', then the negated
    primitive pseudo-remainders until one is zero or a constant."""
    chain = [_primitive(p), _primitive(derivative(p))]
    while not chain[-1].is_zero and chain[-1].degree > 0:
        nxt = -_primitive(_pseudo_remainder(chain[-2], chain[-1]))
        if nxt.is_zero:
            break
        chain.append(nxt)
    return tuple(c for c in chain if not c.is_zero)


def energy_reference(p, tol=1e-7):
    """``energy_of_poly`` by Yun factors, then Jacobi seeds, then Sturm.

    The core's Yun factors are square-free.  Each is seeded by the
    eigenvalues of the Jacobi matrix of its own Sturm chain, and every seed
    is rounded to the bracket [m - 1, m + 1] / 2**k that ``energy_of_poly``
    would choose.  The brackets must be disjoint, each with a strict sign
    change; else the factor's roots are isolated by Sturm counting.  The
    value and radius are summed in ``Fraction``s, each enclosure weighted
    by its factor's multiplicity.
    """
    from fractions import Fraction

    from ucenergy.roots import (
        ConvergenceError,
        EnergyValue,
        _budget_bits,
        _isolate_squarefree,
        refine_enclosure,
    )

    zero_mult = p.lowest_power()
    core = p.shift_down(zero_mult)
    budget = Fraction(tol) / (2 * (p.degree + 1))
    found = []
    for factor, mult in yun_decomposition(core) if core.degree > 0 else []:
        encs = _seeded_reference(factor, _budget_bits(budget))
        if encs is None:
            encs = _isolate_squarefree(factor)
        found += [(refine_enclosure(factor, enc, budget), mult) for enc in encs]
    if zero_mult + sum(mult for _, mult in found) != p.degree:
        raise ValueError("polynomial has complex roots")
    value = sum((mult * abs(enc.lo + enc.hi) / 2 for enc, mult in found), Fraction(0))
    radius = sum((mult * enc.width for enc, mult in found), Fraction(0)) / 2
    radius += abs(Fraction(float(value)) - value)
    rounded = float(radius)
    if Fraction(rounded) < radius:
        rounded = math.nextafter(rounded, math.inf)
    if rounded > tol:
        raise ConvergenceError("radius exceeds tol after rounding to a double")
    return EnergyValue(float(value), rounded)


def _seeded_reference(f, budget_bits):
    """Checked brackets around the Jacobi seeds of square-free f, or None."""
    from fractions import Fraction

    from ucenergy.polynomials import sturm_chain
    from ucenergy.roots import RootEnclosure, _jacobi_seeds

    seeds = _jacobi_seeds(sturm_chain(f))
    if seeds is None:
        return None
    xs, err = seeds
    k_fine = -math.frexp(err)[1] - 2
    k_sep = max([0] + [3 - math.frexp(b - a)[1] for a, b in zip(xs, xs[1:])])
    k = min(max(budget_bits, k_sep), k_fine)
    if k < k_sep:
        return None
    ms = [round(math.ldexp(x, k)) for x in xs]
    if any(b - a < 2 for a, b in zip(ms, ms[1:])):
        return None
    encs = [RootEnclosure(Fraction(m - 1, 2**k), Fraction(m + 1, 2**k)) for m in ms]
    if any(f.sign_at(enc.lo) * f.sign_at(enc.hi) >= 0 for enc in encs):
        return None
    return encs


def yun_core(p, strict):
    """The core the certifier counted roots of before the multiplicity-level
    walk: the product of the Yun factors, all of them for a strict sign and
    those of odd multiplicity for a weak one."""
    from ucenergy.polynomials import ONE

    core = ONE
    for f, mult in yun_decomposition(p):
        if strict or mult % 2:
            core = core * f
    return core


def squarefree_part(p):
    """Product of the distinct irreducible factors (radical of p), primitive
    with a positive leading coefficient, from the Yun factors."""
    from ucenergy.polynomials import ONE

    result = ONE
    for f, _ in yun_decomposition(p):
        result = result * f
    if not result.is_zero and result.leading < 0:
        result = -result
    return _primitive(result)


def unique_cycle(g) -> list[int] | None:
    """The unique cycle of a connected unicyclic graph, in traversal order.

    Returns None unless g is connected with exactly n edges.  Leaf stripping
    leaves the 2-core.  With n edges, g is connected and unicyclic exactly
    when every core vertex keeps degree 2 and one walk around the core covers
    it: a tree component would leave another component with more edges than
    vertices, and its core would have a vertex of degree 3 or more.
    """
    if g.n == 0 or len(g.edges) != g.n:
        return None
    adj = [[] for _ in range(g.n)]
    for u, v in g.edges:
        adj[u].append(v)
        adj[v].append(u)
    degree = [len(nbrs) for nbrs in adj]
    queue = [v for v in range(g.n) if degree[v] == 1]
    removed = [False] * g.n
    while queue:
        v = queue.pop()
        removed[v] = True
        for w in adj[v]:
            if not removed[w]:
                degree[w] -= 1
                if degree[w] == 1:
                    queue.append(w)
    core = [v for v in range(g.n) if not removed[v]]
    if any(degree[v] != 2 for v in core):
        return None
    start = core[0]
    order = [start]
    prev = None
    while True:
        nxt = next(w for w in adj[order[-1]] if not removed[w] and w != prev)
        if nxt == start:
            break
        prev = order[-1]
        order.append(nxt)
    return order if len(order) == len(core) else None


def least_reflection_all_rotations(word) -> bool:
    """Whether a word is no larger than every rotation of its reversal.

    Builds and compares all l rotations, whatever their first letter.
    """
    rev = word[::-1]
    return all(rev[s:] + rev[:s] >= word for s in range(len(word)))


def necklace_normal_form(codes: tuple) -> tuple:
    """Lexicographically minimal rotation/reflection of the code sequence."""
    l = len(codes)
    return min(
        base[shift:] + base[:shift] for base in (codes, codes[::-1]) for shift in range(l)
    )


def level_sequence_parents(seq) -> list[int | None]:
    """Parent of each vertex of a level sequence (preorder); None at the root.

    The parent of vertex i is the nearest vertex before it one level up,
    found by scanning back from i.
    """
    parents: list[int | None] = [None]
    for i in range(1, len(seq)):
        j = i - 1
        while seq[j] != seq[i] - 1:
            j -= 1
        parents.append(j)
    return parents


def rooted_level_sequences(k: int) -> list[tuple[int, ...]]:
    """Canonical level sequences of the rooted trees on k vertices, sorted.

    Grows every tree on k - 1 vertices by one leaf in every place and
    canonicalises with a local lexicographically-maximal preorder.
    """
    def canon(children, v) -> tuple[int, ...]:
        subs = sorted((canon(children, w) for w in children[v]), reverse=True)
        return (0,) + tuple(level + 1 for sub in subs for level in sub)

    trees = {(0,)}
    for _ in range(k - 1):
        grown = set()
        for seq in trees:
            children = [[] for _ in range(len(seq) + 1)]
            path = []
            for v, depth in enumerate(seq):
                del path[depth:]
                if path:
                    children[path[-1]].append(v)
                path.append(v)
            for v in range(len(seq)):
                children[v].append(len(seq))
                grown.add(canon(children, 0))
                children[v].pop()
        trees = grown
    return sorted(trees)


def unicyclic_codes_brute(n: int) -> list[tuple[int, tuple]]:
    """Sorted (cycle length, trees) codes of the unicyclic graphs on n vertices.

    Hangs rooted trees on every composition of n around every cycle length,
    takes each assignment's necklace normal form and de-duplicates.
    """
    by_size = {k: rooted_level_sequences(k) for k in range(1, n - 1)}
    codes = set()
    for l in range(3, n + 1):
        for sizes in itertools.product(range(1, n - l + 2), repeat=l):
            if sum(sizes) == n:
                for trees in itertools.product(*(by_size[k] for k in sizes)):
                    codes.add((l, necklace_normal_form(trees)))
    return sorted(codes)


def search_enclose_all(n: int, top_k: int, tol: float = 1e-7) -> list:
    """Top-k search that encloses every distinct spectrum, ties flagged.

    Encloses every spectrum whose enclosure overlaps another's again at
    radius 1e-12, ranks and flags ties as ``max_energy_search`` does, without
    dropping any spectrum before its enclosure.
    """
    from ucenergy.polynomials import IntPolynomial
    from ucenergy.roots import energy_of_poly
    from ucenergy.search import RankedEntry

    def overlap(a, b) -> bool:
        return abs(a.value - b.value) <= a.radius + b.radius

    entries = _enclosed_entries(n, tol)
    coarse = {poly: e for _, poly, e in entries}
    energy = {
        poly: energy_of_poly(IntPolynomial(poly), 1e-12)
        if any(other != poly and overlap(e, f) for other, f in coarse.items())
        else e
        for poly, e in coarse.items()
    }
    entries = sorted(
        ((code, poly, energy[poly]) for code, poly, _ in entries),
        key=lambda e: (-e[2].value, e[1], e[0].cycle_len, e[0].trees),
    )
    out = []
    for i in range(min(top_k, len(entries))):
        code, poly, e = entries[i]
        tied = any(
            entries[j][1] == poly or overlap(e, entries[j][2])
            for j in (i - 1, i + 1)
            if 0 <= j < len(entries)
        )
        out.append(RankedEntry(i + 1, code, e, tied))
    return out


def search_from_graphs(n: int, top_k: int, tol: float = 1e-7) -> tuple:
    """``search_with_stats`` on the stream of graphs: each class realised by
    ``unicyclic_graphs``, its phi computed by ``charpoly`` and named by
    ``gaussian_of``."""
    from ucenergy import search
    from ucenergy.charpoly import charpoly
    from ucenergy.enumeration import unicyclic_graphs

    coeffs_of = {}

    def stream():
        for code, g in unicyclic_graphs(n):
            coeffs = charpoly(g).coeffs
            z = gaussian_of(coeffs)
            coeffs_of[z] = coeffs
            yield code, z

    tags_of, counts = search._undominated(stream(), top_k + 1, n)
    codes_of = {coeffs_of[z]: codes for z, codes in tags_of.items()}
    return search._rank(codes_of, counts, top_k, tol, 1)


def gaussian_of(coeffs: tuple[int, ...]) -> tuple[int, int]:
    """(Re z, Im z) for z = phi(iX) / i**n, the name the search gives the
    spectrum of phi = sum_k coeffs[k] x**k of degree n, at
    X = 2**(coefficient_bits(n) + 1): Horner's rule in Gaussian integers."""
    from ucenergy.charpoly import coefficient_bits

    n = len(coeffs) - 1
    x = 1 << (coefficient_bits(n) + 1)
    re = im = 0
    for c in reversed(coeffs):
        re, im = c - im * x, re * x  # (re + i im) * iX + c
    for _ in range(n % 4):
        re, im = im, -re  # divided by i
    return re, im


@functools.lru_cache(maxsize=None)
def _enclosed_entries(n: int, tol: float) -> tuple:
    """(code, coefficients, enclosure) of every graph; shared by every top_k."""
    from ucenergy.charpoly import charpoly
    from ucenergy.enumeration import unicyclic_graphs
    from ucenergy.polynomials import IntPolynomial
    from ucenergy.roots import energy_of_poly

    poly_of_code = {code: charpoly(g).coeffs for code, g in unicyclic_graphs(n)}
    energy = {
        coeffs: energy_of_poly(IntPolynomial(coeffs), tol)
        for coeffs in set(poly_of_code.values())
    }
    return tuple((code, coeffs, energy[coeffs]) for code, coeffs in poly_of_code.items())
