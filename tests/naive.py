"""Independent brute-force oracles for the test suite.

Everything here deliberately avoids the library's counting paths: embedding
counts enumerate all injective maps with no pruning, homomorphism sums walk
all |P|^|H| maps, matchings branch over vertices, and the enumeration
oracles deduplicate by their own canonical forms: the full permutation
orbit, or every relabeling that respects a degree refinement.
"""

from __future__ import annotations

import itertools
import random
from collections import Counter
from fractions import Fraction

from extremal_count.graphs import Graph, disjoint_union


def naive_count_embeddings(pattern: Graph, host: Graph) -> int:
    edges = pattern.edges()
    count = 0
    for image in itertools.permutations(range(host.n), pattern.n):
        if all(host.has_edge(image[u], image[v]) for u, v in edges):
            count += 1
    return count


def naive_h_degree(pattern: Graph, host: Graph, v: int) -> int:
    edges = pattern.edges()
    count = 0
    for image in itertools.permutations(range(host.n), pattern.n):
        if v in image and all(host.has_edge(image[a], image[b]) for a, b in edges):
            count += 1
    return count


def naive_pair_degree(pattern: Graph, host: Graph, u: int, v: int) -> int:
    edges = pattern.edges()
    count = 0
    for image in itertools.permutations(range(host.n), pattern.n):
        if (u in image and v in image
                and all(host.has_edge(image[a], image[b]) for a, b in edges)):
            count += 1
    return count


def naive_homomorphisms(patternH: Graph, patternP: Graph) -> list[tuple[int, ...]]:
    """Every map V(H) -> V(P) that sends edges to edges, in lexicographic order."""
    edges = patternH.edges()
    adjacent = {(a, b) for a in range(patternP.n) for b in range(patternP.n)
                if patternP.has_edge(a, b)}
    return [image
            for image in itertools.product(range(patternP.n), repeat=patternH.n)
            if all((image[u], image[v]) in adjacent for u, v in edges)]


def naive_hom_sum(patternH: Graph, patternP: Graph, weights, homs=None):
    """Sum over the homomorphisms H -> P of the product of the weights of
    their images; `homs` is `naive_homomorphisms(patternH, patternP)` when
    the caller has listed it already.  Images with the same multiset of
    vertices have the same product, so each product is taken once."""
    if homs is None:
        homs = naive_homomorphisms(patternH, patternP)
    total = 0
    for multiset, count in Counter(tuple(sorted(image)) for image in homs).items():
        prod = count
        for q in multiset:
            prod *= weights[q]
        total += prod
    return total


def naive_max_matching_size(g: Graph) -> int:
    def rec(v: int, used: int) -> int:
        while v < g.n and (used >> v & 1 or not g.rows[v]):
            v += 1
        if v >= g.n:
            return 0
        best = rec(v + 1, used)  # leave v unmatched
        cand = g.rows[v] & ~used
        while cand:
            bit = cand & -cand
            w = bit.bit_length() - 1
            best = max(best, 1 + rec(v + 1, used | bit | 1 << v))
            cand &= cand - 1
        return best

    return rec(0, 0)


def naive_matchings_covering(g: Graph, vertex: int, size: int) -> bool:
    """Does some matching of the given size cover the vertex?"""
    edges = g.edges()
    for subset in itertools.combinations(edges, size):
        seen = set()
        ok = True
        for u, v in subset:
            if u in seen or v in seen:
                ok = False
                break
            seen.add(u)
            seen.add(v)
        if ok and vertex in seen:
            return True
    return False


def perm_canonical_mask(rows, n: int) -> int:
    """Minimal staircase mask by checking every permutation (no pruning)."""
    E = n * (n - 1) // 2
    best = None
    for perm in itertools.permutations(range(n)):
        mask = 0
        k = 0
        for j in range(1, n):
            for i in range(j):
                bit = rows[perm[i]] >> perm[j] & 1
                mask |= bit << (E - 1 - k)
                k += 1
        if best is None or mask < best:
            best = mask
    return best or 0


def naive_automorphisms(patternP: Graph) -> list[tuple[int, ...]]:
    """Every permutation of V(P) that maps edges to edges."""
    edges = patternP.edges()
    return [perm for perm in itertools.permutations(range(patternP.n))
            if all(patternP.has_edge(perm[u], perm[v]) for u, v in edges)]


def naive_compositions(k: int, resolution: int) -> list[tuple[int, ...]]:
    """Integer compositions of the resolution into k parts, in ascending
    lexicographic order."""
    return [comp for comp in itertools.product(range(resolution + 1), repeat=k)
            if sum(comp) == resolution]


def naive_grid_seeds(patternP: Graph, resolution: int) -> list[tuple[int, ...]]:
    """Integer compositions of the resolution into |V(P)| parts, in
    ascending lexicographic order, kept when minimal over the orbit under
    automorphisms found by trying every permutation of V(P)."""
    k = patternP.n
    auts = naive_automorphisms(patternP)
    return [comp for comp in naive_compositions(k, resolution)
            if comp == min(tuple(comp[a[i]] for i in range(k)) for a in auts)]


def naive_chain_candidates(patternP: Graph, resolution: int) -> list[tuple[int, ...]]:
    """Integer compositions of the resolution into |V(P)| parts, in
    ascending lexicographic order, that put no more weight on vertex i than
    on a(i) for every automorphism a fixing vertices 0..i-1 (the bounds of
    the stabiliser chain that every orbit minimum meets)."""
    k = patternP.n
    auts = naive_automorphisms(patternP)
    bounds = {(i, a[i]) for a in auts for i in range(k)
              if all(a[j] == j for j in range(i))}
    return [comp for comp in naive_compositions(k, resolution)
            if all(comp[i] <= comp[j] for i, j in bounds)]


def naive_triangle_free_classes(n: int) -> set[int]:
    """Canonical masks of all triangle-free graphs on n vertices by walking
    every edge mask and deduplicating over the permutation orbit."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    out = set()
    for mask in range(1 << len(pairs)):
        rows = [0] * n
        for k, (i, j) in enumerate(pairs):
            if mask >> k & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
        if any(rows[i] & rows[j] for i, j in pairs if rows[i] >> j & 1):
            continue
        out.add(perm_canonical_mask(rows, n))
    return out


def naive_canonical_mask(rows, n: int) -> int:
    """A canonical form, not the library's: the minimal staircase mask over
    every relabeling that lists the vertices by ascending (degree, sorted
    neighbour degrees).  That order is invariant under isomorphism, so
    isomorphic graphs get equal masks."""
    degree = [r.bit_count() for r in rows]
    invariant = [(degree[v], tuple(sorted(degree[u] for u in range(n) if rows[v] >> u & 1)))
                 for v in range(n)]
    cells = {}
    for v in sorted(range(n), key=invariant.__getitem__):
        cells.setdefault(invariant[v], []).append(v)
    best = None
    for parts in itertools.product(*(itertools.permutations(c) for c in cells.values())):
        order = [v for part in parts for v in part]
        mask = 0
        for j in range(1, n):
            for i in range(j):
                mask = mask << 1 | rows[order[i]] >> order[j] & 1
        if best is None or mask < best:
            best = mask
    return best or 0


def naive_triangle_free_levels(n: int) -> list[set[int]]:
    """The triangle-free classes on 0..n vertices as sets of
    `naive_canonical_mask`s.  Every class on k vertices grows by a vertex
    joined to each of its independent sets, with no pruning, and the
    children are deduplicated by `naive_canonical_mask`."""
    levels = [{0}]
    reps = [[]]
    for k in range(n):
        children = {}
        for rows in reps:
            for s in range(1 << k):
                if any(s >> v & 1 and s & rows[v] for v in range(k)):
                    continue
                child = [r | (s >> v & 1) << k for v, r in enumerate(rows)] + [s]
                children.setdefault(naive_canonical_mask(child, k + 1), child)
        levels.append(set(children))
        reps = list(children.values())
    return levels


def naive_is_maximal_triangle_free(rows, n: int) -> bool:
    """Triangle-free, and every non-adjacent pair has a common neighbour
    (adding any edge would close a triangle)."""
    pairs = [(i, j) for j in range(n) for i in range(j)]
    return all(not rows[i] & rows[j] if rows[i] >> j & 1 else rows[i] & rows[j]
               for i, j in pairs)


# ---------------------------------------------------------------------------
# seeded random generators
# ---------------------------------------------------------------------------

def random_graph(rng: random.Random, n: int, p: float) -> Graph:
    edges = [(i, j) for i in range(n) for j in range(i + 1, n)
             if rng.random() < p]
    return Graph(n, edges)


def random_connected_bipartite(rng: random.Random, n: int) -> Graph:
    """Random connected bipartite graph: random spanning tree plus extra
    edges across its 2-coloring."""
    if n == 1:
        return Graph(1)
    parent = {0: None}
    color = {0: 0}
    edges = []
    for v in range(1, n):
        u = rng.randrange(v)
        edges.append((u, v))
        color[v] = 1 - color[u]
    for u in range(n):
        for v in range(u + 1, n):
            if color[u] != color[v] and (u, v) not in edges and rng.random() < 0.3:
                edges.append((u, v))
    return Graph(n, edges)


def random_bipartite_with_components(rng: random.Random, m: int,
                                     components: int) -> Graph:
    """Bipartite graph on m vertices with exactly the given component count
    (capped at m), randomly relabeled."""
    components = min(components, m)
    cuts = sorted(rng.sample(range(1, m), components - 1)) if components > 1 else []
    sizes = [b - a for a, b in zip([0] + cuts, cuts + [m])]
    g = None
    for s in sizes:
        comp = random_connected_bipartite(rng, s)
        g = comp if g is None else disjoint_union(g, comp)
    relabel = list(range(m))
    rng.shuffle(relabel)
    edges = [(relabel[u], relabel[v]) for u, v in g.edges()]
    return Graph(m, edges)


def random_triangle_free(rng: random.Random, n: int) -> Graph:
    """Random triangle-free graph: random edge order, greedily keep edges
    that close no triangle."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    rng.shuffle(pairs)
    rows = [0] * n
    edges = []
    for i, j in pairs:
        if rng.random() < 0.6 and not rows[i] & rows[j]:
            rows[i] |= 1 << j
            rows[j] |= 1 << i
            edges.append((i, j))
    return Graph(n, edges)


def as_fractions(values) -> tuple[Fraction, ...]:
    return tuple(Fraction(v) for v in values)


def naive_theorem2_params(lam: Fraction):
    """The counterexample parameters in Fraction arithmetic throughout: a
    scans 1/2 + j/1024 for the first largest a^(u+w) (1-a)^w above
    (1/2)^(u+2w), with lam = u/w, and c halves from (1-a)/6 until
    a^(u+w) b^w clears it too, b = 1-a-3c.  Returns (a, b, c, the two
    margins, (1/2)^(u+2w), p^w and the w-th power of 2ab^2/c^3)."""
    u, w = lam.numerator, lam.denominator
    half_pow = Fraction(1, 2) ** (u + 2 * w)
    best_a, a_margin = None, None
    for j in range(1, 512):
        a = Fraction(1, 2) + Fraction(j, 1024)
        margin = a ** (u + w) * (1 - a) ** w
        if margin > half_pow and (a_margin is None or margin > a_margin):
            best_a, a_margin = a, margin
    a, c = best_a, (1 - best_a) / 6
    for _ in range(60):
        b = 1 - a - 3 * c
        b_margin = a ** (u + w) * b ** w
        if b_margin > half_pow:
            break
        c /= 2
    ratio_w = (2 * a * b * b / c ** 3) ** w
    return a, b, c, a_margin, b_margin, half_pow, b_margin / half_pow, ratio_w
