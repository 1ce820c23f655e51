"""Exact injective-embedding counting, automorphisms, H-degrees, and the
delete-and-clone symmetrization move.

All counts are exact Python integers.  A host with false twins (vertices
with equal rows) is the blow-up of its twin quotient Q, and is counted
through Q: the occupancy profile of the pattern's homomorphisms into Q is
evaluated at the class sizes, which also gives every H-degree and pair
degree by exact division, in one process.  A twin-free host is counted by
backtracking over its vertices along a static pattern-vertex order with
bit-set candidate pruning; its one-pass H-degree count optionally splits
by the host image of the first ordered vertex, and partial results are
combined by addition, so they are identical for any worker count.
"""

from __future__ import annotations

import sys
from functools import partial

from . import _kernels as kernels
from .graphs import Graph, is_triangle_free, twin_quotient


def __getattr__(name):
    # the pool class is imported when a pool first opens; pools look it up
    # through this module, where it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def search_plan(pattern: Graph):
    """Static search order and per-position earlier-neighbor lists.

    Vertices are ordered by degree descending, then by number of already
    placed neighbors, then by index; deterministic.
    """
    m = pattern.n
    remaining = list(range(m))
    placed_mask = 0
    order = []
    while remaining:
        remaining.sort(key=lambda v: (-pattern.degree(v),
                                      -(pattern.rows[v] & placed_mask).bit_count(),
                                      v))
        v = remaining.pop(0)
        order.append(v)
        placed_mask |= 1 << v
    pos = {v: i for i, v in enumerate(order)}
    parents = []
    for i, v in enumerate(order):
        parents.append(sorted(pos[u] for u in pattern.neighbors(v) if pos[u] < i))
    return order, parents


def count_embeddings(pattern: Graph, host: Graph) -> int:
    """Number of injective maps V(pattern) -> V(host) carrying every pattern
    edge to a host edge.  A pattern larger than the host yields 0."""
    if pattern.n > host.n:
        return 0
    _, parents = search_plan(pattern)
    return _count_planned(parents, host)


def _count_planned(parents, host: Graph) -> int:
    """count_embeddings for a pattern given by its search-plan parents, no
    larger than the host; lets a caller scoring many hosts plan once."""
    skeleton, sizes, _ = twin_quotient(host)
    if skeleton.n < host.n:
        profile = kernels.occupancy_profile(skeleton.rows, sizes, parents)
        return kernels.occupancy_total(profile, sizes)
    return kernels.count_injective(host.rows, host.n, parents)


def count_blowup_embeddings(pattern: Graph, skeleton: Graph, sizes) -> int:
    """count_embeddings(pattern, build_blowup(skeleton, sizes)), from the
    occupancy profile over the skeleton, without building the blow-up."""
    _, parents = search_plan(pattern)
    profile = kernels.occupancy_profile(skeleton.rows, sizes, parents)
    return kernels.occupancy_total(profile, sizes)


def _first_vertex_chunks(n_host: int, workers: int) -> list[int]:
    masks = [0] * min(workers, n_host)
    for v in range(n_host):
        masks[v % len(masks)] |= 1 << v
    return masks


def count_automorphisms(pattern: Graph) -> int:
    """Edge-preserving injections of the pattern into itself; with equal
    vertex counts these are exactly the automorphisms."""
    return count_embeddings(pattern, pattern)


def count_copies(pattern: Graph, host: Graph) -> int:
    """Subgraphs of the host isomorphic to the pattern (embeddings divided
    by automorphisms; the division is exact by construction)."""
    return copies_from_counts(count_embeddings(pattern, host),
                              count_automorphisms(pattern))


def copies_from_counts(emb: int, aut: int) -> int:
    """Copy count from an embedding count and the pattern's automorphism
    count; a remainder means a counting bug and raises RuntimeError."""
    return _exact_division(emb, aut, "embedding count", "automorphism count")


def _exact_division(num: int, den: int, num_name: str, den_name: str) -> int:
    """num // den for a division that is exact by construction; a remainder
    means a counting bug and raises RuntimeError."""
    q, r = divmod(num, den)
    if r:
        raise RuntimeError(f"{num_name} {num} not divisible by {den_name} "
                           f"{den}; this indicates a counting bug")
    return q


def embeddings_listing(pattern: Graph, host: Graph):
    """Yield every injective embedding as a tuple image[p] = host vertex.

    Intended for small instances (tests and H-degree spot checks)."""
    order, parents = search_plan(pattern)
    m = pattern.n
    if m == 0:
        yield ()
        return
    full = (1 << host.n) - 1
    sel = [0] * m

    def rec(level, used):
        cand = full & ~used
        for p in parents[level]:
            cand &= host.rows[sel[p]]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            sel[level] = v
            if level == m - 1:
                image = [0] * m
                for i, pv in enumerate(order):
                    image[pv] = sel[i]
                yield tuple(image)
            else:
                yield from rec(level + 1, used | bit)
            cand &= cand - 1

    yield from rec(0, 0)


class HDegreeReport:
    """Per-vertex H-degrees of a host, with lazy pair lookups.

    h(v) counts embeddings whose image contains v.  A host with twins gets
    the total, every h(v) and every pair value h(u, v) from the first and
    second occupancy moments over its twin quotient (one profile, no pool).
    On a twin-free host the total and every h(v) come from one backtracking
    pass, split over `workers` processes by the host image of the first
    ordered pattern vertex, and pair values from inclusion-exclusion with
    one search of the doubly-deleted host per pair.  Satisfies
    sum_v h(v) = m * total exactly (checked at construction).
    """

    def __init__(self, pattern: Graph, host: Graph, workers: int = 1):
        self.pattern = pattern
        self.host = host
        m = pattern.n
        _, parents = search_plan(pattern)
        skeleton, self._sizes, self._classes = twin_quotient(host)
        self._second = None
        if skeleton.n < host.n:
            profile = kernels.occupancy_profile(skeleton.rows, self._sizes,
                                                parents)
            total, first, self._second = kernels.occupancy_moments(
                profile, self._sizes)
            per_class = [_exact_division(f, s, "first occupancy moment",
                                         "class size")
                         for f, s in zip(first, self._sizes)]
            h = [per_class[q] for q in self._classes]
        elif workers <= 1 or m == 0 or m > host.n:
            total, h = kernels.count_h_degrees(host.rows, host.n, parents)
        else:
            chunks = _first_vertex_chunks(host.n, workers)
            count = partial(kernels.count_h_degrees, host.rows, host.n, parents)
            total, h = 0, [0] * host.n
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            with pool_class(max_workers=len(chunks)) as pool:
                for part_total, part_h in pool.map(count, chunks):
                    total += part_total
                    h = [a + b for a, b in zip(h, part_h)]
        self.total = total
        self.h = dict(enumerate(h))
        self._without_pair = {}
        if sum(h) != m * total:
            raise RuntimeError("H-degree double counting identity violated")

    def pair(self, u: int, v: int) -> int:
        """h(u, v): embeddings whose image contains both u and v."""
        if u == v:
            return self.h[u]
        if self._second is not None:
            q, r = self._classes[u], self._classes[v]
            den = self._sizes[q] * (self._sizes[r] - (q == r))
            return _exact_division(self._second[q][r], den,
                                   "second occupancy moment", "class size product")
        key = (min(u, v), max(u, v))
        if key not in self._without_pair:
            sub = _delete_vertices(self.host, key)
            self._without_pair[key] = count_embeddings(self.pattern, sub)
        return self.h[u] + self.h[v] - self.total + self._without_pair[key]

    def complement(self, u: int, v: int) -> int:
        """h(u, v-bar): embeddings containing u but not v."""
        return self.h[u] - self.pair(u, v)


def h_degrees(pattern: Graph, host: Graph, workers: int = 1) -> HDegreeReport:
    return HDegreeReport(pattern, host, workers)


def _delete_vertices(g: Graph, removed) -> Graph:
    keep = [v for v in range(g.n) if v not in removed]
    index = {v: i for i, v in enumerate(keep)}
    edges = [(index[u], index[v]) for u, v in g.edges()
             if u in index and v in index]
    return Graph(len(keep), edges)


def clone_move(host: Graph, u: int, v: int) -> Graph:
    """Delete u and add a clone of v that is not adjacent to v.

    The clone occupies u's index; its neighborhood is N(v) minus u.  The
    vertex count is unchanged and triangle-freeness is preserved (the clone
    is a non-adjacent twin of v).
    """
    if u == v:
        raise ValueError("clone_move requires distinct vertices")
    if not is_triangle_free(host):
        raise ValueError("clone_move requires a triangle-free host")
    new_rows = list(host.rows)
    clone_row = host.rows[v] & ~(1 << u)
    for w in range(host.n):
        if w == u:
            continue
        keep = new_rows[w] & ~(1 << u)
        if clone_row >> w & 1:
            keep |= 1 << u
        new_rows[w] = keep
    new_rows[u] = clone_row
    return Graph.from_rows(new_rows)
