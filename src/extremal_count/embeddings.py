"""Exact injective-embedding counting, automorphisms, H-degrees, and the
delete-and-clone symmetrization move.

All counts are exact Python integers.  Every host is the blow-up of its
twin quotient Q (classes of vertices with equal rows; a twin-free host is
its own quotient, with classes of size 1).  H-degrees and pair degrees
always come from the occupancy profile of the pattern's homomorphisms into
Q, evaluated at the class sizes, by exact division.  A bare embedding
count goes through Q when Q is smaller than the host, and otherwise
backtracks over the host's vertices along a static pattern-vertex order
with bit-set candidate pruning.  Only that backtracking count has a
compiled twin, so it alone goes through the `_kernels` dispatch; the
search plan and the occupancy profile with its moments are imported from
`_pyplace`, which also holds the injective listing that `optimize` takes
a skeleton's automorphisms from without loading this module.
"""

from __future__ import annotations

from . import _kernels as kernels
from ._pyplace import (occupancy_moments, occupancy_profile,
                       occupancy_second_moment, occupancy_total, search_plan)
from .graphs import Graph, is_triangle_free, twin_quotient


def __getattr__(name):
    # no pool opens here; the name stays for perfbench/spans.py POOL_MODULES
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        profile = occupancy_profile(skeleton.rows, sizes, parents)
        return occupancy_total(profile, sizes)
    return kernels.count_injective(host.rows, host.n, parents)


def count_blowup_embeddings(pattern: Graph, skeleton: Graph, sizes) -> int:
    """count_embeddings(pattern, build_blowup(skeleton, sizes)), from the
    occupancy profile over the skeleton, without building the blow-up."""
    _, parents = search_plan(pattern)
    profile = occupancy_profile(skeleton.rows, sizes, parents)
    return occupancy_total(profile, sizes)


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


class HDegreeReport:
    """Per-vertex H-degrees of a host, with pair lookups.

    h(v) counts embeddings whose image contains v.  The total, every h(v)
    and every pair value h(u, v) come from the first and second occupancy
    moments over the host's twin quotient (one profile, in this process);
    on a twin-free host the classes have size 1 and the divisions are
    trivial.  The second moment is computed at the first pair lookup.
    Satisfies sum_v h(v) = m * total exactly (checked at construction).
    """

    def __init__(self, pattern: Graph, host: Graph):
        _, parents = search_plan(pattern)
        skeleton, self._sizes, self._classes = twin_quotient(host)
        self._profile = occupancy_profile(skeleton.rows, self._sizes, parents)
        self._second = None
        total, first = occupancy_moments(self._profile, self._sizes)
        per_class = [_exact_division(f, s, "first occupancy moment",
                                     "class size")
                     for f, s in zip(first, self._sizes)]
        h = [per_class[q] for q in self._classes]
        self.total = total
        self.h = dict(enumerate(h))
        if sum(h) != pattern.n * total:
            raise RuntimeError("H-degree double counting identity violated")

    def pair(self, u: int, v: int) -> int:
        """h(u, v): embeddings whose image contains both u and v."""
        if u == v:
            return self.h[u]
        if self._second is None:
            self._second = occupancy_second_moment(self._profile, self._sizes)
        q, r = self._classes[u], self._classes[v]
        den = self._sizes[q] * (self._sizes[r] - (q == r))
        return _exact_division(self._second[q][r], den,
                               "second occupancy moment", "class size product")

    def complement(self, u: int, v: int) -> int:
        """h(u, v-bar): embeddings containing u but not v."""
        return self.h[u] - self.pair(u, v)


def h_degrees(pattern: Graph, host: Graph) -> HDegreeReport:
    return HDegreeReport(pattern, host)


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
