"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
9 vertices, once per isomorphism class, and exact maximizers of
pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration is
one vertex-growth generator on both backends; its canonical forms run on
the compiled kernel when built.  Each class on n vertices is kept only by
its canonical parent on n-1 vertices, so a level grown in parallel from
chunks of its parents holds every class exactly once.  Each level is
grown at most once per process, from the cached level below, and cached.

The maximizer search does not enumerate level n.  Every maximal
triangle-free graph on n vertices is a graph on n-1 vertices plus a vertex
whose neighbourhood is a maximal independent set, and embedding counts
never fall when an edge is added, so the best of these growths of level
n-1 is the maximum.  Every maximizer lies below a maximal one, and every
graph in between ties it, so single-edge deletions from the best growths
reach every maximizer.  Only the hosts that tie the maximum are
canonicalized.  When the edgeless host ties the maximum (a pattern with no
edges, or with a triangle), every class is a witness, and level n is
enumerated after all.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from functools import partial
from itertools import chain

from . import _kernels as kernels
from .embeddings import (_count_planned, copies_from_counts, count_automorphisms,
                         search_plan)
from .graphs import (BudgetExceededError, Graph, is_bipartite,
                     is_complete_bipartite)

ENUMERATION_BUDGET = 9

# A level is grown in a process pool only from this many vertices up.
# Median wall of `search c4 N --workers 2` (pure backend, 2 vCPUs) with
# level N - 1 grown serially -> in a pool: N = 7: 0.17 -> 0.21 s,
# N = 8: 0.36 -> 0.49 s, N = 9: 2.99 -> 1.97 s.
POOL_MIN_LEVEL = 8

_enum_cache: dict[int, tuple[int, ...]] = {}


def __getattr__(name):
    # the pool class is imported when a pool first opens; pools look it up
    # through this module, where it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def canonical_form(g: Graph) -> int:
    """Canonical adjacency integer; equal forms mean isomorphic graphs."""
    return kernels.canonical_mask(list(g.rows), g.n)


def graph_from_canonical_mask(n: int, mask: int) -> Graph:
    return Graph.from_rows(kernels.rows_from_mask(n, mask))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def _check_budget(n: int) -> None:
    if n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration capped at n={ENUMERATION_BUDGET}, got n={n}")


def triangle_free_masks(n: int) -> tuple[int, ...]:
    """Ascending canonical masks of all triangle-free graphs on n vertices."""
    _check_budget(n)
    return _masks(n)


def _masks(n: int, workers: int = 1) -> tuple[int, ...]:
    """Level n from the process cache.  A missing level is grown once from
    level n-1, itself taken from the cache or grown first.  From
    POOL_MIN_LEVEL vertices up and with workers > 1, level n-1 is dealt
    round-robin into one chunk per worker and one pool task grows each
    chunk's children.  Each class has one canonical parent, so the chunks'
    outputs are disjoint; a host returned by two tasks is a failed
    self-check."""
    if n in _enum_cache:
        return _enum_cache[n]
    if n == 0:
        level = [0]
    else:
        parents = _masks(n - 1, workers)
        pooled = workers if n >= POOL_MIN_LEVEL else 1
        chunks = [c for c in (parents[i::pooled] for i in range(pooled)) if c]
        if len(chunks) > 1:
            pool_class = sys.modules[__name__].ProcessPoolExecutor
            with pool_class(max_workers=len(chunks)) as pool:
                level = sorted(chain.from_iterable(pool.map(
                    partial(kernels.triangle_free_canonical_masks, n), chunks)))
            for mask, nxt in zip(level, level[1:]):
                if mask == nxt:
                    raise RuntimeError(f"host {mask} returned by two pool tasks")
        else:
            level = kernels.triangle_free_canonical_masks(n, parents)
    _enum_cache[n] = tuple(level)
    return _enum_cache[n]


def enumerate_triangle_free(n: int):
    """Yield every triangle-free graph on n vertices once up to isomorphism,
    in ascending canonical-mask order."""
    for mask in triangle_free_masks(n):
        yield graph_from_canonical_mask(n, mask)


@dataclass(frozen=True)
class MaximizerReport:
    n: int
    pattern: Graph
    max_count: int
    witnesses: tuple[Graph, ...]
    all_bipartite: bool
    all_complete_bipartite: bool


def _count_task(parents, n: int, masks) -> list[tuple[int, int]]:
    """(mask, embedding count) for each n-vertex host mask (staircase
    packed, not necessarily canonical), for the pattern with search-plan
    `parents`."""
    return [(mask, _count_planned(parents, graph_from_canonical_mask(n, mask)))
            for mask in masks]


def _growth_masks(k: int, masks):
    """Staircase masks of the (k+1)-vertex growths of the k-vertex graphs
    `masks` by a vertex joined to a maximal independent set, one per orbit
    of the parent's twin swaps.  The new vertex's column is the last block
    of k bits, its edge to vertex 0 most significant."""
    for mask in masks:
        shifted = mask << k
        for s in kernels.maximal_independent_subsets(
                kernels.rows_from_mask(k, mask), k):
            yield shifted | int(f"{s:0{k}b}"[::-1], 2)


def find_maximizers(pattern: Graph, n: int, workers: int = 1) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed), reported in ascending canonical-mask
    order.

    Level n-1 is taken from the cache (grown first if missing), and the
    edgeless host and every growth of level n-1 by a vertex joined to a
    maximal independent set are scored: these include every maximal
    triangle-free graph, so their best count is the maximum.  If the
    edgeless host ties it, so does every host (counts never fall when an
    edge is added), and the witnesses are level n itself.  Otherwise the
    best growths are canonicalized and closed downward: each witness's
    single-edge deletions are scored, and those that tie are canonicalized
    and become witnesses.  Every maximizer lies below a maximal maximizer,
    and every graph in between ties it, so the closure finds every
    witness.

    Hosts are scored in this process.  `workers` matters only when a level
    the search needs is not cached yet and has at least POOL_MIN_LEVEL
    vertices: it is then grown in up to `workers` processes.
    """
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    _check_budget(n)
    _, parents = search_plan(pattern)
    hosts = [0]  # the edgeless host, then the growths of level n-1
    if n:
        hosts.extend(_growth_masks(n - 1, _masks(n - 1, workers)))
    scores = _count_task(parents, n, hosts)
    best = max(count for _, count in scores)
    if scores[0][1] == best:
        found = set(_masks(n, workers))
    else:
        found = {_canonical(n, mask) for mask, count in scores if count == best}
        todo = list(found)
        while todo:
            mask = todo.pop()
            below = [mask ^ 1 << i for i in range(mask.bit_length()) if mask >> i & 1]
            for host, count in _count_task(parents, n, below):
                if count == best:
                    host = _canonical(n, host)
                    if host not in found:
                        found.add(host)
                        todo.append(host)
    witnesses = tuple(graph_from_canonical_mask(n, mask) for mask in sorted(found))
    return MaximizerReport(
        n, pattern, copies_from_counts(best, count_automorphisms(pattern)),
        witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))


def _canonical(n: int, mask: int) -> int:
    return kernels.canonical_mask(kernels.rows_from_mask(n, mask), n)
