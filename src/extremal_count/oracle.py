"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
9 vertices, once per isomorphism class, and exact maximizers of
pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration is
one vertex-growth generator on both backends; its canonical forms run on
the compiled kernel when built.  Each class on n vertices is kept only by
its canonical parent on n-1 vertices, so a level grown in parallel from
chunks of its parents holds every class exactly once.  Each level is
enumerated at most once per process and cached.
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
    """Level n from the process cache.  A missing level is grown once: with
    workers > 1, level n-1 is dealt round-robin into one chunk per worker
    and one pool task grows each chunk's children.  Each class has one
    canonical parent, so the chunks' outputs are disjoint; a host returned
    by two tasks is a failed self-check."""
    if n in _enum_cache:
        return _enum_cache[n]
    parents = _masks(n - 1) if workers > 1 and n > 1 else ()
    chunks = [c for c in (parents[i::workers] for i in range(workers)) if c]
    if len(chunks) > 1:
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=len(chunks)) as pool:
            level = sorted(chain.from_iterable(pool.map(
                partial(kernels.triangle_free_canonical_masks, n), chunks)))
        for mask, nxt in zip(level, level[1:]):
            if mask == nxt:
                raise RuntimeError(f"host {mask} returned by two pool tasks")
    else:
        level = kernels.triangle_free_canonical_masks(n)
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
    """(mask, embedding count) for each n-vertex host mask, for the pattern
    with search-plan `parents`."""
    return [(mask, _count_planned(parents, graph_from_canonical_mask(n, mask)))
            for mask in masks]


def find_maximizers(pattern: Graph, n: int, workers: int = 1) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed).

    Hosts are scored in this process.  `workers` matters only when level n
    is not cached yet: it is then grown in up to `workers` processes.
    """
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    _check_budget(n)
    _masks(n, workers)  # fills the cache that triangle_free_masks reads
    _, parents = search_plan(pattern)
    pairs = _count_task(parents, n, triangle_free_masks(n))
    best = max(emb for _, emb in pairs)
    witnesses = tuple(graph_from_canonical_mask(n, mask)
                      for mask, emb in pairs if emb == best)
    return MaximizerReport(
        n, pattern, copies_from_counts(best, count_automorphisms(pattern)),
        witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))
