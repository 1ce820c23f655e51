"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
9 vertices, once per isomorphism class, and exact maximizers of
pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration has
one growth step, called in `_pykernels`, and one closure, called through
`_kernels`.  The maximal triangle-free classes on n vertices are grown
from those on n-1 vertices, and the triangle-free classes on n vertices
are their closure under single-edge deletion.  Each level of either kind
is built at most once per process and cached.

The maximizer search scores only the maximal triangle-free classes on n
vertices.  Embedding counts never fall when an edge is added, and every
triangle-free graph lies below a maximal one on the same vertices, so
their best count is the maximum.  Every graph between a maximizer and a
maximal graph above it ties the maximum, so the closure of the tied
maximal classes, keeping only the deletions that tie, finds every
maximizer.  Only hosts that tie are canonicalized.
"""

from __future__ import annotations

from typing import NamedTuple

from . import _kernels as kernels, _pykernels
from ._pykernels import rows_from_mask
from ._pyplace import search_plan
from .embeddings import _count_planned, copies_from_counts, count_automorphisms
from .graphs import (BudgetExceededError, Graph, is_bipartite,
                     is_complete_bipartite, is_triangle_free)

ENUMERATION_BUDGET = 9

_maximal_cache: dict[int, tuple[int, ...]] = {0: (0,)}
_enum_cache: dict[int, tuple[int, ...]] = {}


def __getattr__(name):
    # no pool opens here; the name stays for perfbench/spans.py POOL_MODULES
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def canonical_form(g: Graph) -> int:
    """Canonical adjacency integer; equal forms mean isomorphic graphs."""
    return kernels.canonical_mask(list(g.rows), g.n)


def graph_from_canonical_mask(n: int, mask: int) -> Graph:
    return Graph.from_rows(rows_from_mask(n, mask))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def _check_budget(n: int) -> None:
    if n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration capped at n={ENUMERATION_BUDGET}, got n={n}")


def triangle_free_masks(n: int) -> tuple[int, ...]:
    """Ascending canonical masks of all triangle-free graphs on n vertices:
    the closure of the maximal ones under single-edge deletion."""
    _check_budget(n)
    if n not in _enum_cache:
        _enum_cache[n] = tuple(kernels.triangle_free_canonical_masks(
            n, _maximal_masks(n)))
    return _enum_cache[n]


def _maximal_masks(n: int) -> tuple[int, ...]:
    """Ascending canonical masks of the maximal triangle-free graphs on n
    vertices, from the process cache; a missing level is grown once from
    level n-1, itself taken from the cache or grown first."""
    if n not in _maximal_cache:
        _maximal_cache[n] = tuple(_pykernels.maximal_triangle_free_growth(
            n, _maximal_masks(n - 1)))
    return _maximal_cache[n]


def enumerate_triangle_free(n: int):
    """Yield every triangle-free graph on n vertices once up to isomorphism,
    in ascending canonical-mask order."""
    for mask in triangle_free_masks(n):
        yield graph_from_canonical_mask(n, mask)


class MaximizerReport(NamedTuple):
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


def find_maximizers(pattern: Graph, n: int) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed), reported in ascending canonical-mask
    order.

    The maximal triangle-free classes on n vertices are scored; their best
    count is the maximum.  The classes that tie it are closed downward:
    each witness's single-edge deletions are scored, and those that tie are
    canonicalized and become witnesses.  When every host ties (a pattern
    with no edges, or with a triangle), the witnesses are every
    triangle-free class, taken from the cached level without a closure.
    Hosts are scored in this process.
    """
    if n < 0:
        raise ValueError(f"host vertex count must be at least 0, got n={n}")
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    _check_budget(n)
    _, parents = search_plan(pattern)
    scores = _count_task(parents, n, _maximal_masks(n))
    best = max(count for _, count in scores)

    if not pattern.edge_count() or not is_triangle_free(pattern):
        found = triangle_free_masks(n)  # every host ties
    else:
        def ties(masks):
            return [mask for mask, count in _count_task(parents, n, masks)
                    if count == best]

        found = kernels.triangle_free_canonical_masks(
            n, [mask for mask, count in scores if count == best], ties)
    witnesses = tuple(graph_from_canonical_mask(n, mask) for mask in found)
    return MaximizerReport(
        n, pattern, copies_from_counts(best, count_automorphisms(pattern)),
        witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))
