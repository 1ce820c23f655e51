"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
8 vertices (9 behind an override), once per isomorphism class, and exact
maximizers of pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration is
one vertex-growth generator on both backends; its canonical forms run on
the compiled kernel when built.  With workers > 1 it is split across the
parent graphs on n-1 vertices.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _kernels as kernels
from .embeddings import count_automorphisms, count_embeddings
from .graphs import Graph, is_bipartite, is_complete_bipartite

ENUMERATION_BUDGET = 8

_enum_cache: dict[int, tuple[int, ...]] = {}


class BudgetExceededError(ValueError):
    pass


def canonical_form(g: Graph) -> int:
    """Canonical adjacency integer; equal forms mean isomorphic graphs."""
    return kernels.canonical_mask(list(g.rows), g.n)


def graph_from_canonical_mask(n: int, mask: int) -> Graph:
    return Graph.from_rows(kernels.rows_from_mask(n, mask))


def is_isomorphic(g1: Graph, g2: Graph) -> bool:
    return g1.n == g2.n and canonical_form(g1) == canonical_form(g2)


def _check_budget(n: int, allow_nine: bool) -> None:
    limit = 9 if allow_nine else ENUMERATION_BUDGET
    if n > limit:
        raise BudgetExceededError(
            f"enumeration capped at n={limit}"
            + ("" if allow_nine else " (pass allow_nine=True to raise to 9)"))
    if n == 9:
        warnings.warn("enumerating triangle-free graphs on 9 vertices; "
                      "expect a long run", stacklevel=3)


def triangle_free_masks(n: int, allow_nine: bool = False,
                        workers: int = 1) -> tuple[int, ...]:
    """Ascending canonical masks of all triangle-free graphs on n vertices.

    With workers > 1 level n-1 is built in this process, dealt round-robin
    into one chunk per worker, and each chunk's children come from one pool
    task; the union is the same on both backends and at any worker count.
    """
    _check_budget(n, allow_nine)
    return _masks(n, workers)


def _masks(n: int, workers: int = 1) -> tuple[int, ...]:
    if n in _enum_cache:
        return _enum_cache[n]
    chunks = []
    if workers > 1 and n > 1:
        parents = _masks(n - 1)
        chunks = [c for c in (parents[i::workers] for i in range(workers)) if c]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(_extend_task, [(n, c) for c in chunks]))
        masks = sorted(set().union(*parts))
    else:
        masks = kernels.triangle_free_canonical_masks(n)
    result = tuple(masks)
    _enum_cache[n] = result
    return result


def _extend_task(args):
    n, parents = args
    return kernels.triangle_free_canonical_masks(n, parents=parents)


def enumerate_triangle_free(n: int, allow_nine: bool = False, workers: int = 1):
    """Yield every triangle-free graph on n vertices once up to isomorphism,
    in ascending canonical-mask order."""
    for mask in triangle_free_masks(n, allow_nine, workers):
        yield graph_from_canonical_mask(n, mask)


@dataclass(frozen=True)
class MaximizerReport:
    n: int
    pattern: Graph
    max_count: int
    witnesses: tuple[Graph, ...]
    all_bipartite: bool
    all_complete_bipartite: bool


def _count_task(args):
    pattern_rows, n, masks = args
    pattern = Graph.from_rows(pattern_rows)
    out = []
    for mask in masks:
        host = Graph.from_rows(kernels.rows_from_mask(n, mask))
        out.append((mask, count_embeddings(pattern, host)))
    return out


def find_maximizers(pattern: Graph, n: int, allow_nine: bool = False,
                    workers: int = 1) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed)."""
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    masks = triangle_free_masks(n, allow_nine, workers)
    if workers > 1 and len(masks) >= 4 * workers:
        chunks = [masks[i::workers] for i in range(workers)]
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            parts = list(pool.map(
                _count_task, [(pattern.rows, n, ch) for ch in chunks]))
        pairs = sorted(p for part in parts for p in part)
    else:
        pairs = _count_task((pattern.rows, n, masks))
    best = max(emb for _, emb in pairs)
    witness_masks = [mask for mask, emb in pairs if emb == best]
    witnesses = tuple(graph_from_canonical_mask(n, m) for m in witness_masks)
    aut = count_automorphisms(pattern)
    max_count, rem = divmod(best, aut)
    if rem:
        raise RuntimeError("embedding count not divisible by automorphisms")
    return MaximizerReport(
        n, pattern, max_count, witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))
