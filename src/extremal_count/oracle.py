"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
9 vertices, once per isomorphism class, and exact maximizers of
pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration is
one vertex-growth generator on both backends; its canonical forms run on
the compiled kernel when built.  Each class on n vertices is kept only by
its canonical parent on n-1 vertices, so a parallel maximizer search that
splits the parents into chunks grows and scores every host exactly once.
"""

from __future__ import annotations

from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import chain

from . import _kernels as kernels
from .embeddings import count_automorphisms, copies_from_counts, count_embeddings
from .graphs import Graph, is_bipartite, is_complete_bipartite

ENUMERATION_BUDGET = 9

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


def _check_budget(n: int) -> None:
    if n > ENUMERATION_BUDGET:
        raise BudgetExceededError(
            f"enumeration capped at n={ENUMERATION_BUDGET}, got n={n}")


def triangle_free_masks(n: int) -> tuple[int, ...]:
    """Ascending canonical masks of all triangle-free graphs on n vertices."""
    _check_budget(n)
    return _masks(n)


def _masks(n: int) -> tuple[int, ...]:
    if n not in _enum_cache:
        _enum_cache[n] = tuple(kernels.triangle_free_canonical_masks(n))
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


def _count_task(args):
    pattern_rows, n, masks = args
    pattern = Graph.from_rows(pattern_rows)
    return [(mask, count_embeddings(pattern, graph_from_canonical_mask(n, mask)))
            for mask in masks]


def _grow_and_count_task(args):
    """Score the n-vertex children of one chunk of (n-1)-vertex parents."""
    pattern_rows, n, parents = args
    return _count_task(
        (pattern_rows, n, kernels.triangle_free_canonical_masks(n, parents=parents)))


def find_maximizers(pattern: Graph, n: int, workers: int = 1) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed).

    With workers > 1 level n-1 is built in this process and dealt
    round-robin into one chunk per worker; one pool task per chunk grows
    and scores that chunk's children.  Each host has one canonical parent,
    so the chunks' hosts are disjoint; a host returned by two tasks is a
    failed self-check.
    """
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    _check_budget(n)
    chunks = []
    if workers > 1 and n > 1:
        parents = _masks(n - 1)
        chunks = [c for c in (parents[i::workers] for i in range(workers)) if c]
    if len(chunks) > 1:
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            pairs = sorted(chain.from_iterable(pool.map(
                _grow_and_count_task, [(pattern.rows, n, c) for c in chunks])))
        for (mask, _), (nxt, _) in zip(pairs, pairs[1:]):
            if mask == nxt:
                raise RuntimeError(f"host {mask} returned by two pool tasks")
    else:
        pairs = _count_task((pattern.rows, n, triangle_free_masks(n)))
    best = max(emb for _, emb in pairs)
    witnesses = tuple(graph_from_canonical_mask(n, mask)
                      for mask, emb in pairs if emb == best)
    return MaximizerReport(
        n, pattern, copies_from_counts(best, count_automorphisms(pattern)),
        witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))
