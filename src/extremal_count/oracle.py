"""Exhaustive ground truth at desk scale: every triangle-free graph on up to
8 vertices (9 behind an override), once per isomorphism class, and exact
maximizers of pattern-copy counts over them.

Canonical form: the lexicographically minimal adjacency bit-string over all
vertex relabelings (staircase bit order; see _pykernels).  Enumeration is
one vertex-growth generator on both backends; its canonical forms run on
the compiled kernel when built.  A parallel maximizer search splits the
growth of the last level across the parent graphs on n-1 vertices.
"""

from __future__ import annotations

import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

from . import _kernels as kernels
from .embeddings import count_automorphisms, copies_from_counts, count_embeddings
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


def triangle_free_masks(n: int, allow_nine: bool = False) -> tuple[int, ...]:
    """Ascending canonical masks of all triangle-free graphs on n vertices."""
    _check_budget(n, allow_nine)
    return _masks(n)


def _masks(n: int) -> tuple[int, ...]:
    if n not in _enum_cache:
        _enum_cache[n] = tuple(kernels.triangle_free_canonical_masks(n))
    return _enum_cache[n]


def enumerate_triangle_free(n: int, allow_nine: bool = False):
    """Yield every triangle-free graph on n vertices once up to isomorphism,
    in ascending canonical-mask order."""
    for mask in triangle_free_masks(n, allow_nine):
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


def find_maximizers(pattern: Graph, n: int, allow_nine: bool = False,
                    workers: int = 1) -> MaximizerReport:
    """Exact maximizers of the pattern-copy count over all triangle-free
    graphs on n vertices (embeddings and copies peak together since the
    automorphism count is fixed).

    With workers > 1 level n-1 is built in this process and dealt
    round-robin into one chunk per worker; one pool task per chunk grows
    and scores that chunk's children.  A host reached from two chunks is
    scored by both, and the two counts must agree.
    """
    if pattern.n > n:
        raise ValueError("pattern must not exceed the host size")
    chunks = []
    if workers > 1 and n > 1:
        _check_budget(n, allow_nine)
        parents = _masks(n - 1)
        chunks = [c for c in (parents[i::workers] for i in range(workers)) if c]
    if len(chunks) > 1:
        counts = {}
        with ProcessPoolExecutor(max_workers=len(chunks)) as pool:
            for part in pool.map(_grow_and_count_task,
                                 [(pattern.rows, n, c) for c in chunks]):
                for mask, emb in part:
                    if counts.setdefault(mask, emb) != emb:
                        raise RuntimeError(
                            f"host {mask} scored {counts[mask]} and {emb} "
                            "embeddings in two pool tasks")
        pairs = sorted(counts.items())
    else:
        pairs = _count_task((pattern.rows, n, triangle_free_masks(n, allow_nine)))
    best = max(emb for _, emb in pairs)
    witnesses = tuple(graph_from_canonical_mask(n, mask)
                      for mask, emb in pairs if emb == best)
    return MaximizerReport(
        n, pattern, copies_from_counts(best, count_automorphisms(pattern)),
        witnesses,
        all(is_bipartite(w) is not None for w in witnesses),
        all(is_complete_bipartite(w) for w in witnesses))
