"""Maximum matching in bipartite patterns and the matching-based hypothesis
checkers for the two counting theorems.

Only bipartite inputs are accepted: every pattern in scope is bipartite and
augmenting-path search certifies maximality directly (a Koenig cover of the
same size is verified internally after the search).
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .graphs import Graph, is_bipartite


class NotBipartiteError(ValueError):
    pass


class MatchingReport(NamedTuple):
    """A maximum matching: its size x, pairs, unmatched vertices, and the
    half-defect d defined by m - 2x = 2d when the defect is even."""

    size_x: int
    matched_pairs: tuple[tuple[int, int], ...]
    unmatched: tuple[int, ...]
    d: int | None


class HypothesisVerdict(NamedTuple):
    """satisfies_thm1: unmatched count at most sqrt(x-1)/2, checked as the
    integer comparison 4*unmatched^2 <= x-1; satisfies_gps: matching size is
    floor(m/2); lambda_ratio: 2d/x when the defect is even and x > 0."""

    satisfies_thm1: bool
    satisfies_gps: bool
    lambda_ratio: Fraction | None


def maximum_matching(pattern: Graph) -> MatchingReport:
    """Maximum matching via augmenting paths from one side of the bipartition.

    Deterministic: left vertices are processed in index order and neighbor
    scans ascend.  Raises NotBipartiteError for non-bipartite patterns.
    """
    sides = is_bipartite(pattern)
    if sides is None:
        raise NotBipartiteError("maximum_matching requires a bipartite pattern")
    left, _right = sides
    match = {v: None for v in range(pattern.n)}

    def try_augment(u, visited):
        for w in pattern.neighbors(u):
            if w in visited:
                continue
            visited.add(w)
            if match[w] is None or try_augment(match[w], visited):
                match[u] = w
                match[w] = u
                return True
        return False

    for u in left:
        if match[u] is None:
            try_augment(u, set())

    pairs = tuple((u, match[u]) for u in left if match[u] is not None)
    unmatched = tuple(v for v in range(pattern.n) if match[v] is None)
    _verify_koenig_cover(pattern, left, match, len(pairs))
    defect = pattern.n - 2 * len(pairs)
    d = defect // 2 if defect % 2 == 0 else None
    return MatchingReport(len(pairs), pairs, unmatched, d)


def _verify_koenig_cover(pattern: Graph, left, match, size: int) -> None:
    """Certify maximality: build the Koenig vertex cover from alternating
    reachability and check it covers all edges with |cover| == size."""
    left_set = set(left)
    reach = set(u for u in left if match[u] is None)
    frontier = list(reach)
    while frontier:
        u = frontier.pop()
        for w in pattern.neighbors(u):
            if w in reach:
                continue
            reach.add(w)
            mw = match[w]
            if mw is not None and mw not in reach:
                reach.add(mw)
                frontier.append(mw)
    cover = {u for u in left_set if u not in reach}
    cover |= {w for w in reach if w not in left_set}
    if len(cover) != size:
        raise RuntimeError("Koenig certificate failed: cover size mismatch")
    for u, v in pattern.edges():
        if u not in cover and v not in cover:
            raise RuntimeError(f"Koenig certificate failed: edge ({u},{v}) uncovered")


def check_theorem1_hypothesis(pattern: Graph) -> HypothesisVerdict:
    """Verdicts recomputable from the matching report alone; the square-root
    condition is evaluated as exact integer arithmetic."""
    report = maximum_matching(pattern)
    x = report.size_x
    unmatched = len(report.unmatched)
    thm1 = 4 * unmatched * unmatched <= x - 1
    gps = x == pattern.n // 2
    lam = None
    if report.d is not None and x > 0:
        lam = Fraction(2 * report.d, x)
    return HypothesisVerdict(thm1, gps, lam)

