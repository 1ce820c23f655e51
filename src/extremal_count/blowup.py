"""Leading coefficients of embedding counts in weighted blow-ups.

For an m-vertex pattern H and a small weighted pattern P, the coefficient of
n^m in the injective-embedding count of H inside a blow-up of P with blob
fractions w is the weighted homomorphism sum

    sum over homomorphisms phi: H -> P of  prod_v w(phi(v)),

computed here exactly over the rationals.  Tree components are evaluated by
dynamic programming (mandatory for the large trees the counterexample
construction produces); cyclic components backtrack with zero-weight
pruning.  A simplex optimizer searches for the blob weights maximizing the
coefficient: float evaluation inside the search, exact rational evaluation
of the final point.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from operator import itemgetter, sub

from .embeddings import count_embeddings, embeddings_listing
from .graphs import Graph, build_blowup, connected_components
from .oracle import BudgetExceededError


@dataclass(frozen=True)
class WeightedPattern:
    """A small pattern graph with one exact non-negative rational weight per
    vertex, summing to 1 (the blob fractions of a blow-up skeleton)."""

    pattern: Graph
    weights: tuple[Fraction, ...]

    def __post_init__(self):
        weights = tuple(Fraction(w) for w in self.weights)
        object.__setattr__(self, "weights", weights)
        if len(weights) != self.pattern.n:
            raise ValueError(f"need {self.pattern.n} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if self.pattern.n and sum(weights) != 1:
            raise ValueError("weights must sum to exactly 1")


@dataclass(frozen=True)
class LeadingCoefficient:
    """Exact weighted homomorphism sum plus the number of homomorphisms with
    a nonzero weight product."""

    value: Fraction
    hom_count: int


def weighted_hom_sum(patternH: Graph, patternP: Graph, weights):
    """sum over edge-preserving maps V(H) -> V(P) of prod_v weights[phi(v)].

    Weights may be Fractions, ints, or floats and need not be normalized
    (the sum is homogeneous of degree |V(H)|); used raw by the optimizer's
    float loop and by tests of the homogeneity property.
    """
    return HomSumPlan(patternH, patternP)(weights)


class HomSumPlan:
    """The weight-independent part of weighted_hom_sum(H, P, .), built once
    and evaluated at many weight vectors.

    Holds the components of H in vertex order, each either a tree (DFS order
    with child positions, evaluated by bottom-up DP) or a cyclic component
    (connectivity-first order with earlier-neighbor positions, evaluated by
    backtracking).  Evaluation performs the same arithmetic operations in
    the same order for every weight vector, so float results are
    reproducible bit for bit.
    """

    __slots__ = ("k", "p_rows", "p_nbrs", "components")

    def __init__(self, patternH: Graph, patternP: Graph):
        self.k = patternP.n
        self.p_rows = patternP.rows
        self.p_nbrs = tuple(tuple(patternP.neighbors(q)) for q in range(patternP.n))
        components = []
        _, comps = connected_components(patternH)
        for comp in comps:
            comp_set = set(comp)
            edges_in = sum(1 for u, v in patternH.edges() if u in comp_set)
            if edges_in == len(comp) - 1:
                components.append((True, _tree_children(patternH, comp)))
            else:
                components.append((False, _backtrack_parents(patternH, comp)))
        self.components = tuple(components)

    def __call__(self, weights):
        if len(weights) != self.k:
            raise ValueError("one weight per pattern-P vertex required")
        total = 1
        for is_tree, structure in self.components:
            if is_tree:
                total *= self._tree_sum(structure, weights)
            else:
                total *= self._backtrack_sum(structure, weights)
        return total

    def _tree_sum(self, children, weights):
        """Bottom-up DP over a tree component: O(|tree| * |P|^2) exact ops."""
        nbrs = self.p_nbrs
        qs = range(self.k)
        table = [None] * len(children)
        for i in range(len(children) - 1, -1, -1):
            vals = list(weights)
            for c in children[i]:
                fc = table[c]
                for q in qs:
                    s = 0
                    for qq in nbrs[q]:
                        s += fc[qq]
                    vals[q] = vals[q] * s
            table[i] = vals
        return sum(table[0])

    def _backtrack_sum(self, parents, weights):
        """Backtracking over a (small, cyclic) component, skipping
        zero-weight images."""
        rows = self.p_rows
        last = len(parents) - 1
        nonzero = 0
        for q, w in enumerate(weights):
            if w != 0:
                nonzero |= 1 << q
        sel = [0] * len(parents)

        def rec(i, prod):
            cand = nonzero
            for p in parents[i]:
                cand &= rows[sel[p]]
            total = 0
            while cand:
                bit = cand & -cand
                q = bit.bit_length() - 1
                cand ^= bit
                if i == last:
                    total += prod * weights[q]
                else:
                    sel[i] = q
                    total += rec(i + 1, prod * weights[q])
            return total

        return rec(0, 1)


def _tree_children(H: Graph, verts):
    """Child positions of each vertex of a tree component in DFS order from
    its smallest vertex; position 0 is the root."""
    root = verts[0]
    parent = {root: None}
    order = [root]
    stack = [root]
    while stack:
        u = stack.pop()
        for w in H.neighbors(u):
            if w not in parent:
                parent[w] = u
                order.append(w)
                stack.append(w)
    pos = {v: i for i, v in enumerate(order)}
    children = [[] for _ in order]
    for v in order[1:]:
        children[pos[parent[v]]].append(pos[v])
    return tuple(tuple(c) for c in children)


def _backtrack_parents(H: Graph, verts):
    """Earlier-neighbor positions of each vertex of a component in a
    connectivity-first order (most placed neighbors, then smallest index)."""
    order = [verts[0]]
    placed = {verts[0]}
    rest = list(verts[1:])
    while rest:
        rest.sort(key=lambda v: (-len([u for u in H.neighbors(v) if u in placed]), v))
        v = rest.pop(0)
        order.append(v)
        placed.add(v)
    pos = {v: i for i, v in enumerate(order)}
    return tuple(tuple(pos[u] for u in H.neighbors(v) if pos[u] < i)
                 for i, v in enumerate(order))


def leading_coefficient(patternH: Graph, wp: WeightedPattern) -> LeadingCoefficient:
    """The degree-m coefficient of count_embeddings(H, blow-up of P) in the
    blow-up size n, as an exact rational."""
    plan = HomSumPlan(patternH, wp.pattern)
    value = plan(wp.weights)
    contributing = plan([1 if w else 0 for w in wp.weights])
    return LeadingCoefficient(Fraction(value), int(contributing))


# ---------------------------------------------------------------------------
# finite-size saturation of the leading term
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SaturationReport:
    n: int
    feasible: bool
    count: int | None
    normalized: Fraction | None
    coefficient: Fraction
    abs_error: Fraction | None


def rounded_blob_sizes(weights, n: int) -> list[int]:
    """Largest-remainder rounding of w*n to integers summing to n."""
    floors = [int(w * n) for w in weights]
    remainders = [(w * n - f, -i) for i, (w, f) in enumerate(zip(weights, floors))]
    missing = n - sum(floors)
    for _, neg_i in sorted(remainders, reverse=True)[:missing]:
        floors[-neg_i] += 1
    return floors


# Largest estimated work n^m of one saturation count; larger instances are
# reported as infeasible instead of counted.
SATURATION_BUDGET = 10 ** 8


def saturation_check(patternH: Graph, wp: WeightedPattern,
                     n: int) -> SaturationReport:
    """|count_embeddings(H, blow-up at size n) / n^m - coefficient|, exact.

    Infeasible instances (estimated work n^m over SATURATION_BUDGET) are
    reported, not fatal.
    """
    coeff = leading_coefficient(patternH, wp).value
    if n > 0 and patternH.n > 0 and n ** patternH.n > SATURATION_BUDGET:
        return SaturationReport(n, False, None, None, coeff, None)
    sizes = rounded_blob_sizes(wp.weights, n)
    host = build_blowup(wp.pattern, sizes)
    count = count_embeddings(patternH, host)
    normalized = Fraction(count, n ** patternH.n) if n else Fraction(count)
    return SaturationReport(n, True, count, normalized, coeff,
                            abs(normalized - coeff))


def saturation_converges(patternH: Graph, wp: WeightedPattern,
                         n1: int, n2: int):
    """Fit the O(1/n) constant across two sizes and check the error shrinks.

    Returns (C, holds, report1, report2) with C = max of error*n over the
    two sizes; holds iff both counts were feasible and the error at the
    larger size does not exceed the error at the smaller one.
    """
    if not n1 < n2:
        raise ValueError("need n1 < n2")
    r1 = saturation_check(patternH, wp, n1)
    r2 = saturation_check(patternH, wp, n2)
    if not (r1.feasible and r2.feasible):
        return None, False, r1, r2
    c = max(r1.abs_error * n1, r2.abs_error * n2)
    return c, r2.abs_error <= r1.abs_error, r1, r2


# ---------------------------------------------------------------------------
# weight optimization over the simplex
# ---------------------------------------------------------------------------

# Largest number of grid compositions C(g + k - 1, k - 1) optimize_weights
# accepts.  Measured on pure Python: seeding costs 1.3-1.6 us per
# composition, and a whole run of C4 on a C6 skeleton at grid 50 (3.48e6
# compositions) about 4 us per composition, so the cap keeps a run near a
# minute.  k = 8 at grid 50 (2.6e8) is refused before any work.
GRID_BUDGET = 10 ** 7

# The local ascent stops after MAX_ITERATIONS moves or once its step falls
# below TOLERANCE; its float optimum is snapped to denominator
# SNAP_DENOMINATOR before the exact evaluation.
MAX_ITERATIONS = 200
TOLERANCE = 1e-6
SNAP_DENOMINATOR = 10 ** 6


def automorphism_maps(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of a small graph as image tuples."""
    return [image for image in embeddings_listing(g, g)]


def _grid_seeds(patternP: Graph, resolution: int) -> list[tuple[int, ...]]:
    """Integer weight compositions, one representative per Aut(P) orbit.

    Compositions are streamed in ascending lexicographic order as the gaps
    between non-decreasing cut points (stars and bars); a composition is
    kept unless some automorphism maps it to a lexicographically smaller
    tuple, so the kept one is the orbit minimum.
    """
    k = patternP.n
    identity = tuple(range(k))
    moves = [itemgetter(*a) for a in automorphism_maps(patternP) if a != identity]
    head, tail = (0,), (resolution,)
    seeds = []
    for cuts in combinations_with_replacement(range(resolution + 1), k - 1):
        comp = tuple(map(sub, cuts + tail, head + cuts))
        for move in moves:
            if move(comp) < comp:
                break
        else:
            seeds.append(comp)
    return seeds


def _eval_seed_chunk(args):
    """(-value, seed) of the chunk's largest value, then smallest seed."""
    plan, seeds, resolution = args
    return min((-float(plan([a / resolution for a in seed])), seed)
               for seed in seeds)


def optimize_weights(patternH: Graph, patternP: Graph, grid: int = 50,
                     workers: int = 1):
    """Heuristically maximize the leading coefficient over blob weights.

    Coarse grid seeding (with Aut(P) symmetry reduction) followed by local
    mass-transfer ascent with a shrinking step; floats inside the loop, one
    exact rational evaluation at the rationalized final point.  Global
    optimality is not claimed.  `grid` is the seeding resolution per simplex
    coordinate; seeds are evaluated in up to `workers` processes.  Returns
    (WeightedPattern, LeadingCoefficient).

    Raises ValueError on a grid resolution below 1 and BudgetExceededError
    when the grid has more than GRID_BUDGET compositions, before any work.
    """
    if patternP.n > 8:
        raise ValueError("blow-up patterns are capped at 8 vertices")
    if patternP.n == 0:
        raise ValueError("blow-up pattern needs at least one vertex")
    if grid < 1:
        raise ValueError(f"grid resolution must be at least 1, got {grid}")
    k = patternP.n
    points = math.comb(grid + k - 1, k - 1)
    if points > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid {grid} on a {k}-vertex skeleton has {points} compositions, "
            f"over the budget of {GRID_BUDGET}; use a coarser grid")
    plan = HomSumPlan(patternH, patternP)
    seeds = _grid_seeds(patternP, grid)

    if workers > 1 and len(seeds) > 64:
        chunks = [seeds[i::workers] for i in range(workers)]
        args = [(plan, ch, grid) for ch in chunks if ch]
        with ProcessPoolExecutor(max_workers=len(args)) as pool:
            results = list(pool.map(_eval_seed_chunk, args))
    else:
        results = [_eval_seed_chunk((plan, seeds, grid))]

    neg_value, best_seed = min(results)
    weights = [a / grid for a in best_seed]
    value = -neg_value
    step = 1.0 / grid
    iterations = 0
    while step >= TOLERANCE and iterations < MAX_ITERATIONS:
        iterations += 1
        best_move, best_move_val = None, value
        for i in range(k):
            if weights[i] <= 0:
                continue
            t = min(step, weights[i])
            for j in range(k):
                if i == j:
                    continue
                cand = list(weights)
                cand[i] -= t
                cand[j] += t
                v = float(plan(cand))
                if v > best_move_val or (v == best_move_val and best_move is not None
                                         and cand < best_move):
                    best_move_val, best_move = v, cand
        if best_move is not None and best_move_val > value:
            weights, value = best_move, best_move_val
        else:
            step /= 2

    candidates = [_snap_to_simplex(weights, SNAP_DENOMINATOR),
                  tuple(Fraction(a, grid) for a in best_seed)]
    best_exact, best_wp = None, None
    for cand in candidates:
        wp = WeightedPattern(patternP, cand)
        exact = plan(wp.weights)
        if (best_exact is None or exact > best_exact
                or (exact == best_exact and wp.weights < best_wp.weights)):
            best_exact, best_wp = exact, wp
    return best_wp, leading_coefficient(patternH, best_wp)


def _snap_to_simplex(weights, denominator: int) -> tuple[Fraction, ...]:
    snapped = [Fraction(max(0, round(w * denominator)), denominator) for w in weights]
    drift = 1 - sum(snapped)
    if drift:
        target = max(range(len(snapped)), key=lambda i: (snapped[i], -i))
        snapped[target] += drift
        if snapped[target] < 0:
            raise RuntimeError("weight snapping produced a negative coordinate")
    return tuple(snapped)
