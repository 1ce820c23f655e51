"""Leading coefficients of embedding counts in weighted blow-ups.

For an m-vertex pattern H and a small weighted pattern P, the coefficient of
n^m in the injective-embedding count of H inside a blow-up of P with blob
fractions w is the weighted homomorphism sum

    sum over homomorphisms phi: H -> P of  prod_v w(phi(v)),

computed here exactly over the rationals.  Tree components are evaluated by
dynamic programming (mandatory for the large trees the counterexample
construction produces); each cyclic component is tallied once into its
homomorphism polynomial, {occupancy vector: number of homomorphisms into
P}, and evaluated from it at every weight vector.  A simplex optimizer
searches for the blob weights maximizing the coefficient: every integer
grid seed is scored exactly, the ascent from the best seed runs in floats,
and the final point is evaluated exactly over the rationals.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement, islice
from operator import add, itemgetter, sub

from . import _kernels as kernels
from .embeddings import count_blowup_embeddings, embeddings_listing
from .graphs import (BudgetExceededError, Graph, connected_components,
                     is_triangle_free)


def __getattr__(name):
    # the pool class is imported when a pool first opens; pools look it up
    # through this module, where it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    Holds the components of H in vertex order.  A tree component keeps its
    DFS order with child positions and is evaluated by bottom-up DP.  A
    cyclic component keeps its homomorphism polynomial: the occupancy
    profile of its homomorphisms into P (how many component vertices land
    on each vertex of P, with the number of homomorphisms doing so), built
    once.  It is evaluated as sum mult * prod_q w_q^occ_q over the profile,
    one path for int, float and Fraction weights; the profile has at most
    as many terms as the component has homomorphisms.  Evaluation
    performs the same arithmetic operations in the same order for every
    weight vector, so float results are reproducible bit for bit.
    """

    __slots__ = ("k", "p_nbrs", "components")

    def __init__(self, patternH: Graph, patternP: Graph):
        self.k = patternP.n
        self.p_nbrs = tuple(tuple(patternP.neighbors(q)) for q in range(patternP.n))
        components = []
        _, comps = connected_components(patternH)
        for comp in comps:
            comp_set = set(comp)
            edges_in = sum(1 for u, v in patternH.edges() if u in comp_set)
            if edges_in == len(comp) - 1:
                components.append((True, _tree_children(patternH, comp)))
            else:
                # caps of len(comp) never bind
                profile = kernels.occupancy_profile(
                    patternP.rows, (len(comp),) * self.k,
                    _cyclic_parents(patternH, comp))
                components.append((False, tuple(
                    (mult, tuple((q, o) for q, o in enumerate(occ) if o))
                    for occ, mult in profile.items())))
        self.components = tuple(components)

    def __call__(self, weights):
        if len(weights) != self.k:
            raise ValueError("one weight per pattern-P vertex required")
        total = 1
        for is_tree, structure in self.components:
            if is_tree:
                total *= self._tree_sum(structure, weights)
            else:
                total *= _polynomial_sum(structure, weights)
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


def _polynomial_sum(terms, weights):
    """sum of mult * prod_q w_q^occ_q over a homomorphism polynomial's
    terms (mult, ((q, occ_q) for each occupied q))."""
    total = 0
    for mult, factors in terms:
        for q, o in factors:
            mult = mult * weights[q] ** o
        total += mult
    return total


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


def _cyclic_parents(H: Graph, verts):
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
    count: int
    normalized: Fraction
    coefficient: Fraction
    abs_error: Fraction


def rounded_blob_sizes(weights, n: int) -> list[int]:
    """Largest-remainder rounding of w*n to integers summing to n."""
    floors = [int(w * n) for w in weights]
    remainders = [(w * n - f, -i) for i, (w, f) in enumerate(zip(weights, floors))]
    missing = n - sum(floors)
    for _, neg_i in sorted(remainders, reverse=True)[:missing]:
        floors[-neg_i] += 1
    return floors


def saturation_check(patternH: Graph, wp: WeightedPattern,
                     n: int) -> SaturationReport:
    """|count_embeddings(H, blow-up at size n) / n^m - coefficient|, exact.

    The blow-up of the skeleton at the rounded blob sizes is counted from
    the occupancy profile of H over the skeleton; it is never built, so
    the cost does not grow with n beyond the size of the integers.
    """
    coeff = leading_coefficient(patternH, wp).value
    sizes = rounded_blob_sizes(wp.weights, n)
    count = count_blowup_embeddings(patternH, wp.pattern, sizes)
    normalized = Fraction(count, n ** patternH.n) if n else Fraction(count)
    return SaturationReport(n, count, normalized, coeff,
                            abs(normalized - coeff))


def saturation_converges(patternH: Graph, wp: WeightedPattern,
                         n1: int, n2: int):
    """Fit the O(1/n) constant across two sizes and check the error shrinks.

    Returns (C, holds, report1, report2) with C = max of error*n over the
    two sizes; holds iff the error at the larger size does not exceed the
    error at the smaller one.
    """
    if not n1 < n2:
        raise ValueError("need n1 < n2")
    r1 = saturation_check(patternH, wp, n1)
    r2 = saturation_check(patternH, wp, n2)
    c = max(r1.abs_error * n1, r2.abs_error * n2)
    return c, r2.abs_error <= r1.abs_error, r1, r2


# ---------------------------------------------------------------------------
# weight optimization over the simplex
# ---------------------------------------------------------------------------

# Largest number of grid compositions C(g + k - 1, k - 1) optimize_weights
# accepts.  Measured on pure Python 3.11 (2 vCPU) at grid 50 (3.48e6
# compositions) on six-vertex skeletons (C6, P6, K1,5, and P6 plus the chord
# 0-3, with 12, 2, 120 and 2 automorphisms): seeding costs 0.5-2.0 us per
# composition, and a whole run of C4 0.9-4.2 us per composition, most where
# the fewest compositions share an orbit, so the cap keeps a run under a
# minute.  k = 8 at grid 50 (2.6e8) is refused before any work.
GRID_BUDGET = 10 ** 7

# Largest skeleton optimize_weights accepts: the grid budget alone admits
# any vertex count at a coarse grid, while the ascent scores k(k - 1) moves
# per step.  Ten vertices admit every twin-free maximal triangle-free
# skeleton up to the exact search's frontier; C4 on the Petersen graph
# runs in 0.03 s at grid 6 and 0.2 s at grid 10.
MAX_SKELETON_VERTICES = 10

# Largest automorphism group the grid seeding lists for its orbit
# reduction: 8!, that of the edgeless 8-vertex skeleton.  Measured on pure
# Python 3.11 (2 vCPU), seeding the edgeless 8-vertex skeleton at grid 12
# takes 0.7 s and 12 MB above start-up, the edgeless 9-vertex one (9!) at
# grid 6 3.3 s and 109 MB.  The listing stops at the first automorphism
# past the budget, about 0.1 s in.
AUT_BUDGET = math.factorial(8)

# The local ascent stops after MAX_ITERATIONS moves or once its step falls
# below TOLERANCE; its float optimum is snapped to denominator
# SNAP_DENOMINATOR before the exact evaluation.
MAX_ITERATIONS = 200
TOLERANCE = 1e-6
SNAP_DENOMINATOR = 10 ** 6


def automorphism_maps(g: Graph) -> list[tuple[int, ...]]:
    """All automorphisms of a small graph as image tuples.

    Raises BudgetExceededError, having listed AUT_BUDGET + 1 of them, when
    the graph has more than AUT_BUDGET."""
    auts = list(islice(embeddings_listing(g, g), AUT_BUDGET + 1))
    if len(auts) > AUT_BUDGET:
        raise BudgetExceededError(
            f"the {g.n}-vertex skeleton has more than {AUT_BUDGET} "
            f"automorphisms, over the budget for grid seeding")
    return auts


def _grid_seeds(patternP: Graph, resolution: int) -> list[tuple[int, ...]]:
    """Integer weight compositions, one representative per Aut(P) orbit, in
    ascending lexicographic order.

    A composition is kept unless some automorphism maps it to a
    lexicographically smaller tuple, so the kept one is the orbit minimum.
    An orbit minimum puts no more weight on vertex 0 than on any vertex of
    the orbit O of vertex 0, so only such compositions are built: for each
    first part a0 in turn, the rest are streamed as the gaps between
    non-decreasing cut points (stars and bars) of what is left after a0 on
    every vertex of O, then lifted by a0 on O.
    """
    k = patternP.n
    if k == 1:
        return [(resolution,)]
    auts = automorphism_maps(patternP)
    identity = tuple(range(k))
    moves = [itemgetter(*a) for a in auts if a != identity]
    orbit = {a[0] for a in auts}
    seeds = []
    for a0 in range(resolution // len(orbit) + 1):
        free = resolution - a0 * len(orbit)
        lift = tuple(a0 if j in orbit else 0 for j in range(1, k))
        lifted = any(lift)
        head, tail = (0,), (free,)
        for cuts in combinations_with_replacement(range(free + 1), k - 2):
            gaps = map(sub, cuts + tail, head + cuts)
            comp = (a0, *(map(add, gaps, lift) if lifted else gaps))
            for move in moves:
                if move(comp) < comp:
                    break
            else:
                seeds.append(comp)
    return seeds


def _eval_seed_chunk(args):
    """(-value, seed) of the chunk's largest exact value, then smallest seed.

    Seeds are scored on the integer composition itself: the sum is
    homogeneous of degree |V(H)|, so integer values order the seeds as
    their exact coefficients do."""
    plan, seeds = args
    return min((-plan(seed), seed) for seed in seeds)


def optimize_weights(patternH: Graph, patternP: Graph, grid: int = 50,
                     workers: int = 1):
    """Heuristically maximize the leading coefficient over blob weights.

    Every integer composition of `grid` into one part per vertex of P, one
    per Aut(P) orbit, is scored exactly; the seed is the largest, the
    smallest composition on a tie, so it is the exact argmax over all grid
    points for any worker count.  A local mass-transfer ascent with a
    shrinking step runs from it in floats, and the rationalized final point
    and the seed are compared exactly.  Global optimality is not claimed.
    `grid` is the seeding resolution per simplex coordinate; seeds are
    scored in up to `workers` processes.  Returns
    (WeightedPattern, LeadingCoefficient).

    Raises ValueError on a skeleton that contains a triangle (its blow-ups
    are not triangle-free) or has more than MAX_SKELETON_VERTICES vertices,
    or a grid resolution below 1, before any work.  Raises
    BudgetExceededError when the grid has more than GRID_BUDGET
    compositions, before any work, or the skeleton more than AUT_BUDGET
    automorphisms, before any seed is built or scored.
    """
    if not is_triangle_free(patternP):
        raise ValueError("blow-up skeleton contains a triangle; its blow-ups "
                         "are not triangle-free")
    if patternP.n == 0:
        raise ValueError("blow-up pattern needs at least one vertex")
    if patternP.n > MAX_SKELETON_VERTICES:
        raise ValueError(f"blow-up skeletons are capped at "
                         f"{MAX_SKELETON_VERTICES} vertices, got {patternP.n}")
    if grid < 1:
        raise ValueError(f"grid resolution must be at least 1, got {grid}")
    k = patternP.n
    points = math.comb(grid + k - 1, k - 1)
    if points > GRID_BUDGET:
        raise BudgetExceededError(
            f"grid {grid} on a {k}-vertex skeleton has {points} compositions, "
            f"over the budget of {GRID_BUDGET}; use a coarser grid")
    seeds = _grid_seeds(patternP, grid)
    plan = HomSumPlan(patternH, patternP)

    if workers > 1 and len(seeds) > 64:
        chunks = [seeds[i::workers] for i in range(workers)]
        args = [(plan, ch) for ch in chunks if ch]
        pool_class = sys.modules[__name__].ProcessPoolExecutor
        with pool_class(max_workers=len(args)) as pool:
            results = list(pool.map(_eval_seed_chunk, args))
    else:
        results = [_eval_seed_chunk((plan, seeds))]

    _, best_seed = min(results)
    weights = [a / grid for a in best_seed]
    value = float(plan(weights))
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
