"""Leading coefficients of embedding counts in weighted blow-ups.

For an m-vertex pattern H and a small weighted pattern P, the coefficient of
n^m in the injective-embedding count of H inside a blow-up of P with blob
fractions w is the weighted homomorphism sum

    sum over homomorphisms phi: H -> P of  prod_v w(phi(v)),

computed here exactly: rational weights are scaled to integers over one
common denominator, which the integer sum is divided by once at the end
(homogeneity of degree |V(H)|).  Tree components are evaluated by the
dynamic program of _treedp over the classes of their rooted subtrees, so
equal subtrees share one table (mandatory for the large trees the
counterexample construction produces), and each class of equal tree
components is evaluated once and raised to its multiplicity; each cyclic
component is tallied once into its homomorphism polynomial, {occupancy
vector: number of homomorphisms into P}, and evaluated from it at every
weight vector.  A
simplex optimizer searches for the blob weights maximizing the
coefficient: the integer grid compositions are scored exactly, in runs
along which the sum is a polynomial continued by forward differences, and
the ascent from the best seed runs on integer weights, each move compared
by the exact sum.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from collections import deque
from itertools import accumulate, chain, islice
from typing import Iterator, NamedTuple

from ._pyplace import embeddings_listing, occupancy_profile
from ._treedp import kind_sum
from .graphs import (BudgetExceededError, Graph, connected_components,
                     is_triangle_free)


def __getattr__(name):
    # the pool class is imported when a pool first opens; pools look it up
    # through this module, where it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


class _WeightedPatternFields(NamedTuple):
    pattern: Graph
    weights: tuple[Fraction, ...]


class WeightedPattern(_WeightedPatternFields):
    """A small pattern graph with one exact non-negative rational weight per
    vertex, summing to 1 (the blob fractions of a blow-up skeleton).

    The weights are stored as Fractions and checked whenever the record is
    made: unpickled, by _make or by _replace too."""

    __slots__ = ()

    def __new__(cls, pattern: Graph, weights):
        weights = tuple(Fraction(w) for w in weights)
        if len(weights) != pattern.n:
            raise ValueError(f"need {pattern.n} weights, got {len(weights)}")
        if any(w < 0 for w in weights):
            raise ValueError("weights must be non-negative")
        if pattern.n and sum(weights) != 1:
            raise ValueError("weights must sum to exactly 1")
        return super().__new__(cls, pattern, weights)

    @classmethod
    def _make(cls, iterable):
        return cls(*iterable)


class LeadingCoefficient(NamedTuple):
    """Exact weighted homomorphism sum plus the number of homomorphisms with
    a nonzero weight product."""

    value: Fraction
    hom_count: int


def weighted_hom_sum(patternH: Graph, patternP: Graph, weights):
    """sum over edge-preserving maps V(H) -> V(P) of prod_v weights[phi(v)].

    Weights may be Fractions, ints, or floats and need not be normalized
    (the sum is homogeneous of degree |V(H)|).
    """
    return HomSumPlan(patternH, patternP)(weights)


class HomSumPlan:
    """The weight-independent part of weighted_hom_sum(H, P, .), built once
    and evaluated at many weight vectors.

    A tree component of H is held by its subtree kinds (_tree_kinds) and
    evaluated by _treedp.kind_sum, one table per kind, repeated children
    entering as powers; equal tree components share their kinds, so each
    class is held once with its multiplicity and evaluated once, as a
    power.  A cyclic component keeps its homomorphism polynomial: the
    occupancy profile of its homomorphisms into P (how many component
    vertices land on each vertex of P, with the number of homomorphisms
    doing so), built once.  It is evaluated as sum mult * prod_q
    w_q^occ_q over the profile; the profile has at most as many terms as
    the component has homomorphisms.

    Int and float weights are used as they are.  Fraction weights (mixed
    with ints or not) are scaled to integer numerators over their least
    common denominator D, summed in plain ints, and divided once by
    D^|V(H)|, which is exact because the sum is homogeneous of degree
    |V(H)|; no Fraction is formed inside the loops.
    """

    __slots__ = ("k", "m", "p_nbrs", "trees", "cycles")

    def __init__(self, patternH: Graph, patternP: Graph):
        self.k = patternP.n
        self.m = patternH.n
        self.p_nbrs = tuple(tuple(patternP.neighbors(q)) for q in range(patternP.n))
        trees, cycles = {}, []
        _, comps = connected_components(patternH)
        for comp in comps:
            # a connected graph is a tree iff its degree sum is 2(|C| - 1)
            if sum(map(patternH.degree, comp)) == 2 * len(comp) - 2:
                kinds = _tree_kinds(patternH, comp)
                trees[kinds] = trees.get(kinds, 0) + 1
            else:
                # caps of len(comp) never bind
                profile = occupancy_profile(
                    patternP.rows, (len(comp),) * self.k,
                    _cyclic_parents(patternH, comp))
                cycles.append(tuple(
                    (mult, tuple((q, o) for q, o in enumerate(occ) if o))
                    for occ, mult in profile.items()))
        # (kinds, multiplicity) per class of tree components
        self.trees = tuple(trees.items())
        self.cycles = tuple(cycles)

    def __call__(self, weights):
        if len(weights) != self.k:
            raise ValueError("one weight per pattern-P vertex required")
        kinds = set(map(type, weights))
        if Fraction in kinds and kinds <= {int, Fraction}:
            den = math.lcm(*(w.denominator for w in weights))
            total = self._sum([w.numerator * (den // w.denominator)
                               for w in weights])
            return Fraction(total, den ** self.m)
        return self._sum(weights)

    def _sum(self, weights):
        """The sum at weights used as given, without the length check."""
        total = 1
        for kinds, count in self.trees:
            total *= kind_sum(kinds, weights, self.p_nbrs) ** count
        for terms in self.cycles:
            total *= _polynomial_sum(terms, weights)
        return total


def _polynomial_sum(terms, weights):
    """sum of mult * prod_q w_q^occ_q over a homomorphism polynomial's
    terms (mult, ((q, occ_q) for each occupied q))."""
    total = 0
    for mult, factors in terms:
        for q, o in factors:
            mult = mult * weights[q] ** o
        total += mult
    return total


def _tree_kinds(H: Graph, verts):
    """The kinds of a tree component rooted at its smallest vertex, for
    _treedp.kind_sum: the classes of its rooted subtrees, numbered from
    the leaves up, each a sorted tuple of (child kind, multiplicity)
    pairs; the root's kind is the last."""
    root = verts[0]
    parent = {root: None}
    order = [root]
    for u in order:
        for w in H.neighbors(u):
            if w not in parent:
                parent[w] = u
                order.append(w)
    children = {v: {} for v in order}
    number = {}
    for v in reversed(order):
        kind = tuple(sorted(children[v].items()))
        kind_id = number.setdefault(kind, len(number))
        if parent[v] is not None:
            siblings = children[parent[v]]
            siblings[kind_id] = siblings.get(kind_id, 0) + 1
    return tuple(number)


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

class SaturationReport(NamedTuple):
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
    from .embeddings import count_blowup_embeddings

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
# 0-3, with 12, 2, 120 and 2 automorphisms): generating the runs costs
# under 0.1 us per composition, and a whole run of C4 0.05-1.2 us per
# composition, most where the fewest compositions share an orbit, so the
# cap keeps a run under a minute.  k = 8 at grid 50 (2.6e8) is refused
# before any work.
GRID_BUDGET = 10 ** 7

# Largest skeleton optimize_weights accepts: the grid budget alone admits
# any vertex count at a coarse grid, while the ascent scores k(k - 1) moves
# per step.  Ten vertices admit every twin-free maximal triangle-free
# skeleton up to the exact search's frontier; C4 on the Petersen graph
# runs in 0.03 s at grid 6 and 0.2 s at grid 10.
MAX_SKELETON_VERTICES = 10

# Largest automorphism group the grid seeding lists for its stabiliser
# chain: 8!, that of the edgeless 8-vertex skeleton.  Measured on pure
# Python 3.11 (2 vCPU), a whole run on the edgeless 8-vertex skeleton at
# grid 12 takes 0.1 s and 5 MB above start-up, most of it listing the
# automorphisms; listing the 9! of the edgeless 9-vertex one took 3.3 s and
# 109 MB.  The listing stops at the first automorphism past the budget,
# about 0.1 s in.
AUT_BUDGET = math.factorial(8)

# With workers > 1, runs of grid compositions are scored in a process pool
# only when there are at least POOL_MIN_RUNS of them.  The pool takes them
# in chunks of RUN_CHUNK, at most m + 1 exact evaluations of 1-4 us each a
# run, enough work to outweigh a task's round trip, with at most two
# chunks per process in flight, so memory does not grow with the grid.
POOL_MIN_RUNS = 65
RUN_CHUNK = 256

# The ascent runs on integer weights summing to grid * 2^REFINE_BITS: it
# starts from the grid seed scaled by 2^REFINE_BITS with a step of
# 2^REFINE_BITS (1/grid), halves the step whenever no move strictly raises
# the exact sum, and stops when the step reaches 0.  MAX_ITERATIONS bounds
# its moves and halvings together; over 585 patterns, skeletons and grids
# the ascent took at most 50, and every result was the same with the bound
# lifted.
MAX_ITERATIONS = 200
REFINE_BITS = 20


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


def _grid_seeds(patternP: Graph, resolution: int) -> Iterator[tuple]:
    """The integer weight compositions that can be Aut(P) orbit minima, as
    runs in ascending lexicographic order, generated one at a time; P has
    at least two vertices.

    A run (prefix, lo, hi) stands for the compositions (*prefix, v, F - v)
    for lo <= v <= hi, where F is the resolution less the prefix's sum.  An
    automorphism that fixes vertices 0..i-1 leaves those parts in place,
    so an orbit minimum puts no more weight on vertex i than on any vertex
    that such an automorphism maps i to.  Only compositions meeting these
    bounds are built, part by part; that keeps every orbit minimum, and the
    others with a tie on some bound.  The weighted hom sum is Aut(P)-
    invariant and the compositions come in ascending order, so such an
    other composition meets its orbit minimum, with the same value,
    earlier: a scan that keeps only strict improvements never takes it,
    and it needs no comparison with its images.
    """
    k = patternP.n
    auts = automorphism_maps(patternP)
    # above[i]: the vertices other than i that the automorphisms fixing
    # 0..i-1 map i to, all later than i
    above, fixing = [], auts
    for i in range(k):
        above.append(tuple({a[i] for a in fixing} - {i}))
        fixing = [a for a in fixing if a[i] == i]
    last = k - 1
    # with the last part bounded below by the one before, v <= F - v
    raised = last in above[last - 1]

    def extend(prefix, free, low):
        """The runs that start with `prefix` and put `free` more weight on
        the rest, at least low[j] on vertex j."""
        i = len(prefix)
        if i == last - 1:
            hi = free - low[last]
            if raised:
                hi = min(hi, free // 2)
            if low[i] <= hi:
                yield prefix, low[i], hi
            return
        for v in range(low[i], free + 1):
            child = low[:]
            for j in above[i]:
                if child[j] < v:
                    child[j] = v
            if sum(child[i + 1:]) > free - v:
                break
            yield from extend((*prefix, v), free - v, child)

    yield from extend((), resolution, [0] * k)


def _best_seed(plan, patternP: Graph, grid: int, workers: int):
    """The smallest integer composition of `grid` with the largest exact
    value of `plan`, one part per vertex of P: the runs of _grid_seeds are
    scored as they are generated, in a pool of up to `workers` processes
    once there are POOL_MIN_RUNS of them."""
    if patternP.n == 1:
        return (grid,)
    runs = _grid_seeds(patternP, grid)
    head = tuple(islice(runs, POOL_MIN_RUNS))
    stream = chain(head, runs)
    if workers > 1 and len(head) == POOL_MIN_RUNS:
        return _pool_best_seed(plan, grid, stream, workers)[1]
    return _best_in_runs((plan, grid, stream))[1]


def _pool_best_seed(plan, grid: int, runs, workers: int):
    """_best_in_runs over a stream of runs, cut into chunks of RUN_CHUNK
    runs and scored by a pool of at most `workers` processes, no more than
    the chunks of its first round; at most two chunks per process are in
    flight at a time."""
    chunks = iter(lambda: tuple(islice(runs, RUN_CHUNK)), ())
    first = list(islice(chunks, workers))
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    with pool_class(max_workers=len(first)) as pool:
        pending = deque(pool.submit(_best_in_runs, (plan, grid, chunk))
                        for chunk in chain(first, islice(chunks, len(first))))
        best = None
        while pending:
            result = pending.popleft().result()
            if best is None or result < best:
                best = result
            for chunk in islice(chunks, 1):
                pending.append(pool.submit(_best_in_runs, (plan, grid, chunk)))
    return best


def _best_in_runs(args):
    """(-value, seed) of the largest exact value over the runs' compositions
    of `grid`, the smallest composition on a tie.

    Compositions are scored on their integer parts: the sum is homogeneous
    of degree m = |V(H)|, so integer values order them as their exact
    coefficients do.  Along a run only v varies, and the sum is a
    polynomial of degree at most m in v, so a run longer than m + 1 is
    evaluated exactly at its first m + 1 compositions and continued from
    their forward differences, m integer additions per composition."""
    plan, grid, runs = args
    m = plan.m
    best, seed = None, None
    for prefix, lo, hi in runs:
        free = grid - sum(prefix)
        length = hi - lo + 1
        values = [plan._sum((*prefix, v, free - v))
                  for v in range(lo, lo + min(length, m + 1))]
        if length > m + 1:
            # diffs[i]: the i-th forward difference at lo; the m-th is
            # constant along the run
            diffs, row = [], values
            while row:
                diffs.append(row[0])
                row = [y - x for x, y in zip(row, row[1:])]
            values = [diffs[m]] * (length - m)
            for d in reversed(diffs[:m]):
                values = list(accumulate(values, initial=d))
        top = max(values)
        if best is None or top > best:
            v = lo + values.index(top)
            best, seed = top, (*prefix, v, free - v)
    return -best, seed


def optimize_weights(patternH: Graph, patternP: Graph, grid: int = 50,
                     workers: int = 1):
    """Heuristically maximize the leading coefficient over blob weights.

    The integer compositions of `grid` into one part per vertex of P that
    can be Aut(P) orbit minima are scored exactly, run by run (see
    _grid_seeds and _best_in_runs); the seed is the largest, the smallest
    composition on a tie, so it is the exact argmax over all grid points
    for any worker count.  A local mass-transfer ascent runs from it on
    integer weights over grid * 2^REFINE_BITS: each step moves mass
    between two vertices along the best of the k(k - 1) moves that
    strictly raises the exact sum, the smallest weights on a tie, and the
    step halves when none does, until it reaches 0.  The result is never
    below the seed, and rounding plays no part in it.  Global optimality
    is not claimed.  `grid` is the seeding resolution per simplex
    coordinate; runs are scored as they are generated, in up to `workers`
    processes.  Returns (WeightedPattern, LeadingCoefficient), the weights
    over denominators dividing grid * 2^REFINE_BITS.

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
    plan = HomSumPlan(patternH, patternP)
    weights = [a << REFINE_BITS for a in _best_seed(plan, patternP, grid, workers)]
    value = plan._sum(weights)
    step = 1 << REFINE_BITS
    iterations = 0
    while step and iterations < MAX_ITERATIONS:
        iterations += 1
        best_move, best_move_val = None, value
        for i in range(k):
            if not weights[i]:
                continue
            t = min(step, weights[i])
            for j in range(k):
                if i == j:
                    continue
                cand = list(weights)
                cand[i] -= t
                cand[j] += t
                v = plan._sum(cand)
                if v > best_move_val or (v == best_move_val and best_move is not None
                                         and cand < best_move):
                    best_move_val, best_move = v, cand
        if best_move is None:
            step //= 2
        else:
            weights, value = best_move, best_move_val
    total = grid << REFINE_BITS
    wp = WeightedPattern(patternP, [Fraction(w, total) for w in weights])
    return wp, leading_coefficient(patternH, wp)
