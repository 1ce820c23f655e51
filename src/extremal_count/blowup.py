"""Blow-up weight optimization and finite-size saturation of the leading
coefficient.

The leading coefficient of embedding counts in a weighted blow-up is the
weighted homomorphism sum of `homsum`.  A simplex optimizer searches for
the blob weights maximizing it: the integer grid compositions are scored
exactly, in runs along which the sum is a polynomial continued by forward
differences, and the ascent from the best seed runs on integer weights,
each move compared by the exact sum.  The saturation check compares the
coefficient with the exact count of a finite blow-up.
"""

from __future__ import annotations

import math
import sys
from fractions import Fraction
from collections import deque
from itertools import accumulate, chain, islice
from typing import Iterator, NamedTuple

from ._pyplace import count_injective, embeddings_listing, search_plan
from .graphs import BudgetExceededError, Graph, is_triangle_free
# the benchmark's span wrappers name leading_coefficient and
# weighted_hom_sum as attributes of this module, so both are imported here
# until a change to the benchmark points them at `homsum`, as bounds._MOVED
# keeps the two old names the wrappers read there
from .homsum import (HomSumPlan, WeightedPattern, leading_coefficient,
                     weighted_hom_sum)


def __getattr__(name):
    # the pool class is imported when a pool first opens; pools look it up
    # through this module, where it can be replaced
    if name == "ProcessPoolExecutor":
        from concurrent.futures import ProcessPoolExecutor
        return ProcessPoolExecutor
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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

    The blow-up of the skeleton at the rounded blob sizes is counted by
    backtracking H over the skeleton (`_pyplace.count_injective`); it is
    never built, so the cost does not grow with n beyond the size of the
    integers.
    """
    coeff = leading_coefficient(patternH, wp).value
    sizes = rounded_blob_sizes(wp.weights, n)
    _, parents = search_plan(patternH)
    count = count_injective(wp.pattern.rows, sizes, parents)
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

# With workers > 1, the runs of grid compositions are cut into chunks of
# CHUNK_EVALUATIONS // (m + 1) runs (a run costs at most m + 1 exact
# evaluations, m = |V(H)|).  A pool opens only when a look-ahead of
# 2 * workers chunks holds two chunks for each of at least two processes:
# two processes over four chunks beat one from about 15,000 (a 7-vertex
# tree) to 25,000 (C4) evaluations into C5, in fresh processes on pure
# Python 3.11 (2 vCPU).  At most two chunks per process are in flight.
CHUNK_EVALUATIONS = 6144

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
    scored as they are generated, in this process with one worker or too
    few chunks for two processes, otherwise chunk by chunk in a pool of up
    to `workers` processes (see CHUNK_EVALUATIONS)."""
    if patternP.n == 1:
        return (grid,)
    runs = _grid_seeds(patternP, grid)
    size = CHUNK_EVALUATIONS // (plan.m + 1)
    chunks = iter(lambda: tuple(islice(runs, size)), ())
    ahead = list(islice(chunks, 2 * workers)) if workers > 1 else []
    processes = min(workers, len(ahead) // 2)
    if processes < 2:
        return _best_in_runs((plan, grid, chain(*ahead, runs)))[1]
    queue = chain(ahead, chunks)
    pool_class = sys.modules[__name__].ProcessPoolExecutor
    with pool_class(max_workers=processes) as pool:
        def submit(chunk):
            return pool.submit(_best_in_runs, (plan, grid, chunk))
        pending = deque(map(submit, islice(queue, 2 * processes)))
        best = None
        while pending:
            result = pending.popleft().result()
            if best is None or result < best:
                best = result
            pending.extend(map(submit, islice(queue, 1)))
    return best[1]


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
    coordinate; runs are scored as they are generated, in a pool of up to
    `workers` processes when they fill two chunks per process (see
    _best_seed).  Returns (WeightedPattern, LeadingCoefficient), the weights
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
