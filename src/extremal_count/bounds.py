"""Executable forms of the proof inequalities: the triangle-free edge bound,
the minimum-degree coefficient chain, and the counterexample parameters.

Every certificate is exact rational arithmetic; floats appear only as
search seeds (locating the integer threshold before the exact powering
check confirms it).  The Theorem-1 chain is evaluated in plain integers:
each expression is an unreduced (numerator, denominator) pair read off its
displayed form, with a positive denominator, and every relation between
two of them is decided by cross-multiplication (by the numerators alone
over equal denominators); a reduced Fraction is formed only where a
report holds the value.  Fractional exponents never
arise: an inequality involving t^(lambda+1) with lambda = u/w is
certified by raising both positive sides to the w-th power.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass, field
from fractions import Fraction

from .graphs import (BudgetExceededError, Graph, build_theorem2_H,
                     cycle_graph, degree_stats, is_complete_bipartite,
                     is_triangle_free, path_graph)


@dataclass(frozen=True)
class CertCheck:
    """One inequality with both sides evaluated exactly."""

    name: str
    lhs: Fraction
    rhs: Fraction
    relation: str  # "==", ">", ">=", "<="
    holds: bool


_RELATIONS = {"==": operator.eq, ">": operator.gt, ">=": operator.ge,
              "<=": operator.le}


def _check(name: str, lhs, rhs, relation: str) -> CertCheck:
    lhs, rhs = Fraction(lhs), Fraction(rhs)
    return CertCheck(name, lhs, rhs, relation, _RELATIONS[relation](lhs, rhs))


# ---------------------------------------------------------------------------
# edge bound for triangle-free graphs
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EdgeBoundReport:
    edges: int
    max_degree: int
    bound: int
    holds: bool
    equality: bool
    equality_is_complete_bipartite: bool | None


def edge_bound_check(g: Graph) -> EdgeBoundReport:
    """|E| <= Delta * (n - Delta) for triangle-free g; on equality, verify
    the graph is the complete bipartite K_{Delta, n-Delta}."""
    if not is_triangle_free(g):
        raise ValueError("edge bound applies to triangle-free graphs only")
    if g.n == 0:
        return EdgeBoundReport(0, 0, 0, True, True, True)
    stats = degree_stats(g)
    delta = stats.delta_max
    bound = delta * (g.n - delta)
    edges = stats.edge_count
    equality = edges == bound
    is_cb = is_complete_bipartite(g) if equality else None
    return EdgeBoundReport(edges, delta, bound, edges <= bound, equality, is_cb)


# ---------------------------------------------------------------------------
# minimum-degree coefficient for the matching theorem
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Theorem1Coefficient:
    x: int
    d: int
    value: Fraction
    exceeds_two_fifths: bool


def thm1_coefficient(x: int, d: int) -> Theorem1Coefficient:
    """(d+x-1)^(2d+2x-2) / (2 (2d+x-1)^(2d+x-1) (x-1)^(x-1)), exact."""
    _require_x_d(x, d)
    value = _coefficient_pair(x, d)
    return Theorem1Coefficient(x, d, Fraction(*value),
                               _holds(value, _TWO_FIFTHS, ">"))


def _coefficient_pair(x: int, d: int) -> tuple[int, int]:
    """thm1_coefficient's value as its unreduced (numerator, denominator)."""
    y, e = x - 1, 2 * d + x - 1
    return (d + y) ** (2 * d + 2 * y), 2 * e ** e * y ** y


def optimal_Delta_fraction(x: int, d: int) -> Fraction:
    """The maximizer Delta/n of Delta^(2d+x-1) (n-Delta)^(x-1)."""
    den = 2 * d + 2 * x - 2
    if den == 0:
        raise ValueError("degenerate maximization for x=1, d=0")
    return Fraction(2 * d + x - 1, den)


@dataclass(frozen=True)
class ChainReport:
    x: int
    d: int
    hypothesis_ok: bool
    expressions: tuple[Fraction, ...]
    steps: tuple[CertCheck, ...]
    all_hold: bool


# The chain's steps: step i relates expression i to expression i + 1, and
# the last step relates the last expression to 2/5.
_CHAIN_STEPS = (
    ("raw equals factored", "=="),
    ("denominator relaxation", ">="),
    ("exponent split", "=="),
    ("difference of squares", "=="),
    ("Bernoulli lower bounds", ">="),
    ("defect bound substitution", ">="),
    ("numeric tail exceeds 2/5", ">"),
)
_TWO_FIFTHS = (2, 5)


def _require_x_d(x: int, d: int) -> None:
    if x < 2:
        raise ValueError("x must be at least 2")
    if d < 0:
        raise ValueError("d must be non-negative")


def _holds(lhs: tuple[int, int], rhs: tuple[int, int], relation: str) -> bool:
    """lhs relation rhs for (numerator, positive denominator) pairs, by
    cross-multiplication, or by the numerators alone over equal
    denominators."""
    if lhs[1] == rhs[1]:
        return _RELATIONS[relation](lhs[0], rhs[0])
    return _RELATIONS[relation](lhs[0] * rhs[1], rhs[0] * lhs[1])


def _chain_pairs(x: int, d: int) -> tuple[tuple[int, int], ...]:
    """The seven chain expressions as unreduced (numerator, denominator)
    pairs with positive denominators, each read off its displayed form
    with r = d/(x-1):

        (d+x-1)^(2d+2x-2) / (2 (2d+x-1)^(2d+x-1) (x-1)^(x-1))
        1/2 (1 - d/(2d+x-1))^(2d+x-1) (1+r)^(x-1)
        1/2 (1-r)^(2d+x-1) (1+r)^(x-1)
        1/2 (1-r)^(2d) ((1-r)(1+r))^(x-1)
        1/2 (1-r)^(2d) (1-r^2)^(x-1)
        1/2 (1 - 2d^2/(x-1)) (1 - d^2/(x-1))
        1/2 (14/16) (15/16)
    """
    y, e = x - 1, 2 * d + x - 1
    coefficient = _coefficient_pair(x, d)
    squares = y * y
    plus = (y + d) ** y
    tail = (y - d) ** (2 * d)
    split_den = 2 * y ** (2 * d) * squares ** y
    return (
        coefficient,
        ((e - d) ** e * plus, coefficient[1]),
        ((y - d) ** e * plus, 2 * y ** e * y ** y),
        (tail * ((y - d) * (y + d)) ** y, split_den),
        (tail * (squares - d * d) ** y, split_den),
        ((y - 2 * d * d) * (y - d * d), 2 * squares),
        (14 * 15, 2 * 16 * 16),
    )


def _step_verdicts(pairs):
    """Each chain step's name, relation and verdict over the expression
    pairs, in order, each decided when it is reached."""
    for (name, relation), lhs, rhs in zip(_CHAIN_STEPS, pairs,
                                          (*pairs[1:], _TWO_FIFTHS)):
        yield name, relation, _holds(lhs, rhs, relation)


def thm1_chain_check(x: int, d: int) -> ChainReport:
    """Evaluate the displayed chain from the raw coefficient down to 2/5 and
    verify each consecutive relation exactly.

    A violated hypothesis (16 d^2 > x-1 or d >= x-1) is reported, and the
    chain is still evaluated; steps then simply hold or fail as arithmetic
    dictates.
    """
    _require_x_d(x, d)
    hyp_ok = 16 * d * d <= x - 1 and d < x - 1
    pairs = _chain_pairs(x, d)
    values = tuple(Fraction(*pair) for pair in pairs)
    steps = tuple(
        CertCheck(name, lhs, rhs, relation, holds)
        for (name, relation, holds), lhs, rhs in zip(
            _step_verdicts(pairs), values, (*values[1:], Fraction(*_TWO_FIFTHS))))
    return ChainReport(x, d, hyp_ok, values, steps,
                       all(s.holds for s in steps))


@dataclass(frozen=True)
class SweepReport:
    x_max: int
    pairs_checked: int
    violations: tuple[tuple[int, int, str], ...]


def sweep_pairs(x_max: int):
    """All (x, d) with 2 <= x <= x_max and 16 d^2 <= x-1."""
    for x in range(2, x_max + 1):
        d = 0
        while 16 * d * d <= x - 1:
            yield x, d
            d += 1


def thm1_sweep(x_max: int = 300) -> SweepReport:
    """Exact sweep: every hypothesis pair has coefficient > 2/5 and a fully
    valid chain; violations are collected, not suppressed.  The chain's
    first expression is the coefficient itself."""
    if x_max < 2:
        raise ValueError("x_max must be at least 2")
    violations = []
    checked = 0
    for x, d in sweep_pairs(x_max):
        checked += 1
        pairs = _chain_pairs(x, d)
        if not _holds(pairs[0], _TWO_FIFTHS, ">"):
            violations.append((x, d, "coefficient"))
        bad = next((name for name, _, holds in _step_verdicts(pairs)
                    if not holds), None)
        if bad is not None:
            violations.append((x, d, f"chain step: {bad}"))
    return SweepReport(x_max, checked, tuple(violations))


# ---------------------------------------------------------------------------
# counterexample parameters (linear defect construction)
# ---------------------------------------------------------------------------

A_SCAN_DENOMINATOR = 1024
C_HALVING_DEPTH = 60

# Largest estimated size, in bits, of the exact power p_w^x_min that
# certifies x_min: the float seed of x_min times the bit length of p_w.
# Measured end to end (whole CLI command, fresh process, pure Python
# 3.11, 2 vCPU, median of 3) with the budget lifted: thm2-params /
# thm2-e2e take 0.29 / 0.65 s at lambda = 1/4 (0.34e6 bits), 1.1 / 3.0 s
# at 1/6 (1.4e6 bits), 1.9 / 6.4 s at 1/5 (2.0e6 bits) and 2.4 / 6.9 s
# at 1/8 (2.8e6 bits).  1/7 (4.3e6 bits) and 1/10 (11.6e6 bits, 17 s for
# thm2-params) are refused.  Over the budget, nothing is powered.
POWER_BUDGET = 3 * 10 ** 6


@dataclass(frozen=True)
class Theorem2Params:
    lam: Fraction = field(metadata={"json": "lambda"})
    a: Fraction
    b: Fraction
    c: Fraction
    p_float: float = field(metadata={"json": "p"})
    x_min: int
    checks: tuple[CertCheck, ...]

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _power_margin(a: Fraction, b: Fraction, lam: Fraction) -> Fraction:
    """a^(lam+1) * b compared against (1/2)^(lam+2), both raised to the
    w-th power for lam = u/w: returns a^(u+w) b^w as a Fraction."""
    u, w = lam.numerator, lam.denominator
    return a ** (u + w) * b ** w


def _half_power(lam: Fraction) -> Fraction:
    u, w = lam.numerator, lam.denominator
    return Fraction(1, 2) ** (u + 2 * w)


def solve_theorem2_params(lam) -> Theorem2Params:
    """Rational (a, c, p, x_min) realizing the counterexample constraints.

    a scans 1/2 + j/A_SCAN_DENOMINATOR keeping the exact maximizer of
    a^(lam+1)(1-a); c halves from (1-a)/6 until a^(lam+1)(1-a-3c) clears
    (1/2)^(lam+2); x_min is the least integer with p^x_min exceeding
    2a(1-a-3c)^2/c^3, certified by exact integer powering (no logarithms
    in the certificate).
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    half_pow = _half_power(lam)

    best_a, best_margin = None, None
    for j in range(1, A_SCAN_DENOMINATOR // 2):
        a = Fraction(1, 2) + Fraction(j, A_SCAN_DENOMINATOR)
        margin = _power_margin(a, 1 - a, lam)
        if margin > half_pow and (best_margin is None or margin > best_margin):
            best_a, best_margin = a, margin
    if best_a is None:
        raise RuntimeError(
            "no admissible a found; the derivative argument guarantees one "
            "at fine enough resolution")
    a = best_a

    c = (1 - a) / 6
    for _ in range(C_HALVING_DEPTH):
        b = 1 - a - 3 * c
        b_margin = _power_margin(a, b, lam)
        if b_margin > half_pow:
            break
        c /= 2
    else:
        raise RuntimeError("no admissible c found within the halving depth")

    u, w = lam.numerator, lam.denominator
    p_float = float(a) ** (float(lam) + 1) * float(b) / 0.5 ** (float(lam) + 2)
    ratio = 2 * a * b * b / c ** 3
    # p^w = a^(u+w) b^w 2^(u+2w); p^X > ratio is certified as p_w^X > ratio^w
    p_w = b_margin / half_pow

    # float seed for the threshold, then exact adjustment
    if ratio <= 1:
        x = 1
    else:
        x = max(1, math.ceil(math.log(float(ratio)) / math.log(p_float)) - 2)
    bits = x * max(p_w.numerator.bit_length(), p_w.denominator.bit_length())
    if bits > POWER_BUDGET:
        raise BudgetExceededError(
            f"certifying x_min for lambda = {lam} needs p^{w} to the power "
            f"of about {x}, an estimated {bits} bits, over the budget of "
            f"{POWER_BUDGET} bits")
    ratio_w = ratio ** w
    while p_w ** x <= ratio_w:
        x += 1
    while x > 1 and p_w ** (x - 1) > ratio_w:
        x -= 1
    x_min = x

    checks = [
        _check(f"f(a) > 0 as a^{u + w} (1-a)^{w} > (1/2)^{u + 2 * w}",
               best_margin, half_pow, ">"),
        _check(f"g(c) > 0 as a^{u + w} b^{w} > (1/2)^{u + 2 * w}",
               b_margin, half_pow, ">"),
        _check(f"p^x_min > 2a b^2 / c^3 raised to the {w}-th power",
               p_w ** x_min, ratio_w, ">"),
    ]
    if x_min > 1:
        checks.append(_check(
            f"p^(x_min-1) <= 2a b^2 / c^3 raised to the {w}-th power",
            p_w ** (x_min - 1), ratio_w, "<="))
    return Theorem2Params(lam, a, b, c, p_float, x_min, tuple(checks))


@dataclass(frozen=True)
class Theorem2Certificate:
    params: Theorem2Params
    x: int
    d: int
    pattern_size: int
    coeff_c5: Fraction
    coeff_k2: Fraction
    single_hom: Fraction
    holds: bool
    checks: tuple[CertCheck, ...]


def admissible_x(lam: Fraction, x_min: int) -> int:
    """Smallest x >= max(x_min, 3) making d = lam*x/2 a positive integer."""
    x = max(x_min, 3)
    while True:
        d2 = lam * x
        if d2.denominator == 1 and d2.numerator % 2 == 0 and d2 >= 2:
            return x
        x += 1


def theorem2_end_to_end(lam, x: int | None = None) -> Theorem2Certificate:
    """Exact counterexample certificate: the blow-up leading coefficient of
    the constructed pattern beats the balanced complete bipartite one.

    Also records, as separate checks, both written forms of the single-
    homomorphism lower bound: the exponent 2x + lam*x consistent with the
    pattern size, and the exponent 2x + 2*lam appearing in the displayed
    inequality (the two disagree unless lam*x = 2*lam); neither is assumed,
    both are evaluated.
    """
    from .blowup import WeightedPattern, leading_coefficient

    lam = Fraction(lam)
    params = solve_theorem2_params(lam)
    if x is None:
        x = admissible_x(lam, params.x_min)
    d2 = lam * x
    if d2.denominator != 1 or d2.numerator % 2 != 0 or d2 < 2:
        raise ValueError(f"lambda*x = {d2} does not give an integer d >= 1; "
                         "adjust x")
    d = d2.numerator // 2
    if x < 3:
        raise ValueError("x must be at least 3")
    pattern = build_theorem2_H(d, x)
    m = pattern.n

    a, b, c = params.a, params.b, params.c
    c5 = WeightedPattern(cycle_graph(5), (a, b, c, c, c))
    k2 = WeightedPattern(path_graph(2), (Fraction(1, 2), Fraction(1, 2)))
    coeff_c5 = leading_coefficient(pattern, c5).value
    coeff_k2 = leading_coefficient(pattern, k2).value

    single_hom = a ** (x + 2 * d - 1) * b ** (x - 2) * c ** 3
    u, w = lam.numerator, lam.denominator
    checks = (
        _check("blow-up coefficient exceeds balanced bipartite coefficient",
               coeff_c5, coeff_k2, ">"),
        _check("single labeled homomorphism contributes to the coefficient",
               coeff_c5, single_hom, ">="),
        _check("single hom > 2 (1/2)^(2x + lambda x)  [pattern-size exponent]",
               single_hom, 2 * Fraction(1, 2) ** m, ">"),
        _check("single hom > 2 (1/2)^(2x + 2 lambda)  [displayed exponent], "
               f"both sides raised to the {w}-th power",
               single_hom ** w,
               Fraction(2) ** w * Fraction(1, 2) ** (2 * x * w + 2 * u), ">"),
    )
    return Theorem2Certificate(params, x, d, m, coeff_c5, coeff_k2,
                               single_hom, checks[0].holds, checks)
