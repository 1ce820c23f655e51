"""Theorem 2's certificates, the counterexample parameters and the
end-to-end comparison of leading coefficients, and `CertCheck`, the
record of one exact inequality, which Theorem 1's certificates use too.

Every certificate is exact rational arithmetic; floats appear only as
search seeds (locating the integer threshold before the exact powering
check confirms it).  Fractional exponents never arise: an inequality
involving t^(lambda+1) with lambda = u/w is certified by raising both
positive sides to the w-th power.

The end-to-end Theorem-2 certificate compares two leading coefficients,
the weighted homomorphism sums of the tree build_theorem2_H(d, x) into
the weighted C5 and K2.  They are taken by _treedp.kind_sum over the
tree's six subtree kinds, written here as a table (leaf or pendant top,
pendant middle, u2, q, p and the root u1), in which the d + 1 equal
leaves of each star and the x - 3 equal pendant paths enter as integer
powers; the 2x + 2d-vertex tree is never built.

Theorem 1's coefficient, chain and sweep are in `thm1`, and the
triangle-free edge bound is in `graphs`, so `verify thm2-*` compiles no
Theorem-1 code and `verify lemma2` does not load this module.  Two old
names, `edge_bound_check` and `thm1_sweep`, which the benchmark's span
wrappers still read here, are resolved from those modules on first access
(PEP 562).
"""

from __future__ import annotations

import math
import operator
from fractions import Fraction
from typing import NamedTuple


class CertCheck(NamedTuple):
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


# names that moved out of this module and are still read here by the
# benchmark's span wrappers -> the module that defines them
_MOVED = {"edge_bound_check": "graphs", "thm1_sweep": "thm1"}


def __getattr__(name):
    module = _MOVED.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    return getattr(import_module(f"{__package__}.{module}"), name)


# ---------------------------------------------------------------------------
# counterexample parameters (linear defect construction)
# ---------------------------------------------------------------------------

A_SCAN_DENOMINATOR = 1024
C_HALVING_DEPTH = 60

# Largest size, in bits, of A_SCAN_DENOMINATOR^(u+2w), the denominator of
# the 511 candidates the a-scan powers: 0.11 s at 4e4 bits, 0.33 s at 8e4
# and 1.2 s at 1.6e5 (in process, pure Python 3.11, 2 vCPU).
SCAN_BUDGET = 10 ** 5

# Largest estimated size, in bits, of the exact power p_w^x_min that
# certifies x_min: the float seed of x_min times the bit length of p_w.
# Measured end to end (whole CLI command, fresh process, pure Python
# 3.11, 2 vCPU, median of 3), with the hom sums taken over the pattern's
# vertex kinds: thm2-params / thm2-e2e take 0.18 / 0.26 s at lambda = 1/4
# (0.34e6 bits), 0.50 / 1.0 s at 1/6 (1.4e6 bits), 0.70 / 1.9 s at 1/5
# (2.0e6 bits), 1.2 / 2.6 s at 1/8 (2.8e6 bits) and 2.0 / 5.6 s at 1/7
# (4.3e6 bits); most of it is rendering and reducing the coefficients.
# 1/9 (5.9e6 bits; 2.9 / 6.0 s in single runs with the budget lifted)
# and 1/10 (11.6e6 bits) are refused.  Over the budget, nothing is
# powered.
POWER_BUDGET = 5 * 10 ** 6

# Largest estimated size, in bits, of the denominator D^(2x+2d) of the C5
# coefficient in theorem2_end_to_end, D the lcm of the denominators of a,
# b and c; both coefficients are reduced by a gcd, quadratic in that size.
# Measured as POWER_BUDGET: lambda = 1/7 at its own x (0.99e6 bits) takes
# 5.7 s, lambda = 1 at x = 26,666 (1.2e6 bits) 3.7 s, and at x = 60,000
# (2.7e6 bits) 12 s.  Over the budget, nothing is powered.
COEFFICIENT_BUDGET = 12 * 10 ** 5


class Theorem2Params(NamedTuple):
    lam: Fraction
    a: Fraction
    b: Fraction
    c: Fraction
    p_float: float
    x_min: int
    checks: tuple[CertCheck, ...]

    # output keys of the fields not printed under their own names
    _json_keys = {"lam": "lambda", "p_float": "p"}

    @property
    def all_hold(self) -> bool:
        return all(c.holds for c in self.checks)


def _budget_error(message: str):
    # graphs is imported only to refuse: a certificate that runs loads none
    from .graphs import BudgetExceededError

    return BudgetExceededError(message)


def solve_theorem2_params(lam) -> Theorem2Params:
    """Rational (a, c, p, x_min) realizing the counterexample constraints.

    With lam = u/w, D = A_SCAN_DENOMINATOR and H = D/2: a scans
    1/2 + j/D = (H+j)/D for 0 < j < H, keeping the exact maximizer of
    a^(lam+1)(1-a), the first on a tie, among the candidates with
    a^(u+w) (1-a)^w > (1/2)^(u+2w).  Every candidate has the denominator
    D^(u+2w), so the scan compares the integers (H+j)^(u+w) (H-j)^w with
    H^(u+2w).  c halves from (1-a)/6 until a^(lam+1)(1-a-3c) clears
    (1/2)^(lam+2); after t halvings, with s = 2^(t+1), c = (1-a)/(3s) and
    b = 1-a-3c = (1-a)(1-1/s), so each test multiplies the scan's integer
    margin by (s-1)^w against H^(u+2w) s^w.  x_min is the least integer
    with p^x_min exceeding 2a(1-a-3c)^2/c^3, certified by exact powering
    of p_w = p^w (no logarithms in the certificate): p_w is powered once,
    at the float seed of x_min, and the search steps by one multiplication
    or division by p_w.  p_w is reduced, so its powers are too; no gcd is
    taken between two powered numbers, and the certificate holds the
    powers at x_min and x_min - 1 that the search computed.

    Raises BudgetExceededError, before the scan, when D^(u+2w) has more
    than SCAN_BUDGET bits, and ValueError when no scanned a is admissible
    or when p is not a finite float.
    """
    lam = Fraction(lam)
    if lam <= 0:
        raise ValueError("lambda must be positive")
    u, w = lam.numerator, lam.denominator
    scan_bits = (u + 2 * w) * (A_SCAN_DENOMINATOR.bit_length() - 1)
    if scan_bits > SCAN_BUDGET:
        raise _budget_error(
            f"the a-scan for lambda = {lam} compares integers of about "
            f"{scan_bits} bits, over the budget of {SCAN_BUDGET} bits")
    half = A_SCAN_DENOMINATOR // 2
    # (1/2)^(u+2w) over the common denominator D^(u+2w)
    threshold = half ** (u + 2 * w)
    best_j, best_margin = None, threshold
    for j in range(1, half):
        margin = (half + j) ** (u + w) * (half - j) ** w
        if margin > best_margin:
            best_j, best_margin = j, margin
    if best_j is None:
        raise ValueError(
            f"no admissible a for lambda = {lam} at the scan's resolution "
            f"1/A_SCAN_DENOMINATOR = 1/{A_SCAN_DENOMINATOR}")
    a = Fraction(half + best_j, A_SCAN_DENOMINATOR)

    for t in range(C_HALVING_DEPTH):
        s = 2 << t
        b_margin = best_margin * (s - 1) ** w
        if b_margin > threshold * s ** w:
            break
    else:
        raise RuntimeError("no admissible c found within the halving depth")
    c = (1 - a) / (3 * s)
    b = 1 - a - 3 * c

    half_power = 0.5 ** (float(lam) + 2)  # 0.0 from lambda = 1073 on
    p_float = float(a) ** (float(lam) + 1) * float(b) / (half_power or math.nan)
    if not math.isfinite(p_float):
        raise ValueError(f"p = a^(lambda+1) b / (1/2)^(lambda+2) is not a "
                         f"finite float at lambda = {lam}")
    ratio = 2 * a * b * b / c ** 3
    # p^w = a^(u+w) b^w 2^(u+2w); p^X > ratio is certified as p_w^X > ratio^w
    p_w = Fraction(b_margin, threshold * s ** w)

    # float seed for the threshold, then exact adjustment
    x = max(1, math.ceil(math.log(float(ratio)) / math.log(p_float)) - 2)
    bits = x * max(p_w.numerator.bit_length(), p_w.denominator.bit_length())
    if bits > POWER_BUDGET:
        raise _budget_error(
            f"certifying x_min for lambda = {lam} needs p^{w} to the power "
            f"of about {x}, an estimated {bits} bits, over the budget of "
            f"{POWER_BUDGET} bits")
    ratio_w = ratio ** w
    power, below = p_w ** x, None
    if power <= ratio_w:
        while power <= ratio_w:
            below, power = power, power * p_w
            x += 1
    else:
        while x > 1:
            below = power / p_w
            if below <= ratio_w:
                break
            power, x = below, x - 1
    x_min = x

    scan_den = A_SCAN_DENOMINATOR ** (u + 2 * w)
    half_pow = Fraction(1, 2 ** (u + 2 * w))
    checks = [
        _check(f"f(a) > 0 as a^{u + w} (1-a)^{w} > (1/2)^{u + 2 * w}",
               Fraction(best_margin, scan_den), half_pow, ">"),
        _check(f"g(c) > 0 as a^{u + w} b^{w} > (1/2)^{u + 2 * w}",
               Fraction(b_margin, scan_den * s ** w), half_pow, ">"),
        _check(f"p^x_min > 2a b^2 / c^3 raised to the {w}-th power",
               power, ratio_w, ">"),
    ]
    if x_min > 1:
        checks.append(_check(
            f"p^(x_min-1) <= 2a b^2 / c^3 raised to the {w}-th power",
            below, ratio_w, "<="))
    return Theorem2Params(lam, a, b, c, p_float, x_min, tuple(checks))


class Theorem2Certificate(NamedTuple):
    params: Theorem2Params
    x: int
    d: int
    pattern_size: int
    coeff_c5: Fraction
    coeff_k2: Fraction
    single_hom: Fraction
    holds: bool
    checks: tuple[CertCheck, ...]


def _half_defect(lam: Fraction, x: int) -> int | None:
    """d when lam*x is an even integer 2d >= 2, else None."""
    d2 = lam * x
    if d2.denominator == 1 and d2.numerator % 2 == 0 and d2 >= 2:
        return d2.numerator // 2
    return None


def admissible_x(lam: Fraction, x_min: int) -> int:
    """Smallest x >= max(x_min, 3) making d = lam*x/2 a positive integer."""
    x = max(x_min, 3)
    while _half_defect(lam, x) is None:
        x += 1
    return x


# The two weighted patterns of the certificate, as neighbour lists: the
# five-cycle 0-1-2-3-4-0 and the single edge.
_C5_NEIGHBOURS = tuple(((q - 1) % 5, (q + 1) % 5) for q in range(5))
_K2_NEIGHBOURS = ((1,), (0,))


def _theorem2_hom_sum(d: int, x: int, weights, neighbours) -> Fraction:
    """The weighted homomorphism sum of build_theorem2_H(d, x) into the
    pattern with these neighbour lists and Fraction weights, exactly.

    The tree's kinds, rooted at u1 and numbered from the leaves up, are
    0 a leaf or pendant top, 1 a pendant middle (one leaf), 2 u2 (d + 1
    leaves), 3 q (u2), 4 p (q and x - 3 pendant middles; none when x = 3)
    and 5 u1 (d + 1 leaves and p).  _treedp.kind_sum of the kinds, taken
    by _treedp.homogeneous_sum on the weights scaled to integers, is the
    homomorphism sum: O(|P|^2) integer operations and the powers, for any
    d and x.
    """
    from ._treedp import homogeneous_sum, kind_sum

    kinds = ((), ((0, 1),), ((0, d + 1),), ((2, 1),), ((3, 1), (1, x - 3)),
             ((0, d + 1), (4, 1)))
    return homogeneous_sum(lambda w: kind_sum(kinds, w, neighbours), weights,
                           2 * x + 2 * d)


def theorem2_end_to_end(lam, x: int | None = None) -> Theorem2Certificate:
    """Exact counterexample certificate: the blow-up leading coefficient of
    the constructed pattern beats the balanced complete bipartite one.

    Both coefficients are weighted homomorphism sums of the tree
    build_theorem2_H(d, x), C5 at (a, b, c, c, c) and K2 at (1/2, 1/2).
    _theorem2_hom_sum takes each by the tree DP with one table per subtree
    kind, the d + 1 leaves of each star and the x - 3 pendant paths of p
    entering as integer powers, so the 2x + 2d-vertex tree is never
    built.

    Also records, as separate checks, both written forms of the single-
    homomorphism lower bound: the exponent 2x + lam*x consistent with the
    pattern size, and the exponent 2x + 2*lam appearing in the displayed
    inequality (the two disagree unless lam*x = 2*lam); neither is assumed,
    both are evaluated.  Raises BudgetExceededError, before either sum,
    when the coefficients' denominators are estimated past
    COEFFICIENT_BUDGET bits.
    """
    lam = Fraction(lam)
    params = solve_theorem2_params(lam)
    if x is None:
        x = admissible_x(lam, params.x_min)
    d = _half_defect(lam, x)
    if d is None:
        raise ValueError(f"lambda*x = {lam * x} does not give an integer "
                         "d >= 1; adjust x")
    if x < 3:
        raise ValueError("x must be at least 3")
    m = 2 * x + 2 * d

    a, b, c = params.a, params.b, params.c
    bits = m * math.lcm(a.denominator, b.denominator, c.denominator).bit_length()
    if bits > COEFFICIENT_BUDGET:
        raise _budget_error(
            f"the coefficients at x = {x}, d = {d} have denominators of an "
            f"estimated {bits} bits, over the budget of {COEFFICIENT_BUDGET} bits")
    half = Fraction(1, 2)
    coeff_c5 = _theorem2_hom_sum(d, x, (a, b, c, c, c), _C5_NEIGHBOURS)
    coeff_k2 = _theorem2_hom_sum(d, x, (half, half), _K2_NEIGHBOURS)

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
