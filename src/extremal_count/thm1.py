"""Theorem 1's certificates: the minimum-degree coefficient, the chain of
displayed inequalities from it down to 2/5, and the exact sweep over
every hypothesis pair (x, d).

The chain is evaluated in plain integers: each expression is an
unreduced (numerator, denominator) pair read off its displayed form, with
a positive denominator, and every relation between two of them is
decided by cross-multiplication (by the numerators alone over equal
denominators); a reduced Fraction is formed only where a report holds
the value.  Only `verify thm1-coeff` and `verify thm1-chain` load this
module; the inequality record and the relations it shares with Theorem
2's certificates are `bounds.CertCheck` and `bounds._RELATIONS`.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .bounds import _RELATIONS, CertCheck


class Theorem1Coefficient(NamedTuple):
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


class ChainReport(NamedTuple):
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


class SweepReport(NamedTuple):
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
