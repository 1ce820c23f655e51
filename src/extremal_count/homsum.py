"""Weighted homomorphism sums: the leading coefficients of embedding counts
in weighted blow-ups.

For an m-vertex pattern H and a small weighted pattern P, the coefficient of
n^m in the injective-embedding count of H inside a blow-up of P with blob
fractions w is the weighted homomorphism sum

    sum over homomorphisms phi: H -> P of  prod_v w(phi(v)),

computed here exactly: rational weights are scaled to integers over one
common denominator, which the integer sum is divided by once at the end
(homogeneity of degree |V(H)|; _treedp.homogeneous_sum).  Tree
components are evaluated by the dynamic program of _treedp over the
classes of their rooted subtrees, so equal subtrees share one table
(mandatory for the large trees the counterexample construction
produces), and each class of equal tree components is evaluated once and
raised to its multiplicity; each cyclic component is tallied once into
its homomorphism polynomial, {occupancy vector: number of homomorphisms
into P}, placed along the component's _pyplace.search_plan, and
evaluated from it at every weight vector.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from ._pyplace import occupancy_profile, occupancy_terms, search_plan
from ._treedp import homogeneous_sum, kind_sum
from .graphs import Graph, connected_components


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
    power.  A cyclic component keeps its homomorphism polynomial, the
    terms of its occupancy profile into P (_pyplace.occupancy_terms),
    built once along the component's search plan and evaluated as
    sum mult * prod_q w_q^occ_q; it has at most as many terms as the
    component has homomorphisms.

    Int and float weights are used as they are; Fraction weights go
    through _treedp.homogeneous_sum, summed in plain ints over their
    least common denominator and divided once by its |V(H)|-th power.
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
                caps = (len(comp),) * self.k
                profile = occupancy_profile(
                    patternP.rows, caps, search_plan(patternH, comp)[1])
                cycles.append(tuple(occupancy_terms(profile, caps)))
        # (kinds, multiplicity) per class of tree components
        self.trees = tuple(trees.items())
        self.cycles = tuple(cycles)

    def __call__(self, weights):
        if len(weights) != self.k:
            raise ValueError("one weight per pattern-P vertex required")
        return homogeneous_sum(self._sum, weights, self.m)

    def _sum(self, weights):
        """The sum at weights used as given, without the length check."""
        total = 1
        for kinds, count in self.trees:
            total *= kind_sum(kinds, weights, self.p_nbrs) ** count
        for terms in self.cycles:
            value = 0
            for mult, factors in terms:
                for q, o in factors:
                    mult = mult * weights[q] ** o
                value += mult
            total *= value
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


def leading_coefficient(patternH: Graph, wp: WeightedPattern) -> LeadingCoefficient:
    """The degree-m coefficient of count_embeddings(H, blow-up of P) in the
    blow-up size n, as an exact rational."""
    plan = HomSumPlan(patternH, wp.pattern)
    value = plan(wp.weights)
    contributing = plan([1 if w else 0 for w in wp.weights])
    return LeadingCoefficient(Fraction(value), int(contributing))
