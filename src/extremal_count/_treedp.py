"""Weighted homomorphism sums of a tree, taken over its subtree kinds.

A rooted tree is described by its kinds: the isomorphism classes of its
rooted subtrees (the encoding of Aho, Hopcroft and Ullman), numbered from
the leaves up.  Kind i is a tuple of (child kind, multiplicity) pairs, each
child kind below i, and the last kind is the root's.  Equal subtrees share
one table, so the cost grows with the number of kinds, not of vertices.
`homogeneous_sum` is the one exact rule for summing over Fraction weights.
This module imports nothing from the package.
"""

import math
from fractions import Fraction


def homogeneous_sum(evaluate, weights, degree):
    """evaluate(weights) for a sum homogeneous of degree `degree` in the
    weights, exactly.

    Fraction weights (mixed with ints or not) are scaled to integer
    numerators over their least common denominator D, evaluated in plain
    ints, and divided once by D^degree; no Fraction is formed inside the
    evaluation.  Other weights are used as they are.
    """
    types = set(map(type, weights))
    if Fraction in types and types <= {int, Fraction}:
        den = math.lcm(*(w.denominator for w in weights))
        return Fraction(evaluate([w.numerator * (den // w.denominator)
                                  for w in weights]), den ** degree)
    return evaluate(weights)


def kind_sum(kinds, weights, neighbours):
    """sum over homomorphisms phi of the tree into a pattern P of
    prod_v weights[phi(v)], where neighbours[q] lists the neighbours of q.

    table_i[q] is the sum over the subtree of kind i with its root on q:
    weights[q] times, for each child kind c with multiplicity r,
    (sum over neighbours s of q of table_c[s])^r.  Exact on ints and
    Fractions; O(|P|^2) operations and the powers per (kind, child) pair.
    """
    tables = []
    for children in kinds:
        table = list(weights)
        for child, mult in children:
            below = tables[child]
            for q, nbrs in enumerate(neighbours):
                s = 0
                for r in nbrs:
                    s += below[r]
                table[q] *= s if mult == 1 else s ** mult
        tables.append(table)
    return sum(tables[-1])
