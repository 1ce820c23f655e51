"""Weighted homomorphism sums of a tree, taken over its subtree kinds.

A rooted tree is described by its kinds: the isomorphism classes of its
rooted subtrees (the encoding of Aho, Hopcroft and Ullman), numbered from
the leaves up.  Kind i is a tuple of (child kind, multiplicity) pairs, each
child kind below i, and the last kind is the root's.  Equal subtrees share
one table, so the cost grows with the number of kinds, not of vertices.
This module imports nothing from the package.
"""


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
