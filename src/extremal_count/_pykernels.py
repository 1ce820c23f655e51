"""Pure-Python enumeration kernels: canonical forms, the staircase mask
helpers, and triangle-free enumeration.

`_kernels` calls the canonical form and the two enumeration steps from
here.  Triangle-free enumeration is one growth step from the maximal
triangle-free graphs on n-1 vertices to those on n, and one closure from
those under single-edge deletion; both canonicalize with this module's
`canonical_mask`.  `oracle` and the `search` command import the staircase
mask helpers from here.  The placement kernels (injective counting,
occupancy profiles and the injective listing) are in `_pyplace`.  Only
`search` loads this module, so commands that only count never compile it.

Twins are vertices u, v with N(u) - v == N(v) - u.  Swapping two twins is
an automorphism that fixes every other vertex, so the canonical-form
search, the growth step and the closure each try only one member of each
twin class.

Canonical-form convention: edges are indexed in staircase order (0,1),
(0,2), (1,2), (0,3), (1,3), (2,3), ... and the adjacency bit-string
b_0 b_1 ... b_{E-1} is packed into an integer with b_0 as the most
significant bit, so integer comparison equals lexicographic string
comparison.  The canonical form of a graph is the minimal such
integer over all vertex relabelings.
"""

from __future__ import annotations


# ---------------------------------------------------------------------------
# canonical forms
# ---------------------------------------------------------------------------

def _column_blocks(rows, n: int) -> list[int]:
    """Per-column bit blocks of the staircase string; block j holds bits
    (0,j)..(j-1,j) with (0,j) most significant."""
    blocks = []
    for j in range(1, n):
        b = 0
        for i in range(j):
            b = b << 1 | (rows[i] >> j & 1)
        blocks.append(b)
    return blocks


def _mask_from_blocks(blocks) -> int:
    mask = 0
    for j, b in enumerate(blocks, start=1):
        mask = mask << j | b
    return mask


def mask_from_rows(rows, n: int) -> int:
    """Staircase-packed adjacency integer of the identity labeling."""
    return _mask_from_blocks(_column_blocks(rows, n))


def rows_from_mask(n: int, mask: int):
    """Inverse of mask_from_rows."""
    E = n * (n - 1) // 2
    rows = [0] * n
    k = 0
    for j in range(1, n):
        for i in range(j):
            if mask >> (E - 1 - k) & 1:
                rows[i] |= 1 << j
                rows[j] |= 1 << i
            k += 1
    return rows


def _lower_twins(rows, n: int) -> list[int]:
    """Per vertex v, the mask of its twins u < v.  Twinhood is an
    equivalence relation, so these masks list each twin class in order."""
    lower = [0] * n
    for v in range(n):
        rv = rows[v]
        for u in range(v):
            if not (rows[u] ^ rv) & ~(1 << u | 1 << v):
                lower[v] |= 1 << u
    return lower


def canonical_mask(rows, n: int) -> int:
    """Minimal staircase-packed adjacency integer over all relabelings.

    Branch-and-bound over partial relabelings: while tied with the best
    known string, larger blocks prune; a strictly smaller block rebases the
    best string to this prefix plus a greedy minimal completion, after
    which the search continues tied.  Each node tries one free vertex per
    twin class, the lowest: a twin swap fixes the placed prefix, so the
    other members reach the same strings.

    `codes[v]` is the block vertex v would add next: its adjacency to the
    placed prefix, first placed vertex most significant.
    """
    if n <= 1:
        return 0
    best = _column_blocks(rows, n)
    lower = _lower_twins(rows, n)

    def place(codes, v: int) -> list[int]:
        rv = rows[v]
        return [c << 1 | (rv >> u & 1) for u, c in enumerate(codes)]

    def greedy_completion(k: int, used: int, codes) -> list[int]:
        blocks = []
        for _ in range(k, n):
            best_b, best_v = None, -1
            for v in range(n):
                if used >> v & 1:
                    continue
                b = codes[v]
                if best_b is None or b < best_b:
                    best_b, best_v = b, v
            used |= 1 << best_v
            codes = place(codes, best_v)
            blocks.append(best_b)
        return blocks

    def rec(k: int, used: int, codes):
        nonlocal best
        for v in range(n):
            if used >> v & 1 or lower[v] & ~used:
                continue
            b = codes[v]
            if b > best[k - 1]:
                continue
            if k + 1 == n:
                best[k - 1] = b
                continue
            below = used | 1 << v
            nxt = place(codes, v)
            if b < best[k - 1]:
                best = best[: k - 1] + [b] + greedy_completion(k + 1, below, nxt)
            rec(k + 1, below, nxt)

    for v0 in range(n):
        if not lower[v0]:
            rec(1, 1 << v0, place([0] * n, v0))
    return _mask_from_blocks(best)


# ---------------------------------------------------------------------------
# triangle-free enumeration
# ---------------------------------------------------------------------------

def maximal_triangle_free_growth(n: int, parents) -> list[int]:
    """All maximal triangle-free graphs on n vertices, one canonical mask
    per isomorphism class, in ascending mask order, grown from `parents`,
    the canonical masks of every such class on n-1 vertices.

    A child takes a vertex set S of a parent, deletes the edges inside S
    and joins a new vertex to S; it is triangle-free, and kept if every
    non-adjacent pair has a common neighbour.  Every maximal triangle-free
    G is a child: for a vertex v, add edges inside N(v) to G - v while no
    triangle forms; the result is maximal, and its child by N(v) is G.
    Within each twin class of the parent, S takes members lowest index
    first; any other choice is the image of one of these under a twin
    swap.
    """
    k = n - 1
    full = (1 << n) - 1
    out = set()
    for mask in parents:
        rows = rows_from_mask(k, mask)
        lower = _lower_twins(rows, k)
        subsets = [0]
        for v in range(k):
            subsets.extend([s | 1 << v for s in subsets if s & lower[v] == lower[v]])
        for s in subsets:
            child = [r & ~s | 1 << k if s >> v & 1 else r for v, r in enumerate(rows)]
            child.append(s)
            # v, its neighbours and theirs must cover every vertex
            if all(full == 1 << v | r | _union(child, r) for v, r in enumerate(child)):
                out.add(canonical_mask(child, n))
    return sorted(out)


def triangle_free_canonical_masks(n: int, seeds, keep=None) -> list[int]:
    """Every triangle-free class on n vertices that `keep` accepts, as
    ascending canonical masks: the closure of the canonical masks `seeds`
    under single-edge deletion.  `seeds` must hold every maximal class
    `keep` accepts, and `keep` must accept every triangle-free graph on the
    same vertices above one it accepts (as "ties the maximum" does for a
    count that never falls when an edge is added).  `keep(masks)` gets
    staircase masks and returns those it accepts, deciding by isomorphism
    class alone; the default accepts all.

    Each class found deletes one edge per orbit of its twin swaps
    (`_twin_pruned_edges`).  A deletion is kept only if the edge, put
    back, is a parent edge of the result (`_is_parent_edge`); `keep` then
    filters, and the rest are canonicalized.  Every accepted class G is reached: unless G is
    maximal it has a parent edge f, and G + f is an accepted
    triangle-free class with one more edge.
    """
    top = n * (n - 1) // 2 - 1
    found = set(seeds)
    todo = list(found)
    while todo:
        mask = todo.pop()
        rows = rows_from_mask(n, mask)
        below = []
        for i, j in _twin_pruned_edges(rows, n):
            child = list(rows)
            child[i] ^= 1 << j
            child[j] ^= 1 << i
            if _is_parent_edge(child, i, j):
                below.append(mask ^ 1 << top - j * (j - 1) // 2 - i)
        for host in (below if keep is None else keep(below)):
            host = canonical_mask(rows_from_mask(n, host), n)
            if host not in found:
                found.add(host)
                todo.append(host)
    return sorted(found)


def _twin_pruned_edges(rows, n: int) -> list[tuple[int, int]]:
    """The edges (i, j), i < j, whose ends have no lower twin other than
    each other.  A twin swap carries any edge to one of these."""
    lower = _lower_twins(rows, n)
    return [(i, j) for j in range(1, n) for i in range(j)
            if rows[i] >> j & 1 and not (lower[i] | lower[j]) & ~(1 << i | 1 << j)]


def _union(rows, vertices: int) -> int:
    """The union of the rows of a vertex set."""
    out = 0
    while vertices:
        low = vertices & -vertices
        out |= rows[low.bit_length() - 1]
        vertices ^= low
    return out


def _is_parent_edge(rows, u: int, v: int) -> bool:
    """Whether the non-edge {u, v} of a triangle-free graph has the largest
    key among the non-edges that close no triangle when added.  A vertex's
    key is its degree, then the sum of its neighbours' degrees; a pair's
    key is its ends' keys, larger first.  Keys are isomorphism-invariant;
    a graph may have several parent edges."""
    degree = [r.bit_count() for r in rows]
    key = [(d, sum(degree[w] for w in range(len(rows)) if r >> w & 1))
           for d, r in zip(degree, rows)]

    def pair(i, j):
        return max(key[i], key[j]), min(key[i], key[j])

    mine = pair(u, v)
    return not any(pair(i, j) > mine for j, rj in enumerate(rows) for i in range(j)
                   if not (rj >> i & 1 or rows[i] & rj))
