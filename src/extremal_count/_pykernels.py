"""Pure-Python kernels: injective-embedding counting, occupancy profiles
over a twin quotient, canonical forms, and triangle-free enumeration.

`count_injective` and the canonical form mirror the compiled kernels in
`_fastkernels` and are selected at import time when the extension is
unavailable (or when EXTREMAL_COUNT_FORCE_PYTHON is set).  Counts use
Python integers, so this path has no host-size or count-magnitude limits,
only speed ones.  Triangle-free enumeration, on both backends, is one
growth step from the maximal triangle-free graphs on n-1 vertices to those
on n, and one closure from those under single-edge deletion; both take
the canonical form to use as an argument.  The occupancy profile, the one
source of H-degrees and pair degrees, has no compiled twin.

Twins are vertices u, v with N(u) - v == N(v) - u.  Swapping two twins is
an automorphism that fixes every other vertex, so the canonical-form
search, the growth step and the closure each try only one member of each
twin class.

Canonical-form convention shared by both kernels: edges are indexed in
staircase order (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ... and the
adjacency bit-string b_0 b_1 ... b_{E-1} is packed into an integer with b_0
as the most significant bit, so integer comparison equals lexicographic
string comparison.  The canonical form of a graph is the minimal such
integer over all vertex relabelings.
"""

from __future__ import annotations

from collections import defaultdict
from math import perm

BACKEND = "python"


# ---------------------------------------------------------------------------
# injective embedding counting
# ---------------------------------------------------------------------------

def count_injective(host_rows, n_host: int, parents: list[list[int]]) -> int:
    """Count injective maps of a pattern into a host preserving pattern edges.

    `parents[i]` lists the earlier positions (in the fixed search order)
    adjacent to the pattern vertex placed at position i.
    """
    m = len(parents)
    if m == 0:
        return 1
    if m > n_host:
        return 0
    full = (1 << n_host) - 1
    sel = [0] * m
    last = m - 1

    def rec(level: int, used: int) -> int:
        cand = full & ~used
        for p in parents[level]:
            cand &= host_rows[sel[p]]
        if level == last:
            return cand.bit_count()
        total = 0
        while cand:
            bit = cand & -cand
            sel[level] = bit.bit_length() - 1
            total += rec(level + 1, used | bit)
            cand &= cand - 1
        return total

    return rec(0, 0)


# ---------------------------------------------------------------------------
# occupancy profiles: counting in a blow-up through its skeleton
# ---------------------------------------------------------------------------

def occupancy_profile(q_rows, caps, parents: list[list[int]]) -> dict[tuple[int, ...], int]:
    """Homomorphisms of a pattern into a loopless graph Q that put at most
    caps[q] pattern vertices on vertex q, tallied by occupancy vector.

    Returns {(occ_0, ..., occ_{k-1}): number of such homomorphisms}.
    `q_rows` are Q's adjacency bit rows and `parents` is as for
    `count_injective`.  In the blow-up of Q with independent blobs of sizes
    s <= caps, a homomorphism with occupancy occ stands for
    prod_q (s_q)_{occ_q} injective embeddings (falling factorials), so one
    profile serves every size vector up to the caps (`occupancy_moments`).

    Backtracks pattern positions over Q, keeping the occupancy packed into
    one integer (`width` bits per vertex of Q) and the mask of vertices
    still below their cap.  Last-position candidate masks are tallied per
    occupancy and expanded once at the end, so the last level costs one
    dictionary update per node.  Every graph is the blow-up of its twin
    quotient, so with caps = the class sizes this one profile gives the
    embedding count, every H-degree and every pair degree of any host; a
    twin-free host is its own quotient with caps all 1.
    """
    k = len(q_rows)
    m = len(parents)
    if m == 0:
        return {(0,) * k: 1}
    width = max(max(caps, default=0), 1).bit_length()
    unit = [1 << q * width for q in range(k)]
    occ = [0] * k
    sel = [0] * m
    last = m - 1
    leaves = defaultdict(int)  # packed occupancy << k | candidates -> count

    def rec(level: int, packed: int, below_cap: int) -> None:
        cand = below_cap
        for p in parents[level]:
            cand &= q_rows[sel[p]]
        if level == last:
            if cand:
                leaves[packed << k | cand] += 1
            return
        while cand:
            bit = cand & -cand
            q = bit.bit_length() - 1
            cand ^= bit
            sel[level] = q
            occ[q] += 1
            rec(level + 1, packed + unit[q],
                below_cap if occ[q] < caps[q] else below_cap ^ bit)
            occ[q] -= 1

    rec(0, 0, sum(1 << q for q in range(k) if caps[q] > 0))
    packed_profile = defaultdict(int)
    all_q = (1 << k) - 1
    for key, mult in leaves.items():
        packed, cand = key >> k, key & all_q
        while cand:
            bit = cand & -cand
            cand ^= bit
            packed_profile[packed + unit[bit.bit_length() - 1]] += mult
    field = (1 << width) - 1
    return {tuple(packed >> (q * width) & field for q in range(k)): mult
            for packed, mult in packed_profile.items()}


def occupancy_total(profile, sizes) -> int:
    """The total of `occupancy_moments` alone: the injective embedding
    count in the blow-up with blob sizes `sizes`."""
    total = 0
    for occ, mult in profile.items():
        for s, o in zip(sizes, occ):
            if o:
                mult *= perm(s, o)
        total += mult
    return total


def occupancy_moments(profile, sizes):
    """(total, first) of an occupancy profile at blob sizes `sizes`.

    Each occupancy vector occ weighs w = mult * prod_q (s_q)_{occ_q};
    total = sum w and first[q] = sum w * occ_q.  In the blow-up, total is
    the injective embedding count, and by exchangeability of a blob's
    vertices first[q] / s_q is the H-degree of each vertex of blob q.
    """
    total = 0
    first = [0] * len(sizes)
    for occ, w, support in _weighted_terms(profile, sizes):
        total += w
        for q in support:
            first[q] += w * occ[q]
    return total, first


def occupancy_second_moment(profile, sizes):
    """second[q][r] = sum w * occ_q * (occ_r - [q == r]) over an occupancy
    profile at blob sizes `sizes`, with w as in `occupancy_moments`.

    By exchangeability, second[q][r] / (s_q * (s_r - [q == r])) is the pair
    degree of two distinct vertices of blobs q and r.
    """
    k = len(sizes)
    second = [[0] * k for _ in range(k)]
    for occ, w, support in _weighted_terms(profile, sizes):
        for q in support:
            wq = w * occ[q]
            row = second[q]
            for r in support:
                row[r] += wq * (occ[r] - (q == r))
    return second


def _weighted_terms(profile, sizes):
    """(occ, w, support) for each occupancy vector of nonzero weight w."""
    for occ, mult in profile.items():
        w = mult
        support = []
        for q, o in enumerate(occ):
            if o:
                w *= perm(sizes[q], o)
                support.append(q)
        if w:
            yield occ, w, support


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

def maximal_triangle_free_growth(n: int, parents, canon=None) -> list[int]:
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
    swap.  `canon(rows, n)` computes the canonical forms; the default is
    this module's `canonical_mask`.
    """
    canon = canon or canonical_mask
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
                out.add(canon(child, n))
    return sorted(out)


def triangle_free_canonical_masks(n: int, seeds, keep=None, canon=None) -> list[int]:
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
    triangle-free class with one more edge.  `canon` is as for
    `maximal_triangle_free_growth`.
    """
    canon = canon or canonical_mask
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
            host = canon(rows_from_mask(n, host), n)
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
