"""Pure-Python kernels: injective-embedding counting, canonical forms, and
triangle-free enumeration.

These mirror the compiled kernels in `_fastkernels` and are selected at
import time when the extension is unavailable (or when
EXTREMAL_COUNT_FORCE_PYTHON is set).  Counts use Python integers, so this
path has no host-size or count-magnitude limits, only speed ones.

Canonical-form convention shared by both kernels: edges are indexed in
staircase order (0,1), (0,2), (1,2), (0,3), (1,3), (2,3), ... and the
adjacency bit-string b_0 b_1 ... b_{E-1} is packed into an integer with b_0
as the most significant bit, so integer comparison equals lexicographic
string comparison.  The canonical form of a graph is the minimal such
integer over all vertex relabelings.
"""

from __future__ import annotations

from collections import defaultdict

BACKEND = "python"


# ---------------------------------------------------------------------------
# injective embedding counting
# ---------------------------------------------------------------------------

def count_injective(host_rows, n_host: int, parents: list[list[int]],
                    first_mask: int | None = None) -> int:
    """Count injective maps of a pattern into a host preserving pattern edges.

    `parents[i]` lists the earlier positions (in the fixed search order)
    adjacent to the pattern vertex placed at position i.  `first_mask`
    restricts the host image of position 0 (used to split work).
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

    if first_mask is None:
        return rec(0, 0)
    if m == 1:
        return (full & first_mask).bit_count()
    total = 0
    cand0 = full & first_mask
    while cand0:
        bit = cand0 & -cand0
        sel[0] = bit.bit_length() - 1
        total += rec(1, bit)
        cand0 &= cand0 - 1
    return total


def count_h_degrees(host_rows, n_host: int, parents: list[list[int]],
                    first_mask: int | None = None) -> tuple[int, list[int]]:
    """Injective embedding count and per-host-vertex H-degrees in one pass.

    Returns (total, h) where h[v] counts the embeddings whose image
    contains host vertex v, so sum(h) == len(parents) * total.  Arguments
    are as for `count_injective`; with `first_mask` both the total and h
    cover only the embeddings whose position-0 image lies in the mask, so
    partial results over a partition of the host add up exactly.

    Each internal node adds its subtree's completion count to the H-degree
    of the vertex it placed.  Last-level candidate masks are tallied by
    multiplicity and their bits expanded once at the end, so the leaf level
    costs one bit_count per node, as in `count_injective`.
    """
    m = len(parents)
    h = [0] * n_host
    if m == 0:
        return 1, h
    if m > n_host:
        return 0, h
    full = (1 << n_host) - 1
    sel = [0] * m
    last = m - 1
    leaves = defaultdict(int)

    def rec(level: int, used: int, cand: int) -> int:
        # `cand` holds the admissible images of position `level`
        if level == last:
            leaves[cand] += 1
            return cand.bit_count()
        nxt = level + 1
        nxt_parents = parents[nxt]
        total = 0
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            sel[level] = v
            below = used | bit
            sub = full & ~below
            for p in nxt_parents:
                sub &= host_rows[sel[p]]
            count = rec(nxt, below, sub)
            h[v] += count
            total += count
            cand &= cand - 1
        return total

    total = rec(0, 0, full if first_mask is None else full & first_mask)
    for cand, mult in leaves.items():
        while cand:
            bit = cand & -cand
            h[bit.bit_length() - 1] += mult
            cand &= cand - 1
    return total, h


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


def is_min_canonical(rows, n: int) -> bool:
    """True iff no relabeling produces a strictly smaller staircase string."""
    if n <= 1:
        return True
    orig = _column_blocks(rows, n)
    perm = [0] * n

    def rec(k: int, used: int) -> bool:
        # False as soon as a strictly smaller string is reachable
        if k == n:
            return True
        target = orig[k - 1]
        for v in range(n):
            if used >> v & 1:
                continue
            rv = rows[v]
            block = 0
            for i in range(k):
                block = block << 1 | (rv >> perm[i] & 1)
            if block > target:
                continue
            if block < target:
                return False
            perm[k] = v
            if not rec(k + 1, used | 1 << v):
                return False
        return True

    for v0 in range(n):
        perm[0] = v0
        if not rec(1, 1 << v0):
            return False
    return True


def canonical_mask(rows, n: int) -> int:
    """Minimal staircase-packed adjacency integer over all relabelings.

    Branch-and-bound over partial relabelings: while tied with the best
    known string, larger blocks prune; a strictly smaller block rebases the
    best string to this prefix plus a greedy minimal completion, after
    which the search continues tied.
    """
    if n <= 1:
        return 0
    best = _column_blocks(rows, n)
    perm = [0] * n

    def block_of(v: int, k: int) -> int:
        rv = rows[v]
        b = 0
        for i in range(k):
            b = b << 1 | (rv >> perm[i] & 1)
        return b

    def greedy_completion(k: int, used: int) -> list[int]:
        blocks = []
        for kk in range(k, n):
            best_b, best_v = None, -1
            for v in range(n):
                if used >> v & 1:
                    continue
                b = block_of(v, kk)
                if best_b is None or b < best_b:
                    best_b, best_v = b, v
            perm[kk] = best_v
            used |= 1 << best_v
            blocks.append(best_b)
        return blocks

    def rec(k: int, used: int):
        nonlocal best
        if k == n:
            return
        for v in range(n):
            if used >> v & 1:
                continue
            b = block_of(v, k)
            if b > best[k - 1]:
                continue
            perm[k] = v
            if b < best[k - 1]:
                completion = greedy_completion(k + 1, used | 1 << v)
                best = best[: k - 1] + [b] + completion
            rec(k + 1, used | 1 << v)

    for v0 in range(n):
        perm[0] = v0
        rec(1, 1 << v0)
    return _mask_from_blocks(best)


# ---------------------------------------------------------------------------
# triangle-free enumeration
# ---------------------------------------------------------------------------

def triangle_free_canonical_masks(n: int, prefix_len: int = 0,
                                  prefix_val: int = 0) -> list[int]:
    """All triangle-free graphs on n vertices, one canonical mask per
    isomorphism class, in ascending mask order.

    The compiled kernel walks the edge-mask tree directly; this fallback
    grows graphs one vertex at a time (new neighborhoods must be
    independent sets), canonicalizes, and deduplicates.  Output of the two
    paths is identical.  Prefix partitioning is a no-op here: only the
    (prefix_len=0) call enumerates, so worker splits fall back to one task.
    """
    if prefix_len:
        raise ValueError("prefix partitioning requires the compiled kernel")
    if n == 0:
        return [0]
    level = {(0,)}
    for k in range(1, n):
        nxt = set()
        for rows in level:
            for s in _independent_subsets(rows, k):
                new_rows = [r | ((s >> v & 1) << k) for v, r in enumerate(rows)]
                new_rows.append(s)
                canon = canonical_mask(new_rows, k + 1)
                nxt.add(tuple(rows_from_mask(k + 1, canon)))
        level = nxt
    return sorted(mask_from_rows(rows, n) for rows in level)


def _independent_subsets(rows, k: int):
    """All subsets of {0..k-1} spanning no edge of `rows`."""
    out = [0]
    for v in range(k):
        add = []
        row = rows[v]
        for s in out:
            if not (s & row):
                add.append(s | 1 << v)
        out.extend(add)
    return out
