"""Pure-Python placement kernels: the search plan of a pattern, injective
embedding counting and listing, and occupancy profiles over a twin
quotient with their moments.

Each kernel places the pattern's vertices, one position at a time along a
static search plan, on host vertices held as bit rows; none needs a
canonical form, so commands that only count (`count`, `optimize`) never
compile the enumeration kernels of `_pykernels`.  `count_injective`
mirrors the compiled kernel in `_fastkernels`, and `_kernels` imports
this module only when it first falls back to it.  The other kernels
here, among them the occupancy profile (the one source of H-degrees and
pair degrees), have no compiled twin; callers import them from here.
Counts use Python integers, so this path has no host-size or
count-magnitude limits, only speed ones.  Patterns and hosts are read
through `n`, `rows`, `degree` and `neighbors` alone; this module imports
nothing from the package.
"""

from __future__ import annotations

from collections import defaultdict
from math import perm


# ---------------------------------------------------------------------------
# search plans
# ---------------------------------------------------------------------------

def search_plan(pattern):
    """Static search order and per-position earlier-neighbor lists.

    Vertices are ordered by degree descending, then by number of already
    placed neighbors, then by index; deterministic.
    """
    m = pattern.n
    remaining = list(range(m))
    placed_mask = 0
    order = []
    while remaining:
        remaining.sort(key=lambda v: (-pattern.degree(v),
                                      -(pattern.rows[v] & placed_mask).bit_count(),
                                      v))
        v = remaining.pop(0)
        order.append(v)
        placed_mask |= 1 << v
    pos = {v: i for i, v in enumerate(order)}
    parents = []
    for i, v in enumerate(order):
        parents.append(sorted(pos[u] for u in pattern.neighbors(v) if pos[u] < i))
    return order, parents


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
# injective listing
# ---------------------------------------------------------------------------

def embeddings_listing(pattern, host):
    """Yield every injective embedding as a tuple image[p] = host vertex.

    Intended for small instances: the automorphisms of a blow-up skeleton,
    and tests."""
    order, parents = search_plan(pattern)
    m = pattern.n
    if m == 0:
        yield ()
        return
    full = (1 << host.n) - 1
    sel = [0] * m

    def rec(level, used):
        cand = full & ~used
        for p in parents[level]:
            cand &= host.rows[sel[p]]
        while cand:
            bit = cand & -cand
            v = bit.bit_length() - 1
            sel[level] = v
            if level == m - 1:
                image = [0] * m
                for i, pv in enumerate(order):
                    image[pv] = sel[i]
                yield tuple(image)
            else:
                yield from rec(level + 1, used | bit)
            cand &= cand - 1

    yield from rec(0, 0)
