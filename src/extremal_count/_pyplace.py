"""Pure-Python placement kernels: the search plan of a pattern, injective
embedding counting into a blow-up, injective listing, and occupancy
profiles over a twin quotient with their moments.

Each kernel places the pattern's vertices, one position at a time along a
static search plan, on host or skeleton vertices held as bit rows; none
needs a canonical form, so commands that only count (`count`, `optimize`)
never compile the enumeration kernels of `_pykernels`.  The injective
count is the one embedding count: every host is the blow-up of its twin
quotient at the class sizes, and a blow-up given by its skeleton and
sizes is counted the same way.  `_kernels` imports this module when
`count_injective` is first called through it; the other kernels here,
among them the occupancy profile (the one source of H-degrees, pair
degrees and cyclic homomorphism polynomials), are imported from here
directly.  Counts use Python integers, so there is no host-size or
count-magnitude limit, only speed ones.  Patterns and hosts are read
through `n`, `rows`, `degree` and `neighbors` alone; this module imports
nothing from the package.
"""

from __future__ import annotations

from collections import defaultdict
from math import perm


# ---------------------------------------------------------------------------
# search plans
# ---------------------------------------------------------------------------

def search_plan(pattern, verts=None):
    """Static search order and per-position earlier-neighbor lists of the
    pattern's vertices, or of `verts`, a union of its components.

    Vertices are ordered by degree descending, then by number of already
    placed neighbors, then by index; deterministic.  Every placement in
    the package follows this order: injective counts and listings,
    occupancy profiles and the homomorphism polynomials of `homsum`.
    """
    remaining = list(range(pattern.n) if verts is None else verts)
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

def count_injective(q_rows, sizes, parents: list[list[int]]) -> int:
    """Count injective maps of a pattern, edges to edges, into the blow-up
    of a loopless graph Q with independent blobs of sizes `sizes`.

    `q_rows` are Q's adjacency bit rows and `parents[i]` lists the earlier
    positions (in the fixed search order) adjacent to the pattern vertex
    placed at position i.  Positions are backtracked over the blobs with a
    free vertex (`open_`).  A placement in a blob with two or more free
    (`multi`) weighs its free[q] vertices, and one in a blob with one free
    closes it, so with all sizes 1 (a host given as its own rows) this is
    plain injective backtracking.  At the last position each candidate
    blob q adds its free[q] vertices: the candidate count, plus
    free[q] - 1 for each candidate in `multi`.  Once the blobs run out
    there are no candidates, and the count is 0.
    """
    m = len(parents)
    if m == 0:
        return 1
    free = list(sizes)
    sel = [0] * m
    last = m - 1

    def rec(level: int, open_: int, multi: int) -> int:
        cand = open_
        for p in parents[level]:
            cand &= q_rows[sel[p]]
        if level == last:
            total, cand = cand.bit_count(), cand & multi
            while cand:
                bit = cand & -cand
                total += free[bit.bit_length() - 1] - 1
                cand ^= bit
            return total
        total = 0
        while cand:
            bit = cand & -cand
            cand ^= bit
            sel[level] = q = bit.bit_length() - 1
            if bit & multi:
                f = free[q]
                free[q] = f - 1
                total += f * rec(level + 1, open_, multi ^ bit if f == 2 else multi)
                free[q] = f
            else:
                total += rec(level + 1, open_ ^ bit, multi)
        return total

    return rec(0, sum(1 << q for q, s in enumerate(sizes) if s),
               sum(1 << q for q, s in enumerate(sizes) if s > 1))


# ---------------------------------------------------------------------------
# occupancy profiles: degrees and polynomials through a skeleton
# ---------------------------------------------------------------------------

def occupancy_profile(q_rows, caps, parents: list[list[int]]) -> dict[int, int]:
    """Homomorphisms of a pattern into a loopless graph Q that put at most
    caps[q] pattern vertices on vertex q, tallied by occupancy vector.

    Returns {packed occupancy: number of such homomorphisms}, occ_q in the
    `width` bits from bit q * width, `width` the bit length of the largest
    cap; `occupancy_terms` reads the keys.  `q_rows` are Q's adjacency bit
    rows and `parents` is as for `count_injective`.  In the blow-up of Q
    with independent blobs of sizes s = caps, a homomorphism with occupancy
    occ stands for prod_q (s_q)_{occ_q} injective embeddings (falling
    factorials; `occupancy_moments`).

    Backtracks pattern positions over Q, keeping the packed occupancy and
    the mask of vertices still below their cap.  Last-position candidate
    masks are tallied per occupancy and expanded once at the end, so the
    last level costs one dictionary update per node.  Every graph is the
    blow-up of its twin quotient, so with caps = the class sizes this one
    profile gives every H-degree and every pair degree of any host; a
    twin-free host is its own quotient with caps all 1.  A bare count is
    `count_injective`, which tallies no occupancy.
    """
    k = len(q_rows)
    m = len(parents)
    if m == 0:
        return {0: 1}
    width = _field_width(caps)
    field = (1 << width) - 1
    unit = [1 << q * width for q in range(k)]
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
            cand ^= bit
            sel[level] = q = bit.bit_length() - 1
            child = packed + unit[q]
            full = child >> q * width & field == caps[q]
            rec(level + 1, child, below_cap ^ bit if full else below_cap)

    rec(0, 0, sum(1 << q for q in range(k) if caps[q] > 0))
    profile = defaultdict(int)
    all_q = (1 << k) - 1
    for key, mult in leaves.items():
        packed, cand = key >> k, key & all_q
        while cand:
            bit = cand & -cand
            cand ^= bit
            profile[packed + unit[bit.bit_length() - 1]] += mult
    return profile


def _field_width(caps):
    return max(max(caps, default=0), 1).bit_length()


def occupancy_terms(profile, caps):
    """(mult, ((q, occ_q), ...)) for each term of an occupancy profile
    built with `caps`, over the occupied vertices q of Q in order."""
    width = _field_width(caps)
    field = (1 << width) - 1
    for packed, mult in profile.items():
        yield mult, tuple([(q, o) for q in range(len(caps))
                           if (o := packed >> q * width & field)])


def occupancy_moments(profile, sizes):
    """(total, first) of an occupancy profile at blob sizes `sizes`, its caps.

    Each occupancy vector occ weighs w = mult * prod_q (s_q)_{occ_q};
    total = sum w and first[q] = sum w * occ_q.  In the blow-up, total is
    the injective embedding count, and by exchangeability of a blob's
    vertices first[q] / s_q is the H-degree of each vertex of blob q.
    """
    total = 0
    first = [0] * len(sizes)
    for w, factors in _weighted_terms(profile, sizes):
        total += w
        for q, o in factors:
            first[q] += w * o
    return total, first


def occupancy_second_moment(profile, sizes):
    """second[q][r] = sum w * occ_q * (occ_r - [q == r]) over an occupancy
    profile at its caps `sizes`, with w as in `occupancy_moments`.

    By exchangeability, second[q][r] / (s_q * (s_r - [q == r])) is the pair
    degree of two distinct vertices of blobs q and r.
    """
    k = len(sizes)
    second = [[0] * k for _ in range(k)]
    for w, factors in _weighted_terms(profile, sizes):
        for q, o_q in factors:
            wq = w * o_q
            row = second[q]
            for r, o_r in factors:
                row[r] += wq * (o_r - (q == r))
    return second


def _weighted_terms(profile, sizes):
    """(w, factors) for each term, w = mult * prod_q (s_q)_{occ_q}."""
    for w, factors in occupancy_terms(profile, sizes):
        for q, o in factors:
            w *= perm(sizes[q], o)
        yield w, factors


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
