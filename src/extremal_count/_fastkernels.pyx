# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled kernels for the hot inner loops: injective-embedding counting
and canonical-form minimization.

Mirrors `_pyplace.count_injective` and `_pykernels.canonical_mask` exactly
(same mask packing); see `_pykernels` for the conventions.  `_kernels`
reports the backend and dispatches here.  Triangle-free enumeration has
no compiled twin: the pure generator runs on the compiled
`canonical_mask`.  H-degrees come from the pure occupancy profile on
both backends.  Limits: hosts up to 64 vertices and counts below 2**63
for the counter, 16 vertices for canonical forms.  Callers dispatch to
the pure kernels beyond these.
"""

from libc.stdint cimport uint64_t, uint32_t
from cpython.mem cimport PyMem_Malloc, PyMem_Free

cdef extern from *:
    """
    static inline int ec_popcount(unsigned long long x) {
        return __builtin_popcountll(x);
    }
    static inline int ec_ctz(unsigned long long x) {
        return __builtin_ctzll(x);
    }
    """
    int ec_popcount(unsigned long long x) nogil
    int ec_ctz(unsigned long long x) nogil


# ---------------------------------------------------------------------------
# injective embedding counting
# ---------------------------------------------------------------------------

cdef uint64_t _count_rec(int level, int m, uint64_t used, uint64_t full,
                         uint64_t* host_rows, int* parent_flat,
                         int* parent_start, int* sel) nogil:
    cdef uint64_t cand = full & ~used
    cdef uint64_t total = 0
    cdef uint64_t bit
    cdef int i
    for i in range(parent_start[level], parent_start[level + 1]):
        cand &= host_rows[sel[parent_flat[i]]]
    if level == m - 1:
        return <uint64_t> ec_popcount(cand)
    while cand:
        bit = cand & (0 - cand)
        sel[level] = ec_ctz(bit)
        total += _count_rec(level + 1, m, used | bit, full,
                            host_rows, parent_flat, parent_start, sel)
        cand &= cand - 1
    return total


cdef int* _flatten_parents(list parents_py, int m, int* parent_start) except NULL:
    """Copy the per-position parent lists into one malloc'd array (freed by
    the caller); position i's parents are parent_start[i]..parent_start[i+1]."""
    cdef int i, j, k = 0, total_parents = 0
    for i in range(m):
        total_parents += len(parents_py[i])
    cdef int* parent_flat = <int*> PyMem_Malloc(sizeof(int) * (total_parents if total_parents else 1))
    if not parent_flat:
        raise MemoryError()
    for i in range(m):
        parent_start[i] = k
        for j in parents_py[i]:
            parent_flat[k] = j
            k += 1
    parent_start[m] = k
    return parent_flat


def count_injective(list host_rows_py, int n_host, list parents_py):
    """Injective embedding count."""
    cdef int m = len(parents_py)
    if m == 0:
        return 1
    if m > n_host or n_host > 64:
        if m > n_host:
            return 0
        raise ValueError("compiled kernel supports hosts up to 64 vertices")
    cdef uint64_t host_rows[64]
    cdef int sel[64]
    cdef int parent_start[65]
    cdef int i
    for i in range(n_host):
        host_rows[i] = <uint64_t> host_rows_py[i]
    cdef int* parent_flat = _flatten_parents(parents_py, m, parent_start)
    cdef uint64_t full = (<uint64_t> 1 << n_host) - 1 if n_host < 64 else <uint64_t> 0xFFFFFFFFFFFFFFFF
    cdef uint64_t result = 0
    try:
        with nogil:
            result = _count_rec(0, m, 0, full, host_rows,
                                parent_flat, parent_start, sel)
    finally:
        PyMem_Free(parent_flat)
    return result


# ---------------------------------------------------------------------------
# canonical forms (n <= 16)
# ---------------------------------------------------------------------------

cdef void _column_blocks_c(uint32_t* rows, int n, uint32_t* out) nogil:
    cdef int i, j
    cdef uint32_t b
    for j in range(1, n):
        b = 0
        for i in range(j):
            b = (b << 1) | ((rows[i] >> j) & 1)
        out[j - 1] = b


cdef uint32_t _block_of(uint32_t* rows, int* perm, int v, int k) nogil:
    cdef uint32_t rv = rows[v]
    cdef uint32_t b = 0
    cdef int i
    for i in range(k):
        b = (b << 1) | ((rv >> perm[i]) & 1)
    return b


cdef void _greedy_completion(int k, int n, uint32_t used, uint32_t* rows,
                             int* perm, uint32_t* best) nogil:
    cdef int kk, v, best_v
    cdef uint32_t b, best_b
    for kk in range(k, n):
        best_b = <uint32_t> 0xFFFFFFFF
        best_v = -1
        for v in range(n):
            if (used >> v) & 1:
                continue
            b = _block_of(rows, perm, v, kk)
            if b < best_b:
                best_b = b
                best_v = v
        perm[kk] = best_v
        used |= <uint32_t> 1 << best_v
        best[kk - 1] = best_b


cdef void _canon_rec(int k, int n, uint32_t used, uint32_t* rows,
                     int* perm, uint32_t* best) nogil:
    cdef int v
    cdef uint32_t b
    if k == n:
        return
    for v in range(n):
        if (used >> v) & 1:
            continue
        b = _block_of(rows, perm, v, k)
        if b > best[k - 1]:
            continue
        perm[k] = v
        if b < best[k - 1]:
            best[k - 1] = b
            _greedy_completion(k + 1, n, used | (<uint32_t> 1 << v), rows, perm, best)
        _canon_rec(k + 1, n, used | (<uint32_t> 1 << v), rows, perm, best)


def canonical_mask(list rows_py, int n):
    if n <= 1:
        return 0
    if n > 16:
        raise ValueError("compiled kernel supports up to 16 vertices")
    cdef uint32_t rows[16]
    cdef uint32_t best[16]
    cdef int perm[16]
    cdef int i, v0
    for i in range(n):
        rows[i] = <uint32_t> rows_py[i]
    _column_blocks_c(rows, n, best)
    with nogil:
        for v0 in range(n):
            perm[0] = v0
            _canon_rec(1, n, <uint32_t> 1 << v0, rows, perm, best)
    mask = 0
    for i in range(1, n):
        mask = (mask << i) | int(best[i - 1])
    return mask
