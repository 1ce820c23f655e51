"""Kernel dispatch: compiled extension when available, pure Python otherwise.

Set EXTREMAL_COUNT_FORCE_PYTHON=1 to force the pure-Python kernels even when
the extension is built (used by the benchmark and the equivalence tests).
Both backends produce bit-identical results.  The compiled kernels are
limited to hosts with at most 64 vertices, counts below 2**63 and
16-vertex canonical forms; the dispatchers below check these limits.
Triangle-free enumeration has one generator, the pure one in `_pykernels`;
with the extension built it runs on the compiled canonical form.  The
occupancy profile, which gives every H-degree and pair degree, is pure on
both backends.
"""

from __future__ import annotations

import os
from math import perm

from . import _pykernels as pure

if os.environ.get("EXTREMAL_COUNT_FORCE_PYTHON"):
    fast = None
else:
    try:
        from . import _fastkernels as fast
    except ImportError:
        fast = None

HAS_FAST = fast is not None
BACKEND = "compiled" if HAS_FAST else "python"

# staircase mask helpers and the growth step's maximal independent sets
# are backend-independent
mask_from_rows = pure.mask_from_rows
rows_from_mask = pure.rows_from_mask
maximal_independent_subsets = pure.maximal_independent_subsets


def count_injective(host_rows, n_host: int, parents) -> int:
    # the count is at most the falling factorial (n_host)_m
    if HAS_FAST and n_host <= 64 and perm(n_host, len(parents)) < 2 ** 63:
        return fast.count_injective(list(host_rows), n_host, parents)
    return pure.count_injective(host_rows, n_host, parents)


# the occupancy profile over a twin quotient is pure on both backends
occupancy_profile = pure.occupancy_profile
occupancy_total = pure.occupancy_total
occupancy_moments = pure.occupancy_moments
occupancy_second_moment = pure.occupancy_second_moment


def canonical_mask(rows, n: int) -> int:
    if HAS_FAST and n <= 16:
        return fast.canonical_mask(list(rows), n)
    return pure.canonical_mask(rows, n)


def triangle_free_canonical_masks(n: int, parents=None) -> list[int]:
    # one generator on both backends; only its canonical form is compiled
    if HAS_FAST and n <= 16:
        return pure.triangle_free_canonical_masks(n, parents, fast.canonical_mask)
    return pure.triangle_free_canonical_masks(n, parents)
