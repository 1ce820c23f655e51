"""Kernel dispatch: compiled extension when available, pure Python otherwise.

Set EXTREMAL_COUNT_FORCE_PYTHON=1 to run the pure-Python kernels even when
the extension is built, so that the pure backend can be measured and
tested beside the compiled one.  Both backends produce bit-identical
results.  The compiled kernels are limited to hosts with at most 64
vertices, counts below 2**63 and 16-vertex canonical forms; the
dispatchers below check these limits.

This module holds only the switch: injective counting and the canonical
form, each with its compiled twin, and the two enumeration entry points,
which pass the compiled canonical form to the pure enumerators.  The pure
kernels are imported when one of them is first called: counting from
`_pyplace`, canonical forms and enumeration from `_pykernels`.  Kernels
with no compiled twin (the search plan, occupancy profiles, the staircase
mask helpers) are imported from their own modules, never through here.
"""

from __future__ import annotations

import os
from math import perm

if os.environ.get("EXTREMAL_COUNT_FORCE_PYTHON"):
    fast = None
else:
    try:
        from . import _fastkernels as fast
    except ImportError:
        fast = None

HAS_FAST = fast is not None
BACKEND = "compiled" if HAS_FAST else "python"


def _pure():
    """The pure enumeration kernels, imported on first use."""
    from . import _pykernels

    return _pykernels


def count_injective(host_rows, n_host: int, parents) -> int:
    # the count is at most the falling factorial (n_host)_m
    if HAS_FAST and n_host <= 64 and perm(n_host, len(parents)) < 2 ** 63:
        return fast.count_injective(list(host_rows), n_host, parents)
    from . import _pyplace

    return _pyplace.count_injective(host_rows, n_host, parents)


def canonical_mask(rows, n: int) -> int:
    if HAS_FAST and n <= 16:
        return fast.canonical_mask(list(rows), n)
    return _pure().canonical_mask(rows, n)


def _enumeration_canon(n: int):
    # enumeration is pure on both backends; only its canonical form is compiled
    return fast.canonical_mask if HAS_FAST and n <= 16 else None


def maximal_triangle_free_growth(n: int, parents) -> list[int]:
    return _pure().maximal_triangle_free_growth(n, parents, _enumeration_canon(n))


def triangle_free_canonical_masks(n: int, seeds, keep=None) -> list[int]:
    return _pure().triangle_free_canonical_masks(n, seeds, keep,
                                                 _enumeration_canon(n))
