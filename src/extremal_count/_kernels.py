"""Kernel entry points: injective counting, the canonical form and the
triangle-free closure, each a call of its pure-Python kernel.

A kernel module is imported when one of its kernels is first called here
(`_pyplace` for counting, `_pykernels` for the rest), so reading `BACKEND`
compiles this module alone.  `embeddings` and `oracle` call these kernels
through here, where the benchmark's spans wrap them; the maximal
triangle-free growth, the search plan, occupancy profiles and mask helpers
are called in their own modules.
"""

from __future__ import annotations

BACKEND = "python"


def count_injective(host_rows, n_host: int, parents) -> int:
    from . import _pyplace

    return _pyplace.count_injective(host_rows, n_host, parents)


def canonical_mask(rows, n: int) -> int:
    from . import _pykernels

    return _pykernels.canonical_mask(rows, n)


def triangle_free_canonical_masks(n: int, seeds, keep=None) -> list[int]:
    from . import _pykernels

    return _pykernels.triangle_free_canonical_masks(n, seeds, keep)
