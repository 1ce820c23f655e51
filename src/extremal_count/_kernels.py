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


def count_injective(q_rows, sizes, parents) -> int:
    # embeddings into the blow-up of the graph with rows q_rows at blob
    # sizes `sizes`; a host given by its own rows has sizes all 1
    from . import _pyplace

    return _pyplace.count_injective(q_rows, sizes, parents)


def canonical_mask(rows, n: int) -> int:
    from . import _pykernels

    return _pykernels.canonical_mask(rows, n)


def triangle_free_canonical_masks(n: int, seeds, keep=None) -> list[int]:
    from . import _pykernels

    return _pykernels.triangle_free_canonical_masks(n, seeds, keep)
