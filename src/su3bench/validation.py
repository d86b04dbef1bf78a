"""Optional debug check shared by both kernel backends.

Disabled by default so the hot path stays one branch per call. When enabled,
kernels reject result arrays that alias their inputs (except the routine
whose contract is in-place).
"""
from __future__ import annotations

import numpy as np

_enabled = False


def debug_validation(on: bool) -> None:
    """Globally enable or disable the debug checks."""
    global _enabled
    _enabled = bool(on)


def enabled() -> bool:
    return _enabled


def check_no_alias(out: np.ndarray | None, *inputs: np.ndarray) -> None:
    """Reject a result array that shares memory with any input.

    No-op unless debug validation is enabled or ``out`` is None.
    """
    if not _enabled or out is None:
        return
    for arr in inputs:
        if isinstance(arr, np.ndarray) and np.shares_memory(out, arr):
            raise ValueError("result array aliases an input; kernels require distinct storage")
