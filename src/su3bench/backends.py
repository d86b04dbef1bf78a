"""The one dispatch path for both kernel backends.

A backend is a kernel module, whose functions are named after the routines
in ``types.ROUTINE_NAMES``, plus one fact: where its kernels want the batch
axis of stacked operands. The scalar bodies run site-parallel on site-last
views (``np.moveaxis(op, 0, -1)``); the vector kernels take the stacked
operands as they are.
"""
from __future__ import annotations

from types import MappingProxyType, ModuleType

import numpy as np

from . import scalar, simd
from .types import ROUTINE_NAMES, batch_count, result_array, result_shape, routine_spec


class Backend:
    """Name -> kernel dispatch over one kernel module."""

    def __init__(self, kind: str, module: ModuleType, site_last: bool) -> None:
        self.kind = kind
        self.site_last = site_last
        self.kernels = MappingProxyType({name: getattr(module, name) for name in ROUTINE_NAMES})

    def apply(self, routine: str, *operands, out: np.ndarray | None = None):
        """Invoke one kernel by name on a single operand set."""
        spec = routine_spec(routine)
        kernel = self.kernels[routine]
        if spec.in_place:
            return kernel(*operands)
        return kernel(*operands, out=out)

    def batch_apply(self, routine: str, operands, count: int | None = None, out: np.ndarray | None = None):
        """Apply one kernel independently to each of `count` stacked operand sets.

        Operand arrays carry the batch axis in front of the per-object shape;
        scalars are (count,) arrays or plain numbers. A caller's `out` must be
        (count,) + the result shape. The kernel runs once over all sets,
        bitwise identical to slicing out each set and calling it on that.
        """
        spec = routine_spec(routine)
        n = batch_count(spec, operands, count)
        kernel = self.kernels[routine]
        views = [np.moveaxis(op, 0, -1) if np.ndim(op) else op for op in operands] if self.site_last else operands
        if spec.in_place:
            kernel(*views)
            return operands[0]
        out = result_array(out, operands[0], result_shape(spec, (n,)))  # a scalar operand is never first
        kernel(*views, out=np.moveaxis(out, 0, -1) if self.site_last else out)
        return out


_BACKENDS = {
    "scalar": Backend("scalar", scalar, site_last=True),
    "vector": Backend("vector", simd, site_last=False),
}

BACKEND_NAMES = tuple(_BACKENDS)


def get_backend(kind: str) -> Backend:
    try:
        return _BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend {kind!r}; expected one of {BACKEND_NAMES}") from None
