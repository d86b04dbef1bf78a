"""The one dispatch path for both kernel backends, and its argument checks.

A backend is a kernel module, whose functions are named after the routines
in ``types.ROUTINE_NAMES``, plus one fact: where its kernels want the batch
axis of stacked operands. The scalar bodies run site-parallel on site-last
views (the batch axis moved last, ``op.transpose(1, ..., 0)``); the vector
kernels take the stacked operands as they are.

``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points:
they check the operand count, every operand's shape and dtype, and ``out``,
from a per-routine plan built once. The kernel functions themselves
(``Backend.kernels``, ``scalar.*``, ``simd.*``) are unchecked internals: on
misshapen or mixed-precision operands they may compute a wrong result
rather than raise.
"""
from __future__ import annotations

from types import MappingProxyType, ModuleType
from typing import Callable, NamedTuple

import numpy as np

from . import scalar, simd
from .types import OPERAND_SHAPES, PRECISIONS, ROUTINE_NAMES, ROUTINES, RoutineSpec, batch_count, result_array, result_shape


_PRECISIONS = tuple(PRECISIONS.values())


class _Plan(NamedTuple):
    """What one routine's calls are checked against, and its kernel."""

    spec: RoutineSpec
    kernel: Callable
    count: int  # operands
    arrays: tuple  # (position, per-object shape) of each array operand
    factors: tuple[int, ...]  # positions of the real factors


def _plan_for(spec: RoutineSpec, kernel: Callable) -> _Plan:
    kinds = list(enumerate(spec.operands))
    return _Plan(
        spec,
        kernel,
        len(kinds),
        tuple((i, OPERAND_SHAPES[kind]) for i, kind in kinds if kind != "scalar"),
        tuple(i for i, kind in kinds if kind == "scalar"),
    )


def _check(plan: _Plan, operands, out: np.ndarray | None, batch: tuple[int, ...]) -> None:
    """Reject a wrong operand count, an operand not shaped `batch` + its
    per-object shape, `out` for the in-place routine, operands of neither
    precision, and operands or `out` of mixed precision.

    A real factor is a number, or one per set; the kernels convert it to the
    operands' dtype. The shape of `out` is checked where the result is
    allocated (``types.result_array``).
    """
    name = plan.spec.name
    if len(operands) != plan.count:
        raise ValueError(f"{name} takes {plan.count} operands, got {len(operands)}")
    if out is not None and plan.spec.in_place:
        raise ValueError(f"{name} works in place on its first operand and takes no out")
    try:
        dtype = operands[0].dtype  # a real factor is never first
        if dtype not in _PRECISIONS:
            raise ValueError(f"{name}: operands have dtype {dtype}; expected float32 or float64")
        for i, shape in plan.arrays if not batch else [(i, batch + shape) for i, shape in plan.arrays]:
            op = operands[i]
            if op.shape != shape:
                raise ValueError(f"{name}: operand {i} has shape {op.shape}, expected {shape}")
            if op.dtype != dtype:
                raise ValueError(f"{name}: operands mix {dtype} and {op.dtype}; pass one precision")
    except AttributeError:
        raise ValueError(f"{name}: array operands must be numpy arrays") from None
    for i in plan.factors:
        if np.ndim(operands[i]) and np.shape(operands[i]) != batch:
            raise ValueError(f"{name}: real factor has shape {np.shape(operands[i])}, expected () or {batch}")
    if out is not None and out.dtype != dtype:
        raise ValueError(f"{name}: out has dtype {out.dtype}, the operands {dtype}")


def _site_last(x: np.ndarray) -> np.ndarray:
    """A view of x with its leading (batch) axis moved last."""
    return x.transpose(*range(1, x.ndim), 0)


class Backend:
    """Name -> kernel dispatch over one kernel module."""

    def __init__(self, kind: str, module: ModuleType, site_last: bool) -> None:
        self.kind = kind
        self.site_last = site_last
        self.kernels = MappingProxyType({name: getattr(module, name) for name in ROUTINE_NAMES})
        self._plans = {name: _plan_for(spec, self.kernels[name]) for name, spec in ROUTINES.items()}

    def _plan(self, routine: str) -> _Plan:
        try:
            return self._plans[routine]
        except KeyError:
            raise ValueError(f"unknown routine {routine!r}") from None

    def apply(self, routine: str, *operands, out: np.ndarray | None = None):
        """Invoke one kernel by name on a single operand set."""
        plan = self._plan(routine)
        _check(plan, operands, out, ())
        if plan.spec.in_place:
            return plan.kernel(*operands)
        return plan.kernel(*operands, out=out)

    def batch_apply(self, routine: str, operands, count: int | None = None, out: np.ndarray | None = None):
        """Apply one kernel independently to each of `count` stacked operand sets.

        Operand arrays carry the batch axis in front of the per-object shape;
        scalars are (count,) arrays or plain numbers. A caller's `out` must be
        (count,) + the result shape. The kernel runs once over all sets,
        bitwise identical to slicing out each set and calling it on that.
        """
        plan = self._plan(routine)
        n = batch_count(plan.spec, operands, count)
        _check(plan, operands, out, (n,))
        views = [_site_last(op) if np.ndim(op) else op for op in operands] if self.site_last else operands
        if plan.spec.in_place:
            plan.kernel(*views)
            return operands[0]
        out = result_array(out, operands[0], result_shape(plan.spec, (n,)))
        plan.kernel(*views, out=_site_last(out) if self.site_last else out)
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
