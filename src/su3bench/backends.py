"""The one dispatch path for both kernel backends, and its argument checks.

A backend is a kernel module, whose functions are named after the routines
in ``types.ROUTINE_NAMES``. Both modules' kernels take stacked operands as
they are, the batch axes in front of the per-object shape.

``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points:
they check the operand count, every operand's shape and dtype, and the
result array, from a per-routine plan built once. Each allocates the result
or checks the caller's ``out`` for shape, dtype and writeability
(``_result``), so every kernel is arithmetic only:
``kernel(*operands, out) -> out``, with ``out`` required and unchecked (the
in-place ``sub_four_su3_vecs`` takes no ``out``, and its first operand must
be writeable). The kernel functions (``Backend.kernels``, ``scalar.*``,
``simd.*``) are unchecked internals: on misshapen or mixed-precision
operands, or a misshapen ``out``, they may compute a wrong result rather
than raise.

On a backend's first ``apply`` or ``batch_apply`` call, which loads the
native extension (``native``), the extension's dispatchers are bound as the
instance's ``apply`` and ``batch_apply`` (``native.dispatchers``), so a
call is one C call from the caller's first byte. A dispatcher makes the same
checks in C for the calls it takes (C-contiguous exact ndarrays of one
native float type; a 0-d or per-set factor of that type, or a Python float
for float64), allocates the result only once they pass, and runs the
kernel's loop. Every other call (``outs``, a ``count``, another keyword, an
unknown routine, a call the checks refuse) it passes with the same
arguments to the class's ``apply`` or ``batch_apply``, the generic path:
the checks in Python (``_check``, ``_result``, ``_four_destinations``) and
the kernel, which alone words a rejection. So a dispatcher changes no
result and no error message; where there is no extension, every call runs
the generic path.

Debug validation (``debug_validation``, off by default so the hot path pays
nothing for it) adds one check at the entry points: a result array the
caller passes may not share memory with an operand. Turning it on unbinds
the dispatchers, so every call runs the generic path; turning it off binds
them again (or, before a backend's first call, leaves that to the call).

The dispatchers are instance attributes, so a reference to
``backend.apply`` or ``backend.batch_apply`` taken before the backend's
first call, or while debug validation is on, is the generic method and
stays so, at about 2 µs a call against 0.13 µs. Take it after the first
call.
"""
from __future__ import annotations

from types import MappingProxyType, ModuleType
from typing import Callable, NamedTuple

import numpy as np

from . import scalar, simd
from .trace import entry
from .types import OPERAND_SHAPES, PRECISIONS, ROUTINE_NAMES, ROUTINES, RoutineSpec, batch_count, result_shape


_PRECISIONS = tuple(PRECISIONS.values())
_debug = False


def debug_validation(on: bool) -> bool:
    """Globally enable or disable the debug checks; returns the previous
    setting. Either way every backend's dispatchers are bound afresh
    (``Backend._bind``)."""
    global _debug
    before, _debug = _debug, bool(on)
    for backend in _BACKENDS.values():
        backend._bind()
    return before


class _Plan(NamedTuple):
    """What one routine's calls are checked against, and its kernel."""

    spec: RoutineSpec
    kernel: Callable
    count: int  # operands
    arrays: tuple  # (position, per-object shape) of each array operand
    factors: tuple[int, ...]  # positions of the real factors
    result: tuple[int, ...]  # per-object result shape


def _plan_for(spec: RoutineSpec, kernel: Callable) -> _Plan:
    kinds = list(enumerate(spec.operands))
    return _Plan(
        spec,
        kernel,
        len(kinds),
        tuple((i, OPERAND_SHAPES[kind]) for i, kind in kinds if kind != "scalar"),
        tuple(i for i, kind in kinds if kind == "scalar"),
        result_shape(spec),
    )


def _check(plan: _Plan, operands, out: np.ndarray | None, batch: tuple[int, ...]) -> None:
    """Reject a wrong operand count, an operand not shaped `batch` + its
    per-object shape (naming a missing batch axis as such), `out` for the
    in-place routine, operands of neither precision, operands of mixed
    precision, and a read-only first operand of the in-place routine.

    A real factor is a real number (bool, integer or float, as numpy reads
    it), or one per set; the kernels convert it to the operands' dtype. A
    caller's result array is checked by ``_result``.
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
                if batch and op.ndim == len(shape) - len(batch):
                    raise ValueError(f"{name}: operand {i} has shape {op.shape}, one object with no batch axis; "
                                     f"expected (count,) + {shape[len(batch):]}")
                raise ValueError(f"{name}: operand {i} has shape {op.shape}, expected {shape}")
            if op.dtype != dtype:
                raise ValueError(f"{name}: operands mix {dtype} and {op.dtype}; pass one precision")
        if plan.spec.in_place and not operands[0].flags.writeable:
            raise ValueError(f"{name}: operand 0 is read-only; {name} works in place on it")
    except AttributeError:
        raise ValueError(f"{name}: array operands must be numpy arrays") from None
    for i in plan.factors:
        factor = np.asarray(operands[i])
        if factor.dtype.kind not in "biuf":
            raise ValueError(f"{name}: real factor has dtype {factor.dtype}; expected a real number")
        if factor.ndim and factor.shape != batch:
            raise ValueError(f"{name}: real factor has shape {factor.shape}, expected () or {batch}")


def _result(plan: _Plan, operands, out: np.ndarray | None, shape: tuple[int, ...]) -> np.ndarray:
    """A fresh result array of `shape` in the operands' dtype, or the
    caller's `out` once it is a writeable numpy array of that shape and
    dtype and, under debug validation, shares no memory with an operand."""
    dtype = operands[0].dtype
    if out is None:
        return np.empty(shape, dtype)
    name = plan.spec.name
    try:
        if out.shape != shape:
            raise ValueError(f"{name}: result array has shape {out.shape}, expected {shape}")
        if out.dtype != dtype:
            raise ValueError(f"{name}: result array has dtype {out.dtype}, the operands {dtype}")
        if not out.flags.writeable:
            raise ValueError(f"{name}: result array is read-only")
    except AttributeError:
        raise ValueError(f"{name}: result arrays must be numpy arrays") from None
    if _debug and any(np.shares_memory(out, operands[i]) for i, _ in plan.arrays):
        raise ValueError(f"{name}: result array aliases an operand; kernels require distinct storage")
    return out


def _run(plan: _Plan, operands, out: np.ndarray | None, batch: tuple[int, ...]):
    """The kernel on operands that ``_check`` passed at `batch`: in place, or
    into ``_result``'s array."""
    if plan.spec.in_place:
        return plan.kernel(*operands)
    return plan.kernel(*operands, out=_result(plan, operands, out, batch + plan.result))


class Backend:
    """Name -> kernel dispatch over one kernel module."""

    def __init__(self, kind: str, module: ModuleType) -> None:
        self.kind = kind
        self.kernels = MappingProxyType({name: getattr(module, name) for name in ROUTINE_NAMES})
        self.routine_trace = module.routine_trace  # routine -> the trace its kernel and native loop run
        self._plans = {name: _plan_for(spec, self.kernels[name]) for name, spec in ROUTINES.items()}
        self._entries = {name: entry(kind, name) for name in ROUTINE_NAMES}
        self._called = False  # until the first call, binding would load the extension early

    def _bind(self) -> None:
        """Bind the native dispatchers as this instance's ``apply`` and
        ``batch_apply`` once it has been called, unless debug validation is
        on; else unbind them, so calls run the class's generic paths."""
        vars(self).pop("apply", None)
        vars(self).pop("batch_apply", None)
        if self._called and not _debug:
            from . import native

            vars(self).update(native.dispatchers(self._entries, Backend.apply.__get__(self), Backend.batch_apply.__get__(self)))

    def _plan(self, routine: str) -> _Plan:
        try:
            return self._plans[routine]
        except KeyError:
            raise ValueError(f"unknown routine {routine!r}") from None

    def apply(self, routine: str, *operands, out: np.ndarray | None = None, outs=None):
        """Invoke one kernel by name on a single operand set.

        ``mult_adj_su3_mat_4vec`` also takes ``outs``, a list or tuple of
        four (3, 2) arrays in place of the packed (4, 3, 2) ``out``: every
        destination is checked as ``out`` would be before any is written,
        then the packed result is copied out, one direction per destination,
        and the tuple returned.

        This is the generic path; once bound, the native dispatcher runs
        the calls it takes and passes it the rest.
        """
        if not self._called:
            self._called = True
            self._bind()
        plan = self._plan(routine)
        _check(plan, operands, out, ())
        if outs is not None:
            return _four_destinations(plan, operands, out, outs)
        return _run(plan, operands, out, ())

    def batch_apply(self, routine: str, operands, count: int | None = None, out: np.ndarray | None = None):
        """Apply one kernel independently to each of `count` stacked operand sets.

        `operands` is a list or tuple. Operand arrays carry the batch axis
        in front of the per-object shape; scalars are (count,) arrays or
        plain numbers. A caller's `out` must be (count,) + the result shape.
        The kernel runs once over all sets, bitwise identical to slicing out
        each set and calling it on that. This is the generic path, as for
        ``apply``.
        """
        if not self._called:
            self._called = True
            self._bind()
        plan = self._plan(routine)
        batch = (batch_count(plan.spec, operands, count),)
        _check(plan, operands, out, batch)
        return _run(plan, operands, out, batch)


def _four_destinations(plan: _Plan, operands, out, outs) -> tuple:
    """The ``outs`` form of ``Backend.apply``."""
    name = plan.spec.name
    if name != "mult_adj_su3_mat_4vec":
        raise ValueError(f"{name} takes no outs; only mult_adj_su3_mat_4vec does")
    if out is not None:
        raise ValueError("pass either out or outs, not both")
    if not isinstance(outs, (list, tuple)) or len(outs) != 4:
        raise ValueError("outs must be a list or tuple of four destination vectors")
    for dest in outs:
        _result(plan, operands, dest, plan.result[1:])
    packed = plan.kernel(*operands, out=_result(plan, operands, None, plan.result))
    for dest, part in zip(outs, packed):
        np.copyto(dest, part)
    return tuple(outs)


_BACKENDS = {
    "scalar": Backend("scalar", scalar),
    "vector": Backend("vector", simd),
}

BACKEND_NAMES = tuple(_BACKENDS)


def get_backend(kind: str) -> Backend:
    try:
        return _BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend {kind!r}; expected one of {BACKEND_NAMES}") from None
