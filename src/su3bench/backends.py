"""The one dispatch path for both kernel backends, and its argument checks.

A backend is a kernel module, whose functions are named after the routines
in ``types.ROUTINE_NAMES``. Both modules' kernels take stacked operands as
they are, the batch axes in front of the per-object shape.

``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points:
they check the operand count, every operand's shape and dtype, and the
result array, from a per-routine plan built once. Each allocates the result
or checks the caller's ``out`` for shape, dtype, writeability and overlap
(``_result``), so every kernel is arithmetic only:
``kernel(*operands, out) -> out``, with ``out`` required and unchecked (the
in-place ``sub_four_su3_vecs`` takes no ``out``, and its first operand must
be writeable). The kernel functions (``Backend.kernels``, ``scalar.*``,
``simd.*``) are unchecked internals: on misshapen or mixed-precision
operands, or a misshapen or overlapping ``out``, they may compute a wrong
result rather than raise.

One overlap rule holds on every path: the array a call writes may share
memory with an operand only when it is that operand (the same first byte,
shape, strides and dtype), whose values every kernel reads before writing
them; ``sub_four_su3_vecs``'s operands 1-4 may share no memory with operand
0. Any other overlap raises ``ValueError`` naming the operand.

The first ``get_backend`` call of a process loads the native extension
(``native``) and binds its dispatchers as every backend's ``apply`` and
``batch_apply`` (``native.dispatchers``): builtin functions bound to the
backend's routine table and generic method, so a call through a handed-out
backend, or a reference taken from one, is one C call from the caller's
first byte. A dispatcher makes the same checks in C for the calls it takes
(C-contiguous exact ndarrays of one native float type; a 0-d or per-set
factor of that type, or a Python float for float64), allocates the result
only once they pass, and runs the kernel's loop. Every other call
(``outs``, another keyword, a positional ``out``, an unknown routine, a
call the checks refuse) it passes with the same arguments to the class's
``apply`` or ``batch_apply``, the generic path: the checks in Python
(``_check``, ``_result``, ``_four_destinations``) and the kernel, which
alone words a rejection. So a dispatcher changes no result and no error
message; where there is no extension, every call runs the generic path.
Importing the package binds nothing.
"""
from __future__ import annotations

from types import MappingProxyType, ModuleType
from typing import Callable, NamedTuple

import numpy as np

from . import scalar, simd
from .types import OPERAND_SHAPES, PRECISIONS, ROUTINE_NAMES, ROUTINES, RoutineSpec, result_shape


_PRECISIONS = tuple(PRECISIONS.values())


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
    precision, and a read-only first operand of the in-place routine or one
    that shares memory with another operand.

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
        if plan.spec.in_place:
            if not operands[0].flags.writeable:
                raise ValueError(f"{name}: operand 0 is read-only; {name} works in place on it")
            for i, _ in plan.arrays[1:]:
                if np.shares_memory(operands[i], operands[0]):
                    raise ValueError(f"{name}: operand {i} shares memory with operand 0, which {name} works in place on")
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
    dtype that shares memory with no operand, unless it is that operand."""
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
    for i, op in enumerate(operands):
        if isinstance(op, np.ndarray) and np.shares_memory(out, op) and not _same_view(out, op):
            raise ValueError(f"{name}: result array overlaps operand {i}; pass that operand itself or separate storage")
    return out


def _same_view(a: np.ndarray, b: np.ndarray) -> bool:
    """Whether a and b are views of the same elements in the same order."""
    return (a.__array_interface__["data"][0] == b.__array_interface__["data"][0]
            and a.shape == b.shape and a.strides == b.strides and a.dtype == b.dtype)


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

        This is the generic path; a handed-out backend's native dispatcher
        runs the calls it takes and passes it the rest.
        """
        plan = self._plan(routine)
        _check(plan, operands, out, ())
        if outs is not None:
            return _four_destinations(plan, operands, out, outs)
        return _run(plan, operands, out, ())

    def batch_apply(self, routine: str, operands, out: np.ndarray | None = None):
        """Apply one kernel independently to each of the stacked operand sets.

        `operands` is a list or tuple. Operand arrays carry the batch axis
        in front of the per-object shape, and operand 0's leading size is
        the number of sets; scalars are (count,) arrays or plain numbers. A
        caller's `out` must be (count,) + the result shape. The kernel runs
        once over all sets, bitwise identical to slicing out each set and
        calling it on that. This is the generic path, as for ``apply``.
        """
        plan = self._plan(routine)
        if not isinstance(operands, (list, tuple)):
            raise ValueError(f"{routine}: operands must be a list or tuple, got {type(operands).__name__}")
        batch = getattr(operands[0], "shape", ())[:1] if operands else ()  # operand 0 is never a real factor
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
_bound = False  # whether the native dispatchers have been bound


def get_backend(kind: str) -> Backend:
    """Backend `kind`. The first call of a process binds the native
    dispatchers as every backend's ``apply`` and ``batch_apply``, loading
    the extension (and on a host's first use building it) first."""
    global _bound
    try:
        backend = _BACKENDS[kind]
    except KeyError:
        raise ValueError(f"unknown backend {kind!r}; expected one of {BACKEND_NAMES}") from None
    if not _bound:
        _bound = True
        from . import native

        for each in _BACKENDS.values():
            vars(each).update(native.dispatchers(each.kind, Backend.apply.__get__(each), Backend.batch_apply.__get__(each)))
    return backend
