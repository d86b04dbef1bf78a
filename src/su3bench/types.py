"""Operand types, precision handling, and the kernel routine registry.

Complex values are stored as interleaved (re, im) pairs in the last axis of
real ndarrays:

    su3 vector          (3, 2)
    su3 matrix          (3, 3, 2)     row-major: [i, j] is row i, column j
    half Wilson vector  (2, 3, 2)     two su3 vectors
    matrix quartet      (4, 3, 3, 2)  one matrix per positive direction
    vector quartet      (4, 3, 2)

All components of one object are adjacent in memory, matching site-struct
storage. Kernels are dtype-generic; precision is carried by the arrays.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cache

import numpy as np

PRECISIONS = {
    "single": np.dtype(np.float32),
    "double": np.dtype(np.float64),
}

# Operand kind -> per-object shape (excluding any batch axes).
OPERAND_SHAPES = {
    "vec": (3, 2),
    "mat": (3, 3, 2),
    "hwvec": (2, 3, 2),
    "mat4": (4, 3, 3, 2),
    "vec4": (4, 3, 2),
    "scalar": (),
}
# Operand kind -> components per object.
OPERAND_SIZES = {kind: math.prod(shape) for kind, shape in OPERAND_SHAPES.items()}


@dataclass(frozen=True)
class FlopCount:
    """Real floating-point operation tally for one kernel invocation, read
    off the scalar reference's trace (``flops.flop_count``).

    Subtractions count as adds. Lane-level data movement is tallied in the
    vector backend's LaneOpCount.
    """

    real_mults: int
    real_adds: int

    def __post_init__(self) -> None:
        for field in ("real_mults", "real_adds"):
            value = getattr(self, field)
            if not isinstance(value, int) or value < 0:
                raise ValueError(f"{field} must be a nonnegative integer, got {value!r}")

    @property
    def total(self) -> int:
        return self.real_mults + self.real_adds


@dataclass(frozen=True)
class RoutineSpec:
    """Signature of one kernel: operand kinds, result kind, aliasing."""

    name: str
    operands: tuple[str, ...]
    result: str
    in_place: bool = False  # result is written into the first operand


ROUTINES: dict[str, RoutineSpec] = {
    spec.name: spec
    for spec in (
        RoutineSpec("add_su3_vector", ("vec", "vec"), "vec"),
        RoutineSpec("mult_adj_su3_mat_hwvec", ("mat", "hwvec"), "hwvec"),
        RoutineSpec("mult_adj_su3_mat_vec", ("mat", "vec"), "vec"),
        RoutineSpec("mult_adj_su3_mat_vec_4dir", ("mat4", "vec"), "vec4"),
        RoutineSpec("mult_adj_su3_mat_4vec", ("mat4", "vec"), "vec4"),
        RoutineSpec("mult_su3_an", ("mat", "mat"), "mat"),
        RoutineSpec("mult_su3_mat_hwvec", ("mat", "hwvec"), "hwvec"),
        RoutineSpec("mult_su3_na", ("mat", "mat"), "mat"),
        RoutineSpec("mult_su3_nn", ("mat", "mat"), "mat"),
        RoutineSpec("mult_su3_mat_vec", ("mat", "vec"), "vec"),
        RoutineSpec("mult_su3_mat_vec_sum_4dir", ("mat4", "vec4"), "vec"),
        RoutineSpec("scalar_mult_add_su3_matrix", ("mat", "mat", "scalar"), "mat"),
        RoutineSpec("scalar_mult_add_su3_vector", ("vec", "vec", "scalar"), "vec"),
        RoutineSpec("su3_projector", ("vec", "vec"), "mat"),
        RoutineSpec("sub_four_su3_vecs", ("vec", "vec", "vec", "vec", "vec"), "vec", in_place=True),
    )
}

ROUTINE_NAMES = tuple(ROUTINES)


def dtype_for(precision: str | np.dtype) -> np.dtype:
    """Resolve a precision name or dtype to the canonical real dtype."""
    if isinstance(precision, str):
        try:
            return PRECISIONS[precision]
        except KeyError:
            raise ValueError(f"unknown precision {precision!r}; expected one of {sorted(PRECISIONS)}") from None
    dt = np.dtype(precision)
    if dt not in PRECISIONS.values():
        raise ValueError(f"unsupported dtype {dt}; expected float32 or float64")
    return dt


def routine_spec(name: str) -> RoutineSpec:
    try:
        return ROUTINES[name]
    except KeyError:
        raise ValueError(f"unknown routine {name!r}") from None


def result_shape(spec: RoutineSpec, batch_shape: tuple[int, ...] = ()) -> tuple[int, ...]:
    return batch_shape + OPERAND_SHAPES[spec.result]


@cache
def physical_memory_bytes() -> int | None:
    """The host's physical memory in bytes, read once; None where the OS
    does not say."""
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


def check_fits(routine: str, precision: str | np.dtype, objects: int, results: int) -> None:
    """Refuse (ValueError) a run of `routine` in `precision` over `objects`
    operand sets whose operand arrays and `results` result arrays (an
    in-place routine's snapshot counts as one) need more bytes than the
    host's physical memory, before anything is allocated: the arrays would
    fit one at a time and the process be killed partway through."""
    need = objects * _object_bytes(routine, precision, results)
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise ValueError(f"{routine} needs {need} bytes of operand and result arrays, more than the {limit} bytes of physical memory")


@cache
def _object_bytes(routine: str, precision: str | np.dtype, results: int) -> int:
    """Bytes of one operand set of `routine` in `precision` and `results`
    results; cached, as ``check_routine`` asks on every call."""
    spec = routine_spec(routine)
    components = sum(OPERAND_SIZES[kind] for kind in spec.operands) + results * OPERAND_SIZES[spec.result]
    return components * dtype_for(precision).itemsize


def _check_finite(name: str, arr: np.ndarray) -> np.ndarray:
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} contains non-finite values")
    return arr


def _pack_complex(values: np.ndarray, shape: tuple[int, ...], dtype: np.dtype, name: str) -> np.ndarray:
    """Build a pair-layout array from complex-valued input of `shape`."""
    carr = np.asarray(values)
    if carr.shape == shape + (2,) and not np.iscomplexobj(carr):
        out = carr.astype(dtype, copy=True)
        return _check_finite(name, out)
    carr = np.asarray(carr, dtype=np.complex128)
    if carr.shape != shape:
        raise ValueError(f"{name} expects shape {shape} (complex) or {shape + (2,)} (re/im pairs), got {carr.shape}")
    out = np.empty(shape + (2,), dtype=dtype)
    out[..., 0] = carr.real
    out[..., 1] = carr.imag
    return _check_finite(name, out)


def su3_vector(values, precision: str | np.dtype = "double") -> np.ndarray:
    """Pack three complex entries into a (3, 2) pair-layout vector."""
    return _pack_complex(values, (3,), dtype_for(precision), "su3_vector")


def su3_matrix(values, precision: str | np.dtype = "double") -> np.ndarray:
    """Pack a 3x3 complex matrix into a (3, 3, 2) pair-layout array."""
    return _pack_complex(values, (3, 3), dtype_for(precision), "su3_matrix")


def half_wilson_vector(values, precision: str | np.dtype = "double") -> np.ndarray:
    """Pack two su3 vectors into a (2, 3, 2) pair-layout array."""
    return _pack_complex(values, (2, 3), dtype_for(precision), "half_wilson_vector")


def random_operands(
    routine: str,
    rng,
    precision: str | np.dtype = "double",
    batch: int | None = None,
) -> list[np.ndarray]:
    """Draw one operand set (or a batch) with components uniform in [-1, 1].

    `rng` is a ``numpy.random.Generator`` or a seed, anything
    ``np.random.default_rng`` takes; a seed draws the bits
    ``default_rng(seed)`` would. One draw serves the set: ``rng.random``
    gives every component's double in operand order, and ``2 * u - 1`` is
    what ``Generator.uniform(-1, 1)`` computes from it, so the components
    are those that one ``uniform`` call per operand would draw. The
    operands are views of the one array, converted to the precision once.

    A seed that is an exact int >= 0, or a list or tuple of them, is drawn
    by the native module in one pass, with no Generator built: numpy's
    SeedSequence and PCG64 stream, bit for bit. Any other seed, or a host
    without the module, takes ``default_rng``, so its errors are numpy's.
    """
    spec = routine_spec(routine)
    dt = dtype_for(precision)
    prefix, objects = ((), 1) if batch is None else ((batch,), batch)
    sizes = [objects * OPERAND_SIZES[kind] for kind in spec.operands]
    size = sum(sizes)
    # Only these forms can reach the module, so no other loads (or builds) it.
    u = _native_uniform(rng, size, dt) if type(rng) in (int, list, tuple) else None
    if u is None:
        u = np.random.default_rng(rng).random(size)
        u *= 2.0
        u -= 1.0
        u = u.astype(dt, copy=False)
    ops, start = [], 0
    for kind, count in zip(spec.operands, sizes):
        ops.append(u[start:start + count].reshape(prefix + OPERAND_SHAPES[kind]))
        start += count
    return ops


_native = None  # su3bench.native, imported on the first draw


def _native_uniform(seed, size: int, dt: np.dtype) -> np.ndarray | None:
    """`size` components of `seed`'s draw, each ``2 * u - 1`` in `dt`, from
    the native module; None where it is unavailable or does not take `seed`."""
    global _native
    if _native is None:
        from . import native as _native  # not at import: counting operations builds nothing
    module = _native.load()
    if module is None:
        return None
    out = np.empty(size, dt)
    return None if module.uniform(seed, out) is NotImplemented else out
