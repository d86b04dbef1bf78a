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

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from . import validation

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


class Complex(NamedTuple):
    """One complex value as an explicit (re, im) pair."""

    re: float
    im: float


@dataclass(frozen=True)
class FlopCount:
    """Real floating-point operation tally for one kernel invocation.

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


def precision_of(arr: np.ndarray) -> str:
    """Name of the precision an array is stored in."""
    for name, dt in PRECISIONS.items():
        if arr.dtype == dt:
            return name
    raise ValueError(f"array dtype {arr.dtype} is not a supported precision")


def routine_spec(name: str) -> RoutineSpec:
    try:
        return ROUTINES[name]
    except KeyError:
        raise ValueError(f"unknown routine {name!r}") from None


def result_shape(spec: RoutineSpec, batch_shape: tuple[int, ...] = ()) -> tuple[int, ...]:
    return batch_shape + OPERAND_SHAPES[spec.result]


def result_array(out: np.ndarray | None, like: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """`out` if it has `shape`, or a fresh array of that shape in like's dtype."""
    if out is None:
        return np.empty(shape, dtype=like.dtype)
    if out.shape != shape:
        raise ValueError(f"result array has shape {out.shape}, expected {shape}")
    return out


def four_destinations(packed_4dir, a4: np.ndarray, b: np.ndarray, out, outs, axis: int) -> tuple:
    """The ``outs`` form of ``mult_adj_su3_mat_4vec``, shared by both backends.

    Checks every destination before writing any, then forms the packed result
    with `packed_4dir` and copies its direction `axis` out, one part per
    destination.
    """
    if out is not None:
        raise ValueError("pass either out or outs, not both")
    if len(outs) != 4:
        raise ValueError("outs must hold four destination vectors")
    for dest in outs:
        validation.check_no_alias(dest, a4, b)
        result_array(dest, b, b.shape)
    packed = packed_4dir(a4, b)
    for dest, part in zip(outs, np.moveaxis(packed, axis, 0)):
        np.copyto(dest, part)
    return tuple(outs)


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
    # Accept Complex pairs, python complex, or plain reals.
    if carr.dtype == object:
        flat = [complex(v.re, v.im) if isinstance(v, Complex) else complex(v) for v in carr.ravel()]
        carr = np.array(flat, dtype=np.complex128).reshape(carr.shape)
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


def identity_matrix(precision: str | np.dtype = "double") -> np.ndarray:
    out = np.zeros((3, 3, 2), dtype=dtype_for(precision))
    for i in range(3):
        out[i, i, 0] = 1.0
    return out


def zeros(kind: str, precision: str | np.dtype = "double") -> np.ndarray:
    return np.zeros(OPERAND_SHAPES[kind], dtype=dtype_for(precision))


def to_complex(arr: np.ndarray) -> np.ndarray:
    """View a pair-layout array as a complex array (copy)."""
    return arr[..., 0] + 1j * arr[..., 1]


def from_complex(carr: np.ndarray, precision: str | np.dtype = "double") -> np.ndarray:
    """Split a complex array into pair layout."""
    carr = np.asarray(carr)
    out = np.empty(carr.shape + (2,), dtype=dtype_for(precision))
    out[..., 0] = carr.real
    out[..., 1] = carr.imag
    return out


def batch_count(spec: RoutineSpec, operands, count: int | None = None) -> int:
    """The batch size of stacked operands: the leading size their arrays share.

    Array operands carry the batch axis first; scalar-kind operands may also
    be plain numbers. Raises ValueError if the leading sizes differ or
    disagree with `count`. Per-object shapes are checked once, by
    ``backends.Backend``.
    """
    sizes = {np.shape(op)[0] for op in operands if np.ndim(op)}
    if len(sizes) > 1:
        raise ValueError(f"{spec.name}: inconsistent batch sizes {sorted(sizes)}")
    if sizes:
        inferred = sizes.pop()
        if count is not None and count != inferred:
            raise ValueError(f"count={count} does not match operand batch size {inferred}")
        return inferred
    return 0 if count is None else count


def random_operands(
    routine: str,
    rng: np.random.Generator,
    precision: str | np.dtype = "double",
    batch: int | None = None,
) -> list[np.ndarray]:
    """Draw one operand set (or a batch) with components uniform in [-1, 1]."""
    spec = routine_spec(routine)
    dt = dtype_for(precision)
    prefix = () if batch is None else (batch,)
    ops = []
    for kind in spec.operands:
        shape = prefix + OPERAND_SHAPES[kind]
        ops.append(rng.uniform(-1.0, 1.0, size=shape).astype(dt, copy=False))
    return ops
