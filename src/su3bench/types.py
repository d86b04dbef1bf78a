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


def is_natural(value) -> bool:
    """Whether `value` is an int or numpy integer >= 0; a bool is not."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool) and value >= 0


def check_fits(routine: str, precision: str | np.dtype, objects: int, results: int) -> None:
    """Refuse (ValueError) a run of `routine` in `precision` over `objects`
    operand sets whose operand arrays and `results` result arrays (an
    in-place routine's snapshot counts as one) need more bytes than the
    host's physical memory, before anything is allocated: the arrays would
    fit one at a time and the process be killed partway through."""
    check_bytes(routine, objects * _object_bytes(routine, precision, results))


def check_bytes(routine: str, need: int) -> None:
    """``check_fits``' rule for a run of `routine` whose arrays need `need`
    bytes: ValueError where they are more than the host's physical memory,
    read on every call."""
    limit = physical_memory_bytes()
    if limit is not None and need > limit:
        raise ValueError(f"{routine} needs {need} bytes of operand and result arrays, more than the {limit} bytes of physical memory")


@cache
def _object_bytes(routine: str, precision: str | np.dtype, results: int) -> int:
    """Bytes of one operand set of `routine` in `precision` and `results`
    results; cached, as ``check_fits`` asks on every call."""
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
    operands are C-contiguous, writeable views of the one array, converted
    to the precision once; each call draws an array of its own. `batch` is
    None (one set, no batch axis) or an integer >= 0; ValueError for
    anything else, a bool included.

    A seed that is an exact int >= 0, or a list or tuple of them, is drawn
    by the native module's ``operands``, looked up in ``NATIVE``, in one
    pass, with no Generator built: numpy's SeedSequence and PCG64 stream,
    bit for bit, into a new array whose views it cuts in C from the case's
    cached layout. A seed it does not take (``NotImplemented``), any other
    seed, and a host without the module (``not_taken``) take
    ``default_rng``, so their errors are numpy's. A layout of an exact str
    routine and precision and an exact int or None batch is kept in
    ``_layouts``; any other is derived on each call, as a bool or a float
    batch equals and hashes as its int.
    """
    exact = type(routine) is str and type(precision) is str and (batch is None or type(batch) is int)
    layout = _layouts.get((routine, precision, batch)) if exact else None
    if layout is None:
        layout = _cuts(routine, precision, batch)
        if exact and len(_layouts) < _LAYOUTS_KEPT:
            _layouts[routine, precision, batch] = layout
    if type(rng) in (int, list, tuple):  # only these forms can reach the module, so no other loads (or builds) it
        drawn = NATIVE["operands"](rng, layout)
        if drawn is not NotImplemented:
            return drawn
    dt, size, cuts = layout
    u = np.random.default_rng(rng).random(size)
    u *= 2.0
    u -= 1.0
    u = u.astype(dt, copy=False)
    return [u[start:end].reshape(shape) for start, end, shape in cuts]


_LAYOUTS_KEPT = 256  # the most layouts _layouts keeps
_layouts: dict = {}  # (routine, precision, batch) -> _cuts' layout, for an exact str, str and int or None


def _cuts(routine: str, precision: str | np.dtype, batch: int | None) -> tuple:
    """(dtype, components, cuts) of one draw of `routine`'s operands in
    `precision` at `batch`, kept per case in ``_layouts``: each operand is
    components ``start`` to ``end`` of the draw, shaped ``shape``, one
    ``(start, end, shape)`` an operand in operand order. Every number is a
    plain int, a numpy integer batch's too, as the native ``operands``
    reads it."""
    spec = routine_spec(routine)
    dt = dtype_for(precision)
    if batch is not None and not is_natural(batch):
        raise ValueError(f"batch must be None or a non-negative integer, got {batch!r}")
    prefix, objects = ((), 1) if batch is None else ((int(batch),), int(batch))
    cuts, end = [], 0
    for kind in spec.operands:
        end += objects * OPERAND_SIZES[kind]
        cuts.append((end - objects * OPERAND_SIZES[kind], end, prefix + OPERAND_SHAPES[kind]))
    return dt, end, tuple(cuts)


def not_taken(*args):
    """A native export where the extension is unavailable: it takes no call."""
    return NotImplemented


class _NativeEntries(dict):
    """Export name -> the native extension's export of that name (see
    ``native``): a kernel's entry (``trace.entry``), the seeded draw
    (``operands``) or the equivalence check (``check``), looked up on its
    first call, which imports the extension and, on a host's first use,
    builds it; ``not_taken`` where the extension is unavailable. Every
    call the package makes into the extension goes through this map, but
    for the dispatchers ``get_backend`` binds (``native.dispatchers``)."""

    def __missing__(self, name: str):
        from . import native  # not at import: importing the package builds nothing

        module = native.load()
        found = self[name] = not_taken if module is None else getattr(module, name)
        return found


NATIVE = _NativeEntries()
