"""Packed-lane implementations of the su3 kernels.

The code follows a 128-bit register recipe: a complex value's (re, im) pair
rides in one packed lane group; each matrix element contributes through two
broadcasts (its real and its imaginary part), packed multiplies against the
untouched pair, and packed adds into two running accumulators; one
swap + sign-flip + add at the end turns the accumulated (re*re, re*im) and
(im*re, im*im) lane sums into the complex result. Lanes here are numpy array
axes rather than xmm registers, and a leading batch axis widens every lane so
one call covers many operand sets; the arithmetic sequence per output
component is identical either way, which keeps this backend bitwise equal to
the scalar reference.

Conjugate variants reuse the recipe: adjoint-on-the-left broadcasts column
elements instead of row elements and flips the sign applied after the swap;
conjugate-on-the-right broadcasts the conjugated operand's components so the
swap lands on its imaginary-part sums.

Every kernel accepts operands with any (shared) leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. The module holds only the kernels' arithmetic and
the lane tallies; dispatch by routine name lives in ``backends``.

Composite kernels run the recipe once per call, not once per part. The
half-Wilson kernels view the matrix with one more batch axis
(``a[..., None, :, :, :]``) so it broadcasts against both halves; the
four-direction kernels view the vector that way (``b[..., None, :, :]``) so it
broadcasts against the four matrices. The half or direction then rides along
as a batch axis of one mat-vec pass. ``mult_su3_mat_vec_sum_4dir`` forms all
of its packed products in one broadcast multiply and adds them direction-major
in the order the one-direction-at-a-time recipe would. ``mult_adj_su3_mat_4vec``
with separate destinations computes the packed result and copies it out.
Broadcasting only repeats operands, so every output component still sees the
same products in the same order and stays bitwise equal to the per-part loop.

The adjoint mat-vec recipe (``mult_adj_su3_mat_vec``, its half-Wilson and
four-direction forms) keeps its two accumulators stacked, the real-part and
imaginary-part broadcasts on an axis of their own, so each contraction step
is one multiply and one add; the sums and their order are those of two
accumulators. The plain mat-vec recipe and the matrix products keep two
separate accumulators: stacked, they were slower on 16^4 fields.
"""
from __future__ import annotations

import platform
from dataclasses import dataclass

import numpy as np

from . import validation
from .types import OPERAND_SHAPES, result_array, routine_spec

_SIGNS: dict[tuple, np.ndarray] = {}


def _sign(dtype: np.dtype, mode: str) -> np.ndarray:
    # "plain": (rr - ii, ri + ir); "conj": (rr + ii, ri - ir)
    key = (dtype, mode)
    cached = _SIGNS.get(key)
    if cached is None:
        pair = [-1.0, 1.0] if mode == "plain" else [1.0, -1.0]
        cached = _SIGNS[key] = np.array(pair, dtype=dtype)
    return cached


def _combine(acc1: np.ndarray, acc2: np.ndarray, mode: str, out: np.ndarray) -> None:
    # acc1 holds the re*? lane sums, acc2 the im*? lane sums of the
    # broadcast operand; swap acc2's lanes, flip one sign, add once.
    np.add(acc1, acc2[..., ::-1] * _sign(acc1.dtype, mode), out=out)


def _check_shapes(name: str, **arrays) -> None:
    prefixes = set()
    for label, (arr, kind) in arrays.items():
        obj = OPERAND_SHAPES[kind]
        nd = len(obj)
        if arr.ndim < nd or arr.shape[arr.ndim - nd:] != obj:
            raise ValueError(f"{name}: operand {label} has shape {arr.shape}, expected (...,) + {obj}")
        prefixes.add(arr.shape[: arr.ndim - nd])
    if len(prefixes) > 1:
        raise ValueError(f"{name}: operands disagree on batch shape: {sorted(prefixes)}")


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    _check_shapes("add_su3_vector", a=(a, "vec"), b=(b, "vec"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    np.add(a, b, out=c)
    return c


def _mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # The mat-vec recipe, unchecked; a's and b's batch shapes broadcast to out's.
    b0 = b[..., None, 0, :]
    acc1 = a[..., :, 0, 0:1] * b0
    acc2 = a[..., :, 0, 1:2] * b0
    for j in (1, 2):
        bj = b[..., None, j, :]
        acc1 += a[..., :, j, 0:1] * bj
        acc2 += a[..., :, j, 1:2] * bj
    _combine(acc1, acc2, "plain", out)


def _adj_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> None:
    # As _mat_vec for adj(a): broadcast column elements, conj sign; the two
    # accumulators stacked, acc[..., i, part, lane] = sum_j a[j][i][part] * b[j][lane].
    acc = a[..., 0, :, :, None] * b[..., None, 0, None, :]
    for j in (1, 2):
        acc += a[..., j, :, :, None] * b[..., None, j, None, :]
    _combine(acc[..., 0, :], acc[..., 1, :], "conj", out)


def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    _check_shapes("mult_su3_mat_vec", a=(a, "mat"), b=(b, "vec"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, b, b.shape)
    _mat_vec(a, b, c)
    return c


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    _check_shapes("mult_adj_su3_mat_vec", a=(a, "mat"), b=(b, "vec"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, b, b.shape)
    _adj_mat_vec(a, b, c)
    return c


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    _check_shapes("mult_su3_nn", a=(a, "mat"), b=(b, "mat"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    acc1 = a[..., :, 0, 0, None, None] * b[..., None, 0, :, :]
    acc2 = a[..., :, 0, 1, None, None] * b[..., None, 0, :, :]
    for j in (1, 2):
        acc1 = acc1 + a[..., :, j, 0, None, None] * b[..., None, j, :, :]
        acc2 = acc2 + a[..., :, j, 1, None, None] * b[..., None, j, :, :]
    _combine(acc1, acc2, "plain", c)
    return c


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    _check_shapes("mult_su3_an", a=(a, "mat"), b=(b, "mat"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    acc1 = a[..., 0, :, 0, None, None] * b[..., None, 0, :, :]
    acc2 = a[..., 0, :, 1, None, None] * b[..., None, 0, :, :]
    for j in (1, 2):
        acc1 = acc1 + a[..., j, :, 0, None, None] * b[..., None, j, :, :]
        acc2 = acc2 + a[..., j, :, 1, None, None] * b[..., None, j, :, :]
    _combine(acc1, acc2, "conj", c)
    return c


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    _check_shapes("mult_su3_na", a=(a, "mat"), b=(b, "mat"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    # b is the conjugated operand: broadcast its components so the final
    # swap lands on its imaginary-part sums.
    acc1 = b[..., None, :, 0, 0, None] * a[..., :, None, 0, :]
    acc2 = b[..., None, :, 0, 1, None] * a[..., :, None, 0, :]
    for j in (1, 2):
        acc1 = acc1 + b[..., None, :, j, 0, None] * a[..., :, None, j, :]
        acc2 = acc2 + b[..., None, :, j, 1, None] * a[..., :, None, j, :]
    _combine(acc1, acc2, "conj", c)
    return c


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = a * h[k] for both halves k, the half as one more batch axis."""
    _check_shapes("mult_su3_mat_hwvec", a=(a, "mat"), h=(h, "hwvec"))
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, h.shape)
    _mat_vec(a[..., None, :, :, :], h, c)
    return c


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k, the half as one more batch axis."""
    _check_shapes("mult_adj_su3_mat_hwvec", a=(a, "mat"), h=(h, "hwvec"))
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, h.shape)
    _adj_mat_vec(a[..., None, :, :, :], h, c)
    return c


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions, the direction as one more batch axis."""
    _check_shapes("mult_adj_su3_mat_vec_4dir", a4=(a4, "mat4"), b=(b, "vec"))
    validation.check_no_alias(out, a4, b)
    c = result_array(out, b, b.shape[:-2] + (4, 3, 2))
    _adj_mat_vec(a4, b[..., None, :, :], c)
    return c


def mult_adj_su3_mat_4vec(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, outs=None) -> np.ndarray | tuple:
    """c_d = adj(a4[d]) * b, four destinations; packed when outs is omitted.

    With ``outs`` the packed result is formed once and copied out.
    """
    if outs is None:
        return mult_adj_su3_mat_vec_4dir(a4, b, out=out)
    if out is not None:
        raise ValueError("pass either out or outs, not both")
    if len(outs) != 4:
        raise ValueError("outs must hold four destination vectors")
    _check_shapes("mult_adj_su3_mat_4vec", a4=(a4, "mat4"), b=(b, "vec"))
    for dest in outs:
        validation.check_no_alias(dest, a4, b)
        result_array(dest, b, b.shape)
    packed = mult_adj_su3_mat_vec_4dir(a4, b)
    for d, dest in enumerate(outs):
        np.copyto(dest, packed[..., d, :, :])
    return tuple(outs)


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major.

    One broadcast multiply forms all 72 packed products, the real-part and
    imaginary-part broadcasts side by side on an axis of their own; the
    products are then added in (direction, row) order, so both lane sums
    round exactly as in the one-direction-at-a-time recipe.
    """
    _check_shapes("mult_su3_mat_vec_sum_4dir", a4=(a4, "mat4"), b4=(b4, "vec4"))
    validation.check_no_alias(out, a4, b4)
    c = result_array(out, b4, b4.shape[:-3] + (3, 2))
    # p[..., 3 * d + j, i, part, lane] = a4[d][j][i][part] * b4[d][j][lane]
    p = (a4[..., :, None] * b4[..., :, :, None, None, :]).reshape(b4.shape[:-3] + (12, 3, 2, 2))
    acc = p[..., 0, :, :, :] + p[..., 1, :, :, :]
    for k in range(2, 12):
        acc += p[..., k, :, :, :]
    _combine(acc[..., 0, :], acc[..., 1, :], "conj", c)
    return c


def _scalar_factor(s, like: np.ndarray, extra_axes: int):
    s_arr = np.asarray(s, dtype=like.dtype)
    if s_arr.ndim:
        s_arr = s_arr.reshape(s_arr.shape + (1,) * extra_axes)
    return s_arr


def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    _check_shapes("scalar_mult_add_su3_matrix", a=(a, "mat"), b=(b, "mat"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    c[...] = a + _scalar_factor(s, a, 3) * b
    return c


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    _check_shapes("scalar_mult_add_su3_vector", a=(a, "vec"), b=(b, "vec"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    c[...] = a + _scalar_factor(s, a, 2) * b
    return c


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    _check_shapes("su3_projector", a=(a, "vec"), b=(b, "vec"))
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape[:-2] + (3, 3, 2))
    ap = a[..., :, None, :]
    acc1 = b[..., None, :, 0, None] * ap
    acc2 = b[..., None, :, 1, None] * ap
    _combine(acc1, acc2, "conj", c)
    return c


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    _check_shapes("sub_four_su3_vecs", a=(a, "vec"), b1=(b1, "vec"), b2=(b2, "vec"), b3=(b3, "vec"), b4=(b4, "vec"))
    for b in (b1, b2, b3, b4):
        np.subtract(a, b, out=a)
    return a


@dataclass(frozen=True)
class LaneGroup:
    """One packed register's worth of same-precision lanes."""

    width_bits: int
    element_bits: int

    def __post_init__(self) -> None:
        if self.element_bits not in (32, 64):
            raise ValueError(f"element_bits must be 32 or 64, got {self.element_bits}")
        if self.width_bits <= 0 or self.width_bits % self.element_bits:
            raise ValueError(f"width_bits {self.width_bits} is not a positive multiple of element_bits {self.element_bits}")

    @property
    def lanes(self) -> int:
        return self.width_bits // self.element_bits


def lane_group(precision: str) -> LaneGroup:
    """The 128-bit lane group backing a precision: 2 double or 4 single lanes."""
    bits = {"single": 32, "double": 64}
    if precision not in bits:
        raise ValueError(f"unknown precision {precision!r}")
    return LaneGroup(128, bits[precision])


@dataclass(frozen=True)
class LaneOpCount:
    """Packed-lane operation tally for one kernel invocation.

    broadcasts: scalar components broadcast across a lane pair (matrix
    elements, or the conjugated operand's components, or the real factor s).
    packed_mults / packed_adds: two-lane multiplies and add-class ops,
    including the final combine add; each stands for two real operations.
    swaps: lane swaps feeding the combine. negates: the packed sign flip
    folded into the scalar backend's combining subtraction; not a
    floating-point add.
    """

    broadcasts: int
    packed_mults: int
    packed_adds: int
    swaps: int
    negates: int


LANE_OPS: dict[str, LaneOpCount] = {
    "add_su3_vector": LaneOpCount(0, 0, 3, 0, 0),
    "mult_adj_su3_mat_hwvec": LaneOpCount(36, 36, 30, 6, 6),
    "mult_adj_su3_mat_vec": LaneOpCount(18, 18, 15, 3, 3),
    "mult_adj_su3_mat_vec_4dir": LaneOpCount(72, 72, 60, 12, 12),
    "mult_adj_su3_mat_4vec": LaneOpCount(72, 72, 60, 12, 12),
    "mult_su3_an": LaneOpCount(18, 54, 45, 9, 9),
    "mult_su3_mat_hwvec": LaneOpCount(36, 36, 30, 6, 6),
    "mult_su3_na": LaneOpCount(18, 54, 45, 9, 9),
    "mult_su3_nn": LaneOpCount(18, 54, 45, 9, 9),
    "mult_su3_mat_vec": LaneOpCount(18, 18, 15, 3, 3),
    "mult_su3_mat_vec_sum_4dir": LaneOpCount(72, 72, 69, 3, 3),
    "scalar_mult_add_su3_matrix": LaneOpCount(1, 9, 9, 0, 0),
    "scalar_mult_add_su3_vector": LaneOpCount(1, 3, 3, 0, 0),
    "su3_projector": LaneOpCount(6, 18, 9, 9, 9),
    "sub_four_su3_vecs": LaneOpCount(0, 0, 12, 0, 0),
}


def lane_op_count(routine: str) -> LaneOpCount:
    """Static packed-lane operation tally for one kernel invocation."""
    routine_spec(routine)
    return LANE_OPS[routine]


def capability() -> dict:
    """Report what backs the packed lanes on this host."""
    features: list[str] = []
    for mod in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = __import__(mod, fromlist=["__cpu_features__"])
            features = sorted(k for k, v in umath.__cpu_features__.items() if v)
            break
        except (ImportError, AttributeError):
            continue
    return {
        "backend": "array-lane emulation",
        "width_bits": 128,
        "lanes": {"single": lane_group("single").lanes, "double": lane_group("double").lanes},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": features,
    }
