"""Packed-lane implementations of the su3 kernels.

The code follows a 128-bit register recipe. A complex value's (re, im) pair
rides in one packed lane group. A contraction kernel broadcasts each
component of one operand across a lane pair (``_mm_set1_pd``), multiplies it
by a pair of the other operand, adds the packed products over the
contraction index in order, and ends with one swap + sign + add that turns
the (re*re, re*im) and (im*re, im*im) lane sums into the complex result.
Lanes here are numpy array rows rather than xmm registers; the arithmetic
sequence per output component is the same, which keeps this backend bitwise
equal to the scalar reference.

The eleven contraction kernels (mat-vec, adjoint mat-vec, the three matrix
products, both half-Wilson kernels, the four-direction kernels and
``mult_su3_mat_vec_sum_4dir``, ``su3_projector``) run one executor,
``_contract``, driven by a gather table (``Contraction``) built once at
import:

- **Broadcast.** A broadcast is a gathered component, as ``_mm_set1_pd``
  loads one component into both lanes. For every contraction step j and
  every packed product, the table names the component of the broadcast
  operand (the matrix, or for ``mult_su3_na`` and ``su3_projector`` the
  conjugated operand) and the component of the pair operand that the
  product multiplies.
- **Packed multiply.** Both operands are gathered with one ``take`` each and
  multiplied in one call, forming every product of every step at once.
- **Adds over j.** The step rows are summed left to right, p0 + p1, then
  + p2 and so on, exactly the order of running accumulators.
- **Swap, sign, add.** The lane swap of the imaginary-part sums is folded
  into the gather: the products of imaginary-part broadcasts read the pair
  with its lanes swapped, so after the adds their sums line up with the
  real-part sums. They are multiplied by the table's sign (+-1, exact), and
  one add writes the result. Adjoint and conjugate variants differ from the
  plain ones only in their tables.
- **Site blocks.** Stacked operands run in blocks of ``BLOCK`` sites, the
  site axis innermost, so every multiply and add is one long contiguous
  loop and a block's temporaries stay in cache. One object is a block of
  one site, so every batch size takes the same path.

Every output component sees the same products, added in the same order, as
in the scalar reference, so blocking and gathering move no bits.

Every kernel accepts operands with any shared leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. The kernels do not check their arguments:
``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points.
The module holds only the kernels' arithmetic and the lane tallies.
"""
from __future__ import annotations

import math
import platform
from dataclasses import dataclass

import numpy as np

from . import validation
from .types import four_destinations, result_array, routine_spec

# Sites per block. The widest tables (the four-direction kernels, 144 packed
# products per site) give 512 * 144 * 8 B = 576 KiB of products in double;
# with the pair operand's gather and the transposed operands a block stays
# inside a 2 MiB L2. Of 256, 512, 1024 and 2048, 512 gave the lowest ns/site
# summed over the tables on 65536-site double operands.
BLOCK = 512


@dataclass(frozen=True, eq=False)
class Contraction:
    """The gather table of one contraction kernel.

    ia, ib: (steps, 2, N) component indices into the flattened broadcast and
    pair operands of each packed product. Row [j, 0] holds the products of
    step j with the real parts of the broadcast entries, row [j, 1] those
    with the imaginary parts; column 2*o + lane is lane `lane` of output
    entry o. The swap of the imaginary-part sums is folded into the pair
    operand's gather: row [j, 1] reads the pair with its lanes swapped, so
    after the adds over j, [1] lines up with [0]. sign: the +-1 that the
    swapped sums take in the combine, an (N, 1) column per dtype. x_size,
    y_size: components per object of the two operands; outputs: N.
    """

    ia: np.ndarray
    ib: np.ndarray
    sign: dict
    x_size: int
    y_size: int
    steps: int
    outputs: int


def _table(grid: tuple, steps: int, x_shape: tuple, x_at, y_shape: tuple, y_at, conj: bool) -> Contraction:
    """The table of c[o] = sum_j x[x_at(o, j)] * y[y_at(o, j)] over the complex output grid.

    x is the broadcast operand, y the pair operand, both with complex entry
    shapes x_shape and y_shape. x_at and y_at map the output index (one array
    per grid axis) and the step j to an entry of x and of y. With conj the
    result is x's conjugate times y: the sign flips after the swap.
    """
    *o, j = np.indices(grid + (steps,))
    xc = np.moveaxis(np.ravel_multi_index(x_at(*o, j), x_shape), -1, 0).reshape(steps, 1, -1, 1)
    yc = np.moveaxis(np.ravel_multi_index(y_at(*o, j), y_shape), -1, 0).reshape(steps, 1, -1, 1)
    part, lane = np.indices((2, 2))
    sign = np.tile([1.0, -1.0] if conj else [-1.0, 1.0], xc.shape[2])[:, None]
    return Contraction(
        ia=(2 * xc + part[:, None]).reshape(steps, 2, -1),
        ib=(2 * yc + (lane ^ part)[:, None]).reshape(steps, 2, -1),
        sign={np.dtype(dt): sign.astype(dt) for dt in (np.float64, np.float32, object)},
        x_size=2 * math.prod(x_shape),
        y_size=2 * math.prod(y_shape),
        steps=steps,
        outputs=sign.size,
    )


_MAT_VEC = _table((3,), 3, (3, 3), lambda i, j: (i, j), (3,), lambda i, j: (j,), conj=False)
_ADJ_MAT_VEC = _table((3,), 3, (3, 3), lambda i, j: (j, i), (3,), lambda i, j: (j,), conj=True)
_FOUR_DIR = _table((4, 3), 3, (4, 3, 3), lambda d, i, j: (d, j, i), (3,), lambda d, i, j: (j,), conj=True)

TABLES: dict[str, Contraction] = {
    "mult_su3_mat_vec": _MAT_VEC,
    "mult_adj_su3_mat_vec": _ADJ_MAT_VEC,
    "mult_su3_nn": _table((3, 3), 3, (3, 3), lambda i, k, j: (i, j), (3, 3), lambda i, k, j: (j, k), conj=False),
    "mult_su3_an": _table((3, 3), 3, (3, 3), lambda i, k, j: (j, i), (3, 3), lambda i, k, j: (j, k), conj=True),
    # b is the conjugated operand, so its components are the broadcast ones.
    "mult_su3_na": _table((3, 3), 3, (3, 3), lambda i, k, j: (k, j), (3, 3), lambda i, k, j: (i, j), conj=True),
    "mult_su3_mat_hwvec": _table((2, 3), 3, (3, 3), lambda h, i, j: (i, j), (2, 3), lambda h, i, j: (h, j), conj=False),
    "mult_adj_su3_mat_hwvec": _table((2, 3), 3, (3, 3), lambda h, i, j: (j, i), (2, 3), lambda h, i, j: (h, j), conj=True),
    "mult_adj_su3_mat_vec_4dir": _FOUR_DIR,
    "mult_adj_su3_mat_4vec": _FOUR_DIR,
    # Step s = 3 * d + j: the products are added direction-major.
    "mult_su3_mat_vec_sum_4dir": _table(
        (3,), 12, (4, 3, 3), lambda i, s: (s // 3, s % 3, i), (4, 3), lambda i, s: (s // 3, s % 3), conj=True
    ),
    "su3_projector": _table((3, 3), 1, (3,), lambda i, k, j: (k,), (3,), lambda i, k, j: (i,), conj=True),
}


def _contract(t: Contraction, x: np.ndarray, y: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Run table t on the broadcast operand x and the pair operand y into c, block by block."""
    n = c.size // t.outputs
    direct = c.flags.c_contiguous
    rows = c.reshape(n, t.outputs) if direct else np.empty((n, t.outputs), c.dtype)
    x, y = x.reshape(n, t.x_size), y.reshape(n, t.y_size)
    sign = t.sign[c.dtype]
    for start in range(0, n, BLOCK):
        stop = start + BLOCK
        xb, yb, cb = (x, y, rows) if n <= BLOCK else (x[start:stop], y[start:stop], rows[start:stop])
        p = xb.T.take(t.ia, 0)
        p *= yb.T.take(t.ib, 0)
        acc = p[0]
        for j in range(1, t.steps):
            acc += p[j]
        im = acc[1]
        im *= sign
        np.add(acc[0], im, out=cb.T)
    if not direct:
        np.copyto(c, rows.reshape(c.shape))
    return c


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    np.add(a, b, out=c)
    return c


def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    validation.check_no_alias(out, a, b)
    return _contract(_MAT_VEC, a, b, result_array(out, b, b.shape))


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    validation.check_no_alias(out, a, b)
    return _contract(_ADJ_MAT_VEC, a, b, result_array(out, b, b.shape))


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    validation.check_no_alias(out, a, b)
    return _contract(TABLES["mult_su3_nn"], a, b, result_array(out, a, a.shape))


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    validation.check_no_alias(out, a, b)
    return _contract(TABLES["mult_su3_an"], a, b, result_array(out, a, a.shape))


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    validation.check_no_alias(out, a, b)
    return _contract(TABLES["mult_su3_na"], b, a, result_array(out, a, a.shape))


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    return _contract(TABLES["mult_su3_mat_hwvec"], a, h, result_array(out, h, h.shape))


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    return _contract(TABLES["mult_adj_su3_mat_hwvec"], a, h, result_array(out, h, h.shape))


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    validation.check_no_alias(out, a4, b)
    return _contract(_FOUR_DIR, a4, b, result_array(out, b, b.shape[:-2] + (4, 3, 2)))


def mult_adj_su3_mat_4vec(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, outs=None) -> np.ndarray | tuple:
    """c_d = adj(a4[d]) * b, four destinations; packed when outs is omitted.

    With ``outs`` the packed result is formed once and copied out.
    """
    if outs is None:
        return mult_adj_su3_mat_vec_4dir(a4, b, out=out)
    return four_destinations(mult_adj_su3_mat_vec_4dir, a4, b, out, outs, axis=-3)


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    validation.check_no_alias(out, a4, b4)
    return _contract(TABLES["mult_su3_mat_vec_sum_4dir"], a4, b4, result_array(out, b4, b4.shape[:-3] + (3, 2)))


def _scalar_factor(s, like: np.ndarray, extra_axes: int):
    s_arr = np.asarray(s, dtype=like.dtype)
    if s_arr.ndim:
        s_arr = s_arr.reshape(s_arr.shape + (1,) * extra_axes)
    return s_arr


def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    c[...] = a + _scalar_factor(s, a, 3) * b
    return c


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, a.shape)
    c[...] = a + _scalar_factor(s, a, 2) * b
    return c


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    validation.check_no_alias(out, a, b)
    return _contract(TABLES["su3_projector"], b, a, result_array(out, a, a.shape[:-2] + (3, 3, 2)))


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
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
