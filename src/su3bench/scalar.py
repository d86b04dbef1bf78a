"""Scalar reference implementations of the fifteen su3 kernels.

Every kernel is straight-line real arithmetic on (re, im) pairs in the
arrays' own precision. Each operand element is read into a local exactly
once per call and the expressions then work on those locals, with the same
operands, order and association as a read-at-every-use form, so reading once
changes no rounding and no operation count. This backend is the correctness
reference and the substrate for operation counting: any object supporting
``*``, ``+``, ``-`` can flow through it.

That includes whole arrays of sites. A kernel also accepts operands with
extra trailing axes after the per-object shape, and ``batch_apply`` uses
this: it evaluates the same bodies once, site-parallel, on site-last views
of the stacked operands (``np.moveaxis(op, 0, -1)``), so every expression
becomes one elementwise numpy operation over all sites. Elementwise
operations round each site exactly as the scalar ones do, so the batch
result is bitwise equal to calling ``apply`` site by site. Scalar bench rows
with ``batch_sites > 1`` time this site-parallel path.

Summation convention: each output component of a complex contraction
accumulates the four real product sums (re*re, re*im, im*re, im*im)
separately, left to right over the contraction index, and combines them with
a single add or subtract at the end. The vector backend evaluates its packed
lanes in the same order, so the two backends round identically; keeping one
canonical association is what makes tight cross-backend tolerances
meaningful.

Conjugation conventions (adj = conjugate transpose):
    mult_su3_nn          c[i][k] = sum_j a[i][j] * b[j][k]
    mult_su3_na          c[i][k] = sum_j a[i][j] * conj(b[k][j])
    mult_su3_an          c[i][k] = sum_j conj(a[j][i]) * b[j][k]
    mult_adj_su3_mat_vec c[i]    = sum_j conj(a[j][i]) * b[j]
    su3_projector        c[i][j] = a[i] * conj(b[j])
"""
from __future__ import annotations

import numpy as np

from . import validation
from .types import batch_count, check_batch_out, result_shape, routine_spec


def _result(out: np.ndarray | None, like: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    if out is None:
        return np.empty(shape, dtype=like.dtype)
    if out.shape != shape:
        raise ValueError(f"result array has shape {out.shape}, expected {shape}")
    return out


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 2) + a.shape[2:])
    for i in range(3):
        c[i, 0] = a[i, 0] + b[i, 0]
        c[i, 1] = a[i, 1] + b[i, 1]
    return c


def _vec(v: np.ndarray) -> tuple:
    """The six components of a vector, re/im per entry, each read once."""
    return v[0, 0], v[0, 1], v[1, 0], v[1, 1], v[2, 0], v[2, 1]


def _row(m: np.ndarray, i: int) -> tuple:
    """The six components of m[i][0..2], re/im per entry, each read once."""
    return m[i, 0, 0], m[i, 0, 1], m[i, 1, 0], m[i, 1, 1], m[i, 2, 0], m[i, 2, 1]


def _col(m: np.ndarray, k: int) -> tuple:
    """The six components of m[0..2][k], re/im per entry, each read once."""
    return m[0, k, 0], m[0, k, 1], m[1, k, 0], m[1, k, 1], m[2, k, 0], m[2, k, 1]


def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    validation.check_no_alias(out, a, b)
    c = _result(out, b, (3, 2) + b.shape[2:])
    b0r, b0i, b1r, b1i, b2r, b2i = _vec(b)
    for i in range(3):
        a0r, a0i, a1r, a1i, a2r, a2i = _row(a, i)
        rr = a0r * b0r + a1r * b1r + a2r * b2r
        ri = a0r * b0i + a1r * b1i + a2r * b2i
        ir = a0i * b0r + a1i * b1r + a2i * b2r
        ii = a0i * b0i + a1i * b1i + a2i * b2i
        c[i, 0] = rr - ii
        c[i, 1] = ri + ir
    return c


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    validation.check_no_alias(out, a, b)
    c = _result(out, b, (3, 2) + b.shape[2:])
    b0r, b0i, b1r, b1i, b2r, b2i = _vec(b)
    for i in range(3):
        a0r, a0i, a1r, a1i, a2r, a2i = _col(a, i)
        rr = a0r * b0r + a1r * b1r + a2r * b2r
        ri = a0r * b0i + a1r * b1i + a2r * b2i
        ir = a0i * b0r + a1i * b1r + a2i * b2r
        ii = a0i * b0i + a1i * b1i + a2i * b2i
        c[i, 0] = rr + ii
        c[i, 1] = ri - ir
    return c


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 3, 2) + a.shape[3:])
    b_cols = [_col(b, k) for k in range(3)]
    for i in range(3):
        a0r, a0i, a1r, a1i, a2r, a2i = _row(a, i)
        for k, (b0r, b0i, b1r, b1i, b2r, b2i) in enumerate(b_cols):
            rr = a0r * b0r + a1r * b1r + a2r * b2r
            ri = a0r * b0i + a1r * b1i + a2r * b2i
            ir = a0i * b0r + a1i * b1r + a2i * b2r
            ii = a0i * b0i + a1i * b1i + a2i * b2i
            c[i, k, 0] = rr - ii
            c[i, k, 1] = ri + ir
    return c


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 3, 2) + a.shape[3:])
    b_rows = [_row(b, k) for k in range(3)]
    for i in range(3):
        a0r, a0i, a1r, a1i, a2r, a2i = _row(a, i)
        for k, (b0r, b0i, b1r, b1i, b2r, b2i) in enumerate(b_rows):
            rr = b0r * a0r + b1r * a1r + b2r * a2r
            ir = b0r * a0i + b1r * a1i + b2r * a2i
            ri = b0i * a0r + b1i * a1r + b2i * a2r
            ii = b0i * a0i + b1i * a1i + b2i * a2i
            c[i, k, 0] = rr + ii
            c[i, k, 1] = ir - ri
    return c


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 3, 2) + a.shape[3:])
    b_cols = [_col(b, k) for k in range(3)]
    for i in range(3):
        a0r, a0i, a1r, a1i, a2r, a2i = _col(a, i)
        for k, (b0r, b0i, b1r, b1i, b2r, b2i) in enumerate(b_cols):
            rr = a0r * b0r + a1r * b1r + a2r * b2r
            ri = a0r * b0i + a1r * b1i + a2r * b2i
            ir = a0i * b0r + a1i * b1r + a2i * b2r
            ii = a0i * b0i + a1i * b1i + a2i * b2i
            c[i, k, 0] = rr + ii
            c[i, k, 1] = ri - ir
    return c


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = _result(out, h, (2, 3, 2) + h.shape[3:])
    for k in range(2):
        mult_su3_mat_vec(a, h[k], out=c[k])
    return c


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = _result(out, h, (2, 3, 2) + h.shape[3:])
    for k in range(2):
        mult_adj_su3_mat_vec(a, h[k], out=c[k])
    return c


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    validation.check_no_alias(out, a4, b)
    c = _result(out, b, (4, 3, 2) + b.shape[2:])
    for d in range(4):
        mult_adj_su3_mat_vec(a4[d], b, out=c[d])
    return c


def mult_adj_su3_mat_4vec(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, outs=None) -> np.ndarray | tuple:
    """c_d = adj(a4[d]) * b, written to four separate destinations.

    With ``outs`` given (a sequence of four (3, 2) arrays) each product lands
    in its own destination and the tuple is returned; otherwise the packed
    (4, 3, 2) form is produced in ``out`` or a fresh array.
    """
    if outs is None:
        return mult_adj_su3_mat_vec_4dir(a4, b, out=out)
    if out is not None:
        raise ValueError("pass either out or outs, not both")
    if len(outs) != 4:
        raise ValueError("outs must hold four destination vectors")
    for d in range(4):
        validation.check_no_alias(outs[d], a4, b)
        mult_adj_su3_mat_vec(a4[d], b, out=outs[d])
    return tuple(outs)


_DIR_TERMS = tuple((d, j) for d in range(4) for j in range(3))


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    validation.check_no_alias(out, a4, b4)
    c = _result(out, b4, (3, 2) + b4.shape[3:])
    b_terms = [(b4[d, j, 0], b4[d, j, 1]) for d, j in _DIR_TERMS]
    for i in range(3):
        rr = ri = ir = ii = None
        for (d, j), (br, bi) in zip(_DIR_TERMS, b_terms):
            ar, ai = a4[d, j, i, 0], a4[d, j, i, 1]
            if rr is None:
                rr, ri, ir, ii = ar * br, ar * bi, ai * br, ai * bi
            else:
                rr = rr + ar * br
                ri = ri + ar * bi
                ir = ir + ai * br
                ii = ii + ai * bi
        c[i, 0] = rr + ii
        c[i, 1] = ri - ir
    return c


def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 3, 2) + a.shape[3:])
    for i in range(3):
        for j in range(3):
            c[i, j, 0] = a[i, j, 0] + s * b[i, j, 0]
            c[i, j, 1] = a[i, j, 1] + s * b[i, j, 1]
    return c


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 2) + a.shape[2:])
    for i in range(3):
        c[i, 0] = a[i, 0] + s * b[i, 0]
        c[i, 1] = a[i, 1] + s * b[i, 1]
    return c


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    validation.check_no_alias(out, a, b)
    c = _result(out, a, (3, 3, 2) + a.shape[2:])
    b_pairs = [(b[j, 0], b[j, 1]) for j in range(3)]
    for i in range(3):
        ar, ai = a[i, 0], a[i, 1]
        for j, (br, bi) in enumerate(b_pairs):
            rr = br * ar
            ir = br * ai
            ri = bi * ar
            ii = bi * ai
            c[i, j, 0] = rr + ii
            c[i, j, 1] = ir - ri
    return c


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    for i in range(3):
        for k in range(2):
            a[i, k] = a[i, k] - b1[i, k] - b2[i, k] - b3[i, k] - b4[i, k]
    return a


KERNELS = {
    "add_su3_vector": add_su3_vector,
    "mult_adj_su3_mat_hwvec": mult_adj_su3_mat_hwvec,
    "mult_adj_su3_mat_vec": mult_adj_su3_mat_vec,
    "mult_adj_su3_mat_vec_4dir": mult_adj_su3_mat_vec_4dir,
    "mult_adj_su3_mat_4vec": mult_adj_su3_mat_4vec,
    "mult_su3_an": mult_su3_an,
    "mult_su3_mat_hwvec": mult_su3_mat_hwvec,
    "mult_su3_na": mult_su3_na,
    "mult_su3_nn": mult_su3_nn,
    "mult_su3_mat_vec": mult_su3_mat_vec,
    "mult_su3_mat_vec_sum_4dir": mult_su3_mat_vec_sum_4dir,
    "scalar_mult_add_su3_matrix": scalar_mult_add_su3_matrix,
    "scalar_mult_add_su3_vector": scalar_mult_add_su3_vector,
    "su3_projector": su3_projector,
    "sub_four_su3_vecs": sub_four_su3_vecs,
}


def apply(routine: str, *operands, out: np.ndarray | None = None):
    """Invoke one kernel by name on a single operand set."""
    spec = routine_spec(routine)
    kernel = KERNELS[routine]
    if spec.in_place:
        return kernel(*operands)
    return kernel(*operands, out=out)


def batch_apply(routine: str, operands, count: int | None = None, out: np.ndarray | None = None):
    """Apply one kernel independently to each of `count` stacked operand sets.

    Operand arrays carry the batch axis in front of the per-object shape;
    scalars are (count,) arrays or plain numbers. The kernel body runs once
    on site-last views of the operands and of `out`, so each of its
    expressions is one elementwise operation over all sets, bitwise
    identical to slicing out each set and calling the kernel on it.
    """
    spec = routine_spec(routine)
    kernel = KERNELS[routine]
    n = batch_count(spec, operands, count)
    views = [op if kind == "scalar" and np.ndim(op) == 0 else np.moveaxis(op, 0, -1) for op, kind in zip(operands, spec.operands)]
    if spec.in_place:
        kernel(*views)
        return operands[0]
    if out is None:
        first = next(op for op, kind in zip(operands, spec.operands) if kind != "scalar")
        out = np.empty(result_shape(spec, (n,)), dtype=first.dtype)
    else:
        check_batch_out(spec, out, n)
    kernel(*views, out=np.moveaxis(out, 0, -1))
    return out
