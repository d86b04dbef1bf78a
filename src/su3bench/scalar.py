"""Scalar reference implementations of the fifteen su3 kernels.

Every kernel is straight-line real arithmetic on (re, im) pairs in the
arrays' own precision. Each operand element is read into a local exactly
once per call and the expressions then work on those locals, with the same
operands, order and association as a read-at-every-use form, so reading once
changes no rounding and no operation count. This backend is the correctness
reference and the substrate for operation counting: any object supporting
``*``, ``+``, ``-`` can flow through it.

That includes whole arrays of sites. A kernel also accepts operands with
extra trailing axes after the per-object shape. The scalar backend's
``batch_apply`` (``backends.Backend``) uses this: it evaluates these bodies
once, site-parallel, on site-last views of the stacked operands
(``np.moveaxis(op, 0, -1)``), so every expression becomes one elementwise
numpy operation over all sites. Elementwise operations round each site
exactly as the scalar ones do, so the batch result is bitwise equal to
calling the kernel site by site. Scalar bench rows with ``batch_sites > 1``
time this site-parallel path.

The module holds only the kernels' arithmetic; dispatch by routine name,
batching and result allocation for a batch live in ``backends``.

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
from .types import result_array


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 2) + a.shape[2:])
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
    c = result_array(out, b, (3, 2) + b.shape[2:])
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
    c = result_array(out, b, (3, 2) + b.shape[2:])
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
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
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
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
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
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
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
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    for k in range(2):
        mult_su3_mat_vec(a, h[k], out=c[k])
    return c


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    for k in range(2):
        mult_adj_su3_mat_vec(a, h[k], out=c[k])
    return c


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    validation.check_no_alias(out, a4, b)
    c = result_array(out, b, (4, 3, 2) + b.shape[2:])
    for d in range(4):
        mult_adj_su3_mat_vec(a4[d], b, out=c[d])
    return c


def mult_adj_su3_mat_4vec(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, outs=None) -> np.ndarray | tuple:
    """c_d = adj(a4[d]) * b, written to four separate destinations.

    With ``outs`` given (a sequence of four (3, 2) arrays) every destination
    is checked first, then the packed result is formed and copied out, and
    the tuple is returned; otherwise the packed (4, 3, 2) form is produced in
    ``out`` or a fresh array.
    """
    if outs is None:
        return mult_adj_su3_mat_vec_4dir(a4, b, out=out)
    if out is not None:
        raise ValueError("pass either out or outs, not both")
    if len(outs) != 4:
        raise ValueError("outs must hold four destination vectors")
    for dest in outs:
        validation.check_no_alias(dest, a4, b)
        result_array(dest, b, b.shape)
    packed = mult_adj_su3_mat_vec_4dir(a4, b)
    for d, dest in enumerate(outs):
        np.copyto(dest, packed[d])
    return tuple(outs)


_DIR_TERMS = tuple((d, j) for d in range(4) for j in range(3))


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    validation.check_no_alias(out, a4, b4)
    c = result_array(out, b4, (3, 2) + b4.shape[3:])
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
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    for i in range(3):
        for j in range(3):
            c[i, j, 0] = a[i, j, 0] + s * b[i, j, 0]
            c[i, j, 1] = a[i, j, 1] + s * b[i, j, 1]
    return c


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 2) + a.shape[2:])
    for i in range(3):
        c[i, 0] = a[i, 0] + s * b[i, 0]
        c[i, 1] = a[i, 1] + s * b[i, 1]
    return c


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[2:])
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

