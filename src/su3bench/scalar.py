"""Scalar reference implementations of the fifteen su3 kernels.

Every kernel is straight-line real arithmetic on (re, im) pairs in the
arrays' own precision. A kernel unpacks each operand once, into its
components in memory order (``_parts``), works on those with the same
operands, order and association as a read-at-every-use form, and writes its
result with one store; so unpacking changes no rounding and no operation
count. What a component is follows from the operand:

- a single float64 object gives Python floats. A Python float is an IEEE
  binary64, so every ``*``, ``+`` and ``-`` rounds exactly as on np.float64,
  at a fraction of a numpy scalar operation's cost;
- a single float32 object gives numpy float32 scalars. Python has no binary32
  type, and Python floats would round every operation to binary64 instead;
- a site-last batch view gives one row view over all sites per component;
- an object array (the op counter's CountingScalar) gives its elements.

The real factor of ``scalar_mult_add_*`` is converted once to the operands'
dtype, as in the vector backend. Operands of one kernel call share one
dtype; ``backends.Backend`` rejects a mix. This backend is the correctness
reference and the substrate for operation counting: any object supporting
``*``, ``+``, ``-`` can flow through it.

That includes whole arrays of sites. A kernel also accepts operands with
extra trailing axes after the per-object shape. The scalar backend's
``batch_apply`` (``backends.Backend``) uses this: it evaluates these bodies
once, site-parallel, on site-last views of the stacked operands (the batch
axis moved last), so every expression becomes one elementwise numpy
operation over all sites. Elementwise operations round each site exactly as
the scalar ones do, so the batch result is bitwise equal to calling the
kernel site by site. Scalar bench rows with ``batch_sites > 1`` time this
site-parallel path.

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

import math
from operator import itemgetter

import numpy as np

from . import validation
from .types import four_destinations, result_array


def _parts(x, depth: int):
    """The components of x's leading `depth` axes in memory order, from one read of x.

    Python floats for a single float64 object, else one entry per component
    (see the module docstring).
    """
    if x.ndim == depth and x.dtype == np.float64:
        return x.ravel().tolist()
    return tuple(x.reshape((math.prod(x.shape[:depth]),) + x.shape[depth:]))


def _rows(p) -> list:
    """p in groups of six components (three complex entries): a matrix's rows,
    a half-Wilson vector's halves."""
    return [p[k:k + 6] for k in range(0, len(p), 6)]


# Component order of the transpose of one 3x3 matrix, and of each of four
# stacked ones: entry [i][j] of a result is entry [j][i] of the argument.
_T = tuple((3 * j + i) * 2 + part for i in range(3) for j in range(3) for part in range(2))
_transpose = itemgetter(*_T)
_transpose4 = itemgetter(*(18 * d + k for d in range(4) for k in _T))


def _contract(rows, vecs, adj: bool) -> list:
    """sum_j row[j] * v[j] for each v in vecs and each row, v-major, as (re, im) components.

    With adj each row is conjugated. The four real product sums accumulate
    left to right over j and combine once (see the module docstring).
    """
    c = []
    for b0r, b0i, b1r, b1i, b2r, b2i in vecs:
        for a0r, a0i, a1r, a1i, a2r, a2i in rows:
            rr = a0r * b0r + a1r * b1r + a2r * b2r
            ri = a0r * b0i + a1r * b1i + a2r * b2i
            ir = a0i * b0r + a1i * b1r + a2i * b2r
            ii = a0i * b0i + a1i * b1i + a2i * b2i
            c += (rr + ii, ri - ir) if adj else (rr - ii, ri + ir)
    return c


def _store(c: np.ndarray, values) -> np.ndarray:
    """Write `values`, the components of c in memory order, into c."""
    c[...] = np.array(values, dtype=c.dtype).reshape(c.shape)
    return c


def _factor(s, like: np.ndarray):
    """The real factor s, converted once to like's dtype and unpacked as its components are."""
    (f,) = _parts(np.asarray(s, dtype=like.dtype), 0)
    return f


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 2) + a.shape[2:])
    return _store(c, [x + y for x, y in zip(_parts(a, 2), _parts(b, 2))])


def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, b, (3, 2) + b.shape[2:])
    return _store(c, _contract(_rows(_parts(a, 3)), (_parts(b, 2),), adj=False))


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, b, (3, 2) + b.shape[2:])
    return _store(c, _contract(_rows(_transpose(_parts(a, 3))), (_parts(b, 2),), adj=True))


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    # One contraction per column of b gives the columns of c.
    c_columns = _contract(_rows(_parts(a, 3)), _rows(_transpose(_parts(b, 3))), adj=False)
    return _store(c, _transpose(c_columns))


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    # b is the conjugated operand: its rows are the contraction's rows, so
    # each sum multiplies b's component by a's, and each row of a gives a row of c.
    return _store(c, _contract(_rows(_parts(b, 3)), _rows(_parts(a, 3)), adj=True))


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    c_columns = _contract(_rows(_transpose(_parts(a, 3))), _rows(_transpose(_parts(b, 3))), adj=True)
    return _store(c, _transpose(c_columns))


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    return _store(c, _contract(_rows(_parts(a, 3)), _rows(_parts(h, 3)), adj=False))


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    return _store(c, _contract(_rows(_transpose(_parts(a, 3))), _rows(_parts(h, 3)), adj=True))


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    validation.check_no_alias(out, a4, b)
    c = result_array(out, b, (4, 3, 2) + b.shape[2:])
    # Row 3d + i of the stacked adjoints gives c[d][i].
    return _store(c, _contract(_rows(_transpose4(_parts(a4, 4))), (_parts(b, 2),), adj=True))


def mult_adj_su3_mat_4vec(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None, outs=None) -> np.ndarray | tuple:
    """c_d = adj(a4[d]) * b, written to four separate destinations.

    With ``outs`` given (a sequence of four (3, 2) arrays) every destination
    is checked first, then the packed result is formed and copied out, and
    the tuple is returned; otherwise the packed (4, 3, 2) form is produced in
    ``out`` or a fresh array.
    """
    if outs is None:
        return mult_adj_su3_mat_vec_4dir(a4, b, out=out)
    return four_destinations(mult_adj_su3_mat_vec_4dir, a4, b, out, outs, axis=0)


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    validation.check_no_alias(out, a4, b4)
    c = result_array(out, b4, (3, 2) + b4.shape[3:])
    pa, pb = _parts(a4, 4), _parts(b4, 3)
    b_terms = list(zip(pb[0::2], pb[1::2]))  # b4[d][j] in (d, j) order
    values = []
    for i in range(3):
        # a4[d][j][i] in (d, j) order
        terms = zip(zip(pa[2 * i::6], pa[2 * i + 1::6]), b_terms)
        (ar, ai), (br, bi) = next(terms)
        rr, ri, ir, ii = ar * br, ar * bi, ai * br, ai * bi
        for (ar, ai), (br, bi) in terms:
            rr = rr + ar * br
            ri = ri + ar * bi
            ir = ir + ai * br
            ii = ii + ai * bi
        values += (rr + ii, ri - ir)
    return _store(c, values)


def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    f = _factor(s, a)
    return _store(c, [x + f * y for x, y in zip(_parts(a, 3), _parts(b, 3))])


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 2) + a.shape[2:])
    f = _factor(s, a)
    return _store(c, [x + f * y for x, y in zip(_parts(a, 2), _parts(b, 2))])


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[2:])
    pa, pb = _parts(a, 2), _parts(b, 2)
    b_pairs = list(zip(pb[0::2], pb[1::2]))
    values = []
    for ar, ai in zip(pa[0::2], pa[1::2]):
        for br, bi in b_pairs:
            rr = br * ar
            ir = br * ai
            ri = bi * ar
            ii = bi * ai
            values += (rr + ii, ir - ri)
    return _store(c, values)


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(*(_parts(x, 2) for x in (a, b1, b2, b3, b4)))
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
