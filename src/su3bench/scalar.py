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

That includes whole arrays of sites. A kernel also accepts operands that
share extra trailing axes after the per-object shape (the batch form). The
scalar backend's ``batch_apply`` (``backends.Backend``) uses this: it
evaluates these bodies site-parallel on site-last views of the stacked
operands (the batch axis moved last), so every expression becomes one
elementwise numpy operation over all sites. The contraction bodies
(``_contract``, ``_direction_sums``, ``_outer``) go further: their output
entries are independent (vec, row) groups, so the batch form gathers every
group's components into one array per operand, with one ``take`` each, and
runs the body once over all groups, in blocks of ``_BLOCK`` sites
(``_grouped``). ``mult_su3_nn`` then makes 22 elementwise calls per block
instead of 198. The gather indices come from applying the same selections (``_rows``,
``_columns``, ...) to component indices, so each group multiplies the
components the single-object form does, in the same order. Elementwise
operations round each site exactly as the scalar ones do, so the batch
result is bitwise equal to calling the kernel site by site, and an object
array of counting scalars tallies n times one call's operations. Single
objects never take this form: the choice is made once per contraction, where
the operands are unpacked. Scalar bench rows with ``batch_sites > 1`` time
this site-parallel path.

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
from functools import cache
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


# Selections: what a body's rows or vecs are, as a function of an operand's
# components. The single-object form applies them to the components, the
# batch form to component indices (``_group_index``).
def _columns(p) -> list:
    """A matrix's columns (the rows of its transpose)."""
    return _rows(_transpose(p))


def _columns4(p) -> list:
    """The columns of each of four stacked matrices, direction-major."""
    return _rows(_transpose4(p))


def _whole(p) -> tuple:
    """p as the one vec of a body."""
    return (p,)


def _pairs(p) -> list:
    """p's complex entries as (re, im) pairs."""
    return list(zip(p[0::2], p[1::2]))


def _direction_terms(p) -> list:
    """For each i, the (re, im) pairs of a4[d][j][i] in (d, j) order, each
    an iterator read once."""
    return [zip(p[2 * i::6], p[2 * i + 1::6]) for i in range(3)]


def _all_pairs(p) -> tuple:
    """b4[d][j] in (d, j) order, as the one vec of a body."""
    return (_pairs(p),)


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


def _direction_sums(rows, vecs) -> list:
    """sum_t conj(a_t) * b_t for each list of b terms in vecs and each list
    of a terms in rows, v-major, as (re, im) components.

    The four real product sums accumulate over the terms in order
    (direction-major) and combine once.
    """
    values = []
    for b_terms in vecs:
        for a_terms in rows:
            terms = zip(a_terms, b_terms)
            (ar, ai), (br, bi) = next(terms)
            rr, ri, ir, ii = ar * br, ar * bi, ai * br, ai * bi
            for (ar, ai), (br, bi) in terms:
                rr = rr + ar * br
                ri = ri + ar * bi
                ir = ir + ai * br
                ii = ii + ai * bi
            values += (rr + ii, ri - ir)
    return values


def _outer(rows, vecs) -> list:
    """v * conj(r) for each (re, im) pair v in vecs and r in rows, v-major."""
    values = []
    for ar, ai in vecs:
        for br, bi in rows:
            rr = br * ar
            ir = br * ai
            ri = bi * ar
            ii = bi * ai
            values += (rr + ii, ir - ri)
    return values


# Sites per pass of the batch form. The widest bodies gather 144 components
# per site (72 per operand), 576 KiB per block in double precision, so a
# block and its temporaries stay in a 2 MiB L2 cache; on 65536-site fields
# the four-direction kernels ran slower with 1024-site blocks than with 512.
_BLOCK = 512


@cache
def _group_index(rows_of, row_components: int, vecs_of, vec_components: int) -> tuple[np.ndarray, np.ndarray]:
    """Gather indices that stack a body's (vec, row) groups, v-major, on a
    new axis after their per-group structure.

    They come from applying the selections to component indices, so the
    batch form multiplies exactly the components the single-object form does.
    """
    rows = [list(row) for row in rows_of(range(row_components))]
    vecs = [list(vec) for vec in vecs_of(range(vec_components))]
    row_index = np.array([row for _ in vecs for row in rows])
    vec_index = np.array([vec for vec in vecs for _ in rows])
    index = tuple(np.ascontiguousarray(np.moveaxis(ix, 0, -1)) for ix in (row_index, vec_index))
    for ix in index:
        ix.flags.writeable = False
    return index


def _grouped(body, rows_of, x: np.ndarray, x_depth: int, vecs_of, y: np.ndarray, y_depth: int, *args) -> list | np.ndarray:
    """body(rows_of(x's components), vecs_of(y's components), *args): the
    body's (re, im) result pair for each (vec, row) group, v-major.

    A single object runs exactly that. Site-last batch operands (x and y
    sharing their trailing axes) gather each (vec, row) group's components
    into (..., groups, sites) arrays, one take per operand and block of
    _BLOCK sites, and run the body once per block with one row and one vec
    whose every component covers all groups; each expression of the body is
    then one elementwise operation over all groups and sites of the block,
    with the operands, order and association of the single-object form.
    Returns the components as rows of a (2 * groups, sites) array.
    """
    if x.ndim == x_depth:
        return body(rows_of(_parts(x, x_depth)), vecs_of(_parts(y, y_depth)), *args)
    xp = x.reshape(math.prod(x.shape[:x_depth]), -1)
    yp = y.reshape(math.prod(y.shape[:y_depth]), -1)
    row_index, vec_index = _group_index(rows_of, len(xp), vecs_of, len(yp))
    groups, sites = row_index.shape[-1], xp.shape[1]
    c = np.empty((groups, 2, sites), dtype=np.result_type(xp, yp))
    for s in range(0, sites, _BLOCK):
        block = slice(s, s + _BLOCK)
        c[:, 0, block], c[:, 1, block] = body([xp[:, block].take(row_index, 0)], [yp[:, block].take(vec_index, 0)], *args)
    return c.reshape(2 * groups, sites)


def _store(c: np.ndarray, values) -> np.ndarray:
    """Write `values`, the components of c in memory order, into c."""
    c[...] = np.asarray(values, dtype=c.dtype).reshape(c.shape)
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
    return _store(c, _grouped(_contract, _rows, a, 3, _whole, b, 2, False))


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, b, (3, 2) + b.shape[2:])
    return _store(c, _grouped(_contract, _columns, a, 3, _whole, b, 2, True))


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    # One contraction per column of b gives the columns of c.
    c_columns = _grouped(_contract, _rows, a, 3, _columns, b, 3, False)
    return _store(c, _transpose(c_columns))


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    # b is the conjugated operand: its rows are the contraction's rows, so
    # each sum multiplies b's component by a's, and each row of a gives a row of c.
    return _store(c, _grouped(_contract, _rows, b, 3, _rows, a, 3, True))


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    validation.check_no_alias(out, a, b)
    c = result_array(out, a, (3, 3, 2) + a.shape[3:])
    c_columns = _grouped(_contract, _columns, a, 3, _columns, b, 3, True)
    return _store(c, _transpose(c_columns))


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    return _store(c, _grouped(_contract, _rows, a, 3, _rows, h, 3, False))


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    validation.check_no_alias(out, a, h)
    c = result_array(out, h, (2, 3, 2) + h.shape[3:])
    return _store(c, _grouped(_contract, _columns, a, 3, _rows, h, 3, True))


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    validation.check_no_alias(out, a4, b)
    c = result_array(out, b, (4, 3, 2) + b.shape[2:])
    # Row 3d + i of the stacked adjoints gives c[d][i].
    return _store(c, _grouped(_contract, _columns4, a4, 4, _whole, b, 2, True))


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
    return _store(c, _grouped(_direction_sums, _direction_terms, a4, 4, _all_pairs, b4, 3))


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
    return _store(c, _grouped(_outer, _pairs, b, 2, _pairs, a, 2))


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(*(_parts(x, 2) for x in (a, b1, b2, b3, b4)))
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
