"""Scalar reference implementations of the fifteen su3 kernels.

Every kernel is straight-line real arithmetic on (re, im) pairs in the
arrays' own precision. The bodies below are the one source of that
arithmetic, and each runs once: on a routine's first call, its body runs on
symbolic reals (``trace.record``), which record every ``*``, ``+`` and
``-`` as one step, in the order performed (``routine_trace``). The tracer
raises TypeError on anything it cannot emit (a constant operand, unary
minus, a branch on a value), so a body change cannot compile to a different
program. Each kernel is ``trace.kernel``'s, built from that record, so
``backends.Backend`` and direct calls run the same code: the routine's
native loop (``native``) where it takes the call (C-contiguous float64 or
float32 arrays, one object or stacked, where a C compiler exists), else the
trace's Python program (``trace.program``), which runs a single object as
one site and is the reference the native loops are tested against. The
trace is also the one record of what a kernel computes: ``flops`` counts
its steps, so operation counts describe the code that runs. Traces and
programs are built lazily and cached per routine: importing this module or
counting operations (which reads only the trace) builds no program and
imports no ``native``.

The real factor of ``scalar_mult_add_*`` is converted once to the operands'
dtype, as in the vector backend. Operands of one kernel call share one
dtype; ``backends.Backend`` rejects a mix. This backend is the correctness
reference, and any object supporting ``*``, ``+``, ``-`` can flow through it.

The module holds only the kernels' arithmetic: ``kernel(*operands, out)``
writes every component of ``out`` and returns it (the in-place
``sub_four_su3_vecs`` takes no ``out``). Dispatch by routine name,
batching, and allocating and checking result arrays live in ``backends``;
the kernels check nothing.

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

from functools import cache, update_wrapper
from operator import itemgetter

import numpy as np

from .trace import Trace, kernel, record
from .types import ROUTINES


def _parts(x) -> tuple:
    """The components of the single object x in memory order."""
    return tuple(x.ravel())


def _rows(p) -> list:
    """p in groups of six components (three complex entries): a matrix's rows,
    a half-Wilson vector's halves."""
    return [p[k:k + 6] for k in range(0, len(p), 6)]


# Component order of the transpose of one 3x3 matrix, and of each of four
# stacked ones: entry [i][j] of a result is entry [j][i] of the argument.
_T = tuple((3 * j + i) * 2 + part for i in range(3) for j in range(3) for part in range(2))
_transpose = itemgetter(*_T)
_transpose4 = itemgetter(*(18 * d + k for d in range(4) for k in _T))


def _columns(p) -> list:
    """A matrix's columns (the rows of its transpose)."""
    return _rows(_transpose(p))


def _columns4(p) -> list:
    """The columns of each of four stacked matrices, direction-major."""
    return _rows(_transpose4(p))


def _pairs(p) -> list:
    """p's complex entries as (re, im) pairs."""
    return list(zip(p[0::2], p[1::2]))


def _direction_terms(p) -> list:
    """For each i, the (re, im) pairs of a4[d][j][i] in (d, j) order, each
    an iterator read once."""
    return [zip(p[2 * i::6], p[2 * i + 1::6]) for i in range(3)]


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


def _store(c: np.ndarray, values) -> np.ndarray:
    """Write `values`, the components of c in index (C) order, into c."""
    c[...] = np.asarray(values, dtype=c.dtype).reshape(c.shape)
    return c


@cache
def routine_trace(routine: str) -> Trace:
    """The routine's body run once on symbolic reals (``trace.record``);
    cached, as the program, the native loops and ``flops`` read the same
    record."""
    body = globals()[routine]
    return record(ROUTINES[routine], getattr(body, "__wrapped__", body))


def _traced(body):
    """The kernel for `body` (``trace.kernel``): its native entry first,
    then, for a call that entry does not take, the program of its trace;
    `body` itself runs only under ``routine_trace``."""
    return update_wrapper(kernel("scalar", ROUTINES[body.__name__], routine_trace), body)


@_traced
def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    return _store(out, [x + y for x, y in zip(_parts(a), _parts(b))])


@_traced
def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    return _store(out, _contract(_rows(_parts(a)), [_parts(b)], False))


@_traced
def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    return _store(out, _contract(_columns(_parts(a)), [_parts(b)], True))


@_traced
def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    # One contraction per column of b gives the columns of c: the rows of its transpose.
    _store(out.swapaxes(0, 1), _contract(_rows(_parts(a)), _columns(_parts(b)), False))
    return out


@_traced
def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    # b is the conjugated operand: its rows are the contraction's rows, so
    # each sum multiplies b's component by a's, and each row of a gives a row of c.
    return _store(out, _contract(_rows(_parts(b)), _rows(_parts(a)), True))


@_traced
def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    _store(out.swapaxes(0, 1), _contract(_columns(_parts(a)), _columns(_parts(b)), True))
    return out


@_traced
def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    return _store(out, _contract(_rows(_parts(a)), _rows(_parts(h)), False))


@_traced
def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    return _store(out, _contract(_columns(_parts(a)), _rows(_parts(h)), True))


@_traced
def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    # Row 3d + i of the stacked adjoints gives c[d][i].
    return _store(out, _contract(_columns4(_parts(a4)), [_parts(b)], True))


# The packed (4, 3, 2) result; ``Backend.apply`` also offers it in four destinations.
mult_adj_su3_mat_4vec = mult_adj_su3_mat_vec_4dir


@_traced
def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    return _store(out, _direction_sums(_direction_terms(_parts(a4)), [_pairs(_parts(b4))]))


@_traced
def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    return _store(out, [x + s * y for x, y in zip(_parts(a), _parts(b))])


@_traced
def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    return _store(out, [x + s * y for x, y in zip(_parts(a), _parts(b))])


@_traced
def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    return _store(out, _outer(_pairs(_parts(b)), _pairs(_parts(a))))


@_traced
def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(*(_parts(x) for x in (a, b1, b2, b3, b4)))
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
