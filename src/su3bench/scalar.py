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
the kernels check nothing. The bodies read their operands through numpy
views (``x.flat``, ``swapaxes``, ``transpose``, ``reshape``), and every
contraction is one ``_contract``: the one complex multiply-accumulate.

Summation convention: each output component of a complex contraction is one
add or subtract of two of its four real product sums (re*re, re*im, im*re,
im*im). Each sum is a left-to-right fold of products over the contraction's
terms, and the four are completed in turn. A contraction has three terms;
``mult_su3_mat_vec_sum_4dir`` has twelve, its (direction, j) pairs in
direction-major order, and ``su3_projector`` one. The vector backend keeps the same association in its packed lanes, so
the two backends round identically; keeping one canonical association is
what makes tight cross-backend tolerances meaningful.

Conjugation conventions (adj = conjugate transpose):
    mult_su3_nn                c[i][k] = sum_j a[i][j] * b[j][k]
    mult_su3_na                c[i][k] = sum_j a[i][j] * conj(b[k][j])
    mult_su3_an                c[i][k] = sum_j conj(a[j][i]) * b[j][k]
    mult_adj_su3_mat_vec       c[i]    = sum_j conj(a[j][i]) * b[j]
    mult_su3_mat_vec_sum_4dir  c       = sum_d adj(a4[d]) * b4[d]
    su3_projector              c[i][j] = a[i] * conj(b[j])
"""
from __future__ import annotations

from functools import cache, update_wrapper

import numpy as np

from .trace import Trace, kernel, record
from .types import ROUTINES


def _dot(x, y):
    """sum_t x[t] * y[t], added left to right."""
    total = x[0] * y[0]
    for xt, yt in zip(x[1:], y[1:]):
        total = total + xt * yt
    return total


def _contract(rows, vecs, adj: bool) -> list:
    """sum_t row[t] * v[t] for each v in vecs and each row, v-major, as (re, im) components.

    rows and vecs are arrays whose last two axes are (terms, 2): complex
    entries as (re, im) pairs; vecs of shape (terms, 2) is one vector. With
    adj each row is conjugated. The four real product sums are each folded
    left to right over t and combine once (see the module docstring).
    """
    c = []
    for v in vecs.reshape(-1, *rows.shape[1:]):
        for row in rows:
            rr, ri = _dot(row[:, 0], v[:, 0]), _dot(row[:, 0], v[:, 1])
            ir, ii = _dot(row[:, 1], v[:, 0]), _dot(row[:, 1], v[:, 1])
            c += (rr + ii, ri - ir) if adj else (rr - ii, ri + ir)
    return c


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
    return _store(out, [x + y for x, y in zip(a.flat, b.flat)])


@_traced
def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    return _store(out, _contract(a, b, False))


@_traced
def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    return _store(out, _contract(a.swapaxes(0, 1), b, True))


@_traced
def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    # One contraction per column of b gives the columns of c: the rows of its transpose.
    _store(out.swapaxes(0, 1), _contract(a, b.swapaxes(0, 1), False))
    return out


@_traced
def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    # b is the conjugated operand: its rows are the contraction's rows, so
    # each sum multiplies b's component by a's, and each row of a gives a row of c.
    return _store(out, _contract(b, a, True))


@_traced
def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    _store(out.swapaxes(0, 1), _contract(a.swapaxes(0, 1), b.swapaxes(0, 1), True))
    return out


@_traced
def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    return _store(out, _contract(a, h, False))


@_traced
def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    return _store(out, _contract(a.swapaxes(0, 1), h, True))


@_traced
def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    # Row 3d + i of the stacked adjoints gives c[d][i].
    return _store(out, _contract(a4.swapaxes(1, 2).reshape(12, 3, 2), b, True))


# The packed (4, 3, 2) result; ``Backend.apply`` also offers it in four destinations.
mult_adj_su3_mat_4vec = mult_adj_su3_mat_vec_4dir


@_traced
def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    return _store(out, _contract(a4.transpose(2, 0, 1, 3).reshape(3, 12, 2), b4.reshape(12, 2), True))


@_traced
def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    return _store(out, [x + s * y for x, y in zip(a.flat, b.flat)])


@_traced
def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    return _store(out, [x + s * y for x, y in zip(a.flat, b.flat)])


@_traced
def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    # Each entry is a one-term contraction whose conjugated row is an entry of b.
    return _store(out, _contract(b[:, None], a[:, None], True))


@_traced
def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(a.flat, b1.flat, b2.flat, b3.flat, b4.flat)
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
