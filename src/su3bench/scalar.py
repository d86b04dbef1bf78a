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
- an object array (the tracer's symbols) gives its elements.

A single float object does not run the body as written. On a routine's
first such call, its kernel runs the body once on symbolic reals (``_Sym``),
which records every ``*``, ``+`` and ``-`` as one step, in the order
performed (``_trace``), and compiles the record (``_compile``) into one
straight-line function (``_program``): unpack each operand once with
``_parts`` (the real factor with ``_factor``), evaluate each result
component as one expression, and store the result once through ``flat``,
which writes index order whatever the result's strides. A step result used
once is written in parentheses where it is used, so every operation keeps
the body's operands and association and the result is bitwise the body's;
one used more than once is assigned to a name once. What the program
drops is the interpreter work around the arithmetic: the selections, list
building and tuple unpacking of the bodies, a store through an intermediate
array, and a named temporary per operation. The tracer raises TypeError on
anything it cannot emit (a constant operand, unary minus, a branch on a
value), so a body change cannot compile to a different program. The vector
backend compiles its gather tables' single-site traces with the same
``_compile`` (``simd._program``).

The trace is also the one record of what a kernel computes: ``flops``
counts its steps, so operation counts describe the code that runs. Traces
are cached per routine and shared by ``_program`` and the counts. Programs
are built lazily and cached per routine: importing this module or counting
operations (which reads only the trace) builds none. Building all fifteen
takes ~22 ms, most of it compiling (the traces alone take ~4 ms); at import
that would add a tenth to the benchmark's ~0.19 s set-up time. Object arrays
(the tracer's symbols) and site-last batch views run the bodies, so the
bodies stay the one source of every kernel's arithmetic. The switch lives in
the kernel functions (``_traced``), so ``backends.Backend`` and direct calls
run the same code.

The real factor of ``scalar_mult_add_*`` is converted once to the operands'
dtype, as in the vector backend. Operands of one kernel call share one
dtype; ``backends.Backend`` rejects a mix. This backend is the correctness
reference, and any object supporting ``*``, ``+``, ``-`` can flow through it.

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
(``_grouped``), writing each block's result straight into ``out``.
``mult_su3_nn`` then makes 22 elementwise calls per block instead of 198.
The gather indices come from applying the same selections (``_rows``,
``_columns``, ...) to component indices, so each group multiplies the
components the single-object form does, in the same order. Elementwise
operations round each site exactly as the scalar ones do, so the batch
result is bitwise equal to calling the kernel site by site, and n sites
perform n times one call's operations. Single objects never take this form:
the choice is made once per contraction, where the operands are unpacked.
Scalar bench rows with ``batch_sites > 1`` time this site-parallel path.

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

import linecache
import math
from collections import Counter
from functools import cache, update_wrapper
from operator import itemgetter
from typing import NamedTuple

import numpy as np

from .types import OPERAND_SHAPES, ROUTINES


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


def _grouped(c: np.ndarray, body, rows_of, x: np.ndarray, x_depth: int, vecs_of, y: np.ndarray, y_depth: int, *args) -> np.ndarray:
    """Write body(rows_of(x's components), vecs_of(y's components), *args),
    the body's (re, im) result pair for each (vec, row) group, v-major,
    into c, whose components in index order are those pairs; return c.

    A single object runs exactly that. Site-last batch operands (x, y and c
    sharing their trailing axes) gather each (vec, row) group's components
    into (..., groups, sites) arrays, one take per operand and block of
    _BLOCK sites, and run the body once per block with one row and one vec
    whose every component covers all groups; each expression of the body is
    then one elementwise operation over all groups and sites of the block,
    with the operands, order and association of the single-object form. Its
    re and im rows are written straight into c's block.
    """
    if x.ndim == x_depth:
        return _store(c, body(rows_of(_parts(x, x_depth)), vecs_of(_parts(y, y_depth)), *args))
    xp = x.reshape(math.prod(x.shape[:x_depth]), -1)
    yp = y.reshape(math.prod(y.shape[:y_depth]), -1)
    row_index, vec_index = _group_index(rows_of, len(xp), vecs_of, len(yp))
    entries = c.shape[:-2]  # the groups, as c's entry axes; then (re, im) and the sites
    for s in range(0, xp.shape[1], _BLOCK):
        block = slice(s, s + _BLOCK)
        re, im = body([xp[:, block].take(row_index, 0)], [yp[:, block].take(vec_index, 0)], *args)
        c[..., 0, block] = re.reshape(entries + re.shape[-1:])
        c[..., 1, block] = im.reshape(entries + im.shape[-1:])
    return c


def _store(c: np.ndarray, values) -> np.ndarray:
    """Write `values`, the components of c in index (C) order, into c."""
    c[...] = np.asarray(values, dtype=c.dtype).reshape(c.shape)
    return c


def _factor(s, like: np.ndarray):
    """The real factor s, converted once to like's dtype, as its one component
    (unpacked as like's components are)."""
    return _parts(np.asarray(s, dtype=like.dtype), 0)


class _Sym:
    """A traced real: each ``*``, ``+`` or ``-`` between two of them appends
    one step to their shared tape and gives the step's result.

    Anything else a body could do with a component (a constant operand,
    unary minus, a comparison or branch on its value) raises TypeError, so a
    body the trace cannot reproduce exactly is never compiled.
    """

    __slots__ = ("name", "tape")

    def __init__(self, name: str, tape: list) -> None:
        self.name = name
        self.tape = tape

    def _step(self, op: str, other) -> "_Sym":
        if not isinstance(other, _Sym) or other.tape is not self.tape:
            raise TypeError(f"cannot trace {self.name} {op} {other!r}: only operations between traced components are emitted")
        result = _Sym(f"t{len(self.tape)}", self.tape)
        self.tape.append((result.name, self.name, op, other.name))
        return result

    def __mul__(self, other):
        return self._step("*", other)

    def __add__(self, other):
        return self._step("+", other)

    def __sub__(self, other):
        return self._step("-", other)

    def _untraceable(self, *args):
        raise TypeError(f"cannot trace this operation on {self.name}: only *, + and - between traced components are emitted")

    __rmul__ = __radd__ = __rsub__ = __neg__ = __bool__ = __eq__ = __ne__ = _untraceable

    def __repr__(self) -> str:
        return f"_Sym({self.name!r})"


class _Trace(NamedTuple):
    """One call of a kernel body (or, in ``simd``, of a gather table at one
    site) as straight-line code over named reals."""

    operands: tuple[tuple[str, ...], ...]  # each operand's components, in memory order (a real factor has one)
    steps: tuple[tuple[str, str, str, str], ...]  # (result, left, op, right), in the order performed
    results: tuple[str, ...]  # what was stored in each result component, in index order


@cache
def _trace(routine: str) -> _Trace:
    """Run the routine's body once on symbolic reals and record every step;
    cached, as ``_program`` and ``flops`` read the same record."""
    spec = ROUTINES[routine]
    tape: list = []
    operands, names = [], []
    for k, kind in enumerate(spec.operands):
        shape = OPERAND_SHAPES[kind]
        syms = [_Sym(f"x{k}_{i}", tape) for i in range(math.prod(shape))]
        names.append(tuple(sym.name for sym in syms))
        if kind == "scalar":
            operands.append(syms[0])
        else:
            operands.append(np.empty(shape, dtype=object))
            operands[-1].flat = syms
    kernel = globals()[routine]
    if spec.in_place:
        result = kernel(*operands)
    else:
        result = kernel(*operands, out=np.empty(OPERAND_SHAPES[spec.result], dtype=object))
    stored = result.ravel().tolist()
    if not all(isinstance(sym, _Sym) and sym.tape is tape for sym in stored):
        raise TypeError(f"{routine}: the body left a result component untraced")
    return _Trace(tuple(names), tuple(tape), tuple(sym.name for sym in stored))


@cache
def _program(routine: str):
    """The routine's trace compiled (``_compile``) into one function with the
    kernel's signature: unpack each operand once, evaluate, store once."""
    spec = ROUTINES[routine]
    args = [f"x{k}" for k in range(len(spec.operands))]
    reads = [
        f"_factor({arg}, x0)" if kind == "scalar" else f"_parts({arg}, {len(OPERAND_SHAPES[kind])})"
        for arg, kind in zip(args, spec.operands)
    ]
    params = args if spec.in_place else args + ["out"]
    target = args[0] if spec.in_place else "out"
    return _compile(_trace(routine), routine, params, reads, target, {"_parts": _parts, "_factor": _factor})


def _compile(trace: _Trace, name: str, params: list[str], reads: list[str], target: str, namespace: dict):
    """Compile `trace` into one straight-line function ``name(*params)``.

    reads[k] is an expression of the params that gives operand k's
    components in order; the function binds them once, evaluates the
    results, stores them into `target` through ``flat`` (index order,
    whatever its strides) and returns `target`. A step result used once is
    inlined where it is used as ``(left op right)``, so every operation keeps
    its operands and association; one used more than once is assigned once
    and read by name. A name that is neither an operand component nor a step
    result (the vector tables' +-1 signs) is a literal, emitted as written.

    The source is registered with linecache under the function's filename,
    so a traceback or ``inspect.getsource`` shows the emitted lines.
    """
    uses = Counter(trace.results)
    uses.update(operand for _, left, _, right in trace.steps for operand in (left, right))
    inlined: dict[str, str] = {}
    lines = [f"{', '.join(names)}, = {read}" for names, read in zip(trace.operands, reads)]
    for result, left, op, right in trace.steps:
        expression = f"({inlined.get(left, left)} {op} {inlined.get(right, right)})"
        if uses[result] == 1:
            inlined[result] = expression
        else:
            lines.append(f"{result} = {expression}")
    stored = [f"    {inlined.get(result, result)}," for result in trace.results]
    lines += [f"{target}.flat = (", *stored, ")", f"return {target}"]
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)
    filename = f"<{name} trace>"
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


def _traced(body):
    """The kernel for `body`: a single float object runs the routine's
    program, built on first use; object arrays and site-last batch views
    run `body`.

    The switch is compiled with the body's own parameters, so a call pays
    for no argument packing on either path.
    """
    routine = body.__name__
    code = body.__code__
    first = code.co_varnames[0]
    params = ", ".join(code.co_varnames[:code.co_argcount])
    depth = len(OPERAND_SHAPES[ROUTINES[routine].operands[0]])
    source = (
        f"def {routine}({params}):\n"
        f"    if {first}.ndim == {depth} and not {first}.dtype.hasobject:\n"
        f"        return _program({routine!r})({params})\n"
        f"    return body({params})\n"
    )
    namespace = {"_program": _program, "body": body}
    exec(compile(source, f"<{routine} switch>", "exec"), namespace)
    return update_wrapper(namespace[routine], body)


@_traced
def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    return _store(out, [x + y for x, y in zip(_parts(a, 2), _parts(b, 2))])


@_traced
def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    return _grouped(out, _contract, _rows, a, 3, _whole, b, 2, False)


@_traced
def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    return _grouped(out, _contract, _columns, a, 3, _whole, b, 2, True)


@_traced
def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    # One contraction per column of b gives the columns of c: the rows of its transpose.
    _grouped(out.swapaxes(0, 1), _contract, _rows, a, 3, _columns, b, 3, False)
    return out


@_traced
def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    # b is the conjugated operand: its rows are the contraction's rows, so
    # each sum multiplies b's component by a's, and each row of a gives a row of c.
    return _grouped(out, _contract, _rows, b, 3, _rows, a, 3, True)


@_traced
def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    _grouped(out.swapaxes(0, 1), _contract, _columns, a, 3, _columns, b, 3, True)
    return out


@_traced
def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    return _grouped(out, _contract, _rows, a, 3, _rows, h, 3, False)


@_traced
def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    return _grouped(out, _contract, _columns, a, 3, _rows, h, 3, True)


@_traced
def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    # Row 3d + i of the stacked adjoints gives c[d][i].
    return _grouped(out, _contract, _columns4, a4, 4, _whole, b, 2, True)


# The packed (4, 3, 2) result; ``Backend.apply`` also offers it in four destinations.
mult_adj_su3_mat_4vec = mult_adj_su3_mat_vec_4dir


@_traced
def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    return _grouped(out, _direction_sums, _direction_terms, a4, 4, _all_pairs, b4, 3)


@_traced
def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    f, = _factor(s, a)
    return _store(out, [x + f * y for x, y in zip(_parts(a, 3), _parts(b, 3))])


@_traced
def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    f, = _factor(s, a)
    return _store(out, [x + f * y for x, y in zip(_parts(a, 2), _parts(b, 2))])


@_traced
def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    return _grouped(out, _outer, _pairs, b, 2, _pairs, a, 2)


@_traced
def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(*(_parts(x, 2) for x in (a, b1, b2, b3, b4)))
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
