"""Scalar reference implementations of the fifteen su3 kernels.

Every kernel is straight-line real arithmetic on (re, im) pairs in the
arrays' own precision. The bodies below are the one source of that
arithmetic, and each runs once: on a routine's first call, its body runs on
symbolic reals (``_Sym``), which record every ``*``, ``+`` and ``-`` as one
step, in the order performed (``_trace``). The tracer raises TypeError on
anything it cannot emit (a constant operand, unary minus, a branch on a
value), so a body change cannot compile to a different program. Every call
runs code compiled from that record (``_traced``), so ``backends.Backend``
and direct calls run the same code:

- **Native** (``native``): where a C compiler exists, a call on C-contiguous
  float64 or float32 arrays, one object or stacked, runs the trace as a C
  loop over the sites, in the same order and precision; the first kernel
  call of a process builds or loads it. Every other call (strided, object
  or other dtypes, no compiler) runs one of the two Python forms, chosen
  by the first operand's rank, which are also the reference the native
  loops are tested against:
- **One object** (``_program``): one straight-line function (``_compile``)
  that unpacks each operand once with ``_parts`` (the real factor with
  ``_factor``), evaluates each result component as one expression into
  one tuple, and stores it once: into a C-contiguous float64 result in one
  pass through its buffer (``struct.Struct.pack_into``, which writes each
  Python float's binary64 bits, about a third of the cost of ``flat`` for
  18 components), into any other result (strided, float32, object) through
  ``flat``, which writes index order whatever the strides. A step result
  used once is written in parentheses where it is used, so every
  operation keeps the body's operands and association; one used more than
  once is assigned to a name once. A
  component is a Python float for a float64 object: a Python float is an
  IEEE binary64, so every operation rounds exactly as on np.float64, at a
  fraction of a numpy scalar operation's cost. It is a numpy float32 scalar
  for a float32 object (Python has no binary32 type, and Python floats would
  round every operation to binary64), and the element itself for an object
  array.
- **Stacked objects** (``_batch_program``): operands that share leading
  batch axes before the per-object shape. Result components whose
  expressions have one shape (the same operations, each leaf drawn from the
  same operand) form a group: ``mult_su3_nn``'s nine real parts are one,
  its nine imaginary parts another. Per block of ``_BLOCK`` sites, one
  ``take`` per operand gathers the leaves of every group into rows over the
  block's sites, and each group's expression, in ``_compile``'s
  parenthesised form, runs once as elementwise numpy operations over
  (members, sites) into the group's result rows. Elementwise operations
  round each site exactly as the scalar ones do, so the result is bitwise
  equal to calling the kernel site by site, and n sites perform n times one
  call's operations (no kernel's trace uses a step result twice). Operands
  are read in place through ``x.reshape(sites, components).T``; a result,
  or an in-place first operand, that is not C-contiguous is computed into a
  temporary and copied in.

The vector backend's gather tables are traced too (``simd._table_trace``)
and run natively the same way. The trace is also the one record of what a
kernel computes: ``flops`` counts its steps, so operation counts describe
the code that runs. Traces are cached per routine and shared by the
programs, the native loops and the counts. Programs are built lazily and
cached per routine: importing this module or counting operations (which
reads only the trace) builds none and imports no ``native``. Building all
fifteen single-object programs takes ~22 ms, most of it compiling (the
traces alone take ~4 ms); at import that would add a tenth to the
benchmark's ~0.19 s set-up time.

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

import linecache
import math
from collections import Counter
from functools import cache, update_wrapper
from operator import itemgetter
from struct import Struct
from typing import NamedTuple

import numpy as np

from .types import OPERAND_SHAPES, ROUTINES

_FLOAT64 = np.dtype(np.float64)


def _parts(x):
    """The components of the single object x in memory order, from one read
    of x: Python floats for float64, else its elements (see the module
    docstring)."""
    if x.dtype == np.float64:
        return x.ravel().tolist()
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


def _factor(s, like: np.ndarray):
    """The real factor s, converted once to like's dtype, as its one component
    (unpacked as like's components are)."""
    return _parts(np.asarray(s, dtype=like.dtype))


def _factor_sites(s, like: np.ndarray, n: int) -> np.ndarray:
    """The real factor s, converted once to like's dtype, as one value for
    each of n sites: a number is broadcast, one per site is flattened."""
    f = np.asarray(s, dtype=like.dtype)
    return f.reshape(n) if f.ndim else np.broadcast_to(f, (n,))


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
    cached, as both programs and ``flops`` read the same record."""
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
    body = getattr(kernel, "__wrapped__", kernel)
    if spec.in_place:
        result = body(*operands)
    else:
        result = body(*operands, out=np.empty(OPERAND_SHAPES[spec.result], dtype=object))
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
    reads = [f"_factor({arg}, x0)" if kind == "scalar" else f"_parts({arg})" for arg, kind in zip(args, spec.operands)]
    params = args if spec.in_place else args + ["out"]
    target = args[0] if spec.in_place else "out"
    return _compile(_trace(routine), routine, params, reads, target, {"_parts": _parts, "_factor": _factor})


def _compile(trace: _Trace, name: str, params: list[str], reads: list[str], target: str, namespace: dict):
    """Compile `trace` into one straight-line function ``name(*params)``.

    reads[k] is an expression of the params that gives operand k's
    components in order; the function binds them once, evaluates the
    results into one tuple, stores it into `target` and returns `target`.
    The store is one pass through the buffer (``Struct.pack_into``) when
    `target` is a C-contiguous float64 array, and through ``flat`` (index
    order, whatever the strides, converting to the dtype) otherwise: a
    strided, float32 or object array. A step result used once is
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
    lines += [
        "values = (", *stored, ")",
        f"if {target}.dtype is _float64 and {target}.flags.c_contiguous:",
        f"    _pack_into({target}, 0, *values)",
        "else:",
        f"    {target}.flat = values",
        f"return {target}",
    ]
    namespace = {**namespace, "_float64": _FLOAT64, "_pack_into": Struct(f"{len(trace.results)}d").pack_into}
    return _define(name, params, lines, f"<{name} trace>", namespace)


def _define(name: str, params: list[str], lines: list[str], filename: str, namespace: dict):
    """Compile ``def name(*params)`` with body `lines` in `namespace`,
    registering its source with linecache under `filename`."""
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# Sites per pass of the batch form. The widest kernels gather 144 components
# per site (72 per operand), 576 KiB per block in double precision, so a
# block and its temporaries stay in a 2 MiB L2 cache; on 65536-site fields
# the four-direction kernels ran slower with 1024-site blocks than with 512.
_BLOCK = 512


@cache
def _batch_program(routine: str):
    """The routine's trace compiled into one function with the kernel's
    signature over stacked operands (see the module docstring).

    A group's leaf at one position reads a slab: one component of one
    operand per member. Per block, one ``take`` per operand gathers each of
    its slabs once, however many groups read it, and binds them to names as
    ``_compile`` binds components; the take index is one 2-D array, so the
    groups reading an operand have one size. A group's rows are written
    through a slice where they are evenly spaced (in every kernel), which
    is faster than a list. The source is registered with linecache under
    ``<routine batch>``.
    """
    spec = ROUTINES[routine]
    trace = _trace(routine)
    steps = {result: (left, op, right) for result, left, op, right in trace.steps}
    leaves = {name: (k, i) for k, names in enumerate(trace.operands) for i, name in enumerate(names)}

    def expand(name: str):
        """name's expression as a template with a {} per leaf, the leaves' operands and their components."""
        if name in leaves:
            k, i = leaves[name]
            return "{}", (k,), (i,)
        left, op, right = steps[name]
        (lt, lk, li), (rt, rk, ri) = expand(left), expand(right)
        return f"({lt} {op} {rt})", lk + rk, li + ri

    groups: dict = {}  # (template, leaf operands) -> [(result component, leaf components)]
    for r, name in enumerate(trace.results):
        template, ks, components = expand(name)
        groups.setdefault((template, ks), []).append((r, components))
    slabs: list[dict] = [{} for _ in spec.operands]  # per operand: slab -> its name, in gather order
    stores = []
    for (template, ks), members in groups.items():
        reads = []
        for p, k in enumerate(ks):
            slab = tuple(components[p] for _, components in members)
            reads.append(f"f{k}[b]" if spec.operands[k] == "scalar" else slabs[k].setdefault(slab, f"g{k}_{len(slabs[k])}"))
        rows = [r for r, _ in members]
        step = rows[-1] - rows[-2] if len(rows) > 1 else 1
        at = f"{rows[0]}:{rows[-1] + 1}:{step}" if rows == list(range(rows[0], rows[-1] + 1, step)) else rows
        stores.append(f"    c[{at}, b] = {template.format(*reads)}")
    args = [f"x{k}" for k in range(len(spec.operands))]
    target, size = args[0] if spec.in_place else "out", len(trace.results)
    lines = [
        f"n = {target}.size // {size}",
        f"direct = {target}.flags.c_contiguous",
        f"rows = {target}.reshape(n, {size}) if direct else _empty((n, {size}), {target}.dtype)",
        "c = rows.T",
    ]
    namespace: dict = {"_empty": np.empty, "_copyto": np.copyto, "_factor_sites": _factor_sites}
    for k, (arg, kind) in enumerate(zip(args, spec.operands)):
        if kind == "scalar":
            lines.append(f"f{k} = _factor_sites({arg}, x0, n)")
        else:
            lines.append(f"v{k} = {arg}.reshape(n, {len(trace.operands[k])}).T")
            namespace[f"i{k}"] = np.array(list(slabs[k]), dtype=np.intp)
    lines += [f"for s in range(0, n, {_BLOCK}):", f"    b = slice(s, s + {_BLOCK})"]
    lines += [f"    {', '.join(names.values())}, = v{k}[:, b].take(i{k}, 0)" for k, names in enumerate(slabs) if names]
    lines += stores + ["if not direct:", f"    _copyto({target}, rows.reshape({target}.shape))", f"return {target}"]
    return _define(routine, args if spec.in_place else args + ["out"], lines, f"<{routine} batch>", namespace)


def _not_taken(*args):
    """The native entry where the extension is unavailable: it takes no call."""
    return NotImplemented


class _NativeEntries(dict):
    """Entry name -> the native extension's entry (``native``), looked up
    on its first call, which imports the extension and, on a host's first
    use, builds it; ``_not_taken`` where the extension is unavailable.
    Shared by both backends' kernels, which call an entry first and run
    their Python path when it returns NotImplemented."""

    def __missing__(self, name: str):
        from . import native

        module = native.load()
        entry = self[name] = _not_taken if module is None else getattr(module, name)
        return entry


_NATIVE = _NativeEntries()


def _traced(body):
    """The kernel for `body`: its native entry first, then, for a call that
    entry does not take, a single object runs the routine's program and a
    stack of objects its batch program, each built on first use; `body`
    itself runs only under ``_trace``.

    The switch is compiled with the body's own parameters, so a call pays
    for no argument packing on any path. A real factor reaches the native
    entry converted to the first operand's dtype, as the programs convert it.
    """
    routine = body.__name__
    code = body.__code__
    names = code.co_varnames[:code.co_argcount]
    params = ", ".join(names)
    kinds = ROUTINES[routine].operands
    native = ", ".join(f"_asarray({x}, {names[0]}.dtype)" if kind == "scalar" else x for x, kind in zip(names, kinds + ("result",)))
    depth = len(OPERAND_SHAPES[kinds[0]])
    source = (
        f"def {routine}({params}):\n"
        f"    c = _NATIVE[{routine!r}]({native})\n"
        f"    if c is not NotImplemented:\n"
        f"        return c\n"
        f"    if {names[0]}.ndim == {depth}:\n"
        f"        return _program({routine!r})({params})\n"
        f"    return _batch_program({routine!r})({params})\n"
    )
    namespace = {"_program": _program, "_batch_program": _batch_program, "_NATIVE": _NATIVE, "_asarray": np.asarray}
    exec(compile(source, f"<{routine} switch>", "exec"), namespace)
    return update_wrapper(namespace[routine], body)


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
    f, = _factor(s, a)
    return _store(out, [x + f * y for x, y in zip(_parts(a), _parts(b))])


@_traced
def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    f, = _factor(s, a)
    return _store(out, [x + f * y for x, y in zip(_parts(a), _parts(b))])


@_traced
def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    return _store(out, _outer(_pairs(_parts(b)), _pairs(_parts(a))))


@_traced
def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    parts = zip(*(_parts(x) for x in (a, b1, b2, b3, b4)))
    return _store(a, [x - y1 - y2 - y3 - y4 for x, y1, y2, y3, y4 in parts])
