"""The kernels' one intermediate form, the trace, and the one builder of
every kernel of both backends.

A trace is recorded by running a scalar kernel body on ``Sym`` values
(``record``). The vector backend's traces are the scalar ones, paired
(``paired``: results 2k and 2k + 1 walked in lockstep), so their
isomorphic steps stand side by side. Each backend's ``routine_trace``
gives the trace of each of its fifteen kernels. ``kernel`` builds every
kernel from its trace: it offers a call to the trace's native entry
(``native``, named by ``entry`` and looked up in ``types.NATIVE``, the
one map of the extension's exports) first, as
``entry(*operands, out)``, and runs a call the entry refuses as the
trace's compiled ``program``, the reference the native loops are tested
against bit for bit.
"""
from __future__ import annotations

import linecache
from functools import cache
from typing import NamedTuple

import numpy as np

from .types import NATIVE, OPERAND_SHAPES, OPERAND_SIZES, RoutineSpec


class Sym:
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

    def _step(self, op: str, other) -> "Sym":
        if not isinstance(other, Sym) or other.tape is not self.tape:
            raise TypeError(f"cannot trace {self.name} {op} {other!r}: only operations between traced components are emitted")
        result = Sym(f"t{len(self.tape)}", self.tape)
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
        return f"Sym({self.name!r})"


class Trace(NamedTuple):
    """One call of a kernel body as straight-line code over named reals. A
    name that is neither an operand component nor a step result is a
    literal (the +-1 signs of a paired trace)."""

    operands: tuple[tuple[str, ...], ...]  # each operand's components, in memory order (a real factor has one)
    steps: tuple[tuple[str, str, str, str], ...]  # (result, left, op, right), in the order performed
    results: tuple[str, ...]  # what was stored in each result component, in index order


def record(spec: RoutineSpec, body) -> Trace:
    """Run `body`, a kernel body of routine `spec`, once on symbolic reals
    and record every step: a real factor is one ``Sym``, any other operand
    and ``out`` object arrays of them. TypeError if the body does what the
    trace cannot emit, or leaves a result component that no step or operand
    of this call gave. Component i of operand k is named ``x{k}_{i}``."""
    tape: list = []
    names = tuple(tuple(f"x{k}_{i}" for i in range(OPERAND_SIZES[kind])) for k, kind in enumerate(spec.operands))
    # [()] takes a real factor's one Sym out of its 0-d array.
    operands = [np.array([Sym(x, tape) for x in row], dtype=object).reshape(OPERAND_SHAPES[kind])[()]
                for kind, row in zip(spec.operands, names)]
    if spec.in_place:
        result = body(*operands)
    else:
        result = body(*operands, out=np.empty(OPERAND_SHAPES[spec.result], dtype=object))
    stored = result.ravel().tolist()
    if not all(isinstance(sym, Sym) and sym.tape is tape for sym in stored):
        raise TypeError(f"{spec.name}: the body left a result component untraced")
    return Trace(names, tuple(tape), tuple(sym.name for sym in stored))


def paired(trace: Trace) -> Trace:
    """`trace` with the expression trees of results 2k and 2k + 1 walked
    in lockstep, each pair of matching steps performed one after the other,
    step 2k's first (superword-level pairing, Larsen & Amarasinghe, PLDI
    2000). Where one tree has a ``-`` and the other a ``+``, each right
    operand is first multiplied by its +-1 literal and both are then added,
    which is exact. Every other step keeps its operands; only the steps the
    results read are performed. ValueError for an odd number of results,
    or where the two trees differ in shape: a leaf against a step, or two
    other different operations."""
    steps = {result: (left, op, right) for result, left, op, right in trace.steps}
    sign = {"-": "-1.0", "+": "1.0"}
    out: list = []

    def emit(a: tuple, b: tuple) -> tuple:
        out.extend([(f"t{len(out)}", *a), (f"t{len(out) + 1}", *b)])
        return out[-2][0], out[-1][0]

    def walk(x: str, y: str, where: str) -> tuple:
        if x not in steps and y not in steps:
            return x, y
        if x not in steps or y not in steps:
            raise ValueError(f"{where} do not pair: {x} against {y}, a leaf against a step")
        (xl, xo, xr), (yl, yo, yr) = steps[x], steps[y]
        if xo != yo and {xo, yo} != {"-", "+"}:
            raise ValueError(f"{where} do not pair: {x} = {xl} {xo} {xr} against {y} = {yl} {yo} {yr}")
        left, right = walk(xl, yl, where), walk(xr, yr, where)
        if xo != yo:
            right = emit((right[0], "*", sign[xo]), (right[1], "*", sign[yo]))
            xo = yo = "+"
        return emit((left[0], xo, right[0]), (left[1], yo, right[1]))

    if len(trace.results) % 2:
        raise ValueError(f"{len(trace.results)} results do not pair")
    results = [walk(x, y, f"results {2 * k} and {2 * k + 1}")
               for k, (x, y) in enumerate(zip(trace.results[0::2], trace.results[1::2]))]
    return Trace(trace.operands, tuple(out), tuple(x for pair in results for x in pair))


def define(name: str, params: list[str], lines: list[str], filename: str, namespace: dict):
    """Compile ``def name(*params)`` with body `lines` in `namespace`,
    registering its source with linecache under `filename`, so a traceback
    or ``inspect.getsource`` shows the emitted lines."""
    source = f"def {name}({', '.join(params)}):\n" + "".join(f"    {line}\n" for line in lines)
    linecache.cache[filename] = (len(source), None, source.splitlines(True), filename)
    exec(compile(source, filename, "exec"), namespace)
    return namespace[name]


# Sites per pass of a program. The widest traces gather 144 components per
# site (72 per operand), 576 KiB per block in double precision, so a block
# and its temporaries stay in a 2 MiB L2 cache; on 65536-site fields the
# four-direction kernels ran slower with 1024-site blocks than with 512.
BLOCK = 512


def _factor_sites(s, like: np.ndarray, n: int) -> np.ndarray:
    """The real factor s, converted once to like's dtype, as one value for
    each of n sites: a number is broadcast, one per site is flattened."""
    f = np.asarray(s, dtype=like.dtype)
    return f.reshape(n) if f.ndim else np.broadcast_to(f, (n,))


def program(trace: Trace, name: str, in_place: bool):
    """`trace` compiled into ``name(x0, ..., out) -> out`` (in place:
    ``name(x0, ...) -> x0``) over operands that share leading batch axes
    before the per-object shape; a single object is one site.

    Result components whose expressions have one shape (the same
    operations, each leaf drawn from the same operand, or a literal) form a
    group: ``mult_su3_nn``'s nine real parts are one, its nine imaginary
    parts another, and every lane of a paired contraction one, whatever its
    sign.
    A step result is written in parentheses where it is used, so every
    operation keeps the trace's operands and association (one used twice
    is evaluated twice; no kernel's trace reuses one); a literal is read
    from a (members, 1) row of each member's value, converted once per call
    to x0's dtype. Per block of ``BLOCK`` sites, one ``take`` per operand
    gathers the slabs its groups read (a slab: one component per member, at
    one leaf position), each slab once however many groups read it, and
    each group's expression runs once as elementwise numpy operations over
    (members, sites) into the group's result rows, through a slice where
    they are evenly spaced (in every kernel). The groups that read one
    operand must have one size (the take index is one 2-D array).
    Elementwise operations round each site exactly as scalar ones do, so
    the result is bitwise the trace's, site by site, in the operands' own
    precision (numpy float32 for float32, the elements themselves for an
    object array).

    Operands are read in place through ``x.reshape(sites, components).T``;
    an operand of one component is a real factor, one for every site or
    one per site, converted once to x0's dtype. A result, or an in-place
    first operand, that is not C-contiguous is computed into a temporary and
    copied in. The source is registered with linecache under
    ``<name batch>``.
    """
    steps = {result: (left, op, right) for result, left, op, right in trace.steps}
    leaves = {x: (k, i) for k, names in enumerate(trace.operands) for i, x in enumerate(names)}

    def expand(x: str):
        """x's expression as a template with a {} per leaf, the leaves'
        operands (None for a literal) and their components (a literal's
        value)."""
        if x in leaves:
            k, i = leaves[x]
            return "{}", (k,), (i,)
        if x not in steps:
            return "{}", (None,), (float(x),)
        left, op, right = steps[x]
        (lt, lk, li), (rt, rk, ri) = expand(left), expand(right)
        return f"({lt} {op} {rt})", lk + rk, li + ri

    groups: dict = {}  # (template, leaf operands) -> [(result component, leaf components)]
    for r, x in enumerate(trace.results):
        template, ks, components = expand(x)
        groups.setdefault((template, ks), []).append((r, components))
    factors = {k for k, names in enumerate(trace.operands) if len(names) == 1}
    slabs: list[dict] = [{} for _ in trace.operands]  # per operand: slab -> its name, in gather order
    literals: dict = {}  # literal row -> its name
    stores = []
    for (template, ks), members in groups.items():
        reads = []
        for p, k in enumerate(ks):
            slab = tuple(components[p] for _, components in members)
            if k is None:
                reads.append(literals.setdefault(slab, f"r{len(literals)}"))
            else:
                reads.append(f"f{k}[b]" if k in factors else slabs[k].setdefault(slab, f"g{k}_{len(slabs[k])}"))
        rows = [r for r, _ in members]
        step = rows[-1] - rows[-2] if len(rows) > 1 else 1
        at = f"{rows[0]}:{rows[-1] + 1}:{step}" if rows == list(range(rows[0], rows[-1] + 1, step)) else rows
        stores.append(f"    c[{at}, b] = {template.format(*reads)}")
    args = [f"x{k}" for k in range(len(trace.operands))]
    target, size = "x0" if in_place else "out", len(trace.results)
    lines = [f"n = {target}.size // {size}"]
    namespace: dict = {"_empty": np.empty, "_copyto": np.copyto, "_factor_sites": _factor_sites}
    for k, names in enumerate(trace.operands):
        if k in factors:
            lines.append(f"f{k} = _factor_sites(x{k}, x0, n)")
        else:
            lines.append(f"v{k} = x{k}.reshape(n, {len(names)}).T")
            namespace[f"i{k}"] = np.array(list(slabs[k]), dtype=np.intp)
    for row, r in literals.items():
        lines.append(f"{r} = _{r}.astype(x0.dtype, copy=False)")
        namespace[f"_{r}"] = np.array(row)[:, None]
    view = "v0" if in_place else f"out.reshape(n, {size}).T"
    lines += [
        f"direct = {target}.flags.c_contiguous",
        f"c = {view} if direct else _empty((n, {size}), {target}.dtype).T",
        f"for s in range(0, n, {BLOCK}):",
        f"    b = slice(s, s + {BLOCK})",
    ]
    lines += [f"    {', '.join(names.values())}, = v{k}[:, b].take(i{k}, 0)" for k, names in enumerate(slabs) if names]
    lines += stores + ["if not direct:", f"    _copyto({target}, c.T.reshape({target}.shape))", f"return {target}"]
    return define(name, args if in_place else args + ["out"], lines, f"<{name} batch>", namespace)


def entry(kind: str, routine: str) -> str:
    """The name of backend `kind`'s native entry (and program) for `routine`."""
    return f"{kind}_{routine}"


def kernel(kind: str, spec: RoutineSpec, trace_of):
    """Backend `kind`'s kernel for routine `spec`, ``kernel(x0, ..., out) ->
    out`` (in place: ``kernel(x0, ...) -> x0``), run from
    ``trace_of(spec.name)``.

    The kernel offers each call to the trace's native entry first, read
    from ``types.NATIVE`` under ``entry(kind, spec.name)`` on every call,
    passing the operands as they came, ``entry(*operands, out)``, and packing
    nothing; a real factor reaches it converted to x0's dtype, as the
    program converts it. A call the entry does not take runs the trace's
    ``program``, compiled on first use. The program is also
    ``kernel.program()``, cached; neither the trace nor the program is
    built before it is needed.
    """
    name = entry(kind, spec.name)
    params = [f"x{k}" for k in range(len(spec.operands))]
    args = [f"_asarray({x}, x0.dtype)" if what == "scalar" else x for x, what in zip(params, spec.operands)]
    if not spec.in_place:
        params.append("out")
        args.append("out")

    @cache
    def compiled():
        return program(trace_of(spec.name), name, spec.in_place)

    lines = [
        f"c = _NATIVE[{name!r}]({', '.join(args)})",
        "if c is not NotImplemented:",
        "    return c",
        f"return _program()({', '.join(params)})",
    ]
    namespace = {"_NATIVE": NATIVE, "_asarray": np.asarray, "_program": compiled}
    switch = define(spec.name, params, lines, f"<{name} switch>", namespace)
    switch.program = compiled
    return switch

