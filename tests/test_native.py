"""The native site loops and dispatchers against the Python paths they
stand in for, and what their build promises: plain loops for the scalar
backend and packed ones for the vector backend, each its trace, no fused
arithmetic, no per-call temporaries, nothing at import, and the Python paths
where there is no compiler or no numpy header."""
import datetime
import gc
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import su3bench
from su3bench import BACKEND_NAMES, ROUTINE_NAMES, Backend, Lattice4D, SiteBuffer, backends, get_backend, native, simd, types
from su3bench.trace import NATIVE, Trace, entry
from test_simd_kernels import _special_sets

MODULE = native.load()
needs_native = pytest.mark.skipif(MODULE is None, reason=f"native extension unavailable: {native.status()}")
ENTRIES = tuple(entry(kind, routine) for kind in BACKEND_NAMES for routine in ROUTINE_NAMES)
TESTS = Path(__file__).resolve().parent


@contextmanager
def _entries(make):
    """Every kernel call make(name) as its native entry, for the duration."""
    saved = dict(NATIVE)
    NATIVE.update({name: make(name) for name in ENTRIES})
    try:
        yield
    finally:
        NATIVE.clear()
        NATIVE.update(saved)


def _table(kind):
    """Routine -> backend `kind`'s native entry, as the module's dispatchers take it."""
    return {routine: getattr(MODULE, entry(kind, routine)) for routine in ROUTINE_NAMES}


def _native_only():
    """Every kernel call must be taken by its native entry."""
    def strict(name):
        entry = getattr(MODULE, name)

        def call(*args):
            result = entry(*args)
            assert result is not NotImplemented, f"{name} did not take the call"
            return result
        return call
    return _entries(strict)


def _same(got, want):
    """Same dtype, shape and NaN mask, and the same bytes where not NaN."""
    nan = np.isnan(want)
    return (got.dtype == want.dtype and got.shape == want.shape and np.array_equal(np.isnan(got), nan)
            and got[~nan].tobytes() == want[~nan].tobytes())


def _operand_sets(routine, precision, n):
    """Random sets and special-value sets of n stacked sites (one object at n=None)."""
    rng = np.random.default_rng([40, ROUTINE_NAMES.index(routine), n or 0])
    sets = [types.random_operands(routine, rng, precision, batch=n)]
    for ops in _special_sets(routine, rng, precision, 40 if n is None else 8):
        sets.append(ops if n is None else [np.stack([o] * n) for o in ops])
        if n is not None:  # the special values differing from site to site
            sets.append([rng.permutation(np.stack([o] * n).ravel()).reshape((n,) + o.shape) for o in ops])
    return sets


def _calls(spec, ops):
    """(operands, the operand position `out` shares or None) for each form
    of call: a fresh result (in place: the first operand), an out that is an
    operand of the result's shape, and a real factor as a Python float."""
    calls = [(ops, None)]
    if not spec.in_place:
        result = types.OPERAND_SHAPES[spec.result]
        calls += [(ops, k) for k, kind in enumerate(spec.operands) if kind != "scalar" and types.OPERAND_SHAPES[kind] == result]
    if "scalar" in spec.operands:
        k = spec.operands.index("scalar")
        calls.append((ops[:k] + [float(ops[k].ravel()[0])] + ops[k + 1:], None))
    return calls


def _run(kernel, spec, ops, alias):
    """kernel on copies of ops; what it wrote."""
    ops = [op.copy() if isinstance(op, np.ndarray) else op for op in ops]
    if spec.in_place:
        target = ops[0]
        assert kernel(*ops) is target
        return target
    batch = ops[0].shape[:ops[0].ndim - len(types.OPERAND_SHAPES[spec.operands[0]])]
    target = ops[alias] if alias is not None else np.full(batch + types.OPERAND_SHAPES[spec.result], np.nan, ops[0].dtype)
    assert kernel(*ops, out=target) is target
    return target


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
@np.errstate(invalid="ignore", over="ignore")
def test_native_matches_the_python_paths(kind, routine, precision, python_paths):
    # Per site the native loop performs the trace's steps in order, as the
    # trace's Python program (both backends) or numpy (the vector
    # elementwise kernels) does; an out that is an operand is read before it
    # is written in both.
    spec = types.routine_spec(routine)
    kernel = get_backend(kind).kernels[routine]
    for n in (None, 1, 2, 513):
        for ops in _operand_sets(routine, precision, n):
            for call_ops, alias in _calls(spec, ops):
                with _native_only():
                    got = _run(kernel, spec, call_ops, alias)
                with python_paths():
                    want = _run(kernel, spec, call_ops, alias)
                assert _same(got, want), (n, alias)


@needs_native
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_native_takes_operands_off_their_alignment(kind, precision):
    # A SiteBuffer(aligned=False) field starts 4 bytes off an 8-byte
    # boundary; the loops load and store through memcpy.
    lattice = Lattice4D.from_dims((2, 2, 2, 3))
    routine = "mult_su3_mat_vec_sum_4dir"
    fields = {"a": "mat4", "b": "vec4", "c": "vec"}
    crooked = SiteBuffer(lattice, fields, precision, aligned=False)
    crooked.randomize(5)
    assert crooked["a"].ctypes.data % 8
    kernel = get_backend(kind).kernels[routine]
    with _native_only():
        kernel(crooked["a"], crooked["b"], out=crooked["c"])
        want = kernel(crooked["a"].copy(), crooked["b"].copy(), out=np.empty_like(crooked["c"]))
    assert crooked["c"].tobytes() == want.tobytes()


class _Sub(np.ndarray):
    """An ndarray subclass, which no native entry takes."""


_REFUSED = object()  # what a dispatcher's generic path returns in the test below


@needs_native
@pytest.mark.parametrize("name, rank", [
    ("scalar_mult_su3_nn", None), ("scalar_scalar_mult_add_su3_vector", None), ("scalar_sub_four_su3_vecs", None),
    ("vector_mult_su3_nn", None), ("vector_scalar_mult_add_su3_vector", None), ("vector_sub_four_su3_vecs", None),
    ("scalar_mult_su3_nn", 0), ("vector_scalar_mult_add_su3_vector", 0), ("scalar_sub_four_su3_vecs", 1), ("vector_scalar_mult_add_su3_vector", 1),
])
def test_native_entry_refuses_what_it_does_not_take(name, rank):
    # A kernel's own entry (rank None) writes nothing and returns
    # NotImplemented, so the kernel's Python path runs; a dispatcher (apply
    # at rank 0, batch_apply at 1) writes nothing and passes the call to
    # its generic path. None of these may read or write past a buffer.
    routine = name.partition("_")[2]
    spec = types.routine_spec(routine)
    refused = NotImplemented
    if rank is not None:
        def generic(*args, **kwargs):
            return _REFUSED
        dispatcher = MODULE.dispatchers({routine: getattr(MODULE, name)}, generic, generic)["batch_apply" if rank else "apply"]
        refused = _REFUSED
    batch = () if rank == 0 else (3,)
    ops = types.random_operands(routine, np.random.default_rng(7), batch=batch[0] if batch else None)
    args = list(ops) if spec.in_place else list(ops) + [np.full(batch + types.OPERAND_SHAPES[spec.result], np.nan)]
    target = 0 if spec.in_place else len(args) - 1

    out = None if spec.in_place else args[-1]

    def invoke(operands, out, *extra, routine=routine, **keywords):
        if rank is None:
            return getattr(MODULE, name)(*operands, *([] if out is None and spec.in_place else [out]), *extra)
        if rank == 0:
            return dispatcher(routine, *operands, *extra, out=out, **keywords)
        return dispatcher(routine, operands, *extra, out=out, **keywords)

    def variant(position, value):
        call = args[:position] + [value] + args[position + 1:]
        return call[:len(ops)], None if spec.in_place else call[-1]

    wide = np.zeros(args[target].shape + (2,))
    read_only = args[target].copy()
    read_only.flags.writeable = False
    calls = [
        (ops[:-1], out),
        (ops + ops[:1], out),
        (ops, out, None),
        variant(0, args[0].astype(object)),
        variant(0, args[0].astype(np.float32)),
        variant(0, args[0].astype(np.float16)),
        variant(0, args[0].astype(">f8")),
        variant(0, args[0].view(_Sub)),
        variant(0, memoryview(args[0])),
        variant(0, args[0][None]),
        variant(1, np.concatenate([args[1], args[1]]) if batch else args[1].reshape(-1)),
        variant(target, wide[..., 0]),
        variant(target, read_only),
        variant(1, args[1].tolist()),
    ]
    if spec.in_place:
        calls.append((ops, np.zeros_like(ops[0])))  # an out for the in-place routine
        calls += [variant(i, args[0]) for i in (1, 2)]  # an operand that is operand 0
    else:
        if rank is None:
            calls.append((ops, None))  # a kernel's own call without its out
        shared = np.zeros(args[0].size + args[-1].size, args[0].dtype)  # out one element into operand 0
        calls.append(([shared[:args[0].size].reshape(args[0].shape), *ops[1:]], shared[1:1 + args[-1].size].reshape(args[-1].shape)))
    if batch:
        calls += [variant(0, args[0][::-1]), variant(0, args[0][:2]), variant(target, args[target][:2])]
    if "scalar" in spec.operands:
        k = spec.operands.index("scalar")
        calls += [variant(k, np.ones(2)), variant(k, np.float64(0.5)), variant(k, np.array(0.5, np.float32))]
    before = [np.array(a, copy=True) if isinstance(a, np.ndarray) and a.dtype != object else None for a in args]
    for call in calls:
        assert invoke(*call) is refused
    if rank is not None:  # calls of another form, and routines it has no entry for
        calls = [invoke(ops, out, bogus=1), invoke(ops, out, outs=None), invoke(ops, out, routine="mult_su3_zz"),
                 invoke(ops, out, routine=3)]
        if rank:
            calls += [invoke(iter(ops), out), invoke(ops, out, count=None), dispatcher(routine, ops, 3), dispatcher(routine, ops, None, out)]
        else:
            calls.append(dispatcher(routine, *ops, out))  # a positional out
        assert all(call is refused for call in calls)
    for a, b in zip(args, before):
        if b is not None:
            assert np.array_equal(a, b, equal_nan=True)


@needs_native
@pytest.mark.parametrize("kind", BACKEND_NAMES)
@pytest.mark.parametrize("routine", ["mult_adj_su3_mat_vec_4dir", "mult_su3_mat_vec_sum_4dir"])
def test_warm_batch_apply_allocates_only_its_result(kind, routine, python_paths):
    # numpy reports its data allocations to tracemalloc. The Python
    # programs' per-call temporaries (here ~150 KB of gathered slabs) decided
    # whether a process's heap churned; the native loops allocate none.
    # The Python path measured the same way shows what the check would catch.
    backend = get_backend(kind)
    ops = types.random_operands(routine, np.random.default_rng(3), "double", batch=128)
    slack = 1024  # the call's Python objects

    def traced_peak():
        backend.batch_apply(routine, ops)
        tracemalloc.start()
        try:
            before, _ = tracemalloc.get_traced_memory()
            result = backend.batch_apply(routine, ops)
            return tracemalloc.get_traced_memory()[1] - before, result.nbytes
        finally:
            tracemalloc.stop()

    with python_paths():
        python_peak, nbytes = traced_peak()
    assert python_peak > nbytes + slack
    peak, nbytes = traced_peak()
    assert nbytes <= peak <= nbytes + slack


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_apply_and_batch_apply_run_one_native_call(kind, routine, precision, python_paths):
    # The backend's dispatchers take every well-formed call of either form
    # (a fresh result or the caller's out, a Python-float factor for
    # double) as it stands, and give the generic path's bits.
    backend = get_backend(kind)
    spec = types.routine_spec(routine)
    rng = np.random.default_rng([42, ROUTINE_NAMES.index(routine)])

    def generic(*args, **kwargs):
        raise AssertionError("the dispatcher did not take the call")

    for count in (None, 5):
        dispatcher = MODULE.dispatchers(_table(kind), generic, generic)["apply" if count is None else "batch_apply"]
        ops = types.random_operands(routine, rng, precision, batch=count)
        prefix = () if count is None else (count,)
        outs = [None] if spec.in_place else [None, np.full(prefix + types.OPERAND_SHAPES[spec.result], np.nan, ops[0].dtype)]
        calls = [ops]
        if "scalar" in spec.operands and precision == "double":
            calls.append([float(op.flat[0]) if what == "scalar" else op for op, what in zip(ops, spec.operands)])
        for call, out in ((call, out) for call in calls for out in outs):
            with python_paths():
                want = _run(backend.kernels[routine], spec, call, None)
            copies = [op.copy() if isinstance(op, np.ndarray) else op for op in call]
            keywords = {} if out is None else {"out": out}
            got = dispatcher(routine, *copies, **keywords) if count is None else dispatcher(routine, copies, **keywords)
            assert out is None or got is out
            assert _same(got, want), (count, out is None)


@needs_native
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_get_backend_hands_out_the_dispatchers(kind):
    # In a fresh process the first get_backend call binds every backend's
    # dispatchers, so even a reference taken before any call is one.
    code = ("import sys, su3bench\n"
            "def what(f): return f'{type(f).__name__}:{f.__module__}:{f.__name__}'\n"
            "apply = su3bench.get_backend(sys.argv[1]).apply\n"
            "print(*(what(getattr(b, form)) for b in su3bench.backends._BACKENDS.values() "
            "for form in ('apply', 'batch_apply')), what(apply))")
    proc = subprocess.run([sys.executable, "-c", code, kind], capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    forms = [f"builtin_function_or_method:su3native:{form}" for form in ("apply", "batch_apply")]
    assert proc.stdout.split() == forms * 2 + forms[:1]


@needs_native
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_the_class_methods_are_the_generic_path_and_leave_the_instance_as_is(kind):
    backend = get_backend(kind)
    bound = dict(vars(backend))
    for form in ("apply", "batch_apply"):  # bound to (routine -> kernel, the class's method)
        assert type(bound[form]) is type(MODULE.dispatchers) and bound[form].__module__ == "su3native"
        assert bound[form].__self__[1] == getattr(backends.Backend, form).__get__(backend)
    a, b = types.random_operands("mult_su3_mat_vec", np.random.default_rng(5))
    out = backends.Backend.apply(backend, "mult_su3_mat_vec", a, b)
    assert backends.Backend.batch_apply(backend, "mult_su3_mat_vec", [a[None], b[None]])[0].tobytes() == out.tobytes()
    assert vars(backend) == bound


@needs_native
def test_dispatchers_hold_and_release_what_they_are_bound_to():
    # Each dispatcher holds its routine table and generic method, and the
    # interpreter's GC frees them: 1000 pairs made and dropped leave every
    # reference count as it was.
    table, backend = _table("vector"), get_backend("vector")
    apply, batch_apply = Backend.apply.__get__(backend), Backend.batch_apply.__get__(backend)
    watched = [apply, batch_apply, *table.values(), *(f.__self__ for f in table.values())]
    gc.collect()
    before = [sys.getrefcount(x) for x in watched]
    for _ in range(1000):
        pair = MODULE.dispatchers(table, apply, batch_apply)
        assert pair["apply"].__self__[1] is apply and pair["batch_apply"].__self__[1] is batch_apply
    del pair
    gc.collect()
    assert [sys.getrefcount(x) for x in watched] == before


@needs_native
def test_dispatchers_take_only_the_modules_entries():
    # A value that is not one of the module's entries is refused before its
    # self is read as a kernel, and nothing is bound; a routine table
    # altered through a dispatcher's self raises rather than run a kernel.
    table = _table("vector")
    good = table["mult_su3_nn"]
    generic = Backend.apply.__get__(get_backend("vector"))
    watched = [generic, good, good.__self__]
    before = [sys.getrefcount(x) for x in watched]
    for bad in (len, good.__self__, datetime.datetime_CAPI, "vector_mult_su3_nn", None):
        with pytest.raises(TypeError, match="is not an entry of this module"):
            MODULE.dispatchers({"mult_su3_nn": good, "mult_su3_na": bad}, generic, generic)
    assert [sys.getrefcount(x) for x in watched] == before
    apply = MODULE.dispatchers(table, generic, generic)["apply"]
    a, b = types.random_operands("mult_su3_nn", np.random.default_rng(8))
    for value in (datetime.datetime_CAPI, len):
        apply.__self__[0]["mult_su3_nn"] = value
        with pytest.raises(ValueError):
            apply("mult_su3_nn", a, b)


@needs_native
def test_every_export_is_a_builtin_function_of_the_module():
    exports = {name: value for name, value in vars(MODULE).items() if not name.startswith("_")}
    assert sorted(exports) == sorted(ENTRIES + ("dispatchers", "uniform"))
    for name, value in exports.items():
        assert type(value) is type(len) and value.__module__ == "su3native" and value.__name__ == name


@needs_native
def test_uniform_refuses_what_it_does_not_take():
    # It writes only a C-contiguous, writeable, native-order float64 or
    # float32 array, from an exact int >= 0 or a list or tuple of them;
    # anything else it leaves untouched and returns NotImplemented, so that
    # types.random_operands draws through numpy.
    def filled(dtype="f8"):
        return np.full(6, 7.0, dtype)

    good = filled()
    assert MODULE.uniform([1, 2], good) is good and not (good == 7.0).any()
    read_only = filled()
    read_only.flags.writeable = False
    for seed, out in [(1, filled("f2")), (1, filled(">f8")), (1, read_only), (1, np.full((3, 4), 7.0)[:, ::2]),
                      (1, filled().tolist()), (-1, filled()), (True, filled()), (2.5, filled()), (np.int64(1), filled()),
                      ([1, -1], filled()), ([1, 2**70, None], filled()), ([[1]], filled()), (None, filled())]:
        assert MODULE.uniform(seed, out) is NotImplemented
        assert np.asarray(out).tolist() == np.full(np.shape(out), 7.0).tolist()
    with pytest.raises(TypeError):
        MODULE.uniform(1)


@needs_native
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [0, 2**64 + 5, [41, 3, 8]])
def test_uniform_draws_numpys_stream_at_every_length(seed, dtype):
    # The stream runs as two chains, each stepping two outputs at once, and
    # an odd last output comes from the first; every length from 0 to 9 and
    # some odd ones hold each output, and the tail, to numpy's.
    for n in [*range(10), 11, 37, 127, 4609]:
        out = np.full(n, 7.0, dtype)
        assert MODULE.uniform(seed, out) is out
        want = (np.random.default_rng(seed).random(n) * 2 - 1).astype(dtype)
        assert out.tobytes() == want.tobytes(), n


def test_emitted_source_compiles_without_warnings(tmp_path):
    # The whole module under -Wall -Wextra -Werror, so a change that brings
    # in a warning fails here rather than in a build log nobody reads.
    if shutil.which(native.COMPILER) is None:
        pytest.skip(f"{native.COMPILER} not found")
    source = tmp_path / "su3native.c"
    with source.open("w") as f:
        native._emit(f.write, native._entries())
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run([native.COMPILER, *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-I", include, "-I", native.NUMPY_INCLUDE,
                           "-o", str(tmp_path / "su3native.so"), str(source)],
                          capture_output=True, text=True, timeout=native.TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr


@cache
def _source() -> str:
    """The emitted source, kept beside the module."""
    path = Path(MODULE.__file__)
    return (path.parent / f"{path.name.split('.')[0]}.c").read_text()


@cache
def _disassembly() -> dict:
    """Symbol -> its instructions, from objdump -d of the module."""
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump not found")
    text = subprocess.run([objdump, "-d", "--no-show-raw-insn", MODULE.__file__],
                          capture_output=True, text=True, timeout=120, check=True).stdout
    return dict(re.findall(r"^[0-9a-f]+ <([^>]+)>:\n(.*?)(?=\n\n|\Z)", text, re.M | re.S))


PLAIN = re.compile(r"\b(v?(?:mul|add|sub|div)s[sd])\b")
PACKED = re.compile(r"\b(v?(?:mul|add|sub|div)p[sd])\b")
FUSED = re.compile(r"\b(vfn?m(?:add|sub)\w*)\b")


@needs_native
def test_each_loop_is_plain_or_packed_as_its_backend_and_none_is_fused():
    # Per loop symbol: the scalar backend's loops are the trace's scalar
    # arithmetic (gcc -O2 would vectorise them into packed lanes but for
    # -fno-tree-vectorize), the vector backend's are the recipe's packed
    # arithmetic with no scalar operation left, and no loop anywhere fuses
    # a multiply into an add (contraction or -march flags would), which
    # would round once where the trace rounds twice.
    code = _disassembly()
    loops = re.findall(r"\nstatic void (\w+)\(Py_ssize_t n,", _source())
    assert {name.partition("_")[0] for name in loops} == set(BACKEND_NAMES) and set(loops) <= set(code)
    for name in loops:
        plain, packed, fused = (ops.findall(code[name]) for ops in (PLAIN, PACKED, FUSED))
        assert not fused, (name, fused)
        if name.startswith("scalar_"):
            assert plain and not packed, (name, packed)
        else:
            assert packed and not plain, (name, plain)
    assert [name for name, text in code.items() if FUSED.search(text)] == []


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
def test_each_double_vector_loop_performs_its_lane_tallies(routine):
    # The lane tallies are read off the pack plan; the built double loop
    # performs exactly them: a broadcast is one unpcklpd, a product or a
    # sign one mulpd, an add one addpd or subpd, a swapped pair load one
    # shufpd, however many operations read it. Single is not checked: it
    # broadcasts with shufps, which its swaps also use.
    loop = re.search(rf"static const struct kernel {entry('vector', routine)}_kernel = {{.*, (\w+)_d, \w+_f}};", _source()).group(1)
    code = _disassembly()[f"{loop}_d"]
    count = {op: len(re.findall(rf"\b{op}\b", code)) for op in ("unpcklpd", "mulpd", "addpd", "subpd", "shufpd")}
    lanes = simd.lane_op_count(routine)
    assert count["unpcklpd"] == lanes.broadcasts
    assert count["mulpd"] == lanes.packed_mults + lanes.negates
    assert count["addpd"] + count["subpd"] == lanes.packed_adds
    assert count["shufpd"] == lanes.swaps


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_native_source_is_the_trace(kind, routine, precision):
    # Each entry's loop (the first entry's of its backend, where traces are
    # identical) performs its own backend's trace. A plain loop: the steps
    # one line each, in its order, signs as literals. A packed loop: steps
    # 2k and 2k + 1 are the two lanes of line k, each step once, in order,
    # each operand's lanes read from a register its name spells, a swap of
    # one, or a vector of two components or signs; each load its name's
    # adjacent components and each store its results' registers.
    code, ctype = {"double": ("d", "double"), "single": ("f", "float")}[precision]
    text = _source()
    trace = get_backend(kind).routine_trace(routine)
    loop = re.search(rf"static const struct kernel {entry(kind, routine)}_kernel = {{.*, (\w+)_d, \w+_f}};", text).group(1)
    assert loop.startswith(f"{kind}_")
    body = text.split(f"static void {loop}_{code}(")[1].split("\n}\n")[0]
    if native.PACK[kind] == 1:
        steps = re.findall(rf"const {ctype} (t\d+) = (\S+) ([*+-]) (\S+);", body)
        literal = re.compile(rf"\(\({ctype}\)(.*)\)")
        assert [(r, x, op, literal.sub(r"\1", y)) for r, x, op, y in steps] == list(trace.steps)
        return
    vtype, name = f"v2{code}", r"t\d+|x\d+_\d+"

    def lanes(expr: str) -> list:
        if vector := re.fullmatch(rf"\({vtype}\){{(\S+), (\S+)}}", expr):
            return [x if re.fullmatch(name, x) else repr(float(x)) for x in vector.groups()]
        swap = re.fullmatch(rf"swap_{code}\((\w+)\)", expr)
        register = swap.group(1) if swap else expr
        found = re.findall(name, register)
        assert "_".join(found) == register and len(found) == 2, expr
        return found[::-1] if swap else found

    steps = re.findall(rf"const {vtype} (\w+) = (.+) ([*+-]) (.+);", body)
    assert len(steps) == len(trace.steps) // 2 and steps
    assert [step for r, x, op, y in steps for step in zip(lanes(r), lanes(x), (op, op), lanes(y))] == list(trace.steps)
    loads = re.findall(rf"const {vtype} (\w+) = ld2_{code}\(a(\d+), (\d+)\);", body)
    loads += re.findall(rf"const {ctype} (\w+) = ld_{code}\(a(\d+), (\d+)\);", body)
    assert loads and all(x == "_".join(trace.operands[int(k)][int(i):int(i) + len(re.findall(name, x))]) for x, k, i in loads)
    stores = re.findall(rf"st2_{code}\(c, (\d+), (\S+)\);", body)
    assert [x for i, value in stores for x in lanes(value)] == list(trace.results) and [int(i) for i, _ in stores] == list(range(0, len(trace.results), 2))


def test_a_trace_that_does_not_pair_is_refused_at_emit_time():
    # The vector loops have no plain fallback: steps 2k and 2k + 1 of
    # another operation each, reading components that are not adjacent, an
    # odd step, or results stored out of their lanes' order raise. At one
    # lane every trace is its own plan.
    operands = (("x0_0", "x0_1", "x0_2"),)
    cases = [
        ((("t0", "x0_0", "+", "x0_1"), ("t1", "x0_1", "*", "x0_2")), ("t0", "t1")),
        ((("t0", "x0_0", "+", "x0_0"), ("t1", "x0_2", "+", "x0_0")), ("t0", "t1")),
        ((("t0", "x0_0", "+", "x0_1"),), ("t0", "x0_2")),
        ((("t0", "x0_0", "+", "x0_1"), ("t1", "x0_1", "+", "x0_2")), ("t1", "t0")),
    ]
    for steps, results in cases:
        trace = Trace(operands, steps, results)
        with pytest.raises(ValueError, match="pack into 2 lanes"):
            native.pack_plan(trace, 2)
        assert native.pack_plan(trace, 1)[1] == [((r,), (x,), op, (y,)) for r, x, op, y in steps]


def test_module_builds_where_a_compiler_exists():
    # Otherwise a source or flag that gcc rejects would only skip the tests above.
    if shutil.which(native.COMPILER) is None:
        pytest.skip(f"{native.COMPILER} not found")
    assert MODULE is not None, native.status()


@needs_native
def test_capability_reports_the_loaded_module():
    assert simd.capability()["native"] == MODULE.__file__ == native.status()


def test_import_and_flop_table_import_no_native():
    # Set-up time includes importing the package and counting operations;
    # neither may import the emitter, let alone start a compiler, or bind a
    # dispatcher.
    code = ("import sys, su3bench; su3bench.flop_table(); print('su3bench.native' in sys.modules, "
            "any(vars(b).keys() & {'apply', 'batch_apply'} for b in su3bench.backends._BACKENDS.values()), "
            "su3bench.capability()['native'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False not built yet"


def _digests_without(tmp_path, setting: str, value: str) -> str:
    """Run the digest test in a fresh process with native.BUILD an empty
    directory under tmp_path and `setting` of native set to `value`, silently
    (-W error), and return what it printed: native.load() and the
    capability report's native entry. Nothing may be built."""
    code = (
        "import sys, pathlib; sys.path[:0] = sys.argv[1:3]\n"
        "from su3bench import capability, native\n"
        "native.BUILD = pathlib.Path(sys.argv[3])\n"
        "setattr(native, sys.argv[4], sys.argv[5])\n"
        "import test_digests\n"
        "assert test_digests.output_digest() == test_digests.EXPECTED\n"
        "print(native.load(), capability()['native'])\n"
    )
    src = str(Path(su3bench.__file__).resolve().parents[1])
    build = tmp_path / "build"
    build.mkdir()
    proc = subprocess.run([sys.executable, "-W", "error", "-c", code, src, str(TESTS), str(build), setting, value],
                          capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr == ""
    assert list(build.iterdir()) == []
    return proc.stdout.strip()


def test_without_a_compiler_the_python_paths_give_the_digests(tmp_path):
    # No compiler: every kernel of both backends runs its Python path.
    printed = _digests_without(tmp_path, "COMPILER", "su3bench-no-such-compiler")
    assert printed == "None no C compiler: su3bench-no-such-compiler is not on PATH"


def test_without_numpy_headers_the_python_paths_give_the_digests(tmp_path):
    # numpy's include directory without numpy/arrayobject.h: the build stops
    # before the compiler, and every call runs its Python path.
    empty = tmp_path / "include"
    empty.mkdir()
    assert _digests_without(tmp_path, "NUMPY_INCLUDE", str(empty)) == f"None no numpy/arrayobject.h in {empty}"
