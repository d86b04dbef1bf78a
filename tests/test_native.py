"""The native site loops and dispatchers against the Python paths they
stand in for, and what their build promises: plain loops for the scalar
backend and packed ones for the vector backend, each its trace, no fused
arithmetic, no per-call temporaries, nothing at import, and the Python paths
where there is no compiler or no numpy header."""
import datetime
import gc
import importlib.util
import re
import shutil
import subprocess
import sys
import sysconfig
import tracemalloc
from collections import Counter
from contextlib import contextmanager
from functools import cache
from pathlib import Path

import numpy as np
import pytest

import su3bench
from su3bench import BACKEND_NAMES, ROUTINE_NAMES, Backend, Lattice4D, SiteBuffer, backends, get_backend, native, simd, types, verify
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


ELEMENTWISE = ("add_su3_vector", "scalar_mult_add_su3_matrix", "scalar_mult_add_su3_vector", "sub_four_su3_vecs")
SITE_LANE = tuple(routine for routine in ROUTINE_NAMES if routine not in ELEMENTWISE)


def test_site_lane_takes_the_contractions_by_their_traces():
    # The rule reads the scalar trace, not a list: the ten contractions and
    # su3_projector have more steps than loaded components, the four
    # elementwise routines do not. Their batch loops fill REGISTER_BYTES of
    # sites a component where the host has AVX2, else the recipe's lanes.
    scalar_backend = get_backend("scalar")
    assert [routine for routine in ROUTINE_NAMES if native.site_lane(scalar_backend.routine_trace(routine))] == list(SITE_LANE)
    assert len(SITE_LANE) == 11
    avx2 = "AVX2" in native.cpu_features()
    for precision, dtype in types.PRECISIONS.items():
        wide = native.REGISTER_BYTES // dtype.itemsize if avx2 else native.PACK["vector"]
        assert {routine: native.lanes(routine, precision) for routine in ROUTINE_NAMES} == {
            routine: wide if routine in SITE_LANE else native.PACK["vector"] for routine in ROUTINE_NAMES}
    for bad in (("mult_su3_zz", "double"), ("mult_su3_nn", "half")):
        with pytest.raises(ValueError):
            native.lanes(*bad)


@needs_native
@pytest.mark.parametrize("routine", SITE_LANE)
@np.errstate(invalid="ignore", over="ignore")
def test_site_lane_blocks_give_the_scalar_backends_bits(routine, precision, python_paths):
    # The vector backend's batch loop runs whole blocks of L sites site-lane
    # and the rest through the recipe: batches of 0, 1, L - 1, L, L + 1,
    # 2L + 3 and 128 sites give the scalar backend's bits, with a fresh
    # result and with out one of the operands (operand 0 where the shapes
    # match), as every load of a block comes before its first store.
    spec = types.routine_spec(routine)
    lanes = native.lanes(routine, precision)
    vector = get_backend("vector")
    scalar_kernel = get_backend("scalar").kernels[routine]
    for n in sorted({0, 1, lanes - 1, lanes, lanes + 1, 2 * lanes + 3, 128}):
        sets = _operand_sets(routine, precision, n) if n else [types.random_operands(routine, np.random.default_rng(0), precision, batch=0)]
        for ops in sets:
            for call_ops, alias in _calls(spec, ops):
                with python_paths():
                    want = _run(scalar_kernel, spec, call_ops, alias)
                copies = [op.copy() for op in call_ops]
                out = copies[alias] if alias is not None else None
                got = vector.batch_apply(routine, copies, out=out)
                assert out is None or got is out
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


@pytest.mark.parametrize("routine", ["mult_su3_nn", "scalar_mult_add_su3_vector", "sub_four_su3_vecs"])
def test_python_paths_take_the_check_and_the_draw_from_the_module(routine, precision, python_paths, monkeypatch):
    # Under the fixture a check runs both backends' generic batch_apply, as
    # where the module is unavailable, and gives the native check's row; a
    # seed builds its Generator and draws the module's bits.
    generic, calls = Backend.batch_apply, Counter()

    def counted(self, *args, **kwargs):
        calls[self.kind] += 1
        return generic(self, *args, **kwargs)

    monkeypatch.setattr(Backend, "batch_apply", counted)  # before the fixture binds each backend's
    row = verify.check_routine(routine, precision, trials=33, seed=9)
    drawn = types.random_operands(routine, [9, 4], precision, 5)
    default_rng, built = np.random.default_rng, []
    monkeypatch.setattr(np.random, "default_rng", lambda *args: built.append(args) or default_rng(*args))
    calls.clear()
    with python_paths():
        assert verify.check_routine(routine, precision, trials=33, seed=9) == row
        assert calls == {"scalar": 1, "vector": 1}
        built.clear()
        again = types.random_operands(routine, [9, 4], precision, 5)
    assert built == [([9, 4],)]
    assert [(x.dtype, x.shape, x.tobytes()) for x in again] == [(x.dtype, x.shape, x.tobytes()) for x in drawn]


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
    assert sorted(exports) == sorted(ENTRIES + ("dispatchers", "operands", "operands_fill", "check"))
    for name, value in exports.items():
        assert type(value) is type(len) and value.__module__ == "su3native" and value.__name__ == name


def _draw(module, seed, n: int, dtype) -> np.ndarray:
    """The first `n` components of `seed`'s draw in `dtype`, from `module`'s
    operands with a layout of one flat cut."""
    return module.operands(seed, (np.dtype(dtype), n, ((0, n, (n,)),)))[0]


@needs_native
def test_operands_refuses_a_seed_it_does_not_take():
    # It draws from an exact int >= 0 or a list or tuple of them; for any
    # other seed it returns NotImplemented, so that types.random_operands
    # draws through numpy.
    good = _draw(MODULE, [1, 2], 6, np.float64)
    assert good.tolist() == (np.random.default_rng([1, 2]).random(6) * 2 - 1).tolist()
    layout = (np.dtype(np.float64), 6, ((0, 6, (6,)),))
    for seed in [-1, True, 2.5, np.int64(1), [1, -1], [1, 2**70, None], [[1]], None]:
        assert MODULE.operands(seed, layout) is NotImplemented, seed


@needs_native
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
@pytest.mark.parametrize("seed", [0, 2**64 + 5, [41, 3, 8]])
def test_operands_draws_numpys_stream_at_every_length(seed, dtype):
    # The stream runs as two chains, each stepping two outputs at once, and
    # an odd last output comes from the first; every length from 0 to 9 and
    # some odd ones hold each output, and the tail, to numpy's. Where the
    # wide fill runs, it draws 16 outputs a step and hands the chains the
    # rest: lengths below 16 run the chains alone, the others both and the
    # hand-over, up to 12288, the largest draw of a verify sweep.
    for n in [*range(10), 11, 15, 16, 17, 31, 32, 33, 37, 127, 255, 256, 257, 4609, 12288]:
        want = (np.random.default_rng(seed).random(n) * 2 - 1).astype(dtype)
        assert _draw(MODULE, seed, n, dtype).tobytes() == want.tobytes(), n


# Seeds whose streams put the wide fill's limb arithmetic through many
# states: ints of one to four words and above 2**64, check_routine's keys,
# and other list and tuple keys.
LIMB_SEEDS = [0, 1, 2**32 - 1, 2**63 + 1, 2**64 + 5, 2**127 + 3, 2**128 - 1, 2**200 + 7, [], [0, 0], (2**64 + 5, 7, 2**40),
              list(range(9))] + [[20020614, k, itemsize] for k in range(15) for itemsize in (4, 8) if k % 3 == 0] + [[k, 99] for k in range(10)]


@needs_native
@pytest.mark.parametrize("dtype", [np.float64, np.float32])
def test_the_limb_arithmetic_draws_numpys_stream(dtype):
    # The wide fill steps 52-bit limbs and hands the rest to the two chains:
    # one step short of a multiple of 16, a multiple, one past it, and
    # check_routine's lengths, each output's bytes numpy's.
    assert len(LIMB_SEEDS) >= 32
    for seed in LIMB_SEEDS:
        for n in [16 * k + d for k in (1, 2, 64) for d in (-1, 0, 1)] + [4099, 12288]:
            want = (np.random.default_rng(seed).random(n) * 2 - 1).astype(dtype)
            assert _draw(MODULE, seed, n, dtype).tobytes() == want.tobytes(), (seed, n)


@needs_native
def test_operands_refuses_a_layout_it_cannot_cut():
    # operands reads types._cuts' layout, (dtype, size, cuts), every number
    # a plain int: a cut that overruns the draw, or a layout of any other
    # form, is a ValueError before anything is drawn; a seed it does not take
    # is NotImplemented. No call leaks a reference to the dtype.
    layout = types._cuts("mult_su3_nn", "double", 2)
    dt, size, cuts = layout
    assert size == 72 and cuts == ((0, 36, (2, 3, 3, 2)), (36, 72, (2, 3, 3, 2)))
    refused = [(dt, size - 1, cuts), (dt, size, ((0, 36, (2, 3, 3, 2)), (36, 73, (2, 3, 3, 2)))),
               (dt, size, ((-1, 35, (2, 3, 3, 2)),)), (dt, size, ((36, 0, (0,)),)), (dt, size, ((0, 36, (2, 3, 3, 3)),)),
               (dt, size, ((0, 0, (2**40, 2**40, 2**40, 0)),)), (dt, size, ((0, 36, (36, 1, 1, 1, 1, 1)),)),
               (dt, size, ((0, 36, (np.int64(2), 3, 3, 2)),)), (dt, np.int64(size), cuts), (dt, size, list(cuts)),
               (dt, size, cuts * 3), (np.dtype(np.float16), size, cuts), (np.dtype(">f8"), size, cuts), ("f8", size, cuts),
               (dt, size), [dt, size, cuts], None]
    before = sys.getrefcount(dt)
    for bad in refused:
        with pytest.raises(ValueError, match="layout"):
            MODULE.operands(5, bad)
    for seed in (-1, np.int64(5), [1, None], 2.0):
        assert MODULE.operands(seed, layout) is NotImplemented
    for _ in range(10):
        MODULE.operands([5, 1], layout)
    assert sys.getrefcount(dt) == before
    assert [x.shape for x in MODULE.operands(5, (dt, size, ((1, 37, (36,)),)))] == [(36,)]
    with pytest.raises(TypeError):
        MODULE.operands(5)


def _check_entries(first, second):
    """The module's entries of two (backend, routine) pairs."""
    return [getattr(MODULE, entry(kind, routine)) for kind, routine in (first, second)]


@needs_native
@pytest.mark.parametrize("precision", ["double", "single"])
def test_check_passes_every_routine_at_every_length(precision):
    # Both backends' loops agree bitwise, so check answers True for every
    # routine: at 0 and 1 sites, one short of and one past a site-lane block
    # (REGISTER_BYTES over the item size), and at check_routine's 128. It
    # writes no operand, the in-place routine's included, and takes a tuple
    # as it takes a list.
    block = native.REGISTER_BYTES // types.dtype_for(precision).itemsize
    for routine in ROUTINE_NAMES:
        scalar, vector = _check_entries(("scalar", routine), ("vector", routine))
        for n in (0, 1, block - 1, block + 1, 128):
            operands = types.random_operands(routine, [9, n], precision, batch=n)
            before = [x.tobytes() for x in operands]
            assert MODULE.check(scalar, vector, operands) is True, (routine, n)
            assert MODULE.check(scalar, vector, tuple(operands)) is True, (routine, n)
            assert [x.tobytes() for x in operands] == before, (routine, n)


def _check_cases(precision):
    """(first, second, operands) cases of check, each entry a (backend,
    routine) pair: one special value at every component of an elementwise
    sum, at lengths that reach the compare's eight-a-step loop and its
    two-a-step tail; two routines of one signature on all-signed-zero operands (equal
    results whose zeros differ in sign) and on drawn ones; and every
    routine's random and special-value sets."""
    dt = types.dtype_for(precision)
    tiny = np.finfo(dt).smallest_subnormal
    rng = np.random.default_rng([44, dt.itemsize])
    for n in (1, 2, 3, 5):
        a, b = types.random_operands("add_su3_vector", [44, n], precision, batch=n)
        for k in range(a.size):
            for x, y in [(np.nan, 0.5), (np.inf, -np.inf), (np.inf, 1.0), (-0.0, 0.0), (tiny, tiny)]:
                p, q = a.copy(), b.copy()
                p.reshape(-1)[k], q.reshape(-1)[k] = x, y
                yield ("scalar", "add_su3_vector"), ("vector", "add_su3_vector"), [p, q]
    for pair in [("mult_su3_nn", "mult_su3_na"), ("mult_su3_an", "mult_su3_nn"), ("mult_su3_mat_vec", "mult_adj_su3_mat_vec")]:
        for n in (0, 1, 4, 7, 9, 17):
            drawn = types.random_operands(pair[0], [45, n], precision, batch=n)
            zeros = [np.where(rng.random(x.shape) < 0.5, -0.0, 0.0).astype(dt) for x in drawn]
            for kind in BACKEND_NAMES:
                yield (kind, pair[0]), (kind, pair[1]), zeros
                yield (kind, pair[0]), (kind, pair[1]), drawn
    for routine in ROUTINE_NAMES:
        for n in (1, 9):
            for operands in _operand_sets(routine, precision, n):
                yield ("scalar", routine), ("vector", routine), operands


@needs_native
@pytest.mark.parametrize("precision", ["double", "single"])
@np.errstate(over="ignore", invalid="ignore")
def test_check_answers_as_numpys_not_equal_does(precision):
    # check's answer is numpy's not (first != second).any() over the two
    # results: a NaN equals nothing, -0.0 equals +0.0. The cases reach a
    # True answer over equal bits and over differing signed zeros, and a
    # False one.
    answers = Counter()
    for first, second, operands in _check_cases(precision):
        results = [get_backend(kind).batch_apply(routine, [operands[0].copy(), *operands[1:]]) for kind, routine in (first, second)]
        want = not (results[0] != results[1]).any()
        assert MODULE.check(*_check_entries(first, second), operands) is want, (first, second, operands)
        answers[want, results[0].tobytes() == results[1].tobytes()] += 1
    assert answers[True, True] and answers[True, False] and answers[False, False], answers


@needs_native
def test_check_declines_what_run_declines():
    # Any call run does not take, from either entry, is NotImplemented, as
    # are two routines whose results differ in shape; check_routine then
    # takes its full path.
    scalar, vector = _check_entries(("scalar", "mult_su3_nn"), ("vector", "mult_su3_nn"))
    a, b = types.random_operands("mult_su3_nn", [6], "double", batch=4)

    class Subclass(np.ndarray):
        pass

    for operands in [iter([a, b]), np.stack([a, b]), [a], [a, b, b], [a, tuple(b)], [a, b.tolist()], [a, b.astype(np.float32)],
                     [a, b[:3]], [a[0], b[0]], [a[:, ::-1], b], [a.view(Subclass), b], [a.astype(np.float16), b.astype(np.float16)],
                     [a.astype(">f8"), b.astype(">f8")], [a.astype(np.int64), b.astype(np.int64)]]:
        assert MODULE.check(scalar, vector, operands) is NotImplemented, operands
        assert MODULE.check(vector, scalar, operands) is NotImplemented, operands
    ops = types.random_operands("sub_four_su3_vecs", [6], "double", batch=4)
    for operands in [[ops[0].tolist(), *ops[1:]], [ops[0].astype(np.float16), *ops[1:]], ops[:4]]:
        assert MODULE.check(*_check_entries(("scalar", "sub_four_su3_vecs"), ("vector", "sub_four_su3_vecs")), operands) is NotImplemented
    x, y = types.random_operands("add_su3_vector", [6], "double", batch=4)
    assert MODULE.check(*_check_entries(("scalar", "add_su3_vector"), ("scalar", "su3_projector")), [x, y]) is NotImplemented


@needs_native
def test_check_takes_only_this_modules_entries():
    # Each of its first two arguments must be an entry of this module, as
    # dispatchers requires: anything else is a TypeError, a dispatcher of
    # the module and an entry's capsule among them.
    scalar, vector = _check_entries(("scalar", "mult_su3_nn"), ("vector", "mult_su3_nn"))
    a, b = types.random_operands("mult_su3_nn", [6], "double", batch=4)
    for bad in (len, scalar.__self__, get_backend("vector").batch_apply, MODULE.check, "scalar_mult_su3_nn", None):
        for entries in ((bad, vector), (scalar, bad)):
            with pytest.raises(TypeError, match="is not an entry of this module"):
                MODULE.check(*entries, [a, b])
    with pytest.raises(TypeError):
        MODULE.check(scalar, vector)


@needs_native
def test_check_keeps_the_callers_operands_and_frees_its_results():
    # The in-place routine runs on a copy of operand 0 for each backend, so
    # the caller's operand 0, read-only or not, is left as it was; no call
    # keeps a reference to an operand or leaves a result or a copy behind.
    scalar, vector = _check_entries(("scalar", "sub_four_su3_vecs"), ("vector", "sub_four_su3_vecs"))
    operands = types.random_operands("sub_four_su3_vecs", [3], "double", batch=64)
    snapshot = operands[0].copy()
    refs = [sys.getrefcount(x) for x in operands]
    tracemalloc.start()
    try:
        assert MODULE.check(scalar, vector, operands) is True
        before, _ = tracemalloc.get_traced_memory()
        for _ in range(50):
            assert MODULE.check(scalar, vector, operands) is True
        grown = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert grown < snapshot.nbytes
    assert operands[0].tobytes() == snapshot.tobytes()
    assert [sys.getrefcount(x) for x in operands] == refs
    operands[0].flags.writeable = False
    assert MODULE.check(scalar, vector, operands) is True


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


@needs_native
def test_without_the_wide_fill_operands_draws_the_same_bits(tmp_path):
    # The module as a compiler for another host sees it, its x86-64 blocks
    # (the site-lane loops, the wide fill and the init's tests of the CPU)
    # left out, under -Wall -Wextra -Werror: operands runs the two chains
    # alone, to numpy's bits at every length the wide fill hands over at,
    # and check gives the answers of the module as built here.
    source = tmp_path / "su3native.c"
    with source.open("w") as f:
        native._emit(f.write, native._entries())
    text = source.read_text()
    assert text.count("#if defined(__x86_64__)") == 4
    source.write_text(text.replace("#if defined(__x86_64__)", "#if 0"))
    built = tmp_path / f"su3native{sysconfig.get_config_var('EXT_SUFFIX')}"
    include = sysconfig.get_paths()["include"]
    proc = subprocess.run([native.COMPILER, *native.FLAGS, "-Wall", "-Wextra", "-Werror", "-I", include, "-I", native.NUMPY_INCLUDE,
                           "-o", str(built), str(source)], capture_output=True, text=True, timeout=native.TIMEOUT_S)
    assert proc.returncode == 0, proc.stderr
    spec = importlib.util.spec_from_file_location("su3native", built)
    portable = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(portable)
    assert portable.operands_fill() == "two-chain scalar fill"
    for dtype in (np.float64, np.float32):
        for n in (15, 16, 17, 33, 257, 12288):
            want = (np.random.default_rng([41, 3, 8]).random(n) * 2 - 1).astype(dtype)
            assert _draw(portable, [41, 3, 8], n, dtype).tobytes() == want.tobytes(), n
    # Nor does it run the site-lane loops: the recipe runs every site of the
    # vector entries, to the digests of the module as built here.
    for routine in ROUTINE_NAMES:
        spec = types.routine_spec(routine)
        for precision in types.PRECISIONS:
            ops = types.random_operands(routine, np.random.default_rng(11), precision, batch=19)
            outs = [] if spec.in_place else [np.empty((19,) + types.OPERAND_SHAPES[spec.result], ops[0].dtype)]
            got, want = ([op.copy() for op in ops] + [out.copy() for out in outs] for _ in range(2))
            name = entry("vector", routine)
            assert getattr(portable, name)(*got).tobytes() == getattr(MODULE, name)(*want).tobytes(), (routine, precision)
    for precision in types.PRECISIONS:
        for first, second, operands in _check_cases(precision):
            entries = [getattr(portable, entry(kind, routine)) for kind, routine in (first, second)]
            assert portable.check(*entries, operands) is MODULE.check(*_check_entries(first, second), operands), (first, second)


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
def test_the_module_is_built_without_asserts():
    # -DNDEBUG compiles out the headers' assert calls, whose messages name
    # the source file, so nothing in the module names where it was built.
    built = Path(MODULE.__file__).read_bytes()
    assert b"__assert_fail" not in built
    assert str(native.BUILD).encode() not in built


@needs_native
@pytest.mark.parametrize("routine", SITE_LANE)
def test_each_site_lane_loop_performs_its_trace_in_ymm_registers(routine, precision):
    # Where the host has AVX2 (native.lanes) the site-lane loop runs: per
    # block, one ymm vmulpd or vmulps per multiply of the scalar trace, one
    # vaddp or vsubp per add or subtract, no other float arithmetic and
    # nothing fused.
    lanes = native.lanes(routine, precision)
    if lanes == native.PACK["vector"]:
        pytest.skip("no AVX2 on this host: the recipe runs every site")
    assert lanes * types.PRECISIONS[precision].itemsize * 8 == 256  # one ymm register of sites
    trace = get_backend("scalar").routine_trace(routine)
    loop = _loops("vector", routine)[1]
    assert loop is not None
    code = _disassembly()[f"{loop}_{'d' if precision == 'double' else 'f'}"]
    suffix = "pd" if precision == "double" else "ps"
    arithmetic = re.findall(r"^\s*[0-9a-f]+:\s+(v?(?:mul|add|sub|div)[ps][sd])\s+(.*)$", code, re.M)
    assert all(op.endswith(suffix) and "%ymm" in args for op, args in arithmetic), arithmetic
    count = Counter(op for op, _ in arithmetic)
    assert count[f"vmul{suffix}"] == sum(op == "*" for _, _, op, _ in trace.steps)
    assert count[f"vadd{suffix}"] + count[f"vsub{suffix}"] == sum(op in "+-" for _, _, op, _ in trace.steps)
    assert sum(count.values()) == len(trace.steps)
    assert not FUSED.search(code)


@needs_native
def test_the_wide_fill_is_avx512_code():
    # Where the host has AVX-512 IFMA, operands runs fill_wide, whose lanes
    # multiply 52-bit limbs in zmm registers, the low and the high halves of
    # each product added into a limb, and rotate each output by its own
    # count; gcc emits these only under the function's target.
    if not MODULE.operands_fill().startswith("AVX-512"):
        pytest.skip(f"no AVX-512 IFMA on this host: operands runs the {MODULE.operands_fill()}")
    wide = [text for name, text in _disassembly().items() if name.partition(".")[0] == "fill_wide"]
    assert len(wide) == 1
    for op in ("vpmadd52luq", "vpmadd52huq", "vprorvq"):
        assert re.search(rf"\b{op}\b.*%zmm", wide[0]), op


@needs_native
def test_code_after_the_dispatchers_sits_after_text(tmp_path):
    # Every function the source defines after the dispatchers (the seeded
    # draw, the operand views, check and its compare loops, and the module's
    # init) goes to the section .text.after, and the site loops and
    # dispatchers stay in .text: gcc orders the functions of .text by its
    # call graph, not by the source, so the later code would otherwise move
    # the earlier. In the module the linker places the section after .text.
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump not found")
    source = _source()
    head, tail = source.split("\n#define AFTER_TEXT ", 1)
    definition = r"^[^\s#][^\n;]*?\b(\w+)\([^;{]*\)\n\{"  # a function's head, not a preprocessor line's parentheses
    after = set(re.findall(definition, tail, re.M))
    after |= {f"equal_{code}" for code in re.findall(r"^EQUAL\((\w)\)$", tail, re.M)}
    before = set(re.findall(definition, head, re.M))
    assert {"equal_d", "equal_f", "check"} <= after
    assert {"scalar_mult_su3_nn_d", "vector_mult_su3_nn_f"} <= before
    obj = tmp_path / "su3native.o"
    (tmp_path / "su3native.c").write_text(source)
    include = sysconfig.get_paths()["include"]
    subprocess.run([native.COMPILER, *native.FLAGS, "-c", "-I", include, "-I", native.NUMPY_INCLUDE, "-o", str(obj), str(tmp_path / "su3native.c")],
                   check=True, timeout=native.TIMEOUT_S)

    def functions(path) -> dict:
        """Each function symbol's name, less any suffix gcc gave a clone -> (section, address)."""
        text = subprocess.run([objdump, "-t", str(path)], capture_output=True, text=True, timeout=120, check=True).stdout
        return {name.partition(".")[0]: (section, int(address, 16))
                for address, section, name in re.findall(r"^([0-9a-f]+) .{6}F (\S+)\t[0-9a-f]+\s+(\S+)$", text, re.M)}

    sections = functions(obj)
    after, before = after & sections.keys(), before & sections.keys()  # those gcc did not inline
    assert {"fill_wide", "operands", "check", "PyInit_su3native"} <= after
    assert {"run", "entry", "dispatch", "dispatchers"} <= before
    assert {name: sections[name][0] for name in after} == dict.fromkeys(after, ".text.after")
    assert {name: sections[name][0] for name in before} == dict.fromkeys(before, ".text")
    placed = functions(MODULE.__file__)
    assert max(placed[name][1] for name in before) < min(placed[name][1] for name in after)


@needs_native
def test_no_loop_calls_a_transpose():
    # Left to gcc, whether a call of a transpose is inlined depends on the
    # size of the whole unit, so a change anywhere in the module could change
    # the site-lane loops' code. They are always inlined: the module has no
    # out-of-line copy of any, where it has the loops that use them.
    objdump = shutil.which("objdump")
    if objdump is None:
        pytest.skip("objdump not found")
    text = subprocess.run([objdump, "-t", MODULE.__file__], capture_output=True, text=True, timeout=120, check=True).stdout
    names = {name.partition(".")[0] for name in re.findall(r"^[0-9a-f]+ .{6}F \S+\t[0-9a-f]+\s+(\S+)$", text, re.M)}
    assert "run" in names
    assert not names & {"ld4_d", "st4_d", "ld8_f", "st8_f"}


def _loops(kind: str, routine: str) -> tuple:
    """The loops the entry's kernel runs, named less their precision
    suffix: its loop, and its site-lane loop or None."""
    return re.search(rf"static const struct kernel {entry(kind, routine)}_kernel = {{.*, (\w+)_d, \w+_f, "
                     r"(?:LANES\((\w+)_d\), LANES\(\w+_f\)|NULL, NULL)};", _source()).groups()


def _vector_loop_ops(routine: str, code: str) -> Counter:
    """The instructions of the routine's vector loop in one precision (code
    "d" or "f"), from objdump: each counted by its mnemonic, and one with
    an immediate operand also by both ("shufps $0xe0")."""
    loop = _loops("vector", routine)[0]
    count = Counter()
    for mnemonic, immediate in re.findall(r"^\s*[0-9a-f]+:\s+(\S+)(?:\s+(\$0x[0-9a-f]+),)?", _disassembly()[f"{loop}_{code}"], re.M):
        count[mnemonic] += 1
        if immediate:
            count[f"{mnemonic} {immediate}"] += 1
    return count


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
def test_each_double_vector_loop_performs_its_lane_tallies(routine):
    # The lane tallies are read off the pack plan; the built double loop
    # performs exactly them: a broadcast is one unpcklpd, a product or a
    # sign one mulpd, an add one addpd or subpd, a swapped pair load one
    # shufpd, however many operations read it.
    count = _vector_loop_ops(routine, "d")
    lanes = simd.lane_op_count(routine)
    assert count["unpcklpd"] == lanes.broadcasts
    assert count["mulpd"] == lanes.packed_mults + lanes.negates
    assert count["addpd"] + count["subpd"] == lanes.packed_adds
    assert count["shufpd"] == lanes.swaps


@needs_native
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
def test_each_single_vector_loop_performs_its_lane_tallies(routine):
    # The same tallies in the single loop, whose two lanes are the low half
    # of an xmm register: a broadcast is one shufps $0xe0 (lane 0 into lane
    # 1), a swapped pair load one shufps $0xe1, and no other shuffle; a
    # product or a sign one mulps, an add one addps or subps.
    count = _vector_loop_ops(routine, "f")
    lanes = simd.lane_op_count(routine)
    assert count["shufps $0xe0"] == lanes.broadcasts
    assert count["shufps $0xe1"] == lanes.swaps
    assert count["shufps"] == lanes.broadcasts + lanes.swaps
    assert count["mulps"] == lanes.packed_mults + lanes.negates
    assert count["addps"] + count["subps"] == lanes.packed_adds


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
    # A site-lane loop (the vector backend's, where site_lane holds): the
    # scalar trace itself, one line a step, each on whole registers
    # of sites; each load a 128-bit row of its operand's adjacent
    # components, the rows covering them all, and each store the results'
    # registers, the rows covering every result.
    code, ctype = {"double": ("d", "double"), "single": ("f", "float")}[precision]
    text = _source()
    trace = get_backend(kind).routine_trace(routine)
    loop, lanes_loop = _loops(kind, routine)
    assert loop.startswith(f"{kind}_")
    if lanes_loop:
        lanes, row = native.REGISTER_BYTES // types.PRECISIONS[precision].itemsize, 16 // types.PRECISIONS[precision].itemsize
        scalar_trace = get_backend("scalar").routine_trace(routine)
        body = text.split(f"AVX2\nstatic void {lanes_loop}_{code}(")[1].split("\n}\n")[0]
        steps = re.findall(rf"const v{lanes}{code} (t\d+) = (\S+) ([*+-]) (\S+);", body)
        assert steps == list(scalar_trace.steps) and body.count(f"const v{lanes}{code} ") == len(steps)
        loads = re.findall(rf"ld{lanes}_{code}\(a(\d+), s\1, (\d+), (.*)\);", body)
        covered = set()
        for k, i, names in loads:
            k, i = int(k), int(i)
            assert names.split(", ") == [f"&{x}" for x in scalar_trace.operands[k][i:i + row]] and len(names.split(", ")) == row
            covered |= set(scalar_trace.operands[k][i:i + row])
        assert covered == {x for names in scalar_trace.operands for x in names}
        stores = re.findall(rf"st{lanes}_{code}\(c, s{len(trace.operands)}, (\d+), (.*)\);", body)
        assert all(names.split(", ") == list(scalar_trace.results[int(i):int(i) + row]) for i, names in stores)
        assert {int(i) + j for i, _ in stores for j in range(row)} == set(range(len(scalar_trace.results)))
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
    assert simd.capability()["draw"] == MODULE.operands_fill() == native.draw()
    assert native.draw() in ("AVX-512 IFMA fill, then the two-chain scalar fill", "two-chain scalar fill")


def test_prune_removes_only_other_keys(tmp_path, monkeypatch):
    # Modules and sources of other keys go; the current key's stay, with
    # its build's temporary files, and so does anything else in the directory.
    current = f"su3native_{native._key(native._entries())}"
    suffix = sysconfig.get_config_var("EXT_SUFFIX")
    keep = [f"{current}.c", f"{current}{suffix}", f"{current}.abc123.c", "notes.txt"]
    stale = [f"su3native_{'0' * 16}.c", f"su3native_{'0' * 16}{suffix}", f"su3native_{'1' * 16}.cpython-39-x86_64-linux-gnu.so"]
    for name in keep + stale:
        (tmp_path / name).write_text("")
    monkeypatch.setattr(native, "BUILD", tmp_path)
    assert native.prune() == sorted(tmp_path / name for name in stale)
    assert sorted(path.name for path in tmp_path.iterdir()) == sorted(keep)
    assert native.prune() == []
    monkeypatch.setattr(native, "BUILD", tmp_path / "absent")
    assert native.prune() == []


def test_import_and_flop_table_import_no_native():
    # Set-up time includes importing the package and counting operations;
    # neither may import the emitter, let alone start a compiler, or bind a
    # dispatcher. verify binds the module on its first check, not on import.
    code = ("import sys, su3bench, su3bench.verify; su3bench.flop_table(); print('su3bench.native' in sys.modules, "
            "any(vars(b).keys() & {'apply', 'batch_apply'} for b in su3bench.backends._BACKENDS.values()), "
            "su3bench.capability()['native'])")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False False not built yet"


def _digests_without(tmp_path, setting: str, value: str) -> str:
    """Run the digest test in a fresh process with native.BUILD an empty
    directory under tmp_path and `setting` of native set to `value`, silently
    (-W error), and return what it printed last: native.load() and the
    capability report's native entry. Nothing may be built. Its check_all
    rows, with and without inject_fault, are this process's, where the
    native module's check ends each passing check."""
    code = (
        "import sys, pathlib; sys.path[:0] = sys.argv[1:3]\n"
        "from su3bench import capability, check_all, native\n"
        "native.BUILD = pathlib.Path(sys.argv[3])\n"
        "setattr(native, sys.argv[4], sys.argv[5])\n"
        "import test_digests\n"
        "assert test_digests.output_digest() == test_digests.EXPECTED\n"
        "assert capability()['draw'] == 'numpy'\n"
        "for fault in (False, True):\n"
        "    print(repr(check_all(trials=64, seed=5, inject_fault=fault).rows))\n"
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
    *rows, printed = proc.stdout.strip().splitlines()
    assert rows == [repr(su3bench.check_all(trials=64, seed=5, inject_fault=fault).rows) for fault in (False, True)]
    return printed


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
