import inspect
import subprocess
import sys
import traceback
from collections import Counter

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from su3bench import BACKEND_NAMES, get_backend, scalar, simd, types
from su3bench.trace import Sym, Trace, program
from test_flops import EXPECTED
from tutil import CONTRACTIONS, adjoint, max_ulp, random_unitary, rel_norm_err, run_kernel, zeros

ALL = types.ROUTINE_NAMES
SCALAR = get_backend("scalar")


def _call_both(routine, ops):
    """(kernel result, oracle result), copying for the in-place routine."""
    spec = types.routine_spec(routine)
    if spec.in_place:
        got = SCALAR.apply(routine, ops[0].copy(), *ops[1:])
    else:
        got = SCALAR.apply(routine, *ops)
    want = oracles.ORACLES[routine](*ops)
    return got, want


@pytest.mark.parametrize("routine", ALL)
def test_matches_oracle(routine, precision):
    rng = np.random.default_rng([10, ALL.index(routine)])
    worst = 0.0
    for _ in range(200):
        ops = types.random_operands(routine, rng, precision)
        got, want = _call_both(routine, ops)
        worst = max(worst, max_ulp(got, want))
    assert worst <= 2.0


@pytest.mark.parametrize("routine", ALL)
def test_oracle_agreement_is_exact(routine, precision):
    # Both sides use the documented left-to-right separated-sums
    # association, so agreement is bitwise, not merely within tolerance.
    # If this canary trips while the <= 2 ulp contract still holds, an
    # association drifted somewhere.
    rng = np.random.default_rng([11, ALL.index(routine)])
    for _ in range(25):
        ops = types.random_operands(routine, rng, precision)
        got, want = _call_both(routine, ops)
        assert np.array_equal(got, want)


def test_identity_absorption(rng, precision):
    eye = types.su3_matrix(np.eye(3), precision)
    a = types.random_operands("mult_su3_nn", rng, precision)[0]
    v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
    h = types.random_operands("mult_su3_mat_hwvec", rng, precision)[1]
    assert np.array_equal(run_kernel(scalar.mult_su3_mat_vec, eye, v), v)
    assert np.array_equal(run_kernel(scalar.mult_adj_su3_mat_vec, eye, v), v)
    assert np.array_equal(run_kernel(scalar.mult_su3_nn, eye, a), a)
    assert np.array_equal(run_kernel(scalar.mult_su3_nn, a, eye), a)
    assert np.array_equal(run_kernel(scalar.mult_su3_na, a, eye), a)
    assert np.array_equal(run_kernel(scalar.mult_su3_an, eye, a), a)
    assert np.array_equal(run_kernel(scalar.mult_su3_mat_hwvec, eye, h), h)
    assert np.array_equal(run_kernel(scalar.mult_adj_su3_mat_hwvec, eye, h), h)


def test_adjoint_coherence(rng, precision):
    a, b = types.random_operands("mult_su3_nn", rng, precision)
    v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
    assert np.array_equal(run_kernel(scalar.mult_su3_an, a, b), run_kernel(scalar.mult_su3_nn, adjoint(a), b))
    assert np.array_equal(run_kernel(scalar.mult_su3_na, a, b), run_kernel(scalar.mult_su3_nn, a, adjoint(b)))
    assert np.array_equal(run_kernel(scalar.mult_adj_su3_mat_vec, a, v), run_kernel(scalar.mult_su3_mat_vec, adjoint(a), v))


def test_multi_direction_routines_delegate(rng, precision):
    a4, b = types.random_operands("mult_adj_su3_mat_vec_4dir", rng, precision)
    stacked = run_kernel(scalar.mult_adj_su3_mat_vec_4dir, a4, b)
    spread = run_kernel(scalar.mult_adj_su3_mat_4vec, a4, b)
    for d in range(4):
        single = run_kernel(scalar.mult_adj_su3_mat_vec, a4[d], b)
        assert np.array_equal(stacked[d], single)
        assert np.array_equal(spread[d], single)


class _UnpackLog(np.ndarray):
    """An array that counts the calls that unpack it into components."""

    def ravel(self, *args, **kwargs):
        self.unpacks += 1
        return super().ravel(*args, **kwargs)

    def reshape(self, *args, **kwargs):
        self.unpacks += 1
        return super().reshape(*args, **kwargs)


@pytest.mark.parametrize("routine", ALL)
def test_each_operand_is_unpacked_once(routine, rng, precision):
    # The routine's program, the path a call the native entry does not take
    # runs (the native entry reads buffers and unpacks nothing), reads each
    # array operand through one reshape, a single object as one site.
    spec = types.routine_spec(routine)
    ops = types.random_operands(routine, rng, precision)
    logged = list(ops)
    for k, kind in enumerate(spec.operands):
        if kind != "scalar":
            logged[k] = ops[k].copy().view(_UnpackLog)
            logged[k].unpacks = 0
    want = SCALAR.apply(routine, ops[0].copy(), *ops[1:])
    compiled = SCALAR.kernels[routine].program()
    got = compiled(*logged) if spec.in_place else compiled(*logged, np.empty_like(want))
    assert _same_bits(np.asarray(got), want)
    unpacks = [op.unpacks for op, kind in zip(logged, spec.operands) if kind != "scalar"]
    assert unpacks == [1] * len(unpacks)


@pytest.mark.parametrize("routine", ALL)
def test_trace_performs_the_counted_operations(routine):
    # flop_count reads these steps, so this is its count against the hand derivation.
    ops = [op for _, _, op, _ in scalar.routine_trace(routine).steps]
    mults, adds = EXPECTED[routine]
    assert ops.count("*") == mults
    assert ops.count("+") + ops.count("-") == adds == len(ops) - mults


@pytest.mark.parametrize("routine", CONTRACTIONS)
def test_contractions_follow_the_summation_convention(routine):
    # The scalar module docstring's convention, read off the trace: each
    # result component is one add or subtract of two real product sums, and
    # each sum is a left-to-right fold of products of two operands' components
    # over the routine's terms.
    trace = scalar.routine_trace(routine)
    steps = {result: (left, op, right) for result, left, op, right in trace.steps}
    operand_of = {x: k for k, names in enumerate(trace.operands) for x in names}
    terms = {"mult_su3_mat_vec_sum_4dir": 12, "su3_projector": 1}.get(routine, 3)

    def products(x):
        """The number of products the left fold ending at step x adds."""
        left, op, right = steps[x]
        if op == "*":
            assert left in operand_of and right in operand_of and operand_of[left] != operand_of[right], (routine, x)
            return 1
        assert op == "+" and right in steps and products(right) == 1, (routine, x)
        return products(left) + 1

    for x in trace.results:
        left, op, right = steps[x]
        assert op in "+-", (routine, x)
        assert products(left) == products(right) == terms, (routine, x)


def test_tracer_emits_only_operations_between_components():
    tape = []
    x, y = Sym("x", tape), Sym("y", tape)
    untraceable = (lambda: x * 2.0, lambda: 2.0 * x, lambda: x + 0.0, lambda: 1.0 - x, lambda: -x, lambda: bool(x), lambda: x == y,
                   lambda: x * Sym("z", []))
    for op in untraceable:
        with pytest.raises(TypeError, match="cannot trace"):
            op()
    assert (x * y - x).name == "t1"
    assert tape == [("t0", "x", "*", "y"), ("t1", "t0", "-", "x")]


def test_a_body_the_trace_cannot_emit_is_refused(monkeypatch):
    def negated(a, b, out):
        out.flat = [-x for x in a.flat]
        return out

    def partial(a, b, out):
        out.flat[0] = a.flat[0] + b.flat[0]
        return out

    for body in (negated, partial):
        monkeypatch.setattr(scalar, "add_su3_vector", body)
        with pytest.raises(TypeError, match="trace"):
            scalar.routine_trace.__wrapped__("add_su3_vector")


def test_import_and_flop_table_build_no_program():
    # Programs are built, and native entries looked up, on a routine's first
    # call, never at import or while counting operations, which set-up time
    # includes.
    code = ("import su3bench; su3bench.flop_table(); "
            "print(*(sum(k.program.cache_info().currsize for k in su3bench.get_backend(kind).kernels.values()) "
            "for kind in ('scalar', 'vector')), len(su3bench.trace.NATIVE))")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split() == ["0", "0", "0"]


@pytest.mark.parametrize("build, name", [
    (lambda: scalar.mult_su3_nn.program(), "scalar_mult_su3_nn"),
    (lambda: simd.mult_su3_nn.program(), "vector_mult_su3_nn"),
], ids=["scalar", "vector"])
def test_program_source_is_shown(build, name, rng):
    # The generated source is registered under the program's filename, so
    # inspect and tracebacks read the emitted lines.
    compiled = build()
    filename = compiled.__code__.co_filename
    assert compiled.__name__ == name and filename == f"<{name} batch>"
    assert inspect.getsource(compiled).startswith(f"def {name}(")
    a, b = types.random_operands("mult_su3_nn", rng)
    with pytest.raises(AttributeError) as raised:
        compiled(a, b, None)
    frame = traceback.extract_tb(raised.value.__traceback__)[-1]
    assert frame.filename == filename and frame.line.endswith("out.size // 18")


def test_a_body_runs_only_under_the_trace(monkeypatch):
    # Once traced, single objects, object arrays and batches all run
    # compiled code: a body change reaches them only through the trace.
    calls = Counter()

    def counting(routine, body):
        def counted(*args, **kwargs):
            calls[routine] += 1
            return body(*args, **kwargs)
        return counted

    for kernel, routine in {getattr(scalar, routine): routine for routine in ALL}.items():  # 4vec is 4dir
        scalar.routine_trace(routine)
        monkeypatch.setattr(kernel, "__wrapped__", counting(routine, kernel.__wrapped__))
    rng = np.random.default_rng(13)
    for routine in ALL:
        for batch in (None, 3):
            ops = types.random_operands(routine, rng, batch=batch)
            for dtype in (np.float64, np.float32, object):
                run_kernel(getattr(scalar, routine), *(op.astype(dtype) for op in ops))
    assert not calls
    scalar.routine_trace.__wrapped__("mult_su3_nn")
    assert calls == {"mult_su3_nn": 1}


def test_compiler_repeats_a_step_result_used_twice():
    # No kernel's trace reuses a step result; the compiler inlines every
    # use, so each repeats the operation, and the values are the trace's.
    steps = (("t0", "a", "*", "b"), ("t1", "t0", "+", "t0"), ("t2", "t1", "-", "a"))
    compiled = program(Trace((("a", "b"),), steps, ("t2", "t0")), "reuse", in_place=False)
    assert "(((g0_0 * g0_1) + (g0_0 * g0_1)) - g0_0)" in inspect.getsource(compiled)
    out = np.empty(2)
    assert compiled(np.array([3.0, 5.0]), out) is out
    assert out.tolist() == [27.0, 15.0]


@pytest.mark.parametrize("routine", ALL)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_program_writes_any_result_layout(kind, routine, rng, precision):
    # A strided result (and, in place, a strided first operand) is not taken
    # by the native entry: the program computes into a temporary and copies
    # it in, to the bits of a fresh contiguous result.
    spec = types.routine_spec(routine)
    backend = get_backend(kind)
    ops = types.random_operands(routine, rng, precision)
    want = backend.apply(routine, ops[0].copy(), *ops[1:])

    def strided(x):
        wide = np.full(x.shape + (2,), np.nan, x.dtype)
        wide[..., 0] = x
        return wide[..., 0]

    if spec.in_place:
        target = strided(ops[0])
        assert backend.kernels[routine](target, *ops[1:]) is target
    else:
        target = strided(want)
        assert backend.apply(routine, *ops, out=target) is target
    assert not target.flags.c_contiguous
    assert _same_bits(np.ascontiguousarray(target), want)


def test_hwvec_is_two_mat_vecs(rng, precision):
    a, h = types.random_operands("mult_su3_mat_hwvec", rng, precision)
    out = run_kernel(scalar.mult_su3_mat_hwvec, a, h)
    for half in range(2):
        assert np.array_equal(out[half], run_kernel(scalar.mult_su3_mat_vec, a, h[half]))


def test_unitary_round_trip(precision):
    tol = 1e-12 if precision == "double" else 1e-5
    rng = np.random.default_rng(12)
    for _ in range(50):
        u = random_unitary(rng, precision)
        v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
        w = run_kernel(scalar.mult_su3_mat_vec, u, v)
        back = run_kernel(scalar.mult_adj_su3_mat_vec, u, w)
        assert rel_norm_err(back, v) < tol
        eye = types.su3_matrix(np.eye(3), precision)
        assert rel_norm_err(run_kernel(scalar.mult_su3_na, u, u), eye) < tol
        assert rel_norm_err(run_kernel(scalar.mult_su3_an, u, u), eye) < tol


def test_scalar_mult_add_degenerate_factors(rng, precision):
    a, b, _ = types.random_operands("scalar_mult_add_su3_vector", rng, precision)
    zero = types.dtype_for(precision).type(0)
    one = types.dtype_for(precision).type(1)
    assert np.array_equal(run_kernel(scalar.scalar_mult_add_su3_vector, a, b, zero), a)
    assert np.array_equal(
        run_kernel(scalar.scalar_mult_add_su3_vector, a, b, one), run_kernel(scalar.add_su3_vector, a, b)
    )


def test_sub_four_mutates_first_operand(rng, precision):
    ops = types.random_operands("sub_four_su3_vecs", rng, precision)
    a = ops[0].copy()
    ret = scalar.sub_four_su3_vecs(a, *ops[1:])
    assert ret is a
    assert np.array_equal(a, oracles.sub_four_su3_vecs(*ops))


def test_sub_four_cancels_itself(rng, precision):
    a = types.random_operands("add_su3_vector", rng, precision)[0]
    z = zeros("vec", precision)
    out = scalar.sub_four_su3_vecs(a.copy(), a, z, z, z)
    assert np.array_equal(out, z)


@given(
    a=arrays(np.float64, (3, 3, 2), elements=st.integers(-8, 8).map(float)),
    b=arrays(np.float64, (3, 2), elements=st.integers(-8, 8).map(float)),
    c=arrays(np.float64, (3, 2), elements=st.integers(-8, 8).map(float)),
)
def test_mat_vec_distributes_exactly_on_integers(a, b, c):
    # Small integer inputs keep every intermediate exact, so linearity
    # holds as an identity rather than an approximation.
    lhs = run_kernel(scalar.mult_su3_mat_vec, a, run_kernel(scalar.add_su3_vector, b, c))
    rhs = run_kernel(scalar.add_su3_vector, run_kernel(scalar.mult_su3_mat_vec, a, b), run_kernel(scalar.mult_su3_mat_vec, a, c))
    assert np.array_equal(lhs, rhs)


@given(
    a=arrays(np.float64, (3, 3, 2), elements=st.integers(-8, 8).map(float)),
    b=arrays(np.float64, (3, 3, 2), elements=st.integers(-8, 8).map(float)),
    v=arrays(np.float64, (3, 2), elements=st.integers(-8, 8).map(float)),
)
def test_mat_mat_action_associates_exactly_on_integers(a, b, v):
    lhs = run_kernel(scalar.mult_su3_mat_vec, run_kernel(scalar.mult_su3_nn, a, b), v)
    rhs = run_kernel(scalar.mult_su3_mat_vec, a, run_kernel(scalar.mult_su3_mat_vec, b, v))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("routine", ALL)
def test_result_dtype_matches_inputs(routine, rng, precision):
    ops = types.random_operands(routine, rng, precision)
    got, _ = _call_both(routine, ops)
    assert got.dtype == types.dtype_for(precision)


def test_kernel_table_matches_registry():
    assert list(SCALAR.kernels) == list(ALL)
    assert all(SCALAR.kernels[name] is getattr(scalar, name) for name in ALL)
    with pytest.raises(ValueError):
        SCALAR.apply("mult_su3_zz", np.zeros((3, 2)))


def _scalar_kind_variants(routine, ops):
    """`ops` with any scalar-kind operand as a Python float, a numpy 0-d value and its (count,) array."""
    spec = types.routine_spec(routine)
    if "scalar" not in spec.operands:
        return [ops]
    pos = spec.operands.index("scalar")
    return [ops[:pos] + [s] + ops[pos + 1:] for s in (0.37, np.float64(-0.61), ops[pos])]


def _per_site_loop(routine, ops, count):
    """The batch result built one site at a time through the scalar backend's apply."""
    spec = types.routine_spec(routine)
    want = np.empty((count,) + types.OPERAND_SHAPES[spec.result], dtype=ops[0].dtype)
    for s in range(count):
        args = [op[s] if np.ndim(op) else op for op in ops]
        if spec.in_place:
            want[s] = SCALAR.apply(routine, args[0].copy(), *args[1:])
        else:
            SCALAR.apply(routine, *args, out=want[s])
    return want


def _same_bits(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


def _special_operands(routine, rng, precision, count):
    """A batch whose components are signed zeros, subnormals, infinities and a few normal values."""
    finfo = np.finfo(types.dtype_for(precision))
    pool = np.array([0.0, -0.0, finfo.smallest_subnormal, -finfo.tiny / 3, np.inf, -np.inf, 1.5, -0.75], dtype=finfo.dtype)
    weights = [0.2, 0.2, 0.15, 0.15, 0.01, 0.01, 0.14, 0.14]  # rare infinities leave some sums finite
    spec = types.routine_spec(routine)
    return [rng.choice(pool, size=(count,) + types.OPERAND_SHAPES[kind], p=weights) for kind in spec.operands]


@pytest.mark.parametrize("routine", ALL)
@np.errstate(invalid="ignore", over="ignore")
def test_batch_apply_equals_per_site_loop(routine, precision):
    # Counts are looped rather than parametrised so the test ids stay fixed.
    # The special values check that a batch and its single sites round,
    # overflow and sign zeros alike.
    spec = types.routine_spec(routine)
    for count in (0, 1, 5, 64):
        rng = np.random.default_rng([12, ALL.index(routine), count])
        operand_sets = [types.random_operands(routine, rng, precision, batch=count), _special_operands(routine, rng, precision, count)]
        for ops in (variant for ops in operand_sets for variant in _scalar_kind_variants(routine, ops)):
            want = _per_site_loop(routine, ops, count)
            if spec.in_place:
                mutated = ops[0].copy()
                assert SCALAR.batch_apply(routine, [mutated] + ops[1:]) is mutated
                assert _same_bits(mutated, want)
                continue
            assert _same_bits(SCALAR.batch_apply(routine, ops), want)
            out = np.full_like(want, np.nan)
            assert SCALAR.batch_apply(routine, ops, out=out) is out
            assert _same_bits(out, want)


def test_batch_apply_empty_batch(precision):
    ops = types.random_operands("mult_su3_nn", np.random.default_rng(0), precision, batch=0)
    got = SCALAR.batch_apply("mult_su3_nn", ops)
    assert got.shape == (0, 3, 3, 2)
