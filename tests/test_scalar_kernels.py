import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import oracles
from su3bench import get_backend, scalar, types, validation
from tutil import adjoint, max_ulp, random_unitary, rel_norm_err

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
    eye = types.identity_matrix(precision)
    a = types.random_operands("mult_su3_nn", rng, precision)[0]
    v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
    h = types.random_operands("mult_su3_mat_hwvec", rng, precision)[1]
    assert np.array_equal(scalar.mult_su3_mat_vec(eye, v), v)
    assert np.array_equal(scalar.mult_adj_su3_mat_vec(eye, v), v)
    assert np.array_equal(scalar.mult_su3_nn(eye, a), a)
    assert np.array_equal(scalar.mult_su3_nn(a, eye), a)
    assert np.array_equal(scalar.mult_su3_na(a, eye), a)
    assert np.array_equal(scalar.mult_su3_an(eye, a), a)
    assert np.array_equal(scalar.mult_su3_mat_hwvec(eye, h), h)
    assert np.array_equal(scalar.mult_adj_su3_mat_hwvec(eye, h), h)


def test_adjoint_coherence(rng, precision):
    a, b = types.random_operands("mult_su3_nn", rng, precision)
    v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
    assert np.array_equal(scalar.mult_su3_an(a, b), scalar.mult_su3_nn(adjoint(a), b))
    assert np.array_equal(scalar.mult_su3_na(a, b), scalar.mult_su3_nn(a, adjoint(b)))
    assert np.array_equal(scalar.mult_adj_su3_mat_vec(a, v), scalar.mult_su3_mat_vec(adjoint(a), v))


def test_multi_direction_routines_delegate(rng, precision):
    a4, b = types.random_operands("mult_adj_su3_mat_vec_4dir", rng, precision)
    stacked = scalar.mult_adj_su3_mat_vec_4dir(a4, b)
    spread = scalar.mult_adj_su3_mat_4vec(a4, b)
    for d in range(4):
        single = scalar.mult_adj_su3_mat_vec(a4[d], b)
        assert np.array_equal(stacked[d], single)
        assert np.array_equal(spread[d], single)


def test_mat_4vec_separate_destinations(rng, precision):
    a4, b = types.random_operands("mult_adj_su3_mat_4vec", rng, precision)
    outs = tuple(types.zeros("vec", precision) for _ in range(4))
    ret = scalar.mult_adj_su3_mat_4vec(a4, b, outs=outs)
    assert ret is outs
    packed = scalar.mult_adj_su3_mat_4vec(a4, b)
    for d in range(4):
        assert np.array_equal(outs[d], packed[d])
    with pytest.raises(ValueError):
        scalar.mult_adj_su3_mat_4vec(a4, b, out=packed, outs=outs)


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
    spec = types.routine_spec(routine)
    ops = types.random_operands(routine, rng, precision)
    logged = list(ops)
    for k, kind in enumerate(spec.operands):
        if kind != "scalar":
            logged[k] = ops[k].copy().view(_UnpackLog)
            logged[k].unpacks = 0
    want = SCALAR.apply(routine, ops[0].copy(), *ops[1:])
    got = SCALAR.apply(routine, *logged)
    assert _same_bits(np.asarray(got), want)
    unpacks = [op.unpacks for op, kind in zip(logged, spec.operands) if kind != "scalar"]
    assert unpacks == [1] * len(unpacks)


def test_component_types_follow_the_operand(rng):
    # Python floats only where they round as binary64: a single float64 object.
    a = types.random_operands("mult_su3_nn", rng, "double")[0]
    assert [type(x) for x in scalar._parts(a, 3)] == [float] * 18
    assert [type(x) for x in scalar._parts(a.astype(np.float32), 3)] == [np.float32] * 18
    rows = scalar._parts(np.stack([a, a], axis=-1), 3)
    assert [row.shape for row in rows] == [(2,)] * 18


def test_hwvec_is_two_mat_vecs(rng, precision):
    a, h = types.random_operands("mult_su3_mat_hwvec", rng, precision)
    out = scalar.mult_su3_mat_hwvec(a, h)
    for half in range(2):
        assert np.array_equal(out[half], scalar.mult_su3_mat_vec(a, h[half]))


def test_unitary_round_trip(precision):
    tol = 1e-12 if precision == "double" else 1e-5
    rng = np.random.default_rng(12)
    for _ in range(50):
        u = random_unitary(rng, precision)
        v = types.random_operands("mult_su3_mat_vec", rng, precision)[1]
        w = scalar.mult_su3_mat_vec(u, v)
        back = scalar.mult_adj_su3_mat_vec(u, w)
        assert rel_norm_err(back, v) < tol
        eye = types.identity_matrix(precision)
        assert rel_norm_err(scalar.mult_su3_na(u, u), eye) < tol
        assert rel_norm_err(scalar.mult_su3_an(u, u), eye) < tol


def test_scalar_mult_add_degenerate_factors(rng, precision):
    a, b, _ = types.random_operands("scalar_mult_add_su3_vector", rng, precision)
    zero = types.dtype_for(precision).type(0)
    one = types.dtype_for(precision).type(1)
    assert np.array_equal(scalar.scalar_mult_add_su3_vector(a, b, zero), a)
    assert np.array_equal(
        scalar.scalar_mult_add_su3_vector(a, b, one), scalar.add_su3_vector(a, b)
    )


def test_sub_four_mutates_first_operand(rng, precision):
    ops = types.random_operands("sub_four_su3_vecs", rng, precision)
    a = ops[0].copy()
    ret = scalar.sub_four_su3_vecs(a, *ops[1:])
    assert ret is a
    assert np.array_equal(a, oracles.sub_four_su3_vecs(*ops))


def test_sub_four_cancels_itself(rng, precision):
    a = types.random_operands("add_su3_vector", rng, precision)[0]
    z = types.zeros("vec", precision)
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
    lhs = scalar.mult_su3_mat_vec(a, scalar.add_su3_vector(b, c))
    rhs = scalar.add_su3_vector(scalar.mult_su3_mat_vec(a, b), scalar.mult_su3_mat_vec(a, c))
    assert np.array_equal(lhs, rhs)


@given(
    a=arrays(np.float64, (3, 3, 2), elements=st.integers(-8, 8).map(float)),
    b=arrays(np.float64, (3, 3, 2), elements=st.integers(-8, 8).map(float)),
    v=arrays(np.float64, (3, 2), elements=st.integers(-8, 8).map(float)),
)
def test_mat_mat_action_associates_exactly_on_integers(a, b, v):
    lhs = scalar.mult_su3_mat_vec(scalar.mult_su3_nn(a, b), v)
    rhs = scalar.mult_su3_mat_vec(a, scalar.mult_su3_mat_vec(b, v))
    assert np.array_equal(lhs, rhs)


@pytest.mark.parametrize("routine", ALL)
def test_result_dtype_matches_inputs(routine, rng, precision):
    ops = types.random_operands(routine, rng, precision)
    got, _ = _call_both(routine, ops)
    assert got.dtype == types.dtype_for(precision)


def test_out_parameter_is_used(rng, precision):
    a, b = types.random_operands("mult_su3_mat_vec", rng, precision)
    out = types.zeros("vec", precision)
    ret = scalar.mult_su3_mat_vec(a, b, out=out)
    assert ret is out
    assert np.array_equal(out, scalar.mult_su3_mat_vec(a, b))


def test_out_shape_rejected(rng):
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    with pytest.raises(ValueError):
        scalar.mult_su3_mat_vec(a, b, out=np.empty((3, 3, 2)))


def test_aliasing_rejected_under_debug_validation(rng, debug_checks):
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    with pytest.raises(ValueError):
        scalar.mult_su3_mat_vec(a, b, out=b)
    overlapping = a[0]
    with pytest.raises(ValueError):
        scalar.mult_su3_mat_vec(a, b, out=overlapping)


def test_aliasing_unchecked_by_default(rng):
    assert not validation.enabled()
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    scalar.mult_su3_mat_vec(a, b, out=b)  # caller's responsibility then


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
    # Single float64 sets run on Python floats, batches on numpy arrays; the
    # special values check that both round, overflow and sign zeros alike.
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


@pytest.mark.parametrize("shape", [(5, 3, 3, 2), (3, 3, 3, 2), (4, 3, 2), (3, 3, 2, 4)])
def test_batch_apply_rejects_misshapen_out(rng, shape):
    ops = types.random_operands("mult_su3_nn", rng, batch=4)
    with pytest.raises(ValueError, match="expected"):
        SCALAR.batch_apply("mult_su3_nn", ops, out=np.empty(shape))


def test_batch_apply_empty_batch(precision):
    ops = types.random_operands("mult_su3_nn", np.random.default_rng(0), precision, batch=0)
    got = SCALAR.batch_apply("mult_su3_nn", ops)
    assert got.shape == (0, 3, 3, 2)
