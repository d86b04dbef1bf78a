import math

import numpy as np
import pytest

from su3bench import BACKEND_NAMES, bench, get_backend, native, scalar, simd, types, verify
from su3bench.trace import BLOCK
from symterms import sym_matrix, sym_vector
from tutil import CONTRACTIONS, run_kernel

ALL = types.ROUTINE_NAMES
SCALAR = get_backend("scalar")
VECTOR = get_backend("vector")


def _apply(backend, routine, ops):
    spec = types.routine_spec(routine)
    if spec.in_place:
        return backend.apply(routine, ops[0].copy(), *ops[1:])
    return backend.apply(routine, *ops)


@pytest.mark.parametrize("routine", ALL)
def test_within_tolerance_of_scalar(routine, precision):
    row = verify.check_routine(routine, precision=precision, trials=300, seed=99)
    assert row.passed, f"max ulp {row.max_ulp} at trial {row.worst_trial}"


@pytest.mark.parametrize("routine", ALL)
def test_bitwise_equal_to_scalar(routine, precision):
    # Stronger than the tolerance contract: both backends use the same
    # canonical association, so results are expected identical to the bit.
    rng = np.random.default_rng([20, ALL.index(routine)])
    for _ in range(50):
        ops = types.random_operands(routine, rng, precision)
        assert np.array_equal(_apply(VECTOR, routine, ops), _apply(SCALAR, routine, ops))


def _special_sets(routine, rng, precision, count):
    """An all-(-0.0) operand set, then `count` sets drawn from signed zeros,
    the smallest subnormal, infinities, NaN and +-1.5."""
    dtype = types.dtype_for(precision)
    pool = np.array([0.0, -0.0, np.finfo(dtype).smallest_subnormal, np.inf, -np.inf, np.nan, 1.5, -1.5], dtype)
    weights = [0.22, 0.22, 0.15, 0.02, 0.02, 0.01, 0.18, 0.18]  # rare infinities and NaNs leave most sums defined
    shapes = [types.OPERAND_SHAPES[kind] for kind in types.routine_spec(routine).operands]
    yield [np.full(shape, -0.0, dtype) for shape in shapes]
    for _ in range(count):
        yield [rng.choice(pool, size=shape, p=weights) for shape in shapes]


@pytest.mark.parametrize("routine", ALL)
@np.errstate(invalid="ignore", over="ignore")
def test_special_values_agree_across_backends_at_one_site(routine, precision):
    # Signed zeros are where a reordered or seeded sum shows first: a
    # reduction that starts from +0.0 turns an all-(-0.0) sum into +0.0.
    rng = np.random.default_rng([23, ALL.index(routine)])
    for ops in _special_sets(routine, rng, precision, 200):
        want = _apply(SCALAR, routine, ops)
        got = _apply(VECTOR, routine, ops)
        nan = np.isnan(want)
        assert np.array_equal(np.isnan(got), nan)
        assert got[~nan].tobytes() == want[~nan].tobytes()


@pytest.mark.parametrize("routine", ALL)
@pytest.mark.parametrize("count", [0, 1, 5, 64])
def test_batch_apply_equals_singles(routine, precision, count):
    rng = np.random.default_rng([21, ALL.index(routine), count])
    ops = types.random_operands(routine, rng, precision, batch=count)
    spec = types.routine_spec(routine)
    if spec.in_place:
        mutated = ops[0].copy()
        VECTOR.batch_apply(routine, [mutated] + ops[1:])
        for s in range(count):
            assert np.array_equal(mutated[s], _apply(VECTOR, routine, [op[s] for op in ops]))
    else:
        got = VECTOR.batch_apply(routine, ops)
        assert got.shape == (count,) + types.OPERAND_SHAPES[spec.result]
        for s in range(count):
            assert np.array_equal(got[s], _apply(VECTOR, routine, [op[s] for op in ops]))


def _lane_loop_sum_4dir(a4, b4):
    # The one-direction-at-a-time lane recipe: per (direction, row) packed
    # products added into two running accumulators, then one combine.
    acc1 = acc2 = None
    for d in range(4):
        for j in range(3):
            bp = b4[..., d, None, j, :]
            p1 = a4[..., d, j, :, 0:1] * bp
            p2 = a4[..., d, j, :, 1:2] * bp
            acc1, acc2 = (p1, p2) if acc1 is None else (acc1 + p1, acc2 + p2)
    return acc1 + acc2[..., ::-1] * np.array([1.0, -1.0], dtype=acc1.dtype)


def _single_call_loop(routine, ops):
    """A composite kernel's result from single mat-vec calls, half by half or direction by direction."""
    if routine == "mult_su3_mat_vec_sum_4dir":
        return _lane_loop_sum_4dir(*ops)
    if routine.endswith("hwvec"):
        a, h = ops
        single = simd.mult_su3_mat_vec if routine == "mult_su3_mat_hwvec" else simd.mult_adj_su3_mat_vec
        return np.stack([run_kernel(single, a, h[..., k, :, :]) for k in range(2)], axis=-3)
    a4, b = ops
    return np.stack([run_kernel(simd.mult_adj_su3_mat_vec, a4[..., d, :, :, :], b) for d in range(4)], axis=-3)


def _scalar_result(routine, ops, shape):
    if not shape:
        return SCALAR.apply(routine, *ops)
    n = math.prod(shape)
    flat = SCALAR.batch_apply(routine, [op.reshape((n,) + op.shape[len(shape):]) for op in ops])
    return flat.reshape(shape + flat.shape[1:])


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [
    "mult_su3_mat_hwvec",
    "mult_adj_su3_mat_hwvec",
    "mult_adj_su3_mat_vec_4dir",
    "mult_adj_su3_mat_4vec",
    "mult_su3_mat_vec_sum_4dir",
])
@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
def test_composite_kernels_equal_single_calls_and_scalar(call, shape, precision):
    # The composite kernels run the lane recipe once, with the half or the
    # direction as a batch axis; that must not move a single bit.
    routine = call
    rng = np.random.default_rng([22, ALL.index(routine), len(shape)])
    ops = types.random_operands(routine, rng, precision, batch=math.prod(shape) if shape else None)
    ops = [op.reshape(shape + op.shape[len(op.shape) - len(types.OPERAND_SHAPES[kind]):])
           for op, kind in zip(ops, types.routine_spec(routine).operands)]
    got = run_kernel(VECTOR.kernels[routine], *ops)
    assert _same_bytes(got, _single_call_loop(routine, ops))
    assert _same_bytes(got, _scalar_result(routine, ops, shape))


@pytest.mark.parametrize("routine", ["scalar_mult_add_su3_matrix", "scalar_mult_add_su3_vector"])
def test_scalar_factor_forms_agree_across_backends(routine, precision):
    # Both backends convert the factor to the operands' dtype before using it,
    # whatever form it comes in.
    rng = np.random.default_rng([22, ALL.index(routine)])
    for _ in range(20):
        a, b, _ = types.random_operands(routine, rng, precision)
        x = rng.uniform(-1.0, 1.0)
        for s in (x, np.float32(x), np.float64(x), np.asarray(x, np.float32), np.asarray(x, np.float64)):
            assert _same_bytes(SCALAR.apply(routine, a, b, s), VECTOR.apply(routine, a, b, s))
    a, b, _ = types.random_operands(routine, rng, precision, batch=64)
    s = rng.uniform(-1.0, 1.0, 64)
    want = SCALAR.batch_apply(routine, [a, b, s])
    for backend in (SCALAR, VECTOR):
        assert _same_bytes(backend.batch_apply(routine, [a, b, s]), want)
        assert _same_bytes(backend.batch_apply(routine, [a, b, s.tolist()]), want)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
@pytest.mark.parametrize("factor", [None, 1j, 10**400, np.full(4, 0.5 + 0.5j)], ids=["none", "complex", "huge-int", "complex-per-set"])
def test_real_factor_must_be_real(kind, factor, rng):
    # numpy reads each as object or complex, not as a real number.
    backend = get_backend(kind)
    a, b, _ = types.random_operands("scalar_mult_add_su3_vector", rng, batch=4)
    with pytest.raises(ValueError, match="real factor has dtype"):
        backend.apply("scalar_mult_add_su3_vector", a[0], b[0], factor)
    with pytest.raises(ValueError, match="real factor has dtype"):
        backend.batch_apply("scalar_mult_add_su3_vector", [a, b, factor])


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_mixed_precision_operands_rejected(kind, rng):
    backend = get_backend(kind)
    a64, b64 = types.random_operands("mult_su3_nn", rng, "double")
    a32 = a64.astype(np.float32)
    for ops in ([a32, b64], [b64, a32]):
        with pytest.raises(ValueError, match="mix"):
            backend.apply("mult_su3_nn", *ops)
        with pytest.raises(ValueError, match="mix"):
            backend.batch_apply("mult_su3_nn", [op[None] for op in ops])
    with pytest.raises(ValueError, match="dtype"):
        backend.apply("mult_su3_nn", a64, b64, out=np.zeros((3, 3, 2), np.float32))
    with pytest.raises(ValueError, match="dtype"):
        backend.batch_apply("mult_su3_nn", [a64[None], b64[None]], out=np.zeros((1, 3, 3, 2), np.float32))
    # The real factor may come in either precision.
    a, b, _ = types.random_operands("scalar_mult_add_su3_vector", rng, "single")
    assert backend.apply("scalar_mult_add_su3_vector", a, b, np.float64(0.5)).dtype == np.float32


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_apply_rejects_unsupported_dtype(kind, rng):
    a, b = (op.astype(np.float16) for op in types.random_operands("mult_su3_nn", rng))
    with pytest.raises(ValueError, match="dtype"):
        get_backend(kind).apply("mult_su3_nn", a, b)
    with pytest.raises(ValueError, match="dtype"):
        get_backend(kind).batch_apply("mult_su3_nn", [a[None], b[None]])


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_apply_rejects_wrong_operand_count(kind, rng):
    a, b = types.random_operands("mult_su3_nn", rng)
    with pytest.raises(ValueError, match="takes 2 operands, got 1"):
        get_backend(kind).apply("mult_su3_nn", a)
    with pytest.raises(ValueError, match="takes 2 operands, got 3"):
        get_backend(kind).apply("mult_su3_nn", a, b, b)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_in_place_routine_rejects_out(kind, rng):
    backend = get_backend(kind)
    ops = types.random_operands("sub_four_su3_vecs", rng, batch=3)
    first = ops[0].copy()
    out = np.zeros_like(first)
    with pytest.raises(ValueError, match="in place"):
        backend.apply("sub_four_su3_vecs", *(op[0] for op in ops), out=out[0])
    with pytest.raises(ValueError, match="in place"):
        backend.batch_apply("sub_four_su3_vecs", ops, out=out)
    assert _same_bytes(ops[0], first) and not out.any()


def test_batch_shape_mismatch_rejected(rng):
    a, b = types.random_operands("mult_su3_nn", rng, batch=4)
    with pytest.raises(ValueError):
        VECTOR.batch_apply("mult_su3_nn", [a, b[:3]])


def test_operand_shape_mismatch_rejected(rng):
    # The kernels are unchecked internals; the backends' apply is the checked entry point.
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    for kind in BACKEND_NAMES:
        with pytest.raises(ValueError):
            get_backend(kind).apply("mult_su3_mat_vec", b, b)
        with pytest.raises(ValueError):
            get_backend(kind).apply("mult_su3_nn", a, b)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_apply_rejects_misshapen_operands(kind, rng):
    # Each of these has the right number of components in the wrong shape;
    # a kernel would happily compute on it.
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    for bad in (b.reshape(2, 3), b.reshape(6), b.reshape(3, 2, 1)):
        with pytest.raises(ValueError, match="shape"):
            backend.apply("mult_su3_mat_vec", a, bad)
    with pytest.raises(ValueError, match="shape"):
        backend.apply("mult_su3_nn", a, a.reshape(9, 2))
    with pytest.raises(ValueError, match="shape"):
        backend.apply("scalar_mult_add_su3_vector", b, b, np.ones(2))
    with pytest.raises(ValueError, match="shape"):
        backend.batch_apply("mult_su3_mat_vec", [a[None], b.reshape(1, 2, 3)])


def test_deterministic_across_calls(rng, precision):
    a, b = types.random_operands("mult_su3_na", rng, precision)
    first = run_kernel(simd.mult_su3_na, a, b)
    second = run_kernel(simd.mult_su3_na, a, b)
    assert np.array_equal(first, second)


def test_in_place_routine_mutates_and_returns(rng, precision):
    ops = types.random_operands("sub_four_su3_vecs", rng, precision)
    mine = ops[0].copy()
    ret = simd.sub_four_su3_vecs(mine, *ops[1:])
    assert ret is mine
    theirs = scalar.sub_four_su3_vecs(ops[0].copy(), *ops[1:])
    assert np.array_equal(mine, theirs)


def test_kernel_table_matches_registry():
    assert list(VECTOR.kernels) == list(ALL)
    assert all(VECTOR.kernels[name] is getattr(simd, name) for name in ALL)


def test_lanes_are_read_off_the_vector_loops():
    # One source of the lanes, native.lanes: the speedup rows' bound reads it
    # per routine and precision, the capability report its most per
    # precision and the register width from that: 128 bits where every loop
    # runs the recipe, 256 where the contractions run site-lane in AVX2.
    cap = simd.capability()
    for precision in types.PRECISIONS:
        lanes = {routine: native.lanes(routine, precision) for routine in ALL}
        assert cap["lanes"][precision] == max(lanes.values())
        for routine in ALL:
            assert bench.speedup_row(routine, precision, 1.0, 1.0).lane_bound == lanes[routine]
    assert cap["width_bits"] == 64 * cap["lanes"]["double"] == (256 if "AVX2" in native.cpu_features() else 128)


def test_lane_op_table_consistent_with_flop_counts():
    # Every packed op covers two real ops: the lane tallies and the real
    # flop tallies must agree 2:1 for all fifteen routines.
    from su3bench import flops

    for routine in ALL:
        lanes = simd.lane_op_count(routine)
        real = flops.flop_count(routine)
        assert 2 * lanes.packed_mults == real.real_mults, routine
        assert 2 * lanes.packed_adds == real.real_adds, routine
        assert lanes.broadcasts >= 0 and lanes.swaps >= 0 and lanes.negates >= 0


def test_lane_op_count_spot_values():
    mv = simd.lane_op_count("mult_su3_mat_vec")
    assert (mv.broadcasts, mv.packed_mults, mv.packed_adds) == (18, 18, 15)
    assert (mv.swaps, mv.negates) == (3, 3)
    add = simd.lane_op_count("add_su3_vector")
    assert (add.packed_mults, add.packed_adds) == (0, 3)
    with pytest.raises(ValueError):
        simd.lane_op_count("nonesuch")


TABLE_KERNELS = CONTRACTIONS


@pytest.mark.parametrize("routine", TABLE_KERNELS)
@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
def test_table_kernels_equal_scalar_on_any_batch_shape(routine, shape, precision):
    rng = np.random.default_rng([23, ALL.index(routine), len(shape)])
    ops = types.random_operands(routine, rng, precision, batch=math.prod(shape) if shape else None)
    ops = [op.reshape(shape + types.OPERAND_SHAPES[kind])
           for op, kind in zip(ops, types.routine_spec(routine).operands)]
    assert _same_bytes(run_kernel(VECTOR.kernels[routine], *ops), _scalar_result(routine, ops, shape))


@pytest.mark.parametrize("routine", TABLE_KERNELS)
def test_table_kernels_run_several_site_blocks(routine, precision):
    # Two whole blocks and a partial one.
    rng = np.random.default_rng([24, ALL.index(routine)])
    ops = types.random_operands(routine, rng, precision, batch=2 * BLOCK + 3)
    assert _same_bytes(VECTOR.batch_apply(routine, ops), SCALAR.batch_apply(routine, ops))


@pytest.mark.parametrize("routine", ALL)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_batch_apply_writes_any_result_layout(kind, routine, precision):
    # A result whose axes are stored in reverse order, and in place a
    # Fortran-order or strided first operand, get the bits of a contiguous
    # call: a write through a silent reshape copy would be lost.
    backend = get_backend(kind)
    rng = np.random.default_rng([25, ALL.index(routine)])
    ops = types.random_operands(routine, rng, precision, batch=7)
    in_place = types.routine_spec(routine).in_place
    if in_place:
        want = backend.batch_apply(routine, [ops[0].copy()] + ops[1:])
        wide = np.full(ops[0].shape + (2,), np.nan, ops[0].dtype)
        wide[..., 0] = ops[0]
        targets = [np.asfortranarray(ops[0]), wide[..., 0]]
    else:
        want = backend.batch_apply(routine, ops)
        targets = [np.full(want.shape[::-1], np.nan, dtype=want.dtype).T]
    for target in targets:
        assert not target.flags.c_contiguous
        got = backend.batch_apply(routine, [target] + ops[1:]) if in_place else backend.batch_apply(routine, ops, out=target)
        assert got is target
        assert _same_bytes(np.ascontiguousarray(target), want)


@pytest.mark.parametrize("routine", TABLE_KERNELS)
def test_lane_ops_derived_from_the_table(routine):
    # The recipe's trace pairs as native.pack_plan packs it (lane_op_count
    # tallies that plan; test_cli pins the tallies, test_native the loops'
    # instructions): each packed product broadcasts one component into both
    # lanes of a pair, so the products come in lane pairs that share their
    # left factor and read two adjacent components of the pair operand, in
    # order or swapped, and every component read is one of the operands'
    # (in range).
    trace = simd.routine_trace(routine)
    where = {x: (k, i) for k, names in enumerate(trace.operands) for i, x in enumerate(names)}
    results = {result for result, *_ in trace.steps}
    products = [(left, right) for _, left, op, right in trace.steps if op == "*" and left not in results]
    assert products and len(products) % 2 == 0
    for (x, y0), (x1, y1) in zip(products[0::2], products[1::2]):
        assert x == x1 and x in where and y0 in where and y1 in where
        (kx, _), (k0, i0), (k1, i1) = where[x], where[y0], where[y1]
        assert k0 == k1 != kx
        assert i0 // 2 == i1 // 2 and i0 != i1


@pytest.mark.parametrize("routine", ALL)
def test_lane_ops_tally_the_table_trace(routine):
    # One site's program performs every packed operation once per lane:
    # products of two operand components, adds or subtracts, and multiplies
    # by a +-1 sign.
    trace = simd.routine_trace(routine)
    components = {name for names in trace.operands for name in names}
    mults = [right for _, _, op, right in trace.steps if op == "*"]
    signs = [float(right) for right in mults if right not in components]
    adds = [op for _, _, op, _ in trace.steps if op in "+-"]
    lanes = simd.lane_op_count(routine)
    assert len(mults) + len(adds) == len(trace.steps)
    assert len(mults) - len(signs) == 2 * lanes.packed_mults
    assert len(adds) == 2 * lanes.packed_adds
    assert len(signs) == 2 * lanes.negates and set(signs) <= {1.0, -1.0}


def test_capability_report():
    cap = simd.capability()
    assert "native C" in cap["backend"] and "numpy" in cap["backend"]
    assert cap["width_bits"] in (128, 256)
    assert cap["lanes"] == {precision: max(native.lanes(routine, precision) for routine in ALL) for precision in types.PRECISIONS}
    assert isinstance(cap["cpu_features"], list)


def test_symbolic_flow_through_vector_backend():
    # The lane recipe must form exactly the same signed products as the
    # complex definition; Sym atoms expose the term structure.
    a = sym_matrix("a")
    b = sym_vector("b")
    got = run_kernel(simd.mult_su3_mat_vec, a, b)
    want = run_kernel(scalar.mult_su3_mat_vec, a, b)
    for i in range(3):
        for k in range(2):
            assert got[i, k].canonical() == want[i, k].canonical()
