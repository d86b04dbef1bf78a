import math

import numpy as np
import pytest

from su3bench import BACKEND_NAMES, get_backend, scalar, simd, types, verify
from symterms import sym_matrix, sym_vector

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
        return np.stack([single(a, h[..., k, :, :]) for k in range(2)], axis=-3)
    a4, b = ops
    return np.stack([simd.mult_adj_su3_mat_vec(a4[..., d, :, :, :], b) for d in range(4)], axis=-3)


def _scalar_result(routine, ops, shape):
    if not shape:
        return SCALAR.apply(routine, *ops)
    n = math.prod(shape)
    flat = SCALAR.batch_apply(routine, [op.reshape((n,) + op.shape[len(shape):]) for op in ops], count=n)
    return flat.reshape(shape + flat.shape[1:])


def _same_bytes(got, want):
    return got.dtype == want.dtype and got.shape == want.shape and got.tobytes() == want.tobytes()


@pytest.mark.parametrize("call", [
    "mult_su3_mat_hwvec",
    "mult_adj_su3_mat_hwvec",
    "mult_adj_su3_mat_vec_4dir",
    "mult_adj_su3_mat_4vec",
    "mult_adj_su3_mat_4vec:outs",
    "mult_su3_mat_vec_sum_4dir",
])
@pytest.mark.parametrize("shape", [(), (0,), (5,), (2, 3)])
def test_composite_kernels_equal_single_calls_and_scalar(call, shape, precision):
    # The composite kernels run the lane recipe once, with the half or the
    # direction as a batch axis; that must not move a single bit.
    routine = call.split(":")[0]
    rng = np.random.default_rng([22, ALL.index(routine), len(shape)])
    ops = types.random_operands(routine, rng, precision, batch=math.prod(shape) if shape else None)
    ops = [op.reshape(shape + op.shape[len(op.shape) - len(types.OPERAND_SHAPES[kind]):])
           for op, kind in zip(ops, types.routine_spec(routine).operands)]
    if call.endswith(":outs"):
        outs = [np.full(ops[1].shape, np.nan, dtype=ops[1].dtype) for _ in range(4)]
        ret = simd.mult_adj_su3_mat_4vec(*ops, outs=outs)
        assert all(r is o for r, o in zip(ret, outs))
        got = np.stack(outs, axis=-3)
    else:
        got = VECTOR.kernels[routine](*ops)
    assert _same_bytes(got, _single_call_loop(routine, ops))
    assert _same_bytes(got, _scalar_result(routine, ops, shape))


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_4vec_outs_checks_every_destination_before_writing(kind, rng, debug_checks):
    kernel = get_backend(kind).kernels["mult_adj_su3_mat_4vec"]
    a4, b = types.random_operands("mult_adj_su3_mat_4vec", rng)
    outs = [np.zeros_like(b) for _ in range(4)]
    with pytest.raises(ValueError, match="aliases"):
        kernel(a4, b, outs=outs[:3] + [b])
    with pytest.raises(ValueError, match="expected"):
        kernel(a4, b, outs=outs[:3] + [np.zeros((3, 3, 2))])
    assert not any(o.any() for o in outs)


def test_batch_shape_mismatch_rejected(rng):
    a, b = types.random_operands("mult_su3_nn", rng, batch=4)
    with pytest.raises(ValueError):
        VECTOR.batch_apply("mult_su3_nn", [a, b[:3]])
    with pytest.raises(ValueError):
        VECTOR.batch_apply("mult_su3_nn", [a, b], count=9)


@pytest.mark.parametrize("shape", [(5, 3, 3, 2), (3, 3, 3, 2), (4, 3, 2), (3, 3, 2, 4)])
def test_batch_apply_rejects_misshapen_out(rng, shape):
    ops = types.random_operands("mult_su3_nn", rng, batch=4)
    with pytest.raises(ValueError, match="expected"):
        VECTOR.batch_apply("mult_su3_nn", ops, out=np.empty(shape))


def test_operand_shape_mismatch_rejected(rng):
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    with pytest.raises(ValueError):
        simd.mult_su3_mat_vec(b, b)
    with pytest.raises(ValueError):
        simd.mult_su3_nn(a, b)


def test_deterministic_across_calls(rng, precision):
    a, b = types.random_operands("mult_su3_na", rng, precision)
    first = simd.mult_su3_na(a, b)
    second = simd.mult_su3_na(a, b)
    assert np.array_equal(first, second)


def test_out_parameter(rng, precision):
    a, b = types.random_operands("mult_su3_mat_vec", rng, precision)
    out = types.zeros("vec", precision)
    ret = simd.mult_su3_mat_vec(a, b, out=out)
    assert ret is out
    with pytest.raises(ValueError):
        simd.mult_su3_mat_vec(a, b, out=types.zeros("mat", precision))


def test_aliasing_rejected_under_debug_validation(rng, debug_checks):
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    with pytest.raises(ValueError):
        simd.mult_su3_mat_vec(a, b, out=b)


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


def test_lane_group_widths():
    assert simd.lane_group("double").lanes == 2
    assert simd.lane_group("single").lanes == 4
    assert simd.lane_group("double").width_bits == 128


def test_lane_group_validation():
    with pytest.raises(ValueError):
        simd.LaneGroup(width_bits=128, element_bits=16)
    with pytest.raises(ValueError):
        simd.LaneGroup(width_bits=100, element_bits=64)


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


def test_capability_report():
    cap = simd.capability()
    assert cap["backend"] == "array-lane emulation"
    assert cap["width_bits"] == 128
    assert cap["lanes"] == {"double": 2, "single": 4}
    assert isinstance(cap["cpu_features"], list)


def test_symbolic_flow_through_vector_backend():
    # The lane recipe must form exactly the same signed products as the
    # complex definition; Sym atoms expose the term structure.
    a = sym_matrix("a")
    b = sym_vector("b")
    got = simd.mult_su3_mat_vec(a, b)
    want = scalar.mult_su3_mat_vec(a, b)
    for i in range(3):
        for k in range(2):
            assert got[i, k].canonical() == want[i, k].canonical()
