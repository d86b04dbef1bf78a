import numpy as np
import pytest

from su3bench import BACKEND_NAMES, get_backend, types
from tutil import complex_to_pairs, pairs_to_complex


def test_routine_registry_is_complete():
    assert len(types.ROUTINE_NAMES) == 15
    assert types.ROUTINE_NAMES == tuple(sorted(types.ROUTINE_NAMES, key=types.ROUTINE_NAMES.index))
    for name in types.ROUTINE_NAMES:
        spec = types.routine_spec(name)
        assert spec.name == name
        for kind in spec.operands:
            assert kind in types.OPERAND_SHAPES
        assert spec.result in types.OPERAND_SHAPES


def test_registry_shapes():
    assert types.OPERAND_SHAPES["vec"] == (3, 2)
    assert types.OPERAND_SHAPES["mat"] == (3, 3, 2)
    assert types.OPERAND_SHAPES["hwvec"] == (2, 3, 2)
    assert types.OPERAND_SHAPES["mat4"] == (4, 3, 3, 2)
    assert types.OPERAND_SHAPES["vec4"] == (4, 3, 2)
    assert types.OPERAND_SHAPES["scalar"] == ()


def test_only_sub_four_is_in_place():
    in_place = [n for n in types.ROUTINE_NAMES if types.routine_spec(n).in_place]
    assert in_place == ["sub_four_su3_vecs"]


def test_routine_spec_unknown_name():
    with pytest.raises(ValueError):
        types.routine_spec("mult_su3_unheard_of")


def test_dtype_for(precision):
    dt = types.dtype_for(precision)
    assert dt == (np.float64 if precision == "double" else np.float32)
    assert types.dtype_for(dt) == dt


def test_dtype_for_rejects_unknown():
    with pytest.raises((KeyError, ValueError)):
        types.dtype_for("half")


def test_vector_constructor_from_pairs(precision):
    v = types.su3_vector([(1, 2), (3, 4), (5, 6)], precision)
    assert v.shape == (3, 2)
    assert v.dtype == types.dtype_for(precision)
    assert v[1, 0] == 3 and v[1, 1] == 4


def test_vector_constructor_from_complex():
    v = types.su3_vector([1 + 2j, 3 + 4j, 5 + 6j])
    assert np.array_equal(v, types.su3_vector([(1, 2), (3, 4), (5, 6)]))


def test_matrix_constructor_shapes():
    m = types.su3_matrix(np.zeros((3, 3, 2)))
    assert m.shape == (3, 3, 2)
    h = types.half_wilson_vector(np.zeros((2, 3, 2)))
    assert h.shape == (2, 3, 2)


def test_constructor_rejects_wrong_shape():
    with pytest.raises(ValueError):
        types.su3_vector([(1, 2), (3, 4)])


def test_constructor_rejects_non_finite():
    bad = np.zeros((3, 2))
    bad[0, 0] = np.nan
    with pytest.raises(ValueError):
        types.su3_vector(bad)


def test_complex_round_trip(rng, precision):
    arr = rng.uniform(-1, 1, size=(3, 3, 2)).astype(types.dtype_for(precision))
    assert np.array_equal(complex_to_pairs(pairs_to_complex(arr), precision), arr)


def test_flop_count_total_and_validation():
    fc = types.FlopCount(real_mults=3, real_adds=4)
    assert fc.total == 7
    with pytest.raises((TypeError, ValueError)):
        types.FlopCount(real_mults=-1, real_adds=0)
    with pytest.raises((TypeError, ValueError)):
        types.FlopCount(real_mults=1.5, real_adds=0)


def test_result_shape():
    spec = types.routine_spec("mult_adj_su3_mat_vec_4dir")
    assert types.result_shape(spec) == (4, 3, 2)
    assert types.result_shape(spec, (7,)) == (7, 4, 3, 2)


def test_random_operands_shapes_and_range(rng, precision):
    ops = types.random_operands("mult_su3_nn", rng, precision)
    assert [op.shape for op in ops] == [(3, 3, 2), (3, 3, 2)]
    assert all(op.dtype == types.dtype_for(precision) for op in ops)
    batched = types.random_operands("scalar_mult_add_su3_vector", rng, precision, batch=5)
    assert [op.shape for op in batched] == [(5, 3, 2), (5, 3, 2), (5,)]
    for op in batched:
        assert np.all(np.abs(op) <= 1.0)


def _uniform_per_operand(routine, rng, precision, batch):
    """random_operands as one uniform draw per operand, the form it replaced."""
    prefix = () if batch is None else (batch,)
    dt = types.dtype_for(precision)
    shapes = [prefix + types.OPERAND_SHAPES[kind] for kind in types.routine_spec(routine).operands]
    return [rng.uniform(-1.0, 1.0, size=shape).astype(dt, copy=False) for shape in shapes]


@pytest.mark.parametrize("batch", [None, 128])
def test_random_operands_draw_what_per_operand_uniform_draws(batch, precision):
    # One rng.random call scaled to [-1, 1) in place gives uniform's bits
    # (low + (high - low) * u), and leaves the generator in the same state.
    for routine in types.ROUTINE_NAMES:
        for seed in range(3):
            mine, theirs = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
            got = types.random_operands(routine, mine, precision, batch)
            want = _uniform_per_operand(routine, theirs, precision, batch)
            assert [(type(x), x.dtype, x.shape, x.tobytes()) for x in got] == [(type(x), x.dtype, x.shape, x.tobytes()) for x in want]
            assert mine.random() == theirs.random()


def test_random_operands_deterministic(precision):
    a = types.random_operands("mult_su3_nn", np.random.default_rng(7), precision)
    b = types.random_operands("mult_su3_nn", np.random.default_rng(7), precision)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


def test_batch_count_inference(rng):
    spec = types.routine_spec("add_su3_vector")
    ops = types.random_operands("add_su3_vector", rng, batch=6)
    assert types.batch_count(spec, ops) == 6
    assert types.batch_count(spec, ops, count=6) == 6


def test_batch_count_rejects_mismatch(rng):
    spec = types.routine_spec("add_su3_vector")
    ops = types.random_operands("add_su3_vector", rng, batch=6)
    with pytest.raises(ValueError):
        types.batch_count(spec, ops, count=4)
    ragged = [ops[0], ops[1][:3]]
    with pytest.raises(ValueError):
        types.batch_count(spec, ragged)


def test_batch_count_scalar_operand_may_be_0d(rng):
    spec = types.routine_spec("scalar_mult_add_su3_vector")
    a, b, s = types.random_operands("scalar_mult_add_su3_vector", rng, batch=4)
    shared = np.float64(0.5)
    assert types.batch_count(spec, [a, b, shared]) == 4


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_batch_apply_rejects_what_batch_count_rejected(kind, rng):
    # batch_count infers the size; every shape is checked once, in Backend.
    backend = get_backend(kind)
    a, b, s = types.random_operands("scalar_mult_add_su3_vector", rng, batch=4)
    rejected = {
        "ragged": ([a, b[:3], s], None),
        "count mismatch": ([a, b, s], 5),
        "factor of another batch size": ([a, b, s[:3]], None),
        "factor with an extra axis": ([a, b, s[:, None]], None),
        "factor shaped like an operand": ([a, b, np.ones((4, 3, 2))], None),
        "misshapen object": ([a, b.reshape(4, 2, 3), s], None),
        "operand missing its batch axis": ([a, b[0], s], None),
        "a number for an array operand": ([a, 0.5, s], None),
        "too few operands": ([a, b], None),
    }
    for name, (operands, count) in rejected.items():
        with pytest.raises(ValueError):
            backend.batch_apply("scalar_mult_add_su3_vector", operands, count=count)
            pytest.fail(name)
    assert backend.batch_apply("scalar_mult_add_su3_vector", [a, b, s], count=4).shape == (4, 3, 2)
