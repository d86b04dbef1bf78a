import weakref

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3bench import BACKEND_NAMES, get_backend, native, types, verify
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


def _bits(ops):
    return [(type(x), x.dtype, x.shape, x.tobytes()) for x in ops]


@pytest.mark.parametrize("form", ["generator", "seed"])
@pytest.mark.parametrize("batch", [None, 0, 1, 128])
def test_random_operands_draw_what_per_operand_uniform_draws(batch, precision, form):
    # One rng.random call scaled to [-1, 1) in place gives uniform's bits
    # (low + (high - low) * u), and leaves the generator in the same state;
    # the seed a generator was made from draws the same bits.
    for routine in types.ROUTINE_NAMES:
        for seed in range(3):
            mine, theirs = np.random.default_rng([seed, 5]), np.random.default_rng([seed, 5])
            got = types.random_operands(routine, mine if form == "generator" else [seed, 5], precision, batch)
            want = _uniform_per_operand(routine, theirs, precision, batch)
            assert _bits(got) == _bits(want)
            if form == "generator":
                assert mine.random() == theirs.random()


NATIVE = native.load() is not None

# Seeds of every width: multi-word ints, empty and all-zero sequences,
# check_routine's keys, and entropy longer than SeedSequence's pool of four
# words (5 and 9 words).
SEEDS = [0, 1, 2**32 - 1, 2**32, 2**63, 2**64 - 1, 2**64 + 5, 2**128, [], [0], [0, 0], (0, 0, 0, 0),
         [verify.DEFAULT_SEED, 0, 8], [verify.DEFAULT_SEED, 14, 4], [41, 3, 8], [1, 2, 3, 4, 5],
         (2**64 + 5, 7, 2**40), list(range(9))]


def _generator_free(patch):
    """Make building a numpy Generator fail, where the native module draws."""
    if NATIVE:
        patch.setattr(np.random, "default_rng", lambda *a: pytest.fail("a seed built a Generator"))


def _draws_as_its_generator(seed, routines, precisions, batches):
    for precision in precisions:
        for batch in batches:
            for routine in routines:
                want = types.random_operands(routine, np.random.default_rng(seed), precision, batch)
                with pytest.MonkeyPatch.context() as patch:
                    _generator_free(patch)
                    got = types.random_operands(routine, seed, precision, batch)
                assert _bits(got) == _bits(want), (routine, precision, batch)


@pytest.mark.parametrize("seed", SEEDS, ids=repr)
def test_a_seed_draws_default_rngs_bits_with_no_generator(seed):
    _draws_as_its_generator(seed, types.ROUTINE_NAMES, ("double", "single"), (None, 0, 1, 128))


@given(st.one_of(st.integers(0, 2**128), st.lists(st.integers(0, 2**128), max_size=10)))
def test_any_int_seed_draws_default_rngs_bits(seed):
    _draws_as_its_generator(seed, ["mult_su3_mat_vec_sum_4dir", "scalar_mult_add_su3_vector"], ("double", "single"), (None, 3))


def _outcome(draw):
    """The bits drawn, or the error raised: its type and message."""
    try:
        return _bits(draw())
    except Exception as err:  # noqa: BLE001 - any error is compared
        return type(err), str(err)


@pytest.mark.parametrize("seed", [True, np.int64(3), np.uint32(7), -1, [1, -1], [True, 2], [np.int64(3)], [[1, 2], 3],
                                  2.5, [2.5], "12", np.random.SeedSequence(5), np.array([1, 2], dtype=np.uint32)], ids=repr)
def test_seeds_the_native_path_does_not_take_go_through_default_rng(seed):
    for precision in ("double", "single"):
        for batch in (None, 4):
            got = _outcome(lambda: types.random_operands("scalar_mult_add_su3_vector", seed, precision, batch))
            want = _outcome(lambda: types.random_operands("scalar_mult_add_su3_vector", np.random.default_rng(seed), precision, batch))
            assert got == want


@pytest.mark.parametrize("seed", [0, 2**64 + 5, [verify.DEFAULT_SEED, 3, 8], list(range(9))], ids=repr)
def test_a_seed_draws_the_same_bits_without_the_module(seed, monkeypatch):
    want = [_bits(types.random_operands(routine, seed, "single", 2)) for routine in types.ROUTINE_NAMES]
    monkeypatch.setattr(native, "_state", (None, "unavailable"))
    monkeypatch.setattr(types, "_operands", None)  # bound again on the next draw, from the module now unavailable
    assert [_bits(types.random_operands(routine, seed, "single", 2)) for routine in types.ROUTINE_NAMES] == want


@pytest.mark.parametrize("batch", [True, False, 1.5, -1, np.int64(-2), "3", [2]], ids=repr)
@pytest.mark.parametrize("form", ["seed", "generator"])
def test_random_operands_refuses_a_batch_that_is_not_an_integer_of_at_least_0(batch, form):
    rng = [5, 1] if form == "seed" else np.random.default_rng([5, 1])
    for precision in ("double", "single"):
        with pytest.raises(ValueError, match="batch must be None or a non-negative integer"):
            types.random_operands("scalar_mult_add_su3_vector", rng, precision, batch)
    if form == "generator":
        assert rng.random() == np.random.default_rng([5, 1]).random()  # nothing was drawn


FLAGS = ("C_CONTIGUOUS", "F_CONTIGUOUS", "OWNDATA", "WRITEABLE", "ALIGNED", "WRITEBACKIFCOPY")


def _views(ops):
    """Each operand's bits, type, dtype, shape and flags."""
    return [(*_bits([x])[0], tuple(x.flags[flag] for flag in FLAGS)) for x in ops]


@pytest.mark.parametrize("batch", [None, 0, 1, 7, np.int64(128)], ids=repr)
def test_a_seeds_views_are_the_generator_paths(batch):
    # The native path cuts each operand from its draw in C: the same bytes,
    # type, dtype, shape and flags (C-contiguous, writeable, a view) as the
    # Generator path's slices, arrays of their own on every call, and the
    # draw freed with the last of them.
    for precision in ("double", "single"):
        for routine in types.ROUTINE_NAMES:
            key = [7, types.ROUTINE_NAMES.index(routine)]
            want = types.random_operands(routine, np.random.default_rng(key), precision, batch)
            with pytest.MonkeyPatch.context() as patch:
                _generator_free(patch)
                got, again = (types.random_operands(routine, key, precision, batch) for _ in range(2))
            assert type(got) is list and _views(got) == _views(want) == _views(again), (routine, precision)
            assert all(x.flags.c_contiguous and x.flags.writeable for x in got)
            assert not any(np.shares_memory(x, y) for x in got for y in again)
            if NATIVE:
                draw = got[0].base
                assert type(draw) is np.ndarray and draw.ndim == 1 and all(x.base is draw for x in got)
                freed = weakref.ref(draw)
                del draw, got
                assert freed() is None


def test_random_operands_takes_a_numpy_integer_batch():
    got = types.random_operands("mult_su3_nn", [5, 1], "single", np.int64(3))
    assert [x.tobytes() for x in got] == [x.tobytes() for x in types.random_operands("mult_su3_nn", [5, 1], "single", 3)]
    assert [x.shape for x in got] == [(3, 3, 3, 2)] * 2


def test_random_operands_deterministic(precision):
    a = types.random_operands("mult_su3_nn", np.random.default_rng(7), precision)
    b = types.random_operands("mult_su3_nn", np.random.default_rng(7), precision)
    for x, y in zip(a, b):
        assert np.array_equal(x, y)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_batch_apply_rejects_misshapen_stacks(kind, rng):
    # The batch is operand 0's leading axis; every other shape is checked
    # against it once, in Backend. A real factor may be one number for all.
    backend = get_backend(kind)
    a, b, s = types.random_operands("scalar_mult_add_su3_vector", rng, batch=4)
    rejected = {
        "ragged": [a, b[:3], s],
        "operand 0 shorter": [a[:3], b, s],
        "factor of another batch size": [a, b, s[:3]],
        "factor with an extra axis": [a, b, s[:, None]],
        "factor shaped like an operand": [a, b, np.ones((4, 3, 2))],
        "misshapen object": [a, b.reshape(4, 2, 3), s],
        "operand missing its batch axis": [a, b[0], s],
        "a number for an array operand": [a, 0.5, s],
        "too few operands": [a, b],
    }
    for name, operands in rejected.items():
        with pytest.raises(ValueError):
            backend.batch_apply("scalar_mult_add_su3_vector", operands)
            pytest.fail(name)
    assert backend.batch_apply("scalar_mult_add_su3_vector", [a, b, s]).shape == (4, 3, 2)
    assert backend.batch_apply("scalar_mult_add_su3_vector", [a, b, np.float64(0.5)]).shape == (4, 3, 2)
