"""The kernel contract and the result arrays that Backend checks for it.

A kernel is arithmetic only: ``kernel(*operands, out) -> out``. ``Backend``
allocates the result array, or checks a caller's for shape, dtype and, under
debug validation, aliasing an operand, the same way on both backends.
"""
import numpy as np
import pytest

from su3bench import BACKEND_NAMES, ROUTINE_NAMES, get_backend, types

OTHER_PRECISION = {"double": np.float32, "single": np.float64}


@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_kernel_returns_and_fills_out(kind, routine, precision):
    # One object, then three stacked sets as the backend's batch_apply passes them.
    backend = get_backend(kind)
    kernel = backend.kernels[routine]
    spec = types.routine_spec(routine)
    rng = np.random.default_rng([51, ROUTINE_NAMES.index(routine)])
    for batch in (None, 3):
        ops = types.random_operands(routine, rng, precision, batch=batch)
        if spec.in_place:
            assert kernel(*ops) is ops[0]
            continue
        prefix = () if batch is None else (batch,)
        out = np.full(prefix + types.OPERAND_SHAPES[spec.result], np.nan, dtype=ops[0].dtype)
        assert kernel(*ops, out=out) is out
        assert not np.isnan(out).any()


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_out_parameter_is_used(kind, rng, precision):
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng, precision)
    out = types.zeros("vec", precision)
    assert backend.apply("mult_su3_mat_vec", a, b, out=out) is out
    assert np.array_equal(out, backend.apply("mult_su3_mat_vec", a, b))


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_out_shape_rejected(kind, rng):
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    for bad in (np.zeros((3, 3, 2)), np.zeros(6), np.zeros((1, 3, 2))):
        with pytest.raises(ValueError, match="expected"):
            backend.apply("mult_su3_mat_vec", a, b, out=bad)
        assert not bad.any()


@pytest.mark.parametrize("kind", BACKEND_NAMES)
@pytest.mark.parametrize("shape", [(5, 3, 3, 2), (3, 3, 3, 2), (4, 3, 2), (3, 3, 2, 4)])
def test_batch_apply_rejects_misshapen_out(kind, rng, shape):
    ops = types.random_operands("mult_su3_nn", rng, batch=4)
    with pytest.raises(ValueError, match="expected"):
        get_backend(kind).batch_apply("mult_su3_nn", ops, out=np.empty(shape))


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_aliasing_rejected_under_debug_validation(kind, rng, debug_checks):
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    for out in (b, a[0]):  # an operand, and a view into one
        with pytest.raises(ValueError, match="aliases"):
            backend.apply("mult_su3_mat_vec", a, b, out=out)
    a, b = types.random_operands("mult_su3_mat_vec", rng, batch=4)
    with pytest.raises(ValueError, match="aliases"):
        backend.batch_apply("mult_su3_mat_vec", [a, b], out=b)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_aliasing_unchecked_by_default(kind, rng):
    a, b = types.random_operands("mult_su3_mat_vec", rng)
    get_backend(kind).apply("mult_su3_mat_vec", a, b, out=b)  # the caller's responsibility then


def _mat_4vec(rng, precision):
    a4, b = types.random_operands("mult_adj_su3_mat_4vec", rng, precision)
    return a4, b, [np.zeros_like(b) for _ in range(4)]


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_equal_the_packed_result(kind, rng, precision):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    ret = backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs)
    assert len(ret) == 4 and all(r is o for r, o in zip(ret, outs))
    packed = backend.apply("mult_adj_su3_mat_4vec", a4, b)
    assert np.stack(outs).tobytes() == packed.tobytes()


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_rejects_a_destination_of_the_other_precision(kind, rng, precision):
    a4, b, outs = _mat_4vec(rng, precision)
    outs[2] = np.zeros(b.shape, OTHER_PRECISION[precision])
    with pytest.raises(ValueError, match="dtype"):
        get_backend(kind).apply("mult_adj_su3_mat_4vec", a4, b, outs=outs)
    assert not any(o.any() for o in outs)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_checks_every_destination_before_writing(kind, rng, precision, debug_checks):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    before = b.copy()
    with pytest.raises(ValueError, match="aliases"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [b])
    for bad in (np.zeros((3, 3, 2), b.dtype), np.zeros((4, 3, 2), b.dtype)):
        with pytest.raises(ValueError, match="expected"):
            backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [bad])
        assert not bad.any()
    with pytest.raises(ValueError, match="four"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3])
    assert not any(o.any() for o in outs) and np.array_equal(b, before)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_must_be_a_list_or_tuple_of_four(kind, rng, precision):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    for bad in (5, iter(outs), (o for o in outs), np.zeros((4,) + b.shape, b.dtype)):
        with pytest.raises(ValueError, match="list or tuple of four"):
            backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=bad)
    assert not any(o.any() for o in outs)
    ret = backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=tuple(outs))
    assert all(r is o for r, o in zip(ret, outs))
    assert np.stack(outs).tobytes() == backend.apply("mult_adj_su3_mat_4vec", a4, b).tobytes()


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_rejected_with_out_and_on_other_routines(kind, rng, precision):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    packed = np.zeros((4, 3, 2), b.dtype)
    with pytest.raises(ValueError, match="not both"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, out=packed, outs=outs)
    for routine in ROUTINE_NAMES:
        if routine != "mult_adj_su3_mat_4vec":
            ops = types.random_operands(routine, rng, precision)
            with pytest.raises(ValueError, match="outs"):
                backend.apply(routine, *ops, outs=outs)
    assert not packed.any() and not any(o.any() for o in outs)


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_non_array_result_rejected(kind, rng, precision):
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng, precision)
    with pytest.raises(ValueError, match="numpy arrays"):
        backend.apply("mult_su3_mat_vec", a, b, out=[[0.0, 0.0]] * 3)
    ops = types.random_operands("mult_su3_mat_vec", rng, precision, batch=2)
    with pytest.raises(ValueError, match="numpy arrays"):
        backend.batch_apply("mult_su3_mat_vec", ops, out=[[[0.0, 0.0]] * 3] * 2)
    a4, b, outs = _mat_4vec(rng, precision)
    with pytest.raises(ValueError, match="numpy arrays"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [[[0.0, 0.0]] * 3])
    assert not any(o.any() for o in outs)
