"""The kernel contract and the result arrays that Backend checks for it.

A kernel is arithmetic only: ``kernel(*operands, out) -> out``. ``Backend``
allocates the result array, or checks a caller's for shape, dtype and, under
debug validation, aliasing an operand, the same way on both backends.
"""
import math

import numpy as np
import pytest

from su3bench import BACKEND_NAMES, ROUTINE_NAMES, backends, debug_validation, get_backend, types
from tutil import zeros

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
    out = zeros("vec", precision)
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


def _read_only(x):
    x = np.array(x)
    x.flags.writeable = False
    return x


@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_read_only_destination_rejected_before_any_write(kind, rng, precision):
    # One ValueError from Backend, whichever kernel or store would have
    # written first, and nothing written.
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_nn", rng, precision)
    with pytest.raises(ValueError, match="mult_su3_nn: result array is read-only"):
        backend.apply("mult_su3_nn", a, b, out=_read_only(np.zeros_like(a)))
    ops = types.random_operands("mult_su3_nn", rng, precision, batch=3)
    with pytest.raises(ValueError, match="mult_su3_nn: result array is read-only"):
        backend.batch_apply("mult_su3_nn", ops, out=_read_only(np.zeros_like(ops[0])))
    a4, b, outs = _mat_4vec(rng, precision)
    outs[3] = _read_only(outs[3])
    with pytest.raises(ValueError, match="mult_adj_su3_mat_4vec: result array is read-only"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs)
    assert not any(o.any() for o in outs)
    for batch in (None, 3):
        ops = types.random_operands("sub_four_su3_vecs", rng, precision, batch=batch)
        ops[0] = _read_only(ops[0])
        before = ops[0].copy()
        with pytest.raises(ValueError, match="sub_four_su3_vecs: operand 0 is read-only"):
            if batch is None:
                backend.apply("sub_four_su3_vecs", *ops)
            else:
                backend.batch_apply("sub_four_su3_vecs", ops)
        assert np.array_equal(ops[0], before)
    ops = types.random_operands("mult_su3_nn", rng, precision)
    assert np.array_equal(backend.apply("mult_su3_nn", *map(_read_only, ops)), backend.apply("mult_su3_nn", *ops))


class _Sub(np.ndarray):
    """An ndarray subclass, which only the generic checks take."""


_WITH_METADATA = np.dtype(np.float64, metadata={"unit": "lattice"})  # equal to float64, not identical


def _replaced(ops, i, new):
    return [new if k == i else op for k, op in enumerate(ops)]


def _aliased(ops, result):
    """ops with operand 0 moved into a buffer that `out` overlaps, and that out."""
    buf = np.zeros(max(ops[0].size, math.prod(result)))
    buf[: ops[0].size] = ops[0].ravel()
    return [buf[: ops[0].size].reshape(ops[0].shape), *ops[1:]], buf[: math.prod(result)].reshape(result)


def _apply_cases(routine: str) -> dict:
    """Name -> make(ops) giving (operands, out, debug) for one apply call, from
    a fresh double operand set: calls the compiled entry takes and calls it
    leaves to the generic checks."""
    spec = types.routine_spec(routine)
    result = types.OPERAND_SHAPES[spec.result]
    cases = {
        "plain": lambda ops: (ops, None, False),
        "debug": lambda ops: (ops, None, True),
        "count short": lambda ops: (ops[:-1], None, False),
        "count long": lambda ops: (ops + ops[-1:], None, False),
        "no operands": lambda ops: ([], None, False),
        "all float32": lambda ops: ([op.astype(np.float32) for op in ops], None, False),
        "all float16": lambda ops: ([op.astype(np.float16) for op in ops], None, False),
        "all >f8": lambda ops: ([op.astype(">f8") for op in ops], None, False),
        "all with metadata": lambda ops: ([op.astype(_WITH_METADATA) for op in ops], None, False),
        "out aliased": lambda ops: (*_aliased(ops, result), False),
        "out aliased, debug": lambda ops: (*_aliased(ops, result), True),
    }
    if spec.in_place:
        cases["out in place"] = lambda ops: (ops, np.zeros(result), False)
        cases["first operand read-only"] = lambda ops: ([_read_only(ops[0]), *ops[1:]], None, False)
    else:
        for name, make in {
            "zeros": lambda: np.zeros(result),
            "misshapen": lambda: np.zeros(result + (1,)),
            "flat": lambda: np.zeros(math.prod(result)),
            "float32": lambda: np.zeros(result, np.float32),
            ">f8": lambda: np.zeros(result, ">f8"),
            "list": lambda: np.zeros(result).tolist(),
            "subclass": lambda: np.zeros(result).view(_Sub),
            "fortran": lambda: np.asfortranarray(np.zeros(result)),
            "strided": lambda: np.zeros(result + (2,))[..., 1],
            "read-only": lambda: _read_only(np.zeros(result)),
        }.items():
            cases[f"out {name}"] = lambda ops, make=make: (ops, make(), False)
        cases["out, debug"] = lambda ops: (ops, np.zeros(result), True)
    for i, kind in enumerate(spec.operands):
        if kind == "scalar":
            for name, factor in {
                "float": 0.75, "int": 3, "bool": True, "np.float64": np.float64(0.75),
                "0-d float64": np.array(0.75), "0-d float32": np.array(0.75, np.float32), "0-d int": np.array(2),
                "0-d complex": np.array(0.5j), "list": [0.75], "(1,) array": np.array([0.75]),
                "complex": 0.5j, "None": None, "str": "0.75",
            }.items():
                cases[f"factor {name}"] = lambda ops, i=i, factor=factor: (_replaced(ops, i, factor), None, False)
            continue
        for name, edit in {
            "misshapen": lambda op: op.reshape(-1),
            "batched": lambda op: op[None],
            "float32": lambda op: op.astype(np.float32),
            ">f8": lambda op: op.astype(">f8"),
            "with metadata": lambda op: op.astype(_WITH_METADATA),
            "list": lambda op: op.tolist(),
            "subclass": lambda op: op.view(_Sub),
            "read-only": _read_only,
            "strided": lambda op: np.stack([op, op], axis=-1)[..., 0],
        }.items():
            cases[f"operand {i} {name}"] = lambda ops, i=i, edit=edit: (_replaced(ops, i, edit(ops[i])), None, False)
    return cases


def _outcome(call, operands, out, debug):
    """What one call did: its result's bits, dtype and shape, whether it
    returned `out`, and the first operand's bits after; or the exception's
    type and message."""
    before = debug_validation(debug)
    try:
        got = call(operands, out)
    except Exception as err:  # the comparison is the test
        return type(err), str(err)
    finally:
        debug_validation(before)
    first = np.asarray(operands[0]) if operands else None
    return (np.ascontiguousarray(got).tobytes(), got.dtype, got.shape, got is out or got is operands[0],
            None if first is None else first.tobytes())


@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_compiled_entry_agrees_with_the_generic_checks(kind, routine):
    # Every call the entry takes straight to the kernel gives the bits the
    # generic path gives, and every other call the same exception and message.
    backend = get_backend(kind)
    plan = backend._plan(routine)

    def generic(operands, out):
        backends._check(plan, operands, out, ())
        if plan.spec.in_place:
            return plan.kernel(*operands)
        return plan.kernel(*operands, out=backends._result(plan, operands, out, plan.result))

    def applied(operands, out):
        return backend.apply(routine, *operands, out=out)

    seed = [61, ROUTINE_NAMES.index(routine)]
    for name, make in _apply_cases(routine).items():
        outcomes = [_outcome(call, *make(types.random_operands(routine, np.random.default_rng(seed))))
                    for call in (generic, applied)]
        assert outcomes[0] == outcomes[1], name
