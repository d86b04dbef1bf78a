"""The kernel contract and the result arrays that Backend checks for it.

A kernel is arithmetic only: ``kernel(*operands, out) -> out``. ``Backend``
allocates the result array, or checks a caller's for shape, dtype and
overlap with an operand, the same way on both backends and on the native
and Python paths.
"""
import math
import re
from contextlib import nullcontext

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from su3bench import BACKEND_NAMES, ROUTINE_NAMES, backends, get_backend, types
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


PATHS = ["native", "python"]


def _path(path, python_paths):
    """A context under which calls run `path`: as handed out, or the Python paths."""
    return python_paths() if path == "python" else nullcontext()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_out_overlapping_an_operand_is_refused(kind, path, python_paths, rng, precision):
    # A view into an operand, and one buffer holding operand 0 with out one
    # element further on, where a site would read components an earlier
    # site had overwritten: refused before anything is written.
    backend = get_backend(kind)
    a, b = types.random_operands("mult_su3_mat_vec", rng, precision)
    with _path(path, python_paths), pytest.raises(ValueError, match="mult_su3_mat_vec: result array overlaps operand 0"):
        backend.apply("mult_su3_mat_vec", a, b, out=a[0])
    for batch in (None, 4):
        a, b = types.random_operands("add_su3_vector", rng, precision, batch=batch)
        buf = np.concatenate([a.ravel(), np.zeros(1, a.dtype)])
        a, out, before = buf[:-1].reshape(a.shape), buf[1:].reshape(a.shape), buf.copy()
        with _path(path, python_paths), pytest.raises(ValueError, match="add_su3_vector: result array overlaps operand 0"):
            if batch is None:
                backend.apply("add_su3_vector", a, b, out=out)
            else:
                backend.batch_apply("add_su3_vector", [a, b], out=out)
        assert buf.tobytes() == before.tobytes()


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_sub_four_refuses_an_operand_sharing_operand_0(kind, path, python_paths, rng, precision):
    backend = get_backend(kind)
    for batch in (None, 3):
        ops = types.random_operands("sub_four_su3_vecs", rng, precision, batch=batch)
        before = ops[0].copy()
        for i, shared in ((2, ops[0]), (1, ops[0][::-1]), (4, ops[0])):
            call = _replaced(ops, i, shared)
            with _path(path, python_paths), pytest.raises(ValueError, match=f"sub_four_su3_vecs: operand {i} shares memory with operand 0"):
                if batch is None:
                    backend.apply("sub_four_su3_vecs", *call)
                else:
                    backend.batch_apply("sub_four_su3_vecs", call)
        assert np.array_equal(ops[0], before)


_OUT_IS_AN_OPERAND = [routine for routine, spec in types.ROUTINES.items() if not spec.in_place and spec.result in spec.operands]


@pytest.mark.parametrize("routine", _OUT_IS_AN_OPERAND)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_out_that_is_an_operand_is_accepted_on_every_path(kind, routine, python_paths, precision):
    # Every kernel reads a site's operands before writing its result, so
    # the bits are those of a fresh result, through the dispatcher and the
    # Python paths alike.
    backend = get_backend(kind)
    spec = types.routine_spec(routine)
    for batch in (None, 5):
        ops = types.random_operands(routine, np.random.default_rng([71, ROUTINE_NAMES.index(routine)]), precision, batch=batch)

        def call(operands, out=None):
            if batch is None:
                return backend.apply(routine, *operands, out=out)
            return backend.batch_apply(routine, operands, out=out)

        want = call(ops).tobytes()
        for k in (k for k, what in enumerate(spec.operands) if what == spec.result):
            for path in PATHS:
                copies = [op.copy() if isinstance(op, np.ndarray) else op for op in ops]
                with _path(path, python_paths):
                    assert call(copies, out=copies[k]) is copies[k]
                assert copies[k].tobytes() == want, (k, path)


@pytest.mark.parametrize("path", PATHS)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_outs_may_include_an_operand(kind, path, python_paths, rng, precision):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    want = backend.apply("mult_adj_su3_mat_4vec", a4, b).tobytes()
    with _path(path, python_paths):
        ret = backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [b])
    assert ret[3] is b and np.stack(ret).tobytes() == want


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
def test_outs_checks_every_destination_before_writing(kind, rng, precision):
    backend = get_backend(kind)
    a4, b, outs = _mat_4vec(rng, precision)
    before = a4.copy()
    with pytest.raises(ValueError, match="result array overlaps operand 0"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [a4[1, 2]])
    for bad in (np.zeros((3, 3, 2), b.dtype), np.zeros((4, 3, 2), b.dtype)):
        with pytest.raises(ValueError, match="expected"):
            backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3] + [bad])
        assert not bad.any()
    with pytest.raises(ValueError, match="four"):
        backend.apply("mult_adj_su3_mat_4vec", a4, b, outs=outs[:3])
    assert not any(o.any() for o in outs) and np.array_equal(a4, before)


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
BATCH = 4  # sets per batch_apply case; the rank-2 cases split it 2 x 2


def _replaced(ops, i, new):
    return [new if k == i else op for k, op in enumerate(ops)]


def _aliased(ops, result, at=0):
    """ops with operand 0 moved into a buffer that `out`, starting `at`
    elements into it, overlaps, and that out."""
    buf = np.zeros(ops[0].size + math.prod(result))
    buf[: ops[0].size] = ops[0].ravel()
    return [buf[: ops[0].size].reshape(ops[0].shape), *ops[1:]], buf[at: at + math.prod(result)].reshape(result)


def _offset(op):
    """op's values in a C-contiguous array that starts one element into a larger buffer."""
    buf = np.empty(op.size + 1, op.dtype)
    buf[1:] = op.ravel()
    return buf[1:].reshape(op.shape)


def _factor_inside_out(ops, i, batch, result):
    """ops with real factor i a view of `out`'s first elements, and that out."""
    out = np.zeros(result)
    return _replaced(ops, i, out.reshape(-1)[: math.prod(batch)].reshape(batch)), out


def _call_cases(routine: str, batch: tuple) -> dict:
    """Name -> make(ops) giving (operands, out) for one call, from a
    fresh double operand set of `batch` sets (() for apply, (BATCH,) for
    batch_apply): calls the native dispatcher takes and calls it leaves to
    the generic checks."""
    spec = types.routine_spec(routine)
    result = batch + types.OPERAND_SHAPES[spec.result]
    cases = {
        "plain": lambda ops: (ops, None),
        "tuple": lambda ops: (tuple(ops), None),
        "count short": lambda ops: (ops[:-1], None),
        "count long": lambda ops: (ops + ops[-1:], None),
        "no operands": lambda ops: ([], None),
        "all float32": lambda ops: ([op.astype(np.float32) for op in ops], None),
        "all float16": lambda ops: ([op.astype(np.float16) for op in ops], None),
        "all >f8": lambda ops: ([op.astype(">f8") for op in ops], None),
        "all with metadata": lambda ops: ([op.astype(_WITH_METADATA) for op in ops], None),
        "all offset": lambda ops: ([_offset(op) for op in ops], None),
        "all with an extra axis": lambda ops: ([op[None] for op in ops], None),
        "out aliased": lambda ops: _aliased(ops, result),
        "out one element into operand 0": lambda ops: _aliased(ops, result, 1),
    }
    if batch:
        cases["rank-2 batch"] = lambda ops: ([op.reshape((2, 2) + op.shape[1:]) for op in ops], None)
        cases["operand 0 rank-2 batch"] = lambda ops: (_replaced(ops, 0, ops[0].reshape((2, 2) + ops[0].shape[1:])), None)
        cases["no batch axis"] = lambda ops: ([op[0] for op in ops], None)
        cases["empty batch"] = lambda ops: ([op[:0] for op in ops], None)
    else:
        cases["all batched, out batched"] = lambda ops: ([op[None] for op in ops], None if spec.in_place else np.zeros((1,) + result))
    if spec.in_place:
        cases["out in place"] = lambda ops: (ops, np.zeros(result))
        cases["first operand read-only"] = lambda ops: ([_read_only(ops[0]), *ops[1:]], None)
        cases["operand 2 is operand 0"] = lambda ops: (_replaced(ops, 2, ops[0]), None)
    else:
        for name, make in {
            "zeros": lambda: np.zeros(result),
            "offset": lambda: _offset(np.zeros(result)),
            "misshapen": lambda: np.zeros(result + (1,)),
            "flat": lambda: np.zeros(math.prod(result)),
            "extra axis": lambda: np.zeros((1,) + result),
            "float32": lambda: np.zeros(result, np.float32),
            ">f8": lambda: np.zeros(result, ">f8"),
            "with metadata": lambda: np.zeros(result, _WITH_METADATA),
            "list": lambda: np.zeros(result).tolist(),
            "memoryview": lambda: memoryview(np.zeros(result)),
            "subclass": lambda: np.zeros(result).view(_Sub),
            "fortran": lambda: np.asfortranarray(np.zeros(result)),
            "strided": lambda: np.zeros(result + (2,))[..., 1],
            "read-only": lambda: _read_only(np.zeros(result)),
        }.items():
            cases[f"out {name}"] = lambda ops, make=make: (ops, make())
        for k, kind in enumerate(spec.operands):
            if kind == spec.result:
                cases[f"out operand {k}"] = lambda ops, k=k: (ops, ops[k])
    for i, kind in enumerate(spec.operands):
        if kind == "scalar":
            for name, factor in {
                "float": 0.75, "int": 3, "bool": True, "np.float64": np.float64(0.75),
                "0-d float64": np.array(0.75), "0-d float32": np.array(0.75, np.float32), "0-d int": np.array(2),
                "0-d complex": np.array(0.5j), "list": [0.75], "(1,) array": np.array([0.75]),
                "per set": np.full(batch, 0.75), "per set, float32": np.full(batch, 0.75, np.float32),
                "per set, strided": np.full(batch + (2,), 0.75)[..., 0], "per set, list": np.full(batch, 0.75).tolist(),
                "complex": 0.5j, "None": None, "str": "0.75",
            }.items():
                cases[f"factor {name}"] = lambda ops, i=i, factor=factor: (_replaced(ops, i, factor), None)
            cases["factor inside out"] = lambda ops, i=i: _factor_inside_out(ops, i, batch, result)
            cases["float32 with a float factor"] = lambda ops, i=i: (
                _replaced([op.astype(np.float32) for op in ops], i, 0.75), None)
            continue
        for name, edit in {
            "misshapen": lambda op: op.reshape(-1),
            "batched": lambda op: op[None],
            "float32": lambda op: op.astype(np.float32),
            ">f8": lambda op: op.astype(">f8"),
            "with metadata": lambda op: op.astype(_WITH_METADATA),
            "list": lambda op: op.tolist(),
            "memoryview": memoryview,
            "bytearray": lambda op: bytearray(op.tobytes()),
            "subclass": lambda op: op.view(_Sub),
            "read-only": _read_only,
            "strided": lambda op: np.stack([op, op], axis=-1)[..., 0],
            "offset": _offset,
        }.items():
            cases[f"operand {i} {name}"] = lambda ops, i=i, edit=edit: (_replaced(ops, i, edit(ops[i])), None)
    return cases


def _generic(backend, routine: str, form: str):
    """apply or batch_apply (`form`) of `routine` on the generic path: the
    class's method, with no dispatcher in front of it."""
    method = getattr(backends.Backend, form).__get__(backend)
    if form == "apply":
        return lambda operands, out: method(routine, *operands, out=out)
    return lambda operands, out: method(routine, operands, out=out)


def _call_shapes(form: str) -> dict:
    """Name -> shape(method, routine, operands, out): each form of call of
    apply or batch_apply (`form`) besides the usual one, all of which the
    native dispatcher passes to the generic path."""
    if form == "apply":
        return {
            "a keyword besides out": lambda m, r, ops, out: m(r, *ops, out=out, bogus=1),
            "an int routine": lambda m, r, ops, out: m(3, *ops, out=out),
            "an unknown routine": lambda m, r, ops, out: m("mult_su3_zz", *ops, out=out),
            "outs with out": lambda m, r, ops, out: m(r, *ops, out=out, outs=[np.zeros((3, 2)) for _ in range(4)]),
            "a positional out": lambda m, r, ops, out: m(r, *ops, out),
        }
    return {
        "a keyword besides out": lambda m, r, ops, out: m(r, ops, out=out, bogus=1),
        "an int routine": lambda m, r, ops, out: m(3, ops, out=out),
        "an unknown routine": lambda m, r, ops, out: m("mult_su3_zz", ops, out=out),
        "a positional out": lambda m, r, ops, out: m(r, ops, out),
    }


def _outcome(call, operands, out):
    """What one call did: its result's bits, dtype (with its metadata) and
    shape, whether it returned `out` or the first operand, and the first
    operand's bits after; or the exception's type and message. The outs
    form's tuple of destinations counts as their stack."""
    try:
        got = call(operands, out)
    except Exception as err:  # the comparison is the test
        return type(err), str(err)
    got = np.stack(got) if isinstance(got, tuple) else got
    first = np.asarray(operands[0]) if operands else None
    return (np.ascontiguousarray(got).tobytes(), got.dtype, got.dtype.metadata, got.shape,
            got is out or got is operands[0], None if first is None else first.tobytes())


@pytest.mark.parametrize("form", ["apply", "batch_apply"])
@pytest.mark.parametrize("routine", ROUTINE_NAMES)
@pytest.mark.parametrize("kind", BACKEND_NAMES)
def test_native_path_agrees_with_the_generic_checks(kind, routine, form):
    # Every call the native dispatcher takes gives the bits the generic
    # path gives, and every other call the same exception and message; a
    # call of another shape runs the generic method as it would unbound.
    backend = get_backend(kind)
    generic = _generic(backend, routine, form)

    def applied(operands, out):
        if form == "apply":
            return backend.apply(routine, *operands, out=out)
        return backend.batch_apply(routine, operands, out=out)

    seed = [61, ROUTINE_NAMES.index(routine)]
    count = None if form == "apply" else BATCH
    for name, make in _call_cases(routine, () if count is None else (count,)).items():
        outcomes = [_outcome(call, *make(types.random_operands(routine, np.random.default_rng(seed), batch=count)))
                    for call in (generic, applied)]
        assert outcomes[0] == outcomes[1], name
    spec = types.routine_spec(routine)
    result = (() if count is None else (count,)) + types.OPERAND_SHAPES[spec.result]
    for name, shape in _call_shapes(form).items():
        outcomes = []
        for method in (getattr(backends.Backend, form).__get__(backend), None):
            def call(operands, out, method=method):
                return shape(method or getattr(backend, form), routine, operands, out)
            ops = types.random_operands(routine, np.random.default_rng(seed), batch=count)
            outcomes.append(_outcome(call, ops, None if spec.in_place else np.full(result, np.nan)))
        assert outcomes[0] == outcomes[1], name


def test_batch_apply_words_what_it_cannot_read(rng):
    # A generator, one object where a stacked set is due, and stacks of
    # different sizes, each named as such; the batch is operand 0's
    # leading axis.
    backend = get_backend("scalar")
    v = types.random_operands("add_su3_vector", rng)[0]
    stacked = [v[None], v[None]]
    with pytest.raises(ValueError, match="add_su3_vector: operands must be a list or tuple, got generator"):
        backend.batch_apply("add_su3_vector", (op for op in stacked))
    with pytest.raises(ValueError, match=re.escape("operand 0 has shape (3, 2), one object with no batch axis; expected (count,) + (3, 2)")):
        backend.batch_apply("add_su3_vector", [v, v])
    with pytest.raises(ValueError, match=re.escape("operand 1 has shape (2, 3, 2), expected (1, 3, 2)")):
        backend.batch_apply("add_su3_vector", [v[None], np.stack([v, v])])
    assert backend.batch_apply("add_su3_vector", tuple(stacked)).shape == (1, 3, 2)


_DTYPES = [np.float64] * 3 + [np.float32] * 2 + [np.float16, ">f8", _WITH_METADATA]
_ARRAY_FORMS = {
    "ok": lambda x, batch: x,
    "misshapen": lambda x, batch: x.reshape(batch + x.shape[len(batch):][::-1]),
    "flat": lambda x, batch: x.reshape(-1),
    "extra axis": lambda x, batch: x[None],
    "no batch axes": lambda x, batch: x[(0,) * len(batch)] if x.size else np.zeros(x.shape[len(batch):], x.dtype),
    "float32": lambda x, batch: x.astype(np.float32),
    "float16": lambda x, batch: x.astype(np.float16),
    ">f8": lambda x, batch: x.astype(">f8"),
    "with metadata": lambda x, batch: x.astype(_WITH_METADATA),
    "strided": lambda x, batch: np.stack([x, x], axis=-1)[..., 1],
    "offset": lambda x, batch: _offset(x),
    "fortran": lambda x, batch: np.asfortranarray(x),
    "read-only": lambda x, batch: _read_only(x),
    "subclass": lambda x, batch: x.view(_Sub),
    "memoryview": lambda x, batch: memoryview(x),
    "bytearray": lambda x, batch: bytearray(x.tobytes()),
    "list": lambda x, batch: x.tolist(),
}
_FACTOR_FORMS = {
    "float": lambda x: float(x.flat[0]) if x.size else 0.5,
    "int": lambda x: 3,
    "bool": lambda x: True,
    "np.float64": lambda x: np.float64(0.5),
    "np.float32": lambda x: np.float32(0.5),
    "0-d": lambda x: x.reshape(-1)[:1].reshape(()) if x.size else np.array(0.5, x.dtype),
    "0-d float32": lambda x: np.array(0.5, np.float32),
    "0-d float64": lambda x: np.array(0.5),
    "per set": lambda x: x,
    "per set, float32": lambda x: x.astype(np.float32),
    "per set, strided": lambda x: np.stack([x, x], axis=-1)[..., 0],
    "per set, list": lambda x: x.tolist(),
    "per set, extra axis": lambda x: x[..., None],
    "one too many": lambda x: np.append(x, 0.5),
    "complex": lambda x: 0.5j,
    "None": lambda x: None,
    "str": lambda x: "0.5",
}


@st.composite
def _fuzzed_calls(draw):
    """(kind, routine, form, shape, make) where make() builds the
    call's operands and out afresh, NaN-filling the out, and shape is None
    for the usual form of call or one of ``_call_shapes``."""
    kind = draw(st.sampled_from(BACKEND_NAMES))
    routine = draw(st.sampled_from(ROUTINE_NAMES))
    form = draw(st.sampled_from(["apply", "batch_apply"]))
    spec = types.routine_spec(routine)
    usual = [()] if form == "apply" else [(3,)]
    batch = draw(st.sampled_from(usual * 4 + [(), (1,), (3,), (0,), (2, 2)]))
    dtype = draw(st.sampled_from(_DTYPES))
    array_forms = st.sampled_from(["ok"] * 3 * len(_ARRAY_FORMS) + list(_ARRAY_FORMS))
    forms = [draw(st.sampled_from(list(_FACTOR_FORMS)) if kind == "scalar" else array_forms) for kind in spec.operands]
    out_form = None if spec.in_place and draw(st.booleans()) else draw(array_forms)
    out_form = draw(st.sampled_from([None, None, out_form]))
    shape = draw(st.sampled_from([None] * 25 + list(_call_shapes(form))))
    seed = draw(st.integers(0, 2**32 - 1))

    def make():
        rng = np.random.default_rng(seed)
        operands = []
        for kind, how in zip(spec.operands, forms):
            x = rng.uniform(-1.0, 1.0, batch + types.OPERAND_SHAPES[kind]).astype(dtype)
            operands.append(_FACTOR_FORMS[how](x) if kind == "scalar" else _ARRAY_FORMS[how](x, batch))
        out = None
        if out_form is not None:
            out = _ARRAY_FORMS[out_form](np.full(batch + types.OPERAND_SHAPES[spec.result], np.nan, dtype), batch)
        return operands, out

    return kind, routine, form, shape, make


def _target_bytes(operands, out):
    """The bytes of what a call may write: out, else operand 0."""
    target = out if out is not None else (operands[0] if operands else None)
    return bytes(target) if isinstance(target, (memoryview, bytearray)) else np.asarray(target).tobytes()


@settings(max_examples=500)
@given(_fuzzed_calls())
def test_fuzzed_calls_give_the_generic_paths_outcome(call):
    # Each call gives the same bits and the same out or operand identity
    # through the native dispatcher as through the generic checks (or, for
    # a call of another shape, the generic method), or the same exception
    # and message, and a refused call writes nothing.
    kind, routine, form, shape, make = call
    backend = get_backend(kind)

    def generic(operands, out):
        if shape is not None:
            return _call_shapes(form)[shape](getattr(backends.Backend, form).__get__(backend), routine, operands, out)
        return _generic(backend, routine, form)(operands, out)

    def applied(operands, out):
        if shape is not None:
            return _call_shapes(form)[shape](getattr(backend, form), routine, operands, out)
        if form == "apply":
            return backend.apply(routine, *operands, out=out)
        return backend.batch_apply(routine, operands, out=out)

    outcomes = []
    for path in (generic, applied):
        operands, out = make()
        before = _target_bytes(operands, out)
        with np.errstate(over="ignore", invalid="ignore"):
            outcome = _outcome(path, operands, out)
        if isinstance(outcome[0], type):
            assert _target_bytes(operands, out) == before, outcome
        outcomes.append(outcome)
    assert outcomes[0] == outcomes[1]
