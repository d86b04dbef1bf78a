import numpy as np
import pytest

from su3bench import flops, get_backend, scalar, types

# Hand-derived from the complex arithmetic: a 3-term complex dot costs
# 12 mults and 10 adds (4 mults and 2 combines per term pair, summed
# separately), a full 3x3 times vector costs 3 of those, and so on.
EXPECTED = {
    "add_su3_vector": (0, 6),
    "mult_adj_su3_mat_hwvec": (72, 60),
    "mult_adj_su3_mat_vec": (36, 30),
    "mult_adj_su3_mat_vec_4dir": (144, 120),
    "mult_adj_su3_mat_4vec": (144, 120),
    "mult_su3_an": (108, 90),
    "mult_su3_mat_hwvec": (72, 60),
    "mult_su3_na": (108, 90),
    "mult_su3_nn": (108, 90),
    "mult_su3_mat_vec": (36, 30),
    "mult_su3_mat_vec_sum_4dir": (144, 138),
    "scalar_mult_add_su3_matrix": (18, 18),
    "scalar_mult_add_su3_vector": (6, 6),
    "su3_projector": (36, 18),
    "sub_four_su3_vecs": (0, 24),
}


@pytest.mark.parametrize("routine", sorted(EXPECTED))
def test_counts_match_hand_derivation(routine):
    fc = flops.flop_count(routine)
    assert (fc.real_mults, fc.real_adds) == EXPECTED[routine]
    assert fc.total == sum(EXPECTED[routine])


def test_mat_vec_headline_numbers():
    fc = flops.flop_count("mult_su3_mat_vec")
    assert (fc.real_mults, fc.real_adds) == (36, 30)
    # Per output element: one 3-term complex dot.
    assert (fc.real_mults // 3, fc.real_adds // 3) == (12, 10)


def test_counts_come_from_instrumentation_not_a_table():
    # The counter runs the scalar kernel on counting scalars, so a repeat
    # call must agree with itself and the cache.
    first = flops.flop_count("mult_su3_nn")
    second = flops.flop_count("mult_su3_nn")
    assert first == second


def test_total_is_mults_plus_adds():
    for routine in types.ROUTINE_NAMES:
        fc = flops.flop_count(routine)
        assert fc.total == fc.real_mults + fc.real_adds
    assert sum(fc.total for fc in flops.flop_table().values()) == 1932


def test_unknown_routine_rejected():
    with pytest.raises(ValueError):
        flops.flop_count("mult_su3_xx")


def test_flop_table_covers_registry():
    table = flops.flop_table()
    assert set(table) == set(types.ROUTINE_NAMES)
    assert all(isinstance(fc, types.FlopCount) for fc in table.values())


def test_counting_scalar_arithmetic():
    a = flops.CountingScalar(2.0)
    b = flops.CountingScalar(3.0)
    assert (a * b).v == 6.0
    assert (a + b).v == 5.0
    assert (a - b).v == -1.0
    assert (-a).v == -2.0
    assert (1.5 * a).v == 3.0
    assert (1.0 + a).v == 3.0


def _counting_stack(kind, rng, n):
    """n CountingScalar objects of `kind` on a leading batch axis."""
    arr = np.empty((n,) + types.OPERAND_SHAPES[kind], dtype=object)
    arr.reshape(-1)[:] = [flops.CountingScalar(v) for v in rng.uniform(-1.0, 1.0, arr.size)]
    return arr


def _values(arr):
    return [float(x) for x in arr.reshape(-1)]


@pytest.mark.parametrize("routine", types.ROUTINE_NAMES)
def test_batch_form_does_the_reference_arithmetic(routine):
    # Site-last object arrays take the scalar kernels' batch form, as
    # Backend.batch_apply's float operands do (over two site blocks here):
    # each site must cost one single-object call's count and give its values.
    spec = types.routine_spec(routine)
    kernel = get_backend("scalar").kernels[routine]
    fc = flops.flop_count(routine)
    n = scalar._BLOCK + 3
    rng = np.random.default_rng([41, types.ROUTINE_NAMES.index(routine)])
    ops = [_counting_stack(kind, rng, n) for kind in spec.operands]
    want = [kernel(ops[0][s].copy(), *(op[s] for op in ops[1:])) for s in range(n)]
    views = [op.transpose(*range(1, op.ndim), 0) for op in ops]
    flops._counts.update(mults=0, adds=0)
    if spec.in_place:
        kernel(*views)
        got = ops[0]
    else:
        got = np.empty((n,) + types.OPERAND_SHAPES[spec.result], dtype=object)
        kernel(*views, out=got.transpose(*range(1, got.ndim), 0))
    assert flops._counts == {"mults": n * fc.real_mults, "adds": n * fc.real_adds}
    assert [_values(site) for site in got] == [_values(site) for site in want]
