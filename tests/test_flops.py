from collections import Counter

import numpy as np
import pytest

from su3bench import flops, get_backend, types
from su3bench.trace import BLOCK
from tutil import Tallied, run_kernel

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
    # The counts are read off the kernel's cached trace, so a repeat call
    # must agree with itself and the cache.
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


def _counting_stack(kind, rng, n, tally):
    """n operands of `kind` made of Tallied reals, on a leading batch axis."""
    arr = np.empty((n,) + types.OPERAND_SHAPES[kind], dtype=object)
    arr.reshape(-1)[:] = [Tallied(v, tally) for v in rng.uniform(-1.0, 1.0, arr.size)]
    return arr


def _values(arr):
    return [x.v for x in arr.reshape(-1)]


@pytest.mark.parametrize("routine", types.ROUTINE_NAMES)
def test_batch_form_does_the_reference_arithmetic(routine):
    # Stacked object arrays take the compiled program of the scalar kernel's
    # trace (over two site blocks here): each site must cost one call's count
    # and give the values of the hand-written body run on that site alone.
    spec = types.routine_spec(routine)
    kernel = get_backend("scalar").kernels[routine]
    fc = flops.flop_count(routine)
    n = BLOCK + 3
    rng = np.random.default_rng([41, types.ROUTINE_NAMES.index(routine)])
    tally = Counter()
    ops = [_counting_stack(kind, rng, n, tally) for kind in spec.operands]
    want = [run_kernel(kernel.__wrapped__, ops[0][s].copy(), *(op[s] for op in ops[1:])) for s in range(n)]
    tally.clear()
    if spec.in_place:
        got = kernel(*ops)
    else:
        got = kernel(*ops, out=np.empty((n,) + types.OPERAND_SHAPES[spec.result], dtype=object))
    assert (tally["*"], tally["+"] + tally["-"]) == (n * fc.real_mults, n * fc.real_adds)
    assert [_values(site) for site in got] == [_values(site) for site in want]
