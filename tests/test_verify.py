import dataclasses

import numpy as np
import pytest

from su3bench import get_backend, types, verify


@pytest.mark.parametrize("kwargs", [
    {"trials": -1},
    {"trials": 2.5},
    {"trials": True},
    {"trials": False},
    {"tolerance_ulps": True},
    {"tolerance_ulps": np.True_},
    {"tolerance_ulps": float("nan")},
    {"tolerance_ulps": float("inf")},
    {"tolerance_ulps": -1.0},
    {"seed": 1.5},
    {"seed": "7"},
    {"seed": True},
    {"seed": -1},
])
def test_sweep_rejects_bad_arguments_before_running(kwargs, monkeypatch):
    with pytest.raises(ValueError):
        verify.check_routine("mult_su3_mat_vec", **kwargs)

    def must_not_run(*args, **kw):
        raise AssertionError("check_all ran a routine before validating its arguments")

    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError):
        verify.check_all(routines=["mult_su3_mat_vec"], **kwargs)


def test_equivalence_row_is_a_frozen_value():
    # Its __init__ sets the instance dict in one step; the fields, their
    # order, keyword construction, frozenness, equality, hash and repr are
    # the dataclass's.
    values = ("mult_su3_nn", "double", 3, 7, 2.0, 0.0, 0, (0, 0, 0))
    names = [field.name for field in dataclasses.fields(verify.EquivalenceRow)]
    row = verify.EquivalenceRow(*values)
    assert names == ["routine", "precision", "trials", "seed", "tolerance_ulps", "max_ulp", "worst_trial", "worst_component"]
    assert dataclasses.astuple(row) == values and row.passed
    assert row == verify.EquivalenceRow(**dict(zip(names, values))) and hash(row) == hash(verify.EquivalenceRow(*values))
    assert dataclasses.replace(row, max_ulp=3.0) != row and not dataclasses.replace(row, max_ulp=3.0).passed
    assert repr(row) == ("EquivalenceRow(routine='mult_su3_nn', precision='double', trials=3, seed=7, tolerance_ulps=2.0, "
                         "max_ulp=0.0, worst_trial=0, worst_component=(0, 0, 0))")
    with pytest.raises(dataclasses.FrozenInstanceError):
        row.max_ulp = 1.0


def test_check_all_rejects_an_empty_routine_list(monkeypatch):
    # Only routines=None means all fifteen.
    def must_not_run(*args, **kw):
        raise AssertionError("check_all ran a routine for an empty routine list")

    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError, match="no routines"):
        verify.check_all(routines=[])


@pytest.mark.parametrize("kwargs", [
    {"precisions": ()},
    {"routines": "mult_su3_mat_vec"},
    {"precisions": "double"},
])
def test_check_all_rejects_an_empty_or_bare_string_set(kwargs, monkeypatch):
    # No precision would pass with no rows; a string would be read as its
    # characters.
    def must_not_run(*args, **kw):
        raise AssertionError("check_all ran a routine for a set it should refuse")

    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError, match="no precisions|one string"):
        verify.check_all(**{"routines": ["mult_su3_mat_vec"], **kwargs})


def test_a_numpy_integer_seed_is_accepted():
    row = verify.check_routine("mult_su3_mat_vec", trials=4, seed=np.int64(7))
    assert row == verify.check_routine("mult_su3_mat_vec", trials=4, seed=7)


def test_zero_trials_and_zero_tolerance_are_accepted():
    row = verify.check_routine("mult_su3_mat_vec", trials=0, tolerance_ulps=0.0)
    assert row.passed and row.trials == 0


def _full_array_row(cand, ref, trials, inject_fault):
    """(max_ulp, worst_trial, worst_component) measured over every component:
    the floor of every trial, ulp_error over the whole output and its argmax."""
    dt = ref.dtype
    flat_ref = ref.reshape(trials, -1) if trials else ref.reshape(0, 1)
    floor = np.abs(flat_ref).max(axis=1, initial=0.0).reshape((trials,) + (1,) * (ref.ndim - 1))
    if inject_fault and trials:
        cand = cand.copy()
        scale0 = dt.type(max(float(floor.reshape(-1)[0]), 1.0))
        cand.reshape(-1)[0] += dt.type(64) * np.spacing(scale0)
    err = verify.ulp_error(cand, ref, scale_floor=floor)
    if not err.size:
        return 0.0, -1, ()
    worst_flat = int(np.argmax(err))
    worst = np.unravel_index(worst_flat, err.shape)
    return float(err.reshape(-1)[worst_flat]), int(worst[0]), tuple(int(k) for k in worst[1:])


def _crafted_pairs(precision, trials=9):
    """(name, candidate, reference, trials) cases for one precision."""
    dt = types.dtype_for(precision)
    finfo = np.finfo(dt)
    rng = np.random.default_rng([31, dt.itemsize])
    ref = rng.uniform(-1.0, 1.0, size=(trials, 3, 3, 2)).astype(dt)

    def nudged(*changes):
        cand = ref.copy()
        for index, value in changes:
            cand[index] = value
        return cand

    def ulps(index, n):
        return index, ref[index] + dt.type(n) * np.spacing(ref[index])

    tied = ref.copy()
    tied[5] = tied[2]  # equal floors, so equal nudges give equal errors
    tied_cand = tied.copy()
    tied_cand[2, 1, 1, 0] = tied_cand[5, 1, 1, 0] = np.nextafter(tied[2, 1, 1, 0], dt.type(2))
    below = ref.copy()
    below[4, 0, 0, 0] = finfo.max / 2  # this trial's floor dwarfs its smallest spacing
    below[4, 2, 2, 1] = finfo.smallest_subnormal
    below_cand = below.copy()
    below_cand[4, 2, 2, 1] = 2 * finfo.smallest_subnormal
    signed_zero = ref.copy()
    signed_zero[3, 1, 2, 0] = 0.0
    with_nan = ref.copy()
    with_nan[6, 0, 1, 1] = np.nan
    with_inf = ref.copy()
    with_inf[1, 2, 0, 0] = -np.inf
    return [
        ("no difference", ref.copy(), ref, trials),
        ("late trial", nudged(ulps((trials - 1, 2, 1, 1), 3)), ref, trials),
        ("several differences", nudged(ulps((1, 0, 2, 0), 1), ulps((4, 1, 0, 1), 5), ulps((7, 2, 2, 0), 2)), ref, trials),
        ("tied maxima", tied_cand, tied, trials),
        ("difference below the floor", below_cand, below, trials),
        ("NaN in the candidate", nudged(ulps((2, 0, 0, 1), 9), ((5, 1, 1, 0), np.nan), ((7, 0, 0, 0), np.nan)), ref, trials),
        ("NaN in both", with_nan.copy(), with_nan, trials),
        ("NaN in the reference", ref.copy(), with_nan, trials),
        ("+inf in the candidate", nudged(((3, 2, 1, 0), np.inf)), ref, trials),
        ("-inf in the reference", ref.copy(), with_inf, trials),
        ("-inf in both", with_inf.copy(), with_inf, trials),
        ("-0.0 against +0.0", nudged(((3, 1, 2, 0), -0.0)), signed_zero, trials),
        ("zero trials", ref[:0].copy(), ref[:0], 0),
    ]


@pytest.mark.parametrize("compare", ["equal", "numpy"])
@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("precision", ["double", "single"])
@np.errstate(invalid="ignore", over="ignore")
def test_row_equals_the_full_array_computation(precision, inject_fault, compare, monkeypatch):
    # Both paths: the native module's equality pass as built, which ends a
    # check with no difference, and the differ path alone, as where the
    # module is unavailable.
    if compare == "numpy":
        monkeypatch.setattr(verify, "_equal", lambda candidate, reference: NotImplemented)
    for name, cand, ref, trials in _crafted_pairs(precision):
        for kind, result in (("scalar", ref), ("vector", cand)):
            monkeypatch.setattr(get_backend(kind), "batch_apply", lambda routine, operands, result=result: result)
        row = verify.check_routine("mult_su3_nn", precision, trials=trials, inject_fault=inject_fault)
        max_ulp, worst_trial, worst_component = _full_array_row(cand, ref, trials, inject_fault)
        assert np.array_equal(row.max_ulp, max_ulp, equal_nan=True), name
        assert (row.worst_trial, row.worst_component) == (worst_trial, worst_component), name
        assert type(row.max_ulp) is float, name


def test_crafted_pairs_reach_each_case():
    # The cases above exercise what they are named for.
    cases = {name: _full_array_row(cand, ref, trials, False) for name, cand, ref, trials in _crafted_pairs("double")}
    assert cases["no difference"] == cases["-0.0 against +0.0"] == cases["difference below the floor"] == (0.0, 0, (0, 0, 0))
    assert cases["late trial"][1] == 8 and cases["tied maxima"][1:] == (2, (1, 1, 0))
    assert np.isnan(cases["NaN in the candidate"][0]) and cases["NaN in the candidate"][1] == 5
    assert np.isnan(cases["+inf in the candidate"][0]) and cases["zero trials"] == (0.0, -1, ())


def test_check_routine_draws_each_case_from_its_key(monkeypatch):
    # check_routine draws through its seed key [seed, routine index,
    # itemsize]; its operands are those of a Generator on that key, which a
    # replay of the check draws. A changed key, or order in it, fails here.
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(types.random_operands(*args, **kwargs))
        return drawn[-1]

    cases = [(routine, precision) for precision in ("double", "single") for routine in types.ROUTINE_NAMES]
    monkeypatch.setattr(verify, "random_operands", recording)
    for routine, precision in cases:
        verify.check_routine(routine, precision, trials=128, seed=41)
    assert len(drawn) == len(cases)
    for (routine, precision), got in zip(cases, drawn):
        key = [41, types.ROUTINE_NAMES.index(routine), types.dtype_for(precision).itemsize]
        want = types.random_operands(routine, np.random.default_rng(key), precision, batch=128)
        assert [x.tobytes() for x in got] == [x.tobytes() for x in want], (routine, precision)
        assert [(x.dtype, x.shape) for x in got] == [(x.dtype, x.shape) for x in want], (routine, precision)


@pytest.mark.parametrize("precision", ["double", "single"])
@pytest.mark.parametrize("routine", types.ROUTINE_NAMES)
def test_a_passing_rows_worst_index_is_component_0(routine, precision):
    # Where nothing differs, the row names component 0 of the result, read
    # as unravel_index reads it, at every result rank.
    row = verify.check_routine(routine, precision, trials=3)
    worst = np.unravel_index(0, types.result_shape(types.routine_spec(routine), (3,)))
    assert row.passed and row.max_ulp == 0.0
    assert (row.worst_trial, row.worst_component) == (int(worst[0]), tuple(int(k) for k in worst[1:]))


@pytest.mark.parametrize("inject_fault", [False, True])
def test_the_equality_pass_and_the_differ_path_give_the_same_rows(inject_fault, monkeypatch):
    # Every case's row, whichever path answers it.
    rows = verify.check_all(trials=64, seed=5, inject_fault=inject_fault).rows
    monkeypatch.setattr(verify, "_equal", lambda candidate, reference: NotImplemented)
    assert verify.check_all(trials=64, seed=5, inject_fault=inject_fault).rows == rows
    assert all(row.passed is not inject_fault for row in rows)


def test_a_case_beyond_physical_memory_is_refused_before_drawing(monkeypatch):
    # mult_su3_nn's operands and two results are 72 components per trial.
    def must_not_run(*args, **kw):
        raise AssertionError("drew or checked a case that does not fit")

    monkeypatch.setattr(types, "physical_memory_bytes", lambda: 72 * 8 * 100)
    assert verify.check_routine("mult_su3_nn", trials=100).passed
    assert verify.check_all(routines=["mult_su3_nn"], trials=200, precisions=("single",)).passed
    monkeypatch.setattr(verify, "random_operands", must_not_run)
    with pytest.raises(ValueError, match="physical memory"):
        verify.check_routine("mult_su3_nn", trials=101)
    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError, match="physical memory"):
        verify.check_all(routines=["mult_su3_mat_vec", "mult_su3_nn"], trials=101)
