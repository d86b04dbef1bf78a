import numpy as np
import pytest

from su3bench import types, verify


@pytest.mark.parametrize("kwargs", [
    {"trials": -1},
    {"trials": 2.5},
    {"tolerance_ulps": float("nan")},
    {"tolerance_ulps": float("inf")},
    {"tolerance_ulps": -1.0},
])
def test_sweep_rejects_bad_arguments_before_running(kwargs, monkeypatch):
    with pytest.raises(ValueError):
        verify.check_routine("mult_su3_mat_vec", **kwargs)

    def must_not_run(*args, **kw):
        raise AssertionError("check_all ran a routine before validating its arguments")

    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError):
        verify.check_all(routines=["mult_su3_mat_vec"], **kwargs)


def test_check_all_rejects_an_empty_routine_list(monkeypatch):
    # Only routines=None means all fifteen.
    def must_not_run(*args, **kw):
        raise AssertionError("check_all ran a routine for an empty routine list")

    monkeypatch.setattr(verify, "check_routine", must_not_run)
    with pytest.raises(ValueError, match="no routines"):
        verify.check_all(routines=[])


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


@pytest.mark.parametrize("inject_fault", [False, True])
@pytest.mark.parametrize("precision", ["double", "single"])
@np.errstate(invalid="ignore", over="ignore")
def test_row_equals_the_full_array_computation(precision, inject_fault, monkeypatch):
    for name, cand, ref, trials in _crafted_pairs(precision):
        monkeypatch.setattr(verify, "_route", lambda kind, *args: {"vector": cand, "scalar": ref}[kind])
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
