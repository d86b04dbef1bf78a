import pytest

from su3bench import verify


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


def test_zero_trials_and_zero_tolerance_are_accepted():
    row = verify.check_routine("mult_su3_mat_vec", trials=0, tolerance_ulps=0.0)
    assert row.passed and row.trials == 0
