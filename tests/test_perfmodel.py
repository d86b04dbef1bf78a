import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from su3bench import perfmodel as pm
from su3bench import types
from tutil import dump_instruction_mixes

SERIAL_DOUBLE = (pm.TimeComponents(t_comp_accel=220.0), pm.TimeComponents(t_comp_accel=135.0))
SERIAL_SINGLE = (pm.TimeComponents(t_comp_accel=153.0), pm.TimeComponents(t_comp_accel=89.0))


def test_historical_serial_ratios():
    assert pm.predicted_speedup(*SERIAL_DOUBLE) == pytest.approx(1.630, abs=1e-3)
    assert pm.predicted_speedup(*SERIAL_SINGLE) == pytest.approx(1.719, abs=1e-3)


def test_equal_configurations_give_unity():
    t = pm.TimeComponents(5.0, 1.0, 2.0, 3.0)
    assert pm.predicted_speedup(t, t) == 1.0


@given(k=st.floats(min_value=1e-6, max_value=1e6, allow_nan=False))
def test_speedup_is_scale_invariant(k):
    a = pm.TimeComponents(220.0 * k)
    b = pm.TimeComponents(135.0 * k)
    assert pm.predicted_speedup(a, b) == pytest.approx(220.0 / 135.0, rel=1e-12)


def test_shared_components_must_agree():
    n = pm.TimeComponents(10.0, t_comm=1.0)
    a = pm.TimeComponents(5.0, t_comm=2.0)
    with pytest.raises(ValueError):
        pm.predicted_speedup(n, a)


def test_zero_accelerated_total_rejected():
    with pytest.raises(ValueError):
        pm.predicted_speedup(pm.TimeComponents(0.0), pm.TimeComponents(0.0))


def test_negative_or_non_finite_components_rejected():
    with pytest.raises(ValueError):
        pm.TimeComponents(-1.0)
    with pytest.raises(ValueError):
        pm.TimeComponents(math.inf)
    with pytest.raises(ValueError):
        pm.TimeComponents(math.nan)


def test_with_component():
    t = pm.TimeComponents(4.0)
    u = t.with_component("t_comm", 2.0)
    assert u.t_comm == 2.0 and u.t_comp_accel == 4.0
    assert t.t_comm == 0.0  # original untouched
    with pytest.raises(ValueError):
        t.with_component("t_magic", 1.0)


def test_degradation_curve_strictly_decreasing_to_unity():
    overheads = [0.0, 10.0, 100.0, 1000.0, 1e6, 1e9]
    curve = pm.degradation_curve(*SERIAL_DOUBLE, overheads)
    assert curve[0] == pytest.approx(220.0 / 135.0)
    assert all(a > b for a, b in zip(curve, curve[1:]))
    assert curve[-1] == pytest.approx(1.0, abs=1e-6)
    assert all(c >= 1.0 for c in curve)


def test_degradation_curve_component_choice():
    by_comm = pm.degradation_curve(*SERIAL_DOUBLE, [50.0], component="t_comm")
    by_noncomp = pm.degradation_curve(*SERIAL_DOUBLE, [50.0], component="t_noncomp")
    assert by_comm == by_noncomp  # both enter the totals the same way
    with pytest.raises(ValueError):
        pm.degradation_curve(*SERIAL_DOUBLE, [1.0], component="t_comp_accel")
    with pytest.raises(ValueError):
        pm.degradation_curve(*SERIAL_DOUBLE, [-1.0])


def test_arithmetic_fraction_reference_value():
    mix = pm.mix_for("mult_adj_su3_mat_hwvec")
    assert pm.arithmetic_fraction(mix) == pytest.approx(69 / 170, abs=1e-9)
    assert mix.arithmetic == 69 and mix.total == 170


def test_bound_from_mix_reference_value():
    mix = pm.mix_for("mult_su3_mat_vec")
    assert pm.bound_from_mix(mix, 2) == pytest.approx(89 / 71, rel=1e-12)
    assert pm.bound_from_mix(mix, 4) > pm.bound_from_mix(mix, 2)


def test_bounds_stay_within_lane_factor():
    for mix in pm.load_instruction_mixes():
        if not mix.recorded:
            continue
        for lane in (2, 4):
            bound = pm.bound_from_mix(mix, lane)
            assert 1.0 <= bound <= lane, (mix.routine, lane, bound)


def test_bound_rejects_other_lane_factors():
    mix = pm.mix_for("mult_su3_nn")
    with pytest.raises(ValueError):
        pm.bound_from_mix(mix, 3)


def test_unrecorded_mix_raises_on_access():
    mix = pm.mix_for("add_su3_vector")
    assert not mix.recorded
    with pytest.raises(ValueError):
        _ = mix.arithmetic
    with pytest.raises(ValueError):
        pm.arithmetic_fraction(mix)
    with pytest.raises(ValueError):
        pm.bound_from_mix(mix, 2)


def test_mix_table_covers_registry():
    mixes = pm.load_instruction_mixes()
    assert [m.routine for m in mixes] == list(types.ROUTINE_NAMES)
    assert sum(m.recorded for m in mixes) == 12


def test_mix_all_or_none_enforced():
    with pytest.raises(ValueError):
        pm.InstructionMix("mult_su3_nn", 1, None, 2, 3)
    with pytest.raises(ValueError):
        pm.InstructionMix("mult_su3_nn", -1, 2, 3, 4)


def test_mix_table_round_trips_byte_for_byte():
    shipped = pm._read_reference(pm.TABLE_PATH)
    assert dump_instruction_mixes(pm.parse_instruction_mixes(shipped)) == shipped


def test_mix_parse_errors_carry_line_numbers():
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_instruction_mixes("routine,add,mul\nx,1,2\n")
    assert exc.value.line == 1
    bad_routine = pm.MIX_HEADER + "\nmult_su3_zz,1,2,3,4\n"
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_instruction_mixes(bad_routine)
    assert exc.value.line == 2
    partial = pm.MIX_HEADER + "\nmult_su3_nn,1,,3,4\n"
    with pytest.raises(pm.ModelInputError):
        pm.parse_instruction_mixes(partial)


def test_scenario_keyed_format(tmp_path):
    text = (
        "# serial 4x4x4x4 double\n"
        "normal.t_comp_accel = 220\n"
        "accel.t_comp_accel  = 135\n"
        "normal.t_comm = 0  # shared\n"
        "accel.t_comm = 0\n"
    )
    roles = pm.parse_scenario(text)
    assert pm.predicted_speedup(roles["normal"], roles["accel"]) == pytest.approx(220 / 135)
    path = tmp_path / "serial.scenario"
    path.write_text(text, encoding="utf-8")
    loaded = pm.load_scenario(str(path))
    assert loaded == roles


def test_scenario_parse_errors():
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_scenario("normal.t_comp_accel = 220\nnormal.t_comp_accel = 2\naccel.t_comp_accel = 1\n")
    assert exc.value.line == 2
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_scenario("boss.t_comp_accel = 2\n")
    assert exc.value.line == 1
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_scenario("normal.t_comp_accel = fast\n")
    assert exc.value.line == 1
    with pytest.raises(pm.ModelInputError):
        pm.parse_scenario("normal.t_comp_accel = 220\n")  # accel missing
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_scenario("normal.t_comp_accel = -1\naccel.t_comp_accel = 1\n")
    assert exc.value.line == 1


def test_scenario_csv_format(tmp_path):
    text = "role,t_comp_accel,t_comp_plain,t_noncomp,t_comm\nnormal,220,0,0,0\naccel,135,0,0,0\n"
    roles = pm.parse_scenario_csv(text)
    assert roles["accel"].t_comp_accel == 135.0
    path = tmp_path / "serial.csv"
    path.write_text(text, encoding="utf-8")
    assert pm.load_scenario(str(path)) == roles
    with pytest.raises(pm.ModelInputError) as exc:
        pm.parse_scenario_csv("role,a,b\nnormal,1,2\n")
    assert exc.value.line == 1


def test_kernel_history_values():
    rows = {t.routine: t for t in pm.load_kernel_history()}
    assert len(rows) == 15
    assert rows["mult_su3_mat_hwvec"].vector_s == 8.01
    assert rows["su3_projector"].reference_s == 16.14
    assert rows["add_su3_vector"].vector_s is None
    assert rows["sub_four_su3_vecs"].reference_s == 4.44


def test_application_history_and_ratios():
    history = pm.load_application_history()
    assert len(history) == 12
    ratios = pm.application_speedup_rows()
    aligned_serial_double = next(
        r for r in ratios
        if r["mode"] == "serial" and r["precision"] == "double" and r["variant"] == "vector_aligned"
    )
    assert aligned_serial_double["ratio"] == pytest.approx(220 / 135)
    aligned_serial_single = next(
        r for r in ratios
        if r["mode"] == "serial" and r["precision"] == "single" and r["variant"] == "vector_aligned"
    )
    assert aligned_serial_single["ratio"] == pytest.approx(153 / 89)


def test_alignment_history_always_favors_aligned():
    rows = pm.load_alignment_history()
    assert len(rows) == 4
    for row in rows:
        assert row.unaligned_s > row.aligned_s


def test_overflowing_totals_and_ratios_refused():
    with pytest.raises(pm.ModelInputError, match="overflows"):
        pm.TimeComponents(1e308, t_noncomp=1e308)
    with pytest.raises(pm.ModelInputError, match="overflows"):
        pm.predicted_speedup(pm.TimeComponents(1e308), pm.TimeComponents(1e-300))
    with pytest.raises(pm.ModelInputError):
        pm.degradation_curve(pm.TimeComponents(1e308), pm.TimeComponents(1e308), [1e308])
    csv_text = "role,t_comp_accel,t_comp_plain,t_noncomp,t_comm\nnormal,1,0,0,0\naccel,1e308,1e308,0,0\n"
    with pytest.raises(pm.ModelInputError, match="overflows") as exc:
        pm.parse_scenario_csv(csv_text)
    assert exc.value.line == 3


def test_mix_rows_of_zeros_or_oversized_counts_refused_with_line_numbers():
    with pytest.raises(ValueError, match="all zero"):
        pm.InstructionMix("mult_su3_nn", 0, 0, 0, 0)
    pm.InstructionMix("mult_su3_nn", pm.MAX_COUNT, 0, 0, 0)
    with pytest.raises(ValueError):
        pm.InstructionMix("mult_su3_nn", pm.MAX_COUNT + 1, 0, 0, 0)
    for row in ("mult_su3_nn,0,0,0,0", f"mult_su3_nn,{10**400},1,1,1"):
        with pytest.raises(pm.ModelInputError) as exc:
            pm.parse_instruction_mixes(f"{pm.MIX_HEADER}\nmult_su3_an,1,2,3,4\n{row}\n")
        assert exc.value.line == 3
