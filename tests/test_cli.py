import csv
import io
import math
import re
import subprocess
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from su3bench import bench, cli, perfmodel, types, verify

VERIFY_HEADER = "routine,precision,trials,seed,tolerance_ulps,max_ulp,worst_trial,worst_component,status"
BENCH_HEADER = "routine,backend,precision,mode,alignment,reps,elapsed_s,invocations_per_s,flops_per_s"


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "su3bench", *args],
        capture_output=True,
        text=True,
        timeout=300,
    )


def test_help_exits_zero():
    proc = run_cli("--help")
    assert proc.returncode == 0
    assert "verify" in proc.stdout and "model" in proc.stdout


def test_no_subcommand_is_usage_error():
    assert run_cli().returncode == 2


def test_unknown_flag_is_usage_error():
    assert run_cli("verify", "--frobnicate").returncode == 2


def test_unknown_routine_is_usage_error():
    proc = run_cli("verify", "--routines", "mult_su3_zz")
    assert proc.returncode == 2
    assert "unknown routine" in proc.stderr


def test_verify_passes_and_reports():
    proc = run_cli(
        "verify", "--routines", "mult_su3_mat_vec,su3_projector",
        "--trials", "50", "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == VERIFY_HEADER
    assert len(lines) == 3
    for line in lines[1:]:
        cells = line.split(",")
        assert cells[-1] == "pass"
        assert float(cells[5]) <= 2.0


def test_verify_output_is_deterministic():
    args = ("verify", "--routines", "all", "--trials", "40", "--format", "csv", "--seed", "3")
    first = run_cli(*args)
    second = run_cli(*args)
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_verify_fault_injection_fails_loudly():
    proc = run_cli(
        "verify", "--routines", "mult_su3_mat_vec",
        "--trials", "20", "--inject-fault", "--format", "csv", "--seed", "5",
    )
    assert proc.returncode == 1
    row = proc.stdout.splitlines()[1]
    assert row.startswith("mult_su3_mat_vec,")
    assert ",5," in row  # the seed is part of the record
    assert row.endswith("FAIL")


def test_verify_single_precision_flag():
    proc = run_cli(
        "verify", "--routines", "add_su3_vector", "--trials", "10",
        "--precision", "single", "--format", "csv",
    )
    assert proc.returncode == 0
    assert ",single," in proc.stdout.splitlines()[1]


def test_flops_table():
    proc = run_cli("flops", "--routines", "mult_su3_mat_vec", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "routine,real_mults,real_adds"
    assert lines[1] == "mult_su3_mat_vec,36,30"


def test_flops_lane_ops_table():
    proc = run_cli("flops", "--routines", "mult_su3_mat_vec", "--lane-ops", "--format", "csv")
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[1] == "mult_su3_mat_vec,18,18,15,3,3"


# Every tally is derived, not transcribed: each is read off the pack plan the
# vector backend's native loop is emitted from (simd.lane_op_count), and
# test_native holds each double loop's instructions to it. A broadcast
# component is counted once, however many outputs share it: mult_su3_nn's row
# operand supplies each of its 18 components to all three output columns, and
# the half-Wilson kernels' matrix supplies each of its 18 to both halves in
# the same way, so all three show 18 broadcasts. A swapped pair load is
# counted once, however many products read it.
LANE_OPS_CSV = """\
routine,broadcasts,packed_mults,packed_adds,swaps,negates
add_su3_vector,0,0,3,0,0
mult_adj_su3_mat_hwvec,18,36,30,6,6
mult_adj_su3_mat_vec,18,18,15,3,3
mult_adj_su3_mat_vec_4dir,72,72,60,3,12
mult_adj_su3_mat_4vec,72,72,60,3,12
mult_su3_an,18,54,45,9,9
mult_su3_mat_hwvec,18,36,30,6,6
mult_su3_na,18,54,45,9,9
mult_su3_nn,18,54,45,9,9
mult_su3_mat_vec,18,18,15,3,3
mult_su3_mat_vec_sum_4dir,72,72,69,12,3
scalar_mult_add_su3_matrix,1,9,9,0,0
scalar_mult_add_su3_vector,1,3,3,0,0
su3_projector,6,18,9,3,9
sub_four_su3_vecs,0,0,12,0,0
"""


def test_flops_lane_ops_all_routines():
    proc = run_cli("flops", "--lane-ops", "--routines", "all", "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines() == LANE_OPS_CSV.splitlines()


def test_bench_csv_contract():
    proc = run_cli(
        "bench", "--routine", "mult_su3_mat_vec", "--reps", "3",
        "--warmup", "1", "--min-region-ms", "0", "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == BENCH_HEADER
    cells = lines[1].split(",")
    assert cells[:5] == ["mult_su3_mat_vec", "vector", "double", "hot", "aligned"]
    assert int(cells[5]) == 3
    assert float(cells[6]) > 0


def test_bench_speedup_rows():
    proc = run_cli(
        "bench", "--routine", "mult_su3_mat_vec", "--reps", "5",
        "--warmup", "1", "--min-region-ms", "0", "--batch-sites", "16",
        "--speedup", "--format", "csv",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0].startswith("routine,precision,mode,alignment,")
    cells = lines[1].split(",")
    assert cells[0] == "mult_su3_mat_vec"
    assert float(cells[6]) > 0  # the measured ratio
    assert cells[-1] in ("yes", "no")


def test_lattice_bench_both_alignments():
    proc = run_cli(
        "lattice-bench", "--routine", "mult_su3_mat_vec", "--dims", "2,2,2,2",
        "--sweeps", "1", "--warmup", "0", "--min-region-ms", "0", "--format", "csv",
        "--alignment", "both",
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == BENCH_HEADER
    assert len(lines) == 3
    assert ",streaming,aligned," in lines[1]
    assert ",streaming,unaligned," in lines[2]


@pytest.mark.parametrize("args", [
    ("bench", "--routine", "mult_su3_nn,add_su3_vector,mult_su3_nn", "--backend", "both"),
    ("bench", "--routine", "mult_su3_nn,add_su3_vector,mult_su3_nn", "--speedup"),
    ("lattice-bench", "--routine", "mult_su3_nn,add_su3_vector,mult_su3_nn", "--alignment", "both"),
])
def test_repeated_routine_is_measured_once(args, monkeypatch, capsys):
    # A repeat is dropped where the list is parsed, first-seen order kept,
    # so every bench form measures and prints each routine once.
    measured = []

    def fake(config):
        measured.append((config.routine, config.backend, config.alignment))
        return bench.TimingRecord(config.routine, config.backend, config.precision, config.mode, config.alignment,
                                  invocations=1, elapsed_s=1.0, flops_per_invocation=1, output_digest="",
                                  environment={}, config=config)

    monkeypatch.setattr(bench, "run", fake)
    assert cli.main([*args, "--format", "csv"]) == 0
    assert [r for r, _, _ in measured] == ["mult_su3_nn"] * (len(measured) // 2) + ["add_su3_vector"] * (len(measured) // 2)
    assert len(measured) == len(set(measured)) == 4
    printed = [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]]
    assert printed == ["mult_su3_nn"] * (len(printed) // 2) + ["add_su3_vector"] * (len(printed) // 2)


def test_verify_runs_a_repeated_routine_once(capsys):
    assert cli._routine_list("mult_su3_nn, add_su3_vector,mult_su3_nn") == ["mult_su3_nn", "add_su3_vector"]
    assert cli.main(["verify", "--routines", "su3_projector,su3_projector", "--trials", "5", "--format", "csv"]) == 0
    assert [line.split(",")[0] for line in capsys.readouterr().out.splitlines()[1:]] == ["su3_projector"]


def test_lattice_bench_rejects_bad_dims():
    proc = run_cli("lattice-bench", "--routine", "mult_su3_mat_vec", "--dims", "2,2,2")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("bench", "--routine", "mult_su3_mat_vec", "--batch-sites", "100000000000000"),
    ("lattice-bench", "--routine", "mult_su3_mat_vec", "--dims", "100000,100000,1000,1000"),
    ("verify", "--routines", "mult_su3_nn", "--trials", "100000000000000"),
])
def test_oversized_input_is_refused_before_allocating(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "physical memory" in proc.stderr
    assert "Traceback" not in proc.stderr


def test_verify_beyond_physical_memory_exits_2_before_drawing(monkeypatch, capsys):
    # Each array alone could pass the kernel's overcommit check and all of
    # them together not fit, so the check is made before anything is drawn.
    drawn = []
    monkeypatch.setattr(types, "physical_memory_bytes", lambda: 1 << 20)
    monkeypatch.setattr(verify, "random_operands", lambda *args, **kw: drawn.append(args))
    assert cli.main(["verify", "--routines", "mult_su3_mat_vec,mult_su3_nn", "--trials", "2000"]) == 2
    err = capsys.readouterr().err
    assert "mult_su3_nn needs 1152000 bytes" in err and "physical memory" in err
    assert drawn == []


@pytest.mark.parametrize("args, named", [
    (("bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "inf"), "min_region_s"),
    (("bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "nan"), "min_region_s"),
    (("lattice-bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "inf"), "min_region_s"),
    (("lattice-bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "nan"), "min_region_s"),
    # Finite but unbounded runs: each would go on for hours before printing.
    (("bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "1e308"), "min_region_s"),
    (("lattice-bench", "--routine", "mult_su3_mat_vec", "--min-region-ms", "60001"), "min_region_s"),
    (("bench", "--routine", "mult_su3_mat_vec", "--reps", "10000000000"), "repetitions"),
    (("bench", "--routine", "mult_su3_mat_vec", "--warmup", "10000000000"), "warmup"),
    (("lattice-bench", "--routine", "mult_su3_mat_vec", "--sweeps", "10000000000"), "repetitions"),
    (("lattice-bench", "--routine", "mult_su3_mat_vec", "--warmup", "10000000000"), "warmup"),
    (("verify", "--routines", "add_su3_vector", "--tolerance-ulps", "nan"), "tolerance_ulps"),
    (("verify", "--routines", "add_su3_vector", "--tolerance-ulps", "-1"), "tolerance_ulps"),
    (("verify", "--routines", "add_su3_vector", "--trials", "-1"), "trials"),
])
def test_bad_numeric_input_exits_2(args, named):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "su3bench: error:" in proc.stderr and named in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("command", [("verify", "--routines"), ("bench", "--routine"), ("lattice-bench", "--routine")])
@pytest.mark.parametrize("seed", ["-1", "1.5"])
def test_bad_seed_is_a_usage_error(command, seed):
    # argparse names the option; a seed numpy would refuse never reaches it.
    proc = run_cli(*command, "mult_su3_mat_vec", "--seed", seed)
    assert proc.returncode == 2
    assert "error: argument --seed: expected a non-negative integer" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


@pytest.mark.parametrize("args", [
    ("verify", "--routines", ""),
    ("verify", "--routines", ","),
    ("flops", "--routines", ""),
    ("bench", "--routine", " , "),
    ("lattice-bench", "--routine", ""),
    ("model", "--scenario", "serial.scenario", "--sweep", ""),
    ("model", "--scenario", "serial.scenario", "--sweep", ","),
])
def test_empty_list_is_usage_error(args):
    # An empty list is not "all": it exits 2 before any work or file read.
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "error: argument --" in proc.stderr and "expected at least one" in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def test_memory_error_exits_2(monkeypatch, capsys):
    def exhausted(config):
        raise MemoryError("Unable to allocate 1 TiB")

    monkeypatch.setattr(bench, "run", exhausted)
    assert cli.main(["bench", "--routine", "mult_su3_mat_vec"]) == 2
    assert "out of memory: Unable to allocate 1 TiB" in capsys.readouterr().err


def test_huge_min_region_stops_at_the_repetition_cap(monkeypatch, capsys):
    # The longest region allowed, against a cap of 8 repetitions: the count
    # grows in float, is clamped to the cap and the region ends there.
    monkeypatch.setattr(bench, "_REPS_CAP", 8)
    argv = ["bench", "--routine", "mult_su3_nn", "--reps", "2", "--min-region-ms", "60000", "--format", "csv"]
    assert cli.main(argv) == 0
    out, err = capsys.readouterr()
    assert "Traceback" not in err
    assert out.splitlines()[1].split(",")[5] == "8"


def test_model_scenario_regression(tmp_path):
    scenario = tmp_path / "serial.scenario"
    scenario.write_text("normal.t_comp_accel = 220\naccel.t_comp_accel = 135\n", encoding="utf-8")
    proc = run_cli("model", "--scenario", str(scenario), "--format", "csv")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "normal_total_s,accel_total_s,predicted_speedup"
    assert lines[1] == "220,135,1.62962963"


def test_model_sweep(tmp_path):
    scenario = tmp_path / "serial.scenario"
    scenario.write_text("normal.t_comp_accel = 220\naccel.t_comp_accel = 135\n", encoding="utf-8")
    proc = run_cli(
        "model", "--scenario", str(scenario), "--sweep", "0,100,1000",
        "--sweep-component", "t_noncomp", "--format", "csv",
    )
    assert proc.returncode == 0
    rows = proc.stdout.splitlines()[1:]
    speeds = [float(r.split(",")[-1]) for r in rows]
    assert speeds[0] == pytest.approx(220 / 135)
    assert speeds[0] > speeds[1] > speeds[2] >= 1.0


def test_model_bounds_reference_row():
    proc = run_cli("model", "--bounds", "--format", "csv")
    assert proc.returncode == 0
    rows = {line.split(",")[0]: line for line in proc.stdout.splitlines()[1:]}
    assert len(rows) == 12  # only recorded mixes
    mat_vec = rows["mult_su3_mat_vec"].split(",")
    assert mat_vec[1:5] == ["15", "21", "29", "24"]
    assert mat_vec[6] == "1.25352113"
    hw = rows["mult_adj_su3_mat_hwvec"].split(",")
    assert hw[5] == "0.405882353"


def test_model_history_kernels_flags_anomalies():
    proc = run_cli("model", "--history", "kernels", "--format", "csv")
    assert proc.returncode == 0
    rows = {line.split(",")[0]: line for line in proc.stdout.splitlines()[1:]}
    assert rows["su3_projector"].endswith("yes")
    assert rows["scalar_mult_add_su3_matrix"].endswith("yes")
    assert rows["mult_su3_mat_vec"].endswith("no")
    assert "add_su3_vector" not in rows  # never timed, no row


def test_model_history_applications():
    proc = run_cli("model", "--history", "applications", "--format", "csv")
    assert proc.returncode == 0
    assert "serial,double,4x4x4x4,vector_aligned,220,135,1.62962963" in proc.stdout


def test_model_history_alignment():
    proc = run_cli("model", "--history", "alignment", "--format", "csv")
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "lattice,aligned_s,unaligned_s,ratio"
    assert len(lines) == 5
    for line in lines[1:]:
        assert float(line.split(",")[-1]) > 1.0


def test_model_output_is_deterministic():
    first = run_cli("model", "--bounds", "--history", "kernels", "--format", "csv")
    second = run_cli("model", "--bounds", "--history", "kernels", "--format", "csv")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_model_without_action_is_an_error():
    proc = run_cli("model")
    assert proc.returncode == 2
    assert "nothing to do" in proc.stderr


def test_model_parse_error_carries_line_number(tmp_path):
    scenario = tmp_path / "broken.scenario"
    scenario.write_text("normal.t_comp_accel = 220\naccel.t_comp_accel = fast\n", encoding="utf-8")
    proc = run_cli("model", "--scenario", str(scenario))
    assert proc.returncode == 2
    assert "line 2" in proc.stderr


def test_model_missing_scenario_file():
    proc = run_cli("model", "--scenario", "/nonexistent/path.scenario")
    assert proc.returncode == 2


@pytest.mark.parametrize("args, error", [
    (("model", "--history", "alignment", "--sweep", "1,2"), "--sweep is for --scenario, which was not given"),
    (("model", "--history", "alignment", "--sweep-component", "t_noncomp"), "--sweep-component is for --sweep, which was not given"),
    (("model", "--history", "alignment", "--mix", "/nonexistent"), "--mix is for --bounds, which was not given"),
    (("bench", "--routine", "mult_su3_nn", "--speedup", "--backend", "scalar"),
     "--backend scalar is not for --speedup, which times both backends"),
    (("bench", "--routine", "mult_su3_nn", "--speedup", "--backend", "vector"),
     "--backend vector is not for --speedup, which times both backends"),
], ids=["sweep", "sweep-component", "mix", "speedup-scalar", "speedup-vector"])
def test_a_setting_the_section_ignores_is_refused(args, error, capsys):
    # Refused before any work (no file opened, nothing timed), with one line.
    assert cli.main(list(args)) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.splitlines() == [f"su3bench: error: {error}"]


def test_sweep_alone_adds_to_t_comm(tmp_path, capsys):
    scenario = tmp_path / "serial.scenario"
    scenario.write_text("normal.t_comp_accel = 220\naccel.t_comp_accel = 135\n", encoding="utf-8")
    assert cli.main(["model", "--scenario", str(scenario), "--sweep", "0,10", "--format", "csv"]) == 0
    rows = capsys.readouterr().out.splitlines()
    assert rows[0] == "overhead,component,predicted_speedup"
    assert [row.split(",")[1] for row in rows[1:]] == ["t_comm", "t_comm"]


def test_out_flag_writes_file(tmp_path):
    target = tmp_path / "report.csv"
    proc = run_cli(
        "verify", "--routines", "add_su3_vector", "--trials", "5",
        "--format", "csv", "--out", str(target),
    )
    assert proc.returncode == 0
    assert proc.stdout == ""
    assert target.read_text(encoding="utf-8").splitlines()[0] == VERIFY_HEADER


@pytest.mark.parametrize("args", [
    ("verify", "--routines", "add_su3_vector", "--trials", "5"),
    ("bench", "--routine", "add_su3_vector", "--reps", "3", "--warmup", "0", "--min-region-ms", "0"),
    ("lattice-bench", "--routine", "add_su3_vector", "--dims", "2,2,2,2", "--warmup", "0", "--min-region-ms", "0"),
    ("flops",),
    ("model", "--history", "alignment"),
], ids=lambda args: args[0])
def test_unwritable_out_exits_2(args, tmp_path):
    target = tmp_path / "missing" / "report.txt"
    proc = run_cli(*args, "--out", str(target))
    assert proc.returncode == 2
    assert proc.stderr.startswith("su3bench: error:") and str(target) in proc.stderr
    assert "Traceback" not in proc.stderr
    assert proc.stdout == ""


def _model(name, text, *args):
    """``model`` run in this process on a file `name` holding `text`, named
    where args hold ``{}``: (exit status, stdout, stderr). An exception that
    escapes ``cli.main``, the traceback a user would see, fails the test."""
    out, err = io.StringIO(), io.StringIO()
    with tempfile.TemporaryDirectory() as tmp, redirect_stdout(out), redirect_stderr(err):
        Path(tmp, name).write_text(text, encoding="utf-8")
        status = cli.main(["model", *(arg.format(Path(tmp, name)) for arg in args), "--format", "csv"])
    assert status in (0, 2), (status, err.getvalue())
    if status == 0:
        numbers = []
        for row in csv.reader(out.getvalue().splitlines()[1:]):
            for cell in row:
                try:
                    numbers.append(float(cell))
                except ValueError:
                    pass
        assert all(map(math.isfinite, numbers)), out.getvalue()
    else:
        assert err.getvalue().startswith("su3bench: error"), err.getvalue()
    return status, out.getvalue(), err.getvalue()


def _error_line(err):
    """The line number an error message names, or None."""
    line = re.match(r"su3bench: error \(line (\d+)\)", err)
    return int(line[1]) if line else None


_TIMES = st.floats(min_value=0.0, max_value=1e308)
_BAD_TIMES = st.sampled_from(["-1", "nan", "inf", "1e400", "fast", ""])


@st.composite
def _scenarios(draw):
    """Both roles' time components as value tokens, the shared fields equal
    on both (each one present or not), and at most one token replaced by one
    that is not a time: (tokens by role, the bad (role, field) or None)."""
    shared = {f: repr(draw(_TIMES)) for f in perfmodel.SHARED_FIELDS if draw(st.booleans())}
    tokens = {role: {"t_comp_accel": repr(draw(_TIMES)), **shared} for role in perfmodel.ROLES}
    bad = draw(st.none() | st.sampled_from([(role, f) for role in tokens for f in tokens[role]]))
    if bad:
        tokens[bad[0]][bad[1]] = draw(_BAD_TIMES)
    return tokens, bad


_OVERFLOWS = [
    {role: {"t_comp_accel": "1e308", "t_noncomp": "1e308"} for role in perfmodel.ROLES},
    {"normal": {"t_comp_accel": "1e308"}, "accel": {"t_comp_accel": "1e-300"}},
]


@settings(max_examples=200)
@given(scenario=_scenarios(), as_csv=st.booleans(), sweep=st.none() | st.lists(_TIMES, min_size=1, max_size=3))
@example(scenario=(_OVERFLOWS[0], None), as_csv=False, sweep=None)
@example(scenario=(_OVERFLOWS[0], None), as_csv=True, sweep=None)
@example(scenario=(_OVERFLOWS[1], None), as_csv=False, sweep=None)
@example(scenario=(_OVERFLOWS[1], None), as_csv=True, sweep=None)
@example(scenario=({role: {"t_comp_accel": "1e308"} for role in perfmodel.ROLES}, None), as_csv=False, sweep=[1e308])
def test_model_scenario_fuzz(scenario, as_csv, sweep):
    # A bad value is tied to its line, and in the CSV form so is a row whose
    # total overflows; a key=value role spans lines, so its overflow is not.
    tokens, bad = scenario
    if as_csv:
        rows = [[role] + [tokens[role].get(f, "0") for f in perfmodel.FIELDS] for role in perfmodel.ROLES]
        text = "\n".join(",".join(row) for row in [["role", *perfmodel.FIELDS], *rows]) + "\n"
        faults = [bad is not None and bad[0] == row[0] or not math.isfinite(sum(map(float, row[1:]))) for row in rows]
        first_bad_line = faults.index(True) + 2 if any(faults) else None
        name = "s.csv"
    else:
        cells = [(role, f) for role in tokens for f in tokens[role]]
        text = "".join(f"{role}.{f} = {tokens[role][f]}\n" for role, f in cells)
        first_bad_line = cells.index(bad) + 1 if bad else None
        name = "s.scenario"
    args = ["--scenario", "{}"] + (["--sweep", ",".join(map(repr, sweep))] if sweep else [])
    status, out, err = _model(name, text, *args)
    if first_bad_line is not None:
        assert status == 2 and _error_line(err) == first_bad_line, err
    elif status == 2:
        assert _error_line(err) is None, err


_COUNTS = st.integers(0, 3) | st.integers(0, 10**400)


@st.composite
def _mix_rows(draw):
    """An instruction-mix row's cells and whether they must be refused: an
    unknown routine, a wrong cell count, a partial or all-zero row, or a
    cell that is no count."""
    routine = draw(st.sampled_from([*types.ROUTINE_NAMES, "mult_su3_zz"]))
    cells = [str(c) for c in draw(st.lists(_COUNTS, min_size=4, max_size=4))]
    fault = draw(st.sampled_from(["none", "none", "unrecorded", "cells", "partial", "zero", "token"]))
    if fault == "unrecorded":
        cells = [""] * 4
    elif fault == "cells":
        cells = cells[:draw(st.integers(0, 3))]
    elif fault == "partial":
        cells[draw(st.integers(0, 3))] = ""
    elif fault == "zero":
        cells = ["0"] * 4
    elif fault == "token":
        cells[draw(st.integers(0, 3))] = draw(st.sampled_from(["-1", "1.5", "x"]))
    refused = routine == "mult_su3_zz" or fault in ("cells", "partial", "token") or cells == ["0"] * 4
    return [routine, *cells], refused


@settings(max_examples=200)
@given(rows=st.lists(_mix_rows(), max_size=4))
def test_model_mix_fuzz(rows):
    # Every row of the table is one line; a row of counts too large for the
    # model is refused on its line too, so the error may come first from it.
    text = "\n".join([perfmodel.MIX_HEADER, *(",".join(cells) for cells, _ in rows)]) + "\n"
    status, out, err = _model("mix.csv", text, "--bounds", "--mix", "{}")
    refused = [k + 2 for k, (_, bad) in enumerate(rows) if bad]
    if refused:
        assert status == 2, out
    if status == 2:
        assert 2 <= (_error_line(err) or 0) <= (refused[0] if refused else len(rows) + 1), err


_JUNK = st.sampled_from(["x", "", "1.5", "0", "-1", "-0", "nan", "inf", "-inf", "1e999", "2,2"])
_SEEDS = st.integers(0, 2**70).map(str)
_ROUTINE_ARGS = st.sampled_from(["mult_su3_nn", "add_su3_vector,su3_projector", "sub_four_su3_vecs",
                                 "scalar_mult_add_su3_matrix", "mult_su3_mat_vec_sum_4dir", "all"])
_DIMS = st.lists(st.integers(1, 3), min_size=4, max_size=4).map(lambda d: ",".join(map(str, d)))


def _ints(low, high):
    return st.integers(low, high).map(str)


def _floats(high):
    return st.floats(0.0, high).map(repr)


# Each command's options, each with its valid values, bounded so that no
# run allocates much or lasts long; a flag with None is a switch. The
# bounded sizes (and a routine where one is required) are always passed.
_OPTIONS = {
    "verify": {"--routines": _ROUTINE_ARGS, "--trials": _ints(0, 64), "--tolerance-ulps": _floats(4.0),
               "--inject-fault": None, "--seed": _SEEDS},
    "bench": {"--routine": _ROUTINE_ARGS, "--backend": st.sampled_from(["scalar", "vector", "both"]), "--reps": _ints(1, 2),
              "--warmup": _ints(0, 1), "--batch-sites": _ints(1, 16), "--min-region-ms": _floats(5.0), "--speedup": None,
              "--seed": _SEEDS},
    "lattice-bench": {"--routine": _ROUTINE_ARGS, "--backend": st.sampled_from(["scalar", "vector", "both"]),
                      "--dims": _DIMS, "--alignment": st.sampled_from(["aligned", "unaligned", "both"]),
                      "--sweeps": _ints(1, 2), "--warmup": _ints(0, 1), "--min-region-ms": _floats(5.0), "--seed": _SEEDS},
    "flops": {"--routines": _ROUTINE_ARGS, "--lane-ops": None},
}
_ALWAYS = {"--routine", "--trials", "--reps", "--warmup", "--batch-sites", "--min-region-ms", "--dims", "--sweeps"}
_COMMON = {"--precision": st.sampled_from(["single", "double"]), "--format": st.sampled_from(["csv", "table", "json-lines"])}


@st.composite
def _cli_args(draw):
    """A command line of verify, bench, lattice-bench or flops: each option
    passed or not, with a valid value, and at most one option's value junk
    (garbage, negative, nan, inf)."""
    command = draw(st.sampled_from(sorted(_OPTIONS)))
    options = {**_OPTIONS[command], **_COMMON}
    bad = draw(st.none() | st.sampled_from([flag for flag, valid in options.items() if valid is not None]))
    args = [command]
    for flag, valid in options.items():
        if flag in _ALWAYS or flag == bad or draw(st.booleans()):
            args += [flag] if valid is None else [flag, draw(_JUNK if flag == bad else valid)]
    return args


@settings(max_examples=60, deadline=None)
@given(args=_cli_args())
@example(args=["verify", "--routines", "mult_su3_nn", "--trials", "4", "--tolerance-ulps", "nan"])
@example(args=["verify", "--routines", "mult_su3_nn", "--trials", "4", "--inject-fault"])
@example(args=["lattice-bench", "--routine", "mult_su3_nn", "--dims", "2.9,2,2,2", "--sweeps", "1", "--warmup", "0",
               "--min-region-ms", "0"])
def test_cli_fuzz(args):
    # In process: an exception that escapes cli.main, the traceback a user
    # would see, fails the test. Every run succeeds, fails verification only
    # when asked to, or exits 2 with an error line naming the program.
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            status = cli.main(args)
        except SystemExit as exit_:
            status = exit_.code
    assert status in ((0, 1, 2) if "--inject-fault" in args else (0, 2)), (status, err.getvalue())
    if status == 2:
        assert re.search(r"^su3bench( [a-z-]+)?: error", err.getvalue(), re.M), err.getvalue()
        assert out.getvalue() == ""
    assert "Traceback" not in err.getvalue()
