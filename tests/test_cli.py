import subprocess
import sys

import pytest

from su3bench import bench, cli

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


# Every tally is derived, not transcribed: a table kernel's from its gather
# table (simd.lane_op_count), an elementwise kernel's from its traced real
# operations, paired. A broadcast component is counted once, however many
# outputs share it: mult_su3_nn's row operand supplies each of its 18
# components to all three output columns, and the half-Wilson kernels' matrix
# supplies each of its 18 to both halves in the same way, so all three show
# 18 broadcasts.
LANE_OPS_CSV = """\
routine,broadcasts,packed_mults,packed_adds,swaps,negates
add_su3_vector,0,0,3,0,0
mult_adj_su3_mat_hwvec,18,36,30,6,6
mult_adj_su3_mat_vec,18,18,15,3,3
mult_adj_su3_mat_vec_4dir,72,72,60,12,12
mult_adj_su3_mat_4vec,72,72,60,12,12
mult_su3_an,18,54,45,9,9
mult_su3_mat_hwvec,18,36,30,6,6
mult_su3_na,18,54,45,9,9
mult_su3_nn,18,54,45,9,9
mult_su3_mat_vec,18,18,15,3,3
mult_su3_mat_vec_sum_4dir,72,72,69,3,3
scalar_mult_add_su3_matrix,1,9,9,0,0
scalar_mult_add_su3_vector,1,3,3,0,0
su3_projector,6,18,9,9,9
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


def test_lattice_bench_rejects_bad_dims():
    proc = run_cli("lattice-bench", "--routine", "mult_su3_mat_vec", "--dims", "2,2,2")
    assert proc.returncode == 2


@pytest.mark.parametrize("args", [
    ("bench", "--routine", "mult_su3_mat_vec", "--batch-sites", "100000000000000"),
    ("lattice-bench", "--routine", "mult_su3_mat_vec", "--dims", "100000,100000,1000,1000"),
])
def test_oversized_input_is_refused_before_allocating(args):
    proc = run_cli(*args)
    assert proc.returncode == 2
    assert "physical memory" in proc.stderr
    assert "Traceback" not in proc.stderr


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

    monkeypatch.setattr(bench, "run_hot", exhausted)
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
