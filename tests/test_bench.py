import json

import numpy as np
import pytest

from su3bench import bench
from su3bench.bench import BenchConfig, TimingRecord

FAST = dict(repetitions=3, warmup=1, min_region_s=0.0)


def _cfg(**kw):
    merged = {"routine": "mult_su3_mat_vec", **FAST, **kw}
    return BenchConfig(**merged)


def _record(routine="mult_su3_mat_vec", backend="vector", precision="double",
            mode="hot", alignment="aligned", invocations=100, elapsed_s=1.0,
            flops=66, digest="0" * 16):
    return TimingRecord(
        routine=routine, backend=backend, precision=precision, mode=mode,
        alignment=alignment, invocations=invocations, elapsed_s=elapsed_s,
        flops_per_invocation=flops, output_digest=digest,
        environment={}, config=_cfg(routine=routine, precision=precision, mode=mode,
                                    alignment=alignment,
                                    **({"dims": (2, 2, 2, 2)} if mode == "streaming" else {})),
    )


def test_hot_run_basic_accounting():
    rec = bench.run(_cfg())
    assert rec.invocations == 3
    assert 0.0 < rec.elapsed_s < 1.0
    assert rec.flops_per_invocation == 66
    assert rec.mode == "hot" and rec.alignment == "aligned"
    assert len(rec.output_digest) == 16


def test_hot_run_batch_scales_invocations():
    rec = bench.run(_cfg(batch_sites=8, repetitions=2))
    assert rec.invocations == 16


def test_throughput_identities():
    rec = _record(invocations=400, elapsed_s=2.0, flops=66)
    assert rec.seconds_per_invocation == pytest.approx(0.005)
    assert rec.invocations_per_s == pytest.approx(200.0)
    assert rec.flops_per_s == pytest.approx(66 * 200.0)


def test_min_region_grows_repetitions():
    rec = bench.run(_cfg(repetitions=1, min_region_s=0.01))
    assert rec.invocations >= 1
    assert rec.elapsed_s >= 0.01


def test_fixed_reps_run_is_deterministic():
    a = bench.run(_cfg(seed=7))
    b = bench.run(_cfg(seed=7))
    assert a.output_digest == b.output_digest
    assert a.invocations == b.invocations
    c = bench.run(_cfg(seed=8))
    assert c.output_digest != a.output_digest


def test_scalar_and_vector_digests_agree():
    # Backends are bitwise identical, so the same seed must hash the same.
    v = bench.run(_cfg(backend="vector", seed=5))
    s = bench.run(_cfg(backend="scalar", seed=5))
    assert v.output_digest == s.output_digest


@pytest.mark.parametrize("mode", [{}, {"mode": "streaming", "dims": (2, 2, 2, 2)}])
def test_in_place_digest_ignores_backend_and_repetitions(mode):
    # The in-place target is restored before the hashed call, so neither
    # the backend nor how many repetitions ran moves the digest.
    fixed = {
        bench.run(_cfg(routine="sub_four_su3_vecs", backend=b, repetitions=r, seed=9, **mode)).output_digest
        for b in ("scalar", "vector")
        for r in (4, 8)
    }
    grown = {
        bench.run(_cfg(routine="sub_four_su3_vecs", backend=b, repetitions=1, min_region_s=0.005, seed=9, **mode)).output_digest
        for b in ("scalar", "vector")
    }
    assert len(fixed) == 1
    assert grown == fixed


def test_config_rejects_footprint_beyond_physical_memory(monkeypatch):
    monkeypatch.setattr(bench, "_physical_memory_bytes", lambda: 1 << 30)
    BenchConfig(routine="mult_su3_mat_vec", batch_sites=1 << 20)
    with pytest.raises(ValueError, match="physical memory"):
        BenchConfig(routine="mult_su3_mat_vec", batch_sites=1 << 30)
    with pytest.raises(ValueError, match="physical memory"):
        BenchConfig(routine="mult_su3_mat_vec", mode="streaming", dims=(64, 64, 64, 64))


def test_in_place_routine_hot_run():
    rec = bench.run(_cfg(routine="sub_four_su3_vecs"))
    assert rec.flops_per_invocation == 24
    assert len(rec.output_digest) == 16


def test_streaming_run_counts_sites():
    cfg = _cfg(mode="streaming", dims=(2, 2, 2, 2), repetitions=2)
    rec = bench.run(cfg)
    assert rec.invocations == 2 * 16
    assert rec.mode == "streaming"


def test_streaming_alignment_does_not_change_results():
    base = dict(mode="streaming", dims=(2, 2, 2, 3), repetitions=2, seed=11)
    aligned = bench.run(_cfg(alignment="aligned", **base))
    crooked = bench.run(_cfg(alignment="unaligned", **base))
    assert aligned.output_digest == crooked.output_digest
    assert crooked.alignment == "unaligned"


def test_streaming_scalar_factor_routines():
    cfg = _cfg(routine="scalar_mult_add_su3_vector", mode="streaming", dims=(2, 2, 2, 2))
    rec = bench.run(cfg)
    assert rec.invocations == 3 * 16


def test_environment_capture():
    rec = bench.run(_cfg())
    env = rec.environment
    assert env["capability"]["width_bits"] == 128
    assert "clock_resolution_s" in env


def test_refuses_concurrent_benchmarks():
    assert bench._active.acquire(blocking=False)
    try:
        with pytest.raises(RuntimeError):
            bench.run(_cfg())
    finally:
        bench._active.release()
    bench.run(_cfg())  # lock released again


def test_config_validation():
    with pytest.raises(ValueError):
        BenchConfig(routine="mult_su3_mat_vec", mode="tepid")
    with pytest.raises(ValueError):
        BenchConfig(routine="mult_su3_mat_vec", repetitions=0)
    with pytest.raises(ValueError):
        BenchConfig(routine="mult_su3_mat_vec", mode="streaming")
    with pytest.raises(ValueError):
        BenchConfig(routine="mult_su3_mat_vec", alignment="diagonal")
    with pytest.raises(ValueError):
        BenchConfig(routine="mult_su3_everything")
    for bad in (float("inf"), float("nan"), -0.5):
        with pytest.raises(ValueError, match="min_region_s"):
            BenchConfig(routine="mult_su3_mat_vec", min_region_s=bad)


def test_speedup_row_ratio_and_flag():
    row = bench.speedup_row("su3_projector", "double", t_ref_s=16.14, t_vec_s=4.09)
    assert row.ratio == pytest.approx(3.946, abs=1e-3)
    assert row.anomalous  # beyond the 2-lane bound
    tame = bench.speedup_row("mult_su3_mat_vec", "double", t_ref_s=7.13, t_vec_s=4.05)
    assert tame.ratio == pytest.approx(1.76, abs=0.01)
    assert not tame.anomalous
    wide = bench.speedup_row("mult_su3_mat_vec", "single", t_ref_s=3.9, t_vec_s=1.0)
    assert not wide.anomalous  # 3.9 is under the 4-lane bound
    assert bench.speedup_row("mult_su3_mat_vec", "single", 4.1, 1.0).anomalous


def test_speedup_row_validation():
    with pytest.raises(ValueError):
        bench.speedup_row("mult_su3_mat_vec", "double", 0.0, 1.0)
    with pytest.raises(ValueError):
        bench.speedup_row("mult_su3_mat_vec", "half", 1.0, 1.0)


def test_speedup_reciprocity():
    ab = bench.speedup_row("mult_su3_mat_vec", "double", 3.0, 2.0)
    ba = bench.speedup_row("mult_su3_mat_vec", "double", 2.0, 3.0)
    assert ab.ratio * ba.ratio == pytest.approx(1.0)


def test_speedup_table_pairing_rules():
    ref = _record(backend="scalar", elapsed_s=4.0)
    vec = _record(backend="vector", elapsed_s=1.0)
    rows = bench.speedup_table([(ref, vec)])
    assert rows[0].ratio == pytest.approx(4.0)
    assert rows[0].anomalous
    with pytest.raises(ValueError):
        bench.speedup_table([(vec, ref)])  # wrong order
    other = _record(routine="mult_su3_nn", backend="vector")
    with pytest.raises(ValueError):
        bench.speedup_table([(ref, other)])  # routine mismatch


def test_csv_header_is_fixed():
    rec = _record()
    text = bench.format_records([rec], style="csv")
    lines = text.splitlines()
    assert lines[0] == "routine,backend,precision,mode,alignment,reps,elapsed_s,invocations_per_s,flops_per_s"
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert cells[0] == "mult_su3_mat_vec"
    assert cells[5] == "100"


def test_json_lines_round_trip():
    rec = _record()
    text = bench.format_records([rec], style="json-lines")
    row = json.loads(text.splitlines()[0])
    assert set(row) == set(bench.CSV_COLUMNS)
    assert row["reps"] == 100


def test_table_style_output():
    text = bench.format_records([_record()], style="table")
    assert "routine" in text and "mult_su3_mat_vec" in text
    with pytest.raises(ValueError):
        bench.format_records([_record()], style="yaml")


def test_speedup_csv_format():
    row = bench.speedup_row("mult_su3_mat_vec", "double", 3.0, 2.0)
    text = bench.format_speedups([row], style="csv")
    lines = text.splitlines()
    assert lines[0] == ",".join(bench.SPEEDUP_COLUMNS)
    assert lines[1].endswith("no")
    flagged = bench.speedup_row("mult_su3_mat_vec", "double", 30.0, 2.0)
    assert bench.format_speedups([flagged], style="csv").splitlines()[1].endswith("yes")


def test_float_cells_use_repr_grade_precision():
    rec = _record(invocations=3, elapsed_s=0.123456789123)
    line = bench.format_records([rec], style="csv").splitlines()[1]
    assert "0.123456789" in line
