"""Acceptance gate: ten numbered criteria, one printed verdict line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the verdict lines.
Criterion 9 measures real timings; its hardware-trend sub-checks are
reported but only the flagging logic itself gates, since wall-clock
behavior depends on the machine underneath.
"""
import time

import numpy as np
import pytest

import oracles
from su3bench import bench, flops, get_backend, lattice, perfmodel, scalar, simd, types, verify
from su3bench.bench import BenchConfig
from symterms import sym_matrix, sym_vector, terms
from tutil import adjoint, run_kernel

TRIALS = 10_000
PRECISIONS = ("double", "single")
SCALAR = get_backend("scalar")


def report(number: int, ok: bool, detail: str) -> None:
    print(f"\n[{'PASS' if ok else 'FAIL'}] criterion {number}: {detail}", flush=True)
    assert ok, f"criterion {number}: {detail}"


def test_criterion_01_backend_equivalence():
    t0 = time.perf_counter()
    rep = verify.check_all(trials=TRIALS, precisions=PRECISIONS)
    wall = time.perf_counter() - t0
    worst = max(r.max_ulp for r in rep.rows)
    ok = rep.passed and wall < 60.0 and len(rep.rows) == 30
    report(
        1, ok,
        f"vector vs scalar, 15 routines x 2 precisions x {TRIALS} trials: "
        f"max {worst:.3g} ulp (tolerance 2.0), {wall:.1f} s (budget 60 s)",
    )


def _oracle_sweep(routine: str, precision: str, trials: int) -> float:
    spec = types.routine_spec(routine)
    dt = types.dtype_for(precision)
    rng = np.random.default_rng([2, types.ROUTINE_NAMES.index(routine), dt.itemsize])
    operands = types.random_operands(routine, rng, precision, batch=trials)
    if spec.in_place:
        ref = SCALAR.batch_apply(routine, [operands[0].copy()] + operands[1:])
    else:
        ref = SCALAR.batch_apply(routine, operands)
    want = np.empty_like(np.asarray(ref))
    fn = oracles.ORACLES[routine]
    for s in range(trials):
        want[s] = fn(*(op[s] for op in operands))
    flat = np.asarray(ref).reshape(trials, -1)
    floor = np.abs(flat).max(axis=1, initial=0.0).reshape((trials,) + (1,) * (ref.ndim - 1))
    return float(verify.ulp_error(np.asarray(ref), want, scale_floor=floor).max())


def test_criterion_02_oracle_equivalence():
    worst = 0.0
    for precision in PRECISIONS:
        for routine in types.ROUTINE_NAMES:
            worst = max(worst, _oracle_sweep(routine, precision, TRIALS))
    coherence_worst = 0.0
    for precision in PRECISIONS:
        rng = np.random.default_rng([3, types.dtype_for(precision).itemsize])
        a, b = types.random_operands("mult_su3_nn", rng, precision, batch=2000)
        pairs = [
            (SCALAR.batch_apply("mult_su3_an", [a, b]), SCALAR.batch_apply("mult_su3_nn", [adjoint(a), b])),
            (SCALAR.batch_apply("mult_su3_na", [a, b]), SCALAR.batch_apply("mult_su3_nn", [a, adjoint(b)])),
        ]
        for got, want in pairs:
            flat = want.reshape(len(want), -1)
            floor = np.abs(flat).max(axis=1, initial=0.0).reshape((len(want), 1, 1, 1))
            coherence_worst = max(coherence_worst, float(verify.ulp_error(got, want, scale_floor=floor).max()))
    ok = worst <= 2.0 and coherence_worst <= 4.0
    report(
        2, ok,
        f"scalar vs independent oracle, {TRIALS} trials: max {worst:.3g} ulp (tolerance 2.0); "
        f"adjoint coherence: max {coherence_worst:.3g} ulp (tolerance 4.0)",
    )


def test_criterion_03_first_element_term_structure():
    expected_re = terms(
        ("+", "a00r", "b0r"), ("+", "a00i", "b0i"),
        ("+", "a10r", "b1r"), ("+", "a10i", "b1i"),
        ("+", "a20r", "b2r"), ("+", "a20i", "b2i"),
    )
    expected_im = terms(
        ("+", "a00r", "b0i"), ("-", "a00i", "b0r"),
        ("+", "a10r", "b1i"), ("-", "a10i", "b1r"),
        ("+", "a20r", "b2i"), ("-", "a20i", "b2r"),
    )
    ok = True
    for backend in (scalar, simd):
        c = run_kernel(backend.mult_adj_su3_mat_vec, sym_matrix("a"), sym_vector("b"))
        ok = ok and c[0, 0].canonical() == expected_re and c[0, 1].canonical() == expected_im
    report(
        3, ok,
        "element 0 of mult_adj_su3_mat_vec expands to exactly the six signed "
        "products per part, on both backends",
    )


def test_criterion_04_flop_accounting():
    fc = flops.flop_count("mult_su3_mat_vec")
    per_element = (fc.real_mults // 3, fc.real_adds // 3)
    ok = (fc.real_mults, fc.real_adds) == (36, 30) and per_element == (12, 10)
    report(
        4, ok,
        f"mult_su3_mat_vec counts ({fc.real_mults} mults, {fc.real_adds} adds); "
        f"per element {per_element} (expected (36, 30) and (12, 10))",
    )


def test_criterion_05_model_regression():
    double = perfmodel.predicted_speedup(
        perfmodel.TimeComponents(220.0), perfmodel.TimeComponents(135.0)
    )
    single = perfmodel.predicted_speedup(
        perfmodel.TimeComponents(153.0), perfmodel.TimeComponents(89.0)
    )
    overheads = [0.0, 5.0, 50.0, 500.0, 5e4, 5e7, 1e9]
    curve = perfmodel.degradation_curve(
        perfmodel.TimeComponents(220.0), perfmodel.TimeComponents(135.0), overheads
    )
    decreasing = all(x > y for x, y in zip(curve, curve[1:]))
    ok = (
        abs(double - 1.630) <= 1e-3
        and abs(single - 1.719) <= 1e-3
        and decreasing
        and abs(curve[-1] - 1.0) <= 1e-6
    )
    report(
        5, ok,
        f"serial ratios {double:.4f} (want 1.630 +- 0.001) and {single:.4f} "
        f"(want 1.719 +- 0.001); degradation strictly decreasing, tail {curve[-1]:.8f}",
    )


def test_criterion_06_bound_sanity():
    mixes = perfmodel.load_instruction_mixes()
    recorded = [m for m in mixes if m.recorded]
    in_range = all(
        1.0 <= perfmodel.bound_from_mix(m, lane) <= lane
        for m in recorded
        for lane in (2, 4)
    )
    frac = perfmodel.arithmetic_fraction(perfmodel.mix_for("mult_adj_su3_mat_hwvec"))
    ok = in_range and abs(frac - 69 / 170) <= 1e-9
    report(
        6, ok,
        f"bounds within [1, lane] on all {len(recorded)} recorded mixes for lanes 2 and 4; "
        f"mult_adj_su3_mat_hwvec arithmetic fraction {frac:.9f} (want {69 / 170:.9f})",
    )


def test_criterion_07_lattice_invariants():
    dims_sets = [(1, 1, 1, 1), (4, 4, 4, 4), (8, 4, 4, 4), (2, 3, 4, 5)]
    ok = True
    for dims in dims_sets:
        lat = lattice.Lattice4D.from_dims(dims)
        for s in range(lat.volume):
            if lat.site_index(lat.site_coord(s)) != s:
                ok = False
            for d in lattice.DIRECTIONS:
                opposite = ("-" if d[0] == "+" else "+") + d[1]
                if lat.neighbor(lat.neighbor(s, d), opposite) != s:
                    ok = False
        if min(dims) >= 3:
            for s in range(lat.volume):
                if len({lat.neighbor(s, d) for d in lattice.DIRECTIONS}) != 8:
                    ok = False
    report(
        7, ok,
        f"index bijection and neighbor round-trip on {dims_sets}; "
        "8 distinct neighbors wherever every extent is >= 3",
    )


def test_criterion_08_alignment_contract():
    rng = np.random.default_rng(2026)
    aligned_ok = True
    for _ in range(100):
        nbytes = int(rng.integers(1, 8192))
        alignment = int(rng.choice([8, 16, 32, 64]))
        buf = lattice.AlignedBuffer(nbytes, alignment)
        if buf.address % alignment:
            aligned_ok = False
    crooked = lattice.AlignedBuffer(256, 16).unaligned_view(np.float64, (4,))
    misaligned_ok = crooked.__array_interface__["data"][0] % 8 != 0
    digests_ok = True
    for routine in ("mult_su3_mat_vec", "su3_projector"):
        runs = {}
        for alignment in ("aligned", "unaligned"):
            cfg = BenchConfig(
                routine=routine, mode="streaming", dims=(4, 4, 4, 4),
                repetitions=2, warmup=1, min_region_s=0.0, seed=77,
                alignment=alignment,
            )
            runs[alignment] = bench.run(cfg).output_digest
        if runs["aligned"] != runs["unaligned"]:
            digests_ok = False
    ok = aligned_ok and misaligned_ok and digests_ok
    report(
        8, ok,
        "100 random aligned allocations on their boundaries; unaligned views "
        "verified off 8-byte alignment; aligned vs unaligned streaming runs "
        "produced bitwise-identical output digests",
    )


def _best_seconds_per_invocation(routine, backend, precision):
    best = None
    for _ in range(3):
        cfg = BenchConfig(
            routine=routine, backend=backend, precision=precision,
            repetitions=4, warmup=2, batch_sites=256, min_region_s=0.005, seed=13,
        )
        rec = bench.run(cfg)
        spi = rec.seconds_per_invocation
        best = spi if best is None else min(best, spi)
    return best


def test_criterion_09_performance_trends():
    times = {
        (backend, precision): _best_seconds_per_invocation("mult_su3_mat_vec", backend, precision)
        for backend in ("scalar", "vector")
        for precision in PRECISIONS
    }
    rows = {
        precision: bench.speedup_row(
            "mult_su3_mat_vec", precision,
            times[("scalar", precision)], times[("vector", precision)],
        )
        for precision in PRECISIONS
    }
    vector_faster = times[("vector", "double")] < times[("scalar", "double")]
    single_at_least_double = rows["single"].ratio >= rows["double"].ratio
    # The flagging logic is the gating part: ratios beyond the lane width
    # must be marked anomalous, at and below it must not be.
    flag_logic = (
        bench.speedup_row("mult_su3_mat_vec", "double", 2.1, 1.0).anomalous
        and not bench.speedup_row("mult_su3_mat_vec", "double", 2.0, 1.0).anomalous
        and bench.speedup_row("mult_su3_mat_vec", "single", 4.1, 1.0).anomalous
        and not bench.speedup_row("mult_su3_mat_vec", "single", 3.9, 1.0).anomalous
        and all(r.anomalous == (r.ratio > r.lane_bound) for r in rows.values())
    )
    soft = []
    if not vector_faster:
        soft.append("vector hot loop was not faster than scalar here")
    if not single_at_least_double:
        soft.append("single-precision speedup fell below double")
    detail = (
        f"measured double ratio {rows['double'].ratio:.1f}"
        f"{' (anomalous: beyond lane bound, as expected for this backend)' if rows['double'].anomalous else ''}, "
        f"single ratio {rows['single'].ratio:.1f}; vector faster: {vector_faster}; "
        f"single >= double: {single_at_least_double}; anomaly flagging verified"
    )
    if soft:
        detail += "; SOFT (reported, not gating): " + "; ".join(soft)
    report(9, flag_logic, detail)


def test_criterion_10_cli_determinism_and_exit_codes():
    import subprocess
    import sys

    def run_cli(*args):
        return subprocess.run(
            [sys.executable, "-m", "su3bench", *args],
            capture_output=True, text=True, timeout=300,
        )

    verify_args = ("verify", "--routines", "all", "--trials", "60", "--format", "csv", "--seed", "41")
    v1, v2 = run_cli(*verify_args), run_cli(*verify_args)
    model_args = ("model", "--bounds", "--history", "applications", "--format", "csv")
    m1, m2 = run_cli(*model_args), run_cli(*model_args)
    fault = run_cli("verify", "--routines", "mult_su3_mat_vec", "--trials", "10", "--inject-fault")
    usage = run_cli("verify", "--no-such-flag")
    ok = (
        v1.returncode == 0 and v1.stdout == v2.stdout and v1.stdout
        and m1.returncode == 0 and m1.stdout == m2.stdout
        and fault.returncode == 1 and "FAIL" in fault.stdout
        and usage.returncode == 2
    )
    report(
        10, ok,
        "verify and model outputs byte-identical across repeat runs; exit codes: "
        f"clean pass {v1.returncode}, injected fault {fault.returncode}, usage error {usage.returncode}",
    )
