"""su3bench benchmark: one workload per run, timed from outside the package.

    python3 perfbench/run.py --workload hot_site --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
src/ directory, so nothing needs installing. All load comes from this one
process, with no extra threads; the set-up probes run one at a time, while
this process waits between rounds.

--trace 0 measures the end-to-end metrics: set-up time; sites per second
and the median and 90th-percentile latency of one op, all three over the
fastest tenth of each op type's repetitions (see workloads.Sample), so the
percentiles spread over the op mix at the host's least loaded moments and
are not a tail over time; peak resident memory through set-up and one
warm-up round; and the share of ops whose output passed its check (one
minus the failed ratio, which is also printed). The tail over time, the
90th percentile over all rounds of the mean latency of one op in the round,
is printed and recorded but is not a metric: on a shared host it moves with
the load of other tenants by more than any bound allows. --trace 1 measures
the workload for half the time untraced and half traced (their sites per
second give the tracing overhead), then runs the traced layer profile (see
layers.py) for the per-layer metrics. Metric names and units are those
declared in BENCHMARK.json at the checkout root.

Set-up time is the median import + first flop_table call of SETUP_PROBES
fresh interpreters (setup_probe.py), started one at a time between rounds at
even intervals through the measured stretch so that they sample the host's
changing load as the timings do, plus the median of SETUP_REPEATS builds of
the workload's inputs. The warm-up round that follows the builds is untimed
and not part of set-up.

Every run also makes one untimed negative control (a perturbed output, or
check_routine(inject_fault=True)) that the workload's own check must flag,
checks that the traced replay of check_routine draws the same operands and
finds the same errors as check_routine itself, and checks that the computed
counts are the same in this process and in every probe interpreter. A
traced run adds the negative control of the profile's lattice sweeps. The
last line of standard output is one JSON object; the full record
(environment, digests, counts, samples) and, for a traced run, the spans
are written under .perfbench_records/.
"""
import time

_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RECORDS = ROOT / ".perfbench_records"
SETUP_REPEATS = 3
SETUP_PROBES = 9
WORKLOAD_NAMES = ("verify_sweep", "hot_site")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    if args.seed < 0 or not args.seconds > 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    return args


def declared_metrics(trace: int) -> dict[str, str]:
    """Metric name -> unit, as BENCHMARK.json declares them for this mode."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def cache_sizes() -> dict[str, int]:
    """Data/unified cache sizes in bytes of cpu0, read from sysfs."""
    sizes = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            size = (index / "size").read_text().strip()
        except OSError:
            continue
        if kind != "Instruction" and size.endswith("K"):
            sizes[f"L{level}"] = int(size[:-1]) * 1024
    return sizes


def environment(seed: int, field_bytes: int) -> dict:
    import numpy as np
    from su3bench import capability

    caches = cache_sizes()
    return {
        "seed": seed,
        "capability": capability(),
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cache_bytes": caches,
        "lattice_field_bytes": field_bytes,
        "lattice_fields_over_cache": {level: field_bytes / size for level, size in caches.items()},
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def setup_probe() -> dict:
    """Import time and computed counts from a fresh interpreter."""
    done = subprocess.run([sys.executable, str(ROOT / "perfbench" / "setup_probe.py")], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return json.loads(done.stdout.splitlines()[-1])


def setup_s(probes: list[dict], build_ns: list[int]) -> float:
    """Median import + flop_table time of the probes, plus the median build."""
    return statistics.median(probe["seconds"] for probe in probes) + statistics.median(build_ns) / 1e9


def end_to_end(sample, setup: float, rss_mb: float) -> dict[str, float]:
    import numpy as np

    kept_us = sample.kept_ns() / 1e3
    return {
        "setup_s": setup,
        "sites_per_s": sample.sites_per_s(),
        "op_p50_us": float(np.percentile(kept_us, 50)),
        "op_p90_us": float(np.percentile(kept_us, 90)),
        "peak_rss_mb": rss_mb,
        "pass_ratio": 1.0 - sample.failed / sample.attempted,
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "su3bench" / "__init__.py").is_file():
        print(f"perfbench: no su3bench sources at {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"  # one thread: all load comes from this process
    sys.path.insert(0, str(SRC))
    import numpy as np
    import su3bench
    from su3bench.verify import DEFAULT_TOLERANCE_ULPS

    import layers
    import workloads
    from spans import Tracer, timed

    if Path(su3bench.__file__).resolve().parent != SRC / "su3bench":
        print(f"perfbench: imported su3bench from {su3bench.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - _START

    tracer = Tracer() if args.trace else None
    _, flop_table_ns = timed(tracer, "flops", "flop_table", su3bench.flop_table)
    counts = layers.computed_counts()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    build_ns = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter_ns()
        workload.build(tracer)
        build_ns.append(time.perf_counter_ns() - t0)

    warm_up = workloads.Sample(workload.ops_per_round, workload.sites_per_op)
    workload.round(warm_up)
    # Taken before the timed stretch, whose sample buffer grows with speed.
    rss_mb = peak_rss_mb()
    probes: list[dict] = []
    pauses = [lambda: probes.append(setup_probe())] * SETUP_PROBES
    digests = {}
    if args.trace:
        untraced = workloads.measure(workload, args.seconds / 2, pauses=pauses)
        traced = workloads.measure(workload, args.seconds / 2, tracer)
        metrics, profile_failed, lattice = layers.profile(workload, tracer, args.seed, flop_table_ns / 1e9)
        metrics["trace.overhead_ratio"] = untraced.sites_per_s() / traced.sites_per_s()
        attempted, failed = untraced.attempted + traced.attempted, untraced.failed + traced.failed
        samples = {"untraced_ns": untraced.ns.tolist(), "traced_ns": traced.ns.tolist()}
        rounds = untraced.rounds + traced.rounds
        round_p90_us = float(np.percentile(untraced.round_us(), 90))
        kept = untraced.kept_ns().size + traced.kept_ns().size
        controls = [workload.negative_control(), lattice.negative_control()]
        metrics["check.negative_control_caught"] = sum(controls)
        digests = lattice.digests
    else:
        sample = workloads.measure(workload, args.seconds, pauses=pauses)
        metrics = end_to_end(sample, setup_s(probes, build_ns), rss_mb)
        attempted, failed, profile_failed = sample.attempted, sample.failed, 0
        samples = {"ns": sample.ns.tolist()}
        rounds = sample.rounds
        round_p90_us = float(np.percentile(sample.round_us(), 90))
        kept = sample.kept_ns().size
        controls = [workload.negative_control()]
    counts_repeat = all(probe["counts"] == counts for probe in probes)
    replays_agree = workloads.replay_agrees(args.seed)
    replays_pass = metrics.get("verify.max_ulp", 0.0) <= DEFAULT_TOLERANCE_ULPS
    checks_pass = warm_up.failed == 0 and failed == 0 and profile_failed == 0 and replays_pass
    correct = checks_pass and all(controls) and replays_agree and counts_repeat

    units = declared_metrics(args.trace)
    if set(units) != set(metrics):
        print(f"perfbench: metrics {sorted(set(units) ^ set(metrics))} differ from BENCHMARK.json", file=sys.stderr)
        return 3
    record = {
        "workload": args.workload,
        "seconds": args.seconds,
        "trace": args.trace,
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
        "rounds": rounds,
        "kept_for_timings": int(kept),
        "round_p90_us": round_p90_us,
        "warm_up_failed": warm_up.failed,
        "profile_failed": profile_failed,
        "negative_controls_caught": controls,
        "replays_agree": replays_agree,
        "import_s": import_s,
        "setup_import_flops_s": [probe["seconds"] for probe in probes],
        "setup_build_s": [ns / 1e9 for ns in build_ns],
        "computed_counts": counts,
        "counts_repeat": counts_repeat,
        "digests": digests,
        "environment": environment(args.seed, counts["field_bytes"]),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "samples": samples,
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    RECORDS.mkdir(exist_ok=True)
    (RECORDS / f"{stem}.json").write_text(json.dumps(record))
    if tracer is not None:
        tracer.write(RECORDS / f"{stem}-spans.npz")

    for name, unit in units.items():
        print(f"{name:<58} {metrics[name]:>16.6g} {unit}")
    print(f"{'ops (samples)':<58} {attempted:>16d} count")
    print(f"{'ops kept for sites_per_s, op_p50_us, op_p90_us':<58} {kept:>16d} count")
    print(f"{'rounds':<58} {rounds:>16d} count")
    print(f"{'round_p90_us (tail over time, untraced rounds)':<58} {round_p90_us:>16.6g} us")
    print(f"{'failed_ratio':<58} {failed / attempted:>16.6g} ratio")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
