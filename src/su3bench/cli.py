"""Command-line front end.

Subcommands: verify (cross-backend equivalence), bench (hot-loop timing),
lattice-bench (streaming sweeps), flops (operation counts), model
(analytical speedup model and shipped historical data).

Exit codes: 0 success, 1 verification failure, 2 bad input (unknown flags,
malformed files, invalid values, inputs too large for memory). Output is
deterministic for a fixed seed and flags except for measured-time fields.
"""
from __future__ import annotations

import argparse
import sys
from dataclasses import asdict

from . import bench, flops, perfmodel, simd, verify
from .bench import BenchConfig, format_rows
from .perfmodel import ModelInputError
from .types import PRECISIONS, ROUTINE_NAMES

VERIFY_COLUMNS = ("routine", "precision", "trials", "seed", "tolerance_ulps", "max_ulp", "worst_trial", "worst_component", "status")
FLOP_COLUMNS = ("routine", "real_mults", "real_adds")
LANE_COLUMNS = ("routine", "broadcasts", "packed_mults", "packed_adds", "swaps", "negates")


def _routine_list(value: str) -> list[str]:
    if value == "all":
        return list(ROUTINE_NAMES)
    names = list(dict.fromkeys(v.strip() for v in value.split(",") if v.strip()))  # repeats dropped
    if not names:
        raise argparse.ArgumentTypeError(f"expected at least one routine name or 'all', got {value!r}")
    unknown = [n for n in names if n not in ROUTINE_NAMES]
    if unknown:
        raise argparse.ArgumentTypeError(f"unknown routine(s): {', '.join(unknown)}")
    return names


def _dims(value: str) -> tuple[int, ...]:
    try:
        parts = tuple(int(v) for v in value.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(f"dims must be four comma-separated integers, got {value!r}")
    if len(parts) != 4 or min(parts) < 1:
        raise argparse.ArgumentTypeError(f"dims must be four positive integers, got {value!r}")
    return parts


def _seed(value: str) -> int:
    if not (value.isascii() and value.isdigit()):
        raise argparse.ArgumentTypeError(f"expected a non-negative integer, got {value!r}")
    return int(value)


def _float_list(value: str) -> list[float]:
    try:
        numbers = [float(v) for v in value.split(",") if v.strip()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {value!r}")
    if not numbers:
        raise argparse.ArgumentTypeError(f"expected at least one number, got {value!r}")
    return numbers


def _add_common(p: argparse.ArgumentParser, seed: int = 12345) -> None:
    p.add_argument("--precision", choices=sorted(PRECISIONS), default="double")
    p.add_argument("--format", choices=("csv", "table", "json-lines"), default="table")
    p.add_argument("--seed", type=_seed, default=seed)
    p.add_argument("--out", help="write output to this file instead of stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="su3bench", description="su3 kernel verification, benchmarking, and modelling")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="compare the vector backend against the scalar reference")
    p.add_argument("--routines", type=_routine_list, default=list(ROUTINE_NAMES), help="comma-separated names or 'all'")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--tolerance-ulps", type=float, default=verify.DEFAULT_TOLERANCE_ULPS)
    p.add_argument("--inject-fault", action="store_true", help="negative control: perturb one component and expect failure")
    _add_common(p, seed=verify.DEFAULT_SEED)
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("bench", help="hot-loop timing of one or more kernels")
    p.add_argument("--routine", type=_routine_list, required=True, help="comma-separated names or 'all'")
    p.add_argument("--backend", choices=("scalar", "vector", "both"), default="vector")
    p.add_argument("--reps", type=int, help="calls to time (default: about 10^6 sites' worth)")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--batch-sites", type=int, default=1)
    p.add_argument("--min-region-ms", type=float, default=10.0)
    p.add_argument("--speedup", action="store_true", help="emit scalar/vector time ratios (implies --backend both)")
    _add_common(p)
    p.set_defaults(handler=_cmd_bench, mode="hot", dims=None, alignment="aligned")

    p = sub.add_parser("lattice-bench", help="streaming sweeps over aligned lattice fields")
    p.add_argument("--routine", type=_routine_list, required=True)
    p.add_argument("--backend", choices=("scalar", "vector", "both"), default="vector")
    p.add_argument("--dims", type=_dims, default=(4, 4, 4, 4), help="lattice extents, e.g. 8,4,4,4")
    p.add_argument("--alignment", choices=("aligned", "unaligned", "both"), default="aligned")
    p.add_argument("--sweeps", dest="reps", metavar="SWEEPS", type=int, default=1, help="minimum full-lattice sweeps to time")
    p.add_argument("--warmup", type=int, default=3)
    p.add_argument("--min-region-ms", type=float, default=10.0)
    _add_common(p)
    p.set_defaults(handler=_cmd_bench, mode="streaming", batch_sites=1, speedup=False)

    p = sub.add_parser("flops", help="per-invocation operation counts")
    p.add_argument("--routines", type=_routine_list, default=list(ROUTINE_NAMES))
    p.add_argument("--lane-ops", action="store_true", help="show packed-lane tallies instead of real-op counts")
    p.add_argument("--format", choices=("csv", "table", "json-lines"), default="table")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_flops)

    p = sub.add_parser("model", help="analytical speedup model and shipped reference data")
    p.add_argument("--scenario", help="time-components file: 'role.field = value' lines, or .csv")
    p.add_argument("--sweep", type=_float_list, help="overheads to add to both configurations")
    p.add_argument("--sweep-component", choices=perfmodel.SHARED_FIELDS, default="t_comm")
    p.add_argument("--bounds", action="store_true", help="per-routine mix fractions and lane bounds")
    p.add_argument("--mix", help="instruction-mix csv (default: the shipped table)")
    p.add_argument("--history", choices=("applications", "kernels", "alignment"), help="show shipped historical measurements")
    p.add_argument("--format", choices=("csv", "table", "json-lines"), default="table")
    p.add_argument("--out")
    p.set_defaults(handler=_cmd_model)

    return parser


def _cmd_verify(args) -> tuple[str, int]:
    report = verify.check_all(
        routines=args.routines,
        precisions=(args.precision,),
        trials=args.trials,
        seed=args.seed,
        tolerance_ulps=args.tolerance_ulps,
        inject_fault=args.inject_fault,
    )
    rows = [
        {**asdict(r), "worst_component": ":".join(map(str, r.worst_component)) or "-", "status": "pass" if r.passed else "FAIL"}
        for r in report.rows
    ]
    text = format_rows(rows, VERIFY_COLUMNS, args.format)
    return text, 0 if report.passed else 1


def _cmd_bench(args) -> tuple[str, int]:
    """`bench` and `lattice-bench`: one record per routine, backend and alignment."""
    backends = ("scalar", "vector") if args.speedup or args.backend == "both" else (args.backend,)
    alignments = ("aligned", "unaligned") if args.alignment == "both" else (args.alignment,)
    records = [
        bench.run(
            BenchConfig(
                routine=routine,
                backend=backend,
                precision=args.precision,
                mode=args.mode,
                repetitions=args.reps,
                warmup=args.warmup,
                batch_sites=args.batch_sites,
                dims=args.dims,
                alignment=alignment,
                seed=args.seed,
                min_region_s=args.min_region_ms / 1000.0,
            )
        )
        for routine in args.routine
        for backend in backends
        for alignment in alignments
    ]
    if args.speedup:
        return bench.format_speedups(bench.speedup_table(zip(records[::2], records[1::2])), args.format), 0
    return bench.format_records(records, args.format), 0


def _cmd_flops(args) -> tuple[str, int]:
    count, columns = (simd.lane_op_count, LANE_COLUMNS) if args.lane_ops else (flops.flop_count, FLOP_COLUMNS)
    rows = [{"routine": name, **asdict(count(name))} for name in args.routines]
    return format_rows(rows, columns, args.format), 0


def _cmd_model(args) -> tuple[str, int]:
    sections: list[str] = []
    if not (args.scenario or args.bounds or args.history):
        raise ModelInputError("nothing to do: pass --scenario, --bounds, or --history")
    if args.scenario:
        scenario = perfmodel.load_scenario(args.scenario)
        normal, accel = scenario["normal"], scenario["accel"]
        if args.sweep:
            curve = perfmodel.degradation_curve(normal, accel, args.sweep, component=args.sweep_component)
            rows = [
                {"overhead": o, "component": args.sweep_component, "predicted_speedup": s}
                for o, s in zip(args.sweep, curve)
            ]
            sections.append(format_rows(rows, ("overhead", "component", "predicted_speedup"), args.format))
        else:
            rows = [
                {
                    "normal_total_s": normal.total,
                    "accel_total_s": accel.total,
                    "predicted_speedup": perfmodel.predicted_speedup(normal, accel),
                }
            ]
            sections.append(format_rows(rows, ("normal_total_s", "accel_total_s", "predicted_speedup"), args.format))
    if args.bounds:
        mixes = perfmodel.load_instruction_mixes(args.mix)
        rows = []
        for mix in mixes:
            if not mix.recorded:
                continue
            rows.append(
                {
                    "routine": mix.routine,
                    "add": mix.add,
                    "mul": mix.mul,
                    "mov": mix.mov,
                    "shuffle_other": mix.shuffle_other,
                    "arith_fraction": perfmodel.arithmetic_fraction(mix),
                    "bound_x2": perfmodel.bound_from_mix(mix, 2),
                    "bound_x4": perfmodel.bound_from_mix(mix, 4),
                }
            )
        sections.append(
            format_rows(rows, ("routine", "add", "mul", "mov", "shuffle_other", "arith_fraction", "bound_x2", "bound_x4"), args.format)
        )
    if args.history == "applications":
        rows = perfmodel.application_speedup_rows()
        sections.append(format_rows(rows, ("mode", "precision", "lattice", "variant", "t_ref_s", "t_vec_s", "ratio"), args.format))
    elif args.history == "kernels":
        srows = [
            bench.speedup_row(t.routine, "double", t.reference_s, t.vector_s)
            for t in perfmodel.load_kernel_history()
            if t.vector_s is not None and t.reference_s is not None
        ]
        sections.append(bench.format_speedups(srows, args.format))
    elif args.history == "alignment":
        rows = [
            {"lattice": t.lattice, "aligned_s": t.aligned_s, "unaligned_s": t.unaligned_s, "ratio": t.unaligned_s / t.aligned_s}
            for t in perfmodel.load_alignment_history()
        ]
        sections.append(format_rows(rows, ("lattice", "aligned_s", "unaligned_s", "ratio"), args.format))
    return "\n".join(sections), 0


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        text, status = args.handler(args)
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(text)
    except ModelInputError as err:
        where = f" (line {err.line})" if err.line is not None else ""
        print(f"su3bench: error{where}: {err}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as err:
        print(f"su3bench: error: {err}", file=sys.stderr)
        return 2
    except MemoryError as err:
        print(f"su3bench: error: out of memory: {err}", file=sys.stderr)
        return 2
    if not args.out:
        sys.stdout.write(text)
    return status


if __name__ == "__main__":
    raise SystemExit(main())
