"""Per-layer metrics, measured in the traced run.

Every traced run, whatever its workload, ends with the same traced profile,
so each reports every per-layer metric:

simd      ns per site of each routine x precision over 16^4 site-major
          fields (median of PROFILE_SWEEPS sweeps), and from those the mix's
          GFLOP/s and GB/s; flops per byte is computed, not timed.
simd, scalar, backends
          us per call of each routine at batch 1 (double), called directly
          through KERNELS; dispatch cost is the time of apply minus that of
          the direct call, averaged over the routines.
verify, types, scalar
          each check_routine replayed through its public parts
          (random_operands -> scalar.batch_apply -> simd.batch_apply ->
          ulp_error), so each part gets its own span.
lattice, flops
          field allocation and randomisation time, flop_table time, and the
          computed field bytes and flops per site of one mix round.
bench     per-invocation time of bench.run at batch 1 over the outside
          timing of the same routine's vector apply.

Repeated timings of one call are reduced with fast_median. <module>.busy_s
is the module's self time over the whole traced part of the run (the traced
workload stretch plus this profile). The benchmark sees calls only from
outside, so the dispatch share of each apply/batch_apply span (calls x
dispatch cost) is moved from the kernel module to backends.

Not measured: perfmodel (pure arithmetic on a handful of floats), cli
(argparse over the same functions), validation (debug-only, off by default).
"""
from __future__ import annotations

import hashlib
import math
import statistics

import numpy as np
from su3bench import (
    OPERAND_SHAPES,
    ROUTINE_NAMES,
    ROUTINES,
    Lattice4D,
    SiteBuffer,
    bench,
    dtype_for,
    flop_count,
    get_backend,
)

from spans import timed
from workloads import (
    KERNEL_MODULE,
    PRECISIONS,
    VERIFY_TRIALS,
    HotSite,
    kept_count,
    perturbed,
    replay_check,
    same_bits,
)

LATTICE_DIMS = (16, 16, 16, 16)
CHECK_SITES = 16  # sites per sweep compared against the scalar reference
PROFILE_SWEEPS = 3
HOT_CALLS = 300
RIG_ROUTINES = ("mult_su3_mat_vec", "mult_su3_nn", "mult_su3_mat_vec_sum_4dir")
RIG_REPETITIONS = 2000
MODULES = ("simd", "scalar", "backends", "verify", "types", "lattice", "flops", "bench")


def fast_median(ns) -> float:
    """Median of the fastest repetitions of one call, as workloads.Sample
    keeps them: the call's cost with the least outside load on the host."""
    return statistics.median(sorted(ns)[: kept_count(len(ns))])


def digest(arr: np.ndarray) -> str:
    """Digest of a field in canonical site-major order."""
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def site_bytes(routine: str, precision: str) -> int:
    """Bytes one site reads plus writes, computed from OPERAND_SHAPES.

    A scalar factor is one value for the whole sweep, not a per-site read.
    """
    spec = ROUTINES[routine]
    per_object = lambda kind: math.prod(OPERAND_SHAPES[kind]) * dtype_for(precision).itemsize  # noqa: E731
    return sum(per_object(kind) for kind in spec.operands if kind != "scalar") + per_object(spec.result)


def _field_names(spec) -> tuple[list[str | None], str]:
    """Lattice field for each operand and for the result.

    Routines share fields by operand kind; the in-place target has its own
    field so it can be restored from a snapshot.
    """
    seen: dict[str, int] = {}
    names: list[str | None] = []
    for i, kind in enumerate(spec.operands):
        if kind == "scalar":
            names.append(None)
        elif spec.in_place and i == 0:
            names.append("target")
        else:
            names.append(f"{kind}{seen.get(kind, 0)}")
            seen[kind] = seen.get(kind, 0) + 1
    return names, ("target" if spec.in_place else f"out_{spec.result}")


def _lattice_fields() -> dict[str, str]:
    fields: dict[str, str] = {}
    for spec in ROUTINES.values():
        names, result = _field_names(spec)
        for name, kind in zip(names + [result], spec.operands + (spec.result,)):
            if name is not None:
                fields[name] = kind
    return fields


LATTICE_FIELDS = _lattice_fields()


def lattice_field_bytes() -> int:
    """Bytes of all lattice fields in both precisions, computed from OPERAND_SHAPES."""
    volume = math.prod(LATTICE_DIMS)
    return sum(
        volume * math.prod(OPERAND_SHAPES[kind]) * dtype_for(p).itemsize for p in PRECISIONS for kind in LATTICE_FIELDS.values()
    )


def computed_counts() -> dict[str, int]:
    """Counts derived from the package; they must repeat exactly between runs."""
    return {
        "mix_flops_per_site": sum(flop_count(r).total for r in ROUTINE_NAMES) * len(PRECISIONS),
        "mix_bytes_per_site": sum(site_bytes(r, p) for r in ROUTINE_NAMES for p in PRECISIONS),
        "field_bytes": lattice_field_bytes(),
    }


class LatticeSweeps:
    """Vector batch_apply sweeps of all 15 routines in both precisions over
    16^4 site-major SiteBuffer fields; one op is one whole-field sweep.

    Each sweep is checked after it, outside the timed call: CHECK_SITES
    seeded sites bitwise against scalar.apply, and the whole output's digest
    against the one its first sweep gave. Routines with the same result kind
    share an output field, so a check must follow its own sweep.
    """

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.backend = get_backend("vector")
        self.reference = get_backend("scalar")
        self.lattice = Lattice4D.from_dims(LATTICE_DIMS)
        self.ops: list[tuple] = []
        self.alloc_ns = self.randomize_ns = 0
        self.digests: dict[str, str] = {}
        self._check_rng = np.random.default_rng([seed, 1, 1])

    def build(self, tracer=None) -> None:
        rng = np.random.default_rng([self.seed, 1])
        for precision in PRECISIONS:
            buf, ns = timed(tracer, "lattice", "SiteBuffer", SiteBuffer, self.lattice, LATTICE_FIELDS, precision=precision)
            self.alloc_ns += ns
            _, ns = timed(tracer, "lattice", "randomize", buf.randomize, int(rng.integers(2**32)))
            self.randomize_ns += ns
            snapshot = buf["target"].copy()
            factor = dtype_for(precision).type(rng.uniform(-1.0, 1.0))
            for routine in ROUTINE_NAMES:
                spec = ROUTINES[routine]
                names, result = _field_names(spec)
                operands = [factor if n is None else buf[n] for n in names]
                self.ops.append((routine, precision, operands, buf[result], snapshot if spec.in_place else None))

    def sweep(self, op, tracer=None) -> int:
        """Restore, then time one whole-field sweep; returns ns."""
        routine, _, operands, out, snapshot = op
        if snapshot is not None:
            np.copyto(operands[0], snapshot)
            _, ns = timed(tracer, "simd", "batch_apply", self.backend.batch_apply, routine, operands)
        else:
            _, ns = timed(tracer, "simd", "batch_apply", self.backend.batch_apply, routine, operands, out=out)
        return ns

    def _reference(self, op, site: int) -> np.ndarray:
        routine, _, operands, out, snapshot = op
        args = [x[site] if np.ndim(x) else x for x in operands]
        if snapshot is not None:
            args[0] = snapshot[site].copy()
            return self.reference.apply(routine, *args)
        return self.reference.apply(routine, *args, out=np.empty_like(out[site]))

    def sample_sites(self) -> np.ndarray:
        return self._check_rng.integers(0, self.lattice.volume, CHECK_SITES)

    def check(self, op, sites=None) -> bool:
        """Compare sampled sites bitwise against scalar.apply and the output's
        digest against its first sweep's."""
        routine, precision, _, out, _ = op
        sites = self.sample_sites() if sites is None else sites
        ok = all(same_bits(self._reference(op, int(s)), out[s]) for s in sites)
        now = digest(out)
        return ok and self.digests.setdefault(f"{routine}.{precision}", now) == now

    def negative_control(self) -> bool:
        """Move one component of a checked output by one ulp, first at a
        sampled site, then at a site outside the sample, and require check
        to flag both; the output is restored after each."""
        op = next(op for op in self.ops if op[4] is None)
        out = op[3]
        self.sweep(op)  # routines share output fields; recompute this one's
        sites = self.sample_sites()
        sampled = set(sites.tolist())
        outside = next(s for s in range(self.lattice.volume) if s not in sampled)
        clean = self.check(op, sites)
        caught = True
        for site in (int(sites[0]), outside):
            kept = out[site].copy()
            out[site] = perturbed(kept)
            caught = caught and not self.check(op, sites)
            out[site] = kept
        return clean and caught and self.check(op, sites)


def _lattice_metrics(lattice: LatticeSweeps, tracer) -> tuple[dict[str, float], int]:
    volume = lattice.lattice.volume
    metrics: dict[str, float] = {}
    flops = nbytes = seconds = 0.0
    failed = 0
    for op in lattice.ops:
        routine, precision = op[0], op[1]
        sweeps = []
        for _ in range(PROFILE_SWEEPS):
            sweeps.append(lattice.sweep(op, tracer))
            failed += not lattice.check(op)
        ns = statistics.median(sweeps)
        metrics[f"simd.ns_per_site.{routine}.{precision}"] = ns / volume
        flops += flop_count(routine).total * volume
        nbytes += site_bytes(routine, precision) * volume
        seconds += ns / 1e9
    metrics["simd.gflops"] = flops / seconds / 1e9
    metrics["simd.gbytes_per_s"] = nbytes / seconds / 1e9
    metrics["simd.flops_per_byte"] = flops / nbytes
    metrics["lattice.alloc_s"] = lattice.alloc_ns / 1e9
    metrics["lattice.randomize_s"] = lattice.randomize_ns / 1e9
    return metrics, failed


def _hot_metrics(hot: HotSite, tracer) -> tuple[dict[str, float], dict[str, float], int]:
    metrics: dict[str, float] = {}
    failed = 0
    apply_us: dict[str, dict[str, float]] = {kind: {} for kind in KERNEL_MODULE}
    dispatch: dict[str, list[float]] = {kind: [] for kind in KERNEL_MODULE}
    for op in hot.ops:
        routine = op[0]
        for kind, module in KERNEL_MODULE.items():
            direct, applied = [], []
            for _ in range(HOT_CALLS):  # alternate so drift hits both alike
                direct_out, ns = hot.invoke(kind, op, tracer, direct=True)
                direct_out = direct_out.copy()
                direct.append(ns)
                apply_out, ns = hot.invoke(kind, op, tracer)
                applied.append(ns)
            failed += not same_bits(direct_out, apply_out)
            direct_us = fast_median(direct) / 1e3
            apply_us[kind][routine] = fast_median(applied) / 1e3
            metrics[f"{module}.us_per_call.{routine}"] = direct_us
            dispatch[kind].append(apply_us[kind][routine] - direct_us)
    dispatch_us = {kind: statistics.fmean(values) for kind, values in dispatch.items()}
    for kind, us in dispatch_us.items():
        metrics[f"backends.dispatch_us.{kind}"] = us
    for routine in RIG_ROUTINES:
        config = bench.BenchConfig(routine=routine, backend="vector", precision="double", mode="hot", batch_sites=1,
                                   repetitions=RIG_REPETITIONS, min_region_s=0, seed=hot.seed)
        record, _ = timed(tracer, "bench", "run", bench.run, config)
        metrics[f"bench.rig_over_direct.{routine}"] = record.seconds_per_invocation * 1e6 / apply_us["vector"][routine]
    return metrics, dispatch_us, failed


def _verify_metrics(seed: int, tracer) -> dict[str, float]:
    mark = tracer.mark()
    max_ulp = 0.0
    for precision in PRECISIONS:
        for routine in ROUTINE_NAMES:
            ulp, _ = timed(tracer, "verify", "check_routine", replay_check, tracer, routine, precision, VERIFY_TRIALS, seed)
            max_ulp = max(max_ulp, ulp)
    return {
        "verify.ulp_error_s": tracer.since(mark, "verify", "ulp_error"),
        "verify.scalar_share": tracer.since(mark, "scalar", "batch_apply") / tracer.since(mark, "verify", "check_routine"),
        "verify.max_ulp": max_ulp,
        "types.random_operands_s": tracer.since(mark, "types", "random_operands"),
    }


def profile(workload, tracer, seed: int, flop_table_s: float) -> tuple[dict[str, float], int, LatticeSweeps]:
    """Run the traced layer profile; returns the per-layer metrics, the
    number of its calls whose output failed a check, and its lattice sweeps.

    Reuses the workload's own operands where it has them.
    """
    lattice = LatticeSweeps(seed)
    lattice.build(tracer)
    if isinstance(workload, HotSite):
        hot = workload
    else:
        hot = HotSite(seed)
        hot.build(tracer)
    metrics, lattice_failed = _lattice_metrics(lattice, tracer)
    hot_metrics, dispatch_us, hot_failed = _hot_metrics(hot, tracer)
    metrics.update(hot_metrics)
    metrics.update(_verify_metrics(seed, tracer))
    counts = computed_counts()
    metrics["lattice.field_bytes"] = counts["field_bytes"]
    metrics["flops.mix_flops_per_site"] = counts["mix_flops_per_site"]
    metrics["flops.flop_table_s"] = flop_table_s

    busy = dict(tracer.busy_ns)
    busy["backends"] = 0.0
    backend_of = {module: kind for kind, module in KERNEL_MODULE.items()}
    for (module, name), calls in tracer.calls.items():
        if name in ("apply", "batch_apply"):
            moved = calls * max(dispatch_us[backend_of[module]], 0.0) * 1e3
            busy[module] -= moved
            busy["backends"] += moved
    for module in MODULES:
        metrics[f"{module}.busy_s"] = busy.get(module, 0.0) / 1e9
    return metrics, lattice_failed + hot_failed, lattice
