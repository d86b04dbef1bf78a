"""Timing harness for the su3 kernels.

Methodology: monotonic perf_counter timestamps around a repetition loop,
after warmup repetitions (default 3) fault in code paths and data. If the
timed region comes in under the minimum region length (default 10 ms) the
repetition count is grown geometrically and the measurement redone, so
per-invocation figures never rest on a handful of clock ticks; set
min_region_s=0 to pin the repetition count exactly. Hot mode re-applies the
kernel to the same cache-resident operands; streaming mode sweeps site-major
lattice fields so successive invocations walk through memory. One
measurement runs at a time (a module lock refuses concurrent entry) and the
process is pinned to a single cpu for the duration where the platform allows
it. A configuration whose operand, result and snapshot arrays would not fit
in physical memory is rejected before anything is allocated.

The output digest hashes the result of one kernel call on the seeded
operands, so it does not depend on how many repetitions ran and scalar and
vector runs of one seed hash alike. In-place routines keep applying to the
same operand while timed, so their target is copied to a snapshot before
warmup; after the timed region it is restored from that snapshot and the
call is made once more, untimed, before hashing.

Reported figures: elapsed seconds for the whole region, invocations per
second, and real floating-point operations per second (from the instrumented
per-invocation counts). The CSV `reps` column is the number of timed kernel
invocations, i.e. repetitions times the per-call batch.
"""
from __future__ import annotations

import hashlib
import json
import math
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable

import numpy as np

from .backends import get_backend
from .flops import flop_count
from .lattice import Lattice4D, SiteBuffer
from .simd import capability
from .types import OPERAND_SHAPES, dtype_for, random_operands, routine_spec

_active = threading.Lock()
_REPS_CAP = 1_000_000_000

LANE_BOUND = {"double": 2.0, "single": 4.0}

CSV_COLUMNS = ("routine", "backend", "precision", "mode", "alignment", "reps", "elapsed_s", "invocations_per_s", "flops_per_s")
SPEEDUP_COLUMNS = ("routine", "precision", "mode", "alignment", "t_ref_s", "t_vec_s", "ratio", "lane_bound", "anomalous")


@dataclass
class BenchConfig:
    """One measurement's knobs; validated on construction."""

    routine: str
    backend: str = "vector"
    precision: str = "double"
    mode: str = "hot"
    repetitions: int = 1_000_000
    warmup: int = 3
    batch_sites: int = 1
    dims: tuple[int, int, int, int] | None = None
    alignment: str = "aligned"
    seed: int = 12345
    min_region_s: float = 0.010

    def __post_init__(self) -> None:
        routine_spec(self.routine)
        get_backend(self.backend)
        dtype_for(self.precision)
        if self.mode not in ("hot", "streaming"):
            raise ValueError(f"mode must be 'hot' or 'streaming', got {self.mode!r}")
        if self.alignment not in ("aligned", "unaligned"):
            raise ValueError(f"alignment must be 'aligned' or 'unaligned', got {self.alignment!r}")
        if not isinstance(self.repetitions, int) or self.repetitions < 1:
            raise ValueError("repetitions must be a positive integer")
        if self.warmup < 0 or self.batch_sites < 1 or not 0 <= self.min_region_s < math.inf:
            raise ValueError("warmup must be >= 0, batch_sites >= 1, min_region_s finite and >= 0")
        if self.mode == "streaming":
            if self.dims is None:
                raise ValueError("streaming mode requires lattice dims")
            self.dims = Lattice4D.from_dims(self.dims).dims
        need, limit = _footprint_bytes(self), _physical_memory_bytes()
        if limit is not None and need > limit:
            raise ValueError(f"{self.routine} needs {need} bytes of operand and result arrays, more than the {limit} bytes of physical memory")


def _footprint_bytes(config: BenchConfig) -> int:
    """Bytes of the operand and result (or in-place snapshot) arrays of one run."""
    spec = routine_spec(config.routine)
    sites = config.batch_sites if config.mode == "hot" else Lattice4D.from_dims(config.dims).volume
    per_site = sum(math.prod(OPERAND_SHAPES[kind]) for kind in spec.operands + (spec.result,))
    return sites * per_site * dtype_for(config.precision).itemsize


def _physical_memory_bytes() -> int | None:
    try:
        return os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    except (AttributeError, ValueError, OSError):
        return None


@dataclass(frozen=True)
class TimingRecord:
    """One completed measurement."""

    routine: str
    backend: str
    precision: str
    mode: str
    alignment: str
    invocations: int
    elapsed_s: float
    flops_per_invocation: int
    output_digest: str
    environment: dict = field(repr=False)
    config: BenchConfig = field(repr=False)

    @property
    def seconds_per_invocation(self) -> float:
        return self.elapsed_s / self.invocations

    @property
    def invocations_per_s(self) -> float:
        return self.invocations / self.elapsed_s

    @property
    def flops_per_s(self) -> float:
        return self.flops_per_invocation * self.invocations / self.elapsed_s

    def to_row(self) -> dict:
        return {
            "routine": self.routine,
            "backend": self.backend,
            "precision": self.precision,
            "mode": self.mode,
            "alignment": self.alignment,
            "reps": self.invocations,
            "elapsed_s": self.elapsed_s,
            "invocations_per_s": self.invocations_per_s,
            "flops_per_s": self.flops_per_s,
        }


@contextmanager
def _exclusive():
    if not _active.acquire(blocking=False):
        raise RuntimeError("another benchmark is already running in this process")
    try:
        yield
    finally:
        _active.release()


@contextmanager
def _pinned():
    """Pin to one cpu for the measurement; restore the mask afterwards."""
    previous = None
    cpu = None
    try:
        previous = os.sched_getaffinity(0)
        cpu = min(previous)
        os.sched_setaffinity(0, {cpu})
    except (AttributeError, OSError):
        cpu = None
    try:
        yield cpu
    finally:
        if cpu is not None and previous is not None:
            try:
                os.sched_setaffinity(0, previous)
            except OSError:
                pass


def _environment(pinned_cpu) -> dict:
    return {
        "capability": capability(),
        "pinned_cpu": pinned_cpu,
        "clock_resolution_s": time.get_clock_info("perf_counter").resolution,
    }


def _digest(arr: np.ndarray) -> str:
    return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).hexdigest()[:16]


def _final_digest(call, watched: np.ndarray, snapshot: np.ndarray | None) -> str:
    """Digest of one call on the initial operands, however many calls came before."""
    if snapshot is not None:
        np.copyto(watched, snapshot)
        call()
    return _digest(watched)


def _timed_region(call, repetitions: int, min_region_s: float) -> tuple[int, float]:
    """Run `call` `repetitions` times; grow the count until the region is long enough."""
    reps = repetitions
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            call()
        elapsed = time.perf_counter() - t0
        if elapsed >= min_region_s or reps >= _REPS_CAP:
            return reps, elapsed
        grown = int(reps * min_region_s / max(elapsed, 1e-9) * 1.25) + 1
        reps = min(max(2 * reps, grown), _REPS_CAP)


def run_hot(config: BenchConfig) -> TimingRecord:
    """Time repeated application to one cache-resident operand set."""
    if config.mode != "hot":
        raise ValueError("run_hot requires a hot-mode config")
    spec = routine_spec(config.routine)
    backend = get_backend(config.backend)
    with _exclusive(), _pinned() as cpu:
        rng = np.random.default_rng(config.seed)
        operands = random_operands(config.routine, rng, config.precision, batch=config.batch_sites)
        if spec.in_place:
            watched = operands[0]
            snapshot = watched.copy()

            def call():
                backend.batch_apply(config.routine, operands)

        else:
            out = np.empty((config.batch_sites,) + OPERAND_SHAPES[spec.result], dtype=dtype_for(config.precision))
            watched, snapshot = out, None

            def call():
                backend.batch_apply(config.routine, operands, out=out)

        for _ in range(config.warmup):
            call()
        reps, elapsed = _timed_region(call, config.repetitions, config.min_region_s)
        digest = _final_digest(call, watched, snapshot)
        return TimingRecord(
            routine=config.routine,
            backend=config.backend,
            precision=config.precision,
            mode="hot",
            alignment=config.alignment,
            invocations=reps * config.batch_sites,
            elapsed_s=elapsed,
            flops_per_invocation=flop_count(config.routine).total,
            output_digest=digest,
            environment=_environment(cpu),
            config=config,
        )


def _streaming_fields(spec) -> dict[str, str]:
    fields = {f"op{i}": kind for i, kind in enumerate(spec.operands) if kind != "scalar"}
    if not spec.in_place:
        fields["result"] = spec.result
    return fields


def run_streaming(config: BenchConfig) -> TimingRecord:
    """Time whole-lattice sweeps over site-major fields."""
    if config.mode != "streaming":
        raise ValueError("run_streaming requires a streaming-mode config")
    spec = routine_spec(config.routine)
    backend = get_backend(config.backend)
    lat = Lattice4D.from_dims(config.dims)
    with _exclusive(), _pinned() as cpu:
        buf = SiteBuffer(lat, _streaming_fields(spec), precision=config.precision, aligned=config.alignment == "aligned")
        buf.randomize(config.seed)
        operands = []
        scalar_value = dtype_for(config.precision).type(0.5)  # fixed real factor for *_scalar_mult_* routines
        for i, kind in enumerate(spec.operands):
            operands.append(scalar_value if kind == "scalar" else buf[f"op{i}"])
        if spec.in_place:
            watched = operands[0]
            snapshot = watched.copy()

            def sweep():
                backend.batch_apply(config.routine, operands)

        else:
            out = buf["result"]
            watched, snapshot = out, None

            def sweep():
                backend.batch_apply(config.routine, operands, out=out)

        for _ in range(config.warmup):
            sweep()
        sweeps, elapsed = _timed_region(sweep, config.repetitions, config.min_region_s)
        digest = _final_digest(sweep, watched, snapshot)
        return TimingRecord(
            routine=config.routine,
            backend=config.backend,
            precision=config.precision,
            mode="streaming",
            alignment=config.alignment,
            invocations=sweeps * lat.volume,
            elapsed_s=elapsed,
            flops_per_invocation=flop_count(config.routine).total,
            output_digest=digest,
            environment=_environment(cpu),
            config=config,
        )


def run(config: BenchConfig) -> TimingRecord:
    return run_hot(config) if config.mode == "hot" else run_streaming(config)


@dataclass(frozen=True)
class SpeedupRow:
    """Reference-over-vector time ratio for one matched pair of records."""

    routine: str
    precision: str
    mode: str
    alignment: str
    t_ref_s: float
    t_vec_s: float
    ratio: float
    lane_bound: float
    anomalous: bool

    def to_row(self) -> dict:
        return {
            "routine": self.routine,
            "precision": self.precision,
            "mode": self.mode,
            "alignment": self.alignment,
            "t_ref_s": self.t_ref_s,
            "t_vec_s": self.t_vec_s,
            "ratio": self.ratio,
            "lane_bound": self.lane_bound,
            "anomalous": self.anomalous,
        }


def speedup_row(
    routine: str,
    precision: str,
    t_ref_s: float,
    t_vec_s: float,
    mode: str = "hot",
    alignment: str = "aligned",
) -> SpeedupRow:
    """Build one ratio row from per-invocation (or same-workload) times.

    A ratio beyond the packed-lane width (2 for double, 4 for single) cannot
    come from lane parallelism alone and is flagged anomalous rather than
    celebrated.
    """
    if t_ref_s <= 0 or t_vec_s <= 0:
        raise ValueError("times must be positive")
    try:
        bound = LANE_BOUND[precision]
    except KeyError:
        raise ValueError(f"unknown precision {precision!r}") from None
    ratio = t_ref_s / t_vec_s
    return SpeedupRow(
        routine=routine,
        precision=precision,
        mode=mode,
        alignment=alignment,
        t_ref_s=t_ref_s,
        t_vec_s=t_vec_s,
        ratio=ratio,
        lane_bound=bound,
        anomalous=ratio > bound,
    )


def speedup_table(pairs: Iterable[tuple[TimingRecord, TimingRecord]]) -> list[SpeedupRow]:
    """Ratio rows for (reference, vector) record pairs measured alike."""
    rows = []
    for ref, vec in pairs:
        if ref.backend != "scalar" or vec.backend != "vector":
            raise ValueError(f"expected (scalar, vector) records, got ({ref.backend}, {vec.backend})")
        for fld in ("routine", "precision", "mode", "alignment"):
            if getattr(ref, fld) != getattr(vec, fld):
                raise ValueError(f"records disagree on {fld}: {getattr(ref, fld)!r} vs {getattr(vec, fld)!r}")
        rows.append(
            speedup_row(
                ref.routine,
                ref.precision,
                ref.seconds_per_invocation,
                vec.seconds_per_invocation,
                mode=ref.mode,
                alignment=ref.alignment,
            )
        )
    return rows


def _cell(value) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        return format(value, ".9g")
    return str(value)


def format_rows(rows: list[dict], columns: tuple[str, ...], style: str = "table") -> str:
    """Render row dicts as 'csv', 'table', or 'json-lines' text."""
    if style == "csv":
        lines = [",".join(columns)]
        lines += [",".join(_cell(row[c]) for c in columns) for row in rows]
        return "\n".join(lines) + "\n"
    if style == "json-lines":
        return "".join(json.dumps({c: row[c] for c in columns}, sort_keys=False) + "\n" for row in rows)
    if style == "table":
        cells = [[_cell(row[c]) for c in columns] for row in rows]
        widths = [max(len(col), *(len(r[i]) for r in cells)) if cells else len(col) for i, col in enumerate(columns)]
        header = "  ".join(col.ljust(w) for col, w in zip(columns, widths))
        body = ["  ".join(r[i].ljust(w) for i, w in enumerate(widths)).rstrip() for r in cells]
        return "\n".join([header.rstrip()] + body) + "\n"
    raise ValueError(f"unknown format {style!r}; expected csv, table, or json-lines")


def format_records(records: Iterable[TimingRecord], style: str = "csv") -> str:
    return format_rows([r.to_row() for r in records], CSV_COLUMNS, style)


def format_speedups(rows: Iterable[SpeedupRow], style: str = "table") -> str:
    return format_rows([r.to_row() for r in rows], SPEEDUP_COLUMNS, style)
