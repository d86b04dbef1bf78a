"""Timing harness for the su3 kernels.

Methodology: monotonic perf_counter timestamps around a repetition loop,
after warmup repetitions (default 3) fault in code paths and data. The
default repetition count covers about 10^6 site-invocations (10^6 calls of
one site, 244 of a 4096-site batch, 15 sweeps of a 16^4 lattice). If the
timed region comes in under the minimum region length (default 10 ms, at
most 60 s) the repetition count is grown geometrically and the measurement
redone, up to 10^9 repetitions, so per-invocation figures never rest on a
handful of clock ticks; set min_region_s=0 to pin the repetition count
exactly. Repetition and warmup counts above 10^9 are rejected. `run` is
the one function that times. Hot mode re-applies the kernel to one seeded,
cache-resident batch; streaming mode sweeps site-major lattice fields, aligned
or 4 bytes off, so successive invocations walk through memory. A setting the
mode ignores is refused: `dims` or `alignment="unaligned"` in hot mode,
`batch_sites` other than 1 in streaming mode. One measurement runs at a time
(a module lock refuses concurrent entry) and the process is pinned to a
single cpu for the duration where the platform allows it. A configuration
whose operand, result and snapshot arrays would not fit in physical memory is
rejected before anything is allocated.

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
import os
import threading
import time
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field
from typing import Iterable

import numpy as np

from .backends import BACKEND_NAMES, get_backend
from .flops import flop_count
from .lattice import Lattice4D, SiteBuffer
from .simd import LANES, capability
from .types import OPERAND_SHAPES, check_fits, dtype_for, random_operands, routine_spec

_active = threading.Lock()
# A configuration's bounds, so that no run is open-ended: at most _REPS_CAP
# repetitions (and warmup calls), and a minimum region of at most
# MAX_REGION_S seconds, which the repetition count grows to meet.
_REPS_CAP = 1_000_000_000
MAX_REGION_S = 60.0
# The default repetition count covers about this many site-invocations.
DEFAULT_SITES = 1_000_000

LANE_BOUND = {precision: float(lanes) for precision, lanes in LANES.items()}

CSV_COLUMNS = ("routine", "backend", "precision", "mode", "alignment", "reps", "elapsed_s", "invocations_per_s", "flops_per_s")
SPEEDUP_COLUMNS = ("routine", "precision", "mode", "alignment", "t_ref_s", "t_vec_s", "ratio", "lane_bound", "anomalous")


@dataclass
class BenchConfig:
    """One measurement's knobs; validated on construction."""

    routine: str
    backend: str = "vector"
    precision: str = "double"
    mode: str = "hot"
    repetitions: int | None = None  # None: about DEFAULT_SITES site-invocations
    warmup: int = 3
    batch_sites: int = 1
    dims: tuple[int, int, int, int] | None = None
    alignment: str = "aligned"
    seed: int = 12345
    min_region_s: float = 0.010

    def __post_init__(self) -> None:
        routine_spec(self.routine)
        if self.backend not in BACKEND_NAMES:
            raise ValueError(f"unknown backend {self.backend!r}; expected one of {BACKEND_NAMES}")
        dtype_for(self.precision)
        if self.mode not in ("hot", "streaming"):
            raise ValueError(f"mode must be 'hot' or 'streaming', got {self.mode!r}")
        if self.alignment not in ("aligned", "unaligned"):
            raise ValueError(f"alignment must be 'aligned' or 'unaligned', got {self.alignment!r}")
        if not _count(self.warmup) or not 0 <= self.warmup <= _REPS_CAP:
            raise ValueError(f"warmup must be an integer from 0 to {_REPS_CAP}")
        if not _count(self.batch_sites) or self.batch_sites < 1:
            raise ValueError("batch_sites must be an integer >= 1")
        if not 0 <= self.min_region_s <= MAX_REGION_S:
            raise ValueError(f"min_region_s must be from 0 to {MAX_REGION_S:g} seconds")
        if self.mode == "streaming":
            if self.dims is None:
                raise ValueError("streaming mode requires lattice dims")
            if self.batch_sites != 1:
                raise ValueError("batch_sites is for hot mode; a streaming call sweeps the whole lattice")
            self.dims = Lattice4D.from_dims(self.dims).dims
        elif self.dims is not None:
            raise ValueError("dims is for streaming mode; hot mode times one batch of batch_sites")
        elif self.alignment != "aligned":
            raise ValueError("alignment='unaligned' is for streaming mode; hot operands are not offset")
        if self.repetitions is None:
            self.repetitions = max(1, DEFAULT_SITES // _sites_per_call(self))
        if not _count(self.repetitions) or not 1 <= self.repetitions <= _REPS_CAP:
            raise ValueError(f"repetitions must be an integer from 1 to {_REPS_CAP}")
        check_fits(self.routine, self.precision, _sites_per_call(self), 1)


def _count(value) -> bool:
    """Whether `value` is an int that is not a bool."""
    return isinstance(value, int) and not isinstance(value, bool)


def _sites_per_call(config: BenchConfig) -> int:
    """The sites one timed call runs over: the batch, or the whole lattice."""
    return config.batch_sites if config.mode == "hot" else Lattice4D.from_dims(config.dims).volume


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
        # In float, clamped to the cap before int().
        grown = reps * min_region_s / max(elapsed, 1e-9) * 1.25 + 1
        reps = int(min(max(2 * reps, grown), _REPS_CAP))


def _operands(config: BenchConfig) -> tuple[list[np.ndarray], np.ndarray | None]:
    """The seeded operands of one timed call and its result array (None for
    the in-place routine): a `random_operands` batch in hot mode; in
    streaming mode `SiteBuffer` fields, with a fixed 0-d real factor for a
    scalar operand, which the dispatchers take."""
    spec = routine_spec(config.routine)
    dt = dtype_for(config.precision)
    if config.mode == "hot":
        operands = random_operands(config.routine, config.seed, config.precision, batch=config.batch_sites)
        return operands, None if spec.in_place else np.empty((config.batch_sites,) + OPERAND_SHAPES[spec.result], dt)
    fields = {f"op{i}": kind for i, kind in enumerate(spec.operands) if kind != "scalar"}
    if not spec.in_place:
        fields["result"] = spec.result
    buf = SiteBuffer(Lattice4D.from_dims(config.dims), fields, config.precision, aligned=config.alignment == "aligned")
    buf.randomize(config.seed)
    operands = [np.array(0.5, dt) if kind == "scalar" else buf[f"op{i}"] for i, kind in enumerate(spec.operands)]
    return operands, buf.arrays.get("result")


def run(config: BenchConfig) -> TimingRecord:
    """Time `config`'s kernel. Under the module lock and a cpu pin: build the
    operands, warm up, time the region, take the final digest. Each call is
    one batch_apply over ``_sites_per_call`` sites."""
    spec = routine_spec(config.routine)
    backend = get_backend(config.backend)
    with _exclusive(), _pinned() as cpu:
        operands, out = _operands(config)
        watched = operands[0] if spec.in_place else out
        snapshot = watched.copy() if spec.in_place else None

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
            mode=config.mode,
            alignment=config.alignment,
            invocations=reps * _sites_per_call(config),
            elapsed_s=elapsed,
            flops_per_invocation=flop_count(config.routine).total,
            output_digest=digest,
            environment=_environment(cpu),
            config=config,
        )


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
    return format_rows([asdict(r) for r in rows], SPEEDUP_COLUMNS, style)
