"""The benchmark's workloads.

An operation ("op") is one timed call into su3bench. Each workload runs its
ops in fixed rounds; a round covers every routine, so every measurement is
made of whole rounds. Inputs come from the seed alone. In-place operands are
restored from a snapshot before each op, and outputs are checked after it,
both outside the timed call.

verify_sweep    verify.check_routine for all 15 routines in both precisions
                at a fixed trial count; one op is one call.
hot_site        backend.apply on one resident operand set (double), scalar
                and vector backends, all 15 routines; one op is one call.

Whole-field vector sweeps are not an end-to-end workload: on a shared host
their throughput moved by 15-40% between and within runs of the same code,
on 8^4, 12^4 and 16^4 fields alike, more than any bound allows. The traced
layer profile (layers.py) still times them.
"""
from __future__ import annotations

import math
import time
from array import array

import numpy as np
from su3bench import (
    OPERAND_SHAPES,
    ROUTINE_NAMES,
    ROUTINES,
    check_routine,
    dtype_for,
    get_backend,
    random_operands,
    ulp_error,
)
from su3bench import verify as verify_module
from su3bench.verify import DEFAULT_TOLERANCE_ULPS

from spans import call, timed

PRECISIONS = ("double", "single")
VERIFY_TRIALS = 128
KERNEL_MODULE = {"scalar": "scalar", "vector": "simd"}
MIN_ROUNDS = 100  # a p90 over rounds keeps at least ten rounds beyond it
KEEP = 0.1
MIN_KEPT = 4


class Sample:
    """Per-op durations and failure count for one measured stretch.

    Rounds are whole, so the k-th op of every round is the same op type.
    The timings use the fastest tenth (at least MIN_KEPT) of each op type's
    repetitions: on a shared host, CPU speed drops by up to ~1.8x for
    seconds at a time under load from other tenants, and the share of a run
    spent slowed varies from run to run; the fastest repetitions are the
    ones that load disturbed least. Keeping as many of each type keeps the
    mix. Slowdowns that hit fewer than nine in ten repetitions of an op,
    whatever their cause, do not show in them; round_us shows them.
    """

    def __init__(self, ops_per_round: int, sites_per_op: int) -> None:
        self.ops_per_round = ops_per_round
        self.sites_per_op = sites_per_op
        self.ns = array("q")
        self.failed = 0

    @property
    def attempted(self) -> int:
        return len(self.ns)

    @property
    def rounds(self) -> int:
        return len(self.ns) // self.ops_per_round

    def _reps(self) -> np.ndarray:
        return np.asarray(self.ns, dtype=np.float64).reshape(-1, self.ops_per_round)

    def kept_ns(self) -> np.ndarray:
        """The fastest repetitions of each op type, one column per type."""
        reps = self._reps()
        return np.sort(reps, axis=0)[: kept_count(len(reps))]

    def round_us(self) -> np.ndarray:
        """Mean latency of one op in each round, in microseconds."""
        return self._reps().mean(axis=1) / 1e3

    def sites_per_s(self) -> float:
        kept = self.kept_ns()
        return kept.size * self.sites_per_op / (kept.sum() / 1e9)


def kept_count(repetitions: int) -> int:
    """How many of an op's fastest repetitions the timings use."""
    return min(repetitions, max(MIN_KEPT, math.ceil(KEEP * repetitions)))


def same_bits(a, b) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def perturbed(arr: np.ndarray) -> np.ndarray:
    """A copy of `arr` with its first component moved by one ulp."""
    out = np.array(arr, copy=True)
    flat = out.reshape(-1)
    flat[0] = np.nextafter(flat[0], np.inf)
    return out


class HotSite:
    name = "hot_site"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.backends = {kind: get_backend(kind) for kind in KERNEL_MODULE}
        self.ops: list[tuple] = []
        self.ops_per_round = len(ROUTINE_NAMES) * len(KERNEL_MODULE)
        self.sites_per_op = 1

    def build(self, tracer=None) -> None:
        rng = np.random.default_rng([self.seed, 3])
        self.ops = []
        for routine in ROUTINE_NAMES:
            spec = ROUTINES[routine]
            operands = call(tracer, "types", "random_operands", random_operands, routine, rng, "double")
            snapshot = operands[0].copy() if spec.in_place else None
            outs = {kind: np.empty(OPERAND_SHAPES[spec.result], dtype=operands[0].dtype) for kind in KERNEL_MODULE}
            self.ops.append((routine, operands, snapshot, outs))

    def invoke(self, kind: str, op, tracer=None, direct: bool = False):
        """Restore, then time one call; returns (output, ns).

        direct=True calls the backend's KERNELS entry instead of apply, to
        separate the cost of dispatch.
        """
        routine, operands, snapshot, outs = op
        fn = self.backends[kind].kernels[routine] if direct else self.backends[kind].apply
        args = operands if direct else (routine, *operands)
        name = "kernel" if direct else "apply"
        if snapshot is not None:
            np.copyto(operands[0], snapshot)
            result, ns = timed(tracer, KERNEL_MODULE[kind], name, fn, *args)
            return result.copy(), ns
        return timed(tracer, KERNEL_MODULE[kind], name, fn, *args, out=outs[kind])

    def round(self, sample: Sample, tracer=None) -> None:
        for op in self.ops:
            results = []
            for kind in KERNEL_MODULE:
                result, ns = self.invoke(kind, op, tracer)
                sample.ns.append(ns)
                results.append(result)
            if not same_bits(*results):
                sample.failed += 2

    def negative_control(self) -> bool:
        op = self.ops[0]
        reference, _ = self.invoke("scalar", op)
        candidate, _ = self.invoke("vector", op)
        return same_bits(reference, candidate) and not same_bits(reference, perturbed(candidate))


def replay_operands(tracer, routine: str, precision: str, trials: int, seed: int) -> list:
    """The operands check_routine draws for these arguments."""
    dt = dtype_for(precision)
    rng = np.random.default_rng([seed, ROUTINE_NAMES.index(routine), dt.itemsize])
    return call(tracer, "types", "random_operands", random_operands, routine, rng, precision, batch=trials)


def replay_check(tracer, routine: str, precision: str, trials: int, seed: int) -> float:
    """check_routine split at its public calls, so each layer gets a span.

    random_operands -> scalar.batch_apply -> simd.batch_apply -> ulp_error,
    with the same operand stream and error floor as check_routine; returns
    the worst error in ulps. replay_agrees checks it against check_routine.
    """
    spec = ROUTINES[routine]
    operands = replay_operands(tracer, routine, precision, trials, seed)
    results = []
    for kind, module in KERNEL_MODULE.items():
        ops = [operands[0].copy(), *operands[1:]] if spec.in_place else operands
        results.append(np.asarray(call(tracer, module, "batch_apply", get_backend(kind).batch_apply, routine, ops)))
    reference, candidate = results
    floor = np.abs(reference.reshape(trials, -1)).max(axis=1).reshape((trials,) + (1,) * (reference.ndim - 1))
    err = call(tracer, "verify", "ulp_error", ulp_error, candidate, reference, scale_floor=floor)
    return float(err.max())


def replay_agrees(seed: int) -> bool:
    """Whether replay_check draws the same operands as check_routine and
    finds the same max_ulp, for every routine and precision at `seed`.

    Untimed, once per run. check_routine's operands are recorded by
    wrapping the random_operands that su3bench.verify calls, for the
    duration of these calls only.
    """
    drawn = []

    def recording(*args, **kwargs):
        drawn.append(random_operands(*args, **kwargs))
        return drawn[-1]

    cases = [(routine, precision) for precision in PRECISIONS for routine in ROUTINE_NAMES]
    verify_module.random_operands = recording
    try:
        rows = [check_routine(routine, precision, VERIFY_TRIALS, seed) for routine, precision in cases]
    finally:
        verify_module.random_operands = random_operands
    return len(drawn) == len(cases) and all(
        all(same_bits(a, b) for a, b in zip(replay_operands(None, *case, VERIFY_TRIALS, seed), ops, strict=True))
        and replay_check(None, *case, VERIFY_TRIALS, seed) == row.max_ulp
        for case, ops, row in zip(cases, drawn, rows)
    )


class VerifySweep:
    name = "verify_sweep"

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.rounds = 0
        self.ops_per_round = len(ROUTINE_NAMES) * len(PRECISIONS)
        self.sites_per_op = VERIFY_TRIALS

    def build(self, tracer=None) -> None:
        """Nothing to set up: check_routine draws its own operands."""

    def round(self, sample: Sample, tracer=None) -> None:
        # Each round checks fresh operands; the seed fixes all of them.
        seed = self.seed * 100_000 + self.rounds
        self.rounds += 1
        for precision in PRECISIONS:
            for routine in ROUTINE_NAMES:
                if tracer is None:
                    row, ns = timed(None, "verify", "check_routine", check_routine, routine, precision, VERIFY_TRIALS, seed)
                    max_ulp = row.max_ulp
                else:
                    max_ulp, ns = timed(tracer, "verify", "check_routine", replay_check, tracer, routine, precision, VERIFY_TRIALS, seed)
                sample.ns.append(ns)
                if not max_ulp <= DEFAULT_TOLERANCE_ULPS:
                    sample.failed += 1

    def negative_control(self) -> bool:
        row = check_routine(ROUTINE_NAMES[0], "double", VERIFY_TRIALS, self.seed, inject_fault=True)
        return not row.max_ulp <= DEFAULT_TOLERANCE_ULPS


WORKLOADS = {cls.name: cls for cls in (VerifySweep, HotSite)}


def measure(workload, seconds: float, tracer=None, pauses=()) -> Sample:
    """Run whole rounds until `seconds` of wall time and MIN_ROUNDS rounds
    have passed. Each of `pauses` is called once between rounds, untimed,
    at evenly spaced times over the stretch."""
    sample = Sample(workload.ops_per_round, workload.sites_per_op)
    start = time.perf_counter()
    due = [start + seconds * (i + 1) / (len(pauses) + 1) for i in range(len(pauses))]
    pending = list(pauses)
    while True:
        workload.round(sample, tracer)
        now = time.perf_counter()
        if pending and now >= due[len(pauses) - len(pending)]:
            pending.pop(0)()
        elif now >= start + seconds and sample.rounds >= MIN_ROUNDS and not pending:
            return sample
