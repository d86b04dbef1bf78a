"""Cross-backend equivalence checking with a ULP-denominated error metric.

Error metric: for candidate x and reference y,

    err = |x - y| / spacing(max(|x|, |y|, m))

evaluated componentwise in the comparison dtype, where m is the magnitude of
the largest reference component produced by the same operand set. Flooring
the denominator at one spacing of the result's own scale keeps the figure
meaningful when cancellation drives an individual component toward zero:
agreement is judged at the precision the computation actually carries, not
at the precision of a coincidentally tiny component.

Both backends evaluate each output component with one canonical association
(see the scalar backend), so measured errors are expected to be exactly
zero; the tolerance exists to catch any divergence.

``check_routine`` measures only the components where the two outputs
differ: an equal component (``-0.0`` and ``+0.0`` included) has error 0 by
definition, so floors are computed for the trials holding a difference and
``ulp_error`` runs on the differing components alone. The row it reports is
the one the metric gives over every component: the largest error (NaN
counting as largest) at its first occurrence in memory order, or 0 at
component 0 when nothing differs.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np

from .backends import get_backend
from .types import OPERAND_SHAPES, ROUTINE_NAMES, dtype_for, random_operands, routine_spec

DEFAULT_TOLERANCE_ULPS = 2.0
DEFAULT_TRIALS = 10_000
DEFAULT_SEED = 20020614


def ulp_error(candidate: np.ndarray, reference: np.ndarray, scale_floor: np.ndarray | float | None = None) -> np.ndarray:
    """Componentwise error in units of the reference-scale spacing."""
    candidate = np.asarray(candidate)
    reference = np.asarray(reference)
    if candidate.dtype != reference.dtype:
        raise ValueError(f"dtype mismatch: {candidate.dtype} vs {reference.dtype}")
    if candidate.shape != reference.shape:
        raise ValueError(f"shape mismatch: {candidate.shape} vs {reference.shape}")
    scale = np.maximum(np.abs(candidate), np.abs(reference))
    if scale_floor is not None:
        scale = np.maximum(scale, scale_floor)
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.abs(candidate - reference) / np.spacing(scale)
    return np.where(candidate == reference, 0.0, err)


@dataclass(frozen=True)
class EquivalenceRow:
    """Result of sweeping one routine at one precision."""

    routine: str
    precision: str
    trials: int
    seed: int
    tolerance_ulps: float
    max_ulp: float
    worst_trial: int
    worst_component: tuple[int, ...]

    @property
    def passed(self) -> bool:
        return self.max_ulp <= self.tolerance_ulps


def _check_sweep(trials: int, tolerance_ulps: float) -> None:
    if not isinstance(trials, (int, np.integer)) or trials < 0:
        raise ValueError(f"trials must be a non-negative integer, got {trials!r}")
    if not 0 <= tolerance_ulps < math.inf:
        raise ValueError(f"tolerance_ulps must be finite and >= 0, got {tolerance_ulps!r}")


def _route(backend_kind: str, routine: str, operands, in_place: bool):
    backend = get_backend(backend_kind)
    ops = [op.copy() if in_place and i == 0 else op for i, op in enumerate(operands)]
    return backend.batch_apply(routine, ops)


def check_routine(
    routine: str,
    precision: str = "double",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance_ulps: float = DEFAULT_TOLERANCE_ULPS,
    candidate: str = "vector",
    reference: str = "scalar",
    inject_fault: bool = False,
) -> EquivalenceRow:
    """Compare two backends on `trials` random operand sets of one routine."""
    _check_sweep(trials, tolerance_ulps)
    spec = routine_spec(routine)
    dt = dtype_for(precision)
    rng = np.random.default_rng([seed, ROUTINE_NAMES.index(routine), dt.itemsize])
    operands = random_operands(routine, rng, precision, batch=trials)
    ref = np.asarray(_route(reference, routine, operands, spec.in_place))
    cand = np.asarray(_route(candidate, routine, operands, spec.in_place))
    if inject_fault and trials:
        # Negative control: nudge one component far outside tolerance,
        # sized to the same scale the metric floors at.
        cand = cand.copy()
        scale0 = dt.type(max(float(np.abs(ref[0]).max()), 1.0))
        cand.reshape(-1)[0] += dt.type(64) * np.spacing(scale0)
    # Equal components have error 0, so only differing ones are measured.
    differ = np.flatnonzero(cand != ref)
    max_ulp, worst_flat = 0.0, 0
    if differ.size:
        per_trial = math.prod(ref.shape[1:])
        trial, of_trial = np.unique(differ // per_trial, return_inverse=True)
        floor = np.abs(ref.reshape(-1, per_trial)[trial]).max(axis=1)[of_trial]
        err = ulp_error(cand.reshape(-1)[differ], ref.reshape(-1)[differ], scale_floor=floor)
        k = int(np.argmax(err))
        # As over all components: the first largest error, or component 0
        # when every error is 0 (a difference far below the floor's spacing).
        if not err[k] == 0:
            max_ulp, worst_flat = float(err[k]), int(differ[k])
    if trials:
        worst = np.unravel_index(worst_flat, ref.shape)
        worst_trial, worst_component = int(worst[0]), tuple(int(k) for k in worst[1:])
    else:
        worst_trial, worst_component = -1, ()
    return EquivalenceRow(
        routine=routine,
        precision=precision,
        trials=trials,
        seed=seed,
        tolerance_ulps=tolerance_ulps,
        max_ulp=max_ulp,
        worst_trial=worst_trial,
        worst_component=worst_component,
    )


@dataclass(frozen=True)
class EquivalenceReport:
    rows: tuple[EquivalenceRow, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)

    def failures(self) -> list[EquivalenceRow]:
        return [row for row in self.rows if not row.passed]


def check_all(
    routines=None,
    precisions=("double", "single"),
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance_ulps: float = DEFAULT_TOLERANCE_ULPS,
    candidate: str = "vector",
    reference: str = "scalar",
    inject_fault: bool = False,
) -> EquivalenceReport:
    """Sweep a set of routines (default: all fifteen) over both precisions."""
    _check_sweep(trials, tolerance_ulps)
    names = list(routines) if routines else list(ROUTINE_NAMES)
    for name in names:
        routine_spec(name)
    t0 = time.perf_counter()
    rows = tuple(
        check_routine(
            name,
            precision=precision,
            trials=trials,
            seed=seed,
            tolerance_ulps=tolerance_ulps,
            candidate=candidate,
            reference=reference,
            inject_fault=inject_fault,
        )
        for precision in precisions
        for name in names
    )
    return EquivalenceReport(rows=rows, elapsed_s=time.perf_counter() - t0)
