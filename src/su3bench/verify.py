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

``check_routine`` draws each routine and precision's operands from its own
seed key, ``[seed, routine index, itemsize]``: ``random_operands`` draws the
bits ``np.random.default_rng(key)`` would, in the native module's one pass
where it is built (see ``native``), so no Generator is made per check.

``check_routine`` first asks the native module's ``equal`` whether the two
outputs are equal componentwise (see ``native``), the question numpy's
``not (cand != ref).any()`` answers: a NaN equals nothing, ``-0.0`` equals
``+0.0``. A passing check stops there, with no error measured and no index
located: every error is 0, so the row is ``max_ulp`` 0 at component 0, as
the metric over every component gives it. Any other answer (a difference,
or ``NotImplemented`` where the module is unavailable or does not take the
arrays) measures only the components where the two outputs differ: an
equal component has error 0 by definition, so floors are computed for the
trials holding a difference and ``ulp_error`` runs on the differing
components alone. The row it reports is the one the metric gives over
every component: the largest error (NaN counting as largest) at its first
occurrence in memory order, or 0 at component 0 when every error is 0;
only a nonzero error is located with ``np.unravel_index``.

Before anything is drawn, ``check_routine`` and ``check_all`` refuse
(``ValueError``) a case whose operands and two results would need more
bytes than the host's physical memory, the rule ``bench`` applies to its
runs: each array alone could pass the kernel's overcommit check while all
of them together do not fit, and the process would be killed partway
through the draw.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .backends import get_backend
from .types import ROUTINE_NAMES, check_fits, dtype_for, is_natural, random_operands, routine_spec

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


@dataclass(frozen=True, init=False)
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

    def __init__(self, routine: str, precision: str, trials: int, seed: int, tolerance_ulps: float,
                 max_ulp: float, worst_trial: int, worst_component: tuple[int, ...]) -> None:
        # The fields stored in the instance dict: a frozen dataclass's own
        # __init__ makes one object.__setattr__ call per field, and replacing
        # the dict whole costs more than filling the one the instance has.
        fields = self.__dict__
        fields["routine"] = routine
        fields["precision"] = precision
        fields["trials"] = trials
        fields["seed"] = seed
        fields["tolerance_ulps"] = tolerance_ulps
        fields["max_ulp"] = max_ulp
        fields["worst_trial"] = worst_trial
        fields["worst_component"] = worst_component

    @property
    def passed(self) -> bool:
        return self.max_ulp <= self.tolerance_ulps


def _check_sweep(trials: int, seed: int, tolerance_ulps: float) -> None:
    """Refuse a trial count or a seed that is not an integer >= 0 and a
    tolerance that is not a finite number >= 0; a bool is none of them."""
    if type(trials) is int and type(seed) is int and type(tolerance_ulps) is float \
            and trials >= 0 and seed >= 0 and 0.0 <= tolerance_ulps < math.inf:
        return
    for name, value in (("trials", trials), ("seed", seed)):
        if not is_natural(value):
            raise ValueError(f"{name} must be a non-negative integer, got {value!r}")
    if isinstance(tolerance_ulps, (bool, np.bool_)) or not 0 <= tolerance_ulps < math.inf:
        raise ValueError(f"tolerance_ulps must be finite and >= 0, got {tolerance_ulps!r}")


@cache
def _case(routine: str, precision) -> tuple:
    """(routine index, itemsize, in place, scalar backend, vector backend)
    of a check of `routine` in `precision`, derived once per case."""
    return (ROUTINE_NAMES.index(routine), dtype_for(precision).itemsize, routine_spec(routine).in_place,
            get_backend("scalar"), get_backend("vector"))


_equal = None  # the native module's equal, or a stand-in that declines where it is unavailable; bound on the first check


def _bind_equal():
    """Bind ``_equal`` from the native module, which the backends have loaded."""
    global _equal
    from . import native  # not at import: importing the package builds nothing
    module = native.load()
    _equal = (lambda candidate, reference: NotImplemented) if module is None else module.equal
    return _equal


def check_routine(
    routine: str,
    precision: str = "double",
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance_ulps: float = DEFAULT_TOLERANCE_ULPS,
    inject_fault: bool = False,
) -> EquivalenceRow:
    """Compare the vector backend against the scalar one on `trials` random
    operand sets of one routine."""
    _check_sweep(trials, seed, tolerance_ulps)
    check_fits(routine, precision, trials, 2)  # its operands and both results; refuses an unknown routine or precision
    index, itemsize, in_place, scalar, vector = _case(routine, precision)
    operands = random_operands(routine, [seed, index, itemsize], precision, batch=trials)
    if in_place:  # each backend writes its own copy of operand 0
        ref = scalar.batch_apply(routine, [operands[0].copy(), *operands[1:]])
        cand = vector.batch_apply(routine, [operands[0].copy(), *operands[1:]])
    else:
        ref = scalar.batch_apply(routine, operands)
        cand = vector.batch_apply(routine, operands)
    if inject_fault and trials:
        # Negative control: nudge one component far outside tolerance,
        # sized to the same scale the metric floors at.
        cand = cand.copy()
        dt = cand.dtype
        scale0 = dt.type(max(float(np.abs(ref[0]).max()), 1.0))
        cand.reshape(-1)[0] += dt.type(64) * np.spacing(scale0)
    worst_trial, worst_component = (0, (0,) * (ref.ndim - 1)) if trials else (-1, ())
    if (_equal or _bind_equal())(cand, ref) is True:  # every error is 0
        return EquivalenceRow(routine, precision, trials, seed, tolerance_ulps, 0.0, worst_trial, worst_component)
    # Equal components have error 0, so only differing ones are measured.
    differ = (cand != ref).reshape(-1).nonzero()[0]
    max_ulp = 0.0
    if differ.size:
        per_trial = math.prod(ref.shape[1:])
        trial, of_trial = np.unique(differ // per_trial, return_inverse=True)
        floor = np.abs(ref.reshape(-1, per_trial)[trial]).max(axis=1)[of_trial]
        err = ulp_error(cand.reshape(-1)[differ], ref.reshape(-1)[differ], scale_floor=floor)
        k = int(np.argmax(err))
        # As over all components: the first largest error, or component 0
        # when every error is 0 (a difference far below the floor's spacing).
        if not err[k] == 0:
            max_ulp = float(err[k])
            worst = np.unravel_index(int(differ[k]), ref.shape)
            worst_trial, worst_component = int(worst[0]), tuple(int(i) for i in worst[1:])
    return EquivalenceRow(routine, precision, trials, seed, tolerance_ulps, max_ulp, worst_trial, worst_component)


@dataclass(frozen=True)
class EquivalenceReport:
    rows: tuple[EquivalenceRow, ...]
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(row.passed for row in self.rows)


def check_all(
    routines=None,
    precisions=("double", "single"),
    trials: int = DEFAULT_TRIALS,
    seed: int = DEFAULT_SEED,
    tolerance_ulps: float = DEFAULT_TOLERANCE_ULPS,
    inject_fault: bool = False,
) -> EquivalenceReport:
    """Sweep a set of routines (None: all fifteen) over a set of precisions
    (both by default). ValueError for an empty set, or a bare string where
    a set of names belongs."""
    _check_sweep(trials, seed, tolerance_ulps)
    if isinstance(routines, str) or isinstance(precisions, str):
        raise ValueError("routines and precisions are collections of names, not one string")
    names = list(ROUTINE_NAMES) if routines is None else list(routines)
    precisions = list(precisions)
    if not names:
        raise ValueError("no routines to check: pass None for all fifteen")
    if not precisions:
        raise ValueError("no precisions to check")
    for name in names:
        for precision in precisions:
            check_fits(name, precision, trials, 2)
    t0 = time.perf_counter()
    rows = tuple(
        check_routine(
            name,
            precision=precision,
            trials=trials,
            seed=seed,
            tolerance_ulps=tolerance_ulps,
            inject_fault=inject_fault,
        )
        for precision in precisions
        for name in names
    )
    return EquivalenceReport(rows=rows, elapsed_s=time.perf_counter() - t0)
