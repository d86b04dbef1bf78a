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

A passing check is one native call (see ``native``). After the argument
checks, ``check_routine`` reads the case's record, derived once per routine
and precision: the seed key's index and itemsize, the bytes of one operand
set and both results, a passing row's component index and the two
backends' native entries. It applies the memory rule below, draws the
operands, and asks the module's ``check``, looked up in ``NATIVE`` as the
draw's ``operands`` and the kernels' entries are, to run both backends'
loops on them and compare the two outputs componentwise, the question
numpy's ``not (cand != ref).any()`` answers: a NaN equals nothing, ``-0.0`` equals
``+0.0``. Where the answer is True, every error is 0, so the row is
``max_ulp`` 0 at component 0, as the metric over every component gives it.
A passing check so calls neither backend's ``batch_apply``; perfbench's
traced replay of it (``replay_check``) still times the draw, both
``batch_apply`` calls and ``ulp_error``, a path it no longer takes.

Every other call takes the full path on the operands already drawn:
``inject_fault``, an answer of False or ``NotImplemented``, and a host
without the module, where ``NATIVE``'s ``check`` is ``not_taken``. It
runs the backends' ``batch_apply`` and measures only the components where
the two outputs differ: an equal component has error 0 by definition, so
floors are computed for the trials holding a difference and ``ulp_error``
runs on the differing components alone. The row it
reports is the one the metric gives over every component: the largest
error (NaN counting as largest) at its first occurrence in memory order, or
0 at component 0 when every error is 0; only a nonzero error is located
with ``np.unravel_index``. So both paths give one row for one call.

Before anything is drawn, ``check_routine`` and ``check_all`` refuse
(``ValueError``) a case whose operands and two results would need more
bytes than the host's physical memory, the rule ``bench`` applies to its
runs, with the host's memory read on every call: each array alone could
pass the kernel's overcommit check while all of them together do not fit,
and the process would be killed partway through the draw.
"""
from __future__ import annotations

import math
import time
from dataclasses import dataclass
from functools import cache

import numpy as np

from .backends import get_backend
from .trace import entry
from .types import NATIVE, OPERAND_SHAPES, ROUTINE_NAMES, _object_bytes, check_bytes, check_fits, dtype_for, \
    is_natural, random_operands, routine_spec

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
    """(routine index, itemsize, bytes of one operand set and both results,
    a passing row's component index, scalar entry, vector entry) of a check
    of `routine` in `precision`, derived once per case. The entries are the
    native module's own, not ``NATIVE``'s, as its ``check`` takes only
    those, loaded here (not at import: importing the package builds
    nothing), or None where it is unavailable. ValueError for an unknown
    routine or precision, in ``check_fits``' words."""
    set_bytes = _object_bytes(routine, precision, 2)
    from . import native
    module = native.load()
    entries = (None, None) if module is None else \
        (getattr(module, entry("scalar", routine)), getattr(module, entry("vector", routine)))
    return (ROUTINE_NAMES.index(routine), dtype_for(precision).itemsize, set_bytes,
            (0,) * len(OPERAND_SHAPES[routine_spec(routine).result]), *entries)


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
    index, itemsize, set_bytes, component, scalar_entry, vector_entry = _case(routine, precision)
    check_bytes(routine, trials * set_bytes)  # its operands and both results, before anything is drawn
    operands = random_operands(routine, [seed, index, itemsize], precision, batch=trials)
    if not inject_fault and NATIVE["check"](scalar_entry, vector_entry, operands) is True:  # every error is 0
        return EquivalenceRow(routine, precision, trials, seed, tolerance_ulps, 0.0,
                              0 if trials else -1, component if trials else ())
    scalar, vector = get_backend("scalar"), get_backend("vector")
    if routine_spec(routine).in_place:  # each backend writes its own copy of operand 0
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
