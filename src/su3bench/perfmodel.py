"""Analytical speedup model and the shipped historical reference data.

The model splits a run's wall time into four components:

    t_comp_accel   computation eligible for packed-lane acceleration,
                   at the speed this configuration achieves it
    t_comp_plain   computation that never accelerates
    t_noncomp      non-computational serial work
    t_comm         communication (zero for serial runs)

Two configurations that differ only in t_comp_accel predict a speedup of
total(normal) / total(accel). Growing a shared component (communication,
non-computational work) on both sides drags the ratio toward 1, which is the
serial-to-parallel degradation story in one line.

The instruction-mix side of the model bounds the achievable ratio from the
static mix of a routine: with arithmetic packed `lane_factor` wide and
everything else unchanged,

    bound = total / (non_arith + arith / lane_factor).

Reference data under ``reference/`` preserves measurements reported for a
2002-era 2.4 GHz system (8 KB L1, 256 KB L2, 533 MHz bus, gcc -O3). They
ship as historical context, not as targets for this implementation.
"""
from __future__ import annotations

import csv
import dataclasses
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .types import ROUTINES

_REFERENCE = resources.files(__package__) / "reference"

TABLE_PATH = "table3.csv"  # instruction mixes
KERNEL_HISTORY_PATH = "kernel_timings.csv"
APPLICATION_HISTORY_PATH = "application_times.csv"
ALIGNMENT_HISTORY_PATH = "alignment_times.csv"


class ModelInputError(ValueError):
    """Bad model input; carries the 1-based line number when known."""

    def __init__(self, message: str, line: int | None = None):
        self.line = line
        super().__init__(message)


def _check_time(name: str, value: float, line: int | None = None) -> float:
    value = float(value)
    if not np.isfinite(value) or value < 0:
        raise ModelInputError(f"{name} must be finite and nonnegative, got {value}", line=line)
    return value


@dataclass(frozen=True)
class TimeComponents:
    """One configuration's wall time, split by where it goes."""

    t_comp_accel: float
    t_comp_plain: float = 0.0
    t_noncomp: float = 0.0
    t_comm: float = 0.0

    def __post_init__(self) -> None:
        for name in FIELDS:
            _check_time(name, getattr(self, name))

    @property
    def total(self) -> float:
        return self.t_comp_accel + self.t_comp_plain + self.t_noncomp + self.t_comm

    def with_component(self, name: str, value: float) -> "TimeComponents":
        if name not in FIELDS:
            raise ValueError(f"unknown component {name!r}; expected one of {FIELDS}")
        return dataclasses.replace(self, **{name: value})


FIELDS = ("t_comp_accel", "t_comp_plain", "t_noncomp", "t_comm")
ROLES = ("normal", "accel")
SHARED_FIELDS = ("t_comp_plain", "t_noncomp", "t_comm")


def predicted_speedup(normal: TimeComponents, accel: TimeComponents) -> float:
    """total(normal) / total(accel) for configs differing only in t_comp_accel."""
    for name in SHARED_FIELDS:
        if getattr(normal, name) != getattr(accel, name):
            raise ValueError(f"configurations must agree on {name}: {getattr(normal, name)} vs {getattr(accel, name)}")
    if accel.total == 0:
        raise ValueError("accelerated total time is zero")
    return normal.total / accel.total


def degradation_curve(
    normal: TimeComponents,
    accel: TimeComponents,
    overheads,
    component: str = "t_comm",
) -> list[float]:
    """Predicted speedups as a shared overhead grows on both configurations."""
    if component not in SHARED_FIELDS:
        raise ValueError(f"component must be one of {SHARED_FIELDS}, got {component!r}")
    base = getattr(normal, component)
    curve = []
    for o in overheads:
        o = _check_time("overhead", o)
        n = normal.with_component(component, base + o)
        a = accel.with_component(component, base + o)
        curve.append(predicted_speedup(n, a))
    return curve


@dataclass(frozen=True)
class InstructionMix:
    """Static instruction counts of one routine's packed implementation.

    Routines whose counts were never recorded carry None in every slot.
    """

    routine: str
    add: int | None
    mul: int | None
    mov: int | None
    shuffle_other: int | None

    def __post_init__(self) -> None:
        counts = (self.add, self.mul, self.mov, self.shuffle_other)
        missing = [c is None for c in counts]
        if any(missing) and not all(missing):
            raise ValueError(f"{self.routine}: instruction counts must be all present or all absent")
        for c in counts:
            if c is not None and (not isinstance(c, int) or c < 0):
                raise ValueError(f"{self.routine}: counts must be nonnegative integers, got {c!r}")

    @property
    def recorded(self) -> bool:
        return self.add is not None

    @property
    def arithmetic(self) -> int:
        self._require()
        return self.add + self.mul

    @property
    def non_arithmetic(self) -> int:
        self._require()
        return self.mov + self.shuffle_other

    @property
    def total(self) -> int:
        return self.arithmetic + self.non_arithmetic

    def _require(self) -> None:
        if not self.recorded:
            raise ValueError(f"{self.routine} has no recorded instruction counts")


def arithmetic_fraction(mix: InstructionMix) -> float:
    """Share of the instruction stream doing arithmetic."""
    if mix.total == 0:
        raise ValueError(f"{mix.routine} has an empty instruction mix")
    return mix.arithmetic / mix.total


def bound_from_mix(mix: InstructionMix, lane_factor: int) -> float:
    """Best ratio the mix admits when only arithmetic shrinks by lane_factor."""
    if lane_factor not in (2, 4):
        raise ValueError(f"lane_factor must be 2 or 4, got {lane_factor!r}")
    if mix.total == 0:
        raise ValueError(f"{mix.routine} has an empty instruction mix")
    return mix.total / (mix.non_arithmetic + mix.arithmetic / lane_factor)


# --- scenario files -------------------------------------------------------

def parse_scenario(text: str) -> dict[str, TimeComponents]:
    """Parse 'role.field = value' lines into normal/accel TimeComponents.

    '#' starts a comment; unknown roles, unknown fields, duplicates, and
    unparsable values raise ModelInputError with the offending line number.
    Missing fields default to 0; each role needs at least t_comp_accel.
    """
    seen: dict[tuple[str, str], float] = {}
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        key, eq, value = line.partition("=")
        if not eq:
            raise ModelInputError(f"expected 'role.field = value', got {raw.strip()!r}", line=lineno)
        role, dot, fld = key.strip().partition(".")
        if not dot or role not in ROLES or fld not in FIELDS:
            raise ModelInputError(f"key must be one of {ROLES} dot one of {FIELDS}, got {key.strip()!r}", line=lineno)
        if (role, fld) in seen:
            raise ModelInputError(f"duplicate key {key.strip()!r}", line=lineno)
        try:
            seen[(role, fld)] = _check_time(fld, float(value.strip()), line=lineno)
        except ValueError as err:
            if isinstance(err, ModelInputError):
                raise
            raise ModelInputError(f"bad value for {key.strip()!r}: {value.strip()!r}", line=lineno) from None
    out = {}
    for role in ROLES:
        if (role, "t_comp_accel") not in seen:
            raise ModelInputError(f"missing {role}.t_comp_accel")
        out[role] = TimeComponents(**{fld: seen.get((role, fld), 0.0) for fld in FIELDS})
    return out


def parse_scenario_csv(text: str) -> dict[str, TimeComponents]:
    """CSV alternative: header 'role,t_comp_accel,t_comp_plain,t_noncomp,t_comm'."""
    reader = csv.reader(text.splitlines())
    header = next(reader, None)
    expected = ["role", *FIELDS]
    if header != expected:
        raise ModelInputError(f"header must be {','.join(expected)}", line=1)
    out: dict[str, TimeComponents] = {}
    for lineno, row in enumerate(reader, 2):
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != 5:
            raise ModelInputError(f"expected 5 cells, got {len(row)}", line=lineno)
        role = row[0].strip()
        if role not in ROLES:
            raise ModelInputError(f"role must be one of {ROLES}, got {role!r}", line=lineno)
        if role in out:
            raise ModelInputError(f"duplicate role {role!r}", line=lineno)
        try:
            values = [float(cell) for cell in row[1:]]
        except ValueError:
            raise ModelInputError(f"bad numeric cell in {row!r}", line=lineno) from None
        for name, v in zip(FIELDS, values):
            _check_time(name, v, line=lineno)
        out[role] = TimeComponents(*values)
    for role in ROLES:
        if role not in out:
            raise ModelInputError(f"missing row for role {role!r}")
    return out


def load_scenario(path: str) -> dict[str, TimeComponents]:
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if str(path).endswith(".csv"):
        return parse_scenario_csv(text)
    return parse_scenario(text)


# --- instruction-mix table ------------------------------------------------

MIX_HEADER = "routine,add,mul,mov,shuffle_other"


def parse_instruction_mixes(text: str) -> list[InstructionMix]:
    lines = text.splitlines()
    if not lines or lines[0] != MIX_HEADER:
        raise ModelInputError(f"header must be {MIX_HEADER!r}", line=1)
    mixes = []
    for lineno, row in enumerate(csv.reader(lines[1:]), 2):
        if not row:
            continue
        if len(row) != 5:
            raise ModelInputError(f"expected 5 cells, got {len(row)}", line=lineno)
        name = row[0]
        if name not in ROUTINES:
            raise ModelInputError(f"unknown routine {name!r}", line=lineno)
        cells = [c.strip() for c in row[1:]]
        try:
            counts = [None if c == "" else int(c) for c in cells]
            mixes.append(InstructionMix(name, *counts))
        except ValueError as err:
            raise ModelInputError(f"{err}", line=lineno) from None
    return mixes


def _read_reference(name: str) -> str:
    return (_REFERENCE / name).read_text(encoding="utf-8")


def load_instruction_mixes(path: str | None = None) -> list[InstructionMix]:
    """The shipped instruction-mix table, or one from `path`."""
    if path is None:
        return parse_instruction_mixes(_read_reference(TABLE_PATH))
    with open(path, encoding="utf-8") as fh:
        return parse_instruction_mixes(fh.read())


def mix_for(routine: str, mixes=None) -> InstructionMix:
    for mix in mixes if mixes is not None else load_instruction_mixes():
        if mix.routine == routine:
            return mix
    raise ValueError(f"no instruction mix for routine {routine!r}")


# --- historical measurements ----------------------------------------------

@dataclass(frozen=True)
class KernelTiming:
    """Historical hot-loop seconds per million invocations, double precision."""

    routine: str
    vector_s: float | None
    reference_s: float | None


@dataclass(frozen=True)
class ApplicationTiming:
    mode: str
    precision: str
    lattice: str
    variant: str
    time_s: float


@dataclass(frozen=True)
class AlignmentTiming:
    lattice: str
    aligned_s: float
    unaligned_s: float


def _reference_rows(name: str) -> list[list[str]]:
    lines = [ln for ln in _read_reference(name).splitlines() if ln and not ln.startswith("#")]
    return list(csv.reader(lines))


def load_kernel_history() -> list[KernelTiming]:
    rows = _reference_rows(KERNEL_HISTORY_PATH)
    out = []
    for name, vec, ref in rows[1:]:
        out.append(KernelTiming(name, float(vec) if vec else None, float(ref) if ref else None))
    return out


def load_application_history() -> list[ApplicationTiming]:
    rows = _reference_rows(APPLICATION_HISTORY_PATH)
    return [ApplicationTiming(m, p, lat, var, float(t)) for m, p, lat, var, t in rows[1:]]


def load_alignment_history() -> list[AlignmentTiming]:
    rows = _reference_rows(ALIGNMENT_HISTORY_PATH)
    return [AlignmentTiming(lat, float(a), float(u)) for lat, a, u in rows[1:]]


def application_speedup_rows() -> list[dict]:
    """Reference-over-vector ratios recomputed from the application history."""
    history = load_application_history()
    refs = {(t.mode, t.precision, t.lattice): t.time_s for t in history if t.variant == "reference"}
    rows = []
    for t in history:
        if t.variant == "reference":
            continue
        ref = refs[(t.mode, t.precision, t.lattice)]
        rows.append(
            {
                "mode": t.mode,
                "precision": t.precision,
                "lattice": t.lattice,
                "variant": t.variant,
                "t_ref_s": ref,
                "t_vec_s": t.time_s,
                "ratio": ref / t.time_s,
            }
        )
    return rows
