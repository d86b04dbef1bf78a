"""Floating-point operation counts, read off the kernels' traces.

``scalar.routine_trace`` records every ``*``, ``+`` and ``-`` one call of a
kernel body performs; the kernel's Python program and native loop are
compiled from the same record. The counts are therefore those of the
reference code itself, not transcribed from anywhere, and subtraction counts
as an add. Packed-lane tallies are the vector backend's ``lane_op_count``.
"""
from __future__ import annotations

from collections import Counter
from functools import cache

from . import scalar
from .types import FlopCount, ROUTINE_NAMES, routine_spec


@cache
def flop_count(routine: str) -> FlopCount:
    """Real multiply and add counts for one invocation of a kernel."""
    routine_spec(routine)
    ops = Counter(op for _, _, op, _ in scalar.routine_trace(routine).steps)
    return FlopCount(real_mults=ops["*"], real_adds=ops["+"] + ops["-"])


def flop_table() -> dict[str, FlopCount]:
    """Counts for every kernel, in registry order."""
    return {name: flop_count(name) for name in ROUTINE_NAMES}
