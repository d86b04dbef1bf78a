"""Floating-point operation counts, measured by executing the kernels.

The scalar backend accepts any operand supporting ``*``, ``+``, ``-``, so an
instrumented number type can flow through a kernel and tally what it does.
Counts are therefore read off the reference implementation itself rather
than transcribed from anywhere, and subtraction counts as an add. Packed-lane
movement tallies live in the vector backend's LaneOpCount.
"""
from __future__ import annotations

import numpy as np

from . import scalar
from .types import OPERAND_SHAPES, FlopCount, ROUTINE_NAMES, routine_spec

_counts = {"mults": 0, "adds": 0}


def _unwrap(other):
    return other.v if isinstance(other, CountingScalar) else other


class CountingScalar:
    """A real number whose arithmetic increments the module tally."""

    __slots__ = ("v",)

    def __init__(self, v: float = 0.0):
        self.v = float(v)

    def __mul__(self, other):
        _counts["mults"] += 1
        return CountingScalar(self.v * _unwrap(other))

    def __rmul__(self, other):
        _counts["mults"] += 1
        return CountingScalar(_unwrap(other) * self.v)

    def __add__(self, other):
        _counts["adds"] += 1
        return CountingScalar(self.v + _unwrap(other))

    def __radd__(self, other):
        _counts["adds"] += 1
        return CountingScalar(_unwrap(other) + self.v)

    def __sub__(self, other):
        _counts["adds"] += 1
        return CountingScalar(self.v - _unwrap(other))

    def __rsub__(self, other):
        _counts["adds"] += 1
        return CountingScalar(_unwrap(other) - self.v)

    def __neg__(self):
        return CountingScalar(-self.v)

    def __float__(self):
        return self.v

    def __repr__(self):
        return f"CountingScalar({self.v!r})"


def _counting_operand(kind: str, rng: np.random.Generator):
    shape = OPERAND_SHAPES[kind]
    if not shape:
        return CountingScalar(rng.uniform(-1.0, 1.0))
    arr = np.empty(shape, dtype=object)
    flat = arr.reshape(-1)
    for i in range(flat.size):
        flat[i] = CountingScalar(rng.uniform(-1.0, 1.0))
    return arr


_cache: dict[str, FlopCount] = {}


def flop_count(routine: str) -> FlopCount:
    """Real multiply and add counts for one invocation of a kernel."""
    spec = routine_spec(routine)
    cached = _cache.get(routine)
    if cached is not None:
        return cached
    rng = np.random.default_rng(0)
    operands = [_counting_operand(kind, rng) for kind in spec.operands]
    kernel = getattr(scalar, routine)
    _counts["mults"] = _counts["adds"] = 0
    if spec.in_place:
        kernel(*operands)
    else:
        kernel(*operands, out=np.empty(OPERAND_SHAPES[spec.result], dtype=object))
    result = FlopCount(real_mults=_counts["mults"], real_adds=_counts["adds"])
    _cache[routine] = result
    return result


def flop_table() -> dict[str, FlopCount]:
    """Counts for every kernel, in registry order."""
    return {name: flop_count(name) for name in ROUTINE_NAMES}
