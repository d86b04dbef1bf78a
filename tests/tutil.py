"""Shared helpers for the test suite."""
from __future__ import annotations

from collections import Counter

import numpy as np

from su3bench import types, verify
from su3bench.perfmodel import MIX_HEADER

# The eleven routines whose bodies are one complex contraction (``scalar._contract``).
CONTRACTIONS = (
    "mult_su3_mat_vec", "mult_adj_su3_mat_vec", "mult_su3_nn", "mult_su3_an", "mult_su3_na",
    "mult_su3_mat_hwvec", "mult_adj_su3_mat_hwvec", "mult_adj_su3_mat_vec_4dir", "mult_adj_su3_mat_4vec",
    "mult_su3_mat_vec_sum_4dir", "su3_projector",
)


def zeros(kind: str, precision: str = "double") -> np.ndarray:
    return np.zeros(types.OPERAND_SHAPES[kind], dtype=types.dtype_for(precision))


def pairs_to_complex(arr: np.ndarray) -> np.ndarray:
    """View a pair-layout array as a complex array (copy)."""
    return arr[..., 0] + 1j * arr[..., 1]


def complex_to_pairs(carr: np.ndarray, precision: str = "double") -> np.ndarray:
    """Split a complex array into pair layout."""
    carr = np.asarray(carr)
    out = np.empty(carr.shape + (2,), dtype=types.dtype_for(precision))
    out[..., 0] = carr.real
    out[..., 1] = carr.imag
    return out


def dump_instruction_mixes(mixes) -> str:
    """Canonical text form of an instruction-mix table; parse -> dump
    round-trips the shipped table byte for byte."""
    lines = [MIX_HEADER]
    for mix in mixes:
        cells = ["" if c is None else str(c) for c in (mix.add, mix.mul, mix.mov, mix.shuffle_other)]
        lines.append(",".join([mix.routine, *cells]))
    return "\n".join(lines) + "\n"


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose of a (..., 3, 3, 2) pair-layout matrix."""
    out = np.ascontiguousarray(np.swapaxes(m, -3, -2))
    out[..., 1] = -out[..., 1]
    return out


def _plane_rotation(p: int, q: int, theta: float, phi: float) -> np.ndarray:
    u = np.eye(3, dtype=complex)
    c, s = np.cos(theta), np.sin(theta)
    e = np.exp(1j * phi)
    u[p, p] = c
    u[p, q] = s * e
    u[q, p] = -s * np.conj(e)
    u[q, q] = c
    return u


def random_unitary(rng: np.random.Generator, precision: str = "double") -> np.ndarray:
    """Random special unitary 3x3 in pair layout.

    Product of three complex plane rotations, each unitary with unit
    determinant by construction, so the product is too. Generic enough
    to exercise every matrix element.
    """
    u = np.eye(3, dtype=complex)
    for p, q in ((0, 1), (0, 2), (1, 2)):
        theta, phi = rng.uniform(0.0, 2.0 * np.pi, size=2)
        u = u @ _plane_rotation(p, q, theta, phi)
    return complex_to_pairs(u, precision)


def run_kernel(kernel, *ops):
    """kernel(*ops, out=...) into a fresh NaN-filled result array; returns it.

    The routine is the kernel's name. The result array has the routine's
    result shape behind the first operand's leading batch axes, as the
    kernels take stacked operands, and its dtype (object for symbolic
    operands). The in-place routine takes no out.
    """
    spec = types.ROUTINES[kernel.__name__]
    if spec.in_place:
        return kernel(*ops)
    first = ops[0]
    batch = first.shape[:first.ndim - len(types.OPERAND_SHAPES[spec.operands[0]])]
    return kernel(*ops, out=np.full(batch + types.OPERAND_SHAPES[spec.result], np.nan, dtype=first.dtype))


def max_ulp(candidate: np.ndarray, reference: np.ndarray) -> float:
    """Worst componentwise ULP error, floored at the reference scale."""
    floor = float(np.abs(reference).max()) if reference.size else 0.0
    return float(verify.ulp_error(candidate, reference, scale_floor=floor).max())


def rel_norm_err(candidate: np.ndarray, reference: np.ndarray) -> float:
    denom = float(np.linalg.norm(reference.ravel()))
    return float(np.linalg.norm((candidate - reference).ravel())) / max(denom, 1e-300)


class Tallied:
    """A real whose ``*``, ``+`` and ``-`` with another Tallied each add one
    to a shared Counter under the operator, to count what kernel bodies do
    on object arrays."""

    __slots__ = ("v", "tally")

    def __init__(self, v: float, tally: Counter) -> None:
        self.v = v
        self.tally = tally

    def _op(self, op: str, v: float) -> "Tallied":
        self.tally[op] += 1
        return Tallied(v, self.tally)

    def __mul__(self, other):
        return self._op("*", self.v * other.v)

    def __add__(self, other):
        return self._op("+", self.v + other.v)

    def __sub__(self, other):
        return self._op("-", self.v - other.v)
