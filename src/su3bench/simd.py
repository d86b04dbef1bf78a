"""Packed-lane implementations of the su3 kernels.

The code follows a 128-bit register recipe. A complex value's (re, im) pair
rides in one packed lane group. A contraction kernel broadcasts each
component of one operand across a lane pair (``_mm_set1_pd``), multiplies it
by a pair of the other operand, adds the packed products over the
contraction index in order, and ends with one swap + sign + add that turns
the (re*re, re*im) and (im*re, im*im) lane sums into the complex result.
This backend performs that sequence lane by lane; the arithmetic sequence
per output component is the recipe's, which keeps it bitwise equal to the
scalar reference.

The eleven contraction kernels (mat-vec, adjoint mat-vec, the three matrix
products, both half-Wilson kernels, the four-direction kernels and
``mult_su3_mat_vec_sum_4dir``, ``su3_projector``) each read a gather table
(``Contraction``) built once at import:

- **Broadcast.** For every contraction step j and every packed product, the
  table names the component of the broadcast operand (the matrix, or for
  ``mult_su3_na`` and ``su3_projector`` the conjugated operand) and the
  component of the pair operand that the product multiplies.
- **Swap, sign, add.** The lane swap of the imaginary-part sums is folded
  into the gather: the products of imaginary-part broadcasts read the pair
  with its lanes swapped, so after the adds over j their sums line up with
  the real-part sums. They are multiplied by the table's sign (+-1, exact),
  and one add writes the result. Adjoint and conjugate variants differ from
  the plain ones only in their tables.

``table_trace`` writes a table's sequence at one site as a trace over the
routine's operands, in the routine's order: every product, the adds over j
left to right, each swapped sum times its sign and the combining add, per
lane. A kernel runs that trace (``_contract``) through the table's native
site loop (``native``) where it takes the call (C-contiguous float64 and
float32 operands, one object or stacked; no per-call temporaries), and
otherwise through the trace's Python program
(``trace.program``: numpy operations over the sites, a single object as one
site). The four elementwise kernels likewise offer the call to the scalar
reference's native loop of the same routine first, then run numpy. Every
output component sees the same products, added in the same order, as in
the scalar reference, so no path moves a bit; where a NaN arises is the
same on every path, but its sign and payload bits may differ.

Every kernel accepts operands with any shared leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. A kernel is ``kernel(*operands, out) -> out`` (the
in-place ``sub_four_su3_vecs`` takes no ``out``) and checks nothing:
``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points,
and they allocate or check ``out``. The module holds only the kernels'
arithmetic, the lane counts per precision and the derived lane tallies
(``lane_op_count``).
"""
from __future__ import annotations

import math
import platform
import sys
from dataclasses import dataclass
from functools import cache

import numpy as np

from .flops import flop_count
from .trace import NATIVE, Trace, program
from .types import PRECISIONS, ROUTINE_NAMES, routine_spec

# The packed register, and how many lanes of each precision it holds: 2 double, 4 single.
WIDTH_BITS = 128
LANES = {name: WIDTH_BITS // (8 * dt.itemsize) for name, dt in PRECISIONS.items()}


@dataclass(frozen=True, eq=False)
class Contraction:
    """The gather table of one contraction kernel.

    ia, ib: (steps, 2, N) component indices into the flattened broadcast and
    pair operands of each packed product. Row [j, 0] holds the products of
    step j with the real parts of the broadcast entries, row [j, 1] those
    with the imaginary parts; column 2*o + lane is lane `lane` of output
    entry o. The swap of the imaginary-part sums is folded into the pair
    operand's gather: row [j, 1] reads the pair with its lanes swapped, so
    after the adds over j, [1] lines up with [0]. sign: the +-1.0 that each
    output lane's swapped sum takes in the combine. x_size,
    y_size: components per object of the two operands; outputs: N. entry:
    the name of its native site loop (``native``). swapped: the routine
    passes the pair operand first and the broadcast operand second.
    """

    entry: str
    ia: np.ndarray
    ib: np.ndarray
    sign: tuple[float, ...]
    x_size: int
    y_size: int
    steps: int
    outputs: int
    swapped: bool


def _table(routine: str, grid: tuple, steps: int, x_shape: tuple, x_at, y_shape: tuple, y_at, conj: bool,
           swapped: bool = False) -> Contraction:
    """Routine's table of c[o] = sum_j x[x_at(o, j)] * y[y_at(o, j)] over the complex output grid.

    x is the broadcast operand, y the pair operand, both with complex entry
    shapes x_shape and y_shape. x_at and y_at map the output index (one array
    per grid axis) and the step j to an entry of x and of y. With conj the
    result is x's conjugate times y: the sign flips after the swap.
    """
    *o, j = np.indices(grid + (steps,))
    xc = np.moveaxis(np.ravel_multi_index(x_at(*o, j), x_shape), -1, 0).reshape(steps, 1, -1, 1)
    yc = np.moveaxis(np.ravel_multi_index(y_at(*o, j), y_shape), -1, 0).reshape(steps, 1, -1, 1)
    part, lane = np.indices((2, 2))
    sign = ((1.0, -1.0) if conj else (-1.0, 1.0)) * xc.shape[2]
    return Contraction(
        entry=f"{routine}_table",
        ia=(2 * xc + part[:, None]).reshape(steps, 2, -1),
        ib=(2 * yc + (lane ^ part)[:, None]).reshape(steps, 2, -1),
        sign=sign,
        x_size=2 * math.prod(x_shape),
        y_size=2 * math.prod(y_shape),
        steps=steps,
        outputs=len(sign),
        swapped=swapped,
    )


_MAT_VEC = _table("mult_su3_mat_vec", (3,), 3, (3, 3), lambda i, j: (i, j), (3,), lambda i, j: (j,), conj=False)
_ADJ_MAT_VEC = _table("mult_adj_su3_mat_vec", (3,), 3, (3, 3), lambda i, j: (j, i), (3,), lambda i, j: (j,), conj=True)
_FOUR_DIR = _table("mult_adj_su3_mat_vec_4dir", (4, 3), 3, (4, 3, 3), lambda d, i, j: (d, j, i), (3,), lambda d, i, j: (j,), conj=True)

TABLES: dict[str, Contraction] = {
    "mult_su3_mat_vec": _MAT_VEC,
    "mult_adj_su3_mat_vec": _ADJ_MAT_VEC,
    "mult_su3_nn": _table("mult_su3_nn", (3, 3), 3, (3, 3), lambda i, k, j: (i, j), (3, 3), lambda i, k, j: (j, k), conj=False),
    "mult_su3_an": _table("mult_su3_an", (3, 3), 3, (3, 3), lambda i, k, j: (j, i), (3, 3), lambda i, k, j: (j, k), conj=True),
    # b is the conjugated operand, so its components are the broadcast ones.
    "mult_su3_na": _table("mult_su3_na", (3, 3), 3, (3, 3), lambda i, k, j: (k, j), (3, 3), lambda i, k, j: (i, j), conj=True, swapped=True),
    "mult_su3_mat_hwvec": _table("mult_su3_mat_hwvec", (2, 3), 3, (3, 3), lambda h, i, j: (i, j), (2, 3), lambda h, i, j: (h, j), conj=False),
    "mult_adj_su3_mat_hwvec": _table("mult_adj_su3_mat_hwvec", (2, 3), 3, (3, 3), lambda h, i, j: (j, i), (2, 3), lambda h, i, j: (h, j), conj=True),
    "mult_adj_su3_mat_vec_4dir": _FOUR_DIR,
    "mult_adj_su3_mat_4vec": _FOUR_DIR,
    # Step s = 3 * d + j: the products are added direction-major.
    "mult_su3_mat_vec_sum_4dir": _table(
        "mult_su3_mat_vec_sum_4dir", (3,), 12, (4, 3, 3), lambda i, s: (s // 3, s % 3, i), (4, 3), lambda i, s: (s // 3, s % 3), conj=True
    ),
    "su3_projector": _table("su3_projector", (3, 3), 1, (3,), lambda i, k, j: (k,), (3,), lambda i, k, j: (i,), conj=True, swapped=True),
}

# Routine -> the native entry its kernel calls: its table's, else the scalar reference's.
ENTRIES = {routine: TABLES[routine].entry if routine in TABLES else routine for routine in ROUTINE_NAMES}


def table_trace(t: Contraction) -> Trace:
    """The recipe's operations on one site of table t, in its order, as a
    trace over the components of the broadcast operand x and the pair
    operand y, which are operands 0 and 1 in the routine's order (1 and 0
    where ``t.swapped``).

    Every packed product, then the adds over j, then each swapped sum times
    its sign (a +-1 literal), then the combining add, lane by lane.
    """
    kx, ky = (1, 0) if t.swapped else (0, 1)
    x = tuple(f"x{kx}_{i}" for i in range(t.x_size))
    y = tuple(f"x{ky}_{i}" for i in range(t.y_size))
    steps: list = []

    def step(left: str, op: str, right: str) -> str:
        steps.append((f"t{len(steps)}", left, op, right))
        return steps[-1][0]

    p = [
        [[step(x[a], "*", y[b]) for a, b in zip(ia, ib)] for ia, ib in zip(ia_j, ib_j)]
        for ia_j, ib_j in zip(t.ia.tolist(), t.ib.tolist())
    ]
    acc = p[0]
    for p_j in p[1:]:
        acc = [[step(s, "+", q) for s, q in zip(sums, products)] for sums, products in zip(acc, p_j)]
    re, im = acc
    im = [step(s, "*", repr(sign)) for s, sign in zip(im, t.sign)]
    results = tuple(step(r, "+", i) for r, i in zip(re, im))
    return Trace((y, x) if t.swapped else (x, y), tuple(steps), results)


@cache
def _table_program(t: Contraction):
    """Table t's trace compiled into one function ``(x, y, out)`` (``trace.program``)."""
    return program(table_trace(t), t.entry, in_place=False)


def _contract(t: Contraction, a: np.ndarray, b: np.ndarray, c: np.ndarray) -> np.ndarray:
    """Run table t on the routine's operands a and b into c: through its
    native site loop where that takes the call, else its program."""
    if NATIVE[t.entry](a, b, c) is NotImplemented:
        _table_program(t)(a, b, c)
    return c


def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    if NATIVE["add_su3_vector"](a, b, out) is NotImplemented:
        np.add(a, b, out=out)
    return out


def mult_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j a[i][j] * b[j]."""
    return _contract(_MAT_VEC, a, b, out)


def mult_adj_su3_mat_vec(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = sum_j conj(a[j][i]) * b[j]."""
    return _contract(_ADJ_MAT_VEC, a, b, out)


def mult_su3_nn(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * b[j][k]."""
    return _contract(TABLES["mult_su3_nn"], a, b, out)


def mult_su3_an(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j conj(a[j][i]) * b[j][k]."""
    return _contract(TABLES["mult_su3_an"], a, b, out)


def mult_su3_na(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][k] = sum_j a[i][j] * conj(b[k][j])."""
    return _contract(TABLES["mult_su3_na"], a, b, out)


def mult_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = a * h[k] for both halves k."""
    return _contract(TABLES["mult_su3_mat_hwvec"], a, h, out)


def mult_adj_su3_mat_hwvec(a: np.ndarray, h: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[k] = adj(a) * h[k] for both halves k."""
    return _contract(TABLES["mult_adj_su3_mat_hwvec"], a, h, out)


def mult_adj_su3_mat_vec_4dir(a4: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[d] = adj(a4[d]) * b for the four directions."""
    return _contract(_FOUR_DIR, a4, b, out)


# The packed (4, 3, 2) result; ``Backend.apply`` also offers it in four destinations.
mult_adj_su3_mat_4vec = mult_adj_su3_mat_vec_4dir


def mult_su3_mat_vec_sum_4dir(a4: np.ndarray, b4: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c = sum_d adj(a4[d]) * b4[d], accumulated direction-major."""
    return _contract(TABLES["mult_su3_mat_vec_sum_4dir"], a4, b4, out)


def _scalar_factor(s, like: np.ndarray, extra_axes: int):
    s_arr = np.asarray(s, dtype=like.dtype)
    if s_arr.ndim:
        s_arr = s_arr.reshape(s_arr.shape + (1,) * extra_axes)
    return s_arr


def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    if NATIVE["scalar_mult_add_su3_matrix"](a, b, np.asarray(s, a.dtype), out) is NotImplemented:
        np.add(a, _scalar_factor(s, a, 3) * b, out=out)
    return out


def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    if NATIVE["scalar_mult_add_su3_vector"](a, b, np.asarray(s, a.dtype), out) is NotImplemented:
        np.add(a, _scalar_factor(s, a, 2) * b, out=out)
    return out


def su3_projector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i] * conj(b[j]) (outer product)."""
    return _contract(TABLES["su3_projector"], a, b, out)


def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
    if NATIVE["sub_four_su3_vecs"](a, b1, b2, b3, b4) is NotImplemented:
        for b in (b1, b2, b3, b4):
            np.subtract(a, b, out=a)
    return a


@dataclass(frozen=True)
class LaneOpCount:
    """Packed-lane operation tally for one kernel invocation.

    broadcasts: distinct scalar components broadcast across a lane pair
    (matrix elements, or the conjugated operand's components, or the real
    factor s), each counted once however many outputs share it.
    packed_mults / packed_adds: two-lane multiplies and add-class ops,
    including the final combine add; each stands for two real operations.
    swaps: lane swaps feeding the combine. negates: the packed sign flip
    folded into the scalar backend's combining subtraction; not a
    floating-point add.
    """

    broadcasts: int
    packed_mults: int
    packed_adds: int
    swaps: int
    negates: int


@cache
def lane_op_count(routine: str) -> LaneOpCount:
    """Packed-lane operation tally for one kernel invocation, derived from
    what the kernel runs.

    A table kernel's come off its gather table: one packed multiply per two
    gathered products, the adds over the steps plus one combining add per
    output entry, which also takes one swap and one sign flip. An
    elementwise kernel packs its reference trace's operations in pairs and
    broadcasts only its real factor.
    """
    spec = routine_spec(routine)
    t = TABLES.get(routine)
    if t is None:
        real = flop_count(routine)
        return LaneOpCount(spec.operands.count("scalar"), real.real_mults // 2, real.real_adds // 2, 0, 0)
    entries = t.outputs // 2
    return LaneOpCount(np.unique(t.ia).size, t.ia.size // 2, (t.steps - 1) * t.outputs + entries, entries, entries)


def capability() -> dict:
    """Report what runs the packed recipe on this host: the register it
    models (width and lanes per precision, which the lane bound reads), how
    its per-lane sequence runs, and the native extension: its path once
    loaded, "not built yet" before the first kernel call of this process,
    or why it is unavailable."""
    features: list[str] = []
    for mod in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = __import__(mod, fromlist=["__cpu_features__"])
            features = sorted(k for k, v in umath.__cpu_features__.items() if v)
            break
        except (ImportError, AttributeError):
            continue
    return {
        "backend": "gather-table lane sequence: native C where the module is built, else compiled numpy over sites",
        "width_bits": WIDTH_BITS,
        "lanes": dict(LANES),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": features,
        "native": native.status() if (native := sys.modules.get(f"{__package__}.native")) else "not built yet",
    }
