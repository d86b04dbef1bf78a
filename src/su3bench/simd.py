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
lane. The four elementwise kernels are numpy bodies, whose trace
``trace.record`` takes by running them once on object arrays of symbolic
reals. ``routine_trace`` gives each kernel's trace, and ``trace.kernel``
builds every kernel from it: the trace's native site loop (``native``)
where it takes the call (C-contiguous float64 and float32 operands, one
object or stacked; no per-call temporaries), and otherwise the trace's
Python program (``trace.program``: numpy operations over the sites, a
single object as one site), or for an elementwise kernel its numpy body.
Every output component sees the same products, added in the same order, as
in the scalar reference (``tests/test_proof.py`` proves it from the two
backends' traces), so no path moves a bit; where a NaN arises is the same
on every path, but its sign and payload bits may differ.

Every kernel accepts operands with any shared leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. A kernel is ``kernel(*operands, out) -> out`` (the
in-place ``sub_four_su3_vecs`` takes no ``out``) and checks nothing:
``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points,
and they allocate or check ``out``. The module holds only the kernels'
arithmetic, the lane counts per precision and the lane tallies, read off
the kernels' traces (``lane_op_count``).
"""
from __future__ import annotations

import math
import platform
import sys
from dataclasses import dataclass
from functools import cache, update_wrapper

import numpy as np

from .trace import Trace, kernel, record
from .types import PRECISIONS, ROUTINES, routine_spec

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
    output lane's swapped sum takes in the combine. x_size, y_size:
    components per object of the two operands. swapped: the routine passes
    the pair operand first and the broadcast operand second.
    """

    ia: np.ndarray
    ib: np.ndarray
    sign: tuple[float, ...]
    x_size: int
    y_size: int
    swapped: bool


def _table(grid: tuple, steps: int, x_shape: tuple, x_at, y_shape: tuple, y_at, conj: bool, swapped: bool = False) -> Contraction:
    """The table of c[o] = sum_j x[x_at(o, j)] * y[y_at(o, j)] over the complex output grid.

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
        ia=(2 * xc + part[:, None]).reshape(steps, 2, -1),
        ib=(2 * yc + (lane ^ part)[:, None]).reshape(steps, 2, -1),
        sign=sign,
        x_size=2 * math.prod(x_shape),
        y_size=2 * math.prod(y_shape),
        swapped=swapped,
    )


_FOUR_DIR = _table((4, 3), 3, (4, 3, 3), lambda d, i, j: (d, j, i), (3,), lambda d, i, j: (j,), conj=True)

TABLES: dict[str, Contraction] = {
    "mult_su3_mat_vec": _table((3,), 3, (3, 3), lambda i, j: (i, j), (3,), lambda i, j: (j,), conj=False),
    "mult_adj_su3_mat_vec": _table((3,), 3, (3, 3), lambda i, j: (j, i), (3,), lambda i, j: (j,), conj=True),
    "mult_su3_nn": _table((3, 3), 3, (3, 3), lambda i, k, j: (i, j), (3, 3), lambda i, k, j: (j, k), conj=False),
    "mult_su3_an": _table((3, 3), 3, (3, 3), lambda i, k, j: (j, i), (3, 3), lambda i, k, j: (j, k), conj=True),
    # b is the conjugated operand, so its components are the broadcast ones.
    "mult_su3_na": _table((3, 3), 3, (3, 3), lambda i, k, j: (k, j), (3, 3), lambda i, k, j: (i, j), conj=True, swapped=True),
    "mult_su3_mat_hwvec": _table((2, 3), 3, (3, 3), lambda h, i, j: (i, j), (2, 3), lambda h, i, j: (h, j), conj=False),
    "mult_adj_su3_mat_hwvec": _table((2, 3), 3, (3, 3), lambda h, i, j: (j, i), (2, 3), lambda h, i, j: (h, j), conj=True),
    "mult_adj_su3_mat_vec_4dir": _FOUR_DIR,
    "mult_adj_su3_mat_4vec": _FOUR_DIR,
    # Step s = 3 * d + j: the products are added direction-major.
    "mult_su3_mat_vec_sum_4dir": _table((3,), 12, (4, 3, 3), lambda i, s: (s // 3, s % 3, i), (4, 3), lambda i, s: (s // 3, s % 3), conj=True),
    "su3_projector": _table((3, 3), 1, (3,), lambda i, k, j: (k,), (3,), lambda i, k, j: (i,), conj=True, swapped=True),
}


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
def routine_trace(routine: str) -> Trace:
    """The trace of the routine's kernel: its gather table's
    (``table_trace``), or its numpy body run once on symbolic reals
    (``trace.record``); cached, as the program and the native loops read
    the same record."""
    t = TABLES.get(routine)
    return table_trace(t) if t else record(routine_spec(routine), globals()[routine].__wrapped__)


# The eleven contraction kernels, each running its table's trace.
globals().update({routine: kernel("vector", ROUTINES[routine], routine_trace) for routine in TABLES})


def _elementwise(body):
    """The kernel whose trace is `body` (``trace.kernel``): its native entry
    first, then, for a call that entry does not take, `body` itself."""
    return update_wrapper(kernel("vector", ROUTINES[body.__name__], routine_trace, body), body)


@_elementwise
def add_su3_vector(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + b[i]."""
    return np.add(a, b, out=out)


def _scalar_factor(s, like: np.ndarray, extra_axes: int):
    s_arr = np.asarray(s, dtype=like.dtype)
    if s_arr.ndim:
        s_arr = s_arr.reshape(s_arr.shape + (1,) * extra_axes)
    return s_arr


@_elementwise
def scalar_mult_add_su3_matrix(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i][j] = a[i][j] + s * b[i][j] for real s."""
    return np.add(a, _scalar_factor(s, a, 3) * b, out=out)


@_elementwise
def scalar_mult_add_su3_vector(a: np.ndarray, b: np.ndarray, s, out: np.ndarray) -> np.ndarray:
    """c[i] = a[i] + s * b[i] for real s."""
    return np.add(a, _scalar_factor(s, a, 2) * b, out=out)


@_elementwise
def sub_four_su3_vecs(a: np.ndarray, b1: np.ndarray, b2: np.ndarray, b3: np.ndarray, b4: np.ndarray) -> np.ndarray:
    """a[i] -= b1[i] + b2[i] + b3[i] + b4[i], in place, left to right."""
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
    """Packed-lane operation tally for one kernel invocation, read off the
    kernel's own trace (``routine_trace``), two lanes to a packed operation.

    A product of two operand components is a lane of a packed multiply,
    whose left factor is broadcast: a component of a table's broadcast
    operand, or the real factor. A product with a +-1 literal is a lane of a
    sign flip, which takes one swap. Every add or subtract is a lane of a
    packed add.
    """
    trace = routine_trace(routine)
    components = {x for names in trace.operands for x in names}
    products = [left for _, left, op, right in trace.steps if op == "*" and right in components]
    signs = sum(op == "*" and right not in components for _, _, op, right in trace.steps)
    adds = len(trace.steps) - len(products) - signs
    return LaneOpCount(len(set(products)), len(products) // 2, adds // 2, signs // 2, signs // 2)


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
