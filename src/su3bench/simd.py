"""Packed-lane implementations of the su3 kernels.

The code follows a 128-bit register recipe. A complex value's (re, im) pair
rides in one packed lane group. A contraction kernel broadcasts each
component of one operand across a lane pair (``_mm_set1_pd``), multiplies it
by a pair of the other operand, adds the packed products over the
contraction index in order, and ends with one swap + sign + add that turns
the (re*re, re*im) and (im*re, im*im) lane sums into the complex result.
Where the native module is built, this backend's site loops run that
sequence packed (``native.pack_plan``): each lane pair of the trace is one
SSE2 operation on two lanes, two doubles to a 128-bit register, or in
single a 2-lane pair of floats (half the register). Each lane performs its
own step in IEEE arithmetic, so the arithmetic sequence per output
component is the recipe's, which keeps it bitwise equal to the scalar
reference.

The eleven contraction kernels (mat-vec, adjoint mat-vec, the three matrix
products, both half-Wilson kernels, the four-direction kernels and
``mult_su3_mat_vec_sum_4dir``, ``su3_projector``) are each written as that
sequence at one site, a trace over the routine's operands (``_recipe``),
from two index maps (``CONTRACTIONS``). For every term j of the sum and
every output entry, one map names the broadcast entry (the matrix's, or for
``mult_su3_na`` and ``su3_projector`` the conjugated operand's) and the
other the pair entry it multiplies. The lane swap of the imaginary-part
sums is folded into the products: an imaginary-part broadcast multiplies
the pair with its lanes swapped, so after the adds over j, left to right,
its sums line up with the real-part sums, which they meet times a +-1 sign
(exact) in one combining add. Adjoint and conjugate variants differ from the
plain ones only in their maps and the sign. The four elementwise kernels
have no arithmetic of their own: each trace is the scalar reference's, its
steps in dependency order (``trace.level_order``), so the steps that pack
into one lane pair stand side by side. ``routine_trace`` gives each
kernel's trace, and ``trace.kernel`` builds every kernel from it: the
trace's native site loop (``native``) where it takes the call (C-contiguous
float64 and float32 operands, one object or stacked; no per-call
temporaries), and otherwise the trace's Python program (``trace.program``:
numpy operations over the sites, a single object as one site). Every output
component sees the same products, added in the same order, as in the
scalar reference (``tests/test_proof.py`` proves it from the two backends'
traces), so no path moves a bit; where a NaN arises is the same on every
path, but its sign and payload bits may differ.

Every kernel accepts operands with any shared leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. A kernel is ``kernel(*operands, out) -> out`` (the
in-place ``sub_four_su3_vecs`` takes no ``out``) and checks nothing:
``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points,
and they allocate or check ``out``. The module holds only the contractions'
arithmetic and the lane tallies, read off the pack plan the native loops
are emitted from (``lane_op_count``); how many lanes those loops run is
``native.PACK``'s alone.
"""
from __future__ import annotations

import platform
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import scalar
from .trace import Trace, kernel, level_order, operand_names
from .types import OPERAND_SHAPES, PRECISIONS, ROUTINES, routine_spec

WIDTH_BITS = 128  # the SSE register the packed loops run in


def _recipe(routine: str, terms: int, x_at, y_at, conj: bool) -> Trace:
    """The recipe's operations on one site of a contraction, in its order:
    c[o] = sum_j x[o, j] * y[o, j] over the complex entries o of the
    routine's result, j from 0 to `terms` - 1, as a trace over the routine's
    operands. With conj the result is x's conjugate times y.

    x_at and y_at map an entry o (one index per axis) and j to ``(operand,
    *complex entry)``: x is the broadcast factor, y the pair factor. Every
    packed product comes first, step j by step j: each real part of x times
    y's pair, then each imaginary part times y's pair with its lanes swapped,
    so after the adds over j, left to right, the swapped sums line up with
    the real-part sums. Each swapped sum is multiplied by its sign (a +-1
    literal: -1 on the real lane, or with conj on the imaginary lane), then
    the combining add, lane by lane.
    """
    spec = routine_spec(routine)
    names = operand_names(spec)
    entries = [np.array(n, dtype=object).reshape(OPERAND_SHAPES[kind]) for n, kind in zip(names, spec.operands)]
    grid = list(np.ndindex(OPERAND_SHAPES[spec.result][:-1]))
    steps: list = []

    def step(left: str, op: str, right: str) -> str:
        steps.append((f"t{len(steps)}", left, op, right))
        return steps[-1][0]

    def entry(at, o: tuple, j: int):
        k, *e = at(*o, j)
        return entries[k][tuple(e)]

    products = []
    for j in range(terms):
        pairs = [(entry(x_at, o, j), entry(y_at, o, j)) for o in grid]
        products.append([[step(x[part], "*", y[lane ^ part]) for x, y in pairs for lane in (0, 1)] for part in (0, 1)])
    sums = products[0]
    for p in products[1:]:
        sums = [[step(s, "+", q) for s, q in zip(*part)] for part in zip(sums, p)]
    re, im = sums
    im = [step(s, "*", repr(sign)) for s, sign in zip(im, ((1.0, -1.0) if conj else (-1.0, 1.0)) * len(grid))]
    results = tuple(step(r, "+", i) for r, i in zip(re, im))
    return Trace(names, tuple(steps), results)


# Routine -> its contraction's ``_recipe`` arguments after the routine:
# terms, the broadcast and pair factors' at-maps, conj.
_FOUR_DIR = (3, lambda d, i, j: (0, d, j, i), lambda d, i, j: (1, j), True)
CONTRACTIONS = {
    "mult_su3_mat_vec": (3, lambda i, j: (0, i, j), lambda i, j: (1, j), False),
    "mult_adj_su3_mat_vec": (3, lambda i, j: (0, j, i), lambda i, j: (1, j), True),
    "mult_su3_nn": (3, lambda i, k, j: (0, i, j), lambda i, k, j: (1, j, k), False),
    "mult_su3_an": (3, lambda i, k, j: (0, j, i), lambda i, k, j: (1, j, k), True),
    # b is the conjugated operand, so its components are the broadcast ones.
    "mult_su3_na": (3, lambda i, k, j: (1, k, j), lambda i, k, j: (0, i, j), True),
    "mult_su3_mat_hwvec": (3, lambda h, i, j: (0, i, j), lambda h, i, j: (1, h, j), False),
    "mult_adj_su3_mat_hwvec": (3, lambda h, i, j: (0, j, i), lambda h, i, j: (1, h, j), True),
    "mult_adj_su3_mat_vec_4dir": _FOUR_DIR,
    "mult_adj_su3_mat_4vec": _FOUR_DIR,
    # Term s = 3 * d + j: the products are added direction-major.
    "mult_su3_mat_vec_sum_4dir": (12, lambda i, s: (0, s // 3, s % 3, i), lambda i, s: (1, s // 3, s % 3), True),
    "su3_projector": (1, lambda i, k, j: (1, k), lambda i, k, j: (0, i), True),
}


@cache
def routine_trace(routine: str) -> Trace:
    """The trace of the routine's kernel: its contraction's recipe
    (``_recipe``), or the scalar reference's trace in level order
    (``trace.level_order``); cached, as the program and the native loops
    read the same record."""
    recipe = CONTRACTIONS.get(routine)
    return _recipe(routine, *recipe) if recipe else level_order(scalar.routine_trace(routine))


# The fifteen kernels, each running its trace.
globals().update({routine: kernel("vector", spec, routine_trace) for routine, spec in ROUTINES.items()})


@dataclass(frozen=True)
class LaneOpCount:
    """Packed-lane operation tally for one kernel invocation, as the native
    vector loop performs it, ``native.PACK["vector"]`` lanes to an operation
    in either precision.

    broadcasts: components loaded alone and broadcast across a lane pair
    (matrix elements, or the conjugated operand's components, or the real
    factor s), each counted once however many operations read it.
    packed_mults / packed_adds: two-lane multiplies of component pairs and
    two-lane adds or subtracts, including the final combine add; each stands
    for two real operations. swaps: the distinct pair loads read with their
    lanes swapped. negates: multiplies by a constant +-1 pair, the sign the
    scalar backend folds into its combining subtraction; not a
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
    pack plan the native vector loops are emitted from (``native.pack_plan``
    of ``routine_trace``); importing ``native`` builds nothing. ValueError
    for an unknown routine."""
    from .native import PACK, pack_plan

    routine_spec(routine)
    trace = routine_trace(routine)
    loads, steps, stores = pack_plan(trace, PACK["vector"])
    names = {x for row in trace.operands for x in row} | {result for result, _, _, _ in trace.steps}  # else a literal
    pairs = {value for value, _ in loads if len(value) > 1}
    reads = [value for _, left, _, right in steps for value in (left, right)] + [value for _, value in stores]
    negates = sum(op == "*" and not set(right) & names for _, _, op, right in steps)
    return LaneOpCount(
        broadcasts=len(loads) - len(pairs),
        packed_mults=sum(op == "*" for _, _, op, _ in steps) - negates,
        packed_adds=sum(op in "+-" for _, _, op, _ in steps),
        swaps=len({value for value in reads if value not in pairs and value[::-1] in pairs}),
        negates=negates,
    )


def capability() -> dict:
    """Report what runs the packed recipe on this host: the register its
    loops run in, the lanes they fill per precision (``native.PACK``, which
    the speedup rows' lane bound reads too), how its sequence runs, the
    native extension (its path once loaded, "not built yet" before the first
    kernel call of this process, or why it is unavailable) and which loops
    draw seeded operands (``native.draw``); importing ``native`` builds
    nothing."""
    from . import native

    lanes = native.PACK["vector"]
    features: list[str] = []
    for mod in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = __import__(mod, fromlist=["__cpu_features__"])
            features = sorted(k for k, v in umath.__cpu_features__.items() if v)
            break
        except (ImportError, AttributeError):
            continue
    return {
        "backend": f"recipe lane sequence: packed native C, SSE2 ({lanes} lanes in either precision), "
                   "where the module is built, else compiled numpy over sites",
        "width_bits": WIDTH_BITS,
        "lanes": {precision: lanes for precision in PRECISIONS},
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": features,
        "native": native.status(),
        "draw": native.draw(),
    }
