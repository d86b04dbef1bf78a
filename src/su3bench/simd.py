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
reference. On a host with AVX2, the batch loops of the ten contractions and
``su3_projector`` (``native.site_lane``: more trace steps than loaded
components) run their whole blocks of sites site-lane instead: one site a
lane of a 256-bit register, 4 in double and 8 in single, each lane
performing the scalar trace's own steps, with the recipe for the sites past
the last block and for single-site ``apply``; ``native`` says how.

Every kernel's trace is the scalar reference's, paired (``trace.paired``),
so this module writes no arithmetic of its own. Pairing walks the expression
trees of results 2k and 2k + 1, the real and imaginary parts of one complex
entry, in lockstep, so a step of one and its match in the other stand side
by side and pack into one lane pair. In the eleven contractions (mat-vec,
adjoint mat-vec, the three matrix products, both half-Wilson kernels, the
four-direction kernels and ``mult_su3_mat_vec_sum_4dir``, ``su3_projector``)
the matched products share their broadcast factor, a component of the scalar
body's row operand (the matrix's, or for ``mult_su3_na`` and
``su3_projector`` the conjugated operand's, ``scalar._contract``), and read
the other operand's (re, im) pair in order, or with its lanes swapped for
the imaginary-part broadcast. The closing subtract of one part and add of
the other (real and imaginary, or the reverse where a factor is conjugated)
become one multiply of each part's right sum by its +-1 sign (exact) and one
combining add. ``routine_trace`` gives each kernel's trace, and
``trace.kernel`` builds every kernel from it: the trace's native site loop
(``native``) where it takes the call (C-contiguous float64 and float32
operands, one object or stacked; no per-call temporaries), and otherwise the
trace's Python program (``trace.program``: numpy operations over the sites,
a single object as one site). Every output component sees the same products,
added in the same order, as in the scalar reference (``tests/test_proof.py``
proves it from the two backends' traces), so no path moves a bit; where a
NaN arises is the same on every path, but its sign and payload bits may
differ.

Every kernel accepts operands with any shared leading batch shape in front
of the per-object shape documented in the scalar reference, so the vector
backend's ``batch_apply`` (``backends.Backend``) passes stacked operands to
the kernels as they are. A kernel is ``kernel(*operands, out) -> out`` (the
in-place ``sub_four_su3_vecs`` takes no ``out``) and checks nothing:
``Backend.apply`` and ``Backend.batch_apply`` are the checked entry points,
and they allocate or check ``out``. The module holds only the kernels and
the lane tallies, read off the pack plan the native loops are emitted from
(``lane_op_count``); how many sites a register step of a batch loop runs
is ``native.lanes``' alone.
"""
from __future__ import annotations

import platform
from dataclasses import dataclass
from functools import cache

import numpy as np

from . import scalar
from .trace import Trace, kernel, paired
from .types import PRECISIONS, ROUTINES, routine_spec

@cache
def routine_trace(routine: str) -> Trace:
    """The trace of the routine's kernel: the scalar reference's trace,
    paired (``trace.paired``); cached, as the program and the native loops
    read the same record."""
    return paired(scalar.routine_trace(routine))


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
    """Report what runs the vector backend's batch loops on this host: the
    register its widest loops run in, the sites a register step of them
    runs per precision (the most ``native.lanes`` gives any routine, which
    the speedup rows' lane bound reads per routine), how they run, the
    native extension (its path once loaded, "not built yet" before the
    first kernel call of this process, or why it is unavailable) and which
    loops draw seeded operands (``native.draw``); it builds nothing."""
    from . import native

    lanes = {precision: max(native.lanes(routine, precision) for routine in ROUTINES) for precision in PRECISIONS}
    if lanes["double"] > native.PACK["vector"]:
        wide = sum(native.lanes(routine, "double") == lanes["double"] for routine in ROUTINES)
        backend = (f"site-lane native C, AVX2 ({lanes['double']} lanes double, {lanes['single']} single) over whole "
                   f"blocks of sites for the {wide} routines with more steps than loaded components, the packed "
                   f"SSE2 recipe ({native.PACK['vector']} lanes) for the others and the sites past the last block, "
                   "where the module is built, else compiled numpy over sites")
    else:
        backend = (f"recipe lane sequence: packed native C, SSE2 ({native.PACK['vector']} lanes in either precision), "
                   "where the module is built, else compiled numpy over sites")
    return {
        "backend": backend,
        "width_bits": 8 * lanes["double"] * PRECISIONS["double"].itemsize,
        "lanes": lanes,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "machine": platform.machine(),
        "cpu_features": sorted(native.cpu_features()),
        "native": native.status(),
        "draw": native.draw(),
    }
