"""The kernels' traces as C site loops, built on first use into one CPython
extension, and the checked entries that run them.

Every trace becomes one C function per precision that runs it over n sites:
each backend's ``routine_trace`` of each routine, the scalar bodies' and
the vector backend's (the scalar traces paired, ``trace.paired``, with their
steps in level order, ``trace.level_order``). A site
loads every component it reads, then performs the trace's steps in its
order, in the operands' own precision (``double`` or ``float``; x86-64 C
rounds a float operation to float), then stores every result component.
The scalar backend's loops are plain: each step is one
``const T tK = l op r;``. The vector backend's are the packed SSE2 recipe
(``simd``): its ``pack_plan`` pairs steps 2k and 2k + 1 into one operation
on a GCC vector of two lanes (``v2d``, 128 bits of double; ``v2f``, two
floats, the low half of an SSE register), ``const v2d tA_tB = l op r;``,
whose operands are registers earlier steps made, a broadcast of one
component, a constant of two +-1 signs, or two adjacent components loaded
as one (``ld2_d``), their lanes swapped where the trace reads them
reversed (``swap_d``); results 2o and 2o + 1 are stored as one. Each lane
performs its own step in IEEE arithmetic, so a packed loop gives the plain
loop's bits; a vector trace that does not pair so is refused at emit time.
So each site rounds exactly as the trace's Python program does, and an
``out`` that is an operand reads its values before any is written; an
``out`` that overlaps an operand any other way is refused (see
``backends``). Where a NaN arises is the same; its sign and payload bits
may differ (gcc may fold a plain loop's ``* -1.0`` sign into a negation).
Loads and stores go through ``memcpy``, which needs no alignment, so a
``SiteBuffer`` 4 bytes off its boundary runs here too. The +-1 signs are
literals. Identical traces of one backend (``mult_adj_su3_mat_4vec`` is
``mult_adj_su3_mat_vec_4dir``) share one pair of loops.

The vector backend's batch loops of the routines ``site_lane`` takes run
one site a lane (Grid's virtual nodes, Boyle et al., arXiv:1512.03487):
those whose scalar trace has more steps than operand components it reads,
the ten contractions and ``su3_projector``, decided from the trace; the four
elementwise routines keep the recipe, which beats site-lane on them. Their
site-lane loop runs the scalar trace in level order over blocks of L sites,
L = ``REGISTER_BYTES`` (32, an AVX2 register) over the item size, 4 doubles
(``v4d``) or 8 floats (``v8f``): it loads each operand's components of the
block's sites through in-register transposes of 128-bit rows (double: two
sites' rows into the halves of a register, then ``unpck{lo,hi}pd``;
single: a 4 x 4 transpose in each half, the last row of a component count
that is not a multiple of 4 overlapping the one before), performs each
trace step as one vertical operation on all L lanes, and stores the results
through the inverse transposes, every load of a block before its first
store. Each lane performs the scalar trace's own steps in IEEE arithmetic,
so the bits are the scalar backend's by construction, and an ``out`` that
is an operand is read before it is written. The loops are compiled for
their own target (``__attribute__((target("avx2")))``, no FMA) and chosen
once, when the module is initialised, by ``__builtin_cpu_supports("avx2")``:
``run`` then hands the first ``n - n % L`` sites of a call to the site-lane
loop and the rest to the recipe, so a single site (``apply``), a remainder,
and every site on a host without AVX2 or not x86-64 run the recipe.
``lanes`` gives the sites one register step of a routine's batch loop
runs, per precision, on this host; the speedup rows' lane bound and the
capability report read it.

Every callable the module exports is a builtin function bound to its data.
Each backend's routine has one METH_FASTCALL entry, named by
``trace.entry`` (``vector_mult_su3_nn``), for the kernels' own calls:
``entry(*operands, out)`` with the routine's operands in its order (the
in-place routine takes no ``out``). All 30 are one C function, ``entry``,
each bound to a capsule of its ``struct kernel``. A backend's ``apply`` and
``batch_apply`` (``dispatchers``, which ``backends.get_backend`` binds on
its first call) are one C function, ``dispatch``, bound to the backend's
routine table (routine -> kernel), its generic method and the form,
called as ``apply(routine, *operands, out=...)`` or ``batch_apply(routine,
operands, out=...)`` with no Python frame between the caller and C; the
module's ``dispatchers`` makes both, and takes only the module's own
entries. So the module has no type of its own, and the interpreter's GC
frees a dispatcher with what it holds. Both run ``run``,
which reads the arguments through numpy's C API and makes every check of
``backends``' generic path for the calls it takes (see there), at the
written argument's batch rank for an entry, 0 for ``apply`` and 1 for
``batch_apply``. It allocates a result (``PyArray_NewFromDescr`` with
operand 0's dtype) only once every check passes, and returns the argument
written. Any other call it leaves untouched: an entry returns
``NotImplemented``, and the kernel runs its Python path; a dispatcher passes
the call, as it came, to the backend's generic method, as it does every call
of another form (another keyword, a positional ``out``, an unknown
routine). So neither changes a result or an error message.

The module's ``operands(seed, layout)`` is ``types.random_operands``'
native path. It draws the case's components from a seed in one pass with
no ``Generator`` built: numpy's ``SeedSequence`` mixing of the seed's
uint32 words (read as numpy's ``_coerce_to_uint32_array`` reads an int >= 0
or a list or tuple of them), PCG64 seeded from its ``generate_state(4,
uint64)``, the XSL-RR output on ``unsigned __int128``, then ``(x >> 11) *
2**-52 - 1.0`` in double, stored in the layout's precision by a loop of
that precision: the bits of ``default_rng(seed).random()`` scaled as
``random_operands`` scales them (``u = (x >> 11) * 2**-53; u *= 2.0; u -=
1.0``, as the power-of-two scalings are exact). It reads the case's layout
as ``types._cuts`` derives it, ``(dtype, size, cuts)`` with every number a
plain int, draws ``size`` components into a new array, and returns a list
of the operands as views of it cut in C (``PyArray_NewFromDescr`` over the
draw's bytes, then ``PyArray_SetBaseObject`` to the draw, so the draw lives
as long as a view), with no numpy slice or reshape; a layout of one cut
``(0, n, (n,))`` gives the first ``n`` components as one flat array. Any
other seed it leaves untouched and returns ``NotImplemented``, having
allocated nothing, and the draw goes through numpy. A cut outside the
draw, or a layout of any other form, is a ValueError.

PCG64 is a 128-bit LCG, ``s -> s * M + inc``, so two of its steps are one
step ``s -> s * M**2 + (inc * M + inc)`` (mod 2**128), and the stream runs
as two interleaved chains: one holds the state of output i, the other that
of output i + 1, each advances by that double step, and an odd last output
comes from the first. Every output's state is the serial stream's, and its
XSL-RR output, double and store are computed from that state alone, so the
bits are numpy's by construction. Only the order of the multiplies differs
from the serial stream's: consecutive outputs do not wait on each other's
128-bit multiply.

Where the host has AVX-512F, AVX-512DQ and AVX-512 IFMA, a wide fill
(``fill_wide``) draws the first ``n - n % 16`` outputs first, 16 a step:
two groups of three zmm registers of 8 64-bit lanes hold 16 consecutive
outputs' states in 52-bit limbs, ``s = l0 + l1 * 2**52 + l2 * 2**104``
(``l2 < 2**24``), and every lane steps by ``s -> s * M**16 + C16`` with
``C16 = inc * (M**15 + ... + M + 1)``, both computed once per call on
``unsigned __int128`` and split into limbs alike. A product ``li * mj``
weighs ``2**(52 (i + j))``; ``vpmadd52luq`` adds its low 52 bits into the
limb of that weight, ``vpmadd52huq`` its high 52 bits into the next, each
into ``C16``'s limb, so the adds cost nothing. Products at ``2**156`` and
above vanish mod ``2**128``, so 9 count: ``l0 m0`` low and high, ``l0 m1``
and ``l1 m0`` low and high, and ``l0 m2``, ``l1 m1`` and ``l2 m0`` low.
Then two carries, ``a1 += a0 >> 52`` and ``a2 += a1 >> 52``; no limb is
masked in the step, as a product reads bits 0 to 51 of each and ``l2``
counts only mod ``2**24``. Its output is the same XSL-RR of ``hi = l1 >>
12 | l2 << 40`` and ``lo = l0 | l1 << 52``, masks and all in two
``vpternlogq`` (``l1`` rotated by 12 supplies both of its parts), rotated
by ``l2 >> 18`` (``vprorvq``, each lane by its own count), then the same
conversion of ``x >> 11`` to double, multiply by ``2**-52`` and subtract of
1.0, one operation at a time, then a conversion to float in single, so each
lane gives ``put``'s bits. The states of the first two outputs it does not
draw start the two chains, which draw the rest; on any other host,
AVX-512 hosts without IFMA among them, they draw every output. The fill is
compiled for its own target
(``__attribute__((target("avx512f,avx512dq,avx512ifma")))``) and chosen
once, when the module is initialised, by ``__builtin_cpu_supports``; the
rest of the module stays SSE2 code, and ``operands_fill()`` says which loops
run.

The module's ``equal(a, b)`` is ``verify.check_routine``'s equality pass:
True or False, as numpy's ``not (a != b).any()`` answers (a NaN equals
nothing, itself included; ``-0.0`` equals ``+0.0``), for two exact,
C-contiguous, native-order arrays of one shape and one dtype, float64 or
float32. Any other pair it leaves to numpy and returns ``NotImplemented``.
It compares with the packed loops' two-lane vectors (``v2d``, ``v2f``),
eight components a step into four independent masks, as gcc vectorises no
plain loop here.

The draw, the views, ``equal`` and the module's init are emitted after the
site loops and dispatchers, whose emitted source they leave as it is, and
on ELF hosts every function among them goes to a text section of its own
(``.text.after``) that the linker places after ``.text``, so that a change
to them moves no site loop or dispatcher in the binary: gcc orders the
functions of ``.text`` by its call graph, not by the source.

gcc builds the module with ``-ffp-contract=off`` (no fused multiply-add,
which would round once where the trace rounds twice, in the site loops, the
site-lane loops and the wide fill's doubles alike; ``vpmadd52`` is exact
integer arithmetic) and ``-fno-tree-vectorize`` (no packed arithmetic but
the vector loops' own), synchronously and with a timeout, on the first call
of ``load`` in a process, which the first ``get_backend`` or kernel call
makes; importing the package or counting operations imports not even this
module. The module goes to the source checkout's git-ignored ``build/``
under a name keyed by a hash of this file, the traces, and numpy's version
and include directory, written to a temporary file and renamed into place,
so a cached module is loaded without emitting anything and concurrent
builds do not collide; its source is kept beside it. Where there is no
compiler or no numpy header, the build fails or the module does not load,
``load`` returns None, ``status`` says why, and every call runs its Python
path. A module of other traces or of another version of this file stays in
``build/`` until ``prune`` removes it.
"""
from __future__ import annotations

import hashlib
import importlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
from functools import cache
from pathlib import Path

import numpy as np

from .backends import _BACKENDS
from .trace import entry, level_order
from .types import OPERAND_SHAPES, PRECISIONS, ROUTINES

BUILD = Path(__file__).resolve().parents[2] / "build"
COMPILER = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-tree-vectorize",
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION")
NUMPY_INCLUDE = np.get_include()
TIMEOUT_S = 300
_TYPES = (("d", "double"), ("f", "float"))  # loop name suffix and C type of each precision
PACK = {"scalar": 1, "vector": 2}  # trace steps to a C step in each backend's loops: plain, or the recipe's lane pairs
REGISTER_BYTES = 32  # an AVX2 register, which the vector backend's site-lane loops fill with one site a lane

_PRELUDE = r"""#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <numpy/arrayobject.h>
#include <stddef.h>
#include <string.h>

/* Component k of a site's bytes, in or out: one scalar move, at any alignment. */
static inline double ld_d(const char *p, Py_ssize_t k) { double v; memcpy(&v, p + k * sizeof v, sizeof v); return v; }
static inline float ld_f(const char *p, Py_ssize_t k) { float v; memcpy(&v, p + k * sizeof v, sizeof v); return v; }
static inline void st_d(char *p, Py_ssize_t k, double v) { memcpy(p + k * sizeof v, &v, sizeof v); }
static inline void st_f(char *p, Py_ssize_t k, float v) { memcpy(p + k * sizeof v, &v, sizeof v); }

/* The packed loops' registers: two lanes of double (SSE2's 128 bits) or of
   float; components k and k + 1 in or out as one, and the lanes swapped. */
typedef double v2d __attribute__((vector_size(16)));
typedef float v2f __attribute__((vector_size(8)));
typedef long long v2d_lanes __attribute__((vector_size(16)));
typedef int v2f_lanes __attribute__((vector_size(8)));
static inline v2d ld2_d(const char *p, Py_ssize_t k) { v2d v; memcpy(&v, p + k * sizeof(double), sizeof v); return v; }
static inline v2f ld2_f(const char *p, Py_ssize_t k) { v2f v; memcpy(&v, p + k * sizeof(float), sizeof v); return v; }
static inline void st2_d(char *p, Py_ssize_t k, v2d v) { memcpy(p + k * sizeof(double), &v, sizeof v); }
static inline void st2_f(char *p, Py_ssize_t k, v2f v) { memcpy(p + k * sizeof(float), &v, sizeof v); }
static inline v2d swap_d(v2d v) { return __builtin_shuffle(v, (v2d_lanes){1, 0}); }
static inline v2f swap_f(v2f v) { return __builtin_shuffle(v, (v2f_lanes){1, 0}); }

/* p: each operand's first site, then the result's; step: their bytes per site. */
typedef void (*site_loop)(Py_ssize_t n, char *const *p, const Py_ssize_t *step);

/* One entry: its operand count; whether it works in place on operand 0
   (else a result argument follows the operands); each argument's
   per-object rank, -1 for a real factor, and the per-object shapes of
   them all in one table; its loops over double and float sites; and its
   site-lane loops over blocks of REGISTER bytes of sites a component, or
   NULL where it has none. */
struct kernel {
    Py_ssize_t operands;
    int in_place;
    const int *ranks;
    const npy_intp *dims;
    site_loop d, f, lanes_d, lanes_f;
};

#define REGISTER %(register)d /* bytes of a site-lane loop's register: its lanes are REGISTER / item size */
static int avx2; /* whether run starts with the site-lane loops; set once, at module init */

#define KERNEL "su3native.kernel" /* the name of a capsule of a struct kernel */
#define MAX_ARGS %(max_args)d /* the most arguments an entry takes: its operands, and out unless in place */
#define MAX_RANK %(max_rank)d
#define DIMS(x) PyArray_DIMS((PyArrayObject *)(x))

/* Run k over the sites of a call, its `count` operands and out (None for
   a fresh result, and for the in-place routine), and return a new
   reference to what it wrote: operand 0 in place, else out, or a new
   array. It takes only calls that backends' generic checks pass: every
   argument an exact numpy.ndarray, C-contiguous, in native byte order, of
   float64 or float32, all of one type; the written one writeable; each
   array shaped the batch shape followed by its per-object shape; a real
   factor 0-d or of the batch shape, or for float64 a Python float; the
   written argument sharing no byte with another unless it is that one
   (the same first byte, shape and strides), and in place none. The batch
   rank is `rank` (0 or 1), or for rank -1 the written argument's (out is
   then required). Only once every check passes is a result allocated,
   with operand 0's dtype; no Python code runs between the checks and the
   loop. For any other call it writes nothing and returns
   NotImplemented with no error set. */
static PyObject *run(const struct kernel *k, int rank, PyObject *const *operands, Py_ssize_t count, PyObject *out)
{
    PyObject *args[MAX_ARGS + 1];
    char *p[MAX_ARGS + 1];
    int nd[MAX_ARGS + 1], type = -1;
    Py_ssize_t step[MAX_ARGS + 1], n = 1, size, i, j;
    double floats[MAX_ARGS];
    const npy_intp *batch, *dims = k->dims;
    site_loop lanes;
    const Py_ssize_t nargs = count + (out != Py_None), slots = k->operands + !k->in_place, target = k->in_place ? 0 : k->operands;

    if (count != k->operands || (out == Py_None ? rank < 0 && !k->in_place : k->in_place))
        Py_RETURN_NOTIMPLEMENTED;
    memcpy(args, operands, count * sizeof *args);
    args[count] = out;
    for (i = 0; i < nargs; i++) {
        PyArrayObject *a = (PyArrayObject *)args[i];
        if (k->ranks[i] < 0 && type == NPY_DOUBLE && PyFloat_CheckExact(args[i])) {
            floats[i] = PyFloat_AS_DOUBLE(args[i]);
            p[i] = (char *)&floats[i];
            nd[i] = 0;
            continue;
        }
        if (!PyArray_CheckExact(a) || !PyArray_IS_C_CONTIGUOUS(a) || !PyArray_ISNOTSWAPPED(a)
            || (type < 0 ? PyArray_TYPE(a) != NPY_DOUBLE && PyArray_TYPE(a) != NPY_FLOAT : PyArray_TYPE(a) != type)
            || (i == target && !PyArray_ISWRITEABLE(a)))
            Py_RETURN_NOTIMPLEMENTED;
        type = PyArray_TYPE(a);
        p[i] = PyArray_BYTES(a);
        nd[i] = PyArray_NDIM(a);
    }
    if ((rank < 0 && (rank = nd[target] - k->ranks[target]) < 0) || nd[0] != rank + k->ranks[0])
        Py_RETURN_NOTIMPLEMENTED; /* operand 0 is never a real factor, and its leading axes are the batch shape */
    batch = DIMS(args[0]);
    size = type == NPY_DOUBLE ? sizeof(double) : sizeof(float);
    for (i = 0; i < rank; i++)
        n *= batch[i];
    for (i = 0; i < slots; i++) {
        const int r = k->ranks[i];
        if (r < 0) {
            if (nd[i] && (nd[i] != rank || memcmp(DIMS(args[i]), batch, rank * sizeof *batch)))
                Py_RETURN_NOTIMPLEMENTED;
            step[i] = nd[i] ? size : 0;
        } else {
            if (i < nargs && (nd[i] != rank + r || memcmp(DIMS(args[i]), batch, rank * sizeof *batch)
                              || memcmp(DIMS(args[i]) + rank, dims, r * sizeof *dims)))
                Py_RETURN_NOTIMPLEMENTED;
            for (step[i] = size, j = 0; j < r; j++)
                step[i] *= *dims++;
        }
    }
    for (i = 0; n && target < nargs && i < count; i++) /* overlap with the written argument (a Python float's bytes are run's own) */
        if (i != target && p[i] < p[target] + n * step[target] && p[target] < p[i] + (nd[i] ? n * step[i] : size)
            && (k->in_place || p[i] != p[target] || nd[i] != nd[target] || memcmp(DIMS(args[i]), DIMS(args[target]), nd[i] * sizeof *batch)
                || memcmp(PyArray_STRIDES((PyArrayObject *)args[i]), PyArray_STRIDES((PyArrayObject *)args[target]), nd[i] * sizeof *batch)))
            Py_RETURN_NOTIMPLEMENTED;
    if (nargs < slots) {
        const int r = k->ranks[target];
        npy_intp shape[1 + MAX_RANK];
        PyArray_Descr *descr = PyArray_DESCR((PyArrayObject *)args[0]);
        memcpy(shape, batch, rank * sizeof *shape);
        memcpy(shape + rank, dims - r, r * sizeof *shape);
        Py_INCREF(descr); /* which the constructor steals */
        if (!(args[target] = PyArray_NewFromDescr(&PyArray_Type, descr, rank + r, shape, NULL, NULL, 0, NULL)))
            return NULL;
        p[target] = PyArray_BYTES((PyArrayObject *)args[target]);
    } else
        Py_INCREF(args[target]);
    p[k->operands] = p[target];
    step[k->operands] = step[target];
    lanes = type == NPY_DOUBLE ? k->lanes_d : k->lanes_f;
    if (avx2 && lanes && n >= REGISTER / size) { /* whole blocks site-lane, the rest as before */
        const Py_ssize_t blocks = n - n %% (REGISTER / size);
        lanes(blocks, p, step);
        for (i = 0; i <= k->operands; i++)
            p[i] += blocks * step[i];
        n -= blocks;
    }
    (type == NPY_DOUBLE ? k->d : k->f)(n, p, step);
    return args[target];
}

/* A kernel's own call, entry(*operands, out) (in place: entry(*operands)),
   bound to a capsule of its struct kernel: every entry of the module is
   this one function. */
static PyObject *entry(PyObject *self, PyObject *const *args, Py_ssize_t nargs)
{
    const struct kernel *k = PyCapsule_GetPointer(self, KERNEL);
    if (nargs != k->operands + !k->in_place)
        Py_RETURN_NOTIMPLEMENTED;
    return run(k, -1, args, k->operands, k->in_place ? Py_None : args[k->operands]);
}

"""

# The site-lane loops' registers and transposes: x86-64 code compiled for
# AVX2, where each loop of ``_emit_lanes`` follows.
_LANES = r"""
#if defined(__x86_64__)
#include <immintrin.h>

#define AVX2 __attribute__((target("avx2")))

/* A site-lane loop's registers: one site a lane, 4 doubles or 8 floats. */
typedef double v4d __attribute__((vector_size(32)));
typedef float v8f __attribute__((vector_size(32)));

/* Components k and k + 1 of the 4 sites s bytes apart from p, site j in
   lane j of each: sites 0 and 2, and 1 and 3, as 128-bit rows into the
   halves of one register each, then their low and their high components. */
static inline AVX2 void ld4_d(const char *p, Py_ssize_t s, Py_ssize_t k, v4d *x, v4d *y)
{
    const __m256d r02 = _mm256_loadu2_m128d((const double *)(p + 2 * s) + k, (const double *)p + k);
    const __m256d r13 = _mm256_loadu2_m128d((const double *)(p + 3 * s) + k, (const double *)(p + s) + k);
    *x = _mm256_unpacklo_pd(r02, r13);
    *y = _mm256_unpackhi_pd(r02, r13);
}

/* ld4_d's inverse: x and y into components k and k + 1 of the 4 sites. */
static inline AVX2 void st4_d(char *p, Py_ssize_t s, Py_ssize_t k, v4d x, v4d y)
{
    _mm256_storeu2_m128d((double *)(p + 2 * s) + k, (double *)p + k, _mm256_unpacklo_pd(x, y));
    _mm256_storeu2_m128d((double *)(p + 3 * s) + k, (double *)(p + s) + k, _mm256_unpackhi_pd(x, y));
}

/* Components k to k + 3 of the 8 sites s bytes apart from p, site j in lane
   j of each: sites j and j + 4 as 128-bit rows into the halves of one
   register, and a 4 x 4 transpose in each half. */
static inline AVX2 void ld8_f(const char *p, Py_ssize_t s, Py_ssize_t k, v8f *w, v8f *x, v8f *y, v8f *z)
{
    const __m256 r04 = _mm256_loadu2_m128((const float *)(p + 4 * s) + k, (const float *)p + k);
    const __m256 r15 = _mm256_loadu2_m128((const float *)(p + 5 * s) + k, (const float *)(p + s) + k);
    const __m256 r26 = _mm256_loadu2_m128((const float *)(p + 6 * s) + k, (const float *)(p + 2 * s) + k);
    const __m256 r37 = _mm256_loadu2_m128((const float *)(p + 7 * s) + k, (const float *)(p + 3 * s) + k);
    const __m256 lo01 = _mm256_unpacklo_ps(r04, r15), hi01 = _mm256_unpackhi_ps(r04, r15);
    const __m256 lo23 = _mm256_unpacklo_ps(r26, r37), hi23 = _mm256_unpackhi_ps(r26, r37);
    *w = _mm256_shuffle_ps(lo01, lo23, 0x44);
    *x = _mm256_shuffle_ps(lo01, lo23, 0xee);
    *y = _mm256_shuffle_ps(hi01, hi23, 0x44);
    *z = _mm256_shuffle_ps(hi01, hi23, 0xee);
}

/* ld8_f's inverse: w, x, y and z into components k to k + 3 of the 8 sites. */
static inline AVX2 void st8_f(char *p, Py_ssize_t s, Py_ssize_t k, v8f w, v8f x, v8f y, v8f z)
{
    const __m256 lo01 = _mm256_unpacklo_ps(w, x), hi01 = _mm256_unpackhi_ps(w, x);
    const __m256 lo23 = _mm256_unpacklo_ps(y, z), hi23 = _mm256_unpackhi_ps(y, z);
    _mm256_storeu2_m128((float *)(p + 4 * s) + k, (float *)p + k, _mm256_shuffle_ps(lo01, lo23, 0x44));
    _mm256_storeu2_m128((float *)(p + 5 * s) + k, (float *)(p + s) + k, _mm256_shuffle_ps(lo01, lo23, 0xee));
    _mm256_storeu2_m128((float *)(p + 6 * s) + k, (float *)(p + 2 * s) + k, _mm256_shuffle_ps(hi01, hi23, 0x44));
    _mm256_storeu2_m128((float *)(p + 7 * s) + k, (float *)(p + 3 * s) + k, _mm256_shuffle_ps(hi01, hi23, 0xee));
}
"""

# The dispatchers and the module's init, after the entries' table.
_DISPATCHERS = r"""
static PyObject *out_name, *module_name; /* "out", interned as a call's keyword names are; "su3native" */

/* A backend's apply, called as (routine, *operands, out=...), or
   batch_apply, called as (routine, operands, out=...), bound to (kernels,
   generic, batch): kernels maps each routine to a capsule of the struct
   kernel that runs it, and batch is True for batch_apply. It runs a call of
   that form through run, at batch rank 0 or 1; every other call, and every
   call run refuses, it passes to generic, the backend's Python method, with
   the same arguments. */
static PyObject *dispatch(PyObject *self, PyObject *const *args, Py_ssize_t nargs, PyObject *kwnames)
{
    const Py_ssize_t nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    const int out_only = nkw == 0 || (nkw == 1 && (PyTuple_GET_ITEM(kwnames, 0) == out_name
                                                   || PyUnicode_Compare(PyTuple_GET_ITEM(kwnames, 0), out_name) == 0));
    PyObject *kernel, *result = Py_NotImplemented;
    if (nargs >= 1 && out_only && PyUnicode_CheckExact(args[0]) && (kernel = PyDict_GetItemWithError(PyTuple_GET_ITEM(self, 0), args[0]))) {
        const struct kernel *k = PyCapsule_GetPointer(kernel, KERNEL); /* NULL if self[0] was altered from Python */
        PyObject *out = nkw ? args[nargs] : Py_None;
        if (!k)
            return NULL;
        if (PyTuple_GET_ITEM(self, 2) == Py_False)
            result = run(k, 0, args + 1, nargs - 1, out);
        else if (nargs == 2 && (PyTuple_CheckExact(args[1]) || PyList_CheckExact(args[1])))
            result = run(k, 1, PySequence_Fast_ITEMS(args[1]), PySequence_Fast_GET_SIZE(args[1]), out);
        if (result != Py_NotImplemented)
            return result;
    }
    if (PyErr_Occurred()) /* from the lookup */
        return NULL;
    return PyObject_Vectorcall(PyTuple_GET_ITEM(self, 1), args, nargs, kwnames);
}

static PyMethodDef forms[] = {
    {"apply", (PyCFunction)(void (*)(void))dispatch, METH_FASTCALL | METH_KEYWORDS, "apply(routine, *operands, out=None): a backend's checked apply in C"},
    {"batch_apply", (PyCFunction)(void (*)(void))dispatch, METH_FASTCALL | METH_KEYWORDS, "batch_apply(routine, operands, out=None): a backend's checked batch_apply in C"},
};

/* def as a builtin function of the module bound to self, whose reference it takes. */
static PyObject *bind(PyMethodDef *def, PyObject *self)
{
    PyObject *f = self ? PyCFunction_NewEx(def, self, module_name) : NULL;
    Py_XDECREF(self);
    return f;
}

/* dispatchers(entries, apply, batch_apply): {"apply": ..., "batch_apply":
   ...}, the forms bound to the kernels of `entries` (routine -> one of
   this module's entries) and the generic methods apply and batch_apply.
   Any other value in `entries` is refused before its self is read. */
static PyObject *dispatchers(PyObject *Py_UNUSED(module), PyObject *args)
{
    PyObject *entries, *generic[2], *routine, *value, *kernels, *f, *result = NULL;
    Py_ssize_t pos = 0;
    int i;
    if (!PyArg_ParseTuple(args, "O!OO:dispatchers", &PyDict_Type, &entries, &generic[0], &generic[1]) || !(kernels = PyDict_New()))
        return NULL;
    while (PyDict_Next(entries, &pos, &routine, &value)) {
        if (!PyCFunction_Check(value) || PyCFunction_GET_FUNCTION(value) != (PyCFunction)(void (*)(void))entry) {
            PyErr_Format(PyExc_TypeError, "%R is not an entry of this module", value);
            goto done;
        }
        if (PyDict_SetItem(kernels, routine, PyCFunction_GET_SELF(value)) < 0)
            goto done;
    }
    result = PyDict_New();
    for (i = 0; result && i < 2; i++) {
        f = bind(&forms[i], PyTuple_Pack(3, kernels, generic[i], i ? Py_True : Py_False));
        if (!f || PyDict_SetItemString(result, forms[i].ml_name, f) < 0)
            Py_CLEAR(result);
        Py_XDECREF(f);
    }
done:
    Py_DECREF(kernels);
    return result;
}

/* Everything below goes to a text section of its own (.text.after), which
   the linker places after .text: gcc orders the functions of .text by its
   call graph, not by the source, and among them these would move the site
   loops and the dispatchers. */
#if defined(__ELF__)
#define AFTER_TEXT __attribute__((section(".text.after")))
#else
#define AFTER_TEXT
#endif

/* numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of
   four words, fed its entropy one uint32 word at a time. */
struct seed_sequence {
    uint32_t pool[4], hash;
    Py_ssize_t words;
};

AFTER_TEXT static uint32_t hashmix(struct seed_sequence *s, uint32_t value)
{
    value ^= s->hash;
    s->hash *= 0x931e8875u;
    value *= s->hash;
    return value ^ value >> 16;
}

AFTER_TEXT static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Every pool word into every other, once the first four words are in. */
AFTER_TEXT static void mix_pool(struct seed_sequence *s)
{
    int src, dst;
    for (src = 0; src < 4; src++)
        for (dst = 0; dst < 4; dst++)
            if (src != dst)
                s->pool[dst] = mix(s->pool[dst], hashmix(s, s->pool[src]));
}

AFTER_TEXT static void feed(struct seed_sequence *s, uint32_t word)
{
    int dst;
    if (s->words < 4)
        s->pool[s->words] = hashmix(s, word);
    else {
        if (s->words == 4)
            mix_pool(s);
        for (dst = 0; dst < 4; dst++)
            s->pool[dst] = mix(s->pool[dst], hashmix(s, word));
    }
    s->words++;
}

/* Feed v's words as numpy's _coerce_to_uint32_array reads an int: 0 is one
   word, any other value its little-endian words up to the highest nonzero
   one. Returns 1, 0 (feeding nothing more) if v is not an exact int >= 0,
   or -1 with an error set. */
AFTER_TEXT static int feed_int(struct seed_sequence *s, PyObject *v)
{
    long long low;
    int overflow, wide = 0;
    if (!PyLong_CheckExact(v))
        return 0;
    Py_INCREF(v);
    while (low = PyLong_AsLongLongAndOverflow(v, &overflow), overflow > 0) { /* 2**63 or more: 64 bits at a time */
        const unsigned long long bits = PyLong_AsUnsignedLongLongMask(v);
        PyObject *shift = PyLong_FromLong(64), *rest = shift ? PyNumber_Rshift(v, shift) : NULL;
        Py_XDECREF(shift);
        Py_DECREF(v);
        if (!rest)
            return -1;
        feed(s, (uint32_t)bits);
        feed(s, (uint32_t)(bits >> 32));
        v = rest;
        wide = 1;
    }
    Py_DECREF(v);
    if (low == -1 && PyErr_Occurred())
        return -1;
    if (overflow < 0 || low < 0)
        return 0;
    if (!wide || low) /* a wide int's top words end with its highest nonzero one */
        do
            feed(s, (uint32_t)low);
        while (low >>= 32);
    return 1;
}

/* SeedSequence.generate_state(4, numpy.uint64) of what s was fed. */
AFTER_TEXT static void generate_state(struct seed_sequence *s, uint64_t state[4])
{
    uint32_t hash = 0x8b51f9ddu, w[8];
    int i;
    if (s->words <= 4) {
        while (s->words < 4)
            s->pool[s->words++] = hashmix(s, 0);
        mix_pool(s);
    }
    for (i = 0; i < 8; i++) {
        w[i] = s->pool[i % 4] ^ hash;
        hash *= 0x58f38dedu;
        w[i] *= hash;
        w[i] ^= w[i] >> 16;
    }
    for (i = 0; i < 4; i++)
        state[i] = (uint64_t)w[2 * i + 1] << 32 | w[2 * i];
}

/* PCG64 (O'Neill, HMC-CS-2014-0905) as numpy's PCG64 runs it: a 128-bit LCG
   stepped before each output, and the XSL-RR output of the new state. */
__extension__ typedef unsigned __int128 pcg128;
#define PCG_MULTIPLIER ((pcg128)2549297995355413924ULL << 64 | 4865540595714422341ULL)

/* The stream of seed, an exact int >= 0 or a list or tuple of them, as
   numpy's PCG64 seeds it from s = SeedSequence(seed).generate_state(4,
   uint64): pcg_setseq_128_srandom_r(initstate = s0 << 64 | s1, initseq =
   s2 << 64 | s3), which from state 0 steps once (to inc), adds initstate
   and steps again; output 0 is drawn from the state one step on. Returns
   1, with *state that of output 0 and *inc the increment; 0, having read
   nothing more, for any other seed; -1 with an error set. */
AFTER_TEXT static int seed_stream(PyObject *seed, pcg128 *state, pcg128 *inc)
{
    struct seed_sequence s = {.hash = 0x43b0d7e5u};
    uint64_t words[4];
    PyObject *const *items = &seed;
    Py_ssize_t count = 1, i;
    int r;
    if (PyList_CheckExact(seed) || PyTuple_CheckExact(seed)) {
        items = PySequence_Fast_ITEMS(seed);
        count = PySequence_Fast_GET_SIZE(seed);
    }
    for (i = 0; i < count; i++)
        if ((r = feed_int(&s, items[i])) <= 0)
            return r;
    generate_state(&s, words);
    *inc = ((pcg128)words[2] << 64 | words[3]) << 1 | 1;
    *state = (((pcg128)words[0] << 64 | words[1]) + *inc) * PCG_MULTIPLIER + *inc;
    *state = *state * PCG_MULTIPLIER + *inc;
    return 1;
}

/* Output i of the draw from its state, stored in double or (single) in
   float: the XSL-RR output of that state (its two words xor'ed, rotated
   right by its top six bits), then
   (x >> 11) * 2**-52 - 1.0 in double, which is u = (x >> 11) * 2**-53,
   u *= 2.0, u -= 1.0: x >> 11 is below 2**53, and a power-of-two scaling
   of it is exact. */
AFTER_TEXT static inline void put(char *p, Py_ssize_t i, int single, pcg128 state)
{
    const uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    const double u = (double)((x >> rot | x << (-rot & 63)) >> 11) * (1.0 / 4503599627370496.0) - 1.0;
    if (single)
        st_f(p, i, (float)u);
    else
        st_d(p, i, u);
}

/* Outputs i to n - 1 into p from the two chains (see draw), s0 the state
   of output i and s1 that of output i + 1, in one precision: inlined into
   each branch of draw with `single` a constant, so that no output tests
   the type. */
AFTER_TEXT static inline __attribute__((always_inline)) void fill(char *p, Py_ssize_t i, Py_ssize_t n, int single, pcg128 s0, pcg128 s1, pcg128 m2, pcg128 c2)
{
    for (; i + 1 < n; i += 2) {
        put(p, i, single, s0);
        put(p, i + 1, single, s1);
        s0 = s0 * m2 + c2;
        s1 = s1 * m2 + c2;
    }
    if (i < n)
        put(p, i, single, s0);
}

static int wide; /* whether draw runs fill_wide before fill; set once, at module init */

#if defined(__x86_64__)
#include <immintrin.h>

#define WIDE 16 /* outputs a step of fill_wide: two registers of 8 lanes */
#define IFMA __attribute__((target("avx512f,avx512dq,avx512ifma")))
#define LIMB ((1ULL << 52) - 1) /* a 52-bit limb's bits */
#define AND_XOR 0x6a /* vpternlogq's table of (a & b) ^ c */

/* Each lane's state s -> s * m + c (mod 2**128) on 52-bit limbs: l holds
   s = l0 + l1 * 2**52 + l2 * 2**104, and m and c are split alike (m2 and
   c2 below 2**24). A product li * mj weighs 2**(52 (i + j)): vpmadd52luq
   adds its low 52 bits to the limb of that weight, vpmadd52huq its high 52
   bits to the next. Those at 2**156 and above are 0 mod 2**128, so 9 count,
   each added to c's limb of its weight: l0 m0 low (into a0); l0 m0 high,
   l0 m1 and l1 m0 low (a1); l0 m1 and l1 m0 high, l0 m2, l1 m1 and l2 m0
   low (a2). Then the carries, a1 += a0 >> 52 and a2 += a1 >> 52. No limb
   is masked: a product reads bits 0 to 51 of each, and l2 counts mod
   2**24, which its bits above 23 leave as it is (they move the products
   l2 m0 by multiples of 2**128). */
static inline IFMA __attribute__((always_inline)) void lcg8(__m512i l[3], const __m512i m[3], const __m512i c[3])
{
    const __m512i a0 = _mm512_madd52lo_epu64(c[0], l[0], m[0]);
    __m512i a1 = _mm512_madd52hi_epu64(c[1], l[0], m[0]), a2 = _mm512_madd52hi_epu64(c[2], l[0], m[1]);
    a1 = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(a1, l[0], m[1]), l[1], m[0]);
    a2 = _mm512_madd52lo_epu64(_mm512_madd52lo_epu64(_mm512_madd52hi_epu64(a2, l[1], m[0]), l[0], m[2]), l[1], m[1]);
    a2 = _mm512_madd52lo_epu64(a2, l[2], m[0]);
    a1 = _mm512_add_epi64(a1, _mm512_srli_epi64(a0, 52));
    l[0] = a0;
    l[1] = a1;
    l[2] = _mm512_add_epi64(a2, _mm512_srli_epi64(a1, 52));
}

/* Outputs i to i + 7 into p from their states, as put stores each: the
   XSL-RR output of the words hi = l1 >> 12 | l2 << 40 and lo = l0 | l1 <<
   52 (l0's and l1's bits 0 to 51, l2's 0 to 23), which is lo ^ hi = l0 ^
   (l1 >> 12 | l1 << 52) ^ l2 << 40, the middle term l1 rotated right by
   12 with its bits 40 to 51 cleared; rotated by the state's top six bits,
   l2 >> 18 (vprorvq reads its count mod 64); then (x >> 11) * 2**-52 - 1.0
   in double, one operation at a time, and in single that double
   converted. */
static inline IFMA __attribute__((always_inline)) void put8(char *p, Py_ssize_t i, int single, const __m512i l[3])
{
    const __m512i l1_l2 = _mm512_ternarylogic_epi64(_mm512_ror_epi64(l[1], 12), _mm512_set1_epi64((long long)~(LIMB >> 40 << 40)), _mm512_slli_epi64(l[2], 40), AND_XOR);
    const __m512i x = _mm512_rorv_epi64(_mm512_ternarylogic_epi64(l[0], _mm512_set1_epi64(LIMB), l1_l2, AND_XOR), _mm512_srli_epi64(l[2], 18));
    const __m512d u = _mm512_sub_pd(_mm512_mul_pd(_mm512_cvtepu64_pd(_mm512_srli_epi64(x, 11)), _mm512_set1_pd(1.0 / 4503599627370496.0)),
                                    _mm512_set1_pd(1.0));
    if (single)
        _mm256_storeu_ps((float *)p + i, _mm512_cvtpd_ps(u));
    else
        _mm512_storeu_pd((double *)p + i, u);
}

/* fill_wide's loop in one precision, `single` a constant. */
static inline IFMA __attribute__((always_inline)) Py_ssize_t wide_loop(char *p, Py_ssize_t n, int single, uint64_t l[3][WIDE], const uint64_t m[3], const uint64_t c[3])
{
    const __m512i ms[3] = {_mm512_set1_epi64((long long)m[0]), _mm512_set1_epi64((long long)m[1]), _mm512_set1_epi64((long long)m[2])};
    const __m512i cs[3] = {_mm512_set1_epi64((long long)c[0]), _mm512_set1_epi64((long long)c[1]), _mm512_set1_epi64((long long)c[2])};
    __m512i a[3], b[3];
    Py_ssize_t i;
    for (i = 0; i < 3; i++) {
        a[i] = _mm512_loadu_si512(l[i]);
        b[i] = _mm512_loadu_si512(l[i] + 8);
    }
    for (i = 0; i + WIDE <= n; i += WIDE) {
        put8(p, i, single, a);
        put8(p, i + 8, single, b);
        lcg8(a, ms, cs);
        lcg8(b, ms, cs);
    }
    _mm512_storeu_si512(l[0], a[0]);
    _mm512_storeu_si512(l[1], a[1]);
    _mm512_storeu_si512(l[2], a[2]);
    return i;
}

/* Limb k of x, bits 52 k to 52 k + 51. */
AFTER_TEXT static inline uint64_t limb(pcg128 x, int k)
{
    return (uint64_t)(x >> 52 * k) & LIMB;
}

/* The state in lane j of limbs l, of which l0 and l1 count only their bits
   0 to 51 and l2 its bits 0 to 23. */
AFTER_TEXT static inline pcg128 join(uint64_t l[3][WIDE], int j)
{
    return (pcg128)(l[2][j] & 0xffffff) << 104 | (pcg128)(l[1][j] & LIMB) << 52 | (l[0][j] & LIMB);
}

/* Outputs 0 to n - n % WIDE - 1 into p, 16 a step: lane k of register r
   holds the state of output 16j + 8r + k in limbs, and every lane steps by
   s -> s * M**16 + C16 (mod 2**128), 16 steps of s -> s * M + inc, with
   C16 = inc * (M**15 + ... + M + 1). s0 and s1, the states of outputs 0 and
   1, become those of the first two outputs it does not draw, from which fill
   draws the rest. Returns how many it drew. */
AFTER_TEXT static IFMA Py_ssize_t fill_wide(char *p, Py_ssize_t n, int single, pcg128 *s0, pcg128 *s1, pcg128 inc)
{
    uint64_t l[3][WIDE], m[3], c[3];
    pcg128 s = *s0, mk = 1, ck = 0;
    Py_ssize_t i;
    int k;
    for (i = 0; i < WIDE; i++) {
        for (k = 0; k < 3; k++)
            l[k][i] = limb(s, k);
        s = s * PCG_MULTIPLIER + inc;
        mk *= PCG_MULTIPLIER;
        ck = ck * PCG_MULTIPLIER + inc;
    }
    for (k = 0; k < 3; k++) {
        m[k] = limb(mk, k);
        c[k] = limb(ck, k);
    }
    i = single ? wide_loop(p, n, 1, l, m, c) : wide_loop(p, n, 0, l, m, c);
    *s0 = join(l, 0);
    *s1 = join(l, 1);
    return i;
}
#endif

/* Outputs 0 to n - 1 of a stream into p, in double or (single) float, s0
   the state of output 0 and inc the stream's increment. The stream runs as
   two chains, so that consecutive outputs do not wait on each other's
   128-bit multiply: one holds the state of output i and the other that of
   output i + 1, and each steps two outputs at once, s -> s * M**2 + (inc *
   M + inc), which is two steps of s -> s * M + inc (mod 2**128). An odd
   last output comes from the first. Where the host has AVX-512 IFMA,
   fill_wide draws the outputs up to the last multiple of 16 first, and the
   chains start from where it stops. */
AFTER_TEXT static void draw(char *p, Py_ssize_t n, int single, pcg128 s0, pcg128 inc)
{
    pcg128 s1 = s0 * PCG_MULTIPLIER + inc;
    const pcg128 m2 = PCG_MULTIPLIER * PCG_MULTIPLIER, c2 = inc * PCG_MULTIPLIER + inc;
    Py_ssize_t i = 0;
#if defined(__x86_64__)
    if (wide)
        i = fill_wide(p, n, single, &s0, &s1, inc);
#endif
    if (single)
        fill(p, i, n, 1, s0, s1, m2, c2);
    else
        fill(p, i, n, 0, s0, s1, m2, c2);
}

/* Whether v is an exact int from 0 to PY_SSIZE_T_MAX, stored in *x. */
AFTER_TEXT static int natural(PyObject *v, npy_intp *x)
{
    int overflow;
    long long value;
    if (!PyLong_CheckExact(v))
        return 0;
    value = PyLong_AsLongLongAndOverflow(v, &overflow);
    if (overflow || value < 0 || value > PY_SSIZE_T_MAX)
        return 0;
    *x = (npy_intp)value;
    return 1;
}

/* operands(seed, layout): types.random_operands' operands drawn from seed,
   each a view of one draw cut in C. layout is (dtype, size, cuts), as
   types._cuts derives it: float64 or float32 in native order; the size of
   the draw; and a cut (start, end, shape) an operand, its components start
   to end - 1 of the draw in C order, all of them exact ints. The draw is a
   new array of the first size doubles u of
   numpy.random.default_rng(seed).random(), each as u *= 2.0, u - 1.0 in
   double, stored in its precision; each view a C-contiguous, writeable
   array over its components whose base is the draw, which it keeps alive.
   Returns a list of the views, or NotImplemented, having allocated nothing,
   for a seed that is not an exact int >= 0 or a list or tuple of them.
   ValueError for a layout of any other form, a cut outside the draw among
   them. */
AFTER_TEXT static PyObject *operands(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyObject *layout, *cuts, *flat, *views;
    PyArray_Descr *descr;
    npy_intp size, start[MAX_ARGS], dims[MAX_ARGS][1 + MAX_RANK];
    int nd[MAX_ARGS], r;
    Py_ssize_t count, i, j;
    pcg128 state, inc;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "operands takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    layout = args[1];
    if (!PyTuple_CheckExact(layout) || PyTuple_GET_SIZE(layout) != 3 || !PyArray_DescrCheck(PyTuple_GET_ITEM(layout, 0))
        || !natural(PyTuple_GET_ITEM(layout, 1), &size) || !PyTuple_CheckExact(cuts = PyTuple_GET_ITEM(layout, 2))
        || (count = PyTuple_GET_SIZE(cuts)) > MAX_ARGS) /* a cut an operand, and an entry takes every operand */
        goto refused;
    descr = (PyArray_Descr *)PyTuple_GET_ITEM(layout, 0);
    if ((descr->type_num != NPY_DOUBLE && descr->type_num != NPY_FLOAT) || !PyArray_ISNBO(descr->byteorder))
        goto refused;
    for (i = 0; i < count; i++) {
        PyObject *cut = PyTuple_GET_ITEM(cuts, i), *shape;
        npy_intp end, n = 1;
        if (!PyTuple_CheckExact(cut) || PyTuple_GET_SIZE(cut) != 3 || !natural(PyTuple_GET_ITEM(cut, 0), &start[i])
            || !natural(PyTuple_GET_ITEM(cut, 1), &end) || !PyTuple_CheckExact(shape = PyTuple_GET_ITEM(cut, 2))
            || PyTuple_GET_SIZE(shape) > 1 + MAX_RANK)
            goto refused;
        nd[i] = (int)PyTuple_GET_SIZE(shape);
        for (j = 0; j < nd[i]; j++)
            if (!natural(PyTuple_GET_ITEM(shape, j), &dims[i][j]) || __builtin_mul_overflow(n, dims[i][j], &n))
                goto refused;
        if (start[i] > end || end > size || end - start[i] != n)
            goto refused;
    }
    if ((r = seed_stream(args[0], &state, &inc)) <= 0) {
        if (r < 0)
            return NULL;
        Py_RETURN_NOTIMPLEMENTED;
    }
    Py_INCREF(descr); /* which the constructor steals */
    if (!(flat = PyArray_NewFromDescr(&PyArray_Type, descr, 1, &size, NULL, NULL, 0, NULL)))
        return NULL;
    draw(PyArray_BYTES((PyArrayObject *)flat), size, descr->type_num == NPY_FLOAT, state, inc);
    for (views = PyList_New(count), i = 0; views && i < count; i++) {
        PyObject *view;
        Py_INCREF(descr);
        view = PyArray_NewFromDescr(&PyArray_Type, descr, nd[i], dims[i], NULL,
                                    PyArray_BYTES((PyArrayObject *)flat) + start[i] * PyArray_ITEMSIZE((PyArrayObject *)flat), NPY_ARRAY_CARRAY, NULL);
        if (view) {
            PyList_SET_ITEM(views, i, view);
            Py_INCREF(flat); /* which SetBaseObject steals, even where it fails */
        }
        if (!view || PyArray_SetBaseObject((PyArrayObject *)view, flat) < 0)
            Py_CLEAR(views);
    }
    Py_DECREF(flat);
    return views;
refused:
    PyErr_SetString(PyExc_ValueError, "operands: layout is not (dtype, size, cuts) with every cut inside the draw");
    return NULL;
}

/* operands_fill(): which loops operands draws with on this host. */
AFTER_TEXT static PyObject *operands_fill(PyObject *Py_UNUSED(module), PyObject *Py_UNUSED(args))
{
    return PyUnicode_InternFromString(wide ? "AVX-512 IFMA fill, then the two-chain scalar fill" : "two-chain scalar fill");
}

/* equal_d and equal_f: whether the n doubles (or floats) at p and q are
   pairwise equal, in IEEE comparison: a NaN equals nothing, and -0.0 equals
   +0.0. Eight components a step, as four two-lane compares whose lanes are
   all ones where a pair differs, each or'ed into a mask of its own (or'ed
   into one, gcc tests them lane by lane); then two a step, then the last
   one alone. */
#define EQUAL(code)                                                              \
    AFTER_TEXT static int equal_##code(const char *p, const char *q, Py_ssize_t n) \
    {                                                                            \
        v2##code##_lanes ne = {0, 0}, ne1 = ne, ne2 = ne, ne3 = ne;              \
        Py_ssize_t i;                                                            \
        for (i = 0; i + 8 <= n; i += 8) {                                        \
            ne |= ld2_##code(p, i) != ld2_##code(q, i);                          \
            ne1 |= ld2_##code(p, i + 2) != ld2_##code(q, i + 2);                 \
            ne2 |= ld2_##code(p, i + 4) != ld2_##code(q, i + 4);                 \
            ne3 |= ld2_##code(p, i + 6) != ld2_##code(q, i + 6);                 \
        }                                                                        \
        for (; i + 2 <= n; i += 2)                                               \
            ne |= ld2_##code(p, i) != ld2_##code(q, i);                          \
        ne |= ne1 | ne2 | ne3;                                                   \
        return !(ne[0] | ne[1]) && (i == n || ld_##code(p, i) == ld_##code(q, i)); \
    }
EQUAL(d)
EQUAL(f)

/* equal(a, b): not (a != b).any() for two exact, C-contiguous, native-order
   arrays of one shape and one dtype, float64 or float32, as True or False.
   NotImplemented for any other pair. */
AFTER_TEXT static PyObject *equal(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    PyArrayObject *a, *b;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "equal takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    a = (PyArrayObject *)args[0];
    b = (PyArrayObject *)args[1];
    if (!PyArray_CheckExact(a) || !PyArray_CheckExact(b) || !PyArray_IS_C_CONTIGUOUS(a) || !PyArray_IS_C_CONTIGUOUS(b)
        || !PyArray_ISNOTSWAPPED(a) || !PyArray_ISNOTSWAPPED(b) || PyArray_TYPE(a) != PyArray_TYPE(b)
        || (PyArray_TYPE(a) != NPY_DOUBLE && PyArray_TYPE(a) != NPY_FLOAT)
        || PyArray_NDIM(a) != PyArray_NDIM(b) || memcmp(PyArray_DIMS(a), PyArray_DIMS(b), PyArray_NDIM(a) * sizeof(npy_intp)))
        Py_RETURN_NOTIMPLEMENTED;
    if ((PyArray_TYPE(a) == NPY_DOUBLE ? equal_d : equal_f)(PyArray_BYTES(a), PyArray_BYTES(b), PyArray_SIZE(a)))
        Py_RETURN_TRUE;
    Py_RETURN_FALSE;
}

static PyMethodDef methods[] = {
    {"dispatchers", dispatchers, METH_VARARGS, "dispatchers(entries, apply, batch_apply): a backend's checked apply and batch_apply in C"},
    {"operands", (PyCFunction)(void (*)(void))operands, METH_FASTCALL, "operands(seed, layout): random_operands' views of one uniform draw from seed"},
    {"operands_fill", operands_fill, METH_NOARGS, "operands_fill(): which loops operands draws with on this host"},
    {"equal", (PyCFunction)(void (*)(void))equal, METH_FASTCALL, "equal(a, b): not (a != b).any() for two C-contiguous arrays of one shape and dtype"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "su3native", .m_size = -1, .m_methods = methods};

/* The module: dispatchers, and each entry of the table bound to a capsule of its kernel. */
AFTER_TEXT PyMODINIT_FUNC PyInit_su3native(void)
{
    PyObject *m, *f;
    size_t i;
    import_array();
#if defined(__x86_64__)
    wide = __builtin_cpu_supports("avx512f") && __builtin_cpu_supports("avx512dq") && __builtin_cpu_supports("avx512ifma");
    avx2 = __builtin_cpu_supports("avx2");
#endif
    if (!(out_name = PyUnicode_InternFromString("out")) || !(module_name = PyUnicode_InternFromString(module.m_name))
        || !(m = PyModule_Create(&module)))
        return NULL;
    for (i = 0; i < Py_ARRAY_LENGTH(table); i++) {
        f = bind(&table[i].def, PyCapsule_New((void *)table[i].k, KERNEL, NULL));
        if (!f || PyModule_AddObjectRef(m, table[i].def.ml_name, f) < 0) {
            Py_XDECREF(f);
            Py_DECREF(m);
            return NULL;
        }
        Py_DECREF(f);
    }
    return m;
}
"""

_state: tuple | None = None  # (module or None, status), once load() has run


def load():
    """The extension module, or None where it is unavailable (``status``
    says why). The first call in a process loads it from ``BUILD``,
    emitting and compiling it there first if no module for these traces
    and this file is cached."""
    global _state
    if _state is None:
        _state = _load_or_build()
    return _state[0]


def status() -> str:
    """The loaded module's path, "not built yet", or why it is unavailable."""
    return "not built yet" if _state is None else _state[1]


def draw() -> str:
    """Which loops draw ``types.random_operands``' components from a seed:
    the module's (its ``operands_fill``), "numpy" where it is unavailable, or
    "not built yet"."""
    if _state is None:
        return "not built yet"
    return "numpy" if _state[0] is None else _state[0].operands_fill()


@cache
def cpu_features() -> frozenset:
    """The CPU features numpy's dispatch found on this host (cpuid, and the
    register state the OS saves, as ``__builtin_cpu_supports`` reads them in
    the module's init); empty where numpy does not say."""
    for name in ("numpy._core._multiarray_umath", "numpy.core._multiarray_umath"):
        try:
            umath = importlib.import_module(name)
            return frozenset(k for k, v in umath.__cpu_features__.items() if v)
        except (ImportError, AttributeError):
            continue
    return frozenset()


@cache
def lanes(routine: str, precision: str) -> int:
    """The sites one register step of the vector backend's batch loop of
    `routine` runs in `precision` on this host: one site a lane of an AVX2
    register (``REGISTER_BYTES`` over the item size, 4 in double and 8 in
    single) where the routine runs site-lane (``site_lane``) and the host
    has AVX2, else the recipe's ``PACK["vector"]``, 2 in either precision.
    The speedup rows' lane bound, the capability report and the census read
    it; it builds nothing. ValueError for an unknown routine or precision."""
    if precision not in PRECISIONS:
        raise ValueError(f"unknown precision {precision!r}; expected one of {sorted(PRECISIONS)}")
    if routine not in ROUTINES:
        raise ValueError(f"unknown routine {routine!r}")
    if "AVX2" in cpu_features() and site_lane(_BACKENDS["scalar"].routine_trace(routine)):
        return REGISTER_BYTES // PRECISIONS[precision].itemsize
    return PACK["vector"]


def prune() -> list[Path]:
    """Remove every module and source in ``BUILD`` that another version of
    the traces or of this file built (another key than the current one), and
    return them. Never called on load: checkouts that share ``BUILD`` would
    rebuild each other's modules."""
    current = f"su3native_{_key(_entries())}."
    stale = sorted(path for path in BUILD.glob("su3native_*") if path.is_file() and not path.name.startswith(current))
    for path in stale:
        path.unlink()
    return stale


def dispatchers(kind: str, apply, batch_apply) -> dict:
    """Backend `kind`'s ``apply`` and ``batch_apply`` as the module's
    dispatchers over its entries, in front of the generic methods `apply`
    and `batch_apply`; {} where the module is unavailable. Loads the module
    on a process's first call."""
    module = load()
    if module is None:
        return {}
    return module.dispatchers({routine: getattr(module, entry(kind, routine)) for routine in ROUTINES}, apply, batch_apply)


class _Unavailable(Exception):
    """Why the extension cannot be used on this host."""


def _load_or_build() -> tuple:
    entries = _entries()
    stem = f"su3native_{_key(entries)}"
    path = BUILD / f"{stem}{sysconfig.get_config_var('EXT_SUFFIX')}"
    try:
        if not path.is_file():
            _build(entries, stem, path)
        spec = importlib.util.spec_from_file_location("su3native", path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    except _Unavailable as err:
        return None, str(err)
    except (OSError, ImportError) as err:
        return None, f"{type(err).__name__}: {err}"
    return module, str(path)


def _entries() -> list[tuple]:
    """(entry name, trace, routine spec, lanes, site-lane trace) for every
    routine of every backend; a trace takes the routine's operands in the
    routine's order, and its loops run `lanes` of its steps as one
    (``PACK``). The site-lane trace, the scalar trace in level order, is the
    vector backend's where ``site_lane`` holds, else None."""
    return [(entry(kind, routine), backend.routine_trace(routine), spec, PACK[kind],
             _site_lane_trace(routine) if kind == "vector" else None)
            for kind, backend in _BACKENDS.items() for routine, spec in ROUTINES.items()]


def _site_lane_trace(routine: str):
    """The trace the vector backend's site-lane loops of `routine` run, or
    None where ``site_lane`` does not hold."""
    trace = _BACKENDS["scalar"].routine_trace(routine)
    return level_order(trace) if site_lane(trace) else None


def _key(entries) -> str:
    """A hash of this file (the emitter, its C and its flags), the Python
    ABI, numpy's version and include directory, and every entry."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(f"{sysconfig.get_config_var('EXT_SUFFIX')} {np.__version__} {NUMPY_INCLUDE}".encode())
    for item in entries:
        h.update(repr(item).encode())
    return h.hexdigest()[:16]


def _build(entries, stem: str, path: Path) -> None:
    """Emit the source and compile it into `path`, keeping the source beside
    it as `stem`.c."""
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise _Unavailable(f"no Python.h in {include}")
    if not os.path.isfile(os.path.join(NUMPY_INCLUDE, "numpy", "arrayobject.h")):
        raise _Unavailable(f"no numpy/arrayobject.h in {NUMPY_INCLUDE}")
    cc = shutil.which(COMPILER)
    if cc is None:
        raise _Unavailable(f"no C compiler: {COMPILER} is not on PATH")
    BUILD.mkdir(parents=True, exist_ok=True)
    fd, source = tempfile.mkstemp(suffix=".c", prefix=f"{stem}.", dir=BUILD)
    built = source[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as f:
            _emit(f.write, entries)
        try:
            done = subprocess.run([cc, *FLAGS, "-I", include, "-I", NUMPY_INCLUDE, "-o", built, source],
                                  capture_output=True, text=True, timeout=TIMEOUT_S)
        except subprocess.TimeoutExpired:
            raise _Unavailable(f"{COMPILER} timed out after {TIMEOUT_S} s") from None
        if done.returncode:
            lines = done.stderr.strip().splitlines() or [f"exit status {done.returncode}"]
            raise _Unavailable(f"{COMPILER} failed: {lines[-1]}")
        os.replace(source, BUILD / f"{stem}.c")
        os.replace(built, path)
    finally:
        for leftover in (source, built):
            if os.path.exists(leftover):
                os.unlink(leftover)


def _emit(write, entries) -> None:
    """Write the module's C source through `write`, a line at a time."""
    write(_PRELUDE % {"max_args": max(len(spec.operands) + (not spec.in_place) for spec in ROUTINES.values()),
                      "max_rank": max(map(len, OPERAND_SHAPES.values())), "register": REGISTER_BYTES})
    write(_LANES)
    blocks: dict = {}  # site-lane trace -> the loops that run it, named by its first entry
    for name, *_, lane_trace in entries:
        if lane_trace is not None and blocks.setdefault(lane_trace, f"{name}_lanes") == f"{name}_lanes":
            for code, ctype in _TYPES:
                _emit_lanes(write, f"{name}_lanes_{code}", lane_trace, code, ctype)
    write("\n#define LANES(loop) loop\n#else\n#define LANES(loop) NULL\n#endif\n")
    loops: dict = {}  # (lanes, trace) -> the entry whose loops run it
    for name, trace, spec, lanes, lane_trace in entries:
        kinds = spec.operands if spec.in_place else spec.operands + (spec.result,)
        first = loops.setdefault((lanes, trace), name)
        if first == name:
            for code, ctype in _TYPES:
                _emit_loop(write, f"{name}_{code}", trace, code, ctype, lanes)
        ranks = [-1 if kind == "scalar" else len(OPERAND_SHAPES[kind]) for kind in kinds]
        dims = [d for kind in kinds for d in OPERAND_SHAPES[kind]]
        block = blocks.get(lane_trace)
        wide = f"LANES({block}_d), LANES({block}_f)" if block else "NULL, NULL"
        write(f"\nstatic const int {name}_ranks[] = {{{', '.join(map(str, ranks))}}};\n")
        write(f"static const npy_intp {name}_dims[] = {{{', '.join(map(str, dims))}}};\n")
        write(f"static const struct kernel {name}_kernel = {{{len(spec.operands)}, {int(spec.in_place)}, "
              f"{name}_ranks, {name}_dims, {first}_d, {first}_f, {wide}}};\n")
    write("\nstatic struct {\n    PyMethodDef def;\n    const struct kernel *k;\n} table[] = {\n")
    for name, *_ in entries:
        doc = f"{name}(*operands, out): its trace over the sites of C-contiguous float64 or float32 arrays"
        write(f'    {{{{"{name}", (PyCFunction)(void (*)(void))entry, METH_FASTCALL, "{doc}"}}, &{name}_kernel}},\n')
    write("};\n" + _DISPATCHERS)


def pack_plan(trace, lanes: int) -> tuple[list, list, list]:
    """`trace` as steps of `lanes` lanes: (loads, steps, stores), each value
    named by its lanes' trace names, a tuple. A load is (value, operand,
    component): one component, or `lanes` adjacent ones from that one on.
    Step k, (value, left, op, right), performs trace steps lanes * k to
    lanes * k + lanes - 1, one a lane, the value its results. A store is
    (result component, value), from that component on.

    An operand of a step or a store is a value a step made, or else: one
    operand component in every lane (a broadcast of its load), a literal in
    every lane (a constant), or adjacent components of one operand, in
    order (a load) or reversed (the load, its lanes swapped). At one lane
    every trace is its own plan; ValueError for one that does not pack so.
    The plan holds no arithmetic of its own."""
    at = {x: (k, i) for k, names in enumerate(trace.operands) for i, x in enumerate(names)}
    names = at.keys() | {result for result, _, _, _ in trace.steps}  # any other name is a literal
    loads: dict = {}  # value -> (operand, component)
    made: set = set()

    def take(value: tuple) -> tuple:
        if value in made or not set(value) & names:  # a register, or a constant
            return value
        if len(set(value)) == 1 and value[0] in at:  # a broadcast
            loads[value[:1]] = at[value[0]]
            return value
        for pair in (value, value[::-1]):  # adjacent components, in order or reversed
            k, i = at.get(pair[0], (0, -1))
            if i >= 0 and trace.operands[k][i:i + lanes] == pair:
                loads[pair] = (k, i)
                return value
        raise ValueError(f"{value} does not pack into {lanes} lanes: it is no register, broadcast, constant or adjacent components")

    if len(trace.steps) % lanes or len(trace.results) % lanes:
        raise ValueError(f"{len(trace.steps)} steps and {len(trace.results)} results do not pack into {lanes} lanes")
    steps = []
    for s in range(0, len(trace.steps), lanes):
        results, lefts, ops, rights = zip(*trace.steps[s:s + lanes])
        if len(set(ops)) > 1:
            raise ValueError(f"steps {results} do not pack into {lanes} lanes: their operations {ops} differ")
        steps.append((results, take(lefts), ops[0], take(rights)))
        made.add(results)
    stores = [(i, take(trace.results[i:i + lanes])) for i in range(0, len(trace.results), lanes)]
    return sorted(loads.items(), key=lambda load: (*load[1], len(load[0]))), steps, stores


def _emit_loop(write, name: str, trace, code: str, ctype: str, lanes: int) -> None:
    """One trace over n sites in one precision, `lanes` trace steps to a C
    step (``pack_plan``): per site, load the components the steps read,
    run the steps, store the results."""
    loads, steps, stores = pack_plan(trace, lanes)
    vtype, wide = (ctype, "") if lanes == 1 else (f"v{lanes}{code}", str(lanes))
    values = {value for value, _ in loads} | {value for value, _, _, _ in steps}

    def c(value: tuple) -> str:
        if value in values:
            return "_".join(value)
        if value[::-1] in values:
            return f"swap_{code}({'_'.join(value[::-1])})"
        if lanes == 1:
            return f"(({ctype}){float(value[0])!r})"  # any other name is a +-1 sign
        return f"({vtype}){{{', '.join(x if (x,) in values else repr(float(x)) for x in value)}}}"

    m = len(trace.operands)
    _emit_head(write, name, m, 1)
    for value, (k, i) in loads:
        one = len(value) == 1
        write(f"        const {ctype if one else vtype} {c(value)} = ld{'' if one else wide}_{code}(a{k}, {i});\n")
    for result, left, op, right in steps:
        write(f"        const {vtype} {c(result)} = {c(left)} {op} {c(right)};\n")
    for i, value in stores:
        write(f"        st{wide}_{code}(c, {i}, {c(value)});\n")
    write("    }\n}\n")


def _emit_head(write, name: str, operands: int, sites: int, attributes: str = "") -> None:
    """A site loop's signature and the head of its walk over n sites,
    `sites` a step, each operand from a0 on and the result at c."""
    m, by = operands, "" if sites == 1 else f"{sites} * "
    write(f"\n{attributes}static void {name}(Py_ssize_t n, char *const *p, const Py_ssize_t *step)\n{{\n")
    write(f"    const char {', '.join(f'*a{k} = p[{k}]' for k in range(m))};\n")
    write(f"    char *c = p[{m}];\n")
    write(f"    const Py_ssize_t {', '.join(f's{k} = step[{k}]' for k in range(m + 1))};\n")
    write(f"    for (; n > 0; n -= {sites}, {', '.join(f'a{k} += {by}s{k}' for k in range(m))}, c += {by}s{m}) {{\n")


def site_lane(trace) -> bool:
    """Whether the vector backend runs `trace` site-lane: where it has more
    steps than operand components it reads. A site-lane block pays a
    transpose for every component it loads or stores, and gains on every
    step; the ten contractions and ``su3_projector`` pass, the four
    elementwise routines, which perform one or two steps a component, do
    not, and keep the recipe, which beats site-lane on them."""
    read = {x for _, left, _, right in trace.steps for x in (left, right)} | set(trace.results)
    return len(trace.steps) > len(read & {x for row in trace.operands for x in row})


def _emit_lanes(write, name: str, trace, code: str, ctype: str) -> None:
    """`trace`, whose steps read only operand components and step results
    (a scalar trace), over n sites, n a multiple of its lanes, one site a
    lane of an AVX2 register (``REGISTER_BYTES`` over the item size: 4
    doubles or 8 floats). Per block of sites: load every operand's
    components through transposes of 128-bit rows (``ld4_d``: 2 components
    of 4 sites; ``ld8_f``: 4 of 8, the last row of a component count that
    is not a multiple of 4 overlapping the one before), perform each step
    once as one vertical operation on the lanes, in the trace's order, then
    store the results through the inverse transposes: every load of a block
    comes before its first store."""
    itemsize = np.dtype(code).itemsize
    lanes, row = REGISTER_BYTES // itemsize, 16 // itemsize
    vtype = f"v{lanes}{code}"

    def rows(names: tuple) -> list:
        """(first component, its row's names) for the rows that cover `names`."""
        if len(names) < row:
            raise ValueError(f"{len(names)} components do not fill a {16 * 8}-bit row of {ctype}")
        starts = list(range(0, len(names) - row + 1, row)) + ([len(names) - row] if len(names) % row else [])
        return [(i, names[i:i + row]) for i in starts]

    m = len(trace.operands)
    _emit_head(write, name, m, lanes, "AVX2\n")
    for k, names in enumerate(trace.operands):
        write(f"        {vtype} {', '.join(names)};\n")
        for i, group in rows(names):
            write(f"        ld{lanes}_{code}(a{k}, s{k}, {i}, {', '.join('&' + x for x in group)});\n")
    for result, left, op, right in trace.steps:
        write(f"        const {vtype} {result} = {left} {op} {right};\n")
    for i, group in rows(trace.results):
        write(f"        st{lanes}_{code}(c, s{m}, {i}, {', '.join(group)});\n")
    write("    }\n}\n")
