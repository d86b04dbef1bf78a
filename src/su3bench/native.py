"""The kernels' traces as C site loops, built on first use into one CPython
extension, and the checked entries that run them.

Every trace becomes one C function per precision that runs it over n sites:
each backend's ``routine_trace`` of each routine, the scalar bodies', the
vector backend's contraction recipes' and its numpy elementwise bodies'. A site
loads every component it reads, then performs each step as one
``const T tK = l op r;`` in the trace's order, in the operands' own
precision (``double`` or ``float``; x86-64 C rounds a float operation to
float), then stores every result component. So each site rounds exactly as
the trace's Python program does, and an ``out`` that is an operand reads its
values before any is written; an ``out`` that overlaps an operand any other
way is refused (see ``backends``). Where a NaN arises is the same; its sign
and payload bits may differ (gcc may fold a ``* -1.0`` sign into a
negation). Loads and stores go through ``memcpy``, which needs no
alignment, so a ``SiteBuffer`` 4 bytes off its boundary runs here too. The
+-1 signs are literals. Identical traces (``mult_adj_su3_mat_4vec`` is
``mult_adj_su3_mat_vec_4dir``; both backends' ``add_su3_vector``) share
one pair of loops.

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

The module's ``uniform(seed, out)`` draws ``types.random_operands``'
components from a seed in one pass with no ``Generator`` built: numpy's
``SeedSequence`` mixing of the seed's uint32 words (read as numpy's
``_coerce_to_uint32_array`` reads an int >= 0 or a list or tuple of them),
PCG64 seeded from its ``generate_state(4, uint64)``, the XSL-RR output on
``unsigned __int128``, ``(x >> 11) * 2**-53``, then ``u *= 2.0; u -= 1.0``
in double, stored in ``out``'s precision: the bits of
``default_rng(seed).random()`` scaled as ``random_operands`` scales them.
Any other seed or ``out`` it leaves untouched and returns
``NotImplemented``, and the draw goes through numpy. It is emitted after
the site loops and dispatchers, so their emitted source is as it was.

PCG64 is a 128-bit LCG, ``s -> s * M + inc``, so two of its steps are one
step ``s -> s * M**2 + (inc * M + inc)`` (mod 2**128), and the stream runs
as two interleaved chains: one holds the state of output i, the other that
of output i + 1, each advances by that double step, and an odd last output
comes from the first. Every output's state is the serial stream's, and its
XSL-RR output, double and store are computed from that state alone, so the
bits are numpy's by construction. Only the order of the multiplies differs
from the serial stream's: consecutive outputs do not wait on each other's
128-bit multiply. The serial step, ``pcg64_next``, only seeds the stream.

gcc builds the module with ``-ffp-contract=off`` (no fused multiply-add,
which would round once where the trace rounds twice) and
``-fno-tree-vectorize`` (no packed arithmetic), synchronously and with a
timeout, on the first call of ``load`` in a process, which the first
``get_backend`` or kernel call makes; importing the package or counting
operations imports not even this module. The module goes to the
source checkout's git-ignored ``build/`` under a name keyed by a hash of
this file, the traces, and numpy's version and include directory, written
to a temporary file and renamed into place, so a cached module is loaded
without emitting anything and concurrent builds do not collide; its source
is kept beside it. Where there is no compiler or no numpy header, the build
fails or the module does not load, ``load`` returns None, ``status`` says
why, and every call runs its Python path.
"""
from __future__ import annotations

import hashlib
import importlib.util
import os
import shutil
import subprocess
import sysconfig
import tempfile
from pathlib import Path

import numpy as np

from .backends import _BACKENDS
from .trace import entry
from .types import OPERAND_SHAPES, ROUTINES

BUILD = Path(__file__).resolve().parents[2] / "build"
COMPILER = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-tree-vectorize",
         "-DNPY_NO_DEPRECATED_API=NPY_1_7_API_VERSION")
NUMPY_INCLUDE = np.get_include()
TIMEOUT_S = 300
MAX_ARGS = 8
_TYPES = (("d", "double"), ("f", "float"))  # loop name suffix and C type of each precision

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

/* p: each operand's first site, then the result's; step: their bytes per site. */
typedef void (*site_loop)(Py_ssize_t n, char *const *p, const Py_ssize_t *step);

/* One entry: its operand count; whether it works in place on operand 0
   (else a result argument follows the operands); each argument's
   per-object rank, -1 for a real factor, and the per-object shapes of
   them all in one table; and its loops over double and float sites. */
struct kernel {
    Py_ssize_t operands;
    int in_place;
    const int *ranks;
    const npy_intp *dims;
    site_loop d, f;
};

#define KERNEL "su3native.kernel" /* the name of a capsule of a struct kernel */
#define MAX_ARGS %(max_args)d
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

/* numpy's SeedSequence (numpy/random/bit_generator.pyx) with its pool of
   four words, fed its entropy one uint32 word at a time. */
struct seed_sequence {
    uint32_t pool[4], hash;
    Py_ssize_t words;
};

static uint32_t hashmix(struct seed_sequence *s, uint32_t value)
{
    value ^= s->hash;
    s->hash *= 0x931e8875u;
    value *= s->hash;
    return value ^ value >> 16;
}

static uint32_t mix(uint32_t x, uint32_t y)
{
    const uint32_t result = 0xca01f9ddu * x - 0x4973f715u * y;
    return result ^ result >> 16;
}

/* Every pool word into every other, once the first four words are in. */
static void mix_pool(struct seed_sequence *s)
{
    int src, dst;
    for (src = 0; src < 4; src++)
        for (dst = 0; dst < 4; dst++)
            if (src != dst)
                s->pool[dst] = mix(s->pool[dst], hashmix(s, s->pool[src]));
}

static void feed(struct seed_sequence *s, uint32_t word)
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
static int feed_int(struct seed_sequence *s, PyObject *v)
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
static void generate_state(struct seed_sequence *s, uint64_t state[4])
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

struct pcg64 {
    pcg128 state, inc;
};

static uint64_t pcg64_next(struct pcg64 *g)
{
    uint64_t x;
    unsigned rot;
    g->state = g->state * PCG_MULTIPLIER + g->inc;
    x = (uint64_t)(g->state >> 64) ^ (uint64_t)g->state;
    rot = (unsigned)(g->state >> 122);
    return x >> rot | x << (-rot & 63);
}

/* Output i of uniform from its state: the XSL-RR output pcg64_next gives
   for that state, u = (x >> 11) * 2**-53, u *= 2.0, u -= 1.0 in double,
   stored in a's precision. */
static inline void put(PyArrayObject *a, char *p, Py_ssize_t i, pcg128 state)
{
    const uint64_t x = (uint64_t)(state >> 64) ^ (uint64_t)state;
    const unsigned rot = (unsigned)(state >> 122);
    double u = (double)((x >> rot | x << (-rot & 63)) >> 11) * (1.0 / 9007199254740992.0);
    u *= 2.0;
    u -= 1.0;
    if (PyArray_TYPE(a) == NPY_DOUBLE)
        st_d(p, i, u);
    else
        st_f(p, i, (float)u);
}

/* uniform(seed, out): fill out, a C-contiguous float64 or float32 array,
   with the first out.size doubles u of numpy.random.default_rng(seed).random(),
   each as u *= 2.0, u - 1.0 in double, stored in out's precision. seed is
   an exact int >= 0 or a list or tuple of them. Returns out, or
   NotImplemented, having written nothing, for any other seed or out.
   The stream runs as two chains, so that consecutive outputs do not wait
   on each other's 128-bit multiply: s0 holds the state of output i and s1
   that of output i + 1, and each steps two outputs at once,
   s -> s * M**2 + (inc * M + inc), which is two steps of s -> s * M + inc
   (mod 2**128). An odd last output comes from s0. */
static PyObject *uniform(PyObject *Py_UNUSED(module), PyObject *const *args, Py_ssize_t nargs)
{
    struct seed_sequence s = {.hash = 0x43b0d7e5u};
    struct pcg64 g;
    uint64_t state[4];
    pcg128 s0, s1, m2, c2;
    PyObject *const *items;
    PyArrayObject *a;
    Py_ssize_t count, i, n;
    char *p;
    int r;
    if (nargs != 2) {
        PyErr_Format(PyExc_TypeError, "uniform takes 2 arguments (%zd given)", nargs);
        return NULL;
    }
    a = (PyArrayObject *)args[1];
    if (!PyArray_CheckExact(a) || !PyArray_IS_C_CONTIGUOUS(a) || !PyArray_ISNOTSWAPPED(a) || !PyArray_ISWRITEABLE(a)
        || (PyArray_TYPE(a) != NPY_DOUBLE && PyArray_TYPE(a) != NPY_FLOAT))
        Py_RETURN_NOTIMPLEMENTED;
    if (PyList_CheckExact(args[0]) || PyTuple_CheckExact(args[0])) {
        items = PySequence_Fast_ITEMS(args[0]);
        count = PySequence_Fast_GET_SIZE(args[0]);
    } else {
        items = args;
        count = 1;
    }
    for (i = 0; i < count; i++)
        if ((r = feed_int(&s, items[i])) <= 0) {
            if (r < 0)
                return NULL;
            Py_RETURN_NOTIMPLEMENTED;
        }
    generate_state(&s, state);
    g.state = 0; /* pcg_setseq_128_srandom_r(initstate = s0 << 64 | s1, initseq = s2 << 64 | s3) */
    g.inc = ((pcg128)state[2] << 64 | state[3]) << 1 | 1;
    pcg64_next(&g);
    g.state += (pcg128)state[0] << 64 | state[1];
    pcg64_next(&g);
    n = PyArray_SIZE(a);
    p = PyArray_BYTES(a);
    s0 = g.state * PCG_MULTIPLIER + g.inc;
    s1 = s0 * PCG_MULTIPLIER + g.inc;
    m2 = PCG_MULTIPLIER * PCG_MULTIPLIER;
    c2 = g.inc * PCG_MULTIPLIER + g.inc;
    for (i = 0; i + 1 < n; i += 2) {
        put(a, p, i, s0);
        put(a, p, i + 1, s1);
        s0 = s0 * m2 + c2;
        s1 = s1 * m2 + c2;
    }
    if (i < n)
        put(a, p, i, s0);
    Py_INCREF(a);
    return (PyObject *)a;
}

static PyMethodDef methods[] = {
    {"dispatchers", dispatchers, METH_VARARGS, "dispatchers(entries, apply, batch_apply): a backend's checked apply and batch_apply in C"},
    {"uniform", (PyCFunction)(void (*)(void))uniform, METH_FASTCALL, "uniform(seed, out): numpy.random.default_rng(seed).random() scaled to 2u - 1 into out"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "su3native", .m_size = -1, .m_methods = methods};

/* The module: dispatchers, and each entry of the table bound to a capsule of its kernel. */
PyMODINIT_FUNC PyInit_su3native(void)
{
    PyObject *m, *f;
    size_t i;
    import_array();
    if (!(out_name = PyUnicode_InternFromString("out")) || !(module_name = PyUnicode_FromString(module.m_name))
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
    """(entry name, trace, routine spec) for every routine of every
    backend; a trace takes the routine's operands in the routine's order."""
    return [(entry(kind, routine), backend.routine_trace(routine), spec)
            for kind, backend in _BACKENDS.items() for routine, spec in ROUTINES.items()]


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
    write(_PRELUDE % {"max_args": MAX_ARGS, "max_rank": max(map(len, OPERAND_SHAPES.values()))})
    loops: dict = {}  # trace -> the entry whose loops run it
    for name, trace, spec in entries:
        kinds = spec.operands if spec.in_place else spec.operands + (spec.result,)
        if len(kinds) > MAX_ARGS:
            raise ValueError(f"{name} takes {len(kinds)} arguments; the module takes at most {MAX_ARGS}")
        first = loops.setdefault(trace, name)
        if first == name:
            for code, ctype in _TYPES:
                _emit_loop(write, f"{name}_{code}", trace, code, ctype)
        ranks = [-1 if kind == "scalar" else len(OPERAND_SHAPES[kind]) for kind in kinds]
        dims = [d for kind in kinds for d in OPERAND_SHAPES[kind]]
        write(f"\nstatic const int {name}_ranks[] = {{{', '.join(map(str, ranks))}}};\n")
        write(f"static const npy_intp {name}_dims[] = {{{', '.join(map(str, dims))}}};\n")
        write(f"static const struct kernel {name}_kernel = {{{len(spec.operands)}, {int(spec.in_place)}, "
              f"{name}_ranks, {name}_dims, {first}_d, {first}_f}};\n")
    write("\nstatic struct {\n    PyMethodDef def;\n    const struct kernel *k;\n} table[] = {\n")
    for name, _, _ in entries:
        doc = f"{name}(*operands, out): its trace over the sites of C-contiguous float64 or float32 arrays"
        write(f'    {{{{"{name}", (PyCFunction)(void (*)(void))entry, METH_FASTCALL, "{doc}"}}, &{name}_kernel}},\n')
    write("};\n" + _DISPATCHERS)


def _emit_loop(write, name: str, trace, code: str, ctype: str) -> None:
    """One trace over n sites in one precision: per site, load the
    components the steps read, run the steps, store the results."""
    known = {result for result, _, _, _ in trace.steps} | {x for names in trace.operands for x in names}
    read = {x for _, left, _, right in trace.steps for x in (left, right)} | set(trace.results)

    def value(x: str) -> str:
        return x if x in known else f"(({ctype}){float(x)!r})"  # any other name is a +-1 sign

    m = len(trace.operands)
    write(f"\nstatic void {name}(Py_ssize_t n, char *const *p, const Py_ssize_t *step)\n{{\n")
    write(f"    const char {', '.join(f'*a{k} = p[{k}]' for k in range(m))};\n")
    write(f"    char *c = p[{m}];\n")
    write(f"    const Py_ssize_t {', '.join(f's{k} = step[{k}]' for k in range(m + 1))};\n")
    write(f"    for (; n > 0; n--, {', '.join(f'a{k} += s{k}' for k in range(m))}, c += s{m}) {{\n")
    for k, names in enumerate(trace.operands):
        for i, x in enumerate(names):
            if x in read:
                write(f"        const {ctype} {x} = ld_{code}(a{k}, {i});\n")
    for result, left, op, right in trace.steps:
        write(f"        const {ctype} {result} = {value(left)} {op} {value(right)};\n")
    for i, x in enumerate(trace.results):
        write(f"        st_{code}(c, {i}, {x});\n")
    write("    }\n}\n")
