"""The kernels' traces as C site loops, built on first use into one CPython
extension, and the checked entries that run them.

Every trace becomes one C function per precision that runs it over n sites:
each backend's ``routine_trace`` of each routine, the scalar bodies', the
vector backend's gather tables' and its numpy elementwise bodies'. A site
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

Each backend's routine has one METH_FASTCALL entry, named by
``trace.entry`` (``vector_mult_su3_nn``), for the kernels' own calls:
``entry(*operands, out)`` with the routine's operands in its order (the
in-place routine takes no ``out``). The module's one ``dispatcher`` type is
a backend's ``apply`` or ``batch_apply`` (``dispatchers``, which
``backends.get_backend`` binds on its first call), called as
``apply(routine, *operands, out=...)`` or ``batch_apply(routine, operands,
out=...)`` with no Python frame between the caller and C. Both run ``run``,
which reads the arguments through numpy's C API and makes every check of
``backends``' generic path for the calls it takes (see there), at the
written argument's batch rank for an entry, 0 for ``apply`` and 1 for
``batch_apply``. It allocates a result (``PyArray_NewFromDescr`` with
operand 0's dtype) only once every check passes, and returns the argument
written. Any other call it leaves untouched: an entry returns
``NotImplemented``, and the kernel runs its Python path; a dispatcher passes
the call, as it came, to the backend's generic method, as it does every call
of another form (another keyword, a positional ``count`` or ``out``, an
unknown routine). So neither changes a result or an error message.

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

/* A kernel's own call, entry(*operands, out) (in place: entry(*operands)). */
static PyObject *flat(const struct kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    if (nargs != k->operands + !k->in_place)
        Py_RETURN_NOTIMPLEMENTED;
    return run(k, -1, args, k->operands, k->in_place ? Py_None : args[k->operands]);
}

"""

# The dispatcher type and the module's init, after the entries and their table.
_DISPATCHER = r"""
/* dispatcher(entries, rank, generic): a backend's apply (rank 0),
   called as (routine, *operands, out=...), or batch_apply (rank 1),
   called as (routine, operands, out=...), whose `entries` maps each
   routine to the module entry that runs it. It runs a call of that form
   through run; every other call, and every call run refuses, it passes
   to `generic`, the backend's Python method, with the same arguments. */
typedef struct {
    PyObject_HEAD
    vectorcallfunc call;
    PyObject *kernels; /* routine -> a capsule of its struct kernel */
    PyObject *generic;
    int rank;
} dispatcher;

static PyObject *out_name; /* "out", interned as a call's keyword names are */

static PyObject *dispatch(PyObject *self, PyObject *const *args, size_t nargsf, PyObject *kwnames)
{
    const dispatcher *d = (const dispatcher *)self;
    const Py_ssize_t nargs = PyVectorcall_NARGS(nargsf), nkw = kwnames ? PyTuple_GET_SIZE(kwnames) : 0;
    const int out_only = nkw == 0 || (nkw == 1 && (PyTuple_GET_ITEM(kwnames, 0) == out_name
                                                   || PyUnicode_Compare(PyTuple_GET_ITEM(kwnames, 0), out_name) == 0));
    PyObject *kernel, *result = Py_NotImplemented;
    if (nargs >= 1 && out_only && PyUnicode_CheckExact(args[0]) && (kernel = PyDict_GetItemWithError(d->kernels, args[0]))) {
        const struct kernel *k = PyCapsule_GetPointer(kernel, NULL);
        PyObject *out = nkw ? args[nargs] : Py_None;
        if (d->rank == 0)
            result = run(k, 0, args + 1, nargs - 1, out);
        else if (nargs == 2 && (PyTuple_CheckExact(args[1]) || PyList_CheckExact(args[1])))
            result = run(k, 1, PySequence_Fast_ITEMS(args[1]), PySequence_Fast_GET_SIZE(args[1]), out);
        if (result != Py_NotImplemented)
            return result;
    }
    if (PyErr_Occurred()) /* from the lookup */
        return NULL;
    return PyObject_Vectorcall(d->generic, args, nargsf, kwnames);
}

static PyObject *dispatcher_new(PyTypeObject *type, PyObject *args, PyObject *kwargs)
{
    static char *keywords[] = {"entries", "rank", "generic", NULL};
    PyObject *entries, *generic, *routine, *entry, *capsule;
    Py_ssize_t pos = 0;
    int rank;
    dispatcher *self;
    if (!PyArg_ParseTupleAndKeywords(args, kwargs, "O!iO:dispatcher", keywords, &PyDict_Type, &entries, &rank, &generic))
        return NULL;
    if (rank != 0 && rank != 1)
        return PyErr_Format(PyExc_ValueError, "rank must be 0 (apply) or 1 (batch_apply), got %d", rank);
    if (!(self = (dispatcher *)type->tp_alloc(type, 0)))
        return NULL;
    self->call = dispatch;
    self->rank = rank;
    self->generic = Py_NewRef(generic);
    if (!(self->kernels = PyDict_New()))
        goto fail;
    while (PyDict_Next(entries, &pos, &routine, &entry)) {
        const char *name = PyUnicode_AsUTF8(entry);
        const struct named *e = table;
        if (!name)
            goto fail;
        while (e->name && strcmp(e->name, name))
            e++;
        if (!e->name) {
            PyErr_Format(PyExc_KeyError, "no entry %R", entry);
            goto fail;
        }
        if (!(capsule = PyCapsule_New((void *)e->k, NULL, NULL)) || PyDict_SetItem(self->kernels, routine, capsule) < 0) {
            Py_XDECREF(capsule);
            goto fail;
        }
        Py_DECREF(capsule);
    }
    return (PyObject *)self;
fail:
    Py_DECREF(self);
    return NULL;
}

static int dispatcher_traverse(PyObject *self, visitproc visit, void *arg)
{
    Py_VISIT(((dispatcher *)self)->kernels);
    Py_VISIT(((dispatcher *)self)->generic);
    return 0;
}

static int dispatcher_clear(PyObject *self)
{
    Py_CLEAR(((dispatcher *)self)->kernels);
    Py_CLEAR(((dispatcher *)self)->generic);
    return 0;
}

static void dispatcher_dealloc(PyObject *self)
{
    PyObject_GC_UnTrack(self);
    dispatcher_clear(self);
    Py_TYPE(self)->tp_free(self);
}

static PyTypeObject dispatcher_type = {
    PyVarObject_HEAD_INIT(NULL, 0)
    .tp_name = "su3native.dispatcher",
    .tp_basicsize = sizeof(dispatcher),
    .tp_flags = Py_TPFLAGS_DEFAULT | Py_TPFLAGS_HAVE_GC | Py_TPFLAGS_HAVE_VECTORCALL,
    .tp_doc = "dispatcher(entries, rank, generic): a backend's checked apply (rank 0) or batch_apply (rank 1) in C",
    .tp_vectorcall_offset = offsetof(dispatcher, call),
    .tp_call = PyVectorcall_Call,
    .tp_new = dispatcher_new,
    .tp_dealloc = dispatcher_dealloc,
    .tp_traverse = dispatcher_traverse,
    .tp_clear = dispatcher_clear,
    .tp_free = PyObject_GC_Del,
};

static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "su3native", .m_size = -1, .m_methods = methods};

PyMODINIT_FUNC PyInit_su3native(void)
{
    PyObject *m;
    import_array();
    if (PyType_Ready(&dispatcher_type) < 0 || !(out_name = PyUnicode_InternFromString("out")) || !(m = PyModule_Create(&module)))
        return NULL;
    if (PyModule_AddType(m, &dispatcher_type) < 0) {
        Py_DECREF(m);
        return NULL;
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


def dispatchers(entries: dict, apply, batch_apply) -> dict:
    """A backend's ``apply`` and ``batch_apply`` as the module's dispatchers
    over `entries` (routine -> entry name), in front of the generic methods
    `apply` and `batch_apply`; {} where the module is unavailable. Loads the
    module on a process's first call."""
    module = load()
    if module is None:
        return {}
    return {"apply": module.dispatcher(entries, 0, apply), "batch_apply": module.dispatcher(entries, 1, batch_apply)}


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
        write(f"static PyObject *{name}(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)\n"
              f"{{\n    return flat(&{name}_kernel, args, nargs);\n}}\n")
    write("\nstatic PyMethodDef methods[] = {\n")
    for name, _, _ in entries:
        doc = f"{name}(*operands, out): its trace over the sites of C-contiguous float64 or float32 arrays"
        write(f'    {{"{name}", (PyCFunction)(void (*)(void)){name}, METH_FASTCALL, "{doc}"}},\n')
    write("    {NULL, NULL, 0, NULL}\n};\n\n"
          "static const struct named {\n    const char *name;\n    const struct kernel *k;\n} table[] = {\n")
    for name, _, _ in entries:
        write(f'    {{"{name}", &{name}_kernel}},\n')
    write("    {NULL, NULL}\n};\n" + _DISPATCHER)


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
