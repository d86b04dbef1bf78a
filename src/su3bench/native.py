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

static PyMethodDef methods[] = {
    {"dispatchers", dispatchers, METH_VARARGS, "dispatchers(entries, apply, batch_apply): a backend's checked apply and batch_apply in C"},
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
