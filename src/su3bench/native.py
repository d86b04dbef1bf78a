"""The kernels' traces as C site loops, built on first use into one CPython
extension, and the checked entries that run them.

Every trace becomes one C function per precision that runs it over n sites:
each routine's ``scalar.routine_trace`` (which the vector backend's
elementwise kernels share) and each gather table's ``simd.table_trace``. A
site loads every component it reads, then performs each step as one
``const T tK = l op r;`` in the trace's order, in the operands' own
precision (``double`` or ``float``; x86-64 C rounds a float operation to
float), then stores every result component. So each site rounds exactly as
the trace's Python program does, and an ``out`` that is an operand reads its
values before any is written. Where a NaN arises is the same; its sign and
payload bits may differ (gcc may fold a ``* -1.0`` sign into a negation).
Loads and stores go through ``memcpy``, which needs no alignment, so a
``SiteBuffer`` 4 bytes off its boundary runs here too. The +-1 signs are
literals. Identical traces (``mult_adj_su3_mat_4vec`` is
``mult_adj_su3_mat_vec_4dir``) share one pair of loops.

Each trace has three METH_FASTCALL entries, named after its routine (a
table's after ``Contraction.entry``) with the suffixes of ``_MODES``, each
called as ``entry(operands, out)`` with the routine's operands in its order.
``run`` makes, in C, every check of ``backends``' generic path for the calls
it takes (see there), at a batch rank fixed per entry: the written
argument's for the kernels' own calls, 0 for ``Backend.apply``, 1 for
``Backend.batch_apply``. It allocates a result with ``numpy.empty`` only
once every check passes, and returns the argument written. Any other call
it leaves untouched and returns ``NotImplemented``, and the caller runs its
Python path, so an entry changes no result and no error message.

gcc builds the module with ``-ffp-contract=off`` (no fused multiply-add,
which would round once where the trace rounds twice) and
``-fno-tree-vectorize`` (no packed arithmetic), synchronously and with a
timeout, on the first call of ``load`` in a process, which the first
kernel call makes; importing the package or counting operations imports
not even this module. The module goes to the source checkout's git-ignored
``build/`` under a name keyed by a hash of this file and the traces, written
to a temporary file and renamed into place, so a cached module is loaded
without emitting anything and concurrent builds do not collide; its source
is kept beside it. Where there is no compiler, the build fails or the module
does not load, ``load`` returns None, ``status`` says why, and every call
runs its Python path.
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

from . import scalar, simd
from .types import OPERAND_SHAPES, ROUTINES

BUILD = Path(__file__).resolve().parents[2] / "build"
COMPILER = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-tree-vectorize")
TIMEOUT_S = 300
MAX_ARGS = 8
_TYPES = (("d", "double"), ("f", "float"))  # buffer format and C type of each precision
# Each entry's three functions, by name suffix, and their batch rank: the
# kernels' own calls at the written argument's, apply's at 0, batch_apply's at 1.
_MODES = (("", -1), ("_apply", 0), ("_batch", 1))

_PRELUDE = r"""#define PY_SSIZE_T_CLEAN
#include <Python.h>
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
    const Py_ssize_t *dims;
    site_loop d, f;
};

#define MAX_ARGS %(max_args)d

static PyObject *ndarray, *empty, *dtype_name; /* numpy.ndarray, numpy.empty, "dtype": set at module init */

/* 'd' for a buffer of native doubles, 'f' of native floats, else 0. */
static char element(const Py_buffer *view)
{
    const char *f = view->format;
    if (f[0] == '@' || f[0] == '=' || (PY_LITTLE_ENDIAN && f[0] == '<'))
        f++;
    if (f[1] != '\0')
        return 0;
    return (f[0] == 'd' && view->itemsize == 8) || (f[0] == 'f' && view->itemsize == 4) ? f[0] : 0;
}

/* A new array of shape batch + dims in a's dtype, or NULL with an error set. */
static PyObject *fresh(PyObject *a, const Py_ssize_t *batch, int rank, const Py_ssize_t *dims, int r)
{
    PyObject *args[2] = {PyTuple_New(rank + r), NULL}, *array = NULL, *d;
    int i;
    for (i = 0; args[0] && i < rank + r; i++) {
        if (!(d = PyLong_FromSsize_t(i < rank ? batch[i] : dims[i - rank])))
            goto done;
        PyTuple_SET_ITEM(args[0], i, d);
    }
    if (args[0] && (args[1] = PyObject_GetAttr(a, dtype_name)))
        array = PyObject_Vectorcall(empty, args, 2, NULL);
done:
    Py_XDECREF(args[0]);
    Py_XDECREF(args[1]);
    return array;
}

/* Run k over the sites of a call (operands, out) and return what it wrote:
   operand 0 in place, else out, or where out is None a new array. It takes
   only calls that backends' generic checks pass: the operands an exact
   tuple or list; every argument an exact numpy.ndarray, C-contiguous, of
   native float64 or float32, all of one type; the written one writeable;
   each array shaped the batch shape followed by its per-object shape; a
   real factor 0-d or of the batch shape, or for float64 a Python float.
   The batch rank is `rank`, or for rank -1 the written argument's (out is
   then required). Only once every check passes is a result allocated. For
   any other call it writes nothing and returns NotImplemented with no
   error set. */
static PyObject *run(const struct kernel *k, int rank, PyObject *const *call, Py_ssize_t ncall)
{
    Py_buffer views[MAX_ARGS];
    PyObject *args[MAX_ARGS], *result = Py_NotImplemented, *made = NULL;
    char *p[MAX_ARGS + 1], type = 0;
    Py_ssize_t step[MAX_ARGS + 1], nargs = k->operands, held = 0, n = 1, i, j;
    double floats[MAX_ARGS];
    const Py_ssize_t *batch, *dims = k->dims;
    const Py_ssize_t slots = k->operands + !k->in_place, target = k->in_place ? 0 : k->operands;

    if (ncall != 2 || !(PyTuple_CheckExact(call[0]) || PyList_CheckExact(call[0]))
        || PySequence_Fast_GET_SIZE(call[0]) != k->operands || (call[1] == Py_None ? rank < 0 && !k->in_place : k->in_place))
        Py_RETURN_NOTIMPLEMENTED;
    memcpy(args, PySequence_Fast_ITEMS(call[0]), nargs * sizeof *args);
    if (call[1] != Py_None)
        args[nargs++] = call[1];
    for (; held < nargs; held++) {
        Py_buffer *view = &views[held];
        char e;
        if (k->ranks[held] < 0 && type == 'd' && PyFloat_CheckExact(args[held])) {
            floats[held] = PyFloat_AS_DOUBLE(args[held]);
            view->obj = NULL;
            view->buf = &floats[held];
            view->ndim = 0;
            continue;
        }
        if (Py_TYPE(args[held]) != (PyTypeObject *)ndarray)
            goto done;
        if (PyObject_GetBuffer(args[held], view, PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (held == target ? PyBUF_WRITABLE : 0)) < 0) {
            PyErr_Clear();
            goto done;
        }
        e = element(view);
        if (!e || (type && e != type)) {
            held++;
            goto done;
        }
        type = e;
    }
    if ((rank < 0 && (rank = views[target].ndim - k->ranks[target]) < 0) || views[0].ndim != rank + k->ranks[0])
        goto done; /* operand 0 is never a real factor, and its leading axes are the batch shape */
    batch = views[0].shape;
    for (i = 0; i < rank; i++)
        n *= batch[i];
    for (i = 0; i < slots; i++) {
        const int r = k->ranks[i];
        if (r < 0) {
            if (views[i].ndim && (views[i].ndim != rank || memcmp(views[i].shape, batch, rank * sizeof *batch)))
                goto done;
            step[i] = views[i].ndim ? (type == 'd' ? 8 : 4) : 0;
        } else {
            if (i < nargs && (views[i].ndim != rank + r || memcmp(views[i].shape, batch, rank * sizeof *batch)
                              || memcmp(views[i].shape + rank, dims, r * sizeof *dims)))
                goto done;
            for (step[i] = type == 'd' ? 8 : 4, j = 0; j < r; j++)
                step[i] *= *dims++;
        }
        if (i < nargs)
            p[i] = views[i].buf;
    }
    if (nargs < slots) {
        result = NULL;
        made = fresh(args[0], batch, rank, dims - k->ranks[target], k->ranks[target]);
        if (!made || PyObject_GetBuffer(made, &views[held], PyBUF_WRITABLE) < 0)
            goto done;
        p[held++] = views[target].buf;
        args[target] = made;
    }
    p[k->operands] = p[target];
    step[k->operands] = step[target];
    (type == 'd' ? k->d : k->f)(n, p, step);
    result = args[target];
done:
    for (i = 0; i < held; i++)
        PyBuffer_Release(&views[i]);
    if (result != made) {
        Py_XDECREF(made);
        Py_XINCREF(result);
    }
    return result;
}

"""

_INIT = r"""PyMODINIT_FUNC PyInit_su3native(void)
{
    PyObject *numpy = PyImport_ImportModule("numpy");
    if (!numpy)
        return NULL;
    ndarray = PyObject_GetAttrString(numpy, "ndarray");
    empty = PyObject_GetAttrString(numpy, "empty");
    Py_DECREF(numpy);
    dtype_name = PyUnicode_InternFromString("dtype");
    return ndarray && empty && dtype_name ? PyModule_Create(&module) : NULL;
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
    """(entry name, trace, routine spec) for every routine and every
    distinct gather table, whose trace takes the routine's operands in the
    routine's order."""
    entries = [(routine, scalar.routine_trace(routine), spec) for routine, spec in ROUTINES.items()]
    tables = {t: ROUTINES[routine] for routine, t in simd.TABLES.items()}
    return entries + [(t.entry, simd.table_trace(t), spec) for t, spec in tables.items()]


def _key(entries) -> str:
    """A hash of this file (the emitter, its C and its flags), the Python
    ABI and every entry."""
    h = hashlib.sha256(Path(__file__).read_bytes())
    h.update(sysconfig.get_config_var("EXT_SUFFIX").encode())
    for entry in entries:
        h.update(repr(entry).encode())
    return h.hexdigest()[:16]


def _build(entries, stem: str, path: Path) -> None:
    """Emit the source and compile it into `path`, keeping the source beside
    it as `stem`.c."""
    cc = shutil.which(COMPILER)
    if cc is None:
        raise _Unavailable(f"no C compiler: {COMPILER} is not on PATH")
    include = sysconfig.get_paths()["include"]
    if not os.path.isfile(os.path.join(include, "Python.h")):
        raise _Unavailable(f"no Python.h in {include}")
    BUILD.mkdir(parents=True, exist_ok=True)
    fd, source = tempfile.mkstemp(suffix=".c", prefix=f"{stem}.", dir=BUILD)
    built = source[:-2] + ".so"
    try:
        with os.fdopen(fd, "w") as f:
            _emit(f.write, entries)
        try:
            done = subprocess.run([cc, *FLAGS, "-I", include, "-o", built, source],
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
    write(_PRELUDE % {"max_args": MAX_ARGS})
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
        write(f"static const Py_ssize_t {name}_dims[] = {{{', '.join(map(str, dims))}}};\n")
        write(f"static const struct kernel {name}_kernel = {{{len(spec.operands)}, {int(spec.in_place)}, "
              f"{name}_ranks, {name}_dims, {first}_d, {first}_f}};\n")
        for suffix, rank in _MODES:
            write(f"static PyObject *{name}{suffix}(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)\n"
                  f"{{\n    return run(&{name}_kernel, {rank}, args, nargs);\n}}\n")
    write("\nstatic PyMethodDef methods[] = {\n")
    for name, _, _ in entries:
        for suffix, _ in _MODES:
            doc = f"{name}{suffix}(operands, out): its trace over the sites of C-contiguous float64 or float32 arrays"
            write(f'    {{"{name}{suffix}", (PyCFunction)(void (*)(void)){name}{suffix}, METH_FASTCALL, "{doc}"}},\n')
    write("    {NULL, NULL, 0, NULL}\n};\n\n"
          'static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, .m_name = "su3native", .m_size = -1, .m_methods = methods};\n\n'
          + _INIT)


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
