"""The kernels' traces as C site loops, built on first use into one CPython
extension.

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
Loads and stores go through ``memcpy``, which compiles to one scalar move
and needs no alignment, so a ``SiteBuffer`` 4 bytes off its boundary runs
here too. The +-1 signs are literals, and a real factor is a 1- or n-element
buffer (one for every site, or one per site), converted by numpy to the
operands' dtype by the caller. Identical traces (``mult_adj_su3_mat_4vec`` is
``mult_adj_su3_mat_vec_4dir``) share one pair of loops.

Each trace's entry, named after its routine (a table's after ``Contraction.
entry``), is a METH_FASTCALL function over the kernel's arguments, read
through the buffer protocol. It takes C-contiguous float64 or float32
buffers of one type, whose lengths are n sites of each argument, and
returns the argument written; for any other arguments (a strided or
read-only result, object arrays, mixed types, misfitting lengths) it writes
nothing and returns ``NotImplemented``, and the caller runs its Python path.

gcc builds the module with ``-ffp-contract=off`` (no fused multiply-add,
which would round once where the trace rounds twice) and
``-fno-tree-vectorize`` (no packed arithmetic: the loops are the plain C of
the trace, one site at a time), synchronously and with a timeout, on the
first call of ``load`` in a process, which the first kernel call makes;
importing the package or counting operations imports not even this module.
The module goes to the source checkout's git-ignored ``build/`` under a name
keyed by a hash of this file and the traces, written to a temporary file
and renamed into place, so a cached module is loaded without emitting
anything and concurrent builds do not collide. The source is streamed to
disk beside it and kept. Where there is no compiler, the build fails or the
module does not load, ``load`` returns None, ``status`` says why, and every
kernel runs its Python path.
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
from .types import ROUTINE_NAMES, ROUTINES

BUILD = Path(__file__).resolve().parents[2] / "build"
COMPILER = "gcc"
FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-tree-vectorize")
TIMEOUT_S = 300
MAX_ARGS = 8
_TYPES = (("d", "double"), ("f", "float"))  # buffer format and C type of each precision

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

/* One entry: its argument count, the argument it writes, each argument's
   components per site (0 for a real factor: one for every site, or one per
   site), its operands, and its loops over double and float sites. */
struct kernel {
    Py_ssize_t nargs, target;
    const Py_ssize_t *sizes;
    Py_ssize_t operands;
    site_loop d, f;
};

#define MAX_ARGS %(max_args)d

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

/* Run k over the sites of its arguments and return the one written; for
   arguments it does not take, write nothing and return NotImplemented with
   no error set. */
static PyObject *run(const struct kernel *k, PyObject *const *args, Py_ssize_t nargs)
{
    Py_buffer views[MAX_ARGS];
    char *p[MAX_ARGS + 1];
    Py_ssize_t step[MAX_ARGS + 1];
    Py_ssize_t held = 0, i, n, item;
    char type = 0;
    PyObject *result = Py_NotImplemented;

    if (nargs != k->nargs)
        Py_RETURN_NOTIMPLEMENTED;
    for (; held < nargs; held++) {
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (held == k->target ? PyBUF_WRITABLE : 0);
        char e;
        if (PyObject_GetBuffer(args[held], &views[held], flags) < 0) {
            PyErr_Clear();
            goto done;
        }
        e = element(&views[held]);
        if (!e || (type && e != type)) {
            held++;
            goto done;
        }
        type = e;
    }
    item = type == 'd' ? 8 : 4;
    n = views[k->target].len / (k->sizes[k->target] * item);
    for (i = 0; i < nargs; i++) {
        Py_ssize_t bytes = k->sizes[i] ? k->sizes[i] * item : item;
        if (!k->sizes[i] && views[i].len == item)
            step[i] = 0;
        else if (views[i].len == n * bytes)
            step[i] = bytes;
        else
            goto done;
        p[i] = views[i].buf;
    }
    p[k->operands] = p[k->target];
    step[k->operands] = step[k->target];
    (type == 'd' ? k->d : k->f)(n, p, step);
    result = args[k->target];
done:
    for (i = 0; i < held; i++)
        PyBuffer_Release(&views[i]);
    Py_INCREF(result);
    return result;
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
    """(entry name, trace, components per site of each argument, the
    argument written) for every routine and every distinct gather table."""
    entries = []
    for routine in ROUTINE_NAMES:
        spec, trace = ROUTINES[routine], scalar.routine_trace(routine)
        sizes = tuple(0 if kind == "scalar" else len(names) for kind, names in zip(spec.operands, trace.operands))
        if spec.in_place:
            entries.append((routine, trace, sizes, 0))
        else:
            entries.append((routine, trace, sizes + (len(trace.results),), len(sizes)))
    for t in dict.fromkeys(simd.TABLES.values()):
        entries.append((t.entry, simd.table_trace(t), (t.x_size, t.y_size, t.outputs), 2))
    return entries


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
    for name, trace, sizes, target in entries:
        if len(sizes) > MAX_ARGS:
            raise ValueError(f"{name} takes {len(sizes)} arguments; the module takes at most {MAX_ARGS}")
        first = loops.setdefault(trace, name)
        if first == name:
            for code, ctype in _TYPES:
                _emit_loop(write, f"{name}_{code}", trace, code, ctype)
        write(f"\nstatic const Py_ssize_t {name}_sizes[] = {{{', '.join(map(str, sizes))}}};\n")
        write(f"static const struct kernel {name}_kernel = {{{len(sizes)}, {target}, {name}_sizes, "
              f"{len(trace.operands)}, {first}_d, {first}_f}};\n")
        write(f"static PyObject *{name}(PyObject *self, PyObject *const *args, Py_ssize_t nargs)\n"
              f"{{\n    return run(&{name}_kernel, args, nargs);\n}}\n")
    write("\nstatic PyMethodDef methods[] = {\n")
    for name, trace, sizes, target in entries:
        args = "operands" if target == 0 else "operands, out"
        doc = f"{name}(*{args}): its trace over the sites of C-contiguous float64 or float32 buffers"
        write(f'    {{"{name}", (PyCFunction)(void (*)(void)){name}, METH_FASTCALL, "{doc}"}},\n')
    write("    {NULL, NULL, 0, NULL}\n};\n\n"
          'static struct PyModuleDef module = {PyModuleDef_HEAD_INIT, "su3native", NULL, -1, methods};\n\n'
          "PyMODINIT_FUNC PyInit_su3native(void) { return PyModule_Create(&module); }\n")


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
