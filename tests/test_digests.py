"""The bitwise contract, pinned: one SHA-256 over every kernel's output bytes.

Any change to a kernel's products, their order of summation or the combine
moves this digest, even where the two backends would still agree with each
other. The expected value was computed before the vector kernels were
rewritten as gather-table passes and must never change.
"""
import hashlib

import numpy as np

from su3bench import BACKEND_NAMES, PRECISIONS, ROUTINE_NAMES, ROUTINES, get_backend, random_operands

SINGLE_SETS = 8
BATCH_SIZES = (0, 1, 17, 1027)
EXPECTED = "0533c7f83fc4c8c0cbadde4659bb73eae8d14c5419c325427b999061ce101515"


def _fresh(spec, ops):
    """The operands with the in-place routine's first operand copied."""
    return [ops[0].copy(), *ops[1:]] if spec.in_place else ops


def output_digest() -> str:
    h = hashlib.sha256()
    for kind in BACKEND_NAMES:
        backend = get_backend(kind)
        for r, routine in enumerate(ROUTINE_NAMES):
            spec = ROUTINES[routine]
            for p, precision in enumerate(PRECISIONS):
                rng = np.random.default_rng([31, r, p])
                for _ in range(SINGLE_SETS):
                    ops = random_operands(routine, rng, precision)
                    h.update(np.ascontiguousarray(backend.apply(routine, *_fresh(spec, ops))).tobytes())
                for n in BATCH_SIZES:
                    ops = random_operands(routine, rng, precision, batch=n)
                    h.update(np.ascontiguousarray(backend.batch_apply(routine, _fresh(spec, ops))).tobytes())
    return h.hexdigest()


def test_output_digest_unchanged():
    assert output_digest() == EXPECTED
