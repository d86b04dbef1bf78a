"""The two backends agree bit for bit on every non-NaN input, proved from
their traces rather than sampled: for every routine, the scalar backend's
trace and the vector backend's give each result component one expression
tree once both are normalised by rewrites that are exact in IEEE
arithmetic. Association is never rewritten, so a changed order of adds or
a changed sign is a different tree."""
import pytest

from su3bench import ROUTINE_NAMES, ROUTINES, native, scalar, simd
from su3bench.trace import paired, record


def normal_form(trace) -> tuple:
    """Each result component's expression tree, normalised: a single `*` or
    `+` commutes (its operands in a fixed order), ``x * 1.0`` is ``x``,
    ``x * -1.0`` is ``-x``, and ``a + -x`` is ``a - x``. A leaf is an
    operand component's name or a literal's value."""
    steps = {result: (left, op, right) for result, left, op, right in trace.steps}
    components = {x for names in trace.operands for x in names}

    def tree(x: str):
        if x not in steps:
            return x if x in components else float(x)
        left, op, right = steps[x]
        a, b = tree(left), tree(right)
        if op == "*":
            if isinstance(a, float):
                a, b = b, a
            if b == 1.0:
                return a
            if b == -1.0:
                return ("neg", a)
        if op == "+":
            if isinstance(b, tuple) and b[0] == "neg":
                return ("-", a, b[1])
            if isinstance(a, tuple) and a[0] == "neg":
                return ("-", b, a[1])
        if op in "*+":
            a, b = sorted((a, b), key=repr)
        return (op, a, b)

    return tuple(tree(x) for x in trace.results)


@pytest.mark.parametrize("routine", ROUTINE_NAMES)
def test_the_backends_traces_compute_one_expression(routine):
    ours, theirs = scalar.routine_trace(routine), simd.routine_trace(routine)
    assert ours.operands == theirs.operands
    assert normal_form(ours) == normal_form(theirs)
    # Each vector trace is the scalar one paired: the same record only where
    # the scalar trace already performs each lane pair's steps side by side.
    assert (ours == theirs) == (routine == "add_su3_vector")


def test_pairing_keeps_each_expression_and_gives_the_vector_traces():
    # Every vector trace is the scalar trace paired, each lane pair side by
    # side at an even offset, which is all native.pack_plan reads; pairing
    # changes no result's expression.
    for routine in ROUTINE_NAMES:
        ours, theirs = scalar.routine_trace(routine), simd.routine_trace(routine)
        assert theirs == paired(ours), routine
        assert native.pack_plan(theirs, native.PACK["vector"]), routine
        assert normal_form(theirs) == normal_form(ours), routine


def test_paired_refuses_trees_of_different_shape():
    # A leaf against a step, two different operations other than - and +,
    # or a result without a partner: no lane pair performs them.
    trace = scalar.routine_trace("add_su3_vector")
    result, left, _, right = trace.steps[1]
    leaf = trace._replace(results=trace.results[:1] + trace.operands[0][1:2] + trace.results[2:])
    product = trace._replace(steps=trace.steps[:1] + ((result, left, "*", right),) + trace.steps[2:])
    for broken in (leaf, product):
        with pytest.raises(ValueError, match="results 0 and 1 do not pair"):
            paired(broken)
    with pytest.raises(ValueError, match="5 results do not pair"):
        paired(trace._replace(results=trace.results[:5]))


def test_a_flipped_sign_or_a_reversed_accumulation_is_detected():
    want = normal_form(scalar.routine_trace("mult_su3_nn"))
    trace = simd.routine_trace("mult_su3_nn")
    assert normal_form(trace) == want
    k = next(k for k, (_, _, op, right) in enumerate(trace.steps) if op == "*" and right == "-1.0")
    result, left, op, _ = trace.steps[k]
    flipped = trace._replace(steps=trace.steps[:k] + ((result, left, op, "1.0"),) + trace.steps[k + 1:])

    def reversed_nn(a, b, out):
        # mult_su3_nn's body with the term axis j reversed.
        scalar._store(out.swapaxes(0, 1), scalar._contract(a[:, ::-1], b[::-1].swapaxes(0, 1), False))
        return out

    reversed_terms = paired(record(ROUTINES["mult_su3_nn"], reversed_nn))
    for broken in (flipped, reversed_terms):
        assert normal_form(broken) != want
