"""A grammar-driven fuzz of the command line.

Model expressions are built from the expression grammar (every family,
parameters, every function name and transform chains), with values that
are valid most of the time and extreme or malformed otherwise; stdin holds
CSV text shaped for the data kind, or random bytes.  Whatever the input,
``main`` returns 0, 1, 2 or 3, raises nothing, a failed run writes
exactly one ``error:`` line to stderr, and an ``eval`` that succeeds
reports a finite total, in nits or in bits.  Whatever ``sample`` writes,
``eval`` of the same model reads back at a finite cost.
"""

import contextlib
import io
import math
import sys

from hypothesis import HealthCheck, example, given, settings, strategies as st

from msglen.cli import main
from msglen.functions import LIBRARY

INT64 = 2**63


@st.composite
def mostly(draw, valid, other):
    """A draw from valid about three times in four, else one from other."""
    return draw(other if draw(st.integers(0, 3)) == 3 else valid)


# Numbers as the expression scanner reads them; the others are extreme or
# not numbers at all.
NUMBERS = mostly(
    st.one_of(
        st.sampled_from(["0", "1", "2", "-1", "0.5", "3.5", "1e-3"]),
        st.floats(-10.0, 10.0, allow_nan=False).map(repr),
    ),
    st.sampled_from(["nan", "inf", "1e400", "-1e400", "1e300", "5e-324", "0.0", "1.5"]),
)
POSITIVE = st.sampled_from(["1", "0.5", "2", "0.1", "3"])
# Bounds of a discrete space: small, or at either end of the signed 64-bit
# range (just inside or just outside), or past the multistate state limit.
BOUNDS = st.one_of(
    st.integers(-3, 3),
    st.sampled_from([-INT64 - 1, -INT64, INT64 - 1, INT64, 1000000]),
)


@st.composite
def families(draw):
    """(expression, kind, dim, (lo, hi) or None) of a base family."""
    which = draw(st.sampled_from(["normal", "uniform", "multistate", "rd"]))
    if which == "normal":
        return "normal", "cts", 1, None
    if which == "rd":
        # Rarely a dimension past the product limit (models.MAX_DIM).
        huge = st.sampled_from([10**6 + 1, 10**9, 10**18])
        dim = draw(mostly(st.integers(1, 3), mostly(st.integers(-1, 0), huge)))
        return f"rd:normal^{dim}", "vec", dim, None
    lo = draw(BOUNDS)
    hi = draw(mostly(st.integers(0, 4).map(lambda k: lo + k), BOUNDS))
    return f"{which}:{lo}:{hi}", "discrete", 1, (lo, hi)


@st.composite
def parameters(draw, base, kind, dim, bounds):
    """A parenthesised parameter list, usually shaped for the family."""
    if draw(st.integers(0, 4)) == 0:
        return "(" + ",".join(draw(st.lists(NUMBERS, min_size=1, max_size=4))) + ")"
    if base == "normal":
        return f"({draw(NUMBERS)},{draw(POSITIVE)})"
    if kind == "vec":
        groups = [f"{draw(NUMBERS)},{draw(POSITIVE)}" for _ in range(min(max(dim, 1), 3))]
        return "(" + ";".join(groups) + ")"
    if base.startswith("uniform"):
        return "()"
    size = max(1, min(bounds[1] - bounds[0] + 1, 6))
    return "(" + ",".join([repr(1.0 / size)] * size) + ")"


# Functions that can transform a family of each kind (and dimension).
FITTING = {
    "cts": ["identity", "log", "exp", "inv", "linear(2,1)", "linear(-0.5,3)", "linear(1e10,0)"],
    ("vec", 1): ["permute(0)"],
    ("vec", 2): ["polar2cartesian", "cartesian2polar", "permute(1,0)"],
    ("vec", 3): ["permute(2,0,1)"],
    "discrete": ["reverse", "rotate(1)", "rotate(-2)"],
}
ANY_FUNCTION = st.one_of(
    st.sampled_from(sorted(LIBRARY) + ["reverse", "rotate(3)", "permute(1,0)", "linear(2,1)"]),
    # Bad arguments.
    st.sampled_from([
        "rotate(1.5)", "rotate(1e400)", "rotate()", "reverse(1)",
        "permute(1.5,0)", "permute(1e400,0)", "permute(0,0)", "permute()",
        "linear(0,1)", "linear(1e400,0)", "linear(1)", "log(2)", "frobnicate",
    ]),
)


@st.composite
def expressions(draw, parameterised):
    """(model expression, kind, dim)."""
    base, kind, dim, bounds = draw(families())
    expr = base
    if parameterised:
        expr += draw(parameters(base, kind, dim, bounds))
    fitting = FITTING.get(kind) or FITTING.get((kind, dim), ["frobnicate"])
    for name in draw(st.lists(mostly(st.sampled_from(fitting), ANY_FUNCTION), max_size=2)):
        expr += f".transform({name})"
    return expr, kind, dim


BAD_CELLS = st.one_of(NUMBERS, st.sampled_from(["", "x", "1,2"]))


@st.composite
def csv_texts(draw, kind, dim):
    """CSV text with a header and a few rows for the data kind."""
    ncols = min(max(dim, 1), 3)
    with_aom = kind != "discrete" and draw(st.booleans())
    header = [f"x{j}" for j in range(ncols)] + (["aom"] if with_aom else [])
    if kind == "discrete":
        valid = st.integers(-3, 5).map(str)
    else:
        valid = st.floats(0.01, 5.0).map(repr)
    row = st.lists(valid, min_size=len(header), max_size=len(header))
    bad_row = st.lists(mostly(valid, BAD_CELLS), min_size=len(header), max_size=len(header))
    rows = draw(st.lists(mostly(row, bad_row), max_size=4))
    return "\n".join(",".join(row) for row in [header] + rows) + "\n"


@st.composite
def invocations(draw):
    """(argv, stdin bytes)."""
    command = draw(st.sampled_from(["fit", "eval", "sample"]))
    parameterised = command != "fit" or draw(st.integers(0, 4)) == 0
    expr, kind, dim = draw(expressions(parameterised))
    if command == "sample":
        count = draw(mostly(st.integers(0, 20), st.sampled_from([-1, 1000001])))
        seed = draw(mostly(st.integers(0, 3), st.sampled_from([-1, 2**64])))
        argv = ["sample", expr, str(count), "--seed", str(seed)]
        if draw(st.integers(0, 3)) == 0:
            aoms = st.sampled_from(["0.5", "1e-3"]), st.sampled_from(["0", "-1", "nan", "inf"])
            argv += ["--sample-aom", draw(mostly(*aoms))]
        return argv, b""
    argv = [command, expr, "-"]
    if draw(st.booleans()):
        aom = draw(mostly(st.sampled_from(["0.01", "1"]), st.sampled_from(["1e300", "0", "nan"])))
        argv += ["--aom-const", aom]
    if draw(st.booleans()):
        argv += ["--format", "kv"]
    if draw(st.integers(0, 3)) == 0:
        argv += ["--bits"]
    if draw(st.integers(0, 9)) == 0:
        stdin = draw(st.binary(max_size=40))
    else:
        stdin = draw(csv_texts(kind, dim)).encode("utf-8")
    return argv, stdin


def run_main(argv, stdin_bytes):
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.TextIOWrapper(
        io.BytesIO(stdin_bytes), encoding="utf-8", errors="surrogateescape"
    )
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin.close()
        sys.stdin = saved
    return code, out.getvalue(), err.getvalue()


@settings(
    max_examples=500,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(invocations())
# Finite costs whose sum overflows, and a finite datum whose cost overflows.
@example((["eval", "normal(0,1)", "-", "--aom-const", "1"], b"x\n1.5e154\n1.5e154\n"))
@example((["eval", "normal(0,1)", "-", "--aom-const", "1"], b"x\n1e308\n"))
# A finite cost in nits that is past the float range in bits.
@example((["eval", "normal(0,1)", "-", "--aom-const", "1", "--bits"], b"x\n1.7e154\n"))
def test_cli_never_crashes(invocation):
    argv, stdin = invocation
    code, out, err = run_main(argv, stdin)
    assert code in (0, 1, 2, 3)
    if code != 0:
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), (argv, err)
    elif argv[0] == "eval":
        # "total: X" or "total=X": what eval prints is a real code length.
        total = next(line for line in out.splitlines() if line.startswith("total"))
        assert math.isfinite(float(total[len("total") + 1 :])), (argv, total)


@settings(
    max_examples=400,
    database=None,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow, HealthCheck.data_too_large],
)
@given(expressions(parameterised=True), st.integers(0, 20), st.integers(0, 3))
@example(("normal(1e300,1).transform(inv)", "cts", 1), 1, 0)
@example(("rd:normal^2(1e300,1;0,0.5).transform(cartesian2polar)", "vec", 2), 1, 0)
def test_eval_reads_back_what_sample_writes(expression, count, seed):
    expr = expression[0]
    code, out, _ = run_main(["sample", expr, str(count), "--seed", str(seed)], b"")
    if code != 0:
        return
    header = out.splitlines()[0].split(",")
    argv = ["eval", expr, "-", "--format", "kv"]
    for name in header:
        if name.startswith("aom"):
            argv += ["--aom-col", name]
    code, scored, err = run_main(argv, out.encode("utf-8"))
    assert code == 0, (expr, count, seed, err)
    lines = [line for line in scored.splitlines() if not line.startswith("nlpr.")]
    summary = dict(line.split("=", 1) for line in lines)
    assert int(summary["count"]) == count
    assert math.isfinite(float(summary["total"])), (expr, count, seed, summary)
