"""The per-value answers do not depend on numpy's CPU dispatch.

numpy picks SIMD kernels for ``log``, ``exp``, ``hypot``, ``arctan2``,
``**`` and more from the CPU's features at import, and a kernel may round
the last bit differently from ``math``.  The per-value methods compute
with ``math``, so a function's protocol (``f(v)``, ``d_dx`` or
``jacobian``, ``nl_jacobian_det``) and ``f.apply``, and a model's
``nl_pr``, ``pdf`` and ``random_v``, must print the same bytes with every dispatched feature switched off
(``NPY_DISABLE_CPU_FEATURES``) as with none switched off.  Run as a
script, this file prints those answers, one line each.  The inputs are
built from Python floats, since numpy's own array arithmetic is
dispatched too.

A transformed model's cost column is its per-value rule computed on
columns, so with the dispatch off, where numpy's ``log`` and ``exp`` on
x86-64 are the C library's as ``math``'s are, the column and ``nl_pr``
agree bit for bit.  Run as ``test_dispatch.py costs``, this file prints both, row by row.
"""

import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import msglen
from msglen import CtsDatum, DiscreteDatum, MsglenError, VecDatum
from msglen.estimation import data_costs
from msglen.functions import LIBRARY, Cts2Cts, DiscreteBijection
from test_columns import FUNCTIONS, MODELS
from test_columns import N as COST_ROWS

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

N = 3000
# The values of each function whose protocol answers are printed too.
PROTOCOL_N = 1000

# The ranges each continuous function of test_columns.FUNCTIONS draws its
# data from, component by component.
RANGES = {
    "identity": [(-50.0, 50.0)],
    "log": [(1e-3, 1e3)],
    "exp": [(-50.0, 50.0)],
    "inv": [(0.01, 100.0)],
    "linear": [(-50.0, 50.0)],
    "polar2cartesian": [(1e-2, 1e2), (0.0, 2.0 * math.pi)],
    "cartesian2polar": [(-5.0, 5.0), (-5.0, 5.0)],
    "componentwise": [(1e-2, 1e2), (-5.0, 5.0)],
    "permute": [(-5.0, 5.0), (-5.0, 5.0)],
}


# The transformed models of test_columns.MODELS whose cost column is nl_pr
# bit for bit.  polar's column takes numpy's hypot, and math.hypot is
# CPython's own algorithm, not the C library's, so a few of its rows differ
# in the last place at every dispatch level.
SAME_COSTS = sorted(
    name for name, (model, _, _) in MODELS.items() if hasattr(model, "base") and name != "polar"
)


def _aoms(rng, dim: int) -> list:
    return [10.0 ** rng.uniform(-5.0, -1.0) for _ in range(dim)]


def _answer(call) -> str:
    """The repr of what call returns, or the type and text of its error."""
    try:
        return repr(call())
    except (MsglenError, ArithmeticError) as e:
        return f"{type(e).__name__}: {e}"


def print_answers() -> None:
    rng = random.Random(21)
    for name, ranges in RANGES.items():
        f = FUNCTIONS[name][0]
        for i in range(N):
            x, aoms = [rng.uniform(lo, hi) for lo, hi in ranges], _aoms(rng, len(ranges))
            d = CtsDatum(x[0], aoms[0]) if isinstance(f, Cts2Cts) else VecDatum(x, aoms)
            print(name, "apply", i, _answer(lambda: f.apply(d)))
            if i < PROTOCOL_N:
                if isinstance(f, Cts2Cts):
                    v, slope, slope_name = d.x, f.d_dx, "d_dx"
                else:
                    v, slope, slope_name = d.components, f.jacobian, "jacobian"
                print(name, "f", i, _answer(lambda: f(v)))
                print(name, slope_name, i, _answer(lambda: slope(v)))
                print(name, "nl_jacobian_det", i, _answer(lambda: f.nl_jacobian_det(v)))
    for name, (model, _, _) in MODELS.items():
        gen = np.random.default_rng(len(name))
        for i in range(N):
            v = model.random_v(gen)
            if model.kind == "discrete":
                d = DiscreteDatum(v)
            elif model.kind == "cts":
                d = CtsDatum(v, _aoms(rng, 1)[0])
            else:
                d = VecDatum(v, _aoms(rng, len(v)))
            print(name, "random_v", i, repr(v))
            print(name, "nl_pr", i, _answer(lambda: model.nl_pr(d)))
            print(name, "pdf", i, _answer(lambda: model.pdf(v)))


def print_costs() -> None:
    for name in SAME_COSTS:
        model, sample, _ = MODELS[name]
        ds = sample(np.random.default_rng(len(name)))
        for i, (cost, d) in enumerate(zip(data_costs(model, ds)[0], ds)):
            print(name, i, repr(cost), repr(model.nl_pr(d)))


def _answers(disabled: str | None, *args: str) -> list:
    src = str(Path(msglen.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    env.pop("NPY_DISABLE_CPU_FEATURES", None)
    if disabled is not None:
        env["NPY_DISABLE_CPU_FEATURES"] = disabled
    proc = subprocess.run(
        [sys.executable, __file__, *args], capture_output=True, text=True, env=env, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_ranges_cover_every_continuous_function():
    continuous = {name for name, (f, _) in FUNCTIONS.items() if not isinstance(f, DiscreteBijection)}
    assert set(RANGES) == continuous
    assert {f.name for f in LIBRARY.values()} <= continuous


@pytest.mark.skipif(not __cpu_dispatch__, reason="numpy dispatches no CPU features")
def test_per_value_answers_are_the_same_at_every_dispatch_level():
    native, baseline = _answers(None), _answers(" ".join(__cpu_dispatch__))
    lines = N * (len(RANGES) + 3 * len(MODELS)) + 3 * PROTOCOL_N * len(RANGES)
    assert len(native) == len(baseline) == lines
    differ = [(a, b) for a, b in zip(native, baseline) if a != b]
    assert not differ, f"{len(differ)} answers differ, first {differ[0]}"


@pytest.mark.skipif(not __cpu_dispatch__, reason="numpy dispatches no CPU features")
def test_cost_column_is_the_per_datum_cost_without_dispatch():
    rows = [line.split() for line in _answers(" ".join(__cpu_dispatch__), "costs")]
    assert len(rows) == len(SAME_COSTS) * COST_ROWS
    differ = [row for row in rows if row[2] != row[3]]
    assert not differ, f"{len(differ)} costs differ, first {differ[0]}"


if __name__ == "__main__":
    print_costs() if sys.argv[1:] == ["costs"] else print_answers()
