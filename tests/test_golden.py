"""A golden corpus: what each of a fixed set of commands prints.

Each file under ``tests/golden/`` holds one command's argv, stdin, exit
code, stdout and stderr.  The commands cover ``fit`` (text and kv),
``eval --format kv`` and seeded ``sample`` for the main model
expressions, every ``check`` suite of ``msglen.checks.SUITES``, the bad
inputs of ``ERRORS`` and the README's command examples.  Their inputs are
written at test time by ``perfbench/inputs.py``'s writers from fixed
seeds, so the corpus holds only outputs.

``ERRORS`` is the one list of bad inputs.  Besides its golden files,
``--errors`` runs each case through the real entry point, as CI does:

    PYTHONPATH=src python tests/test_golden.py --errors

Every command runs in one subprocess through ``msglen.cli.main``, with
every numpy CPU dispatch feature switched off (``NPY_DISABLE_CPU_FEATURES``,
as in ``tests/test_dispatch.py``), so the bytes do not depend on the CPU
the suite runs on.  A different numpy may still change its baseline
kernels, so the corpus records the numpy version it was made with.

A change that means to alter an output regenerates the corpus and names
each golden file it changed, and why:

    PYTHONPATH=src python tests/test_golden.py --regenerate
"""

import contextlib
import importlib.util
import io
import json
import os
import random
import shlex
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest

import msglen
from msglen.checks import SUITES

try:
    from numpy._core._multiarray_umath import __cpu_dispatch__
except ImportError:  # numpy 1.x
    from numpy.core._multiarray_umath import __cpu_dispatch__

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).resolve().parent / "golden"
NUMPY_VERSION = GOLDEN / "NUMPY_VERSION"
SEED = 901

# file name -> (perfbench writer, rows): the inputs the commands read.
# data.csv is the README's file, with an err column, from the log-normal
# writer that adds one.
INPUTS = {
    "lognormal_1k": ("lognormal_1k", 1000),
    "digits_1k": ("digits_1k", 1000),
    "plane_1k": ("plane_1k", 1000),
    "data": ("lognormal_err_100k", 1000),
}

# label -> (base, parameters, transform, input, extra flags): each family
# is fitted as base + transform and scored and sampled with the parameters.
DIGITS = "(0.05,0.15,0.1,0.1,0.1,0.1,0.1,0.1,0.1,0.1)"
MODELS = {
    "lognormal": ("normal", "(0.9,0.5)", ".transform(log)", "lognormal_1k", ()),
    "polar": ("rd:normal^2", "(5.3,0.5;0.8,0.1)", ".transform(cartesian2polar)", "plane_1k", ()),
    "permuted": ("rd:normal^2", "(3.7,0.5;3.8,0.5)", ".transform(permute(1,0))", "plane_1k", ()),
    "rd2": ("rd:normal^2", "(3.7,0.5;3.8,0.5)", "", "plane_1k", ()),
    "rd1": ("rd:normal^1", "(3.7,0.5)", "", "plane_1k", ("--col", "x1")),
    "multistate": ("multistate:0:9", DIGITS, "", "digits_1k", ()),
    "rotated": ("multistate:0:9", DIGITS, ".transform(rotate(3))", "digits_1k", ()),
    "reversed": ("multistate:0:9", DIGITS, ".transform(reverse)", "digits_1k", ()),
    "uniform": ("uniform:0:9", "", "", "digits_1k", ()),
}

# The bad inputs, (stdin, argv): each has a golden file, and --errors
# runs each through the real entry point.
ERRORS = [
    ("x\n1e308\n-1e308\n", ["fit", "normal", "-"]),
    ("", ["sample", "normal(1e300,1).transform(inv)", "1", "--seed", "0"]),
    ("", ["sample", "rd:normal^2(1e300,1;0,0.5).transform(cartesian2polar)", "1", "--seed", "0"]),
    ("x,aom\n-1,0.1\n", ["eval", "normal(0,1).transform(log)", "-", "--aom-col", "aom"]),
    ("x1,x2\n0,0\n1,1\n", ["fit", "rd:normal^2.transform(cartesian2polar)", "-"]),
    # eval refuses the polar row that fit refuses: r*r underflows at 1e-200.
    (
        "x1,x2\n1e-200,0\n",
        ["eval", "rd:normal^2(0,1;0,1).transform(cartesian2polar)", "-", "--aom-const", "0.1"],
    ),
    ("x,aom\n1.5e154,1\n1.5e154,1\n", ["eval", "normal(0,1)", "-", "--aom-col", "aom"]),
    ("x,aom\n1e308,1\n", ["eval", "normal(0,1)", "-", "--aom-col", "aom"]),
    ("x,aom\n1.7e154,1\n", ["eval", "normal(0,1)", "-", "--aom-col", "aom", "--bits"]),
    ("x\n1e308\n", ["fit", "normal.transform(log).transform(log)", "-", "--aom-const", "0.01"]),
    # A chain refuses a datum that leaves a map's domain part way: log at 0
    # here, and exp at 1000 in the second.
    (
        "x,aom\n1,0.1\n",
        ["eval", "normal(0,1).transform(log).transform(linear(1,-1))", "-", "--aom-col", "aom"],
    ),
    ("x\n1\n2\n1000\n", ["fit", "normal.transform(log).transform(exp)", "-", "--aom-const", "0.1"]),
    ("", ["fit"]),
    ("", ["sample", "normal(0,1)", "x"]),
    ("", ["sample", "normal(0,1)", "1", "--seed", "-1"]),
    ("k\n1\n", ["eval", "uniform:0:3", "-", "--aom-const", "-5"]),
    ("x1,x2\n1e308,1\n-1e308,2\n", ["fit", "rd:normal^2", "-", "--aom-const", "1"]),
    ("x,err\r1.5,0.1\r", ["fit", "normal", "-", "--aom-col", "err"]),
    (
        "x1,x2\n1e-160,1e-160\n1,2\n",
        ["fit", "rd:normal^2.transform(cartesian2polar)", "-", "--aom-const", "1e200"],
    ),
    # The three CSV doors that admit an AoM name its column, never a dataset
    # index (error-19..21.txt pin the text).
    ("x,err\n1,0.1\n2,1e-310\n", ["fit", "normal", "-", "--aom-col", "err"]),
    ("x\n1\n2\n", ["fit", "normal", "-", "--aom-const", "1e-310"]),
    ("x\n5e-324\n1e-323\n", ["fit", "normal", "-"]),
    # An integer of 5000 digits, past Python's limit for converting a string.
    ("", ["sample", f"multistate:0:3(0.1,0.2,0.3,0.4).transform(rotate({'9' * 5000}))", "1"]),
    # A chain of 2000 transforms, past cli.MAX_TRANSFORMS and deep enough to
    # overflow the stack if it were built.
    ("x\n1\n2\n", ["fit", "normal" + ".transform(identity)" * 2000, "-"]),
    # sample checks --sample-aom at every count, and refuses it for discrete data.
    ("", ["sample", "normal(0,1)", "0", "--sample-aom", "-5"]),
    ("", ["sample", "uniform:0:3", "3", "--sample-aom", "-5"]),
]


def commands() -> dict:
    """name -> (argv, stdin, file to save stdout in, or None)."""
    out = {}
    for label, (base, params, transform, data, flags) in MODELS.items():
        family, model, csv = base + transform, base + params + transform, f"{data}.csv"
        out[f"{label}-fit"] = (["fit", family, csv, *flags], "", None)
        out[f"{label}-fit-kv"] = (["fit", family, csv, *flags, "--format", "kv"], "", None)
        out[f"{label}-eval-kv"] = (["eval", model, csv, *flags, "--format", "kv"], "", None)
        out[f"{label}-sample"] = (["sample", model, "20", "--seed", "7"], "", None)
    for suite in SUITES:
        out[f"check-{suite}"] = (["check", suite], "", None)
    for i, (stdin, argv) in enumerate(ERRORS):
        out[f"error-{i:02d}"] = (argv, stdin, None)
    # README's CLI examples, in order; its two check examples are above.
    out["readme-1-fit"] = (["fit", "normal.transform(log)", "data.csv", "--aom-col", "err"], "", None)
    out["readme-2-fit-bits-kv"] = (
        ["fit", "normal.transform(log)", "data.csv", "--aom-col", "err", "--bits", "--format", "kv"],
        "",
        None,
    )
    out["readme-3-eval"] = (["eval", "normal(0,1)", "-", "--aom-col", "aom"], "x,aom\n0,1\n", None)
    out["readme-4-sample"] = (
        ["sample", "normal(0,1).transform(log)", "1000", "--seed", "42"],
        "",
        "draws.csv",
    )
    out["readme-5-fit-draws"] = (
        ["fit", "normal.transform(log)", "draws.csv", "--aom-col", "aom"],
        "",
        None,
    )
    return out


def write_inputs(directory: Path) -> None:
    """Write every input of INPUTS under directory with the perfbench writers."""
    spec = importlib.util.spec_from_file_location("perfbench_inputs", ROOT / "perfbench" / "inputs.py")
    inputs = sys.modules[spec.name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(inputs)
    for name, (writer, rows) in INPUTS.items():
        # As inputs.write_inputs seeds the writer, at a row count of at most 2,000.
        lines = inputs._CATALOGUE[writer][0](random.Random(f"{SEED}:{writer}"), rows)
        (directory / f"{name}.csv").write_text("\n".join(lines) + "\n", encoding="utf-8", newline="")


def emit() -> None:
    """Run every command through main in this process, in the current
    directory; print {name: [exit code, stdout, stderr]} as JSON."""
    from msglen.cli import main

    results = {}
    for name, (argv, stdin, save) in commands().items():
        out, err = io.StringIO(), io.StringIO()
        sys.stdin = io.StringIO(stdin)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                try:
                    code = main(argv)
                except Exception as e:  # an uncaught error is an output too
                    print(f"uncaught {type(e).__name__}: {e}", file=sys.stderr)
                    code = 1
        for w in caught:
            err.write(f"warning: {w.category.__name__}: {w.message}\n")
        if save is not None:
            Path(save).write_text(out.getvalue(), encoding="utf-8", newline="")
        results[name] = [code, out.getvalue(), err.getvalue()]
    json.dump(results, sys.__stdout__)


def render(argv: list, stdin: str, result: list) -> str:
    """One golden file's text."""
    code, stdout, stderr = result
    return (
        f"argv: {shlex.join(argv)}\nstdin: {stdin!r}\nexit: {code}\n"
        f"--- stdout\n{stdout}--- stderr\n{stderr}"
    )


def msglen_env() -> dict:
    """This environment, with the msglen this file imported first on PYTHONPATH."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(Path(msglen.__file__).resolve().parents[1]), env.get("PYTHONPATH")])
    )
    return env


def run_corpus(directory: Path) -> dict:
    """name -> the golden text each command gives now, run in directory."""
    write_inputs(directory)
    env = msglen_env()
    env["NPY_DISABLE_CPU_FEATURES"] = " ".join(__cpu_dispatch__)
    proc = subprocess.run(
        [sys.executable, __file__, "--emit"],
        capture_output=True,
        text=True,
        env=env,
        cwd=directory,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    return {name: render(argv, stdin, results[name]) for name, (argv, stdin, _) in commands().items()}


def regenerate() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        texts = run_corpus(Path(tmp))
    GOLDEN.mkdir(exist_ok=True)
    for stale in set(GOLDEN.glob("*.txt")) - {GOLDEN / f"{name}.txt" for name in texts}:
        stale.unlink()
    for name, text in texts.items():
        (GOLDEN / f"{name}.txt").write_text(text, encoding="utf-8", newline="")
    NUMPY_VERSION.write_text(np.__version__ + "\n", encoding="utf-8")
    print(f"wrote {len(texts)} golden files with numpy {np.__version__}")


def check_errors() -> int:
    """Run every ERRORS case through the real entry point, with every
    warning an error, one process each; return the number that fail.

    Each command must exit 1 or 2 with an empty stdout and one "error: "
    line on stderr.  The tests call main in-process, so a warning that
    escapes only from the interpreter's own entry shows here alone.
    """
    env, failed = msglen_env(), 0
    for stdin, argv in ERRORS:
        proc = subprocess.run(
            [sys.executable, "-X", "dev", "-W", "error", "-m", "msglen.cli", *argv],
            input=stdin.encode(),
            capture_output=True,
            env=env,
            timeout=60,
        )
        err = proc.stderr.decode(errors="replace")
        command = shlex.join(argv)
        command = command if len(command) <= 100 else command[:97] + "..."
        print(f"{command}: exit {proc.returncode}\n{err}", end="")
        lines = err.splitlines(keepends=True)
        if not (
            proc.returncode in (1, 2)
            and proc.stdout == b""
            and len(lines) == 1
            and lines[0].startswith("error: ")
            and lines[0].endswith("\n")
        ):
            print("FAILED: want exit 1 or 2, no stdout and one 'error: ' line")
            failed += 1
    print(f"{len(ERRORS) - failed} of {len(ERRORS)} bad inputs give a one-line error")
    return failed


def test_check_errors_counts_each_command_without_a_one_line_error(monkeypatch, capsys):
    # A usage error passes; a fit that succeeds prints to stdout and fails.
    monkeypatch.setitem(globals(), "ERRORS", [("", ["fit"]), ("x\n1\n2\n", ["fit", "normal", "-"])])
    assert check_errors() == 1
    assert capsys.readouterr().out.endswith("1 of 2 bad inputs give a one-line error\n")


@pytest.fixture(scope="module")
def corpus(tmp_path_factory) -> dict:
    return run_corpus(tmp_path_factory.mktemp("golden"))


def test_one_golden_file_per_command():
    assert {p.stem for p in GOLDEN.glob("*.txt")} == set(commands())


@pytest.mark.parametrize("name", sorted(commands()))
def test_output_is_the_golden_output(corpus, name):
    with open(GOLDEN / f"{name}.txt", encoding="utf-8", newline="") as handle:
        want = handle.read()
    made_with = NUMPY_VERSION.read_text(encoding="utf-8").strip()
    assert corpus[name] == want, (
        f"{name} differs from tests/golden/{name}.txt; the corpus was made with numpy "
        f"{made_with} and this run has numpy {np.__version__}"
    )


if __name__ == "__main__":
    if sys.argv[1:] == ["--emit"]:
        emit()
    elif sys.argv[1:] == ["--regenerate"]:
        regenerate()
    elif sys.argv[1:] == ["--errors"]:
        sys.exit(1 if check_errors() else 0)
    else:
        sys.exit(
            f"usage: {sys.argv[0]} --regenerate | --errors | --emit\n"
            "  --regenerate  rewrite tests/golden/ from the commands' outputs now\n"
            "  --errors      run every ERRORS case through python -m msglen.cli\n"
            "  --emit        print every command's outputs as JSON, run in this directory"
        )
