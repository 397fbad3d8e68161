"""The benchmark's workloads: their inputs, set-up, and operations.

Load comes from one closed-loop client: one operation at a time, the next
sent only when the last has finished.  An operation is one of msglen's
four commands (fit, eval, sample, check), either as a cold ``msglen``
process (``python -m msglen.cli``) or as the matching in-process library
call.  A workload's cycle is a fixed list of rounds, each a list of operations;
the client runs the rounds in turn until the run's time is up and every
operation has run at least once.  How often an operation appears in the
cycle is its weight in the metrics, so the mix does not depend on how
many rounds fit into a run.
"""

from __future__ import annotations

import hashlib
import math
import subprocess
import sys
from dataclasses import dataclass, field
from typing import Callable

import oracle
from inputs import Input

DIGITS = (0, 9)


@dataclass
class CliOp:
    """One ``msglen`` command: run cold by the untraced client, in-process
    by the traced one.  ``verify(exit_code, stdout)`` says if it was right."""

    kind: str
    argv: list
    rows: int
    verify: Callable[[int, str], bool]
    expr: str = ""
    input: Input | None = None
    suite: str = ""
    count: int = 0
    seed: int = 0

    @property
    def label(self) -> str:
        return f"{self.kind} {self.expr or self.suite}"


@dataclass
class ApiOp:
    """One in-process library call; ``verify(result)`` says if it was right.

    For the traced run, ``span`` names the layer the call belongs to,
    ``replay(tracer, result, span_id)`` repeats its calls into lower layers,
    and ``counts`` is the work one call does."""

    kind: str
    span: str
    call: Callable[[], object]
    rows: int
    verify: Callable[[object], bool]
    replay: Callable | None = None
    counts: dict = field(default_factory=dict)

    @property
    def label(self) -> str:
        return f"{self.kind} {self.span}"


# ---------------------------------------------------------------------------
# CLI operations
# ---------------------------------------------------------------------------


def _data_args(inp: Input) -> list:
    out = [inp.path, "--format", "kv"]
    for col in inp.aom_columns:
        out += ["--aom-col", col]
    return out


def fit_op(expr: str, inp: Input, want: oracle.Fit, state: dict) -> CliOp:
    """``fit``; its msg2 must match the oracle, and is kept for ``eval``."""

    def verify(code: int, text: str) -> bool:
        kv = oracle.parse_kv(text)
        ok = code == 0 and oracle.fit_ok(kv, want)
        if ok:
            state[("msg2", expr, inp.name)] = float(kv["msg2"])
        return ok

    return CliOp("fit", ["fit", expr] + _data_args(inp), inp.rows, verify, expr=expr, input=inp)


def eval_op(expr: str, fitted: str, inp: Input, want: oracle.Fit, state: dict) -> CliOp:
    """``eval`` under the fitted parameters ``want``; the total must equal
    the msg2 of the latest ``fit`` of family ``fitted`` (the oracle's
    before the first)."""

    def verify(code: int, text: str) -> bool:
        total = state.get(("msg2", fitted, inp.name), want.msg2)
        return code == 0 and oracle.eval_ok(oracle.parse_kv(text), inp.rows, total)

    return CliOp("eval", ["eval", expr] + _data_args(inp), inp.rows, verify, expr=expr, input=inp)


def sample_op(expr: str, count: int, seed: int, state: dict) -> CliOp:
    """``sample``; every draw with one seed must give the same bytes."""

    def verify(code: int, text: str) -> bool:
        reference = state.setdefault(("sample", expr), text)
        return code == 0 and oracle.sample_ok(text, count, reference)

    argv = ["sample", expr, str(count), "--seed", str(seed)]
    return CliOp("sample", argv, count, verify, expr=expr, count=count, seed=seed)


def check_op(suite: str) -> CliOp:
    def verify(code: int, text: str) -> bool:
        return code == 0 and oracle.check_ok(text)

    return CliOp("check", ["check", suite], 0, verify, suite=suite)


def suite_names(env: dict) -> list:
    """The names in ``msglen.checks.SUITES``, read in a child process so that
    the client of a cold workload does not load msglen itself."""
    code = "from msglen.checks import SUITES; print(*SUITES)"
    proc = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return proc.stdout.split()


def fingerprint(draws: list) -> str:
    """A digest of drawn data (their reprs hold every component and AoM), so
    that the reference draw is kept without keeping its objects."""
    digest = hashlib.sha256()
    for d in draws:
        digest.update(repr(d).encode("utf-8"))
    return digest.hexdigest()


def lognormal_expr(fit: oracle.Fit) -> str:
    return f"normal({fit.params['mean']!r},{fit.params['sd']!r}).transform(log)"


def polar_expr(fit: oracle.Fit) -> str:
    p = fit.params
    return (
        f"rd:normal^2({p['0.mean']!r},{p['0.sd']!r};{p['1.mean']!r},{p['1.sd']!r})"
        ".transform(cartesian2polar)"
    )


LOGNORMAL = "normal.transform(log)"
POLAR = "rd:normal^2.transform(cartesian2polar)"
MULTISTATE = f"multistate:{DIGITS[0]}:{DIGITS[1]}"


def lognormal_ops(inp: Input, seed: int, sample_rows: int, state: dict) -> dict:
    """fit, eval and sample of a log-normal on ``inp``, by kind."""
    want = oracle.lognormal_fit(inp)
    fixed = lognormal_expr(want)
    return {
        "fit": fit_op(LOGNORMAL, inp, want, state),
        "eval": eval_op(fixed, LOGNORMAL, inp, want, state),
        "sample": sample_op(fixed, sample_rows, seed, state),
    }


def polar_ops(inp: Input, seed: int, state: dict) -> dict:
    """fit, eval and sample of the polar model on ``inp``, by kind."""
    want = oracle.polar_fit(inp)
    fixed = polar_expr(want)
    return {
        "fit": fit_op(POLAR, inp, want, state),
        "eval": eval_op(fixed, POLAR, inp, want, state),
        "sample": sample_op(fixed, inp.rows, seed, state),
    }


def multistate_fit_op(inp: Input, state: dict) -> CliOp:
    return fit_op(MULTISTATE, inp, oracle.multistate_fit(inp, *DIGITS), state)


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


class Workload:
    """Set-up and operations of one workload.

    Set-up has three steps, each timed on its own and repeated for
    ``setup_s``: the inputs are written, a child process runs the
    ``IMPORT`` statement, and ``ingest`` reads inputs into memory (only the
    in-process workload does).  ``load`` readies the client's own process
    beforehand, untimed; ``prepare`` builds the operations afterwards,
    untimed.  ``PROBE_INPUTS`` and ``probe_ops`` are used only by the
    traced run, so that every layer reports on every workload.
    """

    NAME = ""
    COLD = True
    INPUTS: tuple = ()
    PROBE_INPUTS: tuple = ()
    # A cold process imports msglen.cli; timing it here also warms the page
    # cache and writes msglen's bytecode before the first timed operation.
    IMPORT = "import msglen.cli"

    def __init__(self):
        self.state: dict = {}

    def load(self) -> None:
        pass

    def ingest(self, inputs: dict) -> None:
        pass

    def prepare(self, inputs: dict, seed: int, env: dict) -> None:
        raise NotImplementedError

    def cycle(self) -> list:
        """The rounds the client runs in turn, each a list of operations."""
        raise NotImplementedError

    def sweep(self) -> list:
        """Operations of one traced sweep: each operation of the cycle once."""
        ops = {id(op): op for rnd in self.cycle() for op in rnd}
        return list(ops.values())

    def probe_ops(self, inputs: dict, seed: int) -> list:
        """Small operations for the layers the workload does not reach."""
        return []


class CliSmall(Workload):
    NAME = "cli-small"
    INPUTS = ("lognormal_1k", "digits_1k", "plane_1k")

    def prepare(self, inputs, seed, env):
        ln = lognormal_ops(inputs["lognormal_1k"], seed, 1_000, self.state)
        self.polar = polar_ops(inputs["plane_1k"], seed, self.state)
        self.fits = [
            ln["fit"],
            fit_op("normal", ln["fit"].input, oracle.normal_fit(ln["fit"].input), self.state),
            multistate_fit_op(inputs["digits_1k"], self.state),
            self.polar["fit"],
        ]
        self.eval, self.sample = ln["eval"], ln["sample"]
        self.checks = [check_op(s) for s in suite_names(env)]

    def cycle(self):
        fits, checks = self.fits, self.checks
        return [
            [fits[r % len(fits)], self.eval, self.sample, checks[r % len(checks)]]
            for r in range(math.lcm(len(fits), len(checks)))
        ]

    def probe_ops(self, inputs, seed):
        return [self.polar["eval"], self.polar["sample"]]


class Cli100k(Workload):
    NAME = "cli-100k"
    INPUTS = ("lognormal_err_100k",)
    PROBE_INPUTS = ("digits_1k", "plane_1k")

    def prepare(self, inputs, seed, env):
        ops = lognormal_ops(inputs["lognormal_err_100k"], seed, 100_000, self.state)
        self.ops = [ops["fit"], ops["eval"], ops["sample"]]
        self.checks = [check_op(s) for s in suite_names(env)]

    def cycle(self):
        # Two of the cheap check processes per round, so that check_s rests
        # on as many samples as the other operations.
        checks = self.checks
        return [self.ops + checks[i : i + 2] for i in range(0, len(checks), 2)]

    def probe_ops(self, inputs, seed):
        polar = polar_ops(inputs["plane_1k"], seed, self.state)
        return [multistate_fit_op(inputs["digits_1k"], self.state)] + list(polar.values())


class ApiPolar(Workload):
    """In-process: import and ingest happen in set-up; each round fits,
    scores and samples the polar model and runs every check suite.

    The set-up import is timed in a child process (``import msglen,
    msglen.checks``, as the client's own process does once, untimed, in
    ``load``); the ingest is timed in-process."""

    NAME = "api-polar"
    COLD = False
    INPUTS = ("plane_20k",)
    PROBE_INPUTS = ("lognormal_1k", "digits_1k")
    IMPORT = "import msglen, msglen.checks"

    def load(self):
        import msglen  # noqa: F401
        import msglen.checks  # noqa: F401

    def ingest(self, inputs):
        from msglen import ColumnSpec, dataset_from_csv

        inp = inputs["plane_20k"]
        with open(inp.path, encoding="utf-8", newline="") as handle:
            self.text = handle.read()
        self.specs = [ColumnSpec(c) for c in inp.columns]
        self.ds = dataset_from_csv(self.text, self.specs)

    def prepare(self, inputs, seed, env):
        import numpy as np
        from msglen import (
            DEFAULT_SAMPLE_AOM,
            cartesian2polar,
            dataset_from_csv,
            independent_rd,
            normal,
        )
        from msglen.checks import SUITES

        family = independent_rd([normal, normal]).transform(cartesian2polar)
        want = oracle.polar_fit(inputs["plane_20k"])
        text, specs, ds, n, st = self.text, self.specs, self.ds, len(self.ds), self.state

        def fit():
            return family.estimator().estimate(ds)

        def fit_ok(res):
            params = res.model.params()
            ok = all(oracle.close(params[k], v) for k, v in want.params.items())
            ok = ok and oracle.close(res.msg2, want.msg2)
            if ok:
                st["model"], st["msg2"] = res.model, res.msg2
            return ok

        def score():
            return math.fsum(st["model"].nl_pr(d) for d in ds)

        def draw():
            rng = np.random.default_rng(seed)
            return [st["model"].random(rng, DEFAULT_SAMPLE_AOM) for _ in range(n)]

        def draw_ok(draws):
            got = fingerprint(draws)
            return len(draws) == n and st.setdefault("draws", got) == got

        def replay_ingest(tr, got, span_id):
            import tracing

            tracing.replay_ingest(tr, got, specs, span_id)

        def replay_fit(tr, _, span_id):
            import tracing

            tracing.replay_estimate(tr, family, ds, span_id)

        def check(suite):
            def ok(results):
                return bool(results) and all(r.passed for r in results)

            return ApiOp("check", f"checks.suite.{suite}", SUITES[suite], 0, ok)

        # Traced only: the set-up ingest, so the values layer reports here too.
        self.ingest_op = ApiOp(
            "ingest", "values.read_csv", lambda: dataset_from_csv(text, specs), n,
            lambda got: len(got) == n, replay_ingest,
            {"values.rows": n, "values.bytes_in": len(text.encode("utf-8"))},
        )
        self.ops = [
            ApiOp("fit", "api.fit", fit, n, fit_ok, replay_fit),
            ApiOp("eval", "models.nl_pr_vector", score, n,
                  lambda total: oracle.close(total, st["msg2"]),
                  counts={"models.nl_pr_calls": n}),
            ApiOp("sample", "models.random_vector", draw, n, draw_ok,
                  counts={"models.random_calls": n}),
        ]
        self.checks = [check(s) for s in SUITES]

    def cycle(self):
        # In-process suites take 5-40 ms each, so every round runs them all.
        return [self.ops + self.checks]

    def sweep(self):
        return [self.ingest_op] + super().sweep()

    def probe_ops(self, inputs, seed):
        ln = lognormal_ops(inputs["lognormal_1k"], seed, 1_000, self.state)
        return list(ln.values()) + [multistate_fit_op(inputs["digits_1k"], self.state)]


WORKLOADS = {"cli-small": CliSmall, "cli-100k": Cli100k, "api-polar": ApiPolar}
