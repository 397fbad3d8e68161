"""The traced run: per-layer self times from spans around calls into msglen.

msglen has no internal spans, so the benchmark times each layer from
outside.  A span covers one call into a layer's public functions.  After
an operation's root call (``cli.main`` in-process, or the library call), the
calls that root makes into the next layer down are repeated from outside
on the same inputs, each in a span whose parent is the root.  A span's self
time is its duration minus its child spans' durations, so ``cli.self_s`` is
what ``cli.main`` spends outside parsing, ingest, estimation, scoring and
sampling: argument parsing, reading the file, schema building and emit.

Spans (id, name, start, end, parent, operation) stay in memory and are
written once, when the run ends.  The import breakdown comes from separate
``python -X importtime`` processes, outside the timed sweeps.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
import time
from collections import Counter, defaultdict

import numpy as np

from msglen import (
    DEFAULT_SAMPLE_AOM,
    ColumnSpec,
    DataSet,
    dataset_from_csv,
    infer_default_aom,
    map_dataset,
    models,
)
from msglen import cli
from msglen.checks import SUITES
from workloads import CliOp

IMPORT_REPEATS = 3
IMPORTS = ("import.msglen_s", "import.cli_s", "import.scipy_s")
LAYERS = ("import", "cli", "values", "functions", "estimation", "models", "checks")
COUNTS = (
    "values.rows",
    "values.bytes_in",
    "functions.apply_calls",
    "functions.jacobian_calls",
    "models.nl_pr_calls",
    "models.random_calls",
)
TIMED = (
    "cli.parse_expr",
    "cli.self",
    "values.read_csv",
    "values.dataset_build",
    "values.infer_aom",
    "values.map_dataset",
    "functions.apply_scalar",
    "functions.apply_vector",
    "functions.jacobian",
    "estimation.estimate_normal",
    "estimation.estimate_product",
    "estimation.estimate_multistate",
    "models.nl_pr_scalar",
    "models.nl_pr_vector",
    "models.random_scalar",
    "models.random_vector",
) + tuple(f"checks.suite.{s}" for s in SUITES)


def metric_name(span: str) -> str:
    """``checks.suite.aom`` -> ``checks.suite_s.aom``; otherwise append ``_s``."""
    if span.startswith("checks.suite."):
        return "checks.suite_s." + span[len("checks.suite.") :]
    return span + "_s"


class Tracer:
    """Spans and counters of one traced sweep."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self.op = 0

    @contextlib.contextmanager
    def span(self, name: str, parent: int | None = None):
        sid = len(self.spans)
        self.spans.append(None)
        start = time.perf_counter()
        try:
            yield sid
        except Exception:
            self.counts[name.split(".")[0] + ".errors"] += 1
            raise
        finally:
            self.spans[sid] = (sid, name, start, time.perf_counter(), parent, self.op)

    def self_times(self) -> Counter:
        child = defaultdict(float)
        for _, _, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        out = Counter()
        for sid, name, start, end, _, _ in self.spans:
            out["cli.self" if name == "cli.main" else name] += end - start - child[sid]
        return out


# ---------------------------------------------------------------------------
# Replays: the calls a root makes into the next layer, repeated from outside
# ---------------------------------------------------------------------------


def _schema(inp, target) -> list:
    if inp.discrete:
        return [ColumnSpec(inp.columns[0], kind="discrete", lo=target.lo, hi=target.hi)]
    aoms = inp.aom_columns or (None,) * len(inp.columns)
    return [ColumnSpec(c, aom_col=a) for c, a in zip(inp.columns, aoms)]


def replay_ingest(tr: Tracer, ds: DataSet, specs, parent: int) -> None:
    """The AoM inference and dataset build inside ``dataset_from_csv``."""
    for j, spec in enumerate(specs):
        if spec.kind == "cts" and spec.aom_col is None and spec.aom_const is None:
            col = [d.x for d in ds] if len(specs) == 1 else [d.components[j] for d in ds]
            with tr.span("values.infer_aom", parent):
                infer_default_aom(col)
    with tr.span("values.dataset_build", parent):
        DataSet(ds.items, ds.schema)


def _replay_read(tr: Tracer, inp, target, parent: int) -> DataSet:
    with open(inp.path, encoding="utf-8", newline="") as handle:
        text = handle.read()
    specs = _schema(inp, target)
    with tr.span("values.read_csv", parent) as sid:
        ds = dataset_from_csv(text, specs)
    tr.counts["values.rows"] += len(ds)
    tr.counts["values.bytes_in"] += len(text.encode("utf-8"))
    replay_ingest(tr, ds, specs, sid)
    return ds


def _replay_map(tr: Tracer, ds: DataSet, f, parent: int) -> None:
    vector = ds.kind == "vec"
    with tr.span("functions.apply_vector" if vector else "functions.apply_scalar", parent) as sid:
        out = [f.apply(d) for d in ds]
    tr.counts["functions.apply_calls"] += len(out)
    if vector:
        vs = [np.asarray(d.components, dtype=float) for d in ds]
        with tr.span("functions.jacobian", sid):
            for v in vs:
                f.jacobian(v)
                f.nl_jacobian_det(v)
        tr.counts["functions.jacobian_calls"] += len(vs)
    with tr.span("values.dataset_build", parent):
        DataSet(tuple(out), ds.schema)


def _estimate_span(family) -> str:
    if isinstance(family, models.MultiStateFamily):
        return "estimation.estimate_multistate"
    if isinstance(family, models.IndependentProductFamily):
        return "estimation.estimate_product"
    return "estimation.estimate_normal"


def replay_estimate(tr: Tracer, family, ds: DataSet, parent: int) -> None:
    """A transformed family maps the data, then runs its base estimator."""
    f = getattr(family, "f", None)
    if f is not None:
        with tr.span("values.map_dataset", parent) as sid:
            ds_mapped = map_dataset(ds, f)
        _replay_map(tr, ds, f, sid)
        family, ds = family.base, ds_mapped
    with tr.span(_estimate_span(family), parent):
        family.estimator().estimate(ds)


def _replay_cli(tr: Tracer, op, parent: int) -> None:
    if op.kind == "check":
        with tr.span(f"checks.suite.{op.suite}", parent):
            SUITES[op.suite]()
        return
    with tr.span("cli.parse_expr", parent):
        target = cli.parse_model_expr(op.expr)
    vector = isinstance(target, (models.VectorFamily, models.VectorModel))
    kind = "vector" if vector else "scalar"
    if op.kind == "sample":
        rng = np.random.default_rng(op.seed)
        with tr.span(f"models.random_{kind}", parent):
            for _ in range(op.count):
                target.random(rng, DEFAULT_SAMPLE_AOM)
        tr.counts["models.random_calls"] += op.count
        return
    ds = _replay_read(tr, op.input, target, parent)
    if op.kind == "fit":
        replay_estimate(tr, target, ds, parent)
        return
    with tr.span(f"models.nl_pr_{kind}", parent):
        for d in ds:
            target.nl_pr(d)
    tr.counts["models.nl_pr_calls"] += len(ds)


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------


def run_cli(argv: list) -> tuple:
    """``msglen`` in-process: (exit code, stdout)."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _run(op) -> bool:
    if isinstance(op, CliOp):
        return op.verify(*run_cli(op.argv))
    return op.verify(op.call())


def _run_traced(tr: Tracer, op) -> bool:
    if isinstance(op, CliOp):
        with tr.span("cli.main") as root:
            code, text = run_cli(op.argv)
        if code != 0:
            tr.counts["cli.errors"] += 1
        ok = op.verify(code, text)
        _replay_cli(tr, op, root)
        return ok
    with tr.span(op.span) as root:
        result = op.call()
    tr.counts.update(op.counts)
    ok = op.verify(result)
    if op.replay is not None:
        op.replay(tr, result, root)
    return ok


def run_ops(ops: list, tr: Tracer | None) -> int:
    """Run ``ops`` in-process, traced when ``tr`` is given; return how many failed."""
    failed = 0
    for i, op in enumerate(ops):
        try:
            if tr is None:
                ok = _run(op)
            else:
                tr.op = i
                ok = _run_traced(tr, op)
        except Exception:
            ok = False
        failed += not ok
    return failed


def import_breakdown(env: dict, repeats: int) -> tuple:
    """Median import times (s) of ``msglen``, ``msglen.cli`` and scipy's
    modules, from ``python -X importtime -c 'import msglen.cli'``."""
    samples, errors = defaultdict(list), 0
    for _ in range(repeats):
        proc = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import msglen.cli"],
            env=env, capture_output=True, text=True,
        )
        if proc.returncode != 0:
            errors += 1
            continue
        scipy_us = 0
        for line in proc.stderr.splitlines():
            if not line.startswith("import time:") or "[us]" in line:
                continue
            self_us, cumulative_us, module = line[len("import time:") :].split("|")
            module = module.strip()
            if module == "msglen":
                samples["import.msglen_s"].append(int(cumulative_us) / 1e6)
            elif module == "msglen.cli":
                samples["import.cli_s"].append(int(cumulative_us) / 1e6)
            elif module == "scipy" or module.startswith("scipy."):
                scipy_us += int(self_us)
        samples["import.scipy_s"].append(scipy_us / 1e6)
    return {k: statistics.median(v) for k, v in samples.items()}, errors


def traced_run(ops: list, seconds: float, env: dict) -> tuple:
    """Sweeps ``ops`` untraced then traced until ``seconds`` pass.

    Returns (per-layer metrics, operations attempted, operations failed,
    span records).  Times are medians over sweeps of each layer's summed
    self time; counts are per sweep.
    """
    imports, import_errors = import_breakdown(env, IMPORT_REPEATS)
    per_sweep, ratios, records = defaultdict(list), [], []
    counts, errors = Counter(), Counter({"import.errors": import_errors})
    attempted, failed = IMPORT_REPEATS, import_errors
    start = time.perf_counter()
    while not ratios or time.perf_counter() - start < seconds:
        t0 = time.perf_counter()
        failed += run_ops(ops, None)
        untraced = time.perf_counter() - t0
        tr = Tracer()
        t0 = time.perf_counter()
        failed += run_ops(ops, tr)
        ratios.append((time.perf_counter() - t0) / untraced)
        attempted += 2 * len(ops)
        selfs = tr.self_times()
        for name in TIMED:
            per_sweep[name].append(selfs[name])
        counts = Counter({k: tr.counts[k] for k in COUNTS})
        errors.update({k: v for k, v in tr.counts.items() if k.endswith(".errors")})
        records.append(tr.spans)
    metrics = {name: (imports.get(name, 0.0), "s") for name in IMPORTS}
    for name in TIMED:
        metrics[metric_name(name)] = (statistics.median(per_sweep[name]), "s")
    for name in COUNTS:
        metrics[name] = (counts[name], "bytes" if name.endswith("bytes_in") else "count")
    for layer in LAYERS:
        metrics[f"{layer}.errors"] = (errors[f"{layer}.errors"], "count")
    metrics["trace.overhead_ratio"] = (statistics.median(ratios), "ratio")
    return metrics, attempted, failed, records
