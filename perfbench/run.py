"""Benchmark for msglen: cold-CLI and library workloads, timed end to end,
and a traced run that times each layer.

Run from the root of a checkout (msglen's sources under ``src/``)::

    python3 perfbench/run.py --workload cli-small --seed 1 --seconds 35 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the traced
sweeps instead and prints the per-layer metrics.  The last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records the environment, the map from
per-layer to end-to-end metrics, and diagnostics (raw wall times, each
operation's median, tail latencies, ``fail_ratio``).  Generated inputs
live under ``.perfbench_work/`` and are removed at exit; a traced run
leaves its spans there as ``spans-<workload>-<seed>.json``.

End-to-end times are wall times scaled to a reference machine speed.  A
shared host's speed drifts by 10-30% within a run and between runs, and
with it the cost of faulting in fresh memory, which cold processes pay as
they start, import and grow, and in-process work pays as it builds
objects.  So a forked child times allocating and freeing a fixed block
after every operation and set-up step, and every end-to-end time of a run
is multiplied by ``FRESH_REF_S`` over the median of that run's samples.
Per-layer times are raw wall times.
"""

from __future__ import annotations

import argparse
import gc
import itertools
import json
import os
import resource
import shutil
import statistics
import struct
import subprocess
import sys
import tempfile
import time
from collections import Counter, defaultdict
from importlib import metadata

from inputs import ROWS, write_inputs
from workloads import WORKLOADS, CliOp

WORK_ROOT = ".perfbench_work"
SETUP_REPEATS = 5
DATA_KINDS = ("fit", "eval", "sample")
KINDS = DATA_KINDS + ("check",)
FRESH_BYTES = 64 << 20
FRESH_REF_S = 0.040  # fresh_memory_time()'s median on a 2-vCPU Intel Xeon VM, Linux 6.18

# Which end-to-end metric each per-layer metric should move, on which workload.
LAYER_MAP = {
    "import.*": "fit_s, eval_s, sample_s, check_s on cli-small (most of a call); "
    "less on cli-100k; only setup_s on api-polar",
    "cli.parse_expr_s, cli.self_s": "eval_s, sample_s on cli-100k",
    "values.*": "fit_s, eval_s on cli-100k; setup_s on api-polar",
    "functions.apply_scalar_s": "fit_s on cli-100k",
    "functions.apply_vector_s, functions.jacobian_s": "fit_s on api-polar",
    "estimation.*": "fit_s on every workload",
    "models.*": "eval_s, sample_s on cli-100k and api-polar",
    "checks.suite_s.*": "check_s on cli-small",
}


def fresh_memory_time() -> float:
    """Seconds to allocate, zero and free ``FRESH_BYTES``: a block this
    large is mapped fresh from the kernel and handed back, so every page
    is faulted in anew.  A forked child does it, so that the block counts
    neither in the client's peak RSS nor, through the address space that a
    spawned child briefly shares, in an msglen process's."""
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            start = time.perf_counter()
            block = bytearray(FRESH_BYTES)
            del block
            os.write(write_end, struct.pack("d", time.perf_counter() - start))
        finally:
            os._exit(0)  # never run the client's own code in the child
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        took = struct.unpack("d", pipe.read(8))[0]
    os.waitpid(pid, 0)
    return took


def _environment() -> dict:
    commit = "unknown"  # a checkout without git metadata
    if os.path.isdir(".git"):
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], capture_output=True, text=True, check=True
            ).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    return {
        "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "nproc": len(os.sched_getaffinity(0)),
        "git_commit": commit,
    }


def _run_op(op, env: dict) -> tuple:
    """(wall seconds, correct, peak RSS in KiB) of one untraced operation;
    the RSS is that of the operation's own process, 0 for an in-process one."""
    start = time.perf_counter()
    if isinstance(op, CliOp):
        # Reaped with wait4 to read this process's own peak RSS, which the
        # larger calibration children must not mask.
        proc = subprocess.Popen(
            [sys.executable, "-m", "msglen.cli", *op.argv],
            env=env, stdout=subprocess.PIPE, stderr=subprocess.DEVNULL,
        )
        with proc.stdout:
            out = proc.stdout.read()
        _, status, usage = os.wait4(proc.pid, 0)
        took = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        return took, op.verify(proc.returncode, out.decode("utf-8", "replace")), usage.ru_maxrss
    try:
        result = op.call()
    except Exception:
        return time.perf_counter() - start, False, 0
    took = time.perf_counter() - start
    return took, op.verify(result), 0


def _setup(w, seed: int, work: str, env: dict, after_step, repeats: int = SETUP_REPEATS) -> tuple:
    """Set up ``repeats`` times: (raw set-up seconds, inputs).

    Each step (generate, import, ingest) is timed on its own, and
    ``after_step()`` is called after each; set-up seconds are the sum of
    the steps' medians."""
    w.load()
    times = defaultdict(list)

    def timed(name, step):
        start = time.perf_counter()
        out = step()
        times[name].append(time.perf_counter() - start)
        after_step()
        return out

    import_argv = [sys.executable, "-c", w.IMPORT]
    for _ in range(repeats):
        inputs = timed("generate", lambda: write_inputs(work, seed, w.INPUTS))
        timed("import", lambda: subprocess.run(import_argv, env=env, check=True))
        timed("ingest", lambda: w.ingest(inputs))
    return sum(statistics.median(v) for v in times.values()), inputs


def untraced(w, seed: int, seconds: float, work: str, env: dict) -> tuple:
    speeds = [fresh_memory_time()]
    setup_raw, inputs = _setup(w, seed, work, env, lambda: speeds.append(fresh_memory_time()))
    w.prepare(inputs, seed, env)
    cycle = w.cycle()
    # An operation's weight is how often it appears in the cycle.
    weight = Counter(id(op) for rnd in cycle for op in rnd)
    ops = {id(op): op for rnd in cycle for op in rnd}
    times = defaultdict(list)
    attempted = failed = peak_kib = 0
    # A full collection before each operation starts it from the same
    # garbage-collector state, whatever the last one left behind.
    gc.collect()
    start = time.perf_counter()
    # The rounds in turn, until the time is up and every operation has run.
    for op in itertools.chain.from_iterable(itertools.cycle(cycle)):
        if time.perf_counter() - start >= seconds and len(times) == len(ops):
            break
        took, ok, rss_kib = _run_op(op, env)
        peak_kib = max(peak_kib, rss_kib)
        gc.collect()
        speeds.append(fresh_memory_time())
        times[id(op)].append(took)
        attempted += 1
        failed += not ok

    scale = FRESH_REF_S / statistics.median(speeds)
    medians = {key: statistics.median(times[key]) * scale for key in ops}

    # Per kind: the weighted mean of each operation's median seconds.
    kind_s = {}
    for k in KINDS:
        keys = [key for key, op in ops.items() if op.kind == k]
        kind_s[f"{k}_s"] = sum(weight[key] * medians[key] for key in keys) / sum(
            weight[key] for key in keys
        )
    metrics = {name: (value, "s") for name, value in kind_s.items()}
    rows = sum(weight[key] * op.rows for key, op in ops.items())
    busy = sum(weight[key] * medians[key] for key in ops)
    metrics["rows_per_s"] = (rows / busy, "1/s")
    if not w.COLD:
        peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics["peak_rss_mb"] = (peak_kib / 1024, "MB")  # ru_maxrss is in KiB on Linux
    metrics["setup_s"] = (setup_raw * scale, "s")
    diagnostics = {
        "fail_ratio": {"value": failed / attempted, "failed": failed, "attempted": attempted},
        "calibration_s": {"median": statistics.median(speeds), "samples": len(speeds)},
        "raw_wall_s": {name: value / scale for name, value in kind_s.items()},
        "raw_setup_s": setup_raw,
        "op_median_s": {op.label: medians[key] for key, op in ops.items()},
    }
    for k in DATA_KINDS:
        ts = [t * scale for key, op in ops.items() if op.kind == k for t in times[key]]
        p90 = statistics.quantiles(ts, n=10)[-1] if len(ts) > 1 else ts[0]
        diagnostics[f"{k}_p90_s"] = {"value": p90, "unit": "s", "samples": len(ts)}
    return metrics, attempted, failed, diagnostics


def traced(w, seed: int, seconds: float, work: str, env: dict) -> tuple:
    import tracing

    _, inputs = _setup(w, seed, work, env, lambda: None, repeats=1)
    inputs.update(write_inputs(work, seed, w.PROBE_INPUTS))
    w.prepare(inputs, seed, env)
    ops = w.sweep() + w.probe_ops(inputs, seed)
    metrics, attempted, failed, spans = tracing.traced_run(ops, seconds, env)
    path = os.path.join(WORK_ROOT, f"spans-{w.NAME}-{seed}.json")
    with open(path, "w", encoding="utf-8") as handle:
        json.dump({"fields": ["id", "name", "start", "end", "parent", "op"], "sweeps": spans}, handle)
    return metrics, attempted, failed, {"sweeps": len(spans), "spans_file": path}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    src = os.path.abspath("src")
    if not os.path.isfile(os.path.join(src, "msglen", "cli.py")):
        print("error: run from the root of an msglen checkout (no src/msglen)", file=sys.stderr)
        return 2
    sys.path.insert(0, src)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)

    w = WORKLOADS[args.workload]()
    os.makedirs(WORK_ROOT, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{w.NAME}-", dir=WORK_ROOT)
    try:
        run = traced if args.trace else untraced
        metrics, attempted, failed, diagnostics = run(w, args.seed, args.seconds, work, env)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    record = {
        "workload": w.NAME,
        "rows": {name: ROWS[name] for name in w.INPUTS},
        "environment": _environment(),
        "layer_map": LAYER_MAP,
        "diagnostics": diagnostics,
    }
    print(json.dumps(record))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
