"""Seeded CSV inputs for the benchmark workloads.

Each input is a CSV file written from the workload seed alone, so one seed
always gives the same bytes; msglen sees only these files.  Values are
rounded to 4 decimals, as measured data would be.  Inputs without an AoM
column leave msglen to infer the AoM from the column's granularity.
"""

from __future__ import annotations

import math
import os
import random
from dataclasses import dataclass


@dataclass(frozen=True)
class Input:
    """One generated CSV file and how msglen reads it."""

    name: str
    path: str
    rows: int
    columns: tuple[str, ...]
    aom_columns: tuple[str, ...] = ()
    discrete: bool = False


def _lognormal(rng: random.Random, n: int, with_err: bool) -> list[str]:
    mu, sd = rng.uniform(0.5, 1.5), rng.uniform(0.3, 0.7)
    if not with_err:
        return ["x"] + [f"{math.exp(rng.gauss(mu, sd)):.4f}" for _ in range(n)]
    errs = ("0.0001", "0.0002", "0.0005")
    return ["x,err"] + [
        f"{math.exp(rng.gauss(mu, sd)):.4f},{rng.choice(errs)}" for _ in range(n)
    ]


def _digits(rng: random.Random, n: int) -> list[str]:
    weights = [rng.uniform(0.2, 1.0) for _ in range(10)]
    return ["k"] + [str(k) for k in rng.choices(range(10), weights, k=n)]


def _plane(rng: random.Random, n: int) -> list[str]:
    # Centred well inside the first quadrant: no point lands on the origin,
    # where cartesian2polar is singular.
    cx, cy, sd = rng.uniform(2.0, 4.0), rng.uniform(2.0, 4.0), rng.uniform(0.3, 0.6)
    return ["x1,x2"] + [
        f"{rng.gauss(cx, sd):.4f},{rng.gauss(cy, sd):.4f}" for _ in range(n)
    ]


# name -> (row writer, rows, data columns, AoM columns, discrete)
_CATALOGUE = {
    "lognormal_err_100k": (lambda r, n: _lognormal(r, n, True), 100_000, ("x",), ("err",), False),
    "lognormal_1k": (lambda r, n: _lognormal(r, n, False), 1_000, ("x",), (), False),
    "digits_1k": (_digits, 1_000, ("k",), (), True),
    "plane_1k": (_plane, 1_000, ("x1", "x2"), (), False),
    "plane_20k": (_plane, 20_000, ("x1", "x2"), (), False),
}

ROWS = {name: entry[1] for name, entry in _CATALOGUE.items()}


def write_inputs(directory: str, seed: int, names) -> dict[str, Input]:
    """Write the named inputs under ``directory``; return them by name."""
    out = {}
    for name in names:
        writer, rows, columns, aom_columns, discrete = _CATALOGUE[name]
        # A string seed is hashed deterministically, independent of PYTHONHASHSEED.
        lines = writer(random.Random(f"{seed}:{name}"), rows)
        path = os.path.join(directory, f"{name}.csv")
        with open(path, "w", encoding="utf-8", newline="") as handle:
            handle.write("\n".join(lines) + "\n")
        out[name] = Input(name, path, rows, columns, aom_columns, discrete)
    return out
