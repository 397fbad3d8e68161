"""Closed-form numpy oracles, and the checks of msglen's outputs against them.

msglen fits by looping over validated datum objects; the oracle reads the
same CSV with numpy and evaluates the closed forms (sample mean, the
(N-1)-denominator sd, summed negative log densities, count-based
multistate probabilities).  A fit or score counts as correct only if it
agrees with the oracle to a relative 1e-9.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

REL_TOL = 1e-9
HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)
TWO_PI = 2.0 * math.pi


def close(got: float, want: float, tol: float = REL_TOL) -> bool:
    return abs(got - want) <= tol * max(1.0, abs(want))


@dataclass(frozen=True)
class Fit:
    """Fitted statistical parameters (named as ``msglen fit`` reports them) and msg2."""

    params: dict
    msg2: float


def infer_aom(col: np.ndarray) -> float:
    """Smallest positive gap between distinct values, floored at 1e-6 of the range."""
    distinct = np.unique(col)
    if distinct.size >= 2:
        return max(float(np.diff(distinct).min()), 1e-6 * float(distinct[-1] - distinct[0]))
    return 1e-6 * max(1.0, abs(float(distinct[0])))


def read(inp) -> tuple[np.ndarray, np.ndarray]:
    """Data columns and their AoMs, each shaped (rows, columns)."""
    with open(inp.path, encoding="utf-8") as handle:
        header = handle.readline().strip().split(",")
    table = np.loadtxt(inp.path, delimiter=",", skiprows=1, ndmin=2)
    x = table[:, [header.index(c) for c in inp.columns]]
    if inp.aom_columns:
        aom = table[:, [header.index(c) for c in inp.aom_columns]]
    else:
        aom = np.broadcast_to([infer_aom(x[:, j]) for j in range(x.shape[1])], x.shape)
    return x, aom


def _nl_pdf(y: np.ndarray, mean: float, sd: float) -> np.ndarray:
    z = (y - mean) / sd
    return HALF_LN_TWO_PI + math.log(sd) + 0.5 * z * z


def _normal(y: np.ndarray) -> tuple[float, float]:
    return float(np.mean(y)), float(np.std(y, ddof=1))


def _normal_fit(y: np.ndarray, aom: np.ndarray) -> Fit:
    mean, sd = _normal(y)
    return Fit({"mean": mean, "sd": sd}, float(np.sum(_nl_pdf(y, mean, sd) - np.log(aom))))


def normal_fit(inp) -> Fit:
    x, aom = read(inp)
    return _normal_fit(x[:, 0], aom[:, 0])


def lognormal_fit(inp) -> Fit:
    """normal.transform(log): a normal fit to log x, whose AoM is aom / x."""
    x, aom = read(inp)
    return _normal_fit(np.log(x[:, 0]), aom[:, 0] / x[:, 0])


def polar_fit(inp) -> Fit:
    """rd:normal^2.transform(cartesian2polar): normal fits to r and theta.

    The mapped AoM box has volume |det J| * aom1 * aom2 = aom1 * aom2 / r.
    """
    x, aom = read(inp)
    r = np.hypot(x[:, 0], x[:, 1])
    theta = np.arctan2(x[:, 1], x[:, 0]) % TWO_PI
    (m0, s0), (m1, s1) = _normal(r), _normal(theta)
    nl = _nl_pdf(r, m0, s0) + _nl_pdf(theta, m1, s1)
    msg2 = float(np.sum(nl - np.log(aom[:, 0] * aom[:, 1] / r)))
    return Fit({"0.mean": m0, "0.sd": s0, "1.mean": m1, "1.sd": s1}, msg2)


def multistate_fit(inp, lo: int, hi: int) -> Fit:
    x, _ = read(inp)
    counts = np.bincount(x[:, 0].astype(int) - lo, minlength=hi - lo + 1)
    n, k = int(counts.sum()), counts.size
    probs = (counts + 0.5) / (n + 0.5 * k)
    params = {f"p{lo + i}": float(p) for i, p in enumerate(probs)}
    return Fit(params, float(-np.sum(counts * np.log(probs))))


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------


def parse_kv(text: str) -> dict:
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def fit_ok(kv: dict, want: Fit) -> bool:
    """A ``fit --format kv`` report agrees with the oracle."""
    try:
        got = {k: float(kv[f"param.{k}"]) for k in want.params}
        msg1, msg2, msg = float(kv["msg1"]), float(kv["msg2"]), float(kv["msg"])
    except (KeyError, ValueError):
        return False
    return (
        all(close(got[k], v) for k, v in want.params.items())
        and close(msg2, want.msg2)
        and msg1 >= 0.0
        and close(msg, msg1 + msg2)
    )


def eval_ok(kv: dict, rows: int, want_total: float) -> bool:
    """An ``eval --format kv`` report has one finite cost per row and the
    expected total."""
    try:
        costs = [float(kv[f"nlpr.{i}"]) for i in range(rows)]
        count, total = int(kv["count"]), float(kv["total"])
    except (KeyError, ValueError):
        return False
    return count == rows and all(math.isfinite(c) for c in costs) and close(total, want_total)


def sample_ok(text: str, rows: int, reference: str | None) -> bool:
    """``sample`` wrote a header and ``rows`` rows, byte for byte the same
    as the first draw with this seed."""
    lines = text.splitlines()
    return len(lines) == rows + 1 and (reference is None or text == reference)


def check_ok(text: str) -> bool:
    """The last line of ``check`` reads ``<suite>: k/k passed``."""
    lines = text.strip().splitlines()
    m = re.fullmatch(r"\S+: (\d+)/(\d+) passed", lines[-1]) if lines else None
    return m is not None and int(m[1]) > 0 and m[1] == m[2]
