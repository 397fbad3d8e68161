"""Self-contained invariance suites behind the ``check`` CLI command.

Each of the paper's laws is one public function that returns its
deviation for one case, and the suites and the tests call them:

* ``cost_gap(a, b, data)``: the largest gap between two models' costs of
  the same data (parameterise/transform commute);
* ``estimate_transform_gaps(family, f, ds, ps, probes=None)``: a fit of
  the family to ``ds``, transformed by f, against a fit of
  ``family.transform(f)`` to ``ds`` mapped through f's inverse: their
  cost gap over the probes (``commute-est``) and their msg gap (``info``);
* ``inverse_jacobian_gap(f, v)``: how far the inverse's Jacobian at f(v)
  times f's at v is from the identity;
* ``det_gap(f, v, det)``: the relative error of ``|det J|`` against det;
* ``jacobian_fd_gap(f, v)``: the Jacobian against central finite
  differences (``finite_difference_jacobian``);
* ``scalar_aom_gap(f, x, aom)``: the AoM ``apply`` gives against
  ``aom * |f'(x)|``;
* ``aom_volume_gap(f, d)``: the AoM volume ``apply`` gives against
  ``|det J|`` times the datum's;
* ``doubling_gap(model, d)``: a doubled AoM (volume) against a saving of
  ln 2 nits;
* ``mass_gap(model, nodes)``: a quadrature of the model's pdf against 1.

The suites run these laws on fixed cases with fixed seeds and fixed
quadrature rules, and need numpy alone, so repeated runs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from . import models
from .values import CtsDatum, DataSet, DiscreteDatum, VecDatum, map_dataset

__all__ = [
    "CheckResult", "SUITES", "cost_gap", "estimate_transform_gaps", "inverse_jacobian_gap",
    "det_gap", "finite_difference_jacobian", "jacobian_fd_gap", "scalar_aom_gap",
    "aom_volume_gap", "doubling_gap", "mass_gap",
]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, tol: float) -> CheckResult:
    return CheckResult(name, deviation <= tol, f"max deviation {deviation:.3g} (tol {tol:g})")


def _worst(gaps) -> float:
    """The largest of the gaps (0 if none), or NaN if any is NaN (max()
    would drop it)."""
    worst = 0.0
    for gap in gaps:
        worst = gap if gap > worst or gap != gap else worst
    return float(worst)


def _log_uniform(rng, lo: float, hi: float) -> float:
    """10 ** U(lo, hi): a draw spread evenly over the decades lo to hi."""
    return 10.0 ** float(rng.uniform(lo, hi))


# ---------------------------------------------------------------------------
# The laws: each returns its deviation for one case
# ---------------------------------------------------------------------------


def cost_gap(a, b, data) -> float:
    """The largest |a.nl_pr(d) - b.nl_pr(d)| over the data, in nits; NaN
    if any datum's gap is NaN."""
    return _worst(abs(a.nl_pr(d) - b.nl_pr(d)) for d in data)


def estimate_transform_gaps(family, f, ds: DataSet, ps, probes=None) -> tuple[float, float]:
    """Fit family to ds, and family.transform(f) to ds mapped through f's
    inverse.  The first fit's model transformed by f should cost each probe
    what the second's does (the probes are the mapped data unless given;
    ``()`` compares msg alone), and both fits should have the same msg:
    returns (the cost gap, the msg gap)."""
    plain = family.estimator(ps).estimate(ds)
    mapped_ds = map_dataset(ds, f.inverse())
    mapped = family.transform(f).estimator(ps).estimate(mapped_ds)
    data = mapped_ds if probes is None else probes
    return cost_gap(plain.model.transform(f), mapped.model, data), abs(plain.msg - mapped.msg)


def inverse_jacobian_gap(f, v) -> float:
    """The largest entry of |J_{f^-1}(f(v)) J_f(v) - I|."""
    prod = np.array(f.inverse().jacobian(f(v))) @ np.array(f.jacobian(v))
    return float(np.max(np.abs(prod - np.eye(f.dim))))


def det_gap(f, v, det: float) -> float:
    """The error of |det J_f(v)| relative to det."""
    return abs(abs(float(np.linalg.det(f.jacobian(v)))) - det) / det


def finite_difference_jacobian(f, v) -> np.ndarray:
    """f's Jacobian at v by central differences, with step 1e-6 *
    max(1, |v_j|) along component j."""
    v = np.asarray(v, dtype=np.float64)
    jac = np.empty((f.dim, f.dim))
    for j, x in enumerate(v.tolist()):
        step = np.zeros(f.dim)
        step[j] = h = 1e-6 * max(1.0, abs(x))
        jac[:, j] = np.subtract(f(v + step), f(v - step)) / (2.0 * h)
    return jac


def jacobian_fd_gap(f, v) -> float:
    """The largest gap between f's Jacobian at v and its central finite
    difference, each entry relative to max(1, |J_ij|)."""
    rows = zip(finite_difference_jacobian(f, v).tolist(), f.jacobian(v))
    return _worst(abs(a - b) / max(1.0, abs(b)) for fr, jr in rows for a, b in zip(fr, jr))


def scalar_aom_gap(f, x: float, aom: float) -> float:
    """The error of the AoM of f.apply at (x, aom) relative to aom * |f'(x)|."""
    want = aom * abs(f.d_dx(x))
    return abs(f.apply(CtsDatum(x, aom)).aom - want) / want


def aom_volume_gap(f, d: VecDatum) -> float:
    """The error of the AoM volume of f.apply(d) relative to |det J| times
    d's volume."""
    want = math.exp(-f.nl_jacobian_det(np.array(d.components))) * d.aom_volume
    return abs(f.apply(d).aom_volume - want) / want


def doubling_gap(model, d) -> float:
    """How far the nits saved by doubling d's AoM (a vector datum's first,
    which doubles its volume) are from ln 2."""
    if isinstance(d, VecDatum):
        doubled = VecDatum(d.components, (2.0 * d.aoms[0], *d.aoms[1:]))
    else:
        doubled = CtsDatum(d.x, 2.0 * d.aom)
    return abs(model.nl_pr(d) - model.nl_pr(doubled) - math.log(2.0))


def mass_gap(model, nodes) -> float:
    """|sum of w * pdf(x) over the (x, w) nodes - 1|."""
    return abs(math.fsum(w * model.pdf(x) for x, w in nodes) - 1.0)


# ---------------------------------------------------------------------------
# The suites: the laws on fixed cases
# ---------------------------------------------------------------------------


def _normal_data(rng, n: int, mean: float, sd: float, g=float) -> list[CtsDatum]:
    """n data, each a value g(N(mean, sd)) and then an AoM 10**U(-4, -1)."""
    return [
        CtsDatum(g(float(rng.normal(mean, sd))), 10.0 ** float(rng.uniform(-4, -1)))
        for _ in range(n)
    ]


def check_commute_sp() -> list[CheckResult]:
    """Parameterising and transforming commute, as distributions."""
    rng = np.random.default_rng(20240901)
    out = []
    for sp in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
        for f in (fn.log, fn.linear(2.0, 1.0)):
            data = _normal_data(rng, 100, *sp, f.inverse())
            gap = cost_gap(
                models.normal.transform(f).parameterise(sp),
                models.normal.parameterise(sp).transform(f),
                data,
            )
            out.append(_result(f"parameterise/transform commute sp={sp} f={f.name}", gap, 1e-9))
    return out


_WIDE = models.NormalPriors(mu_range=1e4, sigma_bounds=(1e-9, 1e6))


def _fitted_cases(rng):
    """For each function f, a random dataset of 10 to 500 rows for the
    normal to fit, under the fixed priors _WIDE."""
    for f, mean, sd in (
        (fn.log, 0.0, 1.0),
        (fn.exp, 6.0, 0.5),  # data kept positive so exp's inverse applies
        (fn.linear(3.0, -2.0), 1.0, 2.0),
    ):
        yield f, DataSet(_normal_data(rng, int(rng.integers(10, 501)), mean, sd))


def check_commute_est() -> list[CheckResult]:
    """Estimating then transforming equals transforming then estimating."""
    rng = np.random.default_rng(20240902)
    out = []
    for f, ds in _fitted_cases(rng):
        probe = (0.0, 1.0) if f is fn.log else (6.0, 0.5)
        data = [f.inverse().apply(CtsDatum(float(rng.normal(*probe)), 1e-3)) for _ in range(50)]
        gap, _ = estimate_transform_gaps(models.normal, f, ds, _WIDE, data)
        out.append(_result(f"estimate/transform commute f={f.name}", gap, 1e-9))
    return out


def check_info() -> list[CheckResult]:
    """Mapping a dataset through an invertible function preserves its
    total two-part message length."""
    return [
        _result(f"info f={f.name}", estimate_transform_gaps(models.normal, f, ds, _WIDE, ())[1], 1e-9)
        for f, ds in _fitted_cases(np.random.default_rng(20240903))
    ]


def check_jacobian() -> list[CheckResult]:
    """Polar/cartesian Jacobian identities and finite-difference agreement."""
    rng = np.random.default_rng(20240904)
    pc, cp = fn.polar2cartesian, fn.cartesian2polar
    prod, det_pc, det_cp = [], [], []
    for _ in range(100):
        r = _log_uniform(rng, -3, 3)
        polar = np.array([r, float(rng.uniform(0.0, 2.0 * math.pi))])
        cart = pc(polar)
        prod.append(inverse_jacobian_gap(cp, cart))
        det_pc.append(det_gap(pc, polar, r))
        det_cp.append(det_gap(cp, cart, 1.0 / r))
    out = [
        _result("jacobian product = identity", _worst(prod), 1e-9),
        _result("|det| of polar2cartesian = r", _worst(det_pc), 1e-9),
        _result("|det| of cartesian2polar = 1/r", _worst(det_cp), 1e-9),
    ]

    fd = []
    for _ in range(100):
        r = _log_uniform(rng, -1, 2)
        v = np.array([r, float(rng.uniform(0.05, 2.0 * math.pi - 0.05))])
        fd += [jacobian_fd_gap(pc, v), jacobian_fd_gap(cp, np.array(pc(v)))]
    out.append(_result("jacobian vs finite differences", _worst(fd), 1e-5))
    return out


def _gauss_legendre(edges, n: int) -> list[tuple[float, float]]:
    """(node, weight) pairs of the n-point Gauss-Legendre rule on each panel
    between consecutive ``edges``; every node lies inside its panel."""
    t, w = np.polynomial.legendre.leggauss(n)
    lo, half = np.asarray(edges[:-1])[:, None], np.diff(edges)[:, None] / 2.0
    return list(zip((lo + half * (t + 1.0)).ravel().tolist(), (half * w).ravel().tolist()))


def check_normalize() -> list[CheckResult]:
    """Transformed densities still integrate to one; permuted discrete
    probabilities still sum to one.  Each mass is a fixed composite
    Gauss-Legendre sum of the density's own per-value ``pdf``, whose
    panels bring both masses within 1e-13 of one."""
    log_normal = models.normal.transform(fn.log).parameterise((0.0, 1.0))
    decades = _gauss_legendre([0.0] + [10.0**k for k in range(-6, 7)], 24)
    out = [_result("log-normal density mass", mass_gap(log_normal, decades), 1e-4)]

    plane = models.independent_rd([models.normal, models.normal])
    polar = plane.transform(fn.polar2cartesian).parameterise(((0.0, 1.0), (0.0, 1.0)))
    rs = _gauss_legendre([0.0, 2.0, 4.0, 6.0, 8.0, 20.0], 12)
    thetas = _gauss_legendre([0.0, 2.0 * math.pi], 16)
    nodes = [([r, t], wr * wt) for r, wr in rs for t, wt in thetas]
    out.append(_result("bivariate normal through polar", mass_gap(polar, nodes), 1e-3))

    coin = models.multistate(0, 3).parameterise((0.1, 0.2, 0.3, 0.4))
    for g in (fn.ReversePermutation(0, 3), fn.Rotation(0, 3, 1)):
        permuted = coin.transform(g)
        gap = mass_gap(permuted, [(k, 1.0) for k in permuted.space()])
        out.append(_result(f"permuted probabilities sum ({g.name})", gap, 1e-12))
    return out


def _domain_point(f, rng) -> float:
    """A random point of the scalar map f's domain, kept away from the
    ends of log's and inv's: 10**U(-2, 1) for log, that of a random sign
    for inv, else N(0, 3)."""
    if f is fn.log or f is fn.inv:
        negative = f is fn.inv and rng.integers(2) == 0
        x = _log_uniform(rng, -2.0, 1.0)
        return -x if negative else x
    return float(rng.normal(0.0, 3.0))


def _vector_datum(f, rng) -> VecDatum:
    """A random 2-vector datum in the vector map f's domain: its point,
    then its two AoMs, each 10**U(-5, -2)."""
    if f is fn.polar2cartesian:
        v = (_log_uniform(rng, -2, 2), float(rng.uniform(0, 2 * math.pi)))
    elif f is fn.cartesian2polar:
        v = (float(rng.normal(0, 2)) or 0.5, float(rng.normal(0, 2)) or 0.5)
    else:
        v = (_log_uniform(rng, -2, 2), float(rng.uniform(-3, 3)))
    return VecDatum(v, (_log_uniform(rng, -5, -2), _log_uniform(rng, -5, -2)))


def check_aom() -> list[CheckResult]:
    """AoM propagation laws for scalar and vector application."""
    rng = np.random.default_rng(20240905)
    worst = _worst(
        scalar_aom_gap(f, _domain_point(f, rng), _log_uniform(rng, -6, -1))
        for f in (fn.identity, fn.log, fn.exp, fn.inv, fn.linear(2.0, 1.0))
        for _ in range(100)
    )
    out = [_result("scalar AoM = aom * |f'(x)|", worst, 1e-12)]

    worst = _worst(
        aom_volume_gap(f, _vector_datum(f, rng))
        for f in (fn.polar2cartesian, fn.cartesian2polar, fn.Componentwise([fn.log, fn.exp]))
        for _ in range(100)
    )
    out.append(_result("AoM volume = |det J| * input volume", worst, 1e-9))

    n01 = models.normal.parameterise((0.0, 1.0))
    worst = _worst(
        doubling_gap(n01, CtsDatum(float(rng.normal(0, 1)), _log_uniform(rng, -6, -1)))
        for _ in range(100)
    )
    out.append(_result("doubling the AoM saves ln 2 nits", worst, 1e-12))
    # Discrete probabilities have no AoM and are unaffected; sanity anchor.
    fair = models.multistate(0, 1).parameterise((0.5, 0.5))
    coin_gap = abs(fair.nl_pr(DiscreteDatum(0)) - math.log(2.0))
    out.append(_result("fair coin costs ln 2 per toss", coin_gap, 1e-12))
    return out


SUITES = {
    "commute-sp": check_commute_sp,
    "commute-est": check_commute_est,
    "info": check_info,
    "jacobian": check_jacobian,
    "normalize": check_normalize,
    "aom": check_aom,
}
