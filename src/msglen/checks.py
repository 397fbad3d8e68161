"""Self-contained invariance suites behind the ``check`` CLI command.

Each suite exercises one family of identities the library is built
around: parameterise/transform commutation, estimate/transform
commutation, information invariance under data mapping, the Jacobian
identities of the polar maps, density normalisation, and AoM
propagation.  Suites use fixed seeds and fixed quadrature rules, and
need numpy alone, so repeated runs are identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import functions as fn
from . import models
from .values import CtsDatum, DataSet, DiscreteDatum, VecDatum, map_dataset

__all__ = ["CheckResult", "SUITES"]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str


def _result(name: str, deviation: float, tol: float) -> CheckResult:
    return CheckResult(name, deviation <= tol, f"max deviation {deviation:.3g} (tol {tol:g})")


def check_commute_sp() -> list[CheckResult]:
    """Parameterising and transforming commute, as distributions."""
    rng = np.random.default_rng(20240901)
    out = []
    for sp in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
        for f in (fn.log, fn.linear(2.0, 1.0)):
            transformed_first = models.normal.transform(f).parameterise(sp)
            parameterised_first = models.normal.parameterise(sp).transform(f)
            worst = 0.0
            for _ in range(100):
                x = f.inverse()(float(rng.normal(sp[0], sp[1])))
                d = CtsDatum(x, 10.0 ** float(rng.uniform(-4, -1)))
                worst = max(
                    worst,
                    abs(transformed_first.nl_pr(d) - parameterised_first.nl_pr(d)),
                )
            out.append(_result(f"parameterise/transform commute sp={sp} f={f.name}", worst, 1e-9))
    return out


def _random_normal_dataset(rng, n: int, mean: float, sd: float) -> DataSet:
    items = tuple(
        CtsDatum(float(rng.normal(mean, sd)), 10.0 ** float(rng.uniform(-4, -1)))
        for _ in range(n)
    )
    return DataSet(items)


def _plain_and_mapped_fits(rng):
    """For each function f, a normal fit to random data and a fit of the
    f-transformed normal to the same data mapped through f's inverse."""
    ps = models.NormalPriors(mu_range=1e4, sigma_bounds=(1e-9, 1e6))
    for f, mean, sd in (
        (fn.log, 0.0, 1.0),
        (fn.exp, 6.0, 0.5),  # data kept positive so exp's inverse applies
        (fn.linear(3.0, -2.0), 1.0, 2.0),
    ):
        n = int(rng.integers(10, 501))
        ds = _random_normal_dataset(rng, n, mean, sd)
        plain = models.normal.estimator(ps).estimate(ds)
        mapped = models.normal.transform(f).estimator(ps).estimate(
            map_dataset(ds, f.inverse())
        )
        yield f, plain, mapped


def check_commute_est() -> list[CheckResult]:
    """Estimating then transforming equals transforming then estimating."""
    rng = np.random.default_rng(20240902)
    out = []
    for f, plain, mapped in _plain_and_mapped_fits(rng):
        left = plain.model.transform(f)
        f_inv = f.inverse()
        worst = 0.0
        for _ in range(50):
            x = float(rng.normal(0.0, 1.0)) if f is fn.log else float(rng.normal(6.0, 0.5))
            d = f_inv.apply(CtsDatum(x, 1e-3))
            worst = max(worst, abs(left.nl_pr(d) - mapped.model.nl_pr(d)))
        out.append(_result(f"estimate/transform commute f={f.name}", worst, 1e-9))
    return out


def check_info() -> list[CheckResult]:
    """Mapping a dataset through an invertible function preserves its
    total two-part message length."""
    return [
        _result(f"info f={f.name}", abs(plain.msg - mapped.msg), 1e-9)
        for f, plain, mapped in _plain_and_mapped_fits(np.random.default_rng(20240903))
    ]


def check_jacobian() -> list[CheckResult]:
    """Polar/cartesian Jacobian identities and finite-difference agreement."""
    rng = np.random.default_rng(20240904)
    out = []
    pc, cp = fn.polar2cartesian, fn.cartesian2polar

    worst_prod = worst_pc = worst_cp = 0.0
    for _ in range(100):
        r = 10.0 ** float(rng.uniform(-3, 3))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        polar = np.array([r, theta])
        cart = pc(polar)
        prod = np.array(pc.jacobian(cp(cart))) @ np.array(cp.jacobian(cart))
        worst_prod = max(worst_prod, float(np.max(np.abs(prod - np.eye(2)))))
        worst_pc = max(
            worst_pc, abs(abs(float(np.linalg.det(pc.jacobian(polar)))) - r) / r
        )
        worst_cp = max(
            worst_cp,
            abs(abs(float(np.linalg.det(cp.jacobian(cart)))) - 1.0 / r) / (1.0 / r),
        )
    out.append(_result("jacobian product = identity", worst_prod, 1e-9))
    out.append(_result("|det| of polar2cartesian = r", worst_pc, 1e-9))
    out.append(_result("|det| of cartesian2polar = 1/r", worst_cp, 1e-9))

    worst_fd = 0.0
    for _ in range(100):
        r = 10.0 ** float(rng.uniform(-1, 2))
        theta = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
        v = np.array([r, theta])
        worst_fd = max(worst_fd, _jacobian_fd_error(pc, v))
        worst_fd = max(worst_fd, _jacobian_fd_error(cp, np.array(pc(v))))
    out.append(_result("jacobian vs finite differences", worst_fd, 1e-5))
    return out


def _jacobian_fd_error(f, v: np.ndarray) -> float:
    jac = np.array(f.jacobian(v))
    worst = 0.0
    for j in range(f.dim):
        h = 1e-6 * max(1.0, abs(float(v[j])))
        step = np.zeros(f.dim)
        step[j] = h
        col = (np.array(f(v + step)) - np.array(f(v - step))) / (2.0 * h)
        for i in range(f.dim):
            scale = max(1.0, abs(jac[i, j]))
            worst = max(worst, abs(col[i] - jac[i, j]) / scale)
    return worst


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
    out = []
    log_normal = models.normal.transform(fn.log).parameterise((0.0, 1.0))
    decades = _gauss_legendre([0.0] + [10.0**k for k in range(-6, 7)], 24)
    mass = math.fsum(w * log_normal.pdf(x) for x, w in decades)
    out.append(_result("log-normal density mass", abs(mass - 1.0), 1e-4))

    plane = models.independent_rd([models.normal, models.normal])
    polar = plane.transform(fn.polar2cartesian).parameterise(((0.0, 1.0), (0.0, 1.0)))
    rs = _gauss_legendre([0.0, 2.0, 4.0, 6.0, 8.0, 20.0], 12)
    thetas = _gauss_legendre([0.0, 2.0 * math.pi], 16)
    mass2 = math.fsum(wr * wt * polar.pdf([r, t]) for r, wr in rs for t, wt in thetas)
    out.append(_result("bivariate normal through polar", abs(mass2 - 1.0), 1e-3))

    coin = models.multistate(0, 3).parameterise((0.1, 0.2, 0.3, 0.4))
    for g in (fn.ReversePermutation(0, 3), fn.Rotation(0, 3, 1)):
        permuted = coin.transform(g)
        total = math.fsum(permuted.pdf(k) for k in permuted.space())
        out.append(_result(f"permuted probabilities sum ({g.name})", abs(total - 1.0), 1e-12))
    return out


def _domain_point(f, rng) -> float:
    """A random point of the scalar map f's domain, kept away from the
    ends of log's and inv's: 10**U(-2, 1) for log, that of a random sign
    for inv, else N(0, 3)."""
    if f is fn.log or f is fn.inv:
        negative = f is fn.inv and rng.integers(2) == 0
        x = 10.0 ** float(rng.uniform(-2.0, 1.0))
        return -x if negative else x
    return float(rng.normal(0.0, 3.0))


def check_aom() -> list[CheckResult]:
    """AoM propagation laws for scalar and vector application."""
    rng = np.random.default_rng(20240905)
    out = []

    worst = 0.0
    for f in (fn.identity, fn.log, fn.exp, fn.inv, fn.linear(2.0, 1.0)):
        for _ in range(100):
            x = _domain_point(f, rng)
            eps = 10.0 ** float(rng.uniform(-6, -1))
            got = f.apply(CtsDatum(x, eps)).aom
            want = eps * abs(f.d_dx(x))
            worst = max(worst, abs(got - want) / want)
    out.append(_result("scalar AoM = aom * |f'(x)|", worst, 1e-12))

    worst = 0.0
    for big in (fn.polar2cartesian, fn.cartesian2polar, fn.Componentwise([fn.log, fn.exp])):
        for _ in range(100):
            if big is fn.polar2cartesian:
                v = (10.0 ** float(rng.uniform(-2, 2)), float(rng.uniform(0, 2 * math.pi)))
            elif big is fn.cartesian2polar:
                v = (float(rng.normal(0, 2)) or 0.5, float(rng.normal(0, 2)) or 0.5)
            else:
                v = (10.0 ** float(rng.uniform(-2, 2)), float(rng.uniform(-3, 3)))
            aoms = tuple(10.0 ** float(rng.uniform(-5, -2)) for _ in range(2))
            d = VecDatum(v, aoms)
            res = big.apply(d)
            want = math.exp(-big.nl_jacobian_det(np.array(v))) * d.aom_volume
            worst = max(worst, abs(res.aom_volume - want) / want)
    out.append(_result("AoM volume = |det J| * input volume", worst, 1e-9))

    n01 = models.normal.parameterise((0.0, 1.0))
    fair = models.multistate(0, 1).parameterise((0.5, 0.5))
    worst = 0.0
    for _ in range(100):
        x = float(rng.normal(0, 1))
        eps = 10.0 ** float(rng.uniform(-6, -1))
        drop = n01.nl_pr(CtsDatum(x, eps)) - n01.nl_pr(CtsDatum(x, 2.0 * eps))
        worst = max(worst, abs(drop - math.log(2.0)))
    out.append(_result("doubling the AoM saves ln 2 nits", worst, 1e-12))
    # Discrete probabilities have no AoM and are unaffected; sanity anchor.
    out.append(
        _result(
            "fair coin costs ln 2 per toss",
            abs(fair.nl_pr(DiscreteDatum(0)) - math.log(2.0)),
            1e-12,
        )
    )
    return out


SUITES = {
    "commute-sp": check_commute_sp,
    "commute-est": check_commute_est,
    "info": check_info,
    "jacobian": check_jacobian,
    "normalize": check_normalize,
    "aom": check_aom,
}
