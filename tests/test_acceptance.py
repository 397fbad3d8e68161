"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line
per criterion.
"""

import contextlib
import io
import math
import time

import numpy as np
from scipy import integrate

from msglen import (
    CtsDatum,
    DataSet,
    NormalPriors,
    ReversePermutation,
    Rotation,
    VecDatum,
    cartesian2polar,
    exp,
    linear,
    log,
    map_dataset,
    polar2cartesian,
)
from msglen import checks
from msglen.checks import _domain_point
from msglen.cli import main as cli_main
from msglen.models import independent_rd, multistate, normal
from test_functions import CTS_FUNCTIONS, VECTOR_FUNCTIONS, sample_vector_point

WIDE = NormalPriors(mu_range=1e4, sigma_bounds=(1e-9, 1e6))


def report(name, ok, detail):
    print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    assert ok, f"{name}: {detail}"


def test_criterion_1_parameterise_transform_commute():
    """Transforming with f and parameterising with sp give the same distribution."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    gaps = []
    for sp in ((0.0, 1.0), (2.0, 0.5), (-1.0, 3.0)):
        for f in (log, linear(2.0, 1.0)):
            data = checks._normal_data(rng, 100, *sp, f.inverse())
            gaps.append(checks.cost_gap(normal(sp).transform(f), normal.transform(f)(sp), data))
    worst = np.max(gaps)  # NaN if any gap is NaN
    elapsed = time.perf_counter() - start
    report(
        "criterion-1 parameterise/transform commute",
        worst < 1e-9 and elapsed < 1.0,
        f"max |dnlPr| {worst:.3g} nits, {elapsed:.2f}s",
    )


def test_criterion_2_estimate_transform_commute():
    """Both construction orders of a transformed fit agree, datum for datum
    and in total message length."""
    rng = np.random.default_rng(42)
    start = time.perf_counter()
    cases = [(log, 0.0, 1.0), (exp, 6.0, 0.5), (linear(3.0, -2.0), 1.0, 2.0)]
    gaps = []
    for i in range(20):
        f, mean, sd = cases[i % len(cases)]
        ds = DataSet(checks._normal_data(rng, int(rng.integers(10, 501)), mean, sd))
        gaps.append(checks.estimate_transform_gaps(normal, f, ds, WIDE))
    worst_nlpr, worst_msg = np.max(gaps, axis=0)
    elapsed = time.perf_counter() - start
    report(
        "criterion-2 estimate/transform commute + information invariance",
        worst_nlpr < 1e-9 and worst_msg < 1e-9 and elapsed < 5.0,
        f"max |dnlPr| {worst_nlpr:.3g}, max |dmsg| {worst_msg:.3g} nits, {elapsed:.2f}s",
    )


def test_criterion_3_transformed_pdf_correctness():
    """The log-transformed Normal's pdf is the closed-form log-normal density
    and carries unit mass."""
    m = normal.transform(log)((0.0, 1.0))
    mass, _ = integrate.quad(
        lambda x: m.pdf(x) if x > 0.0 else 0.0,
        0.0,
        1e6,
        points=[0.05, 1.0, 10.0, 100.0],
        limit=200,
    )
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        x = 10.0 ** float(rng.uniform(math.log10(0.05), math.log10(20.0)))
        closed_form = math.exp(-0.5 * math.log(x) ** 2) / (x * math.sqrt(2.0 * math.pi))
        worst = max(worst, abs(m.pdf(x) - closed_form) / closed_form)
    report(
        "criterion-3 transformed pdf",
        abs(mass - 1.0) < 1e-4 and worst < 1e-12,
        f"|mass-1| {abs(mass - 1.0):.3g}, max rel pdf error {worst:.3g}",
    )


def test_criterion_4_jacobian_identities():
    """J_pc J_cp = I, |det J_pc| = r, |det J_cp| = 1/r, and the polar image
    of a bivariate normal still integrates to one."""
    rng = np.random.default_rng(42)
    prod, det = [], []
    for _ in range(100):
        r = 10.0 ** float(rng.uniform(-3, 3))
        theta = float(rng.uniform(0.0, 2.0 * math.pi))
        polar = np.array([r, theta])
        cart = polar2cartesian(polar)
        prod.append(checks.inverse_jacobian_gap(cartesian2polar, cart))
        det.append(checks.det_gap(polar2cartesian, polar, r))
        det.append(checks.det_gap(cartesian2polar, cart, 1.0 / r))
    worst_prod, worst_det = np.max(prod), np.max(det)
    m = independent_rd([normal, normal]).transform(polar2cartesian)(((0, 1), (0, 1)))
    mass, _ = integrate.dblquad(
        lambda theta, r: m.pdf([r, theta]) if r > 0.0 else 0.0,
        0.0,
        20.0,
        0.0,
        2.0 * math.pi,
    )
    report(
        "criterion-4 jacobian identities",
        worst_prod < 1e-9 and worst_det < 1e-9 and abs(mass - 1.0) < 1e-3,
        f"max |JJ'-I| {worst_prod:.3g}, max det error {worst_det:.3g}, |mass-1| {abs(mass - 1.0):.3g}",
    )


def test_criterion_5_aom_propagation():
    """Scalar AoM scaling, the multivariate AoM volume law, and the
    one-bit-per-doubling rule."""
    rng = np.random.default_rng(42)
    scalar = []
    for f in CTS_FUNCTIONS:
        for _ in range(100):
            x = _domain_point(f, rng)
            eps = 10.0 ** float(rng.uniform(-6, -1))
            scalar.append(checks.scalar_aom_gap(f, x, eps))

    volume = []
    for f in VECTOR_FUNCTIONS:
        for _ in range(100):
            v = sample_vector_point(f, rng)
            d = VecDatum(
                tuple(float(c) for c in v),
                tuple(10.0 ** float(rng.uniform(-5, -2)) for _ in range(f.dim)),
            )
            volume.append(checks.aom_volume_gap(f, d))

    bit = []
    n01 = normal((0.0, 1.0))
    log_normal = normal.transform(log)((0.0, 1.0))
    pair = independent_rd([normal, normal])(((0.0, 1.0), (1.0, 2.0)))
    for _ in range(100):
        eps = 10.0 ** float(rng.uniform(-6, -1))
        x = float(rng.normal(0, 1))
        v = (float(rng.normal(0, 1)), float(rng.normal(1, 2)))
        bit += [
            checks.doubling_gap(n01, CtsDatum(x, eps)),
            checks.doubling_gap(log_normal, CtsDatum(math.exp(x), eps)),
            checks.doubling_gap(pair, VecDatum(v, (eps, eps))),
        ]
    worst_scalar, worst_volume, worst_bit = np.max(scalar), np.max(volume), np.max(bit)
    report(
        "criterion-5 AoM propagation",
        worst_scalar < 1e-12 and worst_volume < 1e-9 and worst_bit < 1e-12,
        f"scalar {worst_scalar:.3g}, volume {worst_volume:.3g}, doubling {worst_bit:.3g}",
    )


def test_criterion_6_derivatives_vs_finite_differences():
    """Analytic derivatives and Jacobians track central finite differences."""
    rng = np.random.default_rng(42)
    worst_scalar = 0.0
    for f in CTS_FUNCTIONS:
        for _ in range(100):
            x = _domain_point(f, rng)
            h = 1e-6 * max(1.0, abs(x))
            fd = (f(x + h) - f(x - h)) / (2.0 * h)
            worst_scalar = max(
                worst_scalar, abs(f.d_dx(x) - fd) / max(1e-9, abs(fd))
            )
    worst_vec = np.max([
        checks.jacobian_fd_gap(f, sample_vector_point(f, rng))
        for f in VECTOR_FUNCTIONS
        for _ in range(100)
    ])
    report(
        "criterion-6 derivatives vs finite differences",
        worst_scalar < 1e-6 and worst_vec < 1e-5,
        f"scalar {worst_scalar:.3g} (tol 1e-6), jacobian {worst_vec:.3g} (tol 1e-5)",
    )


def test_criterion_7_random_generation():
    """Log-normal draws, mapped back through log, recover the base Normal;
    sampling is byte-exact under a fixed seed."""
    start = time.perf_counter()
    rng = np.random.default_rng(42)
    m = normal.transform(log)((0.0, 1.0))
    n = 100_000
    ds = DataSet(tuple(m.random(rng) for _ in range(n)))
    mapped = map_dataset(ds, log)
    ys = [d.x for d in mapped]
    mean_err = abs(float(np.mean(ys)))
    sd_err = abs(float(np.std(ys, ddof=1)) - 1.0)
    mean_ok = mean_err < 3.0 / math.sqrt(n)
    sd_ok = sd_err < 3.0 / math.sqrt(2 * n)

    def run_sample():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli_main(["sample", "normal(0,1).transform(log)", "1000", "--seed", "7"])
        assert code == 0
        return buf.getvalue()

    first, second = run_sample(), run_sample()
    elapsed = time.perf_counter() - start
    report(
        "criterion-7 random generation",
        mean_ok and sd_ok and first == second and elapsed < 5.0,
        f"mean err {mean_err:.2g}, sd err {sd_err:.2g}, byte-exact {first == second}, {elapsed:.2f}s",
    )


def test_criterion_8_mml_minimality():
    """The fitted Normal's two-part message is no longer than at any of the
    eight perturbed parameter points."""
    rng = np.random.default_rng(42)
    failures = 0
    worst_gap = -math.inf
    for _ in range(20):
        n = int(rng.integers(10, 200))
        mean, sd = float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 3.0))
        ds = DataSet(checks._normal_data(rng, n, mean, sd))
        est = normal.estimator(WIDE)
        fit = est.estimate(ds)
        mu, sigma = fit.model.mean, fit.model.sd
        assert fit.msg1 > 0.0
        for mu_p, sd_p in [
            (mu + 0.1 * sigma, sigma),
            (mu - 0.1 * sigma, sigma),
            (mu + 0.5 * sigma, sigma),
            (mu - 0.5 * sigma, sigma),
            (mu, 0.5 * sigma),
            (mu, 0.9 * sigma),
            (mu, 1.1 * sigma),
            (mu, 2.0 * sigma),
        ]:
            m1, m2 = est.message_length(ds, (mu_p, sd_p))
            gap = fit.msg - (m1 + m2)
            worst_gap = max(worst_gap, gap)
            if gap > 1e-9:
                failures += 1
    report(
        "criterion-8 MML minimality spot-check",
        failures == 0,
        f"{failures} perturbations beat the fit; worst fit-minus-alternative {worst_gap:.3g} nits",
    )


def test_criterion_9_discrete_permutation_transform():
    """Permutation transforms relabel probabilities exactly and keep them
    summing to one."""
    m = multistate(0, 3)((0.1, 0.2, 0.3, 0.4))
    ok = True
    detail = []
    for g in (ReversePermutation(0, 3), Rotation(0, 3, 1), Rotation(0, 3, 3)):
        t = m.transform(g)
        total = math.fsum(t.pdf(k) for k in t.space())
        pointwise = all(t.pdf(k) == m.pdf(g(k)) for k in t.space())
        ok = ok and abs(total - 1.0) < 1e-12 and pointwise
        detail.append(f"{g.name}: |sum-1|={abs(total - 1.0):.3g}, exact={pointwise}")
    report("criterion-9 discrete permutation transform", ok, "; ".join(detail))
