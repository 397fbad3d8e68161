"""Model hierarchy: parameterisation, densities, transforms, sampling."""

import math
import random
from functools import partial
from itertools import repeat

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from msglen import (
    CtsDatum,
    DataSet,
    DegenerateTransformError,
    DiscreteDatum,
    DomainError,
    InvalidDatumError,
    MsglenError,
    NormalPriors,
    ParameterError,
    ReversePermutation,
    Rotation,
    TransformError,
    VecDatum,
    cartesian2polar,
    exp,
    identity,
    linear,
    log,
    map_dataset,
    polar2cartesian,
)
from msglen import checks, models
from msglen.functions import (
    ComponentPermutation,
    Componentwise,
    Cts2Cts,
    CtsD2CtsD,
    Log,
    Polar2Cartesian,
    inv,
)
from msglen.models import (
    MAX_DIM,
    MAX_STATES,
    BoundedUniformModel,
    ContinuousModel,
    IndependentProductModel,
    MultiStateModel,
    NormalModel,
    bounded_uniform,
    independent_rd,
    multistate,
    normal,
)

HALF_LN_2PI = 0.9189385332046727


class TestParameterise:
    def test_standard_normal(self):
        m = normal((0, 1))
        assert m.mean == 0.0 and m.sd == 1.0
        assert m.msg1 == 0.0  # given parameters cost nothing to state

    def test_negative_sd_rejected(self):
        with pytest.raises(ParameterError):
            normal((0, -1))

    def test_malformed_sp(self):
        with pytest.raises(ParameterError):
            normal((1.0,))

    def test_bounded_uniform(self):
        m = bounded_uniform(0, 3)(())
        assert all(m.pr(DiscreteDatum(k)) == pytest.approx(0.25, rel=1e-15) for k in range(4))

    def test_uniform_singleton(self):
        m = bounded_uniform(0, 0)(())
        assert m.pr(DiscreteDatum(0)) == pytest.approx(1.0, rel=1e-15)

    def test_bad_bounds(self):
        with pytest.raises(ParameterError):
            bounded_uniform(3, 0)

    def test_fair_coin(self):
        m = multistate(0, 1)((0.5, 0.5))
        assert m.pr(DiscreteDatum(0)) == pytest.approx(0.5, rel=1e-15)
        assert m.pr(DiscreteDatum(1)) == pytest.approx(0.5, rel=1e-15)

    def test_multistate_must_sum_to_one(self):
        with pytest.raises(ParameterError):
            multistate(0, 1)((0.5, 0.6))

    def test_multistate_shape(self):
        with pytest.raises(ParameterError):
            multistate(0, 2)((0.5, 0.5))

    def test_independent_product_pdf(self):
        m = independent_rd([normal, normal])(((0, 1), (0, 1)))
        assert m.pdf([0.0, 0.0]) == pytest.approx(0.15915494309189535, rel=1e-12)


class TestNlPr:
    def test_standard_normal_at_zero(self):
        m = normal((0, 1))
        assert m.nl_pr(CtsDatum(0.0, 1.0)) == pytest.approx(HALF_LN_2PI, rel=1e-12)

    def test_doubling_aom_subtracts_ln2(self):
        m = normal((0, 1))
        got = m.nl_pr(CtsDatum(0.0, 2.0))
        assert got == pytest.approx(HALF_LN_2PI - math.log(2.0), rel=1e-12)

    def test_uniform(self):
        m = bounded_uniform(0, 3)(())
        assert m.nl_pr(DiscreteDatum(2)) == pytest.approx(math.log(4.0), rel=1e-15)

    def test_out_of_space(self):
        with pytest.raises(DomainError):
            bounded_uniform(0, 3)(()).nl_pr(DiscreteDatum(7))

    def test_nl_pr_matches_pr(self):
        models = [
            (normal((2, 0.5)), CtsDatum(1.7, 0.01)),
            (multistate(0, 2)((0.2, 0.3, 0.5)), DiscreteDatum(1)),
            (independent_rd([normal, normal])(((0, 1), (1, 2))), VecDatum((0.3, 0.7), (0.01, 0.02))),
        ]
        for m, d in models:
            assert m.pr(d) == pytest.approx(math.exp(-m.nl_pr(d)), rel=1e-12)

    def test_vector_aoms_enter_additively(self):
        m = independent_rd([normal, normal])(((0, 1), (0, 1)))
        assert checks.doubling_gap(m, VecDatum((0.1, 0.2), (0.01, 0.01))) <= 1e-12

    def test_discrete_sums_to_one(self):
        for m in (bounded_uniform(0, 5)(()), multistate(0, 3)((0.1, 0.2, 0.3, 0.4))):
            total = math.fsum(m.pdf(k) for k in m.space())
            assert total == pytest.approx(1.0, abs=1e-9)


class TestRandom:
    def test_normal_moments(self):
        rng = np.random.default_rng(42)
        m = normal((0, 1))
        n = 100_000
        xs = [m.random(rng).x for x in range(n)]
        assert abs(np.mean(xs)) < 3.0 / math.sqrt(n)
        assert abs(np.std(xs, ddof=1) - 1.0) < 3.0 / math.sqrt(2 * n)

    def test_log_normal_draws_positive(self):
        rng = np.random.default_rng(42)
        m = normal.transform(log)((0, 1))
        assert all(m.random(rng).x > 0 for _ in range(10_000))

    def test_fixed_seed_repeats(self):
        m = normal.transform(log)((0.5, 1.5))
        a = [m.random(np.random.default_rng(7)).x for _ in range(1)]
        first = [m.random(np.random.default_rng(123)).x for _ in range(50)]
        second = [m.random(np.random.default_rng(123)).x for _ in range(50)]
        assert first == second

    def test_draw_carries_synthetic_aom(self):
        rng = np.random.default_rng(0)
        assert normal((0, 1)).random(rng).aom == 1e-6
        assert normal((0, 1)).random(rng, aom=0.5).aom == 0.5

    def test_discrete_random_in_space(self):
        rng = np.random.default_rng(11)
        m = multistate(2, 4)((0.2, 0.2, 0.6))
        draws = [m.random(rng).value for _ in range(2000)]
        assert set(draws) <= {2, 3, 4}
        assert np.mean([d == 4 for d in draws]) == pytest.approx(0.6, abs=0.05)

    def test_vector_random(self):
        rng = np.random.default_rng(5)
        m = independent_rd([normal, normal])(((0, 1), (5, 2)))
        d = m.random(rng)
        assert d.dim == 2 and d.aoms == (1e-6, 1e-6)


class TestTransform:
    def test_log_normal_pdf_at_one(self):
        log_normal = normal.transform(log)((0, 1))
        assert log_normal.pdf(1.0) == pytest.approx(0.3989422804014327, rel=1e-12)

    def test_log_normal_support(self):
        log_normal = normal.transform(log)((0, 1))
        with pytest.raises(DomainError):
            log_normal.nl_pr(CtsDatum(-1.0, 0.1))

    def test_exp_transform_opens_support(self):
        # a model of (0, inf) becomes one of the whole line
        folded = normal.transform(log)  # supported on (0, inf)
        reopened = folded.transform(exp)
        m = reopened(((0, 1)))
        assert math.isfinite(m.nl_pr(CtsDatum(-5.0, 0.1)))

    def test_identity_transform_is_noop(self):
        rng = np.random.default_rng(42)
        base = normal((2, 0.5))
        wrapped = normal.transform(identity)((2, 0.5))
        for _ in range(100):
            d = CtsDatum(float(rng.normal(2, 0.5)), 0.01)
            assert wrapped.nl_pr(d) == pytest.approx(base.nl_pr(d), abs=1e-12)

    def test_kind_mismatch(self):
        with pytest.raises(TransformError):
            normal.transform(polar2cartesian)
        with pytest.raises(TransformError):
            bounded_uniform(0, 3).transform(log)

    def test_non_invertible_rejected(self):
        from msglen.functions import Cts2Cts

        class Halve(Cts2Cts):
            name = "halve"

            def __call__(self, x):
                return 0.5 * x

            def d_dx(self, x):
                return 0.5

        with pytest.raises(TransformError):
            normal.transform(Halve())

    def test_transform_then_inverse_recovers(self):
        rng = np.random.default_rng(42)
        base = normal((1.0, 2.0))
        roundtrip = base.transform(log).transform(exp)
        for _ in range(50):
            d = CtsDatum(float(rng.normal(1, 2)), 0.01)
            assert roundtrip.nl_pr(d) == pytest.approx(base.nl_pr(d), abs=1e-9)

    def test_msg1_carried_over(self):
        from msglen.models import NormalModel

        m = NormalModel(1.0, 2.0, msg1=3.5)
        assert m.transform(log).msg1 == 3.5

    def test_random_uses_inverse(self):
        # log-normal drawing = exp of a normal draw, stream for stream
        seed = 99
        m = normal((0.25, 1.5))
        draws = [m.random(np.random.default_rng(seed)).x for _ in range(1)]
        t = normal.transform(log)((0.25, 1.5))
        t_draws = [t.random(np.random.default_rng(seed)).x for _ in range(1)]
        assert t_draws[0] == pytest.approx(math.exp(draws[0]), rel=1e-12)


class _NoInverse(Cts2Cts):
    name = "halve"

    def __call__(self, x):
        return 0.5 * x

    def d_dx(self, x):
        return 0.5


# (family, its parameters, a function that must not transform it)
BAD_TRANSFORMS = {
    "wrong kind": (normal, (0, 1), polar2cartesian),
    "wrong dim": (independent_rd([normal] * 3), ((0, 1),) * 3, cartesian2polar),
    "wrong bounds": (multistate(0, 3), (0.1, 0.2, 0.3, 0.4), ReversePermutation(0, 2)),
    "no inverse": (normal, (0, 1), _NoInverse()),
}


@pytest.mark.parametrize("stage", ["family", "model"])
@pytest.mark.parametrize("case", sorted(BAD_TRANSFORMS))
def test_transform_rejects(case, stage):
    family, sp, f = BAD_TRANSFORMS[case]
    target = family if stage == "family" else family(sp)
    with pytest.raises(TransformError):
        target.transform(f)


_PLANE = independent_rd([normal, normal])(((0.5, 1.0), (1.0, 2.0)))
_STATES = multistate(0, 3)((0.1, 0.2, 0.3, 0.4))

# (model, function, datum in the function's domain): one case per function
# class member the transform wrapper must serve.
TRANSFORM_IDENTITY_CASES = {
    "normal log": (normal((0.3, 1.2)), log, CtsDatum(1.7, 0.01)),
    "normal exp": (normal((0.3, 1.2)), exp, CtsDatum(-0.4, 0.02)),
    "normal inv": (normal((0.3, 1.2)), inv, CtsDatum(-2.5, 0.001)),
    "normal linear": (normal((0.3, 1.2)), linear(2.0, -1.0), CtsDatum(0.8, 0.05)),
    "plane polar2cartesian": (_PLANE, polar2cartesian, VecDatum((1.3, 0.7), (0.01, 0.02))),
    "plane cartesian2polar": (_PLANE, cartesian2polar, VecDatum((0.4, -1.1), (0.01, 0.02))),
    "plane componentwise": (_PLANE, Componentwise([log, exp]), VecDatum((1.3, 0.2), (0.01, 0.02))),
    "plane permute": (_PLANE, ComponentPermutation([1, 0]), VecDatum((0.4, -1.1), (0.01, 0.02))),
    "multistate reverse": (_STATES, ReversePermutation(0, 3), DiscreteDatum(1)),
    "multistate rotate": (_STATES, Rotation(0, 3, 1), DiscreteDatum(3)),
}


@pytest.mark.parametrize("case", sorted(TRANSFORM_IDENTITY_CASES))
def test_transformed_cost_is_cost_of_mapped_datum(case):
    # The wrapper's density rule agrees with the function's AoM propagation.
    m, f, d = TRANSFORM_IDENTITY_CASES[case]
    assert abs(m.transform(f).nl_pr(d) - m.nl_pr(f.apply(d))) <= 1e-9


def _mixed_scalars(rng) -> list:
    """Data of both signs, from 1e-3 to 1e2 in size, and zero."""
    xs = [rng.choice((-1.0, 1.0)) * 10.0 ** rng.uniform(-3.0, 2.0) for _ in range(199)]
    return [CtsDatum(x, 10.0 ** rng.uniform(-6.0, -1.0)) for x in xs + [0.0]]


def _mixed_pairs(rng) -> list:
    """2-vectors of both signs, from 1e-3 to 1e2 in size, and the origin."""
    xs = _mixed_scalars(rng) + _mixed_scalars(rng)
    return [VecDatum((a.x, b.x), (a.aom, b.aom)) for a, b in zip(xs[:200], xs[200:])]


def _states(rng) -> list:
    """States of multistate:0:5, and one on each side of it."""
    return [DiscreteDatum(rng.randint(-1, 6)) for _ in range(200)]


_CHAIN_SCALARS = (identity, log, exp, inv, linear(2.0, 1.0))
_PAIRS = independent_rd([normal, normal])
_SWAP = ComponentPermutation([1, 0])
_SIX_STATES = (0.1, 0.2, 0.3, 0.2, 0.1, 0.1)

# (family, its parameters, f, g, data): the chain family.transform(f).transform(g)
# takes a datum through g, then f.
CHAINS = {
    **{
        f"normal {f.name} {g.name}": (normal, (0.5, 1.2), f, g, _mixed_scalars)
        for f in _CHAIN_SCALARS
        for g in _CHAIN_SCALARS
    },
    "plane permute cartesian2polar": (
        _PAIRS, ((3.0, 0.5), (0.8, 0.2)), _SWAP, cartesian2polar, _mixed_pairs
    ),
    "plane cartesian2polar permute": (
        _PAIRS, ((0.8, 0.2), (3.0, 0.5)), cartesian2polar, _SWAP, _mixed_pairs
    ),
    **{
        f"multistate rotate({k}) reverse": (
            multistate(0, 5), _SIX_STATES, Rotation(0, 5, k), ReversePermutation(0, 5), _states
        )
        for k in (1, 2)
    },
}


def _costs_both_ways(case) -> list:
    """Each datum of the case with its cost by the chain and by applying g
    then f to it, or the error that refuses it."""
    family, sp, f, g, data = CHAINS[case]
    m = family(sp)
    chain = m.transform(f).transform(g)
    rows = []
    for d in data(random.Random(5)):
        costs = []
        for route in (lambda: chain.nl_pr(d), lambda: m.nl_pr(f.apply(g.apply(d)))):
            try:
                costs.append(route())
            except MsglenError as e:
                costs.append(e)
        rows.append((d, *costs))
    return rows


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_a_chain_costs_what_its_base_costs_the_datum_through_g_then_f(case):
    compared = 0
    for d, by_chain, by_apply in _costs_both_ways(case):
        if isinstance(by_chain, MsglenError):
            assert isinstance(by_apply, MsglenError), d
        elif isinstance(by_apply, MsglenError):
            # Only where a mapped AoM or image leaves the floats.
            assert isinstance(by_apply, (DegenerateTransformError, InvalidDatumError)), d
        else:
            assert by_chain == pytest.approx(by_apply, rel=1e-9), d
            compared += 1
    assert compared >= 20


@pytest.mark.parametrize("case", sorted(CHAINS))
def test_a_chain_fits_as_its_base_fits_the_data_through_g_then_f(case):
    family, _, f, g, _ = CHAINS[case]
    rows = _costs_both_ways(case)
    ds = DataSet(tuple(d for d, *costs in rows if all(isinstance(c, float) for c in costs)))
    chain = family.transform(f).transform(g).estimator()
    mapped = map_dataset(map_dataset(ds, g), f)
    # Every case fits, "normal exp inv" too, whose mapped values (up to
    # about 1e304) have squares past the float range.
    fit = chain.estimate(ds)
    assert fit.msg == pytest.approx(family.estimator().estimate(mapped).msg, rel=1e-9)


_ORIGIN_PLANE = independent_rd([normal, normal])(((0.0, 1.0), (0.0, 1.0)))

# Each datum a transformed model refuses one at a time, with the text it
# refuses it with.
PER_DATUM_REFUSALS = {
    "origin under cartesian2polar": (
        _ORIGIN_PLANE.transform(cartesian2polar),
        VecDatum((0.0, 0.0), (0.1, 0.1)),
        "(0.0, 0.0) is outside the support of rd:normal^2.transform(cartesian2polar)",
    ),
    "r < 0 under polar2cartesian": (
        _ORIGIN_PLANE.transform(polar2cartesian),
        VecDatum((-1.0, 1.0), (0.1, 0.1)),
        "(-1.0, 1.0) is outside the support of rd:normal^2.transform(polar2cartesian)",
    ),
    "r = 0 under polar2cartesian": (
        _ORIGIN_PLANE.transform(polar2cartesian),
        VecDatum((0.0, 1.0), (0.1, 0.1)),
        "(0.0, 1.0) is outside the support of rd:normal^2.transform(polar2cartesian)",
    ),
    "3-vector under a 2-D model": (
        _ORIGIN_PLANE.transform(cartesian2polar),
        VecDatum((1.0, 2.0, 3.0), (0.1, 0.1, 0.1)),
        "rd:normal^2.transform(cartesian2polar) models R^2, got a 3-vector",
    ),
    "image overflows": (
        normal((0.0, 1.0)).transform(exp),
        CtsDatum(1000.0, 0.1),
        "1000.0 is outside the support of normal.transform(exp)",
    ),
    "vector image overflows": (
        _ORIGIN_PLANE.transform(Componentwise([exp, exp])),
        VecDatum((1000.0, 1.0), (0.1, 0.1)),
        "(1000.0, 1.0) is outside the support of rd:normal^2.transform(componentwise(exp,exp))",
    ),
    "base rejects the image": (
        normal((0.0, 1.0)).transform(log).transform(exp),
        CtsDatum(-800.0, 0.1),
        "-800.0 is outside the support of normal.transform(log).transform(exp)",
    ),
}


@pytest.mark.parametrize("case", sorted(PER_DATUM_REFUSALS))
def test_per_datum_refusal_text(case):
    model, d, text = PER_DATUM_REFUSALS[case]
    with pytest.raises(DomainError) as err:
        model.nl_pr(d)
    assert str(err.value) == text


# The first draws of two transformed products, made one datum at a time.
FIRST_DRAWS = {
    ("cartesian2polar", 0): [
        "VecDatum(components=(2.191218386878788, 2.140024454628627), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(2.2627384269915374, 2.429777367403423), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(1.7569252645997424, 2.0923529612528324), aoms=(1e-06, 1e-06))",
    ],
    ("cartesian2polar", 901): [
        "VecDatum(components=(2.0298317486608433, 1.53216396840294), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(1.311260920441267, 2.4558304337521695), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(1.9145971439961353, 2.8124003369172654), aoms=(1e-06, 1e-06))",
    ],
    ("permute(1,0)", 0): [
        "VecDatum(components=(1.867895136708698, 3.0628651105466966), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(2.10490011715304, 3.320211325221641), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(2.361595054909485, 2.7321653134194444), aoms=(1e-06, 1e-06))",
    ],
    ("permute(1,0)", 901): [
        "VecDatum(components=(1.2329038852502676, 2.543175840154153), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(3.4018422147585965, 2.783973477032396), aoms=(1e-06, 1e-06))",
        "VecDatum(components=(2.865467396808241, 3.402246005051737), aoms=(1e-06, 1e-06))",
    ],
}


@pytest.mark.parametrize("f, seed", sorted(FIRST_DRAWS))
def test_first_draws_are_pinned(f, seed):
    params = {"cartesian2polar": ((3.0, 0.5), (0.8, 0.2)), "permute(1,0)": ((3.0, 0.5), (2.0, 1.0))}
    function = cartesian2polar if f == "cartesian2polar" else ComponentPermutation([1, 0])
    model = independent_rd([normal, normal])(params[f]).transform(function)
    rng = np.random.default_rng(seed)
    assert [repr(model.random(rng)) for _ in range(3)] == FIRST_DRAWS[f, seed]


@pytest.mark.parametrize("k", [-1, 4])
def test_pdf_outside_space_rejected(k):
    with pytest.raises(DomainError):
        multistate(0, 3)((0.1, 0.2, 0.3, 0.4)).pdf(k)


class TestDiscreteTransform:
    def test_pointwise_relabelling(self):
        m = multistate(0, 3)((0.1, 0.2, 0.3, 0.4))
        for g in (ReversePermutation(0, 3), Rotation(0, 3, 1)):
            t = m.transform(g)
            for k in t.space():
                assert t.pdf(k) == m.pdf(g(k))  # exact
            assert math.fsum(t.pdf(k) for k in t.space()) == pytest.approx(1.0, abs=1e-12)

    def test_uniform_is_permutation_invariant(self):
        m = bounded_uniform(0, 3)(())
        t = m.transform(ReversePermutation(0, 3))
        assert all(t.pdf(k) == pytest.approx(0.25, rel=1e-15) for k in t.space())

    def test_random_maps_back(self):
        rng = np.random.default_rng(3)
        m = multistate(0, 2)((0.7, 0.2, 0.1))
        t = m.transform(ReversePermutation(0, 2))
        draws = [t.random(rng).value for _ in range(3000)]
        assert np.mean([d == 2 for d in draws]) == pytest.approx(0.7, abs=0.05)


class TestVectorTransform:
    def test_polar_density_closed_form(self):
        plane = independent_rd([normal, normal])
        m = plane.transform(polar2cartesian)(((0, 1), (0, 1)))
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = float(rng.uniform(0.05, 5.0))
            theta = float(rng.uniform(0.0, 2 * math.pi))
            want = r * math.exp(-0.5 * r * r) / (2.0 * math.pi)
            assert m.pdf([r, theta]) == pytest.approx(want, rel=1e-12)

    def test_polar_random_roundtrip_stream(self):
        plane = independent_rd([normal, normal])
        m = plane.transform(polar2cartesian)(((0, 1), (0, 1)))
        d = m.random(np.random.default_rng(1))
        base = plane(((0, 1), (0, 1))).random_v(np.random.default_rng(1))
        np.testing.assert_allclose(
            polar2cartesian(d.components), base, rtol=1e-12
        )

    def test_origin_rejected(self):
        plane = independent_rd([normal, normal])
        m = plane.transform(cartesian2polar)(((0, 1), (0, 1)))
        with pytest.raises(DomainError):
            m.nl_pr(VecDatum((0.0, 0.0), (0.1, 0.1)))


LOG_NORMAL_MASS = "log-normal density mass"
POLAR_MASS = "bivariate normal through polar"


def normalize_deviations():
    """Each ``check normalize`` result's printed deviation, by name."""
    return {r.name: float(r.detail.split()[2]) for r in checks.check_normalize()}


class TestNormalisation:
    def test_normal_integrates_to_one(self):
        m = normal((1.5, 0.7))
        mass, _ = integrate.quad(m.pdf, -math.inf, math.inf)
        assert mass == pytest.approx(1.0, abs=1e-4)

    def test_log_normal_integrates_to_one(self):
        m = normal.transform(log)((0, 1))
        mass, _ = integrate.quad(
            lambda x: m.pdf(x) if x > 0 else 0.0,
            0.0,
            1e6,
            points=[0.05, 1.0, 10.0, 100.0],
            limit=200,
        )
        assert mass == pytest.approx(1.0, abs=1e-4)
        # check normalize's mass is 1 plus or minus its printed deviation,
        # so either sign lies within 1e-5 of scipy's mass.
        assert abs(mass - 1.0) + normalize_deviations()[LOG_NORMAL_MASS] <= 1e-5

    def test_polar_integrates_to_one(self):
        plane = independent_rd([normal, normal])
        m = plane.transform(polar2cartesian)(((0, 1), (0, 1)))
        mass, _ = integrate.dblquad(
            lambda theta, r: m.pdf([r, theta]) if r > 0 else 0.0,
            0.0,
            20.0,
            0.0,
            2.0 * math.pi,
        )
        assert mass == pytest.approx(1.0, abs=1e-3)
        assert abs(mass - 1.0) + normalize_deviations()[POLAR_MASS] <= 1e-5

    def test_independent_product_integrates_to_one(self):
        m = independent_rd([normal, normal])(((0.5, 1.2), (-0.3, 0.8)))
        mass, _ = integrate.dblquad(
            lambda y, x: m.pdf([x, y]), -8, 9, -7, 6.5
        )
        assert mass == pytest.approx(1.0, abs=1e-3)

    def test_log_mapped_draws_recover_base_moments(self):
        rng = np.random.default_rng(42)
        m = normal.transform(log)((0, 1))
        n = 100_000
        ys = [math.log(m.random(rng).x) for _ in range(n)]
        assert abs(np.mean(ys)) < 3.0 / math.sqrt(n)
        assert abs(np.std(ys, ddof=1) - 1.0) < 3.0 / math.sqrt(2 * n)


class TestNormalizeSuite:
    """``check normalize`` sums fixed Gauss-Legendre rules; TestNormalisation
    holds them to scipy's adaptive quadrature of the same integrands."""

    def test_mass_deviations_are_at_most_1e_10(self):
        devs = normalize_deviations()
        assert devs[LOG_NORMAL_MASS] <= 1e-10
        assert devs[POLAR_MASS] <= 1e-10

    def test_dropped_jacobian_fails_both_masses(self, monkeypatch):
        monkeypatch.setattr(Log, "nl_jacobian_det", lambda self, x: 0.0)
        monkeypatch.setattr(Polar2Cartesian, "nl_jacobian_det", lambda self, v: 0.0)
        passed = {r.name: r.passed for r in checks.check_normalize()}
        assert passed == {
            LOG_NORMAL_MASS: False,
            POLAR_MASS: False,
            "permuted probabilities sum (reverse[0,3])": True,
            "permuted probabilities sum (rotate(1)[0,3])": True,
        }


def _polar_rows(scale):
    jacobian = Polar2Cartesian.jacobian
    return lambda self, v: tuple(tuple(scale * x for x in row) for row in jacobian(self, v))


DECADES = [0.0] + [10.0**k for k in range(-6, 7)]
STEPS = DataSet(tuple(CtsDatum(x, 1e-3) for x in (-1.0, 0.2, 0.5, 1.5)))
ONE = [CtsDatum(2.0, 1e-3)]
TWO = [*ONE, CtsDatum(3.0, 1e-3)]
POLAR = (polar2cartesian, (2.0, 0.5))
_NL_PR = ContinuousModel.nl_pr


def _sp_gap(data):
    """commute-sp's deviation for log at sp = (0, 1) on data."""
    return checks.cost_gap(normal.transform(log)((0, 1)), normal((0, 1)).transform(log), data)


def _fit_gaps():
    """commute-est's and info's deviations for log on STEPS."""
    return checks.estimate_transform_gaps(normal, log, STEPS, None)


# Each law of msglen.checks on one case, and a defect it must see: (the
# owner and attribute the defect replaces, the defect, the law's deviation,
# and the tolerance its suite holds that deviation to).
LAW_DEFECTS = {
    "commute-sp, a transformed family that drops f": (
        models._TransformedFamily, "parameterise", lambda self, sp: self.base.parameterise(sp),
        partial(_sp_gap, ONE), 1e-9,
    ),
    "commute-sp, a cost that is NaN at the second datum": (
        ContinuousModel, "nl_pr", lambda self, d: math.nan if d.x > 2.5 else _NL_PR(self, d),
        partial(_sp_gap, TWO), 1e-9,
    ),
    "commute-est, a transformed fit that does not map the data": (
        models, "map_dataset", lambda ds, f: ds, lambda: _fit_gaps()[0], 1e-9,
    ),
    "info, a column map that does not scale the AoM": (
        Cts2Cts, "map_col", lambda self, x, aom: (self.f_col(x), aom), lambda: _fit_gaps()[1], 1e-9,
    ),
    "jacobian product, a Jacobian with a flipped sign": (
        Polar2Cartesian, "jacobian", _polar_rows(-1.0),
        partial(checks.inverse_jacobian_gap, *POLAR), 1e-9,
    ),
    "|det|, a doubled Jacobian": (
        Polar2Cartesian, "jacobian", _polar_rows(2.0), partial(checks.det_gap, *POLAR, 2.0), 1e-9,
    ),
    "finite differences, a Jacobian with a flipped sign": (
        Polar2Cartesian, "jacobian", _polar_rows(-1.0),
        partial(checks.jacobian_fd_gap, *POLAR), 1e-5,
    ),
    "scalar AoM, an apply that does not scale the AoM": (
        Cts2Cts, "apply", lambda self, d: CtsDatum(self(d.x), d.aom),
        partial(checks.scalar_aom_gap, log, 10.0, 1e-3), 1e-12,
    ),
    "AoM volume, an apply that does not scale the AoMs": (
        CtsD2CtsD, "apply", lambda self, d: VecDatum(self(d.components), d.aoms),
        partial(checks.aom_volume_gap, POLAR[0], VecDatum((10.0, 0.5), (1e-3, 1e-3))), 1e-9,
    ),
    "doubling, a cost that ignores the AoM": (
        ContinuousModel, "nl_pr", lambda self, d: self.nl_pdf(d.x),
        partial(checks.doubling_gap, normal((0, 1)), CtsDatum(0.5, 1e-3)), 1e-12,
    ),
    "mass, a doubled d_dx": (
        Log, "d_dx", lambda self, x: 2.0 / x,
        lambda: checks.mass_gap(normal.transform(log)((0, 1)), checks._gauss_legendre(DECADES, 24)),
        1e-4,
    ),
}


@pytest.mark.parametrize("case", LAW_DEFECTS)
def test_each_law_sees_a_planted_defect(case, monkeypatch):
    """Each law holds on its case, and its suite fails it once the defect
    is planted: the deviation is above the tolerance, or NaN."""
    owner, attr, defect, deviation, tol = LAW_DEFECTS[case]
    assert deviation() <= tol
    monkeypatch.setattr(owner, attr, defect)
    assert not deviation() <= tol


def _mass_through(f, mu: float, sigma: float) -> float:
    """The Gauss-Legendre mass of normal(mu, sigma).transform(f), from its
    own pdf.  The panels are the preimages under f of panels of the base's
    data space: steps of sigma/2 out to 20 sigma, and log-spaced steps of
    sqrt(10) from 1e-12 to 100 on either side of 0, so that an inv panel
    reaches |x| = 1e12.  Each run of edges that f's image holds is one
    series of panels."""
    m = normal.transform(f)((mu, sigma))
    g = f.inverse()
    logs = [s * 10.0 ** (j / 2) for s in (-1.0, 1.0) for j in range(-24, 5)]
    steps = [mu + sigma * k / 2 for k in range(-40, 41)]
    ys = sorted({0.0, *logs, *(y for y in steps if abs(y) >= 1e-12)})
    runs = [[]]
    for y in ys:
        if g.contains(y):
            runs[-1].append(g(y))
        else:
            runs.append([])
    panels = [checks._gauss_legendre(sorted(run), 24) for run in runs if len(run) > 1]
    return math.fsum(w * m.pdf(x) for nodes in panels for x, w in nodes)


class TestScalarMassOracle:
    """A scalar transform moves the base's mass on f's image and no more:
    1 for a map onto the line (or the line less a point), and Phi(mu/sigma)
    for exp, whose image is the positive half-line."""

    @pytest.mark.parametrize(
        "f", [identity, log, exp, inv, linear(2.0, 1.0), linear(-0.5, 3.0)], ids=lambda f: f.name
    )
    @settings(max_examples=20, deadline=None, derandomize=True)
    @given(mu=st.floats(-3.0, 3.0), sigma=st.floats(0.1, 3.2))
    def test_mass_is_the_base_mass_on_the_image(self, f, mu, sigma):
        image_mass = 0.5 * math.erfc(-mu / (sigma * math.sqrt(2.0))) if f is exp else 1.0
        assert abs(_mass_through(f, mu, sigma) - image_mass) <= 1e-9


class TestDataSpaces:
    def test_multistate_state_limit(self):
        assert MAX_STATES == 10**6
        with pytest.raises(ParameterError, match="states"):
            multistate(0, MAX_STATES)

    def test_multistate_takes_exactly_max_states(self):
        assert multistate(0, MAX_STATES - 1).size == MAX_STATES

    @pytest.mark.parametrize("lo, hi", [(3, 0), (0, 2**63), (-(2**63) - 1, 0)])
    def test_discrete_models_check_their_space(self, lo, hi):
        with pytest.raises(ParameterError):
            BoundedUniformModel(lo, hi)
        with pytest.raises(ParameterError):
            bounded_uniform(lo, hi)

    def test_full_int64_uniform_draws(self):
        m = bounded_uniform(-(2**63), 2**63 - 1)(())
        rng = np.random.default_rng(0)
        assert all(m.contains(m.random_v(rng)) for _ in range(10))

    def test_product_rejects_wrong_dimension(self):
        m = independent_rd([normal, normal])(((0, 1), (0, 1)))
        with pytest.raises(DomainError):
            m.nl_pr(VecDatum((0.0, 0.0, 0.0), (0.1, 0.1, 0.1)))

    def test_draw_onto_a_pole_of_the_inverse(self):
        # sd = 5e-324 rounds the first draw of seed 0 (z = 0.126) to 0.0, where
        # inv (its own inverse) divides by zero
        m = normal((0.0, 5e-324)).transform(inv)
        with pytest.raises(DomainError, match="cannot draw"):
            m.random(np.random.default_rng(0))


class TestProducts:
    def test_name_has_one_rule(self):
        built = IndependentProductModel([NormalModel(0, 1), NormalModel(0, 1)])
        family = independent_rd([normal, normal])
        assert built.name == family.name == family(((0, 1), (0, 1))).name == "rd:normal^2"
        mixed = independent_rd([normal, normal.transform(log)])
        assert mixed.name == mixed(((0, 1), (0, 1))).name == "rd:(normal,normal.transform(log))"

    def test_dimension_limit_reads_at_most_one_component_past_it(self):
        assert MAX_DIM == 10**6
        with pytest.raises(ParameterError, match="at most"):
            independent_rd(repeat(normal))  # endless: only MAX_DIM + 1 are read

    def test_components_must_be_continuous(self):
        with pytest.raises(ParameterError, match="continuous"):
            independent_rd([multistate(0, 1)])

    def test_a_value_outside_a_component_support_is_outside_the_product(self):
        m = IndependentProductModel([NormalModel(0, 1), NormalModel(0, 1)])
        assert not m.contains((math.inf, 0.0))
        with pytest.raises(DomainError, match="outside the support of rd:normal"):
            m.pdf((math.inf, 0.0))


class TestMultiStateModelChecks:
    def test_probabilities_must_be_iterable(self):
        with pytest.raises(ParameterError, match="a probability per state"):
            MultiStateModel(0, 1, 5)

    def test_negative_probability(self):
        with pytest.raises(ParameterError, match="non-negative"):
            multistate(0, 2)((1.5, -0.5, 0.0))


class _Uniform:
    """A generator whose random() always gives u."""

    def __init__(self, u):
        self.u = u

    def random(self):
        return self.u


@pytest.mark.parametrize(
    "probs, u, state",
    [
        # The probabilities sum to just under 1, and u lies past their sum.
        ((0.5, 0.4999999995), 0.9999999999, 1),
        # State 0 has probability 0, and u sits on its cumulative probability.
        ((0.0, 1.0), 0.0, 1),
        # Past the sum, with a last state of probability 0.
        ((0.2, 0.3, 0.4999999995, 0.0), 0.9999999999, 2),
    ],
    ids=["past-the-sum", "leading-zero", "trailing-zero"],
)
def test_multistate_draws_a_state_with_positive_probability(probs, u, state):
    m = multistate(0, len(probs) - 1)(probs)
    assert m.random_v(_Uniform(u)) == state
    assert m.random_col(_Uniform(u), 3) == (state,) * 3
    assert m.nl_pr(DiscreteDatum(state)) < math.inf


class TestRepr:
    def test_family_and_model(self):
        assert repr(normal) == "<NormalFamily normal>"
        assert repr(normal((0, 2))) == "<NormalModel normal(mean=0, sd=2)>"
        assert repr(multistate(0, 1)((0.25, 0.75))) == (
            "<MultiStateModel multistate:0:1(p0=0.25, p1=0.75)>"
        )


# Constructors given a number that is not a finite real (or not an integer,
# where one is needed).
BAD_NUMBERS = {
    "normal-str": lambda: normal.parameterise(("a", 1)),
    "normal-huge-int": lambda: normal.parameterise((10**400, 1)),
    "normal-none": lambda: normal.parameterise((1, None)),
    "multistate-str": lambda: multistate(0, 3).parameterise(("a", 1, 1, 1)),
    "multistate-model-none": lambda: MultiStateModel(0, 1, (None, 1.0)),
    "linear-str": lambda: linear("a", 1),
    "linear-huge-int": lambda: linear(10**400, 0),
    "permute-str": lambda: ComponentPermutation(["a", 0]),
    "rotate-str": lambda: Rotation(0, 3, "x"),
    "rotate-none": lambda: Rotation(0, 3, None),
    "multistate-fractional-bound": lambda: multistate(0.5, 3),
    "uniform-fractional-bound": lambda: bounded_uniform(0, 2.9),
    "multistate-nan-bound": lambda: multistate(float("nan"), 3),
    "cts-str": lambda: CtsDatum("a", 1.0),
    "cts-none": lambda: CtsDatum(None, 1.0),
    "cts-huge-int": lambda: CtsDatum(10**400, 1.0),
    "vec-str": lambda: VecDatum(("a",), (1.0,)),
    "priors-str": lambda: NormalPriors(mu_range="a"),
    "priors-bounds-str": lambda: NormalPriors(sigma_bounds=("a", 1.0)),
    "priors-bounds-one": lambda: NormalPriors(sigma_bounds=(1.0,)),
}


class TestNumbersAreChecked:
    """A number that is not a finite real (or not an integer, where one is
    needed) is a MsglenError with a one-line message, never a bare
    TypeError, ValueError or OverflowError, nor silently truncated."""

    @pytest.mark.parametrize("case", sorted(BAD_NUMBERS))
    def test_rejected(self, case):
        with pytest.raises(MsglenError) as err:
            BAD_NUMBERS[case]()
        message = str(err.value)
        assert "\n" not in message and len(message) < 120
