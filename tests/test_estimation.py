"""Estimators and two-part message-length accounting."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msglen import (
    ComponentPermutation,
    CtsDatum,
    DataSet,
    DiscreteDatum,
    DomainError,
    EstimationError,
    NormalPriors,
    ParameterError,
    Rotation,
    VecDatum,
    cartesian2polar,
    exp,
    identity,
    inv,
    linear,
    log,
    map_dataset,
)
from msglen import estimation
from msglen.checks import estimate_transform_gaps
from msglen.errors import MsglenError
from msglen.estimation import LN_2, FitResult, data_costs
from msglen.models import (
    ContinuousFamily,
    NormalModel,
    bounded_uniform,
    independent_rd,
    multistate,
    normal,
)

WIDE = NormalPriors(mu_range=1e4, sigma_bounds=(1e-9, 1e6))


def normal_dataset(rng, n, mean, sd, aom=None):
    items = []
    for _ in range(n):
        a = aom if aom is not None else 10.0 ** float(rng.uniform(-4, -1))
        items.append(CtsDatum(float(rng.normal(mean, sd)), a))
    return DataSet(tuple(items))


class TestNormalEstimator:
    def test_recovers_parameters(self):
        rng = np.random.default_rng(42)
        ds = normal_dataset(rng, 100, 5.0, 2.0)
        fit = normal.estimator().estimate(ds)
        assert abs(fit.model.mean - 5.0) < 3.0 * 2.0 / math.sqrt(100)
        assert abs(fit.model.sd - 2.0) < 3.0 * 2.0 / math.sqrt(200)

    def test_empty_dataset(self):
        with pytest.raises(EstimationError):
            normal.estimator().estimate(DataSet(()))

    def test_wrong_kind(self):
        with pytest.raises(EstimationError):
            normal.estimator().estimate(DataSet((DiscreteDatum(1),)))

    def test_msg_components(self):
        rng = np.random.default_rng(42)
        fit = normal.estimator(WIDE).estimate(normal_dataset(rng, 50, 0.0, 1.0))
        msg1, msg2, msg = fit.components()
        assert msg == pytest.approx(msg1 + msg2, abs=1e-12)
        assert msg1 > 0.0
        assert msg / LN_2 == pytest.approx(msg * 1.4426950408889634, rel=1e-12)

    def test_msg2_is_sum_of_nl_pr(self):
        rng = np.random.default_rng(1)
        ds = normal_dataset(rng, 80, 2.0, 0.5)
        fit = normal.estimator(WIDE).estimate(ds)
        assert fit.msg2 == pytest.approx(
            math.fsum(fit.model.nl_pr(d) for d in ds), abs=1e-9
        )

    def test_degenerate_data_floors_sd(self):
        ds = DataSet(tuple(CtsDatum(3.0, 0.12) for _ in range(10)))
        fit = normal.estimator().estimate(ds)
        assert fit.model.sd == pytest.approx(0.12 / math.sqrt(12.0), rel=1e-12)
        assert math.isfinite(fit.msg)

    def test_fitted_params_minimise_the_message(self):
        rng = np.random.default_rng(42)
        for _ in range(20):
            n = int(rng.integers(10, 200))
            ds = normal_dataset(rng, n, float(rng.uniform(-3, 3)), float(rng.uniform(0.5, 3)))
            est = normal.estimator(WIDE)
            fit = est.estimate(ds)
            mu, sd = fit.model.mean, fit.model.sd
            assert fit.msg1 > 0.0  # clamp inactive, so the algebra below is exact
            for mu_p, sd_p in [
                (mu + 0.1 * sd, sd),
                (mu - 0.1 * sd, sd),
                (mu + 0.5 * sd, sd),
                (mu - 0.5 * sd, sd),
                (mu, 0.5 * sd),
                (mu, 0.9 * sd),
                (mu, 1.1 * sd),
                (mu, 2.0 * sd),
            ]:
                m1, m2 = est.message_length(ds, (mu_p, sd_p))
                assert fit.msg <= m1 + m2 + 1e-9

    @pytest.mark.parametrize(
        "family", [normal, normal.transform(linear(2.0, 0.0))], ids=lambda f: f.name
    )
    def test_sigma_bounds_whose_ratio_passes_the_float_range(self, family):
        # The inferred bounds are 1e-161 and 2e151 (4e151 mapped): their
        # ratio is past the float range, and its log is not.
        ds = DataSet(tuple(CtsDatum(x, 1e-160) for x in (1e150, 2e150, 3e150)))
        assert family.estimator().estimate(ds).msg1 == pytest.approx(7.288256076584824, rel=1e-12)

    def test_a_sigma_bound_past_the_float_range_is_an_estimation_error(self):
        # The upper bound of one datum is ten times its AoM, 1e309.
        ds = DataSet((CtsDatum(1.0, 1e308),))
        with pytest.raises(EstimationError, match="the fit overflows a float"):
            normal.estimator().estimate(ds)

    def test_explicit_priors_enter_msg1(self):
        rng = np.random.default_rng(4)
        ds = normal_dataset(rng, 30, 0.0, 1.0)
        small = normal.estimator(NormalPriors(mu_range=10.0, sigma_bounds=(1e-3, 1e3)))
        large = normal.estimator(NormalPriors(mu_range=1000.0, sigma_bounds=(1e-3, 1e3)))
        delta = large.estimate(ds).msg1 - small.estimate(ds).msg1
        assert delta == pytest.approx(math.log(100.0), rel=1e-9)


class TestMultiStateEstimator:
    def test_symmetric_counts(self):
        ds = DataSet(tuple(DiscreteDatum(v) for v in (0, 0, 1, 1)))
        fit = multistate(0, 1).estimator().estimate(ds)
        assert fit.model.probs[0] == pytest.approx(0.5, rel=1e-15)
        assert fit.model.probs[1] == pytest.approx(0.5, rel=1e-15)

    def test_half_count_smoothing(self):
        ds = DataSet(tuple(DiscreteDatum(v) for v in (0, 0, 0, 1)))
        fit = multistate(0, 1).estimator().estimate(ds)
        assert fit.model.probs[0] == pytest.approx((3 + 0.5) / (4 + 1), rel=1e-12)

    def test_out_of_space_value(self):
        ds = DataSet((DiscreteDatum(7),))
        with pytest.raises(DomainError):
            multistate(0, 3).estimator().estimate(ds)

    def test_out_of_space_value_names_its_row_as_scoring_does(self):
        est = multistate(0, 3).estimator()
        ds = DataSet.discrete((0, 5))
        with pytest.raises(DomainError) as fitted:
            est.estimate(ds)
        with pytest.raises(DomainError) as scored:
            est.message_length(ds, (0.25, 0.25, 0.25, 0.25))
        assert (str(fitted.value), fitted.value.index) == (str(scored.value), scored.value.index)
        assert fitted.value.index == 1
        assert str(fitted.value) == "index 1: 5 is outside the data space [0, 3]"

    def test_msg2_matches_nl_pr(self):
        rng = np.random.default_rng(2)
        ds = DataSet(tuple(DiscreteDatum(int(v)) for v in rng.integers(0, 4, 60)))
        fit = multistate(0, 3).estimator().estimate(ds)
        assert fit.msg2 == pytest.approx(
            math.fsum(fit.model.nl_pr(d) for d in ds), abs=1e-9
        )
        assert fit.msg1 >= 0.0


    @pytest.mark.parametrize("k,n", [(2, 50), (10, 1000), (170, 60000)])
    def test_msg1_matches_factorial_form(self, k, n):
        # n is large enough that the statement cost is not clipped to 0
        old = 0.5 * (k - 1) * math.log(n / 12.0) + math.log(math.sqrt(k) / math.factorial(k - 1))
        assert old > 0.0
        fit = multistate(0, k - 1).estimator().estimate(DataSet((DiscreteDatum(0),) * n))
        assert fit.msg1 == pytest.approx(old, rel=1e-12)


class TestBoundedUniformEstimator:
    def test_message_is_n_log_size(self):
        ds = DataSet(tuple(DiscreteDatum(v) for v in (0, 1, 3, 2, 2)))
        fit = bounded_uniform(0, 3).estimator().estimate(ds)
        assert fit.msg1 == 0.0
        assert fit.msg2 == pytest.approx(5 * math.log(4.0), rel=1e-12)

    def test_out_of_bounds(self):
        ds = DataSet((DiscreteDatum(9),))
        with pytest.raises(DomainError):
            bounded_uniform(0, 3).estimator().estimate(ds)


class TestIndependentProductEstimator:
    def test_fits_each_column(self):
        rng = np.random.default_rng(42)
        items = tuple(
            VecDatum(
                (float(rng.normal(1.0, 0.5)), float(rng.normal(-2.0, 2.0))),
                (0.01, 0.01),
            )
            for _ in range(400)
        )
        fit = independent_rd([normal, normal]).estimator().estimate(DataSet(items))
        c0, c1 = fit.model.components
        assert abs(c0.mean - 1.0) < 3 * 0.5 / 20
        assert abs(c1.mean + 2.0) < 3 * 2.0 / 20
        assert fit.msg2 == pytest.approx(
            math.fsum(fit.model.nl_pr(d) for d in DataSet(items)), abs=1e-9
        )
        assert fit.msg1 == pytest.approx(c0.msg1 + c1.msg1, abs=1e-12)

    @pytest.mark.parametrize("dim", [3, 4])
    def test_msg1_is_the_left_to_right_sum_of_the_parts(self, dim):
        # At seed 2 the four parts' msg1s sum to 45.223045812742335 left to
        # right, and to 45.22304581274233 compensated (math.fsum, or sum()
        # from Python 3.12 on).
        sp = ((3.0, 0.5), (1.0, 2.0), (-4.0, 0.1), (0.0, 1e-3))[:dim]
        drawn = independent_rd([normal] * dim)(sp).random_col(np.random.default_rng(2), 2000)
        ds = DataSet.continuous(drawn, np.full_like(drawn, 1e-6))
        fit = independent_rd([normal] * dim).estimator().estimate(ds)
        want = 0.0
        for part in fit.model.components:
            want += part.msg1
        assert repr(fit.msg1) == repr(want)


    @pytest.mark.parametrize("f", [None, cartesian2polar], ids=["plain", "polar"])
    def test_message_length_of_fitted_params(self, f):
        rng = np.random.default_rng(7)
        items = tuple(
            VecDatum((float(rng.normal(3.0, 1.0)), float(rng.normal(-1.0, 0.5))), (0.01, 0.02))
            for _ in range(300)
        )
        ds = DataSet(items)
        family = independent_rd([normal, normal])
        if f is not None:
            family = family.transform(f)
        fit = family.estimator().estimate(ds)
        product = fit.model if f is None else fit.model.base
        sp = tuple((c.mean, c.sd) for c in product.components)
        msg1, msg2 = family.estimator().message_length(ds, sp)
        assert msg1 == pytest.approx(fit.msg1, abs=1e-9)
        assert msg2 == pytest.approx(fit.msg2, abs=1e-9)


    @pytest.mark.parametrize(
        "components", [[normal, normal], [normal.transform(log), normal]], ids=["rd", "log-rd"]
    )
    def test_msg2_is_sum_of_column_fits(self, components):
        rng = np.random.default_rng(9)
        items = tuple(
            VecDatum((math.exp(float(rng.normal(0.5, 0.8))), float(rng.normal(-1.0, 0.5))), aoms)
            for aoms in [(0.001, 0.01)] * 200
        )
        fit = independent_rd(components).estimator().estimate(DataSet(items))
        columns = []
        for j, c in enumerate(components):
            col = DataSet(tuple(CtsDatum(d.components[j], d.aoms[j]) for d in items))
            columns.append(c.estimator().estimate(col))
        assert fit.msg2 == pytest.approx(math.fsum(c.msg2 for c in columns), abs=1e-9)
        assert fit.msg1 == pytest.approx(sum(c.msg1 for c in columns), abs=1e-9)

    def test_wrong_number_of_estimator_parameter_groups(self):
        with pytest.raises(EstimationError):
            independent_rd([normal, normal]).estimator((WIDE,))

    @pytest.mark.parametrize("door", ["estimate", "message_length"])
    @pytest.mark.parametrize(
        "f", [None, cartesian2polar, ComponentPermutation([1, 0])], ids=["plain", "polar", "permute"]
    )
    def test_data_of_another_dimension_are_refused_before_they_are_mapped(self, f, door):
        # A transformed product refuses 3-vectors as its base does, for the
        # whole dataset, rather than blaming the first row its map rejects.
        family = independent_rd([normal, normal])
        if f is not None:
            family = family.transform(f)
        estimator = family.estimator()
        ds = DataSet.continuous(np.array([[1.0, 2.0, 3.0], [2.0, 1.0, 0.5]]), np.full((2, 3), 0.1))
        with pytest.raises(EstimationError) as err:
            if door == "estimate":
                estimator.estimate(ds)
            else:
                estimator.message_length(ds, ((0.0, 1.0), (0.0, 1.0)))
        assert str(err.value) == f"{family.name} needs 2-vectors, got 3"
        assert err.value.index is None

    def test_a_transformed_product_refuses_them_at_estimator(self):
        # A transformed family refuses what its base refuses, at the same call.
        family = independent_rd([normal, normal]).transform(cartesian2polar)
        with pytest.raises(EstimationError, match="takes 2 estimator parameter groups"):
            family.estimator((WIDE,))

    def test_transformed_component(self):
        # a log-normal column fits as a normal column of the logs
        rng = np.random.default_rng(8)
        raw, logged = [], []
        for _ in range(200):
            x, y = math.exp(float(rng.normal(0.5, 0.8))), float(rng.normal(-1.0, 0.5))
            raw.append(VecDatum((x, y), (0.001, 0.01)))
            logged.append(VecDatum((math.log(x), y), (0.001 / x, 0.01)))
        family = independent_rd([normal.transform(log), normal])
        fit = family.estimator().estimate(DataSet(tuple(raw)))
        plain = independent_rd([normal, normal]).estimator().estimate(DataSet(tuple(logged)))
        assert fit.msg1 == pytest.approx(plain.msg1, abs=1e-9)
        assert fit.msg2 == pytest.approx(plain.msg2, abs=1e-9)
        log_normal, plain_normal = fit.model.components
        sp = ((log_normal.base.mean, log_normal.base.sd), (plain_normal.mean, plain_normal.sd))
        msg1, msg2 = family.estimator().message_length(DataSet(tuple(raw)), sp)
        assert (msg1, msg2) == pytest.approx((fit.msg1, fit.msg2), abs=1e-9)


class UnitNormalFamily(ContinuousFamily):
    """Normals of sd 1, defined by parameterise and _model alone."""

    name = "unit-normal"

    def parameterise(self, sp) -> NormalModel:
        (mean,) = sp
        return NormalModel(mean, 1.0)

    def _model(self, ds, given, ps) -> NormalModel:
        mean = math.fsum(ds.x.tolist()) / len(ds) if given is None else given.mean
        return NormalModel(mean, 1.0, msg1=0.5 * math.log(len(ds)))


class TestOneEstimator:
    """Every family fits through the one Estimator, which asks its _model."""

    def test_estimation_defines_one_estimator_class(self):
        assert [name for name in estimation.__all__ if name.endswith("Estimator")] == ["Estimator"]
        for family in (normal, multistate(0, 3), independent_rd([normal]), normal.transform(log)):
            assert type(family.estimator()) is estimation.Estimator

    def test_a_family_with_only_parameterise_and_model_fits_and_states(self):
        ds = DataSet.continuous([0.5, 1.5, 4.0], [0.1, 0.1, 0.1])
        estimator = UnitNormalFamily().estimator()
        fit = estimator.estimate(ds)
        assert (fit.model.mean, fit.model.sd) == (2.0, 1.0)
        assert (fit.msg1, fit.msg2) == (0.5 * math.log(3), data_costs(fit.model, ds)[1])
        msg1, msg2 = estimator.message_length(ds, (1.0,))
        assert (msg1, msg2) == (0.5 * math.log(3), data_costs(NormalModel(1.0, 1.0), ds)[1])

    def test_its_transform_fits_through_the_same_hook(self):
        ds = DataSet.continuous([0.5, 1.5, 4.0], [0.1, 0.1, 0.1])
        plain = UnitNormalFamily().estimator().estimate(ds)
        fit = UnitNormalFamily().transform(log).estimator().estimate(map_dataset(ds, exp))
        assert fit.model.base.mean == plain.model.mean
        assert fit.msg1 == plain.msg1


# Estimator parameters a family cannot use, with the text that refuses them.
BAD_ESTIMATOR_PARAMETERS = {
    "normal, a string": (normal, "junk", "normal takes NormalPriors or None, got 'junk'"),
    "normal, a dict": (
        normal, {"mu_range": 1}, "normal takes NormalPriors or None, got {'mu_range': 1}"
    ),
    "product, an int": (
        independent_rd([normal, normal]), 5, "rd:normal^2 takes 2 estimator parameter groups, got 5"
    ),
    "product, a bad group": (
        independent_rd([normal, normal]),
        ("junk", None),
        "normal takes NormalPriors or None, got 'junk'",
    ),
    "transformed normal": (
        normal.transform(log), "junk", "normal takes NormalPriors or None, got 'junk'"
    ),
    "multistate": (multistate(0, 3), 1, "multistate:0:3 takes no estimator parameters, got 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_ESTIMATOR_PARAMETERS))
def test_estimator_refuses_parameters_the_family_cannot_use(case):
    family, ps, text = BAD_ESTIMATOR_PARAMETERS[case]
    with pytest.raises(EstimationError) as err:
        family.estimator(ps)
    assert str(err.value) == text


def test_an_estimator_holds_the_parameters_its_fits_read():
    # Resolved once, when the estimator is made: the normal's default priors
    # are one shared instance, and a product holds one group per component.
    assert normal.estimator().ps == NormalPriors()
    assert normal.estimator().ps is normal.transform(log).estimator().ps
    assert normal.estimator(WIDE).ps is WIDE
    family = independent_rd([normal, normal.transform(log)])
    assert family.estimator((None, WIDE)).ps == (NormalPriors(), WIDE)
    assert family.transform(ComponentPermutation([1, 0])).estimator().ps == (NormalPriors(),) * 2
    assert multistate(0, 3).estimator().ps is None


class TestTransformedEstimator:
    def test_identity_transform_matches_plain(self):
        rng = np.random.default_rng(42)
        ds = normal_dataset(rng, 60, 1.0, 2.0)
        plain = normal.estimator(WIDE).estimate(ds)
        wrapped = normal.transform(identity).estimator(WIDE).estimate(ds)
        assert wrapped.msg == pytest.approx(plain.msg, abs=1e-9)
        assert wrapped.model.params() == pytest.approx(plain.model.params())

    @pytest.mark.parametrize("f,mean,sd", [(log, 0.0, 1.0), (exp, 6.0, 0.5), (linear(3.0, -2.0), 1.0, 2.0)])
    def test_estimate_and_transform_commute(self, f, mean, sd):
        rng = np.random.default_rng(42)
        for _ in range(20):
            ds = normal_dataset(rng, int(rng.integers(10, 501)), mean, sd)
            cost, msg = estimate_transform_gaps(normal, f, ds, WIDE)
            # same distribution, datum for datum
            assert cost < 1e-9
            # mapping the data through an invertible f leaves msg unchanged
            assert msg < 1e-9

    def test_log_normal_fit_equals_normal_fit_on_logs(self):
        rng = np.random.default_rng(42)
        base = normal_dataset(rng, 200, 0.5, 0.8)
        positive = map_dataset(base, exp)  # data for the log-normal
        direct = normal.transform(log).estimator(WIDE).estimate(positive)
        via_logs = normal.estimator(WIDE).estimate(map_dataset(positive, log))
        for d in positive:
            lhs = direct.model.nl_pr(d)
            rhs = via_logs.model.nl_pr(log.apply(d))
            assert abs(lhs - rhs) < 1e-9
        assert direct.msg == pytest.approx(via_logs.msg, abs=1e-9)

    def test_scaling_halves_fitted_location_and_scale(self):
        rng = np.random.default_rng(42)
        ds = normal_dataset(rng, 150, 4.0, 1.0)
        f = linear(2.0, 0.0)
        plain = normal.estimator(WIDE).estimate(ds)
        transformed = normal.transform(f).estimator(WIDE).estimate(map_dataset(ds, f.inverse()))
        # as a distribution over the halved data, the fit is N(mu/2, sd/2)
        halved = NormalModel(plain.model.mean / 2.0, plain.model.sd / 2.0)
        rngc = np.random.default_rng(3)
        for _ in range(50):
            d = CtsDatum(float(rngc.normal(2.0, 0.5)), 1e-3)
            assert transformed.model.nl_pr(d) == pytest.approx(halved.nl_pr(d), abs=1e-9)
        assert transformed.msg == pytest.approx(plain.msg, abs=1e-9)

    def test_datum_outside_domain(self):
        ds = DataSet((CtsDatum(-1.0, 0.1),))
        with pytest.raises(DomainError) as err:
            normal.transform(log).estimator(WIDE).estimate(ds)
        assert err.value.index == 0

    def test_empty_dataset(self):
        with pytest.raises(EstimationError):
            normal.transform(log).estimator(WIDE).estimate(DataSet(()))


class TestFitResult:
    def test_given_parameters_cost_nothing(self):
        m = normal((0, 1))
        assert m.msg1 == 0.0

    def test_negative_msg1_rejected(self):
        with pytest.raises(EstimationError):
            FitResult(normal((0, 1)), -0.5, 1.0)

    def test_kv_units(self):
        rng = np.random.default_rng(0)
        fit = normal.estimator(WIDE).estimate(normal_dataset(rng, 20, 0, 1))
        nits = fit.kv()
        bits = fit.kv(bits=True)
        assert nits["units"] == "nits" and bits["units"] == "bits"
        assert bits["msg"] == pytest.approx(nits["msg"] / LN_2, rel=1e-12)

    def test_text_report_lists_params(self):
        rng = np.random.default_rng(0)
        fit = normal.estimator(WIDE).estimate(normal_dataset(rng, 20, 0, 1))
        text = fit.text()
        assert "model: normal" in text and "mean:" in text and "msg:" in text


class TestGivenParameters:
    """message_length checks the caller's parameters with the family's
    parameterise before any estimator reads them."""

    DS = DataSet((CtsDatum(0.0, 0.1), CtsDatum(1.0, 0.1)))

    @pytest.mark.parametrize("sp", [(0.0, -1.0), (0.0, 0.0), (1, 2, 3), ()])
    def test_bad_normal_parameters(self, sp):
        with pytest.raises(ParameterError):
            normal.estimator().message_length(self.DS, sp)
        with pytest.raises(ParameterError):
            normal.transform(exp).estimator().message_length(self.DS, sp)

    def test_uniform_takes_no_parameters(self):
        ds = DataSet((DiscreteDatum(1),))
        with pytest.raises(ParameterError):
            bounded_uniform(0, 3).estimator().message_length(ds, (1.0,))
        assert bounded_uniform(0, 3).estimator().message_length(ds) == (0.0, math.log(4.0))

    def test_bad_multistate_parameters(self):
        ds = DataSet((DiscreteDatum(1),))
        with pytest.raises(ParameterError):
            multistate(0, 1).estimator().message_length(ds, (0.7, 0.7))

    @pytest.mark.parametrize("sp", [((0, 1),), ((0, 1), (0, -1)), ((0, 1), (0, 1), (0, 1))])
    def test_bad_product_parameters(self, sp):
        ds = DataSet((VecDatum((0.0, 1.0), (0.1, 0.1)), VecDatum((1.0, 0.0), (0.1, 0.1))))
        with pytest.raises(ParameterError):
            independent_rd([normal, normal]).estimator().message_length(ds, sp)

    def test_product_rejects_wrong_dimension(self):
        ds = DataSet((VecDatum((0.0, 1.0, 2.0), (0.1, 0.1, 0.1)),) * 2)
        with pytest.raises(EstimationError):
            independent_rd([normal, normal]).estimator().estimate(ds)


def test_scoring_data_of_another_kind_is_a_domain_error():
    # scalar data reach a 1-D product only from the library: the CLI reads a
    # one-column CSV for a vector model as 1-vectors
    model = independent_rd([normal])(((0.0, 1.0),))
    with pytest.raises(DomainError):
        data_costs(model, DataSet((CtsDatum(0.0, 0.1),)))


def test_multistate_message_length_with_given_probabilities():
    ds = DataSet(tuple(DiscreteDatum(k) for k in (0, 1, 1, 2, 2, 2)))
    family = multistate(0, 2)
    probs = (0.2, 0.3, 0.5)
    msg1, msg2 = family.estimator().message_length(ds, probs)
    # msg1 depends on the space and the count, not on the probabilities
    assert msg1 == family.estimator().estimate(ds).msg1
    assert msg2 == pytest.approx(math.fsum(-math.log(probs[d.value]) for d in ds), rel=1e-12)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mu_range": 0.0},
        {"mu_range": -1.0},
        {"sigma_bounds": (0.0, 1.0)},
        {"sigma_bounds": (2.0, 1.0)},
        {"sigma_bounds": (1.0, 2.0, 3.0)},
        {"sigma_bounds": 5.0},
    ],
)
def test_normal_priors_rejected(kwargs):
    with pytest.raises(ParameterError):
        NormalPriors(**kwargs)


# Every kind of fit: leaves, transforms, and products plain, transformed and
# with a transformed component.
ONE_SUM_FAMILIES = {
    "normal": normal,
    "normal.transform(log)": normal.transform(log),
    "normal.transform(inv)": normal.transform(inv),
    "multistate:0:3": multistate(0, 3),
    "multistate:0:3.transform(rotate(1))": multistate(0, 3).transform(Rotation(0, 3, 1)),
    **{f"rd:normal^{d}": independent_rd([normal] * d) for d in (1, 2, 3)},
    "rd:normal^2.transform(cartesian2polar)": (
        independent_rd([normal, normal]).transform(cartesian2polar)
    ),
    "rd:normal^2.transform(permute(1,0))": (
        independent_rd([normal, normal]).transform(ComponentPermutation([1, 0]))
    ),
    "rd:(normal.transform(log),normal)": independent_rd([normal.transform(log), normal]),
}


def _statistical_params(model):
    """The sp that parameterises model's family to model."""
    if hasattr(model, "base"):
        return _statistical_params(model.base)
    if hasattr(model, "components"):
        return tuple(_statistical_params(c) for c in model.components)
    if hasattr(model, "probs"):
        return model.probs
    return (model.mean, model.sd)


@pytest.mark.parametrize("name", sorted(ONE_SUM_FAMILIES))
@given(data=st.data())
@settings(max_examples=40, deadline=None)
def test_fit_and_eval_total_the_data_as_one_sum(name, data):
    """A fit's msg2, and message_length's, are data_costs' total of the same
    model and data, bit for bit: one scoring path for fit and eval."""
    family = ONE_SUM_FAMILIES[name]
    n = data.draw(st.integers(1, 12))
    if family.kind == "discrete":
        ds = DataSet.discrete(data.draw(st.lists(st.integers(0, 3), min_size=n, max_size=n)))
    else:
        shape = (n,) if family.kind == "cts" else (n, family.dim)
        cells = math.prod(shape)
        x = data.draw(st.lists(st.floats(0.01, 100.0), min_size=cells, max_size=cells))
        aom = data.draw(st.lists(st.floats(1e-3, 1.0), min_size=cells, max_size=cells))
        ds = DataSet.continuous(np.reshape(x, shape), np.reshape(aom, shape))
    try:
        fit = family.estimator().estimate(ds)
    except MsglenError:
        return
    assert fit.msg2 == data_costs(fit.model, ds)[1]
    sp = _statistical_params(fit.model)
    assert family.estimator().message_length(ds, sp)[1] == data_costs(family(sp), ds)[1]
