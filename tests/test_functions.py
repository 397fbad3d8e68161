"""Function objects: derivatives, inverses, composition, Jacobians, AoM laws."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msglen import (
    Componentwise,
    ComponentPermutation,
    CtsDatum,
    DegenerateTransformError,
    DomainError,
    NotInvertibleError,
    ParameterError,
    ReversePermutation,
    Rotation,
    VecDatum,
    cartesian2polar,
    compose,
    exp,
    identity,
    inv,
    linear,
    log,
    polar2cartesian,
)
from msglen.functions import Cts2Cts, CtsD2CtsD
from msglen.values import DiscreteDatum

CTS_FUNCTIONS = [identity, log, exp, inv, linear(2.0, 1.0), compose(linear(2.0, 0.0), log)]
VECTOR_FUNCTIONS = [
    polar2cartesian,
    cartesian2polar,
    Componentwise([log, exp]),
    ComponentPermutation([1, 0]),
]


def central_diff(f, x, h=None):
    h = h if h is not None else 1e-6 * max(1.0, abs(x))
    return (f.apply_x(x + h) - f.apply_x(x - h)) / (2.0 * h)


def sample_vector_point(f, rng):
    """A point interior to f's domain, away from angle branch cuts."""
    r = 10.0 ** float(rng.uniform(-1, 2))
    theta = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
    if f is polar2cartesian:
        return np.array([r, theta])
    if f is cartesian2polar:
        return polar2cartesian.apply_v([r, theta])
    if isinstance(f, Componentwise):
        return np.array([p.domain.sample(rng) for p in f.parts])
    return rng.normal(0.0, 2.0, size=f.dim)


class TestDerivatives:
    @pytest.mark.parametrize("f", CTS_FUNCTIONS, ids=lambda f: f.name)
    def test_matches_finite_differences(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = f.domain.sample(rng)
            fd = central_diff(f, x)
            assert f.d_dx(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)

    def test_chain_rule_example(self):
        f = compose(linear(2.0, 0.0), log)
        # 2 * (1/4), cross-checked by finite differences above
        assert f.d_dx(4.0) == pytest.approx(0.5, rel=1e-12)


class TestInverses:
    @pytest.mark.parametrize("f", CTS_FUNCTIONS, ids=lambda f: f.name)
    def test_roundtrip(self, f):
        rng = np.random.default_rng(42)
        f_inv = f.inverse()
        for _ in range(100):
            x = f.domain.sample(rng)
            assert f_inv.apply_x(f.apply_x(x)) == pytest.approx(x, rel=1e-9, abs=1e-12)

    def test_log_exp_pair(self):
        assert log.inverse() is exp
        assert exp.inverse() is log
        assert log.inverse().inverse() is log

    def test_polar_pair(self):
        assert polar2cartesian.inverse() is cartesian2polar
        assert cartesian2polar.inverse() is polar2cartesian

    def test_monotone_derivative_sign(self):
        # invertible scalar functions never change derivative sign on a piece
        rng = np.random.default_rng(42)
        for f in CTS_FUNCTIONS:
            for piece in getattr(f.domain, "intervals", [None]):
                signs = set()
                for _ in range(50):
                    x = piece.sample(rng) if piece is not None else f.domain.sample(rng)
                    signs.add(math.copysign(1.0, f.d_dx(x)))
                assert len(signs) == 1, f.name

    def test_no_inverse_declared(self):
        class Square(Cts2Cts):
            name = "square"

            def apply_x(self, x):
                return x * x

            def d_dx(self, x):
                return 2.0 * x

        with pytest.raises(NotInvertibleError):
            Square().inverse()


class TestCompose:
    def test_inverse_pair_collapses(self):
        assert compose(exp, log).apply_x(5.0) == pytest.approx(5.0, rel=1e-12)

    def test_domain_error_through_inner(self):
        f = compose(log, linear(1.0, -1.0))
        with pytest.raises(DomainError):
            f.apply(CtsDatum(1.0, 0.1))  # inner maps 1 to 0, outside log's domain

    def test_composed_inverse(self):
        f = compose(linear(2.0, 1.0), exp)
        f_inv = f.inverse()
        assert f_inv.apply_x(f.apply_x(0.3)) == pytest.approx(0.3, rel=1e-12)

    def test_composed_derivative_matches_fd(self):
        rng = np.random.default_rng(7)
        f = compose(exp, linear(0.5, 0.0))
        for _ in range(100):
            x = float(rng.normal(0, 2))
            assert f.d_dx(x) == pytest.approx(central_diff(f, x), rel=1e-6)


EDGE_POINTS = [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]
REAL = [True, True, True, True, False, False, False]
POSITIVE = [False, False, True, False, False, False, False]
NONZERO = [False, False, True, True, False, False, False]


class TestDomainEdges:
    """Domains are open: zero (of either sign) is outside log's and inv's,
    and no domain holds an infinity or nan."""

    @pytest.mark.parametrize(
        "f,expected",
        zip(CTS_FUNCTIONS, [REAL, POSITIVE, REAL, NONZERO, REAL, POSITIVE]),
        ids=lambda f: getattr(f, "name", None),
    )
    def test_contains_at_edges(self, f, expected):
        assert [f.contains(x) for x in EDGE_POINTS] == expected


class TestApplyScalar:
    def test_log_example(self):
        out = log.apply(CtsDatum(8.0, 0.01))
        assert out.x == pytest.approx(2.0794415416798357, rel=1e-12)
        assert out.aom == pytest.approx(0.00125, rel=1e-12)

    def test_identity_example(self):
        assert identity.apply(CtsDatum(3.0, 0.2)) == CtsDatum(3.0, 0.2)

    def test_exp_example(self):
        out = exp.apply(CtsDatum(0.0, 0.1))
        assert out.x == pytest.approx(1.0, rel=1e-12)
        assert out.aom == pytest.approx(0.1, rel=1e-12)

    def test_outside_domain(self):
        with pytest.raises(DomainError):
            log.apply(CtsDatum(-1.0, 0.1))

    def test_zero_derivative_degenerate(self):
        class Cube(Cts2Cts):
            name = "cube"

            def apply_x(self, x):
                return x ** 3

            def d_dx(self, x):
                return 3.0 * x * x

        with pytest.raises(DegenerateTransformError):
            Cube().apply(CtsDatum(0.0, 0.1))

    @given(
        st.floats(min_value=0.01, max_value=100.0),
        st.floats(min_value=1e-6, max_value=1.0),
    )
    def test_aom_scales_by_slope(self, x, aom):
        for f in (log, exp, linear(-3.0, 2.0)):
            out = f.apply(CtsDatum(x, aom))
            assert out.aom == pytest.approx(aom * abs(f.d_dx(x)), rel=1e-12)


class TestJacobians:
    def test_polar_to_cartesian_at_unit(self):
        np.testing.assert_allclose(
            polar2cartesian.jacobian([1.0, 0.0]), np.eye(2), atol=1e-12
        )

    def test_cartesian_to_polar_at_unit(self):
        np.testing.assert_allclose(
            cartesian2polar.jacobian([1.0, 0.0]), np.eye(2), atol=1e-12
        )

    def test_polar_to_cartesian_at_quarter_turn(self):
        np.testing.assert_allclose(
            polar2cartesian.jacobian([2.0, math.pi / 2.0]),
            np.array([[0.0, -2.0], [1.0, 0.0]]),
            atol=1e-12,
        )

    @pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
    def test_matches_finite_differences(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = sample_vector_point(f, rng)
            jac = f.jacobian(v)
            for j in range(f.dim):
                h = 1e-6 * max(1.0, abs(float(v[j])))
                step = np.zeros(f.dim)
                step[j] = h
                col = (f.apply_v(v + step) - f.apply_v(v - step)) / (2.0 * h)
                np.testing.assert_allclose(col, jac[:, j], rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
    def test_nl_det_consistent_with_jacobian(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = sample_vector_point(f, rng)
            det = abs(float(np.linalg.det(f.jacobian(v))))
            assert math.exp(-f.nl_jacobian_det(v)) == pytest.approx(det, rel=1e-9)

    def test_nl_det_of_polar_maps(self):
        assert polar2cartesian.nl_jacobian_det([1.0, 2.7]) == pytest.approx(0.0, abs=1e-15)
        assert polar2cartesian.nl_jacobian_det([math.e, 0.0]) == pytest.approx(-1.0, rel=1e-12)
        assert cartesian2polar.nl_jacobian_det([math.e, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_product_of_jacobians_is_identity(self):
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = 10.0 ** float(rng.uniform(-3, 3))
            theta = float(rng.uniform(0, 2 * math.pi))
            cart = polar2cartesian.apply_v([r, theta])
            prod = polar2cartesian.jacobian(cartesian2polar.apply_v(cart)) @ cartesian2polar.jacobian(cart)
            np.testing.assert_allclose(prod, np.eye(2), atol=1e-9)

    def test_inverse_jacobian_product(self):
        rng = np.random.default_rng(42)
        for f in VECTOR_FUNCTIONS:
            f_inv = f.inverse()
            for _ in range(20):
                v = sample_vector_point(f, rng)
                prod = f.jacobian(v) @ np.linalg.inv(f.jacobian(v))
                np.testing.assert_allclose(prod, np.eye(f.dim), atol=1e-9)
                w = f.apply_v(v)
                np.testing.assert_allclose(
                    f_inv.jacobian(w) @ f.jacobian(v), np.eye(f.dim), atol=1e-8
                )


class TestApplyVector:
    def test_componentwise_identity(self):
        f = Componentwise([identity, identity])
        d = VecDatum((1.0, 2.0), (0.1, 0.2))
        out = f.apply(d)
        assert out.components == pytest.approx((1.0, 2.0))
        assert out.aoms == pytest.approx((0.1, 0.2), rel=1e-12)

    def test_polar_example(self):
        # at theta=0 the Jacobian is diag(1, r): raws (0.1, 0.2) already have
        # the right product, so no rescale happens
        out = polar2cartesian.apply(VecDatum((2.0, 0.0), (0.1, 0.1)))
        assert out.components == pytest.approx((2.0, 0.0), abs=1e-15)
        assert out.aoms == pytest.approx((0.1, 0.2), rel=1e-12)

    def test_swap_components(self):
        out = ComponentPermutation([1, 0]).apply(VecDatum((1.0, 2.0), (0.1, 0.2)))
        assert out.components == pytest.approx((2.0, 1.0), rel=1e-15)
        assert out.aoms == pytest.approx((0.2, 0.1), rel=1e-12)

    @pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
    def test_aom_volume_law(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = sample_vector_point(f, rng)
            d = VecDatum(tuple(float(c) for c in v), tuple(10.0 ** float(rng.uniform(-5, -2)) for _ in v))
            out = f.apply(d)
            want = math.exp(-f.nl_jacobian_det(v)) * d.aom_volume
            assert out.aom_volume == pytest.approx(want, rel=1e-9)

    def test_singular_jacobian_degenerate(self):
        class Collapse(CtsD2CtsD):
            name = "collapse"
            dim = 2

            def apply_v(self, v):
                s = float(v[0]) + float(v[1])
                return np.array([s, s])

            def jacobian(self, v):
                return np.ones((2, 2))

        with pytest.raises(DegenerateTransformError):
            Collapse().apply(VecDatum((1.0, 2.0), (0.1, 0.1)))

    def test_origin_outside_cartesian2polar(self):
        with pytest.raises(DomainError):
            cartesian2polar.apply(VecDatum((0.0, 0.0), (0.1, 0.1)))

    def test_dimension_mismatch(self):
        with pytest.raises(DomainError):
            polar2cartesian.apply(VecDatum((1.0,), (0.1,)))

    def test_polar_roundtrip(self):
        # Values and the AoM volume round-trip; the per-component AoM split
        # cannot survive a rotating map under interval propagation.
        rng = np.random.default_rng(42)
        for _ in range(100):
            r = 10.0 ** float(rng.uniform(-2, 2))
            theta = float(rng.uniform(0, 2 * math.pi))
            d = VecDatum((r, theta), (1e-3, 1e-3))
            back = cartesian2polar.apply(polar2cartesian.apply(d))
            assert back.components[0] == pytest.approx(r, rel=1e-9)
            assert back.components[1] == pytest.approx(theta, rel=1e-9, abs=1e-9)
            assert back.aom_volume == pytest.approx(d.aom_volume, rel=1e-9)

    @pytest.mark.parametrize(
        "f", [Componentwise([log, exp]), ComponentPermutation([1, 0])], ids=lambda f: f.name
    )
    def test_non_mixing_roundtrip_recovers_each_aom(self, f):
        rng = np.random.default_rng(42)
        f_inv = f.inverse()
        for _ in range(100):
            v = sample_vector_point(f, rng)
            d = VecDatum(
                tuple(float(c) for c in v),
                tuple(10.0 ** float(rng.uniform(-5, -2)) for _ in v),
            )
            back = f_inv.apply(f.apply(d))
            for a, b in zip(back.aoms, d.aoms):
                assert a == pytest.approx(b, rel=1e-9)
            for a, b in zip(back.components, d.components):
                assert a == pytest.approx(b, rel=1e-9)


class TestDiscreteBijections:
    @pytest.mark.parametrize(
        "g",
        [ReversePermutation(0, 5), Rotation(0, 5, 2), Rotation(-3, 4, 5), ReversePermutation(2, 2)],
        ids=lambda g: g.name,
    )
    def test_bijection_on_space(self, g):
        space = range(g.lo, g.hi + 1)
        image = sorted(g.apply_i(k) for k in space)
        assert image == list(space)
        g_inv = g.inverse()
        assert all(g_inv.apply_i(g.apply_i(k)) == k for k in space)

    def test_reverse_example(self):
        g = ReversePermutation(0, 3)
        assert [g.apply_i(k) for k in range(4)] == [3, 2, 1, 0]

    def test_rotate_example(self):
        g = Rotation(0, 3, 1)
        assert [g.apply_i(k) for k in range(4)] == [1, 2, 3, 0]

    def test_out_of_bounds(self):
        with pytest.raises(DomainError):
            ReversePermutation(0, 3).apply(DiscreteDatum(7))

    def test_bad_space(self):
        with pytest.raises(ParameterError):
            Rotation(3, 0, 1)


class TestConstructors:
    def test_linear_needs_nonzero_slope(self):
        with pytest.raises(ParameterError):
            linear(0.0, 1.0)

    def test_permutation_validated(self):
        with pytest.raises(ParameterError):
            ComponentPermutation([0, 0])
