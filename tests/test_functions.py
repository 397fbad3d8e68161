"""Function objects: derivatives, inverses, Jacobians, AoM laws."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msglen import (
    Componentwise,
    ComponentPermutation,
    CtsDatum,
    DegenerateTransformError,
    DomainError,
    InvalidDatumError,
    NotInvertibleError,
    ParameterError,
    ReversePermutation,
    Rotation,
    VecDatum,
    cartesian2polar,
    exp,
    identity,
    inv,
    linear,
    log,
    polar2cartesian,
)
from msglen import checks
from msglen.checks import _domain_point
from msglen.functions import (
    FUNCTION_CLASS,
    LIBRARY,
    Cts2Cts,
    CtsD2CtsD,
    DiscreteBijection,
    Function,
    IntegerSpace,
)
from msglen.models import normal
from msglen.values import DataSet, DiscreteDatum, map_dataset

CTS_FUNCTIONS = [identity, log, exp, inv, linear(2.0, 1.0)]
VECTOR_FUNCTIONS = [
    polar2cartesian,
    cartesian2polar,
    Componentwise([log, exp]),
    ComponentPermutation([1, 0]),
]


def central_diff(f, x, h=None):
    h = h if h is not None else 1e-6 * max(1.0, abs(x))
    return (f(x + h) - f(x - h)) / (2.0 * h)


def sample_vector_point(f, rng):
    """A point interior to f's domain, away from angle branch cuts."""
    r = 10.0 ** float(rng.uniform(-1, 2))
    theta = float(rng.uniform(0.05, 2.0 * math.pi - 0.05))
    if f is polar2cartesian:
        return np.array([r, theta])
    if f is cartesian2polar:
        return np.array(polar2cartesian([r, theta]))
    if isinstance(f, Componentwise):
        return np.array([_domain_point(p, rng) for p in f.parts])
    return rng.normal(0.0, 2.0, size=f.dim)


class TestDerivatives:
    @pytest.mark.parametrize("f", CTS_FUNCTIONS, ids=lambda f: f.name)
    def test_matches_finite_differences(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            x = _domain_point(f, rng)
            fd = central_diff(f, x)
            assert f.d_dx(x) == pytest.approx(fd, rel=1e-6, abs=1e-9)


class TestInverses:
    @pytest.mark.parametrize("f", CTS_FUNCTIONS, ids=lambda f: f.name)
    def test_roundtrip(self, f):
        rng = np.random.default_rng(42)
        f_inv = f.inverse()
        for _ in range(100):
            x = _domain_point(f, rng)
            assert f_inv(f(x)) == pytest.approx(x, rel=1e-9, abs=1e-12)

    def test_log_exp_pair(self):
        assert log.inverse() is exp
        assert exp.inverse() is log
        assert log.inverse().inverse() is log

    def test_polar_pair(self):
        assert polar2cartesian.inverse() is cartesian2polar
        assert cartesian2polar.inverse() is polar2cartesian

    def test_monotone_derivative_sign(self):
        # Invertible scalar functions never change derivative sign on a
        # piece of their domain; inv's pieces are the two half-lines.
        rng = np.random.default_rng(42)
        for f in CTS_FUNCTIONS:
            signs = {}
            for _ in range(100):
                x = _domain_point(f, rng)
                piece = x > 0.0 if f is inv else None
                signs.setdefault(piece, set()).add(math.copysign(1.0, f.d_dx(x)))
            assert len(signs) == (2 if f is inv else 1), f.name
            assert all(len(s) == 1 for s in signs.values()), f.name

    def test_no_inverse_declared(self):
        class Square(Cts2Cts):
            name = "square"

            def __call__(self, x):
                return x * x

            def d_dx(self, x):
                return 2.0 * x

        with pytest.raises(NotInvertibleError):
            Square().inverse()


EDGE_POINTS = [0.0, -0.0, 1e-300, -1e-300, math.inf, -math.inf, math.nan]
REAL = [True, True, True, True, False, False, False]
POSITIVE = [False, False, True, False, False, False, False]
NONZERO = [False, False, True, True, False, False, False]


class TestDomainEdges:
    """Domains are open: zero (of either sign) is outside log's and inv's,
    and no domain holds an infinity or nan."""

    @pytest.mark.parametrize(
        "f,expected",
        zip(CTS_FUNCTIONS, [REAL, POSITIVE, REAL, NONZERO, REAL]),
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

            def __call__(self, x):
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
            assert checks.scalar_aom_gap(f, x, aom) <= 1e-12


class _Cube(Cts2Cts):
    """x ** 3, whose value overflows a float at 1e120 while its slope,
    3e240, stays finite."""

    name = "cube"

    def __call__(self, x):
        return x ** 3

    def d_dx(self, x):
        return 3.0 * x * x

    def inverse(self):
        return _CubeRoot()


class _CubeRoot(Cts2Cts):
    name = "cuberoot"

    def __call__(self, y):
        return math.copysign(abs(y) ** (1.0 / 3.0), y)

    def d_dx(self, y):
        return 1.0 / (3.0 * self(y) ** 2)

    def inverse(self):
        return _Cube()


class TestValueOverflow:
    """A value past the float range, at a finite slope, is a DomainError
    wherever a datum is mapped, naming the row in a dataset."""

    def test_apply(self):
        with pytest.raises(DomainError) as err:
            _Cube().apply(CtsDatum(1e120, 0.1))
        assert str(err.value) == "cube(1e+120) overflows a float"

    def test_map_dataset_names_the_row(self):
        ds = DataSet.continuous([1.0, 1e120], [0.1, 0.1])
        with pytest.raises(DomainError) as err:
            map_dataset(ds, _Cube())
        assert (str(err.value), err.value.index) == ("index 1: cube(1e+120) overflows a float", 1)

    def test_a_fit_names_the_row(self):
        ds = DataSet.continuous([1.0, 2.0, 1e120], [0.1, 0.1, 0.1])
        with pytest.raises(DomainError) as err:
            normal.transform(_Cube()).estimator().estimate(ds)
        assert (str(err.value), err.value.index) == ("index 2: cube(1e+120) overflows a float", 2)


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
            fd = checks.finite_difference_jacobian(f, v)
            np.testing.assert_allclose(fd, f.jacobian(v), rtol=1e-5, atol=1e-8)

    @pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
    def test_nl_det_consistent_with_jacobian(self, f):
        rng = np.random.default_rng(42)
        for _ in range(100):
            v = sample_vector_point(f, rng)
            assert checks.det_gap(f, v, math.exp(-f.nl_jacobian_det(v))) <= 1e-9

    def test_nl_det_of_polar_maps(self):
        assert polar2cartesian.nl_jacobian_det([1.0, 2.7]) == pytest.approx(0.0, abs=1e-15)
        assert polar2cartesian.nl_jacobian_det([math.e, 0.0]) == pytest.approx(-1.0, rel=1e-12)
        assert cartesian2polar.nl_jacobian_det([math.e, 0.0]) == pytest.approx(1.0, rel=1e-12)

    def test_polar_jacobian_overflows_where_r_squared_underflows(self):
        # r = 1e-200 is positive, but r * r is 0.0, so 1 / r^2 would divide by zero
        with pytest.raises(DegenerateTransformError) as err:
            cartesian2polar.jacobian((1e-200, 0.0))
        assert str(err.value) == "the Jacobian of cartesian2polar overflows at (1e-200, 0.0)"

    def test_inverse_jacobian_product(self):
        rng = np.random.default_rng(42)
        for f in VECTOR_FUNCTIONS:
            for _ in range(20):
                v = sample_vector_point(f, rng)
                # numpy's matrix inverse of J, not the inverse map's Jacobian
                jac = np.array(f.jacobian(v))
                np.testing.assert_allclose(jac @ np.linalg.inv(jac), np.eye(f.dim), atol=1e-9)
                assert checks.inverse_jacobian_gap(f, v) <= 1e-8


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
            assert checks.aom_volume_gap(f, d) <= 1e-9

    def test_singular_jacobian_degenerate(self):
        class Collapse(CtsD2CtsD):
            name = "collapse"
            dim = 2

            def __call__(self, v):
                s = float(v[0]) + float(v[1])
                return (s, s)

            def jacobian(self, v):
                return ((1.0, 1.0), (1.0, 1.0))

        with pytest.raises(DegenerateTransformError):
            Collapse().apply(VecDatum((1.0, 2.0), (0.1, 0.1)))

    def test_overflowing_aom_is_refused_without_a_warning(self):
        # |J| @ aoms overflows in numpy; apply's own check names the error.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateTransformError, match="collapses an AoM component"):
                cartesian2polar.apply(VecDatum((1e-160, 1e-160), (1e200, 1e200)))

    def test_origin_outside_cartesian2polar(self):
        with pytest.raises(DomainError):
            cartesian2polar.apply(VecDatum((0.0, 0.0), (0.1, 0.1)))

    def test_cartesian2polar_refuses_the_origin_per_value(self):
        with pytest.raises(DomainError, match="singular at the origin"):
            cartesian2polar.jacobian((0.0, 0.0))
        with pytest.raises(DegenerateTransformError, match="singular at the origin"):
            cartesian2polar.nl_jacobian_det((0.0, 0.0))

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
        image = sorted(g(k) for k in space)
        assert image == list(space)
        g_inv = g.inverse()
        assert all(g_inv(g(k)) == k for k in space)

    def test_reverse_example(self):
        g = ReversePermutation(0, 3)
        assert [g(k) for k in range(4)] == [3, 2, 1, 0]

    def test_rotate_example(self):
        g = Rotation(0, 3, 1)
        assert [g(k) for k in range(4)] == [1, 2, 3, 0]

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

    def test_linear_names_state_their_arguments(self):
        # A name that rounds its arguments would name two maps alike.
        assert linear(1.0000001, 0.0).name == "linear(1.0000001,0)"
        assert linear(1.0000001, 0.0).name != linear(1.0, 0.0).name
        assert linear(2.0, 1.0).name == "linear(2,1)"
        assert linear(1e-20, 0.0).name == "linear(1e-20,0)"
        assert linear(1e308, 0.0).name == "linear(1e+308,0)"
        third = "0.3333333333333333"
        assert linear(3.0, 1.0).inverse().name == f"linear({third},-{third})"

    def test_permutation_validated(self):
        with pytest.raises(ParameterError):
            ComponentPermutation([0, 0])


class TestFunctionBase:
    """Every function class is a Function: the name, the repr and the
    default inverse live there once."""

    def test_function_classes_subclass_function(self):
        assert set(FUNCTION_CLASS.values()) == {Cts2Cts, CtsD2CtsD, DiscreteBijection}
        assert all(issubclass(cls, Function) for cls in FUNCTION_CLASS.values())
        assert all(isinstance(f, Function) for f in LIBRARY.values())

    def test_each_function_class_defines_its_own_map(self):
        # f(v) is the map itself: no class forwards it to a per-kind hook.
        built = [linear(2.0, 1.0), ComponentPermutation([1, 0]), ReversePermutation(0, 3)]
        for f in [*LIBRARY.values(), *built, Rotation(0, 3, 1), Componentwise([log, exp])]:
            assert "__call__" in type(f).__dict__, f.name
        for cls in FUNCTION_CLASS.values():
            assert "__call__" not in cls.__dict__

    def test_discrete_bijection_repr(self):
        assert repr(Rotation(0, 3, 1)) == "<Rotation rotate(1)[0,3]>"
        assert repr(ReversePermutation(0, 3)) == "<ReversePermutation reverse[0,3]>"

    def test_default_inverse_declares_none(self):
        for f in (Cts2Cts(), CtsD2CtsD(), DiscreteBijection(0, 1)):
            with pytest.raises(NotInvertibleError, match="declares no inverse"):
                f.inverse()


class TestIntegerSpace:
    def test_members(self):
        s = IntegerSpace(-2, 3)
        assert s.size == 6 and list(s.space()) == [-2, -1, 0, 1, 2, 3]
        assert s.contains(-2) and s.contains(3) and not s.contains(4)

    @pytest.mark.parametrize("lo, hi", [(3, 0), (-(2**63) - 1, 0), (0, 2**63)])
    def test_empty_or_beyond_int64_rejected(self, lo, hi):
        with pytest.raises(ParameterError):
            IntegerSpace(lo, hi)
        with pytest.raises(ParameterError):
            Rotation(lo, hi, 1)

    def test_int64_range_accepted(self):
        g = ReversePermutation(-(2**63), 2**63 - 1)
        assert g.size == 2**64 and g(-(2**63)) == 2**63 - 1


class TestIntegerArguments:
    @pytest.mark.parametrize(
        "make",
        [
            lambda: Rotation(0, 3, 1.5),
            lambda: Rotation(0, 3, math.inf),
            lambda: Rotation(0, 3, math.nan),
            lambda: ComponentPermutation([1.5, 0]),
            lambda: ComponentPermutation([1e400, 0]),
            lambda: ComponentPermutation([np.float32(0.5), 0]),
        ],
        ids=["rotate-1.5", "rotate-inf", "rotate-nan", "permute-1.5", "permute-1e400", "permute-f32"],
    )
    def test_non_integral_rejected(self, make):
        with pytest.raises(ParameterError, match="integer"):
            make()

    def test_integral_values_accepted(self):
        assert Rotation(0, 3, 2.0).shift == 2
        assert Rotation(0, 3, np.int64(-1)).shift == -1
        assert ComponentPermutation([1.0, 0.0]).perm == (1, 0)


def test_tiny_negative_angle_maps_to_zero():
    # atan2 gives -1e-17, whose remainder mod 2*pi rounds up to 2*pi itself
    assert cartesian2polar([1.0, -1e-17])[1] == 0.0


def test_componentwise_needs_a_function():
    with pytest.raises(ParameterError):
        Componentwise([])


@pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
def test_vector_methods_take_any_sequence(f):
    v = (1.5, 0.75)
    for seq in (list(v), np.array(v)):
        assert f.contains(seq) == f.contains(v)
        assert f(seq) == f(v)
        assert f.jacobian(seq) == f.jacobian(v)
        assert f.nl_jacobian_det(seq) == f.nl_jacobian_det(v)
    out = f.apply(VecDatum(v, (0.01, 0.02)))
    assert all(type(c) is float for c in out.components + out.aoms)


@pytest.mark.parametrize("f", VECTOR_FUNCTIONS, ids=lambda f: f.name)
def test_vector_maps_answer_with_tuples_of_floats(f):
    # f(v) and jacobian(v) compute with math on tuples: the map is a tuple
    # of D floats and the Jacobian a tuple of D such rows.
    v = tuple(sample_vector_point(f, np.random.default_rng(3)).tolist())
    image, rows = f(v), f.jacobian(v)
    assert type(image) is tuple and len(image) == f.dim
    assert all(type(c) is float for c in image)
    assert type(rows) is tuple and len(rows) == f.dim
    assert all(type(r) is tuple and len(r) == f.dim for r in rows)
    assert all(type(c) is float for r in rows for c in r)


def test_a_vector_map_without_its_own_forms_is_abstract():
    # __call__ and jacobian are the one per-value form of the map and its
    # Jacobian, so a subclass that defines neither has no map.
    class Blank(CtsD2CtsD):
        name = "blank"
        dim = 2

    f = Blank()
    with pytest.raises(TypeError, match="not callable"):
        f((1.0, 3.0))
    for call in (f.jacobian, f.nl_jacobian_det):
        with pytest.raises(NotImplementedError):
            call((1.0, 3.0))


def test_permutation_builds_its_jacobian_once():
    f = ComponentPermutation([2, 0, 1])
    assert f((1.0, 2.0, 3.0)) == (3.0, 1.0, 2.0)
    assert f.jacobian((1.0, 2.0, 3.0)) is f.jacobian((4.0, 5.0, 6.0))
    jac = np.array(f.jacobian((1.0, 2.0, 3.0)))
    assert np.array_equal(jac @ np.array([1.0, 2.0, 3.0]), [3.0, 1.0, 2.0])


def test_subnormal_mapped_aom_is_a_degenerate_transform():
    with pytest.raises(DegenerateTransformError) as err:
        log.apply(CtsDatum(1e308, 0.01))
    assert str(err.value) == "log shrinks the AoM at 1e+308 to 1e-310, below the normal floats"
    # An AoM that collapses to 0 keeps its own error.
    with pytest.raises(InvalidDatumError, match="aom must be positive, got 0.0"):
        log.apply(CtsDatum(1e308, 1e-300))
