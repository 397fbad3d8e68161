"""The column path agrees with the per-value path it replaces.

``map_dataset``, ``data_costs`` and ``Model.random_col`` work on whole
columns; ``Function.apply``, ``Model.nl_pr`` and ``Model.random_v`` work on
one datum.  These tests hold the two to each other: the same values (to
1e-12 relative, or one ulp for a draw, since numpy's ufuncs and ``math``
may round the last digit differently), the same errors with the same
messages and row index, and no datum built on the column path.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from msglen import (
    ComponentPermutation,
    Componentwise,
    CtsDatum,
    DataSet,
    DegenerateTransformError,
    DiscreteDatum,
    DomainError,
    InvalidDatumError,
    ReversePermutation,
    Rotation,
    VecDatum,
    cartesian2polar,
    compose,
    exp,
    identity,
    independent_rd,
    inv,
    linear,
    log,
    map_dataset,
    multistate,
    normal,
    polar2cartesian,
)
from msglen import bounded_uniform
from msglen import cli
from msglen.estimation import data_costs
from msglen.functions import Cts2Cts, CtsD2CtsD, Log
from msglen.models import DEFAULT_SAMPLE_AOM
from msglen.values import map_items

REL = 1e-12
N = 200


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= REL * max(abs(a), abs(b), 1e-300)


def _scalar_rows(rng, lo, hi):
    return [CtsDatum(float(x), 10.0 ** float(rng.uniform(-5, -1))) for x in rng.uniform(lo, hi, N)]


def _vector_rows(rng, *ranges):
    """N vector data, component j drawn uniformly from ranges[j]."""
    aoms = 10.0 ** rng.uniform(-5, -2, (N, len(ranges)))
    x = np.column_stack([rng.uniform(lo, hi, N) for lo, hi in ranges])
    return [VecDatum(tuple(v), tuple(e)) for v, e in zip(x.tolist(), aoms.tolist())]


# Each function with a sampler of N data in its domain.
FUNCTIONS = {
    "identity": (identity, lambda rng: _scalar_rows(rng, -50.0, 50.0)),
    "log": (log, lambda rng: _scalar_rows(rng, 1e-3, 1e3)),
    "exp": (exp, lambda rng: _scalar_rows(rng, -50.0, 50.0)),
    "inv": (inv, lambda rng: _scalar_rows(rng, 0.01, 100.0)),
    "linear": (linear(-3.0, 2.0), lambda rng: _scalar_rows(rng, -50.0, 50.0)),
    "compose": (compose(exp, log), lambda rng: _scalar_rows(rng, 1e-3, 1e3)),
    "polar2cartesian": (
        polar2cartesian, lambda rng: _vector_rows(rng, (1e-2, 1e2), (0.0, 2.0 * math.pi))
    ),
    "cartesian2polar": (cartesian2polar, lambda rng: _vector_rows(rng, (-5, 5), (-5, 5))),
    "componentwise": (
        Componentwise([log, exp]), lambda rng: _vector_rows(rng, (1e-2, 1e2), (-5, 5))
    ),
    "permute": (ComponentPermutation([1, 0]), lambda rng: _vector_rows(rng, (-5, 5), (-5, 5))),
    "reverse": (
        ReversePermutation(-3, 7), lambda rng: [DiscreteDatum(int(k)) for k in rng.integers(-3, 8, N)]
    ),
    "rotate": (
        Rotation(-3, 7, 4), lambda rng: [DiscreteDatum(int(k)) for k in rng.integers(-3, 8, N)]
    ),
}


def _fields(d) -> tuple:
    if isinstance(d, CtsDatum):
        return (d.x, d.aom)
    if isinstance(d, VecDatum):
        return d.components + d.aoms
    return (d.value,)


def _assert_rows_close(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert all(_close(a, b) for a, b in zip(_fields(g), _fields(w))), (g, w)


@pytest.mark.parametrize("name", sorted(FUNCTIONS))
def test_map_dataset_agrees_with_apply(name):
    f, sample = FUNCTIONS[name]
    ds = DataSet(sample(np.random.default_rng(sorted(FUNCTIONS).index(name))))
    _assert_rows_close(list(map_dataset(ds, f)), [f.apply(d) for d in ds])


def _error_of(call):
    try:
        call()
    except (DomainError, DegenerateTransformError, InvalidDatumError) as e:
        return type(e), str(e), e.index
    raise AssertionError("no error was raised")


class Flatten(CtsD2CtsD):
    """(a, b) -> (a, b) whose Jacobian [[1, 0], [0, b]] drops the second AoM
    at b = 0, through the per-value methods only."""

    name = "flatten"
    dim = 2

    def apply_v(self, v):
        return np.array(v, dtype=np.float64)

    def jacobian(self, v):
        return np.array([[1.0, 0.0], [0.0, v[1]]])

    def nl_jacobian_det(self, v):
        return 0.0


# A function, a good datum, and a datum it cannot map.
BAD_ROWS = {
    "out-of-domain": (log, CtsDatum(2.0, 0.1), CtsDatum(-1.0, 0.1)),
    "origin": (cartesian2polar, VecDatum((1.0, 2.0), (0.1, 0.1)), VecDatum((0.0, 0.0), (0.1, 0.1))),
    "exp-overflow": (exp, CtsDatum(1.0, 0.1), CtsDatum(800.0, 0.1)),
    "inv-tiny": (inv, CtsDatum(2.0, 0.1), CtsDatum(1e-200, 0.1)),
    # The mapped AoMs are subnormal, so their volume loses digits.
    "volume-lost": (
        Componentwise([linear(1e-20, 0.0), linear(1e-20, 0.0)]),
        VecDatum((1.0, 2.0), (0.1, 0.1)),
        VecDatum((1.0, 2.0), (1e-300, 1e-300)),
    ),
    "aom-collapses": (Flatten(), VecDatum((1.0, 2.0), (0.1, 0.1)), VecDatum((1.0, 0.0), (0.1, 0.1))),
}

# The per-datum error of the vector maps' bad rows.
VECTOR_REFUSALS = {
    "volume-lost": "failed to preserve the AoM volume",
    "aom-collapses": "collapses an AoM component",
}


@pytest.mark.parametrize("case", sorted(BAD_ROWS))
@given(n=st.integers(1, 12), data=st.data())
@settings(max_examples=20, deadline=None)
def test_bad_row_raises_the_per_datum_error(case, n, data):
    f, good, bad = BAD_ROWS[case]
    at = data.draw(st.integers(0, n - 1))
    rows = [good] * n
    rows[at] = bad
    ds = DataSet(rows)
    want = _error_of(lambda: map_items(f.apply, ds))
    assert want[2] == at
    assert _error_of(lambda: map_dataset(DataSet(rows), f)) == want


@pytest.mark.parametrize("case", sorted(VECTOR_REFUSALS))
def test_vector_map_refusals_are_degenerate_transforms(case):
    f, _, bad = BAD_ROWS[case]
    kind, message, index = _error_of(lambda: map_dataset(DataSet([bad]), f))
    assert kind is DegenerateTransformError and index == 0
    assert VECTOR_REFUSALS[case] in message


def test_data_of_another_dimension_raise_the_per_datum_error():
    ds = DataSet.continuous([[1.0, 2.0, 3.0]], [[0.1, 0.1, 0.1]])
    model = independent_rd([normal, normal])(((0.0, 1.0), (0.0, 1.0)))
    for call, reference in [
        (lambda: map_dataset(ds, cartesian2polar), lambda: map_items(cartesian2polar.apply, ds)),
        (lambda: data_costs(model, ds), lambda: map_items(model.nl_pr, ds)),
    ]:
        want = _error_of(reference)
        assert want[0] is DomainError and want[2] == 0
        assert _error_of(call) == want


def _plane(rng):
    return DataSet(_vector_rows(rng, (1.0, 5.0), (1.0, 5.0)))


# Each model with a sampler of data in its support and a datum outside it
# (None where the support is everything).
MODELS = {
    "normal": (normal((1.0, 2.0)), lambda rng: DataSet(_scalar_rows(rng, -5, 7)), None),
    "lognormal": (
        normal.transform(log)((0.5, 0.6)),
        lambda rng: DataSet(_scalar_rows(rng, 0.1, 9.0)),
        CtsDatum(-1.0, 0.1),
    ),
    "polar": (
        independent_rd([normal, normal])(((3.0, 0.5), (0.8, 0.2))).transform(cartesian2polar),
        _plane,
        VecDatum((0.0, 0.0), (0.1, 0.1)),
    ),
    "permuted": (
        independent_rd([normal, normal])(((3.0, 0.5), (2.0, 1.0))).transform(
            ComponentPermutation([1, 0])
        ),
        _plane,
        None,
    ),
    "rd-normal3": (
        independent_rd([normal] * 3)(((0.0, 1.0), (5.0, 2.0), (-3.0, 0.5))),
        lambda rng: DataSet(_vector_rows(rng, (-3, 3), (0, 10), (-5, -1))),
        None,
    ),
    "componentwise": (
        independent_rd([normal, normal])(((0.5, 0.6), (2.0, 0.3))).transform(
            Componentwise([log, exp])
        ),
        lambda rng: DataSet(_vector_rows(rng, (0.1, 9.0), (-1.0, 1.5))),
        VecDatum((-1.0, 0.0), (0.1, 0.1)),
    ),
    "polar2cartesian": (
        independent_rd([normal, normal])(((3.0, 0.5), (0.8, 0.2))).transform(polar2cartesian),
        lambda rng: DataSet(_vector_rows(rng, (0.5, 5.0), (0.0, 2.0 * math.pi))),
        VecDatum((-1.0, 1.0), (0.1, 0.1)),
    ),
    "multistate": (
        multistate(0, 3)((0.1, 0.2, 0.3, 0.4)),
        lambda rng: DataSet([DiscreteDatum(int(k)) for k in rng.integers(0, 4, N)]),
        DiscreteDatum(7),
    ),
    "uniform": (
        bounded_uniform(0, 3)(()),
        lambda rng: DataSet([DiscreteDatum(int(k)) for k in rng.integers(0, 4, N)]),
        DiscreteDatum(-1),
    ),
}


@pytest.mark.parametrize("name", sorted(MODELS))
def test_data_costs_agree_with_nl_pr(name):
    model, sample, bad = MODELS[name]
    ds = sample(np.random.default_rng(len(name)))
    costs, total = data_costs(model, ds)
    want = [model.nl_pr(d) for d in ds]
    assert all(type(c) is float for c in costs)
    assert all(_close(c, w) for c, w in zip(costs, want))
    assert _close(total, math.fsum(want))
    if bad is not None:
        rows = list(ds)
        rows[N // 2] = bad
        assert _error_of(lambda: data_costs(model, DataSet(rows))) == _error_of(
            lambda: map_items(model.nl_pr, DataSet(rows))
        )


@pytest.mark.parametrize(
    "name", sorted(name for name, (model, _, _) in MODELS.items() if hasattr(model, "base"))
)
def test_transformed_costs_are_the_base_costs_of_the_mapped_data(name):
    # Scoring and fitting cost each row alike, bit for bit.
    model, sample, _ = MODELS[name]
    ds = sample(np.random.default_rng(len(name)))
    assert data_costs(model, ds) == data_costs(model.base, map_dataset(ds, model.f))


# Every vector model of MODELS, and the plain product of two normals.
VECTOR_MODELS = {
    "product": independent_rd([normal, normal])(((0.0, 1.0), (0.0, 1.0))),
    **{name: model for name, (model, _, _) in MODELS.items() if model.kind == "vec"},
}


@pytest.mark.parametrize("name", sorted(VECTOR_MODELS))
@pytest.mark.parametrize("v", [(0.5,), (0.5, 0.0, 99.0)], ids=["short", "long"])
def test_a_vector_of_another_dimension_is_outside_the_support(name, v):
    model = VECTOR_MODELS[name]
    if len(v) == model.dim:
        v += (1.0,)
    assert not model.contains(v)
    with pytest.raises(DomainError, match="outside the support"):
        model.pdf(v)
    # nl_pr keeps its own dimension message.
    with pytest.raises(DomainError, match=f"got a {len(v)}-vector"):
        model.nl_pr(VecDatum(v, (0.1,) * len(v)))


@pytest.mark.parametrize(
    "f", [polar2cartesian, cartesian2polar, Componentwise([log, exp]), ComponentPermutation([1, 0])],
    ids=lambda f: f.name,
)
@pytest.mark.parametrize("v", [(1.0,), (1.0, 2.0, 3.0)], ids=["short", "long"])
def test_a_vector_map_does_not_contain_a_vector_of_another_dimension(f, v):
    assert not f.contains(v)
    with pytest.raises(DomainError, match=f"got a {len(v)}-vector"):
        f.apply(VecDatum(v, (0.1,) * len(v)))


class Doubtful(Cts2Cts):
    """linear(2, 1) whose column map gives NaN at 3.0, where apply is fine."""

    name = "doubtful"

    def apply_x(self, x):
        return 2.0 * x + 1.0

    def d_dx(self, x):
        return 2.0

    def f_col(self, x):
        return np.where(x == 3.0, math.nan, 2.0 * x + 1.0)


def test_rows_the_columns_doubt_but_apply_accepts_are_mapped_by_apply():
    ds = DataSet.continuous([1.0, 3.0, 5.0], [0.1, 0.1, 0.1])
    out = map_dataset(ds, Doubtful())
    assert list(out) == [CtsDatum(3.0, 0.2), CtsDatum(7.0, 0.2), CtsDatum(11.0, 0.2)]


def test_infinite_cost_comes_from_the_per_datum_path():
    model = multistate(0, 1)((0.0, 1.0))
    costs, total = data_costs(model, DataSet([DiscreteDatum(1), DiscreteDatum(0)]))
    assert costs == [model.nl_pr(DiscreteDatum(1)), math.inf] and total == math.inf


def _pairs(*rows) -> np.ndarray:
    return np.array(rows, dtype=np.float64)


# Column forms, each with values outside the domain or support and values
# inside it.
COLUMN_FORMS = {
    "polar2cartesian": (
        polar2cartesian.f_col,
        _pairs([-1.0, 0.5], [0.0, 0.5], [1.0, -0.1], [1.0, 2.0 * math.pi]),
        _pairs([1.0, 0.5], [2.0, 0.0]),
    ),
    "cartesian2polar": (
        cartesian2polar.f_col, _pairs([0.0, 0.0]), _pairs([1.0, 1.0], [-1.0, 0.0])
    ),
    "log": (log.f_col, np.array([0.0, -1.0]), np.array([1.0, 2.0])),
    "inv": (inv.f_col, np.array([0.0]), np.array([-2.0, 2.0])),
    "compose": (compose(exp, log).f_col, np.array([-1.0]), np.array([1.0])),
    "reverse": (ReversePermutation(0, 3).f_col, (-1, 7), (0, 3)),
    "rotate": (Rotation(0, 3, 1).f_col, (-1, 7), (0, 3)),
    "multistate": (multistate(0, 3)((0.1, 0.2, 0.3, 0.4)).nl_pdf_col, (-1, 4), (0, 3)),
}


def _answered(column) -> list:
    """Per row: a finite value (every component finite, for a vector row) or an int."""
    if isinstance(column, tuple):
        return [k is not None for k in column]
    finite = np.isfinite(column)
    return (finite if finite.ndim == 1 else finite.all(axis=1)).tolist()


@pytest.mark.parametrize("name", sorted(COLUMN_FORMS))
def test_column_forms_are_not_finite_outside_the_domain(name):
    form, outside, inside = COLUMN_FORMS[name]
    with np.errstate(all="ignore"):
        assert _answered(form(outside)) == [False] * len(outside)
        assert _answered(form(inside)) == [True] * len(inside)


class Twice(Cts2Cts):
    """x -> 2x + 1 through the per-value methods only."""

    name = "twice"

    def apply_x(self, x):
        return 2.0 * x + 1.0

    def d_dx(self, x):
        return 2.0

    def inverse(self):
        return linear(0.5, -0.5)


class Swap(CtsD2CtsD):
    """(a, b) -> (b, a) through the per-value methods only."""

    name = "swap"
    dim = 2

    def apply_v(self, v):
        return np.array([v[1], v[0]])

    def jacobian(self, v):
        return np.array([[0.0, 1.0], [1.0, 0.0]])

    def inverse(self):
        return self


@pytest.mark.parametrize(
    "f, library, ds, model",
    [
        (Twice(), linear(2.0, 1.0), DataSet(_scalar_rows(np.random.default_rng(1), -5, 5)),
         normal((0.0, 3.0))),
        (Swap(), ComponentPermutation([1, 0]), _plane(np.random.default_rng(2)),
         independent_rd([normal, normal])(((3.0, 0.5), (2.0, 1.0)))),
    ],
    ids=["Cts2Cts", "CtsD2CtsD"],
)
def test_subclass_with_per_value_methods_only(f, library, ds, model):
    _assert_rows_close(list(map_dataset(ds, f)), list(map_dataset(ds, library)))
    got = data_costs(model.transform(f), ds)[0]
    want = data_costs(model.transform(library), ds)[0]
    assert all(_close(a, b) for a, b in zip(got, want))


@pytest.mark.parametrize(
    "x, aom",
    [
        ([1.0, math.nan], [0.1, 0.1]),
        ([1.0, math.inf], [0.1, 0.1]),
        ([1.0, 2.0], [0.1, math.inf]),
        ([1.0, 2.0], [0.1, 0.0]),
        ([1.0, 2.0], [-0.1, 0.1]),
        ([1.0, 2.0], [0.1]),
        ([[1.0, 2.0]], [[0.1], [0.2]]),
        ([[1.0, 2.0], [3.0, math.nan]], [[0.1, 0.1], [0.1, 0.1]]),
        ([[], []], [[], []]),
        ([["a"]], [[0.1]]),
    ],
    ids=["nan", "inf", "inf-aom", "zero-aom", "negative-aom", "short-aom",
         "shape-mismatch", "vector-nan", "no-components", "not-a-number"],
)
def test_column_validation(x, aom):
    with pytest.raises(InvalidDatumError):
        DataSet.continuous(x, aom)


def test_bad_column_value_names_its_row():
    with pytest.raises(InvalidDatumError) as err:
        DataSet.continuous([1.0, 2.0, math.nan], [0.1, 0.1, 0.1])
    assert err.value.index == 2 and str(err.value) == "index 2: x must be finite, got nan"


def test_columns_are_read_only():
    ds = DataSet.continuous([1.0, 2.0], [0.1, 0.1])
    with pytest.raises(ValueError):
        ds.x[0] = 5.0


def test_rows_are_views_of_the_columns():
    ds = DataSet.continuous([[1.0, 2.0], [3.0, 4.0]], [[0.1, 0.2], [0.3, 0.4]])
    assert ds[-1] == VecDatum((3.0, 4.0), (0.3, 0.4))
    assert ds._items is None  # one row was built, not the dataset's items
    assert list(ds) == [VecDatum((1.0, 2.0), (0.1, 0.2)), VecDatum((3.0, 4.0), (0.3, 0.4))]
    assert ds[1] is ds.items[1]
    with pytest.raises(IndexError):
        DataSet.continuous([1.0], [0.1])[1]


@pytest.mark.parametrize(
    "family, ds",
    [
        (independent_rd([normal, normal]).transform(cartesian2polar),
         DataSet.continuous([[1.0, 2.0], [3.0, 1.0], [2.0, 2.5]], [[0.1, 0.1]] * 3)),
        (normal.transform(log), DataSet.continuous([1.0, 2.0, 4.0], [0.01, 0.02, 0.01])),
        (multistate(0, 3).transform(Rotation(0, 3, 1)), DataSet.discrete((0, 1, 1, 3))),
    ],
    ids=["polar", "lognormal", "multistate"],
)
def test_the_column_path_builds_no_items(family, ds):
    fit = family.estimator().estimate(ds)
    data_costs(fit.model, ds)
    map_dataset(ds, family.f)
    assert ds._items is None


def test_nested_vector_transform_degenerates_without_a_warning():
    model = (
        independent_rd([normal])(((0, 1),))
        .transform(Componentwise([inv]))
        .transform(ComponentPermutation([0]))
    )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DegenerateTransformError) as err:
            model.nl_pr(VecDatum((1e-200,), (1e-3,)))
    assert "np.float64" not in str(err.value)


class ColumnlessExp(Cts2Cts):
    """exp whose column map settles no row, so every draw takes the per-value inverse."""

    name = "columnless-exp"

    def apply_x(self, x):
        return math.exp(x)

    def d_dx(self, x):
        return math.exp(x)

    def f_col(self, x):
        return np.full_like(x, math.nan)


class LogOfColumnlessExp(Log):
    """log, whose inverse is ColumnlessExp."""

    def inverse(self):
        return ColumnlessExp()


# Every model of MODELS, and draws at the edges of random_col: the full
# signed 64-bit space, discrete transforms, a product with a transformed
# component, an inverse whose column map settles no row, and a vector map
# with per-value methods only.
DRAWN = {
    **{name: model for name, (model, _, _) in MODELS.items()},
    "uniform-int64": bounded_uniform(-(2**63), 2**63 - 1)(()),
    "reversed": multistate(0, 3).transform(ReversePermutation(0, 3))((0.1, 0.2, 0.3, 0.4)),
    "rotated": multistate(0, 3).transform(Rotation(0, 3, 3))((0.1, 0.2, 0.3, 0.4)),
    "product-of-lognormal": independent_rd([normal, normal.transform(log)])(
        ((1.0, 2.0), (0.5, 0.6))
    ),
    "columnless-inverse": normal.transform(LogOfColumnlessExp())((0.5, 0.6)),
    "per-value-swap": independent_rd([normal, normal])(((0.0, 1.0), (5.0, 2.0))).transform(
        Swap()
    ),
}

# The models drawn through a numpy column form of exp, atan2 or hypot, which
# may round the last bit differently from math's.
ONE_ULP = {"lognormal", "polar2cartesian"}


@pytest.mark.parametrize("seed", [0, 1, 901])
@pytest.mark.parametrize("name", sorted(DRAWN))
def test_random_col_draws_as_random_v_does(name, seed):
    model = DRAWN[name]
    by_column, by_value = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.random_col(by_column, 5 * N)
    want = [model.random_v(by_value) for _ in range(5 * N)]
    assert by_column.random() == by_value.random()
    if model.kind == "discrete":
        assert type(got) is tuple and got == tuple(want)
        assert all(type(k) is int for k in got)
        return
    want = np.array(want)
    assert got.dtype == np.float64 and got.shape == want.shape
    if name in ONE_ULP:
        np.testing.assert_array_max_ulp(got, want, maxulp=1)
    else:
        assert np.array_equal(got, want)


@pytest.mark.parametrize("name", sorted(DRAWN))
def test_no_draws_is_an_empty_column(name):
    model = DRAWN[name]
    got = model.random_col(np.random.default_rng(0), 0)
    if model.kind == "discrete":
        assert got == ()
    else:
        assert got.shape == ((0, model.dim) if model.kind == "vec" else (0,))


def test_per_value_vector_map_of_no_rows_keeps_its_shape():
    empty = np.empty((0, 2))
    assert Swap().f_col(empty).shape == (0, 2)
    assert Swap().jacobian_col(empty).shape == (0, 2, 2)


def test_a_draw_without_a_preimage_raises_the_per_draw_error():
    model = normal.transform(exp)((0.0, 1.0))
    rng = np.random.default_rng(0)
    with pytest.raises(DomainError) as want:
        for _ in range(N):
            model.random_v(rng)
    with pytest.raises(DomainError) as got:
        model.random_col(np.random.default_rng(0), N)
    assert str(got.value) == str(want.value)
    assert "np.float64" not in str(got.value)


# Seeded samples that must come out byte for byte as the per-draw path wrote
# them, and those drawn through numpy's exp, which may differ by one ulp in a
# value.
SAMPLES_EXACT = [
    "normal(0.5,2)",
    "normal(0.5,2).transform(linear(3,1))",
    "rd:normal^3(0,1;5,1;2,3)",
    "rd:normal^2(0,1;5,1).transform(permute(1,0))",
    "rd:normal^2(3,0.5;0.8,0.2).transform(cartesian2polar)",
    "uniform:-9223372036854775808:9223372036854775807",
    "multistate:0:3(0.1,0.2,0.3,0.4)",
    "multistate:0:3(0.1,0.2,0.3,0.4).transform(reverse)",
    "multistate:0:3(0.1,0.2,0.3,0.4).transform(rotate(2))",
]
SAMPLES_ONE_ULP = ["normal(0.9,0.5).transform(log)"]


def _per_draw_sample(expr: str, count: int, seed: int, aom: float) -> str:
    """The CSV text of a sample drawn and formatted one datum at a time."""
    model = cli._require_model(cli.parse_model_expr(expr))
    rng = np.random.default_rng(seed)
    draws = [model.random(rng, aom) for _ in range(count)]
    if model.kind == "discrete":
        return "x\n" + "".join(f"{d.value}\n" for d in draws)
    if model.kind == "cts":
        return "x,aom\n" + "".join(f"{d.x!r},{d.aom!r}\n" for d in draws)
    d = model.dim
    header = [f"x{j + 1}" for j in range(d)] + [f"aom{j + 1}" for j in range(d)]
    rows = (",".join(map(repr, d.components + d.aoms)) for d in draws)
    return ",".join(header) + "\n" + "".join(f"{row}\n" for row in rows)


def _cells(text: str) -> np.ndarray:
    return np.array([[float(c) for c in line.split(",")] for line in text.splitlines()[1:]])


@pytest.mark.parametrize("aom", [DEFAULT_SAMPLE_AOM, 0.25])
@pytest.mark.parametrize("expr", SAMPLES_EXACT + SAMPLES_ONE_ULP)
def test_sample_writes_the_per_draw_rows(expr, aom, capsys):
    count, seed = 2500, 901
    code = cli.main(["sample", expr, str(count), "--seed", str(seed), "--sample-aom", repr(aom)])
    out = capsys.readouterr().out
    want = _per_draw_sample(expr, count, seed, aom)
    assert code == 0
    if expr in SAMPLES_EXACT:
        assert out == want
    else:
        assert out.splitlines()[0] == want.splitlines()[0]
        np.testing.assert_array_max_ulp(_cells(out), _cells(want), maxulp=1)
