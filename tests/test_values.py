"""Data values, CSV ingestion, and AoM-propagating dataset mapping."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from msglen import (
    ColumnSpec,
    CsvError,
    CtsDatum,
    DataSet,
    DiscreteDatum,
    DomainError,
    InvalidDatumError,
    SchemaError,
    TransformError,
    VecDatum,
    dataset_from_csv,
    infer_default_aom,
    map_dataset,
)
from msglen import exp, identity, linear, log
from msglen.functions import ReversePermutation


class TestCtsDatum:
    def test_constructor_echo(self):
        d = CtsDatum(2.0, 0.01)
        assert (d.x, d.aom) == (2.0, 0.01)
        d = CtsDatum(0.0, 1.0)
        assert (d.x, d.aom) == (0.0, 1.0)

    def test_zero_aom_rejected(self):
        with pytest.raises(InvalidDatumError):
            CtsDatum(1.0, 0.0)

    @given(st.floats(max_value=0.0, allow_nan=False))
    def test_non_positive_aom_rejected(self, bad):
        with pytest.raises(InvalidDatumError):
            CtsDatum(1.0, bad)

    @pytest.mark.parametrize("x,aom", [(math.nan, 1.0), (math.inf, 1.0), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_rejected(self, x, aom):
        with pytest.raises(InvalidDatumError):
            CtsDatum(x, aom)

    def test_immutable(self):
        d = CtsDatum(1.0, 0.1)
        with pytest.raises(Exception):
            d.x = 2.0


class TestVecDatum:
    def test_echo_and_volume(self):
        v = VecDatum((1.0, 2.0), (0.1, 0.2))
        assert v.dim == 2
        assert v.aom_volume == pytest.approx(0.02, rel=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(InvalidDatumError):
            VecDatum((1.0, 2.0), (0.1,))

    def test_empty_rejected(self):
        with pytest.raises(InvalidDatumError):
            VecDatum((), ())

    def test_bad_aom(self):
        with pytest.raises(InvalidDatumError):
            VecDatum((1.0,), (0.0,))


class TestDataSet:
    def test_homogeneity(self):
        with pytest.raises(InvalidDatumError):
            DataSet((CtsDatum(1.0, 0.1), DiscreteDatum(2)))

    def test_vector_dims_must_agree(self):
        with pytest.raises(InvalidDatumError):
            DataSet((VecDatum((1.0,), (0.1,)), VecDatum((1.0, 2.0), (0.1, 0.1))))

    def test_kind(self):
        assert DataSet(()).kind == "empty"
        assert DataSet((DiscreteDatum(3),)).kind == "discrete"
        assert DataSet((CtsDatum(1.0, 0.1),)).kind == "cts"


class TestCsv:
    def test_constant_aom(self):
        ds = dataset_from_csv("x\n1.5\n2.5\n", [ColumnSpec("x", aom_const=0.1)])
        assert list(ds) == [CtsDatum(1.5, 0.1), CtsDatum(2.5, 0.1)]

    def test_empty_stream(self):
        ds = dataset_from_csv("", [ColumnSpec("x", aom_const=0.1)])
        assert len(ds) == 0
        assert ds.kind == "empty"

    def test_header_only(self):
        ds = dataset_from_csv("x\n", [ColumnSpec("x", aom_const=0.1)])
        assert len(ds) == 0

    def test_bad_cell_reports_row(self):
        with pytest.raises(CsvError) as err:
            dataset_from_csv("x\nabc\n", [ColumnSpec("x", aom_const=0.1)])
        assert err.value.row == 1

    def test_aom_column(self):
        ds = dataset_from_csv("x,e\n1.5,0.2\n3.0,0.4\n", [ColumnSpec("x", aom_col="e")])
        assert list(ds) == [CtsDatum(1.5, 0.2), CtsDatum(3.0, 0.4)]

    def test_missing_aom_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            dataset_from_csv("x\n1.5\n", [ColumnSpec("x", aom_col="e")])

    def test_missing_data_column_is_schema_error(self):
        with pytest.raises(SchemaError):
            dataset_from_csv("y\n1.5\n", [ColumnSpec("x", aom_const=0.1)])

    def test_conflicting_aom_sources(self):
        with pytest.raises(SchemaError):
            dataset_from_csv("x,e\n1,1\n", [ColumnSpec("x", aom_col="e", aom_const=0.1)])

    def test_inferred_granularity(self):
        ds = dataset_from_csv("x\n1.0\n1.3\n2.0\n", [ColumnSpec("x")])
        # smallest gap between distinct sorted values
        assert all(d.aom == pytest.approx(0.3, rel=1e-12) for d in ds)

    def test_granularity_floor(self):
        ds = dataset_from_csv("x\n0\n1e-09\n1000\n", [ColumnSpec("x")])
        # the 1e-9 gap is floored at 1e-6 of the 1000 range
        assert all(d.aom == pytest.approx(1e-3, rel=1e-12) for d in ds)

    def test_vector_columns(self):
        ds = dataset_from_csv(
            "a,b\n1,2\n3,4\n",
            [ColumnSpec("a", aom_const=0.1), ColumnSpec("b", aom_const=0.2)],
        )
        assert ds.kind == "vec"
        assert ds[0] == VecDatum((1.0, 2.0), (0.1, 0.2))

    def test_discrete_column_with_bounds(self):
        ds = dataset_from_csv("k\n0\n3\n", [ColumnSpec("k", kind="discrete", lo=0, hi=3)])
        assert list(ds) == [DiscreteDatum(0), DiscreteDatum(3)]
        with pytest.raises(CsvError):
            dataset_from_csv("k\n7\n", [ColumnSpec("k", kind="discrete", lo=0, hi=3)])

    def test_mixed_kinds_rejected(self):
        with pytest.raises(SchemaError):
            dataset_from_csv(
                "a,k\n1,2\n",
                [ColumnSpec("a", aom_const=0.1), ColumnSpec("k", kind="discrete")],
            )

    X = [ColumnSpec("x", aom_const=0.1)]
    X_E = [ColumnSpec("x", aom_col="e")]
    K = [ColumnSpec("k", kind="discrete", lo=0, hi=3)]

    # Each case expects the items, or (row, text in the message) of a CsvError.
    @pytest.mark.parametrize(
        "text,schema,expected",
        [
            ("x\n1\n\n  \n,\n2\n", X, [CtsDatum(1.0, 0.1), CtsDatum(2.0, 0.1)]),
            ("x\n1\n\n,\nabc\n", X, (2, "'abc' in column 'x'")),
            ("x,e\n1,0.1\n2\n", X_E, (2, "missing value for column 'e'")),
            ("x,e\n1,0.1\n2,0\n", X_E, (2, "AoM in column 'e' must be positive")),
            ("x\n1\ninf\n", X, (2, "non-finite value in column 'x'")),
            (
                "a,b\n1,2\n3,4.5\n7,8\n",
                [ColumnSpec("a"), ColumnSpec("b")],
                [VecDatum((1.0, 2.0), (2.0, 2.5)), VecDatum((3.0, 4.5), (2.0, 2.5)),
                 VecDatum((7.0, 8.0), (2.0, 2.5))],
            ),
            (
                "a,b,ea,eb\n1,2,0.1,0.2\n3,4,0.3,0.4\n",
                [ColumnSpec("a", aom_col="ea"), ColumnSpec("b", aom_col="eb")],
                [VecDatum((1.0, 2.0), (0.1, 0.2)), VecDatum((3.0, 4.0), (0.3, 0.4))],
            ),
            ("k\n1\n\nx\n", K, (2, "'x' in column 'k' as an integer")),
            ("k\n1\n4\n", K, (2, "value 4 outside bounds [0, 3]")),
            # Several bad cells: the first by schema column, then by row.
            ("x,e\n1,0\nabc,0.1\n", X_E, (2, "'abc' in column 'x'")),
        ],
        ids=[
            "blank-lines-skipped",
            "blank-lines-not-counted",
            "short-row",
            "zero-aom",
            "inf",
            "vec-inferred-aom-per-column",
            "vec-aom-column-per-component",
            "discrete-unparsable",
            "discrete-out-of-bounds",
            "first-bad-cell-by-column",
        ],
    )
    def test_ingest_branches(self, text, schema, expected):
        if isinstance(expected, list):
            assert list(dataset_from_csv(text, schema)) == expected
            return
        row, message = expected
        with pytest.raises(CsvError) as err:
            dataset_from_csv(text, schema)
        assert err.value.row == row
        assert message in str(err.value)


class TestInferDefaultAom:
    def test_single_value_fallback(self):
        assert infer_default_aom([5.0]) == pytest.approx(5e-6, rel=1e-12)
        assert infer_default_aom([0.0]) == pytest.approx(1e-6, rel=1e-12)


class TestMapDataset:
    def test_identity(self):
        ds = DataSet((CtsDatum(1.0, 0.1),))
        out = map_dataset(ds, identity)
        assert list(out) == [CtsDatum(1.0, 0.1)]

    def test_log_scales_aom_by_derivative(self):
        ds = DataSet((CtsDatum(math.e, 0.01),))
        out = map_dataset(ds, log)
        assert out[0].x == pytest.approx(1.0, rel=1e-12)
        # derivative of log at e is 1/e (cross-checked by finite differences)
        assert out[0].aom == pytest.approx(0.0036787944117144233, rel=1e-12)

    def test_domain_error_names_index(self):
        ds = DataSet((CtsDatum(2.0, 0.1), CtsDatum(-1.0, 0.1)))
        with pytest.raises(DomainError) as err:
            map_dataset(ds, log)
        assert err.value.index == 1
        assert "index 1" in str(err.value)

    def test_kind_mismatch(self):
        ds = DataSet((DiscreteDatum(1),))
        with pytest.raises(TransformError):
            map_dataset(ds, log)

    def test_empty_passthrough(self):
        assert len(map_dataset(DataSet(()), log)) == 0

    def test_preserves_length(self):
        rng = np.random.default_rng(42)
        ds = DataSet(tuple(CtsDatum(float(x), 0.05) for x in rng.normal(0, 1, 57)))
        assert len(map_dataset(ds, exp)) == 57

    @pytest.mark.parametrize("f", [log, exp, linear(3.0, -2.0), linear(-0.5, 1.0)])
    def test_roundtrip_recovers_values_and_aoms(self, f):
        rng = np.random.default_rng(42)
        xs = [f.domain.sample(rng) for _ in range(100)]
        ds = DataSet(tuple(CtsDatum(x, 10.0 ** float(rng.uniform(-5, -1))) for x in xs))
        back = map_dataset(map_dataset(ds, f), f.inverse())
        for before, after in zip(ds, back):
            assert after.x == pytest.approx(before.x, rel=1e-9, abs=1e-12)
            assert after.aom == pytest.approx(before.aom, rel=1e-9)

    def test_discrete_map(self):
        ds = DataSet((DiscreteDatum(0), DiscreteDatum(2)))
        out = map_dataset(ds, ReversePermutation(0, 3))
        assert [d.value for d in out] == [3, 1]

    @given(st.floats(min_value=1e-6, max_value=1e6), st.floats(min_value=0.5, max_value=4.0))
    def test_map_is_linear_in_aom(self, aom, factor):
        base = map_dataset(DataSet((CtsDatum(2.0, aom),)), log)[0]
        scaled = map_dataset(DataSet((CtsDatum(2.0, aom * factor),)), log)[0]
        assert scaled.aom == pytest.approx(base.aom * factor, rel=1e-12)
