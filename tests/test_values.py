"""Data values, CSV ingestion, and AoM-propagating dataset mapping."""

import csv
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from msglen import (
    ColumnSpec,
    CsvError,
    CtsDatum,
    DataSet,
    DegenerateTransformError,
    DiscreteDatum,
    DomainError,
    InvalidDatumError,
    MsglenError,
    SchemaError,
    TransformError,
    VecDatum,
    dataset_from_csv,
    infer_default_aom,
    map_dataset,
)
from msglen import exp, identity, linear, log
from msglen.functions import ReversePermutation
from msglen import values
from msglen.checks import _domain_point
from msglen.values import MIN_AOM, settled


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

    def test_subnormal_aom_rejected(self):
        assert CtsDatum(1.0, MIN_AOM).aom == MIN_AOM
        with pytest.raises(InvalidDatumError) as err:
            CtsDatum(1.0, 1e-310)
        assert str(err.value) == "aom must be at least 2.2250738585072014e-308, got 1e-310"


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

    def test_subnormal_aom_rejected(self):
        with pytest.raises(InvalidDatumError) as err:
            VecDatum((1.0, 2.0), (0.1, 5e-324))
        assert str(err.value) == "every aom must be at least 2.2250738585072014e-308"


class TestSubnormalAom:
    """An AoM below the least normal float is unsettled, and no dataset holds it."""

    def test_settled_flags_it(self):
        x = np.array([1.0, 2.0, 3.0])
        assert settled(x, np.array([MIN_AOM, MIN_AOM / 2, 0.1])).tolist() == [True, False, True]
        rows = np.array([[0.1, 0.1], [0.1, 1e-310]])
        assert settled(np.ones((2, 2)), rows).tolist() == [True, False]

    @pytest.mark.parametrize(
        "x, aom, text",
        [
            ([1.0, 2.0], [0.1, 1e-310], "index 1: aom must be at least 2.2250738585072014e-308, got 1e-310"),
            ([[1.0, 2.0]], [[5e-324, 0.1]], "index 0: every aom must be at least 2.2250738585072014e-308"),
        ],
        ids=["cts", "vec"],
    )
    def test_a_dataset_refuses_it(self, x, aom, text):
        with pytest.raises(InvalidDatumError) as err:
            DataSet.continuous(x, aom)
        assert str(err.value) == text

    def test_a_map_that_makes_one_refuses_the_row(self):
        ds = DataSet.continuous([2.0, 1e308], [0.1, 0.01])
        with pytest.raises(DegenerateTransformError) as err:
            map_dataset(ds, log)
        assert str(err.value) == (
            "index 1: log shrinks the AoM at 1e+308 to 1e-310, below the normal floats"
        )


class TestOneAomRule:
    """Every door that admits an AoM asks ``values.aom_fault``, so the CSV
    reader never yields an AoM that the dataset's own check refuses, and
    each door's error names the row or column it read."""

    @pytest.mark.parametrize(
        "aom, fault",
        [
            (0.1, None),
            (MIN_AOM, None),
            (1e-310, "must be at least 2.2250738585072014e-308"),
            (0.0, "must be positive"),
            (-1.0, "must be positive"),
            (math.inf, "must be finite"),
            (math.nan, "must be finite"),
        ],
    )
    def test_the_rule_and_its_column_form_agree(self, aom, fault):
        assert values.aom_fault(aom) == fault
        assert settled(np.ones(1), np.array([aom])).tolist() == [fault is None]

    @pytest.mark.parametrize("read", [dataset_from_csv, values._dataset_by_cells])
    def test_a_subnormal_aom_cell_names_its_row_and_column(self, read):
        with pytest.raises(CsvError) as err:
            read("x,err\n1,0.1\n2,1e-310\n", [ColumnSpec("x", aom_col="err")])
        assert err.value.row == 2
        assert str(err.value) == (
            "row 2: AoM in column 'err' must be at least 2.2250738585072014e-308"
        )

    @pytest.mark.parametrize(
        "aom, fault",
        [
            (1e-310, "must be at least 2.2250738585072014e-308"),
            (math.inf, "must be finite"),
            (-1.0, "must be positive"),
        ],
    )
    def test_a_constant_aom_names_its_column(self, aom, fault):
        with pytest.raises(SchemaError) as err:
            dataset_from_csv("x\n1\n2\n", [ColumnSpec("x", aom_const=aom)])
        assert str(err.value) == f"column 'x': constant AoM {fault}"

    @pytest.mark.parametrize(
        "text, schema, column",
        [
            ("x\n5e-324\n1e-323\n", [ColumnSpec("x")], "x"),
            ("x1,x2\n1,5e-324\n2,1e-323\n", [ColumnSpec("x1"), ColumnSpec("x2")], "x2"),
        ],
        ids=["scalar", "vector"],
    )
    def test_an_inferred_aom_below_the_normal_floats_names_its_column(
        self, text, schema, column
    ):
        with pytest.raises(SchemaError) as err:
            dataset_from_csv(text, schema)
        assert str(err.value) == (
            f"column {column!r}: its values are too close together to infer an AoM; "
            "give one with --aom-col or --aom-const"
        )

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(st.tuples(st.floats(allow_nan=False), st.floats(allow_nan=False)), min_size=1),
        st.booleans(),
    )
    @example([(5e-324, 0.1), (1e-323, 0.1)], False)
    @example([(1.0, 0.1), (2.0, 1e-310)], True)
    def test_a_read_is_a_dataset_or_a_reader_error(self, rows, aom_col):
        text = "x,e\n" + "".join(f"{x!r},{e!r}\n" for x, e in rows)
        schema = [ColumnSpec("x", aom_col="e" if aom_col else None)]
        try:
            ds = dataset_from_csv(text, schema)
        except (CsvError, SchemaError):
            return
        assert len(ds) == len(rows)


class TestOneCheckPerBuild:
    """Each build checks its rows once, through ``settle``: discrete
    columns as continuous ones, and a mapped dataset as a read one."""

    @pytest.mark.parametrize(
        "ds, f",
        [
            (DataSet.continuous([1.0, 2.0, 3.0], [0.1, 0.1, 0.1]), log),
            (DataSet.discrete((0, 2, 3)), ReversePermutation(0, 3)),
        ],
        ids=["cts", "discrete"],
    )
    def test_map_dataset_checks_its_answer_once(self, ds, f, monkeypatch):
        calls = []

        def counted(*columns):
            calls.append(columns)
            return settled(*columns)

        monkeypatch.setattr(values, "settled", counted)
        out = map_dataset(ds, f)
        assert len(calls) == 1
        assert list(out) == [f.apply(d) for d in ds]

    def test_a_discrete_build_checks_through_the_join(self, monkeypatch):
        calls = []
        monkeypatch.setattr(values, "settled", lambda *c: calls.append(c) or settled(*c))
        assert DataSet.discrete(range(5)).values == (0, 1, 2, 3, 4)
        assert len(calls) == 1

    def test_a_tuple_row_is_settled_when_it_is_an_int(self):
        assert settled((1, 2, 3)).tolist() == [True, True, True]
        assert settled((1, None, 2.5, True, np.int64(3))).tolist() == [
            True, False, False, True, False,
        ]


class TestDataSet:
    def test_homogeneity(self):
        with pytest.raises(InvalidDatumError):
            DataSet((CtsDatum(1.0, 0.1), DiscreteDatum(2)))

    def test_vector_dims_must_agree(self):
        with pytest.raises(InvalidDatumError):
            DataSet((VecDatum((1.0,), (0.1,)), VecDatum((1.0, 2.0), (0.1, 0.1))))

    def test_repr_and_empty_iteration(self):
        assert repr(DataSet.continuous([1.0, 2.0], [0.1, 0.1])) == "<DataSet cts, 2 rows>"
        assert repr(DataSet()) == "<DataSet empty, 0 rows>"
        assert list(DataSet()) == []

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

    # A field of the wrong type is a SchemaError naming the column and the field.
    @pytest.mark.parametrize(
        "spec,named",
        [
            (ColumnSpec("x", aom_const="0.1"), "column 'x': aom_const"),
            (ColumnSpec("x", aom_col=["e"]), "column 'x': aom_col"),
            (ColumnSpec(["x"]), "column ['x']: name"),
            (ColumnSpec("k", kind="discrete", lo="0", hi=3), "column 'k': lo"),
            (ColumnSpec("k", kind="discrete", lo=0.5, hi=3), "column 'k': lo"),
        ],
    )
    def test_field_of_wrong_type_is_schema_error(self, spec, named):
        with pytest.raises(SchemaError, match=re.escape(named)):
            dataset_from_csv("x,e,k\n1,0.1,1\n", [spec])

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


    @pytest.mark.parametrize(
        "text,message",
        [
            ("x,e\r1.5,0.1\r", "header row: cannot split into cells: new-line character seen in unquoted field"),
            ("x,e\n1.5,0.1\r2,0.1\r", "row 1: cannot split into cells: new-line character seen in unquoted field"),
            (
                "x,e,u\n1.5,0.1,1\n2,0.1," + "9" * 131073 + "\n",
                "row 2: cannot split into cells: field larger than field limit (131072)",
            ),
        ],
        ids=["bare-cr-header", "bare-cr-row", "long-field-in-an-unused-column"],
    )
    def test_text_csv_cannot_split_is_a_csv_error(self, text, message):
        with pytest.raises(CsvError) as err:
            dataset_from_csv(text, self.X_E)
        assert str(err.value) == message

    def test_crlf_lines_read_as_lf_lines(self):
        lf = dataset_from_csv("x,e\n1.5,0.1\n\n2,0.2\n", self.X_E)
        crlf = dataset_from_csv("x,e\r\n1.5,0.1\r\n\r\n2,0.2\r\n", self.X_E)
        assert (crlf.x.tobytes(), crlf.aom.tobytes()) == (lf.x.tobytes(), lf.aom.tobytes())

    @pytest.mark.parametrize(
        "text,numpy",
        [
            ("x,e,u\n1.5,0.1,a\n2,0.2,b\n", True),
            ("x,e,u\r\n1.5,0.1,a\r\n\r\n2,0.2,b", True),
            ("x,e,u\n1.5,0.1,\"a\"\n", False),
            ("x,e,u\n1.5,0.1,a\r2,0.2,b\n", False),
            ("x,e,u\n1.5,0.1,a\x00\n", False),
            ("x,e,u\n1.5,0.1,a\n \n", False),
            ("x,e,u\n1.5,0.1," + "a" * 131072 + "\n", False),
            ("x,e,u\n1.5,0,a\n", False),
            ("x,e,u\nnan,0.1,a\n", False),
            ("x,e,u\n1_5,0.1,a\n", False),
            ("x,e,u\n", False),
        ],
        ids=["lf", "crlf", "quote", "bare-cr", "nul", "whitespace-line", "long-line",
             "zero-aom", "nan", "underscore", "no-rows"],
    )
    def test_which_text_numpy_reads(self, text, numpy):
        # numpy's reader takes the plain text; the per-cell reader the rest.
        specs, index, rest = values._open_csv(text, self.X_E)
        assert (values._loaded_columns(specs, index, rest) is not None) == numpy


def _read_outcome(read, text, schema):
    """The arrays a reader gives (as bytes), or the type and text of its error."""
    try:
        ds = read(text, schema)
    except MsglenError as e:
        return type(e), str(e), getattr(e, "row", None)
    if ds.kind == "empty":
        return "empty", ds.schema
    return ds.kind, ds.x.shape, ds.x.tobytes(), ds.aom.tobytes(), ds.schema


WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# The columns a case's header holds, in a drawn order; "u" is never read.
HEADER = ("a", "e", "b", "f", "u")
SCHEMAS = [
    [ColumnSpec("a", aom_col="e")],
    [ColumnSpec("a", aom_const=0.5)],
    [ColumnSpec("a")],
    [ColumnSpec("a"), ColumnSpec("b")],
    [ColumnSpec("a", aom_col="e"), ColumnSpec("b", aom_col="f")],
    [ColumnSpec("e", aom_col="a")],
]
VALID = st.one_of(
    st.floats(1e-3, 1e6).map(repr),
    st.floats(1e-3, 1e3).map(lambda v: f"{v:.4f}"),
    st.integers(1, 10**6).map(str),
    st.sampled_from(["1e-3", "+2.5", ".5", "5.", "1E2", "007", "2.5e+1"]),
)
PADDING = st.lists(st.sampled_from(WHITESPACE), max_size=2).map("".join)
BAD = st.sampled_from([
    "abc", "1_0", "nan", "-inf", "inf", "infinity", "0x1p3", "\u0661", "1e", "1 2", "\x00",
    "1\x00", "0", "-1", "-0.0", "1e-310", "1e400", "1,5", "1d5", "--1", "\ufeff1",
])


@st.composite
def csv_cases(draw):
    """(text, schema): a header and rows of valid numbers, often padded with
    whitespace, and at a drawn place one defect (or none)."""
    header = draw(st.permutations(HEADER))
    rows = [
        [draw(PADDING) + draw(VALID) + draw(PADDING) if draw(st.integers(0, 3)) == 0 else draw(VALID)
         for _ in header]
        for _ in range(draw(st.integers(1, 6)))
    ]
    defect = draw(st.sampled_from(
        ["none", "bad", "short", "blank", "quote", "cr", "whitespace", "long", "empty"]
    ))
    r, c = draw(st.integers(0, len(rows) - 1)), draw(st.integers(0, len(header) - 1))
    if defect == "bad":
        rows[r][c] = draw(BAD)
    elif defect == "short":
        del rows[r][draw(st.integers(0, len(header) - 1)):]
    elif defect == "blank":
        rows[r][c] = draw(PADDING)
    elif defect == "quote":
        rows[r][c] = draw(st.sampled_from(['"{}"', '"', '"{},1"', '{}"'])).format(rows[r][c])
    elif defect == "whitespace":
        rows.insert(r, [draw(PADDING) + draw(st.sampled_from(WHITESPACE))])
    elif defect == "long":
        rows[r][header.index("u")] = "9" * (csv.field_size_limit() + 1)
    elif defect == "empty":
        rows.insert(r, [])
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join(",".join(row) for row in [list(header)] + rows) + draw(st.sampled_from([end, ""]))
    if defect == "cr":
        at = draw(st.integers(0, len(text)))
        text = text[:at] + "\r" + text[at:]
    return text, draw(st.sampled_from(SCHEMAS))


@settings(max_examples=400, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(csv_cases())
@example(("a,e,b,f,u\r1,1,1,1,1\r", SCHEMAS[0]))
@example(("a,e,b,f,u\n1,1,1,1," + "9" * 131073 + "\n", SCHEMAS[4]))
@example(("a,e,b,f,u\n1,1,1,1,\x00\n", SCHEMAS[0]))
@example(("u,a,e,b,f\n x\xa0,1\u3000,\x1c2,1,1\n", SCHEMAS[3]))
def test_numpy_reader_agrees_with_the_per_cell_reader(case):
    text, schema = case
    assert _read_outcome(dataset_from_csv, text, schema) == _read_outcome(
        values._dataset_by_cells, text, schema
    )


class TestInferDefaultAom:
    def test_single_value_fallback(self):
        assert infer_default_aom([5.0]) == pytest.approx(5e-6, rel=1e-12)
        assert infer_default_aom([0.0]) == pytest.approx(1e-6, rel=1e-12)

    def test_range_past_the_float_range(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert infer_default_aom([1e308, 0.0, -1e308]) == 1e308
            assert infer_default_aom([1e308, -1e308]) == math.inf

    @staticmethod
    def _by_unique(values) -> float:
        """The rule as stated, over np.unique's distinct values."""
        distinct = np.unique(np.asarray(values, dtype=np.float64))
        if distinct.size < 2:
            return 1e-6 * max(1.0, abs(float(distinct[0])) if distinct.size else 0.0)
        with np.errstate(over="ignore"):
            gap = float(np.diff(distinct).min())
        lo, hi = float(distinct[0]), float(distinct[-1])
        floor = 1e-6 * (hi - lo)
        if math.isinf(floor):
            floor = 1e-6 * hi - 1e-6 * lo
        return max(gap, floor)

    @settings(max_examples=500, deadline=None)
    @given(
        st.lists(
            st.one_of(
                st.floats(allow_nan=False, allow_infinity=False),
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308, 1.0, 2.0]),
            ),
            max_size=30,
        )
    )
    def test_agrees_with_the_rule_over_distinct_values(self, values):
        # The positive steps of the sorted column are the gaps between
        # distinct values; repr tells -0.0 from 0.0.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert repr(infer_default_aom(values)) == repr(self._by_unique(values))


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
        xs = [_domain_point(f, rng) for _ in range(100)]
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


class TestChecks:
    @pytest.mark.parametrize(
        "schema",
        [
            [],
            [ColumnSpec("x", kind="text")],
            [ColumnSpec("a", kind="discrete"), ColumnSpec("b", kind="discrete")],
        ],
        ids=["no-columns", "unknown-kind", "two-discrete"],
    )
    def test_bad_schema(self, schema):
        with pytest.raises(SchemaError):
            dataset_from_csv("a,b\n1,2\n", schema)

    def test_dataset_of_plain_numbers(self):
        with pytest.raises(InvalidDatumError, match="unsupported"):
            DataSet((1, 2))

    def test_fractional_discrete_value(self):
        with pytest.raises(InvalidDatumError):
            DiscreteDatum(1.5)

    def test_fractional_value_in_a_discrete_column_names_its_row(self):
        with pytest.raises(InvalidDatumError) as err:
            DataSet.discrete((1, 2.5))
        assert str(err.value) == "index 1: discrete value must be an int, got 2.5"
        assert err.value.index == 1


@pytest.mark.parametrize(
    "ds, f, error",
    [
        (DataSet((CtsDatum(1.0, 0.1), CtsDatum(1000.0, 0.1))), exp, DegenerateTransformError),
        (DataSet((CtsDatum(1.0, 0.1), CtsDatum(1e300, 1.0))), linear(1e10, 0.0), InvalidDatumError),
    ],
    ids=["degenerate", "invalid"],
)
def test_every_per_row_error_carries_its_index(ds, f, error):
    with pytest.raises(error) as err:
        map_dataset(ds, f)
    assert err.value.index == 1 and str(err.value).startswith("index 1: ")
