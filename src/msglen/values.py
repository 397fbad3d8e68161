"""Measured data values and datasets.

A continuous measurement is never an exact real: it has a nominal value
``x`` and an accuracy of measurement (AoM) ``aom``, and denotes the
interval ``x ± aom/2``.  The finite AoM is what gives a continuous datum a
finite probability under a density model (``aom * pdf(x)``) and hence a
finite information cost in nits.  Multivariate data carry one AoM per
component; the product of the AoMs is the volume of the little box the
measurement pins down.

Datasets are immutable, homogeneous sequences of data, held as columns
(numpy arrays of values and AoMs, or a tuple of ints); each datum is a
view of one row.  ``map_dataset`` maps the columns by a function object's
AoM-propagating column map, so a mapped dataset keeps track of how the
measurement intervals stretch or shrink under the map.
"""

from __future__ import annotations

import csv
import io
import math
import numbers
import reprlib
import sys
import warnings
from dataclasses import astuple, dataclass
from typing import Iterator, Sequence, TextIO

import numpy as np

from .errors import (
    CsvError,
    DegenerateTransformError,
    DomainError,
    InvalidDatumError,
    MsglenError,
    SchemaError,
    TransformError,
)

__all__ = [
    "CtsDatum",
    "VecDatum",
    "DiscreteDatum",
    "ColumnSpec",
    "DataSet",
    "dataset_from_csv",
    "map_dataset",
    "infer_default_aom",
]

# The smallest AoM a datum may have: the least normal float.  A subnormal
# AoM has lost digits, and so would the cost that takes its log.
MIN_AOM = sys.float_info.min


def aom_fault(aom: float) -> str | None:
    """What is wrong with aom as a datum's AoM, as the end of a sentence
    about it ("must be positive"), or None when it is valid: an AoM is
    finite and at least ``MIN_AOM``.  ``settled`` states the same rule for
    a column, and ``_aom_as_is`` for a float that needs no conversion."""
    if not math.isfinite(aom):
        return "must be finite"
    if aom <= 0.0:
        return "must be positive"
    if aom < MIN_AOM:
        return f"must be at least {MIN_AOM!r}"
    return None


def _aom_as_is(aom) -> bool:
    """Whether a datum would hold aom as it is: a float, finite, at least MIN_AOM."""
    return type(aom) is float and MIN_AOM <= aom < math.inf


def settled(column, aom=None) -> np.ndarray:
    """One bool per row: whether the column forms settled it, by the rule a
    dataset validates its rows by.  A row of a tuple column is settled when
    it is an int; a row of a float column, (N,) or (N, D), when its values
    are finite and its AoMs (``aom``, when given) pass ``aom_fault``."""
    if isinstance(column, tuple):
        if set(map(type, column)) <= {int}:  # one pass in C
            return np.ones(len(column), dtype=bool)
        return np.array([isinstance(k, int) for k in column], dtype=bool)
    ok = np.isfinite(column)
    if aom is not None:
        ok &= np.isfinite(aom) & (aom >= MIN_AOM)
    return ok if ok.ndim == 1 else ok.all(axis=1)


def _require_finite(name: str, value: float) -> float:
    """value as a float; anything but a finite real number is invalid."""
    try:
        if math.isfinite(value):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise InvalidDatumError(f"{name} must be finite, got {reprlib.repr(value)}")


@dataclass(frozen=True)
class CtsDatum:
    """A continuous measurement: nominal value ``x`` with AoM ``aom``.

    Denotes the interval ``x ± aom/2``; ``aom`` must be a positive normal
    float (at least ``MIN_AOM``) and is in the same units as ``x``.
    """

    x: float
    aom: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite("x", self.x))
        aom = _require_finite("aom", self.aom)
        if fault := aom_fault(aom):
            raise InvalidDatumError(f"aom {fault}, got {aom!r}")
        object.__setattr__(self, "aom", aom)


@dataclass(frozen=True)
class VecDatum:
    """A D-dimensional continuous measurement with one AoM per component."""

    components: tuple[float, ...]
    aoms: tuple[float, ...]

    def __post_init__(self) -> None:
        comps = tuple(_require_finite("component", c) for c in self.components)
        aoms = tuple(_require_finite("aom", a) for a in self.aoms)
        if len(comps) < 1:
            raise InvalidDatumError("a vector datum needs at least one component")
        if len(aoms) != len(comps):
            raise InvalidDatumError(
                f"{len(comps)} components but {len(aoms)} aoms"
            )
        if fault := aom_fault(min(aoms)):
            raise InvalidDatumError(f"every aom {fault}")
        object.__setattr__(self, "components", comps)
        object.__setattr__(self, "aoms", aoms)

    @property
    def dim(self) -> int:
        return len(self.components)

    @property
    def aom_volume(self) -> float:
        """Product of the per-component AoMs (area for D=2, volume for D=3, ...)."""
        return math.prod(self.aoms)


@dataclass(frozen=True)
class DiscreteDatum:
    """An integer measurement from some bounded data space."""

    value: int

    def __post_init__(self) -> None:
        if not isinstance(self.value, int):
            raise InvalidDatumError(f"discrete value must be an int, got {self.value!r}")


@dataclass(frozen=True)
class ColumnSpec:
    """How one CSV column is read.

    ``kind`` is "cts" or "discrete".  A continuous column takes its AoM
    from ``aom_col`` (a paired column), from the constant ``aom_const``,
    or, when neither is given, from the measurement granularity inferred
    from the column's values.  ``lo``/``hi`` bound a discrete column.
    """

    name: str
    kind: str = "cts"
    aom_col: str | None = None
    aom_const: float | None = None
    lo: int | None = None
    hi: int | None = None


# What each ColumnSpec field may hold, as ``_open_csv`` checks it.
_SPEC_FIELDS = {
    "name": (str, "a string"),
    "kind": (str, "a string"),
    "aom_col": ((str, type(None)), "a string or None"),
    "aom_const": ((numbers.Real, type(None)), "a number or None"),
    "lo": ((numbers.Integral, type(None)), "an integer or None"),
    "hi": ((numbers.Integral, type(None)), "an integer or None"),
}


class DataSet:
    """An immutable, homogeneous dataset, held as columns.

    Continuous data are the float64 arrays ``x`` and ``aom``, shaped (N,)
    for scalars ("cts") and (N, D) for D-vectors ("vec"); discrete data
    are ``values``, a tuple of ints.  Columns are validated once, when the
    dataset is built.  The items (``CtsDatum``, ``VecDatum`` or
    ``DiscreteDatum``) are views of one row each, built on first use and
    kept; mapping, fitting and scoring read the columns and build none.

    ``DataSet(items, schema)`` builds the columns from data items;
    ``DataSet.continuous`` and ``DataSet.discrete`` take the columns.
    """

    __slots__ = ("kind", "x", "aom", "values", "schema", "_items")

    def __init__(self, items=(), schema=None):
        items = tuple(items)
        first = type(items[0]) if items else None
        if items and first not in (CtsDatum, VecDatum, DiscreteDatum):
            raise InvalidDatumError(f"unsupported item type {first.__name__}")
        if any(type(it) is not first for it in items):
            raise InvalidDatumError("dataset items must all be the same kind")
        if first is DiscreteDatum:
            self._set_discrete(tuple(d.value for d in items))
        elif first is CtsDatum:
            self._set_continuous([d.x for d in items], [d.aom for d in items])
        elif first is VecDatum:
            if len({d.dim for d in items}) > 1:
                raise InvalidDatumError("vector data must share one dimension")
            self._set_continuous([d.components for d in items], [d.aoms for d in items])
        else:
            self._set_empty()
        self.schema = None if schema is None else tuple(schema)
        self._items = items or None

    @classmethod
    def continuous(cls, x, aom, schema=None) -> "DataSet":
        """A dataset of the columns ``x`` and ``aom``: (N,) for scalar data,
        (N, D) for D-vectors.  Both are copied."""
        return cls._of_columns(schema)._set_continuous(x, aom)

    @classmethod
    def discrete(cls, values, schema=None) -> "DataSet":
        """A dataset of the integer column ``values``."""
        return cls._of_columns(schema)._set_discrete(values)

    @classmethod
    def _of_columns(cls, schema) -> "DataSet":
        ds = cls.__new__(cls)
        ds.schema = None if schema is None else tuple(schema)
        ds._items = None
        return ds

    # The setters hold columns once settle accepts every row, answering a
    # row it refuses by reference(i), by default the row's own datum (which
    # raises that row's error); each returns the dataset.

    def _set_empty(self) -> "DataSet":
        self.kind, self.x, self.aom, self.values = "empty", None, None, None
        return self

    def _set_continuous(self, x, aom, reference=None) -> "DataSet":
        # A caller's columns are copied, as it may change them; a map's own are not.
        copy = True if reference is None else None
        try:
            x = np.array(x, dtype=np.float64, copy=copy)
            aom = np.array(aom, dtype=np.float64, copy=copy)
        except (TypeError, ValueError, OverflowError):
            raise InvalidDatumError("continuous columns must hold real numbers") from None
        if x.shape != aom.shape or x.ndim not in (1, 2):
            raise InvalidDatumError(
                f"values of shape {x.shape} need AoMs of the same shape, (N,) or (N, D); "
                f"got {aom.shape}"
            )
        if len(x) == 0:
            return self._set_empty()
        if x.ndim == 2 and x.shape[1] < 1:
            raise InvalidDatumError("a vector datum needs at least one component")
        cls = CtsDatum if x.ndim == 1 else VecDatum
        x, aom = settle((x, aom), reference or (lambda i: _own_datum(cls, i, x, aom)))
        x.flags.writeable = aom.flags.writeable = False
        self.kind = "cts" if x.ndim == 1 else "vec"
        self.x, self.aom, self.values = x, aom, None
        return self

    def _set_discrete(self, values, reference=None) -> "DataSet":
        values = tuple(values)
        if not values:
            return self._set_empty()
        (values,) = settle((values,), reference or (lambda i: _own_datum(DiscreteDatum, i, values)))
        self.kind, self.x, self.aom, self.values = "discrete", None, None, values
        return self

    @property
    def dim(self) -> int:
        """The dimension D of vector data."""
        return self.x.shape[1]

    @property
    def columns(self) -> tuple:
        """(x, aom), or (values,) for discrete data: what the column forms take."""
        return (self.values,) if self.kind == "discrete" else (self.x, self.aom)

    @property
    def items(self) -> tuple:
        """The data items, one view per row; built on first use and kept."""
        if self._items is None:
            self._items = tuple(self._views(slice(None)))
        return self._items

    def _views(self, rows: slice) -> list:
        """Datum views of the rows in a slice."""
        if self.kind == "discrete":
            return [_view(DiscreteDatum, value=v) for v in self.values[rows]]
        if self.kind == "empty":
            return []
        xs, aoms = self.x[rows].tolist(), self.aom[rows].tolist()
        if self.kind == "cts":
            return [_view(CtsDatum, x=x, aom=a) for x, a in zip(xs, aoms)]
        return [_view(VecDatum, components=tuple(x), aoms=tuple(a)) for x, a in zip(xs, aoms)]

    def __len__(self) -> int:
        if self.kind == "empty":
            return 0
        return len(self.values) if self.kind == "discrete" else len(self.x)

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __getitem__(self, i):
        if self._items is not None or not isinstance(i, int):
            return self.items[i]
        # One row, without building the others.
        i = range(len(self))[i]
        return self._views(slice(i, i + 1))[0]

    def __repr__(self) -> str:
        return f"<DataSet {self.kind}, {len(self)} rows>"


def _view(cls, **fields):
    """A datum of cls whose fields are already valid (they come from a
    dataset's validated columns), built without checking them again."""
    d = object.__new__(cls)
    for name, value in fields.items():
        # Set as the dataclass's own __init__ sets them: writing __dict__
        # would give each view a dict of its own, about twice the memory,
        # and stop the class's later instances sharing their keys.
        object.__setattr__(d, name, value)
    return d


def _at_index(e: MsglenError, i: int) -> MsglenError:
    """e, reworded to name the dataset row it is about, with ``.index = i``."""
    err = type(e)(f"index {i}: {e}")
    err.index = i
    return err


def _own_datum(cls, i: int, *columns) -> tuple:
    """Row i's own datum of cls, as its entries of a dataset's columns: the
    reference that settles them.  A row no datum holds raises that datum's
    error, naming index i."""
    row = (c[i] if isinstance(c, tuple) else c[i].tolist() for c in columns)
    try:
        return astuple(cls(*row))
    except InvalidDatumError as e:
        raise _at_index(e, i) from e


def settle(columns: tuple, reference) -> tuple:
    """The columns, with every row that ``settled`` refuses answered by the
    per-datum path: ``reference(i)`` gives row i's entry of each column, or
    raises that row's own error.  Rows the columns settle keep their column
    answers.  The answered rows are written into copies, and a tuple column
    stays a tuple."""
    doubted = np.flatnonzero(~settled(*columns)).tolist()
    if not doubted:
        return columns
    out = [list(c) if isinstance(c, tuple) else c.copy() for c in columns]
    for i in doubted:
        for column, value in zip(out, reference(i)):
            column[i] = value
    return tuple(tuple(c) if isinstance(c, list) else c for c in out)


def each_value(fn, column, fill) -> list:
    """fn of every value of a column, in the form the per-value methods
    take: a float, a tuple of floats for a vector row, or an int.

    A value fn raises on gives ``fill``, which the caller picks so that the
    row counts as one the column forms cannot answer (NaN, a row of NaNs,
    or None for an int).  Such rows go to the per-datum path, which raises
    fn's own error for them; so any exception is caught here, and none is
    lost.
    """
    if isinstance(column, np.ndarray):
        column = map(tuple, column.tolist()) if column.ndim == 2 else column.tolist()
    out = []
    for v in column:
        try:
            out.append(fn(v))
        except Exception:
            out.append(fill)
    return out


def infer_default_aom(values) -> float:
    """Granularity of a column: smallest positive gap between distinct
    sorted values, floored at 1e-6 of the value range.

    Falls back to 1e-6 of the value scale when there are fewer than two
    distinct values (no gap to measure).  It is inf when even the smallest
    gap is past the float range.
    """
    # The positive steps of the sorted column are exactly the gaps between
    # adjacent distinct values, and its ends are the distinct ends.  (Not
    # np.unique, whose first call imports numpy.ma, about 10 ms.)
    xs = np.sort(np.asarray(values, dtype=np.float64))
    # A gap past the float range is inf; a step between two infs is NaN.
    with np.errstate(over="ignore", invalid="ignore"):
        steps = np.diff(xs)
    gaps = steps[steps > 0]
    if gaps.size:
        lo, hi = float(xs[0]), float(xs[-1])
        floor = 1e-6 * (hi - lo)
        if math.isinf(floor):  # the range itself is past the float range
            floor = 1e-6 * hi - 1e-6 * lo
        return max(float(gaps.min()), floor)
    scale = abs(float(xs[0])) if xs.size else 0.0
    return 1e-6 * max(1.0, scale)


def _cell(row: list[str], idx: int, rownum: int, colname: str) -> str:
    if idx >= len(row):
        raise CsvError(f"row {rownum}: missing value for column {colname!r}", row=rownum)
    return row[idx].strip()


def _parse_float(text: str, rownum: int, colname: str) -> float:
    try:
        v = float(text)
    except ValueError:
        raise CsvError(
            f"row {rownum}: cannot parse {text!r} in column {colname!r} as a number",
            row=rownum,
        ) from None
    if not math.isfinite(v):
        raise CsvError(f"row {rownum}: non-finite value in column {colname!r}", row=rownum)
    return v


def _parse_int(text: str, rownum: int, colname: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise CsvError(
            f"row {rownum}: cannot parse {text!r} in column {colname!r} as an integer",
            row=rownum,
        ) from None


def _parse_aom(text: str, rownum: int, colname: str) -> float:
    a = _parse_float(text, rownum, colname)
    if fault := aom_fault(a):
        raise CsvError(f"row {rownum}: AoM in column {colname!r} {fault}", row=rownum)
    return a


def read_header(lines) -> list[str] | None:
    """The stripped cells of the first CSV record of an iterator of lines,
    or None when there is none.  A record csv cannot split is a CsvError."""
    try:
        return [h.strip() for h in next(csv.reader(lines))]
    except StopIteration:
        return None
    except csv.Error as e:
        raise _unsplit("header row", e, None) from None


def _unsplit(where: str, e: csv.Error, row: int | None) -> CsvError:
    """A CsvError for a record csv cannot split (a bare carriage return, a
    field past ``csv.field_size_limit()``).  csv's hint after " - " is about
    how Python opens a file, which the reader of the error does not choose."""
    reason = str(e).partition(" - ")[0]
    return CsvError(f"{where}: cannot split into cells: {reason}", row=row)


def dataset_from_csv(source: str | TextIO, schema: Sequence[ColumnSpec]) -> DataSet:
    """Read delimited text (header row first) into a DataSet.

    The schema picks the columns to read and their kinds: one continuous
    column yields CtsDatum items, several yield VecDatum items, a single
    discrete column yields DiscreteDatum items.  Mixing kinds is not
    supported.  An empty stream yields an empty DataSet; a stream is read
    whole, then split into lines at LF (a CRLF line ends in LF too).

    Blank lines are skipped; row numbers count data rows only.  Columns
    are parsed whole in schema order, a data column before its AoM column,
    so of several bad cells the error names the first in that order, then
    by row.

    Continuous columns are parsed by numpy's C reader whenever it and csv
    split the text alike and every cell it reads is a valid value; any
    other text goes to the per-cell reader, which parses each cell on its
    own and raises every error.  Both give the same arrays.
    """
    specs, index, text = _open_csv(source, schema)
    loaded = _loaded_columns(specs, index, text)
    if loaded is None:
        return _read_cells(specs, index, text)
    return _continuous(specs, lambda name, parse: loaded[name])


def _dataset_by_cells(source: str | TextIO, schema: Sequence[ColumnSpec]) -> DataSet:
    """dataset_from_csv by the per-cell reader alone: the reference that
    numpy's reader must agree with."""
    return _read_cells(*_open_csv(source, schema))


def _open_csv(source, schema) -> tuple[tuple, dict | None, str | None]:
    """The checked schema, the header's column indices by name and the text
    after the header; the last two are None for an empty stream."""
    specs = tuple(schema)
    if not specs:
        raise SchemaError("schema must name at least one column")
    for s in specs:
        for field, (types, what) in _SPEC_FIELDS.items():
            if not isinstance(value := getattr(s, field), types):
                raise SchemaError(f"column {s.name!r}: {field} must be {what}, got {value!r}")
    kinds = {s.kind for s in specs}
    if not kinds <= {"cts", "discrete"}:
        raise SchemaError(f"unknown column kind in {sorted(kinds)}")
    if kinds == {"cts", "discrete"}:
        raise SchemaError("mixed continuous/discrete datasets are not supported")
    if "discrete" in kinds and len(specs) != 1:
        raise SchemaError("only a single discrete column is supported")
    for s in specs:
        if s.aom_col is not None and s.aom_const is not None:
            raise SchemaError(f"column {s.name!r}: give an AoM column or a constant, not both")
        if s.aom_const is not None and (fault := aom_fault(s.aom_const)):
            raise SchemaError(f"column {s.name!r}: constant AoM {fault}")

    lines = io.StringIO(source if isinstance(source, str) else source.read())
    header = read_header(lines)
    if header is None:
        return specs, None, None
    index = {name: i for i, name in enumerate(header)}
    for s in specs:
        if s.name not in index:
            raise SchemaError(f"column {s.name!r} not found in header {header}")
        if s.aom_col is not None and s.aom_col not in index:
            raise SchemaError(f"AoM column {s.aom_col!r} not found in header {header}")
    return specs, index, lines.read()


def _loaded_columns(specs, index, text) -> dict | None:
    """The continuous columns the schema reads, by name, as numpy's C reader
    parses them; None whenever it and the per-cell reader might disagree.

    Without a quote, a bare carriage return, a NUL or a line past csv's
    field limit, both split the text into the same lines and cells and skip
    the same empty lines; numpy raises on a whitespace-only line, which csv
    skips.  (csv before Python 3.11 refuses any NUL, where numpy reads it as
    a character.)  Any cell numpy cannot parse makes it raise, and a cell csv
    would reject as a value (not finite, or an AoM that ``aom_fault``
    refuses) fails ``settled`` after it.
    """
    if text is None or specs[0].kind != "cts":
        return None
    if '"' in text or "\0" in text or text.count("\r") != text.count("\r\n"):
        return None
    if _has_long_line(text, csv.field_size_limit()):
        return None
    names = {name for s in specs for name in (s.name, s.aom_col) if name is not None}
    usecols = sorted({index[name] for name in names})
    try:
        with warnings.catch_warnings():
            # A warning ("input contained no data", say) falls back too.
            warnings.simplefilter("error")
            table = np.loadtxt(
                io.StringIO(text), delimiter=",", comments=None, usecols=usecols, ndmin=2
            )
    except Exception:  # the per-cell reader says what is wrong
        return None
    columns = {name: table[:, usecols.index(index[name])] for name in names}
    if not all(settled(columns[s.name], columns.get(s.aom_col)).all() for s in specs):
        return None
    return columns


def _has_long_line(text: str, limit: int) -> bool:
    """Whether a line of text holds ``limit`` characters or more: it hops
    from line start to the last LF within the next ``limit`` characters."""
    start = 0
    while len(text) - start >= limit:
        end = text.rfind("\n", start, start + limit)
        if end < 0:
            return True
        start = end + 1
    return False


def _read_cells(specs, index, text) -> DataSet:
    """The dataset of the text after the header, each cell parsed on its own."""
    if text is None:
        return DataSet((), specs)
    rows = []
    try:
        for row in csv.reader(io.StringIO(text)):
            if "".join(row).strip():
                rows.append(row)
    except csv.Error as e:
        n = len(rows) + 1  # the data row csv could not split
        raise _unsplit(f"row {n}", e, n) from None

    def column(name: str, parse) -> list:
        """The named column's cells, parsed; row numbers count data rows."""
        j = index[name]
        return [parse(_cell(row, j, n, name), n, name) for n, row in enumerate(rows, 1)]

    if specs[0].kind == "discrete":
        s = specs[0]

        def bounded(text: str, rownum: int, colname: str) -> int:
            v = _parse_int(text, rownum, colname)
            if s.lo is not None and v < s.lo or s.hi is not None and v > s.hi:
                raise CsvError(
                    f"row {rownum}: value {v} outside bounds [{s.lo}, {s.hi}]", row=rownum
                )
            return v

        return DataSet.discrete(column(s.name, bounded), specs)
    return _continuous(specs, column)


def _continuous(specs, column) -> DataSet:
    """The dataset of continuous specs from ``column(name, parse)``, the named
    CSV column with each cell read by parse (a list of floats or a float64
    array).  Columns are read in schema order, a data column before its
    AoM column."""
    xs, aoms = [], []
    for s in specs:
        xs.append(column(s.name, _parse_float))
        if s.aom_col is not None:
            aoms.append(column(s.aom_col, _parse_aom))
        else:
            aom = s.aom_const if s.aom_const is not None else infer_default_aom(xs[-1])
            if aom_fault(aom):  # an inferred AoM; _open_csv checked the constant
                apart = "far apart" if math.isinf(aom) else "close together"
                raise SchemaError(
                    f"column {s.name!r}: its values are too {apart} to infer an AoM; "
                    "give one with --aom-col or --aom-const"
                )
            aoms.append(np.full(len(xs[-1]), aom))
    if len(specs) == 1:
        return DataSet.continuous(xs[0], aoms[0], specs)
    return DataSet.continuous(np.column_stack(xs), np.column_stack(aoms), specs)


def map_items(fn, ds: DataSet, rows=None) -> list:
    """fn of every item, or of the items at the indices ``rows``, in order.
    A DomainError, DegenerateTransformError or InvalidDatumError raised for
    an item names its index (``.index``)."""
    out = []
    for i, item in enumerate(ds) if rows is None else ((i, ds[i]) for i in rows):
        try:
            out.append(fn(item))
        except (DomainError, DegenerateTransformError, InvalidDatumError) as e:
            raise _at_index(e, i) from e
    return out


def map_dataset(ds: DataSet, f) -> DataSet:
    """Apply a function object to every row, AoMs included, by its column
    map (``f.map_col``).  The rows the column map leaves unsettled, and
    only those, are mapped by ``f.apply``, the per-datum reference, in the
    one ``settle`` of the mapped dataset's build; every other row keeps its
    column answer.

    The function's data kind must match the dataset's.  An element outside
    the function's domain raises a DomainError, one where it collapses
    measure a DegenerateTransformError, and one whose image or AoM
    overflows a float an InvalidDatumError; each names the index.
    """
    if len(ds) == 0:
        return DataSet((), ds.schema)
    from .functions import FUNCTION_CLASS

    if not isinstance(f, FUNCTION_CLASS[ds.kind]):
        raise TransformError(f"cannot map a {ds.kind} dataset with {type(f).__name__}")
    with np.errstate(all="ignore"):
        columns = f.map_col(*ds.columns)
    out = DataSet._of_columns(ds.schema)
    build = out._set_discrete if ds.kind == "discrete" else out._set_continuous
    # A row's mapped datum gives its entries of the columns (x and aom, or value).
    return build(*columns, reference=lambda i: astuple(*map_items(f.apply, ds, [i])))
