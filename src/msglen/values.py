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
import reprlib
from dataclasses import dataclass
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

    Denotes the interval ``x ± aom/2``; ``aom`` must be positive and is in
    the same units as ``x``.
    """

    x: float
    aom: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "x", _require_finite("x", self.x))
        aom = _require_finite("aom", self.aom)
        if aom <= 0.0:
            raise InvalidDatumError(f"aom must be positive, got {aom!r}")
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
        if any(a <= 0.0 for a in aoms):
            raise InvalidDatumError("every aom must be positive")
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
        ds = cls._of_columns(schema)
        ds._set_continuous(x, aom)
        return ds

    @classmethod
    def discrete(cls, values, schema=None) -> "DataSet":
        """A dataset of the integer column ``values``."""
        ds = cls._of_columns(schema)
        ds._set_discrete(tuple(values))
        return ds

    @classmethod
    def _of_columns(cls, schema) -> "DataSet":
        ds = cls.__new__(cls)
        ds.schema = None if schema is None else tuple(schema)
        ds._items = None
        return ds

    def _set_empty(self) -> None:
        self.kind, self.x, self.aom, self.values = "empty", None, None, None

    def _set_continuous(self, x, aom) -> None:
        try:
            x = np.array(x, dtype=np.float64)
            aom = np.array(aom, dtype=np.float64)
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
        bad = np.flatnonzero(~settled(x, aom))
        if bad.size:
            # The row's own datum says what is wrong with it.
            i = int(bad[0])
            try:
                (CtsDatum if x.ndim == 1 else VecDatum)(x[i].tolist(), aom[i].tolist())
            except InvalidDatumError as e:
                raise _at_index(e, i) from e
        x.flags.writeable = aom.flags.writeable = False
        self.kind = "cts" if x.ndim == 1 else "vec"
        self.x, self.aom, self.values = x, aom, None

    def _set_discrete(self, values: tuple) -> None:
        if not values:
            return self._set_empty()
        for i, v in enumerate(values):
            if not isinstance(v, int):
                try:
                    DiscreteDatum(v)
                except InvalidDatumError as e:
                    raise _at_index(e, i) from e
        self.kind, self.x, self.aom, self.values = "discrete", None, None, values

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


def settled(column, aom=None) -> np.ndarray:
    """One bool per row: whether the column forms settled it.  A row of a
    tuple column is settled when it is not None; a row of a float column,
    (N,) or (N, D), when its values are finite and its AoMs (``aom``, when
    given) finite and positive, the rule a dataset validates its rows by."""
    if isinstance(column, tuple):
        return np.array([k is not None for k in column], dtype=bool)
    ok = np.isfinite(column)
    if aom is not None:
        ok &= np.isfinite(aom) & (aom > 0.0)
    return ok if ok.ndim == 1 else ok.all(axis=1)


def each_value(fn, column, fill) -> list:
    """fn of every value of a column, in the form the per-value methods
    take: a float, a tuple of floats for a vector row, or an int.

    A value fn raises on gives ``fill``, which the caller picks so that the
    row counts as one the column forms cannot answer (NaN, or False for a
    membership test).  Such rows go to the per-datum path, which raises
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
    distinct = np.unique(np.asarray(values, dtype=np.float64))
    if distinct.size >= 2:
        with np.errstate(over="ignore"):  # a gap past the float range is inf
            gap = float(np.diff(distinct).min())
        lo, hi = float(distinct[0]), float(distinct[-1])
        floor = 1e-6 * (hi - lo)
        if math.isinf(floor):  # the range itself is past the float range
            floor = 1e-6 * hi - 1e-6 * lo
        return max(gap, floor)
    scale = abs(float(distinct[0])) if distinct.size else 0.0
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
    if a <= 0:
        raise CsvError(f"row {rownum}: AoM in column {colname!r} must be positive", row=rownum)
    return a


def dataset_from_csv(source: str | TextIO, schema: Sequence[ColumnSpec]) -> DataSet:
    """Read delimited text (header row first) into a DataSet.

    The schema picks the columns to read and their kinds: one continuous
    column yields CtsDatum items, several yield VecDatum items, a single
    discrete column yields DiscreteDatum items.  Mixing kinds is not
    supported.  An empty stream yields an empty DataSet.

    Blank lines are skipped; row numbers count data rows only.  Columns
    are parsed whole in schema order, a data column before its AoM column,
    so of several bad cells the error names the first in that order, then
    by row.
    """
    specs = tuple(schema)
    if not specs:
        raise SchemaError("schema must name at least one column")
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
        if s.aom_const is not None and not (
            math.isfinite(s.aom_const) and s.aom_const > 0
        ):
            raise SchemaError(f"column {s.name!r}: constant AoM must be positive")

    stream = io.StringIO(source) if isinstance(source, str) else source
    reader = csv.reader(stream)
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        return DataSet((), specs)

    index = {name: i for i, name in enumerate(header)}
    for s in specs:
        if s.name not in index:
            raise SchemaError(f"column {s.name!r} not found in header {header}")
        if s.aom_col is not None and s.aom_col not in index:
            raise SchemaError(f"AoM column {s.aom_col!r} not found in header {header}")

    rows = [row for row in reader if "".join(row).strip()]

    def column(name: str, parse) -> list:
        """The named column's cells, parsed; row numbers count data rows."""
        j = index[name]
        return [parse(_cell(row, j, n, name), n, name) for n, row in enumerate(rows, 1)]

    if kinds == {"discrete"}:
        s = specs[0]

        def bounded(text: str, rownum: int, colname: str) -> int:
            v = _parse_int(text, rownum, colname)
            if s.lo is not None and v < s.lo or s.hi is not None and v > s.hi:
                raise CsvError(
                    f"row {rownum}: value {v} outside bounds [{s.lo}, {s.hi}]", row=rownum
                )
            return v

        return DataSet.discrete(column(s.name, bounded), specs)

    xs, aoms = [], []
    for s in specs:
        xs.append(column(s.name, _parse_float))
        if s.aom_col is not None:
            aoms.append(column(s.aom_col, _parse_aom))
        else:
            aom = s.aom_const if s.aom_const is not None else infer_default_aom(xs[-1])
            if math.isinf(aom):
                raise SchemaError(
                    f"column {s.name!r}: its values are too far apart to infer an AoM; "
                    "give one with --aom-col or --aom-const"
                )
            aoms.append([aom] * len(rows))
    # Free the raw cells before building the columns, so the two are never
    # held together.
    rows.clear()
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
    map (``f.map_col``); ``f.apply`` decides each row that is not settled.

    The function's data kind must match the dataset's.  An element outside
    the function's domain raises a DomainError, one where it collapses
    measure a DegenerateTransformError, and one whose image or AoM
    overflows a float an InvalidDatumError; each names the index.
    """
    if len(ds) == 0:
        return DataSet((), ds.schema)
    from .functions import FUNCTION_CLASS

    expected = FUNCTION_CLASS[ds.kind]
    if not isinstance(f, expected):
        raise TransformError(
            f"cannot map a {ds.kind} dataset with {type(f).__name__}"
        )
    with np.errstate(all="ignore"):
        columns = f.map_col(*ds.columns)
    doubted = np.flatnonzero(~settled(*columns)).tolist()
    if doubted:
        # The per-datum map is the reference: the first of these rows that it
        # rejects raises its own error, naming the row.  Should it reject none,
        # it maps the whole dataset.
        map_items(f.apply, ds, doubted)
        return DataSet(map_items(f.apply, ds), ds.schema)
    build = DataSet.discrete if ds.kind == "discrete" else DataSet.continuous
    return build(*columns, ds.schema)
