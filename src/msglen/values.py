"""Measured data values and datasets.

A continuous measurement is never an exact real: it has a nominal value
``x`` and an accuracy of measurement (AoM) ``aom``, and denotes the
interval ``x ± aom/2``.  The finite AoM is what gives a continuous datum a
finite probability under a density model (``aom * pdf(x)``) and hence a
finite information cost in nits.  Multivariate data carry one AoM per
component; the product of the AoMs is the volume of the little box the
measurement pins down.

Datasets are immutable, homogeneous sequences of data.  ``map_dataset``
applies a function object elementwise using its AoM-propagating ``apply``,
so a mapped dataset keeps track of how the measurement intervals stretch
or shrink under the map.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass
from typing import Iterator, Sequence, TextIO

from .errors import (
    CsvError,
    DegenerateTransformError,
    DomainError,
    InvalidDatumError,
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
    if not math.isfinite(value):
        raise InvalidDatumError(f"{name} must be finite, got {value!r}")
    return float(value)


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


@dataclass(frozen=True)
class DataSet:
    """An immutable, homogeneous sequence of data items."""

    items: tuple = ()
    schema: tuple[ColumnSpec, ...] | None = None

    def __post_init__(self) -> None:
        items = tuple(self.items)
        if items:
            first = type(items[0])
            if first not in (CtsDatum, VecDatum, DiscreteDatum):
                raise InvalidDatumError(f"unsupported item type {first.__name__}")
            if any(type(it) is not first for it in items):
                raise InvalidDatumError("dataset items must all be the same kind")
            if first is VecDatum:
                dim = items[0].dim
                if any(it.dim != dim for it in items):
                    raise InvalidDatumError("vector data must share one dimension")
        object.__setattr__(self, "items", items)
        if self.schema is not None:
            object.__setattr__(self, "schema", tuple(self.schema))

    @property
    def kind(self) -> str:
        """One of "cts", "vec", "discrete" or "empty"."""
        if not self.items:
            return "empty"
        return {CtsDatum: "cts", VecDatum: "vec", DiscreteDatum: "discrete"}[
            type(self.items[0])
        ]

    def __len__(self) -> int:
        return len(self.items)

    def __iter__(self) -> Iterator:
        return iter(self.items)

    def __getitem__(self, i):
        return self.items[i]


def infer_default_aom(values: Sequence[float]) -> float:
    """Granularity of a column: smallest positive gap between distinct
    sorted values, floored at 1e-6 of the value range.

    Falls back to 1e-6 of the value scale when there are fewer than two
    distinct values (no gap to measure).
    """
    distinct = sorted(set(values))
    if len(distinct) >= 2:
        gap = min(b - a for a, b in zip(distinct, distinct[1:]))
        return max(gap, 1e-6 * (distinct[-1] - distinct[0]))
    scale = abs(distinct[0]) if distinct else 0.0
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

        return DataSet(tuple(map(DiscreteDatum, column(s.name, bounded))), specs)

    xs, aoms = [], []
    for s in specs:
        xs.append(column(s.name, _parse_float))
        if s.aom_col is not None:
            aoms.append(column(s.aom_col, _parse_aom))
        else:
            aom = s.aom_const if s.aom_const is not None else infer_default_aom(xs[-1])
            aoms.append([aom] * len(rows))
    # Free the raw cells before building the items, so the two are never held
    # together (a cold 10^5-row fit peaks about 3 MB lower).
    rows.clear()
    if len(specs) == 1:
        items = map(CtsDatum, xs[0], aoms[0])
    else:
        items = map(VecDatum, zip(*xs), zip(*aoms))
    return DataSet(tuple(items), specs)


def map_dataset(ds: DataSet, f) -> DataSet:
    """Apply a function object to every item, AoMs included.

    The function's data kind must match the dataset's.  An element outside
    the function's domain raises a DomainError, and one where it collapses
    measure a DegenerateTransformError; either names the index.
    """
    if len(ds) == 0:
        return DataSet((), ds.schema)
    from .functions import FUNCTION_CLASS

    expected = FUNCTION_CLASS[ds.kind]
    if not isinstance(f, expected):
        raise TransformError(
            f"cannot map a {ds.kind} dataset with {type(f).__name__}"
        )
    out = []
    for i, item in enumerate(ds):
        try:
            out.append(f.apply(item))
        except DomainError as e:
            raise DomainError(f"index {i}: {e}", index=i) from e
        except DegenerateTransformError as e:
            raise DegenerateTransformError(f"index {i}: {e}") from e
    return DataSet(tuple(out), ds.schema)
