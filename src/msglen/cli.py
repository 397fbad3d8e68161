"""Command line front end.

Subcommands::

    msglen fit    MODEL [CSV]  fit a model family to CSV data
    msglen eval   MODEL [CSV]  per-datum and total cost of data under a model
    msglen sample MODEL N      draw N rows from a parameterised model
    msglen check  SUITE        run one of the built-in invariance suites

MODEL is an expression such as ``normal``, ``uniform:0:3``,
``multistate:0:1``, ``rd:normal^2``, optionally parameterised
(``normal(0,1)``) and transformed (``normal.transform(log)``).  CSV is a
path or ``-`` for stdin; a header row is required.

Exit codes: 0 success, 1 usage or parse error (or stdout closed early,
silently), 2 data or domain error, 3 a check suite failed.
"""

from __future__ import annotations

import argparse
import csv
import io
import math
import os
import sys
from collections.abc import Iterable
from itertools import chain, islice

import numpy as np

from . import functions as fn
from . import models
from .checks import SUITES
from .errors import CsvError, DomainError, ModelExprError, MsglenError
from .estimation import LN_2, data_costs
from .models import DEFAULT_SAMPLE_AOM, Model, UPModel
from .values import ColumnSpec, CtsDatum, DataSet, dataset_from_csv

USAGE_ERROR = 1
DATA_ERROR = 2
CHECK_FAILED = 3
BROKEN_PIPE = 1

# The most values ``sample`` draws (rows times the dimension): the draws are
# held as float64 columns (a tuple of ints for discrete data) until all
# succeed, so memory grows with the count.
MAX_SAMPLE_COUNT = 10**6


# ---------------------------------------------------------------------------
# Model expressions
# ---------------------------------------------------------------------------


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def peek(self) -> str:
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def take(self, literal: str) -> bool:
        if self.text.startswith(literal, self.pos):
            self.pos += len(literal)
            return True
        return False

    def expect(self, literal: str) -> None:
        if not self.take(literal):
            raise ModelExprError(f"expected {literal!r}", pos=self.pos)

    def ident(self) -> str:
        start = self.pos
        while (c := self.peek()) and (c.isalnum() or c == "_"):
            self.pos += 1
        if self.pos == start:
            raise ModelExprError("expected a name", pos=start)
        return self.text[start:self.pos]

    def integer(self) -> int:
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        while self.peek().isdigit():
            self.pos += 1
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            raise ModelExprError("expected an integer", pos=start) from None

    def number(self) -> float:
        start = self.pos
        if self.peek() in ("+", "-"):
            self.pos += 1
        while (c := self.peek()) and (c.isdigit() or c in ".eE"):
            if c in "eE" and self.text[self.pos + 1 : self.pos + 2] in ("+", "-"):
                self.pos += 1
            self.pos += 1
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            raise ModelExprError("expected a number", pos=start) from None

    def number_list(self) -> list[float]:
        out = [self.number()]
        while self.take(","):
            out.append(self.number())
        return out


def _parse_base(sc: _Scanner) -> UPModel:
    name = sc.ident()
    if name == "normal":
        return models.normal
    if name in ("uniform", "multistate"):
        sc.expect(":")
        lo = sc.integer()
        sc.expect(":")
        hi = sc.integer()
        return models.bounded_uniform(lo, hi) if name == "uniform" else models.multistate(lo, hi)
    if name == "rd":
        sc.expect(":")
        inner = sc.ident()
        if inner != "normal":
            raise ModelExprError(f"unknown component family {inner!r}", pos=sc.pos)
        sc.expect("^")
        # A generator: the family reads at most models.MAX_DIM + 1 components,
        # and range (unlike itertools.repeat) takes a count past 2^63.
        return models.independent_rd(models.normal for _ in range(sc.integer()))
    raise ModelExprError(f"unknown model family {name!r}", pos=sc.pos)


def _parse_params(sc: _Scanner, family: UPModel):
    """The parenthesised statistical parameters, shaped for the family."""
    if isinstance(family, models.IndependentProductFamily):
        groups = [tuple(sc.number_list())]
        while sc.take(";"):
            groups.append(tuple(sc.number_list()))
        if len(groups) != family.dim:
            raise ModelExprError(
                f"{family.name} needs {family.dim} groups 'mean,sd' separated by ';'",
                pos=sc.pos,
            )
        return tuple(groups)
    if isinstance(family, models.BoundedUniformFamily):
        return ()
    return tuple(sc.number_list())


def _parse_function(sc: _Scanner, family: UPModel):
    """The function named in ``.transform(...)``; whether it can transform
    the family is for ``family.transform`` to check."""
    name = sc.ident()
    args: list[float] = []
    if sc.take("("):
        if not sc.take(")"):
            args = sc.number_list()
            sc.expect(")")
    pos = sc.pos
    if name in fn.LIBRARY:
        if args:
            raise ModelExprError(f"{name} takes no arguments", pos=pos)
        return fn.LIBRARY[name]
    if name == "linear":
        if len(args) != 2:
            raise ModelExprError("linear takes (a,b)", pos=pos)
        return fn.linear(args[0], args[1])
    if name == "permute":
        return fn.ComponentPermutation(args)
    # The permutations of a discrete space take the family's bounds.
    if name == "reverse" and family.kind == "discrete":
        if args:
            raise ModelExprError("reverse takes no arguments", pos=pos)
        return fn.ReversePermutation(family.lo, family.hi)
    if name == "rotate" and family.kind == "discrete":
        if len(args) != 1:
            raise ModelExprError("rotate takes (k)", pos=pos)
        return fn.Rotation(family.lo, family.hi, args[0])
    needed = fn.FUNCTION_CLASS[family.kind].__name__
    raise ModelExprError(f"unknown function {name!r} ({family.name} needs a {needed})", pos=pos)


def parse_model_expr(text: str) -> UPModel | Model:
    """Parse a model expression to a family or, with parameters, a model.
    An error from a family, model or function constructor is reported as a
    ModelExprError at the position the parser had reached."""
    sc = _Scanner(text.strip())
    try:
        family = _parse_base(sc)
        sp = None
        if sc.take("("):
            sp = _parse_params(sc, family)
            sc.expect(")")
        while sc.take(".transform("):
            f = _parse_function(sc, family)
            sc.expect(")")
            family = family.transform(f)
        if sc.pos != len(sc.text):
            raise ModelExprError(f"unexpected trailing {sc.text[sc.pos:]!r}", pos=sc.pos)
        return family if sp is None else family.parameterise(sp)
    except ModelExprError:
        raise
    except MsglenError as e:
        raise ModelExprError(str(e), pos=sc.pos) from e


def _require_model(target: UPModel | Model) -> Model:
    """A parameterised model; families with trivial parameters qualify."""
    if isinstance(target, Model):
        return target
    try:
        return target.parameterise(())
    except MsglenError:
        raise ModelExprError(
            f"{target.name} needs explicit parameters, e.g. normal(0,1)"
        ) from None


# ---------------------------------------------------------------------------
# CSV schema from flags
# ---------------------------------------------------------------------------


def _read_source(path: str) -> str:
    """The whole CSV text of a path, or of stdin for ``-``."""
    name = "stdin" if path == "-" else path
    try:
        if path == "-":
            text = sys.stdin.read()
            # stdin may decode with surrogateescape, which turns bytes that are
            # not UTF-8 into lone surrogates; those do not encode back.
            text.encode("utf-8")
            return text
        with open(path, "r", encoding="utf-8", newline="") as handle:
            return handle.read()
    except OSError as e:
        raise CsvError(f"cannot read {name}: {e.strerror or e}") from e
    except UnicodeDecodeError as e:
        raise CsvError(f"cannot read {name}: not UTF-8 text (byte {e.start})") from e
    except UnicodeEncodeError as e:
        raise CsvError(f"cannot read {name}: not UTF-8 text (character {e.start})") from e


def _build_schema(args, target: UPModel | Model, text: str) -> list[ColumnSpec]:
    ncols = target.dim if target.kind == "vec" else 1
    aom_cols = list(args.aom_col or [])
    if args.col:
        names = list(args.col)
    else:
        header = next(csv.reader(io.StringIO(text)), [])
        names = [h for h in map(str.strip, header) if h not in aom_cols][:ncols]
    if len(names) != ncols:
        raise ModelExprError(
            f"{getattr(target, 'name', target)} needs {ncols} data column(s); "
            f"select them with --col"
        )
    if aom_cols and len(aom_cols) != ncols:
        raise ModelExprError(f"--aom-col must be given once per data column ({ncols})")

    specs = []
    for j, name in enumerate(names):
        if target.kind == "discrete":
            specs.append(ColumnSpec(name, kind="discrete", lo=target.lo, hi=target.hi))
        else:
            specs.append(
                ColumnSpec(
                    name,
                    kind="cts",
                    aom_col=aom_cols[j] if aom_cols else None,
                    aom_const=args.aom_const,
                )
            )
    return specs


def _read_dataset(args, target: UPModel | Model) -> DataSet:
    """The CSV data for target, read as its flags say.  One continuous column
    read for a vector target (dimension 1) becomes 1-vectors."""
    text = _read_source(args.csv)
    ds = dataset_from_csv(text, _build_schema(args, target, text))
    if target.kind == "vec" and ds.kind == "cts":
        ds = DataSet.continuous(ds.x.reshape(-1, 1), ds.aom.reshape(-1, 1), ds.schema)
    return ds


# ---------------------------------------------------------------------------
# Commands
# ---------------------------------------------------------------------------


# Lines per stdout write in _emit and _write_sample: one write per line is
# slow into a pipe, and one write of every line at once holds the whole text
# in memory.
_EMIT_BLOCK = 1024


def _line(key: str, value: object, fmt: str) -> str:
    if fmt == "kv":
        return f"{key}={value!r}\n" if isinstance(value, float) else f"{key}={value}\n"
    text = f"{value:.12g}" if isinstance(value, float) else str(value)
    return f"{key}: {text}\n"


def _emit(pairs: Iterable[tuple[str, object]], fmt: str) -> None:
    rest = iter(pairs)
    while block := list(islice(rest, _EMIT_BLOCK)):
        sys.stdout.write("".join(_line(key, value, fmt) for key, value in block))


def cmd_fit(args) -> int:
    target = parse_model_expr(args.model)
    if isinstance(target, Model):
        raise ModelExprError("fit takes an unparameterised model; drop the parameters")
    ds = _read_dataset(args, target)
    result = target.estimator().estimate(ds)
    if args.format == "kv":
        _emit(list(result.kv(bits=args.bits).items()), "kv")
    else:
        print(result.text(bits=args.bits))
    return 0


def _real_costs(
    model: Model, ds: DataSet, verb: str, bits: bool = False
) -> tuple[list[float], float]:
    """data_costs of ds under model, in bits or nits, checked in that unit
    before anything is written: a total that is not finite is not a real
    code length, so it is a DomainError.  It names the first row whose cost
    is not finite, or says that every cost is finite but their sum is past
    the float range.  ``verb`` says what the model did with the rows."""
    costs, total = data_costs(model, ds)
    unit = "nits"
    if bits:
        # A finite cost in nits can be past the float range in bits.
        scale, unit = 1.0 / LN_2, "bits"
        costs, total = [cost * scale for cost in costs], total * scale
    if math.isfinite(total):
        return costs, total
    for i, cost in enumerate(costs):
        if not math.isfinite(cost):
            raise DomainError(f"index {i}: {model.name} {verb} a row that costs {cost!r} {unit}")
    raise DomainError(f"{model.name} {verb} rows whose costs sum past the float range")


def cmd_eval(args) -> int:
    target = _require_model(parse_model_expr(args.model))
    ds = _read_dataset(args, target)
    costs, total = _real_costs(target, ds, "scored", args.bits)
    per_datum = ((f"nlpr.{i}", nl) for i, nl in enumerate(costs))
    summary = [
        ("count", len(ds)),
        ("total", total),
        ("units", "bits" if args.bits else "nits"),
    ]
    _emit(chain(per_datum, summary), args.format)
    return 0


def _draw_sample(model: Model, seed: int, count: int, aom: float):
    """count draws from model at seed, as one column (see Model.random_col),
    each checked as the datum it becomes with the AoM aom.  A draw that
    fails, or is not a valid datum, raises what drawing one datum at a time
    raises for it.  The rows are then scored and checked as ``eval`` scores
    and checks them, so a row the model cannot score, or one that costs an
    infinite length, is an error too."""
    try:
        if count and model.kind != "discrete":
            CtsDatum(1.0, aom)  # a bad AoM fails before the column is drawn
        drawn = model.random_col(np.random.default_rng(seed), count)
        if model.kind == "discrete":
            ds = DataSet.discrete(drawn)
        else:
            ds = DataSet.continuous(drawn, np.broadcast_to(aom, drawn.shape))
    except MsglenError:
        # The per-draw sample from the same seed is the reference: it fails
        # at the first draw that fails, with that draw's own error.
        rng = np.random.default_rng(seed)
        for _ in range(count):
            model.random(rng, aom=aom)
        raise
    _real_costs(model, ds, "drew")
    return drawn


def _write_sample(model: Model, drawn, aom: float) -> None:
    """Write the sample CSV to stdout: the header, then the rows of a drawn
    column, _EMIT_BLOCK rows at a time.  Every continuous row ends in the
    same AoM, formatted once."""
    if model.kind == "discrete":
        header, cells, text, tail = "x", drawn, str, "\n"
    elif model.kind == "cts":
        header, cells, text, tail = "x,aom", drawn.tolist(), repr, f",{aom!r}\n"
    else:
        d = model.dim
        header = ",".join([f"x{j + 1}" for j in range(d)] + [f"aom{j + 1}" for j in range(d)])
        cells, tail = drawn.tolist(), f",{aom!r}" * d + "\n"

        def text(row: list) -> str:
            return ",".join(map(repr, row))

    sys.stdout.write(header + "\n")
    for start in range(0, len(cells), _EMIT_BLOCK):
        sys.stdout.write(tail.join(map(text, cells[start : start + _EMIT_BLOCK])) + tail)


def cmd_sample(args) -> int:
    target = _require_model(parse_model_expr(args.model))
    dim = target.dim if target.kind == "vec" else 1
    if not 0 <= args.count * dim <= MAX_SAMPLE_COUNT:
        raise ModelExprError(
            f"sample draws 0 to {MAX_SAMPLE_COUNT} values (rows x dimension), "
            f"got {args.count} x {dim}"
        )
    if args.seed < 0:
        raise ModelExprError(f"--seed takes a non-negative integer, got {args.seed}")
    # Every draw is made and checked before any row is written, so a failed
    # draw leaves stdout empty rather than holding a truncated sample.
    drawn = _draw_sample(target, args.seed, args.count, args.sample_aom)
    _write_sample(target, drawn, args.sample_aom)
    return 0


def cmd_check(args) -> int:
    results = SUITES[args.suite]()
    failed = 0
    for r in results:
        mark = "ok  " if r.passed else "FAIL"
        print(f"{mark} {r.name}: {r.detail}")
        failed += 0 if r.passed else 1
    print(f"{args.suite}: {len(results) - failed}/{len(results)} passed")
    return 0 if failed == 0 else CHECK_FAILED


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ModelExprError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="msglen", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("csv", nargs="?", default="-", help="CSV path, or - for stdin")
        p.add_argument("--col", action="append", help="data column name (repeatable)")
        p.add_argument("--aom-col", action="append", help="AoM column name (repeatable)")
        p.add_argument("--aom-const", type=float, help="constant AoM for all data columns")
        p.add_argument("--bits", action="store_true", help="report in bits, not nits")
        p.add_argument("--format", choices=("text", "kv"), default="text")

    p_fit = sub.add_parser("fit", help="fit a model family to CSV data")
    p_fit.add_argument("model", help='e.g. "normal.transform(log)"')
    add_data_flags(p_fit)
    p_fit.set_defaults(func=cmd_fit)

    p_eval = sub.add_parser("eval", help="score data under a parameterised model")
    p_eval.add_argument("model", help='e.g. "normal(0,1)"')
    add_data_flags(p_eval)
    p_eval.set_defaults(func=cmd_eval)

    p_sample = sub.add_parser("sample", help="draw rows from a parameterised model")
    p_sample.add_argument("model", help='e.g. "normal(0,1).transform(log)"')
    p_sample.add_argument("count", type=int, help="number of rows")
    p_sample.add_argument("--seed", type=int, default=0)
    p_sample.add_argument(
        "--sample-aom",
        type=float,
        default=DEFAULT_SAMPLE_AOM,
        help="AoM attached to continuous draws",
    )
    p_sample.set_defaults(func=cmd_sample)

    p_check = sub.add_parser("check", help="run an invariance suite")
    p_check.add_argument("suite", choices=sorted(SUITES))
    p_check.set_defaults(func=cmd_check)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader has gone (``| head``).  Point stdout at devnull so the
        # flush at exit does not fail again, and exit without a traceback.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return BROKEN_PIPE
    except MsglenError as e:
        print(f"error: {e}", file=sys.stderr)
        return USAGE_ERROR if isinstance(e, ModelExprError) else DATA_ERROR


if __name__ == "__main__":
    sys.exit(main())
