"""The estimator and two-part message-length accounting.

A fitted model is scored as a two-part message: msg1 nits to state the
estimated parameters, then msg2 nits to encode the data assuming the
model is true.  An estimator picks parameters to minimise msg1 + msg2;
minimising the total is what trades model complexity against fit.  When
parameters are given rather than estimated, msg1 is zero.

Each family fits itself through one hook, ``_model(ds, given, ps)`` (see
``models``), and one ``Estimator`` serves every family: it decides the
fit's parameters and refuses data the family cannot fit, then
``estimate`` and ``message_length`` ask the hook for the fitted or the
given model and score the data by ``data_costs``, as ``eval`` scores
data.  Fits compose as models do: a product fits each component on its
own column, and a transformed family maps the data through its function
(AoMs included), fits the base family to the mapped data and transforms
the fitted model.  A transformed model costs a datum what its base costs
the mapped datum, up to rounding, so fitting then transforming agrees
with transforming then fitting on mapped data, and the total message
length of a dataset is unchanged by mapping it through an invertible
function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError
from .models import Model
from .values import DataSet, map_items, settle

__all__ = ["LN_2", "FitResult", "Estimator"]

LN_2 = math.log(2.0)


@dataclass(frozen=True)
class FitResult:
    """A fitted model with its two-part message length, in nits."""

    model: Model
    msg1: float
    msg2: float

    def __post_init__(self) -> None:
        if not (self.msg1 >= 0.0):
            raise EstimationError(f"msg1 must be non-negative, got {self.msg1!r}")

    @property
    def msg(self) -> float:
        return self.msg1 + self.msg2

    def components(self) -> tuple[float, float, float]:
        """(msg1, msg2, msg)."""
        return (self.msg1, self.msg2, self.msg)

    def kv(self, bits: bool = False) -> dict:
        """Flat key/value report of the fit."""
        scale = 1.0 / LN_2 if bits else 1.0
        out = {"model": self.model.name}
        for k, v in self.model.params().items():
            out[f"param.{k}"] = v
        out["msg1"] = self.msg1 * scale
        out["msg2"] = self.msg2 * scale
        out["msg"] = self.msg * scale
        out["units"] = "bits" if bits else "nits"
        return out

    def text(self, bits: bool = False) -> str:
        """``kv`` as text: each parameter by its bare name, each number to
        12 significant digits, and the unit after each message length."""
        report = self.kv(bits)
        unit = report.pop("units")
        lines = [f"model: {report.pop('model')}"]
        for key, value in report.items():
            length_unit = f" {unit}" if key.startswith("msg") else ""
            lines.append(f"{key.removeprefix('param.')}: {value:.12g}{length_unit}")
        return "\n".join(lines)


class Estimator:
    """Maps datasets of the family's data space to fitted models.

    The estimator is the one place a fit's inputs are decided: ``ps`` is
    what the family's ``_resolve_ps`` made of the estimator parameters, and
    ``_scored`` refuses a dataset that is empty or not of the family's kind
    and dimension, before the hook sees it.  The family's ``_model(ds,
    given, ps)`` gives the model that minimises the message when ``given``
    is None, else the given model restated with its msg1.  Both are scored
    by ``data_costs``, so fitted and alternative parameters compare on
    equal footing.  Given parameters reach the hook only as the model the
    family's ``parameterise`` built from them, so they are checked first.
    """

    def __init__(self, family, ps):
        self.family = family
        self.ps = ps

    def estimate(self, ds: DataSet) -> FitResult:
        return self._scored(ds, None)

    def message_length(self, ds: DataSet, sp=()) -> tuple[float, float]:
        """(msg1, msg2) of stating the given parameters and then the data."""
        fit = self._scored(ds, self.family.parameterise(sp))
        return fit.msg1, fit.msg2

    def _scored(self, ds: DataSet, given: Model | None) -> FitResult:
        """The fitted (given None) or given model's two-part message for the data."""
        family = self.family
        if len(ds) == 0:
            raise EstimationError("cannot estimate from an empty dataset")
        if ds.kind != family.kind:
            raise EstimationError(
                f"{family.name} estimator needs {family.kind} data, got {ds.kind}"
            )
        if ds.kind == "vec" and ds.dim != family.dim:
            raise EstimationError(f"{family.name} needs {family.dim}-vectors, got {ds.dim}")
        try:
            model = family._model(ds, given, self.ps)
            if not math.isfinite(model.msg1):
                raise OverflowError
        except (OverflowError, FloatingPointError):
            raise EstimationError(
                f"{family.name} cannot fit these data: the fit overflows a float"
            ) from None
        return FitResult(model, model.msg1, data_costs(model, ds)[1])


def data_costs(model: Model, ds: DataSet) -> tuple[list[float], float]:
    """Each datum's cost under the model, in nits, and their total, msg2.
    Data of another kind raise a DomainError, and a datum the model cannot
    score raises an error naming its index.

    The costs are scored a column at a time (``model.nl_pr_col``) and come
    back as Python floats.  The total is inf when the costs are finite but
    their sum is past the float range."""
    if len(ds) == 0:
        return [], 0.0
    if ds.kind != model.kind:
        raise DomainError(f"{model.name} scores {model.kind} data, got {ds.kind}")
    with np.errstate(all="ignore"):
        costs = model.nl_pr_col(*ds.columns)
    # The per-datum nl_pr decides each row the columns could not score: it
    # raises the row's own error, naming the row, or gives its cost (which
    # may be infinite, as for a state of probability 0).
    costs = settle((costs,), lambda i: map_items(model.nl_pr, ds, [i]))[0].tolist()
    try:
        return costs, math.fsum(costs)
    except OverflowError:
        # Every cost is finite, and their sum is past the float range.
        return costs, math.inf
