"""Estimators and two-part message-length accounting.

A fitted model is scored as a two-part message: msg1 nits to state the
estimated parameters, then msg2 nits to encode the data assuming the
model is true.  An estimator picks parameters to minimise msg1 + msg2;
minimising the total is what trades model complexity against fit.  When
parameters are given rather than estimated, msg1 is zero.

The Normal estimator follows the standard Wallace-Freeman construction:
the parameter statement cost is the negative log prior density plus half
the log determinant of the Fisher information, plus a quantisation term
from the two-dimensional lattice constant.  With a flat prior on the mean
and a 1/sigma prior on the scale, the minimising parameters are the
sample mean and the (N-1)-denominator standard deviation.

Estimators compose as models do.  Every estimator has one hook, the
model for the data, fitted or given, and every fit is that model scored
by ``data_costs``, as ``eval`` scores data.  A leaf estimator (normal,
multistate, bounded uniform) fits its family; a product fits each
component on its own column; a transformed family maps the data through
its function (AoMs included), fits the base family to the mapped data and
transforms the fitted model.  A transformed model costs a datum what its
base costs the mapped datum, up to rounding, so fitting then transforming
agrees with transforming then fitting on mapped data, and the total
message length of a dataset is unchanged by mapping it through an
invertible function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, EstimationError, ParameterError
from .functions import _real
from .models import (
    BoundedUniformModel,
    IndependentProductModel,
    Model,
    MultiStateModel,
    NormalModel,
)
from .values import DataSet, _at_index, map_dataset, map_items, settle

__all__ = [
    "LN_2",
    "KAPPA_2",
    "MULTISTATE_LATTICE_CONSTANT",
    "FitResult",
    "NormalPriors",
    "Estimator",
    "NormalEstimator",
    "MultiStateEstimator",
    "BoundedUniformEstimator",
    "IndependentProductEstimator",
    "TransformedEstimator",
]

LN_2 = math.log(2.0)

# Optimal two-dimensional quantising lattice constant, 5 / (36 sqrt 3).
KAPPA_2 = 5.0 / (36.0 * math.sqrt(3.0))

# The multistate statement cost is ((k-1)/2) ln(N / MULTISTATE_LATTICE_CONSTANT)
# plus the log volume ln(sqrt(k) / (k-1)!) of the probability simplex.
MULTISTATE_LATTICE_CONSTANT = 12.0


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


@dataclass(frozen=True)
class NormalPriors:
    """Prior choices for the Normal estimator.

    ``mu_range`` is the width of the uniform prior on the mean;
    ``sigma_bounds`` bound the 1/sigma prior on the scale.  Either may be
    None, in which case it is derived from the data: the mean range is the
    data range widened by 10 percent and the sigma bounds run from a tenth
    of the smallest AoM to ten times the data range.
    """

    mu_range: float | None = None
    sigma_bounds: tuple[float, float] | None = None

    def __post_init__(self) -> None:
        if self.mu_range is not None and _real("mu_range", self.mu_range) <= 0:
            raise ParameterError("mu_range must be positive")
        if self.sigma_bounds is not None:
            try:
                lo, hi = (_real("sigma_bounds", b) for b in self.sigma_bounds)
            except (TypeError, ValueError):
                raise ParameterError("sigma_bounds takes two numbers (lo, hi)") from None
            if not (0 < lo < hi):
                raise ParameterError("sigma_bounds must satisfy 0 < lo < hi")


class Estimator:
    """Maps datasets of the family's data space to fitted models.

    Every estimator supplies one hook, ``_model(ds, given)``: the model
    that minimises the message when ``given`` is None, else the given
    model restated with its msg1.  Both are scored by ``data_costs``, so
    fitted and alternative parameters compare on equal footing.  Given
    parameters reach the hook only as the model the family's
    ``parameterise`` built from them, so they are checked first.
    """

    def __init__(self, family, ps=None):
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
        if len(ds) == 0:
            raise EstimationError("cannot estimate from an empty dataset")
        if ds.kind != self.family.kind:
            raise EstimationError(
                f"{self.family.name} estimator needs {self.family.kind} data, got {ds.kind}"
            )
        try:
            model = self._model(ds, given)
        except (OverflowError, FloatingPointError):
            raise EstimationError(
                f"{self.family.name} cannot fit these data: the fit overflows a float"
            ) from None
        return FitResult(model, model.msg1, data_costs(model, ds)[1])

    def _model(self, ds: DataSet, given: Model | None) -> Model:
        raise NotImplementedError


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


class NormalEstimator(Estimator):
    """``ps`` is a NormalPriors; None resolves every prior from the data."""

    def _model(self, ds: DataSet, given: NormalModel | None) -> NormalModel:
        ps = self.ps or NormalPriors()
        xs, aoms = ds.x, ds.aom
        n = len(xs)
        span = float(xs.max()) - float(xs.min())
        min_aom = float(aoms.min())
        mu_range = ps.mu_range
        if mu_range is None:
            # Degenerate data has no range; fall back to the AoM scale.
            mu_range = max(1.1 * span, min_aom)
        if ps.sigma_bounds is not None:
            s_lo, s_hi = ps.sigma_bounds
        else:
            s_lo = min_aom / 10.0
            s_hi = 10.0 * max(span, min_aom)
        if given is None:
            # fsum over Python floats: exact sums, so the fit does not depend
            # on the order numpy would add in.
            mean = math.fsum(xs.tolist()) / n
            # As Python's ** does, a deviation whose square overflows raises.
            with np.errstate(over="raise"):
                ss = math.fsum(np.square(xs - mean).tolist())
            sd = math.sqrt(ss / (n - 1)) if n > 1 else 0.0
            # The AoM bounds the resolution of the data; an estimated sd below
            # the quantisation noise of the measurements is not supportable.
            sd = max(sd, (math.fsum(aoms.tolist()) / n) / math.sqrt(12.0))
            sd = min(max(sd, s_lo), s_hi)
        else:
            mean, sd = given.mean, given.sd
        neg_log_prior = math.log(mu_range) + math.log(sd) + math.log(math.log(s_hi / s_lo))
        half_log_fisher = 0.5 * math.log(2.0) + math.log(n) - 2.0 * math.log(sd)
        msg1 = max(0.0, neg_log_prior + half_log_fisher + 1.0 + math.log(KAPPA_2))
        return NormalModel(mean, sd, msg1=msg1)


class MultiStateEstimator(Estimator):
    def _model(self, ds: DataSet, given: MultiStateModel | None) -> MultiStateModel:
        lo, hi, k = self.family.lo, self.family.hi, self.family.size
        n = len(ds)
        if given is None:
            counts = [0] * k
            for i, v in enumerate(ds.values):
                if not lo <= v <= hi:
                    raise _at_index(DomainError(f"{v} is outside the data space [{lo}, {hi}]"), i)
                counts[v - lo] += 1
            probs = [(c + 0.5) / (n + 0.5 * k) for c in counts]
        else:
            probs = given.probs
        # In log space: (k-1)! overflows a float past k = 171.
        log_volume = 0.5 * math.log(k) - math.lgamma(k)
        cost = 0.5 * (k - 1) * math.log(n / MULTISTATE_LATTICE_CONSTANT) + log_volume
        return MultiStateModel(lo, hi, probs, msg1=max(0.0, cost))


class BoundedUniformEstimator(Estimator):
    """Nothing to estimate: the statistical parameters are trivial."""

    def _model(self, ds: DataSet, given: BoundedUniformModel | None) -> BoundedUniformModel:
        return BoundedUniformModel(self.family.lo, self.family.hi)


class IndependentProductEstimator(Estimator):
    """Fits each component family to its own column of the data.

    The columns are independent, so the product's msg1 is the sum of its
    components' msg1s, and its cost column the sum of their columns.
    """

    def __init__(self, family, ps=None):
        super().__init__(family, ps)
        dim = family.dim
        ps = (None,) * dim if ps is None else tuple(ps)
        if len(ps) != dim:
            raise EstimationError(f"{family.name} takes {dim} estimator parameter groups")
        self.parts = [c.estimator(p) for c, p in zip(family.components, ps)]

    def _model(self, ds: DataSet, given: IndependentProductModel | None) -> IndependentProductModel:
        dim = self.family.dim
        if ds.dim != dim:
            raise EstimationError(f"{self.family.name} needs {dim}-vectors, got {ds.dim}")
        parts_given = (None,) * dim if given is None else given.components
        parts = [
            part._model(DataSet.continuous(ds.x[:, j], ds.aom[:, j]), g)
            for j, (part, g) in enumerate(zip(self.parts, parts_given))
        ]
        # Left to right: sum() of floats compensates from Python 3.12 on.
        msg1 = 0.0
        for part in parts:
            msg1 += part.msg1
        return IndependentProductModel(parts, msg1)


class TransformedEstimator(Estimator):
    """Maps the data through the family's function, then fits the base family.

    The base fit reads the mapped AoMs for its priors and its sd floor.
    Mapping by an invertible function leaves the information content of the
    data unchanged, so msg1 is the base fit's, and msg2 the base model's
    cost of the mapped data, up to rounding.
    """

    def __init__(self, family, ps=None):
        super().__init__(family, ps)
        self.base = family.base.estimator(ps)

    def _model(self, ds: DataSet, given: Model | None) -> Model:
        f = self.family.f
        base_given = None if given is None else given.base
        return self.base._model(map_dataset(ds, f), base_given).transform(f)
