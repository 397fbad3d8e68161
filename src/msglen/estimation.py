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

A transformed family estimates by mapping the data through its function
(AoMs included) and handing the result to the base family's estimator;
the fitted base model is then wrapped back up.  Built this way, fitting
then transforming agrees with transforming then fitting on mapped data,
and the total message length of a dataset is unchanged by mapping it
through an invertible function.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import DomainError, EstimationError, ParameterError
from .models import (
    BoundedUniformModel,
    IndependentProductModel,
    Model,
    MultiStateModel,
    NormalModel,
)
from .values import CtsDatum, DataSet, map_dataset

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
# plus the log volume sqrt(k) / (k-1)! of the probability simplex.
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
        unit = "bits" if bits else "nits"
        scale = 1.0 / LN_2 if bits else 1.0
        lines = [f"model: {self.model.name}"]
        for k, v in self.model.params().items():
            lines.append(f"{k}: {v:.12g}")
        lines.append(f"msg1: {self.msg1 * scale:.12g} {unit}")
        lines.append(f"msg2: {self.msg2 * scale:.12g} {unit}")
        lines.append(f"msg: {self.msg * scale:.12g} {unit}")
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
        if self.mu_range is not None and self.mu_range <= 0:
            raise ParameterError("mu_range must be positive")
        if self.sigma_bounds is not None:
            lo, hi = self.sigma_bounds
            if not (0 < lo < hi):
                raise ParameterError("sigma_bounds must satisfy 0 < lo < hi")


class Estimator:
    """Maps datasets of the family's data space to fitted models.

    A subclass supplies ``_fit``, the model that minimises the message, and
    ``_model``, the model for given statistical parameters; each returns a
    model carrying its msg1.  Both messages then encode the data the same
    way, so fitted and alternative parameters compare on equal footing.
    """

    def __init__(self, family, ps=None):
        self.family = family
        self.ps = ps

    def _check(self, ds: DataSet) -> None:
        if len(ds) == 0:
            raise EstimationError("cannot estimate from an empty dataset")
        if ds.kind != self.family.kind:
            raise EstimationError(
                f"{self.family.name} estimator needs {self.family.kind} data, got {ds.kind}"
            )

    def estimate(self, ds: DataSet) -> FitResult:
        self._check(ds)
        try:
            model = self._fit(ds)
        except OverflowError:
            raise EstimationError(
                f"{self.family.name} cannot fit these data: the fit overflows a float"
            ) from None
        return _scored(model, ds)

    def message_length(self, ds: DataSet, sp=()) -> tuple[float, float]:
        """(msg1, msg2) of stating the given parameters and then the data."""
        self._check(ds)
        fit = _scored(self._model(ds, sp), ds)
        return fit.msg1, fit.msg2

    def _fit(self, ds: DataSet) -> Model:
        raise NotImplementedError

    def _model(self, ds: DataSet, sp) -> Model:
        raise NotImplementedError


def data_costs(model: Model, ds: DataSet) -> tuple[list[float], float]:
    """Each datum's cost under the model, in nits, and their total, msg2."""
    costs = [model.nl_pr(d) for d in ds]
    return costs, math.fsum(costs)


def _scored(model: Model, ds: DataSet) -> FitResult:
    """The model's two-part message for the data."""
    return FitResult(model, model.msg1, data_costs(model, ds)[1])


class NormalEstimator(Estimator):
    def __init__(self, family, ps: NormalPriors | None = None):
        super().__init__(family, ps or NormalPriors())

    def _resolved_priors(self, ds: DataSet) -> tuple[float, float, float]:
        xs = [d.x for d in ds]
        aoms = [d.aom for d in ds]
        span = max(xs) - min(xs)
        mu_range = self.ps.mu_range
        if mu_range is None:
            # Degenerate data has no range; fall back to the AoM scale.
            mu_range = max(1.1 * span, min(aoms))
        if self.ps.sigma_bounds is not None:
            s_lo, s_hi = self.ps.sigma_bounds
        else:
            s_lo = min(aoms) / 10.0
            s_hi = 10.0 * max(span, min(aoms))
        return mu_range, s_lo, s_hi

    def _msg1(self, sigma: float, n: int, mu_range: float, s_lo: float, s_hi: float) -> float:
        neg_log_prior = (
            math.log(mu_range) + math.log(sigma) + math.log(math.log(s_hi / s_lo))
        )
        half_log_fisher = 0.5 * math.log(2.0) + math.log(n) - 2.0 * math.log(sigma)
        return max(0.0, neg_log_prior + half_log_fisher + 1.0 + math.log(KAPPA_2))

    def _fit(self, ds: DataSet) -> NormalModel:
        xs = [d.x for d in ds]
        aoms = [d.aom for d in ds]
        n = len(xs)
        mean = math.fsum(xs) / n
        ss = math.fsum((x - mean) ** 2 for x in xs)
        sd = math.sqrt(ss / (n - 1)) if n > 1 else 0.0
        # The AoM bounds the resolution of the data; an estimated sd below
        # the quantisation noise of the measurements is not supportable.
        sd = max(sd, (math.fsum(aoms) / n) / math.sqrt(12.0))
        mu_range, s_lo, s_hi = self._resolved_priors(ds)
        sd = min(max(sd, s_lo), s_hi)
        return NormalModel(mean, sd, msg1=self._msg1(sd, n, mu_range, s_lo, s_hi))

    def _model(self, ds: DataSet, sp) -> NormalModel:
        mean, sd = sp
        mu_range, s_lo, s_hi = self._resolved_priors(ds)
        return NormalModel(mean, sd, msg1=self._msg1(sd, len(ds), mu_range, s_lo, s_hi))


class MultiStateEstimator(Estimator):
    def _counts(self, ds: DataSet) -> list[int]:
        lo, hi = self.family.lo, self.family.hi
        counts = [0] * (hi - lo + 1)
        for d in ds:
            if not lo <= d.value <= hi:
                raise DomainError(f"{d.value} is outside the data space [{lo}, {hi}]")
            counts[d.value - lo] += 1
        return counts

    def _msg1(self, n: int) -> float:
        k = self.family.size
        if k == 1:
            return 0.0
        volume = math.sqrt(k) / math.factorial(k - 1)
        cost = 0.5 * (k - 1) * math.log(n / MULTISTATE_LATTICE_CONSTANT) + math.log(volume)
        return max(0.0, cost)

    def _fit(self, ds: DataSet) -> MultiStateModel:
        counts = self._counts(ds)
        n = len(ds)
        k = self.family.size
        probs = [(c + 0.5) / (n + 0.5 * k) for c in counts]
        return self._model(ds, probs)

    def _model(self, ds: DataSet, sp) -> MultiStateModel:
        return MultiStateModel(self.family.lo, self.family.hi, sp, msg1=self._msg1(len(ds)))


class BoundedUniformEstimator(Estimator):
    """Nothing to estimate: the statistical parameters are trivial."""

    def _fit(self, ds: DataSet) -> BoundedUniformModel:
        return BoundedUniformModel(self.family.lo, self.family.hi)

    def _model(self, ds: DataSet, sp) -> BoundedUniformModel:
        return self._fit(ds)


class IndependentProductEstimator(Estimator):
    """Fits each component family to its own column of the data."""

    def _product(self, ds: DataSet, sp=None) -> IndependentProductModel:
        """Each component fitted to its column or, given sp, parameterised."""
        dim = self.family.dim
        if ds[0].dim != dim:
            raise EstimationError(f"{self.family.name} needs {dim}-vectors, got {ds[0].dim}")
        ps_list = self.ps if self.ps is not None else (None,) * dim
        if len(ps_list) != dim:
            raise EstimationError(f"{self.family.name} takes {dim} estimator parameter groups")
        sp = (None,) * dim if sp is None else tuple(sp)
        if len(sp) != dim:
            raise ParameterError(f"{self.family.name} takes {dim} parameter groups, got {len(sp)}")
        parts = []
        for j, (component, ps, s) in enumerate(zip(self.family.components, ps_list, sp)):
            col = DataSet(tuple(CtsDatum(d.components[j], d.aoms[j]) for d in ds))
            est = component.estimator(ps)
            parts.append(est._fit(col) if s is None else est._model(col, s))
        msg1 = sum(p.msg1 for p in parts)
        return IndependentProductModel(parts, msg1=msg1, name=self.family.name)

    def _fit(self, ds: DataSet) -> IndependentProductModel:
        return self._product(ds)

    def _model(self, ds: DataSet, sp) -> IndependentProductModel:
        return self._product(ds, sp)


class TransformedEstimator(Estimator):
    """Maps the data through the family's function, then fits the base family.

    Mapping by an invertible function leaves the information content of the
    data unchanged, so both message parts carry over from the base family's
    message for the mapped data.
    """

    def __init__(self, family, base_estimator: Estimator, f):
        super().__init__(family, base_estimator.ps)
        self.base_estimator = base_estimator
        self.f = f

    def estimate(self, ds: DataSet) -> FitResult:
        self._check(ds)
        base_fit = self.base_estimator.estimate(map_dataset(ds, self.f))
        return FitResult(base_fit.model.transform(self.f), base_fit.msg1, base_fit.msg2)

    def message_length(self, ds: DataSet, sp=()) -> tuple[float, float]:
        return self.base_estimator.message_length(map_dataset(ds, self.f), sp)

    def _fit(self, ds: DataSet) -> Model:
        return self.base_estimator._fit(map_dataset(ds, self.f)).transform(self.f)

    def _model(self, ds: DataSet, sp) -> Model:
        return self.base_estimator._model(map_dataset(ds, self.f), sp).transform(self.f)
