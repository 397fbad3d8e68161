"""Statistical models as first-class, transformable values.

Models come in two stages.  An unparameterised model (a *family*) holds
the problem-defining parameters, which are given rather than estimated:
the bounds of a discrete space, the component families of a product.  It
can be called with statistical parameters to make a parameterised model,
and it fits those parameters to data through one hook, ``_model(ds,
given, ps)``: the model that minimises the two-part message of the data
when ``given`` is None, else the given model restated with its msg1.
``estimator(ps)`` wraps that hook in ``estimation.Estimator``, which
decides the fit's inputs once: ``ps`` as the family's ``_resolve_ps``
resolves it, and the data's kind and dimension; it scores the model's
data by ``data_costs``.  A product fits each component on its own
column, and a transformed family fits its base to the mapped data.  A
parameterised model answers ``pr``/``nl_pr`` for data from its space and
can draw random data.

Every parameterised model answers the same value-level questions, for a
bare value of its data space (a float, a tuple of D floats or an int):
``contains(v)``, ``nl_pdf(v)`` (the negative log density, or probability
for discrete data) and ``random_v(rng)``, computed with ``math``, numpy
serving only as the random generator, so each answer is the same bytes at
every numpy SIMD level; ``pdf`` and ``nl_pr`` ask the first two in one
step, and ``random`` wraps ``random_v`` for measured data.  The column
forms ``nl_pdf_col``, ``nl_pr_col`` and ``random_col`` answer for a whole
column of a dataset at once; their defaults loop over the per-value
methods.  A cost's column form is not finite for a value outside the
support or one the per-value method rejects.  The normal model overrides
them with numpy, a product adds up its components' ``nl_pdf_col``
columns, a transformed model computes its rule below on columns, and
every other model answers through its per-value methods.  Fits score by
these columns, as ``eval`` does.  ``random_col`` draws from ``rng``
exactly as n ``random_v`` calls do, so a seeded sample is the same drawn
either way.

Both stages can be transformed by an invertible function of the matching
kind, and the transform preserves the capability of what it wraps: a
transformed continuous family is still a continuous family with a pdf.
A chain ``m.transform(f).transform(g)`` is the one composition of maps,
of every kind: it takes a datum through g, then f.  One rule serves every
kind, because each function class supplies its domain, its map, its
-ln |Jacobian| (-ln |f'(x)| for a scalar map, 0 for a bijection of
integers) and its inverse:

    contains_mf(v) = f.contains(v) and contains_m(f(v))
    nl_pdf_mf(v)   = nl_pdf_m(f(v)) + f.nl_jacobian_det(v)

with f(v) computed once for both, and ``nl_pdf_col`` the same rule on
columns, from ``f.f_col`` and ``f.nl_jacobian_det_col``.  A transformed
model draws random data by drawing from the base model and applying f's
inverse; its column form draws the base column and applies
``f.inverse()``'s column map, and a row that map cannot settle (a value
outside the inverse's domain or not finite) goes to the per-value
inverse.  A value drawn through numpy's SIMD ``exp``, ``log``, ``atan2``
or ``hypot`` may differ from the per-draw value by one ulp.  All density
arithmetic is carried out on negative logs (nits); plain probabilities
are exponentiated views.
"""

from __future__ import annotations

import math
import reprlib
from array import array
from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .errors import DomainError, EstimationError, MsglenError, ParameterError, TransformError
from .functions import FUNCTION_CLASS, IntegerSpace, _real
from .values import CtsDatum, DataSet, DiscreteDatum, VecDatum, _aom_as_is, _at_index, _view
from .values import each_value, map_dataset, settle

__all__ = [
    "DEFAULT_SAMPLE_AOM",
    "MAX_STATES",
    "MAX_DIM",
    "KAPPA_2",
    "MULTISTATE_LATTICE_CONSTANT",
    "NormalPriors",
    "UPModel",
    "Model",
    "DiscreteFamily",
    "ContinuousFamily",
    "VectorFamily",
    "DiscreteModel",
    "ContinuousModel",
    "VectorModel",
    "NormalModel",
    "BoundedUniformModel",
    "MultiStateModel",
    "IndependentProductModel",
    "normal",
    "bounded_uniform",
    "multistate",
    "independent_rd",
]

HALF_LN_TWO_PI = 0.5 * math.log(2.0 * math.pi)

# AoM attached to random continuous draws; samples are synthetic, so their
# measurement accuracy is an annotation rather than a propagated quantity.
DEFAULT_SAMPLE_AOM = 1e-6

# The most states a multistate family may have.  A fit holds a count and a
# probability per state and reports each, so its memory and time grow with
# the space rather than the data; a larger space is rejected up front.
MAX_STATES = 10**6

# The most components a product family may have.  A product holds a
# component and a data column per dimension, so a larger one is rejected
# before its components are built.
MAX_DIM = 10**6

# Optimal two-dimensional quantising lattice constant, 5 / (36 sqrt 3).
KAPPA_2 = 5.0 / (36.0 * math.sqrt(3.0))

# The multistate statement cost is ((k-1)/2) ln(N / MULTISTATE_LATTICE_CONSTANT)
# plus the log volume ln(sqrt(k) / (k-1)!) of the probability simplex.
MULTISTATE_LATTICE_CONSTANT = 12.0


# What fixes each kind's data space besides the kind itself; a transforming
# function must agree with the model on every one of these attributes.
_SPACE_ATTRS = {"cts": (), "vec": ("dim",), "discrete": ("lo", "hi")}


def _check_transform(target, f) -> None:
    """Raise unless f is of target's kind, acts on target's space and is invertible."""
    expected = FUNCTION_CLASS[target.kind]
    if not isinstance(f, expected):
        raise TransformError(
            f"{target.name} needs a {expected.__name__}, got {type(f).__name__}"
        )
    for attr in _SPACE_ATTRS[target.kind]:
        if getattr(f, attr) != getattr(target, attr):
            raise TransformError(
                f"{f.name} has {attr} {getattr(f, attr)}, "
                f"{target.name} has {attr} {getattr(target, attr)}"
            )
    try:
        f.inverse()
    except MsglenError as e:
        raise TransformError(f"transform needs an invertible function: {e}") from e


# ---------------------------------------------------------------------------
# Unparameterised models (families)
# ---------------------------------------------------------------------------


class UPModel:
    """A model family: problem-defining parameters fixed, statistical free."""

    name = "?"

    def parameterise(self, sp) -> "Model":
        raise NotImplementedError

    def __call__(self, sp) -> "Model":
        return self.parameterise(sp)

    def estimator(self, ps=None):
        """The family's estimator: it fits and scores data by ``_model``,
        under the parameters ``_resolve_ps`` makes of ``ps`` here, once, so
        parameters the family cannot use are refused here, not at a fit."""
        from .estimation import Estimator

        return Estimator(self, self._resolve_ps(ps))

    def _resolve_ps(self, ps):
        """The estimator parameters ``_model`` reads, resolved from ``ps``,
        or an EstimationError for parameters it cannot use; a family takes
        none but None unless it says otherwise."""
        if ps is not None:
            raise EstimationError(
                f"{self.name} takes no estimator parameters, got {reprlib.repr(ps)}"
            )

    def _model(self, ds: DataSet, given: "Model | None", ps) -> "Model":
        """The model of ``ds``, a non-empty dataset of the family's kind (and
        dimension): the one that minimises the message when ``given`` is
        None, else the given model (which ``parameterise`` built) restated
        with its msg1.  ``ps`` is what ``_resolve_ps`` made of the
        estimator's parameters."""
        raise NotImplementedError

    def transform(self, f) -> "UPModel":
        """The family of this family's models transformed by f."""
        _check_transform(self, f)
        return _TRANSFORMED[self.kind][0](self, f)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class DiscreteFamily(IntegerSpace, UPModel):
    """Families over the bounded integer space [lo, hi]."""

    kind = "discrete"


class ContinuousFamily(UPModel):
    """Families of scalar continuous data, answering a pdf once parameterised."""

    kind = "cts"


class VectorFamily(UPModel):
    """Families of R^D data."""

    kind = "vec"
    dim = 0


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


# The normal's priors when none are given: each resolved from the data.
_DATA_PRIORS = NormalPriors()


def _scaled_fsum(column: np.ndarray, square: bool = False) -> tuple:
    """The sum of a float64 column, or of its squares, as (total, k): the
    sum is total * 2**k, or total * 2**(2*k) for the squares.

    The column is scaled by 2**-k, k the exponent of its largest magnitude,
    before fsum adds it over Python floats.  So the sum is exact and rounded
    once, it does not depend on the order numpy would add in, and no partial
    sum passes the float range.  The scaling is exact unless a scaled value
    leaves the normal floats, which needs a column that spans more than
    about 2**1000 (2**500 for the squares).
    """
    k = math.frexp(float(np.abs(column).max()))[1]
    scaled = np.ldexp(column, -k)
    return math.fsum((np.square(scaled) if square else scaled).tolist()), k


class NormalFamily(ContinuousFamily):
    """The Gaussian family; its problem-defining parameters are trivial.

    The fit follows the standard Wallace-Freeman construction: the
    parameter statement cost is the negative log prior density plus half
    the log determinant of the Fisher information, plus a quantisation term
    from the two-dimensional lattice constant.  With a flat prior on the
    mean and a 1/sigma prior on the scale, the minimising parameters are
    the sample mean and the (N-1)-denominator standard deviation.  The
    estimator takes a NormalPriors, or None to resolve every prior from the
    data.
    """

    name = "normal"

    def parameterise(self, sp) -> "NormalModel":
        try:
            mu, sigma = sp
        except (TypeError, ValueError):
            raise ParameterError(f"normal takes (mean, sd), got {reprlib.repr(sp)}") from None
        return NormalModel(mu, sigma)

    def _resolve_ps(self, ps) -> NormalPriors:
        if ps is not None and not isinstance(ps, NormalPriors):
            raise EstimationError(f"normal takes NormalPriors or None, got {reprlib.repr(ps)}")
        return _DATA_PRIORS if ps is None else ps

    def _model(self, ds: DataSet, given: "NormalModel | None", ps: NormalPriors) -> "NormalModel":
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
            total, k = _scaled_fsum(xs)
            mean = math.ldexp(total / n, k)
            # As Python's - does, a deviation past the float range raises.
            with np.errstate(over="raise"):
                dev = xs - mean
            total, k = _scaled_fsum(dev, square=True)
            sd = math.ldexp(math.sqrt(total / (n - 1)), k) if n > 1 else 0.0
            # The AoM bounds the resolution of the data; an estimated sd below
            # the quantisation noise of the measurements is not supportable.
            total, k = _scaled_fsum(aoms)
            sd = max(sd, math.ldexp(total / n, k) / math.sqrt(12.0))
            sd = min(max(sd, s_lo), s_hi)
        else:
            mean, sd = given.mean, given.sd
        ratio = s_hi / s_lo
        # Far apart bounds may have a ratio past the float range, but not its log.
        log_ratio = math.log(ratio) if ratio < math.inf else math.log(s_hi) - math.log(s_lo)
        neg_log_prior = math.log(mu_range) + math.log(sd) + math.log(log_ratio)
        half_log_fisher = 0.5 * math.log(2.0) + math.log(n) - 2.0 * math.log(sd)
        msg1 = max(0.0, neg_log_prior + half_log_fisher + 1.0 + math.log(KAPPA_2))
        return NormalModel(mean, sd, msg1=msg1)


class BoundedUniformFamily(DiscreteFamily):
    """Uniform over [lo, hi]; its statistical parameters are trivial."""

    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"uniform:{self.lo}:{self.hi}"

    def parameterise(self, sp=()) -> "BoundedUniformModel":
        if sp not in ((), None):
            raise ParameterError("the bounded uniform has no statistical parameters")
        return BoundedUniformModel(self.lo, self.hi)

    def _model(self, ds: DataSet, given, ps) -> "BoundedUniformModel":
        # Nothing to estimate: the statistical parameters are trivial.
        return BoundedUniformModel(self.lo, self.hi)


class MultiStateFamily(DiscreteFamily):
    """One probability per state of [lo, hi]."""

    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"multistate:{self.lo}:{self.hi}"
        if self.size > MAX_STATES:
            raise ParameterError(
                f"{self.name} has {self.size} states; at most {MAX_STATES} are supported"
            )

    def parameterise(self, sp) -> "MultiStateModel":
        return MultiStateModel(self.lo, self.hi, sp)

    def _model(self, ds: DataSet, given: "MultiStateModel | None", ps) -> "MultiStateModel":
        lo, hi, k = self.lo, self.hi, self.size
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


def _product_name(components) -> str:
    """rd:normal^D when every component is a normal, else rd:(a,b,...)."""
    names = [c.name for c in components]
    if set(names) == {"normal"}:
        return f"rd:normal^{len(names)}"
    return f"rd:({','.join(names)})"


class IndependentProductFamily(VectorFamily):
    """Independent continuous components; the pdf is the product of the parts.

    A fit fits each component to its own column of the data.  The columns
    are independent, so the product's msg1 is the sum of its components'
    msg1s, and its cost column the sum of their columns.  The estimator
    takes None or one parameter group per component, each resolved by its
    component.
    """

    def __init__(self, components):
        # At most one component past the limit is taken from the iterable.
        components = tuple(islice(components, MAX_DIM + 1))
        if not components:
            raise ParameterError("a product family needs at least one component")
        if len(components) > MAX_DIM:
            raise ParameterError(f"a product family has at most {MAX_DIM} components")
        for c in components:
            if not isinstance(c, ContinuousFamily):
                raise ParameterError(
                    f"product components must be continuous families, got {c!r}"
                )
        self.components = components
        self.dim = len(components)
        self.name = _product_name(components)

    def parameterise(self, sp) -> "IndependentProductModel":
        sp = tuple(sp)
        if len(sp) != self.dim:
            raise ParameterError(
                f"{self.name} takes {self.dim} parameter groups, got {len(sp)}"
            )
        parts = tuple(c.parameterise(s) for c, s in zip(self.components, sp))
        return IndependentProductModel(parts)

    def _resolve_ps(self, ps) -> tuple:
        if ps is None:
            ps = (None,) * self.dim
        elif not isinstance(ps, Sequence) or len(ps) != self.dim:
            raise EstimationError(
                f"{self.name} takes {self.dim} estimator parameter groups, got {reprlib.repr(ps)}"
            )
        return tuple(c._resolve_ps(p) for c, p in zip(self.components, ps))

    def _model(
        self, ds: DataSet, given: "IndependentProductModel | None", ps: tuple
    ) -> "IndependentProductModel":
        parts_given = (None,) * self.dim if given is None else given.components
        parts = [
            c._model(DataSet.continuous(ds.x[:, j], ds.aom[:, j]), g, p)
            for j, (c, g, p) in enumerate(zip(self.components, parts_given, ps))
        ]
        # Left to right: sum() of floats compensates from Python 3.12 on.
        msg1 = 0.0
        for part in parts:
            msg1 += part.msg1
        return IndependentProductModel(parts, msg1)


# ---------------------------------------------------------------------------
# Parameterised models
# ---------------------------------------------------------------------------


class Model:
    """A distribution: answers pr/nl_pr and draws random data.

    ``msg1`` is the cost, in nits, of stating the model's statistical
    parameters; it is zero when they were given rather than estimated.
    """

    name = "?"

    def __init__(self, msg1: float = 0.0):
        self.msg1 = float(msg1)

    def contains(self, v) -> bool:
        """Whether the value v lies in the model's support."""
        raise NotImplementedError

    def nl_pdf(self, v) -> float:
        """-ln of the density at v (the probability, for discrete data), in
        nits, for v in the support only, as a function answers only in its
        domain; ``pdf`` and ``nl_pr`` are the checked forms."""
        raise NotImplementedError

    def random_v(self, rng):
        """One random value of the data space, without an AoM: a float, a
        tuple of floats or an int."""
        raise NotImplementedError

    def _nl_pdf_in_support(self, v):
        """nl_pdf(v), or None when v is outside the support: the one
        per-value step of ``pdf`` and ``nl_pr``."""
        return self.nl_pdf(v) if self.contains(v) else None

    def nl_pdf_col(self, values) -> np.ndarray:
        """nl_pdf of every value of a column; not finite for a value outside
        the support or one nl_pdf raises on."""
        return np.array(each_value(self._nl_pdf_in_support, values, math.nan), dtype=np.float64)

    def nl_pr_col(self, *columns) -> np.ndarray:
        """nl_pr of every row of ``DataSet.columns``, as an array; not finite
        where a row is outside the support or unscorable."""
        raise NotImplementedError

    def random_col(self, rng, n: int):
        """n random values as a column of the model's kind: a float64 array
        of shape (n,) or (n, D), or a tuple of ints.  It draws from rng
        exactly as n calls of random_v do."""
        return np.array([self.random_v(rng) for _ in range(n)], dtype=np.float64)

    def pdf(self, v) -> float:
        nl = self._nl_pdf_in_support(v)
        if nl is None:
            raise DomainError(f"{v!r} is outside the support of {self.name}")
        return math.exp(-nl)

    def nl_pr(self, d) -> float:
        """Negative log probability of a datum, in nits."""
        raise NotImplementedError

    def pr(self, d) -> float:
        return math.exp(-self.nl_pr(d))

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM):
        raise NotImplementedError

    def transform(self, f) -> "Model":
        """This model transformed by f: the same distribution seen through f."""
        _check_transform(self, f)
        return _TRANSFORMED[self.kind][1](self, f)

    def params(self) -> dict:
        """Statistical parameters, flattened for reporting."""
        return {}

    def __repr__(self) -> str:
        ps = ", ".join(f"{k}={v:g}" for k, v in self.params().items())
        return f"<{type(self).__name__} {self.name}({ps})>"


class DiscreteModel(IntegerSpace, Model):
    kind = "discrete"

    def __init__(self, lo: int, hi: int, msg1: float = 0.0):
        IntegerSpace.__init__(self, lo, hi)
        Model.__init__(self, msg1)

    def nl_pr(self, d: DiscreteDatum) -> float:
        nl = self._nl_pdf_in_support(d.value)
        if nl is None:
            raise DomainError(f"{d.value} is outside the data space [{self.lo}, {self.hi}]")
        return nl

    def nl_pr_col(self, values) -> np.ndarray:
        return self.nl_pdf_col(values)

    def random_col(self, rng, n: int) -> tuple:
        return tuple(self.random_v(rng) for _ in range(n))

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM) -> DiscreteDatum:
        return DiscreteDatum(self.random_v(rng))


class ContinuousModel(Model):
    """A scalar continuous model, defined by its negative log pdf."""

    kind = "cts"

    def contains(self, x: float) -> bool:
        return math.isfinite(x)

    def nl_pr(self, d: CtsDatum) -> float:
        # pr(x +- aom/2) ~= aom * pdf(x) for small AoM, so the cost is
        # nl_pdf(x) - ln(aom).
        nl = self._nl_pdf_in_support(d.x)
        if nl is None:
            raise DomainError(f"{d.x!r} is outside the support of {self.name}")
        return nl - math.log(d.aom)

    def nl_pr_col(self, x, aom) -> np.ndarray:
        return self.nl_pdf_col(x) - np.log(aom)

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM) -> CtsDatum:
        x = self.random_v(rng)
        if math.isfinite(x) and _aom_as_is(aom):
            return _view(CtsDatum, x=x, aom=aom)
        return CtsDatum(x, aom)  # raises the datum's own error


class VectorModel(Model):
    kind = "vec"
    dim = 0

    def nl_pr(self, d: VecDatum) -> float:
        v = d.components
        if len(v) != self.dim:
            raise DomainError(f"{self.name} models R^{self.dim}, got a {len(v)}-vector")
        nl = self._nl_pdf_in_support(v)
        if nl is None:
            raise DomainError(f"{v} is outside the support of {self.name}")
        # Left to right, as nl_pr_col adds the log AoMs; sum() of floats
        # compensates from Python 3.12 on.
        # Inline: api-polar's eval runs this once per row, and a helper call cost about 20%.
        ln_aoms = 0.0
        for aom in d.aoms:
            ln_aoms += math.log(aom)
        return nl - ln_aoms

    def nl_pr_col(self, x, aom) -> np.ndarray:
        # NaN for a row of another dimension; the log AoMs add left to right.
        if x.shape[1] != self.dim:
            return np.full(len(x), math.nan)
        return self.nl_pdf_col(x) - sum(np.log(aom).T)

    def random_col(self, rng, n: int) -> np.ndarray:
        return super().random_col(rng, n).reshape(n, self.dim)

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM) -> VecDatum:
        v, aoms = self.random_v(rng), (aom,) * self.dim
        if all(map(math.isfinite, v)) and _aom_as_is(aom):
            return _view(VecDatum, components=v, aoms=aoms)
        return VecDatum(v, aoms)  # raises the datum's own error


class NormalModel(ContinuousModel):
    name = "normal"

    def __init__(self, mean: float, sd: float, msg1: float = 0.0):
        super().__init__(msg1)
        self.mean = _real("normal", mean)
        self.sd = _real("normal", sd)
        if self.sd <= 0.0:
            raise ParameterError(f"normal needs sd > 0, got ({self.mean}, {self.sd})")
        self._nl_at_mean = HALF_LN_TWO_PI + math.log(self.sd)

    def nl_pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return self._nl_at_mean + 0.5 * z * z

    # The same arithmetic on arrays, so each value comes out bit for bit.
    nl_pdf_col = nl_pdf

    def random_v(self, rng) -> float:
        return float(rng.normal(self.mean, self.sd))

    def random_col(self, rng, n: int) -> np.ndarray:
        return rng.normal(self.mean, self.sd, size=n)

    def params(self) -> dict:
        return {"mean": self.mean, "sd": self.sd}


class BoundedUniformModel(DiscreteModel):
    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"uniform:{self.lo}:{self.hi}"
        self._nl = math.log(self.size)

    def nl_pdf(self, k: int) -> float:
        return self._nl

    def random_v(self, rng) -> int:
        return int(rng.integers(self.lo, self.hi + 1))


class MultiStateModel(DiscreteModel):
    def __init__(self, lo: int, hi: int, probs, msg1: float = 0.0):
        super().__init__(lo, hi, msg1)
        self.name = f"multistate:{self.lo}:{self.hi}"
        try:
            probs = tuple(_real("multistate", p) for p in probs)
        except TypeError:
            raise ParameterError(
                f"multistate takes a probability per state, got {reprlib.repr(probs)}"
            ) from None
        if len(probs) != self.size:
            raise ParameterError(
                f"need {self.size} probabilities for [{self.lo}, {self.hi}], got {len(probs)}"
            )
        if any(p < 0.0 for p in probs):
            raise ParameterError("probabilities must be non-negative")
        total = math.fsum(probs)
        if abs(total - 1.0) > 1e-9:
            raise ParameterError(f"probabilities sum to {total!r}, not 1")
        self.probs = probs
        self._cum = array("d", accumulate(probs))
        # A draw past the last cumulative probability (the sum may fall short
        # of 1) is the last state with positive probability.
        self._last = max(i for i, p in enumerate(probs) if p > 0.0)

    def nl_pdf(self, k: int) -> float:
        p = self.probs[k - self.lo]
        # 0.0 - ln p rather than -ln p, so a certain state costs 0.0, not -0.0.
        return math.inf if p == 0.0 else 0.0 - math.log(p)

    def random_v(self, rng) -> int:
        # bisect_right never lands on a state of probability 0.
        i = bisect_right(self._cum, float(rng.random()))
        return self.lo + min(i, self._last)

    def params(self) -> dict:
        return {f"p{k}": p for k, p in zip(self.space(), self.probs)}


class IndependentProductModel(VectorModel):
    def __init__(self, components, msg1: float = 0.0):
        super().__init__(msg1)
        self.components = tuple(components)
        self.dim = len(self.components)
        self.name = _product_name(self.components)

    def contains(self, v) -> bool:
        if len(v) != self.dim:
            return False
        for c, x in zip(self.components, v):
            if not c.contains(float(x)):
                return False
        return True

    def nl_pdf(self, v) -> float:
        # Left to right, as nl_pdf_col adds the components' columns; sum() of
        # floats compensates from Python 3.12 on.
        # Inline: api-polar's eval runs this once per row, and a helper call cost about 20%.
        nl = 0.0
        for c, x in zip(self.components, v):
            nl += c.nl_pdf(float(x))
        return nl

    def nl_pdf_col(self, values) -> np.ndarray:
        # The sum of the components' columns, left to right.
        return sum(c.nl_pdf_col(values[:, j]) for j, c in enumerate(self.components))

    def random_v(self, rng) -> tuple:
        return tuple([c.random_v(rng) for c in self.components])

    def params(self) -> dict:
        out = {}
        for i, c in enumerate(self.components):
            for k, val in c.params().items():
                out[f"{i}.{k}"] = val
        return out


# ---------------------------------------------------------------------------
# Transform wrappers (capability preserving)
# ---------------------------------------------------------------------------


class _Transformed:
    """What a transform wrapper, family or model, holds: the base it wraps,
    the function f, and the base's space attributes, under the name
    ``base.transform(f)``."""

    def __init__(self, base, f):
        self.base = base
        self.f = f
        self.name = f"{base.name}.transform({f.name})"
        for attr in _SPACE_ATTRS[base.kind]:
            setattr(self, attr, getattr(base, attr))


class _TransformedFamily(_Transformed, UPModel):
    """A family whose models are the base family's models transformed by f.

    A fit maps the data through f, AoMs included, fits the base family to
    the mapped data and transforms the fitted model.  The base fit reads
    the mapped AoMs for its priors and its sd floor.  Mapping by an
    invertible function leaves the information content of the data
    unchanged, so msg1 is the base fit's, and msg2 the base model's cost of
    the mapped data, up to rounding.
    """

    def parameterise(self, sp) -> "Model":
        return self.base.parameterise(sp).transform(self.f)

    def _resolve_ps(self, ps):
        return self.base._resolve_ps(ps)

    def _model(self, ds: DataSet, given: "Model | None", ps) -> "Model":
        base_given = None if given is None else given.base
        return self.base._model(map_dataset(ds, self.f), base_given, ps).transform(self.f)


class TransformedContinuousFamily(_TransformedFamily, ContinuousFamily):
    """A continuous family transformed by a Cts2Cts."""


class TransformedVectorFamily(_TransformedFamily, VectorFamily):
    """A vector family transformed by a CtsD2CtsD."""


class TransformedDiscreteFamily(_TransformedFamily, DiscreteFamily):
    """A discrete family transformed by a DiscreteBijection."""


class _TransformedModel(_Transformed, Model):
    """The base model seen through f, by the one rule of every kind: f
    supplies the domain, the map, -ln |Jacobian| and the inverse."""

    def __init__(self, base: Model, f):
        # Not the kind's own __init__: the space attributes come from base.
        Model.__init__(self, base.msg1)
        _Transformed.__init__(self, base, f)
        self._f_inv = f.inverse()

    def params(self) -> dict:
        return self.base.params()

    def contains(self, v) -> bool:
        if not self.f.contains(v):
            return False
        try:
            return self.base.contains(self.f(v))
        except (ValueError, ArithmeticError):
            return False

    def nl_pdf(self, v) -> float:
        return self.base.nl_pdf(self.f(v)) + self.f.nl_jacobian_det(v)

    def _nl_pdf_in_support(self, v):
        # contains and nl_pdf at once, mapping v once.
        if not self.f.contains(v):
            return None
        try:
            y = self.f(v)
        except (ValueError, ArithmeticError):
            return None
        nl = self.base._nl_pdf_in_support(y)
        return None if nl is None else nl + self.f.nl_jacobian_det(v)

    def nl_pdf_col(self, values) -> np.ndarray:
        return self.base.nl_pdf_col(self.f.f_col(values)) + self.f.nl_jacobian_det_col(values)

    def random_v(self, rng):
        return self._preimage(self.base.random_v(rng))

    def random_col(self, rng, n: int):
        drawn = self.base.random_col(rng, n)
        with np.errstate(all="ignore"):
            values = self._f_inv.f_col(drawn)

        def preimage(i: int) -> tuple:
            # The per-value inverse is the reference for the rows the column
            # leaves unsettled: it raises for the first draw without a
            # preimage, or gives the row's value.  A scalar row is passed as
            # random_v gives it: a Python float, whose arithmetic raises where
            # numpy's warns, and whose repr is plain.
            v = drawn[i]
            return (self._preimage(float(v) if isinstance(v, np.floating) else v),)

        return settle((values,), preimage)[0]

    def _preimage(self, v):
        """f's inverse of a value the base model drew, as random_v gives it;
        a value f's inverse rejects is a DomainError."""
        try:
            return self._f_inv(v)
        except (ValueError, ArithmeticError):
            raise DomainError(
                f"{self.name} cannot draw: {self.base.name} drew {v!r}, "
                f"which is outside the image of {self.f.name}"
            ) from None


class TransformedContinuousModel(_TransformedModel, ContinuousModel):
    """A continuous model transformed by a Cts2Cts."""


class TransformedVectorModel(_TransformedModel, VectorModel):
    """A vector model transformed by a CtsD2CtsD."""


class TransformedDiscreteModel(_TransformedModel, DiscreteModel):
    """A discrete model transformed by a DiscreteBijection."""


# The wrappers of each kind: (transformed family, transformed model).
_TRANSFORMED = {
    "cts": (TransformedContinuousFamily, TransformedContinuousModel),
    "vec": (TransformedVectorFamily, TransformedVectorModel),
    "discrete": (TransformedDiscreteFamily, TransformedDiscreteModel),
}


# ---------------------------------------------------------------------------
# Library families
# ---------------------------------------------------------------------------

normal = NormalFamily()


def bounded_uniform(lo: int, hi: int) -> BoundedUniformFamily:
    return BoundedUniformFamily(lo, hi)


def multistate(lo: int, hi: int) -> MultiStateFamily:
    return MultiStateFamily(lo, hi)


def independent_rd(components) -> IndependentProductFamily:
    return IndependentProductFamily(components)
