"""Statistical models as first-class, transformable values.

Models come in two stages.  An unparameterised model (a *family*) holds
the problem-defining parameters, which are given rather than estimated:
the bounds of a discrete space, the component families of a product.  It
can be called with statistical parameters to make a parameterised model,
and it can hand out an estimator that fits those parameters to data.  A
parameterised model answers ``pr``/``nl_pr`` for data from its space and
can draw random data.

Every parameterised model answers the same value-level questions, for a
bare value of its data space (a float, a D-vector or an integer):
``contains(v)``, ``nl_pdf(v)`` (the negative log density, or probability
for discrete data) and ``random_v(rng)``; ``pdf`` is defined once from
them, and ``nl_pr``/``random`` wrap them for measured data.  The column
forms ``nl_pdf_col``, ``nl_pr_col`` and ``random_col`` answer for a whole
column of a dataset at once; their defaults loop over the per-value
methods.  A cost's column form is not finite for a value outside the
support or one the per-value method rejects.  The normal model overrides
them with numpy; every other model answers through its per-value
methods, and a transformed model's cost column is its base's cost of
``f.map_col``'s columns, which its family's fit scores.  ``random_col``
draws from ``rng`` exactly as n ``random_v`` calls do, so a seeded sample
is the same drawn either way.

Both stages can be transformed by an invertible function of the matching
kind, and the transform preserves the capability of what it wraps: a
transformed continuous family is still a continuous family with a pdf.
One rule serves every kind, because each function class supplies its
domain, its map, its -ln |Jacobian| (-ln |f'(x)| for a scalar map, 0 for
a bijection of integers) and its inverse:

    contains_mf(v) = f.contains(v) and contains_m(f(v))
    nl_pdf_mf(v)   = nl_pdf_m(f(v)) + f.nl_jacobian_det(v)

and a transformed model draws random data by drawing from the base model
and applying f's inverse; its column form draws the base column and
applies ``f.inverse()``'s column map, and a row that map cannot settle
(a value outside the inverse's domain or not finite) goes to the
per-value inverse.  The numpy and ``math`` forms of ``exp``, ``log``,
``atan2`` and ``hypot`` may round the last bit differently, so a value
drawn through one of them may differ from the per-draw value by one ulp.
All density arithmetic is carried out on negative logs (nits); plain
probabilities are exponentiated views.
"""

from __future__ import annotations

import math
import reprlib
from itertools import islice

import numpy as np

from .errors import DomainError, MsglenError, ParameterError, TransformError
from .functions import FUNCTION_CLASS, IntegerSpace, _each_contained, _real
from .values import CtsDatum, DiscreteDatum, VecDatum, settled

__all__ = [
    "DEFAULT_SAMPLE_AOM",
    "MAX_STATES",
    "MAX_DIM",
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


class NormalFamily(ContinuousFamily):
    """The Gaussian family; its problem-defining parameters are trivial."""

    name = "normal"

    def parameterise(self, sp) -> "NormalModel":
        try:
            mu, sigma = sp
        except (TypeError, ValueError):
            raise ParameterError(f"normal takes (mean, sd), got {reprlib.repr(sp)}") from None
        return NormalModel(mu, sigma)

    def estimator(self, ps=None):
        from .estimation import NormalEstimator

        return NormalEstimator(self, ps)


class BoundedUniformFamily(DiscreteFamily):
    """Uniform over [lo, hi]; its statistical parameters are trivial."""

    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"uniform:{self.lo}:{self.hi}"

    def parameterise(self, sp=()) -> "BoundedUniformModel":
        if sp not in ((), None):
            raise ParameterError("the bounded uniform has no statistical parameters")
        return BoundedUniformModel(self.lo, self.hi)

    def estimator(self, ps=None):
        from .estimation import BoundedUniformEstimator

        return BoundedUniformEstimator(self, ps)


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

    def estimator(self, ps=None):
        from .estimation import MultiStateEstimator

        return MultiStateEstimator(self, ps)


def _product_name(components) -> str:
    """rd:normal^D when every component is a normal, else rd:(a,b,...)."""
    names = [c.name for c in components]
    if set(names) == {"normal"}:
        return f"rd:normal^{len(names)}"
    return f"rd:({','.join(names)})"


class IndependentProductFamily(VectorFamily):
    """Independent continuous components; the pdf is the product of the parts."""

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

    def estimator(self, ps=None):
        from .estimation import IndependentProductEstimator

        return IndependentProductEstimator(self, ps)


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
        """-ln of the density at v (the probability, for discrete data), in nits."""
        raise NotImplementedError

    def random_v(self, rng):
        """One random value of the data space, without an AoM."""
        raise NotImplementedError

    def nl_pdf_col(self, values) -> np.ndarray:
        """nl_pdf of every value of a column; not finite for a value outside
        the support or one nl_pdf raises on."""
        return np.array(_each_contained(self, self.nl_pdf, values, math.nan), dtype=np.float64)

    def nl_pr_col(self, *columns) -> np.ndarray:
        """nl_pr of every row of columns as ``DataSet.columns`` gives them
        or ``map_col`` maps them, as an array; not finite where a row is
        unsettled (``values.settled``), outside the support or unscorable."""
        raise NotImplementedError

    def random_col(self, rng, n: int):
        """n random values as a column of the model's kind: a float64 array
        of shape (n,) or (n, D), or a tuple of ints.  It draws from rng
        exactly as n calls of random_v do."""
        return np.array([self.random_v(rng) for _ in range(n)], dtype=np.float64)

    def pdf(self, v) -> float:
        if not self.contains(v):
            raise DomainError(f"{v!r} is outside the support of {self.name}")
        return math.exp(-self.nl_pdf(v))

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

    pr_value = Model.pdf

    def nl_pr(self, d: DiscreteDatum) -> float:
        if not self.contains(d.value):
            raise DomainError(f"{d.value} is outside the data space [{self.lo}, {self.hi}]")
        return self.nl_pdf(d.value)

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
        if not self.contains(d.x):
            raise DomainError(f"{d.x!r} is outside the support of {self.name}")
        return self.nl_pdf(d.x) - math.log(d.aom)

    def nl_pr_col(self, x, aom) -> np.ndarray:
        return self.nl_pdf_col(x) - np.log(aom)

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM) -> CtsDatum:
        return CtsDatum(self.random_v(rng), aom)


class VectorModel(Model):
    kind = "vec"
    dim = 0

    def nl_pr(self, d: VecDatum) -> float:
        if d.dim != self.dim:
            raise DomainError(f"{self.name} models R^{self.dim}, got a {d.dim}-vector")
        v = d.components
        if not self.contains(v):
            raise DomainError(f"{v} is outside the support of {self.name}")
        return self.nl_pdf(v) - math.fsum(math.log(a) for a in d.aoms)

    def nl_pr_col(self, x, aom) -> np.ndarray:
        # A row of another dimension is outside the support: nl_pdf_col gives NaN.
        return self.nl_pdf_col(x) - np.log(aom).sum(axis=1)

    def random_col(self, rng, n: int) -> np.ndarray:
        return super().random_col(rng, n).reshape(n, self.dim)

    def random(self, rng, aom: float = DEFAULT_SAMPLE_AOM) -> VecDatum:
        return VecDatum(self.random_v(rng), (aom,) * self.dim)


class NormalModel(ContinuousModel):
    name = "normal"

    def __init__(self, mean: float, sd: float, msg1: float = 0.0):
        super().__init__(msg1)
        self.mean = _real("normal", mean)
        self.sd = _real("normal", sd)
        if self.sd <= 0.0:
            raise ParameterError(f"normal needs sd > 0, got ({self.mean}, {self.sd})")

    def nl_pdf(self, x: float) -> float:
        z = (x - self.mean) / self.sd
        return HALF_LN_TWO_PI + math.log(self.sd) + 0.5 * z * z

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
        self._cum = np.cumsum(probs)
        # A draw past the last cumulative probability (the sum may fall short
        # of 1) is the last state with positive probability.
        self._last = max(i for i, p in enumerate(probs) if p > 0.0)

    def nl_pdf(self, k: int) -> float:
        p = self.probs[k - self.lo]
        # 0.0 - ln p rather than -ln p, so a certain state costs 0.0, not -0.0.
        return math.inf if p == 0.0 else 0.0 - math.log(p)

    def random_v(self, rng) -> int:
        # side="right" never lands on a state of probability 0.
        i = int(np.searchsorted(self._cum, float(rng.random()), side="right"))
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
        return len(v) == self.dim and all(
            c.contains(float(x)) for c, x in zip(self.components, v)
        )

    def nl_pdf(self, v) -> float:
        return math.fsum(c.nl_pdf(float(x)) for c, x in zip(self.components, v))

    def random_v(self, rng) -> np.ndarray:
        return np.array([c.random_v(rng) for c in self.components])

    def params(self) -> dict:
        out = {}
        for i, c in enumerate(self.components):
            for k, val in c.params().items():
                out[f"{i}.{k}"] = val
        return out


# ---------------------------------------------------------------------------
# Transform wrappers (capability preserving)
# ---------------------------------------------------------------------------


class _TransformedFamily(UPModel):
    """A family whose models are the base family's models transformed by f."""

    def __init__(self, base: UPModel, f):
        self.base = base
        self.f = f
        self.name = f"{base.name}.transform({f.name})"
        for attr in _SPACE_ATTRS[base.kind]:
            setattr(self, attr, getattr(base, attr))

    def parameterise(self, sp) -> "Model":
        return self.base.parameterise(sp).transform(self.f)

    def estimator(self, ps=None):
        from .estimation import TransformedEstimator

        return TransformedEstimator(self, ps)


class TransformedContinuousFamily(_TransformedFamily, ContinuousFamily):
    """A continuous family transformed by a Cts2Cts."""


class TransformedVectorFamily(_TransformedFamily, VectorFamily):
    """A vector family transformed by a CtsD2CtsD."""


class TransformedDiscreteFamily(_TransformedFamily, DiscreteFamily):
    """A discrete family transformed by a DiscreteBijection."""


class _TransformedModel(Model):
    """The base model seen through f, by the one rule of every kind: f
    supplies the domain, the map, -ln |Jacobian| and the inverse."""

    def __init__(self, base: Model, f):
        # Not the kind's own __init__: the space attributes come from base.
        Model.__init__(self, base.msg1)
        self.base = base
        self.f = f
        self._f_inv = f.inverse()
        self.name = f"{base.name}.transform({f.name})"
        for attr in _SPACE_ATTRS[base.kind]:
            setattr(self, attr, getattr(base, attr))

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

    def nl_pr_col(self, *columns) -> np.ndarray:
        return self.base.nl_pr_col(*self.f.map_col(*columns))

    def random_v(self, rng):
        return self._preimage(self.base.random_v(rng))

    def random_col(self, rng, n: int):
        drawn = self.base.random_col(rng, n)
        with np.errstate(all="ignore"):
            values = self._f_inv.f_col(drawn)
        doubted = np.flatnonzero(~settled(values)).tolist()
        if not doubted:
            return values
        # The per-value inverse is the reference for these rows: it raises
        # for the first draw without a preimage, or gives the row's value.
        values = list(values) if isinstance(values, tuple) else values.copy()
        for i in doubted:
            v = drawn[i]
            # A scalar row as random_v gives it: a Python float, whose
            # arithmetic raises where numpy's warns, and whose repr is plain.
            values[i] = self._preimage(float(v) if isinstance(v, np.floating) else v)
        return tuple(values) if isinstance(drawn, tuple) else values

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
