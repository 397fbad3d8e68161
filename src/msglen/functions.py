"""First-class function objects.

Three kinds of function can transform data and models:

* ``Cts2Cts``: R -> R maps carrying a pointwise derivative ``d_dx`` and,
  when one-to-one, an inverse.  Applying one to a measured datum scales
  the AoM by ``|f'(x)|``: if the true value can sit anywhere in a window
  of width ``aom``, its image can sit anywhere in a window of width
  ``aom * |f'(x)|``.
* ``CtsD2CtsD``: R^D -> R^D maps carrying a Jacobian matrix and
  ``nl_jacobian_det`` (the negative log of ``|det J|``).  Applying one to
  a vector datum uses the Jacobian rows to set the ratios of the result's
  component AoMs and the determinant to scale them so the total AoM
  volume comes out as ``|det J|`` times the input volume.
* ``DiscreteBijection``: a permutation of a bounded integer space, or a
  pairing with another space of the same size.

All three subclass ``Function`` and share the protocol that transformed
models are built on: ``contains(value)`` (is the value in the function's
domain), ``f(value)`` (the map itself), ``nl_jacobian_det(value)``
(-ln |det J|, which is -ln |f'(x)| for a scalar map and 0 for a bijection
of integers) and ``inverse()``.  The map has a column form, ``f_col``,
that answers for a whole column of values at once, and ``map_col`` maps
columns with their AoMs; ``map_dataset`` and scoring use them.  A column
form gives a non-finite value (``None`` for an integer) for every value
outside the domain or that the per-value method rejects.  Only ``log``,
``exp``, ``linear`` and ``cartesian2polar`` give them with numpy; every
other function answers for a column through its per-value methods.

Function objects are immutable and pure; they are shared library values
addressable by name (``log``, ``exp``, ``polar2cartesian``, ...).
"""

from __future__ import annotations

import math
import reprlib
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTransformError,
    DomainError,
    NotInvertibleError,
    ParameterError,
)
from .values import CtsDatum, DiscreteDatum, VecDatum, each_value

__all__ = [
    "Interval",
    "Domain",
    "IntegerSpace",
    "Function",
    "Cts2Cts",
    "Linear",
    "Composed",
    "compose",
    "CtsD2CtsD",
    "Componentwise",
    "ComponentPermutation",
    "DiscreteBijection",
    "ReversePermutation",
    "Rotation",
    "identity",
    "log",
    "exp",
    "inv",
    "linear",
    "polar2cartesian",
    "cartesian2polar",
    "LIBRARY",
    "FUNCTION_CLASS",
]

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Interval:
    """An open real interval; either end may be infinite."""

    lo: float = -math.inf
    hi: float = math.inf

    def contains(self, x: float) -> bool:
        return self.lo < x < self.hi

    def sample(self, rng) -> float:
        """An interior point, for randomized checks; kept away from finite ends."""
        lo_fin, hi_fin = math.isfinite(self.lo), math.isfinite(self.hi)
        if lo_fin and hi_fin:
            pad = 0.01 * (self.hi - self.lo)
            return float(rng.uniform(self.lo + pad, self.hi - pad))
        if lo_fin:
            return self.lo + 10.0 ** float(rng.uniform(-2.0, 1.0))
        if hi_fin:
            return self.hi - 10.0 ** float(rng.uniform(-2.0, 1.0))
        return float(rng.normal(0.0, 3.0))


class Domain:
    """A union of disjoint intervals; where a scalar function is defined."""

    __slots__ = ("intervals",)

    def __init__(self, *intervals: Interval):
        self.intervals = intervals

    def contains(self, x: float) -> bool:
        # A plain loop: this runs on every scored datum, and any() over a
        # generator costs more than the interval test itself.
        for iv in self.intervals:
            if iv.contains(x):
                return True
        return False

    def sample(self, rng) -> float:
        iv = self.intervals[int(rng.integers(len(self.intervals)))]
        return iv.sample(rng)

    @classmethod
    def real(cls) -> "Domain":
        return cls(Interval())

    @classmethod
    def positive(cls) -> "Domain":
        return cls(Interval(lo=0.0))

    @classmethod
    def nonzero(cls) -> "Domain":
        return cls(Interval(hi=0.0), Interval(lo=0.0))


class IntegerSpace:
    """The bounded integer space [lo, hi], within the signed 64-bit range
    that numpy draws integers from."""

    def __init__(self, lo: int, hi: int):
        lo, hi = _integer("a discrete space", lo), _integer("a discrete space", hi)
        if lo > hi:
            raise ParameterError(f"empty space [{lo}, {hi}]")
        if lo < -(2**63) or hi > 2**63 - 1:
            raise ParameterError(f"[{lo}, {hi}] is outside the signed 64-bit range")
        self.lo = lo
        self.hi = hi

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def space(self) -> range:
        return range(self.lo, self.hi + 1)

    def contains(self, k: int) -> bool:
        return self.lo <= k <= self.hi


def _real(what: str, value) -> float:
    """value as a float; anything but a finite real number is a ParameterError."""
    try:
        if math.isfinite(value):
            return float(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ParameterError(f"{what} takes finite real arguments, got {reprlib.repr(value)}")


def _integer(what: str, value) -> int:
    """value as an int; anything but an integral number is a ParameterError."""
    try:
        if isinstance(value, int) or _real(what, value).is_integer():
            return int(value)
    except ParameterError:
        pass
    raise ParameterError(f"{what} takes integer arguments, got {reprlib.repr(value)}")


def _each_contained(owner, fn, column, fill) -> list:
    """each_value of fn over a column, with fill for every value outside
    owner's domain or support (``owner.contains``)."""
    return each_value(lambda v: fn(v) if owner.contains(v) else fill, column, fill)


class _PreimageDomain(Domain):
    """Points of `inner`'s domain whose image lands in `outer`'s domain."""

    __slots__ = ("inner", "outer_domain")

    def __init__(self, inner: "Cts2Cts", outer_domain: Domain):
        self.inner = inner
        self.outer_domain = outer_domain

    def contains(self, x: float) -> bool:
        if not self.inner.domain.contains(x):
            return False
        try:
            return self.outer_domain.contains(self.inner.apply_x(x))
        except (OverflowError, ValueError):
            return False

    def sample(self, rng) -> float:
        for _ in range(200):
            x = self.inner.domain.sample(rng)
            if self.contains(x):
                return x
        raise DomainError("could not sample the composed domain")


class Function:
    """The paper's class Function: a named map of one data kind.  Its
    ``inverse()`` raises NotInvertibleError unless a one-to-one subclass
    overrides it.

    The map and its Jacobian have column forms, named with a ``_col``
    suffix, that answer for a whole column of values at once (a float64
    array of shape (N,) or (N, D), or a tuple of ints), and ``map_col``
    maps the columns that ``DataSet.columns`` gives.  Every column form,
    ``map_col`` included, gives a non-finite value, or None for an integer,
    for every value outside the domain or that the per-value method
    rejects, and ``values.settled`` reads those marks.  The defaults loop
    over the per-value methods, so a subclass needs only those; numpy
    overrides exist only where a benchmark workload or check suite runs them.
    """

    name = "?"

    def inverse(self) -> "Function":
        raise NotInvertibleError(f"{self.name} declares no inverse")

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"


class Cts2Cts(Function):
    """A scalar function with a pointwise derivative; may declare an inverse."""

    domain: Domain = Domain.real()

    def apply_x(self, x: float) -> float:
        raise NotImplementedError

    def d_dx(self, x: float) -> float:
        raise NotImplementedError

    def contains(self, x: float) -> bool:
        return self.domain.contains(x)

    def __call__(self, x: float) -> float:
        return self.apply_x(x)

    def _slope(self, x: float) -> float:
        """f'(x) for x in the domain; a zero, non-finite or overflowing
        slope would collapse or blow up the measure, so it is rejected."""
        if not self.domain.contains(x):
            raise DomainError(f"{x!r} is outside the domain of {self.name}")
        try:
            slope = self.d_dx(x)
        except (OverflowError, ZeroDivisionError):
            slope = math.inf
        if slope == 0.0 or not math.isfinite(slope):
            raise DegenerateTransformError(
                f"{self.name} has derivative {slope!r} at {x!r}; the AoM cannot scale by it"
            )
        return slope

    def nl_jacobian_det(self, x: float) -> float:
        """-ln |f'(x)|, in nits: the 1 x 1 case of the vector maps' rule."""
        return -math.log(abs(self._slope(x)))

    def f_col(self, x: np.ndarray) -> np.ndarray:
        return np.array(_each_contained(self, self.apply_x, x, math.nan), dtype=np.float64)

    def d_dx_col(self, x: np.ndarray) -> np.ndarray:
        return np.array(each_value(self.d_dx, x, math.nan), dtype=np.float64)

    def map_col(self, x: np.ndarray, aom: np.ndarray) -> tuple:
        """The columns (x, aom) of scalar data mapped as ``apply`` maps one
        datum."""
        return self.f_col(x), aom * np.abs(self.d_dx_col(x))

    def apply(self, d: CtsDatum) -> CtsDatum:
        """Map a measured datum; the AoM scales by |f'(x)|."""
        slope = self._slope(d.x)
        try:
            y = self.apply_x(d.x)
        except OverflowError:
            raise DomainError(f"{self.name}({d.x!r}) overflows a float") from None
        return CtsDatum(y, d.aom * abs(slope))


class Identity(Cts2Cts):
    name = "identity"

    def apply_x(self, x: float) -> float:
        return x

    def d_dx(self, x: float) -> float:
        return 1.0

    f_col = apply_x

    def inverse(self) -> Cts2Cts:
        return self


class Log(Cts2Cts):
    name = "log"
    domain = Domain.positive()

    def apply_x(self, x: float) -> float:
        return math.log(x)

    def d_dx(self, x: float) -> float:
        return 1.0 / x

    def f_col(self, x: np.ndarray) -> np.ndarray:
        return np.log(x)

    d_dx_col = d_dx

    def inverse(self) -> Cts2Cts:
        return exp


class Exp(Cts2Cts):
    name = "exp"

    def apply_x(self, x: float) -> float:
        return math.exp(x)

    def d_dx(self, x: float) -> float:
        return math.exp(x)

    def f_col(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    d_dx_col = f_col

    def inverse(self) -> Cts2Cts:
        return log


class Reciprocal(Cts2Cts):
    name = "inv"
    domain = Domain.nonzero()

    def apply_x(self, x: float) -> float:
        return 1.0 / x

    def d_dx(self, x: float) -> float:
        return -1.0 / (x * x)

    # The per-value arithmetic, on arrays.
    f_col = apply_x
    d_dx_col = d_dx

    def inverse(self) -> Cts2Cts:
        return self


class Linear(Cts2Cts):
    """x -> a*x + b with a != 0."""

    def __init__(self, a: float, b: float = 0.0):
        self.a = _real("linear", a)
        self.b = _real("linear", b)
        if self.a == 0.0:
            raise ParameterError(f"linear needs a != 0, got ({self.a}, {self.b})")
        self.name = f"linear({self.a:g},{self.b:g})"

    def apply_x(self, x: float) -> float:
        return self.a * x + self.b

    def d_dx(self, x: float) -> float:
        return self.a

    f_col = apply_x

    def d_dx_col(self, x: np.ndarray) -> np.ndarray:
        return np.full_like(x, self.a)

    def inverse(self) -> Cts2Cts:
        return Linear(1.0 / self.a, -self.b / self.a)


class Composed(Cts2Cts):
    """outer after inner, with the chain-rule derivative."""

    def __init__(self, outer: Cts2Cts, inner: Cts2Cts):
        self.outer = outer
        self.inner = inner
        self.name = f"compose({outer.name},{inner.name})"
        self.domain = _PreimageDomain(inner, outer.domain)

    def apply_x(self, x: float) -> float:
        return self.outer.apply_x(self.inner.apply_x(x))

    def d_dx(self, x: float) -> float:
        return self.outer.d_dx(self.inner.apply_x(x)) * self.inner.d_dx(x)

    def inverse(self) -> Cts2Cts:
        return Composed(self.inner.inverse(), self.outer.inverse())


def compose(outer: Cts2Cts, inner: Cts2Cts) -> Cts2Cts:
    """The function x -> outer(inner(x))."""
    return Composed(outer, inner)


class CtsD2CtsD(Function):
    """An R^D -> R^D map with a Jacobian; may declare an inverse.  Its
    methods take any length-D sequence of floats."""

    dim = 0

    def apply_v(self, v) -> np.ndarray:
        raise NotImplementedError

    def jacobian(self, v) -> np.ndarray:
        """The D x D matrix of partial derivatives at v."""
        raise NotImplementedError

    def nl_jacobian_det(self, v) -> float:
        """-ln |det J(v)|, in nits."""
        sign, logabs = np.linalg.slogdet(self.jacobian(v))
        if sign == 0:
            raise DegenerateTransformError(f"{self.name} has a singular Jacobian at {v}")
        return float(-logabs)

    def contains(self, v) -> bool:
        return len(v) == self.dim

    def __call__(self, v) -> np.ndarray:
        return self.apply_v(v)

    def f_col(self, x: np.ndarray) -> np.ndarray:
        """The (N, D) array of the rows' images."""
        nan = np.full(self.dim, math.nan)
        y = np.array(_each_contained(self, self.apply_v, x, nan), dtype=np.float64)
        return y.reshape(len(x), self.dim)

    def jacobian_col(self, x: np.ndarray) -> np.ndarray:
        """The (N, D, D) stack of the rows' Jacobians."""
        nan = np.full((self.dim, self.dim), math.nan)
        jac = np.array(each_value(self.jacobian, x, nan), dtype=np.float64)
        return jac.reshape(len(x), self.dim, self.dim)

    def nl_jacobian_det_col(self, x: np.ndarray) -> np.ndarray:
        return np.array(each_value(self.nl_jacobian_det, x, math.nan), dtype=np.float64)

    def map_col(self, x: np.ndarray, aom: np.ndarray) -> tuple:
        """The columns (x, aom) of vector data mapped as ``apply`` maps one
        datum; a row ``apply`` rejects gets a NaN image or NaN or 0 AoMs."""
        if x.shape[1] != self.dim:
            return np.full_like(x, math.nan), aom
        nlj = self.nl_jacobian_det_col(x)
        raw = (np.abs(self.jacobian_col(x)) * aom[:, None, :]).sum(axis=2)
        log_raw = np.log(raw)
        log_target = -nlj + np.log(aom).sum(axis=1)
        log_scale = (log_target - log_raw.sum(axis=1)) / self.dim
        out_aoms = np.exp(log_scale[:, None] + log_raw)
        got = np.log(out_aoms).sum(axis=1)
        kept = np.abs(got - log_target) <= 1e-9 * np.maximum(1.0, np.abs(log_target))
        return self.f_col(x), np.where(kept[:, None], out_aoms, math.nan)

    def apply(self, d: VecDatum) -> VecDatum:
        """Map a measured vector datum, propagating its component AoMs.

        The Jacobian rows set the AoM ratios (first-order interval
        propagation, raw_i = sum_j |J_ij| aom_j) and a single scale factor
        then makes the product of the result AoMs equal |det J| times the
        product of the input AoMs.
        """
        if d.dim != self.dim:
            raise DomainError(f"{self.name} maps R^{self.dim}, got a {d.dim}-vector")
        v = d.components
        if not self.contains(v):
            raise DomainError(f"{v} is outside the domain of {self.name}")
        nlj = self.nl_jacobian_det(v)
        raw = np.abs(self.jacobian(v)) @ d.aoms
        if np.any(raw == 0.0) or not np.all(np.isfinite(raw)):
            raise DegenerateTransformError(f"{self.name} collapses an AoM component at {v}")
        log_target = -nlj + math.fsum(math.log(a) for a in d.aoms)
        log_scale = (log_target - float(np.sum(np.log(raw)))) / self.dim
        out_aoms = np.exp(log_scale + np.log(raw))
        got = float(np.sum(np.log(out_aoms)))
        if abs(got - log_target) > 1e-9 * max(1.0, abs(log_target)):
            raise DegenerateTransformError(
                f"{self.name} failed to preserve the AoM volume at {v}"
            )
        return VecDatum(self.apply_v(v), out_aoms)


class Polar2Cartesian(CtsD2CtsD):
    """(r, theta) -> (r cos theta, r sin theta); r > 0, theta in [0, 2*pi)."""

    name = "polar2cartesian"
    dim = 2

    def contains(self, v) -> bool:
        return len(v) == self.dim and v[0] > 0.0 and 0.0 <= v[1] < TWO_PI

    def apply_v(self, v) -> np.ndarray:
        r, theta = v
        return np.array([r * math.cos(theta), r * math.sin(theta)])

    def jacobian(self, v) -> np.ndarray:
        r, theta = v
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -r * s], [s, r * c]])

    def nl_jacobian_det(self, v) -> float:
        r = v[0]
        if r <= 0.0:
            raise DegenerateTransformError("polar2cartesian needs r > 0")
        return -math.log(r)

    def inverse(self) -> CtsD2CtsD:
        return cartesian2polar


class Cartesian2Polar(CtsD2CtsD):
    """(x, y) -> (r, theta) with r > 0 and theta in [0, 2*pi); singular at the origin."""

    name = "cartesian2polar"
    dim = 2

    def contains(self, v) -> bool:
        return len(v) == self.dim and math.hypot(*v) > 0.0

    def apply_v(self, v) -> np.ndarray:
        x, y = v
        theta = math.atan2(y, x) % TWO_PI
        if theta >= TWO_PI:  # tiny negative angles round up to 2*pi
            theta = 0.0
        return np.array([math.hypot(x, y), theta])

    def jacobian(self, v) -> np.ndarray:
        x, y = v
        r = math.hypot(x, y)
        if r == 0.0:
            raise DomainError("cartesian2polar is singular at the origin")
        r2 = r * r
        if r2 == 0.0:
            raise DegenerateTransformError(f"the Jacobian of cartesian2polar overflows at {v}")
        return np.array([[x / r, y / r], [-y / r2, x / r2]])

    def nl_jacobian_det(self, v) -> float:
        r = math.hypot(*v)
        if r == 0.0:
            raise DegenerateTransformError("cartesian2polar is singular at the origin")
        return math.log(r)

    def f_col(self, x: np.ndarray) -> np.ndarray:
        r = np.hypot(x[:, 0], x[:, 1])
        theta = np.arctan2(x[:, 1], x[:, 0]) % TWO_PI
        theta[theta >= TWO_PI] = 0.0  # tiny negative angles round up to 2*pi
        theta[r == 0.0] = math.nan  # the origin is outside the domain
        return np.column_stack((r, theta))

    def jacobian_col(self, x: np.ndarray) -> np.ndarray:
        # At the origin, or where r*r underflows, the entries are not finite.
        xs, ys = x[:, 0], x[:, 1]
        r = np.hypot(xs, ys)
        r2 = r * r
        return _stack_2x2(xs / r, ys / r, -ys / r2, xs / r2)

    def nl_jacobian_det_col(self, x: np.ndarray) -> np.ndarray:
        return np.log(np.hypot(x[:, 0], x[:, 1]))

    def inverse(self) -> CtsD2CtsD:
        return polar2cartesian


def _floats(v) -> tuple:
    # The parts are scalar functions, which rely on Python float arithmetic
    # raising ZeroDivisionError or OverflowError; a numpy scalar (as in the
    # array an enclosing vector map returns) would warn and give inf instead.
    return tuple(map(float, v))


def _stack_2x2(a, b, c, d) -> np.ndarray:
    """The (N, 2, 2) stack of the matrices [[a, b], [c, d]], from columns."""
    return np.stack((np.stack((a, b), axis=-1), np.stack((c, d), axis=-1)), axis=1)


class Componentwise(CtsD2CtsD):
    """Independent scalar functions applied per component; diagonal Jacobian."""

    def __init__(self, parts: "list[Cts2Cts] | tuple[Cts2Cts, ...]"):
        parts = tuple(parts)
        if not parts:
            raise ParameterError("componentwise needs at least one function")
        self.parts = parts
        self.dim = len(parts)
        self.name = f"componentwise({','.join(p.name for p in parts)})"

    def contains(self, v) -> bool:
        return len(v) == self.dim and all(p.contains(x) for p, x in zip(self.parts, _floats(v)))

    def apply_v(self, v) -> np.ndarray:
        return np.array([p.apply_x(x) for p, x in zip(self.parts, _floats(v))])

    def jacobian(self, v) -> np.ndarray:
        return np.diag([p.d_dx(x) for p, x in zip(self.parts, _floats(v))])

    def nl_jacobian_det(self, v) -> float:
        return math.fsum(p.nl_jacobian_det(x) for p, x in zip(self.parts, _floats(v)))

    def inverse(self) -> CtsD2CtsD:
        return Componentwise([p.inverse() for p in self.parts])


class ComponentPermutation(CtsD2CtsD):
    """Reorder components; the Jacobian is a permutation matrix."""

    def __init__(self, perm: "list[int] | tuple[int, ...]"):
        perm = tuple(_integer("permute", i) for i in perm)
        if sorted(perm) != list(range(len(perm))):
            raise ParameterError(f"{perm} is not a permutation of 0..{len(perm) - 1}")
        self.perm = perm
        self.dim = len(perm)
        self.name = f"permute({','.join(str(i) for i in perm)})"

    def apply_v(self, v) -> np.ndarray:
        v = np.asarray(v, dtype=float)
        return v[list(self.perm)]

    def jacobian(self, v) -> np.ndarray:
        m = np.zeros((self.dim, self.dim))
        for i, j in enumerate(self.perm):
            m[i, j] = 1.0
        return m

    def nl_jacobian_det(self, v) -> float:
        return 0.0

    def inverse(self) -> CtsD2CtsD:
        inverse_perm = [0] * self.dim
        for i, j in enumerate(self.perm):
            inverse_perm[j] = i
        return ComponentPermutation(inverse_perm)


class DiscreteBijection(IntegerSpace, Function):
    """A one-to-one map of the bounded integer space [lo, hi] onto itself."""

    def apply_i(self, k: int) -> int:
        raise NotImplementedError

    def nl_jacobian_det(self, k: int) -> float:
        """A bijection of integers moves no probability mass: 0 nits."""
        return 0.0

    def __call__(self, k: int) -> int:
        return self.apply_i(k)

    def f_col(self, values) -> tuple:
        return tuple(_each_contained(self, self.apply_i, values, None))

    def map_col(self, values) -> tuple:
        """The mapped column (values,) of discrete data."""
        return (self.f_col(values),)

    def apply(self, d: DiscreteDatum) -> DiscreteDatum:
        if not self.contains(d.value):
            raise DomainError(f"{d.value} is outside [{self.lo}, {self.hi}]")
        return DiscreteDatum(self.apply_i(d.value))


class ReversePermutation(DiscreteBijection):
    """k -> lo + hi - k; its own inverse."""

    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"reverse[{lo},{hi}]"

    def apply_i(self, k: int) -> int:
        return self.lo + self.hi - k

    def inverse(self) -> DiscreteBijection:
        return self


class Rotation(DiscreteBijection):
    """k -> lo + ((k - lo + shift) mod size)."""

    def __init__(self, lo: int, hi: int, shift: int):
        super().__init__(lo, hi)
        self.shift = _integer("rotate", shift)
        self.name = f"rotate({self.shift})[{lo},{hi}]"

    def apply_i(self, k: int) -> int:
        return self.lo + (k - self.lo + self.shift) % self.size

    def inverse(self) -> DiscreteBijection:
        return Rotation(self.lo, self.hi, -self.shift)


identity = Identity()
log = Log()
exp = Exp()
inv = Reciprocal()
polar2cartesian = Polar2Cartesian()
cartesian2polar = Cartesian2Polar()


def linear(a: float, b: float = 0.0) -> Linear:
    return Linear(a, b)


# Zero-argument functions addressable by name (CLI and model expressions).
LIBRARY: dict[str, Function] = {
    f.name: f for f in (identity, log, exp, inv, polar2cartesian, cartesian2polar)
}

# The function class that maps each data kind ("cts", "vec", "discrete", as
# in DataSet.kind and the models' ``kind``) and so transforms its models.
FUNCTION_CLASS: dict[str, type[Function]] = {
    "cts": Cts2Cts,
    "vec": CtsD2CtsD,
    "discrete": DiscreteBijection,
}
