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

All three share the protocol that transformed models are built on:
``contains(value)`` (is the value in the function's domain), ``f(value)``
(the map itself), ``nl_jacobian_det(value)`` (-ln |det J|, which is
-ln |f'(x)| for a scalar map and 0 for a bijection of integers) and
``inverse()``.

Function objects are immutable and pure; they are shared library values
addressable by name (``log``, ``exp``, ``polar2cartesian``, ...).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateTransformError,
    DomainError,
    NotInvertibleError,
    ParameterError,
)
from .values import CtsDatum, DiscreteDatum, VecDatum

__all__ = [
    "Interval",
    "Domain",
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


class Cts2Cts:
    """A scalar function with a pointwise derivative; may declare an inverse."""

    name = "?"
    domain: Domain = Domain.real()

    def apply_x(self, x: float) -> float:
        raise NotImplementedError

    def d_dx(self, x: float) -> float:
        raise NotImplementedError

    def inverse(self) -> "Cts2Cts":
        raise NotInvertibleError(f"{self.name} declares no inverse")

    def contains(self, x: float) -> bool:
        return self.domain.contains(x)

    def __call__(self, x: float) -> float:
        return self.apply_x(x)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    def _slope(self, x: float) -> float:
        """f'(x) for x in the domain; a zero, non-finite or overflowing
        slope would collapse or blow up the measure, so it is rejected."""
        if not self.domain.contains(x):
            raise DomainError(f"{x!r} is outside the domain of {self.name}")
        try:
            slope = self.d_dx(x)
        except OverflowError:
            slope = math.inf
        if slope == 0.0 or not math.isfinite(slope):
            raise DegenerateTransformError(
                f"{self.name} has derivative {slope!r} at {x!r}; the AoM cannot scale by it"
            )
        return slope

    def nl_jacobian_det(self, x: float) -> float:
        """-ln |f'(x)|, in nits: the 1 x 1 case of the vector maps' rule."""
        return -math.log(abs(self._slope(x)))

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

    def inverse(self) -> Cts2Cts:
        return self


class Log(Cts2Cts):
    name = "log"
    domain = Domain.positive()

    def apply_x(self, x: float) -> float:
        return math.log(x)

    def d_dx(self, x: float) -> float:
        return 1.0 / x

    def inverse(self) -> Cts2Cts:
        return exp


class Exp(Cts2Cts):
    name = "exp"

    def apply_x(self, x: float) -> float:
        return math.exp(x)

    def d_dx(self, x: float) -> float:
        return math.exp(x)

    def inverse(self) -> Cts2Cts:
        return log


class Reciprocal(Cts2Cts):
    name = "inv"
    domain = Domain.nonzero()

    def apply_x(self, x: float) -> float:
        return 1.0 / x

    def d_dx(self, x: float) -> float:
        return -1.0 / (x * x)

    def inverse(self) -> Cts2Cts:
        return self


class Linear(Cts2Cts):
    """x -> a*x + b with a != 0."""

    def __init__(self, a: float, b: float = 0.0):
        if a == 0.0 or not (math.isfinite(a) and math.isfinite(b)):
            raise ParameterError(f"linear needs finite a != 0 and finite b, got ({a}, {b})")
        self.a = float(a)
        self.b = float(b)
        self.name = f"linear({self.a:g},{self.b:g})"

    def apply_x(self, x: float) -> float:
        return self.a * x + self.b

    def d_dx(self, x: float) -> float:
        return self.a

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


class CtsD2CtsD:
    """An R^D -> R^D map with a Jacobian; may declare an inverse."""

    name = "?"
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

    def inverse(self) -> "CtsD2CtsD":
        raise NotInvertibleError(f"{self.name} declares no inverse")

    def contains(self, v) -> bool:
        return True

    def __call__(self, v) -> np.ndarray:
        return self.apply_v(v)

    def __repr__(self) -> str:
        return f"<{type(self).__name__} {self.name}>"

    def apply(self, d: VecDatum) -> VecDatum:
        """Map a measured vector datum, propagating its component AoMs.

        The Jacobian rows set the AoM ratios (first-order interval
        propagation, raw_i = sum_j |J_ij| aom_j) and a single scale factor
        then makes the product of the result AoMs equal |det J| times the
        product of the input AoMs.
        """
        if d.dim != self.dim:
            raise DomainError(f"{self.name} maps R^{self.dim}, got a {d.dim}-vector")
        v = np.asarray(d.components, dtype=float)
        if not self.contains(v):
            raise DomainError(f"{tuple(v)} is outside the domain of {self.name}")
        nlj = self.nl_jacobian_det(v)
        raw = np.abs(self.jacobian(v)) @ np.asarray(d.aoms, dtype=float)
        if np.any(raw == 0.0) or not np.all(np.isfinite(raw)):
            raise DegenerateTransformError(
                f"{self.name} collapses an AoM component at {tuple(v)}"
            )
        log_target = -nlj + math.fsum(math.log(a) for a in d.aoms)
        log_scale = (log_target - float(np.sum(np.log(raw)))) / self.dim
        out_aoms = np.exp(log_scale + np.log(raw))
        got = float(np.sum(np.log(out_aoms)))
        if abs(got - log_target) > 1e-9 * max(1.0, abs(log_target)):
            raise DegenerateTransformError(
                f"{self.name} failed to preserve the AoM volume at {tuple(v)}"
            )
        out = self.apply_v(v)
        return VecDatum(tuple(float(c) for c in out), tuple(float(a) for a in out_aoms))


class Polar2Cartesian(CtsD2CtsD):
    """(r, theta) -> (r cos theta, r sin theta); r > 0, theta in [0, 2*pi)."""

    name = "polar2cartesian"
    dim = 2

    def contains(self, v) -> bool:
        r, theta = float(v[0]), float(v[1])
        return r > 0.0 and 0.0 <= theta < TWO_PI

    def apply_v(self, v) -> np.ndarray:
        r, theta = float(v[0]), float(v[1])
        return np.array([r * math.cos(theta), r * math.sin(theta)])

    def jacobian(self, v) -> np.ndarray:
        r, theta = float(v[0]), float(v[1])
        c, s = math.cos(theta), math.sin(theta)
        return np.array([[c, -r * s], [s, r * c]])

    def nl_jacobian_det(self, v) -> float:
        r = float(v[0])
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
        return math.hypot(float(v[0]), float(v[1])) > 0.0

    def apply_v(self, v) -> np.ndarray:
        x, y = float(v[0]), float(v[1])
        theta = math.atan2(y, x) % TWO_PI
        if theta >= TWO_PI:  # tiny negative angles round up to 2*pi
            theta = 0.0
        return np.array([math.hypot(x, y), theta])

    def jacobian(self, v) -> np.ndarray:
        x, y = float(v[0]), float(v[1])
        r = math.hypot(x, y)
        if r == 0.0:
            raise DomainError("cartesian2polar is singular at the origin")
        r2 = r * r
        return np.array([[x / r, y / r], [-y / r2, x / r2]])

    def nl_jacobian_det(self, v) -> float:
        r = math.hypot(float(v[0]), float(v[1]))
        if r == 0.0:
            raise DegenerateTransformError("cartesian2polar is singular at the origin")
        return math.log(r)

    def inverse(self) -> CtsD2CtsD:
        return polar2cartesian


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
        return all(p.contains(float(x)) for p, x in zip(self.parts, v))

    def apply_v(self, v) -> np.ndarray:
        return np.array([p.apply_x(float(x)) for p, x in zip(self.parts, v)])

    def jacobian(self, v) -> np.ndarray:
        return np.diag([p.d_dx(float(x)) for p, x in zip(self.parts, v)])

    def nl_jacobian_det(self, v) -> float:
        return math.fsum(p.nl_jacobian_det(float(x)) for p, x in zip(self.parts, v))

    def inverse(self) -> CtsD2CtsD:
        return Componentwise([p.inverse() for p in self.parts])


class ComponentPermutation(CtsD2CtsD):
    """Reorder components; the Jacobian is a permutation matrix."""

    def __init__(self, perm: "list[int] | tuple[int, ...]"):
        perm = tuple(int(i) for i in perm)
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


class DiscreteBijection:
    """A one-to-one map of the bounded integer space [lo, hi] onto itself."""

    name = "?"

    def __init__(self, lo: int, hi: int):
        if lo > hi:
            raise ParameterError(f"empty space [{lo}, {hi}]")
        self.lo = int(lo)
        self.hi = int(hi)

    @property
    def size(self) -> int:
        return self.hi - self.lo + 1

    def apply_i(self, k: int) -> int:
        raise NotImplementedError

    def inverse(self) -> "DiscreteBijection":
        raise NotInvertibleError(f"{self.name} declares no inverse")

    def contains(self, k: int) -> bool:
        return self.lo <= k <= self.hi

    def nl_jacobian_det(self, k: int) -> float:
        """A bijection of integers moves no probability mass: 0 nits."""
        return 0.0

    def __call__(self, k: int) -> int:
        return self.apply_i(k)

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
        self.shift = int(shift)
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
LIBRARY: dict[str, Cts2Cts | CtsD2CtsD] = {
    f.name: f for f in (identity, log, exp, inv, polar2cartesian, cartesian2polar)
}

# The function class that maps each data kind ("cts", "vec", "discrete", as
# in DataSet.kind and the models' ``kind``) and so transforms its models.
FUNCTION_CLASS: dict[str, type] = {
    "cts": Cts2Cts,
    "vec": CtsD2CtsD,
    "discrete": DiscreteBijection,
}
