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
domain: every finite real for a scalar map unless it says otherwise, as
``log`` and ``inv`` do), ``f(value)`` (the map itself, which each
subclass defines as ``__call__``), ``nl_jacobian_det(value)`` (-ln |det
J|, which is -ln |f'(x)| for a scalar map and 0 for a bijection of
integers) and ``inverse()``.  These per-value methods, a scalar map's ``d_dx``, a
vector map's ``jacobian`` (a tuple of rows) and ``apply`` compute with
``math`` on floats and tuples; numpy serves them only as the ``slogdet``
default of ``nl_jacobian_det``.  So a per-value answer is the same bytes
at every numpy SIMD level, on one platform with one libm.  The column
forms (``f_col``, ``map_col``; see ``Function``) answer for a whole column
at once, for ``map_dataset`` and cost columns.  Only ``log``, ``exp``
and ``cartesian2polar`` give them with numpy, as does every scalar
map's ``nl_jacobian_det_col`` (``np.log``); numpy's SIMD kernels may
round a last digit differently from ``math``, so the digits that
``fit``, ``eval`` and ``sample`` print still follow numpy's CPU dispatch.
Every other function answers through its per-value methods.

Function objects are immutable and pure; they are shared library values
addressable by name (``log``, ``exp``, ``polar2cartesian``, ...).
"""

from __future__ import annotations

import math
import reprlib

import numpy as np

from .errors import (
    DegenerateTransformError,
    DomainError,
    NotInvertibleError,
    ParameterError,
)
from .values import MIN_AOM, CtsDatum, DiscreteDatum, VecDatum, each_value

__all__ = [
    "IntegerSpace",
    "Function",
    "Cts2Cts",
    "Linear",
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


def _each_contained(f, column, fill) -> list:
    """each_value of f over a column, with fill for every value outside
    f's domain (``f.contains``)."""
    return each_value(lambda v: f(v) if f.contains(v) else fill, column, fill)


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
    """A scalar function with a pointwise derivative; may declare an
    inverse.  A subclass defines the map as ``__call__``, its derivative
    as ``d_dx`` and, if it is narrower than the finite reals, its domain
    as ``contains``; every checked path asks ``contains``."""

    def d_dx(self, x: float) -> float:
        raise NotImplementedError

    def contains(self, x: float) -> bool:
        return -math.inf < x < math.inf

    def _slope(self, x: float) -> float:
        """f'(x) for x in the domain; a zero, non-finite or overflowing
        slope would collapse or blow up the measure, so it is rejected."""
        if not self.contains(x):
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
        return np.array(_each_contained(self, x, math.nan), dtype=np.float64)

    def d_dx_col(self, x: np.ndarray) -> np.ndarray:
        return np.array(each_value(self.d_dx, x, math.nan), dtype=np.float64)

    def nl_jacobian_det_col(self, x: np.ndarray) -> np.ndarray:
        return -np.log(np.abs(self.d_dx_col(x)))

    def map_col(self, x: np.ndarray, aom: np.ndarray) -> tuple:
        """The columns (x, aom) of scalar data mapped as ``apply`` maps one
        datum."""
        return self.f_col(x), aom * np.abs(self.d_dx_col(x))

    def apply(self, d: CtsDatum) -> CtsDatum:
        """Map a measured datum; the AoM scales by |f'(x)|."""
        slope = self._slope(d.x)
        try:
            y = self(d.x)
        except OverflowError:
            raise DomainError(f"{self.name}({d.x!r}) overflows a float") from None
        aom = d.aom * abs(slope)
        if 0.0 < aom < MIN_AOM:
            raise DegenerateTransformError(
                f"{self.name} shrinks the AoM at {d.x!r} to {aom!r}, below the normal floats"
            )
        return CtsDatum(y, aom)


class Identity(Cts2Cts):
    name = "identity"

    def __call__(self, x: float) -> float:
        return x

    def d_dx(self, x: float) -> float:
        return 1.0

    def inverse(self) -> Cts2Cts:
        return self


class Log(Cts2Cts):
    name = "log"

    def contains(self, x: float) -> bool:
        return 0.0 < x < math.inf

    def __call__(self, x: float) -> float:
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

    def __call__(self, x: float) -> float:
        return math.exp(x)

    d_dx = __call__

    def f_col(self, x: np.ndarray) -> np.ndarray:
        return np.exp(x)

    d_dx_col = f_col

    def inverse(self) -> Cts2Cts:
        return log


class Reciprocal(Cts2Cts):
    name = "inv"

    def contains(self, x: float) -> bool:
        return 0.0 < abs(x) < math.inf

    def __call__(self, x: float) -> float:
        return 1.0 / x

    def d_dx(self, x: float) -> float:
        return -1.0 / (x * x)

    def inverse(self) -> Cts2Cts:
        return self


def _text(x: float) -> str:
    """x as ``:g`` writes it where that reads back as x, else its repr."""
    text = f"{x:g}"
    return text if float(text) == x else repr(x)


class Linear(Cts2Cts):
    """x -> a*x + b with a != 0."""

    def __init__(self, a: float, b: float = 0.0):
        self.a = _real("linear", a)
        self.b = _real("linear", b)
        if self.a == 0.0:
            raise ParameterError(f"linear needs a != 0, got ({self.a}, {self.b})")
        self.name = f"linear({_text(self.a)},{_text(self.b)})"

    def __call__(self, x: float) -> float:
        return self.a * x + self.b

    def d_dx(self, x: float) -> float:
        return self.a

    def inverse(self) -> Cts2Cts:
        return Linear(1.0 / self.a, -self.b / self.a)


class CtsD2CtsD(Function):
    """An R^D -> R^D map with a Jacobian; may declare an inverse.  Its
    methods take any length-D sequence of floats.  A subclass defines the
    map, ``__call__``, as a tuple of floats, and its Jacobian,
    ``jacobian(v)``, as the tuple of the D x D matrix's rows."""

    dim = 0

    def jacobian(self, v) -> tuple:
        """The D x D matrix of partial derivatives at v, as a tuple of rows."""
        raise NotImplementedError

    def nl_jacobian_det(self, v) -> float:
        """-ln |det J(v)|, in nits."""
        sign, logabs = np.linalg.slogdet(np.array(self.jacobian(v), dtype=np.float64))
        if sign == 0:
            raise DegenerateTransformError(f"{self.name} has a singular Jacobian at {v}")
        return float(-logabs)

    def contains(self, v) -> bool:
        return len(v) == self.dim

    def f_col(self, x: np.ndarray) -> np.ndarray:
        """The (N, D) array of the rows' images."""
        nan = (math.nan,) * self.dim
        y = np.array(_each_contained(self, x, nan), dtype=np.float64)
        return y.reshape(len(x), self.dim)

    def jacobian_col(self, x: np.ndarray) -> np.ndarray:
        """The (N, D, D) stack of the rows' Jacobians."""
        nan = ((math.nan,) * self.dim,) * self.dim
        jac = np.array(each_value(self.jacobian, x, nan), dtype=np.float64)
        return jac.reshape(len(x), self.dim, self.dim)

    def nl_jacobian_det_col(self, x: np.ndarray) -> np.ndarray:
        return np.array(each_value(self.nl_jacobian_det, x, math.nan), dtype=np.float64)

    def map_col(self, x: np.ndarray, aom: np.ndarray) -> tuple:
        """The columns (x, aom) of vector data mapped as ``apply`` maps one
        datum; a row ``apply`` rejects gets a NaN image, or AoMs that
        ``values.settled`` refuses (only such AoMs can miss the volume)."""
        if x.shape[1] != self.dim:
            return np.full_like(x, math.nan), aom
        nlj = self.nl_jacobian_det_col(x)
        raw = (np.abs(self.jacobian_col(x)) * aom[:, None, :]).sum(axis=2)
        log_raw = np.log(raw)
        log_target = -nlj + np.log(aom).sum(axis=1)
        log_scale = (log_target - log_raw.sum(axis=1)) / self.dim
        return self.f_col(x), np.exp(log_scale[:, None] + log_raw)

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
        log_target = -self.nl_jacobian_det(v) + math.fsum(math.log(a) for a in d.aoms)
        rows = self.jacobian(v)
        try:  # log raises where a raw AoM is 0, and fsum where one overflows
            log_raw = [math.log(math.fsum(abs(j) * a for j, a in zip(r, d.aoms))) for r in rows]
        except (OverflowError, ValueError):
            log_raw = [math.nan]
        if not all(map(math.isfinite, log_raw)):
            raise DegenerateTransformError(f"{self.name} collapses an AoM component at {v}")
        log_scale = (log_target - math.fsum(log_raw)) / self.dim
        try:  # exp and log raise where a mapped AoM overflows or is 0
            out_aoms = [math.exp(log_scale + r) for r in log_raw]
            got = math.fsum(map(math.log, out_aoms))
            lost = abs(got - log_target) > 1e-9 * max(1.0, abs(log_target))
        except (OverflowError, ValueError):
            lost = True
        if lost:
            raise DegenerateTransformError(f"{self.name} failed to preserve the AoM volume at {v}")
        if min(out_aoms) < MIN_AOM:
            raise DegenerateTransformError(
                f"{self.name} shrinks an AoM component at {v} below the normal floats"
            )
        return VecDatum(self(v), out_aoms)


class Polar2Cartesian(CtsD2CtsD):
    """(r, theta) -> (r cos theta, r sin theta); r > 0, theta in [0, 2*pi)."""

    name = "polar2cartesian"
    dim = 2

    def contains(self, v) -> bool:
        return len(v) == self.dim and v[0] > 0.0 and 0.0 <= v[1] < TWO_PI

    def __call__(self, v) -> tuple:
        r, theta = v
        return (r * math.cos(theta), r * math.sin(theta))

    def jacobian(self, v) -> tuple:
        r, theta = v
        c, s = math.cos(theta), math.sin(theta)
        return ((c, -r * s), (s, r * c))

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

    def __call__(self, v) -> tuple:
        x, y = v
        theta = math.atan2(y, x) % TWO_PI
        if theta >= TWO_PI:  # tiny negative angles round up to 2*pi
            theta = 0.0
        return (math.hypot(x, y), theta)

    def jacobian(self, v) -> tuple:
        x, y = v
        r = math.hypot(x, y)
        if r == 0.0:
            raise DomainError("cartesian2polar is singular at the origin")
        r2 = r * r
        if r2 == 0.0:
            raise DegenerateTransformError(f"the Jacobian of cartesian2polar overflows at {v}")
        return ((x / r, y / r), (-y / r2, x / r2))

    def nl_jacobian_det(self, v) -> float:
        # It refuses wherever jacobian does, so a cost and a fit's mapped
        # AoMs refuse the same rows.
        r = math.hypot(*v)
        if r == 0.0:
            raise DegenerateTransformError("cartesian2polar is singular at the origin")
        if r * r == 0.0:
            raise DegenerateTransformError(f"the Jacobian of cartesian2polar overflows at {v}")
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
        return np.stack((np.stack((xs / r, ys / r), -1), np.stack((-ys / r2, xs / r2), -1)), axis=1)

    def nl_jacobian_det_col(self, x: np.ndarray) -> np.ndarray:
        r = np.hypot(x[:, 0], x[:, 1])
        nl = np.log(r)
        nl[r * r == 0.0] = math.nan  # a row nl_jacobian_det refuses
        return nl

    def inverse(self) -> CtsD2CtsD:
        return polar2cartesian


def _floats(v) -> tuple:
    # The parts are scalar functions, which rely on Python float arithmetic
    # raising ZeroDivisionError or OverflowError; a numpy scalar (as in a row
    # of an array) would warn and give inf instead.
    return tuple(map(float, v))


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

    def __call__(self, v) -> tuple:
        return tuple([p(x) for p, x in zip(self.parts, _floats(v))])

    def jacobian(self, v) -> tuple:
        slopes = [p.d_dx(x) for p, x in zip(self.parts, _floats(v))]
        cols = range(self.dim)
        return tuple(tuple(s if i == j else 0.0 for j in cols) for i, s in enumerate(slopes))

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
        # The same permutation matrix at every point: row i picks component perm[i].
        self._jacobian = tuple(tuple(float(k == j) for k in range(self.dim)) for j in perm)

    def __call__(self, v) -> tuple:
        return tuple([v[j] for j in self.perm])

    def jacobian(self, v) -> tuple:
        return self._jacobian

    def nl_jacobian_det(self, v) -> float:
        return 0.0

    def inverse(self) -> CtsD2CtsD:
        # The inverse q has q[perm[i]] = i: the indices i in the order of perm[i].
        return ComponentPermutation(sorted(range(self.dim), key=self.perm.__getitem__))


class DiscreteBijection(IntegerSpace, Function):
    """A one-to-one map of the bounded integer space [lo, hi] onto itself;
    a subclass defines the map as ``__call__``."""

    def nl_jacobian_det(self, k: int) -> float:
        """A bijection of integers moves no probability mass: 0 nits."""
        return 0.0

    nl_jacobian_det_col = nl_jacobian_det

    def f_col(self, values) -> tuple:
        return tuple(_each_contained(self, values, None))

    def map_col(self, values) -> tuple:
        """The mapped column (values,) of discrete data."""
        return (self.f_col(values),)

    def apply(self, d: DiscreteDatum) -> DiscreteDatum:
        if not self.contains(d.value):
            raise DomainError(f"{d.value} is outside [{self.lo}, {self.hi}]")
        return DiscreteDatum(self(d.value))


class ReversePermutation(DiscreteBijection):
    """k -> lo + hi - k; its own inverse."""

    def __init__(self, lo: int, hi: int):
        super().__init__(lo, hi)
        self.name = f"reverse[{lo},{hi}]"

    def __call__(self, k: int) -> int:
        return self.lo + self.hi - k

    def inverse(self) -> DiscreteBijection:
        return self


class Rotation(DiscreteBijection):
    """k -> lo + ((k - lo + shift) mod size)."""

    def __init__(self, lo: int, hi: int, shift: int):
        super().__init__(lo, hi)
        self.shift = _integer("rotate", shift)
        self.name = f"rotate({self.shift})[{lo},{hi}]"

    def __call__(self, k: int) -> int:
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
