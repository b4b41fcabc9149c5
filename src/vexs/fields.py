"""Test functions u : R^n -> R with gradients, tail bounds, and kink data.

Each family carries whatever analytic side information the integrators
exploit: exact suprema, Lipschitz constants, support radii, inverse tail
bounds, and the 1D locations of kinks or jumps (used to seed quadrature
panel edges).  Gradients are analytic where the family permits, else
central finite differences with a step that scales with |x|.
"""

from __future__ import annotations

import math
from functools import cache

import numpy as np

from .errors import DomainError, DivergenceError, UnsupportedFieldError
from .exponents import as_points
from .quadrature import bisect_bracket, golden_max

_FD_STEP = 1e-5


def _square_norms(pts: np.ndarray, center=None) -> np.ndarray:
    """The squared norms of the rows of pts - center (of pts when center
    is None): the floats of np.sum(d * d, axis=1), added column by column
    in the same order, with one column's square alive beside the sum.
    numpy's broadcasts and reductions over a short row axis are about
    four to ten times slower."""
    out = None
    for j in range(pts.shape[1]):
        if center is None:
            d = pts[:, j] * pts[:, j]
        else:
            d = pts[:, j] - center[j]
            d *= d
        if out is None:
            out = d
        else:
            out += d
    return out


class ScalarField:
    """Base class; subclasses fill in the family specifics.

    Attributes
    ----------
    dimension : int
    family : str
    gradient_kind : "analytic" or "finite-difference"
    sup_bound : sup |u| (exact for every family)
    osc_bound : sup u - inf u
    lipschitz_bound : global Lipschitz constant, or None
    support_radius : radius of the support, or None if unbounded
    singular_points : tuple of 1D locations where eval is undefined
    radial : True when u(x) depends on |x| alone
    """

    dimension: int = 1
    family: str = "abstract"
    gradient_kind: str = "analytic"
    sup_bound: float = 0.0
    osc_bound: float = 0.0
    lipschitz_bound: float | None = None
    support_radius: float | None = None
    singular_points: tuple = ()
    radial: bool = False

    # -- evaluation ----------------------------------------------------

    def __call__(self, x):
        return self.eval(x)

    def eval(self, x) -> np.ndarray:
        shape, pts = as_points(x, self.dimension)
        if self.singular_points and self.dimension == 1:
            for s in self.singular_points:
                if np.any(pts[:, 0] == s):
                    raise DomainError(f"evaluation at singular point x={s}")
        return self._eval(pts).reshape(shape)

    def grad(self, x) -> np.ndarray:
        shape, pts = as_points(x, self.dimension)
        return self._grad(pts).reshape(shape + (self.dimension,))

    def _eval(self, pts: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def _grad(self, pts: np.ndarray) -> np.ndarray:
        if self.gradient_kind == "analytic":
            raise NotImplementedError
        return self._fd_grad(pts)

    def _fd_grad(self, pts: np.ndarray) -> np.ndarray:
        out = np.empty_like(pts)
        h = _FD_STEP * np.maximum(1.0, np.linalg.norm(pts, axis=1))
        for j in range(self.dimension):
            e = np.zeros(self.dimension)
            e[j] = 1.0
            out[:, j] = (self._eval(pts + h[:, None] * e) -
                         self._eval(pts - h[:, None] * e)) / (2.0 * h)
        return out

    # -- analytic side information --------------------------------------

    def tail_bound(self, radius: float) -> float:
        """An upper bound for sup_{|x| >= radius} |u|."""
        raise UnsupportedFieldError(
            f"{self.family} field has no decaying tail bound")

    def far_radius(self, eta: float) -> float:
        """Smallest radius R (up to slack) with tail_bound(R) <= eta."""
        if self.support_radius is not None:
            return self.support_radius
        hi = 2.0
        while self.tail_bound(hi) > eta:
            hi *= 2.0
            if hi > 1e30:
                raise DivergenceError(
                    f"{self.family} tail never drops below {eta}")
        return bisect_bracket(lambda r: self.tail_bound(r) > eta,
                              1.0, hi, 80)[1]

    def grad_sup_bound(self) -> float:
        """sup |grad u| (equals the Lipschitz constant when declared)."""
        if self.lipschitz_bound is None:
            raise UnsupportedFieldError(
                f"{self.family} field has no gradient bound")
        return self.lipschitz_bound

    def grad_tail_bound(self, radius: float) -> float:
        """Upper bound for sup_{|x| >= radius} |grad u|."""
        if self.support_radius is not None and radius >= self.support_radius:
            return 0.0
        return self.grad_sup_bound()

    def kink_points(self) -> np.ndarray:
        """1D locations where u or its gradient is non-smooth (panel seeds)."""
        return np.array([])

    def support_interval(self) -> tuple[float, float]:
        """Smallest known 1D interval containing the support."""
        if self.support_radius is not None:
            return (-self.support_radius, self.support_radius)
        return (-math.inf, math.inf)

    def __repr__(self):
        return f"{type(self).__name__}(n={self.dimension})"


class Gaussian(ScalarField):
    """u(x) = scale * exp(-|x - center|^2 / sigma^2)."""

    family = "gaussian"

    def __init__(self, sigma: float = 1.0, center=0.0, scale: float = 1.0,
                 dimension: int = 1):
        if sigma <= 0:
            raise DomainError("sigma must be positive")
        self.dimension = dimension
        self.sigma = float(sigma)
        c = np.atleast_1d(np.asarray(center, dtype=float))
        if c.size == 1 and dimension > 1:
            c = np.full(dimension, float(c[0]))
        if c.shape != (dimension,):
            raise DomainError("center must match the dimension")
        self.center = c
        self.center_norm = float(np.linalg.norm(c))
        self.scale = float(scale)
        self.sup_bound = abs(self.scale)
        self.osc_bound = abs(self.scale)
        # max of |u'| = (2r/sigma^2) e^{-r^2/sigma^2} at r = sigma/sqrt(2)
        self.lipschitz_bound = abs(self.scale) * math.sqrt(2.0 / math.e) / self.sigma

    @property
    def radial(self) -> bool:
        return not np.any(self.center)

    def _eval(self, pts):
        # the floats of scale * exp(-|x - c|^2 / sigma^2), in one array
        out = _square_norms(pts, self.center)
        np.negative(out, out=out)
        out /= self.sigma ** 2
        np.exp(out, out=out)
        out *= self.scale
        return out

    def _grad(self, pts):
        # the floats of (-2 / sigma^2) * (pts - center) * u[:, None], a
        # column at a time
        u = self._eval(pts)
        c = -2.0 / self.sigma ** 2
        out = np.empty_like(pts)
        for j in range(self.dimension):
            out[:, j] = c * (pts[:, j] - self.center[j]) * u
        return out

    def tail_bound(self, radius):
        r = max(0.0, radius - self.center_norm)
        return abs(self.scale) * math.exp(-(r / self.sigma) ** 2)

    def grad_tail_bound(self, radius):
        r = max(0.0, radius - self.center_norm)
        peak = self.sigma / math.sqrt(2.0)
        if r <= peak:
            return self.lipschitz_bound
        return abs(self.scale) * (2.0 * r / self.sigma ** 2) * \
            math.exp(-(r / self.sigma) ** 2)


class Tent(ScalarField):
    """u(x) = scale * max(0, 1 - |x|).

    The gradient at the support edge |x| = 1 uses the interior branch and
    the apex x = 0 returns slope -scale along the first axis; both are
    measure-zero conventions so integrals are unaffected, but quadrature
    nodes may land there.
    """

    family = "tent"
    radial = True

    def __init__(self, scale: float = 1.0, dimension: int = 1):
        self.dimension = dimension
        self.scale = float(scale)
        self.sup_bound = abs(self.scale)
        self.osc_bound = abs(self.scale)
        self.lipschitz_bound = abs(self.scale)
        self.support_radius = 1.0

    def _eval(self, pts):
        # the floats of scale * max(0, 1 - |x|), in one array
        out = _square_norms(pts)
        np.sqrt(out, out=out)
        np.subtract(1.0, out, out=out)
        np.maximum(0.0, out, out=out)
        out *= self.scale
        return out

    def _grad(self, pts):
        r = np.sqrt(_square_norms(pts))
        out = np.zeros_like(pts)
        inside = (r <= 1.0) & (r > 0.0)
        out[inside] = -self.scale * pts[inside] / r[inside, None]
        apex = r == 0.0
        if np.any(apex):
            out[apex, 0] = -self.scale
        return out

    def tail_bound(self, radius):
        return abs(self.scale) * max(0.0, 1.0 - radius)

    def kink_points(self):
        return np.array([-1.0, 0.0, 1.0])


class SmoothBump(ScalarField):
    """u(x) = scale * exp(-1 / (1 - |x|^2)) inside |x| < 1, zero outside."""

    family = "smooth-bump"
    radial = True

    def __init__(self, scale: float = 1.0, dimension: int = 1):
        self.dimension = dimension
        self.scale = float(scale)
        self.sup_bound = abs(self.scale) * math.exp(-1.0)
        self.osc_bound = self.sup_bound
        self.support_radius = 1.0
        self.lipschitz_bound = abs(self.scale) * _bump_grad_max()

    def _eval(self, pts):
        r2 = _square_norms(pts)
        out = np.zeros(pts.shape[0])
        inside = r2 < 1.0
        out[inside] = self.scale * np.exp(-1.0 / (1.0 - r2[inside]))
        return out

    def _grad(self, pts):
        r2 = _square_norms(pts)
        out = np.zeros_like(pts)
        inside = r2 < 1.0
        q = 1.0 - r2[inside]
        u = self.scale * np.exp(-1.0 / q)
        out[inside] = -2.0 * pts[inside] * (u / q ** 2)[:, None]
        return out

    def tail_bound(self, radius):
        if radius >= 1.0:
            return 0.0
        return abs(self.scale) * math.exp(-1.0 / (1.0 - radius * radius))

    def kink_points(self):
        return np.array([-1.0, 0.0, 1.0])


@cache
def _bump_grad_max() -> float:
    # sup_r 2r exp(-1/(1-r^2)) / (1-r^2)^2 on (0,1); smooth unimodal profile
    def f(r):
        q = 1.0 - r * r
        return 2.0 * r * math.exp(-1.0 / q) / (q * q)
    _, val = golden_max(f, 1e-6, 1.0 - 1e-6, iters=200)
    return val


class PowerTail(ScalarField):
    """u(x) = scale * x^(-1/3) for x >= 2, zero otherwise (1D).

    Discontinuous at x = 2 (no Lipschitz bound); slowly decaying tail.
    """

    family = "power-tail"
    gradient_kind = "analytic"

    def __init__(self, scale: float = 1.0):
        self.dimension = 1
        self.scale = float(scale)
        self.sup_bound = abs(self.scale) * 2.0 ** (-1.0 / 3.0)
        self.osc_bound = self.sup_bound
        self.lipschitz_bound = None

    def _eval(self, pts):
        t = pts[:, 0]
        out = np.zeros(pts.shape[0])
        on = t >= 2.0
        out[on] = self.scale * np.abs(t[on]) ** (-1.0 / 3.0)
        return out

    def _grad(self, pts):
        t = pts[:, 0]
        out = np.zeros_like(pts)
        on = t > 2.0
        out[on, 0] = self.scale * (-1.0 / 3.0) * t[on] ** (-4.0 / 3.0)
        return out

    def tail_bound(self, radius):
        if radius <= 2.0:
            return self.sup_bound
        return abs(self.scale) * radius ** (-1.0 / 3.0)

    def grad_sup_bound(self):
        return abs(self.scale) * (1.0 / 3.0) * 2.0 ** (-4.0 / 3.0)

    def grad_tail_bound(self, radius):
        return abs(self.scale) * (1.0 / 3.0) * max(2.0, radius) ** (-4.0 / 3.0)

    def kink_points(self):
        return np.array([2.0])

    def support_interval(self):
        return (2.0, math.inf)


class LogSingular(ScalarField):
    """u(x) = log|x| on a 1D window (a, b), zero outside; singular at 0."""

    family = "log-singular"

    def __init__(self, window: tuple = (0.0, 1.0)):
        a, b = float(window[0]), float(window[1])
        if not a < b:
            raise DomainError("window must satisfy a < b")
        self.dimension = 1
        self.window = (a, b)
        self.singular_points = (0.0,) if a <= 0.0 <= b else ()
        edge_vals = [abs(math.log(abs(t))) for t in (a, b) if t != 0.0]
        self.sup_bound = math.inf if self.singular_points else max(edge_vals)
        self.osc_bound = self.sup_bound
        self.lipschitz_bound = None

    def _eval(self, pts):
        t = pts[:, 0]
        out = np.zeros(pts.shape[0])
        on = (t > self.window[0]) & (t < self.window[1]) & (t != 0.0)
        out[on] = np.log(np.abs(t[on]))
        return out

    def _grad(self, pts):
        t = pts[:, 0]
        out = np.zeros_like(pts)
        on = (t > self.window[0]) & (t < self.window[1]) & (t != 0.0)
        out[on, 0] = 1.0 / t[on]
        return out

    def kink_points(self):
        return np.array(sorted(set(list(self.window) + [0.0])))


class SampledTable(ScalarField):
    """Piecewise-linear interpolant of (x, u) samples, zero outside the range.

    The gradient is the slope of the active segment.
    """

    family = "sampled-table"

    def __init__(self, xs, us):
        xs = np.asarray(xs, dtype=float)
        us = np.asarray(us, dtype=float)
        if xs.ndim != 1 or xs.size < 2 or np.any(np.diff(xs) <= 0):
            raise DomainError("table abscissae must be strictly increasing")
        if us.shape != xs.shape:
            raise DomainError("table values must match abscissae")
        self.dimension = 1
        self.xs = xs
        self.us = us
        self.slopes = np.diff(us) / np.diff(xs)
        self.sup_bound = float(np.max(np.abs(us)))
        inside_osc = float(np.max(us) - np.min(us))
        # zero extension outside the range is part of the field
        self.osc_bound = float(max(inside_osc, np.max(us) - 0.0, 0.0 - np.min(us)))
        jump = us[0] != 0.0 or us[-1] != 0.0
        self.lipschitz_bound = None if jump else float(
            np.max(np.abs(self.slopes), initial=0.0))
        self.support_radius = float(np.max(np.abs(xs)))

    @classmethod
    def from_csv(cls, path) -> "SampledTable":
        data = np.loadtxt(path, delimiter=",", dtype=float)
        if data.ndim != 2 or data.shape[1] != 2:
            raise DomainError(f"{path}: expected two columns (x, u)")
        return cls(data[:, 0], data[:, 1])

    def _eval(self, pts):
        t = pts[:, 0]
        out = np.interp(t, self.xs, self.us)
        out[(t < self.xs[0]) | (t > self.xs[-1])] = 0.0
        return out

    def _grad(self, pts):
        t = pts[:, 0]
        out = np.zeros_like(pts)
        inside = (t >= self.xs[0]) & (t <= self.xs[-1])
        idx = np.clip(np.searchsorted(self.xs, t[inside], side="right") - 1,
                      0, self.slopes.size - 1)
        out[inside, 0] = self.slopes[idx]
        return out

    def tail_bound(self, radius):
        if radius >= self.support_radius:
            return 0.0
        m = (np.abs(self.xs) >= radius)
        return float(np.max(np.abs(self.us[m]), initial=0.0))

    def grad_sup_bound(self):
        if self.lipschitz_bound is None:
            raise UnsupportedFieldError("table with boundary jump has no "
                                        "gradient bound")
        return self.lipschitz_bound

    def kink_points(self):
        return self.xs.copy()


class GradientMagnitude(ScalarField):
    """|grad u| of another field, for plugging into modulars and norms."""

    family = "gradient-magnitude"

    def __init__(self, base: ScalarField):
        self.base = base
        self.dimension = base.dimension
        self.gradient_kind = "finite-difference"
        try:
            self.sup_bound = base.grad_sup_bound()
        except UnsupportedFieldError:
            self.sup_bound = math.inf
        self.osc_bound = self.sup_bound
        self.support_radius = base.support_radius
        self.singular_points = base.singular_points

    def _eval(self, pts):
        return np.linalg.norm(self.base._grad(pts), axis=1)

    def tail_bound(self, radius):
        return self.base.grad_tail_bound(radius)

    def kink_points(self):
        return self.base.kink_points()


def truncation_radius(u: ScalarField, p, tol: float) -> float:
    """Radius R whose analytic tail bound certifies that the neglected
    contribution to both modulars (of u and of grad u) outside |x| <= R
    stays below `tol`; for derived fields with no gradient bound the
    certificate covers the |u|^p tail alone.

    Compactly supported families return the support radius.  Raises
    UnsupportedFieldError for non-decaying families and DivergenceError
    when the tail integral itself diverges for the given exponent (the
    power-tail family with small exponents).
    """
    if tol <= 0:
        raise DomainError("tol must be positive")
    if u.support_radius is not None:
        return u.support_radius
    if u.family == "log-singular" or not _has_tail(u):
        raise UnsupportedFieldError(
            f"{u.family} field does not support domain truncation")

    sup_lo, sup_hi = u.support_interval()
    try:
        u.grad_tail_bound(4.0)
        bound_fns = (u.tail_bound, u.grad_tail_bound)
    except UnsupportedFieldError:
        # derived fields (gradient magnitudes) carry no second-derivative
        # data; the radius then certifies the |u|^p tail alone
        bound_fns = (u.tail_bound,)

    def shell_exponent(r: float) -> float | None:
        # analytic infimum of p where the shell meets the support (never
        # the global minimum, which would spuriously reject one-sided
        # slowly decaying fields); None when the shell misses the support
        if u.dimension != 1:
            return max(1.0, p.p_range_min(r, math.inf))
        best = None
        for lo, hi in ((r, 2.0 * r), (-2.0 * r, -r)):
            slo, shi = max(lo, sup_lo), min(hi, sup_hi)
            if slo < shi:
                cand = p.p_range_min(slo, shi)
                best = cand if best is None else min(best, cand)
        return None if best is None else max(1.0, best)

    def tail_integral_bound(R: float) -> float:
        # bound sup-tail on dyadic shells (terms >= 0: stop past tol)
        total = 0.0
        prev_term = math.inf
        r = R
        for _ in range(400):
            pt = shell_exponent(r)
            if pt is None:
                return total
            shell = _shell_measure(u.dimension, r, 2.0 * r)
            term = 0.0
            for fn in bound_fns:
                bound = fn(r)
                val = bound ** pt if bound <= 1.0 else bound ** p.p_plus
                term += shell * val
            total += term
            if total > tol:
                return total
            if term <= 1e-18 * max(total, tol):
                return total
            if term >= prev_term:
                return math.inf  # shell series not decreasing: divergent tail
            prev_term = term
            r *= 2.0
        return total if prev_term <= 1e-12 * max(total, tol) else math.inf

    lo = u.far_radius(1.0)
    hi = max(2.0 * lo, 4.0)
    for _ in range(200):
        if tail_integral_bound(hi) <= tol:
            break
        hi *= 2.0
        if hi > 1e60:
            raise DivergenceError(
                f"tail of |{u.family}|^p(x) does not integrate below {tol}")
    else:
        raise DivergenceError("tail bound failed to converge")
    # NaN-safe: a bound that is not <= tol moves lo
    return bisect_bracket(lambda r: not tail_integral_bound(r) <= tol,
                          lo, hi, 60)[1]


def _has_tail(u: ScalarField) -> bool:
    try:
        u.tail_bound(4.0)
        return True
    except UnsupportedFieldError:
        return False


def _shell_measure(n: int, r0: float, r1: float) -> float:
    if n == 1:
        return 2.0 * (r1 - r0)
    if n == 2:
        return math.pi * (r1 ** 2 - r0 ** 2)
    return 4.0 * math.pi / 3.0 * (r1 ** 3 - r0 ** 3)
