"""Variable exponents p : R^n -> [1, oo) with certified bounds.

Families form a closed registry (constant, inverse-quadratic, sin-squared,
piecewise-table, and the symmetric pair built from a base field) so the
extrema p_minus / p_plus are exact analytic values computed at
construction, never sample estimates.  Downstream tolerances depend on
these constants, so estimation error here would contaminate everything.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError

_FAMILIES = ("constant", "inverse-quadratic", "sin-squared", "piecewise-table")

# tolerated floating drift outside [p_minus, p_plus] before clamping is
# considered a bug rather than roundoff
_CLAMP_SLACK = 1e-12


def as_points(x, dimension: int) -> tuple[tuple, np.ndarray]:
    """Normalize `x` to a (m, dimension) array plus the caller's shape.

    For dimension 1 any array of scalars is accepted; for dimension >= 2
    the last axis must have length `dimension` (a bare (n,) vector is a
    single point).
    """
    x = np.asarray(x, dtype=float)
    if dimension == 1:
        if x.ndim >= 2 and x.shape[-1] == 1:
            shape = x.shape[:-1]
        else:
            shape = x.shape
        pts = x.reshape(-1, 1)
    else:
        if x.ndim == 1 and x.shape[0] == dimension:
            shape = ()
        elif x.ndim >= 2 and x.shape[-1] == dimension:
            shape = x.shape[:-1]
        else:
            raise DomainError(
                f"point array of shape {x.shape} does not match dimension {dimension}")
        pts = x.reshape(-1, dimension)
    if not np.all(np.isfinite(pts)):
        raise DomainError("non-finite evaluation point")
    return shape, pts


class ExponentField:
    """A variable exponent with analytic extrema.

    Construct through the module factories (`constant`, `inverse_quadratic`,
    `sin_squared`, `piecewise_table`), as `cli.parse_exponent` does.
    """

    def __init__(self, dimension: int, family: str, params: dict,
                 p_minus: float, p_plus: float,
                 p_infinity: float | None):
        if dimension < 1:
            raise DomainError("dimension must be a positive integer")
        if family not in _FAMILIES:
            raise DomainError(f"unknown exponent family {family!r}")
        if not (1.0 <= p_minus <= p_plus < math.inf):
            raise DomainError(
                f"exponent bounds must satisfy 1 <= p_minus <= p_plus, got "
                f"[{p_minus}, {p_plus}]")
        self.dimension = dimension
        self.family = family
        self.params = dict(params)
        self.p_minus = float(p_minus)
        self.p_plus = float(p_plus)
        self.p_infinity = None if p_infinity is None else float(p_infinity)

    def __repr__(self):
        return (f"ExponentField({self.family}, n={self.dimension}, "
                f"p_minus={self.p_minus}, p_plus={self.p_plus})")

    @property
    def is_constant(self) -> bool:
        return self.p_minus == self.p_plus

    @property
    def radial(self) -> bool:
        """True when p(x) depends on |x| alone."""
        return self.family in ("constant", "inverse-quadratic")

    # -- evaluation ---------------------------------------------------

    def __call__(self, x) -> np.ndarray:
        return self.eval(x)

    def eval(self, x) -> np.ndarray:
        """p(x), clamped to [p_minus, p_plus] against sub-1e-12 drift."""
        shape, pts = as_points(x, self.dimension)
        vals = self._raw(pts)
        drift = max(float(np.max(self.p_minus - vals, initial=0.0)),
                    float(np.max(vals - self.p_plus, initial=0.0)))
        if drift > _CLAMP_SLACK * max(1.0, self.p_plus):
            raise DomainError(
                f"{self.family} exponent left [{self.p_minus}, {self.p_plus}] "
                f"by {drift:.3e}; family parameters are inconsistent")
        return np.clip(vals, self.p_minus, self.p_plus).reshape(shape)

    def _raw(self, pts: np.ndarray) -> np.ndarray:
        fam, par = self.family, self.params
        if fam == "constant":
            return np.full(pts.shape[0], par["value"])
        if fam == "inverse-quadratic":
            r2 = np.sum(pts * pts, axis=1)
            return par["a"] + par["b"] / (1.0 + r2)
        if fam == "sin-squared":
            v = np.asarray(par["direction"], dtype=float)
            s = np.sin(pts @ v)
            return par["a"] + par["b"] * s * s
        # piecewise-table, 1D
        t = pts[:, 0]
        breaks = np.asarray(par["breaks"], dtype=float)
        values = np.asarray(par["values"], dtype=float)
        if par["interp"] == "const":
            return values[np.searchsorted(breaks, t, side="right")]
        return np.interp(t, breaks, values)

    # -- analytic tail infimum -----------------------------------------

    def p_range_min(self, lo: float, hi: float) -> float:
        """Analytic infimum of p over the 1D interval [lo, hi], either end
        possibly infinite; for an exponent radial in any dimension,
        p_range_min(r, inf) is its infimum over |x| >= r."""
        fam, par = self.family, self.params
        if fam == "constant":
            return self.p_minus
        if fam == "inverse-quadratic":
            if par["b"] >= 0:
                m = max(abs(lo), abs(hi))
                return par["a"] if math.isinf(m) else par["a"] + \
                    par["b"] / (1.0 + m * m)
            m = 0.0 if lo <= 0.0 <= hi else min(abs(lo), abs(hi))
            return par["a"] + par["b"] / (1.0 + m * m)
        if fam == "sin-squared":
            return self.p_minus  # conservative: sin^2 may vanish inside
        breaks = np.asarray(par["breaks"], dtype=float)
        values = np.asarray(par["values"], dtype=float)
        cands = []
        if lo < breaks[0]:
            cands.append(values[0])
        if hi > breaks[-1]:
            cands.append(values[-1])
        if par["interp"] == "const":
            for i in range(1, len(values) - 1):
                if breaks[i - 1] < hi and breaks[i] > lo:
                    cands.append(values[i])
        else:
            for t in (lo, hi):
                if breaks[0] <= t <= breaks[-1]:
                    cands.append(float(np.interp(t, breaks, values)))
            for bk, v in zip(breaks, values):
                if lo <= bk <= hi:
                    cands.append(float(v))
        if not cands:
            cands.append(float(self.eval(np.array([0.5 * (lo + hi)]))[0]))
        return float(min(cands))


# -- factories ----------------------------------------------------------

def constant(value: float, dimension: int = 1) -> ExponentField:
    return ExponentField(dimension, "constant", {"value": float(value)},
                         value, value, value)


def inverse_quadratic(a: float, b: float, dimension: int = 1) -> ExponentField:
    """p(x) = a + b / (1 + |x|^2); extrema a, a+b; p_infinity = a."""
    lo, hi = (a, a + b) if b >= 0 else (a + b, a)
    return ExponentField(dimension, "inverse-quadratic",
                         {"a": float(a), "b": float(b)}, lo, hi, a)


def sin_squared(a: float, b: float, direction, dimension: int = 1) -> ExponentField:
    """p(x) = a + b sin^2(x . direction); no limit at infinity."""
    v = np.atleast_1d(np.asarray(direction, dtype=float))
    if v.shape != (dimension,):
        raise DomainError("direction must have length `dimension`")
    lo, hi = (a, a + b) if b >= 0 else (a + b, a)
    return ExponentField(dimension, "sin-squared",
                         {"a": float(a), "b": float(b),
                          "direction": tuple(v.tolist())}, lo, hi, None)


def piecewise_table(breaks, values, interp: str = "const") -> ExponentField:
    """1D table exponent.

    interp="const": `values` has len(breaks)+1 entries, one per segment
    (left ray, between consecutive breaks, right ray); jumps are allowed.
    interp="linear": `values` matches `breaks`, linear between, constant
    extension outside.
    """
    breaks = np.asarray(breaks, dtype=float)
    values = np.asarray(values, dtype=float)
    if breaks.ndim != 1 or np.any(np.diff(breaks) <= 0):
        raise DomainError("breaks must be strictly increasing")
    if interp == "const":
        if values.shape != (breaks.size + 1,):
            raise DomainError("const table needs len(breaks)+1 values")
    elif interp == "linear":
        if values.shape != breaks.shape:
            raise DomainError("linear table needs one value per break")
    else:
        raise DomainError(f"unknown interp {interp!r}")
    p_inf = float(values[0]) if values[0] == values[-1] else None
    return ExponentField(1, "piecewise-table",
                         {"breaks": tuple(breaks.tolist()),
                          "values": tuple(values.tolist()),
                          "interp": interp},
                         float(values.min()), float(values.max()), p_inf)


class PairExponentField:
    """Symmetric two-point exponent p(x, y) = (q(x) + q(y)) / 2."""

    def __init__(self, base: ExponentField):
        self.base = base
        self.dimension = base.dimension
        self.p_minus = base.p_minus
        self.p_plus = base.p_plus

    @property
    def is_constant(self) -> bool:
        return self.base.is_constant

    def eval_pair(self, x, y) -> np.ndarray:
        px = self.base.eval(x)
        py = self.base.eval(y)
        return 0.5 * (px + py)

    def __repr__(self):
        return f"PairExponentField({self.base!r})"


# -- log-Hoelder diagnostics ---------------------------------------------

@dataclass
class LogHolderDiagnosis:
    c_holder_estimate: float
    c_decay_estimate: float | None
    satisfied: bool


def log_holder_diagnose(field: ExponentField, pairs) -> LogHolderDiagnosis:
    """Sampled log-Hoelder constants of 1/p.

    Reports the maximum over the sample of |1/p(x) - 1/p(y)| * log(e + 1/|x-y|)
    and, when p_infinity is available, of |1/p(x) - 1/p_inf| * log(e + |x|).
    Coincident pairs are skipped (the ratio tends to a derivative bound, so
    skipping is conservative).  This is a diagnostic over the sample, not a
    certificate over the whole domain.
    """
    pairs = np.asarray(pairs, dtype=float)
    if pairs.size == 0:
        raise DomainError("empty sample")
    if field.dimension == 1 and pairs.ndim == 2:
        pairs = pairs[:, :, None]
    if pairs.ndim != 3 or pairs.shape[1] != 2 or pairs.shape[2] != field.dimension:
        raise DomainError("pairs must have shape (m, 2) or (m, 2, n)")

    xs, ys = pairs[:, 0, :], pairs[:, 1, :]
    ax = 1.0 / field.eval(xs)
    ay = 1.0 / field.eval(ys)
    dist = np.linalg.norm(xs - ys, axis=1)
    keep = dist > 0.0
    c_holder = 0.0
    if np.any(keep):
        ratio = np.abs(ax[keep] - ay[keep]) * np.log(np.e + 1.0 / dist[keep])
        c_holder = float(np.max(ratio))

    c_decay = None
    if field.p_infinity is not None:
        all_pts = np.concatenate([xs, ys], axis=0)
        alpha = 1.0 / field.eval(all_pts)
        decay = np.abs(alpha - 1.0 / field.p_infinity) * \
            np.log(np.e + np.linalg.norm(all_pts, axis=1))
        c_decay = float(np.max(decay))

    ok = math.isfinite(c_holder) and (c_decay is None or math.isfinite(c_decay))
    return LogHolderDiagnosis(c_holder, c_decay, ok)


