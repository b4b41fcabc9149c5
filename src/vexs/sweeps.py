"""Parameter sweeps toward the singular limits, with extrapolation.

A sweep evaluates one nonlocal functional on a grid of its singular
parameter (delta, epsilon, or s), computes the matching local energy
target, and extrapolates the limit with a power-law fit
value(t) = v0 + c t^beta on the last three grid points (t is delta,
epsilon, or 1 - s).  The paper-level statements supply no convergence
rate, so beta is estimated, never assumed; when the last residuals do
not admit a positive rate the report is flagged and the last grid value
stands in for the extrapolation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from .exponents import ExponentField
from .fields import ScalarField
from .functionals import (FunctionalValue, QuadratureSpec, bbm_functional,
                          eps_functional, local_energy, nguyen_functional)
from .quadrature import bisect_bracket, golden_max

# sweep kind -> name of its singular parameter
_PARAM_NAME = {
    "nguyen-unit": "delta",
    "nguyen-weighted": "delta",
    "eps-small-jump": "epsilon",
    "eps-full": "epsilon",
    "bbm": "s",
}


@dataclass
class SweepReport:
    kind: str
    parameter_name: str
    grid: tuple
    values: tuple          # FunctionalValue per grid point
    target: float
    extrapolated: float
    fit_exponent: float    # nan when the fit is flagged
    deviations: tuple
    fit_flagged: bool

    def as_dict(self) -> dict:
        return {
            "kind": self.kind,
            "parameter_name": self.parameter_name,
            "grid": list(self.grid),
            "values": [v.value for v in self.values],
            "error_estimates": [v.error_estimate for v in self.values],
            "node_counts": [v.node_count for v in self.values],
            "truncation_radii": [v.truncation_radius for v in self.values],
            "target": self.target,
            "extrapolated": self.extrapolated,
            "fit_exponent": self.fit_exponent,
            "deviations": list(self.deviations),
            "fit_flagged": self.fit_flagged,
        }


def run_sweep(kind: str, u: ScalarField, p: ExponentField, grid,
              quad: QuadratureSpec | None = None) -> SweepReport:
    """Evaluate one functional across its parameter grid and extrapolate."""
    quad = quad or QuadratureSpec()
    if kind not in _PARAM_NAME:
        raise DomainError(f"unknown sweep kind {kind!r}")
    grid = [float(g) for g in grid]
    if len(grid) < 3:
        raise DomainError("sweep grid needs at least 3 points")

    name = _PARAM_NAME[kind]
    if name == "s":
        if any(not 0.0 < g < 1.0 for g in grid) or \
                any(b <= a for a, b in zip(grid, grid[1:])):
            raise DomainError("s grid must increase strictly inside (0, 1)")
        ts = [1.0 - g for g in grid]
    else:
        if any(g <= 0.0 for g in grid) or \
                any(b >= a for a, b in zip(grid, grid[1:])):
            raise DomainError(f"{name} grid must decrease strictly and stay "
                              "positive")
        ts = list(grid)

    if kind == "bbm" and not p.is_constant:
        raise DomainError("the BBM functional takes a constant exponent")
    # the eps functionals converge to the p(x)-weighted energy
    weight = "unit" if kind in ("bbm", "nguyen-unit") else "p_of_x"
    target = local_energy(u, p, weight, quad).value
    if kind == "bbm":
        values = [bbm_functional(u, p.p_minus, g, quad) for g in grid]
    elif kind.startswith("nguyen"):
        values = [nguyen_functional(u, p, g, weight, quad) for g in grid]
    else:
        mode = "small_jump" if kind == "eps-small-jump" else "full"
        values = [eps_functional(u, p, g, mode, quad) for g in grid]

    if target == 0.0:
        deviations = tuple(abs(v.value) for v in values)
    else:
        deviations = tuple(abs(v.value - target) / abs(target)
                           for v in values)

    v0, beta, flagged = fit_power_limit(ts, [v.value for v in values])
    return SweepReport(kind=kind, parameter_name=name, grid=tuple(grid),
                       values=tuple(values), target=target, extrapolated=v0,
                       fit_exponent=beta, deviations=deviations,
                       fit_flagged=flagged)


def sup_over_grid(report: SweepReport) -> float:
    if not report.values:
        raise DomainError("empty sweep report")
    return max(v.value for v in report.values)


# ----------------------------------------------------------------------
# extrapolation fits
# ----------------------------------------------------------------------

def fit_power_limit(ts, vs) -> tuple[float, float, bool]:
    """Fit v = v0 + c t^beta on the last three points (t decreasing).

    Three points determine the model exactly: the difference ratio
    (v1-v2)/(v2-v3) = (t1^b - t2^b)/(t2^b - t3^b) is strictly increasing
    in b, so it is solved by bisection.  Returns (v0, beta, flagged);
    a non-positive or undefined rate flags the fit and returns the last
    value as the limit estimate.
    """
    ts = [float(t) for t in ts]
    vs = [float(v) for v in vs]
    if len(ts) < 3 or len(ts) != len(vs):
        raise DomainError("need at least three (t, v) points")
    t1, t2, t3 = ts[-3], ts[-2], ts[-1]
    v1, v2, v3 = vs[-3], vs[-2], vs[-1]
    if not t1 > t2 > t3 > 0:
        raise DomainError("t values must decrease toward 0")
    d1, d2 = v1 - v2, v2 - v3
    if d2 == 0.0 or d1 * d2 <= 0.0:
        return v3, math.nan, True
    r = d1 / d2
    low_limit = math.log(t1 / t2) / math.log(t2 / t3)
    if r <= low_limit:
        return v3, math.nan, True

    def q(b: float) -> float:
        return (t1 ** b - t2 ** b) / (t2 ** b - t3 ** b)

    bracket = bisect_bracket(lambda b: q(b) < r, 1e-6, 1.0, 200, grow_to=64.0)
    if bracket is None:
        return v3, math.nan, True
    lo, hi, _ = bracket
    beta = 0.5 * (lo + hi)
    c = d2 / (t2 ** beta - t3 ** beta)
    v0 = v3 - c * t3 ** beta
    return v0, beta, False


def fit_offset_power(ts: np.ndarray, vs: np.ndarray
                     ) -> tuple[float, float, float]:
    """Least-squares fit of v = c0 + a t^gamma, gamma in [0.05, 2] by
    golden section with the linear pair (c0, a) solved exactly per
    candidate.

    Suited to cumulative quantities whose transient is an additive
    offset on top of an asymptotic power law.  Returns (gamma, c0, a).
    """
    ts = np.asarray(ts, dtype=float)
    vs = np.asarray(vs, dtype=float)

    def sse(g: float):
        A = np.stack([np.ones_like(ts), ts ** g], axis=1)
        sol, *_ = np.linalg.lstsq(A, vs, rcond=None)
        r = vs - A @ sol
        return float(r @ r), sol

    gamma, _ = golden_max(lambda g: -sse(g)[0], 0.05, 2.0, iters=200)
    _, sol = sse(gamma)
    return float(gamma), float(sol[0]), float(sol[1])
