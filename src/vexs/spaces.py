"""Variable-exponent modulars, Luxemburg norms, and the fractional
two-exponent seminorm.

Both norms solve sum_i a_i lambda^{-e_i} = 1 on quadrature pairs (the
lambda dependence factorizes per node: |u/lambda|^p = |u|^p lambda^{-p})
by Newton's method in log lambda: the Luxemburg norm on the final nodes
of the adaptive modular at lambda = 1, checked by a fresh adaptive
modular at the final lambda, and the fractional seminorm on the terms of
the power functionals' double integral at lambda = 1 (the eps and BBM
path: adaptive outer x, t = h^beta rays, far tails and the exact
exterior term, in any dimension), which reads the sphere rule,
`outer_x_tolerance`, `h_bracket_grid` and `truncation_radius` but no
`rel_tol`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError
from .exponents import ExponentField, PairExponentField
from .fields import ScalarField, truncation_radius
from .functionals import (QuadratureSpec, _outer_integrate,
                          _power_functional, _require_lipschitz_decay,
                          _require_same_dimension)
from .quadrature import decade_seeds

_RHO_TOL = 1e-8


@dataclass
class ModularValue:
    value: float
    truncation_radius: float
    node_count: int
    error_estimate: float


@dataclass
class LuxemburgNorm:
    value: float
    modular_at_value: float
    iterations: int
    node_count: int
    modular_at_1: float

    def __float__(self):
        return self.value


@dataclass
class SandwichCheck:
    norm: float
    modular_at_1: float
    lower: float
    upper: float
    holds: bool


@dataclass
class FracSeminorm:
    value: float
    iterations: int  # Newton steps of the lambda solve
    node_count: int  # outer x nodes of the adaptive modular at lambda = 1

    def __float__(self):
        return self.value


def _weight_values(weight, pts: np.ndarray) -> np.ndarray:
    if weight is None:
        return np.ones(pts.shape[0])
    vals = np.asarray(weight.eval(pts) if hasattr(weight, "eval") else
                      weight(pts[:, 0] if pts.shape[1] == 1 else pts),
                      dtype=float)
    if np.any(vals <= 0.0):
        raise DomainError("weight must be positive where evaluated")
    return vals


def _domain_radius(u: ScalarField, p, quad: QuadratureSpec,
                   lam: float = 1.0) -> float:
    if quad.truncation_radius is not None:
        return float(quad.truncation_radius)
    # 1e-2 rather than finer: slowly decaying tails (the power-tail
    # family) turn each extra digit into a thousandfold larger radius;
    # the tail of |u/lam|^p is at most lam^{-p+} that of |u|^p, lam < 1
    tol = min(quad.rel_tol, 1e-6) * 1e-2 * min(lam, 1.0) ** p.p_plus
    return truncation_radius(u, p, max(tol, np.finfo(float).tiny))


def _modular(u, p, weight, lam, quad):
    """The outer result of the modular at lam (its radius fixed)."""
    R = _domain_radius(u, p, quad)

    def integrand(pts: np.ndarray) -> np.ndarray:
        vals = np.abs(u.eval(pts)) / lam
        return vals ** p.eval(pts) * _weight_values(weight, pts)

    seeds = np.concatenate([u.kink_points(), decade_seeds(0.0, -R, R)])
    # a weight is never taken as radial
    radial = weight is None and u.radial and p.radial
    return _outer_integrate(integrand, u, replace(quad, truncation_radius=R),
                            R, seeds, radial)


def modular(u: ScalarField, p: ExponentField, weight=None, lam: float = 1.0,
            quad: QuadratureSpec | None = None) -> ModularValue:
    """The modular: integral of |u(x)/lam|^{p(x)} w(x) over the truncated
    domain, by the functionals' outer integrator (polar for n >= 2) with
    panel edges seeded at kinks and decades."""
    _require_same_dimension(u, p, "modular")
    if lam <= 0:
        raise DomainError("lam must be positive")
    res = _modular(u, p, weight, lam, quad or QuadratureSpec())
    return ModularValue(res.value, res.radius, res.n_evals, res.error)


def _solve_lambda(ell: np.ndarray, e: np.ndarray) -> tuple[float, int]:
    """(lam, Newton steps) with sum_i exp(ell_i - e_i tau) = 1, lam =
    exp(tau).  f(tau) = log sum_i exp(ell_i - e_i tau) is convex and its
    slope is minus a weighted mean of e, so f >= 0 at tau0 = min(L / e_min,
    L / e_max), L = f(0), and Newton's iterates rise monotonically to the
    root from there (with constant e, tau0 is the root)."""
    t, te = np.empty_like(ell), np.empty_like(ell)  # reused by each step

    def f_and_slope(tau: float) -> tuple[float, float]:
        np.multiply(e, -tau, out=t)
        np.add(t, ell, out=t)
        m = t.max()
        np.exp(np.subtract(t, m, out=t), out=t)
        s = float(np.sum(t))
        np.multiply(t, e, out=te)
        return m + math.log(s), float(np.sum(te)) / s

    L = f_and_slope(0.0)[0]
    tau = min(L / e.min(), L / e.max())
    for steps in range(1, 61):
        f, slope = f_and_slope(tau)
        tau += f / slope
        if f / slope <= 1e-12:  # rounding only from here
            break
    return math.exp(tau), steps


def luxemburg_norm(u: ScalarField, p: ExponentField, weight=None,
                   quad: QuadratureSpec | None = None) -> LuxemburgNorm:
    """inf{lambda > 0 : modular(u/lambda) <= 1}; 0 for the zero function.

    Newton's method runs on the pairs log(w_i |u_i|^{p_i}), p_i of the
    adaptive modular's final nodes at lambda = 1.  A fresh adaptive
    modular at the final lambda, truncated for u/lambda, must give
    |rho - 1| <= 1e-8 within the radius those nodes cover; else the
    solve repeats once on its nodes, and a second miss raises
    DivergenceError."""
    _require_same_dimension(u, p, "luxemburg_norm")
    quad = quad or QuadratureSpec()
    res = _modular(u, p, weight, 1.0, quad)
    rho1, count, iters = res.value, res.n_evals, 0
    for _ in range(2):
        pts, w = res.nodes()
        e = p.eval(pts)
        with np.errstate(divide="ignore"):
            ell = (np.log(w * _weight_values(weight, pts))
                   + e * np.log(np.abs(u.eval(pts))))
        if ell.max() == -np.inf:  # u vanishes on every node
            return LuxemburgNorm(0.0, 0.0, 0, count, rho1)
        lam, steps = _solve_lambda(ell, e)
        iters += steps
        R = res.radius if lam >= 1.0 else max(_domain_radius(u, p, quad, lam),
                                              res.radius)
        check = _modular(u, p, weight, lam, replace(quad, truncation_radius=R))
        count += check.n_evals
        miss = abs(check.value - 1.0)
        if R <= res.radius and miss <= _RHO_TOL:
            return LuxemburgNorm(lam, check.value, iters, count, rho1)
        res = check
    raise DivergenceError(
        f"Luxemburg norm did not converge: at lambda = {lam:g} "
        f"|rho - 1| = {miss:g} (radius {R:g})")


def norm_modular_inequality_check(u: ScalarField, p: ExponentField,
                                  weight=None,
                                  quad: QuadratureSpec | None = None
                                  ) -> SandwichCheck:
    """The norm-modular sandwich: min(rho^{1/p-}, rho^{1/p+}) <= ||u||
    <= max(rho^{1/p-}, rho^{1/p+}) with rho the modular at lambda = 1."""
    norm = luxemburg_norm(u, p, weight, quad)
    rho = norm.modular_at_1
    lo = min(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
    hi = max(rho ** (1.0 / p.p_minus), rho ** (1.0 / p.p_plus))
    slack = 1e-8 * max(1.0, hi)
    holds = (lo - slack) <= norm.value <= (hi + slack)
    return SandwichCheck(norm.value, rho, lo, hi, holds)


# ----------------------------------------------------------------------
# fractional two-exponent seminorm
# ----------------------------------------------------------------------

def frac_seminorm(u: ScalarField, s: float, p_pair: PairExponentField,
                  quad: QuadratureSpec | None = None) -> FracSeminorm:
    """Luxemburg-style seminorm of the two-exponent Gagliardo modular
    |u(x)-u(y)|^{p(x,y)} / (lam^{p(x,y)} |x-y|^{n + s p(x,y)}).

    The modular at lambda = 1 is the power functionals' double integral
    with t = h^beta rays, beta = (1 - s) p(x, x); its terms on the final
    outer nodes, each scaling as lam^{-p(x, y)}, give lambda.  A variable
    p(x, y) is taken at every ray node; a constant pair's one term is the
    value.
    """
    _require_same_dimension(u, p_pair, "frac_seminorm")
    quad = quad or QuadratureSpec()
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0, 1)")
    if u.sup_bound == 0.0:
        return FracSeminorm(0.0, 0, 0)
    _require_lipschitz_decay(u, "frac_seminorm")

    def exps(X, Y=None):
        P = (p_pair.p_plus if p_pair.is_constant
             else p_pair.eval_pair(X, X if Y is None else Y))
        return P, s * P, (1.0 - s) * P

    radial = u.radial and p_pair.base.radial
    if p_pair.is_constant:
        # every term scales as lambda^{-p}: the value is the one term
        fv = _power_functional(u, quad, 1.0, exps, False, radial)
        a, e, count = (np.array([fv.value]), np.array([p_pair.p_plus]),
                       fv.node_count)
    else:
        a, e, count = _power_functional(u, quad, 1.0, exps, False, radial,
                                        pair_terms=True)
    keep = a > 0.0
    return FracSeminorm(*_solve_lambda(np.log(a[keep]), e[keep])
                        if keep.any() else (0.0, 0), count)
