"""Variable-exponent modulars, Luxemburg norms, and the fractional
two-exponent seminorm.

The Luxemburg construction inf{lambda > 0 : modular(u / lambda) <= 1}
is solved by bisection.  Because the lambda dependence factorizes per
quadrature node (|u(x)/lambda|^{p(x)} = |u(x)|^{p(x)} lambda^{-p(x)}),
the adaptive modular at lambda = 1 gives coefficient/exponent pairs on
its own final nodes, and the bisection then iterates over their sum,
with a fresh adaptive modular at the final lambda as verification.  The
fractional seminorm's pairs are the per-node terms of the functionals'
ray kernel; both solve their sum = 1 through one helper.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .errors import DivergenceError, DomainError
from .exponents import ExponentField, PairExponentField
from .fields import ScalarField, truncation_radius
from .functionals import (QuadratureSpec, _outer_integrate, _ray_cutoff,
                          _require_lipschitz_decay, _resolve_rule,
                          ray_t_nodes)
from .quadrature import bisect_bracket, decade_seeds, panel_nodes

_LAMBDA_CAP = 1e12
_RHO_TOL = 1e-8
_BRACKET_REL = 1e-10
_MAX_BISECT = 60


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
    iterations: int
    node_count: int

    def __float__(self):
        return self.value


def _weight_values(weight, pts: np.ndarray) -> np.ndarray:
    if weight is None:
        return np.ones(pts.shape[0])
    if hasattr(weight, "eval"):
        vals = np.asarray(weight.eval(pts), dtype=float)
    else:
        vals = np.asarray(weight(pts[:, 0] if pts.shape[1] == 1 else pts),
                          dtype=float)
    if np.any(vals <= 0.0):
        raise DomainError("weight must be positive where evaluated")
    return vals


def _domain_radius(u: ScalarField, p, quad: QuadratureSpec) -> float:
    if quad.truncation_radius is not None:
        return float(quad.truncation_radius)
    # 1e-2 rather than finer: slowly decaying tails (the power-tail
    # family) turn each extra digit into a thousandfold larger radius
    tol = min(quad.rel_tol, 1e-6) * 1e-2
    return truncation_radius(u, p, tol)


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
    if lam <= 0:
        raise DomainError("lam must be positive")
    res = _modular(u, p, weight, lam, quad or QuadratureSpec())
    return ModularValue(res.value, res.radius, res.n_evals, res.error)


def _line_edges(u, R, grid):
    """Panel edges on [-R, R]: `grid` plus 0, +-R and u's kinks."""
    kinks = u.kink_points()
    return np.unique(np.concatenate(
        [grid, [0.0, -R, R], kinks[(-R < kinks) & (kinks < R)]]))


def _bisect_lambda(rho, hint: float = 1.0) -> tuple[float, int]:
    """Solve rho(lam) = 1 for a strictly decreasing positive rho."""
    hi = hint
    steps = 0
    while rho(hi) > 1.0:
        hi *= 2.0
        steps += 1
        if hi > _LAMBDA_CAP:
            raise DivergenceError(
                f"modular stays above 1 for lambda up to {_LAMBDA_CAP}")
    lo = hi
    while rho(lo) <= 1.0:
        hi, lo = lo, 0.5 * lo
        steps += 1
        if lo < 1e-300:
            return 0.0, steps
    _, hi, iters = bisect_bracket(lambda lam: rho(lam) > 1.0, lo, hi,
                                  _MAX_BISECT, _BRACKET_REL)
    return hi, iters


def _solve_lambda(a: np.ndarray, neg_e: np.ndarray) -> tuple[float, int]:
    """Solve sum_i a_i lam^{-e_i} = 1, given neg_e = -e."""
    def rho(lam: float) -> float:
        t = lam ** neg_e        # in place from here: no second temporary
        t *= a
        return float(np.sum(t))
    return _bisect_lambda(rho)


def luxemburg_norm(u: ScalarField, p: ExponentField, weight=None,
                   quad: QuadratureSpec | None = None) -> LuxemburgNorm:
    """inf{lambda > 0 : modular(u/lambda) <= 1}; 0 for the zero function.

    Bisection runs on the pairs a_i lambda^{-p_i} of the adaptive
    modular's final nodes at lambda = 1; the result is verified by a
    fresh adaptive modular at the final lambda (|rho - 1| <= 1e-8).  If
    that fails, lambda is bisected on the adaptive modular itself, and a
    second failed check raises DivergenceError."""
    quad = quad or QuadratureSpec()
    res = _modular(u, p, weight, 1.0, quad)
    pts, w = res.nodes()
    e = p.eval(pts)
    a = w * np.abs(u.eval(pts)) ** e * _weight_values(weight, pts)
    if u.sup_bound == 0.0 or not np.any(a > 0.0):
        return LuxemburgNorm(0.0, 0.0, 0, res.n_evals)

    quad_fixed = replace(quad, truncation_radius=res.radius)
    lam, iters = _solve_lambda(a, -e)
    check = modular(u, p, weight, lam, quad_fixed)
    if abs(check.value - 1.0) > _RHO_TOL:
        # the nodes at lambda = 1 did not resolve rho; bisect directly
        # on the adaptive modular starting from their bracket
        lam, extra = _bisect_lambda(
            lambda t: modular(u, p, weight, t, quad_fixed).value,
            hint=lam)
        iters += extra
        check = modular(u, p, weight, lam, quad_fixed)
        if not abs(check.value - 1.0) <= _RHO_TOL:
            raise DivergenceError(
                f"Luxemburg norm did not converge: at lambda = {lam:g} "
                f"|rho - 1| = {abs(check.value - 1.0):g}")
    return LuxemburgNorm(lam, check.value, iters,
                         res.n_evals + check.node_count)


def norm_modular_inequality_check(u: ScalarField, p: ExponentField,
                                  weight=None,
                                  quad: QuadratureSpec | None = None
                                  ) -> SandwichCheck:
    """The norm-modular sandwich: min(rho^{1/p-}, rho^{1/p+}) <= ||u||
    <= max(rho^{1/p-}, rho^{1/p+}) with rho the modular at lambda = 1."""
    quad = quad or QuadratureSpec()
    norm = luxemburg_norm(u, p, weight, quad)
    rho = modular(u, p, weight, 1.0, quad).value
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

    The double modular is discretized once through the polar reduction
    (t = h^beta inner substitution, analytic far tails) into
    coefficient/exponent pairs, then bisected in lambda.
    """
    quad = quad or QuadratureSpec()
    if not 0.0 < s < 1.0:
        raise DomainError("s must lie in (0, 1)")
    if u.sup_bound == 0.0:
        return FracSeminorm(0.0, 0, 0)
    _require_lipschitz_decay(u, "frac_seminorm")

    if u.dimension != 1:
        raise DomainError("frac_seminorm supports n = 1 (the exact outer "
                          "tail correction is one-dimensional)")
    rule = _resolve_rule(quad, 1)

    far = u.far_radius(1e-7 * max(u.sup_bound, 1.0))
    R = far + 2.0
    if quad.truncation_radius is not None:
        R = float(quad.truncation_radius)

    xnodes, xw = panel_nodes(_line_edges(u, R, np.linspace(-R, R, 49)), 15)
    X = xnodes[:, None]

    coeffs, neg_exps = [], []
    u_x = u.eval(X)
    p_diag = p_pair.eval_pair(X, X)
    beta = (1.0 - s) * p_diag
    H = _ray_cutoff(X, far, quad)

    for w_om, omega in zip(rule.weights, rule.nodes):
        # one outer x panel (15 points) per kernel call bounds the size
        # of the node arrays
        for k in range(0, X.shape[0], 15):
            row, h, wt, psi = ray_t_nodes(u, X[k:k + 15], omega,
                                          beta[k:k + 15], H[k:k + 15], quad)
            i = row + k
            y = X[i, None, :] + h[..., None] * omega
            phat = p_pair.eval_pair(np.broadcast_to(X[i, None, :], y.shape),
                                    y)
            # phi^p h^{-sp-1} dh = psi^p h^{(1-s)(p - p0)} dt / beta,
            # with p0 = p(x, x) and beta = (1 - s) p0
            hfac = np.exp((1.0 - s) * (phat - p_diag[i, None]) * np.log(h))
            coeffs.append((xw[i] * w_om / beta[i])[:, None] * wt
                          * psi ** phat * hfac)
            neg_exps.append(-phat)
        # far h tail: jump is |u(x)| beyond H, exponent frozen at H
        p_far = p_pair.eval_pair(X, X + H[:, None] * omega)
        coeffs.append(xw * w_om * np.abs(u_x) ** p_far
                      * H ** (-s * p_far) / (s * p_far))
        neg_exps.append(-p_far)

    # x outside [-R, R]: u(x) = 0 there up to the far level, so the pair
    # integrand is |u(y)|^p (x - y)^{-1-sp}; its x integral is exact
    for sign in (1.0, -1.0):
        p_far = p_pair.eval_pair(X, np.full_like(X, sign * R))
        dist = np.abs(sign * R - X[:, 0])
        coeffs.append(xw * np.abs(u_x) ** p_far * dist ** (-s * p_far)
                      / (s * p_far))
        neg_exps.append(-p_far)

    # the largest arrays of a call, so each list is freed once copied
    a = np.concatenate([c.ravel() for c in coeffs])
    del coeffs
    neg_e = np.concatenate([c.ravel() for c in neg_exps])
    del neg_exps
    if not np.any(a > 0.0):
        return FracSeminorm(0.0, 0, int(a.size))
    return FracSeminorm(*_solve_lambda(a, neg_e), int(a.size))


def w_norm(u: ScalarField, s: float, p_pair: PairExponentField,
           q: ExponentField, quad: QuadratureSpec | None = None) -> float:
    """Norm of the mixed space: Luxemburg norm in L^{q(.)} plus the
    fractional seminorm (exposed only as the sum of the two pieces)."""
    return luxemburg_norm(u, q, quad=quad).value + \
        frac_seminorm(u, s, p_pair, quad=quad).value
