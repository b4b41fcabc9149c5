"""Nonlocal energy functionals computed through polar reduction.

All double integrals over pairs (x, y) are reduced to an outer integral
over x, a sum over ray directions w from a sphere rule, and an inner
integral over the ray parameter h in y = x + h w.  The threshold
functional's inner integrand delta^p h^{-p-1} has an exact
antiderivative, so its only numerical content is the location of the
superlevel set {h : |u(x+hw) - u(x)| > delta}, found by sign-change
bracketing on a geometric h grid whose brackets are solved to 4 ulp by
a safeguarded Illinois (regula falsi) step.  The
epsilon-perturbed, BBM and fractional-order integrals have no closed
inner antiderivative; one kernel, `ray_t_nodes`, computes them in the
substituted variable t = h^beta, which absorbs the h^{beta-1}
singularity at the origin, for a whole batch of rays at once.

Outer truncation is self-validating: a base radius from the field's
analytic tail bound is extended by doubling shells until a shell
contributes less than a fraction of the running total.  Everything is
deterministic; repeated runs are bit-identical.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from .errors import BracketingError, DomainError, UnsupportedFieldError
from .fields import ScalarField, _square_norms
from .quadrature import (adaptive_integrate, panel_nodes, piece_nodes,
                         row_pieces, sign_pieces)
from .sphere import SphereRule, default_rule, k_np_values

# far-field headroom: |u| must drop below this fraction of the threshold
# before a ray's sign pattern is declared stable
_FAR_ETA_FRAC = 1e-6
# below this ray parameter the difference quotient is replaced by the
# directional derivative (relative to max(1, |x|))
_H_SAFE = 1e-7
# grid samples in a block of ray directions, whose flips share one root
# solve; u.eval takes a grid, and a power block its GL nodes, in
# _EVAL_SAMPLES at most (larger node arrays cost more per node than calls)
_BLOCK_SAMPLES = 2 ** 17
_EVAL_SAMPLES = 2 ** 15


@dataclass
class QuadratureSpec:
    """All discretization choices for the nonlocal functionals.

    truncation_radius: outer domain half-width; None selects the
        self-validating automatic choice (tail radius plus doubling shells).
    sphere_rule: directions for the polar reduction; None selects a
        modest default per dimension (convergence in the rule is the
        caller's concern, reported through error estimates).
    outer_x_tolerance: relative tolerance of the adaptive outer integral.
    h_bracket_grid: resolution of the initial geometric h grid used for
        superlevel bracketing; also sets the inner panel count (half of it)
        for the epsilon/BBM inner integrals.
    h_max: hard radial cutoff for the inner integrals; None means automatic
        (analytic far tails are added beyond the cutoff either way).
    rel_tol: global relative tolerance (shell stopping, the layer-cake
        threshold integral).
    """

    truncation_radius: float | None = None
    sphere_rule: SphereRule | None = None
    outer_x_tolerance: float = 1e-7
    h_bracket_grid: int = 128
    h_max: float | None = None
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.outer_x_tolerance <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.h_bracket_grid < 8:
            raise DomainError("h_bracket_grid must be at least 8")
        if self.h_max is not None and self.h_max <= 0:
            raise DomainError("h_max must be positive")
        if self.truncation_radius is not None and self.truncation_radius <= 0:
            raise DomainError("truncation_radius must be positive")


@dataclass
class FunctionalValue:
    value: float
    error_estimate: float
    truncation_radius: float
    node_count: int
    empty_superlevel: bool = False


_FUNCTIONAL_RULES = {1: None, 2: 128, 3: (32, 64)}


def _resolve_rule(quad: QuadratureSpec, n: int) -> SphereRule:
    if quad.sphere_rule is not None:
        if quad.sphere_rule.dimension != n:
            raise DomainError("sphere rule dimension mismatch")
        return quad.sphere_rule
    return default_rule(n, _FUNCTIONAL_RULES.get(n))


# ----------------------------------------------------------------------
# outer integration with doubling shells
# ----------------------------------------------------------------------

@dataclass
class _OuterResult:
    value: float
    error: float
    radius: float
    n_evals: int


def _outer_integrate(F, u: ScalarField, quad: QuadratureSpec,
                     base_radius: float, seeds=()) -> _OuterResult:
    """Integrate F (callable on (m, n) points) over R^n.

    n = 1 integrates the line directly; n >= 2 reduces to polar
    coordinates with the functional-grade sphere rule for the angular
    part.  `seeds` are 1D abscissae (or radii) used as initial panel
    boundaries.
    """
    n = u.dimension
    count = [0]

    if n == 1:
        def f_line(xs):
            count[0] += xs.size
            return F(xs[:, None])
        segment = _integrate_segments_1d
    else:
        rule = _resolve_rule(quad, n)

        def f_line(rs):
            pts = (rs[:, None, None] * rule.nodes[None, :, :]).reshape(-1, n)
            vals = F(pts).reshape(rs.size, rule.node_count)
            count[0] += pts.shape[0]
            return (vals @ rule.weights) * rs ** (n - 1)
        segment = _integrate_segments_radial

    # a fixed truncation radius takes no doubling shells
    fixed = quad.truncation_radius is not None
    R = float(quad.truncation_radius) if fixed else base_radius
    total, err = segment(f_line, 0.0, R, quad, seeds)
    for _ in range(0 if fixed else 40):
        sval, serr = segment(f_line, R, 2.0 * R, quad, ())
        total += sval
        err += serr
        R *= 2.0
        if abs(sval) <= 0.25 * quad.rel_tol * max(abs(total), 1e-300):
            err += abs(sval)  # geometric-tail allowance for what remains
            break
    return _OuterResult(total, err, R, count[0])


def _integrate_segments_1d(f_line, r_lo, r_hi, quad, seeds):
    seeds = [s for s in np.atleast_1d(np.asarray(seeds, dtype=float))
             if -r_hi < s < r_hi]
    if r_lo == 0.0:
        res = adaptive_integrate(f_line, -r_hi, r_hi,
                                 rel_tol=quad.outer_x_tolerance,
                                 seeds=sorted(set(seeds + [0.0])))
        return res.value, res.error
    left = adaptive_integrate(f_line, -r_hi, -r_lo,
                              rel_tol=quad.outer_x_tolerance)
    right = adaptive_integrate(f_line, r_lo, r_hi,
                               rel_tol=quad.outer_x_tolerance)
    return left.value + right.value, left.error + right.error


def _integrate_segments_radial(f_line, r_lo, r_hi, quad, seeds):
    seeds = [abs(s) for s in np.atleast_1d(np.asarray(seeds, dtype=float))
             if r_lo < abs(s) < r_hi]
    res = adaptive_integrate(f_line, max(r_lo, 0.0), r_hi,
                             rel_tol=quad.outer_x_tolerance,
                             seeds=sorted(set(seeds)))
    return res.value, res.error


def _require_lipschitz_decay(u: ScalarField, op: str) -> float:
    if u.lipschitz_bound is None or u.lipschitz_bound <= 0:
        raise UnsupportedFieldError(
            f"{op} needs a Lipschitz field; {u.family} declares no bound")
    try:
        u.tail_bound(4.0)
    except UnsupportedFieldError:
        raise UnsupportedFieldError(
            f"{op} needs a decaying field; {u.family} has no tail bound")
    return u.lipschitz_bound


def _ray_cutoff(X: np.ndarray, far: float, quad) -> np.ndarray:
    """Per point, the h beyond which its rays stay outside radius far."""
    H = np.sqrt(_square_norms(X)) + far + 1.0
    if quad.h_max is not None:
        H = np.minimum(H, quad.h_max)
    return H


def _direction_sum(X: np.ndarray, rule: SphereRule, rays: int, block):
    """The weighted sum, in rule order, of the values (shape (d, m))
    that block(rows, omega) returns for the rays of the points X (m, n)
    in d >= 1 of the rule's directions at a time, d * m <= rays where it
    can: row k*m + i of rows is point i, in the direction omega[k*m + i]
    (direction-major), or omega itself when d = 1."""
    m = X.shape[0]
    step = max(1, rays // m)
    acc = np.zeros(m)
    for k in range(0, rule.node_count, step):
        nodes = rule.nodes[k:k + step]
        vals = block(np.tile(X, (len(nodes), 1)), nodes[0] if len(nodes) == 1
                     else np.repeat(nodes, m, axis=0))
        for w, v in zip(rule.weights[k:k + step], vals):
            acc += w * v
    return acc


def _at(omega: np.ndarray, rows) -> np.ndarray:
    """The directions of the rays `rows`: omega, or its rows if per ray."""
    return omega if omega.ndim == 1 else omega[rows]


def _ray_points(x: np.ndarray, w: np.ndarray, h: np.ndarray) -> np.ndarray:
    """The points x[k] + h[k, j] w[k] (w one direction or one per row),
    shape h.shape + (n,): the floats of x[:, None] + h[..., None] * w,
    made a coordinate at a time, since numpy broadcasts over a short last
    axis several times slower."""
    w = np.broadcast_to(w, x.shape)
    out = np.empty(h.shape + x.shape[1:])
    for j in range(x.shape[1]):
        np.multiply(h, w[:, j, None], out=out[..., j])
        out[..., j] += x[:, j, None]
    return out


# ----------------------------------------------------------------------
# superlevel machinery
# ----------------------------------------------------------------------

def superlevel_intervals(u: ScalarField, X: np.ndarray, omega: np.ndarray,
                         threshold: float, quad: QuadratureSpec, far: float):
    """Superlevel sets {h > 0 : |u(x + h w) - u(x)| > threshold} of the
    points X (shape (m, n)) as flat arrays (row, a, b, ambiguous), given
    far = u.far_radius(threshold * _FAR_ETA_FRAC); omega is one direction
    w for every ray or one per row, shape (m, n).

    Interval i is (a[i], b[i]) on the ray of point row[i]; the intervals
    are sorted by row and by h within a row.  b = inf when the set
    reaches infinity (the far jump |u(x)| exceeds the threshold);
    `ambiguous` flags the intervals that end at the ray cutoff H with a
    far sign that could not be classified, so callers can bound the
    ambiguity.  The grid start exploits the Lipschitz bound: below
    h = threshold/Lip no jump can exceed the threshold.
    """
    L = _require_lipschitz_decay(u, "superlevel bracketing")
    u_x = u.eval(X)
    eta = threshold * _FAR_ETA_FRAC
    H = _ray_cutoff(X, far, quad)
    h_lo = max(0.999 * threshold / L, 1e-12)

    N = quad.h_bracket_grid
    live = np.nonzero(H > h_lo)[0]
    log_lo = math.log(h_lo)
    log_span = np.log(H[live]) - log_lo
    t = np.linspace(0.0, 1.0, N)

    def residual(rows):
        # the residual at ray parameters h of shape (rows, ...)
        r = live[rows]
        Xb, wb, uxb = X[r], _at(omega, r), u_x[r, None]
        return lambda h: (np.abs(u.eval(_ray_points(Xb, wb, h.reshape(
            len(Xb), -1))) - uxb) - threshold).reshape(h.shape)

    # rays go through in blocks of _BLOCK_SAMPLES grid samples, which
    # bounds the memory of the grids and their residuals; the field gets
    # them in slices of _EVAL_SAMPLES
    parts = [(np.empty(0, dtype=int), np.empty(0), np.empty(0),
              np.empty(0, dtype=bool))]
    block, step = max(1, _BLOCK_SAMPLES // N), max(1, _EVAL_SAMPLES // N)
    for s in range(0, live.size, block):
        grids = np.exp(log_lo + log_span[s:s + block, None] * t)
        vals = np.empty(grids.shape)
        for e in range(0, len(grids), step):
            g = grids[e:e + step]
            vals[e:e + step] = residual(slice(s + e, s + e + len(g)))(g)
        pos = vals > 0.0
        max_flips = int(np.max(np.sum(pos[:, :-1] != pos[:, 1:], axis=1)))
        if max_flips > N // 4:
            raise BracketingError(
                f"{max_flips} sign changes on a {N}-point ray grid; "
                "increase h_bracket_grid")
        cell, a, b, is_pos = sign_pieces(lambda r: residual(s + r), grids,
                                         vals)
        cell, a, b = cell[is_pos], a[is_pos], b[is_pos]
        # a set still above the threshold at the last grid point runs on
        # to H, or to infinity when the far jump |u(x)| clears it
        parts.append((s + cell, a, b, b == grids[cell, -1]))
    cell, a, b, tail = (np.concatenate(v) for v in zip(*parts))
    row = live[cell]
    far_jump = np.abs(u_x[row])
    clear = far_jump > threshold + eta
    b[tail] = np.where(clear[tail], math.inf, H[row[tail]])
    return row, a, b, tail & ~clear & (far_jump > threshold - eta)


def nguyen_functional(u: ScalarField, p, delta: float,
                      weight_mode: str = "unit",
                      quad: QuadratureSpec | None = None) -> FunctionalValue:
    """Threshold functional over {|u(x) - u(y)| > delta} of
    delta^{p(x)} / |x-y|^{n + p(x)} (times p(x) in p_of_x mode)."""
    quad = quad or QuadratureSpec()
    if delta <= 0:
        raise DomainError("delta must be positive")
    weighted = _weight_flag(weight_mode)
    if delta >= 2.0 * u.sup_bound:
        return FunctionalValue(0.0, 0.0, 0.0, 0, empty_superlevel=True)
    _require_lipschitz_decay(u, "nguyen_functional")

    rule = _resolve_rule(quad, u.dimension)
    far = u.far_radius(delta * _FAR_ETA_FRAC)
    state = {"found": False, "amb": 0.0}

    def F(X):
        m = X.shape[0]
        px = p.eval(X)
        # libm powers of Python floats; numpy's SIMD pow rounds otherwise
        delta_p = np.array([delta ** q for q in px.tolist()])

        def block(rows, omega):
            # closed-form inner integral: over each superlevel interval
            # (a, b), delta^p (a^-p - b^-p) / p, without the 1/p when weighted
            row, a, b, ambiguous = superlevel_intervals(u, rows, omega, delta,
                                                        quad, far)
            P = px[row % m].tolist()
            vals = np.zeros(rows.shape[0])
            np.add.at(vals, row, [ai ** -q - bi ** -q for ai, bi, q
                                  in zip(a.tolist(), b.tolist(), P)])
            state["found"] = state["found"] or row.size > 0
            # possible unclassified mass beyond H on ambiguous rays, summed
            # per direction
            amb = [(r // m, delta ** q * bi ** -q / q) for r, q, bi, flag
                   in zip(row.tolist(), P, b.tolist(), ambiguous) if flag]
            for _, terms in itertools.groupby(amb, key=lambda t: t[0]):
                state["amb"] += sum(t for _, t in terms)
            vals = vals.reshape(-1, m) * delta_p
            return vals if weighted else vals / px
        return _direction_sum(X, rule, _BLOCK_SAMPLES // quad.h_bracket_grid,
                              block)

    base = u.far_radius(0.5 * min(delta, u.sup_bound)) + 2.0
    res = _outer_integrate(F, u, quad, base, seeds=u.kink_points())
    return FunctionalValue(
        value=res.value,
        error_estimate=res.error + state["amb"],
        truncation_radius=res.radius,
        node_count=res.n_evals,
        empty_superlevel=not state["found"])


def local_energy(u: ScalarField, p, weight_mode: str = "unit",
                 quad: QuadratureSpec | None = None) -> FunctionalValue:
    """The local anisotropic energy: integral of K_{n,p(x)} |grad u|^{p(x)}
    (times p(x) in p_of_x mode).  This is the limit target of the sweeps."""
    quad = quad or QuadratureSpec()
    weighted = _weight_flag(weight_mode)
    n = u.dimension

    def F(X):
        px = p.eval(X)
        g = np.sqrt(_square_norms(u.grad(X)))
        vals = k_np_values(n, px) * g ** px
        if weighted:
            vals = vals * px
        return vals

    try:
        base = u.far_radius(1e-8 * max(u.sup_bound, 1.0)) + 2.0
    except UnsupportedFieldError:
        raise UnsupportedFieldError(
            "local_energy needs a decaying or compactly supported field")
    res = _outer_integrate(F, u, quad, base, seeds=u.kink_points())
    return FunctionalValue(res.value, res.error, res.radius, res.n_evals)


def _weight_flag(weight_mode: str) -> bool:
    if weight_mode not in ("unit", "p_of_x"):
        raise DomainError(f"unknown weight_mode {weight_mode!r}")
    return weight_mode == "p_of_x"


# ----------------------------------------------------------------------
# power-kernel inner integrals (epsilon functional, BBM, fractional)
# ----------------------------------------------------------------------

def ray_slope(u: ScalarField, x: np.ndarray, omega: np.ndarray,
              h: np.ndarray, grad_dir, u_x) -> np.ndarray:
    """|u(x + h w) - u(x)| / h on pieces of rays: row k of h holds ray
    parameters on the ray from x[k] in direction w (omega, or omega[k]
    when it holds one per row), where u is u_x[k] and grad u . w is
    grad_dir[k].  Below the cancellation floor the quotient loses all
    significant digits and is replaced by |grad_dir|."""
    h_safe = _H_SAFE * np.maximum(1.0, np.sqrt(np.vecdot(x, x)))
    out = np.repeat(np.abs(grad_dir)[:, None], h.shape[1], axis=1)
    big = h >= h_safe[:, None]
    k = np.nonzero(big)[0]
    out[big] = np.abs(u.eval(x[k] + h[big][:, None] * _at(omega, k))
                      - u_x[k]) / h[big]
    return out


def ray_t_nodes(u: ScalarField, X: np.ndarray, omega: np.ndarray, beta,
                H: np.ndarray, quad: QuadratureSpec, exclude=None):
    """GL15 nodes in t = h^beta on the rays x_i + h w, 0 < h <= H_i, of
    the points X; w is omega or, when omega holds one direction per row,
    omega[i], and beta is a number or one per point.

    A ray's panels break at a geometric grid from 1e-13 to H_i, at its
    kink-radius crossings and at the ends of the intervals `exclude` =
    (row, a, b), whose panels are dropped.  Returns (row, h, w_t, psi):
    the ray of each panel and, one (k, 15) row per panel, the nodes in h,
    their t weights and the ray slope psi there.
    """
    m, n_panels = X.shape[0], max(16, quad.h_bracket_grid // 2)
    geo = np.geomspace(1e-13, H, n_panels + 1, axis=1)
    rows = np.repeat(np.arange(m), n_panels + 2)
    parts = [(rows, np.hstack([np.zeros((m, 1)), geo]).ravel(),
              np.zeros_like(rows))]
    radii = np.unique(np.abs(u.kink_points()))
    if radii.size:
        # np.vecdot rounds as the dot product of a single point does
        xw = np.vecdot(X, omega)[:, None]
        disc = xw * xw - (np.vecdot(X, X)[:, None] - radii * radii)
        sq = np.sqrt(np.where(disc >= 0.0, disc, np.nan))
        cross = np.hstack([-xw - sq, -xw + sq])
        kr, kc = np.nonzero((cross > 1e-12) & (cross < H[:, None]))
        parts.append((kr, cross[kr, kc], np.zeros_like(kr)))
    if exclude is not None:
        # an interval opens (+1) at a and closes (-1) at b; ends past the
        # cutoff move to H, so no kept panel reaches beyond it
        erow, a, b = exclude
        ends = np.concatenate([erow, erow])
        parts.append((ends, np.minimum(np.concatenate([a, b]), H[ends]),
                      np.repeat([1, -1], erow.size)))
    row, lo, hi = row_pieces(*map(np.concatenate, zip(*parts)))
    beta = beta[row] if np.ndim(beta) else beta
    t, w_t = piece_nodes(lo ** beta, hi ** beta)
    h = t ** np.reshape(1.0 / beta, (-1, 1))
    psi = ray_slope(u, X[row], _at(omega, row), h,
                    np.vecdot(u.grad(X), omega)[row], u.eval(X)[row])
    return row, h, w_t, psi


def _power_functional(u: ScalarField, quad: QuadratureSpec, coef: float,
                      beta: float, exps, restrict_small: bool
                      ) -> FunctionalValue:
    """coef times the double integral of |u(x)-u(y)|^q / |x-y|^{n+r},
    with (q, r) = exps(X) per outer point and r = q - beta, so the ray
    integral runs in t = h^beta.

    restrict_small limits the pairs to |u(x)-u(y)| <= 1.  Beyond the ray
    cutoff H the jump is |u(x)| up to eta (exactly so for compact
    support), which the far tail coef |u(x)|^q H^{-r} / r adds back.
    """
    rule = _resolve_rule(quad, u.dimension)
    far = u.far_radius(_FAR_ETA_FRAC * max(u.sup_bound, 1.0))
    far_small = u.far_radius(_FAR_ETA_FRAC) if restrict_small else None

    def F(X):
        q, r = exps(X)
        m = X.shape[0]
        H = _ray_cutoff(X, far, quad)
        far_tail = coef * np.abs(u.eval(X)) ** q * H ** (-r) / r

        def block(rows, omega):
            exclude = None
            tail = np.ones((rows.shape[0] // m, m), dtype=bool)
            if restrict_small:
                erow, a, b, _ = superlevel_intervals(u, rows, omega, 1.0,
                                                     quad, far_small)
                exclude = (erow, a, b)
                # a large jump that reaches infinity leaves no far tail
                tail.flat[erow[np.isinf(b)]] = False
            row, _, w_t, psi = ray_t_nodes(u, rows, omega, beta,
                                           np.tile(H, len(tail)), quad,
                                           exclude)
            qn = q[row % m, None] if np.ndim(q) else q
            # every ray keeps its first panel, so each row owns a
            # non-empty run of 15 nodes per panel
            starts = 15 * np.searchsorted(row, np.arange(rows.shape[0]))
            val = coef * (np.add.reduceat((w_t * psi ** qn).ravel(), starts)
                          / beta)
            val = val.reshape(tail.shape)
            val[tail] += np.broadcast_to(far_tail, tail.shape)[tail]
            return val
        # a ray holds about 7.5 h_bracket_grid nodes
        return _direction_sum(X, rule, _EVAL_SAMPLES * 2
                              // (15 * quad.h_bracket_grid), block)

    res = _outer_integrate(F, u, quad, far + 2.0, seeds=u.kink_points())
    return FunctionalValue(res.value, res.error, res.radius, res.n_evals)


def eps_functional(u: ScalarField, p, eps: float, mode: str = "full",
                   quad: QuadratureSpec | None = None) -> FunctionalValue:
    """Perturbed functional eps |u(x)-u(y)|^{p(x)+eps} / |x-y|^{n+p(x)}.

    mode "full" integrates over all pairs, "small_jump" restricts to
    |u(x)-u(y)| <= 1, and "large_jump_tail" computes the companion
    integral of 1 / |x-y|^{n+p(x)} over |u(x)-u(y)| > 1, which is the
    threshold functional at delta = 1 (it carries no eps factor).
    """
    quad = quad or QuadratureSpec()
    if mode not in ("full", "small_jump", "large_jump_tail"):
        raise DomainError(f"unknown eps mode {mode!r}")
    if mode != "large_jump_tail" and not (0.0 < eps < 1.0):
        raise DomainError("eps must lie in (0, 1)")
    if u.sup_bound == 0.0:
        return FunctionalValue(0.0, 0.0, 0.0, 0, empty_superlevel=True)
    _require_lipschitz_decay(u, "eps_functional")

    if mode == "large_jump_tail":
        if u.osc_bound <= 1.0:
            return FunctionalValue(0.0, 0.0, 0.0, 0, empty_superlevel=True)
        return nguyen_functional(u, p, 1.0, "unit", quad)

    def exps(X):
        px = p.eval(X)
        return px + eps, px

    return _power_functional(u, quad, eps, eps, exps,
                             mode == "small_jump" and 2.0 * u.sup_bound > 1.0)


def bbm_functional(u: ScalarField, p_const: float, s: float,
                   quad: QuadratureSpec | None = None) -> FunctionalValue:
    """(1 - s) times the constant-exponent Gagliardo modular
    |u(x)-u(y)|^p / |x-y|^{n+sp}; its s -> 1 limit is K_{n,p} times the
    local p-energy."""
    quad = quad or QuadratureSpec()
    if not (0.0 < s < 1.0):
        raise DomainError("s must lie in (0, 1)")
    if p_const <= 1.0:
        raise DomainError("bbm functional needs constant p > 1")
    if u.sup_bound == 0.0:
        return FunctionalValue(0.0, 0.0, 0.0, 0, empty_superlevel=True)
    _require_lipschitz_decay(u, "bbm_functional")

    def exps(X):
        # Python floats keep `psi ** 2.0` on numpy's exact-square path
        return p_const, s * p_const

    return _power_functional(u, quad, 1.0 - s, (1.0 - s) * p_const, exps,
                             False)


# ----------------------------------------------------------------------
# layer-cake identity and the uniform bound
# ----------------------------------------------------------------------

@dataclass
class LayerCakeResult:
    lhs: float
    rhs_small: float
    rhs_large: float

    @property
    def residual(self) -> float:
        rhs = self.rhs_small + self.rhs_large
        return abs(self.lhs - rhs) / max(1.0, abs(rhs))


class _PairSection:
    """Shared y-sectioning machinery for the layer-cake identity.

    A fixed tensor layout (x nodes) x (y cells, GL15 within each cell)
    supports, for any batch of thresholds, splitting every x row's y
    range into the parts above and below {phi = threshold}.  Whole cells
    are classified by the extremes of phi over their sample path.  One
    piece builder, `_boundary_pieces`, resolves the boundary cells of both
    callers: `quadrature.sign_pieces` solves every sign change of the
    batch at once, from the sampled values of phi, and cuts each cell
    into signed (row, lo, hi) pieces, which get fresh GL nodes.
    """

    N_XPAN = 16
    N_YCELL = 80

    def __init__(self, phi, psi, box, y_seeds=None):
        self.phi, self.psi = phi, psi
        a, b = box
        self.xnodes, self.xweights = panel_nodes(
            np.linspace(a, b, self.N_XPAN + 1))

        yedges = np.linspace(a, b, self.N_YCELL + 1)
        if y_seeds is not None:
            extra = [s for s in y_seeds if a < s < b]
            yedges = np.unique(np.concatenate([yedges, np.asarray(extra)]))
        self.yedges = yedges
        m, c = self.xnodes.size, yedges.size - 1
        ynodes, yw = panel_nodes(yedges)
        YY = np.tile(ynodes, (m, 1))
        XX = np.repeat(self.xnodes, ynodes.size).reshape(m, -1)
        ynodes = ynodes.reshape(c, 15)
        self.cell_w = yw.reshape(1, c, 15)
        self.PHI_nodes = phi(XX, YY).reshape(m, c, 15)
        self.PSI_nodes = psi(XX, YY).reshape(m, c, 15)
        # per-cell sample path: left edge, the 15 GL nodes, right edge;
        # sign changes anywhere on it mark a cell as boundary, which also
        # catches dips invisible to the edges alone
        self.ysamples = np.concatenate(
            [yedges[:-1, None], ynodes, yedges[1:, None]], axis=1)  # (c, 17)
        PHI_edges = phi(np.repeat(self.xnodes, yedges.size).reshape(m, -1),
                        np.tile(yedges, (m, 1)))
        self.PHI_samples = np.concatenate(
            [PHI_edges[:, :-1, None], self.PHI_nodes,
             PHI_edges[:, 1:, None]], axis=2)  # (m, c, 17)
        self.cell_psi = np.sum(self.cell_w * self.PSI_nodes, axis=2)  # (m, c)
        self.cell_min = self.PHI_samples.min(axis=2)
        self.cell_max = self.PHI_samples.max(axis=2)

    def _boundary_pieces(self, threshs: np.ndarray, boundary: np.ndarray):
        """Split the boundary cells flagged in `boundary` (shape (d, m, c))
        at the roots of phi(x, .) = threshs[d].

        Returns (d, row, lo, hi, is_above) arrays of the non-empty pieces,
        in boundary-cell order (row-major over (d, m, c)) and by y within
        each cell, so that np.add.at accumulates them in a fixed order.
        """
        # flatnonzero plus unravel_index gives np.nonzero's row-major
        # order at a fraction of its cost on n-d masks
        dd, rows, cols = np.unravel_index(np.flatnonzero(boundary),
                                          boundary.shape)
        vals = self.PHI_samples[rows, cols, :] - threshs[dd, None]  # (k, 17)

        def residual(brows):
            xv, th = self.xnodes[rows[brows]], threshs[dd[brows]]
            return lambda y: self.phi(xv, y) - th

        cell, lo, hi, is_above = sign_pieces(residual, self.ysamples[cols],
                                             vals)
        return dd[cell], rows[cell], lo, hi, is_above

    def _piece_nodes(self, row, lo, hi):
        """GL15 abscissae (x, y) and weights on each piece [lo, hi] of
        x row `row`; each of shape (n_pieces, 15)."""
        ys, ww = piece_nodes(lo, hi)
        xb = np.broadcast_to(self.xnodes[row][:, None], ys.shape)
        return xb, ys, ww

    def psi_integral_above_batch(self, threshs: np.ndarray) -> np.ndarray:
        """Integral of psi over {y : phi(x, y) > t} for a batch of
        thresholds at once; returns shape (len(threshs), n_xnodes).

        Whole cells reuse the precomputed psi cell integrals; boundary
        cells across the entire (threshold, x, cell) batch share one
        vectorized root solve and one fresh GL evaluation.
        """
        threshs = np.asarray(threshs, dtype=float)
        above_all = self.cell_min[None] > threshs[:, None, None]  # (d, m, c)
        above = np.sum(np.where(above_all, self.cell_psi[None], 0.0), axis=2)
        boundary = ~above_all & (self.cell_max[None] > threshs[:, None, None])
        if not boundary.any():
            return above
        dd, row, lo, hi, is_above = self._boundary_pieces(threshs, boundary)
        dd, row = dd[is_above], row[is_above]
        xb, ys, ww = self._piece_nodes(row, lo[is_above], hi[is_above])
        np.add.at(above, (dd, row), np.sum(ww * self.psi(xb, ys), axis=1))
        return above

    def integral_pair(self, thresh: float, row_data: np.ndarray,
                      igd_above, igd_below) -> tuple:
        """Row-wise integrals over the two sides of {phi = thresh}.

        `row_data` holds one scalar per x node (here: alpha(x)); each
        integrand receives it broadcast against the node layout, as
        igd(row, PHI, PSI).  Returns (above_rows, below_rows), each of
        shape (n_xnodes,).
        """
        above_all = self.cell_min > thresh  # (m, c)
        below_all = ~(self.cell_max > thresh)
        rd = row_data[:, None, None]
        w_above = np.where(above_all[:, :, None], self.cell_w, 0.0)
        w_below = np.where(below_all[:, :, None], self.cell_w, 0.0)
        above = np.sum(w_above * igd_above(rd, self.PHI_nodes,
                                           self.PSI_nodes), axis=(1, 2))
        below = np.sum(w_below * igd_below(rd, self.PHI_nodes,
                                           self.PSI_nodes), axis=(1, 2))
        boundary = ~(above_all | below_all)
        if boundary.any():
            _, rows, lo, hi, is_above = self._boundary_pieces(
                np.array([thresh]), boundary[None])
            xb, ys, ww = self._piece_nodes(rows, lo, hi)
            phis = self.phi(xb, ys)
            psis = self.psi(xb, ys)
            rd = row_data[rows][:, None]
            vals_a = np.sum(ww * igd_above(rd, phis, psis), axis=1)
            vals_b = np.sum(ww * igd_below(rd, phis, psis), axis=1)
            np.add.at(above, rows, np.where(is_above, vals_a, 0.0))
            np.add.at(below, rows, np.where(is_above, 0.0, vals_b))
        return above, below


def layer_cake_check(phi, psi, alpha, box: tuple[float, float],
                     quad: QuadratureSpec | None = None,
                     y_seeds=None) -> LayerCakeResult:
    """Exchange identity between the delta-layered double integral and
    its two direct branches.

    lhs integrates, over delta in (0, 1), the double integral of
    delta^{alpha(x)} psi(x, y) over {phi > delta}; rhs_small and
    rhs_large are the direct integrals of phi^{alpha+1} psi / (alpha+1)
    over {phi <= 1} and psi / (alpha+1) over {phi > 1}.  phi and psi are
    vectorized pair functions on box x box; alpha is vectorized on box
    with values > -1.  Both sides share the x discretization, but the
    delta integration, the indicator sectioning, and the direct
    antiderivative are computed along genuinely different routes, so the
    residual measures the identity rather than a shared shortcut.
    """
    quad = quad or QuadratureSpec()
    a, b = float(box[0]), float(box[1])
    if not a < b:
        raise DomainError("box must satisfy a < b")

    sec = _PairSection(phi, psi, (a, b), y_seeds)
    alpha_x = np.asarray(alpha(sec.xnodes), dtype=float)
    if np.any(alpha_x <= -1.0):
        raise DomainError("alpha must exceed -1 on the box")

    def D(deltas):
        above = sec.psi_integral_above_batch(deltas)
        layers = above * deltas[:, None] ** alpha_x[None, :]
        return layers @ sec.xweights

    lres = adaptive_integrate(D, 0.0, 1.0, rel_tol=quad.rel_tol * 0.01,
                              max_panels=128)

    def igd_below(al, phis, psis):
        return phis ** (al + 1.0) * psis / (al + 1.0)

    def igd_above(al, phis, psis):
        return psis / (al + 1.0)

    above_rows, below_rows = sec.integral_pair(1.0, alpha_x,
                                               igd_above, igd_below)
    rhs_large = float(np.sum(sec.xweights * above_rows))
    rhs_small = float(np.sum(sec.xweights * below_rows))

    return LayerCakeResult(lhs=lres.value, rhs_small=rhs_small,
                           rhs_large=rhs_large)


@dataclass
class UniformBoundCheck:
    sup_value: float
    rhs_bound: float
    values: tuple = dc_field(default_factory=tuple)


def uniform_bound_check(u: ScalarField, p, delta_grid,
                        quad: QuadratureSpec | None = None
                        ) -> UniformBoundCheck:
    """sup over the delta grid of the threshold functional against the
    classical gradient-norm bound |grad u|_{p+}^{p+} + |grad u|_{p-}^{p-}.

    The constant relating them is existential; only finiteness and
    stability of the ratio are meaningful, which downstream tests assert.
    """
    quad = quad or QuadratureSpec()
    grid = [float(d) for d in delta_grid]
    if not grid or any(d <= 0 for d in grid):
        raise DomainError("delta grid must be finite positive values")
    vals = tuple(nguyen_functional(u, p, d, "unit", quad).value for d in grid)

    if u.sup_bound == 0.0:
        return UniformBoundCheck(0.0, 0.0, vals)

    def igd(X, q):
        return np.sqrt(_square_norms(u.grad(X))) ** q

    base = u.far_radius(1e-10 * max(u.sup_bound, 1.0)) + 2.0
    rhs = 0.0
    for q in (p.p_plus, p.p_minus):
        res = _outer_integrate(lambda X, q=q: igd(X, q), u, quad, base,
                               seeds=u.kink_points())
        rhs += res.value
    return UniformBoundCheck(max(vals), rhs, vals)
