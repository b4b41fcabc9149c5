"""Nonlocal energy functionals computed through polar reduction.

All double integrals over pairs (x, y) are reduced to an outer integral
over x, a sum over ray directions w from a sphere rule, and an inner
integral over the ray parameter h in y = x + h w.  The threshold
functional's inner integrand delta^p h^{-p-1} has an exact
antiderivative, so its only numerical content is the location of the
superlevel set {h : |u(x+hw) - u(x)| > delta}.  In 1D every field the
functional admits has closed-form level sets (a monotone profile of
|y - c|, or a piecewise-linear table), so the set's ends are exact
sphere crossings or segment roots (`superlevel_chords`); in n >= 2 the
set is found by sign-change bracketing on a geometric h grid whose
brackets are solved to 4 ulp by a safeguarded Illinois (regula falsi)
step (`superlevel_intervals`).  The
epsilon-perturbed, BBM and fractional-order integrals have no closed
inner antiderivative; one kernel, `ray_t_nodes`, computes them in the
substituted variable t = h^beta, which absorbs the h^{beta-1}
singularity at the origin, for a whole batch of rays at once.

Outer truncation of the threshold functional and the local energy is
self-validating: a base radius from the field's analytic tail bound is
extended by doubling shells until a shell contributes less than a
fraction of the running total.  The epsilon, BBM and fractional
integrals instead stop x at R = far + 2, beyond which |u| <= 1e-6
max(sup |u|, 1), and add the pairs whose x lies beyond R exactly: at
their other point y, through the exit distance h_R(y, w) of each ray
(their x-tail decays only like R^{-sp}, which no shell test sees).
Everything is deterministic; repeated runs are bit-identical.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field, replace

import numpy as np

from .errors import BracketingError, DomainError, UnsupportedFieldError
from .fields import SampledTable, ScalarField, _has_tail, _square_norms
from .quadrature import (adaptive_integrate, gl15_gl7, gl15_gl7_nodes,
                         golden_max, panel_nodes, piece_abscissae,
                         piece_nodes, piece_weights, row_pieces, sign_pieces)
from .sphere import SphereRule, default_rule, k_np_values

# the delta panels layer_cake_check may split up to
_DELTA_PANELS = 2 ** 14
# far-field headroom: |u| must drop below this fraction of the threshold
# before a ray's sign pattern is declared stable
_FAR_ETA_FRAC = 1e-6
# below this ray parameter the difference quotient is replaced by the
# directional derivative (relative to max(1, |x|))
_H_SAFE = 1e-7
_EPS = np.finfo(float).eps
# grid samples in a block of ray directions, whose flips share one root
# solve; u.eval takes a grid in slices of _EVAL_SAMPLES at most, which
# bounds the memory of the field's temporaries
_BLOCK_SAMPLES = 2 ** 17
_EVAL_SAMPLES = 2 ** 15
# GL nodes in one power block (one ray_t_nodes call), at the about 4.5
# h_bracket_grid nodes a ray holds: 113 rays at the default grid, so one
# paired outer split (44 points in both 1D directions, 88 rays of about
# 50,000 nodes) is one kernel call; a call's time grows no faster than
# its node count, so fewer, larger calls save their fixed cost, and at
# about 32 bytes a node its peak memory stays near 2 MB
_POWER_NODES = 2 ** 16
# glibc's malloc maps each block above its mmap threshold afresh from the
# kernel and raises the threshold to the first such block freed; freeing
# one block of _HEAP_FLOATS here keeps every temporary up to that size on
# the heap, whatever else the process allocated first (a `power` pass took
# 106k more minor page faults and 25% longer without; a 1 MiB block left
# `threshold` at about 21,700 faults a pass when vexs was compiled at start)
_HEAP_FLOATS = 2 ** 20
np.empty(_HEAP_FLOATS)


@dataclass
class QuadratureSpec:
    """All discretization choices for the nonlocal functionals.

    truncation_radius: outer domain half-width; None selects the
        self-validating automatic choice (tail radius plus doubling
        shells).  For the epsilon, BBM and fractional integrals it is
        where the exact exterior term starts (None: the tail radius plus
        2, no shells).
    sphere_rule: directions for the polar reduction; None selects a
        modest default per dimension (convergence in the rule is the
        caller's concern, reported through error estimates).
    outer_x_tolerance: relative tolerance of the adaptive outer integral.
    h_bracket_grid: resolution of the initial geometric h grid used for
        superlevel bracketing in n >= 2 (1D superlevel sets are closed
        form); also sets the inner panel count (half of it) for the
        epsilon, BBM and fractional inner integrals.
    rel_tol: global relative tolerance (the doubling shells of the
        threshold functional and local energy, a modular's tail radius,
        the layer-cake delta integral); the epsilon, BBM and fractional
        integrals do not read it.
    """

    truncation_radius: float | None = None
    sphere_rule: SphereRule | None = None
    outer_x_tolerance: float = 1e-7
    h_bracket_grid: int = 128
    rel_tol: float = 1e-6

    def __post_init__(self):
        if self.outer_x_tolerance <= 0 or self.rel_tol <= 0:
            raise DomainError("tolerances must be positive")
        if self.h_bracket_grid < 8:
            raise DomainError("h_bracket_grid must be at least 8")
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
    nodes: object = dc_field(default=None, repr=False, compare=False)


def _outer_integrate(F, u: ScalarField, quad: QuadratureSpec,
                     base_radius: float, seeds=(), radial: bool = False
                     ) -> _OuterResult:
    """Integrate F (callable on (m, n) points) over R^n.

    n >= 2 reduces to polar coordinates with the functional-grade sphere
    rule for the angular part.  radial=True says F takes one value on
    each sphere |x| = r (up to rounding, and for the threshold and power
    integrands up to the inner rule's error, none on the equal-angle 2D
    rule); the outer angular part then takes one direction, the rule's
    first node, weighted by the rule's total weight.  In 1D the sphere is
    {+-1}, so a radial F is integrated over [0, R] with weight 2, and any
    other F over the line [-R, R], as the one direction +1 of weight 1.
    `seeds` are 1D abscissae (or radii) used as initial panel boundaries.
    F must give a point the same value whatever batch it is in:
    adaptive_integrate hands it several panels at once.  The result's
    nodes() gives the points and weights of the final GL15 nodes of every
    panel, whose weighted sum of F is the value up to rounding.
    """
    n = u.dimension
    count = [0]

    if n == 1 and not radial:
        # x * 1.0 and a one-term sum are exact: the line's own floats
        nodes, weights = np.ones((1, 1)), np.ones(1)
        segment = _integrate_segments_1d
    else:
        rule = _resolve_rule(quad, n)
        nodes, weights = rule.nodes, rule.weights
        if radial:
            nodes, weights = nodes[:1], np.array([np.sum(weights)])
        segment = _integrate_segments_radial

    def points(rs):
        return (rs[:, None, None] * nodes[None, :, :]).reshape(-1, n)

    def f_line(rs):
        pts = points(rs)
        vals = F(pts).reshape(rs.size, weights.size)
        count[0] += pts.shape[0]
        # a row-wise sum: a BLAS mat-vec rounds a row differently in
        # different batches (one direction's sum is its one product)
        return np.sum(vals * weights, axis=1) * rs ** (n - 1)

    def outer_nodes():
        rs, w = (np.concatenate(v) for v in zip(
            *(panel_nodes(np.array(r.edges), 15) for r in parts)))
        return points(rs), (w[:, None] * weights * rs[:, None] ** (n - 1)
                            ).ravel()

    # a fixed truncation radius takes no doubling shells
    fixed = quad.truncation_radius is not None
    R = float(quad.truncation_radius) if fixed else base_radius
    parts = segment(f_line, 0.0, R, quad, seeds)
    total, err = sum(r.value for r in parts), sum(r.error for r in parts)
    for _ in range(0 if fixed else 40):
        shell = segment(f_line, R, 2.0 * R, quad, ())
        parts += shell
        sval = sum(r.value for r in shell)
        total += sval
        err += sum(r.error for r in shell)
        R *= 2.0
        if abs(sval) <= 0.25 * quad.rel_tol * max(abs(total), 1e-300):
            err += abs(sval)  # geometric-tail allowance for what remains
            break
    return _OuterResult(total, err, R, count[0], outer_nodes)


def _integrate_segments_1d(f_line, r_lo, r_hi, quad, seeds):
    seeds = [s for s in np.atleast_1d(np.asarray(seeds, dtype=float))
             if -r_hi < s < r_hi]
    if r_lo == 0.0:
        return [adaptive_integrate(f_line, -r_hi, r_hi,
                                   rel_tol=quad.outer_x_tolerance,
                                   seeds=sorted(set(seeds + [0.0])))]
    return [adaptive_integrate(f_line, lo, hi, rel_tol=quad.outer_x_tolerance)
            for lo, hi in ((-r_hi, -r_lo), (r_lo, r_hi))]


def _integrate_segments_radial(f_line, r_lo, r_hi, quad, seeds):
    seeds = [abs(s) for s in np.atleast_1d(np.asarray(seeds, dtype=float))
             if r_lo < abs(s) < r_hi]
    return [adaptive_integrate(f_line, max(r_lo, 0.0), r_hi,
                               rel_tol=quad.outer_x_tolerance,
                               seeds=sorted(set(seeds)))]


def _require_same_dimension(u: ScalarField, p, op: str) -> None:
    """DomainError unless the field and the exponent (for a pair exponent,
    its base) live in the same dimension."""
    if u.dimension != p.dimension:
        raise DomainError(f"{op}: the field is {u.dimension}D but the "
                          f"exponent is {p.dimension}D")


def _require_lipschitz_decay(u: ScalarField, op: str) -> float:
    if u.lipschitz_bound is None or u.lipschitz_bound <= 0:
        raise UnsupportedFieldError(
            f"{op} needs a Lipschitz field; {u.family} declares no bound")
    if not _has_tail(u):
        raise UnsupportedFieldError(
            f"{op} needs a decaying field; {u.family} has no tail bound")
    return u.lipschitz_bound


def _ray_cutoff(X: np.ndarray, far: float) -> np.ndarray:
    """Per point, the h beyond which its rays stay outside radius far."""
    return np.sqrt(_square_norms(X)) + far + 1.0


def _direction_blocks(X: np.ndarray, rule: SphereRule, rays: int):
    """The rays of the points X (m, n) in d >= 1 of the rule's directions
    at a time, d * m <= rays where it can, in rule order: (rows, omega,
    weights), row k*m + i of rows point i in the direction omega[k*m + i]
    (direction-major), or omega itself when d = 1, and the d directions'
    weights."""
    m = X.shape[0]
    step = max(1, rays // m)
    for k in range(0, rule.node_count, step):
        nodes = rule.nodes[k:k + step]
        yield (np.tile(X, (len(nodes), 1)), nodes[0] if len(nodes) == 1
               else np.repeat(nodes, m, axis=0), rule.weights[k:k + step])


def _direction_sum(X: np.ndarray, rule: SphereRule, rays: int, block):
    """The weighted sum, in rule order, of the values (shape (d, m))
    that block(rows, omega) returns for the rays of `_direction_blocks`."""
    acc = np.zeros(X.shape[0])
    for rows, omega, weights in _direction_blocks(X, rule, rays):
        for w, v in zip(weights, block(rows, omega)):
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
    H = _ray_cutoff(X, far)
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


def _sphere_crossings(b: np.ndarray, c: np.ndarray, root: np.ndarray):
    """The roots (near, far) = -b -+ root of h^2 + 2 b h = c, root =
    sqrt(b^2 + c): where the ray x + h w crosses the sphere of radius rho
    about a center, for b = (x - center) . w and c = rho^2 - |x -
    center|^2.  Each is taken without cancellation, the far root as c /
    (b + root) when b > 0 and the near one as c / (b - root) when b <= 0;
    NaN where root is (the ray misses the sphere)."""
    far = np.where(b > 0.0, c / (b + root), root - b)
    near = np.where(b > 0.0, -(b + root), c / (b - root))
    return near, far


def superlevel_chords(u: ScalarField, X: np.ndarray, omega: np.ndarray,
                      threshold: float):
    """The superlevel sets {h > 0 : |u(x + h w) - u(x)| > threshold} of
    the points X (shape (m, n)) in closed form, as the flat arrays (row,
    a, b) of `superlevel_intervals` (sorted by row and by h within a row,
    b = inf where a set reaches infinity) and each interval's length b -
    a, formed without the cancellation of b - a on short intervals far
    out; omega is one direction w for every ray or one per row.

    A monotone profile of |y - c| has the chord of the ball {|u| > |u(x)|
    + threshold} ahead of x, where the ray heads into it, and the outside
    of the ball {|u| >= |u(x)| - threshold}, which runs to infinity; both
    ends are `_sphere_crossings`.  A sampled table (1D) is linear between
    its knots and the roots of u = u(x) +- threshold, so each piece
    between them is in the set or out of it as its midpoint is.
    """
    u_x = u.eval(X)
    if isinstance(u, SampledTable):
        return _table_chords(u, X[:, 0], np.broadcast_to(omega, X.shape)[:, 0],
                             u_x, threshold)
    level = np.abs(u_x)
    d = X - u.center
    r = np.sqrt(_square_norms(d))
    b = np.vecdot(d, omega)
    # the center's distance from the line of each ray: 0 in 1D
    perp = np.sqrt(_square_norms(d - b[:, None] * omega))
    parts = []
    for rows, v, chord in (
            (np.nonzero((b < 0.0) & (level + threshold < u.sup_bound))[0],
             level + threshold, True),
            (np.nonzero(level - threshold > 0.0)[0], level - threshold,
             False)):
        rho, rr, pr = u.level_radius(v[rows]), r[rows], perp[rows]
        with np.errstate(invalid="ignore"):
            root = np.sqrt((rho - pr) * (rho + pr))
        near, far = _sphere_crossings(b[rows], (rho - rr) * (rho + rr), root)
        if chord:
            hit = root > 0.0
            parts.append((rows[hit], near[hit], far[hit], 2.0 * root[hit]))
        else:
            inf = np.full(rows.size, math.inf)
            parts.append((rows, far, inf, inf))
    row, a, b, length = (np.concatenate(v) for v in zip(*parts))
    order = np.lexsort((a, row))
    return row[order], a[order], b[order], length[order]


def _table_chords(u: ScalarField, x: np.ndarray, w: np.ndarray,
                  u_x: np.ndarray, threshold: float):
    """`superlevel_chords` of a sampled table on the 1D rays x + h w, cut
    in s = y w, which orders a ray's points by h and keeps the digits of
    the knots and roots y."""
    m = x.size
    s = np.hstack([np.broadcast_to(u.xs, (m, u.xs.size)),
                   u.level_crossings(u_x + threshold),
                   u.level_crossings(u_x - threshold)]) * w[:, None]
    s0 = x * w
    ray, k = np.nonzero(s > s0[:, None])
    rays = np.arange(m)
    # each ray's pieces from s0 on; past the last break u is 0
    row, lo, hi = row_pieces(np.concatenate([ray, rays, rays]), np.concatenate(
        [s[ray, k], s0, np.full(m, math.inf)]))
    mid = np.where(np.isinf(hi), lo + 1.0, 0.5 * (lo + hi))
    inside = np.abs(u.eval(mid * w[row]) - u_x[row]) > threshold
    # merge the runs of pieces inside the set, within a row
    same = row[1:] == row[:-1]
    first = inside & ~np.concatenate([[False], same & inside[:-1]])
    last = inside & ~np.concatenate([same & inside[1:], [False]])
    row = row[first]
    return (row, lo[first] - s0[row], hi[last] - s0[row],
            hi[last] - lo[first])


def _level_points(u: ScalarField, levels) -> np.ndarray:
    """Where u equals one of the levels: the 1D abscissae, or radii when
    u is radial in n >= 2 (center +- the level radius of a profile, the
    segment roots of a table)."""
    levels = np.asarray(levels, dtype=float)
    if isinstance(u, SampledTable):
        x = u.level_crossings(levels)
        return x[np.isfinite(x)]
    v = levels * math.copysign(1.0, u.scale)
    rho = u.level_radius(v[(v > 0.0) & (v < u.sup_bound)])
    return np.concatenate([u.center[0] - rho, u.center[0] + rho])


def nguyen_functional(u: ScalarField, p, delta: float,
                      weight_mode: str = "unit",
                      quad: QuadratureSpec | None = None) -> FunctionalValue:
    """Threshold functional over {|u(x) - u(y)| > delta} of
    delta^{p(x)} / |x-y|^{n + p(x)} (times p(x) in p_of_x mode)."""
    _require_same_dimension(u, p, "nguyen_functional")
    quad = quad or QuadratureSpec()
    if delta <= 0:
        raise DomainError("delta must be positive")
    weighted = _weight_flag(weight_mode)
    if delta >= 2.0 * u.sup_bound:
        return FunctionalValue(0.0, 0.0, 0.0, 0, empty_superlevel=True)
    _require_lipschitz_decay(u, "nguyen_functional")

    rule = _resolve_rule(quad, u.dimension)
    # in 1D the superlevel sets are closed-form chords; in n >= 2 they are
    # bracketed on the ray grid, out to the cutoff far
    chords = u.dimension == 1
    far = None if chords else u.far_radius(delta * _FAR_ETA_FRAC)
    state = {"found": False, "amb": 0.0}

    def F(X):
        m = X.shape[0]
        px = p.eval(X)
        delta_p = delta ** px

        def block(rows, omega):
            # closed-form inner integral: over each superlevel interval
            # (a, b), delta^p (a^-p - b^-p) / p, without the 1/p when weighted
            if chords:
                row, a, _, length = superlevel_chords(u, rows, omega, delta)
            else:
                row, a, b, ambiguous = superlevel_intervals(
                    u, rows, omega, delta, quad, far)
            P = px[row % m]
            # a chord's a^-p - b^-p as a^-p (1 - (1 + length / a)^-p), which
            # keeps its digits on short chords far out
            terms = (a ** -P * -np.expm1(-P * np.log1p(length / a)) if chords
                     else a ** -P - b ** -P)
            vals = np.zeros(rows.shape[0])
            np.add.at(vals, row, terms)
            state["found"] = state["found"] or row.size > 0
            if not chords:
                # possible unclassified mass beyond H on ambiguous rays
                q = P[ambiguous]
                state["amb"] += float(np.sum(delta ** q * b[ambiguous] ** -q
                                             / q))
            vals = vals.reshape(-1, m) * delta_p
            return vals if weighted else vals / px
        return _direction_sum(X, rule, _BLOCK_SAMPLES // quad.h_bracket_grid,
                              block)

    seeds = u.kink_points()
    if chords:
        # the sets appear or vanish where u(x) +- delta passes a value of u
        # at an extremum or at infinity: for a profile where a chord
        # appears (|u(x)| = sup - delta, a square-root onset of the outer
        # integrand) and where the far set ends (|u(x)| = delta)
        ext = (np.append(u.us, 0.0) if isinstance(u, SampledTable)
               else np.array([0.0, u.scale]))
        seeds = np.concatenate([seeds, _level_points(
            u, np.concatenate([ext - delta, ext + delta]))])
    base = u.far_radius(0.5 * min(delta, u.sup_bound)) + 2.0
    res = _outer_integrate(F, u, quad, base, seeds=seeds,
                           radial=u.radial and p.radial)
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
    _require_same_dimension(u, p, "local_energy")
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
    res = _outer_integrate(F, u, quad, base, seeds=u.kink_points(),
                           radial=u.radial and p.radial)
    return FunctionalValue(res.value, res.error, res.radius, res.n_evals)


def _weight_flag(weight_mode: str) -> bool:
    if weight_mode not in ("unit", "p_of_x"):
        raise DomainError(f"unknown weight_mode {weight_mode!r}")
    return weight_mode == "p_of_x"


# ----------------------------------------------------------------------
# power-kernel inner integrals (epsilon functional, BBM, fractional)
# ----------------------------------------------------------------------

def _slope_floor(X: np.ndarray) -> np.ndarray:
    """Per point, the ray parameter below which ray_slope takes the
    directional derivative for the difference quotient."""
    return _H_SAFE * np.maximum(1.0, np.sqrt(np.vecdot(X, X)))


def ray_slope(u: ScalarField, x: np.ndarray, omega: np.ndarray,
              h: np.ndarray, grad_dir, u_x) -> np.ndarray:
    """|u(x + h w) - u(x)| / h on pieces of rays: row k of h holds ray
    parameters on the ray from x[k] in direction w (omega, or omega[k]
    when it holds one per row), where u is u_x[k] and grad u . w is
    grad_dir[k].  Below the cancellation floor the quotient loses all
    significant digits and is replaced by |grad_dir|.  u is evaluated at
    every node in one call, those below the floor included, so that the
    quotient is formed in place with no gather or scatter of nodes."""
    out = u.eval(_ray_points(x, omega, h))
    out -= u_x[:, None]
    np.abs(out, out=out)
    # the lowest nodes of a piece underflow to h = 0 for tiny beta; those
    # lie below the floor and are overwritten next
    with np.errstate(divide="ignore", invalid="ignore"):
        out /= h
    np.copyto(out, np.abs(grad_dir)[:, None],
              where=h < _slope_floor(x)[:, None])
    return out


def ray_t_nodes(u: ScalarField, X: np.ndarray, omega: np.ndarray, beta,
                H: np.ndarray, quad: QuadratureSpec, exclude=None):
    """GL15 nodes in t = h^beta on the rays x_i + h w, 0 < h <= H_i, of
    the points X; w is omega or, when omega holds one direction per row,
    omega[i], and beta is a number or one per point.

    A ray's panels break at a geometric grid from 1e-13 to H_i, at its
    kink-radius crossings and at the ends of the intervals `exclude` =
    (row, a, b), whose panels are dropped.  Below ray_slope's floor psi
    is the constant |grad u . w|, so of the grid points under the floor
    only the last, h0, is kept: [0, h0] is one panel there, unless a kink
    or an exclusion cuts it.  Returns (row, h, w_t, psi): the ray of each
    panel and, one (k, 15) row per panel, the nodes in h, their t weights
    and the ray slope psi there.
    """
    m, n_panels = X.shape[0], max(16, quad.h_bracket_grid // 2)
    geo = np.geomspace(1e-13, H, n_panels + 1, axis=1)
    # keep 0, H and each grid point whose successor reaches the floor;
    # h0 < floor strictly, and GL15's top node lies 0.6% inside its panel
    # in t, so no node of [0, h0] rounds up to the floor
    keep = np.ones(geo.shape, dtype=bool)
    keep[:, :-1] = geo[:, 1:] >= _slope_floor(X)[:, None]
    rows = np.nonzero(keep)[0]
    parts = [(np.arange(m), np.zeros(m), np.zeros(m, dtype=int)),
             (rows, geo[keep], np.zeros_like(rows))]
    radii = np.unique(np.abs(u.kink_points()))
    if radii.size:
        # np.vecdot rounds as the dot product of a single point does
        xw = np.vecdot(X, omega)[:, None]
        x2 = np.vecdot(X, X)[:, None]
        disc = xw * xw - (x2 - radii * radii)
        # a ray through the origin has disc 0 at radius 0; rounding must
        # not decide whether it gets its apex break
        disc[np.abs(disc) <= 4.0 * _EPS * (xw * xw + x2)] = 0.0
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
    # each break is raised to beta once, as the end of two pieces
    row, lo, hi = row_pieces(
        *map(np.concatenate, zip(*parts)),
        ends=lambda r, x: x ** (beta[r] if np.ndim(beta) else beta))
    h = piece_abscissae(lo, hi)
    h **= np.reshape(1.0 / (beta[row] if np.ndim(beta) else beta), (-1, 1))
    psi = ray_slope(u, X[row], _at(omega, row), h,
                    np.vecdot(u.grad(X), omega)[row], u.eval(X)[row])
    # the t weights are made once u is evaluated, so that they hold no
    # memory while the field's temporaries do
    return row, h, piece_weights(lo, hi), psi


def _power_rays(quad: QuadratureSpec) -> int:
    """The rays of one power block: _POWER_NODES GL nodes at the about
    4.5 h_bracket_grid nodes a ray holds."""
    return max(1, 2 * _POWER_NODES // (9 * quad.h_bracket_grid))


def _power_functional(u: ScalarField, quad: QuadratureSpec, coef: float,
                      exps, restrict_small: bool, radial: bool,
                      pair_terms: bool = False):
    """coef times the double integral of |u(x)-u(y)|^q / |x-y|^{n+r}, with
    (q, r, beta) = exps(X, Y) at the pairs (X, Y) (Y = X when None), X the
    points x of the outer integral and beta = q - r; radial when u and exps
    are.  The ray integral from x runs in t = h^beta, beta at (x, x).  The
    exterior term takes the exponents at the pair (far point, inner
    point) in any case.

    restrict_small limits the pairs to |u(x)-u(y)| <= 1 (in 1D by
    `superlevel_chords`, else by `superlevel_intervals`).  Beyond the ray
    cutoff H the jump is |u(x)| up to eta (exactly so for compact
    support), which the far tail coef |u(x)|^q H^{-r} / r adds back.

    x runs over |x| <= R only.  The pairs whose x lies beyond R, where u
    is 0 up to eta, join the outer integrand at their other point y as
    the exact exterior term of `_exterior_rays`; with restrict_small only
    where |u(y)| <= 1, so the outer integral is seeded where |u| crosses 1.

    pair_terms says that the exponents depend on y too, and asks for the
    integral's terms in place of its value.  The exponents are then taken
    at every ray node, which carries the factor h^{beta(x, y) - beta(x,
    x)} that t leaves, and at every node of the far tail beyond H.  A
    second pass over the final outer nodes gives one term per ray node,
    far-tail node and exterior node, and the result is (a, e, node_count):
    the terms' weights and exponents, whose sum over a e^{-e tau} is the
    integral for u divided by e^tau.
    """
    rule = _resolve_rule(quad, u.dimension)
    far = u.far_radius(_FAR_ETA_FRAC * max(u.sup_bound, 1.0))
    chords = u.dimension == 1
    far_small = (u.far_radius(_FAR_ETA_FRAC)
                 if restrict_small and not chords else None)
    R = float(quad.truncation_radius or far + 2.0)
    rays = _power_rays(quad)
    cap = 1.0 if restrict_small else math.inf

    def exterior(X, part):
        # the exterior rays' value (part 0) or |GL15 - GL7| (part 1),
        # summed over the directions; 22 nodes a ray
        return coef * _direction_sum(
            X, rule, _EVAL_SAMPLES // 22, lambda rows, omega: _exterior_rays(
                u, rows, omega, R, exps, cap)[part].reshape(-1, len(X)))

    def runs(n_points):
        # equal runs of at most `rays` points, so that no block of rays
        # outgrows the budget when the outer integral batches panels
        return np.array_split(np.arange(n_points), -(-n_points // rays))

    def F(X):
        return np.concatenate([F_points(X[r]) for r in runs(X.shape[0])]
                              ) + exterior(X, 0)

    def F_points(X, wx=None):
        # the rays' values; with outer weights wx, their terms instead
        q, r, beta = exps(X)
        m = X.shape[0]
        H = _ray_cutoff(X, far)
        au = np.abs(u.eval(X))
        far_tail = coef * au ** q * H ** (-r) / r

        def block(rows, omega, wr=None):
            d = rows.shape[0] // m
            bt = np.tile(beta, d) if np.ndim(beta) else beta
            exclude = None
            tail = np.ones((d, m), dtype=bool)
            if restrict_small:
                erow, a, b = (superlevel_chords(u, rows, omega, 1.0) if chords
                              else superlevel_intervals(
                                  u, rows, omega, 1.0, quad, far_small))[:3]
                exclude = (erow, a, b)
                # a large jump that reaches infinity leaves no far tail
                tail.flat[erow[np.isinf(b)]] = False
            Ht = np.tile(H, d)
            row, h, w_t, psi = ray_t_nodes(u, rows, omega, bt, Ht, quad,
                                           exclude)
            # w_t psi^q in place; every ray keeps its first panel, so
            # each row owns a non-empty run of 15 nodes per panel
            if pair_terms:
                qr, _, br = exps(rows[row, None], _ray_points(
                    rows[row], _at(omega, row), h))
                psi **= qr
                psi *= h ** (br - (bt[row, None] if np.ndim(bt) else bt))
                # the far tail's exponents vary beyond H as well
                tails = _ray_tails(np.tile(au, d), rows, omega, Ht,
                                   lambda Y: exps(rows[:, None], Y),
                                   wr is not None)
            else:
                psi **= q[row % m, None] if np.ndim(q) else q
            psi *= w_t
            if wr is not None:
                psi *= (coef * wr / bt)[row, None]
                ext, q_ext = _exterior_rays(u, rows, omega, R, exps, cap,
                                            terms=True)
                keep = tail.ravel()
                return [(psi, np.broadcast_to(qr, psi.shape)),
                        (coef * wr[keep, None] * tails[0][keep],
                         tails[1][keep]),
                        (coef * wr[:, None] * ext, q_ext)]
            starts = 15 * np.searchsorted(row, np.arange(rows.shape[0]))
            val = coef * (np.add.reduceat(psi.ravel(), starts) / bt)
            val = val.reshape(tail.shape)
            val[tail] += (coef * tails[0].reshape(tail.shape) if pair_terms
                          else np.broadcast_to(far_tail, tail.shape))[tail]
            return val

        if wx is None:
            return _direction_sum(X, rule, rays, block)
        return [t for rows, omega, wd in _direction_blocks(X, rule, rays)
                for t in block(rows, omega, np.outer(wd, wx).ravel())]

    seeds = u.kink_points()
    if restrict_small and (radial or u.dimension == 1):
        # |u(x)| = 1, where F jumps
        seeds = np.concatenate([seeds, _level_points(u, [-1.0, 1.0])])
    res = _outer_integrate(F, u, replace(quad, truncation_radius=R), R,
                           seeds=seeds, radial=radial)
    pts, w = res.nodes()
    if not pair_terms:
        return FunctionalValue(
            res.value, res.error + float(np.sum(w * exterior(pts, 1))),
            res.radius, res.n_evals)
    a, e = (np.concatenate([v.ravel() for v in part]) for part in zip(
        *(t for k in runs(len(pts)) for t in F_points(pts[k], w[k]))))
    return a, e, res.n_evals


def _exterior_rays(u: ScalarField, Y: np.ndarray, omega: np.ndarray,
                   R: float, exps, cap: float = math.inf, terms=False):
    """Per ray y + h w (w omega, or omega[i] when it holds one per row),
    the integral over h > h_R of |u(y)|^q h^{-1-r}, the part of the ray
    beyond radius R (exit distance h_R), with (q, r, _) = exps at the pair
    (far point y + h w, y), by `_ray_tails` (terms is its); 0 where
    |y| >= R or |u(y)| > cap."""
    au = np.abs(u.eval(Y))
    yw = np.vecdot(Y, omega)
    y2 = np.vecdot(Y, Y)
    within = y2 < R * R
    c = np.where(within, R * R - y2, 1.0)
    _, h_R = _sphere_crossings(yw, c, np.sqrt(yw * yw + c))
    # a ray from beyond R or above the cap adds exactly 0
    au = np.where(within & (au <= cap), au, 0.0)
    return _ray_tails(au, Y, omega, h_R, lambda F: exps(F, Y[:, None]),
                      terms)


def _ray_tails(au: np.ndarray, Y: np.ndarray, omega: np.ndarray,
               h0: np.ndarray, exps_at, terms=False):
    """Per ray y + h w (w omega, or omega[i] when it holds one per row),
    the integral over h > h0 of au^q h^{-1-r}, with (q, r, _) =
    exps_at(the points y + h w, shape (k, j, n)); returns (GL15 value,
    |GL15 - GL7|), or with terms each ray's 15 GL15 terms and their q,
    one (k, 15) row per ray.

    It runs in v = (h0 / h)^{r_e} on (0, 1], r_e the r at h0, where the
    integrand is au^q h0^{-r} v^{r/r_e - 1} / r_e: the constant 1 / r_e
    (so h0^{-r} / r up to rounding) for constant r.  Where r varies along
    the ray, v^{r/r_e - 1} keeps a weak power at v = 0 (r tends to its
    value at infinity), so every tail runs in s, v = s^3, which smooths it.
    """
    x, w = gl15_gl7_nodes()
    s = 0.5 + 0.5 * x
    v = s ** 3
    r_e = exps_at(_ray_points(Y, omega, h0[:, None]))[1]
    h = h0[:, None] * v ** (-1.0 / r_e)
    q, r, _ = exps_at(_ray_points(Y, omega, h))
    g = np.broadcast_to(au[:, None] ** q * h0[:, None] ** (-r) * v ** (
        r / r_e - 1.0) / r_e * (3.0 * s * s), h.shape)
    if terms:
        return g[:, :15] * (0.5 * w[:15]), np.broadcast_to(q, h.shape)[:, :15]
    return gl15_gl7(g, 0.5)


def eps_functional(u: ScalarField, p, eps: float, mode: str = "full",
                   quad: QuadratureSpec | None = None) -> FunctionalValue:
    """Perturbed functional eps |u(x)-u(y)|^{p(x)+eps} / |x-y|^{n+p(x)}.

    mode "full" integrates over all pairs, "small_jump" restricts to
    |u(x)-u(y)| <= 1, and "large_jump_tail" computes the companion
    integral of 1 / |x-y|^{n+p(x)} over |u(x)-u(y)| > 1, which is the
    threshold functional at delta = 1 (it carries no eps factor).
    """
    _require_same_dimension(u, p, "eps_functional")
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

    def exps(X, Y=None):
        px = p.eval(X)
        return px + eps, px, eps

    return _power_functional(u, quad, eps, exps,
                             mode == "small_jump" and 2.0 * u.sup_bound > 1.0,
                             u.radial and p.radial)


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

    def exps(X, Y=None):
        # Python floats keep `psi ** 2.0` on numpy's exact-square path
        return p_const, s * p_const, (1.0 - s) * p_const

    return _power_functional(u, quad, 1.0 - s, exps, False, u.radial)


# ----------------------------------------------------------------------
# layer-cake identity
# ----------------------------------------------------------------------

@dataclass
class LayerCakeResult:
    lhs: float
    rhs_small: float
    rhs_large: float
    lhs_delta_error: float  # summed |GL15 - GL7| of lhs's delta panels
    delta_pieces: int  # the (x row, delta) panels lhs is summed over

    @property
    def residual(self) -> float:
        rhs = self.rhs_small + self.rhs_large
        return abs(self.lhs - rhs) / max(1.0, abs(rhs))


class _PairSection:
    """Shared y-sectioning machinery for the layer-cake identity.

    A tensor layout (x nodes) x (y cells, GL15 within each cell) splits
    any x row's y range into the parts above and below {phi = t}.  A
    row's cells are the y grid cut at the row's interior extrema of phi
    (where its differences on the grid's samples change sign, refined in
    one lockstep `golden_max` call), padded at the right end with
    zero-width cells; phi there and at the box ends are the row's
    critical values (`crit`, padded with repeats).  A cell is wholly
    above where the minimum of phi on its samples exceeds t, boundary
    where cell_min <= t < cell_max.  `_boundary_pieces` cuts a batch's
    boundary cells at all roots at once (`quadrature.sign_pieces`) into
    signed (row, lo, hi) pieces, which get fresh GL nodes.  One method,
    `integral`, sums either side of {phi = t}: the lhs takes psi above
    each delta, the rhs one integrand per side at t = 1.
    """

    N_XPAN = 16
    N_YCELL = 80
    PAIR_CELLS = 2 ** 16  # (pair, cell) entries classified at a time

    def __init__(self, phi, psi, box):
        self.phi, self.psi = phi, psi
        a, b = box
        self.xnodes, self.xweights = panel_nodes(
            np.linspace(a, b, self.N_XPAN + 1))
        edges, self.crit = self._cut_at_extrema(
            phi, np.linspace(a, b, self.N_YCELL + 1))
        lo, hi = edges[:, :-1], edges[:, 1:]
        m, c = lo.shape
        ynodes, yw = piece_nodes(lo.ravel(), hi.ravel())
        self.cell_w = yw.reshape(m, c, 15)
        # per-cell sample path: left edge, the 15 GL nodes, right edge;
        # sign changes anywhere on it mark a cell as boundary, which also
        # catches dips invisible to the edges alone
        self.ysamples = np.concatenate([lo[:, :, None], ynodes.reshape(
            m, c, 15), hi[:, :, None]], axis=2)  # (m, c, 17)
        del ynodes
        XX = np.broadcast_to(self.xnodes[:, None, None], self.ysamples.shape)
        self.PHI_samples = phi(XX, self.ysamples)
        self.PHI_nodes = self.PHI_samples[:, :, 1:16]
        self.PSI_nodes = psi(XX[:, :, 1:16], self.ysamples[:, :, 1:16])
        self.cell_psi = np.sum(self.cell_w * self.PSI_nodes, axis=2)  # (m, c)
        self.cell_min = self.PHI_samples.min(axis=2)
        self.cell_max = self.PHI_samples.max(axis=2)

    def _cut_at_extrema(self, phi, yedges):
        """Each row's cell edges and critical values."""
        m, b = self.xnodes.size, yedges[-1]
        # the grid's samples: each cell's left edge and GL nodes, then b
        path = np.append(np.column_stack(
            [yedges[:-1], panel_nodes(yedges)[0].reshape(-1, 15)]), b)
        vals = phi(*np.broadcast_arrays(self.xnodes[:, None], path))
        step = np.sign(np.diff(vals, axis=1))
        rows, j = np.nonzero(step[:, :-1] * step[:, 1:] < 0.0)
        sgn, xv = step[rows, j], self.xnodes[rows]  # sgn +1 at a maximum
        ext, _ = golden_max(lambda i: lambda y: sgn[i] * phi(xv[i], y),
                            path[j], path[j + 2])
        n = np.bincount(rows, minlength=m)
        cuts = np.full((m, n.max(initial=0)), float(b))
        cuts[rows, np.arange(rows.size) - (np.cumsum(n) - n)[rows]] = ext
        crit = np.column_stack([vals[:, 0], vals[:, -1], phi(
            np.broadcast_to(self.xnodes[:, None], cuts.shape), cuts)])
        return np.sort(np.concatenate([np.broadcast_to(
            yedges, (m, yedges.size)), cuts], axis=1), axis=1), crit

    def _boundary_pieces(self, threshs: np.ndarray, dd, rows, cols):
        """Split the boundary cells (threshold dd[k], x row rows[k], y cell
        cols[k]) at the roots of phi(x, .) = threshs[dd]; each (threshold,
        row) must get its cells in increasing order, in any order across.
        Returns (d, row, lo, hi, is_above) of the non-empty pieces, by
        boundary cell and by y within a cell, so np.add.at adds each
        (threshold, row)'s pieces by increasing y (roots do not depend on
        the batch)."""
        vals = self.PHI_samples[rows, cols, :]  # (k, 17)
        vals -= threshs[dd, None]

        def residual(brows):
            xv, th = self.xnodes[rows[brows]], threshs[dd[brows]]
            return lambda y: self.phi(xv, y) - th

        cell, lo, hi, is_above = sign_pieces(
            residual, self.ysamples.reshape(-1, 17), vals,
            rows * self.cell_min.shape[1] + cols)
        return dd[cell], rows[cell], lo, hi, is_above

    def integral(self, threshs: np.ndarray, rows: np.ndarray,
                 above: bool = True, g=None) -> np.ndarray:
        """Integral of psi, or of g(row, phi, psi), over {y : phi(x, y) > t}
        (above) or {y : phi(x, y) <= t} for the pairs (t, x row)
        (threshs[k], rows[k]); returns shape (len(threshs),).  g gets the
        pairs' x rows broadcast against the phi and psi values.  The pairs
        go PAIR_CELLS (pair, cell) entries at a time; a pair sums its
        whole cells in cell order and adds its boundary pieces by
        increasing y, so its value does not depend on its chunk.  A g is
        summed over every row's cells once per call."""
        cells = self.cell_psi if g is None else np.sum(self.cell_w * g(
            np.arange(self.xnodes.size)[:, None, None], self.PHI_nodes,
            self.PSI_nodes), axis=2)
        out = np.empty(threshs.size)
        step = max(1, self.PAIR_CELLS // self.cell_min.shape[1])
        for s in range(0, threshs.size, step):
            t, r = threshs[s:s + step, None], rows[s:s + step]
            over_min, over_max = self.cell_min[r] > t, self.cell_max[r] > t
            part = np.sum(np.where(over_min if above else ~over_max,
                                   cells[r], 0.0), axis=1)
            k, col = np.nonzero(over_max & ~over_min)
            if k.size:
                k, row, lo, hi, is_above = self._boundary_pieces(
                    t[:, 0], k, r[k], col)
                side = is_above == above
                k, row = k[side], row[side]
                ys, ww = piece_nodes(lo[side], hi[side])
                xb = np.broadcast_to(self.xnodes[row][:, None], ys.shape)
                vals = self.psi(xb, ys)
                if g is not None:
                    vals = g(row[:, None], self.phi(xb, ys), vals)
                np.add.at(part, k, np.sum(ww * vals, axis=1))
            out[s:s + step] = part
        return out


def layer_cake_check(phi, psi, alpha, box: tuple[float, float],
                     quad: QuadratureSpec | None = None
                     ) -> LayerCakeResult:
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

    Each x row's delta range is broken at the row's critical values.  A
    piece runs in t = delta^(alpha+1) / (alpha+1), which takes up
    delta^alpha, under t = t_lo + (t_hi - t_lo)(3 s^2 - 2 s^3), flat at
    both ends to absorb square-root ends, with GL15 and GL7 on s panels.
    While the summed |GL15 - GL7| exceeds rel_tol * 0.01 * |lhs|, the
    panels over an equal share of it are halved, in batched rounds.
    """
    quad = quad or QuadratureSpec()
    a, b = float(box[0]), float(box[1])
    if not a < b:
        raise DomainError("box must satisfy a < b")

    sec = _PairSection(phi, psi, (a, b))
    alpha_x = np.asarray(alpha(sec.xnodes), dtype=float)
    if np.any(alpha_x <= -1.0):
        raise DomainError("alpha must exceed -1 on the box")

    m, nc = sec.crit.shape
    row, lo, hi = row_pieces(np.repeat(np.arange(m), nc + 2), np.column_stack(
        [np.zeros(m), np.clip(sec.crit, 0.0, 1.0), np.ones(m)]).ravel())
    a1 = alpha_x[row] + 1.0
    nodes = 0.5 + 0.5 * gl15_gl7_nodes()[0]

    def integrate(row, t0, t1, s0, s1):
        """x-weighted GL15 values and |GL15 - GL7| on panels [s0, s1]."""
        ds, dt = (s1 - s0)[:, None], (t1 - t0)[:, None]
        s = s0[:, None] + ds * nodes
        a1 = alpha_x[row, None] + 1.0
        deltas = (a1 * (t0[:, None] + dt * s * s * (3 - 2 * s))) ** (1 / a1)
        g = sec.integral(deltas.ravel(), np.repeat(row, s.shape[1]))
        # the half-width is in g already
        return gl15_gl7(g.reshape(s.shape) * (6.0 * s * (1.0 - s)) * (
            0.5 * ds * dt * sec.xweights[row, None]), 1.0)

    panels = (row, lo ** a1 / a1, hi ** a1 / a1, np.zeros(row.size),
              np.ones(row.size))
    val, err = integrate(*panels)
    while True:
        target = quad.rel_tol * 0.01 * abs(float(np.sum(val)))
        split = err > target / err.size
        if np.sum(err) <= target or err.size + split.sum() > _DELTA_PANELS:
            break
        r, t0, t1, s0, s1 = (v[split] for v in panels)
        mid = 0.5 * (s0 + s1)
        halves = (*(np.repeat(v, 2) for v in (r, t0, t1)),
                  np.column_stack([s0, mid]).ravel(),
                  np.column_stack([mid, s1]).ravel())
        panels = tuple(np.concatenate([v[~split], h])
                       for v, h in zip(panels, halves))
        val, err = (np.concatenate([v[~split], h])
                    for v, h in zip((val, err), integrate(*halves)))

    ones, rows = np.ones(m), np.arange(m)
    large = sec.integral(ones, rows, True,
                         lambda r, phis, psis: psis / (alpha_x[r] + 1.0))
    small = sec.integral(ones, rows, False, lambda r, phis, psis: phis ** (
        alpha_x[r] + 1.0) * psis / (alpha_x[r] + 1.0))
    return LayerCakeResult(lhs=float(np.sum(val)),
                           rhs_small=float(np.sum(sec.xweights * small)),
                           rhs_large=float(np.sum(sec.xweights * large)),
                           lhs_delta_error=float(np.sum(err)),
                           delta_pieces=int(err.size))

