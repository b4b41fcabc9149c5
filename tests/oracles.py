"""Independent oracles used to freeze expected values.

The Riemann oracles work on raw (x, y) double integrals: no polar
reduction, no root bracketing, no exact antiderivatives.  The
separation variable d = y - x uses a geometrically graded partition so
the d ~ delta kernel scale is resolved; this is still a plain Riemann
sum of the untransformed integrand (dx dy = dx dd).  The closed forms
(`tent_gagliardo`, `gaussian_gagliardo`) are exact, and
`gaussian_eps_full` and `gaussian_pair_modular` are nested scipy
quadrature.
"""

from __future__ import annotations

import heapq
import math

import numpy as np


def tent_gagliardo(s: float) -> float:
    """Integral over R^2 of |u(x) - u(y)|^2 / |x - y|^{1 + 2s} for the
    tent u = max(0, 1 - |x|).

    Substituting y = x + h leaves 2 * integral over h > 0 of
    A(h) h^{-1-2s}, where A(h) = integral of (u(x+h) - u(x))^2 dx is
    2h^2 - h^3 on [0, 1], 4/3 - (2 - h)^3 / 3 on [1, 2] and 4/3 beyond;
    each piece integrates in closed form.
    """
    def power_integral(e):           # integral of h^e over [1, 2]
        if e == -1.0:
            return math.log(2.0)
        return (2.0 ** (e + 1.0) - 1.0) / (e + 1.0)

    near = 2.0 / (2.0 - 2.0 * s) - 1.0 / (3.0 - 2.0 * s)
    e = -1.0 - 2.0 * s
    middle = (-4.0 * power_integral(e) + 12.0 * power_integral(e + 1.0)
              - 6.0 * power_integral(e + 2.0) + power_integral(e + 3.0)) / 3.0
    far = (4.0 / 3.0) * 2.0 ** (-2.0 * s) / (2.0 * s)
    return 2.0 * (near + middle + far)


def gaussian_gagliardo(s: float, n: int = 1) -> float:
    """The same modular over R^n x R^n, |x - y|^{n + 2s}, for u =
    exp(-|x|^2): A(h) = 2 (pi/2)^{n/2} (1 - exp(-|h|^2/2)), the h
    integral runs over the sphere |S^{n-1}| = 2 pi^{n/2} / Gamma(n/2)
    and the radius, and v = rho^2/2 turns the radial integral into
    2^{-1-s} Gamma(1-s) / s."""
    sphere = 2.0 * math.pi ** (n / 2.0) / math.gamma(n / 2.0)
    return 2.0 * (math.pi / 2.0) ** (n / 2.0) * sphere \
        * 2.0 ** (-1.0 - s) * math.gamma(1.0 - s) / s


def _gaussian_pairs(near, far, beta, tol: float) -> float:
    """The double integral over R x R of a pair integrand for u =
    exp(-x^2) whose x dependence is even, by nested scipy `quad` on the
    untruncated lines: 2 * the integral over x >= 0 of the rays y = x +- h
    (sgn = +-1), near(x, h, sgn) dt on [0, 1] in t = h^beta(x), and
    far(x, h, sgn) dh beyond h = 1.  The ray integral breaks where y
    passes the bump (h = c = -+x, +- 6) and where u(y) = u(x) again
    (h = 2c)."""
    from scipy.integrate import quad
    kw = dict(epsabs=1e-15, epsrel=tol, limit=200)

    def inner(x):
        total = 0.0
        b = beta(x)
        for sgn in (1.0, -1.0):
            total += quad(lambda t: near(x, t ** (1.0 / b), sgn),
                          0.0, 1.0, **kw)[0]
            c = -sgn * x
            br = sorted({1.0} | {v for v in (c - 6.0, c, c + 6.0, 2.0 * c)
                                 if v > 1.0})
            for lo, hi in zip(br, br[1:] + [math.inf]):
                total += quad(lambda h: far(x, h, sgn), lo, hi, **kw)[0]
        return total

    edges = (0.0, 0.5, 1.0, 2.0, 4.0, 8.0, math.inf)
    return 2.0 * sum(quad(inner, lo, hi, epsabs=0.0, epsrel=tol,
                          limit=200)[0] for lo, hi in zip(edges, edges[1:]))


def _gaussian_jump(x: float, h: float, sgn: float) -> float:
    """|u(x + sgn h) - u(x)| for u = exp(-x^2); as u(x) expm1(-h (2 sgn x
    + h)) it keeps its digits for small h."""
    ux = math.exp(-x * x)
    e = -h * (2.0 * sgn * x + h)
    if abs(e) < 1.0:
        return abs(ux * math.expm1(e))
    return abs(math.exp(-(x + sgn * h) ** 2) - ux)


def _gaussian_slope(x: float, h: float, sgn: float) -> float:
    """The jump over h, |u'(x)| at h = 0."""
    if h > 0.0:
        return _gaussian_jump(x, h, sgn) / h
    return 2.0 * math.exp(-x * x) * abs(x)


def gaussian_eps_full(eps: float, a: float, b: float,
                      tol: float = 1e-11) -> float:
    """eps times the double integral over R x R of |u(x) - u(y)|^{p+eps}
    / |x - y|^{1+p}, p = p(x) = a + b / (1 + x^2), u = exp(-x^2), by
    `_gaussian_pairs`; the near-diagonal singularity eps h^{eps-1} of
    [0, 1] goes away in t = h^eps."""
    def p(x):
        return a + b / (1.0 + x * x)

    return _gaussian_pairs(
        lambda x, h, sgn: _gaussian_slope(x, h, sgn) ** (p(x) + eps),
        lambda x, h, sgn: eps * _gaussian_jump(x, h, sgn) ** (p(x) + eps)
        * h ** (-1.0 - p(x)), lambda x: eps, tol)


def gaussian_pair_modular(lam: float, s: float, a: float, b: float,
                          tol: float = 1e-11) -> float:
    """The two-exponent Gagliardo modular of u / lam over R x R,
    |u(x) - u(y)|^P / (lam^P |x - y|^{1 + sP}), P = (q(x) + q(y)) / 2,
    q(x) = a + b / (1 + x^2), u = exp(-x^2), by `_gaussian_pairs`.  In t
    = h^beta, beta = (1 - s) q(x), the near integrand is (slope /
    lam)^P h^{(1 - s)(P - q(x))} / beta."""
    def q(x):
        return a + b / (1.0 + x * x)

    def near(x, h, sgn):
        P = 0.5 * (q(x) + q(x + sgn * h))
        return ((_gaussian_slope(x, h, sgn) / lam) ** P
                * h ** ((1.0 - s) * (P - q(x))) / ((1.0 - s) * q(x)))

    def far(x, h, sgn):
        P = 0.5 * (q(x) + q(x + sgn * h))
        return (_gaussian_jump(x, h, sgn) / lam) ** P * h ** (-1.0 - s * P)

    return _gaussian_pairs(near, far, lambda x: (1.0 - s) * q(x), tol)


def adaptive_integrate_per_panel(f, a, b, rel_tol=1e-9, seeds=(),
                                 max_panels=4000, min_width_frac=1e-13):
    """quadrature.adaptive_integrate as one f call per panel: GL15/GL7
    on each panel, the worst panel (oldest first on ties) halved until
    the summed error is below rel_tol times the total, a panel no wider
    than min_width_frac times its largest |endpoint| accepted unsplit;
    returns (value, error, n_evals, n_panels, edges), edges the final
    panel edges as a tuple."""
    x15, w15 = np.polynomial.legendre.leggauss(15)
    x7, w7 = np.polynomial.legendre.leggauss(7)
    n_evals = 0

    def panel(lo, hi):
        nonlocal n_evals
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        v15, v7 = f(mid + half * x15), f(mid + half * x7)
        n_evals += 22
        i15 = half * float(np.sum(w15 * v15))
        return i15, abs(i15 - half * float(np.sum(w7 * v7)))

    pts = sorted(set([a, b] + [float(s) for s in seeds if a < s < b]))
    heap, total, total_err = [], 0.0, 0.0
    for lo, hi in zip(pts[:-1], pts[1:]):
        v, e = panel(lo, hi)
        heapq.heappush(heap, (-e, len(heap), lo, hi, v))
        total += v
        total_err += e
    counter, accepted_err = len(heap), 0.0
    while len(heap) < max_panels and \
            total_err > rel_tol * max(abs(total), 1e-300):
        neg_e, _, lo, hi, v = heapq.heappop(heap)
        mid = 0.5 * (lo + hi)
        if hi - lo <= min_width_frac * max(abs(lo), abs(hi)) or \
                mid <= lo or mid >= hi:
            # accepted unsplit: its error leaves the stop test and is
            # reported on its own
            heapq.heappush(heap, (0.0, counter, lo, hi, v))
            counter += 1
            total_err += neg_e
            accepted_err -= neg_e
            continue
        (v1, e1), (v2, e2) = panel(lo, mid), panel(mid, hi)
        total += (v1 + v2) - v
        total_err += (e1 + e2) - (-neg_e)
        heapq.heappush(heap, (-e1, counter, lo, mid, v1))
        heapq.heappush(heap, (-e2, counter + 1, mid, hi, v2))
        counter += 2
    panels = sorted(heap, key=lambda t: t[2])
    return (float(np.sum(np.array([t[4] for t in panels]))),
            float(np.sum(np.array([abs(t[0]) for t in panels])))
            + accepted_err,
            n_evals, len(panels), tuple(t[2] for t in panels) + (b,))


def riemann_threshold_double(u, p, delta, x_box, n_x=2000, n_d=2000,
                             weighted=False):
    """Riemann sum of delta^{p(x)} / |x-y|^{1+p(x)} over the superlevel
    {|u(x)-u(y)| > delta} with x in x_box and y - x graded geometric.

    The separation grid carries an edge at d = delta: piecewise-linear
    fields have superlevel boundaries exactly on that line, and a cell
    straddling it would bias the sum by its full kernel value.
    """
    a, b = x_box
    hx = (b - a) / n_x
    xs = a + (np.arange(n_x) + 0.5) * hx
    ux = u(xs)
    px = p(xs)
    span = b - a
    edges = np.geomspace(delta * 0.25, 2.0 * span, n_d + 1)
    edges = np.unique(np.concatenate([edges, [delta]]))
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    total = 0.0
    for sgn in (1.0, -1.0):
        jump = np.abs(u(xs[:, None] + sgn * mids[None, :]) - ux[:, None])
        mask = jump > delta
        ker = delta ** px[:, None] / mids[None, :] ** (1.0 + px[:, None])
        if weighted:
            ker = ker * px[:, None]
        total += float(np.sum(np.where(mask, ker, 0.0) * widths[None, :])) * hx
    return total


def riemann_eps_double(u, p, eps, x_box, n_x=2000, n_d=2000, d_min=1e-9,
                       jump_cap=None):
    """Riemann sum of eps |u(x)-u(y)|^{p(x)+eps} / |x-y|^{1+p(x)};
    jump_cap restricts to |u(x)-u(y)| <= jump_cap when given.

    Two analytic completions close the truncations: the d < d_min
    near-diagonal mass (integrand ~ eps L^{p+eps} d^{eps-1}, unresolvable
    by any grid) uses the local slope, and the |x| beyond the box mass
    (the kernel decays only like |x|^{-p-1} since small jumps still
    count) uses u ~ 0 out there with a constant exponent.
    """
    a, b = x_box
    hx = (b - a) / n_x
    xs = a + (np.arange(n_x) + 0.5) * hx
    ux = u(xs)
    px = p(xs)
    span = b - a
    edges = np.geomspace(d_min, 2.0 * span, n_d + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    total = 0.0
    for sgn in (1.0, -1.0):
        jump = np.abs(u(xs[:, None] + sgn * mids[None, :]) - ux[:, None])
        ker = eps * jump ** (px[:, None] + eps) \
            / mids[None, :] ** (1.0 + px[:, None])
        if jump_cap is not None:
            ker = np.where(jump <= jump_cap, ker, 0.0)
        total += float(np.sum(ker * widths[None, :])) * hx
        # analytic near-diagonal completion: |jump| ~ |u'(x)| d below d_min,
        # so the d integral there is |u'|^{p+eps} d_min^{eps} / 1
        du = np.abs(u(xs + sgn * 0.5 * d_min) - ux) / (0.5 * d_min)
        total += float(np.sum(du ** (px + eps))) * hx * d_min ** eps
    # far-x completion (constant exponent assumed out there): u(x) ~ 0, so
    # the pair integrand is eps u(y)^{p+eps} (x-y)^{-1-p} with exact x tail
    p_far = float(px[0])
    if jump_cap is None or jump_cap >= np.max(np.abs(ux)):
        tail = np.abs(ux) ** (p_far + eps) * (
            (b - xs) ** (-p_far) + (xs - a) ** (-p_far))
        total += eps * float(np.sum(tail)) * hx / p_far
    return total


def riemann_gagliardo(u, p_const, s, x_box, n_x=3000, n_d=3000, d_min=1e-9):
    """Riemann sum of |u(x)-u(y)|^p / |x-y|^{1+sp} plus the analytic
    near-diagonal completion (integrand ~ |u'|^p d^{(1-s)p - 1} there)."""
    a, b = x_box
    hx = (b - a) / n_x
    xs = a + (np.arange(n_x) + 0.5) * hx
    ux = u(xs)
    span = b - a
    edges = np.geomspace(d_min, 2.0 * span, n_d + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    widths = np.diff(edges)
    total = 0.0
    beta = (1.0 - s) * p_const
    for sgn in (1.0, -1.0):
        jump = np.abs(u(xs[:, None] + sgn * mids[None, :]) - ux[:, None])
        ker = jump ** p_const / mids[None, :] ** (1.0 + s * p_const)
        total += float(np.sum(ker * widths[None, :])) * hx
        du = np.abs(u(xs + sgn * 0.5 * d_min) - ux) / (0.5 * d_min)
        total += float(np.sum(du ** p_const)) * hx * d_min ** beta / beta
    # analytic completion for x beyond the box: u vanishes there when the
    # box contains the support, so the pair integrand is |u(y)|^p (x-y)^{-1-sp}
    # whose x integral past either edge is exact
    sp = s * p_const
    tail = np.abs(ux) ** p_const * ((b - xs) ** (-sp) + (xs - a) ** (-sp))
    total += float(np.sum(tail)) * hx / sp
    return total


def riemann_modular_1d(f, a, b, n=200001):
    """Plain midpoint rule for a 1D integral (smooth integrands)."""
    h = (b - a) / n
    xs = a + (np.arange(n) + 0.5) * h
    return float(np.sum(f(xs))) * h


def layer_cake_brute(phi, psi, alpha, box, n_xy=1500, n_delta=200):
    """Uniform-grid Riemann evaluation of both sides of the exchange
    identity at the stated oracle resolution."""
    a, b = box
    h = (b - a) / n_xy
    g = a + (np.arange(n_xy) + 0.5) * h
    X = np.repeat(g, n_xy).reshape(n_xy, n_xy)
    Y = np.tile(g, (n_xy, 1))
    PHI = phi(X, Y)
    PSI = psi(X, Y)
    AL = alpha(g)[:, None]
    cell = h * h

    # midpoint rule in delta; per row, the psi mass on {PHI > d} is a
    # suffix sum of psi ordered by PHI, cut where searchsorted places d
    deltas = (np.arange(n_delta) + 0.5) / n_delta
    order = np.argsort(PHI, axis=1)
    phi_sorted = np.take_along_axis(PHI, order, axis=1)
    suffix = np.zeros((n_xy, n_xy + 1))
    suffix[:, :-1] = np.cumsum(
        np.take_along_axis(PSI, order, axis=1)[:, ::-1], axis=1)[:, ::-1]
    above = np.stack([s[np.searchsorted(ph, deltas, side="right")]
                      for ph, s in zip(phi_sorted, suffix)])
    lhs = float(np.sum(deltas[None, :] ** AL * above)) * cell / n_delta

    small = np.where(PHI <= 1.0, PHI ** (AL + 1.0) * PSI / (AL + 1.0), 0.0)
    large = np.where(PHI > 1.0, PSI / (AL + 1.0), 0.0)
    return lhs, float(np.sum(small)) * cell, float(np.sum(large)) * cell


def pair_section_above_by_masks(sec, threshs, rows):
    """_PairSection.integral (psi above) by (pair, cell) masks: for the
    pair (threshs[k], row rows[k]) a cell is whole where cell_min > t and
    boundary where cell_min <= t < cell_max.  Whole cells are summed a
    pair at a time; the boundary cells, in (pair, cell) order, are cut by
    one sec._boundary_pieces call.  Returns (above, (pairs, rows, cols)),
    above of shape (len(threshs),)."""
    t = np.asarray(threshs, dtype=float)
    whole = sec.cell_min[rows] > t[:, None]
    above = np.array([np.sum(np.where(w, sec.cell_psi[r], 0.0))
                      for w, r in zip(whole, rows)])
    k, cols = np.nonzero(~whole & (sec.cell_max[rows] > t[:, None]))
    cells = (k, rows[k], cols)
    if k.size:
        dd, row, lo, hi, is_above = sec._boundary_pieces(t, *cells)
        # GL15 on each above-piece
        x15, w15 = np.polynomial.legendre.leggauss(15)
        half = 0.5 * (hi[is_above] - lo[is_above])
        ys = (lo[is_above] + half)[:, None] + half[:, None] * x15
        ww = half[:, None] * w15 * sec.psi(np.broadcast_to(
            sec.xnodes[row[is_above], None], ys.shape), ys)
        np.add.at(above, dd[is_above], np.sum(ww, axis=1))
    return above, cells


def counterexample_maximal(x: float) -> float:
    """Centered maximal function of u = y^{-1/3} on [2, oo) (zero before)
    at x <= -2: the ball average (3/(4r))((x+r)^{2/3} - 2^{2/3}) at its
    one stationary radius r = t^3 - x, where t > 2^{1/3} is the root of
    t^3 - 3 2^{2/3} t + 2x = 0."""
    from scipy.optimize import brentq
    c = 2.0 ** (2.0 / 3.0)
    t = brentq(lambda t: t ** 3 - 3.0 * c * t + 2.0 * x, 2.0 ** (1.0 / 3.0),
               2.0 + 2.0 * abs(x) ** (1.0 / 3.0), xtol=1e-15, rtol=1e-15)
    r = t ** 3 - x
    return 3.0 / (4.0 * r) * (t * t - c)


def log_abs_integral(a: float, b: float, window: tuple) -> float:
    """Integral of |log|y|| over [a, b] cut to `window`, from the odd
    antiderivative F(y) = y - y log y (0 < y <= 1), y log y - y + 2
    (y >= 1)."""
    def F(y):
        t = abs(y)
        if t == 0.0:
            return 0.0
        v = t - t * math.log(t) if t <= 1.0 else t * math.log(t) - t + 2.0
        return math.copysign(v, y)
    return F(min(b, window[1])) - F(max(a, window[0]))
