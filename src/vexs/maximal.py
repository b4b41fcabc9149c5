"""Hardy-Littlewood and directional maximal functions, the variable
exponent divergence experiment, and normalized mean-oscillation integrals.

One radius scan serves every maximal function: the points of a block
(up to _POINT_BLOCK of them) and all grid radii are averaged in one
batch, then golden-section refinement steps every point's bracket in
lockstep.  Averages are GL15 on panels cut at the field's kinks and
graded by decades about each kink and singular point, so the experiment
profiles (indicator overlaps, power tails, log singularities) are
resolved to quadrature accuracy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import exponents
from . import fields as field_mod
from .fields import ScalarField
from .quadrature import (decade_seeds, gauss_nodes, golden_max, panel_nodes,
                         piece_nodes, row_pieces, sign_pieces)
from . import spaces
from .sweeps import fit_offset_power

_R_FLOOR = 1e-6
# points per radius scan; each point's scan holds about 0.5 MB
_POINT_BLOCK = 64


@dataclass
class MaximalProfile:
    points: tuple
    values: tuple
    search_radii: tuple
    depth: int


def _interval_average(u: ScalarField, lo: np.ndarray, hi: np.ndarray,
                      n_panels: int = 8) -> np.ndarray:
    """Average of |u| over each 1D interval [lo[i], hi[i]], 0 where it is
    empty: GL15 on `n_panels` equal panels per interval, cut further at
    the kinks and decade seeds inside it."""
    ok = hi > lo
    rows = np.flatnonzero(ok)
    a, b = lo[rows], hi[rows]
    # kinks cut the panels, graded by decades about each kink (for a
    # power tail's edge) and singular point (down to 1e-8, for a log);
    # seeds span the hull of all intervals, so an interval's own seeds
    # do not depend on the rest of the batch
    hull = np.min(lo, initial=0.0), np.max(hi, initial=0.0)
    kinks = u.kink_points()
    seed = np.concatenate([kinks, decade_seeds(kinks, *hull), decade_seeds(
        u.singular_points, *hull, j0=-8)])
    sr, sc = np.nonzero((a[:, None] < seed) & (seed < b[:, None]))
    row, p_lo, p_hi = row_pieces(
        np.concatenate([np.repeat(rows, n_panels + 1), rows[sr]]),
        np.concatenate([np.linspace(a, b, n_panels + 1, axis=1).ravel(),
                        seed[sc]]))
    nodes, w = piece_nodes(p_lo, p_hi)
    terms = w * np.abs(u.eval(nodes.ravel())).reshape(nodes.shape)
    # an interval of k pieces sums its k * 15 terms in one row, pairwise
    # as np.sum of them alone does
    count = np.bincount(row, minlength=lo.size)
    first = np.cumsum(count) - count
    total = np.zeros(lo.size)
    for k in np.unique(count[ok]):
        at = np.flatnonzero(count == k)
        total[at] = np.sum(terms[first[at, None] + np.arange(k)]
                           .reshape(at.size, -1), axis=1)
    return total / np.where(ok, hi - lo, 1.0)


def _maximal(u: ScalarField, x, r_max, sides: tuple, depth: int,
             n_grid: int):
    """Per point of x, the sup over r in (1e-6, r_max] (r_max a number or
    one per point) of the mean over `sides` (-1, +1) of the average of
    |u| from x a length r toward that side: a grid of n_grid geometric
    radii, then `depth` passes of 20 golden-section steps about the best
    one, never below it.  A point's value does not depend on the batch.
    """
    if u.dimension != 1:
        raise DomainError("maximal functions are computed in one dimension")
    x = np.asarray(x, dtype=float)
    r_max = np.broadcast_to(np.asarray(r_max, dtype=float), x.shape).ravel()
    if not np.all(np.isfinite(x)):
        raise DomainError("maximal function points must be finite")
    if not np.all(np.isfinite(r_max) & (r_max > _R_FLOOR)):
        raise DomainError(f"r_max must be finite and above {_R_FLOOR:g}")
    left = np.asarray(sides, dtype=float)[:, None, None] < 0.0

    def scan(xs, r_max):
        def avg(r):
            # r holds radii per point, shape (m, k); sides stack on axis 0
            lo = np.where(left, xs - r, xs)
            hi = np.where(left, xs, xs + r)
            a = _interval_average(u, lo.ravel(), hi.ravel()).reshape(lo.shape)
            return np.sum(a, axis=0) / len(sides)

        rs = np.geomspace(_R_FLOOR, r_max, n_grid, axis=1)
        vals = avg(rs)
        i = np.argmax(vals, axis=1)
        at = np.arange(xs.size)
        _, best = golden_max(lambda r: avg(r[:, None])[:, 0],
                             rs[at, np.maximum(i - 1, 0)],
                             rs[at, np.minimum(i + 1, n_grid - 1)],
                             iters=20 * depth)
        return np.maximum(vals[at, i], best)

    # a block of points at a time bounds the scan's memory
    xs = x.ravel()[:, None]
    out = [scan(xs[k:k + _POINT_BLOCK], r_max[k:k + _POINT_BLOCK])
           for k in range(0, xs.shape[0], _POINT_BLOCK)]
    return np.concatenate(out or [np.empty(0)]).reshape(x.shape)[()]


def hl_maximal(u: ScalarField, x, r_max, depth: int = 3,
               n_grid: int = 48):
    """Centered maximal function sup_r average of |u| over B(x, r) (1D)
    at a point x or an array of points, r_max a number or one per point.

    The value is a lower bound (up to quadrature error) of the sup over
    r in (1e-6, r_max] that matches it to refinement accuracy for
    unimodal profiles.
    """
    return _maximal(u, x, r_max, (-1.0, 1.0), depth, n_grid)


def directional_maximal(u: ScalarField, x, omega: float, h_max,
                        depth: int = 3, n_grid: int = 48):
    """One-sided maximal function sup_h (1/h) integral of |u| along the
    ray x + s*omega, s in (0, h), at a point x or an array of points."""
    if isinstance(omega, bool) or omega not in (-1.0, 1.0, -1, 1):
        raise DomainError("omega must be +1 or -1 in one dimension")
    return _maximal(u, x, h_max, (omega,), depth, n_grid)


def maximal_profile(u: ScalarField, points, r_max: float,
                    depth: int = 3, omega: float | None = None,
                    n_grid: int = 48) -> MaximalProfile:
    pts = np.asarray(points, dtype=float)
    vals = (hl_maximal(u, pts, r_max, depth, n_grid) if omega is None else
            directional_maximal(u, pts, omega, r_max, depth, n_grid))
    rs = np.geomspace(_R_FLOOR, r_max, n_grid)
    return MaximalProfile(tuple(pts.tolist()), tuple(vals.tolist()),
                          tuple(rs.tolist()), depth)


# ----------------------------------------------------------------------
# the divergence experiment
# ----------------------------------------------------------------------

@dataclass
class CounterexampleTable:
    r_values: tuple
    modular_u: float
    modular_mu: tuple
    growth_exponent_fit: float


def counterexample_field() -> ScalarField:
    return field_mod.PowerTail()


def counterexample_exponent() -> exponents.ExponentField:
    """p = 2 left of -2, p = 4 right of +2, linear across the middle.

    The asserted integrals only see the two rays; the linear bridge is a
    recorded convention for the gap.
    """
    return exponents.piecewise_table([-2.0, 2.0], [2.0, 4.0], interp="linear")


def counterexample_experiment(r_values,
                              quad=None) -> CounterexampleTable:
    """Modular of u = x^{-1/3} on [2, oo) (finite, exponent 4 there)
    against the truncated modular of its maximal function on [-R, -2]
    (exponent 2 there), which grows like R^{1/3}.

    The growth exponent is fitted with an offset power law
    C + a R^gamma: the offset absorbs the near-edge transient so gamma
    estimates the asymptotic tail exponent.
    """
    rs = sorted(float(r) for r in r_values)
    if len(rs) < 2 or rs[0] < 10.0:
        raise DomainError("R values must be increasing and >= 10")
    u = counterexample_field()
    p = counterexample_exponent()

    modular_u = spaces.modular(u, p, quad=quad).value

    # integrate M(u)(x)^2 over [-R, -2] on shared geometric panels so the
    # table is a single cumulative pass
    edges = [2.0]
    for R in rs:
        seg = np.geomspace(edges[-1], R, 1 + max(
            4, int(10 * math.log10(R / edges[-1]) + 0.5)))
        edges.extend(seg[1:].tolist())
    edges = np.unique(np.asarray(edges))
    xs15, ws15 = gauss_nodes(15)

    parts = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        xv = mid + half * xs15
        mv = hl_maximal(u, -xv, r_max=4.0 * xv + 40.0)
        parts.append(half * float(np.sum(ws15 * mv * mv)))
    # geomspace ends each segment exactly on its R, so the running total
    # at R is the one through the panel ending at edges[i] == R
    cum_at_R = np.cumsum(parts)[np.searchsorted(edges, rs) - 1].tolist()
    gamma, _, _ = fit_offset_power(np.asarray(rs), np.asarray(cum_at_R))
    return CounterexampleTable(tuple(rs), modular_u, tuple(cum_at_R), gamma)


# ----------------------------------------------------------------------
# normalized mean oscillation
# ----------------------------------------------------------------------

@dataclass
class BmoResult:
    per_ball: tuple
    sup: float


def bmo_quantity(u: ScalarField, e_interior: tuple[float, float],
                 balls) -> BmoResult:
    """For each 1D ball B = (c - r, c + r) inside e_interior, the
    normalized double integral |B|^{-2} of |u(x) - u(y)| over B x B;
    reports each value and their maximum (a sampled lower bound of the
    sup over all balls, which is not computable).

    The inner absolute difference is integrated exactly in y by locating
    the sign changes of u(y) - u(x) for all x nodes of a ball in one
    `sign_pieces` call, so the kink along u(x) = u(y) costs no accuracy.
    """
    lo, hi = float(e_interior[0]), float(e_interior[1])
    if not lo < hi:
        raise DomainError("interior interval must be nondegenerate")
    vals = []
    for c, r in balls:
        a, b = float(c) - float(r), float(c) + float(r)
        if a < lo or b > hi:
            raise DomainError(f"ball ({c}, {r}) is not inside {e_interior}")
        vals.append(_ball_oscillation(u, a, b))
    return BmoResult(tuple(vals), max(vals) if vals else 0.0)


def _ball_oscillation(u: ScalarField, a: float, b: float,
                      n_pan: int = 12) -> float:
    edges = np.unique(np.concatenate(
        [np.linspace(a, b, n_pan + 1),
         np.asarray([k for k in u.kink_points() if a < k < b])]))
    xnodes, xw = panel_nodes(edges)
    ux = u.eval(xnodes)

    # cut the y range of every x node at the roots of u(y) = u(x)
    ygrid = np.linspace(a, b, 65)
    vals = u.eval(ygrid)[None, :] - ux[:, None]
    node, lo, hi, _ = sign_pieces(lambda rows: lambda y: u.eval(y) - ux[rows],
                                  np.broadcast_to(ygrid, vals.shape), vals)
    ys, ws = piece_nodes(lo, hi)
    diff = np.abs(u.eval(ys.ravel()).reshape(ys.shape) - ux[node, None])
    acc = np.zeros(xnodes.size)
    np.add.at(acc, node, np.sum(ws * diff, axis=1))
    return float(np.sum(xw * acc)) / (b - a) ** 2
