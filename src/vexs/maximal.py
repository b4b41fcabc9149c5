"""Hardy-Littlewood and directional maximal functions, the variable
exponent divergence experiment, and normalized mean-oscillation integrals.

One radius scan serves every maximal function, on a block of points (up
to _POINT_BLOCK of them) at a time.  For each point and side a table
holds the integral of |u| outward from the point, one GL15 panel per
cell, on cells cut at the grid radii, at the field's kinks and graded
about each kink and singular point, so the experiment profiles
(indicator overlaps, power tails, log singularities) are resolved to
quadrature accuracy.  Averages at the grid radii are table entries;
golden-section refinement then steps every point's bracket in lockstep,
one GL15 end piece per side and step, until the point's two inner values
are within 4 ulp.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import exponents
from . import fields as field_mod
from .fields import ScalarField
from .quadrature import (decade_seeds, golden_max, panel_nodes, piece_nodes,
                         row_pieces, sign_pieces)
from . import spaces
from .sweeps import fit_offset_power

_R_FLOOR = 1e-6
# geometric grid radii per scan, from _R_FLOOR to the reach
_N_GRID = 48
# points per radius scan; a point's table, its candidates' averages and
# its end pieces hold about 0.04 MB (power tail) to 0.25 MB (log)
_POINT_BLOCK = 128


@dataclass
class MaximalProfile:
    points: tuple
    values: tuple
    search_radii: tuple
    depth: int


def _segment_integrals(u: ScalarField, x, sign, t0, t1) -> np.ndarray:
    """The integral of |u| over each segment x + sign*[t0, t1], by one GL15
    panel in t, so that its weights add up to t1 - t0 and not to a width
    rounded at the scale of x; 0.0, with no nodes, where it is empty or
    off u.support_interval()."""
    s_lo, s_hi = u.support_interval()
    a, b = x + sign * t0, x + sign * t1
    on = np.flatnonzero((t1 > t0) & (np.maximum(a, b) > s_lo) &
                        (np.minimum(a, b) < s_hi))
    t, w = piece_nodes(t0[on], t1[on])
    y = x[on, None] + sign[on, None] * t
    out = np.zeros(x.size)
    out[on] = np.sum(w * np.abs(u.eval(y.ravel()).reshape(y.shape)), axis=1)
    return out


class _OutwardTable:
    """The integral of |u| from each point x[p] outward toward each side,
    at the edges t of cells on the segment x[p] + side*[0, reach]: one
    row per side and point, s * m + p.

    A row's cells are cut at 0, at the radii rs[p] (increasing, the last
    the reach), at the kinks and their decade seeds and at the decade
    seeds about singular points (down to 1e-8, for a log), then into
    equal parts so that none is wider than a quarter of the distance
    from its far end to x[p] or to the nearest kink or singular point.
    Each cell is one GL15 panel.  The cumulative sums run outward over
    nonnegative terms along rows padded at their ends, so nothing cancels
    and a row's floats depend only on x[p], rs[p] and u, whatever block
    it is built in.
    """

    def __init__(self, u: ScalarField, x, sides, rs):
        self.u, self.m, self.n_sides = u, x.size, len(sides)
        self.sign = np.repeat(np.asarray(sides, dtype=float), x.size)
        self.x, rs = np.tile(x, len(sides)), np.tile(rs, (len(sides), 1))
        rows = np.arange(self.x.size)
        # seeds span the hull of all reaches, so a row's own seeds do not
        # depend on the rest of the block
        hull = np.min(self.x - rs[:, -1]), np.max(self.x + rs[:, -1])
        kinks, sing = u.kink_points(), u.singular_points
        ts = self.sign[:, None] * (np.concatenate(
            [kinks, sing, decade_seeds(kinks, *hull),
             decade_seeds(sing, *hull, j0=-8)]) - self.x[:, None])
        # t where a row's segment ends at a kink or singular point
        self.center_t = ts[:, :kinks.size + len(sing)]
        sr, sc = np.nonzero((0.0 < ts) & (ts < rs[:, -1:]))
        row, lo, hi = row_pieces(
            np.concatenate([rows, np.repeat(rows, rs.shape[1]), sr]),
            np.concatenate([np.zeros(rows.size), rs.ravel(), ts[sr, sc]]))
        # no cell wider than a quarter of the distance from its far end to
        # x (t = 0) or to the nearest kink or singular point; its k equal
        # parts share their edges' floats
        tc = self.center_t[row]
        far = np.maximum(np.abs(lo[:, None] - tc), np.abs(hi[:, None] - tc))
        k = np.ceil(4.0 * (hi - lo) / np.minimum(
            hi, np.min(far, axis=1, initial=np.inf))).astype(int)
        cell = np.repeat(np.arange(row.size), k)
        j = np.arange(cell.size) - np.repeat(np.cumsum(k) - k, k)
        k, lo, hi = k[cell], lo[cell], hi[cell]

        def part(q):
            return np.where(q == k, hi, lo + (hi - lo) * (q / k))
        row, lo, hi = row[cell], part(j), part(j + 1)

        count = np.bincount(row, minlength=rows.size)
        col = np.arange(row.size) - (np.cumsum(count) - count)[row]
        self.edge = np.full((rows.size, count.max()), np.inf)
        self.edge[row, col] = hi
        parts = np.zeros(self.edge.shape)
        parts[row, col] = _segment_integrals(u, self.x[row], self.sign[row],
                                             lo, hi)
        self.cum = np.cumsum(parts, axis=1)

    def average(self, r, idx=None):
        """The mean over sides of the average of |u| from x[p] a length
        r[i, j] toward the side, p = idx[i] (every point when None), r at
        least the first radius: the entry at the last edge at or below r,
        plus one GL15 panel from that edge to r (none when r is an edge).
        """
        idx = np.arange(self.m) if idx is None else idx
        row = (np.arange(self.n_sides)[:, None] * self.m + idx).ravel()
        r = np.tile(r, (self.n_sides, 1))
        col = np.sum(self.edge[row, :, None] <= r[:, None, :], axis=1) - 1
        at = np.repeat(row, r.shape[1])
        piece = _segment_integrals(self.u, self.x[at], self.sign[at],
                                   self.edge[row[:, None], col].ravel(),
                                   r.ravel()).reshape(r.shape)
        avg = (self.cum[row[:, None], col] + piece) / r
        return np.sum(avg.reshape(self.n_sides, -1, r.shape[1]),
                      axis=0) / self.n_sides


def _maximal(u: ScalarField, x, r_max, sides: tuple, depth: int):
    """Per point of x, the sup over r in (1e-6, r_max] (r_max a number or
    one per point) of the mean over `sides` (-1, +1) of the average of
    |u| from x a length r toward that side: a grid of _N_GRID geometric
    radii and the radii at which a side reaches a kink or singular
    point, then golden-section steps about the best one, never below it,
    until the point's two inner values are within 4 ulp or after
    20 * depth steps.  A point's value does not depend on the batch.
    """
    if u.dimension != 1:
        raise DomainError("maximal functions are computed in one dimension")
    x = np.asarray(x, dtype=float)
    r_max = np.broadcast_to(np.asarray(r_max, dtype=float), x.shape).ravel()
    if not np.all(np.isfinite(x)):
        raise DomainError("maximal function points must be finite")
    if not np.all(np.isfinite(r_max) & (r_max > _R_FLOOR)):
        raise DomainError(f"r_max must be finite and above {_R_FLOOR:g}")

    def scan(xs, r_max):
        rs = np.geomspace(_R_FLOOR, r_max, _N_GRID, axis=1)
        table = _OutwardTable(u, xs, sides, rs)
        # the grid, and the radii at which a side's segment ends at a kink
        # or singular point (where the sup may sit), the reach otherwise
        tc = np.hstack(np.split(table.center_t, len(sides)))
        tc = np.where((rs[:, :1] < tc) & (tc < rs[:, -1:]), tc, rs[:, -1:])
        radii = np.sort(np.concatenate([rs, tc], axis=1), axis=1)
        vals = table.average(radii)
        at = np.arange(xs.size)
        top = radii[at, np.argmax(vals, axis=1)][:, None]
        _, best = golden_max(
            lambda idx: lambda r: table.average(r[:, None], idx)[:, 0],
            np.max(np.where(radii < top, radii, radii[:, :1]), axis=1),
            np.min(np.where(radii > top, radii, radii[:, -1:]), axis=1),
            iters=20 * depth, flat=True)
        return np.maximum(np.max(vals, axis=1), best)

    # a block of points at a time bounds the scan's memory
    xs = x.ravel()
    out = [scan(xs[k:k + _POINT_BLOCK], r_max[k:k + _POINT_BLOCK])
           for k in range(0, xs.size, _POINT_BLOCK)]
    return np.concatenate(out or [np.empty(0)]).reshape(x.shape)[()]


def hl_maximal(u: ScalarField, x, r_max, depth: int = 3):
    """Centered maximal function sup_r average of |u| over B(x, r) (1D)
    at a point x or an array of points, r_max a number or one per point.

    The value is a lower bound (up to quadrature error) of the sup over
    r in (1e-6, r_max] that matches it to refinement accuracy for
    unimodal profiles.
    """
    return _maximal(u, x, r_max, (-1.0, 1.0), depth)


def directional_maximal(u: ScalarField, x, omega: float, h_max,
                        depth: int = 3):
    """One-sided maximal function sup_h (1/h) integral of |u| along the
    ray x + s*omega, s in (0, h), at a point x or an array of points."""
    if isinstance(omega, bool) or omega not in (-1.0, 1.0, -1, 1):
        raise DomainError("omega must be +1 or -1 in one dimension")
    return _maximal(u, x, h_max, (omega,), depth)


def maximal_profile(u: ScalarField, points, r_max: float,
                    depth: int = 3,
                    omega: float | None = None) -> MaximalProfile:
    pts = np.asarray(points, dtype=float)
    vals = (hl_maximal(u, pts, r_max, depth) if omega is None else
            directional_maximal(u, pts, omega, r_max, depth))
    rs = np.geomspace(_R_FLOOR, r_max, _N_GRID)
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

    # one maximal scan over the GL15 nodes of every panel (a point's
    # value does not depend on its batch), then each panel's own sum
    xv, wv = (v.reshape(-1, 15) for v in panel_nodes(edges))
    mv = hl_maximal(u, -xv, r_max=4.0 * xv + 40.0)
    parts = np.sum(wv * mv * mv, axis=1)
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


def _ball_oscillation(u: ScalarField, a: float, b: float) -> float:
    # 12 equal x panels, cut at the kinks
    edges = np.unique(np.concatenate(
        [np.linspace(a, b, 13),
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
