"""Hardy-Littlewood and directional maximal functions, the variable
exponent divergence experiment, and normalized mean-oscillation integrals.

The sup over radii is approximated by a geometric grid plus
golden-section refinement around the best grid point; averages are
composite Gauss quadrature with panel edges seeded at the field's known
kinks, so the experiment profiles (indicator overlaps, power tails) are
resolved to quadrature accuracy by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError
from . import exponents
from . import fields as field_mod
from .fields import ScalarField
from .quadrature import (gauss_nodes, golden_max, panel_nodes, piece_nodes,
                         sign_pieces)
from . import spaces
from .sweeps import fit_offset_power

_R_FLOOR = 1e-6


@dataclass
class MaximalProfile:
    points: tuple
    values: tuple
    search_radii: tuple
    depth: int


def _interval_average(u: ScalarField, lo: float, hi: float,
                      n_panels: int = 8) -> float:
    """Average of |u| over [lo, hi] (1D), panel edges seeded at kinks."""
    if hi <= lo:
        return 0.0
    seeds = [k for k in u.kink_points() if lo < k < hi]
    for s in u.singular_points:
        if lo < s < hi:
            # integrable singularities only (log); crowd panels toward it
            seeds.extend([s + d for d in (-1e-4, -1e-8, 1e-8, 1e-4)
                          if lo < s + d < hi])
    edges = np.unique(np.concatenate(
        [np.linspace(lo, hi, n_panels + 1), np.asarray(seeds, dtype=float)]))
    nodes, w = panel_nodes(edges)
    vals = np.abs(u.eval(nodes))
    return float(np.sum(w * vals)) / (hi - lo)


def _sup_over_radii(avg, r_max: float, depth: int, n_grid: int) -> float:
    """sup over r in (1e-6, r_max] of avg(r): a geometric grid scan, then
    `depth` golden-section passes of 20 iterations on the bracket around
    the best grid radius; never below the best grid value."""
    rs = np.geomspace(_R_FLOOR, r_max, n_grid)
    vals = np.array([avg(r) for r in rs])
    i = int(np.argmax(vals))
    _, best = golden_max(avg, rs[max(i - 1, 0)], rs[min(i + 1, n_grid - 1)],
                         iters=20 * depth)
    return max(float(vals[i]), best)


def hl_maximal(u: ScalarField, x: float, r_max: float,
               depth: int = 3, n_grid: int = 48) -> float:
    """Centered maximal function sup_{r} average of |u| over B(x, r) (1D).

    Radii scan a geometric grid in (1e-6, r_max], then golden-section
    refinement runs `depth` passes of 20 iterations around the best
    bracket.  The reported value is a certified lower bound of the sup
    that matches it to refinement accuracy for unimodal profiles.
    """
    if u.dimension != 1:
        raise DomainError("maximal functions are computed in one dimension")
    if r_max <= _R_FLOOR:
        raise DomainError("r_max too small")
    x = float(x)

    def avg(r: float) -> float:
        return 0.5 * (_interval_average(u, x - r, x) +
                      _interval_average(u, x, x + r))

    return _sup_over_radii(avg, r_max, depth, n_grid)


def directional_maximal(u: ScalarField, x: float, omega: float,
                        h_max: float, depth: int = 3,
                        n_grid: int = 48) -> float:
    """One-sided maximal function sup_h (1/h) integral of |u| along the
    ray x + s*omega, s in (0, h)."""
    if u.dimension != 1:
        raise DomainError("maximal functions are computed in one dimension")
    if omega not in (-1.0, 1.0, -1, 1):
        raise DomainError("omega must be +1 or -1 in one dimension")
    x = float(x)

    def avg(h: float) -> float:
        if omega > 0:
            return _interval_average(u, x, x + h)
        return _interval_average(u, x - h, x)

    return _sup_over_radii(avg, h_max, depth, n_grid)


def maximal_profile(u: ScalarField, points, r_max: float,
                    depth: int = 3, omega: float | None = None,
                    n_grid: int = 48) -> MaximalProfile:
    pts = [float(t) for t in points]
    if omega is None:
        vals = [hl_maximal(u, t, r_max, depth, n_grid) for t in pts]
    else:
        vals = [directional_maximal(u, t, omega, r_max, depth, n_grid)
                for t in pts]
    rs = np.geomspace(_R_FLOOR, r_max, n_grid)
    return MaximalProfile(tuple(pts), tuple(vals), tuple(rs.tolist()), depth)


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

    cum = 0.0
    cum_at_R = []
    targets = iter(rs)
    next_R = next(targets)
    out = []
    for lo, hi in zip(edges[:-1], edges[1:]):
        half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
        xv = mid + half * xs15
        mv = np.array([hl_maximal(u, -t, r_max=4.0 * t + 40.0) for t in xv])
        cum += half * float(np.sum(ws15 * mv * mv))
        while next_R is not None and abs(hi - next_R) < 1e-9:
            cum_at_R.append(cum)
            next_R = next(targets, None)
    if len(cum_at_R) != len(rs):
        raise DomainError("internal: panel edges missed an R value")

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
    pos = u.eval(ygrid)[None, :] - ux[:, None] > 0.0
    node, lo, hi, _ = sign_pieces(lambda rows: lambda y: u.eval(y) - ux[rows],
                                  np.broadcast_to(ygrid, pos.shape), pos)
    ys, ws = piece_nodes(lo, hi)
    diff = np.abs(u.eval(ys.ravel()).reshape(ys.shape) - ux[node, None])
    acc = np.zeros(xnodes.size)
    np.add.at(acc, node, np.sum(ws * diff, axis=1))
    return float(np.sum(xw * acc)) / (b - a) ** 2
