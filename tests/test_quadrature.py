import math

import numpy as np
import pytest

from vexs import Gaussian, QuadratureSpec, Tent, quadrature
from vexs.functionals import ray_t_nodes
from vexs.quadrature import (bisect_bracket, decade_seeds, gauss_nodes,
                             golden_max, panel_nodes, piece_nodes, row_pieces,
                             sign_pieces, vector_bisect)


def test_bisect_bracket_runs_iters_steps():
    lo, hi, steps = bisect_bracket(lambda m: m < 0.3, 0.0, 1.0, 10)
    assert steps == 10
    assert hi - lo == 2.0 ** -10
    assert lo < 0.3 <= hi


def test_bisect_bracket_stops_at_rel_width():
    lo, hi, steps = bisect_bracket(lambda m: m < 0.3, 0.0, 1.0, 200,
                                   rel_width=1e-3)
    # 2^-11 > 1e-3 * hi >= 2^-12 for hi just above 0.3
    assert steps == 12
    assert hi - lo <= 1e-3 * hi < 2.0 * (hi - lo)


def test_bisect_bracket_stops_when_no_end_moves():
    lo, hi, steps = bisect_bracket(lambda m: m < 0.3, 0.0, 1.0, 200)
    # adjacent floats: the next midpoint rounds onto an end
    assert hi == np.nextafter(lo, 1.0)
    assert lo < 0.3 <= hi
    assert steps < 60


def test_bisect_bracket_true_moves_lo():
    assert bisect_bracket(lambda m: True, 0.0, 1.0, 1) == (0.5, 1.0, 1)
    assert bisect_bracket(lambda m: False, 0.0, 1.0, 1) == (0.0, 0.5, 1)
    assert bisect_bracket(lambda m: True, 0.0, 1.0, 0) == (0.0, 1.0, 0)


def test_panel_nodes_matches_inline_composite_rule():
    edges = np.unique(np.concatenate(
        [np.linspace(-3.0, 5.0, 13), [-1.2345, 0.0, 2.0 / 3.0]]))
    xs, ws = gauss_nodes(15)
    half = 0.5 * np.diff(edges)
    mid = edges[:-1] + half
    nodes, weights = panel_nodes(edges)
    assert np.array_equal(nodes,
                          (mid[:, None] + half[:, None] * xs[None, :]).ravel())
    assert np.array_equal(weights, (half[:, None] * ws[None, :]).ravel())
    assert np.sum(weights) == pytest.approx(8.0, rel=1e-14)


def test_piece_nodes_rows_match_panel_nodes():
    edges = np.array([-1.0, -0.25, 0.5, 3.0])
    nodes, weights = piece_nodes(edges[:-1], edges[1:])
    assert nodes.shape == weights.shape == (3, 15)
    flat = panel_nodes(edges)
    assert np.array_equal(nodes.ravel(), flat[0])
    assert np.array_equal(weights.ravel(), flat[1])


def _solve(f, lo, hi):
    """vector_bisect on the residual f(x, idx) of brackets [lo, hi];
    returns the roots and the evaluations of each bracket."""
    evals = np.zeros(lo.size, dtype=int)

    def g(idx):
        np.add.at(evals, idx, 1)
        return lambda x: f(x, idx)
    every = np.arange(lo.size)
    return vector_bisect(g, lo, hi, f(lo, every), f(hi, every)), evals


def _within_4_ulp(got, want):
    assert np.all(np.abs(got - want) <= 4.0 * np.spacing(want))


_ROOTS = np.sqrt(np.linspace(0.5, 5.0, 200))


@pytest.mark.parametrize("f", [
    lambda x, i: x * x - _ROOTS[i] ** 2,
    # kink at the root, and a kink off the root on either side of it
    lambda x, i: np.maximum(x - _ROOTS[i], 4.0 * (x - _ROOTS[i])),
    lambda x, i: np.minimum(x - _ROOTS[i], 3.0 * (x - _ROOTS[i]) + 0.1),
    lambda x, i: np.minimum(x - _ROOTS[i], 0.2 * (x - _ROOTS[i]) + 0.05),
    # a step: no secant information at all
    lambda x, i: np.where(x > _ROOTS[i], 1.0, -1.0),
], ids=["smooth", "kink-at-root", "kink-left", "kink-right", "step"])
def test_vector_bisect_roots_within_4_ulp(f):
    rng = np.random.default_rng(3)
    lo = _ROOTS - rng.uniform(0.01, 1.0, _ROOTS.size)
    hi = _ROOTS + rng.uniform(0.01, 1.0, _ROOTS.size)
    roots, _ = _solve(f, lo, hi)
    _within_4_ulp(roots, _ROOTS)


def test_vector_bisect_returns_exact_zeros():
    # a zero residual at a bracket end returns that end, and one at a
    # step (the secant of x - 1/2 on [0, 1]) returns it after one step
    roots, evals = _solve(lambda x, i: x - 0.5, np.array([0.5, 0.0, 0.0]),
                          np.array([1.0, 0.5, 1.0]))
    assert roots.tolist() == [0.5, 0.5, 0.5]
    assert evals.tolist() == [0, 0, 1]


def test_vector_bisect_bracket_alone_matches_batch():
    rng = np.random.default_rng(5)
    c = rng.uniform(0.5, 5.0, 64)
    kind = np.arange(64) % 3

    def f(x, i):
        return np.where(kind[i] == 0, x * x - c[i],
                        np.where(kind[i] == 1, np.exp(-x) - np.exp(-c[i]),
                                 np.where(x > c[i], 1.0, -1.0)))
    lo, hi = 0.8 * np.sqrt(c), 1.1 * c + 1.0
    lo[kind == 1], lo[kind == 2] = 0.5 * c[kind == 1], 0.3 * c[kind == 2]
    batch, _ = _solve(f, lo, hi)
    for k in range(64):
        alone, _ = _solve(lambda x, i: f(x, i + k), lo[k:k + 1],
                          hi[k:k + 1])
        assert alone[0] == batch[k]


def test_vector_bisect_smooth_brackets_take_few_steps():
    # brackets of relative width 0.1 about roots of smooth residuals
    rng = np.random.default_rng(7)
    lo = _ROOTS * (1.0 - rng.uniform(0.001, 0.09, _ROOTS.size))
    hi = 1.1 * lo
    for f in (lambda x, i: x * x - _ROOTS[i] ** 2,
              lambda x, i: np.exp(-x * x) - np.exp(-_ROOTS[i] ** 2),
              lambda x, i: np.log(x) - np.log(_ROOTS[i])):
        roots, evals = _solve(f, lo, hi)
        _within_4_ulp(roots, _ROOTS)
        assert evals.max() <= 12


@pytest.mark.parametrize("tiny", [1.0, 1e-300])
def test_vector_bisect_worst_case_is_finite(tiny):
    # a step residual gives the secant nothing to use, and one of 1e-300
    # against 1 pins the secant point to an end; the width still halves
    # at least once every _CHECK steps until it is 4 ulp
    roots = np.linspace(0.25, 0.75, 101)
    lo, hi = np.zeros(roots.size), np.ones(roots.size)
    got, evals = _solve(lambda x, i: np.where(x > roots[i], 1.0, -tiny),
                        lo, hi)
    _within_4_ulp(got, roots)
    halvings = np.ceil(np.log2(1.0 / (4.0 * np.finfo(float).eps * roots)))
    assert np.all(evals <= quadrature._CHECK * (halvings + 1))


def test_sign_pieces_without_flips_skips_residual():
    samples = np.array([[0.0, 0.5, 1.0], [2.0, 3.0, 4.0]])
    values = np.array([[1.0, 0.5, 2.0], [0.0, -1.0, -3.0]])

    def residual(rows):
        raise AssertionError("nothing flips, so nothing is solved")

    row, lo, hi, is_pos = sign_pieces(residual, samples, values)
    assert row.tolist() == [0, 1]
    assert lo.tolist() == [0.0, 2.0]
    assert hi.tolist() == [1.0, 4.0]
    assert is_pos.tolist() == [True, False]


def test_sign_pieces_cuts_at_roots():
    # u(y) = y^2 - 1/4 on two paths: flips at -1/2 and 1/2 on the first,
    # none on the second
    samples = np.array([np.linspace(-1.0, 1.0, 8), np.linspace(2.0, 3.0, 8)])
    values = samples ** 2 - 0.25

    def residual(rows):
        return lambda y: y ** 2 - 0.25

    row, lo, hi, is_pos = sign_pieces(residual, samples, values)
    assert row.tolist() == [0, 0, 0, 1]
    assert is_pos.tolist() == [True, False, True, True]
    np.testing.assert_allclose(lo, [-1.0, -0.5, 0.5, 2.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(hi, [-0.5, 0.5, 1.0, 3.0], rtol=0, atol=1e-15)


def test_golden_max_arrays_match_scalar_runs():
    # brackets of one array step in lockstep, each exactly as alone
    peaks = np.array([0.3, -0.7, 1.9, 0.3])
    a = np.array([-1.0, -2.0, 1.0, 0.29])
    b = np.array([2.0, 0.0, 5.0, 0.31])

    def f(t, p=peaks):
        return np.exp(-(t - p) ** 2) * (1.0 + 0.1 * np.sin(7.0 * t))

    x, fx = golden_max(f, a, b, iters=40)
    for k in range(peaks.size):
        xk, fk = golden_max(lambda t: f(t, peaks[k]), a[k], b[k], iters=40)
        assert (x[k], fx[k]) == (xk, fk)
        assert np.ndim(xk) == 0


def test_row_pieces_match_unique_per_row():
    rng = np.random.default_rng(3)
    row = rng.integers(0, 5, size=60)
    x = np.round(rng.uniform(0.0, 4.0, size=60), 1)   # with repeats
    got = row_pieces(row, x)
    for k in range(5):
        edges = np.unique(x[row == k])
        mine = got[0] == k
        np.testing.assert_array_equal(got[1][mine], edges[:-1])
        np.testing.assert_array_equal(got[2][mine], edges[1:])
    assert np.all(np.diff(got[0]) >= 0)
    # an excluded stretch [1, 2] on row 0 drops the pieces inside it
    row = np.array([0, 0, 0, 0, 0, 0, 1, 1])
    x = np.array([3.0, 0.0, 1.5, 1.0, 2.0, 1.0, 0.0, 1.0])
    mark = np.array([0, 0, 0, 1, -1, 0, 0, 0])
    rows, lo, hi = row_pieces(row, x, mark)
    np.testing.assert_array_equal(rows, [0, 0, 1])
    np.testing.assert_array_equal(lo, [0.0, 2.0, 0.0])
    np.testing.assert_array_equal(hi, [1.0, 3.0, 1.0])


def test_decade_seeds_grade_about_each_center():
    np.testing.assert_array_equal(np.sort(decade_seeds(0.0, -150.0, 50.0)),
                                  [-100.0, -10.0, -1.0, 1.0, 10.0])
    got = np.sort(decade_seeds([2.0, 5.0], 1.5, 20.0, j0=-1))
    np.testing.assert_allclose(got, [1.9, 2.1, 3.0, 4.0, 4.9, 5.1, 6.0,
                                     12.0, 15.0], rtol=0, atol=1e-15)


def test_golden_max_on_parabola():
    x, fx = golden_max(lambda t: 2.0 - (t - 0.3) ** 2, -1.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("u", [Tent(), Gaussian()])
def test_ray_t_nodes_batch_matches_rows_alone(u):
    X = np.array([[0.3], [-2.0], [0.9]])
    H = np.array([4.0, 6.5, 3.0])
    omega, quad = np.array([-1.0]), QuadratureSpec(h_bracket_grid=32)
    row, *batch = ray_t_nodes(u, X, omega, 0.4, H, quad)
    # the t weights of each ray sum to its t range [0, H^beta]
    np.testing.assert_allclose(np.bincount(row, batch[1].sum(axis=1)),
                               H ** 0.4, rtol=1e-14)
    for i in range(3):
        alone = ray_t_nodes(u, X[i:i + 1], omega, 0.4, H[i:i + 1], quad)
        for a, b in zip(alone[1:], batch):
            assert np.array_equal(a, b[row == i])


def test_ray_t_nodes_exclusion_stays_on_its_ray():
    # ray 0 excludes (0.7, inf), which closes at its cutoff H; ray 1, with
    # nothing excluded, is the same as when computed alone
    u, quad = Gaussian(scale=3.0), QuadratureSpec(h_bracket_grid=32)
    X, H, omega = np.array([[0.5], [1.0]]), np.array([5.0, 5.0]), np.ones(1)
    exclude = (np.array([0]), np.array([0.7]), np.array([np.inf]))
    row, h, w_t, psi = ray_t_nodes(u, X, omega, 0.4, H, quad, exclude)
    alone = ray_t_nodes(u, X[1:], omega, 0.4, H[1:], quad)
    for a, b in zip(alone[1:], (h, w_t, psi)):
        assert np.array_equal(a, b[row == 1])
    assert h[row == 0].max() < 0.7
    assert w_t[row == 0].sum() == pytest.approx(0.7 ** 0.4, rel=1e-14)


@pytest.mark.parametrize("u", [Gaussian(scale=1.5),
                               Gaussian(scale=1.5, dimension=2)])
def test_ray_t_nodes_per_row_directions_match_stacked_calls(u):
    # direction-major rows (row k*m + i is point i in direction k), with
    # per-point beta and an exclusion on some rays of every direction
    from vexs import default_rule
    n = u.dimension
    X = np.linspace(-2.5, 2.1, 5 * n).reshape(5, n)
    nodes = default_rule(n, None if n == 1 else 8).nodes
    H, beta = np.linalg.norm(X, axis=1) + 2.0, np.linspace(0.3, 0.6, 5)
    exclude = (np.array([0, 3]), np.array([0.4, 0.2]),
               np.array([np.inf, 0.9]))
    quad, d = QuadratureSpec(h_bracket_grid=32), len(nodes)
    got = ray_t_nodes(u, np.tile(X, (d, 1)), np.repeat(nodes, 5, axis=0),
                      np.tile(beta, d), np.tile(H, d), quad,
                      (np.concatenate([exclude[0] + 5 * k
                                       for k in range(d)]),
                       np.tile(exclude[1], d), np.tile(exclude[2], d)))
    alone = [ray_t_nodes(u, X, w, beta, H, quad, exclude) for w in nodes]
    want = [np.concatenate([r + 5 * k for k, (r, *_) in enumerate(alone)])]
    want += [np.concatenate(parts) for parts in list(zip(*alone))[1:]]
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


def _ray_nodes_by_loop(u, x, omega, beta, H, n_panels, a, b):
    """Reference: the panel rule built one ray at a time, with excluded
    panels found by their midpoints; returns (h, w_t, psi) per node."""
    xw, x2 = float(x @ omega), float(x @ x)
    breaks = set(np.geomspace(1e-13, H, n_panels + 1).tolist())
    for r in np.unique(np.abs(u.kink_points())):
        disc = xw * xw - (x2 - r * r)
        if disc >= 0.0:
            breaks.update(h for h in (-xw - math.sqrt(disc),
                                      -xw + math.sqrt(disc)) if 1e-12 < h < H)
    ends = np.concatenate([a, b])
    breaks.update(ends[(ends > 1e-13) & (ends < H)].tolist())
    hi = np.array(sorted(breaks))
    lo = np.concatenate([[0.0], hi[:-1]])
    mid = 0.5 * (lo + hi)[:, None]
    keep = ~np.any((mid >= a) & (mid <= b), axis=1)
    t, w_t = piece_nodes(lo[keep] ** beta, hi[keep] ** beta)
    h = t ** (1.0 / beta)
    g = float(u.grad(x[None, :])[0] @ omega)
    quotient = np.abs(u.eval(x + h[..., None] * omega) - u.eval(x)) / h
    psi = np.where(h >= 1e-7 * max(1.0, float(np.linalg.norm(x))),
                   quotient, abs(g))
    return h, w_t, psi


@pytest.mark.parametrize("u, omega", [
    (Tent(scale=2.5), np.array([-1.0])),
    (Gaussian(scale=3.0), np.array([1.0])),
    (Tent(dimension=2), np.array([0.6, -0.8])),
])
def test_ray_t_nodes_match_ray_loop(u, omega):
    n = u.dimension
    X = np.linspace(-1.5, 1.2, 4 * n).reshape(4, n)
    H = np.linalg.norm(X, axis=1) + 2.0
    # row 0's interval runs to infinity and row 1's starts beyond H; both
    # must close at H
    exclude = (np.array([0, 1, 2, 2]), np.array([0.3, H[1] + 0.5, 0.1, 0.9]),
               np.array([np.inf, np.inf, 0.5, 1.4]))
    quad = QuadratureSpec(h_bracket_grid=32)
    row, *batch = ray_t_nodes(u, X, omega, 0.4, H, quad, exclude)
    for i in range(4):
        mine = exclude[0] == i
        ref = _ray_nodes_by_loop(u, X[i], omega, 0.4, H[i], 16,
                                 exclude[1][mine], exclude[2][mine])
        for a, b in zip(ref, batch):
            np.testing.assert_array_equal(a, b[row == i])
