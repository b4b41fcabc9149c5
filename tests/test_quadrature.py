import math
import tracemalloc

import numpy as np
import pytest

import oracles
from vexs import Gaussian, QuadratureSpec, Tent, functionals, quadrature
from vexs.functionals import ray_slope, ray_t_nodes
from vexs.quadrature import (AdaptiveResult, adaptive_integrate,
                             bisect_bracket, decade_seeds, gauss_nodes,
                             golden_max, panel_nodes, piece_nodes, row_pieces,
                             sign_pieces, vector_bisect)


def test_bisect_bracket_runs_iters_steps():
    lo, hi, steps = bisect_bracket(lambda m: m < 0.3, 0.0, 1.0, 10)
    assert steps == 10
    assert hi - lo == 2.0 ** -10
    assert lo < 0.3 <= hi


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


def test_gl15_gl7_values_and_errors_per_panel():
    # GL7 is exact to degree 13 and GL15 to degree 29: on x^13 both sums
    # agree to rounding, on x^20 only GL15 is exact
    lo, hi = np.array([0.0, 0.5, 1.0]), np.array([0.5, 1.0, 2.0])
    half, mid = 0.5 * (hi - lo), 0.5 * (hi + lo)
    x = mid[:, None] + half[:, None] * quadrature.gl15_gl7_nodes()[0]
    for k, exact_gl7 in ((13, True), (20, False)):
        v, err = quadrature.gl15_gl7(x ** k, half)
        np.testing.assert_allclose(v, (hi ** (k + 1) - lo ** (k + 1))
                                   / (k + 1), rtol=1e-14)
        assert np.all(err <= 1e-14 * v) == exact_gl7
        assert np.all(err > 0.0) or exact_gl7


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

    x, fx = golden_max(lambda i: lambda t: f(t, peaks[i]), a, b, iters=40)
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


@pytest.mark.parametrize("f, a, b, seeds, kw", [
    (lambda x: np.sin(6.0 * x), 0.0, 3.0, (), {}),
    (lambda x: np.abs(x - 0.3) ** 1.5, -1.0, 2.0, (0.0, 1.0), {}),
    (lambda x: 1.0 / (1e-3 + x * x), -1.0, 1.0, (), {"rel_tol": 1e-12}),
    # a jump refines to the minimal width and is accepted there, and
    # max_panels stops the rest
    (lambda x: np.where(x > 1.0 / 3.0, 2.0, 0.0), 0.0, 1.0, (),
     {"min_width_frac": 1e-3, "max_panels": 40}),
])
def test_adaptive_integrate_one_call_per_split(f, a, b, seeds, kw):
    # one f call for the initial partition, one per split, and the
    # result of one call per panel
    calls = []

    def counted(x):
        calls.append(x.size)
        return f(x)
    res = adaptive_integrate(counted, a, b, seeds=seeds, **kw)
    initial = 1 + sum(a < s < b for s in seeds)
    assert len(calls) == 1 + res.n_panels - initial
    assert calls[0] == 22 * initial and set(calls[1:]) <= {44}
    assert res.n_panels > initial
    assert res == AdaptiveResult(*oracles.adaptive_integrate_per_panel(
        f, a, b, seeds=seeds, **kw))


@pytest.mark.parametrize("kw", [{"min_width_frac": 1e-3, "max_panels": 40},
                                {"rel_tol": 1e-15},
                                {"min_width_frac": 1e-3, "rel_tol": 1e-15}])
def test_adaptive_integrate_reports_error_of_unsplit_panels(kw):
    # the panel holding the jump stops splitting at the width floor; its
    # error stays in the reported error and leaves the stop test, so the
    # loop ends long before max_panels (in the last case every panel with
    # an error reaches the floor, so only that ends the loop)
    res = adaptive_integrate(lambda x: np.where(x > 1.0 / 3.0, 2.0, 0.0),
                             0.0, 1.0, **kw)
    assert res.error >= abs(res.value - 4.0 / 3.0)
    assert res.n_panels < 100


def test_adaptive_integrate_width_floor_scales_with_the_panel():
    # x^(-4/3) on [2, inf) seen from a line of half-width 1e27: every
    # panel of the mass near 2 is far below 1e-13 of the domain, and
    # still refines, to the closed form
    res = adaptive_integrate(
        lambda x: np.where(x >= 2.0, np.abs(x) ** (-4.0 / 3.0), 0.0),
        -1e27, 1e27, seeds=[0.0, 2.0, *decade_seeds(0.0, -1e27, 1e27)])
    exact = 3.0 * (2.0 ** (-1.0 / 3.0) - 1e-9)
    assert res.value == pytest.approx(exact, rel=1e-10)
    assert res.error >= abs(res.value - exact)
    assert res.n_panels < 200


def test_golden_max_on_parabola():
    x, fx = golden_max(lambda t: 2.0 - (t - 0.3) ** 2, -1.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-14)


def test_golden_max_stops_within_4_ulp_of_a_parabola_peak():
    # a golden step shrinks the bracket by 0.618, so 3 -> 4 ulp of 0.3
    # takes 77 steps, not the 200 allowed
    calls = []

    def f(t):
        calls.append(t)
        return -(t - 0.3) ** 2
    x, fx = golden_max(f, -1.0, 2.0, iters=200)
    assert len(calls) <= 80
    assert abs(x - 0.3) <= 4.0 * np.spacing(0.3)
    assert fx == -(x - 0.3) ** 2


def test_golden_max_evaluates_only_unfinished_brackets():
    # brackets stop at different steps: with `flat`, once their inner
    # values are within 4 ulp; each is evaluated until then and gives
    # the floats of its scalar run
    peaks = np.array([0.3, -0.7, 1.9, 0.3])
    a, b = np.array([-1.0, -2.0, 1.0, 0.29]), np.array([2.0, 0.0, 5.0, 0.31])
    sizes = []

    def rows(i):
        sizes.append(i.size)
        return lambda t: 2.0 - (t - peaks[i]) ** 2 * (1.0 + 0.1 * np.sin(t))
    for flat in (False, True):
        sizes.clear()
        x, fx = golden_max(rows, a, b, iters=200, flat=flat)
        assert sizes[0] == 4 and sizes[-1] < 4
        assert len(sizes) < (60 if flat else 202)
        for k in range(peaks.size):
            xk, fk = golden_max(
                lambda t: 2.0 - (t - peaks[k]) ** 2 * (1.0 + 0.1 * np.sin(t)),
                a[k], b[k], iters=200, flat=flat)
            assert (x[k], fx[k]) == (xk, fk)


@pytest.mark.parametrize("u", [Tent(), Gaussian()])
def test_ray_t_nodes_batch_matches_rows_alone(u):
    X = np.array([[0.3], [-2.0], [0.9]])
    H = np.array([4.0, 6.5, 3.0])
    omega, quad = -np.ones_like(X), QuadratureSpec(h_bracket_grid=32)
    row, *batch = ray_t_nodes(u, X, omega, 0.4, H, quad)
    # the t weights of each ray sum to its t range [0, H^beta]
    np.testing.assert_allclose(np.bincount(row, batch[1].sum(axis=1)),
                               H ** 0.4, rtol=1e-14)
    for i in range(3):
        alone = ray_t_nodes(u, X[i:i + 1], omega[i:i + 1], 0.4, H[i:i + 1],
                            quad)
        for a, b in zip(alone[1:], batch):
            assert np.array_equal(a, b[row == i])


def test_ray_t_nodes_exclusion_stays_on_its_ray():
    # ray 0 excludes (0.7, inf), which closes at its cutoff H; ray 1, with
    # nothing excluded, is the same as when computed alone
    u, quad = Gaussian(scale=3.0), QuadratureSpec(h_bracket_grid=32)
    X, H = np.array([[0.5], [1.0]]), np.array([5.0, 5.0])
    omega = np.ones_like(X)
    exclude = (np.array([0]), np.array([0.7]), np.array([np.inf]))
    row, h, w_t, psi = ray_t_nodes(u, X, omega, 0.4, H, quad, exclude)
    alone = ray_t_nodes(u, X[1:], omega[1:], 0.4, H[1:], quad)
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
    alone = [ray_t_nodes(u, X, np.tile(w, (5, 1)), beta, H, quad, exclude)
             for w in nodes]
    want = [np.concatenate([r + 5 * k for k, (r, *_) in enumerate(alone)])]
    want += [np.concatenate(parts) for parts in list(zip(*alone))[1:]]
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


def _ray_nodes_by_loop(u, x, omega, beta, H, n_panels, a, b, merge=True):
    """Reference: the panel rule built one ray at a time, with excluded
    panels found by their midpoints; returns (h, w_t, psi) per node.  Of
    the grid points below the slope floor only the last is a break, or
    all of them without `merge`."""
    xw, x2 = float(x @ omega), float(x @ x)
    floor = 1e-7 * max(1.0, float(np.linalg.norm(x)))
    geo = np.geomspace(1e-13, H, n_panels + 1).tolist()
    breaks = {g for g, nxt in zip(geo, geo[1:] + [math.inf])
              if nxt >= floor or not merge}
    for r in np.unique(np.abs(u.kink_points())):
        disc = xw * xw - (x2 - r * r)
        if abs(disc) <= 4.0 * np.finfo(float).eps * (xw * xw + x2):
            disc = 0.0
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
    psi = np.where(h >= floor, quotient, abs(g))
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
    row, *batch = ray_t_nodes(u, X, np.tile(omega, (4, 1)), 0.4, H, quad,
                              exclude)
    for i in range(4):
        mine = exclude[0] == i
        ref = _ray_nodes_by_loop(u, X[i], omega, 0.4, H[i], 16,
                                 exclude[1][mine], exclude[2][mine])
        for a, b in zip(ref, batch):
            np.testing.assert_array_equal(a, b[row == i])


@pytest.mark.parametrize("beta", [0.1, 0.4, 1.0])
@pytest.mark.parametrize("u, omega", [
    (Tent(scale=2.5), np.array([-1.0])),
    (Gaussian(scale=3.0), np.array([1.0])),
    (Tent(dimension=2), np.array([0.6, -0.8])),
    (Gaussian(dimension=2), np.array([0.6, -0.8])),
])
def test_merged_floor_panel_keeps_ray_integrals(u, omega, beta):
    # below the floor psi is the constant |grad u . w|, so one panel
    # there integrates psi^q as the grid's panels did, up to rounding
    n = u.dimension
    X = np.vstack([np.linspace(-1.5, 1.2, 4 * n).reshape(4, n),
                   np.full((1, n), 40.0)])
    H = np.linalg.norm(X, axis=1) + 2.0
    quad, none = QuadratureSpec(h_bracket_grid=128), np.zeros(0)
    row, h, w_t, psi = ray_t_nodes(u, X, np.tile(omega, (len(X), 1)), beta, H,
                                   quad)
    for i in range(X.shape[0]):
        g = abs(float(u.grad(X[i:i + 1])[0] @ omega))
        floor = 1e-7 * max(1.0, float(np.linalg.norm(X[i])))
        mine = row == i
        under = np.all(h[mine] < floor, axis=1)
        assert under.sum() == 1 and np.all(psi[mine][under] == g)
        grid = _ray_nodes_by_loop(u, X[i], omega, beta, H[i], 64, none,
                                  none, merge=False)
        assert h[mine].size < grid[0].size
        for q in (1.0, 2.0, 2.5):
            assert np.sum(w_t[mine] * psi[mine] ** q) == pytest.approx(
                np.sum(grid[1] * grid[2] ** q), rel=1e-14, abs=0.0)


def _ray_slope_by_gather(u, x, omega, h, grad_dir, u_x):
    """Reference: the quotient at the gathered nodes on or above the
    slope floor, scattered into rows of |grad_dir|."""
    out = np.repeat(np.abs(grad_dir)[:, None], h.shape[1], axis=1)
    big = h >= functionals._slope_floor(x)[:, None]
    k = np.nonzero(big)[0]
    out[big] = np.abs(u.eval(x[k] + h[big][:, None] * omega[k]) - u_x[k]
                      ) / h[big]
    return out


@pytest.mark.parametrize("per_row", [False, True])
@pytest.mark.parametrize("u", [Tent(), Gaussian(center=0.4, scale=1.5),
                               Tent(dimension=2),
                               Gaussian(center=[0.4, -0.7], dimension=2)])
def test_ray_slope_matches_gather_route(u, per_row):
    # rows 0-3 straddle the slope floor (1e-7 max(1, |x|)), the rest lie
    # above it; the rays share one direction or each have their own
    n = u.dimension
    lo = np.array([0.0, 5e-8, 0.0, 2e-8, 1e-3, 0.5, 2.0])
    hi = np.array([2e-7, 3e-7, 5e-7, 1e-6, 0.2, 2.0, 6.0])
    h = piece_nodes(lo, hi)[0]
    x = np.linspace(-2.5, 1.9, lo.size * n).reshape(lo.size, n)
    x[0] = 0.0
    if per_row:
        ang = np.linspace(0.3, 5.9, lo.size)
        omega = (np.sign(np.cos(ang))[:, None] if n == 1 else
                 np.column_stack([np.cos(ang), np.sin(ang)]))
    else:
        omega = np.tile(np.ones(1) if n == 1 else np.array([0.6, -0.8]),
                        (lo.size, 1))
    grad_dir, u_x = np.vecdot(u.grad(x), omega), u.eval(x)
    got = ray_slope(u, x, omega, h, grad_dir, u_x)
    assert np.array_equal(
        got, _ray_slope_by_gather(u, x, omega, h, grad_dir, u_x))
    below = h < functionals._slope_floor(x)[:, None]
    assert np.any(below[:4], axis=1).all() and not below.all(axis=1).any()
    assert np.array_equal(
        got[below], np.broadcast_to(np.abs(grad_dir)[:, None], h.shape)[below])


@pytest.mark.parametrize("u", [Tent(), Gaussian(center=0.3)])
def test_ray_t_nodes_memory_per_node(u):
    # one paired outer split (44 points, both 1D directions, 88 rays) at
    # the default grid: the call's traced peak stays within 40 bytes a
    # returned node (32 measured: h, the ray points, one field temporary
    # and the per-piece arrays, with the weights made after u is
    # evaluated), so no gather, scatter or pad copy comes back
    X = np.linspace(-1.3, 0.9, 44)[:, None]
    H = np.tile(np.abs(X[:, 0]) + u.far_radius(1e-6) + 1.0, 2)
    omega = np.repeat(np.array([[1.0], [-1.0]]), 44, axis=0)
    args = (u, np.tile(X, (2, 1)), omega, 0.4, H, QuadratureSpec())
    ray_t_nodes(*args)
    tracemalloc.start()
    try:
        h = ray_t_nodes(*args)[1]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * h.size
