import numpy as np
import pytest

from vexs import Gaussian, Tent
from vexs.functionals import ray_t_quadrature
from vexs.quadrature import (bisect_bracket, gauss_nodes, golden_max,
                             panel_nodes, piece_nodes, sign_pieces,
                             vector_bisect)


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


def test_vector_bisect_stops_at_fixed_point():
    roots_true = np.array([0.3, 1.0 / 3.0, 0.7, 0.05])
    calls = []

    def g(h):
        calls.append(h.size)
        return h - roots_true

    lo, hi = np.zeros(4), np.ones(4)
    lo_positive = np.zeros(4, dtype=bool)
    roots = vector_bisect(g, lo, hi, lo_positive, iters=60)
    assert len(calls) < 60
    # the same brackets bisected for all 60 steps
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        same = (mid - roots_true > 0.0) == lo_positive
        lo, hi = np.where(same, mid, lo), np.where(same, hi, mid)
    assert np.array_equal(roots, 0.5 * (lo + hi))


def test_sign_pieces_without_flips_skips_residual():
    samples = np.array([[0.0, 0.5, 1.0], [2.0, 3.0, 4.0]])
    pos = np.array([[True] * 3, [False] * 3])

    def residual(rows):
        raise AssertionError("nothing flips, so nothing is bisected")

    row, lo, hi, is_pos = sign_pieces(residual, samples, pos)
    assert row.tolist() == [0, 1]
    assert lo.tolist() == [0.0, 2.0]
    assert hi.tolist() == [1.0, 4.0]
    assert is_pos.tolist() == [True, False]


def test_sign_pieces_cuts_at_roots():
    # u(y) = y^2 - 1/4 on two paths: flips at -1/2 and 1/2 on the first,
    # none on the second
    samples = np.array([np.linspace(-1.0, 1.0, 8), np.linspace(2.0, 3.0, 8)])
    pos = samples ** 2 - 0.25 > 0.0

    def residual(rows):
        return lambda y: y ** 2 - 0.25

    row, lo, hi, is_pos = sign_pieces(residual, samples, pos)
    assert row.tolist() == [0, 0, 0, 1]
    assert is_pos.tolist() == [True, False, True, True]
    np.testing.assert_allclose(lo, [-1.0, -0.5, 0.5, 2.0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(hi, [-0.5, 0.5, 1.0, 3.0], rtol=0, atol=1e-15)


def test_golden_max_on_parabola():
    x, fx = golden_max(lambda t: 2.0 - (t - 0.3) ** 2, -1.0, 2.0)
    assert x == pytest.approx(0.3, abs=1e-7)
    assert fx == pytest.approx(2.0, abs=1e-14)


@pytest.mark.parametrize("u", [Tent(), Gaussian()])
def test_ray_t_quadrature_keep(u):
    x, omega = np.array([0.3]), np.array([-1.0])
    hb = np.geomspace(1e-13, 4.0, 17)
    g = float(u.grad(x[None, :])[0] @ omega)
    full = ray_t_quadrature(u, x, omega, 0.4, hb, g)
    every = ray_t_quadrature(u, x, omega, 0.4, hb, g,
                             np.ones(hb.size, dtype=bool))
    for a, b in zip(full, every):
        assert np.array_equal(a, b)
    keep = np.arange(hb.size) % 3 == 1
    some = ray_t_quadrature(u, x, omega, 0.4, hb, g, keep)
    for a, b in zip(full, some):
        assert np.array_equal(a.reshape(-1, 15)[keep].ravel(), b)
    # the t weights of all panels sum to the t range [0, H^beta]
    assert np.sum(full[1]) == pytest.approx(4.0 ** 0.4, rel=1e-14)
