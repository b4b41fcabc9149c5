import numpy as np
import pytest

import oracles
from vexs import (DomainError, Gaussian, LogSingular, SampledTable, Tent,
                  bmo_quantity, counterexample_experiment,
                  counterexample_exponent, counterexample_field,
                  directional_maximal, hl_maximal, maximal_profile, modular)
from vexs import maximal
from vexs.maximal import _OutwardTable


def _segment_average(u, x, r, rs=None):
    """Averages of |u| over the segments [x, x + r] through the scan's
    outward table, whose radii are rs (r alone when None)."""
    x, r = np.asarray(x, dtype=float), np.asarray(r, dtype=float)
    table = _OutwardTable(u, x, (1.0,), r[:, None] if rs is None else rs)
    return table.average(r[:, None])[:, 0]


def test_hl_maximal_constant_field():
    u = SampledTable([-50.0, 50.0], [3.0, 3.0])
    assert hl_maximal(u, 0.0, 10.0) == pytest.approx(3.0, rel=1e-9)


def test_hl_maximal_indicator_quarter():
    # indicator of [0,1] seen from x = 2: best ball reaches r = 2,
    # average = overlap / (2r) = 1/4, by hand
    u = SampledTable([0.0, 1.0], [1.0, 1.0])
    val = hl_maximal(u, 2.0, 20.0)
    assert val == pytest.approx(0.25, rel=1e-6)


def test_hl_maximal_gaussian_center():
    val = hl_maximal(Gaussian(), 0.0, 5.0)
    assert 1.0 - 1e-6 <= val <= 1.0 + 1e-12


def test_hl_maximal_dominates_field(rng):
    u = Gaussian()
    for x in rng.uniform(-2, 2, size=5):
        assert hl_maximal(u, x, 8.0) >= float(u.eval(x)) - 1e-9


def test_hl_maximal_positive_homogeneous():
    u1, u2 = Gaussian(), Gaussian(scale=2.0)
    for x in (0.0, 0.7, 1.9):
        a = hl_maximal(u1, x, 6.0)
        b = hl_maximal(u2, x, 6.0)
        assert b == pytest.approx(2.0 * a, rel=1e-12)


def test_directional_maximal_constant_and_tent():
    c = SampledTable([-50.0, 50.0], [2.0, 2.0])
    assert directional_maximal(c, 0.0, +1.0, 10.0) == pytest.approx(2.0,
                                                                    rel=1e-9)
    # decreasing profile: one-sided averages are maximized as h -> 0
    val = directional_maximal(Tent(), 0.0, +1.0, 5.0)
    assert val == pytest.approx(1.0, rel=1e-5)


def test_directional_maximal_indicator_full_overlap():
    u = SampledTable([0.0, 1.0], [1.0, 1.0])
    assert directional_maximal(u, 0.0, +1.0, 0.9) == pytest.approx(1.0,
                                                                   rel=1e-9)


def test_directional_vs_hl_positivity(rng):
    u = Tent()
    for x in rng.uniform(-1.5, 1.5, size=5):
        one_sided = max(directional_maximal(u, x, +1.0, 4.0),
                        directional_maximal(u, x, -1.0, 4.0))
        if one_sided > 0:
            assert hl_maximal(u, x, 4.0) > 0


def test_maximal_profile_shape():
    prof = maximal_profile(Gaussian(), [0.0, 1.0], r_max=4.0)
    assert len(prof.points) == 2 == len(prof.values)
    assert prof.depth == 3


@pytest.mark.parametrize("u, xs", [
    (Gaussian(), [-3.0, -0.4, 0.0, 0.7, 2.5]),
    (Tent(scale=2.0), [-1.5, -0.2, 0.0, 0.45, 1.0]),
    (counterexample_field(), [-700.0, -30.0, -2.0, 1.0, 2.5, 40.0]),
    (LogSingular((-1.0, 2.0)), [-0.9, -1e-3, 0.2, 0.6, 1.7]),
])
def test_batched_maximal_matches_scalar_calls(u, xs):
    xs = np.asarray(xs)
    r_max = 2.0 * np.abs(xs) + 3.0
    batch = hl_maximal(u, xs, r_max)
    assert [hl_maximal(u, x, r) for x, r in zip(xs, r_max)] == list(batch)
    for omega in (-1.0, 1.0):
        batch = directional_maximal(u, xs, omega, 5.0, depth=2)
        assert [directional_maximal(u, x, omega, 5.0, depth=2)
                for x in xs] == list(batch)
    assert isinstance(hl_maximal(u, xs[0], 5.0), float)


@pytest.mark.parametrize("u, xs", [
    (Gaussian(), [-3.0, -0.4, 0.0, 0.7, 2.5]),
    (Tent(scale=2.0), [-1.5, -0.2, 0.0, 0.45, 1.0]),
    (counterexample_field(), [-700.0, -30.0, -2.0, 1.0, 2.5, 40.0]),
    (LogSingular((-1.0, 2.0)), [-0.9, -1e-3, 0.2, 0.6, 1.7]),
])
def test_default_depth_matches_depth_10(u, xs):
    # smooth, kinked and singular peaks: a point's golden steps stop once
    # its two values are within 4 ulp, or the sup sits at a grid radius or
    # where a segment ends at a kink, so the cap of depth 3 (60 steps)
    # leaves nothing for more steps to find
    xs = np.asarray(xs)
    r_max = 2.0 * np.abs(xs) + 3.0
    np.testing.assert_allclose(hl_maximal(u, xs, r_max),
                               hl_maximal(u, xs, r_max, depth=10),
                               rtol=1e-14, atol=0.0)
    for omega in (-1.0, 1.0):
        np.testing.assert_allclose(
            directional_maximal(u, xs, omega, 5.0),
            directional_maximal(u, xs, omega, 5.0, depth=10),
            rtol=1e-14, atol=0.0)


def test_counterexample_scan_takes_a_pinned_count_of_field_points(
        monkeypatch):
    # the divergence experiment's 555-point scan: one GL15 panel per
    # table cell on the support and per end piece of a golden step (the
    # scan took 8,104,305 points when every step rebuilt its intervals'
    # panels); a count, not a wall time, pins the cost
    sizes = []

    def counted(u, x, r_max):
        sizes.append(np.size(x))
        eval_ = u.eval
        monkeypatch.setattr(u, "eval",
                            lambda p: sizes.append(np.size(p)) or eval_(p))
        return hl_maximal(u, x, r_max)
    monkeypatch.setattr(maximal, "hl_maximal", counted)
    counterexample_experiment([10.0, 100.0, 1000.0, 10000.0])
    assert sizes[0] == 555
    assert sum(sizes[1:]) == 453_990


def test_long_profile_matches_points_alone_in_bounded_memory():
    # 200 points scan in blocks: every value is the point's own scan,
    # and the peak allocation stays far below one unblocked scan's
    # (about 0.5 MB per point, 95 MB here)
    import tracemalloc
    pts = np.linspace(-2.0, 2.0, 200)
    tracemalloc.start()
    try:
        prof = maximal_profile(Tent(), pts, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 48 * 2 ** 20
    assert list(prof.values) == [hl_maximal(Tent(), x, 3.0) for x in pts]


def test_scan_memory_is_bounded_by_its_block():
    # 512 points scan 128 at a time; one unblocked scan of them peaks at
    # about 55 MB (about 0.11 MB a tent point)
    import tracemalloc
    pts = np.linspace(-2.0, 2.0, 512)
    tracemalloc.start()
    try:
        hl_maximal(Tent(), pts, 3.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 32 * 2 ** 20


@pytest.mark.parametrize("x", [-2.0, -3.0, -10.0, -100.0, -1000.0, -5000.0,
                               -10000.0])
def test_counterexample_maximal_matches_closed_form(x):
    # GL15 on cells graded about the kink: about 1e-12 relative
    val = hl_maximal(counterexample_field(), x, 4.0 * abs(x) + 40.0)
    assert val == pytest.approx(oracles.counterexample_maximal(x), rel=1e-9)


def test_log_singular_averages_match_closed_form():
    # segments across, at and next to the singular point 0, each ending
    # inside a cell of a scan's table (a GL15 end piece)
    x = np.array([-0.3, -1.0, 1e-3, -0.5, -2.0, -0.39, 0.0])
    r = np.array([0.9, 1.01, 1.899, 2.0, 5.0, 2.09, 0.8])
    got = _segment_average(LogSingular((-1.0, 2.0)), x, r,
                           np.geomspace(1e-6, 2.0 * r, 48, axis=1))
    want = [oracles.log_abs_integral(a, a + b, (-1.0, 2.0)) / b
            for a, b in zip(x, r)]
    np.testing.assert_allclose(got, want, rtol=1e-9)


@pytest.mark.parametrize("u, x, r", [
    (counterexample_field(), [-50.0, -3.0, 0.5, 1.0, -7.0],
     [49.0, 5.0, 1.0, 8.0, 47.0]),
    (Tent(), [-3.0, 1.0, -0.5, 2.0, -1.5], [2.0, 3.0, 0.75, 0.5, 3.0]),
])
def test_interval_average_skips_intervals_off_the_support(u, x, r,
                                                          monkeypatch):
    x, r = np.array(x), np.array(r)
    s_lo, s_hi = u.support_interval()
    off = (x + r <= s_lo) | (x >= s_hi)
    assert off.sum() == 3
    seen, eval_ = [], u.eval
    monkeypatch.setattr(u, "eval",
                        lambda p: seen.append(np.ravel(p)) or eval_(p))
    got = _segment_average(u, x, r)
    assert np.all(got[off] == 0.0)
    # every node serves a segment that meets the support, and those that
    # miss it alone take none
    nodes = np.concatenate(seen)
    assert np.all(np.any((x[~off, None] < nodes) &
                         (nodes < (x + r)[~off, None]), axis=0))
    seen.clear()
    assert np.all(_segment_average(u, x[off], r[off]) == 0.0)
    assert sum(p.size for p in seen) == 0


def test_interval_average_skip_gives_the_floats_of_the_quadrature(
        monkeypatch):
    # the same segments averaged with the support taken as the whole
    # line: the skipped ones integrate zeros, the others take the same
    # cells
    x = np.array([-50.0, -3.0, 0.5, 1.0, -7.0, -3.0, 1.0, -0.5, 2.0])
    r = np.array([49.0, 5.0, 1.0, 8.0, 47.0, 2.0, 3.0, 0.75, 0.5])
    for u in (counterexample_field(), Tent()):
        got = _segment_average(u, x, r)
        monkeypatch.setattr(u, "support_interval",
                            lambda: (-np.inf, np.inf))
        assert list(got) == list(_segment_average(u, x, r))


def test_counterexample_modular_matches_truncated_closed_form():
    # the integral of x^(-4/3) over [2, R], R the certified truncation
    # radius; the certified tail 3 R^(-1/3) beyond it is what is left out
    res = modular(counterexample_field(), counterexample_exponent())
    R = res.truncation_radius
    exact = 3.0 * (2.0 ** (-1.0 / 3.0) - R ** (-1.0 / 3.0))
    assert res.value == pytest.approx(exact, rel=1e-10)
    assert res.error_estimate >= abs(res.value - 3.0 * 2.0 ** (-1.0 / 3.0))
    # a count, not a wall time, pins the cost
    assert res.node_count < 10 ** 4


def test_maximal_rejects_bad_radius_and_points():
    for r_max in (0.0, -2.0, 1e-7, np.inf):
        with pytest.raises(DomainError, match="r_max"):
            directional_maximal(Gaussian(), 0.0, 1.0, r_max)
    with pytest.raises(DomainError, match="finite"):
        hl_maximal(Gaussian(), [0.0, np.nan], 3.0)


def test_counterexample_modular_u_value():
    # integral of x^{-4/3} from 2 to infinity is 3 * 2^{-1/3}, by hand
    u = counterexample_field()
    p = counterexample_exponent()
    val = modular(u, p).value
    assert val == pytest.approx(3.0 * 2.0 ** (-1.0 / 3.0), abs=1e-6)


def test_counterexample_growth_smoke():
    table = counterexample_experiment([10.0, 100.0])
    assert table.modular_u == pytest.approx(3.0 * 2.0 ** (-1.0 / 3.0),
                                            abs=1e-6)
    assert table.modular_mu[0] > 0.0
    assert table.modular_mu[1] > table.modular_mu[0]


def test_counterexample_rejects_small_r():
    with pytest.raises(DomainError):
        counterexample_experiment([2.0, 5.0])


def test_bmo_constant_is_zero():
    u = SampledTable([-5.0, 5.0], [4.0, 4.0])
    res = bmo_quantity(u, (-4.0, 4.0), [(0.0, 1.0), (1.0, 2.0)])
    assert res.per_ball == (0.0, 0.0)
    assert res.sup == 0.0


def test_bmo_linear_third():
    # double average of |x - y| over a ball of radius 1/2 centered at 1/2:
    # (1/|B|^2) int int |x-y| = (2r)/3 = 1/3 for u(x) = x on (0, 1)
    u = SampledTable([-1.0, 2.0], [-1.0, 2.0])
    res = bmo_quantity(u, (-1.0, 2.0), [(0.5, 0.5)])
    assert res.per_ball[0] == pytest.approx(1.0 / 3.0, abs=1e-9)


def test_bmo_log_dyadic_uniform():
    u = LogSingular((0.0, 1.0))
    balls = [(1.5 * 2.0 ** (-k), 0.5 * 2.0 ** (-k)) for k in range(1, 11)]
    res = bmo_quantity(u, (0.0, 1.0), balls)
    vals = np.asarray(res.per_ball)
    # log is scale invariant: the normalized oscillation repeats exactly
    assert vals.max() / vals.min() <= 3.0
    assert vals.max() / vals.min() == pytest.approx(1.0, rel=1e-7)


def test_bmo_rejects_ball_outside():
    u = SampledTable([-5.0, 5.0], [1.0, 1.0])
    with pytest.raises(DomainError):
        bmo_quantity(u, (0.0, 1.0), [(0.9, 0.5)])
