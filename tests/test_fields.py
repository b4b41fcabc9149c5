import math

import numpy as np
import pytest

from vexs import (DivergenceError, DomainError, Gaussian, GradientMagnitude,
                  LogSingular, PowerTail, SampledTable, SmoothBump, Tent,
                  UnsupportedFieldError, constant, counterexample_exponent,
                  truncation_radius)

ALL_SMOOTH = [Gaussian(), Gaussian(sigma=0.7, center=1.5, scale=2.0),
              SmoothBump(), PowerTail()]


def test_tent_values():
    u = Tent()
    assert u.eval(0.0) == 1.0
    assert u.eval(0.5) == 0.5
    assert u.eval(np.array([1.0, 2.0, -3.0])).tolist() == [0.0, 0.0, 0.0]


def test_power_tail_value_at_edge():
    u = PowerTail()
    assert u.eval(2.0) == pytest.approx(2.0 ** (-1.0 / 3.0), rel=1e-15)
    assert u.eval(1.999999) == 0.0


def test_gaussian_gradient_values():
    u = Gaussian()
    assert u.grad(0.0)[0] == 0.0
    # d/dx exp(-x^2) at 1 is -2 e^{-1}, by hand
    assert u.grad(1.0)[0] == pytest.approx(-2.0 * math.exp(-1.0), rel=1e-14)


def test_tent_gradient_slope_and_conventions():
    u = Tent()
    assert u.grad(0.5)[0] == -1.0
    assert u.grad(-0.5)[0] == 1.0
    # measure-zero conventions: interior branch at the edge, unit slope apex
    assert abs(u.grad(1.0)[0]) == 1.0
    assert abs(u.grad(0.0)[0]) == 1.0


@pytest.mark.parametrize("u", ALL_SMOOTH, ids=lambda u: u.family)
def test_analytic_gradient_matches_finite_differences(u, rng):
    pts = rng.uniform(-4.0, 4.0, size=100)
    if u.family == "power-tail":
        pts = rng.uniform(2.5, 8.0, size=100)
    if u.family == "smooth-bump":
        pts = rng.uniform(-0.9, 0.9, size=100)
    keep = np.ones(pts.size, dtype=bool)
    for k in u.kink_points():
        keep &= np.abs(pts - k) > 1e-3
    pts = pts[keep]
    h = 1e-5 * np.maximum(1.0, np.abs(pts))
    fd = (u.eval(pts + h) - u.eval(pts - h)) / (2 * h)
    an = u.grad(pts)[:, 0]
    scale = np.maximum(np.abs(an), 1e-8)
    assert np.max(np.abs(fd - an) / scale) < 1e-6


@pytest.mark.parametrize("u", [Gaussian(), Tent()], ids=lambda u: u.family)
def test_lipschitz_bound_on_random_pairs(u, rng):
    xs = rng.uniform(-3, 3, size=1000)
    ys = rng.uniform(-3, 3, size=1000)
    lhs = np.abs(u.eval(xs) - u.eval(ys))
    assert np.all(lhs <= u.lipschitz_bound * np.abs(xs - ys) + 1e-14)


@pytest.mark.parametrize("u", [Gaussian(), Tent(), SmoothBump(), PowerTail()],
                         ids=lambda u: u.family)
def test_tail_bound_dominates_samples(u, rng):
    for R in (1.0, 2.5, 5.0):
        bound = u.tail_bound(R)
        xs = np.concatenate([rng.uniform(R, R + 10, 200),
                             -rng.uniform(R, R + 10, 200)])
        assert np.max(np.abs(u.eval(xs))) <= bound + 1e-14


def test_compact_support_vanishes_outside():
    for u in (Tent(), SmoothBump()):
        xs = np.linspace(1.0, 8.0, 100)
        assert np.all(u.eval(xs) == 0.0)
        assert np.all(u.eval(-xs) == 0.0)


def test_truncation_radius_gaussian():
    u, p = Gaussian(), constant(2.0)
    R = truncation_radius(u, p, 1e-10)
    assert 3.0 < R < 10.0
    # the analytic tail of exp(-2 x^2) beyond R stays under the tolerance:
    # 2 * integral_R^inf e^{-2t^2} dt <= e^{-2R^2}/R
    assert math.exp(-2.0 * R * R) / R < 1e-10


def test_truncation_radius_compact_families():
    p = constant(2.0)
    assert truncation_radius(Tent(), p, 1e-12) == 1.0
    assert truncation_radius(SmoothBump(), p, 1e-12) == 1.0


def test_truncation_power_tail_depends_on_exponent():
    u = PowerTail()
    # modular with p = 4 on the tail converges
    from vexs import piecewise_table
    p4 = piecewise_table([-2.0, 2.0], [2.0, 4.0], interp="linear")
    R = truncation_radius(u, p4, 1e-6)
    assert math.isfinite(R) and R > 100.0
    # with p = 2 everywhere the modular diverges
    with pytest.raises(DivergenceError):
        truncation_radius(u, constant(2.0), 1e-6)


@pytest.mark.parametrize("u, p, tol, R", [
    (Gaussian(), constant(2.0), 1e-8, 3.483124185326476),
    (Gaussian(), constant(2.0), 1e-10, 3.8171188578171655),
    (PowerTail(), counterexample_exponent(), 1e-8, 9.111620539526762e+26),
    (PowerTail(), counterexample_exponent(), 1e-10, 9.11162053952679e+32),
    (PowerTail(), constant(6.0), 1e-8, 400000000.00000083),
    (PowerTail(), constant(6.0), 1e-10, 40000000000.00011),
])
def test_truncation_radius_pinned(u, p, tol, R):
    # R recorded before the tail certificate stopped summing past tol:
    # its terms are nonnegative, so no bisection step can change
    assert truncation_radius(u, p, tol) == R


def test_truncation_unsupported_for_log_singular():
    with pytest.raises(UnsupportedFieldError):
        truncation_radius(LogSingular((0.0, 1.0)), constant(2.0), 1e-6)


def test_log_singular_domain_error_at_zero():
    u = LogSingular((0.0, 1.0))
    with pytest.raises(DomainError):
        u.eval(0.0)
    assert u.eval(0.5) == pytest.approx(math.log(0.5))


def test_sampled_table_interp_and_gradient(tmp_path):
    xs = np.array([0.0, 1.0])
    us = np.array([2.0, 2.0])
    u = SampledTable(xs, us)
    assert u.eval(0.25) == 2.0
    assert u.eval(1.5) == 0.0
    assert u.grad(0.5)[0] == 0.0

    csv = tmp_path / "table.csv"
    csv.write_text("0.0,0.0\n0.5,1.0\n1.0,0.0\n")
    v = SampledTable.from_csv(csv)
    assert v.eval(0.25) == pytest.approx(0.5)
    assert v.grad(0.25)[0] == pytest.approx(2.0)
    assert v.grad(0.75)[0] == pytest.approx(-2.0)


def test_smooth_bump_lipschitz_bound_is_the_closed_form_sup():
    # |u'| = 2r e^{-1/(1-r^2)} / (1-r^2)^2 peaks at r = 3^{-1/4}
    r = 3.0 ** -0.25
    peak = 2.0 * r * math.exp(-1.0 / (1.0 - r * r)) / (1.0 - r * r) ** 2
    u = SmoothBump(scale=2.5)
    assert u.lipschitz_bound == pytest.approx(2.5 * peak, rel=1e-15)
    slope = np.abs(u.grad(np.linspace(0.0, 1.0, 200001)[1:-1])[:, 0])
    assert np.max(slope) <= u.lipschitz_bound
    assert np.max(slope) >= u.lipschitz_bound * (1.0 - 1e-9)


def test_gradient_magnitude_gradient_by_central_differences():
    # d/dx |2x e^{-x^2}| = sign(x) 2 e^{-x^2} (1 - 2x^2) away from the kink
    x = np.linspace(-3.0, 3.0, 61)
    x = x[x != 0.0]
    got = GradientMagnitude(Gaussian()).grad(x)[:, 0]
    want = np.sign(x) * 2.0 * np.exp(-x * x) * (1.0 - 2.0 * x * x)
    np.testing.assert_allclose(got, want, rtol=0.0, atol=1e-9)


def test_sampled_table_rejects_unsorted():
    with pytest.raises(DomainError):
        SampledTable([0.0, 0.0, 1.0], [1.0, 2.0, 3.0])


def test_scale_parameter_scales_everything():
    u = Gaussian(scale=2.0)
    assert u.eval(0.0) == 2.0
    assert u.sup_bound == 2.0
    assert u.lipschitz_bound == pytest.approx(2.0 * math.sqrt(2.0 / math.e))


@pytest.mark.parametrize("u, eta", [(Gaussian(), 1e-7), (Gaussian(), 1e-3),
                                    (PowerTail(), 1e-4)])
def test_far_radius_bisection_stops_on_adjacent_floats(u, eta, monkeypatch):
    calls = []
    bound = u.tail_bound
    monkeypatch.setattr(u, "tail_bound",
                        lambda r: calls.append(r) or bound(r))
    R = u.far_radius(eta)
    doubling = 0
    while calls[doubling] == 2.0 ** (doubling + 1):
        doubling += 1
    # the bracket stops moving after 52-53 of the 80 allowed steps
    assert len(calls) - doubling <= 60
    assert bound(R) <= eta


def test_far_radius_is_inverse_of_tail_bound():
    u = Gaussian()
    for eta in (1e-2, 1e-6, 1e-10):
        R = u.far_radius(eta)
        assert u.tail_bound(R) <= eta
        assert u.tail_bound(0.9 * R) > eta
