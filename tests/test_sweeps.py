import math

import numpy as np
import pytest

from vexs import (DomainError, Gaussian, Tent, constant, fit_offset_power,
                  fit_power_limit, inverse_quadratic, run_sweep,
                  sup_over_grid)


def test_fit_recovers_exact_power_law():
    ts = [0.2, 0.1, 0.05]
    for v0, c, beta in ((2.0, 0.7, 1.0), (-1.0, 3.0, 0.5), (5.0, -0.4, 2.0)):
        vs = [v0 + c * t ** beta for t in ts]
        got_v0, got_beta, flagged = fit_power_limit(ts, vs)
        assert not flagged
        assert got_beta == pytest.approx(beta, rel=1e-6)
        assert got_v0 == pytest.approx(v0, rel=1e-8, abs=1e-8)


def test_fit_uses_last_three_of_longer_grid():
    ts = [0.4, 0.2, 0.1, 0.05]
    vs = [99.0] + [1.0 + 0.5 * t for t in ts[1:]]  # first point is garbage
    v0, beta, flagged = fit_power_limit(ts, vs)
    assert not flagged
    assert v0 == pytest.approx(1.0, abs=1e-10)
    assert beta == pytest.approx(1.0, rel=1e-6)


def test_fit_flags_non_monotone_residuals():
    ts = [0.2, 0.1, 0.05]
    vs = [2.1, 1.9, 1.95]  # sign-changing differences
    v0, beta, flagged = fit_power_limit(ts, vs)
    assert flagged
    assert v0 == 1.95
    assert math.isnan(beta)


def test_offset_power_fit_recovers_model():
    ts = np.array([10.0, 100.0, 1000.0, 10000.0])
    vs = -0.6 + 0.35 * ts ** (1.0 / 3.0)
    gamma, c0, a = fit_offset_power(ts, vs)
    assert type(gamma) is float
    assert gamma == pytest.approx(1.0 / 3.0, abs=1e-4)
    assert c0 == pytest.approx(-0.6, abs=1e-3)
    assert a == pytest.approx(0.35, rel=1e-3)


def test_run_sweep_requires_three_points():
    with pytest.raises(DomainError):
        run_sweep("bbm", Tent(), constant(2.0), [0.7, 0.8])


def test_run_sweep_validates_grid_direction():
    with pytest.raises(DomainError):
        run_sweep("nguyen-unit", Tent(), constant(2.0), [0.1, 0.2, 0.4])
    with pytest.raises(DomainError):
        run_sweep("bbm", Tent(), constant(2.0), [0.9, 0.8, 0.7])


def test_bbm_sweep_rejects_variable_exponent():
    with pytest.raises(DomainError):
        run_sweep("bbm", Tent(), inverse_quadratic(2.0, 1.0),
                  [0.7, 0.8, 0.9])


def test_zero_function_sweep_conventions(fast_quad):
    rep = run_sweep("nguyen-unit", Gaussian(scale=0.0), constant(2.0),
                    [0.2, 0.1, 0.05], fast_quad)
    assert rep.target == 0.0
    assert all(v.value == 0.0 for v in rep.values)
    assert rep.deviations == (0.0, 0.0, 0.0)   # absolute when target is 0
    assert sup_over_grid(rep) == 0.0
    assert math.isfinite(rep.extrapolated)


def test_tent_nguyen_sweep_trends(fast_quad):
    rep = run_sweep("nguyen-unit", Tent(), constant(2.0),
                    [0.2, 0.1, 0.05, 0.025], fast_quad)
    assert rep.parameter_name == "delta"
    assert rep.target == pytest.approx(2.0, rel=1e-6)
    assert rep.deviations[-1] < rep.deviations[0]
    assert sup_over_grid(rep) <= 2.0 * rep.target
    # sanity corridor: the extrapolation lands between the last value and
    # the target, up to half their gap
    if not rep.fit_flagged:
        last = rep.values[-1].value
        gap = abs(last - rep.target)
        lo = min(last, rep.target) - 0.5 * gap - 1e-12
        hi = max(last, rep.target) + 0.5 * gap + 1e-12
        assert lo <= rep.extrapolated <= hi


def test_weighted_equals_twice_unit_for_constant_p(fast_quad):
    u, p = Gaussian(), constant(2.0)
    grid = [0.2, 0.1, 0.05]
    unit = run_sweep("nguyen-unit", u, p, grid, fast_quad)
    weighted = run_sweep("nguyen-weighted", u, p, grid, fast_quad)
    for a, b in zip(unit.values, weighted.values):
        assert abs(b.value - 2.0 * a.value) <= 1e-10 * max(1.0, b.value)
    assert weighted.target == pytest.approx(2.0 * unit.target, rel=1e-14)


def test_sweep_report_serializes(fast_quad):
    rep = run_sweep("bbm", Tent(), constant(2.0), [0.7, 0.8, 0.9], fast_quad)
    d = rep.as_dict()
    assert d["parameter_name"] == "s"
    assert len(d["values"]) == 3
    assert isinstance(d["target"], float)

