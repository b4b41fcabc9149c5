import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from vexs import (DomainError, PairExponentField, constant,
                  inverse_quadratic, log_holder_diagnose, piecewise_table,
                  sin_squared)


def test_constant_eval_anywhere():
    p = constant(2.0)
    assert p.eval(3.7) == 2.0
    assert p.eval(np.array([-5.0, 0.0, 11.0])).tolist() == [2.0, 2.0, 2.0]


def test_inverse_quadratic_values():
    p = inverse_quadratic(2.0, 1.0)
    assert p.eval(0.0) == 3.0
    assert p.eval(1.0) == 2.5
    assert p.p_minus == 2.0 and p.p_plus == 3.0 and p.p_infinity == 2.0


def test_sin_squared_bounds():
    p = sin_squared(1.5, 0.5, [1.0])
    xs = np.linspace(-30, 30, 2001)
    vals = p.eval(xs)
    assert np.all(vals >= p.p_minus) and np.all(vals <= p.p_plus)
    assert math.isclose(float(vals.max()), 2.0, rel_tol=1e-3)


def test_analytic_extrema_match_samples():
    fieldlist = [
        inverse_quadratic(2.0, 1.0),
        inverse_quadratic(3.0, -0.5),
        sin_squared(1.2, 0.7, [0.9]),
        piecewise_table([-1.0, 1.0], [2.0, 3.0, 2.5]),
        piecewise_table([-2.0, 2.0], [2.0, 4.0], interp="linear"),
    ]
    xs = np.linspace(-50, 50, 20001)
    for p in fieldlist:
        vals = p.eval(xs)
        # sampled extrema stay inside the certified analytic ones
        assert vals.min() >= p.p_minus - 1e-12
        assert vals.max() <= p.p_plus + 1e-12
        # and the certified ones are attained (or approached) on the sample
        assert vals.min() <= p.p_minus + 0.2
        assert vals.max() >= p.p_plus - 0.2


def test_p_minus_below_one_rejected():
    with pytest.raises(DomainError):
        inverse_quadratic(0.5, 0.2)


def test_non_finite_point_rejected():
    with pytest.raises(DomainError):
        constant(2.0).eval(np.array([np.nan]))


def test_pair_exponent_symmetric(rng):
    p = PairExponentField(inverse_quadratic(2.0, 1.0))
    xs = rng.uniform(-5, 5, size=50)
    ys = rng.uniform(-5, 5, size=50)
    a = p.eval_pair(xs, ys)
    b = p.eval_pair(ys, xs)
    np.testing.assert_allclose(a, b, rtol=0, atol=0)
    assert np.all(a >= p.p_minus) and np.all(a <= p.p_plus)


@settings(max_examples=50, deadline=None)
@given(st.floats(-100, 100), st.floats(1.0, 4.0), st.floats(0.0, 3.0))
def test_eval_within_bounds_property(x, a, b):
    p = inverse_quadratic(a, b)
    v = float(p.eval(x))
    assert p.p_minus <= v <= p.p_plus


def test_log_holder_constant_field_zero(rng):
    p = constant(3.0)
    pairs = rng.uniform(-10, 10, size=(100, 2))
    d = log_holder_diagnose(p, pairs)
    assert d.c_holder_estimate == 0.0
    assert d.satisfied


def test_log_holder_matches_dense_grid_maximum():
    # oracle: direct maximization of the defining ratio over a dense
    # deterministic pair grid, written out longhand
    p = inverse_quadratic(2.0, 1.0)
    g = np.linspace(-10.0, 10.0, 121)
    ref = 0.0
    for x in g:
        for y in g:
            if x == y:
                continue
            ratio = abs(1.0 / (2.0 + 1.0 / (1.0 + x * x))
                        - 1.0 / (2.0 + 1.0 / (1.0 + y * y))) \
                * math.log(math.e + 1.0 / abs(x - y))
            ref = max(ref, ratio)
    pairs = np.array([[x, y] for x in g for y in g])
    d = log_holder_diagnose(p, pairs.reshape(-1, 2))
    assert d.satisfied
    assert math.isclose(d.c_holder_estimate, ref, rel_tol=1e-12)


def test_log_holder_random_sample_finite(rng):
    p = inverse_quadratic(2.0, 1.0)
    pairs = rng.uniform(-10, 10, size=(1000, 2))
    d = log_holder_diagnose(p, pairs)
    assert d.satisfied and math.isfinite(d.c_holder_estimate)
    assert d.c_decay_estimate is not None and math.isfinite(d.c_decay_estimate)


def test_log_holder_jump_table_flags_large_constant():
    p = piecewise_table([0.0], [2.0, 4.0])
    gap = 1e-6
    pairs = np.array([[-gap / 2, gap / 2]])
    d = log_holder_diagnose(p, pairs)
    expected_floor = abs(1.0 / 2.0 - 1.0 / 4.0) * math.log(math.e + 1e6)
    assert d.c_holder_estimate >= expected_floor - 1e-9


def test_log_holder_monotone_in_sample(rng):
    p = inverse_quadratic(2.0, 1.0)
    pairs = rng.uniform(-10, 10, size=(500, 2))
    small = log_holder_diagnose(p, pairs[:100])
    big = log_holder_diagnose(p, pairs)
    assert big.c_holder_estimate >= small.c_holder_estimate


def test_log_holder_skips_coincident_pairs():
    p = inverse_quadratic(2.0, 1.0)
    pairs = np.array([[1.0, 1.0], [0.0, 2.0]])
    d = log_holder_diagnose(p, pairs)
    assert math.isfinite(d.c_holder_estimate)


def test_piecewise_table_range_min_one_sided():
    p = piecewise_table([-2.0, 2.0], [2.0, 4.0], interp="linear")
    assert p.p_range_min(3.0, math.inf) == 4.0
    assert p.p_range_min(0.5, math.inf) == 3.25
    assert p.p_range_min(-math.inf, -3.0) == 2.0
    q = piecewise_table([0.0], [4.0, 3.0])
    assert q.p_range_min(1.0, math.inf) == 3.0
    assert q.p_range_min(-math.inf, -1.0) == 4.0
