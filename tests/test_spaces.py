import math

import numpy as np
import pytest

import oracles
from vexs import (DivergenceError, Gaussian, PairExponentField, PowerTail,
                  QuadratureSpec, SampledTable, SmoothBump, Tent, constant,
                  frac_seminorm, inverse_quadratic, luxemburg_norm, modular,
                  norm_modular_inequality_check, w_norm)


def table_const(value, lo=0.0, hi=1.0):
    return SampledTable([lo, hi], [value, value])


def test_modular_constant_field():
    u = table_const(2.0)
    p = constant(2.0)
    assert modular(u, p).value == pytest.approx(4.0, rel=1e-10)
    assert modular(u, p, lam=2.0).value == pytest.approx(1.0, rel=1e-10)


def test_modular_gaussian_p2():
    # integral of e^{-2x^2} equals sqrt(pi/2), by hand
    val = modular(Gaussian(), constant(2.0)).value
    assert val == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)


@pytest.mark.parametrize("n", [2, 3])
def test_modular_gaussian_p2_radial(n):
    # integral of e^{-2|x|^2} over R^n is (pi/2)^{n/2}
    val = modular(Gaussian(dimension=n), constant(2.0, n)).value
    assert val == pytest.approx((math.pi / 2) ** (n / 2), rel=1e-9)


def test_modular_gaussian_vs_riemann_oracle():
    ref = oracles.riemann_modular_1d(
        lambda x: np.exp(-2.5 * x * x), -10.0, 10.0)
    val = modular(Gaussian(), constant(2.5)).value
    assert val == pytest.approx(ref, rel=1e-7)


def test_modular_monotone_in_lambda():
    u, p = Gaussian(), inverse_quadratic(2.0, 1.0)
    lams = [0.5, 0.8, 1.0, 1.5, 2.5, 4.0]
    vals = [modular(u, p, lam=l).value for l in lams]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_modular_weighted():
    u = table_const(2.0)
    p = constant(2.0)
    w = table_const(3.0, -1.0, 1.0)   # positive on the whole domain
    assert modular(u, p, weight=w).value == pytest.approx(12.0, rel=1e-10)


def test_luxemburg_zero_function():
    z = Gaussian(scale=0.0)
    assert luxemburg_norm(z, constant(2.0)).value == 0.0


def test_luxemburg_constant_field_matches_l2():
    res = luxemburg_norm(table_const(2.0), constant(2.0))
    assert res.value == pytest.approx(2.0, rel=1e-9)
    assert res.iterations <= 60


def test_luxemburg_gaussian_p2():
    res = luxemburg_norm(Gaussian(), constant(2.0))
    assert res.value == pytest.approx((math.pi / 2) ** 0.25, rel=1e-8)
    assert abs(res.modular_at_value - 1.0) <= 1e-8


@pytest.mark.parametrize("u,p", [
    (Gaussian(), 2.0), (Gaussian(sigma=0.6), 3.0), (Gaussian(scale=2.0), 1.5),
    (Tent(), 2.0), (Tent(scale=0.5), 4.0), (Tent(), 1.2),
    (SmoothBump(), 2.0), (SmoothBump(scale=3.0), 2.5),
    (Gaussian(center=1.0), 5.0), (SmoothBump(), 1.1),
])
def test_luxemburg_equals_classical_lp(u, p):
    # classical L^p norm by independent midpoint quadrature
    ref = oracles.riemann_modular_1d(
        lambda x: np.abs(u.eval(x)) ** p, -12.0, 12.0) ** (1.0 / p)
    res = luxemburg_norm(u, constant(p))
    assert res.value == pytest.approx(ref, rel=1e-8)
    assert res.iterations <= 60


def test_luxemburg_homogeneity(rng):
    p = inverse_quadratic(2.0, 1.0)
    base = luxemburg_norm(Gaussian(), p).value
    for c in (2.0, 0.5, 3.7):
        scaled = luxemburg_norm(Gaussian(scale=c), p).value
        assert scaled == pytest.approx(c * base, rel=1e-8)


@pytest.mark.parametrize("c", [1e-3, 1e-10, 1e-12, 1e-20, 1e-50, 1e-100])
def test_luxemburg_small_norms_converge(c):
    # a norm below 1 is bracketed in [lo, 2 lo], so the bisection closes
    # it within its step cap and without the adaptive fallback
    res = luxemburg_norm(Tent(scale=c), constant(2.0))
    assert res.value == pytest.approx(c * math.sqrt(2.0 / 3.0), rel=1e-9,
                                      abs=0.0)
    assert res.iterations <= 60


def test_luxemburg_small_variable_exponent_norm_converges():
    res = luxemburg_norm(Gaussian(scale=1e-12), inverse_quadratic(2.0, 1.0))
    assert res.iterations <= 60
    assert abs(res.modular_at_value - 1.0) <= 1e-8


@pytest.mark.parametrize("n", [1, 2, 3])
def test_luxemburg_gaussian_closed_form(n):
    # ||e^{-|x|^2}||_{L^2(R^n)} = (pi/2)^{n/4}; the node count, not a
    # wall time, pins the cost
    res = luxemburg_norm(Gaussian(dimension=n), constant(2.0, n))
    assert res.value == pytest.approx((math.pi / 2) ** (n / 4), rel=1e-9)
    assert res.node_count < 10 ** 4


def test_luxemburg_divergence_for_power_tail_p2():
    with pytest.raises(DivergenceError):
        luxemburg_norm(PowerTail(), constant(2.0))


def test_luxemburg_raises_when_the_fallback_fails(monkeypatch):
    # a modular that jumps over 1 at lambda = 1.3: the node solve misses,
    # the fallback bisection closes on the jump, and its check fails
    from vexs import spaces

    def jumping(u, p, weight=None, lam=1.0, quad=None):
        return spaces.ModularValue(2.0 if lam < 1.3 else 0.5, 1.0, 1, 0.0)
    monkeypatch.setattr(spaces, "modular", jumping)
    with pytest.raises(DivergenceError, match="lambda = 1.3.*rho - 1"):
        luxemburg_norm(Gaussian(), constant(2.0))


def test_sandwich_constant_exponent_collapses():
    u, p = Gaussian(), constant(2.0)
    chk = norm_modular_inequality_check(u, p)
    assert chk.holds
    assert chk.lower == pytest.approx(chk.upper, rel=1e-14)
    assert chk.norm == pytest.approx(chk.lower, rel=1e-8)


def test_sandwich_variable_exponent():
    chk = norm_modular_inequality_check(Gaussian(), inverse_quadratic(2.0, 1.0))
    assert chk.holds
    assert chk.lower <= chk.norm <= chk.upper


def test_sandwich_zero_function():
    chk = norm_modular_inequality_check(Gaussian(scale=0.0), constant(2.0))
    assert chk.holds and chk.norm == 0.0 and chk.lower == 0.0


def test_sandwich_randomized_hundred(rng):
    makers = [
        lambda r: Gaussian(sigma=r.uniform(0.5, 2.0),
                           center=r.uniform(-1, 1),
                           scale=r.uniform(0.3, 3.0)),
        lambda r: Tent(scale=r.uniform(0.3, 3.0)),
        lambda r: SmoothBump(scale=r.uniform(0.3, 5.0)),
    ]
    exps = [
        lambda r: constant(r.uniform(1.1, 4.0)),
        lambda r: inverse_quadratic(r.uniform(1.1, 3.0), r.uniform(0.0, 2.0)),
        lambda r: inverse_quadratic(r.uniform(2.0, 4.0), -r.uniform(0.0, 0.9)),
    ]
    quad = QuadratureSpec(outer_x_tolerance=1e-7)
    for k in range(100):
        u = makers[k % 3](rng)
        p = exps[k % 3](rng)
        chk = norm_modular_inequality_check(u, p, quad=quad)
        assert chk.holds, (k, u.family, p.family)


def test_frac_seminorm_zero_function():
    pair = PairExponentField(constant(2.0))
    assert frac_seminorm(Gaussian(scale=0.0), 0.5, pair).value == 0.0


def test_frac_seminorm_tent_matches_gagliardo_oracle():
    # constant pair exponent 2, s = 1/2: the seminorm is the square root
    # of the classical Gagliardo modular (lambda scaling is exact)
    S = oracles.riemann_gagliardo(
        lambda x: np.maximum(0.0, 1.0 - np.abs(np.asarray(x, float))),
        2.0, 0.5, (-60.0, 61.0))
    ref = math.sqrt(S)
    val = frac_seminorm(Tent(), 0.5, PairExponentField(constant(2.0))).value
    assert val == pytest.approx(ref, rel=2e-3)


@pytest.mark.parametrize("s", [0.3, 0.5, 0.8])
def test_frac_seminorm_gaussian_exact(s):
    # with constant p = 2 the seminorm is the square root of the modular
    val = frac_seminorm(Gaussian(), s, PairExponentField(constant(2.0))).value
    assert val == pytest.approx(math.sqrt(oracles.gaussian_gagliardo(s)),
                                rel=1e-9)


def test_frac_seminorm_tent_independent_of_ray_grid():
    # the ray panels break at the tent's kinks, so a finer geometric ray
    # grid changes nothing the method resolves
    pair = PairExponentField(constant(2.0))
    vals = [frac_seminorm(Tent(), 0.5, pair,
                          QuadratureSpec(h_bracket_grid=g)).value
            for g in (128, 256)]
    assert vals[1] == pytest.approx(vals[0], rel=1e-9)
    assert vals[0] == pytest.approx(math.sqrt(oracles.tent_gagliardo(0.5)),
                                    rel=1e-6)


def test_frac_seminorm_variable_pair_runs():
    pair = PairExponentField(inverse_quadratic(2.0, 1.0))
    res = frac_seminorm(Gaussian(), 0.5, pair)
    assert math.isfinite(res.value) and res.value > 0.0
    assert res.iterations <= 60


def test_frac_seminorm_scaling_homogeneous():
    pair = PairExponentField(constant(2.0))
    v1 = frac_seminorm(Tent(), 0.4, pair).value
    v2 = frac_seminorm(Tent(scale=2.0), 0.4, pair).value
    assert v2 == pytest.approx(2.0 * v1, rel=1e-8)


def test_w_norm_is_sum_of_pieces():
    pair = PairExponentField(constant(2.0))
    q = constant(2.0)
    u = Tent()
    total = w_norm(u, 0.5, pair, q)
    parts = luxemburg_norm(u, q).value + frac_seminorm(u, 0.5, pair).value
    assert total == pytest.approx(parts, rel=1e-12)


def test_weighted_gradient_norm_below_eps_functional_bound():
    # the weighted Luxemburg norm of |grad u| with weight p(x) K_{n,p(x)}
    # is bounded by max over +- of (eps functional)^{1/p+-} near eps -> 0
    from vexs import GradientMagnitude, eps_functional, k_np_values

    u = Gaussian()
    p = inverse_quadratic(2.0, 1.0)

    def weight(x):
        pv = p.eval(np.asarray(x, dtype=float))
        return pv * k_np_values(1, pv)

    lhs = luxemburg_norm(GradientMagnitude(u), p, weight=weight).value
    eps = 0.05
    F = eps_functional(u, p, eps, "full").value
    rhs = max(F ** (1.0 / p.p_minus), F ** (1.0 / p.p_plus))
    assert lhs <= rhs * (1.0 + 0.05)  # eps is small, not zero: 5% headroom
