import math
import time

import numpy as np
import pytest

import oracles
from vexs import (DivergenceError, DomainError, Gaussian, PairExponentField,
                  PowerTail, QuadratureSpec, SampledTable, SmoothBump, Tent,
                  constant, frac_seminorm, inverse_quadratic, luxemburg_norm,
                  modular, norm_modular_inequality_check, w_norm)


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
    # the log-space solve sees no scale: one Newton step at constant p
    res = luxemburg_norm(Tent(scale=c), constant(2.0))
    assert res.value == pytest.approx(c * math.sqrt(2.0 / 3.0), rel=1e-9,
                                      abs=0.0)
    assert res.iterations <= 60


@pytest.mark.parametrize("c", [1e-290, 1e-200, 1e-155, 1e-12, 1.0, 1e12,
                               1e100])
def test_luxemburg_tent_at_any_scale(c):
    # |u|^p and lambda^-p leave float range here; their logs do not
    res = luxemburg_norm(Tent(scale=c), constant(2.0))
    assert res.value == pytest.approx(c * math.sqrt(2.0 / 3.0), rel=1e-12,
                                      abs=0.0)
    assert res.iterations == 1


def test_luxemburg_tent_beyond_float_range_fails_fast():
    # |u|^2 overflows at lambda = 1: a named error at once, not a loop
    # of splits up to the panel cap
    start = time.perf_counter()
    try:
        res = luxemburg_norm(Tent(scale=1e300), constant(2.0))
        assert res.value == pytest.approx(1e300 * math.sqrt(2.0 / 3.0),
                                          rel=1e-12)
    except DivergenceError:
        pass
    assert time.perf_counter() - start < 1.0


@pytest.mark.parametrize("c", [1e-12, 1e-6, 1e-3, 1.0, 1e100])
def test_luxemburg_gaussian_at_any_scale(c):
    # the check modular is truncated for u/lambda, so a small Gaussian
    # keeps the tail that the radius at lambda = 1 cut off
    res = luxemburg_norm(Gaussian(scale=c), constant(2.0))
    assert res.value == pytest.approx((math.pi / 2) ** 0.25 * c, rel=1e-9,
                                      abs=0.0)


def test_newton_lambda_solve(monkeypatch):
    from vexs import spaces

    # constant e: the start of the iteration is the root
    lam, steps = spaces._solve_lambda(np.log([0.3, 0.5, 0.9]),
                                      np.full(3, 2.0))
    assert steps == 1
    assert lam == pytest.approx(math.sqrt(1.7), rel=1e-14)

    # variable e: the iterates tau = log lambda rise to the root
    taus, multiply = [], np.multiply

    def spy(a, b, out=None):
        if isinstance(b, float):  # the -tau of each evaluation
            taus.append(-b)
        return multiply(a, b, out=out)
    monkeypatch.setattr(np, "multiply", spy)
    ell, e = np.log([1e-8, 2.0, 1e6]), np.array([1.5, 2.0, 6.0])
    lam, steps = spaces._solve_lambda(ell, e)
    monkeypatch.undo()
    assert steps == 3 and taus[0] == 0.0 and len(taus) == steps + 1
    assert all(a < b for a, b in zip(taus[1:], taus[2:]))
    assert taus[-1] < math.log(lam)
    assert np.sum(np.exp(ell) * lam ** -e) == pytest.approx(1.0, rel=1e-14)


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
    # every check modular misses by 1: the solve on the check's own nodes
    # is tried once, and its check misses again
    from dataclasses import replace

    from vexs import spaces
    real, lams = spaces._modular, []

    def missing(u, p, weight, lam, quad):
        res = real(u, p, weight, lam, quad)
        if lam == 1.0:
            return res
        lams.append(lam)
        return replace(res, value=2.0)
    monkeypatch.setattr(spaces, "_modular", missing)
    with pytest.raises(DivergenceError, match=r"lambda = 1\.1.*rho - 1\| = 1 "):
        luxemburg_norm(Gaussian(), constant(2.0))
    assert len(lams) == 2
    assert lams[1] == pytest.approx((math.pi / 2) ** 0.25, rel=1e-9)


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


def test_frac_seminorm_radial_takes_one_direction():
    # u(x) - u(x + h omega) at (x, omega) is the one at (-x, -omega): one
    # direction of twice the weight gives the two-direction sum
    pair = PairExponentField(constant(2.0))
    res = frac_seminorm(Tent(), 0.5, pair)
    plain = Tent()
    plain.radial = False
    both = frac_seminorm(plain, 0.5, pair)
    assert res.node_count == 410250
    assert both.node_count == 819060
    assert res.value == pytest.approx(both.value, rel=1e-13)


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


@pytest.mark.parametrize("n_u, n_p", [(2, 1), (1, 2)])
@pytest.mark.parametrize("call", [
    lambda u, p: modular(u, p),
    lambda u, p: luxemburg_norm(u, p),
    lambda u, p: norm_modular_inequality_check(u, p),
    lambda u, p: frac_seminorm(u, 0.5, PairExponentField(p)),
    lambda u, p: w_norm(u, 0.5, PairExponentField(p), p),
], ids=["modular", "luxemburg_norm", "norm_modular_inequality_check",
        "frac_seminorm", "w_norm"])
def test_mismatched_dimensions_are_a_domain_error(call, n_u, n_p):
    # the exponent's dimension (a pair exponent's base's) must be the
    # field's; a mismatch is refused by name, not by a failed broadcast
    with pytest.raises(DomainError, match=f"the field is {n_u}D but the "
                                          f"exponent is {n_p}D"):
        call(Gaussian(dimension=n_u), constant(2.0, dimension=n_p))
