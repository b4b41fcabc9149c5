import functools
import math

import numpy as np
import pytest

import oracles
from vexs import (DomainError, Gaussian, QuadratureSpec, SampledTable,
                  SmoothBump, Tent, bbm_functional, constant, default_rule,
                  eps_functional, inverse_quadratic, layer_cake_check,
                  local_energy, modular, nguyen_functional, sin_squared)
from vexs import functionals, quadrature
from vexs.cli import lemma41_preset
from vexs.exponents import ExponentField
from vexs.functionals import (_PairSection, superlevel_chords,
                              superlevel_intervals)
from vexs.quadrature import adaptive_integrate, piece_nodes, vector_bisect


def tent_np(x):
    return np.maximum(0.0, 1.0 - np.abs(np.asarray(x, dtype=float)))


def p2_np(x):
    return np.full_like(np.asarray(x, dtype=float), 2.0)


def test_nguyen_tent_above_oscillation_is_empty():
    fv = nguyen_functional(Tent(), constant(2.0), 1.0)
    assert fv.value == 0.0
    assert fv.empty_superlevel


def test_nguyen_tent_small_delta_matches_riemann_oracle():
    # graded-separation Riemann sum over a box wide enough that the
    # neglected far pairs sit below the comparison tolerance
    ref = oracles.riemann_threshold_double(tent_np, p2_np, 0.01,
                                           (-2.4, 2.4), 2000, 2000)
    fv = nguyen_functional(Tent(), constant(2.0), 0.01)
    assert fv.value == pytest.approx(ref, rel=1e-3)


def test_nguyen_variable_exponent_matches_riemann_oracle():
    p = inverse_quadratic(2.0, 1.0)
    ref = oracles.riemann_threshold_double(
        tent_np, lambda x: 2.0 + 1.0 / (1.0 + np.asarray(x, float) ** 2),
        0.05, (-3.0, 3.0), 2000, 2000)
    fv = nguyen_functional(Tent(), p, 0.05)
    assert fv.value == pytest.approx(ref, rel=1e-3)


def test_nguyen_zero_field():
    fv = nguyen_functional(Gaussian(scale=0.0), constant(2.0), 0.1)
    assert fv.value == 0.0 and fv.empty_superlevel


def test_empty_superlevel_iff_delta_reaches_oscillation():
    # tent oscillation is exactly 1 (continuous, known sup)
    below = nguyen_functional(Tent(), constant(2.0), 0.9)
    at = nguyen_functional(Tent(), constant(2.0), 1.0)
    assert not below.empty_superlevel and below.value > 0.0
    assert at.empty_superlevel and at.value == 0.0


THRESHOLD_REFERENCES = {
    # (field, exponent, its profile and scalar exponent, kinks, the
    # profile's closed-form level radius)
    "gaussian_p2": (Gaussian(), constant(2.0), lambda r: math.exp(-r * r),
                    lambda x: 2.0, (), lambda v: math.sqrt(-math.log(v))),
    "gaussian_inverse_quadratic": (
        Gaussian(), inverse_quadratic(2.0, 1.0), lambda r: math.exp(-r * r),
        lambda x: 2.0 + 1.0 / (1.0 + x * x), (),
        lambda v: math.sqrt(-math.log(v))),
    "tent_p2": (Tent(), constant(2.0), lambda r: max(0.0, 1.0 - r),
                lambda x: 2.0, (1.0,), lambda v: 1.0 - v),
}


@functools.cache
def _threshold_reference(name, delta, closed_form=False):
    _, _, profile, p, kinks, radius = THRESHOLD_REFERENCES[name]
    return oracles.threshold_1d(profile, p, delta, kinks=kinks,
                                radius=radius if closed_form else None)


@pytest.mark.parametrize("delta", [0.2, 0.05, 0.0125])
@pytest.mark.parametrize("name", THRESHOLD_REFERENCES)
def test_threshold_reference_roots_agree_with_closed_form(name, delta):
    # the reference's brentq roots on u against the profile's closed-form
    # level radii, under the same quad
    assert _threshold_reference(name, delta) == pytest.approx(
        _threshold_reference(name, delta, True), rel=1e-13, abs=0.0)


@pytest.mark.parametrize("delta", [0.2, 0.05, 0.0125])
@pytest.mark.parametrize("name", THRESHOLD_REFERENCES)
def test_nguyen_1d_matches_exact_reference(name, delta):
    # at outer tolerances 1e-10 within rel 1e-9; at the default quad the
    # error estimate bounds the true error
    u, p = THRESHOLD_REFERENCES[name][:2]
    exact = _threshold_reference(name, delta)
    tight = QuadratureSpec(outer_x_tolerance=1e-10, rel_tol=1e-10)
    assert nguyen_functional(u, p, delta, quad=tight).value == \
        pytest.approx(exact, rel=1e-9, abs=0.0)
    _assert_exact(nguyen_functional(u, p, delta), exact, 1e-7)


def test_1d_threshold_paths_bypass_the_ray_grid(monkeypatch):
    # 1D nguyen (a profile and a table) and small-jump eps in 1D and 2D
    # take the closed-form chords: no superlevel grid and no root solve;
    # the 2D Nguyen value still brackets on the ray grid
    calls = {"superlevel_intervals": 0, "vector_bisect": 0}

    def counted(module, name):
        inner = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return inner(*args, **kwargs)
        monkeypatch.setattr(module, name, wrapper)
    counted(functionals, "superlevel_intervals")
    counted(quadrature, "vector_bisect")

    fast = QuadratureSpec(outer_x_tolerance=1e-4, rel_tol=1e-4)
    for fv in (nguyen_functional(Gaussian(center=0.3), inverse_quadratic(
                   2.0, 1.0), 0.1, quad=fast),
               nguyen_functional(NON_MONOTONE_TABLE, constant(2.0), 0.3,
                                 quad=fast),
               eps_functional(Gaussian(scale=3.0), constant(2.0), 0.25,
                              "small_jump", fast),
               eps_functional(Gaussian(scale=3.0, center=(0.5, -0.25),
                                       dimension=2),
                              inverse_quadratic(2.0, 1.0, dimension=2), 0.25,
                              "small_jump", _rule16(outer_x_tolerance=1e-2))):
        assert fv.value > 0.0
    assert calls == {"superlevel_intervals": 0, "vector_bisect": 0}
    nguyen_functional(Gaussian(dimension=2), constant(2.0, dimension=2), 0.2,
                      "unit", _rule16(h_bracket_grid=32,
                                      outer_x_tolerance=1e-2, rel_tol=1e-2))
    assert calls["superlevel_intervals"] > 0 and calls["vector_bisect"] > 0


@pytest.mark.parametrize("center, quad, want", [
    (0.0, {}, 123.52127513921542),
    ((0.5, -0.25), {"outer_x_tolerance": 1e-4, "h_bracket_grid": 64},
     121.25356211272384)])
def test_eps_small_jump_2d_values_at_16_directions(center, quad, want):
    # the closed-form exclusion of the 2D small-jump integral, centered
    # (one outer direction) and off center (the full outer rule); the
    # values the bracketed ray grid gave, to the last digit
    fv = eps_functional(Gaussian(scale=3.0, center=center, dimension=2),
                        inverse_quadratic(2.0, 1.0, dimension=2), 0.25,
                        "small_jump", _rule16(**quad))
    assert fv.value == pytest.approx(want, rel=1e-12, abs=0.0)


def test_local_energy_tent_p2():
    # |u'| = 1 on (-1, 1) and K_{1,2} = 1, so the energy is 2
    fv = local_energy(Tent(), constant(2.0))
    assert fv.value == pytest.approx(2.0, rel=1e-10)


def test_local_energy_gaussian_p2():
    # integral of 4 x^2 e^{-2x^2} is sqrt(pi/2), by hand
    fv = local_energy(Gaussian(), constant(2.0))
    assert fv.value == pytest.approx(math.sqrt(math.pi / 2), rel=1e-9)


def test_local_energy_weighted_constant_ratio_exact():
    u, p = Gaussian(), constant(2.0)
    unit = local_energy(u, p, "unit").value
    weighted = local_energy(u, p, "p_of_x").value
    assert weighted == 2.0 * unit  # bitwise: scaling by 2 is exact


def test_nguyen_weighted_constant_ratio_exact():
    u, p = Gaussian(), constant(2.0)
    unit = nguyen_functional(u, p, 0.05, "unit").value
    weighted = nguyen_functional(u, p, 0.05, "p_of_x").value
    assert weighted == pytest.approx(2.0 * unit, rel=1e-14)


def test_exact_antiderivative_matches_adaptive_quadrature(rng):
    # the closed-form inner integral against adaptive quadrature of
    # h^{-p-1} on random superlevel intervals
    for _ in range(10):
        a = rng.uniform(0.05, 1.0)
        b = a + rng.uniform(0.1, 4.0)
        p = rng.uniform(1.1, 5.0)
        closed = (a ** (-p) - b ** (-p)) / p
        res = adaptive_integrate(lambda h: h ** (-p - 1.0), a, b,
                                 rel_tol=1e-13)
        assert res.value == pytest.approx(closed, rel=1e-10)


@pytest.mark.parametrize("n, radial", [(1, False), (1, True), (2, True)])
def test_one_direction_outer_paths_give_the_row_sum_floats(n, radial):
    # a one-direction path takes its row's one product for the row sum;
    # the value is that of np.sum over the rows, panel for panel
    u, R = Gaussian(dimension=n), 4.0
    quad = QuadratureSpec(truncation_radius=R)

    def F(X):
        return np.exp(-np.sum(X * X, axis=1)) * (1.0 + np.sum(X * X, axis=1))
    got = functionals._outer_integrate(F, u, quad, R, seeds=(0.5,),
                                       radial=radial)
    if radial:
        rule = functionals._resolve_rule(quad, n)
        nodes, weights = rule.nodes[:1], np.array([np.sum(rule.weights)])
        a, seeds = 0.0, [0.5]
    else:
        nodes, weights = np.ones((1, 1)), np.ones(1)
        a, seeds = -R, [0.0, 0.5]

    def f_line(rs):
        vals = F((rs[:, None, None] * nodes[None]).reshape(-1, n))
        return np.sum(vals.reshape(rs.size, 1) * weights,
                      axis=1) * rs ** (n - 1)
    want = adaptive_integrate(f_line, a, R, rel_tol=quad.outer_x_tolerance,
                              seeds=seeds)
    assert got.value == want.value


def test_superlevel_monotone_in_delta():
    u = Gaussian()
    quad = QuadratureSpec()
    X = np.array([[0.3], [0.9], [1.7]])
    omega = np.ones_like(X)
    row1, a1, b1, _ = superlevel_intervals(u, X, omega, 0.05, quad,
                                           u.far_radius(0.05 * 1e-6))
    row2, a2, b2, _ = superlevel_intervals(u, X, omega, 0.1, quad,
                                           u.far_radius(0.1 * 1e-6))

    def member(i, h):
        mine = row1 == i
        return np.any((a1[mine] <= h) & (h <= b1[mine]))

    for i, a, b in zip(row2, a2, b2):
        for h in np.linspace(a, min(b, a + 50.0), 20):
            assert member(i, h)


def test_superlevel_respects_lipschitz_floor():
    u = Gaussian()
    quad = QuadratureSpec()
    X = np.array([[0.5]])
    _, a, _, _ = superlevel_intervals(u, X, np.ones_like(X), 0.2, quad,
                                      u.far_radius(0.2 * 1e-6))
    floor = 0.2 / u.lipschitz_bound
    assert np.all(a >= 0.99 * floor)


TENT_HAND_SOLVED = [
    (0.2, 1.0, [(0.3, math.inf)]),
    (0.2, -1.0, [(0.7, math.inf)]),
    (-0.5, 1.0, [(0.3, 0.7), (1.3, math.inf)]),
]


@pytest.mark.parametrize("x, omega, want", TENT_HAND_SOLVED)
def test_superlevel_tent_exact(x, omega, want):
    # |u(x + h w) - u(x)| > 0.3 for the unit tent, solved by hand from
    # its three linear pieces; the far jump |u(x)| > 0.3 makes the last
    # interval unbounded
    row, a, b, length = superlevel_intervals(
        Tent(), np.array([[x]]), np.array([[omega]]), 0.3, QuadratureSpec(),
        1.0)
    assert row.tolist() == [0] * len(want)
    np.testing.assert_allclose(np.column_stack([a, b]), want, rtol=0,
                               atol=1e-12)
    assert np.array_equal(length, b - a)


@pytest.mark.parametrize("x, omega, want", TENT_HAND_SOLVED)
def test_superlevel_chords_tent_exact(x, omega, want):
    row, a, b, length = superlevel_chords(Tent(), np.array([[x]]),
                                          np.array([[omega]]), 0.3)
    assert row.tolist() == [0] * len(want)
    np.testing.assert_allclose(np.column_stack([a, b]), want, rtol=0,
                               atol=1e-15)
    np.testing.assert_allclose(length, b - a, rtol=1e-15)


# (b, f): rays far out, whose roots meet the sphere where c = f b^2 is
# tiny beside b^2, so -b + root (b > 0) or -b - root (b < 0) cancels
FAR_CROSSINGS = [(3.7, 1e-12), (3.7, -5e-13), (-5.2, 3e-13), (1e6, 1e-13),
                 (-0.75, -4e-14)]


def _crossing_cases():
    """(b, c, root, near, far) of h^2 + 2 b h = c, with the roots near, far
    = -b -+ sqrt(b^2 + c) to 60 digits (None where the ray misses) and
    root the float of the exact square root, 0 at an apex or NaN on a
    miss, as callers pass it; the far rays first."""
    from decimal import Decimal
    cases = [(b, f * b * b) for b, f in FAR_CROSSINGS]
    # near-tangent and tangent rays, and rays from the center
    cases += [(2.0, -4.0 + 1e-9), (-2.0, -4.0 + 4e-12), (0.75, -0.5625),
              (0.0, 2.0), (0.0, 0.3)]
    out = []
    for b, c in cases:
        root = (Decimal(b) * Decimal(b) + Decimal(c)).sqrt()
        out.append((b, c, float(root), -Decimal(b) - root,
                    -Decimal(b) + root))
    out.append((1.0, -2.0, math.nan, None, None))  # a miss
    # apex: a ray through the origin at radius 0, as ray_t_nodes passes
    # it (b = x . w, c = -|x|^2, the rounded disc set to 0): both roots
    # are -b, whatever the rounding of c
    for x in ([0.3, -0.4], [0.7, 0.2], [0.123, 0.456]):
        x = np.array(x)
        for w in (x, -x):
            w = w / np.linalg.norm(w)
            b, x2 = float(np.vecdot(x, w)), float(np.vecdot(x, x))
            out.append((b, -x2, 0.0, -Decimal(b), -Decimal(b)))
    return out


def test_sphere_crossings_within_4_ulp_of_exact_roots():
    from decimal import Decimal, localcontext

    def ulps(got, exact):
        return float(abs(Decimal(float(got)) - exact)
                     / Decimal(float(np.spacing(abs(float(exact))))))

    with localcontext(prec=60):
        cases = _crossing_cases()
        b, c, root = (np.array(v) for v in list(zip(*cases))[:3])
        with np.errstate(invalid="ignore"):
            near, far = functionals._sphere_crossings(b, c, root)
        naive = []
        for k, (*_, want_near, want_far) in enumerate(cases):
            if want_near is None:
                assert math.isnan(near[k]) and math.isnan(far[k])
                continue
            assert ulps(near[k], want_near) <= 4.0, (k, near[k], want_near)
            assert ulps(far[k], want_far) <= 4.0, (k, far[k], want_far)
            # a root of 0 is one crossing, so one break in ray_t_nodes
            assert root[k] != 0.0 or near[k] == far[k] == -b[k]
            naive.append(max(ulps(-b[k] - root[k], want_near),
                             ulps(-b[k] + root[k], want_far)))
    # the naive roots lose most of their digits on every far ray
    assert min(naive[:len(FAR_CROSSINGS)]) > 1e6


def _superlevel_by_brentq(u, x, w, delta, anchors):
    """Reference: the superlevel intervals of the ray x + h w (h > 0) by
    scipy brentq on |u(x + h w) - u(x)| - delta, between the sign changes
    of samples at h = 0.01, ..., 60 and at the ray parameters `anchors`
    of u's extrema along the ray, so that every interval holds a
    sample.  A set still above delta at h = 60, where u is 0 to the last
    float, runs to infinity."""
    from scipy.optimize import brentq
    u_x = float(u.eval(x[None, :])[0])

    def g(h):
        pts = x + np.multiply.outer(h, w)
        return np.abs(u.eval(pts) - u_x) - delta

    hs = np.unique(np.concatenate([np.linspace(0.0, 60.0, 6001)[1:],
                                   [h for h in anchors if h > 0.0]]))
    pos = g(hs) > 0.0
    assert not pos[0]  # h = 0.01 lies below delta / Lip in every case
    out, start = [], None
    for k in np.nonzero(pos[1:] != pos[:-1])[0] + 1:
        root = brentq(lambda h: float(g(np.array([h]))[0]), hs[k - 1], hs[k],
                      xtol=1e-300, rtol=4.0 * np.finfo(float).eps)
        if start is None:
            start = root
        else:
            out.append((start, root))
            start = None
    if start is not None:
        out.append((start, math.inf))
    return out


def _profile_anchors(u, x, w):
    # along the ray, a profile of |y - c| peaks where y comes closest to c
    return [float(np.dot(u.center - x, w))]


NON_MONOTONE_TABLE = SampledTable([-2.0, -1.0, 0.0, 0.5, 1.0, 3.0],
                                  [0.0, 1.0, -0.5, 0.8, 0.2, 0.0])
CHORD_FIELDS = {
    "gaussian_negative_off_center": (Gaussian(center=0.4, scale=-1.5), 0.4),
    "tent": (Tent(), 0.0),
    "smooth_bump": (SmoothBump(scale=3.0), 0.0),
    "table": (NON_MONOTONE_TABLE, None),
}


@pytest.mark.parametrize("delta_frac", [0.05, 0.3, 0.8])
@pytest.mark.parametrize("name", CHORD_FIELDS)
def test_superlevel_chords_match_brentq_on_u(name, delta_frac):
    # seeded rays both ways, plus a point at the peak (or the table's
    # knots), points outside the support, and points whose upper set is
    # empty (delta >= sup - |u(x)|)
    u, center = CHORD_FIELDS[name]
    delta = delta_frac * u.osc_bound
    rng = np.random.default_rng(16)
    special = [2.5, -1.7] + (list(u.xs) if center is None else [center])
    X = np.concatenate([rng.uniform(-2.2, 2.2, 10), special])[:, None]
    for w in (1.0, -1.0):
        row, a, b, length = superlevel_chords(u, X, np.full_like(X, w),
                                              delta)
        np.testing.assert_allclose(length, b - a, rtol=1e-12)
        for i, x in enumerate(X):
            anchors = ((u.xs - x[0]) * w if center is None else
                       _profile_anchors(u, x, np.array([w])))
            want = _superlevel_by_brentq(u, x, np.array([w]), delta, anchors)
            got = list(zip(a[row == i], b[row == i]))
            assert len(got) == len(want), (x, w, got, want)
            np.testing.assert_allclose(np.array(got).reshape(-1, 2),
                                       np.array(want).reshape(-1, 2),
                                       rtol=1e-12, atol=1e-14)
    assert np.all(np.diff(row) >= 0)


def test_superlevel_chords_in_two_dimensions_match_brentq_on_u():
    # the chord and outer-ball ends are the same sphere crossings in any
    # dimension: rays through the center, tangent-free seeded rays, and a
    # point at the peak
    u = Gaussian(center=(0.3, -0.2), scale=2.0, dimension=2)
    rng = np.random.default_rng(2)
    X = np.vstack([rng.uniform(-2.0, 2.0, (6, 2)), u.center])
    W = rng.normal(size=(6, 2))
    W = np.vstack([W / np.linalg.norm(W, axis=1)[:, None],
                   (u.center - X[0]) / np.linalg.norm(u.center - X[0])])
    for w in W:
        row, a, b, length = superlevel_chords(u, X, np.tile(w, (len(X), 1)),
                                              0.5)
        np.testing.assert_allclose(length, b - a, rtol=1e-12)
        for i, x in enumerate(X):
            want = _superlevel_by_brentq(u, x, w, 0.5,
                                         _profile_anchors(u, x, w))
            got = list(zip(a[row == i], b[row == i]))
            assert len(got) == len(want)
            np.testing.assert_allclose(np.array(got).reshape(-1, 2),
                                       np.array(want).reshape(-1, 2),
                                       rtol=1e-11, atol=1e-14)


def _superlevel_by_loop(u, X, omega, threshold, quad):
    """Reference: the per-row walk over each ray's roots, returning one
    list of (a, b) intervals per point."""
    m, n = X.shape
    u_x = u.eval(X)
    eta = threshold * 1e-6
    H = np.linalg.norm(X, axis=1) + u.far_radius(eta) + 1.0
    h_lo = max(0.999 * threshold / u.lipschitz_bound, 1e-12)
    N = quad.h_bracket_grid
    out = [[] for _ in range(m)]
    live = np.nonzero(H > h_lo)[0]
    grids = np.exp(math.log(h_lo) + (np.log(H[live]) - math.log(h_lo))[:, None]
                   * np.linspace(0.0, 1.0, N)[None, :])
    pts = X[live, None, :] + grids[..., None] * omega[None, None, :]
    vals = np.abs(u.eval(pts.reshape(-1, n)).reshape(live.size, N)
                  - u_x[live, None]) - threshold
    pos = vals > 0.0
    rows, cols = np.nonzero(pos[:, :-1] != pos[:, 1:])
    Xb, uxb = X[live[rows]], u_x[live[rows]]
    roots = vector_bisect(
        lambda i: lambda h: np.abs(u.eval(Xb[i] + h[:, None] * omega[None, :])
                                   - uxb[i]) - threshold,
        grids[rows, cols], grids[rows, cols + 1], vals[rows, cols],
        vals[rows, cols + 1])
    for k, idx in enumerate(live):
        state = bool(pos[k, 0])
        start = grids[k, 0] if state else None
        ivs = []
        for r in roots[rows == k]:
            if state:
                ivs.append((start, float(r)))
            else:
                start = float(r)
            state = not state
        if state:
            far_jump = abs(float(u_x[idx]))
            ivs.append((start, math.inf if far_jump > threshold + eta
                        else float(H[idx])))
        out[idx] = ivs
    return out


@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("omega", [1.0, -1.0])
def test_superlevel_arrays_match_row_loop(delta, omega):
    u, quad = Gaussian(), QuadratureSpec()
    X = np.linspace(-3.0, 3.0, 41)[:, None]
    row, a, b, length = superlevel_intervals(u, X, np.full_like(X, omega),
                                             delta, quad,
                                             u.far_radius(delta * 1e-6))
    ivs = _superlevel_by_loop(u, X, np.array([omega]), delta, quad)
    assert sum(map(len, ivs)) > 20
    assert [(int(i), float(lo), float(hi)) for i, lo, hi in zip(row, a, b)] \
        == [(i, float(lo), float(hi)) for i, iv in enumerate(ivs)
            for lo, hi in iv]
    assert np.array_equal(length, b - a)


@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
def test_superlevel_root_work_is_bounded(monkeypatch, delta):
    # count residual evaluations as the benchmark's tracer does (the size
    # of each index array handed to the row factory g); bisection to
    # 4 ulp would take about 50 per bracket
    counts = {"brackets": 0, "evals": 0}
    solve = quadrature.vector_bisect

    def counted(g, lo, *args):
        counts["brackets"] += np.size(lo)

        def g_counted(idx):
            counts["evals"] += np.size(idx)
            return g(idx)
        return solve(g_counted, lo, *args)

    monkeypatch.setattr(quadrature, "vector_bisect", counted)
    u, quad = Gaussian(), QuadratureSpec()
    X = np.linspace(-3.0, 3.0, 41)[:, None]
    for omega in (1.0, -1.0):
        superlevel_intervals(u, X, np.full_like(X, omega), delta, quad,
                             u.far_radius(delta * 1e-6))
    assert counts["brackets"] > 40
    assert counts["evals"] < 12 * counts["brackets"]


def _rays(u, n_dir):
    """Points of u's dimension and n_dir directions, as the separate
    arrays and as direction-major rows (row k*m + i is point i in
    direction k)."""
    from vexs import default_rule
    n = u.dimension
    X = np.linspace(-2.5, 2.1, 9 * n).reshape(9, n)
    nodes = default_rule(n, None if n == 1 else n_dir).nodes
    return X, nodes, np.tile(X, (len(nodes), 1)), np.repeat(nodes, 9, axis=0)


@pytest.mark.parametrize("u", [Gaussian(scale=1.5),
                               Gaussian(scale=1.5, dimension=2)])
def test_superlevel_per_row_directions_match_stacked_calls(u):
    X, nodes, rows, omega = _rays(u, 8)
    quad, far = QuadratureSpec(h_bracket_grid=64), u.far_radius(0.3e-6)
    got = superlevel_intervals(u, rows, omega, 0.3, quad, far)
    alone = [superlevel_intervals(u, X, np.tile(w, (len(X), 1)), 0.3, quad,
                                  far) for w in nodes]
    want = [np.concatenate([r + k * len(X) for k, (r, *_) in
                            enumerate(alone)])]
    want += [np.concatenate(parts) for parts in list(zip(*alone))[1:]]
    assert want[0].size > 10
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


@pytest.fixture
def one_direction_blocks(monkeypatch):
    """Run the direction blocks once with a single direction each (and
    the ray grids and power blocks one ray per field evaluation) and once
    with every direction in one block."""
    import vexs.functionals as fn

    def both(compute):
        for budget in (1, 2 ** 40):
            monkeypatch.setattr(fn, "_BLOCK_SAMPLES", budget)
            monkeypatch.setattr(fn, "_EVAL_SAMPLES", budget)
            monkeypatch.setattr(fn, "_POWER_NODES", budget)
            yield compute()
    return lambda compute: tuple(both(compute))


def test_nguyen_2d_same_value_for_any_direction_block(one_direction_blocks):
    from vexs import default_rule
    u, p = Gaussian(dimension=2), inverse_quadratic(2.0, 1.0, dimension=2)
    quad = QuadratureSpec(sphere_rule=default_rule(2, 16), h_bracket_grid=64,
                          outer_x_tolerance=1e-2, rel_tol=1e-2)
    single, whole = one_direction_blocks(
        lambda: nguyen_functional(u, p, 0.2, "p_of_x", quad))
    assert single == whole and single.value > 0.0


def test_eps_small_jump_same_value_for_any_direction_block(
        one_direction_blocks):
    u, p = Gaussian(scale=3.0), inverse_quadratic(2.0, 1.0)
    quad = QuadratureSpec(outer_x_tolerance=1e-5)
    single, whole = one_direction_blocks(
        lambda: eps_functional(u, p, 0.25, "small_jump", quad))
    assert single == whole and single.value > 0.0


def test_superlevel_memory_is_bounded_on_many_rows():
    # 20,000 rays of 128 samples: the grid itself is 20 MB, and its
    # evaluation in slices keeps the peak near it (unsliced, the points
    # and the field's temporaries reach about 100 MB)
    import tracemalloc
    u, quad = Gaussian(), QuadratureSpec(h_bracket_grid=128)
    X = np.linspace(-4.0, 4.0, 20000)[:, None]
    omega, far = np.ones_like(X), u.far_radius(0.1e-6)
    tracemalloc.start()
    try:
        row, *_ = superlevel_intervals(u, X, omega, 0.1, quad, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.size > 10000
    assert peak < 32 * 2 ** 20


@pytest.mark.filterwarnings("error")
def test_eps_tiny_exponent_runs_without_floating_point_warnings():
    # at eps = 0.005 the lowest GL nodes of [0, h0] underflow to h = 0 in
    # h = t^(1/eps); their quotient 0/0 is overwritten by the directional
    # derivative and must not surface as a RuntimeWarning
    fv = eps_functional(Tent(), constant(2.0), 0.005, "full",
                        QuadratureSpec(outer_x_tolerance=1e-4))
    assert math.isfinite(fv.value) and fv.value > 0.0


def test_eps_zero_field_all_modes():
    z = Gaussian(scale=0.0)
    for mode in ("full", "small_jump", "large_jump_tail"):
        fv = eps_functional(z, constant(2.0), 0.3, mode)
        assert fv.value == 0.0


def test_eps_tent_large_jump_tail_empty():
    # tent oscillation is exactly 1; jumps never exceed the threshold
    fv = eps_functional(Tent(), constant(2.0), 0.3, "large_jump_tail")
    assert fv.value == 0.0 and fv.empty_superlevel


def test_eps_large_jump_tail_positive_for_tall_field():
    fv = eps_functional(Gaussian(scale=3.0), constant(2.0), 0.3,
                        "large_jump_tail")
    assert fv.value > 0.0 and not fv.empty_superlevel


def test_eps_large_jump_tail_is_threshold_at_delta_one():
    # 1 / |x-y|^{n+p} over {|u(x)-u(y)| > 1} is the delta = 1 threshold
    # integrand, since 1^p == 1 exactly
    u, p = Gaussian(scale=3.0), inverse_quadratic(2.0, 1.0)
    tail = eps_functional(u, p, 0.3, "large_jump_tail")
    assert tail == nguyen_functional(u, p, 1.0, "unit")


def test_eps_full_gaussian_matches_riemann_oracle():
    ref = oracles.riemann_eps_double(
        lambda x: np.exp(-np.asarray(x, float) ** 2), p2_np, 0.4,
        (-7.0, 7.0), 2000, 3000)
    fv = eps_functional(Gaussian(), constant(2.0), 0.4, "full")
    assert fv.value == pytest.approx(ref, rel=2e-3)


def test_eps_small_jump_equals_full_for_unit_oscillation():
    # gaussian jumps stay below 1, so the restriction changes nothing
    u, p = Gaussian(), constant(2.0)
    full = eps_functional(u, p, 0.25, "full").value
    small = eps_functional(u, p, 0.25, "small_jump").value
    assert small == pytest.approx(full, rel=1e-9)


def test_eps_small_jump_differs_for_tall_field():
    u, p = Gaussian(scale=3.0), constant(2.0)
    full = eps_functional(u, p, 0.25, "full").value
    small = eps_functional(u, p, 0.25, "small_jump").value
    tail = eps_functional(u, p, 0.25, "large_jump_tail").value
    assert small < full
    assert tail > 0.0
    # the excluded large-jump intervals against the capped oracle
    ref = oracles.riemann_eps_double(
        lambda x: 3.0 * np.exp(-np.asarray(x, float) ** 2), p2_np, 0.25,
        (-7.0, 7.0), 2000, 3000, jump_cap=1.0)
    assert small == pytest.approx(ref, rel=2e-3)


def test_bbm_zero_and_scaling():
    pair_p = 2.0
    assert bbm_functional(Gaussian(scale=0.0), pair_p, 0.8).value == 0.0
    v1 = bbm_functional(Tent(), pair_p, 0.8).value
    v2 = bbm_functional(Tent(scale=2.0), pair_p, 0.8).value
    assert v2 == pytest.approx(4.0 * v1, rel=1e-9)


def test_bbm_tent_matches_riemann_oracle():
    s = 0.8
    S = oracles.riemann_gagliardo(tent_np, 2.0, s, (-60.0, 61.0))
    fv = bbm_functional(Tent(), 2.0, s)
    assert fv.value == pytest.approx((1.0 - s) * S, rel=2e-3)


@pytest.mark.parametrize("s", [0.7, 0.8, 0.9, 0.95])
def test_bbm_tent_exact(s):
    fv = bbm_functional(Tent(), 2.0, s)
    assert fv.value == pytest.approx((1.0 - s) * oracles.tent_gagliardo(s),
                                     rel=1e-6)


def _assert_exact(fv, exact, rel):
    # the value within rel of the exact one, and its error estimate
    # bounding the true error
    assert fv.value == pytest.approx(exact, rel=rel, abs=0.0)
    assert abs(fv.value - exact) <= fv.error_estimate


@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.8, 0.95, 0.99])
def test_bbm_gaussian_exact(s):
    # the x-tail beyond R decays only like R^(-sp): the exterior term
    # carries it exactly
    fv = bbm_functional(Gaussian(), 2.0, s)
    _assert_exact(fv, (1.0 - s) * oracles.gaussian_gagliardo(s), 1e-9)


@pytest.mark.parametrize("s", [0.5, 0.8, 0.95])
def test_bbm_gaussian_2d_exact(s):
    fv = bbm_functional(Gaussian(dimension=2), 2.0, s)
    _assert_exact(fv, (1.0 - s) * oracles.gaussian_gagliardo(s, 2), 1e-9)


def test_eps_variable_p_matches_scipy_reference():
    # the exterior exponents vary along each ray beyond R
    fv = eps_functional(Gaussian(), inverse_quadratic(2.0, 1.0), 0.05, "full")
    _assert_exact(fv, oracles.gaussian_eps_full(0.05, 2.0, 1.0), 1e-8)


def test_eps_small_jump_does_not_depend_on_the_truncation_radius():
    # F jumps where |u| crosses 1 (the exterior pairs count only where
    # |u(x)| <= 1), so the outer integral is seeded there
    u, p = Gaussian(scale=3.0), constant(2.0)
    vals = [eps_functional(u, p, 0.25, "small_jump",
                           QuadratureSpec(truncation_radius=R))
            for R in (None, 8.0, 16.0)]
    assert vals[0].truncation_radius < 8.0
    for fv in vals[1:]:
        assert fv.value == pytest.approx(vals[0].value, rel=1e-8, abs=0.0)


@pytest.mark.parametrize("n", [1, 2])
def test_exterior_rays_exact_for_constant_exponents(n):
    # h_R^(-r) / r with h_R the exit distance, 0 from |y| = R on
    R, q, r = 3.0, 2.0, 1.6
    u = Gaussian(dimension=n)
    Y = np.array([[0.0] * n, [1.0] + [0.5] * (n - 1), [-2.9] + [0.0] * (n - 1),
                  [3.0] + [0.0] * (n - 1), [4.0] * n])
    omega = np.tile(np.eye(n)[0], (len(Y), 1))
    val, err = functionals._exterior_rays(u, Y, omega, R,
                                          lambda X, Y: (q, r, q - r))
    y2 = np.sum(Y * Y, axis=1)
    h_R = -Y[:, 0] + np.sqrt(np.maximum(Y[:, 0] ** 2 - y2 + R * R, 0.0))
    expect = np.exp(-y2[:3]) ** q * h_R[:3] ** (-r) / r
    assert val[:3] == pytest.approx(expect, rel=1e-14)
    assert np.all(val[3:] == 0.0) and np.all(err[3:] == 0.0)
    assert np.all(err[:3] <= 1e-15 * val[:3])


def test_power_terms_sum_to_the_value(monkeypatch):
    # the (weight, exponent) terms of a pair exponent on the final outer
    # nodes, one per ray node, far-tail node and exterior node, add up to
    # the value of the outer integral they come from (measured: to 2.2e-16)
    p = inverse_quadratic(2.0, 1.0)
    outer, integrate = [], functionals._outer_integrate
    monkeypatch.setattr(functionals, "_outer_integrate", lambda *a, **k: (
        outer.append(integrate(*a, **k)) or outer[-1]))

    def exps(X, Y=None):
        P = 0.5 * (p.eval(X) + p.eval(X if Y is None else Y))
        return P, 0.5 * P, 0.5 * P

    a, e, _ = functionals._power_functional(Gaussian(), QuadratureSpec(), 0.5,
                                            exps, False, True, True)
    assert a.size > 1000 and np.all(e >= 2.0)
    assert np.sum(a) == pytest.approx(outer[0].value, rel=1e-13)


def test_bbm_rejects_nonconstant_or_bad_s():
    with pytest.raises(DomainError):
        bbm_functional(Tent(), 2.0, 1.2)
    with pytest.raises(DomainError):
        bbm_functional(Tent(), 1.0, 0.5)


def test_layer_cake_unit_distance_preset():
    # int_0^1 (1-d)^2 dd = 1/3 = double integral of |x-y| on the unit box;
    # every delta piece and every y cell is kink-free, so both sides are
    # exact to rounding (measured: 5.6e-17 off)
    phi, psi, alpha, box = lemma41_preset("unit-distance")
    res = layer_cake_check(phi, psi, alpha, box)
    assert res.lhs == pytest.approx(1.0 / 3.0, rel=0, abs=1e-13)
    assert res.rhs_small == pytest.approx(1.0 / 3.0, rel=0, abs=1e-13)
    assert res.rhs_large == 0.0
    assert res.residual <= 1e-6


@pytest.mark.parametrize("al", [-0.5, 0.5, 1.0, 2.3])
def test_layer_cake_distance_constant_alpha(al):
    # the double integral of |x-y|^(al+1) / (al+1) is
    # 2 / ((al+1)(al+2)(al+3)); al = 0.5, 1 and 2.3 take refinement
    # rounds (measured: within 2.3e-10)
    phi, psi, _, box = lemma41_preset("unit-distance")
    res = layer_cake_check(phi, psi, lambda x: np.full_like(
        np.asarray(x, float), al), box)
    exact = 2.0 / ((al + 1.0) * (al + 2.0) * (al + 3.0))
    assert res.lhs == pytest.approx(exact, rel=1e-8)
    assert res.residual <= 1e-6


def test_layer_cake_always_large_preset():
    phi, psi, alpha, box = lemma41_preset("always-large")
    res = layer_cake_check(phi, psi, alpha, box)
    assert res.lhs == pytest.approx(1.0, rel=1e-9)
    assert res.rhs_large == pytest.approx(1.0, rel=1e-12)
    assert res.rhs_small == 0.0
    assert res.residual <= 1e-6


@pytest.mark.parametrize("seed", range(6))
def test_layer_cake_random_smooth_residual(seed):
    # measured: at most 8.5e-15
    phi, psi, alpha, box = lemma41_preset("random-smooth", seed)
    res = layer_cake_check(phi, psi, alpha, box)
    assert res.residual <= 1e-9
    assert res.lhs_delta_error <= 1e-8 * abs(res.lhs)


def test_layer_cake_rel_tol_refines_delta_pieces():
    phi, psi, alpha, box = lemma41_preset("random-smooth", seed=4)
    coarse = layer_cake_check(phi, psi, alpha, box)
    fine = layer_cake_check(phi, psi, alpha, box,
                            QuadratureSpec(rel_tol=1e-12))
    assert fine.delta_pieces > coarse.delta_pieces
    assert fine.lhs_delta_error <= 1e-14 * abs(fine.lhs)
    assert fine.lhs == pytest.approx(coarse.lhs, rel=1e-9)


def test_layer_cake_random_smooth_vs_brute_oracle():
    phi, psi, alpha, box = lemma41_preset("random-smooth", seed=3)
    res = layer_cake_check(phi, psi, alpha, box)
    assert res.residual <= 1e-6
    lhs_b, small_b, large_b = oracles.layer_cake_brute(phi, psi, alpha, box)
    assert res.lhs == pytest.approx(lhs_b, rel=5e-3)
    assert res.rhs_small == pytest.approx(small_b, rel=5e-3)
    assert res.rhs_large == pytest.approx(large_b, rel=5e-3, abs=1e-6)


def test_layer_cake_brute_matches_delta_loop():
    # the oracle's sorted suffix sums against the plain per-delta masked
    # sum they replace; only the summation order differs
    phi, psi, alpha, box = lemma41_preset("random-smooth", seed=2)
    n, nd = 120, 40
    lhs, _, _ = oracles.layer_cake_brute(phi, psi, alpha, box, n, nd)
    g = box[0] + (np.arange(n) + 0.5) * (box[1] - box[0]) / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    PHI, PSI, AL = phi(X, Y), psi(X, Y), alpha(g)[:, None]
    loop = sum(float(np.sum(np.where(PHI > d, d ** AL * PSI, 0.0)))
               for d in (np.arange(nd) + 0.5) / nd)
    cell = ((box[1] - box[0]) / n) ** 2
    assert lhs == pytest.approx(loop * cell / nd, rel=1e-13)


def _all_rows(sec, ts):
    """Every (threshold, row) pair of ts and the x rows, threshold-major."""
    m = sec.xnodes.size
    return np.repeat(ts, m), np.tile(np.arange(m), ts.size)


def test_pair_section_unit_distance_exact_lengths():
    # phi = |x - y| and psi = 1 on [0, 1]^2: for each x node the y-length
    # of {phi > t} is max(0, x - t) + max(0, 1 - x - t); at t >= 1 no cell
    # is a boundary cell
    phi, psi, _, box = lemma41_preset("unit-distance")
    sec = _PairSection(phi, psi, box)
    x = sec.xnodes

    def length_above(t):
        return np.maximum(0.0, x - t) + np.maximum(0.0, 1.0 - x - t)

    ts = np.array([0.0, 1e-3, 0.25, 0.5, 0.999, 1.0, 1.5])
    got = sec.integral(*_all_rows(sec, ts)).reshape(ts.size, -1)
    for t, row in zip(ts, got):
        np.testing.assert_allclose(row, length_above(t), rtol=0, atol=1e-12)

    def igd(row, phis, psis):
        return psis

    half = _all_rows(sec, np.array([0.5]))
    above, below = (sec.integral(*half, side, igd) for side in (True, False))
    np.testing.assert_allclose(above, length_above(0.5), rtol=0, atol=1e-12)
    np.testing.assert_allclose(below, 1.0 - length_above(0.5), rtol=0,
                               atol=1e-12)


def test_pair_section_cuts_each_row_at_its_extrema():
    # phi = |x - y| has one interior extremum per row, its kink at y = x:
    # a cell edge lands there, and the row's critical values are phi at
    # the kink and at the box ends
    phi, psi, _, box = lemma41_preset("unit-distance")
    sec = _PairSection(phi, psi, box)
    x = sec.xnodes
    edge = np.abs(sec.ysamples[:, :, 0] - x[:, None]).min(axis=1)
    assert edge.max() <= 4 * np.spacing(1.0)
    crit = np.sort(sec.crit, axis=1)
    np.testing.assert_allclose(crit, np.column_stack(
        [np.zeros_like(x), np.minimum(x, 1 - x), np.maximum(x, 1 - x)]),
        rtol=0, atol=4 * np.spacing(1.0))


def _boundary_pieces_by_loop(sec, threshs, boundary):
    """Reference: cut each boundary cell in a Python loop, walking its
    roots in y order with alternating signs."""
    dd, rows, cols = np.nonzero(boundary)
    vals = sec.PHI_samples[rows, cols, :] - threshs[dd, None]
    pos = vals > 0.0
    brows, bloc = np.nonzero(pos[:, :-1] != pos[:, 1:])
    xv, th = sec.xnodes[rows[brows]], threshs[dd[brows]]
    ys = sec.ysamples[rows[brows], cols[brows]]
    roots = vector_bisect(lambda i: lambda y: sec.phi(xv[i], y) - th[i],
                          ys[np.arange(bloc.size), bloc],
                          ys[np.arange(bloc.size), bloc + 1],
                          vals[brows, bloc], vals[brows, bloc + 1])
    starts = np.searchsorted(brows, np.arange(dd.size + 1))
    pieces = []
    for k in range(dd.size):
        cuts = [sec.ysamples[rows[k], cols[k], 0],
                *roots[starts[k]:starts[k + 1]],
                sec.ysamples[rows[k], cols[k], -1]]
        sign = bool(pos[k, 0])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                pieces.append((int(dd[k]), int(rows[k]), float(lo),
                               float(hi), sign))
            sign = not sign
    return pieces


def test_boundary_pieces_match_per_cell_loop():
    phi, psi, _, box = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box)
    ts = np.quantile(sec.PHI_samples, [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    t3 = ts[:, None, None]
    boundary = ~(sec.cell_min[None] > t3) & (sec.cell_max[None] > t3)
    got = sec._boundary_pieces(ts, *np.nonzero(boundary))
    want = _boundary_pieces_by_loop(sec, ts, boundary)
    assert len(want) > 500
    assert [(int(d), int(r), float(lo), float(hi), bool(a))
            for d, r, lo, hi, a in zip(*got)] == want


def test_pair_section_empty_batch_shape():
    phi, psi, _, box = lemma41_preset("unit-distance")
    sec = _PairSection(phi, psi, box)
    got = sec.integral(np.array([]), np.array([], dtype=int))
    assert got.shape == (0,)


@pytest.mark.parametrize("preset,seed", [("unit-distance", 0),
                                         ("random-smooth", 4)])
def test_pair_section_classification_matches_masks(monkeypatch, preset,
                                                   seed):
    # unsorted and duplicated thresholds, thresholds equal to sampled cell
    # extremes (a cell is whole iff cell_min > t, boundary iff
    # cell_min <= t < cell_max), and thresholds below and above every
    # cell, each on every row; the pairs span several chunks
    phi, psi, _, box = lemma41_preset(preset, seed)
    sec = _PairSection(phi, psi, box)
    rng = np.random.default_rng(7)
    lo, hi = sec.cell_min.min(), sec.cell_max.max()
    picks = np.concatenate([rng.choice(sec.cell_min.ravel(), 8),
                            rng.choice(sec.cell_max.ravel(), 8)])
    ts = np.concatenate([picks, picks[::3], rng.uniform(lo, hi, 12),
                         [lo - 1.0, lo, hi, hi + 1.0]])
    rng.shuffle(ts)
    threshs, rows = _all_rows(sec, ts)

    seen = []
    boundary_pieces = sec._boundary_pieces

    def spy(threshs, dd, rows, cols):
        seen.extend(zip(threshs[dd].tolist(), rows.tolist(), cols.tolist()))
        return boundary_pieces(threshs, dd, rows, cols)

    monkeypatch.setattr(sec, "_boundary_pieces", spy)
    got = sec.integral(threshs, rows)
    monkeypatch.undo()
    want, (k, krows, cols) = oracles.pair_section_above_by_masks(
        sec, threshs, rows)

    assert sorted(seen) == sorted(zip(threshs[k].tolist(), krows.tolist(),
                                      cols.tolist()))
    assert k.size > 1000
    # measured: equal on both presets
    np.testing.assert_allclose(got, want, rtol=1e-14, atol=0)


def test_pair_section_pairs_do_not_depend_on_their_chunk(monkeypatch):
    phi, psi, _, box = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box)
    threshs, rows = _all_rows(sec, np.linspace(0.0, 1.6, 9))
    whole = sec.integral(threshs, rows)
    monkeypatch.setattr(sec, "PAIR_CELLS", 1000)
    assert np.array_equal(sec.integral(threshs, rows), whole)


@pytest.mark.parametrize("pair_cells", [_PairSection.PAIR_CELLS, 1000])
def test_pair_section_sides_add_up_to_the_row_integral(monkeypatch,
                                                       pair_cells):
    # at thresholds spanning each row's phi range, psi above plus psi
    # below is the row's whole psi integral, at either chunk size
    phi, psi, _, box = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box)
    monkeypatch.setattr(sec, "PAIR_CELLS", pair_cells)
    q = np.linspace(0.0, 1.0, 9)
    lo, hi = sec.cell_min.min(axis=1), sec.cell_max.max(axis=1)
    threshs = (lo[None] + q[:, None] * (hi - lo)[None]).ravel()
    rows = np.tile(np.arange(sec.xnodes.size), q.size)
    above = sec.integral(threshs, rows)
    below = sec.integral(threshs, rows, above=False)
    assert np.count_nonzero(above * below) > 1000
    np.testing.assert_allclose(above + below, sec.cell_psi.sum(axis=1)[rows],
                               rtol=1e-13, atol=0)


@pytest.mark.parametrize("above", [True, False])
def test_pair_section_explicit_psi_matches_default(above):
    phi, psi, _, box = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box)
    threshs, rows = _all_rows(sec, np.linspace(0.0, 1.6, 9))
    got = sec.integral(threshs, rows, above, lambda row, phis, psis: psis)
    assert np.array_equal(got, sec.integral(threshs, rows, above))


def _add_boundary_pieces(sec, threshs, cells):
    """np.add.at of the above-pieces' psi integrals, as the batch does."""
    above = np.zeros((threshs.size, sec.xnodes.size))
    dd, row, lo, hi, is_above = sec._boundary_pieces(threshs, *cells)
    ys, ww = piece_nodes(lo[is_above], hi[is_above])
    ww *= sec.psi(np.broadcast_to(sec.xnodes[row[is_above], None], ys.shape),
                  ys)
    np.add.at(above, (dd[is_above], row[is_above]), np.sum(ww, axis=1))
    return above


def test_boundary_pieces_any_cell_major_order_is_bit_identical():
    # the order contract: each (threshold, row) target receives its cells
    # in increasing order, whatever the order across targets
    phi, psi, _, box = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box)
    ts = np.quantile(sec.PHI_samples, [0.05, 0.3, 0.5, 0.7, 0.95])
    t3 = ts[:, None, None]
    boundary = ~(sec.cell_min[None] > t3) & (sec.cell_max[None] > t3)
    by_threshold = np.nonzero(boundary)                   # (d, m, c)
    rows, cols, dd = np.nonzero(boundary.transpose(1, 2, 0))  # (m, c, d)
    want = _add_boundary_pieces(sec, ts, by_threshold)
    got = _add_boundary_pieces(sec, ts, (dd, rows, cols))
    assert np.count_nonzero(want) > 100
    assert np.array_equal(got, want)


def test_layer_cake_rejects_alpha_at_minus_one():
    phi, psi, _, box = lemma41_preset("unit-distance")
    with pytest.raises(DomainError):
        layer_cake_check(phi, psi, lambda x: np.full_like(
            np.asarray(x, float), -1.0), box)


def test_local_energy_gaussian_2d():
    # in the plane: K_{2,2} = pi/2 and the gradient square integral of
    # exp(-r^2) is pi (polar coordinates by hand), so the energy is pi^2/2
    u = Gaussian(dimension=2)
    p = constant(2.0, dimension=2)
    fv = local_energy(u, p)
    assert fv.value == pytest.approx(math.pi ** 2 / 2.0, rel=1e-7)


def test_nguyen_gaussian_2d_approaches_local_energy():
    from vexs import default_rule
    u = Gaussian(dimension=2)
    p = constant(2.0, dimension=2)
    quad = QuadratureSpec(sphere_rule=default_rule(2, 16),
                          h_bracket_grid=64, outer_x_tolerance=1e-4,
                          rel_tol=1e-4)
    target = math.pi ** 2 / 2.0
    fv = nguyen_functional(u, p, 0.1, "unit", quad)
    assert fv.value == pytest.approx(target, rel=0.05)


def test_local_energy_gaussian_3d():
    # K_{3,2} = 2 pi / 3 and the gradient square integral of exp(-r^2)
    # over R^3 is 3 pi^{3/2} / 2^{3/2}, so the energy is 2 pi (pi/2)^{3/2}
    fv = local_energy(Gaussian(dimension=3), constant(2.0, dimension=3))
    assert fv.value == pytest.approx(
        2.0 * math.pi * (math.pi / 2.0) ** 1.5, rel=1e-7)


@pytest.fixture
def outer_evals(monkeypatch):
    """The n_evals of every outer adaptive_integrate call, summed."""
    seen = [0]

    def counted(*args, **kwargs):
        res = adaptive_integrate(*args, **kwargs)
        seen[0] += res.n_evals
        return res
    monkeypatch.setattr(functionals, "adaptive_integrate", counted)
    return seen


def _rule16(**kw):
    return QuadratureSpec(sphere_rule=default_rule(2, 16), **kw)


RADIAL_CASES = {
    "nguyen": lambda: nguyen_functional(
        Gaussian(dimension=2), constant(2.0, dimension=2), 0.2, "unit",
        _rule16(h_bracket_grid=64, outer_x_tolerance=1e-3, rel_tol=1e-3)),
    "local_energy": lambda: local_energy(
        Gaussian(dimension=2), inverse_quadratic(2.0, 1.0, dimension=2)),
    "modular": lambda: modular(Gaussian(dimension=2),
                               inverse_quadratic(2.0, 1.0, dimension=2)),
    "bbm": lambda: bbm_functional(
        Gaussian(dimension=2), 2.0, 0.8,
        _rule16(h_bracket_grid=16, outer_x_tolerance=1e-2, rel_tol=1e-2)),
    # rays through the apex, whose break rounding must not decide
    "tent_bbm": lambda: bbm_functional(
        Tent(dimension=2), 2.0, 0.8,
        _rule16(h_bracket_grid=16, outer_x_tolerance=1e-2,
                truncation_radius=2.0)),
    # in 1D the sphere is {+-1}: the radial path integrates [0, R] once
    "nguyen_1d": lambda: nguyen_functional(
        Gaussian(), inverse_quadratic(2.0, 1.0), 0.1, "p_of_x"),
    "local_energy_1d": lambda: local_energy(Gaussian(),
                                            inverse_quadratic(2.0, 1.0)),
    "modular_1d": lambda: modular(Gaussian(), inverse_quadratic(2.0, 1.0)),
    "tent_bbm_1d": lambda: bbm_functional(Tent(), 2.0, 0.8),
    "eps_small_jump_1d": lambda: eps_functional(
        Gaussian(scale=3.0), inverse_quadratic(2.0, 1.0), 0.25, "small_jump",
        QuadratureSpec(h_bracket_grid=64)),
}


def _full_outer_rule(monkeypatch):
    for cls in (Gaussian, Tent, ExponentField):
        monkeypatch.setattr(cls, "radial", False)


@pytest.mark.parametrize("name", [k for k in RADIAL_CASES
                                  if not k.endswith("_1d")])
def test_radial_reduction_matches_full_outer_rule(monkeypatch, outer_evals,
                                                  name):
    # one outer direction weighted by the rule's total against every
    # direction of the rule: a rotation by one step permutes the inner
    # directions of the equal-angle 2D rule, so the values agree up to
    # rounding
    reduced = RADIAL_CASES[name]()
    assert reduced.node_count == outer_evals[0]
    _full_outer_rule(monkeypatch)
    outer_evals[0] = 0
    full = RADIAL_CASES[name]()
    nodes = 16 if name in ("nguyen", "bbm", "tent_bbm") else 128
    # the same radial panels, each radius taking every direction
    assert full.node_count == nodes * outer_evals[0] \
        == nodes * reduced.node_count
    assert full.value == pytest.approx(reduced.value, rel=1e-13, abs=0.0)
    assert reduced.value > 0.0


@pytest.mark.parametrize("name", [k for k in RADIAL_CASES
                                  if k.endswith("_1d")])
def test_radial_fold_matches_full_line(monkeypatch, outer_evals, name):
    # an even 1D integrand on [0, R], weight 2, against the whole line:
    # each side is its own adaptive integral, so they agree to the outer
    # tolerance, on about half the nodes
    reduced = RADIAL_CASES[name]()
    assert reduced.node_count == outer_evals[0]
    _full_outer_rule(monkeypatch)
    full = RADIAL_CASES[name]()
    assert reduced.node_count <= 0.55 * full.node_count
    assert full.value == pytest.approx(reduced.value, rel=1e-6, abs=0.0)
    assert reduced.value > 0.0


def _gaussian_profile(r):
    return math.exp(-r * r)


@pytest.mark.parametrize("compute, node_count, value, rel", [
    # constant p makes the threshold functional translation-invariant, so
    # the centered reference is exact; pinned at the outer tolerance
    (lambda: nguyen_functional(Gaussian(center=0.7), constant(2.0), 0.1),
     1760, lambda: oracles.threshold_1d(_gaussian_profile, lambda x: 2.0,
                                        0.1), 1e-7),
    (lambda: local_energy(Gaussian(), sin_squared(2.0, 0.5, 1.0)),
     704, lambda: 1.0183968729998132, 1e-12),
], ids=["nguyen_off_center", "local_energy_sin_squared"])
def test_non_radial_1d_inputs_keep_the_line(monkeypatch, compute,
                                            node_count, value, rel):
    # the outer integral still starts on [-R, R], and takes the node
    # count it took before even inputs were folded (the threshold
    # functional's since its superlevel sets are closed-form chords)
    starts = []

    def recorded(f, a, b, **kwargs):
        starts.append(a)
        return adaptive_integrate(f, a, b, **kwargs)
    monkeypatch.setattr(functionals, "adaptive_integrate", recorded)
    fv = compute()
    assert starts[0] < 0.0
    assert fv.node_count == node_count
    assert fv.value == pytest.approx(value(), rel=rel, abs=0.0)


@pytest.mark.parametrize("compute, target", [
    (lambda: local_energy(Gaussian(center=(0.5, -0.25), dimension=2),
                          constant(2.0, dimension=2)), math.pi ** 2 / 2.0),
    (lambda: local_energy(Gaussian(dimension=2),
                          sin_squared(2.0, 1.0, (1.0, 0.0), dimension=2)),
     None),
    (lambda: modular(Gaussian(dimension=2), constant(2.0, dimension=2),
                     weight=lambda pts: np.ones(len(pts))), math.pi / 2.0),
])
def test_non_radial_inputs_keep_the_full_outer_rule(outer_evals, compute,
                                                    target):
    fv = compute()
    assert fv.node_count == 128 * outer_evals[0]
    if target is not None:
        assert fv.value == pytest.approx(target, rel=1e-7)


BATCH_CASES = {
    "nguyen": lambda quad: nguyen_functional(
        Gaussian(), inverse_quadratic(2.0, 1.0), 0.1, "p_of_x", quad),
    "nguyen_2d": lambda quad: nguyen_functional(
        Gaussian(center=(0.5, 0.0), dimension=2), constant(2.0, dimension=2),
        0.2, "unit", _rule16(h_bracket_grid=32)),
    "eps_small_jump": lambda quad: eps_functional(
        Gaussian(scale=3.0), inverse_quadratic(2.0, 1.0), 0.25, "small_jump",
        quad),
    "bbm": lambda quad: bbm_functional(Tent(), 2.0, 0.8, quad),
    "local_energy": lambda quad: local_energy(
        Gaussian(center=(0.5, 0.0), dimension=2), constant(2.0, dimension=2)),
}


@pytest.mark.parametrize("compute", [
    lambda: local_energy(Gaussian(center=(0.5, 0.0), dimension=2),
                         constant(2.0, dimension=2)),
    lambda: modular(Gaussian(dimension=2), constant(2.0, dimension=2),
                    weight=lambda pts: 1.0 + pts[:, 0] ** 2),
    lambda: nguyen_functional(Gaussian(), inverse_quadratic(2.0, 1.0), 0.1),
])
def test_outer_integral_matches_one_call_per_panel(monkeypatch, compute):
    # paired panel calls give the floats of one call per panel, 2D
    # direction sums included
    batched = compute()
    monkeypatch.setattr(
        functionals, "adaptive_integrate", lambda *args, **kwargs:
        quadrature.AdaptiveResult(*oracles.adaptive_integrate_per_panel(
            *args, **kwargs)))
    assert compute() == batched


@pytest.mark.parametrize("n, radial, rule", [
    (1, False, None), (1, True, None), (2, True, None), (2, False, 16),
    (3, True, None)])
def test_outer_nodes_are_the_adaptive_rule(n, radial, rule):
    # the exported nodes and weights integrate F to the value itself, over
    # the first segment and every doubling shell (1D line, 1D radial,
    # 2D radial, 2D non-radial with 16 directions, 3D radial)
    center = np.zeros(n) if radial else np.linspace(0.3, -0.2, n)

    def F(X):
        return np.exp(-np.sum((X - center) ** 2, axis=1)) * (
            1.0 + np.sum(X * X, axis=1))
    quad = QuadratureSpec(sphere_rule=rule and default_rule(n, rule))
    res = functionals._outer_integrate(F, Gaussian(dimension=n), quad, 1.5,
                                       seeds=(0.5,), radial=radial)
    pts, w = res.nodes()
    assert res.radius > 1.5 and pts.shape == (w.size, n)
    assert float(np.sum(w * F(pts))) == pytest.approx(res.value, rel=1e-13)


@pytest.mark.parametrize("name", BATCH_CASES)
def test_outer_rows_do_not_depend_on_batch(monkeypatch, name):
    # the outer integrand on five panels of rows at once, against one
    # call per panel; a power block holds no more rays than its budget
    rays = []
    ray_t_nodes = functionals.ray_t_nodes

    def counted(u, X, *args, **kwargs):
        rays.append(X.shape[0])
        return ray_t_nodes(u, X, *args, **kwargs)

    def five_panels(F, u, quad, base_radius, seeds=(), radial=False):
        X = np.linspace(-3.0, 3.0, 5 * 22)[:, None] * np.ones(u.dimension)
        whole = F(X)
        per_panel = [F(X[k:k + 22]) for k in range(0, X.shape[0], 22)]
        assert np.array_equal(whole, np.concatenate(per_panel))
        return functionals._OuterResult(float(np.sum(whole)), 0.0,
                                        base_radius, X.shape[0],
                                        lambda: (X, np.ones(X.shape[0])))

    monkeypatch.setattr(functionals, "ray_t_nodes", counted)
    monkeypatch.setattr(functionals, "_outer_integrate", five_panels)
    quad = QuadratureSpec(h_bracket_grid=64)
    assert BATCH_CASES[name](quad).node_count == 110
    assert max(rays, default=0) <= functionals._power_rays(quad)
    assert bool(rays) == (name in ("eps_small_jump", "bbm"))


@pytest.mark.parametrize("n_u, n_p", [(2, 1), (3, 1), (1, 2)])
@pytest.mark.parametrize("call", [
    lambda u, p: nguyen_functional(u, p, 0.5),
    lambda u, p: local_energy(u, p),
    lambda u, p: eps_functional(u, p, 0.1),
], ids=["nguyen_functional", "local_energy", "eps_functional"])
def test_mismatched_dimensions_are_a_domain_error(call, n_u, n_p):
    # a field and an exponent of different dimensions are refused by name
    # before any node is built, not by a broadcast or a TypeError inside
    with pytest.raises(DomainError, match=f"the field is {n_u}D but the "
                                          f"exponent is {n_p}D"):
        call(Gaussian(dimension=n_u), constant(2.0, dimension=n_p))
