import math

import numpy as np
import pytest

import oracles
from vexs import (DomainError, Gaussian, QuadratureSpec, Tent, bbm_functional,
                  constant, eps_functional, inverse_quadratic,
                  layer_cake_check, local_energy, nguyen_functional,
                  uniform_bound_check)
from vexs import quadrature
from vexs.cli import lemma41_preset
from vexs.functionals import _PairSection, superlevel_intervals
from vexs.quadrature import adaptive_integrate, vector_bisect


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


def test_h_max_override_consistent():
    u, p = Tent(), constant(2.0)
    base = nguyen_functional(u, p, 0.05)
    capped = nguyen_functional(u, p, 0.05,
                               quad=QuadratureSpec(h_max=1e4))
    assert capped.value == pytest.approx(base.value, rel=1e-9)


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


def test_superlevel_monotone_in_delta():
    u = Gaussian()
    quad = QuadratureSpec()
    X = np.array([[0.3], [0.9], [1.7]])
    omega = np.array([1.0])
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
    _, a, _, _ = superlevel_intervals(u, X, np.array([1.0]), 0.2, quad,
                                      u.far_radius(0.2 * 1e-6))
    floor = 0.2 / u.lipschitz_bound
    assert np.all(a >= 0.99 * floor)


@pytest.mark.parametrize("x, omega, want", [
    (0.2, 1.0, [(0.3, math.inf)]),
    (0.2, -1.0, [(0.7, math.inf)]),
    (-0.5, 1.0, [(0.3, 0.7), (1.3, math.inf)]),
])
def test_superlevel_tent_exact(x, omega, want):
    # |u(x + h w) - u(x)| > 0.3 for the unit tent, solved by hand from
    # its three linear pieces; the far jump |u(x)| > 0.3 makes the last
    # interval unbounded
    row, a, b, ambiguous = superlevel_intervals(
        Tent(), np.array([[x]]), np.array([omega]), 0.3, QuadratureSpec(),
        1.0)
    assert row.tolist() == [0] * len(want)
    assert not ambiguous.any()
    np.testing.assert_allclose(np.column_stack([a, b]), want, rtol=0,
                               atol=1e-12)


def _superlevel_by_loop(u, X, omega, threshold, quad):
    """Reference: the per-row walk over each ray's roots, returning one
    list of (a, b) intervals per point and the ambiguous (row, H) pairs."""
    m, n = X.shape
    u_x = u.eval(X)
    eta = threshold * 1e-6
    H = np.linalg.norm(X, axis=1) + u.far_radius(eta) + 1.0
    h_lo = max(0.999 * threshold / u.lipschitz_bound, 1e-12)
    N = quad.h_bracket_grid
    out, ambiguous = [[] for _ in range(m)], []
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
            if far_jump > threshold + eta:
                ivs.append((start, math.inf))
            else:
                ivs.append((start, float(H[idx])))
                if far_jump > threshold - eta:
                    ambiguous.append((int(idx), float(H[idx])))
        out[idx] = ivs
    return out, ambiguous


@pytest.mark.parametrize("delta", [0.05, 0.2, 0.5])
@pytest.mark.parametrize("omega", [1.0, -1.0])
def test_superlevel_arrays_match_row_loop(delta, omega):
    u, quad = Gaussian(), QuadratureSpec()
    X = np.linspace(-3.0, 3.0, 41)[:, None]
    row, a, b, ambiguous = superlevel_intervals(u, X, np.array([omega]),
                                                delta, quad,
                                                u.far_radius(delta * 1e-6))
    ivs, amb = _superlevel_by_loop(u, X, np.array([omega]), delta, quad)
    assert sum(map(len, ivs)) > 20
    assert [(int(i), float(lo), float(hi)) for i, lo, hi in zip(row, a, b)] \
        == [(i, float(lo), float(hi)) for i, iv in enumerate(ivs)
            for lo, hi in iv]
    assert list(zip(row[ambiguous].tolist(), b[ambiguous].tolist())) == amb


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
        superlevel_intervals(u, X, np.array([omega]), delta, quad,
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
    alone = [superlevel_intervals(u, X, w, 0.3, quad, far) for w in nodes]
    want = [np.concatenate([r + k * len(X) for k, (r, *_) in
                            enumerate(alone)])]
    want += [np.concatenate(parts) for parts in list(zip(*alone))[1:]]
    assert want[0].size > 10
    for a, b in zip(want, got):
        assert np.array_equal(a, b)


@pytest.fixture
def one_direction_blocks(monkeypatch):
    """Run the direction blocks once with a single direction each (and
    the ray grids one ray per field evaluation) and once with every
    direction in one block."""
    import vexs.functionals as fn

    def both(compute):
        for budget in (1, 2 ** 40):
            monkeypatch.setattr(fn, "_BLOCK_SAMPLES", budget)
            monkeypatch.setattr(fn, "_EVAL_SAMPLES", budget)
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
    far = u.far_radius(0.1e-6)
    tracemalloc.start()
    try:
        row, *_ = superlevel_intervals(u, X, np.array([1.0]), 0.1, quad, far)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert row.size > 10000
    assert peak < 32 * 2 ** 20


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


@pytest.mark.parametrize("s", [0.8, 0.95])
def test_bbm_gaussian_exact(s):
    fv = bbm_functional(Gaussian(), 2.0, s)
    assert fv.value == pytest.approx(
        (1.0 - s) * oracles.gaussian_gagliardo(s), rel=1e-6)


def test_bbm_rejects_nonconstant_or_bad_s():
    with pytest.raises(DomainError):
        bbm_functional(Tent(), 2.0, 1.2)
    with pytest.raises(DomainError):
        bbm_functional(Tent(), 1.0, 0.5)


def test_layer_cake_unit_distance_preset():
    # int_0^1 (1-d)^2 dd = 1/3 = double integral of |x-y| on the unit box
    phi, psi, alpha, box, seeds = lemma41_preset("unit-distance")
    res = layer_cake_check(phi, psi, alpha, box, y_seeds=seeds)
    assert res.lhs == pytest.approx(1.0 / 3.0, rel=5e-7)
    assert res.rhs_small == pytest.approx(1.0 / 3.0, rel=5e-7)
    assert res.rhs_large == 0.0
    assert res.residual <= 1e-6


def test_layer_cake_always_large_preset():
    phi, psi, alpha, box, seeds = lemma41_preset("always-large")
    res = layer_cake_check(phi, psi, alpha, box, y_seeds=seeds)
    assert res.lhs == pytest.approx(1.0, rel=1e-9)
    assert res.rhs_large == pytest.approx(1.0, rel=1e-12)
    assert res.rhs_small == 0.0
    assert res.residual <= 1e-6


def test_layer_cake_random_smooth_vs_brute_oracle():
    phi, psi, alpha, box, seeds = lemma41_preset("random-smooth", seed=3)
    res = layer_cake_check(phi, psi, alpha, box, y_seeds=seeds)
    assert res.residual <= 1e-6
    lhs_b, small_b, large_b = oracles.layer_cake_brute(phi, psi, alpha, box)
    assert res.lhs == pytest.approx(lhs_b, rel=5e-3)
    assert res.rhs_small == pytest.approx(small_b, rel=5e-3)
    assert res.rhs_large == pytest.approx(large_b, rel=5e-3, abs=1e-6)


def test_layer_cake_brute_matches_delta_loop():
    # the oracle's sorted suffix sums against the plain per-delta masked
    # sum they replace; only the summation order differs
    phi, psi, alpha, box, _ = lemma41_preset("random-smooth", seed=2)
    n, nd = 120, 40
    lhs, _, _ = oracles.layer_cake_brute(phi, psi, alpha, box, n, nd)
    g = box[0] + (np.arange(n) + 0.5) * (box[1] - box[0]) / n
    X, Y = np.meshgrid(g, g, indexing="ij")
    PHI, PSI, AL = phi(X, Y), psi(X, Y), alpha(g)[:, None]
    loop = sum(float(np.sum(np.where(PHI > d, d ** AL * PSI, 0.0)))
               for d in (np.arange(nd) + 0.5) / nd)
    cell = ((box[1] - box[0]) / n) ** 2
    assert lhs == pytest.approx(loop * cell / nd, rel=1e-13)


def test_pair_section_unit_distance_exact_lengths():
    # phi = |x - y| and psi = 1 on [0, 1]^2: for each x node the y-length
    # of {phi > t} is max(0, x - t) + max(0, 1 - x - t); at t >= 1 no cell
    # is a boundary cell
    phi, psi, _, box, seeds = lemma41_preset("unit-distance")
    sec = _PairSection(phi, psi, box, seeds)
    x = sec.xnodes

    def length_above(t):
        return np.maximum(0.0, x - t) + np.maximum(0.0, 1.0 - x - t)

    ts = np.array([0.0, 1e-3, 0.25, 0.5, 0.999, 1.0, 1.5])
    for t, row in zip(ts, sec.psi_integral_above_batch(ts)):
        np.testing.assert_allclose(row, length_above(t), rtol=0, atol=1e-12)

    def igd(al, phis, psis):
        return psis

    above, below = sec.integral_pair(0.5, np.zeros_like(x), igd, igd)
    np.testing.assert_allclose(above, length_above(0.5), rtol=0, atol=1e-12)
    np.testing.assert_allclose(below, 1.0 - length_above(0.5), rtol=0,
                               atol=1e-12)


def _boundary_pieces_by_loop(sec, threshs, boundary):
    """Reference: cut each boundary cell in a Python loop, walking its
    roots in y order with alternating signs."""
    dd, rows, cols = np.nonzero(boundary)
    vals = sec.PHI_samples[rows, cols, :] - threshs[dd, None]
    pos = vals > 0.0
    brows, bloc = np.nonzero(pos[:, :-1] != pos[:, 1:])
    xv, th = sec.xnodes[rows[brows]], threshs[dd[brows]]
    roots = vector_bisect(lambda i: lambda y: sec.phi(xv[i], y) - th[i],
                          sec.ysamples[cols[brows], bloc],
                          sec.ysamples[cols[brows], bloc + 1],
                          vals[brows, bloc], vals[brows, bloc + 1])
    starts = np.searchsorted(brows, np.arange(dd.size + 1))
    pieces = []
    for k in range(dd.size):
        cuts = [sec.ysamples[cols[k], 0], *roots[starts[k]:starts[k + 1]],
                sec.ysamples[cols[k], -1]]
        sign = bool(pos[k, 0])
        for lo, hi in zip(cuts[:-1], cuts[1:]):
            if hi > lo:
                pieces.append((int(dd[k]), int(rows[k]), float(lo),
                               float(hi), sign))
            sign = not sign
    return pieces


def test_boundary_pieces_match_per_cell_loop():
    phi, psi, _, box, seeds = lemma41_preset("random-smooth", seed=4)
    sec = _PairSection(phi, psi, box, seeds)
    ts = np.quantile(sec.PHI_samples, [0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0])
    t3 = ts[:, None, None]
    boundary = ~(sec.cell_min[None] > t3) & (sec.cell_max[None] > t3)
    got = sec._boundary_pieces(ts, boundary)
    want = _boundary_pieces_by_loop(sec, ts, boundary)
    assert len(want) > 500
    assert [(int(d), int(r), float(lo), float(hi), bool(a))
            for d, r, lo, hi, a in zip(*got)] == want


def test_layer_cake_rejects_alpha_at_minus_one():
    phi, psi, _, box, _ = lemma41_preset("unit-distance")
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


def test_uniform_bound_zero_field():
    chk = uniform_bound_check(Gaussian(scale=0.0), constant(2.0),
                              [0.1, 0.05])
    assert chk.sup_value == 0.0 and chk.rhs_bound == 0.0


def test_uniform_bound_tent_rhs():
    # both classical norms equal 2 for the tent at p = 2
    chk = uniform_bound_check(Tent(), constant(2.0), [0.2, 0.1])
    assert chk.rhs_bound == pytest.approx(4.0, rel=1e-9)
    assert chk.sup_value > 0.0
