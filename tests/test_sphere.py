import math
import os
import subprocess
import sys

import numpy as np
import pytest

import vexs
from vexs import (DomainError, abs_power_sphere_integral, default_rule,
                  directional_identity_check, inverse_quadratic, k_np,
                  k_np_values)


def test_rule_invariants():
    for n, surface in ((1, 2.0), (2, 2 * math.pi), (3, 4 * math.pi)):
        rule = default_rule(n)
        assert abs(rule.weights.sum() - surface) <= 1e-12 * surface
        norms = np.linalg.norm(rule.nodes, axis=1)
        assert np.max(np.abs(norms - 1.0)) <= 1e-14


def test_integral_n1_is_two_for_any_p():
    for p in (1.0, 1.7, 4.0, 11.0):
        assert abs_power_sphere_integral(1, p) == pytest.approx(2.0, rel=1e-14)
        assert abs_power_sphere_integral(1, p, default_rule(1)) == 2.0


def test_integral_n2_p2_is_pi():
    # integral over the circle of cos^2 is pi, by hand
    assert abs_power_sphere_integral(2, 2.0) == pytest.approx(math.pi,
                                                              rel=1e-13)


def test_integral_n3_p2():
    # integral over S^2 of z^2 in spherical coordinates: 4 pi / 3
    assert abs_power_sphere_integral(3, 2.0) == pytest.approx(
        4 * math.pi / 3, rel=1e-13)


def test_k_spot_values():
    assert k_np(1, 2.0) == pytest.approx(1.0, rel=1e-14)
    assert k_np(1, 4.0) == pytest.approx(0.5, rel=1e-14)
    assert k_np(2, 2.0) == pytest.approx(math.pi / 2, rel=1e-13)
    assert k_np(3, 2.0) == pytest.approx(2 * math.pi / 3, rel=1e-13)


def test_p_below_one_rejected():
    with pytest.raises(DomainError):
        k_np(2, 0.5)


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, 7.0])
def test_quadrature_matches_closed_form(n, p):
    rule = default_rule(n)
    closed = abs_power_sphere_integral(n, p)
    quad = abs_power_sphere_integral(n, p, rule)
    assert abs(quad - closed) / closed <= 1e-8


def test_rotational_invariance_of_rule(rng):
    # generic reference directions are resolution-limited, not exact
    for n in (2, 3):
        rule = default_rule(n)
        closed = abs_power_sphere_integral(n, 2.5)
        for _ in range(10):
            e = rng.normal(size=n)
            e /= np.linalg.norm(e)
            quad = float(np.sum(rule.weights * np.abs(rule.nodes @ e) ** 2.5))
            assert abs(quad - closed) / closed <= 2e-5


def test_k_monotone_decreasing_in_p():
    grid = np.arange(1.0, 20.5, 0.5)
    for n in (1, 2, 3):
        vals = k_np_values(n, grid)
        assert np.all(np.diff(vals) < 0.0)
        assert vals[-1] < vals[0] / 5.0


def test_k_of_x_bounded_by_k_at_p_minus(rng):
    p = inverse_quadratic(2.0, 1.0)
    xs = rng.uniform(-20, 20, size=500)
    vals = k_np_values(1, p.eval(xs))
    assert np.all(vals <= k_np(1, p.p_minus) + 1e-14)


def test_identity_zero_vector():
    chk = directional_identity_check(2, 2.0, [0.0, 0.0])
    assert chk.lhs == 0.0 and chk.rhs == 0.0


def test_identity_n2_p2_axis():
    chk = directional_identity_check(2, 2.0, [1.0, 0.0])
    assert chk.rhs == pytest.approx(math.pi, rel=1e-13)
    assert chk.rel_residual <= 1e-9


def test_identity_random_directions(rng):
    # closed form is the oracle; the rule integrates about its own axis,
    # where the kink sits on a panel boundary, so the residual target
    # holds for all p down to 1
    for _ in range(10):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 5.0))
        V = rng.normal(size=n) * rng.uniform(0.2, 3.0)
        chk = directional_identity_check(n, p, V)
        assert chk.rel_residual <= 1e-8


def test_identity_n3_generic_rule_at_64sq(rng):
    rule = default_rule(3, (64, 64))
    V = rng.normal(size=3)
    V /= np.linalg.norm(V)
    chk = directional_identity_check(3, 3.5, V, rule)
    assert chk.rel_residual <= 1e-8


@pytest.mark.parametrize("V, W", [([3.0, 4.0], [0.0, -5.0]),
                                  ([2.0, 3.0, 6.0], [-6.0, 2.0, 3.0])])
def test_identity_lhs_does_not_depend_on_the_direction_of_v(V, W):
    # |V| = |W| exactly; lhs is |V|^p times one sum about the rule's axis
    for p in (1.0, 2.5):
        a = directional_identity_check(len(V), p, V)
        b = directional_identity_check(len(W), p, W)
        assert a.lhs == b.lhs
        assert a.rel_residual <= 1e-8


def test_import_vexs_loads_no_scipy():
    # scipy is a test-only dependency: the oracles and the benchmark use it
    src = os.path.dirname(os.path.dirname(os.path.abspath(vexs.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, vexs; print('scipy' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True,
        check=True)
    assert out.stdout.strip() == "False"


def test_k_np_values_n1_is_two_over_p_exactly():
    # the log-Gamma ratio is lgamma(x) - lgamma(x) = 0 for n = 1
    p = np.linspace(1.0, 9.0, 1001)
    assert np.array_equal(k_np_values(1, p), 2.0 / p)
