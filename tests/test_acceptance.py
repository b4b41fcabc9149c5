"""Acceptance gate: one test per criterion, each printed as a pass line.

Run with `pytest -s tests/test_acceptance.py` to see the lines live.
Tolerances are pinned here, not calibrated elsewhere; timings assert the
stated budgets.
"""

import json
import math
import time

import numpy as np
import pytest

import oracles
from vexs import (Gaussian, LogSingular, SampledTable, SmoothBump, Tent,
                  abs_power_sphere_integral, bmo_quantity, constant,
                  counterexample_experiment, directional_identity_check,
                  default_rule, inverse_quadratic, k_np, k_np_values,
                  layer_cake_check, luxemburg_norm,
                  norm_modular_inequality_check, run_sweep, sup_over_grid)
from vexs.cli import lemma41_preset, main as cli_main


def report(num, ok, detail, elapsed, budget):
    line = (f"ACCEPTANCE {num:>2}: {'PASS' if ok else 'FAIL'} - {detail} "
            f"[{elapsed:.1f}s / budget {budget:.0f}s]")
    print(line)
    assert ok, line
    assert elapsed < budget, f"criterion {num} exceeded runtime: {line}"


# -- shared sweeps (criteria 5, 6, 8 reuse one scenario) -----------------

P_VAR = inverse_quadratic(2.0, 1.0)
DELTA_GRID = [0.2, 0.1, 0.05, 0.025, 0.0125]


@pytest.fixture(scope="module")
def nguyen_unit_sweep():
    t0 = time.time()
    rep = run_sweep("nguyen-unit", Gaussian(), P_VAR, DELTA_GRID)
    return rep, time.time() - t0


def test_criterion_01_sphere_constants():
    t0 = time.time()
    ok = True
    worst = 0.0
    for n in (1, 2, 3):
        rule = default_rule(n)
        for p in (1.0, 1.5, 2.0, 3.0, 7.0):
            closed = abs_power_sphere_integral(n, p)
            quad = abs_power_sphere_integral(n, p, rule)
            rel = abs(quad - closed) / closed
            worst = max(worst, rel)
            ok &= rel <= 1e-8
    ok &= abs(k_np(1, 2.0) - 1.0) <= 1e-12
    ok &= abs(k_np(2, 2.0) - math.pi / 2) <= 1e-12
    ok &= abs(k_np(3, 2.0) - 2 * math.pi / 3) <= 1e-12
    report(1, ok, f"closed vs quadrature, worst rel diff {worst:.2e}",
           time.time() - t0, 5.0)


def test_criterion_02_k_monotone():
    t0 = time.time()
    grid = np.arange(1.0, 21.0)
    ok = True
    for n in (1, 2, 3):
        vals = k_np_values(n, grid)
        ok &= bool(np.all(np.diff(vals) < 0.0))
        ok &= vals[-1] < vals[0] / 5.0
    report(2, ok, "K_{n,s} strictly decreasing on s = 1..20, "
                  "K_{n,20} < K_{n,1}/5", time.time() - t0, 1.0)


def test_criterion_03_directional_identity():
    t0 = time.time()
    rng = np.random.default_rng(3)
    worst = 0.0
    for _ in range(20):
        n = int(rng.integers(1, 4))
        p = float(rng.uniform(1.0, 5.0))
        V = rng.normal(size=n) * float(rng.uniform(0.2, 3.0))
        chk = directional_identity_check(n, p, V)
        worst = max(worst, chk.rel_residual)
    report(3, worst <= 1e-8, f"20 random tuples, worst residual {worst:.2e}",
           time.time() - t0, 10.0)


def test_criterion_04_layer_cake():
    t0 = time.time()
    ok = True
    details = []

    phi, psi, alpha, box = lemma41_preset("unit-distance")
    res = layer_cake_check(phi, psi, alpha, box)
    ok &= res.residual <= 1e-6
    ok &= abs(res.lhs - 1.0 / 3.0) <= 1e-6
    ok &= abs(res.rhs_small - 1.0 / 3.0) <= 1e-6
    details.append(f"unit residual {res.residual:.1e}")

    worst_res, worst_dev = 0.0, 0.0
    for seed in range(5):
        phi, psi, alpha, box = lemma41_preset("random-smooth", seed)
        res = layer_cake_check(phi, psi, alpha, box)
        worst_res = max(worst_res, res.residual)
        lhs_b, small_b, large_b = oracles.layer_cake_brute(
            phi, psi, alpha, box, n_xy=1500, n_delta=200)
        rhs_b = small_b + large_b
        dev = max(abs(res.lhs - lhs_b) / max(1.0, abs(lhs_b)),
                  abs(res.rhs_small + res.rhs_large - rhs_b)
                  / max(1.0, abs(rhs_b)))
        worst_dev = max(worst_dev, dev)
    ok &= worst_res <= 1e-6
    ok &= worst_dev <= 5e-3
    details.append(f"5 random: residual {worst_res:.1e}, "
                   f"vs brute {worst_dev:.1e}")
    report(4, ok, "; ".join(details), time.time() - t0, 60.0)


def test_criterion_05_anisotropic_limit_one(nguyen_unit_sweep):
    rep, elapsed = nguyen_unit_sweep
    t0 = time.time()
    dev = rep.deviations
    ok = dev[-3] > dev[-2] > dev[-1]
    ok &= dev[-1] <= 0.05
    extra_dev = abs(rep.extrapolated - rep.target) / rep.target
    ok &= extra_dev <= 0.02
    report(5, ok, f"deviations {dev[-3]:.4f} > {dev[-2]:.4f} > {dev[-1]:.4f}, "
                  f"extrapolation off by {extra_dev:.3%}",
           elapsed + time.time() - t0, 120.0)


def test_criterion_06_anisotropic_limit_two():
    t0 = time.time()
    rep = run_sweep("nguyen-weighted", Gaussian(), P_VAR, DELTA_GRID)
    dev = rep.deviations
    ok = dev[-3] > dev[-2] > dev[-1]
    ok &= dev[-1] <= 0.05
    extra_dev = abs(rep.extrapolated - rep.target) / rep.target
    ok &= extra_dev <= 0.02

    # constant exponent: the weighted sweep is exactly twice the unit one
    p2 = constant(2.0)
    grid = [0.2, 0.1, 0.05]
    unit = run_sweep("nguyen-unit", Gaussian(), p2, grid)
    wtd = run_sweep("nguyen-weighted", Gaussian(), p2, grid)
    ratio_ok = all(abs(b.value - 2.0 * a.value) <= 1e-10 * max(1.0, b.value)
                   for a, b in zip(unit.values, wtd.values))
    ok &= ratio_ok
    report(6, ok, f"weighted deviations {dev[-3]:.4f} > {dev[-2]:.4f} > "
                  f"{dev[-1]:.4f}, extrapolation off {extra_dev:.3%}, "
                  f"2x pointwise: {ratio_ok}", time.time() - t0, 120.0)


def test_criterion_07_eps_limit():
    t0 = time.time()
    target = 2.0 * math.sqrt(math.pi / 2.0)
    rep = run_sweep("eps-small-jump", Gaussian(), constant(2.0),
                    [0.4, 0.2, 0.1, 0.05])
    extra_dev = abs(rep.extrapolated - target) / target
    ok = extra_dev <= 0.03
    ok &= abs(rep.target - target) <= 1e-6 * target
    report(7, ok, f"extrapolated {rep.extrapolated:.5f} vs 2*sqrt(pi/2) = "
                  f"{target:.5f} (off {extra_dev:.3%})",
           time.time() - t0, 120.0)


def test_criterion_08_uniform_bound(nguyen_unit_sweep):
    rep, _ = nguyen_unit_sweep
    t0 = time.time()
    sup = sup_over_grid(rep)
    ok = sup <= 3.0 * rep.target
    vals = [v.value for v in rep.values]
    for d, prev, cur in zip(rep.grid[1:], vals[:-1], vals[1:]):
        if d <= 0.05:
            ok &= cur <= 1.10 * prev
    report(8, ok, f"sup {sup:.5f} <= 3 x target {rep.target:.5f}; "
                  "no >10% growth past delta = 0.05",
           time.time() - t0, 120.0)


def test_criterion_09_bbm_limit():
    t0 = time.time()
    rep = run_sweep("bbm", Tent(), constant(2.0), [0.7, 0.8, 0.9, 0.95])
    extra_dev = abs(rep.extrapolated - 2.0) / 2.0
    ok = extra_dev <= 0.03
    ok &= abs(rep.target - 2.0) <= 1e-6
    report(9, ok, f"extrapolated {rep.extrapolated:.5f} vs 2.0 "
                  f"(off {extra_dev:.3%}, fit "
                  f"{'flagged' if rep.fit_flagged else 'ok'})",
           time.time() - t0, 60.0)


def test_criterion_10_luxemburg():
    t0 = time.time()
    ok = True
    pairs = [(Gaussian(), 2.0), (Gaussian(sigma=0.6), 3.0),
             (Gaussian(scale=2.0), 1.5), (Tent(), 2.0),
             (Tent(scale=0.5), 4.0), (Tent(), 1.2), (SmoothBump(), 2.0),
             (SmoothBump(scale=3.0), 2.5), (Gaussian(center=1.0), 5.0),
             (SmoothBump(), 1.1)]
    worst = 0.0
    for u, p in pairs:
        ref = oracles.riemann_modular_1d(
            lambda x: np.abs(u.eval(x)) ** p, -12.0, 12.0) ** (1.0 / p)
        res = luxemburg_norm(u, constant(p))
        rel = abs(res.value - ref) / ref
        worst = max(worst, rel)
        ok &= rel <= 1e-8 and res.iterations <= 60

    rng = np.random.default_rng(10)
    makers = [
        lambda r: Gaussian(sigma=r.uniform(0.5, 2.0), center=r.uniform(-1, 1),
                           scale=r.uniform(0.3, 3.0)),
        lambda r: Tent(scale=r.uniform(0.3, 3.0)),
        lambda r: SmoothBump(scale=r.uniform(0.3, 5.0)),
    ]
    exps = [
        lambda r: constant(r.uniform(1.1, 4.0)),
        lambda r: inverse_quadratic(r.uniform(1.1, 3.0), r.uniform(0.0, 2.0)),
        lambda r: inverse_quadratic(r.uniform(2.0, 4.0), -r.uniform(0.0, 0.9)),
    ]
    sandwich_ok = True
    for k in range(100):
        chk = norm_modular_inequality_check(makers[k % 3](rng),
                                            exps[k % 3](rng))
        sandwich_ok &= chk.holds
    ok &= sandwich_ok
    report(10, ok, f"10 classical pairs worst rel {worst:.1e}; sandwich "
                   f"held on 100 randomized cases: {sandwich_ok}",
           time.time() - t0, 30.0)


def test_criterion_11_maximal_counterexample():
    t0 = time.time()
    table = counterexample_experiment([10.0, 100.0, 1000.0, 10000.0])
    target_u = 3.0 * 2.0 ** (-1.0 / 3.0)
    ok = abs(table.modular_u - target_u) <= 1e-6
    ok &= 0.25 <= table.growth_exponent_fit <= 0.45
    ratio = table.modular_mu[3] / table.modular_mu[1]
    ok &= ratio >= 3.0
    report(11, ok, f"modular(u) = {table.modular_u:.8f} (target {target_u:.8f}), "
                   f"growth fit {table.growth_exponent_fit:.3f} in [0.25, 0.45], "
                   f"R ratio {ratio:.2f} >= 3", time.time() - t0, 60.0)


def test_criterion_12_bmo():
    t0 = time.time()
    const = SampledTable([-5.0, 5.0], [4.0, 4.0])
    res_c = bmo_quantity(const, (-4.0, 4.0), [(0.0, 1.0), (1.0, 2.0)])
    ok = res_c.sup == 0.0

    lin = SampledTable([-1.0, 2.0], [-1.0, 2.0])
    res_l = bmo_quantity(lin, (-1.0, 2.0), [(0.5, 0.5)])
    ok &= abs(res_l.per_ball[0] - 1.0 / 3.0) <= 1e-6

    logf = LogSingular((0.0, 1.0))
    balls = [(1.5 * 2.0 ** (-k), 0.5 * 2.0 ** (-k)) for k in range(1, 11)]
    res_d = bmo_quantity(logf, (0.0, 1.0), balls)
    vals = np.asarray(res_d.per_ball)
    ratio = float(vals.max() / vals.min())
    ok &= ratio <= 3.0
    report(12, ok, f"constant -> 0 exactly; linear ball = 1/3 +- 1e-6; "
                   f"log dyadic max/min {ratio:.4f} <= 3",
           time.time() - t0, 30.0)


def test_criterion_13_determinism(tmp_path):
    t0 = time.time()
    scenarios = [
        (["constants", "--n", "1,2,3", "--p", "1,2,7"], ["constants.csv"]),
        (["lemma41", "--preset", "unit-distance"],
         ["unit-distance.lemma41.json"]),
        (["lemma41", "--preset", "random-smooth", "--seed", "5"],
         ["random-smooth.lemma41.json"]),
        (["counterexample", "--r-values", "10,100"], ["counterexample.csv"]),
    ]
    cfg_specs = {
        "sweep": {"name": "s", "field": {"family": "tent"},
                  "exponent": {"family": "constant", "value": 2.0},
                  "kind": "nguyen-unit", "grid": [0.2, 0.1, 0.05],
                  "quad": {"rel_tol": 1e-5}},
        "eps": {"name": "s", "field": {"family": "gaussian"},
                "exponent": {"family": "constant", "value": 2.0},
                "epsilon": 0.3, "mode": "small_jump",
                "quad": {"outer_x_tolerance": 1e-5}},
        "bbm": {"name": "s", "field": {"family": "tent"}, "p": 2.0, "s": 0.8,
                "quad": {"outer_x_tolerance": 1e-5}},
        "nguyen": {"name": "s", "field": {"family": "gaussian"},
                   "exponent": {"family": "inverse-quadratic", "a": 2.0,
                                "b": 1.0}, "delta": 0.1,
                   "quad": {"rel_tol": 1e-5}},
        "norm": {"name": "s", "field": {"family": "gaussian"},
                 "exponent": {"family": "inverse-quadratic", "a": 2.0,
                              "b": 1.0}},
        "modular": {"name": "s", "field": {"family": "gaussian"},
                    "exponent": {"family": "constant", "value": 2.0}},
        "fracnorm": {"name": "s", "field": {"family": "tent"},
                     "exponent": {"family": "constant", "value": 2.0},
                     "s": 0.5, "quad": {"h_bracket_grid": 64}},
        "maximal": {"name": "s", "field": {"family": "gaussian"},
                    "points": [0.0, 1.0], "r_max": 4.0},
        "bmo": {"name": "s", "field": {"family": "log-singular",
                                       "window": [0.0, 1.0]},
                "interior": [0.0, 1.0], "balls": [[0.375, 0.125],
                                                  [0.1875, 0.0625]]},
        "diagnose-exponent": {"name": "s",
                              "exponent": {"family": "inverse-quadratic",
                                           "a": 2.0, "b": 1.0},
                              "n_pairs": 500, "range": [-10.0, 10.0]},
    }
    # the one-sided maximal scan, crowding toward a singular point
    one_sided = {"name": "s", "field": {"family": "log-singular",
                                        "window": [-1.0, 2.0]},
                 "points": [-0.5, -1e-3, 0.25, 1.5], "r_max": 3.0,
                 "omega": -1}
    for k, (cmd, cfg) in enumerate([*cfg_specs.items(),
                                    ("maximal", one_sided)]):
        path = tmp_path / f"{cmd}_{k}.json"
        path.write_text(json.dumps(cfg))
        scenarios.append(([cmd, "--config", str(path)], None))

    ok = True
    for k, (argv, fixed_names) in enumerate(scenarios):
        payloads = []
        for run in ("a", "b"):
            out = tmp_path / f"{argv[0]}_{k}_{run}"
            rc = cli_main(argv + ["--out", str(out), "--quiet"])
            assert rc == 0, argv
            names = fixed_names or sorted(
                p.name for p in out.iterdir())
            payloads.append(b"".join((out / n).read_bytes() for n in names))
        ok &= payloads[0] == payloads[1]
    report(13, ok, f"{len(scenarios)} scenario re-runs byte-identical",
           time.time() - t0, 120.0)
