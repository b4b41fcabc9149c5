"""The four benchmark workloads, built from the seed.

Each workload is a list of operations.  An operation is one public call
into vexs: a `vexs.cli.main` subcommand with a generated config and
`--out` in a scratch directory where a subcommand covers the job, else
the library function.  Its output yields the bytes the determinism
check hashes and checks against references from `references`, which
never come from vexs itself.

A check is a ratio |result - reference| / tolerance; it passes at <= 1.
Only `scored` checks enter the `err_ratio` metric: accuracy checks on
inputs that do not depend on the seed.  A seed-drawn input moves its own
ratio from run to run while the code stays the same, and a work bound
(bisection iterations) is not an accuracy; both still gate correctness.
"""

from __future__ import annotations

import functools
import json
import math
import os
import shutil
from dataclasses import dataclass
from typing import Callable

import numpy as np

import references as ref

# mirrors scenarios/gaussian_varp_nguyen.json, tent_bbm.json and
# gaussian_eps_small_jump.json; kept here so that editing a scenario
# cannot silently change the benchmark
VARP_NGUYEN_SWEEP = {
    "name": "gaussian_varp_nguyen",
    "field": {"family": "gaussian", "sigma": 1.0, "center": 0.0,
              "scale": 1.0},
    "exponent": {"family": "inverse-quadratic", "a": 2.0, "b": 1.0},
    "kind": "nguyen-unit",
    "grid": [0.2, 0.1, 0.05, 0.025, 0.0125],
}
NGUYEN_2D = {
    "name": "gaussian_p2_2d",
    "field": {"family": "gaussian", "dimension": 2},
    "exponent": {"family": "constant", "value": 2.0, "dimension": 2},
    "delta": 0.1,
    # the default 2D rule (128 directions) runs for over ten minutes
    "quad": {"sphere_rule": {"dimension": 2, "node_count": 16},
             "h_bracket_grid": 64, "outer_x_tolerance": 1e-4,
             "rel_tol": 1e-4},
}
TENT_BBM_SWEEP = {
    "name": "tent_bbm",
    "field": {"family": "tent"},
    "exponent": {"family": "constant", "value": 2.0},
    "kind": "bbm",
    "grid": [0.7, 0.8, 0.9, 0.95],
}
EPS_SWEEP = {
    "name": "gaussian_eps_small_jump",
    "field": {"family": "gaussian", "sigma": 1.0, "center": 0.0,
              "scale": 1.0},
    "exponent": {"family": "constant", "value": 2.0},
    "kind": "eps-small-jump",
    "grid": [0.4, 0.2, 0.1, 0.05],
}
TENT_FRACNORM = {
    "name": "tent_fracnorm",
    "field": {"family": "tent"},
    "exponent": {"family": "constant", "value": 2.0},
    "s": 0.5,
}

# criterion 10's classical pairs: (field config, p, profile, support)
_GAUSS = (lambda sigma=1.0, center=0.0, scale=1.0:
          lambda x: scale * math.exp(-((x - center) / sigma) ** 2))
_TENT = lambda scale=1.0: lambda x: scale * max(0.0, 1.0 - abs(x))
_BUMP = (lambda scale=1.0:
         lambda x: scale * math.exp(-1.0 / (1.0 - x * x)) if x * x < 1.0
         else 0.0)
LUXEMBURG_PAIRS = [
    ({"family": "gaussian"}, 2.0, _GAUSS(), (-40.0, 40.0)),
    ({"family": "gaussian", "sigma": 0.6}, 3.0, _GAUSS(sigma=0.6),
     (-40.0, 40.0)),
    ({"family": "gaussian", "scale": 2.0}, 1.5, _GAUSS(scale=2.0),
     (-40.0, 40.0)),
    ({"family": "tent"}, 2.0, _TENT(), (-1.0, 1.0)),
    ({"family": "tent", "scale": 0.5}, 4.0, _TENT(0.5), (-1.0, 1.0)),
    ({"family": "tent"}, 1.2, _TENT(), (-1.0, 1.0)),
    ({"family": "smooth-bump"}, 2.0, _BUMP(), (-1.0, 1.0)),
    ({"family": "smooth-bump", "scale": 3.0}, 2.5, _BUMP(3.0), (-1.0, 1.0)),
    ({"family": "gaussian", "center": 1.0}, 5.0, _GAUSS(center=1.0),
     (-39.0, 41.0)),
    ({"family": "smooth-bump"}, 1.1, _BUMP(), (-1.0, 1.0)),
]

# preset seeds of `lemma41 --preset random-smooth` that the run seed
# draws from.  A random-smooth check costs 0.1 s to 11.6 s of CPU
# depending on its preset seed (measured over seeds 0-59), which would
# make wall time a property of the seed rather than of the code.  These
# four all use the full 128 delta panels and cost 2.5-2.8 s each.
RANDOM_SMOOTH_POOL = (4, 11, 33, 40)

SANDWICH_CASES = 100


@dataclass
class Check:
    label: str
    ratio: float
    scored: bool = True


@dataclass
class Operation:
    """One public call.  `key` names the call and its inputs and is the
    determinism store's key.  `call` runs it (this is what a pass times)
    and returns its output: the files a subcommand wrote, or the library
    result.  `check` turns that output into the payload bytes to hash and
    the checks against references, outside the timed region."""
    key: str
    call: Callable[[], object]
    check: Callable[[object], tuple[bytes, list[Check]]]


class OperationError(Exception):
    pass


def rel(value, target, tol):
    return abs(value - target) / (tol * abs(target))


def absolute(value, target, tol):
    return abs(value - target) / tol


def within(value, lo, hi):
    return abs(value - 0.5 * (lo + hi)) / (0.5 * (hi - lo))


def holds(flag):
    return 0.0 if flag else math.inf


class Context:
    """Scratch space inside the checkout: generated configs and one fresh
    output directory per CLI call."""

    def __init__(self, root: str):
        self.root = root
        self.config_dir = os.path.join(root, "configs")
        os.makedirs(self.config_dir, exist_ok=True)
        self._n = 0

    def config(self, name: str, cfg: dict) -> str:
        path = os.path.join(self.config_dir, f"{name}.json")
        with open(path, "w") as fh:
            json.dump(cfg, fh, indent=1, sort_keys=True)
        return path

    def cli(self, argv: list[str]) -> dict[str, bytes]:
        """Run one subcommand in-process; return its output files."""
        from vexs.cli import main
        self._n += 1
        out = os.path.join(self.root, f"out{self._n}")
        try:
            rc = main(argv + ["--out", out, "--quiet"])
            if rc != 0:
                raise OperationError(f"vexs {' '.join(argv)} exited {rc}")
            files = {}
            for name in sorted(os.listdir(out)):
                with open(os.path.join(out, name), "rb") as fh:
                    files[name] = fh.read()
            return files
        finally:
            shutil.rmtree(out, ignore_errors=True)


def _payload(files: dict[str, bytes]) -> bytes:
    return b"".join(name.encode() + b"\0" + body for name, body in
                    sorted(files.items()))


def _cli_op(ctx: Context, key: str, argv: list[str], output: str,
            checks: Callable[[dict], list[Check]]) -> Operation:
    """A subcommand whose JSON output `output` is checked by `checks`."""
    def check(files):
        return _payload(files), checks(json.loads(files[output]))
    return Operation(key, lambda: ctx.cli(argv), check)


def _sweep_checks(rep, limit, limit_tol, target_ref, target_check):
    dev = abs(rep["extrapolated"] - limit) / abs(limit)
    return [Check("extrapolated vs limit", dev / limit_tol),
            Check("target vs reference",
                  target_check(rep["target"], target_ref))]


@functools.cache
def _pair_norm(k: int) -> float:
    _, p, profile, support = LUXEMBURG_PAIRS[k]
    return ref.lp_norm(profile, p, *support, kinks=(-1.0, 0.0, 1.0))


# ----------------------------------------------------------------------
# threshold: superlevel bracketing, vector_bisect, far_radius, 2D rule
# ----------------------------------------------------------------------

def threshold(seed: int, ctx: Context) -> list[Operation]:
    def sweep_checks(rep):
        # criterion 5: extrapolation within 2% of the target, the last
        # three deviations decreasing, the last one within 5%
        dev = rep["deviations"]
        return _sweep_checks(
            rep, rep["target"], 0.02,
            ref.varp_gaussian_local_energy(),
            lambda v, r: rel(v, r, 1e-6)) + [
            Check("deviations decrease", holds(dev[-3] > dev[-2] > dev[-1])),
            Check("last deviation", dev[-1] / 0.05)]

    def nguyen_checks(rep):
        return [Check("2D value vs pi^2/2",
                      rel(rep["value"], ref.NGUYEN_2D_TARGET, 0.05))]

    return [
        _cli_op(ctx, "sweep:gaussian_varp_nguyen",
                ["sweep", "--config",
                 ctx.config("varp_sweep", VARP_NGUYEN_SWEEP)],
                "gaussian_varp_nguyen.report.json", sweep_checks),
        _cli_op(ctx, "nguyen:gaussian_p2_2d",
                ["nguyen", "--config", ctx.config("nguyen_2d", NGUYEN_2D)],
                "gaussian_p2_2d.nguyen.json", nguyen_checks),
    ]


# ----------------------------------------------------------------------
# power: t = h^beta ray integrals (BBM s-sweep, epsilon sweep)
# ----------------------------------------------------------------------

def power(seed: int, ctx: Context) -> list[Operation]:
    def bbm_checks(rep):
        # criterion 9, plus each value against the exact tent modular
        return _sweep_checks(
            rep, ref.TENT_BBM_LIMIT, 0.03, ref.TENT_BBM_LIMIT,
            lambda v, r: absolute(v, r, 1e-6)) + [
            Check(f"bbm(s={s}) vs exact",
                  rel(v, ref.tent_bbm(s), 1e-6))
            for s, v in zip(rep["grid"], rep["values"])]

    def eps_checks(rep):
        # criterion 7
        return _sweep_checks(rep, ref.EPS_GAUSSIAN_TARGET, 0.03,
                             ref.EPS_GAUSSIAN_TARGET,
                             lambda v, r: rel(v, r, 1e-6))

    return [
        _cli_op(ctx, "sweep:tent_bbm",
                ["sweep", "--config", ctx.config("tent_bbm", TENT_BBM_SWEEP)],
                "tent_bbm.report.json", bbm_checks),
        _cli_op(ctx, "sweep:gaussian_eps_small_jump",
                ["sweep", "--config", ctx.config("eps_sweep", EPS_SWEEP)],
                "gaussian_eps_small_jump.report.json", eps_checks),
    ]


# ----------------------------------------------------------------------
# layer_cake: _PairSection sectioning under adaptive_integrate over delta
# ----------------------------------------------------------------------

def layer_cake(seed: int, ctx: Context) -> list[Operation]:
    rng = np.random.default_rng(seed)
    preset_seed = int(RANDOM_SMOOTH_POOL[rng.integers(len(RANDOM_SMOOTH_POOL))])

    def unit_checks(res):
        return [
            Check("lhs vs 1/3", absolute(res["lhs"], 1.0 / 3.0, 1e-6)),
            Check("rhs_small vs 1/3",
                  absolute(res["rhs_small"], 1.0 / 3.0, 1e-6)),
            Check("residual", res["residual"] / 1e-6)]

    def random_checks(res):
        return [Check("residual", res["residual"] / 1e-6, scored=False)]

    return [
        _cli_op(ctx, "lemma41:unit-distance",
                ["lemma41", "--preset", "unit-distance"],
                "unit-distance.lemma41.json", unit_checks),
        _cli_op(ctx, f"lemma41:random-smooth:{preset_seed}",
                ["lemma41", "--preset", "random-smooth",
                 "--seed", str(preset_seed)],
                "random-smooth.lemma41.json", random_checks),
    ]


# ----------------------------------------------------------------------
# spaces_maximal: maximal scans, bmo, Luxemburg and fractional norms
# ----------------------------------------------------------------------

def _sandwich_cases(seed: int, count: int):
    """Criterion 10's randomized sandwich family, drawn from `seed`."""
    from vexs import Gaussian, SmoothBump, Tent, constant, inverse_quadratic
    rng = np.random.default_rng(seed)
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
    return [(makers[k % 3](rng), exps[k % 3](rng)) for k in range(count)]


def _counterexample_op() -> Operation:
    # the library call, not `vexs counterexample`: that subcommand's CSV
    # writes its modular_Mu column as "np.float64(...)" under numpy 2,
    # which no CSV reader parses as a number
    import vexs
    r_values = [10.0, 100.0, 1000.0, 10000.0]

    def check(table):
        mu = [float(m) for m in table.modular_mu]
        payload = repr((table.r_values, float(table.modular_u), mu,
                        float(table.growth_exponent_fit))).encode()
        # criterion 11
        return payload, [
            Check("modular(u) vs 3*2^(-1/3)",
                  absolute(table.modular_u, ref.COUNTEREXAMPLE_MODULAR, 1e-6)),
            Check("growth fit in [0.25, 0.45]",
                  within(table.growth_exponent_fit, 0.25, 0.45)),
            Check("M(u) modular ratio R=1e4 / R=1e2 >= 3",
                  3.0 / (mu[3] / mu[1]))]
    return Operation("counterexample",
                     lambda: vexs.counterexample_experiment(r_values), check)


# criterion 12: a constant field gives 0 exactly, the linear ball 1/3,
# and the log field's dyadic balls stay within a factor 3 of each other
BMO_CASES = {
    "constant": ({"family": "sampled-table", "xs": [-5.0, 5.0],
                  "us": [4.0, 4.0]},
                 [-4.0, 4.0], [[0.0, 1.0], [1.0, 2.0]],
                 lambda r: holds(r["sup"] == 0.0)),
    "linear": ({"family": "sampled-table", "xs": [-1.0, 2.0],
                "us": [-1.0, 2.0]},
               [-1.0, 2.0], [[0.5, 0.5]],
               lambda r: absolute(r["per_ball"][0], 1.0 / 3.0, 1e-6)),
    "log": ({"family": "log-singular", "window": [0.0, 1.0]},
            [0.0, 1.0],
            [[1.5 * 2.0 ** -k, 0.5 * 2.0 ** -k] for k in range(1, 11)],
            lambda r: (max(r["per_ball"]) / min(r["per_ball"]) - 1.0) / 2.0),
}


def spaces_maximal(seed: int, ctx: Context) -> list[Operation]:
    import vexs

    ops = [_counterexample_op()]
    for kind, (field, interior, balls, ratio) in BMO_CASES.items():
        cfg = ctx.config(f"bmo_{kind}", {"name": kind, "field": field,
                                         "interior": interior,
                                         "balls": balls})
        ops.append(_cli_op(
            ctx, f"bmo:{kind}", ["bmo", "--config", cfg], f"{kind}.bmo.json",
            lambda r, kind=kind, ratio=ratio: [Check(f"bmo {kind}",
                                                     ratio(r))]))

    for k, (field, p, _, _) in enumerate(LUXEMBURG_PAIRS):
        cfg = ctx.config(f"norm{k}", {
            "name": f"pair{k}", "field": field,
            "exponent": {"family": "constant", "value": p}})

        def norm_checks(res, k=k):
            # criterion 10: relative 1e-8 against the L^p norm, at most 60
            # bisection iterations
            return [Check("norm vs L^p reference",
                          rel(res["norm"], _pair_norm(k), 1e-8)),
                    Check("bisection iterations <= 60",
                          res["bracket_iterations"] / 60.0, scored=False)]
        ops.append(_cli_op(ctx, f"norm:pair{k}", ["norm", "--config", cfg],
                           f"pair{k}.norm.json", norm_checks))

    def sandwich_check(chk):
        payload = repr((chk.norm, chk.modular_at_1, chk.lower, chk.upper,
                        chk.holds)).encode()
        return payload, [Check("norm-modular sandwich", holds(chk.holds),
                               scored=False)]
    for k, (u, p) in enumerate(_sandwich_cases(seed, SANDWICH_CASES)):
        ops.append(Operation(
            f"sandwich:{seed}:{k}",
            lambda u=u, p=p: vexs.norm_modular_inequality_check(u, p),
            sandwich_check))

    ops.append(_cli_op(
        ctx, "fracnorm:tent",
        ["fracnorm", "--config", ctx.config("tent_fracnorm", TENT_FRACNORM)],
        "tent_fracnorm.fracnorm.json",
        lambda r: [Check("fracnorm vs exact",
                         rel(r["value"], ref.tent_fracnorm(TENT_FRACNORM["s"]),
                             1e-6))]))
    return ops


WORKLOADS = {
    "threshold": threshold,
    "power": power,
    "layer_cake": layer_cake,
    "spaces_maximal": spaces_maximal,
}

# traced-run self-check: each workload must reach the layers it is there
# to stress (count > 0) and must not reach its named bypass (count == 0),
# so that an edit cannot quietly turn one workload into another
STRESSED = {
    "threshold": ("functionals.superlevel_intervals.calls",
                  "quadrature.vector_bisect.calls",
                  "fields.ScalarField.far_radius.calls",
                  "sphere.default_rule.calls"),
    "power": ("functionals.ray_slope.calls",
              "functionals.bbm_functional.calls",
              "functionals.eps_functional.calls"),
    "layer_cake": ("functionals.layer_cake_check.calls",
                   "quadrature.vector_bisect.calls", "lemma41.phi_points"),
    "spaces_maximal": ("maximal.hl_maximal.calls", "quadrature.golden_max.calls",
                       "maximal.bmo_quantity.calls",
                       "quadrature.vector_bisect.calls",
                       "spaces.luxemburg_norm.calls",
                       "spaces.frac_seminorm.calls"),
}
BYPASSED = {
    "threshold": ("functionals.ray_slope.calls", "lemma41.phi_points"),
    "power": ("quadrature.vector_bisect.calls", "lemma41.phi_points"),
    "layer_cake": ("functionals.ray_slope.calls",
                   "fields.ScalarField.eval.points"),
    "spaces_maximal": ("lemma41.phi_points",),
}


def bypass_failures(workload: str, layers: dict) -> list[str]:
    return ([f"{m} = 0 but {workload} must reach it"
             for m in STRESSED[workload] if not layers[m] > 0] +
            [f"{m} = {layers[m]} but {workload} must bypass it"
             for m in BYPASSED[workload] if layers[m] != 0])
