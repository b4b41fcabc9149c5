"""Scenario runner: every operation as a reproducible command.

Configs are strict JSON: any unrecognized key aborts with exit code 2,
so a typo in a tolerance never silently runs with defaults.  Outputs are
written atomically under --out.  Exit codes: 0 success, 2 validation
failure, 3 numerical divergence (with the offending operation named).
"""

from __future__ import annotations

import argparse
import json
import math
import numbers
import os
import sys

import numpy as np

from . import exponents, fields, maximal, spaces, sweeps
from .errors import (BracketingError, ConfigError, DivergenceError,
                     DomainError, UnsupportedFieldError, VexsError)
from .functionals import (QuadratureSpec, bbm_functional, eps_functional,
                          layer_cake_check, nguyen_functional)
from .reporting import write_csv, write_json_report, write_plot_data
from .sphere import default_rule, k_np


def check_keys(cfg: dict, allowed: set, context: str,
               required: tuple = ()) -> None:
    unknown = set(cfg) - allowed
    if unknown:
        raise ConfigError(
            f"unknown key(s) in {context}: {', '.join(sorted(unknown))}")
    missing = [k for k in required if k not in cfg]
    if missing:
        raise ConfigError(f"{context} needs key(s): {', '.join(missing)}")


def real(value) -> float:
    """A finite JSON number as a float (true, "1e-3" and NaN are
    refused); the default `kind` of `number`."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value):
        raise TypeError("not a finite number")
    return float(value)


# how `number` names a required shape
_SHAPE_NAMES = {(): "a single value", (2,): "a pair", (None,): "a flat list",
                (None, 2): "a list of pairs"}


def number(cfg: dict, key: str, context: str, default=None, kind=real,
           shape=None):
    """kind(cfg[key]), or `default` when the key is absent.  A value that
    kind rejects, or whose shape is not `shape` (None matches any
    length), is a ConfigError naming the key."""
    if key not in cfg:
        return default
    try:
        value = kind(cfg[key])
    except (TypeError, ValueError):
        what = ("a non-negative integer" if kind is integer else
                "numeric and finite")
    else:
        got = np.shape(value)
        if shape is None or (len(got) == len(shape) and all(
                want in (None, n) for want, n in zip(shape, got))):
            return value
        what = _SHAPE_NAMES[shape]
    raise ConfigError(f"{context}: {key!r} must be {what}, got {cfg[key]!r}")


def integer(value):
    """A non-negative JSON integer as given (64.5, "64", true and -1 are
    refused), or a list of them as a tuple; the `kind` of `number` for
    counts and seeds."""
    if isinstance(value, list):
        return tuple(integer(v) for v in value)
    if isinstance(value, bool) or not isinstance(value, int) or value < 0:
        raise TypeError("not a non-negative integer")
    return value


def floats(value) -> np.ndarray:
    """A number or a (nested) list of numbers, each as `real` takes it,
    as a float array; the `kind` of `number` for list values."""
    if isinstance(value, list):
        return np.asarray([floats(v) for v in value], dtype=float)
    return np.asarray(real(value))


def number_list(text, flag: str, context: str, kind=real) -> list:
    """A comma-separated command-line list, read as JSON and each item
    checked like `number`."""
    try:
        items = json.loads(f"[{text}]")
    except ValueError:
        raise ConfigError(f"{context}: {flag!r} must be a comma-separated "
                          f"list of numbers, got {text!r}")
    return [number({flag: v}, flag, context, kind=kind) for v in items]


def parse_field(cfg: dict) -> fields.ScalarField:
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("field config must be a mapping with a family")
    fam = cfg["family"]
    scale = number(cfg, "scale", "field", 1.0)
    dim = number(cfg, "dimension", "field", 1, integer)
    if fam == "gaussian":
        check_keys(cfg, {"family", "sigma", "center", "scale", "dimension"},
                   "field")
        return fields.Gaussian(number(cfg, "sigma", "field", 1.0),
                               number(cfg, "center", "field", 0.0, floats),
                               scale, dim)
    if fam == "tent":
        check_keys(cfg, {"family", "scale", "dimension"}, "field")
        return fields.Tent(scale, dim)
    if fam == "smooth-bump":
        check_keys(cfg, {"family", "scale", "dimension"}, "field")
        return fields.SmoothBump(scale, dim)
    if fam == "power-tail":
        check_keys(cfg, {"family", "scale"}, "field")
        return fields.PowerTail(scale)
    if fam == "log-singular":
        check_keys(cfg, {"family", "window"}, "field")
        return fields.LogSingular(
            tuple(number(cfg, "window", "field", (0.0, 1.0), floats, (2,))))
    if fam == "sampled-table":
        check_keys(cfg, {"family", "csv", "xs", "us"}, "field",
                   () if "csv" in cfg else ("xs", "us"))
        if "csv" in cfg:
            if not isinstance(cfg["csv"], str):
                raise ConfigError(f"field: 'csv' must be a file path, got "
                                  f"{cfg['csv']!r}")
            return fields.SampledTable.from_csv(cfg["csv"])
        return fields.SampledTable(number(cfg, "xs", "field", kind=floats),
                                   number(cfg, "us", "field", kind=floats))
    raise ConfigError(f"unknown field family {fam!r}")


def parse_exponent(cfg: dict) -> exponents.ExponentField:
    if not isinstance(cfg, dict) or "family" not in cfg:
        raise ConfigError("exponent config must be a mapping with a family")
    fam = cfg["family"]
    dim = number(cfg, "dimension", "exponent", 1, integer)
    if fam == "constant":
        check_keys(cfg, {"family", "value", "dimension"}, "exponent",
                   ("value",))
        return exponents.constant(number(cfg, "value", "exponent"), dim)
    if fam == "inverse-quadratic":
        check_keys(cfg, {"family", "a", "b", "dimension"}, "exponent",
                   ("a", "b"))
        return exponents.inverse_quadratic(
            number(cfg, "a", "exponent"), number(cfg, "b", "exponent"), dim)
    if fam == "sin-squared":
        check_keys(cfg, {"family", "a", "b", "direction", "dimension"},
                   "exponent", ("a", "b", "direction"))
        return exponents.sin_squared(
            number(cfg, "a", "exponent"), number(cfg, "b", "exponent"),
            number(cfg, "direction", "exponent", kind=floats), dim)
    if fam == "piecewise-table":
        check_keys(cfg, {"family", "breaks", "values", "interp"}, "exponent",
                   ("breaks", "values"))
        return exponents.piecewise_table(
            number(cfg, "breaks", "exponent", kind=floats),
            number(cfg, "values", "exponent", kind=floats),
            cfg.get("interp", "const"))
    raise ConfigError(f"unknown exponent family {fam!r}")


QUAD_KEYS = frozenset({"truncation_radius", "sphere_rule", "outer_x_tolerance",
                       "h_bracket_grid", "rel_tol"})
# the keys a modular (and so a norm or the counterexample's) reads in 1D
MODULAR_KEYS = frozenset({"truncation_radius", "outer_x_tolerance", "rel_tol"})


def threshold_keys(u) -> frozenset:
    """The quad keys the threshold functional reads: no 1D ray grid."""
    return QUAD_KEYS - ({"h_bracket_grid"} if u.dimension == 1 else set())


def parse_quad(cfg: dict | None, used=QUAD_KEYS,
               context: str = "quad") -> QuadratureSpec:
    """A QuadratureSpec from a quad config.  `used` names the keys the
    computation reads; any other key exits 2, as an unknown key does."""
    if cfg is None:
        return QuadratureSpec()
    check_keys(cfg, used, context)
    rule = None
    if "sphere_rule" in cfg:
        rc = cfg["sphere_rule"]
        check_keys(rc, {"dimension", "node_count"}, "sphere_rule",
                   ("dimension",))
        dim = number(rc, "dimension", "sphere_rule", kind=integer)
        if dim == 1 and "node_count" in rc:
            raise ConfigError("sphere_rule: 'node_count' is unused in 1D")
        nc = number(rc, "node_count", "sphere_rule", kind=integer,
                    shape=(2,) if dim == 3 else ())
        if nc is not None and np.min(nc) < 1:
            raise ConfigError("sphere_rule: 'node_count' must be positive")
        rule = default_rule(dim, nc)
    kwargs = {k: number(cfg, k, context,
                        kind=integer if k == "h_bracket_grid" else real)
              for k in QUAD_KEYS - {"sphere_rule"} if k in cfg}
    return QuadratureSpec(sphere_rule=rule, **kwargs)


def parse_field_exponent(cfg: dict, context: str):
    """The field and exponent of a config, which must share a dimension."""
    u = parse_field(cfg["field"])
    p = parse_exponent(cfg["exponent"])
    if u.dimension != p.dimension:
        raise ConfigError(f"{context}: the field is {u.dimension}D but the "
                          f"exponent is {p.dimension}D")
    return u, p


def load_config(path: str) -> dict:
    if not os.path.exists(path):
        raise ConfigError(f"config file not found: {path}")
    with open(path) as fh:
        try:
            cfg = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON in {path}: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be a JSON object")
    # every output file name starts with the config's name
    if "name" in cfg:
        name = cfg["name"]
        if not isinstance(name, str) or name in ("", ".", "..") or any(
                c in name for c in (os.sep, os.altsep, "\0") if c):
            raise ConfigError(f"'name' must be a file name without a path "
                              f"separator or NUL, got {name!r}")
    return cfg


# ----------------------------------------------------------------------
# layer-cake presets
# ----------------------------------------------------------------------

def lemma41_preset(name: str, seed: int = 0):
    """A (phi, psi, alpha, box) instance for the exchange check."""
    if name == "unit-distance":
        return (lambda x, y: np.abs(x - y),
                lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                (0.0, 1.0))
    if name == "always-large":
        return (lambda x, y: np.full_like(np.asarray(x, dtype=float), 2.0),
                lambda x, y: np.ones_like(np.asarray(x, dtype=float)),
                lambda x: np.zeros_like(np.asarray(x, dtype=float)),
                (0.0, 1.0))
    if name == "random-smooth":
        rng = np.random.default_rng(seed)
        a0 = 0.65 + 0.5 * rng.random()
        a1 = 0.9 * a0 * rng.random()
        kx, ky = rng.uniform(1.0, 4.0, size=2)
        ph = rng.uniform(0.0, 2 * math.pi, size=2)
        b0 = 0.4 + rng.random()
        b1 = 0.8 * b0 * rng.random()
        kp = rng.uniform(1.0, 3.0)
        pexp = exponents.inverse_quadratic(1.0 + rng.random(),
                                           0.5 + rng.random())
        eps = 0.1 + 0.5 * rng.random()

        def phi(x, y):
            return a0 + a1 * np.sin(kx * x + ph[0]) * np.cos(ky * y + ph[1])

        def psi(x, y):
            return b0 + b1 * np.sin(kp * (x + y))

        def alpha(x):
            return pexp.eval(np.asarray(x, dtype=float)) + eps - 1.0

        return phi, psi, alpha, (0.0, 1.0)
    raise ConfigError(f"unknown lemma41 preset {name!r}")


# ----------------------------------------------------------------------
# subcommands
# ----------------------------------------------------------------------

def _say(args, msg: str) -> None:
    if not args.quiet:
        print(msg)


def _out_path(args, filename: str) -> str:
    return os.path.join(args.out, filename)


def cmd_constants(args) -> int:
    ns = number_list(args.n, "--n", "constants", integer)
    ps = number_list(args.p, "--p", "constants")
    rows = []
    for n in ns:
        rule = default_rule(n)
        for p in ps:
            closed = k_np(n, p)
            quad = k_np(n, p, rule)
            rel = abs(closed - quad) / abs(closed)
            rows.append([n, p, closed, quad, rel])
            _say(args, f"K_{{{n},{p:g}}} = {closed:.12g} "
                       f"(quadrature {quad:.12g}, rel diff {rel:.2e})")
    if args.out:
        write_csv(_out_path(args, "constants.csv"),
                  ["n", "p", "K_closed", "K_quad", "rel_diff"], rows)
    return 0


def cmd_lemma41(args) -> int:
    cfg, preset = {}, args.preset
    if args.config:
        cfg = load_config(args.config)
        check_keys(cfg, {"name", "preset", "seed", "quad"}, "lemma41 config")
        preset = cfg.get("preset", "unit-distance")
    seed = number(cfg, "seed", "lemma41 config", args.seed, integer)
    # layer_cake_check reads rel_tol alone
    quad = parse_quad(cfg.get("quad"), {"rel_tol"}, "lemma41 quad")
    phi, psi, alpha, box = lemma41_preset(preset, seed)
    res = layer_cake_check(phi, psi, alpha, box, quad)
    ok = res.residual <= 1e-6
    return _report(args, {"name": cfg.get("name", preset)}, "lemma41", {
        "operation": "lemma41",
        "preset": preset,
        "seed": seed,
        "lhs": res.lhs,
        "lhs_delta_error": res.lhs_delta_error,
        "rhs_small": res.rhs_small,
        "rhs_large": res.rhs_large,
        "residual": res.residual,
        "pass": ok,
    }, f"lhs = {res.lhs:.6f}, rhs = {res.rhs_small + res.rhs_large:.6f} "
       f"(small {res.rhs_small:.6f}, large {res.rhs_large:.6f}), "
       f"residual = {res.residual:.3e} {'PASS' if ok else 'FAIL'}")


def _report(args, cfg: dict, kind: str, payload: dict, summary: str) -> int:
    """Print `summary`; under --out write `payload` to <name>.<kind>.json."""
    name = cfg.get("name", kind)
    _say(args, f"{kind} {name}: {summary}")
    if args.out:
        write_json_report(_out_path(args, f"{name}.{kind}.json"), payload)
    return 0


def _report_functional(args, cfg: dict, kind: str, params: dict, fv,
                       detail: str) -> int:
    return _report(args, cfg, kind, {
        "functional": kind,
        "params": params,
        "value": fv.value,
        "error_estimate": fv.error_estimate,
        "node_count": fv.node_count,
        "truncation_radius": fv.truncation_radius,
        "empty_superlevel": fv.empty_superlevel,
    }, f"value = {fv.value:.8g} ({detail})")


def cmd_nguyen(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "exponent", "delta", "weight_mode",
                     "quad"}, "nguyen config", ("field", "exponent", "delta"))
    delta = number(cfg, "delta", "nguyen config")
    u, p = parse_field_exponent(cfg, "nguyen config")
    quad = parse_quad(cfg.get("quad"), threshold_keys(u))
    mode = cfg.get("weight_mode", "unit")
    fv = nguyen_functional(u, p, delta, mode, quad)
    return _report_functional(args, cfg, "nguyen",
                              {"delta": delta, "weight_mode": mode}, fv,
                              f"delta {cfg['delta']}, {mode}")


def cmd_eps(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "exponent", "epsilon", "mode", "quad"},
               "eps config", ("field", "exponent"))
    u, p = parse_field_exponent(cfg, "eps config")
    mode = cfg.get("mode", "full")
    # the full and small-jump integrals read no rel_tol; the large-jump
    # tail is the threshold functional, which does
    quad = parse_quad(cfg.get("quad"), QUAD_KEYS - {"rel_tol"}
                      if mode in ("full", "small_jump") else threshold_keys(u))
    eps = number(cfg, "epsilon", "eps config", 0.5)
    fv = eps_functional(u, p, eps, mode, quad)
    return _report_functional(args, cfg, "eps",
                              {"epsilon": eps, "mode": mode}, fv,
                              f"epsilon {eps}, {mode}")


def cmd_bbm(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "p", "s", "quad"}, "bbm config",
               ("field", "p", "s"))
    p, s = number(cfg, "p", "bbm config"), number(cfg, "s", "bbm config")
    u = parse_field(cfg["field"])
    quad = parse_quad(cfg.get("quad"), QUAD_KEYS - {"rel_tol"})
    fv = bbm_functional(u, p, s, quad)
    return _report_functional(args, cfg, "bbm", {"p": p, "s": s}, fv,
                              f"p {cfg['p']}, s {cfg['s']}")


def cmd_sweep(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "exponent", "kind", "grid", "quad"},
               "sweep config", ("field", "exponent", "kind", "grid"))
    u, p = parse_field_exponent(cfg, "sweep config")
    quad = parse_quad(cfg.get("quad"), threshold_keys(u) if cfg["kind"] in (
        "nguyen-unit", "nguyen-weighted") else QUAD_KEYS)
    grid = number(cfg, "grid", "sweep config", kind=floats, shape=(None,))
    report = sweeps.run_sweep(cfg["kind"], u, p, grid, quad)
    name = cfg.get("name", cfg["kind"])
    _say(args, f"sweep {name}: extrapolated = {report.extrapolated:.6g}, "
               f"target = {report.target:.6g}, "
               f"fit exponent = {report.fit_exponent:.3g}"
               f"{' (flagged)' if report.fit_flagged else ''}")
    if args.out:
        payload = {"operation": "sweep", "name": name}
        payload.update(report.as_dict())
        write_json_report(_out_path(args, f"{name}.report.json"), payload)
        write_plot_data(_out_path(args, f"{name}.plot.dat"),
                        report.grid, [v.value for v in report.values],
                        annotation=f"target = {report.target!r}")
    return 0


def _modular_inputs(args, command: str, extra=()):
    """(cfg, u, p, weight, quad) of `modular` and `norm`.  Their outer
    integral reads no h_bracket_grid, and no sphere rule on a 1D field,
    so those quad keys are rejected instead of ignored."""
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "exponent", "weight", "quad", *extra},
               f"{command} config", ("field", "exponent"))
    u, p = parse_field_exponent(cfg, f"{command} config")
    weight = parse_field(cfg["weight"]) if "weight" in cfg else None
    used = MODULAR_KEYS | ({"sphere_rule"} if u.dimension > 1 else set())
    return cfg, u, p, weight, parse_quad(cfg.get("quad"), used)


def cmd_modular(args) -> int:
    cfg, u, p, weight, quad = _modular_inputs(args, "modular", ("lambda",))
    mv = spaces.modular(u, p, weight,
                        number(cfg, "lambda", "modular config", 1.0), quad)
    return _report(args, cfg, "modular", {
        "operation": "modular",
        "value": mv.value,
        "error_estimate": mv.error_estimate,
        "node_count": mv.node_count,
        "truncation_radius": mv.truncation_radius,
    }, f"value = {mv.value:.10g}")


def cmd_norm(args) -> int:
    cfg, u, p, weight, quad = _modular_inputs(args, "norm")
    res = spaces.luxemburg_norm(u, p, weight, quad)
    return _report(args, cfg, "norm", {
        "operation": "norm",
        "norm": res.value,
        "modular": res.modular_at_value,
        "bracket_iterations": res.iterations,
        "node_count": res.node_count,
    }, f"value = {res.value:.10g} ({res.iterations} Newton steps)")


def cmd_fracnorm(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "exponent", "s", "quad"},
               "fracnorm config", ("field", "exponent", "s"))
    u, base = parse_field_exponent(cfg, "fracnorm config")
    pair = exponents.PairExponentField(base)
    # the power functionals' outer path stops at a fixed radius with an
    # exact exterior term: no rel_tol
    quad = parse_quad(cfg.get("quad"), QUAD_KEYS - {"rel_tol"})
    res = spaces.frac_seminorm(u, number(cfg, "s", "fracnorm config"),
                               pair, quad)
    return _report(args, cfg, "fracnorm", {
        "operation": "fracnorm",
        "value": res.value,
        "bracket_iterations": res.iterations,
        "node_count": res.node_count,
    }, f"value = {res.value:.10g} ({res.iterations} Newton steps)")


def cmd_maximal(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "points", "r_max", "depth", "omega"},
               "maximal config", ("field", "points"))
    u = parse_field(cfg["field"])
    points = number(cfg, "points", "maximal config", None, floats, (None,))
    if points.size == 0:
        raise ConfigError("maximal config: 'points' must not be empty")
    profile = maximal.maximal_profile(
        u, points, number(cfg, "r_max", "maximal config", 10.0),
        number(cfg, "depth", "maximal config", 3, integer), cfg.get("omega"))
    return _report(args, cfg, "maximal", {
        "operation": "maximal",
        "points": list(profile.points),
        "values": list(profile.values),
        "search_radii": list(profile.search_radii),
        "depth": profile.depth,
    }, f"max value = {max(profile.values):.8g} "
       f"over {len(profile.points)} points")


def cmd_counterexample(args) -> int:
    if args.config:
        cfg = load_config(args.config)
        check_keys(cfg, {"name", "r_values", "quad"}, "counterexample config",
                   ("r_values",))
        r_values = number(cfg, "r_values", "counterexample config",
                          kind=floats, shape=(None,))
        name = cfg.get("name", "counterexample")
        quad = parse_quad(cfg.get("quad"), MODULAR_KEYS)
    else:
        r_values = number_list(args.r_values, "--r-values", "counterexample")
        name = "counterexample"
        quad = QuadratureSpec()
    table = maximal.counterexample_experiment(r_values, quad)
    _say(args, f"counterexample: modular(u) = {table.modular_u:.8g}, "
               f"growth exponent fit = {table.growth_exponent_fit:.4f}")
    if args.out:
        rows = [[R, table.modular_u, m, table.growth_exponent_fit]
                for R, m in zip(table.r_values, table.modular_mu)]
        write_csv(_out_path(args, f"{name}.csv"),
                  ["R", "modular_u", "modular_Mu", "growth_exponent_fit"],
                  rows)
    return 0


def cmd_bmo(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "field", "interior", "balls"}, "bmo config",
               ("field", "interior", "balls"))
    u = parse_field(cfg["field"])
    res = maximal.bmo_quantity(
        u, tuple(number(cfg, "interior", "bmo config", kind=floats,
                        shape=(2,))),
        [tuple(b) for b in number(cfg, "balls", "bmo config", kind=floats,
                                  shape=(None, 2))])
    return _report(args, cfg, "bmo", {
        "operation": "bmo",
        "per_ball": list(res.per_ball),
        "sup": res.sup,
    }, f"sup over {len(res.per_ball)} balls = {res.sup:.8g}")


def cmd_diagnose_exponent(args) -> int:
    cfg = load_config(args.config)
    check_keys(cfg, {"name", "exponent", "pairs", "n_pairs", "range", "seed"},
               "diagnose config", ("exponent",))
    p = parse_exponent(cfg["exponent"])
    if "pairs" in cfg:
        pairs = number(cfg, "pairs", "diagnose config", kind=floats)
    else:
        rng = np.random.default_rng(
            number(cfg, "seed", "diagnose config", args.seed, integer))
        lo, hi = number(cfg, "range", "diagnose config", (-10.0, 10.0),
                        floats, (2,))
        m = number(cfg, "n_pairs", "diagnose config", 1000, integer)
        pairs = rng.uniform(lo, hi, size=(m, 2, p.dimension))
    diag = exponents.log_holder_diagnose(p, pairs)
    return _report(args, cfg, "diagnose", {
        "operation": "diagnose-exponent",
        "c_holder_estimate": diag.c_holder_estimate,
        "c_decay_estimate": diag.c_decay_estimate,
        "satisfied": diag.satisfied,
    }, f"c_holder = {diag.c_holder_estimate:.6g}, "
       f"c_decay = {diag.c_decay_estimate}, satisfied = {diag.satisfied}")


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="scenario config (JSON)")
    common.add_argument("--out", help="output directory")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--quiet", action="store_true")

    parser = argparse.ArgumentParser(
        prog="vexs",
        description="variable-exponent nonlocal functional toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("constants", parents=[common],
                        help="K_{n,p} closed form vs sphere quadrature")
    sp.add_argument("--n", default="1,2,3")
    sp.add_argument("--p", default="2")
    sp.set_defaults(fn=cmd_constants)

    sp = sub.add_parser("lemma41", parents=[common],
                        help="layer-cake exchange identity check")
    sp.add_argument("--preset", default="unit-distance")
    sp.set_defaults(fn=cmd_lemma41)

    for name, fn in (("modular", cmd_modular), ("norm", cmd_norm),
                     ("fracnorm", cmd_fracnorm), ("nguyen", cmd_nguyen),
                     ("eps", cmd_eps), ("bbm", cmd_bbm),
                     ("sweep", cmd_sweep), ("maximal", cmd_maximal),
                     ("bmo", cmd_bmo),
                     ("diagnose-exponent", cmd_diagnose_exponent)):
        sp = sub.add_parser(name, parents=[common])
        sp.set_defaults(fn=fn, needs_config=True)

    sp = sub.add_parser("counterexample", parents=[common],
                        help="maximal-function divergence experiment")
    sp.add_argument("--r-values", default="10,100,1000,10000")
    sp.set_defaults(fn=cmd_counterexample)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if getattr(args, "needs_config", False) and not args.config:
            raise ConfigError(f"{args.command} requires --config")
        return args.fn(args)
    except (ConfigError, DomainError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (DivergenceError, UnsupportedFieldError, BracketingError) as exc:
        print(f"numerical failure in {args.command}: {exc}", file=sys.stderr)
        return 3
    except VexsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
