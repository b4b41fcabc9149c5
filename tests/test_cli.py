import dataclasses
import json
import math

import pytest

import oracles
from vexs.cli import QUAD_KEYS, main
from vexs.functionals import QuadratureSpec


def run_cli(*argv):
    return main(list(argv))


def write_cfg(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def test_constants_prints_value(capsys):
    assert run_cli("constants", "--n", "2", "--p", "2") == 0
    out = capsys.readouterr().out
    assert "1.5707963267" in out


def test_constants_writes_csv(tmp_path, capsys):
    assert run_cli("constants", "--n", "1,2,3", "--p", "1,2",
                   "--out", str(tmp_path)) == 0
    body = (tmp_path / "constants.csv").read_text().splitlines()
    assert body[0] == "n,p,K_closed,K_quad,rel_diff"
    assert len(body) == 7


def test_lemma41_unit_preset_passes(tmp_path, capsys):
    assert run_cli("lemma41", "--preset", "unit-distance",
                   "--out", str(tmp_path)) == 0
    out = capsys.readouterr().out
    assert "PASS" in out
    assert "0.333333" in out
    payload = json.loads((tmp_path / "unit-distance.lemma41.json").read_text())
    assert payload["schema"] == "vexs/1"
    assert payload["pass"] is True


def test_missing_config_exits_2(capsys):
    assert run_cli("sweep", "--config", "/nonexistent/x.json") == 2


def test_config_required_exits_2(capsys):
    assert run_cli("sweep") == 2


def test_unknown_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad.json", {
        "name": "x",
        "field": {"family": "tent"},
        "exponent": {"family": "constant", "value": 2.0},
        "kind": "nguyen-unit",
        "grid": [0.2, 0.1, 0.05],
        "rel_tolerance": 1e-3,
    })
    assert run_cli("sweep", "--config", cfg) == 2
    assert "rel_tolerance" in capsys.readouterr().err


def test_unknown_field_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "bad2.json", {
        "name": "x",
        "field": {"family": "tent", "sigma": 1.0},
        "exponent": {"family": "constant", "value": 2.0},
        "kind": "nguyen-unit",
        "grid": [0.2, 0.1, 0.05],
    })
    assert run_cli("sweep", "--config", cfg) == 2


def test_divergent_norm_exits_3(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "div.json", {
        "name": "divergent",
        "field": {"family": "power-tail"},
        "exponent": {"family": "constant", "value": 2.0},
    })
    assert run_cli("norm", "--config", cfg) == 3
    assert "norm" in capsys.readouterr().err


def test_unconverged_norm_exits_3(tmp_path, capsys, monkeypatch):
    from dataclasses import replace

    from vexs import spaces
    real = spaces._modular

    def missing(u, p, weight, lam, quad):
        # every check modular (lam != 1) misses rho = 1 by 1
        res = real(u, p, weight, lam, quad)
        return res if lam == 1.0 else replace(res, value=2.0)
    monkeypatch.setattr(spaces, "_modular", missing)
    cfg = write_cfg(tmp_path, "tent.json", {
        "name": "tent",
        "field": {"family": "tent"},
        "exponent": {"family": "constant", "value": 2.0},
    })
    assert run_cli("norm", "--config", cfg) == 3
    assert "did not converge" in capsys.readouterr().err


def test_sweep_writes_report_and_plot_data(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "sweep.json", {
        "name": "tent_small",
        "field": {"family": "tent"},
        "exponent": {"family": "constant", "value": 2.0},
        "kind": "nguyen-unit",
        "grid": [0.2, 0.1, 0.05],
        "quad": {"rel_tol": 1e-5, "outer_x_tolerance": 1e-6},
    })
    out = tmp_path / "out"
    assert run_cli("sweep", "--config", cfg, "--out", str(out)) == 0
    report = json.loads((out / "tent_small.report.json").read_text())
    assert report["schema"] == "vexs/1"
    assert report["target"] == pytest.approx(2.0, rel=1e-5)
    plot = (out / "tent_small.plot.dat").read_text().splitlines()
    assert plot[0].startswith("# target = ")
    assert len(plot) == 4  # annotation + three grid points
    assert len(plot[1].split()) == 2


def test_norm_report(tmp_path):
    cfg = write_cfg(tmp_path, "norm.json", {
        "name": "g",
        "field": {"family": "gaussian"},
        "exponent": {"family": "constant", "value": 2.0},
    })
    out = tmp_path / "out"
    assert run_cli("norm", "--config", cfg, "--out", str(out), "--quiet") == 0
    payload = json.loads((out / "g.norm.json").read_text())
    assert payload["norm"] == pytest.approx((math.pi / 2) ** 0.25, rel=1e-8)
    assert payload["bracket_iterations"] <= 60


@pytest.fixture(scope="module")
def counterexample_rows(tmp_path_factory):
    out = tmp_path_factory.mktemp("counterexample")
    assert run_cli("counterexample", "--r-values", "10,100",
                   "--out", str(out), "--quiet") == 0
    return (out / "counterexample.csv").read_text().splitlines()


def test_counterexample_csv(counterexample_rows):
    rows = counterexample_rows
    assert rows[0] == "R,modular_u,modular_Mu,growth_exponent_fit"
    assert len(rows) == 3


def test_counterexample_csv_cells_parse_as_floats(counterexample_rows):
    # numpy scalars must be written as plain floats, not "np.float64(...)"
    for row in counterexample_rows[1:]:
        for cell in row.split(","):
            float(cell)


NGUYEN_CFG = {"field": {"family": "gaussian"},
              "exponent": {"family": "constant", "value": 2.0},
              "delta": 0.1}
# a 2D threshold functional brackets on the ray grid: it reads
# h_bracket_grid
NGUYEN_2D_CFG = {"field": {"family": "gaussian", "dimension": 2},
                 "exponent": {"family": "constant", "value": 2.0,
                              "dimension": 2},
                 "delta": 0.2}
MAXIMAL_CFG = {"field": {"family": "gaussian"}, "points": [0.0, 1.0]}
DIAGNOSE_CFG = {"exponent": {"family": "constant", "value": 2.0}}
BBM_CFG = {"field": {"family": "tent"}, "p": 2.0, "s": 0.5}


@pytest.mark.parametrize("argv, cfg, key", [
    (["nguyen"], {k: v for k, v in NGUYEN_CFG.items() if k != "delta"},
     "delta"),
    (["nguyen"], {**NGUYEN_CFG, "delta": "x"}, "delta"),
    (["nguyen"], {**NGUYEN_CFG, "field": {"family": "gaussian",
                                          "sigma": "wide"}}, "sigma"),
    (["constants", "--n", "abc"], None, "--n"),
    (["nguyen"], {**NGUYEN_CFG, "quad": {"rel_tol": "x"}}, "rel_tol"),
    (["nguyen"], {**NGUYEN_2D_CFG, "quad": {"h_bracket_grid": 64.5}},
     "h_bracket_grid"),
    (["nguyen"], {**NGUYEN_2D_CFG, "quad": {"h_bracket_grid": "64"}},
     "h_bracket_grid"),
    (["nguyen"], {**NGUYEN_CFG, "quad": {"sphere_rule": {
        "dimension": 1, "node_count": "abc"}}}, "node_count"),
    (["nguyen"], {"field": {"family": "gaussian", "dimension": 2},
                  "exponent": {"family": "constant", "value": 2.0,
                               "dimension": 2},
                  "delta": 0.1, "quad": {"sphere_rule": {
                      "dimension": 2, "node_count": "abc"}}}, "node_count"),
    (["nguyen"], {**NGUYEN_CFG, "quad": {"sphere_rule": {
        "dimension": 3, "node_count": [4, 0]}}}, "node_count"),
    (["fracnorm"], {"field": {"family": "gaussian"},
                    "exponent": {"family": "constant", "value": 2.0},
                    "s": 0.5, "quad": {"truncation_radius": -3.0}},
     "truncation_radius"),
    (["nguyen"], {**NGUYEN_CFG, "field": {"family": "gaussian",
                                          "dimension": 2}},
     "the field is 2D but the exponent is 1D"),
    (["maximal"], {**MAXIMAL_CFG, "omega": 1, "r_max": 0}, "r_max"),
    (["maximal"], {**MAXIMAL_CFG, "r_max": -2}, "r_max"),
    (["maximal"], {**MAXIMAL_CFG, "r_max": 1e-7}, "r_max"),
    (["maximal"], {**MAXIMAL_CFG, "points": []}, "points"),
    (["maximal"], {**MAXIMAL_CFG, "depth": 4.6}, "depth"),
    (["maximal"], {**MAXIMAL_CFG, "depth": -1}, "depth"),
    (["maximal"], {**MAXIMAL_CFG, "field": {"family": "tent",
                                            "dimension": 1.5}}, "dimension"),
    (["nguyen"], {**NGUYEN_CFG, "exponent": {"family": "constant",
                                             "value": 2.0, "dimension": "1"}},
     "dimension"),
    (["nguyen"], {**NGUYEN_CFG, "field": {"family": "gaussian",
                                          "dimension": True}}, "dimension"),
    (["diagnose-exponent"], {**DIAGNOSE_CFG, "n_pairs": 4.6}, "n_pairs"),
    (["diagnose-exponent"], {**DIAGNOSE_CFG, "seed": -1}, "seed"),
    (["lemma41"], {"preset": "random-smooth", "seed": 4.6}, "seed"),
    (["maximal"], {**MAXIMAL_CFG, "omega": True}, "omega"),
    (["bbm"], {**BBM_CFG, "name": "../escaped"}, "'name'"),
    (["bbm"], {**BBM_CFG, "name": {"a": 1}}, "'name'"),
    (["bbm"], {**BBM_CFG, "name": "a\0b"}, "'name'"),
])
def test_malformed_config_exits_2_naming_key(tmp_path, capsys, argv, cfg,
                                             key):
    if cfg is not None:
        argv = argv + ["--config", write_cfg(tmp_path, "bad.json", cfg)]
    assert run_cli(*argv) == 2
    assert key in capsys.readouterr().err


def test_lemma41_rejects_unused_quad_keys(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "lemma.json", {
        "preset": "unit-distance",
        "quad": {"rel_tol": 1e-6, "h_max": 5.0, "seed": 1},
    })
    assert run_cli("lemma41", "--config", cfg) == 2
    err = capsys.readouterr().err
    assert "unknown key(s) in lemma41 quad: h_max, seed" in err


def test_quad_keys_are_the_quadrature_spec_fields():
    assert set(QUAD_KEYS) == {f.name for f in
                              dataclasses.fields(QuadratureSpec)}


def test_quad_seed_key_exits_2(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "mod.json", {
        "field": {"family": "tent"},
        "exponent": {"family": "constant", "value": 2.0},
        "quad": {"seed": 1},
    })
    assert run_cli("modular", "--config", cfg) == 2
    assert "unknown key(s) in quad: seed" in capsys.readouterr().err


@pytest.mark.parametrize("command,payload", [
    ("bmo", {"field": {"family": "tent"}, "interior": [-1.0, 1.0],
             "balls": [[0.0, 0.5]]}),
    ("maximal", {"field": {"family": "tent"}, "points": [0.0],
                 "r_max": 2.0}),
])
def test_unused_quad_rejected(tmp_path, capsys, command, payload):
    # neither computation reads quadrature settings, so quad is refused
    # rather than silently ignored
    payload = {**payload,
               "quad": {"h_max": "not-a-number", "bogus_ignored": 1}}
    cfg = write_cfg(tmp_path, f"{command}.json", payload)
    assert run_cli(command, "--config", cfg) == 2
    assert f"unknown key(s) in {command} config: quad" in \
        capsys.readouterr().err


GAUSS_P2 = {"field": {"family": "gaussian"},
            "exponent": {"family": "constant", "value": 2.0}}
MODULAR_UNREAD = ({**GAUSS_P2, "quad": {
    "sphere_rule": {"dimension": 3, "node_count": [4, 8]},
    "h_bracket_grid": 4096, "h_max": 5.0, "rel_tol": 1e-6}},
    "h_bracket_grid, h_max, sphere_rule")
# per command: a config whose quad holds keys the computation never reads,
# and the message naming them
UNREAD_QUAD = {
    # the outer integral of a 1D field reads no sphere rule, and neither
    # computation reads h_bracket_grid (h_max is no key at all, and is
    # named the same way)
    "modular": MODULAR_UNREAD,
    "norm": MODULAR_UNREAD,
    # the fractional, eps and BBM integrals stop at a fixed radius: no
    # rel_tol
    "fracnorm": ({**GAUSS_P2, "s": 0.5, "quad": {
        "outer_x_tolerance": 1e-9, "rel_tol": 1e-8, "h_bracket_grid": 64}},
        "rel_tol"),
    "bbm": ({"field": {"family": "tent"}, "p": 2.0, "s": 0.8, "quad": {
        "rel_tol": 1e-6, "h_bracket_grid": 64}}, "rel_tol"),
    "eps": ({**GAUSS_P2, "epsilon": 0.3, "mode": "small_jump", "quad": {
        "rel_tol": 1e-6, "outer_x_tolerance": 1e-5}}, "rel_tol"),
    # the counterexample's only quadrature is its 1D modular
    "counterexample": ({"r_values": [10.0, 100.0], "quad": {
        "h_bracket_grid": 64, "h_max": 5.0,
        "sphere_rule": {"dimension": 2, "node_count": 16}, "rel_tol": 1e-6}},
        "h_bracket_grid, h_max, sphere_rule"),
}


@pytest.mark.parametrize("command", UNREAD_QUAD)
def test_outer_quad_rejects_unread_keys(tmp_path, capsys, command):
    payload, keys = UNREAD_QUAD[command]
    cfg = write_cfg(tmp_path, f"{command}.json", payload)
    assert run_cli(command, "--config", cfg) == 2
    assert f"unknown key(s) in quad: {keys}" in capsys.readouterr().err


@pytest.mark.parametrize("mode, code", [
    ("full", 2), ("small_jump", 2), ("large_jump_tail", 0)])
def test_eps_reads_rel_tol_only_in_the_threshold_mode(tmp_path, capsys, mode,
                                                      code):
    # the large-jump tail is the threshold functional, whose outer
    # doubling shells stop on rel_tol
    cfg = write_cfg(tmp_path, "eps.json", {
        **GAUSS_P2, "field": {"family": "gaussian", "scale": 3.0},
        "epsilon": 0.3, "mode": mode,
        "quad": {"rel_tol": 1e-3, "outer_x_tolerance": 1e-3}})
    assert run_cli("eps", "--config", cfg) == code
    assert ("unknown key(s) in quad: rel_tol" in capsys.readouterr().err) \
        == (code == 2)


SWEEP_1D = {**GAUSS_P2, "grid": [0.2, 0.1, 0.05]}


@pytest.mark.parametrize("command, payload", [
    ("nguyen", {**GAUSS_P2, "delta": 0.1}),
    ("sweep", {**SWEEP_1D, "kind": "nguyen-unit"}),
    ("sweep", {**SWEEP_1D, "kind": "nguyen-weighted"}),
    ("eps", {**GAUSS_P2, "field": {"family": "gaussian", "scale": 3.0},
             "mode": "large_jump_tail"})])
def test_1d_threshold_functional_rejects_h_bracket_grid(tmp_path, capsys,
                                                        command, payload):
    # 1D superlevel sets are closed form: no ray grid reads the key
    cfg = write_cfg(tmp_path, "cfg.json", {
        **payload, "quad": {"h_bracket_grid": 64, "rel_tol": 1e-3}})
    assert run_cli(command, "--config", cfg) == 2
    assert "unknown key(s) in quad: h_bracket_grid" in \
        capsys.readouterr().err


def test_2d_threshold_functional_reads_h_bracket_grid(tmp_path, capsys):
    cfg = write_cfg(tmp_path, "nguyen.json", {**NGUYEN_2D_CFG, "quad": {
        "h_bracket_grid": 32, "outer_x_tolerance": 1e-2, "rel_tol": 1e-2,
        "sphere_rule": {"dimension": 2, "node_count": 16}}})
    assert run_cli("nguyen", "--config", cfg) == 0


def test_fracnorm_2d_config_runs(tmp_path, capsys):
    # the seminorm takes the power functionals' outer path in any
    # dimension, with its sphere rule and outer tolerance
    cfg = write_cfg(tmp_path, "fracnorm.json", {
        "name": "g2", "field": {"family": "gaussian", "dimension": 2},
        "exponent": {"family": "constant", "value": 2.0, "dimension": 2},
        "s": 0.5, "quad": {"sphere_rule": {"dimension": 2, "node_count": 64},
                           "outer_x_tolerance": 1e-6}})
    assert run_cli("fracnorm", "--config", cfg, "--out", str(tmp_path)) == 0
    report = json.loads((tmp_path / "g2.fracnorm.json").read_text())
    assert report["value"] == pytest.approx(
        math.sqrt(oracles.gaussian_gagliardo(0.5, 2)), rel=1e-8)


GAUSS_FIELD = {"family": "gaussian"}
P2 = {"family": "constant", "value": 2.0}


@pytest.mark.parametrize("command, cfg, key", [
    ("modular", {"field": {"family": "sampled-table", "xs": ["a", 1],
                           "us": [0.0, 0.0]}, "exponent": P2}, "xs"),
    ("modular", {"field": GAUSS_FIELD,
                 "exponent": {"family": "piecewise-table", "breaks": ["x"],
                              "values": [2.0, 3.0]}}, "breaks"),
    ("maximal", {"field": GAUSS_FIELD, "points": ["a"]}, "points"),
    ("maximal", {"field": {"family": "log-singular", "window": "ab"},
                 "points": [0.5]}, "window"),
    ("modular", {"field": {"family": "gaussian", "center": "x"},
                 "exponent": P2}, "center"),
    ("modular", {"field": GAUSS_FIELD,
                 "exponent": {"family": "sin-squared", "a": 2.0, "b": 1.0,
                              "direction": ["x"]}}, "direction"),
    ("bmo", {"field": GAUSS_FIELD, "interior": ["a", 1.0],
             "balls": [[0.0, 0.5]]}, "interior"),
    ("bmo", {"field": GAUSS_FIELD, "interior": [-1.0, 1.0],
             "balls": [["a", 0.5]]}, "balls"),
    ("counterexample", {"r_values": ["a", 100.0]}, "r_values"),
    ("sweep", {"field": GAUSS_FIELD, "exponent": P2, "kind": "bbm",
               "grid": ["a", 0.8, 0.9]}, "grid"),
    ("diagnose-exponent", {"exponent": P2, "pairs": [["a"]]}, "pairs"),
    ("diagnose-exponent", {"exponent": P2, "range": "ab"}, "range"),
])
def test_non_numeric_list_value_exits_2(tmp_path, capsys, command, cfg, key):
    assert run_cli(command, "--config",
                   write_cfg(tmp_path, "bad.json", cfg)) == 2
    assert f"{key!r} must be numeric" in capsys.readouterr().err


@pytest.mark.parametrize("rows, csv, message", [
    (None, "missing.csv", "missing.csv"),
    ("0.0,0.0\n0.5,abc\n1.0,0.0\n", "table.csv", "table.csv"),
    (None, 5, "'csv'"),
    ("0.0,0.0\nnan,nan\n1.0,0.0\n", "table.csv", "finite"),
    ("0.0,0.0\n0.5,inf\n1.0,0.0\n", "table.csv", "finite"),
], ids=["missing", "non-numeric", "not-a-path", "nan", "inf"])
def test_bad_sampled_table_csv_exits_2(tmp_path, capsys, rows, csv, message):
    if rows is not None:
        (tmp_path / csv).write_text(rows)
    if isinstance(csv, str):
        csv = str(tmp_path / csv)
    cfg = {"field": {"family": "sampled-table", "csv": csv}, "points": [0.25]}
    assert run_cli("maximal", "--config",
                   write_cfg(tmp_path, "bad.json", cfg)) == 2
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("maximal", {**MAXIMAL_CFG, "r_max": True}, "r_max"),
    ("nguyen", {**NGUYEN_CFG, "quad": {"rel_tol": "1e-3"}}, "rel_tol"),
    ("nguyen", {**NGUYEN_CFG, "quad": {"rel_tol": "nan"}}, "rel_tol"),
    ("nguyen", {**NGUYEN_CFG, "delta": math.nan}, "delta"),
    ("nguyen", {**NGUYEN_CFG, "quad": {"truncation_radius": math.inf}},
     "truncation_radius"),
    ("maximal", {**MAXIMAL_CFG, "points": [True, 2]}, "points"),
    ("bmo", {"field": GAUSS_FIELD, "interior": [True, 2],
             "balls": [[0.0, 0.5]]}, "interior"),
    ("sweep", {"field": GAUSS_FIELD, "exponent": P2, "kind": "bbm",
               "grid": [0.7, "0.8"]}, "grid"),
])
def test_float_values_refuse_booleans_strings_and_non_finite(
        tmp_path, capsys, command, cfg, key):
    # each would once have run: true as 1.0, "1e-3" as 0.001, and a NaN
    # tolerance that no stopping test ever satisfies
    assert run_cli(command, "--config",
                   write_cfg(tmp_path, "bad.json", cfg)) == 2
    assert f"{key!r} must be numeric and finite" in capsys.readouterr().err


@pytest.mark.parametrize("flag, value", [("--p", "nan"), ("--p", "true"),
                                         ("--n", "2.5")])
def test_command_line_lists_are_checked_like_config_values(capsys, flag,
                                                           value):
    assert run_cli("constants", flag, value) == 2
    assert flag in capsys.readouterr().err


@pytest.mark.parametrize("command, cfg, key", [
    ("bmo", {"field": GAUSS_FIELD, "interior": [-1.0, 1.0],
             "balls": [[0.0]]}, "balls"),
    ("bmo", {"field": GAUSS_FIELD, "interior": [1],
             "balls": [[0.0, 0.5]]}, "interior"),
    ("diagnose-exponent", {"exponent": P2, "range": [1, 2, 3]}, "range"),
    ("sweep", {"field": GAUSS_FIELD, "exponent": P2, "kind": "bbm",
               "grid": [[0.7, 0.8], [0.9, 0.95]]}, "grid"),
])
def test_list_of_wrong_shape_exits_2(tmp_path, capsys, command, cfg, key):
    assert run_cli(command, "--config",
                   write_cfg(tmp_path, "bad.json", cfg)) == 2
    assert f"{key!r} must be a" in capsys.readouterr().err


def test_diagnose_exponent(tmp_path):
    cfg = write_cfg(tmp_path, "diag.json", {
        "name": "iq",
        "exponent": {"family": "inverse-quadratic", "a": 2.0, "b": 1.0},
        "n_pairs": 200,
        "range": [-10.0, 10.0],
    })
    out = tmp_path / "out"
    assert run_cli("diagnose-exponent", "--config", cfg, "--out", str(out),
                   "--quiet") == 0
    payload = json.loads((out / "iq.diagnose.json").read_text())
    assert payload["satisfied"] is True
    assert payload["c_holder_estimate"] > 0.0


def test_rerun_byte_identical_outputs(tmp_path):
    """Determinism: re-running a scenario produces byte-identical files."""
    cfg = write_cfg(tmp_path, "sweep.json", {
        "name": "tent_small",
        "field": {"family": "tent"},
        "exponent": {"family": "constant", "value": 2.0},
        "kind": "nguyen-unit",
        "grid": [0.2, 0.1, 0.05],
        "quad": {"rel_tol": 1e-5, "outer_x_tolerance": 1e-6},
    })
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert run_cli("sweep", "--config", cfg, "--out", str(out),
                       "--quiet") == 0
        outs.append((out / "tent_small.report.json").read_bytes()
                    + (out / "tent_small.plot.dat").read_bytes())
    assert outs[0] == outs[1]


def test_modular_cli_roundtrip(tmp_path):
    cfg = write_cfg(tmp_path, "mod.json", {
        "name": "t",
        "field": {"family": "sampled-table", "xs": [0.0, 1.0],
                  "us": [2.0, 2.0]},
        "exponent": {"family": "constant", "value": 2.0},
        "lambda": 2.0,
    })
    out = tmp_path / "out"
    assert run_cli("modular", "--config", cfg, "--out", str(out),
                   "--quiet") == 0
    payload = json.loads((out / "t.modular.json").read_text())
    assert payload["value"] == pytest.approx(1.0, rel=1e-9)
