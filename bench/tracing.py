"""Per-layer spans and counts, recorded from outside vexs.

`Tracer.install` replaces each public function named in LAYERS with a
wrapper that records a span (layer, start, end, parent span) and the
layer's counts.  Nothing under src/ changes.  `functionals`, `spaces`,
`maximal`, `sweeps` and `cli` bind their helpers by from-import, so a
function is replaced under every name any vexs module binds it to, not
only in the module that defines it.  Spans stay in memory until
`write_spans` at the end of the run.

A layer's self time is its spans' duration minus the part covered by
its child spans, so it includes every untraced function it calls: the
integrand closures that `adaptive_integrate` evaluates count as its own
time, less the traced layers they reach.  Each layer also says which
end-to-end metric it should move and on which workload, so a change to
that layer is read against the right figure.
"""

from __future__ import annotations

import os
import sys
import time
from array import array
from dataclasses import dataclass
from typing import Callable

import numpy as np


def _arg(args, kwargs, i, name):
    return kwargs[name] if name in kwargs else args[i]


def _replace_arg(args, kwargs, i, name, value):
    if name in kwargs:
        return args, {**kwargs, name: value}
    return args[:i] + (value,) + args[i + 1:], kwargs


def _count_calls_of(i, name, metric, size):
    """on_args hook: wrap the callable argument (i, name) so each call
    adds its argument's size (size=True) or 1 to `metric`."""
    def on_args(tracer, args, kwargs):
        fn = _arg(args, kwargs, i, name)

        def counted(x):
            tracer.add(metric, int(np.size(x)) if size else 1)
            return fn(x)
        return _replace_arg(args, kwargs, i, name, counted)
    return on_args


def _count_arg(i, name, metric, measure):
    """on_args hook: add measure(argument (i, name)) to `metric`."""
    def on_args(tracer, args, kwargs):
        tracer.add(metric, measure(_arg(args, kwargs, i, name)))
        return args, kwargs
    return on_args


def _bisect_args(tracer, args, kwargs):
    _count_arg(1, "lo", "quadrature.vector_bisect.brackets",
               lambda lo: int(np.size(lo)))(tracer, args, kwargs)
    return _count_calls_of(0, "g", "quadrature.vector_bisect.g_evals",
                           True)(tracer, args, kwargs)


@dataclass
class Layer:
    name: str                      # <module>.<function>
    metrics: tuple                 # ("calls", "self_s", ...), in report order
    moves: str                     # end-to-end metric and workload it moves
    on_args: Callable | None = None
    on_result: Callable | None = None


def _add_result(metric, attr):
    return lambda t, args, kwargs, r: t.add(metric, int(getattr(r, attr)))


LAYERS = [
    Layer("quadrature.adaptive_integrate",
          ("calls", "panels", "evals", "self_s"),
          "wall_s on all four; Gauss-Kronrod panels cut evals at equal "
          "err_ratio",
          on_result=lambda t, a, k, r: (
              t.add("quadrature.adaptive_integrate.panels", r.n_panels),
              t.add("quadrature.adaptive_integrate.evals", r.n_evals))),
    Layer("quadrature.vector_bisect",
          ("calls", "brackets", "g_evals", "self_s"),
          "wall_s on threshold and layer_cake; power reads 0; "
          "spaces_maximal shows the cost per small call",
          on_args=_bisect_args),
    Layer("quadrature.golden_max", ("calls", "f_evals", "self_s"),
          "wall_s on spaces_maximal",
          on_args=_count_calls_of(0, "f", "quadrature.golden_max.f_evals",
                                  False)),
    Layer("fields.ScalarField.eval", ("calls", "points", "self_s"),
          "wall_s on threshold and power; layer_cake reads 0",
          on_result=lambda t, a, k, r: t.add(
              "fields.ScalarField.eval.points", int(np.size(r)))),
    Layer("fields.ScalarField.far_radius", ("calls", "self_s"),
          "wall_s on threshold (about one call per superlevel call)"),
    Layer("functionals.superlevel_intervals", ("calls", "rows", "self_s"),
          "wall_s on threshold",
          on_args=_count_arg(1, "X", "functionals.superlevel_intervals.rows",
                             lambda X: int(np.shape(X)[0]))),
    Layer("functionals.ray_slope", ("calls", "points", "self_s"),
          "wall_s and peak_rss_mb on power; threshold and layer_cake read 0",
          on_args=_count_arg(3, "h", "functionals.ray_slope.points",
                             lambda h: int(np.size(h)))),
    Layer("functionals.layer_cake_check", ("calls", "self_s"),
          "wall_s on layer_cake"),
    *[Layer(f"functionals.{fn}", ("calls", "self_s", "outer_nodes"),
            "wall_s on threshold (nguyen, local_energy) and power (eps, "
            "bbm, local_energy); radial reduction cuts outer_nodes on the 2D "
            "half of threshold",
            on_result=_add_result(f"functionals.{fn}.outer_nodes",
                                  "node_count"))
      for fn in ("nguyen_functional", "eps_functional", "bbm_functional",
                 "local_energy")],
    Layer("sphere.default_rule", ("calls", "self_s"), "wall_s on threshold"),
    Layer("sphere.k_np_values", ("calls",), "wall_s on threshold"),
    *[Layer(f"spaces.{fn}", ("calls", "iterations", "self_s"),
            "wall_s on spaces_maximal",
            on_result=_add_result(f"spaces.{fn}.iterations", "iterations"))
      for fn in ("luxemburg_norm", "frac_seminorm")],
    Layer("spaces.modular", ("calls", "self_s"), "wall_s on spaces_maximal"),
    *[Layer(f"maximal.{fn}", ("calls", "self_s"), "wall_s on spaces_maximal")
      for fn in ("hl_maximal", "bmo_quantity", "counterexample_experiment")],
    Layer("sweeps.run_sweep", ("calls", "self_s"),
          "err_ratio on threshold and power"),
    Layer("sweeps.fit_power_limit", ("calls", "flagged"),
          "err_ratio on threshold and power (the BBM fit is flagged today)",
          on_result=lambda t, a, k, r: t.add("sweeps.fit_power_limit.flagged",
                                             int(bool(r[2])))),
    *[Layer(f"reporting.{fn}", ("calls", "bytes", "self_s"),
            "negligible on every workload",
            on_result=lambda t, a, k, r, fn=fn: t.add(
                f"reporting.{fn}.bytes",
                os.path.getsize(_arg(a, k, 0, "path"))))
      for fn in ("write_json_report", "write_csv", "write_plot_data")],
]

# counts with no span of their own: points handed to the lemma41 preset
# callables (phi, psi) by whatever evaluates them; they move wall_s on
# layer_cake and read 0 on every other workload
PRESET_COUNTS = ("lemma41.phi_points", "lemma41.psi_points")

# the traced pass minus the untraced pass of the same run
OVERHEAD = "bench.trace.overhead_s"


def metric_names() -> list[tuple[str, str]]:
    """Every per-layer metric as (name, unit), in report order."""
    out = []
    for layer in LAYERS:
        for m in layer.metrics:
            out.append((f"{layer.name}.{m}", "s" if m == "self_s" else
                        "bytes" if m == "bytes" else "count"))
    out += [(name, "count") for name in PRESET_COUNTS]
    out.append((OVERHEAD, "s"))
    return out


class Tracer:
    def __init__(self):
        self.layer_ids: dict[str, int] = {}
        self.span_layer = array("i")
        self.span_parent = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts: dict[str, int] = {}
        self._undo: list[tuple[object, str, object]] = []

    def add(self, metric: str, n: int) -> None:
        self.counts[metric] = self.counts.get(metric, 0) + n

    def _wrap(self, layer: Layer, fn):
        lid = self.layer_ids.setdefault(layer.name, len(self.layer_ids))
        calls = f"{layer.name}.calls"
        clock = time.perf_counter
        on_args, on_result = layer.on_args, layer.on_result

        def traced(*args, **kwargs):
            self.add(calls, 1)
            if on_args is not None:
                args, kwargs = on_args(self, args, kwargs)
            sid = len(self.span_start)
            self.span_layer.append(lid)
            self.span_parent.append(self._stack[-1])
            self.span_start.append(clock())
            self.span_end.append(0.0)
            self._stack.append(sid)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                self.span_end[sid] = clock()
            if on_result is not None:
                on_result(self, args, kwargs, result)
            return result
        traced.__wrapped__ = fn
        return traced

    def _patch(self, owner, attr, value):
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, value)

    def install(self) -> None:
        vexs_modules = [m for name, m in sorted(sys.modules.items())
                        if m is not None and
                        (name == "vexs" or name.startswith("vexs."))]
        for layer in LAYERS:
            module, *path = layer.name.split(".")
            owner = sys.modules[f"vexs.{module}"]
            if len(path) == 2:          # a method: patch the class
                cls = getattr(owner, path[0])
                self._patch(cls, path[1], self._wrap(layer,
                                                     cls.__dict__[path[1]]))
                continue
            orig = getattr(owner, path[0])
            wrapped = self._wrap(layer, orig)
            for m in vexs_modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        self._patch(m, attr, wrapped)
        self._wrap_presets()

    def _wrap_presets(self) -> None:
        cli = sys.modules["vexs.cli"]
        preset = cli.lemma41_preset

        def counting(fn, metric):
            def counted(*args):
                out = fn(*args)
                self.add(metric, int(np.size(out)))
                return out
            return counted

        def traced_preset(*args, **kwargs):
            phi, psi, *rest = preset(*args, **kwargs)
            return (counting(phi, PRESET_COUNTS[0]),
                    counting(psi, PRESET_COUNTS[1]), *rest)
        self._patch(cli, "lemma41_preset", traced_preset)

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._undo):
            setattr(owner, attr, orig)
        self._undo.clear()

    def self_times(self) -> dict[str, float]:
        layer = np.frombuffer(self.span_layer, dtype=np.int32)
        parent = np.frombuffer(self.span_parent, dtype=np.int32)
        dur = (np.frombuffer(self.span_end, dtype=np.float64)
               - np.frombuffer(self.span_start, dtype=np.float64))
        covered = np.zeros(dur.size)
        child = parent >= 0
        np.add.at(covered, parent[child], dur[child])
        per_layer = np.bincount(layer, weights=dur - covered,
                                minlength=len(self.layer_ids))
        return {name: float(per_layer[i])
                for name, i in self.layer_ids.items()}

    def metrics(self) -> dict[str, float]:
        selfs = self.self_times()
        out = {}
        for name, _ in metric_names():
            if name == OVERHEAD:
                continue
            if name.endswith(".self_s"):
                out[name] = selfs.get(name[:-len(".self_s")], 0.0)
            else:
                out[name] = self.counts.get(name, 0)
        return out

    def write_spans(self, path: str) -> None:
        """One line per span: id, layer, parent id, start, end (seconds
        on the process's performance clock)."""
        names = {i: n for n, i in self.layer_ids.items()}
        with open(path, "w") as fh:
            fh.write("id\tlayer\tparent\tstart\tend\n")
            for i, (lid, par, t0, t1) in enumerate(zip(
                    self.span_layer, self.span_parent, self.span_start,
                    self.span_end)):
                fh.write(f"{i}\t{names[lid]}\t{par}\t{t0!r}\t{t1!r}\n")
