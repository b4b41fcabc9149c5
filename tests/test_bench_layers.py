"""The benchmark's traced layers still name vexs functions, and their
argument hooks still find the arguments they count.

bench/tracing.py replaces each function in its LAYERS list by name and
reads some arguments by position or keyword; a renamed function or a
moved argument would make a traced run fail or count the wrong thing.
The benchmark's own tests live outside the test paths, so this test
loads the layer list from its file without running a benchmark."""

import importlib.util
import inspect
import sys
from pathlib import Path

import pytest

# (position, name) of every argument a hook reads, per layer
HOOK_ARGS = {
    "quadrature.vector_bisect": [(0, "g"), (1, "lo")],
    "quadrature.golden_max": [(0, "f")],
    "functionals.superlevel_intervals": [(1, "X")],
    "functionals.ray_slope": [(3, "h")],
    "reporting.write_json_report": [(0, "path")],
    "reporting.write_csv": [(0, "path")],
    "reporting.write_plot_data": [(0, "path")],
}


@pytest.fixture(scope="module")
def layers():
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("_bench_tracing", path)
    module = importlib.util.module_from_spec(spec)
    # dataclasses look their module up while the class is made
    sys.modules[spec.name] = module
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return module.LAYERS


def _resolve(name):
    module, *attrs = name.split(".")
    obj = importlib.import_module(f"vexs.{module}")
    for attr in attrs:
        obj = getattr(obj, attr)
    return obj


def test_every_traced_layer_names_a_vexs_function(layers):
    assert len(layers) > 20
    for layer in layers:
        assert callable(_resolve(layer.name)), layer.name


def test_argument_hooks_read_where_the_arguments_sit(layers):
    names = {layer.name for layer in layers}
    assert {layer.name for layer in layers if layer.on_args} <= \
        set(HOOK_ARGS) <= names
    for name, args in HOOK_ARGS.items():
        params = list(inspect.signature(_resolve(name)).parameters)
        for i, arg in args:
            assert params[i] == arg, (name, params)
