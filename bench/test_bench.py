"""Tests of the benchmark itself (not collected by the repo's tier-1 run).

    python3 -m pytest -q bench/test_bench.py

The traced self-check runs each workload once untraced and once traced
(about two minutes in all on 2 cores).
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
sys.path[:0] = [BENCH, os.path.join(ROOT, "src")]

import run  # noqa: E402
import tracing  # noqa: E402
import worker  # noqa: E402
import workloads  # noqa: E402


def bench_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def run_bench(*args, cwd=ROOT, script=os.path.join(BENCH, "run.py")):
    proc = subprocess.run([sys.executable, script, *args], cwd=cwd,
                          capture_output=True, text=True, timeout=600)
    return proc, proc.stdout.strip().splitlines()


def test_benchmark_json_names_what_the_code_reports():
    spec = bench_json()
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS) \
        == list(workloads.WORKLOADS) == list(workloads.STRESSED) \
        == list(workloads.BYPASSED)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracing.metric_names()
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == \
        run.END_TO_END
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    assert bounds["setup_s"] == max(bounds.values())


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_traced_run_reaches_its_layers_and_bypasses_the_rest(workload):
    proc, lines = run_bench("--workload", workload, "--seed", "0",
                            "--seconds", "1", "--trace", "1")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0
    layers = {k: v["value"] for k, v in result["metrics"].items()}
    assert set(layers) == {name for name, _ in tracing.metric_names()}
    for metric in workloads.STRESSED[workload]:
        assert layers[metric] > 0, metric
    for metric in workloads.BYPASSED[workload]:
        assert layers[metric] == 0, metric


def test_bare_copy_without_sources_fails_without_a_result(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = run_bench("--workload", "power", "--seed", "0",
                            "--seconds", "1", "--trace", "0", cwd=tmp_path,
                            script=str(tmp_path / "bench" / "run.py"))
    assert proc.returncode != 0
    assert not any(line.startswith("{") for line in lines)


class _Op:
    def __init__(self, key, payload, ratio=0.0, scored=True):
        self.key = key
        self.payload, self.ratio, self.scored = payload, ratio, scored

    def check(self, out):
        return self.payload, [workloads.Check("c", self.ratio, self.scored)]


def test_verify_fails_on_changed_bytes_broken_limits_and_errors(tmp_path):
    store = worker.DigestStore(str(tmp_path / "digests.json"))
    first = [_Op("a", b"1", 0.5), _Op("b", b"2", 0.9, scored=False)]
    failures, ratio = worker.verify(first, [(None, None)] * 2, store)
    assert failures == [] and ratio == 0.5
    store.save()

    store = worker.DigestStore(str(tmp_path / "digests.json"))
    later = [_Op("a", b"changed"), _Op("b", b"2", 1.5),
             _Op("c", b"3", float("nan"))]
    outputs = [(None, None), (None, None), (None, None)]
    failures, _ = worker.verify(later, outputs, store)
    assert [f.split(":")[0] for f in failures] == ["a", "b", "c"]
    assert "differ from the first run" in failures[0]

    failures, _ = worker.verify([_Op("d", b"4")], [(None, "OSError: x")],
                                store)
    assert failures == ["d: OSError: x"]


def test_self_time_subtracts_child_spans():
    t = tracing.Tracer()
    # outer [0, 10] holds children [1, 3] and [4, 8]; the second holds [5, 6]
    for layer, parent, start, end in [("outer", -1, 0.0, 10.0),
                                      ("inner", 0, 1.0, 3.0),
                                      ("inner", 0, 4.0, 8.0),
                                      ("leaf", 2, 5.0, 6.0)]:
        t.span_layer.append(t.layer_ids.setdefault(layer, len(t.layer_ids)))
        t.span_parent.append(parent)
        t.span_start.append(start)
        t.span_end.append(end)
    assert t.self_times() == {"outer": 4.0, "inner": 5.0, "leaf": 1.0}
