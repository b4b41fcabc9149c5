"""vexs benchmark: one workload, one seed, one JSON line.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs from any directory; the checkout is the parent of this file's
directory and vexs is imported from its src/.  Workloads are defined in
workloads.py and named in BENCHMARK.json.

--trace 0 starts the workload in a fresh process (worker.py) that runs
passes over the workload's operations while the next pass is expected to
end within S seconds (at least one), and SETUP_PROBES more processes
that only set up, and prints
the end-to-end metrics: median wall and CPU seconds of a pass, median
set-up seconds, peak RSS of the workload process and the largest
fixed-input check ratio.  --trace 1 runs one untraced and one traced
pass and prints the per-layer metrics instead.

The last stdout line is {"correct", "attempted", "failed", "metrics"}.
Exit code 0 when every operation passed its checks and matched the
first run's output bytes, 1 when any failed, 2 when the workload could
not run at all.  Every process started here has ended before it exits.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORKLOADS = ("threshold", "power", "layer_cake", "spaces_maximal")
END_TO_END = {"wall_s": "s", "cpu_s": "s", "setup_s": "s",
              "peak_rss_mb": "MB", "err_ratio": "ratio"}
SETUP_PROBES = 4
DEADLINE_S = 170.0
# one thread everywhere: sweeps (VEXS_THREADS) and BLAS/OpenMP pools
THREAD_ENV = {"VEXS_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}


class WorkerError(Exception):
    pass


def spawn(argv: list[str], deadline: float) -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")] +
        ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["BENCH_LAUNCH"] = repr(time.monotonic())
    try:
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), *argv],
            env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True,
            timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise WorkerError(f"worker {' '.join(argv)} ran past the deadline")
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"worker {' '.join(argv)} exited "
                          f"{proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "src", "vexs", "__init__.py")):
        print(f"error: no vexs sources under {ROOT}/src", file=sys.stderr)
        return 2
    os.makedirs(os.path.join(BENCH, "out"), exist_ok=True)

    deadline = time.monotonic() + DEADLINE_S
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--seconds", str(args.seconds)]
    try:
        setups = [] if args.trace else [
            spawn(common + ["--setup-only"], deadline)["setup_s"]
            for _ in range(SETUP_PROBES)]
        rep = spawn(common + ["--trace", str(args.trace)], deadline)
    except WorkerError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    for key, walls in rep["op_walls"].items():
        print(f"{key}: {statistics.median(walls):.3f} s", file=sys.stderr)
    for failure in rep["failures"]:
        print(f"FAILED {failure}", file=sys.stderr)
    if args.trace:
        metrics = rep["layers"]
    else:
        setups.append(rep["setup_s"])
        values = {"wall_s": statistics.median(rep["walls"]),
                  "cpu_s": statistics.median(rep["cpus"]),
                  "setup_s": statistics.median(setups),
                  "peak_rss_mb": rep["peak_rss_mb"],
                  "err_ratio": rep["err_ratio"]}
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    print(json.dumps({"correct": rep["failed"] == 0,
                      "attempted": rep["attempted"],
                      "failed": rep["failed"], "metrics": metrics}))
    return 0 if rep["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
