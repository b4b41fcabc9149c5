"""One workload process: set up, run timed passes, check, report.

Started by run.py, which sets the thread environment and passes its
launch time in BENCH_LAUNCH (time.monotonic(), shared by all processes
on the machine), so set-up time counts from process start.  Prints one
JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import os
import resource
import shutil
import statistics
import sys
import time

import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
OUT = os.path.join(BENCH, "out")


class DigestStore:
    """Output digests of the first run of a set, kept across runs.

    A set is every run of one version of the code and benchmark on one
    interpreter and numpy/scipy: the key is a hash of src/vexs/*.py,
    bench/*.py and those versions.  The first run to perform an operation
    records its digest; every later pass of any run in the set must
    match it byte for byte.
    """

    def __init__(self, path: str):
        import numpy
        import scipy
        h = hashlib.sha256()
        for f in sorted(glob.glob(os.path.join(ROOT, "src", "vexs", "*.py"))
                        + glob.glob(os.path.join(BENCH, "*.py"))):
            with open(f, "rb") as fh:
                h.update(os.path.basename(f).encode() + b"\0" + fh.read())
        h.update(f"{sys.version}|{numpy.__version__}|{scipy.__version__}"
                 .encode())
        self.fingerprint = h.hexdigest()
        self.path = path
        self.new: dict[str, str] = {}
        self.known = self._load().get(self.fingerprint, {})

    def _load(self) -> dict:
        try:
            with open(self.path) as fh:
                return json.load(fh)
        except FileNotFoundError:
            return {}

    def first(self, key: str, digest: str) -> str:
        if key not in self.known:
            self.known[key] = self.new[key] = digest
        return self.known[key]

    def save(self) -> None:
        """Merge this run's new digests into the file (runs of one
        checkout are sequential)."""
        if not self.new:
            return
        data = self._load()
        mine = data.setdefault(self.fingerprint, {})
        for key, digest in self.new.items():
            mine.setdefault(key, digest)
        tmp = f"{self.path}.{os.getpid()}.tmp"
        with open(tmp, "w") as fh:
            json.dump(data, fh, indent=0, sort_keys=True)
        os.replace(tmp, self.path)


def run_pass(ops, op_walls):
    """Call every operation once; time the calls and nothing else."""
    outputs = []
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for op in ops:
        t0 = time.perf_counter()
        try:
            outputs.append((op.call(), None))
        except Exception as exc:     # a failed operation is a result
            outputs.append((None, f"{type(exc).__name__}: {exc}"))
        op_walls.setdefault(op.key, []).append(time.perf_counter() - t0)
    return time.perf_counter() - wall0, time.process_time() - cpu0, outputs


def verify(ops, outputs, store):
    """Failures (one per failed operation) and the largest scored check
    ratio of one pass."""
    failures, ratios = [], []
    for op, (out, err) in zip(ops, outputs):
        if err is None:
            try:
                payload, checks = op.check(out)
            except Exception as exc:
                payload, checks = None, []
                err = f"unreadable output: {type(exc).__name__}: {exc}"
        if err is None:
            digest = hashlib.sha256(payload).hexdigest()
            if store.first(op.key, digest) != digest:
                err = "output bytes differ from the first run of the set"
            broken = [f"{c.label}: ratio {c.ratio:.4g}" for c in checks
                      if not c.ratio <= 1.0]
            if broken:
                err = "; ".join(broken)
            # a failed boolean check reads inf; keep the report valid JSON
            ratios += [min(c.ratio, sys.float_info.max) if c.ratio == c.ratio
                       else sys.float_info.max for c in checks if c.scored]
        if err is not None:
            failures.append(f"{op.key}: {err}")
    return failures, max(ratios, default=0.0)


def main(argv=None) -> int:
    launch = float(os.environ["BENCH_LAUNCH"])
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    import vexs
    src = os.path.join(ROOT, "src")
    if os.path.commonpath([os.path.abspath(vexs.__file__), src]) != src:
        print(f"error: imported vexs from {vexs.__file__}, not {src}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(OUT, f"run-{os.getpid()}")
    try:
        ctx = workloads.Context(scratch)
        ops = workloads.WORKLOADS[args.workload](args.seed, ctx)
        setup_s = time.monotonic() - launch
        if args.setup_only:
            print(json.dumps({"setup_s": setup_s}))
            return 0
        return measure(args, ops, setup_s)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def measure(args, ops, setup_s) -> int:
    store = DigestStore(os.path.join(OUT, "digests.json"))
    walls, cpus, failures, err_ratio = [], [], [], 0.0
    op_walls: dict[str, list[float]] = {}
    attempted = 0

    def one_pass():
        nonlocal attempted, err_ratio
        wall, cpu, outputs = run_pass(ops, op_walls)
        bad, ratio = verify(ops, outputs, store)
        walls.append(wall)
        cpus.append(cpu)
        failures.extend(bad)
        attempted += len(ops)
        err_ratio = max(err_ratio, ratio)

    report = {"setup_s": setup_s}
    if args.trace:
        from tracing import OVERHEAD, Tracer, metric_names
        one_pass()
        tracer = Tracer()
        tracer.install()
        try:
            one_pass()
        finally:
            tracer.uninstall()
        layers = tracer.metrics()
        layers[OVERHEAD] = walls[1] - walls[0]
        bypass = workloads.bypass_failures(args.workload, layers)
        attempted += 1
        if bypass:
            failures.append("bypass self-check: " + "; ".join(bypass))
        tracer.write_spans(os.path.join(
            OUT, f"spans-{args.workload}.tsv"))
        report["layers"] = {name: {"value": layers[name], "unit": unit}
                            for name, unit in metric_names()}
    else:
        # passes until the next one would end past --seconds; at least one
        start = time.perf_counter()
        while not walls or (time.perf_counter() - start
                            + statistics.median(walls) <= args.seconds):
            one_pass()
    store.save()

    report.update(
        walls=walls, cpus=cpus, err_ratio=err_ratio, attempted=attempted,
        failed=len(failures), failures=failures, op_walls=op_walls,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
