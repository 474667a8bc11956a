#!/usr/bin/env python3
"""Benchmark of the gafecg pipeline: one workload per process.

    python3 perfbench/run.py --workload {train,frontend,screen} --seed N \
        --seconds S --trace {0,1}

Run from the repository root. The package is imported from ``src/`` next
to this directory; inputs are generated from ``--seed``. With ``--trace 0``
the last line of standard output is a JSON object holding the end-to-end
metrics; with ``--trace 1`` the package's functions are wrapped from
outside and the object holds the per-layer metrics instead. Both carry the
number of operations attempted and failed, and whether every output check
passed. Run outputs go to ``.perfbench_runs/`` and are removed at exit,
except the span file of a traced run.
"""
from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
RUNS = ROOT / ".perfbench_runs"
SETUPS = 3  # set-ups per run; setup_s is their median
MIN_ROUNDS = 2  # so every run checks that a repeat reproduces the first round
BLAS_THREADS = "1"  # single-beat timings depend on it; keep it equal across comparisons

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS


def environment() -> dict:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    sha = "n/a"
    if (ROOT / ".git").exists():
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True
        )
        sha = done.stdout.strip() or sha
    return {
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "git_sha": sha,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=["train", "frontend", "screen"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    if not (SRC / "gafecg" / "__init__.py").is_file():
        print(f"error: no package source under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    import gafecg
    import spans
    import workloads
    from checks import CheckFailed

    if Path(gafecg.__file__).resolve().parent != SRC / "gafecg":
        print(f"error: imported gafecg from {gafecg.__file__}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    print("# env " + json.dumps(environment()), flush=True)

    RUNS.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-{args.seed}-", dir=RUNS))
    workload = workloads.WORKLOADS[args.workload](workdir, args.seed)
    tracer = spans.Tracer()
    try:
        setup_s = []
        for k in range(SETUPS):
            directory = workdir / f"setup{k}"
            directory.mkdir()
            t0 = time.perf_counter()
            workload.setup(directory)
            setup_s.append(time.perf_counter() - t0)
        if args.trace:
            workload.install(tracer)
        attempted = 0
        start = time.perf_counter()
        while workload.rounds < MIN_ROUNDS or time.perf_counter() - start < args.seconds:
            workload.run_round(tracer)
            workload.rounds += 1
            attempted += workload.ops_per_round
    except CheckFailed as exc:
        print(f"error: output check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        tracer.restore()
        shutil.rmtree(workdir, ignore_errors=True)

    measured = {
        "setup_s": {"value": statistics.median(setup_s), "unit": "s"},
        "peak_rss_mb": {
            "value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "unit": "MB",
        },
    }
    for name, value in workload.end_to_end().items():
        unit = {"throughput_per_s": "1/s", "latency_ms": "ms"}[name]
        measured[name] = {"value": value, "unit": unit}
    if args.trace:
        trace_file = RUNS / f"spans-{args.workload}-seed{args.seed}.json"
        tracer.write(trace_file)
        print("# end_to_end (traced) " + json.dumps(measured))
        print(f"# spans written to {trace_file.relative_to(ROOT)}")
        metrics = tracer.layer_metrics(workload.rounds, workload.extras())
        names = [m["name"] for m in declared["per_layer"]]
    else:
        metrics = measured
        names = [m["name"] for m in declared["end_to_end"]]
    if sorted(metrics) != sorted(names):
        print(f"error: metrics {sorted(metrics)} != BENCHMARK.json {sorted(names)}", file=sys.stderr)
        return 2
    result = {"correct": True, "attempted": attempted, "failed": 0, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
