"""Benchmark of the cylspec pipeline, one workload per call.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a source tree that has ``src/cylspec``; nothing
needs to be installed.  The workload runs in its own process
(perfbench/bench.py) with single-threaded BLAS.  With --trace 0 the last
line of standard output is a JSON object holding the end-to-end metrics
items_per_s, item_ms_p50, setup_s and peak_rss_mb; with --trace 1 it
holds the per-layer metrics of a traced run instead.  The two lines
before it record the environment and reference figures.  Each run also
writes its result, and a traced run its spans, under perfbench/out/.

setup_s is the median over SETUP_SAMPLES fresh processes of the time from
process start to the end of set-up: importing cylspec, building the
inputs and one untimed warm-up item.  All but the last of those processes
stop there; the last one goes on to the timed rounds.  Like the item
times, each set-up time is scaled to the nominal machine speed of
bench.py's probe.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("gauge-fd", "kernel-roundtrip", "tube-dichotomy", "validate-cli")
SETUP_SAMPLES = 5
TIME_LIMIT_S = 170.0


def start_child(argv, deadline):
    """Run bench.py; return (seconds until its READY line, its last line).

    The child is killed if it runs past the deadline (a perf_counter value).
    """
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
               MKL_NUM_THREADS="1", PYTHONHASHSEED="0")
    start = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(HERE / "bench.py"), *argv],
                            stdout=subprocess.PIPE, text=True, env=env, cwd=ROOT)
    watchdog = threading.Timer(max(1.0, deadline - start), proc.kill)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        lines = proc.stdout.read().splitlines()
        code = proc.wait()
    finally:
        watchdog.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if ready.strip() != "READY" or code != 0:
        raise RuntimeError(f"bench.py {' '.join(argv)} exited with code {code}")
    return setup_s, (lines[-1] if lines else None)


def main(argv=None) -> int:
    started = time.perf_counter()
    parser = argparse.ArgumentParser(description="cylspec benchmark: one workload per call")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "cylspec" / "__init__.py").is_file():
        print(f"no cylspec sources under {ROOT / 'src'}; run from a source tree",
              file=sys.stderr)
        return 2
    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    child = ["--workload", args.workload, "--seed", str(args.seed),
             "--seconds", str(args.seconds), "--trace", str(args.trace),
             "--out", str(out_dir)]
    deadline = started + TIME_LIMIT_S

    try:
        setup, unscaled_setup = [], []
        if not args.trace:
            for _ in range(SETUP_SAMPLES - 1):
                setup_s, last = start_child(child + ["--setup-only"], deadline)
                unscaled_setup.append(setup_s)
                setup.append(setup_s * json.loads(last)["setup_scale"])
        setup_s, last = start_child(child, deadline)
        result = json.loads(last)
        unscaled_setup.append(setup_s)
        setup.append(setup_s * result["setup_scale"])
    except (RuntimeError, TypeError, json.JSONDecodeError) as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 1

    metrics = result["metrics"]
    if not args.trace:
        metrics["setup_s"] = {"value": statistics.median(setup), "unit": "s"}
    summary = {"correct": result["correct"], "attempted": result["attempted"],
               "failed": result["failed"], "metrics": metrics}
    record = dict(summary, workload=args.workload, seed=args.seed, seconds=args.seconds,
                  trace=args.trace, setup_samples_s=setup,
                  unscaled_setup_samples_s=unscaled_setup, reference=result["reference"],
                  environment=result["environment"])
    with open(out_dir / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json",
              "w") as fh:
        json.dump(record, fh, indent=1)
    print("environment " + json.dumps(result["environment"]))
    print("reference " + json.dumps(dict(result["reference"], setup_samples_s=setup,
                                         unscaled_setup_samples_s=unscaled_setup)))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
