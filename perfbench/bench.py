"""One workload in one process: build the inputs, warm up, time whole rounds.

run.py starts this script; it is not meant to be run by hand.  It prints
READY when set-up is done, so that the parent can time set-up from
process start, and it prints its result as one JSON object on its last
line.  With --setup-only it stops after READY and the probe runs that
scale its set-up time.

Every round runs each input once, in the same order, and checks each
output untimed.  Rounds repeat until --seconds have passed, and at least
twice.

The machine's speed drifts from one second to the next as other tenants
come and go, by a third at times, and a 20-second run can fall wholly in
a slow spell.  So a fixed probe (see Probe), which does not touch the
library, runs just before each item (at most every PROBE_EVERY_S), and an
item counts as its time over that of the probe before it.  An input's
time is the median of these ratios over the rounds, times
PROBE_NOMINAL_S: it is the item's time at the machine speed at which the
probe takes PROBE_NOMINAL_S.  The unscaled figures are kept in the
reference block of the result.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import os
import platform
import random
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

import tracing

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"

MIN_ROUNDS = 2
PROBE_NOMINAL_S = 0.004
PROBE_EVERY_S = 0.05
SETUP_PROBES = 10


# probe kind: (loop iterations, dict lookups, rounds over 64 small matrices)
PROBE_KINDS = {
    "loop": (75_000, 0, 0),
    "mixed": (30_000, 2_000, 6),
    "small-numpy": (0, 0, 16),
}


class Probe:
    """A fixed computation that does not touch the library; calling it
    returns its wall time.

    Workloads slow down by different amounts when the machine is busy,
    so each names the probe that slows down most like it
    (``probe_kind``): "loop", a tight interpreter loop, suits workloads
    whose time goes into large numpy arrays; "small-numpy", many numpy
    calls on 3 x 3 matrices, suits one that lives in the interpreter and
    small numpy calls; "mixed" adds lookups and allocations over a dict
    of a few megabytes to a shorter loop and fewer small calls.  Each
    takes about 4 ms on the reference machine.
    """

    def __init__(self, kind: str):
        self.loops, lookups, self.matrix_rounds = PROBE_KINDS[kind]
        rng = random.Random(0)
        self.table = {(i, i % 13): float(i) for i in range(50_000)} if lookups else {}
        self.keys = [(k, k % 13) for k in (rng.randrange(50_000) for _ in range(lookups))]
        self.matrices = [np.arange(9.0).reshape(3, 3) + i for i in range(64)]

    def __call__(self) -> float:
        start = time.perf_counter()
        total = 0
        for i in range(self.loops):
            total += i * i
        rows = [(k[0], 0.5 * self.table[k]) for k in self.keys]
        rows.sort(key=lambda row: -row[1])
        for _ in range(self.matrix_rounds):
            for m in self.matrices:
                total += float(np.max(np.abs(m @ m.T)))
        return time.perf_counter() - start


def _new_stats(n_inputs: int) -> dict:
    return {"times": [[] for _ in range(n_inputs)], "ratios": [[] for _ in range(n_inputs)],
            "attempted": 0, "failed": 0, "problems": [], "rounds": 0, "probes": []}


def _round(workload, inputs, stats, probe, tracer=None):
    """Run and check every input once; record each item's time and its
    ratio to the latest probe."""
    gc.collect()
    probed_at = -math.inf
    for i, x in enumerate(inputs):
        if time.perf_counter() - probed_at >= PROBE_EVERY_S:
            stats["probes"].append(probe())
            probed_at = time.perf_counter()
        stats["attempted"] += 1
        start = time.perf_counter()
        try:
            if tracer is None:
                out = workload.run(x)
            else:
                out = tracer.run(tracing.ITEM, workload.run, x)
        except Exception:
            stats["failed"] += 1
            traceback.print_exc()
            continue
        elapsed = time.perf_counter() - start
        stats["times"][i].append(elapsed)
        stats["ratios"][i].append(elapsed / stats["probes"][-1])
        stats["problems"] += workload.check(x, out)
    stats["rounds"] += 1


def time_rounds(workload, inputs, seconds, probe) -> dict:
    """Whole rounds over the inputs until `seconds` have passed."""
    stats = _new_stats(len(inputs))
    deadline = time.perf_counter() + seconds
    while stats["rounds"] < MIN_ROUNDS or time.perf_counter() < deadline:
        _round(workload, inputs, stats, probe)
    return stats


def time_traced_rounds(workload, inputs, seconds, probe, tracer) -> tuple:
    """Untraced and traced rounds in turn, so that the overhead ratio
    compares rounds that ran under the same conditions."""
    plain, traced = _new_stats(len(inputs)), _new_stats(len(inputs))
    deadline = time.perf_counter() + seconds
    while traced["rounds"] < MIN_ROUNDS or time.perf_counter() < deadline:
        _round(workload, inputs, plain, probe)
        tracer.install()
        try:
            _round(workload, inputs, traced, probe, tracer)
        finally:
            tracer.uninstall()
    return plain, traced


def _summary(per_input) -> dict:
    seconds = [statistics.median(v) for v in per_input if v]
    return {"items_per_s": len(seconds) / sum(seconds),
            "item_ms_p50": 1e3 * statistics.median(seconds)}


def summarize(stats) -> dict:
    """items_per_s and item_ms_p50 at the probe's nominal speed."""
    return _summary([[PROBE_NOMINAL_S * r for r in v] for v in stats["ratios"]])


def reference(stats) -> dict:
    """Unscaled figures: the probe, the metrics from unscaled times, and
    the median and tail over every timed item with the sample count.

    The tail is the highest of the listed percentiles with at least ten
    samples beyond it; below forty samples only the median is given.
    """
    samples = sorted(t for per_input in stats["times"] for t in per_input)
    unscaled = _summary(stats["times"])
    out = {"samples": len(samples), "rounds": stats["rounds"],
           "probe_ms_p50": 1e3 * statistics.median(stats["probes"]),
           "probes": len(stats["probes"]),
           "unscaled_items_per_s": unscaled["items_per_s"],
           "unscaled_item_ms_p50": unscaled["item_ms_p50"],
           "all_items_ms_p50": 1e3 * statistics.median(samples)}
    if len(samples) >= 40:
        q = max(p for p in (75, 90, 95, 99, 99.9) if len(samples) * (1 - p / 100) >= 10)
        cuts = statistics.quantiles(samples, n=1000, method="inclusive")
        out[f"all_items_ms_p{q:g}"] = 1e3 * cuts[round(q * 10) - 1]
    return out


def environment() -> dict:
    import scipy

    src_lines = 0
    for path in sorted(SRC.rglob("*.py")):
        with open(path, "rb") as fh:
            src_lines += sum(1 for _ in fh)
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "cpu_count": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": {k: os.environ.get(k) for k in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "src_lines": src_lines,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True, help="directory for spans and scratch files")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, str(SRC))
    import cylspec
    import workloads

    if Path(cylspec.__file__).resolve().parent != SRC / "cylspec":
        print(f"cylspec imported from {cylspec.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    scratch = tempfile.mkdtemp(prefix=f"scratch-{args.workload}-", dir=args.out)
    try:
        workload = workloads.make(args.workload, scratch)
        inputs = workload.build(np.random.default_rng(args.seed))
        warm = workload.check(inputs[0], workload.run(inputs[0]))
        gc.collect()
        gc.freeze()
        print("READY", flush=True)
        # the probe right after set-up scales its time, as it scales item times
        probe = Probe(workload.probe_kind)
        setup_scale = PROBE_NOMINAL_S / statistics.median(
            probe() for _ in range(SETUP_PROBES))
        if args.setup_only:
            print(json.dumps({"setup_scale": setup_scale}))
            return 0

        if args.trace:
            tracer = tracing.Tracer(args.workload)
            plain, traced = time_traced_rounds(workload, inputs, args.seconds, probe,
                                               tracer)
            values = tracer.per_item(traced["attempted"] - traced["failed"])
            values["trace.items_per_s_ratio"] = (summarize(traced)["items_per_s"]
                                                 / summarize(plain)["items_per_s"])
            metrics = {name: {"value": values[name], "unit": unit}
                       for name, unit in tracing.PER_LAYER}
            tracer.write_spans(
                os.path.join(args.out, f"spans-{args.workload}-seed{args.seed}.jsonl"))
            attempted = plain["attempted"] + traced["attempted"]
            failed = plain["failed"] + traced["failed"]
            problems = plain["problems"] + traced["problems"]
        else:
            plain = time_rounds(workload, inputs, args.seconds, probe)
            attempted, failed, problems = plain["attempted"], plain["failed"], plain["problems"]
            summary = summarize(plain)
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            metrics = {"items_per_s": {"value": summary["items_per_s"], "unit": "1/s"},
                       "item_ms_p50": {"value": summary["item_ms_p50"], "unit": "ms"},
                       "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"}}
        problems = warm + problems + workload.final_check()
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    for problem in problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
        "setup_scale": setup_scale,
        "reference": reference(plain),
        "environment": environment(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
