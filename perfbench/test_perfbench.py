"""The benchmark's own checks: every workload runs, and every check can fail.

    PYTHONPATH=src python -m pytest -q perfbench
"""

import json
import math
import os
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import bench  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from cylspec import fd_oracle as fd  # noqa: E402
from cylspec import fields as F  # noqa: E402
from cylspec import three_circles as tc  # noqa: E402


def _workload(name, tmp_path, n_inputs=2):
    workload = workloads.make(name, str(tmp_path))
    workload.n_inputs = n_inputs
    inputs = workload.build(np.random.default_rng(5))
    return workload, inputs


def _bump(grid, value):
    """The grid field with one interior node raised by value."""
    comps = grid.components.copy()
    comps[(comps.shape[0] // 2,) + (0,) * (comps.ndim - 1)] += value
    return grid.with_components(comps)


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_runs_whole_rounds_and_checks_pass(name, tmp_path):
    workload, inputs = _workload(name, tmp_path)
    stats = bench.time_rounds(workload, inputs, 0.0, bench.Probe(workload.probe_kind))
    assert stats["rounds"] == bench.MIN_ROUNDS
    assert stats["attempted"] == bench.MIN_ROUNDS * len(inputs)
    assert stats["failed"] == 0
    assert stats["problems"] == []
    assert workload.final_check() == []
    assert all(len(t) == bench.MIN_ROUNDS for t in stats["times"])
    assert all(len(r) == bench.MIN_ROUNDS for r in stats["ratios"])
    assert bench.summarize(stats)["items_per_s"] > 0.0


def test_gauge_fd_flags_residual_above_tolerance(tmp_path):
    workload, inputs = _workload("gauge-fd", tmp_path, n_inputs=1)
    h = inputs[0]
    divergence = workload.run(h)
    assert workload.check(h, divergence) == []
    scale = max(1.0, h.max_abs_coeff())
    assert workload.check(h, _bump(divergence, 2.0 * workloads.FD_TOL * scale))


def test_kernel_roundtrip_flags_rebuild_error_and_ricci_residual(tmp_path):
    workload, inputs = _workload("kernel-roundtrip", tmp_path, n_inputs=1)
    h, rebuilt, grid, ricci = out = workload.run(inputs[0])
    assert workload.check(inputs[0], out) == []
    off = F.constant_tensor_field(h.cs, np.eye(h.cs.dim + 1) * 1e-9 * h.max_abs_coeff())
    assert workload.check(inputs[0], (h, rebuilt + off, grid, ricci))
    residual = 2.0 * workloads.FD_TOL * max(1.0, fd.interior_sup(grid))
    assert workload.check(inputs[0], (h, rebuilt, grid, _bump(ricci, residual)))


def test_tube_dichotomy_flags_planted_violations(tmp_path):
    workload, inputs = _workload("tube-dichotomy", tmp_path, n_inputs=1)
    item = inputs[0]
    series, report, params, result = workload.run(item)
    assert workload.check(item, (series, report, params, result)) == []

    # a bump in the middle of the series: neither neighbour dominates it
    values = list(series.values)
    values[2] = 1e3 * max(values)
    planted = tc.TubeNormSeries(L=series.L, offsets=series.offsets, values=tuple(values))
    assert workload.check(item, (planted, report, params, result))
    assert workload.check(item, (series, tc.monotonicity_classify(planted, item[2]),
                                 params, result))

    n1, _, n3 = (math.sqrt(v) for v in result.values)
    too_big = (result.values[0], (10.0 * (n1 + n3)) ** 2, result.values[2])
    forged = tc.CheckResult(True, result.slack, too_big)
    assert workload.check(item, (series, report, params, forged))


def test_tube_dichotomy_final_check_can_fail(tmp_path, monkeypatch):
    workload = workloads.make("tube-dichotomy", str(tmp_path))
    tube_norm = tc.tube_norm
    monkeypatch.setattr(tc, "tube_norm", lambda h, a, b: tube_norm(h, a, b) * (1 + 1e-9))
    problems = workload.final_check()
    assert any("ramp tube norm" in p for p in problems)
    monkeypatch.setattr(tc, "tube_norm", tube_norm)
    monkeypatch.setattr(tc, "sharpness_probe", lambda *args, **kwargs: ())
    assert workload.final_check() == ["sharpness probe 2% over the rate cap finds no failure"]


def test_validate_cli_flags_exit_code_certificates_and_payload_drift(tmp_path):
    workload, inputs = _workload("validate-cli", tmp_path, n_inputs=1)
    seed = inputs[0]
    code, text = workload.run(seed)
    assert workload.check(seed, (code, text)) == []
    assert workload.check(seed, (3, text))

    envelope = json.loads(text)
    for cert in envelope["certificates"]:
        if cert["name"] == "kernel-ricci-fd":
            cert["passed"] = False
    assert workload.check(seed, (0, json.dumps(envelope)))

    drifted = text.replace('"fd_tolerance":', '"fd_tolerance":1e-3,"was":')
    assert drifted != text
    assert any("differs" in p for p in workload.check(seed, (0, drifted)))


def test_traced_rounds_count_layers_and_restore_the_library(tmp_path):
    original = fd.sample
    workload, inputs = _workload("kernel-roundtrip", tmp_path, n_inputs=1)
    counts = []
    for _ in range(2):
        tracer = tracing.Tracer("kernel-roundtrip")
        plain, traced = bench.time_traced_rounds(workload, inputs, 0.0,
                                                 bench.Probe(workload.probe_kind), tracer)
        assert fd.sample is original
        assert plain["problems"] == traced["problems"] == []
        per_item = tracer.per_item(traced["attempted"])
        counts.append({k: v for k, v in per_item.items() if not k.endswith(".ms")})
        assert per_item["fd_oracle.sample.nodes"] == 128 * 24 * 24
        assert per_item["deformation_solver.classify_kernel.ms"] > 0.0
        assert per_item["cli.run_job.ms"] == 0.0
        spans = tracer.spans
        items = [s for s in spans if s[1] == tracing.ITEM]
        assert len(items) == traced["attempted"]
        assert all(s[4] is not None for s in spans if s[1] != tracing.ITEM)
    assert counts[0] == counts[1]


def test_benchmark_json_names_the_workloads_and_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert run.WORKLOADS == workloads.NAMES
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == list(tracing.PER_LAYER)
    assert {m["name"] for m in spec["end_to_end"]} == {
        "items_per_s", "item_ms_p50", "setup_s", "peak_rss_mb"}


def test_run_fails_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "gauge-fd", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert done.stdout == ""
