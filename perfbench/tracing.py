"""Per-layer spans and counters, taken from outside the library.

A Tracer replaces each public function it measures with a wrapper, in
every ``cylspec`` namespace that binds it (methods are patched on their
class), and restores the originals on ``uninstall``.  Each call records
one span: name, start, end, parent span and workload.  Spans stay in
memory until ``write_spans`` is called at the end of the run.

Self time is a span's duration minus the durations of its direct child
spans, so the self times of nested layers add up to the item's time.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import time
from collections import Counter

import numpy as np

# (layer, attribute path inside the module, work counter or None)
LAYERS = (
    ("fields", "TensorField.evaluate", "term_points"),
    ("fields", "tube_inner_product", "term_pairs"),
    ("fd_oracle", "sample", "nodes"),
    ("fd_oracle", "fd_operator", None),
    ("fd_oracle", "nonlinear_ricci", None),
    ("mode_ode", "RadialProfile.definite_integral", None),
    ("mode_ode", "solve_scalar_mode", None),
    ("mode_ode", "solve_mixed_mode", None),
    ("three_circles", "tube_norm", None),
    ("three_circles", "monotonicity_classify", None),
    ("three_circles", "three_circles_check", None),
    ("cross_section", "build_spectrum", None),
    ("cross_section", "TorusCrossSection.smallest_positive_eigenvalue", None),
    ("cross_section", "tangent_complement", None),
    ("deformation_solver", "classify_kernel", None),
    ("deformation_solver", "solve_reduced_system", None),
    ("divergence_solver", "lie_derivative_metric", None),
    ("divergence_solver", "solve_gauge", None),
    ("cli", "resolve_config", None),
    ("cli", "run_job", None),
    ("cli", "write_envelope", None),
)

# The per-layer metrics a traced run reports, each as a value per item.
PER_LAYER = (
    ("fields.evaluate.calls", "count"),
    ("fields.evaluate.ms", "ms"),
    ("fields.evaluate.term_points", "count"),
    ("fd_oracle.sample.ms", "ms"),
    ("fd_oracle.sample.nodes", "count"),
    ("fields.tube_inner_product.calls", "count"),
    ("fields.tube_inner_product.ms", "ms"),
    ("fields.tube_inner_product.term_pairs", "count"),
    ("mode_ode.definite_integral.calls", "count"),
    ("mode_ode.definite_integral.ms", "ms"),
    ("three_circles.tube_norm.calls", "count"),
    ("three_circles.tube_norm.ms", "ms"),
    ("three_circles.monotonicity_classify.ms", "ms"),
    ("three_circles.three_circles_check.ms", "ms"),
    ("cross_section.build_spectrum.calls", "count"),
    ("cross_section.build_spectrum.ms", "ms"),
    ("cross_section.smallest_positive_eigenvalue.calls", "count"),
    ("cross_section.tangent_complement.calls", "count"),
    ("deformation_solver.classify_kernel.ms", "ms"),
    ("deformation_solver.solve_reduced_system.ms", "ms"),
    ("divergence_solver.lie_derivative_metric.calls", "count"),
    ("divergence_solver.lie_derivative_metric.ms", "ms"),
    ("divergence_solver.solve_gauge.ms", "ms"),
    ("mode_ode.solve_scalar_mode.calls", "count"),
    ("mode_ode.solve_scalar_mode.ms", "ms"),
    ("mode_ode.solve_mixed_mode.calls", "count"),
    ("mode_ode.solve_mixed_mode.ms", "ms"),
    ("fd_oracle.fd_operator.divergence.ms", "ms"),
    ("fd_oracle.fd_operator.linearized_ricci.ms", "ms"),
    ("fd_oracle.fd_operator.lichnerowicz.ms", "ms"),
    ("fd_oracle.fd_operator.rough_laplacian.ms", "ms"),
    ("fd_oracle.nonlinear_ricci.calls", "count"),
    ("fd_oracle.nonlinear_ricci.ms", "ms"),
    ("cli.resolve_config.ms", "ms"),
    ("cli.run_job.ms", "ms"),
    ("cli.write_envelope.ms", "ms"),
    ("trace.items_per_s_ratio", "ratio"),
)

ITEM = "perfbench.item"


def _term_points(field, r, xs, *_args, **_kwargs):
    terms = sum(len(profiles) for profiles in field.data.values())
    return terms * np.size(r) * math.prod(np.shape(xs)[:-1])


def _term_pairs(a, b, *_args, **_kwargs):
    return sum(len(a.data[k]) * len(b.data[k]) for k in a.data.keys() & b.data.keys())


def _nodes(field, _r_range, n_r, n_x, *_args, **_kwargs):
    if isinstance(n_x, int):
        return int(n_r) * n_x ** field.cs.dim
    return int(n_r) * math.prod(int(n) for n in n_x)


_WORK = {"term_points": _term_points, "term_pairs": _term_pairs, "nodes": _nodes}


def _fd_operator_name(args, kwargs):
    op = args[0] if args else kwargs.get("op")
    return f"fd_oracle.fd_operator.{op}"


class Tracer:
    """Spans and counts for the layers in LAYERS, for one workload."""

    def __init__(self, workload: str):
        self.workload = workload
        self.spans = []  # (id, name, start, end, parent id or None, workload)
        self.calls = Counter()
        self.self_s = Counter()
        self.work = Counter()
        self._stack = []  # [span id, accumulated child seconds]
        self._patched = []  # (namespace, attribute, original)

    # -- spans -------------------------------------------------------------

    def run(self, name, fn, *args, **kwargs):
        """Call fn inside a span called name."""
        span_id = len(self.spans)
        self.spans.append(None)
        parent = self._stack[-1][0] if self._stack else None
        frame = [span_id, 0.0]
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            duration = end - start
            if self._stack:
                self._stack[-1][1] += duration
            self.spans[span_id] = (span_id, name, start, end, parent, self.workload)
            self.calls[name] += 1
            self.self_s[name] += duration - frame[1]

    def _wrap(self, name, fn, work_name):
        work = _WORK.get(work_name)
        name_of = _fd_operator_name if name == "fd_oracle.fd_operator" else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            label = name if name_of is None else name_of(args, kwargs)
            if work is not None:
                self.work[f"{label}.{work_name}"] += work(*args, **kwargs)
            return self.run(label, fn, *args, **kwargs)

        return traced

    # -- patching ----------------------------------------------------------

    def install(self):
        """Wrap every function in LAYERS wherever cylspec binds it."""
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "cylspec" or n.startswith("cylspec."))]
        for layer, path, work_name in LAYERS:
            module = sys.modules[f"cylspec.{layer}"]
            name = f"{layer}.{path.split('.')[-1]}"
            if "." in path:
                cls_name, attr = path.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[attr]
                self._patch(cls, attr, self._wrap(name, original, work_name))
                continue
            original = getattr(module, path)
            wrapper = self._wrap(name, original, work_name)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, attr, wrapper)

    def _patch(self, namespace, attr, wrapper):
        self._patched.append((namespace, attr, getattr(namespace, attr)))
        setattr(namespace, attr, wrapper)

    def uninstall(self):
        for namespace, attr, original in reversed(self._patched):
            setattr(namespace, attr, original)
        self._patched.clear()

    # -- results -----------------------------------------------------------

    def per_item(self, items: int) -> dict:
        """Every PER_LAYER metric except the overhead ratio, per item."""
        values = {}
        for name, unit in PER_LAYER:
            layer, _, kind = name.rpartition(".")
            if unit == "ratio":
                continue
            if kind == "calls":
                total = self.calls[layer]
            elif kind == "ms":
                total = 1e3 * self.self_s[layer]
            else:
                total = self.work[name]
            values[name] = total / items
        return values

    def write_spans(self, path: str):
        with open(path, "w") as fh:
            for span_id, name, start, end, parent, workload in self.spans:
                fh.write(json.dumps({"id": span_id, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "workload": workload}) + "\n")
