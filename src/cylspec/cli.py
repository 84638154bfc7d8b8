"""Command-line entry point: config parsing, job orchestration, result
persistence, and plot-data export.

A run resolves one JobConfig (INI with named sections, or JSON carrying
the same schema), executes one task, and writes one result envelope.
The envelope's ``payload`` block is rendered canonically (sorted keys,
floats at 17 significant digits), so identical (config, seed) produce
byte-identical payloads; timing lives outside the payload for that
reason.  Exit codes: 0 success, 1 internal error, 2 invalid input,
3 certificate failure.
"""

from __future__ import annotations

import argparse
import configparser
import hashlib
import json
import logging
import math
import os
import sys
import time
from dataclasses import dataclass

import numpy as np

from . import __version__
from . import fields as fields_mod
from .cross_section import TorusCrossSection, build_spectrum
from .deformation_solver import (
    classify_kernel,
    parallel_space_dimension,
    solve_reduced_system,
)
from .divergence_solver import (
    DivergenceConfig,
    gauge_residual,
    lie_derivative_metric,
    modified_divergence,
    solve_gauge,
)
from .errors import CertificateFailure, CylspecError, InvalidInput
from .fd_oracle import (
    StencilConfig,
    fd_operator,
    flat_metric_grid,
    interior_sup,
    nonlinear_ricci,
    quadratic_remainder_scan,
    sample,
)
from .fields import TensorField
from .green_kernel import estimate_weighted_bound
from .mode_ode import RadialProfile
from .three_circles import (
    ThreeCirclesParams,
    TubeNormSeries,
    random_reduced_form,
    three_circles_check,
    tube_norm,
)

log = logging.getLogger("cylspec")

OUTPUT_DIR_ENV = "CYLSPEC_OUTPUT_DIR"

MODE_KINDS = ("Scalar", "CoclosedOneForm", "HarmonicOneForm", "TTTensor")

EXPORT_KINDS = ("tube-norm-series", "bound-fit", "remainder-scan")


# ---------------------------------------------------------------------------
# canonical rendering
# ---------------------------------------------------------------------------


def canonical_json(obj) -> str:
    """Deterministic JSON: sorted keys, floats at 17 significant digits."""
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        x = float(obj)
        if math.isnan(x):
            return "NaN"
        if math.isinf(x):
            return "Infinity" if x > 0 else "-Infinity"
        return format(x, ".17g")
    if obj is None:
        return "null"
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        return canonical_json(obj.tolist())
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(canonical_json(v) for v in obj) + "]"
    if isinstance(obj, dict):
        items = sorted((str(k), v) for k, v in obj.items())
        return "{" + ",".join(json.dumps(k) + ":" + canonical_json(v) for k, v in items) + "}"
    raise InvalidInput(f"cannot serialize {type(obj).__name__} into an envelope")


def _digest(obj) -> str:
    return hashlib.sha256(canonical_json(obj).encode()).hexdigest()


# ---------------------------------------------------------------------------
# field files
# ---------------------------------------------------------------------------


def field_to_dict(h: TensorField) -> dict:
    cs = h.cs
    return {
        "cross_section": {
            "dim": cs.dim,
            "side_lengths": list(cs.side_lengths),
            "freq_cutoff": cs.freq_cutoff,
        },
        "rank": h.rank,
        "terms": [
            {
                "freq": list(freq),
                "phase": phase,
                "power": p,
                "rate": lam,
                "coeff": np.asarray(C).tolist(),
            }
            for (freq, phase), (p, lam), C in h.terms()
        ],
    }


def field_from_dict(data: dict) -> TensorField:
    try:
        cs_block = data["cross_section"]
        cs = TorusCrossSection(
            int(cs_block["dim"]),
            tuple(float(s) for s in cs_block["side_lengths"]),
            int(cs_block["freq_cutoff"]),
        )
        rank = int(data["rank"])
        h = TensorField.zero(cs, rank)
        for term in data["terms"]:
            coeff = np.asarray(term["coeff"], dtype=float)
            if coeff.shape != (cs.dim + 1,) * rank:
                raise InvalidInput(
                    f"coefficient shape {coeff.shape} does not match rank {rank}"
                )
            h._accumulate(
                (tuple(int(k) for k in term["freq"]), str(term["phase"])),
                (int(term["power"]), float(term["rate"])),
                coeff,
            )
        return h
    except KeyError as exc:
        raise InvalidInput(f"field file is missing key {exc}") from exc


def load_field(path: str) -> TensorField:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise InvalidInput(f"cannot read field file {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InvalidInput(f"field file {path} is not valid JSON: {exc}") from exc
    return field_from_dict(data)


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

TASK_NAMES = (
    "spectrum",
    "solve-div",
    "solve-deform",
    "kernel-classify",
    "three-circles",
    "validate",
    "bound-fit",
)

_TASK_DEFAULTS = {
    "spectrum": {"kinds": list(MODE_KINDS)},
    "solve-div": {"tau": 0.01, "mode_file": None, "n_modes": 6, "residual_tol": 1e-9},
    "solve-deform": {"tau": 0.0, "residual_tol": 1e-12},
    "kernel-classify": {"tau": 0.0, "mode_file": None, "roundtrip_tol": 1e-12},
    "three-circles": {
        "mode_file": None,
        "L": None,
        "beta": None,
        "beta_prime": None,
        "triples": None,
    },
    # order 4 by default: on the unit torus the order-2 Ricci stencil error
    # is ~10.8 grid^2, just over the certified 10 grid^2, at any resolution
    "validate": {
        "grid": [96, 12],
        "order": 4,
        "r_max": 6.0,
        "report": None,
        "remainder": False,
        "eps_list": [0.1, 0.03, 0.01],
    },
    "bound-fit": {
        "source_types": ["one_form", "pair"],
        "rho_fractions": [0.5, 0.8, 0.9, 0.95, 0.99],
        "caps": {"one_form": 1.15, "pair": 2.15},
    },
}

_REQUIRED = {
    "kernel-classify": ("mode_file",),
    "three-circles": ("mode_file", "L", "beta", "beta_prime", "triples"),
}


@dataclass(frozen=True)
class JobConfig:
    """Fully resolved run description; every default appears explicitly."""

    cross_section: dict
    task: dict
    output: dict
    run: dict

    def as_dict(self) -> dict:
        return {
            "cross_section": dict(self.cross_section),
            "task": dict(self.task),
            "output": dict(self.output),
            "run": dict(self.run),
        }

    def build_cross_section(self) -> TorusCrossSection:
        blk = self.cross_section
        return TorusCrossSection(blk["dim"], tuple(blk["side_lengths"]), blk["freq_cutoff"])


def _parse_floats(text: str) -> list:
    return [float(part) for part in str(text).replace(";", ",").split(",") if part.strip()]


def _parse_triples(value) -> list:
    if isinstance(value, str):
        groups = [g for g in value.split(";") if g.strip()]
        triples = [[int(t) for t in g.split(",")] for g in groups]
    else:
        triples = [list(t) for t in value]
    for t in triples:
        if len(t) != 3:
            raise InvalidInput(f"each triple needs exactly three offsets, got {t}")
    return [[int(x) for x in t] for t in triples]


def _read_config_file(path: str) -> dict:
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InvalidInput(f"cannot read config {path}: {exc}") from exc
    if text.lstrip().startswith("{"):
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise InvalidInput(f"config {path}: invalid JSON ({exc})") from exc
        return {str(k).replace("-", "_"): dict(v) for k, v in data.items()}
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise InvalidInput(f"config {path}: {exc}") from exc
    return {
        section.replace("-", "_"): dict(parser.items(section))
        for section in parser.sections()
    }


def resolve_config(raw: dict | None, overrides: dict | None = None) -> JobConfig:
    """Merge file content and CLI overrides onto the documented defaults.

    Raises InvalidInput naming the offending section.key on schema
    violations; the result echoes every resolved value.
    """
    raw = {k: dict(v) for k, v in (raw or {}).items()}
    overrides = dict(overrides or {})

    cs_raw = raw.get("cross_section", {})
    for key in cs_raw:
        if key not in ("dim", "side_lengths", "freq_cutoff"):
            raise InvalidInput(f"unknown key cross-section.{key}")
    dim = int(overrides.get("dim", cs_raw.get("dim", 3)))
    lengths = overrides.get("side_lengths", cs_raw.get("side_lengths", [1.0] * dim))
    if isinstance(lengths, str):
        lengths = _parse_floats(lengths)
    cutoff = int(overrides.get("freq_cutoff", cs_raw.get("freq_cutoff", 1)))
    cross_section = {
        "dim": dim,
        "side_lengths": [float(s) for s in lengths],
        "freq_cutoff": cutoff,
    }
    if len(cross_section["side_lengths"]) != dim:
        raise InvalidInput("cross-section.side_lengths must list one length per dimension")

    task_raw = raw.get("task", {})
    name = str(overrides.get("task_name", task_raw.get("name", ""))).strip()
    if name not in TASK_NAMES:
        raise InvalidInput(
            f"task.name must be one of {', '.join(TASK_NAMES)}; got {name!r}"
        )
    task = {"name": name, **_TASK_DEFAULTS[name]}
    for key, value in task_raw.items():
        if key == "name":
            continue
        if key not in task:
            raise InvalidInput(f"unknown key task.{key} for task {name}")
        task[key] = value
    for key, value in overrides.items():
        if key in task and value is not None:
            task[key] = value
    task = _coerce_task(task)
    for key in _REQUIRED.get(name, ()):
        if task[key] is None:
            raise InvalidInput(f"task.{key} is required for task {name}")

    out_raw = raw.get("output", {})
    out_dir = overrides.get("out") or out_raw.get("dir") or os.environ.get(
        OUTPUT_DIR_ENV, "."
    )
    output = {
        "dir": str(out_dir),
        "envelope": str(out_raw.get("envelope", f"{name}-envelope.json")),
    }

    run_raw = raw.get("run", {})
    run = {
        "seed": int(overrides.get("seed", run_raw.get("seed", 0))),
        "threads": int(overrides.get("threads", run_raw.get("threads", 1))),
        "log_level": str(overrides.get("log_level", run_raw.get("log_level", "warning"))),
    }
    if run["threads"] < 1:
        raise InvalidInput("run.threads must be at least 1")
    return JobConfig(cross_section=cross_section, task=task, output=output, run=run)


def _coerce_task(task: dict) -> dict:
    """Normalize string-valued task parameters from INI or flag input."""
    out = dict(task)
    for key in ("tau", "L", "beta", "beta_prime", "residual_tol", "roundtrip_tol", "r_max"):
        if key in out and out[key] is not None:
            out[key] = float(out[key])
    for key in ("n_modes", "order"):
        if key in out:
            out[key] = int(out[key])
    if "kinds" in out:
        kinds = out["kinds"]
        if isinstance(kinds, str):
            kinds = [k.strip() for k in kinds.split(",") if k.strip()]
        for kind in kinds:
            if kind not in MODE_KINDS:
                raise InvalidInput(f"task.kinds: unknown mode kind {kind!r}")
        out["kinds"] = list(kinds)
    if out.get("triples") is not None:
        out["triples"] = _parse_triples(out["triples"])
    if "grid" in out:
        grid = out["grid"]
        if isinstance(grid, str):
            grid = [int(g) for g in grid.lower().replace("x", ",").split(",")]
        out["grid"] = [int(grid[0]), int(grid[1])]
    if "eps_list" in out and isinstance(out["eps_list"], str):
        out["eps_list"] = _parse_floats(out["eps_list"])
    if "rho_fractions" in out and isinstance(out["rho_fractions"], str):
        out["rho_fractions"] = _parse_floats(out["rho_fractions"])
    if "source_types" in out and isinstance(out["source_types"], str):
        out["source_types"] = [s.strip() for s in out["source_types"].split(",") if s.strip()]
    if "remainder" in out and isinstance(out["remainder"], str):
        out["remainder"] = out["remainder"].strip().lower() in ("1", "true", "yes", "on")
    return out


# ---------------------------------------------------------------------------
# certificates
# ---------------------------------------------------------------------------


def _cert(name: str, value: float, op: str, threshold) -> dict:
    if op == "<=":
        passed = value <= threshold
    elif op == ">=":
        passed = value >= threshold
    elif op == "range":
        passed = threshold[0] <= value <= threshold[1]
    else:
        raise InvalidInput(f"unknown certificate op {op!r}")
    return {
        "name": name,
        "value": float(value),
        "op": op,
        "threshold": threshold,
        "passed": bool(passed),
    }


# ---------------------------------------------------------------------------
# task runners
# ---------------------------------------------------------------------------


def _task_spectrum(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    kinds = {}
    for kind in cfg.task["kinds"]:
        spectrum = build_spectrum(cs, kind)
        kinds[kind] = [
            {
                "freq": list(m.freq),
                "phase": m.phase,
                "eigenvalue": m.eigenvalue,
                "polarization": np.asarray(m.polarization).tolist(),
            }
            for m in spectrum.modes
        ]
    eigen_sorted = all(
        all(a["eigenvalue"] <= b["eigenvalue"] + 1e-15 for a, b in zip(ms, ms[1:]))
        for ms in kinds.values()
    )
    payload = {
        "mu1": cs.smallest_positive_eigenvalue(),
        "counts": {kind: len(ms) for kind, ms in kinds.items()},
        "kinds": kinds,
    }
    certs = [_cert("eigenvalues-nondecreasing", 1.0 if eigen_sorted else 0.0, ">=", 1.0)]
    return payload, certs


def _random_gauge_image(cs: TorusCrossSection, rng, n_modes: int) -> TensorField:
    """L_X g0 for a random decaying one-form on oscillating scalar modes:
    solvable at every tau, no parallel radial or harmonic content."""
    scalars = [m for m in build_spectrum(cs, "Scalar").modes if any(m.freq)]
    X = TensorField.zero(cs, 1)
    picks = rng.choice(len(scalars), size=min(n_modes, len(scalars)), replace=False)
    for i in picks:
        mode = scalars[i]
        s = math.sqrt(mode.eigenvalue)
        k = RadialProfile.monomial(float(rng.uniform(-1.0, 1.0)), 0, -s)
        l = RadialProfile.monomial(float(rng.uniform(-1.0, 1.0)), 0, -0.5 * s)
        X = X + fields_mod.pair_one_form(cs, mode, k, l)
    return lie_derivative_metric(X)


def _task_solve_div(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    task = cfg.task
    if task["mode_file"] is not None:
        h = load_field(task["mode_file"])
        cs = h.cs
    else:
        h = _random_gauge_image(cs, rng, task["n_modes"])
    gauge = solve_gauge(h, DivergenceConfig(tau=task["tau"]))
    residual = gauge_residual(h, gauge, task["tau"]).max_abs_coeff()
    scale = max(1.0, h.max_abs_coeff())
    payload = {
        "tau": task["tau"],
        "source_terms": sum(len(profs) for profs in h.data.values()),
        "pair_sectors": len(gauge.pairs),
        "coclosed_sectors": len(gauge.coclosed),
        "harmonic_sectors": len(gauge.harmonic),
        "worst_growth": gauge.worst_growth(),
        "residual": residual,
        "residual_scale": scale,
    }
    certs = [_cert("gauge-residual", residual / scale, "<=", task["residual_tol"])]
    return payload, certs


def _task_solve_deform(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    tau = cfg.task["tau"]
    basis = solve_reduced_system(cs, tau)
    worst_ricci = 0.0
    worst_div = 0.0
    for elem in basis:
        scale = max(1.0, elem.field.max_abs_coeff())
        worst_ricci = max(
            worst_ricci, fields_mod.linearized_ricci(elem.field).max_abs_coeff() / scale
        )
        worst_div = max(
            worst_div, modified_divergence(elem.field, tau).max_abs_coeff() / scale
        )
    payload = {
        "tau": tau,
        "basis_size": len(basis),
        "parallel_dimension": parallel_space_dimension(cs, tau),
        "labels": sorted({elem.label for elem in basis}),
        "worst_ricci_residual": worst_ricci,
        "worst_divergence_residual": worst_div,
    }
    tol = cfg.task["residual_tol"]
    certs = [
        _cert("kernel-ricci-residual", worst_ricci, "<=", tol),
        _cert("kernel-divergence-residual", worst_div, "<=", tol),
    ]
    return payload, certs


def _task_kernel_classify(cfg: JobConfig, rng) -> tuple:
    task = cfg.task
    h = load_field(task["mode_file"])
    dec = classify_kernel(h, task["tau"])
    roundtrip = (dec.reconstruct() - h).max_abs_coeff()
    scale = max(1.0, h.max_abs_coeff())
    payload = {
        "tau": task["tau"],
        "pure_trace": list(dec.pure_trace),
        "parallel_tt": [[i, c] for i, c in sorted(dec.parallel_tt.items())],
        "linear_tt": [[i, c] for i, c in sorted(dec.linear_tt.items())],
        "exp_modes": [
            {"freq": list(freq), "phase": phase, "index": i, "a_plus": ap, "a_minus": am}
            for (freq, phase, i), (ap, am) in sorted(dec.exp_modes.items())
        ],
        "gauge_is_zero": dec.gauge_X.is_zero(),
        "radial_gauge": dec.gauge_Y.radial,
        "shear_gauge": [[a, c] for a, c in sorted(dec.gauge_Y.shear.items())],
        "fit_condition_numbers": [
            {"freq": list(freq), "cond": c} for freq, c in sorted(dec.condition_numbers.items())
        ],
        "roundtrip_residual": roundtrip,
    }
    certs = [_cert("reconstruction-residual", roundtrip / scale, "<=", task["roundtrip_tol"])]
    return payload, certs


def _task_three_circles(cfg: JobConfig, rng) -> tuple:
    task = cfg.task
    h = load_field(task["mode_file"])
    results = []
    certs = []
    t_max = 0
    for triple in task["triples"]:
        params = ThreeCirclesParams(
            beta=task["beta"],
            beta_prime=task["beta_prime"],
            L=task["L"],
            triple=tuple(triple),
        )
        res = three_circles_check(h, params)
        t_max = max(t_max, triple[2])
        results.append(
            {
                "triple": list(triple),
                "holds": res.holds,
                "slack": res.slack,
                "values": list(res.values),
            }
        )
        name = "three-circles({},{},{})".format(*triple)
        certs.append(_cert(name, res.slack, ">=", 1.0))
    offsets = list(range(0, t_max + 1))
    series = TubeNormSeries.from_field(h, task["L"], offsets)
    payload = {
        "L": task["L"],
        "beta": task["beta"],
        "beta_prime": task["beta_prime"],
        "mu1": h.cs.smallest_positive_eigenvalue(),
        "results": results,
        "tube_norm_series": {
            "L": series.L,
            "offsets": list(series.offsets),
            "values": list(series.values),
        },
    }
    return payload, certs


def _task_validate(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    task = cfg.task
    n_r, n_x = task["grid"]
    stencil = StencilConfig(order=task["order"])
    r_range = (0.0, task["r_max"])
    spacing = max(task["r_max"] / (n_r - 1), max(cs.side_lengths) / n_x)
    fd_tol = 10.0 * spacing**2
    certs = []

    probe = random_reduced_form(cs, rng, include_growing=False)
    grid_probe = sample(probe, r_range, n_r, n_x)
    scale = max(1.0, interior_sup(grid_probe))
    lich = fd_operator("lichnerowicz", grid_probe, stencil)
    rough = fd_operator("rough_laplacian", grid_probe, stencil)
    certs.append(
        _cert(
            "lichnerowicz-rough-identity",
            interior_sup(lich - rough) / scale,
            "<=",
            1e-13,
        )
    )

    flat = flat_metric_grid(grid_probe)
    certs.append(_cert("flat-ricci-sup", interior_sup(nonlinear_ricci(flat, stencil)), "<=", 1e-11))

    source = _random_gauge_image(cs, rng, n_modes=4)
    gauge = solve_gauge(source, DivergenceConfig(tau=0.0))
    mismatch = lie_derivative_metric(gauge.one_form) - source
    fd_div = fd_operator("divergence", sample(mismatch, r_range, n_r, n_x), stencil)
    certs.append(
        _cert(
            "gauge-divergence-fd",
            interior_sup(fd_div) / max(1.0, source.max_abs_coeff()),
            "<=",
            fd_tol,
        )
    )

    ricci_res = fd_operator("linearized_ricci", grid_probe, stencil)
    certs.append(_cert("kernel-ricci-fd", interior_sup(ricci_res) / scale, "<=", fd_tol))

    payload = {
        "grid": [n_r, n_x],
        "order": task["order"],
        "r_max": task["r_max"],
        "fd_tolerance": fd_tol,
    }
    if task["remainder"]:
        # a probe above unit size is scaled down to it, so eps measures the
        # relative size of the perturbation and stays in the quadratic regime
        scan = quadratic_remainder_scan(grid_probe.scale(1.0 / scale), task["eps_list"])
        payload["remainder_scan"] = {
            "epsilons": list(scan.epsilons),
            "remainders": list(scan.remainders),
            "exponent": scan.exponent,
        }
        certs.append(_cert("remainder-slope", scan.exponent, "range", [1.9, 2.1]))
    payload["checks"] = [c["name"] for c in certs]
    if task["report"]:
        report = {
            "grid": payload["grid"],
            "order": task["order"],
            "checks": certs,
        }
        with open(task["report"], "w") as fh:
            fh.write(canonical_json(report))
        log.info("wrote residual report to %s", task["report"])
    return payload, certs


def _task_bound_fit(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    mu1 = cs.smallest_positive_eigenvalue()
    s1 = math.sqrt(mu1)
    task = cfg.task
    certs = []
    fits = {}
    series = {}
    for source_type in task["source_types"]:
        rhos = [f * s1 for f in task["rho_fractions"]]
        fit = estimate_weighted_bound(mu1, rhos, source_type)
        fits[source_type] = {
            "exponent": fit.exponent,
            "samples": [[rho, ratio] for rho, ratio in fit.samples],
        }
        series[source_type] = [
            [rho, ratio, math.log(s1 - rho)] for rho, ratio in fit.samples
        ]
        cap = float(task["caps"][source_type])
        certs.append(_cert(f"blow-up-exponent({source_type})", fit.exponent, "<=", cap))
    payload = {"mu1": mu1, "fits": fits, "bound_fit_series": series}
    return payload, certs


_TASK_RUNNERS = {
    "spectrum": _task_spectrum,
    "solve-div": _task_solve_div,
    "solve-deform": _task_solve_deform,
    "kernel-classify": _task_kernel_classify,
    "three-circles": _task_three_circles,
    "validate": _task_validate,
    "bound-fit": _task_bound_fit,
}


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def run_job(cfg: JobConfig) -> dict:
    """Execute the configured task and assemble its result envelope."""
    rng = np.random.default_rng(cfg.run["seed"])
    resolved = cfg.as_dict()
    started = time.perf_counter()
    payload, certificates = _TASK_RUNNERS[cfg.task["name"]](cfg, rng)
    elapsed = time.perf_counter() - started
    return {
        "task": cfg.task["name"],
        "tool_version": __version__,
        "config": resolved,
        "inputs_digest": _digest(resolved),
        "payload": payload,
        "certificates": certificates,
        "timing_s": elapsed,
    }


def write_envelope(envelope: dict, cfg: JobConfig) -> str:
    out_dir = cfg.output["dir"]
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, cfg.output["envelope"])
    with open(path, "w") as fh:
        fh.write(canonical_json(envelope))
    return path


def export_plot_data(envelope: dict, kind: str, path: str, series: str = "one_form") -> None:
    """Write one plot-ready CSV from an envelope's payload."""
    payload = envelope.get("payload", {})
    if kind == "tube-norm-series":
        block = payload.get("tube_norm_series")
        if block is None:
            raise InvalidInput("envelope carries no tube-norm series")
        rows = list(zip(block["offsets"], block["values"]))
        header = "t_j,norm_sq"
    elif kind == "bound-fit":
        block = payload.get("bound_fit_series", {})
        if series not in block:
            raise InvalidInput(f"envelope carries no bound-fit series for {series!r}")
        rows = block[series]
        header = "rho,ratio,log_gap"
    elif kind == "remainder-scan":
        block = payload.get("remainder_scan")
        if block is None:
            raise InvalidInput("envelope carries no remainder scan")
        rows = list(zip(block["epsilons"], block["remainders"]))
        header = "epsilon,remainder_norm"
    else:
        raise InvalidInput(f"export kind must be one of {', '.join(EXPORT_KINDS)}")
    with open(path, "w") as fh:
        fh.write(header + "\n")
        for row in rows:
            fh.write(",".join(format(float(v), ".17g") for v in row) + "\n")


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cylspec",
        description="Spectral solver and verification toolkit for flat cylinders.",
    )
    parser.add_argument("--version", action="version", version=f"cylspec {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI or JSON job configuration")
    common.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    common.add_argument("--seed", type=int, help="random seed recorded in the manifest")
    common.add_argument(
        "--threads",
        type=int,
        help="recorded in the manifest only; BLAS threads follow the environment "
        "(e.g. OMP_NUM_THREADS) set before cylspec starts",
    )
    common.add_argument(
        "--log-level",
        choices=("debug", "info", "warning", "error"),
        help="logging verbosity",
    )

    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("spectrum", parents=[common], help="list cross-section modes")
    p.add_argument("--kinds", help="comma-separated mode kinds")
    p.add_argument("--dim", type=int)
    p.add_argument("--side-lengths", dest="side_lengths")
    p.add_argument("--freq-cutoff", dest="freq_cutoff", type=int)

    p = sub.add_parser("solve-div", parents=[common], help="solve the gauge equation")
    p.add_argument("--tau", type=float)
    p.add_argument("--mode-file", dest="mode_file")
    p.add_argument("--modes", dest="n_modes", type=int, help="random source size")
    p.add_argument("--dim", type=int)
    p.add_argument("--side-lengths", dest="side_lengths")
    p.add_argument("--freq-cutoff", dest="freq_cutoff", type=int)

    p = sub.add_parser("solve-deform", parents=[common], help="solve the kernel system")
    p.add_argument("--tau", type=float)
    p.add_argument("--dim", type=int)
    p.add_argument("--side-lengths", dest="side_lengths")
    p.add_argument("--freq-cutoff", dest="freq_cutoff", type=int)

    p = sub.add_parser("kernel-classify", parents=[common], help="classify a kernel element")
    p.add_argument("--tau", type=float)
    p.add_argument("--mode-file", dest="mode_file")

    p = sub.add_parser("three-circles", parents=[common], help="certify tube decay")
    p.add_argument("--mode-file", dest="mode_file")
    p.add_argument("--L", type=float)
    p.add_argument("--beta", type=float)
    p.add_argument("--beta-prime", dest="beta_prime", type=float)
    p.add_argument("--triples", help="t1,t2,t3[;t1,t2,t3...]")

    p = sub.add_parser("validate", parents=[common], help="run the FD oracle suite")
    p.add_argument("--grid", help="n_r x n_x, e.g. 96x12")
    p.add_argument("--order", type=int, choices=(2, 4))
    p.add_argument("--report", help="write a JSON residual report here")
    p.add_argument("--remainder", action="store_const", const=True, default=None,
                   help="include the quadratic remainder scan "
                        "(eps relative to the probe's size)")
    p.add_argument("--dim", type=int)
    p.add_argument("--side-lengths", dest="side_lengths")
    p.add_argument("--freq-cutoff", dest="freq_cutoff", type=int)

    p = sub.add_parser("bound-fit", parents=[common], help="fit the weighted-bound exponent")
    p.add_argument("--types", dest="source_types", help="one_form,pair")
    p.add_argument("--rho-fractions", dest="rho_fractions")
    p.add_argument("--dim", type=int)
    p.add_argument("--side-lengths", dest="side_lengths")
    p.add_argument("--freq-cutoff", dest="freq_cutoff", type=int)

    p = sub.add_parser("export", parents=[common], help="write plot CSV from an envelope")
    p.add_argument("--envelope", required=True)
    p.add_argument("--kind", required=True, choices=EXPORT_KINDS)
    p.add_argument("--csv", required=True)
    p.add_argument("--series", default="one_form", help="bound-fit series selector")

    return parser


_OVERRIDE_KEYS = (
    "dim",
    "side_lengths",
    "freq_cutoff",
    "tau",
    "mode_file",
    "n_modes",
    "L",
    "beta",
    "beta_prime",
    "triples",
    "grid",
    "order",
    "report",
    "remainder",
    "kinds",
    "source_types",
    "rho_fractions",
    "out",
    "seed",
    "threads",
    "log_level",
)


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    level = (args.log_level or "warning").upper()
    logging.basicConfig(level=getattr(logging, level, logging.WARNING))

    try:
        if args.command == "export":
            try:
                with open(args.envelope) as fh:
                    envelope = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise InvalidInput(f"cannot read envelope {args.envelope}: {exc}") from exc
            export_plot_data(envelope, args.kind, args.csv, series=args.series)
            print(f"wrote {args.csv}")
            return 0

        raw = _read_config_file(args.config) if args.config else {}
        overrides = {
            key: getattr(args, key)
            for key in _OVERRIDE_KEYS
            if getattr(args, key, None) is not None
        }
        overrides["task_name"] = args.command
        cfg = resolve_config(raw, overrides)
        envelope = run_job(cfg)
        path = write_envelope(envelope, cfg)
        failed = [c for c in envelope["certificates"] if not c["passed"]]
        for cert in envelope["certificates"]:
            status = "PASS" if cert["passed"] else "FAIL"
            print(f"{status} {cert['name']}: {cert['value']:.6g}")
        print(f"envelope: {path}")
        if failed:
            raise CertificateFailure(f"{len(failed)} certificate(s) failed")
        return 0
    except CertificateFailure as exc:
        print(f"certificate failure: {exc}", file=sys.stderr)
        return 3
    except InvalidInput as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return 2
    except CylspecError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - defensive
        log.exception("internal error")
        print(f"internal error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
