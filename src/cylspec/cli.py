"""Command-line entry point: config parsing, job orchestration, result
persistence, and plot-data export.

A run resolves one JobConfig (INI with named sections, or JSON carrying
the same schema), executes one task, and writes one result envelope.
The envelope's ``payload`` block is rendered canonically (sorted keys,
floats at 17 significant digits), so identical (config, seed) produce
byte-identical payloads; timing and the ``environment`` block (Python
and numpy versions, the threads of the FD batches) live outside the
payload for that reason.  Exit codes: 0 success, 1 internal error,
2 invalid input, 3 certificate failure.
"""

from __future__ import annotations

import argparse
import configparser
import functools
import hashlib
import json
import logging
import math
import os
import platform
import sys
import time
from collections.abc import Callable
from dataclasses import asdict, dataclass

import numpy as np

from . import __version__
from . import fd_oracle
from . import fields as fields_mod
from .cross_section import TorusCrossSection, build_spectrum
from .deformation_solver import classify_kernel, solve_reduced_system
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
    interior_sup,
    operator_interior_sup,
    quadratic_remainder_scan,
    sample,
)
from .fields import TensorField
from .green_kernel import estimate_weighted_bound
from .mode_ode import RadialProfile
from .stages import stage
from .three_circles import (
    ThreeCirclesParams,
    TubeNormSeries,
    random_reduced_form,
    three_circles_check,
)

log = logging.getLogger("cylspec")

OUTPUT_DIR_ENV = "CYLSPEC_OUTPUT_DIR"

MODE_KINDS = ("Scalar", "CoclosedOneForm", "HarmonicOneForm", "TTTensor")

EXPORT_KINDS = ("tube-norm-series", "bound-fit", "remainder-scan")

# a field file's rate within RATE_TOL * max(1, sqrt(mu)) of +-sqrt(mu) is
# read as exactly +-sqrt(mu); inside the library rates compare with ==
RATE_TOL = 1e-9


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


def _mode_key(cs: TorusCrossSection, i: int, freq, phase) -> tuple:
    """The (freq, phase) of term i: a mode key of the cross section
    (``TorusCrossSection.mode_key``) with every |k_j| <= freq_cutoff.  An
    entry that int() cannot read is a malformed value of the file."""
    for k in freq:
        int(k)
    try:
        key = cs.mode_key(freq, phase)
    except InvalidInput as exc:
        raise InvalidInput(f"term {i}: {exc}") from exc
    if any(abs(k) > cs.freq_cutoff for k in key[0]):
        raise InvalidInput(f"term {i}: frequency {list(freq)} exceeds freq_cutoff "
                           f"{cs.freq_cutoff}")
    return key


def _profile_key(cs: TorusCrossSection, i: int, freq, power, rate) -> tuple:
    """The (power, rate) of term i: a nonnegative integer power and a
    finite rate.  A rate within the RATE_TOL window of +-s, s = sqrt(mu)
    of the term's frequency, is read as exactly +-s (0 at frequency zero),
    the float every kernel column and solve of the library carries."""
    p, lam = int(power), float(rate)
    if p != power or p < 0:
        raise InvalidInput(f"term {i}: power {power!r} is not a nonnegative integer")
    if not math.isfinite(lam):
        raise InvalidInput(f"term {i}: rate {lam} is not finite")
    s = math.sqrt(cs.eigenvalue(freq))
    for anchor in (s, -s):
        if abs(lam - anchor) <= RATE_TOL * max(1.0, s):
            return p, anchor
    return p, lam


def _file_int(block: dict, key: str, name: str) -> int:
    """An integer entry of a field file, read with ``_int``; a value it
    cannot read is an InvalidInput naming the entry."""
    try:
        return _int(block[key])
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"field file {name}: {exc}") from exc


def field_from_dict(data: dict) -> TensorField:
    try:
        cs_block = data["cross_section"]
        cs = TorusCrossSection(
            _file_int(cs_block, "dim", "cross_section.dim"),
            tuple(float(s) for s in cs_block["side_lengths"]),
            _file_int(cs_block, "freq_cutoff", "cross_section.freq_cutoff"),
        )
        rank = _file_int(data, "rank", "rank")
        terms = []
        for i, term in enumerate(data["terms"]):
            coeff = np.asarray(term["coeff"], dtype=float)
            if coeff.shape != (cs.dim + 1,) * rank:
                raise InvalidInput(
                    f"term {i}: coefficient shape {coeff.shape} does not match rank {rank}"
                )
            if not np.isfinite(coeff).all():
                raise InvalidInput(f"term {i}: coefficient is not finite")
            mode_key = _mode_key(cs, i, term["freq"], term["phase"])
            prof_key = _profile_key(cs, i, mode_key[0], term["power"], term["rate"])
            terms.append((mode_key, prof_key, coeff))
        # repeated keys add up in file order, as the + chain would
        return TensorField(cs, rank, terms)
    except KeyError as exc:
        raise InvalidInput(f"field file is missing key {exc}") from exc
    except (TypeError, ValueError, OverflowError) as exc:
        raise InvalidInput(f"field file holds a malformed value: {exc}") from exc


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

@dataclass(frozen=True)
class JobConfig:
    """Fully resolved run description; every default appears explicitly."""

    cross_section: dict
    task: dict
    output: dict
    run: dict

    def as_dict(self) -> dict:
        return asdict(self)

    def build_cross_section(self) -> TorusCrossSection:
        blk = self.cross_section
        return TorusCrossSection(blk["dim"], tuple(blk["side_lengths"]), blk["freq_cutoff"])


# Value parsers.  Each takes INI text, a flag string or a JSON value and
# raises ValueError or TypeError on anything it cannot read exactly.


def _int(value) -> int:
    number = int(value) if isinstance(value, str) else value
    if number != int(number):
        raise ValueError(f"{value!r} is not an integer")
    return int(number)


def _positive_int(value) -> int:
    number = _int(value)
    if number < 1:
        raise ValueError(f"must be at least 1, got {number}")
    return number


def _bool(value) -> bool:
    text = str(value).strip().lower()
    if text in ("1", "true", "yes", "on"):
        return True
    if text in ("0", "false", "no", "off"):
        return False
    raise ValueError(f"{value!r} is not a boolean (true/false, yes/no, on/off, 1/0)")


def _choice(parse, allowed):
    def parse_choice(value):
        value = parse(value)
        if value not in allowed:
            raise ValueError(f"must be one of {', '.join(map(str, allowed))}; got {value!r}")
        return value
    return parse_choice


def _list(item, distinct=False):
    """A nonempty list of item values: a JSON list, or text separated by ,
    or ;.  With ``distinct`` a repeated value is rejected too."""
    def parse_list(value):
        if isinstance(value, str):
            value = [part for part in value.replace(";", ",").split(",") if part.strip()]
        values = [item(v.strip() if isinstance(v, str) else v) for v in value]
        if not values:
            raise ValueError("needs at least one value")
        if distinct and len(set(values)) != len(values):
            raise ValueError(f"lists a value twice: {values}")
        return values
    return parse_list


def _grid(value) -> list:
    if isinstance(value, str):
        value = value.lower().replace("x", ",")
    sizes = _list(_int)(value)
    if len(sizes) != 2:
        raise ValueError(f"needs two sizes n_r x n_x, got {len(sizes)}")
    return sizes


def _parse_triples(value) -> list:
    if isinstance(value, str):
        value = [g.split(",") for g in value.split(";") if g.strip()]
    triples = [[_int(t) for t in triple] for triple in value]
    if not triples:
        raise ValueError("needs at least one triple")
    for t in triples:
        if len(t) != 3:
            raise InvalidInput(f"each triple needs exactly three offsets, got {t}")
    return triples


def _caps(value) -> dict:
    """Source type -> exponent cap, from a JSON object."""
    if not isinstance(value, dict):
        raise TypeError(f"needs a mapping of source type to cap, got {value!r}")
    return {str(k): float(v) for k, v in value.items()}


@dataclass(frozen=True)
class Key:
    """One config key: its default, the parser every given value goes
    through, its flag (None: config file only) and whether it is required."""

    default: object
    parse: Callable
    flag: str | None = None
    help: str | None = None
    required: bool = False


@dataclass(frozen=True)
class Task:
    """One subcommand: its runner, help line and task keys; the cross
    section keys get flags unless the task reads its field from a file."""

    run: Callable
    help: str
    keys: dict
    cross_section_flags: bool = True


# side_lengths None: one unit length per dimension
_CROSS_SECTION = {
    "dim": Key(3, _int, "--dim"),
    "side_lengths": Key(None, _list(float), "--side-lengths"),
    "freq_cutoff": Key(1, _int, "--freq-cutoff"),
}

_RUN = {
    "seed": Key(0, _int, "--seed", "random seed recorded in the manifest"),
    "log_level": Key("warning", _choice(str, ("debug", "info", "warning", "error")),
                     "--log-level", "logging verbosity: debug, info, warning or error"),
}


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
        if not all(isinstance(v, dict) for v in data.values()):
            raise InvalidInput(f"config {path}: every section must be a JSON object")
        return {str(k).replace("-", "_"): dict(v) for k, v in data.items()}
    parser = configparser.ConfigParser()
    try:
        parser.read_string(text, source=path)
    except configparser.Error as exc:
        raise InvalidInput(f"config {path}: {exc}") from exc
    blocks = {
        section.replace("-", "_"): dict(parser.items(section))
        for section in parser.sections()
    }
    # configparser lowercases option names; match them to the task keys
    # case-insensitively, so that `L = 1.0` sets three-circles' L
    if "task" in blocks:
        names = {key.lower(): key for task in _TASKS.values() for key in task.keys}
        blocks["task"] = {names.get(key, key): value for key, value in blocks["task"].items()}
    return blocks


def _resolve_block(section: str, keys: dict, given: dict, overrides: dict,
                   task: str = "") -> dict:
    """Every key of one block: the flag value, else the file's, else the
    default.  A given value goes through its key's parser, and a value the
    parser cannot read is an InvalidInput naming section.key."""
    for_task = f" for task {task}" if task else ""
    for key in given:
        if key not in keys:
            raise InvalidInput(f"unknown key {section}.{key}{for_task}")
    block = {}
    for key, spec in keys.items():
        value = overrides.get(key)
        if value is None:
            value = given.get(key)
        if value is None:
            if spec.required:
                raise InvalidInput(f"{section}.{key} is required{for_task}")
            block[key] = spec.default
            continue
        try:
            block[key] = spec.parse(value)
        except (ValueError, TypeError, OverflowError, InvalidInput) as exc:
            raise InvalidInput(f"{section}.{key}: {exc}") from exc
    return block


def resolve_config(raw: dict | None, overrides: dict | None = None) -> JobConfig:
    """Merge file content and CLI overrides onto the documented defaults.

    Raises InvalidInput naming the offending section.key on schema
    violations; the result echoes every resolved value.
    """
    raw = {k: dict(v) for k, v in (raw or {}).items()}
    overrides = dict(overrides or {})
    for section in raw:
        if section not in ("cross_section", "task", "output", "run"):
            raise InvalidInput(f"unknown config section {section}")

    cross_section = _resolve_block(
        "cross-section", _CROSS_SECTION, raw.get("cross_section", {}), overrides
    )
    if cross_section["side_lengths"] is None:
        cross_section["side_lengths"] = [1.0] * cross_section["dim"]
    if len(cross_section["side_lengths"]) != cross_section["dim"]:
        raise InvalidInput("cross-section.side_lengths must list one length per dimension")

    task_raw = raw.get("task", {})
    name = str(overrides.get("task_name", task_raw.pop("name", ""))).strip()
    if name not in _TASKS:
        raise InvalidInput(f"task.name must be one of {', '.join(_TASKS)}; got {name!r}")
    task = {"name": name, **_resolve_block("task", _TASKS[name].keys, task_raw, overrides, name)}

    output = _resolve_block("output", {
        "dir": Key(os.environ.get(OUTPUT_DIR_ENV, "."), str),
        "envelope": Key(f"{name}-envelope.json", str),
    }, raw.get("output", {}), {"dir": overrides.get("out")})
    run = _resolve_block("run", _RUN, raw.get("run", {}), overrides)
    return JobConfig(cross_section=cross_section, task=task, output=output, run=run)


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
    payload = {
        "mu1": cs.smallest_positive_eigenvalue(),
        "counts": {kind: len(ms) for kind, ms in kinds.items()},
        "kinds": kinds,
    }
    return payload, []


def _random_gauge_image(cs: TorusCrossSection, rng, n_modes: int) -> TensorField:
    """L_X g0 for a random decaying one-form on oscillating scalar modes:
    solvable at every tau, no parallel radial or harmonic content."""
    scalars = [m for m in build_spectrum(cs, "Scalar").modes if any(m.freq)]
    w = fields_mod.FieldBuilder(cs, 1)
    picks = rng.choice(len(scalars), size=min(n_modes, len(scalars)), replace=False)
    for i in picks:
        mode = scalars[i]
        s = math.sqrt(mode.eigenvalue)
        k = RadialProfile.monomial(float(rng.uniform(-1.0, 1.0)), 0, -s)
        l = RadialProfile.monomial(float(rng.uniform(-1.0, 1.0)), 0, -0.5 * s)
        w.pair(mode, k, l)
    return lie_derivative_metric(w.field())


def _task_solve_div(cfg: JobConfig, rng) -> tuple:
    cs = cfg.build_cross_section()
    task = cfg.task
    if task["mode_file"] is not None:
        h = load_field(task["mode_file"])
        cs = h.cs
    else:
        h = _random_gauge_image(cs, rng, task["n_modes"])
    tau = task["tau"]
    gauge = solve_gauge(h, DivergenceConfig(tau=tau))
    one_form = stage("one-form", lambda: gauge.one_form)
    residual = stage("residual", lambda: gauge_residual(h, one_form, tau).max_abs_coeff())
    scale = max(1.0, h.max_abs_coeff())
    payload = {
        "tau": task["tau"],
        "source_terms": h.n_terms,
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
        "parallel_dimension": sum(1 for elem in basis if elem.radially_parallel),
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
        certs.append(_cert("three-circles({},{},{})".format(*triple), res.slack, ">=", 1.0))
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
    certs = []
    grid = "grid " + "x".join(map(str, [n_r] + [n_x] * cs.dim))
    order = f"order {stencil.order}"

    probe = random_reduced_form(cs, rng, include_growing=False)
    grid_probe = stage(f"sample: {grid}", sample, probe, r_range, n_r, n_x)
    fd_tol = 10.0 * grid_probe.max_spacing**2
    scale = max(1.0, interior_sup(grid_probe))
    # each FD certificate is read on the interior band with no operator
    # grid, and the mismatch grid is dropped once its value is read
    kernel_ricci = stage(f"fd_operator linearized_ricci, {order}: {grid}",
                         operator_interior_sup, "linearized_ricci", grid_probe, stencil)
    kernel_ricci /= scale

    source = _random_gauge_image(cs, rng, n_modes=4)
    gauge = solve_gauge(source, DivergenceConfig(tau=0.0))
    mismatch = lie_derivative_metric(gauge.one_form) - source
    mismatch_grid = stage(f"sample: {grid}", sample, mismatch, r_range, n_r, n_x)
    fd_div = stage(f"fd_operator divergence, {order}: {grid}", operator_interior_sup,
                   "divergence", mismatch_grid, stencil)
    del mismatch_grid
    certs.append(_cert("gauge-divergence-fd", fd_div / max(1.0, source.max_abs_coeff()), "<=",
                       fd_tol))

    certs.append(_cert("kernel-ricci-fd", kernel_ricci, "<=", fd_tol))

    payload = {
        "grid": [n_r, n_x],
        "order": task["order"],
        "r_max": task["r_max"],
        "fd_tolerance": fd_tol,
    }
    if task["remainder"]:
        # a probe above unit size is scaled down to it, so eps measures the
        # relative size of the perturbation and stays in the quadratic regime
        scan = stage(f"quadratic_remainder_scan, {order}: {grid}", quadratic_remainder_scan,
                     grid_probe.scale(1.0 / scale), task["eps_list"], stencil)
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
        cap = task["caps"].get(source_type)
        if cap is None:
            raise InvalidInput(f"task.caps has no cap for source type {source_type!r}")
        certs.append(_cert(f"blow-up-exponent({source_type})", fit.exponent, "<=", cap))
    payload = {"mu1": mu1, "fits": fits, "bound_fit_series": series}
    return payload, certs


_TASKS = {
    "spectrum": Task(_task_spectrum, "list cross-section modes", {
        "kinds": Key(list(MODE_KINDS), _list(_choice(str, MODE_KINDS)), "--kinds",
                     "comma-separated mode kinds"),
    }),
    "solve-div": Task(_task_solve_div, "solve the gauge equation", {
        "tau": Key(0.01, float, "--tau"),
        "mode_file": Key(None, str, "--mode-file"),
        "n_modes": Key(6, _positive_int, "--modes", "random source size"),
        "residual_tol": Key(1e-9, float),
    }),
    "solve-deform": Task(_task_solve_deform, "solve the kernel system", {
        "tau": Key(0.0, float, "--tau"),
        "residual_tol": Key(1e-12, float),
    }),
    "kernel-classify": Task(_task_kernel_classify, "classify a kernel element", {
        "tau": Key(0.0, float, "--tau"),
        "mode_file": Key(None, str, "--mode-file", required=True),
        "roundtrip_tol": Key(1e-12, float),
    }, cross_section_flags=False),
    "three-circles": Task(_task_three_circles, "certify tube decay", {
        "mode_file": Key(None, str, "--mode-file", required=True),
        "L": Key(None, float, "--L", required=True),
        "beta": Key(None, float, "--beta", required=True),
        "beta_prime": Key(None, float, "--beta-prime", required=True),
        "triples": Key(None, _parse_triples, "--triples", "t1,t2,t3[;t1,t2,t3...]",
                       required=True),
    }, cross_section_flags=False),
    # order 4 by default: on the unit torus the order-2 Ricci stencil error
    # is ~10.8 grid^2, just over the certified 10 grid^2, at any resolution
    "validate": Task(_task_validate, "run the FD oracle suite", {
        "grid": Key([96, 12], _grid, "--grid", "n_r x n_x, e.g. 96x12"),
        "order": Key(4, _choice(_int, (2, 4)), "--order", "stencil order, 2 or 4"),
        "r_max": Key(6.0, float),
        "report": Key(None, str, "--report", "write a JSON residual report here"),
        "remainder": Key(False, _bool, "--remainder",
                         "include the quadratic remainder scan "
                         "(eps relative to the probe's size)"),
        "eps_list": Key([0.1, 0.03, 0.01], _list(float)),
    }),
    "bound-fit": Task(_task_bound_fit, "fit the weighted-bound exponent", {
        "source_types": Key(["one_form", "pair"], _list(str, distinct=True), "--types",
                            "one_form,pair"),
        "rho_fractions": Key([0.5, 0.8, 0.9, 0.95, 0.99], _list(float), "--rho-fractions"),
        "caps": Key({"one_form": 1.15, "pair": 2.15}, _caps),
    }),
}


# ---------------------------------------------------------------------------
# envelopes
# ---------------------------------------------------------------------------


def run_job(cfg: JobConfig) -> dict:
    """Execute the configured task and assemble its result envelope."""
    rng = np.random.default_rng(cfg.run["seed"])
    resolved = cfg.as_dict()
    started = time.perf_counter()
    payload, certificates = _TASKS[cfg.task["name"]].run(cfg, rng)
    elapsed = time.perf_counter() - started
    return {
        "task": cfg.task["name"],
        "tool_version": __version__,
        "config": resolved,
        "inputs_digest": _digest(resolved),
        "payload": payload,
        "certificates": certificates,
        "timing_s": elapsed,
        "environment": {
            "python": platform.python_version(),
            "numpy": np.__version__,
            "fd_threads": fd_oracle.fd_threads(),
        },
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


def _add_flags(parser: argparse.ArgumentParser, keys: dict) -> None:
    """One flag per key that has one; the value stays a string for the
    key's parser, and a boolean key's flag takes no value."""
    for key, spec in keys.items():
        if spec.flag is None:
            continue
        if spec.parse is _bool:
            parser.add_argument(spec.flag, dest=key, action="store_const", const=True,
                                help=spec.help)
        else:
            parser.add_argument(spec.flag, dest=key, help=spec.help)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of the process: parse_args leaves it unchanged."""
    parser = argparse.ArgumentParser(
        prog="cylspec",
        description="Spectral solver and verification toolkit for flat cylinders.",
    )
    parser.add_argument("--version", action="version", version=f"cylspec {__version__}")

    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="INI or JSON job configuration")
    common.add_argument("--out", help=f"output directory (default ${OUTPUT_DIR_ENV} or .)")
    _add_flags(common, _RUN)

    sub = parser.add_subparsers(dest="command", required=True)
    for name, task in _TASKS.items():
        p = sub.add_parser(name, parents=[common], help=task.help)
        _add_flags(p, task.keys)
        if task.cross_section_flags:
            _add_flags(p, _CROSS_SECTION)

    p = sub.add_parser("export", parents=[common], help="write plot CSV from an envelope")
    p.add_argument("--envelope", required=True)
    p.add_argument("--kind", required=True, choices=EXPORT_KINDS)
    p.add_argument("--csv", required=True)
    p.add_argument("--series", default="one_form", help="bound-fit series selector")

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    overrides = {key: value for key, value in vars(args).items() if value is not None}
    logging.basicConfig()

    try:
        if args.command == "export":
            log.setLevel(_resolve_block("run", _RUN, {}, overrides)["log_level"].upper())
            try:
                with open(args.envelope) as fh:
                    envelope = json.load(fh)
            except (OSError, json.JSONDecodeError) as exc:
                raise InvalidInput(f"cannot read envelope {args.envelope}: {exc}") from exc
            export_plot_data(envelope, args.kind, args.csv, series=args.series)
            print(f"wrote {args.csv}")
            return 0

        raw = _read_config_file(args.config) if args.config else {}
        cfg = resolve_config(raw, {**overrides, "task_name": args.command})
        log.setLevel(cfg.run["log_level"].upper())
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
