"""The four benchmark workloads.

Each workload builds a fixed list of inputs from the run seed before
timing starts.  ``run`` is one timed item and calls only the library;
``check`` judges the item's output untimed and returns a list of
problems (empty when the output is correct).  ``final_check`` runs once
after timing, on inputs that do not depend on the seed.  ``probe_kind``
names the probe that scales the workload's times (see bench.Probe).

Library functions are called through their modules (``fd.sample``, not a
name imported from ``fd_oracle``), so a Tracer's patches see every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import re

import numpy as np

from cylspec import cli
from cylspec import cross_section as cx
from cylspec import deformation_solver as ds
from cylspec import divergence_solver as dv
from cylspec import fd_oracle as fd
from cylspec import fields as F
from cylspec import three_circles as tc
from cylspec.mode_ode import RadialProfile

CS2 = cx.TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 2)
CS3 = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)

R_RANGE = (0.0, 6.0)
GRID = (128, 24)
ORDER2 = fd.StencilConfig(order=2)
# FD tolerance of acceptance checks #3 and #6: 10 spacing^2 on the 128 x 24 grid
FD_TOL = 10.0 * max(6.0 / (GRID[0] - 1), 2.0 * math.pi / GRID[1]) ** 2


def _uniform_profile(rng) -> RadialProfile:
    """One or two decaying terms r^p e^{lam r}, p in {0, 1}, lam in [-2, -0.3]."""
    terms = []
    for _ in range(int(rng.integers(1, 3))):
        c = float(rng.uniform(-1.0, 1.0))
        p = int(rng.integers(0, 2))
        terms.append((c, p, float(rng.uniform(-2.0, -0.3))))
    return RadialProfile(tuple(terms))


def rank2_pools(cs) -> dict:
    """Modes for the rr, mixed, TT and trace blocks at nonzero frequency."""
    return {
        "rr": [m for m in cx.build_spectrum(cs, "Scalar").modes if any(m.freq)],
        "mixed": list(cx.build_spectrum(cs, "CoclosedOneForm").modes),
        "tt": list(cx.build_spectrum(cs, "TTTensor").modes),
        "trace": list(cx.build_spectrum(cs, "PureTrace").modes),
    }


def random_rank2_source(cs, pools, rng, n_terms: int):
    """A decaying symmetric 2-tensor drawn from rank2_pools; it has no
    frequency-zero radial blocks, so it is solvable at tau = 0."""
    builders = {"rr": F.rr_tensor, "mixed": F.mixed_pair_tensor,
                "tt": F.from_mode_profile, "trace": F.from_mode_profile}
    kinds = sorted(pools)
    h = F.TensorField.zero(cs, 2)
    for _ in range(n_terms):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        pool = pools[kind]
        mode = pool[int(rng.integers(0, len(pool)))]
        h = h + builders[kind](cs, mode, _uniform_profile(rng))
    return h


class GaugeFd:
    """solve_gauge on random rank-2 sources, checked by FD divergence."""

    name = "gauge-fd"
    probe_kind = "loop"
    n_inputs = 24

    def build(self, rng):
        pools = rank2_pools(CS2)
        return [random_rank2_source(CS2, pools, rng, n_terms=12)
                for _ in range(self.n_inputs)]

    def run(self, h):
        gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
        mismatch = dv.lie_derivative_metric(gauge.one_form) - h
        return fd.fd_operator("divergence", fd.sample(mismatch, R_RANGE, *GRID), ORDER2)

    def check(self, h, divergence):
        residual = fd.interior_sup(divergence) / max(1.0, h.max_abs_coeff())
        if not residual <= FD_TOL:
            return [f"FD divergence of L_X g - h is {residual:.3e} of the source, "
                    f"above {FD_TOL:.3e}"]
        return []

    def final_check(self):
        return []


class KernelRoundtrip:
    """Kernel elements from the reduced-system basis: classify, rebuild,
    and check the rebuild and the FD linearized Ricci of the element."""

    name = "kernel-roundtrip"
    probe_kind = "mixed"
    n_inputs = 24
    n_parts = 6

    def build(self, rng):
        n_basis = len(ds.solve_reduced_system(CS2, 0.0))
        inputs = []
        for _ in range(self.n_inputs):
            picks = rng.choice(n_basis, size=self.n_parts, replace=False)
            combo = []
            for i in picks:
                sign = 1.0 if rng.random() < 0.5 else -1.0
                combo.append((int(i), sign * float(rng.uniform(0.3, 2.0))))
            inputs.append(tuple(combo))
        return inputs

    def run(self, combo):
        basis = ds.solve_reduced_system(CS2, 0.0)
        h = F.TensorField.zero(CS2, 2)
        for i, coeff in combo:
            h = h + basis[i].field.scale(coeff)
        rebuilt = ds.classify_kernel(h, tau=0.0).reconstruct()
        grid = fd.sample(h, R_RANGE, *GRID)
        return h, rebuilt, grid, fd.fd_operator("linearized_ricci", grid, ORDER2)

    def check(self, combo, out):
        h, rebuilt, grid, ricci = out
        problems = []
        roundtrip = (rebuilt - h).max_abs_coeff() / max(1.0, h.max_abs_coeff())
        if not roundtrip < 1e-12:
            problems.append(f"roundtrip error {roundtrip:.3e} relative, not below 1e-12")
        residual = fd.interior_sup(ricci) / max(1.0, fd.interior_sup(grid))
        if not residual < FD_TOL:
            problems.append(f"FD linearized Ricci {residual:.3e}, not below {FD_TOL:.3e}")
        return problems

    def final_check(self):
        return []


def dichotomy_problems(values, beta_prime, L):
    """Dichotomy and propagation, recomputed from the series values.

    At each interior step one neighbour dominates by e^{2 beta' L}; growth
    propagates upward and decay downward.
    """
    factor = math.exp(2.0 * beta_prime * L)
    tol = 1e-12 * max([1.0, *values])
    problems = []
    for j in range(1, len(values) - 1):
        left = values[j - 1] >= factor * values[j] - tol
        right = values[j + 1] >= factor * values[j] - tol
        if not (left or right):
            problems.append(f"dichotomy fails at step {j}")
        if values[j] >= factor * values[j - 1] - tol and not right:
            problems.append(f"growth does not propagate at step {j}")
        if values[j] >= factor * values[j + 1] - tol and not left:
            problems.append(f"decay does not propagate at step {j}")
    return problems


class TubeDichotomy:
    """Tube-norm series of reduced forms on the unit 3-torus and one
    three-circles certificate per item; no grid."""

    name = "tube-dichotomy"
    probe_kind = "small-numpy"
    n_inputs = 200

    def __init__(self):
        self.mu1 = CS3.smallest_positive_eigenvalue()

    def build(self, rng):
        s1 = math.sqrt(self.mu1)
        inputs = []
        for _ in range(self.n_inputs):
            form_seed, check_seed = (int(v) for v in rng.integers(0, 2**31, size=2))
            L = float(rng.uniform(3.0 / s1, 6.0 / s1))
            beta_prime = float(rng.uniform(0.1, 0.75)) * s1
            offsets = tuple(range(int(rng.integers(6, 10))))
            inputs.append((form_seed, L, beta_prime, offsets, check_seed))
        return inputs

    def run(self, item):
        form_seed, L, beta_prime, offsets, check_seed = item
        h = tc.random_reduced_form(CS3, np.random.default_rng(form_seed),
                                   include_r_linear=False)
        series = tc.TubeNormSeries.from_field(h, L, offsets)
        report = tc.monotonicity_classify(series, beta_prime)
        rng = np.random.default_rng(check_seed)
        h_bar = tc.random_reduced_form(CS3, rng)
        params = tc.random_valid_params(self.mu1, rng, has_r_linear=True)
        return series, report, params, tc.three_circles_check(h_bar, params)

    def check(self, item, out):
        _form_seed, L, beta_prime, _offsets, _check_seed = item
        series, report, params, result = out
        problems = dichotomy_problems(series.values, beta_prime, L)
        if not report.clean:
            problems.append(f"report lists violations {report.violations}, "
                            f"{report.growth_violations}, {report.decay_violations}")
        n1, n2, n3 = (math.sqrt(v) for v in result.values)
        bound = math.exp(-params.beta_prime * params.L) * (n1 + n3)
        if not (result.holds and n2 <= bound * (1.0 + 1e-12)):
            problems.append(f"three-circles certificate fails on valid parameters {params}")
        return problems

    def final_check(self):
        problems = []
        parallel_tt = next(m for m in cx.build_spectrum(CS3, "TTTensor").modes
                           if not any(m.freq))
        ramp = F.from_mode_profile(CS3, parallel_tt, RadialProfile.monomial(1.0, 1, 0.0))
        for length in (1.0, 0.7, 2.5):
            for start in (0.0, 0.5, 1.0, 2.0, 3.5):
                value = tc.tube_norm(ramp, start, start + length)
                exact = length * start**2 + length**2 * start + length**3 / 3.0
                if not abs(value - exact) <= 1e-12 * exact:
                    problems.append(f"ramp tube norm over ({start}, {start + length}) is "
                                    f"{value!r}, closed form {exact!r}")
        if not tc.sharpness_probe(CS3, L=1.0, excess=1.02, t_limit=60):
            problems.append("sharpness probe 2% over the rate cap finds no failure")
        if tc.sharpness_probe(CS3, L=1.0, excess=0.98, t_limit=60):
            problems.append("sharpness probe 2% under the rate cap finds failures")
        return problems


_TIMING = re.compile(r'"timing_s":[^,}]*')


class ValidateCli:
    """``cylspec validate`` called in-process, one seed per item."""

    name = "validate-cli"
    probe_kind = "loop"
    n_inputs = 4
    grid = (64, 8)
    # gauge-divergence-fd and kernel-ricci-fd thresholds: 10 spacing^2
    fd_tol = 10.0 * max(6.0 / (grid[0] - 1), 1.0 / grid[1]) ** 2

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir
        self.first_envelope = {}

    def build(self, rng):
        seeds = set()
        while len(seeds) < self.n_inputs:
            seeds.add(int(rng.integers(0, 2**31)))
        return sorted(seeds)

    def run(self, seed):
        out_dir = os.path.join(self.scratch_dir, f"seed-{seed}")
        argv = ["validate", "--grid", f"{self.grid[0]}x{self.grid[1]}", "--dim", "3",
                "--side-lengths", "1,1,1", "--freq-cutoff", "1",
                "--seed", str(seed), "--out", out_dir]
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
        path = os.path.join(out_dir, "validate-envelope.json")
        text = ""
        if os.path.exists(path):
            with open(path) as fh:
                text = fh.read()
        return code, text

    def check(self, seed, out):
        code, text = out
        if code != 0 or not text:
            return [f"seed {seed}: exit code {code}, envelope of {len(text)} bytes"]
        problems = []
        certificates = {c["name"]: c for c in json.loads(text)["certificates"]}
        for name in ("gauge-divergence-fd", "kernel-ricci-fd"):
            cert = certificates.get(name)
            if cert is None or not (cert["passed"] and cert["value"] <= self.fd_tol):
                problems.append(f"seed {seed}: certificate {name} does not pass: {cert}")
        # everything but the wall time must repeat byte for byte
        stable = _TIMING.sub('"timing_s":_', text)
        first = self.first_envelope.setdefault(seed, stable)
        if stable != first:
            problems.append(f"seed {seed}: envelope differs from the first run of this seed")
        return problems

    def final_check(self):
        return []


NAMES = ("gauge-fd", "kernel-roundtrip", "tube-dichotomy", "validate-cli")


def make(name: str, scratch_dir: str):
    if name == "gauge-fd":
        return GaugeFd()
    if name == "kernel-roundtrip":
        return KernelRoundtrip()
    if name == "tube-dichotomy":
        return TubeDichotomy()
    if name == "validate-cli":
        return ValidateCli(scratch_dir)
    raise ValueError(f"unknown workload {name!r}; expected one of {', '.join(NAMES)}")
