"""Tube norms and the three-circles decay certificate.

The quantity ||h||_{a,b} here is the squared L2 mass of h over the tube
(a, b) x N, computed in closed form through mode orthogonality.  On
reduced kernel elements

    h = a~ r g_N + sum_m a0~_m r B_m + sum_i (a_i+ e^{s_i r} + a_i- e^{-s_i r}) B_i

the three-circles inequality bounds the middle tube by its neighbours,

    sqrt(V_2) <= e^{-beta' L} (sqrt(V_1) + sqrt(V_3)),

where V_j is the tube value at offset t_j and beta' obeys two caps: the
spectral cap beta' < beta < sqrt(mu_1) controlling the exponential
modes, and the rate cap

    beta' < log(P(t_3) / P(t_2)) / (2 L),      P(t) = t^2 + t + 1/3,

controlling the r-linear modes, whose tube values are proportional to
L^3 P(t).  P(t_3)/P(t_2) is exactly the ratio of those tube values, so
the cap is sharp: exceeding it by a couple of percent already produces
failing triples for the pure r-linear mode, which is what the sharpness
probe demonstrates.

The monotonicity dichotomy compares squared values one step apart
against the factor e^{2 beta' L}; its propagation laws push domination
up (growing side) or down (decaying side) the tube sequence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fields as fields_mod
from .cross_section import TorusCrossSection, build_spectrum
from .deformation_solver import _metric_tangential, _tt_modes, classify_kernel
from .errors import InvalidInput, InvalidParams
from .fields import TensorField
from .mode_ode import RadialProfile

__all__ = [
    "TubeNormSeries",
    "ThreeCirclesParams",
    "CheckResult",
    "MonotonicityReport",
    "PerturbationReport",
    "tube_norm",
    "rate_cap",
    "project_out_parallel",
    "three_circles_check",
    "monotonicity_classify",
    "sharpness_probe",
    "random_reduced_form",
    "random_valid_params",
    "perturbed_three_circles_trial",
]

REL_TOL = 1e-12


def tube_norm(h: TensorField, a: float, b: float) -> float:
    """Squared L2 mass of h over the tube (a, b) x N, in closed form."""
    if not a < b:
        raise InvalidInput("tube needs a < b")
    return max(0.0, fields_mod.tube_norm_sq(h, a, b))


def _tube_values(h: TensorField, L: float, offsets) -> tuple:
    """tube_norm(h, t L, (t+1) L) for every offset t, from one antiderivative
    of the tube integrand evaluated at all tube edges at once."""
    if not L > 0.0:
        raise InvalidInput("tube needs a < b")
    t = np.asarray(offsets, dtype=float)
    F = fields_mod.tube_integrand(h, h).antiderivative()
    lo, hi = np.split(F.evaluate(np.concatenate((t * L, (t + 1) * L))), 2)
    return tuple(max(0.0, v) for v in (hi - lo).tolist())


def _p_weight(t: float) -> float:
    # integral of r^2 over [tL, (t+1)L] is L^3 * P(t); the common L^3 cancels
    # from every ratio this module takes
    return t * t + t + 1.0 / 3.0


def rate_cap(L: float, t2: int, t3: int) -> float:
    """The r-linear-mode cap on beta' for the triple's outer offsets."""
    return math.log(_p_weight(t3) / _p_weight(t2)) / (2.0 * L)


@dataclass(frozen=True)
class TubeNormSeries:
    """Squared tube values of one field over consecutive offsets.

    values[j] is the squared mass over (offsets[j] L, (offsets[j]+1) L).
    """

    L: float
    offsets: tuple
    values: tuple

    def __post_init__(self):
        if self.L <= 0.0:
            raise InvalidInput("tube length must be positive")
        off = tuple(int(t) for t in self.offsets)
        if list(off) != sorted(set(off)) or (off and off[0] < 0):
            raise InvalidInput("offsets must be strictly increasing and nonnegative")
        if len(off) != len(self.values) or any(v < 0.0 for v in self.values):
            raise InvalidInput("values must be nonnegative, one per offset")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "values", tuple(float(v) for v in self.values))

    @classmethod
    def from_field(cls, h: TensorField, L: float, offsets) -> "TubeNormSeries":
        return cls(L=L, offsets=tuple(offsets), values=_tube_values(h, L, offsets))


@dataclass(frozen=True)
class ThreeCirclesParams:
    beta: float
    beta_prime: float
    L: float
    triple: tuple

    def __post_init__(self):
        object.__setattr__(self, "triple", tuple(int(t) for t in self.triple))
        if len(self.triple) != 3:
            raise InvalidParams("triple must have exactly three offsets")

    def validate(self, mu1: float, has_r_linear: bool = True) -> None:
        t1, t2, t3 = self.triple
        s1 = math.sqrt(mu1)
        if self.L <= 0.0:
            raise InvalidParams("tube length must be positive")
        if not 0 <= t1 < t2 < t3:
            raise InvalidParams("offsets must satisfy 0 <= t1 < t2 < t3")
        if not 0.0 < self.beta < s1:
            raise InvalidParams(
                f"beta must lie in (0, sqrt(mu_1)) = (0, {s1:.6g})"
            )
        if math.exp(2.0 * (s1 - self.beta) * self.L) <= 2.0:
            raise InvalidParams(
                "spectral-gap hypothesis fails: e^{2(sqrt(mu_1)-beta)L} must exceed 2"
            )
        cap = self.beta
        if has_r_linear:
            cap = min(cap, rate_cap(self.L, t2, t3))
        if not 0.0 < self.beta_prime < cap:
            raise InvalidParams(
                f"beta' = {self.beta_prime:.6g} must lie in (0, {cap:.6g})"
                + (" (r-linear rate cap active)" if cap < self.beta else "")
            )


# ---------------------------------------------------------------------------
# reduced normal form
# ---------------------------------------------------------------------------


def _require_reduced_form(h: TensorField) -> bool:
    """Gate: h must be a reduced kernel element (r-linear trace and
    parallel TT legs plus exponential TT modes, nothing else).  Returns
    whether an r-linear leg is present."""
    cs = h.cs
    scale = max(1.0, h.max_abs_coeff())
    has_r_linear = False
    for (freq, phase), profs in h.data.items():
        if not any(freq):
            for (p, lam), C in profs.items():
                C = np.asarray(C)
                if np.max(np.abs(C)) <= 0.0:
                    continue
                if lam != 0.0 or p != 1:
                    raise InvalidInput(
                        "parallel sector must be purely r-linear; classify and "
                        "project the field first"
                    )
                edge = np.concatenate(([C[0, 0]], C[0, 1:], C[1:, 0]))
                if np.max(np.abs(edge)) > REL_TOL * scale:
                    raise InvalidInput("radial and mixed parallel legs are not reduced")
                has_r_linear = True
            continue
        mu = cs.eigenvalue(freq)
        s = math.sqrt(mu)
        what = cs.omega(freq)
        what = what / np.linalg.norm(what)
        for (p, lam), C in profs.items():
            C = np.asarray(C)
            if np.max(np.abs(C)) <= 0.0:
                continue
            if p != 0 or abs(abs(lam) - s) > 1e-9 * max(1.0, s):
                raise InvalidInput(
                    f"oscillating-mode profiles must be pure e^{{+-sqrt(mu) r}}; "
                    f"found power {p}, rate {lam:.6g} at frequency {freq}"
                )
            edge = np.concatenate(([C[0, 0]], C[0, 1:], C[1:, 0]))
            tang = C[1:, 1:]
            if (
                np.max(np.abs(edge)) > REL_TOL * scale
                or abs(np.trace(tang)) > REL_TOL * scale
                or np.max(np.abs(tang @ what)) > REL_TOL * scale
            ):
                raise InvalidInput(
                    f"oscillating content at frequency {freq} is not transverse "
                    "traceless"
                )
    return has_r_linear


def project_out_parallel(h: TensorField, tau: float = 0.0) -> TensorField:
    """Strip a kernel element down to its reduced shape.

    Classifies h, then keeps the r-linear trace and parallel TT legs and
    the exponential TT modes; the radially parallel constants (and any
    gauge content, which the reduced form has no slot for) are removed.
    Idempotent, and NotInKernel passes through from classification.
    """
    dec = classify_kernel(h, tau)
    cs = dec.cs
    out = _metric_tangential(cs).multiply_profile(
        RadialProfile.monomial(dec.pure_trace[1], 1, 0.0)
    )
    parallel = _tt_modes(cs)
    for i, coeff in dec.linear_tt.items():
        out = out + fields_mod.from_mode_profile(
            cs, parallel[i], RadialProfile.monomial(coeff, 1, 0.0)
        )
    for (freq, phase, i), (a_plus, a_minus) in dec.exp_modes.items():
        tt = _tt_modes(cs, freq, phase)[i]
        s = math.sqrt(tt.eigenvalue)
        out = out + fields_mod.from_mode_profile(
            cs, tt, RadialProfile(((a_plus, 0, s), (a_minus, 0, -s)))
        )
    return out.prune(0.0)


# ---------------------------------------------------------------------------
# the inequality
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CheckResult:
    holds: bool
    slack: float
    values: tuple  # squared tube values at (t1, t2, t3)


def _evaluate_triple(values, beta_prime: float, L: float) -> CheckResult:
    n1, n2, n3 = (math.sqrt(v) for v in values)
    rhs = math.exp(-beta_prime * L) * (n1 + n3)
    if n2 == 0.0:
        return CheckResult(True, math.inf, tuple(values))
    slack = rhs / n2
    return CheckResult(slack >= 1.0 - REL_TOL, slack, tuple(values))


def three_circles_check(
    h_bar: TensorField, params: ThreeCirclesParams, enforce: bool = True
) -> CheckResult:
    """Certify the three-circles inequality for one reduced field.

    Middle tube against outer tubes: sqrt(V_2) <= e^{-beta' L}(sqrt(V_1)
    + sqrt(V_3)).  With enforce=True (the default) the hypotheses are
    validated first and InvalidParams names the failing one; the slack
    is the ratio right side over left side.
    """
    has_r_linear = _require_reduced_form(h_bar)
    if enforce:
        params.validate(h_bar.cs.smallest_positive_eigenvalue(), has_r_linear)
    values = _tube_values(h_bar, params.L, params.triple)
    return _evaluate_triple(values, params.beta_prime, params.L)


# ---------------------------------------------------------------------------
# monotonicity dichotomy and propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    factor: float
    labels: tuple  # one label per interior offset
    violations: tuple  # interior offsets where neither side dominates
    growth_violations: tuple  # offsets where the upward propagation fails
    decay_violations: tuple  # offsets where the downward propagation fails

    @property
    def clean(self) -> bool:
        return not (self.violations or self.growth_violations or self.decay_violations)


def monotonicity_classify(
    series: TubeNormSeries, beta_prime: float, L: float | None = None
) -> MonotonicityReport:
    """Check the step dichotomy and both propagation laws along a series.

    At each interior offset one neighbour must dominate by e^{2 beta' L};
    the label records which side.  Domination by the right neighbour must
    propagate rightward, domination over the right neighbour must
    propagate leftward; indices breaking either law are reported.
    """
    L = series.L if L is None else L
    F = math.exp(2.0 * beta_prime * L)
    V = series.values
    tol = REL_TOL * max([1.0, *V])
    labels = []
    violations = []
    for j in range(1, len(V) - 1):
        left = V[j - 1] >= F * V[j] - tol
        right = V[j + 1] >= F * V[j] - tol
        if not (left or right):
            labels.append("violation")
            violations.append(series.offsets[j])
        elif left and (not right or V[j - 1] >= V[j + 1]):
            labels.append("left-dominated")
        else:
            labels.append("right-dominated")
    growth_bad = []
    decay_bad = []
    for j in range(1, len(V) - 1):
        if V[j] >= F * V[j - 1] - tol and V[j + 1] < F * V[j] - tol:
            growth_bad.append(series.offsets[j])
        if V[j] >= F * V[j + 1] - tol and V[j - 1] < F * V[j] - tol:
            decay_bad.append(series.offsets[j])
    return MonotonicityReport(
        factor=F,
        labels=tuple(labels),
        violations=tuple(violations),
        growth_violations=tuple(growth_bad),
        decay_violations=tuple(decay_bad),
    )


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------


def _oscillating_tt_modes(cs: TorusCrossSection):
    return [m for m in build_spectrum(cs, "TTTensor").modes if any(m.freq)]


def random_reduced_form(
    cs: TorusCrossSection,
    rng,
    n_exp_modes: int = 3,
    include_r_linear: bool = True,
    include_growing: bool = True,
    coeff_scale: float = 1.0,
) -> TensorField:
    """A random reduced kernel element (exponential TT modes, optional
    r-linear trace and parallel TT legs).  include_growing=False zeroes
    the e^{+sqrt(mu) r} branches, for callers sampling on long windows."""
    pool = _oscillating_tt_modes(cs)
    if not pool:
        raise InvalidInput("cross section carries no oscillating TT modes")
    h = TensorField.zero(cs, 2)
    picks = rng.choice(len(pool), size=min(n_exp_modes, len(pool)), replace=False)
    for i in picks:
        tt = pool[i]
        s = math.sqrt(tt.eigenvalue)
        a_plus, a_minus = rng.uniform(-coeff_scale, coeff_scale, size=2)
        if not include_growing:
            a_plus = 0.0
        h = h + fields_mod.from_mode_profile(
            cs, tt, RadialProfile(((a_plus, 0, s), (a_minus, 0, -s)))
        )
    if include_r_linear:
        a_tilde = float(rng.uniform(-coeff_scale, coeff_scale))
        h = h + _metric_tangential(cs).multiply_profile(
            RadialProfile.monomial(a_tilde, 1, 0.0)
        )
        parallel = _tt_modes(cs)
        m = int(rng.integers(0, len(parallel)))
        h = h + fields_mod.from_mode_profile(
            cs,
            parallel[m],
            RadialProfile.monomial(float(rng.uniform(-coeff_scale, coeff_scale)), 1, 0.0),
        )
    return h


def random_valid_params(
    mu1: float, rng, has_r_linear: bool = True
) -> ThreeCirclesParams:
    """Draw parameters satisfying every hypothesis with margin.

    L keeps sqrt(mu_1) L >= 3 so cross terms of mixed exponential modes
    stay dominated; beta keeps the spectral gap factor above 2.2; beta'
    sits strictly inside both caps.
    """
    s1 = math.sqrt(mu1)
    L = float(rng.uniform(3.0 / s1, 6.0 / s1))
    beta_hi = s1 - math.log(2.2) / (2.0 * L)
    beta = float(rng.uniform(0.3 * s1, beta_hi))
    t1 = int(rng.integers(0, 3))
    t2 = t1 + 1 + int(rng.integers(0, 3))
    t3 = t2 + 1 + int(rng.integers(0, 4))
    cap = beta
    if has_r_linear:
        cap = min(cap, rate_cap(L, t2, t3))
    beta_prime = float(cap * rng.uniform(0.2, 0.95))
    return ThreeCirclesParams(beta=beta, beta_prime=beta_prime, L=L, triple=(t1, t2, t3))


def sharpness_probe(
    cs: TorusCrossSection, L: float = 1.0, excess: float = 1.02, t_limit: int = 60
):
    """Exceed the r-linear rate cap by the given factor on the pure
    r B~_0 mode and collect the triples where the inequality breaks.

    A nonempty result certifies the cap is active rather than slack: at
    2 percent over it the long triples (0, 1, t3) already fail.
    """
    b0 = _tt_modes(cs)[0]
    h = fields_mod.from_mode_profile(cs, b0, RadialProfile.monomial(1.0, 1, 0.0))
    values = _tube_values(h, L, range(t_limit + 1))
    failing = []
    for t3 in range(2, t_limit + 1):
        beta_prime = excess * rate_cap(L, 1, t3)
        result = _evaluate_triple((values[0], values[1], values[t3]), beta_prime, L)
        if not result.holds:
            failing.append((0, 1, t3))
    return tuple(failing)


@dataclass(frozen=True)
class PerturbationReport:
    chi: float
    trials: int
    passes: int
    failures: tuple

    @property
    def pass_rate(self) -> float:
        return 1.0 if self.trials == 0 else self.passes / self.trials


def perturbed_three_circles_trial(
    cs: TorusCrossSection,
    chi: float = 1e-3,
    trials: int = 100,
    seed: int = 0,
    coeff_scale: float = 1.0,
) -> PerturbationReport:
    """Empirical stability of the inequality under background shifts.

    Each trial draws a reduced field and valid parameters, then adds an
    independent reduced-shape shift rescaled to sup norm chi over the
    triple's window (so the shift respects the divergence, trace, and
    no-parallel-part constraints by construction).  chi = 0 degenerates
    to the plain certificate.  The seed is part of the report's meaning:
    trials are pure functions of (seed, parameters).
    """
    rng = np.random.default_rng(seed)
    passes = 0
    failures = []
    for trial in range(trials):
        h = random_reduced_form(cs, rng, coeff_scale=coeff_scale)
        params = random_valid_params(
            cs.smallest_positive_eigenvalue(), rng, has_r_linear=True
        )
        if chi != 0.0:
            shift = random_reduced_form(cs, rng, coeff_scale=coeff_scale)
            lo = params.triple[0] * params.L
            hi = (params.triple[2] + 1) * params.L
            sup = _sup_on_tube(shift, lo, hi)
            if sup > 0.0:
                h = h + shift.scale(chi / sup)
        result = three_circles_check(h, params)
        if result.holds:
            passes += 1
        else:
            failures.append((trial, params, result.slack))
    return PerturbationReport(chi=chi, trials=trials, passes=passes, failures=tuple(failures))


def _sup_on_tube(h: TensorField, lo: float, hi: float, n_r: int = 33, n_x: int = 5) -> float:
    cs = h.cs
    axes = [np.linspace(0.0, side, n_x, endpoint=False) for side in cs.side_lengths]
    grids = np.meshgrid(*axes, indexing="ij")
    xs = np.stack([g.ravel() for g in grids], axis=-1)
    vals = h.evaluate(np.linspace(lo, hi, n_r), xs)
    return float(np.max(np.abs(vals)))
