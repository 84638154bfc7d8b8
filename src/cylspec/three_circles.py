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

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

from . import fields as fields_mod
from .cross_section import TorusCrossSection, build_spectrum, omega_unit
from .deformation_solver import classify_kernel
from .errors import InvalidInput, InvalidParams
from .fields import TensorField
from .mode_ode import RadialProfile

__all__ = [
    "TubeNormSeries",
    "ThreeCirclesParams",
    "CheckResult",
    "MonotonicityReport",
    "tube_norm",
    "rate_cap",
    "project_out_parallel",
    "three_circles_check",
    "monotonicity_classify",
    "sharpness_probe",
    "random_reduced_form",
    "random_valid_params",
]

REL_TOL = 1e-12


def _finite_tube_value(v: float, a: float, b: float) -> float:
    """A tube value as a nonnegative float; a value past the double range
    (inf, or NaN where an overflow met a zero factor) is an error, never an
    empty tube."""
    if not math.isfinite(v):
        raise InvalidInput(f"tube ({a:.6g}, {b:.6g}) has no finite value ({v}): the field "
                           "overflows the double range there or has non-finite coefficients")
    return max(0.0, v)


def tube_norm(h: TensorField, a: float, b: float) -> float:
    """Squared L2 mass of h over the tube (a, b) x N, in closed form."""
    if not a < b:
        raise InvalidInput("tube needs a < b")
    return _finite_tube_value(fields_mod.tube_inner_product(h, h, a, b), a, b)


def _tube_values(h: TensorField, L: float, offsets) -> tuple:
    """tube_norm(h, t L, (t+1) L) for every offset t, from one tube
    integrand integrated over all tubes at once."""
    if not 0.0 < L < math.inf:
        raise InvalidInput(f"tube length must be positive and finite, got L = {L!r}")
    t = np.asarray(offsets, dtype=float)
    lo, hi = t * L, (t + 1) * L
    values = fields_mod.tube_integrand(h, h).interval_integrals(lo, hi)
    return tuple(map(_finite_tube_value, values.tolist(), lo.tolist(), hi.tolist()))


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
        if not 0.0 < self.L < math.inf:
            raise InvalidInput(f"tube length must be positive and finite, got L = {self.L!r}")
        off = _series_offsets(self.offsets)
        values = tuple(float(v) for v in self.values)
        if len(off) != len(values) or not all(0.0 <= v < math.inf for v in values):
            raise InvalidInput("values must be finite and nonnegative, one per offset")
        object.__setattr__(self, "offsets", off)
        object.__setattr__(self, "values", values)

    @classmethod
    def from_field(cls, h: TensorField, L: float, offsets) -> "TubeNormSeries":
        """The series of h; the offsets (here) and L (in _tube_values) are
        checked before any tube is integrated."""
        offsets = _series_offsets(offsets)
        return cls(L=L, offsets=offsets, values=_tube_values(h, L, offsets))


def _series_offsets(offsets) -> tuple:
    given = tuple(offsets)
    off = tuple(int(t) for t in given)
    if off != given or list(off) != sorted(set(off)) or (off and off[0] < 0):
        raise InvalidInput("offsets must be strictly increasing nonnegative integers")
    return off


@dataclass(frozen=True)
class ThreeCirclesParams:
    beta: float
    beta_prime: float
    L: float
    triple: tuple

    def __post_init__(self):
        given = tuple(self.triple)
        triple = tuple(int(t) for t in given)
        if triple != given:
            raise InvalidParams(f"triple must hold integer offsets, got {given}")
        object.__setattr__(self, "triple", triple)
        if len(self.triple) != 3:
            raise InvalidParams("triple must have exactly three offsets")

    def validate(self, mu1: float, has_r_linear: bool = True) -> None:
        t1, t2, t3 = self.triple
        s1 = math.sqrt(mu1)
        if not 0.0 < self.L < math.inf:
            raise InvalidParams(f"tube length must be positive and finite, got L = {self.L!r}")
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
    whether an r-linear leg is present.

    All coefficient tensors are tested at once.  The first failing term in
    ``h.terms()`` order is reported; within a term the power and rate come
    first, then the radial and mixed legs, then trace and transversality.
    Rates compare exactly, as in ``classify_kernel``: a term's rate must be
    the float +-sqrt(mu) of its frequency (0 at frequency zero).
    All-zero tensors are skipped.  A NaN or infinite entry is reported
    first, naming its term.  The arrays are the field's ``columns()``.
    """
    cols = h.columns()
    C = cols.coefficients
    if not len(C):
        return False

    def term(i):
        return cols.key_of(i), int(cols.powers[i]), float(cols.rates[i])

    if not np.isfinite(C).all():
        mode_key, p, rate = term(int(np.isfinite(C).all(axis=(1, 2)).argmin()))
        raise InvalidInput(f"coefficient at mode key {mode_key}, power {p}, "
                           f"rate {rate:.6g} is not finite")
    # per key: parallel or not, s = sqrt(mu) and the unit normal w^
    per_key = [(not any(freq), *omega_unit(h.cs, freq)) for freq, _ in cols.keys]
    counts = np.diff(cols.starts)
    parallel, s, what = (np.array(col).repeat(counts, axis=0) for col in zip(*per_key))
    powers, rates = cols.powers, cols.rates

    A = np.abs(C)
    term_max = A.max(axis=(1, 2))
    live = ~(term_max <= 0.0)
    # max(1, max |C|), skipping NaN as TensorField.max_abs_coeff does
    tol = REL_TOL * float(np.fmax.reduce(term_max, initial=1.0))
    bad_rate = (powers != np.where(parallel, 1, 0)) | ~((rates == s) | (rates == -s))
    bad_edge = np.maximum(A[:, 0, :].max(axis=1), A[:, 1:, 0].max(axis=1)) > tol
    tang = C[:, 1:, 1:]
    bad_tt = ~parallel & (
        (np.abs(np.trace(tang, axis1=1, axis2=2)) > tol)
        | (np.abs(tang @ what[:, :, None]).max(axis=(1, 2)) > tol)
    )
    bad = live & (bad_rate | bad_edge | bad_tt)
    if bad.any():
        i = int(bad.argmax())
        (freq, _), p, rate = term(i)
        if parallel[i] and bad_rate[i]:
            raise InvalidInput(
                "parallel sector must be purely r-linear; classify and "
                "project the field first"
            )
        if parallel[i]:
            raise InvalidInput("radial and mixed parallel legs are not reduced")
        if bad_rate[i]:
            raise InvalidInput(
                f"oscillating-mode profiles must be pure e^{{+-sqrt(mu) r}}; "
                f"found power {p}, rate {rate:.6g} at frequency {freq}"
            )
        raise InvalidInput(
            f"oscillating content at frequency {freq} is not transverse traceless"
        )
    return bool((live & parallel).any())


def project_out_parallel(h: TensorField, tau: float = 0.0) -> TensorField:
    """Strip a kernel element down to its reduced shape.

    Classifies h, then keeps the r-linear trace and parallel TT legs and
    the exponential TT modes; the radially parallel constants (and any
    gauge content, which the reduced form has no slot for) are removed.
    Idempotent, and NotInKernel passes through from classification.
    """
    dec = classify_kernel(h, tau)
    reduced = ("trace_linear", "tt_parallel_linear", "tt_exp")
    kept = tuple((col, c) for col, c in dec.parts if col.label in reduced)
    return replace(dec, parts=kept).reconstruct().prune()


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


def three_circles_check(h_bar: TensorField, params: ThreeCirclesParams) -> CheckResult:
    """Certify the three-circles inequality for one reduced field.

    Middle tube against outer tubes: sqrt(V_2) <= e^{-beta' L}(sqrt(V_1)
    + sqrt(V_3)).  The hypotheses are validated first and InvalidParams
    names the failing one; the slack is the ratio right side over left
    side.
    """
    has_r_linear = _require_reduced_form(h_bar)
    params.validate(h_bar.cs.smallest_positive_eigenvalue(), has_r_linear)
    values = _tube_values(h_bar, params.L, params.triple)
    return _evaluate_triple(values, params.beta_prime, params.L)


# ---------------------------------------------------------------------------
# monotonicity dichotomy and propagation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class MonotonicityReport:
    labels: tuple  # one label per interior offset
    violations: tuple  # interior offsets where neither side dominates
    growth_violations: tuple  # offsets where the upward propagation fails
    decay_violations: tuple  # offsets where the downward propagation fails

    @property
    def clean(self) -> bool:
        return not (self.violations or self.growth_violations or self.decay_violations)


def monotonicity_classify(series: TubeNormSeries, beta_prime: float) -> MonotonicityReport:
    """Check the step dichotomy and both propagation laws along a series.

    At each interior offset one neighbour must dominate by e^{2 beta' L};
    the label records which side.  Domination by the right neighbour must
    propagate rightward, domination over the right neighbour must
    propagate leftward; indices breaking either law are reported.  beta'
    must be positive and finite with e^{2 beta' L} finite, as
    ``ThreeCirclesParams`` requires; anything else raises ``InvalidInput``.
    """
    try:
        F = math.exp(2.0 * beta_prime * series.L)
    except OverflowError:
        F = math.inf
    if not (beta_prime > 0.0 and F < math.inf):
        raise InvalidInput(f"beta' = {beta_prime!r} must be positive and finite with "
                           f"e^(2 beta' L) finite at L = {series.L!r}")
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
        labels=tuple(labels),
        violations=tuple(violations),
        growth_violations=tuple(growth_bad),
        decay_violations=tuple(decay_bad),
    )


# ---------------------------------------------------------------------------
# randomized suites
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=64)
def _tt_pool(cs: TorusCrossSection) -> tuple:
    """The rows random_reduced_form draws from: for each oscillating TT
    mode in spectrum order, then for each parallel one, its (freq...,
    phase code) head, s = sqrt(mu) and its polarization padded to
    (d+1, d+1); and the torus metric g_N, padded alike.  Read-only."""

    def table(modes):
        out = []
        for m in modes:
            C = np.zeros((cs.dim + 1, cs.dim + 1))
            C[1:, 1:] = m.polarization
            C.setflags(write=False)
            out.append(((*m.freq, 0 if m.phase == "cos" else 1), math.sqrt(m.eigenvalue), C))
        return tuple(out)

    spectrum = build_spectrum(cs, "TTTensor")
    g_tan = np.diag([0.0] + [1.0] * cs.dim)
    g_tan.setflags(write=False)
    return table(spectrum.oscillating), table(spectrum.at((0,) * cs.dim)), g_tan


def random_reduced_form(
    cs: TorusCrossSection,
    rng,
    include_r_linear: bool = True,
    include_growing: bool = True,
) -> TensorField:
    """A random reduced kernel element (up to three exponential TT modes, optional
    r-linear trace and parallel TT legs), its coefficients uniform on
    [-1, 1]; .scale(c) resizes it.  include_growing=False zeroes the
    e^{+sqrt(mu) r} branches, for callers sampling on long windows.

    The rows are read from the cross section's memoized TT pool and listed
    in one ``FieldBuilder.rows`` call, in the order of the profiles'
    terms (e^{-s r} before e^{+s r}); a zero coefficient lists no row."""
    oscillating, parallel, g_tan = _tt_pool(cs)
    if not oscillating:
        raise InvalidInput("cross section carries no oscillating TT modes")
    picks = rng.choice(len(oscillating), size=min(3, len(oscillating)), replace=False).tolist()
    keys, coeffs, tensors = [], [], []

    def row(head, p, lam, c, C):
        if c != 0.0:
            keys.append((*head, p, lam))
            coeffs.append(c)
            tensors.append(C)

    # every pick's (a_+, a_-) from one uniform call: the doubles, in order, of a
    # size-2 call per pick
    for i, (a_plus, a_minus) in zip(picks, rng.uniform(-1.0, 1.0, size=(len(picks), 2)).tolist()):
        head, s, C = oscillating[i]
        row(head, 0, -s, a_minus, C)
        row(head, 0, s, a_plus if include_growing else 0.0, C)
    if include_r_linear:
        row((0,) * (cs.dim + 1), 1, 0.0, float(rng.uniform(-1.0, 1.0)), g_tan)
        head, _, C = parallel[int(rng.integers(0, len(parallel)))]
        row(head, 1, 0.0, float(rng.uniform(-1.0, 1.0)), C)
    return fields_mod.FieldBuilder(cs, 2).rows(keys, coeffs, tensors).field()


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
    b0 = build_spectrum(cs, "TTTensor").at((0,) * cs.dim)[0]
    h = fields_mod.from_mode_profile(cs, b0, RadialProfile.monomial(1.0, 1, 0.0))
    values = _tube_values(h, L, range(t_limit + 1))
    failing = []
    for t3 in range(2, t_limit + 1):
        beta_prime = excess * rate_cap(L, 1, t3)
        result = _evaluate_triple((values[0], values[1], values[t3]), beta_prime, L)
        if not result.holds:
            failing.append((0, 1, t3))
    return tuple(failing)
