"""Radial ODE layer for separated modes on the cylinder.

After separating variables, every field component reduces to radial profiles
multiplying a fixed cross-section mode.  Profiles are finite sums of
``coeff * r**p * exp(rate * r)`` terms, which is closed under every operation
the solvers need (derivative, product, definite integral, variation of
parameters), so the whole radial pipeline runs in closed form.

Three constant-coefficient systems appear:

* the scalar second-order equation  f'' - mu f = alpha  for coclosed
  one-form components,
* the damped equation  y'' + tau y' = s  for the eigenvalue-zero gauge
  components, and
* the coupled 4x4 first-order system in the state (k, k', l, l') for the
  mixed scalar pair, whose coefficient matrix has the double characteristic
  roots +-sqrt(mu), each with a single Jordan block.

Solves select decay at both ends of the line (integral split at the origin),
which is what kills secular growth beyond a compactly supported source.
The scalar and damped solves return a RadialProfile; the mixed solve a
``MixedModeSolution`` of ``mu``, ``k`` and ``l`` (k' and l' are their
derivatives), RadialProfiles unless the source is windowed,
``support=(0, hi)``, which makes them PiecewiseProfiles.

Every solve runs through one integrator, ``_exp_integral``, which keeps each
term's rate, so a solution carries exactly (``==``) the source rates and the
homogeneous rates (+-sqrt(mu), or 0 and -tau) and no others.  A source rate
within RATE_WINDOW of a homogeneous rate, but not on it, raises ResonantRate.

Integrals over finite intervals [lo, hi], lo >= 0, have one closed form in
the confluent kernels psi_q(z) = int_0^1 t^q e^{z t} dt (``_psi``), a sum of
nonnegative terms for every rate, zero included; only integrals out to
infinity take the antiderivative.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, ResonantRate

__all__ = [
    "RadialProfile",
    "PiecewiseProfile",
    "FundamentalMatrixSet",
    "MixedModeSolution",
    "system_matrix",
    "fundamental_matrix_set",
    "v_matrix",
    "v_inverse",
    "pair_columns",
    "check_characteristic",
    "solve_scalar_mode",
    "solve_mixed_mode",
    "solve_damped_mode",
]

# A rate lam with 0 < |lam - sigma| <= RATE_WINDOW * max(1, |sigma|) against
# a homogeneous rate sigma raises ResonantRate instead of dividing by the gap.
RATE_WINDOW = 1e-10

# Coefficients whose magnitude is exactly zero are dropped on construction;
# everything else is kept (pruning with a tolerance is always explicit).
_EXACT_ZERO = 0.0


def _antiderivative_terms(c: float, p: int, lam: float) -> list:
    """(coeff, power) pairs of the antiderivative of c r^p e^{lam r} at rate
    lam, integration constant 0: c r^{p+1} / (p + 1) for lam == 0, else
    e^{lam r} sum_j (-1)^j (p)_j c r^{p-j} / lam^{j+1}, (p)_j falling."""
    if lam == 0.0:
        return [(c / (p + 1), p + 1)]
    return [(c * (-1) ** j * math.perm(p, j) / lam ** (j + 1), p - j) for j in range(p + 1)]


# Taylor terms of psi_q on |z| <= 1: the tail after n = 18 is below e / 19!,
# under 2^-53 relative, since psi_q(z) >= e^{-1} / (q + 1) there.
_PSI_TERMS = 19


def _psi(z, qmax: int) -> list:
    """[psi_0(z), ..., psi_qmax(z)] elementwise in the array z, where
    psi_q(z) = int_0^1 t^q e^{z t} dt > 0.

    Each recurrence runs only in its stable direction.  For |z| > 1,
    upward from psi_0 = expm1(z) / z by psi_q = (e^z - q psi_{q-1}) / z;
    for |z| <= 1, the Taylor series sum_n z^n / (n! (qmax + n + 1)) for
    psi_qmax, then downward by psi_{q-1} = (e^z - z psi_q) / q.  Where
    every |z| <= 1 entry is 0 both are skipped: there psi_q = 1 / (q + 1),
    which is what they give bit for bit.
    """
    near = np.abs(z) <= 1.0
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        ez = np.exp(z)
        psi = [np.expm1(z) / z]
        for q in range(1, qmax + 1):
            psi.append((ez - q * psi[-1]) / z)
        if not (near & (z != 0.0)).any():
            return [np.where(near, 1.0 / (q + 1), v) for q, v in enumerate(psi)]
        top = 0.0
        for n in range(_PSI_TERMS - 1, -1, -1):
            top = 1.0 / (math.factorial(n) * (qmax + n + 1)) + z * top
        psi[qmax] = np.where(near, top, psi[qmax])
        for q in range(qmax, 0, -1):
            top = (ez - z * top) / q
            psi[q - 1] = np.where(near, top, psi[q - 1])
    return psi


class RadialProfile:
    """Finite sum of ``c * r**p * exp(lam * r)`` terms.

    Terms are stored merged on the key ``(p, lam)``, sorted, with no exact
    zero.  Separated-mode solutions only ever need powers 0 and 1;
    intermediate arithmetic (tube-norm integrands, variation-of-parameters
    temporaries) may push the power higher, which is fine.  Arithmetic on
    such canonical terms builds its result canonical, skipping the checks.
    """

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        merged: dict[tuple[int, float], float] = {}
        for coeff, p, lam in terms:
            if p < 0 or p != int(p):
                raise InvalidInput(f"term power must be a nonnegative integer, got {p}")
            lam = float(lam) + 0.0  # normalizes -0.0 to 0.0
            key = (int(p), lam)
            merged[key] = merged.get(key, 0.0) + float(coeff)
        self.terms = tuple(
            (c, p, lam)
            for (p, lam), c in sorted(merged.items())
            if c != _EXACT_ZERO
        )

    @classmethod
    def _of(cls, terms: tuple) -> "RadialProfile":
        out = object.__new__(cls)  # terms already canonical
        out.terms = terms
        return out

    # -- constructors -------------------------------------------------------

    @classmethod
    def zero(cls) -> "RadialProfile":
        return cls(())

    @classmethod
    def constant(cls, c: float) -> "RadialProfile":
        return cls(((c, 0, 0.0),))

    @classmethod
    def monomial(cls, coeff: float, power: int = 0, rate: float = 0.0) -> "RadialProfile":
        return cls(((coeff, power, rate),))

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "RadialProfile") -> "RadialProfile":
        # a sorted merge; a key in both is a + b, dropped when exactly 0
        a, b, out, i, j = self.terms, other.terms, [], 0, 0
        while i < len(a) and j < len(b):
            ka, kb = a[i][1:], b[j][1:]
            if ka < kb:
                out.append(a[i])
                i += 1
            elif kb < ka:
                out.append(b[j])
                j += 1
            elif ka == kb:
                c = a[i][0] + b[j][0]
                out += [(c, *ka)] if c != _EXACT_ZERO else []
                i, j = i + 1, j + 1
            else:  # a NaN rate has no order: the constructor merges
                return RadialProfile(a + b)
        return RadialProfile._of((*out, *a[i:], *b[j:]))

    def __sub__(self, other: "RadialProfile") -> "RadialProfile":
        return self + other.scale(-1.0)

    def __neg__(self) -> "RadialProfile":
        return self.scale(-1.0)

    def scale(self, a: float) -> "RadialProfile":
        scaled = ((float(c * a), p, lam) for c, p, lam in self.terms)
        return RadialProfile._of(tuple(t for t in scaled if t[0] != _EXACT_ZERO))

    def mul_monomial(self, power: int = 0, rate: float = 0.0) -> "RadialProfile":
        """Multiply by r**power * exp(rate * r); the constructor checks and
        merges when shifted rates round onto one float or power is not int."""
        terms = tuple((c, p + power, float(lam + rate) + 0.0) for c, p, lam in self.terms)
        canonical = isinstance(power, int) and all(s[1:] < t[1:] for s, t in zip(terms, terms[1:]))
        return RadialProfile._of(terms) if canonical and power >= 0 else RadialProfile(terms)

    def multiply(self, other: "RadialProfile") -> "RadialProfile":
        out = []
        for c1, p1, l1 in self.terms:
            for c2, p2, l2 in other.terms:
                out.append((c1 * c2, p1 + p2, l1 + l2))
        return RadialProfile(tuple(out))

    def derivative(self) -> "RadialProfile":
        out = []
        for c, p, lam in self.terms:
            if lam != 0.0:
                out.append((c * lam, p, lam))
            if p > 0:
                out.append((c * p, p - 1, lam))
        return RadialProfile(tuple(out))

    def antiderivative(self) -> "RadialProfile":
        """Termwise antiderivative (integration constant 0), in the closed
        form of ``_antiderivative_terms``."""
        return RadialProfile(tuple(
            (a, q, lam) for c, p, lam in self.terms for a, q in _antiderivative_terms(c, p, lam)
        ))

    # -- queries ------------------------------------------------------------

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for c, p, lam in self.terms:
            with np.errstate(over="ignore", under="ignore"):
                out = out + c * r**p * np.exp(lam * r)
        return out

    def __call__(self, r):
        return self.evaluate(r)

    def value_at_zero(self) -> float:
        return float(sum(c for c, p, lam in self.terms if p == 0))

    def limit_at_plus_infinity(self) -> float:
        """0 if every term decays; raises if any term grows or is constant."""
        for c, p, lam in self.terms:
            if lam > 0.0 or (lam == 0.0 and (p > 0 or c != 0.0)):
                raise InvalidInput("profile does not decay at +infinity")
        return 0.0

    def definite_integral(self, a: float, b: float) -> float:
        """Integral over [a, b]; b may be math.inf if the tail decays."""
        if b == math.inf:
            F = self.antiderivative()
            return F.limit_at_plus_infinity() - float(F.evaluate(a))
        return float(self.interval_integrals([a], [b])[0])

    def interval_integrals(self, lo, hi) -> np.ndarray:
        """Integrals over the finite intervals [lo[i], hi[i]], lo[i] >= 0.

        With h = hi - lo and r = lo + h t, each term integrates to
        int_lo^hi r^p e^{lam r} dr
            = e^{lam lo} sum_q C(p, q) lo^{p-q} h^{q+1} psi_q(lam h),
        psi_q(z) = int_0^1 t^q e^{z t} dt (``_psi``).  For lo >= 0 every
        summand is nonnegative, so nothing cancels: not on short intervals,
        not at small |lam|, and lam == 0 is no special case.  Each step is
        elementwise in the interval and the term sum runs per interval, so
        an interval's value does not depend on which others come with it.
        """
        lo = np.atleast_1d(np.asarray(lo, dtype=float))
        hi = np.atleast_1d(np.asarray(hi, dtype=float))
        if not self.terms:
            return np.zeros(lo.shape)
        coeffs, powers, rates = (np.array(col) for col in zip(*self.terms))
        h = hi - lo
        p = powers[:, None]
        binom = np.ones(p.shape)  # C(p, q), exact in floats
        per_term = np.zeros((len(coeffs), len(lo)))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for q, psi_q in enumerate(_psi(rates[:, None] * h, self.max_power)):
                per_term += binom * lo ** np.maximum(p - q, 0) * h ** (q + 1) * psi_q
                binom = binom * (p - q) / (q + 1)
            per_term *= np.exp(rates[:, None] * lo)
        # one contiguous row per interval: every row sums in the same order
        return np.ascontiguousarray((coeffs[:, None] * per_term).T).sum(axis=1)

    def growing_mass(self) -> float:
        """Sum of |coeff| over terms that do not decay as r -> +infinity."""
        return sum(abs(c) for c, p, lam in self.terms if lam > 0.0 or (lam == 0.0 and p > 0))

    @property
    def max_power(self) -> int:
        return max((p for _, p, _ in self.terms), default=0)

    def is_zero(self) -> bool:
        return not self.terms

    def __repr__(self):
        if not self.terms:
            return "RadialProfile(0)"
        bits = [f"{c:+.6g} r^{p} e^{{{lam:+.6g} r}}" for c, p, lam in self.terms]
        return "RadialProfile(" + " ".join(bits) + ")"

    def __eq__(self, other):
        return isinstance(other, RadialProfile) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)


class PiecewiseProfile:
    """Radial profile defined piecewise on contiguous intervals.

    The windowed mixed solve returns its k and l as these: one closed-form
    piece inside the source window, another (purely decaying) beyond it.
    """

    __slots__ = ("pieces",)

    def __init__(self, pieces):
        pieces = sorted(pieces, key=lambda t: t[0])
        for (lo1, hi1, _), (lo2, _, _) in zip(pieces, pieces[1:]):
            if not math.isclose(hi1, lo2, rel_tol=0.0, abs_tol=1e-12):
                raise InvalidInput("piecewise profile intervals must be contiguous")
        self.pieces = tuple(pieces)

    def evaluate(self, r) -> np.ndarray:
        r_in = np.asarray(r, dtype=float)
        r = np.atleast_1d(r_in)
        out = np.zeros_like(r)
        for i, (lo, hi, prof) in enumerate(self.pieces):
            # attribute boundary points to the left piece, except the first
            if i == 0:
                mask = (r >= lo) & (r <= hi)
            else:
                mask = (r > lo) & (r <= hi)
            if np.any(mask):
                out[mask] = prof.evaluate(r[mask])
        return out.reshape(r_in.shape)

    def __call__(self, r):
        return self.evaluate(r)

    def derivative(self) -> "PiecewiseProfile":
        return PiecewiseProfile([(lo, hi, p.derivative()) for lo, hi, p in self.pieces])

    def piece_on(self, lo: float, hi: float) -> RadialProfile:
        """The closed-form piece covering [lo, hi]; raises if it straddles a breakpoint."""
        for plo, phi, prof in self.pieces:
            if plo - 1e-12 <= lo and hi <= phi + 1e-12:
                return prof
        raise InvalidInput(f"[{lo}, {hi}] straddles a profile breakpoint")


# ---------------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------------


def system_matrix(mu: float) -> np.ndarray:
    """Coefficient matrix of the first-order system in (k, k', l, l').

    Row 2 encodes k'' = 2 mu k - l' (+ source), row 4 encodes
    l'' = (mu/2)(k' + l) (+ source).
    """
    return np.array(
        [
            [0.0, 1.0, 0.0, 0.0],
            [2.0 * mu, 0.0, 0.0, -1.0],
            [0.0, 0.0, 0.0, 1.0],
            [0.0, mu / 2.0, mu / 2.0, 0.0],
        ]
    )


def v_matrix(mu: float) -> np.ndarray:
    """Columns: eigenvector and Jordan partner at +sqrt(mu), then at -sqrt(mu)."""
    _check_mu(mu)
    if mu == 0:
        raise InvalidInput("v_matrix needs mu > 0")
    s = math.sqrt(mu)
    return np.array(
        [
            [1.0, 0.0, -1.0, 0.0],
            [s, 1.0, s, -1.0],
            [s, -3.0, s, 3.0],
            [mu, -2.0 * s, -mu, -2.0 * s],
        ]
    )


def v_inverse(mu: float) -> np.ndarray:
    """Exact inverse of v_matrix (entries verified against V @ V^-1 = I)."""
    _check_mu(mu)
    if mu == 0:
        raise InvalidInput("v_inverse needs mu > 0")
    s = math.sqrt(mu)
    return np.array(
        [
            [0.5, 3.0 / (8.0 * s), 1.0 / (8.0 * s), 0.0],
            [s / 4.0, 1.0 / 8.0, -1.0 / 8.0, -1.0 / (4.0 * s)],
            [-0.5, 3.0 / (8.0 * s), 1.0 / (8.0 * s), 0.0],
            [s / 4.0, -1.0 / 8.0, 1.0 / 8.0, -1.0 / (4.0 * s)],
        ]
    )


def _exp_jordan(mu: float, r: float) -> np.ndarray:
    """exp(J r) for J = blockdiag([[s,1],[0,s]], [[-s,1],[0,-s]])."""
    s = math.sqrt(mu)
    ep, em = math.exp(s * r), math.exp(-s * r)
    out = np.zeros((4, 4))
    out[0, 0] = out[1, 1] = ep
    out[0, 1] = r * ep
    out[2, 2] = out[3, 3] = em
    out[2, 3] = r * em
    return out


def pair_columns(mu: float) -> tuple:
    """The four homogeneous (k, l) solutions of the mixed pair system, rows
    0 and 2 of the columns of V e^{J r}: the eigenvector e^{sr} v and its
    Jordan partner e^{sr} (w + r v) at +s = +sqrt(mu), then both at -s."""
    s = math.sqrt(mu)
    V = v_matrix(mu)
    out = []
    for base, rate in ((0, s), (2, -s)):
        v, w = V[(0, 2), base], V[(0, 2), base + 1]
        out.append(tuple(RadialProfile(((vi, 0, rate),)) for vi in v))
        out.append(tuple(RadialProfile(((wi, 0, rate), (vi, 1, rate))) for vi, wi in zip(v, w)))
    return tuple(out)


@dataclass(frozen=True)
class FundamentalMatrixSet:
    """The fundamental matrices of both systems at one eigenvalue mu.

    ``scalar`` solves f'' = mu f in the state (f, f'): columns 1 and r at
    mu = 0, else e^{+sr} and e^{-sr} (s = sqrt(mu)).  ``mixed`` solves the
    4x4 system: the polynomial matrix at mu = 0, else V exp(J r);
    ``mixed_inverse`` is its closed-form inverse.
    """

    mu: float

    def scalar(self, r: float) -> np.ndarray:
        if self.mu == 0:
            return np.array([[1.0, float(r)], [0.0, 1.0]])
        s = math.sqrt(self.mu)
        ep, em = math.exp(s * r), math.exp(-s * r)
        return np.array([[ep, em], [s * ep, -s * em]])

    def mixed(self, r: float) -> np.ndarray:
        r = float(r)
        if self.mu == 0:
            return np.array(
                [
                    [1.0, r, 0.0, -0.5 * r * r],
                    [0.0, 1.0, 0.0, -r],
                    [0.0, 0.0, 1.0, r],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        return v_matrix(self.mu) @ _exp_jordan(self.mu, r)

    def mixed_inverse(self, r: float) -> np.ndarray:
        """At mu = 0 this is ``mixed`` at -r except for the quadratic entry,
        which keeps its sign."""
        r = float(r)
        if self.mu == 0:
            return np.array(
                [
                    [1.0, -r, 0.0, -0.5 * r * r],
                    [0.0, 1.0, 0.0, r],
                    [0.0, 0.0, 1.0, -r],
                    [0.0, 0.0, 0.0, 1.0],
                ]
            )
        return _exp_jordan(self.mu, -r) @ v_inverse(self.mu)


def fundamental_matrix_set(mu: float) -> FundamentalMatrixSet:
    """Bundle of fundamental matrices for both systems at eigenvalue mu."""
    _check_mu(mu)
    return FundamentalMatrixSet(mu=float(mu))


def check_characteristic(mu: float) -> dict:
    """Root structure of (lambda^2 - mu)^2 together with Jordan rank data.

    Returns a dict mapping each root to ``{"algebraic": a, "geometric": g}``
    plus a ``"ranks"`` entry with rank(A - root I) for each root.
    A NaN, infinite or negative mu raises InvalidInput.
    """
    _check_mu(mu)
    A = system_matrix(mu)
    out: dict = {"roots": {}, "ranks": {}}
    roots = [0.0] if mu == 0 else [math.sqrt(mu), -math.sqrt(mu)]
    for root in roots:
        M = A - root * np.eye(4)
        rank = int(np.linalg.matrix_rank(M, tol=1e-9 * max(1.0, mu)))
        geom = 4 - rank
        alg = 4 if mu == 0 else 2
        out["roots"][root] = {"algebraic": alg, "geometric": geom}
        out["ranks"][root] = rank
    return out


# ---------------------------------------------------------------------------
# closed-form solves
# ---------------------------------------------------------------------------


def _check_source(profile) -> None:
    if not isinstance(profile, RadialProfile):
        raise InvalidInput("source must be a RadialProfile")


def _check_mu(mu: float) -> None:
    """mu must be a finite eigenvalue >= 0; NaN fails both comparisons."""
    if not 0.0 <= mu < math.inf:
        raise InvalidInput(f"mu must be finite and >= 0, got {mu!r}")


def _exp_integral(profile: RadialProfile, sigma: float, upper=None) -> RadialProfile:
    """e^{sigma r} int e^{-sigma t} profile(t) dt as a profile in r, over
    [0, r] when ``upper`` is None and over [r, upper] otherwise (upper may
    be inf).

    Term by term with d = lam - sigma, each term keeps its rate lam and
    takes the closed-form antiderivative's coefficients, with divisors
    d^{j+1} (d == 0: the secular r^{p+1} / (p + 1)); the integration
    constant sits at rate sigma.  A nonzero d inside RATE_WINDOW (relative
    to max(1, |sigma|)) would divide by a near-zero gap and cancel, so it
    raises ResonantRate.  At a finite ``upper`` the constant is the
    antiderivative at the shifted rates d, evaluated there.
    """
    window = RATE_WINDOW * max(1.0, abs(sigma))
    shifted, out = [], []
    for c, p, lam in profile.terms:
        d = lam - sigma
        if 0.0 < abs(d) <= window:
            raise ResonantRate(
                f"source rate {lam!r} lies within {abs(d):.3g} of the homogeneous "
                f"rate {sigma + 0.0!r}"
            )
        parts = _antiderivative_terms(c, p, d)
        shifted.extend((a, q, d) for a, q in parts)
        out.extend((a, q, lam) for a, q in parts)
    F = RadialProfile(shifted)
    if upper is None:
        return RadialProfile(out + [(-F.value_at_zero(), 0, sigma)])
    top = F.limit_at_plus_infinity() if upper == math.inf else float(F.evaluate(upper))
    return RadialProfile([(top, 0, sigma)] + [(-a, q, lam) for a, q, lam in out])


def solve_scalar_mode(mu: float, alpha) -> RadialProfile:
    """Decaying solution of f'' - mu f = alpha on the half line.

    For mu > 0 this is the convolution with -e^{-sqrt(mu)|r-s|}/(2 sqrt(mu)),
    which needs every source rate lam < sqrt(mu), or the upper tail of the
    convolution diverges; any other rate raises InvalidInput.  For mu = 0 it
    is the double integration with zero data at r = 0 (the canonical
    complement choice for the finite sector); nothing is integrated out to
    infinity there, so any rate is accepted.
    """
    _check_source(alpha)
    _check_mu(mu)
    if mu == 0.0:
        # f'' = alpha with zero data at r = 0 is the damped equation at tau = 0
        return solve_damped_mode(0.0, alpha)

    s = math.sqrt(mu)
    for _, p, lam in alpha.terms:
        if lam >= s:
            raise InvalidInput("global source must decay strictly below rate sqrt(mu)")
    return (_exp_integral(alpha, -s) + _exp_integral(alpha, s, math.inf)).scale(-1.0 / (2.0 * s))


def solve_damped_mode(tau: float, s: RadialProfile) -> RadialProfile:
    """y'' + tau y' = s with y(0) = y'(0) = 0, in closed form.

    This is the eigenvalue-zero (finite-sector) equation of the
    tau-modified gauge problem.  A NaN or infinite tau raises InvalidInput.
    """
    if not math.isfinite(tau):
        raise InvalidInput(f"tau must be finite, got {tau!r}")
    return _exp_integral(_exp_integral(s, -tau), 0.0)


@dataclass(frozen=True)
class MixedModeSolution:
    """Solution of the coupled mixed-pair system for one eigenvalue.

    ``k`` multiplies the tangential-gradient leg, ``l`` the radial leg:
    RadialProfiles for a global source, PiecewiseProfiles for a windowed
    one.  ``state(r)`` evaluates the full (k, k', l, l') vector.
    """

    mu: float
    k: RadialProfile | PiecewiseProfile
    l: RadialProfile | PiecewiseProfile

    def __iter__(self):
        # supports unpacking as (k, l)
        return iter((self.k, self.l))

    def state(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        return np.stack([prof.evaluate(r) for prof in
                         (self.k, self.k.derivative(), self.l, self.l.derivative())])

    def residual(self, beta, gamma, r) -> float:
        """Max-norm residual of the two second-order equations on a grid."""
        r = np.asarray(r, dtype=float)
        kp, lp = self.k.derivative(), self.l.derivative()
        res1 = (kp.derivative().evaluate(r) - 2.0 * self.mu * self.k.evaluate(r)
                + lp.evaluate(r) - beta.evaluate(r))
        res2 = (lp.derivative().evaluate(r) - 0.5 * self.mu * (kp.evaluate(r) + self.l.evaluate(r))
                - gamma.evaluate(r))
        return float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))


def _vop_block(q_tilde_1, q_tilde_2, sigma, upper=None):
    """Closed-form variation-of-parameters integral for one Jordan block.

    Computes ``int e^{sigma (t - s)} [q1(s) + (t - s) q2(s)] ds`` and
    ``int e^{sigma (t - s)} q2(s) ds``, over [0, t] when ``upper`` is None
    and over [t, upper] otherwise, returning the pair (y1, y2) as profiles
    in t.  The block's equations y2' = sigma y2 + q2 and
    y1' = sigma y1 + y2 + q1 chain: y1 integrates q1 + y2 over [0, t], or
    q1 - y2 over [t, upper] (that y2 carries the opposite sign).
    """
    y2 = _exp_integral(q_tilde_2, sigma, upper)
    y1 = _exp_integral(q_tilde_1 + y2 if upper is None else q_tilde_1 - y2, sigma, upper)
    return y1, y2


def _mixed_profiles(mu, beta, gamma, hi):
    """k and l, rows 0 and 2 of the state, for x' = A x + (0, beta, 0, gamma)
    with the source on [0, hi] (hi = inf for a global source).

    In the basis V, decay at both ends fixes the split: decaying-block
    coefficients integrate up from 0, growing-block coefficients down from
    ``hi``.  For a finite ``hi`` the profiles are piecewise, and beyond the
    window only the decaying block survives: its coefficients
    c = int_0^hi e^{-J_- s} (qt2, qt3) ds weight columns 2 and 3 of
    ``pair_columns``, so no growing basis term ever enters the tail piece.
    """
    s = math.sqrt(mu)
    V = v_matrix(mu)
    Vinv = v_inverse(mu)
    # components of V^-1 q with q = (0, beta, 0, gamma)
    qt = [beta.scale(Vinv[i, 1]) + gamma.scale(Vinv[i, 3]) for i in range(4)]
    y1m, y2m = _vop_block(qt[2], qt[3], -s)
    y1p, y2p = _vop_block(qt[0], qt[1], +s, upper=hi)
    body = [
        y1m.scale(V[i, 2]) + y2m.scale(V[i, 3]) - (y1p.scale(V[i, 0]) + y2p.scale(V[i, 1]))
        for i in (0, 2)
    ]
    if hi == math.inf:
        return body
    c2 = (
        qt[2].mul_monomial(0, s).definite_integral(0.0, hi)
        - qt[3].mul_monomial(1, s).definite_integral(0.0, hi)
    )
    c3 = qt[3].mul_monomial(0, s).definite_integral(0.0, hi)
    _, _, col2, col3 = pair_columns(mu)
    tail = [a.scale(c2) + b.scale(c3) for a, b in zip(col2, col3)]
    return [PiecewiseProfile([(0.0, hi, b), (hi, math.inf, t)]) for b, t in zip(body, tail)]


def solve_mixed_mode(mu: float, beta, gamma, support=None) -> MixedModeSolution:
    """Decaying solution of the 4x4 system with source (0, beta, 0, gamma).

    Globally supported sources must have every rate strictly below sqrt(mu)
    (and above -infinity; sub-exponential growth is rejected); k and l are
    then RadialProfiles.  With ``support=(0, hi)`` the source is windowed and
    k and l are piecewise; the tail piece beyond ``hi`` is assembled from the
    decaying Jordan block alone, so it contains no growing or secular term by
    construction, not by cancellation.
    """
    _check_source(beta)
    _check_source(gamma)
    hi = math.inf
    if support is not None:
        if not (isinstance(support, (tuple, list)) and len(support) == 2):
            raise InvalidInput(f"support window must be a pair (0, hi), got {support!r}")
        lo, hi = support
        if lo != 0.0 or not (isinstance(hi, numbers.Real) and 0.0 < hi < math.inf):
            raise InvalidInput(
                f"support window must be [0, hi] with 0 < hi < inf, got {support!r}")
    _check_mu(mu)
    if mu == 0.0:
        # the mu = 0 pair never carries a source in this pipeline (harmonic
        # cross-section data is routed to the finite-dimensional sector)
        raise InvalidInput("solve_mixed_mode needs mu > 0; mu = 0 belongs to the finite sector")

    if support is None and any(lam >= math.sqrt(mu) for _, _, lam in beta.terms + gamma.terms):
        raise InvalidInput("global mixed source must decay strictly below rate sqrt(mu)")
    k, l = _mixed_profiles(mu, beta, gamma, hi)
    return MixedModeSolution(mu=mu, k=k, l=l)
