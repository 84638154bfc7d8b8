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
``MixedModeSolution``, the pair ``k`` and ``l`` (k' and l' are their
derivatives), RadialProfiles unless the source is windowed,
``support=(0, hi)``, which makes them PiecewiseProfiles.

``solve_batch`` solves one system for many modes at once: the sources come
as a ``ProfileTable`` (every mode's terms as columns), and each step is one
pass over a dense grid of (power, mode, rate) coefficients, on which the
RadialProfile merges of the per-mode chain become adds in the same order.
The per-mode solves call it with one mode.  Every solve runs through one
integrator, ``_exp_integral``, which keeps each term's rate, so a solution
carries exactly (``==``) the source rates and the homogeneous rates
(+-sqrt(mu), or 0 and -tau) and no others, with the chain's bits.  A source
rate within RATE_WINDOW of a homogeneous rate, but not on it, raises
ResonantRate.

Integrals over intervals [lo, hi], lo >= 0, have one closed form in the
confluent kernels psi_q(z) = int_0^1 t^q e^{z t} dt (``_psi``), a sum of
nonnegative terms for every rate, zero included, and its limit at hi = inf;
the solves' one antiderivative is the parts table of ``_exp_integral``.
"""

from __future__ import annotations

import functools
import math
import numbers
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, ResonantRate

__all__ = [
    "RadialProfile",
    "PiecewiseProfile",
    "FundamentalMatrixSet",
    "MixedModeSolution",
    "ProfileTable",
    "system_matrix",
    "fundamental_matrix_set",
    "v_matrix",
    "v_inverse",
    "pair_columns",
    "check_characteristic",
    "solve_scalar_mode",
    "solve_mixed_mode",
    "solve_damped_mode",
    "solve_batch",
]

# A rate lam with 0 < |lam - sigma| <= RATE_WINDOW * max(1, |sigma|) against
# a homogeneous rate sigma raises ResonantRate instead of dividing by the gap.
RATE_WINDOW = 1e-10

# Coefficients whose magnitude is exactly zero are dropped on construction;
# everything else is kept (pruning with a tolerance is always explicit).
_EXACT_ZERO = 0.0


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
    temporaries) may push the power higher, which is fine.  Every merge of
    terms runs through the constructor; only ``scale``, whose terms keep
    their keys, builds its result canonical without it.
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
        return RadialProfile(self.terms + other.terms)

    def __sub__(self, other: "RadialProfile") -> "RadialProfile":
        return self + other.scale(-1.0)

    def __neg__(self) -> "RadialProfile":
        return self.scale(-1.0)

    def scale(self, a: float) -> "RadialProfile":
        scaled = ((float(c * a), p, lam) for c, p, lam in self.terms)
        return RadialProfile._of(tuple(t for t in scaled if t[0] != _EXACT_ZERO))

    def mul_monomial(self, power: int = 0, rate: float = 0.0) -> "RadialProfile":
        """Multiply by r**power * exp(rate * r)."""
        return RadialProfile((c, p + power, lam + rate) for c, p, lam in self.terms)

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

    # -- queries ------------------------------------------------------------

    def evaluate(self, r) -> np.ndarray:
        r = np.asarray(r, dtype=float)
        out = np.zeros_like(r)
        for c, p, lam in self.terms:
            with np.errstate(over="ignore", under="ignore"):
                out = out + c * r**p * np.exp(lam * r)
        return out

    def definite_integral(self, a: float, b: float) -> float:
        """Integral over [a, b]; b may be math.inf if every term decays."""
        return float(self.interval_integrals([a], [b])[0])

    def interval_integrals(self, lo, hi) -> np.ndarray:
        """Integrals over the intervals [lo[i], hi[i]], lo[i] >= 0; hi[i] may
        be math.inf if every term decays (rate < 0), else InvalidInput.

        With h = hi - lo and r = lo + h t, each term integrates to
        int_lo^hi r^p e^{lam r} dr
            = e^{lam lo} sum_q C(p, q) lo^{p-q} h^{q+1} psi_q(lam h),
        psi_q(z) = int_0^1 t^q e^{z t} dt (``_psi``), and h^{q+1} psi_q(lam h)
        tends to q! / (-lam)^{q+1} as h -> inf.  For lo >= 0 every summand is
        nonnegative, so nothing cancels: not on short intervals, not at small
        |lam|, and lam == 0 is no special case.  Each step is elementwise in
        the interval and the term sum runs per interval, so an interval's
        value does not depend on which others come with it.
        """
        lo = np.array(lo, dtype=float, ndmin=1)
        hi = np.array(hi, dtype=float, ndmin=1)
        if not self.terms:
            return np.zeros(lo.shape)
        coeffs, powers, rates = (np.array(col) for col in zip(*self.terms))
        infinite = hi.max(initial=0.0) == math.inf
        if infinite and not all(lam < 0.0 for _, _, lam in self.terms):
            raise InvalidInput("profile does not decay at +infinity")  # a NaN rate too
        h = hi - lo
        if infinite:
            at_inf = hi == math.inf
        p = powers[:, None]
        binom = np.ones(p.shape)  # C(p, q), exact in floats
        per_term = np.zeros((len(coeffs), len(lo)))
        with np.errstate(over="ignore", under="ignore", invalid="ignore"):
            for q, psi_q in enumerate(_psi(rates[:, None] * h, self.max_power)):
                hq = h ** (q + 1)
                if infinite:
                    hq = np.where(at_inf, float(math.factorial(q)), hq)
                    psi_q = np.where(at_inf, (-rates[:, None]) ** -(q + 1.0), psi_q)
                per_term += binom * lo ** np.maximum(p - q, 0) * hq * psi_q
                binom = binom * (p - q) / (q + 1)
            per_term *= np.exp(rates[:, None] * lo)
        # one contiguous row per interval: every row sums in the same order
        return np.ascontiguousarray((coeffs[:, None] * per_term).T).sum(axis=1)

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

    def derivative(self) -> "PiecewiseProfile":
        return PiecewiseProfile([(lo, hi, p.derivative()) for lo, hi, p in self.pieces])


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


def _jordan_basis(mu, s) -> tuple:
    """V and V^-1 as 4x4 nested lists of entries at mu and s = sqrt(mu),
    both Python floats or both arrays (one entry per mode).  V's columns are
    the eigenvector and Jordan partner at +s, then at -s; V^-1 is exact
    (verified against V @ V^-1 = I)."""
    a, b, c, t, w = 3.0 / (8.0 * s), 1.0 / (8.0 * s), -1.0 / (4.0 * s), s / 4.0, -2.0 * s
    return ([[1.0, 0.0, -1.0, 0.0],
             [s, 1.0, s, -1.0],
             [s, -3.0, s, 3.0],
             [mu, w, -mu, w]],
            [[0.5, a, b, 0.0],
             [t, 1.0 / 8.0, -1.0 / 8.0, c],
             [-0.5, a, b, 0.0],
             [t, -1.0 / 8.0, 1.0 / 8.0, c]])


def _jordan_basis_at(mu: float) -> tuple:
    _check_mu(mu)
    if mu == 0:
        raise InvalidInput("the Jordan basis needs mu > 0")
    return _jordan_basis(mu, math.sqrt(mu))


def v_matrix(mu: float) -> np.ndarray:
    """Columns: eigenvector and Jordan partner at +sqrt(mu), then at -sqrt(mu)."""
    return np.array(_jordan_basis_at(mu)[0])


def v_inverse(mu: float) -> np.ndarray:
    """Exact inverse of v_matrix."""
    return np.array(_jordan_basis_at(mu)[1])


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
    V, _ = _jordan_basis_at(mu)
    s = math.sqrt(mu)
    out = []
    for base, rate in ((0, s), (2, -s)):
        v, w = (V[0][base], V[2][base]), (V[0][base + 1], V[2][base + 1])
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
# closed-form solves, batched over modes
# ---------------------------------------------------------------------------


def _check_source(profile) -> None:
    if not isinstance(profile, RadialProfile):
        raise InvalidInput("source must be a RadialProfile")


def _check_mu(mu: float) -> None:
    """mu must be a finite eigenvalue >= 0; NaN fails both comparisons."""
    if not 0.0 <= mu < math.inf:
        raise InvalidInput(f"mu must be finite and >= 0, got {mu!r}")


class ProfileTable(NamedTuple):
    """The RadialProfiles of several modes as one term table: row i is
    coeff[i] r^power[i] e^{rate[i] r} of mode ``mode[i]``, rows sorted on
    (mode, power, rate), no key twice, no exact zero."""

    mode: np.ndarray
    power: np.ndarray
    rate: np.ndarray
    coeff: np.ndarray

    @classmethod
    def of(cls, profiles) -> "ProfileTable":
        """The table of a sequence of RadialProfiles, the i-th as mode i."""
        rows = [(m, p, lam, c) for m, prof in enumerate(profiles) for c, p, lam in prof.terms]
        mode, power, rate, coeff = zip(*rows) if rows else ((), (), (), ())
        return cls(np.array(mode, dtype=np.int64), np.array(power, dtype=np.int64),
                   np.array(rate, dtype=float), np.array(coeff, dtype=float))

    def scale(self, a) -> "ProfileTable":
        """Coefficients times a (a number, or one per row), exact zeros
        dropped, as ``RadialProfile.scale``."""
        coeff = self.coeff * a
        keep = coeff != 0.0
        return ProfileTable(self.mode[keep], self.power[keep], self.rate[keep], coeff[keep])

    def profiles(self, n_modes: int) -> list:
        """The RadialProfile of each mode 0 .. n_modes - 1."""
        cuts = self.mode.searchsorted(np.arange(n_modes + 1)).tolist()
        terms = list(zip(self.coeff.tolist(), self.power.tolist(), self.rate.tolist()))
        return [RadialProfile._of(tuple(terms[lo:hi])) for lo, hi in zip(cuts, cuts[1:])]


@functools.cache
def _falling_table(top: int) -> np.ndarray:
    """(-1)^j (p)_j = (-1)^j p! / (p - j)! as floats, for p, j < top."""
    out = np.array([[float((-1) ** j * math.perm(p, j)) for j in range(top)]
                    for p in range(top)])
    out.setflags(write=False)  # shared by every caller
    return out


def _grid(homogeneous, sources, top: int):
    """``lam`` (n, R), each mode's source and homogeneous rates once, sorted,
    padded with inf; each source as a (top, n, R) array of the coefficient
    of r^p e^{lam r} at [p, mode, column]; the columns the sources use; the
    column of each homogeneous rate."""
    n = len(homogeneous)
    mode = np.concatenate([t.mode for t in sources]
                          + [np.arange(n).repeat(homogeneous.shape[1])])
    rate = np.concatenate([t.rate for t in sources] + [homogeneous.ravel() + 0.0])
    order = np.lexsort((rate, mode))
    ms, rs = mode[order], rate[order]
    new = np.empty(len(order), dtype=bool)
    new[:1] = True
    new[1:] = (rs[1:] != rs[:-1]) | (ms[1:] != ms[:-1])
    uid = new.cumsum() - 1
    rank = uid - uid[ms.searchsorted(np.arange(n))][ms]
    lam = np.full((n, int(rank.max(initial=0)) + 1), np.inf)
    lam[ms, rank] = rs
    col = np.empty(len(order), dtype=np.int64)
    col[order] = rank
    grids, uses, at = [], np.zeros(lam.shape, dtype=bool), 0
    for t in sources:
        c = col[at:at + len(t.mode)]
        g = np.zeros((top,) + lam.shape)
        g[t.power, t.mode, c] = t.coeff
        uses[t.mode, c] = True
        grids.append(g)
        at += len(t.mode)
    return lam, grids, uses, col[at:].reshape(n, -1)


class _Sigma(NamedTuple):
    """An integral's data that depends on sigma and the rates lam alone, by
    column (block, rate): d = lam - sigma, sigma's own column, the
    near-resonant columns, the runs of one d in a block, the limits, and
    d^k, k = 1 .. len(pw), on the columns that may hold a term (Python
    float powers)."""

    d: np.ndarray
    at: np.ndarray
    window: np.ndarray
    new: np.ndarray
    group: np.ndarray  # run of each column, tiled once per row of pw
    block: np.ndarray
    upper: np.ndarray
    lower: np.ndarray
    finite: bool  # some block integrates to a finite upper limit
    sign: np.ndarray
    pw: np.ndarray


def _sigma(lam, sigma, upper, at, cand, top: int) -> _Sigma:
    B, R = lam.shape
    d = (lam - sigma[:, None]).ravel()
    at = np.arange(B) * R + at
    gap = np.abs(d)
    gap[at] = np.inf
    new = np.empty(B * R, dtype=bool)
    new[1:] = d[1:] != d[:-1]
    new[::R] = True
    cand = cand.ravel().copy()
    cand[at] = False
    cols = cand.nonzero()[0]
    pw = np.ones((top, B * R))
    pw[:, cols] = [[x ** k for x in d[cols].tolist()] for k in range(1, top + 1)]
    lower = np.isnan(upper)
    group = np.tile(new.cumsum() - 1, top)
    return _Sigma(d, at, gap <= (RATE_WINDOW * np.maximum(1.0, np.abs(sigma))).repeat(R), new,
                  group, new.nonzero()[0] // R, upper, lower, bool(np.isfinite(upper).any()),
                  np.where(lower, 1.0, -1.0).repeat(R), pw)


def _exp_integral(S, g: _Sigma):
    """e^{sigma r} int e^{-sigma x} f(x) dx for the profile f of every block
    b, f = sum S[p, b, r] r^p e^{lam[b, r] r}: over [0, r] where upper[b] is
    NaN, over [r, upper[b]] otherwise (inf allowed).  Returns the result and
    the mask of the near-resonant terms (None if none).

    With d = lam - sigma, each term keeps its rate, and the antiderivative
    of c r^p e^{d r} is one table parts[j, p, column]: c (-1)^j (p)_j /
    d^{j+1} at power p - j (d == 0: c / (p + 1) at power p + 1), summed
    along j into the profile, each j a contiguous block.  The constant at sigma is the antiderivative
    at 0 (its j = p parts, negated) or at upper (``_at_upper``; 0 at inf),
    its terms of one (power, d) summed first, then in sorted order, as
    RadialProfile sums.  A term with 0 < |d| <= RATE_WINDOW max(1, |sigma|)
    is near-resonant.  Only sigma's own column holds powers above
    len(g.pw); the last row of S is 0.
    """
    Q, B, R = S.shape
    S = S.reshape(Q, B * R)
    near = (S != 0.0) & g.window
    top = Q - 1  # the last row is 0: the secular terms move up one power
    sf, at = _falling_table(Q), g.at
    k = min(top, len(g.pw))
    parts = np.zeros((k, top, B * R))
    for j in range(k):
        np.divide(S[j:top] * sf[j:top, j, None], g.pw[j], out=parts[j, j:])
    parts[:, :, at] = 0.0
    # the power-0 parts (j = p), summed per run of one d in the order of p,
    # then per block in the order of d
    at_zero = parts.diagonal(axis1=0, axis2=1).T
    runs = np.bincount(g.group[:at_zero.size], at_zero.ravel(), minlength=len(g.block))
    const = np.where(g.lower, -np.bincount(g.block, runs, minlength=B), 0.0)
    parts[0][:, at] = secular = S[:top, at] / np.arange(1.0, Q)[:, None]
    out = np.zeros((Q, B * R))
    for j in range(k):
        out[:top - j] += parts[j, j:]
    out[1:, at] = secular
    if g.finite:
        const = np.where(np.isfinite(g.upper), _at_upper(parts, g), const)
    out *= g.sign
    out[0, at] = const
    return out.reshape(Q, B, R), near.reshape(Q, B, R) if near.any() else None


def _at_upper(parts, g: _Sigma):
    """The antiderivative at the shifted rates d evaluated at ``upper``: the
    parts, read in the order (p, then lam, then j), merged on (power, d),
    and c upper^q e^{d upper} summed per block in sorted (q, d) order."""
    parts = parts.transpose(1, 2, 0)
    top, N, k = parts.shape
    q = np.maximum(np.arange(top)[:, None, None] - np.arange(k), 0).repeat(N, axis=1)
    q[:, g.at, 0] = np.arange(1, top + 1)[:, None]  # sigma's own column, at p + 1
    G = len(g.block)
    F = np.bincount((q * G + g.group[:N, None]).ravel(), parts.ravel(), minlength=(top + 1) * G)
    at = g.upper[g.block]
    ups = np.array([at ** e for e in range(top + 1)]).ravel()
    terms = np.where(F != 0.0, F * ups * np.tile(np.exp(g.d[g.new] * at), top + 1), 0.0)
    return np.bincount(np.tile(g.block, top + 1), terms, minlength=len(g.upper))


def _resonances(near, lam, sigma, step) -> list:
    """(mode, step, ResonantRate) for the first near-resonant term, in term
    order, of each block; ``step(block)`` gives (mode, step)."""
    found = []
    if near is None:
        return found
    for b in near.any(axis=(0, 2)).nonzero()[0].tolist():
        r = int(np.argmax(near[:, b].ravel())) % lam.shape[1]
        lam_, sig = float(lam[b, r]), float(sigma[b])
        found.append((*step(b), ResonantRate(
            f"source rate {lam_!r} lies within {abs(lam_ - sig):.3g} of the homogeneous "
            f"rate {sig + 0.0!r}")))
    return found


def _growing(s, what, *sources) -> list:
    """(mode, 0, InvalidInput) for each mode with a source rate >= s."""
    bad = {m for t in sources for m in t.mode[t.rate >= s[t.mode]].tolist()}
    return [(m, 0, InvalidInput(f"{what} must decay strictly below rate sqrt(mu)"))
            for m in sorted(bad)]


def _profiles(X, lam) -> list:
    """The RadialProfile of each mode of a grid X[p, mode, column] on rates
    lam[mode, column]."""
    m, q, r = X.transpose(1, 0, 2).nonzero()
    return ProfileTable(m, q, lam[m, r], X[q, m, r]).profiles(X.shape[1])


def _blocks(x, y):
    """Per-mode arrays, or grids [p, mode, column], interleaved onto blocks
    2m (x) and 2m + 1 (y)."""
    out = np.empty(x.shape[:-1] + (2,) + x.shape[-1:] if x.ndim > 1 else (len(x), 2))
    if x.ndim == 1:
        out[:, 0], out[:, 1] = x, y
        return out.ravel()
    out[:, :, 0], out[:, :, 1] = x, y
    return out.reshape(x.shape[0], -1, x.shape[2])


def _scalar(mu, alpha: ProfileTable):
    """f'' - mu f = alpha, mu > 0: block 2m over [0, r] at -s, block 2m+1
    over [r, inf] at +s, summed and scaled by -1 / (2 s)."""
    s = np.sqrt(mu)
    top = int(alpha.power.max(initial=0)) + 1
    lam, (a,), uses, at = _grid(np.column_stack([-s, s]), [alpha], top + 1)
    errors = _growing(s, "global source", alpha)
    sigma, lam2 = _blocks(-s, s), lam.repeat(2, axis=0)
    y, near = _exp_integral(_blocks(a, a), _sigma(lam2, sigma, _blocks(s * np.nan, s * np.inf),
                                                  at.ravel(), uses.repeat(2, axis=0), top))
    errors += _resonances(near, lam2, sigma, lambda b: (b >> 1, 1 + (b & 1)))
    y = y.reshape(len(y), len(s), 2, -1)
    return (_profiles((y[:, :, 0] + y[:, :, 1]) * (-1.0 / (2.0 * s))[:, None], lam),), errors


def _damped(tau, src: ProfileTable):
    """y'' + tau y' = s with y(0) = y'(0) = 0: [0, r] at -tau, then at 0."""
    zero, top = 0.0 * tau, int(src.power.max(initial=0)) + 1
    lam, (y,), uses, at = _grid(np.column_stack([-tau, zero]), [src], top + 2)
    errors, upper = [], tau * np.nan
    for step, sigma in enumerate((-tau, zero), 1):
        y, near = _exp_integral(y, _sigma(lam, sigma, upper, at[:, step - 1], uses, top))
        errors += _resonances(near, lam, sigma, lambda b, at=step: (b, at))
        uses[np.arange(len(tau)), at[:, 0]] = True  # the constant at -tau
        top += 1
    return (_profiles(y, lam),), errors


def _mixed(mu, beta: ProfileTable, gamma: ProfileTable, hi):
    """The 4x4 pair system in the basis V (``_jordan_basis``): block 2m is the
    growing Jordan block at +s, integrated down from hi (inf for a global
    source), block 2m+1 the decaying one at -s, integrated up from 0.  Each
    chain y2' = sigma y2 + qt2, y1' = sigma y1 + y2 + qt1 is two integrals
    (y1 of qt1 - y2 on [r, hi]); k and l are rows 0 and 2 of V y.  A finite
    hi's tail lies in the decaying columns of ``pair_columns``, weighted by
    int_0^hi e^{-J_- x} (qt2, qt3) dx, mode by mode."""
    s = np.sqrt(mu)
    n, top = len(s), int(max(beta.power.max(initial=0), gamma.power.max(initial=0))) + 1
    lam, (b, g), uses, at = _grid(np.column_stack([s, -s]), [beta, gamma], top + 2)
    errors = _growing(s, "global mixed source", beta, gamma) if hi == math.inf else []
    V, Vinv = _jordan_basis(mu[:, None], s[:, None])
    qt = [b * row[1] + g * row[3] for row in Vinv]
    sigma, lam2 = _blocks(s, -s), lam.repeat(2, axis=0)
    geo = _sigma(lam2, sigma, _blocks(s * 0.0 + hi, s * np.nan), at.ravel(),
                 uses.repeat(2, axis=0), top)
    step = lambda blk, first: (blk >> 1, (3, 1)[blk & 1] + first)  # noqa: E731
    y2, near = _exp_integral(_blocks(qt[1], qt[3]), geo)
    errors += _resonances(near, lam2, sigma, lambda blk: step(blk, 0))
    y2 = y2.reshape(top + 2, n, 2, -1)
    y1, near = _exp_integral(_blocks(qt[0] - y2[:, :, 0], qt[2] + y2[:, :, 1]), geo)
    errors += _resonances(near, lam2, sigma, lambda blk: step(blk, 1))
    if errors:
        return None, errors
    y1 = y1.reshape(top + 2, n, 2, -1)
    # k and l, rows 0 and 2 of V y, on blocks 2m and 2m + 1
    body = _blocks(*((y1[:, :, 1] * row[2] + y2[:, :, 1] * row[3])
                     - (y1[:, :, 0] * row[0] + y2[:, :, 0] * row[1]) for row in (V[0], V[2])))
    if hi == math.inf:
        return (_profiles(body, lam2),), []
    # the tail: c2 column 2 + c3 column 3 of pair_columns, c = int_0^hi e^{-J_- x} qt dx
    tails = []
    for m, (q2, q3) in enumerate(zip(_profiles(qt[2], lam), _profiles(qt[3], lam))):
        sm = float(s[m])
        c2 = (q2.mul_monomial(0, sm).definite_integral(0.0, hi)
              - q3.mul_monomial(1, sm).definite_integral(0.0, hi))
        c3 = q3.mul_monomial(0, sm).definite_integral(0.0, hi)
        _, _, col2, col3 = pair_columns(float(mu[m]))
        tails += [a.scale(c2) + b.scale(c3) for a, b in zip(col2, col3)]
    return (_profiles(body, lam2), tails), []


def _window(support) -> float:
    """hi of a support window (0, hi), 0 < hi < inf; inf for None."""
    if support is None:
        return math.inf
    if not (isinstance(support, (tuple, list)) and len(support) == 2):
        raise InvalidInput(f"support window must be a pair (0, hi), got {support!r}")
    lo, hi = support
    if lo != 0.0 or not (isinstance(hi, numbers.Real) and 0.0 < hi < math.inf):
        raise InvalidInput(f"support window must be [0, hi] with 0 < hi < inf, got {support!r}")
    return hi


# each system's batched solve and its number of source tables
_SYSTEMS = {"scalar": (_scalar, 1), "damped": (_damped, 1), "mixed": (_mixed, 2)}


def solve_batch(system: str, params, *sources: ProfileTable, support=None, label=None) -> list:
    """The closed-form solves of one system for every mode of its source
    tables at once: "scalar" (f'' - mu f = alpha, mu > 0), "damped"
    (y'' + tau y' = s, y(0) = y'(0) = 0) or "mixed" (the pair system,
    sources beta and gamma); ``params`` holds each mode's mu or tau.
    Returns each mode's RadialProfile, or for "mixed" its (k, l) pair,
    PiecewiseProfiles under ``support=(0, hi)``.  Of the failures, the one a
    mode-by-mode solve meets first is raised, prefixed by ``label(mode)``.
    An unknown system, a wrong number of source tables or a row naming no
    mode of ``params`` raises InvalidInput.
    """
    solve, n_sources = _SYSTEMS.get(system, (None, -1))
    if len(sources) != n_sources:
        raise InvalidInput(f"solve_batch takes 'scalar' or 'damped' and one source table, or "
                           f"'mixed' and two; got {system!r} and {len(sources)}")
    params = np.asarray(params, dtype=float).reshape(-1)
    n = len(params)
    for t in sources:  # rows are sorted on mode
        if len(t.mode) and not 0 <= t.mode[0] <= t.mode[-1] < n:
            raise InvalidInput(f"source rows name modes {t.mode[0]} .. {t.mode[-1]}, "
                               f"but there are {n} parameters")
    hi = _window(support)
    damped = system == "damped"
    if not (np.isfinite(params) & (damped | (params > 0.0))).all():
        for x in params.tolist():
            if damped and not math.isfinite(x):
                raise InvalidInput(f"tau must be finite, got {x!r}")
            if not damped:
                _check_mu(x)
                if x == 0.0:
                    raise InvalidInput(f"the {system} system needs mu > 0; mu = 0 belongs to "
                                       "the finite sector")
    with np.errstate(over="ignore", under="ignore", divide="ignore", invalid="ignore"):
        tables, errors = solve(params, *sources, *([hi] if system == "mixed" else []))
    if errors:
        mode, _, err = min(errors, key=lambda e: e[:2])
        raise err if label is None else type(err)(f"{label(mode)}: {err}")
    body = tables[0]
    if system != "mixed":
        return body
    if hi < math.inf:
        body = [PiecewiseProfile([(0.0, hi, b), (hi, math.inf, t)])
                for b, t in zip(body, tables[1])]
    return list(zip(body[0::2], body[1::2]))


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
    if mu == 0.0:
        # f'' = alpha with zero data at r = 0 is the damped equation at tau = 0
        return solve_damped_mode(0.0, alpha)
    return solve_batch("scalar", [mu], ProfileTable.of([alpha]))[0]


def solve_damped_mode(tau: float, s: RadialProfile) -> RadialProfile:
    """y'' + tau y' = s with y(0) = y'(0) = 0, in closed form.

    This is the eigenvalue-zero (finite-sector) equation of the
    tau-modified gauge problem.  A NaN or infinite tau raises InvalidInput.
    """
    return solve_batch("damped", [tau], ProfileTable.of([s]))[0]


class MixedModeSolution(NamedTuple):
    """Solution of the coupled mixed-pair system for one eigenvalue.

    ``k`` multiplies the tangential-gradient leg, ``l`` the radial leg:
    RadialProfiles for a global source, PiecewiseProfiles for a windowed
    one.  It unpacks as (k, l).
    """

    k: RadialProfile | PiecewiseProfile
    l: RadialProfile | PiecewiseProfile


def solve_mixed_mode(mu: float, beta, gamma, support=None) -> MixedModeSolution:
    """Decaying solution of the 4x4 system with source (0, beta, 0, gamma).

    Globally supported sources must have every rate strictly below sqrt(mu)
    (and above -infinity; sub-exponential growth is rejected); k and l are
    then RadialProfiles.  With ``support=(0, hi)`` the source is windowed and
    k and l are piecewise; the tail piece beyond ``hi`` is assembled from the
    decaying Jordan block alone, so it contains no growing or secular term by
    construction, not by cancellation.  mu = 0 is refused: that pair never
    carries a source in this pipeline (harmonic cross-section data is routed
    to the finite-dimensional sector).
    """
    _check_source(beta)
    _check_source(gamma)
    (k, l), = solve_batch("mixed", [mu], ProfileTable.of([beta]), ProfileTable.of([gamma]),
                          support=support)
    return MixedModeSolution(k, l)
