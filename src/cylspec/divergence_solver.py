"""Gauge construction: solve the divergence equation mode by mode.

Given a symmetric 2-tensor source h, the task is a one-form X whose
metric Lie derivative has the same (possibly tau-perturbed) divergence
as h.  The cross-section splits the problem into a finite sector carried
by the harmonic data (eigenvalue zero, second-order scalar ODEs solved
in closed form by ``_solve_damped``) and an infinite sector of
positive-eigenvalue modes (handled by the closed-form mode solvers).

The tau term damps the parallel radial directions dr(x)dr and
dr(x)eta + eta(x)dr: without it those directions are generated only by
the unbounded one-forms r dr and r eta, and the solver refuses sources
that meet them (NonInvertibleSector).

Conventions: L_X g0 is the honest Lie derivative (d_i X_j + d_j X_i),
so the radial contraction of L_X g0 for X = eta + kappa dr is
eta' + 2 kappa' dr + d_N kappa.  Solutions in the finite sector pin zero
value and slope at r = 0; that choice is a normalization, not part of
the equation.

Component dictionaries are keyed by plain tuples rather than Mode
objects (whose polarization array is unhashable): scalar pairs by
(freq, phase), coclosed legs by (freq, phase, index into the tangent
complement), harmonic legs by the coordinate index.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as fields_mod
from .cross_section import Mode, TorusCrossSection, tangent_complement
from .errors import InvalidInput, NonInvertibleSector, ResonantTau
from .fields import TensorField
from .mode_ode import (
    PiecewiseProfile,
    RadialProfile,
    _restore_rates,
    solve_mixed_mode,
    solve_scalar_mode,
)

RESONANCE_TOL = 1e-6
DEFAULT_TAU = 0.01

_GROWTH_ORDER = {"decaying": 0, "bounded": 1, "polynomial": 2, "exponential": 3}


@dataclass(frozen=True)
class DivergenceConfig:
    """tau perturbs the divergence on the parallel radial directions.  The
    finite (eigenvalue-zero) sector can be switched off for callers that
    handle harmonic data separately."""

    tau: float = DEFAULT_TAU
    solve_finite_sector: bool = True

    def __post_init__(self):
        if self.tau < 0.0:
            raise InvalidInput("tau must be nonnegative")


# ---------------------------------------------------------------------------
# rebuilding modes from dictionary keys
# ---------------------------------------------------------------------------


def _scalar_mode(cs: TorusCrossSection, freq, phase: str) -> Mode:
    amp = math.sqrt(2.0 / cs.volume) if any(freq) else 1.0 / math.sqrt(cs.volume)
    omega = tuple(float(w) for w in cs.omega(freq))
    return Mode("Scalar", tuple(freq), cs.eigenvalue(freq), np.array(amp), phase, omega)


def _coclosed_mode(cs: TorusCrossSection, freq, phase: str, idx: int) -> Mode:
    amp = math.sqrt(2.0 / cs.volume)
    omega = cs.omega(freq)
    pol = tangent_complement(omega)[idx]
    return Mode(
        "CoclosedOneForm", tuple(freq), cs.eigenvalue(freq), amp * pol, phase,
        tuple(float(w) for w in omega),
    )


def _harmonic_mode(cs: TorusCrossSection, idx: int) -> Mode:
    amp0 = 1.0 / math.sqrt(cs.volume)
    zero = (0,) * cs.dim
    return Mode(
        "HarmonicOneForm", zero, 0.0, amp0 * np.eye(cs.dim)[idx], "cos",
        (0.0,) * cs.dim,
    )


def _constant_mode(cs: TorusCrossSection) -> Mode:
    return _scalar_mode(cs, (0,) * cs.dim, "cos")


# ---------------------------------------------------------------------------
# decomposition of a one-form along the spectrum
# ---------------------------------------------------------------------------


@dataclass
class OneFormModes:
    """A one-form resolved into per-mode radial profiles.

    ``pair`` maps (freq, phase) of a scalar mode phi to the profiles
    (b, c) in b d_N phi + c phi dr; ``coclosed`` maps (freq, phase, i) to
    the coefficient of the i-th perpendicular polarization; ``harmonic``
    maps the coordinate index to the coefficient of the constant 1-form;
    ``radial`` is the coefficient of phi0 dr over the constant scalar.
    """

    pair: dict = dc_field(default_factory=dict)
    coclosed: dict = dc_field(default_factory=dict)
    harmonic: dict = dc_field(default_factory=dict)
    radial: RadialProfile = dc_field(default_factory=RadialProfile.zero)

    def is_zero(self) -> bool:
        return not (self.pair or self.coclosed or self.harmonic) and self.radial.is_zero()


def decompose_one_form(w: TensorField) -> OneFormModes:
    """Resolve a rank-1 field into per-mode radial source profiles."""
    if w.rank != 1:
        raise InvalidInput("decompose_one_form needs a rank-1 field")
    cs = w.cs
    amp0 = 1.0 / math.sqrt(cs.volume)
    amp1 = math.sqrt(2.0 / cs.volume)

    pair_terms: dict = {}
    coclosed_terms: dict = {}
    harmonic_terms: dict = {}
    radial_terms: list = []

    def push(store, coeff, p, lam):
        if coeff != 0.0:
            store.append((coeff, p, lam))

    for (freq, phase), profs in w.data.items():
        if not any(freq):
            for (p, lam), C in profs.items():
                push(radial_terms, float(C[0]) / amp0, p, lam)
                for i in range(cs.dim):
                    push(harmonic_terms.setdefault(i, []), float(C[1 + i]) / amp0, p, lam)
            continue
        omega = cs.omega(freq)
        wnorm = float(np.linalg.norm(omega))
        what = omega / wnorm
        perp = tangent_complement(omega)
        # inverting the tangential-gradient leg: d_N of a sin mode lands on
        # cos with +omega, of a cos mode on sin with -omega
        grad_phase = "sin" if phase == "cos" else "cos"
        grad_sign = +1.0 if phase == "cos" else -1.0
        for (p, lam), C in profs.items():
            tang = np.asarray(C[1:], dtype=float)
            push(pair_terms.setdefault((freq, phase), ([], []))[1], float(C[0]) / amp1, p, lam)
            push(
                pair_terms.setdefault((freq, grad_phase), ([], []))[0],
                grad_sign * float(tang @ what) / (amp1 * wnorm), p, lam,
            )
            for i, u in enumerate(perp):
                push(
                    coclosed_terms.setdefault((freq, phase, i), []),
                    float(tang @ u) / amp1, p, lam,
                )

    out = OneFormModes(radial=RadialProfile(tuple(radial_terms)))
    for key, (b_terms, c_terms) in pair_terms.items():
        b, c = RadialProfile(tuple(b_terms)), RadialProfile(tuple(c_terms))
        if not (b.is_zero() and c.is_zero()):
            out.pair[key] = (b, c)
    for key, terms in coclosed_terms.items():
        prof = RadialProfile(tuple(terms))
        if not prof.is_zero():
            out.coclosed[key] = prof
    for key, terms in harmonic_terms.items():
        prof = RadialProfile(tuple(terms))
        if not prof.is_zero():
            out.harmonic[key] = prof
    return out


# ---------------------------------------------------------------------------
# the gauge field carrier
# ---------------------------------------------------------------------------


def _plain(profile) -> RadialProfile:
    if isinstance(profile, RadialProfile):
        return profile
    if isinstance(profile, PiecewiseProfile):
        return profile.single_profile()
    raise InvalidInput(f"cannot use {type(profile).__name__} as a radial profile")


def _growth_class(*profiles) -> str:
    rate_tol = 1e-12
    worst = "decaying"
    for prof in profiles:
        for _c, p, lam in _plain(prof).terms:
            if lam > rate_tol:
                cls = "exponential"
            elif abs(lam) <= rate_tol:
                cls = "polynomial" if p > 0 else "bounded"
            else:
                cls = "decaying"
            if _GROWTH_ORDER[cls] > _GROWTH_ORDER[worst]:
                worst = cls
    return worst


@dataclass(frozen=True)
class GaugeField:
    """A one-form expanded over the cross-section spectrum.

    ``pairs`` maps (freq, phase) to (k, l) in k d_N phi + l phi dr;
    ``coclosed`` and ``harmonic`` hold the 1-form-mode coefficients and
    ``radial`` the coefficient of phi0 dr.  ``sectors`` and ``growth``
    classify every component under namespaced keys such as
    ("pair", freq, phase) or ("harmonic", i).
    """

    cs: TorusCrossSection
    pairs: dict
    coclosed: dict
    harmonic: dict
    radial: RadialProfile
    sectors: dict
    growth: dict

    @property
    def one_form(self) -> TensorField:
        X = TensorField.zero(self.cs, 1)
        for (freq, phase), (k, l) in self.pairs.items():
            mode = _scalar_mode(self.cs, freq, phase)
            X = X + fields_mod.pair_one_form(self.cs, mode, _plain(k), _plain(l))
        for (freq, phase, idx), f in self.coclosed.items():
            mode = _coclosed_mode(self.cs, freq, phase, idx)
            X = X + fields_mod.from_mode_profile(self.cs, mode, _plain(f))
        for idx, f in self.harmonic.items():
            mode = _harmonic_mode(self.cs, idx)
            X = X + fields_mod.from_mode_profile(self.cs, mode, _plain(f))
        if not self.radial.is_zero():
            X = X + fields_mod.radial_one_form(self.cs, _constant_mode(self.cs), self.radial)
        return X

    def is_zero(self) -> bool:
        return not (self.pairs or self.coclosed or self.harmonic) and self.radial.is_zero()

    def worst_growth(self) -> str:
        worst = "decaying"
        for cls in self.growth.values():
            if _GROWTH_ORDER[cls] > _GROWTH_ORDER[worst]:
                worst = cls
        return worst


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def lie_derivative_metric(X) -> TensorField:
    """The metric Lie derivative of (the vector field dual to) X."""
    w = X.one_form if isinstance(X, GaugeField) else X
    if not isinstance(w, TensorField) or w.rank != 1:
        raise InvalidInput("lie_derivative_metric needs a one-form")
    return fields_mod.sym_grad(w)


def _parallel_radial_row(h: TensorField) -> TensorField:
    """Radial contraction of the parallel part of h: the symmetrized first
    row of every frequency-zero coefficient tensor, as a one-form."""
    out = TensorField(h.cs, 1)
    for (freq, phase), profs in h.data.items():
        if any(freq):
            continue
        for (p, lam), C in profs.items():
            C = np.asarray(C)
            row = 0.5 * (C[0, :] + C[:, 0])
            if np.any(row != 0.0):
                out._accumulate((freq, phase), (p, lam), row)
    return out


def modified_divergence(h: TensorField, tau: float = 0.0) -> TensorField:
    """delta h, minus tau times the radial contraction on the span of the
    parallel tensors dr(x)dr and dr(x)eta."""
    if h.rank != 2:
        raise InvalidInput("modified_divergence needs a rank-2 field")
    out = fields_mod.divergence(h)
    if tau != 0.0:
        out = out - _parallel_radial_row(h).scale(tau)
    return out


def _solve_damped(tau: float, s: RadialProfile) -> RadialProfile:
    """y'' + tau y' = s with y(0) = y'(0) = 0, in closed form."""
    if tau == 0.0:
        dy = s.antiderivative()
        dy = dy - RadialProfile.constant(dy.value_at_zero())
    else:
        grow = s.mul_monomial(0, tau).antiderivative()
        grow = grow - RadialProfile.constant(grow.value_at_zero())
        anchors = [0.0, -tau] + [lam for _, _, lam in s.terms]
        dy = _restore_rates(grow.mul_monomial(0, -tau), anchors)
    y = dy.antiderivative()
    return y - RadialProfile.constant(y.value_at_zero())


def solve_gauge(source: TensorField, cfg: DivergenceConfig = DivergenceConfig()) -> GaugeField:
    """Produce X with delta_tau(L_X g0) = delta_tau(source), sector by sector."""
    if not isinstance(source, TensorField) or source.rank != 2:
        raise InvalidInput("solve_gauge needs a rank-2 source field")
    cs = source.cs
    tau = cfg.tau
    if tau > 0.0:
        for freq, _phase in source.data:
            mu = cs.eigenvalue(freq)
            if mu > 0.0 and abs(4.0 * tau * tau - mu) <= RESONANCE_TOL:
                raise ResonantTau(
                    f"4 tau^2 = {4.0 * tau * tau:.6g} collides with eigenvalue {mu:.6g}"
                )
    elif not _parallel_radial_row(source).is_zero():
        raise NonInvertibleSector(
            "source meets the parallel radial span whose preimages r dr and "
            "r eta are unbounded; pass tau > 0 to damp that sector"
        )

    w = modified_divergence(source, tau)
    parts = decompose_one_form(w)

    pairs: dict = {}
    coclosed: dict = {}
    harmonic: dict = {}
    radial = RadialProfile.zero()
    sectors: dict = {}
    growth: dict = {}

    for (freq, phase), (b, c) in parts.pair.items():
        mu = cs.eigenvalue(freq)
        sol = solve_mixed_mode(mu, b.scale(-1.0), c.scale(-0.5))
        k, l = sol.k.single_profile(), sol.l.single_profile()
        pairs[(freq, phase)] = (k, l)
        sectors[("pair", freq, phase)] = "infinite"
        growth[("pair", freq, phase)] = _growth_class(k, l)

    for (freq, phase, idx), a in parts.coclosed.items():
        f = solve_scalar_mode(cs.eigenvalue(freq), a.scale(-1.0)).single_profile()
        coclosed[(freq, phase, idx)] = f
        sectors[("coclosed", freq, phase, idx)] = "infinite"
        growth[("coclosed", freq, phase, idx)] = _growth_class(f)

    if cfg.solve_finite_sector:
        for idx, a in parts.harmonic.items():
            f = _solve_damped(tau, a.scale(-1.0))
            harmonic[idx] = f
            sectors[("harmonic", idx)] = "finite"
            growth[("harmonic", idx)] = _growth_class(f)
        if not parts.radial.is_zero():
            radial = _solve_damped(tau, parts.radial.scale(-0.5))
            sectors[("radial",)] = "finite"
            growth[("radial",)] = _growth_class(radial)

    return GaugeField(cs, pairs, coclosed, harmonic, radial, sectors, growth)


def gauge_residual(source: TensorField, gauge: GaugeField, tau: float) -> TensorField:
    """delta_tau(L_X g0 - source); identically zero for a correct solve."""
    return modified_divergence(lie_derivative_metric(gauge) - source, tau)
