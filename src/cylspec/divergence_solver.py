"""Gauge construction: solve the divergence equation mode by mode.

Given a symmetric 2-tensor source h, the task is a one-form X whose
metric Lie derivative has the same (possibly tau-perturbed) divergence
as h.  The cross-section splits the problem into a finite sector carried
by the harmonic data (eigenvalue zero, second-order scalar ODEs solved
in closed form by ``solve_damped_mode``) and an infinite sector of
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
complement), harmonic legs by the coordinate index.  Those indices are
positions in ``cross_section.modes_at`` slices, which is where the
modes behind the keys come from.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as fields_mod
from .cross_section import TorusCrossSection, modes_at
from .errors import InvalidInput, NonInvertibleSector, ResonantTau
from .fields import TensorField
from .mode_ode import RadialProfile, solve_damped_mode, solve_mixed_mode, solve_scalar_mode

RESONANCE_TOL = 1e-6
DEFAULT_TAU = 0.01


@dataclass(frozen=True)
class DivergenceConfig:
    """tau perturbs the divergence on the parallel radial directions."""

    tau: float = DEFAULT_TAU

    def __post_init__(self):
        check_resonance(self.tau)


# ---------------------------------------------------------------------------
# decomposition of a one-form along the spectrum
# ---------------------------------------------------------------------------


def decompose_one_form(w: TensorField) -> GaugeField:
    """Resolve a rank-1 field into per-mode radial profiles, carried by a
    GaugeField whose ``one_form`` gives w back.

    The modes come from ``modes_at``.  Every mode at a (freq, phase) has
    the scalar mode's amplitude, so each leg divides by it: the radial leg
    directly, the tangential-gradient leg after projecting onto omega, and
    each coclosed or harmonic leg after projecting onto the mode's unit
    polarization (its polarization over the amplitude)."""
    if w.rank != 1:
        raise InvalidInput("decompose_one_form needs a rank-1 field")
    cs = w.cs

    pair_terms: dict = {}
    coclosed_terms: dict = {}
    harmonic_terms: dict = {}
    radial_terms: list = []

    def push(store, coeff, p, lam):
        if coeff != 0.0:
            store.append((coeff, p, lam))

    for (freq, phase), powers, rates, coeffs in w.blocks():
        amp = float(modes_at(cs, "Scalar", freq, phase)[0].polarization)
        if any(freq):
            l_store = pair_terms.setdefault((freq, phase), ([], []))[1]
            # inverting the tangential-gradient leg: d_N of a sin mode lands on
            # cos with +omega, of a cos mode on sin with -omega
            grad_phase = "sin" if phase == "cos" else "cos"
            grad_sign = +1.0 if phase == "cos" else -1.0
            k_store = pair_terms.setdefault((freq, grad_phase), ([], []))[0]
            omega = cs.omega(freq)
            wnorm = float(np.linalg.norm(omega))
            what = omega / wnorm
            legs = [(coclosed_terms.setdefault((freq, phase, i), []), eta.polarization / amp)
                    for i, eta in enumerate(modes_at(cs, "CoclosedOneForm", freq, phase))]
        else:
            l_store, k_store = radial_terms, None
            legs = [(harmonic_terms.setdefault(i, []), eta.polarization / amp)
                    for i, eta in enumerate(modes_at(cs, "HarmonicOneForm", freq, phase))]
        for p, lam, C in zip(powers, rates, coeffs):
            tang = C[1:]
            push(l_store, float(C[0]) / amp, p, lam)
            if k_store is not None:
                push(k_store, grad_sign * float(tang @ what) / (amp * wnorm), p, lam)
            for store, unit in legs:
                push(store, float(tang @ unit) / amp, p, lam)

    pairs, coclosed, harmonic = {}, {}, {}
    for key, (b_terms, c_terms) in pair_terms.items():
        b, c = RadialProfile(tuple(b_terms)), RadialProfile(tuple(c_terms))
        if not (b.is_zero() and c.is_zero()):
            pairs[key] = (b, c)
    for store, terms_by_key in ((coclosed, coclosed_terms), (harmonic, harmonic_terms)):
        for key, terms in terms_by_key.items():
            prof = RadialProfile(tuple(terms))
            if not prof.is_zero():
                store[key] = prof
    return GaugeField(cs, pairs, coclosed, harmonic, RadialProfile(tuple(radial_terms)))


# ---------------------------------------------------------------------------
# the gauge field carrier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GaugeField:
    """A one-form expanded over the cross-section spectrum.

    ``pairs`` maps (freq, phase) to (k, l) in k d_N phi + l phi dr;
    ``coclosed`` and ``harmonic`` hold the 1-form-mode coefficients and
    ``radial`` the coefficient of phi0 dr; every component is a
    ``RadialProfile``.  Pair and coclosed components lie in the infinite
    sector, harmonic and radial ones in the finite sector.
    ``decompose_one_form`` returns one too, holding the per-mode profiles
    of a given one-form.
    """

    cs: TorusCrossSection
    pairs: dict
    coclosed: dict = dc_field(default_factory=dict)
    harmonic: dict = dc_field(default_factory=dict)
    radial: RadialProfile = dc_field(default_factory=RadialProfile.zero)

    @property
    def one_form(self) -> TensorField:
        cs = self.cs
        zero = (0,) * cs.dim
        w = fields_mod.FieldBuilder(cs, 1)
        for (freq, phase), (k, l) in self.pairs.items():
            w.pair(modes_at(cs, "Scalar", freq, phase)[0], k, l)
        for (freq, phase, idx), f in self.coclosed.items():
            w.mode(modes_at(cs, "CoclosedOneForm", freq, phase)[idx], f)
        for idx, f in self.harmonic.items():
            w.mode(modes_at(cs, "HarmonicOneForm", zero, "cos")[idx], f)
        return w.radial(modes_at(cs, "Scalar", zero, "cos")[0], self.radial).field()

    def is_zero(self) -> bool:
        return not (self.pairs or self.coclosed or self.harmonic) and self.radial.is_zero()

    def worst_growth(self) -> str:
        """The fastest growth over every term of every component:
        "exponential" (a positive rate), "polynomial" (rate 0 and a positive
        power), "bounded" (rate 0, power 0) or else "decaying"."""
        profiles = [*(prof for pair in self.pairs.values() for prof in pair),
                    *self.coclosed.values(), *self.harmonic.values(), self.radial]
        terms = [(p, lam) for prof in profiles for _c, p, lam in prof.terms]
        if any(lam > 0.0 for _p, lam in terms):
            return "exponential"
        if any(lam == 0.0 and p > 0 for p, lam in terms):
            return "polynomial"
        return "bounded" if any(lam == 0.0 for _p, lam in terms) else "decaying"


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
    rows = []
    for (freq, phase), (p, lam), C in h.terms():
        if any(freq):
            continue
        row = 0.5 * (C[0, :] + C[:, 0])
        if np.any(row != 0.0):
            rows.append(((freq, phase), (p, lam), row))
    return TensorField(h.cs, 1, rows)


def modified_divergence(h: TensorField, tau: float = 0.0) -> TensorField:
    """delta h, minus tau times the radial contraction on the span of the
    parallel tensors dr(x)dr and dr(x)eta."""
    if h.rank != 2:
        raise InvalidInput("modified_divergence needs a rank-2 field")
    out = fields_mod.divergence(h)
    if tau != 0.0:
        out = out - _parallel_radial_row(h).scale(tau)
    return out


def check_resonance(tau: float, eigenvalues=()) -> None:
    """The one tau check: InvalidInput unless 0 <= tau < inf (NaN fails),
    and ResonantTau when 4 tau^2 lies within RESONANCE_TOL of a positive
    eigenvalue, where the damped radial systems at that tau are singular."""
    if not 0.0 <= tau < math.inf:
        raise InvalidInput(f"tau must be finite and nonnegative, got {tau!r}")
    for mu in eigenvalues:
        if tau > 0.0 and mu > 0.0 and abs(4.0 * tau * tau - mu) <= RESONANCE_TOL:
            raise ResonantTau(
                f"4 tau^2 = {4.0 * tau * tau:.6g} collides with eigenvalue {mu:.6g}"
            )


def solve_gauge(source: TensorField, cfg: DivergenceConfig = DivergenceConfig()) -> GaugeField:
    """Produce X with delta_tau(L_X g0) = delta_tau(source), sector by sector."""
    if not isinstance(source, TensorField) or source.rank != 2:
        raise InvalidInput("solve_gauge needs a rank-2 source field")
    cs = source.cs
    tau = cfg.tau
    if tau > 0.0:
        check_resonance(tau, (cs.eigenvalue(freq) for freq, _phase in source.keys()))
    elif not _parallel_radial_row(source).is_zero():
        raise NonInvertibleSector(
            "source meets the parallel radial span whose preimages r dr and "
            "r eta are unbounded; pass tau > 0 to damp that sector"
        )

    w = modified_divergence(source, tau)
    parts = decompose_one_form(w)

    pairs: dict = {}
    for (freq, phase), (b, c) in parts.pairs.items():
        sol = solve_mixed_mode(cs.eigenvalue(freq), b.scale(-1.0), c.scale(-0.5))
        pairs[(freq, phase)] = (sol.k, sol.l)
    coclosed = {
        key: solve_scalar_mode(cs.eigenvalue(key[0]), a.scale(-1.0))
        for key, a in parts.coclosed.items()
    }
    harmonic = {idx: solve_damped_mode(tau, a.scale(-1.0)) for idx, a in parts.harmonic.items()}
    radial = RadialProfile.zero()
    if not parts.radial.is_zero():
        radial = solve_damped_mode(tau, parts.radial.scale(-0.5))
    return GaugeField(cs, pairs, coclosed, harmonic, radial)


def gauge_residual(source: TensorField, gauge: GaugeField, tau: float) -> TensorField:
    """delta_tau(L_X g0 - source); identically zero for a correct solve."""
    return modified_divergence(lie_derivative_metric(gauge) - source, tau)
