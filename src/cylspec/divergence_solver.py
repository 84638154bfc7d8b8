"""Gauge construction: solve the divergence equation mode by mode.

Given a symmetric 2-tensor source h, the task is a one-form X whose
metric Lie derivative has the same (possibly tau-perturbed) divergence
as h.  The cross-section splits the problem into a finite sector carried
by the harmonic data (eigenvalue zero, second-order scalar ODEs solved
in closed form by the damped system) and an infinite sector of
positive-eigenvalue modes (the scalar and mixed systems).  Each sector
is one ``mode_ode.solve_batch`` call over term tables read straight from
the divergence's columns.

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

import functools
import math
from dataclasses import dataclass, field as dc_field
from typing import NamedTuple

import numpy as np

from . import fields as fields_mod
from .cross_section import TorusCrossSection, modes_at, omega_unit
from .errors import InvalidInput, NonInvertibleSector, ResonantTau
from .fields import TensorField
from .mode_ode import ProfileTable, RadialProfile, solve_batch
from .stages import stage

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


class SourceTables(NamedTuple):
    """A one-form's per-mode radial profiles as term tables, by sector:
    the pair legs k (tangential gradient) and l (radial) on the modes of
    ``pair_keys``, the coclosed and harmonic legs on theirs, and the radial
    leg of phi0 dr as mode 0 (keys as in ``GaugeField``)."""

    cs: TorusCrossSection
    pair_keys: tuple
    k: ProfileTable
    l: ProfileTable
    coclosed_keys: tuple
    coclosed: ProfileTable
    harmonic_keys: tuple
    harmonic: ProfileTable
    radial: ProfileTable

    @property
    def n_terms(self) -> int:
        return sum(len(t.coeff) for t in (self.k, self.l, self.coclosed, self.harmonic,
                                          self.radial))

    @property
    def sizes(self) -> dict:
        """The number of modes each sector solves."""
        return {"pair": len(self.pair_keys), "coclosed": len(self.coclosed_keys),
                "harmonic": len(self.harmonic_keys), "radial": int(len(self.radial.coeff) > 0)}


_EMPTY = ProfileTable.of([])


def _table(mode, power, rate, coeff) -> ProfileTable:
    """The nonzero rows, stably sorted on mode; each mode's rows come from
    one key of the field, already sorted on (power, rate)."""
    keep = (coeff != 0.0).nonzero()[0]
    keep = keep[mode[keep].argsort(kind="stable")]
    return ProfileTable(mode[keep], power[keep], rate[keep], coeff[keep])


def _live(keys, *tables):
    """The keys whose modes carry rows, and the tables renumbered onto them."""
    live = np.zeros(len(keys), dtype=bool)
    for t in tables:
        live[t.mode] = True
    new = live.cumsum() - 1
    return (tuple(k for k, on in zip(keys, live.tolist()) if on),
            *(ProfileTable(new[t.mode], *t[1:]) for t in tables))


@functools.lru_cache(maxsize=4096)
def _key_legs(cs: TorusCrossSection, freq: tuple, phase: str) -> tuple:
    """(amp, mu, omega / |omega|, amp |omega|, unit polarizations) at one
    (freq, phase): the scalar mode's amplitude and eigenvalue, and the
    polarizations over that amplitude of its coclosed (harmonic at
    frequency zero) one-form modes."""
    amp = float(modes_at(cs, "Scalar", freq, phase)[0].polarization)
    kind = "CoclosedOneForm" if any(freq) else "HarmonicOneForm"
    units = np.array([eta.polarization / amp for eta in modes_at(cs, kind, freq, phase)])
    units.setflags(write=False)  # shared by every caller
    if not any(freq):
        return amp, 0.0, None, None, units
    s, w_hat = omega_unit(cs, freq)
    return amp, cs.eigenvalue(freq), w_hat, amp * s, units.reshape(-1, cs.dim)


def _key_table(cs: TorusCrossSection, keys: tuple) -> tuple:
    """Per nonzero-frequency key: (amp, amp |omega|, sign of the gradient
    leg, slot of its pair, slot of the pair its gradient leg lands on, its
    index), omega / |omega| and unit polarizations; and the pair keys in
    slot order, the order the keys first name them."""
    rows, what, units, pair_keys = [], [], [], {}
    for freq, phase in keys:
        amp, _, w_hat, scale, legs = _key_legs(cs, freq, phase)
        grad = (freq, "sin" if phase == "cos" else "cos")
        rows.append((amp, scale, 1.0 if phase == "cos" else -1.0,
                     pair_keys.setdefault((freq, phase), len(pair_keys)),
                     pair_keys.setdefault(grad, len(pair_keys)), len(rows)))
        what.append(w_hat)
        units.append(legs)
    n, d = len(keys), cs.dim
    return (np.array(rows).reshape(n, 6), np.array(what).reshape(n, d),
            np.array(units).reshape(n, d - 1, d), tuple(pair_keys))


def _source_tables(w: TensorField) -> SourceTables:
    """Resolve a rank-1 field into per-mode term tables, each leg one array
    expression over the rows of ``w.columns()``.

    Every mode at a (freq, phase) has the scalar mode's amplitude, so each
    leg divides by it: the radial leg directly, the tangential-gradient leg
    after projecting onto omega (d_N of a cos mode lands on sin with
    +omega, of a sin mode on cos with -omega), each coclosed or harmonic
    leg after projecting onto the mode's polarization over the amplitude.
    Each projection is a stacked vector-times-vector ``np.matmul``, which
    runs the per-row loop of ``tang @ unit`` and so keeps its bits (a
    matrix-vector product does not)."""
    if w.rank != 1:
        raise InvalidInput("decompose_one_form needs a rank-1 field")
    cs, d = w.cs, w.cs.dim
    keys, starts, powers, rates, C = w.columns()
    zero = bool(keys) and not any(keys[0][0])
    z = starts[zero]
    scalars, what, units, pair_keys = _key_table(cs, keys[zero:])
    sizes = np.array(starts[zero:], dtype=np.int64)
    sizes = sizes[1:] - sizes[:-1]
    n_legs = d - 1
    per_row = np.repeat(scalars, sizes, axis=0)
    amp, scale, sign = per_row[:, 0], per_row[:, 1], per_row[:, 2]
    lslot, kslot, slot = per_row[:, 3:].astype(np.int64).T
    p, lam, C0, tang = powers[z:], rates[z:], C[z:, 0], C[z:, 1:]
    w_hat = np.repeat(what, sizes, axis=0)
    k = _table(kslot, p, lam,
               sign * np.matmul(tang[:, None, :], w_hat[:, :, None])[:, 0, 0] / scale)
    l = _table(lslot, p, lam, C0 / amp)
    units = np.repeat(units, sizes, axis=0)
    legs = np.matmul(tang[:, None, None, :], units[..., None])[..., 0, 0] / amp[:, None]
    out = dict(zip(("pair_keys", "k", "l"), _live(pair_keys, k, l)))
    out["coclosed_keys"], out["coclosed"] = _live(
        [(freq, phase, i) for freq, phase in keys[zero:] for i in range(n_legs)],
        _table((slot[:, None] * n_legs + np.arange(n_legs)).ravel(), np.repeat(p, n_legs),
               np.repeat(lam, n_legs), legs.ravel()))

    out["harmonic_keys"], out["harmonic"], out["radial"] = (), _EMPTY, _EMPTY
    if C[:z].any():  # frequency zero carries a term
        p, lam, C0, tang = powers[:z], rates[:z], C[:z, 0], C[:z, 1:]
        amp, _, _, _, units = _key_legs(cs, (0,) * d, "cos")
        legs = np.matmul(tang[:, None, None, :], units[..., None])[..., 0, 0] / amp
        out["harmonic_keys"], out["harmonic"] = _live(list(range(d)), _table(
            (np.arange(d) + 0 * p[:, None]).ravel(), np.repeat(p, d), np.repeat(lam, d),
            legs.ravel()))
        out["radial"] = _table(np.zeros(len(p), dtype=np.int64), p, lam, C0 / amp)
    return SourceTables(cs, **out)


def decompose_one_form(w: TensorField) -> GaugeField:
    """Resolve a rank-1 field into per-mode radial profiles, carried by a
    GaugeField whose ``one_form`` gives w back (see ``_source_tables``)."""
    t = _source_tables(w)
    n = len(t.pair_keys)
    return GaugeField(t.cs, dict(zip(t.pair_keys, zip(t.k.profiles(n), t.l.profiles(n)))),
                      dict(zip(t.coclosed_keys, t.coclosed.profiles(len(t.coclosed_keys)))),
                      dict(zip(t.harmonic_keys, t.harmonic.profiles(len(t.harmonic_keys)))),
                      t.radial.profiles(1)[0])


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


def _parallel_rows(h: TensorField):
    """The frequency-zero key of h (or None), and the powers, rates and
    symmetrized first rows of its terms whose row is not zero."""
    keys, starts, powers, rates, C = h.columns()
    z = starts[1] if keys and not any(keys[0][0]) else 0
    rows = 0.5 * (C[:z, 0, :] + C[:z, :, 0])
    keep = (rows != 0.0).any(axis=1)
    return keys[0] if z else None, powers[:z][keep], rates[:z][keep], rows[keep]


def _parallel_radial_row(h: TensorField) -> TensorField:
    """Radial contraction of the parallel part of h: the symmetrized first
    row of every frequency-zero coefficient tensor, as a one-form."""
    key, powers, rates, rows = _parallel_rows(h)
    return TensorField(h.cs, 1, ((key, pk, row) for pk, row in
                                 zip(zip(powers.tolist(), rates.tolist()), rows)))


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


def _gauge_divergence(source: TensorField, tau: float) -> TensorField:
    """The one-form ``solve_gauge`` inverts: delta_tau(source), once the
    source is a rank-2 field, tau misses every resonance of its modes, and
    at tau = 0 the source keeps off the parallel radial span."""
    if not isinstance(source, TensorField) or source.rank != 2:
        raise InvalidInput("solve_gauge needs a rank-2 source field")
    cs = source.cs
    if tau > 0.0:
        check_resonance(tau, (cs.eigenvalue(freq) for freq, _phase in source.keys()))
    elif len(_parallel_rows(source)[3]):
        raise NonInvertibleSector(
            "source meets the parallel radial span whose preimages r dr and "
            "r eta are unbounded; pass tau > 0 to damp that sector"
        )
    return modified_divergence(source, tau)


def _solve_tables(t: SourceTables, tau: float) -> GaugeField:
    """The gauge X whose delta_tau(L_X g0) is minus the one-form of t, one
    batched solve per sector in the order pair, coclosed, harmonic,
    radial.  An error names the sector and the mode it failed on."""
    cs, zero = t.cs, ((0,) * t.cs.dim, "cos")

    def label(sector, keys):
        return lambda i: f"{sector} sector, mode {keys[i]}"

    pairs, coclosed, harmonic, radial = {}, {}, {}, RadialProfile.zero()
    if t.pair_keys:
        pairs = dict(zip(t.pair_keys, solve_batch(
            "mixed", [_key_legs(cs, *key)[1] for key in t.pair_keys], t.k.scale(-1.0),
            t.l.scale(-0.5), label=label("pair", t.pair_keys))))
    if t.coclosed_keys:
        coclosed = dict(zip(t.coclosed_keys, solve_batch(
            "scalar", [_key_legs(cs, *key[:2])[1] for key in t.coclosed_keys],
            t.coclosed.scale(-1.0), label=label("coclosed", t.coclosed_keys))))
    if t.harmonic_keys:
        legs = [(*zero, i) for i in t.harmonic_keys]
        harmonic = dict(zip(t.harmonic_keys, solve_batch(
            "damped", [tau] * len(legs), t.harmonic.scale(-1.0), label=label("harmonic", legs))))
    if len(t.radial.coeff):
        radial, = solve_batch("damped", [tau], t.radial.scale(-0.5),
                              label=label("radial", [zero]))
    return GaugeField(cs, pairs, coclosed, harmonic, radial)


def solve_gauge(source: TensorField, cfg: DivergenceConfig = DivergenceConfig()) -> GaugeField:
    """Produce X with delta_tau(L_X g0) = delta_tau(source), sector by
    sector, logging each stage."""
    w = stage("modified divergence", _gauge_divergence, source, cfg.tau)
    t = stage(lambda t: f"source tables, {t.n_terms} terms", _source_tables, w)
    return stage(lambda _: "batched solves, modes per sector: " + ", ".join(
        f"{sector} {n}" for sector, n in t.sizes.items()), _solve_tables, t, cfg.tau)


def gauge_residual(source: TensorField, gauge, tau: float) -> TensorField:
    """delta_tau(L_X g0 - source) for the GaugeField X or its one-form;
    identically zero for a correct solve."""
    return modified_divergence(lie_derivative_metric(gauge) - source, tau)
