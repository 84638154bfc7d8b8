"""Gauge solver: decomposition algebra, sector semantics, round trips.

The binding contract is the residual: delta_tau(L_X g0) must reproduce
delta_tau(source) exactly in closed form, sector by sector.  The gauge
itself is not unique (decaying homogeneous pieces can be added), so the
tests never compare X against a reference gauge, only residuals.
"""

import math
import re

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_one_form, random_rank2_source
from cylspec import cross_section as cx, fields as F
from cylspec import divergence_solver as dv
from cylspec.errors import InvalidInput, NonInvertibleSector, ResonantRate, ResonantTau
from cylspec.fd_oracle import fd_operator, interior_sup, sample
from cylspec.mode_ode import RadialProfile

CS = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
SCALARS = cx.build_spectrum(CS, "Scalar").modes
PHI = next(m for m in SCALARS if m.freq == (1, 0, 0) and m.phase == "cos")
PHI_SIN = next(m for m in SCALARS if m.freq == (1, 0, 0) and m.phase == "sin")
PHI0 = next(m for m in SCALARS if not any(m.freq))
ETA = next(m for m in cx.build_spectrum(CS, "CoclosedOneForm").modes if any(m.freq))
HARMONIC = list(cx.build_spectrum(CS, "HarmonicOneForm").modes)
B_PAR = next(m for m in cx.build_spectrum(CS, "TTTensor").modes if not any(m.freq))

EXP_DECAY = RadialProfile.monomial(1.0, 0, -1.0)


def field_close(a, b, tol=1e-12):
    diff = (a - b).max_abs_coeff()
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return diff <= tol * scale


def profiles_close(a, b, tol=1e-12):
    r = np.linspace(0.0, 6.0, 25)
    scale = max(1.0, float(np.max(np.abs(b.evaluate(r)))))
    return float(np.max(np.abs(a.evaluate(r) - b.evaluate(r)))) <= tol * scale


def residual_scale(h):
    return max(1.0, h.max_abs_coeff())


# ---------------------------------------------------------------------------
# Lie derivative conventions
# ---------------------------------------------------------------------------


def test_lie_derivative_of_radial_dilation_doubles():
    # X = r dr generates the radial dilation; both symmetrized slots
    # contribute, so the coefficient of dr(x)dr is 2
    X = F.radial_one_form(CS, PHI0, RadialProfile.monomial(1.0, 1, 0.0))
    expected = F.rr_tensor(CS, PHI0, RadialProfile.constant(2.0))
    assert field_close(dv.lie_derivative_metric(X), expected, tol=1e-15)


def test_lie_derivative_of_sheared_harmonic_leg():
    X = F.from_mode_profile(CS, HARMONIC[0], RadialProfile.monomial(1.0, 1, 0.0))
    expected = F.mixed_pair_tensor(CS, HARMONIC[0], RadialProfile.constant(1.0))
    assert field_close(dv.lie_derivative_metric(X), expected, tol=1e-15)


def test_translation_and_harmonic_killing_fields_are_exact_kernel():
    X = F.radial_one_form(CS, PHI0, RadialProfile.constant(2.0)) + F.from_mode_profile(
        CS, HARMONIC[1], RadialProfile.constant(-1.3)
    )
    assert dv.lie_derivative_metric(X).is_zero()


def test_lie_derivative_radial_leg_structure():
    # X = u(r) phi dr: the radial slot sees 2 u' phi, the mixed slot the
    # tangential gradient of u phi
    u = RadialProfile.monomial(0.7, 1, -0.4)
    X = F.pair_one_form(CS, PHI, RadialProfile.zero(), u)
    omega = np.asarray(PHI.omega)
    grad_mode = cx.Mode(
        "CoclosedOneForm", PHI.freq, PHI.eigenvalue,
        -float(PHI.polarization) * omega, "sin", PHI.omega,
    )
    expected = F.rr_tensor(CS, PHI, u.derivative().scale(2.0)) + F.mixed_pair_tensor(
        CS, grad_mode, u
    )
    assert field_close(dv.lie_derivative_metric(X), expected, tol=1e-14)


def test_lie_derivative_accepts_gauge_field_and_rejects_rank2():
    with pytest.raises(InvalidInput):
        dv.lie_derivative_metric(F.metric_field(CS))


# ---------------------------------------------------------------------------
# modified divergence
# ---------------------------------------------------------------------------


def test_modified_divergence_damps_parallel_radial_block():
    h = F.rr_tensor(CS, PHI0, EXP_DECAY)
    tau = 0.1
    # delta h = e^{-r} phi0 dr, the contraction is e^{-r} phi0 dr as well
    expected = F.radial_one_form(CS, PHI0, RadialProfile.monomial(1.0 - tau, 0, -1.0))
    assert field_close(dv.modified_divergence(h, tau), expected, tol=1e-14)


def test_modified_divergence_damps_harmonic_shear_block():
    h = F.mixed_pair_tensor(CS, HARMONIC[0], EXP_DECAY)
    tau = 0.25
    plain = dv.modified_divergence(h, 0.0)
    damped = dv.modified_divergence(h, tau)
    expected_shift = F.from_mode_profile(CS, HARMONIC[0], EXP_DECAY).scale(-tau)
    assert field_close(damped - plain, expected_shift, tol=1e-14)


def test_modified_divergence_ignores_oscillating_modes():
    h = F.rr_tensor(CS, PHI, EXP_DECAY)
    assert field_close(dv.modified_divergence(h, 0.3), dv.modified_divergence(h, 0.0), tol=0.0)


def test_radial_contraction_identity_on_parallel_sector():
    # iota_dr L_X g0 = eta' + 2 kappa' dr on the frequency-zero sector,
    # recovered here as the difference quotient of the tau damping
    f = RadialProfile.monomial(1.0, 1, -1.0)
    u = RadialProfile.monomial(1.0, 0, -2.0)
    X = F.from_mode_profile(CS, HARMONIC[0], f) + F.radial_one_form(CS, PHI0, u)
    L = dv.lie_derivative_metric(X)
    contraction = dv.modified_divergence(L, 0.0) - dv.modified_divergence(L, 1.0)
    expected = F.from_mode_profile(CS, HARMONIC[0], f.derivative()) + F.radial_one_form(
        CS, PHI0, u.derivative().scale(2.0)
    )
    assert field_close(contraction, expected, tol=1e-14)


def test_modified_divergence_rejects_one_forms():
    with pytest.raises(InvalidInput):
        dv.modified_divergence(F.radial_one_form(CS, PHI0, EXP_DECAY), 0.1)


# ---------------------------------------------------------------------------
# decomposition of one-forms
# ---------------------------------------------------------------------------


def test_decompose_recovers_pair_profiles_exactly():
    k = RadialProfile.monomial(0.8, 1, -0.5)
    l = RadialProfile.monomial(-1.1, 0, -0.9)
    parts = dv.decompose_one_form(F.pair_one_form(CS, PHI, k, l))
    got_k, got_l = parts.pairs[(PHI.freq, "cos")]
    assert profiles_close(got_k, k)
    assert profiles_close(got_l, l)
    assert not parts.coclosed and not parts.harmonic and parts.radial.is_zero()


def test_decompose_handles_sin_phase_gradient_sign():
    k = RadialProfile.monomial(1.0, 0, -1.0)
    parts = dv.decompose_one_form(F.pair_one_form(CS, PHI_SIN, k, RadialProfile.zero()))
    got_k, got_l = parts.pairs[(PHI_SIN.freq, "sin")]
    assert profiles_close(got_k, k)
    assert got_l.is_zero()


def test_decompose_finite_sector_normalization():
    # harmonic legs are keyed by the coordinate axis of their polarization,
    # independently of the spectrum's sort order
    f = RadialProfile.monomial(2.0, 0, -0.7)
    u = RadialProfile.monomial(-0.6, 1, -0.2)
    harm = HARMONIC[2]
    axis = int(np.argmax(np.abs(harm.polarization)))
    parts = dv.decompose_one_form(
        F.from_mode_profile(CS, harm, f) + F.radial_one_form(CS, PHI0, u)
    )
    assert profiles_close(parts.harmonic[axis], f)
    assert profiles_close(parts.radial, u)


@given(st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_decompose_reassemble_round_trip(seed):
    rng = np.random.default_rng(seed)
    w = random_one_form(CS, rng, n_terms=int(rng.integers(1, 6)))
    assert field_close(dv.decompose_one_form(w).one_form, w, tol=1e-12)


def _one_form_by_parts(X):
    # GaugeField.one_form as the sum of one field per component, in the
    # carrier's order: pairs, coclosed, harmonic, radial
    cs, zero = X.cs, (0,) * X.cs.dim
    parts = [F.pair_one_form(cs, cx.modes_at(cs, "Scalar", freq, phase)[0], k, l)
             for (freq, phase), (k, l) in X.pairs.items()]
    parts += [F.from_mode_profile(cs, cx.modes_at(cs, "CoclosedOneForm", freq, phase)[idx], f)
              for (freq, phase, idx), f in X.coclosed.items()]
    parts += [F.from_mode_profile(cs, cx.modes_at(cs, "HarmonicOneForm", zero, "cos")[idx], f)
              for idx, f in X.harmonic.items()]
    if not X.radial.is_zero():
        parts.append(F.radial_one_form(cs, cx.modes_at(cs, "Scalar", zero, "cos")[0], X.radial))
    return F.sum_fields(cs, 1, parts)


def _same_table(a, b):
    assert [(k, pk, C.tobytes()) for k, pk, C in a.terms()] == [
        (k, pk, C.tobytes()) for k, pk, C in b.terms()]


@pytest.mark.parametrize("seed", range(6))
def test_one_form_is_the_sum_of_its_components_bit_for_bit(seed):
    rng = np.random.default_rng(seed)
    cs = cx.TorusCrossSection(3, (1.0, 1.3, 1.7), 2)
    for X in (dv.decompose_one_form(random_one_form(cs, rng, n_terms=8)),
              dv.solve_gauge(random_rank2_source(cs, rng, n_terms=8)),
              dv.solve_gauge(random_rank2_source(cs, rng), dv.DivergenceConfig(tau=0.3))):
        _same_table(X.one_form, _one_form_by_parts(X))


def test_decompose_rejects_rank2():
    with pytest.raises(InvalidInput):
        dv.decompose_one_form(F.metric_field(CS))


# ---------------------------------------------------------------------------
# solver semantics: sectors, errors, growth
# ---------------------------------------------------------------------------


def test_obstructed_source_needs_tau():
    h = F.rr_tensor(CS, PHI0, EXP_DECAY)
    with pytest.raises(NonInvertibleSector):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.01))
    assert not gauge.radial.is_zero()  # the finite sector
    assert not (gauge.pairs or gauge.coclosed or gauge.harmonic)
    res = dv.gauge_residual(h, gauge, 0.01)
    assert res.max_abs_coeff() < 1e-12 * residual_scale(h)


def test_obstructed_shear_source_needs_tau():
    h = F.mixed_pair_tensor(CS, HARMONIC[1], EXP_DECAY)
    with pytest.raises(NonInvertibleSector):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))


def test_parallel_tt_source_is_divergence_free():
    h = F.from_mode_profile(CS, B_PAR, EXP_DECAY)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
    assert gauge.is_zero()
    assert dv.gauge_residual(h, gauge, 0.0).is_zero()


@pytest.mark.parametrize("seed", [0, 1, 2, 3])
def test_random_sources_on_a_circle_solve_at_tau_zero(seed):
    # a circle has no coclosed and no TT modes; the source builder must
    # neither pick from those empty pools nor fall back to the parallel
    # radial blocks it was asked to leave out
    circle = cx.TorusCrossSection(1, (2.0 * math.pi,), 2)
    h = random_rank2_source(circle, np.random.default_rng(seed),
                            include_parallel_radial=False)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
    assert dv.gauge_residual(h, gauge, 0.0).max_abs_coeff() < 1e-10 * residual_scale(h)


def test_a_growing_pair_mode_is_named_with_its_sector():
    # e^{7 r} at mu = 4 pi^2 grows faster than the decaying root admits
    h = F.rr_tensor(CS, PHI, RadialProfile.monomial(1.0, 0, 7.0))
    with pytest.raises(InvalidInput, match=re.escape(
            "pair sector, mode ((1, 0, 0), 'cos'): global mixed source must decay strictly "
            "below rate sqrt(mu)")):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))


@pytest.mark.parametrize("sector, build", [
    ("harmonic sector, mode ((0, 0, 0), 'cos', 1)",
     lambda f: F.mixed_pair_tensor(CS, HARMONIC[1], f)),
    ("radial sector, mode ((0, 0, 0), 'cos')", lambda f: F.rr_tensor(CS, PHI0, f)),
])
def test_a_near_resonant_damped_mode_is_named_with_its_sector(sector, build):
    # a rate 1e-12 above -tau: the damped solve would divide by that gap
    h = build(RadialProfile.monomial(1.0, 0, -0.3 + 1e-12))
    with pytest.raises(ResonantRate, match=re.escape(
            f"{sector}: source rate -0.299999999999 lies within 1e-12 of the homogeneous "
            "rate -0.3")):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.3))


def test_the_first_failing_sector_raises_in_sector_order():
    # a growing pair mode and a near-resonant harmonic one: pairs solve first
    h = (F.mixed_pair_tensor(CS, HARMONIC[1], RadialProfile.monomial(1.0, 0, -0.3 + 1e-12))
         + F.rr_tensor(CS, PHI, RadialProfile.monomial(1.0, 0, 7.0)))
    with pytest.raises(InvalidInput, match=r"^pair sector"):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.3))


def test_resonant_tau_rejected():
    cs = cx.TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 1)
    phi = next(
        m for m in cx.build_spectrum(cs, "Scalar").modes
        if m.freq == (1, 0) and m.phase == "cos"
    )
    h = F.rr_tensor(cs, phi, EXP_DECAY)
    with pytest.raises(ResonantTau):
        dv.solve_gauge(h, dv.DivergenceConfig(tau=0.5))  # 4 tau^2 == mu1 == 1
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.37))
    assert dv.gauge_residual(h, gauge, 0.37).max_abs_coeff() < 1e-12


def test_config_validation():
    with pytest.raises(InvalidInput):
        dv.DivergenceConfig(tau=-0.1)
    with pytest.raises(InvalidInput):
        dv.solve_gauge(F.radial_one_form(CS, PHI0, EXP_DECAY))


def test_zero_source_gives_zero_gauge():
    gauge = dv.solve_gauge(F.TensorField.zero(CS, 2))
    assert gauge.is_zero()
    assert gauge.worst_growth() == "decaying"


def test_finite_sector_frozen_value_and_ode_oracle():
    # source e^{-r} phi0 dr(x)dr at tau = 0.1 reduces to
    # u'' + tau u' = -0.45 e^{-r} with zero data at the origin
    tau = 0.1
    h = F.rr_tensor(CS, PHI0, EXP_DECAY)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=tau))
    u = gauge.radial
    assert abs(u.evaluate(0.0)) < 1e-15
    assert abs(u.derivative().evaluate(0.0)) < 1e-15
    assert u.evaluate(1.0) == pytest.approx(-0.15975263040592365, abs=1e-12)

    def rhs(r, y):
        return [y[1], -0.45 * math.exp(-r) - tau * y[1]]

    ivp = scipy.integrate.solve_ivp(rhs, (0.0, 1.0), [0.0, 0.0], rtol=1e-11, atol=1e-13)
    assert u.evaluate(1.0) == pytest.approx(float(ivp.y[0, -1]), abs=1e-8)
    assert gauge.worst_growth() == "bounded"


def test_growth_classifier():
    def growth(*profiles):
        return dv.GaugeField(CS, {}, harmonic=dict(enumerate(profiles))).worst_growth()

    assert growth() == "decaying"
    assert growth(RadialProfile.monomial(1.0, 0, -2.0)) == "decaying"
    assert growth(RadialProfile.constant(3.0)) == "bounded"
    assert growth(RadialProfile.monomial(1.0, 1, 0.0)) == "polynomial"
    assert growth(RadialProfile.monomial(1.0, 0, 0.5)) == "exponential"
    # rates are exact, so any positive rate grows
    assert growth(RadialProfile.monomial(1.0, 0, 1e-13)) == "exponential"
    assert growth(RadialProfile.monomial(1.0, 0, -1.0), RadialProfile.constant(1.0)) == "bounded"
    assert growth(RadialProfile(((1.0, 2, -1.0), (1.0, 0, 0.0)))) == "bounded"


def test_gauge_field_worst_growth_reads_every_component():
    key = (PHI.freq, PHI.phase)
    dec = RadialProfile.monomial(1.0, 0, -2.0)
    ramp = RadialProfile.monomial(1.0, 1, 0.0)
    everywhere = dv.GaugeField(CS, {key: (dec, dec)}, {key + (0,): dec}, {1: dec}, dec)
    assert everywhere.worst_growth() == "decaying"
    for gauge in (
        dv.GaugeField(CS, {key: (dec, ramp)}, harmonic={1: RadialProfile.constant(3.0)}),
        dv.GaugeField(CS, {}, coclosed={key + (0,): ramp}),
        dv.GaugeField(CS, {}, harmonic={1: ramp}),
        dv.GaugeField(CS, {}, radial=ramp),
    ):
        assert gauge.worst_growth() == "polynomial"


# ---------------------------------------------------------------------------
# round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 88])
def test_round_trip_infinite_sector_tau_zero(seed):
    rng = np.random.default_rng(seed)
    Y = random_one_form(CS, rng, n_terms=4, include_finite=False)
    h = dv.lie_derivative_metric(Y)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
    res = dv.gauge_residual(h, gauge, 0.0)
    assert res.max_abs_coeff() < 1e-10 * residual_scale(h)
    assert not gauge.harmonic and gauge.radial.is_zero()  # nothing in the finite sector
    assert gauge.worst_growth() == "decaying"


@pytest.mark.parametrize("seed", [5, 23, 101])
def test_round_trip_all_sectors_with_tau(seed):
    rng = np.random.default_rng(seed)
    Y = random_one_form(CS, rng, n_terms=5)
    h = dv.lie_derivative_metric(Y)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.01))
    res = dv.gauge_residual(h, gauge, 0.01)
    assert res.max_abs_coeff() < 1e-10 * residual_scale(h)
    assert gauge.worst_growth() in ("decaying", "bounded")


@pytest.mark.parametrize("tau", [0.0, 0.02])
def test_one_form_is_the_plus_chain(tau):
    """one_form sums its parts in one pass: keys and coefficients equal the
    ones of the + chain bit for bit, also where the harmonic and radial
    parts share a term at frequency zero."""
    rng = np.random.default_rng(31)
    zero = (0,) * CS.dim
    shared = 0
    for _ in range(6):
        h = random_rank2_source(CS, rng, include_parallel_radial=tau > 0.0)
        gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=tau))
        chain = F.TensorField.zero(CS, 1)
        for (freq, phase), (k, l) in gauge.pairs.items():
            chain = chain + F.pair_one_form(CS, cx.modes_at(CS, "Scalar", freq, phase)[0], k, l)
        for (freq, phase, idx), f in gauge.coclosed.items():
            mode = cx.modes_at(CS, "CoclosedOneForm", freq, phase)[idx]
            chain = chain + F.from_mode_profile(CS, mode, f)
        for idx, f in gauge.harmonic.items():
            mode = cx.modes_at(CS, "HarmonicOneForm", zero, "cos")[idx]
            chain = chain + F.from_mode_profile(CS, mode, f)
        if not gauge.radial.is_zero():
            chain = chain + F.radial_one_form(CS, PHI0, gauge.radial)
            shared += bool(gauge.harmonic)
        got, want = list(gauge.one_form.terms()), list(chain.terms())
        assert [t[:2] for t in got] == [t[:2] for t in want]
        assert all(x[2].tobytes() == y[2].tobytes() for x, y in zip(got, want))
    assert shared or tau == 0.0


@given(st.integers(0, 10_000))
@settings(max_examples=25, deadline=None)
def test_right_inverse_property_over_random_sources(seed):
    rng = np.random.default_rng(seed)
    h = random_rank2_source(CS, rng, n_terms=int(rng.integers(1, 7)))
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.02))
    res = dv.gauge_residual(h, gauge, 0.02)
    assert res.max_abs_coeff() < 1e-9 * residual_scale(h)


def test_round_trip_residual_vanishes_pointwise():
    rng = np.random.default_rng(7)
    h = random_rank2_source(CS, rng, n_terms=5)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.05))
    res = dv.gauge_residual(h, gauge, 0.05)
    r = np.linspace(0.0, 8.0, 33)
    xs = np.stack(
        np.meshgrid(*[np.linspace(0.0, 1.0, 5, endpoint=False)] * CS.dim, indexing="ij"),
        axis=-1,
    )
    vals = res.evaluate(r, xs)
    assert np.max(np.abs(vals)) < 1e-9 * residual_scale(h)


# ---------------------------------------------------------------------------
# finite-difference cross-check
# ---------------------------------------------------------------------------


def test_gauge_equation_validated_by_fd_oracle():
    # independent route: sample L_X g0 = S(X), the modal sym_grad of the
    # gauge, and take its divergence with the grid stencils; it must match
    # delta h
    cs = cx.TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 1)
    rng = np.random.default_rng(11)
    h = random_rank2_source(cs, rng, n_terms=4, include_parallel_radial=False)
    gauge = dv.solve_gauge(h, dv.DivergenceConfig(tau=0.0))
    lie = F.sym_grad(gauge.one_form)

    def fd_gap(n_r, n_x):
        grid = sample(lie, (0.0, 8.0), n_r, n_x)
        lhs = fd_operator("divergence", grid)
        rhs = sample(dv.modified_divergence(h, 0.0), (0.0, 8.0), n_r, n_x)
        return interior_sup(lhs - rhs), grid.max_spacing

    err_coarse, h_coarse = fd_gap(65, 12)
    err_fine, h_fine = fd_gap(129, 24)
    assert err_coarse < 50.0 * h_coarse**2 * residual_scale(h)
    assert err_fine < 50.0 * h_fine**2 * residual_scale(h)
    assert err_fine < 0.5 * err_coarse
