"""Tube masses, the three-circles certificate, and the step dichotomy.

Tube values are cross-checked against brute quadrature (adaptive in r,
periodic trapezoid over the torus, which is exact for trigonometric
polynomials).  The r-linear tube identity L^3 (t^2 + t + 1/3) is an
algebraic fact and is asserted for fractional and negative offsets too.
The randomized suites run in the parameter regime recorded with the
generator: sqrt(mu_1) L >= 3 and beta' strictly inside both caps.
"""

import math

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel_element
from cylspec import cross_section as cx, fields as F
from cylspec import three_circles as tc
from cylspec.deformation_solver import _metric_tangential, _tt_modes
from cylspec.errors import InvalidInput, InvalidParams, NotInKernel
from cylspec.mode_ode import RadialProfile

CS = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
MU1 = CS.smallest_positive_eigenvalue()

# unit side lengths 2*pi put the smallest positive eigenvalue at 1, which
# keeps the decay-rate arithmetic in the examples legible
WIDE = cx.TorusCrossSection(3, (2.0 * math.pi,) * 3, 1)

B_PAR = _tt_modes(CS)[0]
B_OSC = next(m for m in cx.build_spectrum(WIDE, "TTTensor").modes if any(m.freq))
B_OSC_CS = next(m for m in cx.build_spectrum(CS, "TTTensor").modes if any(m.freq))


def field_close(a, b, tol=1e-12):
    diff = (a - b).max_abs_coeff()
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return diff <= tol * scale


def r_linear_tt(cs=CS, coeff=1.0, which=0):
    return F.from_mode_profile(
        cs, _tt_modes(cs)[which], RadialProfile.monomial(coeff, 1, 0.0)
    )


def quad_tube(h, a, b, n_x=6):
    # periodic trapezoid over N is exact for the trigonometric content
    # (frequencies of |h|^2 stay below n_x); adaptive quadrature in r
    axes = [np.linspace(0.0, s, n_x, endpoint=False) for s in h.cs.side_lengths]
    xs = np.stack([g.ravel() for g in np.meshgrid(*axes, indexing="ij")], axis=-1)

    def density(r):
        vals = h.evaluate(r, xs)
        return float(np.mean(np.sum(vals**2, axis=(-2, -1)))) * h.cs.volume

    val, err = scipy.integrate.quad(density, a, b, limit=200)
    return val


# ---------------------------------------------------------------------------
# tube values
# ---------------------------------------------------------------------------


def test_tube_norm_matches_quadrature():
    rng = np.random.default_rng(3)
    for _ in range(3):
        h = tc.random_reduced_form(CS, rng, coeff_scale=0.8)
        for a, b in ((0.0, 1.0), (0.5, 2.25)):
            closed = tc.tube_norm(h, a, b)
            brute = quad_tube(h, a, b)
            assert closed == pytest.approx(brute, rel=1e-10)


def test_tube_norm_rejects_empty_interval():
    h = r_linear_tt()
    with pytest.raises(InvalidInput, match="a < b"):
        tc.tube_norm(h, 2.0, 2.0)


@pytest.mark.parametrize("L", [1.0, 0.7, 2.5])
@pytest.mark.parametrize("t", [0, 1, 3, 7.5, -2.0])
def test_r_linear_tube_identity(L, t):
    # the tube mass of the unit r-linear mode over [tL, (t+1)L] is
    # exactly L^3 (t^2 + t + 1/3), for any real offset
    v = tc.tube_norm(r_linear_tt(), t * L, (t + 1) * L)
    expect = L**3 * (t * t + t + 1.0 / 3.0)
    assert v == pytest.approx(expect, rel=1e-12, abs=1e-15)


def test_decaying_mode_tube_value():
    h = F.from_mode_profile(WIDE, B_OSC, RadialProfile.monomial(1.0, 0, -1.0))
    assert tc.tube_norm(h, 0.0, 1.0) == pytest.approx(
        (1.0 - math.exp(-2.0)) / 2.0, rel=1e-12
    )


@given(
    a=st.floats(-3.0, 3.0),
    gap1=st.floats(0.1, 2.0),
    gap2=st.floats(0.1, 2.0),
    scale=st.floats(0.25, 4.0),
)
@settings(max_examples=40, deadline=None)
def test_tube_norm_additive_and_quadratic(a, gap1, gap2, scale):
    h = r_linear_tt(coeff=0.7) + F.from_mode_profile(
        CS, B_OSC_CS, RadialProfile.monomial(0.4, 0, -math.sqrt(MU1))
    )
    b, c = a + gap1, a + gap1 + gap2
    whole = tc.tube_norm(h, a, c)
    split = tc.tube_norm(h, a, b) + tc.tube_norm(h, b, c)
    assert split == pytest.approx(whole, rel=1e-10, abs=1e-13)
    assert tc.tube_norm(h.scale(scale), a, c) == pytest.approx(
        scale * scale * whole, rel=1e-10
    )


def test_series_from_field_and_validation():
    h = r_linear_tt()
    series = tc.TubeNormSeries.from_field(h, 1.5, (0, 1, 2, 4))
    assert series.values[1] == pytest.approx(tc.tube_norm(h, 1.5, 3.0), rel=1e-12)
    with pytest.raises(InvalidInput, match="increasing"):
        tc.TubeNormSeries(L=1.0, offsets=(2, 1), values=(1.0, 1.0))
    with pytest.raises(InvalidInput, match="nonnegative"):
        tc.TubeNormSeries(L=1.0, offsets=(0, 1), values=(1.0, -2.0))
    with pytest.raises(InvalidInput, match="positive"):
        tc.TubeNormSeries(L=0.0, offsets=(0,), values=(1.0,))


@given(seed=st.integers(0, 2**32 - 1), r_linear=st.booleans(), L=st.floats(0.2, 2.0))
@settings(max_examples=40, deadline=None)
def test_series_and_check_values_are_the_tube_norms(seed, r_linear, L):
    # one antiderivative for all tubes gives exactly the per-tube values
    rng = np.random.default_rng(seed)
    h = tc.random_reduced_form(CS, rng, include_r_linear=r_linear)
    offsets = (0, 1, 2, 4, 7)
    series = tc.TubeNormSeries.from_field(h, L, offsets)
    assert series.values == tuple(tc.tube_norm(h, t * L, (t + 1) * L) for t in offsets)
    params = tc.random_valid_params(MU1, rng, has_r_linear=r_linear)
    result = tc.three_circles_check(h, params)
    assert result.values == tuple(
        tc.tube_norm(h, t * params.L, (t + 1) * params.L) for t in params.triple
    )


def test_series_and_check_reject_nonpositive_tube_length():
    h = r_linear_tt()
    with pytest.raises(InvalidInput, match="a < b"):
        tc.TubeNormSeries.from_field(h, 0.0, (0, 1))
    params = tc.ThreeCirclesParams(beta=1.0, beta_prime=0.1, L=-1.0, triple=(0, 1, 2))
    with pytest.raises(InvalidInput, match="a < b"):
        tc.three_circles_check(h, params, enforce=False)


# ---------------------------------------------------------------------------
# parameter hypotheses
# ---------------------------------------------------------------------------


def test_rate_cap_is_the_r_linear_tube_ratio():
    # the cap equals the log ratio of the pure r-linear tube masses, so
    # exceeding it is exactly what the sharpness probe exploits
    h = r_linear_tt(coeff=2.0)
    for L, t2, t3 in ((1.0, 1, 40), (0.8, 2, 5)):
        v2 = tc.tube_norm(h, t2 * L, (t2 + 1) * L)
        v3 = tc.tube_norm(h, t3 * L, (t3 + 1) * L)
        assert tc.rate_cap(L, t2, t3) == pytest.approx(
            math.log(v3 / v2) / (2.0 * L), rel=1e-12
        )


def test_params_reject_bad_hypotheses():
    good = dict(beta=0.9, beta_prime=0.5, L=4.0, triple=(0, 1, 2))
    tc.ThreeCirclesParams(**good).validate(1.0, has_r_linear=False)
    with pytest.raises(InvalidParams, match="spectral-gap"):
        tc.ThreeCirclesParams(**{**good, "L": 3.0}).validate(1.0, False)
    with pytest.raises(InvalidParams, match="sqrt"):
        tc.ThreeCirclesParams(**{**good, "beta": 1.1}).validate(1.0, False)
    with pytest.raises(InvalidParams, match="t1 < t2 < t3"):
        tc.ThreeCirclesParams(**{**good, "triple": (1, 1, 2)}).validate(1.0, False)
    with pytest.raises(InvalidParams, match="positive"):
        tc.ThreeCirclesParams(**{**good, "L": -1.0}).validate(1.0, False)
    with pytest.raises(InvalidParams, match="beta'"):
        tc.ThreeCirclesParams(**{**good, "beta_prime": 0.95}).validate(1.0, False)


def test_params_rate_cap_only_binds_with_r_linear_content():
    s1 = math.sqrt(4.0 * math.pi**2)
    params = tc.ThreeCirclesParams(beta=5.0, beta_prime=3.3447, L=1.0, triple=(0, 1, 40))
    params.validate(4.0 * math.pi**2, has_r_linear=False)
    with pytest.raises(InvalidParams, match="rate cap active"):
        params.validate(4.0 * math.pi**2, has_r_linear=True)
    assert params.beta_prime > tc.rate_cap(1.0, 1, 40)
    assert params.beta_prime < s1


# ---------------------------------------------------------------------------
# the reduced-form gate
# ---------------------------------------------------------------------------


def test_gate_rejects_non_reduced_content():
    rr = F.rr_tensor(CS, next(m for m in cx.build_spectrum(CS, "Scalar").modes
                              if not any(m.freq)), RadialProfile.monomial(1.0, 0, 0.0))
    with pytest.raises(InvalidInput, match="purely r-linear"):
        tc.three_circles_check(rr, _valid_params())
    wrong_rate = F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, -1.0))
    with pytest.raises(InvalidInput, match="pure e"):
        tc.three_circles_check(wrong_rate, _valid_params())
    secular = F.from_mode_profile(
        CS, B_OSC_CS, RadialProfile.monomial(1.0, 1, -math.sqrt(MU1))
    )
    with pytest.raises(InvalidInput, match="pure e"):
        tc.three_circles_check(secular, _valid_params())
    with pytest.raises(InvalidInput, match="transverse"):
        tc.three_circles_check(_oscillating_metric(), _valid_params())


def _oscillating_metric():
    phi = next(m for m in cx.build_spectrum(CS, "Scalar").modes if any(m.freq))
    g_tan = _metric_tangential(CS)
    out = F.TensorField.zero(CS, 2)
    s = math.sqrt(phi.eigenvalue)
    for _, _, C in g_tan.terms():
        out._accumulate((phi.freq, phi.phase), (0, -s), C * float(phi.polarization))
    return out


def _valid_params():
    return tc.ThreeCirclesParams(
        beta=0.8 * math.sqrt(MU1), beta_prime=1.0, L=1.0, triple=(0, 1, 3)
    )


# ---------------------------------------------------------------------------
# projection to the reduced form
# ---------------------------------------------------------------------------


def test_project_out_parallel_drops_constants():
    assert tc.project_out_parallel(
        F.from_mode_profile(CS, B_PAR, RadialProfile.monomial(7.0, 0, 0.0))
    ).is_zero()
    g_tan = _metric_tangential(CS)
    h = g_tan.multiply_profile(RadialProfile.monomial(2.0, 0, 0.0)) + g_tan.multiply_profile(
        RadialProfile.monomial(1.0, 1, 0.0)
    )
    kept = tc.project_out_parallel(h)
    assert field_close(kept, g_tan.multiply_profile(RadialProfile.monomial(1.0, 1, 0.0)))


def test_project_out_parallel_idempotent_on_kernel_elements():
    rng = np.random.default_rng(41)
    h = random_kernel_element(CS, rng)
    once = tc.project_out_parallel(h)
    twice = tc.project_out_parallel(once)
    assert field_close(once, twice)


def test_project_out_parallel_fixes_reduced_forms():
    rng = np.random.default_rng(8)
    h = tc.random_reduced_form(CS, rng)
    assert field_close(tc.project_out_parallel(h), h)


def test_project_out_parallel_rejects_non_kernel():
    phi = next(m for m in cx.build_spectrum(CS, "Scalar").modes if any(m.freq))
    junk = F.rr_tensor(CS, phi, RadialProfile.monomial(1.0, 0, -1.0))
    with pytest.raises(NotInKernel):
        tc.project_out_parallel(junk)


# ---------------------------------------------------------------------------
# the certificate
# ---------------------------------------------------------------------------


def test_check_decay_example():
    # e^{-r} B with tubes of length 4: slack is exactly e^2 (1 + e^{-8})
    h = F.from_mode_profile(WIDE, B_OSC, RadialProfile.monomial(1.0, 0, -1.0))
    params = tc.ThreeCirclesParams(beta=0.9, beta_prime=0.5, L=4.0, triple=(0, 1, 2))
    res = tc.three_circles_check(h, params)
    assert res.holds
    assert res.slack == pytest.approx(
        math.exp(2.0 * 0.5 * 4.0 - 0.5 * 4.0) * (1.0 + math.exp(-8.0)), rel=1e-12
    )
    assert res.values[0] == pytest.approx((1.0 - math.exp(-8.0)) / 2.0, rel=1e-12)


def test_check_enforces_params_and_enforce_flag_bypasses():
    h = F.from_mode_profile(WIDE, B_OSC, RadialProfile.monomial(1.0, 0, -1.0))
    bad = tc.ThreeCirclesParams(beta=0.9, beta_prime=0.5, L=3.0, triple=(0, 1, 2))
    with pytest.raises(InvalidParams, match="spectral-gap"):
        tc.three_circles_check(h, bad)
    res = tc.three_circles_check(h, bad, enforce=False)
    assert res.holds


def test_check_zero_field_has_infinite_slack():
    res = tc.three_circles_check(F.TensorField.zero(CS, 2), _valid_params_wide())
    assert res.holds and math.isinf(res.slack)


def _valid_params_wide():
    return tc.ThreeCirclesParams(
        beta=0.7 * math.sqrt(MU1), beta_prime=0.8, L=1.0, triple=(0, 1, 3)
    )


def test_randomized_validity_suite():
    rng = np.random.default_rng(20260822)
    worst = math.inf
    for _ in range(150):
        h = tc.random_reduced_form(CS, rng)
        params = tc.random_valid_params(MU1, rng, has_r_linear=True)
        res = tc.three_circles_check(h, params)
        assert res.holds
        worst = min(worst, res.slack)
    assert worst > 1.5  # the valid region certifies with real margin


def test_sharpness_probe_finds_failures():
    failing = tc.sharpness_probe(CS, L=1.0, excess=1.02, t_limit=60)
    assert failing
    assert failing[0] == (0, 1, 13)
    # at the cap itself every probed triple still certifies
    assert tc.sharpness_probe(CS, L=1.0, excess=0.98, t_limit=60) == ()


# ---------------------------------------------------------------------------
# monotonicity
# ---------------------------------------------------------------------------


def test_monotonicity_labels_pure_decay_and_growth():
    dec = tc.TubeNormSeries(
        L=1.0, offsets=tuple(range(5)), values=tuple(math.exp(-4.0 * t) for t in range(5))
    )
    rep = tc.monotonicity_classify(dec, 0.5)
    assert rep.clean and set(rep.labels) == {"left-dominated"}
    gro = tc.TubeNormSeries(
        L=1.0, offsets=tuple(range(5)), values=tuple(math.exp(4.0 * t) for t in range(5))
    )
    rep = tc.monotonicity_classify(gro, 0.5)
    assert rep.clean and set(rep.labels) == {"right-dominated"}


def test_monotonicity_valley_crosses_without_violation():
    vals = tuple(math.exp(-3.0 * t) + 1e-6 * math.exp(3.0 * t) for t in range(8))
    series = tc.TubeNormSeries(L=1.0, offsets=tuple(range(8)), values=vals)
    rep = tc.monotonicity_classify(series, 0.9)
    assert rep.clean
    assert rep.labels[0] == "left-dominated" and rep.labels[-1] == "right-dominated"
    assert "left-dominated" in rep.labels and "right-dominated" in rep.labels


def test_monotonicity_flags_flat_series():
    flat = tc.TubeNormSeries(L=1.0, offsets=tuple(range(4)), values=(1.0, 1.0, 1.0, 1.0))
    rep = tc.monotonicity_classify(flat, 0.5)
    assert rep.violations == (1, 2)


def test_monotonicity_propagation_on_kernel_series():
    rng = np.random.default_rng(19)
    s1 = math.sqrt(MU1)
    for _ in range(200):
        h = tc.random_reduced_form(CS, rng, include_r_linear=False)
        L = float(rng.uniform(3.0 / s1, 6.0 / s1))
        beta_prime = float(rng.uniform(0.1, 0.75)) * s1
        n = int(rng.integers(6, 10))
        series = tc.TubeNormSeries.from_field(h, L, tuple(range(n)))
        rep = tc.monotonicity_classify(series, beta_prime)
        assert rep.clean, (series, beta_prime)


# ---------------------------------------------------------------------------
# perturbed trials
# ---------------------------------------------------------------------------


def test_perturbed_trial_default_chi_passes():
    rep = tc.perturbed_three_circles_trial(CS, chi=1e-3, trials=40, seed=11)
    assert rep.pass_rate == 1.0
    assert rep.trials == 40 and not rep.failures


def test_perturbed_trial_chi_zero_is_the_plain_certificate():
    rep = tc.perturbed_three_circles_trial(CS, chi=0.0, trials=40, seed=11)
    assert rep.pass_rate == 1.0 and rep.chi == 0.0
