"""Green kernels: frozen values, symmetry, and the two-route cross-check.

The library inverts d*d + 2dd* on each positive-eigenvalue sector in closed
form (``solve_scalar_mode``, ``solve_mixed_mode``).  This file keeps a
second, independent route: the kernel table below, integrated by
quadrature.  The load-bearing test is quadrature-vs-closed-form:
integrating the table directly must reproduce the variation-of-parameters
solver, which pins every coefficient in the table independently of its
derivation.

The scalar kernel e^{-sqrt(mu)|t-s|} / (2 sqrt(mu)) covers the coclosed
one-form legs.  On the scalar-pair sector the kernel blocks multiply the
operator-level source components (b, c) of  b * d_N phi + c * phi dr:

    k(t) = int  mu * K_dd(t,s) b(s) + K_dp(t,s) c(s)  ds
    l(t) = int  mu * K_pd(t,s) b(s) + K_pp(t,s) c(s)  ds

with, writing q = sqrt(mu) and u = |t - s|,

    K_dd = (-u / (8 mu) + 3 / (8 mu q)) e^{-q u}
    K_dp = ((s - t) / (8 q)) e^{-q u}
    K_pd = ((t - s) / (8 q)) e^{-q u}
    K_pp = (u / 8 + 3 / (8 q)) e^{-q u}

The mu factor on the b column accounts for the d_N phi legs being scaled by
q relative to unit-norm cross-section data.  The off-diagonal blocks are
antisymmetric under swapping source and observation points, the diagonal
ones symmetric, and K_dp/K_pp carry half the weight of a naive
integration-by-parts bookkeeping; the whole table was pinned down by
requiring the quadrature route to reproduce the ODE solver, which it does
to quadrature tolerance.
"""

import math

import numpy as np
import pytest
import scipy.integrate

from conftest import mixed_state
from cylspec import green_kernel as gk
from cylspec.errors import InvalidInput
from cylspec.mode_ode import (
    RadialProfile,
    fundamental_matrix_set,
    solve_mixed_mode,
    solve_scalar_mode,
)

# Relative quadrature target.  The s-integration window is
# |t - s| <= (40 + |log QUAD_TOL|) / sqrt(mu), inside which the dropped tail
# is below QUAD_TOL by the exponential envelope.
QUAD_TOL = 1e-10


def eval_type1(mu, t, s):
    """Scalar kernel e^{-sqrt(mu)|t-s|} / (2 sqrt(mu)) for the coclosed legs."""
    if mu <= 0:
        raise InvalidInput("type-1 kernel needs mu > 0")
    q = math.sqrt(mu)
    return math.exp(-q * abs(t - s)) / (2.0 * q)


def eval_type2(mu, t, s):
    """Block kernel for the scalar-pair sector; see the module docstring.

    Keys name the (observation leg, source leg) pair: "dN_dN", "dN_dr",
    "dr_dN", "dr_dr".
    """
    if mu <= 0:
        raise InvalidInput("type-2 kernel needs mu > 0")
    q = math.sqrt(mu)
    u = abs(t - s)
    e = math.exp(-q * u)
    return {
        "dN_dN": (-u / (8.0 * mu) + 3.0 / (8.0 * mu * q)) * e,
        "dN_dr": ((s - t) / (8.0 * q)) * e,
        "dr_dN": ((t - s) / (8.0 * q)) * e,
        "dr_dr": (u / 8.0 + 3.0 / (8.0 * q)) * e,
    }


def _quad_window(integrand, t, mu):
    """Integrate over s in the window around t, split at the kink s = t."""
    width = (40.0 + abs(math.log(QUAD_TOL))) / math.sqrt(mu)
    lo, hi = max(0.0, t - width), t + width
    kink = [t] if lo < t < hi else []
    val, _ = scipy.integrate.quad(
        integrand, lo, hi, points=kink, epsabs=1e-13, epsrel=QUAD_TOL, limit=200
    )
    return val


def quad_type1(mu, alpha, r_grid):
    """Decaying solution of f'' - mu f = alpha on r_grid, by quadrature of
    the scalar kernel."""
    return np.array(
        [
            -_quad_window(lambda s, t=t: eval_type1(mu, t, s) * float(alpha.evaluate(s)), t, mu)
            for t in r_grid
        ]
    )


def quad_type2(mu, beta, gamma, r_grid):
    """Decaying (k, l) of the coupled system with state sources (beta, gamma)
    on r_grid, by quadrature of the block kernel."""
    # kernel blocks act on the operator-level components (b, c)
    b = beta.scale(-1.0)
    c = gamma.scale(-2.0)
    k_vals, l_vals = [], []
    for t in r_grid:
        def k_igd(s, t=t):
            K = eval_type2(mu, t, s)
            return mu * K["dN_dN"] * float(b.evaluate(s)) + K["dN_dr"] * float(c.evaluate(s))

        def l_igd(s, t=t):
            K = eval_type2(mu, t, s)
            return mu * K["dr_dN"] * float(b.evaluate(s)) + K["dr_dr"] * float(c.evaluate(s))

        k_vals.append(_quad_window(k_igd, t, mu))
        l_vals.append(_quad_window(l_igd, t, mu))
    return np.array(k_vals), np.array(l_vals)


def test_type1_frozen_values():
    assert eval_type1(4.0, 1.0, 1.0) == pytest.approx(0.25)
    assert eval_type1(1.0, 0.0, math.log(2.0)) == pytest.approx(0.25)
    assert eval_type1(1.0, 0.0, 80.0) < 1e-30


def test_type1_symmetry():
    for t, s in [(0.3, 2.0), (-1.0, 4.0), (5.5, 5.5)]:
        assert eval_type1(2.0, t, s) == eval_type1(2.0, s, t)


def test_type2_frozen_diagonal_values():
    # both diagonal blocks evaluate to 3/8 at mu=1, t=s; the dr(x)dr value
    # is half the naive bookkeeping and is pinned by the round-trip tests
    K = eval_type2(1.0, 2.0, 2.0)
    assert K["dN_dN"] == pytest.approx(3.0 / 8.0)
    assert K["dr_dr"] == pytest.approx(3.0 / 8.0)
    assert K["dN_dr"] == 0.0
    assert K["dr_dN"] == 0.0


def test_type2_block_symmetries():
    for t, s in [(0.5, 3.0), (4.0, 1.0)]:
        K = eval_type2(2.5, t, s)
        Kt = eval_type2(2.5, s, t)
        assert K["dN_dN"] == pytest.approx(Kt["dN_dN"])
        assert K["dr_dr"] == pytest.approx(Kt["dr_dr"])
        assert K["dN_dr"] == pytest.approx(-Kt["dN_dr"])
        assert K["dN_dr"] == pytest.approx(Kt["dr_dN"])


def test_type2_continuity_across_diagonal():
    for mu in (0.5, 1.0, 4.0, 4 * math.pi**2):
        up = eval_type2(mu, 2.0 + 1e-8, 2.0)
        down = eval_type2(mu, 2.0 - 1e-8, 2.0)
        for key in up:
            assert abs(up[key] - down[key]) < 1e-7


def test_kernel_decay_envelope():
    # |kernel| <= (a + b|t-s|) e^{-sqrt(mu)|t-s|} with a linear polynomial
    mu = 2.0
    q = math.sqrt(mu)
    for u in np.linspace(0.1, 30.0, 40):
        K = eval_type2(mu, u, 0.0)
        envelope = (1.0 + u) * math.exp(-q * u)
        for key in K:
            assert abs(K[key]) <= envelope
        assert eval_type1(mu, u, 0.0) <= envelope


def test_kernels_reject_nonpositive_mu():
    with pytest.raises(InvalidInput):
        eval_type1(0.0, 0.0, 1.0)
    with pytest.raises(InvalidInput):
        eval_type2(-1.0, 0.0, 1.0)


def test_apply_green_zero_source():
    # the closed-form Green solve maps a zero source to the zero profile
    f = solve_scalar_mode(4.0, RadialProfile.zero())
    sol = solve_mixed_mode(1.0, RadialProfile.zero(), RadialProfile.zero())
    r = np.linspace(0, 10, 20)
    assert np.all(f.evaluate(r) == 0.0)
    assert np.all(sol.k.evaluate(r) == 0.0)


def test_quadrature_reproduces_closed_form_type1():
    mu = 4.0
    alpha = RadialProfile.monomial(1.0, 0, -1.0)
    grid = np.linspace(0.0, 8.0, 9)
    got = quad_type1(mu, alpha, grid)
    closed = solve_scalar_mode(mu, alpha)
    assert np.max(np.abs(got - closed.evaluate(grid))) < 1e-9


@pytest.mark.parametrize(
    "mu,brate,crate", [(1.0, -2.0, None), (4.0, -0.5, -1.0), (0.49, -0.3, -0.6)]
)
def test_quadrature_reproduces_closed_form_type2(mu, brate, crate):
    beta = RadialProfile.monomial(1.0, 0, brate)
    gamma = RadialProfile.monomial(0.7, 0, crate) if crate else RadialProfile.zero()
    grid = np.linspace(0.0, 8.0, 9)
    kq, lq = quad_type2(mu, beta, gamma, grid)
    sol = solve_mixed_mode(mu, beta, gamma)
    assert np.max(np.abs(kq - sol.k.evaluate(grid))) < 1e-9
    assert np.max(np.abs(lq - sol.l.evaluate(grid))) < 1e-9


def test_round_trip_recovers_one_form_scalar_leg():
    # feed the operator image of a known decaying f back through the solver;
    # the output differs only by a homogeneous decaying piece, removable by
    # matching data at r = 0
    mu = 4.0
    f = RadialProfile.monomial(1.0, 1, -1.0)
    alpha = f.derivative().derivative() - f.scale(mu)
    rec = solve_scalar_mode(mu, alpha)
    r = np.linspace(0.0, 8.0, 200)
    delta0 = rec.evaluate(0.0) - f.evaluate(0.0)
    # homogeneous decaying correction c e^{-2r} matched at r = 0
    corrected = rec.evaluate(r) - delta0 * np.exp(-2.0 * r)
    err = np.max(np.abs(corrected - f.evaluate(r)))
    assert err < 1e-8


def test_round_trip_recovers_pair():
    mu = 1.0
    fm = fundamental_matrix_set(mu)
    k = RadialProfile.monomial(1.0, 0, -2.0)
    l = RadialProfile.monomial(-0.5, 1, -1.5)
    # system sources produced by this (k, l)
    beta = k.derivative().derivative() - k.scale(2 * mu) + l.derivative()
    gamma = l.derivative().derivative() - (k.derivative() + l).scale(mu / 2.0)
    sol = solve_mixed_mode(mu, beta, gamma)
    # difference solves the homogeneous system; both sides decay, so its
    # expansion over the fundamental system has no growing component
    delta0 = mixed_state(sol.k, sol.l, 0.0).ravel() - np.array(
        [k.evaluate(0.0), k.derivative().evaluate(0.0), l.evaluate(0.0), l.derivative().evaluate(0.0)]
    )
    coeffs = fm.mixed_inverse(0.0) @ delta0
    assert np.max(np.abs(coeffs[:2])) < 1e-10  # growing block empty
    r = np.linspace(0.0, 10.0, 60)
    for ri in r:
        correction = fm.mixed(ri) @ np.concatenate([[0.0, 0.0], coeffs[2:]])
        got = mixed_state(sol.k, sol.l, ri).ravel() - correction
        want = np.array(
            [k.evaluate(ri), k.derivative().evaluate(ri), l.evaluate(ri), l.derivative().evaluate(ri)]
        )
        assert np.max(np.abs(got - want)) < 1e-8


def test_weighted_norm_ramp_and_tail():
    grid = np.linspace(0.0, 30.0, 3001)
    flat = RadialProfile.constant(1.0)
    # weight is 1 near r=0 and e^{rho r} on the end
    assert gk.weighted_sup_norm(flat, 1.0, grid) == pytest.approx(math.exp(30.0), rel=1e-9)
    decaying = RadialProfile.monomial(1.0, 0, -1.0)
    assert gk.weighted_sup_norm(decaying, 1.0, grid) == pytest.approx(1.0, rel=1e-9)


def test_weighted_norm_no_overflow_at_large_rho():
    grid = np.linspace(0.0, 200.0, 2001)
    rho = 6.2
    # e^{rho r} alone overflows past r = 114; folded into the profile's rate
    # it cancels e^{-rho r} exactly
    prof = RadialProfile.monomial(1.0, 0, -rho)
    assert gk.weighted_sup_norm(prof, rho, grid) == 1.0


def test_bound_fit_exponents():
    mu1 = 4 * math.pi**2
    rhos = [f * math.sqrt(mu1) for f in (0.5, 0.8, 0.9, 0.95, 0.99)]
    fit1 = gk.estimate_weighted_bound(mu1, rhos, "one_form")
    assert fit1.exponent <= 1.15
    assert fit1.exponent > 0.5  # the blow-up is real, not an artifact
    fit2 = gk.estimate_weighted_bound(mu1, rhos, "pair")
    assert fit2.exponent <= 2.15
    assert fit2.exponent > 1.5


def test_bound_fit_rejects_bad_rho():
    # NaN fails every comparison, so it must not slip past the range check;
    # a line through fewer than two distinct points has no meaningful slope
    for rhos in ([0.5, 1.5], [], [0.5, math.nan, 0.9], [math.nan], [0.5], [0.5, 0.5]):
        with pytest.raises(InvalidInput):
            gk.estimate_weighted_bound(1.0, rhos)


def test_bound_fit_rejects_a_bad_eigenvalue_by_name():
    # -1.0 used to reach math.sqrt and raise a bare ValueError
    for mu1 in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(InvalidInput, match=f"mu1 must be positive and finite, got {mu1!r}"):
            gk.estimate_weighted_bound(mu1, [0.5, 0.9])


def test_small_rho_ratio_matches_direct_computation():
    mu1 = 4 * math.pi**2
    ratio = gk._norm_ratio(mu1, 1e-9, "one_form")
    assert ratio == pytest.approx(1.0 / mu1, rel=1e-6)
