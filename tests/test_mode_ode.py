"""Radial ODE layer: fundamental matrices and the closed-form mode solves.

The independent oracle for the coupled solve is a sparse finite-difference
boundary value problem on a truncated interval; expected values for the
scalar solves were frozen from hand integration of the convolution kernels.
"""

import math

import numpy as np
import pytest
import scipy.sparse
import scipy.sparse.linalg
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import mixed_residual, mixed_state
from cylspec import mode_ode as m
from cylspec.errors import InvalidInput, ResonantRate

MUS = (0.0, 0.5, 1.0, 4.0, 4.0 * math.pi**2)


def richardson_derivative(f, r, h=1e-3):
    return (8.0 * (f(r + h) - f(r - h)) - (f(r + 2 * h) - f(r - 2 * h))) / (12.0 * h)


# ---------------------------------------------------------------------------
# fundamental matrices
# ---------------------------------------------------------------------------


def test_scalar_matrix_entries_frozen():
    assert np.array_equal(m.fundamental_matrix_set(0.0).scalar(2.0), [[1, 2], [0, 1]])
    assert np.allclose(m.fundamental_matrix_set(1.0).scalar(0.0), [[1, 1], [1, -1]])


def test_mixed_matrix_at_zero_is_v():
    V1 = np.array(
        [
            [1, 0, -1, 0],
            [1, 1, 1, -1],
            [1, -3, 1, 3],
            [1, -2, -1, -2],
        ],
        dtype=float,
    )
    assert np.allclose(m.fundamental_matrix_set(1.0).mixed(0.0), V1, atol=1e-14)
    assert np.allclose(m.v_matrix(1.0), V1, atol=1e-14)


def test_v_inverse_exact():
    for mu in (0.5, 1.0, 4.0, 4.0 * math.pi**2):
        prod = m.v_matrix(mu) @ m.v_inverse(mu)
        assert np.max(np.abs(prod - np.eye(4))) < 1e-12, mu


@pytest.mark.parametrize("mu", MUS)
def test_fundamental_matrix_solves_ode(mu):
    fm = m.fundamental_matrix_set(mu)
    A = m.system_matrix(mu)
    for r in np.linspace(-10, 10, 50):
        P = fm.mixed(r)
        D = richardson_derivative(fm.mixed, r)
        scale = max(1.0, np.max(np.abs(A @ P)))
        assert np.max(np.abs(D - A @ P)) / scale < 1e-8


@pytest.mark.parametrize("mu", (0.5, 1.0, 4.0, 4.0 * math.pi**2))
def test_fundamental_matrix_inverse_identity(mu):
    fm = m.fundamental_matrix_set(mu)
    for r in np.linspace(-10, 10, 50):
        err = np.max(np.abs(fm.mixed(r) @ fm.mixed_inverse(r) - np.eye(4)))
        assert err < 1e-12


@pytest.mark.parametrize("mu", (0.5, 1.0, 4.0, 4.0 * math.pi**2))
def test_pair_columns_are_the_columns_of_the_fundamental_matrix(mu):
    # (k, k', l, l') of column j is column j of V e^{J r}
    columns = m.pair_columns(mu)
    assert len(columns) == 4
    fm = m.fundamental_matrix_set(mu)
    for r in np.linspace(-3.0, 3.0, 25):
        P = fm.mixed(r)
        for j, (k, l) in enumerate(columns):
            state = [float(f.evaluate(r)) for f in (k, k.derivative(), l, l.derivative())]
            assert np.max(np.abs(state - P[:, j])) <= 1e-13 * np.max(np.abs(P[:, j])), (r, j)


@pytest.mark.parametrize("mu", (0.5, 1.0, 4.0, 4.0 * math.pi**2))
def test_pair_columns_solve_the_homogeneous_system(mu):
    zero, r = m.RadialProfile.zero(), np.linspace(-3.0, 3.0, 61)
    for k, l in m.pair_columns(mu):
        # the equations' largest term is mu k or a second derivative
        scale = (1.0 + mu) * np.max(np.abs(mixed_state(k, l, r)))
        assert mixed_residual(mu, k, l, zero, zero, r) <= 1e-12 * scale


def test_scalar_fundamental_matrix_solves_ode():
    for mu in MUS:
        fm = m.fundamental_matrix_set(mu)
        A2 = np.array([[0.0, 1.0], [mu, 0.0]])
        for r in np.linspace(-5, 5, 21):
            D = richardson_derivative(fm.scalar, r)
            scale = max(1.0, np.max(np.abs(A2 @ fm.scalar(r))))
            assert np.max(np.abs(D - A2 @ fm.scalar(r))) / scale < 1e-8


def test_negative_mu_rejected():
    with pytest.raises(InvalidInput):
        m.fundamental_matrix_set(-1.0)


def test_characteristic_structure():
    out = m.check_characteristic(4.0)
    assert out["roots"][2.0] == {"algebraic": 2, "geometric": 1}
    assert out["roots"][-2.0] == {"algebraic": 2, "geometric": 1}
    out0 = m.check_characteristic(0.0)
    assert out0["roots"][0.0] == {"algebraic": 4, "geometric": 2}
    assert m.check_characteristic(1.0)["ranks"][1.0] == 3


# ---------------------------------------------------------------------------
# scalar mode solve
# ---------------------------------------------------------------------------


def test_scalar_solve_frozen_example_mu1():
    # alpha = e^{-s}  ->  f = -(r/2 + 1/4) e^{-r}, from hand integration of
    # the two-sided kernel split at the source rate
    f = m.solve_scalar_mode(1.0, m.RadialProfile.monomial(1.0, 0, -1.0))
    r = np.linspace(0, 12, 300)
    expected = -(r / 2.0 + 0.25) * np.exp(-r)
    assert np.max(np.abs(f.evaluate(r) - expected)) < 1e-14


def test_scalar_solve_frozen_example_mu0():
    f = m.solve_scalar_mode(0.0, m.RadialProfile.constant(1.0))
    r = np.linspace(0, 5, 100)
    assert np.max(np.abs(f.evaluate(r) - r**2 / 2.0)) < 1e-13


def test_scalar_solve_zero_source():
    f = m.solve_scalar_mode(4.0, m.RadialProfile.zero())
    assert np.all(f.evaluate(np.linspace(0, 10, 50)) == 0.0)


@pytest.mark.parametrize("mu,rate", [(1.0, -0.4), (4.0, 0.9), (9.0, -3.0)])
def test_scalar_solve_residual(mu, rate):
    alpha = m.RadialProfile.monomial(1.7, 1, rate)
    f = m.solve_scalar_mode(mu, alpha)
    r = np.linspace(0.0, 10.0, 400)
    res = f.derivative().derivative().evaluate(r) - mu * f.evaluate(r) - alpha.evaluate(r)
    assert np.max(np.abs(res)) < 1e-8


def test_scalar_solve_rejects_supercritical_growth():
    with pytest.raises(InvalidInput):
        m.solve_scalar_mode(1.0, m.RadialProfile.monomial(1.0, 0, 1.5))


# ---------------------------------------------------------------------------
# mixed mode solve
# ---------------------------------------------------------------------------


def fd_bvp_oracle(mu, beta_fn, gamma_fn, r_lo=-12.0, r_hi=25.0, n=3700):
    """Sparse FD solve of k'' = 2 mu k - l' + beta, l'' = mu/2 (k' + l) + gamma
    with zero Dirichlet data; sources are truncated to r >= 0."""
    r = np.linspace(r_lo, r_hi, n + 1)
    h = r[1] - r[0]
    interior = r[1:-1]
    ni = interior.size
    beta = np.where(interior >= 0, beta_fn(interior), 0.0)
    gamma = np.where(interior >= 0, gamma_fn(interior), 0.0)

    I = scipy.sparse.identity(ni)
    D2 = scipy.sparse.diags([1.0, -2.0, 1.0], [-1, 0, 1], shape=(ni, ni)) / h**2
    D1 = scipy.sparse.diags([-1.0, 1.0], [-1, 1], shape=(ni, ni)) / (2 * h)
    A = scipy.sparse.bmat(
        [
            [D2 - 2 * mu * I, D1],
            [-(mu / 2) * D1, D2 - (mu / 2) * I],
        ],
        format="csc",
    )
    rhs = np.concatenate([beta, gamma])
    sol = scipy.sparse.linalg.spsolve(A, rhs)
    return interior, sol[:ni], sol[ni:]


def test_mixed_solve_zero_source_is_zero():
    k, l = m.solve_mixed_mode(1.0, m.RadialProfile.zero(), m.RadialProfile.zero())
    r = np.linspace(0, 20, 50)
    assert np.all(k.evaluate(r) == 0.0)
    assert np.all(l.evaluate(r) == 0.0)


def test_mixed_solve_against_fd_bvp():
    mu = 1.0
    beta = m.RadialProfile.monomial(1.0, 0, -2.0)
    sol = m.solve_mixed_mode(mu, beta, m.RadialProfile.zero())
    r, k_fd, l_fd = fd_bvp_oracle(mu, lambda s: np.exp(-2 * s), lambda s: 0.0 * s)
    sel = (r >= 0.5) & (r <= 12.0)
    h = r[1] - r[0]
    tol = 10.0 * h**2 + 1e-5  # truncation + boundary cutoff error
    assert np.max(np.abs(sol.k.evaluate(r[sel]) - k_fd[sel])) < tol
    assert np.max(np.abs(sol.l.evaluate(r[sel]) - l_fd[sel])) < tol


@pytest.mark.parametrize(
    "mu,beta,gamma",
    [
        (1.0, (1.0, 0, -2.0), None),
        (4.0, (0.7, 1, -0.5), (-1.1, 0, -1.0)),
        (0.5, (2.0, 0, 0.3), (1.0, 1, -0.2)),
    ],
)
def test_mixed_solve_residual(mu, beta, gamma):
    b = m.RadialProfile.monomial(*beta)
    g = m.RadialProfile.monomial(*gamma) if gamma else m.RadialProfile.zero()
    k, l = m.solve_mixed_mode(mu, b, g)
    assert mixed_residual(mu, k, l, b, g, np.linspace(0.0, 8.0, 200)) < 1e-8


def test_mixed_solve_rejects_supercritical_growth():
    with pytest.raises(InvalidInput):
        m.solve_mixed_mode(1.0, m.RadialProfile.monomial(1.0, 0, 1.0), m.RadialProfile.zero())
    with pytest.raises(InvalidInput):
        m.solve_mixed_mode(0.0, m.RadialProfile.constant(1.0), m.RadialProfile.zero())



@pytest.mark.parametrize(
    "support",
    [(0.0,), (0.0, 5.0, 6.0), 5.0, (1.0, 5.0), (0.0, 0.0), (0.0, math.inf), (0.0, "5"),
     (0.0, None)],
)
def test_a_malformed_support_window_is_rejected(support):
    # a window that is not a pair, or whose end is not a number, used to
    # raise a bare ValueError or TypeError
    with pytest.raises(InvalidInput, match="support window must be"):
        m.solve_mixed_mode(
            1.0, m.RadialProfile.constant(1.0), m.RadialProfile.zero(), support=support
        )

def test_windowed_solve_tail_constants_frozen():
    # beta = 1 on [0, 10], mu = 1: the decaying-block coefficients are
    #   c2 = 1.5 e^{10} - 1/4,   c3 = -(e^{10} - 1)/8
    # and the tail of k is -(c2 + r c3) e^{-r} with V column entries (-1, 1)
    sol = m.solve_mixed_mode(
        1.0, m.RadialProfile.constant(1.0), m.RadialProfile.zero(), support=(0.0, 10.0)
    )
    c2 = 1.5 * math.exp(10.0) - 0.25
    c3 = -(math.exp(10.0) - 1.0) / 8.0
    for r in (12.0, 20.0, 35.0, 50.0):
        assert sol.k.evaluate(r) == pytest.approx(-(c2 + r * c3) * math.exp(-r), rel=1e-12)


def test_windowed_solve_no_growing_terms_beyond_support():
    # structural certificate: the tail piece is built from the decaying block
    # only, so growing or secular coefficients are absent, not just small
    for mu in (0.5, 1.0, 4.0):
        sol = m.solve_mixed_mode(
            mu,
            m.RadialProfile([(0.3, 0, 0.0), (-1.2, 1, -0.1)]),
            m.RadialProfile.constant(-0.8),
            support=(0.0, 10.0),
        )
        for prof in (sol.k, sol.k.derivative(), sol.l, sol.l.derivative()):
            _, (lo, hi, tail) = prof.pieces
            assert (lo, hi) == (10.0, math.inf) and tail.terms
            # every term decays at the one rate -sqrt(mu): none grows or is secular
            for _, p, lam in tail.terms:
                assert lam == -math.sqrt(mu) and p in (0, 1)


def test_windowed_solve_continuous_at_breakpoint():
    sol = m.solve_mixed_mode(
        2.0, m.RadialProfile.constant(1.0), m.RadialProfile.constant(0.5), support=(0.0, 6.0)
    )
    for prof in (sol.k, sol.k.derivative(), sol.l, sol.l.derivative()):
        left = prof.pieces[0][2].evaluate(6.0)
        right = prof.pieces[1][2].evaluate(6.0)
        assert abs(left - right) < 1e-9 * max(1.0, abs(left))


def test_windowed_solve_interior_residual():
    mu = 1.0
    b = m.RadialProfile.constant(1.0)
    g = m.RadialProfile.zero()
    k, l = m.solve_mixed_mode(mu, b, g, support=(0.0, 10.0))
    assert mixed_residual(mu, k, l, b, g, np.linspace(0.01, 9.99, 300)) < 1e-8


# ---------------------------------------------------------------------------
# pinned bits and return types
# ---------------------------------------------------------------------------

# (mu, beta terms, gamma terms, profiles): the profiles are k and l of the
# global solve, then the body and tail pieces of k and of l on
# support=(0, 5); each term is (coeff.hex(), power, rate), frozen from the
# solver so that a refactor of the assembly keeps every bit
_MIXED_BITS = [
    (4.0, [(0.7, 1, -0.5)], [(-1.1, 0, -1.0)], (
        (
            ("0x1.0c536fe1a8c54p-3", 0, -2.0), ("-0x1.f49f49f49f4a0p-4", 0, -1.0),
            ("-0x1.b2f7010433c28p-9", 0, -0.5), ("0x1.693e93e93e93fp-3", 1, -2.0),
            ("-0x1.64ce9ed57275dp-4", 1, -0.5),
        ),
        (
            ("-0x1.9518a6dfc3519p-1", 0, -2.0), ("0x1.b60b60b60b60cp-1", 0, -1.0),
            ("0x1.0242a89a7ebbcp-3", 0, -0.5), ("-0x1.693e93e93e93fp-2", 1, -2.0),
            ("-0x1.97c790f3f086cp-5", 1, -0.5),
        ),
        (
            ("0x1.0c536fe1a8c54p-3", 0, -2.0), ("-0x1.f49f49f49f4a0p-4", 0, -1.0),
            ("-0x1.b2f7010433c28p-9", 0, -0.5), ("-0x1.7d85aacac6e20p-19", 0, 2.0),
            ("0x1.693e93e93e93fp-3", 1, -2.0), ("-0x1.64ce9ed57275dp-4", 1, -0.5),
            ("0x1.81aa5e32f3d0ap-21", 1, 2.0),
        ),
        (
            ("-0x1.48e48eb9478c5p+11", 0, -2.0), ("0x1.b4cd722882361p+8", 1, -2.0),
        ),
        (
            ("-0x1.9518a6dfc3519p-1", 0, -2.0), ("0x1.b60b60b60b60cp-1", 0, -1.0),
            ("0x1.0242a89a7ebbcp-3", 0, -0.5), ("-0x1.0712c70ef1282p-17", 0, 2.0),
            ("-0x1.693e93e93e93fp-2", 1, -2.0), ("-0x1.97c790f3f086cp-5", 1, -0.5),
            ("0x1.81aa5e32f3d0ap-20", 1, 2.0),
        ),
        (
            ("0x1.edfc12a35e446p+11", 0, -2.0), ("-0x1.b4cd722882361p+9", 1, -2.0),
        ),
    )),
    (2.25, [(0.3, 0, 0.0), (-1.2, 1, -0.1)], [(-0.8, 0, 0.0)], (
        (
            ("0x1.17313b595e82cp-3", 0, -1.5), ("0x1.bfd03bb55d500p-13", 0, -0.1),
            ("-0x1.1111111111112p-4", 0, 0.0), ("-0x1.9e3e7630879b0p-7", 1, -1.5),
            ("0x1.110fac687d634p-2", 1, -0.1),
        ),
        (
            ("-0x1.551e22dcf4571p-3", 0, -1.5), ("-0x1.186e166402fc4p-2", 0, -0.1),
            ("0x1.6c16c16c16c16p-1", 0, 0.0), ("0x1.36aed8a465b44p-6", 1, -1.5),
            ("0x1.b8d0fac687d70p-6", 1, -0.1),
        ),
        (
            ("0x1.17313b595e82cp-3", 0, -1.5), ("0x1.bfd03bb55d500p-13", 0, -0.1),
            ("-0x1.1111111111112p-4", 0, 0.0), ("0x1.5406357d8dae0p-12", 0, 1.5),
            ("-0x1.9e3e7630879b0p-7", 1, -1.5), ("0x1.110fac687d634p-2", 1, -0.1),
            ("-0x1.ddca2dbe4f1aap-14", 1, 1.5),
        ),
        (
            ("0x1.c66e6bb9566f0p+11", 0, -1.5), ("-0x1.358a8f844733ep+9", 1, -1.5),
        ),
        (
            ("-0x1.551e22dcf4571p-3", 0, -1.5), ("-0x1.186e166402fc4p-2", 0, -0.1),
            ("0x1.6c16c16c16c16p-1", 0, 0.0), ("0x1.b230794587ec8p-11", 0, 1.5),
            ("0x1.36aed8a465b44p-6", 1, -1.5), ("0x1.b8d0fac687d70p-6", 1, -0.1),
            ("-0x1.6657a24ebb540p-13", 1, 1.5),
        ),
        (
            ("-0x1.c17db5f2cc3fap+11", 0, -1.5), ("0x1.d04fd7466acddp+9", 1, -1.5),
        ),
    )),
]

# (mu, alpha terms, f) for the scalar solve
_SCALAR_BITS = [
    (1.0, [(1.7, 1, -0.4)], (
        ("-0x1.2e38e38e38e39p+1", 0, -1.0), ("0x1.ed6c8da447fb6p+0", 0, -0.4),
        ("-0x1.030c30c30c30cp+1", 1, -0.4),
    )),
    (0.0, [(1.0, 0, 0.0), (0.5, 1, -0.3)], (
        ("0x1.284bda12f684cp+5", 0, -0.3), ("-0x1.284bda12f684cp+5", 0, 0.0),
        ("0x1.638e38e38e38fp+2", 1, -0.3), ("0x1.638e38e38e38ep+2", 1, 0.0),
        ("0x1.0000000000000p-1", 2, 0.0),
    )),
    (9.0, [(2.0, 0, -1.0), (-0.25, 1, 2.0)], (
        ("0x1.58bf258bf258cp-3", 0, -3.0), ("-0x1.0000000000000p-2", 0, -1.0),
        ("0x1.47ae147ae147ap-5", 0, 2.0), ("0x1.9999999999999p-5", 1, 2.0),
    )),
]


def _hex_terms(prof):
    return tuple((c.hex(), p, lam) for c, p, lam in prof.terms)


@pytest.mark.parametrize("mu,beta,gamma,bits", _MIXED_BITS)
def test_mixed_solves_keep_their_bits_and_types(mu, beta, gamma, bits):
    beta, gamma = m.RadialProfile(beta), m.RadialProfile(gamma)
    glob = m.solve_mixed_mode(mu, beta, gamma)
    win = m.solve_mixed_mode(mu, beta, gamma, support=(0, 5))
    assert type(glob.k) is type(glob.l) is m.RadialProfile
    assert type(win.k) is type(win.l) is m.PiecewiseProfile
    got = [glob.k, glob.l]
    for prof in (win.k, win.l):
        assert [(lo, hi) for lo, hi, _ in prof.pieces] == [(0.0, 5.0), (5.0, math.inf)]
        got += [piece for _, _, piece in prof.pieces]
    assert [_hex_terms(prof) for prof in got] == list(bits)


@pytest.mark.parametrize("mu,alpha,bits", _SCALAR_BITS)
def test_scalar_solves_keep_their_bits_and_type(mu, alpha, bits):
    f = m.solve_scalar_mode(mu, m.RadialProfile(alpha))
    assert type(f) is m.RadialProfile
    assert _hex_terms(f) == bits

# ---------------------------------------------------------------------------
# exact rates and the near-resonance window
# ---------------------------------------------------------------------------


def _rates(solution):
    pieces = solution.pieces if isinstance(solution, m.PiecewiseProfile) else [
        (0.0, math.inf, solution)
    ]
    return {lam for _, _, prof in pieces for _, _, lam in prof.terms}


def _near(lam, sigma):
    return 0.0 < abs(lam - sigma) <= m.RATE_WINDOW * max(1.0, abs(sigma))


@st.composite
def rate_problems(draw):
    """(mu, tau, hi, sources): three sources with rates at -s, -s/2 or in
    (-3s, s), s = sqrt(mu), with no rate inside the resonance window."""
    mu = draw(st.sampled_from((0.5, 1.0, 4.0, 4.0 * math.pi**2)))
    s = math.sqrt(mu)
    rate = st.one_of(
        st.just(-s), st.just(-0.5 * s),
        st.floats(-3.0 * s, s, exclude_max=True, allow_subnormal=False),
    )
    term = st.tuples(st.floats(-2.0, 2.0), st.integers(0, 2), rate)
    sources = [m.RadialProfile(draw(st.lists(term, min_size=1, max_size=4))) for _ in range(3)]
    tau = draw(st.sampled_from((0.0, 0.01, 0.05, 0.5)))
    rates = [lam for src in sources for _, _, lam in src.terms]
    assume(not any(_near(lam, h) for lam in rates for h in (s, -s, 0.0, -tau)))
    return mu, tau, draw(st.floats(0.5, 4.0)), sources


@given(rate_problems())
@settings(max_examples=60, deadline=None)
def test_solutions_carry_only_source_and_homogeneous_rates(problem):
    mu, tau, hi, (a, b, c) = problem
    s = math.sqrt(mu)
    source_rates = {lam for src in (a, b, c) for _, _, lam in src.terms}
    assert _rates(m.solve_scalar_mode(mu, a)) <= source_rates | {s, -s}
    assert _rates(m.solve_scalar_mode(0.0, c)) <= source_rates | {0.0}
    for support in (None, (0.0, hi)):
        sol = m.solve_mixed_mode(mu, a, b, support)
        for prof in (sol.k, sol.k.derivative(), sol.l, sol.l.derivative()):
            assert _rates(prof) <= source_rates | {s, -s}
    assert _rates(m.solve_damped_mode(tau, c)) <= source_rates | {0.0, -tau}


def test_a_tiny_source_rate_is_kept_exactly():
    src = m.RadialProfile.monomial(1.0, 0, -1e-20)
    assert _rates(m.solve_scalar_mode(1.0, src)) == {-1e-20, -1.0}
    zero = m.RadialProfile.zero()
    k_sol, l_sol = m.solve_mixed_mode(4.0, src, zero), m.solve_mixed_mode(4.0, zero, src)
    assert -1e-20 in _rates(k_sol.k) and -1e-20 in _rates(l_sol.l)
    for sol in (k_sol, l_sol):
        for prof in (sol.k, sol.k.derivative(), sol.l, sol.l.derivative()):
            assert 0.0 not in _rates(prof)


@pytest.mark.parametrize("eps", [1e-14, 1e-11])
def test_near_resonant_source_raises(eps):
    # e^{(-2 + eps) r} at mu = 4 sits eps away from the homogeneous rate -2
    src = m.RadialProfile.monomial(1.0, 0, -2.0 + eps)
    with pytest.raises(ResonantRate, match="-2.0"):
        m.solve_scalar_mode(4.0, src)
    with pytest.raises(ResonantRate, match="-2.0"):
        m.solve_mixed_mode(4.0, src, m.RadialProfile.zero())
    with pytest.raises(ResonantRate):
        m.solve_mixed_mode(4.0, m.RadialProfile.zero(), src, support=(0.0, 3.0))


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_a_non_finite_eigenvalue_or_damping_is_rejected_by_name(bad):
    # NaN used to pass every mu < 0 test and return NaN profiles; inf
    # reached the resonance window and raised ResonantRate "within inf"
    src = m.RadialProfile.monomial(1.0, 0, -1.0)
    zero = m.RadialProfile.zero()
    for call in (lambda: m.solve_scalar_mode(bad, src),
                 lambda: m.solve_mixed_mode(bad, src, zero),
                 lambda: m.solve_mixed_mode(bad, src, zero, support=(0.0, 3.0)),
                 lambda: m.fundamental_matrix_set(bad)):
        with pytest.raises(InvalidInput, match=f"mu must be finite and >= 0, got {bad!r}"):
            call()
    with pytest.raises(InvalidInput, match=f"tau must be finite, got {bad!r}"):
        m.solve_damped_mode(bad, src)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1.0])
def test_the_matrix_helpers_reject_a_bad_eigenvalue_by_name(bad):
    # v_matrix(nan) returned NaN rows, v_inverse(inf) inf rows, and
    # check_characteristic(-1.0) raised a bare ValueError
    for call in (m.v_matrix, m.v_inverse, m.check_characteristic):
        with pytest.raises(InvalidInput, match=f"mu must be finite and >= 0, got {bad!r}"):
            call(bad)


def test_the_matrix_helpers_at_mu_zero():
    for call in (m.v_matrix, m.v_inverse):
        with pytest.raises(InvalidInput, match="needs mu > 0"):
            call(0.0)
    assert m.check_characteristic(0.0)["roots"] == {0.0: {"algebraic": 4, "geometric": 2}}


def test_near_resonant_damped_solves_raise():
    with pytest.raises(ResonantRate):
        m.solve_damped_mode(1e-11, m.RadialProfile.constant(1.0))
    with pytest.raises(ResonantRate):
        m.solve_damped_mode(0.0, m.RadialProfile.monomial(1.0, 0, -1e-20))
    # on the homogeneous rate itself the secular branch is exact
    y = m.solve_damped_mode(0.5, m.RadialProfile.monomial(1.0, 0, -0.5))
    r = np.linspace(0.0, 6.0, 50)
    assert np.max(np.abs(y.evaluate(r) - (4.0 - (4.0 + 2.0 * r) * np.exp(-0.5 * r)))) < 1e-13
