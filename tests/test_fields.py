"""Exact tensor calculus on separated fields.

These are the closed-form oracles the solvers lean on: operator identities
that must hold to round-off, checked coefficient-wise rather than on grids.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cylspec import cross_section as cx, fields as F
from cylspec.mode_ode import RadialProfile

CS = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
SCALARS = cx.build_spectrum(CS, "Scalar").modes
TTS = cx.build_spectrum(CS, "TTTensor").modes
COCLOSED = cx.build_spectrum(CS, "CoclosedOneForm").modes
HARMONIC = cx.build_spectrum(CS, "HarmonicOneForm").modes

PHI = next(m for m in SCALARS if m.freq == (1, 0, 0) and m.phase == "cos")
PHI0 = next(m for m in SCALARS if not any(m.freq))
B_OSC = next(m for m in TTS if any(m.freq))
B_PAR = next(m for m in TTS if not any(m.freq))
ETA = next(m for m in COCLOSED if any(m.freq))


def field_close(a, b, tol=1e-11):
    diff = (a - b).max_abs_coeff()
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return diff <= tol * scale


def test_metric_is_ricci_flat_linearization_fixed_point():
    assert F.linearized_ricci(F.metric_field(CS)).is_zero()


def test_decaying_tt_mode_in_kernel():
    mu = B_OSC.eigenvalue
    h = F.from_mode_profile(CS, B_OSC, RadialProfile.monomial(1.0, 0, -math.sqrt(mu)))
    assert F.linearized_ricci(h).max_abs_coeff() < 1e-12


def test_quadratic_parallel_tt_frozen_value():
    # r^2 B0 maps to -B0: only the radial second derivative acts, times
    # the half in the Ricci variation
    h = F.from_mode_profile(CS, B_PAR, RadialProfile.monomial(1.0, 2, 0.0))
    expected = F.from_mode_profile(CS, B_PAR, RadialProfile.constant(-1.0))
    assert field_close(F.linearized_ricci(h), expected, tol=1e-14)


@pytest.mark.parametrize(
    "make",
    [
        lambda: F.pair_one_form(
            CS, PHI, RadialProfile.monomial(2.0, 1, -0.3), RadialProfile.monomial(-1.5, 0, 0.2)
        ),
        lambda: F.from_mode_profile(CS, ETA, RadialProfile.monomial(1.0, 1, 0.1)),
        lambda: F.radial_one_form(CS, PHI0, RadialProfile.monomial(1.0, 3, 0.0)),
        lambda: F.from_mode_profile(CS, HARMONIC[1], RadialProfile([(1.0, 1, 0.0), (2.0, 0, -1.0)])),
    ],
)
def test_gauge_invariance_of_linearization(make):
    # the linearization annihilates every Lie-derivative deformation
    X = make()
    assert F.linearized_ricci(F.sym_grad(X)).max_abs_coeff() < 1e-11


def test_gauge_operator_matches_scalar_pair_reduction():
    mu = PHI.eigenvalue
    k = RadialProfile.monomial(1.0, 1, -0.7)
    l = RadialProfile.monomial(0.5, 0, -0.2)
    out = F.gauge_one_form_operator(F.pair_one_form(CS, PHI, k, l))
    b = k.derivative().derivative().scale(-1.0) + k.scale(2 * mu) - l.derivative()
    c = l.derivative().derivative().scale(-2.0) + k.derivative().scale(mu) + l.scale(mu)
    assert field_close(out, F.pair_one_form(CS, PHI, b, c), tol=1e-13)


def test_gauge_operator_matches_coclosed_reduction():
    f = RadialProfile.monomial(1.3, 1, -0.4)
    out = F.gauge_one_form_operator(F.from_mode_profile(CS, ETA, f))
    g = f.derivative().derivative().scale(-1.0) + f.scale(ETA.eigenvalue)
    assert field_close(out, F.from_mode_profile(CS, ETA, g), tol=1e-13)


def test_lie_derivative_component_formulas():
    # sym_grad of k d_N phi + l phi dr:
    #   dr(x)dr block 2 l', mixed block (k' + l) d_N phi, tangential 2 k Hess_N phi
    k = RadialProfile.monomial(0.8, 0, -1.0)
    l = RadialProfile.monomial(-0.3, 1, -0.5)
    lie = F.sym_grad(F.pair_one_form(CS, PHI, k, l))

    expected = F.rr_tensor(CS, PHI, l.derivative().scale(2.0))
    grad_phi = F.gradient(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)))
    hess_phi = F.hessian(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)))
    # build d_N phi (x) dr + dr (x) d_N phi directly from the gradient field
    pair_mix = F.TensorField(CS, 2)
    for mode_key, prof_key, C in grad_phi.terms():
        M = np.zeros((CS.dim + 1, CS.dim + 1))
        M[0, :] = C
        M[:, 0] += C
        M[0, 0] = 0.0
        pair_mix._accumulate(mode_key, prof_key, M)
    kl = k.derivative() + l
    expected = expected + pair_mix.multiply_profile(kl) + hess_phi.multiply_profile(k.scale(2.0))
    assert field_close(lie, expected, tol=1e-12)


def test_lie_derivative_trace_formula():
    k = RadialProfile.monomial(0.8, 0, -1.0)
    l = RadialProfile.monomial(-0.3, 1, -0.5)
    tr = F.trace(F.sym_grad(F.pair_one_form(CS, PHI, k, l)))
    expected = F.scalar_field(CS, PHI, (l.derivative() - k.scale(PHI.eigenvalue)).scale(2.0))
    assert field_close(tr, expected, tol=1e-12)


def test_killing_fields_have_zero_lie_derivative():
    # constant dr and constant harmonic forms generate isometries
    u = F.radial_one_form(CS, PHI0, RadialProfile.constant(3.0))
    assert F.sym_grad(u).is_zero()
    h = F.from_mode_profile(CS, HARMONIC[0], RadialProfile.constant(2.0))
    assert F.sym_grad(h).is_zero()


def test_rough_laplacian_eigenmode():
    f = F.scalar_field(CS, PHI, RadialProfile.constant(1.0))
    out = F.rough_laplacian(f)
    assert field_close(out, F.scalar_field(CS, PHI, RadialProfile.constant(PHI.eigenvalue)))


def test_divergence_sign_convention():
    # delta(f dr) = -f' for an x-independent radial 1-form
    w = F.radial_one_form(CS, PHI0, RadialProfile.monomial(1.0, 1, 0.0))
    out = F.divergence(w)
    expected = F.scalar_field(CS, PHI0, RadialProfile.constant(-1.0))
    assert field_close(out, expected, tol=1e-14)


def test_adjointness_sym_grad_divergence():
    # int <sym_grad w, h> = 2 int <w, delta h> over [0, inf) x N when the
    # boundary terms vanish; r^2 factors kill them at r = 0
    w = F.pair_one_form(
        CS, PHI, RadialProfile.monomial(1.0, 2, -1.0), RadialProfile.monomial(0.5, 3, -1.0)
    ) + F.from_mode_profile(CS, ETA, RadialProfile.monomial(-0.7, 2, -0.5))
    h = F.from_mode_profile(CS, B_OSC, RadialProfile.monomial(1.0, 2, -0.8))
    h = h + F.rr_tensor(CS, PHI, RadialProfile.monomial(0.4, 2, -1.2))
    h = h + F.mixed_pair_tensor(CS, ETA, RadialProfile.monomial(1.1, 2, -0.6))
    lhs = F.tube_inner_product(F.sym_grad(w), h, 0.0, math.inf)
    rhs = 2.0 * F.tube_inner_product(w, F.divergence(h), 0.0, math.inf)
    assert lhs == pytest.approx(rhs, rel=1e-10)


def test_tube_norm_frozen_value():
    h = F.from_mode_profile(CS, B_OSC, RadialProfile.monomial(1.0, 0, -1.0))
    got = F.tube_norm_sq(h, 0.0, 1.0)
    assert got == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-13)


def test_tube_inner_product_cross_mode_orthogonality():
    a = F.from_mode_profile(CS, B_OSC, RadialProfile.constant(1.0))
    other = next(
        m for m in TTS if any(m.freq) and (m.freq, m.phase) != (B_OSC.freq, B_OSC.phase)
    )
    b = F.from_mode_profile(CS, other, RadialProfile.constant(1.0))
    assert F.tube_inner_product(a, b, 0.0, 2.0) == 0.0


def test_projection_roundtrip():
    prof = RadialProfile([(1.5, 0, -0.5), (-2.0, 1, -1.0)])
    h = F.from_mode_profile(CS, B_OSC, prof)
    h = h + F.from_mode_profile(CS, B_PAR, RadialProfile.constant(3.0))
    back = F.project_onto_mode(h, B_OSC)
    r = np.linspace(0, 5, 50)
    assert np.max(np.abs(back.evaluate(r) - prof.evaluate(r))) < 1e-12
    # and the parallel part projects out separately
    back0 = F.project_onto_mode(h, B_PAR)
    assert np.max(np.abs(back0.evaluate(r) - 3.0)) < 1e-12


def test_evaluate_matches_pointwise_sum():
    rng = np.random.default_rng(11)
    w = F.pair_one_form(
        CS, PHI, RadialProfile.monomial(2.0, 1, -0.3), RadialProfile.monomial(-1.5, 0, 0.2)
    )
    rr = rng.uniform(0.0, 2.0, 4)
    xx = rng.uniform(0.0, 1.0, (5, 3))
    vals = w.evaluate(rr, xx)
    omega = np.array(PHI.omega)
    amp = float(PHI.polarization)
    for i, r in enumerate(rr):
        for j, x in enumerate(xx):
            kv = 2.0 * r * math.exp(-0.3 * r)
            lv = -1.5 * math.exp(0.2 * r)
            assert vals[i, j, 0] == pytest.approx(lv * amp * math.cos(omega @ x), abs=1e-12)
            assert np.allclose(
                vals[i, j, 1:], kv * amp * (-omega) * math.sin(omega @ x), atol=1e-12
            )


def _pointwise_sum(field, r, xs):
    """Reference values: an explicit loop over field.terms() at every point."""
    rr = np.atleast_1d(np.asarray(r, dtype=float))
    pts = np.asarray(xs, dtype=float).reshape(-1, field.cs.dim)
    out = np.zeros((rr.size, len(pts)) + (field.cs.dim + 1,) * field.rank)
    for (freq, phase), (p, lam), C in field.terms():
        omega = field.cs.omega(freq)
        trig = math.cos if phase == "cos" else math.sin
        for i, rv in enumerate(rr):
            rad = rv**p * math.exp(lam * rv)
            for s, x in enumerate(pts):
                out[i, s] += rad * trig(float(omega @ x)) * C
    return out


@st.composite
def _sampled_fields(draw):
    d = draw(st.sampled_from((2, 3)))
    rank = draw(st.sampled_from((0, 1, 2)))
    sides = tuple(draw(st.sampled_from((1.0, 2.0, 2 * math.pi))) for _ in range(d))
    cs = cx.TorusCrossSection(d, sides, 2)
    key = st.tuples(
        st.tuples(*[st.integers(-2, 2)] * d),
        st.sampled_from(("cos", "sin")),
        st.integers(0, 2),
        st.floats(-2.0, 1.0, allow_nan=False).map(lambda v: round(v, 3)),
    )
    keys = draw(st.lists(key, max_size=8, unique=True))
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    terms = [
        (k, np.array(draw(st.lists(coeff, min_size=(d + 1) ** rank, max_size=(d + 1) ** rank)))
         .reshape((d + 1,) * rank))
        for k in keys
    ]
    order = draw(st.permutations(range(len(terms))))
    if draw(st.booleans()):
        r = draw(st.floats(0.0, 3.0))
    else:
        r = np.linspace(0.0, 3.0, draw(st.integers(1, 5)))
    shape = draw(st.sampled_from(("flat", "mesh", "point")))
    if shape == "flat":
        point = st.tuples(*[st.floats(0.0, 2 * math.pi)] * d)
        xs = np.array(draw(st.lists(point, min_size=1, max_size=6)))
    elif shape == "mesh":
        axes = [L / 3 * np.arange(3) for L in sides]
        xs = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1)
    else:
        xs = np.full(d, 0.7)
    return cs, rank, terms, order, r, xs


def _field_from_terms(cs, rank, terms):
    out = F.TensorField.zero(cs, rank)
    for (freq, phase, p, lam), C in terms:
        out = out + F.TensorField(cs, rank, {(freq, phase): {(p, lam): C}})
    return out


@given(_sampled_fields())
@settings(max_examples=60, deadline=None)
def test_evaluate_matches_term_sum_in_any_layout(case):
    cs, rank, terms, order, r, xs = case
    field = _field_from_terms(cs, rank, terms)
    vals = field.evaluate(r, xs)
    tensor_shape = (cs.dim + 1,) * rank
    assert vals.shape == np.atleast_1d(r).shape + xs.shape[:-1] + tensor_shape
    want = _pointwise_sum(field, r, xs)
    # r^p e^{lam r} is at most 9 e^3 for r <= 3, p <= 2, lam <= 1
    scale = 1.0 + sum(float(np.max(np.abs(C), initial=0.0)) for _, C in terms) * 9 * math.exp(3.0)
    got = vals.reshape(want.shape)
    assert np.max(np.abs(got - want), initial=0.0) <= 1e-13 * scale
    # deterministic, and blind to the order in which terms were added
    assert field.evaluate(r, xs).tobytes() == vals.tobytes()
    shuffled = _field_from_terms(cs, rank, [terms[i] for i in order])
    assert shuffled.evaluate(r, xs).tobytes() == vals.tobytes()


def test_field_scaling_and_pruning():
    h = F.from_mode_profile(CS, B_OSC, RadialProfile.constant(2.0))
    assert h.scale(0.5).max_abs_coeff() == pytest.approx(h.max_abs_coeff() / 2)
    tiny = h + F.from_mode_profile(CS, B_PAR, RadialProfile.constant(1e-15))
    assert len(tiny.prune(1e-12).data) == 1
