"""Exact tensor calculus on separated fields.

These are the closed-form oracles the solvers lean on: operator identities
that must hold to round-off, checked coefficient-wise rather than on grids.
"""

import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylspec import cross_section as cx, fields as F
from cylspec.errors import InvalidInput
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
    out = F.divergence(F.sym_grad(F.pair_one_form(CS, PHI, k, l)))
    b = k.derivative().derivative().scale(-1.0) + k.scale(2 * mu) - l.derivative()
    c = l.derivative().derivative().scale(-2.0) + k.derivative().scale(mu) + l.scale(mu)
    assert field_close(out, F.pair_one_form(CS, PHI, b, c), tol=1e-13)


def test_gauge_operator_matches_coclosed_reduction():
    f = RadialProfile.monomial(1.3, 1, -0.4)
    out = F.divergence(F.sym_grad(F.from_mode_profile(CS, ETA, f)))
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
    hess_phi = F.gradient(F.gradient(F.scalar_field(CS, PHI, RadialProfile.constant(1.0))))
    # build d_N phi (x) dr + dr (x) d_N phi directly from the gradient field
    mixed = []
    for mode_key, prof_key, C in grad_phi.terms():
        M = np.zeros((CS.dim + 1, CS.dim + 1))
        M[0, :] = C
        M[:, 0] += C
        M[0, 0] = 0.0
        mixed.append((mode_key, prof_key, M))
    pair_mix = F.TensorField(CS, 2, mixed)
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
    got = F.tube_inner_product(h, h, 0.0, 1.0)
    assert got == pytest.approx((1.0 - math.exp(-2.0)) / 2.0, rel=1e-13)


def test_tube_inner_product_cross_mode_orthogonality():
    a = F.from_mode_profile(CS, B_OSC, RadialProfile.constant(1.0))
    other = next(
        m for m in TTS if any(m.freq) and (m.freq, m.phase) != (B_OSC.freq, B_OSC.phase)
    )
    b = F.from_mode_profile(CS, other, RadialProfile.constant(1.0))
    assert F.tube_inner_product(a, b, 0.0, 2.0) == 0.0


@pytest.mark.parametrize(
    "key, message",
    [
        # on T^2(1, 1) a sin term at frequency zero evaluated to 0 but had tube
        # norm 1 over [0, 1], and cos terms at (-1, 0) and (1, 0) sampled alike
        # but paired to 0 and did not cancel in a difference
        (((0, 0), "sin"), r"frequency \[0, 0\]: frequency zero carries no sin phase"),
        (((-1, 0), "cos"), r"frequency \[-1, 0\] is outside the canonical half-space"),
        (((1,), "cos"), r"frequency \[1\] needs 2 entries"),
        (((1.5, 0), "cos"), r"frequency \[1.5, 0\] needs integer entries"),
        (((1, 0), "tan"), r"phase must be cos or sin, got 'tan'"),
        # entries int() cannot read raised a bare ValueError or TypeError
        ((("a", 0), "cos"), r"frequency \['a', 0\] needs integer entries"),
        (((math.nan, 0), "cos"), r"frequency \[nan, 0\] needs integer entries"),
        (((math.inf, 0), "cos"), r"frequency \[inf, 0\] needs integer entries"),
        (((None, 0), "cos"), r"frequency \[None, 0\] needs integer entries"),
        ((1, "cos"), r"frequency 1 needs 2 integer entries"),
    ],
)
def test_a_field_term_must_name_a_mode(key, message):
    cs = cx.TorusCrossSection(2, (1.0, 1.0), 1)
    with pytest.raises(InvalidInput, match=message):
        F.TensorField(cs, 0, [(key, (0, 0.0), 1.0)])


def test_a_mode_key_above_the_cutoff_is_a_field_term():
    cs = cx.TorusCrossSection(2, (1.0, 1.0), 1)
    h = F.TensorField(cs, 0, [(((3, -2), "sin"), (0, 0.0), 1.0), (((0, 0), "cos"), (0, 0.0), 2.0)])
    assert h.keys() == [((0, 0), "cos"), ((3, -2), "sin")]


def _pairwise_tube_reference(a, b, r_lo, r_hi):
    """The former tube_inner_product: one profile and one definite integral
    per pair of terms.  Returns the total and the sum of the pair
    magnitudes, the scale any cancellation is measured against."""
    total, scale = 0.0, 0.0
    for mode_key in sorted(a.data.keys() & b.data.keys()):
        factor = a.cs.volume if not any(mode_key[0]) else a.cs.volume / 2.0
        for (p1, l1), C1 in a.data[mode_key].items():
            for (p2, l2), C2 in b.data[mode_key].items():
                dot = float(np.sum(C1 * C2))
                if dot == 0.0:
                    continue
                rad = RadialProfile(((1.0, p1 + p2, l1 + l2),)).definite_integral(r_lo, r_hi)
                total += factor * dot * rad
                scale += abs(factor * dot * rad)
    return total, scale


_TUBE_KEYS = (((0, 0, 0), "cos"), ((1, 0, 0), "cos"), ((1, 0, 0), "sin"), ((0, 1, -1), "cos"))


@st.composite
def _tube_pairs(draw):
    rank = draw(st.sampled_from((0, 1, 2)))
    to_inf = draw(st.booleans())
    # +-s pairs give rate sums of exactly 0; a tail to infinity needs decay
    rates = (-1.5, -0.5) if to_inf else (-1.5, -0.5, 0.0, 0.5, 1.5)
    term = st.tuples(st.sampled_from(_TUBE_KEYS), st.integers(0, 1), st.sampled_from(rates))
    coeff = st.floats(-3.0, 3.0, allow_nan=False)
    shape = (CS.dim + 1,) * rank
    n = (CS.dim + 1) ** rank

    def terms():
        keys = draw(st.lists(term, max_size=6, unique=True))
        return [((freq, phase, p, lam),
                 np.array(draw(st.lists(coeff, min_size=n, max_size=n))).reshape(shape))
                for (freq, phase), p, lam in keys]

    a_terms = terms()
    b_terms = a_terms if draw(st.booleans()) else terms()
    r_lo = draw(st.floats(0.0, 2.0))
    r_hi = math.inf if to_inf else r_lo + draw(st.floats(0.05, 3.0))
    order = draw(st.permutations(range(len(a_terms))))
    return rank, a_terms, b_terms, r_lo, r_hi, order


# a subnormal tube value: the two routes round it one subnormal ulp apart,
# which the relative tolerance alone does not cover
_SUBNORMAL_TUBE = [((0, 0, 0), "cos", 1, -0.5), np.array(float.fromhex("0x1.26c8905426646p-523"))]
# one ulp of the smallest normal double, the spacing of the subnormals
_SUBNORMAL_ULP = math.ulp(sys.float_info.min)


@given(_tube_pairs())
@example((0, [_SUBNORMAL_TUBE], [_SUBNORMAL_TUBE], 1.0, math.inf, [0]))
@settings(max_examples=80, deadline=None)
def test_tube_integrand_matches_pairwise_integrals(case):
    rank, a_terms, b_terms, r_lo, r_hi, order = case
    a = _field_from_terms(CS, rank, a_terms)
    b = _field_from_terms(CS, rank, b_terms)
    want, scale = _pairwise_tube_reference(a, b, r_lo, r_hi)
    got = F.tube_inner_product(a, b, r_lo, r_hi)
    assert abs(got - want) <= 1e-12 * scale + _SUBNORMAL_ULP
    # the integrand itself, pointwise, against the pair sum
    integrand = F.tube_integrand(a, b)
    for r in (r_lo, r_lo + 0.37):
        pairs = [
            (a.cs.volume if not any(k[0]) else a.cs.volume / 2.0)
            * float(np.sum(C1 * C2)) * r ** (p1 + p2) * math.exp((l1 + l2) * r)
            for k in a.data.keys() & b.data.keys()
            for (p1, l1), C1 in a.data[k].items()
            for (p2, l2), C2 in b.data[k].items()
        ]
        assert abs(float(integrand.evaluate(r)) - sum(pairs)) <= 1e-12 * (
            1.0 + sum(abs(v) for v in pairs)
        )
    # sorted keys and terms: the order terms were added changes nothing
    shuffled = _field_from_terms(CS, rank, [a_terms[i] for i in order])
    assert F.tube_integrand(shuffled, b).terms == integrand.terms
    # a tube norm builds each table once; a copy of a (two tables) agrees
    assert F.tube_integrand(a, a).terms == F.tube_integrand(a, a.scale(1.0)).terms


# Three contributions to the r^0 e^{0 r} term, 1e16, -1e16 and 1, sum to 1
# only in that (sorted) order.  The fields list them in reverse, so summing
# in insertion order gives 0, and summing in set order gives 0 under some
# hash seeds.
_SUM_ORDER_SCRIPT = """
import numpy as np
from cylspec import cross_section as cx, fields as F
cs = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
k0, k1, k2 = ((0, 0, 1), "cos"), ((0, 1, 0), "cos"), ((1, 0, 0), "cos")
# one contribution per key (the trig factor 1/2 times b = 2 is exactly 1)
a = F.TensorField(cs, 0, [(k2, (0, 0.0), 1.0), (k1, (0, 0.0), -1e16), (k0, (0, 0.0), 1e16)])
b = F.TensorField(cs, 0, [(k, (0, 0.0), 2.0) for k in (k2, k1, k0)])
by_key = dict(((p, lam), c) for c, p, lam in F.tube_integrand(a, b).terms)
# three contributions inside one key, from rates (-1, 1), (0, 0), (1, -1)
a = F.TensorField(cs, 0, [(k0, (0, 1.0), 1.0), (k0, (0, 0.0), -1e16), (k0, (0, -1.0), 1e16)])
b = F.TensorField(cs, 0, [(k0, (0, lam), 2.0) for lam in (1.0, 0.0, -1.0)])
by_term = dict(((p, lam), c) for c, p, lam in F.tube_integrand(a, b).terms)
print(by_key.get((0, 0.0)), by_term.get((0, 0.0)))
"""


def test_tube_integrand_sums_in_sorted_order_under_any_hash_seed():
    src = os.path.dirname(os.path.dirname(F.__file__))
    for seed in range(5):
        env = dict(os.environ, PYTHONHASHSEED=str(seed),
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        out = subprocess.run([sys.executable, "-c", _SUM_ORDER_SCRIPT], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.split() == ["1.0", "1.0"], f"PYTHONHASHSEED={seed}"


def test_tube_integrand_rejects_unequal_ranks():
    with pytest.raises(InvalidInput, match="equal ranks"):
        F.tube_integrand(F.TensorField.zero(CS, 1), F.TensorField.zero(CS, 2))


def test_projection_roundtrip():
    prof = RadialProfile([(1.5, 0, -0.5), (-2.0, 1, -1.0)])
    h = F.from_mode_profile(CS, B_OSC, prof)
    h = h + F.from_mode_profile(CS, B_PAR, RadialProfile.constant(3.0))
    # pairing with a normalized mode's unit field reads its profile back
    def project(mode):
        return F.tube_integrand(h, F.from_mode_profile(CS, mode, RadialProfile.constant(1.0)))

    back = project(B_OSC)
    r = np.linspace(0, 5, 50)
    assert np.max(np.abs(back.evaluate(r) - prof.evaluate(r))) < 1e-12
    # and the parallel part projects out separately
    back0 = project(B_PAR)
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
    # (freq, phase) names a mode: canonical half-space, no sin at frequency zero
    modes = [(k, phase) for k in cs.canonical_freqs() for phase in ("cos", "sin")
             if any(k) or phase == "cos"]
    key = st.tuples(
        st.sampled_from(modes),
        st.integers(0, 2),
        st.floats(-2.0, 1.0, allow_nan=False).map(lambda v: round(v, 3)),
    ).map(lambda t: (*t[0], *t[1:]))
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
        out = out + F.TensorField(cs, rank, [((freq, phase), (p, lam), C)])
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
    # written into a given array, the same bytes
    out = np.full(vals.shape, np.nan)
    assert field.evaluate(r, xs, out=out) is out
    assert out.tobytes() == vals.tobytes()


def test_evaluate_rejects_an_out_it_cannot_write_whole():
    w = F.pair_one_form(
        CS, PHI, RadialProfile.monomial(2.0, 1, -0.3), RadialProfile.monomial(-1.5, 0, 0.2)
    )
    r, xs = np.linspace(0.0, 2.0, 4), np.zeros((5, 3))
    for out in (np.empty((4, 5, 3)), np.empty((4, 5, 4), dtype=np.float32),
                np.empty((4, 5, 8))[..., ::2]):
        with pytest.raises(InvalidInput, match=r"out must be .* shape \(4, 5, 4\)"):
            w.evaluate(r, xs, out=out)


def test_field_scaling_and_pruning():
    h = F.from_mode_profile(CS, B_OSC, RadialProfile.constant(2.0))
    assert h.scale(0.5).max_abs_coeff() == pytest.approx(h.max_abs_coeff() / 2)
    small = F.from_mode_profile(CS, B_PAR, RadialProfile.constant(1e-15))
    tiny = h + small
    assert len(tiny.prune().keys()) == 2  # a small term is not a zero term
    cancelled = tiny - small
    assert len(cancelled.keys()) == 2  # arithmetic keeps the zero term
    assert len(cancelled.prune().keys()) == 1
