"""Tube masses, the three-circles certificate, and the step dichotomy.

Tube values are cross-checked against brute quadrature (adaptive in r,
periodic trapezoid over the torus, which is exact for trigonometric
polynomials).  The r-linear tube identity L^3 (t^2 + t + 1/3) is an
algebraic fact and is asserted for fractional and negative offsets too.
The randomized suites run in the parameter regime recorded with the
generator: sqrt(mu_1) L >= 3 and beta' strictly inside both caps.
"""

import math
import re

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_kernel_element
from cylspec import cross_section as cx, fields as F
from cylspec import three_circles as tc
from cylspec.deformation_solver import classify_kernel
from cylspec.errors import InvalidInput, InvalidParams, NotInKernel
from cylspec.mode_ode import RadialProfile

CS = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
MU1 = CS.smallest_positive_eigenvalue()

# unit side lengths 2*pi put the smallest positive eigenvalue at 1, which
# keeps the decay-rate arithmetic in the examples legible
WIDE = cx.TorusCrossSection(3, (2.0 * math.pi,) * 3, 1)

B_PAR = cx.build_spectrum(CS, "TTTensor").at((0, 0, 0))[0]
B_OSC = next(m for m in cx.build_spectrum(WIDE, "TTTensor").modes if any(m.freq))
B_OSC_CS = next(m for m in cx.build_spectrum(CS, "TTTensor").modes if any(m.freq))


def field_close(a, b, tol=1e-12):
    diff = (a - b).max_abs_coeff()
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    return diff <= tol * scale


def r_linear_tt(cs=CS, coeff=1.0, which=0):
    return F.from_mode_profile(
        cs, cx.build_spectrum(cs, "TTTensor").at((0,) * cs.dim)[which],
        RadialProfile.monomial(coeff, 1, 0.0),
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
        h = tc.random_reduced_form(CS, rng).scale(0.8)
        for a, b in ((0.0, 1.0), (0.5, 2.25)):
            closed = tc.tube_norm(h, a, b)
            brute = quad_tube(h, a, b)
            assert closed == pytest.approx(brute, rel=1e-10)


def test_tube_norm_rejects_empty_interval():
    h = r_linear_tt()
    with pytest.raises(InvalidInput, match="a < b"):
        tc.tube_norm(h, 2.0, 2.0)


def _growing_mode_cases():
    # r e^{15 r} B over (0, 25): a zero factor meets an overflowed psi_q (NaN);
    # e^{+sqrt(mu_1) r} B over (0, 60): inf - inf at the parent, inf here
    yield F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 1, 15.0)), 25.0
    yield F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, math.sqrt(MU1))), 60.0


def test_non_finite_tube_values_are_errors():
    for h, L in _growing_mode_cases():
        with pytest.raises(InvalidInput, match=rf"tube \(0, {L:g}\) has no finite value"):
            tc.tube_norm(h, 0.0, L)
        with pytest.raises(InvalidInput, match=rf"tube \(0, {L:g}\) has no finite value"):
            tc.TubeNormSeries.from_field(h, L, (0, 1, 2))
    h, L = list(_growing_mode_cases())[1]
    params = tc.ThreeCirclesParams(beta=0.5, beta_prime=0.25, L=L, triple=(0, 1, 2))
    with pytest.raises(InvalidInput, match="no finite value"):
        tc.three_circles_check(h, params)
    for bad in (math.nan, math.inf):
        with pytest.raises(InvalidInput, match="finite and nonnegative"):
            tc.TubeNormSeries(L=1.0, offsets=(0,), values=(bad,))
    with pytest.raises(InvalidInput, match="positive"):
        tc.TubeNormSeries(L=math.nan, offsets=(0,), values=(1.0,))


def test_series_checks_its_tubes_before_integrating(monkeypatch):
    def no_integral(*args):
        raise AssertionError("integrated before the tubes were checked")

    monkeypatch.setattr(RadialProfile, "interval_integrals", no_integral)
    h = r_linear_tt()
    # a fractional offset is refused, not truncated under values taken at it
    for offsets in ((-1, 0), (1, 1), (2, 0), (0.5, 1.5), (0, 1.25)):
        with pytest.raises(InvalidInput, match="increasing nonnegative integers"):
            tc.TubeNormSeries.from_field(h, 1.0, offsets)
    with pytest.raises(InvalidInput, match="integers"):
        tc.TubeNormSeries(L=1.0, offsets=(0.5,), values=(1.0,))
    for L in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(InvalidInput, match=f"positive and finite, got L = {L!r}"):
            tc.TubeNormSeries.from_field(h, L, (0, 1))


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
    # integrating over all tubes at once gives exactly the per-tube values
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
    with pytest.raises(InvalidInput, match="tube length must be positive"):
        tc.TubeNormSeries.from_field(h, 0.0, (0, 1))
    # NaN and inf are named too, also on a field without an r-linear leg
    decaying = F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, -math.sqrt(MU1)))
    for field, L in ((h, -1.0), (h, math.nan), (h, math.inf), (decaying, math.inf)):
        params = tc.ThreeCirclesParams(beta=1.0, beta_prime=0.1, L=L, triple=(0, 1, 2))
        with pytest.raises(InvalidParams, match=f"positive and finite, got L = {L!r}"):
            tc.three_circles_check(field, params)
    with pytest.raises(InvalidInput, match="positive and finite, got L = inf"):
        tc.TubeNormSeries(L=math.inf, offsets=(0,), values=(1.0,))


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


def test_params_refuse_a_fractional_offset():
    good = dict(beta=0.9, beta_prime=0.5, L=4.0, triple=(0, 1, 2))
    # integral floats and numpy integers name the same tubes
    for triple in ((0.0, 1.0, 2.0), tuple(np.arange(3))):
        assert tc.ThreeCirclesParams(**{**good, "triple": triple}).triple == (0, 1, 2)
    # int() used to truncate these to (0, 1, 3) and (0, 1, 2)
    for triple in ((0, 1.5, 3.9), (0, 1, 2.5)):
        with pytest.raises(InvalidParams, match="integer offsets"):
            tc.ThreeCirclesParams(**{**good, "triple": triple})


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


# The per-term gate, as it was before all terms were tested at once; the
# vectorized gate must give the same verdict, flag, exception and message.
def _reference_gate(h):
    cs = h.cs
    scale = max(1.0, h.max_abs_coeff())
    has_r_linear = False
    for (freq, phase), profs in h.data.items():
        if not any(freq):
            for (p, lam), C in profs.items():
                C = np.asarray(C)
                if np.max(np.abs(C)) <= 0.0:
                    continue
                if p != 1 or lam != 0.0:
                    raise InvalidInput(
                        "parallel sector must be purely r-linear; classify and "
                        "project the field first"
                    )
                edge = np.concatenate(([C[0, 0]], C[0, 1:], C[1:, 0]))
                if np.max(np.abs(edge)) > tc.REL_TOL * scale:
                    raise InvalidInput("radial and mixed parallel legs are not reduced")
                has_r_linear = True
            continue
        mu = cs.eigenvalue(freq)
        s = math.sqrt(mu)
        what = cs.omega(freq)
        what = what / np.linalg.norm(what)
        for (p, lam), C in profs.items():
            C = np.asarray(C)
            if np.max(np.abs(C)) <= 0.0:
                continue
            if p != 0 or lam not in (s, -s):
                raise InvalidInput(
                    f"oscillating-mode profiles must be pure e^{{+-sqrt(mu) r}}; "
                    f"found power {p}, rate {lam:.6g} at frequency {freq}"
                )
            edge = np.concatenate(([C[0, 0]], C[0, 1:], C[1:, 0]))
            tang = C[1:, 1:]
            if (
                np.max(np.abs(edge)) > tc.REL_TOL * scale
                or abs(np.trace(tang)) > tc.REL_TOL * scale
                or np.max(np.abs(tang @ what)) > tc.REL_TOL * scale
            ):
                raise InvalidInput(
                    f"oscillating content at frequency {freq} is not transverse "
                    "traceless"
                )
    return has_r_linear


# unequal sides and d = 4: several TT modes and rates per frequency
T4 = cx.TorusCrossSection(4, (1.0, 1.3, 0.7, 2.0), 1)
DEFECTS = ("power", "rate", "radial", "mixed", "trace", "normal", "zero")
COEFF_DEFECTS = (1.0, 1e-6, 2e-12, 5e-13)  # the last two straddle REL_TOL * scale


def _moved_rate(lam, level, sign):
    """lam moved by one ulp, by 1e-15 relative, by 1e-10 or by 1e-8: every
    one is a defect, since the gate compares rates exactly."""
    if level == 0:
        return float(np.nextafter(lam, sign * math.inf))
    return lam + sign * (1e-15 * max(1.0, abs(lam)), 1e-10, 1e-8)[level - 1]


def _inject(h, defects, rng):
    """A copy of h with the defects added; each lands on a random term."""
    cs, d = h.cs, h.cs.dim
    data = {mk: dict(profs) for mk, profs in h.data.items()}
    for kind, level in defects:
        terms = [(mk, pk) for mk in data for pk in data[mk]]
        mk, (p, lam) = terms[int(rng.integers(len(terms)))]
        freq = mk[0]
        C = np.array(data[mk][(p, lam)])
        eps = COEFF_DEFECTS[level] * rng.choice((-1.0, 1.0))
        if kind == "power":
            data[mk][(p + 1, lam)] = C
        elif kind == "rate":
            data[mk][(p, _moved_rate(lam, level, rng.choice((-1.0, 1.0))))] = C
        elif kind == "zero":
            data[mk][(p + 2, lam + 0.375)] = np.zeros_like(C)
        else:
            if kind == "radial":
                C[0, 0] += eps
            elif kind == "mixed":
                j = int(rng.integers(1, d + 1))
                C[0, j] += eps
                C[j, 0] += eps
            elif kind == "trace":
                C[1:, 1:] += eps * np.eye(d)
            elif any(freq):  # normal: traceless, but not transverse
                what = cs.omega(freq) / np.linalg.norm(cs.omega(freq))
                u = cx.tangent_complement(cs.omega(freq))[0]
                C[1:, 1:] += eps * (np.outer(what, u) + np.outer(u, what))
            data[mk][(p, lam)] = C
    if rng.integers(2):  # terms go in in any order; the field sorts them
        mks = list(data)
        data = {mks[i]: data[mks[i]] for i in rng.permutation(len(mks))}
        for mk, profs in data.items():
            pks = list(profs)
            data[mk] = {pks[i]: profs[pks[i]] for i in rng.permutation(len(pks))}
    return F.TensorField(cs, 2, [(mk, pk, C) for mk, profs in data.items()
                                 for pk, C in profs.items()])


def _gate_outcome(gate, h):
    try:
        flag = gate(h)
    except InvalidInput as exc:
        return type(exc), str(exc)
    return type(flag), flag


@given(
    seed=st.integers(0, 2**32 - 1),
    four_torus=st.booleans(),
    r_linear=st.booleans(),
    scale=st.sampled_from((1.0, 1e-3, 50.0)),  # below and above the gate's floor of 1
    defects=st.lists(
        st.tuples(st.sampled_from(DEFECTS), st.integers(0, len(COEFF_DEFECTS) - 1)),
        max_size=3,
    ),
)
@settings(max_examples=300, deadline=None)
def test_gate_matches_the_per_term_reference(seed, four_torus, r_linear, scale, defects):
    rng = np.random.default_rng(seed)
    cs = T4 if four_torus else CS
    h = tc.random_reduced_form(cs, rng, include_r_linear=r_linear).scale(scale)
    h = _inject(h, defects, rng)
    assert _gate_outcome(tc._require_reduced_form, h) == _gate_outcome(_reference_gate, h)


def test_gate_exact_rates_and_zero_tensors():
    s = math.sqrt(MU1)
    for rate, passes in ((s, True), (-s, True), (np.nextafter(-s, 0.0), False),
                         (np.nextafter(-s, -math.inf), False), (-s * (1.0 + 1e-15), False),
                         (-s + 1e-10, False), (-s - 1e-10, False), (-s + 1e-8, False)):
        h = F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, float(rate)))
        assert _gate_outcome(tc._require_reduced_form, h) == _gate_outcome(_reference_gate, h)
        assert (_gate_outcome(tc._require_reduced_form, h)[0] is bool) == passes
    # at frequency zero only rate 0 is r-linear; +-1e-9 is a defect too
    for rate, passes in ((0.0, True), (1e-9, False), (-1e-9, False)):
        h = F.from_mode_profile(CS, B_PAR, RadialProfile.monomial(1.0, 1, rate))
        assert _gate_outcome(tc._require_reduced_form, h) == _gate_outcome(_reference_gate, h)
        assert (_gate_outcome(tc._require_reduced_form, h)[0] is bool) == passes
    # an all-zero tensor under any key is no content
    h = r_linear_tt() + F.TensorField(
        CS, 2, [((B_OSC_CS.freq, B_OSC_CS.phase), (3, 0.25), np.zeros((4, 4)))])
    assert tc._require_reduced_form(h) is True
    assert tc._require_reduced_form(F.TensorField.zero(CS, 2)) is False


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_gate_refuses_non_finite_coefficients(bad):
    s = math.sqrt(MU1)
    key = (B_OSC_CS.freq, B_OSC_CS.phase)
    message = re.escape(f"mode key {key}, power 0, rate {-s:.6g} is not finite")
    # an all-NaN tensor at a valid oscillating key used to read as reduced
    h = F.TensorField(CS, 2, [(key, (0, -s), np.full((4, 4), bad))])
    with pytest.raises(InvalidInput, match=message):
        tc._require_reduced_form(h)
    with pytest.raises(InvalidInput, match=message):
        tc.three_circles_check(h, _valid_params())
    # one bad entry is enough, after a valid r-linear leg
    (_, _, C), = F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, -s)).terms()
    C = C.copy()
    C[2, 3] = bad
    h = r_linear_tt() + F.TensorField(CS, 2, [(key, (0, -s), C)])
    with pytest.raises(InvalidInput, match=message):
        tc._require_reduced_form(h)


def _oscillating_metric():
    phi = next(m for m in cx.build_spectrum(CS, "Scalar").modes if any(m.freq))
    g_tan = F.tangential_metric(CS)
    s = math.sqrt(phi.eigenvalue)
    return F.TensorField(CS, 2, [((phi.freq, phi.phase), (0, -s), C * float(phi.polarization))
                                 for _, _, C in g_tan.terms()])


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
    g_tan = F.tangential_metric(CS)
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


@pytest.mark.parametrize("seed", [41, 57])
def test_project_out_parallel_keeps_only_the_reduced_labels(seed):
    h = random_kernel_element(CS, np.random.default_rng(seed), n_parts=16)
    reduced = ("trace_linear", "tt_parallel_linear", "tt_exp")
    labels = {col.label for col, _c in classify_kernel(h).parts}
    assert labels - set(reduced) and labels & set(reduced)
    kept = classify_kernel(tc.project_out_parallel(h)).parts
    assert {col.label for col, _c in kept} == labels & set(reduced)


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


def test_check_enforces_params():
    h = F.from_mode_profile(WIDE, B_OSC, RadialProfile.monomial(1.0, 0, -1.0))
    bad = tc.ThreeCirclesParams(beta=0.9, beta_prime=0.5, L=3.0, triple=(0, 1, 2))
    with pytest.raises(InvalidParams, match="spectral-gap"):
        tc.three_circles_check(h, bad)


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


@pytest.mark.parametrize("beta_prime", [math.nan, -1.0, 0.0, -0.0, math.inf, 400.0])
def test_monotonicity_refuses_a_beta_prime_the_check_does_not_allow(beta_prime):
    # on the unit T^3, beta' = NaN labelled every interior offset a
    # violation and beta' = -1 (a factor e^{-2} < 1) reported the series
    # clean; at 400, e^{2 beta' L} overflows
    h = F.from_mode_profile(CS, B_OSC_CS, RadialProfile.monomial(1.0, 0, -math.sqrt(MU1)))
    series = tc.TubeNormSeries.from_field(h, 1.0, range(5))
    with pytest.raises(InvalidInput, match=r"beta' = .* must be positive and finite"):
        tc.monotonicity_classify(series, beta_prime)
    # e^{2 beta' L} = e^{708} is finite: the check runs, and no step is that steep
    assert tc.monotonicity_classify(series, 354.0).violations == (1, 2, 3)


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
# random reduced forms
# ---------------------------------------------------------------------------


def _reference_reduced_form(cs, rng, include_r_linear=True, include_growing=True):
    # random_reduced_form as a chain of + on the filtered spectrum
    tt_spectrum = cx.build_spectrum(cs, "TTTensor")
    pool = [m for m in tt_spectrum.modes if any(m.freq)]
    if not pool:
        raise InvalidInput("cross section carries no oscillating TT modes")
    h = F.TensorField.zero(cs, 2)
    for i in rng.choice(len(pool), size=min(3, len(pool)), replace=False):
        s = math.sqrt(pool[i].eigenvalue)
        a_plus, a_minus = rng.uniform(-1.0, 1.0, size=2)
        if not include_growing:
            a_plus = 0.0
        h = h + F.from_mode_profile(cs, pool[i], RadialProfile(((a_plus, 0, s), (a_minus, 0, -s))))
    if include_r_linear:
        a_tilde = float(rng.uniform(-1.0, 1.0))
        h = h + F.tangential_metric(cs).multiply_profile(RadialProfile.monomial(a_tilde, 1, 0.0))
        parallel = tt_spectrum.at((0,) * cs.dim)
        m = int(rng.integers(0, len(parallel)))
        h = h + F.from_mode_profile(
            cs, parallel[m],
            RadialProfile.monomial(float(rng.uniform(-1.0, 1.0)), 1, 0.0),
        )
    return h


def _draw(make, cs, seed, scale, **kw):
    rng = np.random.default_rng(seed)
    try:
        h = make(cs, rng, **kw).scale(scale)
    except InvalidInput as exc:
        return str(exc), None
    terms = [(mk, pk, C.shape, C.tobytes()) for mk, pk, C in h.terms()]
    return terms, rng.bit_generator.state  # the same draws, bit for bit


@pytest.mark.parametrize("cs", [CS, T4, cx.TorusCrossSection(2, (2.0 * math.pi,) * 2, 2)])
@pytest.mark.parametrize("r_linear", [True, False])
@pytest.mark.parametrize("growing", [True, False])
@pytest.mark.parametrize("scale", [1.0, 1e-3])
def test_random_reduced_form_is_the_plus_chain(cs, r_linear, growing, scale):
    # the draws are uniform on [-1, 1]; a resized draw is the resized chain
    kw = dict(include_r_linear=r_linear, include_growing=growing)
    for seed in range(8):
        assert _draw(tc.random_reduced_form, cs, seed, scale, **kw) == _draw(
            _reference_reduced_form, cs, seed, scale, **kw
        )
    spectrum = cx.build_spectrum(cs, "TTTensor")
    filtered = [m for m in spectrum.modes if any(m.freq)]
    assert len(spectrum.oscillating) == len(filtered)
    assert all(a is b for a, b in zip(spectrum.oscillating, filtered))
