"""Torus spectral data: counts, index conventions and normalization.

The modes are built by ``cross_section``; their values, divergences,
traces and L2 pairings are read through ``fields``, on the field
profile(r) * mode with the constant profile 1.
"""

import math

import numpy as np
import pytest

from cylspec import cross_section as cx, fields as F
from cylspec.errors import InvalidInput, InvalidParams
from cylspec.mode_ode import RadialProfile

UNIT_T3 = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)


def _field(m):
    return F.from_mode_profile(UNIT_T3, m, RadialProfile.constant(1.0))


def _value(m, x):
    """The mode's value at x (a point or an array of points), read off the
    torus slots of its field at r = 0."""
    val = _field(m).evaluate([0.0], x)[0]
    return val[(Ellipsis,) + (slice(1, None),) * m.rank]


def test_validation_errors():
    with pytest.raises(InvalidParams):
        cx.TorusCrossSection(0, (), 1)
    with pytest.raises(InvalidParams):
        cx.TorusCrossSection(2, (1.0, -1.0), 1)
    with pytest.raises(InvalidParams):
        cx.TorusCrossSection(2, (1.0, 1.0), 0)
    with pytest.raises(InvalidParams):
        cx.build_spectrum(UNIT_T3, "NotARank")


def test_scalar_count_unit_t3():
    sp = cx.build_spectrum(UNIT_T3, "Scalar")
    assert len(sp.modes) == 27  # (2c+1)^3 real Fourier modes at cutoff 1
    assert sp.mu1 == pytest.approx(4 * math.pi**2, rel=1e-14)


def test_scalar_eigenvalues_circle():
    cs = cx.TorusCrossSection(1, (2 * math.pi,), 2)
    sp = cx.build_spectrum(cs, "Scalar")
    assert [round(m.eigenvalue, 12) for m in sp.modes] == [0.0, 1.0, 1.0, 4.0, 4.0]


def test_harmonic_one_forms():
    sp = cx.build_spectrum(UNIT_T3, "HarmonicOneForm")
    assert len(sp.modes) == 3
    assert all(m.eigenvalue == 0.0 and not any(m.freq) for m in sp.modes)


def test_eigenvalues_sorted_and_nonnegative():
    for rank in cx.KINDS:
        sp = cx.build_spectrum(UNIT_T3, rank)
        eigs = [m.eigenvalue for m in sp.modes]
        assert eigs == sorted(eigs)
        assert all(e >= 0 for e in eigs)
        assert sp.mu1 > 0


def test_evaluate_constant_mode():
    sp = cx.build_spectrum(UNIT_T3, "Scalar")
    m0 = next(m for m in sp.modes if not any(m.freq))
    for x in (np.zeros(3), np.array([0.3, 0.7, 0.1])):
        assert _value(m0, x) == pytest.approx(1.0)


def test_evaluate_cosine_amplitude():
    sp = cx.build_spectrum(UNIT_T3, "Scalar")
    m100 = next(m for m in sp.modes if m.freq == (1, 0, 0) and m.phase == "cos")
    assert _value(m100, np.zeros(3)) == pytest.approx(math.sqrt(2.0))


def test_parallel_tt_constant_value():
    sp = cx.build_spectrum(UNIT_T3, "TTTensor")
    par = [m for m in sp.modes if not any(m.freq)]
    assert len(par) == 5  # d(d+1)/2 - 1
    m0 = par[0]
    v1 = _value(m0, np.zeros(3))
    v2 = _value(m0, np.array([0.9, 0.2, 0.4]))
    assert np.allclose(v1, v2)
    # the diagonal ladder polarization diag(1,-1,0)/sqrt(2 vol) is in the list
    target = np.diag([1.0, -1.0, 0.0]) / math.sqrt(2.0)
    assert any(np.allclose(m.polarization, target) for m in par)


def test_tt_constraints():
    sp = cx.build_spectrum(UNIT_T3, "TTTensor")
    osc = [m for m in sp.modes if any(m.freq)]
    assert len(osc) == 26 * 2  # (d-1)d/2 - 1 = 2 per (freq, phase)
    for m in sp.modes:
        pol = m.polarization
        assert abs(np.trace(pol)) < 1e-13
        assert np.allclose(pol, pol.T)
        if any(m.freq):
            assert np.max(np.abs(pol @ np.array(m.omega))) < 1e-12


def test_coclosed_constraint_and_count():
    sp = cx.build_spectrum(UNIT_T3, "CoclosedOneForm")
    assert len(sp.modes) == 26 * 2  # d-1 = 2 polarizations per (freq, phase)
    for m in sp.modes:
        assert abs(m.polarization @ np.array(m.omega)) < 1e-12


def test_tangent_complement_orthonormal():
    for omega in ([2 * math.pi, 0.0, 0.0], [1.0, -2.0, 3.0], [0.0, 5.0]):
        basis = cx.tangent_complement(np.array(omega))
        d = len(omega)
        assert len(basis) == d - 1
        for i, u in enumerate(basis):
            assert abs(u @ np.array(omega)) < 1e-12
            for j, v in enumerate(basis):
                assert abs(u @ v - (1.0 if i == j else 0.0)) < 1e-12


@pytest.mark.parametrize("rank", cx.KINDS)
def test_orthonormality_symbolic(rank):
    sp = cx.build_spectrum(UNIT_T3, rank)
    mode_fields = [_field(m) for m in sp.modes]

    def pairing(a, b):
        return F.tube_integrand(a, b).evaluate(0.0)

    for i, a in enumerate(mode_fields):
        assert pairing(a, a) == pytest.approx(1.0, abs=1e-12)
        for b in mode_fields[i + 1 :]:
            assert abs(pairing(a, b)) < 1e-12


def test_l2_norm_by_quadrature():
    # independent check of the normalization with a trapezoid grid
    sp = cx.build_spectrum(UNIT_T3, "Scalar")
    n = 32
    grid = np.stack(
        np.meshgrid(*[np.linspace(0, 1, n, endpoint=False)] * 3, indexing="ij"), axis=-1
    ).reshape(-1, 3)
    for m in sp.modes[:6]:
        vals = _value(m, grid)
        norm_sq = np.sum(vals**2) / n**3 * UNIT_T3.volume
        assert norm_sq == pytest.approx(1.0, abs=1e-10)


def test_mu1_matches_brute_force():
    cs = cx.TorusCrossSection(2, (1.0, 2.5), 3)
    sp = cx.build_spectrum(cs, "Scalar")
    brute = min(
        cs.eigenvalue(k) for k in cs.canonical_freqs() if any(k)
    )
    assert sp.mu1 == pytest.approx(brute, rel=1e-14)
    assert sp.mu1 == pytest.approx((2 * math.pi / 2.5) ** 2, rel=1e-14)
    assert cs.smallest_positive_eigenvalue() == sp.mu1 == brute


def test_pointwise_operators_examples():
    sp = cx.build_spectrum(UNIT_T3, "Scalar")
    m100 = next(m for m in sp.modes if m.freq == (1, 0, 0) and m.phase == "cos")
    lap = F.rough_laplacian(_field(m100))
    # the mode is L2-normalized, so its pairing with its Laplacian is the eigenvalue
    assert F.tube_integrand(lap, _field(m100)).evaluate(0.0) == pytest.approx(4 * math.pi**2)
    with pytest.raises(InvalidInput):  # scalars have no divergence
        F.divergence(_field(m100))

    tts = cx.build_spectrum(UNIT_T3, "TTTensor")
    for m in tts.modes[:8]:
        assert F.divergence(_field(m)).max_abs_coeff() < 1e-12
        assert F.trace(_field(m)).max_abs_coeff() == pytest.approx(0.0, abs=1e-13)

    ccs = cx.build_spectrum(UNIT_T3, "CoclosedOneForm")
    for m in ccs.modes[:8]:
        assert F.divergence(_field(m)).max_abs_coeff() < 1e-12


def test_divergence_image_nonzero_for_pure_trace():
    sp = cx.build_spectrum(UNIT_T3, "PureTrace")
    m = next(mm for mm in sp.modes if any(mm.freq))
    assert F.divergence(_field(m)).max_abs_coeff() > 0.1


def test_degenerate_torus_keeps_modes_distinct():
    cs = cx.TorusCrossSection(2, (1.0, 1.0), 2)
    sp = cx.build_spectrum(cs, "Scalar")
    keys = [(m.freq, m.phase) for m in sp.modes]
    assert len(keys) == len(set(keys))
    assert len(sp.modes) == (2 * 2 + 1) ** 2


# ---------------------------------------------------------------------------
# the mode lookups and their index conventions
# ---------------------------------------------------------------------------


def _slices(cs):
    return [
        (freq, phase)
        for freq in cs.canonical_freqs()
        for phase in (("cos", "sin") if any(freq) else ("cos",))
    ]


def _pols(modes):
    return [m.polarization.tolist() for m in modes]


def test_spectrum_is_the_sorted_union_of_modes_at_slices():
    cs = cx.TorusCrossSection(2, (1.0, 2.5), 2)
    for kind in cx.KINDS:
        built = [m for key in _slices(cs) for m in cx.modes_at(cs, kind, *key)]
        built.sort(key=cx.Mode.sort_key)
        sp = cx.build_spectrum(cs, kind)
        assert [(m.freq, m.phase, m.eigenvalue) for m in built] == [
            (m.freq, m.phase, m.eigenvalue) for m in sp.modes
        ]
        assert _pols(built) == _pols(sp.modes)
        for freq, phase in _slices(cs):
            expected = [m for m in sp.modes if m.freq == freq and m.phase == phase]
            assert _pols(sp.at(freq, phase)) == _pols(expected)


def test_modes_at_builds_any_frequency():
    above = cx.modes_at(UNIT_T3, "TTTensor", (2, 0, 0), "cos")
    assert len(above) == 2 and all(m.freq == (2, 0, 0) for m in above)
    assert above[0].eigenvalue == pytest.approx(16 * math.pi**2, rel=1e-14)
    assert cx.build_spectrum(UNIT_T3, "TTTensor").at((2, 0, 0)) == ()
    assert cx.modes_at(UNIT_T3, "Scalar", (0, 0, 0), "sin") == ()
    assert cx.modes_at(UNIT_T3, "HarmonicOneForm", (1, 0, 0), "cos") == ()
    assert cx.modes_at(UNIT_T3, "CoclosedOneForm", (0, 0, 0), "cos") == ()
    with pytest.raises(InvalidParams):
        cx.modes_at(UNIT_T3, "NotARank", (1, 0, 0), "cos")
    # a kind has one spelling, so one memoized spectrum
    for short in ("scalar", "coclosed", "harmonic", "tt", "trace"):
        with pytest.raises(InvalidParams, match="unknown mode kind"):
            cx.modes_at(UNIT_T3, short, (1, 1, 0), "sin")
        with pytest.raises(InvalidParams, match="unknown mode kind"):
            cx.build_spectrum(UNIT_T3, short)


def test_index_conventions_of_the_keyed_kinds():
    # Harmonic 1-forms are keyed by coordinate axis, coclosed 1-forms by
    # position in tangent_complement, TT modes by position in the sorted
    # spectrum.  On the unit 3-torus each differs from the other order.
    cs = UNIT_T3
    zero = (0, 0, 0)

    def axes(modes):
        return [int(np.argmax(np.abs(m.polarization))) for m in modes]

    assert axes(cx.modes_at(cs, "HarmonicOneForm", zero, "cos")) == [0, 1, 2]
    assert axes(cx.build_spectrum(cs, "HarmonicOneForm").modes) == [2, 1, 0]

    amp = math.sqrt(2.0 / cs.volume)
    coclosed = cx.build_spectrum(cs, "CoclosedOneForm")
    reordered = 0
    for freq, phase in _slices(cs)[1:]:
        built = cx.modes_at(cs, "CoclosedOneForm", freq, phase)
        perp = cx.tangent_complement(cs.omega(freq))
        assert _pols(built) == [(amp * u).tolist() for u in perp]
        reordered += _pols(coclosed.at(freq, phase)) != _pols(built)
    assert reordered == 18

    tt = cx.build_spectrum(cs, "TTTensor")
    reordered = 0
    for freq, phase in _slices(cs):
        in_spectrum = tt.at(freq, phase)
        assert _pols(in_spectrum) == _pols(
            [m for m in tt.modes if m.freq == freq and m.phase == phase]
        )
        built = _pols(cx.modes_at(cs, "TTTensor", freq, phase))
        order = [built.index(pol) for pol in _pols(in_spectrum)]
        reordered += order != sorted(order)
        if freq == zero:
            assert order == [2, 1, 0, 4, 3]
    assert reordered == 9
