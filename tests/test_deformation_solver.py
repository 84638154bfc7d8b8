"""Kernel enumeration, trace absorption, and classification round trips.

The binding checks are residual-based: every basis element must be
annihilated by the linearized Ricci operator and the tau-modified
divergence, absorption fields must reproduce their target trace with a
vanishing divergence, and classification must invert reconstruction to
round-off.  Reference coefficients appear only where a closed form was
frozen by hand.
"""

import math

import numpy as np
import pytest

from cylspec import cli, deformation_solver as ds, fields as F
from cylspec import three_circles as tc
from cylspec.cross_section import TorusCrossSection, build_spectrum, modes_at
from cylspec.deformation_solver import (
    classify_kernel,
    parallel_space_dimension,
    solve_reduced_system,
    trace_absorption_field,
)
from cylspec.divergence_solver import (
    DivergenceConfig,
    decompose_one_form,
    lie_derivative_metric,
    modified_divergence,
)
from cylspec.errors import InvalidInput, NotInKernel, ResonantTau
from cylspec.fd_oracle import fd_operator, interior_sup, sample
from cylspec.mode_ode import RadialProfile

from conftest import random_kernel_element

CS = TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
CIRCLE = TorusCrossSection(1, (2.0 * math.pi,), 1)  # mu_1 = 1
UNIT_CIRCLE = TorusCrossSection(1, (1.0,), 1)  # mu_1 = 4 pi^2

SCALARS = [m for m in build_spectrum(CS, "Scalar").modes if any(m.freq)]
PHI = next(m for m in SCALARS if m.phase == "cos")


def field_close(a, b, tol=1e-12):
    scale = max(1.0, a.max_abs_coeff(), b.max_abs_coeff())
    assert (a - b).max_abs_coeff() <= tol * scale


def profiles_close(p, q, tol=1e-12):
    rs = np.linspace(0.0, 4.0, 17)
    pv = np.array([p.evaluate(r) for r in rs])
    qv = np.array([q.evaluate(r) for r in rs])
    scale = max(1.0, np.max(np.abs(qv)))
    assert np.max(np.abs(pv - qv)) <= tol * scale


@pytest.mark.parametrize("entry", [classify_kernel])
def test_kernel_entry_points_take_only_rank_two_fields(entry):
    w = F.radial_one_form(CS, build_spectrum(CS, "Scalar").modes[0], RadialProfile.constant(1.0))
    for h in (w, F.trace(F.metric_field(CS)), "h"):
        with pytest.raises(InvalidInput, match="rank-2 tensor field"):
            entry(h)


# ---------------------------------------------------------------------------
# trace absorption
# ---------------------------------------------------------------------------


def test_absorption_profiles_frozen_closed_form():
    # decaying branch at mu = 1, unit coefficient:
    #   k = -(1/2)(1 - r/2) e^{-r},  l = -(1/4)(r + 1) e^{-r}
    X = trace_absorption_field(CIRCLE, {((1,), "cos"): (0.0, 1.0)})
    [(k, l)] = X.pairs.values()
    profiles_close(k, RadialProfile(((-0.5, 0, -1.0), (0.25, 1, -1.0))))
    profiles_close(l, RadialProfile(((-0.25, 0, -1.0), (-0.25, 1, -1.0))))


def test_absorption_single_mode_blocks():
    mode = next(
        m for m in build_spectrum(CIRCLE, "Scalar").modes
        if any(m.freq) and m.phase == "cos"
    )
    assert mode.eigenvalue == pytest.approx(1.0, rel=1e-15)
    X = trace_absorption_field(CIRCLE, {(mode.freq, "cos"): (0.0, 1.0)})
    L = lie_derivative_metric(X)
    amp = float(mode.polarization)

    # radial block (r/2) e^{-r} phi
    rr = RadialProfile(
        tuple((C[0, 0] / amp, p, lam) for key, (p, lam), C in L.terms()
              if key == (mode.freq, "cos"))
    )
    profiles_close(rr, RadialProfile.monomial(0.5, 1, -1.0))

    # trace comes back exactly as the requested e^{-r} phi
    field_close(F.trace(L), F.scalar_field(CIRCLE, mode, RadialProfile.monomial(1.0, 0, -1.0)))

    # and the field is divergence free
    assert F.divergence(L).max_abs_coeff() <= 1e-13 * L.max_abs_coeff()


def test_absorption_reproduces_random_traces():
    rng = np.random.default_rng(29)
    for trial in range(6):
        picks = rng.choice(len(SCALARS), size=3, replace=False)
        coeffs = {}
        target = None
        for i in picks:
            mode = SCALARS[i]
            c_plus, c_minus = rng.uniform(-2.0, 2.0, size=2)
            coeffs[(mode.freq, mode.phase)] = (c_plus, c_minus)
            s = math.sqrt(mode.eigenvalue)
            prof = RadialProfile(((c_plus, 0, s), (c_minus, 0, -s)))
            t = F.scalar_field(CS, mode, prof)
            target = t if target is None else target + t
        L = lie_derivative_metric(trace_absorption_field(CS, coeffs))
        scale = max(1.0, target.max_abs_coeff())
        assert (F.trace(L) - target).max_abs_coeff() <= 1e-10 * scale
        assert F.divergence(L).max_abs_coeff() <= 1e-12 * max(1.0, L.max_abs_coeff())


def test_absorption_rejects_affine_sector():
    cs = CS
    with pytest.raises(InvalidInput):
        trace_absorption_field(cs, {((0, 0, 0), "cos"): (1.0, 0.0)})


def test_absorption_divergence_validated_by_fd_oracle():
    cs = TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 1)
    mode = next(
        m for m in build_spectrum(cs, "Scalar").modes if any(m.freq) and m.phase == "cos"
    )
    X = trace_absorption_field(cs, {(mode.freq, "cos"): (0.4, -1.1)})
    L = lie_derivative_metric(X)

    def run(n_r, n_x):
        grid = sample(L, (0.0, 6.0), n_r, n_x)
        div = fd_operator("divergence", grid)
        return interior_sup(div), grid.max_spacing

    scale = interior_sup(sample(L, (0.0, 6.0), 65, 12))
    err_coarse, h_coarse = run(65, 12)
    err_fine, h_fine = run(129, 24)
    assert err_coarse < 10.0 * h_coarse**2 * scale
    assert err_fine < 10.0 * h_fine**2 * scale
    assert err_fine < 0.5 * err_coarse


# ---------------------------------------------------------------------------
# reduced-system kernel basis
# ---------------------------------------------------------------------------


def test_reduced_basis_dimension_counts():
    n_parallel_tt = len(
        [m for m in build_spectrum(CS, "TTTensor").modes if not any(m.freq)]
    )
    assert n_parallel_tt == 5
    assert parallel_space_dimension(CS, 0.0) == n_parallel_tt + 1 + CS.dim + 1
    for tau in (0.005, 0.01, 0.05):
        assert parallel_space_dimension(CS, tau) == n_parallel_tt + 1


def test_tau_eliminates_exactly_the_parallel_gauge_families():
    at_zero = {e.label for e in solve_reduced_system(CS, 0.0)}
    at_tau = {e.label for e in solve_reduced_system(CS, 0.02)}
    assert at_zero - at_tau == {"shear_gauge", "radial_gauge"}
    dropped = [e for e in solve_reduced_system(CS, 0.0)
               if e.label in ("shear_gauge", "radial_gauge")]
    assert len(dropped) == CS.dim + 1


@pytest.mark.parametrize("tau", [0.0, 0.02])
def test_reduced_basis_solves_both_equations(tau):
    for elem in solve_reduced_system(CS, tau):
        scale = max(1.0, elem.field.max_abs_coeff())
        ric = F.linearized_ricci(elem.field).max_abs_coeff()
        div = modified_divergence(elem.field, tau).max_abs_coeff()
        assert ric <= 1e-12 * scale, elem.label
        assert div <= 1e-12 * scale, elem.label


def test_gauge_basis_elements_carry_their_generators():
    for elem in solve_reduced_system(CS, 0.0):
        if elem.label.endswith("_gauge"):
            assert elem.generator is not None
            field_close(lie_derivative_metric(elem.generator), elem.field, 1e-14)
        else:
            assert elem.generator is None


def test_tt_exp_elements_come_in_rate_pairs():
    basis = solve_reduced_system(CS, 0.0)
    exp_meta = {e.meta for e in basis if e.label == "tt_exp"}
    branches = {}
    for freq, phase, i, branch in exp_meta:
        branches.setdefault((freq, phase, i), set()).add(branch)
    assert branches and all(v == {"plus", "minus"} for v in branches.values())


# ---------------------------------------------------------------------------
# memoized per-frequency kernel blocks
# ---------------------------------------------------------------------------

TORUS2 = TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 2)
TORUS3 = TorusCrossSection(3, (1.0, 1.3, 2.1), 1)


def test_warm_kernel_blocks_skip_the_lie_derivatives(monkeypatch):
    calls = []
    original = ds.lie_derivative_metric

    def counting(one_form):
        calls.append(one_form)
        return original(one_form)

    monkeypatch.setattr(ds, "lie_derivative_metric", counting)
    ds._kernel_block.cache_clear()
    h = random_kernel_element(CS, np.random.default_rng(5))
    assert calls  # the cold build takes one Lie derivative per gauge column
    calls.clear()
    solve_reduced_system(CS, 0.0)
    classify_kernel(h)
    assert calls == []


def test_cold_enumeration_takes_no_condition_number(monkeypatch):
    calls = []
    cond = np.linalg.cond
    monkeypatch.setattr(np.linalg, "cond", lambda A: calls.append(A.shape) or cond(A))
    ds._kernel_block.cache_clear()
    basis = solve_reduced_system(TORUS2, 0.0)
    assert basis and calls == []
    h = random_kernel_element(TORUS2, np.random.default_rng(3))
    dec = classify_kernel(h)
    assert dec.condition_numbers and len(calls) == len(dec.condition_numbers)


def test_kernel_block_values_are_shared_and_read_only():
    basis = solve_reduced_system(CS, 0.0)
    again = solve_reduced_system(CS, 0.0)
    assert again is not basis
    assert len(again) == len(basis) and all(a is b for a, b in zip(again, basis))

    def frozen(fld):
        return all(not C.flags.writeable for _, _, C in fld.terms())

    assert all(frozen(e.field) for e in basis)
    assert all(frozen(e.generator) for e in basis if e.generator is not None)
    gauge = next(e for e in basis if e.label == "scalar_gauge")
    for fld in (gauge.field, gauge.generator):
        _, _, C = next(fld.terms())
        with pytest.raises(ValueError):
            C[...] = 0.0
        for out in (fld.scale(2.0), fld + fld, fld.multiply_profile(RadialProfile.constant(1.0))):
            assert all(C.flags.writeable for _, _, C in out.terms())
    A = ds._kernel_block(CS, gauge.meta[0], 0.0).matrix
    with pytest.raises(ValueError):
        A[0, 0] = 1.0

    modes = modes_at(CS, "TTTensor", (0, 1, 1), "cos") + build_spectrum(CS, "TTTensor").modes
    for m in modes:
        assert not m.polarization.flags.writeable
        with pytest.raises(ValueError):
            m.polarization[...] = 0.0


def _same_terms(a, b):
    ta, tb = list(a.terms()), list(b.terms())
    assert [t[:2] for t in ta] == [t[:2] for t in tb]
    assert all(np.array_equal(x[2], y[2]) for x, y in zip(ta, tb))


@pytest.mark.parametrize("cs, tau", [(TORUS2, 0.0), (TORUS2, 0.02), (TORUS3, 0.0)])
def test_warm_kernel_blocks_classify_like_cold_ones(cs, tau):
    h = random_kernel_element(cs, np.random.default_rng(17), tau=tau)
    classify_kernel(h, tau)
    warm = classify_kernel(h, tau)
    ds._kernel_block.cache_clear()
    cold = classify_kernel(h, tau)
    for name in ("pure_trace", "parallel_tt", "linear_tt", "exp_modes", "gauge_Y"):
        assert getattr(warm, name) == getattr(cold, name), name
    assert warm.condition_numbers.keys() == cold.condition_numbers.keys()
    assert all(
        np.array_equal(warm.condition_numbers[k], cold.condition_numbers[k])
        for k in cold.condition_numbers
    )
    _same_terms(warm.reconstruct(), cold.reconstruct())


@pytest.mark.parametrize("cs, tau", [(TORUS2, 0.0), (TORUS2, 0.02), (TORUS3, 0.0), (CS, 0.0)])
def test_reconstruct_and_gauge_X_are_the_plus_chain(cs, tau):
    """Both sum their parts in one pass: each coefficient equals the one of
    the + chain over the scaled columns bit for bit."""
    rng = np.random.default_rng(23)
    fields = [random_kernel_element(cs, rng, tau=tau) for _ in range(4)]
    if tau == 0.0 and cs.dim >= 3:  # T^2 carries no oscillating TT mode
        fields += [tc.random_reduced_form(cs, rng).scale(c) for c in (1.0, 1e-3)]
    gauged = 0
    for h in fields:
        dec = classify_kernel(h, tau)
        chain = F.TensorField.zero(cs, 2)
        gauge = F.TensorField.zero(cs, 1)
        for col, c in dec.parts:
            chain = chain + col.field.scale(c)
            if col.label in ("scalar_gauge", "coclosed_gauge"):
                gauge = gauge + col.generator.scale(c)
        _same_terms(dec.reconstruct(), chain)
        _same_terms(dec.gauge_X, gauge)
        gauged += not gauge.is_zero()
    assert gauged


def test_zero_frequency_block_is_keyed_on_tau():
    solve_reduced_system(CS, 0.0)
    dropped = {"shear_gauge", "radial_gauge"}
    assert dropped <= {e.label for e in ds._kernel_block(CS, (0, 0, 0), 0.0).columns}
    assert not dropped & {e.label for e in ds._kernel_block(CS, (0, 0, 0), 0.02).columns}
    assert not dropped & {e.label for e in solve_reduced_system(CS, 0.02)}


def test_basis_and_decomposition_keys_follow_the_mode_lookups():
    # harmonic legs are keyed by axis, coclosed legs by modes_at position,
    # TT modes by position in the sorted spectrum; a slice returned in the
    # other order would send each coefficient to the wrong key
    decay = RadialProfile.monomial(1.0, 0, -1.0)
    for a, eta in enumerate(modes_at(CS, "HarmonicOneForm", (0, 0, 0), "cos")):
        parts = decompose_one_form(F.from_mode_profile(CS, eta, decay))
        assert list(parts.harmonic) == [a]
        dec = classify_kernel(F.mixed_pair_tensor(CS, eta, RadialProfile.constant(0.7)))
        assert dec.gauge_Y.shear == pytest.approx({a: 0.7}, rel=1e-14)

    freq, phase = (0, 0, 1), "cos"
    eta_slice = modes_at(CS, "CoclosedOneForm", freq, phase)
    assert [m.polarization.tolist() for m in eta_slice] != [
        m.polarization.tolist() for m in build_spectrum(CS, "CoclosedOneForm").at(freq, phase)
    ]
    for i, eta in enumerate(eta_slice):
        parts = decompose_one_form(F.from_mode_profile(CS, eta, decay))
        assert list(parts.coclosed) == [(freq, phase, i)]

    freq, phase = (1, 1, 0), "sin"
    tt_slice = build_spectrum(CS, "TTTensor").at(freq, phase)
    assert [m.polarization.tolist() for m in tt_slice] != [
        m.polarization.tolist() for m in modes_at(CS, "TTTensor", freq, phase)
    ]
    s = math.sqrt(CS.eigenvalue(freq))
    for i, tt in enumerate(tt_slice):
        h = F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, 0, -s))
        dec = classify_kernel(h)
        assert list(dec.exp_modes) == [(freq, phase, i)]
        assert dec.exp_modes[(freq, phase, i)] == pytest.approx((0.0, 1.0), abs=1e-12)
    basis_meta = [e.meta for e in solve_reduced_system(CS, 0.0) if e.label == "tt_exp"]
    assert [m for m in basis_meta if m[:2] == (freq, phase)] == [
        (freq, phase, i, branch) for i in range(len(tt_slice)) for branch in ("plus", "minus")
    ]


def test_resonant_tau_is_rejected():
    with pytest.raises(ResonantTau):
        solve_reduced_system(CIRCLE, 0.5)  # 4 tau^2 = 1 = mu_1
    with pytest.raises(ResonantTau):
        classify_kernel(F.tangential_metric(CIRCLE), 0.5)
    solve_reduced_system(CIRCLE, 0.37)
    classify_kernel(F.tangential_metric(CIRCLE), 0.37)


def test_negative_tau_is_rejected():
    with pytest.raises(InvalidInput):
        solve_reduced_system(CS, -0.1)


@pytest.mark.parametrize("tau", [-0.1, math.nan, math.inf, -math.inf])
def test_tau_outside_zero_to_infinity_is_rejected_everywhere(tau):
    h = F.tangential_metric(CS)
    for call in (lambda: solve_reduced_system(CS, tau), lambda: classify_kernel(h, tau),
                 lambda: DivergenceConfig(tau=tau)):
        with pytest.raises(InvalidInput, match="finite and nonnegative"):
            call()


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("seed", [3, 17, 88, 101])
def test_classify_round_trip_tau_zero(seed):
    rng = np.random.default_rng(seed)
    h = random_kernel_element(CS, rng, tau=0.0)
    dec = classify_kernel(h, 0.0)
    field_close(dec.reconstruct(), h, 1e-12)


@pytest.mark.parametrize("seed", [5, 23])
def test_classify_round_trip_tau_positive(seed):
    rng = np.random.default_rng(seed)
    h = random_kernel_element(CS, rng, tau=0.02)
    dec = classify_kernel(h, 0.02)
    field_close(dec.reconstruct(), h, 1e-12)
    assert dec.gauge_Y.radial == 0.0 and not dec.gauge_Y.shear


def test_classify_trace_plus_decaying_tt():
    tt = next(m for m in build_spectrum(CS, "TTTensor").modes if any(m.freq))
    s = math.sqrt(tt.eigenvalue)
    h = F.metric_field(CS) - F.constant_tensor_field(
        CS, np.diag([1.0] + [0.0] * CS.dim)
    )
    h = h.scale(3.0) + F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, 0, -s))
    dec = classify_kernel(h, 0.01)
    a, a_tilde = dec.pure_trace
    assert a == pytest.approx(3.0, abs=1e-12)
    assert a_tilde == 0.0
    assert not dec.parallel_tt and not dec.linear_tt
    [(key, (a_plus, a_minus))] = list(dec.exp_modes.items())
    assert key[0] == tt.freq and key[1] == tt.phase
    assert a_plus == pytest.approx(0.0, abs=1e-12)
    assert a_minus == pytest.approx(1.0, abs=1e-12)
    assert dec.gauge_X.is_zero() and dec.gauge_Y.is_zero()


def test_classify_pure_gauge_content():
    coeffs = {(PHI.freq, PHI.phase): (0.7, -0.4)}
    h = lie_derivative_metric(trace_absorption_field(CS, coeffs))
    dec = classify_kernel(h, 0.0)
    assert dec.pure_trace == (0.0, 0.0)
    assert not dec.exp_modes
    assert not dec.gauge_X.is_zero()
    field_close(dec.reconstruct(), h, 1e-12)


def test_classify_radial_block_at_tau_zero_is_gauge():
    rr = np.zeros((CS.dim + 1, CS.dim + 1))
    rr[0, 0] = 1.0
    h = F.constant_tensor_field(CS, rr)
    dec = classify_kernel(h, 0.0)
    assert dec.gauge_Y.radial == pytest.approx(1.0, abs=1e-15)
    field_close(dec.reconstruct(), h, 1e-15)


def test_classify_rejects_radial_block_at_positive_tau():
    rr = np.zeros((CS.dim + 1, CS.dim + 1))
    rr[0, 0] = 1.0
    h = F.constant_tensor_field(CS, rr)
    with pytest.raises(NotInKernel, match="divergence"):
        classify_kernel(h, 0.01)


def test_classify_rejects_non_kernel_field():
    h = F.rr_tensor(CS, PHI, RadialProfile.monomial(1.0, 0, -1.0))
    with pytest.raises(NotInKernel, match="Ricci residual"):
        classify_kernel(h, 0.0)


def test_residual_gates_name_the_largest_residual_term():
    # on the unit 3-torus a TT term one part in 1e8 off -sqrt(mu) fails the
    # Ricci gate, before the term match that would name it
    cs = TorusCrossSection(3, (1.0,) * 3, 1)
    tt = next(m for m in build_spectrum(cs, "TTTensor").modes if any(m.freq))
    rate = -math.sqrt(tt.eigenvalue) * (1 + 1e-8)
    h = F.from_mode_profile(cs, tt, RadialProfile.monomial(1.0, 0, rate))
    with pytest.raises(NotInKernel) as err:
        classify_kernel(h)
    assert str(err.value).startswith("linearized Ricci residual 3.948e-07 exceeds 1.0e-08; ")
    assert str(err.value).endswith(
        f"largest at frequency {tt.freq}: {tt.phase} term of power 0 and rate {rate:.6g}")
    # a pure gauge field passes the Ricci gate; its divergence residual has
    # cos and sin terms of powers 0 and 1
    phi = next(m for m in build_spectrum(cs, "Scalar").modes if any(m.freq))
    h = lie_derivative_metric(F.radial_one_form(cs, phi, RadialProfile.monomial(1.0, 1, -1.0)))
    sizes = {(freq, phase, p, lam): np.max(np.abs(C))
             for (freq, phase), (p, lam), C in modified_divergence(h, 0.0).terms()}
    assert len(sizes) == 4
    freq, phase, p, lam = max(sizes, key=sizes.get)
    with pytest.raises(NotInKernel) as err:
        classify_kernel(h)
    assert str(err.value).startswith("tau-modified divergence residual ")
    assert str(err.value).endswith(
        f"largest at frequency {freq}: {phase} term of power {p} and rate {lam:.6g}")


def test_classify_zero_field():
    dec = classify_kernel(F.TensorField(CS, 2), 0.0)
    assert dec.pure_trace == (0.0, 0.0)
    assert not dec.parallel_tt and not dec.exp_modes
    assert dec.gauge_X.is_zero() and dec.gauge_Y.is_zero()
    assert dec.reconstruct().max_abs_coeff() == 0.0


@pytest.mark.parametrize("cs, tau", [(CS, 0.0), (CS, 0.02), (TORUS2, 0.0)])
def test_decomposition_is_coefficients_on_the_memoized_columns(cs, tau):
    h = random_kernel_element(cs, np.random.default_rng(29), tau=tau, n_parts=12)
    dec = classify_kernel(h, tau)
    basis = solve_reduced_system(cs, tau)
    positions = [next(i for i, e in enumerate(basis) if e is col) for col, _c in dec.parts]
    assert positions == sorted(positions)
    expected = F.TensorField.zero(cs, 2)
    for col, c in dec.parts:
        expected = expected + col.field.scale(c)
    assert (dec.reconstruct() - expected).max_abs_coeff() == 0.0


@pytest.mark.parametrize("seed", [2, 13, 31])
def test_gauge_X_generates_the_gauge_part(seed):
    rng = np.random.default_rng(seed)
    basis = solve_reduced_system(CS, 0.0)
    gauges = [e for e in basis if e.label in ("scalar_gauge", "coclosed_gauge")]
    others = [e for e in basis if e.label in ("trace_linear", "tt_parallel", "tt_exp")]
    gauge_part = F.TensorField.zero(CS, 2)
    for i in rng.choice(len(gauges), size=6, replace=False):
        gauge_part = gauge_part + gauges[i].field.scale(float(rng.uniform(0.3, 2.0)))
    h = gauge_part
    for i in rng.choice(len(others), size=4, replace=False):
        h = h + others[i].field.scale(float(rng.uniform(-2.0, 2.0)))
    dec = classify_kernel(h, 0.0)
    assert dec.gauge_X.rank == 1 and not dec.gauge_X.is_zero()
    field_close(lie_derivative_metric(dec.gauge_X), gauge_part, 1e-12)


def test_classify_recovers_known_coefficients():
    basis = solve_reduced_system(CS, 0.0)
    tt_parallel = [e for e in basis if e.label == "tt_parallel"]
    shear = [e for e in basis if e.label == "shear_gauge"]
    h = (
        tt_parallel[2].field.scale(-1.3)
        + shear[1].field.scale(0.6)
        + next(e for e in basis if e.label == "trace_linear").field.scale(2.0)
    )
    dec = classify_kernel(h, 0.0)
    assert dec.pure_trace[1] == pytest.approx(2.0, abs=1e-12)
    assert dec.parallel_tt == {2: pytest.approx(-1.3, abs=1e-12)}
    assert dec.gauge_Y.shear == {1: pytest.approx(0.6, abs=1e-12)}


def test_classify_reports_fit_conditioning():
    rng = np.random.default_rng(53)
    h = random_kernel_element(CS, rng, tau=0.0)
    dec = classify_kernel(h, 0.0)
    present = {freq for (freq, _phase) in h.keys() if any(freq)}
    assert set(dec.condition_numbers) == present
    for value in dec.condition_numbers.values():
        assert np.isfinite(value) and value < 1e8


def test_classify_conditioning_does_not_depend_on_a_window():
    # every basis element of an uneven torus at cutoff 2, so every positive
    # frequency gets a coefficient system; the sampled fit reached 6.4e4 here
    cs = TorusCrossSection(3, (1.0, 1.3, 2.1), 2)
    rng = np.random.default_rng(9)
    h = F.TensorField(cs, 2)
    for e in solve_reduced_system(cs, 0.0):
        h = h + e.field.scale(float(rng.uniform(0.3, 2.0)))
    dec = classify_kernel(h, 0.0)
    assert set(dec.condition_numbers) == {f for f in cs.canonical_freqs() if any(f)}
    assert max(dec.condition_numbers.values()) < 1e4
    field_close(dec.reconstruct(), h, 1e-12)


def _moved_rates(h, rel):
    return F.TensorField(h.cs, 2, [(key, (p, lam * (1.0 + rel)), C)
                                   for key, (p, lam), C in h.terms()])


@pytest.mark.parametrize("seed", [3, 17])
def test_classify_reads_rates_moved_by_round_off(seed):
    h0 = random_kernel_element(CS, np.random.default_rng(seed), tau=0.0)
    h = _moved_rates(h0, 1e-12)
    assert (h - h0).max_abs_coeff() > 0.1  # the moved terms sit at keys of their own
    # inside the library rates compare exactly, so the moved terms match no column
    with pytest.raises(NotInKernel, match="matches no kernel column"):
        classify_kernel(h, 0.0)
    # a field file's rates are read onto +-sqrt(mu) once, when it is loaded
    back = cli.field_from_dict(cli.field_to_dict(h))
    assert (back - h0).max_abs_coeff() == 0.0
    field_close(classify_kernel(back, 0.0).reconstruct(), h0, 1e-12)


def _pass_the_gates(monkeypatch):
    monkeypatch.setattr(ds, "linearized_ricci", lambda h: F.TensorField(h.cs, 2))
    monkeypatch.setattr(ds, "modified_divergence", lambda h, tau: F.TensorField(h.cs, 1))


@pytest.mark.parametrize(
    "freq, power, rate, message",
    [
        ((1, 0, 0), 2, None, r"frequency \(1, 0, 0\): cos term of power 2 and rate -6\.28319"),
        ((1, 0, 0), 0, -1.0, r"frequency \(1, 0, 0\): cos term of power 0 and rate -1 "),
        ((0, 0, 0), 0, -1.0, r"frequency \(0, 0, 0\): cos term of power 0 and rate -1 "),
    ],
    ids=["power", "rate", "zero-frequency"],
)
def test_classify_names_a_term_that_matches_no_column(monkeypatch, freq, power, rate, message):
    tt = build_spectrum(CS, "TTTensor").at(freq)[0]
    rate = -math.sqrt(tt.eigenvalue) if rate is None else rate
    h = F.from_mode_profile(CS, tt, RadialProfile.monomial(1.0, power, rate))
    _pass_the_gates(monkeypatch)
    with pytest.raises(NotInKernel, match=message):
        classify_kernel(h, 0.0)


def test_classify_and_reduced_form_gate_share_the_rate_rule(monkeypatch):
    cs = TorusCrossSection(3, (2.0 * math.pi,) * 3, 1)
    freq, phase = (1, 1, 0), "cos"
    tt = build_spectrum(cs, "TTTensor").at(freq, phase)[0]
    s = math.sqrt(tt.eigenvalue)

    def at(rate):
        return F.from_mode_profile(cs, tt, RadialProfile.monomial(1.0, 0, rate))

    dec = classify_kernel(at(-s), 0.0)
    assert dec.exp_modes == {(freq, phase, 0): (0.0, pytest.approx(1.0, abs=1e-12))}
    assert tc._require_reduced_form(at(-s)) is False

    # both compare rates exactly: one ulp off -sqrt(mu) is already a defect
    ulp = at(float(np.nextafter(-s, 0.0)))
    params = tc.ThreeCirclesParams(beta=0.5, beta_prime=0.25, L=5.0, triple=(0, 1, 2))
    with pytest.raises(InvalidInput, match="pure e"):
        tc.three_circles_check(ulp, params)
    with pytest.raises(NotInKernel, match="matches no kernel column"):
        classify_kernel(ulp, 0.0)
    _pass_the_gates(monkeypatch)
    for rel in (1e-15, 1e-10, 1e-8):
        moved = at(-s * (1.0 + rel))
        with pytest.raises(InvalidInput, match="pure e"):
            tc._require_reduced_form(moved)
        with pytest.raises(NotInKernel, match="matches no kernel column"):
            classify_kernel(moved, 0.0)


def test_classified_basis_certified_by_fd_oracle():
    cs = TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 1)
    rng = np.random.default_rng(71)
    h = random_kernel_element(cs, rng, tau=0.0, decaying_only=True)
    classify_kernel(h, 0.0)

    def run(n_r, n_x):
        grid = sample(h, (0.0, 6.0), n_r, n_x)
        return interior_sup(fd_operator("linearized_ricci", grid)), grid.max_spacing

    scale = max(1.0, interior_sup(sample(h, (0.0, 6.0), 65, 12)))
    err_coarse, h_coarse = run(65, 12)
    err_fine, h_fine = run(129, 24)
    assert err_coarse < 10.0 * h_coarse**2 * scale
    assert err_fine < 10.0 * h_fine**2 * scale
