"""The grid oracle has to stand on its own: these tests check stencil
order, exactness properties, and the adjointness identity that pins the
sign conventions, before the oracle is trusted anywhere else."""

import math

import numpy as np
import pytest

from cylspec import fd_oracle as O
from cylspec import fields as F
from cylspec.cross_section import TorusCrossSection, build_spectrum
from cylspec.errors import InvalidInput, MemoryGuard
from cylspec.mode_ode import RadialProfile

CS = TorusCrossSection(2, (2 * math.pi, 2 * math.pi), 1)
PHI = next(m for m in build_spectrum(CS, "scalar").modes if m.eigenvalue > 0)
ETA = next(iter(build_spectrum(CS, "coclosed").modes))
B_PAR = next(m for m in build_spectrum(CS, "tt").modes if m.eigenvalue == 0)
TR0 = next(m for m in build_spectrum(CS, "trace").modes if m.eigenvalue == 0)


def smooth_rank2():
    h = F.rr_tensor(CS, PHI, RadialProfile.monomial(0.8, 0, -0.5))
    h = h + F.mixed_pair_tensor(CS, ETA, RadialProfile.monomial(0.5, 1, -0.7))
    h = h + F.from_mode_profile(CS, TR0, RadialProfile.monomial(0.3, 0, -0.4))
    return h


def smooth_one_form():
    w = F.pair_one_form(
        CS, PHI, RadialProfile.monomial(1.0, 1, -0.4), RadialProfile.monomial(-0.6, 0, -0.3)
    )
    return w + F.radial_one_form(CS, PHI, RadialProfile.monomial(0.2, 2, -0.8))


def band_sup(f, lo, hi):
    """Sup over the rows whose radial node lies in [lo, hi]."""
    r = f.r_nodes()
    keep = (r >= lo - 1e-12) & (r <= hi + 1e-12)
    return float(np.max(np.abs(f.components[keep])))


# -- grid plumbing ----------------------------------------------------------


def test_grid_field_validation():
    with pytest.raises(InvalidInput):
        O.GridField((0.0, 6.0), 4, (1.0,), (8,), 0, np.zeros((4, 8)))
    with pytest.raises(InvalidInput):
        O.GridField((0.0, 6.0), 8, (1.0,), (8,), 0, np.zeros((8, 9)))
    with pytest.raises(InvalidInput):
        O.GridField((6.0, 0.0), 8, (1.0,), (8,), 0, np.zeros((8, 8)))


def test_memory_guard_trips_before_allocating():
    big = TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
    h = F.metric_field(big)
    with pytest.raises(MemoryGuard):
        O.sample(h, (0.0, 6.0), 512, 512)


def test_sample_validates_the_grid_before_evaluating(monkeypatch):
    def refuse(*_args):
        raise AssertionError("evaluate ran on an invalid grid")

    monkeypatch.setattr(F.TensorField, "evaluate", refuse)
    h = F.metric_field(CS)
    with pytest.raises(InvalidInput):
        O.sample(h, (0.0, 6.0), 4, 8)
    with pytest.raises(InvalidInput):
        O.sample(h, (6.0, 0.0), 8, 8)
    with pytest.raises(MemoryGuard):
        O.sample(h, (0.0, 6.0), 4096, 1024)


def test_stencil_config_validation():
    with pytest.raises(InvalidInput):
        O.StencilConfig(order=3)
    with pytest.raises(InvalidInput):
        O.StencilConfig(boundary="reflect")
    with pytest.raises(InvalidInput):
        O.fd_operator("curl", O.sample(F.metric_field(CS), (0, 6), 8, 8))


def test_sample_zero_field():
    gf = O.sample(F.TensorField.zero(CS, 2), (0.0, 6.0), 16, 8)
    assert gf.components.shape == (16, 8, 8, 3, 3)
    assert np.all(gf.components == 0.0)
    assert gf.components.flags.writeable


def test_sample_matches_direct_evaluation():
    h = F.rr_tensor(CS, PHI, RadialProfile.monomial(1.0, 0, -1.0))
    gf = O.sample(h, (0.0, 5.0), 16, 8)
    r = gf.r_nodes()
    x1, x2 = gf.x_nodes()
    amp = float(PHI.polarization)
    omega = np.array(PHI.omega)
    for i in (0, 7, 15):
        for j in (0, 3):
            for k in (0, 5):
                want = amp * math.cos(omega @ (x1[j], x2[k])) * math.exp(-r[i])
                assert gf.components[i, j, k, 0, 0] == pytest.approx(want, abs=1e-15)
                assert gf.components[i, j, k, 1, 1] == 0.0


def test_sample_l2_matches_tube_norm():
    h = smooth_rank2()
    want = math.sqrt(F.tube_norm_sq(h, 0.0, 6.0))
    errs = []
    for n_r in (33, 65):
        got = O.l2_norm(O.sample(h, (0.0, 6.0), n_r, 24))
        errs.append(abs(got - want))
    assert errs[0] < 1e-2
    assert errs[0] / errs[1] == pytest.approx(4.0, rel=0.2)


# -- operators against the symbolic route -----------------------------------


def test_divergence_of_constant_tensor_is_zero():
    gf = O.sample(F.metric_field(CS), (0.0, 6.0), 16, 8)
    out = O.fd_operator("divergence", gf)
    assert np.max(np.abs(out.interior())) == 0.0


def test_rough_laplacian_of_decaying_parallel_tt():
    h = F.from_mode_profile(CS, B_PAR, RadialProfile.monomial(1.0, 0, -1.0))
    gf = O.sample(h, (0.0, 6.0), 64, 8)
    out = O.fd_operator("rough_laplacian", gf)
    want = O.sample(h.scale(-1.0), (0.0, 6.0), 64, 8)
    assert O.interior_sup(out - want) < 1.2 * gf.dr ** 2


_CASES = [
    ("divergence", smooth_rank2, F.divergence),
    ("sym_grad", smooth_one_form, F.sym_grad),
    ("rough_laplacian", smooth_rank2, F.rough_laplacian),
    ("trace_hessian", smooth_rank2, lambda f: F.hessian(F.trace(f))),
    ("linearized_ricci", smooth_rank2, F.linearized_ricci),
]


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("op,make,sym_op", _CASES, ids=[c[0] for c in _CASES])
def test_operator_converges_at_stencil_order(op, make, sym_op, order):
    field = make()
    reference = sym_op(field)
    cfg = O.StencilConfig(order=order)
    errs = []
    coarse = O.sample(field, (0.0, 6.0), 64, 24)
    lo = 0.0 + O.INTERIOR_TRIM * coarse.dr
    hi = 6.0 - O.INTERIOR_TRIM * coarse.dr
    for n_r, n_x in ((64, 24), (127, 48)):
        gf = O.sample(field, (0.0, 6.0), n_r, n_x)
        want = O.sample(reference, (0.0, 6.0), n_r, n_x)
        errs.append(band_sup(O.fd_operator(op, gf, cfg) - want, lo, hi))
    ratio = errs[0] / errs[1]
    assert ratio == pytest.approx(2.0 ** order, rel=0.15)


def test_rank_mismatch_rejected():
    gf = O.sample(smooth_one_form(), (0.0, 6.0), 16, 8)
    for op in ("trace_hessian", "linearized_ricci", "lichnerowicz"):
        with pytest.raises(InvalidInput):
            O.fd_operator(op, gf)
    scalar = O.sample(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)), (0, 6), 16, 8)
    with pytest.raises(InvalidInput):
        O.fd_operator("divergence", scalar)


@pytest.mark.parametrize("order", [2, 4])
def test_lichnerowicz_equals_rough_on_flat_background(order):
    cfg = O.StencilConfig(order=order)
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    lich = O.fd_operator("lichnerowicz", gf, cfg)
    rough = O.fd_operator("rough_laplacian", gf, cfg)
    assert np.max(np.abs(lich.components - rough.components)) == 0.0


def test_interior_restricted_policy_zeroes_radial_edge_stencils():
    # a field depending on r alone isolates the radial stencil: under the
    # restricted policy its derivative vanishes on the skewed edge rows
    h = F.rr_tensor(CS, next(m for m in build_spectrum(CS, "scalar").modes
                             if m.eigenvalue == 0),
                    RadialProfile.monomial(1.0, 0, -1.0))
    gf = O.sample(h, (0.0, 6.0), 32, 12)
    restricted = O.fd_operator("divergence", gf,
                               O.StencilConfig(order=4, boundary="interior-restricted"))
    assert np.all(restricted.components[:2] == 0.0)
    assert np.all(restricted.components[-2:] == 0.0)
    assert np.any(restricted.components[2] != 0.0)
    onesided = O.fd_operator("divergence", gf, O.StencilConfig(order=4))
    assert np.all(onesided.components[0] != 0.0) or np.any(onesided.components[0] != 0.0)


# -- adjointness pins the sign conventions ----------------------------------


@pytest.mark.parametrize("order", [2, 4])
def test_discrete_adjointness_on_periodic_fields(order):
    n = 24
    base = O.GridField((0.0, 2 * math.pi), n, (2 * math.pi, 2 * math.pi), (n, n),
                       0, np.zeros((n, n, n)), r_periodic=True)
    R, X1, X2 = np.meshgrid(base.r_nodes(), *base.x_nodes(), indexing="ij")
    w = np.stack([
        np.sin(R) * np.cos(X1),
        np.cos(R + X2),
        np.sin(X1) * np.cos(X2) + 0.3 * np.cos(R),
    ], axis=-1)
    h = np.zeros((n, n, n, 3, 3))
    h[..., 0, 0] = np.cos(R) * np.cos(X1)
    h[..., 1, 1] = np.sin(R + X1)
    h[..., 2, 2] = np.sin(X2) * np.cos(R)
    h[..., 0, 1] = h[..., 1, 0] = np.sin(R) * np.sin(X2)
    h[..., 0, 2] = h[..., 2, 0] = np.cos(X1) * np.sin(X2)
    h[..., 1, 2] = h[..., 2, 1] = np.cos(R) * np.sin(X1)
    wf = base.with_components(w, rank=1)
    hf = base.with_components(h, rank=2)
    cfg = O.StencilConfig(order=order)
    div_h = O.fd_operator("divergence", hf, cfg)
    sym_w = O.fd_operator("sym_grad", wf, cfg)
    lhs = float(np.sum(div_h.components * w))
    rhs = 0.5 * float(np.sum(h * sym_w.components))
    assert lhs == pytest.approx(rhs, rel=1e-12)


# -- nonlinear Ricci --------------------------------------------------------


def test_flat_metric_is_ricci_flat_exactly():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    g0 = O.flat_metric_grid(gf)
    ric = O.nonlinear_ricci(g0, O.StencilConfig(order=4))
    assert np.max(np.abs(ric.components)) == 0.0


def test_scaled_product_metric_stays_flat():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    g = O.flat_metric_grid(gf).components.copy()
    g[..., 1:, 1:] *= 1.3
    ric = O.nonlinear_ricci(O.flat_metric_grid(gf).with_components(g))
    assert np.max(np.abs(ric.components)) < 1e-12


def test_nonlinear_ricci_input_checks():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 16, 8)
    g0 = O.flat_metric_grid(gf)
    bad = g0.components.copy()
    bad[..., 0, 1] = 0.5
    with pytest.raises(InvalidInput):
        O.nonlinear_ricci(g0.with_components(bad))
    sad = g0.components.copy()
    sad[..., 0, 0] = -1.0
    with pytest.raises(InvalidInput):
        O.nonlinear_ricci(g0.with_components(sad))
    with pytest.raises(InvalidInput):
        O.nonlinear_ricci(O.sample(smooth_one_form(), (0, 6), 16, 8))


def test_nonlinear_ricci_matches_linearization_at_small_eps():
    cfg = O.StencilConfig(order=4)
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 48, 16)
    g0 = O.flat_metric_grid(gf)
    lin = O.fd_operator("linearized_ricci", gf, cfg)
    eps = 1e-3
    ric = O.nonlinear_ricci(g0 + gf.scale(eps), cfg)
    rem = O.interior_sup(ric - lin.scale(eps))
    # the linear FD terms cancel exactly, so only the eps^2 piece survives
    assert rem < 0.1 * eps ** 2


# -- quadratic remainder ----------------------------------------------------


def test_remainder_scan_slope_is_two():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 64, 24)
    scan = O.quadratic_remainder_scan(gf, (1e-1, 3e-2, 1e-2))
    assert 1.9 <= scan.exponent <= 2.1
    assert scan.remainders[0] > scan.remainders[-1]


def test_remainder_scan_zero_perturbation():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    scan = O.quadratic_remainder_scan(gf.scale(0.0), (1e-1, 1e-2))
    assert scan.remainders == (0.0, 0.0)
    assert math.isnan(scan.exponent)


def test_remainder_scan_pure_gauge():
    X = F.pair_one_form(
        CS, PHI, RadialProfile.monomial(0.5, 0, -0.6), RadialProfile.monomial(0.3, 1, -0.5)
    )
    gf = O.sample(F.sym_grad(X), (0.0, 6.0), 64, 24)
    scan = O.quadratic_remainder_scan(gf, (1e-1, 3e-2, 1e-2))
    assert 1.9 <= scan.exponent <= 2.1


def test_remainder_scan_input_checks():
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    with pytest.raises(InvalidInput):
        O.quadratic_remainder_scan(gf, (1e-2, 1e-1))
    with pytest.raises(InvalidInput):
        O.quadratic_remainder_scan(gf, ())
