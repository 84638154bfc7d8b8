"""The grid oracle has to stand on its own: these tests check stencil
order, exactness properties, and the adjointness identity that pins the
sign conventions, before the oracle is trusted anywhere else."""

import math
import tracemalloc

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


def warped_product_error(n_r, d=2):
    """Interior sup of FD Ricci minus the closed form for the warped product
    dr^2 + e^{2f(r)} g_flat, f = 0.3 sin r on [0.5, 2], at order 4:
    Ric_rr = -d (f'' + f'^2), Ric_ij = -(f'' + d f'^2) e^{2f} delta_ij."""
    shape = (n_r,) + (8,) * d + (d + 1, d + 1)
    base = O.GridField((0.5, 2.0), n_r, (1.0,) * d, (8,) * d, 2, np.zeros(shape))
    r = base.r_nodes()
    f, f1, f2 = 0.3 * np.sin(r), 0.3 * np.cos(r), -0.3 * np.sin(r)
    g = np.zeros((n_r, d + 1, d + 1))
    want = np.zeros((n_r, d + 1, d + 1))
    g[:, 0, 0] = 1.0
    want[:, 0, 0] = -d * (f2 + f1 ** 2)
    for i in range(1, d + 1):
        g[:, i, i] = np.exp(2 * f)
        want[:, i, i] = -(f2 + d * f1 ** 2) * np.exp(2 * f)
    along_x = (slice(None),) + (None,) * d
    ric = O.nonlinear_ricci(base.with_components(np.broadcast_to(g[along_x], shape).copy()),
                            O.StencilConfig(order=4))
    return O.interior_sup(ric - base.with_components(np.broadcast_to(want[along_x], shape)))


def test_nonlinear_ricci_of_a_warped_product_converges_at_order_four():
    # a curved reference that can fail: the metric is invariant along the
    # torus, so this runs the collapsed path with non-zero curvature
    coarse, fine = warped_product_error(48), warped_product_error(95)
    assert coarse < 1e-6
    assert 14.0 < coarse / fine < 18.0


# -- collapsed invariant axes -----------------------------------------------


def full_grid_christoffel(g, cfg):
    """The Christoffel formula applied to the whole component array."""
    D = g.dim + 1
    dg = np.stack([O._partial(g.components, a, g, cfg) for a in range(D)], axis=-3)
    low = 0.5 * (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", np.linalg.inv(g.components), low)


def full_grid_ricci(g, cfg):
    D = g.dim + 1
    gamma = full_grid_christoffel(g, cfg)
    term1 = sum(O._partial(np.take(gamma, k, axis=g.grid_ndim), k, g, cfg) for k in range(D))
    tr = np.einsum("...kkj->...j", gamma)
    term2 = np.stack([O._partial(tr, i, g, cfg) for i in range(D)], axis=-2)
    term3 = np.einsum("...l,...lij->...ij", tr, gamma)
    term4 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return term1 - term2 + term3 - term4


def wavy_metric(depends_on, r_periodic, seed):
    """Identity plus symmetric products of cosines of the grid axes listed
    in depends_on, on a grid whose four spacings all differ."""
    rng = np.random.default_rng(seed)
    base = O.GridField((0.5, 2.0), 12, (1.0, 1.7, 2.3), (8, 9, 10), 2,
                       np.zeros((12, 8, 9, 10, 4, 4)), r_periodic)
    mesh = np.meshgrid(base.r_nodes(), *base.x_nodes(), indexing="ij")
    periods = (1.5,) + base.lengths
    g = np.broadcast_to(np.eye(4), base.components.shape).copy()
    for i in range(4):
        for j in range(i, 4):
            val = 0.1 * rng.standard_normal()
            for axis in depends_on:
                val = val * np.cos(2 * np.pi * mesh[axis] / periods[axis] + rng.uniform(0, 6))
            g[..., i, j] += val
            if i != j:
                g[..., j, i] += val
    return base.with_components(g)


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("depends_on, r_periodic, collapsed", [
    ((0,), False, (12, 1, 1, 1)),           # invariant along every x-axis
    ((0, 2), False, (12, 1, 9, 1)),         # along some x-axes
    ((0, 1, 2, 3), False, (12, 8, 9, 10)),  # along none
    ((1,), True, (1, 8, 1, 1)),             # periodic r collapses too
    ((0, 3), True, (12, 1, 1, 10)),
], ids=["all-x", "some-x", "no-x", "periodic-r", "periodic-r-some-x"])
def test_collapsed_curvature_equals_the_full_grid_bit_for_bit(depends_on, r_periodic,
                                                              collapsed, order):
    cfg = O.StencilConfig(order=order)
    g = wavy_metric(depends_on, r_periodic, seed=len(depends_on) + 10 * r_periodic)
    assert O._collapse_invariant_axes(g).shape[:4] == collapsed
    got = O.nonlinear_ricci(g, cfg).components
    assert got.shape == g.components.shape
    assert np.array_equal(got, full_grid_ricci(g, cfg))
    assert np.max(np.abs(got)) > 0.1

    g0 = O.flat_metric_grid(g)
    gamma = full_grid_christoffel(g0, cfg)
    want_riem = O._riemann_from_christoffel(gamma, g0, cfg)
    want_ric = np.einsum("...kikj->...ij", want_riem)
    ric, riem = O._background_curvature(g, cfg)
    assert np.array_equal(np.broadcast_to(ric, want_ric.shape), want_ric)
    assert np.array_equal(np.broadcast_to(riem, want_riem.shape), want_riem)


def test_curvature_memory_stays_near_the_input_size():
    # full-grid curvature of the flat background peaked at 53x (lichnerowicz)
    # and 14x (nonlinear_ricci) the input bytes; collapsed, 5x and 3x
    comps = np.random.default_rng(0).standard_normal((64, 8, 8, 8, 4, 4))
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.0, 1.0), (8, 8, 8), 2, comps)
    cfg = O.StencilConfig(order=4)
    flat = O.flat_metric_grid(f)

    def peak_ratio(run):
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return (tracemalloc.get_traced_memory()[1] - before) / comps.nbytes
        finally:
            tracemalloc.stop()

    assert peak_ratio(lambda: O.fd_operator("lichnerowicz", f, cfg)) <= 8.0
    assert peak_ratio(lambda: O.nonlinear_ricci(flat, cfg)) <= 6.0


def test_interior_of_a_grid_without_a_band_is_rejected():
    n_r = 2 * O.INTERIOR_TRIM
    with pytest.raises(InvalidInput, match="INTERIOR_TRIM"):
        O.interior_sup(O.sample(smooth_rank2(), (0.0, 6.0), n_r, 8))
    assert O.sample(smooth_rank2(), (0.0, 6.0), n_r + 1, 8).interior().shape[0] == 1


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
