"""The grid oracle has to stand on its own: these tests check stencil
order, exactness properties, and the adjointness identity that pins the
sign conventions, before the oracle is trusted anywhere else."""

import functools
import math
import operator
import os
import subprocess
import sys
import threading
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from cylspec import fd_oracle as O
from cylspec import fields as F
from cylspec.cross_section import TorusCrossSection, build_spectrum
from cylspec.errors import InvalidInput, MemoryGuard
from cylspec.mode_ode import RadialProfile

CS = TorusCrossSection(2, (2 * math.pi, 2 * math.pi), 1)
PHI = next(m for m in build_spectrum(CS, "Scalar").modes if m.eigenvalue > 0)
ETA = next(iter(build_spectrum(CS, "CoclosedOneForm").modes))
B_PAR = next(m for m in build_spectrum(CS, "TTTensor").modes if m.eigenvalue == 0)
TR0 = next(m for m in build_spectrum(CS, "PureTrace").modes if m.eigenvalue == 0)


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
    # validate with r_max = inf exited 3 on an infinite spacing, and with
    # r_max = 1e300 exited 1 on the overflow of its squared spacing
    with pytest.raises(InvalidInput, match=r"r_range \(0.0, inf\) must be finite"):
        O.GridField((0.0, math.inf), 8, (1.0,), (8,), 0, np.zeros((8, 8)))
    for r_range, lengths in (((0.0, 1e300), (1.0,)), ((0.0, 6.0), (np.nan,))):
        with pytest.raises(InvalidInput, match="squared is not finite"):
            O.GridField(r_range, 8, lengths, (8,), 0, np.zeros((8, 8)))


@pytest.mark.parametrize("lengths,index", [((-1.0,), 0), ((0.0,), 0), ((1.0, -2.0), 1)])
def test_grid_field_rejects_a_side_length_that_is_not_positive(lengths, index):
    # a negative length flipped the sign of every first partial along its
    # axis, and a zero length divided by a zero spacing
    n_x = (8,) * len(lengths)
    with pytest.raises(InvalidInput, match=f"side length {index} must be finite and > 0"):
        O.GridField((0.0, 6.0), 8, lengths, n_x, 0, np.zeros((8, *n_x)))


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
        O.fd_operator("curl", O.sample(F.metric_field(CS), (0, 6), 8, 8))


# -- operator names and ranks -----------------------------------------------


def test_an_unknown_operator_is_rejected_naming_every_known_one():
    gf = O.sample(F.metric_field(CS), (0, 6), 8, 8)
    with pytest.raises(InvalidInput) as err:
        O.fd_operator("curl", gf)
    assert str(err.value) == ("unknown operator 'curl'; expected one of ('divergence', "
                              "'sym_grad', 'rough_laplacian', 'linearized_ricci', "
                              "'lichnerowicz')")


def test_the_rank_is_checked_before_any_stencil_runs(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a stencil ran before the rank check")

    monkeypatch.setattr(O, "_partial", refuse)
    rank2 = O.sample(smooth_rank2(), (0.0, 6.0), 16, 8)
    scalar = O.sample(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)), (0, 6), 16, 8)
    for op, f in (("sym_grad", rank2), ("divergence", scalar), ("lichnerowicz", scalar)):
        with pytest.raises(InvalidInput, match=f"{op} does not take a rank-{f.rank} field"):
            O.fd_operator(op, f)


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


def _l2_norm(f):
    """Trapezoid in r, exact uniform sum over the periodic directions."""
    sq = (f.components ** 2).reshape(f.n_r, -1).sum(axis=1)
    w = np.full(f.n_r, f.dr)
    w[0] = w[-1] = f.dr / 2
    return math.sqrt(float(w @ sq) * math.prod(f.dx))


def test_sample_l2_matches_tube_norm():
    h = smooth_rank2()
    want = math.sqrt(F.tube_inner_product(h, h, 0.0, 6.0))
    errs = []
    for n_r in (33, 65):
        got = _l2_norm(O.sample(h, (0.0, 6.0), n_r, 24))
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
    for op in ("linearized_ricci", "lichnerowicz"):
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


# -- adjointness pins the sign conventions ----------------------------------


@pytest.mark.parametrize("order", [2, 4])
def test_discrete_adjointness_on_periodic_fields(order):
    # periodic along the torus and zero on the INTERIOR_TRIM rows at each
    # radial end, so the skewed edge stencils only ever meet zeros and
    # summation by parts leaves no boundary term
    n = 24
    base = O.GridField((0.0, 2 * math.pi), n, (2 * math.pi, 2 * math.pi), (n, n),
                       0, np.zeros((n, n, n)))
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
    for c in (w, h):
        c[:O.INTERIOR_TRIM] = c[-O.INTERIOR_TRIM:] = 0.0
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


def test_nonlinear_ricci_checks_run_on_the_collapsed_metric_and_still_fail():
    g0 = O.flat_metric_grid(O.sample(smooth_rank2(), (0.0, 6.0), 16, 8))
    sad = g0.components.copy()
    sad[..., 1, 1] = -0.5  # invariant, not positive definite
    skew = g0.components.copy()
    skew[..., 1, 2] = 0.3  # invariant, not symmetric
    for comps, message in ((sad, "positive definite"), (skew, "symmetric")):
        assert O._collapse_invariant_axes(g0.with_components(comps)).shape[:3] == (16, 1, 1)
        with pytest.raises(InvalidInput, match=message):
            O.nonlinear_ricci(g0.with_components(comps))
    # one bad node keeps its axes from collapsing, so the checks still see it
    for entry, message in (((0, 0), "positive definite"), ((0, 2), "symmetric")):
        one = g0.components.copy()
        one[(9, 3, 5) + entry] = -2.0
        assert O._collapse_invariant_axes(g0.with_components(one)).shape[:3] == (16, 8, 8)
        with pytest.raises(InvalidInput, match=message):
            O.nonlinear_ricci(g0.with_components(one))


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


# -- bit identity with the np.roll stencils ---------------------------------
#
# An inline copy of the stencils and operators as they were first written,
# with np.roll and np.stack; every routine of the oracle must equal it bit
# for bit.


def roll_d1_periodic(vals, h, axis, order):
    if order == 2:
        return (np.roll(vals, -1, axis) - np.roll(vals, 1, axis)) / (2 * h)
    return (-np.roll(vals, -2, axis) + 8 * np.roll(vals, -1, axis)
            - 8 * np.roll(vals, 1, axis) + np.roll(vals, 2, axis)) / (12 * h)


def roll_d1_bounded(vals, h, order):
    out = np.zeros_like(vals)
    if order == 2:
        out[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
    else:
        out[2:-2] = (-vals[4:] + 8 * vals[3:-1] - 8 * vals[1:-3] + vals[:-4]) / (12 * h)
        out[1] = (vals[2] - vals[0]) / (2 * h)
        out[-2] = (vals[-1] - vals[-3]) / (2 * h)
    out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * h)
    return out


def roll_partial(arr, a, grid, cfg, second=False):
    h = grid.spacings[a]
    if a > 0:
        d1 = functools.partial(roll_d1_periodic, h=h, axis=a, order=cfg.order)
    else:
        d1 = functools.partial(roll_d1_bounded, h=h, order=cfg.order)
    return d1(d1(arr)) if second else d1(arr)


def in_order(terms):
    """terms[0] + terms[1] + ..., summed left to right."""
    return functools.reduce(operator.add, terms)


def roll_operators(f, cfg):
    """Every operator the field's rank admits, by name."""
    return {op: roll_operator(op, f, cfg) for op, admits in ROLL_RANKS.items()
            if admits(f.rank)}


ROLL_RANKS = {
    "rough_laplacian": lambda rank: True,
    "divergence": lambda rank: rank >= 1,
    "sym_grad": lambda rank: rank == 1,
    "linearized_ricci": lambda rank: rank == 2,
    "lichnerowicz": lambda rank: rank == 2,
}


def roll_operator(op, f, cfg):
    """The operator op of f, computing nothing that op does not use."""
    D, c = f.dim + 1, f.components
    part = functools.partial(roll_partial, grid=f, cfg=cfg)
    if op == "rough_laplacian":
        return -in_order([part(c, a, second=True) for a in range(D)])
    if op == "divergence":
        return -in_order([part(np.take(c, a, axis=f.grid_ndim), a) for a in range(D)])
    if op == "sym_grad":
        grad = np.stack([part(c, i) for i in range(D)], axis=f.grid_ndim)
        return grad + np.swapaxes(grad, -1, -2)
    rough = roll_operator("rough_laplacian", f, cfg)
    if op == "linearized_ricci":
        # Bianchi form: v = -beta(c), summed in the order _slab_sweep documents
        for a in range(D):
            d1 = part(c, a)
            v = d1[..., a, :].copy() if a == 0 else v + d1[..., a, :]
            v[..., a] -= in_order([d1[..., i, i] for i in range(D)]) * 0.5
        gauge = roll_operator("sym_grad", f.with_components(v, rank=1), cfg)
        return (rough + gauge) * 0.5
    assert op == "lichnerowicz", op
    # the product metric, cut to length 1 along every tangential axis
    g0 = np.broadcast_to(np.eye(D), c.shape).copy()
    g0 = g0[(slice(None),) + (slice(0, 1),) * f.dim]
    riem = roll_riemann(roll_christoffel(g0, f, cfg), f, cfg)
    ric = np.einsum("...kikj->...ij", riem)
    coupling = (np.einsum("...ik,...kj->...ij", ric, c, optimize=True)
                + np.einsum("...jk,...ik->...ij", ric, c, optimize=True)
                - 2.0 * np.einsum("...ikjl,...kl->...ij", riem, c, optimize=True))
    return rough + coupling


def roll_christoffel(comps, g, cfg):
    D = g.dim + 1
    dg = np.stack([roll_partial(comps, a, g, cfg) for a in range(D)], axis=-3)
    low = 0.5 * (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", np.linalg.inv(comps), low)


def roll_riemann(gamma, g, cfg):
    D = g.dim + 1
    dgamma = np.stack([roll_partial(gamma, a, g, cfg) for a in range(D)], axis=-4)
    return (np.einsum("...iklj->...klij", dgamma)
            - np.einsum("...jkli->...klij", dgamma)
            + np.einsum("...kim,...mjl->...klij", gamma, gamma)
            - np.einsum("...kjm,...mil->...klij", gamma, gamma))


@st.composite
def roll_cases(draw):
    """A random field on a grid whose spacings all differ, a stencil, and
    the tangential axes along which to cut the field to length 1."""
    dim = draw(st.integers(1, 3))
    rank = draw(st.integers(0, 2))
    n_r = draw(st.integers(8, 12))
    n_x = tuple(draw(st.integers(8, 10)) for _ in range(dim))
    lengths = tuple(draw(st.floats(0.5, 3.0)) for _ in range(dim))
    r_range = (0.0, draw(st.floats(0.5, 3.0)))
    base = O.GridField(r_range, n_r, lengths, n_x, rank,
                       np.zeros((n_r, *n_x) + (dim + 1,) * rank))
    assume(len(set(base.spacings)) == dim + 1)
    seed = draw(st.integers(0, 2**32 - 1))
    f = base.with_components(np.random.default_rng(seed).standard_normal(base.components.shape))
    cfg = O.StencilConfig(draw(st.sampled_from((2, 4))))
    collapse = draw(st.lists(st.booleans(), min_size=dim + 1, max_size=dim + 1))
    return f, cfg, collapse


@given(roll_cases())
@settings(max_examples=80, deadline=None)
def test_operators_and_stencils_equal_the_roll_stencils_bit_for_bit(case):
    f, cfg, collapse = case
    want = roll_operators(f, cfg)
    for op in want:
        assert np.array_equal(O.fd_operator(op, f, cfg).components, want[op]), op
    # a component array cut to length 1 along some tangential axes
    cut = f.components[tuple(slice(0, 1) if c and a > 0 else slice(None)
                             for a, c in enumerate(collapse))]
    for a in range(f.grid_ndim):
        assert np.array_equal(O._partial(cut, a, f, cfg), roll_partial(cut, a, f, cfg)), a


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("rank", [1, 2, 3])
def test_divergence_copies_whole_component_rows_bit_for_bit(rank, order):
    # at rank >= 2 a C-contiguous field's component rows are copied as one
    # np.void item each; a Fortran-ordered array of the same values takes
    # the entry-by-entry copy
    base = O.GridField((0.0, 6.0), 16, (1.0, 1.3), (8, 10), rank,
                       np.zeros((16, 8, 10) + (3,) * rank))
    values = np.random.default_rng(rank).standard_normal(base.components.shape)
    cfg = O.StencilConfig(order)
    want = roll_operators(base.with_components(values), cfg)["divergence"]
    for c in (values, np.asfortranarray(values)):
        assert np.array_equal(O.fd_operator("divergence", base.with_components(c), cfg).components,
                              want)


# n_r 8 stays serial at any thread count; at order 2, n_r 48 takes slabs at
# 2 and 3 threads; at order 4, n_r 64 takes them at 2 threads (3 fall back
# to 2) and n_r 96 at 3 threads
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("rank", [0, 1, 2])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_slabs_equal_the_roll_stencils_and_one_thread_bit_for_bit(monkeypatch, dim, rank, order):
    """Every operator a rank admits, at 1, 2 and 3 threads: each output
    equals the np.roll stencils, equals the one-thread output byte for
    byte, and starts on a 64-byte boundary."""
    cfg = O.StencilConfig(order=order)
    sizes = (8, 48) if order == 2 else (8, 64) + ((96,) if dim == 1 else ())
    for n_r in sizes:
        shape = (n_r,) + (8,) * dim + (dim + 1,) * rank
        comps = np.random.default_rng(n_r + 10 * dim + rank).standard_normal(shape)
        f = O.GridField((0.0, 6.0), n_r, (1.0, 1.3, 1.7)[:dim], (8,) * dim, rank, comps)
        want = roll_operators(f, cfg)
        once = {}
        for threads in (1, 2, 3):
            monkeypatch.setattr(O, "fd_threads", lambda: threads)
            most = 1 if n_r == 8 else 3 if order == 2 or n_r == 96 else 2
            for op in sorted(want):
                assert O._slab_plan(op, f, cfg)[0] == min(threads, most), (threads, op)
                comps = O.fd_operator(op, f, cfg).components
                assert comps.ctypes.data % 64 == 0, (threads, op)
                assert np.array_equal(comps, want[op]), (threads, op)
                assert once.setdefault(op, comps.tobytes()) == comps.tobytes(), (threads, op)


# the smallest grids on which a sweep op takes the slab path at two
# threads: 4 slabs of 4 order rows
_SLAB_MIN = {2: 32, 4: 64}


@pytest.mark.parametrize("n_r, lengths, n_x, order, rank", [
    (64, (1.0, 1.0, 1.0), 8, 4, 2),           # validate-cli's grid, d = 3
    (128, (2 * math.pi, 2 * math.pi), 24, 2, 2),  # kernel-roundtrip's grid, d = 2
    (_SLAB_MIN[2], (1.0, 1.3), 8, 2, 2),
    (_SLAB_MIN[2] - 1, (1.0, 1.3), 8, 2, 2),
    (_SLAB_MIN[4], (1.0, 1.3), 8, 4, 2),
    (_SLAB_MIN[4] - 1, (1.0, 1.3), 8, 4, 2),
    (_SLAB_MIN[2], (1.7,), 9, 2, 2),
    (_SLAB_MIN[4], (1.0, 1.2, 1.4), 8, 4, 2),
    (_SLAB_MIN[2], (1.0, 1.3), 8, 2, 0),
    (_SLAB_MIN[4], (1.0, 1.3), 8, 4, 1),
    (_SLAB_MIN[2], (1.0, 1.3), 25, 2, 2),
    (_SLAB_MIN[4], (1.0, 1.3), 24, 4, 2),
], ids=["64x8^3-order4", "128x24^2-order2", "slab-min-order2", "below-slab-min-order2",
        "slab-min-order4", "below-slab-min-order4", "d1", "d3", "rank0", "rank1",
        "n_x25-order2", "n_x24-order4"])
def test_workload_grids_equal_the_roll_stencils_bit_for_bit(monkeypatch, n_r, lengths, n_x,
                                                            order, rank):
    shape = (n_r,) + (n_x,) * len(lengths) + (len(lengths) + 1,) * rank
    comps = np.random.default_rng(n_r + order).standard_normal(shape)
    f = O.GridField((0.0, 6.0), n_r, lengths, (n_x,) * len(lengths), rank, comps)
    cfg = O.StencilConfig(order=order)
    # two threads, whatever the host has, so the path taken is fixed
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    slabbed = n_r >= _SLAB_MIN[order]
    assert (O._slab_plan("rough_laplacian", f, cfg)[0] > 1) == slabbed
    want = roll_operators(f, cfg)
    for op in want:
        got = O.fd_operator(op, f, cfg).components
        assert np.array_equal(got, want[op]), op
        with monkeypatch.context() as serial:
            serial.setattr(O, "fd_threads", lambda: 1)
            once = O.fd_operator(op, f, cfg).components
        assert np.array_equal(got, once), op


@pytest.mark.parametrize("order", [2, 4])
def test_partials_on_windows_and_strided_outputs_equal_the_roll_stencils(order):
    """_partial called straight, against roll_partial bit for bit: row
    windows read from a later start, a non-contiguous out with and without
    an acc buffer, and sources cut to length 1 along a tangential axis, so
    that a one-row window has outer size A = 1 along every axis."""
    n_r, n_x = 16, (9, 8)
    c = np.random.default_rng(order).standard_normal((n_r, *n_x, 3, 3))
    f = O.GridField((0.0, 6.0), n_r, (1.0, 1.3), n_x, 2, c)
    cfg = O.StencilConfig(order=order)
    sources = (c, c[:, :1], c[:, :, :1], c[:, :1, :1])
    for src in sources:
        for a in range(f.grid_ndim):
            want = roll_partial(src, a, f, cfg)
            for lo, hi in ((0, n_r), (0, 3), (5, 9), (13, 16), (7, 8), (0, 1), (15, 16)):
                start, end = max(lo - 3, 0), min(hi + 3, n_r)
                window = dict(rows=(lo, hi), start=start)
                got = O._partial(src[start:end], a, f, cfg, **window)
                assert np.array_equal(got, want[lo:hi]), (src.shape, a, lo, hi)
                for acc in (None, np.empty(src[0].size * (hi - lo))):
                    out = np.full(want[lo:hi].shape + (2,), np.nan)[..., 1]
                    O._partial(src[start:end], a, f, cfg, out=out, acc=acc, **window)
                    assert np.array_equal(out, want[lo:hi]), (src.shape, a, lo, hi)


class CountingNumpy:
    """numpy, with every ufunc call recorded as (name, shape of out)."""

    def __init__(self):
        self.calls = []

    def __getattr__(self, name):
        value = getattr(np, name)
        if not isinstance(value, np.ufunc):
            return value

        def counted(*args, **kwargs):
            self.calls.append((name, kwargs["out"].shape))
            return value(*args, **kwargs)

        return counted


def test_an_order_two_tangential_partial_is_one_flat_shift(monkeypatch):
    """Along every tangential axis, also of a one-row window and of a
    source cut to length 1: one bulk subtraction of two flat slices, one on
    each of the two wrap nodes' (A, B) views, and one division."""
    n_r, n_x = 12, (9, 8)
    c = np.random.default_rng(0).standard_normal((n_r, *n_x, 3, 3))
    f = O.GridField((0.0, 6.0), n_r, (1.0, 1.3), n_x, 2, c)
    cfg = O.StencilConfig(order=2)
    numpy = CountingNumpy()
    monkeypatch.setattr(O, "np", numpy)
    for src in (c, c[:, :1], c[:, :, :1]):
        for a in (1, 2):
            for lo, hi in ((0, n_r), (4, 5)):
                numpy.calls.clear()
                got = O._partial(src[lo:hi], a, f, cfg, rows=(lo, hi), start=lo)
                n, B = src.shape[a], math.prod(src.shape[a + 1:])
                A = got.size // (n * B)
                wrap = ("subtract", (A, B))
                assert numpy.calls == [("subtract", (max(got.size - 2 * B, 0),)), wrap, wrap,
                                       ("divide", got.shape)], (src.shape, a, lo)


def with_runtime_warnings(fn):
    """fn() and the set of RuntimeWarning messages it gave, on any thread."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        value = fn()
    return value, {str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)}


def fp_events(messages):
    """RuntimeWarning messages without the ufunc that met the event."""
    return {m.partition(" encountered in ")[0] for m in messages}


def plant_non_finite(comps, grid_ndim, rows, seed):
    """comps with +inf, -inf and NaN planted on entries at the wrap nodes
    (i = 0 and n - 1) of every tangential axis and on the given radial rows."""
    comps = comps.copy()
    rng = np.random.default_rng(seed)
    places = [(axis, i) for axis in range(1, grid_ndim) for i in (0, comps.shape[axis] - 1)]
    places += [(0, row) for row in rows]
    for axis, i in places:
        for _ in range(6):
            index = [int(rng.integers(n)) for n in comps.shape]
            index[axis] = i
            comps[tuple(index)] = rng.choice([np.inf, -np.inf, np.nan])
    return comps


@pytest.mark.parametrize("order", [2, 4])
def test_non_finite_values_give_the_roll_stencils_values_and_warnings(monkeypatch, order):
    """No other test feeds a non-finite field to the stencils.  With ±inf
    and NaN on wrap nodes and on the rows at every slab cut, at two
    threads, each operator and each partial equals the np.roll stencils
    (NaN where they give NaN) and gives the same RuntimeWarning messages.
    At order 4 the messages may name another ufunc: the stencils form 8
    f[i+1] - f[i+2] where np.roll forms -f[i+2] + 8 f[i+1], the same value,
    so an inf - inf there meets "subtract" where np.roll meets "add"; the
    floating-point events are the same."""
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    same = (lambda messages: messages) if order == 2 else fp_events
    cfg = O.StencilConfig(order=order)
    n_r, n_x = _SLAB_MIN[order], (8, 9)
    base = O.GridField((0.0, 6.0), n_r, (1.0, 1.3), n_x, 2, np.zeros((n_r, *n_x, 3, 3)))
    plans = {O._slab_plan(op, base, cfg)[1] for op, admits in ROLL_RANKS.items() if admits(2)}
    cuts = {n_r * k // slabs for slabs in plans for k in range(1, slabs)}
    assert cuts, "the grid takes no slabs"
    rows = sorted(cuts | {cut - 1 for cut in cuts})
    rng = np.random.default_rng(order)
    for seed in range(3):
        planted = plant_non_finite(rng.standard_normal(base.components.shape), base.grid_ndim,
                                   rows, seed)
        rank2 = base.with_components(planted)
        rank1 = rank2.with_components(rank2.components[..., 1].copy(), rank=1)
        for f in (rank2, rank1):
            for op, admits in ROLL_RANKS.items():
                if not admits(f.rank):
                    continue
                # on the flat background the coupling vanishes; the
                # reference adds it as 0 * h, NaN where h is infinite
                ref = "rough_laplacian" if op == "lichnerowicz" else op
                want = with_runtime_warnings(lambda: roll_operator(ref, f, cfg))
                got = with_runtime_warnings(lambda: O.fd_operator(op, f, cfg).components)
                assert np.array_equal(got[0], want[0], equal_nan=True), (seed, f.rank, op)
                assert same(got[1]) == same(want[1]), (seed, f.rank, op)
            for a in range(f.grid_ndim):
                want = with_runtime_warnings(lambda: roll_partial(f.components, a, f, cfg))
                got = with_runtime_warnings(lambda: O._partial(f.components, a, f, cfg))
                assert np.array_equal(got[0], want[0], equal_nan=True), (seed, f.rank, a)
                assert same(got[1]) == same(want[1]), (seed, f.rank, a)


@pytest.mark.parametrize("order", [2, 4])
def test_an_overwritten_wrap_value_raises_no_flag(order):
    """inf at (i = 0, outer row a + 1) and (i = n - 2, row a) meet in no
    stencil, but the order-2 flat subtraction takes inf - inf on the wrap
    node (i = n - 1, row a) before overwriting it: neither a warning nor,
    under np.errstate(all="raise"), an error may follow.  A true inf - inf,
    at i = n - 1 from its wrapped neighbour, warns and raises as np.roll
    does."""
    comps = np.random.default_rng(1).standard_normal((8, 8, 9))
    f = O.GridField((0.0, 6.0), 8, (1.0, 1.3), (8, 9), 0, comps)
    cfg = O.StencilConfig(order=order)
    # outer rows (4, 0) and (4, 1) along axis 2, rows 4 and 5 along axis 1
    comps[4, 1, 0] = comps[4, 0, 7] = comps[5, 0, 3] = comps[4, 6, 3] = np.inf
    for a in (1, 2):
        assert with_runtime_warnings(lambda: roll_partial(comps, a, f, cfg))[1] == set()
        got = with_runtime_warnings(lambda: O._partial(comps, a, f, cfg))
        assert got[1] == set(), a
        assert np.array_equal(got[0], roll_partial(comps, a, f, cfg)), a
        with np.errstate(all="raise"):
            O._partial(comps, a, f, cfg)
    comps[4, 1, 7] = np.inf  # with (4, 1, 0): the stencil at i = 8 reads both
    want = with_runtime_warnings(lambda: roll_partial(comps, 2, f, cfg))
    assert want[1]
    got = with_runtime_warnings(lambda: O._partial(comps, 2, f, cfg))
    assert got[1] == want[1]
    assert np.array_equal(got[0], want[0], equal_nan=True)
    with np.errstate(all="raise"), pytest.raises(FloatingPointError):
        O._partial(comps, 2, f, cfg)


# -- the slab threads -------------------------------------------------------

SLAB_TIMEOUT_S = 60


def within_timeout(fn):
    """fn() run on a helper thread, failing the test if it hangs; its
    exception, if any, is raised here."""
    box = {}

    def run():
        try:
            box["value"] = fn()
        except BaseException as exc:  # handed back to the test thread
            box["error"] = exc

    worker = threading.Thread(target=run, daemon=True)
    worker.start()
    worker.join(SLAB_TIMEOUT_S)
    assert not worker.is_alive(), f"no result within {SLAB_TIMEOUT_S} s"
    if "error" in box:
        raise box["error"]
    return box["value"]


def slab_field(seed, n_r=128):
    comps = np.random.default_rng(seed).standard_normal((n_r, 8, 9, 3, 3))
    return O.GridField((0.0, 6.0), n_r, (1.0, 1.3), (8, 9), 2, comps)


def test_importing_cylspec_starts_no_thread():
    src = os.path.dirname(os.path.dirname(O.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    code = "import threading, cylspec; print(threading.active_count())"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=SLAB_TIMEOUT_S, check=True)
    assert out.stdout.strip() == "1"


def test_an_exception_in_one_slab_reaches_the_caller_with_its_type(monkeypatch):
    class SlabFailure(Exception):
        pass

    lock, failed = threading.Lock(), []
    partial = O._partial

    def fail_once(*args, **kwargs):
        with lock:
            first = not failed
            failed.append(threading.current_thread().name)
        if first:
            raise SlabFailure("planted")
        return partial(*args, **kwargs)

    done = []
    slab = O._slab
    monkeypatch.setattr(O, "_slab", lambda *args: slab(*args) or done.append(args[-2:]))
    f, cfg = slab_field(0), O.StencilConfig(order=2)
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    # 2 slabs of 64 rows would hold more scratch than the serial run
    assert O._slab_plan("linearized_ricci", f, cfg) == (2, 4)
    monkeypatch.setattr(O, "_partial", fail_once)
    with pytest.raises(SlabFailure, match="planted"):
        within_timeout(lambda: O.fd_operator("linearized_ricci", f, cfg))
    assert failed[0].startswith("cylspec-fd")
    # the other thread took the three other slabs, all done before the raise
    assert len(done) == 3
    # the pool survives a failed slab
    monkeypatch.setattr(O, "_partial", partial)
    got = within_timeout(lambda: O.fd_operator("linearized_ricci", f, cfg))
    assert np.array_equal(got.components, roll_operators(f, cfg)["linearized_ricci"])


def test_slab_threads_run_under_the_callers_error_state(monkeypatch):
    """Two infinities one node apart along the last axis give inf - inf in
    the order-2 stencil.  Under np.errstate(all="raise") that raises on the
    slab threads (plan (2, 4)) as it does serially (plan (1, 1)); under
    "ignore" neither plan warns; the values are the serial ones bit for bit."""
    comps = np.random.default_rng(3).standard_normal((64, 8, 9, 3, 3))
    comps[40, 2, 3, 1, 2] = comps[40, 2, 5, 1, 2] = np.inf
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.3), (8, 9), 2, comps)
    cfg = O.StencilConfig(order=2)
    outputs = []
    for threads, plan in ((1, (1, 1)), (2, (2, 4))):
        monkeypatch.setattr(O, "fd_threads", lambda: threads)
        assert O._slab_plan("rough_laplacian", f, cfg) == plan
        # called on this thread: a helper thread would start in a fresh context
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            O.fd_operator("rough_laplacian", f, cfg)
        with np.errstate(all="ignore"):
            got, caught = with_runtime_warnings(lambda: O.fd_operator("rough_laplacian", f, cfg))
        assert caught == set(), plan
        outputs.append(got.components.tobytes())
    assert outputs[0] == outputs[1]
    _, caught = with_runtime_warnings(lambda: O.fd_operator("rough_laplacian", f, cfg))
    assert caught == {"invalid value encountered in subtract"}


def test_concurrent_batches_equal_the_serial_batch(monkeypatch):
    """Two callers at once, each running its operators on 8 threads (more
    than a small host has CPUs) taking 16 slabs from one shared list, with
    the interpreter switching threads as often as it can: a slab taken
    twice or never would leave rows unequal to the serial run."""
    fields = [slab_field(seed, n_r=256) for seed in (1, 2)]
    cfg = O.StencilConfig(order=2)
    names = ("lichnerowicz", "rough_laplacian", "linearized_ricci")

    def batch(f):
        return {op: O.fd_operator(op, f, cfg) for op in names}

    monkeypatch.setattr(O, "fd_threads", lambda: 1)
    want = [batch(f) for f in fields]
    monkeypatch.setattr(O, "fd_threads", lambda: 8)
    # 8 slabs of 32 rows would hold more scratch than the serial run
    assert O._slab_plan("linearized_ricci", fields[0], cfg) == (8, 16)
    start = threading.Barrier(2)
    got = [None, None]

    def run(i):
        start.wait(SLAB_TIMEOUT_S)
        for _ in range(3):
            got[i] = batch(fields[i])

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,), daemon=True) for i in (0, 1)]
        for t in callers:
            t.start()
        for t in callers:
            t.join(SLAB_TIMEOUT_S)
            assert not t.is_alive(), f"no result within {SLAB_TIMEOUT_S} s"
    finally:
        sys.setswitchinterval(interval)
    for ops, serial in zip(got, want):
        for op in names:
            assert np.array_equal(ops[op].components, serial[op].components), op


def test_only_the_calling_thread_allocates_the_batch_buffers(monkeypatch):
    """The output and every thread's scratch set come from _empty, called
    on the thread that called fd_operator, while the pool threads run the
    slabs."""
    callers, allocators, slabbers = set(), set(), set()
    empty, slab = O._empty, O._slab
    monkeypatch.setattr(O, "_empty", lambda n: allocators.add(threading.get_ident()) or empty(n))
    monkeypatch.setattr(O, "_slab", lambda *a: slabbers.add(threading.get_ident()) or slab(*a))
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    cfg = O.StencilConfig(order=2)
    rank2 = slab_field(3)
    rank1 = rank2.with_components(rank2.components[..., 0].copy(), rank=1)
    for f, names in ((rank2, ("divergence", "rough_laplacian", "linearized_ricci",
                              "lichnerowicz")),
                     (rank1, ("sym_grad", "divergence"))):
        for op in names:
            assert O._slab_plan(op, f, cfg)[0] == 2
            within_timeout(lambda: callers.add(threading.get_ident())
                           or O.fd_operator(op, f, cfg))
    assert allocators == callers
    assert slabbers and not slabbers & callers


# -- recycled buffers -------------------------------------------------------


def every_recycled_array(f, cfg):
    """One of each array the recycler hands out, by name, for a rank-2
    grid field f sampled from smooth_rank2()."""
    ops = {op: O.fd_operator(op, f, cfg) for op in ("lichnerowicz", "rough_laplacian",
                                                      "linearized_ricci", "divergence")}
    flat = O.flat_metric_grid(f)
    got = {op: g.components for op, g in ops.items()}
    got["sum"] = (f + ops["rough_laplacian"]).components
    got["difference"] = (f - ops["rough_laplacian"]).components
    got["scale"] = f.scale(0.1).components
    got["flat"] = flat.components
    got["ricci"] = O.nonlinear_ricci(flat + f.scale(0.1), cfg).components
    got["sample"] = O.sample(smooth_rank2(), f.r_range, f.n_r, f.n_x).components
    return got


def recycled_case(n_r=48):
    return O.sample(smooth_rank2(), (0.5, 4.0), n_r, 8), O.StencilConfig(order=4)


def recycled_bytes(case):
    return {name: a.tobytes() for name, a in every_recycled_array(*case).items()}


def test_recycled_arrays_equal_fresh_ones_bit_for_bit_and_are_aligned(monkeypatch):
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    f, cfg = recycled_case()
    O._forget_buffers()
    fresh = recycled_bytes((f, cfg))
    for _ in range(2):
        got = every_recycled_array(f, cfg)
        assert {name: a.tobytes() for name, a in got.items()} == fresh
        assert all(a.ctypes.data % 64 == 0 for a in got.values())
        for a in got.values():  # the next round's buffers hold junk
            a.fill(np.nan)
        del got


def test_a_buffer_that_a_live_view_shares_is_never_handed_out(monkeypatch):
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    f, cfg = recycled_case()
    O._forget_buffers()
    kept = O.fd_operator("linearized_ricci", f, cfg).components[5:7, ..., 1, 0]
    want = kept.copy()
    for _ in range(3):
        got = every_recycled_array(f, cfg)
        assert not any(np.shares_memory(kept, a) for a in got.values())
        del got
    assert np.array_equal(kept, want)
    # once no array refers to it, the buffer is handed out again
    owner = weakref.ref(kept.base)
    del kept
    assert O.fd_operator("linearized_ricci", f, cfg).components.base is owner()


def test_user_threads_recycling_at_once_get_the_serial_results(monkeypatch):
    """Three callers (more than a small host has CPUs), each on a batch
    pool of two threads, with the interpreter switching threads as often
    as it can: a buffer handed to two callers at once would leave some
    array unequal to the serial one."""
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    cases = [recycled_case(n_r) for n_r in (48, 56, 64)]
    want = [recycled_bytes(case) for case in cases]
    start = threading.Barrier(len(cases))
    got = [[] for _ in cases]

    def run(i):
        start.wait(SLAB_TIMEOUT_S)
        for _ in range(3):
            got[i].append(recycled_bytes(cases[i]))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        callers = [threading.Thread(target=run, args=(i,), daemon=True) for i in range(len(cases))]
        for t in callers:
            t.start()
        for t in callers:
            t.join(SLAB_TIMEOUT_S)
            assert not t.is_alive(), f"no result within {SLAB_TIMEOUT_S} s"
    finally:
        sys.setswitchinterval(interval)
    for rounds, serial in zip(got, want):
        assert rounds == [serial] * 3


@pytest.mark.parametrize("threads", [1, 2])
def test_a_warm_recycler_maps_no_new_buffer_for_a_repeated_item(monkeypatch, threads):
    """sample and three operators, each result held through the next
    item as a caller checking it would: after two items every buffer is
    one the recycler already has, and its pages are already mapped."""
    resource = pytest.importorskip("resource")
    monkeypatch.setattr(O, "fd_threads", lambda: threads)
    field, cfg = smooth_rank2(), O.StencilConfig(order=4)
    names = ("lichnerowicz", "rough_laplacian", "linearized_ricci")

    def item():
        grid = O.sample(field, (0.5, 4.0), 64, 16)
        return grid, [O.fd_operator(op, grid, cfg) for op in names]

    O._forget_buffers()
    kept = item()
    kept = item()
    owned = [weakref.ref(raw) for raw in O._recycler.owned]
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(5):
        kept = item()
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - faults
    assert sorted(map(id, O._recycler.owned)) == sorted(id(ref()) for ref in owned)
    # fresh buffers would map every page of four grids per item
    assert faults < kept[0].components.nbytes / 4096


@pytest.mark.parametrize("order", [2, 4])
def test_zero_signs_match_the_roll_stencils(order):
    # nodes whose every component is -0.0: np.trace sums such a diagonal to
    # +0.0, and the sign of each zero the stencils produce follows from it
    comps = np.zeros((12, 8, 9, 3, 3))
    comps[np.random.default_rng(4).random((12, 8, 9)) < 0.5] = -0.0
    f = O.GridField((0.0, 6.0), 12, (1.0, 1.7), (8, 9), 2, comps)
    cfg = O.StencilConfig(order=order)
    want = roll_operators(f, cfg)
    # lichnerowicz is the rough Laplacian, without the reference's zero
    # coupling added, so its zeros may differ in sign
    for op in want.keys() - {"lichnerowicz"}:
        got = O.fd_operator(op, f, cfg).components
        assert np.array_equal(np.signbit(got), np.signbit(want[op])), op


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_operators_take_a_fixed_number_of_partials(monkeypatch, dim):
    """linearized_ricci takes 2 (d + 1) partials in the rough Laplacian's
    sweep and d + 1 for the gradient of v = -beta(h), read from that
    sweep's first partials: no trace Hessian.  lichnerowicz takes the
    rough Laplacian's 2 (d + 1)."""
    shape = (12,) + (8,) * dim + (dim + 1,) * 2
    f = O.GridField((0.0, 6.0), 12, (1.0,) * dim, (8,) * dim, 2,
                    np.random.default_rng(dim).standard_normal(shape))
    calls = []
    partial = O._partial
    monkeypatch.setattr(O, "_partial", lambda arr, *a, **k: calls.append(arr.shape)
                        or partial(arr, *a, **k))

    def count(op):
        calls.clear()
        O.fd_operator(op, f, O.StencilConfig(order=4))
        lattice = sum(s[:f.grid_ndim] == shape[:f.grid_ndim] for s in calls)
        return lattice, len(calls) - lattice

    D = dim + 1
    assert count("linearized_ricci") == (3 * D, 0)
    assert count("lichnerowicz") == (2 * D, 0)
    assert count("divergence") == (D, 0)
    assert count("rough_laplacian") == (2 * D, 0)


# -- the Bianchi form of linearized_ricci ------------------------------------


def roll_trace_form(f, cfg):
    """linearized_ricci as (rough - S(w) - Hess tr) / 2, w = -sum_a d_a c_a,
    with the np.roll stencils: the form before the Bianchi one.  Its trace
    Hessian [..., i, j] is d_j d_i tr c."""
    D = f.dim + 1
    part = functools.partial(roll_partial, grid=f, cfg=cfg)
    ops = roll_operators(f, cfg)
    gauge = roll_operators(f.with_components(ops["divergence"], rank=1), cfg)["sym_grad"]
    tr = np.trace(f.components, axis1=-2, axis2=-1)
    hess = np.stack([np.stack([part(part(tr, i), j) for j in range(D)], axis=-1)
                     for i in range(D)], axis=-2)
    return (ops["rough_laplacian"] - gauge - hess) * 0.5


# stencils on different axes commute in exact arithmetic, so the two forms
# differ by round-off in second partials of size up to ~ max|h| / h_min^2;
# 300 random cases read at most 7.8 units of eps * max|h| / h_min^2
TRACE_FORM_ROUNDOFF = 64


@given(roll_cases())
@settings(max_examples=60, deadline=None)
def test_the_bianchi_form_equals_the_trace_form_to_round_off(case):
    f, cfg, _ = case
    assume(f.rank == 2)
    got = O.fd_operator("linearized_ricci", f, cfg).components
    bound = (TRACE_FORM_ROUNDOFF * np.finfo(float).eps * np.max(np.abs(f.components))
             / min(f.spacings) ** 2)
    assert np.max(np.abs(got - roll_trace_form(f, cfg))) <= bound


@pytest.mark.parametrize("threads", [1, 2])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("dim", [1, 2, 3])
def test_linearized_ricci_of_a_symmetric_field_is_exactly_symmetric(monkeypatch, dim, order,
                                                                    threads):
    monkeypatch.setattr(O, "fd_threads", lambda: threads)
    shape = (64,) + (8,) * dim + (dim + 1,) * 2
    comps = np.random.default_rng(dim + order).standard_normal(shape)
    comps += np.swapaxes(comps, -1, -2)
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.3, 1.7)[:dim], (8,) * dim, 2, comps)
    cfg = O.StencilConfig(order=order)
    got = O.fd_operator("linearized_ricci", f, cfg).components
    assert np.array_equal(got, np.swapaxes(got, -1, -2))
    # the trace form's d_j d_i tr takes its partials in the other order
    old = roll_trace_form(f, cfg)
    assert not np.array_equal(old, np.swapaxes(old, -1, -2))


@pytest.mark.parametrize("order", [2, 4])
def test_dropping_the_trace_term_of_beta_fails_the_modal_check(monkeypatch, order):
    monkeypatch.setattr(O, "_half_trace_partial", lambda d1, out: out.fill(0.0) or out)
    with pytest.raises(AssertionError):
        test_operator_converges_at_stencil_order(
            "linearized_ricci", smooth_rank2, F.linearized_ricci, order)


# -- collapsed invariant axes -----------------------------------------------


def full_grid_ricci(g, cfg):
    """The Ricci formula on the whole component array, with the np.roll
    stencils."""
    D = g.dim + 1
    gamma = roll_christoffel(g.components, g, cfg)
    term1 = in_order([roll_partial(np.take(gamma, k, axis=g.grid_ndim), k, g, cfg)
                      for k in range(D)])
    tr = np.einsum("...kkj->...j", gamma)
    term2 = np.stack([roll_partial(tr, i, g, cfg) for i in range(D)], axis=-2)
    term3 = np.einsum("...l,...lij->...ij", tr, gamma)
    term4 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    return term1 - term2 + term3 - term4


def wavy_metric(depends_on, seed):
    """Identity plus symmetric products of cosines of the grid axes listed
    in depends_on, on a grid whose four spacings all differ."""
    rng = np.random.default_rng(seed)
    base = O.GridField((0.5, 2.0), 12, (1.0, 1.7, 2.3), (8, 9, 10), 2,
                       np.zeros((12, 8, 9, 10, 4, 4)))
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
@pytest.mark.parametrize("depends_on, collapsed", [
    ((0,), (12, 1, 1, 1)),           # invariant along every x-axis
    ((0, 2), (12, 1, 9, 1)),         # along some x-axes
    ((0, 1, 2, 3), (12, 8, 9, 10)),  # along none
], ids=["all-x", "some-x", "no-x"])
def test_collapsed_curvature_equals_the_full_grid_bit_for_bit(depends_on, collapsed, order):
    cfg = O.StencilConfig(order=order)
    g = wavy_metric(depends_on, seed=len(depends_on))
    assert O._collapse_invariant_axes(g).shape[:4] == collapsed
    got = O.nonlinear_ricci(g, cfg).components
    assert got.shape == g.components.shape
    assert np.array_equal(got, full_grid_ricci(g, cfg))
    assert np.max(np.abs(got)) > 0.1


def test_curvature_memory_stays_near_the_input_size(monkeypatch):
    # full-grid curvature of the flat background peaked at 53x (lichnerowicz)
    # and 14x (nonlinear_ricci) the input bytes; collapsed, 5x and 3x.  With
    # np.roll stencils rough_laplacian and linearized_ricci peaked at 5.0x and
    # 5.1x; in place, 4.05x each, and 4.9x for the batch of three results.
    # Reading the divergence from the sweep keeps one extra quarter-size
    # array alive through it: linearized_ricci 4.3x, the batch of three 5.1x.
    # lichnerowicz, which copied the rough Laplacian after the sweep, read
    # 4.15x; it is now the rough Laplacian's own sweep, 4.05x
    comps = np.random.default_rng(0).standard_normal((64, 8, 8, 8, 4, 4))
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.0, 1.0), (8, 8, 8), 2, comps)
    cfg = O.StencilConfig(order=4)
    flat = O.flat_metric_grid(f)

    def peak_ratio(run):
        # from an empty recycler, so that every buffer run takes is traced
        O._forget_buffers()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return (tracemalloc.get_traced_memory()[1] - before) / comps.nbytes
        finally:
            tracemalloc.stop()

    monkeypatch.setattr(O, "fd_threads", lambda: 1)
    assert peak_ratio(lambda: O.fd_operator("lichnerowicz", f, cfg)) <= 4.5
    assert peak_ratio(lambda: O.nonlinear_ricci(flat, cfg)) <= 6.0
    assert peak_ratio(lambda: O.fd_operator("rough_laplacian", f, cfg)) <= 4.5
    assert peak_ratio(lambda: O.fd_operator("linearized_ricci", f, cfg)) <= 4.5
    # a metric no tangential axis collapses: keeping the partials and every
    # lowered symbol alive together peaked at 12.3x; raised a block of
    # radial rows at a time, 8.30x
    sym = comps + np.swapaxes(comps, -1, -2)
    bumpy = flat.with_components(flat.components + 1e-3 * sym)
    del sym
    assert peak_ratio(lambda: O.nonlinear_ricci(bumpy, cfg)) <= 9.13

    # validate-cli's grid (above) and kernel-roundtrip's take the slab path
    # at two threads: the output plus one scratch set per thread peak no
    # higher than the serial run.  Serial, 64x8^3 at order 4 reads 4.05x
    # and 4.30x; on 4 slabs, 3.05x and 3.07x
    def slab_peaks():
        peaks = {}
        for op in ("rough_laplacian", "linearized_ricci"):
            monkeypatch.setattr(O, "fd_threads", lambda: 1)
            serial = peak_ratio(lambda: O.fd_operator(op, f, cfg))
            monkeypatch.setattr(O, "fd_threads", lambda: 2)
            assert O._slab_plan(op, f, cfg) == (2, 4)
            peaks[op] = peak_ratio(lambda: O.fd_operator(op, f, cfg))
            assert peaks[op] <= serial <= 4.5, op
        # the scratch sets are traced: one output alone is 1.0x
        assert peaks["linearized_ricci"] > 2.0

    slab_peaks()
    comps = np.random.default_rng(1).standard_normal((128, 24, 24, 3, 3))
    f = O.GridField((0.0, 6.0), 128, (2 * math.pi,) * 2, (24, 24), 2, comps)
    cfg = O.StencilConfig(order=2)
    slab_peaks()


def test_interior_of_a_grid_without_a_band_is_rejected():
    n_r = 2 * O.INTERIOR_TRIM
    with pytest.raises(InvalidInput, match="INTERIOR_TRIM"):
        O.interior_sup(O.sample(smooth_rank2(), (0.0, 6.0), n_r, 8))
    assert O.sample(smooth_rank2(), (0.0, 6.0), n_r + 1, 8).interior().shape[0] == 1


@pytest.mark.parametrize("special", [
    (), (np.nan,), (-0.0,), (0.0, -0.0), (np.inf,), (-np.inf,), (np.inf, -np.inf),
    (np.nan, np.inf), (-np.inf, np.nan), (-0.0, np.nan),
], ids=repr)
def test_interior_sup_equals_the_max_of_abs(special):
    base = np.random.default_rng(len(special)).standard_normal((16, 8))
    for fill in (base, np.zeros_like(base), -np.zeros_like(base), -np.abs(base)):
        comps = fill.copy()
        # the special values inside the interior band, where the sup is read
        comps[O.INTERIOR_TRIM, :len(special)] = special
        f = O.GridField((0.0, 1.0), 16, (1.0,), (8,), 0, comps)
        want = float(np.max(np.abs(f.interior())))
        assert repr(O.interior_sup(f)) == repr(want), (fill[0, 0], special)


# -- FD certificates read on the interior band -------------------------------


def bits(x):
    return np.float64(x).tobytes()


def band_fields(order, rng):
    """Rank 0 to 2 fields at d = 1 to 3 on grids that stay serial, take
    slabs at 2 and 3 threads, or leave a one-row band."""
    sizes = (11, 16, 48) if order == 2 else (11, 64)
    for dim in (1, 2, 3):
        for n_r in sizes + ((96,) if dim == 1 and order == 4 else ()):
            for rank in (0, 1, 2):
                shape = (n_r,) + (8,) * dim + (dim + 1,) * rank
                yield O.GridField((0.0, 6.0), n_r, (1.0, 1.3, 1.7)[:dim], (8,) * dim, rank,
                                  rng.standard_normal(shape))


@pytest.mark.parametrize("order", [2, 4])
def test_operator_interior_sup_equals_the_full_grid_read_bit_for_bit(monkeypatch, order):
    cfg = O.StencilConfig(order=order)
    for f in band_fields(order, np.random.default_rng(order)):
        for op, admits in ROLL_RANKS.items():
            if not admits(f.rank):
                continue
            for threads in (1, 2, 3):
                monkeypatch.setattr(O, "fd_threads", lambda: threads)
                want = O.interior_sup(O.fd_operator(op, f, cfg))
                got = O.operator_interior_sup(op, f, cfg)
                assert bits(got) == bits(want), (f.components.shape, op, threads)


def test_the_band_takes_the_whole_grids_plan(monkeypatch):
    """On 54 rows alone linearized_ricci would stay serial (3 slabs of 16
    rows at most, and no multiple of 2 fits); the band is cut with the
    whole grid's plan, 4 slabs on 2 pool threads, each into its thread's
    own buffer, and no output grid is made."""
    comps = np.random.default_rng(5).standard_normal((64, 8, 8, 8, 4, 4))
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.0, 1.0), (8, 8, 8), 2, comps)
    cfg = O.StencilConfig(order=4)
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    assert O._slab_plan("linearized_ricci", f, cfg) == (2, 4)
    slabs, slab = [], O._slab
    monkeypatch.setattr(O, "_slab", lambda *a: slabs.append(
        (threading.current_thread().name, a[-2:])) or slab(*a))
    monkeypatch.setattr(O, "_array", lambda shape: pytest.fail(f"an output grid {shape}"))
    O.operator_interior_sup("linearized_ricci", f, cfg)
    lo, hi = O.INTERIOR_TRIM, 64 - O.INTERIOR_TRIM
    assert sorted(rows for _, rows in slabs) == [(lo, 18), (18, 32), (32, 45), (45, hi)]
    assert all(name.startswith("cylspec-fd") for name, _ in slabs)


@pytest.mark.parametrize("order", [2, 4])
def test_special_values_at_slab_cuts_and_band_edges_read_as_on_the_full_grid(monkeypatch,
                                                                              order):
    """NaN, ±inf and -0.0 on the rows at every slab cut of the whole grid
    and of the band, and on rows INTERIOR_TRIM ± 1 at both ends: the band's
    slab maxima combine as _sup reads the full interior, NaN and -0.0
    included, at 1, 2 and 3 threads."""
    cfg = O.StencilConfig(order=order)
    n_r, trim = 64, O.INTERIOR_TRIM
    base = O.GridField((0.0, 6.0), n_r, (1.0, 1.3), (8, 9), 2, np.zeros((n_r, 8, 9, 3, 3)))
    plans = {O._slab_plan(op, base, cfg)[1] for op in ROLL_RANKS}
    band = n_r - 2 * trim
    cuts = {k * n_r // s for s in plans for k in range(1, s)}
    cuts |= {trim + k * band // s for s in plans for k in range(1, s)}
    rows = sorted(cuts | {c - 1 for c in cuts} | {trim - 1, trim, trim + 1}
                  | {n_r - trim - 2, n_r - trim - 1, n_r - trim})
    rng = np.random.default_rng(order)
    for seed in range(4):
        comps = rng.standard_normal(base.components.shape) if seed else np.zeros_like(
            base.components)
        for row in rows:
            index = tuple(int(rng.integers(n)) for n in comps.shape[1:])
            # seed 0 plants signed zeros alone, seed 1 no NaN
            pool = [-0.0] if seed == 0 else [np.inf, -np.inf, -0.0] + [np.nan] * (seed > 1)
            comps[(row,) + index] = rng.choice(pool)
        rank2 = base.with_components(comps)
        rank1 = rank2.with_components(comps[..., 1].copy(), rank=1)
        for f in (rank2, rank1):
            for op, admits in ROLL_RANKS.items():
                if not admits(f.rank):
                    continue
                for threads in (1, 2, 3):
                    monkeypatch.setattr(O, "fd_threads", lambda: threads)
                    with np.errstate(all="ignore"):
                        want = O.interior_sup(O.fd_operator(op, f, cfg))
                        got = O.operator_interior_sup(op, f, cfg)
                    assert bits(got) == bits(want), (seed, f.rank, op, threads)


def test_operator_interior_sup_checks_its_input_before_any_stencil_runs(monkeypatch):
    def refuse(*_args, **_kwargs):
        raise AssertionError("a stencil ran before the input checks")

    def message(fn, *args):
        with pytest.raises(InvalidInput) as err:
            fn(*args)
        return str(err.value)

    rank2 = O.sample(smooth_rank2(), (0.0, 6.0), 16, 8)
    scalar = O.sample(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)), (0, 6), 16, 8)
    thin = O.sample(smooth_rank2(), (0.0, 6.0), 2 * O.INTERIOR_TRIM, 8)
    thin_scalar = O.sample(F.scalar_field(CS, PHI, RadialProfile.constant(1.0)), (0, 6),
                           2 * O.INTERIOR_TRIM, 8)
    cases = [("curl", rank2), ("sym_grad", rank2), ("divergence", scalar),
             ("lichnerowicz", thin_scalar)]
    want = [message(O.fd_operator, op, f) for op, f in cases]
    want.append(message(thin.interior))
    monkeypatch.setattr(O, "_partial", refuse)
    got = [message(O.operator_interior_sup, op, f) for op, f in cases]
    got.append(message(O.operator_interior_sup, "linearized_ricci", thin))
    assert got == want
    assert "INTERIOR_TRIM" in got[-1]


@pytest.mark.parametrize("n_r, lengths, n_x, order, rank, plan", [
    (128, (2 * math.pi,) * 2, 24, 2, 2, (2, 2)),  # gauge-fd's grid
    (64, (1.0,) * 3, 8, 4, 2, (2, 2)),            # validate-cli's grid
    (64, (1.0,) * 3, 8, 4, 1, (2, 2)),
    # two slabs of ceil(n_r / 2) rows would hold one row more than n_r
    (97, (1.0, 1.3), 9, 2, 3, (2, 4)),
    (61, (1.7,), 9, 4, 1, (1, 1)),
])
def test_the_divergence_takes_one_slab_per_thread(monkeypatch, n_r, lengths, n_x, order, rank,
                                                  plan):
    """Its scratch set is exactly linear in slab rows, so one slab per
    thread holds no more than the serial run, on any row and node count."""
    f = O.GridField((0.0, 6.0), n_r, lengths, (n_x,) * len(lengths), rank,
                    np.broadcast_to(0.0, (n_r,) + (n_x,) * len(lengths)
                                    + (len(lengths) + 1,) * rank))
    cfg = O.StencilConfig(order=order)
    serial = O._scratch_entries("divergence", f, cfg, n_r)
    for threads in range(2, 9):
        assert threads * O._scratch_entries("divergence", f, cfg, n_r // threads) <= serial
    monkeypatch.setattr(O, "fd_threads", lambda: 2)
    assert O._slab_plan("divergence", f, cfg) == plan
    # the sweep ops keep their plans
    if rank == 2 and plan == (2, 2):
        assert O._slab_plan("linearized_ricci", f, cfg) == (2, 4)


def test_the_band_path_peaks_below_the_full_grid_on_validates_field(monkeypatch):
    """Under tracemalloc, from an empty recycler, on validate's 64 x 8^3
    probe at order 4: the band path holds no output grid.  Measured, as
    multiples of the input bytes (full grid -> band): linearized_ricci
    4.30 -> 4.14 on one thread and 3.07 -> 2.50 on two, the divergence
    1.05 -> 1.01 on either; pinned at the band's value plus 10%."""
    comps = np.random.default_rng(0).standard_normal((64, 8, 8, 8, 4, 4))
    f = O.GridField((0.0, 6.0), 64, (1.0, 1.0, 1.0), (8, 8, 8), 2, comps)
    cfg = O.StencilConfig(order=4)

    def peak_ratio(run):
        O._forget_buffers()
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            run()
            return (tracemalloc.get_traced_memory()[1] - before) / comps.nbytes
        finally:
            tracemalloc.stop()

    pins = {(1, "linearized_ricci"): 4.56, (2, "linearized_ricci"): 2.76,
            (1, "divergence"): 1.11, (2, "divergence"): 1.11}
    for (threads, op), pin in pins.items():
        monkeypatch.setattr(O, "fd_threads", lambda: threads)
        full = peak_ratio(lambda: O.interior_sup(O.fd_operator(op, f, cfg)))
        band = peak_ratio(lambda: O.operator_interior_sup(op, f, cfg))
        assert band < full, (threads, op)
        assert band <= pin, (threads, op)


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
    # a NaN or infinite eps used to fail inside the fit ("SVD did not
    # converge"), and one eps or a repeated one fitted a made-up exponent
    gf = O.sample(smooth_rank2(), (0.0, 6.0), 32, 12)
    for eps_list in ((1e-2, 1e-1), (), (np.nan,), (0.1, np.nan), (np.inf, 0.1), (0.1,),
                     (0.1, 0.1)):
        with pytest.raises(InvalidInput, match="eps_list"):
            O.quadratic_remainder_scan(gf, eps_list)
