"""Grid-based cross-checks for every cylinder operator.

This module deliberately shares almost nothing with the modal layer:
fields are dense component arrays on an [a, b] x torus lattice and each
operator is a centered-difference stencil.  Agreement between the two
routes is the package's main integrity check, so the only shared
ingredient is pointwise evaluation of modal fields (``sample``).

Conventions are the same as in ``fields``: component index 0 is the
radial direction, the rough Laplacian is minus the sum of second
partials, and the divergence contracts the derivative index with a minus
sign.  ``linearized_ricci`` is normalized as the derivative of
``nonlinear_ricci`` at the product metric.  To make that hold exactly at
the discrete level (not just up to truncation error), second derivatives
are always composed first-derivative stencils; the nonlinear Ricci
routine differentiates the Christoffel arrays with the same stencil, so
the order-epsilon terms of ``nonlinear_ricci(g0 + eps h)`` cancel against
``eps * linearized_ricci(h)`` to round-off and the measured remainder is
genuinely quadratic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput, MemoryGuard
from .fields import TensorField

MAX_SCALAR_ENTRIES = int(2e8)

# nodes trimmed from each radial end when reporting interior residuals;
# wide enough for any composed order-4 stencil to be fully centered
INTERIOR_TRIM = 5

@dataclass(frozen=True)
class StencilConfig:
    """order is the centered-difference accuracy (2 or 4).  boundary picks
    what happens at the radial ends: "one-sided" fills them with skewed
    stencils of reduced order, "interior-restricted" zeroes them out.
    Periodic radial grids ignore the policy."""

    order: int = 2
    boundary: str = "one-sided"

    def __post_init__(self):
        if self.order not in (2, 4):
            raise InvalidInput("stencil order must be 2 or 4")
        if self.boundary not in ("one-sided", "interior-restricted"):
            raise InvalidInput("boundary policy must be 'one-sided' or 'interior-restricted'")


@dataclass(frozen=True)
class GridField:
    """Dense tensor samples on a radial-interval x flat-torus lattice.

    components has shape (n_r, *n_x, *(d+1,)*rank).  Tangential axes are
    periodic with the right endpoint excluded; the radial axis includes
    both endpoints unless r_periodic is set (then it is treated exactly
    like a tangential axis, which some adjointness tests rely on).
    """

    r_range: tuple
    n_r: int
    lengths: tuple
    n_x: tuple
    rank: int
    components: np.ndarray
    r_periodic: bool = False

    def __post_init__(self):
        object.__setattr__(self, "r_range", tuple(float(v) for v in self.r_range))
        object.__setattr__(self, "lengths", tuple(float(v) for v in self.lengths))
        object.__setattr__(self, "n_x", tuple(int(n) for n in self.n_x))
        if len(self.r_range) != 2 or not self.r_range[1] > self.r_range[0]:
            raise InvalidInput("r_range must be an increasing pair")
        if self.n_r < 8 or any(n < 8 for n in self.n_x):
            raise InvalidInput("need at least 8 samples per direction")
        if len(self.n_x) != len(self.lengths):
            raise InvalidInput("one tangential sample count per side length")
        want = (self.n_r, *self.n_x) + (self.dim + 1,) * self.rank
        if self.components.shape != want:
            raise InvalidInput(f"component array shape {self.components.shape}, expected {want}")
        if self.components.size > MAX_SCALAR_ENTRIES:
            raise MemoryGuard(f"{self.components.size} scalar entries exceeds the guard")

    @property
    def dim(self) -> int:
        return len(self.lengths)

    @property
    def dr(self) -> float:
        a, b = self.r_range
        return (b - a) / (self.n_r if self.r_periodic else self.n_r - 1)

    @property
    def dx(self) -> tuple:
        return tuple(L / n for L, n in zip(self.lengths, self.n_x))

    @property
    def spacings(self) -> tuple:
        return (self.dr,) + self.dx

    @property
    def max_spacing(self) -> float:
        return max(self.spacings)

    @property
    def grid_ndim(self) -> int:
        return 1 + self.dim

    def r_nodes(self) -> np.ndarray:
        a, b = self.r_range
        if self.r_periodic:
            return a + self.dr * np.arange(self.n_r)
        return np.linspace(a, b, self.n_r)

    def x_nodes(self) -> list:
        return [L / n * np.arange(n) for L, n in zip(self.lengths, self.n_x)]

    def with_components(self, components: np.ndarray, rank=None) -> "GridField":
        return GridField(self.r_range, self.n_r, self.lengths, self.n_x,
                         self.rank if rank is None else rank, components, self.r_periodic)

    def __add__(self, other: "GridField") -> "GridField":
        self._check_compatible(other)
        return self.with_components(self.components + other.components)

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_compatible(other)
        return self.with_components(self.components - other.components)

    def scale(self, c: float) -> "GridField":
        return self.with_components(self.components * float(c))

    def _check_compatible(self, other):
        same = (self.r_range == other.r_range and self.n_r == other.n_r
                and self.lengths == other.lengths and self.n_x == other.n_x
                and self.rank == other.rank and self.r_periodic == other.r_periodic)
        if not same:
            raise InvalidInput("grid fields live on different grids")

    def interior(self) -> np.ndarray:
        """Component view away from the radial boundary layers."""
        if self.r_periodic:
            return self.components
        if self.n_r <= 2 * INTERIOR_TRIM:
            raise InvalidInput(f"n_r = {self.n_r} leaves no interior band: INTERIOR_TRIM = "
                               f"{INTERIOR_TRIM} nodes are trimmed at each radial end")
        return self.components[INTERIOR_TRIM:-INTERIOR_TRIM]


def interior_sup(f: GridField) -> float:
    return float(np.max(np.abs(f.interior())))


def l2_norm(f: GridField) -> float:
    """Trapezoid in r, exact uniform sum over the periodic directions."""
    sq = f.components ** 2
    # sum out tangential and component axes first
    sq = sq.reshape(f.n_r, -1).sum(axis=1)
    dvol = math.prod(f.dx)
    if f.r_periodic:
        return math.sqrt(float(sq.sum()) * f.dr * dvol)
    w = np.full(f.n_r, f.dr)
    w[0] = w[-1] = f.dr / 2
    return math.sqrt(float(w @ sq) * dvol)


def sample(field: TensorField, r_range, n_r, n_x, r_periodic: bool = False) -> GridField:
    """Evaluate a modal field on the lattice.  Exact: no discretization."""
    d = field.cs.dim
    if isinstance(n_x, int):
        n_x = (n_x,) * d
    n_x = tuple(int(n) for n in n_x)
    if len(n_x) != d:
        raise InvalidInput("one tangential sample count per torus direction")
    entries = n_r * math.prod(n_x) * (d + 1) ** field.rank
    if entries > MAX_SCALAR_ENTRIES:
        raise MemoryGuard(f"requested grid would hold {entries} scalar entries")
    # a zero-stride view: the probe only validates the grid and yields nodes
    shape = (int(n_r), *n_x) + (d + 1,) * field.rank
    probe = GridField(tuple(r_range), int(n_r), field.cs.side_lengths, n_x,
                      field.rank, np.broadcast_to(0.0, shape), r_periodic)
    mesh = np.stack(np.meshgrid(*probe.x_nodes(), indexing="ij"), axis=-1)
    return probe.with_components(field.evaluate(probe.r_nodes(), mesh))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def _d1_periodic(vals, h, axis, order):
    if order == 2:
        return (np.roll(vals, -1, axis) - np.roll(vals, 1, axis)) / (2 * h)
    return (-np.roll(vals, -2, axis) + 8 * np.roll(vals, -1, axis)
            - 8 * np.roll(vals, 1, axis) + np.roll(vals, 2, axis)) / (12 * h)


def _d1_bounded(vals, h, order, boundary):
    """First derivative along axis 0 on a non-periodic axis."""
    out = np.zeros_like(vals)
    if order == 2:
        out[1:-1] = (vals[2:] - vals[:-2]) / (2 * h)
    else:
        out[2:-2] = (-vals[4:] + 8 * vals[3:-1] - 8 * vals[1:-3] + vals[:-4]) / (12 * h)
        out[1] = (vals[2] - vals[0]) / (2 * h)
        out[-2] = (vals[-1] - vals[-3]) / (2 * h)
    if boundary == "one-sided":
        out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
        out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * h)
    elif order == 4:  # interior-restricted: zero the skewed band too
        out[1] = 0.0
        out[-2] = 0.0
    return out


def _partial(arr, direction, grid: GridField, cfg: StencilConfig, second=False):
    """d/dx_direction of a component array laid out like grid.components,
    or cut from it to length 1 along periodic axes it is constant on.

    second=True composes the first-derivative stencil with itself, which
    keeps this routine the exact building block of nonlinear_ricci.
    """
    h = grid.spacings[direction]
    periodic = direction > 0 or grid.r_periodic
    if periodic:
        axis = direction
        d1 = _d1_periodic(arr, h, axis, cfg.order)
        if not second:
            return d1
        return _d1_periodic(d1, h, axis, cfg.order)
    # radial, bounded: axis 0 by construction
    d1 = _d1_bounded(arr, h, cfg.order, cfg.boundary)
    if not second:
        return d1
    return _d1_bounded(d1, h, cfg.order, cfg.boundary)


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------


def _op_divergence(f: GridField, cfg: StencilConfig) -> GridField:
    if f.rank < 1:
        raise InvalidInput("divergence needs rank >= 1")
    D = f.dim + 1
    axis = f.grid_ndim  # first component axis
    total = None
    for a in range(D):
        term = _partial(np.take(f.components, a, axis=axis), a, f, cfg)
        total = term if total is None else total + term
    return f.with_components(-total, rank=f.rank - 1)


def _op_sym_grad(f: GridField, cfg: StencilConfig) -> GridField:
    if f.rank != 1:
        raise InvalidInput("sym_grad needs a 1-form")
    D = f.dim + 1
    grad = np.stack([_partial(f.components, i, f, cfg) for i in range(D)],
                    axis=f.grid_ndim)
    return f.with_components(grad + np.swapaxes(grad, -1, -2), rank=2)


def _op_rough_laplacian(f: GridField, cfg: StencilConfig) -> GridField:
    D = f.dim + 1
    total = None
    for a in range(D):
        term = _partial(f.components, a, f, cfg, second=True)
        total = term if total is None else total + term
    return f.with_components(-total)


def _op_trace_hessian(f: GridField, cfg: StencilConfig) -> GridField:
    if f.rank != 2:
        raise InvalidInput("trace_hessian needs a rank-2 field")
    D = f.dim + 1
    tr = np.trace(f.components, axis1=-2, axis2=-1)
    rows = []
    for i in range(D):
        di = _partial(tr, i, f, cfg)
        rows.append(np.stack([_partial(di, j, f, cfg) for j in range(D)], axis=-1))
    return f.with_components(np.stack(rows, axis=-2), rank=2)


def _op_linearized_ricci(f: GridField, cfg: StencilConfig) -> GridField:
    if f.rank != 2:
        raise InvalidInput("linearized_ricci needs a rank-2 field")
    rough = _op_rough_laplacian(f, cfg)
    gauge = _op_sym_grad(_op_divergence(f, cfg), cfg)
    return (rough - gauge - _op_trace_hessian(f, cfg)).scale(0.5)


def _background_curvature(f: GridField, cfg: StencilConfig):
    """Ricci and Riemann of the product metric, computed (not assumed)
    from FD Christoffel symbols of the constant identity components.
    Every periodic axis is collapsed to length 1, so both arrays broadcast
    against f.components."""
    g0 = flat_metric_grid(f)
    gamma = _christoffel(_collapse_invariant_axes(g0), g0, cfg)
    riem = _riemann_from_christoffel(gamma, g0, cfg)
    ric = np.einsum("...kikj->...ij", riem)
    return ric, riem


def _op_lichnerowicz(f: GridField, cfg: StencilConfig) -> GridField:
    if f.rank != 2:
        raise InvalidInput("lichnerowicz needs a rank-2 field")
    ric, riem = _background_curvature(f, cfg)
    rough = _op_rough_laplacian(f, cfg)
    h = f.components
    # the curvature arrays carry length-1 axes; unoptimized einsum is about
    # ten times slower on such broadcast operands
    coupling = (np.einsum("...ik,...kj->...ij", ric, h, optimize=True)
                + np.einsum("...jk,...ik->...ij", ric, h, optimize=True)
                - 2.0 * np.einsum("...ikjl,...kl->...ij", riem, h, optimize=True))
    return rough + f.with_components(coupling)


_DISPATCH = {
    "divergence": _op_divergence,
    "sym_grad": _op_sym_grad,
    "rough_laplacian": _op_rough_laplacian,
    "trace_hessian": _op_trace_hessian,
    "linearized_ricci": _op_linearized_ricci,
    "lichnerowicz": _op_lichnerowicz,
}


def fd_operator(op: str, f: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    if op not in _DISPATCH:
        raise InvalidInput(f"unknown operator {op!r}; expected one of {tuple(_DISPATCH)}")
    return _DISPATCH[op](f, cfg)


# ---------------------------------------------------------------------------
# nonlinear Ricci
# ---------------------------------------------------------------------------


def _collapse_invariant_axes(g: GridField) -> np.ndarray:
    """g.components with every periodic axis they are constant along cut to
    length 1.  Every stencil along such an axis rolls a constant, and
    np.roll on a length-1 axis is the identity, so curvature computed from
    the cut array with g's spacings equals the full-grid values bit for bit
    and broadcasts back to them."""
    comps = g.components
    for axis in range(0 if g.r_periodic else 1, g.grid_ndim):
        head = comps[(slice(None),) * axis + (slice(0, 1),)]
        if (comps == head).all():
            comps = head
    return comps


def _christoffel(comps: np.ndarray, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    """Gamma^k_{ij} with component axes ordered (k, i, j), from metric
    components laid out like grid.components or collapsed from them."""
    D = grid.dim + 1
    dg = np.stack([_partial(comps, a, grid, cfg) for a in range(D)], axis=-3)
    # dg[..., l, i, j] = d_l g_{ij}
    low = 0.5 * (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg)
    ginv = np.linalg.inv(comps)
    return np.einsum("...kl,...lij->...kij", ginv, low)


def _riemann_from_christoffel(gamma: np.ndarray, g: GridField, cfg: StencilConfig) -> np.ndarray:
    """R^k_{lij} with component axes ordered (k, l, i, j)."""
    D = g.dim + 1
    dgamma = np.stack([_partial(gamma, a, g, cfg) for a in range(D)], axis=-4)
    # dgamma[..., a, k, i, j] = d_a Gamma^k_{ij}
    term = (np.einsum("...iklj->...klij", dgamma)
            - np.einsum("...jkli->...klij", dgamma)
            + np.einsum("...kim,...mjl->...klij", gamma, gamma)
            - np.einsum("...kjm,...mil->...klij", gamma, gamma))
    return term


def nonlinear_ricci(g: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    """Full Ricci tensor of a perturbed metric via FD Christoffel symbols."""
    if g.rank != 2:
        raise InvalidInput("nonlinear_ricci needs a rank-2 metric field")
    comps = g.components
    scale = float(np.max(np.abs(comps)))
    if float(np.max(np.abs(comps - np.swapaxes(comps, -1, -2)))) > 1e-12 * max(scale, 1.0):
        raise InvalidInput("metric components are not symmetric")
    try:
        np.linalg.cholesky(comps)
    except np.linalg.LinAlgError:
        raise InvalidInput("metric is not positive definite at every node") from None
    D = g.dim + 1
    gamma = _christoffel(_collapse_invariant_axes(g), g, cfg)
    # Ric_{ij} = d_k Gamma^k_{ij} - d_i Gamma^k_{kj} + Gamma^k_{kl} Gamma^l_{ij}
    #           - Gamma^k_{il} Gamma^l_{kj}
    axis = g.grid_ndim
    term1 = None
    for k in range(D):
        piece = _partial(np.take(gamma, k, axis=axis), k, g, cfg)
        term1 = piece if term1 is None else term1 + piece
    tr = np.einsum("...kkj->...j", gamma)
    term2 = np.stack([_partial(tr, i, g, cfg) for i in range(D)], axis=-2)
    term3 = np.einsum("...l,...lij->...ij", tr, gamma)
    term4 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return g.with_components(np.broadcast_to(ric, comps.shape).copy())


def flat_metric_grid(template: GridField) -> GridField:
    """Product-metric components on the same lattice as the template."""
    D = template.dim + 1
    shape = (template.n_r, *template.n_x, D, D)
    return GridField(template.r_range, template.n_r, template.lengths,
                     template.n_x, 2, np.broadcast_to(np.eye(D), shape).copy(),
                     template.r_periodic)


# ---------------------------------------------------------------------------
# quadratic remainder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderScan:
    exponent: float
    epsilons: tuple
    remainders: tuple
    linear_scale: float


def quadratic_remainder_scan(h: GridField, eps_list,
                             cfg: StencilConfig = StencilConfig(order=4)) -> RemainderScan:
    """Measure sup |Ric(g0 + eps h) - eps * linearized_ricci(h)| on the
    interior band and fit the decay exponent in eps."""
    if h.rank != 2:
        raise InvalidInput("remainder scan needs a rank-2 perturbation")
    eps_list = [float(e) for e in eps_list]
    if not eps_list or any(e <= 0 for e in eps_list):
        raise InvalidInput("eps_list must contain positive values")
    if sorted(eps_list, reverse=True) != eps_list:
        raise InvalidInput("eps_list must be decreasing")
    g0 = flat_metric_grid(h)
    linear = fd_operator("linearized_ricci", h, cfg)
    remainders = []
    for eps in eps_list:
        ric = nonlinear_ricci(g0 + h.scale(eps), cfg)
        remainders.append(interior_sup(ric - linear.scale(eps)))
    top = max(remainders)
    if top == 0.0:
        exponent = float("nan")
    else:
        exponent = float(np.polyfit(np.log(eps_list), np.log(remainders), 1)[0])
    return RemainderScan(exponent, tuple(eps_list), tuple(remainders),
                         interior_sup(linear))
