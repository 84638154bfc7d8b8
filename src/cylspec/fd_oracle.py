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

A batch of operators that sweeps second partials runs on radial slabs
across the CPUs the process may use; every value is the same, bit for bit
(see ``fd_operators``).
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import InvalidInput, MemoryGuard
from .fields import TensorField

MAX_SCALAR_ENTRIES = int(2e8)

# nodes trimmed from each radial end when reporting interior residuals;
# wide enough for any composed order-4 stencil to be fully centered
INTERIOR_TRIM = 5

@dataclass(frozen=True)
class StencilConfig:
    """order is the centered-difference accuracy (2 or 4).  The bounded
    radial axis gets skewed stencils of reduced order at its ends; every
    reported residual is read on ``GridField.interior()``, past them."""

    order: int = 2

    def __post_init__(self):
        if self.order not in (2, 4):
            raise InvalidInput("stencil order must be 2 or 4")


@dataclass(frozen=True)
class GridField:
    """Dense tensor samples on a radial-interval x flat-torus lattice.

    components has shape (n_r, *n_x, *(d+1,)*rank).  Tangential axes are
    periodic with the right endpoint excluded; the radial axis is bounded
    and includes both endpoints.
    """

    r_range: tuple
    n_r: int
    lengths: tuple
    n_x: tuple
    rank: int
    components: np.ndarray

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
        return (b - a) / (self.n_r - 1)

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
        return np.linspace(*self.r_range, self.n_r)

    def x_nodes(self) -> list:
        return [L / n * np.arange(n) for L, n in zip(self.lengths, self.n_x)]

    def with_components(self, components: np.ndarray, rank=None) -> "GridField":
        return GridField(self.r_range, self.n_r, self.lengths, self.n_x,
                         self.rank if rank is None else rank, components)

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
                and self.rank == other.rank)
        if not same:
            raise InvalidInput("grid fields live on different grids")

    def interior(self) -> np.ndarray:
        """Component view away from the radial boundary layers."""
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
    w = np.full(f.n_r, f.dr)
    w[0] = w[-1] = f.dr / 2
    return math.sqrt(float(w @ sq) * dvol)


def sample(field: TensorField, r_range, n_r, n_x) -> GridField:
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
                      field.rank, np.broadcast_to(0.0, shape))
    mesh = np.stack(np.meshgrid(*probe.x_nodes(), indexing="ij"), axis=-1)
    return probe.with_components(field.evaluate(probe.r_nodes(), mesh))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def _runs(n: int, shifts) -> list:
    """The maximal index ranges [lo, hi) of an axis of length n on which no
    shift i -> (i + s) mod n wraps, each with the start of every shifted
    source range."""
    cuts = sorted({0, n} | {n - s % n for s in shifts})
    return [(lo, hi, [(lo + s) % n for s in shifts]) for lo, hi in zip(cuts, cuts[1:])]


def _partial(arr, direction, grid: GridField, cfg: StencilConfig, out=None, work=None):
    """d/dx_direction of a component array laid out like grid.components,
    or cut from it to length 1 along tangential axes it is constant on, into
    out when given; work, when given, holds 8 * arr at order 4.

    The sum is cut along the axis into runs, maximal index ranges on which no
    shift wraps (a length-1 axis wraps onto itself).  f[i+1] - f[i-1] at
    order 2, or 8 f[i+1] - f[i+2] at order 4, is one subtraction per run;
    order 4 then subtracts 8 f[i-1] and adds f[i-2]; the division by 2h or
    12h comes last.  As b - a == -a + b exactly, every value equals
    (f[i+1] - f[i-1]) / 2h, or (-f[i+2] + 8 f[i+1] - 8 f[i-1] + f[i-2]) / 12h,
    summed left to right, bit for bit.  The radial axis then gets its edge
    rows.  Second derivatives compose this routine with itself, the
    exact building block of nonlinear_ricci."""
    h = grid.spacings[direction]
    # a strided view (one component of a tensor) is read into one contiguous
    # copy: strided reads in every stencil term are about twice as slow
    vals = np.ascontiguousarray(arr)
    out = np.empty(vals.shape) if out is None else out
    acc = out if out.flags.c_contiguous else np.empty(vals.shape)
    if cfg.order == 2:
        first, rest = ((vals, 1), (vals, -1)), ()
    else:
        eight = np.multiply(vals, 8, out=work)
        first, rest = ((eight, 1), (vals, 2)), ((np.subtract, eight, -1), (np.add, vals, -2))
    (ahead, s), (behind, t) = first

    def cut(x, lo, hi):
        return x[(slice(None),) * direction + (slice(lo, hi),)]

    n = vals.shape[direction]
    for lo, hi, (i, j) in _runs(n, (s, t)):
        np.subtract(cut(ahead, i, i + hi - lo), cut(behind, j, j + hi - lo), out=cut(acc, lo, hi))
    for ufunc, src, shift in rest:
        for lo, hi, (i,) in _runs(n, (shift,)):
            o = cut(acc, lo, hi)
            ufunc(o, cut(src, i, i + hi - lo), out=o)
    np.divide(acc, (2 if cfg.order == 2 else 12) * h, out=out)
    if direction > 0:
        return out
    if cfg.order == 4:
        out[1] = (vals[2] - vals[0]) / (2 * h)
        out[-2] = (vals[-1] - vals[-3]) / (2 * h)
    out[0] = (-3 * vals[0] + 4 * vals[1] - vals[2]) / (2 * h)
    out[-1] = (3 * vals[-1] - 4 * vals[-2] + vals[-3]) / (2 * h)
    return out


def _gradient(arr, grid: GridField, cfg: StencilConfig, axis: int, out=None) -> np.ndarray:
    """Every partial of arr, stacked as a new axis at the (negative) position
    axis of the result (out when given), each written straight into its slot."""
    cut = arr.ndim + 1 + axis
    if out is None:
        out = np.empty(arr.shape[:cut] + (grid.dim + 1,) + arr.shape[cut:])
    for a in range(grid.dim + 1):
        _partial(arr, a, grid, cfg, out=np.moveaxis(out, axis, 0)[a])
    return out


def _contracted_partials(arr, axis: int, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    """sum_a d_a arr[..., a, ...], with a running over the given axis, in
    order; each component goes to _partial as a view, not a copy."""
    total = _partial(arr[(slice(None),) * axis + (0,)], 0, grid, cfg)
    term = np.empty_like(total)
    for a in range(1, grid.dim + 1):
        total += _partial(arr[(slice(None),) * axis + (a,)], a, grid, cfg, out=term)
    return total


# ---------------------------------------------------------------------------
# operators
# ---------------------------------------------------------------------------
#
# Every operator below takes a component array c and the grid it was cut
# from: c holds either all of grid.components or a range of its radial rows
# (a slab), and the stencils read their spacings from the grid, never from
# the row count of c.


def _op_divergence(c, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    total = _contracted_partials(c, grid.grid_ndim, grid, cfg)
    return np.negative(total, out=total)


def _op_sym_grad(c, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    grad = _gradient(c, grid, cfg, -2)
    return grad + np.swapaxes(grad, -1, -2)


class _Sweep(NamedTuple):
    """The rough Laplacian of a field, computed once per batch that uses it;
    when the batch names linearized_ricci, also the field's divergence and
    the two buffers of the field's size the sweep has finished with."""

    rough: np.ndarray
    divergence: np.ndarray | None = None
    spare: tuple = ()


def _op_rough_laplacian(c, grid: GridField, cfg: StencilConfig, divergence: bool = False) -> _Sweep:
    """-sum_a d_a d_a c, one axis at a time.  With divergence set, also
    -sum_a d_a c[..., a, :], summed in order from row a of each first
    partial d_a c: the stencil acts entry by entry, so that row equals the
    partial of row a bit for bit, and no partial is taken twice."""
    total = np.empty(c.shape)
    term, d1 = np.empty_like(total), np.empty_like(total)
    work = np.empty_like(total) if cfg.order == 4 else None
    div = None
    for a in range(grid.dim + 1):
        _partial(c, a, grid, cfg, out=d1, work=work)
        if divergence:
            row = d1[(slice(None),) * grid.grid_ndim + (a,)]
            div = row.copy() if div is None else np.add(div, row, out=div)
        _partial(d1, a, grid, cfg, out=term if a else total, work=work)
        if a:
            total += term
    rough = np.negative(total, out=total)
    if not divergence:
        return _Sweep(rough)
    return _Sweep(rough, np.negative(div, out=div), (term, d1))


def _op_trace_hessian(c, grid: GridField, cfg: StencilConfig, out=None) -> np.ndarray:
    """[..., i, j] = d_j d_i tr c, into out when given.  The trace is summed
    as (h00 + h11) + h22 + ..., the order of np.trace, which starts from
    +0.0: the final + 0.0 gives its +0.0 on a diagonal of negative zeros."""
    tr = np.add(c[..., 0, 0], c[..., 1, 1])
    for i in range(2, grid.dim + 1):
        tr += c[..., i, i]
    tr += 0.0
    return _gradient(_gradient(tr, grid, cfg, -1), grid, cfg, -1, out=out)


def _op_linearized_ricci(c, grid: GridField, cfg: StencilConfig, sweep: _Sweep) -> np.ndarray:
    """(rough - (grad w + grad w^T) - Hess tr) / 2, with w the sweep's
    divergence.  The gradient and then the Hessian go into one of the
    sweep's spare buffers, the result into the other."""
    out, scratch = sweep.spare
    grad = _gradient(sweep.divergence, grid, cfg, -2, out=scratch)
    np.add(grad, np.swapaxes(grad, -1, -2), out=out)
    np.subtract(sweep.rough, out, out=out)
    out -= _op_trace_hessian(c, grid, cfg, out=scratch)
    out *= 0.5
    return out


def _background_curvature(f: GridField, cfg: StencilConfig):
    """Ricci and Riemann of the product metric, computed (not assumed)
    from FD Christoffel symbols of the constant identity components.
    Every tangential axis is collapsed to length 1, so both arrays
    broadcast against f.components."""
    D = f.dim + 1
    column = (f.n_r,) + (1,) * f.dim
    gamma = _christoffel(np.broadcast_to(np.eye(D), column + (D, D)), f, cfg)
    riem = _riemann_from_christoffel(gamma, f, cfg)
    return np.einsum("...kikj->...ij", riem), riem


def _op_lichnerowicz(f: GridField, cfg: StencilConfig, rough: np.ndarray) -> np.ndarray:
    ric, riem = _background_curvature(f, cfg)
    if not riem.any():
        # flat background: the coupling vanishes; copy, since a batch may
        # also return the rough Laplacian itself
        return rough.copy()
    h = f.components
    # the curvature arrays carry length-1 axes; unoptimized einsum is about
    # ten times slower on such broadcast operands
    coupling = np.einsum("...ik,...kj->...ij", ric, h, optimize=True)
    coupling += np.einsum("...jk,...ik->...ij", ric, h, optimize=True)
    coupling -= 2.0 * np.einsum("...ikjl,...kl->...ij", riem, h, optimize=True)
    coupling += rough
    return coupling


# operator -> (result rank for an input rank, None where the operator does
# not take that rank; function of (c, grid, cfg, sweep)), where sweep is the
# _Sweep of c, computed once per batch that uses it.  lichnerowicz is
# pointwise in the rough Laplacian, so fd_operators runs it on the whole
# grid once the stencils are done.
_OPERATORS = {
    "divergence": (lambda rank: rank - 1 if rank >= 1 else None,
                   lambda c, grid, cfg, _: _op_divergence(c, grid, cfg)),
    "sym_grad": (lambda rank: 2 if rank == 1 else None,
                 lambda c, grid, cfg, _: _op_sym_grad(c, grid, cfg)),
    "rough_laplacian": (lambda rank: rank, lambda c, grid, cfg, sweep: sweep.rough),
    "trace_hessian": (lambda rank: 2 if rank == 2 else None,
                      lambda c, grid, cfg, _: _op_trace_hessian(c, grid, cfg)),
    "linearized_ricci": (lambda rank: 2 if rank == 2 else None, _op_linearized_ricci),
    "lichnerowicz": (lambda rank: 2 if rank == 2 else None, None),
}
# the operators that run the sweep of second partials
_SWEEP_OPS = {"rough_laplacian", "linearized_ricci"}


def _batch(names, c, grid: GridField, cfg: StencilConfig) -> dict:
    """The named stencil operators of c, as arrays keyed by name."""
    sweep = (_op_rough_laplacian(c, grid, cfg, "linearized_ricci" in names)
             if _SWEEP_OPS.intersection(names) else None)
    return {op: _OPERATORS[op][1](c, grid, cfg, sweep) for op in names}


# ---------------------------------------------------------------------------
# radial slabs
# ---------------------------------------------------------------------------
#
# A batch that sweeps second partials may run on radial slabs.  A slab is a
# range of inner rows plus H = cfg.order halo rows on each side, clipped at
# the grid's ends: two composed first derivatives reach no further, so every
# inner row equals the serial batch bit for bit; the rows a slab computes at
# a cut are dropped.  A few pool
# threads take the slabs in turn and write their inner rows straight into
# outputs the calling thread allocated.

_pool = None
_pool_lock = threading.Lock()


def fd_threads() -> int:
    """The CPUs this process may run on: the most threads a batch uses.
    Limit it with the process's CPU affinity (taskset)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slab_pool():
    """The one thread pool of the slabs, made on the first slab batch."""
    global _pool
    with _pool_lock:
        if _pool is None:
            from concurrent.futures import ThreadPoolExecutor
            _pool = ThreadPoolExecutor(thread_name_prefix="cylspec-fd")
        return _pool


def _forget_pool():
    """A forked child has none of its parent's threads: start afresh."""
    global _pool, _pool_lock
    _pool, _pool_lock = None, threading.Lock()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_pool)


def _slab_plan(names, f: GridField, cfg: StencilConfig) -> tuple:
    """(threads, slabs) for a batch of stencil operators; (1, 1) is serial.

    Serial for a batch with no sweep.  Else
    the most threads, up to fd_threads(), and then the fewest slabs such
    that every slab has at least 8 H inner rows (halo rework stays at most
    a quarter of a slab) and the slabs in flight, one per thread, hold no
    more scratch than the serial batch: with B the sweep's buffers, the
    outputs plus threads * rows * B stay within n_r * B."""
    if not _SWEEP_OPS.intersection(names):
        return 1, 1
    # B: the buffers of c's size the sweep holds, total, term and d1, and at
    # order 4 the 8 f of _partial
    H, B = cfg.order, 3 if cfg.order == 2 else 4
    budget = f.n_r * (B - len(names))
    for threads in range(fd_threads(), 1, -1):
        rows = budget // (threads * B) - 2 * H  # the most inner rows per slab
        if rows >= 8 * H:
            slabs = -(-f.n_r // rows)
            if f.n_r // slabs >= 8 * H:
                return threads, slabs
    return 1, 1


def _fill_slab(names, f: GridField, cfg: StencilConfig, out: dict, lo: int, hi: int):
    """Run the batch on rows [lo, hi) and their halos; write rows [lo, hi)."""
    a, b = max(lo - cfg.order, 0), min(hi + cfg.order, f.n_r)
    got = _batch(names, f.components[a:b], f, cfg)
    for op in names:
        out[op][lo:hi] = got[op][lo - a:hi - a]


def _slabbed(names, f: GridField, cfg: StencilConfig, threads: int, slabs: int) -> dict:
    """The batch on the given number of slabs, taken in turn by that many
    pool threads; every slab has finished before this returns, and the
    first exception a thread raised is raised here."""
    out = {op: np.empty((f.n_r, *f.n_x) + (f.dim + 1,) * _OPERATORS[op][0](f.rank))
           for op in names}
    cuts = [f.n_r * k // slabs for k in range(slabs + 1)]
    # one shared iterator over built-in lists: each next() is atomic
    todo = iter(list(zip(cuts, cuts[1:])))

    def drain():
        for lo, hi in todo:
            _fill_slab(names, f, cfg, out, lo, hi)

    futures = [_slab_pool().submit(drain) for _ in range(threads)]
    for fut in futures:
        fut.exception()  # waits without raising
    for fut in futures:
        fut.result()
    return out


def fd_operators(names, f: GridField, cfg: StencilConfig = StencilConfig()) -> dict:
    """The named operators of one field, keyed by name in the order first
    named; a repeated name is computed once, and no names give {}.  Every
    name and the field's rank are checked before any stencil runs.

    rough_laplacian, lichnerowicz and linearized_ricci share one sweep of
    second partials.  linearized_ricci reads the divergence from the
    sweep's first partials and writes its tail into the sweep's spare
    buffers: it takes 5 (d + 1) partials.  A batch with a sweep runs on
    radial slabs across fd_threads() threads when the grid is large enough
    (see _slab_plan).  Every value equals the np.roll stencils summed
    left to right, bit for bit, on slabs or not, except that
    lichnerowicz's copy of the rough Laplacian on a flat background may
    differ from them in the sign of a zero."""
    names = tuple(dict.fromkeys(names))
    for op in names:
        if op not in _OPERATORS:
            raise InvalidInput(f"unknown operator {op!r}; expected one of {tuple(_OPERATORS)}")
        if _OPERATORS[op][0](f.rank) is None:
            raise InvalidInput(f"{op} does not take a rank-{f.rank} field")
    stencil = tuple(dict.fromkeys("rough_laplacian" if op == "lichnerowicz" else op
                                  for op in names))
    threads, slabs = _slab_plan(stencil, f, cfg)
    arrays = (_slabbed(stencil, f, cfg, threads, slabs) if threads > 1
              else _batch(stencil, f.components, f, cfg))
    if "lichnerowicz" in names:
        arrays["lichnerowicz"] = _op_lichnerowicz(f, cfg, arrays["rough_laplacian"])
    return {op: f.with_components(arrays[op], rank=_OPERATORS[op][0](f.rank)) for op in names}


def fd_operator(op: str, f: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    return fd_operators((op,), f, cfg)[op]


# ---------------------------------------------------------------------------
# nonlinear Ricci
# ---------------------------------------------------------------------------


def _collapse_invariant_axes(g: GridField) -> np.ndarray:
    """g.components with every tangential axis they are constant along cut
    to length 1.  Every stencil along such an axis shifts a constant, and a
    length-1 axis wraps onto itself, so curvature computed from
    the cut array with g's spacings equals the full-grid values bit for bit
    and broadcasts back to them."""
    comps = g.components
    for axis in range(1, g.grid_ndim):
        head = comps[(slice(None),) * axis + (slice(0, 1),)]
        if (comps == head).all():
            comps = head
    return comps


def _christoffel(comps: np.ndarray, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    """Gamma^k_{ij} with component axes ordered (k, i, j), from metric
    components laid out like grid.components or collapsed from them."""
    dg = _gradient(comps, grid, cfg, -3)
    # dg[..., l, i, j] = d_l g_{ij}
    low = 0.5 * (np.einsum("...ilj->...lij", dg) + np.einsum("...jli->...lij", dg) - dg)
    return np.einsum("...kl,...lij->...kij", np.linalg.inv(comps), low)


def _riemann_from_christoffel(gamma: np.ndarray, g: GridField, cfg: StencilConfig) -> np.ndarray:
    """R^k_{lij} with component axes ordered (k, l, i, j)."""
    dgamma = _gradient(gamma, g, cfg, -4)
    # dgamma[..., a, k, i, j] = d_a Gamma^k_{ij}
    return (np.einsum("...iklj->...klij", dgamma)
            - np.einsum("...jkli->...klij", dgamma)
            + np.einsum("...kim,...mjl->...klij", gamma, gamma)
            - np.einsum("...kjm,...mil->...klij", gamma, gamma))


def nonlinear_ricci(g: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    """Full Ricci tensor of a perturbed metric via FD Christoffel symbols.
    The input checks run on the collapsed components: their nodes are the
    full grid's nodes, so the verdict is the same."""
    if g.rank != 2:
        raise InvalidInput("nonlinear_ricci needs a rank-2 metric field")
    comps = _collapse_invariant_axes(g)
    scale = float(np.max(np.abs(comps)))
    if float(np.max(np.abs(comps - np.swapaxes(comps, -1, -2)))) > 1e-12 * max(scale, 1.0):
        raise InvalidInput("metric components are not symmetric")
    try:
        np.linalg.cholesky(comps)
    except np.linalg.LinAlgError:
        raise InvalidInput("metric is not positive definite at every node") from None
    gamma = _christoffel(comps, g, cfg)
    # Ric_{ij} = d_k Gamma^k_{ij} - d_i Gamma^k_{kj} + Gamma^k_{kl} Gamma^l_{ij}
    #           - Gamma^k_{il} Gamma^l_{kj}
    term1 = _contracted_partials(gamma, g.grid_ndim, g, cfg)
    tr = np.einsum("...kkj->...j", gamma)
    term2 = _gradient(tr, g, cfg, -2)
    term3 = np.einsum("...l,...lij->...ij", tr, gamma)
    term4 = np.einsum("...kil,...lkj->...ij", gamma, gamma)
    ric = term1 - term2 + term3 - term4
    return g.with_components(np.broadcast_to(ric, g.components.shape).copy())


def flat_metric_grid(template: GridField) -> GridField:
    """Product-metric components on the same lattice as the template."""
    D = template.dim + 1
    shape = (template.n_r, *template.n_x, D, D)
    return template.with_components(np.broadcast_to(np.eye(D), shape).copy(), rank=2)


# ---------------------------------------------------------------------------
# quadratic remainder
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RemainderScan:
    exponent: float
    epsilons: tuple
    remainders: tuple


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
    exponent = (float("nan") if max(remainders) == 0.0
                else float(np.polyfit(np.log(eps_list), np.log(remainders), 1)[0]))
    return RemainderScan(exponent, tuple(eps_list), tuple(remainders))
