"""Grid-based cross-checks for every cylinder operator.

This module deliberately shares almost nothing with the modal layer:
fields are dense component arrays on an [a, b] x torus lattice and each
operator is a centered-difference stencil.  Agreement between the two
routes is the package's main integrity check, so the only shared
ingredient is pointwise evaluation of modal fields (``sample``).

Conventions are the same as in ``fields``: component index 0 is the
radial direction, the rough Laplacian is minus the sum of second
partials, and the divergence contracts the derivative index with a minus
sign.  ``linearized_ricci`` is the derivative of ``nonlinear_ricci`` at
the product metric, in the Bianchi form (rough + S(v)) / 2, where
S(v)_ij = d_i v_j + d_j v_i and v = -beta(h), v_j = sum_a d_a h_aj -
d_j tr h / 2 (Besse, *Einstein Manifolds*, 1987, 1.K).  To make that hold
exactly at the discrete level (not just up to truncation error), second
derivatives are always composed first-derivative stencils, and stencils
on different axes commute; the nonlinear Ricci routine differentiates
the Christoffel arrays with the same stencil, so the order-epsilon terms
of ``nonlinear_ricci(g0 + eps h)`` cancel against ``eps *
linearized_ricci(h)`` to round-off and the measured remainder is
genuinely quadratic.

The background is the product metric dr^2 + g_flat, whose Ric and Rm
vanish, so the Lichnerowicz Laplacian is the rough Laplacian.  Each stencil
operator runs on radial slabs across the CPUs the process may use; every
value is the same, bit for bit (see ``fd_operator``).  A certificate reads
``operator_interior_sup``: the operator's slabs on the interior band alone,
each reduced by its own thread, with no output grid.

A tangential first partial at order 2 reads its C-contiguous source as one
flat vector: f[i+1] - f[i-1] on every node is one subtraction of two flat
slices, right away from the axis's two wrap nodes, whose values two
subtractions on their own views then replace; with the division by 2h that
is four passes, none of them over a strided run.  Order 4 keeps its runs,
index ranges on which no shift wraps, since its flat form was slower on
a 64 x 8^3 grid (see ``_partial``).
"""

from __future__ import annotations

import contextvars
import math
import os
import sys
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


# ---------------------------------------------------------------------------
# buffers
# ---------------------------------------------------------------------------
#
# Every grid field this module returns, and every operator's scratch, comes
# from _empty: the operators' outputs, sample, GridField arithmetic,
# flat_metric_grid and nonlinear_ricci.  A fresh buffer takes minor page
# faults when it is first written, which makes filling it about three
# times slower than refilling one that is already mapped, so _empty keeps
# the buffers it made and hands each out again once no array refers to it.

# a flat buffer carved into views starts each one on this many float64
# entries: 64 bytes
_ALIGN = 8


def _refcounts(buffers) -> list:
    return [sys.getrefcount(raw) for raw in buffers]


# what _refcounts reads for a buffer that only its list refers to
_IDLE = _refcounts([np.empty(0)])[0]


class _Recycler:
    """Flat float64 buffers, each handed out again once the reference
    count of its owning array is down to the recycler's own: a view, and
    every array derived from one, refers to that owner.  A request takes
    the smallest idle buffer that holds it, else a fresh one.  Idle
    buffers are dropped, least recently handed out first, while they hold
    more bytes than the most seen in use at once."""

    def __init__(self):
        self.lock = threading.Lock()
        self.owned = []  # owning arrays, least recently handed out first
        self.peak = 0  # the most bytes in use at once

    def take(self, entries: int) -> np.ndarray:
        with self.lock:
            idle = [n == _IDLE for n in _refcounts(self.owned)]
            fits = [(raw.size, i) for i, raw in enumerate(self.owned)
                    if idle[i] and raw.size - _ALIGN + 1 >= entries]
            if fits:
                i = min(fits)[1]
                raw = self.owned.pop(i)
                del idle[i]
            else:
                raw = np.empty(entries + _ALIGN - 1)
            busy = raw.nbytes + sum(b.nbytes for b, free in zip(self.owned, idle) if not free)
            self.peak = max(self.peak, busy)
            spare = sum(b.nbytes for b, free in zip(self.owned, idle) if free) - self.peak
            kept = []
            for b, free in zip(self.owned, idle):
                if free and spare > 0:
                    spare -= b.nbytes
                else:
                    kept.append(b)
            self.owned = kept + [raw]
            skip = -raw.ctypes.data % (8 * _ALIGN) // 8
            return raw[skip:skip + entries]


_recycler = _Recycler()


def _empty(entries: int) -> np.ndarray:
    """A flat float64 buffer of the given entries starting on a 64-byte
    boundary, so that the stencils' speed does not follow where the heap
    placed it.  It comes from the calling thread, never from a pool
    thread running slabs."""
    return _recycler.take(entries)


def _array(shape) -> np.ndarray:
    return _empty(math.prod(shape)).reshape(shape)


def _forget_buffers():
    """Start with an empty recycler; an array in use keeps its buffer.  A
    forked child does so too, since a thread it does not have may have
    held the lock."""
    global _recycler
    _recycler = _Recycler()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_forget_buffers)


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
        if not all(map(math.isfinite, self.r_range)):
            raise InvalidInput(f"r_range {self.r_range} must be finite")
        if not all(math.isfinite(h * h) for h in self.spacings):
            raise InvalidInput(f"a grid spacing squared is not finite: {self.spacings}")
        for i, L in enumerate(self.lengths):
            if not 0.0 < L < math.inf:
                raise InvalidInput(f"side length {i} must be finite and > 0, got {L!r}")
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
        return self.with_components(np.add(self.components, other.components,
                                           out=_array(self.components.shape)))

    def __sub__(self, other: "GridField") -> "GridField":
        self._check_compatible(other)
        return self.with_components(np.subtract(self.components, other.components,
                                                out=_array(self.components.shape)))

    def scale(self, c: float) -> "GridField":
        return self.with_components(np.multiply(self.components, float(c),
                                                out=_array(self.components.shape)))

    def _check_compatible(self, other):
        same = (self.r_range == other.r_range and self.n_r == other.n_r
                and self.lengths == other.lengths and self.n_x == other.n_x
                and self.rank == other.rank)
        if not same:
            raise InvalidInput("grid fields live on different grids")

    def interior(self) -> np.ndarray:
        """Component view away from the radial boundary layers."""
        return self.components[_band(self.n_r)]


def _band(n_r: int) -> slice:
    """The interior band's radial rows, INTERIOR_TRIM in from each end."""
    if n_r <= 2 * INTERIOR_TRIM:
        raise InvalidInput(f"n_r = {n_r} leaves no interior band: INTERIOR_TRIM = "
                           f"{INTERIOR_TRIM} nodes are trimmed at each radial end")
    return slice(INTERIOR_TRIM, n_r - INTERIOR_TRIM)


def _sup(x: np.ndarray) -> float:
    """max |x|, read from the largest and smallest entries without a |x|
    temporary: a NaN makes both NaN, and -0.0 reads 0.0, as in
    np.max(np.abs(x))."""
    return float(max(abs(x.max()), abs(x.min())))


def interior_sup(f: GridField) -> float:
    """max |x| over the interior band."""
    return _sup(f.interior())


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
    return probe.with_components(field.evaluate(probe.r_nodes(), mesh, out=_array(shape)))


# ---------------------------------------------------------------------------
# stencils
# ---------------------------------------------------------------------------


def _runs(n: int, shifts) -> list:
    """The maximal index ranges [lo, hi) of an axis of length n on which no
    shift i -> (i + s) mod n wraps, each with the start of every shifted
    source range."""
    cuts = sorted({0, n} | {n - s % n for s in shifts})
    return [(lo, hi, [(lo + s) % n for s in shifts]) for lo, hi in zip(cuts, cuts[1:])]


def _cut(buf, shape) -> np.ndarray:
    """The leading entries of the flat buffer buf, viewed in the given shape."""
    return buf[:math.prod(shape)].reshape(shape)


def _partial(arr, direction, grid: GridField, cfg: StencilConfig, out=None, work=None,
             acc=None, rows=None, start=0):
    """d/dx_direction of a component array laid out like grid.components,
    or cut from it to length 1 along tangential axes it is constant on, or
    to a range of radial rows that starts at global row start.  It gives
    the global radial rows [lo, hi) = rows (by default every row of arr),
    into out when given.  work and acc, when given, are flat buffers: work
    holds 8 * arr at order 4, acc the sum when out is not contiguous.

    A tangential partial at order 2 is f[i+1] - f[i-1] by flat shifts
    (_wrapped_difference): one bulk subtraction, one on each of the two
    wrap nodes' views, then the division by 2h, four ufunc calls on any
    axis.  At order 4 the axis is cut into runs, maximal index ranges on
    which no shift wraps (a length-1 axis wraps onto itself): 8 f[i+1] -
    f[i+2] is one subtraction per run, then 8 f[i-1] is subtracted and
    f[i-2] added run by run, and the division by 12h comes last.  A flat
    form of order 4 has four wrap nodes per outer row and eight grouped
    wrap subtractions; on one 2-vCPU machine it took 2.30 -> 3.06 ms on
    axis 1 and 3.24 -> 3.96 ms on axis 2 of 64 x 8^3 x 4 x 4, against
    4.66 -> 4.08 ms on its axis 3 and 4.19 -> 3.21 ms on the last axis of
    128 x 24^2 x 3 x 3, so order 4 keeps the runs.  As b - a == -a + b
    exactly, every value equals (f[i+1] - f[i-1]) / 2h, or (-f[i+2] + 8
    f[i+1] - 8 f[i-1] + f[i-2]) / 12h, summed left to right, bit for bit.
    The radial partial sums the same terms on the rows at least order/2
    from the grid's ends, reading whatever rows of arr they need, and gives
    the rows nearer the ends their skewed stencils.  Second derivatives
    compose this routine with itself, the exact building block of
    nonlinear_ricci."""
    h = grid.spacings[direction]
    lo, hi = (start, start + len(arr)) if rows is None else rows
    if direction:
        arr = arr[lo - start:hi - start]
    # a strided view (one component of a tensor) is read into one contiguous
    # copy: strided reads in every stencil term are about twice as slow
    vals = np.ascontiguousarray(arr)
    shape = (hi - lo,) + vals.shape[1:]
    out = np.empty(shape) if out is None else out
    if out.flags.c_contiguous:
        acc = out
    else:
        acc = np.empty(shape) if acc is None else _cut(acc, shape)

    def times_eight(x):
        return np.multiply(x, 8, out=None if work is None else _cut(work, x.shape))

    if direction == 0:
        _radial(vals, lo, hi, start, grid, cfg, out, acc, times_eight)
        return out
    if cfg.order == 2:
        _wrapped_difference(vals, direction, acc)
        np.divide(acc, 2 * h, out=out)
        return out
    eight = times_eight(vals)

    def cut(x, i, j):
        return x[(slice(None),) * direction + (slice(i, j),)]

    n = vals.shape[direction]
    for i, j, (p, q) in _runs(n, (1, 2)):
        np.subtract(cut(eight, p, p + j - i), cut(vals, q, q + j - i), out=cut(acc, i, j))
    for ufunc, src, shift in ((np.subtract, eight, -1), (np.add, vals, -2)):
        for i, j, (p,) in _runs(n, (shift,)):
            o = cut(acc, i, j)
            ufunc(o, cut(src, p, p + j - i), out=o)
    np.divide(acc, 12 * h, out=out)
    return out


def _wrapped_difference(vals, axis, acc):
    """f[i+1] - f[i-1] along the periodic axis of the C-contiguous vals,
    into the C-contiguous acc of its shape.  Seen flat, with B entries after
    the axis, one subtraction of two slices 2B apart is right on every node
    with 1 <= i <= n - 2; at i = 0 and i = n - 1 it reads the neighbouring
    outer row, and one subtraction on each of those nodes' (A, B) views
    overwrites them with their wrapped neighbours.  Every node subtracts
    the operands of the np.roll stencil.

    A floating-point flag of the bulk subtraction may come from a wrap
    node's overwritten value, so the bulk runs with every flag raising; on
    one, the nodes it got right are taken again from their own neighbours,
    under the caller's error state: warnings and errors are those of the
    np.roll stencil."""
    n = vals.shape[axis]
    B = math.prod(vals.shape[axis + 1:])
    f, d = vals.reshape(-1, n, B), acc.reshape(-1, n, B)
    try:
        with np.errstate(all="raise"):
            np.subtract(vals.reshape(-1)[2 * B:], vals.reshape(-1)[:-2 * B],
                        out=acc.reshape(-1)[B:-B])
    except FloatingPointError:
        np.subtract(f[:, 2:], f[:, :-2], out=d[:, 1:-1])
    np.subtract(f[:, 1 % n], f[:, n - 1], out=d[:, 0])
    np.subtract(f[:, 0], f[:, (n - 2) % n], out=d[:, n - 1])


def _radial(vals, lo, hi, start, grid: GridField, cfg: StencilConfig, out, acc, times_eight):
    """Rows [lo, hi) of d/dr, into out; vals holds the global rows from start."""
    h, n, e = grid.dr, grid.n_r, cfg.order // 2

    def f(i, j=None):  # global row i, or rows [i, j), of the source
        return vals[i - start] if j is None else vals[i - start:j - start]

    a, b = max(lo, e), min(hi, n - e)  # rows with a centered stencil
    if a < b:
        o = acc[a - lo:b - lo]
        if cfg.order == 2:
            np.subtract(f(a + 1, b + 1), f(a - 1, b - 1), out=o)
        else:
            eight = times_eight(f(a - 1, b + 1))
            np.subtract(eight[2:], f(a + 2, b + 2), out=o)
            np.subtract(o, eight[:-2], out=o)
            np.add(o, f(a - 2, b - 2), out=o)
        np.divide(o, (2 if cfg.order == 2 else 12) * h, out=out[a - lo:b - lo])
    edges = {0: lambda: (-3 * f(0) + 4 * f(1) - f(2)) / (2 * h),
             n - 1: lambda: (3 * f(n - 1) - 4 * f(n - 2) + f(n - 3)) / (2 * h)}
    if cfg.order == 4:
        edges[1] = lambda: (f(2) - f(0)) / (2 * h)
        edges[n - 2] = lambda: (f(n - 1) - f(n - 3)) / (2 * h)
    for row, value in edges.items():
        if lo <= row < hi:
            out[row - lo] = value()


def _gradient(arr, grid: GridField, cfg: StencilConfig, axis: int, out=None, **window):
    """Every partial of arr, stacked as a new axis at the (negative) position
    axis of the result (out when given), each written straight into its
    slot; window (work, acc, rows, start) goes to every _partial.  Without
    out, the result and the partials' work and acc come from _empty."""
    cut = arr.ndim + 1 + axis
    if out is None:
        out = _array(arr.shape[:cut] + (grid.dim + 1,) + arr.shape[cut:])
        window = {"work": _work(arr.size, cfg), "acc": _empty(arr.size)}
    for a in range(grid.dim + 1):
        _partial(arr, a, grid, cfg, out=np.moveaxis(out, axis, 0)[a], **window)
    return out


def _work(entries: int, cfg: StencilConfig):
    """The work buffer of partials of a source of at most the given entries:
    8 * the source at order 4, none at order 2."""
    return _empty(entries) if cfg.order == 4 else None


def _contracted_partials(arr, axis: int, grid: GridField, cfg: StencilConfig) -> np.ndarray:
    """sum_a d_a arr[..., a, ...], with a running over the given axis, in
    order.  Each component is first copied into one contiguous buffer; every
    buffer comes from _empty."""
    def component(a):
        return arr[(slice(None),) * axis + (a,)]

    comp = _array(component(0).shape)
    total, term = _array(comp.shape), _array(comp.shape)
    work = _work(comp.size, cfg)
    for a in range(grid.dim + 1):
        np.copyto(comp, component(a))
        _partial(comp, a, grid, cfg, out=term if a else total, work=work)
        if a:
            total += term
    return total


# ---------------------------------------------------------------------------
# operators on radial slabs
# ---------------------------------------------------------------------------
#
# Every stencil operator runs as slabs: ranges [lo, hi) of global radial
# rows, each computing those rows of the operator straight into its
# full-size output.  The radial partial reads whatever rows of its source
# it needs, so the input c is read in place.  Only intermediates that a
# later radial partial reads are private and carry a halo: the sweep's
# first partial d1, linearized_ricci's v taken from it and the
# divergence's radial component, order/2 rows on each side, clipped at the
# grid's ends.  Every value is then the serial value, bit for bit.
#
# The calling thread allocates every buffer (_empty) before any slab
# starts: one scratch set per thread, which that thread reuses for each
# slab it takes, then the output.  The operator's unit (the sweep, the
# divergence, the symmetrized gradient) carves its private buffers from the
# front of the set, in the order _scratch_entries counts them; the
# divergence's set is unpadded row-blocks of its output, exactly linear in
# slab rows, so it runs one slab per thread.  One slab on one thread is the
# serial run.
#
# The band sink of operator_interior_sup cuts only the interior rows, into
# as many slabs, on as many threads, with the same scratch sets, as the
# whole grid's plan (a plan of the band alone may give fewer threads), and
# gives each thread its own slab buffer in place of the output: the thread
# reduces each slab it computes there.

# every slab has at least this many rows per stencil order, so the halo
# rows a slab recomputes stay a small share of its work
_SLAB_ROWS_PER_ORDER = 4


def _pad(entries: int) -> int:
    return -(-entries // _ALIGN) * _ALIGN


class _Carve:
    """Consecutive 64-byte-aligned views cut from the front of a flat buffer."""

    def __init__(self, buf):
        self.buf, self.used = buf, 0

    def __call__(self, shape) -> np.ndarray:
        view = _cut(self.buf[self.used:], shape)
        self.used += _pad(view.size)
        return view

    def rest(self) -> np.ndarray:
        return self.buf[self.used:]


def _halo(lo: int, hi: int, width: int, n: int) -> tuple:
    return max(lo - width, 0), min(hi + width, n)


def _scratch_entries(op: str, f: GridField, cfg: StencilConfig, rows: int) -> int:
    """Entries of the scratch set with which one thread runs slabs of op of
    at most rows rows: what the op's unit carves from it.  Each term counts
    one carve, in the unit's order; work, 8 * a source at order 4, takes
    what is left.

    The divergence's set is exactly linear in rows, 1 + order/2 row-blocks
    of its output, so one slab per thread holds no more than the serial
    run.  Its radial step, a copy of rows + order halo rows and work of
    rows + 2 at order 4, fits them on a slab of at least 2 rows at order 2
    and 6 at order 4, or on the whole grid."""
    n, D, e = f.n_r, f.dim + 1, cfg.order // 2
    C = f.components[0].size  # entries of one row of c
    C1, C2 = C // D, C // D**2  # of one row of a component, of a scalar
    r1 = min(rows + 2 * e, n)

    def work(k, per_row):  # for a partial that gives k rows
        return _pad(min(k + 2, n) * per_row) if cfg.order == 4 else 0

    if op == "divergence":
        return (1 + e) * rows * C1
    if op == "sym_grad":
        return _pad(rows * C * D) + _pad(rows * C) + work(rows, C)
    # the sweep: d1, then its private sum or term, then linearized_ricci's v
    sweep = _pad(r1 * C) + _pad(rows * C)
    if op != "linearized_ricci":
        return sweep + work(r1, C)
    # the rest holds the sweep's work, the half trace partial between two
    # partials, then the gradient of v's acc and work
    tail = _pad(rows * C1) + work(rows, C1)
    return sweep + _pad(r1 * C1) + max(work(r1, C), _pad(r1 * C2), tail)


def _half_trace_partial(d1, out):
    """((d1[..., 0, 0] + d1[..., 1, 1]) + ...) / 2 into out: half of d_a tr c
    from the first partial d1 = d_a c, summed in order."""
    np.add(d1[..., 0, 0], d1[..., 1, 1], out=out)
    for i in range(2, d1.shape[-1]):
        out += d1[..., i, i]
    out *= 0.5
    return out


def _slab_sweep(f: GridField, cfg: StencilConfig, out, scratch, lo, hi, lin=False):
    """Rows [lo, hi) of the rough Laplacian -sum_a d_a d_a c, one axis at a
    time, or with lin of linearized_ricci in Bianchi form, (rough + S(v)) / 2
    with S(v)_ij = d_i v_j + d_j v_i and v_j = sum_a d_a c_aj - d_j tr c / 2
    = -beta(c)_j, into out.

    v is read from the first partials d1 = d_a c alone, so no partial is
    taken twice and the trace is never formed: the stencil acts entry by
    entry, so row a of d1 is the partial of row a of c, and its diagonal
    sums to d_a tr c, bit for bit.  At step a, v = row a (a = 0) or v +=
    row a; then v[..., a] -= ((d_a c_00 + d_a c_11) + ...) * 0.5.  The sum,
    or with lin the term, goes straight into out; the gradient of v goes
    into d1, and S(v) is added to the rough Laplacian last."""
    c = f.components
    a1, b1 = _halo(lo, hi, cfg.order // 2, f.n_r)
    carve = _Carve(scratch)
    d1 = carve((b1 - a1,) + c.shape[1:])
    total, term = (carve(out.shape), out) if lin else (out, carve(out.shape))
    v = carve((b1 - a1,) + c.shape[1:-1]) if lin else None
    work = carve.rest()
    for a in range(f.dim + 1):
        _partial(c, a, f, cfg, out=d1, work=work, rows=(a1, b1))
        if lin:
            row = d1[(slice(None),) * f.grid_ndim + (a,)]
            if a:
                v += row
            else:
                np.copyto(v, row)
            v[..., a] -= _half_trace_partial(d1, _cut(work, d1.shape[:-2]))
        _partial(d1, a, f, cfg, out=term if a else total, work=work, rows=(lo, hi), start=a1)
        if a:
            total += term
    np.negative(total, out=total)
    if not lin:
        return
    grad = _cut(d1.reshape(-1), out.shape)
    tail = _Carve(work)
    acc = tail((v[0].size * (hi - lo),))
    _gradient(v, f, cfg, -2, out=grad, work=tail.rest(), acc=acc, rows=(lo, hi), start=a1)
    np.add(grad, np.swapaxes(grad, -1, -2), out=term)
    term += total
    term *= 0.5


def _as_items(x: np.ndarray, axes: int) -> np.ndarray:
    """x, C-contiguous, with its axes after the first ``axes`` read as one
    np.void item per entry of those first axes."""
    flat = x.reshape(x.shape[:axes] + (-1,))
    return flat.view(np.dtype((np.void, flat.shape[-1] * x.itemsize)))[..., 0]


def _slab_divergence(f: GridField, cfg: StencilConfig, out, scratch, lo, hi):
    """Rows [lo, hi) of -sum_a d_a c[..., a, ...], summed in order.  Each
    component is first copied, on the rows its partial reads, into one
    contiguous buffer: the radial one with its halo, a tangential one on
    [lo, hi) alone.  At rank >= 2 a node's component row spans the
    trailing rank - 1 axes and is copied as one np.void item, a pure copy
    several times cheaper than entry by entry.

    The scratch is row-blocks the size of out, unpadded: a tangential
    component's copy, its term, and at order 4 its work.  The radial
    component's halo copy and its work, which run first and write into
    out, fill the same room from the front (see _scratch_entries)."""
    c = f.components
    a1, b1 = _halo(lo, hi, cfg.order // 2, f.n_r)
    items = f.rank >= 2 and c.flags.c_contiguous
    src = _as_items(c, f.dim + 2) if items else c
    term = _cut(scratch[out.size:], out.shape)
    for a in range(f.dim + 1):
        start, end = (a1, b1) if a == 0 else (lo, hi)
        comp = _cut(scratch, (end - start,) + out.shape[1:])
        np.copyto(_as_items(comp, f.dim + 1) if items else comp,
                  src[(slice(start, end),) + (slice(None),) * f.dim + (a,)])
        work = scratch[comp.size if a == 0 else 2 * out.size:]
        _partial(comp, a, f, cfg, out=term if a else out, work=work, rows=(lo, hi), start=start)
        if a:
            out += term
    np.negative(out, out=out)


def _slab_sym_grad(f: GridField, cfg: StencilConfig, out, scratch, lo, hi):
    """Rows [lo, hi) of d_i c_j + d_j c_i."""
    carve = _Carve(scratch)
    grad = carve(out.shape)
    acc = carve((out[..., 0].size,))
    _gradient(f.components, f, cfg, -2, out=grad, work=carve.rest(), acc=acc, rows=(lo, hi))
    np.add(grad, np.swapaxes(grad, -1, -2), out=out)


class _Op(NamedTuple):
    rank: object  # input rank -> result rank, or None where op does not take it
    unit: object  # unit(f, cfg, out, scratch, lo, hi): rows [lo, hi) into out


def _rank_two(rank: int):
    return 2 if rank == 2 else None


# lichnerowicz runs the rough Laplacian's sweep (see the module docstring)
_OPS = {
    "divergence": _Op(lambda rank: rank - 1 if rank >= 1 else None, _slab_divergence),
    "sym_grad": _Op(lambda rank: 2 if rank == 1 else None, _slab_sym_grad),
    "rough_laplacian": _Op(lambda rank: rank, _slab_sweep),
    "linearized_ricci": _Op(_rank_two, lambda *args: _slab_sweep(*args, lin=True)),
    "lichnerowicz": _Op(_rank_two, _slab_sweep),
}


def _slab(op: str, f: GridField, cfg: StencilConfig, out, scratch, lo: int, hi: int):
    """Rows [lo, hi) of the stencil operator op of f, into out, which holds
    just those rows."""
    _OPS[op].unit(f, cfg, out, scratch, lo, hi)


_pool = None
_pool_lock = threading.Lock()


def fd_threads() -> int:
    """The CPUs this process may run on: the most threads an operator uses.
    Limit it with the process's CPU affinity (taskset)."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def _slab_pool():
    """The one thread pool of the slabs, made on the first slabbed operator."""
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


def _slab_plan(op: str, f: GridField, cfg: StencilConfig) -> tuple:
    """(threads, slabs) for one stencil operator; (1, 1) is serial.

    The most threads, up to fd_threads(), and then the fewest slabs, a
    multiple of the threads so that each takes as many, such that every
    slab has at least _SLAB_ROWS_PER_ORDER * order rows and the scratch
    sets in flight, one per thread, hold no more than the serial run's
    one.  The output is the same either way."""
    n = f.n_r
    most = n // (_SLAB_ROWS_PER_ORDER * cfg.order)  # slabs
    serial = _scratch_entries(op, f, cfg, n)
    for threads in range(min(fd_threads(), most), 1, -1):
        for slabs in range(threads, most + 1, threads):
            if threads * _scratch_entries(op, f, cfg, -(-n // slabs)) <= serial:
                return threads, slabs
    return 1, 1


def _run_slabs(op: str, f: GridField, cfg: StencilConfig, rows=None, sink=None):
    """The stencil operator op of f; or, given a sink, the list of sink(x)
    over the slabs x of its global radial rows [lo, hi) = rows, each slab
    computed into its thread's own buffer, so no output grid is made.  The
    rows are cut into as many slabs, on as many threads, with as large a
    scratch set, as the whole grid's plan.  A single thread runs the slabs
    itself; else that many pool threads take them in turn, each under the
    caller's numpy error state.  Every slab has finished before this
    returns, and the first exception a thread raised is raised here."""
    threads, slabs = _slab_plan(op, f, cfg)
    size = _pad(_scratch_entries(op, f, cfg, -(-f.n_r // slabs)))
    shape = (f.n_r, *f.n_x) + (f.dim + 1,) * _OPS[op].rank(f.rank)
    lo, hi = rows or (0, f.n_r)
    # scratch first: it is the larger request, and best fit would give the
    # output, or the threads' own slab buffers, its buffer
    block = _empty(threads * size)
    if sink is None:
        out = _array(shape)
    else:
        own = _pad(-(-(hi - lo) // slabs) * math.prod(shape[1:]))
        mine = _empty(threads * own)
    cuts = [lo + (hi - lo) * k // slabs for k in range(slabs + 1)]
    values = [None] * slabs
    # one shared iterator over built-in lists: each next() is atomic
    todo = iter(list(enumerate(zip(cuts, cuts[1:]))))

    def drain(i):
        scratch = block[i * size:(i + 1) * size]
        for k, (a, b) in todo:
            part = out[a:b] if sink is None else _cut(mine[i * own:], (b - a,) + shape[1:])
            _slab(op, f, cfg, part, scratch, a, b)
            if sink is not None:
                values[k] = sink(part)

    if threads == 1:
        drain(0)
    else:
        # each thread runs in a copy of the caller's context, which carries
        # its np.errstate; one copy per submit, as no two threads may enter one
        futures = [_slab_pool().submit(contextvars.copy_context().run, drain, i)
                   for i in range(threads)]
        for fut in futures:
            fut.exception()  # waits without raising
        for fut in futures:
            fut.result()
    return out if sink is None else values


def _result_rank(op: str, f: GridField) -> int:
    """The rank of op's result on f, checked before any stencil runs."""
    if op not in _OPS:
        raise InvalidInput(f"unknown operator {op!r}; expected one of {tuple(_OPS)}")
    rank = _OPS[op].rank(f.rank)
    if rank is None:
        raise InvalidInput(f"{op} does not take a rank-{f.rank} field")
    return rank


def fd_operator(op: str, f: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    """The stencil operator op of one field.  The name and the field's rank
    are checked before any stencil runs.

    rough_laplacian, lichnerowicz and linearized_ricci run one sweep of
    second partials.  linearized_ricci, in Bianchi form (rough + S(v)) / 2
    with v = -beta(h), reads v from the sweep's first partials, needs no
    trace and no trace Hessian, and writes its tail into the sweep's
    buffers: it takes 3 (d + 1) partials.  Every operator runs on radial
    slabs across fd_threads() threads when the grid is large enough (see
    _slab_plan).  Every value equals the np.roll stencils summed left to
    right, bit for bit, on slabs or not, and the array starts on a 64-byte
    boundary."""
    rank = _result_rank(op, f)
    return f.with_components(_run_slabs(op, f, cfg), rank=rank)


def operator_interior_sup(op: str, f: GridField, cfg: StencilConfig = StencilConfig()) -> float:
    """interior_sup(fd_operator(op, f, cfg)), bit for bit, with the same
    InvalidInput on the same checks before any stencil runs.  Only the
    interior band's rows are computed, each slab into its thread's own
    buffer and reduced there; the slabs' maxima are combined by np.max,
    which passes a NaN on as _sup does.  No output grid is made."""
    _result_rank(op, f)
    band = _band(f.n_r)
    return float(np.max(_run_slabs(op, f, cfg, rows=(band.start, band.stop), sink=_sup)))


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
    components laid out like grid.components or collapsed from them.  A
    node's symbols read only that node's partials, so the lowered symbols
    are formed and raised a block of radial rows at a time, each block
    written over its own partials: the partials and one block of the
    lowered symbols, at most the metric's size, are all that is alive."""
    dg = _gradient(comps, grid, cfg, -3)
    # dg[..., l, i, j] = d_l g_{ij}
    inv = np.linalg.inv(comps)
    rows = max(1, len(dg) // (grid.dim + 1))
    low = _array((rows,) + dg.shape[1:])
    for a in range(0, len(dg), rows):
        part = dg[a:a + rows]
        block = low[:len(part)]
        np.add(np.einsum("...ilj->...lij", part), np.einsum("...jli->...lij", part), out=block)
        block -= part
        block *= 0.5
        np.einsum("...kl,...lij->...kij", inv[a:a + rows], block, out=part)
    return dg


def nonlinear_ricci(g: GridField, cfg: StencilConfig = StencilConfig()) -> GridField:
    """Full Ricci tensor of a perturbed metric via FD Christoffel symbols.
    The input checks run on the collapsed components: their nodes are the
    full grid's nodes, so the verdict is the same.  Every grid-sized
    intermediate comes from _empty."""
    if g.rank != 2:
        raise InvalidInput("nonlinear_ricci needs a rank-2 metric field")
    comps = _collapse_invariant_axes(g)
    asym = _sup(np.subtract(comps, np.swapaxes(comps, -1, -2), out=_array(comps.shape)))
    if asym > 1e-12 * max(_sup(comps), 1.0):
        raise InvalidInput("metric components are not symmetric")
    try:
        np.linalg.cholesky(comps)
    except np.linalg.LinAlgError:
        raise InvalidInput("metric is not positive definite at every node") from None
    gamma = _christoffel(comps, g, cfg)
    # Ric_{ij} = d_k Gamma^k_{ij} - d_i Gamma^k_{kj} + Gamma^k_{kl} Gamma^l_{ij}
    #           - Gamma^k_{il} Gamma^l_{kj}, summed left to right
    ric = _contracted_partials(gamma, g.grid_ndim, g, cfg)
    tr = np.einsum("...kkj->...j", gamma, out=_array(gamma.shape[:-2]))
    term = _gradient(tr, g, cfg, -2)
    ric -= term
    ric += np.einsum("...l,...lij->...ij", tr, gamma, out=term)
    ric -= np.einsum("...kil,...lkj->...ij", gamma, gamma, out=term)
    out = _array(g.components.shape)
    np.copyto(out, ric)
    return g.with_components(out)


def flat_metric_grid(template: GridField) -> GridField:
    """Product-metric components on the same lattice as the template."""
    D = template.dim + 1
    out = _array((template.n_r, *template.n_x, D, D))
    np.copyto(out, np.eye(D))
    return template.with_components(out, rank=2)


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
    if len(eps_list) < 2 or not all(math.isfinite(e) and e > 0 for e in eps_list):
        raise InvalidInput(f"eps_list {eps_list} must hold two or more finite positive values")
    if any(a <= b for a, b in zip(eps_list, eps_list[1:])):
        raise InvalidInput(f"eps_list {eps_list} must be strictly decreasing")
    g0 = flat_metric_grid(h)
    linear = fd_operator("linearized_ricci", h, cfg)
    remainders = []
    for eps in eps_list:
        ric = nonlinear_ricci(g0 + h.scale(eps), cfg)
        remainders.append(interior_sup(ric - linear.scale(eps)))
    exponent = (float("nan") if max(remainders) == 0.0
                else float(np.polyfit(np.log(eps_list), np.log(remainders), 1)[0]))
    return RemainderScan(exponent, tuple(eps_list), tuple(remainders))
