"""Separated tensor fields on the cylinder and their exact calculus.

A field of rank m is a finite sum of terms

    C * r^p * e^{lam r} * trig(omega_k . x),      trig = cos or sin (the phase),

with one constant coefficient tensor C of shape (d+1,)*m per term; index 0 is
the radial direction, indices 1..d are the torus directions.  Derivatives,
traces, and symmetrizations act termwise and stay inside the class, so all
operator identities downstream are checked exactly (to round-off) instead of
to discretization error.  That is the point of this layer: the finite
difference oracle provides the independent route, this one the closed form.

A field is one term table sorted on the key (k, phase, p, lam), no key twice:
a (n, d+3) float block of keys (k_1..k_d, phase 0 cos / 1 sin, p, lam; the
integers are exact) and a (n, (d+1)^m) block of flattened coefficients.  An
operator that puts several terms on one key (a sum, a profile product, the
parts of a derivative) lists them in visit order, sorts stably and sums each
key's terms left to right, so every coefficient equals the term-by-term
chain's bit for bit, signed zeros included.  Arithmetic keeps zero terms;
``prune`` drops them.  Other modules read fields through ``terms()``,
``blocks()``, ``columns()`` and ``keys()``.

A field of several parts (modes, pairs, radial legs, constants) is built
with one ``FieldBuilder``: each appender lists one part's rows, and
``field()`` merges them all at once, with the bits of ``sum_fields`` of
the one-part fields.

Sign conventions (fixed once, used everywhere):
  divergence      (delta T)_i...  = - sum_a  d_a T_{a i ...}
  sym_grad        (S w)_{ij}      =   d_i w_j + d_j w_i
  rough_laplacian (L T)           = - sum_a  d_a d_a T          (nonneg. spectrum)
  Hessian         (H f)_{ij}      =   d_i d_j f
  linearized_ricci(h)             =   L h - S(delta h) - H(tr h)
"""

from __future__ import annotations

from bisect import bisect_right
from itertools import product
from typing import NamedTuple

import numpy as np

from .cross_section import Mode, TorusCrossSection
from .errors import InvalidInput
from .mode_ode import RadialProfile

__all__ = [
    "TensorField", "TermColumns", "FieldBuilder", "sum_fields", "constant_tensor_field",
    "from_mode_profile", "scalar_field", "pair_one_form", "radial_one_form", "mixed_pair_tensor",
    "rr_tensor", "metric_field", "tangential_metric", "gradient", "divergence", "sym_grad",
    "trace", "rough_laplacian", "linearized_ricci", "tube_integrand",
    "tube_inner_product",
]

# phase codes sort like the names; a tangential derivative takes code c to
# 1 - c with the sign 2 c - 1 (d cos = -sin, d sin = +cos)
_PHASES = ("cos", "sin")
_PHASE_CODE = {"cos": 0, "sin": 1}


class TensorField:
    """Finite modal sum of tensor terms, one sorted term table; see the
    module docstring.  Fields are values: nothing writes into a table."""

    __slots__ = ("cs", "rank", "_keys", "coeffs", "_runs", "_data")

    def __init__(self, cs: TorusCrossSection, rank: int, terms=()):
        """The sum of the ((freq, phase), (power, rate), C) terms; terms on
        one key add up in the order given.  Each (freq, phase) must name a
        mode (``TorusCrossSection.mode_key``)."""
        rank, d = int(rank), cs.dim
        keys, coeffs = [], []
        for (freq, phase), (p, lam), C in terms:
            freq, phase = cs.mode_key(freq, phase)
            C = np.asarray(C, dtype=float)
            if C.shape != (d + 1,) * rank:
                raise InvalidInput(f"term {(freq, phase)}, {(p, lam)} does not fit a rank-"
                                   f"{rank} field on a {d}-torus")
            keys.append((*freq, _PHASE_CODE[phase], int(p), float(lam) + 0.0))
            coeffs.append(C.ravel())
        self.cs, self.rank, self._runs = cs, rank, None
        self._keys, self.coeffs = _canonical(
            np.array(keys, dtype=float).reshape(len(keys), d + 3),
            np.array(coeffs, dtype=float).reshape(len(keys), (d + 1) ** rank))

    @classmethod
    def zero(cls, cs: TorusCrossSection, rank: int) -> "TensorField":
        return cls(cs, rank)

    def freeze(self) -> "TensorField":
        """Make the table read-only (memoized fields); returns the field."""
        self._keys.setflags(write=False)
        self.coeffs.setflags(write=False)
        return self

    # -- readers ------------------------------------------------------------

    @property
    def n_terms(self) -> int:
        return len(self._keys)

    def _key_runs(self):
        """The sorted (freq, phase) keys and the row where each starts, the
        row count appended, as tuples; built once."""
        if self._runs is None:
            keys, starts, last = [], [], None
            for i, head in enumerate(self._keys[:, :-2].astype(np.int64).tolist()):
                if head != last:
                    keys.append((tuple(head[:-1]), _PHASES[head[-1]]))
                    starts.append(i)
                    last = head
            self._runs = tuple(keys), (*starts, self.n_terms)
        return self._runs

    def keys(self) -> list:
        """The (freq, phase) keys that carry terms, sorted."""
        return list(self._key_runs()[0])

    def columns(self) -> "TermColumns":
        """The table by column (``TermColumns``); rates and coefficients
        are views of the table, as in ``blocks()``."""
        keys, starts = self._key_runs()
        return TermColumns(keys, starts, self._keys[:, -2].astype(np.int64), self._keys[:, -1],
                           self.coeffs.reshape((self.n_terms,) + (self.cs.dim + 1,) * self.rank))

    def blocks(self):
        """(key, powers, rates, coeffs) for each key in sorted order: its
        terms' powers (a list of ints), rates (a list of floats) and
        coefficients (an array of shape (n, (d+1,)*rank))."""
        keys, starts, powers, rates, coeffs = self.columns()
        powers, rates = powers.tolist(), rates.tolist()
        for key, lo, hi in zip(keys, starts, starts[1:]):
            yield key, powers[lo:hi], rates[lo:hi], coeffs[lo:hi]

    def terms(self):
        """(key, (power, rate), C) per term in table order, C a view."""
        shape = (self.cs.dim + 1,) * self.rank
        for key, ps, rs, coeffs in self.blocks():
            for pk, C in zip(zip(ps, rs), coeffs.reshape(len(ps), -1)):
                yield key, pk, C.reshape(shape)

    @property
    def data(self) -> dict:
        """{(freq, phase): {(power, rate): C}}, built on the first read; for
        callers outside the library, such as perfbench's term counts."""
        try:
            return self._data
        except AttributeError:
            self._data = {key: dict(zip(zip(ps, rs), coeffs))
                          for key, ps, rs, coeffs in self.blocks()}
            return self._data

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "TensorField") -> "TensorField":
        return sum_fields(self.cs, self.rank, (self, other))

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + other.scale(-1.0)

    def __neg__(self) -> "TensorField":
        return self.scale(-1.0)

    def scale(self, a: float) -> "TensorField":
        return _table(self.cs, self.rank, self._keys, a * self.coeffs)

    def multiply_profile(self, profile: RadialProfile) -> "TensorField":
        """Multiply every term by a radial profile (exact term products):
        term i times profile term j is row (i, j); powers and rates add."""
        d, m = self.cs.dim, len(profile.terms)
        shift = np.array([(0,) * (d + 1) + t[1:] + t[:1] for t in profile.terms],
                         dtype=float).reshape(m, d + 4)
        keys = (self._keys[:, None] + shift[:, :-1]).reshape(-1, d + 3)
        return _table(self.cs, self.rank, *_canonical(
            keys, (self.coeffs[:, None] * shift[:, -1:]).reshape(len(keys), self.coeffs.shape[1])))

    # -- queries ------------------------------------------------------------

    def max_abs_coeff(self) -> float:
        """The largest |C| entry, 0.0 for no terms; a term holding a NaN is
        skipped whole."""
        return float(np.fmax.reduce(np.abs(self.coeffs).max(axis=1), initial=0.0))

    def is_zero(self) -> bool:
        return self.max_abs_coeff() == 0.0

    def prune(self) -> "TensorField":
        """Drop every term whose largest |C| is not above 0.  Explicit only;
        arithmetic never prunes silently."""
        keep = np.abs(self.coeffs).max(axis=1) > 0.0
        return _table(self.cs, self.rank, self._keys[keep], self.coeffs[keep])

    def evaluate(self, r, xs, out=None) -> np.ndarray:
        """Sample on a product grid: r shape (nr,), xs shape (..., d).

        Returns shape (nr, ..., (d+1)^rank tensor axes): out, when given,
        a C-contiguous float64 array of that shape.

        The sum separates into two small tables over the M sorted keys: a
        trig table T[s, m] = trig_m(omega_m . x_s) over the points and a
        radial table R[r, m, c] = sum over the key's terms of
        r^p e^{lam r} C_c, one GEMM per key.  One batched GEMM T @ R
        writes the result.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xs = np.asarray(xs, dtype=float)
        d = self.cs.dim
        if xs.shape[-1] != d:
            raise InvalidInput("xs last axis must have length dim")
        space_shape = xs.shape[:-1]
        ncomp = (d + 1) ** self.rank
        shape = r.shape + space_shape + (d + 1,) * self.rank
        if out is not None and (out.shape != shape or out.dtype != np.float64
                                or not out.flags.c_contiguous):
            raise InvalidInput(f"out must be a C-contiguous float64 array of shape {shape}")
        keys, bounds = self._key_runs()
        heads = self._keys[list(bounds[:-1])]

        # trig table: one column per (freq, phase)
        trig = xs.reshape(-1, d) @ self.cs.omega(heads[:, :-3]).T
        is_cos = heads[:, -3] == 0
        trig[:, is_cos] = np.cos(trig[:, is_cos])
        trig[:, ~is_cos] = np.sin(trig[:, ~is_cos])

        # radial table: profile values times coefficients, summed per key
        rr = r.reshape(-1, 1)
        radial = np.empty((r.size, len(keys), ncomp))
        for m, (lo, hi) in enumerate(zip(bounds, bounds[1:])):
            powers, rates = self._keys[lo:hi, -2:].T
            radial[:, m] = (rr**powers * np.exp(rr * rates)) @ self.coeffs[lo:hi]

        if out is None:
            return (trig @ radial).reshape(shape)
        np.matmul(trig, radial, out=out.reshape(r.size, len(trig), ncomp))
        return out

    def __repr__(self):
        return f"TensorField(rank={self.rank}, modes={len(self.keys())}, terms={self.n_terms})"


class TermColumns(NamedTuple):
    """A field's term table by column (``TensorField.columns()``): the
    sorted (freq, phase) keys, the row where each starts (the row count
    appended), each term's power (int array) and rate (float array), and
    the coefficient block of shape (n, (d+1,)*rank)."""

    keys: tuple
    starts: tuple
    powers: np.ndarray
    rates: np.ndarray
    coefficients: np.ndarray

    def key_of(self, row: int):
        """The (freq, phase) key of a row."""
        return self.keys[bisect_right(self.starts, row) - 1]


def _table(cs, rank, keys, coeffs) -> TensorField:
    """The field on a table that is already sorted with unique keys."""
    out = object.__new__(TensorField)
    out.cs, out.rank, out._keys, out.coeffs, out._runs = cs, rank, keys, coeffs, None
    return out


def _canonical(keys, values, rows=None):
    """Sort the keys, listed in visit order, stably (first column first)
    and sum each run's rows of values left to right; key i goes with
    values[rows[i]] (values[i] by default).  Returns the run keys and sums.
    Up to 16 keys the sort runs in Python, cheaper than numpy calls there;
    both ways give the same bits."""
    if len(keys) <= 16:
        values = values if rows is None else values.take(rows, axis=0)
        if len(keys) < 2:
            return keys, values
        table = keys.tolist()
        order = sorted(range(len(table)), key=table.__getitem__)
        first, later = order[:1], []
        for i in order[1:]:
            if table[i] == table[first[-1]]:
                later.append((len(first) - 1, i))
            else:
                first.append(i)
        sums = values.take(first, axis=0)
        for run, i in later:
            sums[run] += values[i]
        return keys.take(first, axis=0), sums
    rows = np.arange(len(keys)) if rows is None else rows
    # integer columns sort by radix as int16 where they fit, several times faster
    ints = keys[:, :-1]
    narrow = ints.astype(np.int16)
    order = np.lexsort((keys[:, -1], *(narrow if (narrow == ints).all() else ints).T[::-1]))
    keys, rows = keys[order], rows[order]
    new = np.empty(len(order), dtype=bool)
    new[0] = True
    (keys[1:] != keys[:-1]).any(axis=1, out=new[1:])
    starts = new.nonzero()[0]
    sums = values[rows[starts]]
    counts = np.diff(starts, append=len(order))
    for depth in range(1, counts.max()):  # every run's next row, one depth at a time
        live = (counts > depth).nonzero()[0]
        sums[live] += values[rows[starts[live] + depth]]
    return keys[starts], sums


def sum_fields(cs: TorusCrossSection, rank: int, fields) -> TensorField:
    """The sum of the fields in one pass.  Each coefficient is summed left
    to right, so it equals the one of the chain f_1 + f_2 + ... bit for
    bit, without building every partial sum."""
    parts = []
    for fld in fields:
        if fld.rank != rank or fld.cs is not cs and fld.cs != cs:
            raise InvalidInput("can only add fields of equal rank on the same cross section")
        if fld.n_terms:
            parts.append(fld)
    if not parts:
        return TensorField(cs, rank)
    return _table(cs, rank, *_canonical(np.concatenate([f._keys for f in parts]),
                                        np.concatenate([f.coeffs for f in parts])))


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


class FieldBuilder:
    """One field of rank ``rank`` built from parts, merged once.

    Each appender lists the rows of one part, one per term of its profile:
    the key (freq, phase, p, lam) and the coefficient c C of the part's
    tensor C.  ``field()`` merges every row with one sort: a key's rows add
    left to right in the order the parts were appended, so the field equals
    ``sum_fields`` of the one-part fields bit for bit, signed zeros
    included.  Every key comes from a ``Mode`` or is frequency zero, so no
    key is checked again.  The appenders return the builder.
    """

    __slots__ = ("cs", "rank", "_rows", "_tensors")

    def __init__(self, cs: TorusCrossSection, rank: int):
        self.cs, self.rank = cs, int(rank)
        self._rows, self._tensors = [], []  # (freq, phase, p, lam, c) flat; C per row

    def _part(self, freq, code: int, profile: RadialProfile, C) -> "FieldBuilder":
        for c, p, lam in profile.terms:
            self._rows.extend((*freq, code, p, lam, c))
            self._tensors.append(C)
        return self

    def mode(self, mode: Mode, profile: RadialProfile) -> "FieldBuilder":
        """profile(r) * mode, the mode's tensor indices placed tangentially."""
        if mode.rank != self.rank:
            raise InvalidInput(f"a rank-{mode.rank} mode is no part of a rank-{self.rank} field")
        pol = mode.polarization
        C = _embed_tangential(self.cs, pol) if mode.rank else float(pol)
        return self._part(mode.freq, _PHASE_CODE[mode.phase], profile, C)

    def radial(self, mode: Mode, profile: RadialProfile) -> "FieldBuilder":
        """profile(r) * phi * dr (x) ... (x) dr for a scalar mode phi: the
        radial slot in every index."""
        if mode.rank != 0:
            raise InvalidInput("a radial part needs a scalar mode")
        C = np.zeros((self.cs.dim + 1,) * self.rank)
        C[(0,) * self.rank] = float(mode.polarization)
        return self._part(mode.freq, _PHASE_CODE[mode.phase], profile, C)

    def pair(self, mode: Mode, k_prof: RadialProfile, l_prof: RadialProfile) -> "FieldBuilder":
        """k(r) * d_N phi + l(r) * phi * dr for a scalar mode phi.

        The tangential-gradient leg flips the trig branch, so the k part
        lives on the opposite phase of the mode; at freq 0 the gradient
        vanishes and only the radial leg is listed."""
        if self.rank != 1:
            raise InvalidInput("a pair part needs a one-form field")
        self.radial(mode, l_prof)
        omega = np.asarray(mode.omega)
        if np.any(omega != 0.0):
            code = _PHASE_CODE[mode.phase]
            C = np.zeros(self.cs.dim + 1)
            C[1:] = (2.0 * code - 1.0) * omega * float(mode.polarization)
            self._part(mode.freq, 1 - code, k_prof, C)
        return self

    def mixed(self, mode: Mode, profile: RadialProfile) -> "FieldBuilder":
        """profile(r) * (eta (x) dr + dr (x) eta) for a 1-form mode eta."""
        if mode.rank != 1 or self.rank != 2:
            raise InvalidInput("a mixed part needs a 1-form mode and a rank-2 field")
        C = np.zeros((self.cs.dim + 1,) * 2)
        C[0, 1:] = C[1:, 0] = mode.polarization
        return self._part(mode.freq, _PHASE_CODE[mode.phase], profile, C)

    def constant(self, tensor, profile: RadialProfile) -> "FieldBuilder":
        """profile(r) * tensor at frequency zero."""
        C = np.asarray(tensor, dtype=float)
        if C.shape != (self.cs.dim + 1,) * self.rank:
            raise InvalidInput(f"a constant part of a rank-{self.rank} field needs shape "
                               f"{(self.cs.dim + 1,) * self.rank}, got {C.shape}")
        return self._part((0,) * self.cs.dim, 0, profile, C)

    def field(self) -> TensorField:
        n, d = len(self._tensors), self.cs.dim
        rows = np.array(self._rows, dtype=float).reshape(n, d + 4)
        tensors = np.array(self._tensors, dtype=float).reshape(n, (d + 1) ** self.rank)
        coeffs = rows[:, -1:] * tensors
        return _table(self.cs, self.rank, *_canonical(rows[:, :-1], coeffs))


def constant_tensor_field(cs: TorusCrossSection, tensor) -> TensorField:
    """r- and x-independent field with the given (d+1)-index coefficients."""
    tensor = np.array(tensor, dtype=float)
    return _table(cs, tensor.ndim, np.zeros((1, cs.dim + 3)), tensor.reshape(1, -1))


def metric_field(cs: TorusCrossSection) -> TensorField:
    """The product metric dr^2 + flat torus metric, as a rank-2 field."""
    return constant_tensor_field(cs, np.eye(cs.dim + 1))


def tangential_metric(cs: TorusCrossSection) -> TensorField:
    """The flat torus metric g_N, zero in the radial slot, as a rank-2 field."""
    g = np.eye(cs.dim + 1)
    g[0, 0] = 0.0
    return constant_tensor_field(cs, g)


def _embed_tangential(cs: TorusCrossSection, pol: np.ndarray) -> np.ndarray:
    """Pad a cross-section tensor with a zero radial slot in every index."""
    d = cs.dim
    out = np.zeros((d + 1,) * pol.ndim)
    out[(slice(1, d + 1),) * pol.ndim] = pol
    return out


def from_mode_profile(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * mode, with the mode's tensor indices placed tangentially.

    Covers scalar modes (rank 0), coclosed / harmonic 1-forms and TT or
    pure-trace tensors; radial legs are built with the dedicated helpers.
    """
    return FieldBuilder(cs, mode.rank).mode(mode, profile).field()


def scalar_field(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    if mode.rank != 0:
        raise InvalidInput("scalar_field needs a scalar mode")
    return FieldBuilder(cs, 0).mode(mode, profile).field()


def radial_one_form(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * phi * dr for a scalar mode phi."""
    if mode.rank != 0:
        raise InvalidInput("radial_one_form needs a scalar mode")
    return FieldBuilder(cs, 1).radial(mode, profile).field()


def pair_one_form(
    cs: TorusCrossSection, mode: Mode, k_prof: RadialProfile, l_prof: RadialProfile
) -> TensorField:
    """k(r) * d_N phi + l(r) * phi * dr for a scalar mode phi
    (``FieldBuilder.pair``)."""
    if mode.rank != 0:
        raise InvalidInput("pair_one_form needs a scalar mode")
    return FieldBuilder(cs, 1).pair(mode, k_prof, l_prof).field()


def mixed_pair_tensor(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * (eta (x) dr + dr (x) eta) for a 1-form mode eta."""
    if mode.rank != 1:
        raise InvalidInput("mixed_pair_tensor needs a 1-form mode")
    return FieldBuilder(cs, 2).mixed(mode, profile).field()


def rr_tensor(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * phi * dr (x) dr for a scalar mode phi."""
    if mode.rank != 0:
        raise InvalidInput("rr_tensor needs a scalar mode")
    return FieldBuilder(cs, 2).radial(mode, profile).field()


# ---------------------------------------------------------------------------
# exact differential operators
# ---------------------------------------------------------------------------


def _gradient_rows(field: TensorField):
    """The gradient's table: keys and rows, summed per key.

    Each term (p, lam) gives up to three parts, in this order: lam C at
    (p, lam) and p C at (p - 1, lam) in the radial slot, and sign omega_j C
    at (p, lam) on the flipped phase in slot j (0 where omega_j is 0); a
    part whose factor is 0 (lam, p or omega) is not listed.
    """
    n, d = field.n_terms, field.cs.dim
    C, K = field.coeffs, field._keys
    omega = field.cs.omega(K[:, :-3])
    G = np.zeros((n, 3, d + 1, C.shape[1]))
    np.multiply(K[:, -1:], C, out=G[:, 0, 0])
    np.multiply(K[:, -2:-1], C, out=G[:, 1, 0])
    np.multiply(((2.0 * K[:, -3:-2] - 1.0) * omega)[:, :, None], C[:, None, :], out=G[:, 2, 1:])
    G[:, 2, 1:][omega == 0.0] = 0.0
    live = np.empty((n, 3), dtype=bool)
    live[:, 0] = K[:, -1] != 0.0
    live[:, 1] = K[:, -2] > 0.0
    (omega != 0.0).any(axis=1, out=live[:, 2])
    keys = K.repeat(3, axis=0).reshape(n, 3, d + 3)
    keys[:, 1, -2] -= 1.0
    keys[:, 2, -3] = 1.0 - keys[:, 2, -3]
    live = live.ravel()
    return _canonical(keys.reshape(3 * n, d + 3)[live],
                      G.reshape(3 * n, G.shape[2] * G.shape[3]), live.nonzero()[0])


def gradient(field: TensorField) -> TensorField:
    """Coordinate gradient; the new index comes first (slot 0 radial)."""
    return _table(field.cs, field.rank + 1, *_gradient_rows(field))


def _termwise(field: TensorField, rank: int, coeffs) -> TensorField:
    """The field with the same keys and new coefficient rows."""
    return _table(field.cs, rank, field._keys,
                  coeffs.reshape(field.n_terms, (field.cs.dim + 1) ** rank))


def divergence(field: TensorField) -> TensorField:
    """(delta T)_{i...} = - sum_a d_a T_{a i ...}: minus the trace of the
    gradient over its new index and the field's first one."""
    if field.rank < 1:
        raise InvalidInput("divergence needs rank >= 1")
    keys, rows = _gradient_rows(field)
    d1 = field.cs.dim + 1
    C = rows.reshape(len(keys), d1, d1, d1 ** (field.rank - 1))
    return _table(field.cs, field.rank - 1, keys, -C.trace(axis1=1, axis2=2))


def sym_grad(one_form: TensorField) -> TensorField:
    """(S w)_{ij} = d_i w_j + d_j w_i; equals the Lie derivative of the
    product metric along the dual vector field, since the metric
    coefficients are constant."""
    if one_form.rank != 1:
        raise InvalidInput("sym_grad needs a 1-form")
    g = gradient(one_form)
    d1 = g.cs.dim + 1
    C = g.coeffs.reshape(g.n_terms, d1, d1)
    return _termwise(g, 2, C + C.transpose(0, 2, 1))


def trace(field: TensorField) -> TensorField:
    if field.rank != 2:
        raise InvalidInput("trace needs rank 2")
    d1 = field.cs.dim + 1
    C = field.coeffs.reshape(field.n_terms, d1, d1)
    return _termwise(field, 0, C.trace(axis1=1, axis2=2))


def rough_laplacian(field: TensorField) -> TensorField:
    """Nonnegative rough Laplacian - sum_a d_a d_a, any rank."""
    return divergence(gradient(field))


def linearized_ricci(h: TensorField) -> TensorField:
    """Variation of the Ricci tensor at the product metric: half of the
    rough Laplacian minus the gauge and trace corrections.  Normalized so
    that Ric(g0 + eps h) = eps * linearized_ricci(h) + O(eps^2); the FD
    oracle checks exactly that expansion."""
    if h.rank != 2:
        raise InvalidInput("linearized_ricci needs a rank-2 field")
    cs, d1 = h.cs, h.cs.dim + 1
    # a gradient's keys follow from the keys alone and each of its columns
    # sums on its own, so h and tr h take one gradient, div h and d(tr h)
    # take one, and the rough Laplacian, S(div h) and H(tr h) share one
    # table: (lap - sym) - hess runs row by row, with the bits of the sums
    keys, rows = _gradient_rows(_table(cs, 2, h._keys, np.hstack([h.coeffs, trace(h).coeffs])))
    rows = rows.reshape(len(keys), d1, d1 * d1 + 1)
    g = _table(cs, 3, keys, rows[:, :, :-1].reshape(len(keys), d1 ** 3))
    div_h = -g.coeffs.reshape(len(keys), d1, d1, d1).trace(axis1=1, axis2=2)
    lap = divergence(g)
    keys, rows = _gradient_rows(_table(cs, 1, keys, np.hstack([div_h, rows[:, :, -1]])))
    rows = rows.reshape(len(keys), d1, 2, d1)
    sym, hess = rows[:, :, 0] + rows[:, :, 0].transpose(0, 2, 1), rows[:, :, 1]
    return _termwise(lap, 2, 0.5 * ((lap.coeffs - sym.reshape(lap.coeffs.shape))
                                    - hess.reshape(lap.coeffs.shape)))


# ---------------------------------------------------------------------------
# inner products and projections
# ---------------------------------------------------------------------------


def _trig_factor(cs: TorusCrossSection, freq) -> float:
    return cs.volume if not any(freq) else cs.volume / 2.0


def tube_integrand(a: TensorField, b: TensorField) -> RadialProfile:
    """The cross-section inner product r -> <a(r, .), b(r, .)>_{L2(N)}.

    Fourier orthogonality pairs only equal (freq, phase) keys.  On each
    shared key one (n_a x n_b) GEMM gives the coefficient dots, and entry
    (i, j) lands on r^{p_i + p_j} e^{(lam_i + lam_j) r}.  The dots are
    summed per (power, rate) in visit order (key order, row-major within a
    key), as the profile's constructor would sum them, so the coefficients
    do not depend on the per-process hash seed and the constructor checks
    one term per distinct (power, rate).
    """
    if a.rank != b.rank:
        raise InvalidInput("tube inner product needs equal ranks")
    keys_b, bounds_b = b._key_runs()
    rows_b = dict(zip(keys_b, zip(bounds_b, bounds_b[1:])))
    keys_a, bounds_a = (keys_b, bounds_b) if a is b else a._key_runs()
    pk_a = a._keys[:, -2:].tolist()
    pk_b = pk_a if a is b else b._keys[:, -2:].tolist()
    sums = {}
    for key, lo, hi in zip(keys_a, bounds_a, bounds_a[1:]):
        if key in rows_b:
            lo_b, hi_b = rows_b[key]
            dots = _trig_factor(a.cs, key[0]) * (a.coeffs[lo:hi] @ b.coeffs[lo_b:hi_b].T)
            for c, ((pa, la), (pb, lb)) in zip(dots.ravel().tolist(),
                                               product(pk_a[lo:hi], pk_b[lo_b:hi_b])):
                pk = (pa + pb, la + lb)
                sums[pk] = sums[pk] + c if pk in sums else c
    return RadialProfile([(c, p, lam) for (p, lam), c in sums.items()])


def tube_inner_product(a: TensorField, b: TensorField, r_lo: float, r_hi: float) -> float:
    """Exact integral of <a, b> over the tube (r_lo, r_hi) x N; r_hi may be
    math.inf if the integrand decays."""
    return tube_integrand(a, b).definite_integral(r_lo, r_hi)
