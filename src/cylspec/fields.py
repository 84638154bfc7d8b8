"""Separated tensor fields on the cylinder and their exact calculus.

A field of rank m is stored as a finite sum

    sum over (k, phase)  sum over (p, lam)   C * r^p * e^{lam r} * trig(omega . x)

with one constant coefficient tensor C of shape (d+1,)*m per term; index 0 is
the radial direction, indices 1..d are the torus directions.  Derivatives,
traces, and symmetrizations act termwise and stay inside the class, so all
operator identities downstream are checked exactly (to round-off) instead of
to discretization error.  That is the point of this layer: the finite
difference oracle provides the independent route, this one the closed form.

Sign conventions (fixed once, used everywhere):
  divergence      (delta T)_i...  = - sum_a  d_a T_{a i ...}
  sym_grad        (S w)_{ij}      =   d_i w_j + d_j w_i
  rough_laplacian (L T)           = - sum_a  d_a d_a T          (nonneg. spectrum)
  hessian         (H f)_{ij}      =   d_i d_j f
  linearized_ricci(h)             =   L h - S(delta h) - H(tr h)
"""

from __future__ import annotations

import numpy as np

from .cross_section import Mode, TorusCrossSection
from .errors import InvalidInput
from .mode_ode import RadialProfile

__all__ = [
    "TensorField",
    "sum_fields",
    "constant_tensor_field",
    "from_mode_profile",
    "scalar_field",
    "pair_one_form",
    "radial_one_form",
    "mixed_pair_tensor",
    "rr_tensor",
    "metric_field",
    "tangential_metric",
    "gradient",
    "divergence",
    "sym_grad",
    "trace",
    "hessian",
    "rough_laplacian",
    "linearized_ricci",
    "tube_integrand",
    "tube_inner_product",
    "project_onto_mode",
]

# tangential derivative flips the trig branch; the sign rides along
_D_TRIG = {"cos": ("sin", -1.0), "sin": ("cos", +1.0)}


class TensorField:
    """Finite modal sum of tensor terms; see the module docstring.

    ``data`` maps (freq, phase) to a dict mapping (power, rate) to the
    coefficient tensor.  Mutating helpers are private; the public surface
    treats fields as values.
    """

    __slots__ = ("cs", "rank", "data")

    def __init__(self, cs: TorusCrossSection, rank: int, data=None):
        self.cs = cs
        self.rank = int(rank)
        self.data = data if data is not None else {}

    # -- construction helpers ----------------------------------------------

    @classmethod
    def zero(cls, cs: TorusCrossSection, rank: int) -> "TensorField":
        return cls(cs, rank)

    def _shape(self):
        return (self.cs.dim + 1,) * self.rank

    def _accumulate(self, mode_key, prof_key, coeff):
        p, lam = prof_key
        prof_key = (int(p), float(lam) + 0.0)
        per_mode = self.data.setdefault(mode_key, {})
        if prof_key in per_mode:
            per_mode[prof_key] = per_mode[prof_key] + coeff
        else:
            per_mode[prof_key] = np.array(coeff, dtype=float)

    def terms(self):
        for mode_key in sorted(self.data):
            for prof_key in sorted(self.data[mode_key]):
                yield mode_key, prof_key, self.data[mode_key][prof_key]

    # -- algebra ------------------------------------------------------------

    def __add__(self, other: "TensorField") -> "TensorField":
        return sum_fields(self.cs, self.rank, (self, other))

    def __sub__(self, other: "TensorField") -> "TensorField":
        return self + other.scale(-1.0)

    def __neg__(self) -> "TensorField":
        return self.scale(-1.0)

    def scale(self, a: float) -> "TensorField":
        out = TensorField(self.cs, self.rank)
        for mode_key, prof_key, C in self.terms():
            out._accumulate(mode_key, prof_key, a * C)
        return out

    def multiply_profile(self, profile: RadialProfile) -> "TensorField":
        """Multiply every term by a radial profile (exact term products)."""
        out = TensorField(self.cs, self.rank)
        for mode_key, (p, lam), C in self.terms():
            for c2, p2, lam2 in profile.terms:
                out._accumulate(mode_key, (p + p2, lam + lam2), c2 * C)
        return out

    # -- queries ------------------------------------------------------------

    def max_abs_coeff(self) -> float:
        out = 0.0
        for _, _, C in self.terms():
            if C.size:
                out = max(out, float(np.max(np.abs(C))))
        return out

    def is_zero(self) -> bool:
        return self.max_abs_coeff() == 0.0

    def prune(self) -> "TensorField":
        """Drop every term whose largest |C| is not above 0.  Explicit only;
        arithmetic never prunes silently."""
        out = TensorField(self.cs, self.rank)
        for mode_key, prof_key, C in self.terms():
            if np.max(np.abs(C)) > 0.0:
                out._accumulate(mode_key, prof_key, C)
        return out

    def evaluate(self, r, xs, out=None) -> np.ndarray:
        """Sample on a product grid: r shape (nr,), xs shape (..., d).

        Returns shape (nr, ..., (d+1)^rank tensor axes): out, when given,
        a C-contiguous float64 array of that shape.

        The sum separates into two small tables over the M sorted modes: a
        trig table T[s, m] = trig_m(omega_m . x_s) over the points and a
        radial table R[r, m, c] = sum over the mode's profile terms of
        r^p e^{lam r} C_c.  One batched GEMM T @ R writes the result.
        """
        r = np.atleast_1d(np.asarray(r, dtype=float))
        xs = np.asarray(xs, dtype=float)
        d = self.cs.dim
        if xs.shape[-1] != d:
            raise InvalidInput("xs last axis must have length dim")
        space_shape = xs.shape[:-1]
        ncomp = (d + 1) ** self.rank
        shape = r.shape + space_shape + self._shape()
        if out is not None and (out.shape != shape or out.dtype != np.float64
                                or not out.flags.c_contiguous):
            raise InvalidInput(f"out must be a C-contiguous float64 array of shape {shape}")
        keys = sorted(self.data)

        # trig table: one column per (freq, phase)
        omegas = np.array([self.cs.omega(freq) for freq, _ in keys]).reshape(-1, d)
        trig = xs.reshape(-1, d) @ omegas.T
        is_cos = np.array([phase == "cos" for _, phase in keys], dtype=bool)
        trig[:, is_cos] = np.cos(trig[:, is_cos])
        trig[:, ~is_cos] = np.sin(trig[:, ~is_cos])

        # radial table: profile values times coefficients, summed per mode
        rr = r.reshape(-1, 1)
        radial = np.empty((r.size, len(keys), ncomp))
        for m, key in enumerate(keys):
            powers, rates, coeffs = _term_table(self.data[key])
            radial[:, m] = (rr**powers * np.exp(rr * rates)) @ coeffs

        if out is None:
            return (trig @ radial).reshape(shape)
        np.matmul(trig, radial, out=out.reshape(r.size, len(trig), ncomp))
        return out

    def __repr__(self):
        nmodes = len(self.data)
        nterms = sum(len(v) for v in self.data.values())
        return f"TensorField(rank={self.rank}, modes={nmodes}, terms={nterms})"


def sum_fields(cs: TorusCrossSection, rank: int, fields) -> TensorField:
    """The sum of the fields in one pass.  Each coefficient is summed left
    to right, so it equals the one of the chain f_1 + f_2 + ... bit for
    bit, without copying every partial sum."""
    out = TensorField(cs, rank)
    for fld in fields:
        if fld.rank != rank or fld.cs is not cs and fld.cs != cs:
            raise InvalidInput("can only add fields of equal rank on the same cross section")
        for mode_key, prof_key, C in fld.terms():
            out._accumulate(mode_key, prof_key, C)
    return out


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------


def constant_tensor_field(cs: TorusCrossSection, tensor) -> TensorField:
    """r- and x-independent field with the given (d+1)-index coefficients."""
    tensor = np.asarray(tensor, dtype=float)
    out = TensorField(cs, tensor.ndim)
    key = (tuple([0] * cs.dim), "cos")
    out._accumulate(key, (0, 0.0), tensor)
    return out


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
    C0 = _embed_tangential(cs, mode.polarization) if mode.rank else np.array(
        float(mode.polarization)
    )
    out = TensorField(cs, C0.ndim)
    for c, p, lam in profile.terms:
        out._accumulate((mode.freq, mode.phase), (p, lam), c * C0)
    return out


def scalar_field(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    if mode.rank != 0:
        raise InvalidInput("scalar_field needs a scalar mode")
    return from_mode_profile(cs, mode, profile)


def radial_one_form(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * phi * dr for a scalar mode phi."""
    if mode.rank != 0:
        raise InvalidInput("radial_one_form needs a scalar mode")
    d = cs.dim
    out = TensorField(cs, 1)
    C = np.zeros(d + 1)
    C[0] = float(mode.polarization)
    for c, p, lam in profile.terms:
        out._accumulate((mode.freq, mode.phase), (p, lam), c * C)
    return out


def pair_one_form(
    cs: TorusCrossSection, mode: Mode, k_prof: RadialProfile, l_prof: RadialProfile
) -> TensorField:
    """k(r) * d_N phi + l(r) * phi * dr for a scalar mode phi.

    The tangential-gradient leg flips the trig branch, so the k part lives on
    the opposite phase of the mode; at freq 0 the gradient vanishes and only
    the radial leg survives.
    """
    if mode.rank != 0:
        raise InvalidInput("pair_one_form needs a scalar mode")
    out = radial_one_form(cs, mode, l_prof)
    omega = np.asarray(mode.omega)
    if np.any(omega != 0.0):
        flip, sign = _D_TRIG[mode.phase]
        amp = float(mode.polarization)
        C = np.zeros(cs.dim + 1)
        C[1:] = sign * omega * amp
        for c, p, lam in k_prof.terms:
            out._accumulate((mode.freq, flip), (p, lam), c * C)
    return out


def mixed_pair_tensor(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * (eta (x) dr + dr (x) eta) for a 1-form mode eta."""
    if mode.rank != 1:
        raise InvalidInput("mixed_pair_tensor needs a 1-form mode")
    d = cs.dim
    C = np.zeros((d + 1, d + 1))
    C[0, 1:] = mode.polarization
    C[1:, 0] = mode.polarization
    out = TensorField(cs, 2)
    for c, p, lam in profile.terms:
        out._accumulate((mode.freq, mode.phase), (p, lam), c * C)
    return out


def rr_tensor(cs: TorusCrossSection, mode: Mode, profile: RadialProfile) -> TensorField:
    """profile(r) * phi * dr (x) dr for a scalar mode phi."""
    if mode.rank != 0:
        raise InvalidInput("rr_tensor needs a scalar mode")
    d = cs.dim
    C = np.zeros((d + 1, d + 1))
    C[0, 0] = float(mode.polarization)
    out = TensorField(cs, 2)
    for c, p, lam in profile.terms:
        out._accumulate((mode.freq, mode.phase), (p, lam), c * C)
    return out


# ---------------------------------------------------------------------------
# exact differential operators
# ---------------------------------------------------------------------------


def gradient(field: TensorField) -> TensorField:
    """Coordinate gradient; the new index comes first (slot 0 radial)."""
    cs = field.cs
    out = TensorField(cs, field.rank + 1)
    shape = (cs.dim + 1,) * (field.rank + 1)
    for (freq, phase), (p, lam), C in field.terms():
        # radial derivative: lam * C at (p, lam) plus p * C at (p-1, lam)
        if lam != 0.0:
            G = np.zeros(shape)
            G[0] = lam * C
            out._accumulate((freq, phase), (p, lam), G)
        if p > 0:
            G = np.zeros(shape)
            G[0] = p * C
            out._accumulate((freq, phase), (p - 1, lam), G)
        # tangential derivatives flip the trig branch
        omega = field.cs.omega(freq)
        if np.any(omega != 0.0):
            flip, sign = _D_TRIG[phase]
            G = np.zeros(shape)
            for j in range(cs.dim):
                if omega[j] != 0.0:
                    G[j + 1] = sign * omega[j] * C
            out._accumulate((freq, flip), (p, lam), G)
    return out


def divergence(field: TensorField) -> TensorField:
    """(delta T)_{i...} = - sum_a d_a T_{a i ...} (first index contracted)."""
    if field.rank < 1:
        raise InvalidInput("divergence needs rank >= 1")
    g = gradient(field)
    out = TensorField(field.cs, field.rank - 1)
    for mode_key, prof_key, C in g.terms():
        out._accumulate(mode_key, prof_key, -np.trace(C, axis1=0, axis2=1))
    return out


def sym_grad(one_form: TensorField) -> TensorField:
    """(S w)_{ij} = d_i w_j + d_j w_i; equals the Lie derivative of the
    product metric along the dual vector field, since the metric
    coefficients are constant."""
    if one_form.rank != 1:
        raise InvalidInput("sym_grad needs a 1-form")
    g = gradient(one_form)
    out = TensorField(one_form.cs, 2)
    for mode_key, prof_key, C in g.terms():
        out._accumulate(mode_key, prof_key, C + C.T)
    return out


def trace(field: TensorField) -> TensorField:
    if field.rank != 2:
        raise InvalidInput("trace needs rank 2")
    out = TensorField(field.cs, 0)
    for mode_key, prof_key, C in field.terms():
        out._accumulate(mode_key, prof_key, np.trace(C))
    return out


def hessian(f: TensorField) -> TensorField:
    if f.rank != 0:
        raise InvalidInput("hessian needs a scalar field")
    return gradient(gradient(f))


def rough_laplacian(field: TensorField) -> TensorField:
    """Nonnegative rough Laplacian - sum_a d_a d_a, any rank."""
    g2 = gradient(gradient(field))
    out = TensorField(field.cs, field.rank)
    for mode_key, prof_key, C in g2.terms():
        out._accumulate(mode_key, prof_key, -np.trace(C, axis1=0, axis2=1))
    return out


def linearized_ricci(h: TensorField) -> TensorField:
    """Variation of the Ricci tensor at the product metric: half of the
    rough Laplacian minus the gauge and trace corrections.  Normalized so
    that Ric(g0 + eps h) = eps * linearized_ricci(h) + O(eps^2); the FD
    oracle checks exactly that expansion."""
    if h.rank != 2:
        raise InvalidInput("linearized_ricci needs a rank-2 field")
    full = rough_laplacian(h) - sym_grad(divergence(h)) - hessian(trace(h))
    return full.scale(0.5)


# ---------------------------------------------------------------------------
# inner products and projections
# ---------------------------------------------------------------------------


def _trig_factor(cs: TorusCrossSection, freq) -> float:
    return cs.volume if not any(freq) else cs.volume / 2.0


def _term_table(profiles):
    """One mode's (power, rate) -> C entries as sorted arrays: powers (n,),
    rates (n,) and the flattened coefficients (n, (d+1)^rank)."""
    items = sorted(profiles.items())
    powers = np.array([p for (p, _), _ in items])
    rates = np.array([lam for (_, lam), _ in items])
    coeffs = np.array([np.ravel(C) for _, C in items])
    return powers, rates, coeffs


def tube_integrand(a: TensorField, b: TensorField) -> RadialProfile:
    """The cross-section inner product r -> <a(r, .), b(r, .)>_{L2(N)}.

    Fourier orthogonality pairs only equal (freq, phase) keys.  On each
    shared key one (n_a x n_b) table holds the coefficient dots, and entry
    (i, j) lands on r^{p_i + p_j} e^{(lam_i + lam_j) r}; all keys merge into
    one profile.  Keys and terms are visited in sorted order, so the merged
    coefficients do not depend on the per-process hash seed.  For a tube
    norm (a is b) each key's table is built once.
    """
    if a.rank != b.rank:
        raise InvalidInput("tube inner product needs equal ranks")
    terms = []
    for mode_key in sorted(a.data.keys() & b.data.keys()):
        pa, la, ca = _term_table(a.data[mode_key])
        pb, lb, cb = (pa, la, ca) if a is b else _term_table(b.data[mode_key])
        dots = _trig_factor(a.cs, mode_key[0]) * (ca @ cb.T)
        powers = pa[:, None] + pb[None, :]
        rates = la[:, None] + lb[None, :]
        terms.extend(zip(dots.ravel().tolist(), powers.ravel().tolist(),
                         rates.ravel().tolist()))
    return RadialProfile(terms)


def tube_inner_product(a: TensorField, b: TensorField, r_lo: float, r_hi: float) -> float:
    """Exact integral of <a, b> over the tube (r_lo, r_hi) x N; r_hi may be
    math.inf if the integrand decays."""
    return tube_integrand(a, b).definite_integral(r_lo, r_hi)


def project_onto_mode(field: TensorField, mode: Mode) -> RadialProfile:
    """Radial profile of the field along one normalized cross-section mode.

    Returns r -> <field(r, .), mode>_{L2(N)}; for a field built as
    profile * mode this recovers the profile exactly.  The mode's tensor
    indices are taken tangentially (matching from_mode_profile).
    """
    if field.rank != mode.rank:
        raise InvalidInput("projection needs matching ranks")
    pol = (
        _embed_tangential(field.cs, mode.polarization)
        if mode.rank
        else np.array(float(mode.polarization))
    )
    factor = _trig_factor(field.cs, mode.freq)
    terms = []
    for (p, lam), C in field.data.get((mode.freq, mode.phase), {}).items():
        coeff = float(np.sum(C * pol)) * factor
        terms.append((coeff, p, lam))
    return RadialProfile(tuple(terms))
