"""Kernel analysis for the linearized Ricci operator on the cylinder.

The pipeline: split off the affine part of a harmonic trace, absorb the
oscillating trace into a gauge field with an explicit closed-form Lie
derivative, enumerate the kernel basis of the reduced per-mode systems,
and classify a given kernel element into its unique coefficient set
(pure trace, parallel and exponential TT parts, gauge content).

Structure of the kernel over a flat torus cross section, per positive
scalar eigenvalue mu with s = sqrt(mu):

* four gauge directions L_X g0 from the homogeneous mixed-pair system
  (``mode_ode.pair_columns``: e^{+-s r} times an eigenvector, and times its
  Jordan partner plus r times the eigenvector),
* two gauge directions L_{e^{+-s r} eta} g0 per coclosed 1-form mode,
* two transverse-traceless directions e^{+-s r} B per TT mode,

and in the frequency-zero sector: the affine pure trace (a + a~ r) g_N,
affine parallel TT blocks, and, only at tau = 0, the radially parallel
gauge tensors eta (x) dr + dr (x) eta and dr (x) dr.  The tau term
removes exactly those last two families, which is the point of the
perturbation.

The columns of each frequency are built once per cross section: one
frozen kernel block per (cross section, frequency), memoized, holds the
basis elements and, from the first ``classify_kernel`` that reads them
on, their sorted (phase, power, rate) keys, the stacked coefficient
matrix and, at a positive frequency, its condition number.  Only the
frequency-zero block is also keyed on tau.  Every coefficient
array in a block is read-only, the columns' fields and generators
included; field algebra on them returns new, writeable arrays.

Indices in basis metadata and decompositions follow the mode lookups of
``cross_section``: coclosed and harmonic legs index ``modes_at`` slices
(tangent-complement position, coordinate axis), TT modes index
``build_spectrum(cs, "TTTensor").at(freq, phase)``, the spectrum's order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field as dc_field

import numpy as np

from . import fields as fields_mod
from .cross_section import TorusCrossSection, build_spectrum, modes_at
from .divergence_solver import (
    GaugeField,
    check_resonance,
    lie_derivative_metric,
    modified_divergence,
)
from .errors import InvalidInput, NotInKernel
from .fields import TensorField, linearized_ricci, tangential_metric
from .mode_ode import RadialProfile, pair_columns

__all__ = [
    "KernelBasisElement",
    "KernelDecomposition",
    "linearized_ricci",
    "trace_absorption_field",
    "solve_reduced_system",
    "classify_kernel",
    "parallel_space_dimension",
]

KERNEL_TOL = 1e-8


# ---------------------------------------------------------------------------
# trace absorption
# ---------------------------------------------------------------------------


def trace_absorption_field(cs: TorusCrossSection, coefficients: dict) -> GaugeField:
    """Gauge field X whose Lie derivative absorbs an oscillating trace.

    ``coefficients`` maps (freq, phase) of a positive-eigenvalue scalar
    mode phi to (c+, c-); the result satisfies, in closed form,
    tr(L_X g0) = sum (c+ e^{s r} + c- e^{-s r}) phi  and  delta(L_X g0) = 0.
    Its (k, l) at phi weight the four homogeneous solutions of
    ``mode_ode.pair_columns`` by (-c+/(2mu), -c+/(4s), c-/(2mu), -c-/(4s)),
    s = sqrt(mu).  Frequency-zero keys are rejected: an affine trace is not
    absorbable and must be split off first.
    """
    pairs: dict = {}
    for (freq, phase), (c_plus, c_minus) in coefficients.items():
        mu = cs.eigenvalue(freq)
        if mu <= 0.0:
            raise InvalidInput(
                "trace absorption needs mu > 0; split the affine trace off first"
            )
        if c_plus == 0.0 and c_minus == 0.0:
            continue
        c_plus, c_minus, s = float(c_plus), float(c_minus), math.sqrt(mu)
        weights = (-c_plus / (2.0 * mu), -c_plus / (4.0 * s),
                   c_minus / (2.0 * mu), -c_minus / (4.0 * s))
        k = l = RadialProfile.zero()
        for (col_k, col_l), w in zip(pair_columns(mu), weights):
            k, l = k + col_k.scale(w), l + col_l.scale(w)
        pairs[(tuple(freq), phase)] = (k, l)
    return GaugeField(cs, pairs)


# ---------------------------------------------------------------------------
# kernel basis of the reduced per-mode systems
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class KernelBasisElement:
    """One basis solution of the reduced system.

    ``generator`` is the gauge 1-form X with field = L_X g0 for gauge
    elements, None otherwise.  ``radially_parallel`` marks r-independent
    tensors.
    """

    label: str
    field: TensorField
    radially_parallel: bool
    meta: tuple = ()
    generator: TensorField | None = None


def _gauge_element(label, one_form, parallel, meta):
    return KernelBasisElement(
        label=label,
        field=lie_derivative_metric(one_form),
        radially_parallel=parallel,
        meta=meta,
        generator=one_form,
    )


def _frequency_basis(cs: TorusCrossSection, freq) -> list:
    """The kernel basis columns of one positive frequency, cos then sin:
    the four homogeneous pair gauges, two exponential gauges per coclosed
    mode and two exponential TT tensors per TT mode.

    ``meta`` holds (freq, phase, j) for a pair gauge, where j indexes
    ``mode_ode.pair_columns``, and (freq, phase, index, branch) for
    the others, with branch "plus" or "minus" for e^{+-sqrt(mu) r}.
    """
    mu = cs.eigenvalue(freq)
    s = math.sqrt(mu)
    branches = ((RadialProfile.monomial(1.0, 0, s), "plus"),
                (RadialProfile.monomial(1.0, 0, -s), "minus"))
    tt_spectrum = build_spectrum(cs, "TTTensor")
    out = []
    for phase in ("cos", "sin"):
        phi = modes_at(cs, "Scalar", freq, phase)[0]
        for j, (k, l) in enumerate(pair_columns(mu)):
            X = fields_mod.pair_one_form(cs, phi, k, l)
            out.append(_gauge_element("scalar_gauge", X, False, (freq, phase, j)))
        for idx, eta in enumerate(modes_at(cs, "CoclosedOneForm", freq, phase)):
            for prof, branch in branches:
                X = fields_mod.from_mode_profile(cs, eta, prof)
                out.append(_gauge_element("coclosed_gauge", X, False, (freq, phase, idx, branch)))
        for i, tt in enumerate(tt_spectrum.at(freq, phase)):
            for prof, branch in branches:
                field = fields_mod.from_mode_profile(cs, tt, prof)
                out.append(KernelBasisElement("tt_exp", field, False, (freq, phase, i, branch)))
    return out


def _zero_frequency_basis(cs: TorusCrossSection, tau: float) -> list:
    """The kernel basis columns of frequency zero: the affine trace, the
    affine parallel TT blocks and, only at tau = 0, the radially parallel
    shear and radial gauges.

    ``meta`` holds (i,) for a parallel TT block, where i indexes
    ``build_spectrum(cs, "TTTensor").at(zero)``, and (a,) for the shear
    gauge of coordinate axis a.
    """
    one = RadialProfile.constant(1.0)
    ramp = RadialProfile.monomial(1.0, 1, 0.0)
    zero = (0,) * cs.dim
    g_tan = tangential_metric(cs)
    out = [
        KernelBasisElement("trace", g_tan, True),
        KernelBasisElement("trace_linear", g_tan.multiply_profile(ramp), False),
    ]
    for i, tt in enumerate(build_spectrum(cs, "TTTensor").at(zero)):
        out.append(KernelBasisElement(
            "tt_parallel", fields_mod.from_mode_profile(cs, tt, one), True, (i,)))
        out.append(KernelBasisElement(
            "tt_parallel_linear", fields_mod.from_mode_profile(cs, tt, ramp), False, (i,)))
    if tau == 0.0:
        for a, eta in enumerate(modes_at(cs, "HarmonicOneForm", zero, "cos")):
            out.append(_gauge_element(
                "shear_gauge", fields_mod.from_mode_profile(cs, eta, ramp), True, (a,)))
        out.append(
            _gauge_element(
                "radial_gauge",
                fields_mod.radial_one_form(cs, modes_at(cs, "Scalar", zero, "cos")[0],
                                           ramp.scale(0.5 * math.sqrt(cs.volume))),
                True, (),
            )
        )
    return out


@dataclass(frozen=True)
class _KernelBlock:
    """The frozen kernel basis of one frequency: its columns and, built on
    first use, the sorted (phase, power, rate) keys they carry, the
    read-only coefficient matrix with one column per element and one row
    per tensor entry of each key, and, at a positive frequency, the
    matrix's condition number.  Enumeration reads only the columns, so
    solve_reduced_system stacks no matrix and takes no SVD."""

    cs: TorusCrossSection
    freq: tuple
    columns: tuple

    @functools.cached_property
    def _system(self) -> tuple:
        column_blocks = [_coefficient_blocks(col.field).get(self.freq, {})
                         for col in self.columns]
        keys = tuple(sorted(set().union(*column_blocks)))
        zero = np.zeros((self.cs.dim + 1, self.cs.dim + 1))
        A = np.stack([_key_vector(blocks, keys, zero) for blocks in column_blocks], axis=1)
        A.setflags(write=False)
        return keys, A, float(np.linalg.cond(A)) if any(self.freq) else None

    keys = property(lambda self: self._system[0])
    matrix = property(lambda self: self._system[1])
    cond = property(lambda self: self._system[2])


def _key_vector(blocks: dict, keys, zero: np.ndarray) -> np.ndarray:
    """The entries of blocks at keys, in key order, zero where a key is missing."""
    return np.concatenate([blocks.get(k, zero).ravel() for k in keys])


@functools.lru_cache(maxsize=1024)
def _kernel_block(cs: TorusCrossSection, freq: tuple, tau: float) -> _KernelBlock:
    """The memoized kernel block of one frequency.  tau is read only at
    frequency zero; callers pass 0.0 for every other frequency."""
    columns = tuple(_frequency_basis(cs, freq) if any(freq) else _zero_frequency_basis(cs, tau))
    for col in columns:
        col.field.freeze()
        if col.generator is not None:
            col.generator.freeze()
    return _KernelBlock(cs, freq, columns)


def solve_reduced_system(cs: TorusCrossSection, tau: float = 0.0):
    """Enumerate the kernel basis of the reduced systems at the given tau.

    The shear and radial gauge elements appear only when tau == 0; they
    are the radially parallel gauge tensors eliminated by the perturbation.
    The list is new on every call, its elements are the memoized, read-only
    columns of the per-frequency kernel blocks.
    """
    eigenvalues = [cs.eigenvalue(freq) for freq in cs.canonical_freqs()]
    check_resonance(tau, eigenvalues)

    basis = list(_kernel_block(cs, (0,) * cs.dim, tau).columns)
    for freq in cs.canonical_freqs():
        if cs.eigenvalue(freq) > 0.0:
            basis.extend(_kernel_block(cs, freq, 0.0).columns)
    return basis


def parallel_space_dimension(cs: TorusCrossSection, tau: float) -> int:
    """Dimension of the radially parallel kernel slice at the given tau."""
    return sum(1 for e in solve_reduced_system(cs, tau) if e.radially_parallel)


# ---------------------------------------------------------------------------
# classification
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class YField:
    """Radially parallel gauge content: radial is the coefficient of
    dr (x) dr, shear maps the coordinate axis a to the coefficient of
    eta_a (x) dr + dr (x) eta_a."""

    radial: float = 0.0
    shear: dict = dc_field(default_factory=dict)

    def is_zero(self) -> bool:
        return self.radial == 0.0 and not self.shear


@dataclass(frozen=True)
class KernelDecomposition:
    """Unique coefficient set of a kernel element.

    ``parts`` holds one (column, coefficient) pair per kernel basis column
    that the element carries, in column order: frequencies ascending, then
    the order of the frequency's memoized block.  condition_numbers maps
    each positive frequency of the element to the condition number of its
    coefficient-matching system.

    The named views read parts by label and meta: pure_trace holds (a, a~)
    of (a + a~ r) g_N; parallel_tt / linear_tt map the parallel TT basis
    index to the constant / r-linear coefficient; exp_modes maps
    (freq, phase, tt_index) to (a+, a-); gauge_X is the infinite-sector
    gauge one-form (its Lie derivative is the gauge part of the tensor);
    gauge_Y the radially parallel gauge coefficients.
    """

    cs: TorusCrossSection
    parts: tuple
    condition_numbers: dict

    def _coefficients(self, label: str) -> dict:
        return {col.meta: c for col, c in self.parts if col.label == label}

    @property
    def pure_trace(self) -> tuple:
        return (self._coefficients("trace").get((), 0.0),
                self._coefficients("trace_linear").get((), 0.0))

    @property
    def parallel_tt(self) -> dict:
        return {i: c for (i,), c in self._coefficients("tt_parallel").items()}

    @property
    def linear_tt(self) -> dict:
        return {i: c for (i,), c in self._coefficients("tt_parallel_linear").items()}

    @property
    def exp_modes(self) -> dict:
        out: dict = {}
        for (freq, phase, i, branch), c in self._coefficients("tt_exp").items():
            a_plus, a_minus = out.get((freq, phase, i), (0.0, 0.0))
            out[(freq, phase, i)] = (
                (a_plus + c, a_minus) if branch == "plus" else (a_plus, a_minus + c)
            )
        return out

    @property
    def gauge_X(self) -> TensorField:
        gauges = (col.generator.scale(c) for col, c in self.parts
                  if col.label in ("scalar_gauge", "coclosed_gauge"))
        return fields_mod.sum_fields(self.cs, 1, gauges)

    @property
    def gauge_Y(self) -> YField:
        return YField(
            radial=self._coefficients("radial_gauge").get((), 0.0),
            shear={a: c for (a,), c in self._coefficients("shear_gauge").items()},
        )

    def reconstruct(self) -> TensorField:
        return fields_mod.sum_fields(self.cs, 2, (col.field.scale(c) for col, c in self.parts))


def _coefficient_blocks(field: TensorField) -> dict:
    """The coefficient tensors of a field by frequency, each keyed by
    (phase, power, rate) in sorted order.  Rates are compared exactly:
    every column's rate is the float sqrt(mu) of its frequency, and a
    file's rates are read onto it at load time."""
    out: dict = {}
    for (freq, phase), (p, lam), C in field.terms():
        out.setdefault(freq, {})[(phase, p, lam)] = C
    return out


def _largest_term(field: TensorField) -> str:
    """The term of field holding its largest coefficient, named as the
    term match below names one."""
    (freq, phase), (p, lam), _ = max(field.terms(), key=lambda t: np.max(np.abs(t[2])))
    return f"frequency {freq}: {phase} term of power {p} and rate {lam:.6g}"


def classify_kernel(h, tau: float = 0.0) -> KernelDecomposition:
    """Resolve a kernel element into its unique coefficient set.

    Preconditions (checked, NotInKernel on failure): the linearized Ricci
    operator annihilates h, and the tau-modified divergence of h
    vanishes.  Each frequency of h, zero included, is matched against the
    columns of its kernel basis coefficient by coefficient: one block of
    tensor entries per (phase, power, rate) key gives a small linear
    system, whose condition number is recorded per positive frequency.  A
    term at a key that no column carries is not in the kernel.  The result
    keeps each column whose coefficient is not round-off, with that
    coefficient.  tau goes through ``check_resonance`` against every
    eigenvalue of the cross section, as in ``solve_reduced_system``.

    The columns, keys, matrix and condition number of each frequency come
    from its memoized kernel block: the columns are built on the first
    call for a cross section (and, at frequency zero, a tau) that reads
    the block, the keys, matrix and condition number on the first
    classification against it, and all are read-only afterwards; a call
    builds only h's right-hand side per frequency.
    """
    if not isinstance(h, TensorField) or h.rank != 2:
        raise InvalidInput("expected a rank-2 tensor field")
    cs = h.cs
    check_resonance(tau, (cs.eigenvalue(freq) for freq in cs.canonical_freqs()))
    scale = max(1.0, h.max_abs_coeff())
    for name, residual in (("linearized Ricci", linearized_ricci(h)),
                           ("tau-modified divergence", modified_divergence(h, tau))):
        size = residual.max_abs_coeff()
        if size > KERNEL_TOL * scale:
            raise NotInKernel(f"{name} residual {size:.3e} exceeds {KERNEL_TOL:.1e}; "
                              f"largest at {_largest_term(residual)}")

    parts: list = []
    cond: dict = {}
    zero_block = np.zeros((cs.dim + 1, cs.dim + 1))
    for freq, h_blocks in _coefficient_blocks(h).items():
        block = _kernel_block(cs, freq, 0.0 if any(freq) else tau)
        for (phase, p, lam), C in h_blocks.items():
            if (phase, p, lam) not in block.keys and np.max(np.abs(C)) > KERNEL_TOL * scale:
                raise NotInKernel(
                    f"frequency {freq}: {phase} term of power {p} and rate {lam:.6g} "
                    "matches no kernel column"
                )

        A = block.matrix
        b = _key_vector(h_blocks, block.keys, zero_block)
        coeffs, _res, _rank, _sv = np.linalg.lstsq(A, b, rcond=None)
        if block.cond is not None:
            cond[freq] = block.cond
        residual = float(np.max(np.abs(A @ coeffs - b)))
        if residual > KERNEL_TOL * max(scale, float(np.max(np.abs(b))), 1.0):
            raise NotInKernel(
                f"frequency {freq} block outside the kernel span (coefficient "
                f"residual {residual:.3e})"
            )
        parts.extend((col, float(c)) for c, col in zip(coeffs, block.columns)
                     if abs(c) >= 1e-13 * scale)
    return KernelDecomposition(cs, tuple(parts), cond)
