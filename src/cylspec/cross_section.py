"""Spectral data of flat-torus cross sections.

Everything downstream consumes the cross section through its spectrum: real
Fourier eigenfunctions, coclosed eigen-1-forms, harmonic 1-forms, and
transverse-traceless eigentensors, all L2-normalized over the fundamental
domain.  On a flat torus the whole spectrum is explicit, so modes are
enumerated rather than computed: frequency vectors k with |k_j| <= cutoff,
angular frequencies omega_j = 2 pi k_j / l_j, eigenvalue mu = |omega|^2.

Frequency vectors are restricted to a canonical half-space (first nonzero
entry positive) so the cos/sin pairs at +-k are not double counted.

Modes are only built here.  Evaluating them, differentiating them and
pairing them in L2 is the business of ``fields``: a mode times a radial
profile is a ``TensorField``, and the trig derivative signs and the
Fourier pairing factor are fixed there once.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from types import MappingProxyType

import numpy as np

from .errors import InvalidInput, InvalidParams

__all__ = [
    "TorusCrossSection",
    "Mode",
    "Spectrum",
    "KINDS",
    "build_spectrum",
    "modes_at",
    "omega_unit",
    "tangent_complement",
]

KINDS = ("Scalar", "CoclosedOneForm", "HarmonicOneForm", "TTTensor", "PureTrace")
_KIND_ORDER = {kind: i for i, kind in enumerate(KINDS)}


@dataclass(frozen=True)
class TorusCrossSection:
    """Flat torus with side lengths ``side_lengths``, dimension ``dim``.

    ``freq_cutoff`` bounds the largest |k_j| of generated frequency vectors.
    Immutable; derived data is computed on demand, and spectra, mode
    slices and the volume are memoized per cross section.
    """

    dim: int
    side_lengths: tuple
    freq_cutoff: int

    def __post_init__(self):
        if self.dim < 1 or self.dim != int(self.dim):
            raise InvalidParams(f"dim must be a positive integer, got {self.dim}")
        lengths = tuple(float(l) for l in self.side_lengths)
        if len(lengths) != self.dim:
            raise InvalidParams(
                f"need {self.dim} side lengths, got {len(lengths)}"
            )
        for i, l in enumerate(lengths):
            # NaN fails every comparison, so the test is for the good case
            if not (math.isfinite(l) and l > 0):
                raise InvalidParams(f"side length {i} must be finite and strictly positive, "
                                    f"got {l}")
        if self.freq_cutoff < 1 or self.freq_cutoff != int(self.freq_cutoff):
            raise InvalidParams("freq_cutoff must be a positive integer")
        object.__setattr__(self, "side_lengths", lengths)
        object.__setattr__(self, "dim", int(self.dim))
        object.__setattr__(self, "freq_cutoff", int(self.freq_cutoff))

    @functools.cached_property
    def volume(self) -> float:
        return float(np.prod(self.side_lengths))

    def omega(self, freq) -> np.ndarray:
        return 2.0 * math.pi * np.asarray(freq, dtype=float) / np.asarray(self.side_lengths)

    def eigenvalue(self, freq) -> float:
        w = self.omega(freq)
        return float(w @ w)

    def mode_key(self, freq, phase: str) -> tuple:
        """The (freq, phase) key of a mode of this torus, freq as ints:
        ``dim`` integer entries, the first nonzero one positive, and phase
        cos or sin, only cos at frequency zero.  Any other key raises
        InvalidInput naming the frequency; a frequency above the cutoff is
        a mode key too."""
        try:
            given = tuple(freq)
        except TypeError:
            raise InvalidInput(f"frequency {freq!r} needs {self.dim} integer entries") from None
        where = f"frequency {list(given)}"
        try:
            freq = tuple(int(k) for k in given)
        except (TypeError, ValueError, OverflowError):  # 'a', None, nan, inf
            freq = None
        if freq != given:
            raise InvalidInput(f"{where} needs integer entries")
        if len(freq) != self.dim:
            raise InvalidInput(f"{where} needs {self.dim} entries")
        nonzero = [k for k in freq if k != 0]
        if nonzero and nonzero[0] < 0:
            raise InvalidInput(
                f"{where} is outside the canonical half-space (first nonzero entry "
                "must be positive)"
            )
        if phase not in ("cos", "sin"):
            raise InvalidInput(f"{where}: phase must be cos or sin, got {phase!r}")
        if phase == "sin" and not nonzero:
            raise InvalidInput(f"{where}: frequency zero carries no sin phase")
        return freq, phase

    def canonical_freqs(self) -> tuple:
        """All frequency vectors in the canonical half-space, |k_j| <= cutoff,
        sorted; built once per cross section."""
        return self._canonical_freqs

    @functools.cached_property
    def _canonical_freqs(self) -> tuple:
        # product runs in lexicographic order; keep k = 0 and every k whose
        # first nonzero entry is positive
        c = self.freq_cutoff
        ks = itertools.product(range(-c, c + 1), repeat=self.dim)
        return tuple(k for k in ks if next((v > 0 for v in k if v), True))

    def smallest_positive_eigenvalue(self) -> float:
        """mu_1, the min of |omega|^2 over nonzero canonical frequencies,
        read from the memoized scalar spectrum."""
        return build_spectrum(self, "Scalar").mu1


@dataclass(frozen=True)
class Mode:
    """One normalized eigen-object on the cross section.

    ``polarization`` is the full constant coefficient tensor including the
    L2 normalization, so the pointwise value is polarization * trig(omega.x)
    with a bare cos or sin.  Shape () for scalars, (d,) for 1-forms, (d, d)
    symmetric for 2-tensors.
    """

    kind: str
    freq: tuple
    eigenvalue: float
    polarization: np.ndarray
    phase: str
    omega: tuple

    def __post_init__(self):
        object.__setattr__(self, "polarization", np.asarray(self.polarization, dtype=float))
        self.polarization.setflags(write=False)

    @property
    def rank(self) -> int:
        return self.polarization.ndim

    def sort_key(self):
        return (
            self.eigenvalue,
            _KIND_ORDER[self.kind],
            self.freq,
            0 if self.phase == "cos" else 1,
            tuple(np.round(self.polarization, 12).ravel()),
        )


@dataclass(frozen=True)
class Spectrum:
    """All modes of one kind, sorted by eigenvalue.

    ``slices`` maps (freq, phase) to that slice's modes in spectrum order,
    read-only because spectra are memoized and shared; ``at`` reads it.
    """

    modes: tuple
    mu1: float
    slices: MappingProxyType

    def at(self, freq, phase: str = "cos") -> tuple:
        """The modes at one (freq, phase) in spectrum order, or () if the
        spectrum has none there."""
        return self.slices.get((tuple(freq), phase), ())

    @functools.cached_property
    def oscillating(self) -> tuple:
        """The modes at nonzero frequency, in spectrum order."""
        return tuple(m for m in self.modes if any(m.freq))


@functools.lru_cache(maxsize=4096)
def omega_unit(cs: TorusCrossSection, freq: tuple) -> tuple:
    """s = |omega| = sqrt(mu), with the bits of np.linalg.norm, and the unit
    normal omega / s (zeros at frequency zero) of one frequency; memoized,
    so the normal is read-only."""
    w = cs.omega(freq)
    s = math.sqrt(float(w @ w))
    unit = w / s if s else w
    unit.setflags(write=False)
    return s, unit


def tangent_complement(omega: np.ndarray) -> list:
    """Deterministic orthonormal basis of the hyperplane perpendicular to omega.

    Seeds modified Gram-Schmidt with the standard basis vectors ordered by
    increasing |omega_i| (ties broken by index), dropping the one most
    parallel to omega.  Returns d-1 unit vectors; stable under small
    perturbations of omega only up to the discrete seed choice, which is fine
    because omega comes from integer frequencies.
    """
    omega = np.asarray(omega, dtype=float)
    d = omega.size
    unit = omega / np.linalg.norm(omega)
    order = sorted(range(d), key=lambda i: (abs(unit[i]), i))
    seeds = [np.eye(d)[i] for i in order[: d - 1]]
    basis = []
    for v in seeds:
        w = v - (v @ unit) * unit
        for b in basis:
            w = w - (w @ b) * b
        nrm = np.linalg.norm(w)
        if nrm < 1e-12:
            continue  # can only happen with degenerate seeds; skip and move on
        basis.append(w / nrm)
    if len(basis) != d - 1:
        raise InvalidParams("failed to build tangent complement")
    return basis


def _traceless_sym_basis(vectors: list) -> list:
    """Frobenius-orthonormal basis of traceless symmetric matrices built on
    the given orthonormal vectors: symmetrized off-diagonal pairs plus the
    standard diagonal ladder (sum of first m minus m times the next)."""
    n = len(vectors)
    out = []
    for i in range(n):
        for j in range(i + 1, n):
            vi, vj = vectors[i], vectors[j]
            out.append((np.outer(vi, vj) + np.outer(vj, vi)) / math.sqrt(2.0))
    for m in range(1, n):
        acc = sum(np.outer(vectors[i], vectors[i]) for i in range(m))
        acc = acc - m * np.outer(vectors[m], vectors[m])
        out.append(acc / math.sqrt(m * (m + 1)))
    return out


def _phases(freq) -> tuple:
    return ("cos",) if not any(freq) else ("cos", "sin")


def _check_kind(kind: str) -> None:
    if kind not in KINDS:
        raise InvalidParams(f"unknown mode kind {kind!r}; expected one of {KINDS}")


@functools.lru_cache(maxsize=4096)
def modes_at(cs: TorusCrossSection, kind: str, freq: tuple, phase: str) -> tuple:
    """The modes of one kind at one (freq, phase), in construction order.

    This is the one place modes are built; ``build_spectrum`` sorts what it
    returns.  The construction order is the index convention of the
    callers that key modes by position: harmonic 1-forms by coordinate
    axis, coclosed 1-forms by position in ``tangent_complement``.  Any
    frequency is accepted, also one above the cutoff; a (freq, phase) that
    carries no mode of the kind (sin at frequency zero, a harmonic 1-form
    at a nonzero frequency) gives ().
    """
    _check_kind(kind)
    freq = tuple(freq)
    if phase not in _phases(freq):
        return ()
    mu = cs.eigenvalue(freq)
    omega = tuple(float(w) for w in cs.omega(freq))
    nonzero = any(freq)
    amp = math.sqrt(2.0 / cs.volume) if nonzero else 1.0 / math.sqrt(cs.volume)

    if kind == "Scalar":
        pols = [np.array(amp)]
    elif kind == "CoclosedOneForm":
        pols = [amp * pol for pol in tangent_complement(np.array(omega))] if nonzero else []
    elif kind == "HarmonicOneForm":
        pols = [] if nonzero else [amp * np.eye(cs.dim)[i] for i in range(cs.dim)]
    elif kind == "TTTensor":
        if nonzero:
            tangent = tangent_complement(np.array(omega))
        else:
            tangent = [np.eye(cs.dim)[i] for i in range(cs.dim)]
        pols = [amp * pol for pol in _traceless_sym_basis(tangent)]
    else:
        pols = [amp * (np.eye(cs.dim) / math.sqrt(cs.dim))]
    return tuple(Mode(kind, freq, mu, pol, phase, omega) for pol in pols)


@functools.lru_cache(maxsize=64)
def build_spectrum(cs: TorusCrossSection, kind: str) -> Spectrum:
    """Enumerate every mode of the kind, a name from KINDS, up to the
    frequency cutoff.  Spectra are immutable (a tuple of modes with
    read-only polarizations), so results are memoized per (cross section,
    kind).
    """
    _check_kind(kind)
    freqs = cs.canonical_freqs()
    modes = [
        m for freq in freqs for phase in _phases(freq)
        for m in modes_at(cs, kind, freq, phase)
    ]
    modes.sort(key=Mode.sort_key)
    slices: dict = {}
    for m in modes:
        slices.setdefault((m.freq, m.phase), []).append(m)
    mu1 = min(cs.eigenvalue(freq) for freq in freqs if any(freq))
    slices = MappingProxyType({key: tuple(ms) for key, ms in slices.items()})
    return Spectrum(tuple(modes), mu1, slices)

