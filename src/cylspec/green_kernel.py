"""Green kernels of the gauge operator on the positive-eigenvalue sectors.

Two kernel types cover the two invariant source shapes: a scalar kernel for
coclosed-1-form legs, and a 2x2 block kernel coupling the tangential-gradient
and radial legs of a scalar mode.  Both invert d*d + 2dd* mode by mode; the
closed-form route delegates to the variation-of-parameters solver, while the
quadrature route integrates the kernels directly and exists precisely so the
two can be compared.

On the scalar-pair sector the kernel blocks multiply the operator-level
source components (b, c) of  b * d_N phi + c * phi dr:

    k(t) = int  mu * K_dd(t,s) b(s) + K_dp(t,s) c(s)  ds
    l(t) = int  mu * K_pd(t,s) b(s) + K_pp(t,s) c(s)  ds

with, writing q = sqrt(mu) and u = |t - s|,

    K_dd = (-u / (8 mu) + 3 / (8 mu q)) e^{-q u}
    K_dp = ((s - t) / (8 q)) e^{-q u}
    K_pd = ((t - s) / (8 q)) e^{-q u}
    K_pp = (u / 8 + 3 / (8 q)) e^{-q u}

The mu factor on the b column accounts for the d_N phi legs being scaled by
q relative to unit-norm cross-section data.  The off-diagonal blocks are
antisymmetric under swapping source and observation points, the diagonal
ones symmetric, and K_dp/K_pp carry half the weight of a naive
integration-by-parts bookkeeping; the whole table was pinned down by
requiring the quadrature route to reproduce the ODE solver (see the round
trip tests), which it does to quadrature tolerance.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidInput, NonInvertibleSector
from .mode_ode import (
    MixedModeSolution,
    PiecewiseProfile,
    RadialProfile,
    SampledProfile,
    SourceExpansion,
    solve_mixed_mode,
    solve_scalar_mode,
)

__all__ = [
    "GreenKernelSpec",
    "WeightedNormSpec",
    "ModeExpansion",
    "BoundFit",
    "eval_type1",
    "eval_type2",
    "apply_green",
    "weighted_sup_norm",
    "estimate_weighted_bound",
]


def eval_type1(mu: float, t: float, s: float) -> float:
    """Scalar kernel e^{-sqrt(mu)|t-s|} / (2 sqrt(mu)) for the coclosed legs."""
    if mu <= 0:
        raise InvalidInput("type-1 kernel needs mu > 0")
    q = math.sqrt(mu)
    return math.exp(-q * abs(t - s)) / (2.0 * q)


def eval_type2(mu: float, t: float, s: float) -> dict:
    """Block kernel for the scalar-pair sector; see the module docstring.

    Keys name the (observation leg, source leg) pair: "dN_dN", "dN_dr",
    "dr_dN", "dr_dr".
    """
    if mu <= 0:
        raise InvalidInput("type-2 kernel needs mu > 0")
    q = math.sqrt(mu)
    u = abs(t - s)
    e = math.exp(-q * u)
    return {
        "dN_dN": (-u / (8.0 * mu) + 3.0 / (8.0 * mu * q)) * e,
        "dN_dr": ((s - t) / (8.0 * q)) * e,
        "dr_dN": ((t - s) / (8.0 * q)) * e,
        "dr_dr": (u / 8.0 + 3.0 / (8.0 * q)) * e,
    }


@dataclass(frozen=True)
class GreenKernelSpec:
    """Quadrature policy for applying the kernels eval_type1 / eval_type2.

    ``tol`` is the relative quadrature target; the s-integration window is
    |t - s| <= (40 + |log tol|) / sqrt(mu), inside which the dropped tail is
    below tol by the exponential envelope.
    """

    tol: float = 1e-10

    def window(self, mu: float) -> float:
        return (40.0 + abs(math.log(self.tol))) / math.sqrt(mu)


@dataclass
class ModeExpansion:
    """Per-mode output of a Green solve, mirroring SourceExpansion.

    ``scalar`` maps coclosed modes to their radial profile; ``mixed`` maps
    scalar modes to the coupled-pair solution.  Values are symbolic piecewise
    profiles on the closed-form route and SampledProfile pairs on the
    quadrature route.
    """

    scalar: dict = field(default_factory=dict)
    mixed: dict = field(default_factory=dict)


def _require_positive_modes(source: SourceExpansion):
    for mode in list(source.scalar) + list(source.mixed):
        if mode.eigenvalue <= 0.0:
            raise NonInvertibleSector(
                "Green kernels only invert eigenvalue > 0 sectors; route the "
                "harmonic modes to the finite-sector solver"
            )


def apply_green(
    spec: GreenKernelSpec,
    source: SourceExpansion,
    support=None,
    method: str = "closed_form",
    r_grid=None,
) -> ModeExpansion:
    """Invert the gauge operator on every mode of the source expansion.

    Sources carry the ODE-system conventions: alpha for the scalar equation
    f'' - mu f = alpha, and the state pair (beta, gamma).  ``support``
    restricts all sources to a common window [0, hi].  The closed-form
    method returns symbolic piecewise profiles; "quadrature" integrates the
    kernels on ``r_grid`` and is the slow, independent route.
    """
    _require_positive_modes(source)
    out = ModeExpansion()

    if method == "closed_form":
        for mode, alpha in source.scalar.items():
            out.scalar[mode] = solve_scalar_mode(mode.eigenvalue, alpha, support=support)
        for mode, (beta, gamma) in source.mixed.items():
            out.mixed[mode] = solve_mixed_mode(
                mode.eigenvalue, beta, gamma, support=support
            )
        return out

    if method != "quadrature":
        raise InvalidInput(f"unknown method {method!r}")
    if r_grid is None:
        raise InvalidInput("quadrature route needs an r_grid")
    r_grid = np.asarray(r_grid, dtype=float)

    for mode, alpha in source.scalar.items():
        mu = mode.eigenvalue
        vals = np.array(
            [
                -_quad_window(
                    lambda s, t=t: eval_type1(mu, t, s) * float(alpha.evaluate(s)),
                    t,
                    spec,
                    mu,
                    support,
                )
                for t in r_grid
            ]
        )
        out.scalar[mode] = SampledProfile(r_grid, vals)

    for mode, (beta, gamma) in source.mixed.items():
        mu = mode.eigenvalue
        # kernel blocks act on the operator-level components (b, c)
        b = beta.scale(-1.0)
        c = gamma.scale(-2.0)
        k_vals, l_vals = [], []
        for t in r_grid:
            def k_igd(s, t=t):
                K = eval_type2(mu, t, s)
                return mu * K["dN_dN"] * float(b.evaluate(s)) + K["dN_dr"] * float(c.evaluate(s))

            def l_igd(s, t=t):
                K = eval_type2(mu, t, s)
                return mu * K["dr_dN"] * float(b.evaluate(s)) + K["dr_dr"] * float(c.evaluate(s))

            k_vals.append(_quad_window(k_igd, t, spec, mu, support))
            l_vals.append(_quad_window(l_igd, t, spec, mu, support))
        out.mixed[mode] = (
            SampledProfile(r_grid, np.array(k_vals)),
            SampledProfile(r_grid, np.array(l_vals)),
        )
    return out


def _quad_window(integrand, t, spec, mu, support):
    lo = max(0.0, t - spec.window(mu))
    hi = t + spec.window(mu)
    if support is not None:
        lo, hi = max(lo, 0.0), min(hi, support[1])
    if hi <= lo:
        return 0.0
    import scipy.integrate  # deferred: the import dominates `import cylspec`

    kink = [t] if lo < t < hi else []
    val, _ = scipy.integrate.quad(
        integrand, lo, hi, points=kink, epsabs=1e-13, epsrel=spec.tol, limit=200
    )
    return val


# ---------------------------------------------------------------------------
# weighted norms and the blow-up exponent fit
# ---------------------------------------------------------------------------


def _ramp(r):
    """Smoothstep from 0 on r <= 1 to 1 on r >= 2; C^1 in between."""
    x = np.clip((np.asarray(r, dtype=float) - 1.0), 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


@dataclass(frozen=True)
class WeightedNormSpec:
    """Discrete weighted C^k sup-norm on the half cylinder.

    The weight e^{rho r} is switched on by a cutoff ramp away from r = 0, so
    the norm sees plain sup-norm behaviour on the compact piece and the
    exponential weight on the end.  The Holder seminorm is deliberately
    omitted; it changes constants, not exponents.
    """

    order: int
    rho: float
    r_grid: np.ndarray


def weighted_sup_norm(profile, norm_spec: WeightedNormSpec) -> float:
    """max over derivative orders 0..k of sup weight * |f^(j)|.

    On the ramp zone (r <= 2) the weight is evaluated directly; beyond it the
    rate rho is folded into the profile symbolically, so e^{rho r} * e^{-rho r}
    never materializes as an overflowing pair of factors.
    """
    grid = norm_spec.r_grid
    near = grid[grid <= 2.0]
    far = grid[grid >= 2.0]
    w_near = (1.0 - _ramp(near)) + _ramp(near) * np.exp(norm_spec.rho * near)
    best = 0.0
    current = profile
    for _ in range(norm_spec.order + 1):
        if near.size:
            best = max(best, float(np.max(w_near * np.abs(current.evaluate(near)))))
        if far.size:
            shifted = current.mul_monomial(0, norm_spec.rho)
            best = max(best, float(np.max(np.abs(shifted.evaluate(far)))))
        current = current.derivative()
    return best


@dataclass(frozen=True)
class BoundFit:
    """Result of the operator-norm blow-up fit: slope p of
    log(ratio) against -log(sqrt(mu1) - rho), plus the raw samples."""

    exponent: float
    samples: tuple  # of (rho, ratio)


def _norm_ratio(mu1: float, rho: float, source_type: str) -> float:
    """Operator-norm ratio on the worst-case single-mode source e^{-rho s}."""
    gap = math.sqrt(mu1) - rho
    r_max = max(12.0, 12.0 / gap)
    grid = np.linspace(0.0, r_max, 4000)
    spec = WeightedNormSpec(order=0, rho=rho, r_grid=grid)
    src = RadialProfile.monomial(1.0, 0, -rho)
    src_norm = weighted_sup_norm(PiecewiseProfile.single(src, lo=0.0), spec)

    if source_type == "one_form":
        f = solve_scalar_mode(mu1, src)
        out_norm = weighted_sup_norm(f, spec)
    elif source_type == "pair":
        sol = solve_mixed_mode(mu1, src, RadialProfile.zero())
        out_norm = max(weighted_sup_norm(sol.k, spec), weighted_sup_norm(sol.l, spec))
    else:
        raise InvalidInput(f"unknown source_type {source_type!r}")
    return out_norm / src_norm


def estimate_weighted_bound(mu1: float, rho_samples, source_type: str = "one_form") -> BoundFit:
    """Fit the blow-up exponent of the solution bound as rho -> sqrt(mu1).

    For each rho the ratio ||X||_rho / ||source||_rho is measured on the
    single-mode source e^{-rho s} at the bottom eigenvalue; the slope of
    log(ratio) vs -log(sqrt(mu1) - rho) is the measured exponent.
    """
    rhos = sorted(float(r) for r in rho_samples)
    if not rhos or rhos[0] <= 0 or rhos[-1] >= math.sqrt(mu1):
        raise InvalidInput("rho samples must lie in (0, sqrt(mu1))")
    samples = [(rho, _norm_ratio(mu1, rho, source_type)) for rho in rhos]
    xs = np.array([-math.log(math.sqrt(mu1) - rho) for rho, _ in samples])
    ys = np.array([math.log(ratio) for _, ratio in samples])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return BoundFit(exponent=slope, samples=tuple(samples))
