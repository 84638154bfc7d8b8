"""Weighted sup-norms and the blow-up fit of the decaying Green operator.

On each positive-eigenvalue sector the gauge operator d*d + 2dd* is
inverted in closed form by ``mode_ode.solve_scalar_mode`` (coclosed
one-form legs) and ``mode_ode.solve_mixed_mode`` (the coupled scalar pair).
This module measures how the norm of that inverse blows up on the
exponentially weighted spaces as the weight rate rho approaches
sqrt(mu_1): ``weighted_sup_norm`` is the discrete weighted sup-norm, and
``estimate_weighted_bound`` fits the exponent p of
||X||_rho / ||source||_rho ~ (sqrt(mu_1) - rho)^(-p).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInput
from .mode_ode import RadialProfile, solve_mixed_mode, solve_scalar_mode

__all__ = [
    "BoundFit",
    "weighted_sup_norm",
    "estimate_weighted_bound",
]


def _ramp(r):
    """Smoothstep from 0 on r <= 1 to 1 on r >= 2; C^1 in between."""
    x = np.clip((np.asarray(r, dtype=float) - 1.0), 0.0, 1.0)
    return x * x * (3.0 - 2.0 * x)


def weighted_sup_norm(profile, rho: float, r_grid: np.ndarray) -> float:
    """sup over r_grid of w(r) |profile(r)|, w = (1 - ramp) + ramp e^{rho r}.

    The cutoff ramp switches the weight e^{rho r} on away from r = 0, so the
    norm sees plain sup-norm behaviour on the compact piece and the
    exponential weight on the end.  On the ramp zone (r <= 2) the weight is
    evaluated directly; beyond it the rate rho is folded into the profile
    symbolically, so e^{rho r} * e^{-rho r} never materializes as an
    overflowing pair of factors.  Derivatives and the Holder seminorm of
    a weighted C^{k,alpha} norm are left out; they change constants, not
    exponents.
    """
    near = r_grid[r_grid <= 2.0]
    far = r_grid[r_grid >= 2.0]
    best = 0.0
    if near.size:
        w_near = (1.0 - _ramp(near)) + _ramp(near) * np.exp(rho * near)
        best = max(best, float(np.max(w_near * np.abs(profile.evaluate(near)))))
    if far.size:
        shifted = profile.mul_monomial(0, rho)
        best = max(best, float(np.max(np.abs(shifted.evaluate(far)))))
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
    src = RadialProfile.monomial(1.0, 0, -rho)
    src_norm = weighted_sup_norm(src, rho, grid)

    if source_type == "one_form":
        f = solve_scalar_mode(mu1, src)
        out_norm = weighted_sup_norm(f, rho, grid)
    elif source_type == "pair":
        sol = solve_mixed_mode(mu1, src, RadialProfile.zero())
        out_norm = max(weighted_sup_norm(sol.k, rho, grid), weighted_sup_norm(sol.l, rho, grid))
    else:
        raise InvalidInput(f"unknown source_type {source_type!r}")
    return out_norm / src_norm


def estimate_weighted_bound(mu1: float, rho_samples, source_type: str = "one_form") -> BoundFit:
    """Fit the blow-up exponent of the solution bound as rho -> sqrt(mu1).

    For each rho the ratio ||X||_rho / ||source||_rho is measured on the
    single-mode source e^{-rho s} at the bottom eigenvalue; the slope of
    log(ratio) vs -log(sqrt(mu1) - rho) is the measured exponent.  Every
    sample must lie in (0, sqrt(mu1)), which also rejects NaN, and a line
    needs at least two distinct samples.  mu1 must be positive and finite.
    """
    if not 0.0 < mu1 < math.inf:
        raise InvalidInput(f"mu1 must be positive and finite, got {mu1!r}")
    rhos = sorted(float(r) for r in rho_samples)
    if not all(0.0 < rho < math.sqrt(mu1) for rho in rhos):
        raise InvalidInput("rho samples must lie in (0, sqrt(mu1))")
    if len(set(rhos)) < 2:
        raise InvalidInput("the fit needs at least two distinct rho samples")
    samples = [(rho, _norm_ratio(mu1, rho, source_type)) for rho in rhos]
    xs = np.array([-math.log(math.sqrt(mu1) - rho) for rho, _ in samples])
    ys = np.array([math.log(ratio) for _, ratio in samples])
    slope = float(np.polyfit(xs, ys, 1)[0])
    return BoundFit(exponent=slope, samples=tuple(samples))
