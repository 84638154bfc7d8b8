"""Weighted sup-norms and the blow-up fit of the decaying Green operator.

On each positive-eigenvalue sector the gauge operator d*d + 2dd* is
inverted in closed form by ``mode_ode.solve_scalar_mode`` (coclosed
one-form legs) and ``mode_ode.solve_mixed_mode`` (the coupled scalar pair).
This module measures how the norm of that inverse blows up on the
exponentially weighted spaces as the weight rate rho approaches
sqrt(mu_1): ``weighted_sup_norm`` is the discrete weighted C^k norm, and
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
    "WeightedNormSpec",
    "BoundFit",
    "weighted_sup_norm",
    "estimate_weighted_bound",
]


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
    src_norm = weighted_sup_norm(src, spec)

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
    log(ratio) vs -log(sqrt(mu1) - rho) is the measured exponent.  Every
    sample must lie in (0, sqrt(mu1)), which also rejects NaN, and a line
    needs at least two distinct samples.
    """
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
