"""Shared random-field builders and mixed-pair checks used across the
solver test suites."""

import numpy as np

from cylspec import cross_section as cx, fields as F
from cylspec.mode_ode import RadialProfile


def random_profile(rng, rate_lo=-2.0, rate_hi=-0.3, max_terms=2, max_power=1, scale=1.0):
    """A random decaying profile with rates drawn from [rate_lo, rate_hi]."""
    n = int(rng.integers(1, max_terms + 1))
    terms = []
    for _ in range(n):
        c = float(rng.uniform(-scale, scale))
        p = int(rng.integers(0, max_power + 1))
        lam = float(rng.uniform(rate_lo, rate_hi))
        terms.append((c, p, lam))
    return RadialProfile(tuple(terms))


def mixed_state(k, l, r) -> np.ndarray:
    """The full (k, k', l, l') state vector of a mixed pair on r."""
    r = np.asarray(r, dtype=float)
    return np.stack([prof.evaluate(r) for prof in
                     (k, k.derivative(), l, l.derivative())])


def mixed_residual(mu, k, l, beta, gamma, r) -> float:
    """Max-norm residual of the mixed pair system's two second-order
    equations, k'' = 2 mu k - l' + beta and l'' = (mu/2)(k' + l) + gamma,
    on a grid."""
    r = np.asarray(r, dtype=float)
    kp, lp = k.derivative(), l.derivative()
    res1 = (kp.derivative().evaluate(r) - 2.0 * mu * k.evaluate(r)
            + lp.evaluate(r) - beta.evaluate(r))
    res2 = (lp.derivative().evaluate(r) - 0.5 * mu * (kp.evaluate(r) + l.evaluate(r))
            - gamma.evaluate(r))
    return float(max(np.max(np.abs(res1)), np.max(np.abs(res2))))


def _mode_pools(cs):
    scalars = cx.build_spectrum(cs, "Scalar").modes
    return {
        "scalar": [m for m in scalars if any(m.freq)],
        "constant": next(m for m in scalars if not any(m.freq)),
        "coclosed": list(cx.build_spectrum(cs, "CoclosedOneForm").modes),
        "harmonic": list(cx.build_spectrum(cs, "HarmonicOneForm").modes),
        "tt": list(cx.build_spectrum(cs, "TTTensor").modes),
        "trace": list(cx.build_spectrum(cs, "PureTrace").modes),
    }


def _pick(rng, pool):
    return pool[int(rng.integers(0, len(pool)))]


def random_one_form(cs, rng, n_terms=4, rate_lo=-2.0, rate_hi=-0.3,
                    include_finite=True):
    """A random decaying one-form mixing all sectors of the spectrum."""
    pools = _mode_pools(cs)
    kinds = ["pair", "coclosed"] + (["harmonic", "radial"] if include_finite else [])
    X = F.TensorField.zero(cs, 1)
    for _ in range(n_terms):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        prof = random_profile(rng, rate_lo, rate_hi)
        if kind == "pair":
            mode = _pick(rng, pools["scalar"])
            X = X + F.pair_one_form(cs, mode, prof, random_profile(rng, rate_lo, rate_hi))
        elif kind == "coclosed" and pools["coclosed"]:
            X = X + F.from_mode_profile(cs, _pick(rng, pools["coclosed"]), prof)
        elif kind == "harmonic":
            X = X + F.from_mode_profile(cs, _pick(rng, pools["harmonic"]), prof)
        else:
            X = X + F.radial_one_form(cs, pools["constant"], prof)
    return X


def random_rank2_source(cs, rng, n_terms=6, rate_lo=-2.0, rate_hi=-0.3,
                        include_parallel_radial=True):
    """A random decaying symmetric 2-tensor mixing all structural blocks.

    With include_parallel_radial=False the frequency-zero dr(x)dr and
    dr(x)eta blocks are left out, so the result is solvable at tau = 0.
    """
    pools = _mode_pools(cs)
    kinds = ["rr", "mixed", "tt", "trace"]
    if include_parallel_radial:
        kinds += ["rr0", "mixed0"]
    # a kind whose pool is empty is never drawn: a circle has no coclosed
    # and no TT modes
    pool_of = {"rr": "scalar", "mixed": "coclosed", "tt": "tt", "trace": "trace",
               "rr0": "constant", "mixed0": "harmonic"}
    kinds = [kind for kind in kinds if pools[pool_of[kind]]]
    h = F.TensorField.zero(cs, 2)
    for _ in range(n_terms):
        kind = kinds[int(rng.integers(0, len(kinds)))]
        prof = random_profile(rng, rate_lo, rate_hi)
        if kind == "rr":
            h = h + F.rr_tensor(cs, _pick(rng, pools["scalar"]), prof)
        elif kind == "mixed":
            h = h + F.mixed_pair_tensor(cs, _pick(rng, pools["coclosed"]), prof)
        elif kind == "tt":
            h = h + F.from_mode_profile(cs, _pick(rng, pools["tt"]), prof)
        elif kind == "trace":
            h = h + F.from_mode_profile(cs, _pick(rng, pools["trace"]), prof)
        elif kind == "rr0":
            h = h + F.rr_tensor(cs, pools["constant"], prof)
        else:
            h = h + F.mixed_pair_tensor(cs, _pick(rng, pools["harmonic"]), prof)
    return h


def _is_growing_basis_element(elem):
    if elem.label in ("tt_exp", "coclosed_gauge"):
        return elem.meta[-1] in ("plus", 1.0)
    if elem.label == "scalar_gauge":
        return elem.meta[2] in (0, 1)
    return False


def random_kernel_element(cs, rng, tau=0.0, n_parts=8, decaying_only=False):
    """A random combination of reduced-system kernel basis solutions.

    Coefficients are bounded away from zero so classification has nothing
    to confuse with round-off.  decaying_only drops the e^{+sqrt(mu) r}
    branches, which keeps finite-window grid sampling well scaled.
    """
    from cylspec.deformation_solver import solve_reduced_system

    basis = solve_reduced_system(cs, tau)
    if decaying_only:
        basis = [e for e in basis if not _is_growing_basis_element(e)]
    size = int(min(n_parts, len(basis)))
    picks = rng.choice(len(basis), size=size, replace=False)
    h = F.TensorField.zero(cs, 2)
    for i in picks:
        sign = 1.0 if rng.random() < 0.5 else -1.0
        h = h + basis[i].field.scale(sign * float(rng.uniform(0.3, 2.0)))
    return h
