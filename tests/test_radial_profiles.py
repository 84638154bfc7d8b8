"""Profile algebra: closed-form calculus on sums of c * r^p * e^{lam r}."""

import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
import scipy.integrate
from hypothesis import given, settings
from hypothesis import strategies as st

from cylspec.mode_ode import PiecewiseProfile, RadialProfile
from cylspec.errors import InvalidInput


def brute_quadrature(profile, a, b, n=20001):
    r = np.linspace(a, b, n)
    return scipy.integrate.trapezoid(profile.evaluate(r), r)


terms_strategy = st.lists(
    st.tuples(
        st.floats(-10, 10, allow_nan=False),
        st.integers(0, 3),
        st.floats(-3, 3, allow_nan=False).map(lambda x: round(x, 3)),
    ),
    min_size=0,
    max_size=6,
)


def test_merging_and_zero_pruning():
    p = RadialProfile([(1.0, 1, -2.0), (2.5, 1, -2.0), (0.0, 0, 1.0)])
    assert p.terms == ((3.5, 1, -2.0),)
    assert RadialProfile.zero().is_zero()


def test_negative_zero_rate_normalized():
    p = RadialProfile([(1.0, 0, -0.0), (1.0, 0, 0.0)])
    assert len(p.terms) == 1


def test_derivative_closed_form():
    p = RadialProfile.monomial(2.0, 1, -3.0)  # 2 r e^{-3r}
    d = p.derivative()
    r = np.linspace(0, 4, 200)
    expected = 2.0 * np.exp(-3 * r) - 6.0 * r * np.exp(-3 * r)
    assert np.max(np.abs(d.evaluate(r) - expected)) < 1e-12


@given(terms_strategy, terms_strategy)
@settings(max_examples=50, deadline=None)
def test_sum_and_product_evaluate_pointwise(t1, t2):
    p, q = RadialProfile(t1), RadialProfile(t2)
    r = np.linspace(0.0, 3.0, 17)
    pv, qv = p.evaluate(r), q.evaluate(r)
    assert np.allclose((p + q).evaluate(r), pv + qv, rtol=1e-12, atol=1e-12)
    scale = max(1.0, np.max(np.abs(pv * qv)))
    assert np.max(np.abs(p.multiply(q).evaluate(r) - pv * qv)) < 1e-10 * scale


def test_definite_integral_against_quadrature():
    p = RadialProfile([(1.0, 2, -1.5), (-0.5, 0, 0.5), (2.0, 1, 0.0)])
    exact = p.definite_integral(0.5, 4.0)
    approx = brute_quadrature(p, 0.5, 4.0)
    assert abs(exact - approx) < 1e-6 * max(1.0, abs(exact))


@given(terms_strategy, st.floats(0, 2), st.floats(2.001, 4), st.floats(4.001, 6))
@settings(max_examples=40, deadline=None)
def test_integral_additive_over_intervals(terms, a, b, c):
    p = RadialProfile(terms)
    lhs = p.definite_integral(a, b) + p.definite_integral(b, c)
    rhs = p.definite_integral(a, c)
    assert abs(lhs - rhs) < 1e-8 * max(1.0, abs(rhs))


def _exact_interval_integral(p, lam, lo, hi):
    """int_lo^hi r^p e^{lam r} dr in 160-digit decimals, as F(hi) - F(lo) of
    the antiderivative.  At lam = 1e-12 the difference cancels about 80
    digits, so some 80 remain, far beyond double precision."""
    with localcontext() as ctx:
        ctx.prec = 160
        lam, lo, hi = Decimal(lam), Decimal(lo), Decimal(hi)
        if lam == 0:
            return (hi ** (p + 1) - lo ** (p + 1)) / (p + 1)

        def F(r):
            poly = sum((-1) ** j * math.perm(p, j) * (r ** (p - j) if j < p else 1)
                       / lam ** (j + 1) for j in range(p + 1))
            return (lam * r).exp() * poly

        return F(hi) - F(lo)


def _exact_tail_integral(p, lam, lo):
    """int_lo^inf r^p e^{lam r} dr, lam < 0, in 160-digit decimals:
    e^{lam lo} sum_q C(p, q) lo^{p-q} q! / (-lam)^{q+1}, every summand >= 0."""
    with localcontext() as ctx:
        ctx.prec = 160
        lam, lo = Decimal(lam), Decimal(lo)
        return (lam * lo).exp() * sum(math.comb(p, q) * (lo ** (p - q) if q < p else 1)
                                      * math.factorial(q) / (-lam) ** (q + 1)
                                      for q in range(p + 1))


def test_interval_integrals_match_a_decimal_reference():
    # tiny rates, lam = 0 and |lam| up to 30, on intervals from 1e-4 to 20
    # long and pairs with |lam| h on either side of 1
    tiny = (1e-12, 1e-9, 1e-6, 1e-3)
    moderate = (0.05, 0.7, 1.3, 4.0, 30.0)
    failures = []
    for lam in (0.0, *tiny, *(-x for x in tiny), *moderate, *(-x for x in moderate)):
        pairs = [(lo, h) for lo in (0.0, 0.5, 3.7, 20.0) for h in (1e-4, 0.01, 0.3, 2.5, 20.0)]
        if abs(lam) >= 0.05:
            pairs += [(lo, f / abs(lam)) for lo in (0.0, 3.7) for f in (1 - 1e-6, 1.0, 1 + 1e-6)]
        # a value past the double range has no float to compare with
        pairs = [(lo, h) for lo, h in pairs if lam * (lo + h) <= 700.0]
        if lam < 0.0:  # and out to infinity
            pairs += [(lo, math.inf) for lo in (0.0, 0.5, 3.7, 20.0)]
        lo = np.array([lo for lo, _ in pairs])
        hi = lo + np.array([h for _, h in pairs])
        refs = [[_exact_interval_integral(p, lam, a, b) if b < math.inf
                 else _exact_tail_integral(p, lam, a) for a, b in zip(lo, hi)]
                for p in range(5)]
        # each power alone, then all five in one profile (every term positive)
        cases = [(RadialProfile.monomial(1.0, p, lam), refs[p]) for p in range(5)]
        cases.append((RadialProfile([(1.0, p, lam) for p in range(5)]),
                      [sum(col) for col in zip(*refs)]))
        for profile, expected in cases:
            got = profile.interval_integrals(lo, hi)
            for a, b, g, e in zip(lo, hi, got, expected):
                if abs(Decimal(float(g)) - e) > Decimal("1e-12") * abs(e):
                    failures.append((profile, a, b, float(g), float(e)))
    assert not failures, failures[:5]


def test_integral_to_infinity_requires_decay():
    decaying = RadialProfile.monomial(3.0, 2, -2.0)
    # int_0^inf 3 r^2 e^{-2r} dr = 3 * 2/8
    assert abs(decaying.definite_integral(0.0, math.inf) - 0.75) < 1e-14
    with pytest.raises(InvalidInput):
        RadialProfile.constant(1.0).definite_integral(0.0, math.inf)
    with pytest.raises(InvalidInput):
        RadialProfile.monomial(1.0, 0, 0.3).definite_integral(0.0, math.inf)
    with pytest.raises(InvalidInput, match="does not decay"):
        RadialProfile([(1.0, 0, -1.0), (2.0, 1, math.nan)]).definite_integral(0.0, math.inf)
    # finite and infinite intervals in one call: each as it is alone
    lo, hi = [0.0, 1.0, 2.5, 0.5], [math.inf, 3.0, math.inf, 0.5]
    got = decaying.interval_integrals(lo, hi)
    assert got.tolist() == [decaying.definite_integral(a, b) for a, b in zip(lo, hi)]
    assert got[3] == 0.0
    with pytest.raises(InvalidInput, match="does not decay"):
        RadialProfile.constant(1.0).interval_integrals(lo, hi)


def test_piecewise_contiguity_enforced():
    inner = RadialProfile.constant(1.0)
    with pytest.raises(InvalidInput):
        PiecewiseProfile([(0.0, 1.0, inner), (2.0, 3.0, inner)])


def test_piecewise_evaluation():
    left = RadialProfile.constant(2.0)
    right = RadialProfile.monomial(1.0, 0, -1.0)
    p = PiecewiseProfile([(0.0, 1.0, left), (1.0, math.inf, right)])
    assert p.evaluate(0.5) == pytest.approx(2.0)
    assert p.evaluate(2.0) == pytest.approx(math.exp(-2.0))
    # scalar in, scalar-shaped out
    assert np.shape(p.evaluate(0.25)) == ()


# colliding keys, cancelling coefficients and rates one ulp apart
_canonical_terms = st.lists(
    st.tuples(st.sampled_from([1.0, -1.0, 0.5, 1e16, -1e16, 3.0, 1e-300, -0.0]),
              st.integers(0, 2),
              st.sampled_from([-1.0, -0.5, 0.0, 0.5, math.nextafter(-0.5, 0.0), -1e-300])),
    max_size=8,
)


@given(_canonical_terms, _canonical_terms, st.sampled_from([2.0, -1.0, 0.0, 1e-310, 1e300]),
       st.integers(0, 2), st.sampled_from([0.0, 0.5, -0.5, 1e-17, -1.0]))
@settings(max_examples=200, deadline=None)
def test_arithmetic_builds_what_the_constructor_builds(ta, tb, a, power, rate):
    # scale and negation skip the constructor's checks and keep the sorted
    # canonical terms; +, - and mul_monomial merge through the constructor;
    # the terms must be the constructor's merge of the same term lists, bit
    # for bit
    p, q = RadialProfile(ta), RadialProfile(tb)
    assert (p + q).terms == RadialProfile(p.terms + q.terms).terms
    assert p.scale(a).terms == RadialProfile(tuple((c * a, k, lam) for c, k, lam in p.terms)).terms
    assert (p - q).terms == RadialProfile(p.terms + (-q).terms).terms
    assert (-p).terms == RadialProfile(tuple((-c, k, lam) for c, k, lam in p.terms)).terms
    shifted = RadialProfile(tuple((c, k + power, lam + rate) for c, k, lam in p.terms))
    assert p.mul_monomial(power, rate).terms == shifted.terms
    for r in (p + q, p.scale(a), p - q, p.mul_monomial(power, rate)):
        assert all(isinstance(c, float) and c != 0.0 for c, _, _ in r.terms)
        assert [t[1:] for t in r.terms] == sorted({t[1:] for t in r.terms})
