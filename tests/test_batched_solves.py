"""The batched closed-form solves against the per-mode chain, bit for bit.

The reference below is the RadialProfile chain that ``mode_ode.solve_batch``
replaced: one ``_exp_integral`` per profile and sigma, ``_vop_block`` per
Jordan block, ``_mixed_profiles`` per mode, and the row-by-row
``decompose_one_form`` with its ``_parallel_radial_row``.  It solves one
mode at a time through RadialProfile arithmetic; the batched solver must
give every mode the same terms, coefficient and rate bytes included, and
raise the same error type and message for the first failing mode.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import random_one_form, random_rank2_source
from cylspec import cross_section as cx, divergence_solver as dv, fields as F
from cylspec import mode_ode as m
from cylspec.cross_section import modes_at
from cylspec.errors import InvalidInput, ResonantRate
from cylspec.mode_ode import PiecewiseProfile, ProfileTable, RadialProfile

# ---------------------------------------------------------------------------
# the per-mode reference chain
# ---------------------------------------------------------------------------


def _antiderivative_terms(c: float, p: int, lam: float) -> list:
    """(coeff, power) pairs of the antiderivative of c r^p e^{lam r} at rate
    lam, integration constant 0: c r^{p+1} / (p + 1) for lam == 0, else
    e^{lam r} sum_j (-1)^j (p)_j c r^{p-j} / lam^{j+1}, (p)_j falling."""
    if lam == 0.0:
        return [(c / (p + 1), p + 1)]
    return [(c * (-1) ** j * math.perm(p, j) / lam ** (j + 1), p - j) for j in range(p + 1)]


def _limit_at_plus_infinity(profile) -> float:
    """0 if every term decays; raises if any term grows or is constant."""
    for c, p, lam in profile.terms:
        if lam > 0.0 or (lam == 0.0 and (p > 0 or c != 0.0)):
            raise InvalidInput("profile does not decay at +infinity")
    return 0.0


def _value_at_zero(profile) -> float:
    return float(sum(c for c, p, lam in profile.terms if p == 0))


def _exp_integral(profile, sigma, upper=None):
    window = m.RATE_WINDOW * max(1.0, abs(sigma))
    shifted, out = [], []
    for c, p, lam in profile.terms:
        d = lam - sigma
        if 0.0 < abs(d) <= window:
            raise ResonantRate(
                f"source rate {lam!r} lies within {abs(d):.3g} of the homogeneous "
                f"rate {sigma + 0.0!r}"
            )
        parts = _antiderivative_terms(c, p, d)
        shifted.extend((a, q, d) for a, q in parts)
        out.extend((a, q, lam) for a, q in parts)
    F_ = RadialProfile(shifted)
    if upper is None:
        return RadialProfile(out + [(-_value_at_zero(F_), 0, sigma)])
    top = _limit_at_plus_infinity(F_) if upper == math.inf else float(F_.evaluate(upper))
    return RadialProfile([(top, 0, sigma)] + [(-a, q, lam) for a, q, lam in out])


def ref_scalar(mu, alpha):
    if mu == 0.0:
        return ref_damped(0.0, alpha)
    s = math.sqrt(mu)
    for _, p, lam in alpha.terms:
        if lam >= s:
            raise InvalidInput("global source must decay strictly below rate sqrt(mu)")
    return (_exp_integral(alpha, -s) + _exp_integral(alpha, s, math.inf)).scale(-1.0 / (2.0 * s))


def ref_damped(tau, s):
    return _exp_integral(_exp_integral(s, -tau), 0.0)


def _vop_block(q_tilde_1, q_tilde_2, sigma, upper=None):
    y2 = _exp_integral(q_tilde_2, sigma, upper)
    y1 = _exp_integral(q_tilde_1 + y2 if upper is None else q_tilde_1 - y2, sigma, upper)
    return y1, y2


def _mixed_profiles(mu, beta, gamma, hi):
    s = math.sqrt(mu)
    V = m.v_matrix(mu)
    Vinv = m.v_inverse(mu)
    qt = [beta.scale(Vinv[i, 1]) + gamma.scale(Vinv[i, 3]) for i in range(4)]
    y1m, y2m = _vop_block(qt[2], qt[3], -s)
    y1p, y2p = _vop_block(qt[0], qt[1], +s, upper=hi)
    body = [
        y1m.scale(V[i, 2]) + y2m.scale(V[i, 3]) - (y1p.scale(V[i, 0]) + y2p.scale(V[i, 1]))
        for i in (0, 2)
    ]
    if hi == math.inf:
        return body
    c2 = (
        qt[2].mul_monomial(0, s).definite_integral(0.0, hi)
        - qt[3].mul_monomial(1, s).definite_integral(0.0, hi)
    )
    c3 = qt[3].mul_monomial(0, s).definite_integral(0.0, hi)
    _, _, col2, col3 = m.pair_columns(mu)
    tail = [a.scale(c2) + b.scale(c3) for a, b in zip(col2, col3)]
    return [PiecewiseProfile([(0.0, hi, b), (hi, math.inf, t)]) for b, t in zip(body, tail)]


def ref_mixed(mu, beta, gamma, support=None):
    hi = math.inf if support is None else support[1]
    if support is None and any(lam >= math.sqrt(mu) for _, _, lam in beta.terms + gamma.terms):
        raise InvalidInput("global mixed source must decay strictly below rate sqrt(mu)")
    return tuple(_mixed_profiles(mu, beta, gamma, hi))


def ref_decompose(w):
    """The row-by-row decomposition: (pairs, coclosed, harmonic, radial)."""
    cs = w.cs
    pair_terms, coclosed_terms, harmonic_terms, radial_terms = {}, {}, {}, []

    def push(store, coeff, p, lam):
        if coeff != 0.0:
            store.append((coeff, p, lam))

    for (freq, phase), powers, rates, coeffs in w.blocks():
        amp = float(modes_at(cs, "Scalar", freq, phase)[0].polarization)
        if any(freq):
            l_store = pair_terms.setdefault((freq, phase), ([], []))[1]
            grad_phase = "sin" if phase == "cos" else "cos"
            grad_sign = +1.0 if phase == "cos" else -1.0
            k_store = pair_terms.setdefault((freq, grad_phase), ([], []))[0]
            omega = cs.omega(freq)
            wnorm = float(np.linalg.norm(omega))
            what = omega / wnorm
            legs = [(coclosed_terms.setdefault((freq, phase, i), []), eta.polarization / amp)
                    for i, eta in enumerate(modes_at(cs, "CoclosedOneForm", freq, phase))]
        else:
            l_store, k_store = radial_terms, None
            legs = [(harmonic_terms.setdefault(i, []), eta.polarization / amp)
                    for i, eta in enumerate(modes_at(cs, "HarmonicOneForm", freq, phase))]
        for p, lam, C in zip(powers, rates, coeffs):
            tang = C[1:]
            push(l_store, float(C[0]) / amp, p, lam)
            if k_store is not None:
                push(k_store, grad_sign * float(tang @ what) / (amp * wnorm), p, lam)
            for store, unit in legs:
                push(store, float(tang @ unit) / amp, p, lam)

    pairs, coclosed, harmonic = {}, {}, {}
    for key, (b_terms, c_terms) in pair_terms.items():
        b, c = RadialProfile(tuple(b_terms)), RadialProfile(tuple(c_terms))
        if not (b.is_zero() and c.is_zero()):
            pairs[key] = (b, c)
    for store, terms_by_key in ((coclosed, coclosed_terms), (harmonic, harmonic_terms)):
        for key, terms in terms_by_key.items():
            prof = RadialProfile(tuple(terms))
            if not prof.is_zero():
                store[key] = prof
    return pairs, coclosed, harmonic, RadialProfile(tuple(radial_terms))


def ref_parallel_radial_row(h):
    rows = []
    for (freq, phase), (p, lam), C in h.terms():
        if any(freq):
            continue
        row = 0.5 * (C[0, :] + C[:, 0])
        if np.any(row != 0.0):
            rows.append(((freq, phase), (p, lam), row))
    return F.TensorField(h.cs, 1, rows)


def ref_solve_gauge(source, tau):
    cs = source.cs
    w = F.divergence(source)
    if tau != 0.0:
        w = w - ref_parallel_radial_row(source).scale(tau)
    pairs_in, coclosed_in, harmonic_in, radial_in = ref_decompose(w)
    pairs = {}
    for (freq, phase), (b, c) in pairs_in.items():
        pairs[(freq, phase)] = ref_mixed(cs.eigenvalue(freq), b.scale(-1.0), c.scale(-0.5))
    coclosed = {key: ref_scalar(cs.eigenvalue(key[0]), a.scale(-1.0))
                for key, a in coclosed_in.items()}
    harmonic = {idx: ref_damped(tau, a.scale(-1.0)) for idx, a in harmonic_in.items()}
    radial = RadialProfile.zero()
    if not radial_in.is_zero():
        radial = ref_damped(tau, radial_in.scale(-0.5))
    return dv.GaugeField(cs, pairs, coclosed, harmonic, radial)


# ---------------------------------------------------------------------------
# comparison helpers
# ---------------------------------------------------------------------------


def _bits(prof):
    if isinstance(prof, PiecewiseProfile):
        return tuple((lo, hi, _bits(piece)) for lo, hi, piece in prof.pieces)
    return tuple((c.hex(), p, lam.hex()) for c, p, lam in prof.terms)


def _outcome(fn):
    """("ok", value) or (error type, message)."""
    try:
        return "ok", fn()
    except InvalidInput as err:
        return type(err), str(err)


def _reference_batch(solve, params, sources):
    """The per-mode loop: every mode's solution, or the first error."""
    out = []
    for i, x in enumerate(params):
        kind, value = _outcome(lambda: solve(x, *(src[i] for src in sources)))
        if kind != "ok":
            return kind, value
        out.append(value)
    return "ok", out


def _assert_same(system, ref_solve, params, sources, support=None):
    tables = [ProfileTable.of(src) for src in sources]
    got = _outcome(lambda: m.solve_batch(system, params, *tables, support=support))
    want = _reference_batch(ref_solve, params, sources)
    assert got[0] == want[0]
    if got[0] != "ok":
        assert got[1] == want[1]
        return
    flat = (lambda sols: [_bits(p) for sol in sols for p in sol]) if system == "mixed" else (
        lambda sols: [_bits(p) for p in sols])
    assert flat(got[1]) == flat(want[1])


# ---------------------------------------------------------------------------
# draws
# ---------------------------------------------------------------------------

MUS = (0.5, 1.0, 2.0, 4.0, 4.0 * math.pi**2, 13.0)


@st.composite
def profile(draw, rates, min_size=0):
    term = st.tuples(st.floats(-2.0, 2.0, allow_subnormal=False), st.integers(0, 2), rates)
    return RadialProfile(draw(st.lists(term, min_size=min_size, max_size=4)))


def _rates(s, extra=()):
    """-s (the secular branch), 0, -s/2, the extras, and any rate below s."""
    return st.one_of(st.sampled_from((-s, 0.0, -0.5 * s) + tuple(extra)),
                     st.floats(-3.0 * s, s, exclude_max=True, allow_subnormal=False))


@st.composite
def mode_batches(draw, n_sources):
    """1 to 12 modes: each an eigenvalue and n_sources profiles whose rates
    include -sqrt(mu) and 0 exactly; any source may be empty."""
    n = draw(st.integers(1, 12))
    mus = [draw(st.sampled_from(MUS)) for _ in range(n)]
    sources = [[draw(profile(_rates(math.sqrt(mu)))) for mu in mus] for _ in range(n_sources)]
    return mus, sources


@given(mode_batches(1))
@settings(max_examples=150, deadline=None)
def test_batched_scalar_solves_equal_the_chain(batch):
    mus, sources = batch
    _assert_same("scalar", ref_scalar, mus, sources)


@given(mode_batches(2), st.one_of(st.none(), st.floats(0.5, 6.0)))
@settings(max_examples=150, deadline=None)
def test_batched_mixed_solves_equal_the_chain(batch, hi):
    mus, sources = batch
    support = None if hi is None else (0.0, hi)
    _assert_same("mixed", lambda mu, b, g: ref_mixed(mu, b, g, support), mus, sources, support)


@given(st.data(), st.sampled_from((0.0, 0.01, 0.3, 0.5, 2.0)), st.integers(1, 12))
@settings(max_examples=150, deadline=None)
def test_batched_damped_solves_equal_the_chain(data, tau, n):
    rates = st.one_of(st.sampled_from((-tau, 0.0, -2.0 * tau - 1.0)),
                      st.floats(-4.0, 1.0, allow_subnormal=False))
    sources = [[data.draw(profile(rates)) for _ in range(n)]]
    _assert_same("damped", ref_damped, [tau] * n, sources)


@st.composite
def window_edges(draw):
    """A batch whose one marked mode has a rate at the edge of RATE_WINDOW
    around a homogeneous rate: on the edge (inside, raises) or one float
    beyond it (solved)."""
    system = draw(st.sampled_from(("scalar", "mixed", "damped")))
    n = draw(st.integers(1, 6))
    params = [draw(st.sampled_from((0.3, 1.0, 4.0) if system == "damped" else MUS))
              for _ in range(n)]
    at = draw(st.integers(0, n - 1))
    x = params[at]
    sigmas = (-x, 0.0) if system == "damped" else (-math.sqrt(x), math.sqrt(x))
    sigma = draw(st.sampled_from(sigmas))
    edge = sigma - m.RATE_WINDOW * max(1.0, abs(sigma))
    edge = edge if draw(st.booleans()) else float(np.nextafter(edge, -math.inf))
    tail = st.floats(-3.0, -0.5, allow_subnormal=False)
    n_sources = 2 if system == "mixed" else 1
    sources = [[draw(profile(tail)) for _ in range(n)] for _ in range(n_sources)]
    which = draw(st.integers(0, n_sources - 1))
    sources[which][at] = sources[which][at] + RadialProfile.monomial(1.0, draw(st.integers(0, 1)),
                                                                       edge)
    return system, params, sources


REFERENCE = {"scalar": ref_scalar, "mixed": ref_mixed, "damped": ref_damped}


@given(window_edges())
@settings(max_examples=150, deadline=None)
def test_errors_at_the_edge_of_the_rate_window_match_the_chain(problem):
    system, params, sources = problem
    _assert_same(system, REFERENCE[system], params, sources)


def test_the_first_failing_mode_raises_with_its_name():
    # mode 0 is fine, mode 1 grows, mode 2 is resonant: mode 1 raises
    fine = RadialProfile.monomial(1.0, 0, -1.0)
    grows = RadialProfile.monomial(1.0, 0, 3.0)
    resonant = RadialProfile.monomial(1.0, 0, -2.0 + 1e-12)
    table = ProfileTable.of([fine, grows, resonant])
    with pytest.raises(InvalidInput, match=r"^mode b: global source must decay"):
        m.solve_batch("scalar", [1.0, 4.0, 4.0], table,
                      label=["mode a", "mode b", "mode c"].__getitem__)
    with pytest.raises(ResonantRate, match=r"^c: source rate -1.999999999999"):
        m.solve_batch("scalar", [1.0, 4.0, 4.0], ProfileTable.of([fine, fine, resonant]),
                      label="abc".__getitem__)


def test_the_scalar_and_mixed_systems_need_a_positive_eigenvalue():
    table = ProfileTable.of([RadialProfile.monomial(1.0, 0, -1.0)])
    for system, sources in (("scalar", (table,)), ("mixed", (table, table))):
        with pytest.raises(InvalidInput, match="needs mu > 0"):
            m.solve_batch(system, [0.0], *sources)
    with pytest.raises(InvalidInput, match="tau must be finite, got nan"):
        m.solve_batch("damped", [math.nan], table)


_ONE = ProfileTable.of([RadialProfile.monomial(1.0, 0, -2.0)])
# row 0 names mode 1 of a one-mode batch
_PAST = ProfileTable(np.array([1]), np.array([0]), np.array([-2.0]), np.array([1.0]))


@pytest.mark.parametrize("system, sources, match", [
    ("bogus", (_ONE,), "solve_batch takes 'scalar' or 'damped'"),  # was KeyError
    ("scalar", (_ONE, _ONE), r"got 'scalar' and 2$"),  # was TypeError
    ("mixed", (_ONE,), r"got 'mixed' and 1$"),  # was TypeError
    ("damped", (), r"got 'damped' and 0$"),
    ("scalar", (_PAST,), "source rows name modes 1 .. 1, but there are 1 parameters"),
    ("mixed", (_ONE, _PAST), "source rows name modes 1 .. 1"),  # was IndexError
    ("damped", (ProfileTable(*(np.array([x]) for x in (-1, 0, -2.0, 1.0))),), "modes -1 .. -1"),
], ids=["unknown-system", "scalar-two-tables", "mixed-one-table", "damped-no-table",
        "scalar-mode-past-params", "mixed-mode-past-params", "negative-mode"])
def test_a_malformed_batch_call_raises_invalid_input(system, sources, match):
    with pytest.raises(InvalidInput, match=match):
        m.solve_batch(system, [1.0], *sources)


def test_the_profile_table_round_trips_profiles():
    profs = [RadialProfile(((1.0, 0, -1.0), (2.0, 1, -1.0))), RadialProfile.zero(),
             RadialProfile.monomial(-3.0, 2, 0.5)]
    table = ProfileTable.of(profs)
    assert table.mode.tolist() == [0, 0, 2]
    assert table.profiles(4) == profs + [RadialProfile.zero()]


# ---------------------------------------------------------------------------
# decomposition and the whole gauge solve
# ---------------------------------------------------------------------------

CS3 = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
CS2 = cx.TorusCrossSection(2, (2.0 * math.pi, 2.0 * math.pi), 2)


@pytest.mark.parametrize("seed", range(12))
@pytest.mark.parametrize("cs", [CS3, CS2], ids=["d3", "d2"])
def test_decompose_one_form_equals_the_row_by_row_walk(cs, seed):
    rng = np.random.default_rng(seed)
    w = random_one_form(cs, rng, n_terms=int(rng.integers(1, 10)))
    got = dv.decompose_one_form(w)
    pairs, coclosed, harmonic, radial = ref_decompose(w)
    assert list(got.pairs) == list(pairs)
    assert [tuple(map(_bits, v)) for v in got.pairs.values()] == [
        tuple(map(_bits, v)) for v in pairs.values()]
    for mine, theirs in ((got.coclosed, coclosed), (got.harmonic, harmonic)):
        assert list(mine) == list(theirs)
        assert [_bits(v) for v in mine.values()] == [_bits(v) for v in theirs.values()]
    assert _bits(got.radial) == _bits(radial)


def _same_gauge(a, b):
    """Equal dicts, in the same order, of the same profile bits, and the
    same one-form bytes."""
    for mine, theirs in ((a.pairs, b.pairs), (a.coclosed, b.coclosed), (a.harmonic, b.harmonic)):
        assert list(mine) == list(theirs)
        assert [tuple(map(_bits, v)) if isinstance(v, tuple) else _bits(v)
                for v in mine.values()] == [tuple(map(_bits, v)) if isinstance(v, tuple)
                                            else _bits(v) for v in theirs.values()]
    assert _bits(a.radial) == _bits(b.radial)
    wa, wb = a.one_form, b.one_form
    assert wa.keys() == wb.keys()
    assert wa.coeffs.tobytes() == wb.coeffs.tobytes()


@pytest.mark.parametrize("seed", range(10))
@pytest.mark.parametrize("tau", [0.0, 0.3])
def test_solve_gauge_equals_the_per_mode_chain(seed, tau):
    rng = np.random.default_rng(100 + seed)
    cs = CS3 if seed % 2 else CS2
    h = random_rank2_source(cs, rng, n_terms=int(rng.integers(1, 9)),
                            include_parallel_radial=tau > 0.0)
    _same_gauge(dv.solve_gauge(h, dv.DivergenceConfig(tau=tau)), ref_solve_gauge(h, tau))


@pytest.mark.parametrize("seed", range(6))
def test_parallel_radial_row_equals_the_term_walk(seed):
    rng = np.random.default_rng(200 + seed)
    h = random_rank2_source(CS3, rng, n_terms=8)
    got = dv.modified_divergence(h, 0.3)
    want = F.divergence(h) - ref_parallel_radial_row(h).scale(0.3)
    assert got.keys() == want.keys()
    assert got.coeffs.tobytes() == want.coeffs.tobytes()
