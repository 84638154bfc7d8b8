"""The columnar field operators against a per-term reference, byte for byte.

The reference below is the per-term dict layer that ``fields`` replaced: a
field is {(freq, phase): {(power, rate): C}}, and every operator visits the
terms in sorted order and accumulates each result term with ``_accumulate``
(a copy on first sight, ``+`` on every later one).  Like ``roll_operators``
in test_fd_oracle.py it is slow and obvious; the columnar operators must
give the same keys, in the same order, and the same coefficient bytes,
signed zeros and cancelled (zero) terms included.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cylspec import cross_section as cx, fields as F
from cylspec.errors import InvalidInput
from cylspec.mode_ode import RadialProfile

# tangential derivative flips the trig branch; the sign rides along
_D_TRIG = {"cos": ("sin", -1.0), "sin": ("cos", +1.0)}


def _accumulate(data, mode_key, prof_key, coeff):
    p, lam = prof_key
    prof_key = (int(p), float(lam) + 0.0)
    per_mode = data.setdefault(mode_key, {})
    if prof_key in per_mode:
        per_mode[prof_key] = per_mode[prof_key] + coeff
    else:
        per_mode[prof_key] = np.array(coeff, dtype=float)


def _terms(data):
    for mode_key in sorted(data):
        for prof_key in sorted(data[mode_key]):
            yield mode_key, prof_key, data[mode_key][prof_key]


def ref(field):
    """A field as the reference's dict, term by term."""
    out = {}
    for key, pk, C in field.terms():
        _accumulate(out, key, pk, C)
    return out


def ref_sum(*datas):
    out = {}
    for data in datas:
        for key, pk, C in _terms(data):
            _accumulate(out, key, pk, C)
    return out


def ref_scale(data, a):
    out = {}
    for key, pk, C in _terms(data):
        _accumulate(out, key, pk, a * C)
    return out


def ref_multiply_profile(data, profile):
    out = {}
    for key, (p, lam), C in _terms(data):
        for c2, p2, lam2 in profile.terms:
            _accumulate(out, key, (p + p2, lam + lam2), c2 * C)
    return out


def ref_gradient(cs, rank, data):
    out = {}
    shape = (cs.dim + 1,) * (rank + 1)
    for (freq, phase), (p, lam), C in _terms(data):
        if lam != 0.0:
            G = np.zeros(shape)
            G[0] = lam * C
            _accumulate(out, (freq, phase), (p, lam), G)
        if p > 0:
            G = np.zeros(shape)
            G[0] = p * C
            _accumulate(out, (freq, phase), (p - 1, lam), G)
        omega = cs.omega(freq)
        if np.any(omega != 0.0):
            flip, sign = _D_TRIG[phase]
            G = np.zeros(shape)
            for j in range(cs.dim):
                if omega[j] != 0.0:
                    G[j + 1] = sign * omega[j] * C
            _accumulate(out, (freq, flip), (p, lam), G)
    return out


def ref_divergence(cs, rank, data):
    out = {}
    for key, pk, C in _terms(ref_gradient(cs, rank, data)):
        _accumulate(out, key, pk, -np.trace(C, axis1=0, axis2=1))
    return out


def ref_sym_grad(cs, data):
    out = {}
    for key, pk, C in _terms(ref_gradient(cs, 1, data)):
        _accumulate(out, key, pk, C + C.T)
    return out


def ref_trace(data):
    out = {}
    for key, pk, C in _terms(data):
        _accumulate(out, key, pk, np.trace(C))
    return out


def ref_rough_laplacian(cs, rank, data):
    out = {}
    for key, pk, C in _terms(ref_gradient(cs, rank + 1, ref_gradient(cs, rank, data))):
        _accumulate(out, key, pk, -np.trace(C, axis1=0, axis2=1))
    return out


def ref_linearized_ricci(cs, data):
    hess = ref_gradient(cs, 1, ref_gradient(cs, 0, ref_trace(data)))
    full = ref_sum(ref_rough_laplacian(cs, 2, data),
                   ref_scale(ref_sym_grad(cs, ref_divergence(cs, 2, data)), -1.0))
    return ref_scale(ref_sum(full, ref_scale(hess, -1.0)), 0.5)


def _table(items):
    powers = np.array([p for (p, _), _ in items])
    rates = np.array([lam for (_, lam), _ in items])
    coeffs = np.array([np.ravel(C) for _, C in items])
    return powers, rates, coeffs


def ref_evaluate(cs, rank, data, r, xs):
    """The former ``evaluate``: a trig table and one radial table per key."""
    r = np.atleast_1d(np.asarray(r, dtype=float))
    d = cs.dim
    keys = sorted(data)
    omegas = np.array([cs.omega(freq) for freq, _ in keys]).reshape(-1, d)
    trig = xs.reshape(-1, d) @ omegas.T
    is_cos = np.array([phase == "cos" for _, phase in keys], dtype=bool)
    trig[:, is_cos] = np.cos(trig[:, is_cos])
    trig[:, ~is_cos] = np.sin(trig[:, ~is_cos])
    rr = r.reshape(-1, 1)
    radial = np.empty((r.size, len(keys), (d + 1) ** rank))
    for m, key in enumerate(keys):
        powers, rates, coeffs = _table(sorted(data[key].items()))
        radial[:, m] = (rr**powers * np.exp(rr * rates)) @ coeffs
    return (trig @ radial).reshape(r.shape + xs.shape[:-1] + (d + 1,) * rank)


def ref_tube_integrand(cs, a, b, same):
    terms = []
    for mode_key in sorted(a.keys() & b.keys()):
        pa, la, ca = _table(sorted(a[mode_key].items()))
        pb, lb, cb = (pa, la, ca) if same else _table(sorted(b[mode_key].items()))
        factor = cs.volume if not any(mode_key[0]) else cs.volume / 2.0
        dots = factor * (ca @ cb.T)
        terms.extend(zip(dots.ravel().tolist(), (pa[:, None] + pb[None, :]).ravel().tolist(),
                         (la[:, None] + lb[None, :]).ravel().tolist()))
    return RadialProfile(terms)


def same_bytes(field, data):
    """Equal keys in equal order and equal coefficient bytes."""
    got = [(key, pk, np.asarray(C).shape, np.asarray(C).tobytes())
           for key, pk, C in field.terms()]
    want = [(key, pk, C.shape, C.tobytes()) for key, pk, C in _terms(data)]
    assert got == want


# ---------------------------------------------------------------------------
# inputs: colliding (power, rate) keys, cancelling terms, -0.0 entries, both
# phases at one frequency, and tables on both sides of the 16-row sort switch
# ---------------------------------------------------------------------------

_VALUES = st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, -0.25, 1e16, -1e16, 3.0, 1e-300])
_RATES = (-1.5, -0.5, 0.0, 0.5, -1e-300)


@st.composite
def _cross_sections(draw):
    d = draw(st.sampled_from((1, 2, 3)))
    sides = tuple(draw(st.sampled_from((1.0, 1.3, 2.0 * math.pi))) for _ in range(d))
    return cx.TorusCrossSection(d, sides, 2)


@st.composite
def _terms_of(draw, cs, rank, max_size=40):
    # keys that name a mode: canonical frequencies, no sin at frequency zero
    freqs = draw(st.lists(st.sampled_from(cs.canonical_freqs()), min_size=1, max_size=3))
    key = st.sampled_from([(k, phase) for k in freqs for phase in ("cos", "sin")
                           if any(k) or phase == "cos"])
    prof = st.tuples(st.integers(0, 2), st.sampled_from(_RATES))
    n = (cs.dim + 1) ** rank
    entries = st.lists(_VALUES, min_size=n, max_size=n).map(
        lambda v: np.array(v).reshape((cs.dim + 1,) * rank))
    return draw(st.lists(st.tuples(key, prof, entries), max_size=max_size))


@st.composite
def _fields(draw, rank=None, count=1):
    cs = draw(_cross_sections())
    rank = draw(st.sampled_from((0, 1, 2))) if rank is None else rank
    terms = [draw(_terms_of(cs, rank)) for _ in range(count)]
    return cs, rank, terms


def _singletons(cs, rank, terms):
    """The reference's field of terms: the + chain of one-term fields."""
    return ref_sum(*[{key: {(p, lam): np.array(C)}} for key, (p, lam), C in terms])


@given(_fields(count=3))
@settings(max_examples=80, deadline=None)
def test_construction_and_sums_equal_the_reference(case):
    cs, rank, (ta, tb, tc) = case
    a, b, c = (F.TensorField(cs, rank, t) for t in (ta, tb, tc))
    for field, terms in ((a, ta), (b, tb), (c, tc)):
        same_bytes(field, _singletons(cs, rank, terms))
    same_bytes(F.sum_fields(cs, rank, (a, b, c)), ref_sum(ref(a), ref(b), ref(c)))
    same_bytes(a - b, ref_sum(ref(a), ref_scale(ref(b), -1.0)))
    same_bytes(a + a.scale(-1.0), ref_sum(ref(a), ref_scale(ref(a), -1.0)))
    # three parts on one key table: each key sums its three rows left to right
    parts = (c.scale(1e16), c, c.scale(-1e16))
    same_bytes(F.sum_fields(cs, rank, parts), ref_sum(*map(ref, parts)))


@given(_fields(), st.sampled_from([2.0, -1.0, 0.0, -0.0, 1e-310]),
       st.lists(st.tuples(_VALUES, st.integers(0, 1), st.sampled_from(_RATES)), max_size=3))
@settings(max_examples=80, deadline=None)
def test_scale_and_profile_products_equal_the_reference(case, a, profile_terms):
    cs, rank, (terms,) = case
    h = F.TensorField(cs, rank, terms)
    same_bytes(h.scale(a), ref_scale(ref(h), a))
    profile = RadialProfile(profile_terms)
    same_bytes(h.multiply_profile(profile), ref_multiply_profile(ref(h), profile))


@given(_fields())
@settings(max_examples=80, deadline=None)
def test_derivatives_equal_the_reference(case):
    cs, rank, (terms,) = case
    h = F.TensorField(cs, rank, terms)
    same_bytes(F.gradient(h), ref_gradient(cs, rank, ref(h)))
    same_bytes(F.rough_laplacian(h), ref_rough_laplacian(cs, rank, ref(h)))
    if rank >= 1:
        same_bytes(F.divergence(h), ref_divergence(cs, rank, ref(h)))
    if rank == 1:
        same_bytes(F.sym_grad(h), ref_sym_grad(cs, ref(h)))
    if rank == 2:
        same_bytes(F.trace(h), ref_trace(ref(h)))
        same_bytes(F.linearized_ricci(h), ref_linearized_ricci(cs, ref(h)))


# a key whose lone term is r^2 beside another key: numpy squares the lone
# term by its scalar-exponent fast path (x * x), which the table must keep
_LONE_SQUARE = (cx.TorusCrossSection(2, (1.0, 1.3), 2), 0,
                ([(((0, 1), "cos"), (2, -0.5), np.array(1.0)),
                  (((0, 1), "sin"), (1, -0.5), np.array(1.0))], []))


@given(_fields(count=2), st.booleans())
@example(_LONE_SQUARE, True)
@settings(max_examples=80, deadline=None)
def test_evaluate_and_tube_integrand_equal_the_reference(case, same):
    cs, rank, (ta, tb) = case
    a = F.TensorField(cs, rank, ta)
    b = a if same else F.TensorField(cs, rank, tb)
    r = np.linspace(0.0, 2.0, 7)  # r^2 by pow and by x * x differ at 1/3, 2/3, 4/3
    xs = np.linspace(0.0, 1.0, 3 * cs.dim).reshape(3, cs.dim)
    with np.errstate(all="ignore"):
        got, want = a.evaluate(r, xs), ref_evaluate(cs, rank, ref(a), r, xs)
    assert got.tobytes() == want.tobytes()
    assert F.tube_integrand(a, b).terms == ref_tube_integrand(cs, ref(a), ref(b), same).terms


def test_a_key_with_both_phases_and_a_cancelled_term():
    # cos and sin at one frequency, a term that cancels to (signed) zero and
    # a colliding (power, rate) key across the two fields
    cs = cx.TorusCrossSection(2, (1.0, 1.3), 2)
    C = np.array([[1.0, -0.0, 2.0], [0.5, 1e16, -1.0], [0.0, 3.0, -0.0]])
    a = F.TensorField(cs, 2, [(((1, 0), "cos"), (1, -0.5), C), (((1, 0), "sin"), (0, -0.5), -C),
                              (((0, 0), "cos"), (0, 0.0), C)])
    b = F.TensorField(cs, 2, [(((1, 0), "cos"), (1, -0.5), -C), (((1, 0), "sin"), (1, -0.5), C)])
    total = a + b
    same_bytes(total, ref_sum(ref(a), ref(b)))
    cancelled = [C for key, _, C in total.terms() if key == ((1, 0), "cos")]
    assert total.n_terms == 4 and len(cancelled) == 1 and not cancelled[0].any()
    assert total.prune().n_terms == 3
    same_bytes(F.linearized_ricci(total), ref_linearized_ricci(cs, ref(total)))


@pytest.mark.parametrize("n_terms", [3, 16, 17, 60])
def test_the_python_and_numpy_sorts_merge_alike(n_terms):
    # the merge switches from a Python sort to a numpy one above 16 rows
    rng = np.random.default_rng(n_terms)
    cs = cx.TorusCrossSection(2, (1.0, 2.0), 1)
    keys = [(((int(k), 1), ("cos", "sin")[int(s)]), (int(p), float(lam)))
            for k, s, p, lam in zip(rng.integers(0, 2, n_terms), rng.integers(0, 2, n_terms),
                                    rng.integers(0, 2, n_terms),
                                    rng.choice([-1.0, 0.0, 0.5], n_terms))]
    terms = [(key, pk, rng.choice([0.0, -0.0, 1e16, -1e16, 1.0], size=(3,)))
             for key, pk in keys]
    h = F.TensorField(cs, 1, terms)
    same_bytes(h, _singletons(cs, 1, terms))
    same_bytes(F.gradient(h), ref_gradient(cs, 1, ref(h)))
    parts = (h.scale(1e16), h, h.scale(-1e16))  # one key table, three rows a key
    same_bytes(F.sum_fields(cs, 1, parts), ref_sum(*map(ref, parts)))


# ---------------------------------------------------------------------------
# FieldBuilder: one merge of many parts equals the sum of the one-part fields
# ---------------------------------------------------------------------------

# profile terms on few (power, rate) keys, so parts collide, with zero and
# cancelling coefficients (the profile drops them) and extremes whose sums
# depend on their order
_PROFILE = st.lists(st.tuples(st.sampled_from([0.0, -0.0, 1.0, -1.0, 0.5, 1e16, -1e16, 1e-300]),
                              st.integers(0, 1), st.sampled_from((-0.5, 0.0))), max_size=3)


@st.composite
def _builds(draw):
    """A cross section, a rank and a list of parts: (appender, args), each
    with the one-part field the public builders give for it."""
    d = draw(st.sampled_from((1, 2, 3)))
    cs = cx.TorusCrossSection(d, tuple(draw(st.sampled_from((1.0, 1.3))) for _ in range(d)), 1)
    rank = draw(st.sampled_from((0, 1, 2)))
    kinds = {0: ("Scalar",), 1: ("CoclosedOneForm", "HarmonicOneForm"),
             2: ("TTTensor", "PureTrace")}[rank]
    # few modes, so parts repeat keys
    pool = {k: cx.build_spectrum(cs, k).modes[:2] for k in ("Scalar", "CoclosedOneForm") + kinds}
    scalars, one_forms = pool["Scalar"], pool["CoclosedOneForm"]
    ways = [("mode", kind) for kind in kinds if pool[kind]] + [("radial", None), ("constant", None)]
    ways += [("pair", None)] if rank == 1 else [("mixed", None)] if rank == 2 and one_forms else []
    parts = []
    for _ in range(draw(st.integers(0, 8))):
        way, kind = draw(st.sampled_from(ways))
        prof = RadialProfile(draw(_PROFILE))
        if way == "mode":
            m = draw(st.sampled_from(pool[kind]))
            parts.append(((way, m, prof), F.from_mode_profile(cs, m, prof)))
        elif way == "radial":
            m = draw(st.sampled_from(scalars))
            one = {0: F.scalar_field, 1: F.radial_one_form, 2: F.rr_tensor}[rank]
            parts.append(((way, m, prof), one(cs, m, prof)))
        elif way == "pair":
            m = draw(st.sampled_from(scalars))
            l_prof = RadialProfile(draw(_PROFILE))
            parts.append(((way, m, prof, l_prof), F.pair_one_form(cs, m, prof, l_prof)))
        elif way == "mixed":
            m = draw(st.sampled_from(one_forms))
            parts.append(((way, m, prof), F.mixed_pair_tensor(cs, m, prof)))
        else:
            C = np.array(draw(st.lists(_VALUES, min_size=(d + 1) ** rank,
                                       max_size=(d + 1) ** rank))).reshape((d + 1,) * rank)
            parts.append(((way, C, prof),
                          F.constant_tensor_field(cs, C).multiply_profile(prof)))
    return cs, rank, parts


@given(_builds())
@settings(max_examples=150, deadline=None)
def test_the_builder_equals_the_sum_of_one_part_fields(case):
    cs, rank, parts = case
    builder = F.FieldBuilder(cs, rank)
    for (way, *args), _ in parts:
        assert getattr(builder, way)(*args) is builder
    got = builder.field()
    want = F.sum_fields(cs, rank, [one for _, one in parts])
    same_bytes(got, ref(want))
    assert got.columns().keys == want.columns().keys
    assert np.array_equal(np.signbit(got.columns().coefficients),
                          np.signbit(want.columns().coefficients))
    # and each one-part field is its terms, c C on the part's key
    for (way, *args), one in parts:
        if way == "constant":
            C, prof = args
            terms = [((((0,) * cs.dim), "cos"), (p, lam), c * C) for c, p, lam in prof.terms]
            same_bytes(one, _singletons(cs, rank, terms))


def test_the_builder_adds_a_keys_rows_in_part_order():
    # (1e16 - 1e16) + 1 is 1, but (1 - 1e16) + 1e16 is 0
    cs = cx.TorusCrossSection(2, (1.0, 1.3), 1)
    builder, parts = F.FieldBuilder(cs, 1), []
    for c in (1e16, -1e16, 1.0):
        prof = RadialProfile.monomial(c, 1, -0.5)
        builder.constant(np.ones(3), prof)
        parts.append(F.constant_tensor_field(cs, np.ones(3)).multiply_profile(prof))
    got = builder.field()
    same_bytes(got, ref(F.sum_fields(cs, 1, parts)))
    assert got.columns().coefficients.tolist() == [[1.0, 1.0, 1.0]]


def test_the_builder_checks_its_parts():
    cs = cx.TorusCrossSection(3, (1.0, 1.0, 1.0), 1)
    phi, eta, tt = (cx.build_spectrum(cs, k).modes[1]
                    for k in ("Scalar", "CoclosedOneForm", "TTTensor"))
    one = RadialProfile.constant(1.0)
    for build, message in [
        (lambda: F.FieldBuilder(cs, 2).mode(phi, one), "rank-0 mode is no part of a rank-2"),
        (lambda: F.FieldBuilder(cs, 1).radial(eta, one), "radial part needs a scalar mode"),
        (lambda: F.FieldBuilder(cs, 2).pair(phi, one, one), "pair part needs a one-form field"),
        (lambda: F.FieldBuilder(cs, 2).mixed(tt, one), "mixed part needs a 1-form mode"),
        (lambda: F.FieldBuilder(cs, 1).mixed(eta, one), "mixed part needs a 1-form mode"),
        (lambda: F.FieldBuilder(cs, 1).constant(np.eye(4), one), r"needs shape \(4,\)"),
    ]:
        with pytest.raises(InvalidInput, match=message):
            build()
    empty = F.FieldBuilder(cs, 2).mode(tt, RadialProfile.zero()).field()
    zero = F.TensorField.zero(cs, 2)
    assert empty.n_terms == 0 and empty.columns().coefficients.shape == (0, 4, 4)
    same_bytes(empty, ref(zero))


@given(_fields())
@settings(max_examples=60, deadline=None)
def test_columns_agree_with_blocks(case):
    cs, rank, (terms,) = case
    h = F.TensorField(cs, rank, terms)
    cols = h.columns()
    blocks = list(h.blocks())
    assert list(cols.keys) == h.keys() == [key for key, *_ in blocks]
    assert cols.starts[-1] == h.n_terms == len(cols.powers) == len(cols.rates)
    assert cols.coefficients.shape == (h.n_terms,) + (cs.dim + 1,) * rank
    for i, (key, powers, rates, coeffs) in enumerate(blocks):
        lo, hi = cols.starts[i], cols.starts[i + 1]
        assert all(cols.key_of(row) == key for row in range(lo, hi))
        assert cols.powers[lo:hi].tolist() == powers
        assert cols.rates[lo:hi].tobytes() == np.array(rates).tobytes()
        assert cols.coefficients[lo:hi].tobytes() == coeffs.tobytes()
