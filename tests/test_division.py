"""The pure-Python kernel against test-local references.

Exact division: every divisor is a primitive linear form, rejected by
evaluation at the probe points or divided by synthetic division, and
checked against the schoolbook division.  The packed monomials in the
kernel's coordinates: every routine that reads or moves an exponent
gives the value, text and canonical tuple that the same routine gives
on a dict from exponent tuples in h, and a product whose degree would
not fit its field raises.

The references work on dicts from exponent tuples in h to
coefficients; ``packed`` builds the kernel's polynomial of such a dict
through the kernel's constructors, and ``tuples`` reads one back as the
canonical tuple of its factor key (``fac_tuple``), so no test knows the
packed layout or the stored coordinates."""

import random
from itertools import product
from math import comb, gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdeform.errors import ResourceLimitError
from hdeform.kernel import _poly_py as K


def packed(n, terms):
    """The kernel polynomial of terms, a dict from exponent tuple to
    coefficient, built from p_const, p_var and p_mul and summed by
    p_lincomb in the order of terms."""
    monos = []
    for exp, c in terms.items():
        mono = K.p_const(n, c)
        for i, e in enumerate(exp):
            for _ in range(e):
                mono = K.p_mul(mono, K.p_var(n, i))
        monos.append(mono)
    return K.p_lincomb([(1, mono) for mono in monos])


def tuples(n, poly):
    """The dict from exponent tuple to coefficient of a kernel
    polynomial."""
    return dict(K.fac_tuple(K.fac_key(n, poly)))


def _accumulate(res, e, c):
    s = res.get(e, 0) + c
    if s:
        res[e] = s
    else:
        res.pop(e, None)


def t_lead(a):
    """The grlex-leading exponent tuple of a."""
    return max(a, key=lambda e: (sum(e), e))


def t_sub(a, b):
    res = dict(a)
    for e, c in b.items():
        _accumulate(res, e, -c)
    return res


def t_mul(a, b):
    if len(b) < len(a):
        a, b = b, a
    res = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            _accumulate(res, tuple(x + y for x, y in zip(e1, e2)), c1 * c2)
    return res


def schoolbook_divexact(n, a, b):
    """Reference division on exponent tuples that rescans the remainder
    for its lead."""
    if not a:
        return {}
    b = tuples(n, b)
    be = t_lead(b)
    bc = b[be]
    r = tuples(n, a)
    q = {}
    while r:
        re = t_lead(r)
        rc = r[re]
        qe = tuple(x - y for x, y in zip(re, be))
        if sum(re) < sum(be) or min(qe) < 0 or rc % bc:
            return None
        q[qe] = rc // bc
        r = t_sub(r, t_mul({qe: rc // bc}, b))
    return packed(n, q)


def divexact(n, a, b):
    """p_divexact by the primitive linear form b, passed as its key."""
    return K.p_divexact(a, K.fac_key(n, b))


def linear_form(nvars, i, j, k):
    """h_i - h_j + k, or h_i + k when j is None (0-based indices)."""
    terms = [(1, K.p_var(nvars, i)), (k, K.p_one(nvars))]
    if j is not None:
        terms.append((-1, K.p_var(nvars, j)))
    return K.p_lincomb(terms)


def form_of(nvars, coeffs, k):
    """The primitive part (positive lead) of sum coeffs[v] h_{v+1} + k;
    coeffs may be shorter than nvars and must not be all zero."""
    form = K.p_lincomb([(c, K.p_var(nvars, v)) for v, c in enumerate(coeffs)]
                       + [(k, K.p_one(nvars))])
    return K.p_primitive_sign(form)[2]


def named_forms(nvars):
    """Non-monic forms in several variables: 2*h1-h2-1, 3*h1-2*h2+h3+5
    (3*h1-2*h2+5 in two variables) and 3*h1+5*h2-7."""
    return [form_of(nvars, [2, -1], -1),
            form_of(nvars, [3, -2, 1][:nvars], 5),
            form_of(nvars, [3, 5], -7)]


def vanishing_form(nvars, i, j):
    """The primitive linear form in h_i and h_j (i < j) that vanishes at
    both PROBE_POINTS, so that the probe rejects no dividend: the
    division alone decides.  Its lead coefficient is far from 1."""
    p, q = K.PROBE_POINTS
    a, b = q[j] - p[j], p[i] - q[i]
    coeffs = [0] * nvars
    coeffs[i], coeffs[j] = a, b
    form = form_of(nvars, coeffs, -(a * p[i] + b * p[j]))
    assert all(K.p_eval(form, pt[:nvars]) == 0 for pt in K.PROBE_POINTS)
    return form


def random_poly(rng, nvars, terms, deg, span):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = rng.randint(-span, span)
        if c:
            out[exp] = c
    return packed(nvars, out)


def random_divisor(rng, nvars):
    """A family form, a named non-monic form, or a random primitive linear
    form in one to nvars variables with coefficients in -5..5."""
    kind = rng.random()
    if kind < 0.4:
        i, j = rng.sample(range(nvars), 2)
        return linear_form(nvars, i, j if rng.random() < 0.7 else None,
                           rng.randint(-40, 40))
    if kind < 0.6:
        return rng.choice(named_forms(nvars))
    coeffs = [0] * nvars
    for v in rng.sample(range(nvars), rng.randint(1, nvars)):
        coeffs[v] = rng.choice([-5, -3, -2, -1, 1, 2, 3, 4, 5])
    return form_of(nvars, coeffs, rng.randint(-40, 40))


def test_products_divide_back():
    rng = random.Random(21)
    for _ in range(400):
        nvars = rng.randint(2, 5)
        b = random_divisor(rng, nvars)
        q = random_poly(rng, nvars, terms=8, deg=4, span=50)
        a = K.p_mul(q, b)
        assert divexact(nvars, a, b) == q
        assert divexact(nvars, a, b) == schoolbook_divexact(nvars, a, b)


def test_far_offsets_divide_back():
    # offsets past any trial-division window, with repeated factors
    rng = random.Random(22)
    for k in (-40, -33, 29, 40, 10**12):
        for b in (linear_form(3, 0, 2, k), form_of(3, [2, 0, -1], k),
                  form_of(3, [3, -2, 1], 5 + k)):
            q = K.p_mul(K.p_mul(b, linear_form(3, 1, None, -k)),
                        random_poly(rng, 3, terms=5, deg=3, span=9))
            assert divexact(3, K.p_mul(q, b), b) == q


def test_non_multiples_are_rejected():
    rng = random.Random(23)
    for _ in range(400):
        nvars = rng.randint(2, 5)
        b = random_divisor(rng, nvars)
        q = random_poly(rng, nvars, terms=8, deg=4, span=50)
        # b is not constant, so it divides no nonzero constant
        a = K.p_lincomb([(1, K.p_mul(q, b)),
                         (rng.choice([-3, 1, 7]), K.p_one(nvars))])
        assert divexact(nvars, a, b) is None
        assert schoolbook_divexact(nvars, a, b) is None


def test_quotient_matches_schoolbook():
    rng = random.Random(24)
    for _ in range(300):
        nvars = rng.randint(1, 4)
        b = (random_divisor(rng, nvars) if nvars > 1
             else linear_form(1, 0, None, 3))
        a = random_poly(rng, nvars, terms=10, deg=5, span=30)
        if rng.random() < 0.5:
            a = K.p_mul(a, b)
        assert divexact(nvars, a, b) == schoolbook_divexact(nvars, a, b)


def test_division_decides_where_the_probe_cannot():
    # b vanishes at both probe points, so every dividend passes the probe.
    # For a perturbation c * h_i * m with 0 < c < lead(b), a floor
    # division by lead(b) would drop c and leave a zero last remainder: it
    # is rejected only by checking that each quotient coefficient divides.
    rng = random.Random(25)
    for i, j in ((0, 1), (0, 2), (1, 2)):
        b = vanishing_form(3, i, j)
        lead = K.p_lead(b)[1]
        assert lead > 1
        for _ in range(40):
            q = random_poly(rng, 3, terms=6, deg=3, span=40)
            a = K.p_mul(q, b)
            assert divexact(3, a, b) == q
            mono = [rng.randint(0, 2) for _ in range(3)]
            mono[i] += 1
            for extra in (packed(3, {tuple(mono): rng.randint(1, lead - 1)}),
                          K.p_const(3, rng.randint(1, 9))):
                # a monomial is no multiple of b
                a1 = K.p_lincomb([(1, a), (1, extra)])
                assert divexact(3, a1, b) is None
            a2 = K.p_lincomb(
                [(1, a), (1, random_poly(rng, 3, terms=3, deg=2, span=9))])
            assert divexact(3, a2, b) == schoolbook_divexact(3, a2, b)
            key = K.fac_key(3, b)
            facs = {key: 2}
            assert K.p_cancel(a, facs) == q
            assert facs == {key: 1}


def test_probe_points_keep_small_linear_forms_nonzero():
    for pt in K.PROBE_POINTS:
        assert len(pt) == len(K.PROBE_POINTS[0]) >= 6
        for k in range(-40, 41):
            assert all(x + k for x in pt)
            assert all(x - y + k for i, x in enumerate(pt)
                       for j, y in enumerate(pt) if i != j)


coords = st.integers(min_value=-6, max_value=6)


@st.composite
def primitive_linear(draw, nvars, offsets=st.integers(-60, 60), at=None):
    """A primitive linear form with coefficients in -5..5; when at is a
    point, the offset makes the form vanish there."""
    coeffs = draw(st.lists(st.integers(-5, 5), min_size=nvars,
                           max_size=nvars).filter(any))
    if at is None:
        k = draw(offsets)
    else:
        k = -sum(c * x for c, x in zip(coeffs, at))
    return form_of(nvars, coeffs, k)


@st.composite
def divisor_and_quotient(draw):
    """A primitive linear form, which may vanish at a probe point, and a
    quotient."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    i, j = draw(st.permutations(range(nvars)))[:2]
    pt = draw(st.sampled_from(K.PROBE_POINTS))
    kind = draw(st.sampled_from(["family", "vanishing family", "general",
                                 "vanishing general"]))
    if kind == "family":
        b = linear_form(nvars, i, j, draw(st.integers(-60, 60)))
    elif kind == "vanishing family":
        b = linear_form(nvars, i, j, pt[j] - pt[i])     # b(pt) == 0
    elif kind == "general":
        b = draw(primitive_linear(nvars))
    else:
        b = draw(primitive_linear(nvars, at=pt))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * nvars), coords),
        min_size=1, max_size=6))
    q = {}
    for e, c in terms:
        if c:
            q[e] = c
    return nvars, b, packed(nvars, q)


@settings(max_examples=300, deadline=None)
@given(divisor_and_quotient())
def test_probe_never_rejects_a_true_divisor(bq):
    n, b, q = bq
    a = K.p_mul(q, b)
    assert divexact(n, a, b) == q


@settings(max_examples=200, deadline=None)
@given(divisor_and_quotient(), st.integers(min_value=1, max_value=50))
def test_constant_perturbation_is_rejected(bq, c):
    n, b, q = bq
    a = K.p_lincomb([(1, K.p_mul(q, b)), (c, K.p_one(n))])
    # a nonzero constant is never a multiple of a non-constant b
    assert divexact(n, a, b) is None
    assert schoolbook_divexact(n, a, b) is None


@st.composite
def numerator_and_factors(draw):
    """A numerator built from linear factors, the first of which vanishes
    at a probe point, and a multiplicity for each factor."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    pt = draw(st.sampled_from(K.PROBE_POINTS))
    facs = {}
    for idx in range(draw(st.integers(min_value=1, max_value=4))):
        i, j = draw(st.permutations(range(nvars)))[:2]
        if idx == 0:
            k = pt[j] - pt[i]      # h_i - h_j + k vanishes at pt
        else:
            k = draw(st.integers(min_value=-40, max_value=40))
            if draw(st.booleans()):
                j = None
        form = linear_form(nvars, i, j, k)
        facs[K.fac_key(nvars, K.p_primitive_sign(form)[2])] = draw(
            st.integers(min_value=1, max_value=3))
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), coords),
        min_size=1, max_size=4))
    num = packed(nvars, {e: c for e, c in terms if c}) or K.p_const(nvars, 1)
    for n_key, key in enumerate(facs):
        for _ in range(draw(st.integers(min_value=1 if n_key == 0 else 0,
                                        max_value=facs[key] + 1))):
            num = K.p_mul(num, K.fac_poly(key))
    return nvars, num, facs


@settings(max_examples=200, deadline=None)
@given(numerator_and_factors())
def test_normalize_carries_probe_values_through_divisions(case):
    # p_cancel divides the probe values by f(pt) after each exact division
    # and evaluates again where f(pt) == 0; the result must be that of
    # dividing by repeated p_divexact, which probes afresh every time
    n, num, facs = case
    want_num, want = num, {}
    for key in sorted(facs, key=K.fac_tuple):
        m = facs[key]
        while m:
            q = K.p_divexact(want_num, key)
            if q is None:
                break
            want_num, m = q, m - 1
        if m:
            want[key] = m
    assert any(K.p_eval(K.fac_poly(key), pt[:n]) == 0
               for key in facs for pt in K.PROBE_POINTS)
    assert K.p_cancel(num, facs) == want_num
    assert facs == want


# -- the family-form fast paths -----------------------------------------------

OFFSETS = st.sampled_from([0, 1, -1, 10**12, -10**12]) | st.integers(-60, 60)


@st.composite
def family_and_poly(draw):
    """A family form h_i + k or h_i - h_j + k (i < j) in 1-5 variables,
    its (i, j, k), and a polynomial that may be a constant."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    i = draw(st.integers(min_value=0, max_value=nvars - 1))
    j = None
    if i + 1 < nvars and draw(st.booleans()):
        j = draw(st.integers(min_value=i + 1, max_value=nvars - 1))
    k = draw(OFFSETS)
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                  st.integers(-20, 20) | st.sampled_from([10**12, -10**12])),
        max_size=6))
    poly = packed(nvars, {e: c for e, c in terms if c})
    if draw(st.booleans()):
        poly = K.p_const(nvars, draw(st.integers(-5, 5)))
    return nvars, (i, j, k), linear_form(nvars, i, j, k), poly


@settings(max_examples=300, deadline=None)
@given(family_and_poly(), st.integers(1, 3))
def test_family_product_matches_p_mul(case, m):
    n, fam, form, poly = case
    key = K.fac_key(n, form)
    assert K.fac_family(key) == fam
    assert K.p_mul_family(poly, key, 1) == K.p_mul(poly, form)
    power = poly
    for _ in range(m):
        power = K.p_mul(power, form)
    assert K.p_mul_family(poly, key, m) == power


@st.composite
def substitution_case(draw):
    """A family triple (i, j, k) with k in -3..3 in 1-5 variables, a
    polynomial, a shift vector and an integer point."""
    nvars = draw(st.integers(min_value=1, max_value=5))
    i = draw(st.integers(min_value=0, max_value=nvars - 1))
    j = None
    if i + 1 < nvars and draw(st.booleans()):
        j = draw(st.integers(min_value=i + 1, max_value=nvars - 1))
    k = draw(st.integers(-3, 3))
    ints = st.lists(st.integers(-50, 50), min_size=nvars, max_size=nvars)
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 3)] * nvars),
                  st.integers(-20, 20)), max_size=6))
    poly = packed(nvars, {e: c for e, c in terms if c})
    return (i, j, k), poly, draw(ints), draw(ints)


@settings(max_examples=300, deadline=None)
@given(substitution_case())
def test_substitutions_agree_with_evaluation(case):
    # h -> h + d, checked against p_eval alone
    (i, j, k), poly, deltas, pt = case
    nvars = len(pt)
    assert K.fac_family(K.fac_form(nvars, i, j, k)) == (i, j, k)
    shifted = K.p_shift(poly, deltas)
    assert all(shifted.values())
    assert K.p_eval(shifted, pt) == K.p_eval(
        poly, [x + d for x, d in zip(pt, deltas)])


def common_root(slices, r):
    """True when r is a root of every slice of a nonempty list."""
    return bool(slices) and all(
        sum(c * r ** e for e, c in sl.items()) == 0 for sl in slices)


@settings(max_examples=100, deadline=None)
@given(substitution_case())
def test_family_slices_find_exactly_the_family_divisors(case):
    # -k is a common root of p_family_slices(a, i, j) exactly when the
    # family form h_i - h_j + k (h_i + k for j None) divides a
    (i, j, k), poly, deltas, _ = case
    nvars = len(deltas)
    if not poly:
        poly = K.p_const(nvars, 3)
    multiple = K.p_mul(poly, K.fac_poly(K.fac_form(nvars, i, j, k)))
    assert common_root(K.p_family_slices(nvars, multiple, i, j), -k)
    for a in (poly, multiple):
        for s in range(nvars):
            for t in [None, *range(s + 1, nvars)]:
                slices = K.p_family_slices(nvars, a, s, t)
                for r in range(-6, 7):
                    divides = K.p_divexact(a, K.fac_form(nvars, s, t, r))
                    assert common_root(slices, -r) == (divides is not None)


@st.composite
def linear_and_poly(draw):
    """A family form or a general primitive linear form with offsets from
    OFFSETS, and a polynomial that may be a constant."""
    n, _, form, poly = draw(family_and_poly())
    if draw(st.booleans()):
        form = draw(primitive_linear(n, OFFSETS))
    return n, form, poly


@settings(max_examples=300, deadline=None)
@given(linear_and_poly(),
       st.sampled_from(["multiple", "perturbed", "plain"]),
       st.integers(min_value=1, max_value=9))
def test_linear_division_matches_schoolbook(case, kind, c):
    nvars, form, poly = case
    if kind == "multiple":
        poly = K.p_mul(poly, form)
    elif kind == "perturbed":
        # a non-divisor whenever poly * form is not constant
        poly = K.p_lincomb([(1, K.p_mul(poly, form)), (c, K.p_one(nvars))])
    got = divexact(nvars, poly, form)
    assert got == schoolbook_divexact(nvars, poly, form)
    if kind == "perturbed":
        assert got is None


def test_fac_family_rejects_other_linear_forms():
    # 2*h1+1, h1+h2, h1^2+1 and h1-2*h2
    h1 = K.p_var(2, 0)
    for poly in (form_of(2, [2], 1), form_of(2, [1, 1], 0),
                 K.p_lincomb([(1, K.p_mul(h1, h1)), (1, K.p_one(2))]),
                 form_of(2, [1, -2], 0)):
        assert K.fac_family(K.fac_key(2, poly)) is None


@settings(max_examples=300, deadline=None)
@given(family_and_poly(), st.booleans(), st.data())
def test_one_id_per_form(case, general, data):
    # a key is an interned int: every route to a form gives its one id,
    # and each automorphism followed by its inverse gives the key back
    n, (i, j, k), form, _ = case
    if general:
        form = data.draw(primitive_linear(n, OFFSETS))
    key = K.fac_key(n, form)
    assert type(key) is int
    assert K.fac_key(n, dict(form)) == K.fac_key(n, K.fac_poly(key)) == key
    if not general:
        assert K.fac_form(n, i, j, k) == key
    alpha = data.draw(st.lists(st.integers(-50, 50), min_size=n, max_size=n))
    s, shifted = K.fac_shift(key, alpha)
    assert (s, shifted) == (1, K.fac_key(n, K.p_shift(form, alpha)))
    assert K.fac_shift(shifted, [-a for a in alpha]) == (1, key)
    s, negated = K.fac_negate(key)
    assert s == -1 and K.fac_negate(negated) == (-1, key)
    perm = data.draw(st.permutations(range(n)))
    inv = [0] * n
    for v, p in enumerate(perm):
        inv[p] = v
    s1, moved = K.fac_permute(key, perm)
    s2, back = K.fac_permute(moved, inv)
    assert back == key and s1 * s2 == 1


def reference_cancel(n, num, facs):
    """p_cancel's contract by schoolbook division alone."""
    want = {}
    for key in sorted(facs, key=K.fac_tuple):
        m = facs[key]
        while m:
            q = schoolbook_divexact(n, num, K.fac_poly(key))
            if q is None:
                break
            num, m = q, m - 1
        if m:
            want[key] = m
    return num, want


@st.composite
def numerator_and_mixed_factors(draw):
    """A numerator built from family and non-family linear factors, and a
    multiplicity for each factor key (which may exceed how often it
    divides)."""
    nvars = draw(st.integers(min_value=2, max_value=4))
    others = [form_of(nvars, [2], 1),
              form_of(nvars, [1, 1], draw(st.integers(-5, 5)) or 1),
              *named_forms(nvars)]
    forms = []
    for _ in range(draw(st.integers(min_value=1, max_value=4))):
        if draw(st.booleans()):
            forms.append(draw(st.sampled_from(others)))
        else:
            i, j = draw(st.permutations(range(nvars)))[:2]
            form = linear_form(nvars, i, j if draw(st.booleans()) else None,
                               draw(OFFSETS))
            forms.append(K.p_primitive_sign(form)[2])
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 2)] * nvars), coords),
        min_size=1, max_size=4))
    num = packed(nvars, {e: c for e, c in terms if c}) or K.p_const(nvars, 1)
    facs = {}
    for form in forms:
        key = K.fac_key(nvars, form)
        facs[key] = draw(st.integers(min_value=1, max_value=3))
        for _ in range(draw(st.integers(min_value=0, max_value=2))):
            num = K.p_mul(num, form)
    return nvars, num, facs


@settings(max_examples=200, deadline=None)
@given(numerator_and_mixed_factors())
def test_cancel_matches_plain_division(case):
    n, num, facs = case
    want_num, want = reference_cancel(n, num, facs)
    assert K.p_cancel(num, facs) == want_num
    assert facs == want


@settings(max_examples=200, deadline=None)
@given(numerator_and_mixed_factors(), st.data())
def test_cancel_does_not_depend_on_the_order_of_facs(case, data):
    # distinct primitive linear forms are coprime primes, so every
    # insertion order of facs gives the same quotient and the same
    # multiplicities left over
    _, num, facs = case
    order = data.draw(st.permutations(list(facs)))
    reordered = {key: facs[key] for key in order}
    assert K.p_cancel(num, facs) == K.p_cancel(num, reordered)
    assert facs == reordered


def test_fac_product_matches_sequential_products():
    # the stored product of a factor list equals the product of its forms
    # one by one, whatever the table held before; a key may repeat, as
    # add_many lists a form once for a summand's numerator and once for
    # the common denominator, and a repeated pair counts twice
    rng = random.Random(29)
    for _ in range(150):
        nvars = rng.randint(2, 4)
        forms = named_forms(nvars) + [form_of(nvars, [1, 1], 2)]
        for _ in range(3):
            i, j = sorted(rng.sample(range(nvars), 2))
            forms.append(linear_form(nvars, i, j if rng.random() < 0.7
                                     else None, rng.randint(-9, 9)))
        keys = [K.fac_key(nvars, form) for form in forms]
        facs = [(rng.choice(keys), rng.randint(1, 2))
                for _ in range(rng.randint(0, 3))]
        facs += rng.sample(facs, rng.randint(0, len(facs)))
        rng.shuffle(facs)
        want = K.p_one(nvars)
        for key, m in facs:
            for _ in range(m):
                want = K.p_mul(want, K.fac_poly(key))
        assert K.p_fac_product(facs) == want
    key = K.fac_key(2, linear_form(2, 0, 1, 3))
    square = K.p_mul(K.fac_poly(key), K.fac_poly(key))
    for facs in ([(key, 1)], [(key, 1), (key, 1)], [(key, 2)]):
        want = square if sum(m for _, m in facs) == 2 else K.fac_poly(key)
        assert K.p_fac_product(facs) == want


def test_product_table_stops_growing_at_its_room(monkeypatch):
    # a product that no longer fits is still right but is not kept
    monkeypatch.setattr(K, "_PRODUCTS", dict(K._PRODUCTS))
    monkeypatch.setattr(K, "_room", 6)
    cube = K.fac_key(3, linear_form(3, 0, 2, 4099))     # x1 + 4099
    pair = K.fac_key(3, linear_form(3, 0, 1, 4099))     # x1 - x2 + 4099
    size = len(K._PRODUCTS)
    assert len(K.p_fac_product([(cube, 3)])) == 4
    assert (len(K._PRODUCTS), K._room) == (size + 1, 2)
    want = K.p_mul(K.fac_poly(pair), K.fac_poly(pair))
    assert K.p_fac_product([(pair, 2)]) == want and len(want) == 6
    assert (len(K._PRODUCTS), K._room) == (size + 1, 2)


# -- the packed monomials against exponent tuples ----------------------------

def t_mul_family(a, i, j, k, m):
    """a times (h_i - h_j + k)^m, or (h_i + k)^m when j is None."""
    if j is None and not k:
        return {e[:i] + (e[i] + m,) + e[i + 1:]: c for e, c in a.items()}
    for _ in range(m):
        res = {e: k * c for e, c in a.items()} if k else {}
        for e, c in a.items():
            _accumulate(res, e[:i] + (e[i] + 1,) + e[i + 1:], c)
            if j is not None:
                _accumulate(res, e[:j] + (e[j] + 1,) + e[j + 1:], -c)
        a = res
    return a


def t_binomial(a, i, j, d):
    """x_i -> x_i + d, or x_i -> x_i + d x_j when j is not None."""
    res = {}
    for exp, c in a.items():
        e = exp[i]
        for t in range(e + 1):
            ne = list(exp)
            ne[i] = t
            if j is not None:
                ne[j] += e - t
            _accumulate(res, tuple(ne), c * comb(e, t) * d ** (e - t))
    return res


def t_shift(a, deltas):
    for i, d in enumerate(deltas):
        if d:
            a = t_binomial(a, i, None, d)
    return a


def t_permute(a, perm):
    res = {}
    for exp, c in a.items():
        ne = [0] * len(exp)
        for i, e in enumerate(exp):
            ne[perm[i]] = e
        res[tuple(ne)] = c
    return res


def t_eval(a, point):
    total = 0
    for exp, c in a.items():
        for x, e in zip(point, exp):
            c *= x ** e
        total += c
    return total


def t_str(a):
    if not a:
        return "0"
    out = ""
    for exp, c in sorted(a.items(), key=lambda t: (sum(t[0]), t[0]),
                         reverse=True):
        body = "*".join(f"h{i + 1}" + (f"^{e}" if e > 1 else "")
                        for i, e in enumerate(exp) if e)
        if not body:
            body = str(abs(c))
        elif abs(c) != 1:
            body = f"{abs(c)}*{body}"
        out += ("-" if c < 0 else "+") + body
    return out.removeprefix("+")


def t_key(a):
    return tuple(sorted(a.items(), key=lambda t: (sum(t[0]), t[0]),
                        reverse=True))


@st.composite
def tuple_polys(draw, n, max_size=6):
    """A dict from exponent tuple (entries 0-4) to a nonzero coefficient."""
    terms = draw(st.lists(
        st.tuples(st.tuples(*[st.integers(0, 4)] * n),
                  st.integers(-20, 20) | st.sampled_from([10**12, -10**12])),
        max_size=max_size))
    return {e: c for e, c in terms if c}


@st.composite
def packed_case(draw):
    """A rank 1-5, two tuple polynomials, a family triple, a power, a
    shift vector, a permutation and an integer point."""
    n = draw(st.integers(min_value=1, max_value=5))
    i = draw(st.integers(min_value=0, max_value=n - 1))
    j = None
    if i + 1 < n and draw(st.booleans()):
        j = draw(st.integers(min_value=i + 1, max_value=n - 1))
    ints = st.lists(st.integers(-9, 9), min_size=n, max_size=n)
    return (n, draw(tuple_polys(n)), draw(tuple_polys(n)),
            (i, j, draw(st.integers(-5, 5))), draw(st.integers(1, 3)),
            draw(ints), draw(st.permutations(range(n))), draw(ints))


@settings(max_examples=300, deadline=None)
@given(packed_case())
def test_packed_kernel_matches_exponent_tuples(case):
    n, a, b, (i, j, k), m, deltas, perm, point = case
    pa, pb = packed(n, a), packed(n, b)

    def same(poly, ref):
        # the same terms, text and value as the reference in h
        assert K.fac_tuple(K.fac_key(n, poly)) == t_key(ref)
        assert K.p_str(n, poly) == t_str(ref)
        assert K.p_eval(poly, point) == t_eval(ref, point)

    same(pa, a)
    same(K.p_mul(pa, pb), t_mul(a, b))
    same(K.p_mul_family(pa, K.fac_form(n, i, j, k), m),
         t_mul_family(a, i, j, k, m))
    same(K.p_shift(pa, deltas), t_shift(a, deltas))
    same(K.p_permute(pa, perm), t_permute(a, perm))
    same(K.p_negate(n, pa),
         {e: -c if sum(e) % 2 else c for e, c in a.items()})
    for pt, probe in zip(K.PROBE_POINTS, K._probes(n)):
        assert K._probe_value(n, pa, probe) == t_eval(a, pt[:n])
    assert gcd(*pa.values()) == gcd(*a.values())
    if a:
        # the change of coordinates keeps the grlex lead and the degree
        lead = t_lead(a)
        assert K.p_lead(pa) == K.p_lead(packed(n, {lead: a[lead]}))
        assert K.p_degree(n, pa) == max(map(sum, a))


def test_int_order_is_grlex_order():
    for n in range(1, 5):
        exps = list(product(range(3), repeat=n))
        by_int = sorted(exps, key=lambda e: next(iter(packed(n, {e: 1}))))
        assert by_int == sorted(exps, key=lambda e: (sum(e), e))


LIMIT = 2**32 - 1       # the largest degree a monomial field holds


def test_degree_guard_raises_instead_of_wrapping():
    for n in (1, 2, 5):
        # h_n is a stored variable, so its power is one monomial
        key = K.fac_form(n, n - 1, None, 0)
        top = K.p_mul_family(K.p_one(n), key, LIMIT)
        assert K.p_degree(n, top) == LIMIT
        assert K.p_str(n, top) == f"h{n}^{LIMIT}"
        with pytest.raises(ResourceLimitError, match=str(LIMIT + 1)):
            K.p_mul_family(K.p_one(n), key, LIMIT + 1)
        with pytest.raises(ResourceLimitError, match=str(LIMIT + 1)):
            K.p_mul(top, K.p_var(n, n - 1))
        with pytest.raises(ResourceLimitError, match=str(LIMIT + 1)):
            K.p_mul_family(top, K.fac_form(n, n - 1, None, 3), 1)
        half = K.p_mul_family(K.p_one(n), key, 2**31)
        assert K.p_degree(n, K.p_mul(half, K.p_mul_family(
            K.p_const(n, 2), key, 2**31 - 1))) == LIMIT
        with pytest.raises(ResourceLimitError, match=str(LIMIT + 1)):
            K.p_mul(half, half)
        # a constant factor raises nothing
        assert K.p_mul(top, K.p_const(n, 7)) == {next(iter(top)): 7}
