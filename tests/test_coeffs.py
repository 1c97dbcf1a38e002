"""Coefficient ring: arithmetic, automorphisms, special elements."""

import random
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hdeform.coeffs import (RatFun, alpha_coeff, beta_coeff, eps, hdiff,
                            mu_coeff, parse, phi, phi_prime, phi_segment,
                            qminus, qplus, serialize, special)
from hdeform.errors import CoefficientError, ParseError, ResourceLimitError


def one(n=2):
    return RatFun.const(n, 1)


def same_rep(f, g):
    """Identical representations, not only equal values (== compares
    values)."""
    return (f.num, f.dint, f.dfac) == (g.num, g.dint, g.dfac)


def by_form(item):
    """Sort key of a (factor key, value) pair: the key's canonical tuple,
    the order of the package's sorted views."""
    import hdeform.kernel as K
    return K.fac_tuple(item[0])


def assert_same(f, g):
    assert f == g
    assert same_rep(f, g)


def test_inverse_cancels():
    h = hdiff(2, 1, 2)
    assert h * (one() / h) == one()


def test_field_axiom_example():
    h = hdiff(2, 1, 2)
    assert (h + 1) / h - 1 == one() / h


def test_phi_times_mu_is_minus_one():
    assert phi(2, 1) * mu_coeff(2, 1) == RatFun.const(2, -1)


def test_phi_values():
    h = hdiff(2, 1, 2)
    assert phi(2, 1) == h / (h - 1)
    assert phi(2, 2) == one()
    assert phi_prime(2, 1) == one()


def test_phi_segment_empty_and_window():
    assert phi_segment(3, 1, 2) == RatFun.const(3, 1)
    d = hdiff(3, 1, 2)
    assert phi_segment(3, 1, 3) == d / (d - 1)
    with pytest.raises(CoefficientError):
        phi_segment(3, 2, 2)


def test_shift_examples():
    h = hdiff(2, 1, 2)
    assert h.shift(eps(2, 1)) == h + 1
    assert h.shift((0, 0)) == h
    assert h.shift(eps(2, 2)) == h - 1


def test_permute_examples():
    h = hdiff(2, 1, 2)
    assert h.permute((2, 1)) == -h
    f = qminus(2, 1)
    assert f.permute((1, 2)) == f
    assert f.permute((2, 1)).permute((2, 1)) == f


def test_negate_examples():
    assert qminus(2, 1).negate_h() == qplus(2, 1)
    assert one().negate_h() == one()
    h = hdiff(2, 1, 2)
    assert (h + 1).negate_h() == -h + 1


@pytest.mark.parametrize("c", [RatFun.zero(3), RatFun.const(3, -2),
                               RatFun.const(3, Fraction(3, 7))])
def test_automorphisms_return_a_constant_as_it_is(c):
    # Element.__mul__ shifts every right-hand coefficient, often a constant
    assert c.shift((1, -2, 3)) is c
    assert c.permute((3, 1, 2)) is c
    assert c.negate_h() is c
    with pytest.raises(CoefficientError):
        c.permute((1, 1, 2))


def test_q_reciprocal():
    for n in range(1, 7):
        for j in range(1, n + 1):
            assert qminus(n, j).shift(eps(n, j)) * qplus(n, j) == RatFun.const(n, 1)


def test_q_traces_up_to_rank_six():
    for n in range(1, 7):
        tp = RatFun.zero(n)
        tm = RatFun.zero(n)
        for i in range(1, n + 1):
            tp = tp + qplus(n, i)
            tm = tm + qminus(n, i)
        assert tp == RatFun.const(n, n)
        assert tm == RatFun.const(n, n)


def test_beta_closed_form_rank_two():
    # the (n, j) = (2, 1) entry collapses to 1/(h1 - h2)
    assert beta_coeff(2, 2, 1) == one() / hdiff(2, 1, 2)
    assert mu_coeff(2, 2) == RatFun.const(2, -1)


def test_alpha_requires_distinct_indices():
    with pytest.raises(CoefficientError):
        alpha_coeff(2, 1, 1)


def test_special_dispatch():
    assert special("qplus", (1,), 2) == qplus(2, 1)
    with pytest.raises(CoefficientError):
        special("qplus", (3,), 2)
    with pytest.raises(CoefficientError):
        special("nope", (1,), 2)


def test_division_by_zero():
    with pytest.raises(CoefficientError):
        one() / RatFun.zero(2)


def test_unit_factor_returns_the_other_operand():
    # a factor +-1 (RatFun or int) returns the other operand or its
    # negation without arithmetic
    c = phi(3, 2).shift((1, 0, -1)) / hdiff(3, 1, 3)
    for unit in (1, RatFun.const(3, 1)):
        assert c * unit is c
        assert unit * c is c
    for unit in (-1, RatFun.const(3, -1)):
        for prod in (c * unit, unit * c):
            assert serialize(prod) == serialize(-c)
            assert_same(prod, -c)
    assert (RatFun.const(3, -1) * RatFun.const(3, -1)).is_one
    with pytest.raises(CoefficientError, match="rank mismatch"):
        RatFun.const(2, 1) * c
    with pytest.raises(CoefficientError, match="rank mismatch"):
        c * RatFun.const(2, -1)


def test_parse_round_trips():
    for text in ["(h1-h2+1)/(h1-h2)", "h1", "1/(h1-h2)^2",
                 "(h1^2-2*h1*h2+h2^2-1)/(h1-h2)^2", "-3/2", "0"]:
        f = parse(2, text)
        assert_same(parse(2, serialize(f)), f)


def test_negative_powers():
    assert serialize(parse(2, "h1^-2")) == "1/h1^2"
    assert hdiff(2, 1, 2) ** -3 == one() / (hdiff(2, 1, 2) ** 3)


def test_parse_matches_construction():
    h = hdiff(2, 1, 2)
    assert_same(parse(2, "(h1-h2+1)/(h1-h2)"), (h + 1) / h)
    assert_same(parse(2, "h1"), RatFun.var(2, 1))
    assert_same(parse(2, "1/(h1-h2)^2"), one() / (h * h))


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse(2, "h3")
    with pytest.raises(ParseError):
        parse(2, "(h1-h2")
    with pytest.raises(ParseError):
        parse(2, "1/*h1")


def test_serialize_is_deterministic():
    f = qplus(3, 2) * qminus(3, 1) / (hdiff(3, 2, 3) + 5)
    assert serialize(f) == serialize(qplus(3, 2) * qminus(3, 1)
                                     / (hdiff(3, 2, 3) + 5))


# -- randomized canonical-form cross-check ----------------------------------

def _random_ratfun(rng, n=3):
    f = RatFun.const(n, rng.randint(-3, 3))
    for _ in range(rng.randint(1, 5)):
        i = rng.randint(1, n)
        j = rng.randint(1, n)
        pick = rng.random()
        if pick < 0.4 and i != j:
            g = hdiff(n, i, j) + rng.randint(-2, 2)
        elif pick < 0.6:
            g = RatFun.var(n, i) + rng.randint(-2, 2)
        elif pick < 0.7:
            g = qminus(n, i)
        elif pick < 0.85:
            g = phi(n, i)
        else:
            # the shape of a pivot inverted by rule extraction
            i, j, k = rng.sample(range(1, n + 1), 3)
            g = 2 * RatFun.var(n, i) - RatFun.var(n, j) - RatFun.var(n, k) - 1
        op = rng.random()
        if op < 0.45:
            f = f + g
        elif op < 0.8:
            f = f * g
        elif not g.is_zero:
            f = f / g
    return f


def test_canonical_equality_matches_random_evaluation():
    rng = random.Random(7)
    points = [(5, 17, 41), (11, 29, 67), (13, 37, 83)]
    for _ in range(60):
        f = _random_ratfun(rng)
        g = _random_ratfun(rng)
        same_struct = same_rep(f, g)
        try:
            same_eval = all(f.eval(p) == g.eval(p) for p in points)
        except CoefficientError:
            continue  # hit a pole; the sample is dense enough without it
        diff_zero = (f - g).is_zero
        assert same_eval == diff_zero
        assert same_struct == diff_zero
        assert (f == g) == diff_zero


# -- algebraic laws of the automorphisms -------------------------------------

weights = st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3))
seeds = st.integers(0, 10**6)


@settings(max_examples=40, deadline=None)
@given(seeds, seeds, weights)
def test_shift_is_ring_homomorphism(s1, s2, alpha):
    f = _random_ratfun(random.Random(s1))
    g = _random_ratfun(random.Random(s2))
    assert_same((f * g).shift(alpha), f.shift(alpha) * g.shift(alpha))
    assert_same((f + g).shift(alpha), f.shift(alpha) + g.shift(alpha))


@settings(max_examples=40, deadline=None)
@given(seeds, weights, weights)
def test_shift_composes_additively(s, alpha, beta):
    f = _random_ratfun(random.Random(s))
    ab = tuple(a + b for a, b in zip(alpha, beta))
    assert_same(f.shift(alpha).shift(beta), f.shift(ab))


@settings(max_examples=40, deadline=None)
@given(seeds, st.permutations([1, 2, 3]), st.permutations([1, 2, 3]))
def test_permute_is_group_action(s, p1, p2):
    f = _random_ratfun(random.Random(s))
    p1, p2 = tuple(p1), tuple(p2)
    comp = tuple(p1[p2[k] - 1] for k in range(3))  # first p2, then p1
    assert_same(f.permute(p2).permute(p1), f.permute(comp))


@settings(max_examples=40, deadline=None)
@given(seeds, st.permutations([1, 2, 3]), seeds)
def test_permute_commutes_with_arithmetic(s, p, s2):
    f = _random_ratfun(random.Random(s))
    g = _random_ratfun(random.Random(s2))
    p = tuple(p)
    assert_same((f * g).permute(p), f.permute(p) * g.permute(p))
    assert_same((f - g).permute(p), f.permute(p) - g.permute(p))


@settings(max_examples=40, deadline=None)
@given(seeds)
def test_negate_is_involutive(s):
    f = _random_ratfun(random.Random(s))
    assert_same(f.negate_h().negate_h(), f)


far_offsets = st.integers(30, 40) | st.integers(-40, -30)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([(2, 1, 2), (3, 1, 3), (3, 2, 3)]), far_offsets,
       far_offsets, far_offsets)
def test_equal_values_compare_equal_whatever_the_route(idx, a, b, c):
    # the factor search splits the expanded product however far the
    # offsets are, so both routes store the same factors
    from hdeform.weyl import WeylAlgebra
    n, i, j = idx
    d = hdiff(n, i, j)
    hi = RatFun.var(n, i)
    by_factor = RatFun.const(n, 1) / (d + a) / (hi + b)
    by_product = RatFun.const(n, 1) / ((d + a) * (hi + b))
    assert by_factor == by_product
    assert not by_factor != by_product
    assert (d + c) / (d + a) / (d + b) == (d + c) * (1 / ((d + a) * (d + b)))
    alg = WeylAlgebra(n)
    assert (alg.x(i).times_coeff_left(by_factor)
            == alg.x(i).times_coeff_left(by_product))
    assert by_factor != by_product + 1


def test_eval_exactness():
    f = (hdiff(2, 1, 2) + 1) / hdiff(2, 1, 2)
    assert f.eval((5, 2)) == Fraction(4, 3)
    with pytest.raises(CoefficientError):
        f.eval((2, 2))
    with pytest.raises(CoefficientError, match="2 coordinates, not 3"):
        f.eval((5, 2, 1))


def test_division_splits_composite_denominators():
    # dividing by a product in expanded form recovers the linear factors
    h = hdiff(2, 1, 2)
    expanded = (h - 1) * (h + 1)  # numerator h^2 - ... as one polynomial
    f = one() / expanded
    assert serialize(f) == "1/((h1-h2-1)*(h1-h2+1))"
    assert f * (h - 1) == one() / (h + 1)


def test_from_poly_constructor():
    import hdeform.kernel as K
    num = K.p_var(2, 0)
    den = K.p_lincomb([(1, K.p_var(2, 0)), (-1, K.p_var(2, 1))])
    f = RatFun.from_poly(2, num, den)
    assert serialize(f) == "h1/(h1-h2)"
    with pytest.raises(CoefficientError):
        RatFun.from_poly(2, num, {})


def test_denominators_are_linear_forms():
    import hdeform.kernel as K
    h1, h2 = K.p_var(2, 0), K.p_var(2, 1)
    quad = K.p_lincomb([(1, K.p_mul(h1, h1)), (1, h1), (1, K.p_one(2))])
    with pytest.raises(CoefficientError,
                       match=r"denominator factor h1\^2\+h1\+1 is not linear"):
        RatFun.from_poly(2, h2, quad)
    # family forms split off first; the non-linear rest still raises
    with pytest.raises(CoefficientError, match="not linear"):
        RatFun.from_poly(2, h2,
                         K.p_mul(quad, K.p_lincomb([(1, h1), (-1, h2)])))
    # one linear form outside the family is a denominator factor
    f = RatFun.from_poly(2, h2, K.p_lincomb([(1, h1), (1, h2)]))
    assert serialize(f) == "h2/(h1+h2)"
    assert f * parse(2, "h1+h2") == RatFun.var(2, 2)
    # a product of such forms is written factor by factor
    g = parse(2, "1/(h1+h2)/(2*h1-h2-1)")
    assert [len(K.fac_tuple(key)) for key, _ in g.dfac] == [2, 3]
    assert g * parse(2, "(h1+h2)*(2*h1-h2-1)") == one()
    with pytest.raises(CoefficientError, match="not linear"):
        parse(2, "h1^2+h2^2+1").inverse()


@pytest.mark.parametrize("text, at", [("1/(h1^2+h2^2+1)", 1),
                                      ("(h1^2+h1+1)^-1", 11),
                                      ("h2+3*h1/((h1+h2)*(2*h1-h2-1))", 7)])
def test_parse_rejects_non_linear_denominators(text, at):
    with pytest.raises(ParseError, match="is not linear") as info:
        parse(2, text)
    assert info.value.pos == at
    assert text[at] in "/^"
    # a product of forms outside the family must come factor by factor
    assert ("write linear forms outside the family one by one, as in "
            "1/(h1+h2)/(2*h1-h2-1)") in str(info.value)


def test_unit_detection_in_localization():
    import hdeform.kernel as K
    assert qminus(3, 2).is_unit_in_localization()
    h1, h2 = RatFun.var(3, 1), RatFun.var(3, 2)
    assert not (h1 * h1 + h2 * h2 + 1).is_unit_in_localization()
    assert not RatFun.zero(3).is_unit_in_localization()
    # a denominator factor outside the family is not inverted
    assert not parse(2, "1/(h1+h2)").is_unit_in_localization()
    assert not parse(2, "1/(2*h1-h2-1)").is_unit_in_localization()
    assert parse(2, "(h1-h2+3)/(h2-7)").is_unit_in_localization()
    # 1/(h1^2+h2^2+1) is not in the ring at all: parse raises (see
    # test_parse_rejects_non_linear_denominators)
    # an expanded numerator is split whatever the offsets of its factors
    far = RatFun.from_poly(3, K.p_mul(
        K.p_lincomb([(1, K.p_var(3, 0)), (400, K.p_one(3)),
                     (-1, K.p_var(3, 2))]),
        K.p_lincomb([(1, K.p_var(3, 1)), (-250, K.p_one(3))])))
    assert far.is_unit_in_localization()
    assert not (far + 1).is_unit_in_localization()


def _trial_factors(n, poly):
    """Reference split: every candidate of the window goes to division."""
    import hdeform.kernel as K
    window = max(8, 2 * n + K.p_degree(n, poly) + 2)
    found = {}
    rem = poly
    for i in range(n):
        for j in [-1] + list(range(i + 1, n)):
            for k in range(-window, window + 1):
                fac = K.p_lincomb([(1, K.p_var(n, i)), (k, K.p_one(n))])
                if j >= 0:
                    fac = K.p_lincomb([(1, fac), (-1, K.p_var(n, j))])
                key = K.fac_key(n, fac)
                while not K.p_is_const(rem):
                    q = K.p_divexact(rem, key)
                    if q is None:
                        break
                    found[key] = found.get(key, 0) + 1
                    rem = q
    return rem, sorted(found.items(), key=by_form)


def test_probed_factor_split_matches_trial_division():
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    rng = random.Random(31)
    for _ in range(40):
        n = rng.randint(2, 4)
        poly = K.p_const(n, rng.choice([1, 2, 3]))
        for _ in range(rng.randint(1, 5)):
            i, j = rng.sample(range(n), 2)
            fac = K.p_lincomb([(1, K.p_var(n, i)),
                               (rng.randint(-9, 9), K.p_one(n))])
            if rng.random() < 0.7:
                fac = K.p_lincomb([(1, fac), (-1, K.p_var(n, j))])
            poly = K.p_mul(poly, fac)
        if rng.random() < 0.5:
            # a cofactor with no linear factor
            poly = K.p_mul(poly, K.p_lincomb(
                [(1, K.p_mul(K.p_var(n, 0), K.p_var(n, 0))),
                 (rng.randint(1, 5), K.p_one(n))]))
        _, _, prim = K.p_primitive_sign(poly)
        assert _linear_family_factors(n, prim) == _trial_factors(n, prim)



@settings(max_examples=100, deadline=None)
@given(st.data())
def test_factor_search_ignores_insertion_order(data):
    # the same polynomial with its terms inserted in another order gives
    # the same cofactor and factor list, and the same factor key
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    n = data.draw(st.integers(2, 4))
    poly = K.p_const(n, data.draw(st.sampled_from([1, 2, 3])))
    for _ in range(data.draw(st.integers(1, 4))):
        i, j = data.draw(st.permutations(range(n)))[:2]
        fac = K.p_lincomb([(1, K.p_var(n, i)),
                           (data.draw(st.integers(-9, 9)), K.p_one(n))])
        if data.draw(st.booleans()):
            fac = K.p_lincomb([(1, fac), (-1, K.p_var(n, j))])
        poly = K.p_mul(poly, fac)
    if data.draw(st.booleans()):
        # a cofactor with no linear factor
        h = K.p_var(n, data.draw(st.integers(0, n - 1)))
        poly = K.p_mul(poly, K.p_lincomb([(1, K.p_mul(h, h)),
                                          (1, K.p_one(n))]))
    _, _, prim = K.p_primitive_sign(poly)
    other = dict(data.draw(st.permutations(list(prim.items()))))
    assert _linear_family_factors(n, other) == _linear_family_factors(n, prim)
    assert K.fac_key(n, other) == K.fac_key(n, prim)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.lists(st.integers(-6, 6), min_size=1, max_size=3),
                min_size=1, max_size=4),
       st.randoms(use_true_random=False))
def test_integer_roots_ignore_the_order_of_the_slices(root_lists, rnd):
    # each slice is the product of t - r over its roots r; the candidates
    # are the same in every order of the slices, every common root is
    # one, and each is a root of every slice of least span
    from hdeform.coeffs import _integer_roots
    slices = []
    for roots in root_lists:
        poly = {0: 1}
        for r in roots:
            out = {}
            for e, c in poly.items():
                out[e + 1] = out.get(e + 1, 0) + c
                out[e] = out.get(e, 0) - r * c
            poly = {e: c for e, c in out.items() if c}
        slices.append(poly)
    got = _integer_roots(slices)
    assert _integer_roots(rnd.sample(slices, len(slices))) == got
    assert set.intersection(*map(set, root_lists)) <= set(got)
    span = min(max(sl) - min(sl) for sl in slices)
    for sl in slices:
        if max(sl) - min(sl) == span:
            assert all(sum(c * x ** e for e, c in sl.items()) == 0
                       for x in got)


def test_product_table_is_not_aliased_by_results():
    # a sum reads the kernel's stored products; changing an expanded
    # numerator, a sum's cofactor or a weighted sum changes no entry
    import hdeform.kernel as K
    from hdeform.kernel import _poly_py
    a = parse(3, "1/((h1-h2+5)*(h2-h3+7))")
    b = parse(3, "h1/(h1-h2+5)")
    c = parse(3, "(h1-h2+5)*(h2-h3+7)")
    total = a + b
    assert not K.p_is_const(total.cof)
    key = c.nfac[0][0]
    stored = K.p_fac_product([(key, 1), (key, 1)])
    assert stored == K.p_mul(K.fac_poly(key), K.fac_poly(key))
    table = {k: dict(v) for k, v in _poly_py._PRODUCTS.items()}
    for poly in (c.num, total.num, total.cof,
                 K.p_lincomb([(1, stored)]), K.p_lincomb([(2, stored)])):
        poly.clear()
        poly[0] = 99
    assert {k: dict(v) for k, v in _poly_py._PRODUCTS.items()} == table
    assert a + b == parse(3, "(h1*(h2-h3+7)+1)/((h1-h2+5)*(h2-h3+7))")


def test_difference_values_carry_no_last_variable():
    # stored in x_i = h_i - h_n, a function of differences is short: a
    # polynomial in h1 - h2 of degree d has d + 1 terms, not about d^2/2
    assert len(parse(2, "(h1-h2)^5+1").cof) == 2
    assert len(parse(3, "(h1-h3)^4*(h2-h3)+(h1-h2)^2+1").cof) == 5
    # h1 alone is x1 + x2
    assert len(parse(2, "(h1-h2)^5+h1").cof) == 3


# -- trial division of only the factors that can cancel ----------------------

def _rep(f):
    return (f.num, f.dint, f.dfac)


def _reference_build(n, num, dint, fac_items):
    """The stored form with every factor tried against the full numerator."""
    import hdeform.kernel as K
    if not num:
        return {}, 1, ()
    if dint < 0:
        dint, num = -dint, K.p_neg(num)
    facs = {}
    for key, m in fac_items:
        c, sign, prim = K.p_primitive_sign(K.fac_poly(key))
        dint *= c ** m
        if sign < 0 and m % 2:
            num = K.p_neg(num)
        if not K.p_is_const(prim):
            key = K.fac_key(n, prim)
            facs[key] = facs.get(key, 0) + m
    for key in sorted(facs, key=K.fac_tuple):
        while facs[key]:
            q = K.p_divexact(num, key)
            if q is None:
                break
            num, facs[key] = q, facs[key] - 1
    g = gcd(*num.values(), dint)
    return ({e: v // g for e, v in num.items()}, dint // g,
            tuple(sorted(((key, m) for key, m in facs.items() if m),
                         key=by_form)))


def _reference_mul(a, b):
    import hdeform.kernel as K
    if a.is_zero or b.is_zero:
        return {}, 1, ()
    facs = dict(a.dfac)
    for key, m in b.dfac:
        facs[key] = facs.get(key, 0) + m
    return _reference_build(a.n, K.p_mul(a.num, b.num), a.dint * b.dint,
                            facs.items())


def _reference_add(a, b):
    import hdeform.kernel as K
    if a.is_zero or b.is_zero:
        return _rep(b if a.is_zero else a)
    g = gcd(a.dint, b.dint)
    ka = K.p_const(a.n, b.dint // g)
    kb = K.p_const(a.n, a.dint // g)
    fa, fb = dict(a.dfac), dict(b.dfac)
    lcm = {key: max(fa.get(key, 0), fb.get(key, 0)) for key in {**fa, **fb}}
    for key, m in lcm.items():
        for _ in range(m - fa.get(key, 0)):
            ka = K.p_mul(ka, K.fac_poly(key))
        for _ in range(m - fb.get(key, 0)):
            kb = K.p_mul(kb, K.fac_poly(key))
    num = K.p_lincomb([(1, K.p_mul(a.num, ka)), (1, K.p_mul(b.num, kb))])
    return _reference_build(a.n, num, a.dint * (b.dint // g), lcm.items())


def _reference_inverse(a):
    import hdeform.kernel as K
    from hdeform.coeffs import _split_denominator
    den = K.p_const(a.n, a.dint)
    for key, m in a.dfac:
        for _ in range(m):
            den = K.p_mul(den, K.fac_poly(key))
    return _reference_build(a.n, den, *_split_denominator(a.n, a.num))


def _reference_map(a, poly_map):
    """An automorphism applied to numerator and factors, then rebuilt."""
    import hdeform.kernel as K
    if a.is_zero:
        return _rep(a)
    return _reference_build(
        a.n, poly_map(a.num), a.dint,
        [(K.fac_key(a.n, poly_map(K.fac_poly(key))), m)
         for key, m in a.dfac])


def _linear(i, j, k, n=3):
    """h_i - h_j + k, or h_i + k when j is 0."""
    return (hdiff(n, i, j) if j and j != i else RatFun.var(n, i)) + k


_SPECIALS = ([phi(3, i) for i in (1, 2)] + [qplus(3, 2), qminus(3, 1)]
             + [alpha_coeff(3, 1, 3), beta_coeff(3, 2, 1), mu_coeff(3, 1),
                phi_prime(3, 3)])

_atoms = (st.builds(_linear, st.integers(1, 3), st.integers(0, 3),
                    st.integers(-40, 40))
          | st.sampled_from(_SPECIALS))


@st.composite
def _coefficients(draw):
    """Products, quotients and sums of linear forms and special elements;
    a sum leaves its bracket in the numerator's cofactor unsplit."""
    f = draw(_atoms)
    for _ in range(draw(st.integers(0, 4))):
        g = draw(_atoms)
        if draw(st.booleans()):
            g = g * draw(_atoms)
        op = draw(st.sampled_from("**//+"))
        f = f * g if op == "*" else f / g if op == "/" else f + g
    return f


@settings(max_examples=120, deadline=None)
@given(_coefficients(), _coefficients(), weights,
       st.permutations([1, 2, 3]))
def test_arithmetic_matches_trial_of_every_factor(a, b, alpha, perm):
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    assert _rep(a * b) == _reference_mul(a, b)
    assert _rep(a + b) == _reference_add(a, b)
    assert _rep(a - b) == _reference_add(a, -b)
    if not a.is_zero:
        rem, _ = _linear_family_factors(3, a.cof)
        if K.p_degree(3, rem) > 1:
            # a non-linear numerator part outside the family has no
            # inverse in the ring
            with pytest.raises(CoefficientError, match="not linear"):
                a.inverse()
        else:
            assert _rep(a.inverse()) == _reference_inverse(a)
    assert _rep(a.shift(alpha)) == _reference_map(
        a, lambda p: K.p_shift(p, alpha))
    p0 = tuple(x - 1 for x in perm)
    assert _rep(a.permute(tuple(perm))) == _reference_map(
        a, lambda p: K.p_permute(p, p0))
    assert _rep(a.negate_h()) == _reference_map(
        a, lambda p: K.p_negate(3, p))


def _fold_reference_add(n, terms):
    """The left fold of _reference_add, each partial sum kept as its
    reference representation, with the fields serialize reads: the
    expanded numerator as the cofactor and the denominator as the map."""
    from types import SimpleNamespace
    acc = SimpleNamespace(n=n, num={}, dint=1, dfac=(), is_zero=True)
    for t in terms:
        num, dint, dfac = _reference_add(acc, t)
        acc = SimpleNamespace(n=n, num=num, dint=dint, dfac=dfac,
                              is_zero=not num, content=1, cof=num,
                              fac={key: -m for key, m in dfac})
    return acc


@st.composite
def _summands(draw):
    """0-6 coefficients, sometimes with a forced case appended: a value
    and its negative, a repeated summand, or two summands sharing a
    denominator factor at the same top power."""
    terms = draw(st.lists(_coefficients(), max_size=6))
    case = draw(st.sampled_from(["none", "cancel", "repeat", "shared"]))
    if case == "cancel":
        a = draw(_coefficients())
        terms += [a, -a]
    elif case == "repeat" and terms:
        terms.append(draw(st.sampled_from(terms)))
    elif case == "shared":
        f = draw(_atoms) ** draw(st.integers(1, 2))
        terms += [draw(_coefficients()) / f, draw(_coefficients()) / f]
    return draw(st.permutations(terms))


@settings(max_examples=60, deadline=None)
@given(_summands())
def test_n_ary_sum_matches_the_pairwise_reference(terms):
    import hdeform.kernel as K
    from hdeform.coeffs import add_many
    top = {}        # key -> (top multiplicity, summands holding it)
    for t in terms:
        for key, m in t.dfac:
            old, k = top.get(key, (0, 0))
            top[key] = (m, 1) if m > old else (old, k + (m == old))
    tried = []
    p_cancel = K.p_cancel

    def recording(num, facs):
        tried.extend(facs)      # before the call, which lowers facs
        return p_cancel(num, facs)

    K.p_cancel = recording
    try:
        got = add_many(3, terms)
    finally:
        K.p_cancel = p_cancel
    want = _fold_reference_add(3, terms)
    assert _rep(got) == (want.num, want.dint, want.dfac)
    assert serialize(got) == serialize(want)
    # only factors two or more summands carry at their top multiplicity
    assert all(top[key][1] > 1 for key in tried)


def test_n_ary_sum_tries_only_factors_shared_at_the_top(monkeypatch):
    import hdeform.kernel as K
    from hdeform.coeffs import add_many
    tried = []
    p_cancel = K.p_cancel

    def recording(num, facs):
        tried.append(sorted(facs))      # before the call, which lowers facs
        return p_cancel(num, facs)

    monkeypatch.setattr(K, "p_cancel", recording)
    # h1-h2 is at its top power 2 in the first two summands; h1+3 is in
    # the third alone, so it cannot divide the sum and is not tried
    terms = [parse(2, t) for t in ("h1/(h1-h2)^2", "h2/(h1-h2)^2",
                                   "1/((h1-h2)*(h1+3))")]
    total = add_many(2, terms)
    assert tried == [[hdiff(2, 1, 2).nfac[0][0]]]
    assert serialize(total) == "(h1^2+h1*h2+4*h1+2*h2)/((h1+3)*(h1-h2)^2)"


@st.composite
def _keyed_parts(draw):
    """(key, nonzero coefficient) pairs on a few keys; the parts of some
    keys are followed by their negatives, so those keys sum to zero."""
    nonzero = _coefficients().filter(lambda c: not c.is_zero)
    pairs = draw(st.lists(st.tuples(st.sampled_from("abc"), nonzero),
                          max_size=8))
    for key in draw(st.lists(st.sampled_from("abcd"), max_size=2,
                             unique=True)):
        if not any(k == key for k, _ in pairs):
            pairs.append((key, draw(nonzero)))
        pairs += [(key, -c) for k, c in pairs if k == key]
    return draw(st.permutations(pairs))


@settings(max_examples=60, deadline=None)
@given(_keyed_parts())
def test_keyed_accumulator_matches_the_pairwise_fold(pairs):
    from hdeform.coeffs import add_part, sum_parts
    acc, more = {}, {}
    for key, c in pairs:
        add_part(acc, more, key, c)
    got = sum_parts(3, acc, more)
    fold = {}
    for key, c in pairs:
        fold[key] = fold[key] + c if key in fold else c
    assert set(got) == {key for key, c in fold.items() if not c.is_zero}
    for key, c in got.items():
        assert_same(c, fold[key])


@settings(max_examples=60, deadline=None)
@given(_coefficients(), st.integers(-4, 6))
def test_power_matches_the_repeated_product(f, k):
    base = f
    if k < 0:
        try:
            base = f.inverse()
        except CoefficientError:
            with pytest.raises(CoefficientError):
                f ** k
            return
    want = RatFun.const(3, 1)
    for _ in range(abs(k)):
        want = want * base
    assert_same(f ** k, want)


def test_huge_powers_parse_and_print_at_once():
    # repeated squaring and a one-shift expansion of a power of h_i: the
    # exponent's size costs nothing
    assert serialize(parse(2, "h1^100000000")) == "h1^100000000"
    assert serialize(parse(2, "h2^-100000000")) == "1/h2^100000000"
    assert serialize(parse(2, "(h1^50000000)^2*h1")) == "h1^100000001"


def test_degree_past_the_kernel_limit_raises():
    # each exponent field holds a degree below 2^32; past it the product
    # raises instead of wrapping into the next field
    assert serialize(parse(2, "h1^4294967295")) == "h1^4294967295"
    for text in ("h1^4294967296", "h2^4294967295*h1", "(h1-h2+1)^4294967296",
                 "h1^2147483648*(h2+1)^2147483648"):
        with pytest.raises(ResourceLimitError, match="degree 4294967296"):
            serialize(parse(2, text))


# -- exact factor search and canonical text ----------------------------------

def test_far_factors_print_the_same_whatever_the_route():
    texts = ["1/(h1-h2+30)/(h1-h2+31)", "1/((h1-h2+30)*(h1-h2+31))",
             "1/(h1^2-2*h1*h2+h2^2+61*h1-61*h2+930)"]
    assert {serialize(parse(2, t)) for t in texts} \
        == {"1/((h1-h2+30)*(h1-h2+31))"}


def _family_poly(n, i, j, k):
    """h_i - h_j + k, or h_i + k when j is None, primitive with positive
    lead (0-based indices in either order)."""
    import hdeform.kernel as K
    form = K.p_lincomb([(1, K.p_var(n, i)), (k, K.p_one(n))])
    if j is not None:
        form = K.p_lincomb([(1, form), (-1, K.p_var(n, j))])
    return K.p_primitive_sign(form)[2]


def test_factor_search_finds_every_family_factor():
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    rng = random.Random(41)
    h = [K.p_var(4, i) for i in range(4)]
    cofactors = [K.p_const(4, 1),
                 K.p_lincomb([(1, K.p_mul(h[0], h[0])),
                              (1, K.p_mul(h[1], h[1])), (1, K.p_one(4))]),
                 K.p_lincomb([(1, K.p_mul(h[0], h[0])),
                              (1, K.p_mul(h[1], h[1])), (1, h[2])])]
    for _ in range(80):
        cof = rng.choice(cofactors)
        poly, want = K.p_const(4, rng.choice([1, 3])), {}
        for _ in range(rng.randint(1, 6)):
            i, j = rng.sample(range(4), 2)
            form = _family_poly(4, i, j if rng.random() < 0.6 else None,
                                rng.randint(-500, 500))
            for _ in range(rng.choice([1, 1, 2, 3])):
                poly = K.p_mul(poly, form)
                key = K.fac_key(4, form)
                want[key] = want.get(key, 0) + 1
        prim = K.p_primitive_sign(K.p_mul(poly, cof))[2]
        assert _linear_family_factors(4, prim) == (
            cof, sorted(want.items(), key=by_form))
    # offsets of any size: the root search bisects, it does not sweep
    far = [_family_poly(2, 0, 1, k) for k in (10**12, 10**12, 10**12 + 1)]
    far.append(_family_poly(2, 1, None, -10**15))
    poly = far[0]
    for form in far[1:]:
        poly = K.p_mul(poly, form)
    assert _linear_family_factors(2, poly) == (K.p_const(2, 1), sorted(
        [(K.fac_key(2, far[0]), 2), (K.fac_key(2, far[2]), 1),
         (K.fac_key(2, far[3]), 1)], key=by_form))


def _forms(n):
    return st.tuples(st.integers(1, n), st.integers(0, n),
                     st.integers(-500, 500))


@st.composite
def _far_fractions(draw):
    """A rank and the linear forms of a numerator and a denominator, with
    offsets far past any fixed search window."""
    n = draw(st.integers(2, 3))
    num = draw(st.lists(_forms(n), max_size=3))
    den = draw(st.lists(_forms(n), min_size=1, max_size=4))
    return n, num, den


@settings(max_examples=80, deadline=None)
@given(_far_fractions(), st.sampled_from([(1, 2, 7), (2, 0, -300)]))
def test_equal_values_serialize_identically(case, extra):
    from functools import reduce
    import hdeform.kernel as K
    n, num, den = case
    num = [_linear(i, j, k, n) for i, j, k in num]
    den = [_linear(i, j, k, n) for i, j, k in den]
    unit = RatFun.const(n, 1)
    top = reduce(RatFun.__mul__, num, unit)
    bottom = reduce(RatFun.__mul__, den)
    e = _linear(*extra, n)
    routes = [reduce(RatFun.__truediv__, den, top),
              top / bottom,
              (top * e) / (bottom * e),
              RatFun.from_poly(n, top.num, bottom.num),
              parse(n, f"({K.p_str(n, top.num)})/"
                    f"({K.p_str(n, bottom.num)})"),
              parse(n, "(" + "*".join(f"({g})" for g in [unit] + num)
                    + ")/(" + "*".join(f"({g})" for g in den) + ")")]
    assert len({serialize(f) for f in routes}) == 1
    for f in routes[1:]:
        assert_same(f, routes[0])


def test_equality_of_linear_denominators_needs_no_subtraction(monkeypatch):
    a = parse(2, "(h1+200)/(h1-h2+30)/(h1-h2+31)")
    b = parse(2, "(h1+200)/(h1^2-2*h1*h2+h2^2+61*h1-61*h2+930)")
    c = a + 1

    def no_sub(self, other):
        raise AssertionError("== subtracted")

    monkeypatch.setattr(RatFun, "__sub__", no_sub)
    assert a == b
    assert a != c


# -- one signed factor map per value -----------------------------------------

def _record_kernel(monkeypatch):
    """Wrap every function of the kernel; returns the list of (name,
    args) it records."""
    import hdeform.kernel as K
    calls = []
    for name in K.__all__:
        fn = getattr(K, name)
        if callable(fn):
            def recording(*args, _fn=fn, _name=name):
                # p_cancel lowers its factor map in place: record a copy
                calls.append((_name, tuple(
                    dict(a) if isinstance(a, dict) else a for a in args)))
                return _fn(*args)
            monkeypatch.setattr(K, name, recording)
    return calls


def test_product_cancels_by_multiplicity_without_the_kernel(monkeypatch):
    import hdeform.kernel as K
    a = parse(3, "(h1-h2+1)/(h1-h2)")
    b = parse(3, "h1*(h2-h3-1)/((h2-h3)*(h1-h3))")
    c = parse(3, "(h1^2+h2*h3+3)/(h1-h2)")
    d = parse(3, "(h1-h2)/(h2-h3+2)")
    key = K.fac_key(3, parse(3, "h2-h3+2").num)
    calls = _record_kernel(monkeypatch)
    ab = a * b
    assert calls == []
    # h1-h2 cancels in the map; only h2-h3+2 meets a non-unit cofactor
    cd = c * d
    assert [(name, sorted(args[1])) for name, args in calls] \
        == [("p_cancel", [key])]
    monkeypatch.undo()
    assert ab == parse(3, "h1*(h1-h2+1)*(h2-h3-1)/(h1-h2)/(h2-h3)/(h1-h3)")
    assert cd == parse(3, "(h1^2+h2*h3+3)/(h2-h3+2)")


def _assert_stored_form(f):
    """The invariants of the map: no zero multiplicity, numerator forms
    of the family only, and nfac / dfac its sorted views."""
    from hdeform.coeffs import _is_family
    assert all(f.fac.values())
    assert all(_is_family(key) for key, m in f.fac.items() if m > 0)
    for view in (f.nfac, f.dfac):
        assert list(view) == sorted(view, key=by_form)
        assert all(m > 0 for _, m in view)
    assert {**dict(f.nfac), **{key: -m for key, m in f.dfac}} == f.fac


@settings(max_examples=80, deadline=None)
@given(_coefficients(), _coefficients(), weights,
       st.permutations([1, 2, 3]))
def test_stored_form_invariants(a, b, alpha, perm):
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    ab, ba = a * b, b * a
    assert (ab.fac, ab.cof) == (ba.fac, ba.cof)
    results = [ab, a + b, a - b, a.shift(alpha), a.permute(tuple(perm)),
               a.negate_h()]
    if not a.is_zero and K.p_degree(
            3, _linear_family_factors(3, a.cof)[0]) < 2:
        results.append(a.inverse())
    for f in results:
        _assert_stored_form(f)


def test_inverse_moves_a_form_outside_the_family_into_the_cofactor():
    import hdeform.kernel as K
    x = parse(3, "h1/(2*h1-h2-h3-1)")
    form = parse(3, "2*h1-h2-h3-1")
    key = K.fac_key(3, form.cof)
    assert x.fac == {K.fac_key(3, RatFun.var(3, 1).num): 1, key: -1}
    y = x.inverse()
    assert key not in y.fac and y.cof == form.cof
    assert serialize(y) == "(2*h1-h2-h3-1)/h1"
    assert (x * y).is_one
    _assert_stored_form(y)


@st.composite
def _unsplit_values(draw):
    """num / den built from expanded polynomials, so that every family
    factor of the numerator sits in the cofactor: family forms, repeated
    ones included, optionally a form outside the family, and a
    denominator that may share a form with the numerator (it cancels)."""
    import hdeform.kernel as K
    forms = st.tuples(st.integers(1, 3), st.integers(0, 3),
                      st.integers(-3, 3))
    num = [_linear(*f).num for f in draw(st.lists(forms, max_size=4))]
    num += num[:draw(st.integers(0, 2))]
    if draw(st.booleans()):
        num.append(parse(3, "2*h1-h2-1").num)
    den = [_linear(*f).num for f in draw(st.lists(forms, max_size=3))]
    if num and draw(st.booleans()):
        den.append(num[0])
    top = K.p_const(3, draw(st.sampled_from([1, -2, 3])))
    for poly in num:
        top = K.p_mul(top, poly)
    bottom = K.p_const(3, draw(st.sampled_from([1, 6])))
    for poly in den:
        bottom = K.p_mul(bottom, poly)
    return RatFun.from_poly(3, top, bottom)


@settings(max_examples=120, deadline=None)
@given(st.one_of(_unsplit_values(), _coefficients()), _atoms)
def test_split_keeps_the_value_and_empties_the_cofactor(v, g):
    import hdeform.kernel as K
    from hdeform.coeffs import _linear_family_factors
    s = v.split()
    assert s == v and v == s
    assert serialize(s) == serialize(v)
    assert _linear_family_factors(3, s.cof)[1] == []
    assert s.split() is s
    _assert_stored_form(s)
    # products cancel the moved factors by multiplicity, to the same form
    assert_same(s * g, v * g)
    for key, _ in s.nfac:
        f = RatFun.from_poly(3, K.fac_poly(key))
        assert_same(s / f, v / f)
