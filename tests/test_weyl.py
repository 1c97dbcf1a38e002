"""Deformed Weyl algebra: exchange rules, normal ordering, automorphisms."""

import pytest

from hdeform.coeffs import RatFun, eps, hdiff, phi, phi_segment
from hdeform.weyl import (WeylAlgebra, _unbarred_d, check_confluence,
                          check_forward_exchange, check_variant_generators,
                          dgen, split_realization, verify_reflection,
                          verify_zhelobenko, xgen, zhelobenko,
                          zhelobenko_images, zhelobenko_square_action)


@pytest.fixture
def alg2():
    return WeylAlgebra(2, 1)


def test_multiply_concatenates(alg2):
    e = alg2.x(1) * alg2.x(1)
    assert e.terms == {(xgen(1), xgen(1)): RatFun.const(2, 1)}


def test_multiply_keeps_left_coefficient(alg2):
    h = hdiff(2, 1, 2)
    e = alg2.x(1).times_coeff_left(h) * alg2.d(2)
    assert e.terms == {(xgen(1), dgen(2)): h}


def test_multiply_shifts_crossing_coefficient(alg2):
    # a coefficient crossing a derivative of weight -eps_1 gains +eps_1
    h = hdiff(2, 1, 2)
    e = alg2.d(1) * alg2.x(1).times_coeff_left(h)
    assert e.terms == {(dgen(1), xgen(1)): h + 1}


def test_normal_form_of_derivative_past_coordinate(alg2):
    # the skew-inverse rule at n=2: three terms, coefficients fixed
    h = hdiff(2, 1, 2)
    got = alg2.normal_form(alg2.d(1) * alg2.x(1))
    want = {
        (xgen(1), dgen(1)): (h * h - 1) / (h * h),
        (xgen(2), dgen(2)): (h + 1) / (h * h),
        (): (h + 1) / h,
    }
    assert got.terms == want


def test_normal_form_round_trips_through_forward_rule():
    assert check_forward_exchange(2, 2) == []
    assert check_forward_exchange(3, 1) == []


def test_fermionic_round_trip_through_forward_rule():
    assert check_forward_exchange(2, 2, fermionic=True) == []
    assert check_forward_exchange(3, 1, fermionic=True) == []


def test_normal_form_idempotent(alg2):
    e = alg2.normal_form(alg2.d(2) * alg2.x(2) * alg2.d(1))
    assert alg2.normal_form(e) == e


def test_same_index_copy_swap():
    alg = WeylAlgebra(2, 2)
    got = alg.normal_form(alg.x(1, 1) * alg.x(1, 2))
    assert got.terms == {(xgen(1, 1), xgen(1, 2)): RatFun.const(2, 1)}
    got = alg.normal_form(alg.x(1, 2) * alg.x(1, 1))
    assert got.terms == {(xgen(1, 1), xgen(1, 2)): RatFun.const(2, 1)}


def test_weight_conservation():
    alg = WeylAlgebra(3, 2)
    e = alg.d(1, 2) * alg.x(3, 1) * alg.d(2, 1)
    wt = alg.word_weight(next(iter(e.terms)))
    nf = alg.normal_form(e)
    for word in nf.terms:
        assert alg.word_weight(word) == wt


def test_two_copy_exchange_table():
    # the printed two-copy relations at n=2 (homogeneous parts)
    from hdeform.dra import check_appendix_cross_copy
    assert check_appendix_cross_copy() == []


def test_ltilde_shape():
    alg = WeylAlgebra(2, 2)
    lt = alg.ltilde()
    assert lt[(1, 2)].terms == {
        (xgen(1, 1), dgen(2, 1)): RatFun.const(2, 1),
        (xgen(1, 2), dgen(2, 2)): RatFun.const(2, 1),
    }
    for (i, j), el in lt.items():
        want = tuple(a - b for a, b in zip(eps(2, i), eps(2, j)))
        for word in el.terms:
            assert alg.word_weight(word) == want


@pytest.mark.parametrize("n,copies,fermionic", [
    (2, 1, False), (2, 2, False), (2, 1, True), (2, 2, True)])
def test_reflection_small(n, copies, fermionic):
    assert verify_reflection(n, copies, fermionic) == []


def test_reflection_fails_under_variant_convention():
    assert verify_reflection(2, 2, False,
                             inhomogeneous_across_copies=True) != []


@pytest.mark.parametrize("n,copies,fermionic", [
    (2, 1, False), (2, 1, True), (2, 2, True)])
def test_confluence_small(n, copies, fermionic):
    assert check_confluence(n, copies, fermionic) == []


def test_fermionic_squares_vanish():
    alg = WeylAlgebra(2, 1, fermionic=True)
    assert alg.normal_form(alg.x(1) * alg.x(1)).is_zero
    assert alg.normal_form(alg.d(2) * alg.d(2)).is_zero


def test_fermionic_anticommutator_normalization():
    # D x + x D == 1 at n = 1 in the fermionic variant
    alg = WeylAlgebra(1, 1, fermionic=True)
    got = alg.normal_form(alg.d(1) * alg.x(1) + alg.x(1) * alg.d(1))
    assert got == alg.one()


def test_fermionic_same_index_copy_swap_sign():
    alg = WeylAlgebra(2, 2, fermionic=True)
    got = alg.normal_form(alg.x(1, 2) * alg.x(1, 1))
    assert got == -(alg.x(1, 1) * alg.x(1, 2))


def test_zhelobenko_images():
    alg = WeylAlgebra(2, 1)
    img = zhelobenko_images(alg, 1)
    h = hdiff(2, 1, 2)
    assert img[xgen(1)] == (-alg.x(2)).times_coeff_right(h / (h - 1))
    assert img[xgen(2)] == alg.x(1)
    assert img[dgen(1)] == (-alg.d(2)).times_coeff_left((h - 1) / h)
    assert img[dgen(2)] == alg.d(1)


def test_zhelobenko_fixes_remote_generators():
    alg = WeylAlgebra(4, 1)
    img = zhelobenko_images(alg, 1)
    assert img[xgen(3)] == alg.x(3)
    assert img[dgen(4)] == alg.d(4)


@pytest.mark.parametrize("n,i", [(2, 1), (3, 1), (3, 2)])
def test_zhelobenko_on_unbarred_derivatives(n, i):
    # the action on the unscaled derivative family: d_i -> -d_{i+1},
    # d_{i+1} -> d_i * h/(h-1), others fixed
    alg = WeylAlgebra(n, 1)
    h = hdiff(n, i, i + 1)
    for j in range(1, n + 1):
        got = zhelobenko(alg, i, _unbarred_d(alg, j))
        if j == i:
            want = alg.normal_form(-_unbarred_d(alg, i + 1))
        elif j == i + 1:
            want = alg.normal_form(
                _unbarred_d(alg, i).times_coeff_right(h / (h - 1)))
        else:
            want = alg.normal_form(_unbarred_d(alg, j))
        assert got == want


def _ordered_classes(alg, a=1, b=1):
    """The normal-ordered diagonal classes: the triangular change of
    variables applied to the ordered products, solved top-down."""
    n = alg.n
    z = {}
    for i in range(n, 0, -1):
        zi = (alg.x(i, a) * alg.d(i, b)).times_coeff_left(phi(n, i).inverse())
        for m in range(i + 1, n + 1):
            c = (hdiff(n, i, m) * phi_segment(n, i, m)).inverse()
            zi = zi + z[m].times_coeff_left(c)
        z[i] = alg.normal_form(zi)
    return z


@pytest.mark.parametrize("n,a,b,copies", [(2, 1, 1, 1), (3, 1, 1, 1),
                                          (2, 1, 2, 2)])
def test_zhelobenko_on_ordered_classes(n, a, b, copies):
    # the braid generator mixes the two adjacent diagonal classes with
    # coefficients -1/(h-1) and h/(h-1), and fixes the others
    alg = WeylAlgebra(n, copies)
    z = _ordered_classes(alg, a, b)
    for i in range(1, n):
        h = hdiff(n, i, i + 1)
        got = zhelobenko(alg, i, z[i])
        want = alg.normal_form(
            z[i].times_coeff_left(-(RatFun.const(n, 1) / (h - 1)))
            + z[i + 1].times_coeff_left(h / (h - 1)))
        assert got == want
        got2 = zhelobenko(alg, i, z[i + 1])
        want2 = alg.normal_form(
            z[i].times_coeff_left(h / (h - 1))
            - z[i + 1].times_coeff_left(RatFun.const(n, 1) / (h - 1)))
        assert got2 == want2
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                assert zhelobenko(alg, i, z[j]) == z[j]


@pytest.mark.parametrize("n", [2, 3])
def test_zhelobenko_suite(n):
    assert verify_zhelobenko(n) == []


def test_zhelobenko_square_recorded():
    out = zhelobenko_square_action(2)
    assert (1, xgen(1)) in out and (1, dgen(2)) in out
    # recorded, not asserted against a target: just a sanity shape check
    assert all(isinstance(v, str) and v for v in out.values())


@pytest.mark.parametrize("n", [2, 3])
def test_variant_generators(n):
    assert check_variant_generators(n) == []


def test_split_realization():
    assert split_realization(2, 2, 1) == []


def test_split_realization_bad_nu():
    from hdeform.errors import CoefficientError
    with pytest.raises(CoefficientError):
        split_realization(2, 2, 2)


def test_run_suite_driver():
    from hdeform.weyl import run_suite
    assert run_suite(2, 1, False, "reflection") == []
    assert run_suite(2, 2, False, "split") == []
    with pytest.raises(ValueError, match="unknown weyl suite 'bogus'"):
        run_suite(2, 1, False, "bogus")
    # a named suite that selects nothing is an error, not a pass
    with pytest.raises(ValueError, match="needs --N 2 or more"):
        run_suite(2, 1, False, "split")
    with pytest.raises(ValueError, match="defined for --stats bosonic"):
        run_suite(2, 2, True, "variants")


def test_rewrite_measure_strictly_decreases():
    """The lexicographic termination measure of the exchange rules:
    derivative-before-coordinate inversions, then index inversions inside
    each block, then copy inversions among equal indices."""
    import random

    alg = WeylAlgebra(3, 2)

    def measure(word):
        dx = sum(1 for p in range(len(word)) for q in range(p + 1, len(word))
                 if word[p][0] == 1 and word[q][0] == 0)
        idx = sum(1 for p in range(len(word)) for q in range(p + 1, len(word))
                  if word[p][0] == word[q][0] and word[p][1] > word[q][1])
        cpy = sum(1 for p in range(len(word)) for q in range(p + 1, len(word))
                  if word[p][:2] == word[q][:2] and word[p][2] > word[q][2])
        return (dx, idx, cpy)

    rng = random.Random(5)
    gens = alg.generators()
    for _ in range(300):
        word = tuple(rng.choice(gens) for _ in range(4))
        pos = next((p for p in range(3)
                    if alg.needs_rewrite(word[p], word[p + 1])), None)
        if pos is None:
            continue
        m0 = measure(word)
        for _, repl in alg.pair_rule(word[pos], word[pos + 1]):
            nw = word[:pos] + repl + word[pos + 2:]
            assert measure(nw) < m0
