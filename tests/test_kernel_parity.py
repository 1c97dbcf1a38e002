"""The compiled kernel and the pure-Python kernel must agree exactly."""

import random

import pytest

from hdeform.kernel import _poly_py as pure

try:
    from hdeform.kernel import _poly_cy as fast
except ImportError:
    fast = None

needs_ext = pytest.mark.skipif(fast is None,
                               reason="compiled kernel not built")


def random_poly(rng, nvars=3, terms=6, deg=4, span=40):
    out = {}
    for _ in range(rng.randint(1, terms)):
        exp = tuple(rng.randint(0, deg) for _ in range(nvars))
        c = rng.randint(-span, span)
        if c:
            out[exp] = c
    return out


@needs_ext
def test_arithmetic_parity():
    rng = random.Random(11)
    for _ in range(300):
        a = random_poly(rng)
        b = random_poly(rng)
        assert pure.p_add(a, b) == fast.p_add(a, b)
        assert pure.p_sub(a, b) == fast.p_sub(a, b)
        assert pure.p_mul(a, b) == fast.p_mul(a, b)
        assert pure.p_neg(a) == fast.p_neg(a)
        k = rng.randint(-5, 5)
        assert pure.p_mul_int(a, k) == fast.p_mul_int(a, k)


@needs_ext
def test_structure_parity():
    rng = random.Random(12)
    for _ in range(200):
        a = random_poly(rng)
        if not a:
            continue
        assert pure.p_lead(a) == fast.p_lead(a)
        assert pure.p_degree(a) == fast.p_degree(a)
        assert pure.p_content(a) == fast.p_content(a)
        assert pure.p_primitive_sign(a) == fast.p_primitive_sign(a)
        assert pure.p_is_const(a) == fast.p_is_const(a)


@needs_ext
def test_substitution_parity():
    rng = random.Random(13)
    for _ in range(200):
        a = random_poly(rng)
        deltas = tuple(rng.randint(-3, 3) for _ in range(3))
        assert pure.p_shift(a, deltas) == fast.p_shift(a, deltas)
        perm = [0, 1, 2]
        rng.shuffle(perm)
        assert pure.p_permute(a, tuple(perm)) == fast.p_permute(a, tuple(perm))
        assert pure.p_negate(a) == fast.p_negate(a)
        point = tuple(rng.randint(-7, 7) for _ in range(3))
        assert pure.p_eval(a, point) == fast.p_eval(a, point)


@needs_ext
def test_division_parity():
    rng = random.Random(14)
    for _ in range(200):
        b = random_poly(rng, terms=3, deg=2, span=4)
        if not b:
            continue
        _, _, b = pure.p_primitive_sign(b)
        q = random_poly(rng, terms=4, deg=3)
        a = pure.p_mul(q, b)
        assert pure.p_divexact(a, b) == fast.p_divexact(a, b) == q
        # a non-multiple must be rejected identically
        a2 = pure.p_add(a, {(1, 0, 0): 1, (0, 0, 0): 1})
        assert pure.p_divexact(a2, b) == fast.p_divexact(a2, b)


@needs_ext
def test_division_parity_far_offsets_and_probe_zeros():
    # linear divisors past any trial-division window, and divisors that
    # vanish at a probe point (no rejection is possible there)
    rng = random.Random(15)
    pt = pure.PROBE_POINTS[0]
    for k in (-40, -29, 31, 40, pt[1] - pt[0], pt[0] - pt[2]):
        for b in ({(1, 0, 0): 1, (0, 1, 0): -1, (0, 0, 0): k},
                  {(1, 0, 0): 1, (0, 0, 1): -1, (0, 0, 0): k},
                  {(0, 1, 0): 1, (0, 0, 0): k}):
            q = random_poly(rng, terms=6, deg=3)
            a = pure.p_mul(pure.p_mul(q, b), b)
            assert pure.p_divexact(a, b) == fast.p_divexact(a, b)
            assert pure.p_divexact(a, b) == pure.p_mul(q, b)
            a2 = pure.p_add(a, {(0, 0, 0): 1})
            assert pure.p_divexact(a2, b) is None
            assert fast.p_divexact(a2, b) is None


@needs_ext
def test_big_integer_parity():
    a = {(3, 0, 0): 10**40, (0, 1, 0): -(7**30)}
    b = {(1, 1, 0): 2**70, (0, 0, 2): 3}
    assert pure.p_mul(a, b) == fast.p_mul(a, b)
    assert pure.p_shift(a, (5, -5, 1)) == fast.p_shift(a, (5, -5, 1))
