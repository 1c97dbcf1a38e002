"""Dynamical tensors: entry tables and identity suites."""

import pytest

from hdeform.coeffs import RatFun, eps, hdiff, parse, qminus, qplus
from hdeform.rmatrix import (check_aux_identities, check_dybe,
                             check_involutive, check_skew_inverse,
                             check_traces, hmat, psihat, qminus_op, rhat,
                             run_suite, shat, that)


def test_rhat_rank_two_table():
    r = rhat(2)
    h = hdiff(2, 1, 2)
    one = RatFun.const(2, 1)
    assert r[(1, 2, 1, 2)] == one / h
    assert r[(1, 2, 2, 1)] == (h * h - 1) / (h * h)
    assert r[(2, 1, 2, 1)] == -(one / h)
    assert r[(2, 1, 1, 2)] == one
    assert r[(1, 1, 1, 1)] == one
    assert r[(2, 2, 2, 2)] == one
    assert len(r.entries) == 6


def test_sparsity_is_quadratic():
    for n in range(1, 7):
        assert len(rhat(n).entries) == 2 * n * n - n


def test_sparsity_pattern_enforced():
    from hdeform.rmatrix import DynTensor4
    with pytest.raises(ValueError):
        DynTensor4(2, {(1, 1, 2, 2): RatFun.const(2, 1)})


def test_psihat_upper_swap_is_one():
    psi = psihat(2)
    assert psi[(1, 2, 2, 1)] == RatFun.const(2, 1)


def test_qminus_diagonal_rank_two():
    q = qminus_op(2)
    h = hdiff(2, 1, 2)
    assert q[1] == (h - 1) / h
    assert q[2] == (h + 1) / h


def test_that_entry_from_shifted_rhat():
    # entry (1,2 | 1,2) must be -1/(h-1)
    t = that(2)
    h = hdiff(2, 1, 2)
    assert t[(1, 2, 1, 2)] == -(RatFun.const(2, 1) / (h - 1))
    r = rhat(2)
    assert t[(1, 2, 1, 2)] == r[(2, 1, 2, 1)].shift(eps(2, 2))


def test_hmat_entries():
    h = hmat(3)
    assert h[2] == parse(3, "h2+3")


def test_involutive_row_rank_two():
    # row (1,2) of the square is the unit vector at (1,2)
    r = rhat(2)
    total = {}
    for j in (1, 2):
        for l in (1, 2):
            v = r.get(1, 2, j, l)
            if v is None:
                continue
            for m in (1, 2):
                for p in (1, 2):
                    w = r.get(j, l, m, p)
                    if w is None:
                        continue
                    total[(m, p)] = total.get((m, p), RatFun.zero(2)) + v * w
    total = {k: v for k, v in total.items() if not v.is_zero}
    assert total == {(1, 2): RatFun.const(2, 1)}


@pytest.mark.parametrize("n", [1, 2, 3])
def test_involutive(n):
    assert check_involutive(n) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_dybe(n):
    assert check_dybe(n) == []


@pytest.mark.parametrize("n", [1, 2, 3])
def test_skew_inverse(n):
    assert check_skew_inverse(n) == []


def test_skew_trace_values_rank_two():
    psi = psihat(2)
    h = hdiff(2, 1, 2)
    tr2 = psi[(1, 1, 1, 1)] + psi[(1, 2, 1, 2)]
    assert tr2 == (h + 1) / h == qplus(2, 1)
    tr1 = psi[(1, 1, 1, 1)] + psi[(2, 1, 2, 1)]
    assert tr1 == qminus(2, 1)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_aux_identities(n):
    assert check_aux_identities(n) == []


def test_weighted_row_sum_expansion_rank_two():
    # m = n = 1: the two summands are (h-2)/(h-1) and 1/(h-1)
    n = 2
    r = rhat(n)
    h = hdiff(2, 1, 2)
    t1 = qminus(2, 1).shift(tuple(-x for x in eps(2, 1))) * r[(1, 1, 1, 1)]
    t2 = qminus(2, 2).shift(tuple(-x for x in eps(2, 1))) * r[(1, 2, 1, 2)]
    assert t1 == (h - 2) / (h - 1)
    assert t2 == RatFun.const(2, 1) / (h - 1)
    assert t1 + t2 == RatFun.const(2, 1)


@pytest.mark.parametrize("n", range(1, 7))
def test_traces(n):
    if n <= 4:
        assert check_traces(n) == []
    else:
        # the full suite is heavy at high rank; pin the trace values
        tp = RatFun.zero(n)
        for i in range(1, n + 1):
            tp = tp + qplus(n, i)
        assert tp == RatFun.const(n, n)


def test_shat_is_shifted_rhat_rank_three():
    s = shat(3)
    r = rhat(3)
    for (i, k, j, l), v in s.entries.items():
        assert v == r[(i, k, j, l)].shift(eps(3, j))


def test_run_suite_dispatch():
    assert run_suite(2, "all") == []
    assert run_suite(1, "involutive") == []
    with pytest.raises(ValueError):
        run_suite(2, "nonsense")

