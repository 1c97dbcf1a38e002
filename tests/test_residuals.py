"""Residual verdicts against two-sided references.

The checks decide an identity whose side is a sum by one residual: the
expected side goes into the sum, negated, and the sum must vanish.  Here
one ingredient is perturbed, and the failures of the residual checks are
compared with those of a two-sided comparison computed in this file
(each side summed or normal-ordered on its own, then compared with
``==``).  Both must name the same (identity, indices) in the same order,
and every record holds the residual as lhs and "0" as rhs.
"""

import pytest

from hdeform import dra, rmatrix, store, weyl
from hdeform.algebra import add_elements, overlap_triples, substitute
from hdeform.coeffs import RatFun, add_many, eps, hdiff, serialize
from hdeform.rmatrix import DynTensor4
from hdeform.weyl import WeylAlgebra, check_forward_exchange, dgen, xgen


def _differ(identity, n, got, want):
    """{(identity, key): got - want} over the keys, in key order, where
    the sparse maps got and want differ (an absent key is zero)."""
    zero = RatFun.zero(n)
    return {(identity, key): g - w
            for key in sorted(set(got) | set(want))
            if (g := got.get(key, zero)) != (w := want.get(key, zero))}


def _sums(n, parts):
    return {key: add_many(n, ps) for key, ps in parts.items()}


# -- two-sided references of the rmatrix sum identities ----------------------

def _involutive(n):
    r = rmatrix.rhat(n)
    by_up = r.by_upper()
    parts = {}
    for (i, k, j, l), v in r.entries.items():
        for (m, p), w in by_up.get((j, l), ()):
            parts.setdefault((i, k, m, p), []).append(v * w)
    one = RatFun.const(n, 1)
    return _differ("rhat_squared_identity", n, _sums(n, parts),
                   {(i, k, i, k): one for i in range(1, n + 1)
                    for k in range(1, n + 1)})


def _dybe(n):
    r = rmatrix.rhat(n)
    by_up = r.by_upper()

    def down(a, key):
        return r.entries[key].shift(tuple(-x for x in eps(n, a)))

    lhs, rhs = {}, {}
    for (i, j, a, b), v1 in r.entries.items():
        for k in range(1, n + 1):
            for (u, rr), _ in by_up.get((b, k), ()):
                for (m, nn), v3 in by_up.get((a, u), ()):
                    lhs.setdefault((i, j, k, m, nn, rr), []).append(
                        v1 * down(a, (b, k, u, rr)) * v3)
    for (j, k, a, b), _ in r.entries.items():
        for i in range(1, n + 1):
            for (m, u), v2 in by_up.get((i, a), ()):
                for (nn, rr), _ in by_up.get((u, b), ()):
                    rhs.setdefault((i, j, k, m, nn, rr), []).append(
                        down(i, (j, k, a, b)) * v2 * down(m, (u, b, nn, rr)))
    return _differ("dynamical_yang_baxter", n, _sums(n, lhs), _sums(n, rhs))


def _skew(n):
    t, psi = rmatrix.that(n), rmatrix.psihat(n)
    rng = range(1, n + 1)
    one = RatFun.const(n, 1)
    parts = {}
    for (i, k, j, l), v in psi.entries.items():
        for m in rng:
            for nn in rng:
                w = t.get(l, m, k, nn)
                if w is not None:
                    parts.setdefault((i, j, m, nn), []).append(v * w)
    out = _differ("skew_inverse_contraction", n, _sums(n, parts),
                  {(i, j, j, i): one for i in rng for j in rng})
    out.update(_differ(
        "psihat_trace2", n,
        {(i, j): add_many(n, [psi[i, k, j, k] for k in rng])
         for i in rng for j in rng},
        {(i, i): rmatrix.qplus(n, i) for i in rng}))
    out.update(_differ(
        "psihat_trace1", n,
        {(m, nn): add_many(n, [psi[a, m, a, nn] for a in rng])
         for m in rng for nn in rng},
        {(m, m): rmatrix.qminus(n, m) for m in rng}))
    return out


def _weighted_sums(n):
    r = rmatrix.rhat(n)
    rng = range(1, n + 1)
    one, zero = RatFun.const(n, 1), RatFun.zero(n)
    out = {}
    for m in rng:
        down = tuple(-x for x in eps(n, m))
        for nn in rng:
            want = one if m == nn else zero
            row = add_many(n, [rmatrix.qminus(n, a).shift(down) * v
                               for a in rng
                               if (v := r.get(m, a, nn, a)) is not None])
            col = add_many(n, [rmatrix.qplus(n, a).shift(eps(n, m)) * w
                               for a in rng
                               if (w := r.get(a, m, a, nn)) is not None])
            if row != want:
                out["qminus_weighted_row_sum", (m, nn)] = row - want
            if col != want:
                out["qplus_weighted_column_sum", (m, nn)] = col - want
    return out


def _traces(n):
    rng = range(1, n + 1)
    out = {}
    for identity, q in (("trace_qplus", rmatrix.qplus),
                        ("trace_qminus", rmatrix.qminus)):
        out.update(_differ(identity, n,
                           {(n,): add_many(n, [q(n, j) for j in rng])},
                           {(n,): RatFun.const(n, n)}))
    out.update(_differ(
        "qminus_partial_fraction_row", n,
        {(i,): add_many(n, [rmatrix.qminus(n, j)
                            / (hdiff(n, i, j) + 1) for j in rng])
         for i in rng},
        {(i,): RatFun.const(n, 1) for i in rng}))
    return out


def rmatrix_two_sided(n):
    """The failing sum identities of ``rmatrix.run_suite(n)``, in its
    order, each with its residual."""
    out = {}
    for ref in (_involutive, _dybe, _skew, _weighted_sums, _traces):
        out.update(ref(n))
    return out


# -- perturbations ---------------------------------------------------------------

def entry_times_two(monkeypatch, name, rank, key, module=rmatrix):
    """Double one entry of the rank-rank tensor rmatrix.name, as module
    sees it."""
    orig = getattr(rmatrix, name)

    def perturbed(n):
        t = orig(n)
        if n != rank:
            return t
        entries = dict(t.entries)
        entries[key] = entries[key] * 2
        return DynTensor4(n, entries)

    monkeypatch.setattr(module, name, perturbed)


def qminus_times_two(monkeypatch, rank):
    orig = rmatrix.qminus
    monkeypatch.setattr(rmatrix, "qminus", lambda n, i: (
        orig(n, i) * 2 if (n, i) == (rank, 1) else orig(n, i)))


def same_copy_rule_times_two():
    # L[1,1] L[2,1] -> ..., the first term doubled in the rule store
    rules = dict(dra.rule_system(2))
    (c, word), *rest = rules[(1, 1), (2, 1)]
    rules[(1, 1), (2, 1)] = [(c * 2, word)] + rest
    store._STORE["dra.rule_system", (2, dra.normal_order, False)] = rules


def assert_same_failures(failures, names, two_sided):
    """The failures naming an identity of names are, in order, the keys
    of two_sided, each holding its residual as lhs and "0" as rhs."""
    got = [f for f in failures if f["identity"] in names]
    assert [(f["identity"], tuple(f["indices"])) for f in got] \
        == list(two_sided)
    for f, residual in zip(got, two_sided.values()):
        assert (f["lhs"], f["rhs"]) == (str(residual), "0")


RMATRIX_SUMS = {"rhat_squared_identity", "dynamical_yang_baxter",
                "skew_inverse_contraction", "psihat_trace2", "psihat_trace1",
                "qminus_weighted_row_sum", "qplus_weighted_column_sum",
                "trace_qplus", "trace_qminus", "qminus_partial_fraction_row"}


@pytest.mark.parametrize("n,perturb", [
    (2, lambda mp: entry_times_two(mp, "rhat", 2, (1, 2, 2, 1))),
    (3, lambda mp: entry_times_two(mp, "rhat", 3, (1, 2, 2, 1))),
    (3, lambda mp: entry_times_two(mp, "rhat", 3, (2, 3, 2, 3))),
    (2, lambda mp: entry_times_two(mp, "psihat", 2, (1, 2, 1, 2))),
    (2, lambda mp: qminus_times_two(mp, 2)),
], ids=["rhat_n2", "rhat_n3", "rhat_n3_diagonal", "psihat_n2", "qminus_n2"])
def test_rmatrix_residuals_fail_where_the_two_sides_differ(
        monkeypatch, n, perturb):
    monkeypatch.setattr(store, "_STORE", {})
    perturb(monkeypatch)
    two_sided = rmatrix_two_sided(n)
    assert two_sided
    assert_same_failures(rmatrix.run_suite(n), RMATRIX_SUMS, two_sided)


def test_rmatrix_references_pass_unperturbed():
    assert rmatrix_two_sided(2) == {} == rmatrix_two_sided(3)


def test_rule_perturbation_residuals_match_two_sided_comparisons(monkeypatch):
    monkeypatch.setattr(store, "_STORE", {})
    same_copy_rule_times_two()

    alg = dra.ReductionAlgebra(2)
    nf, gen = alg.normal_form, alg.gen_element
    two_sided = {}
    for g1, g2, g3 in overlap_triples(alg, alg.generators()):
        left = nf(nf(gen(g1) * gen(g2)) * gen(g3))
        right = nf(gen(g1) * nf(gen(g2) * gen(g3)))
        if left != right:
            two_sided["associativity_oracle", (g1, g2, g3)] = left - right
    assert two_sided
    assert_same_failures(dra.check_associativity(2),
                         {"associativity_oracle"}, two_sided)

    walg = WeylAlgebra(2, 2)
    lt = walg.ltilde()
    rules = dra.rule_system(2)
    two_sided = {}
    for pair in sorted(rules):
        lhs = walg.normal_form(lt[pair[0]] * lt[pair[1]])
        rhs = walg.normal_form(substitute(walg, rules[pair], lt))
        if lhs != rhs:
            two_sided["rule_in_weyl_realization", pair] = lhs - rhs
    assert two_sided
    assert_same_failures(dra.check_weyl_realization(2),
                         {"rule_in_weyl_realization"}, two_sided)


def test_forward_exchange_residuals_match_two_sided_comparison(monkeypatch):
    monkeypatch.setattr(store, "_STORE", {})
    # the engine's D-x rule reads psihat; the reference reads that
    entry_times_two(monkeypatch, "psihat", 2, (1, 2, 1, 2), weyl)
    alg = WeylAlgebra(2, 2)
    nf, t = alg.normal_form, rmatrix.that(2)
    two_sided = {}
    for i in (1, 2):
        for j in (1, 2):
            for a in (1, 2):
                for b in (1, 2):
                    got = [nf(alg.word_element((dgen(k, b), xgen(l, a))))
                           .times_coeff_left(c)
                           for k in (1, 2) for l in (1, 2)
                           if (c := t.get(i, k, j, l)) is not None]
                    if a == b and i == j:
                        got.append(-alg.one())
                    got = nf(add_elements(alg, got))
                    want = alg.word_element((xgen(i, a), dgen(j, b)))
                    if got != want:
                        two_sided["forward_exchange_round_trip",
                                  (i, j, a, b)] = got - want
    assert two_sided
    assert_same_failures(check_forward_exchange(2, 2),
                         {"forward_exchange_round_trip"}, two_sided)


def test_aux_identities_shift_each_q_weight_once(monkeypatch):
    # one nontrivial shift per distinct (value, shift) pair of the checks
    for n in (2, 3, 4):
        rmatrix.check_aux_identities(n)        # build what it stores
    orig = RatFun.shift
    calls = []

    def shift(self, alpha):
        if any(alpha) and not self._is_constant:
            calls.append((serialize(self), alpha))
        return orig(self, alpha)

    monkeypatch.setattr(RatFun, "shift", shift)
    counts = []
    for n in (2, 3, 4):
        calls.clear()
        assert rmatrix.check_aux_identities(n) == []
        counts.append(len(calls))
    assert counts == [26, 69, 140]
