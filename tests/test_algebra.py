"""Engine-level behaviour: guards, weight bookkeeping, printing."""

import itertools

import pytest

import hdeform.algebra as A
from hdeform import coeffs
from hdeform.coeffs import RatFun, hdiff, set_term_limit
from hdeform.dra import ReductionAlgebra, rule_system
from hdeform.errors import ResourceLimitError, RewriteLimitError
from hdeform.weyl import WeylAlgebra, dgen, xgen


def test_rewrite_step_guard_catches_divergence(monkeypatch):
    # plain lexicographic generator order cycles; the guard must fire
    monkeypatch.setattr(A, "_STEP_LIMIT", 40)
    alg = ReductionAlgebra(2, gen_order=lambda p: p, order_name="lex-test")
    word = alg.gen(2, 1) * alg.gen(2, 2) * alg.gen(1, 2)
    with pytest.raises(RewriteLimitError):
        alg.normal_form(word)


def test_coefficient_term_guard():
    set_term_limit(4)
    try:
        f = RatFun.const(3, 1)
        with pytest.raises(ResourceLimitError):
            for i in (1, 2, 3):
                f = f * (hdiff(3, 1, 2) + i) * (hdiff(3, 2, 3) + i)
    finally:
        set_term_limit(0)


def test_element_term_guard_follows_set_term_limit():
    # one HDEFORM_MAX_TERMS setting: the element guard reads the limit
    # that set_term_limit sets, not a copy taken at import
    alg = WeylAlgebra(2, 1)
    gens = [alg.x(1), alg.x(2), alg.d(1), alg.d(2)]
    before = coeffs._MAX_TERMS
    set_term_limit(3)
    try:
        three = gens[0] + gens[1] + gens[2]
        assert len(three.terms) == 3
        with pytest.raises(ResourceLimitError, match="HDEFORM_MAX_TERMS=3"):
            three + gens[3]
    finally:
        set_term_limit(before)


def test_algebra_mismatch_raises():
    a2 = WeylAlgebra(2, 1)
    a3 = WeylAlgebra(3, 1)
    with pytest.raises(ValueError):
        a2.x(1) + a3.x(1)
    with pytest.raises(ValueError):
        a2.x(1) * a3.x(1)


def test_equal_config_algebras_interoperate():
    a = WeylAlgebra(2, 1)
    b = WeylAlgebra(2, 1)
    assert a.x(1) + b.x(1) == a.x(1).times_int(2)


def test_weight_decomposition():
    alg = WeylAlgebra(2, 1)
    e = alg.x(1) * alg.x(2) + alg.x(1) * alg.d(2)
    parts = e.weight_decomposition()
    assert set(parts) == {(1, 1), (1, -1)}


def test_element_printing():
    alg = WeylAlgebra(2, 1)
    h = hdiff(2, 1, 2)
    e = alg.x(1).times_coeff_left(h) + alg.one() + alg.d(2).times_int(-2)
    assert str(e) == "1 + (h1-h2)*x[1,1] + -2*D[2,1]"
    assert str(alg.zero()) == "0"


def test_times_coeff_right_shifts():
    alg = WeylAlgebra(2, 1)
    h = hdiff(2, 1, 2)
    # x has weight +eps_1, so a right coefficient loses one unit of h12
    assert alg.x(1).times_coeff_right(h) == alg.x(1).times_coeff_left(h - 1)


def rightmost_normal_form(alg, el):
    """Reference reduction that always rewrites the rightmost descent."""
    from hdeform.algebra import Element
    pending = dict(el.terms)
    out = {}
    while pending:
        word, coeff = pending.popitem()
        pos = None
        for p in range(len(word) - 2, -1, -1):
            if alg.needs_rewrite(word[p], word[p + 1]):
                pos = p
                break
        if pos is None:
            s = out.get(word)
            s = coeff if s is None else s + coeff
            if s.is_zero:
                out.pop(word, None)
            else:
                out[word] = s
            continue
        prefix, suffix = word[:pos], word[pos + 2:]
        cross = tuple(-x for x in alg.word_weight(prefix))
        for rc, repl in alg.pair_rule(word[pos], word[pos + 1]):
            nw = prefix + repl + suffix
            nc = coeff * rc.shift(cross)
            if nc.is_zero:
                continue
            s = pending.get(nw)
            s = nc if s is None else s + nc
            if s.is_zero:
                pending.pop(nw, None)
            else:
                pending[nw] = s
    return Element(alg, out)


def _random_word_element(alg, gens, rng, length):
    el = alg.one()
    for _ in range(length):
        el = el * alg.gen_element(rng.choice(gens))
    return el


def test_normal_form_is_strategy_independent_weyl():
    import random
    rng = random.Random(31)
    for fermionic in (False, True):
        alg = WeylAlgebra(2, 2, fermionic=fermionic)
        gens = alg.generators()
        for _ in range(40):
            e = _random_word_element(alg, gens, rng, rng.randint(2, 5))
            assert alg.normal_form(e) == rightmost_normal_form(alg, e)


def test_normal_form_is_strategy_independent_reduction():
    import random
    rng = random.Random(32)
    for n, trials, maxlen in ((2, 40, 4), (3, 12, 3)):
        alg = ReductionAlgebra(n, copies=2)
        gens = alg.generators(1) + alg.generators(2)
        for _ in range(trials):
            e = _random_word_element(alg, gens, rng, rng.randint(2, maxlen))
            assert alg.normal_form(e) == rightmost_normal_form(alg, e)


# -- the degree-3 oracle: overlap ambiguities against every triple -----------

def _oracles_agree(alg):
    """Failures of the overlap oracle, checked against the reference
    oracle over the full product of generator triples."""
    gens = alg.generators()
    overlaps = A.associativity_failures(alg, A.overlap_triples(alg, gens))
    full = A.associativity_failures(alg, itertools.product(gens, repeat=3))
    assert overlaps == full
    return overlaps


def _doubled(rule, idx):
    rule = list(rule)
    c, word = rule[idx]
    rule[idx] = (c + c, word)
    return rule


@pytest.mark.parametrize("make,args,count", [
    (ReductionAlgebra, (2,), 4), (ReductionAlgebra, (3,), 84),
    (WeylAlgebra, (2, 2), 56), (WeylAlgebra, (2, 2, True), 120),
    (WeylAlgebra, (3, 1), 20)])
def test_overlap_triple_counts(make, args, count):
    alg = make(*args)
    assert len(A.overlap_triples(alg, alg.generators())) == count


def test_overlap_oracle_matches_full_oracle_on_corrupted_rank_two_rules():
    # every single-term doubling of a same-copy rule, on a private copy
    # of the shared rule store
    rules = rule_system(2)
    caught = 0
    corruptions = [(key, idx) for key in sorted(rules)
                   for idx in range(len(rules[key]))]
    for key, idx in corruptions:
        alg = ReductionAlgebra(2)
        alg.same_rules = dict(rules)
        alg.same_rules[key] = _doubled(rules[key], idx)
        caught += bool(_oracles_agree(alg))
    assert (len(corruptions), caught) == (19, 13)
    assert _oracles_agree(ReductionAlgebra(2)) == []


@pytest.mark.parametrize("n,copies,fermionic", [
    (2, 2, False), (2, 2, True), (3, 1, False)])
def test_overlap_oracle_matches_full_oracle_on_corrupted_weyl_rule(
        n, copies, fermionic):
    # double the unit term of D[1,1] x[1,1] -> ... + qplus
    alg = WeylAlgebra(n, copies, fermionic)
    pair = (dgen(1), xgen(1))
    rule = alg.pair_rule(*pair)
    assert rule[-1][1] == ()
    alg._rules[pair] = _doubled(rule, len(rule) - 1)
    assert _oracles_agree(alg) != []
