"""Engine-level behaviour: guards, weight bookkeeping, printing."""

import itertools

import pytest

import hdeform.algebra as A
from hdeform import coeffs
from hdeform.coeffs import RatFun, hdiff, set_term_limit, special
from hdeform.dra import ReductionAlgebra, rule_system
from hdeform.errors import ResourceLimitError, RewriteLimitError
from hdeform.weyl import WeylAlgebra, dgen, verify_reflection, xgen


def test_rewrite_step_guard_catches_divergence():
    # plain lexicographic generator order cycles; the search names a word
    # on the cycle at once instead of spinning up to the step guard
    alg = ReductionAlgebra(2, gen_order=lambda p: p)
    word = alg.gen(2, 1) * alg.gen(2, 2) * alg.gen(1, 2)
    with pytest.raises(RewriteLimitError,
                       match=r"^normal ordering cycles: "
                             r"L\[2,1\]\*L\[2,2\]\*L\[1,2\] \(length 3\) "
                             r"rewrites back to itself$") as excinfo:
        alg.normal_form(word)
    assert excinfo.value.word == ((1, 2, 1), (1, 2, 2), (1, 1, 2))


def test_rewrite_step_guard_on_terminating_word(monkeypatch):
    # the guard counts the words rewritten; this word rewrites 19
    monkeypatch.setattr(A, "_STEP_LIMIT", 5)
    alg = ReductionAlgebra(2)
    word = (alg.gen(2, 2) * alg.gen(1, 2) * alg.gen(2, 1) * alg.gen(1, 1)
            * alg.gen(1, 2))
    with pytest.raises(RewriteLimitError,
                       match=r"^normal ordering exceeded 5 rewrite steps: "
                             r"step 6 would rewrite L\[1,1\]\*L\[1,1\]\*"
                             r"L\[2,2\]\*L\[1,1\]\*L\[1,2\] \(length 5\)$"
                       ) as excinfo:
        alg.normal_form(word)
    assert excinfo.value.word == ((1, 1, 1), (1, 1, 1), (1, 2, 2),
                                  (1, 1, 1), (1, 1, 2))
    monkeypatch.setattr(A, "_STEP_LIMIT", 19)
    assert len(alg.normal_form(word).terms) == 11


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
    assert a.x(1) + b.x(1) == a.x(1).times_coeff_left(RatFun.const(2, 2))


def test_weight_decomposition():
    alg = WeylAlgebra(2, 1)
    e = alg.x(1) * alg.x(2) + alg.x(1) * alg.d(2)
    parts = e.weight_decomposition()
    assert set(parts) == {(1, 1), (1, -1)}


def test_element_printing():
    alg = WeylAlgebra(2, 1)
    h = hdiff(2, 1, 2)
    e = (alg.x(1).times_coeff_left(h) + alg.one()
         + alg.d(2).times_coeff_left(RatFun.const(2, -2)))
    assert str(e) == "1 + (h1-h2)*x[1,1] + -2*D[2,1]"
    assert str(alg.zero()) == "0"


def test_times_coeff_right_shifts():
    alg = WeylAlgebra(2, 1)
    h = hdiff(2, 1, 2)
    # x has weight +eps_1, so a right coefficient loses one unit of h12
    assert alg.x(1).times_coeff_right(h) == alg.x(1).times_coeff_left(h - 1)


def lifo_normal_form(alg, el, rightmost=False):
    """Reference reduction: pop pending words last in, first out and
    rewrite the leftmost descent (the rightmost when asked), rewriting a
    word again whenever it comes back from another branch."""
    from hdeform.algebra import Element
    pending = dict(el.terms)
    out = {}
    while pending:
        word, coeff = pending.popitem()
        pos = None
        spots = range(len(word) - 1)
        for p in reversed(spots) if rightmost else spots:
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
            assert alg.normal_form(e) == lifo_normal_form(alg, e, rightmost=True)


def test_normal_form_is_strategy_independent_reduction():
    import random
    rng = random.Random(32)
    for n, trials, maxlen in ((2, 40, 4), (3, 12, 3)):
        alg = ReductionAlgebra(n, copies=2)
        gens = alg.generators(1) + alg.generators(2)
        for _ in range(trials):
            e = _random_word_element(alg, gens, rng, rng.randint(2, maxlen))
            assert alg.normal_form(e) == lifo_normal_form(alg, e, rightmost=True)


# -- matrices over an algebra ---------------------------------------------------

def _random_matrix(alg, rng):
    """A sparse rank-2 tensor-leg matrix of short words with special
    coefficients; some entries share words, so sums cancel and combine."""
    gens = alg.generators()
    out = {}
    for key in itertools.product((1, 2), repeat=4):
        if rng.random() < 0.6:
            word = _random_word_element(alg, gens, rng, rng.randint(0, 2))
            out[key] = word.times_coeff_left(_shifted_special(2, rng))
    return out


def test_mat_sum_of_a_matrix_minus_itself_is_empty():
    import random
    from hdeform.dra import FreeReductionAlgebra
    alg = FreeReductionAlgebra(2)
    mat = _random_matrix(alg, random.Random(7))
    assert mat
    assert A.mat_sum(alg, [(1, mat), (-1, mat)]) == {}
    assert A.mat_sum(alg, [(1, mat), (1, mat), (-1, mat)]) == mat


def test_mat_sum_matches_entrywise_addition():
    import random
    from hdeform.dra import FreeReductionAlgebra
    alg = FreeReductionAlgebra(2)
    rng = random.Random(8)
    for _ in range(6):
        a, b, c = (_random_matrix(alg, rng) for _ in range(3))
        want = {}
        for key in itertools.product((1, 2), repeat=4):
            el = (a.get(key, alg.zero()) + b.get(key, alg.zero())
                  - c.get(key, alg.zero()))
            if not el.is_zero:
                want[key] = el
        got = A.mat_sum(alg, [(1, a), (1, b), (-1, c)])
        assert got == want
        assert all(not el.is_zero for el in got.values())


def _fold_sub(a, b):
    """a - b by a pairwise fold: a's keys, then b's new ones, then the
    zero entries dropped."""
    out = dict(a)
    for key, el in b.items():
        out[key] = out[key] - el if key in out else -el
    return {k: v for k, v in out.items() if not v.is_zero}


@pytest.mark.parametrize("n", [2, 3])
def test_residuals_keep_the_pairwise_fold_key_order(n):
    # rule extraction picks pivot rows in the residual's key order
    from hdeform.dra import FreeReductionAlgebra
    from hdeform.rmatrix import rhat
    alg = FreeReductionAlgebra(n)
    r12 = A.mat_from_tensor(alg, rhat(n))
    l1 = A.mat_first_leg(alg, alg.lmatrix(), n)
    rl = A.mat_mul(alg, r12, l1, n)
    lr = A.mat_mul(alg, l1, r12, n)
    want = _fold_sub(_fold_sub(A.mat_mul(alg, rl, rl, n),
                               A.mat_mul(alg, lr, lr, n)),
                     _fold_sub(rl, lr))
    got = A.reflection_residual(alg, rhat(n), alg.lmatrix(), n)
    assert list(got.items()) == list(want.items())


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
    # double the unit term of D[1,1] x[1,1] -> ... + qplus, on a private
    # copy of the stored rules of this signature
    alg = WeylAlgebra(n, copies, fermionic)
    alg._rules = dict(alg._rules)
    pair = (dgen(1), xgen(1))
    rule = alg.pair_rule(*pair)
    assert rule[-1][1] == ()
    alg._rules[pair] = _doubled(rule, len(rule) - 1)
    assert _oracles_agree(alg) != []


# -- the shifted-rule cache of the rewrite engine -----------------------------

def test_replaced_weyl_rule_takes_effect_after_use():
    # D[1,1] x[1,1] is rewritten after an empty prefix and after x[1,1]
    pair = (dgen(1), xgen(1))
    words = [pair, (xgen(1),) + pair, (xgen(2), xgen(1)) + pair]
    alg = WeylAlgebra(2, 1)
    alg._rules = dict(alg._rules)
    before = [alg.normal_form(alg.word_element(w)) for w in words]
    rule = alg.pair_rule(*pair)
    alg._rules[pair] = _doubled(rule, len(rule) - 1)
    fresh = WeylAlgebra(2, 1)
    fresh._rules = dict(alg._rules)
    for w, old in zip(words, before):
        got = alg.normal_form(alg.word_element(w))
        assert got == fresh.normal_form(fresh.word_element(w))
        assert str(got) != str(old)


def test_replaced_same_copy_rule_takes_effect_after_use():
    key = ((1, 1), (2, 1))
    rules = rule_system(2)
    words = [(1, 1, 2, 1), (1, 2, 1, 1, 2, 1), (2, 2, 1, 2, 1, 1, 2, 1)]

    def nf(alg, flat):
        pairs = zip(flat[::2], flat[1::2])
        return alg.normal_form(alg.word_element(
            tuple((1, i, j) for i, j in pairs)))

    alg = ReductionAlgebra(2)
    alg.same_rules = dict(rules)
    before = [nf(alg, w) for w in words]
    alg.same_rules[key] = _doubled(rules[key], 0)
    fresh = ReductionAlgebra(2)
    fresh.same_rules = dict(alg.same_rules)
    for w, old in zip(words, before):
        got = nf(alg, w)
        assert got == nf(fresh, w)
        assert str(got) != str(old)


def test_one_pair_rule_call_per_rewrite_step(monkeypatch):
    # 19 calls for 19 distinct words rewritten: each rewritten word asks
    # pair_rule once, cached or not
    calls = []
    pair_rule = ReductionAlgebra.pair_rule

    def counted(self, g1, g2):
        calls.append((g1, g2))
        return pair_rule(self, g1, g2)

    monkeypatch.setattr(ReductionAlgebra, "pair_rule", counted)
    alg = ReductionAlgebra(2)
    word = (alg.gen(2, 2) * alg.gen(1, 2) * alg.gen(2, 1) * alg.gen(1, 1)
            * alg.gen(1, 2))
    assert len(alg.normal_form(word).terms) == 11
    assert (len(calls), len(set(calls))) == (19, 4)
    # the same list object comes back for a pair each time
    assert alg.pair_rule(*calls[0]) is alg.pair_rule(*calls[0])


def test_one_pair_rule_call_per_rewritten_word_in_a_suite(monkeypatch):
    # each normal ordering rewrites a word once, with its whole
    # coefficient, so pair_rule is asked once per distinct word rewritten
    # (a word rewritten again whenever a branch reaches it would ask 360)
    calls = []
    pair_rule = WeylAlgebra.pair_rule

    def counted(self, g1, g2):
        calls.append((g1, g2))
        return pair_rule(self, g1, g2)

    monkeypatch.setattr(WeylAlgebra, "pair_rule", counted)
    assert verify_reflection(2, 2, False) == []
    assert len(calls) == 276


def test_one_primitive_part_per_summed_word_in_a_suite(monkeypatch):
    # each word's coefficient is summed once, over one common denominator,
    # so a bracket is made primitive once per sum of two or more parts that
    # does not cancel (a pairwise fold made 202 such calls here)
    import hdeform.kernel as K
    assert verify_reflection(2, 2, False) == []   # the store is filled
    calls, sums = [], []
    primitive_sign, add_many = K.p_primitive_sign, coeffs.add_many

    def counted(poly):
        calls.append(len(poly))
        return primitive_sign(poly)

    def summed(n, terms):
        terms = list(terms)
        total = add_many(n, terms)
        if sum(not t.is_zero for t in terms) > 1 and not total.is_zero:
            sums.append(total)
        return total

    monkeypatch.setattr(K, "p_primitive_sign", counted)
    monkeypatch.setattr(coeffs, "add_many", summed)
    monkeypatch.setattr(A, "add_many", summed)
    assert verify_reflection(2, 2, False) == []
    assert len(calls) == len(sums) == 106


# -- the engine against the LIFO reference -------------------------------------

def _shifted_special(n, rng):
    name = rng.choice(("phi", "qplus", "qminus", "alpha", "beta", "mu"))
    if name == "alpha":
        idx = rng.sample(range(1, n + 1), 2)
    elif name == "beta":
        idx = [rng.randint(1, n), rng.randint(1, n)]
    else:
        idx = [rng.randint(1, n)]
    shift = tuple(rng.choice((-1, 0, 1)) for _ in range(n))
    return special(name, tuple(idx), n).shift(shift)


@pytest.mark.parametrize("make,copies,maxlen,trials", [
    (lambda: WeylAlgebra(2, 2), None, 5, 12),
    (lambda: WeylAlgebra(2, 2, fermionic=True), None, 5, 12),
    (lambda: WeylAlgebra(3, 1), None, 5, 10),
    (lambda: ReductionAlgebra(2), 1, 4, 8),
    (lambda: ReductionAlgebra(3), 1, 3, 4),
    (lambda: ReductionAlgebra(2, copies=2), 2, 3, 6),
], ids=["weyl_2_2_bosonic", "weyl_2_2_fermionic", "weyl_3_1",
        "reduction_2", "reduction_3", "reduction_2_two_copies"])
def test_normal_form_matches_lifo_reference(make, copies, maxlen, trials):
    import random
    rng = random.Random(41)
    alg = make()
    gens = (alg.generators() if copies is None else
            [g for t in range(1, copies + 1) for g in alg.generators(t)])
    for _ in range(trials):
        words = [tuple(rng.choice(gens) for _ in range(rng.randint(3, maxlen)))
                 for _ in range(rng.randint(1, 3))]
        el = alg.element({w: _shifted_special(alg.n, rng) for w in words})
        got = alg.normal_form(el)
        assert got == lifo_normal_form(alg, el)
        assert str(got) == str(lifo_normal_form(alg, el))
        # sums whose coefficients cancel: an element less its own normal
        # form, and the commutator of a generator with a shorter word
        assert alg.normal_form(el - got).is_zero
        g = alg.gen_element(rng.choice(gens))
        w = alg.word_element(words[0][:maxlen - 1], el.terms[words[0]])
        comm = g * w - w * g
        assert alg.normal_form(comm) == lifo_normal_form(alg, comm)
