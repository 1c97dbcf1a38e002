"""Reduction algebra: extraction, ordering, central elements, braiding."""

import hashlib
import re

import pytest

from hdeform.coeffs import RatFun, hdiff, serialize
from hdeform.dra import (FreeReductionAlgebra, ReductionAlgebra,
                         appendix_order, central_element,
                         check_appendix_central_form, check_appendix_rules,
                         check_appendix_cross_copy, check_associativity,
                         check_braided_sum, check_cartan_sum, check_central,
                         check_central_realization, check_coproduct,
                         check_cross_copy_convention,
                         check_generator_transforms, check_h_realization,
                         check_relation_roundtrip, check_weight_zero_diagonal,
                         check_weyl_realization, cross_copy_convention_report,
                         extract_cross_rules, extract_rewrite_rules,
                         invert_transform, relation_catalogue,
                         reflection_components, rewrite_graph_cycle,
                         rule_system)
from hdeform.errors import RelationExtractionError


def test_rank_two_relation_count():
    # six independent ordering relations, under either presentation order
    assert len(extract_rewrite_rules(2)) == 6
    assert len(extract_rewrite_rules(2, appendix_order)) == 6


@pytest.mark.parametrize("n", [2, 3, 4])
def test_rule_count_matches_unordered_monomials(n):
    # completeness: one rule per out-of-order quadratic monomial
    assert len(extract_rewrite_rules(n)) == n * n * (n * n - 1) // 2


def test_rank_four_extraction_and_termination():
    assert rewrite_graph_cycle(4, degree=3) is None
    assert check_relation_roundtrip(4) == []


def test_printed_table_regression():
    assert check_appendix_rules() == []


def test_printed_table_spot_values():
    rules = extract_rewrite_rules(2, appendix_order)
    h = hdiff(2, 1, 2)
    one = RatFun.const(2, 1)
    rule = dict((w, c) for c, w in rules[((1, 1), (1, 2))])
    assert rule[((1, 2), (1, 1))] == (h - 3) / (h - 2)
    assert rule[((1, 2), (2, 2))] == one / (h - 2)
    assert rule[((1, 2),)] == one
    rule = dict((w, c) for c, w in rules[((2, 2), (1, 2))])
    assert rule[((1, 2), (1, 1))] == (h - 3) / ((h - 2) * (h + 1))
    rule = dict((w, c) for c, w in rules[((1, 1), (2, 1))])
    assert rule[((2, 1), (2, 2))] == -((h + 3) / ((h - 1) * (h + 2)))
    rule = dict((w, c) for c, w in rules[((1, 1), (2, 2))])
    assert rule == {((2, 2), (1, 1)): one}


def test_commuting_diagonal_pair():
    alg = ReductionAlgebra(2)
    lhs = alg.normal_form(alg.gen(1, 1) * alg.gen(2, 2))
    rhs = alg.normal_form(alg.gen(2, 2) * alg.gen(1, 1))
    assert lhs == rhs


def test_already_ordered_word_is_fixed():
    alg = ReductionAlgebra(2)
    e = alg.gen(2, 1) * alg.gen(1, 1)  # lowering before diagonal: ordered
    assert alg.normal_form(e) == e


@pytest.mark.parametrize("n", [2, 3])
def test_relation_roundtrip(n):
    assert check_relation_roundtrip(n) == []


def test_roundtrip_under_presentation_order():
    # degree-2 words rewrite in one step, so any order is safe here
    assert check_relation_roundtrip(2, appendix_order, "appendix") == []


def test_associativity_exhaustive_rank_two():
    assert check_associativity(2) == []


def test_associativity_exhaustive_rank_three():
    # all 84 overlap ambiguities of rank 3
    assert check_associativity(3) == []


def test_rewrite_graph_acyclic_for_engine_order():
    assert rewrite_graph_cycle(2, degree=3) is None
    assert rewrite_graph_cycle(2, degree=4) is None
    assert rewrite_graph_cycle(3, degree=3) is None


def test_rewrite_graph_cycles_for_plain_lex():
    # the naive order really does cycle; this pins why the engine order exists
    assert rewrite_graph_cycle(2, gen_order=lambda p: p, degree=3) is not None
    assert rewrite_graph_cycle(3, gen_order=appendix_order,
                               degree=3) is not None


def test_solver_reports_inconsistent_leftover_relation():
    from hdeform.dra import _solve_for_unordered
    alg = FreeReductionAlgebra(2)
    # a relation without unordered words is left over after elimination
    comp = alg.gen(1, 1, 1) * alg.gen(1, 1, 1)
    with pytest.raises(RelationExtractionError,
                       match=r"inconsistent leftover relation at weight \(0, 0\)"):
        _solve_for_unordered([comp], lambda w: w == ((1, 2, 1), (1, 2, 1)))


def test_solver_reports_missing_pivot():
    from hdeform.dra import _solve_for_unordered
    alg = FreeReductionAlgebra(2)
    # one row, two unordered words: the second finds no row left to pivot
    comp = (alg.gen(1, 2, 1) * alg.gen(1, 1, 1)
            + alg.gen(1, 2, 2) * alg.gen(1, 2, 1))
    unordered = {((1, 2, 1), (1, 1, 1)), ((1, 2, 2), (1, 2, 1))}
    with pytest.raises(RelationExtractionError, match=re.escape(
            "no pivot for unordered word ((1, 2, 2), (1, 2, 1)) "
            "at weight (-1, 1)")):
        _solve_for_unordered([comp], unordered.__contains__)


def _rules_digest(rules):
    text = "\n".join(
        f"{key}: " + "; ".join(f"{serialize(c)} {w}" for c, w in rules[key])
        for key in sorted(rules))
    return hashlib.sha256(text.encode()).hexdigest()


# (rank, cross-copy) -> digest of every key, word and serialized
# coefficient of the rule store; taken from the solver that kept known
# and unknown words in separate dicts
RULE_DIGESTS = {
    (3, False):
        "ffbff11a9ff22750eb3a610af6ce222ce97b067ca447aa4d08c6b2d2e8e76752",
    (2, True):
        "74b1bb865d8839be53a09279c01d4e9db1fb439fbd202c4a3232fa28429adbec",
    (3, True):
        "e446555b5d68f8154c0a285f998f3048c47363d942908a4c89edb4f8e27ce7c1",
}


@pytest.mark.parametrize("n,cross", sorted(RULE_DIGESTS))
def test_extracted_rules_are_pinned(n, cross):
    assert _rules_digest(rule_system(n, cross=cross)) == RULE_DIGESTS[n, cross]


def test_h_realization():
    for n in (2, 3, 4):
        assert check_h_realization(n) == []


def test_central_element_rank_two_closed_form():
    got = central_element(2, 1)
    want = "((h1-h2-1)/(h1-h2))*L[1,1] + ((h1-h2+1)/(h1-h2))*L[2,2]"
    assert str(got) == want
    assert check_appendix_central_form(3) == []


def test_central_power_zero_is_rank():
    alg = ReductionAlgebra(2)
    assert central_element(2, 0) == alg.scalar(2)


@pytest.mark.parametrize("n,power", [(2, 1), (2, 2), (2, 3), (3, 1)])
def test_centrality(n, power):
    assert check_central(n, power) == []


def test_centrality_primed():
    assert check_central(2, 2, primed=True) == []


def test_diagonal_weight_zero():
    assert check_weight_zero_diagonal(2, 3) == []
    assert check_weight_zero_diagonal(3, 2) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_cartan_sum(n):
    assert check_cartan_sum(n) == []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generator_transforms(n):
    assert check_generator_transforms(n) == []


def test_transform_rank_two_values():
    from hdeform.dra import _transform_matrix
    alg = FreeReductionAlgebra(2)
    trans = _transform_matrix(2, alg)
    h = hdiff(2, 1, 2)
    # off-diagonal entries carry the plain phi factor
    assert trans[(1, 2)] == alg.gen(1, 1, 2)  # phi_2 == 1
    # the diagonal combines the two diagonal generators
    el = trans[(1, 1)]
    assert el.terms[((1, 1, 1),)] == h / (h - 1)
    assert el.terms[((1, 2, 2),)] == -(RatFun.const(2, 1) / (h - 1))


def test_invert_transform_roundtrip():
    alg = FreeReductionAlgebra(3)
    inv = invert_transform(3, alg)
    assert set(inv) == {(i, j) for i in (1, 2, 3) for j in (1, 2, 3)}


@pytest.mark.parametrize("n", [2, 3])
def test_coproduct(n):
    assert check_coproduct(n) == []


@pytest.mark.parametrize("n", [2, 3])
def test_rules_hold_in_weyl_realization(n):
    # independent oracle: the extracted rules transported through the
    # composite-operator map must hold under the differential-operator
    # engine, which knows nothing about the extracted rule system
    assert check_weyl_realization(n) == []


@pytest.mark.parametrize("n,power", [(2, 1), (2, 2), (3, 1)])
def test_central_elements_in_weyl_realization(n, power):
    assert check_central_realization(n, power) == []


@pytest.mark.parametrize("copies", [2, 3, 4])
def test_braided_sum_many_copies(copies):
    assert check_braided_sum(2, copies) == []


def test_cross_rules_are_homogeneous():
    cross = extract_cross_rules(2)
    for rule in cross.values():
        for _, (lo, hi) in rule:
            assert len(lo) == 2 and len(hi) == 2


def test_cross_copy_convention_report():
    rep = cross_copy_convention_report()
    assert rep["passing_convention"] == "same_copy_only"
    assert rep["across_copies_failures"] > 0
    assert check_cross_copy_convention() == []


def test_appendix_cross_copy_table():
    assert check_appendix_cross_copy() == []


def test_relation_catalogue_formats():
    cat = relation_catalogue(2, "L")
    assert len(cat) == 6
    lhs_words = {lhs for lhs, _ in cat}
    assert ((1, 1), (2, 2)) in lhs_words  # diagonal pair, printed orientation
    cat_s = relation_catalogue(2, "s")
    assert len(cat_s) == 6
    with pytest.raises(ValueError):
        relation_catalogue(2, "bogus")


def test_components_are_weight_homogeneous():
    comps = reflection_components(2, "L")
    alg = FreeReductionAlgebra(2)
    for (i1, i2, j1, j2), el in comps.items():
        want = tuple(a + b - c - d for a, b, c, d in zip(
            *(alg._eps[k] for k in (i1, i2, j1, j2))))
        for wt in el.weight_decomposition():
            assert wt == want


def test_run_suite_driver():
    from hdeform.dra import run_suite
    assert run_suite(2, "transforms") == []
    assert run_suite(2, "hrealization") == []
    with pytest.raises(ValueError, match="unknown dra suite 'bogus'"):
        run_suite(2, "bogus")
    with pytest.raises(ValueError, match="defined for --n 2"):
        run_suite(3, "appendix")


def test_orders_disagree_only_in_presentation():
    # both orders produce the same two-sided ideal: cross-check one word
    alg_n = ReductionAlgebra(2)
    e = alg_n.gen(1, 1) * alg_n.gen(1, 2) - alg_n.gen(2, 1) * alg_n.gen(2, 2)
    nf = alg_n.normal_form(e)
    # re-reduce the normal form through the relations of the other order:
    # substituting the appendix rules must not change membership in the ideal,
    # i.e. the difference of both reductions vanishes identically
    rules = extract_rewrite_rules(2, appendix_order)
    assert nf == alg_n.normal_form(nf)
    assert len(rules) == 6


def test_rule_store_extracts_each_system_once(monkeypatch):
    from hdeform import dra
    calls = []
    extract = dra.extract_rewrite_rules

    def counting(n, gen_order=None):
        calls.append((n, gen_order))
        return extract(n, gen_order)

    monkeypatch.setattr(dra, "_RULE_CACHE", {})
    monkeypatch.setattr(dra, "extract_rewrite_rules", counting)
    first = relation_catalogue(2)
    assert check_appendix_rules() == []
    assert relation_catalogue(2) == first
    assert calls == [(2, appendix_order)]
    alg = ReductionAlgebra(2)
    assert alg.same_rules is ReductionAlgebra(2).same_rules
    assert calls == [(2, appendix_order), (2, dra.normal_order)]
