"""Mutation matrix: a perturbed ingredient is caught, and named.

Each case perturbs one ingredient of the construction and runs the units
of ``verify all --n 2 --N 2`` in-process.  It pins the exact set of
units that fail and the identities each one names, and a digest of
every unit's full failure list, so each record (indices, lhs and rhs)
is pinned too.  A pass must be sound: a change that empties an oracle's
residuals, or makes it compare nothing, moves these sets and fails here.
"""

import hashlib
import json
import sys

import pytest

from hdeform import cli, coeffs, dra, rmatrix, store
from hdeform.rmatrix import DynTensor4

ARGV = ("verify", "all", "--n", "2", "--N", "2")


def patch_everywhere(monkeypatch, module, name, replacement):
    """Replace module.name in every hdeform module that imported it."""
    orig = getattr(module, name)
    for modname, mod in list(sys.modules.items()):
        if (mod is not None and modname.split(".")[0] == "hdeform"
                and vars(mod).get(name) is orig):
            monkeypatch.setattr(mod, name, replacement)


def tensor_entry_times_two(monkeypatch, name, key):
    orig = getattr(rmatrix, name)

    def perturbed(n):
        t = orig(n)
        if n != 2:
            return t
        entries = dict(t.entries)
        entries[key] = entries[key] * 2
        return DynTensor4(n, entries)

    patch_everywhere(monkeypatch, rmatrix, name, perturbed)


def rule_term_times_two(cross, key):
    """Double the first term of one rank-2 rule in the rule store."""
    rules = dict(dra.rule_system(2, cross=cross))
    (c, word), *rest = rules[key]
    rules[key] = [(c * 2, word)] + rest
    store._STORE["dra.rule_system", (2, dra.normal_order, cross)] = rules


def perturb_rhat(monkeypatch):
    tensor_entry_times_two(monkeypatch, "rhat", (1, 2, 2, 1))


def perturb_same_copy_rule(monkeypatch):
    # L[1,1] L[2,1] -> ..., under the engine order
    rule_term_times_two(False, ((1, 1), (2, 1)))


def perturb_cross_rule(monkeypatch):
    rule_term_times_two(True, ((1, 1), (2, 1)))


def perturb_psihat(monkeypatch):
    tensor_entry_times_two(monkeypatch, "psihat", (1, 2, 1, 2))


def perturb_qminus(monkeypatch):
    orig = coeffs.qminus

    def qminus(n, i):
        q = orig(n, i)
        return q * 2 if (n, i) == (2, 1) else q

    patch_everywhere(monkeypatch, coeffs, "qminus", qminus)


# perturbation -> {failing unit: identities its failures name}
EXPECTED = {
    "cross_rule": {"dra.coproduct": ["braided_sum_reflection"]},
    "psihat": {"dra.appendix.convention": ["cross_copy_convention"],
               "dra.appendix.cross_copy": ["xd_diag_1", "xd_diag_2"],
               "dra.realization.central": ["central_in_weyl_realization"],
               "dra.realization.rules": ["rule_in_weyl_realization"],
               "rmatrix.aux": ["psihat_from_shat"],
               "rmatrix.skew": ["psihat_trace1",
                                "psihat_trace2",
                                "skew_inverse_contraction"],
               "weyl.confluence[bosonic]": ["associativity_oracle"],
               "weyl.confluence[fermionic]": ["associativity_oracle"],
               "weyl.exchange[bosonic]": ["forward_exchange_round_trip"],
               "weyl.reflection[bosonic]": ["reflection_equation"],
               "weyl.reflection[fermionic]": ["reflection_equation"],
               "weyl.split[bosonic]": ["braided_cross_relation",
                                       "reflection_first_interval",
                                       "reflection_second_interval"],
               "weyl.variants[bosonic]": ["double_barred_exchange",
                                          "unbarred_diagonal"],
               "weyl.zhelobenko[bosonic]": ["automorphism_on_exchange",
                                            "mu_propagation",
                                            "mu_recursion"]},
    "qminus": {"dra.appendix.central": ["appendix_central_form"],
               "dra.appendix.convention": ["cross_copy_convention"],
               "dra.appendix.cross_copy": ["xd_diag_1"],
               "dra.central.N0": ["central_commutator"],
               "dra.central.N1": ["central_commutator"],
               "dra.central.N2": ["central_commutator"],
               "dra.central_primed.N0": ["central_commutator_primed"],
               "dra.central_primed.N1": ["central_commutator_primed"],
               "dra.central_primed.N2": ["central_commutator_primed"],
               "dra.realization.central": ["central_in_weyl_realization"],
               "dra.realization.rules": ["rule_in_weyl_realization"],
               "rmatrix.aux": ["psihat_from_shat", "qminus_weighted_row_sum"],
               "rmatrix.skew": ["psihat_trace2", "skew_inverse_contraction"],
               "rmatrix.traces": ["q_sign_reversal",
                                  "qminus_partial_fraction_row",
                                  "qminus_qplus_reciprocal",
                                  "trace_qminus"],
               "weyl.confluence[bosonic]": ["associativity_oracle"],
               "weyl.confluence[fermionic]": ["associativity_oracle"],
               "weyl.exchange[bosonic]": ["forward_exchange_round_trip"],
               "weyl.reflection[bosonic]": ["reflection_equation"],
               "weyl.reflection[fermionic]": ["reflection_equation"],
               "weyl.split[bosonic]": ["braided_cross_relation",
                                       "reflection_first_interval",
                                       "reflection_second_interval"],
               "weyl.variants[bosonic]": ["derivative_scaling_right",
                                          "double_barred_exchange",
                                          "unbarred_diagonal"],
               "weyl.zhelobenko[bosonic]": ["automorphism_on_exchange",
                                            "mu_propagation",
                                            "mu_recursion"]},
    "rhat": {"dra.appendix.central": ["relation_extraction"],
             "dra.appendix.convention": ["cross_copy_convention"],
             "dra.appendix.rules": ["relation_extraction"],
             "dra.associativity": ["relation_extraction"],
             "dra.central.N0": ["relation_extraction"],
             "dra.central.N1": ["relation_extraction"],
             "dra.central.N2": ["relation_extraction"],
             "dra.central.weights": ["relation_extraction"],
             "dra.central_primed.N0": ["relation_extraction"],
             "dra.central_primed.N1": ["relation_extraction"],
             "dra.central_primed.N2": ["relation_extraction"],
             "dra.coproduct": ["relation_extraction"],
             "dra.hrealization": ["mixed_weight_identity"],
             "dra.realization.rules": ["relation_extraction"],
             "dra.reflection": ["relation_extraction"],
             "rmatrix.aux": ["shat_from_rhat", "that_from_rhat"],
             "rmatrix.dybe": ["dynamical_yang_baxter"],
             "rmatrix.involutive": ["rhat_squared_identity"],
             "weyl.reflection[bosonic]": ["reflection_equation"],
             "weyl.reflection[fermionic]": ["reflection_equation"],
             "weyl.split[bosonic]": ["braided_cross_relation",
                                     "reflection_first_interval",
                                     "reflection_second_interval"]},
    "same_copy_rule": {"dra.associativity": ["associativity_oracle"],
                       "dra.central.N1": ["central_commutator"],
                       "dra.central.N2": ["central_commutator"],
                       "dra.central_primed.N1": ["central_commutator_primed"],
                       "dra.central_primed.N2": ["central_commutator_primed"],
                       "dra.coproduct": ["braided_sum_reflection"],
                       "dra.realization.rules": ["rule_in_weyl_realization"],
                       "dra.reflection": ["relation_roundtrip"]},
}

CASES = {
    "rhat": perturb_rhat,
    "same_copy_rule": perturb_same_copy_rule,
    "cross_rule": perturb_cross_rule,
    "psihat": perturb_psihat,
    "qminus": perturb_qminus,
}


# perturbation -> digest of every unit's full failure list, in unit order
DIGESTS = {
    "cross_rule": "b9eea01c13c5dca5",
    "psihat": "8ec65a481ab5f5ff",
    "qminus": "ea5092ea8d767048",
    "rhat": "d112239b25a42f22",
    "same_copy_rule": "a1714b4cfb4a647d",
}


def run_units():
    """[[unit name, failures] for every unit of ARGV, in order]."""
    units = cli._verify_units(cli.build_parser().parse_args(ARGV))
    return [[name, cli.run_unit(task)[0]] for name, task in units]


def digest(runs):
    """The first 16 hex digits of the SHA-256 of the runs as sorted-key
    JSON: it pins every failure record, not just the identity names."""
    text = json.dumps(runs, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


@pytest.mark.parametrize("case", sorted(CASES))
def test_perturbation_is_caught_by_exactly_these_units(monkeypatch, case):
    monkeypatch.setattr(store, "_STORE", {})
    CASES[case](monkeypatch)
    runs = run_units()
    failing = {name: sorted({f["identity"] for f in failures})
               for name, failures in runs if failures}
    assert failing == EXPECTED[case]
    assert digest(runs) == DIGESTS[case]
