"""The process-wide store: each tensor, special coefficient and exchange
rule is built once and shared, a swapped store keeps a perturbed
builder from leaking into later callers, and the exchange tensors and
extracted rules are stored split."""

import pytest

from hdeform import rmatrix, store
from hdeform.coeffs import _linear_family_factors, qplus, serialize
from hdeform.dra import rule_system
from hdeform.rmatrix import psihat, rhat, shat, that
from hdeform.weyl import WeylAlgebra, dgen, xgen

PAIRS = [(dgen(1), xgen(1)), (dgen(2), xgen(1)), (xgen(2), xgen(1)),
         (dgen(2), dgen(1))]


def test_builders_are_shared():
    assert rhat(3) is rhat(3)
    assert qplus(3, 1) is qplus(3, 1)
    assert qplus(3, 1) is not qplus(3, 2)


def test_algebras_of_one_signature_share_their_rules():
    a, b = WeylAlgebra(2, 2), WeylAlgebra(2, 2)
    for pair in PAIRS:
        assert a.pair_rule(*pair) is b.pair_rule(*pair)


@pytest.mark.parametrize("other", [
    dict(fermionic=True), dict(inhomogeneous_across_copies=True)])
def test_signatures_that_differ_do_not_share_rules(other):
    a, b = WeylAlgebra(2, 2), WeylAlgebra(2, 2, **other)
    assert a._rules is not b._rules
    # D[1,1] x[1,1] differs in sign (fermionic); D[1,2] x[1,1] gains
    # the unit term only under the cross-copy convention
    pair = (dgen(1), xgen(1)) if "fermionic" in other else \
        (dgen(1, 2), xgen(1, 1))
    assert a.pair_rule(*pair) != b.pair_rule(*pair)


def test_perturbed_builder_leaves_no_trace_after_the_swap(monkeypatch):
    psi = psihat(2)
    pair = (dgen(1), xgen(1))
    rule = WeylAlgebra(2).pair_rule(*pair)
    with monkeypatch.context() as m:
        m.setattr(store, "_STORE", {})
        qminus = rmatrix.qminus
        m.setattr(rmatrix, "qminus", lambda n, i: qminus(n, i) * 2)
        assert psihat(2).entries != psi.entries
        assert WeylAlgebra(2).pair_rule(*pair) != rule
    assert psihat(2) is psi
    assert WeylAlgebra(2).pair_rule(*pair) is rule


def _unsplit(n, values):
    """The values whose cofactor still holds a factor of the family."""
    return [serialize(c) for c in values
            if _linear_family_factors(n, c.cof)[1]]


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stored_tensor_entries_are_split(n):
    # a product with an entry cancels its factors by multiplicity; the
    # off-diagonal rhat entry (h_ik - 1)(h_ik + 1)/h_ik^2 is the one built
    # as a product on purpose
    for build in (rhat, that, shat, psihat):
        assert _unsplit(n, build(n).entries.values()) == []


@pytest.mark.parametrize("n,cross", [(2, False), (3, False), (2, True)])
def test_stored_rule_coefficients_are_split(n, cross):
    rules = rule_system(n, cross=cross)
    assert _unsplit(n, [c for rule in rules.values() for c, _ in rule]) == []
