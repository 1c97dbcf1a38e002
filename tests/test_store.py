"""The process-wide store: each tensor, special coefficient and exchange
rule is built once and shared, and a swapped store keeps a perturbed
builder from leaking into later callers."""

import pytest

from hdeform import rmatrix, store
from hdeform.coeffs import qplus
from hdeform.rmatrix import psihat, rhat
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
