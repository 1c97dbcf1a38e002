"""Dynamical exchange tensors and their identity checks.

The rank-4 tensors (the exchange operator ``rhat``, its companion
``that``, the variant ``shat`` and the skew inverse ``psihat``) are
sparse maps ``(i, k, j, l) -> RatFun`` with upper index pair (i, k) and
lower pair (j, l); an absent key means the entry is zero.  Every stored
entry has {i, k} == {j, l} as multisets.  The diagonal operators
(``qplus_op`` / ``qminus_op`` weights and the Cartan matrix ``hmat``)
are dicts ``i -> RatFun``.

Checkers enumerate index tuples exhaustively and return a list of
failure records; an empty list means the identity holds exactly.  Each
identity is decided by :func:`hdeform.report.expect`.  One whose side is
a sum (a contraction, a trace, a weighted row sum) is decided by its
residual: the negated expected value is one more part of the sum
(:func:`hdeform.coeffs.add_part`), each key is summed once in one
:func:`hdeform.coeffs.add_many`, and the key fails iff its sum is
nonzero.  A sum that vanishes stops at its zero bracket, before any
trial division, and its failure record holds the residual as lhs and
"0" as rhs.  Pointwise identities, which build no sum, pass both sides
to ``expect``, which compares them with ``==`` and records both.
"""

from __future__ import annotations

from .coeffs import (RatFun, add_many, add_part, eps, hdiff, qminus, qplus,
                     sum_parts)
from .report import expect, select_units
from .store import stored


class DynTensor4:
    """Sparse rank-4 tensor over the coefficient ring."""

    __slots__ = ("entries", "zero")

    def __init__(self, n, entries):
        self.zero = RatFun.zero(n)      # the value of every absent entry
        self.entries = {key: val for key, val in entries.items()
                        if not val.is_zero}
        for (i, k, j, l) in self.entries:
            if sorted((i, k)) != sorted((j, l)):
                raise ValueError(f"entry {(i, k, j, l)} breaks the "
                                 "multiset sparsity pattern")

    def get(self, i, k, j, l):
        return self.entries.get((i, k, j, l))

    def __getitem__(self, key):
        return self.entries.get(key, self.zero)

    def by_upper(self):
        idx = {}
        for (i, k, j, l), val in self.entries.items():
            idx.setdefault((i, k), []).append(((j, l), val))
        return idx


# ---------------------------------------------------------------------------
# builders
# ---------------------------------------------------------------------------

# each tensor is built once per process and rank (see hdeform.store) and
# shared by every caller, so its entries must not be mutated

@stored
def rhat(n):
    """The involutive dynamical exchange operator.

    Nonzero entries: (i,k | i,k) = 1/h_ik for i != k, and
    (i,k | k,i) = (h_ik^2 - 1)/h_ik^2 for i < k, = 1 for i >= k.
    """
    one = RatFun.const(n, 1)
    e = {}
    for i in range(1, n + 1):
        e[(i, i, i, i)] = one
        for k in range(1, n + 1):
            if k == i:
                continue
            d = hdiff(n, i, k)
            e[(i, k, i, k)] = one / d
            if i < k:
                # a product of family forms, so the entry is stored
                # split and products with it cancel by multiplicity
                e[(i, k, k, i)] = (d - 1) * (d + 1) / (d * d)
            else:
                e[(i, k, k, i)] = one
    return DynTensor4(n, e)


@stored
def that(n):
    """Companion tensor of the x-against-d exchange.

    Nonzero entries: (i,k | i,k) = -1/(h_ik - 1) for i != k, and
    (k,i | i,k) = h_ik (h_ik + 2)/(h_ik + 1)^2 for i < k, = 1 for i >= k.
    """
    one = RatFun.const(n, 1)
    e = {}
    for i in range(1, n + 1):
        e[(i, i, i, i)] = one
        for k in range(1, n + 1):
            if k == i:
                continue
            d = hdiff(n, i, k)
            e[(i, k, i, k)] = -(one / (d - 1))
            if i < k:
                e[(k, i, i, k)] = d * (d + 2) / ((d + 1) * (d + 1))
            else:
                e[(k, i, i, k)] = one
    return DynTensor4(n, e)


@stored
def shat(n):
    """Exchange tensor for the double-barred derivative family.

    Nonzero entries: (i,k | i,k) = 1/(h_ik + 1), and
    (i,k | k,i) = 1 for i > k, = h_ik (h_ik - 2)/(h_ik - 1)^2 for i < k.
    """
    one = RatFun.const(n, 1)
    e = {}
    for i in range(1, n + 1):
        e[(i, i, i, i)] = one
        for k in range(1, n + 1):
            if k == i:
                continue
            d = hdiff(n, i, k)
            e[(i, k, i, k)] = one / (d + 1)
            if i > k:
                e[(i, k, k, i)] = one
            else:
                e[(i, k, k, i)] = d * (d - 2) / ((d - 1) * (d - 1))
    return DynTensor4(n, e)


@stored
def psihat(n):
    """Skew inverse of ``that``.

    Nonzero entries: (i,k | i,k) = qplus_i qminus_k / (h_ik + 1) for all
    i, k (the diagonal i == k included), and for i != k
    (i,k | k,i) = 1 for i < k, = (h_ik - 1)^2/(h_ik (h_ik - 2)) for i > k.
    """
    one = RatFun.const(n, 1)
    qp = {i: qplus(n, i) for i in range(1, n + 1)}
    qm = {i: qminus(n, i) for i in range(1, n + 1)}
    e = {}
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            if i == k:
                e[(i, i, i, i)] = qp[i] * qm[i]
                continue
            d = hdiff(n, i, k)
            e[(i, k, i, k)] = qp[i] * qm[k] / (d + 1)
            if i < k:
                e[(i, k, k, i)] = one
            else:
                e[(i, k, k, i)] = (d - 1) * (d - 1) / (d * (d - 2))
    return DynTensor4(n, e)


@stored
def qplus_op(n):
    return {i: qplus(n, i) for i in range(1, n + 1)}


@stored
def qminus_op(n):
    return {i: qminus(n, i) for i in range(1, n + 1)}


@stored
def hmat(n):
    """Cartan diagonal matrix with entries h_j + n."""
    return {j: hdiff(n, j, j) + RatFun.var(n, j) + n
            for j in range(1, n + 1)}


# ---------------------------------------------------------------------------
# residuals
# ---------------------------------------------------------------------------

def _nonzero_sums(identity, n, acc, more):
    """One failure per key, in key order, whose parts (kept in acc and
    more by :func:`hdeform.coeffs.add_part`) do not sum to zero; the
    record holds the sum as lhs and "0" as rhs."""
    sum_parts(n, acc, more)
    failures = []
    for key in sorted(acc):
        expect(failures, identity, key, acc[key])
    return failures


# ---------------------------------------------------------------------------
# identity checks
# ---------------------------------------------------------------------------

def check_involutive(n):
    """rhat squared is the identity operator."""
    r = rhat(n)
    minus_one = RatFun.const(n, -1)
    acc, more = {}, {}
    by_up = r.by_upper()
    for (i, k, j, l), v in r.entries.items():
        for (m, p), w in by_up.get((j, l), ()):
            add_part(acc, more, (i, k, m, p), v * w)
    for i in range(1, n + 1):
        for k in range(1, n + 1):
            add_part(acc, more, (i, k, i, k), minus_one)
    return _nonzero_sums("rhat_squared_identity", n, acc, more)


def check_dybe(n):
    """Dynamical Yang-Baxter equation, exhaustively over free indices:
    both sides go into one sum per key, the right side negated."""
    r = rhat(n)
    by_up = r.by_upper()
    # down[a][key] = r[key][-eps_a], each entry shifted once per a
    down = {a: {key: v.shift(tuple(-x for x in eps(n, a)))
                for key, v in r.entries.items()}
            for a in range(1, n + 1)}
    acc, more = {}, {}
    for (i, j, a, b), v1 in r.entries.items():
        for k in range(1, n + 1):
            # v1 * r[b,k,u,rr][-eps_a] * r[a,u,m,nn]
            for (u, rr), _ in by_up.get((b, k), ()):
                v12 = v1 * down[a][b, k, u, rr]
                for (m, nn), v3 in by_up.get((a, u), ()):
                    add_part(acc, more, (i, j, k, m, nn, rr), v12 * v3)
    for (j, k, a, b), v1 in r.entries.items():
        for i in range(1, n + 1):
            # the right side, negated: v1s * r[i,a,m,u] * r[u,b,nn,rr][-eps_m]
            # with v1s = -r[j,k,a,b][-eps_i]
            v1s = -down[i][j, k, a, b]
            for (m, u), v2 in by_up.get((i, a), ()):
                v12 = v1s * v2
                for (nn, rr), _ in by_up.get((u, b), ()):
                    add_part(acc, more, (i, j, k, m, nn, rr),
                             v12 * down[m][u, b, nn, rr])
    return _nonzero_sums("dynamical_yang_baxter", n, acc, more)


def check_skew_inverse(n):
    """psihat is the skew inverse of that, plus its two partial traces."""
    t = that(n)
    psi = psihat(n)
    minus_one = RatFun.const(n, -1)
    rng = range(1, n + 1)

    # sum_{k,l} psi[i,k | j,l] t[l,m | k,nn] == delta(i,nn) delta(m,j)
    acc, more = {}, {}
    for (i, k, j, l), v in psi.entries.items():
        for m in rng:
            for nn in rng:
                w = t.get(l, m, k, nn)
                if w is not None:
                    add_part(acc, more, (i, j, m, nn), v * w)
    for i in rng:
        for j in rng:
            add_part(acc, more, (i, j, j, i), minus_one)
    failures = _nonzero_sums("skew_inverse_contraction", n, acc, more)

    for i in rng:
        for j in rng:
            parts = [psi[i, k, j, k] for k in rng]
            if i == j:
                parts.append(-qplus(n, i))
            expect(failures, "psihat_trace2", (i, j), add_many(n, parts))
    for m in rng:
        for nn in rng:
            parts = [psi[a, m, a, nn] for a in rng]
            if m == nn:
                parts.append(-qminus(n, nn))
            expect(failures, "psihat_trace1", (m, nn), add_many(n, parts))
    return failures


def check_aux_identities(n):
    """The web of identities tying rhat, that, shat, psihat and q-weights.

    Each shifted q-weight is made once, and the weighted row and column
    sums are decided by their residuals."""
    r = rhat(n)
    t = that(n)
    s = shat(n)
    psi = psihat(n)
    rng = range(1, n + 1)
    neps = {i: tuple(-x for x in eps(n, i)) for i in rng}
    qp = {i: qplus(n, i) for i in rng}
    qm = {i: qminus(n, i) for i in rng}
    qp_inv = {l: qp[l].inverse().shift(neps[l]) for l in rng}
    # qm_down[a, m] = qm[a][-eps_m] and qp_up[a, m] = qp[a][eps_m]
    qm_down = {(a, m): qm[a].shift(neps[m]) for a in rng for m in rng}
    qp_up = {(a, m): qp[a].shift(eps(n, m)) for a in rng for m in rng}
    # qp_pair[i, k] = qp[k][-eps_i - eps_k] and qp_self[i] = qp[i][-eps_i]
    qp_pair = {(i, k): qp[k].shift(tuple(x + y for x, y
                                         in zip(neps[i], neps[k])))
               for i in rng for k in rng}
    qp_self = {i: qp[i].shift(neps[i]) for i in rng}
    minus_one = RatFun.const(n, -1)
    failures = []

    for k in rng:
        for l in rng:
            for i in rng:
                for j in rng:
                    # shifted that equals transposed-swapped rhat
                    expect(failures, "that_from_rhat", (k, l, i, j),
                           t[k, l, i, j].shift(neps[l]), r[l, k, j, i])
                    # shat is the one-step shift of rhat
                    expect(failures, "shat_from_rhat", (i, j, k, l),
                           s[i, j, k, l], r[i, j, k, l].shift(eps(n, k)))
    for i in rng:
        for k in rng:
            # qp[i][eps_k - eps_l] for each l, shifted once per (i, k)
            qp_kl = {l: qp[i].shift(tuple(x - y for x, y
                                          in zip(eps(n, k), eps(n, l))))
                     for l in rng}
            for j in rng:
                for l in rng:
                    expect(failures, "psihat_from_shat", (i, k, j, l),
                           psi[i, k, j, l],
                           qp_kl[l] * s[i, k, j, l] * qp_inv[l])
                    # transpose symmetry under global sign reversal
                    expect(failures, "rhat_transpose_negation", (i, k, j, l),
                           r[k, i, l, j], r[j, l, i, k].negate_h())
    # weighted row/column sums of rhat collapse to the identity
    for m in rng:
        for nn in rng:
            unit = [minus_one] if m == nn else []
            expect(failures, "qminus_weighted_row_sum", (m, nn),
                   add_many(n, [qm_down[a, m] * v for a in rng
                                if (v := r.get(m, a, nn, a)) is not None]
                            + unit))
            expect(failures, "qplus_weighted_column_sum", (m, nn),
                   add_many(n, [qp_up[a, m] * w for a in rng
                                if (w := r.get(a, m, a, nn)) is not None]
                            + unit))
    # exchange of shifted q-weights
    for i in rng:
        for j in rng:
            expect(failures, "qminus_shift_exchange", (i, j),
                   qm[j] * qm_down[i, j], qm[i] * qm_down[j, i])
    for (i, k, j, l), v in r.entries.items():
        expect(failures, "qplus_rhat_compatibility", (i, k, j, l),
               qp_self[i] * qp_pair[i, k] * v, v * qp_self[j] * qp_pair[j, l])
    return failures


def check_traces(n):
    """Exact trace values and reciprocity of the q-weights."""
    failures = []
    one = RatFun.const(n, 1)
    minus_one = RatFun.const(n, -1)
    qp = {j: qplus(n, j) for j in range(1, n + 1)}
    qm = {j: qminus(n, j) for j in range(1, n + 1)}
    for identity, op in (("trace_qplus", qplus_op),
                         ("trace_qminus", qminus_op)):
        expect(failures, identity, (n,),
               add_many(n, [*op(n).values(), RatFun.const(n, -n)]))
    for j in range(1, n + 1):
        expect(failures, "qminus_qplus_reciprocal", (j,),
               qm[j].shift(eps(n, j)) * qp[j], one)
        expect(failures, "q_sign_reversal", (j,), qm[j].negate_h(), qp[j])
    for i in range(1, n + 1):
        expect(failures, "qminus_partial_fraction_row", (i,),
               add_many(n, [q / (hdiff(n, i, j) + 1) for j, q in qm.items()]
                        + [minus_one]))
    return failures


SUITES = {
    "involutive": check_involutive,
    "dybe": check_dybe,
    "skew": check_skew_inverse,
    "aux": check_aux_identities,
    "traces": check_traces,
}


def suite_units(n, suite="all"):
    """The ordered units (unit name, function name, kwargs) of one named
    suite, or of all of them in table order for suite="all"."""
    table = {name: [(name, fn.__name__, {"n": n})]
             for name, fn in SUITES.items()}
    return select_units("rmatrix", table, suite)


def run_suite(n, suite="all"):
    """Run the units of :func:`suite_units` at rank n; returns their
    failures."""
    failures = []
    for name, _, kwargs in suite_units(n, suite):
        failures.extend(SUITES[name](**kwargs))
    return failures
