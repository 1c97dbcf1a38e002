"""The reduction algebra presented by the reflection equation.

Generators ``L[i,j]`` (several braided copies ``M1, M2, ...`` when
requested) have weight eps_i - eps_j.  The quadratic-linear defining
relations are the components of the reflection equation; the rewrite
system that orders an arbitrary word is not transcribed by hand but
extracted by solving those components for the out-of-order quadratic
monomials over the coefficient field.  Cross-copy exchange rules come
from the braided compatibility relation the same way.

A total order on generator patterns fixes what "ordered" means; copy
labels are always major.  The engine normal-orders with the root-height
order (:func:`normal_order`), the only family found to give terminating
rewriting at every rank checked; the relation catalogue and the n=2
regression against the printed ordering table use the table's own order
(:func:`appendix_order`), which needs no rewriting.
"""

from __future__ import annotations

import itertools

from .algebra import (Element, TermAlgebra, add_elements,
                      associativity_failures, braided_cross_residual,
                      mat_first_leg, mat_from_tensor, mat_mul, mat_power,
                      mat_sum, overlap_triples, quantum_trace,
                      reflection_residual, residual_failures, substitute)
from .coeffs import (RatFun, add_many, eps, hdiff, phi, phi_segment,
                     serialize)
from .errors import RelationExtractionError, RewriteLimitError
from .report import expect, failure, select_units
from .rmatrix import hmat, rhat
from .store import lookup


def normal_order(pat):
    """Engine order: generators sorted by root height (lowering ones
    first, then diagonal, then raising), ties by (i, j).

    The choice matters: rewriting must terminate, and most orders fail
    that.  Plain lexicographic order on (i, j) already cycles at n=2
    (the word L[2,1] L[2,2] L[1,2] reproduces itself), and the order of
    the printed n=2 table cycles at n=3.  The height order gives an
    acyclic rewrite graph in degree 3 (see :func:`rewrite_graph_cycle`),
    so rewriting terminates there, and :func:`check_associativity`
    resolves every overlap ambiguity, which gives degree-3 confluence
    (Bergman's diamond lemma, stated over a central base ring; here
    coefficients cross generators by shift automorphisms).
    """
    i, j = pat
    return (j - i, i, j)


def appendix_order(pat):
    """Presentation order of the printed n=2 ordering table (generalized
    to any rank): off-diagonal generators first, then diagonal ones,
    each block by descending (i, j).

    Used for the relation catalogue only; rule extraction is pure linear
    algebra, so it does not need the termination property.
    """
    i, j = pat
    return (1 if i == j else 0, -i, -j)


# ---------------------------------------------------------------------------
# free weight-graded algebra (no relations)
# ---------------------------------------------------------------------------

class FreeReductionAlgebra(TermAlgebra):
    """The free algebra on the generators L[i,j] of weight eps_i - eps_j,
    in ``copies`` braided copies M1, M2, ...: no relations, so only
    coefficients move.  Generators are (copy, i, j) triples.
    :class:`ReductionAlgebra` is this algebra plus its rewrite system."""

    def __init__(self, n, copies=1):
        super().__init__(n, ("free-reduction", n, copies))
        self.copies = copies
        self._eps = [None] + [eps(n, i) for i in range(1, n + 1)]

    def gen(self, i, j, t=1):
        if not (1 <= i <= self.n and 1 <= j <= self.n):
            raise ValueError(f"generator index ({i},{j}) out of range")
        if not 1 <= t <= self.copies:
            raise ValueError(f"copy {t} out of range 1..{self.copies}")
        return self.gen_element((t, i, j))

    def generators(self, t=1):
        return [(t, i, j) for i in range(1, self.n + 1)
                for j in range(1, self.n + 1)]

    def lmatrix(self, t=1):
        return {(i, j): self.gen(i, j, t)
                for i in range(1, self.n + 1) for j in range(1, self.n + 1)}

    def weight(self, g):
        _, i, j = g
        return tuple(a - b for a, b in zip(self._eps[i], self._eps[j]))

    def needs_rewrite(self, g1, g2):
        return False

    def pair_rule(self, g1, g2):  # pragma: no cover - nothing is rewritten
        raise AssertionError("free algebra has no rewrite rules")

    def gen_str(self, g):
        t, i, j = g
        if self.copies == 1:
            return f"L[{i},{j}]"
        return f"M{t}[{i},{j}]"


def reflection_components(n, matrix="L"):
    """Componentwise reflection-equation residual for a generator matrix.

    matrix="L": formal generators; the components are the defining
    relations.  matrix="H": the Cartan realization (pure coefficients,
    expected to vanish).  matrix="mixed": the linear compatibility
    identity between a formal weight-graded matrix and the Cartan one.
    """
    alg = FreeReductionAlgebra(n)
    r = rhat(n)
    if matrix == "L":
        return reflection_residual(alg, r, alg.lmatrix(), n)
    if matrix == "H":
        h = hmat(n)
        entries = {(i, i): alg.scalar(h[i]) for i in range(1, n + 1)}
        return reflection_residual(alg, r, entries, n)
    if matrix == "mixed":
        h = hmat(n)
        r12 = mat_from_tensor(alg, r)
        l1 = mat_first_leg(alg, alg.lmatrix(), n)
        h1 = mat_first_leg(
            alg, {(i, i): alg.scalar(h[i]) for i in range(1, n + 1)}, n)
        rl = mat_mul(alg, r12, l1, n)
        rh = mat_mul(alg, r12, h1, n)
        lr = mat_mul(alg, l1, r12, n)
        hr = mat_mul(alg, h1, r12, n)
        # R L R H + R H R L - L R H R - H R L R - 2 (R L - L R)
        return mat_sum(alg, [(1, mat_mul(alg, rl, rh, n)),
                             (1, mat_mul(alg, rh, rl, n)),
                             (-1, mat_mul(alg, lr, hr, n)),
                             (-1, mat_mul(alg, hr, lr, n)),
                             (-1, rl), (-1, rl), (1, lr), (1, lr)])
    raise ValueError(f"unknown matrix kind {matrix!r}")


# ---------------------------------------------------------------------------
# rewrite-rule extraction by linear solve
# ---------------------------------------------------------------------------

def _eliminate(row, c, pivot):
    """row -= c * pivot in place, dropping cancelled terms."""
    for k, v in pivot.items():
        s = row.get(k)
        s = -(c * v) if s is None else s - c * v
        if s.is_zero:
            row.pop(k, None)
        else:
            row[k] = s


def _solve_for_unordered(components, is_unordered):
    """Solve for the unordered words, weight by weight, by Gauss-Jordan
    elimination.

    components: iterable of Elements that are identically zero in the
    algebra.  Each becomes one row per word weight, a dict word -> coeff
    holding ordered and unordered words alike.  Pivoting on unordered
    word u divides its row by the coefficient of u and removes u from
    every other row; at the end each pivot row reads u + rest == 0, so
    the rule for u is -rest.  Returns {unordered word: {word: coeff}}.
    A missing pivot or an inconsistent leftover row is a hard error: it
    would contradict the completeness of the relations.
    """
    buckets = {}
    for el in components:
        if el.is_zero:
            continue
        for wt, sub in el.weight_decomposition().items():
            buckets.setdefault(wt, []).append(dict(sub.terms))
    rules = {}
    for wt in sorted(buckets):
        remaining = buckets[wt]
        unknowns = sorted({w for row in remaining for w in row
                           if is_unordered(w)})
        pivots = {}
        for u in unknowns:
            pick = next((idx for idx, row in enumerate(remaining)
                         if u in row), None)
            if pick is None:
                raise RelationExtractionError(
                    f"no pivot for unordered word {u} at weight {wt}")
            row = remaining.pop(pick)
            inv = row[u].inverse()
            pivot = {k: inv * v for k, v in row.items() if k != u}
            # eliminate u from the remaining rows and from earlier pivots
            for other in remaining + list(pivots.values()):
                c = other.pop(u, None)
                if c is not None:
                    _eliminate(other, c, pivot)
            pivots[u] = pivot
        leftover = next((row for row in remaining if row), None)
        if leftover is not None:
            raise RelationExtractionError(
                f"inconsistent leftover relation at weight {wt}: "
                f"words {sorted(leftover)}")
        for u, pivot in pivots.items():
            # split once: every rewrite step multiplies these
            rules[u] = {k: (-v).split() for k, v in pivot.items()}
    return rules


def extract_rewrite_rules(n, gen_order=None):
    """Ordering rules for one copy: unordered pair word -> ordered element."""
    order = gen_order or normal_order
    comps = reflection_components(n, "L")

    def is_unordered(word):
        if len(word) != 2:
            return False
        (_, i1, j1), (_, i2, j2) = word
        return order((i1, j1)) > order((i2, j2))

    raw = _solve_for_unordered(comps.values(), is_unordered)
    rules = {}
    for word, rhs in raw.items():
        (_, i1, j1), (_, i2, j2) = word
        rules[((i1, j1), (i2, j2))] = [
            (c, tuple((i, j) for (_, i, j) in w)) for w, c in sorted(rhs.items())]
    return rules


def extract_cross_rules(n, gen_order=None):
    """Braided exchange: (higher copy gen)(lower copy gen) -> ordered."""
    alg = FreeReductionAlgebra(n, copies=2)
    comps = braided_cross_residual(alg, rhat(n), alg.lmatrix(1),
                                   alg.lmatrix(2), n)

    def is_unordered(word):
        if len(word) != 2:
            return False
        return word[0][0] > word[1][0]

    raw = _solve_for_unordered(comps.values(), is_unordered)
    rules = {}
    for word, rhs_el in raw.items():
        (_, i1, j1), (_, i2, j2) = word
        rules[((i1, j1), (i2, j2))] = [
            (c, ((w[0][1], w[0][2]), (w[1][1], w[1][2])))
            for w, c in sorted(rhs_el.items())]
    return rules


# ---------------------------------------------------------------------------
# the working algebra
# ---------------------------------------------------------------------------

def rule_system(n, gen_order=None, cross=False):
    """The rewrite rules of rank n under gen_order (default: the engine
    order): same-copy rules, or the braided cross-copy rules.

    Each (rank, order, kind) is extracted once per process and kept in
    :mod:`hdeform.store`, shared by every caller, so the returned dict
    must not be mutated.
    """
    order = gen_order or normal_order
    extract = extract_cross_rules if cross else extract_rewrite_rules
    return lookup(("dra.rule_system", (n, order, cross)), extract, n, order)


class ReductionAlgebra(FreeReductionAlgebra):
    """The reduction algebra: the free algebra plus the rewrite system
    extracted under gen_order (default: the engine order).

    The order is part of the algebra's signature, so elements of
    algebras under different orders never mix.
    """

    def __init__(self, n, copies=1, gen_order=None):
        super().__init__(n, copies)
        self.order = gen_order or normal_order
        self.signature = ("reduction", n, copies, self.order)
        self.same_rules = rule_system(n, self.order)
        self._relabelled = {}   # (g1, g2) -> (source rule, relabelled rule)

    @property
    def cross_rules(self):
        # only multi-copy words ever need these; extracted on first use
        return rule_system(self.n, self.order, cross=True)

    def _key(self, g):
        t, i, j = g
        return (t,) + tuple(self.order((i, j)))

    def needs_rewrite(self, g1, g2):
        return self._key(g1) > self._key(g2)

    def pair_rule(self, g1, g2):
        """The rule for g1 g2 relabelled to their copies: one list per
        pair, built again only when its source rule is replaced."""
        t1, i1, j1 = g1
        t2, i2, j2 = g2
        rules = self.same_rules if t1 == t2 else self.cross_rules
        rule = rules[((i1, j1), (i2, j2))]
        entry = self._relabelled.get((g1, g2))
        if entry is None or entry[0] is not rule:
            if t1 == t2:
                out = [(c, tuple((t1, i, j) for (i, j) in w))
                       for c, w in rule]
            else:
                out = [(c, ((t2,) + lo, (t1,) + hi)) for c, (lo, hi) in rule]
            entry = self._relabelled[(g1, g2)] = (rule, out)
        return entry[1]

    # -- derived operators ---------------------------------------------------

    def lprime_matrix(self, t=1):
        h = hmat(self.n)
        out = {}
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                el = -self.gen(i, j, t)
                if i == j:
                    el = el + self.scalar(h[i])
                out[(i, j)] = el
        return out

    # perfbench/tracer.py times these two names; the work is in the
    # module functions of hdeform.algebra, over any TermAlgebra
    def mat_power(self, mat, power):
        return mat_power(self, mat, power)

    def quantum_trace(self, mat_pow):
        return quantum_trace(self, mat_pow)


# ---------------------------------------------------------------------------
# checks
# ---------------------------------------------------------------------------

def check_relation_roundtrip(n, gen_order=None):
    """Substituting the extracted rules back into every reflection
    component must give zero identically."""
    alg = ReductionAlgebra(n, 1, gen_order)
    comps = reflection_components(n, "L")
    return residual_failures("relation_roundtrip", {
        key: Element(alg, dict(el.terms)) for key, el in comps.items()})


def check_h_realization(n):
    """The Cartan diagonal satisfies the reflection equation, and the
    mixed linear identity holds for a formal weight-graded matrix."""
    return (residual_failures("cartan_reflection",
                              reflection_components(n, "H"))
            + residual_failures("mixed_weight_identity",
                                reflection_components(n, "mixed")))


def rewrite_graph_cycle(n, gen_order=None, degree=3):
    """Search the coefficient-free rewrite graph for a cycle.

    Explores every word of the given degree under "rewrite the leftmost
    descent", following rule words only (coefficients dropped; exact
    cancellations could only shrink the graph), with the engine's own
    search (:meth:`hdeform.algebra.TermAlgebra.rewrite_order`).  Returns
    a witness word on a cycle, or None when the graph is acyclic, which
    certifies that normal ordering terminates on all inputs of that
    degree.
    """
    alg = ReductionAlgebra(n, gen_order=gen_order)
    pats = [(1, i, j) for i in range(1, n + 1) for j in range(1, n + 1)]
    try:
        alg.rewrite_order(itertools.product(pats, repeat=degree))
    except RewriteLimitError as exc:
        return tuple(g[1:] for g in exc.word)
    return None


def check_associativity(n):
    """Degree-3 confluence: both bracketings of every overlap ambiguity
    normal-order identically (see
    :func:`hdeform.algebra.associativity_failures`)."""
    alg = ReductionAlgebra(n)
    return associativity_failures(alg, overlap_triples(alg, alg.generators()))


def check_associativity_sample(n):
    """Former name of :func:`check_associativity`.  No unit calls it;
    it stays while ``perfbench/tracer.py`` wraps the name."""
    return check_associativity(n)


def check_cross_copy_convention():
    """Failure-list form of :func:`cross_copy_convention_report`."""
    rep = cross_copy_convention_report()
    if rep["passing_convention"] == "same_copy_only":
        return []
    return [failure("cross_copy_convention", (), rep, "same_copy_only")]


def central_element(n, power):
    """Tr(L^power Q^-) as a normal-ordered element."""
    alg = ReductionAlgebra(n)
    return alg.quantum_trace(alg.mat_power(alg.lmatrix(), power))


def check_central(n, power, primed=False):
    """[Tr(L^N Q^-), L^i_j] == 0 for every generator (L' = H - L when
    primed)."""
    alg = ReductionAlgebra(n)
    mat = alg.lprime_matrix() if primed else alg.lmatrix()
    c = alg.quantum_trace(alg.mat_power(mat, power))
    failures = []
    tag = "central_commutator_primed" if primed else "central_commutator"
    for (i, j) in sorted(alg.lmatrix()):
        g = alg.gen(i, j)
        expect(failures, tag, (n, power, i, j), alg.normal_form(c * g - g * c))
    return failures


def check_weight_zero_diagonal(n, power):
    """Diagonal entries of L^N have weight zero (trace-side independence)."""
    alg = ReductionAlgebra(n)
    p = alg.mat_power(alg.lmatrix(), power)
    failures = []
    zero = (0,) * n
    for i in range(1, n + 1):
        for wt in p[(i, i)].weight_decomposition():
            if wt != zero:
                failures.append(failure("diagonal_weight_zero", (i, power),
                                        wt, zero))
    return failures


# -- generator transforms -----------------------------------------------------


def _transform_matrix(n, alg):
    """Coefficient of s[k,l] in L[i,j], as left-normalized coefficients."""
    out = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                el = alg.gen(i, j).times_coeff_right(phi(n, j))
            else:
                el = add_elements(alg, [alg.gen(i, i)] + [
                    -alg.gen(m, m).times_coeff_right(
                        (hdiff(n, i, m) * phi_segment(n, i, m)).inverse())
                    for m in range(i + 1, n + 1)])
                el = el.times_coeff_right(phi(n, i))
            out[(i, j)] = el
    return out


def check_generator_transforms(n):
    """Triangularity and invertibility of the change of basis."""
    failures = []
    alg = FreeReductionAlgebra(n)
    trans = _transform_matrix(n, alg)

    # triangular transition with unit diagonal
    for (i, j), el in sorted(trans.items()):
        diag_coeff = el.terms.get(((1, i, j),))
        if diag_coeff is None or not diag_coeff.is_unit_in_localization():
            failures.append(failure("transition_unit_diagonal", (i, j),
                                    "0" if diag_coeff is None else diag_coeff,
                                    "unit"))
        for word in el.terms:
            (_, a, b) = word[0]
            if (a, b) != (i, j) and not (i == j and a == b and a > i):
                failures.append(failure("transition_triangular", (i, j, a, b),
                                        el, "triangular"))
    # explicit inverse: solve for s in terms of L and round trip
    inv = invert_transform(alg, trans)
    for (i, j), el in sorted(inv.items()):
        # substitute L expressions back: must reproduce the bare generator
        expect(failures, "transition_inverse_roundtrip", (i, j),
               add_elements(alg, [trans[(a, b)].times_coeff_left(c)
                                  for ((_, a, b),), c in el.terms.items()]
                            + [-alg.gen(i, j)]))
    return failures


def invert_transform(alg, trans):
    """Express each s[i,j] as a coefficient combination of L[k,l], given
    trans, the :func:`_transform_matrix` of alg."""
    inv = {(i, j): alg.gen(i, j).times_coeff_left(
               el.terms[((1, i, j),)].inverse())
           for (i, j), el in trans.items() if i != j}
    # diagonal block is upper triangular in m; solve upward from m = n
    for i in range(alg.n, 0, -1):
        expr = trans[(i, i)]
        diag = expr.terms[((1, i, i),)]
        rest = add_elements(alg, [inv[(a, b)].times_coeff_left(c)
                                  for ((_, a, b),), c in expr.terms.items()
                                  if (a, b) != (i, i)])
        # the generator symbol here stands for the transformed family
        inv[(i, i)] = (alg.gen(i, i) - rest).times_coeff_left(diag.inverse())
    return inv


def check_cartan_sum(n):
    """The two transformed generator families sum to the Cartan matrix.

    The first- and second-factor generators add up to the Cartan element
    entrywise, so applying the triangular transform to both families and
    adding must reproduce the diagonal matrix h_j + n exactly; this is a
    pure coefficient identity."""
    failures = []
    trans = _transform_matrix(n, FreeReductionAlgebra(n))
    h = hmat(n)
    # off-diagonal: L^i_j + L'^i_j = (s+s')^i_j phi_j = 0 weightwise
    for i in range(1, n + 1):
        parts = []
        for ((_, a, b),), c in trans[(i, i)].terms.items():
            assert a == b
            parts.append(c * (RatFun.var(n, a) + a))
        expect(failures, "cartan_sum", (i,), add_many(n, parts + [-h[i]]))
    return failures


# -- independent oracle: the differential-operator realization -------------------


def check_weyl_realization(n):
    """Re-verify every extracted ordering rule inside the differential
    algebra.

    The generators map to the composite operators (coordinate times
    barred derivative, summed over n copies, enough for the map to be
    injective); each rule, transported through that map, must hold under the *differential-operator* rewriting engine.  This
    route never touches the reduction-algebra rule system, so it checks
    the extraction and the engine against one another.
    """
    from .weyl import WeylAlgebra
    walg = WeylAlgebra(n, n)
    lt = walg.ltilde()
    rules = rule_system(n)
    failures = []
    for (g1, g2) in sorted(rules):
        expect(failures, "rule_in_weyl_realization", (g1, g2),
               walg.normal_form(lt[g1] * lt[g2]
                                - substitute(walg, rules[(g1, g2)], lt)))
    return failures


def check_central_realization(n, power):
    """Centrality of the quantum trace checked in the differential
    algebra (n copies): the image of Tr(L^N Q^-) must commute with every
    composite operator entry there."""
    from .weyl import WeylAlgebra
    walg = WeylAlgebra(n, n)
    lt = walg.ltilde()
    trace = quantum_trace(walg, mat_power(walg, lt, power))
    failures = []
    for (i, j) in sorted(lt):
        expect(failures, "central_in_weyl_realization", (n, power, i, j),
               walg.normal_form(trace * lt[(i, j)] - lt[(i, j)] * trace))
    return failures


# -- braided structure ----------------------------------------------------------


def check_braided_sum(n, copies):
    """The sum of all braided copies satisfies the reflection equation."""
    alg = ReductionAlgebra(n, copies=copies)
    entries = {}
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            entries[(i, j)] = add_elements(
                alg, [alg.gen(i, j, t) for t in range(1, copies + 1)])
    res = reflection_residual(alg, rhat(n), entries, n)
    return residual_failures("braided_sum_reflection",
                             {(copies,) + key: el for key, el in res.items()})


def check_coproduct(n):
    """The sum of the two braided copies satisfies the reflection
    equation, and the two iterated coproducts agree in three copies."""
    failures = check_braided_sum(n, 2)
    a2 = ReductionAlgebra(n, copies=2)
    a3 = ReductionAlgebra(n, copies=3)

    def copy_sums(copy_images):
        """Generator images of a map sending copy t to the sum of the
        copies copy_images[t]."""
        return {g: add_elements(a3, [a3.gen(g[1], g[2], t2)
                                     for t2 in targets])
                for t, targets in copy_images.items()
                for g in a2.generators(t)}

    # the coproduct applied to the first and to the second tensor factor
    left = copy_sums({1: (1, 2), 2: (3,)})
    right = copy_sums({1: (1,), 2: (2, 3)})
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            delta = a2.gen(i, j, 1) + a2.gen(i, j, 2)
            terms = [(c, w) for w, c in delta.terms.items()]
            lhs = a3.normal_form(substitute(a3, terms, left))
            rhs = a3.normal_form(substitute(a3, terms, right))
            want = (a3.gen(i, j, 1) + a3.gen(i, j, 2) + a3.gen(i, j, 3))
            if lhs != rhs or lhs != want:
                failures.append(failure("coassociativity", (i, j),
                                        lhs, rhs))
    return failures


# -- appendix regression -----------------------------------------------------------


def appendix_expected_rules():
    """The printed n=2 ordering relations, under the printed order."""
    n = 2
    h = hdiff(n, 1, 2)
    one = RatFun.const(n, 1)
    L11, L12, L21, L22 = (1, 1), (1, 2), (2, 1), (2, 2)

    def r(*pairs):
        return sorted(((tuple(w), c) for w, c in pairs), key=lambda t: t[0])

    return {
        (L11, L12): r(((L12, L11), (h - 3) / (h - 2)),
                      ((L12, L22), one / (h - 2)),
                      ((L12,), one)),
        (L22, L12): r(((L12, L11), (h - 3) / ((h - 2) * (h + 1))),
                      ((L12, L22), (h - 1) * (h - 1) / ((h - 2) * (h + 1))),
                      ((L12,), -((h - 1) / (h + 1)))),
        (L11, L21): r(((L21, L11), (h + 1) * (h + 1) / ((h - 1) * (h + 2))),
                      ((L21, L22), -((h + 3) / ((h - 1) * (h + 2)))),
                      ((L21,), -((h + 1) / (h - 1)))),
        (L22, L21): r(((L21, L11), -(one / (h + 2))),
                      ((L21, L22), (h + 3) / (h + 2)),
                      ((L21,), one)),
        (L11, L22): r(((L22, L11), one)),
        (L12, L21): r(((L21, L12), one),
                      ((L11, L11), -(one / h)),
                      ((L22, L11), 2 * one / h),
                      ((L22, L22), -(one / h)),
                      ((L11,), one),
                      ((L22,), -one)),
    }


def check_appendix_rules():
    """Extracted n=2 rules match the printed table coefficient by
    coefficient (under the printed generator order)."""
    got = rule_system(2, appendix_order)
    want = appendix_expected_rules()
    failures = []
    for key in sorted(want):
        g = sorted(((w, c) for c, w in got.get(key, [])), key=lambda t: t[0])
        w = want[key]
        if [x[0] for x in g] != [x[0] for x in w] or any(
                gc != wc for (_, gc), (_, wc) in zip(g, w)):
            failures.append(failure(
                "appendix_rule", key,
                "; ".join(f"{wd}:{serialize(c)}" for wd, c in g),
                "; ".join(f"{wd}:{serialize(c)}" for wd, c in w)))
    extra = set(got) - set(want)
    if extra:
        failures.append(failure("appendix_rule_count", sorted(extra),
                                len(got), len(want)))
    return failures


def check_appendix_central_form(max_power=3):
    """Closed form of the n=2 central elements, byte-exact."""
    from .coeffs import parse
    failures = []
    alg = ReductionAlgebra(2)
    qm1 = parse(2, "(h1-h2-1)/(h1-h2)")
    qm2 = parse(2, "(h1-h2+1)/(h1-h2)")
    for power in range(1, max_power + 1):
        got = central_element(2, power)
        p = alg.mat_power(alg.lmatrix(), power)
        want = alg.normal_form(p[(1, 1)].times_coeff_left(qm1)
                               + p[(2, 2)].times_coeff_left(qm2))
        expect(failures, "appendix_central_form", (power,),
               str(got), str(want))
    return failures


def cross_copy_convention_report():
    """Run the composite-matrix reflection oracle under both conventions
    for the inhomogeneous unit of the cross-copy exchange.

    Returns a dict recording which convention passes; the printed
    two-copy table's constant terms are reproduced only by the variant
    convention, which fails the reflection oracle.
    """
    from .weyl import verify_reflection
    same_copy_only = verify_reflection(2, 2, False,
                                       inhomogeneous_across_copies=False)
    across = verify_reflection(2, 2, False, inhomogeneous_across_copies=True)
    return {
        "same_copy_only_failures": len(same_copy_only),
        "across_copies_failures": len(across),
        "passing_convention": ("same_copy_only" if not same_copy_only
                               else "across_copies" if not across else "none"),
    }


def check_appendix_cross_copy():
    """The printed two-copy exchange table of the differential algebra.

    Homogeneous parts must hold exactly; the two diagonal coordinate-
    derivative relations for distinct copies are checked without their
    printed constant (see the convention report).
    """
    from .weyl import WeylAlgebra
    n = 2
    alg = WeylAlgebra(n, copies=2)
    h = hdiff(n, 1, 2)
    one = RatFun.const(n, 1)
    x = {(i, a): alg.x(i, a) for i in (1, 2) for a in (1, 2)}
    d = {(j, a): alg.d(j, a) for j in (1, 2) for a in (1, 2)}
    nf = alg.normal_form
    failures = []

    def chk(tag, lhs, rhs):
        expect(failures, tag, (), nf(lhs - rhs))

    chk("xx_12", x[(1, 1)] * x[(2, 2)],
        (x[(1, 2)] * x[(2, 1)]).times_coeff_left(one / h)
        + (x[(2, 2)] * x[(1, 1)]).times_coeff_left((h * h - 1) / (h * h)))
    chk("xx_21", x[(2, 1)] * x[(1, 2)],
        x[(1, 2)] * x[(2, 1)]
        - (x[(2, 2)] * x[(1, 1)]).times_coeff_left(one / h))
    chk("dd_12", d[(1, 1)] * d[(2, 2)],
        (d[(1, 2)] * d[(2, 1)]).times_coeff_left(-(one / h))
        + (d[(2, 2)] * d[(1, 1)]).times_coeff_left((h * h - 1) / (h * h)))
    chk("dd_21", d[(2, 1)] * d[(1, 2)],
        d[(1, 2)] * d[(2, 1)]
        + (d[(2, 2)] * d[(1, 1)]).times_coeff_left(one / h))
    for i in (1, 2):
        chk(f"xx_same_{i}", x[(i, 1)] * x[(i, 2)], x[(i, 2)] * x[(i, 1)])
        chk(f"dd_same_{i}", d[(i, 1)] * d[(i, 2)], d[(i, 2)] * d[(i, 1)])
    chk("xd_offdiag_12", x[(1, 1)] * d[(2, 2)], d[(2, 2)] * x[(1, 1)])
    chk("xd_offdiag_21", x[(2, 1)] * d[(1, 2)],
        (d[(1, 2)] * x[(2, 1)]).times_coeff_left(h * (h + 2) / ((h + 1) ** 2)))
    # diagonal cross-copy relations: homogeneous parts of the printed rows
    chk("xd_diag_1", x[(1, 1)] * d[(1, 2)],
        d[(1, 2)] * x[(1, 1)]
        + (d[(2, 2)] * x[(2, 1)]).times_coeff_left(one / (1 - h)))
    chk("xd_diag_2", x[(2, 1)] * d[(2, 2)],
        (d[(1, 2)] * x[(1, 1)]).times_coeff_left(one / (1 + h))
        + d[(2, 2)] * x[(2, 1)])
    # the printed constants are NOT consistent: with -1 appended the two
    # relations above must fail
    bad = nf(x[(1, 1)] * d[(1, 2)]
             - (d[(1, 2)] * x[(1, 1)]
                + (d[(2, 2)] * x[(2, 1)]).times_coeff_left(one / (1 - h))
                - alg.one()))
    if bad.is_zero:
        failures.append(failure("xd_diag_printed_constant_unexpectedly_holds",
                                (), "0", "nonzero"))
    return failures


# -- relation catalogue -------------------------------------------------------------


def relation_catalogue(n, generators="L"):
    """Ordering relations as (lhs word, rhs element) pairs, in the
    presentation order of the printed table.

    generators="L" gives the extracted rewrite rules; "s" maps both
    sides through the change of basis to the first-factor generators.
    """
    rules = rule_system(n, appendix_order)
    cat = [(key, rules[key]) for key in sorted(rules)]
    if generators == "L":
        return cat
    if generators != "s":
        raise ValueError("generators must be 'L' or 's'")
    free = FreeReductionAlgebra(n)
    trans = _transform_matrix(n, free)
    return [(((g1, g2), trans[g1] * trans[g2]), substitute(free, rhs, trans))
            for (g1, g2), rhs in cat]


# -- suite driver --------------------------------------------------------------------


def suite_units(n, suite="all", copies=2, power=2):
    """The ordered units (unit name, function name, kwargs) of one named
    suite, or of every suite that applies for suite="all".

    The appendix suite is defined for n = 2 only; naming it at another
    rank raises ValueError, as does an unknown name.
    """
    central = []
    for p in range(power + 1):
        central += [(f"central.N{p}", "check_central", {"n": n, "power": p}),
                    (f"central_primed.N{p}", "check_central",
                     {"n": n, "power": p, "primed": True})]
    central.append(("central.weights", "check_weight_zero_diagonal",
                    {"n": n, "power": power}))
    coproduct = [("coproduct", "check_coproduct", {"n": n})]
    if copies > 2:
        coproduct.append((f"coproduct.sum{copies}", "check_braided_sum",
                          {"n": n, "copies": copies}))
    table = {
        "reflection": [("reflection", "check_relation_roundtrip", {"n": n})],
        "associativity": [("associativity", "check_associativity",
                           {"n": n})],
        "hrealization": [("hrealization", "check_h_realization", {"n": n})],
        "central": central,
        "realization": [
            ("realization.rules", "check_weyl_realization", {"n": n}),
            ("realization.central", "check_central_realization",
             {"n": n, "power": min(power, 2)})],
        "coproduct": coproduct,
        "transforms": [
            ("transforms.cartan_sum", "check_cartan_sum", {"n": n}),
            ("transforms.basis", "check_generator_transforms", {"n": n})],
        "appendix": [
            ("appendix.rules", "check_appendix_rules", {}),
            ("appendix.central", "check_appendix_central_form", {}),
            ("appendix.cross_copy", "check_appendix_cross_copy", {}),
            ("appendix.convention", "check_cross_copy_convention", {})],
    }
    if n != 2:
        table["appendix"] = "the appendix suite is defined for --n 2"
    return select_units("dra", table, suite)


def run_suite(n, suite="all", copies=2, power=2):
    """Run the units of :func:`suite_units`; returns their failures."""
    failures = []
    for _, func, kwargs in suite_units(n, suite, copies, power):
        failures.extend(globals()[func](**kwargs))
    return failures
