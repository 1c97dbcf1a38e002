"""The h-deformed differential-operator algebra on n indices and N copies.

Generators are coordinates ``x[i,a]`` and barred derivatives ``D[j,a]``
(index 1..n, copy 1..N) with either bosonic or fermionic statistics.
Normal order puts all x's first, each block sorted by (index, copy);
the exchange rules are driven by the dynamical tensors of
:mod:`hdeform.rmatrix`.  The rule that moves a derivative past a
coordinate reads its coefficients from the skew inverse
:func:`hdeform.rmatrix.psihat`: the entry (i,k | i,k) for D[i] x[i] ->
x[k] D[k], and (i,j | j,i) for D[j] x[i] with i != j.

The cross-copy exchange of a coordinate with a derivative of equal
index is homogeneous here (the inhomogeneous unit appears only for
equal copy labels).  The printed n=2 two-copy table in the source
material carries a constant for distinct copies as well; construct the
algebra with ``inhomogeneous_across_copies=True`` to adopt that variant
convention.  ``verify_reflection`` run under both settles which one is
consistent (see ``appendix`` checks in :mod:`hdeform.dra`).
"""

from __future__ import annotations

from .algebra import (Element, TermAlgebra, add_elements,
                      associativity_failures, braided_cross_residual,
                      overlap_triples, reflection_residual, residual_failures,
                      substitute)
from .coeffs import (RatFun, beta_coeff, eps, hdiff, mu_coeff, phi,
                     phi_prime, qminus, qplus)
from .errors import CoefficientError
from .report import expect, select_units
from .rmatrix import psihat, rhat, shat, that
from .store import lookup

XK, DK = 0, 1


def xgen(i, a=1):
    return (XK, i, a)


def dgen(j, a=1):
    return (DK, j, a)


class WeylAlgebra(TermAlgebra):

    def __init__(self, n, copies=1, fermionic=False,
                 inhomogeneous_across_copies=False):
        super().__init__(n, ("weyl", n, copies, fermionic,
                             inhomogeneous_across_copies))
        self.copies = copies
        self.fermionic = fermionic
        self.inhomogeneous_across_copies = inhomogeneous_across_copies
        # the exchange rules of this signature, shared with every algebra
        # of the same signature and filled lazily by pair_rule
        self._rules = lookup(("weyl.rules", self.signature), dict)
        self._eps = [None] + [eps(n, i) for i in range(1, n + 1)]
        self._neps = [None] + [tuple(-x for x in eps(n, i))
                               for i in range(1, n + 1)]

    # -- generators ------------------------------------------------------------

    def x(self, i, a=1):
        self._check_gen(i, a)
        return self.gen_element(xgen(i, a))

    def d(self, j, a=1):
        self._check_gen(j, a)
        return self.gen_element(dgen(j, a))

    def _check_gen(self, i, a):
        if not 1 <= i <= self.n:
            raise CoefficientError(f"index {i} out of range 1..{self.n}")
        if not 1 <= a <= self.copies:
            raise CoefficientError(f"copy {a} out of range 1..{self.copies}")

    def generators(self):
        return [xgen(i, a) for i in range(1, self.n + 1)
                for a in range(1, self.copies + 1)] + \
               [dgen(j, a) for j in range(1, self.n + 1)
                for a in range(1, self.copies + 1)]

    def weight(self, gen):
        kind, i, _ = gen
        return self._eps[i] if kind == XK else self._neps[i]

    def gen_str(self, gen):
        kind, i, a = gen
        return f"{'x' if kind == XK else 'D'}[{i},{a}]"

    # -- exchange rules ----------------------------------------------------------

    def needs_rewrite(self, g1, g2):
        if g1 == g2:
            return self.fermionic
        return g1 > g2

    def pair_rule(self, g1, g2):
        rule = self._rules.get((g1, g2))
        if rule is None:
            rule = self._make_rule(g1, g2)
            self._rules[(g1, g2)] = rule
        return rule

    def _make_rule(self, g1, g2):
        k1, i1, a1 = g1
        k2, i2, a2 = g2
        sgn = -1 if self.fermionic else 1
        n = self.n
        if k1 == k2:
            if g1 == g2:
                # only reachable in the fermionic case: squares vanish
                return []
            if i1 == i2:
                # same index, copies swap with unit coefficient
                return [(RatFun.const(n, sgn), ((k1, i1, a2), (k1, i1, a1)))]
            # i1 > i2 here; the two-copy linear system solved in closed form
            g = hdiff(n, i2, i1)
            c_keep = (g * g / (g * g - 1)) * sgn
            c_cross = g / (g * g - 1)
            if k1 == XK:
                c_cross = -c_cross
            return [(c_keep, ((k1, i2, a2), (k1, i1, a1))),
                    (c_cross, ((k1, i2, a1), (k1, i1, a2)))]
        if k1 == DK and k2 == XK:
            j, beta = i1, a1
            i, alpha = i2, a2
            psi = psihat(n)
            if i != j:
                return [(psi.get(i, j, j, i) * sgn,
                         ((XK, i, alpha), (DK, j, beta)))]
            out = []
            for k in range(1, n + 1):
                out.append((psi.get(i, k, i, k) * sgn,
                            ((XK, k, alpha), (DK, k, beta))))
            if alpha == beta or self.inhomogeneous_across_copies:
                # the unit term keeps its sign in the fermionic variant
                # (anticommutator normalization D x + x D = 1), which is
                # what makes the composite matrix satisfy the same
                # reflection equation in both statistics
                out.append((qplus(n, i), ()))
            return out
        raise AssertionError("x before D is never rewritten")

    # -- composite operators --------------------------------------------------------

    def ltilde(self, copy_range=None):
        """Matrix (i, j) -> sum_a x[i,a] D[j,a] over the copies a in
        copy_range (default: every copy); already normal ordered."""
        if copy_range is None:
            copy_range = range(1, self.copies + 1)
        out = {}
        for i in range(1, self.n + 1):
            for j in range(1, self.n + 1):
                out[(i, j)] = Element(self, {
                    (xgen(i, a), dgen(j, a)): self._one for a in copy_range})
        return out


# ---------------------------------------------------------------------------
# verification suites
# ---------------------------------------------------------------------------

def verify_reflection(n, copies=1, fermionic=False,
                      inhomogeneous_across_copies=False):
    """Reflection-equation residuals of the composite operator matrix."""
    alg = WeylAlgebra(n, copies, fermionic, inhomogeneous_across_copies)
    return residual_failures("reflection_equation",
                             reflection_residual(alg, rhat(n), alg.ltilde(), n))


def check_confluence(n, copies=1, fermionic=False):
    """Degree-3 confluence: both bracketings of every overlap ambiguity
    normal-order identically (see
    :func:`hdeform.algebra.associativity_failures`).  Rewriting
    terminates: each rule lowers the number of D-before-x pairs, or
    keeps it and sorts one adjacent pair of a block."""
    alg = WeylAlgebra(n, copies, fermionic)
    return associativity_failures(alg, overlap_triples(alg, alg.generators()))


def check_forward_exchange(n, copies=1, fermionic=False):
    """Round trip of the derivative-past-coordinate rule.

    The engine's D-x rule was produced by skew inversion; substituting it
    back into the forward x-D exchange (with its inhomogeneous unit, and
    the global sign flip of the fermionic variant) must reproduce the
    identity: the substituted sum minus the word x[i,a] D[j,b] is
    normal-ordered once and must vanish.
    """
    alg = WeylAlgebra(n, copies, fermionic)
    t = that(n)
    sgn = -1 if fermionic else 1
    failures = []
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            for a in range(1, copies + 1):
                for b in range(1, copies + 1):
                    parts = [-alg.word_element((xgen(i, a), dgen(j, b)))]
                    for k in range(1, n + 1):
                        for l in range(1, n + 1):
                            c = t.get(i, k, j, l)
                            if c is not None:
                                parts.append(alg.word_element(
                                    (dgen(k, b), xgen(l, a)), c * sgn))
                    if a == b and i == j:
                        parts.append(alg.scalar(-sgn))
                    expect(failures, "forward_exchange_round_trip",
                           (i, j, a, b),
                           alg.normal_form(add_elements(alg, parts)))
    return failures


# -- unbarred and doubly-barred generator families -----------------------------


def _unbarred_d(alg, j, a=1):
    """partial_j = (phi_j[eps_j])^{-1} D_j as a left-coefficient element."""
    c = phi(alg.n, j).shift(eps(alg.n, j)).inverse()
    return alg.d(j, a).times_coeff_left(c)


def _double_barred_d(alg, j, a=1):
    """bbar_j = ((phi_j phi'_j)[eps_j])^{-1} D_j."""
    n = alg.n
    c = (phi(n, j) * phi_prime(n, j)).shift(eps(n, j)).inverse()
    return alg.d(j, a).times_coeff_left(c)


def check_variant_generators(n):
    """Relations of the unbarred and doubly-barred derivative families."""
    alg = WeylAlgebra(n, 1)
    one = alg.one()
    failures = []
    nf = alg.normal_form

    x = {i: alg.x(i) for i in range(1, n + 1)}
    d_un = {j: _unbarred_d(alg, j) for j in range(1, n + 1)}
    d_bb = {j: _double_barred_d(alg, j) for j in range(1, n + 1)}

    # unbarred family: alpha/beta/mu relations
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j:
                a_c = (hdiff(n, i, j) + 1) / hdiff(n, i, j)
                expect(failures, "unbarred_xx", (i, j),
                       nf(x[i] * x[j] - (x[j] * x[i]).times_coeff_left(a_c)))
                expect(failures, "unbarred_dd", (i, j),
                       nf(d_un[j] * d_un[i]
                          - (d_un[i] * d_un[j]).times_coeff_left(a_c)))
            if i != j:
                expect(failures, "unbarred_xd_commute", (i, j),
                       nf(x[i] * d_un[j] - d_un[j] * x[i]))
        acc = add_elements(
            alg, [(d_un[j] * x[j]).times_coeff_left(beta_coeff(n, i, j))
                  for j in range(1, n + 1)] + [alg.scalar(mu_coeff(n, i))])
        expect(failures, "unbarred_diagonal", (i,), nf(x[i] * d_un[i] - acc))

    # doubly-barred family against the shat tensor
    s = shat(n)
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            parts = []
            for k in range(1, n + 1):
                for l in range(1, n + 1):
                    c = s.get(i, k, j, l)
                    if c is not None:
                        parts.append((x[l] * d_bb[k]).times_coeff_left(c))
            if i == j:
                parts.append(one)
            expect(failures, "double_barred_exchange", (i, j),
                   nf(d_bb[j] * x[i] - add_elements(alg, parts)))
    # derivative change of basis: D_i == bbar_i (q-)^{-1} == (q+) bbar_i
    for i in range(1, n + 1):
        expect(failures, "derivative_scaling_right", (i,),
               nf(d_bb[i].times_coeff_right(qminus(n, i).inverse())
                  - alg.d(i)))
        expect(failures, "derivative_scaling_left", (i,),
               nf(d_bb[i].times_coeff_left(qplus(n, i)) - alg.d(i)))
    return failures


# -- Zhelobenko automorphisms ---------------------------------------------------


def zhelobenko_images(alg, i):
    """Generator images of the i-th braid automorphism (1 <= i < n)."""
    n = alg.n
    if not 1 <= i < n:
        raise CoefficientError(f"braid index {i} out of range 1..{n - 1}")
    h = hdiff(n, i, i + 1)
    img = {}
    for a in range(1, alg.copies + 1):
        img[xgen(i, a)] = (-alg.x(i + 1, a)).times_coeff_right(h / (h - 1))
        img[xgen(i + 1, a)] = alg.x(i, a)
        img[dgen(i, a)] = (-alg.d(i + 1, a)).times_coeff_left((h - 1) / h)
        img[dgen(i + 1, a)] = alg.d(i, a)
        for j in range(1, n + 1):
            if j not in (i, i + 1):
                img[xgen(j, a)] = alg.x(j, a)
                img[dgen(j, a)] = alg.d(j, a)
    return img


def zhelobenko(alg, i, el):
    """Apply the i-th braid automorphism and normal order the result."""
    return alg.normal_form(
        _zhelobenko_image(alg, i, el, zhelobenko_images(alg, i)))


def _zhelobenko_image(alg, i, el, img):
    """The i-th braid automorphism applied to el, not normal ordered,
    given img, its generator images (:func:`zhelobenko_images`)."""
    perm = list(range(1, alg.n + 1))
    perm[i - 1], perm[i] = perm[i], perm[i - 1]
    perm = tuple(perm)
    return substitute(
        alg, ((c.permute(perm), w) for w, c in el.terms.items()), img)


def verify_zhelobenko(n, copies=1):
    """Automorphism, braid and mu-propagation checks.

    Each identity is decided by one normal form of the difference of its
    two sides; a failure records that residual."""
    alg = WeylAlgebra(n, copies)
    failures = []
    gens = alg.generators()
    nf = alg.normal_form
    imgs = {i: zhelobenko_images(alg, i) for i in range(1, n)}

    def image(i, el):
        return _zhelobenko_image(alg, i, el, imgs[i])

    # each generator's normal-ordered image, once per braid index
    q = {(i, g): nf(image(i, alg.gen_element(g))) for i in imgs for g in gens}
    prods = {(g1, g2): nf(alg.gen_element(g1) * alg.gen_element(g2))
             for g1 in gens for g2 in gens}
    # q_i respects every quadratic exchange: q(nf(g1 g2)) == nf(q(g1) q(g2))
    for i in imgs:
        for g1 in gens:
            for g2 in gens:
                expect(failures, "automorphism_on_exchange", (i, g1, g2),
                       nf(image(i, prods[g1, g2]) - q[i, g1] * q[i, g2]))
    # braid relation on every generator (needs n >= 3)
    for i in range(1, n - 1):
        for g in gens:
            left = nf(image(i + 1, q[i, g]))
            right = nf(image(i, q[i + 1, g]))
            expect(failures, "braid_relation", (i, g),
                   nf(image(i, left) - image(i + 1, right)))
    # mu recursion: x^i d_i - sum_j beta_ij d_j x^j == mu_i == -1/phi_i
    relations = {}
    for i in range(1, n + 1):
        acc = add_elements(
            alg, [(_unbarred_d(alg, j, 1) * alg.x(j, 1)
                   ).times_coeff_left(beta_coeff(n, i, j))
                  for j in range(1, n + 1)])
        relations[i] = (alg.x(i, 1) * _unbarred_d(alg, i, 1) - acc
                        - alg.scalar(mu_coeff(n, i)))
        expect(failures, "mu_recursion", (i,), nf(relations[i]))
    # propagation step: the braid image of each diagonal relation element
    # is again a relation, i.e. normal-orders to zero (this is how the
    # value of each mu follows from the base case at the last index)
    for i in imgs:
        for k in relations:
            expect(failures, "mu_propagation", (i, k),
                   nf(image(i, relations[k])))
    return failures


def zhelobenko_square_action(n, copies=1):
    """Computed (not asserted) action of each squared braid generator."""
    alg = WeylAlgebra(n, copies)
    nf = alg.normal_form
    out = {}
    for i in range(1, n):
        img = zhelobenko_images(alg, i)
        for g in alg.generators():
            once = nf(_zhelobenko_image(alg, i, alg.gen_element(g), img))
            out[(i, g)] = str(nf(_zhelobenko_image(alg, i, once, img)))
    return out


# -- split realization of the braided double ------------------------------------


def split_realization(n, copies, nu):
    """Two-interval realization of the braided product inside the algebra."""
    if not 1 <= nu < copies:
        raise CoefficientError("split point must satisfy 1 <= nu < N")
    alg = WeylAlgebra(n, copies)
    m1 = alg.ltilde(range(1, nu + 1))
    m2 = alg.ltilde(range(nu + 1, copies + 1))
    failures = []
    r = rhat(n)
    for tag, mat in (("first_interval", m1), ("second_interval", m2)):
        failures += residual_failures(f"reflection_{tag}",
                                      reflection_residual(alg, r, mat, n))
    # cross relation R M1 R M2 == M2 R M1 R
    failures += residual_failures("braided_cross_relation",
                                  braided_cross_residual(alg, r, m1, m2, n))
    # the two intervals sum to the full composite matrix
    lt = alg.ltilde()
    for key in sorted(lt):
        expect(failures, "interval_sum", key,
               add_elements(alg, (m1[key], m2[key], -lt[key])))
    return failures


# -- suite driver ----------------------------------------------------------------


def suite_units(n, copies=1, fermionic=False, suite="all",
                across_copies=False):
    """The ordered units (unit name, function name, kwargs) of one named
    suite, or of every suite that applies for suite="all".

    The variants, zhelobenko and split suites are defined for bosonic
    statistics, and split needs two copies or more; naming one of them
    where it does not apply raises ValueError, as does an unknown name.
    """
    sizes = {"n": n, "copies": copies, "fermionic": fermionic}
    table = {
        "confluence": [("confluence", "check_confluence", dict(sizes))],
        "reflection": [("reflection", "verify_reflection", dict(
            sizes, inhomogeneous_across_copies=across_copies))],
        "exchange": [("exchange", "check_forward_exchange", dict(sizes))],
        "variants": [("variants", "check_variant_generators", {"n": n})],
        "zhelobenko": [("zhelobenko", "verify_zhelobenko",
                        {"n": n, "copies": copies})],
        "split": [("split", "split_realization",
                   {"n": n, "copies": copies, "nu": 1})],
    }
    # suites that do not apply keep their place, with the reason instead
    if fermionic:
        for name in ("variants", "zhelobenko", "split"):
            table[name] = f"the {name} suite is defined for --stats bosonic"
    elif copies < 2:
        table["split"] = "the split suite needs --N 2 or more"
    return select_units("weyl", table, suite)


def run_suite(n, copies=1, fermionic=False, suite="all"):
    """Run the units of :func:`suite_units`; returns their failures."""
    failures = []
    for _, func, kwargs in suite_units(n, copies, fermionic, suite):
        failures.extend(globals()[func](**kwargs))
    return failures
