"""Generic noncommutative term algebra over the coefficient ring.

Elements are finite sums of (coefficient, word) pairs with the
coefficient written on the LEFT of the word.  Generators carry weights;
moving a coefficient f from the right of a generator g of weight w to
its left replaces f by f[w], i.e.  g * f == f[w]... more precisely

    f * g == g * f[w]      and      g * f == f[-w] * g.

Concrete algebras supply the generator set, the weight map and the
exchange (rewrite) rules; :meth:`TermAlgebra.normal_form` rewrites the
leftmost out-of-order adjacent generator pair (the leftmost descent) of
each word until every word is ordered: each word once, in topological
order.  A depth-first search over the coefficient-free rewrite graph
from the input words finds every word to rewrite and its successors,
and rejects a cycle; a pass in reverse post-order then hands each word
its whole coefficient, summed over every branch that reaches it, before
the word is rewritten.  This is "reduce the largest monomial first" of
noncommutative Groebner-basis reduction (T. Mora, Theoret. Comput.
Sci. 134 (1994) 131-173), with the rewrite graph as the order.

Each word's coefficient is summed once: the normal form, the product
and :func:`add_elements` (of which ``+`` is the two-operand case) keep
a word's parts until its sum is needed (:func:`hdeform.coeffs.add_part`)
and add them in one :func:`hdeform.coeffs.add_many`, over one common
denominator.  Matrices are summed the same way: :func:`mat_mul` and
:func:`mat_sum` make one :func:`add_elements` per entry.

A rule applied after a prefix of weight w has its coefficients shifted
by -w.  Each algebra keeps those shifted rules, keyed by the generator
pair and the prefix weight, together with the rule they came from; an
entry is reused only while ``pair_rule`` returns that very rule object,
so replacing a rule takes effect at the next step.
"""

from __future__ import annotations

import itertools

from . import coeffs
from .coeffs import (RatFun, add_many, add_part, qminus, serialize,
                     sum_parts)
from .errors import ResourceLimitError, RewriteLimitError
from .report import expect

_STEP_LIMIT = coeffs.env_limit("HDEFORM_MAX_REWRITES") or 20_000_000


class Element:
    """Finite left-coefficient sum of generator words."""

    __slots__ = ("alg", "terms")

    def __init__(self, alg, terms):
        self.alg = alg
        self.terms = terms
        # the one HDEFORM_MAX_TERMS setting, held by coeffs (set_term_limit)
        limit = coeffs._MAX_TERMS
        if limit and len(terms) > limit:
            raise ResourceLimitError(
                f"element exceeds HDEFORM_MAX_TERMS={limit}")

    # -- structure -----------------------------------------------------------

    @property
    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        if not isinstance(other, Element) or \
                other.alg.signature != self.alg.signature:
            return NotImplemented
        return self.terms == other.terms

    def weight_decomposition(self):
        """Map from word weight to the sub-element of that weight."""
        out = {}
        for w, c in self.terms.items():
            out.setdefault(self.alg.word_weight(w), {})[w] = c
        return {wt: Element(self.alg, t) for wt, t in out.items()}

    # -- linear operations ----------------------------------------------------

    def __add__(self, other):
        return add_elements(self.alg, (self, other))

    def __neg__(self):
        return Element(self.alg, {w: -c for w, c in self.terms.items()})

    def __sub__(self, other):
        return self + (-other)

    def times_coeff_left(self, c):
        if c.is_zero:
            return self.alg.zero()
        res = {}
        for w, cw in self.terms.items():
            s = c * cw
            if not s.is_zero:
                res[w] = s
        return Element(self.alg, res)

    def times_coeff_right(self, c):
        """Multiply by a coefficient on the right; it crosses every word."""
        if c.is_zero:
            return self.alg.zero()
        res = {}
        for w, cw in self.terms.items():
            s = cw * c.shift(tuple(-x for x in self.alg.word_weight(w)))
            if not s.is_zero:
                res[w] = s
        return Element(self.alg, res)

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """Concatenation product; the result is NOT normal ordered."""
        if not isinstance(other, Element):
            return NotImplemented
        if other.alg.signature != self.alg.signature:
            raise ValueError("algebra mismatch")
        alg = self.alg
        acc, more = {}, {}
        for w1, c1 in self.terms.items():
            cross = tuple(-x for x in alg.word_weight(w1))
            for w2, c2 in other.terms.items():
                add_part(acc, more, w1 + w2, c1 * c2.shift(cross))
        return Element(alg, sum_parts(alg.n, acc, more))

    def normal_form(self):
        return self.alg.normal_form(self)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return self.alg.element_str(self)

    def __repr__(self):
        return f"<{type(self.alg).__name__} element {self.alg.element_str(self)}>"


def add_elements(alg, elements):
    """The sum of elements of alg, each word's coefficient summed once."""
    acc, more = {}, {}
    for el in elements:
        if el.alg.signature != alg.signature:
            raise ValueError("algebra mismatch")
        for word, c in el.terms.items():
            add_part(acc, more, word, c)
    return Element(alg, sum_parts(alg.n, acc, more))


def coeff_factor_str(c):
    s = serialize(c)
    if "/" in s or "+" in s or "-" in s[1:]:
        return f"({s})"
    return s


class TermAlgebra:
    """Base class: rank, coefficient helpers and the rewriting engine."""

    def __init__(self, n, signature=None):
        self.n = n
        self.signature = signature or (type(self).__name__, n)
        self._one = RatFun.const(n, 1)
        self._wcache = {}
        self._shifted = {}   # (g1, g2, prefix weight) -> (rule, shifted)

    # subclasses implement:
    #   weight(gen) -> tuple[int, ...]
    #   needs_rewrite(g1, g2) -> bool
    #   pair_rule(g1, g2) -> list[(RatFun, word-tuple)], the same list
    #       object for a pair until its rule is replaced
    #   gen_str(gen) -> str

    def weight(self, gen):  # pragma: no cover - abstract
        raise NotImplementedError

    def needs_rewrite(self, g1, g2):  # pragma: no cover - abstract
        raise NotImplementedError

    def pair_rule(self, g1, g2):  # pragma: no cover - abstract
        raise NotImplementedError

    def gen_str(self, gen):  # pragma: no cover - abstract
        raise NotImplementedError

    # -- factories ---------------------------------------------------------------

    def zero(self):
        return Element(self, {})

    def one(self):
        return Element(self, {(): self._one})

    def scalar(self, c):
        if isinstance(c, int):
            c = RatFun.const(self.n, c)
        if c.is_zero:
            return self.zero()
        return Element(self, {(): c})

    def gen_element(self, gen):
        return Element(self, {(gen,): self._one})

    def word_element(self, word, coeff=None):
        return Element(self, {tuple(word): coeff if coeff is not None else self._one})

    def element(self, terms):
        return Element(self, {w: c for w, c in terms.items() if not c.is_zero})

    # -- weights ------------------------------------------------------------------

    def word_weight(self, word):
        w = self._wcache.get(word)
        if w is None:
            tot = [0] * self.n
            for g in word:
                gw = self.weight(g)
                for i in range(self.n):
                    tot[i] += gw[i]
            w = tuple(tot)
            self._wcache[word] = w
        return w

    # -- rewriting ------------------------------------------------------------------

    def normal_form(self, el):
        """The normal form of el: the rewritten words in topological
        order, each receiving its whole coefficient before its one
        rewrite.  Each word's coefficient is summed once, from all its
        parts, when its turn comes (an ordered word's at the end); a
        word with one part needs no sum."""
        n = self.n
        acc, more = dict(el.terms), {}
        for word, edges in self.rewrite_order(el.terms, _STEP_LIMIT):
            coeff = acc.pop(word, None)
            if coeff is None:
                continue
            rest = more.pop(word, None)
            if rest is not None:
                coeff = add_many(n, [coeff, *rest])
                if coeff.is_zero:
                    continue
            for rc, nw in edges:
                add_part(acc, more, nw, coeff * rc)
        return Element(self, sum_parts(n, acc, more))

    def rewrite_order(self, words, limit=None):
        """Search the coefficient-free rewrite graph from words.

        Returns the words that need a rewrite, each with its edges (the
        shifted coefficient and the word of every term its leftmost
        descent rewrites to), in topological order: a word comes before
        every word it rewrites to.  Each word's descent and shifted rule
        are found once.  Raises :class:`RewriteLimitError` naming a word
        on a cycle, or the word whose rewrite would exceed limit
        rewritten words (None: no bound).
        """
        shifted = self._shifted
        needs_rewrite = self.needs_rewrite
        edges = {}      # word -> its edges; None for an ordered word
        grey = set()    # the words on the search path
        post = []       # the finished words, each after its successors

        def expand(word):
            for pos in range(len(word) - 1):
                if needs_rewrite(word[pos], word[pos + 1]):
                    break
            else:
                edges[word] = None
                return None
            steps = len(grey) + len(post)
            if limit is not None and steps >= limit:
                raise RewriteLimitError(
                    f"normal ordering exceeded {limit} rewrite steps: "
                    f"step {steps + 1} would rewrite "
                    f"{self.word_str(word)} (length {len(word)})", word)
            prefix = word[:pos]
            suffix = word[pos + 2:]
            g1, g2 = word[pos], word[pos + 1]
            rule = self.pair_rule(g1, g2)
            key = (g1, g2, self.word_weight(prefix))
            entry = shifted.get(key)
            if entry is None or entry[0] is not rule:
                cross = tuple(-x for x in key[2])
                entry = shifted[key] = (
                    rule, [(rc.shift(cross), repl) for rc, repl in rule])
            out = edges[word] = [(rc, prefix + repl + suffix)
                                 for rc, repl in entry[1]]
            grey.add(word)
            return out

        for start in words:
            if start in edges:
                continue
            out = expand(start)
            stack = [(start, iter(out))] if out is not None else []
            while stack:
                word, it = stack[-1]
                for _, nxt in it:
                    if nxt in grey:
                        raise RewriteLimitError(
                            f"normal ordering cycles: {self.word_str(nxt)} "
                            f"(length {len(nxt)}) rewrites back to itself",
                            nxt)
                    if nxt not in edges:
                        out = expand(nxt)
                        if out is not None:
                            stack.append((nxt, iter(out)))
                            break
                else:
                    stack.pop()
                    grey.discard(word)
                    post.append((word, edges[word]))
        post.reverse()
        return post

    def word_str(self, word):
        return "*".join(self.gen_str(g) for g in word)

    # -- printing ---------------------------------------------------------------------

    def element_str(self, el):
        if not el.terms:
            return "0"
        parts = []
        for word in sorted(el.terms):
            c = el.terms[word]
            wstr = self.word_str(word)
            if not word:
                parts.append(serialize(c))
            elif c.is_one:
                parts.append(wstr)
            else:
                parts.append(f"{coeff_factor_str(c)}*{wstr}")
        return " + ".join(parts)


# ---------------------------------------------------------------------------
# matrices over an algebra, indexed by pairs of tensor legs
# ---------------------------------------------------------------------------

def mat_from_tensor(alg, tensor):
    """Lift a rank-4 coefficient tensor to a matrix of scalar elements."""
    return {key: alg.scalar(v) for key, v in tensor.entries.items()}


def mat_first_leg(alg, entries, n):
    """Matrix acting in the first leg: entries maps (i, j) -> Element."""
    out = {}
    for (i, j), el in entries.items():
        if el.is_zero:
            continue
        for k in range(1, n + 1):
            out[(i, k, j, k)] = el
    return out


def mat_mul(alg, a, b, n):
    by_row = {}
    for (i1, i2, j1, j2), el in b.items():
        by_row.setdefault((i1, i2), []).append(((j1, j2), el))
    prods = {}
    for (i1, i2, k1, k2), el in a.items():
        for (j, el2) in by_row.get((k1, k2), ()):
            prods.setdefault((i1, i2) + j, []).append(el * el2)
    return _sum_entries(alg, prods)


def mat_sum(alg, signed):
    """The sum of sign * mat over the (sign, mat) pairs of signed (sign
    +1 or -1), each entry summed once.  The keys come in order of first
    appearance: a left-to-right pairwise fold's order, unless a key
    cancels part-way and comes back (the fold moves it to the end)."""
    parts = {}
    for sign, mat in signed:
        for key, el in mat.items():
            parts.setdefault(key, []).append(el if sign > 0 else -el)
    return _sum_entries(alg, parts)


def _sum_entries(alg, parts):
    """One :func:`add_elements` per key of parts (key -> its Elements);
    an entry that sums to zero is left out."""
    return {key: el for key, els in parts.items()
            if not (el := add_elements(alg, els)).is_zero}


def mat_power(alg, mat, power):
    """Entrywise normal-ordered power (power >= 0) of an n x n matrix
    mat: (i, j) -> Element of alg, with n the rank of alg."""
    idx = range(1, alg.n + 1)
    out = {(i, j): (alg.one() if i == j else alg.zero())
           for i in idx for j in idx}
    for _ in range(power):
        nxt = {}
        for i in idx:
            for j in idx:
                nxt[(i, j)] = alg.normal_form(add_elements(
                    alg, [mat[(i, k)] * out[(k, j)] for k in idx]))
        out = nxt
    return out


def quantum_trace(alg, mat):
    """Tr(A Q^-): the weighted trace of an n x n matrix of alg's
    elements, normal ordered; central when A is a power of L."""
    return alg.normal_form(add_elements(
        alg, [mat[(i, i)].times_coeff_right(qminus(alg.n, i))
              for i in range(1, alg.n + 1)]))


def reflection_residual(alg, rmat, lmat_entries, n):
    """Componentwise reflection-equation residual for a first-leg matrix.

    Returns map (i1, i2, j1, j2) -> residual Element (not normal ordered):
    R L R L - L R L R - (R L - L R).
    """
    r12 = mat_from_tensor(alg, rmat)
    l1 = mat_first_leg(alg, lmat_entries, n)
    rl = mat_mul(alg, r12, l1, n)
    lr = mat_mul(alg, l1, r12, n)
    return mat_sum(alg, [(1, mat_mul(alg, rl, rl, n)),
                         (-1, mat_mul(alg, lr, lr, n)), (-1, rl), (1, lr)])


def braided_cross_residual(alg, rmat, m1_entries, m2_entries, n):
    """Componentwise residual R M1 R M2 - M2 R M1 R of the braided
    compatibility of two first-leg matrices (not normal ordered)."""
    r12 = mat_from_tensor(alg, rmat)
    m1 = mat_first_leg(alg, m1_entries, n)
    m2 = mat_first_leg(alg, m2_entries, n)
    lhs = mat_mul(alg, mat_mul(alg, mat_mul(alg, r12, m1, n), r12, n), m2, n)
    rhs = mat_mul(alg, mat_mul(alg, mat_mul(alg, m2, r12, n), m1, n), r12, n)
    return mat_sum(alg, [(1, lhs), (-1, rhs)])


def substitute(dst, terms, image):
    """Sum of c * image[g1] * ... * image[gk] in dst over the (c, word)
    pairs of terms (the form of a rewrite rule; an element's are
    ``(c, w) for w, c in el.terms.items()``); not normal ordered."""
    out = []
    for c, word in terms:
        acc = dst.scalar(c)
        for g in word:
            acc = acc * image[g]
        out.append(acc)
    return add_elements(dst, out)


def residual_failures(identity, residuals):
    """The failures, in key order, of the residuals (key -> Element) as
    decided by :func:`hdeform.report.expect`: each is normal-ordered and
    must be zero."""
    failures = []
    for key in sorted(residuals):
        expect(failures, identity, key, residuals[key].normal_form())
    return failures


def overlap_triples(alg, gens):
    """The overlap ambiguities of the rewrite system on gens: the triples
    abc, in product order, for which both ab and bc need a rewrite (a == b
    included where a square rewrites).

    These are the only triples whose two bracketings can differ.  Normal
    ordering is the linear map fixed by rewriting the leftmost descent,
    and every rule's right-hand side is ordered, so when ab or bc is
    ordered both bracketings reduce along the same path.
    """
    return [(a, b, c) for a, b, c in itertools.product(gens, repeat=3)
            if alg.needs_rewrite(a, b) and alg.needs_rewrite(b, c)]


def associativity_failures(alg, triples):
    """Degree-3 oracle: for each generator triple both bracketings must
    normal-order identically.

    Each triple is decided by one residual, the normal form of
    ``nf(e1 e2) e3 - e1 nf(e2 e3)``: the words the two bracketings share
    cancel and are rewritten once, and a failure records the nonzero
    residual as lhs and "0" as rhs.  Each generator pair's product is
    normal-ordered once per call.

    Run over :func:`overlap_triples`, a pass covers every triple, since
    the others agree by construction: it is the degree-3 confluence test
    of Bergman's diamond lemma, given termination.  Termination is not
    proved here: :func:`hdeform.dra.rewrite_graph_cycle` finds no cycle
    on the words it searches, which the tests take to degree 3, and to
    degree 4 at n = 2 only.  Bergman states the lemma over a central
    base ring; here coefficients cross generators by shift automorphisms
    instead.
    """
    nf = alg.normal_form
    gen = alg.gen_element
    pairs = {}      # (g1, g2) -> nf(g1 g2), for this call only

    def pair_nf(a, b):
        p = pairs.get((a, b))
        if p is None:
            p = pairs[a, b] = nf(gen(a) * gen(b))
        return p

    failures = []
    for g1, g2, g3 in triples:
        expect(failures, "associativity_oracle", (g1, g2, g3),
               nf(pair_nf(g1, g2) * gen(g3) - gen(g1) * pair_nf(g2, g3)))
    return failures
