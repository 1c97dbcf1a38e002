"""Generic noncommutative term algebra over the coefficient ring.

Elements are finite sums of (coefficient, word) pairs with the
coefficient written on the LEFT of the word.  Generators carry weights;
moving a coefficient f from the right of a generator g of weight w to
its left replaces f by f[w], i.e.  g * f == f[w]... more precisely

    f * g == g * f[w]      and      g * f == f[-w] * g.

Concrete algebras supply the generator set, the weight map and the
exchange (rewrite) rules; :meth:`TermAlgebra.normal_form` repeatedly
rewrites the leftmost out-of-order adjacent generator pair until every
word is ordered, merging equal words as it goes.
"""

from __future__ import annotations

import itertools
import os

from . import coeffs
from .coeffs import RatFun, serialize
from .errors import ResourceLimitError, RewriteLimitError
from .report import failure

_STEP_LIMIT = int(os.environ.get("HDEFORM_MAX_REWRITES", "0") or 0) or 20_000_000


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

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    def weight_decomposition(self):
        """Map from word weight to the sub-element of that weight."""
        out = {}
        for w, c in self.terms.items():
            out.setdefault(self.alg.word_weight(w), {})[w] = c
        return {wt: Element(self.alg, t) for wt, t in out.items()}

    # -- linear operations ----------------------------------------------------

    def __add__(self, other):
        if other.alg.signature != self.alg.signature:
            raise ValueError("algebra mismatch")
        res = dict(self.terms)
        for w, c in other.terms.items():
            s = res.get(w)
            s = c if s is None else s + c
            if s.is_zero:
                res.pop(w, None)
            else:
                res[w] = s
        return Element(self.alg, res)

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

    def times_int(self, k):
        if k == 0:
            return self.alg.zero()
        kc = RatFun.const(self.alg.n, k)
        return Element(self.alg, {w: c * kc for w, c in self.terms.items()})

    # -- multiplication --------------------------------------------------------

    def __mul__(self, other):
        """Concatenation product; the result is NOT normal ordered."""
        if not isinstance(other, Element):
            return NotImplemented
        if other.alg.signature != self.alg.signature:
            raise ValueError("algebra mismatch")
        alg = self.alg
        res = {}
        for w1, c1 in self.terms.items():
            cross = tuple(-x for x in alg.word_weight(w1))
            for w2, c2 in other.terms.items():
                nw = w1 + w2
                nc = c1 * c2.shift(cross)
                s = res.get(nw)
                s = nc if s is None else s + nc
                if s.is_zero:
                    res.pop(nw, None)
                else:
                    res[nw] = s
        return Element(alg, res)

    def normal_form(self):
        return self.alg.normal_form(self)

    # -- printing ---------------------------------------------------------------

    def __str__(self):
        return self.alg.element_str(self)

    def __repr__(self):
        return f"<{type(self.alg).__name__} element {self.alg.element_str(self)}>"


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

    # subclasses implement:
    #   weight(gen) -> tuple[int, ...]
    #   needs_rewrite(g1, g2) -> bool
    #   pair_rule(g1, g2) -> list[(RatFun, word-tuple)]
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
        out = {}
        pending = dict(el.terms)
        steps = 0
        while pending:
            word, coeff = pending.popitem()
            pos = -1
            for p in range(len(word) - 1):
                if self.needs_rewrite(word[p], word[p + 1]):
                    pos = p
                    break
            if pos < 0:
                s = out.get(word)
                s = coeff if s is None else s + coeff
                if s.is_zero:
                    out.pop(word, None)
                else:
                    out[word] = s
                continue
            steps += 1
            if steps > _STEP_LIMIT:
                raise RewriteLimitError(
                    f"normal ordering exceeded {_STEP_LIMIT} rewrite steps")
            prefix = word[:pos]
            suffix = word[pos + 2:]
            cross = tuple(-x for x in self.word_weight(prefix))
            for rc, repl in self.pair_rule(word[pos], word[pos + 1]):
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
        return Element(self, out)

    # -- printing ---------------------------------------------------------------------

    def element_str(self, el):
        if not el.terms:
            return "0"
        parts = []
        for word in sorted(el.terms):
            c = el.terms[word]
            wstr = "*".join(self.gen_str(g) for g in word)
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
    out = {}
    for (i1, i2, k1, k2), el in a.items():
        for (j, el2) in by_row.get((k1, k2), ()):
            key = (i1, i2) + j
            prod = el * el2
            acc = out.get(key)
            out[key] = prod if acc is None else acc + prod
    return {k: v for k, v in out.items() if not v.is_zero}


def mat_add(a, b):
    out = dict(a)
    for key, el in b.items():
        acc = out.get(key)
        out[key] = el if acc is None else acc + el
    return {k: v for k, v in out.items() if not v.is_zero}


def mat_sub(a, b):
    out = dict(a)
    for key, el in b.items():
        acc = out.get(key)
        out[key] = -el if acc is None else acc - el
    return {k: v for k, v in out.items() if not v.is_zero}


def reflection_residual(alg, rmat, lmat_entries, n):
    """Componentwise reflection-equation residual for a first-leg matrix.

    Returns map (i1, i2, j1, j2) -> residual Element (not normal ordered):
    R L R L - L R L R - (R L - L R).
    """
    r12 = mat_from_tensor(alg, rmat)
    l1 = mat_first_leg(alg, lmat_entries, n)
    rl = mat_mul(alg, r12, l1, n)
    lr = mat_mul(alg, l1, r12, n)
    lhs = mat_sub(mat_mul(alg, rl, rl, n), mat_mul(alg, lr, lr, n))
    rhs = mat_sub(rl, lr)
    return mat_sub(lhs, rhs)


def braided_cross_residual(alg, rmat, m1_entries, m2_entries, n):
    """Componentwise residual R M1 R M2 - M2 R M1 R of the braided
    compatibility of two first-leg matrices (not normal ordered)."""
    r12 = mat_from_tensor(alg, rmat)
    m1 = mat_first_leg(alg, m1_entries, n)
    m2 = mat_first_leg(alg, m2_entries, n)
    lhs = mat_mul(alg, mat_mul(alg, mat_mul(alg, r12, m1, n), r12, n), m2, n)
    rhs = mat_mul(alg, mat_mul(alg, mat_mul(alg, m2, r12, n), m1, n), r12, n)
    return mat_sub(lhs, rhs)


def substitute(dst, terms, image):
    """Sum of c * image[g1] * ... * image[gk] in dst over the (c, word)
    pairs of terms (the form of a rewrite rule; an element's are
    ``(c, w) for w, c in el.terms.items()``); not normal ordered."""
    out = dst.zero()
    for c, word in terms:
        acc = dst.scalar(c)
        for g in word:
            acc = acc * image[g]
        out = out + acc
    return out


def residual_failures(identity, residuals):
    """One failure per residual (key -> Element) that does not
    normal-order to zero, in key order."""
    failures = []
    for key in sorted(residuals):
        nf = residuals[key].normal_form()
        if not nf.is_zero:
            failures.append(failure(identity, key, nf))
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

    Run over :func:`overlap_triples`, a pass covers every triple, since
    the others agree by construction: it is the degree-3 confluence test
    of Bergman's diamond lemma, given termination, which
    :func:`hdeform.dra.rewrite_graph_cycle` certifies separately.
    Bergman states the lemma over a central base ring; here coefficients
    cross generators by shift automorphisms instead.
    """
    nf = alg.normal_form
    failures = []
    for g1, g2, g3 in triples:
        e1, e2, e3 = (alg.gen_element(g) for g in (g1, g2, g3))
        left = nf(nf(e1 * e2) * e3)
        right = nf(e1 * nf(e2 * e3))
        if left != right:
            failures.append(failure("associativity_oracle", (g1, g2, g3),
                                    left, right))
    return failures
