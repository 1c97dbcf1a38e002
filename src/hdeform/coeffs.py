"""Exact arithmetic in the localized Cartan coefficient ring.

Elements are rational functions in the shifted Cartan variables
h1, ..., hn with arbitrary-precision integer arithmetic throughout; no
floating point anywhere.  A :class:`RatFun` is stored as

    content * l1^a1 * ... * lr^ar * cof / (dint * f1^m1 * ... * fk^mk)

with ``content`` a signed integer (the integer content of the
numerator), the ``li`` distinct linear forms ``h_i - h_j + k`` (i < j)
or ``h_i + k`` of the family the algebra inverts, ``cof`` one primitive
cofactor polynomial with positive grlex-leading coefficient (often 1;
the bracket of a sum stays in it unsplit, but a value built once and
multiplied many times, such as an exchange-tensor entry or an extracted
rewrite-rule coefficient, is split at build by :meth:`RatFun.split`, so
its cofactor has no factor of the family), ``dint`` a positive integer
coprime to the content and the ``fi`` distinct primitive linear forms
with positive leading coefficient.  Numerator and denominator are
coprime, so no form is on both sides, and the factors are kept in one
map ``fac`` from factor key to signed multiplicity: ``fac[li] = ai``
and ``fac[fi] = -mi``.  The numerator is expanded only where its terms
are needed: ``+``, :func:`serialize`, ``==`` on unequal maps and the
term guard; the expansion is not kept.

The ring is localized at linear forms only.  Denominators are split by
:func:`_linear_family_factors`, which finds every factor of the family
whatever its offset: for each family (i, j) the kernel maps its forms
to t + k by a unimodular substitution and gives the univariate slices
in t of the polynomial's image, and the common integer roots of the
slices are the only offsets tried, so the result does not depend on the
order of the polynomial's terms.  What is left may be one more linear
form outside the family (Gauss-Jordan rule extraction inverts pivots
such as ``2*h1-h2-h3-1``), and a left-over factor of degree 2 or more
raises :class:`CoefficientError`.  So every denominator factor is a
primitive linear form, numerator and denominator are coprime, and the
form is canonical: equal values have equal denominators and equal
expanded numerators, and serialize to the same text.

Arithmetic works on the maps and trial-divides only what can cancel.
The rules rest on two facts: a primitive linear form is prime in Z[h],
and no denominator factor of a stored value divides its numerator.  A
linear factor divides a numerator exactly as often as its multiplicity
in the map plus as often as it divides the cofactor, so only a
non-constant cofactor is ever trial-divided:

* ``a * b``: one map is copied and the other's multiplicities are added
  into it, so a denominator factor cancels against the other operand's
  numerator factor in the sum of exponents.  A factor of one operand's
  denominator alone that is still negative after the sum is then tried
  against the other operand's cofactor unless that is 1; a factor both
  denominators share divides neither numerator, so not their product.
* ``a1 + ... + ak`` (:func:`add_many`; ``a + b`` is its two-term
  case, and :func:`add_part` / :func:`sum_parts` keep the parts of many
  keyed sums, such as a tensor contraction, until each is summed): the
  numerator factors every summand shares stay outside the bracket, which
  is one weighted sum (``K.p_lincomb``) of the summands over the common
  denominator, each a stored product (``K.p_fac_product``) if its
  cofactor is 1.  When one summand alone carries a factor f at its top
  multiplicity, its expanded numerator is prime to f while every other
  one has f as a factor, so f cannot divide the sum; only factors that
  two or more summands carry at their top multiplicity are tried
  against the bracket, once.
* ``inverse``: every multiplicity changes sign, except that a
  denominator form outside the family moves into the new cofactor (the
  map's numerator holds forms of the family only); only the old
  cofactor is split, and none of the new factors can divide the old
  denominator, a product of linear forms that do not divide the old
  numerator.

Trial division divides a candidate only when its value at each of the
kernel's probe points divides the polynomial's value there: a true
factor's value always does, since ``b | a`` in Z[h] implies
``b(pt) | a(pt)`` at every integer point.

The kernel owns the layout of a monomial and of a factor key, and the
coordinates a polynomial is stored in (``x_i = h_i - h_n``, so that a
function of differences is short); this module works on keys and
multiplicities only, and its polynomials are opaque.  It decides which
keys to multiply out (stored by ``K.p_fac_product`` in a sum; else
``K.p_mul_family`` or ``K.p_mul``) and which to try (``K.p_cancel``).
A key is an int interned per process in first-use order, so every sort
of keys here goes by the key's canonical tuple (``K.fac_tuple``) and no
output depends on an id.

``shift``, ``permute`` and ``negate_h`` are ring automorphisms that map
linear forms to linear forms and the family onto itself: sigma(f)
divides sigma(num) only if f divides num, so they try no factor at all;
they map each factor key, fold sign changes into the content and map
the cofactor.

The ring also carries the three automorphism families used everywhere:
integer shifts of the variables, the shifted Weyl (permutation) action
and global sign reversal of the variables.
"""

from __future__ import annotations

import operator
import os
from fractions import Fraction
from math import gcd

from . import kernel as K
from .errors import (CoefficientError, ParseError, ResourceLimitError,
                     UsageError)
from .store import stored


def env_limit(name):
    """The size limit in the environment variable name: a nonnegative
    integer, 0 (unlimited) when unset or empty."""
    text = os.environ.get(name, "").strip() or "0"
    if not text.isdecimal():
        raise UsageError(f"{name} must be a nonnegative integer, not {text!r}")
    return int(text)


_MAX_TERMS = env_limit("HDEFORM_MAX_TERMS")


def set_term_limit(limit):
    """Set the per-polynomial term guard (0 disables it)."""
    global _MAX_TERMS
    _MAX_TERMS = int(limit)


def _guard(f):
    """Check the expanded numerator's term count; expands only when a
    limit is set."""
    if _MAX_TERMS:
        size = len(f.num)
        if size > _MAX_TERMS:
            raise ResourceLimitError(
                f"polynomial exceeds HDEFORM_MAX_TERMS={_MAX_TERMS} "
                f"({size} terms)")
    return f


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def eps(n, i):
    """The weight vector epsilon_i (1-based i) of rank n."""
    w = [0] * n
    w[i - 1] = 1
    return tuple(w)


# ---------------------------------------------------------------------------
# factors
# ---------------------------------------------------------------------------

# the helpers that do no arithmetic are bound once; the arithmetic goes
# through ``K.`` so that a wrapper on the kernel module sees every product,
# sum, substitution and division.  A stored cofactor is primitive with
# positive lead, so a constant one is 1 (_p_is_const).
_p_one, _p_is_const, _p_degree, _p_str = (
    K.p_one, K.p_is_const, K.p_degree, K.p_str)
_fac_key, _fac_family, _fac_poly, _fac_form = (
    K.fac_key, K.fac_family, K.fac_poly, K.fac_form)
_fac_shift, _fac_permute, _fac_negate, _fac_tuple = (
    K.fac_shift, K.fac_permute, K.fac_negate, K.fac_tuple)


def _by_form(item):
    """The sort key of a (factor key, value) pair: the key's canonical
    tuple, never its id."""
    return _fac_tuple(item[0])


def _is_family(key):
    """True for the key of h_i + k or h_i - h_j + k (i < j)."""
    return _fac_family(key) is not None


def _expand(c, cof, facs):
    """c * cof * the product of the (key, multiplicity) pairs facs."""
    poly = cof if c == 1 else {e: c * v for e, v in cof.items()}
    for key, m in facs:
        if _is_family(key):
            poly = K.p_mul_family(poly, key, m)
        else:
            form = _fac_poly(key)
            for _ in range(m):
                poly = K.p_mul(poly, form)
    return poly


# ---------------------------------------------------------------------------
# the factor search
# ---------------------------------------------------------------------------

def _horner(a, x):
    v = 0
    for c in reversed(a):
        v = v * x + c
    return v


def _root_brackets(a, lo, hi):
    """Integers t in [lo, hi) such that every real root in [lo, hi] of
    sum a[k] x^k (degree >= 1) lies in one of the intervals [t, t + 1].

    Between the brackets of the derivative's roots the polynomial is
    strictly monotonic, so each such piece holds at most one root, found
    by bisection; the derivative's brackets are kept too, since a
    multiple root lies in one of them.
    """
    if len(a) == 2:
        t = -a[0] // a[1]                   # the floor of the root
        return [min(t, hi - 1)] if lo <= t <= hi else []
    crit = _root_brackets([k * c for k, c in enumerate(a)][1:], lo, hi)
    out = set(crit)
    points = sorted({lo, hi, *crit, *(t + 1 for t in crit)})
    for x0, x1 in zip(points, points[1:]):
        v0, v1 = _horner(a, x0), _horner(a, x1)
        if v0 == 0:
            out.add(x0)
        if v1 == 0:
            out.add(x1 - 1)
        if v0 and v1 and (v0 < 0) != (v1 < 0):
            while x1 - x0 > 1:
                mid = (x0 + x1) // 2
                vm = _horner(a, mid)
                if vm == 0:
                    x0, x1 = mid, mid + 1
                elif (vm < 0) == (v0 < 0):
                    x0 = mid
                else:
                    x1 = mid
            out.add(x0)
    return sorted(out)


def _integer_roots(slices):
    """Integer candidates r for a root t = r of every univariate slice
    (dicts from power of t to coefficient).

    The candidates are the common roots of the slices of least degree
    span, in any order of the slices: 0 when t divides them, and the
    integers at the ends of the root brackets of one's quotient by its
    power of t, within Cauchy's bound 1 + max |a_k / a_d|, at which they
    vanish.  The bisection makes the cost logarithmic in the offsets.
    """
    if not slices or any(max(sl) == 0 for sl in slices):
        return []                           # none, or a slice free of t
    span = min(max(sl) - min(sl) for sl in slices)
    least = [sl for sl in slices if max(sl) - min(sl) == span]
    sl, lo = least[0], min(least[0])
    roots = [0] if lo > 0 else []
    a = [sl.get(e, 0) for e in range(lo, lo + span + 1)]  # a[0] != 0 != a[-1]
    if len(a) > 1:
        bound = 1 - (-max(map(abs, a[:-1])) // abs(a[-1]))
        roots += sorted({x for t in _root_brackets(a, -bound, bound)
                         for x in (t, t + 1) if _horner(a, x) == 0})
    return [x for x in roots
            if all(sum(c * x ** e for e, c in other.items()) == 0
                   for other in least[1:])]


def _linear_family_factors(n, poly):
    """Split off every factor ``h_i + k`` / ``h_i - h_j + k``, k any integer.

    Returns (remaining cofactor, sorted list of (factor_key, multiplicity)).
    For each variable h_i, and for each pair i < j, the kernel's
    :func:`~hdeform.kernel.p_family_slices` takes the forms of the pair
    to t + k by a unimodular substitution and gives the univariate
    slices in t of the cofactor's image; the candidates are their common
    integer roots, found by :func:`_integer_roots`, and each is confirmed
    by exact division, repeated for its multiplicity.  No candidate is
    missed, so the remaining cofactor has no factor of the family, and
    the result does not depend on the order of the cofactor's terms.
    """
    found = {}
    rem = poly
    for i in range(n):
        for j in [None] + list(range(i + 1, n)):
            if _p_is_const(rem):
                return rem, sorted(found.items(), key=_by_form)
            for r in _integer_roots(K.p_family_slices(n, rem, i, j)):
                key = _fac_form(n, i, j, -r)
                q = K.p_divexact(rem, key)
                while q is not None:
                    found[key] = found.get(key, 0) + 1
                    rem = q
                    q = K.p_divexact(rem, key)
    return rem, sorted(found.items(), key=_by_form)


def _split_denominator(n, den):
    """Split a nonzero denominator polynomial into (dint, factor list):
    its content and sign go to dint, its factors of the family are split
    off, and a linear cofactor is kept as one more factor.  A cofactor of
    higher degree has no inverse in the ring: CoefficientError."""
    c, sign, prim = K.p_primitive_sign(den)
    rem, facs = _linear_family_factors(n, prim)
    if not _p_is_const(rem):
        if _p_degree(n, rem) > 1:
            # a product of forms outside the family is not split
            raise CoefficientError(
                f"denominator factor {_p_str(n, rem)} is not linear; write "
                "linear forms outside the family one by one, as in "
                "1/(h1+h2)/(2*h1-h2-1)")
        facs = facs + [(_fac_key(n, rem), 1)]
    return c * sign, facs


def _cancel(cof, fac, own, other):
    """Trial-divide cof, the cofactor of the operand with map own, by the
    denominator factors of fac that the map other alone brought, each at
    most its multiplicity; fac is raised in place.  Returns the quotient."""
    left = {key: -fac[key] for key, m in other.items()
            if m < 0 and own.get(key, 0) >= 0 and fac.get(key, 0) < 0}
    if left:
        keys = list(left)
        cof = K.p_cancel(cof, left)
        for key in keys:
            if key in left:
                fac[key] = -left[key]
            else:
                del fac[key]
    return cof


class RatFun:
    """Immutable exact rational function over the h-variables.

    ``fac`` maps each factor key to its signed multiplicity: positive
    for a numerator form of the family, negative for a denominator form
    (see the module docstring).  The map is shared between values and
    never changed once stored; ``nfac`` and ``dfac`` are its sorted
    numerator and denominator views.
    """

    __slots__ = ("n", "content", "fac", "cof", "dint")

    def __init__(self, n, content, fac, cof, dint):
        self.n = n
        self.content = content
        self.fac = fac
        self.cof = cof
        self.dint = dint

    # -- construction -------------------------------------------------------

    @classmethod
    def _new(cls, n, content, fac, cof, dint):
        """The stored form of content * fac * cof / dint, given a map of
        the caller's own and cof primitive with positive lead: a cofactor
        of the family moves into the map and the content's common divisor
        with dint cancels."""
        if not content:
            return cls.zero(n)
        if len(cof) <= 3 and not _p_is_const(cof) and _p_degree(n, cof) == 1:
            key = _fac_key(n, cof)
            if _is_family(key):
                fac[key] = fac.get(key, 0) + 1
                cof = _p_one(n)
        g = gcd(content, dint)
        if g > 1:
            content //= g
            dint //= g
        return _guard(cls(n, content, fac, cof, dint))

    @classmethod
    def zero(cls, n):
        return cls(n, 0, {}, _p_one(n), 1)

    @classmethod
    def const(cls, n, value):
        if isinstance(value, Fraction):
            return cls._new(n, value.numerator, {}, _p_one(n),
                            value.denominator)
        value = int(value)
        if not value:
            return cls.zero(n)
        return cls(n, value, {}, _p_one(n), 1)

    @classmethod
    def var(cls, n, i):
        """h_i (1-based)."""
        if not 1 <= i <= n:
            raise CoefficientError(f"variable index {i} out of range 1..{n}")
        key = _fac_form(n, i - 1, None, 0)
        return cls(n, 1, {key: 1}, _p_one(n), 1)

    @classmethod
    def from_poly(cls, n, num, den=None):
        """Build num/den from raw integer polynomials; every denominator
        factor is tried against num."""
        if den is not None and not den:
            raise CoefficientError("zero denominator")
        if not num:
            return cls.zero(n)
        c, sign, cof = K.p_primitive_sign(num)
        content, dint, fac = c * sign, 1, {}
        if den is not None and den != _p_one(n):
            dint, items = _split_denominator(n, den)
            facs = dict(items)
            if dint < 0:
                content, dint = -content, -dint
            cof = K.p_cancel(cof, facs)
            fac = {key: -m for key, m in facs.items()}
        return cls._new(n, content, fac, cof, dint)

    # -- views --------------------------------------------------------------

    @property
    def nfac(self):
        """The numerator factors, sorted (key, multiplicity) pairs."""
        return tuple(sorted((item for item in self.fac.items() if item[1] > 0),
                            key=_by_form))

    @property
    def dfac(self):
        """The denominator factors, sorted (key, multiplicity) pairs."""
        return tuple(sorted(((key, -m) for key, m in self.fac.items()
                             if m < 0), key=_by_form))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.content

    @property
    def is_one(self):
        return self.content == 1 and self.dint == 1 and self._is_constant

    @property
    def _is_unit(self):
        """True for +1 and -1."""
        return (not self.fac and self.dint == 1 and self.content in (1, -1)
                and _p_is_const(self.cof))

    @property
    def _is_constant(self):
        """True for a rational constant, zero included: every automorphism
        fixes it."""
        return not self.fac and _p_is_const(self.cof)

    @property
    def num(self):
        """The expanded numerator polynomial, built on each access."""
        if not self.content:
            return {}
        poly = _expand(self.content, self.cof,
                       [item for item in self.fac.items() if item[1] > 0])
        return dict(poly) if poly is self.cof else poly

    def is_unit_in_localization(self):
        """True when both numerator and denominator are (up to a rational
        constant) products of the inverted linear forms: every denominator
        factor is of the family and the numerator's cofactor splits into
        factors of the family."""
        if self.is_zero or not all(_is_family(key) for key, m
                                   in self.fac.items() if m < 0):
            return False
        return _p_is_const(self.split().cof)

    def split(self):
        """The same value with every family factor of its cofactor moved
        into the map, found by :func:`_linear_family_factors`.  Meant for
        values built once and multiplied many times: a product cancels
        their factors in the sum of exponents instead of trial-dividing
        the cofactor.  A value whose cofactor has no such factor comes
        back as it is."""
        if _p_is_const(self.cof):
            return self
        cof, facs = _linear_family_factors(self.n, self.cof)
        if not facs:
            return self
        fac = dict(self.fac)
        for key, m in facs:
            fac[key] = fac.get(key, 0) + m
        return RatFun(self.n, self.content, fac, cof, self.dint)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if isinstance(other, RatFun):
            if other.n != self.n:
                raise CoefficientError("rank mismatch between coefficients")
            return other
        if isinstance(other, (int, Fraction)):
            return RatFun.const(self.n, other)
        return NotImplemented

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return add_many(self.n, (self, other))

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return RatFun(self.n, -self.content, self.fac, self.cof, self.dint)

    def __sub__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if not (self.content and other.content):
            return RatFun.zero(self.n)
        # rule coefficients are mostly +-1: no arithmetic for a unit
        if other._is_unit:
            return self if other.content == 1 else -self
        if self._is_unit:
            return other if self.content == 1 else -other
        fa, fb = self.fac, other.fac
        fac = dict(fa)
        for key, m in fb.items():
            s = fac.get(key, 0) + m
            if s:
                fac[key] = s
            else:
                del fac[key]
        ca, cb = self.cof, other.cof
        if not _p_is_const(ca):
            ca = _cancel(ca, fac, fa, fb)
        if not _p_is_const(cb):
            cb = _cancel(cb, fac, fb, fa)
        cof = (ca if _p_is_const(cb) else cb if _p_is_const(ca)
               else K.p_mul(ca, cb))
        return RatFun._new(self.n, self.content * other.content, fac, cof,
                           self.dint * other.dint)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise CoefficientError("division by zero coefficient")
        n = self.n
        fac, rest = {}, []      # rest: denominator forms outside the family
        for key, m in self.fac.items():
            if m > 0 or _is_family(key):
                fac[key] = -m
            else:
                rest.append((key, -m))
        cof = _expand(1, _p_one(n), rest)
        if not _p_is_const(self.cof):
            for key, m in _split_denominator(n, self.cof)[1]:
                fac[key] = fac.get(key, 0) - m
        sign = 1 if self.content > 0 else -1
        return RatFun._new(n, sign * self.dint, fac, cof, abs(self.content))

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        """self ** k by repeated squaring: about 2 log2|k| products."""
        if k < 0:
            return self.inverse() ** (-k)
        res = RatFun.const(self.n, 1)
        base = self
        while k:
            if k & 1:
                res = res * base
            k >>= 1
            if k:
                base = base * base
        return res

    def __eq__(self, other):
        """Value equality.  The stored form is canonical: equal
        denominators and equal expanded numerators."""
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.content != other.content or self.dint != other.dint:
            return False
        if self.fac == other.fac and self.cof == other.cof:
            return True
        return self.dfac == other.dfac and self.num == other.num

    # -- automorphisms ------------------------------------------------------

    def _map(self, key_map, poly_map):
        """Apply a ring automorphism that maps the family onto itself:
        key_map(key) gives (sign, image key) for a factor (the kernel's
        fac_shift, fac_permute and fac_negate) and poly_map maps the
        cofactor."""
        sign, fac = 1, {}
        for key, m in self.fac.items():
            s, key = key_map(key)
            if s < 0 and m % 2:
                sign = -sign
            fac[key] = m
        cof = self.cof
        if not _p_is_const(cof):
            cof = poly_map(cof)
            if K.p_lead(cof)[1] < 0:
                sign, cof = -sign, K.p_neg(cof)
        return _guard(RatFun(self.n, sign * self.content, fac, cof,
                             self.dint))

    def shift(self, alpha):
        """f[alpha]: substitute h_i -> h_i + alpha_i."""
        if self._is_constant or not any(alpha):
            return self
        return self._map(lambda key: _fac_shift(key, alpha),
                         lambda p: K.p_shift(p, alpha))

    def permute(self, perm):
        """Shifted Weyl action: h_k -> h_{perm(k)}; perm is 1-based."""
        p0 = tuple(x - 1 for x in perm)
        if sorted(p0) != list(range(self.n)):
            raise CoefficientError("not a permutation of 1..n")
        if self._is_constant:
            return self
        return self._map(lambda key: _fac_permute(key, p0),
                         lambda p: K.p_permute(p, p0))

    def negate_h(self):
        """Global sign reversal h_i -> -h_i."""
        if self._is_constant:
            return self
        return self._map(_fac_negate, lambda p: K.p_negate(self.n, p))

    # -- evaluation ---------------------------------------------------------

    def eval(self, point):
        """Exact evaluation at an integer point of n coordinates; Fraction
        result."""
        if len(point) != self.n:
            raise CoefficientError(
                f"a point of rank {self.n} has {self.n} coordinates, not "
                f"{len(point)}")
        num, den = self.content * K.p_eval(self.cof, point), self.dint
        for key, m in self.fac.items():
            if m > 0:
                num *= K.p_eval(_fac_poly(key), point) ** m
            else:
                den *= K.p_eval(_fac_poly(key), point) ** -m
        if den == 0:
            raise CoefficientError("evaluation at a denominator zero")
        return Fraction(num, den)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return f"RatFun({self.n}, {serialize(self)!r})"


def add_many(n, terms):
    """The sum of the coefficients terms, all of rank n, over one common
    denominator.

    The denominator is the lcm of the dints times each factor at its
    largest multiplicity; the numerator factors every summand has stay
    outside the bracket.  Each summand is expanded once over that
    denominator, the bracket is made primitive once, and only the
    factors that two or more summands carry at their top multiplicity
    are tried against it (see the module docstring).  A single nonzero
    summand comes back as it is.
    """
    terms = [t for t in terms if t.content]
    if len(terms) < 2:
        return terms[0] if terms else RatFun.zero(n)
    dint = 1
    facs, top = {}, {}      # key -> top multiplicity, summands holding it
    for t in terms:
        dint = dint * t.dint // gcd(dint, t.dint)
        for key, m in t.fac.items():
            if m < 0:
                old = facs.get(key, 0)
                if -m > old:
                    facs[key], top[key] = -m, 1
                elif -m == old:
                    top[key] += 1
    common = {key: m for key, m in terms[0].fac.items() if m > 0}
    for t in terms[1:]:
        if not common:
            break
        fac = t.fac
        common = {key: min(m, fac[key]) for key, m in common.items()
                  if fac.get(key, 0) > 0}

    parts = []
    for t in terms:
        fac = t.fac
        # numerator over common, then denominator up to facs: a key may repeat
        over = [(key, m - common.get(key, 0)) for key, m in fac.items()
                if m > common.get(key, 0)]
        for key, m in facs.items():
            m += min(fac.get(key, 0), 0)
            if m:
                over.append((key, m))
        parts.append((dint // t.dint * t.content,
                      K.p_fac_product(over) if over and _p_is_const(t.cof)
                      else _expand(1, t.cof, over)))
    bracket = K.p_lincomb(parts)
    if not bracket:
        return RatFun.zero(n)
    c, sign, cof = K.p_primitive_sign(bracket)
    trial = {key: facs.pop(key) for key, k in top.items() if k > 1}
    if trial and not _p_is_const(cof):
        cof = K.p_cancel(cof, trial)
    facs.update(trial)
    for key, m in facs.items():
        common[key] = -m
    return RatFun._new(n, c * sign, common, cof, dint)


def add_part(acc, more, key, c):
    """Record c as a part of the sum kept under key: the first part goes
    to acc[key], any further ones to the list more[key].  With
    :func:`sum_parts` this is the package's one keyed accumulator."""
    if key in acc:
        more.setdefault(key, []).append(c)
    else:
        acc[key] = c


def sum_parts(n, acc, more):
    """Sum the parts of each key of more into acc, one :func:`add_many`
    per key; a key whose sum is zero is dropped.  Returns acc."""
    for key, rest in more.items():
        c = add_many(n, [acc[key], *rest])
        if c.is_zero:
            del acc[key]
        else:
            acc[key] = c
    return acc


# ---------------------------------------------------------------------------
# special elements of the coefficient ring
# ---------------------------------------------------------------------------

@stored
def hdiff(n, i, j):
    """h_ij = h_i - h_j."""
    return RatFun.var(n, i) - RatFun.var(n, j)


@stored
def phi(n, j):
    """prod_{k > j} h_jk / (h_jk - 1); empty product is 1."""
    return phi_segment(n, j, n + 1)


@stored
def phi_prime(n, j):
    """prod_{k < j} h_jk / (h_jk - 1); empty product is 1."""
    res = RatFun.const(n, 1)
    for k in range(1, j):
        d = hdiff(n, j, k)
        res = res * d / (d - 1)
    return res


@stored
def phi_segment(n, j, m):
    """prod_{j < k < m} h_jk / (h_jk - 1); requires j < m."""
    if not j < m:
        raise CoefficientError("phi_segment requires j < m")
    res = RatFun.const(n, 1)
    for k in range(j + 1, m):
        d = hdiff(n, j, k)
        res = res * d / (d - 1)
    return res


@stored
def alpha_coeff(n, i, j):
    """(h_ij + 1) / h_ij for i != j."""
    if i == j:
        raise CoefficientError("alpha requires i != j")
    d = hdiff(n, i, j)
    return (d + 1) / d


@stored
def beta_coeff(n, i, j):
    """1/(1 - h_ij) * phi_j[eps_j] / phi_i."""
    one = RatFun.const(n, 1)
    pj = phi(n, j).shift(eps(n, j))
    if i == j:
        return pj / phi(n, i)
    return (one / (one - hdiff(n, i, j))) * pj / phi(n, i)


@stored
def mu_coeff(n, i):
    """-phi_i^{-1}."""
    return -(phi(n, i).inverse())


def _q_weight(n, i, step):
    """prod_{k != i} step(h_ik, 1) / h_ik, step being + or -."""
    res = RatFun.const(n, 1)
    for k in range(1, n + 1):
        if k != i:
            d = hdiff(n, i, k)
            res = res * step(d, 1) / d
    return res


@stored
def qplus(n, i):
    """prod_{k != i} (h_ik + 1) / h_ik."""
    return _q_weight(n, i, operator.add)


@stored
def qminus(n, i):
    """prod_{k != i} (h_ik - 1) / h_ik."""
    return _q_weight(n, i, operator.sub)


SPECIAL_BUILDERS = {
    "phi": phi,
    "phi_prime": phi_prime,
    "phi_segment": phi_segment,
    "alpha": alpha_coeff,
    "beta": beta_coeff,
    "mu": mu_coeff,
    "qplus": qplus,
    "qminus": qminus,
}


def special(name, indices, n):
    """Named special element dispatch; indices is a tuple of 1-based ints."""
    try:
        builder = SPECIAL_BUILDERS[name]
    except KeyError:
        raise CoefficientError(f"unknown special element {name!r}") from None
    for i in indices:
        if not 1 <= i <= n:
            raise CoefficientError(f"index {i} out of range 1..{n}")
    return builder(n, *indices)


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _den_str(n, dint, dfac):
    parts = []
    if dint != 1:
        parts.append(str(dint))
    for key, m in dfac:
        parts.append(_p_str(n, _fac_poly(key), (), True)
                     + (f"^{m}" if m > 1 else ""))
    if len(parts) > 1:
        # keep the whole denominator one parse unit
        return "(" + "*".join(parts) + ")"
    return parts[0]


def serialize(f):
    """Text form: expanded numerator over a factored denominator.  Equal
    values print the same text (the stored form is canonical)."""
    if f.is_zero:
        return "0"
    dfac = f.dfac
    over = f.dint != 1 or bool(dfac)
    num = _p_str(f.n, _expand(f.content, f.cof, ()),
                 [item for item in f.fac.items() if item[1] > 0], over)
    if not over:
        return num
    return f"{num}/{_den_str(f.n, f.dint, dfac)}"


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, n, text):
        self.n = n
        self.text = text
        self.pos = 0

    def error(self, msg):
        raise ParseError(msg, self.pos)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def peek(self):
        self.skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def expr(self):
        c = self.peek()
        if c == "+":
            self.pos += 1
            node = self.term()
        elif c == "-":
            self.pos += 1
            node = -self.term()
        else:
            node = self.term()
        while True:
            c = self.peek()
            if c == "+":
                self.pos += 1
                node = node + self.term()
            elif c == "-":
                self.pos += 1
                node = node - self.term()
            else:
                return node

    def term(self):
        node = self.factor()
        while True:
            c = self.peek()
            if c == "*":
                self.pos += 1
                node = node * self.factor()
            elif c == "/":
                at = self.pos
                self.pos += 1
                rhs = self.factor()
                if rhs.is_zero:
                    self.error("division by zero")
                node = self.invert_at(at, operator.truediv, node, rhs)
            else:
                return node

    def invert_at(self, at, op, *args):
        """op(*args), whose inverse may not exist in the ring: its
        CoefficientError becomes a ParseError at position at."""
        try:
            return op(*args)
        except CoefficientError as exc:
            self.pos = at
            self.error(str(exc))

    def factor(self):
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            at = self.pos
            self.pos += 1
            k = self.integer()
            base = self.invert_at(at, operator.pow, base, k)
        return base

    def atom(self):
        c = self.peek()
        if c == "(":
            self.pos += 1
            node = self.expr()
            if self.peek() != ")":
                self.error("expected ')'")
            self.pos += 1
            return node
        if c == "h":
            start = self.pos
            self.pos += 1
            i = self.unsigned()
            if not 1 <= i <= self.n:
                self.pos = start
                self.error(f"variable h{i} out of range for rank {self.n}")
            return RatFun.var(self.n, i)
        if c.isdigit():
            return RatFun.const(self.n, self.unsigned())
        self.error("expected a number, variable or '('")

    def unsigned(self):
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isdigit():
            self.pos += 1
        if start == self.pos:
            self.error("expected an integer")
        try:
            return int(self.text[start:self.pos])
        except ValueError:
            # a run longer than the interpreter's integer string limit
            digits = self.pos - start
            self.pos = start
            self.error(f"an integer of {digits} digits is too long")

    def integer(self):
        self.skip_ws()
        sign = 1
        if self.peek() == "-":
            self.pos += 1
            sign = -1
        return sign * self.unsigned()


def parse(n, text):
    """Parse a coefficient expression in variables h1..hn."""
    p = _Parser(n, text)
    node = p.expr()
    p.skip_ws()
    if p.pos != len(text):
        p.error("unexpected trailing input")
    return node
