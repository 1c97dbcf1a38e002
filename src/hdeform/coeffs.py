"""Exact arithmetic in the localized Cartan coefficient ring.

Elements are rational functions in the shifted Cartan variables
h1, ..., hn with arbitrary-precision integer arithmetic throughout; no
floating point anywhere.  A :class:`RatFun` is stored as

    num / (dint * f1^m1 * ... * fk^mk)

with ``num`` an integer polynomial, ``dint`` a positive integer and the
``fi`` distinct primitive non-constant polynomial factors with positive
grlex-leading coefficient.  Denominators produced by the algebra are
always products of linear forms ``h_i - h_j + k`` (or ``h_i + k``), so
keeping the factorization makes cancellation an exact division by a
known factor.  The form is canonical only when every linear factor's
offset ``k`` lies inside the window :func:`_linear_family_factors`
probes; a factor outside it can stay inside an unsplit polynomial, so
two equal values can be stored and serialized differently.  ``==``
compares values, and equal representations answer at once.  Factors
are found by trial division, and a candidate is divided only when its value at each
of the kernel's probe points divides the polynomial's value there: a
true factor's value always does, since ``b | a`` in Z[h] implies
``b(pt) | a(pt)`` at every integer point.

Arithmetic trial-divides only the denominator factors that can cancel.
The rules rest on two facts: a primitive linear form is prime in Z[h],
and no factor of a stored value divides its numerator.  They apply when
every factor of the operands is linear:

* ``a * b``: a factor of one operand alone can cancel only against the
  other operand's numerator, which is divided before the product is
  formed; a factor both share divides neither numerator, so it cannot
  divide their product.
* ``a + b``: over the common denominator, a factor whose multiplicities
  differ in a and b divides exactly one of the two summands, so it
  cannot divide the sum; only factors of equal multiplicity are tried.
* ``inverse``: the new factors come from the old numerator, and none of
  them can divide the old denominator, a product of linear forms that
  do not divide that numerator.

A non-linear factor is an unsplit cofactor and may be composite, so when
an operand of these three carries one, every factor is tried against
the full numerator.  ``shift``, ``permute`` and ``negate_h`` are ring
automorphisms: sigma(f) divides sigma(num) only if f divides num, so they
try no factor at all, whatever its degree; they only re-canonicalize the
factor keys and the content.

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
from .errors import CoefficientError, ParseError, ResourceLimitError

_MAX_TERMS = int(os.environ.get("HDEFORM_MAX_TERMS", "0") or 0)


def set_term_limit(limit):
    """Set the per-polynomial term guard (0 disables it)."""
    global _MAX_TERMS
    _MAX_TERMS = int(limit)


def _guard(poly):
    if _MAX_TERMS and len(poly) > _MAX_TERMS:
        raise ResourceLimitError(
            f"polynomial exceeds HDEFORM_MAX_TERMS={_MAX_TERMS} ({len(poly)} terms)")
    return poly


# ---------------------------------------------------------------------------
# weights
# ---------------------------------------------------------------------------

def eps(n, i):
    """The weight vector epsilon_i (1-based i) of rank n."""
    w = [0] * n
    w[i - 1] = 1
    return tuple(w)


# ---------------------------------------------------------------------------
# factored denominators
# ---------------------------------------------------------------------------

_fac_key = K.fac_key


def _fac_poly(key):
    return dict(key)


def _linear_family_factors(n, poly):
    """Split off factors ``h_i - h_j + k`` / ``h_i + k`` by trial division.

    Returns (remaining cofactor, list of (factor_key, multiplicity)).
    Only integer offsets within a window derived from the polynomial are
    probed; every denominator the formulas of this package generate is
    fully split by this.  The remainder is evaluated at ``K.PROBE_POINTS``
    once; a candidate's value there is ``pt[i] - pt[j] + k``, and only
    a candidate whose nonzero values all divide the remainder's values is
    divided.  After a division the values are divided by the candidate's,
    and only a point where the candidate vanishes is evaluated again.
    """
    deg = K.p_degree(poly)
    window = max(8, 2 * n + deg + 2)
    found = {}
    rem = poly
    candidates = []
    for i in range(n):
        for k in range(-window, window + 1):
            candidates.append((i, -1, k))          # h_i + k
        for j in range(n):
            if j == i:
                continue
            for k in range(-window, window + 1):
                if i < j:
                    candidates.append((i, j, k))   # h_i - h_j + k
    points = K.PROBE_POINTS if n <= len(K.PROBE_POINTS[0]) else ()
    values = [K.p_eval(rem, pt) for pt in points]
    for (i, j, k) in candidates:
        if K.p_is_const(rem):
            break
        fvals = [pt[i] - pt[j] + k if j >= 0 else pt[i] + k for pt in points]
        while all(v == 0 or val % v == 0 for v, val in zip(fvals, values)):
            fac = {tuple(1 if t == i else 0 for t in range(n)): 1}
            if j >= 0:
                fac[tuple(1 if t == j else 0 for t in range(n))] = -1
            if k:
                fac[(0,) * n] = k
            q = K.p_divexact(rem, fac)
            if q is None:
                break
            key = _fac_key(fac)
            found[key] = found.get(key, 0) + 1
            rem = q
            values = [val // v if v else K.p_eval(rem, pt)
                      for v, val, pt in zip(fvals, values, points)]
    return rem, sorted(found.items())


def _all_linear(keys):
    """True when every factor key is a linear form (the cancellation
    rules of the module docstring hold)."""
    return all(sum(key[0][0]) == 1 for key in keys)


def _split_denominator(n, den):
    """Split a nonzero denominator polynomial into (dint, factor list):
    its content and sign go to dint, its linear factors are split off,
    and a non-constant cofactor is kept as one more factor."""
    c, sign, prim = K.p_primitive_sign(den)
    rem, facs = _linear_family_factors(n, prim)
    dint = c * sign
    if not K.p_is_const(rem):
        facs = facs + [(_fac_key(rem), 1)]
    else:
        dint *= rem.get((0,) * n, 1) if rem else 1
    return dint, facs


class RatFun:
    """Immutable exact rational function over the h-variables."""

    __slots__ = ("n", "num", "dint", "dfac")

    def __init__(self, n, num, dint=1, dfac=()):
        self.n = n
        self.num = num
        self.dint = dint
        self.dfac = dfac

    # -- construction -------------------------------------------------------

    @classmethod
    def _build(cls, n, num, dint, dfac_items, trial=None):
        """Normalize (num, dint, factor multiset) into the stored form,
        trial-dividing the factors named in trial (None: every factor)."""
        if not num:
            return cls(n, {}, 1, ())
        if dint == 0:
            raise CoefficientError("zero denominator")
        num, dint, dfac = K.p_fraction_normalize(num, dint, dfac_items, trial)
        _guard(num)
        return cls(n, num, dint, dfac)

    @classmethod
    def zero(cls, n):
        return cls(n, {}, 1, ())

    @classmethod
    def const(cls, n, value):
        if isinstance(value, Fraction):
            return cls._build(n, K.p_const(n, value.numerator), value.denominator, ())
        return cls(n, K.p_const(n, int(value)), 1, ())

    @classmethod
    def var(cls, n, i):
        """h_i (1-based)."""
        if not 1 <= i <= n:
            raise CoefficientError(f"variable index {i} out of range 1..{n}")
        return cls(n, K.p_var(n, i - 1), 1, ())

    @classmethod
    def from_poly(cls, n, num, den=None):
        """Build num/den from raw integer polynomials."""
        if den is None or den == K.p_const(n, 1):
            return cls._build(n, num, 1, ())
        if not den:
            raise CoefficientError("zero denominator")
        return cls._build(n, num, *_split_denominator(n, den))

    # -- predicates ---------------------------------------------------------

    @property
    def is_zero(self):
        return not self.num

    @property
    def is_one(self):
        return (self.dint == 1 and not self.dfac
                and self.num == K.p_const(self.n, 1))

    def is_unit_in_localization(self):
        """True when both numerator and denominator are (up to a rational
        constant) products of the inverted linear forms."""
        if self.is_zero:
            return False
        _, _, prim = K.p_primitive_sign(self.num)
        rem, _ = _linear_family_factors(self.n, prim)
        return K.p_is_const(rem)

    # -- arithmetic ---------------------------------------------------------

    def _check(self, other):
        if isinstance(other, int):
            return RatFun.const(self.n, other)
        if isinstance(other, Fraction):
            return RatFun.const(self.n, other)
        if not isinstance(other, RatFun):
            return NotImplemented
        if other.n != self.n:
            raise CoefficientError("rank mismatch between coefficients")
        return other

    def _den_poly(self):
        den = K.p_const(self.n, self.dint)
        for key, m in self.dfac:
            poly = _fac_poly(key)
            for _ in range(m):
                den = K.p_mul(den, poly)
        return den

    def __add__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if self.is_zero:
            return other
        if other.is_zero:
            return self
        g = gcd(self.dint, other.dint)
        la, lb = other.dint // g, self.dint // g
        ka = K.p_const(self.n, la)
        kb = K.p_const(self.n, lb)
        fa = dict(self.dfac)
        fb = dict(other.dfac)
        allf = {}
        for key in set(fa) | set(fb):
            allf[key] = max(fa.get(key, 0), fb.get(key, 0))
        for key, m in allf.items():
            poly = _fac_poly(key)
            for _ in range(m - fa.get(key, 0)):
                ka = K.p_mul(ka, poly)
            for _ in range(m - fb.get(key, 0)):
                kb = K.p_mul(kb, poly)
        num = K.p_add(K.p_mul(self.num, ka), K.p_mul(other.num, kb))
        trial = None
        if _all_linear(allf):
            trial = [key for key in allf if fa.get(key) == fb.get(key)]
        return RatFun._build(self.n, num, self.dint * la, sorted(allf.items()),
                             trial)

    __radd__ = __add__

    def __neg__(self):
        if self.is_zero:
            return self
        return RatFun(self.n, K.p_neg(self.num), self.dint, self.dfac)

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
        if self.is_zero or other.is_zero:
            return RatFun.zero(self.n)
        fa = dict(self.dfac)
        fb = dict(other.dfac)
        na, nb, trial = self.num, other.num, None
        if _all_linear(fa) and _all_linear(fb):
            only_a, only_b = fa.keys() - fb.keys(), fb.keys() - fa.keys()
            na, fb = K.p_cancel(na, fb, only_b)
            nb, fa = K.p_cancel(nb, fa, only_a)
            trial = ()
        for key, m in fb.items():
            fa[key] = fa.get(key, 0) + m
        return RatFun._build(self.n, K.p_mul(na, nb), self.dint * other.dint,
                             sorted(fa.items()), trial)

    __rmul__ = __mul__

    def inverse(self):
        if self.is_zero:
            raise CoefficientError("division by zero coefficient")
        trial = () if _all_linear(key for key, _ in self.dfac) else None
        return RatFun._build(self.n, self._den_poly(),
                             *_split_denominator(self.n, self.num), trial)

    def __truediv__(self, other):
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        return self * other.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, k):
        if k < 0:
            return self.inverse() ** (-k)
        res = RatFun.const(self.n, 1)
        for _ in range(k):
            res = res * self
        return res

    def __eq__(self, other):
        """Value equality.  Equal representations answer at once; a
        product of linear forms outside the factor window can stay one
        unsplit factor, so other pairs compare their difference to zero."""
        other = self._check(other)
        if other is NotImplemented:
            return NotImplemented
        if (self.num == other.num and self.dint == other.dint
                and self.dfac == other.dfac):
            return True
        return (self - other).is_zero

    def __ne__(self, other):
        r = self.__eq__(other)
        return NotImplemented if r is NotImplemented else not r

    # -- automorphisms ------------------------------------------------------

    def shift(self, alpha):
        """f[alpha]: substitute h_i -> h_i + alpha_i."""
        if self.is_zero or not any(alpha):
            return self
        num = K.p_shift(self.num, alpha)
        facs = [(_fac_key(K.p_shift(_fac_poly(key), alpha)), m)
                for key, m in self.dfac]
        return RatFun._build(self.n, num, self.dint, facs, ())

    def permute(self, perm):
        """Shifted Weyl action: h_k -> h_{perm(k)}; perm is 1-based."""
        p0 = tuple(x - 1 for x in perm)
        if sorted(p0) != list(range(self.n)):
            raise CoefficientError("not a permutation of 1..n")
        if self.is_zero:
            return self
        num = K.p_permute(self.num, p0)
        facs = [(_fac_key(K.p_permute(_fac_poly(key), p0)), m)
                for key, m in self.dfac]
        return RatFun._build(self.n, num, self.dint, facs, ())

    def negate_h(self):
        """Global sign reversal h_i -> -h_i."""
        if self.is_zero:
            return self
        num = K.p_negate(self.num)
        facs = [(_fac_key(K.p_negate(_fac_poly(key))), m)
                for key, m in self.dfac]
        return RatFun._build(self.n, num, self.dint, facs, ())

    # -- evaluation ---------------------------------------------------------

    def eval(self, point):
        """Exact evaluation at an integer point; Fraction result."""
        den = K.p_eval(self._den_poly(), point)
        if den == 0:
            raise CoefficientError("evaluation at a denominator zero")
        return Fraction(K.p_eval(self.num, point), den)

    # -- printing -----------------------------------------------------------

    def __str__(self):
        return serialize(self)

    def __repr__(self):
        return f"RatFun({self.n}, {serialize(self)!r})"


# ---------------------------------------------------------------------------
# special elements of the coefficient ring
# ---------------------------------------------------------------------------

def hvar(n, i):
    """h_i."""
    return RatFun.var(n, i)


def hdiff(n, i, j):
    """h_ij = h_i - h_j."""
    return RatFun.var(n, i) - RatFun.var(n, j)


def phi(n, j):
    """prod_{k > j} h_jk / (h_jk - 1); empty product is 1."""
    return phi_segment(n, j, n + 1)


def phi_prime(n, j):
    """prod_{k < j} h_jk / (h_jk - 1); empty product is 1."""
    res = RatFun.const(n, 1)
    for k in range(1, j):
        d = hdiff(n, j, k)
        res = res * d / (d - 1)
    return res


def phi_segment(n, j, m):
    """prod_{j < k < m} h_jk / (h_jk - 1); requires j < m."""
    if not j < m:
        raise CoefficientError("phi_segment requires j < m")
    res = RatFun.const(n, 1)
    for k in range(j + 1, m):
        d = hdiff(n, j, k)
        res = res * d / (d - 1)
    return res


def alpha_coeff(n, i, j):
    """(h_ij + 1) / h_ij for i != j."""
    if i == j:
        raise CoefficientError("alpha requires i != j")
    d = hdiff(n, i, j)
    return (d + 1) / d


def beta_coeff(n, i, j):
    """1/(1 - h_ij) * phi_j[eps_j] / phi_i."""
    one = RatFun.const(n, 1)
    pj = phi(n, j).shift(eps(n, j))
    if i == j:
        return pj / phi(n, i)
    return (one / (one - hdiff(n, i, j))) * pj / phi(n, i)


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


def qplus(n, i):
    """prod_{k != i} (h_ik + 1) / h_ik."""
    return _q_weight(n, i, operator.add)


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

def _mono_str(exp, coeff, lead=False):
    vars_part = "*".join(
        f"h{i + 1}" + (f"^{e}" if e > 1 else "")
        for i, e in enumerate(exp) if e)
    c = abs(coeff)
    if not vars_part:
        body = str(c)
    elif c == 1:
        body = vars_part
    else:
        body = f"{c}*{vars_part}"
    if lead:
        return ("-" if coeff < 0 else "") + body
    return ("-" if coeff < 0 else "+") + body


def poly_str(poly):
    if not poly:
        return "0"
    items = sorted(poly.items(), key=lambda t: K.grlex_key(t[0]), reverse=True)
    out = [_mono_str(items[0][0], items[0][1], lead=True)]
    for exp, c in items[1:]:
        out.append(_mono_str(exp, c))
    return "".join(out)


def _den_str(dint, dfac):
    parts = []
    if dint != 1:
        parts.append(str(dint))
    for key, m in dfac:
        poly = _fac_poly(key)
        if len(poly) == 1:
            base = poly_str(poly)
        else:
            base = f"({poly_str(poly)})"
        parts.append(base + (f"^{m}" if m > 1 else ""))
    if len(parts) > 1:
        # keep the whole denominator one parse unit
        return "(" + "*".join(parts) + ")"
    return parts[0]


def serialize(f):
    """Text form: expanded numerator over a factored denominator
    (canonical when every linear factor lies in the factor window)."""
    if f.is_zero:
        return "0"
    num = poly_str(f.num)
    if f.dint == 1 and not f.dfac:
        return num
    if len(f.num) > 1:
        num = f"({num})"
    return f"{num}/{_den_str(f.dint, f.dfac)}"


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
                self.pos += 1
                rhs = self.factor()
                if rhs.is_zero:
                    self.error("division by zero")
                node = node / rhs
            else:
                return node

    def factor(self):
        c = self.peek()
        if c == "-":
            self.pos += 1
            return -self.factor()
        base = self.atom()
        if self.peek() == "^":
            self.pos += 1
            k = self.integer()
            base = base ** k
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
        return int(self.text[start:self.pos])

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
