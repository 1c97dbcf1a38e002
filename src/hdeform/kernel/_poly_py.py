"""Pure-Python kernel for dense-exponent sparse integer polynomials.

A polynomial in ``nvars`` variables is a dict mapping exponent tuples
(length ``nvars``, nonnegative ints) to nonzero Python ints.  All
functions are side-effect free and never mutate their arguments.  This
module is the only one that knows that layout, and the layout of a
factor key (``fac_key``): callers build, read, substitute, sum and print
polynomials and keys through the functions here.

Factors are named by canonical keys (``fac_key``).  One table, filled on
first use, maps a key to its polynomial, its values at ``PROBE_POINTS``
and, for a primitive linear form ``a*h_i + r`` (``h_i`` its grlex-leading
variable, ``a > 0``, ``r`` linear in the other variables plus a
constant), the form's ``(i, a, r)``; for a family form ``h_i - h_j + k``
(i < j) or ``h_i + k`` it also holds the triple ``(i, j, k)`` (j None
for ``h_i + k``).  ``p_mul_family`` multiplies by a family form as the
two or three shifted copies of the multiplicand instead of forming a
general product (and by a power of a bare ``h_i`` in one exponent shift).

Every divisor is a primitive linear form, named by its key, and one
routine divides by it.  ``p_divexact`` first rejects by evaluation: if
the form ``b`` divides ``a`` in Z[h] then ``b(pt)`` divides ``a(pt)`` at
every integer point, so a point of ``PROBE_POINTS`` where ``b(pt)`` is
nonzero and does not divide ``a(pt)`` proves that ``b`` does not divide
``a``.  A division that passes is synthetic division in ``h_i``: grouped
by powers of ``h_i``, the dividend's coefficients are polynomials in the
other variables, each quotient coefficient is the next dividend
coefficient minus ``r`` times the previous one, divided by ``a``, and
the division is exact when each of these divisions by ``a`` is exact
and the last remainder is zero.  ``p_cancel`` probes a numerator once for a whole run
of trial divisions and carries its values through the quotients.
"""

from functools import lru_cache
from math import comb, gcd

BACKEND = "python"

# Integer points at which the factor table evaluates each factor, and
# p_divexact and p_cancel the dividend, before dividing.  Coordinates lie
# hundreds apart, so a linear form h_i - h_j + k or h_i + k with a small
# offset k takes a large nonzero value at each point.  Polynomials in more variables than a point has
# coordinates are not probed.
PROBE_POINTS = (
    tuple(1000 + 211 * i + 37 * i * i for i in range(16)),
    tuple(3001 + 433 * i + 61 * i * i for i in range(16)),
)


def p_zero():
    return {}


def p_const(nvars, c):
    if c == 0:
        return {}
    return {(0,) * nvars: c}


@lru_cache(maxsize=None)
def p_one(nvars):
    """The constant 1: one dict per nvars, shared by every caller, so it
    must never be changed."""
    return p_const(nvars, 1)


def p_var(nvars, i, c=1):
    # x_i with 0-based index i
    if c == 0:
        return {}
    exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): c}


def p_is_const(a):
    if not a:
        return True
    if len(a) > 1:
        return False
    exp = next(iter(a))
    return not any(exp)


def p_vars(a):
    """The set of the (0-based) indices of the variables that occur in a."""
    return {i for exp in a for i, e in enumerate(exp) if e}


def p_sum(polys):
    """The sum of the polynomials polys, an iterable read once: no list
    of summands is held."""
    res = None
    for a in polys:
        if res is None:
            res = dict(a)
            continue
        for e, c in a.items():
            s = res.get(e, 0) + c
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return {} if res is None else res


def p_add(a, b):
    return p_sum((a, b))


def p_sub(a, b):
    return p_sum((a, p_neg(b)))


def p_neg(a):
    return {e: -c for e, c in a.items()}


def p_mul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    res = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            ne = tuple(x + y for x, y in zip(e1, e2))
            s = res.get(ne, 0) + c1 * c2
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
    return res




def _binomial(a, i, j, d):
    # substitute x_i -> x_i + d, or x_i -> x_i + d x_j when j is not None:
    # x_i^e becomes sum_t comb(e, t) x_i^t (d x_j)^(e - t), t ascending (the
    # factor search in coeffs picks its slice by term order, first of ties)
    res = {}
    for exp, c in a.items():
        e = exp[i]
        for t in range(e + 1):
            if t == e:
                ne = exp
            else:
                ne = list(exp)
                ne[i] = t
                if j is not None:
                    ne[j] += e - t
                ne = tuple(ne)
            s = res.get(ne, 0) + c * comb(e, t) * d ** (e - t)
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
    return res


def p_shift(a, deltas):
    # substitute x_i -> x_i + deltas[i] for every variable
    res = a
    for i, d in enumerate(deltas):
        if d:
            res = _binomial(res, i, None, d)
    return dict(res) if res is a else res


def p_add_var(a, i, j):
    """Substitute x_i -> x_i + x_j (0-based, i != j)."""
    return _binomial(a, i, j, 1)


def p_permute(a, perm):
    # x_i -> x_{perm[i]} (0-based); perm must be a bijection
    res = {}
    for exp, c in a.items():
        ne = [0] * len(exp)
        for i, e in enumerate(exp):
            ne[perm[i]] = e
        res[tuple(ne)] = c
    return res


def p_negate(a):
    # x_i -> -x_i for all i
    res = {}
    for exp, c in a.items():
        if sum(exp) & 1:
            res[exp] = -c
        else:
            res[exp] = c
    return res




def p_eval(a, point):
    total = 0
    for exp, c in a.items():
        v = c
        for x, e in zip(point, exp):
            if e:
                v *= x ** e
        total += v
    return total


def p_slices(a, i):
    """a as a polynomial in x_i over the other variables: one dict per
    monomial in the others, in order of first appearance, from the power
    of x_i to the coefficient."""
    slices = {}
    for exp, c in a.items():
        slices.setdefault(exp[:i] + exp[i + 1:], {})[exp[i]] = c
    return list(slices.values())


def grlex_key(exp):
    return (sum(exp), exp)


def p_lead(a):
    # grlex-leading (exponent, coefficient)
    e = max(a, key=grlex_key)
    return e, a[e]


def p_degree(a):
    if not a:
        return -1
    return max(sum(e) for e in a)


def p_content(a):
    g = 0
    for c in a.values():
        g = gcd(g, c)
        if g == 1:
            return 1
    return g


def p_primitive_sign(a):
    """Return (content, sign, primitive part with positive grlex lead).

    Zero polynomial gives (0, 1, {}).
    """
    if not a:
        return 0, 1, {}
    g = p_content(a)
    _, lc = p_lead(a)
    sign = 1 if lc > 0 else -1
    d = g * sign
    if d == 1:
        return g, sign, dict(a)
    return g, sign, {e: c // d for e, c in a.items()}


def _mono_str(exp, c):
    body = "*".join(f"h{i + 1}" + (f"^{e}" if e > 1 else "")
                    for i, e in enumerate(exp) if e)
    if not body:
        body = str(abs(c))
    elif abs(c) != 1:
        body = f"{abs(c)}*{body}"
    return ("-" if c < 0 else "+") + body


def p_str(a):
    """Text of a in the variables h1, h2, ..., terms in descending grlex
    order."""
    if not a:
        return "0"
    items = sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True)
    return "".join(_mono_str(e, c) for e, c in items).removeprefix("+")


def fac_key(poly):
    """Canonical hashable form of a factor polynomial."""
    return tuple(sorted(poly.items(), key=lambda t: grlex_key(t[0]),
                        reverse=True))


@lru_cache(maxsize=None)
def _factor(key):
    # the factor table: (polynomial, values at PROBE_POINTS, linear form,
    # family triple); the polynomial is shared by every caller and never
    # changed
    poly = dict(key)
    nvars = len(key[0][0])
    points = PROBE_POINTS if nvars <= len(PROBE_POINTS[0]) else ()
    form = _linear(key)
    return (poly, tuple(p_eval(poly, pt) for pt in points), form,
            _family(form))


def _linear(key):
    # (i, a, tail, k) when key is a*x_i + r, x_i its grlex-leading
    # variable and r the sum of c*x_j over (j, c) in tail, plus k;
    # None when key is not of degree 1
    (lead, a), *rest = key
    if sum(lead) != 1:
        return None
    tail = tuple((e.index(1), c) for e, c in rest if any(e))
    k = sum(c for e, c in rest if not any(e))
    return lead.index(1), a, tail, k


def _family(form):
    # (i, j, k) when form is x_i - x_j + k (i < j) or x_i + k (j None)
    if form is None:
        return None
    i, a, tail, k = form
    if a != 1 or len(tail) > 1 or any(c != -1 for _, c in tail):
        return None
    return i, tail[0][0] if tail else None, k


def fac_family(key):
    """(i, j, k) when key names h_i - h_j + k (i < j, 0-based) or h_i + k
    (j None), else None."""
    return _factor(key)[3]


def fac_poly(key):
    """The polynomial of key, shared by every caller: never change it."""
    return _factor(key)[0]


def fac_form(nvars, i, j, k):
    """The key of x_i - x_j + k (i < j, 0-based), or of x_i + k when j is
    None."""
    return fac_key(p_sum((p_var(nvars, i), p_const(nvars, k),
                          {} if j is None else p_var(nvars, j, -1))))


# The key maps below take the key of a primitive linear form f and return
# (s, key2): the automorphism maps f to s times the form named by key2.

def fac_shift(key, deltas):
    """x_i -> x_i + deltas[i]: l(x) + k maps to l(x) + k + l(deltas)."""
    terms = [(e, c) for e, c in key if any(e)]
    k = sum(c for e, c in key if not any(e))
    k += sum(c * deltas[e.index(1)] for e, c in terms)
    if k:
        terms.append(((0,) * len(deltas), k))
    return 1, tuple(terms)


def fac_negate(key):
    """x_i -> -x_i: l(x) + k maps to -l(x) + k = -(l(x) - k)."""
    return -1, tuple((e, c if any(e) else -c) for e, c in key)


def fac_permute(key, perm):
    """x_i -> x_{perm[i]} (see p_permute)."""
    poly = p_permute(_factor(key)[0], perm)
    if p_lead(poly)[1] > 0:
        return 1, fac_key(poly)
    return -1, fac_key(p_neg(poly))


def p_mul_family(a, key, m):
    """a times the m-th power (m >= 1) of the family form named by key
    (see fac_family); a power of a bare h_i is one exponent shift."""
    i, j, k = _factor(key)[3]
    if j is None and not k:
        return {e[:i] + (e[i] + m,) + e[i + 1:]: c for e, c in a.items()}
    for _ in range(m):
        res = {e: k * c for e, c in a.items()} if k else {}
        for e, c in a.items():
            ne = e[:i] + (e[i] + 1,) + e[i + 1:]
            s = res.get(ne, 0) + c
            if s:
                res[ne] = s
            else:
                del res[ne]
            if j is not None:
                ne = e[:j] + (e[j] + 1,) + e[j + 1:]
                s = res.get(ne, 0) - c
                if s:
                    res[ne] = s
                else:
                    del res[ne]
        a = res
    return a


def _div_linear(a, form):
    # a = (lc h_i + r) * sum_t Q_t h_i^t with form (i, lc, tail, k) (see
    # _linear), so from the top Q_{t-1} = (A_t - r Q_t) / lc, and
    # A_0 - r Q_0 must vanish.  Coefficients in h_i are kept as dicts over
    # exponents whose i-th entry is 0.
    if not a:
        return {}
    i, lc, tail, k = form
    slices = {}
    for e, c in a.items():
        slices.setdefault(e[i], {})[e[:i] + (0,) + e[i + 1:]] = c
    q = {}
    cur = {}
    for t in range(max(slices), -1, -1):
        nxt = slices.get(t, {})
        for e, c in cur.items():
            # nxt -= r * c * e
            if k:
                s = nxt.get(e, 0) - k * c
                if s:
                    nxt[e] = s
                else:
                    del nxt[e]
            for j, cj in tail:
                ne = e[:j] + (e[j] + 1,) + e[j + 1:]
                s = nxt.get(ne, 0) - cj * c
                if s:
                    nxt[ne] = s
                else:
                    del nxt[ne]
        if not t:
            return None if nxt else q
        if lc != 1:
            if any(c % lc for c in nxt.values()):
                return None
            nxt = {e: c // lc for e, c in nxt.items()}
        for e, c in nxt.items():
            q[e[:i] + (t - 1,) + e[i + 1:]] = c
        cur = nxt


def p_cancel(num, facs, keys):
    """Divide num by the factors named in keys, each as often as it
    divides and at most its multiplicity in facs (a dict from the key of
    a primitive linear form to multiplicity).

    Returns the quotient and a copy of facs with those multiplicities
    lowered; a factor that cancelled fully is dropped.
    """
    facs = dict(facs)
    return _cancel(num, facs, sorted(keys)), facs


def _cancel(num, facs, keys):
    # Trial-divide num by facs[key] for each key in turn, updating facs
    # in place.  num is evaluated at PROBE_POINTS once, not once per
    # trial: an exact division by f turns each value v into v // f(pt),
    # exact when f(pt) != 0, and only where f(pt) == 0 is the quotient
    # evaluated again.
    if not keys:
        return num
    nvars = len(keys[0][0][0])
    points = PROBE_POINTS if nvars <= len(PROBE_POINTS[0]) else ()
    values = [p_eval(num, pt) for pt in points]
    for key in keys:
        _, fvals, form, _ = _factor(key)
        m = facs[key]
        while m and not any(f and v % f for v, f in zip(values, fvals)):
            q = _div_linear(num, form)
            if q is None:
                break
            num = q
            values = [v // f if f else p_eval(num, pt)
                      for v, f, pt in zip(values, fvals, points)]
            m -= 1
        if m:
            facs[key] = m
        else:
            del facs[key]
    return num


def p_divexact(a, key):
    """Exact division of a by the primitive linear form named by key, or
    None when it does not divide a: first the probe, then synthetic
    division (see the module docstring)."""
    _, fvals, form, _ = _factor(key)
    if any(f and p_eval(a, pt) % f for f, pt in zip(fvals, PROBE_POINTS)):
        return None
    return _div_linear(a, form)
