"""Pure-Python kernel for sparse integer polynomials with packed monomials.

A polynomial in h_1 ... h_n is stored in the unimodular coordinates
``x_i = h_i - h_n`` (i < n) and ``x_n = h_n``.  A function of the
differences h_i - h_j never contains x_n, so a polynomial in h_1 - h_2
of degree d has d + 1 terms instead of about d^2/2, and the family forms
stay short: ``h_i - h_j + k`` is ``x_i - x_j + k``, ``h_i - h_n + k`` is
``x_i + k`` and ``h_i + k`` is ``x_i + x_n + k``.  The change is
triangular with x_n last, so the grlex-leading exponent and
coefficient, the content and the degree are those in h.  Only the
boundary converts: ``p_var``, the factor table, ``p_eval`` and the
probe points on the way in, ``p_str`` on the way out, ``p_shift`` by
``(d_i - d_n, d_n)`` and ``p_permute`` through h; ``fac_tuple`` and
``fac_family`` speak of h.  No result depends on the order in which
a dict's terms were inserted.

A polynomial is a dict mapping monomials to nonzero Python ints.  A
monomial ``x_1^e_1 ... x_n^e_n`` is one int: its total degree in the
top field, then ``e_1 ... e_n``, each field ``B`` = 32 bits wide
(``_layout``).  So int order is grlex order, the leading monomial is
``max``, a monomial product is one int add, and a product by ``x_i``
adds the rank's unit ``u_i``.  A product whose degree would reach
``2**32`` raises ``ResourceLimitError`` naming the degree; a field
never wraps.  A packed int does not tell its rank, so a function that
reads a field takes ``n`` (``p_family_slices``, ``p_negate``,
``p_degree``, ``p_str``, ``fac_key``) or reads it from an argument
(``p_shift`` and ``p_eval`` from the length of the vector,
``p_permute`` from the permutation, ``p_mul_family``, ``p_cancel`` and
``p_divexact`` from the key's table entry).  No function mutates its
arguments except ``p_cancel``, which lowers the multiplicities it is
given, and the only state is the memos and the factor and product
tables.  This module is the only one that packs or unpacks a monomial,
and the only one that knows the layout of a factor key (``fac_key``):
callers build, read, substitute, sum and print polynomials and keys
through the functions here.

Factors are named by keys (``fac_key``): small ints, interned per
process.  A factor's canonical tuple (``fac_tuple``) is its (exponent
tuple, coefficient) pairs in h, in descending grlex order, and its key
is the index of its entry in the one factor table, handed out in
first-use order, so a factor map hashes ints, not nested tuples.  Ids
depend on the order of first use, so keys sort and print through their
canonical tuples and never by id.  ``fac_key`` finds a stored factor by
its packed terms and builds the canonical tuple only for a new one.
The table, filled on first use, holds for each key its packed
polynomial, its rank, its canonical tuple and, for a primitive linear
form ``a*x_i + r`` (``x_i`` its grlex-leading variable, ``a > 0``, ``r``
linear in the other variables plus a constant), its values at
``PROBE_POINTS`` and the form's ``(i, a, r)`` in both coordinates; for a
family form ``h_i - h_j + k`` (i < j) or ``h_i + k`` it also holds the
triple ``(i, j, k)`` (j None for ``h_i + k``) and the units of its
stored form, so ``p_mul_family`` multiplies by it as two or three
shifted copies of the multiplicand (a power of the bare x_n as one add
per monomial).  The one sum is ``p_lincomb``; the product table keeps
up to 2**14 terms of the products of factor maps, key -> multiplicity,
each key once (``p_fac_product``), never changed.

Every divisor is a primitive linear form, named by its key, and one
routine divides by it: ``p_cancel`` trial-divides by the forms its
caller names, and ``p_divexact`` is its one-try case.  It first
rejects by evaluation: if the form ``b`` divides ``a`` in Z[h] then
``b(pt)`` divides ``a(pt)`` at every integer point, so a point of
``PROBE_POINTS`` where ``b(pt)`` is nonzero and does not divide
``a(pt)`` proves that ``b`` does not divide ``a``.  The value of each
monomial at each probe point is kept, one memo per rank and point, so a
probe costs a lookup per term.  A division that passes is synthetic
division in ``x_i``: grouped by powers of ``x_i``, the dividend's
coefficients are polynomials in the other variables, each quotient
coefficient is the next dividend coefficient minus ``r`` times the
previous one, divided by ``a``, and the division is exact when each of
these divisions by ``a`` is exact and the last remainder is zero.  The
numerator is probed once for a whole run of trial divisions, and its
values are carried through the quotients.
"""

from functools import lru_cache
from math import comb, gcd

from ..errors import ResourceLimitError

BACKEND = "python"

# Integer points in h at which the factor table evaluates each linear
# form, and p_cancel the dividend, before dividing; a rank-n polynomial is
# evaluated at their first n coordinates.  Coordinates lie hundreds apart,
# so a linear form h_i - h_j + k or h_i + k with a small offset k takes a
# large nonzero value at each point.  Polynomials in more variables than a
# point has coordinates are not probed.
PROBE_POINTS = (
    tuple(1000 + 211 * i + 37 * i * i for i in range(16)),
    tuple(3001 + 433 * i + 61 * i * i for i in range(16)),
)

_B = 32                 # bits per field of a packed monomial
_MASK = (1 << _B) - 1


@lru_cache(maxsize=None)
def _layout(n):
    """The packed layout of rank n: the shift of the degree field, the
    shift of each exponent field, and the unit u_i of each variable (the
    monomial x_i: degree 1 and e_i = 1)."""
    shifts = tuple((n - 1 - i) * _B for i in range(n))
    top = n * _B
    return top, shifts, tuple((1 << top) | (1 << s) for s in shifts)


def _pack(n, exp):
    top, shifts, _ = _layout(n)
    m = sum(exp) << top
    for e, s in zip(exp, shifts):
        m |= e << s
    return m


def _unpack(n, m):
    return tuple((m >> s) & _MASK for s in _layout(n)[1])


def _check_degree(degree):
    """Raise when a product's degree would not fit its field."""
    if degree > _MASK:
        raise ResourceLimitError(
            f"polynomial degree {degree} exceeds the kernel's limit of "
            f"{_MASK}")


def _x_point(point):
    """The x-coordinates of the point with h-coordinates point."""
    last = point[-1]
    return [v - last for v in point[:-1]] + [last]


def p_const(nvars, c):
    if c == 0:
        return {}
    return {0: c}


@lru_cache(maxsize=None)
def p_one(nvars):
    """The constant 1: one dict per nvars, shared by every caller, so it
    must never be changed."""
    return p_const(nvars, 1)


def p_var(nvars, i, c=1):
    """c * h_i with 0-based index i: c * (x_i + x_n), or c * x_n for h_n."""
    if c == 0:
        return {}
    units = _layout(nvars)[2]
    if i == nvars - 1:
        return {units[i]: c}
    return {units[i]: c, units[-1]: c}


def p_is_const(a):
    return not a or (len(a) == 1 and 0 in a)


def p_lincomb(terms):
    """The sum of c * a over the (c, a) pairs of the list terms."""
    res = {}
    for c, a in terms:
        for e, v in a.items():
            s = res.get(e, 0) + c * v
            if s:
                res[e] = s
            else:
                res.pop(e, None)
    return res


def p_neg(a):
    return {e: -c for e, c in a.items()}


def p_mul(a, b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    ta, tb = max(a), max(b)
    if ta and tb:
        # a nonconstant monomial's top field is its degree, so its bit
        # length tells where that field starts
        top = (ta.bit_length() - 1) // _B * _B
        _check_degree((ta >> top) + (tb >> top))
    res = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            ne = e1 + e2
            s = res.get(ne, 0) + c1 * c2
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
    return res


def _binomial(a, shift, step, d):
    # substitute x_i -> x_i + d, or x_i -> x_i + d x_j, where shift is the
    # shift of e_i's field and step moves one unit of degree from x_i
    # (-u_i, or u_j - u_i): x_i^e becomes sum_s comb(e, s) d^s x_i^(e - s)
    # x_j^s, one row of (s * step, comb(e, s) d^s) per exponent e, made
    # once per call
    res = {}
    rows = {}
    for m, c in a.items():
        e = (m >> shift) & _MASK
        row = rows.get(e)
        if row is None:
            row = rows[e] = [(s * step, comb(e, s) * d ** s)
                             for s in range(e, -1, -1)]
        for off, w in row:
            ne = m + off
            v = res.get(ne, 0) + c * w
            if v:
                res[ne] = v
            else:
                res.pop(ne, None)
    return res


def _recoordinate(n, a, d):
    """Substitute x_i -> x_i + d x_n for every i < n: d = 1 takes a
    polynomial written in h to the stored coordinates (h_i = x_i + x_n),
    d = -1 takes a stored polynomial back to h.  At rank 1 a itself."""
    _, shifts, units = _layout(n)
    for s, u in zip(shifts[:-1], units[:-1]):
        a = _binomial(a, s, units[-1] - u, d)
    return a


def p_shift(a, deltas):
    """Substitute h_i -> h_i + deltas[i] for every variable: x_i shifts by
    deltas[i] - deltas[n] and x_n by deltas[n]."""
    _, shifts, units = _layout(len(deltas))
    res = a
    for s, u, d in zip(shifts, units, _x_point(deltas)):
        if d:
            res = _binomial(res, s, -u, d)
    return dict(res) if res is a else res


def p_permute(a, perm):
    """Substitute h_i -> h_{perm[i]} (0-based); perm must be a bijection.
    a goes through h, where exponent field i moves to field perm[i]."""
    n = len(perm)
    top, shifts, _ = _layout(n)
    moves = [(s, shifts[p]) for s, p in zip(shifts, perm)]
    res = {}
    for m, c in _recoordinate(n, a, -1).items():
        ne = m >> top << top
        for s, t in moves:
            ne |= ((m >> s) & _MASK) << t
        res[ne] = c
    return _recoordinate(n, res, 1)


def p_negate(n, a):
    # h_i -> -h_i for all i, which is x_i -> -x_i for all i
    top = _layout(n)[0]
    return {m: -c if (m >> top) & 1 else c for m, c in a.items()}


def _mono_value(n, m, point):
    v = 1
    for x, s in zip(point, _layout(n)[1]):
        e = (m >> s) & _MASK
        if e:
            v *= x ** e
    return v


@lru_cache(maxsize=None)
def _probes(n):
    """For each of PROBE_POINTS, the x-coordinates of its first n
    coordinates and the memo of rank n from packed monomial to its value
    there; none above 16 variables."""
    if n > len(PROBE_POINTS[0]):
        return ()
    return tuple((_x_point(pt[:n]), {}) for pt in PROBE_POINTS)


def _probe_value(n, a, probe):
    """a at a probe point of _probes(n), one memo lookup per term."""
    point, memo = probe
    total = 0
    for m, c in a.items():
        v = memo.get(m)
        if v is None:
            v = memo[m] = _mono_value(n, m, point)
        total += c * v
    return total


def p_eval(a, point):
    """a at point, one integer per variable h_i."""
    n = len(point)
    point = _x_point(point)
    return sum(c * _mono_value(n, m, point) for m, c in a.items())


def p_family_slices(n, a, i, j):
    """The factor search's view of a for the family forms h_i - h_j + k
    (0-based i < j) or, when j is None, h_i + k.

    A unimodular substitution takes each of these forms to t + k, t one
    stored variable, so such a form divides a only if -k is a root of
    every univariate slice of a's image in t.  Returns those slices, one
    dict from power of t to coefficient per monomial in the other
    variables, or [] when a lacks a variable of the forms.
    """
    _, shifts, units = _layout(n)
    last = n - 1
    if j is None:
        v, s = (None, 0) if i == last else (last, 1)    # x_i + x_n + k
    else:
        v, s = (None, 0) if j == last else (j, -1)      # x_i - x_j + k
    seen = 0
    for m in a:
        seen |= m
    si, ui = shifts[i], units[i]
    if not (seen >> si) & _MASK:
        return []
    if v is not None:
        if not (seen >> shifts[v]) & _MASK:
            return []
        a = _binomial(a, si, units[v] - ui, -s)         # x_i -> x_i - s x_v
    slices = {}
    for m, c in a.items():
        e = (m >> si) & _MASK
        slices.setdefault(m - e * ui, {})[e] = c
    return list(slices.values())


def p_lead(a):
    # grlex-leading (packed monomial, coefficient)
    e = max(a)
    return e, a[e]


def p_degree(n, a):
    if not a:
        return -1
    return max(a) >> _layout(n)[0]


def p_primitive_sign(a):
    """Return (content, sign, primitive part with positive grlex lead).

    Zero polynomial gives (0, 1, {}).
    """
    if not a:
        return 0, 1, {}
    g = gcd(*a.values())
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


def p_str(n, a, facs=(), group=False):
    """Text of a times the product of the family forms facs ((key,
    multiplicity) pairs) in the variables h1, h2, ..., terms in
    descending grlex order; with group, a text of more than one term is
    put in parentheses.

    The product's degree is checked before any product is formed.  The
    powers of a bare h_i multiply the text's h-monomials last, one add
    each, so h1^100000000 prints at once."""
    units = _layout(n)[2]
    _check_degree(p_degree(n, a) + sum(power for _, power in facs))
    step = 0
    for key, power in facs:
        i, j, k = _FACTORS[key][3]
        if j is None and not k:
            step += power * units[i]
        else:
            a = p_mul_family(a, key, power)
    if not a:
        return "0"
    a = _recoordinate(n, a, -1)
    text = "".join(_mono_str(_unpack(n, m + step), c)
                   for m, c in sorted(a.items(), reverse=True)
                   ).removeprefix("+")
    return f"({text})" if group and len(a) > 1 else text


# The factor table: a factor key is an index into _FACTORS, handed out in
# first-use order; _IDS maps a canonical tuple and _BY_POLY the rank and
# the packed terms of a stored polynomial to its index.  Each entry is
# (packed polynomial, values at PROBE_POINTS, stored linear form, family
# triple, rank, canonical tuple, linear form in h, family plan), the
# probe values and the forms None unless the polynomial has degree 1; the
# polynomial is shared by every caller and never changed.
_FACTORS = []
_IDS = {}
_BY_POLY = {}


def _canon(n, poly):
    # (exponent tuple, coefficient) pairs in descending grlex order
    return tuple((_unpack(n, m), c)
                 for m, c in sorted(poly.items(), reverse=True))


def _intern(n, canon):
    key = _IDS.get(canon)
    if key is None:
        poly = _recoordinate(n, {_pack(n, e): c for e, c in canon}, 1)
        # the change of coordinates keeps the degree, and only a form of
        # degree 1 is a divisor: others get no stored form or probe values
        hform = _linear(canon)
        form = hform and _linear(_canon(n, poly))
        fvals = hform and tuple(_probe_value(n, poly, pt)
                                for pt in _probes(n))
        family = _family(hform)
        plan = None
        if family is not None:
            # x_i + c x_j + k, with the units of x_i and x_j
            i, _, tail, k = form
            top, _, units = _layout(n)
            j, c = tail[0] if tail else (None, 0)
            plan = top, units[i], None if j is None else units[j], c, k
        key = _IDS[canon] = _BY_POLY[n, frozenset(poly.items())] = len(
            _FACTORS)
        _FACTORS.append((poly, fvals, form, family, n, canon, hform, plan))
    return key


def fac_key(n, poly):
    """The key of a factor polynomial: a small int, the same for equal
    polynomials within one process.  Ids follow first use, so order and
    print keys by their canonical tuple (``fac_tuple``), never by id."""
    key = _BY_POLY.get((n, frozenset(poly.items())))
    if key is None:
        key = _intern(n, _canon(n, _recoordinate(n, poly, -1)))
    return key


def fac_tuple(key):
    """The canonical tuple of key: its (exponent tuple, coefficient) pairs
    in h, in descending grlex order.  Keys sort and print by it."""
    return _FACTORS[key][5]


def _linear(canon):
    # (i, a, tail, k) when canon is a*v_i + r, v_i its grlex-leading
    # variable and r the sum of c*v_j over (j, c) in tail, plus k;
    # None when canon is not of degree 1 (v is x or h, as canon is)
    if not canon or sum(canon[0][0]) != 1:
        return None
    (lead, a), *rest = canon
    tail = tuple((e.index(1), c) for e, c in rest if any(e))
    k = sum(c for e, c in rest if not any(e))
    return lead.index(1), a, tail, k


def _family(form):
    # (i, j, k) when the h-form is h_i - h_j + k (i < j) or h_i + k (j
    # None)
    if form is None:
        return None
    i, a, tail, k = form
    if a != 1 or len(tail) > 1 or any(c != -1 for _, c in tail):
        return None
    return i, tail[0][0] if tail else None, k


def fac_family(key):
    """(i, j, k) when key names h_i - h_j + k (i < j, 0-based) or h_i + k
    (j None), else None."""
    return _FACTORS[key][3]


def fac_poly(key):
    """The polynomial of key, shared by every caller: never change it."""
    return _FACTORS[key][0]


def fac_form(nvars, i, j, k):
    """The key of h_i - h_j + k (i < j, 0-based), or of h_i + k when j is
    None."""
    return fac_key(nvars, p_lincomb([(1, p_var(nvars, i)), (k, p_one(nvars)),
                                     (-1, {} if j is None else
                                      p_var(nvars, j))]))


# The key maps below take the key of a primitive linear form f and return
# (s, key2): the automorphism maps f to s times the form named by key2.

def fac_shift(key, deltas):
    """h_i -> h_i + deltas[i]: l(h) + k maps to l(h) + k + l(deltas)."""
    _, _, _, _, n, canon, (i, a, tail, k), _ = _FACTORS[key]
    k2 = k + a * deltas[i] + sum(c * deltas[j] for j, c in tail)
    if k2 == k:
        return 1, key
    terms = canon[:-1] if k else canon      # the constant term is last
    if k2:
        terms += (((0,) * n, k2),)
    return 1, _intern(n, terms)


def fac_negate(key):
    """h_i -> -h_i: l(h) + k maps to -l(h) + k = -(l(h) - k)."""
    _, _, _, _, n, canon, _, _ = _FACTORS[key]
    return -1, _intern(n, tuple((e, c if any(e) else -c) for e, c in canon))


def fac_permute(key, perm):
    """h_i -> h_{perm[i]} (see p_permute)."""
    poly = p_permute(_FACTORS[key][0], perm)
    if p_lead(poly)[1] > 0:
        return 1, fac_key(len(perm), poly)
    return -1, fac_key(len(perm), p_neg(poly))


def p_mul_family(a, key, m):
    """a times the m-th power (m >= 1) of the family form named by key
    (see fac_family): m passes that add the two or three shifted copies
    of a, or one add per monomial for a power of h_n, which is x_n."""
    top, ui, uj, cj, k = _FACTORS[key][7]     # x_i + cj x_j + k
    if a:
        _check_degree((max(a) >> top) + m)
    if uj is None and not k:
        step = m * ui
        return {e + step: c for e, c in a.items()}
    for _ in range(m):
        res = {e: k * c for e, c in a.items()} if k else {}
        for e, c in a.items():
            ne = e + ui
            s = res.get(ne, 0) + c
            if s:
                res[ne] = s
            else:
                del res[ne]
            if uj is not None:
                ne = e + uj
                s = res.get(ne, 0) + cj * c
                if s:
                    res[ne] = s
                else:
                    del res[ne]
        a = res
    return a


_PRODUCTS = {}          # sorted (key, multiplicity) pairs -> their product
_room = 1 << 14         # terms it may still take: rank 4 asks most once


def p_fac_product(facs):
    """The product of facs, a dict from key to multiplicity (>= 1): kept
    while the table has room and shared, so never change it."""
    global _room
    items = tuple(sorted(facs.items()))
    if len(items) == 1 and items[0][1] == 1:
        return _FACTORS[items[0][0]][0]     # the stored form itself
    poly = _PRODUCTS.get(items)
    if poly is None:
        poly = {0: 1}
        for key, m in items:
            if _FACTORS[key][3] is None:
                for _ in range(m):
                    poly = p_mul(poly, _FACTORS[key][0])
            else:
                poly = p_mul_family(poly, key, m)
        if len(poly) <= _room:
            _room -= len(poly)
            _PRODUCTS[items] = poly
    return poly


def _div_linear(a, n, form):
    # a = (lc x_i + r) * sum_t Q_t x_i^t with form (i, lc, tail, k) (see
    # _linear), so from the top Q_{t-1} = (A_t - r Q_t) / lc, and
    # A_0 - r Q_0 must vanish.  Coefficients in x_i are kept as dicts over
    # monomials whose i-th field is 0.
    if not a:
        return {}
    i, lc, tail, k = form
    _, shifts, units = _layout(n)
    s, ui = shifts[i], units[i]
    tail = [(units[j], cj) for j, cj in tail]
    slices = {}
    for e, c in a.items():
        t = (e >> s) & _MASK
        slices.setdefault(t, {})[e - t * ui] = c
    q = {}
    cur = {}
    for t in range(max(slices), -1, -1):
        nxt = slices.get(t, {})
        for e, c in cur.items():
            # nxt -= r * c * e
            if k:
                v = nxt.get(e, 0) - k * c
                if v:
                    nxt[e] = v
                else:
                    del nxt[e]
            for uj, cj in tail:
                ne = e + uj
                v = nxt.get(ne, 0) - cj * c
                if v:
                    nxt[ne] = v
                else:
                    del nxt[ne]
        if not t:
            return None if nxt else q
        if lc != 1:
            if any(c % lc for c in nxt.values()):
                return None
            nxt = {e: c // lc for e, c in nxt.items()}
        step = (t - 1) * ui
        for e, c in nxt.items():
            q[e + step] = c
        cur = nxt


def p_cancel(num, facs):
    """Divide num by each primitive linear form named in facs (a dict from
    key to multiplicity), as often as it divides and at most its
    multiplicity, and return the quotient.  facs is lowered in place; a
    factor that cancelled fully is dropped.  Distinct primitive linear
    forms are coprime primes, so neither the quotient nor facs depends on
    the order of facs.

    num is evaluated at PROBE_POINTS once, not once per trial: an exact
    division by f turns each value v into v // f(pt), exact when
    f(pt) != 0, and only where f(pt) == 0 is the quotient evaluated
    again.
    """
    if not facs:
        return num
    n = _FACTORS[next(iter(facs))][4]
    probes = _probes(n)
    values = [_probe_value(n, num, probe) for probe in probes]
    for key in list(facs):
        _, fvals, form, _, _, _, _, _ = _FACTORS[key]
        m = facs[key]
        while m and not any(f and v % f for v, f in zip(values, fvals)):
            q = _div_linear(num, n, form)
            if q is None:
                break
            num = q
            values = [v // f if f else _probe_value(n, num, probe)
                      for v, f, probe in zip(values, fvals, probes)]
            m -= 1
        if m:
            facs[key] = m
        else:
            del facs[key]
    return num


def p_divexact(a, key):
    """Exact division of a by the primitive linear form named by key, or
    None when it does not divide a: the one-try case of p_cancel."""
    facs = {key: 1}
    q = p_cancel(a, facs)
    return None if facs else q
