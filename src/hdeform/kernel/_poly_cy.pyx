# cython: language_level=3, boundscheck=False, wraparound=False
"""Compiled kernel for dense-exponent sparse integer polynomials.

Behavioural twin of ``_poly_py``; see that module for the data-model
documentation and for the probe rejection and heap-order division of
``p_divexact``.  Coefficients stay arbitrary-precision Python ints, so
the speedup comes from compiled dispatch, not machine integers.
"""

from heapq import heapify, heappop, heappush
from math import gcd as _gcd

from ._poly_py import PROBE_POINTS

BACKEND = "cython"

cdef dict _BINOM_CACHE = {}


cdef list _binom_row(Py_ssize_t n):
    row = _BINOM_CACHE.get(n)
    if row is not None:
        return row
    cdef list out = [1]
    cdef Py_ssize_t k
    for k in range(n):
        out.append(out[k] * (n - k) // (k + 1))
    _BINOM_CACHE[n] = out
    return out


def p_zero():
    return {}


def p_const(Py_ssize_t nvars, c):
    if c == 0:
        return {}
    return {(0,) * nvars: c}


def p_var(Py_ssize_t nvars, Py_ssize_t i, c=1):
    if c == 0:
        return {}
    cdef list exp = [0] * nvars
    exp[i] = 1
    return {tuple(exp): c}


def p_is_const(dict a):
    if not a:
        return True
    if len(a) > 1:
        return False
    exp = next(iter(a))
    return not any(exp)


def p_add(dict a, dict b):
    if not a:
        return dict(b)
    if not b:
        return dict(a)
    cdef dict res = dict(a)
    for e, c in b.items():
        s = res.get(e, 0) + c
        if s:
            res[e] = s
        else:
            res.pop(e, None)
    return res


def p_sub(dict a, dict b):
    if not b:
        return dict(a)
    cdef dict res = dict(a)
    for e, c in b.items():
        s = res.get(e, 0) - c
        if s:
            res[e] = s
        else:
            res.pop(e, None)
    return res


def p_neg(dict a):
    cdef dict res = {}
    for e, c in a.items():
        res[e] = -c
    return res


def p_mul_int(dict a, k):
    if k == 0:
        return {}
    if k == 1:
        return dict(a)
    cdef dict res = {}
    for e, c in a.items():
        res[e] = c * k
    return res


cdef inline tuple _exp_add(tuple e1, tuple e2):
    cdef Py_ssize_t m = len(e1)
    cdef list out = [0] * m
    cdef Py_ssize_t i
    for i in range(m):
        out[i] = <object>e1[i] + <object>e2[i]
    return tuple(out)


def p_mul(dict a, dict b):
    if not a or not b:
        return {}
    if len(b) < len(a):
        a, b = b, a
    cdef dict res = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            ne = _exp_add(<tuple>e1, <tuple>e2)
            s = res.get(ne, 0) + c1 * c2
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
    return res




cdef dict _shift_one(dict a, Py_ssize_t i, long d):
    cdef dict res = {}
    cdef Py_ssize_t e, k
    for exp, c in a.items():
        e = <Py_ssize_t>(<tuple>exp)[i]
        if e == 0:
            s = res.get(exp, 0) + c
            if s:
                res[exp] = s
            else:
                res.pop(exp, None)
            continue
        pre = (<tuple>exp)[:i]
        post = (<tuple>exp)[i + 1:]
        row = _binom_row(e)
        for k in range(e + 1):
            ne = pre + (k,) + post
            s = res.get(ne, 0) + c * <object>row[k] * (<object>d) ** (e - k)
            if s:
                res[ne] = s
            else:
                res.pop(ne, None)
    return res


def p_shift(dict a, deltas):
    res = a
    cdef Py_ssize_t i
    for i in range(len(deltas)):
        if deltas[i]:
            res = _shift_one(res, i, deltas[i])
    return dict(res) if res is a else res


def p_permute(dict a, perm):
    cdef dict res = {}
    cdef Py_ssize_t i, m
    for exp, c in a.items():
        m = len(<tuple>exp)
        ne = [0] * m
        for i in range(m):
            ne[perm[i]] = (<tuple>exp)[i]
        res[tuple(ne)] = c
    return res


def p_negate(dict a):
    cdef dict res = {}
    cdef long s
    for exp, c in a.items():
        s = 0
        for e in <tuple>exp:
            s += <long>e
        if s & 1:
            res[exp] = -c
        else:
            res[exp] = c
    return res




def p_eval(dict a, point):
    total = 0
    cdef Py_ssize_t i, m
    for exp, c in a.items():
        v = c
        m = len(<tuple>exp)
        for i in range(m):
            e = (<tuple>exp)[i]
            if e:
                v *= (<object>point[i]) ** e
        total += v
    return total


def grlex_key(exp):
    return (sum(exp), exp)


def p_lead(dict a):
    best = None
    best_key = None
    for e in a:
        k = (sum(e), e)
        if best_key is None or k > best_key:
            best_key = k
            best = e
    return best, a[best]


def p_degree(dict a):
    if not a:
        return -1
    cdef long best = -1
    cdef long s
    for e in a:
        s = 0
        for v in <tuple>e:
            s += <long>v
        if s > best:
            best = s
    return best


def p_content(dict a):
    g = 0
    for c in a.values():
        g = _gcd(g, c)
        if g == 1:
            return 1
    return g


def p_primitive_sign(dict a):
    if not a:
        return 0, 1, {}
    g = p_content(a)
    _, lc = p_lead(a)
    sign = 1 if lc > 0 else -1
    d = g * sign
    if d == 1:
        return g, sign, dict(a)
    cdef dict res = {}
    for e, c in a.items():
        res[e] = c // d
    return g, sign, res


def fac_key(dict poly):
    return tuple(sorted(poly.items(),
                        key=lambda t: (sum(t[0]), t[0]), reverse=True))


def p_fraction_normalize(dict num, dint, fac_items):
    cdef dict facs = {}
    cdef dict poly
    if dint < 0:
        dint = -dint
        num = p_neg(num)
    for key, m in fac_items:
        if not m:
            continue
        poly = dict(key)
        c, sign, prim = p_primitive_sign(poly)
        if p_is_const(prim):
            dint *= c ** m
            if sign < 0 and m % 2:
                num = p_neg(num)
            continue
        if c != 1 or sign < 0:
            dint *= c ** m
            if sign < 0 and m % 2:
                num = p_neg(num)
            key = fac_key(prim)
        facs[key] = facs.get(key, 0) + m
    for key in sorted(facs):
        m = facs[key]
        poly = dict(key)
        while m > 0:
            q = p_divexact(num, poly)
            if q is None:
                break
            num = q
            m -= 1
        if m:
            facs[key] = m
        else:
            del facs[key]
    c = p_content(num)
    g = _gcd(c, dint)
    if g > 1:
        num = {e: v // g for e, v in num.items()}
        dint //= g
    return num, dint, tuple(sorted(facs.items()))


cdef bint _probe_rejects(dict a, dict b):
    # sound: b | a in Z[x] implies b(pt) | a(pt) at every integer point
    cdef Py_ssize_t nvars = len(<tuple>next(iter(b)))
    for pt in PROBE_POINTS:
        if nvars > len(pt):
            return False
        v = p_eval(b, pt)
        if v and p_eval(a, pt) % v:
            return True
    return False


cdef object _grlex_weight(tuple e, list weights):
    total = 0
    cdef Py_ssize_t i
    for i in range(len(e)):
        total += <object>e[i] * <object>weights[i]
    return total


def p_divexact(dict a, dict b):
    if not a:
        return {}
    if _probe_rejects(a, b):
        return None
    be, bc = p_lead(b)
    cdef Py_ssize_t m = len(<tuple>be)
    cdef Py_ssize_t bs = 0
    cdef Py_ssize_t i
    for v in <tuple>be:
        bs += <Py_ssize_t>v
    # linear grlex key, exact on exponents below base (see _poly_py)
    base = p_degree(a) + 1
    cdef list weights = []
    for i in range(m):
        weights.append(base ** m + base ** (m - 1 - i))
    kbe = _grlex_weight(<tuple>be, weights)
    cdef list tail = []
    for e2, c2 in b.items():
        if e2 != be:
            tail.append((_grlex_weight(<tuple>e2, weights), e2, c2))
    cdef dict r = dict(a)
    cdef list heap = []
    for e in r:
        heap.append((-_grlex_weight(<tuple>e, weights), e))
    heapify(heap)
    cdef dict q = {}
    cdef Py_ssize_t s_deg
    while heap:
        nk, re = heappop(heap)
        rc = r.pop(re, 0)
        if not rc:
            continue
        s_deg = 0
        for v in <tuple>re:
            s_deg += <Py_ssize_t>v
        if s_deg < bs:
            return None
        qe_list = [0] * m
        for i in range(m):
            d = (<tuple>re)[i] - (<tuple>be)[i]
            if d < 0:
                return None
            qe_list[i] = d
        if rc % bc:
            return None
        qc = rc // bc
        qe = tuple(qe_list)
        q[qe] = qc
        qk = -nk - kbe
        for k2, e2, c2 in tail:
            ne = _exp_add(qe, <tuple>e2)
            s = r.get(ne)
            if s is None:
                r[ne] = -qc * c2
                heappush(heap, (-(qk + k2), ne))
            else:
                s = s - qc * c2
                if s:
                    r[ne] = s
                else:
                    del r[ne]
    return q
