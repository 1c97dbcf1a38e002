"""Sparse integer-polynomial kernel (pure Python, see ``_poly_py``).

The kernel is the one module that packs or unpacks a monomial and knows
the layout of a factor key (``fac_key``); the rest of the package
builds, reads, substitutes, sums and prints them through the functions
listed here.  A polynomial in h_1 ... h_n is stored in the coordinates
``x_i = h_i - h_n`` (i < n) and ``x_n = h_n``, so a function of the
differences h_i - h_j never contains x_n.  The change is triangular, so
the grlex lead, the content and the degree are those in h; only the
boundary converts (``p_var``, ``fac_key``, ``fac_form``, ``p_eval``,
``p_shift``, ``p_permute`` and ``p_str``), and ``fac_tuple`` and
``fac_family`` speak of h.  No result depends on the order in which a
polynomial's terms were inserted.  A monomial of a rank-n polynomial is
one int: the total degree in the top 32-bit field, then one 32-bit
field per exponent, so int order is grlex order and a monomial product
is one int add.  A product whose degree would reach ``2**32`` raises
``ResourceLimitError``.  Functions that read a field take the rank
``n``.  A factor key is a small int interned per process, an index into
the kernel's factor table in first-use order; keys sort and print
through their canonical tuple (``fac_tuple``), never by id.
``BACKEND`` names the kernel (``"python"``).  Every divisor is a
primitive linear form named by its key, and ``p_divexact`` and
``p_cancel`` divide through one synthetic division by it, after
rejecting non-divisors by evaluation at ``PROBE_POINTS``; the value of
each monomial at each probe point is kept in one memo per rank and
point.
"""

from ._poly_py import *  # noqa: F401,F403

__all__ = [
    "BACKEND", "PROBE_POINTS",
    "p_zero", "p_const", "p_one", "p_var", "p_is_const",
    "p_sum", "p_add", "p_sub", "p_neg", "p_mul",
    "p_shift", "p_permute", "p_negate", "p_eval", "p_family_slices",
    "p_lead", "p_degree", "p_content",
    "p_primitive_sign", "p_str", "p_divexact", "fac_key", "p_cancel",
    "fac_family", "fac_poly", "fac_form", "fac_shift", "fac_negate",
    "fac_permute", "fac_tuple", "p_mul_family",
]
