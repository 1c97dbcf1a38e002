"""Sparse integer-polynomial kernel, in pure Python (``BACKEND`` is
``"python"``).  The rest of the package builds, reads, substitutes,
sums, divides and prints polynomials and factor keys through the
functions listed here; ``_poly_py``'s docstring describes the stored
coordinates, the packed monomials, the factor and product tables, the
one sum and the one trial division.
"""

from ._poly_py import *  # noqa: F401,F403

__all__ = [
    "BACKEND", "PROBE_POINTS",
    "p_const", "p_one", "p_var", "p_is_const",
    "p_lincomb", "p_neg", "p_mul",
    "p_shift", "p_permute", "p_negate", "p_eval", "p_family_slices",
    "p_lead", "p_degree",
    "p_primitive_sign", "p_str", "p_divexact", "fac_key", "p_cancel",
    "fac_family", "fac_poly", "fac_form", "fac_shift", "fac_negate",
    "fac_permute", "fac_tuple", "p_mul_family", "p_fac_product",
]
