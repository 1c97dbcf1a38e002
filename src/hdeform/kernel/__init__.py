"""Sparse integer-polynomial kernel (pure Python, see ``_poly_py``).

``BACKEND`` names the kernel (``"python"``).  ``PROBE_POINTS`` are the
integer points at which exact division rejects non-divisors by
evaluation.
"""

from ._poly_py import *  # noqa: F401,F403

__all__ = [
    "BACKEND", "PROBE_POINTS",
    "p_zero", "p_const", "p_var", "p_is_const",
    "p_add", "p_sub", "p_neg", "p_mul",
    "p_shift", "p_permute", "p_negate", "p_eval",
    "grlex_key", "p_lead", "p_degree", "p_content",
    "p_primitive_sign", "p_divexact", "fac_key", "p_cancel",
    "fac_family", "p_mul_family", "p_div_family",
]
