"""Polynomial kernel backend selection.

The compiled Cython kernel is preferred; the pure-Python twin is used
when the extension is unavailable or when HDEFORM_PURE is set in the
environment.  ``BACKEND`` reports which one is active.  ``PROBE_POINTS``
are the integer points at which exact division rejects non-divisors
by evaluation (see ``_poly_py``).
"""

import os

__all__ = [
    "BACKEND", "PROBE_POINTS",
    "p_zero", "p_const", "p_var", "p_is_const",
    "p_add", "p_sub", "p_neg", "p_mul", "p_mul_int",
    "p_shift", "p_permute", "p_negate", "p_eval",
    "grlex_key", "p_lead", "p_degree", "p_content",
    "p_primitive_sign", "p_divexact", "fac_key", "p_fraction_normalize",
]

if os.environ.get("HDEFORM_PURE"):
    from ._poly_py import *  # noqa: F401,F403
else:
    try:
        from ._poly_cy import *  # noqa: F401,F403
    except ImportError:
        from ._poly_py import *  # noqa: F401,F403

# One probe-point tuple for both backends, also under a compiled kernel
# built before the probe existed.
from ._poly_py import PROBE_POINTS  # noqa: E402
