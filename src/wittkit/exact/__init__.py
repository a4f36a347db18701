"""Exact arithmetic kernel: Laurent polynomials over Q, rational functions,
matrices, the Smith normal form over Z, factorization, and certified root
data.  Modules over Q[z, z^-1] need no Smith form here: `laurent_forms`
reduces them to linear algebra over Q.

Everything here computes with `fractions.Fraction`; no floats enter any
arithmetic path.  Floats appear only in reporting helpers (approximate
angles).
"""

from wittkit.exact.laurent import LaurentPoly, is_self_conjugate
from wittkit.exact.ratfunc import RatFunc, series_expand
from wittkit.exact.matrix import Matrix
from wittkit.exact.snf import SNFResult, smith_normal_form
from wittkit.exact.factor import factor_rational_poly
from wittkit.exact.roots import CertifiedRoot, hermitian_signature_at_root

__all__ = [
    "LaurentPoly",
    "is_self_conjugate",
    "RatFunc",
    "series_expand",
    "Matrix",
    "SNFResult",
    "smith_normal_form",
    "factor_rational_poly",
    "CertifiedRoot",
    "hermitian_signature_at_root",
]
