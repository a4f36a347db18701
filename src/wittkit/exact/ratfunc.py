"""Rational functions in z over Q, with Novikov-style series expansions.

Canonical form: f = num / den where

* den is an ordinary monic polynomial with nonzero constant term (any unit
  z^k is pushed into num, any scalar into num's coefficients),
* num is a Laurent polynomial sharing no ordinary polynomial factor with den.

A `RatFunc` is built (`make`), compared and printed, but not by the
package: the tests' `QZ` subclasses it with the field operations of Q(z),
and the benchmark's `exact.ratfunc.make` span wraps `make`.

`series_expand` embeds num / den into either completion: side "plus" is
Q((z)) (series in z, finitely many negative terms), side "minus" is
Q((z^-1)).  It reads a numerator and a dense denominator, not a `RatFunc`,
so a linking form's entry num_ij / d_j* expands without being brought to
this canonical form.
"""

from __future__ import annotations

from fractions import Fraction

from wittkit.errors import NotInvertibleInNovikov
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly


class RatFunc:
    __slots__ = ("num", "den")

    def __init__(self, num: LaurentPoly, den: list):
        # Trusted constructor: invariants must already hold.  Use make().
        self.num = num
        self.den = den

    @classmethod
    def make(cls, num, den=None) -> "RatFunc":
        """Build and canonicalize num/den; both may be LaurentPoly, int or
        Fraction (den may also be a dense coefficient list)."""
        num = _to_lp(num)
        if den is None:
            den_dense = [Fraction(1)]
        elif isinstance(den, list):
            den_dense, k = LaurentPoly.from_dense(den).ordinary()
            num = num.shift(-k)
        else:
            den_lp = _to_lp(den)
            if den_lp.is_zero():
                raise ZeroDivisionError("zero denominator")
            den_dense, k = den_lp.ordinary()
            num = num.shift(-k)
        if not den_dense:
            raise ZeroDivisionError("zero denominator")
        if num.is_zero():
            return cls(LaurentPoly.zero(), [Fraction(1)])
        n0, m = num.ordinary()
        g = polys.gcd(n0, den_dense)
        if polys.deg(g) > 0:
            n0 = polys.divmod_poly(n0, g)[0]
            den_dense = polys.divmod_poly(den_dense, g)[0]
        lc = den_dense[-1]
        den_dense = [c / lc for c in den_dense]
        n0 = [c / lc for c in n0]
        return cls(LaurentPoly.from_dense(n0, m), den_dense)

    def is_laurent(self) -> bool:
        return polys.deg(self.den) == 0

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = RatFunc.make(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, tuple(self.den)))

    def __repr__(self) -> str:
        if self.is_laurent():
            return repr(self.num)
        return f"({self.num!r}) / ({LaurentPoly.from_dense(self.den)!r})"


def _to_lp(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to LaurentPoly")


def series_expand(num: LaurentPoly, den: list, side: str, lo: int,
                  hi: int) -> dict[int, Fraction]:
    """Coefficients in degrees lo..hi of the expansion of num / den, with
    den a dense ordinary polynomial, not necessarily monic or in lowest
    terms with num: the expansion is that of the function.

    side "plus": expansion in Q((z)), which needs den(0) != 0; side
    "minus": in Q((z^-1)), which needs den's top coefficient nonzero.  The
    two expansions agree exactly on Laurent polynomials and differ
    otherwise; their degree-0 discrepancy is what the trace function
    measures.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not den or not den[0 if side == "plus" else -1]:
        raise NotInvertibleInNovikov(f"denominator not invertible in the "
                                     f"{side} completion")
    out = {d: Fraction(0) for d in range(lo, hi + 1)}
    if num.is_zero():
        return out
    D = polys.deg(den)
    num_degs = sorted(num.coeffs)
    if side == "plus":
        # 1/den = sum_{j>=0} b_j z^j, driven by den(0) != 0
        need = hi - num_degs[0]
        b = _inverse_coeffs(den, max(need, -1))
        for r, a in num.coeffs.items():
            for d in range(lo, hi + 1):
                j = d - r
                if 0 <= j <= need:
                    out[d] += a * b[j]
    else:
        # 1/den = sum_{j>=0} c_j z^(-D-j): the same recurrence on den reversed
        need = num_degs[-1] - D - lo
        c = _inverse_coeffs(den[::-1], max(need, -1))
        for r, a in num.coeffs.items():
            for d in range(lo, hi + 1):
                j = r - D - d
                if 0 <= j <= need:
                    out[d] += a * c[j]
    return out


def _inverse_coeffs(den: list, upto: int) -> list[Fraction]:
    """b_0, ..., b_upto with 1/den = sum_j b_j z^j in Q[[z]]; den(0) != 0."""
    inv = Fraction(1) / den[0]
    b = [inv]
    for j in range(1, upto + 1):
        b.append(-inv * sum(den[i] * b[j - i]
                            for i in range(1, min(j, len(den) - 1) + 1)))
    return b[:upto + 1]
