"""Rational functions in z over Q, with Novikov-style series expansions.

Canonical form: f = num / den where

* den is an ordinary monic polynomial with nonzero constant term (any unit
  z^k is pushed into num, any scalar into num's coefficients),
* num is a Laurent polynomial sharing no ordinary polynomial factor with den.

A `RatFunc` is built (`make`), compared and printed, but not by the
package: the tests' `QZ` subclasses it with the field operations of Q(z),
and the benchmark's `exact.ratfunc.make` span wraps `make`.

`series_ints` embeds N / (d D) into either completion: side "plus" is
Q((z)) (series in z, finitely many negative terms), side "minus" is
Q((z^-1)).  It reads an integer pair (N, d) and a dense integer D, as a
linking form stores an entry, and returns integers over one scale, which
the monodromy reads; `series_expand` is their view, a `Fraction` a degree.
"""

from __future__ import annotations

from fractions import Fraction
from operator import mul

from wittkit.errors import NotInvertibleInNovikov
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import _integral


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
        # (N / d_n) / (D / d_d), N and D divided exactly by their gcd
        (big_n, d_n), (big_d, d_d) = _integral(n0), _integral(den_dense)
        g = polys.gcd(big_n, big_d)
        if len(g) > 1:
            big_n = polys.divmod_poly(big_n, g)[0]
            big_d = polys.divmod_poly(big_d, g)[0]
        lc = big_d[-1]
        return cls(LaurentPoly.from_dense(
            [Fraction(c * d_d, lc * d_n) for c in big_n], m),
            [Fraction(c, lc) for c in big_d])

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


def series_ints(num: tuple, den: list, side: str, lo: int,
                hi: int) -> tuple[list, int]:
    """Coefficients c_lo..c_hi of the expansion of N / (d D) as (C, s), c_k
    = C[k - lo] / s, num = (N, d) with N dense from degree 0 and den = D on
    integers, not necessarily in lowest terms: that of the function.

    side "plus": expansion in Q((z)), which needs den(0) != 0; side
    "minus": in Q((z^-1)), which needs den's top coefficient nonzero.  The
    two expansions agree exactly on Laurent polynomials and differ
    otherwise; their degree-0 discrepancy is what the trace function
    measures.

    On integers: 1/D = sum_j B_j z^j / D_0^(j+1) by the recurrence
    B_j = -sum_i D_i B_(j-i) D_0^(i-1), B_0 = 1: s = d D_0^(need+1).  Side
    "minus" is "plus" on D reversed, N's degree r read as deg D - r.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not den or not den[0 if side == "plus" else -1]:
        raise NotInvertibleInNovikov(f"denominator not invertible in the "
                                     f"{side} completion")
    out = [0] * max(hi + 1 - lo, 0)
    terms, sign = [(r, x) for r, x in enumerate(num[0]) if x], 1
    if not terms or not out:
        return out, num[1]
    if side == "minus":
        terms = [(len(den) - 1 - r, x) for r, x in terms]
        den, sign = den[::-1], -1
    need, d0 = max(lo * sign, hi * sign) - min(r for r, _ in terms), den[0]
    if need < 0:  # every degree lies below num / den's lowest term
        return out, num[1]
    steps = [x * d0 ** i for i, x in enumerate(den[1:need + 1])]
    b = [1]
    for _ in range(need):
        b.append(-sum(map(mul, steps, reversed(b))))
    # b_0, ..., b_need over the one denominator D_0^(need+1)
    b = [x * d0 ** (need - j) for j, x in enumerate(b)]
    return ([sum(x * b[j] for r, x in terms if 0 <= (j := sign * d - r) <= need)
             for d in range(lo, hi + 1)], num[1] * d0 ** (need + 1))


def series_expand(num: tuple, den: list, side: str, lo: int,
                  hi: int) -> dict[int, Fraction]:
    """`series_ints` as a `Fraction` per degree, which the trace reads."""
    coeffs, scale = series_ints(num, den, side, lo, hi)
    return {lo + k: Fraction(c, scale) for k, c in enumerate(coeffs)}
