"""Rational functions in z over Q, with Novikov-style series expansions.

Canonical form: f = num / den where

* den is an ordinary monic polynomial with nonzero constant term (any unit
  z^k is pushed into num, any scalar into num's coefficients),
* num is a Laurent polynomial sharing no ordinary polynomial factor with den.

With den(0) != 0 the variable z is invertible modulo den, which gives a
canonical representative for the class of f modulo Laurent polynomials: the
unique c/den with c an ordinary polynomial of degree < deg den
(`frac_class`).  Linking form pairings live in these classes.

`series_expand` embeds f into either completion: side "plus" is Q((z))
(series in z, finitely many negative terms), side "minus" is Q((z^-1)).
"""

from __future__ import annotations

from fractions import Fraction
from typing import Union

from wittkit.errors import NotInvertibleInNovikov
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly

Scalar = Union[int, Fraction]


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

    @classmethod
    def zero(cls) -> "RatFunc":
        return cls(LaurentPoly.zero(), [Fraction(1)])

    @classmethod
    def one(cls) -> "RatFunc":
        return cls(LaurentPoly.one(), [Fraction(1)])

    # ---- queries ----

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def is_laurent(self) -> bool:
        return polys.deg(self.den) == 0

    def as_laurent(self) -> LaurentPoly:
        if not self.is_laurent():
            raise ValueError("not a Laurent polynomial")
        return self.num

    # ---- arithmetic ----

    def __add__(self, other) -> "RatFunc":
        other = _to_rf(other)
        d1 = LaurentPoly.from_dense(self.den)
        d2 = LaurentPoly.from_dense(other.den)
        return RatFunc.make(self.num * d2 + other.num * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "RatFunc":
        return RatFunc(-self.num, self.den)

    def __sub__(self, other) -> "RatFunc":
        return self + (-_to_rf(other))

    def __rsub__(self, other) -> "RatFunc":
        return _to_rf(other) - self

    def __mul__(self, other) -> "RatFunc":
        other = _to_rf(other)
        d1 = LaurentPoly.from_dense(self.den)
        d2 = LaurentPoly.from_dense(other.den)
        return RatFunc.make(self.num * other.num, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "RatFunc":
        if self.is_zero():
            raise NotInvertibleInNovikov("inverting zero")
        return RatFunc.make(LaurentPoly.from_dense(self.den), self.num)

    def __truediv__(self, other) -> "RatFunc":
        return self * _to_rf(other).inverse()

    def __rtruediv__(self, other) -> "RatFunc":
        return _to_rf(other) / self

    def bar(self) -> "RatFunc":
        """The involution z -> z^-1."""
        return RatFunc.make(self.num.bar(), LaurentPoly.from_dense(self.den).bar())

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction, LaurentPoly)):
            other = _to_rf(other)
        if not isinstance(other, RatFunc):
            return NotImplemented
        return self.num == other.num and self.den == other.den

    def __hash__(self) -> int:
        return hash((self.num, tuple(self.den)))

    def __repr__(self) -> str:
        if self.is_laurent():
            return repr(self.num)
        return f"({self.num!r}) / ({LaurentPoly.from_dense(self.den)!r})"

    # ---- classes modulo Laurent polynomials ----

    def frac_class(self) -> "RatFunc":
        """Canonical representative of [self] in Q(z) / Q[z,z^-1]: the unique
        c/den with c ordinary of degree < deg den (zero class -> 0)."""
        if self.is_laurent():
            return RatFunc.zero()
        den = self.den
        n0, m = self.num.ordinary()
        c = polys.mod(n0, den)
        if m > 0:
            zm = polys.mod([Fraction(0)] * m + [Fraction(1)], den)
            c = polys.mod(polys.mul(c, zm), den)
        elif m < 0:
            # den = 0 mod den, so z^-1 = -(den - den(0)) / (den(0) z)
            zinv = [-x / den[0] for x in den[1:]]
            for _ in range(-m):
                c = polys.mod(polys.mul(c, zinv), den)
        return RatFunc.make(LaurentPoly.from_dense(c), den)

    def class_equals(self, other) -> bool:
        return self.frac_class() == _to_rf(other).frac_class()


def _to_lp(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to LaurentPoly")


def _to_rf(x) -> RatFunc:
    if isinstance(x, RatFunc):
        return x
    return RatFunc.make(_to_lp(x))


def series_expand(f: RatFunc, side: str, lo: int, hi: int) -> dict[int, Fraction]:
    """Coefficients of the expansion of f in degrees lo..hi.

    side "plus": expansion in Q((z)); side "minus": in Q((z^-1)).  The two
    expansions agree exactly on Laurent polynomials and differ otherwise;
    their degree-0 discrepancy is what the trace function measures.
    """
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not isinstance(f, RatFunc):
        f = _to_rf(f)
    if not f.den:
        raise NotInvertibleInNovikov("zero denominator")
    out = {d: Fraction(0) for d in range(lo, hi + 1)}
    if f.is_zero():
        return out
    den = f.den
    D = polys.deg(den)
    num_degs = sorted(f.num.coeffs)
    if side == "plus":
        # 1/den = sum_{j>=0} b_j z^j, driven by den(0) != 0
        need = hi - num_degs[0]
        b = _inverse_coeffs(den, max(need, -1))
        for r, a in f.num.coeffs.items():
            for d in range(lo, hi + 1):
                j = d - r
                if 0 <= j <= need:
                    out[d] += a * b[j]
    else:
        # 1/den = sum_{j>=0} c_j z^(-D-j): the same recurrence on den reversed
        need = num_degs[-1] - D - lo
        c = _inverse_coeffs(den[::-1], max(need, -1))
        for r, a in f.num.coeffs.items():
            for d in range(lo, hi + 1):
                j = r - D - d
                if 0 <= j <= need:
                    out[d] += a * c[j]
    return out


def _inverse_coeffs(den: list, upto: int) -> list[Fraction]:
    """b_0, ..., b_upto with 1/den = sum_j b_j z^j in Q[[z]]; den(0) != 0."""
    b = [1 / den[0]]
    for j in range(1, upto + 1):
        b.append(-sum(den[i] * b[j - i]
                      for i in range(1, min(j, len(den) - 1) + 1)) / den[0])
    return b[:upto + 1]
