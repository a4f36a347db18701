"""Residue fields Q[z]/(P) on integers, for irreducible P with P(0) != 0.

The field keeps P primitive: integer coefficients with gcd 1 and leading
coefficient a > 0.  An element is its reduced pair (N, d), integers N of
degree < deg P over d > 0 with gcd(d, *N) = 1 as `matrix._reduced` makes
them, so equal pairs are equal elements (Cohen, GTM 138, ch. 4).  A
product is one integer product and one pseudo-remainder by P
(`polys.divmod_poly`), a division by z^k one of N reversed by P reversed
(von zur Gathen and Gerhard, ch. 9); an inverse solves the integer
multiplication matrix fraction-free (`matrix._solve`).  A self-conjugate
P (its reversal is +-P) gives the involution z -> 1/z: bar(N / d) is N
reversed, divided by z^(deg P - 1).  An element's value at a unit-circle
root of P is read from twice its real part in y = z + 1/z
(`polys.cos_poly`), N standing for N / d.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import zip_longest
from math import lcm

from wittkit.errors import SingularMatrix
from wittkit.exact import matrix, polys


class ResidueField:
    def __init__(self, modulus):
        p = polys.primitive(modulus)
        if len(p) < 2:
            raise ValueError("modulus must have positive degree")
        if not p[0]:
            raise ValueError("modulus must not vanish at 0")
        self.modulus = p
        self.degree = len(p) - 1
        self.self_conjugate = polys.self_conjugate(p)

    def element(self, num, den: int, shift: int = 0) -> "ResidueElem":
        """num z^shift / den for integers num and den != 0: r, num
        z^max(shift, 0) pseudo-reduced by P.  For shift = -k, n = deg P and
        rev_m read as of degree m and reversed, t rev_(n-1+k)(r) = Q rev(P)
        + R gives t r = Q' P + z^k rev_(n-1)(R): r z^-k = rev_(n-1)(R) / t."""
        p, n = self.modulus, self.degree
        _, num, s = polys.divmod_poly([0] * shift + list(num), p)
        if shift < 0 and num:
            rev = (num + [0] * (n - shift - len(num)))[::-1]
            _, r, t = polys.divmod_poly(rev, p[::-1])
            num, s = (r + [0] * (n - len(r)))[::-1], s * t
        num, den = matrix._reduced(polys.trim(num), den * s)
        return ResidueElem(self, tuple(num), den)

    def elem(self, coeffs) -> "ResidueElem":
        """The class of a dense polynomial with rational coefficients."""
        return self.element(*matrix._integral(coeffs))

    def zero(self) -> "ResidueElem":
        return ResidueElem(self, (), 1)

    def one(self) -> "ResidueElem":
        return ResidueElem(self, (1,), 1)

    def gen(self) -> "ResidueElem":
        return self.element([0, 1], 1)

    def bar_elem(self, e: "ResidueElem") -> "ResidueElem":
        if not self.self_conjugate:
            raise ValueError("involution requires a self-conjugate modulus")
        pad = (0,) * (self.degree - len(e.num))
        return self.element(pad + e.num[::-1], e.den, 1 - self.degree)


class ResidueElem:
    """num / den in `field`: a reduced integer pair, deg num < deg P."""

    __slots__ = ("field", "num", "den")

    def __init__(self, field: ResidueField, num: tuple, den: int):
        self.field = field
        self.num = num
        self.den = den

    def _coerce(self, other):
        if isinstance(other, ResidueElem):
            if other.field is not self.field and other.field.modulus != self.field.modulus:
                raise ValueError("mixed residue fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem([other])
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.num

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        den = lcm(self.den, o.den)
        s, t = den // self.den, den // o.den
        return self.field.element([s * x + t * y for x, y in zip_longest(
            self.num, o.num, fillvalue=0)], den)

    __radd__ = __add__

    def __neg__(self):
        return ResidueElem(self.field, tuple(-c for c in self.num), self.den)

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.element(polys.mul(self.num, o.num),
                                  self.den * o.den)

    __rmul__ = __mul__

    def inverse(self) -> "ResidueElem":
        """x with M x = 1 for self's multiplication matrix M, whose column
        j is z^j self = C_j / d_j: `matrix._solve` on the integer columns
        C_j gives x_j / d_j."""
        if not self.num:
            raise ZeroDivisionError("zero has no inverse")
        f, cols = self.field, [self]
        while len(cols) < f.degree:
            cols.append(f.element(cols[-1].num, cols[-1].den, 1))
        rows = [[c.num[i] if i < len(c.num) else 0 for c in cols]
                for i in range(f.degree)]
        try:
            y, delta = matrix._solve(rows, [[int(not i)] for i in range(
                f.degree)])
        except SingularMatrix:
            raise ValueError("modulus is not irreducible") from None
        return f.element([c.den * r[0] for c, r in zip(cols, y)], delta)

    def __pow__(self, n: int):
        out, base = self.field.one(), self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self) -> "ResidueElem":
        return self.field.bar_elem(self)

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.num == o.num and self.den == o.den

    def __repr__(self):
        terms = " + ".join(
            f"{c}*z^{i}" if i else f"{c}" for i, c in enumerate(self.num) if c
        )
        return f"Res(({terms or 0}) / {self.den})"
