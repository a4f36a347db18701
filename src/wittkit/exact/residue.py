"""Residue fields Q[z]/(d) for monic irreducible d with d(0) != 0.

When d is self-conjugate (equal to its own reversal up to the forced scalar)
the field carries the involution z -> 1/z, computed as a coefficient
reversal times z^-(n-1), a power cached per field.  Signatures never solve
for the involution-fixed subfield: an element's value at a unit-circle root
of d is read from its real part written in y = z + 1/z (`polys.cos_poly`).

Elements are immutable dense coefficient tuples of length < deg(d).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property

from wittkit.exact import polys


class ResidueField:
    def __init__(self, modulus):
        mod = polys.trim([Fraction(c) for c in modulus])
        if polys.deg(mod) < 1:
            raise ValueError("modulus must have positive degree")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if mod[0] == 0:
            raise ValueError("modulus must not vanish at 0")
        self.modulus = mod
        self.degree = polys.deg(mod)
        # z * (d_n z^{n-1} + ... + d_1) = -d_0, so 1/z is a polynomial in z
        self._z_inv = polys.trim([-c / mod[0] for c in mod[1:]])
        rev = polys.monic(list(reversed(mod)))
        self.self_conjugate = rev == mod

    # -- element constructors --

    def elem(self, coeffs) -> "ResidueElem":
        dense = polys.mod([Fraction(c) for c in coeffs], self.modulus)
        return ResidueElem(self, tuple(dense))

    def zero(self) -> "ResidueElem":
        return ResidueElem(self, ())

    def one(self) -> "ResidueElem":
        return self.elem([1])

    def gen(self) -> "ResidueElem":
        return self.elem([0, 1])

    def from_laurent(self, p) -> "ResidueElem":
        """Image of a Laurent polynomial under z -> generator."""
        out = self.zero()
        zinv = ResidueElem(self, tuple(self._z_inv))
        for d, c in p.coeffs.items():
            power = self.gen() ** d if d >= 0 else zinv ** (-d)
            out = out + power * c
        return out

    # -- involution --

    @cached_property
    def _z_inv_top(self) -> "ResidueElem":
        """z^-(n-1) for n = deg(d), so that bar(e) = rev_n(e) * z^-(n-1):
        n - 1 steps of e / z = e_0 z^-1 + (e - e_0) / z, with no reduction."""
        e = [Fraction(1)]
        for _ in range(self.degree - 1):
            e = polys.add(e[1:], polys.scal(e[0], self._z_inv))
        return ResidueElem(self, tuple(e))

    def bar_elem(self, e: "ResidueElem") -> "ResidueElem":
        if not self.self_conjugate:
            raise ValueError("involution requires a self-conjugate modulus")
        pad = (Fraction(0),) * (self.degree - len(e.coeffs))
        rev = polys.trim(pad + e.coeffs[::-1])
        return self._z_inv_top * ResidueElem(self, tuple(rev))


class ResidueElem:
    __slots__ = ("field", "coeffs")

    def __init__(self, field: ResidueField, coeffs: tuple):
        self.field = field
        self.coeffs = coeffs

    def _coerce(self, other):
        if isinstance(other, ResidueElem):
            if other.field is not self.field and other.field.modulus != self.field.modulus:
                raise ValueError("mixed residue fields")
            return other
        if isinstance(other, (int, Fraction)):
            return self.field.elem([other])
        return NotImplemented

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __add__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.elem(polys.add(list(self.coeffs), list(o.coeffs)))

    __radd__ = __add__

    def __neg__(self):
        return ResidueElem(self.field, tuple(-c for c in self.coeffs))

    def __sub__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self + (-o)

    def __rsub__(self, other):
        return (-self) + other

    def __mul__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.field.elem(polys.mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "ResidueElem":
        if not self.coeffs:
            raise ZeroDivisionError("zero has no inverse")
        g, s, _ = polys.ext_gcd(list(self.coeffs), self.field.modulus)
        if polys.deg(g) != 0:
            raise ValueError("modulus is not irreducible")
        return self.field.elem(polys.scal(1 / g[0], s))

    def __truediv__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self * o.inverse()

    def __rtruediv__(self, other):
        return self.inverse() * other

    def __pow__(self, n: int):
        if n < 0:
            return self.inverse() ** (-n)
        out = self.field.one()
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def bar(self) -> "ResidueElem":
        return self.field.bar_elem(self)

    def one(self) -> "ResidueElem":
        return self.field.one()

    def __eq__(self, other):
        o = self._coerce(other)
        if o is NotImplemented:
            return o
        return self.coeffs == o.coeffs

    def __hash__(self):
        return hash((tuple(self.field.modulus), self.coeffs))

    def __repr__(self):
        if not self.coeffs:
            return "Res(0)"
        terms = " + ".join(
            f"{c}*z^{i}" if i else f"{c}" for i, c in enumerate(self.coeffs) if c
        )
        return f"Res({terms})"
