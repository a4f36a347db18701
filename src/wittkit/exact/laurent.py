"""Laurent polynomials over Q with the involution z -> z^-1.

A Laurent polynomial is stored as a dict mapping integer degrees to nonzero
Fractions.  The empty dict is the zero polynomial.  All operations return new
objects; instances are treated as immutable (and are hashable).

The involution ("bar") negates every degree.  A polynomial p is called
self-conjugate when bar(p) differs from p only by a unit +-z^k; factors are
tested on their integer lists (`polys.self_conjugate`).
"""

from __future__ import annotations

from fractions import Fraction


def _frac(x: int | Fraction) -> Fraction:
    return x if isinstance(x, Fraction) else Fraction(x)


class LaurentPoly:
    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, int | Fraction] | None = None):
        clean: dict[int, Fraction] = {}
        if coeffs:
            for d, c in coeffs.items():
                f = _frac(c)
                if f:
                    clean[int(d)] = f
        self.coeffs = clean

    # ---- constructors ----

    @classmethod
    def zero(cls) -> "LaurentPoly":
        return cls()

    @classmethod
    def one(cls) -> "LaurentPoly":
        return cls({0: 1})

    @classmethod
    def z(cls, k: int = 1) -> "LaurentPoly":
        return cls({k: 1})

    @classmethod
    def const(cls, c: int | Fraction) -> "LaurentPoly":
        return cls({0: c})

    @classmethod
    def monomial(cls, c: int | Fraction, k: int) -> "LaurentPoly":
        return cls({k: c})

    @classmethod
    def from_dense(cls, coeffs: list, offset: int = 0) -> "LaurentPoly":
        """coeffs[i] is the coefficient of z^(offset+i)."""
        return cls({offset + i: c for i, c in enumerate(coeffs)})

    # ---- queries ----

    def is_zero(self) -> bool:
        return not self.coeffs

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def min_deg(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return min(self.coeffs)

    def max_deg(self) -> int:
        if not self.coeffs:
            raise ValueError("zero polynomial has no degree")
        return max(self.coeffs)

    def coefficient(self, d: int) -> Fraction:
        return self.coeffs.get(d, Fraction(0))

    def is_unit(self) -> bool:
        """Units of Q[z, z^-1] are the nonzero monomials c*z^k."""
        return len(self.coeffs) == 1

    # ---- arithmetic ----

    def __add__(self, other: "LaurentPoly") -> "LaurentPoly":
        other = _coerce(other)
        out = dict(self.coeffs)
        for d, c in other.coeffs.items():
            s = out.get(d, Fraction(0)) + c
            if s:
                out[d] = s
            else:
                out.pop(d, None)
        return LaurentPoly(out)

    __radd__ = __add__

    def __neg__(self) -> "LaurentPoly":
        return LaurentPoly({d: -c for d, c in self.coeffs.items()})

    def __sub__(self, other: "LaurentPoly") -> "LaurentPoly":
        return self + (-_coerce(other))

    def __rsub__(self, other) -> "LaurentPoly":
        return _coerce(other) - self

    def __mul__(self, other) -> "LaurentPoly":
        if isinstance(other, (int, Fraction)):
            f = _frac(other)
            if not f:
                return LaurentPoly()
            return LaurentPoly({d: c * f for d, c in self.coeffs.items()})
        other = _coerce(other)
        out: dict[int, Fraction] = {}
        for d1, c1 in self.coeffs.items():
            for d2, c2 in other.coeffs.items():
                d = d1 + d2
                s = out.get(d, Fraction(0)) + c1 * c2
                if s:
                    out[d] = s
                else:
                    out.pop(d, None)
        return LaurentPoly(out)

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "LaurentPoly":
        if n < 0:
            if not self.is_unit():
                raise ValueError("negative power of a non-unit")
            ((d, c),) = self.coeffs.items()
            return LaurentPoly.monomial(c**n, d * n)
        result = LaurentPoly.one()
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def shift(self, k: int) -> "LaurentPoly":
        """Multiply by z^k."""
        return LaurentPoly({d + k: c for d, c in self.coeffs.items()})

    def bar(self) -> "LaurentPoly":
        """The involution z -> z^-1."""
        return LaurentPoly({-d: c for d, c in self.coeffs.items()})

    def __call__(self, x: int | Fraction) -> Fraction:
        x = _frac(x)
        if x == 0 and self.coeffs and self.min_deg() < 0:
            raise ZeroDivisionError("evaluating negative powers at 0")
        total = Fraction(0)
        for d, c in self.coeffs.items():
            total += c * x**d
        return total

    # ---- structure ----

    def ordinary(self) -> tuple[list[Fraction], int]:
        """Write self = z^k * q with q an ordinary polynomial, q(0) != 0.

        Returns (dense coefficients of q, k).  Zero maps to ([], 0).
        """
        if not self.coeffs:
            return [], 0
        k, zero = self.min_deg(), Fraction(0)
        return [self.coeffs.get(d, zero)
                for d in range(k, self.max_deg() + 1)], k

    def __eq__(self, other) -> bool:
        if isinstance(other, (int, Fraction)):
            other = LaurentPoly.const(other)
        if not isinstance(other, LaurentPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(frozenset(self.coeffs.items()))

    def __repr__(self) -> str:
        if not self.coeffs:
            return "0"
        parts = []
        for d in sorted(self.coeffs):
            c = self.coeffs[d]
            if d == 0:
                parts.append(f"{c}")
            elif d == 1:
                parts.append(f"{c}*z" if c != 1 else "z")
            else:
                parts.append(f"{c}*z^{d}" if c != 1 else f"z^{d}")
        return " + ".join(parts).replace("+ -", "- ")


def _coerce(x) -> LaurentPoly:
    if isinstance(x, LaurentPoly):
        return x
    if isinstance(x, (int, Fraction)):
        return LaurentPoly.const(x)
    raise TypeError(f"cannot coerce {type(x)!r} to LaurentPoly")
