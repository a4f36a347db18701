"""Certified unit-circle roots and exact signatures.

A unit-circle root pair e^{+-i*theta} of a self-conjugate irreducible factor
is pinned down by a rational interval around y0 = 2*cos(theta) together with
the minimal polynomial of y0 over Q, kept as its primitive integer multiple
(`polys.primitive`).  All sign decisions route through that data: an
integer polynomial g, standing for any positive multiple of it, has
g(y0) = 0 exactly when the minimal polynomial divides g, and otherwise
interval arithmetic on a shrinking bracket eventually certifies the sign.
Floating point appears only in the reported theta endpoints, never in a
decision.

When every root of a monic integral factor of degree n lies on the circle
(one root for n = 1, n/2 pairs otherwise), the factor is a cyclotomic
Phi_e by Kronecker's theorem, with e at most 2 n^2 since phi(e) >=
sqrt(e/2); `knots` reads the singular Levine-Tristram turns from this.

Signatures come from one congruence elimination yielding the leading
minors d_k, the signature being the sum of sign(d_k) sign(d_(k-1)): by
Bareiss on pairs of integer rows for hermitian matrices over Z[i]
(symmetric integer ones have every imaginary part 0), over a residue field
with its involution otherwise, on rows of `ResidueElem`s.  A hermitian
minor is fixed by the involution, so it is real at the root and equal to
its real part there, a polynomial in y, of which `polys.cos_poly` gives an
integer multiple whose sign at y0 is certified as above.  A hermitian
form is eliminated once and its minors are read at every root of the
field's modulus.
"""

from __future__ import annotations

import math
from fractions import Fraction

from wittkit.errors import SingularForm, check
from wittkit.exact import polys
from wittkit.exact.matrix import _integral

DEFAULT_PRECISION = Fraction(1, 2**64)


def _sign(x: Fraction) -> int:
    return (x > 0) - (x < 0)


def _sign_at(g, x: Fraction) -> int:
    """The sign of g(x) for an integer polynomial g."""
    return _sign(polys.value(g, x.numerator, x.denominator))


def _interval_horner(g, lo: Fraction, hi: Fraction) -> tuple:
    """Bounds for {q^deg(g) g(y) : lo <= y <= hi} by Horner on q y, q the
    common denominator of lo and hi: on integers for integer g."""
    (low, high), q = _integral([lo, hi])
    a = b = 0
    scale = 1
    for c in reversed(g):
        cands = (a * low, a * high, b * low, b * high)
        a, b = min(cands) + c * scale, max(cands) + c * scale
        scale *= q
    return a, b


class CertifiedRoot:
    """One root pair of a factor on the unit circle, certified by a rational
    bracket [lo, hi] around y0 = 2*cos(theta) and the minimal polynomial
    y_poly of y0, kept primitive on integers whether given on integers or
    rationals.  A point bracket (lo == hi) means y0 is rational."""

    def __init__(self, y_poly, lo, hi):
        self.y_poly = polys.primitive(y_poly)
        self.lo = Fraction(lo)
        self.hi = Fraction(hi)
        if self.lo > self.hi:
            raise ValueError("empty interval")
        # y_poly keeps this sign at lo as lo moves up to the root
        self._lo_sign = _sign_at(self.y_poly, self.lo)
        if self.lo == self.hi and self._lo_sign:
            raise ValueError("point interval must sit on a root")
        if self.lo < self.hi and (self._lo_sign * _sign_at(
                self.y_poly, self.hi) != -1):
            raise ValueError("interval endpoints must bracket one root")

    @property
    def is_rational(self) -> bool:
        return self.lo == self.hi

    def refine(self, width: Fraction) -> None:
        """Shrink the bracket below `width` by bisection.  A width <= 0 is
        refused unless the bracket is a point: an irrational root's
        bracket never gets there."""
        if width <= 0 and not self.is_rational:
            raise ValueError("refinement width must be positive")
        while self.hi - self.lo > width:
            self._bisect()

    def _bisect(self) -> None:
        mid = (self.lo + self.hi) / 2
        v = _sign_at(self.y_poly, mid)
        if v == 0:
            # minimal polynomials of irrational y0 have no rational roots
            self.lo = self.hi = mid
            return
        if v == self._lo_sign:
            self.lo = mid
        else:
            self.hi = mid

    def sign_of(self, g) -> int:
        """Certified sign of g(y0) for a dense integer polynomial g, or
        any positive multiple of it, from g's pseudo-remainder by y_poly
        (`polys.divmod_poly`), a positive multiple of its remainder."""
        rem = polys.divmod_poly(g, self.y_poly)[1]
        if not rem:
            return 0
        if self.is_rational:
            return _sign_at(rem, self.lo)
        while True:
            a, b = _interval_horner(rem, self.lo, self.hi)
            if a > 0:
                return 1
            if b < 0:
                return -1
            self._bisect()

    def theta_interval(self) -> tuple[float, float]:
        """Float bracket for theta = arccos(y0/2); reporting only, padded so
        rounding cannot put the true value outside."""
        pad = 1e-12
        t_lo = math.acos(min(1.0, max(-1.0, float(self.hi) / 2)))
        t_hi = math.acos(min(1.0, max(-1.0, float(self.lo) / 2)))
        return max(0.0, t_lo - pad), min(math.pi, t_hi + pad)

    def __repr__(self):
        a, b = self.theta_interval()
        return f"CertifiedRoot(theta in [{a:.6f}, {b:.6f}])"


def unit_circle_roots(
    dense: list, precision: Fraction = DEFAULT_PRECISION
) -> list[CertifiedRoot]:
    """Certified roots of an irreducible self-conjugate factor, dense,
    primitive and on integers (`polys.primitive`), on the upper unit
    circle (theta in [0, pi]), ordered by increasing theta."""
    if len(dense) == 2:
        if dense == [-1, 1]:  # z - 1, theta = 0
            return [CertifiedRoot([-2, 1], 2, 2)]
        if dense == [1, 1]:  # z + 1, theta = pi
            return [CertifiedRoot([2, 1], -2, -2)]
        return []
    y_poly = polys.primitive(polys.palindromic_to_y(dense))
    if polys.deg(y_poly) == 1:
        y0 = Fraction(-y_poly[0], y_poly[1])
        if -2 < y0 < 2:
            return [CertifiedRoot(y_poly, y0, y0)]
        return []
    out = []
    for a, b, d in polys.isolate_real_roots(y_poly, -2, 2):
        root = CertifiedRoot(y_poly, Fraction(a, d), Fraction(b, d))
        root.refine(precision)
        out.append(root)
    # theta increases as y decreases
    out.sort(key=lambda r: (-r.hi, -r.lo))
    return out


def _congruence_pivots(a: list) -> list:
    """Leading principal minors d_k of a matrix congruent to the hermitian
    one with rows `a` (consumed) over a residue field, by Bareiss's
    symmetric elimination: past d_k, an entry x of row r becomes
    (d_k x - r_k y) / d_(k-1), y in the pivot row, times d_(k-1)'s
    inverse.  With no nonzero diagonal left, adding c times row j and
    bar(c) times column j to row and column i makes a_ii = c bar(a_ij) +
    bar(c) a_ij: c = 1 unless a_ij + bar(a_ij) = 0, else c = a_ij; this is
    linear in the rows, so the divisions stay exact.  A zero block left
    over means the form is singular."""
    minors, div = [], lambda x: x  # d_0 = 1
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a)
                         for j, x in enumerate(row) if x), (None, None))
            if k is None:
                raise SingularForm("form is singular")
            e, ebar = a[k][j], a[k][j].bar()
            c, cbar = (1, 1) if e + ebar else (e, ebar)
            a[k] = [x + c * y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j] * cbar
        row = a.pop(k)
        piv = row.pop(k)
        minors.append(piv)
        if a:
            a = [[div(piv * x - r[k] * y)
                  for x, y in zip(r[:k] + r[k + 1:], row)] for r in a]
            if len(a) > 1:  # the last pivot divides nothing
                div = piv.inverse().__mul__
    return minors


def hermitian_signature_at_root(rows: list, roots: list) -> list[int]:
    """Signatures of the hermitian form with `rows` over Q[z]/(factor), one
    per root in `roots`, at the embeddings z -> e^{i*theta}: one
    elimination of copies of the rows, each leading minor N / d's real
    part in y taken once, from N as d > 0, and its sign read at every
    root.  Entries must be ResidueElem over a self-conjugate field, pivots
    inverted by `ResidueElem.inverse`; rows with rows[i][j] !=
    bar(rows[j][i]) are refused with InvariantViolated (the auxiliary
    forms of a certified covering form are hermitian), a singular form
    with SingularForm."""
    check(all(len(r) == len(rows) for r in rows) and all(
        x == y.bar() for r, col in zip(rows, zip(*rows))
        for x, y in zip(r, col)), "matrix is not hermitian")
    minors = [polys.cos_poly(d.num) for d in _congruence_pivots(
        [list(row) for row in rows])]
    signs = ([1] + [root.sign_of(g) for g in minors] for root in roots)
    return [sum(a * b for a, b in zip(s, s[1:])) for s in signs]


def signature_of_int_rows(re: list, im: list) -> int:
    """Signature of the nonsingular hermitian matrix re + i im over Z[i],
    given by the integer rows of its two parts (consumed; im all 0 for a
    symmetric one), SingularForm otherwise.  Bareiss on pairs of rows:
    each pivot is a leading minor, so it is real, and each division by the
    one before is exact on both parts.  With no nonzero diagonal left,
    row k gains c times row j and column k bar(c) times column j, with c
    as in `_congruence_pivots`: 1 unless Re(a_kj) = 0, else a_kj."""
    signs, prev = [1], 1
    while re:
        k = next((i for i in range(len(re)) if re[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i, (r, s) in enumerate(zip(re, im))
                         for j in range(len(r)) if r[j] or s[j]),
                        (None, None))
            if k is None:
                raise SingularForm("form is singular")
            cr, ci = (1, 0) if re[k][j] else (0, im[k][j])
            yr, yi = re[j], im[j]
            re[k] = [x + cr * a - ci * b for x, a, b in zip(re[k], yr, yi)]
            im[k] = [x + cr * b + ci * a for x, a, b in zip(im[k], yr, yi)]
            for r, s in zip(re, im):
                r[k], s[k] = (r[k] + cr * r[j] + ci * s[j],
                              s[k] + cr * s[j] - ci * r[j])
        yr, yi = re.pop(k), im.pop(k)
        piv, _ = yr.pop(k), yi.pop(k)
        signs.append(_sign(piv))
        pairs = [(r, s, r.pop(k), s.pop(k)) for r, s in zip(re, im)]
        re = [[(piv * x - a * p + b * q) // prev for x, p, q in zip(r, yr, yi)]
              for r, _, a, b in pairs]
        im = [[(piv * x - a * q - b * p) // prev for x, p, q in zip(s, yr, yi)]
              for _, s, a, b in pairs]
        prev = piv
    return sum(a * b for a, b in zip(signs, signs[1:]))
