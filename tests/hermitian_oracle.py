"""Oracles for the signatures read at a unit-circle root.

The route wittkit took before one congruence diagonalization served every
signature: the characteristic polynomial of a hermitian matrix over a
residue field (Faddeev-LeVerrier), each of its coefficients rewritten as a
rational polynomial in y = z + 1/z by solving for the involution-fixed
subfield, and the eigenvalues of each sign counted by Descartes' rule.
Beside it, the Chebyshev families Q_j and S_j, each walked from the start
of its recurrence, which the old `palindromic_to_y` and `_phase_sign`
summed term by term; and the congruence diagonalization over a field that
the fraction-free elimination replaced, whose pivots are `Fraction`s (or
field elements) divided out one row at a time.  Under all of them, the
residue field that `wittkit.exact.residue` replaced: dense `Fraction`
tuples over the monic modulus, inverses by Euclid over Q (`ext_gcd`) and
the involution as a product with a cached z^-(n-1); `as_oracle` carries
an element of the integer field over, and `laurent_class` puts a Laurent
polynomial into the integer field, as `ResidueField.from_laurent` did
when the library had a caller for it."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property, lru_cache

from wittkit.errors import SingularForm
from wittkit.exact import polys
from wittkit.exact import residue as wittkit_residue
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix, _integral
from wittkit.exact.roots import (
    DEFAULT_PRECISION,
    signature_of_int_rows,
    unit_circle_roots,
)
from wittkit.laurent_forms import SIGMA_SIGN

from factor_oracle import as_laurent, is_self_conjugate
import qpolys


# ---- the residue field on Fraction tuples over the monic modulus ----

def ext_gcd(p, q) -> tuple[list, list, list]:
    """Monic g with g = s*p + t*q; returns (g, s, t)."""
    a, b = qpolys.trim(p), qpolys.trim(q)
    sa, sb = [Fraction(1)], []
    ta, tb = [], [Fraction(1)]
    while b:
        quot, rem = qpolys.divmod_poly(a, b)
        a, b = b, rem
        sa, sb = sb, qpolys.sub(sa, qpolys.mul(quot, sb))
        ta, tb = tb, qpolys.sub(ta, qpolys.mul(quot, tb))
        if b:  # a monic remainder keeps the coefficients small
            inv = 1 / b[-1]
            b, sb, tb = (qpolys.scal(inv, b), qpolys.scal(inv, sb),
                         qpolys.scal(inv, tb))
    if not a:
        return [], [], []
    lc = a[-1]
    inv = Fraction(1) / lc
    return qpolys.scal(inv, a), qpolys.scal(inv, sa), qpolys.scal(inv, ta)


class ResidueField:
    """Q[z]/(d) for a monic irreducible d with d(0) != 0, on dense
    `Fraction` tuples of length < deg(d)."""

    def __init__(self, modulus):
        mod = qpolys.trim([Fraction(c) for c in modulus])
        if qpolys.deg(mod) < 1:
            raise ValueError("modulus must have positive degree")
        if mod[-1] != 1:
            raise ValueError("modulus must be monic")
        if mod[0] == 0:
            raise ValueError("modulus must not vanish at 0")
        self.modulus = mod
        self.degree = qpolys.deg(mod)
        # z * (d_n z^{n-1} + ... + d_1) = -d_0, so 1/z is a polynomial in z
        self._z_inv = qpolys.trim([-c / mod[0] for c in mod[1:]])
        rev = qpolys.monic(list(reversed(mod)))
        self.self_conjugate = rev == mod

    # -- element constructors --

    def elem(self, coeffs) -> "ResidueElem":
        dense = qpolys.mod([Fraction(c) for c in coeffs], self.modulus)
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
            e = qpolys.add(e[1:], qpolys.scal(e[0], self._z_inv))
        return ResidueElem(self, tuple(e))

    def bar_elem(self, e: "ResidueElem") -> "ResidueElem":
        if not self.self_conjugate:
            raise ValueError("involution requires a self-conjugate modulus")
        pad = (Fraction(0),) * (self.degree - len(e.coeffs))
        rev = qpolys.trim(pad + e.coeffs[::-1])
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
        return self.field.elem(qpolys.add(list(self.coeffs), list(o.coeffs)))

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
        return self.field.elem(qpolys.mul(list(self.coeffs), list(o.coeffs)))

    __rmul__ = __mul__

    def inverse(self) -> "ResidueElem":
        if not self.coeffs:
            raise ZeroDivisionError("zero has no inverse")
        g, s, _ = ext_gcd(list(self.coeffs), self.field.modulus)
        if qpolys.deg(g) != 0:
            raise ValueError("modulus is not irreducible")
        return self.field.elem(qpolys.scal(1 / g[0], s))

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


def as_oracle(e: wittkit_residue.ResidueElem) -> ResidueElem:
    """The oracle's element with the value of a `wittkit.exact.residue`
    element, over the monic modulus."""
    return _oracle_field(tuple(e.field.modulus)).elem(
        [Fraction(c, e.den) for c in e.num])


def laurent_class(field: wittkit_residue.ResidueField, p: LaurentPoly):
    """The class of a Laurent polynomial in a `wittkit.exact.residue`
    field: its numerator as an ordinary polynomial, reduced once."""
    dense, low = p.ordinary()
    return field.element(*_integral(dense), low)


def as_oracle_matrix(m):
    return m.map(as_oracle)


@lru_cache(maxsize=None)
def _oracle_field(modulus: tuple) -> ResidueField:
    return ResidueField(qpolys.monic([Fraction(c) for c in modulus]))


def descartes_positive_roots(coeffs) -> int:
    """Sign variation count of the coefficient list: the number of positive
    roots, with multiplicity, of a polynomial whose roots are all real."""
    signs = [1 if c > 0 else -1 for c in coeffs if c != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def descartes_signature(coeff_signs) -> int:
    """Signature from the signs of a real-rooted characteristic polynomial
    (constant term first, nonzero)."""
    flipped = [s if i % 2 == 0 else -s for i, s in enumerate(coeff_signs)]
    return (descartes_positive_roots(coeff_signs)
            - descartes_positive_roots(flipped))


# ---- the Chebyshev families, one at a time ----

def chebyshev_q(j: int):
    """Q_j with z^j + z^-j = Q_j(z + 1/z):  Q_0 = 2, Q_1 = y,
    Q_{j+1} = y*Q_j - Q_{j-1}."""
    return list(_chebyshev_q(j))


@lru_cache(maxsize=None)
def _chebyshev_q(j: int) -> tuple:
    # cached only so that the tests can afford this route on Phi_d, d <= 120
    a, b = [Fraction(2)], [Fraction(0), Fraction(1)]
    if j == 0:
        return tuple(a)
    for _ in range(j - 1):
        a, b = b, qpolys.sub(qpolys.mul([Fraction(0), Fraction(1)], b), a)
    return tuple(b)


def chebyshev_s(j: int):
    """S_j with (z^j - z^-j)/(z - 1/z) = S_j(z + 1/z) for j >= 1, extended to
    all integers by S_0 = 0 and S_{-j} = -S_j."""
    if j == 0:
        return []
    if j < 0:
        return qpolys.neg(chebyshev_s(-j))
    a, b = [Fraction(1)], [Fraction(0), Fraction(1)]
    if j == 1:
        return a
    for _ in range(j - 2):
        a, b = b, qpolys.sub(qpolys.mul([Fraction(0), Fraction(1)], b), a)
    return b


def palindromic_to_y(p):
    """Y of degree m with p(z) = z^m Y(z + 1/z), for palindromic p of even
    degree 2m, summed one Chebyshev polynomial at a time."""
    p = qpolys.trim(p)
    n = qpolys.deg(p)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    m = n // 2
    if any(p[i] != p[n - i] for i in range(m)):
        raise ValueError("polynomial is not palindromic")
    out = [p[m]]
    for j in range(1, m + 1):
        out = qpolys.add(out, qpolys.scal(p[m + j], chebyshev_q(j)))
    return qpolys.trim(out)


def phase_sign(u, shift: int, root, epsilon: int) -> int:
    """Sign of u(e^{i theta}) e^{-i shift theta} (epsilon +1) or of its ratio
    to i (epsilon -1), summed in the Q_j or S_j basis."""
    acc: list = []
    for j, c in enumerate(u.coeffs):
        if c == 0:
            continue
        k = j - shift
        if epsilon == 1:
            term = qpolys.scal(Fraction(c, 2), chebyshev_q(abs(k)))
        else:
            term = qpolys.scal(Fraction(c), chebyshev_s(k))
        acc = qpolys.add(acc, term)
    s = root.sign_of(qpolys.ints(acc))
    if s == 0:
        raise ArithmeticError("normalizing unit vanished at a root")
    return s


# ---- the fixed subfield Q(y) of a residue field ----

def y_elem(field) -> ResidueElem:
    return field.gen() + ResidueElem(field, tuple(field._z_inv))


@lru_cache(maxsize=None)
def _y_columns(field):
    """Coefficient columns of 1, y, ..., y^(m-1), m = [Q(y) : Q]."""
    m = 1 if field.degree == 1 else field.degree // 2
    cols, power, y = [], field.one(), y_elem(field)
    for _ in range(m):
        cols.append(list(power.coeffs) + [Fraction(0)] * (
            field.degree - len(power.coeffs)))
        power = power * y
    return cols


def express_in_y(field, e) -> list:
    """Dense coefficients g with e = g(y), or ValueError if e is not fixed by
    the involution: Gauss-Jordan on the augmented system."""
    cols = _y_columns(field)
    m = len(cols)
    aug = [[cols[j][i] for j in range(m)] + [
        e.coeffs[i] if i < len(e.coeffs) else Fraction(0)]
        for i in range(field.degree)]
    row, pivots = 0, []
    for col in range(m):
        piv = next((r for r in range(row, field.degree) if aug[r][col]), None)
        if piv is None:
            continue
        aug[row], aug[piv] = aug[piv], aug[row]
        pv = aug[row][col]
        aug[row] = [x / pv for x in aug[row]]
        for r in range(field.degree):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [a - f * b for a, b in zip(aug[r], aug[row])]
        pivots.append(col)
        row += 1
    if any(aug[r][m] for r in range(row, field.degree)):
        raise ValueError("element is not in the fixed subfield")
    sol = [Fraction(0)] * m
    for r, col in enumerate(pivots):
        sol[col] = aug[r][m]
    return qpolys.trim(sol)


def charpoly_in_y(h) -> list:
    """The characteristic polynomial of a hermitian matrix over a
    self-conjugate residue field, each coefficient written in y."""
    # snf_oracle reaches this module through covering_oracle
    from snf_oracle import _faddeev_leverrier

    if h.nrows == 0:
        return [[Fraction(1)]]
    return [express_in_y(h[0, 0].field, c) for c in _faddeev_leverrier(h)[0]]


def descartes_signature_at_root(in_y, root) -> int:
    """Signature at the root from `charpoly_in_y`: coefficient signs at y0,
    then Descartes' rule."""
    in_y = [qpolys.ints(g) for g in in_y]
    if root.sign_of(in_y[0]) == 0:
        raise SingularForm("hermitian form is singular at this root")
    return descartes_signature([root.sign_of(g) for g in in_y])


def charpoly_signature_at_root(h, root) -> int:
    """The old `hermitian_signature_at_root`."""
    return descartes_signature_at_root(charpoly_in_y(h), root)


# ---- congruence pivots over a field ----

def congruence_pivots(a: list, bar) -> list:
    """Pivots of a congruence diagonalization of the hermitian matrix with
    rows `a` (consumed) over a field with involution `bar`; the zero-diagonal
    step adds c times row j and bar(c) times column j to row and column i,
    with c = 1 unless a_ij + bar(a_ij) = 0, else c = a_ij."""
    pivots = []
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a)
                         for j, x in enumerate(row) if x), (None, None))
            if k is None:
                raise SingularForm("form is singular")
            e, ebar = a[k][j], bar(a[k][j])
            c, cbar = (1, 1) if e + ebar else (e, ebar)
            a[k] = [x + c * y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j] * cbar
        row = a.pop(k)
        piv = row.pop(k)
        pivots.append(piv)
        if a:
            inv = 1 / piv
            row = [y * inv for y in row]
            a = [[x - r[k] * y for x, y in zip(r[:k] + r[k + 1:], row)]
                 for r in a]
    return pivots


def signature_of_symmetric(m) -> int:
    """Signature of a nonsingular symmetric rational matrix (SingularForm
    otherwise): its rows scaled by the lcm of its denominators, then
    `roots.signature_of_int_rows` with every imaginary part 0, as
    `wittkit` took it before its callers handed it integer rows."""
    den = math.lcm(*(Fraction(x).denominator for row in m.rows for x in row))
    return signature_of_int_rows([[Fraction(x).numerator
                                   * (den // Fraction(x).denominator)
                                   for x in row] for row in m.rows],
                                 [[0] * len(row) for row in m.rows])


def fraction_signature_of_symmetric(m) -> int:
    """Signature of a nonsingular symmetric rational matrix from its
    `Fraction` pivots."""
    return sum(1 if piv > 0 else -1 for piv in congruence_pivots(
        [[Fraction(x) for x in row] for row in m.rows], lambda x: x))


def pivot_signatures_at_root(h, roots) -> list[int]:
    """The hermitian signatures at `roots` from field pivots, each pivot's
    real part in y read at every root."""
    pivots = [qpolys.ints(qpolys.cos_poly(piv.coeffs)) for piv in congruence_pivots(
        [list(row) for row in h.rows], lambda x: x.bar())]
    return [sum(root.sign_of(g) for g in pivots) for root in roots]


# ---- the multisignature on the Fraction field ----

def _monic_dense(p: LaurentPoly) -> list:
    return qpolys.monic(p.ordinary()[0])


def _fraction_split(divisors: list, dense_p: list) -> dict:
    """Divisor index -> (valuation, d_i / p^l) by division over Q, for the
    divisors p divides."""
    out = {}
    for i, d in enumerate(divisors):
        q, level = _monic_dense(d), 0
        while len(q) >= len(dense_p) and not (
                qr := qpolys.divmod_poly(q, dense_p))[1]:
            q, level = qr[0], level + 1
        if level:
            out[i] = level, LaurentPoly.from_dense(q)
    return out


def fraction_auxiliary(form, p, l: int) -> tuple:
    """(gram, unit, symmetry) of the level-l form at the self-conjugate
    factor p as wittkit built it on the `Fraction` field: valuations and
    cofactors d_i / p^l by division over Q, each entry the Laurent product
    num_ij cof_i u^l z^(-D_j) read by `from_laurent`, and the gram
    normalized by the first nonzero Hilbert-90 probe c0 + v bar(c0), on
    the parent's form of the records (`covering_oracle.parent_form`)."""
    from covering_oracle import parent_form  # it imports this module
    form = parent_form(form)
    dense_p = _monic_dense(p)
    unit = is_self_conjugate(LaurentPoly.from_dense(dense_p))
    field = ResidueField(dense_p)
    cof = {i: c for i, (level, c)
           in _fraction_split(form.divisors, dense_p).items() if level == l}
    gram = Matrix([[field.from_laurent(
        form.num[i, j] * cof[i] * unit**l
        * LaurentPoly.monomial(1, -form.divisors[j].max_deg()))
        for j in cof] for i in cof])
    v = field.from_laurent(unit**l) * form.epsilon
    if field.degree == 1:
        return gram, None, 1 if v == field.one() else -1
    gen = field.gen()
    probes = [field.one(), gen, field.one() + gen] + [
        gen ** k for k in range(2, field.degree + 1)]
    u = next(u for u in (c0 + v * c0.bar() for c0 in probes)
             if not u.is_zero())
    return gram.map(lambda x: u.bar() * x), u, 1


def fraction_pivot_signs(gram, roots) -> list:
    """Per root, the signs of the leading minors of the hermitian gram:
    running products of the signs of its `congruence_pivots`."""
    pivots = [qpolys.ints(qpolys.cos_poly(piv.coeffs)) for piv in congruence_pivots(
        [list(row) for row in gram.rows], lambda x: x.bar())]
    out = []
    for root in roots:
        signs, s = [], 1
        for g in pivots:
            s *= root.sign_of(g)
            signs.append(s)
        out.append(signs)
    return out


def fraction_multisignature(form, precision=DEFAULT_PRECISION) -> tuple:
    """(signatures, rank_only) of `dw_multisignature_laurent` from
    `fraction_auxiliary`, the field-pivot signatures and the Chebyshev
    `phase_sign`; SingularForm where a level form is singular."""
    from covering_oracle import parent_form  # it imports this module
    sigs, ranks, divisors = {}, {}, parent_form(form).divisors
    for p, _ in as_laurent(form.module.factors):
        if is_self_conjugate(p) is None:
            continue
        roots = unit_circle_roots(polys.primitive(p.ordinary()[0]), precision)
        if not roots:
            continue
        dense_p = _monic_dense(p)
        key, deg = tuple(dense_p), len(dense_p) - 1
        levels = {level for level, _
                  in _fraction_split(divisors, dense_p).values()}
        for l in sorted(levels):
            gram, u, symmetry = fraction_auxiliary(form, p, l)
            if symmetry != 1:
                if not gram.map(lambda x: sum(x.coeffs, Fraction(0))).det():
                    raise SingularForm("skew level form is singular")
                ranks[(key, l)] = gram.nrows
                continue
            per_root = pivot_signatures_at_root(gram, roots)
            for ridx, (root, sig) in enumerate(zip(roots, per_root)):
                if deg == 1:
                    sigs[(key, 0, l)] = SIGMA_SIGN * sig
                    continue
                flip = phase_sign(u, deg // 2 * l, root, form.epsilon)
                orient = root.sign_of(qpolys.derivative(root.y_poly)) \
                    if l % 2 else 1
                sigs[(key, ridx, l)] = SIGMA_SIGN * flip * orient * 2 * sig
    return sigs, ranks
