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
field elements) divided out one row at a time."""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache

from wittkit.errors import SingularForm
from wittkit.exact import polys
from wittkit.exact.residue import ResidueElem

from snf_oracle import _faddeev_leverrier


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
        a, b = b, polys.sub(polys.mul([Fraction(0), Fraction(1)], b), a)
    return tuple(b)


def chebyshev_s(j: int):
    """S_j with (z^j - z^-j)/(z - 1/z) = S_j(z + 1/z) for j >= 1, extended to
    all integers by S_0 = 0 and S_{-j} = -S_j."""
    if j == 0:
        return []
    if j < 0:
        return polys.neg(chebyshev_s(-j))
    a, b = [Fraction(1)], [Fraction(0), Fraction(1)]
    if j == 1:
        return a
    for _ in range(j - 2):
        a, b = b, polys.sub(polys.mul([Fraction(0), Fraction(1)], b), a)
    return b


def palindromic_to_y(p):
    """Y of degree m with p(z) = z^m Y(z + 1/z), for palindromic p of even
    degree 2m, summed one Chebyshev polynomial at a time."""
    p = polys.trim(p)
    n = polys.deg(p)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    m = n // 2
    if any(p[i] != p[n - i] for i in range(m)):
        raise ValueError("polynomial is not palindromic")
    out = [p[m]]
    for j in range(1, m + 1):
        out = polys.add(out, polys.scal(p[m + j], chebyshev_q(j)))
    return polys.trim(out)


def phase_sign(u, shift: int, root, epsilon: int) -> int:
    """Sign of u(e^{i theta}) e^{-i shift theta} (epsilon +1) or of its ratio
    to i (epsilon -1), summed in the Q_j or S_j basis."""
    acc: list = []
    for j, c in enumerate(u.coeffs):
        if c == 0:
            continue
        k = j - shift
        if epsilon == 1:
            term = polys.scal(Fraction(c, 2), chebyshev_q(abs(k)))
        else:
            term = polys.scal(Fraction(c), chebyshev_s(k))
        acc = polys.add(acc, term)
    s = root.sign_of(acc)
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
    return polys.trim(sol)


def charpoly_in_y(h) -> list:
    """The characteristic polynomial of a hermitian matrix over a
    self-conjugate residue field, each coefficient written in y."""
    if h.nrows == 0:
        return [[Fraction(1)]]
    return [express_in_y(h[0, 0].field, c) for c in _faddeev_leverrier(h)[0]]


def descartes_signature_at_root(in_y, root) -> int:
    """Signature at the root from `charpoly_in_y`: coefficient signs at y0,
    then Descartes' rule."""
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


def fraction_signature_of_symmetric(m) -> int:
    """Signature of a nonsingular symmetric rational matrix from its
    `Fraction` pivots."""
    return sum(1 if piv > 0 else -1 for piv in congruence_pivots(
        [[Fraction(x) for x in row] for row in m.rows], lambda x: x))


def pivot_signatures_at_root(h, roots) -> list[int]:
    """The hermitian signatures at `roots` from field pivots, each pivot's
    real part in y read at every root."""
    pivots = [polys.cos_poly(piv.coeffs) for piv in congruence_pivots(
        [list(row) for row in h.rows], lambda x: x.bar())]
    return [sum(root.sign_of(g) for g in pivots) for root in roots]
