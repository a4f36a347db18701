"""Oracles for the Levine-Tristram step function in `wittkit.knots`.

The cyclotomic polynomial Phi_d, by dividing z^d - 1 by every Phi_e with
e | d, e < d, gives the division test "Phi_d divides D" against which the
step function's singular turns, read off D's factors, are checked.  The
per-call route the step function replaced: the minimal polynomial of
y0 = 2 cos(2 pi t) from Phi_d, an isolating
bracket of y0 from a float window, the knot's polynomial D_y rebuilt on
every call, and a padded bracket of y0 free of D_y's zeros, in which the
signature is taken over Q at a rational u = tan(pi t).  Below it, the older
route over the cyclotomic field Q(zeta_d): the hermitian form diagonalized
there by `hermitian_signature_at_root`, each pivot's sign decided at the
certified root, so it also checks that route against the one over Q.
And D itself by the route `_det_one_minus` took before its characteristic
polynomial went division-free: Faddeev-LeVerrier over `Fraction`s, then
Horner over `LaurentPoly`.  And the order e of a cyclotomic factor Phi_e
by the recurrence on z^e mod Phi_e the step function once ran on its own
(`cyclotomic_order`).  And the enclosure of 2 cos(2 pi t) as it was
before pi was computed once per precision: Machin's formula on every
call.  And the step function as it was built before D, its factors and
their circle roots ran on integer lists (`laurent_steps`): D from
`Matrix.charpoly` of e with a `Fraction` integrality check, as a
`LaurentPoly`; its factors from `factor_rational_poly` as monic
`LaurentPoly`s (`factor_oracle.laurent_factors`), self-conjugacy from
`is_self_conjugate`; the gap signatures over a `Matrix` through
`signature_of_symmetric`.  And the gap signature as it was taken before
it went over Z[i] (`realified_signature_at_u`): half the signature of the
real symmetric 2n x 2n realification [[u S, -K], [K, u S]] of the
hermitian u S + i K, by Bareiss on integers as the integer route of
`roots._congruence_pivots` took it (`symmetric_int_signature`)."""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache

from wittkit.errors import (
    ComputationError,
    SingularAtRoot,
    SingularForm,
    check,
)
from wittkit.exact import polys, residue
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.roots import (
    DEFAULT_PRECISION,
    CertifiedRoot,
    _interval_horner,
    hermitian_signature_at_root,
    unit_circle_roots,
)
from wittkit.knots import _det_one_minus, _signature_at_u, _u_in_y_gap

import hermitian_oracle
import qpolys
from factor_oracle import is_self_conjugate, laurent_factors
from hermitian_oracle import laurent_class, signature_of_symmetric
import remainder_oracle
from elimination_oracle import fraction_matrix
from snf_oracle import _faddeev_leverrier


@lru_cache(maxsize=None)
def _cyclotomic(n: int) -> tuple[Fraction, ...]:
    result = [Fraction(-1)] + [Fraction(0)] * (n - 1) + [Fraction(1)]  # z^n - 1
    for d in range(1, n):
        if n % d == 0:
            result = qpolys.divmod_poly(result, list(_cyclotomic(d)))[0]
    return tuple(result)


def cyclotomic_polynomial(n: int) -> list[Fraction]:
    """Dense coefficients of the n-th cyclotomic polynomial."""
    if n < 1:
        raise ValueError("n must be positive")
    return list(_cyclotomic(n))


def minimal_poly_of_2cos(numer: int, denom: int) -> tuple[list[Fraction], Fraction, Fraction]:
    """Minimal polynomial of y0 = 2*cos(2*pi*numer/denom) together with an
    isolating rational bracket."""
    if denom <= 0:
        raise ValueError("denominator must be positive")
    numer %= denom
    g = math.gcd(numer, denom)
    numer, denom = numer // g, denom // g
    if denom == 1:  # theta = 0
        return [Fraction(-2), Fraction(1)], Fraction(2), Fraction(2)
    if denom == 2:  # theta = pi
        return [Fraction(2), Fraction(1)], Fraction(-2), Fraction(-2)
    phi = cyclotomic_polynomial(denom)
    y_poly = qpolys.monic(hermitian_oracle.palindromic_to_y(phi))
    if qpolys.deg(y_poly) == 1:
        y0 = -y_poly[0]
        return y_poly, y0, y0
    # bracket 2*cos(2*pi*numer/denom): the float center is accurate to a few
    # ulps, so once the window around it holds a single root it is the right
    # one; the window never shrinks to the float-error scale for the moduli
    # this can see in practice
    center = Fraction(2 * math.cos(2 * math.pi * numer / denom))
    width = Fraction(1, 2**20)
    while width >= Fraction(1, 2**48):
        roots = remainder_oracle.isolate_real_roots(y_poly, center - width, center + width)
        if len(roots) == 1:
            a, b = roots[0]
            return y_poly, a, b
        width /= 2
    raise ValueError("failed to isolate the requested root")


# the Sturm isolation at d = 199 takes seconds; tests ask for the same few
# turns on many knots
_cached_minimal_poly = lru_cache(maxsize=None)(minimal_poly_of_2cos)


def free_bracket(root: CertifiedRoot, g) -> tuple[Fraction, Fraction]:
    """A rational interval around the root's y0 on which interval Horner
    shows g has no zero: the bracket is padded, and the pad halves (and the
    bracket bisects once wider) until it does.  Needs g(y0) != 0."""
    g = qpolys.ints(g)
    if root.sign_of(g) == 0:
        raise SingularForm("the polynomial vanishes at this root")
    pad = Fraction(1)
    while True:
        a, b = _interval_horner(g, root.lo - pad, root.hi + pad)
        if a > 0 or b < 0:
            return root.lo - pad, root.hi + pad
        pad /= 2
        if pad < root.hi - root.lo:
            root._bisect()


def per_call_two_cos_bracket(t: Fraction, bits: int):
    """`knots._two_cos_bracket` with pi recomputed by Machin's formula
    16 atan(1/5) - 4 atan(1/239) on every call, in integer fixed point
    with unit 2^-bits, then cos(2 pi t) by its Taylor series."""
    sign = 1
    if t > Fraction(1, 4):  # cos(pi - x) = -cos x
        t, sign = Fraction(1, 2) - t, -1
    one = 1 << bits
    pi = err = 0
    for coeff, x in ((16, 5), (-4, 239)):
        power, k = one // x, 0  # floor(one / x^(2k+1)), exactly
        while power:
            pi += coeff * (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        err += abs(coeff) * (k + 1)
    x = 2 * pi * t.numerator // t.denominator
    total = term = one
    k = 0
    while term:
        k += 1
        term = term * x // one * x // one // ((2 * k - 1) * (2 * k))
        total += (-1) ** k * term
    err += 3 * k + 3
    lo, hi = Fraction(2 * (total - err), one), Fraction(2 * (total + err), one)
    return (lo, hi) if sign == 1 else (-hi, -lo)


def fl_det_one_minus(k) -> LaurentPoly:
    """D(z) = det(I - (1 + eps z) e) by Horner over `LaurentPoly` on the
    Faddeev-LeVerrier characteristic polynomial of e."""
    s = LaurentPoly.z() * k.epsilon + 1
    det = LaurentPoly.zero()
    for c in _faddeev_leverrier(fraction_matrix(k.seifert_form.e_pair))[0]:
        det = det * s + c
    return det


def cyclotomic_order(key) -> int | None:
    """The least e <= 2 n^2 with z^e = 1 mod the monic integral key of
    degree n (dense, low degree first), by the recurrence on z^e mod key
    that `knots._circle_roots` ran on its own lists; None if there is
    none or the key is not monic and integral."""
    n = len(key) - 1
    if key[-1] != 1 or any(Fraction(c).denominator != 1 for c in key):
        return None
    one = power = [1] + [0] * (n - 1)
    for e in range(1, 2 * n * n + 1):
        power = [a - power[-1] * int(c) for a, c in zip([0] + power[:-1], key)]
        if power == one:
            return e
    return None


def singular_poly_in_y(k) -> list:
    """`_det_one_minus`'s D(z) in y = z + 1/z.  theta is unimodular and
    alternating mod 2, so the rank n is even and D(1/z) = z^-n D(z) is
    palindromic."""
    return hermitian_oracle.palindromic_to_y(
        LaurentPoly.from_dense(_det_one_minus(k)).ordinary()[0])


def per_call_lt_signature(k, turn, d_y=None) -> int:
    """Signature of (1-omega) psi + (1-conj(omega)) psi^T at
    omega = e^{2 pi i turn}, rebuilt from scratch: singular exactly where
    D_y vanishes at y0 = 2 cos(2 pi turn); otherwise taken at a rational u
    whose y(u) lies in a bracket of y0 free of D_y's zeros.  A caller
    asking for many turns of one knot may pass `singular_poly_in_y(k)`."""
    if isinstance(turn, float):
        raise TypeError("pass the turn exactly, not a float")
    t = Fraction(turn) % 1
    t = min(t, 1 - t)
    if k.rank == 0:
        return 0
    if t == 0:
        raise SingularAtRoot("omega = 1 degenerates the form")
    root = CertifiedRoot(*_cached_minimal_poly(t.numerator, t.denominator))
    try:
        lo, hi = free_bracket(root, d_y or singular_poly_in_y(k))
    except SingularForm:
        raise SingularAtRoot(f"omega at turn {t} is an Alexander root")
    return _signature_at_u(k.seifert_form.psi_pair[0],
                           _u_in_y_gap(max(lo, Fraction(-2)),
                                       min(hi, Fraction(2))))


def symmetric_int_signature(a: list) -> int:
    """Signature of a nonsingular symmetric integer matrix given by its
    rows (consumed), SingularForm otherwise, as `roots.signature_of_int_rows`
    took it before it went over Z[i]: the integer route of
    `roots._congruence_pivots`, Bareiss with exact divisions by the last
    pivot, where a zero diagonal takes c = 1 (a_ij + bar(a_ij) = 2 a_ij
    is never 0 over Z)."""
    signs, last = [1], 1
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is None:
            k, j = next(((i, j) for i, row in enumerate(a)
                         for j, x in enumerate(row) if x), (None, None))
            if k is None:
                raise SingularForm("form is singular")
            a[k] = [x + y for x, y in zip(a[k], a[j])]
            for row in a:
                row[k] += row[j]
        row = a.pop(k)
        piv = row.pop(k)
        signs.append((piv > 0) - (piv < 0))
        a = [[(piv * x - r[k] * y) // last
              for x, y in zip(r[:k] + r[k + 1:], row)] for r in a]
        last = piv
    return sum(x * y for x, y in zip(signs, signs[1:]))


def realified_signature(re: list, im: list) -> int:
    """Signature of the hermitian re + i im (integer rows) as half that of
    its real symmetric realification [[re, -im], [im, re]]."""
    rows = ([a + [-x for x in b] for a, b in zip(re, im)]
            + [b + a for a, b in zip(re, im)])
    return symmetric_int_signature(rows) // 2


def realified_signature_at_u(psi: list, u: Fraction) -> int:
    """`knots._signature_at_u` as it was before it went over Z[i]: the
    realification of n_u S + i d_u K, S = psi + psi^T, K = psi^T - psi,
    u = n_u / d_u, built as [[n_u S, -d_u K], [d_u K, n_u S]]."""
    n, d = u.numerator, u.denominator
    pairs = [list(zip(row, col)) for row, col in zip(psi, zip(*psi))]
    return realified_signature([[n * (x + y) for x, y in r] for r in pairs],
                               [[d * (y - x) for x, y in r] for r in pairs])


def descartes_signature(m):
    """Signature of a symmetric rational matrix from the signs of its
    characteristic polynomial (real-rooted, so Descartes' rule is exact)."""
    coeffs = m.charpoly()
    if coeffs[0] == 0:
        raise SingularForm("symmetric form is singular")
    return hermitian_oracle.descartes_signature(
        [(c > 0) - (c < 0) for c in coeffs])


def cyclotomic_lt_signature(k, turn, precision=DEFAULT_PRECISION):
    """Levine-Tristram signature as a hermitian form over Q(zeta_d), d the
    turn's denominator, with its sign pattern decided at the certified
    root 2 cos(2 pi turn); the route wittkit took before it went over Q."""
    t = Fraction(turn) % 1
    if t > Fraction(1, 2):
        t = 1 - t
    psi = k.seifert_form.psi
    n = k.rank
    if n == 0:
        return 0
    if t == 0:
        raise SingularAtRoot("omega = 1 degenerates the form")
    if t == Fraction(1, 2):
        m = (psi + psi.transpose()).map(lambda x: 2 * x)
        if m.det() == 0:
            raise SingularAtRoot("omega = -1 is an Alexander root")
        return descartes_signature(m)
    d = t.denominator
    phi = cyclotomic_polynomial(d)
    field = residue.ResidueField(phi)
    herm = [[laurent_class(field, LaurentPoly({
                0: psi[i, j] + psi[j, i],
                1: -psi[i, j],
                -1: -psi[j, i]}))
             for j in range(n)] for i in range(n)]
    y_poly, lo, hi = _cached_minimal_poly(t.numerator, d)
    root = CertifiedRoot(y_poly, lo, hi)
    root.refine(precision)
    try:
        return hermitian_signature_at_root(herm, [root])[0]
    except SingularForm:
        raise SingularAtRoot(f"omega at turn {t} is an Alexander root")


def turn_in_y_gap(y_low, y_high):
    """A small-denominator rational turn t whose y = 2 cos(2 pi t) bracket
    certifies strictly inside (y_low, y_high)."""
    t_from = math.acos(min(1.0, max(-1.0, float(y_high) / 2))) / (2 * math.pi)
    t_to = math.acos(min(1.0, max(-1.0, float(y_low) / 2))) / (2 * math.pi)
    pad = (t_to - t_from) * 0.2
    a_lo, a_hi = t_from + pad, t_to - pad
    d = 1
    while d < 10**6:
        d += 1
        num = math.ceil(a_lo * d)
        while num / d <= a_hi:
            t = Fraction(num, d)
            if 0 < t < Fraction(1, 2):
                y_poly, lo, hi = _cached_minimal_poly(t.numerator,
                                                      t.denominator)
                probe = CertifiedRoot(y_poly, lo, hi)
                probe.refine(Fraction(1, 2**32))
                if y_low < probe.lo and probe.hi < y_high:
                    return t
            num += 1
    raise ComputationError("no sampling angle found between roots")


# -- the step function over Matrix, Fraction and LaurentPoly --

def charpoly_det_one_minus(k) -> LaurentPoly:
    """D(z) = det(I - (1 + eps z) e) from `Matrix.charpoly` of e, checked
    integral over `Fraction`s, then `polys.compose` at t = 1 + eps z."""
    char = Matrix(k.seifert_form.e_pair[0]).charpoly()
    check(all(c.denominator == 1 for c in char),
          "charpoly of e is not integral")
    return LaurentPoly.from_dense(polys.compose(
        [c.numerator for c in reversed(char)], 1, k.epsilon))


def laurent_circle_roots(det: LaurentPoly) -> tuple[list, set]:
    """`knots._circle_roots` on `laurent_factors`' monic factors,
    self-conjugate by `is_self_conjugate`, each handed to
    `unit_circle_roots` as its integer multiple; cyclotomic when the monic
    key is integral."""
    _, factors = laurent_factors(det)
    marked, cyclotomic = [], set()
    for p, _mult in factors:
        if is_self_conjugate(p) is None:
            continue
        key = tuple(p.ordinary()[0])
        roots = unit_circle_roots(polys.primitive(key), Fraction(4))
        n = len(key) - 1
        if 2 * len(roots) >= n and all(c.denominator == 1 for c in key):
            monic, power = polys.primitive(key), [1]  # z^e mod p
            for e in range(1, 2 * n * n + 1):
                power = polys.divmod_poly([0] + power, monic)[1]
                if power == [1]:
                    cyclotomic.add(e)
                    break
        for ridx, root in enumerate(roots):
            while not root.is_rational and (root.lo == -2 or root.hi == 2):
                root.refine((root.hi - root.lo) / 2)
            marked.append((key, ridx, root))
    changed = True
    while changed:
        changed = False
        for i in range(len(marked)):
            for j in range(i + 1, len(marked)):
                a, b = marked[i][2], marked[j][2]
                if a.lo <= b.hi and b.lo <= a.hi:
                    width = max(a.hi - a.lo, b.hi - b.lo)
                    a.refine(width / 4)
                    b.refine(width / 4)
                    changed = True
    marked.sort(key=lambda item: (-item[2].hi, -item[2].lo))
    return marked, cyclotomic


def matrix_signature_at_u(psi: Matrix, u: Fraction) -> int:
    """`knots._signature_at_u` through a `Matrix` and
    `signature_of_symmetric`, which takes an lcm of its denominators."""
    n, d = u.numerator, u.denominator
    a = [[Fraction(x).numerator for x in row] for row in psi.rows]
    pairs = [list(zip(row, col)) for row, col in zip(a, zip(*a))]
    rows = [[n * (x + y) for x, y in r] + [d * (x - y) for x, y in r]
            for r in pairs] + [[d * (y - x) for x, y in r]
                               + [n * (x + y) for x, y in r] for r in pairs]
    return signature_of_symmetric(Matrix(rows)) // 2


def laurent_steps(k) -> tuple:
    """(D, roots, cyclotomic, gap values) of one knot by the route above,
    gap i's value taken at `_u_in_y_gap` between the brackets around it
    ("singular" where the sampled form is, as it may be for eps = +1)."""
    det = charpoly_det_one_minus(k)
    roots, cyclotomic = laurent_circle_roots(det)
    walls = ([Fraction(2)] + [y for _, _, r in roots for y in (r.hi, r.lo)]
             + [Fraction(-2)])
    values = []
    for high, low in zip(walls[::2], walls[1::2]):
        try:
            values.append(matrix_signature_at_u(k.psi,
                                                _u_in_y_gap(low, high)))
        except SingularForm:
            values.append("singular")
    return det, roots, cyclotomic, values
