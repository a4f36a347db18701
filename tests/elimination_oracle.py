"""Oracles for the fraction-free elimination in `wittkit.exact.matrix` and
the integer Krylov sequences in `wittkit.laurent_forms`.

`rref`, `det` and `inverse` are `Matrix`'s Gauss-Jordan and Gaussian loops
over the entries' field as they ran before rational matrices took the
fraction-free kernel `_gauss_jordan`; they also serve the tests' Q(z)
matrices.  `krylov` and `frobenius` are the rational canonical
decomposition as it ran before each local minimal polynomial came from an
integer generator: `krylov` row-reduces h's own Krylov matrix over Q, and
`frobenius` eliminates with the loops above, projecting onto each
complement over h's Krylov vectors, where `_frobenius` reads only the
generator's.  It cuts each complement with `_frobenius`'s covector, so the
two give the same basis, or with `oblique` by the oblique projection that
the covector replaced, which gives the same chains in another basis.  It
skips a spanning vector u with mu(h) u = 0 (`_kills`, on its own
integers), whose nu divides mu, as the merge would leave w as it is.
`_apply` is its own product, on the entries' arithmetic.  Under
`parent_frobenius`, the covering functors and `decompose_module` run on
that `frobenius`, its Krylov vectors handed on as reduced pairs
(`pair_blocks`).

`fitting_power` and `pencil_reduction` are Trotter's reduction of the
pencil (z - c) e + 1 on `Fraction` matrices, as it ran before e, h and
e|R became integer pairs; `covering_certificates` are the `Fraction`
checks that `_covering_form`, `_frobenius` and `AutometricForm` made
before they checked the same identities on integers.  `fraction_matrix`
and `integer_pair` convert between the two; `integer_pair` gives the
reduced pair.  `hstack`, `vstack` and `rank` are the `Matrix` methods of
those names, which left `src/` once the witness checks read integer
rows."""

from __future__ import annotations

from contextlib import contextmanager
from fractions import Fraction
from math import lcm
from operator import mul

from wittkit import laurent_forms, seifert
from wittkit.errors import SingularMatrix, check
from wittkit.exact import polys
from wittkit.exact.matrix import (
    Matrix, _gauss_jordan, _integral, _integral_rows)

import qpolys
import remainder_oracle


def _apply(a: list, x: list) -> list:
    """The product of the rows a with the vector x, on the entries' own
    arithmetic."""
    return [sum(p * q for p, q in zip(row, x)) for row in a]


def _scaled(rows: list) -> tuple[list, int]:
    """Rational rows as integer rows over the lcm of their denominators."""
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _kills(h: list, p: list, v: list) -> bool:
    """p(h) v = 0, by Horner on integers: with h = H / d, and p and v
    scaled to integers P and w, d^D p(h) v is a multiple of
    sum_k P_k d^(D-k) H^k w."""
    (big_h, d), ((big_p, w), _) = _scaled(h), _scaled([p, v])
    out = [big_p[-1] * x for x in w]
    for k, coeff in enumerate(big_p[-2::-1], 1):
        out = [sum(map(mul, r, out)) + coeff * d**k * x
               for r, x in zip(big_h, w)]
    return not any(out)


def _as_field(x):
    # int entries would hit true division during elimination
    return Fraction(x) if isinstance(x, int) else x


def _one_like(x):
    if isinstance(x, (int, Fraction)):
        return Fraction(1)
    return x.one()


def det(m: Matrix):
    """Determinant by fraction-preserving Gaussian elimination; entries
    must form a field.  det of the empty matrix is 1 (Fraction)."""
    if not m.is_square():
        raise ValueError("det of non-square matrix")
    n = m.nrows
    if n == 0:
        return Fraction(1)
    a = [[_as_field(x) for x in r] for r in m.rows]
    det = None
    sign = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k]), None)
        if piv is None:
            z = a[k][k]
            return z - z  # a zero of the right type
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            sign = -sign
        det = a[k][k] if det is None else det * a[k][k]
        inv_piv = a[k][k]
        for i in range(k + 1, n):
            if not a[i][k]:
                continue
            factor = a[i][k] / inv_piv
            for j in range(k, n):
                a[i][j] = a[i][j] - factor * a[k][j]
    return det if sign == 1 else -det


def rref(m: Matrix) -> tuple[list, list]:
    """Rows of the reduced echelon form, zero rows dropped, in the order
    they were found, and the pivot column of each."""
    out, pivots = [], []
    for r in m.rows:
        r = [_as_field(x) for x in r]
        for p, q in zip(pivots, out):
            if f := r[p]:
                r = [x - f * y if y else x for x, y in zip(r, q)]
        p = next((k for k, x in enumerate(r) if x), None)
        if p is None:
            continue
        f = r[p]
        r = [x / f if x else x for x in r]
        out = [[x - q[p] * y if y else x for x, y in zip(q, r)]
               if q[p] else q for q in out]
        out.append(r)
        pivots.append(p)
    return out, pivots


def inverse(m: Matrix) -> Matrix:
    if not m.is_square():
        raise ValueError("inverse of non-square matrix")
    n = m.nrows
    if n == 0:
        return Matrix([])
    ident = Matrix.identity(n, _one_like(m.rows[0][0]))
    out, pivots = rref(hstack(m, ident))
    if max(pivots) >= n:
        raise SingularMatrix("matrix is singular")
    rows = dict(zip(pivots, out))
    return Matrix([rows[i][n:] for i in range(n)])


def krylov(h: list, v: list) -> tuple[list, list]:
    """v, hv, ..., h^n v, and the local minimal polynomial of v (monic,
    dense, degree D): the pivot columns of [v, hv, ..., h^n v] are the
    first D, and column D is their combination."""
    vecs = [v]
    for _ in v:
        vecs.append(_apply(h, vecs[-1]))
    red, piv = rref(Matrix(list(zip(*vecs))))
    d, rel = len(piv), dict(zip(piv, red))
    return vecs, [-rel[t][d] for t in range(d)] + [Fraction(1)]


def _coprime_part(a: list, b: list) -> list:
    """a with every irreducible factor it shares with b divided out, over
    Q with monic gcds."""
    g = remainder_oracle.gcd(a, b)
    while len(g) > 1:
        a = qpolys.divmod_poly(a, g)[0]
        g = remainder_oracle.gcd(a, g)
    return a


def frobenius(h: list, oblique: bool = False) -> list:
    """Rational canonical decomposition of h: (Krylov vectors of g_i, d_i),
    d_1 | ... | d_r, by `krylov` and eliminations over Q.  Each complement
    is cut out by phi h^j, j < D, for `_frobenius`'s covector phi, the
    first (1, k, ..., k^(n-1)) for which they are independent on the
    block, or with `oblique` by the phi the decomposition took before it:
    dual to h^(D-1) v on the basis h^j v and zero on the block's orthogonal
    complement, phi = e_D^T (K K^T)^-1 K for the rows h^j v of K."""
    n = len(h)
    ident = Matrix.identity(n)
    span, dim, blocks = ident.rows, n, []
    while dim:
        vecs, mu = krylov(h, span[0])
        for u in span[1:]:
            if len(mu) - 1 == dim:
                break
            if _kills(h, mu, u):
                continue  # nu | mu: the merge below would keep w
            powers, nu = krylov(h, u)
            if qpolys.mod(mu, nu):
                # keep = mu / a and cut = nu / b applied to h
                keep = _coprime_part(mu, qpolys.divmod_poly(
                    mu, remainder_oracle.gcd(mu, nu))[0])
                cut = qpolys.divmod_poly(nu, _coprime_part(
                    nu, qpolys.divmod_poly(mu, keep)[0]))[0]
                vecs, mu = krylov(h, [x + y for x, y in zip(
                    _apply(list(zip(*vecs)), keep),
                    _apply(list(zip(*powers)), cut))])
        vecs = vecs[:len(mu) - 1]
        blocks.insert(0, (vecs, mu))
        dim -= len(vecs)
        if dim:
            k = Matrix(vecs)
            phis = [(inverse(k * k.transpose()) * k).rows[-1]] if oblique \
                else [[Fraction(j**i) for i in range(n)]
                      for j in range((n - 1) * len(vecs) + 1)]
            for phi in phis:
                rows = [phi]
                for _ in vecs[1:]:
                    rows.append(_apply(list(zip(*h)), rows[-1]))
                try:
                    t_inv = inverse(Matrix(rows) * k.transpose())
                    break
                except SingularMatrix:
                    continue
            proj = ident - k.transpose() * t_inv * Matrix(rows)
            span = [x for x in (Matrix(span) * proj.transpose()).rows
                    if any(x)]
    return blocks


def pair_blocks(blocks: list) -> list:
    """`frobenius`'s blocks with each Krylov vector as its reduced pair and
    each divisor as its primitive integer multiple, as `_frobenius` returns
    them."""
    return [([_integral(x) for x in vecs], polys.primitive(mu))
            for vecs, mu in blocks]


def fraction_matrix(pair) -> Matrix:
    """The Matrix of an integer pair (N, d)."""
    rows, d = pair
    return Matrix([[Fraction(x, d) for x in r] for r in rows])


def integer_pair(m: Matrix) -> tuple[list, int]:
    return _integral_rows(m.rows)


def hstack(a: Matrix, b: Matrix) -> Matrix:
    """[a | b]."""
    if a.nrows != b.nrows:
        raise ValueError("row mismatch")
    return Matrix([r + s for r, s in zip(a.rows, b.rows)])


def vstack(a: Matrix, b: Matrix) -> Matrix:
    """a over b."""
    if a.rows and b.rows and a.ncols != b.ncols:
        raise ValueError("column mismatch")
    return Matrix(a.rows + b.rows)


def rank(m: Matrix) -> int:
    """The rank of a rational matrix: the pivots of `_gauss_jordan` on its
    rows, each scaled to integers."""
    return len(_gauss_jordan([_integral(r)[0] for r in m.rows])[1])


def fitting_power(e: Matrix, c=1) -> Matrix:
    """(e(1-ce))^k for a k past the nilpotent part's index: invertible on
    its image, zero on a complement.  Squaring stops once the rank does
    not fall, at once for a zero or an invertible e(1-ce)."""
    power = e * (Matrix.identity(e.nrows) - e.scale(c))
    r = rank(power)
    while 0 < r < e.nrows:
        square = power * power
        square_rank = rank(square)
        if square_rank == r:
            break
        power, r = square, square_rank
    return power


def pencil_reduction(e: Matrix, c=1) -> tuple[Matrix, Matrix, Matrix]:
    """The pencil (z - c) e + 1 over Q[z, z^-1].  On ker (e(1 - ce))^n it is
    unimodular (e or 1 - ce is nilpotent there, the other invertible), so
    that part dies in its cokernel; on R = im (e(1 - ce))^n it is e(z - h)
    with h = c - (e|R)^-1 invertible.  Returns R's basis b (columns), h and
    e|R in its coordinates, all empty when R = 0; e|R, with e b = b e|R, is
    read off b's unit rows and is `_frobenius`'s generator of h."""
    basis, sel = rref(fitting_power(e, c).transpose())
    if not basis:
        return Matrix([]), Matrix([]), Matrix([])
    # R's basis vectors are 1 at their own index of sel and 0 at the others
    b = Matrix(basis).transpose()
    eb = (e * b).rows
    e_r = Matrix([eb[s] for s in sel])
    return b, Matrix.identity(len(sel)).scale(c) - e_r.inverse(), e_r


def covering_certificates(theta: Matrix, h: Matrix, epsilon: int,
                          e_r: Matrix | None = None, c=1) -> None:
    """`_covering_form`'s checks and then `_frobenius`'s, in their order
    and with their messages, on `Fraction` matrices: theta
    (-epsilon)-symmetric and nonsingular, h an isometry of it, and
    (c - h) e|R = 1 when e|R is given."""
    check(theta == theta.transpose().scale(-epsilon),
          "covering theta is not symmetric")
    check(theta.det() != 0, "covering theta is singular")
    check(h.transpose() * theta * h == theta,
          "h is not an isometry of the covering theta")
    if e_r is not None:
        ident = Matrix.identity(h.nrows)
        check((ident.scale(c) - h) * e_r == ident, "h is not c - (e|R)^-1")


@contextmanager
def parent_frobenius(oblique: bool = False):
    """Swap `frobenius` in for `_frobenius` where the covering functors and
    `decompose_module` call it, ignoring the generator they pass."""
    saved = laurent_forms._frobenius, seifert._frobenius
    laurent_forms._frobenius = seifert._frobenius = (
        lambda h, e_r=None, c=1: pair_blocks(
            frobenius(fraction_matrix(h).rows, oblique)))
    try:
        yield
    finally:
        laurent_forms._frobenius, seifert._frobenius = saved
