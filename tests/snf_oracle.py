"""Oracles over Q[z, z^-1] for the Q-linear routes in `wittkit`.

The generic Smith normal form over Z, Q[z] and Q[z, z^-1] (Euclid over the
ring, keeping U^-1); `decompose_module` on top of it; and the covering
forms through it, for the Krylov construction in `wittkit.seifert`.  The
covering pairing is the pencil's adjugate over its determinant, rewritten
into the Smith generators: the kept columns of U^-1.  The adjugate comes
from Faddeev-LeVerrier, which is also the oracle for `Matrix.charpoly`'s
division-free kernel and the characteristic polynomial over a residue
field that `hermitian_oracle.charpoly_in_y` reads."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from wittkit.errors import NotPTorsion, NotTorsion
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix, _dot
from wittkit.laurent_forms import LaurentModule, _as_laurent, _monic_ordinary

from elimination_oracle import _one_like
from covering_oracle import (
    QZ, covering_pencil, form_from_qz, frac_class, validate_over_qz)


class _IntOps:
    ring = "Z"

    def coerce(self, x):
        if isinstance(x, Fraction):
            if x.denominator != 1:
                raise ValueError("integer SNF needs integer entries")
            return int(x)
        if isinstance(x, int):
            return x
        raise TypeError(f"bad entry {type(x)!r} for integer SNF")

    def is_zero(self, x) -> bool:
        return x == 0

    def norm(self, x) -> int:
        return abs(x)

    def quot(self, e, p):
        return e // p

    def divides(self, p, e) -> bool:
        return e % p == 0

    def normalize_unit(self, d):
        # returns (unit, unit^-1) with unit * d normalized
        return (-1, -1) if d < 0 else (1, 1)

    def one(self):
        return 1


class _PolyOps:
    def __init__(self, z_unit: bool):
        self.z_unit = z_unit
        self.ring = "Q[z,z^-1]" if z_unit else "Q[z]"

    def coerce(self, x):
        if isinstance(x, LaurentPoly):
            p = x
        elif isinstance(x, (int, Fraction)):
            p = LaurentPoly.const(x)
        else:
            raise TypeError(f"bad entry {type(x)!r} for polynomial SNF")
        if not self.z_unit and p and p.min_deg() < 0:
            raise ValueError("Q[z] SNF needs ordinary polynomial entries")
        return p

    def is_zero(self, x) -> bool:
        return x.is_zero()

    def norm(self, x) -> int:
        if self.z_unit:
            return x.max_deg() - x.min_deg()
        return x.max_deg()

    def quot(self, e, p):
        e0, a = e.ordinary()
        p0, b = p.ordinary()
        if self.z_unit:
            q0, _ = polys.divmod_poly(e0, p0)
            return LaurentPoly.from_dense(q0, a - b)
        # over Q[z] powers of z are not units, so divide the plain dense forms
        q0, _ = polys.divmod_poly([Fraction(0)] * a + e0, [Fraction(0)] * b + p0)
        return LaurentPoly.from_dense(q0)

    def divides(self, p, e) -> bool:
        e0, a = e.ordinary()
        p0, b = p.ordinary()
        if not self.z_unit and b > a:
            return False
        return not polys.divmod_poly(e0, p0)[1]

    def normalize_unit(self, d):
        d0, k = d.ordinary()
        lc = d0[-1]
        k = k if self.z_unit else 0
        return (LaurentPoly.monomial(Fraction(1) / lc, -k),
                LaurentPoly.monomial(lc, k))

    def one(self):
        return LaurentPoly.one()


@dataclass
class SNFResult:
    ring: str
    A: Matrix
    U: Matrix
    U_inv: Matrix
    V: Matrix
    D: Matrix
    divisors: list  # full diagonal, including trailing zeros

    @property
    def nonzero_divisors(self) -> list:
        ops = _ops_for(self.ring)
        return [d for d in self.divisors if not ops.is_zero(d)]


def _ops_for(ring: str):
    if ring == "Z":
        return _IntOps()
    if ring == "Q[z]":
        return _PolyOps(z_unit=False)
    if ring in ("Q[z,z^-1]", "laurent"):
        return _PolyOps(z_unit=True)
    raise ValueError(f"unknown ring {ring!r}")


def smith_normal_form(a: Matrix, ring: str = "Z") -> SNFResult:
    ops = _ops_for(ring)
    m, n = a.shape
    work = [[ops.coerce(x) for x in row] for row in a.rows]
    one = ops.one()
    zero = one - one
    u = [[one if i == j else zero for j in range(m)] for i in range(m)]
    u_inv = [row[:] for row in u]
    v = [[one if i == j else zero for j in range(n)] for i in range(n)]

    def row_op(i, k, q):
        # row i -= q * row k; undone on the right by col k += q * col i
        work[i] = [x - q * y for x, y in zip(work[i], work[k])]
        u[i] = [x - q * y for x, y in zip(u[i], u[k])]
        for r in u_inv:
            r[k] = r[k] + q * r[i]

    def col_op(j, k, q):
        # col j -= q * col k
        for r in work:
            r[j] = r[j] - q * r[k]
        for r in v:
            r[j] = r[j] - q * r[k]

    def swap_rows(i, k):
        work[i], work[k] = work[k], work[i]
        u[i], u[k] = u[k], u[i]
        for r in u_inv:
            r[i], r[k] = r[k], r[i]

    def swap_cols(j, k):
        for r in work:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    def scale_row(i, unit, unit_inv):
        work[i] = [unit * x for x in work[i]]
        u[i] = [unit * x for x in u[i]]
        for r in u_inv:
            r[i] = r[i] * unit_inv

    for t in range(min(m, n)):
        while True:
            # minimal-norm nonzero entry in the remaining block
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = work[i][j]
                    if not ops.is_zero(x):
                        nx = ops.norm(x)
                        if best is None or nx < best[0]:
                            best = (nx, i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                swap_rows(t, bi)
            if bj != t:
                swap_cols(t, bj)
            piv = work[t][t]
            dirty = False
            for i in range(t + 1, m):
                if not ops.is_zero(work[i][t]):
                    q = ops.quot(work[i][t], piv)
                    row_op(i, t, q)
                    if not ops.is_zero(work[i][t]):
                        dirty = True
            for j in range(t + 1, n):
                if not ops.is_zero(work[t][j]):
                    q = ops.quot(work[t][j], piv)
                    col_op(j, t, q)
                    if not ops.is_zero(work[t][j]):
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain property
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if not ops.is_zero(work[i][j]) and not ops.divides(piv, work[i][j]):
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            row_op(t, offender, -one)

        if not ops.is_zero(work[t][t]):
            unit, unit_inv = ops.normalize_unit(work[t][t])
            if unit != one:
                scale_row(t, unit, unit_inv)

    divisors = [work[i][i] for i in range(min(m, n))]
    return SNFResult(
        ring=ops.ring,
        A=a,
        U=Matrix(u),
        U_inv=Matrix(u_inv),
        V=Matrix(v),
        D=Matrix(work),
        divisors=divisors,
    )


def matrix_trace(m: Matrix):
    """The sum of the diagonal entries of a square matrix."""
    if not m.is_square():
        raise ValueError("trace of non-square matrix")
    t = m.rows[0][0]
    for i in range(1, m.nrows):
        t = t + m.rows[i][i]
    return t


def _faddeev_leverrier(a: Matrix) -> tuple[list, list]:
    """Coefficients [c_0, ..., c_n] of det(t*I - A) and the matrices
    M_0, ..., M_{n-1} with adj(t*I - A) = sum M_k t^(n-1-k).  Entries need
    a ring structure together with division by integers (all our entry
    types have it)."""
    n = a.nrows
    if n == 0:
        return [Fraction(1)], []
    one = _one_like(a.rows[0][0])
    zero = one - one
    ident = Matrix.identity(n, one)
    coeffs = [zero] * (n + 1)
    coeffs[n] = one
    ms = [ident]
    for k in range(1, n + 1):
        am = a * ms[-1]
        ck = matrix_trace(am) * Fraction(-1, k)
        coeffs[n - k] = ck
        if k < n:
            ms.append(am + ident.scale(ck))
    return coeffs, ms


def pencil_adjugate(a: Matrix, x, y) -> tuple[Matrix, object]:
    """(adj(x*I - y*A), det(x*I - y*A)) for square A and ring elements x, y
    (LaurentPoly in practice).  Homogenizes the Faddeev-LeVerrier expansion
    of adj(t*I - A) and det(t*I - A), so nothing is divided and the pencil
    is never inverted: (x*I - y*A)^-1 = adj / det wherever det != 0."""
    if not a.is_square():
        raise ValueError("pencil of non-square matrix")
    coeffs, ms = _faddeev_leverrier(a)
    n = a.nrows
    xp = [x ** k for k in range(n + 1)]
    yp = [y ** k for k in range(n + 1)]
    det = coeffs[0] * yp[n]
    for k in range(1, n + 1):
        det = det + coeffs[k] * xp[k] * yp[n - k]
    weights = [xp[n - 1 - k] * yp[k] for k in range(n)]
    adj = Matrix([[_dot([m.rows[i][j] for m in ms], weights)
                   for j in range(n)] for i in range(n)])
    return adj, det


def snf_decompose_module(presentation, torsion_mode: str = "Q") -> LaurentModule:
    """Smith normal form over the Laurent ring; P mode additionally demands
    every divisor be invertible at z = 1."""
    if torsion_mode not in ("P", "Q"):
        raise ValueError("torsion_mode must be 'P' or 'Q'")
    rows = presentation.rows if isinstance(presentation, Matrix) else presentation
    m = Matrix([[_as_laurent(x) for x in row] for row in rows])
    if m.nrows != m.ncols:
        raise ValueError("presentation must be square")
    res = smith_normal_form(m, ring="Q[z,z^-1]")
    if any(d.is_zero() for d in res.divisors):
        raise NotTorsion("presentation is singular over the fraction field")
    divisors = [_monic_ordinary(d) for d in res.divisors if not d.is_unit()]
    if torsion_mode == "P":
        for d in divisors:
            if d(1) == 0:
                raise NotPTorsion(f"divisor {d!r} vanishes at z = 1")
    return LaurentModule(divisors, None, torsion_mode)


def _snf_covering(pres, mode, num, den, epsilon):
    res = smith_normal_form(pres, ring="Q[z,z^-1]")
    kept = [i for i, d in enumerate(res.divisors) if not d.is_unit()]
    module = LaurentModule(
        [_monic_ordinary(res.divisors[i]) for i in kept], None, mode)
    # the generators g_i are the kept columns of U^-1
    g = Matrix([[row[i] for i in kept] for row in res.U_inv.rows])
    changed = g.transpose() * num * g.bar()
    pairing = [[frac_class(QZ.make(x, den)) for x in row]
               for row in changed.rows]
    form = form_from_qz(module, pairing, epsilon)
    validate_over_qz(form)
    return form


def snf_covering_seifert(f):
    scale = LaurentPoly({-1: Fraction(1), 0: Fraction(-1)})
    adj, det = pencil_adjugate(f.e, LaurentPoly.one(), -scale)
    return _snf_covering(covering_pencil(f), "P", f.theta * adj * scale, det,
                         -f.epsilon)


def snf_covering_autometric(f):
    adj, det = pencil_adjugate(f.h, LaurentPoly.z(-1), LaurentPoly.one())
    scale = LaurentPoly({-1: Fraction(-1)})
    return _snf_covering(covering_pencil(f), "Q", f.theta * adj * scale, det,
                         -f.epsilon)
