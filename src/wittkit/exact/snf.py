"""Smith normal form over Z, Q[z] and Q[z,z^-1].

Returns U, V with unit determinants and U*A*V = D diagonal, the diagonal
entries forming a divisibility chain, and U_inv = U^-1.  Over Z the divisors
are nonnegative; over the polynomial rings they are monic, and in the
Laurent ring any z^k factor is a unit and gets stripped.  Rank-deficient
inputs keep explicit trailing zero divisors.

The algorithm is the classical one: move a minimal-norm entry to the pivot,
clear its row and column by Euclidean steps, and restart whenever a division
leaves a remainder; after clearing, any entry of the remaining block that the
pivot does not divide is folded into the pivot row and the clearing repeats,
which makes the divisibility chain hold by construction.  Each row
operation applied to U has its inverse applied to U_inv as a column
operation (Kannan and Bachem's transform-keeping SNF), so U_inv has entries
in the base ring and no matrix is ever inverted.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix


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
