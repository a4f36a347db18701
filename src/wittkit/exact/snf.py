"""Smith normal form over Z.

Returns the divisors d_1 | d_2 | ... of A, nonnegative integers, and V
with determinant +-1 such that U*A*V = D = diag(d_i) for some unimodular
U.  Rank-deficient inputs keep explicit trailing zero divisors.
Modules over Q[z, z^-1] never come here: `wittkit.laurent_forms` finds
their structure by linear algebra over Q.

The algorithm is the classical one: move a minimal-magnitude entry to the
pivot, clear its row and column by Euclidean steps, and restart whenever a
division leaves a remainder; after clearing, any entry of the remaining
block that the pivot does not divide is folded into the pivot row and the
clearing repeats, which makes the divisibility chain hold by construction.
Neither U nor U^-1 is kept: the row operations act on A alone, and a
caller that needs U's data reads it off V (`finite.boundary_of_form`).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from wittkit.exact.matrix import Matrix


def _coerce(x) -> int:
    if isinstance(x, Fraction):
        if x.denominator != 1:
            raise ValueError("integer SNF needs integer entries")
        return int(x)
    if isinstance(x, int):
        return x
    raise TypeError(f"bad entry {type(x)!r} for integer SNF")


@dataclass
class SNFResult:
    V: Matrix
    divisors: list  # full diagonal, including trailing zeros


def smith_normal_form(a: Matrix) -> SNFResult:
    m, n = a.shape
    work = [[_coerce(x) for x in row] for row in a.rows]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def row_op(i, k, q):
        # row i -= q * row k
        work[i] = [x - q * y for x, y in zip(work[i], work[k])]

    def col_op(j, k, q):
        # col j -= q * col k
        for r in work:
            r[j] = r[j] - q * r[k]
        for r in v:
            r[j] = r[j] - q * r[k]

    def swap_cols(j, k):
        for r in work:
            r[j], r[k] = r[k], r[j]
        for r in v:
            r[j], r[k] = r[k], r[j]

    for t in range(min(m, n)):
        while True:
            # minimal-magnitude nonzero entry in the remaining block
            best = None
            for i in range(t, m):
                for j in range(t, n):
                    x = work[i][j]
                    if x and (best is None or abs(x) < best[0]):
                        best = (abs(x), i, j)
            if best is None:
                break
            _, bi, bj = best
            if bi != t:
                work[t], work[bi] = work[bi], work[t]
            if bj != t:
                swap_cols(t, bj)
            piv = work[t][t]
            dirty = False
            for i in range(t + 1, m):
                if work[i][t]:
                    row_op(i, t, work[i][t] // piv)
                    if work[i][t]:
                        dirty = True
            for j in range(t + 1, n):
                if work[t][j]:
                    col_op(j, t, work[t][j] // piv)
                    if work[t][j]:
                        dirty = True
            if dirty:
                continue
            # pivot must divide the rest of the block for the chain property
            offender = next((i for i in range(t + 1, m)
                             for j in range(t + 1, n)
                             if work[i][j] % piv), None)
            if offender is None:
                break
            row_op(t, offender, -1)

    # row t ends as +-d_t e_t; flipping its sign, a unimodular row step,
    # makes d_t >= 0
    return SNFResult(Matrix(v), [abs(work[i][i]) for i in range(min(m, n))])
