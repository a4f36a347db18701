"""Dense matrices, with products and elimination over Q.

Sums and scalar multiples take any ring entries; products take int or
Fraction entries only, in integer dot products (`_products`).
`inverse` and `det` run in one fraction-free kernel, `_gauss_jordan`,
`charpoly` in division-free `_berkowitz` on integers, and all four raise
TypeError on other entries.  `_gauss_jordan`, `_solve` and `_det`
take integer rows only: rationals are scaled in `Matrix._rational`, per
row, and in `laurent_forms.decompose_module`.  The covering path
(`seifert`, `laurent_forms`) carries every rational vector or matrix as
its reduced pair (N, d), integers over d > 0 with gcd(d, *N) = 1, one
pair per value, and hands N to the kernel and to `_imul`.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import chain
from math import gcd, lcm, prod
from operator import mul

from wittkit.errors import SingularMatrix


class Matrix:
    __slots__ = ("rows",)

    def __init__(self, rows: list | tuple):
        rows = [list(r) for r in rows]
        if rows:
            w = len(rows[0])
            if any(len(r) != w for r in rows):
                raise ValueError("ragged rows")
        self.rows = rows

    # ---- constructors ----

    @classmethod
    def identity(cls, n: int, one=Fraction(1)) -> "Matrix":
        zero = one - one
        return cls([[one if i == j else zero for j in range(n)] for i in range(n)])

    @classmethod
    def from_ints(cls, rows) -> "Matrix":
        rows = rows.rows if isinstance(rows, Matrix) else rows
        return cls([[x if type(x) is Fraction else Fraction(x) for x in r]
                    for r in rows])

    @classmethod
    def block_diag(cls, blocks: list[Matrix], zero=Fraction(0)) -> "Matrix":
        n, left, out = sum(b.ncols for b in blocks), 0, []
        for b in blocks:
            right = [zero] * (n - left - b.ncols)
            out += [[zero] * left + r + right for r in b.rows]
            left += b.ncols
        return cls(out)

    # ---- shape ----

    @property
    def nrows(self) -> int:
        return len(self.rows)

    @property
    def ncols(self) -> int:
        return len(self.rows[0]) if self.rows else 0

    @property
    def shape(self) -> tuple[int, int]:
        return self.nrows, self.ncols

    def is_square(self) -> bool:
        return self.nrows == self.ncols

    def __getitem__(self, key):
        i, j = key
        return self.rows[i][j]

    # ---- generic ops ----

    def map(self, f) -> "Matrix":
        return Matrix([[f(x) for x in r] for r in self.rows])

    def transpose(self) -> "Matrix":
        return Matrix([[self.rows[i][j] for i in range(self.nrows)] for j in range(self.ncols)])

    def __add__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a + b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __sub__(self, other: "Matrix") -> "Matrix":
        if self.shape != other.shape:
            raise ValueError("shape mismatch")
        return Matrix(
            [[a - b for a, b in zip(r1, r2)] for r1, r2 in zip(self.rows, other.rows)]
        )

    def __neg__(self) -> "Matrix":
        return self.map(lambda x: -x)

    def __mul__(self, other):
        if isinstance(other, Matrix):
            if self.ncols != other.nrows:
                raise ValueError("shape mismatch in product")
            return Matrix(_products(self.rows, other.transpose().rows))
        return self.map(lambda x: x * other)

    def __rmul__(self, other):
        return self.map(lambda x: other * x)

    scale = __rmul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, Matrix):
            return NotImplemented
        return self.rows == other.rows

    def __repr__(self) -> str:
        return "Matrix(" + ", ".join(repr(r) for r in self.rows) + ")"

    # ---- elimination over Q ----

    def _rational(self, what: str) -> tuple[list, list]:
        """Integer rows N and scales d of the rows N_i / d_i, for `what`;
        ValueError unless square, TypeError unless rational."""
        if not self.is_square():
            raise ValueError(f"{what} of non-square matrix")
        pairs = _integral_pairs(self.rows, what)
        return [v for v, _ in pairs], [d for _, d in pairs]

    def det(self) -> Fraction:
        """Determinant of a rational matrix, 1 when empty: det N / prod d_i,
        det N from `_det`.  Other entries raise TypeError."""
        nums, scales = self._rational("det")
        return Fraction(_det(nums), prod(scales))

    def inverse(self) -> "Matrix":
        """(D^-1 N)^-1 = N^-1 D, D the diagonal of the row scales."""
        nums, scales = self._rational("inverse")
        x, minor = _solve(nums, [[d * (i == j) for j in range(len(nums))]
                                 for i, d in enumerate(scales)])
        return Matrix([[Fraction(v, minor) for v in r] for r in x])

    def charpoly(self) -> list:
        """Coefficients [c_0, ..., c_n] of det(t*I - A) for a rational A, by
        `_berkowitz` on the integers d A, d the lcm of A's denominators:
        c_k(A) = c_k(d A) / d^(n-k).  Other entries raise TypeError."""
        nums, scales = self._rational("charpoly")
        d, n = lcm(*scales), self.nrows
        nums = [[x * (d // s) for x in r] for r, s in zip(nums, scales)]
        return [Fraction(c, d ** (n - k))
                for k, c in enumerate(_berkowitz(nums))]


def _integral_pairs(rows, what: str) -> list:
    """`_integral` of each row, for `what`; TypeError unless every entry
    is an int or a Fraction."""
    if not all(type(x) in (int, Fraction) for r in rows for x in r):
        raise TypeError(f"{what} needs int or Fraction entries")
    return [_integral(r) for r in rows]


def _products(rows, cols) -> list:
    """The Fraction dot products of rational rows with rational columns:
    each row and column is scaled to integers by the lcm of its
    denominators, so an entry is an integer dot product, where a zero term
    costs an int product, and one Fraction(num, d_row * d_col), one gcd.
    Other entries raise TypeError."""
    right = _integral_pairs(cols, "product")
    return [[Fraction(sum(map(mul, nums, c)), d * dc) for c, dc in right]
            for nums, d in _integral_pairs(rows, "product")]


def _integral(v) -> tuple[list, int]:
    d = lcm(*(x.denominator for x in v))
    return [x.numerator * (d // x.denominator) for x in v], d


def _integral_rows(rows) -> tuple[list, int]:
    d = lcm(*(x.denominator for r in rows for x in r))
    return [[x.numerator * (d // x.denominator) for x in r] for r in rows], d


def _reduced(v, d) -> tuple[list, int]:
    """The reduced pair of the vector v / d, d != 0."""
    g = gcd(d, *v) * (1 if d > 0 else -1)
    return [x // g for x in v], d // g


def _reduced_rows(rows, d) -> tuple[list, int]:
    """The reduced pair of the matrix rows / d, d != 0."""
    g = gcd(d, *chain.from_iterable(rows)) * (1 if d > 0 else -1)
    return [[x // g for x in r] for r in rows], d // g


def _combination(coeffs, den, vecs) -> tuple[list, int]:
    """The reduced pair of sum_k a_k v_k / den, for integers a_k and
    den != 0 and pairs v_k."""
    scale = lcm(*(d for _, d in vecs))
    fs = [a * (scale // d) for a, (_, d) in zip(coeffs, vecs)]
    return _reduced([sum(map(mul, fs, x)) for x in zip(*(v for v, _ in vecs))],
                    scale * den)


def _gauss_jordan(rows) -> tuple[list, list, int]:
    """Fraction-free Gauss-Jordan elimination (Bareiss 1968) of integer
    rows only (`Matrix._rational` and `decompose_module` scale rationals):
    integer rows q_j in the order found, their pivots p_j and the minor
    delta of those rows and columns, with q_j / delta the reduced rows.  A
    new row r becomes delta r - sum_j r[p_j] q_j, minors with one more row;
    its first nonzero entry is the next minor delta', and q_j becomes
    (delta' q_j - q_j[p] r) / delta, an exact division (Sylvester).
    `roots.signature_of_int_rows` cannot be this kernel: a congruence on
    hermitian rows over Z[i], it keeps only leading minors and no reduced
    rows to read an rref or an inverse from."""
    out, pivots, minor = [], [], 1
    for r in rows:
        r = [minor * x for x in r]
        for p, q in zip(pivots, out):
            if f := r[p] // minor:
                r = [x - f * y if y else x for x, y in zip(r, q)]
        p = next((k for k, x in enumerate(r) if x), None)
        if p is not None:
            out = [[(r[p] * x - q[p] * y) // minor if x or y else 0
                    for x, y in zip(q, r)] for q in out] + [r]
            pivots.append(p)
            minor = r[p]
    return out, pivots, minor


def _det(rows) -> int:
    """The determinant of square integer rows, 1 when empty, for `det` and
    for `finite`'s determinants mod p: `_gauss_jordan`'s minor, signed by
    the order of its pivots, and 0 below full rank."""
    _, pivots, minor = _gauss_jordan(rows)
    swaps = sum(a > b for i, a in enumerate(pivots) for b in pivots[i + 1:])
    return (-1) ** swaps * minor * (len(pivots) == len(rows))


def _solve(a, b) -> tuple[list, int]:
    """a^-1 b for a square a as an integer pair (X, delta) in lowest terms,
    delta > 0, from one `_gauss_jordan` of [a | b], whose minor is +-det a:
    integer rows only, as rationals are scaled in `Matrix._rational` and
    `decompose_module`.  Raises SingularMatrix."""
    n = len(a)
    out, pivots, minor = _gauss_jordan([r + s for r, s in zip(a, b)])
    if len(pivots) < n or any(p >= n for p in pivots):
        raise SingularMatrix("matrix is singular")
    rows, sign = dict(zip(pivots, out)), (minor > 0) - (minor < 0)
    g = sign * gcd(minor, *(x for q in out for x in q[n:]))
    return [[x // g for x in rows[i][n:]] for i in range(n)], minor // g


def _imul(a, b) -> list:
    """The product of two matrices given as integer rows."""
    cols = list(zip(*b))
    return [[sum(map(mul, r, c)) for c in cols] for r in a]


def _shift(m, s, t=1) -> list:
    """The integer rows of s I - t m."""
    return [[s * (i == j) - t * x for j, x in enumerate(r)]
            for i, r in enumerate(m)]


def _berkowitz(a) -> list:
    """Coefficients [c_0, ..., c_n] of det(t*I - A) for the integer rows `a`
    of a square matrix, never dividing (Berkowitz 1984).  With A_k the
    leading k x k block, p_k(t) = det(tI - A_k) highest degree first,
    x = a[k][k] and r, c the rest of row and column k, p_(k+1) =
    (t - x) p_k - r adj(tI - A_k) c is the lower triangular Toeplitz matrix
    with first column (1, -x, -r c, -r A_k c, ..., -r A_k^(k-1) c) times
    p_k."""
    p = [1]
    for k, row in enumerate(a):
        head = a[:k]  # rows of A_k; zip stops each dot at column k
        v = [r[k] for r in head]
        column = [1, -row[k]]
        for j in range(k):
            if j:
                v = [sum(map(mul, r, v)) for r in head]
            column.append(-sum(map(mul, row, v)))
        p = [sum(map(mul, column[i::-1], p)) for i in range(k + 2)]
    return p[::-1]
