"""Generic matrices over Q, Laurent polynomials, and rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import SingularMatrix
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact import matrix
from wittkit.exact.matrix import (
    Matrix, _dot, _gauss_jordan, _imul, _integral, _solve)
from wittkit.exact.residue import ResidueField

from covering_oracle import QZ
import elimination_oracle as oracle
from elimination_oracle import _apply
from elimination_oracle import inverse as qz_inverse
from lt_oracle import cyclotomic_polynomial
from snf_oracle import _faddeev_leverrier, matrix_trace, pencil_adjugate

F = Fraction
z = LaurentPoly.z()


def rand_int_matrix(n):
    entry = st.integers(min_value=-9, max_value=9)
    return st.lists(
        st.lists(entry, min_size=n, max_size=n), min_size=n, max_size=n
    ).map(Matrix.from_ints)


def test_basic_algebra():
    a = Matrix.from_ints([[1, 2], [3, 4]])
    b = Matrix.from_ints([[0, 1], [1, 0]])
    assert a * b == Matrix.from_ints([[2, 1], [4, 3]])
    assert a + b - b == a
    assert a.transpose().transpose() == a
    assert (a * b).transpose() == b.transpose() * a.transpose()


def test_det_and_inverse():
    a = Matrix.from_ints([[2, 1], [1, 1]])
    assert a.det() == 1
    assert a * a.inverse() == Matrix.identity(2)
    with pytest.raises(SingularMatrix):
        Matrix.from_ints([[1, 2], [2, 4]]).inverse()


@given(rand_int_matrix(3))
def test_charpoly_constant_term_is_det(a):
    coeffs = a.charpoly()
    assert coeffs[0] == (-1) ** 3 * a.det()
    assert coeffs[3] == 1
    assert coeffs[2] == -matrix_trace(a)


class TestCharpolyOracle:
    """`Matrix.charpoly` (Berkowitz, on integers for a Fraction matrix)
    against Faddeev-LeVerrier, the route it replaced."""

    @staticmethod
    def fraction_matrix(rng, n, kind):
        """An n x n matrix of the given kind: "integral", "rational"
        (denominators mixed within the matrix, a few of 61 bits) or
        "deficient" (rows past a random r < n are combinations of the
        first r, with rational entries)."""
        def entry():
            if kind == "integral":
                return F(rng.randint(-9, 9))
            den = rng.choice([1, 2, 3, 4, 6, 7, 12, 2**61 - 1])
            return F(rng.randint(-9, 9), den)
        if kind != "deficient":
            return Matrix([[entry() for _ in range(n)] for _ in range(n)])
        r = rng.randrange(n) if n else 0
        rows = [[entry() for _ in range(n)] for _ in range(r)]
        while len(rows) < n:
            weights = [F(rng.randint(-3, 3), rng.randint(1, 3))
                       for _ in range(r)]
            rows.append([sum((w * row[j] for w, row in zip(weights, rows)),
                             F(0)) for j in range(n)])
        rng.shuffle(rows)
        return Matrix(rows)

    @pytest.mark.parametrize("kind", ["integral", "rational", "deficient"])
    def test_fraction_matrices(self, kind):
        rng = random.Random(f"charpoly-{kind}")
        for n in range(9):
            for _ in range(20):
                a = self.fraction_matrix(rng, n, kind)
                got = a.charpoly()
                assert got == _faddeev_leverrier(a)[0], a
                assert all(type(c) is Fraction for c in got)
                if kind == "deficient" and n:
                    assert oracle.rank(a) < n and got[0] == 0

    def test_integer_and_mixed_entries(self):
        for rows in ([[1, 2], [3, 4]], [[F(1, 2), 3], [0, F(-2, 3)]]):
            a = Matrix(rows)
            assert a.charpoly() == _faddeev_leverrier(a)[0]

    def test_non_square_is_refused(self):
        with pytest.raises(ValueError):
            Matrix.from_ints([[1, 2]]).charpoly()


def kernel_rref(a: Matrix) -> tuple[list, list]:
    """The reduced rows and pivots read off `_gauss_jordan`, as
    `Matrix.rref` read them while `_pencil_reduction` called it.  The
    kernel takes integer rows, so each row is scaled by the lcm of its
    denominators first, which changes neither."""
    out, pivots, minor = _gauss_jordan([_integral(r)[0] for r in a.rows])
    return [[Fraction(x, minor) for x in q] for q in out], pivots


class TestGaussJordanAgainstOracle:
    """The reduced rows of the fraction-free `_gauss_jordan`, and `inverse`
    and `det`, which run in it.  They must return what the loops
    over Q return: the same rows in the same order, the same pivots and the
    same determinant, also for int entries.  `det` and `charpoly` refuse
    entries that are not rational."""

    @staticmethod
    def random_matrix(rng, m, n):
        """m x n with rank at most r: combinations of r random rows, with
        zero rows, repeated rows and negative and non-unit pivots mixed
        in; some matrices have each row over its own denominator, some of
        61 bits, as `Matrix._rational` scales each row by its own lcm, and
        some rows are given as ints."""
        r = rng.randint(0, min(m, n))
        base = [[F(rng.randint(-9, 9), rng.choice([1, 1, 2, 3, 5, 12]))
                 for _ in range(n)] for _ in range(r)]
        rows = []
        for _ in range(m):
            if not base or rng.random() < 0.1:
                rows.append([F(0)] * n)
                continue
            weights = [rng.randint(-3, 3) * rng.choice([1, F(1, 2), 4])
                       for _ in base]
            rows.append([sum((w * b[j] for w, b in zip(weights, base)),
                             F(0)) for j in range(n)])
        if rows and rng.random() < 0.3:
            rows.append(list(rows[0]))
            rows.pop(0)
        if rng.random() < 0.4:
            scales = [F(rng.choice([1, -5, 2**40]),
                        rng.choice([7, 12, 2**61 - 1, 2**61 + 1]))
                      for _ in rows]
            rows = [[x * s for x in r] for r, s in zip(rows, scales)]
        if rng.random() < 0.2:
            rows = [[rng.randint(-6, 6) for _ in range(n)] for _ in rows]
        rng.shuffle(rows)
        return Matrix(rows)

    def test_random_matrices(self):
        rng = random.Random("gauss-jordan")
        seen = {"wide": 0, "tall": 0, "rank 0": 0, "singular": 0,
                "invertible": 0, "int": 0}
        for _ in range(600):
            m, n = rng.randint(1, 7), rng.randint(1, 7)
            a = self.random_matrix(rng, m, n)
            want = oracle.rref(a)
            assert kernel_rref(a) == want, a
            assert all(type(x) is Fraction for row in kernel_rref(a)[0]
                       for x in row)
            seen["wide"] += m < n
            seen["tall"] += m > n
            seen["rank 0"] += not want[1]
            seen["int"] += type(a[0, 0]) is int
            if m != n:
                continue
            det = oracle.det(a)
            assert a.det() == det and type(a.det()) is Fraction
            if det:
                assert a.inverse() == oracle.inverse(a)
                seen["invertible"] += 1
            else:
                with pytest.raises(SingularMatrix):
                    a.inverse()
                seen["singular"] += 1
        assert min(seen.values()) >= 10, seen

    def test_kernel_takes_integer_rows_as_they_are(self, monkeypatch):
        # no row of an integer matrix is rescaled on its way in
        def refuse(v):
            raise AssertionError("integer rows were rescaled")
        monkeypatch.setattr(matrix, "_integral", refuse)
        a = [[2, 1, 0], [4, 3, 6], [0, -1, 5]]
        out, pivots, minor = _gauss_jordan(a)
        assert pivots == [0, 1, 2] and abs(minor) == 22
        x, delta = _solve(a, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
        assert _imul(a, x) == [[delta * (i == j) for j in range(3)]
                               for i in range(3)]

    def test_pivots_found_out_of_order(self):
        # the second row's pivot lies left of the first's, and the third
        # row clears column 0 with a negative non-unit factor
        a = Matrix([[0, F(3, 2), 1], [-2, 4, F(1, 3)], [6, F(-9, 2), -4]])
        assert kernel_rref(a) == oracle.rref(a)
        assert kernel_rref(a)[1] == [1, 0, 2]
        assert a.det() == oracle.det(a)

    def test_other_entries_raise_type_error(self):
        field = ResidueField(cyclotomic_polynomial(12))
        rng = random.Random("residue-det")
        for n in range(1, 4):
            residue = Matrix([[field.elem([F(rng.randint(-3, 3))
                                           for _ in range(4)])
                               for _ in range(n)] for _ in range(n)])
            laurent = Matrix([[z**rng.randint(-2, 2) - F(rng.randint(-3, 3))
                               for _ in range(n)] for _ in range(n)])
            for a in (residue, laurent):
                for method in (a.det, a.charpoly, a.inverse):
                    with pytest.raises(TypeError):
                        method()


def test_ratfunc_inverse():
    m = Matrix([[z - 1, LaurentPoly.one()], [LaurentPoly.zero(), z + 1]])
    inv = qz_inverse(m.map(QZ.make))
    prod = inv * m.map(QZ.make)
    assert prod[0, 0] == QZ.one()
    assert prod[0, 1].is_zero()
    assert prod[1, 1] == QZ.one()


@pytest.mark.parametrize("seed", range(4))
def test_pencil_adjugate_matches_ratfunc_inverse(seed):
    # oracle: invert x*I - y*A by Gauss-Jordan over Q(z), scale by its det
    rng = random.Random(seed)
    one = LaurentPoly.one()
    pencils = [(z**-1, one), (one, one - z**-1), (one, one - z)]
    for n in range(6):
        a = Matrix([[F(rng.randint(-5, 5), rng.randint(1, 4))
                     for _ in range(n)] for _ in range(n)])
        if n > 1 and rng.random() < 0.5:  # rank-deficient A
            a.rows[-1] = [2 * x for x in a.rows[0]]
        for x, y in pencils:
            adj, det = pencil_adjugate(a, x, y)
            pencil = (Matrix.identity(n, one).scale(x)
                      - a.map(lambda c: y * c)).map(QZ.make)
            oracle_det = oracle.det(pencil)
            assert QZ.make(det) == oracle_det
            assert adj.map(QZ.make) == qz_inverse(pencil).map(
                lambda r: r * oracle_det)


def test_block_diag_and_stack():
    a = Matrix.from_ints([[1]])
    b = Matrix.from_ints([[2, 0], [0, 3]])
    c = Matrix.block_diag([a, b])
    assert c.shape == (3, 3)
    assert c[1, 1] == 2 and c[0, 1] == 0
    assert oracle.hstack(a, Matrix.from_ints([[5]])).shape == (1, 2)


def test_from_ints_converts_only_what_is_not_a_fraction():
    half = F(1, 2)
    m = Matrix.from_ints([[half, 3], ["-2/6", True]])
    assert m.rows == [[F(1, 2), F(3)], [F(-1, 3), F(1)]]
    assert all(type(x) is Fraction for r in m.rows for x in r)
    assert m[0, 0] is half
    assert Matrix.from_ints(m) == m and Matrix.from_ints(m).rows is not m.rows


def test_rank():
    assert oracle.rank(Matrix.from_ints([[1, 2], [2, 4]])) == 1
    assert oracle.rank(Matrix.from_ints([[1, 0], [0, 1]])) == 2
    assert oracle.rank(Matrix([[F(0)] * 3] * 2)) == 0


def test_bar_is_entrywise():
    m = Matrix([[z, z**2]])
    assert m.bar() == Matrix([[z**-1, z**-2]])


# ---- Fraction products against the generic route ----

def product_oracle(a, b):
    """a * b by a triple loop over Fraction arithmetic, entry by entry."""
    out = []
    for i in range(a.nrows):
        row = []
        for j in range(b.ncols):
            total = a[i, 0] * b[0, j]
            for k in range(1, a.ncols):
                total = total + a[i, k] * b[k, j]
            row.append(total)
        out.append(row)
    return Matrix(out)


def dot_route(a, b):
    """a * b through `_dot`, the route every non-Fraction product takes."""
    cols = b.transpose().rows
    return Matrix([[_dot(r, c) for c in cols] for r in a.rows])


def entry_types(m):
    return [[type(x) for x in row] for row in m.rows]


def rand_fraction_matrix(rng, m, n, bits):
    def entry():
        if rng.random() < 0.3:
            return F(0)
        return F(rng.randint(-2 ** bits, 2 ** bits),
                 rng.randint(1, 2 ** bits))
    rows = [[entry() for _ in range(n)] for _ in range(m)]
    if m > 1 and rng.random() < 0.5:
        rows[rng.randrange(m)] = [F(0)] * n
    if n > 1 and rng.random() < 0.5:
        j = rng.randrange(n)
        for row in rows:
            row[j] = F(0)
    return Matrix(rows)


@pytest.mark.parametrize("seed", range(6))
def test_fraction_product_matches_oracle(seed):
    rng = random.Random(seed)
    shapes = [(1, 1, 1), (1, 4, 3), (3, 2, 5), (4, 4, 4), (5, 1, 2),
              (2, 6, 1)]
    for m, k, n in shapes:
        for bits in (3, 100):
            a = rand_fraction_matrix(rng, m, k, bits)
            b = rand_fraction_matrix(rng, k, n, bits)
            prod = a * b
            assert prod == product_oracle(a, b)
            assert all(t is Fraction for row in entry_types(prod)
                       for t in row)
            col = [row[0] for row in b.rows]
            assert _apply(a.rows, col) == [row[0] for row in prod.rows]


def test_fraction_product_of_zeros_and_negatives():
    a = Matrix([[F(-1, 3), F(0)], [F(0), F(0)]])
    b = Matrix([[F(0), F(-5, 7)], [F(2), F(0)]])
    assert a * b == product_oracle(a, b) == Matrix(
        [[F(0), F(5, 21)], [F(0), F(0)]])
    zero = Matrix([[F(0)] * 2] * 3)
    prod = zero * Matrix([[F(0)] * 4] * 2)
    assert prod == Matrix([[F(0)] * 4] * 3)
    assert all(t is Fraction for row in entry_types(prod) for t in row)
    # near-100-bit denominators that cancel in the sum
    d = 2 ** 100 - 3
    x = Matrix([[F(1, d), F(-1, d)]])
    y = Matrix([[F(d, 7)], [F(d, 7)]])
    assert x * y == Matrix([[F(0)]])


def test_fraction_product_with_an_empty_side():
    empty = Matrix([])
    two_by_zero = Matrix([[], []])
    three_by_two = Matrix.from_ints([[1, 2], [3, 4], [5, 6]])
    cases = [(empty, empty, Matrix([])),
             (two_by_zero, empty, Matrix([[], []])),
             (three_by_two, two_by_zero, Matrix([[], [], []]))]
    for a, b, want in cases:
        assert a * b == product_oracle(a, b) == want
    assert _imul([], []) == []
    assert _imul([[], []], []) == [[], []]


def test_other_entry_types_take_the_dot_route():
    ints_a = Matrix([[1, 2], [3, 4]])
    ints_b = Matrix([[0, -1], [5, 0]])
    prod = ints_a * ints_b
    assert prod == dot_route(ints_a, ints_b) == Matrix([[10, -1], [20, -3]])
    assert all(t is int for row in entry_types(prod) for t in row)
    column = ints_a * Matrix([[1], [1]])
    assert column == Matrix([[3], [7]])
    assert all(t is int for row in entry_types(column) for t in row)
    assert _imul(ints_a.rows, [[1], [1]]) == [[3], [7]]
    assert all(type(x) is int for row in _imul(ints_a.rows, [[1], [1]])
               for x in row)
    mixed_a = Matrix([[1, F(1, 2)], [F(-2, 3), 0]])
    mixed_b = Matrix([[2, 0], [F(3, 5), 1]])
    for a, b in ((mixed_a, mixed_b), (mixed_a, ints_b), (ints_a, mixed_b)):
        prod = a * b
        want = dot_route(a, b)
        assert prod == want
        assert entry_types(prod) == entry_types(want)
    laurent_a = Matrix([[z, LaurentPoly.one()], [LaurentPoly.zero(), z**-1]])
    laurent_b = Matrix([[z - 1, LaurentPoly.zero()], [z**2, z]])
    rat_a = laurent_a.map(QZ.make)
    rat_b = Matrix([[QZ.make(z, z - 2), QZ.one()],
                    [QZ.zero(), QZ.make(1, z + 3)]])
    for a, b in ((laurent_a, laurent_b), (rat_a, rat_b)):
        prod = a * b
        want = dot_route(a, b)
        assert prod == want
        assert entry_types(prod) == entry_types(want)
