"""Generic matrices over Q, Laurent polynomials, and rational functions."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import SingularMatrix
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.ratfunc import RatFunc

from snf_oracle import pencil_adjugate

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
    assert coeffs[2] == -a.trace()


def test_charpoly_of_laurent_entries():
    m = Matrix([[z, LaurentPoly.one()], [LaurentPoly.zero(), z**-1]])
    coeffs = m.charpoly()
    # det(tI - m) = t^2 - (z + 1/z) t + 1
    assert coeffs[0] == LaurentPoly.one()
    assert coeffs[1] == -(z + z**-1)
    assert coeffs[2] == LaurentPoly.one()


def test_ratfunc_inverse():
    m = Matrix([[z - 1, LaurentPoly.one()], [LaurentPoly.zero(), z + 1]])
    inv = m.map(RatFunc.make).inverse()
    prod = inv * m.map(RatFunc.make)
    assert prod[0, 0] == RatFunc.one()
    assert prod[0, 1].is_zero()
    assert prod[1, 1] == RatFunc.one()


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
                      - a.map(lambda c: y * c)).map(RatFunc.make)
            oracle_det = pencil.det()
            assert RatFunc.make(det) == oracle_det
            assert adj.map(RatFunc.make) == pencil.inverse().map(
                lambda r: r * oracle_det)


def test_block_diag_and_stack():
    a = Matrix.from_ints([[1]])
    b = Matrix.from_ints([[2, 0], [0, 3]])
    c = Matrix.block_diag([a, b])
    assert c.shape == (3, 3)
    assert c[1, 1] == 2 and c[0, 1] == 0
    assert a.hstack(Matrix.from_ints([[5]])).shape == (1, 2)


def test_rank():
    assert Matrix.from_ints([[1, 2], [2, 4]]).rank() == 1
    assert Matrix.from_ints([[1, 0], [0, 1]]).rank() == 2
    assert Matrix.zeros(2, 3).rank() == 0


def test_bar_is_entrywise():
    m = Matrix([[z, z**2]])
    assert m.bar() == Matrix([[z**-1, z**-2]])
