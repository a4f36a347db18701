"""Smith normal form over Z (`wittkit.exact.snf`), and over the polynomial
rings through the generic oracle copy in `snf_oracle`.  `wittkit.exact.snf`
keeps only V and the divisors; they must be the oracle's, and the oracle's
U completes U A V = D."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.snf import smith_normal_form

import snf_oracle

F = Fraction
z = LaurentPoly.z()


def rand_int_matrix(max_n=4):
    entry = st.integers(min_value=-20, max_value=20)
    return st.integers(min_value=1, max_value=max_n).flatmap(
        lambda n: st.lists(
            st.lists(entry, min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        ).map(Matrix.from_ints)
    )


def _nonzero(res) -> list:
    return [d for d in res.divisors if d]


def _check_invariants(res, divides=lambda a, b: b % a == 0):
    assert res.U * res.A * res.V == res.D
    divs = _nonzero(res)
    for a, b in zip(divs, divs[1:]):
        assert divides(a, b)


def _oracle_twin(a, res):
    """The oracle's Smith form of a, after checking that res, the one of
    `wittkit.exact.snf`, has its V and divisors and that its U completes
    U A V = D."""
    want = snf_oracle.smith_normal_form(a, ring="Z")
    assert res.V == want.V and res.divisors == want.divisors
    _check_invariants(want)
    return want


def _check_poly_invariants(res):
    _check_invariants(res, snf_oracle._ops_for(res.ring).divides)


def test_known_integer_case():
    a = Matrix.from_ints([[2, 4, 4], [-6, 6, 12], [10, 4, 16]])
    res = smith_normal_form(a)
    assert _nonzero(res) == [2, 2, 156]
    _oracle_twin(a, res)


def test_identity_and_zero():
    res = smith_normal_form(Matrix.from_ints([[0, 0], [0, 0]]))
    assert _nonzero(res) == []
    assert res.divisors == [0, 0]
    res = smith_normal_form(Matrix.from_ints([[1, 0], [0, 1]]))
    assert _nonzero(res) == [1, 1]


def test_rectangular():
    a = Matrix.from_ints([[2, 4, 6]])
    res = smith_normal_form(a)
    assert _nonzero(res) == [2]
    _oracle_twin(a, res)


@given(rand_int_matrix())
def test_integer_snf_invariants(a):
    res = smith_normal_form(a)
    # transforms are unimodular
    assert abs(_oracle_twin(a, res).U.det()) == 1
    assert abs(res.V.det()) == 1
    divs = _nonzero(res)
    for d, e in zip(divs, divs[1:]):
        assert e % d == 0
    for d in divs:
        assert d > 0


def _check_integral_inverses(a):
    # U and V are unimodular exactly when their inverses over Q are
    # integral, as the boundary oracle's U^-1 must be; SNFResult keeps no
    # U, so U is the oracle's
    res = smith_normal_form(a)
    for t in (_oracle_twin(a, res).U, res.V):
        inv = t.inverse()
        assert inv * t == Matrix.identity(t.nrows)
        assert all(x.denominator == 1 for row in inv.rows for x in row)


def test_u_inverse_integer():
    _check_integral_inverses(Matrix.from_ints([[4, 2], [2, 8]]))


def _check_u_inv(res, one):
    ident = Matrix.identity(res.U.nrows, one)
    assert res.U_inv * res.U == ident
    assert res.U * res.U_inv == ident


@pytest.mark.parametrize("rows", [
    [[2, 0], [0, 3]],                       # 2 does not divide 3: fold
    [[6, 0, 0], [0, 10, 0], [0, 0, 15]],    # folds at two pivots
    [[1, 2], [2, 4]],                       # rank-deficient
    [[0, 0], [0, 0]],
    [[2, 4, 6]],                            # rectangular
    [[2], [4], [7]],
])
def test_u_inv_integer_cases(rows):
    _check_integral_inverses(Matrix.from_ints(rows))


@given(rand_int_matrix())
def test_u_inv_integer_random(a):
    _check_integral_inverses(a)


@pytest.mark.parametrize("rows", [
    [[z - 2, 0], [0, z - 3]],                # coprime divisors: fold
    [[z - 1, 1], [0, z - 1]],
    [[z - 1, z**2 - 1], [1, z + 1]],         # rank-deficient
    [[z, z - 1, 1 + z**-1]],                 # rectangular
    [[2 * z**3, 0], [0, 3 * z**-2]],         # units with z-powers
])
def test_u_inv_laurent_cases(rows):
    a = Matrix([[x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)
                 for x in row] for row in rows])
    res = snf_oracle.smith_normal_form(a, ring="Q[z,z^-1]")
    _check_poly_invariants(res)
    _check_u_inv(res, LaurentPoly.one())


def test_u_inv_laurent_random():
    rng = random.Random(7)
    for _ in range(40):
        m, n = rng.randint(1, 4), rng.randint(1, 4)
        a = Matrix([[LaurentPoly({k: rng.randint(-3, 3) for k in (-1, 0, 1)})
                     for _ in range(n)] for _ in range(m)])
        res = snf_oracle.smith_normal_form(a, ring="Q[z,z^-1]")
        _check_poly_invariants(res)
        _check_u_inv(res, LaurentPoly.one())


# ---- polynomial rings ----

def test_poly_snf_diagonalizes():
    a = Matrix([[z - 1, LaurentPoly.one()], [LaurentPoly.zero(), z - 1]])
    res = snf_oracle.smith_normal_form(a, ring="Q[z]")
    _check_poly_invariants(res)
    divs = res.nonzero_divisors
    assert divs[0] == LaurentPoly.one()
    assert divs[1] == (z - 1) ** 2


def test_laurent_snf_normalizes_units():
    # z^2 is a unit over Q[z, 1/z], so the lone divisor is 1
    a = Matrix([[z**2]])
    res = snf_oracle.smith_normal_form(a, ring="Q[z,z^-1]")
    assert res.nonzero_divisors == [LaurentPoly.one()]
    _check_poly_invariants(res)


def test_laurent_snf_known_module():
    # presents Z[z,1/z]-module with divisors 1, (z-1)(z-2)
    a = Matrix([[z - 1, LaurentPoly.zero()], [LaurentPoly.one(), z - 2]])
    res = snf_oracle.smith_normal_form(a, ring="Q[z,z^-1]")
    divs = res.nonzero_divisors
    assert divs[0] == LaurentPoly.one()
    assert divs[1] == (z - 1) * (z - 2)
    _check_poly_invariants(res)


def test_poly_divisor_chain():
    a = Matrix([[z, LaurentPoly.zero()], [LaurentPoly.zero(), z - 1]])
    res = snf_oracle.smith_normal_form(a, ring="Q[z]")
    divs = res.nonzero_divisors
    # divisibility chain forces 1 then z(z-1)
    assert divs[0] == LaurentPoly.one()
    assert divs[1] == z * (z - 1)
