"""Laurent polynomial arithmetic and the conjugation involution."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.exact.laurent import LaurentPoly, is_self_conjugate

z = LaurentPoly.z()


def rand_laurent(min_deg=-4, max_deg=4):
    coeff = st.integers(min_value=-9, max_value=9)
    return st.builds(
        lambda cs, off: LaurentPoly.from_dense([Fraction(c) for c in cs], off),
        st.lists(coeff, min_size=0, max_size=6),
        st.integers(min_value=min_deg, max_value=0),
    )


# ---- construction and queries ----

def test_zero_strips_coefficients():
    p = LaurentPoly({2: Fraction(0), -1: Fraction(3)})
    assert p.coeffs == {-1: Fraction(3)}
    assert not LaurentPoly.zero()
    assert LaurentPoly.zero().is_zero()


def test_degree_range():
    p = z**3 + z**-2
    assert p.min_deg() == -2
    assert p.max_deg() == 3
    assert p.coefficient(0) == 0
    assert p.coefficient(3) == 1


def test_units_are_monomials():
    assert LaurentPoly.monomial(Fraction(-2), 5).is_unit()
    assert not (z + 1).is_unit()
    assert not LaurentPoly.zero().is_unit()


def test_ordinary_form():
    p = z**-2 + z
    dense, k = p.ordinary()
    assert k == -2
    assert dense == [Fraction(1), Fraction(0), Fraction(0), Fraction(1)]
    assert LaurentPoly.from_dense(dense, k) == p


# ---- ring laws ----

@given(rand_laurent(), rand_laurent(), rand_laurent())
def test_ring_laws(a, b, c):
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert a * b == b * a
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a - a == LaurentPoly.zero()


@given(rand_laurent())
def test_bar_is_involutive_and_multiplicative(a):
    assert a.bar().bar() == a
    assert (a * a.shift(3)).bar() == a.bar() * a.bar().shift(-3)


def test_negative_powers_of_units():
    u = LaurentPoly.monomial(Fraction(2), 3)
    assert u**-2 == LaurentPoly.monomial(Fraction(1, 4), -6)
    with pytest.raises(ValueError):
        (z + 1) ** -1


def test_evaluation():
    p = z**2 - z + 1
    assert p(Fraction(2)) == 3
    assert (z**-1)(Fraction(1, 2)) == 2


# ---- conjugation symmetry detection ----

def test_self_conjugate_detects_palindromic():
    u = is_self_conjugate(z**2 - z + 1)
    assert u == z**2  # bar(p) * z^2 == p


def test_self_conjugate_detects_antipalindromic():
    u = is_self_conjugate(z - 1)
    assert u == -z  # bar(z - 1) = z^-1 - 1 = -z^-1 (z - 1)


def test_self_conjugate_rejects_generic():
    assert is_self_conjugate(z - 2) is None
    assert is_self_conjugate(z**2 + z + 2) is None


def test_plus_one_is_palindromic():
    assert is_self_conjugate(z + 1) == z

