"""Laurent polynomial arithmetic and the conjugation involution.

Self-conjugacy is tested on integer lists (`polys.self_conjugate`); the
unit +-z^k the `LaurentPoly` route returned (`factor_oracle`) is checked
against it and against the route before that."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly

from factor_oracle import is_self_conjugate

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

def self_conjugate(p) -> bool:
    """`polys.self_conjugate` on p's ordinary part."""
    return polys.self_conjugate(p.ordinary()[0])


def test_self_conjugate_detects_palindromic():
    u = is_self_conjugate(z**2 - z + 1)
    assert u == z**2  # bar(p) * z^2 == p
    assert polys.self_conjugate([1, -1, 1])
    assert polys.self_conjugate([2, -3, 2])


def test_self_conjugate_detects_antipalindromic():
    u = is_self_conjugate(z - 1)
    assert u == -z  # bar(z - 1) = z^-1 - 1 = -z^-1 (z - 1)
    assert polys.self_conjugate([-1, 1])
    assert polys.self_conjugate([1, 0, -1])


def test_self_conjugate_rejects_generic():
    assert is_self_conjugate(z - 2) is None
    assert is_self_conjugate(z**2 + z + 2) is None
    assert not polys.self_conjugate([-2, 1])
    assert not polys.self_conjugate([2, 1, 1])
    assert not polys.self_conjugate([1, 2, -1])


def test_plus_one_is_palindromic():
    assert is_self_conjugate(z + 1) == z
    assert polys.self_conjugate([1, 1])


def parent_is_self_conjugate(p):
    """The route `is_self_conjugate` took before it compared coefficients:
    build bar(p) z^k and compare it with p, once for each sign."""
    if p.is_zero():
        return None
    k = p.min_deg() + p.max_deg()
    for sign in (1, -1):
        if p.bar().shift(k) * sign == p:
            return LaurentPoly.monomial(sign, k)
    return None


def symmetric_support(rng, sign, spoil):
    """A polynomial c_d z^d with c_(k-d) = sign c_d on its support, with
    one coefficient pair broken (the support stays symmetric) if `spoil`."""
    lo, n = rng.randint(-5, 3), rng.randint(0, 6)
    half = [Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                     rng.randint(1, 3)) for _ in range(n // 2 + 1)]
    cs = [half[min(i, n - i)] * (sign if i > n - i else 1)
          for i in range(n + 1)]
    if sign == -1 and n % 2 == 0:
        cs[n // 2] = Fraction(0)  # its own mirror, so it must vanish
    if spoil and n:
        cs[n] = cs[n] * 2 if cs[n] else Fraction(1)
    return LaurentPoly.from_dense(cs, lo)


@given(rand_laurent())
def test_self_conjugate_matches_parent_on_random(p):
    assert is_self_conjugate(p) == parent_is_self_conjugate(p)
    if p:
        assert self_conjugate(p) == (is_self_conjugate(p) is not None)


def test_self_conjugate_matches_parent_on_built_inputs():
    rng = random.Random(27)
    found = {1: 0, -1: 0, None: 0}
    for _ in range(300):
        sign, spoil = rng.choice([1, -1]), rng.random() < 0.3
        p = symmetric_support(rng, sign, spoil)
        got = is_self_conjugate(p)
        assert got == parent_is_self_conjugate(p), p
        assert not p or self_conjugate(p) == (got is not None), p
        found[None if got is None else got.coefficient(got.max_deg())] += 1
    for k in range(-4, 5):  # monomials: bar(c z^k) z^2k = c z^k
        for c in (Fraction(1), Fraction(-3, 2)):
            p = LaurentPoly.monomial(c, k)
            assert is_self_conjugate(p) == parent_is_self_conjugate(p) \
                == z ** (2 * k)
            assert self_conjugate(p)
    # z^3 - 2z + 4 has support {0, 1, 3}, not symmetric; z^2 + 2z - 1 and
    # 2z^2 + 1 have symmetric support but are not self-conjugate
    for p in (z**3 - 2 * z + 4, z**2 + 2 * z - 1, 2 * z**2 + 1):
        assert is_self_conjugate(p) is None
        assert parent_is_self_conjugate(p) is None
        assert not self_conjugate(p)
    assert is_self_conjugate(LaurentPoly.zero()) is None
    assert all(count > 30 for count in found.values()), found
