"""Factorization over Q[z, 1/z], cross-checked against sympy."""

from fractions import Fraction

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from wittkit.errors import InvariantViolated
from wittkit.exact import factor
from wittkit.exact.factor import factor_rational_poly
from wittkit.exact.laurent import LaurentPoly

F = Fraction
z = LaurentPoly.z()


def rand_int_poly():
    return st.lists(
        st.integers(min_value=-8, max_value=8), min_size=1, max_size=7
    ).filter(lambda cs: any(cs)).map(
        lambda cs: LaurentPoly.from_dense([F(c) for c in cs])
    )


def drop_last_factor(monkeypatch):
    """Make the factorization lose the last irreducible factor it finds."""
    found = factor._factor_primitive_int
    monkeypatch.setattr(factor, "_factor_primitive_int",
                        lambda f: found(f)[:-1])


def reassemble(unit, factors):
    out = unit
    for f, m in factors:
        out = out * f**m
    return out


def test_known_factorizations():
    unit, factors = factor_rational_poly((z**2 - z + 1) * (z - 1) ** 2)
    assert unit == LaurentPoly.one()
    assert factors == [(z - 1, 2), (z**2 - z + 1, 1)]


def test_unit_extraction():
    p = LaurentPoly.monomial(F(3, 2), -5) * (z - 2)
    unit, factors = factor_rational_poly(p)
    assert unit == LaurentPoly.monomial(F(3, 2), -5)
    assert factors == [(z - 2, 1)]


def test_constant_input():
    unit, factors = factor_rational_poly(LaurentPoly.const(F(7, 3)))
    assert unit == LaurentPoly.const(F(7, 3))
    assert factors == []


def test_zero_rejected():
    with pytest.raises(ValueError):
        factor_rational_poly(LaurentPoly.zero())


def test_non_monic_irreducible():
    # 2z^2 - 3z + 2 is irreducible; monic form has fractional coefficients
    unit, factors = factor_rational_poly(2 * z**2 - 3 * z + 2)
    assert unit == LaurentPoly.const(2)
    assert factors == [(z**2 - F(3, 2) * z + 1, 1)]


def test_high_degree_swinnerton_dyer_style():
    # (z^2-2)(z^2-3)(z^2+1): pairwise distinct irreducible quadratics
    p = (z**2 - 2) * (z**2 - 3) * (z**2 + 1)
    unit, factors = factor_rational_poly(p)
    assert unit == LaurentPoly.one()
    assert sorted(f.max_deg() for f, _ in factors) == [2, 2, 2]
    assert reassemble(unit, factors) == p


@settings(max_examples=60, deadline=None)
@given(rand_int_poly(), rand_int_poly())
def test_roundtrip_and_sympy_agreement(a, b):
    p = a * b * z**-3
    unit, factors = factor_rational_poly(p)
    assert reassemble(unit, factors) == p
    assert unit.is_unit()
    # every reported factor is irreducible according to sympy
    x = sympy.Symbol("x")
    for f, _ in factors:
        dense, _ = f.ordinary()
        expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
                   for i, c in enumerate(dense))
        assert sympy.Poly(expr, x).is_irreducible, f


def test_multiplicity_tracking():
    p = (z - 1) ** 3 * (z + 1) ** 2 * (z**2 + z + 1)
    unit, factors = factor_rational_poly(p)
    mults = {tuple(sorted(f.coeffs.items())): m for f, m in factors}
    assert mults[tuple(sorted((z - 1).coeffs.items()))] == 3
    assert mults[tuple(sorted((z + 1).coeffs.items()))] == 2
    assert reassemble(unit, factors) == p


def test_lost_factor_is_an_invariant_violation(monkeypatch):
    drop_last_factor(monkeypatch)
    for p in (z**2 - z + 1, (z - 1) * (z**2 + 1), 3 * z**-2 * (z + 2)):
        with pytest.raises(InvariantViolated, match="lost a factor"):
            factor_rational_poly(p)
