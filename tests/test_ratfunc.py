"""Rational functions: canonical form, field laws on the Q(z) oracle
(`covering_oracle.QZ`), class representatives, series tails."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.errors import NotInvertibleInNovikov
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.ratfunc import RatFunc, series_ints

from covering_oracle import (
    QZ, fraction_series, frac_class, integer_ratio, series_expand_oracle)

F = Fraction
z = LaurentPoly.z()


def expand(num, den, side, lo, hi):
    """`fraction_series` of num / den for a `LaurentPoly` num, negative
    powers allowed, and a rational den: num = z^k A, A ordinary, is read as the
    integer ratio of A / den in degrees lo - k..hi - k."""
    k = num.ordinary()[1]
    got = fraction_series(*integer_ratio(num.shift(-k), den), side, lo - k,
                          hi - k)
    return {d + k: v for d, v in got.items()}


def rand_ratfunc():
    coeff = st.integers(min_value=-5, max_value=5)
    num = st.lists(coeff, min_size=0, max_size=4).map(
        lambda cs: LaurentPoly.from_dense([F(c) for c in cs])
    )
    den = st.lists(coeff, min_size=1, max_size=4).map(
        lambda cs: LaurentPoly.from_dense([F(c) for c in cs]) + z**4
    )
    return st.builds(QZ.make, num, den)


def test_canonical_form_reduces():
    f = RatFunc.make((z - 1) * (z - 2), (z - 2) * (z - 3))
    assert f == RatFunc.make(z - 1, z - 3)
    # denominator is monic with nonzero constant term
    assert f.den[-1] == 1 and f.den[0] != 0


def test_z_powers_move_to_numerator():
    f = RatFunc.make(LaurentPoly.one(), z**3 - z**2)
    assert f == RatFunc.make(z**-2, z - 1)


@given(rand_ratfunc(), rand_ratfunc())
def test_field_laws(f, g):
    assert f + g == g + f
    assert f * g == g * f
    assert f - f == QZ.zero()
    if not g.is_zero():
        assert (f / g) * g == f


@given(rand_ratfunc())
def test_bar_involutive(f):
    assert f.bar().bar() == f


def test_inverse_of_zero_raises():
    with pytest.raises(NotInvertibleInNovikov):
        QZ.zero().inverse()


# ---- representatives modulo Laurent polynomials ----

def test_frac_class_drops_polynomial_part():
    f = QZ.make(z**2 + 1, z - 3)
    g = f + QZ.make(z**5 - 7 * z**-2)
    assert frac_class(f) == frac_class(g)


def test_frac_class_zero_for_laurent():
    assert frac_class(QZ.make(z**3 - z**-1)) == QZ.zero()


def test_frac_class_reduces_degree():
    f = QZ.make(z**9, (z - 2) * (z - 5))
    c = frac_class(f)
    assert c.num.min_deg() >= 0
    assert c.num.max_deg() < 2


def test_frac_class_of_negative_powers():
    # z^-1 / (z - 3) = -1 / (3 z) + (1/3) / (z - 3)
    assert frac_class(QZ.make(z**-1, z - 3)) == QZ.make(
        F(1, 3), z - 3)
    rng = random.Random(7)
    for _ in range(40):
        middle = [F(rng.randint(-4, 4)) for _ in range(rng.randint(0, 3))]
        den = LaurentPoly.from_dense(
            [F(rng.choice([-3, -1, 1, 2]))] + middle + [F(1)])
        num = LaurentPoly({k: F(rng.randint(-5, 5), rng.randint(1, 3))
                           for k in range(-5, 4)})
        f = QZ.make(num, den)
        c = frac_class(f)
        assert (f - c).is_laurent()
        assert c.is_zero() or (c.num.min_deg() >= 0
                               and c.num.max_deg() < len(c.den) - 1)


# ---- series expansions at both completions ----

def test_plus_expansion_of_simple_pole():
    # 1/(a - z) = a^-1 + a^-2 z + a^-3 z^2 + ...
    a = F(5)
    f = RatFunc.make(LaurentPoly.one(), LaurentPoly.const(a) - z)
    got = fraction_series(*integer_ratio(f.num, f.den), "plus", 0, 2)
    assert got == {0: F(1, 5), 1: F(1, 25), 2: F(1, 125)}


def test_minus_expansion_of_simple_pole():
    # 1/(a - z) = -z^-1 - a z^-2 - a^2 z^-3 - ...
    a = F(5)
    f = RatFunc.make(LaurentPoly.one(), LaurentPoly.const(a) - z)
    got = fraction_series(*integer_ratio(f.num, f.den), "minus", -3, -1)
    assert got == {-3: F(-25), -2: F(-5), -1: F(-1)}


def test_two_expansions_differ_for_nonpolynomial():
    # the difference of the two tails detects the class of 1/(1+z)
    f = RatFunc.make(LaurentPoly.one(), 1 + z)
    pair = integer_ratio(f.num, f.den)
    plus0 = fraction_series(*pair, "plus", 0, 0)[0]
    minus0 = fraction_series(*pair, "minus", 0, 0)[0]
    assert plus0 == 1 and minus0 == 0


def test_expansions_of_an_integer_pair():
    # z / (1 - z) = z + z^2 + ... = -1 - z^-1 - z^-2 - ..., read off the
    # pair ([0, 1], 1) over a denominator with a negative top coefficient
    num, den = ([0, 1], 1), [1, -1]
    assert fraction_series(num, den, "plus", 0, 2) == {0: 0, 1: 1, 2: 1}
    assert fraction_series(num, den, "minus", -2, 0) == {-2: -1, -1: -1,
                                                          0: -1}


@given(rand_ratfunc())
def test_expansions_agree_on_laurent_part(f):
    p = z**2 - 3 + z**-1
    g = f + QZ.make(p)
    dplus = expand(g.num, g.den, "plus", -2, 3)
    fplus = expand(f.num, f.den, "plus", -2, 3)
    for d in range(-2, 4):
        assert dplus[d] - fplus[d] == p.coefficient(d)


@given(rand_ratfunc())
def test_expansions_need_no_lowest_terms(f):
    # a common factor with a nonzero constant and top coefficient changes
    # neither expansion
    q = [F(2), F(-1), F(3)]
    num = f.num * LaurentPoly.from_dense(q)
    den = LaurentPoly.from_dense(f.den) * LaurentPoly.from_dense(q)
    for side, lo, hi in (("plus", -2, 3), ("minus", -4, 1)):
        assert expand(num, den.ordinary()[0], side, lo, hi) == \
            expand(f.num, f.den, side, lo, hi)


def test_expansion_refuses_a_denominator_vanishing_at_its_side():
    with pytest.raises(NotInvertibleInNovikov):
        fraction_series(([1], 1), [0, 1], "plus", 0, 1)
    with pytest.raises(NotInvertibleInNovikov):
        fraction_series(([1], 1), [], "minus", 0, 1)


class TestExpansionAgainstOracle:
    """The integer recurrence against the `Fraction` one it replaced, on
    random numerators and denominators read through their integer ratio,
    and on integer pairs as `LaurentLinkingForm` stores them."""

    @staticmethod
    def random_case(rng):
        size = rng.randint(0, 6)  # den = [] is refused on both sides
        if rng.random() < 0.5:
            den = [rng.randint(-9, 9) for _ in range(size)]
        else:
            den = [F(rng.randint(-9, 9), rng.randint(1, 12))
                   for _ in range(size)]
        num = LaurentPoly({rng.randint(-6, 6): F(rng.randint(-9, 9),
                                                 rng.randint(1, 7))
                           for _ in range(rng.randint(0, 4))})
        lo = rng.randint(-9, 6)
        return num, den, lo, lo + rng.randint(-3, 9)

    def test_random_inputs(self):
        rng = random.Random(20261019)
        seen = dict.fromkeys(("refused", "zero", "empty", "int", "rational",
                              "negative", "positive"), 0)
        for _ in range(800):
            num, den, lo, hi = self.random_case(rng)
            for side in ("plus", "minus"):
                try:
                    want = series_expand_oracle(num, den, side, lo, hi)
                except NotInvertibleInNovikov:
                    with pytest.raises(NotInvertibleInNovikov):
                        expand(num, den, side, lo, hi)
                    seen["refused"] += 1
                    continue
                got = expand(num, den, side, lo, hi)
                assert got == want and list(got) == list(want)
                assert all(type(v) is Fraction for v in got.values())
                seen["zero"] += num.is_zero()
                seen["empty"] += hi < lo
                seen["int"] += all(type(c) is int for c in den)
                seen["rational"] += any(c.denominator > 1 for c in den)
                seen["negative"] += any(r < 0 for r in num.coeffs)
                seen["positive"] += any(r > 0 for r in num.coeffs)
        assert min(seen.values()) > 10, seen

    def test_large_denominators(self):
        # a den(0) and a top coefficient far from 1 raise the recurrence's
        # powers of D_0 to hundreds of bits
        num = LaurentPoly({-3: F(5, 7), 0: F(1), 4: F(-2, 3)})
        den = [F(2**61 - 1, 3), F(1, 5), F(-7), F(3, 2**40)]
        for side, lo, hi in (("plus", -3, 20), ("minus", -20, 4)):
            assert expand(num, den, side, lo, hi) == \
                series_expand_oracle(num, den, side, lo, hi)

    def test_integer_pairs(self):
        # N with zero low coefficients over d, the way a record keeps a
        # numerator, and denominators that are not monic, half of them
        # with a negative top coefficient
        rng = random.Random("integer-pairs")
        seen = {"low zeros": 0, "negative top": 0, "positive top": 0}
        for _ in range(300):
            big_n = [0] * rng.randint(0, 3) + [
                rng.randint(-9, 9) for _ in range(rng.randint(1, 4))]
            d = rng.randint(1, 6)
            den = [rng.choice([-5, -2, -1, 1, 3])] + [
                rng.randint(-4, 4) for _ in range(rng.randint(0, 3))]
            den.append(rng.choice([-7, -3, -2, 2, 3, 5]))
            lo = rng.randint(-8, 4)
            for side in ("plus", "minus"):
                num = LaurentPoly.from_dense([F(c, d) for c in big_n])
                assert fraction_series((big_n, d), den, side, lo, lo + 8) == \
                    series_expand_oracle(num, den, side, lo, lo + 8)
            seen["low zeros"] += big_n[0] == 0 and any(big_n)
            seen["negative top" if den[-1] < 0 else "positive top"] += 1
        assert min(seen.values()) > 50, seen


class TestIntegerExpansion:
    """`series_ints`, the integers over one scale that the monodromy
    reads, against the `Fraction` recurrence, on the cases that return
    early as well: a zero numerator, lo > hi, and every degree below the
    expansion's lowest term (need < 0), on both sides."""

    def test_against_the_oracle(self):
        rng = random.Random("series-ints")
        seen = dict.fromkeys(("plus", "minus", "zero numerator", "lo > hi",
                              "need < 0", "scaled"), 0)
        for _ in range(800):
            num, den, lo, hi = TestExpansionAgainstOracle.random_case(rng)
            num = num.shift(-num.ordinary()[1])  # no negative power
            for side in ("plus", "minus"):
                try:
                    want = series_expand_oracle(num, den, side, lo, hi)
                except NotInvertibleInNovikov:
                    with pytest.raises(NotInvertibleInNovikov):
                        series_ints(*integer_ratio(num, den), side, lo, hi)
                    continue
                pair, big_d = integer_ratio(num, den)
                coeffs, scale = series_ints(pair, big_d, side, lo, hi)
                assert all(type(c) is int for c in coeffs + [scale])
                assert len(coeffs) == len(want)
                assert [F(c, scale) for c in coeffs] == list(want.values())
                seen[side] += 1
                seen["zero numerator"] += num.is_zero()
                seen["lo > hi"] += hi < lo
                seen["scaled"] += scale != pair[1]
                if not num.is_zero() and lo <= hi:
                    degrees = sorted(num.coeffs)
                    need = (hi - degrees[0] if side == "plus" else
                            degrees[-1] - (len(big_d) - 1) - lo)
                    seen["need < 0"] += need < 0
        assert min(seen.values()) > 10, seen

    def test_refusals(self):
        with pytest.raises(ValueError, match="side"):
            series_ints(([1], 1), [1, 1], "both", 0, 1)
        with pytest.raises(NotInvertibleInNovikov):
            series_ints(([1], 1), [1, 0], "minus", 0, 1)
