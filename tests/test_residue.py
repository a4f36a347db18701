"""The residue field on integers against the `Fraction` field it replaced.

`wittkit.exact.residue` keeps an element as its reduced integer pair over
the primitive modulus; `hermitian_oracle.ResidueField` is the field on
`Fraction` tuples over the monic modulus, with inverses by Euclid over Q
and the involution as a product with z^-(n-1).  Every comparison asks for
equal values: the field operations on random self-conjugate fields,
`polys.cos_poly` against twice the Chebyshev sums, the whole multisignature
(signatures, rank-only entries, the auxiliary grams and units, and the
signs of the leading minors at every root) on ladder knots, K # -K and
criterion-3 forms."""

import json
import random
from fractions import Fraction as F
from itertools import zip_longest
from math import gcd
from pathlib import Path

import pytest

from wittkit import laurent_forms
from wittkit.errors import InvariantViolated, SingularForm
from wittkit.exact import matrix, polys
from wittkit.exact import roots as roots_module
from wittkit.exact.factor import factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.residue import ResidueElem, ResidueField
from wittkit.exact.roots import unit_circle_roots
from wittkit.knots import KnotInput, blanchfield_form
from wittkit.laurent_forms import (
    auxiliary_hermitian,
    dw_multisignature_laurent,
    level_multiplicities,
)
from wittkit.seifert import covering_autometric

from factor_oracle import as_laurent, is_self_conjugate
import hermitian_oracle as oracle
from test_seifert import ladder_psi, random_autometric
import qpolys

FIXTURES = Path(__file__).parent / "fixtures"


def assert_integer_pair(e: ResidueElem):
    """e holds only ints: num of degree < deg P with no trailing zero, over
    den > 0, gcd(den, *num) = 1."""
    assert type(e.num) is tuple and type(e.den) is int
    assert all(type(c) is int for c in e.num)
    assert e.den > 0 and gcd(e.den, *e.num) == 1
    assert len(e.num) <= e.field.degree
    assert not e.num or e.num[-1]


def same(e: ResidueElem, old) -> bool:
    assert_integer_pair(e)
    return oracle.as_oracle(e) == old


def random_self_conjugate(rng, degree: int) -> list:
    """A primitive irreducible self-conjugate integer polynomial: z -+ 1 in
    degree 1, else palindromic, with a leading coefficient of 1, small, or
    past 2^60, drawn until `factor_rational_poly` finds one factor."""
    if degree == 1:
        return [rng.choice((-1, 1)), 1]
    while True:
        lead = rng.choice((1, rng.randint(2, 9), 2**61 + rng.randint(1, 99)))
        bound = rng.choice((5, 2**62))
        half = [lead] + [rng.randint(-bound, bound)
                         for _ in range(degree // 2)]
        p = half + half[-2::-1]
        factors = factor_rational_poly(p)
        if len(factors) == 1 and factors[0][1] == 1:
            return polys.primitive(p)


def random_rational(rng, length: int) -> list:
    return [F(rng.randint(-2**70, 2**70), rng.randint(1, 2**40))
            if rng.random() < 0.2 else F(rng.randint(-9, 9), rng.randint(1, 5))
            for _ in range(length)]


def random_laurent(rng, n: int) -> LaurentPoly:
    return LaurentPoly({rng.randint(-2 * n, 2 * n): c
                        for c in random_rational(rng, rng.randint(1, 5))})


def element_by_steps(field: ResidueField, num, den: int, shift: int):
    """The reduced pair of num z^shift / den by the loop
    `ResidueField.element` ran before it divided by z^-shift with one
    pseudo-division of the reversals: -shift steps that clear num's
    constant term c as (P(0)/g) num - (c/g) P, g = gcd(P(0), c), and
    divide by z."""
    p = field.modulus
    _, num, s = polys.divmod_poly([0] * shift + list(num), p)
    den *= s
    for _ in range(-shift):
        if num and num[0]:
            g = gcd(p[0], num[0])
            s, c = p[0] // g, num[0] // g
            num, den = [s * x - c * y for x, y in
                        zip_longest(num, p, fillvalue=0)], den * s
        num = num[1:]
    num, den = matrix._reduced(polys.trim(num), den)
    return tuple(num), den


def fields(seed: str, count: int):
    rng = random.Random(seed)
    for k in range(count):
        p = random_self_conjugate(rng, [1, 2, 4, 6, 8, 10, 12][k % 7])
        field = ResidueField(p)
        yield rng, field, oracle.ResidueField(qpolys.monic(
            [F(c) for c in p]))


class TestFieldAgainstOracle:
    def test_field_keeps_the_primitive_modulus(self):
        for _, field, old in fields("primitive", 14):
            assert field.self_conjugate and old.self_conjugate
            assert field.modulus[-1] > 0
            assert polys.primitive(field.modulus) == field.modulus
            assert qpolys.monic([F(c) for c in field.modulus]) == old.modulus
        assert any(field.modulus[-1] > 2**60
                   for _, field, _ in fields("primitive", 14))
        with pytest.raises(ValueError):
            ResidueField([F(3)])
        with pytest.raises(ValueError):
            ResidueField([0, 1, 1])

    def test_products_sums_and_powers(self):
        compared = 0
        for rng, field, old in fields("arithmetic", 28):
            n = field.degree
            for _ in range(6):
                a, b = (random_rational(rng, rng.randint(0, 2 * n))
                        for _ in range(2))
                ea, eb, oa, ob = field.elem(a), field.elem(b), old.elem(a), \
                    old.elem(b)
                assert same(ea, oa) and same(eb, ob)
                assert same(ea * eb, oa * ob)
                assert same(ea + eb, oa + ob) and same(ea - eb, oa - ob)
                assert same(-ea, -oa) and same(ea * 3, oa * 3)
                assert same(ea * F(-2, 7), oa * F(-2, 7))
                assert same(ea ** 3, oa ** 3)
                compared += 1
        assert compared == 168

    def test_inverses(self):
        compared = 0
        for rng, field, old in fields("inverse", 28):
            n = field.degree
            for _ in range(4):
                a = random_rational(rng, rng.randint(1, 2 * n))
                ea, oa = field.elem(a), old.elem(a)
                if oa.is_zero():
                    with pytest.raises(ZeroDivisionError):
                        ea.inverse()
                    continue
                inv = ea.inverse()
                assert same(inv, oa.inverse())
                assert ea * inv == field.one()
                assert (ea * ea).inverse() == inv * inv
                compared += 1
        assert compared > 100

    def test_involution(self):
        compared = 0
        for rng, field, old in fields("involution", 28):
            n = field.degree
            for _ in range(6):
                a = random_rational(rng, rng.randint(0, 2 * n))
                ea, oa = field.elem(a), old.elem(a)
                assert same(ea.bar(), oa.bar())
                assert ea.bar().bar() == ea
                compared += 1
            assert same(field.gen().bar(), old.gen().bar())
        assert compared == 168

    def test_from_laurent_with_negative_exponents(self):
        compared = negative = 0
        for rng, field, old in fields("laurent", 28):
            for _ in range(6):
                # its numerator at a negative shift through `element`
                p = random_laurent(rng, field.degree)
                assert same(oracle.laurent_class(field, p),
                            old.from_laurent(p))
                compared += 1
                negative += p.min_deg() < 0
            assert oracle.laurent_class(field, LaurentPoly.zero()) \
                == field.zero()
        assert compared == 168 and negative > 60

    def test_integer_constructor_reduces_once(self):
        # num z^shift / den for shifts of both signs, against the oracle's
        # product with a power of z
        for rng, field, old in fields("element", 21):
            n = field.degree
            for shift in (-2 * n, -n, -1, 0, 1, n, 2 * n):
                num = [rng.randint(-2**64, 2**64)
                       for _ in range(rng.randint(0, 3 * n))]
                den = rng.choice((1, -3, 2**65 + 1))
                want = old.elem([F(c, den) for c in num]) * old.from_laurent(
                    LaurentPoly.monomial(1, shift))
                assert same(field.element(num, den, shift), want)

    def test_negative_shifts_against_the_step_loop(self):
        # primitive P of degree 1-12, not monic, P(0) < 0 for half of them,
        # not necessarily irreducible or self-conjugate
        rng = random.Random("z-division")
        compared = negative = 0
        for k in range(96):
            n = k % 12 + 1
            p = [rng.randint(-30, 30) for _ in range(n)] + [rng.randint(2, 9)]
            p[0] = (-1) ** k * rng.randint(1, 30)
            field = ResidueField(p)
            negative += field.modulus[0] < 0
            assert field.modulus[-1] > 1 or n == 1 or p[-1] == 1
            for shift in range(-1, -2 * n - 1, -1):
                num = [rng.randint(-2**40, 2**40) * rng.randint(0, 1)
                       for _ in range(rng.randint(0, 3 * n))]
                den = rng.choice((1, -3, 2**65 + 1))
                e = field.element(num, den, shift)
                assert (e.num, e.den) == element_by_steps(field, num, den,
                                                          shift)
                assert field.element([0] * len(num), den, shift) \
                    == field.zero()
                compared += 1
        assert negative == 48 and compared == 2 * sum(
            range(1, 13)) * 8

    def test_cos_poly_against_chebyshev_sums(self):
        rng = random.Random("cos-poly")
        # integer coefficients in, twice the Chebyshev sum out, on integers
        for _ in range(300):
            coeffs = [c.numerator for c in random_rational(
                rng, rng.randint(0, 14))]
            offset = rng.randint(-16, 4)
            want = []
            for k, c in enumerate(coeffs):
                want = qpolys.add(want, qpolys.scal(
                    F(c) / 2, oracle.chebyshev_q(abs(k + offset))))
            got = polys.cos_poly(coeffs, offset)
            assert got == qpolys.scal(2, want)
            assert got == qpolys.scal(2, qpolys.cos_poly(coeffs, offset))
            assert all(type(c) is int for c in got)


# ---- the whole multisignature ----

def outcome(f, *args):
    try:
        return f(*args)
    except SingularForm:
        return "singular"


def pivot_signs(gram, roots) -> list:
    """Per root, the signs of the leading minors that
    `hermitian_signature_at_root` reads."""
    minors = roots_module._congruence_pivots(
        [list(row) for row in gram.rows])
    for d in minors:
        assert_integer_pair(d)
    return [[root.sign_of(polys.cos_poly(d.num)) for d in minors]
            for root in roots]


def assert_matches_oracle(form) -> int:
    """The multisignature, every level form and its minors' signs against
    the `Fraction` route; returns the number of level forms compared."""
    ms = outcome(dw_multisignature_laurent, form)
    want = outcome(oracle.fraction_multisignature, form)
    assert ms == "singular" if want == "singular" else (
        (ms.signatures, ms.rank_only) == want)
    compared = 0
    for p, _ in as_laurent(form.module.factors):
        if is_self_conjugate(p) is None:
            continue
        g = polys.primitive(p.ordinary()[0])
        roots = unit_circle_roots(g)
        for level in level_multiplicities(form.module, g):
            aux = auxiliary_hermitian(form, g, level)
            gram, unit, symmetry = oracle.fraction_auxiliary(form, p, level)
            for row in aux.gram.rows:
                for x in row:
                    assert_integer_pair(x)
            assert oracle.as_oracle_matrix(aux.gram) == gram
            assert aux.symmetry == symmetry
            assert (aux.unit is None) == (unit is None)
            if unit is not None:
                assert same(aux.unit, unit)
            if symmetry == 1 and roots:
                assert outcome(pivot_signs, aux.gram, roots) == outcome(
                    oracle.fraction_pivot_signs, gram, roots)
            compared += 1
    return compared


def knot(psi) -> KnotInput:
    return KnotInput("knot", psi, -1)


class TestMultisignatureAgainstOracle:
    @pytest.mark.parametrize("name", ["scale-6", "scale-7", "scale-10",
                                      "scale-14", "scale-20",
                                      "scale-7-mirror", "scale-10-mirror"])
    def test_fixture_knots(self, name):
        psi = json.loads((FIXTURES / f"{name}.json").read_text())["psi"]
        assert assert_matches_oracle(blanchfield_form(knot(psi))) >= 1

    def test_ladder_knots_of_genus_8_to_16(self):
        compared = 0
        for genus in (8, 12, 16):
            psi = ladder_psi(random.Random(f"scale-{genus}"), genus)
            compared += assert_matches_oracle(blanchfield_form(knot(psi)))
        assert compared >= 3

    def test_criterion_3_forms(self):
        rng = random.Random(301)
        compared = 0
        for _ in range(50):
            compared += assert_matches_oracle(covering_autometric(
                random_autometric(rng, max_rank=4, bound=5)))
        assert compared > 30


class TestChecksRaise:
    """The hermitian and Hilbert-90 checks raise InvariantViolated, which
    -O keeps, where an assert would vanish."""

    def test_hilbert90_without_a_probe(self, monkeypatch):
        field = ResidueField([1, -1, 1])
        # with bar negating, every probe c0 + 1 * bar(c0) vanishes
        monkeypatch.setattr(ResidueElem, "bar", lambda self: -self)
        with pytest.raises(InvariantViolated, match="Hilbert-90"):
            laurent_forms._hilbert90_unit(field, field.one())

    def test_non_hermitian_gram(self):
        field = ResidueField([1, -1, 1])
        root = unit_circle_roots([1, -1, 1])[0]
        gram = laurent_forms.Matrix([[field.gen()]])
        with pytest.raises(InvariantViolated, match="not hermitian"):
            roots_module.hermitian_signature_at_root(gram, [root])
