"""Factorization over Q[z, 1/z], cross-checked against sympy and against
the route through the monic substitution and `Fraction` Yun that the
integer factorizer replaced (`factor_oracle`).  Most cases are built as
`LaurentPoly`s and read back as monic `LaurentPoly` factors
(`factor_oracle.laurent_factors`); the integer records themselves, their
keys, self-conjugacy, conjugate pairs and order are checked against the
monic `LaurentPoly` records the report was read from before."""

import itertools
import json
import os
import random
import time
from fractions import Fraction
from math import isqrt

import pytest
import sympy
from hypothesis import given, settings, strategies as st

from wittkit.errors import InvariantViolated
from wittkit.exact import factor, polys
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.laurent_forms import LaurentModule, dw_multisignature_laurent
from wittkit.knots import (
    KnotInput,
    _det_one_minus,
    blanchfield_form,
    connected_sum,
    knot_inverse,
)

import factor_oracle
from covering_oracle import record_form
from factor_oracle import as_laurent, laurent_factors
from lt_oracle import cyclotomic_polynomial
from test_seifert import ladder_psi

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
    found = factor._factor_squarefree_int
    monkeypatch.setattr(factor, "_factor_squarefree_int",
                        lambda f, p: found(f, p)[:-1])


def reassemble(unit, factors):
    out = unit
    for f, m in factors:
        out = out * f**m
    return out


def test_known_factorizations():
    p = (z**2 - z + 1) * (z - 1) ** 2
    assert factor_rational_poly(p.ordinary()[0]) == [([-1, 1], 2),
                                                     ([1, -1, 1], 1)]
    unit, factors = laurent_factors(p)
    assert unit == LaurentPoly.one()
    assert factors == [(z - 1, 2), (z**2 - z + 1, 1)]


def test_unit_extraction():
    p = LaurentPoly.monomial(F(3, 2), -5) * (z - 2)
    unit, factors = laurent_factors(p)
    assert unit == LaurentPoly.monomial(F(3, 2), -5)
    assert factors == [(z - 2, 1)]
    # the content and a power of z are units, left out of the records
    for f in ([-3, F(3, 2)], [0, 0, 6, -3], [F(-1, 2), F(1, 4)]):
        assert factor_rational_poly(f) == [([-2, 1], 1)]


def test_constant_input():
    unit, factors = laurent_factors(LaurentPoly.const(F(7, 3)))
    assert unit == LaurentPoly.const(F(7, 3))
    assert factors == []
    assert factor_rational_poly([0, 0, -5]) == []


def test_zero_rejected():
    for f in ([], [0], [F(0), F(0)]):
        with pytest.raises(ValueError):
            factor_rational_poly(f)


def test_non_monic_irreducible():
    # 2z^2 - 3z + 2 is irreducible; monic form has fractional coefficients
    assert factor_rational_poly([2, -3, 2]) == [([2, -3, 2], 1)]
    assert factor_key([2, -3, 2]) == (1, F(-3, 2), 1)
    unit, factors = laurent_factors(2 * z**2 - 3 * z + 2)
    assert unit == LaurentPoly.const(2)
    assert factors == [(z**2 - F(3, 2) * z + 1, 1)]


def test_high_degree_swinnerton_dyer_style():
    # (z^2-2)(z^2-3)(z^2+1): pairwise distinct irreducible quadratics
    p = (z**2 - 2) * (z**2 - 3) * (z**2 + 1)
    unit, factors = laurent_factors(p)
    assert unit == LaurentPoly.one()
    assert sorted(f.max_deg() for f, _ in factors) == [2, 2, 2]
    assert reassemble(unit, factors) == p


@settings(max_examples=60, deadline=None)
@given(rand_int_poly(), rand_int_poly())
def test_roundtrip_and_sympy_agreement(a, b):
    p = a * b * z**-3
    unit, factors = laurent_factors(p)
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
    unit, factors = laurent_factors(p)
    mults = {tuple(sorted(f.coeffs.items())): m for f, m in factors}
    assert mults[tuple(sorted((z - 1).coeffs.items()))] == 3
    assert mults[tuple(sorted((z + 1).coeffs.items()))] == 2
    assert reassemble(unit, factors) == p


def repeat_first_factor(monkeypatch):
    """Make the factorization report its first irreducible factor twice."""
    found = factor._factor_squarefree_int
    monkeypatch.setattr(factor, "_factor_squarefree_int",
                        lambda f, p: found(f, p)[:1] + found(f, p))


def test_lost_factor_is_an_invariant_violation(monkeypatch):
    drop_last_factor(monkeypatch)
    for p in (z**2 - z + 1, (z - 1) * (z**2 + 1), 3 * z**-2 * (z + 2),
              (2 * z - 1) * (z - 2)):
        with pytest.raises(InvariantViolated, match="lost a factor"):
            laurent_factors(p)


# ---- against the monic-substitution oracle and sympy ----

def from_ints(cs):
    return LaurentPoly.from_dense([F(c) for c in cs])


def det_of(k):
    """D = `_det_one_minus(k)` as a LaurentPoly."""
    return LaurentPoly.from_dense(_det_one_minus(k))


def fixture_knot(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")
    with open(path) as fh:
        doc = json.load(fh)
    return KnotInput(doc["name"], doc["psi"], doc["epsilon"])


def sympy_factors(p):
    """sympy's factors over Q as {monic coefficient tuple: multiplicity},
    with z^k left out as part of the unit."""
    x = sympy.Symbol("x")
    dense, _ = p.ordinary()
    expr = sum(sympy.Rational(c.numerator, c.denominator) * x**i
               for i, c in enumerate(dense))
    out = {}
    for g, m in sympy.factor_list(expr)[1]:
        cs = [F(int(c)) for c in reversed(sympy.Poly(g, x).all_coeffs())]
        out[tuple(c / cs[-1] for c in cs)] = m
    return out


def assert_matches_oracles(p):
    got = laurent_factors(p)
    assert got == factor_oracle.factor_rational_poly(p), p
    assert {tuple(f.ordinary()[0]): m for f, m in got[1]} \
        == sympy_factors(p), p
    return got


def gcd_calls(monkeypatch, p):
    """How often factoring p takes gcd(f, f') for a squarefree part."""
    calls = []
    gcd = polys.gcd
    monkeypatch.setattr(polys, "gcd",
                        lambda a, b: calls.append(a) or gcd(a, b))
    laurent_factors(p)
    monkeypatch.undo()
    return len(calls)


def test_random_non_monic_products_with_repeats():
    rng = random.Random(1717)
    split = 0
    for _ in range(40):
        p = LaurentPoly.monomial(F(rng.randint(1, 9), rng.randint(1, 9)),
                                 rng.randint(-3, 3))
        for _ in range(rng.randint(1, 4)):
            cs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
            cs.append(rng.choice([-1, 1]) * rng.randint(2, 6))
            p = p * from_ints(cs) ** rng.randint(1, 3)
        _, factors = assert_matches_oracles(p)
        split += len(factors) > 1 or any(m > 1 for _, m in factors)
    assert split > 30


def test_swinnerton_dyer_and_cyclotomic_products():
    sd2 = from_ints([1, 0, -10, 0, 1])  # sqrt 2 + sqrt 3
    sd3 = from_ints([576, 0, -960, 0, 352, 0, -40, 0, 1])  # + sqrt 5
    phi = {d: LaurentPoly.from_dense(cyclotomic_polynomial(d))
           for d in (1, 2, 3, 4, 5, 6, 8, 12, 15, 24, 30)}
    cases = [sd2, sd3, sd2 * sd3, sd2**2 * from_ints([-2, 0, 3]),
             phi[12] * phi[24] * phi[30], phi[1] ** 2 * phi[2] * phi[6] ** 3,
             phi[3] * phi[4] * phi[5] * phi[8] * phi[15] * z**-7,
             sd3 * phi[24] ** 2 * from_ints([3, 5])]
    for p in cases:
        assert_matches_oracles(p)
    # every irreducible here splits modulo every prime
    assert laurent_factors(sd3)[1] == [(sd3, 1)]


def test_squarefree_without_a_small_certificate_prime(monkeypatch):
    # 1..40 collide modulo every odd prime up to 37, so only gcd(f, f') can
    # tell that prod (z - i) is squarefree; the factor z is part of the unit
    p = LaurentPoly.one()
    for i in range(41):
        p = p * (z - i)
    f = polys.primitive(p.ordinary()[0])
    assert factor._lifting_prime(f, itertools.islice(
        factor._odd_primes(), 11)) is None
    assert gcd_calls(monkeypatch, p) == 1
    unit, factors = assert_matches_oracles(p)
    assert unit == z
    assert factors == [(z - i, 1) for i in range(40, 0, -1)]


def test_lines_and_squarefree_quadratics_search_no_prime(monkeypatch):
    # a line, and a quadratic with b^2 - 4ac != 0, are squarefree without
    # a prime; (2z - 3)^2 has b^2 = 4ac, searches and keeps multiplicity 2
    calls = []
    search = factor._lifting_prime
    monkeypatch.setattr(factor, "_lifting_prime",
                        lambda f, primes: calls.append(f) or search(f, primes))
    for p, want in ((z**2 - z + 1, [(z**2 - z + 1, 1)]),
                    (2 * z - 3, [(z - F(3, 2), 1)]),
                    (z**2 - 1, [(z - 1, 1), (z + 1, 1)]),
                    (3 * z**-1, [])):
        assert laurent_factors(p)[1] == want
    assert calls == []
    assert assert_matches_oracles((2 * z - 3) ** 2)[1] == [(z - F(3, 2), 2)]
    assert calls


def test_connected_sum_with_inverse_squares_the_alexander_polynomial(
        monkeypatch):
    knots = [KnotInput("trefoil", [[-1, 1], [0, -1]], -1),
             KnotInput("5_2", [[-2, 1], [0, -1]], -1), fixture_knot("scale-6")]
    for k in knots:
        square = det_of(connected_sum(k, knot_inverse(k)))
        assert gcd_calls(monkeypatch, square) == 1
        _, factors = assert_matches_oracles(square)
        single = laurent_factors(det_of(k))[1]
        assert factors == [(f, 2 * m) for f, m in single]


@pytest.mark.parametrize("name", ["scale-6", "scale-7", "scale-10"])
def test_ladder_fixtures(name, monkeypatch):
    p = det_of(fixture_knot(name))
    # a squarefree D is certified by a small prime, without a gcd
    assert gcd_calls(monkeypatch, p) == 0
    _, factors = assert_matches_oracles(p)
    assert all(m == 1 for _, m in factors)


# ---- quadratics, split by the discriminant ----

def random_quadratic(rng, kind, size):
    """An integer quadratic (a z^2 + b z + c as [c, b, a], a != 0 and
    c != 0) of the given kind, entries up to about `size`."""
    entry = lambda: rng.choice([-1, 1]) * rng.randint(1, size)
    while True:
        if kind in ("split", "square"):
            p, q = entry(), entry()
            r, s = (p, q) if kind == "square" else (entry(), entry())
            cs = [q * s, p * s + q * r, p * r]
        else:
            cs = [entry(), rng.randint(-size, size), entry()]
        disc = cs[1] ** 2 - 4 * cs[0] * cs[2]
        root = isqrt(max(disc, 0))
        if {"split": disc > 0, "square": disc == 0,
                "negative": disc < 0,
                "irreducible": disc > 0 and root * root != disc}[kind]:
            return cs


@pytest.mark.parametrize("size", [9, 10**6, 10**20, 10**40])
def test_random_quadratics_match_oracles(size, monkeypatch):
    rng = random.Random(size)
    shapes = {}
    for kind in ("split", "irreducible", "negative", "square"):
        for _ in range(12):
            cs = random_quadratic(rng, kind, size)
            unit = LaurentPoly.monomial(
                F(rng.choice([-1, 1]) * rng.randint(1, 30),
                  rng.randint(1, 30)), rng.randint(-4, 4))
            p = unit * from_ints(cs)
            if kind == "square":
                assert gcd_calls(monkeypatch, p) == 1
            else:  # a squarefree quadratic is split without a prime
                monkeypatch.setattr(factor, "_factor_mod_p", None)
            _, factors = assert_matches_oracles(p)
            monkeypatch.undo()
            shapes.setdefault(kind, set()).add(
                tuple(m for _, m in factors))
    assert shapes == {"split": {(1, 1)}, "irreducible": {(1,)},
                      "negative": {(1,)}, "square": {(2,)}}


@pytest.mark.parametrize("m", [3, 2**61 - 1, 3**2, 3**4, 3**8, 3**16,
                               (2**61 - 1)**4])
def test_products_mod_m_are_the_schoolbook(m):
    # _pmul is polys.mul reduced once; the loop it replaced reduced every
    # step: primes 3 and 2^61 - 1, and Hensel moduli p^(2^k)
    rng = random.Random(f"pmul-{m}")
    for _ in range(60):
        a, b = ([rng.randint(-m + 1, m - 1) * rng.randint(0, 1)
                 for _ in range(rng.randint(0, 81))] for _ in range(2))
        got = factor._pmul(a, b, m)
        assert got == factor_oracle.schoolbook_mul_mod(a, b, m)
        assert all(0 <= c < m for c in got) and (not got or got[-1])
        assert factor._pderiv(a, m) == factor._ptrim(
            [i * c % m for i, c in enumerate(a)][1:])


# ---- multiplicities without division where f is certified squarefree ----

def random_products(rng, repeats):
    """Seeded products of 1-4 random integer factors of degree 1-4, each
    to the power 1, or 1-3 if `repeats`, times a unit c z^k."""
    p = LaurentPoly.monomial(F(rng.randint(1, 9), rng.randint(1, 9)),
                             rng.randint(-3, 3))
    for _ in range(rng.randint(1, 4)):
        cs = [rng.randint(-6, 6) for _ in range(rng.randint(1, 4))]
        cs.append(rng.choice([-1, 1]) * rng.randint(1, 6))
        p = p * from_ints(cs) ** (rng.randint(1, 3) if repeats else 1)
    return p


def multiplicity_reads(monkeypatch):
    calls = []
    read = factor._multiplicity
    monkeypatch.setattr(factor, "_multiplicity",
                        lambda g, f: calls.append(g) or read(g, f))
    return calls


def test_products_with_and_without_repeats_match_the_oracle(monkeypatch):
    # a squarefree product certified by a small prime, a line or a
    # quadratic reads no multiplicity by division; one with a repeated
    # factor takes the gcd route and reads every multiplicity
    rng = random.Random("shortcut-products")
    reads = multiplicity_reads(monkeypatch)
    routes = {"shortcut": 0, "gcd": 0}
    for repeats in (False, True) * 40:
        p = random_products(rng, repeats)
        reads.clear()
        _, factors = assert_matches_oracles(p)
        if any(m > 1 for _, m in factors):
            assert len(reads) == len(factors), p
            routes["gcd"] += 1
        elif not reads:
            routes["shortcut"] += 1
    assert routes["shortcut"] >= 30 and routes["gcd"] >= 20, routes


@pytest.mark.parametrize("fault", [drop_last_factor, repeat_first_factor])
def test_a_wrong_shortcut_factorization_is_refused(fault, monkeypatch):
    # on the route without division the product check alone catches a
    # lost or a doubled factor; it is an InvariantViolated, under -O too
    cases = [z**2 - z + 1, (z - 1) * (z**2 + 1), 3 * z**-2 * (z + 2),
             (2 * z - 1) * (z - 2), from_ints([1, 0, -10, 0, 1]),
             (z**2 - 2) * (z**2 - 3) * (z**2 + 1)]
    reads = multiplicity_reads(monkeypatch)
    fault(monkeypatch)
    for p in cases:
        with pytest.raises(InvariantViolated, match="lost a factor"):
            laurent_factors(p)
    assert reads == []


# ---- integer records against monic `LaurentPoly` records ----

def phi(d):
    return LaurentPoly.from_dense(cyclotomic_polynomial(d))


# z -+ 1, cyclotomics (Phi_3 and Phi_4 sort by their sparse keys, Phi_3
# first), the knots' non-monic 2z^2 - 3z + 2 and lines 3z - 2, 2z + 1,
# whose monic keys sort before z^2 - z + 1, z - 1 and after z + 1 where
# their integer lists sort the other way round
SELF_CONJUGATE = [z - 1, z + 1, phi(3), phi(4), phi(5), phi(8), phi(12),
                  2 * z**2 - 3 * z + 2, from_ints([3, -5, 3]),
                  from_ints([1, -3, 1]), from_ints([2, -7, 2])]
PAIRED = [z - 2, 2 * z - 1, 3 * z - 2, 2 * z - 3, 2 * z + 1, z + 2,
          from_ints([2, 1, 1]), from_ints([1, 1, 2]), from_ints([5, -1, 3])]


def test_records_match_the_laurent_route():
    # records, multiplicities and order against the monic factors of the
    # `Fraction` route, each key against the key read off a monic
    # LaurentPoly, self-conjugacy against the unit +-z^k
    rng = random.Random("factor-records")
    cases = [(z - 2) * (2 * z - 1), (z - 1) ** 2 * (3 * z - 2) * (z + 1)
             * (2 * z + 1), (z**2 - z + 1) ** 2 * (2 * z**2 - 3 * z + 2),
             phi(3) * phi(4)]
    for _ in range(60):
        p = LaurentPoly.monomial(F(rng.randint(1, 9), rng.randint(1, 9)),
                                 rng.randint(-3, 3))
        for q in rng.sample(SELF_CONJUGATE + PAIRED, rng.randint(1, 5)):
            p = p * q ** rng.randint(1, 3)
        cases.append(p)
    flipped = 0
    for p in cases:
        records = factor_rational_poly(p.ordinary()[0])
        unit, want = factor_oracle.factor_rational_poly(p)
        assert as_laurent(records) == want, p
        for (g, _), (q, _) in zip(records, want):
            assert g == polys.primitive(q.ordinary()[0])
            assert factor_key(g) == factor_oracle.factor_key(q)
            assert polys.self_conjugate(g) == (
                factor_oracle.is_self_conjugate(q) is not None), q
        flipped += records != sorted(records,
                                     key=lambda gm: (len(gm[0]), gm[0]))
    assert flipped >= 15


def test_conjugate_pairs_match_the_laurent_route():
    # the multisignature's conjugate-pair notes, keyed from the reversed
    # integer list, against the keys of p and p.bar(); self-conjugate
    # factors here have no circle roots, so no level form is read
    rng = random.Random("conjugate-pairs")
    no_roots = [from_ints([1, -3, 1]), from_ints([2, -7, 2])]
    for _ in range(30):
        p = LaurentPoly.one()
        for q in rng.sample(PAIRED + no_roots, rng.randint(1, 4)):
            p = p * q ** rng.randint(1, 2)
        want = []
        for q, _ in factor_oracle.factor_rational_poly(p)[1]:
            pair = factor_oracle.conjugate_pair(q)
            if factor_oracle.is_self_conjugate(q) is None \
                    and pair not in want:
                want.append(pair)
        module = LaurentModule([polys.primitive(p.ordinary()[0])], None, "Q")
        form = record_form(module, [[0]], -1)
        assert dw_multisignature_laurent(form).conjugate_pairs == want, p


# ---- palindromic orders, factored at half degree in y = z + 1/z ----

CALL_SECONDS = 1


def modular_route(f):
    """`factor_rational_poly(f)` with every squarefree part past degree 2
    factored by Zassenhaus's route at its full degree, the route before
    palindromic parts were factored in y = z + 1/z."""
    found = factor._factor_squarefree_int
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(factor, "_factor_squarefree_int", lambda f, p: (
            factor._factor_modular if len(f) > 3 else found)(f, p))
        return factor_rational_poly(f)


def timed_records(f):
    start = time.perf_counter()
    out = factor_rational_poly(f)
    assert time.perf_counter() - start < CALL_SECONDS, f
    return out


def from_y(q):
    """z^k q(z + 1/z) for an integer q of degree k, as a LaurentPoly."""
    return sum((c * (z + z**-1) ** j for j, c in enumerate(q)),
               LaurentPoly.zero()) * z ** (len(q) - 1)


def conjugate_pair(g):
    """g g* for g* = z^deg(g) g(1/z), the reversed list: palindromic."""
    return from_ints(g) * from_ints(g[::-1])


SQUARE_NORM_PAIR = from_ints([3, 1, 2]) * from_ints([2, 1, 3])
HALF_DEGREE_PIECES = [z**2 + 1, phi(3), phi(5), phi(8), phi(10), phi(12),
                      (z - 1) ** 2, (z + 1) ** 2, SQUARE_NORM_PAIR]


def palindromic_product(rng, size, degree):
    """A seeded palindromic product of even degree from `degree` / 2 to
    `degree`: fixed pieces (z^2 + 1, cyclotomics, (z -+ 1)^2 and
    (2z^2 + z + 3)(3z^2 + z + 2)), z^k q(z + 1/z) for random q and
    conjugate pairs g g* for random g, each to the power 1 or 2, random
    coefficients up to `size`."""
    entry = lambda: rng.randint(-size, size)
    p, target = LaurentPoly.one(), rng.randrange(degree // 2, degree + 1, 2)
    while (room := target - p.max_deg() + p.min_deg()) >= 4:
        kind = rng.randrange(3)
        top = rng.randint(1, min(room // 4, 10))
        if kind == 0:
            q = rng.choice(HALF_DEGREE_PIECES)
        elif kind == 1:
            q = from_y([entry() for _ in range(top)] + [rng.randint(1, size)])
        else:
            q = conjugate_pair([rng.randint(1, size)]
                               + [entry() for _ in range(top)])
        p = p * q ** (2 if 2 * (q.max_deg() - q.min_deg()) <= room
                      and rng.random() < 0.25 else 1)
    return polys.primitive(p.ordinary()[0])


@pytest.mark.parametrize("size,degree,count", [
    (3, 8, 120), (2**20, 16, 60), (2**200, 12, 25), (5, 80, 6)],
    ids=["small", "2^20", "2^200", "degree-80"])
def test_half_degree_route_matches_the_modular_route(size, degree, count):
    # seeded draws, each call time-bounded; sympy reads every product but
    # those of degree 80, where it takes 0.3-0.6 s a product
    rng = random.Random(f"half-degree-{size}-{degree}")
    for _ in range(count):
        f = palindromic_product(rng, size, degree)
        got = timed_records(f)
        assert got == modular_route(f), f
        if degree < 80:
            assert {factor_key(g): m for g, m in got} == sympy_factors(
                from_ints(f)), f


def test_half_degree_pieces_match_the_oracle():
    # z^2 + 1 (y | P), Phi_5, 8, 10, 12, repeats, and conjugate pairs
    # whose norm q(2) q(-2) is a square, so r_q = z^2 q(z + 1/z) splits
    cases = [(z**2 + 1) * phi(5), phi(8) * phi(12), phi(10) ** 2 * phi(5),
             SQUARE_NORM_PAIR, SQUARE_NORM_PAIR ** 2 * (z**2 + 1),
             conjugate_pair([2**200 + 1, 3, -2**199]) * phi(8)]
    for p in cases:
        f = p.ordinary()[0]
        assert timed_records(f) == modular_route(f), p
        assert_matches_oracles(p)
    y = polys.palindromic_to_y(polys.primitive(SQUARE_NORM_PAIR.ordinary()[0]))
    assert polys.value(y, 2, 1) * polys.value(y, -2, 1) == 24**2
    assert factor_rational_poly(SQUARE_NORM_PAIR.ordinary()[0]) == [
        ([2, 1, 3], 1), ([3, 1, 2], 1)]


def test_an_irreducible_half_degree_order_makes_no_modular_call(
        monkeypatch):
    # the genus-2 ladder knot's D = 15z^4 - 66z^3 + 103z^2 - 66z + 15 is
    # z^2 P(z + 1/z) with P = 15y^2 - 66y + 73 irreducible and
    # P(2) P(-2) = 265 no square: irreducible without factoring mod p
    d = _det_one_minus(KnotInput("k", ladder_psi(random.Random(0), 2), -1))
    assert d == [15, -66, 103, -66, 15]
    calls = []
    modular = factor._factor_mod_p
    monkeypatch.setattr(factor, "_factor_mod_p",
                        lambda f, p, rng: calls.append(f) or modular(f, p, rng))
    assert factor_rational_poly(d) == [(d, 1)]
    assert calls == []
    assert modular_route(d) == [(d, 1)]
    assert calls


# ---- the module's factors through its largest divisor ----

def test_module_factors_read_the_largest_divisor():
    # seeded ladder knots of genus 1-4 and their K # -K, whose modules
    # have two divisors: the largest divisor's factors, with the levels
    # summed over the chain, are the whole order's records
    rng = random.Random("largest-divisor")
    two = 0
    for genus in (1, 1, 2, 2, 3, 3, 4, 4) * 2:
        k = KnotInput("k", ladder_psi(rng, genus), -1)
        for knot in (k, connected_sum(k, knot_inverse(k))):
            module = blanchfield_form(knot).module
            want = factor_rational_poly(module.total_divisor)
            assert module.factors == want, knot.psi.rows
            two += module.rank > 1
    assert two >= 10


def test_factors_that_miss_the_order_are_refused():
    # (z - 2) and (z + 3) do not form a divisor chain, so the largest
    # divisor misses a factor of the order: a typed error, under -O too
    module = LaurentModule([[-2, 1], [3, 1]], None, "Q")
    with pytest.raises(InvariantViolated, match="do not give the order"):
        module.factors
