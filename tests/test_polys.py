"""The integer polynomial kernel `wittkit.exact.polys` against its
`Fraction` reference: `qpolys` for division, values and the substitution
y = z + 1/z, and `remainder_oracle`'s Euclid loops over Q for gcds, Sturm
chains, Sturm counts and root brackets.  Where the kernel's contract
allows a positive scalar (a pseudo-division's s, a chain member, a gcd,
`cos_poly`'s 2), the comparison finds that scalar and checks its sign;
Sturm counts and isolation brackets must be equal."""

import random
from fractions import Fraction

import pytest
from hypothesis import HealthCheck, example, given, settings, strategies as st

from wittkit.exact import polys
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.knots import KnotInput, _det_one_minus

import remainder_oracle
from factor_oracle import squarefree_decomposition
import hermitian_oracle
from hermitian_oracle import descartes_positive_roots
from lt_oracle import cyclotomic_polynomial
from test_factor import fixture_knot
from test_seifert import ladder_psi
import qpolys

F = Fraction


def rand_poly(max_deg=5):
    return st.lists(
        st.integers(min_value=-9, max_value=9), min_size=0, max_size=max_deg + 1
    ).map(polys.trim)


def positive_multiple(got, want) -> Fraction:
    """The r > 0 with got = r want, for rational lists; fails otherwise."""
    assert len(got) == len(want)
    if not want:
        return F(1)
    r = F(got[-1]) / want[-1]
    assert r > 0 and qpolys.scal(r, want) == list(got), (got, want)
    return r


def brackets(found) -> list:
    """The kernel's (a, b, d) brackets as the oracle's rational pairs."""
    return [(F(a, d), F(b, d)) for a, b, d in found]


@given(rand_poly(), rand_poly())
def test_divmod_reconstructs(a, b):
    if not b:
        with pytest.raises(ZeroDivisionError):
            polys.divmod_poly(a, b)
        return
    q, r, s = polys.divmod_poly(a, b)
    assert s > 0 and all(type(c) is int for c in q + r)
    assert qpolys.add(polys.mul(q, b), r) == qpolys.scal(s, a)
    assert polys.deg(r) < polys.deg(b)
    # s a = q b + r is the division over Q times s
    want_q, want_r = qpolys.divmod_poly(a, b)
    assert q == qpolys.scal(s, want_q) and r == qpolys.scal(s, want_r)


@given(rand_poly(), rand_poly(4))
def test_divmod_is_exact_on_a_primitive_divisor(q, g):
    # no step scales when g divides over Z: s = 1 and the quotient is exact
    g = polys.primitive(g)
    if not g:
        return
    for sign in (1, -1):
        div = [sign * c for c in g]
        assert polys.divmod_poly(polys.mul(q, div), div) == (q, [], 1)


@given(rand_poly(), rand_poly())
def test_ext_gcd_bezout(a, b):
    if not a and not b:
        return
    g, s, t = hermitian_oracle.ext_gcd(a, b)
    assert qpolys.add(qpolys.mul(s, a), qpolys.mul(t, b)) == g
    assert qpolys.mod(a, g) == [] and qpolys.mod(b, g) == []


def test_yun_squarefree():
    # (x-1)^2 (x+2)^3 x
    p = qpolys.mul(
        qpolys.mul([F(1), F(-2), F(1)], qpolys.from_ints([8, 12, 6, 1])),
        [F(0), F(1)],
    )
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[1] == [F(0), F(1)]
    assert by_mult[2] == [F(-1), F(1)]
    assert by_mult[3] == [F(2), F(1)]


def test_primitive():
    assert polys.primitive([F(4, 3), F(-2, 3)]) == [-2, 1]
    assert polys.primitive([6, -4, 0, -2, 0, 0]) == [-3, 2, 0, 1]
    assert polys.primitive([F(1, 6), F(1, 4)]) == [2, 3]
    assert polys.primitive([F(0), 0]) == [] and polys.primitive([]) == []
    assert polys.primitive([7 * 2**70]) == [1]
    assert polys.primitive([-5]) == [1]
    assert all(type(c) is int for c in polys.primitive([F(4, 3), F(-2, 3)]))


def test_sturm_isolation():
    # roots at 1, 2, 3
    p = [-6, 11, -6, 1]
    ivs = polys.isolate_real_roots(p, 0, 10)
    assert len(ivs) == 3
    for (a, b, d), root in zip(ivs, [1, 2, 3]):
        assert d > 0 and a < root * d <= b
    assert brackets(ivs) == remainder_oracle.isolate_real_roots(
        qpolys.from_ints(p), 0, 10)


def test_isolation_of_roots_closer_than_the_recursion_limit():
    # roots 1 and 1 + 2^-1500 take over 1500 bisection levels to part
    k = 1500
    p = polys.mul([-(2**k), 2**k], [-(2**k + 1), 2**k])
    (a1, b1, d1), (a2, b2, d2) = polys.isolate_real_roots(p, -2, 2)
    assert a1 < d1 <= b1 and a2 * 2**k < (2**k + 1) * d2 <= b2 * 2**k
    assert F(b1, d1) <= F(a2, d2)


def test_sturm_handles_multiple_roots():
    p = polys.mul([-1, 1], [-1, 1])  # (x-1)^2
    ivs = polys.isolate_real_roots(p, F(0), F(2))
    assert len(ivs) == 1


# ---- the remainder sequence against Euclid's over Q ----

def assert_matches_parent(p, other, lo, hi):
    """Each Sturm chain member of integer p is a positive multiple of the
    oracle's, gcd(p, other) is the oracle's made primitive, and p's Sturm
    counts and root brackets in (lo, hi] are the oracle's."""
    chain = polys.sturm_chain(p)
    old = remainder_oracle.sturm_chain(qpolys.from_ints(p))
    assert len(chain) == len(old)
    for new_member, old_member in zip(chain, old):
        positive_multiple(new_member, old_member)
        assert all(type(c) is int for c in new_member)
    assert polys.gcd(p, other) == polys.primitive(
        remainder_oracle.gcd(qpolys.from_ints(p), qpolys.from_ints(other)))
    d = lo.denominator * hi.denominator
    a, b = int(lo * d), int(hi * d)
    assert polys.sturm_count(chain, a, b, d) \
        == remainder_oracle.sturm_count(old, lo, hi)
    assert brackets(polys.isolate_real_roots(p, lo, hi)) \
        == remainder_oracle.isolate_real_roots(qpolys.from_ints(p), lo, hi)
    return chain


def root_bound(p):
    """Cauchy's bound: every real root of p lies in (-B, B]."""
    return 1 + max(abs(F(c, p[-1])) for c in p)


def test_random_polynomials_against_the_oracle():
    rng = random.Random(2407)
    negative_lc = gap = repeated = 0
    for _ in range(150):
        p = [rng.choice([-1, 1]) * rng.randint(1, 5)]
        for _ in range(rng.randint(1, 3)):
            g = [rng.randint(-4, 4) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:  # trinomials make remainders skip degrees
                g[2:] = [0] * (len(g) + rng.randint(0, 2) - 2)
            g = polys.trim(g + [rng.choice([-3, -1, 1, 2])])
            p = polys.mul(p, polys.mul(g, g) if rng.random() < 0.3 else g)
        other = polys.mul(p[:len(p) // 2 + 1] or [1],
                          [rng.randint(-3, 3), rng.choice([-2, 1])])
        bound = root_bound(p)
        chain = assert_matches_parent(p, other, -bound, bound)
        negative_lc += any(m[-1] < 0 for m in chain)
        gap += any(len(a) - len(b) > 1 for a, b in zip(chain, chain[1:]))
        repeated += polys.deg(chain[-1]) > 0
    assert min(negative_lc, gap, repeated) > 10, (negative_lc, gap, repeated)


def test_isolation_with_an_endpoint_on_a_repeated_root():
    # every member of p's own chain vanishes at a repeated root, so the
    # count at such an endpoint needs the chain of p / gcd(p, p')
    p = polys.mul([1, -2, 1], [-6, -1, 1])
    for lo, hi in ((-3, 1), (1, 4), (-2, 3), (F(-5, 2), 1)):
        assert brackets(polys.isolate_real_roots(p, lo, hi)) \
            == remainder_oracle.isolate_real_roots(qpolys.from_ints(p), lo, hi)
    assert len(polys.isolate_real_roots(p, -3, 1)) == 2


def test_cyclotomic_and_swinnerton_dyer_products():
    sd2 = [1, 0, -10, 0, 1]
    sd3 = [576, 0, -960, 0, 352, 0, -40, 0, 1]
    phi = {d: qpolys.ints(cyclotomic_polynomial(d))
           for d in (1, 2, 3, 5, 8, 12, 15, 24)}
    cases = [sd2, sd3, polys.mul(sd2, sd3), polys.mul(sd2, sd2),
             polys.mul(phi[12], phi[24]), polys.mul(phi[1], phi[1]),
             polys.mul(polys.mul(phi[2], phi[3]), polys.mul(phi[5], phi[15])),
             polys.mul(polys.mul(sd3, phi[8]), phi[8])]
    for p, other in zip(cases, cases[1:] + cases[:1]):
        b = root_bound(p)
        assert_matches_parent(p, other, -b, b)
        assert_matches_parent(p, polys.mul(p, other), -b, b)


@pytest.mark.parametrize("knot", [
    KnotInput(f"ladder-{g}", ladder_psi(random.Random(24 + g), g), -1)
    for g in range(2, 21, 2)] + [fixture_knot("scale-20")],
    ids=lambda k: k.name)
def test_ladder_y_polynomials_against_the_oracle(knot):
    # the y-polynomials unit_circle_roots isolates, in (-2, 2]
    for g, _ in factor_rational_poly(_det_one_minus(knot)):
        dense = list(factor_key(g))
        if qpolys.deg(dense) >= 4:
            y = polys.primitive(polys.palindromic_to_y(polys.primitive(dense)))
            positive_multiple(y, hermitian_oracle.palindromic_to_y(dense))
            assert_matches_parent(y, polys.derivative(y), F(-2), F(2))


# ---- generated polynomials: degrees 0-40, repeated roots, roots at the
# ends of (-2, 2] and at the midpoints its bisection visits ----

# d y - n with root n / d: dyadic roots sit on bisection midpoints of
# (-2, 2], and n = +-2d puts one at an end
dyadic_line = st.tuples(st.sampled_from([1, 2, 4, 8, 16]),
                        st.integers(-40, 40)).map(lambda t: [-t[1], t[0]])
end_line = st.sampled_from([[-2, 1], [2, 1], [-4, 2], [2, -1]])
any_factor = st.lists(st.integers(-30, 30), min_size=1, max_size=6).map(
    polys.trim).filter(bool)


@st.composite
def structured_poly(draw, max_deg=40):
    """A nonzero integer polynomial of degree <= max_deg: a product of
    lines at dyadic points and at +-2, irreducible quadratics y^2 - k, and
    arbitrary factors with zero and negative coefficients, some repeated."""
    p = [draw(st.sampled_from([-3, -2, -1, 1, 2, 5]))]
    for _ in range(draw(st.integers(0, 16))):
        f = draw(st.one_of(dyadic_line, end_line, any_factor,
                           st.integers(-6, 6).map(lambda k: [-k, 0, 1])))
        for _ in range(draw(st.sampled_from([1, 1, 1, 2, 3]))):
            if polys.deg(p) + polys.deg(f) <= max_deg:
                p = polys.mul(p, f)
    return p


def midpoints(lo, hi, depth):
    """The points a bisection of (lo, hi] visits in `depth` levels."""
    out, level = [], [(lo, hi)]
    for _ in range(depth):
        level = [part for a, b in level
                 for part in ((a, (a + b) / 2), ((a + b) / 2, b))]
        out += [b for _, b in level]
    return out


# derandomize: the same 20 examples on every run, so that the oracle's cost,
# which moves with the draw, does not move tier-1 time
@settings(max_examples=20, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(structured_poly(), structured_poly(20))
def test_generated_polynomials_against_the_oracle(p, other):
    assert_matches_parent(p, other, F(-2), F(2))
    b = root_bound(p)
    assert_matches_parent(p, other, -b, b)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(structured_poly(), st.data())
def test_sturm_counts_at_midpoints_and_ends(p, data):
    # the counts between every pair of points, ends and bisection midpoints
    # of (-2, 2] among them, against the oracle chain's sign variations
    points = [F(-2), F(2)] + midpoints(F(-2), F(2), 3) + [
        F(data.draw(st.integers(-99, 99)), data.draw(st.integers(1, 12)))
        for _ in range(4)]
    chain = polys.sturm_chain(p)
    sf = polys.divmod_poly(p, chain[-1])[0] if polys.deg(chain[-1]) > 0 else p
    for kernel in (chain, polys.sturm_chain(sf)):
        old = remainder_oracle.sturm_chain(qpolys.from_ints(kernel[0]))
        variations = {x: remainder_oracle.variations(old, x)
                      for x in points}
        for lo in points:
            for hi in points:
                if lo < hi:
                    d = lo.denominator * hi.denominator
                    assert polys.sturm_count(kernel, int(lo * d), int(hi * d),
                                             d) \
                        == variations[lo] - variations[hi]


@example([], 3, -1)
@example([5], 0, 0)
@example([1, 2, 3], 0, 2)
@example([1, 2, 3], -2, 0)
@given(st.lists(st.integers(-2**70, 2**70), max_size=41).map(polys.trim),
       st.integers(-3, 3), st.integers(-3, 3))
def test_compose_is_the_fraction_horner(p, a, b):
    # degrees 0-40 and the zero polynomial, a or b zero or negative
    got = polys.compose(p, a, b)
    assert got == qpolys.compose(p, a, b)
    assert all(type(c) is int for c in got)


@given(st.lists(st.fractions(max_denominator=2**40), max_size=21),
       st.fractions(max_denominator=2**20))
def test_oracle_signs_are_the_fraction_signs(p, x):
    # the oracle reads signs on cleared denominators, not by eval_at
    want = qpolys.eval_at(p, x)
    assert remainder_oracle._sign_at(remainder_oracle._cleared(p), x) \
        == (want > 0) - (want < 0)


@given(st.lists(st.integers(-2**70, 2**70), max_size=41),
       st.integers(-45, 5))
def test_cos_poly_is_twice_the_oracle(coeffs, offset):
    got = polys.cos_poly(coeffs, offset)
    assert got == qpolys.scal(2, qpolys.cos_poly(coeffs, offset))
    assert all(type(c) is int for c in got)


@given(structured_poly(), st.integers(-50, 50), st.integers(1, 64))
def test_value_is_a_positive_multiple(p, n, d):
    assert polys.value(p, n, d) == d ** polys.deg(p) * qpolys.eval_at(
        p, F(n, d))


@given(rand_poly(20), rand_poly(20))
def test_gcd_against_the_oracle(p, other):
    got = polys.gcd(p, other)
    assert got == polys.primitive(remainder_oracle.gcd(
        qpolys.from_ints(p), qpolys.from_ints(other)))
    if got:
        assert got[-1] > 0


def test_descartes_on_real_rooted():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6  ->  two positive roots
    p = qpolys.from_ints([6, -7, 0, 1])
    assert descartes_positive_roots(p) == 2


# ---- y = z + 1/z substitution ----

def test_chebyshev_q_identity():
    # cos_poly(c, offset)(z + 1/z) = sum_k c_k (z^j + z^-j), twice the real
    # part, with j = k + offset, at a rational z off the unit circle
    zval = F(3)
    y = zval + 1 / zval
    for j in range(-5, 6):
        assert qpolys.eval_at(polys.cos_poly([1], j), y) == zval**j + zval**-j
    c = [6, 0, -1, 15]
    for offset in (-4, -1, 0, 2):
        want = sum(ck * (zval**(k + offset) + zval**-(k + offset))
                   for k, ck in enumerate(c))
        assert qpolys.eval_at(polys.cos_poly(c, offset), y) == want
    assert polys.cos_poly([]) == [] and polys.cos_poly([0], 3) == []
    # opposite offsets cancel in an odd combination
    assert polys.cos_poly([1, 0, -1], -1) == []


def test_chebyshev_s_identity():
    # the sine family through cos_poly: twice the symmetrization of
    # z^j (z^-1 - z) is (z^-1 - z)(z^j - z^-j)
    zval = F(2)
    y = zval + 1 / zval
    for j in range(-5, 6):
        got = qpolys.eval_at(polys.cos_poly([1, 0, -1], j - 1), y)
        assert got == (1 / zval - zval) * (zval**j - zval**-j)
    assert polys.cos_poly([1, 0, -1], -1) == []


def test_palindromic_to_y():
    # z^2 - z + 1 = z * (y - 1)
    assert polys.palindromic_to_y([1, -1, 1]) == [-1, 1]
    # z^4 + 1 = z^2 * (y^2 - 2)
    assert polys.palindromic_to_y([1, 0, 0, 0, 1]) == [-2, 0, 1]
    # 3 z^4 - z^3 + 5 z^2 - z + 3 = z^2 (3 y^2 - y - 1)
    assert polys.palindromic_to_y([3, -1, 5, -1, 3]) == [-1, -1, 3]
    with pytest.raises(ValueError):
        polys.palindromic_to_y([1, 2, 1, 3])
