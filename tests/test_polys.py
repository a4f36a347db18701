"""Dense rational polynomial helpers: division, gcd, Yun, Sturm, cos_poly.
The sign-normalized remainder sequence is compared with the unnormalized
`Fraction` loops it replaced (`remainder_oracle`)."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from wittkit.exact import polys
from wittkit.exact.factor import factor_rational_poly
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
    ).map(polys.from_ints)


@given(rand_poly(), rand_poly())
def test_divmod_reconstructs(a, b):
    if not b:
        return
    q, r = polys.divmod_poly(a, b)
    assert qpolys.add(qpolys.mul(q, b), r) == polys.trim(a)
    assert polys.deg(r) < polys.deg(b)


@given(rand_poly(), rand_poly())
def test_ext_gcd_bezout(a, b):
    if not a and not b:
        return
    g, s, t = hermitian_oracle.ext_gcd(a, b)
    assert qpolys.add(qpolys.mul(s, a), qpolys.mul(t, b)) == g
    assert polys.mod(a, g) == [] and polys.mod(b, g) == []


def test_yun_squarefree():
    # (x-1)^2 (x+2)^3 x
    p = qpolys.mul(
        qpolys.mul([F(1), F(-2), F(1)], polys.from_ints([8, 12, 6, 1])),
        [F(0), F(1)],
    )
    parts = squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[1] == [F(0), F(1)]
    assert by_mult[2] == [F(-1), F(1)]
    assert by_mult[3] == [F(2), F(1)]


def test_content_primitive():
    c, prim = polys.content_primitive([F(4, 3), F(-2, 3)])
    assert c == F(-2, 3)
    assert prim == [-2, 1]
    assert qpolys.scal(c, [F(p) for p in prim]) == [F(4, 3), F(-2, 3)]


def test_sturm_isolation():
    # roots at 1, 2, 3
    p = polys.from_ints([-6, 11, -6, 1])
    ivs = polys.isolate_real_roots(p, F(0), F(10))
    assert len(ivs) == 3
    for (a, b), root in zip(ivs, [1, 2, 3]):
        assert a < root <= b


def test_sturm_handles_multiple_roots():
    p = qpolys.mul([F(-1), F(1)], [F(-1), F(1)])  # (x-1)^2
    ivs = polys.isolate_real_roots(p, F(0), F(2))
    assert len(ivs) == 1


# ---- the remainder sequence against the unnormalized one ----

def assert_matches_parent(p, q, lo, hi):
    """Each Sturm chain member of p is a positive multiple of the oracle's,
    gcd(p, q) is the oracle's, and so are p's root brackets in (lo, hi]."""
    chain = polys.sturm_chain(p)
    old = remainder_oracle.sturm_chain(p)
    assert len(chain) == len(old)
    for new_member, old_member in zip(chain, old):
        ratio = new_member[-1] / old_member[-1]
        assert ratio > 0 and qpolys.scal(ratio, old_member) == new_member
    assert polys.gcd(p, q) == remainder_oracle.gcd(p, q)
    assert polys.isolate_real_roots(p, lo, hi) \
        == remainder_oracle.isolate_real_roots(p, lo, hi)
    return chain


def root_bound(p):
    """Cauchy's bound: every real root of p lies in (-B, B]."""
    return 1 + max(abs(c / p[-1]) for c in p)


def test_random_polynomials_against_the_oracle():
    rng = random.Random(2407)
    negative_lc = gap = repeated = 0
    for _ in range(150):
        p = [F(rng.choice([-1, 1]) * rng.randint(1, 5))]
        for _ in range(rng.randint(1, 3)):
            g = [F(rng.randint(-4, 4)) for _ in range(rng.randint(1, 4))]
            if rng.random() < 0.5:  # trinomials make remainders skip degrees
                g[2:] = [F(0)] * (len(g) + rng.randint(0, 2) - 2)
            g = polys.trim(g + [F(rng.choice([-3, -1, 1, 2]))])
            p = qpolys.mul(p, qpolys.mul(g, g) if rng.random() < 0.3 else g)
        q = qpolys.mul(p[:len(p) // 2 + 1] or [F(1)], polys.from_ints(
            [rng.randint(-3, 3), rng.choice([-2, 1])]))
        bound = root_bound(p)
        chain = assert_matches_parent(p, q, -bound, bound)
        negative_lc += any(m[-1] < 0 for m in chain)
        gap += any(len(a) - len(b) > 1 for a, b in zip(chain, chain[1:]))
        repeated += polys.deg(chain[-1]) > 0
    assert min(negative_lc, gap, repeated) > 10, (negative_lc, gap, repeated)


def test_isolation_with_an_endpoint_on_a_repeated_root():
    # every member of p's own chain vanishes at a repeated root, so the
    # count at such an endpoint needs the chain of p / gcd(p, p')
    p = qpolys.mul(polys.from_ints([1, -2, 1]), polys.from_ints([-6, -1, 1]))
    for lo, hi in ((-3, 1), (1, 4), (-2, 3), (F(-5, 2), 1)):
        assert polys.isolate_real_roots(p, lo, hi) \
            == remainder_oracle.isolate_real_roots(p, lo, hi)
    assert len(polys.isolate_real_roots(p, -3, 1)) == 2


def test_cyclotomic_and_swinnerton_dyer_products():
    sd2 = polys.from_ints([1, 0, -10, 0, 1])
    sd3 = polys.from_ints([576, 0, -960, 0, 352, 0, -40, 0, 1])
    phi = {d: cyclotomic_polynomial(d) for d in (1, 2, 3, 5, 8, 12, 15, 24)}
    cases = [sd2, sd3, qpolys.mul(sd2, sd3), qpolys.mul(sd2, sd2),
             qpolys.mul(phi[12], phi[24]), qpolys.mul(phi[1], phi[1]),
             qpolys.mul(qpolys.mul(phi[2], phi[3]), qpolys.mul(phi[5], phi[15])),
             qpolys.mul(qpolys.mul(sd3, phi[8]), phi[8])]
    for p, q in zip(cases, cases[1:] + cases[:1]):
        b = root_bound(p)
        assert_matches_parent(p, q, -b, b)
        assert_matches_parent(p, qpolys.mul(p, q), -b, b)


@pytest.mark.parametrize("knot", [
    KnotInput(f"ladder-{g}", ladder_psi(random.Random(24 + g), g), -1)
    for g in range(2, 21, 2)] + [fixture_knot("scale-20")],
    ids=lambda k: k.name)
def test_ladder_y_polynomials_against_the_oracle(knot):
    # the y-polynomials unit_circle_roots isolates, in (-2, 2]
    for f, _ in factor_rational_poly(_det_one_minus(knot))[1]:
        dense = f.ordinary()[0]
        if polys.deg(dense) >= 4:
            y = polys.monic(polys.palindromic_to_y(dense))
            assert_matches_parent(y, polys.derivative(y), F(-2), F(2))


def test_descartes_on_real_rooted():
    # (x-1)(x-2)(x+3) = x^3 - 7x + 6  ->  two positive roots
    p = polys.from_ints([6, -7, 0, 1])
    assert descartes_positive_roots(p) == 2


# ---- y = z + 1/z substitution ----

def test_chebyshev_q_identity():
    # cos_poly(c, offset)(z + 1/z) = sum_k c_k (z^j + z^-j) / 2 with
    # j = k + offset, at a rational z off the unit circle
    zval = F(3)
    y = zval + 1 / zval
    for j in range(-5, 6):
        assert polys.eval_at(polys.cos_poly([F(1)], j), y) == (
            zval**j + zval**-j) / 2
    c = [F(2), F(0), F(-1, 3), F(5)]
    for offset in (-4, -1, 0, 2):
        want = sum(ck * (zval**(k + offset) + zval**-(k + offset)) / 2
                   for k, ck in enumerate(c))
        assert polys.eval_at(polys.cos_poly(c, offset), y) == want
    assert polys.cos_poly([]) == [] and polys.cos_poly([F(0)], 3) == []
    # opposite offsets cancel in an odd combination
    assert polys.cos_poly([F(1), F(0), F(-1)], -1) == []


def test_chebyshev_s_identity():
    # the sine family through cos_poly: the symmetrization of
    # z^j (z^-1 - z) is (z^-1 - z)(z^j - z^-j) / 2
    zval = F(2)
    y = zval + 1 / zval
    for j in range(-5, 6):
        got = polys.eval_at(polys.cos_poly([F(1), F(0), F(-1)], j - 1), y)
        assert got == (1 / zval - zval) * (zval**j - zval**-j) / 2
    assert polys.cos_poly([F(1), F(0), F(-1)], -1) == []


def test_palindromic_to_y():
    # z^2 - z + 1 = z * (y - 1)
    assert polys.palindromic_to_y([F(1), F(-1), F(1)]) == [F(-1), F(1)]
    # z^4 + 1 = z^2 * (y^2 - 2)
    got = polys.palindromic_to_y([F(1), F(0), F(0), F(0), F(1)])
    assert got == [F(-2), F(0), F(1)]
