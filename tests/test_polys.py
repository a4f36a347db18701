"""Dense rational polynomial helpers: division, gcd, Yun, Sturm, cos_poly."""

from fractions import Fraction

from hypothesis import given, strategies as st

from wittkit.exact import polys

from hermitian_oracle import descartes_positive_roots

F = Fraction


def rand_poly(max_deg=5):
    return st.lists(
        st.integers(min_value=-9, max_value=9), min_size=0, max_size=max_deg + 1
    ).map(polys.from_ints)


@given(rand_poly(), rand_poly())
def test_divmod_reconstructs(a, b):
    if polys.is_zero(b):
        return
    q, r = polys.divmod_poly(a, b)
    assert polys.add(polys.mul(q, b), r) == polys.trim(a)
    assert polys.deg(r) < polys.deg(b)


@given(rand_poly(), rand_poly())
def test_ext_gcd_bezout(a, b):
    if polys.is_zero(a) and polys.is_zero(b):
        return
    g, s, t = polys.ext_gcd(a, b)
    assert polys.add(polys.mul(s, a), polys.mul(t, b)) == g
    assert polys.mod(a, g) == [] and polys.mod(b, g) == []


def test_yun_squarefree():
    # (x-1)^2 (x+2)^3 x
    p = polys.mul(
        polys.mul([F(1), F(-2), F(1)], polys.from_ints([8, 12, 6, 1])),
        [F(0), F(1)],
    )
    parts = polys.squarefree_decomposition(p)
    by_mult = {m: f for f, m in parts}
    assert by_mult[1] == [F(0), F(1)]
    assert by_mult[2] == [F(-1), F(1)]
    assert by_mult[3] == [F(2), F(1)]


def test_content_primitive():
    c, prim = polys.content_primitive([F(4, 3), F(-2, 3)])
    assert c == F(-2, 3)
    assert prim == [-2, 1]
    assert polys.scal(c, [F(p) for p in prim]) == [F(4, 3), F(-2, 3)]


def test_sturm_isolation():
    # roots at 1, 2, 3
    p = polys.from_ints([-6, 11, -6, 1])
    ivs = polys.isolate_real_roots(p, F(0), F(10))
    assert len(ivs) == 3
    for (a, b), root in zip(ivs, [1, 2, 3]):
        assert a < root <= b


def test_sturm_handles_multiple_roots():
    p = polys.mul([F(-1), F(1)], [F(-1), F(1)])  # (x-1)^2
    ivs = polys.isolate_real_roots(p, F(0), F(2))
    assert len(ivs) == 1


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
