"""Certified unit-circle roots and exact signature computations."""

import math
import random
from fractions import Fraction

import pytest

from wittkit.errors import SingularForm
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.residue import ResidueField
from wittkit.exact.roots import (
    CertifiedRoot,
    hermitian_signature_at_root,
    unit_circle_roots,
)

from hermitian_oracle import (
    ResidueField as OracleField,
    express_in_y,
    laurent_class,
    signature_of_symmetric,
)
from lt_oracle import (
    cyclotomic_polynomial,
    descartes_signature,
    free_bracket,
    minimal_poly_of_2cos,
)
import qpolys

F = Fraction
z = LaurentPoly.z()


def ints(p):
    """The LaurentPoly p as the primitive integer list that
    `unit_circle_roots` takes."""
    return polys.primitive(p.ordinary()[0])


def _theta_contains(root, value):
    a, b = root.theta_interval()
    return a <= value <= b


# ---- residue fields ----

def test_involution_fixed_field():
    field = ResidueField([F(1), F(-1), F(1)])  # z^2 - z + 1
    y = laurent_class(field, z + z**-1)
    assert y.bar() == y
    # the fixed subfield is Q here, and y = z + (1 - z) = 1 in this field
    assert y == field.one()
    gen = field.gen()
    assert gen.bar() == laurent_class(field, z**-1)
    assert gen.bar() != gen  # z itself is not involution-fixed
    assert gen.bar().bar() == gen


def test_express_in_y_quartic():
    # the oracle's fixed-subfield solver, on the oracle's residue field
    field = OracleField([F(1), F(0), F(0), F(0), F(1)])  # z^4 + 1
    y = field.from_laurent(z + z**-1)
    assert express_in_y(field, y) == [F(0), F(1)]
    assert express_in_y(field, y * y) == [F(2)]  # y^2 = 2 in this field
    assert express_in_y(field, y * y - 3) == [F(-1)]
    with pytest.raises(ValueError):
        express_in_y(field, field.gen())


def test_field_inverse():
    field = ResidueField([F(1), F(0), F(0), F(0), F(1)])  # z^4 + 1
    e = field.gen() + 1
    assert e * e.inverse() == field.one()
    assert (field.gen() ** 4) == field.elem([-1])


def test_y_minimal_poly():
    # the minimal polynomial of y = z + 1/z is the modulus written in y
    field = ResidueField([F(1), F(0), F(0), F(0), F(1)])
    assert polys.palindromic_to_y(field.modulus) == [F(-2), F(0), F(1)]
    assert [r.y_poly for r in unit_circle_roots(ints(z**4 + 1))] == [
        [F(-2), F(0), F(1)]] * 2
    assert unit_circle_roots(ints(z - 1))[0].y_poly == [F(-2), F(1)]


# ---- root enumeration ----

def test_unit_circle_roots_of_cyclotomic():
    roots = unit_circle_roots(ints(z**2 - z + 1))
    assert len(roots) == 1
    assert roots[0].is_rational
    assert _theta_contains(roots[0], math.pi / 3)


def test_unit_circle_roots_ordering():
    roots = unit_circle_roots(ints(z**4 + 1))
    assert len(roots) == 2
    assert _theta_contains(roots[0], math.pi / 4)
    assert _theta_contains(roots[1], 3 * math.pi / 4)


def test_no_roots_off_circle():
    assert unit_circle_roots(ints(z**2 - 3 * z + 1)) == []
    assert unit_circle_roots(ints(z - 2)) == []


def test_degenerate_linear_factors():
    r1 = unit_circle_roots(ints(z - 1))
    assert len(r1) == 1 and r1[0].lo == 2
    assert _theta_contains(r1[0], 0.0)
    r2 = unit_circle_roots(ints(z + 1))
    assert len(r2) == 1 and r2[0].lo == -2
    assert _theta_contains(r2[0], math.pi)


def test_mixed_roots_partial_circle():
    # (z^2+1)(z^2-3z+1): only the first factor sits on the circle,
    # but the product is not irreducible so enumerate factor by factor
    roots = unit_circle_roots(ints(z**2 + 1))
    assert len(roots) == 1
    assert _theta_contains(roots[0], math.pi / 2)


# ---- certified sign decisions ----

def test_sign_of_exact_zero():
    root = unit_circle_roots(ints(z**4 + 1))[0]  # y0 = sqrt(2)
    assert root.sign_of([-2, 0, 1]) == 0  # y^2 - 2 vanishes
    assert root.sign_of([-1, 1]) == 1  # y - 1 > 0 at sqrt(2)
    assert root.sign_of([-3, 1]) == -1
    # the pseudo-remainder by y_poly is a positive multiple of g's
    assert root.sign_of([6, 0, -3]) == 0
    assert root.sign_of([-5, 0, 0, 3]) == 1  # 3 y^3 - 5 = 6 y - 5 > 0
    assert root.sign_of([9, 0, 0, -7]) == -1  # 9 - 14 y < 0


def test_sign_of_rational_point():
    root = unit_circle_roots(ints(z**2 - z + 1))[0]  # y0 = 1
    assert root.sign_of([-1, 1]) == 0
    assert root.sign_of([1, 7]) == 1
    assert root.sign_of([3, 0, -4]) == -1


def test_refine_rejects_a_width_that_never_comes():
    # an irrational root's bracket never reaches width 0: refine and
    # unit_circle_roots refuse it instead of bisecting forever
    root = unit_circle_roots(ints(z**4 + 1))[0]
    for width in (F(0), F(-1)):
        with pytest.raises(ValueError):
            root.refine(width)
        with pytest.raises(ValueError):
            unit_circle_roots(ints(z**4 + 1), width)
    # a point bracket is already as narrow as it gets
    point = unit_circle_roots(ints(z**2 - z + 1), F(0))[0]
    point.refine(F(0))
    assert point.lo == point.hi == 1


def test_refine_narrows():
    root = unit_circle_roots(ints(z**4 + 1))[0]
    root.refine(F(1, 2**100))
    assert root.hi - root.lo <= F(1, 2**100)
    y0 = math.sqrt(2)
    assert float(root.lo) <= y0 <= float(root.hi)


# ---- signatures ----

def test_hermitian_signature_definite():
    field = ResidueField([F(1), F(-1), F(1)])
    root = unit_circle_roots(ints(z**2 - z + 1))[0]
    h = Matrix([[field.one(), field.zero()], [field.zero(), field.elem([-1])]])
    assert hermitian_signature_at_root(h, [root])[0] == 0
    h2 = Matrix([[field.one()]])
    assert hermitian_signature_at_root(h2, [root])[0] == 1


def test_hermitian_signature_off_diagonal():
    # [[0, z], [1/z, 0]] is hermitian and hyperbolic
    field = ResidueField([F(1), F(-1), F(1)])
    root = unit_circle_roots(ints(z**2 - z + 1))[0]
    h = Matrix([[field.zero(), field.gen()],
                [laurent_class(field, z**-1), field.zero()]])
    assert hermitian_signature_at_root(h, [root])[0] == 0


def test_hermitian_signature_y_dependent():
    # [[y, 0], [0, 1]] at theta = pi/4 (y = sqrt 2 > 0): signature 2;
    # at theta = 3pi/4, y = -sqrt 2 < 0: signature 0
    field = ResidueField([F(1), F(0), F(0), F(0), F(1)])
    root_small, root_big = unit_circle_roots(ints(z**4 + 1))
    y = laurent_class(field, z + z**-1)
    h = Matrix([[y, field.zero()], [field.zero(), field.one()]])
    assert hermitian_signature_at_root(h, [root_small, root_big]) == [2, 0]
    assert hermitian_signature_at_root(h, [root_big]) == [0]
    assert hermitian_signature_at_root(h, []) == []


def test_singular_hermitian_raises():
    field = ResidueField([F(1), F(-1), F(1)])
    root = unit_circle_roots(ints(z**2 - z + 1))[0]
    h = Matrix([[field.zero()]])
    with pytest.raises(SingularForm):
        hermitian_signature_at_root(h, [root])


def test_symmetric_signature():
    assert signature_of_symmetric(Matrix.from_ints([[2, 0], [0, -3]])) == 0
    assert signature_of_symmetric(Matrix.from_ints([[1, 2], [2, 1]])) == 0
    assert signature_of_symmetric(Matrix.from_ints([[2, 1], [1, 1]])) == 2
    with pytest.raises(SingularForm):
        signature_of_symmetric(Matrix.from_ints([[1, 1], [1, 1]]))
    assert signature_of_symmetric(Matrix([])) == 0


def test_symmetric_signature_matches_charpoly_route():
    # congruence diagonalization against Descartes on the characteristic
    # polynomial; permuted hyperbolic blocks and zero-diagonal matrices force
    # the row-and-column fix, a repeated basis vector makes a singular form
    rng = random.Random(41)
    checked = singular = 0
    for _ in range(160):
        n = rng.randint(1, 8)
        a = [[F(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
             for _ in range(n)]
        kind = rng.randrange(4)
        if kind == 0:
            a = [[a[i][j] + a[j][i] for j in range(n)] for i in range(n)]
        elif kind == 3:  # zero diagonal, dense off the diagonal
            a = [[a[i][j] + a[j][i] if i != j else F(0) for j in range(n)]
                 for i in range(n)]
        else:
            d = [[F(0)] * n for _ in range(n)]
            for i in range(0, n - 1, 2):
                d[i][i + 1] = d[i + 1][i] = F(rng.choice((-2, 1, 3)))
            if n % 2:
                d[n - 1][n - 1] = F(rng.choice((-1, 1)))
            if kind == 1:  # signed permutation: every diagonal entry 0
                perm = rng.sample(range(n), n)
                c = [[F(rng.choice((-1, 1))) if j == perm[i] else F(0)
                      for j in range(n)] for i in range(n)]
            else:  # the last basis vector repeats the first
                c = [[F(rng.randint(-2, 2)) for _ in range(n)]
                     for _ in range(n)]
                for i in range(n):
                    c[i][i] = F(1)
                    if n > 1:
                        c[i][n - 1] = c[i][0]
            a = (Matrix(c).transpose() * Matrix(d) * Matrix(c)).rows
        m = Matrix(a)
        try:
            want = descartes_signature(m)
        except SingularForm:
            singular += 1
            with pytest.raises(SingularForm):
                signature_of_symmetric(m)
            continue
        assert signature_of_symmetric(m) == want, a
        checked += 1
    assert checked > 100 and singular > 5


def test_free_bracket_excludes_a_nearby_zero():
    # y0 = 2 cos(2 pi / 5) = 0.6180339887..., and g vanishes 1e-10 below it
    root = CertifiedRoot(*minimal_poly_of_2cos(1, 5))
    near = F(6180339886, 10**10)
    lo, hi = free_bracket(root, [-near, F(1)])
    assert near < lo <= root.lo and root.hi <= hi
    assert qpolys.eval_at(root.y_poly, lo) * qpolys.eval_at(root.y_poly, hi) < 0
    # a point bracket (turn 1/4, y0 = 0) is widened, not past g's zero
    point = CertifiedRoot(*minimal_poly_of_2cos(1, 4))
    lo, hi = free_bracket(point, [F(-1, 10**9), F(1)])
    assert lo < 0 < hi < F(1, 10**9)
    assert free_bracket(point, [F(3)]) == (-1, 1)
    # a zero at y0 itself has no free bracket
    for r, g in ((root, root.y_poly), (point, [F(0), F(1)])):
        with pytest.raises(SingularForm):
            free_bracket(r, qpolys.mul(g, [F(2), F(1)]))


# ---- rational turns (the per-call route, kept as an oracle) ----

def test_cyclotomic_small():
    assert cyclotomic_polynomial(1) == [F(-1), F(1)]
    assert cyclotomic_polynomial(2) == [F(1), F(1)]
    assert cyclotomic_polynomial(6) == [F(1), F(-1), F(1)]
    assert cyclotomic_polynomial(12) == [F(1), F(0), F(-1), F(0), F(1)]


def test_cyclotomic_product_is_z_n_minus_one():
    n = 12
    prod = [F(1)]
    for d in range(1, n + 1):
        if n % d == 0:
            prod = qpolys.mul(prod, cyclotomic_polynomial(d))
    expect = [F(-1)] + [F(0)] * (n - 1) + [F(1)]
    assert prod == expect


def test_minimal_poly_of_rational_turns():
    yp, lo, hi = minimal_poly_of_2cos(1, 6)
    assert yp == [F(-1), F(1)] and lo == hi == 1
    yp, lo, hi = minimal_poly_of_2cos(1, 4)
    assert yp == [F(0), F(1)] and lo == hi == 0
    yp, lo, hi = minimal_poly_of_2cos(0, 1)
    assert lo == hi == 2
    yp, lo, hi = minimal_poly_of_2cos(1, 2)
    assert lo == hi == -2


def test_minimal_poly_of_fifth_turn():
    yp, lo, hi = minimal_poly_of_2cos(1, 5)
    assert yp == [F(-1), F(1), F(1)]  # y^2 + y - 1
    target = 2 * math.cos(2 * math.pi / 5)
    assert float(lo) <= target <= float(hi)
    # 2/5 lands on the other root of the same minimal polynomial
    yp2, lo2, hi2 = minimal_poly_of_2cos(2, 5)
    assert yp2 == yp
    target2 = 2 * math.cos(4 * math.pi / 5)
    assert float(lo2) <= target2 <= float(hi2)


def test_turn_reduction():
    # 7/5 = 2/5 mod 1
    yp, lo, hi = minimal_poly_of_2cos(7, 5)
    yp2, lo2, hi2 = minimal_poly_of_2cos(2, 5)
    assert (yp, lo, hi) == (yp2, lo2, hi2)
