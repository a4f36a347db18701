"""Signatures at a unit-circle root against the route they replaced.

`hermitian_signature_at_root` is one congruence diagonalization whose
pivots are read through `polys.cos_poly` at every root of the field;
`hermitian_oracle` keeps the characteristic polynomial, fixed-subfield and
Descartes route it replaced, the Chebyshev sums behind the old
`palindromic_to_y` and `_phase_sign`, and the congruence pivots over a
field that the fraction-free elimination of `signature_of_symmetric`
replaced.
Every comparison asks for equal answers, or `SingularForm` on both sides."""

import random
from fractions import Fraction as F

import pytest

from wittkit import laurent_forms
from wittkit.errors import InvariantViolated, SingularForm
from wittkit.exact import polys
from wittkit.exact import roots as roots_module
from wittkit.exact.matrix import Matrix
from wittkit.exact.residue import ResidueField
from wittkit.exact.roots import (
    hermitian_signature_at_root,
    unit_circle_roots,
)
from wittkit.knots import _signature_at_u
from wittkit.laurent_forms import dw_multisignature_laurent

import hermitian_oracle as oracle
from hermitian_oracle import signature_of_symmetric
from covering_oracle import laurent_direct_sum
import qpolys
from lt_oracle import cyclotomic_polynomial
from test_knots import seeded_seifert_knot
from test_laurent_forms import P6, P12, ONE, Z, cyclic_block

# self-conjugate moduli: z - 1, z + 1, Phi_3, Phi_5, Phi_12, Phi_15, and
# the Alexander polynomial of the knot 6_2, which is not cyclotomic and
# has one root pair on the unit circle
MODULI = [[-1, 1], [1, 1]] \
    + [cyclotomic_polynomial(d) for d in (3, 5, 12, 15)] + [[1, -3, 3, -3, 1]]


def fields_with_roots():
    out = []
    for m in MODULI:
        field = ResidueField(m)
        roots = unit_circle_roots(field.modulus)
        assert roots
        out.append((field, roots))
    return out


def rand_elem(rng, field):
    return field.elem([F(rng.randint(-3, 3), rng.randint(1, 2))
                       for _ in range(field.degree)])


def rand_hermitian(rng, field, n, kind):
    """A hermitian n x n matrix: dense, with zero diagonal, with zero
    diagonal and purely imaginary entries e - bar(e), or singular."""
    h = [[field.zero()] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            e = rand_elem(rng, field)
            if kind == "imaginary":
                e = e - e.bar()
            if i == j:
                e = field.zero() if kind in ("zero-diagonal", "imaginary") \
                    else e + e.bar()
            h[i][j], h[j][i] = e, e.bar()
    h = Matrix(h)
    if kind == "singular":
        # C^* h C with the last column of C repeating the first
        c = [[rand_elem(rng, field) for _ in range(n)] for _ in range(n)]
        for row in c:
            row[-1] = row[0]
        c = Matrix(c)
        h = c.bar().transpose() * h * c
    return h


def outcome(signature, *args):
    try:
        return signature(*args)
    except SingularForm:
        return "singular"


def horner_bar(field, e):
    """The involution by Horner's rule in 1/z, as `bar_elem` once did, on
    the oracle's `Fraction` field."""
    zinv = oracle.ResidueElem(field, tuple(field._z_inv))
    out = field.zero()
    for c in reversed(e.coeffs):
        out = out * zinv + c
    return out


# ---- hermitian signatures ----

def test_hermitian_signature_matches_charpoly_route():
    rng = random.Random(1010)
    kinds = ("dense", "zero-diagonal", "imaginary", "singular")
    tally = {"singular": 0, "signature": 0}
    for field, roots in fields_with_roots():
        for trial in range(20):  # every (size, kind) pair once
            n = trial % 5
            h = rand_hermitian(rng, field, n, kinds[trial % 4])
            old = oracle.as_oracle_matrix(h)
            in_y = oracle.charpoly_in_y(old)
            want = outcome(lambda: [oracle.descartes_signature_at_root(
                in_y, root) for root in roots])
            assert outcome(hermitian_signature_at_root, h, roots) == want, (
                field.modulus, h)
            assert outcome(oracle.pivot_signatures_at_root, old,
                           roots) == want
            tally["singular" if want == "singular" else "signature"] += len(
                roots)
    assert tally["singular"] > 30 and tally["signature"] > 120


def test_purely_imaginary_off_diagonal():
    # a_ij + bar(a_ij) = 0 rules out c = 1; c = a_ij makes the pivot
    # 2 a_ij bar(a_ij), so the hyperbolic plane still gives 0
    field = ResidueField(cyclotomic_polynomial(5))
    w = oracle.laurent_class(field, Z - Z**-1)
    h = Matrix([[field.zero(), w], [w.bar(), field.zero()]])
    roots = unit_circle_roots(field.modulus)
    assert hermitian_signature_at_root(h, roots) == [0, 0]
    for root in roots:
        assert oracle.charpoly_signature_at_root(
            oracle.as_oracle_matrix(h), root) == 0
    zero = Matrix([[field.zero()] * 2] * 2)
    with pytest.raises(SingularForm):
        hermitian_signature_at_root(zero, roots)


def test_non_hermitian_input_rejected():
    field = ResidueField(cyclotomic_polynomial(5))
    root = unit_circle_roots(field.modulus)[0]
    for rows in ([[field.gen()]],
                 [[field.one(), field.gen()], [field.gen(), field.one()]],
                 [[field.zero(), field.one()],
                  [field.elem([2]), field.zero()]]):
        with pytest.raises(InvariantViolated, match="not hermitian"):
            hermitian_signature_at_root(Matrix(rows), [root])


def test_bar_matches_horner():
    rng = random.Random(77)
    moduli = MODULI + [cyclotomic_polynomial(d) for d in (7, 20, 21)] \
        + [[1, 1, -1, 1, 1]]
    for m in moduli:
        field = ResidueField(m)
        assert field.self_conjugate
        for _ in range(8):
            e = rand_elem(rng, field)
            old = oracle.as_oracle(e)
            assert oracle.as_oracle(e.bar()) == horner_bar(old.field, old)
            assert e.bar().bar() == e
        assert field.zero().bar() == field.zero()
    with pytest.raises(ValueError):
        ResidueField([2, -3, 1]).gen().bar()  # (z - 1)(z - 2) reversed differs


# ---- the substitution y = z + 1/z ----

def test_palindromic_to_y_matches_chebyshev_sum():
    # the kernel takes integers: a rational p goes in as its positive
    # multiple L p, and Y is linear in p
    rng = random.Random(5)
    for _ in range(150):
        m = rng.randint(0, 10)
        # a nonzero end coefficient keeps the degree at 2m
        half = [F(rng.choice((-1, 1)) * rng.randint(1, 4), rng.randint(1, 3))]
        half += [F(rng.randint(-4, 4), rng.randint(1, 3)) for _ in range(m)]
        p = half + half[-2::-1]
        scaled = qpolys.ints(p)
        got = polys.palindromic_to_y(scaled)
        assert got == qpolys.scal(scaled[0] / p[0], oracle.palindromic_to_y(p))
        assert all(type(c) is int for c in got)
    for d in range(1, 121):
        p = cyclotomic_polynomial(d)
        if d <= 2:  # z -/+ 1 has odd degree
            for f in (polys.palindromic_to_y, oracle.palindromic_to_y):
                with pytest.raises(ValueError):
                    f(p)
            continue
        assert polys.palindromic_to_y(qpolys.ints(p)) \
            == oracle.palindromic_to_y(p), d
    with pytest.raises(ValueError):
        polys.palindromic_to_y([1, 2, 3])


def test_phase_sign_matches_chebyshev_sum():
    rng = random.Random(9)

    def sign_or_zero(f, *args):
        try:
            return f(*args)
        except (ArithmeticError, InvariantViolated):
            return 0

    checked = 0
    for field, roots in fields_with_roots():
        if field.degree == 1:
            continue  # sin theta = 0 there; no phase to read
        for _ in range(15):
            u = rand_elem(rng, field)
            shift = rng.randint(-6, 6)
            for root in roots:
                for epsilon in (1, -1):
                    want = sign_or_zero(oracle.phase_sign, oracle.as_oracle(u),
                                        shift, root, epsilon)
                    got = sign_or_zero(lambda: laurent_forms._phase_signs(
                        u, shift, [root], epsilon)[0])
                    assert got == want, (u, shift, root, epsilon)
                    checked += 1
    assert checked > 200


def test_multisignature_matches_old_helpers(monkeypatch):
    forms = [
        cyclic_block(P6, 1, ONE),
        cyclic_block(P6, 2, ONE),
        cyclic_block(P6, 1, ONE, epsilon=-1),
        cyclic_block(P6, 2, ONE + Z, epsilon=-1),
        cyclic_block(P12, 1, ONE),
        cyclic_block(P12, 2, ONE - Z),
        cyclic_block(Z - ONE, 2, ONE, mode="Q"),
        laurent_direct_sum(cyclic_block(P6, 1, ONE + Z),
                           cyclic_block(P6, 1, Z**2)),
        laurent_direct_sum(cyclic_block(P6, 1, ONE),
                           cyclic_block(P6, 2, ONE)),
        laurent_direct_sum(cyclic_block(P12, 1, ONE),
                           cyclic_block(P12, 2, ONE)),
        cyclic_block(P6, 2, Z, epsilon=-1),
    ]
    new = [dw_multisignature_laurent(f) for f in forms]

    def charpoly_signatures(h, roots):
        return [oracle.charpoly_signature_at_root(oracle.as_oracle_matrix(h),
                                                  root) for root in roots]

    def chebyshev_signs(u, shift, roots, epsilon):
        return [oracle.phase_sign(oracle.as_oracle(u), shift, root, epsilon)
                for root in roots]

    monkeypatch.setattr(laurent_forms, "hermitian_signature_at_root",
                        charpoly_signatures)
    monkeypatch.setattr(laurent_forms, "_phase_signs", chebyshev_signs)
    old = [dw_multisignature_laurent(f) for f in forms]
    assert new == old
    assert sum(len(ms.signatures) for ms in new) >= 12



def test_one_diagonalization_per_level(monkeypatch):
    # P12 has two roots on the circle; the rank-2 level-1 form is checked
    # and diagonalized once and read at both
    form = laurent_direct_sum(cyclic_block(P12, 1, ONE),
                              cyclic_block(P12, 1, ONE))
    eliminations, checks = [], []
    pivots, bar = roots_module._congruence_pivots, Matrix.bar

    def counting_pivots(*args):
        eliminations.append(args)
        return pivots(*args)

    def counting_bar(self):
        checks.append(self)
        return bar(self)

    monkeypatch.setattr(roots_module, "_congruence_pivots", counting_pivots)
    monkeypatch.setattr(Matrix, "bar", counting_bar)
    ms = dw_multisignature_laurent(form)
    assert len(ms.roots) == 2
    assert sorted(ms.signatures.values()) == [-4, 4]
    assert len(eliminations) == 1
    assert len(checks) == 1


# ---- symmetric signatures: fraction-free against Fraction pivots ----

def rand_symmetric(rng, n, den, kind):
    """A symmetric n x n matrix with entries k / den_ij: dense, with zero
    diagonal, or singular (a repeated row and column)."""
    a = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            if i == j and kind != "dense":
                continue
            x = F(rng.randint(-5, 5), rng.randint(1, den))
            a[i][j] = a[j][i] = x
    if kind == "singular" and n > 1:
        a[-1] = list(a[0])
        for row in a:
            row[-1] = row[0]
    return Matrix(a)


def test_symmetric_signature_matches_fraction_pivots():
    rng = random.Random(4242)
    tally = {"singular": 0, "signature": 0}
    for trial in range(600):
        n = 1 + trial % 8
        kind = ("dense", "zero-diagonal", "zero-diagonal", "singular")[
            trial % 4]
        m = rand_symmetric(rng, n, 1 if trial % 3 else 6, kind)
        want = outcome(oracle.fraction_signature_of_symmetric, m)
        assert outcome(signature_of_symmetric, m) == want, m
        tally["singular" if want == "singular" else "signature"] += 1
    assert tally["singular"] > 100 and tally["signature"] > 400


def test_symmetric_signature_refuses_singular():
    for rows in ([[0]], [[0, 0], [0, 0]], [[1, 2], [2, 4]],
                 [[0, F(1, 2), 0], [F(1, 2), 0, 0], [0, 0, 0]]):
        with pytest.raises(SingularForm):
            signature_of_symmetric(Matrix(rows))


def test_levine_tristram_matrices_match_fraction_pivots():
    # the [[u S, -K], [K, u S]] matrices of the step-function knots, built
    # from Fraction matrices as before and on integers by _signature_at_u
    rng = random.Random(2026)
    compared = nonzero = 0
    for rank in range(2, 9, 2):
        for epsilon in (-1, 1):
            psi = seeded_seifert_knot(rng, rank, epsilon).psi
            for u in (F(1, 20), F(1, 7), F(1, 3), F(1, 2), F(2, 3), F(1),
                      F(3, 2), F(31, 16), F(3), F(5), F(9), F(40)):
                s = (psi + psi.transpose()).scale(u.numerator)
                kk = (psi.transpose() - psi).scale(u.denominator)
                m = s.hstack(-kk).vstack(kk.hstack(s))
                want = outcome(oracle.fraction_signature_of_symmetric, m)
                assert outcome(signature_of_symmetric, m) == want
                half = want if want == "singular" else want // 2
                assert outcome(_signature_at_u, psi, u) == half, (psi, u)
                compared += 1
                nonzero += want not in (0, "singular")
    assert compared == 96 and nonzero > 12
