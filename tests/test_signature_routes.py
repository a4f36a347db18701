"""Signatures at a unit-circle root against the route they replaced.

`hermitian_signature_at_root` is one congruence diagonalization whose
pivots are read through `polys.cos_poly` at every root of the field;
`hermitian_oracle` keeps the characteristic polynomial, fixed-subfield and
Descartes route it replaced, the Chebyshev sums behind the old
`palindromic_to_y` and `_phase_sign`, and the congruence pivots over a
field that the fraction-free elimination of `signature_of_symmetric`
replaced.
Every comparison asks for equal answers, or `SingularForm` on both sides."""

import os
import random
import subprocess
import sys
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
    signature_of_int_rows,
    unit_circle_roots,
)
from wittkit.knots import KnotInput, _signature_at_u, _u_in_y_gap
from wittkit.laurent_forms import dw_multisignature_laurent

import hermitian_oracle as oracle
from hermitian_oracle import signature_of_symmetric
from covering_oracle import laurent_direct_sum
from elimination_oracle import bar, hstack, product, vstack
import qpolys
from lt_oracle import (
    cyclotomic_polynomial,
    realified_signature,
    realified_signature_at_u,
)
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
    """The rows of a hermitian n x n form: dense, with zero diagonal, with
    zero diagonal and purely imaginary entries e - bar(e), or singular."""
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
    if kind == "singular":
        # C^* h C with the last column of C repeating the first
        c = [[rand_elem(rng, field) for _ in range(n)] for _ in range(n)]
        for row in c:
            row[-1] = row[0]
        c = Matrix(c)
        h = product(product(bar(c).transpose(), Matrix(h)), c).rows
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
            old = oracle.as_oracle_rows(h)
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
    h = [[field.zero(), w], [w.bar(), field.zero()]]
    roots = unit_circle_roots(field.modulus)
    assert hermitian_signature_at_root(h, roots) == [0, 0]
    for root in roots:
        assert oracle.charpoly_signature_at_root(
            oracle.as_oracle_rows(h), root) == 0
    zero = [[field.zero()] * 2 for _ in range(2)]
    with pytest.raises(SingularForm):
        hermitian_signature_at_root(zero, roots)


def test_non_hermitian_input_rejected():
    field = ResidueField(cyclotomic_polynomial(5))
    root = unit_circle_roots(field.modulus)[0]
    for rows in ([[field.gen()]],
                 [[field.one(), field.gen()], [field.gen(), field.one()]],
                 [[field.zero(), field.one()],
                  [field.elem([2]), field.zero()]],
                 [[field.one(), field.zero()]],
                 [[field.one(), field.zero()], [field.zero()]]):
        with pytest.raises(InvariantViolated, match="not hermitian"):
            hermitian_signature_at_root(rows, [root])


def test_rows_refused_alike_under_optimize():
    # python -O strips assert statements; the hermitian check and the
    # singular pivot must still raise on rows
    src = os.path.dirname(os.path.dirname(os.path.abspath(
        roots_module.__file__)))
    code = ("import sys\n"
            "sys.path.insert(0, sys.argv[1])\n"
            "from wittkit.errors import InvariantViolated, SingularForm\n"
            "from wittkit.exact.residue import ResidueField\n"
            "from wittkit.exact.roots import (\n"
            "    hermitian_signature_at_root, unit_circle_roots)\n"
            "field = ResidueField([1, -1, 1])\n"
            "roots = unit_circle_roots([1, -1, 1])\n"
            "zero, one, gen = field.zero(), field.one(), field.gen()\n"
            "for rows, error in (([[gen]], InvariantViolated),\n"
            "                    ([[one, gen], [gen, one]], InvariantViolated),\n"
            "                    ([[zero, one], [one, zero], [zero, zero]],\n"
            "                     InvariantViolated),\n"
            "                    ([[zero]], SingularForm),\n"
            "                    ([[zero, zero], [zero, zero]], SingularForm)):\n"
            "    try:\n"
            "        hermitian_signature_at_root(rows, roots)\n"
            "    except error as e:\n"
            "        print(type(e).__name__)\n")
    proc = subprocess.run([sys.executable, "-O", "-c", code, src],
                          capture_output=True, text=True, timeout=300)
    assert (proc.returncode, proc.stderr) == (0, "")
    assert proc.stdout.split() == ["InvariantViolated"] * 3 + [
        "SingularForm"] * 2


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

    def charpoly_signatures(rows, roots):
        return [oracle.charpoly_signature_at_root(oracle.as_oracle_rows(rows),
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
    pivots, check = roots_module._congruence_pivots, roots_module.check

    def counting_pivots(*args):
        eliminations.append(args)
        return pivots(*args)

    def counting_check(ok, message):
        checks.append(message)
        return check(ok, message)

    monkeypatch.setattr(roots_module, "_congruence_pivots", counting_pivots)
    monkeypatch.setattr(roots_module, "check", counting_check)
    ms = dw_multisignature_laurent(form)
    assert len(ms.roots) == 2
    assert sorted(ms.signatures.values()) == [-4, 4]
    assert len(eliminations) == 1
    assert checks.count("matrix is not hermitian") == 1


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
                m = vstack(hstack(s, -kk), hstack(kk, s))
                want = outcome(oracle.fraction_signature_of_symmetric, m)
                assert outcome(signature_of_symmetric, m) == want
                half = want if want == "singular" else want // 2
                rows = [[int(x) for x in r] for r in psi.rows]
                assert outcome(_signature_at_u, rows, u) == half, (psi, u)
                compared += 1
                nonzero += want not in (0, "singular")
    assert compared == 96 and nonzero > 12


# ---- Levine-Tristram gap signatures over Z[i] against the realification ----

def rand_gaussian_hermitian(rng, n, kind):
    """Integer rows (re, im) of an n x n hermitian re + i im: dense, with
    zero diagonal, with zero diagonal and its first nonzero entry purely
    imaginary (so elimination opens with c = a_kj), or singular (the last
    row and column repeat the first)."""
    re = [[0] * n for _ in range(n)]
    im = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            a, b = rng.randint(-4, 4), rng.randint(-4, 4)
            if i == j:
                re[i][i] = 0 if kind in ("zero-diagonal", "imaginary") else a
            else:
                re[i][j], re[j][i], im[i][j], im[j][i] = a, a, b, -b
    if kind == "imaginary" and n > 1:
        b = rng.choice((-3, -1, 1, 2))
        re[0][1] = re[1][0] = 0
        im[0][1], im[1][0] = b, -b
    if kind == "singular" and n > 1:
        re[-1], im[-1] = list(re[0]), list(im[0])
        for r, s in zip(re, im):
            r[-1], s[-1] = r[0], s[0]
    return re, im


def opens_with_imaginary_fix(re, im) -> bool:
    """Whether the first congruence fix takes c = a_kj: no nonzero
    diagonal, and the first nonzero entry by rows has real part 0."""
    if any(re[i][i] for i in range(len(re))):
        return False
    first = next(((a, b) for r, s in zip(re, im) for a, b in zip(r, s)
                  if a or b), None)
    return first is not None and first[0] == 0


def test_gaussian_kernel_matches_realification():
    rng = random.Random(20261020)
    tally = {"singular": 0, "signature": 0, "imaginary-fix": 0}
    for trial in range(1200):
        n = 1 + trial % 16 if trial % 3 else 1 + trial % 5
        kind = ("dense", "zero-diagonal", "imaginary", "singular")[trial % 4]
        re, im = rand_gaussian_hermitian(rng, n, kind)
        tally["imaginary-fix"] += opens_with_imaginary_fix(re, im)
        want = outcome(realified_signature, [list(r) for r in re],
                       [list(r) for r in im])
        got = outcome(signature_of_int_rows, re, im)
        assert got == want, (re, im)
        tally["singular" if want == "singular" else "signature"] += 1
    assert tally["singular"] > 250 and tally["signature"] > 800
    assert tally["imaginary-fix"] > 200


def test_gaussian_kernel_refuses_singular_forms():
    # the third opens with c = a_kj = i: zero diagonal, a_01 = i
    zero = [[0] * 3 for _ in range(3)]
    for re, im in (([[0]], [[0]]), ([[1, 1], [1, 1]], [[0, 0], [0, 0]]),
                   (zero, [[0, 1, 1], [-1, 0, 0], [-1, 0, 0]]),
                   ([[2, 1], [1, 1]], [[0, 1], [-1, 0]])):
        with pytest.raises(SingularForm):
            signature_of_int_rows([list(r) for r in re],
                                  [list(r) for r in im])
        with pytest.raises(SingularForm):
            realified_signature(re, im)


def zero_diagonal_psi(rng, n):
    """An integer psi with zero diagonal, so S = psi + psi^T has one too;
    entries with psi_ij = -psi_ji make S_ij = 0 beside K_ij != 0."""
    psi = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            a = rng.randint(-3, 3)
            psi[i][j] = a
            psi[j][i] = -a if rng.random() < 0.5 else rng.randint(-3, 3)
    return psi


def mirror(psi) -> list:
    """psi of K # -K: blockdiag(psi, -psi)."""
    n = len(psi)
    return ([row + [0] * n for row in psi]
            + [[0] * n + [-x for x in row] for row in psi])


def gaps_next_to_roots(k) -> list:
    """u in each gap of `k.lt_steps` (`_u_in_y_gap`) and in the narrow
    y-gaps just above and below each root's bracket."""
    roots = [root for _, _, root in k.lt_steps.roots]
    walls = [F(2)] + [y for r in roots for y in (r.hi, r.lo)] + [F(-2)]
    out = [_u_in_y_gap(low, high) for high, low in zip(walls[::2],
                                                        walls[1::2])]
    for r in roots:
        pad = (r.hi - r.lo) / 64
        if r.hi + pad < 2:
            out.append(_u_in_y_gap(r.hi, r.hi + pad))
        if r.lo - pad > -2:
            out.append(_u_in_y_gap(r.lo - pad, r.lo))
    return out


def same_at_u(psi, us) -> list:
    """`_signature_at_u` of psi at each u, checked against the
    realification ("singular" on both routes where the form is)."""
    values = []
    for u in us:
        want = outcome(realified_signature_at_u, psi, u)
        assert outcome(_signature_at_u, psi, u) == want, (psi, u)
        values.append(want)
    return values


def test_signature_at_u_matches_realification():
    rng = random.Random(44)
    us = (F(1, 9), F(1, 3), F(1), F(7, 4), F(12))
    near = singular = 0
    for rank in range(2, 17, 2):
        for epsilon in (-1, 1):
            k = seeded_seifert_knot(rng, rank, epsilon)
            gaps = gaps_next_to_roots(k) if epsilon == -1 else []
            near += len(gaps)
            same_at_u(k.seifert_form.psi_pair[0], us + tuple(gaps))
    for rank in range(1, 11):
        singular += same_at_u(zero_diagonal_psi(rng, rank),
                              us).count("singular")
    for rank in (2, 4, 6):
        k = KnotInput("K # -K", mirror(seeded_seifert_knot(
            rng, rank, -1).seifert_form.psi_pair[0]), -1)
        values = same_at_u(k.seifert_form.psi_pair[0],
                           us + tuple(gaps_next_to_roots(k)))
        assert set(values) <= {0, "singular"} and 0 in values
    assert near > 20 and singular > 3
