"""Covering functors, trace recovery, and Seifert lagrangian machinery."""

import json
import random
import sys
from fractions import Fraction
from itertools import chain
from math import gcd
from pathlib import Path

import pytest
from hypothesis import given, settings, assume
from hypothesis import strategies as st

from wittkit import cli, laurent_forms, seifert
from wittkit.exact import polys, snf
from wittkit.errors import (
    InvariantViolated,
    NotEInvariant,
    NotInvertibleInNovikov,
    NotPTorsion,
    NotTorsion,
    SingularAutometricForm,
    SingularMatrix,
    SingularSeifertForm,
)
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import (
    Matrix, _imul as imul, _integral, _integral_rows)
from wittkit.exact.ratfunc import RatFunc
from wittkit.laurent_forms import (
    LaurentLinkingForm,
    LaurentModule,
    _krylov,
    auxiliary_hermitian,
    _pencil_reduction,
    decompose_module,
    dw_multisignature_laurent,
    level_multiplicities,
)
from wittkit.catalog import catalog_knot
from wittkit.knots import (
    KnotInput,
    alexander_polynomial,
    analyze,
    connected_sum,
    knot_inverse,
)
from wittkit.serialize import report_to_json
from wittkit.seifert import (
    AutometricForm,
    SeifertForm,
    SeifertSubmodule,
    canonical_identification,
    covering_autometric,
    covering_seifert,
    hyperbolic_witness_sum,
    is_complementary,
    monodromy,
    trace_chi,
    verify_roundtrip,
    verify_seifert_lagrangian,
)

from covering_oracle import (
    QZ,
    NotNearProjection,
    autometric_direct_sum,
    covering_pencil,
    covering_submodule_image,
    integer_ratio,
    is_lagrangian_submodule,
    laurent_direct_sum,
    laurent_negate,
    module_dimension_q,
    monodromy_oracle,
    near_projection_decompose,
    form_from_qz,
    frac_class,
    pairing_entry_oracle,
    parent_covering,
    parent_form,
    qz_auxiliary_gram,
    qz_monodromy_theta,
    qz_pairing,
    restricted_e,
    seifert_direct_sum,
    seifert_negate,
    validate_over_qz,
    verify_roundtrip_oracle,
)
from elimination_oracle import (
    covering_certificates,
    det as qz_det,
    fraction_matrix,
    frobenius,
    integer_pair,
    inverse as qz_inverse,
    pair_blocks,
    parent_frobenius,
    pencil_reduction,
    vstack,
)
from factor_oracle import as_laurent, is_self_conjugate
from hermitian_oracle import as_oracle, as_oracle_matrix
from snf_oracle import snf_covering_autometric, snf_covering_seifert
import qpolys

TREFOIL = [[-1, 1], [0, -1]]
FIG8 = [[1, 1], [0, -1]]


def frac_matrix(rows):
    return Matrix([[Fraction(x) for x in row] for row in rows])


def random_autometric(rng, eps=None, max_rank=4, bound=5):
    """Nonsingular autometric form via the Cayley transform of a
    theta-skew generator; rejection keeps everything invertible."""
    while True:
        n = rng.randint(1, max_rank)
        e = eps if eps is not None else rng.choice([1, -1])
        m = frac_matrix([[rng.randint(-bound, bound) for _ in range(n)]
                         for _ in range(n)])
        theta = m + m.transpose().map(lambda v: v * e)
        if theta.nrows and theta.det() == 0:
            continue
        a = frac_matrix([[rng.randint(-2, 2) for _ in range(n)]
                         for _ in range(n)])
        x = a - theta.inverse() * a.transpose() * theta
        ident = Matrix.identity(n)
        if (ident - x).det() == 0:
            continue
        h = (ident - x).inverse() * (ident + x)
        try:
            return AutometricForm(theta.rows, h.rows, e)
        except (ValueError, SingularAutometricForm):
            continue


def elementary_divisor_counts(module):
    out = {}
    for d in module.divisors:
        for g, mult in factor_rational_poly(d.ordinary()[0]):
            key = (factor_key(g), mult)
            out[key] = out.get(key, 0) + 1
    return out


# ---------------------------------------------------------------------------
# trace function
# ---------------------------------------------------------------------------

def chi(f) -> Fraction:
    """`trace_chi` of a `QZ` element, read as the integer ratio of its
    numerator, with no negative power, and denominator."""
    return trace_chi(*integer_ratio(f.num, f.den))


class TestTraceChi:
    @pytest.mark.parametrize("a", [Fraction(1), Fraction(2), Fraction(-3),
                                   Fraction(1, 2)])
    def test_geometric_anchor(self, a):
        f = QZ.make(LaurentPoly.one(), [a, Fraction(-1)])
        assert chi(f) == 1 / a

    def test_shifted_anchor(self):
        # z/(z-a) = 1 + a/(z-a), and chi(1/(z-a)) = -1/a
        for a in (Fraction(3), Fraction(-2)):
            f = QZ.make(LaurentPoly.z(), [-a, Fraction(1)])
            assert chi(f) == -1

    def test_vanishes_on_laurent_polynomials(self):
        assert trace_chi(([], 1), [1]) == 0
        assert trace_chi(([3, 0, 0, 0, 0, 0, 0, -1], 1), [1]) == 0
        assert trace_chi(([0, 3, 0, -1], 5), [-2]) == 0

    def test_linear(self):
        f = QZ.make(LaurentPoly.one(), [Fraction(2), Fraction(-1)])
        g = QZ.make(LaurentPoly.one(), [Fraction(-3), Fraction(-1)])
        assert chi(f + g) == chi(f) + chi(g)
        seven = QZ.make(LaurentPoly.const(Fraction(7)))
        assert chi(seven * f) == 7 * chi(f)

    def test_class_invariant(self):
        f = QZ.make(LaurentPoly.one(), [Fraction(2), Fraction(-1)])
        bumped = f + QZ.make(LaurentPoly({1: Fraction(5), 3: Fraction(1)}))
        assert chi(bumped) == chi(f)

    def test_matches_canonical_form(self):
        """trace_chi on the integer ratio of (num, den) as given, sharing a
        factor or not, with int or Fraction coefficients, equals trace_chi
        on RatFunc.make's lowest terms, and is 0 on a polynomial over a
        constant."""
        rng = random.Random("trace-chi")

        def coeff():
            return rng.choice([rng.randint(-4, 4),
                               Fraction(rng.randint(-4, 4), rng.randint(1, 5))])

        def dense(deg):
            # nonzero at both ends, so invertible in both completions
            ends = [rng.choice([-3, -2, -1, 1, 2, Fraction(1, 3)])
                    for _ in range(2)]
            if not deg:
                return ends[:1]
            return ends[:1] + [coeff() for _ in range(deg - 1)] + ends[1:]

        seen = {"common": 0, "reduced": 0, "laurent": 0, "nonzero": 0}
        for _ in range(300):
            num = LaurentPoly({d: coeff() for d in range(rng.randint(0, 2),
                                                         rng.randint(1, 6))})
            den = dense(rng.randint(0, 3))
            if rng.random() < 0.4:
                g = dense(rng.randint(1, 2))
                num = num * LaurentPoly.from_dense(g)
                den = qpolys.mul(den, g)
            got = trace_chi(*integer_ratio(num, den))
            c = RatFunc.make(num, den)
            assert got == chi(c) and type(got) is Fraction
            if len(c.den) == 1:
                assert got == 0
                seen["laurent"] += 1
            seen["common" if len(c.den) < len(den) else "reduced"] += 1
            seen["nonzero"] += got != 0
        assert min(seen.values()) >= 20, seen
        # a denominator with a factor z is refused, not shifted as
        # RatFunc.make shifts it
        with pytest.raises(NotInvertibleInNovikov):
            trace_chi(([1], 1), [0, 1])


# ---------------------------------------------------------------------------
# form constructors
# ---------------------------------------------------------------------------

class TestSeifertForm:
    def test_trefoil_structure(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        theta, e = fraction_matrix(f.theta_pair), fraction_matrix(f.e_pair)
        assert theta == frac_matrix([[0, 1], [-1, 0]])
        assert e == frac_matrix([[0, 1], [-1, 1]])
        assert theta * e == f.psi

    def test_singular_theta_rejected(self):
        # psi symmetric and eps = -1 kills theta
        with pytest.raises(SingularSeifertForm):
            SeifertForm([[1, 2], [2, 1]], -1, "Z")

    def test_non_unimodular_needs_q_mode(self):
        with pytest.raises(SingularSeifertForm):
            SeifertForm([[1, 1], [0, 1]], 1, "Z")
        f = SeifertForm([[1, 1], [0, 1]], 1, "Q")
        assert f.coefficients == "Q"

    def test_integrality_enforced(self):
        with pytest.raises(ValueError):
            SeifertForm([[Fraction(1, 2)]], 1, "Z")

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            SeifertForm([[0, 1]], -1, "Z")
        with pytest.raises(ValueError):
            SeifertForm(TREFOIL, 2, "Z")
        with pytest.raises(ValueError):
            SeifertForm(TREFOIL, -1, "R")


class TestAutometricForm:
    def test_isometry_enforced(self):
        with pytest.raises(ValueError):
            AutometricForm([[1, 0], [0, 1]], [[2, 0], [0, 1]], 1)

    def test_symmetry_enforced(self):
        with pytest.raises(ValueError):
            AutometricForm([[1, 1], [0, 1]], [[1, 0], [0, 1]], 1)

    def test_singular_theta(self):
        with pytest.raises(SingularAutometricForm):
            AutometricForm([[0]], [[1]], 1)

    @staticmethod
    def fraction_verdict(theta, h, eps):
        """The checks on `Fraction` matrices, with the oracle's det."""
        if theta != theta.transpose().scale(eps):
            return "symmetric"
        if qz_det(theta) == 0:
            return "singular"
        return "ok" if h.transpose() * theta * h == theta else "isometry"

    @staticmethod
    def verdict(theta, h, eps):
        try:
            f = AutometricForm(theta.rows, h.rows, eps)
        except SingularAutometricForm:
            return "singular"
        except ValueError as err:
            return "symmetric" if "symmetric" in str(err) else "isometry"
        assert (f.theta, f.h) == (theta, h)
        return "ok"

    def test_fraction_rows_against_oracle(self):
        """From `Fraction` rows, each row over its own denominator, the
        integer checks give the `Fraction` checks' verdict: a form
        P^T theta P, P^-1 h P for a rational diagonal P is accepted, and
        one entry changed, P made singular or h perturbed is refused."""
        rng = random.Random("autometric-fractions")
        seen = {}
        for _ in range(60):
            f = random_autometric(rng, max_rank=4, bound=5)
            n = f.rank
            p = Matrix([[Fraction(rng.choice([1, -2, 3, 7]),
                                  rng.choice([1, 2, 5, 9, 2**61 - 1]))
                         if i == j else Fraction(0) for j in range(n)]
                        for i in range(n)])
            theta, h = p.transpose() * f.theta * p, p.inverse() * f.h * p
            i, j = rng.randrange(n), rng.randrange(n)
            bump = Matrix([[Fraction(1, 3) * ((a, b) == (i, j))
                            for b in range(n)] for a in range(n)])
            # P with its column k replaced by column l (by 0 when n = 1)
            k, l = rng.sample(range(n), 2) if n > 1 else (0, -1)
            fold = p * frac_matrix([[int(a == (l if b == k else b))
                                     for b in range(n)] for a in range(n)])
            cases = [(theta, h), (theta + bump, h), (theta, h + bump),
                     (fold.transpose() * f.theta * fold, h)]
            for t, g in cases:
                want = self.fraction_verdict(t, g, f.epsilon)
                assert self.verdict(t, g, f.epsilon) == want, (t, g)
                seen[want] = seen.get(want, 0) + 1
        assert set(seen) == {"ok", "symmetric", "singular", "isometry"}
        assert seen["ok"] >= 60 and min(seen.values()) >= 10, seen

    def test_no_matrix_is_eliminated(self, monkeypatch):
        # the form's checks and the covering's run on integer rows: no
        # Matrix is transposed, mapped, ranked or inverted to eliminate it
        f = random_autometric(random.Random(7), max_rank=4)
        for name in ("transpose", "map", "det", "inverse"):
            monkeypatch.setattr(Matrix, name, None)
        g = AutometricForm(f.theta, f.h, f.epsilon)
        assert len(covering_autometric(g).module.basis) == f.rank

    def test_sum_requires_matching_symmetry(self):
        a = AutometricForm([[1]], [[-1]], 1)
        b = AutometricForm([[0, 1], [-1, 0]], [[1, 1], [0, 1]], -1)
        with pytest.raises(ValueError):
            autometric_direct_sum(a, b)


class TestSeifertSubmodule:
    def test_dependent_columns_rejected(self):
        with pytest.raises(ValueError):
            SeifertSubmodule([[1, 2], [1, 2]])
        with pytest.raises(ValueError):
            SeifertSubmodule([[Fraction(1, 2), 1], [1, 2], [0, 0]])

    def test_basis_pair_is_reduced(self):
        sub = SeifertSubmodule([[Fraction(1, 2), 0], [Fraction(1, 3), 1]])
        assert sub.basis_pair == ([[3, 0], [2, 6]], 6)
        assert SeifertSubmodule([]).basis_pair == ([], 1)


# ---------------------------------------------------------------------------
# covering functors
# ---------------------------------------------------------------------------

class TestCoveringSeifert:
    def test_trefoil_covering(self):
        cov = covering_seifert(SeifertForm(TREFOIL, -1, "Z"))
        assert cov.epsilon == 1
        assert [d.ordinary()[0] for d in cov.module.divisors] == [
            [Fraction(1), Fraction(-1), Fraction(1)]]
        assert cov.module.torsion_mode == "P"

    def test_trefoil_multisignature(self):
        cov = covering_seifert(SeifertForm(TREFOIL, -1, "Z"))
        ms = dw_multisignature_laurent(cov)
        entries = ms.entries()
        assert len(entries) == 1
        (key, ridx, level), value = entries[0]
        assert level == 1
        assert value == -2
        lo, hi = ms.theta(key, ridx).theta_interval()
        assert lo < 1.0471975511965976 < hi  # pi/3

    def test_figure_eight_covering(self):
        cov = covering_seifert(SeifertForm(FIG8, -1, "Z"))
        assert [d.ordinary()[0] for d in cov.module.divisors] == [
            [Fraction(1), Fraction(-3), Fraction(1)]]
        assert dw_multisignature_laurent(cov).all_zero

    def test_idempotent_e_gives_zero_module(self):
        # psi = [[0,1],[0,0]] with eps = -1 has e idempotent
        f = SeifertForm([[0, 1], [0, 0]], -1, "Z")
        ident, e = Matrix.identity(2), fraction_matrix(f.e_pair)
        assert e * (ident - e) == Matrix([[0] * 2] * 2)
        assert covering_seifert(f).module.is_zero

    def test_rank_zero(self):
        f = SeifertForm([], -1, "Z")
        assert covering_seifert(f).module.is_zero

    def test_symmetry_flip(self):
        sym = SeifertForm([[1, 1], [0, 1]], 1, "Q")
        assert covering_seifert(sym).epsilon == -1
        skew = SeifertForm(TREFOIL, -1, "Z")
        assert covering_seifert(skew).epsilon == 1

    def test_kernel_iff_near_projection(self):
        rng = random.Random(3)
        hits = {True: 0, False: 0}
        for _ in range(30):
            n = rng.randint(1, 3)
            eps = rng.choice([1, -1])
            psi = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            try:
                f = SeifertForm(psi, eps, "Q")
            except SingularSeifertForm:
                continue
            ident, e = Matrix.identity(n), fraction_matrix(f.e_pair)
            prod = e * (ident - e)
            power = ident
            for _ in range(n):
                power = power * prod
            nilpotent = power == Matrix([[0] * n] * n)
            assert covering_seifert(f).module.is_zero == nilpotent
            hits[nilpotent] += 1
        assert hits[True] and hits[False]


class TestCoveringAutometric:
    def test_rank_one_anchor(self):
        cov = covering_autometric(AutometricForm([[1]], [[-1]], 1))
        assert [d.ordinary()[0] for d in cov.module.divisors] == [
            [Fraction(1), Fraction(1)]]
        assert cov.module.torsion_mode == "Q"
        assert cov.epsilon == -1
        # sign pinned by the round-trip law; the mirror-slot convention
        # would produce the negative class
        expected = QZ.make(
            LaurentPoly({0: Fraction(-1)}), [Fraction(1), Fraction(1)])
        assert qz_pairing(cov)[0, 0] == frac_class(expected)

    def test_identity_monodromy_is_q_torsion_only(self):
        cov = covering_autometric(AutometricForm([[1]], [[1]], 1))
        assert [d.ordinary()[0] for d in cov.module.divisors] == [
            [Fraction(-1), Fraction(1)]]
        pres = Matrix([[LaurentPoly({0: Fraction(-1), 1: Fraction(1)})]])
        with pytest.raises(NotPTorsion):
            decompose_module(pres, "P")

    def test_block_sums_to_direct_sums(self):
        rng = random.Random(11)
        for _ in range(4):
            eps = rng.choice([1, -1])
            f1 = random_autometric(rng, eps, max_rank=2, bound=3)
            f2 = random_autometric(rng, eps, max_rank=2, bound=3)
            c1, c2 = covering_autometric(f1), covering_autometric(f2)
            cs = covering_autometric(autometric_direct_sum(f1, f2))
            merged = elementary_divisor_counts(c1.module)
            for key, cnt in elementary_divisor_counts(c2.module).items():
                merged[key] = merged.get(key, 0) + cnt
            assert elementary_divisor_counts(cs.module) == merged
            assert dw_multisignature_laurent(cs) == \
                dw_multisignature_laurent(laurent_direct_sum(c1, c2))


def _q_z_pairing(f, module, scale):
    """The covering pairing of f by Gauss-Jordan over Q(z):
    g^T (scale * theta * B-bar^-1) g, with B the pencil of f, on the
    generators g_i, the columns of the module's Q-basis that start its
    cyclic blocks."""
    b_bar_inv = qz_inverse(covering_pencil(f).bar().map(QZ.make))
    theta = fraction_matrix(f.theta_pair) if isinstance(f, SeifertForm) \
        else f.theta
    raw = (theta.map(QZ.make) * b_bar_inv).map(lambda x: scale * x)
    starts = [0]
    for d in module.divisors[:-1]:
        starts.append(starts[-1] + len(d.ordinary()[0]) - 1)
    g = Matrix([[row[k] for k in starts]
                for row in module.basis_change.rows]).map(QZ.make)
    changed = g.transpose() * raw * g
    return [[frac_class(x) for x in row] for row in changed.rows]


class TestCoveringAgainstQz:
    def test_autometric_criterion_3_forms(self):
        scale = QZ.make(LaurentPoly({-1: Fraction(-1)}))
        # the first 50 forms of criterion 3's stream; the oracle is slow
        rng = random.Random(301)
        checked = 0
        for _ in range(50):
            f = random_autometric(rng, max_rank=4, bound=5)
            cov = covering_autometric(f)
            if not cov.module.is_zero:
                assert qz_pairing(cov).rows == _q_z_pairing(
                    f, cov.module, scale)
                checked += 1
        assert checked > 40

    def test_non_cyclic_modules(self):
        # f (+) 2f gives a module with two cyclic summands
        auto = QZ.make(LaurentPoly({-1: Fraction(-1)}))
        seif = QZ.make(LaurentPoly({-1: Fraction(1), 0: Fraction(-1)}))
        rng = random.Random(302)
        double = [[2 * x for x in row] for row in TREFOIL]
        summed = seifert_direct_sum(SeifertForm(TREFOIL, -1, "Z"),
                                    SeifertForm(double, -1, "Q"))
        cases = [(covering_seifert(summed), summed, seif)]
        for _ in range(6):
            f = random_autometric(rng, max_rank=2, bound=3)
            f2 = autometric_direct_sum(f, AutometricForm(
                f.theta.map(lambda x: 2 * x), f.h, f.epsilon))
            cases.append((covering_autometric(f2), f2, auto))
        for cov, form, scale in cases:
            assert cov.module.rank > 1
            assert qz_pairing(cov).rows == _q_z_pairing(form, cov.module, scale)

    def test_seifert_random_forms(self):
        scale = QZ.make(LaurentPoly({-1: Fraction(1), 0: Fraction(-1)}))
        rng = random.Random(401)
        checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            psi = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            try:
                f = SeifertForm(psi, rng.choice([1, -1]), "Q")
            except SingularSeifertForm:
                continue
            cov = covering_seifert(f)
            if not cov.module.is_zero:
                assert qz_pairing(cov).rows == _q_z_pairing(
                    f, cov.module, scale)
                checked += 1


# genus-3 ladder knot of seed "scale-3" (bench/workloads.ladder_psi):
# det psi = 0, so part of Q^6 dies in the covering module
SCALE_3 = [[0, 0, 2, 1, -2, 2], [-1, 2, 0, 0, -2, 2], [2, 0, -1, 3, 2, -1],
           [1, 0, 2, 2, -2, 1], [-2, -2, 2, -2, 0, -1], [2, 2, -1, 1, -2, -2]]

# criterion-3 forms (seed-1 roundtrip workload, rank 2 #3 and rank 3 #28)
# whose first basis vector is not cyclic for h
E1_NOT_CYCLIC = [
    ([[0, 2], [-2, 0]], [[-3, Fraction(4, 3)], [0, Fraction(-1, 3)]], -1),
    ([[10, 0, -5], [0, 10, 6], [-5, 6, -6]],
     [[Fraction(-1, 3), Fraction(-361, 40), Fraction(371, 80)],
      [Fraction(-4, 3), Fraction(567, 40), Fraction(-517, 80)],
      [Fraction(-8, 3), Fraction(1047, 20), Fraction(-997, 40)]], 1),
]


MODES = {"Q": [-1], "P": [1, -1]}


def block_coords(num, m):
    """c with `_pairing_entry`'s N equal to num, for monic m: N_k = sum_{j <= k}
    m_(d-k+j) c_j is unit triangular in c, m being monic."""
    d = len(m) - 1
    c = []
    for k in range(d):
        c.append(num[k] - sum(m[d - k + j] * c[j] for j in range(k)))
    return c


def entry_class(pair, m):
    """The class of `_pairing_entry`'s record (N, d), N / (d M*) for M the
    primitive multiple of m, asserting that it is reduced and of degree
    < deg m."""
    (big_n, d), big_m = pair, polys.primitive(m)
    assert d > 0 and gcd(d, *big_n) == 1 and len(big_n) < len(m)
    return QZ.make(LaurentPoly.from_dense([Fraction(c, d) for c in big_n]),
                   big_m[::-1])


class TestPairingEntry:
    """`_pairing_entry`'s record, reduced mod m*, against the entry
    canonicalized by `make` followed by `frac_class`."""

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_random_blocks(self, mode):
        rng = random.Random(f"pairing-{mode}")
        for _ in range(60):
            d = rng.randint(1, 6)
            m = [Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                 for _ in range(d)] + [Fraction(1)]
            if not m[0]:
                m[0] = Fraction(1)
            c = [Fraction(rng.randint(-9, 9), rng.randint(1, 5))
                 for _ in range(d + rng.randint(0, 2))]
            got = seifert._pairing_entry(_integral(c), polys.primitive(m),
                                         MODES[mode])
            assert entry_class(got, m) == pairing_entry_oracle(
                c, m, MODES[mode])

    @pytest.mark.parametrize("mode", sorted(MODES))
    def test_common_factor_with_m_star(self, mode):
        # m = (z - 2)(z^2 + z + 3), m* = (1 - 2z)(3z^2 + z + 1); N = 1 - 2z
        m = [Fraction(-6), Fraction(1), Fraction(-1), Fraction(1)]
        c = block_coords([Fraction(1), Fraction(-2), Fraction(0)], m)
        got = entry_class(seifert._pairing_entry(
            _integral(c), polys.primitive(m), MODES[mode]), m)
        assert got == pairing_entry_oracle(c, m, MODES[mode])
        assert len(got.den) - 1 == 2

    def test_numerators_reducing_to_zero(self):
        # m = (z - 1)(z - 3): (1 - z) (1 - 3z) = m*, a Laurent polynomial
        m = [Fraction(3), Fraction(-4), Fraction(1)]
        c = block_coords([Fraction(5), Fraction(-15)], m)
        for mode, want_zero in (("P", True), ("Q", False)):
            got = seifert._pairing_entry(_integral(c), polys.primitive(m),
                                         MODES[mode])
            assert entry_class(got, m) == pairing_entry_oracle(
                c, m, MODES[mode])
            assert (not got[0]) is want_zero
        for mode in MODES:
            zero = seifert._pairing_entry(([0, 0], 1), polys.primitive(m),
                                           MODES[mode])
            assert zero == ([], 1)
            assert pairing_entry_oracle(
                [Fraction(0)] * 2, m, MODES[mode]) == QZ.zero()


def assert_matches_parent_route(cover, f):
    """The records of cover(f), turned back by `parent_form`, against the
    form of the parent's route, monic `LaurentPoly` divisors and `Fraction`
    numerators over d_j*: equal divisors and every numerator in the same
    class.  Returns the module's rank."""
    got, want = parent_form(cover(f)), parent_covering(cover, f)
    assert got.divisors == want.divisors
    assert qz_pairing(got) == qz_pairing(want)
    return len(got.divisors)


FIXTURE_KNOTS = ["mixed-factors", "scale-6", "scale-7", "scale-7-mirror",
                 "scale-10", "scale-10-mirror", "scale-14", "scale-20"]


class TestRecordsAgainstParentRoute:
    """The covering data on integers, primitive divisors M_j and numerators
    (N, d) read over M_j*, against the parent's route, which made each
    divisor monic and each numerator a `LaurentPoly` over the monic d_j*."""

    @pytest.mark.parametrize("name", FIXTURE_KNOTS)
    def test_fixture_knots(self, name):
        rank = assert_matches_parent_route(covering_seifert,
                                           fixture_seifert(name))
        # K # -K has a module that is not cyclic
        assert rank == 2 if name.endswith("-mirror") else rank >= 1

    def test_criterion_3_forms(self):
        rng = random.Random(301)
        monic = 0
        for _ in range(40):
            f = random_autometric(rng, max_rank=4, bound=5)
            assert_matches_parent_route(covering_autometric, f)
            monic += all(m[-1] == 1 for m in covering_autometric(f)
                         .module.chain)
        # most divisors are not monic on integers, so lc(M_j) is read
        assert monic < 20


def assert_matches_smith(cov, oracle):
    assert cov.module.divisors == oracle.module.divisors
    assert dw_multisignature_laurent(cov) == dw_multisignature_laurent(oracle)


class TestKrylovAgainstSmith:
    """The Krylov covering modules against the Laurent Smith form path on
    modules that are not cyclic, or whose first basis vector is not."""

    def test_autometric_forms(self):
        rng = random.Random(303)
        forms = [AutometricForm(*args) for args in E1_NOT_CYCLIC]
        for f in forms:
            unit = [int(j == 0) for j in range(f.rank)], 1
            # the local minimal polynomial of e_1 is not that of h
            h = _integral_rows(f.h.rows)
            assert len(_krylov(h, h, None, unit)[1]) - 1 < f.rank
        for _ in range(4):
            f = random_autometric(rng, max_rank=2, bound=3)
            forms.append(autometric_direct_sum(f, AutometricForm(
                f.theta.map(lambda x: 2 * x), f.h, f.epsilon)))
            # e_1 is an eigenvector of h, far from a cyclic vector
            small = AutometricForm([[2]], [[-1]], 1) if f.epsilon == 1 \
                else AutometricForm([[0, 1], [-1, 0]],
                                    [[2, 0], [0, Fraction(1, 2)]], -1)
            forms.append(autometric_direct_sum(small, random_autometric(
                rng, f.epsilon, max_rank=3, bound=3)))
        ranks = set()
        for f in forms:
            cov = covering_autometric(f)
            assert_matches_smith(cov, snf_covering_autometric(f))
            assert verify_roundtrip(f)
            ranks.add(cov.module.rank)
        assert max(ranks) > 1

    @pytest.mark.parametrize("case", ["f+2f", "K#K", "scale-3"])
    def test_seifert_forms(self, case):
        trefoil = SeifertForm(TREFOIL, -1, "Z")
        f = {"f+2f": seifert_direct_sum(trefoil, SeifertForm(
                 [[2 * x for x in row] for row in TREFOIL], -1, "Q")),
             "K#K": seifert_direct_sum(trefoil, trefoil),
             "scale-3": SeifertForm(SCALE_3, -1, "Z")}[case]
        cov = covering_seifert(f)
        assert_matches_smith(cov, snf_covering_seifert(f))
        if case == "scale-3":
            assert f.psi.det() == 0
            assert 0 < module_dimension_q(cov.module) < f.rank
        else:
            assert cov.module.rank == 2
        fsum = seifert_direct_sum(f, seifert_negate(f))
        cov_sum = covering_seifert(fsum)
        assert_matches_smith(cov_sum, snf_covering_seifert(fsum))
        for sub in hyperbolic_witness_sum(f):
            image = covering_submodule_image(fsum, cov_sum, sub)
            assert is_lagrangian_submodule(cov_sum, image)


def assert_matches_parent_chain(cover, f):
    """The covering form of f, its module built from integer generators,
    equals the one built by row-reducing h's Krylov vectors over Q: equal
    divisors, basis change and numerators.  Returns the module's rank."""
    got = cover(f)
    with parent_frobenius():
        want = cover(f)
    assert got.module == want.module
    assert got.module.basis_change == want.module.basis_change
    assert got.num == want.num
    return got.module.rank


def fixture_seifert(name):
    doc = json.loads((Path(__file__).parent / "fixtures"
                      / f"{name}.json").read_text())
    return SeifertForm(doc["psi"], doc["epsilon"], "Z")


def reduction_ladder_forms():
    """"scale-3" and three seed-14 ladder forms of each genus 1-6.  psi +
    psi^T of a ladder knot is rarely unimodular past genus 2, so the
    epsilon = +1 forms are taken over Q; this seed draws two forms with
    0 < dim R < rank besides "scale-3"."""
    rng = random.Random(14)
    forms = [SeifertForm(SCALE_3, -1, "Z")]
    for genus in range(1, 7):
        for eps, coefficients in ((-1, "Z"), (-1, "Q"), (1, "Q")):
            while True:
                try:
                    forms.append(SeifertForm(ladder_psi(rng, genus), eps,
                                             coefficients))
                except SingularSeifertForm:
                    continue
                break
    return forms


class TestKrylovAgainstParentChain:
    """`_frobenius` reads every local minimal polynomial off an integer
    generator, d h or d e|R, and never row-reduces h's Krylov vectors; the
    decomposition that did is `elimination_oracle.frobenius`."""

    def test_krylov_against_smith_inputs(self):
        rng = random.Random(303)
        forms = [AutometricForm(*args) for args in E1_NOT_CYCLIC]
        for _ in range(4):
            f = random_autometric(rng, max_rank=2, bound=3)
            forms.append(autometric_direct_sum(f, AutometricForm(
                f.theta.map(lambda x: 2 * x), f.h, f.epsilon)))
        ranks = [assert_matches_parent_chain(covering_autometric, f)
                 for f in forms]
        trefoil = SeifertForm(TREFOIL, -1, "Z")
        for f in (seifert_direct_sum(trefoil, SeifertForm(
                      [[2 * x for x in row] for row in TREFOIL], -1, "Q")),
                  seifert_direct_sum(trefoil, trefoil),
                  SeifertForm(SCALE_3, -1, "Z")):
            for g in (f, seifert_direct_sum(f, seifert_negate(f))):
                ranks.append(assert_matches_parent_chain(covering_seifert, g))
        assert max(ranks) > 1

    def test_criterion_3_forms(self):
        # the first 30 forms of criterion 3's stream, and f (+) f for the
        # first 10, whose modules are not cyclic
        rng = random.Random(301)
        for k in range(30):
            f = random_autometric(rng, max_rank=4, bound=5)
            assert_matches_parent_chain(covering_autometric, f)
            if k < 10:
                assert assert_matches_parent_chain(
                    covering_autometric, autometric_direct_sum(f, f)) >= 2

    def test_proper_nonsingular_part(self):
        # 0 < dim R < rank for "scale-3" and at least two ladder forms
        proper = 0
        for f in reduction_ladder_forms():
            dim = module_dimension_q(covering_seifert(f).module)
            assert_matches_parent_chain(covering_seifert, f)
            proper += 0 < dim < f.rank
        assert proper >= 3

    def test_ladder_knots_of_genus_2_to_10(self):
        rng = random.Random(16)
        for genus in range(2, 11):
            f = SeifertForm(ladder_psi(rng, genus), -1, "Z")
            assert_matches_parent_chain(covering_seifert, f)

    def test_knot_sums(self):
        # K # K and K # -K of ladder knots of genus 2-4: K # -K has a
        # non-cyclic module, which runs `_frobenius`'s projection
        rng = random.Random(17)
        for genus in (2, 3, 4):
            f = SeifertForm(ladder_psi(rng, genus), -1, "Z")
            for g in (seifert_direct_sum(f, f),
                      seifert_direct_sum(f, seifert_negate(f))):
                rank = assert_matches_parent_chain(covering_seifert, g)
                assert rank >= 2 or covering_seifert(f).module.is_zero

    @pytest.mark.parametrize("name", ["scale-7-mirror", "scale-10-mirror"])
    def test_mirror_sum_fixtures(self, name):
        # K # -K of the genus-7 and genus-10 ladder knots (ranks 28 and
        # 40): two blocks, one projection onto a complement; the chain that
        # row-reduces h's vectors takes most of this test's time
        f = fixture_seifert(name)
        assert assert_matches_parent_chain(covering_seifert, f) == 2

    def test_three_blocks(self):
        # f (+) f (+) f has three equal divisors, so `_frobenius` projects
        # twice: autometric forms (Q mode), and Seifert forms (P mode) with
        # blocks of degree 1 (z + 1) and with 0 < dim R < rank ("scale-3")
        rng = random.Random(301)
        for _ in range(4):
            f = random_autometric(rng, max_rank=4, bound=5)
            assert assert_matches_parent_chain(covering_autometric,
                autometric_direct_sum(autometric_direct_sum(f, f), f)) == 3
        for f in (SeifertForm([[1]], 1, "Q"), SeifertForm(SCALE_3, -1, "Z")):
            assert assert_matches_parent_chain(
                covering_seifert,
                seifert_direct_sum(seifert_direct_sum(f, f), f)) == 3

    def test_random_generators(self):
        # h = p m p^-1 with m two or three equal companion blocks, and
        # e|R = (c - h)^-1 for c = 1, 2 or -1: complements that the
        # covering forms above do not tell apart from other complements
        rng = random.Random(29)
        for _ in range(30):
            mu = [rng.choice([-3, -2, -1, 1, 2, 3])] + [
                rng.randint(-3, 3) for _ in range(rng.randint(0, 2))] + [1]
            d = len(mu) - 1
            block = Matrix.from_ints([[int(i == j + 1) if j < d - 1
                                       else -mu[i] for j in range(d)]
                                      for i in range(d)])
            m = Matrix.block_diag([block] * rng.randint(2, 3))
            while (p := Matrix.from_ints([[rng.randint(-2, 2) for _ in m.rows]
                                          for _ in m.rows])).det() == 0:
                pass
            h, c = p * m * p.inverse(), rng.choice([1, 2, -1])
            ident = Matrix.identity(h.nrows)
            if (ident.scale(c) - h).det() == 0:
                continue
            want = pair_blocks(frobenius(h.rows))
            e_r = integer_pair((ident.scale(c) - h).inverse())
            for gen in (None, e_r):
                assert laurent_forms._frobenius(
                    integer_pair(h), gen, c) == want

    def test_merge_with_rational_local_minimal_polynomials(self):
        # companion blocks of p q and p^2, p = z - a, q = z - b, on e_1, e_2
        # and e_3, e_4, in either order: e_1 and e_3 merge into
        # keep(h) e_1 + cut(h) e_3 with one of keep, cut equal to p, monic
        # over Q, whose primitive multiple would give another generator
        rng = random.Random(35)
        for _ in range(12):
            a, b = (Fraction(rng.choice([-1, 1]) * rng.randint(1, 9),
                             rng.randint(2, 7)) for _ in range(2))
            if a == b:
                continue
            pq, p2 = [a * b, -a - b, 1], [a * a, -2 * a, 1]
            blocks = [Matrix([[0, -m[0]], [1, -m[1]]]) for m in (pq, p2)]
            for order in (blocks, blocks[::-1]):
                h = Matrix.block_diag(order)
                want = pair_blocks(frobenius(h.rows))
                assert [mu for _, mu in want] == [
                    polys.primitive([-a, 1]),
                    polys.primitive(qpolys.mul(pq, [-a, 1]))]
                for c in (1, 2, -1):
                    ident = Matrix.identity(4)
                    if (ident.scale(c) - h).det() == 0:
                        continue
                    e_r = integer_pair((ident.scale(c) - h).inverse())
                    for gen in (None, e_r):
                        assert laurent_forms._frobenius(
                            integer_pair(h), gen, c) == want

    def test_krylov_calls_on_mirror_sum(self, monkeypatch):
        # a spanning vector killed by mu(h) costs no Krylov sequence: on
        # genus-10 K # -K one sequence per block, where one per spanning
        # vector would make 41
        calls, krylov = [], laurent_forms._krylov
        monkeypatch.setattr(laurent_forms, "_krylov",
                            lambda *args: calls.append(args) or krylov(*args))
        assert covering_seifert(fixture_seifert("scale-10-mirror")) \
            .module.rank == len(calls) == 2

    def test_scrambled_mirror_sum(self):
        # K # -K of the genus-6 ladder knot in a unimodular basis: the
        # first block no longer lies in one half
        f = fixture_seifert("scale-6-scrambled")
        assert assert_matches_parent_chain(covering_seifert, f) == 2


def failed_covectors(monkeypatch) -> list:
    """The covectors `_frobenius` turns down, one entry per singular T."""
    failed, solve = [], laurent_forms.matrix._solve

    def counting(a, b):
        try:
            return solve(a, b)
        except SingularMatrix:
            failed.append(a)
            raise

    monkeypatch.setattr(laurent_forms.matrix, "_solve", counting)
    return failed


class TestCovector:
    """`_frobenius` cuts each complement with the first covector
    phi = (1, k, ..., k^(n-1)) whose T = Phi U^T is nonsingular."""

    @pytest.mark.parametrize("c", [1, -1, 4])
    def test_first_unit_covector_fails(self, c, monkeypatch):
        # h = diag(2, 3, 3): the block C = <w> holds e_1 and an eigenvector
        # of 3, on which e_1 vanishes, a non-unit; (1, 1, 1) cuts
        h = Matrix.from_ints([[2, 0, 0], [0, 3, 0], [0, 0, 3]])
        want = pair_blocks(frobenius(h.rows))
        ident = Matrix.identity(3)
        e_r = integer_pair((ident.scale(c) - h).inverse())
        failed = failed_covectors(monkeypatch)
        for gen in (None, e_r):
            assert laurent_forms._frobenius(integer_pair(h), gen, c) == want
        # e_1 fails once for each generator
        assert len(failed) == 2

    def test_no_covector_raises(self, monkeypatch):
        # the loop is bounded: (n - 1) D + 1 = 5 covectors for the first
        # block, of degree 2, then a typed error
        calls = []

        def singular(a, b):
            calls.append(a)
            raise SingularMatrix("matrix is singular")

        monkeypatch.setattr(laurent_forms.matrix, "_solve", singular)
        h = integer_pair(Matrix.from_ints([[2, 0, 0], [0, 3, 0], [0, 0, 3]]))
        with pytest.raises(InvariantViolated, match="no covector"):
            laurent_forms._frobenius(h)
        assert len(calls) == 5


def assert_matches_oblique(cover, f):
    """The covering form of f against the one whose complements came from
    the oblique projection `_frobenius` took before the covector: another
    basis of the same module, so equal chains and multisignatures."""
    got = cover(f)
    with parent_frobenius(oblique=True):
        want = cover(f)
    assert got.module.chain == want.module.chain
    assert dw_multisignature_laurent(got) == dw_multisignature_laurent(want)
    return got.module.rank


class TestCovectorAgainstOblique:
    """Complements cut out by a small covector against the oblique
    projection phi = t^T (U U^T)^-1 U they replaced: chains, multisignatures
    and whole reports agree; only the basis and the numerators move."""

    def test_autometric_and_seifert_sums(self):
        rng = random.Random(301)
        ranks = []
        for _ in range(6):
            f = random_autometric(rng, max_rank=4, bound=5)
            for g in (autometric_direct_sum(f, f), autometric_direct_sum(
                    autometric_direct_sum(f, f), f)):
                ranks.append(assert_matches_oblique(covering_autometric, g))
        trefoil = SeifertForm(TREFOIL, -1, "Z")
        for f in (seifert_direct_sum(trefoil, SeifertForm(
                      [[2 * x for x in row] for row in TREFOIL], -1, "Q")),
                  SeifertForm(SCALE_3, -1, "Z")):
            for g in (f, seifert_direct_sum(f, seifert_negate(f))):
                ranks.append(assert_matches_oblique(covering_seifert, g))
        assert max(ranks) >= 3

    @staticmethod
    def assert_same_report(psi):
        got = report_to_json(analyze(KnotInput("k", psi, -1)))
        with parent_frobenius(oblique=True):
            assert report_to_json(analyze(KnotInput("k", psi, -1))) == got

    @pytest.mark.parametrize("name", ["scale-6-scrambled", "scale-7-mirror"])
    def test_fixture_reports(self, name):
        self.assert_same_report(fixture_seifert(name).psi.rows)

    def test_knot_sums(self):
        # K # K and K # -K of ladder knots of genus 2-4
        rng = random.Random(47)
        for genus in (2, 3, 4):
            k = KnotInput("k", ladder_psi(rng, genus), -1)
            for s in (connected_sum(k, k), connected_sum(k, knot_inverse(k))):
                self.assert_same_report(s.psi.rows)


class TestCoveringSeifertFunctoriality:
    def test_block_sums_to_direct_sums(self):
        rng = random.Random(17)
        done = 0
        while done < 4:
            eps = rng.choice([1, -1])
            psi1 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            psi2 = [[rng.randint(-3, 3) for _ in range(2)] for _ in range(2)]
            try:
                f1 = SeifertForm(psi1, eps, "Q")
                f2 = SeifertForm(psi2, eps, "Q")
            except SingularSeifertForm:
                continue
            c1, c2 = covering_seifert(f1), covering_seifert(f2)
            cs = covering_seifert(seifert_direct_sum(f1, f2))
            merged = elementary_divisor_counts(c1.module)
            for key, cnt in elementary_divisor_counts(c2.module).items():
                merged[key] = merged.get(key, 0) + cnt
            assert elementary_divisor_counts(cs.module) == merged
            assert dw_multisignature_laurent(cs) == \
                dw_multisignature_laurent(laurent_direct_sum(c1, c2))
            done += 1


# ---------------------------------------------------------------------------
# monodromy and the round trip
# ---------------------------------------------------------------------------

class TestMonodromy:
    def test_rank_one_recovery(self):
        f = AutometricForm([[1]], [[-1]], 1)
        mono = monodromy(covering_autometric(f))
        assert mono.h == frac_matrix([[-1]])
        assert mono.theta == frac_matrix([[1]])
        assert mono.epsilon == 1

    def test_companion_charpoly(self):
        # module Q[z,z^-1]/((z-2)(z-1/2)) with the symmetric pairing z/d
        d = LaurentPoly.from_dense([Fraction(1), Fraction(-5, 2), Fraction(1)])
        module = decompose_module(Matrix([[d]]), "Q")
        pairing = [[QZ.make(LaurentPoly.z(), d.ordinary()[0])]]
        form = form_from_qz(module, pairing, 1)
        validate_over_qz(form)
        mono = TestMonodromyAgainstOracle.assert_same(form)
        assert mono.h.charpoly() == [Fraction(1), Fraction(-5, 2), Fraction(1)]
        assert mono.epsilon == -1
        # the chain's M = [2, -5, 2] puts h' over d_h = 2
        assert module.chain == [[2, -5, 2]]
        assert mono.h_pair == ([[0, -2], [2, 5]], 2)

    def test_direct_sum_gives_block_sum(self):
        rng = random.Random(5)
        eps = 1
        f1 = random_autometric(rng, eps, max_rank=2, bound=3)
        f2 = random_autometric(rng, eps, max_rank=2, bound=3)
        fs = autometric_direct_sum(f1, f2)
        mono = monodromy(covering_autometric(fs))
        want = [Fraction(1)]
        for part in (f1, f2):
            cp = part.h.charpoly()
            prod = [Fraction(0)] * (len(want) + len(cp) - 1)
            for i, a in enumerate(want):
                for j, b in enumerate(cp):
                    prod[i + j] += a * b
            want = prod
        got = mono.h.charpoly()
        # normalize leading coefficients before comparing
        assert [c / got[-1] for c in got] == [c / want[-1] for c in want]


class TestMonodromyAgainstOracle:
    """`monodromy` builds theta' and h' as integer pairs from `series_ints`;
    `monodromy_oracle` is the `Fraction` route it replaced.  Both must give
    the same pairs, views and rank, and refuse a corrupted covering with
    the same typed error and message."""

    @staticmethod
    def assert_same(cov):
        got, want = monodromy(cov), monodromy_oracle(cov)
        assert got.theta_pair == want.theta_pair
        assert got.h_pair == want.h_pair
        assert got.theta == want.theta and got.h == want.h
        assert got.rank == want.rank == module_dimension_q(cov.module)
        assert got == want and got.epsilon == want.epsilon
        return got

    def test_seeded_forms_of_ranks_0_to_8(self):
        rng = random.Random("monodromy-oracle")
        seen, scaled = set(), 0
        for n in range(9):
            # an odd skew-symmetric theta is always singular
            for eps in (1, -1) if n % 2 == 0 else (1,):
                for _ in range(3 if n < 6 else 1):
                    f, _ = TestRoundTrip.autometric_of_rank(rng, n, eps)
                    mono = self.assert_same(covering_autometric(f))
                    seen.add((f.rank, mono.epsilon))
                    scaled += mono.h_pair[1] > 1
        assert seen == {(n, e) for n in range(9) for e in (1, -1)
                        if n % 2 == 0 or e == 1}
        # chains whose leading coefficient is not 1 put h' over d_h > 1
        assert scaled > 10

    def test_non_cyclic_modules(self):
        # f (+) f doubles every divisor; f (+) g, g = (2 theta, h), shares
        # all of f's factors with a theta that differs; s (+) s (+) k, for
        # a small s whose divisor k rarely has, gives blocks of unequal
        # degrees, where a block's rows and columns start apart
        rng = random.Random("monodromy-non-cyclic")
        blocks = scaled = unequal = 0
        for _ in range(12):
            f = random_autometric(rng, max_rank=4)
            g = AutometricForm(f.theta.map(lambda x: 2 * x), f.h, f.epsilon)
            small = AutometricForm([[2]], [[-1]], 1) if f.epsilon == 1 \
                else AutometricForm([[0, 1], [-1, 0]],
                                    [[2, 0], [0, Fraction(1, 2)]], -1)
            k = random_autometric(rng, f.epsilon, max_rank=3, bound=3)
            for form in (autometric_direct_sum(f, f),
                         autometric_direct_sum(f, g),
                         autometric_direct_sum(small, autometric_direct_sum(
                             small, k))):
                cov = covering_autometric(form)
                assert cov.module.rank >= 2
                blocks += cov.module.rank
                unequal += len({len(m) for m in cov.module.chain}) > 1
                scaled += self.assert_same(cov).h_pair[1] > 1
        assert blocks >= 72 and scaled > 5 and unequal > 5

    def test_corrupted_coverings_refused_alike(self):
        # a numerator bumped, all numerators zero, epsilon flipped, and a
        # chain divisor with its constant term zeroed, raised by one or its
        # leading coefficient doubled: each reaches a different check
        rng = random.Random("monodromy-corrupted")
        outcomes = set()

        def outcome(run, cov):
            try:
                mono = run(cov)
            except (ValueError, SingularAutometricForm,
                    NotInvertibleInNovikov) as err:
                return type(err), str(err)
            return mono.theta_pair, mono.h_pair

        for _ in range(20):
            f = random_autometric(rng, max_rank=3)
            for form in (f, autometric_direct_sum(f, f)):
                cov = covering_autometric(form)
                i, j = (rng.randrange(cov.module.rank) for _ in range(2))
                num = [list(row) for row in cov.num]
                n, d = num[i][j]
                num[i][j] = ([c + 1 for c in n] or [1], d)
                k = rng.randrange(cov.module.rank)
                m = cov.module.chain[k]
                zero = [[([], 1)] * len(row) for row in cov.num]
                bad = [LaurentLinkingForm(cov.module, num, cov.epsilon),
                       LaurentLinkingForm(cov.module, zero, cov.epsilon),
                       LaurentLinkingForm(cov.module, cov.num, -cov.epsilon)]
                for chain_k in ([0] + m[1:], [m[0] + 1] + m[1:],
                                m[:-1] + [2 * m[-1]]):
                    chain = cov.module.chain[:k] + [chain_k] \
                        + cov.module.chain[k + 1:]
                    bad.append(LaurentLinkingForm(LaurentModule(
                        chain, cov.module.basis, cov.module.torsion_mode),
                        cov.num, cov.epsilon))
                for c in bad:
                    got = outcome(monodromy, c)
                    assert got == outcome(monodromy_oracle, c)
                    if isinstance(got[0], type):
                        outcomes.add(got)
        assert {(SingularAutometricForm, "theta is singular"),
                (ValueError, "theta is not eps-symmetric"),
                (ValueError, "h does not preserve theta")} <= outcomes
        assert any(kind is NotInvertibleInNovikov for kind, _ in outcomes)

    def test_bad_epsilon_refused_first(self):
        # before the shape, the entries and the checks: neither matrix is
        # read, so an unreadable one does not mask the epsilon error
        for theta, h in (([[1]], [[1]]), ([[1, 2]], [[1]]),
                         ([["x"]], None)):
            for eps in (0, 2, -2):
                with pytest.raises(ValueError, match="epsilon"):
                    AutometricForm(theta, h, eps)


def ladder_psi(rng, genus, bound=2):
    """The genus-ladder recipe of the benchmark: a standard symplectic
    upper part plus a random symmetric matrix."""
    n = 2 * genus
    psi = [[int(j == i + 1 and i % 2 == 0) for j in range(n)]
           for i in range(n)]
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-bound, bound)
            psi[i][j] += s
            if i != j:
                psi[j][i] += s
    return psi


class TestCoveringCertificate:
    """Covering forms are certified over Q and built unchecked; the full
    check over Q(z), the oracle `validate_over_qz`, must pass on every one
    of them, on cyclic and on non-cyclic covering modules."""

    def test_autometric_coverings_pass_full_validation(self):
        rng = random.Random(301)
        ranks = set()
        for _ in range(40):
            f = random_autometric(rng, max_rank=6, bound=5)
            validate_over_qz(covering_autometric(f))
            ranks.add(f.rank)
        assert ranks == set(range(1, 7))

    def test_ladder_coverings_pass_full_validation(self):
        # psi - psi^T is unimodular; psi + psi^T rarely is, so the
        # epsilon = +1 forms are taken over Q
        rng = random.Random(12)
        checked = 0
        for genus in range(1, 7):
            for eps, coefficients in ((-1, "Z"), (1, "Q")):
                while True:
                    try:
                        f = SeifertForm(ladder_psi(rng, genus), eps,
                                        coefficients)
                    except SingularSeifertForm:
                        continue
                    break
                cov = covering_seifert(f)
                validate_over_qz(cov)
                checked += not cov.module.is_zero
        assert checked >= 10

    def test_non_cyclic_autometric_coverings_pass_full_validation(self):
        # f (+) f doubles every divisor of f's module, so the covering
        # module of the sum has at least two
        rng = random.Random(302)
        ranks = set()
        for _ in range(20):
            f = random_autometric(rng, max_rank=3, bound=5)
            cov = covering_autometric(autometric_direct_sum(f, f))
            assert cov.module.rank >= 2
            validate_over_qz(cov)
            ranks.add(f.rank)
        assert ranks == {1, 2, 3}

    def test_non_cyclic_ladder_coverings_pass_full_validation(self):
        rng = random.Random(13)
        for genus in (2, 3):
            while True:
                f = SeifertForm(ladder_psi(rng, genus), -1, "Z")
                if not covering_seifert(f).module.is_zero:
                    break
            for g in (seifert_direct_sum(f, f),
                      seifert_direct_sum(f, seifert_negate(f))):
                cov = covering_seifert(g)
                assert cov.module.rank >= 2
                validate_over_qz(cov)

    def test_alexander_polynomial_builds_no_pairing(self, monkeypatch):
        k = KnotInput("scale-3", SCALE_3, -1)
        want = alexander_polynomial(k)

        def refuse(*args):
            raise AssertionError("the pairing was built")

        monkeypatch.setattr(seifert, "_covering_form", refuse)
        assert alexander_polynomial(k) == want


def assert_matches_qz(form):
    """`auxiliary_hermitian`'s grams from the numerators against the Q(z)
    products p^l cof_i bar(cof_j) lambda_ij over the `Fraction` residue
    field, and `monodromy`'s theta
    against the expansions of the canonical entries; returns the number of
    (factor, level) grams compared."""
    assert monodromy(form).theta == qz_monodromy_theta(form)
    compared = 0
    for p, _ in as_laurent(form.module.factors):
        if is_self_conjugate(p) is None:
            continue
        g = polys.primitive(p.ordinary()[0])
        for level in level_multiplicities(form.module, g):
            aux = auxiliary_hermitian(form, g, level)
            want = qz_auxiliary_gram(form, p, level)
            if aux.unit is not None:
                ubar = as_oracle(aux.unit).bar()
                want = want.map(lambda x: ubar * x)
            assert as_oracle_matrix(aux.gram) == want
            compared += 1
    return compared


class TestNumeratorsAgainstQz:
    """A covering form stores numerators over the conjugate divisors; the
    level forms and the monodromy read them with no Q(z) arithmetic.  Both
    must agree with the routes over Q(z) they replaced."""

    def test_autometric_criterion_3_forms(self):
        rng = random.Random(301)
        compared = 0
        for _ in range(50):
            compared += assert_matches_qz(covering_autometric(
                random_autometric(rng, max_rank=4, bound=5)))
        assert compared > 30

    def test_seifert_random_forms(self):
        rng = random.Random(401)
        compared = checked = 0
        while checked < 25:
            n = rng.randint(1, 4)
            psi = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
            try:
                f = SeifertForm(psi, rng.choice([1, -1]), "Q")
            except SingularSeifertForm:
                continue
            compared += assert_matches_qz(covering_seifert(f))
            checked += 1
        assert compared > 10

    def test_non_cyclic_modules(self):
        rng = random.Random(302)
        double = [[2 * x for x in row] for row in TREFOIL]
        forms = [covering_seifert(seifert_direct_sum(
            SeifertForm(TREFOIL, -1, "Z"), SeifertForm(double, -1, "Q")))]
        for _ in range(6):
            f = random_autometric(rng, max_rank=2, bound=3)
            forms.append(covering_autometric(autometric_direct_sum(
                f, AutometricForm(f.theta.map(lambda x: 2 * x), f.h,
                                  f.epsilon))))
        for cov in forms:
            assert cov.module.rank > 1
            assert_matches_qz(cov)

    def test_knot_sums(self):
        # K # K and K # -K for the trefoil, the figure eight and ladder
        # knots of genus 2 and 3
        rng = random.Random(14)
        knots = [SeifertForm(TREFOIL, -1, "Z"), SeifertForm(FIG8, -1, "Z")]
        knots += [SeifertForm(ladder_psi(rng, genus), -1, "Z")
                  for genus in (2, 3)]
        compared = 0
        for f in knots:
            for g in (seifert_direct_sum(f, f),
                      seifert_direct_sum(f, seifert_negate(f))):
                cov = covering_seifert(g)
                assert cov.module.rank >= 2 or cov.module.is_zero
                compared += assert_matches_qz(cov)
        assert compared >= 6

    def test_ladder_knots_of_genus_1_to_10(self):
        rng = random.Random(15)
        compared = 0
        for genus in range(1, 11):
            f = SeifertForm(ladder_psi(rng, genus), -1, "Z")
            compared += assert_matches_qz(covering_seifert(f))
        assert compared >= 10


class TestCertificateMutations:
    """A covering built from a corrupted theta or h must fail the Q-side
    check with InvariantViolated (exit code 3), also under python -O.  The
    covering reads the integer pairs a form keeps, so those are what the
    mutations corrupt."""

    @staticmethod
    def _autometric():
        return AutometricForm([[1, 0], [0, -2]], [[3, 4], [2, 3]], 1)

    def test_asymmetric_theta(self):
        f = self._autometric()
        f.theta_pair = integer_pair(fraction_matrix(f.theta_pair)
                                    + frac_matrix([[0, 1], [0, 0]]))
        with pytest.raises(InvariantViolated, match="symmetric"):
            covering_autometric(f)

    def test_singular_theta(self):
        f = self._autometric()
        f.theta_pair = integer_pair(frac_matrix([[1, 1], [1, 1]]))
        with pytest.raises(InvariantViolated, match="singular"):
            covering_autometric(f)

    def test_h_not_an_isometry(self):
        f = self._autometric()
        f.h_pair = integer_pair(fraction_matrix(f.h_pair).scale(2))
        with pytest.raises(InvariantViolated, match="isometry"):
            covering_autometric(f)

    def test_seifert_theta_not_symmetric(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        f.theta_pair = integer_pair(fraction_matrix(f.theta_pair)
                                    + frac_matrix([[1, 0], [0, 0]]))
        with pytest.raises(InvariantViolated, match="symmetric"):
            covering_seifert(f)

    @staticmethod
    def _corrupt_reduction(monkeypatch, part):
        """Make `_pencil_reduction` hand the covering a singular theta|R
        (R's basis collapsed), an h that is not 1 - (e|R)^-1 (H or d_h
        doubled alone), an e|R with E doubled alone, or, for "common",
        every pair with a common factor 2 in numerator and denominator."""
        reduce = seifert._pencil_reduction

        def double(pair, num=2, den=1):
            return [[num * x for x in r] for r in pair[0]], den * pair[1]

        def corrupted(e, c=1):
            b, h, e_r = reduce(double(e, 2, 2) if part == "common" else e, c)
            if part == "theta":
                rows = integer_pair(Matrix.identity(len(h[0])))[0] \
                    if b is None else b[0]
                b = [[row[0]] * len(row) for row in rows], 1
            elif part == "e_r":
                e_r = double(e_r)
            elif part == "h":
                h = double(h)
            elif part == "d_h":
                h = double(h, 1, 2)
            elif part == "common":
                h, e_r = double(h, 2, 2), double(e_r, 2, 2)
            return b, h, e_r

        monkeypatch.setattr(seifert, "_pencil_reduction", corrupted)

    @pytest.mark.parametrize("part, message", [
        ("theta", "singular"), ("h", "isometry"), ("d_h", "isometry")])
    def test_corrupted_reduction(self, monkeypatch, part, message):
        self._corrupt_reduction(monkeypatch, part)
        with pytest.raises(InvariantViolated, match=message):
            covering_seifert(SeifertForm(TREFOIL, -1, "Z"))

    @pytest.mark.parametrize("part", ["theta", "h", "d_h"])
    def test_analyze_exits_3(self, monkeypatch, capsys, part):
        self._corrupt_reduction(monkeypatch, part)
        assert cli.main(["analyze", "--catalog", "trefoil"]) == 3
        assert "covering theta" in capsys.readouterr().err

    def test_generator_disagreeing_with_h(self, monkeypatch, capsys):
        # e|R generates h's Krylov sequences in P mode; a theta and an h
        # that pass every other check must not hide an e|R that is not
        # (1 - h)^-1
        self._corrupt_reduction(monkeypatch, "e_r")
        with pytest.raises(InvariantViolated, match=r"c - \(e\|R\)\^-1"):
            covering_seifert(SeifertForm(TREFOIL, -1, "Z"))
        assert cli.main(["analyze", "--catalog", "trefoil"]) == 3
        assert "h is not c - (e|R)^-1" in capsys.readouterr().err

    @pytest.mark.parametrize("knot", [
        "trefoil", "figure-eight", "granny", "trefoil-inverse-sum"])
    def test_common_factor_gives_the_same_report(self, monkeypatch, capsys,
                                                 knot):
        # a pair need not be in lowest terms: (2E, 2d), (2H, 2d_h) and
        # (2E_R, 2d_e) stand for the same matrices
        assert cli.main(["analyze", "--catalog", knot]) == 0
        want = capsys.readouterr().out
        self._corrupt_reduction(monkeypatch, "common")
        assert cli.main(["analyze", "--catalog", knot]) == 0
        assert capsys.readouterr().out == want


class TestReductionIdentities:
    """The identities that `_covering_form`'s one isometry check replaced,
    as an oracle on `_pencil_reduction`: e b = b e|R, the linear identity
    e|R^T theta|R = theta|R (1 - e|R) and (1 - h) e|R = 1, with the e|R it
    returns equal to e|R rebuilt from b and the Fitting power."""

    def test_ladder_forms(self):
        proper = 0
        for f in reduction_ladder_forms():
            b, h, e_r = _pencil_reduction(f.e_pair)
            if not h[0]:
                continue
            h, e_r = fraction_matrix(h), fraction_matrix(e_r)
            b = Matrix.identity(f.rank) if b is None else fraction_matrix(b)
            assert e_r == restricted_e(f, b)
            theta = b.transpose() * fraction_matrix(f.theta_pair) * b
            ident = Matrix.identity(h.nrows)
            assert fraction_matrix(f.e_pair) * b == b * e_r
            assert e_r.transpose() * theta == theta * (ident - e_r)
            assert (ident - h) * e_r == ident
            assert h.transpose() * theta * h == theta
            proper += h.nrows < f.rank
        assert proper >= 3


def assert_reduction_matches_oracle(e, c=1):
    """`_pencil_reduction` on the integer pair e against the `Fraction`
    reduction it replaced: the same basis b of R (None standing for the
    identity), h and e|R, with positive denominators; returns dim R."""
    b, h, e_r = _pencil_reduction(e, c)
    want_b, want_h, want_e_r = pencil_reduction(fraction_matrix(e), c)
    if not want_h.rows:
        assert (b is None or b[0] == []) and h[0] == e_r[0] == []
        return 0
    assert h[1] > 0 and e_r[1] > 0
    assert (Matrix.identity(len(e[0])) if b is None
            else fraction_matrix(b)) == want_b
    assert fraction_matrix(h) == want_h
    assert fraction_matrix(e_r) == want_e_r
    return want_h.nrows


def certificate_outcome(run):
    try:
        run()
    except InvariantViolated as err:
        return str(err)
    return None


def corruptions(h, e_r):
    """(h, e|R) as given, with H doubled, with d_h doubled and with E
    doubled, each alone."""
    (big_h, d_h), (big_e, d_e) = h, e_r
    twice = [[2 * x for x in r] for r in big_h]
    return [(h, e_r), ((twice, d_h), e_r), ((big_h, 2 * d_h), e_r),
            (h, ([[2 * x for x in r] for r in big_e], d_e))]


@pytest.fixture
def recorded_reductions(monkeypatch):
    """Every (e, c) that `decompose_module` hands `_pencil_reduction`."""
    calls, reduce = [], laurent_forms._pencil_reduction

    def recording(e, c=1):
        calls.append((e, c))
        return reduce(e, c)

    monkeypatch.setattr(laurent_forms, "_pencil_reduction", recording)
    return calls


class TestReductionAgainstOracle:
    """The integer pairs of `SeifertForm`, `_pencil_reduction`, the
    covering certificates and `AutometricForm` against the `Fraction`
    matrices and checks they replaced (`elimination_oracle`)."""

    def test_ladder_forms(self):
        proper = 0
        for f in reduction_ladder_forms():
            theta = f.psi + f.psi.transpose().scale(f.epsilon)
            e = qz_inverse(theta) * f.psi
            assert f.theta_pair == integer_pair(theta)
            assert f.e_pair == integer_pair(e) and f.e_pair[1] > 0
            dim = assert_reduction_matches_oracle(f.e_pair)
            proper += 0 < dim < f.rank
        assert proper >= 3

    def test_ladder_certificates(self):
        # each corruption fails the integer checks of `_covering_form` and
        # `_frobenius` exactly where it fails the Fraction checks
        failed = set()
        for f in reduction_ladder_forms():
            b, h, e_r = _pencil_reduction(f.e_pair)
            if not h[0]:
                continue
            theta = fraction_matrix(f.theta_pair)
            if b is not None:
                theta = fraction_matrix(b).transpose() * theta * \
                    fraction_matrix(b)
            for bad_h, bad_e_r in corruptions(h, e_r):
                got = certificate_outcome(lambda: seifert._covering_form(
                    "P", integer_pair(theta), bad_h, -f.epsilon, b,
                    bad_e_r))
                assert got == certificate_outcome(
                    lambda: covering_certificates(
                        theta, fraction_matrix(bad_h), -f.epsilon,
                        fraction_matrix(bad_e_r)))
                failed.add(got)
        assert failed == {None, "h is not an isometry of the covering theta",
                          "h is not c - (e|R)^-1"}

    def test_seifert_form_against_inverse(self):
        # unimodularity read off theta^-1's integer pair against the
        # integrality of the Fraction theta^-1, and e against theta^-1 psi;
        # the first psi has e = diag(1, 0) integral while det theta = 4;
        # theta and e are kept as the reduced pairs of those values, also
        # for the rational psi of the last cases
        rng = random.Random(27)
        outcomes = set()
        cases = [([[0, 0], [-2, 0]], -1, "Z"), ([[0, 0], [-2, 0]], -1, "Q")]
        for _ in range(150):
            n = rng.randint(1, 4)
            cases.append(([[rng.randint(-2, 2) for _ in range(n)]
                           for _ in range(n)], rng.choice([1, -1]),
                          rng.choice("ZQ")))
        for _ in range(30):
            n = rng.randint(1, 4)
            cases.append(([[Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                            for _ in range(n)] for _ in range(n)],
                          rng.choice([1, -1]), "Q"))
        for psi, eps, mode in cases:
            theta = frac_matrix(psi) + frac_matrix(psi).transpose().scale(eps)
            if qz_det(theta) == 0:
                want = "singular"
            else:
                inverse = qz_inverse(theta)
                integral = integer_pair(inverse)[1] == 1
                want = inverse * frac_matrix(psi) if mode == "Q" or \
                    integral else "not unimodular"
            try:
                f = SeifertForm(psi, eps, mode)
                got = fraction_matrix(f.e_pair)
            except SingularSeifertForm as err:
                got = "singular" if "singular" in str(err) else \
                    "not unimodular"
            else:
                assert fraction_matrix(f.theta_pair) == theta
                assert f.theta_pair == integer_pair(theta)
                assert f.e_pair == integer_pair(got)
            assert got == want
            outcomes.add(want if isinstance(want, str) else mode)
        assert outcomes == {"singular", "not unimodular", "Z", "Q"}

    def test_decompose_module_presentations(self, recorded_reductions):
        # TestDecomposeAgainstSmith's random presentations and one whose
        # determinant z (z - 1) vanishes at 0 and 1; c is the first of 0,
        # 1, ... with c B - C invertible
        rng = random.Random(2024)
        one, z = LaurentPoly.one(), LaurentPoly.z()
        press = [[[one, one], [one, one + z * (z - one)]]]
        for _ in range(60):
            n = rng.randint(1, 3)
            press.append([[LaurentPoly({k: rng.choice([0, 0, -2, -1, 1, 2])
                                        for k in range(-1, 3)})
                           for _ in range(n)] for _ in range(n)])
        for pres in press:
            try:
                decompose_module(pres, "Q")
            except NotTorsion:
                pass
        assert {c for _, c in recorded_reductions} == {0, 1, 2}
        assert max(assert_reduction_matches_oracle(e, c)
                   for e, c in recorded_reductions) >= 3

    def test_criterion_3_forms(self, recorded_reductions):
        # criterion 3's stream: AutometricForm's integer checks against the
        # Fraction ones, and decompose_module on each presentation z - h
        rng = random.Random(301)
        for _ in range(30):
            f = random_autometric(rng, max_rank=4, bound=5)
            h = integer_pair(f.h)
            for bad_h, _ in corruptions(h, h)[:3]:  # h, 2H and 2 d_h
                assert certificate_outcome(lambda: seifert._covering_form(
                    "Q", integer_pair(f.theta), bad_h, -f.epsilon)) == \
                    certificate_outcome(lambda: covering_certificates(
                        f.theta, fraction_matrix(bad_h), -f.epsilon))
            with pytest.raises(ValueError, match="preserve"):
                AutometricForm(f.theta, f.h.scale(2), f.epsilon)
            decompose_module(covering_pencil(f), "Q")
        assert recorded_reductions
        for e, c in recorded_reductions:
            assert assert_reduction_matches_oracle(e, c) == len(e[0])


def is_reduced(pair, vector=False):
    """A reduced pair (N, d) of ints: d > 0 and gcd(d, *N) = 1."""
    rows, d = pair
    entries = rows if vector else [x for r in rows for x in r]
    return (type(d) is int and d > 0 and gcd(d, *entries) == 1
            and all(type(x) is int for x in entries))


class TestReducedPairs:
    """The covering stages hand each other reduced integer pairs only, and
    `Fraction`s appear where a value is read."""

    def test_out_of_order_full_rank(self):
        # the Fitting power has full rank and its pivots come out of
        # order: b is a permutation P and e|R = P^T E P, both over 1
        f = SeifertForm(ladder_psi(random.Random(0), 4), -1, "Z")
        b, h, e_r = _pencil_reduction(f.e_pair)
        big_e, d = f.e_pair
        assert d == 1 and len(h[0]) == f.rank and b is not None
        (perm, d_b), unit_rows = b, Matrix.identity(f.rank, 1).rows
        assert d_b == 1 and sorted(perm) == sorted(unit_rows)
        assert perm != unit_rows
        assert e_r == (imul(list(zip(*perm)), imul(big_e, perm)), 1)

    @pytest.mark.parametrize("name", ["scale-20", "scale-10-mirror"])
    def test_stages_return_reduced_pairs(self, monkeypatch, name):
        def record(module, attr):
            run, returned = getattr(module, attr), []

            def recording(*args):
                returned.append(run(*args))
                return returned[-1]

            monkeypatch.setattr(module, attr, recording)
            return returned

        sequences = record(laurent_forms, "_krylov")
        decompositions = record(seifert, "_frobenius")
        reductions = record(seifert, "_pencil_reduction")
        covering_seifert(fixture_seifert(name))
        assert sequences and decompositions and reductions
        for vecs, _, us, alpha in sequences:
            assert all(is_reduced(v, vector=True) for v in vecs)
            assert all(type(x) is int for x in chain(alpha, *us))
        for blocks in decompositions:
            assert all(is_reduced(v, vector=True)
                       for vecs, _ in blocks for v in vecs)
        for b, h, e_r in reductions:
            assert b is None or is_reduced(b)
            assert is_reduced(h) and is_reduced(e_r)

    def test_analyze_builds_no_basis_change(self, monkeypatch, capsys):
        def fail(module):
            raise AssertionError("basis_change built")

        monkeypatch.setattr(laurent_forms.LaurentModule, "basis_change",
                            property(fail))
        path = Path(__file__).parent / "fixtures" / "scale-7-mirror.json"
        assert cli.main(["analyze", "--input", str(path)]) == 0
        assert json.loads(capsys.readouterr().out)


class TestRoundTrip:
    def test_rank_one_anchor(self):
        assert verify_roundtrip(AutometricForm([[1]], [[-1]], 1))

    def test_symmetric_and_skew_examples(self):
        theta = [[1, 0], [0, -2]]
        h = [[3, 4], [2, 3]]
        assert verify_roundtrip(AutometricForm(theta, h, 1))
        assert verify_roundtrip(AutometricForm([[0, 1], [-1, 0]],
                                               [[1, 1], [0, 1]], -1))

    def test_random_forms(self):
        rng = random.Random(20260815)
        for _ in range(40):
            assert verify_roundtrip(random_autometric(rng))

    @staticmethod
    def autometric_of_rank(rng, n, eps):
        """Acceptance criterion 3's recipe at rank n and sign eps, with
        theta's entries small enough that singular draws occur: each must
        be refused by `AutometricForm` and is drawn again.  Returns the
        form and the number of refused draws."""
        refused = 0
        while True:
            m = frac_matrix([[rng.randint(-2, 2) for _ in range(n)]
                             for _ in range(n)])
            theta = m + m.transpose().map(lambda v: v * eps)
            if theta.det() == 0:
                with pytest.raises(SingularAutometricForm):
                    AutometricForm(theta.rows, Matrix.identity(n).rows, eps)
                refused += 1
                continue
            a = frac_matrix([[rng.randint(-2, 2) for _ in range(n)]
                             for _ in range(n)])
            x = a - theta.inverse() * a.transpose() * theta
            ident = Matrix.identity(n)
            if (ident - x).det() == 0:
                continue
            h = (ident - x).inverse() * (ident + x)
            return AutometricForm(theta.rows, h.rows, eps), refused

    def seeded_forms(self, seed):
        rng = random.Random(seed)
        forms, refused = [], 0
        for n in range(7):
            # an odd skew-symmetric theta is always singular
            for eps in (1, -1) if n % 2 == 0 else (1,):
                for _ in range(5 if n < 5 else 2):
                    f, r = self.autometric_of_rank(rng, n, eps)
                    forms.append(f)
                    refused += r
        return forms, refused

    def test_verdict_against_oracle(self):
        forms, refused = self.seeded_forms(20261019)
        assert refused > 0
        assert {(f.rank, f.epsilon) for f in forms} >= {
            (n, e) for n in range(7) for e in (1, -1) if n % 2 == 0 or e == 1}
        for f in forms:
            assert verify_roundtrip(f) is verify_roundtrip_oracle(f) is True
        rng = random.Random(5)
        for n in (1, 3, 5):
            m = frac_matrix([[rng.randint(-5, 5) for _ in range(n)]
                             for _ in range(n)])
            with pytest.raises(SingularAutometricForm):
                AutometricForm((m - m.transpose()).rows,
                               Matrix.identity(n).rows, -1)

    def test_h_check_alone_refused(self, monkeypatch):
        # monodromy returns (theta', h'^-1): theta' still matches through
        # P, so only the h check fails, on every form with h^2 != 1
        real = seifert.monodromy

        def inverted(form):
            mono = real(form)
            return AutometricForm(mono.theta, mono.h.inverse(), mono.epsilon)

        forms = [f for f in self.seeded_forms(7)[0]
                 if f.rank and f.h * f.h != Matrix.identity(f.rank)]
        assert len(forms) > 10
        monkeypatch.setattr(seifert, "monodromy", inverted)
        for f in forms:
            cov = covering_autometric(f)
            mono = seifert.monodromy(cov)
            p = canonical_identification(f, cov)
            assert mono.theta == p.transpose() * f.theta * p
            assert f.h * p != p * mono.h
            assert verify_roundtrip(f) is verify_roundtrip_oracle(f) is False

    def test_theta_check_alone_refused(self, monkeypatch):
        # the covering's numerators negated: h still matches through P,
        # the monodromy's theta is -P^T theta P
        real = seifert.covering_autometric

        def negated(f):
            return laurent_negate(real(f))

        forms = [f for f in self.seeded_forms(8)[0] if f.rank]
        monkeypatch.setattr(seifert, "covering_autometric", negated)
        for f in forms:
            cov = seifert.covering_autometric(f)
            mono = monodromy(cov)
            p = canonical_identification(f, cov)
            assert f.h * p == p * mono.h
            assert mono.theta != p.transpose() * f.theta * p
            assert verify_roundtrip(f) is verify_roundtrip_oracle(f) is False

    @pytest.mark.parametrize("bend", ["dependent", "short", "narrow",
                                      "wide"])
    def test_bad_basis_refused(self, monkeypatch, bend):
        # the covering's basis made dependent, one column short, or one
        # coordinate short or long: P is singular or not square
        real = seifert.covering_autometric

        def bent(f):
            cov = real(f)
            basis = cov.module.basis
            basis = {"dependent": basis[:-1] + basis[:1],
                     "short": basis[:-1],
                     "narrow": [(v[:-1], d) for v, d in basis],
                     "wide": [(v + [0], d) for v, d in basis]}[bend]
            return LaurentLinkingForm(
                LaurentModule(cov.module.chain, basis,
                              cov.module.torsion_mode), cov.num, cov.epsilon)

        forms = [f for f in self.seeded_forms(9)[0] if f.rank > 1]
        monkeypatch.setattr(seifert, "covering_autometric", bent)
        for f in forms:
            assert verify_roundtrip(f) is verify_roundtrip_oracle(f) is False

    def test_singular_basis_meeting_the_h_check_refused(self, monkeypatch):
        # P replaced by g(h) P, g an irreducible factor of the largest
        # divisor: h g(h) P = g(h) P h' keeps the h check, and g(h) is
        # singular, so with no rank check on P only theta' = P^T theta P,
        # nonsingular as the monodromy's form, can refuse it
        real = seifert.covering_autometric

        def g_of_h(f, cov, x):
            g = factor_rational_poly(cov.module.chain[-1])
            y = [Fraction(0)] * len(x)
            for c in reversed(factor_key(g[0][0])):
                y = [sum(a * b for a, b in zip(r, y)) + c * xi
                     for r, xi in zip(f.h.rows, x)]
            return y

        def bent(f):
            cov = real(f)
            basis = [_integral(g_of_h(f, cov, [Fraction(x, d) for x in v]))
                     for v, d in cov.module.basis]
            return LaurentLinkingForm(
                LaurentModule(cov.module.chain, basis,
                              cov.module.torsion_mode), cov.num, cov.epsilon)

        forms = [f for f in self.seeded_forms(10)[0] if f.rank]
        monkeypatch.setattr(seifert, "covering_autometric", bent)
        for f in forms:
            cov = seifert.covering_autometric(f)
            p = canonical_identification(f, cov)
            assert p.det() == 0
            assert f.h * p == p * monodromy(cov).h
            assert verify_roundtrip(f) is verify_roundtrip_oracle(f) is False

    def test_monodromy_of_another_rank_refused(self, monkeypatch):
        # a rank-2 block added to the monodromy: the Fraction check cannot
        # even multiply P by it, the integer check answers False
        real = seifert.monodromy

        def grown(form):
            mono = real(form)
            extra = AutometricForm([[0, 1], [mono.epsilon, 0]],
                                   [[1, 0], [0, 1]], mono.epsilon)
            return autometric_direct_sum(mono, extra)

        forms = [f for f in self.seeded_forms(10)[0] if f.rank]
        monkeypatch.setattr(seifert, "monodromy", grown)
        for f in forms:
            assert verify_roundtrip(f) is False
            with pytest.raises(ValueError, match="shape mismatch"):
                verify_roundtrip_oracle(f)

    def test_corrupted_pairing_detected(self):
        f = AutometricForm([[1]], [[-1]], 1)
        cov = covering_autometric(f)
        bad = laurent_negate(cov)
        validate_over_qz(bad)
        mono = monodromy(bad)
        p = canonical_identification(f, bad)
        assert mono.theta != p.transpose() * f.theta * p


# ---------------------------------------------------------------------------
# lagrangians and hyperbolicity witnesses
# ---------------------------------------------------------------------------

class TestSeifertLagrangians:
    def test_trefoil_witness_pair(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, twist = hyperbolic_witness_sum(f)
        assert verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
        assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
        assert is_complementary(fsum, diag, twist)

    def test_doubled_diagonal_is_not_split(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, _ = hyperbolic_witness_sum(f)
        doubled = SeifertSubmodule(diag.basis.map(lambda x: 2 * x))
        assert verify_seifert_lagrangian(fsum, doubled) == "lagrangian"

    def test_non_isotropic_detected(self):
        f = SeifertForm([[0, 1], [1, 0]], 1, "Q")  # e is scalar 1/2
        good = verify_seifert_lagrangian(f, SeifertSubmodule([[1], [0]]))
        bad = verify_seifert_lagrangian(f, SeifertSubmodule([[1], [1]]))
        assert good == "split_lagrangian"
        assert bad == "not_lagrangian"

    def test_full_space_is_not_half_rank(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        full = SeifertSubmodule([[1, 0], [0, 1]])
        assert verify_seifert_lagrangian(f, full) == "not_lagrangian"

    def test_e_invariance_precondition(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        with pytest.raises(NotEInvariant):
            verify_seifert_lagrangian(f, SeifertSubmodule([[1], [0]]))

    def test_e_invariance_over_z_and_q(self):
        # e maps (1, 0, 1, 0) to (0, -1, 0, -1), which lies in the Q-span of
        # the basis but not in its Z-span
        sub = SeifertSubmodule([[1, 0], [0, 2], [1, 0], [0, 2]])
        f = SeifertForm(TREFOIL, -1, "Z")
        with pytest.raises(NotEInvariant):
            verify_seifert_lagrangian(
                seifert_direct_sum(f, seifert_negate(f)), sub)
        g = SeifertForm(TREFOIL, -1, "Q")
        assert verify_seifert_lagrangian(
            seifert_direct_sum(g, seifert_negate(g)),
            sub) == "split_lagrangian"

    def test_one_smith_form_per_z_check(self, monkeypatch):
        # e-invariance is read off one elimination of [B | E B], so the
        # split test's divisors are the one Smith form of a Z check
        calls = []
        original = snf.smith_normal_form

        def counting(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        for mod in list(sys.modules.values()):
            if (getattr(mod, "__name__", "").startswith("wittkit")
                    and getattr(mod, "smith_normal_form", None) is original):
                monkeypatch.setattr(mod, "smith_normal_form", counting)
        f = SeifertForm(TREFOIL, -1, "Z")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, _ = hyperbolic_witness_sum(f)
        doubled = SeifertSubmodule(diag.basis.map(lambda x: 2 * x))
        for sub, verdict in ((diag, "split_lagrangian"),
                             (doubled, "lagrangian")):
            calls.clear()
            assert verify_seifert_lagrangian(fsum, sub) == verdict
            assert len(calls) == 1

    @pytest.mark.parametrize("genus", [None, 2],
                             ids=["trefoil-inverse-sum", "genus-2-mirror"])
    def test_analyze_builds_one_form_on_mirror_sum(self, genus, monkeypatch):
        # psi = A (+) -A is the knot's own form, so analyze builds only A's;
        # the witnesses stay the diagonal and the graph of ((1-e)x, -ex)
        # for A's e, here from the Fraction oracle
        if genus is None:
            k = catalog_knot("trefoil-inverse-sum")
        else:
            a = KnotInput("a", ladder_psi(random.Random(genus), genus), -1)
            k = connected_sum(a, knot_inverse(a))
        n = k.rank // 2
        half = Matrix([r[:n] for r in k.psi.rows[:n]])
        e = qz_inverse(half + half.transpose().scale(k.epsilon)) * half
        ident = Matrix.identity(n)
        want = [vstack(ident, ident), vstack(ident - e, -e)]
        builds, init = [], SeifertForm.__init__

        def counting(self, *args, **kwargs):
            builds.append(args)
            init(self, *args, **kwargs)

        monkeypatch.setattr(SeifertForm, "__init__", counting)
        report = analyze(k)
        assert len(builds) == 1
        assert [w.basis for w in report.witnesses] == want

    def test_rank_zero_witnesses(self):
        f = SeifertForm([], -1, "Z")
        diag, twist = hyperbolic_witness_sum(f)
        assert diag.basis.ncols == 0
        assert is_complementary(
            seifert_direct_sum(f, seifert_negate(f)), diag, twist)

    @pytest.mark.parametrize("coefficients", ["Z", "Q"])
    def test_witness_check_eliminates_no_matrix(self, coefficients,
                                                monkeypatch):
        # the witnesses and their checks run on integer rows: no Matrix is
        # transposed, mapped, inverted or has its det taken
        f = SeifertForm(ladder_psi(random.Random(3), 3), -1, coefficients)
        fsum = seifert_direct_sum(f, seifert_negate(f))
        for name in ("transpose", "map", "det", "inverse"):
            monkeypatch.setattr(Matrix, name, None)
        diag, twist = hyperbolic_witness_sum(f)
        assert verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
        assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
        assert is_complementary(fsum, diag, twist)

    def test_q_mode_twist_is_d_times_the_graph(self):
        # e = 1/2: the graph of ((1-e)x, -ex) passed as the integer rows of
        # d - E over -E, d = 2
        f = SeifertForm([[0, 1], [1, 0]], 1, "Q")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, twist = hyperbolic_witness_sum(f)
        assert twist.basis == Matrix.from_ints(
            [[1, 0], [0, 1], [-1, 0], [0, -1]])
        assert twist.basis_pair == ([[1, 0], [0, 1], [-1, 0], [0, -1]], 1)
        assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
        assert is_complementary(fsum, diag, twist)

    def test_complementary_bases_must_live_in_the_form_space(self):
        # two 3-row bases against a rank-2 form: an integer minor of their
        # 3 x 2 stack would give a verdict, so both are refused first
        f = SeifertForm(TREFOIL, -1, "Z")
        good = SeifertSubmodule([[1], [0]])
        tall = [SeifertSubmodule([[1], [0], [0]]),
                SeifertSubmodule([[0], [1], [0]])]
        for a, b in (tall, (good, tall[0]), (tall[1], good)):
            with pytest.raises(ValueError, match="form's space"):
                is_complementary(f, a, b)

    def test_overlapping_submodules_not_complementary(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, _ = hyperbolic_witness_sum(f)
        assert not is_complementary(fsum, diag, diag)

    @settings(max_examples=40, deadline=None)
    @given(st.lists(st.integers(-3, 3), min_size=4, max_size=4),
           st.sampled_from([1, -1]))
    def test_witness_law(self, entries, eps):
        psi = [entries[:2], entries[2:]]
        try:
            f = SeifertForm(psi, eps, "Q")
        except SingularSeifertForm:
            assume(False)
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, twist = hyperbolic_witness_sum(f)
        assert verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
        assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
        assert is_complementary(fsum, diag, twist)


class TestLagrangianTransport:
    def test_witness_images_are_covering_lagrangians(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        fsum = seifert_direct_sum(f, seifert_negate(f))
        cov = covering_seifert(fsum)
        assert dw_multisignature_laurent(cov).all_zero
        for sub in hyperbolic_witness_sum(f):
            image = covering_submodule_image(fsum, cov, sub)
            assert is_lagrangian_submodule(cov, image)

    def test_transport_on_random_sums(self):
        rng = random.Random(29)
        done = 0
        while done < 3:
            n = rng.randint(1, 2)
            eps = rng.choice([1, -1])
            psi = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
            try:
                f = SeifertForm(psi, eps, "Q")
            except SingularSeifertForm:
                continue
            fsum = seifert_direct_sum(f, seifert_negate(f))
            cov = covering_seifert(fsum)
            if cov.module.is_zero:
                continue
            for sub in hyperbolic_witness_sum(f):
                image = covering_submodule_image(fsum, cov, sub)
                assert is_lagrangian_submodule(cov, image)
            done += 1


# ---------------------------------------------------------------------------
# near projections
# ---------------------------------------------------------------------------

class TestNearProjection:
    def test_zero_and_identity(self):
        plus, minus = near_projection_decompose(2, [[0, 0], [0, 0]])
        assert plus.ncols == 0 and minus.ncols == 2
        plus, minus = near_projection_decompose(2, [[1, 0], [0, 1]])
        assert plus.ncols == 2 and minus.ncols == 0

    def test_idempotent_splits_image_and_kernel(self):
        e = frac_matrix([[1, 1], [0, 0]])
        plus, minus = near_projection_decompose(2, e.rows)
        assert plus.ncols == 1 and minus.ncols == 1
        ident = Matrix.identity(2)
        assert (ident - e) * plus == Matrix([[0] * 1] * 2)
        assert e * minus == Matrix([[0] * 1] * 2)

    def test_nilpotent_restrictions(self):
        # genuinely near (not exactly) a projection
        e = frac_matrix([[1, 0, 1], [0, 0, 1], [0, 0, 0]])
        plus, minus = near_projection_decompose(3, e.rows)
        assert plus.ncols + minus.ncols == 3
        ident = Matrix.identity(3)
        top = (ident - e) * (ident - e) * (ident - e) * plus
        bot = e * e * e * minus
        assert top == Matrix([[0] * plus.ncols] * 3)
        assert bot == Matrix([[0] * minus.ncols] * 3)

    def test_not_near_projection(self):
        f = SeifertForm(TREFOIL, -1, "Z")
        with pytest.raises(NotNearProjection):
            near_projection_decompose(2, fraction_matrix(f.e_pair).rows)
