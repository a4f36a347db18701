"""Torsion modules and linking forms over the rational Laurent ring."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from wittkit.errors import (
    NotPTorsion,
    NotSelfConjugate,
    NotTorsion,
    SingularForm,
)
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.laurent_forms import (
    LaurentLinkingForm,
    LaurentModule,
    auxiliary_hermitian,
    decompose_module,
    dw_multisignature_laurent,
    level_multiplicities,
    witt_forgetful_laurent,
)
from wittkit.serialize import multisignature_notes

from covering_oracle import (
    QZ,
    form_from_qz,
    laurent_direct_sum,
    laurent_negate,
    module_dimension_q,
    parent_form,
    qz_pairing,
    record_form,
    validate_over_qz,
)
from elimination_oracle import parent_frobenius
from factor_oracle import is_self_conjugate
from snf_oracle import snf_decompose_module

Z = LaurentPoly.z()
ONE = LaurentPoly.one()
NIL = LaurentPoly.zero()
P6 = Z**2 - Z + ONE          # roots e^{+-i pi/3}
P8 = Z**2 - LaurentPoly.const(3) * Z + ONE   # self-conjugate, no circle roots
P12 = Z**4 - Z**2 + ONE      # roots at pi/6 and 5 pi/6


def key_of(p):
    dense, _ = p.ordinary()
    return tuple(dense)


def ints(p):
    """A factor as the primitive integer list the module reads."""
    return polys.primitive(p.ordinary()[0])


def diag(*entries):
    n = len(entries)
    return [[entries[i] if i == j else NIL for j in range(n)] for i in range(n)]


def cyclic_block(p, l, c, epsilon=1, mode="P"):
    """Form w(x) bar(y) / p^l on A/(p^l) with w = c + eps u(p^l) bar(c),
    the exact-symmetrization that makes the pairing epsilon-symmetric on
    the nose."""
    unit = is_self_conjugate(p)
    assert unit is not None
    w = c + LaurentPoly.const(epsilon) * unit**l * c.bar()
    module = decompose_module([[p**l]], mode)
    f = form_from_qz(module, [[QZ.make(w, p**l)]], epsilon)
    validate_over_qz(f)
    return f


# -- module decomposition --

def test_single_divisor():
    m = decompose_module([[P6]], "P")
    assert m.divisors == [P6]
    assert module_dimension_q(m) == 2
    assert not m.is_zero


def test_identity_presents_zero_module():
    m = decompose_module(diag(ONE, ONE), "P")
    assert m.is_zero
    assert module_dimension_q(m) == 0


def test_units_and_scalars_dropped():
    m = decompose_module(diag(LaurentPoly.monomial(Fraction(3, 2), -4), P6), "P")
    assert m.divisors == [P6]


def test_mixing_presentation_gives_chain():
    m = decompose_module([[P6, ONE], [NIL, P6]], "Q")
    assert m.divisors == [P6**2]


def test_divisors_made_monic_ordinary():
    m = decompose_module([[LaurentPoly.monomial(2, -3) * P6]], "Q")
    assert m.divisors == [P6]


def test_singular_presentation_rejected():
    with pytest.raises(NotTorsion):
        decompose_module([[Z - ONE, Z - ONE], [Z - ONE, Z - ONE]], "Q")


def test_p_mode_rejects_augmentation_root():
    with pytest.raises(NotPTorsion):
        decompose_module(diag(Z - ONE, P6), "P")
    decompose_module(diag(Z - ONE, P6), "Q")


def test_nonsquare_presentation_rejected():
    with pytest.raises(ValueError):
        decompose_module([[P6, ONE]], "Q")


def test_bad_mode_rejected():
    with pytest.raises(ValueError):
        decompose_module([[P6]], "R")


class TestDecomposeAgainstSmith:
    """The Q-linear decompose_module against the Laurent Smith form and
    against the Krylov chain that row-reduced h's vectors: equal divisors
    in order, or the same error on every side."""

    @staticmethod
    def outcome(decompose, pres, mode):
        try:
            return decompose(pres, mode).divisors
        except (NotTorsion, NotPTorsion) as err:
            return type(err)

    def check(self, pres, mode="Q"):
        got = self.outcome(decompose_module, pres, mode)
        assert got == self.outcome(snf_decompose_module, pres, mode)
        with parent_frobenius():
            # and against the Krylov chain that row-reduced h's vectors
            assert got == self.outcome(decompose_module, pres, mode)
        return got

    def test_random_presentations(self):
        rng = random.Random(2024)
        for _ in range(60):
            n = rng.randint(1, 3)
            pres = [[LaurentPoly({k: rng.choice([0, 0, -2, -1, 1, 2])
                                  for k in range(-1, 3)})
                     for _ in range(n)] for _ in range(n)]
            self.check(pres, rng.choice("PQ"))

    def test_rational_presentations(self):
        """Rational coefficients, mixed within each row and some over 61-bit
        denominators: `decompose_module` scales each row of its pencil to
        integers, a unit, so the divisors are the Smith form's and those of
        the same presentation with every row scaled by a rational."""
        rng = random.Random("rational-presentations")
        dens = [1, 2, 3, 5, 12, 2**61 - 1]
        for _ in range(40):
            n = rng.randint(1, 3)
            pres = [[LaurentPoly({k: Fraction(rng.choice([0, 0, -2, -1, 1, 2]),
                                              rng.choice(dens))
                                  for k in range(-1, 2)})
                     for _ in range(n)] for _ in range(n)]
            mode = rng.choice("PQ")
            got = self.check(pres, mode)
            scales = [Fraction(rng.choice([-3, -1, 1, 7]), rng.choice(dens))
                      for _ in range(n)]
            scaled = [[x * s for x in row] for row, s in zip(pres, scales)]
            assert self.outcome(decompose_module, scaled, mode) == got
        # diag(P6, P6 P8) with rational units and a rational row operation
        a, b = P6 * Fraction(1, 2), P6 * P8 * Fraction(2**61 - 1, 3)
        assert self.check([[a, NIL], [a * Fraction(1, 5), b]]) == [P6, P6 * P8]

    def test_z_power_units(self):
        assert self.check(diag(Z**2, LaurentPoly.monomial(3, -1))) == []
        assert self.check([[Z**-1 * P6]]) == [P6]
        assert self.check([[Z, Z**-1 * P6], [NIL, Z**-1 * (Z - ONE)]]) \
            == [Z - ONE]

    def test_singular_constant_coefficient(self):
        # A(0) is singular, so the companion is shifted to c != 0
        k3 = LaurentPoly.const(3)
        assert self.check([[ONE, ONE], [ONE, ONE + Z * (Z - k3)]]) == [Z - k3]
        assert self.check([[ONE, ONE], [ONE, ONE + Z]]) == []

    @pytest.mark.parametrize("pres", [
        [[Z - ONE, Z**2 - ONE], [ONE, Z + ONE]],
        [[NIL]],
        diag(P6, NIL, ONE),
        [[Z, Z**2, ONE], [ONE, Z, NIL], [Z + ONE, Z**2 + Z, ONE]],
    ])
    def test_rank_deficient(self, pres):
        assert self.check(pres) is NotTorsion

    def test_root_at_one_in_p_mode(self):
        assert self.check(diag(Z - ONE, P6), "P") is NotPTorsion
        assert self.check([[Z**2 - ONE, Z], [NIL, ONE]], "P") is NotPTorsion
        assert self.check(diag(Z - ONE, P6), "Q") == [(Z - ONE) * P6]

    def test_conjugated_chains(self):
        rng = random.Random(5)
        factors = [Z - LaurentPoly.const(2), P6, Z + ONE, P8]
        longest = 0
        for _ in range(6):
            n = rng.randint(2, 3)
            chain, acc = [], ONE
            for _ in range(n):
                acc = acc * rng.choice(factors + [ONE])
                chain.append(acc)
            pres = Matrix(diag(*chain))
            for _ in range(2):
                i, j = rng.sample(range(n), 2)
                unit = LaurentPoly.monomial(rng.choice([-1, 1, 2]),
                                            rng.randint(-1, 1))
                pres = Matrix([[x + unit * pres[j, b] if a == i else x
                                for b, x in enumerate(row)]
                               for a, row in enumerate(pres.rows)])
                i, j = rng.sample(range(n), 2)
                pres = Matrix([[x + unit * row[j] if b == i else x
                                for b, x in enumerate(row)]
                               for row in pres.rows])
            got = self.check(pres)
            assert got == [d for d in chain if d != ONE]
            longest = max(longest, len(got))
        assert longest >= 2

    def test_empty_presentation(self):
        assert self.check([]) == []


# -- level multiplicities --

def test_level_multiplicities_mixed():
    m = decompose_module(diag(P6**2 * P8, P6), "P")
    assert level_multiplicities(m, ints(P6)) == {1: 1, 2: 1}
    assert level_multiplicities(m, ints(P8)) == {1: 1}


def test_level_multiplicities_absent_factor():
    m = decompose_module([[P6]], "P")
    assert level_multiplicities(m, ints(P8)) == {}


def test_level_multiplicities_repeated():
    m = decompose_module(diag(P6**2, P6**2), "P")
    assert level_multiplicities(m, ints(P6)) == {2: 2}


# -- linking form validation --

def test_symmetry_violation_rejected():
    m = decompose_module([[P6]], "P")
    with pytest.raises(ValueError):
        validate_over_qz(form_from_qz(m, [[QZ.make(ONE, P6)]], 1))


def test_annihilation_violation_rejected():
    m = decompose_module([[P6]], "P")
    # symmetric but with a pole two levels deep
    with pytest.raises(ValueError):
        validate_over_qz(form_from_qz(
            m, [[QZ.make(ONE + Z**4, P6**2)]], 1))


def test_symmetry_violation_names_the_check():
    m = decompose_module(diag(P6, P6), "P")
    lam = [[QZ.zero(), QZ.make(ONE, P6)],
           [QZ.make(ONE, P6), QZ.zero()]]
    with pytest.raises(ValueError, match="breaks epsilon-symmetry"):
        validate_over_qz(form_from_qz(m, lam, 1))


def off_diagonal_pair(entry, epsilon=1):
    return [[QZ.zero(), entry],
            [entry.bar() * Fraction(epsilon), QZ.zero()]]


def test_row_divisor_violation_rejected():
    # numerators over d_j* carry the column annihilation, so a row
    # violation comes with a symmetry violation: here lambda_01 = 1/P6^2
    # (P6* = P6), which d_0 = P6 does not kill, and lambda_10 = 1/P6
    m = decompose_module(diag(P6, P6**2), "P")
    with pytest.raises(ValueError, match="not annihilated by the row"):
        validate_over_qz(record_form(m, [[NIL, ONE], [ONE, NIL]], 1))


def test_module_equality_ignores_its_caches():
    a, b = (LaurentModule([ints(P6), ints(P6**2)], None, "P")
            for _ in range(2))
    prim, split = a._split(ints(P6))
    assert split == {0: (1, [1]), 1: (2, [1])}
    assert a._splits and not b._splits
    assert a == b
    assert a != LaurentModule([ints(P6**2)], None, "P")
    assert a != LaurentModule([ints(P6), ints(P6**2)], None, "Q")
    # cached_property and the oracles write to the instance's __dict__
    a.factors = [(prim, 3)]
    assert a.factors == [(prim, 3)] and a == b


def test_column_divisor_violation_rejected():
    # the row divisor P6^2 kills 1/P6^2, the column divisor P6 does not
    m = LaurentModule([ints(P6**2), ints(P6)], None, "P")
    with pytest.raises(ValueError, match="not annihilated by the column"):
        form_from_qz(m, off_diagonal_pair(QZ.make(ONE, P6**2)), 1)


def test_numerators_refuse_a_pole_deeper_than_the_divisor():
    # P6* = P6 does not clear (1 + z^4)/P6^2, so no numerator over it
    # carries this entry
    m = decompose_module([[P6]], "P")
    with pytest.raises(ValueError, match=r"entry \(0, 0\) has a pole deeper"):
        form_from_qz(m, [[QZ.make(ONE + Z**4, P6**2)]], 1)


def test_numerators_round_trip_through_qz():
    f = laurent_direct_sum(cyclic_block(P6, 1, ONE + Z),
                           cyclic_block(P6, 2, Z**2))
    g = form_from_qz(f.module, qz_pairing(f), 1)
    assert qz_pairing(g) == qz_pairing(f)
    # the numerators are representatives, not canonical: adding a multiple
    # of d_j* to num_ij leaves the class alone (z^3 d_j*, as a record holds
    # no negative power)
    parent = parent_form(f)
    stars = [LaurentPoly.from_dense(d.ordinary()[0][::-1])
             for d in parent.divisors]
    shifted = [[x + stars[j] * Z**3 for j, x in enumerate(row)]
               for row in parent.num.rows]
    assert qz_pairing(record_form(f.module, shifted, 1)) == qz_pairing(f)

def test_singular_pairing_rejected():
    m = decompose_module([[P6]], "P")
    with pytest.raises(SingularForm):
        validate_over_qz(form_from_qz(m, [[QZ.make(P6 + P6, P6)]], 1))


def test_pairing_shape_checked():
    m = decompose_module([[P6]], "P")
    with pytest.raises(ValueError):
        LaurentLinkingForm(m, [[([], 1), ([], 1)]], 1)


def test_epsilon_checked():
    m = decompose_module([[P6]], "P")
    with pytest.raises(ValueError):
        record_form(m, [[ONE + Z**2]], 2)


# -- auxiliary hermitian forms --

def test_auxiliary_unit_normalizes_to_inner_product():
    f = cyclic_block(P6, 1, ONE)
    aux = auxiliary_hermitian(f, ints(P6), 1)
    assert aux.rank == 1
    assert aux.symmetry == 1
    assert aux.gram[0, 0] == aux.field.one()
    assert aux.unit == aux.field.gen()


def test_auxiliary_rank_matches_multiplicity():
    f = laurent_direct_sum(cyclic_block(P6, 1, ONE), cyclic_block(P6, 2, ONE))
    for l, mult in level_multiplicities(f.module, ints(P6)).items():
        assert auxiliary_hermitian(f, ints(P6), l).rank == mult


def test_auxiliary_empty_level():
    f = cyclic_block(P6, 1, ONE)
    assert auxiliary_hermitian(f, ints(P6), 2).rank == 0


def test_auxiliary_rejects_conjugate_pair_factor():
    d = (Z - LaurentPoly.const(2)) * (Z - LaurentPoly.const(Fraction(1, 2)))
    m = decompose_module([[d]], "P")
    f = form_from_qz(m, [[QZ.make(ONE + Z**2, d)]], 1)
    validate_over_qz(f)
    with pytest.raises(NotSelfConjugate):
        auxiliary_hermitian(f, ints(Z - LaurentPoly.const(2)), 1)


def test_auxiliary_rejects_level_zero():
    f = cyclic_block(P6, 1, ONE)
    with pytest.raises(ValueError):
        auxiliary_hermitian(f, ints(P6), 0)


def test_auxiliary_hermitian_after_normalization():
    f = laurent_direct_sum(cyclic_block(P6, 1, ONE + Z),
                           cyclic_block(P6, 1, Z**2))
    aux = auxiliary_hermitian(f, ints(P6), 1)
    for i in range(aux.rank):
        for j in range(aux.rank):
            assert aux.gram[i, j] == aux.field.bar_elem(aux.gram[j, i])


# -- multisignature anchors --

def test_rank_one_block_signature():
    ms = dw_multisignature_laurent(cyclic_block(P6, 1, ONE))
    assert ms.entries() == [((key_of(P6), 0, 1), 2)]
    lo, hi = ms.theta(key_of(P6), 0).theta_interval()
    import math
    assert lo <= math.pi / 3 <= hi


def test_level_two_block_signature():
    ms = dw_multisignature_laurent(cyclic_block(P6, 2, ONE))
    assert ms.entries() == [((key_of(P6), 0, 2), -2)]


def test_skew_symmetry_block():
    ms = dw_multisignature_laurent(cyclic_block(P6, 1, ONE, epsilon=-1))
    assert ms.entries() == [((key_of(P6), 0, 1), -2)]


def test_two_roots_get_independent_entries():
    ms = dw_multisignature_laurent(cyclic_block(P12, 1, ONE))
    keys = [k for k, _ in ms.entries()]
    assert keys == [(key_of(P12), 0, 1), (key_of(P12), 1, 1)]
    t0 = ms.theta(key_of(P12), 0).theta_interval()
    t1 = ms.theta(key_of(P12), 1).theta_interval()
    assert t0[1] < t1[0]
    # y-roots of y^2 - 3 orient opposite ways; the relative sign is part
    # of the root-localization convention, not noise
    assert [s for _, s in ms.entries()] == [2, -2]


def test_point_root_even_level_symmetric():
    f = cyclic_block(Z - ONE, 2, ONE, mode="Q")
    ms = dw_multisignature_laurent(f)
    assert ms.entries() == [((key_of(Z - ONE), 0, 2), 1)]
    assert ms.rank_only == {}


def point_root_odd_level_form():
    m = decompose_module(diag(Z - ONE, Z - ONE), "Q")
    a = QZ.make(ONE, Z - ONE)
    return form_from_qz(m, [[QZ.zero(), a], [-a, QZ.zero()]], 1)


def test_point_root_odd_level_is_rank_only():
    f = point_root_odd_level_form()
    validate_over_qz(f)
    ms = dw_multisignature_laurent(f)
    assert ms.entries() == []
    assert ms.rank_only == {(key_of(Z - ONE), 1): 2}
    assert ms.all_zero


def test_rank_only_level_note():
    # no knot report holds a rank-only level, so no pinned report reaches
    # this note; its text is pinned here
    ms = dw_multisignature_laurent(point_root_odd_level_form())
    assert multisignature_notes(ms) == [
        "level 1 at factor -1 + z is skew over a real residue field: "
        "rank 2, no signature"]


def test_singular_point_root_odd_level_is_refused():
    # the rank-only branch reads a skew level form over Q at z - 1 and
    # refuses it when singular: the zero pairing, and a skew 3 x 3 one
    a, b = QZ.make(ONE, Z - ONE), QZ.make(-2 * ONE, Z - ONE)
    zero = QZ.zero()
    cases = [(diag(Z - ONE, Z - ONE), [[zero, zero], [zero, zero]]),
             (diag(Z - ONE, Z - ONE, Z - ONE),
              [[zero, a, b], [-a, zero, a], [-b, -a, zero]])]
    for presentation, pairing in cases:
        f = form_from_qz(decompose_module(presentation, "Q"), pairing, 1)
        aux = auxiliary_hermitian(f, ints(Z - ONE), 1)
        assert aux.symmetry == -1 and aux.field.degree == 1
        with pytest.raises(SingularForm):
            dw_multisignature_laurent(f)


def test_no_circle_roots_no_entries():
    ms = dw_multisignature_laurent(cyclic_block(P8, 1, ONE))
    assert ms.entries() == []
    assert ms.all_zero


def test_conjugate_pair_noted_and_unobstructed():
    d = (Z - LaurentPoly.const(2)) * (Z - LaurentPoly.const(Fraction(1, 2)))
    m = decompose_module([[d]], "P")
    f = form_from_qz(m, [[QZ.make(ONE + Z**2, d)]], 1)
    validate_over_qz(f)
    ms = dw_multisignature_laurent(f)
    assert ms.entries() == []
    assert len(ms.conjugate_pairs) == 1
    assert ms.all_zero


def test_zero_module_multisignature():
    m = decompose_module(diag(ONE), "P")
    f = LaurentLinkingForm(m, [], 1)
    validate_over_qz(f)
    ms = dw_multisignature_laurent(f)
    assert ms.all_zero and ms.entries() == []


# -- Witt-style behavior over R --

def test_sum_with_negative_is_hyperbolic():
    f = cyclic_block(P6, 1, ONE)
    assert not dw_multisignature_laurent(f).all_zero
    assert dw_multisignature_laurent(
        laurent_direct_sum(f, laurent_negate(f))).all_zero


def test_signatures_add_under_direct_sum():
    f = cyclic_block(P6, 1, ONE)
    g = cyclic_block(P6, 2, ONE)
    total = dw_multisignature_laurent(laurent_direct_sum(f, g))
    assert total == dw_multisignature_laurent(f) + dw_multisignature_laurent(g)


def test_opposite_residue_blocks_cancel():
    # c = 1 - z flips the residue class sign at l = 1, so these two blocks
    # are negatives of one another in every signature slot
    plus = cyclic_block(P6, 1, ONE)
    minus = cyclic_block(P6, 1, ONE - Z)
    assert dw_multisignature_laurent(minus) == -dw_multisignature_laurent(plus)
    assert dw_multisignature_laurent(laurent_direct_sum(plus, minus)).all_zero
    assert not dw_multisignature_laurent(
        laurent_direct_sum(plus, plus)).all_zero


def test_forgetful_sums_odd_levels_only():
    f = cyclic_block(P6, 1, ONE)
    g = cyclic_block(P6, 2, ONE)
    both = witt_forgetful_laurent(dw_multisignature_laurent(laurent_direct_sum(f, g)))
    assert both == {(key_of(P6), 0): 2}
    only_even = witt_forgetful_laurent(dw_multisignature_laurent(g))
    assert only_even == {(key_of(P6), 0): 0}


def test_negation_flips_entries():
    ms = dw_multisignature_laurent(cyclic_block(P12, 1, ONE))
    assert {k: -s for k, s in ms.entries()} == dict((-ms).entries())


# -- base-change invariance --

def shear_pairing(pairing, cols):
    """lambda'(g_i', g_j') for g_i' = sum_a cols[a][i] g_a."""
    n = len(cols)
    out = []
    for i in range(n):
        row = []
        for j in range(n):
            acc = QZ.zero()
            for a in range(n):
                for b in range(n):
                    acc = acc + pairing[a, b] * (cols[a][i] * cols[b][j].bar())
            row.append(acc)
        out.append(row)
    return out


def small_poly(coeffs):
    return LaurentPoly.from_dense([Fraction(c) for c in coeffs] or [Fraction(0)])


@settings(max_examples=25, deadline=None)
@given(
    c1=st.lists(st.integers(-2, 2), min_size=1, max_size=2),
    c2=st.lists(st.integers(-2, 2), min_size=1, max_size=2),
    sh=st.lists(st.integers(-2, 2), min_size=1, max_size=2),
)
def test_base_change_invariance_same_level(c1, c2, sh):
    w1 = small_poly(c1)
    w2 = small_poly(c2)
    f = None
    try:
        f = laurent_direct_sum(cyclic_block(P6, 1, ONE + w1 * Z),
                               cyclic_block(P6, 1, ONE - Z + w2))
    except SingularForm:
        return
    cols = [[ONE, small_poly(sh)], [NIL, ONE]]
    g = form_from_qz(f.module, shear_pairing(qz_pairing(f), cols), 1)
    validate_over_qz(g)
    assert dw_multisignature_laurent(g) == dw_multisignature_laurent(f)


@settings(max_examples=25, deadline=None)
@given(sh=st.lists(st.integers(-2, 2), min_size=1, max_size=2))
def test_base_change_invariance_across_levels(sh):
    f = laurent_direct_sum(cyclic_block(P6, 1, ONE), cyclic_block(P6, 2, ONE))
    # moving the deep generator into the shallow one needs a multiplier
    # divisible by the level gap
    cols = [[ONE, NIL], [P6 * small_poly(sh), ONE]]
    g = form_from_qz(f.module, shear_pairing(qz_pairing(f), cols), 1)
    validate_over_qz(g)
    assert dw_multisignature_laurent(g) == dw_multisignature_laurent(f)


def test_unit_rescaling_invariance():
    f = cyclic_block(P6, 1, ONE)
    for u in (Z**3, -Z, LaurentPoly.const(2) * Z - ONE):
        cols = [[u]]
        g = form_from_qz(f.module, shear_pairing(qz_pairing(f), cols), 1)
        validate_over_qz(g)
        assert dw_multisignature_laurent(g) == dw_multisignature_laurent(f)
