"""Finite linking forms: decomposition, auxiliaries, Witt classes, boundaries."""

import random
import time
from fractions import Fraction as F
from math import gcd, lcm, prod

import pytest
from hypothesis import assume, given, settings, strategies as st

from elimination_oracle import hstack
from formbank import (
    apply_generator_change,
    diagonal_form,
    enumerate_symmetric_forms,
    nonsquare_unit,
    random_automorphism,
)
import linking_oracle
from linking_oracle import (
    NotAnSLagrangian,
    det_mod_p,
    form_order,
    fraction_boundary_gram,
    fraction_check,
    fraction_gram,
    fraction_primary_grams,
    homogeneous_split,
    mixed_multisignature,
    multisignature_support,
    primary_decompose,
    verify_boundary_complementary,
)
from wittkit.errors import (
    EvenPrimeUnsupported,
    FactorizationTooLarge,
    SingularForm,
    SingularOverFractionField,
)
from wittkit.exact.matrix import Matrix, _det
from wittkit.exact.snf import smith_normal_form
from wittkit import finite, seifert
from wittkit.finite import (
    AuxiliaryFormFp,
    DWMultiSignatureZ,
    FiniteLinkingForm,
    WittClassFp,
    auxiliary_form,
    auxiliary_modules,
    boundary_of_form,
    classify,
    dw_multisignature,
    forgetful_witt,
    witt_class_fp,
)


# ---------------------------------------------------------------------------
# construction and validation
# ---------------------------------------------------------------------------

def test_gram_reduced_into_unit_interval():
    f = FiniteLinkingForm(3, [1], [[F(4, 3)]], 1)
    assert f.gram[0][0] == F(1, 3)


def test_rejects_non_p_power_denominator():
    with pytest.raises(ValueError):
        FiniteLinkingForm(3, [1], [[F(1, 6)]], 1)


def test_rejects_pairing_deeper_than_orders():
    with pytest.raises(ValueError):
        FiniteLinkingForm(3, [1], [[F(1, 9)]], 1)


def test_rejects_broken_symmetry():
    with pytest.raises(ValueError):
        FiniteLinkingForm(3, [1, 1], [[0, F(1, 3)], [F(2, 3), 0]], 1)


def test_rejects_singular_gram():
    with pytest.raises(SingularForm):
        FiniteLinkingForm(3, [1], [[F(0)]], 1)


@pytest.mark.parametrize("build", [
    lambda gram: FiniteLinkingForm(3, [1, 1], gram, 1),
    lambda gram: primary_decompose([3, 5], gram, 1),
])
@pytest.mark.parametrize("gram", [[[F(1, 3)]], [[F(1, 3), 0], [0]]])
def test_rejects_gram_of_wrong_shape(build, gram):
    with pytest.raises(ValueError):
        build(gram)


def test_skew_diagonal_must_vanish():
    with pytest.raises(ValueError):
        FiniteLinkingForm(3, [1, 1], [[F(1, 3), F(1, 3)], [F(2, 3), 0]], -1)


# ---------------------------------------------------------------------------
# primary decomposition
# ---------------------------------------------------------------------------

def test_primary_decompose_order_six():
    parts = primary_decompose([6], [[F(1, 6)]], 1)
    assert sorted(parts) == [2, 3]
    assert parts[2].orders == (1,)
    assert parts[2].gram == ((F(1, 2),),)
    # the 3-part is generated by 2g with self-linking 4/6 = 2/3
    assert parts[3].gram == ((F(2, 3),),)


def test_primary_parts_are_orthogonal_and_exhaust_order():
    orders = [12, 45]
    gram = [[F(1, 12), F(1, 3)], [F(1, 3), F(2, 45)]]
    parts = primary_decompose(orders, gram, 1)
    assert sorted(parts) == [2, 3, 5]
    total = 1
    for f in parts.values():
        total *= form_order(f)
    assert total == 12 * 45


def test_primary_decompose_rejects_singular():
    with pytest.raises(SingularForm):
        primary_decompose([9], [[F(1, 3)]], 1)


def test_primary_decompose_rejects_cross_prime_entry():
    # 1/7 pairs Z/3 with Z/5 but neither order kills it; no primary part
    # carries the cross entry, so only the whole-pairing check sees it
    with pytest.raises(ValueError):
        primary_decompose([3, 5], [[F(1, 3), F(1, 7)], [F(1, 7), F(1, 5)]], 1)


def test_primary_decompose_rejects_singular_cross_prime_pairing():
    # the 3-part of Z/15 pairs nonsingularly, but the 5-part, generated by
    # 3g, has self-linking 9/3 = 0
    with pytest.raises(SingularForm):
        primary_decompose([15], [[F(1, 3)]], 1)


@st.composite
def nonsingular_integral_forms(draw):
    epsilon = draw(st.sampled_from([1, -1]))
    n = draw(st.sampled_from([2, 4, 6] if epsilon == -1 else range(1, 7)))
    entries = st.integers(-6, 6)
    a = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            x = draw(entries) if i != j or epsilon == 1 else 0
            a[i][j], a[j][i] = x, epsilon * x
    assume(Matrix.from_ints(a).det() != 0)
    return a, epsilon


@given(nonsingular_integral_forms())
@settings(max_examples=80, deadline=None)
def test_boundary_parts_pass_their_own_checks(form):
    """`primary_decompose` builds the parts unchecked; the whole-pairing
    checks imply each part's, on the mixed presentations of boundaries."""
    alpha, epsilon = form
    parts = boundary_of_form(alpha, epsilon)
    for part in parts.values():
        finite._check_pairing(part.mixed_orders(), part.num, part.q,
                              part.epsilon)
    order = prod(form_order(part) for part in parts.values())
    assert order == abs(Matrix.from_ints(alpha).det())


def _merged_presentation(rng, f, g):
    """A mixed presentation of f (+) g: the first k generators of f and of
    g are merged into generators x_i + y_i of order p^a q^b, and the
    generators are shuffled."""
    k = rng.randint(0, min(f.rank, g.rank))
    gens = [(i, i) for i in range(k)]
    gens += [(i, None) for i in range(k, f.rank)]
    gens += [(None, j) for j in range(k, g.rank)]
    rng.shuffle(gens)
    fo, go = f.mixed_orders(), g.mixed_orders()
    orders = [(fo[i] if i is not None else 1) * (go[j] if j is not None else 1)
              for i, j in gens]
    gram = [[(f.gram[i][i2] if None not in (i, i2) else 0)
             + (g.gram[j][j2] if None not in (j, j2) else 0)
             for i2, j2 in gens] for i, j in gens]
    return orders, gram


@given(st.sampled_from([(2, 3), (3, 5), (3, 7), (5, 7)]),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_merged_primary_parts_pass_their_own_checks(primes, seed, data):
    """Block sums of primary forms at two primes, under a change of
    generators that merges and shuffles them: every part passes its own
    checks, and the multisignature is the sum of the two forms'."""
    rng = random.Random(seed)
    p, q = primes
    f, g = (data.draw(small_forms(primes=(r,))) for r in (p, q))
    f = apply_generator_change(f, random_automorphism(rng, f))
    g = apply_generator_change(g, random_automorphism(rng, g))
    orders, gram = _merged_presentation(rng, f, g)
    parts = primary_decompose(orders, gram, 1)
    assert sorted(parts) == [p, q]
    for part, whole in ((parts[p], f), (parts[q], g)):
        finite._check_pairing(part.mixed_orders(), part.num, part.q,
                              part.epsilon)
        assert sorted(part.orders) == sorted(whole.orders)
    if p != 2:
        assert mixed_multisignature(orders, gram, 1) == \
            dw_multisignature(f) + dw_multisignature(g)


# ---------------------------------------------------------------------------
# homogeneous splitting
# ---------------------------------------------------------------------------

def test_split_mixed_example():
    f = FiniteLinkingForm(3, [1, 2], [[F(1, 3), F(1, 3)], [F(1, 3), F(1, 9)]], 1)
    pieces = homogeneous_split(f)
    assert [l for l, _ in pieces] == [1, 2]
    assert pieces[0][1].gram == ((F(1, 3),),)
    assert pieces[1][1].gram == ((F(1, 9),),)


def test_split_skew_uses_rank_two_pieces():
    gram = [
        [0, F(1, 9), 0, 0],
        [F(8, 9), 0, 0, 0],
        [0, 0, 0, F(1, 3)],
        [0, 0, F(2, 3), 0],
    ]
    f = FiniteLinkingForm(3, [2, 2, 1, 1], gram, -1)
    pieces = homogeneous_split(f)
    assert [(l, piece.rank) for l, piece in pieces] == [(1, 2), (2, 2)]


def test_split_preserves_multisignature():
    f = FiniteLinkingForm(
        3, [1, 2, 2],
        [[F(1, 3), F(1, 3), F(2, 3)],
         [F(1, 3), F(1, 9), F(1, 9)],
         [F(2, 3), F(1, 9), F(2, 9)]],
        1,
    )
    whole = dw_multisignature(f)
    split_sum = DWMultiSignatureZ({})
    for _, piece in homogeneous_split(f):
        split_sum = split_sum + dw_multisignature(piece)
    assert whole == split_sum


# ---------------------------------------------------------------------------
# auxiliary forms
# ---------------------------------------------------------------------------

def test_auxiliary_modules_three_levels():
    f = FiniteLinkingForm(
        2, [1, 2, 5],
        [[F(1, 2), 0, 0], [0, F(1, 4), 0], [0, 0, F(1, 32)]],
        1,
    )
    assert auxiliary_modules(f) == {1: 1, 2: 1, 5: 1}


def test_auxiliary_form_level_two():
    f = FiniteLinkingForm(3, [2], [[F(1, 9)]], 1)
    aux = auxiliary_form(f, 2)
    assert aux.gram == ((1,),)
    assert aux.v == 1


def test_auxiliary_form_ignores_shallower_levels():
    f = FiniteLinkingForm(3, [1, 2], [[F(1, 3), F(1, 3)], [F(1, 3), F(1, 9)]], 1)
    assert auxiliary_form(f, 1).gram == ((1,),)
    assert auxiliary_form(f, 2).gram == ((1,),)


def test_auxiliary_form_rejects_even_prime():
    f = FiniteLinkingForm(2, [1], [[F(1, 2)]], 1)
    with pytest.raises(EvenPrimeUnsupported):
        auxiliary_form(f, 1)


def test_auxiliary_gram_symmetry_enforced():
    # the gram claims v = -1 but is symmetric; the Witt class refuses it
    aux = AuxiliaryFormFp(3, 1, ((0, 1), (1, 0)), -1)
    with pytest.raises(ValueError):
        witt_class_fp(aux.prime, aux.gram, aux.v)


# ---------------------------------------------------------------------------
# Witt classes over F_p
# ---------------------------------------------------------------------------

def test_witt_class_anchors():
    assert witt_class_fp(5, [[1]]) == WittClassFp(5, 1, "square")
    assert witt_class_fp(5, [[2]]) == WittClassFp(5, 1, "nonsquare")
    assert witt_class_fp(3, [[1, 0], [0, 2]]).is_zero


def test_witt_class_refuses_a_bad_parity_or_class():
    with pytest.raises(ValueError, match="bad rank parity"):
        WittClassFp(5, 2, "square")
    with pytest.raises(ValueError, match="bad discriminant class"):
        WittClassFp(5, 1, "cube")


def test_witt_class_and_auxiliary_form_are_frozen_values():
    a, b = WittClassFp(7, 1, "nonsquare"), witt_class_fp(7, [[3]])
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert a != WittClassFp(7, 1, "square") and a != WittClassFp(5, 1,
                                                                "nonsquare")
    aux = AuxiliaryFormFp(3, 1, ((0, 1), (2, 0)), -1)
    assert aux == AuxiliaryFormFp(3, 1, ((0, 1), (2, 0)), -1)
    assert aux.rank == 2
    for record, field in ((a, "rank_mod_2"), (aux, "gram"), (aux, "v")):
        with pytest.raises(AttributeError):
            setattr(record, field, 0)
    with pytest.raises(AttributeError):
        a.note = "a value has no other attributes"


def test_witt_class_skew_is_zero():
    assert witt_class_fp(3, [[0, 1], [2, 0]], symmetry=-1).is_zero


@pytest.mark.parametrize("gram", [[[1], [2]], [[1, 0], [0]]])
def test_witt_class_rejects_non_square(gram):
    # the symmetry check once read entries past a short row: IndexError
    with pytest.raises(ValueError, match="gram must be square"):
        witt_class_fp(3, gram)


def test_witt_class_rejects_singular():
    with pytest.raises(SingularForm):
        witt_class_fp(3, [[3]])


def test_witt_class_rejects_even_prime():
    with pytest.raises(EvenPrimeUnsupported):
        witt_class_fp(2, [[1]])


@pytest.mark.parametrize("entry", [1.0, 0.0, F(1), F(0), "1"])
def test_witt_class_refuses_entries_that_are_not_integers(entry):
    # the elimination's // would take a float or a Fraction, and a zero
    # one would read as singular: the refusal comes first
    for gram in ([[entry]], [[1, entry], [entry, 1]]):
        with pytest.raises(TypeError):
            witt_class_fp(3, gram)


def test_witt_class_takes_bools_as_integers():
    assert witt_class_fp(3, [[True]]) == witt_class_fp(3, [[1]])
    assert witt_class_fp(5, [[True, False], [False, True]]) == \
        witt_class_fp(5, [[1, 0], [0, 1]])


def test_determinant_mod_p_against_the_fp_elimination():
    """`_det` of rows reduced mod p, the route `witt_class_fp` and the
    adjoint check take, against the elimination over F_p it replaced, on
    sizes 0-8, entries in [0, p) and in +-10^6, and matrices singular over
    Z or singular only mod p; `_det` of the rows themselves agrees mod p."""
    rng = random.Random("det-mod-p")
    seen = dict.fromkeys(("nonzero mod p", "singular over Z",
                          "singular mod p only"), 0)
    for p in (3, 5, 7, 2**61 - 1):
        for n in range(9):
            for kind in ("residues", "wide", "singular", "singular mod p"):
                def entry():
                    if kind == "residues":
                        return rng.randrange(p)
                    return rng.randint(-10**6, 10**6)

                rows = [[entry() for _ in range(n)] for _ in range(n)]
                if n and kind.startswith("singular"):
                    coeffs = [rng.randint(-3, 3) for _ in range(n - 1)]
                    rows[-1] = [sum(c * r[j] for c, r in zip(coeffs, rows))
                                for j in range(n)]
                    if kind == "singular mod p":
                        rows[-1] = [x + p * entry() for x in rows[-1]]
                    rng.shuffle(rows)
                want = det_mod_p(rows, p)
                assert _det([[x % p for x in r] for r in rows]) % p == want
                det = _det(rows)
                assert det % p == want
                if n and kind == "singular":
                    assert det == 0
                    seen["singular over Z"] += 1
                elif n and kind == "singular mod p":
                    assert want == 0
                    seen["singular mod p only"] += det != 0
                else:
                    seen["nonzero mod p"] += want != 0
    assert min(seen.values()) >= 20, seen


def test_witt_group_exponent_four_at_three_mod_four():
    one = witt_class_fp(3, [[1]])
    two = one + one
    assert not two.is_zero
    assert (two + two).is_zero
    assert not (two + one).is_zero


def test_witt_group_exponent_two_at_one_mod_four():
    for p in (5, 13):
        for gram in ([[1]], [[nonsquare_unit(p)]]):
            c = witt_class_fp(p, gram)
            assert (c + c).is_zero


def test_witt_sum_invariant_under_hyperbolic_padding():
    # the signed discriminant absorbs the -1 the plain determinant picks up
    for p in (3, 5, 13):
        plane = witt_class_fp(p, [[0, 1], [1, 0]])
        assert plane.is_zero
        anything = witt_class_fp(p, [[2 % p]])
        assert anything + plane == anything


def test_doubled_cyclic_classes_agree():
    # <1> + <1> and <u> + <u> land on the same class for every odd p
    for p in (3, 5, 13):
        u = nonsquare_unit(p)
        a = witt_class_fp(p, [[1]])
        b = witt_class_fp(p, [[u]])
        assert a + a == b + b
        assert a != b


# ---------------------------------------------------------------------------
# multisignature
# ---------------------------------------------------------------------------

def test_multisignature_opposite_cyclic_pair():
    ms = dw_multisignature(
        FiniteLinkingForm(3, [1, 1], [[F(1, 3), 0], [0, F(2, 3)]], 1))
    assert multisignature_support(ms) == [(3, 1)]
    assert ms.get(3, 1).is_zero  # present even though the class vanishes
    assert ms.all_zero


def test_multisignature_deep_cyclic():
    ms = dw_multisignature(FiniteLinkingForm(3, [2], [[F(1, 9)]], 1))
    assert multisignature_support(ms) == [(3, 2)]
    assert not ms.all_zero


def test_multisignature_rejects_two_part():
    with pytest.raises(EvenPrimeUnsupported):
        mixed_multisignature([6], [[F(1, 6)]], 1)


def test_forgetful_keeps_odd_levels_only():
    ms = dw_multisignature(
        FiniteLinkingForm(3, [1, 2], [[F(1, 3), 0], [0, F(1, 9)]], 1))
    fw = forgetful_witt(ms)
    assert fw[3] == witt_class_fp(3, [[1]])
    ms_even = dw_multisignature(FiniteLinkingForm(3, [2], [[F(1, 9)]], 1))
    assert forgetful_witt(ms_even)[3].is_zero


def test_classify_spec_trio():
    deep = FiniteLinkingForm(3, [2], [[F(1, 9)]], 1)
    assert classify(deep, "metabolic")
    assert not classify(deep, "hyperbolic")
    pair = FiniteLinkingForm(3, [1, 1], [[F(1, 3), 0], [0, F(2, 3)]], 1)
    assert classify(pair, "hyperbolic")
    single = FiniteLinkingForm(3, [1], [[F(1, 3)]], 1)
    assert not classify(single, "metabolic")


def test_classify_rejects_even_prime():
    f = FiniteLinkingForm(2, [1], [[F(1, 2)]], 1)
    with pytest.raises(EvenPrimeUnsupported):
        classify(f, "metabolic")


def test_classify_rejects_unknown_question():
    f = FiniteLinkingForm(3, [1], [[F(1, 3)]], 1)
    with pytest.raises(ValueError):
        classify(f, "round")


def test_devissage_even_levels_metabolic():
    for p in (3, 5):
        for u in (1, nonsquare_unit(p)):
            f = diagonal_form(p, [2], [u])
            assert classify(f, "metabolic")
            assert classify(f, "hyperbolic") == witt_class_fp(
                p, [[u]]).is_zero


# ---------------------------------------------------------------------------
# properties: additivity and isomorphism invariance
# ---------------------------------------------------------------------------

@st.composite
def small_forms(draw, primes=(3, 5)):
    p = draw(st.sampled_from(primes))
    n = draw(st.integers(1, 3))
    levels = sorted(
        (draw(st.integers(1, 2)) for _ in range(n)), reverse=True)
    units = [draw(st.integers(1, p - 1)) for _ in range(n)]
    return diagonal_form(p, levels, units)


@given(small_forms(), small_forms())
@settings(max_examples=60, deadline=None)
def test_multisignature_additive(f, g):
    orders = f.mixed_orders() + g.mixed_orders()
    n, m = f.rank, g.rank
    gram = [[F(0)] * (n + m) for _ in range(n + m)]
    for i in range(n):
        for j in range(n):
            gram[i][j] = f.gram[i][j]
    for i in range(m):
        for j in range(m):
            gram[n + i][n + j] = g.gram[i][j]
    left = mixed_multisignature(orders, gram, 1)
    right = dw_multisignature(f) + dw_multisignature(g)
    assert left == right


@given(small_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_multisignature_presentation_invariant(f, seed):
    rng = random.Random(seed)
    cols = random_automorphism(rng, f)
    g = apply_generator_change(f, cols)
    assert dw_multisignature(g) == dw_multisignature(f)


@given(small_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_split_pieces_sum_to_original_class(f, seed):
    rng = random.Random(seed)
    g = apply_generator_change(f, random_automorphism(rng, f))
    total = DWMultiSignatureZ({})
    for _, piece in homogeneous_split(g):
        total = total + dw_multisignature(piece)
    assert total == dw_multisignature(g)


# ---------------------------------------------------------------------------
# boundaries
# ---------------------------------------------------------------------------

def test_boundary_of_four_is_quarter_form():
    parts = boundary_of_form([[4]], 1)
    assert list(parts) == [2]
    assert parts[2].orders == (2,)
    assert parts[2].gram == ((F(1, 4),),)


def test_boundary_of_cartan_matrix():
    parts = boundary_of_form([[2, 1], [1, 2]], 1)
    assert list(parts) == [3]
    assert parts[3].gram == ((F(2, 3),),)


def test_boundary_of_unimodular_is_empty():
    assert boundary_of_form([[1, 0], [0, -1]], 1) == {}


def test_boundary_rejects_singular():
    with pytest.raises(SingularOverFractionField):
        boundary_of_form([[1, 1], [1, 1]], 1)


def test_boundary_rejects_wrong_symmetry():
    with pytest.raises(ValueError):
        boundary_of_form([[0, 1], [2, 0]], 1)


M61 = 2**61 - 1  # prime, with no factor for trial division to find


def test_trial_division_stops_at_its_bound():
    # a product of primes up to the bound, and a prime below its square
    assert finite._factor(999983 * 999979) == {999979: 1, 999983: 1}
    assert finite._factor(999999999989) == {999999999989: 1}
    assert finite._factor(2**40 * 3**7 * 999983) == {2: 40, 3: 7, 999983: 1}
    with pytest.raises(FactorizationTooLarge, match="cannot factor"):
        finite._factor(1000003**2)
    with pytest.raises(FactorizationTooLarge):
        finite._factor(M61)
    with pytest.raises(FactorizationTooLarge):
        FiniteLinkingForm(M61, [1], [[F(1, M61)]], 1)
    with pytest.raises(FactorizationTooLarge):
        boundary_of_form([[M61]], 1)


def _lagrangian_certificate(alpha: Matrix, witness: Matrix) -> bool:
    """The image of the witness columns in coker(alpha) self-annihilates and
    has square order |T|: witness^T alpha^{-1} witness integral, and the
    index of (witness columns + alpha columns) in Z^n squares to |det alpha|."""
    inv = Matrix.from_ints(alpha.rows).inverse()
    prod = witness.map(F).transpose() * inv * witness.map(F)
    if any(x.denominator != 1 for row in prod.rows for x in row):
        return False
    stacked = hstack(witness, alpha)
    divs = [d for d in smith_normal_form(stacked).divisors if d]
    index = 1
    for d in divs:
        index *= abs(d)
    det = Matrix.from_ints(alpha.rows).det()
    return index * index == abs(det)


@given(st.integers(0, 2**32 - 1), st.sampled_from([1, -1]))
@settings(max_examples=80, deadline=None)
def test_boundary_lagrangian_from_morphism(seed, epsilon):
    """A morphism f into a unimodular form with f an isomorphism over Q
    makes the columns of f^T alpha' a lagrangian of the boundary of
    f^T alpha' f."""
    rng = random.Random(seed)
    n = rng.choice([2, 4]) if epsilon == -1 else rng.choice([2, 3, 4])
    if epsilon == 1:
        unimod = Matrix.identity(n, 1)
    else:
        blocks = [Matrix([[0, 1], [-1, 0]]) for _ in range(n // 2)]
        unimod = Matrix.block_diag(blocks, 0)
    while True:
        f = Matrix([[rng.randrange(-3, 4) for _ in range(n)]
                    for _ in range(n)])
        if Matrix.from_ints(f.rows).det() != 0:
            break
    alpha = f.transpose() * unimod * f
    witness = f.transpose() * unimod
    assert _lagrangian_certificate(alpha, witness)


# ---------------------------------------------------------------------------
# boundary-complementary exactness
# ---------------------------------------------------------------------------

def test_complementary_axes_of_hyperbolic_plane():
    assert verify_boundary_complementary([[0, 1], [1, 0]], [[1], [0]], [[0], [1]])


def test_complementary_rejects_rank_one():
    with pytest.raises(NotAnSLagrangian):
        verify_boundary_complementary([[4]], [[1]], [[1]])


def test_complementary_rejects_non_isotropic():
    with pytest.raises(NotAnSLagrangian):
        verify_boundary_complementary(
            [[2, 0], [0, 2]], [[1], [0]], [[0], [1]])


def test_complementary_detects_failed_exactness():
    # both columns are S-lagrangians, but they share the first axis, so the
    # middle map cannot be onto
    alpha = [
        [0, 2, 0, 0],
        [2, 0, 0, 0],
        [0, 0, 0, 2],
        [0, 0, 2, 0],
    ]
    lplus = [[1, 0], [0, 0], [0, 1], [0, 0]]
    lminus = [[1, 0], [0, 0], [0, 0], [0, 1]]
    assert verify_boundary_complementary(alpha, lplus, lminus) is False


def test_complementary_scaled_plane():
    assert verify_boundary_complementary([[0, 3], [3, 0]], [[1], [0]], [[0], [1]])


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_complementary_under_base_change(seed):
    """Unimodular base change of a verified pair stays verified."""
    rng = random.Random(seed)
    d1, d2 = rng.choice([1, 2, 3, 4]), rng.choice([1, 2, 3, 4])
    alpha = Matrix([[0, 0, d1, 0], [0, 0, 0, d2],
                    [d1, 0, 0, 0], [0, d2, 0, 0]])
    basis = Matrix.identity(4, 1)
    for _ in range(4):
        i, j = rng.sample(range(4), 2)
        e = Matrix.identity(4, 1)
        e.rows[i][j] = rng.randrange(-2, 3)
        basis = basis * e
    moved = basis.transpose() * alpha * basis
    binv = Matrix.from_ints(basis.rows).inverse().map(lambda x: int(x))
    lp = binv * Matrix([[1, 0], [0, 1], [0, 0], [0, 0]])
    lm = binv * Matrix([[0, 0], [0, 0], [1, 0], [0, 1]])
    assert verify_boundary_complementary(moved, lp, lm)


# invariance under change of basis: the multisignature and the verdicts are
# isometry invariants, so a unimodular P^T alpha P, or new generators within
# one order of a part, must give the same answers

CALL_SECONDS = 1


def timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    assert time.perf_counter() - start < CALL_SECONDS, f.__name__
    return out


def odd_answers(parts) -> dict:
    """{p: (multisignature, metabolic, hyperbolic)} of the odd parts."""
    return {p: (timed(dw_multisignature, part),
                timed(classify, part, "metabolic"),
                timed(classify, part, "hyperbolic"))
            for p, part in parts.items() if p != 2}


@st.composite
def forms_in_new_bases(draw):
    """A nonsingular integral form alpha and P^T alpha P for the unimodular
    P made from the identity by a few column operations."""
    alpha, epsilon = draw(nonsingular_integral_forms())
    n = len(alpha)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for _ in range(draw(st.integers(1, 5)) if n > 1 else 0):
        i, j = draw(st.permutations(range(n)))[:2]
        s = draw(st.integers(-2, 2))
        cols[i] = [x + s * y for x, y in zip(cols[i], cols[j])]
    moved = [[sum(a * alpha[r][c] * b for r, a in enumerate(u)
                  for c, b in enumerate(v)) for v in cols] for u in cols]
    return alpha, moved, epsilon


# derandomize: the same draw on every run, so that tier-1 time repeats
@settings(max_examples=80, deadline=None, derandomize=True)
@given(forms_in_new_bases())
def test_boundary_invariants_do_not_see_the_basis(forms):
    alpha, moved, epsilon = forms
    parts = timed(boundary_of_form, alpha, epsilon)
    moved_parts = timed(boundary_of_form, moved, epsilon)
    assert sorted(moved_parts) == sorted(parts)
    assert odd_answers(moved_parts) == odd_answers(parts)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(nonsingular_integral_forms(), st.randoms(use_true_random=False))
def test_invariants_do_not_see_generators_within_one_order(form, rng):
    # a matrix invertible mod p on the generators of one order l of a
    # boundary part is an automorphism of its group
    parts = boundary_of_form(*form)
    for p, part in parts.items():
        if p == 2:
            continue
        level = rng.choice(part.orders)
        block = [i for i, l in enumerate(part.orders) if l == level]
        while True:
            change = [[rng.randrange(p**level) for _ in block]
                      for _ in block]
            if Matrix.from_ints(change).det() % p:
                break
        cols = [[int(a == i) for i in range(part.rank)]
                for a in range(part.rank)]
        for x, a in enumerate(block):
            for y, i in enumerate(block):
                cols[a][i] = change[x][y]
        moved = apply_generator_change(part, cols)
        assert odd_answers({p: moved}) == odd_answers({p: part})


# ---------------------------------------------------------------------------
# the integer checks against the Fraction routes they replaced
# ---------------------------------------------------------------------------

def _verdict(run):
    """None when run() returns, else the type and message it raised."""
    try:
        run()
    except Exception as exc:  # noqa: BLE001 - compared, never swallowed
        return type(exc), str(exc)
    return None


def _mutations(orders, gram, primes):
    """The gram and, where they apply, a symmetry break, an annihilation
    break, a singular adjoint and a denominator prime to every order."""
    n, q = len(orders), max(orders)
    out = [("same", gram)]

    def moved(i, j, dx):
        g = [list(r) for r in gram]
        g[i][j] += dx
        return g

    if n > 1:
        out.append(("symmetry", moved(0, 1, F(1, orders[0]))))
    out.append(("annihilation", moved(0, 0, F(1, primes[0] * q))))
    out.append(("singular", [[x * primes[0] for x in r] for r in gram]))
    out.append(("foreign denominator", moved(0, 0, F(1, 11))))
    return out


def _assert_same_parts(parts, orders, gram):
    expected = fraction_primary_grams(orders, gram)
    assert sorted(parts) == sorted(expected)
    for p, part in parts.items():
        assert part.gram == expected[p]
        assert part.q == p ** max(part.orders)
        assert all(0 <= x < part.q for row in part.num for x in row)


@given(small_forms(), st.integers(0, 2**32 - 1))
@settings(max_examples=60, deadline=None)
def test_integer_checks_match_fraction_checks(f, seed):
    """A p-primary gram, presented by a random automorphism, and its
    mutations: the constructor raises what the Fraction checks raise, and
    a form it builds has the gram those checks read."""
    rng = random.Random(seed)
    g = apply_generator_change(f, random_automorphism(rng, f))
    for what, gram in _mutations(g.mixed_orders(), g.gram, [g.prime]):
        got = _verdict(lambda: FiniteLinkingForm(g.prime, g.orders, gram, 1))
        want = _verdict(lambda: fraction_check(g.prime, g.orders, gram, 1))
        assert got == want, what
        if what == "same":
            assert want is None
            built = FiniteLinkingForm(g.prime, g.orders, gram, 1)
            assert built.gram == fraction_gram(gram)
            assert built.q == g.prime ** max(g.orders)
        elif what != "foreign denominator":
            assert want is not None, what


@given(st.sampled_from([(2, 3), (3, 5), (3, 7), (5, 7)]),
       st.integers(0, 2**32 - 1), st.data())
@settings(max_examples=60, deadline=None)
def test_integer_checks_match_on_mixed_presentations(primes, seed, data):
    """Merged mixed-order presentations, p = 2 included, and their
    mutations: `primary_decompose` raises what the Fraction checks raise,
    and its parts carry the grams the Fraction route built."""
    rng = random.Random(seed)
    p, q = primes
    f, g = (data.draw(small_forms(primes=(r,))) for r in (p, q))
    f = apply_generator_change(f, random_automorphism(rng, f))
    g = apply_generator_change(g, random_automorphism(rng, g))
    orders, gram = _merged_presentation(rng, f, g)
    for what, mutated in _mutations(orders, gram, primes):
        got = _verdict(lambda: primary_decompose(orders, mutated, 1))
        want = _verdict(lambda: linking_oracle._check_pairing(
            orders, fraction_gram(mutated), 1))
        assert got == want, what
        if what == "same":
            _assert_same_parts(primary_decompose(orders, gram, 1),
                               orders, gram)


@given(nonsingular_integral_forms())
@settings(max_examples=80, deadline=None)
def test_boundary_matches_fraction_pairing(form):
    """The integer Smith-basis pairing gives the parts the Fraction
    pairing U^{-T} V D^{-1} gave, and its mutations are judged alike."""
    alpha, epsilon = form
    orders, gram = fraction_boundary_gram(alpha)
    _assert_same_parts(boundary_of_form(alpha, epsilon), orders, gram)
    if not orders:
        return
    primes = sorted(finite._factor(orders[0]))
    for what, mutated in _mutations(orders, gram, primes):
        got = _verdict(lambda: primary_decompose(orders, mutated, epsilon))
        want = _verdict(lambda: linking_oracle._check_pairing(
            orders, fraction_gram(mutated), epsilon))
        assert got == want, what


def _random_pairing(rng):
    """A symmetric gram on (+) Z/n_i with mixed orders of 2, 3 and 5 whose
    entries the orders annihilate, so only the adjoint can fail."""
    n = rng.randint(1, 4)
    orders = [2 ** rng.randint(0, 2) * 3 ** rng.randint(0, 2)
              * 5 ** rng.randint(0, 1) for _ in range(n)]
    orders = [o if o > 1 else 3 for o in orders]
    gram = [[F(0)] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            d = gcd(orders[i], orders[j])
            gram[i][j] = gram[j][i] = F(rng.randrange(d), d)
    return orders, gram


def test_adjoint_matches_smith_form():
    """det M[I, I] mod p for every p against all SNF divisors of
    [N | diag(n)] being 1, on random mixed-order pairings."""
    rng = random.Random(2201)
    verdicts = set()
    for _ in range(600):
        orders, gram = _random_pairing(rng)
        num, q = finite._numerators(gram)
        want = linking_oracle._adjoint_is_iso(orders, fraction_gram(gram))
        assert finite._adjoint_is_iso(orders, num, q) == want, (orders, gram)
        verdicts.add(want)
    assert verdicts == {True, False}


@pytest.mark.parametrize("p", [3, 5, 7])
def test_witt_class_matches_fraction_determinant(p):
    """witt_class_fp by elimination mod p against the Fraction
    determinant: symmetric, skew, singular, asymmetric and non-square
    grams."""
    rng = random.Random(p)
    for _ in range(300):
        n = rng.randint(0, 4)
        v = rng.choice([1, -1])
        gram = [[0] * n for _ in range(n)]
        for i in range(n):
            for j in range(i, n):
                x = rng.randrange(-2 * p, 2 * p)
                gram[i][j], gram[j][i] = x, v * x if i != j else x
        if v == -1:
            for i in range(n):
                gram[i][i] = p * rng.randint(-1, 1)
        if n and rng.random() < 0.2:
            gram[0][n - 1] += 1
        if n and rng.random() < 0.1:
            gram = [row + [0] for row in gram]
        got = _verdict(lambda: finite.witt_class_fp(p, gram, v))
        want = _verdict(lambda: linking_oracle.witt_class_fp(p, gram, v))
        assert got == want
        if want is None:
            assert finite.witt_class_fp(p, gram, v) == \
                linking_oracle.witt_class_fp(p, gram, v)


@given(small_forms())
@settings(max_examples=40, deadline=None)
def test_multisignature_classes_match_fraction_determinant(f):
    for l in auxiliary_modules(f):
        aux = auxiliary_form(f, l)
        assert witt_class_fp(f.prime, aux.gram, aux.v) == \
            linking_oracle.witt_class_fp(f.prime, aux.gram, aux.v)


def test_integral_member_matches_entrywise_products():
    # the witness check's one `_gauss_jordan` of [B | v] (`seifert._spans`)
    # against the entrywise products with the oracle's Smith transform U,
    # on random bases of full column rank given as integer rows, with
    # integer vectors in the lattice, in its Q-span only and off it.  Z
    # mode asks for the lattice; Q mode for the Q-span, which holds v
    # exactly when the lattice holds q v, q the product of the divisors.
    # A non-integral vector is in no lattice, and its multiple over the
    # lcm of its denominators is tested instead.  A dependent basis is
    # redrawn: SeifertSubmodule refuses one before the check runs
    rng = random.Random(61)
    verdicts = []
    while len(verdicts) < 900:
        m, k = rng.randint(1, 5), rng.randint(1, 4)
        cols = [[rng.randint(-4, 4) for _ in range(m)] for _ in range(k)]
        rows = [[c[i] for c in cols] for i in range(m)]
        divisors = smith_normal_form(Matrix(rows)).divisors
        if len(divisors) < k or 0 in divisors:
            continue
        want = linking_oracle.integral_member(Matrix.from_ints(rows))
        vecs = []
        for _ in range(6):
            coeffs = [F(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
                      for _ in cols]
            vec = [sum(a * c[i] for a, c in zip(coeffs, cols))
                   for i in range(m)]
            if rng.random() < 0.3:
                vec[rng.randrange(m)] += rng.choice([1, F(1, 2)])
            den = lcm(*(x.denominator for x in vec))
            if den != 1:
                assert not want(vec)
                vec = [int(x * den) for x in vec]
            vecs.append(vec)
            img = [[x] for x in vec]
            verdicts.append((seifert._spans(rows, k, img, True),
                             seifert._spans(rows, k, img, False)))
            assert verdicts[-1] == (want(vec),
                                    want([prod(divisors) * x for x in vec]))
        img = [list(r) for r in zip(*vecs)]
        assert seifert._spans(rows, k, img, True) == all(
            z for z, _ in verdicts[-6:])
    counts = {v: verdicts.count(v) for v in set(verdicts)}
    assert counts[True, True] > 100 and counts[False, False] > 100
    assert counts[False, True] > 50
