"""Knot pipeline: Alexander polynomial, Blanchfield form, certified
Levine-Tristram signatures, and the slice / doubly-slice flags."""

import json
import math
import os
import random
import sys
import time
from fractions import Fraction
from operator import mul

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from wittkit.errors import (
    InvariantViolated,
    SingularForm,
    MixedSymmetry,
    NotAKnotForm,
    NotSymmetricCase,
    SingularAtRoot,
)
from wittkit.exact import polys, residue
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.catalog import catalog_knot, catalog_names
from wittkit.exact.matrix import Matrix
from wittkit.exact.roots import DEFAULT_PRECISION
from wittkit import knots
from wittkit.knots import (
    CLASSICAL_CAVEAT,
    COMPLETENESS_CAVEAT,
    KnotInput,
    alexander_polynomial,
    analyze,
    blanchfield_form,
    connected_sum,
    _u_in_y_gap,
    knot_inverse,
    levine_tristram_signature,
    lt_jumps,
    rochlin_invariant,
)
from wittkit.serialize import report_to_json
from wittkit.laurent_forms import (
    SIGMA_SIGN,
    dw_multisignature_laurent,
    witt_forgetful_laurent,
)

from lt_oracle import (
    charpoly_det_one_minus,
    cyclotomic_lt_signature,
    cyclotomic_order,
    cyclotomic_polynomial,
    fl_det_one_minus,
    laurent_circle_roots,
    laurent_steps,
    per_call_lt_signature,
    per_call_two_cos_bracket,
    singular_poly_in_y,
    symmetric_int_signature,
    turn_in_y_gap,
)
from covering_oracle import module_dimension_q
from elimination_oracle import fraction_matrix
from snf_oracle import pencil_adjugate
from test_seifert import SCALE_3, ladder_psi
import qpolys

TREFOIL = [[-1, 1], [0, -1]]
FIG8 = [[1, 1], [0, -1]]
# cyclic Blanchfield form on (z^2-z+1)^2 with one level-2 entry: the
# metabolic-but-not-hyperbolic separating example
LEVEL2 = [[-1, 1, 1, 0], [0, -2, -1, 2], [0, -1, 0, 1], [2, 1, 1, -2]]

E8 = [
    [2, -1, 0, 0, 0, 0, 0, 0],
    [-1, 2, -1, 0, 0, 0, 0, 0],
    [0, -1, 2, -1, 0, 0, 0, 0],
    [0, 0, -1, 2, -1, 0, 0, 0],
    [0, 0, 0, -1, 2, -1, 0, -1],
    [0, 0, 0, 0, -1, 2, -1, 0],
    [0, 0, 0, 0, 0, -1, 2, 0],
    [0, 0, 0, 0, -1, 0, 0, 2],
]


def trefoil(**kw):
    return KnotInput("trefoil", TREFOIL, -1, **kw)


def fig8(**kw):
    return KnotInput("figure-eight", FIG8, -1, **kw)


def unknot():
    return KnotInput("unknot", [], -1)


def fixture_knot(name):
    path = os.path.join(os.path.dirname(__file__), "fixtures", f"{name}.json")
    with open(path) as fh:
        doc = json.load(fh)
    return KnotInput(doc["name"], doc["psi"], doc["epsilon"])


def upper_half(sym):
    """Upper-triangular psi with psi + psi^T = sym (even diagonal)."""
    n = len(sym)
    return [[sym[i][j] // 2 if i == j else (sym[i][j] if i < j else 0)
             for j in range(n)] for i in range(n)]


def random_skew_knot(rng, max_rank=4):
    while True:
        n = rng.randint(1, max_rank)
        psi = [[rng.randint(-3, 3) for _ in range(n)] for _ in range(n)]
        try:
            return KnotInput("random", psi, -1)
        except NotAKnotForm:
            continue


def dense_of(p):
    return p.ordinary()[0]


def padded(p):
    """The LaurentPoly p, a polynomial, as a dense list from degree 0."""
    dense, low = p.ordinary()
    return [0] * low + dense


def det_dense(k):
    """D = `_det_one_minus(k)` as `Fraction`s, its power of z dropped."""
    return dense_of(LaurentPoly.from_dense(knots._det_one_minus(k)))


def roots_strictly_inside(g, lo, hi):
    """Isolating brackets of the real roots of g in the open (lo, hi)."""
    g = polys.primitive(g)
    found = polys.isolate_real_roots(g, lo, hi)
    if found and polys.value(g, hi.numerator, hi.denominator) == 0:
        found.pop()  # the last bracket ends at hi and holds only that root
    return found


# T(2, 5): its Alexander polynomial is Phi_10, irrational roots at 1/10, 3/10
T25 = [[-1, 1, 0, 0], [0, -1, 1, 0], [0, 0, -1, 1], [0, 0, 0, -1]]


# -- input validation --

class TestKnotInput:
    def test_trefoil_accepted(self):
        k = trefoil()
        assert k.rank == 2
        assert k.epsilon == -1
        assert k.name == "trefoil"

    def test_rejects_nonunimodular(self):
        # psi - psi^T is singular here
        with pytest.raises(NotAKnotForm):
            KnotInput("bad", [[1, 0], [0, 1]], -1)

    def test_rejects_nonsquare(self):
        with pytest.raises(NotAKnotForm):
            KnotInput("bad", [[1, 0]], -1)

    def test_rejects_noninteger(self):
        with pytest.raises(NotAKnotForm):
            KnotInput("bad", [[Fraction(1, 2), 1], [0, -1]], -1)

    def test_dimension_hint_consistency(self):
        assert trefoil(dimension_hint=1).dimension_hint == 1
        assert trefoil(dimension_hint=5).dimension_hint == 5
        with pytest.raises(NotAKnotForm):
            trefoil(dimension_hint=3)
        with pytest.raises(NotAKnotForm):
            trefoil(dimension_hint=2)
        with pytest.raises(NotAKnotForm):
            KnotInput("sym", [[0, 1], [0, 0]], 1, dimension_hint=1)
        assert KnotInput("sym", [[0, 1], [0, 0]], 1,
                         dimension_hint=3).dimension_hint == 3


# -- Alexander polynomial --

class TestAlexander:
    def test_trefoil(self):
        assert alexander_polynomial(trefoil()) == [1, -1, 1]

    def test_figure_eight(self):
        assert alexander_polynomial(fig8()) == [1, -3, 1]

    def test_unknot(self):
        assert alexander_polynomial(unknot()) == [1]

    def test_granny(self):
        granny = connected_sum(trefoil(), trefoil())
        assert alexander_polynomial(granny) == [1, -2, 3, -2, 1]

    def test_multiplicative_under_sum(self):
        rng = random.Random(5)
        for _ in range(10):
            a, b = random_skew_knot(rng), random_skew_knot(rng)
            assert alexander_polynomial(connected_sum(a, b)) == qpolys.mul(
                alexander_polynomial(a), alexander_polynomial(b))

    def test_value_at_one_is_a_unit(self):
        rng = random.Random(6)
        for _ in range(20):
            k = random_skew_knot(rng)
            assert sum(alexander_polynomial(k)) in (1, -1)
            assert alexander_polynomial(k)[-1] > 0

    def test_module_order_matches_pencil_determinant(self):
        knots = [catalog_knot(name) for name in catalog_names()]
        rng = random.Random(11)
        for rank in range(0, 9, 2):
            for epsilon in (-1, 1):
                knots += [seeded_seifert_knot(rng, rank, epsilon)
                          for _ in range(3)]
        # det psi = 0, so Trotter's reduction drops a kernel
        scale3 = KnotInput("scale-3", SCALE_3, -1)
        assert scale3.psi.det() == 0
        assert module_dimension_q(blanchfield_form(scale3).module) < scale3.rank
        # K # K and K # -K of a genus-2 knot: modules that are not cyclic
        genus2 = seeded_seifert_knot(random.Random(12), 4, -1)
        sums = [connected_sum(genus2, genus2),
                connected_sum(genus2, knot_inverse(genus2))]
        for k in sums:
            assert blanchfield_form(k).module.rank == 2
        knots += [scale3, *sums, unknot()]
        for k in knots:
            assert alexander_polynomial(k) == pencil_alexander(k), k.psi


def seeded_seifert_knot(rng, rank, epsilon):
    """psi = A + M - epsilon M^T with A the standard upper part, so
    psi + epsilon psi^T = A + epsilon A^T is unimodular."""
    m = [[rng.randint(-3, 3) for _ in range(rank)] for _ in range(rank)]
    psi = [[m[i][j] - epsilon * m[j][i]
            + (1 if i % 2 == 0 and j == i + 1 else 0)
            for j in range(rank)] for i in range(rank)]
    return KnotInput("seeded", psi, epsilon)


def pencil_alexander(k):
    """det((1-e) + ez) through the determinant of the adjugate pencil,
    normalized as alexander_polynomial normalizes it."""
    one = LaurentPoly.one()
    _, det = pencil_adjugate(fraction_matrix(k.seifert_form.e_pair), one,
                             one - LaurentPoly.z())
    dense = det.ordinary()[0]
    return dense if dense[-1] > 0 else [-c for c in dense]


# -- Blanchfield form --

class TestBlanchfield:
    def test_trefoil_module_and_symmetry(self):
        cov = blanchfield_form(trefoil())
        assert cov.epsilon == 1
        assert cov.module.total_divisor == [1, -1, 1]

    def test_symmetry_flips(self):
        k = KnotInput("sym", upper_half(E8), 1)
        assert blanchfield_form(k).epsilon == -1

    def test_unknot_is_zero(self):
        assert blanchfield_form(unknot()).module.is_zero

    @pytest.mark.parametrize("name", ["scale-6", "scale-7"])
    def test_large_ladder_knots(self, name):
        # ranks 12 and 14 (the CI scaling step analyzes scale-7): each
        # module is cyclic with the Alexander polynomial as its divisor
        path = os.path.join(os.path.dirname(__file__), "fixtures",
                            f"{name}.json")
        with open(path) as fh:
            doc = json.load(fh)
        k = KnotInput(doc["name"], doc["psi"], doc["epsilon"])
        cov = blanchfield_form(k)
        assert cov.module.total_divisor == alexander_polynomial(k)
        sums = witt_forgetful_laurent(dw_multisignature_laurent(cov))
        jumps = lt_jumps(k)
        assert set(jumps) == set(sums)
        for key, jump in jumps.items():
            assert jump == sums[key]
        assert any(jumps.values()) == (name == "scale-6")


# -- D = det(z psi - psi^T) --

def singular_psi_knot(rng, epsilon):
    """The first seeded genus-1 knot with det psi = 0."""
    while True:
        k = seeded_seifert_knot(rng, 2, epsilon)
        if k.psi.det() == 0:
            return k


def det_knots():
    """Seeded knots of genus 1-8 and both epsilons; K # -K for genus 1-3;
    and knots whose psi is singular (so the Trotter part R is proper):
    "scale-3" and genus-1 singular knots summed with seeded ones."""
    rng = random.Random(2030)
    out = [KnotInput("scale-3", SCALE_3, -1)]
    for epsilon in (-1, 1):
        singular = singular_psi_knot(rng, epsilon)
        out.append(singular)
        for genus in range(1, 9):
            k = seeded_seifert_knot(rng, 2 * genus, epsilon)
            out.append(k)
            if genus <= 3:
                out.append(connected_sum(k, knot_inverse(k)))
                out.append(connected_sum(singular, k))
    return out


class TestDetOneMinus:
    """`_det_one_minus` (Horner on the integer Berkowitz charpoly of e, a
    primitive dense list) against the Faddeev-LeVerrier route, up to sign,
    and the Alexander polynomial.  The class also runs under python -O,
    where an integrality check resting on an assert would vanish."""

    def test_matches_faddeev_leverrier_route(self):
        knots_ = det_knots()
        assert sum(k.psi.det() == 0 for k in knots_) >= 9
        for k in knots_:
            want = padded(fl_det_one_minus(k))
            assert knots._det_one_minus(k) in (want, [-c for c in want]), \
                k.psi

    def test_is_a_monomial_times_alexander(self):
        # D(z) = c z^j Delta(-epsilon z)
        for k in det_knots():
            turned = [c * (-k.epsilon) ** d
                      for d, c in enumerate(alexander_polynomial(k))]
            det = det_dense(k)
            assert len(det) == len(turned), k.psi
            assert [c * turned[-1] for c in det] == \
                [c * det[-1] for c in turned], k.psi

    def test_non_integral_charpoly_is_refused(self):
        # e = E / 2 has a charpoly that is not integral
        halved = []
        for k in (trefoil(), fig8()):
            e, _ = k.seifert_form.e_pair
            k.seifert_form.e_pair = (e, 2)
            halved.append(k)
        with pytest.raises(InvariantViolated):
            knots._det_one_minus(halved[0])
        with pytest.raises(InvariantViolated):
            lt_jumps(halved[1])


# -- Levine-Tristram signatures --

class TestLevineTristram:
    def test_trefoil_anchor(self):
        assert levine_tristram_signature(trefoil(), Fraction(2, 5)) == -2

    def test_trefoil_at_minus_one(self):
        assert levine_tristram_signature(trefoil(), Fraction(1, 2)) == -2

    def test_trefoil_small_angle(self):
        assert levine_tristram_signature(trefoil(), "1/10") == 0

    def test_conjugate_symmetry(self):
        rng = random.Random(7)
        for _ in range(5):
            k = random_skew_knot(rng, max_rank=3)
            t = Fraction(rng.randint(1, 9), 21)
            try:
                v = levine_tristram_signature(k, t)
            except SingularAtRoot:
                continue
            assert levine_tristram_signature(k, 1 - t) == v

    def test_unknot(self):
        assert levine_tristram_signature(unknot(), Fraction(1, 3)) == 0

    def test_rejects_float(self):
        with pytest.raises(TypeError):
            levine_tristram_signature(trefoil(), 0.4)

    def test_singular_at_one(self):
        with pytest.raises(SingularAtRoot):
            levine_tristram_signature(trefoil(), 0)

    def test_turns_normalize_on_integers(self):
        # int, "num/den", negative and > 1 turns all read as n / d with
        # 0 <= n <= d / 2: n mod d, then d - n past one half
        k = fixture_knot("scale-6")
        assert k.lt_steps.roots
        for t in SIX_TURNS + (Fraction(1, 2), Fraction(1, 1009)):
            want = levine_tristram_signature(fixture_knot("scale-6"), t)
            n, d = t.numerator, t.denominator
            for same in (f"{n}/{d}", f"-{n}/{d}", f"{n + 5 * d}/{d}",
                         -t, 1 - t, t + 3, -t - 2, Fraction(-n - 4 * d, d)):
                assert levine_tristram_signature(k, same) == want, same
        for turn in (0, 1, -3, 7, True, "4", "-2/1", Fraction(5), "6/3"):
            with pytest.raises(SingularAtRoot, match="omega = 1"):
                levine_tristram_signature(k, turn)
        # rank 0 answers before the turn is checked; a singular turn is
        # named in lowest terms, in [0, 1/2]
        assert levine_tristram_signature(unknot(), 0) == 0
        with pytest.raises(SingularAtRoot, match="turn 1/6 is"):
            levine_tristram_signature(trefoil(), "-7/6")
        with pytest.raises(SingularAtRoot, match="turn 1/6 is"):
            levine_tristram_signature(trefoil(), Fraction(10, 12))

    def test_warm_turns_take_no_bracket_and_no_fraction(self, monkeypatch):
        # a placed turn's value is kept on the knot's step function by its
        # normalized (n, d): asking again brackets nothing and makes no
        # Fraction, whatever form the turn comes in
        k = fixture_knot("scale-6")
        brackets = count_calls(monkeypatch, "_two_cos_bracket",
                               knots._two_cos_bracket)
        cold = [levine_tristram_signature(k, t) for t in SIX_TURNS]
        placed = len(brackets)
        assert k.lt_steps.roots and placed >= 4
        made, new = [], Fraction.__new__

        def counting_new(cls, *args, **kwargs):
            made.append(args)
            return new(cls, *args, **kwargs)

        mirrored = [1 - t for t in SIX_TURNS]
        with monkeypatch.context() as patch:
            patch.setattr(Fraction, "__new__", staticmethod(counting_new))
            for turns in (SIX_TURNS, mirrored):
                assert [levine_tristram_signature(k, t)
                        for t in turns] == cold
        assert made == [] and len(brackets) == placed
        assert [levine_tristram_signature(k, str(t))
                for t in SIX_TURNS] == cold
        assert len(brackets) == placed

    def test_singular_at_alexander_root(self):
        with pytest.raises(SingularAtRoot):
            levine_tristram_signature(trefoil(), Fraction(1, 6))

    def test_figure_eight_definite_free(self):
        for t in (Fraction(1, 5), Fraction(1, 3), Fraction(1, 2)):
            assert levine_tristram_signature(fig8(), t) == 0

    def test_wide_turn_bracket_is_narrowed_past_a_root(self, monkeypatch):
        # y0 = 2 cos(2 pi / 5) = 0.618; a first enclosure [0, 2] of it
        # crosses the trefoil's root at y = 1 and the sym knot's root
        # bracket [3/2, 2] (root sqrt(23/6) = 1.958), so the enclosure and
        # those brackets must narrow until they part before the gap is read
        exact_bracket = knots._two_cos_bracket
        enclosures = []

        def wide_first(t, bits):
            enclosures.append(bits)
            if len(enclosures) == 1:
                return Fraction(0), Fraction(2)
            return exact_bracket(t, bits)

        gaps = []

        def u_in_gap(y_low, y_high):
            gaps.append((y_low, y_high))
            return _u_in_y_gap(y_low, y_high)

        monkeypatch.setattr(knots, "_two_cos_bracket", wide_first)
        monkeypatch.setattr(knots, "_u_in_y_gap", u_in_gap)
        sym = [[0, 1, 2, -6], [0, 0, -2, 5], [-2, 2, 0, -4], [6, -5, 5, 0]]
        t = Fraction(1, 5)
        y0 = 2 * math.cos(2 * math.pi * t)
        for k in (trefoil(), KnotInput("sym", sym, 1)):
            enclosures.clear()
            assert levine_tristram_signature(k, t) == \
                cyclotomic_lt_signature(k, t)
            assert len(enclosures) >= 2  # the wide enclosure was replaced
            y_low, y_high = gaps.pop()
            assert y_low < y0 < y_high
            assert roots_strictly_inside(singular_poly_in_y(k),
                                         y_low, y_high) == []

    def test_symmetric_input_still_evaluates(self):
        k = KnotInput("sym", [[0, 1], [0, 0]], 1)
        assert levine_tristram_signature(k, Fraction(1, 3)) == 0


# -- jumps across Alexander roots --

class TestJumps:
    def test_trefoil(self):
        jumps = lt_jumps(trefoil())
        assert list(jumps.values()) == [-2]

    def test_granny(self):
        granny = connected_sum(trefoil(), trefoil())
        assert list(lt_jumps(granny).values()) == [-4]

    def test_figure_eight_empty(self):
        assert lt_jumps(fig8()) == {}
        assert lt_jumps(unknot()) == {}

    def test_mirror_sum_flat(self):
        k = connected_sum(trefoil(), knot_inverse(trefoil()))
        assert list(lt_jumps(k).values()) == [0]

    def test_rejects_symmetric(self):
        with pytest.raises(ValueError):
            lt_jumps(KnotInput("sym", [[0, 1], [0, 0]], 1))

    def test_jump_equals_odd_level_sum(self):
        # the two oracles share nothing past the Seifert matrix
        rng = random.Random(8)
        checked = 0
        for _ in range(8):
            k = random_skew_knot(rng)
            sums = witt_forgetful_laurent(
                dw_multisignature_laurent(blanchfield_form(k)))
            jumps = lt_jumps(k)
            assert set(jumps) == set(sums)
            for key, jump in jumps.items():
                assert jump == sums[key]
                checked += 1
        assert checked

    def test_rational_u_lands_strictly_inside_the_gap(self):
        def y_of(u):
            return 2 * (1 - u * u) / (1 + u * u)

        third = Fraction(1, 3)
        gaps = [(third, third + Fraction(1, 10**15)),
                (Fraction(2) - Fraction(1, 10**12), Fraction(2)),
                (Fraction(1), Fraction(2)),
                (Fraction(-2), Fraction(-2) + Fraction(1, 10**12)),
                (Fraction(-2), Fraction(-1)),
                (Fraction(-2), Fraction(2))]
        for y_low, y_high in gaps:
            u = _u_in_y_gap(y_low, y_high)
            assert u > 0
            assert y_low < y_of(u) < y_high

    def test_empty_gap_is_rejected(self):
        # the gap always lies between disjoint certified brackets, so an
        # empty one is a fault of the library, not of its input
        for y_low, y_high in ((Fraction(1), Fraction(1)),
                              (Fraction(2), Fraction(2)),
                              (Fraction(-3), Fraction(0))):
            with pytest.raises(InvariantViolated, match="y-gap"):
                _u_in_y_gap(y_low, y_high)


# -- the cyclotomic-field signatures (lt_oracle), kept as oracles --

def turn_search_lt_jumps(k, precision=DEFAULT_PRECISION):
    """lt_jumps sampling the cyclotomic-field signature at a rational turn
    found between consecutive certified Alexander-root brackets."""
    marked, _ = knots._circle_roots(knots._det_one_minus(k))
    for _key, _ridx, root in marked:
        root.refine(precision)
    walls = [Fraction(2)]
    for _key, _ridx, root in marked:
        walls += [root.hi, root.lo]
    walls.append(Fraction(-2))
    values = [cyclotomic_lt_signature(
        k, turn_in_y_gap(walls[2 * g + 1], walls[2 * g]), precision)
        for g in range(len(marked) + 1)]
    return {(key, ridx): values[i + 1] - values[i]
            for i, (key, ridx, _root) in enumerate(marked)}


def lt_or_singular(signature, k, t):
    try:
        return signature(k, t)
    except SingularAtRoot:
        return "singular"


def lt_or_singular_form(value, gap):
    try:
        return value(gap)
    except SingularForm:
        return "singular"


# Seifert matrices with unit-circle roots of det(z psi - psi^T) at rational
# turns: (epsilon, psi, denominators d whose primitive turns j/d are roots)
SINGULAR_AT_TURNS = [
    (-1, TREFOIL, (6,)),
    (-1, [[0, 0, 2, 1], [-1, 0, -1, 0], [2, -1, 0, 1], [1, 0, 0, 0]], (6,)),
    (-1, [[2, 0, 2, -1], [-1, 0, -1, 1], [2, -1, 2, -1], [-1, 1, -2, 2]],
     (12,)),
    (1, [[0, 1, 0, 1], [0, 0, 1, -1], [0, -1, 0, 0], [-1, 1, 1, 0]], (3,)),
    (1, [[0, 0, -1, -1], [1, 0, -1, -1], [1, 1, 0, 1], [1, 1, 0, 0]], (12,)),
]


class TestAgainstCyclotomicOracle:
    POINT_TURNS = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6))

    def test_signatures_match(self):
        rng = random.Random(2024)
        plan = {2: (8, 5), 4: (2, 3), 6: (1, 1)}  # rank: (knots, turns)
        compared = nonzero = 0
        for rank, (count, draws) in plan.items():
            for epsilon in (-1, 1):
                for _ in range(count):
                    k = seeded_seifert_knot(rng, rank, epsilon)
                    turns = list(self.POINT_TURNS) + [Fraction(1, 2)]
                    for _ in range(draws):
                        d = rng.randint(2, 24)
                        turns.append(Fraction(rng.randint(1, d - 1), d))
                    for t in turns:
                        want = lt_or_singular(cyclotomic_lt_signature, k, t)
                        got = lt_or_singular(levine_tristram_signature, k, t)
                        assert got == want, (k.psi, t)
                        compared += 1
                        nonzero += want not in (0, "singular")
        assert compared > 150 and nonzero > 20

    def test_singular_turns_match(self):
        for epsilon, psi, dens in SINGULAR_AT_TURNS:
            k = KnotInput("roots", psi, epsilon)
            turns = [Fraction(j, d) for d in dens for j in range(1, d)
                     if math.gcd(j, d) == 1]
            for t in turns + list(self.POINT_TURNS) + [Fraction(1, 2)]:
                want = lt_or_singular(cyclotomic_lt_signature, k, t)
                if t.denominator in dens:
                    assert want == "singular"
                assert lt_or_singular(levine_tristram_signature, k, t) \
                    == want, (psi, t)

    def test_jumps_match(self):
        rng = random.Random(2025)
        sums = [connected_sum(trefoil(), trefoil()),
                connected_sum(trefoil(), knot_inverse(trefoil()))]
        sums += [KnotInput("roots", psi, -1)
                 for eps, psi, _ in SINGULAR_AT_TURNS if eps == -1]
        sums += [seeded_seifert_knot(rng, rank, -1)
                 for rank in (2, 2, 2, 2, 4, 4)]
        jumped = 0
        for k in sums:
            want = turn_search_lt_jumps(k)
            assert lt_jumps(k) == want, k.psi
            jumped += len(want)
        assert jumped >= 8


# -- singular turns from D's own factors, against division by Phi_d --

def torus_2q(q):
    """Seifert matrix of the torus knot T(2, q), q odd: its Alexander
    polynomial (z^q + 1)/(z + 1) is the product of Phi_2e over e | q,
    e > 1."""
    return [[-1 if i == j else int(j == i + 1) for j in range(q - 1)]
            for i in range(q - 1)]


def phi_divides_d(k, max_denom=120):
    """The d <= max_denom with Phi_d | D = `_det_one_minus`, by division."""
    dense = det_dense(k)
    return {d for d in range(1, max_denom + 1)
            if not qpolys.mod(dense, cyclotomic_polynomial(d))}


class TestSingularTurns:
    """`levine_tristram_signature` is singular at a turn a/d exactly when
    Phi_d divides D; the step function reads this off D's factors, the
    oracle divides D by Phi_d.  The class also runs under python -O, where
    a detection resting on an assert would vanish."""

    def check(self, k, turns):
        want = phi_divides_d(k)
        assert k.lt_steps.cyclotomic == want, k.psi
        for t in turns:
            got = lt_or_singular(levine_tristram_signature, k, t)
            assert (got == "singular") == (t.denominator in want), (k.psi, t)
        return want

    def test_named_knots_at_every_turn(self):
        phi12 = KnotInput("Phi_12", SINGULAR_AT_TURNS[2][1], -1)
        t25 = KnotInput("T(2,5)", T25, -1)
        cases = [
            (trefoil(), {6}),
            (t25, {10}),
            (phi12, {12}),
            (KnotInput("T(2,7)", torus_2q(7), -1), {14}),
            (KnotInput("T(2,9)", torus_2q(9), -1), {6, 18}),
            (KnotInput("T(2,15)", torus_2q(15), -1), {6, 10, 30}),
            (connected_sum(trefoil(), knot_inverse(trefoil())), {6}),
            (connected_sum(t25, knot_inverse(t25)), {10}),
            (connected_sum(phi12, knot_inverse(phi12)), {12}),
            (KnotInput("eps+1", SINGULAR_AT_TURNS[3][1], 1), {3}),
            (KnotInput("eps+1", SINGULAR_AT_TURNS[4][1], 1), {12}),
            (KnotInput("E8", upper_half(E8), 1), {15}),
        ]
        turns = turns_up_to(120)
        for k, want in cases:
            assert self.check(k, turns) == want, k.name

    def test_genus_one_ladder_set(self):
        # every genus-1 ladder knot [[a, b + 1], [b, c]], a, b, c in
        # [-2, 2], for each epsilon whose symmetrization is unimodular; the
        # twist knots among them have non-integral factors with both roots
        # on the circle, which are not cyclotomic
        r = range(-2, 3)
        turns = [Fraction(1, d) for d in range(2, 121)]
        tally = {"cyclotomic": 0, "circle roots, not cyclotomic": 0}
        for psi in [[[a, b + 1], [b, c]] for a in r for b in r for c in r]:
            for epsilon in (-1, 1):
                try:
                    k = KnotInput("genus 1", psi, epsilon)
                except NotAKnotForm:
                    continue
                if self.check(k, turns):
                    tally["cyclotomic"] += 1
                elif k.lt_steps.roots:
                    tally["circle roots, not cyclotomic"] += 1
        assert tally["cyclotomic"] >= 4
        assert tally["circle roots, not cyclotomic"] >= 16
        twist = KnotInput("5_2", [[-1, 1], [0, -2]], -1)
        assert len(twist.lt_steps.roots) == 1
        assert twist.lt_steps.cyclotomic == set()

    def test_seeded_knots_both_epsilons(self):
        rng = random.Random(2028)
        turns = [Fraction(1, d) for d in range(2, 121)]
        for rank in (2, 4, 6):
            for epsilon in (-1, 1):
                for _ in range(4):
                    self.check(seeded_seifert_knot(rng, rank, epsilon), turns)


class TestCyclotomicOrders:
    """`_circle_roots`' set of e with Phi_e | D, z^e mod Phi_e by
    `polys.divmod_poly`, against the recurrence it once ran on its own
    lists (`lt_oracle.cyclotomic_order`)."""

    def orders(self, dense):
        got = knots._circle_roots(polys.primitive(dense))[1]
        want = {cyclotomic_order(factor_key(g))
                for g, _ in factor_rational_poly(dense)} - {None}
        assert got == want, dense
        return got

    def test_each_phi_e_up_to_60(self):
        for e in range(1, 61):
            assert self.orders(cyclotomic_polynomial(e)) == {e}, e

    def test_products_with_repeats_and_other_factors(self):
        rng = random.Random("cyclotomic-products")
        checked = 0
        while checked < 12:
            es = rng.sample(range(1, 61), rng.randint(2, 4))
            dense = [1]
            for e in es + es[:rng.randint(0, 1)]:
                dense = polys.mul(dense, qpolys.ints(cyclotomic_polynomial(e)))
            if rng.random() < 0.5:  # roots off the circle, or not integral
                dense = polys.mul(dense, rng.choice([[1, -3, 1], [2, -3, 2]]))
            if polys.deg(dense) <= 70:
                assert self.orders(dense) == set(es), es
                checked += 1


# -- the step function on integers, against its route over Matrix,
# Fraction and LaurentPoly --

SIX_TURNS = tuple(Fraction(*t) for t in ((1, 8), (1, 5), (1, 4), (1, 3),
                                         (3, 8), (2, 5)))


def bracketed(roots):
    return [(key, ridx, root.lo, root.hi) for key, ridx, root in roots]


class TestIntegerSteps:
    """`SignatureSteps` builds D, its factors and their circle roots on
    integer lists; `lt_oracle.laurent_steps` takes `Matrix.charpoly`, then
    `factor_rational_poly`'s factors as monic `LaurentPoly`s, then
    `is_self_conjugate` and `unit_circle_roots` on each factor.  D agrees
    up to sign, and so do the keys, root indices, brackets, cyclotomic
    orders and every gap value."""

    def check(self, k):
        det, roots, cyclotomic, values = laurent_steps(k)
        want = padded(det)
        assert knots._det_one_minus(k) in (want, [-c for c in want]), k.psi
        steps = knots.SignatureSteps(k)
        assert bracketed(steps.roots) == bracketed(roots), k.psi
        assert steps.cyclotomic == cyclotomic, k.psi
        assert [lt_or_singular_form(steps.value, gap)
                for gap in range(len(roots) + 1)] == values, k.psi
        return roots

    def test_seeded_knots_ranks_2_to_8_both_epsilons(self):
        rng = random.Random("integer-steps")
        found = 0
        for rank in (2, 4, 6, 8):
            for epsilon in (-1, 1):
                for _ in range(4):
                    k = seeded_seifert_knot(rng, rank, epsilon)
                    found += len(self.check(k))
        assert found >= 10

    def test_mirror_sums_take_the_gcd_path(self, monkeypatch):
        rng = random.Random("integer-steps-mirror")
        cases = [trefoil(), KnotInput("T(2,5)", T25, -1),
                 KnotInput("5_2", [[-1, 1], [0, -2]], -1)]
        cases += [seeded_seifert_knot(rng, 4, -1) for _ in range(3)]
        gcds = []
        gcd = polys.gcd
        monkeypatch.setattr(polys, "gcd",
                            lambda a, b: gcds.append(a) or gcd(a, b))
        found = 0
        for k in cases:
            double = connected_sum(k, knot_inverse(k))
            gcds.clear()
            found += len(self.check(double))
            assert gcds, k.psi
            factors = factor_rational_poly(knots._det_one_minus(double))
            assert {m for _, m in factors} == {2}, k.psi
        assert found >= 4

    def test_products_of_cyclotomics(self):
        rng = random.Random("integer-steps-cyclotomic")
        for _ in range(16):
            es = rng.sample(range(1, 41), rng.randint(1, 4))
            dense = [1]
            for e in es + es[:rng.randint(0, 2)]:
                dense = polys.mul(dense, qpolys.ints(cyclotomic_polynomial(e)))
            if rng.random() < 0.5:  # roots off the circle, or not integral
                dense = polys.mul(dense, rng.choice([[1, -3, 1], [2, -3, 2]]))
            marked, cyclotomic = knots._circle_roots(dense)
            want, want_cyclotomic = laurent_circle_roots(
                LaurentPoly.from_dense(dense))
            assert bracketed(marked) == bracketed(want), es
            assert cyclotomic == want_cyclotomic == set(es), es

    def test_root_free_knots_take_no_bracket(self, monkeypatch):
        def refuse(t, bits):
            raise AssertionError("2 cos(2 pi t) was bracketed")

        monkeypatch.setattr(knots, "_two_cos_bracket", refuse)
        # the figure-eight and a genus-1 ladder knot [[a, b + 1], [b, c]]
        for psi in (FIG8, [[-2, -1], [-2, 2]]):
            k = KnotInput("root-free", psi, -1)
            assert k.lt_steps.roots == []
            for t in SIX_TURNS:
                assert levine_tristram_signature(k, t) == \
                    cyclotomic_lt_signature(k, t), (psi, t)


class TestWideRoots:
    """The twist sums K_n # K_{n+1} (K_n = [[-1, 1], [0, -n]]) put their
    Alexander roots where a sampling turn needs a large denominator."""

    def test_no_cyclotomic_field_is_built(self, monkeypatch):
        def refuse(self, *args, **kwargs):
            raise AssertionError("a residue field was built")

        monkeypatch.setattr(residue.ResidueField, "__init__", refuse)
        k = connected_sum(KnotInput("K_1000", [[-1, 1], [0, -1000]], -1),
                          KnotInput("K_1001", [[-1, 1], [0, -1001]], -1))
        assert list(lt_jumps(k).values()) == [-2, -2]
        for t in (Fraction(1, 8), Fraction(1, 3), Fraction(2, 5)):
            assert levine_tristram_signature(k, t) == -4


# -- one step function per knot, against the per-call route --

def turns_up_to(max_denom):
    return sorted({Fraction(a, d) for d in range(1, max_denom + 1)
                   for a in range(1, d // 2 + 1)})


def mobius(n):
    result, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            result = -result
        p += 1
    return -result if n > 1 else result


def cyclotomic_y_poly(d):
    """Integer Y, constant term first, with Phi_d(z) = z^m Y(z + 1/z), in
    integers: Phi_d is the product of (z^e - 1)^mu(d/e) over e | d, the
    divisions exact, and z^j + z^-j = Q_j(y) with Q_{j+1} = y Q_j - Q_{j-1}."""
    phi = [1]
    for sign in (1, -1):
        for e in range(1, d + 1):
            if d % e or mobius(d // e) != sign:
                continue
            if sign == 1:  # times z^e - 1
                phi = [(phi[i - e] if i >= e else 0)
                       - (phi[i] if i < len(phi) else 0)
                       for i in range(len(phi) + e)]
            else:  # over z^e - 1: p = q (z^e - 1), so q_i = q_(i-e) - p_i
                quot = []
                for i in range(len(phi) - e):
                    quot.append((quot[i - e] if i >= e else 0) - phi[i])
                phi = quot
    m = (len(phi) - 1) // 2
    y_poly = [phi[m]] + [0] * m
    q_prev, q = [2], [0, 1]
    for j in range(1, m + 1):
        for i, c in enumerate(q):
            y_poly[i] += phi[m + j] * c
        nxt = [0] + q
        for i, c in enumerate(q_prev):
            nxt[i] -= c
        q_prev, q = q, nxt
    return y_poly


def y_poly_sign(y_poly, y):
    """Sign of an integer polynomial at a rational y = n / m (m > 0), as
    the sign of sum c_i n^i m^(deg - i)."""
    n, m = y.numerator, y.denominator
    acc, scale = 0, 1
    for c in reversed(y_poly):
        acc = acc * n + c * scale
        scale *= m
    return (acc > 0) - (acc < 0)


class TestStepFunction:
    def test_matches_per_call_oracle(self):
        rng = random.Random(2026)
        turns = turns_up_to(30) + [Fraction(1, 97), Fraction(1, 199)]
        compared = nonzero = 0
        for rank in range(0, 9, 2):
            for epsilon in (-1, 1):
                k = seeded_seifert_knot(rng, rank, epsilon)
                d_y = singular_poly_in_y(k)
                for t in turns:
                    want = lt_or_singular(
                        lambda k, t: per_call_lt_signature(k, t, d_y), k, t)
                    got = lt_or_singular(levine_tristram_signature, k, t)
                    assert got == want, (k.psi, t)
                    compared += 1
                    nonzero += want not in (0, "singular")
        assert compared > 1000 and nonzero > 150

    def test_singular_turns_match(self):
        cases = [(trefoil(), [Fraction(1, 6)]),
                 (KnotInput("T(2,5)", T25, -1),
                  [Fraction(1, 10), Fraction(3, 10)])]
        for k, singular in cases:
            for t in turns_up_to(12):
                want = lt_or_singular(per_call_lt_signature, k, t)
                assert (want == "singular") == (t in singular), (k.name, t)
                assert lt_or_singular(cyclotomic_lt_signature, k, t) == want
                assert lt_or_singular(levine_tristram_signature, k, t) \
                    == want, (k.name, t)

    def test_call_order_does_not_matter(self):
        turns = [Fraction(1, 10), Fraction(1, 7), Fraction(1, 5),
                 Fraction(2, 7), Fraction(1, 3), Fraction(3, 7),
                 Fraction(1, 199)]
        rng = random.Random(2027)
        psis = [T25, TREFOIL] + [seeded_seifert_knot(rng, 4, -1).psi.rows
                                 for _ in range(3)]
        for psi in psis:
            first, second = KnotInput("a", psi, -1), KnotInput("b", psi, -1)
            before = [lt_or_singular(levine_tristram_signature, first, t)
                      for t in turns]
            jumps = lt_jumps(first)
            after = [lt_or_singular(levine_tristram_signature, first, t)
                     for t in turns]
            assert lt_jumps(second) == jumps
            late = [lt_or_singular(levine_tristram_signature, second, t)
                    for t in turns]
            assert before == after == late, psi
            assert before == [lt_or_singular(per_call_lt_signature, first, t)
                              for t in turns]

    def test_enclosure_is_certified(self):
        # the y-polynomial of Phi_d has degree phi(d)/2, all its roots real:
        # as many disjoint enclosures, each with a sign change across it,
        # hold one root each.  isolate_real_roots says the same directly
        # where it is cheap (one call takes 0.25 s at d = 199).
        for d in range(5, 251):
            if d == 6:
                continue
            y_poly = cyclotomic_y_poly(d)
            if d <= 30:
                assert y_poly == polys.palindromic_to_y(polys.primitive(
                    cyclotomic_polynomial(d)))
            turns = [Fraction(a, d) for a in range(1, d // 2 + 1)
                     if math.gcd(a, d) == 1]
            assert len(turns) == polys.deg(y_poly)
            widths = []
            for bits in (64, 96):
                brackets = sorted(knots._two_cos_bracket(t, bits)
                                  for t in turns)
                for (lo, hi), nxt in zip(brackets, brackets[1:] + [None]):
                    assert lo < hi and (nxt is None or hi < nxt[0])
                    assert y_poly_sign(y_poly, lo) * \
                        y_poly_sign(y_poly, hi) < 0, (d, bits)
                    if d <= 30:
                        assert len(polys.isolate_real_roots(
                            y_poly, lo, hi)) == 1
                widths.append(max(hi - lo for lo, hi in brackets))
            assert widths[1] < widths[0] * Fraction(1, 2**30)
        # and each enclosure holds its own turn's root, not a conjugate's
        for t in turns_up_to(60):
            if t.denominator in (1, 2, 3, 4, 6):
                continue
            lo, hi = knots._two_cos_bracket(t, 64)
            y0 = 2 * math.cos(2 * math.pi * t)
            assert lo - Fraction(1, 10**12) < y0 < hi + Fraction(1, 10**12)

    def test_bracket_matches_per_call_pi(self):
        # pi comes from one cached value per precision; the brackets are
        # those of Machin's formula taken on every call, cold and cached
        knots._pi.cache_clear()
        for bits in (64, 128, 256, 1024):
            for t in turns_up_to(60):
                want = per_call_two_cos_bracket(t, bits)
                assert knots._two_cos_bracket(t, bits) == want, (t, bits)
        assert knots._pi.cache_info().currsize == 4

    def test_one_build_per_knot(self, monkeypatch):
        determinants = count_calls(monkeypatch, "_det_one_minus",
                                   knots._det_one_minus)
        factored = count_calls(monkeypatch, "factor_rational_poly",
                               factor_rational_poly)
        k = KnotInput("T(2,5)", T25, -1)
        values = {}
        for t in (Fraction(1, 8), Fraction(1, 33), Fraction(2, 5),
                  Fraction(1, 97), Fraction(3, 40), Fraction(1, 1009)):
            values[t] = levine_tristram_signature(k, t)
        # the singular turns come from D's factors: no wittkit module
        # builds a cyclotomic polynomial
        assert not [mod for mod in list(sys.modules.values())
                    if getattr(mod, "__name__", "").startswith("wittkit")
                    and hasattr(mod, "cyclotomic_polynomial")]
        assert k.lt_steps.cyclotomic == {10}
        phi10 = (1, -1, 1, -1, 1)
        assert lt_jumps(k) == {(phi10, 0): -2, (phi10, 1): -2}
        assert len(determinants) == 1
        assert len(factored) == 1
        # the roots of Phi_10 sit at turns 1/10 and 3/10
        assert values == {t: -2 * (t > Fraction(1, 10))
                          - 2 * (t > Fraction(3, 10)) for t in values}

    def test_nonpositive_precision_is_refused(self):
        # the roots of T(2,5) are irrational, so a width <= 0 would bisect
        # their brackets forever
        k = KnotInput("T(2,5)", T25, -1)
        with pytest.raises(ValueError):
            analyze(k, Fraction(0))
        assert list(lt_jumps(k).values()) == [-2, -2]


# -- one computation per invariant --

def count_calls(monkeypatch, name, original):
    """Calls of `original` through every wittkit module binding it as
    `name`."""
    calls = []

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for mod in list(sys.modules.values()):
        if (getattr(mod, "__name__", "").startswith("wittkit")
                and getattr(mod, name, None) is original):
            monkeypatch.setattr(mod, name, counting)
    return calls


class TestOneComputation:
    def test_analyze_factors_once_and_takes_no_determinant(self,
                                                           monkeypatch):
        factored = count_calls(monkeypatch, "factor_rational_poly",
                               factor_rational_poly)
        determinants = count_calls(monkeypatch, "_det_one_minus",
                                   knots._det_one_minus)
        for k in (trefoil(), fig8(), unknot(),
                  KnotInput("level-2", LEVEL2, -1),
                  KnotInput("sym", upper_half(E8), 1),
                  connected_sum(trefoil(), knot_inverse(trefoil()))):
            factored.clear()
            report = analyze(k)
            assert len(factored) == 1, k.name
            assert report.alexander == alexander_polynomial(k)
        assert determinants == []

    def test_analyze_keys_each_factor_once(self, monkeypatch):
        # the factor order is read on integers, and the multisignature and
        # the report share one key per factor (`LaurentModule.factor_keys`)
        keyed = count_calls(monkeypatch, "factor_key", factor_key)
        for k in (fixture_knot("mixed-factors"), fixture_knot("scale-6"),
                  trefoil(), connected_sum(trefoil(), knot_inverse(fig8()))):
            keyed.clear()
            report_to_json(analyze(k))
            factors = blanchfield_form(k).module.factors
            assert sorted(keyed) == sorted((g,) for g, _ in factors), k.name

    def test_lt_jumps_builds_no_covering_form(self, monkeypatch):
        cases = [connected_sum(trefoil(), trefoil()),
                 KnotInput("scale-3", SCALE_3, -1)]
        sums = [witt_forgetful_laurent(
            dw_multisignature_laurent(blanchfield_form(k))) for k in cases]

        def refuse(*args):
            raise AssertionError("lt_jumps built a covering form")

        monkeypatch.setattr(knots, "blanchfield_form", refuse)
        monkeypatch.setattr(knots, "covering_seifert", refuse)
        jumps = [lt_jumps(k) for k in cases]
        assert list(jumps[0].values()) == [-4]
        for got, want in zip(jumps, sums):
            assert got == {key: want.get(key, 0) for key in got}


# -- obstruction flags --

def _flags(k: KnotInput) -> tuple[str, str]:
    """(slice, doubly-slice) flags, from one analyze."""
    report = analyze(k)
    return report.slice_obstructed, report.doubly_slice_obstructed


class TestObstructions:
    def test_trefoil_obstructed(self):
        assert _flags(trefoil()) == ("yes", "yes")

    def test_figure_eight_clear(self):
        assert _flags(fig8()) == ("no_obstruction_found",
                                  "no_obstruction_found")

    def test_unknot_clear(self):
        assert _flags(unknot()) == ("no_obstruction_found",
                                    "no_obstruction_found")

    def test_mirror_sum_clear(self):
        k = connected_sum(trefoil(), knot_inverse(trefoil()))
        assert _flags(k) == ("no_obstruction_found", "no_obstruction_found")

    def test_even_level_separates_the_two_flags(self):
        k = KnotInput("level-2", LEVEL2, -1)
        ms = dw_multisignature_laurent(blanchfield_form(k))
        assert {key[2] for key in ms.signatures if ms.signatures[key]} == {2}
        assert _flags(k) == ("no_obstruction_found", "yes")

    def test_hierarchy(self):
        rng = random.Random(9)
        for _ in range(10):
            slice_flag, doubly_flag = _flags(random_skew_knot(rng))
            if slice_flag == "yes":
                assert doubly_flag == "yes"


# -- residue invariant of symmetric forms --

class TestRochlin:
    def test_e8_fixtures(self):
        # the only epsilon = +1 fixtures: theta = E8 has signature 8, and
        # E8 # -E8 cancels; the kernel over Z[i] takes them with every
        # imaginary part 0, against the integer route it replaced
        for name, sig, want in (("e8", 8, 1), ("e8-mirror", 0, 0)):
            k = fixture_knot(name)
            theta = k.seifert_form.theta_pair[0]
            assert symmetric_int_signature([list(r) for r in theta]) == sig
            assert rochlin_invariant(k) == want

    def test_hyperbolic_is_zero(self):
        assert rochlin_invariant(KnotInput("h", [[0, 1], [0, 0]], 1)) == 0

    def test_e8_is_one(self):
        assert rochlin_invariant(KnotInput("e8", upper_half(E8), 1)) == 1

    def test_two_e8_blocks_cancel(self):
        one = KnotInput("e8", upper_half(E8), 1)
        assert rochlin_invariant(connected_sum(one, one)) == 0

    def test_skew_input_rejected(self):
        with pytest.raises(NotSymmetricCase):
            rochlin_invariant(trefoil())

    def test_unreachable_divisibility_guard(self):
        # the symmetrization has even diagonal, hence is an even unimodular
        # lattice and its signature is divisible by 8 for every accepted
        # input; the divisibility error stays defensive
        rng = random.Random(10)
        hits = 0
        for _ in range(20):
            n = rng.choice([2, 4])
            psi = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(n)]
            try:
                k = KnotInput("sym", psi, 1)
            except NotAKnotForm:
                continue
            assert rochlin_invariant(k) in (0, 1)
            hits += 1
        assert hits


# -- connected sums and inverses --

class TestConnectedSum:
    def test_unknot_is_neutral(self):
        k = connected_sum(trefoil(), unknot())
        assert alexander_polynomial(k) == alexander_polynomial(trefoil())
        assert dw_multisignature_laurent(blanchfield_form(k)) == \
            dw_multisignature_laurent(blanchfield_form(trefoil()))

    def test_mixed_symmetry_rejected(self):
        with pytest.raises(MixedSymmetry):
            connected_sum(trefoil(), KnotInput("sym", [[0, 1], [0, 0]], 1))

    def test_multisignature_additivity(self):
        a = dw_multisignature_laurent(blanchfield_form(trefoil()))
        both = dw_multisignature_laurent(
            blanchfield_form(connected_sum(trefoil(), trefoil())))
        assert both == a + a

    def test_name_and_hint(self):
        k = connected_sum(trefoil(dimension_hint=1), trefoil(dimension_hint=1))
        assert k.name == "trefoil # trefoil"
        assert k.dimension_hint == 1
        mixed = connected_sum(trefoil(dimension_hint=1),
                              trefoil(dimension_hint=5))
        assert mixed.dimension_hint is None


class TestKnotInverse:
    def test_cancels_in_the_sum(self):
        k = connected_sum(trefoil(), knot_inverse(trefoil()))
        ms = dw_multisignature_laurent(blanchfield_form(k))
        assert ms.all_zero

    def test_negated_transpose_is_equivalent(self):
        psi_t = [[-TREFOIL[j][i] for j in range(2)] for i in range(2)]
        alt = KnotInput("alt", psi_t, -1)
        inv = knot_inverse(trefoil())
        assert dw_multisignature_laurent(blanchfield_form(alt)) == \
            dw_multisignature_laurent(blanchfield_form(inv))
        assert levine_tristram_signature(alt, Fraction(2, 5)) == \
            levine_tristram_signature(inv, Fraction(2, 5))

    def test_name(self):
        assert knot_inverse(trefoil()).name == "-trefoil"


# -- aggregated reports --

class TestAnalyze:
    def test_trefoil_report(self):
        r = analyze(trefoil())
        assert r.name == "trefoil"
        assert r.alexander == [1, -1, 1]
        assert r.slice_obstructed == "yes"
        assert r.doubly_slice_obstructed == "yes"
        assert r.rochlin is None
        assert r.witnesses is None
        assert COMPLETENESS_CAVEAT in r.notes
        assert r.convention["sigma_sign"] == SIGMA_SIGN
        entries = r.multisignature.entries()
        assert len(entries) == 1
        (_, _, level), value = entries[0]
        assert level == 1 and abs(value) == 2

    def test_mirror_halves_needs_exactly_a_plus_minus_a(self):
        a = Matrix.from_ints([[-1, 1], [0, -1]])
        zero = Matrix.from_ints([[0]])

        def rows(*blocks):
            return [[int(x) for x in r]
                    for r in Matrix.block_diag(blocks).rows]

        assert knots._mirror_halves(rows(a, -a)) == [[-1, 1], [0, -1]]
        assert knots._mirror_halves([]) == []
        off = rows(a, -a)
        off[0][3] = 1
        for psi in (rows(a, a), off, rows(zero), rows(a, -a, zero)):
            assert knots._mirror_halves(psi) is None

    def test_figure_eight_report(self):
        r = analyze(fig8())
        assert r.alexander == [1, -3, 1]
        assert r.multisignature.entries() == []
        assert r.slice_obstructed == "no_obstruction_found"
        assert r.doubly_slice_obstructed == "no_obstruction_found"
        assert COMPLETENESS_CAVEAT in r.notes

    def test_mirror_sum_attaches_witnesses(self):
        k = connected_sum(trefoil(), knot_inverse(trefoil()))
        r = analyze(k)
        assert r.doubly_slice_obstructed == "no_obstruction_found"
        assert r.witnesses is not None
        diag, twist = r.witnesses
        psi = k.psi
        for sub in (diag, twist):
            assert sub.basis.ncols == 2
            prod = sub.basis.transpose() * psi * sub.basis
            assert all(prod[i, j] == 0 for i in range(2) for j in range(2))
        stacked = Matrix([
            [diag.basis[i, j] for j in range(2)]
            + [twist.basis[i, j] for j in range(2)]
            for i in range(4)
        ])
        assert abs(stacked.det()) == 1

    def test_classical_hint_adds_caveat(self):
        r = analyze(trefoil(dimension_hint=1))
        assert CLASSICAL_CAVEAT in r.notes
        assert CLASSICAL_CAVEAT not in analyze(trefoil()).notes

    def test_symmetric_report_carries_rochlin(self):
        r = analyze(KnotInput("e8", upper_half(E8), 1))
        assert r.rochlin == 1

    def test_deterministic(self):
        a, b = analyze(trefoil()), analyze(trefoil())
        assert a.multisignature == b.multisignature
        assert a.notes == b.notes
        assert a.convention == b.convention


# -- invariance under a change of basis --

def change_of_basis(psi: list, ops) -> list:
    """P^T psi P for the unimodular P made from the identity by the column
    operations (i, j, s), i != j, each adding s times column j to column
    i in turn."""
    n = len(psi)
    cols = [[int(i == j) for i in range(n)] for j in range(n)]
    for i, j, s in ops:
        cols[i] = [x + s * y for x, y in zip(cols[i], cols[j])]
    moved = [[sum(map(mul, row, c)) for c in cols] for row in psi]
    return [[sum(map(mul, c, col)) for col in zip(*moved)] for c in cols]


def block_sum(a: list, b: list) -> list:
    """The integer rows of a (+) b."""
    return ([row + [0] * len(b) for row in a]
            + [[0] * len(a) + row for row in b])


# the slowest call of the pinned draw below takes under 0.01 s on a 2-core
# Xeon; a basis-dependent blow-up, such as the 50x the oblique complement
# once cost scrambled K # -K, fails this bound instead of passing slowly
CALL_SECONDS = 1


def timed(f, *args):
    start = time.perf_counter()
    out = f(*args)
    assert time.perf_counter() - start < CALL_SECONDS, f.__name__
    return out


def basis_free_report(psi: list) -> dict:
    """`analyze`'s report of the knot psi without its name, its witnesses
    and their note: `analyze` looks for witnesses only on a block-diagonal
    A (+) -A."""
    out = report_to_json(timed(analyze, KnotInput("k", psi, -1)))
    del out["name"], out["witnesses"]
    out["notes"] = [note for note in out["notes"]
                    if not note.startswith("the Seifert matrix splits")]
    return out


@st.composite
def knots_in_new_bases(draw):
    """A seeded ladder knot K of genus 1-6, or K # K or K # -K for genus
    1-3 (rank 2-12), and a few elementary column operations."""
    genus = draw(st.integers(1, 6))
    psi = ladder_psi(random.Random(draw(st.integers(0, 2**16))), genus)
    if genus <= 3:
        psi = draw(st.sampled_from([
            psi, block_sum(psi, psi),
            block_sum(psi, [[-x for x in row] for row in psi])]))
    n = len(psi)
    ops = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1),
                                  st.sampled_from([-1, 1]))
                        .filter(lambda op: op[0] != op[1]),
                        min_size=1, max_size=5))
    return psi, change_of_basis(psi, ops)


# derandomize: the same draw on every run, so that tier-1 time repeats
@settings(max_examples=100, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.too_slow])
@given(knots_in_new_bases())
def test_invariants_do_not_see_the_basis(knots):
    # P^T psi P is isometric to psi, so every reported invariant agrees
    psi, moved = knots
    assert basis_free_report(moved) == basis_free_report(psi)
    for f in (lt_jumps, alexander_polynomial):
        assert timed(f, KnotInput("k", moved, -1)) == timed(
            f, KnotInput("k", psi, -1))
