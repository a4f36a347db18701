"""Acceptance gate: eleven checks, one pass/fail line each.

Run with `pytest tests/test_acceptance.py -v` (add -s to see the timing
lines).  Each check pins its own runtime budget; exact values carry no
tolerance at all, angles are certified intervals.
"""

import math
import random
import time
from fractions import Fraction

from covering_oracle import seifert_direct_sum, seifert_negate
from formbank import diagonal_form, enumerate_symmetric_forms, nonsquare_unit
from linking_oracle import direct_sum, is_homogeneous, negate
from test_seifert import random_autometric

from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.ratfunc import RatFunc
from wittkit.finite import (
    FiniteLinkingForm,
    auxiliary_modules,
    boundary_of_form,
    classify,
    dw_multisignature,
)
from wittkit.knots import (
    COMPLETENESS_CAVEAT,
    KnotInput,
    alexander_polynomial,
    analyze,
    blanchfield_form,
    connected_sum,
    knot_inverse,
    levine_tristram_signature,
    lt_jumps,
)
from wittkit.laurent_forms import (
    dw_multisignature_laurent,
    witt_forgetful_laurent,
)
from wittkit.seifert import (
    SeifertForm,
    hyperbolic_witness_sum,
    is_complementary,
    trace_chi,
    verify_roundtrip,
    verify_seifert_lagrangian,
)
from wittkit.subgroups import brute_force_lagrangians

TREFOIL = [[-1, 1], [0, -1]]


def _finish(number: int, budget: float, t0: float, detail: str) -> None:
    elapsed = time.time() - t0
    assert elapsed < budget, (
        f"criterion {number} blew its {budget}s budget ({elapsed:.1f}s)")
    print(f"criterion {number:2d} PASS ({elapsed:.2f}s < {budget:g}s): "
          f"{detail}")


def test_criterion_01_trace_anchor():
    t0 = time.time()
    for a in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
        f = RatFunc.make(LaurentPoly.one(), [a, Fraction(-1)])
        assert trace_chi(f.num, f.den) == 1 / a
    _finish(1, 1, t0, "chi(1/(a-z)) = 1/a for a in {1, 2, -3, 1/2}")


def test_criterion_02_auxiliary_modules():
    t0 = time.time()
    form = FiniteLinkingForm(
        2, [1, 2, 5],
        [[Fraction(1, 2), 0, 0],
         [0, Fraction(1, 4), 0],
         [0, 0, Fraction(1, 32)]], 1)
    assert auxiliary_modules(form) == {1: 1, 2: 1, 5: 1}
    _finish(2, 1, t0, "Z/2 + Z/4 + Z/32 has level ranks {1:1, 2:1, 5:1}")


def test_criterion_03_roundtrip_law():
    t0 = time.time()
    rng = random.Random(301)
    for _ in range(200):
        f = random_autometric(rng, max_rank=4, bound=5)
        assert verify_roundtrip(f), f"round trip failed on {f.h.rows}"
    _finish(3, 60, t0, "monodromy(covering(f)) = f on 200 random "
                       "autometric forms, exact")


def test_criterion_04_hyperbolic_witness_law():
    t0 = time.time()
    rng = random.Random(401)
    done = 0
    while done < 100:
        n = rng.randint(1, 4)
        psi = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        try:
            f = SeifertForm(psi, rng.choice([1, -1]), "Q")
        except Exception:
            continue
        fsum = seifert_direct_sum(f, seifert_negate(f))
        diag, twist = hyperbolic_witness_sum(f)
        assert verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
        assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
        assert is_complementary(fsum, diag, twist)
        done += 1
    _finish(4, 60, t0, "diagonal and twisted-graph lagrangians verify "
                       "split and complementary on 100 random psi + -psi")


def test_criterion_05_oracle_agreement():
    t0 = time.time()
    checked = 0
    for p, cap in ((3, 5), (5, 4)):
        for f in enumerate_symmetric_forms(p, cap):
            met = classify(f, "metabolic")
            hyp = classify(f, "hyperbolic")
            out = brute_force_lagrangians(f)
            assert met == bool(out["any"]["witnesses"]), f
            assert hyp == bool(out["complementary_pair"]["witnesses"]), f
            checked += 1
    _finish(5, 300, t0, f"classify agrees with the exhaustive oracle on "
                        f"{checked} forms (orders up to 3^5 and 5^4), "
                        "zero disagreements")


def test_criterion_06_devissage_even_levels():
    t0 = time.time()
    checked = 0
    for p, cap in ((3, 5), (5, 4)):
        for f in enumerate_symmetric_forms(p, cap):
            if not is_homogeneous(f) or f.orders[0] % 2 != 0:
                continue
            assert classify(f, "metabolic") is True, f
            assert brute_force_lagrangians(f)["any"]["witnesses"], f
            checked += 1
    assert checked
    _finish(6, 300, t0, f"all {checked} enumerated even-level homogeneous "
                        "forms at p in {3, 5} are metabolic by both routes")


def test_criterion_07_trefoil_and_figure_eight_pipeline():
    t0 = time.time()
    trefoil = KnotInput("trefoil", TREFOIL, -1)
    assert alexander_polynomial(trefoil).ordinary()[0] == [1, -1, 1]
    report = analyze(trefoil)
    entries = report.multisignature.entries()
    assert len(entries) == 1
    (factor_key, ridx, level), value = entries[0]
    assert list(factor_key) == [1, -1, 1]
    assert level == 1 and abs(value) == 2
    lo, hi = report.multisignature.theta(factor_key, ridx).theta_interval()
    assert lo <= math.pi / 3 <= hi
    assert levine_tristram_signature(trefoil, Fraction(2, 5)) == -2
    assert report.slice_obstructed == "yes"
    assert report.doubly_slice_obstructed == "yes"

    fig8 = KnotInput("figure-eight", [[1, 1], [0, -1]], -1)
    assert alexander_polynomial(fig8).ordinary()[0] == [1, -3, 1]
    report8 = analyze(fig8)
    assert report8.multisignature.entries() == []
    assert report8.slice_obstructed == "no_obstruction_found"
    assert report8.doubly_slice_obstructed == "no_obstruction_found"
    assert COMPLETENESS_CAVEAT in report8.notes
    _finish(7, 10, t0, "trefoil: Alexander z^2-z+1, one entry |2| at "
                       "(pi/3, level 1), LT(2/5) = -2, both flags; "
                       "figure-eight clean with caveat")


def test_criterion_08_witt_relation_2a_equals_2b():
    t0 = time.time()
    for p in (3, 5, 13):
        u = nonsquare_unit(p)
        for level in (1, 2):
            aa = diagonal_form(p, [level, level], [1, 1])
            bb = diagonal_form(p, [level, level], [u, u])
            ms_a = dw_multisignature(aa)
            ms_b = dw_multisignature(bb)
            assert ms_a == ms_b, (p, level)
            diff = direct_sum(aa, negate(bb))
            assert classify(diff, "metabolic") is True
            if p in (3, 5) and level == 1:
                out = brute_force_lagrangians(diff)["any"]
                assert out["exhausted"] and out["witnesses"], (p, level)
    _finish(8, 30, t0, "A + A and B + B carry equal Witt data at "
                       "p in {3, 5, 13}, oracle-confirmed at p = 3, 5")


def test_criterion_09_boundary_anchor():
    t0 = time.time()
    parts = boundary_of_form([[4]], 1)
    assert set(parts) == {2}
    form = parts[2]
    assert form.orders == (2,)
    assert form.gram == ((Fraction(1, 4),),)
    out = brute_force_lagrangians(form)
    found = out["any"]
    assert found["exhausted"] and found["witnesses"] == [[[2]]]
    split = out["split"]
    assert split["exhausted"] and not split["witnesses"]
    _finish(9, 10, t0, "boundary of (4) is (Z/4, xy/4): lagrangian <2> "
                       "exists, split lagrangian certified absent")


def test_criterion_10_mirror_cancellation():
    t0 = time.time()
    trefoil = KnotInput("trefoil", TREFOIL, -1)
    k = connected_sum(trefoil, knot_inverse(trefoil))
    report = analyze(k)
    assert report.slice_obstructed == "no_obstruction_found"
    assert report.doubly_slice_obstructed == "no_obstruction_found"
    assert report.witnesses is not None
    diag, twist = report.witnesses
    fsum = k.seifert_form
    assert verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
    assert verify_seifert_lagrangian(fsum, twist) == "split_lagrangian"
    assert is_complementary(fsum, diag, twist)
    _finish(10, 10, t0, "trefoil # inverse: no obstructions, hyperbolic "
                        "witnesses attached and re-verified")


def test_criterion_11_lt_cross_oracle():
    t0 = time.time()
    rng = random.Random(1101)
    knots = [
        KnotInput("trefoil", TREFOIL, -1),
        connected_sum(KnotInput("trefoil", TREFOIL, -1),
                      KnotInput("trefoil", TREFOIL, -1)),
    ]
    while len(knots) < 22:
        n = rng.randint(1, 4)
        psi = [[rng.randint(-5, 5) for _ in range(n)] for _ in range(n)]
        try:
            knots.append(KnotInput("random", psi, -1))
        except Exception:
            continue
    roots = 0
    for k in knots:
        sums = witt_forgetful_laurent(
            dw_multisignature_laurent(blanchfield_form(k)))
        jumps = lt_jumps(k)
        assert set(jumps) == set(sums), k.psi.rows
        for key, jump in jumps.items():
            assert jump == sums[key], (k.psi.rows, key)
            roots += 1
    assert roots >= 2  # trefoil and granny each contribute one
    _finish(11, 120, t0, f"LT jump equals the odd-level signature sum at "
                         f"all {roots} unit-circle Alexander roots "
                         "(trefoil, granny, 20 random)")
