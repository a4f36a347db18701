"""The benchmark's four workloads: seeded inputs, the item each input
becomes, and the independent check of each item's answer.

An item is one closed-loop call into wittkit: ``run()`` makes the call and
returns its output, ``check(output)`` returns a list of failure messages.
Checks compute their references lazily, once per item, outside every timed
phase.  A workload's items form one round; a run repeats whole rounds.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
from fractions import Fraction
from functools import cache
from typing import Callable, NamedTuple

from wittkit import cli, serialize
from wittkit.catalog import CATALOG, catalog_names
from wittkit.errors import SingularAutometricForm
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.knots import (
    KnotInput,
    blanchfield_form,
    connected_sum,
    levine_tristram_signature,
    lt_jumps,
)
from wittkit.laurent_forms import (
    decompose_module,
    dw_multisignature_laurent,
    witt_forgetful_laurent,
)
from wittkit.seifert import AutometricForm, verify_roundtrip

import refcheck


class Item(NamedTuple):
    label: str
    run: Callable
    check: Callable


def interleaved(items: list) -> list:
    """The round in a fixed shuffled order, the same for every seed: items
    of one kind are spread over the round instead of running as one block,
    so the median item samples the host's speed over the whole run."""
    random.Random("round-order").shuffle(items)
    return items


def run_cli(argv, text: str) -> str:
    """wittkit's CLI entry point, in-process, with `text` on stdin."""
    out = io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(text)
    try:
        with contextlib.redirect_stdout(out):
            code = cli.main(argv)
    finally:
        sys.stdin = saved
    if code != 0:
        raise RuntimeError(f"wittkit {argv[0]} exited with code {code}")
    return out.getvalue()


# ---------------------------------------------------------------------------
# roundtrip: many small forms through the Q(z) covering path
# ---------------------------------------------------------------------------

# forms per rank in one round, all distinct, so that a round averages over
# many draws; ranks 1 and 2 balance rank 4, so the median item is a rank-3
# form, the middle of the size range
ROUNDTRIP_MIX = {1: 8, 2: 16, 3: 40, 4: 24}
ROUNDTRIP_QUICK = {1: 1, 2: 1, 3: 1, 4: 1}


def autometric_form(rng: random.Random, n: int, bound: int = 5):
    """Acceptance criterion 3's recipe at a fixed rank: the Cayley
    transform of a theta-skew generator, rejecting singular draws."""
    while True:
        eps = rng.choice([1, -1])
        m = Matrix([[Fraction(rng.randint(-bound, bound)) for _ in range(n)]
                    for _ in range(n)])
        theta = m + m.transpose().map(lambda v: v * eps)
        if theta.det() == 0:
            continue
        a = Matrix([[Fraction(rng.randint(-2, 2)) for _ in range(n)]
                    for _ in range(n)])
        x = a - theta.inverse() * a.transpose() * theta
        ident = Matrix.identity(n)
        if (ident - x).det() == 0:
            continue
        h = (ident - x).inverse() * (ident + x)
        try:
            return AutometricForm(theta.rows, h.rows, eps)
        except (ValueError, SingularAutometricForm):
            continue


def _roundtrip_item(label: str, form: AutometricForm) -> Item:
    def divisor_product():
        # the module covering_autometric builds: presented by z - h
        n = form.rank
        pres = Matrix([[LaurentPoly({0: -form.h[i, j], 1: int(i == j)})
                        for j in range(n)] for i in range(n)])
        out = [Fraction(1)]
        for d in decompose_module(pres, "Q").divisors:
            dense, shift = d.ordinary()
            out = refcheck.poly_mul(out, [Fraction(0)] * shift + dense)
        return out

    divisors = cache(divisor_product)
    charpoly = cache(lambda: refcheck.charpoly(form.h.rows))

    def check(ok):
        errors = [] if ok is True else [f"verify_roundtrip returned {ok!r}"]
        if divisors() != charpoly():
            errors.append(f"Smith divisors multiply to {divisors()}, "
                          f"det(zI - h) is {charpoly()}")
        return errors

    return Item(label, lambda: verify_roundtrip(form), check)


def build_roundtrip(seed: int, quick: bool = False) -> list:
    rng = random.Random(f"roundtrip-{seed}")
    mix = ROUNDTRIP_QUICK if quick else ROUNDTRIP_MIX
    items = []
    for rank, count in mix.items():
        for k in range(count):
            items.append(_roundtrip_item(f"rank{rank}#{k}",
                                         autometric_form(rng, rank)))
    return interleaved(items)


# ---------------------------------------------------------------------------
# knot_ladder: `wittkit analyze` on catalog and genus-ladder knots
# ---------------------------------------------------------------------------

# seeded ladder knots per genus in one round, on top of every genus-1
# ladder knot (genus1_knots), which hold the median item; the first seeded
# knot of each genus in LADDER_MIRRORS is also summed with its inverse
LADDER_MIX = {1: 1, 2: 6}
LADDER_MIRRORS = (1, 2)
# ladder knots drawn from one fixed seed: a single genus-3 or genus-4 knot
# takes 1 to 7 s depending on the draw and sets most of a round's time, so
# a seeded draw would make items_per_s read the seed rather than the program
HEAVY_SEED = "knot_ladder-heavy"
LADDER_HEAVY = {3: 2, 4: 1}
LADDER_QUICK = {1: 1, 2: 1}
LADDER_QUICK_MIRRORS = (1,)


def ladder_psi(rng: random.Random, genus: int, bound: int = 2) -> list:
    """ROADMAP's genus-ladder recipe: a standard symplectic upper part plus
    a random symmetric matrix, so psi - psi^T is unimodular."""
    n = 2 * genus
    psi = [[0] * n for _ in range(n)]
    for i in range(genus):
        psi[2 * i][2 * i + 1] = 1
    for i in range(n):
        for j in range(i, n):
            s = rng.randint(-bound, bound)
            psi[i][j] += s
            if i != j:
                psi[j][i] += s
    return psi


def genus1_knots() -> list:
    """Every genus-1 ladder knot: the 5^3 symmetric parts with entries in
    [-2, 2] that ``ladder_psi`` draws from at genus 1."""
    r = range(-2, 3)
    return [[[a, b + 1], [b, c]] for a in r for b in r for c in r]


def mirror_sum(psi) -> list:
    """Seifert matrix of K # -K: blockdiag(psi, -psi)."""
    n = len(psi)
    return ([row + [0] * n for row in psi]
            + [[0] * n + [-x for x in row] for row in psi])


def _analyze_item(label: str, psi, mirror: bool = False) -> Item:
    text = json.dumps({"name": label, "psi": psi, "epsilon": -1})
    psi_q = [[Fraction(x) for x in row] for row in psi]

    def check(output):
        return refcheck.check_analyze(json.loads(output), psi_q, -1, mirror)

    return Item(label, lambda: run_cli(["analyze", "--input", "-"], text),
                check)


def ladder_knots(rng: random.Random, mix: dict, mirrors) -> list:
    """(label, psi, mirror) for every ladder knot and mirror sum."""
    out = []
    for genus, count in mix.items():
        for k in range(count):
            psi = ladder_psi(rng, genus)
            out.append((f"genus{genus}#{k}", psi, False))
            if k == 0 and genus in mirrors:
                out.append((f"genus{genus}#0 # inverse", mirror_sum(psi),
                            True))
    return out


def build_knot_ladder(seed: int, quick: bool = False) -> list:
    rng = random.Random(f"knot_ladder-{seed}")
    names = catalog_names()[:1] if quick else catalog_names()
    items = [_analyze_item(name, CATALOG[name]["psi"],
                           name == "trefoil-inverse-sum")
             for name in names]
    mix, mirrors = ((LADDER_QUICK, LADDER_QUICK_MIRRORS) if quick
                    else (LADDER_MIX, LADDER_MIRRORS))
    knots = ladder_knots(rng, mix, mirrors)
    if not quick:
        knots += [(f"genus1 {psi}", psi, False) for psi in genus1_knots()]
        knots += ladder_knots(random.Random(HEAVY_SEED), LADDER_HEAVY, ())
    for label, psi, mirror in knots:
        items.append(_analyze_item(label, psi, mirror))
    return interleaved(items)


# ---------------------------------------------------------------------------
# lt_signatures: certified Levine-Tristram signatures and their jumps
# ---------------------------------------------------------------------------

# fixed turns in (0, 1/2) with prime-power denominators: Phi_{p^k}(1) = p,
# so no knot's Alexander polynomial vanishes there and every signature is
# defined.  Turns above 1/2 are left out: wittkit computes sigma(1 - t) as
# sigma(t), so they would only repeat work.
LT_TURNS = tuple(Fraction(*t) for t in ((1, 8), (1, 5), (1, 4), (1, 3),
                                        (3, 8), (2, 5)))
# seeded ladder knots per genus whose signatures are taken at the fixed
# turns, on top of every genus-1 ladder knot (genus1_knots): those hold the
# median item, where a seeded draw of them put the median in one of two
# clusters of item times depending on the seed
LT_TURN_MIX = {2: 4, 3: 2, 4: 1}
# rank-2 ladder knots whose jumps are taken; at higher rank the turn search
# on random knots has a heavy-tailed cost, which the twist sums show
# deterministically instead
LT_JUMP_KNOTS = 8
TWIST_NS = (1, 2, 5, 10, 20, 100)
# (turn mix, jump knots, twist n) of the quick slice
LT_QUICK = ({1: 1, 2: 1}, 1, (1, 2))


def twist_knot(n: int) -> KnotInput:
    return KnotInput(f"K_{n}", [[-1, 1], [0, -n]], -1)


def _jumps_item(label: str, knot: KnotInput) -> Item:
    psi = [[Fraction(x) for x in row] for row in knot.psi.rows]
    odd_sums = cache(lambda: witt_forgetful_laurent(
        dw_multisignature_laurent(blanchfield_form(knot))))

    def check(jumps):
        return refcheck.check_jumps(jumps, odd_sums(), psi)

    return Item(label, lambda: lt_jumps(knot), check)


def _turns_item(label: str, knot: KnotInput) -> Item:
    psi = [[Fraction(x) for x in row] for row in knot.psi.rows]
    reference = cache(lambda: refcheck.lt_signatures(psi, LT_TURNS))

    def run():
        return [(t, levine_tristram_signature(knot, t)) for t in LT_TURNS]

    return Item(label, run,
                lambda values: refcheck.check_turns(values, reference()))


def build_lt_signatures(seed: int, quick: bool = False) -> list:
    rng = random.Random(f"lt_signatures-{seed}")
    turn_mix, jump_knots, twists = (LT_QUICK if quick else
                                    (LT_TURN_MIX, LT_JUMP_KNOTS, TWIST_NS))
    items = []
    for n in twists:
        knot = connected_sum(twist_knot(n), twist_knot(n + 1))
        items.append(_jumps_item(f"jumps K_{n} # K_{n + 1}", knot))
    for k in range(jump_knots):
        knot = KnotInput(f"genus1#{k}", ladder_psi(rng, 1), -1)
        items.append(_jumps_item(f"jumps genus1#{k}", knot))
    if not quick:
        for k, psi in enumerate(genus1_knots()):
            items.append(_turns_item(f"turns genus1 {psi}",
                                     KnotInput(f"genus1 {k}", psi, -1)))
    for genus, count in turn_mix.items():
        for k in range(count):
            knot = KnotInput(f"genus{genus}#{k}", ladder_psi(rng, genus), -1)
            items.append(_turns_item(f"turns genus{genus}#{k}", knot))
    return interleaved(items)


# ---------------------------------------------------------------------------
# finite_oracle: `wittkit linking --search-bound` against the exhaustive
# lagrangian search
# ---------------------------------------------------------------------------

SEARCH_BOUND = 1000
LINKING_ARGV = ["linking", "--input", "-", "--search-bound", str(SEARCH_BOUND)]
# (prime, largest total exponent) of the criterion-5/6 enumerations
ENUMERATIONS = ((3, 5), (5, 4), (7, 3))
# the Smith forms of the seeded boundaries, each used twice a round: the
# seed draws the presentation (signs and a unimodular change of basis), not
# the group, so the mix of item sizes around the median item is the same
# for every seed; p = 2 parts of levels 1 to 3 included
BOUNDARY_DIAGONALS = (
    (2,), (3,), (4,), (5,), (6,), (8,), (12,), (1, 7), (1, 10), (1, 15),
    (2, 2), (2, 4), (3, 3), (2, 6), (4, 4), (5, 5), (3, 9), (1, 2, 2),
    (2, 2, 2), (2, 2, 4), (2, 4, 8), (1, 3, 9), (1, 3, 6), (2, 3, 5),
)
BOUNDARY_COPIES = 2
# (enumerations, boundary diagonals) of the quick slice
FINITE_QUICK = (((3, 3), (5, 2)), ((2,), (3, 3), (2, 2, 4)))


def nonsquare_unit(p: int) -> int:
    return next(u for u in range(2, p) if pow(u, (p - 1) // 2, p) == p - 1)


def _partitions(total: int, cap: int):
    if total == 0:
        yield ()
        return
    for first in range(min(total, cap), 0, -1):
        for rest in _partitions(total - first, first):
            yield (first,) + rest


def enumerate_forms(p: int, max_total: int):
    """One diagonal (levels, units) per isomorphism class of symmetric
    linking form on groups of order up to p^max_total: at odd p a level
    piece is fixed by its rank and determinant square class."""
    ns = nonsquare_unit(p)
    for total in range(1, max_total + 1):
        for shape in _partitions(total, total):
            levels = sorted(shape, reverse=True)
            distinct = sorted(set(shape), reverse=True)
            for mask in range(2 ** len(distinct)):
                units = [1] * len(levels)
                for bit, level in enumerate(distinct):
                    if mask >> bit & 1:
                        last = max(i for i, li in enumerate(levels)
                                   if li == level)
                        units[last] = ns
                yield levels, units


def diagonal_doc(p: int, levels, units) -> dict:
    n = len(levels)
    return {
        "prime": p,
        "orders": list(levels),
        "gram": [[str(Fraction(units[i], p ** levels[i])) if i == j else "0"
                  for j in range(n)] for i in range(n)],
        "epsilon": 1,
    }


def _form_item(label: str, doc: dict) -> Item:
    # constructing the form validates it, as the CLI will
    serialize.finite_form_from_json(doc)
    text = json.dumps(doc)
    orders = doc["orders"]
    homogeneous_even = len(set(orders)) == 1 and orders[0] % 2 == 0

    def check(output):
        parts = json.loads(output)["parts"]
        if len(parts) != 1:
            return [f"{len(parts)} parts for one primary form"]
        return refcheck.check_linking_part(parts[0], doc, homogeneous_even)

    return Item(label, lambda: run_cli(LINKING_ARGV, text), check)


def _boundary_item(label: str, alpha) -> Item:
    text = json.dumps({"alpha": alpha, "epsilon": 1})
    order = abs(refcheck.det(alpha))

    def check(output):
        errors = []
        total = 1
        for part in json.loads(output)["parts"]:
            form = part["form"]
            total *= form["prime"] ** sum(form["orders"])
            errors += refcheck.check_linking_part(part, form, False)
        if total != order:
            errors.append(f"parts have order {total}, |det alpha| = {order}")
        return errors

    return Item(label, lambda: run_cli(LINKING_ARGV, text), check)


def boundary_matrix(rng: random.Random, diagonal) -> list:
    """Seeded symmetric integer matrix U^T D U, with D = diag(+-d) for the
    given d and U a product of a few seeded elementary matrices; its
    cokernel is the sum of the Z/d."""
    n = len(diagonal)
    u = [[int(i == j) for j in range(n)] for i in range(n)]
    for _ in range(2 * (n - 1)):
        i, j = rng.sample(range(n), 2)
        m = rng.choice((-2, -1, 1, 2))
        u[i] = [a + m * b for a, b in zip(u[i], u[j])]
    d = [rng.choice((-1, 1)) * x for x in diagonal]
    return [[sum(u[k][i] * d[k] * u[k][j] for k in range(n))
             for j in range(n)] for i in range(n)]


def build_finite_oracle(seed: int, quick: bool = False) -> list:
    rng = random.Random(f"finite_oracle-{seed}")
    enumerations, diagonals = (FINITE_QUICK if quick else
                               (ENUMERATIONS,
                                BOUNDARY_DIAGONALS * BOUNDARY_COPIES))
    items = []
    for p, cap in enumerations:
        for levels, units in enumerate_forms(p, cap):
            items.append(_form_item(f"p={p} levels={levels} units={units}",
                                    diagonal_doc(p, levels, units)))
    if not quick:
        # the elementary 3^6 form diag(1, ..., 1, 2)/3
        items.append(_form_item("p=3 rank 6",
                                diagonal_doc(3, [1] * 6, [1] * 5 + [2])))
    for k, diagonal in enumerate(diagonals):
        alpha = boundary_matrix(rng, diagonal)
        items.append(_boundary_item(f"boundary#{k} {alpha}", alpha))
    return interleaved(items)


# one round's time at the reference host's speed (hostspeed.py), the sum of
# its items' corrected times; a run does round(--seconds / this) rounds, so
# how many rounds, and how many items a run attempts, depend on --seconds
# alone
ROUND_SECONDS = {
    "roundtrip": 5.4,
    "knot_ladder": 6.3,
    "lt_signatures": 9.5,
    "finite_oracle": 6.9,
}

BUILDERS = {
    "roundtrip": build_roundtrip,
    "knot_ladder": build_knot_ladder,
    "lt_signatures": build_lt_signatures,
    "finite_oracle": build_finite_oracle,
}
