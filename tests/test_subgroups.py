"""Brute-force lagrangian and isomorphism oracles."""

import json
import random
from collections import deque
from fractions import Fraction as F
from itertools import product
from math import prod
from pathlib import Path

import pytest

from formbank import (
    _partitions,
    apply_generator_change,
    diagonal_form,
    enumerate_symmetric_forms,
    nonsquare_unit,
    random_automorphism,
)
from linking_oracle import (
    _hnf_rows,
    _lattice_key,
    brute_force_isomorphism,
    closure,
    dot_orthogonal,
    functional_table,
    is_pure,
    list_filter_subgroups,
)
from wittkit.errors import SearchSpaceTooLarge
from wittkit.finite import (
    FiniteLinkingForm,
    auxiliary_form,
    auxiliary_modules,
    boundary_of_form,
    classify,
    witt_class_fp,
)
from wittkit.serialize import finite_form_from_json
from wittkit.subgroups import (
    DEFAULT_SEARCH_BOUND,
    MODES,
    _is_pure,
    _isotropic_subgroups,
    _SearchContext,
    _Table,
    _witness_matrix,
    brute_force_lagrangians,
)


def test_quarter_form_has_lagrangian_but_no_split_one():
    f = FiniteLinkingForm(2, [2], [[F(1, 4)]], 1)
    out = brute_force_lagrangians(f)
    assert list(out) == list(MODES)
    assert out["any"] == {"mode": "any", "witnesses": [[[2]]],
                          "exhausted": True}
    assert out["split"]["witnesses"] == []


def test_order_three_absence_certificate():
    f = FiniteLinkingForm(3, [1], [[F(1, 3)]], 1)
    out = brute_force_lagrangians(f)["any"]
    assert out["witnesses"] == []
    assert out["exhausted"] is True


def test_hyperbolic_plane_coordinate_pair():
    f = FiniteLinkingForm(3, [2, 2], [[0, F(1, 9)], [F(1, 9), 0]], 1)
    out = brute_force_lagrangians(f)["complementary_pair"]
    assert out["witnesses"] == [[[1], [0]], [[0], [1]]]


def test_deep_cyclic_metabolic_not_hyperbolic():
    f = FiniteLinkingForm(3, [2], [[F(1, 9)]], 1)
    out = brute_force_lagrangians(f)
    assert out["any"]["witnesses"] == [[[3]]]
    assert out["complementary_pair"]["witnesses"] == []


def test_search_bound_enforced():
    f = FiniteLinkingForm(2, [14], [[F(1, 2**14)]], 1)
    with pytest.raises(SearchSpaceTooLarge):
        brute_force_lagrangians(f)
    assert brute_force_lagrangians(f, bound=2**14)["any"]["exhausted"]


def test_non_square_order_searches_nothing(monkeypatch):
    """When |T| is not a square no lagrangian exists: every mode certifies
    absence without building a single subgroup."""
    children = []
    child = _Table.child

    def counting(table, elems, i, index):
        children.append(i)
        return child(table, elems, i, index)

    monkeypatch.setattr(_Table, "child", counting)
    brute_force_lagrangians(FiniteLinkingForm(3, [2], [[F(1, 9)]], 1))
    assert children
    children.clear()
    fixture = Path(__file__).parent / "fixtures" / "elementary-3-7.json"
    for f in (diagonal_form(3, [1], [1]), diagonal_form(3, [1] * 3, [1] * 3),
              finite_form_from_json(json.loads(fixture.read_text()))):
        out = brute_force_lagrangians(f)
        for mode in MODES:
            assert out[mode] == {"mode": mode, "witnesses": [],
                                 "exhausted": True}, (f, mode)
    assert children == []


def _subgroup_elements(form, witness):
    """Close the witness columns inside the presented group."""
    orders = form.mixed_orders()
    n = form.rank
    gens = [tuple(witness[i][j] % orders[i] for i in range(n))
            for j in range(len(witness[0]))] if witness and witness[0] else []
    elems = {(0,) * n}
    for g in gens:
        grown = set()
        for e in elems:
            cur = e
            while True:
                grown.add(cur)
                cur = tuple((a + b) % o for a, b, o in zip(cur, g, orders))
                if cur == e:
                    break
        elems = grown
    return elems


def _pairing(form, x, y):
    """lambda(x, y) in Q/Z, straight from the Gram matrix."""
    gram = form.gram
    return sum(gram[i][j] * x[i] * y[j]
               for i in range(form.rank) for j in range(form.rank)) % 1


def _pairs_to_zero(form, elems):
    return all(_pairing(form, x, y) == 0 for x in elems for y in elems)


def test_witnesses_are_honest_lagrangians():
    rng = random.Random(7)
    for f in enumerate_symmetric_forms(3, 4):
        g = apply_generator_change(f, random_automorphism(rng, f))
        out = brute_force_lagrangians(g)["any"]
        if not out["witnesses"]:
            continue
        elems = _subgroup_elements(g, out["witnesses"][0])
        assert len(elems) ** 2 == prod(g.mixed_orders())
        assert _pairs_to_zero(g, elems)


def test_complementary_witnesses_meet_trivially():
    for f in enumerate_symmetric_forms(3, 4):
        out = brute_force_lagrangians(f)["complementary_pair"]
        if not out["witnesses"]:
            continue
        a = _subgroup_elements(f, out["witnesses"][0])
        b = _subgroup_elements(f, out["witnesses"][1])
        assert a & b == {(0,) * f.rank}
        assert len(a) * len(b) == prod(f.mixed_orders())


def test_classify_matches_oracle_small_sweep():
    for p in (3, 5):
        cap = 4 if p == 3 else 3
        for f in enumerate_symmetric_forms(p, cap):
            met = classify(f, "metabolic")
            hyp = classify(f, "hyperbolic")
            out = brute_force_lagrangians(f)
            assert met == bool(out["any"]["witnesses"])
            assert hyp == bool(out["complementary_pair"]["witnesses"])


def test_skew_forms_are_hyperbolic():
    for d in (1, 2):
        gram = [[0, F(1, 3**d)], [F(-1, 3**d) % 1, 0]]
        f = FiniteLinkingForm(3, [d, d], gram, -1)
        assert brute_force_lagrangians(f)["complementary_pair"]["witnesses"]
        assert classify(f, "hyperbolic")


# ---------------------------------------------------------------------------
# reference enumeration: every generator tested with the full pairing
# ---------------------------------------------------------------------------

def _reference_subgroups(ctx):
    """The slow path: each candidate is paired with every generator, and
    each key is the HNF of all generators plus the relation lattice."""
    f = ctx.form
    zero = (0,) * f.rank
    self_ann = [x for x in ctx.elements() if _pairing(f, x, x) == 0]
    start_key = _lattice_key([], ctx.orders)
    seen = {start_key}
    queue = deque([(start_key, frozenset({zero}), ())])
    found = []
    while queue:
        key, elems, gens = queue.popleft()
        found.append((key, elems))
        for x in self_ann:
            if x in elems:
                continue
            if any(_pairing(f, x, g) for g in gens):
                continue
            new_key = _lattice_key(list(gens) + [x], ctx.orders)
            if new_key in seen:
                continue
            seen.add(new_key)
            queue.append((new_key, closure(ctx, elems, x), gens + (x,)))
    return found


def _decoded_subgroups(ctx, order):
    """The mask enumeration of one order as (hnf_key, element_set) pairs."""
    found, table = _isotropic_subgroups(ctx, order)
    return [(key, frozenset(x for i, x in enumerate(table.cands)
                            if mask >> i & 1))
            for key, mask in found]


def _assert_enumerates_by_order(ctx, ref):
    """For every order p^k <= |T| the enumeration of that order finds the
    subgroups of that order in `ref`; over all orders it finds all of `ref`,
    and no key repeats."""
    everything = []
    order = 1
    while order <= ctx.size:
        found = _decoded_subgroups(ctx, order)
        assert set(found) == {t for t in ref if len(t[1]) == order}, \
            (ctx.form, order)
        everything += found
        order *= ctx.form.prime
    keys = [key for key, _ in everything]
    assert len(set(keys)) == len(keys) == len(ref), ctx.form
    assert set(everything) == set(ref), ctx.form


def _reference_witnesses(ctx, found, mode):
    """One mode answered from its own sorted lagrangian list."""
    lagrangians = sorted(
        ((key, elems) for key, elems in found
         if len(elems) ** 2 == ctx.size), key=lambda t: t[0])
    witnesses = []
    if mode == "any":
        if lagrangians:
            witnesses.append(_witness_matrix(lagrangians[0][0], ctx.orders))
    elif mode == "split":
        for key, elems in lagrangians:
            if is_pure(elems, ctx):
                witnesses.append(_witness_matrix(key, ctx.orders))
                break
    else:
        zero = (0,) * ctx.form.rank
        for key_a, elems_a in lagrangians:
            for key_b, elems_b in lagrangians:
                if len(elems_a) * len(elems_b) != ctx.size:
                    continue
                if elems_a & elems_b != {zero}:
                    continue
                witnesses = [_witness_matrix(key_a, ctx.orders),
                             _witness_matrix(key_b, ctx.orders)]
                break
            if witnesses:
                break
    return witnesses


def _diagonal_2_forms(max_total):
    """Diagonal 2-primary forms on groups of order up to 2^max_total, with
    every odd unit at each level."""
    for total in range(1, max_total + 1):
        for shape in _partitions(total, total):
            unit_choices = [range(1, 2**l, 2) for l in shape]
            for units in product(*unit_choices):
                yield diagonal_form(2, list(shape), list(units))


def _skew_forms():
    """Skew (epsilon = -1) forms: sums of hyperbolic planes (Z/p^d)^2 with
    pairing 1/p^d, at odd p and at p = 2."""
    for p, levels in ((2, (1,)), (2, (2,)), (2, (1, 1)), (3, (1,)),
                      (3, (2,)), (3, (1, 1)), (5, (1,)), (7, (1,))):
        n = 2 * len(levels)
        gram = [[F(0)] * n for _ in range(n)]
        orders = []
        for b, d in enumerate(levels):
            gram[2 * b][2 * b + 1] = F(1, p**d)
            gram[2 * b + 1][2 * b] = F(-1, p**d) % 1
            orders += [d, d]
        yield FiniteLinkingForm(p, orders, gram, -1)


def _reference_bank():
    rng = random.Random(41)
    bank = list(enumerate_symmetric_forms(3, 4))
    bank += enumerate_symmetric_forms(5, 3)
    bank += enumerate_symmetric_forms(7, 2)
    bank += _diagonal_2_forms(4)
    bank += _skew_forms()
    moved = [apply_generator_change(f, random_automorphism(rng, f))
             for f in bank if f.rank >= 2]
    return bank + moved


def test_enumeration_matches_reference():
    """The enumeration of each order finds the slow path's subgroups of that
    order, each once, and each mode gets the witnesses a search of its own
    would give, also on non-diagonal presentations (where the
    epsilon-symmetry the candidate filter relies on is not visible in the
    Gram matrix's shape)."""
    bank = _reference_bank()
    assert any(f.prime == 2 for f in bank)
    assert any(f.epsilon == -1 for f in bank)
    for f in bank:
        ctx = _SearchContext(f, 10**4)
        ref = _reference_subgroups(ctx)
        _assert_enumerates_by_order(ctx, ref)
        out = brute_force_lagrangians(f)
        for mode in MODES:
            assert out[mode]["witnesses"] == \
                _reference_witnesses(ctx, ref, mode), (f, mode)


def _boundary_parts():
    """The primary parts of the boundary fixtures and of diagonal and
    non-diagonal integral forms whose parts have mixed levels, at p = 2
    and 3, with both signs."""
    fixtures = Path(__file__).parent / "fixtures"
    docs = [json.loads((fixtures / name).read_text())
            for name in ("boundary-12-60.json", "boundary-skew-2-12.json")]
    docs += [{"alpha": alpha, "epsilon": 1} for alpha in (
        [[2, 0, 0], [0, 4, 0], [0, 0, 8]], [[4, 2], [2, 9]],
        [[3, 0, 0], [0, 9, 0], [0, 0, 27]], [[3, 3], [3, 30]])]
    docs.append({"alpha": [[0, 2, 0, 0], [-2, 0, 0, 0], [0, 0, 0, 8],
                           [0, 0, -8, 0]], "epsilon": -1})
    for doc in docs:
        parts = boundary_of_form(doc["alpha"], doc["epsilon"])
        yield from (parts[p] for p in sorted(parts))


def test_purity_popcounts_match_the_set_route():
    """On every isotropic subgroup of every order, of the enumerated forms
    and of the boundary parts, the popcount test agrees with comparing the
    sets H meet p^k T and p^k H."""
    forms = _reference_bank() + list(_boundary_parts())
    seen = {True: 0, False: 0}
    primes = set()
    for f in forms:
        ctx = _SearchContext(f, 10**4)
        order = 1
        while order <= ctx.size:
            found, table = _isotropic_subgroups(ctx, order)
            if found:
                purity = table.purity(f.prime)
            for key, mask in found:
                elems = {x for i, x in enumerate(table.cands)
                         if mask >> i & 1}
                pure = is_pure(elems, ctx)
                assert _is_pure(mask, purity) is pure, (f, key)
                seen[pure] += 1
                primes.add(f.prime)
            order *= f.prime
    assert seen[True] > 100 and seen[False] > 100, seen
    assert {2, 3, 5, 7} <= primes


# ---------------------------------------------------------------------------
# one-row HNF insertion and the mask enumeration against the slow routes
# ---------------------------------------------------------------------------

def _whole_list_key(gens, orders):
    """The key as one HNF of every generator plus the relation lattice."""
    n = len(orders)
    diag = [[o if j == i else 0 for j in range(n)]
            for i, o in enumerate(orders)]
    return tuple(tuple(r) for r in _hnf_rows([list(g) for g in gens] + diag, n))


def _random_generators(rng, orders, count):
    """Generators of five kinds: reduced, zero, already in the lattice of the
    earlier ones, with entries of both signs, and with entries above the
    orders."""
    gens = []
    for _ in range(count):
        kind = rng.randrange(5) if gens else rng.choice((0, 1, 3, 4))
        if kind == 1:
            g = [0] * len(orders)
        elif kind == 2:
            coeffs = [rng.randint(-3, 3) for _ in gens]
            g = [sum(a * h[i] for a, (_, h) in zip(coeffs, gens))
                 + rng.randint(-2, 2) * o for i, o in enumerate(orders)]
        elif kind == 3:
            g = [rng.randint(-3 * o, 3 * o) for o in orders]
        elif kind == 4:
            g = [rng.randint(o, 4 * o) for o in orders]
        else:
            g = [rng.randrange(o) for o in orders]
        gens.append((kind, g))
    return gens


def test_insertion_matches_whole_list_hnf():
    """Folding one-row insertions from diag(orders) gives the HNF that the
    whole generator list gets, on mixed orders p^l (l <= 3) at p = 2, 3, 5;
    a vector already in the lattice leaves the key unchanged."""
    rng = random.Random(14)
    assert _lattice_key([], []) == _whole_list_key([], []) == ()
    kinds = set()
    for p in (2, 3, 5):
        for _ in range(80):
            orders = [p ** rng.randint(1, 3) for _ in range(rng.randint(1, 4))]
            gens = _random_generators(rng, orders, rng.randint(1, 6))
            key = _lattice_key([], orders)
            for k, (kind, _) in enumerate(gens):
                prefix = [g for _, g in gens[:k + 1]]
                grown = _lattice_key(prefix, orders)
                assert grown == _whole_list_key(prefix, orders), \
                    (orders, prefix)
                if kind in (1, 2):
                    assert grown == key, (orders, prefix)
                key = grown
                kinds.add(kind)
    assert kinds == {0, 1, 2, 3, 4}


def _large_forms():
    rng = random.Random(14)
    mixed = diagonal_form(3, [2, 2, 1, 1], [1, 1, 1, 2])
    return [
        diagonal_form(3, [1] * 5, [1] * 5),
        diagonal_form(3, [1] * 6, [1] * 5 + [2]),
        diagonal_form(5, [1] * 4, [1, 1, 1, 2]),
        diagonal_form(2, [1] * 6, [1] * 6),
        next(f for f in _skew_forms() if (f.prime, f.orders) == (3, (1,) * 4)),
        apply_generator_change(mixed, random_automorphism(rng, mixed)),
    ]


def test_mask_enumeration_matches_list_filter_on_large_forms():
    """The enumeration of each order finds the list-filter enumeration's
    subgroups of that order, with the same keys and each once, on forms too
    large for the reference search."""
    forms = _large_forms()
    assert any(f.epsilon == -1 for f in forms)
    moved = forms[-1]
    assert any(moved.gram[i][j] for i in range(moved.rank)
               for j in range(moved.rank) if i != j)
    for f in forms:
        ctx = _SearchContext(f, 10**4)
        _assert_enumerates_by_order(ctx, list_filter_subgroups(ctx))


# ---------------------------------------------------------------------------
# the candidate table's kernels against the old routes
# ---------------------------------------------------------------------------

def _random_form(rng, p, epsilon, total):
    """A random epsilon-symmetric form on levels adding up to at most
    `total` (at least 2): hyperbolic planes (Z/p^l)^2 with pairing 1/p^l
    and cyclic pieces Z/p^l with pairing u/p^l, u a unit; at epsilon = -1
    the only cyclic piece is Z/2 with 1/2."""
    cyclic = epsilon == 1 or p == 2
    levels, entries = [], []
    while not levels or total - sum(levels) >= 2 - cyclic \
            and rng.random() < 0.7:
        room = total - sum(levels)
        i = len(levels)
        if room >= 2 and (not cyclic or rng.random() < 0.4):
            l = rng.randint(1, room // 2)
            levels += [l, l]
            entries += [(i, i + 1, F(1, p**l)),
                        (i + 1, i, F(epsilon, p**l) % 1)]
        else:
            l = rng.randint(1, room) if epsilon == 1 else 1
            unit = rng.choice([u for u in range(1, p**l) if u % p])
            levels.append(l)
            entries.append((i, i, F(unit, p**l)))
    gram = [[F(0)] * len(levels) for _ in levels]
    for i, j, value in entries:
        gram[i][j] = value
    return FiniteLinkingForm(p, levels, gram, epsilon)


def _kernel_bank():
    """Random forms at p = 2, 3, 5, 7 and epsilon = +-1, each also
    re-presented by a random automorphism; the deepest cyclic Z/p^k within
    the search bound; mixed levels 3^5 + 3^2 + 3; rank 0, the one
    presentation of |T| = 1."""
    rng = random.Random(38)
    bank = []
    for p, total in ((2, 6), (3, 4), (5, 3), (7, 3)):
        for epsilon in (1, -1):
            for _ in range(5):
                f = _random_form(rng, p, epsilon, total)
                bank.append(f)
                if f.rank >= 2:
                    bank.append(apply_generator_change(
                        f, random_automorphism(rng, f)))
            bank.append(FiniteLinkingForm(p, [], [], epsilon))
        deep = max(k for k in range(1, 20) if p**k <= DEFAULT_SEARCH_BOUND)
        bank.append(diagonal_form(p, [deep], [1]))
    bank.append(diagonal_form(3, [5, 2, 1], [1, 2, 1]))
    return bank


def test_table_kernels_match_the_old_routes(monkeypatch):
    """The prefix recurrence finds the functional table's candidates, in
    the same order; every residue-recurrence orthogonality mask is the
    dot-product mask; and every child the search builds from cosets is the
    closure of its parent with g, each element once."""
    children = []
    child = _Table.child

    def recording(table, elems, i, index):
        out = child(table, elems, i, index)
        children.append((table, elems, i, out))
        return out

    monkeypatch.setattr(_Table, "child", recording)
    bank = _kernel_bank()
    assert {(f.prime, f.epsilon) for f in bank} == {
        (p, e) for p in (2, 3, 5, 7) for e in (1, -1)}
    assert any(f.gram[i][j] and i != j and f.epsilon == 1 for f in bank
               for i in range(f.rank) for j in range(f.rank))
    assert any(len(set(f.orders)) > 1 for f in bank)
    built = 0
    for f in bank:
        ctx = _SearchContext(f, DEFAULT_SEARCH_BOUND)
        old = functional_table(ctx)
        table = _Table(ctx)
        assert table.cands == [x for x, _ in old], f
        for i, (_, func) in enumerate(old):
            assert table.orthogonal(i) == dot_orthogonal(ctx, old, func), \
                (f, i)
        index = {x: i for i, x in enumerate(table.cands)}
        children.clear()
        order = 1
        while order <= ctx.size:
            _isotropic_subgroups(ctx, order)
            order *= f.prime
        for searched, elems, i, (mask, out) in children:
            unpack = dict(zip(searched.packed, searched.cands))
            want = closure(ctx, [unpack[w] for w in elems], searched.cands[i])
            assert len(out) == len(want), (f, i)
            assert {unpack[w] for w in out} == want, (f, i)
            assert mask == sum(1 << index[y] for y in want), (f, i)
        built += len(children)
    assert built > 1000


# ---------------------------------------------------------------------------
# isomorphism oracle and the decomposition contract
# ---------------------------------------------------------------------------

def _auxiliaries_match(f, g):
    if auxiliary_modules(f) != auxiliary_modules(g):
        return False
    for l in auxiliary_modules(f):
        a = auxiliary_form(f, l)
        b = auxiliary_form(g, l)
        if witt_class_fp(f.prime, a.gram, a.v) != witt_class_fp(
                g.prime, b.gram, b.v):
            return False
    return True


def test_isomorphism_witness_preserves_pairing():
    f = diagonal_form(5, [1, 1], [1, 4])
    g = diagonal_form(5, [1, 1], [4, 1])
    c = brute_force_isomorphism(f, g)
    assert c is not None
    n = f.rank
    for i in range(n):
        for j in range(n):
            val = sum(
                c[a][i] * c[b][j] * g.gram[a][b]
                for a in range(n) for b in range(n)
            ) % 1
            assert val == f.gram[i][j]


def test_isomorphism_distinguishes_discriminants():
    assert brute_force_isomorphism(
        diagonal_form(3, [1], [1]), diagonal_form(3, [1], [2])) is None
    assert brute_force_isomorphism(
        diagonal_form(5, [1], [1]), diagonal_form(5, [1], [2])) is None


def test_isomorphism_requires_same_group():
    f = diagonal_form(3, [2], [1])
    g = diagonal_form(3, [1, 1], [1, 1])
    assert brute_force_isomorphism(f, g) is None


def test_decomposition_contract_moderate():
    """Isomorphism of forms on one group type is equivalent to isomorphism
    of all their auxiliary forms (rank plus discriminant class at each
    level), checked exhaustively on small 3- and 5-groups."""
    for p, cap in ((3, 4), (5, 3)):
        forms = list(enumerate_symmetric_forms(p, cap))
        by_shape = {}
        for f in forms:
            by_shape.setdefault(f.orders, []).append(f)
        for shape, bunch in by_shape.items():
            for i, f in enumerate(bunch):
                for g in bunch[i:]:
                    expected = _auxiliaries_match(f, g)
                    witness = brute_force_isomorphism(f, g)
                    assert (witness is not None) == expected


def test_decomposition_contract_under_presentation_change():
    rng = random.Random(23)
    for f in list(enumerate_symmetric_forms(3, 3))[:8]:
        g = apply_generator_change(f, random_automorphism(rng, f))
        assert brute_force_isomorphism(f, g) is not None
