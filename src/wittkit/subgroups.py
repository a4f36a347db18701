"""The brute-force lagrangian search on finite linking forms.

Lagrangian search enumerates isotropic subgroups only: a subgroup extension
stays isotropic exactly when the new generator self-annihilates and pairs to
zero with the existing generators, so the search tree prunes early.
Deduplication keys subgroups by the Hermite normal form of the lattice
generated by the generator tuple together with the relation lattice; that
key is also the deterministic witness order, and a child's key is its
parent's with one row inserted.  Candidate sets and element sets are int
bitmasks over the self-annihilating elements, which one linear table of the
functionals x^T N finds.  One enumeration serves all three questions:
`brute_force_lagrangians(form)` returns {mode: {"mode", "witnesses",
"exhausted"}} for every mode in MODES.  Any prime is allowed here,
including 2.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import gcd, prod
from operator import add, mod, mul

from wittkit.errors import SearchSpaceTooLarge
from wittkit.finite import FiniteLinkingForm

DEFAULT_SEARCH_BOUND = 10**4

MODES = ("any", "split", "complementary_pair")


# ---------------------------------------------------------------------------
# integer row Hermite normal form (unique echelon form), one row at a time
# ---------------------------------------------------------------------------

def _insert(key: tuple, x, orders) -> tuple:
    """The HNF of the lattice spanned by the full-rank HNF `key` and x, where
    the lattice of `key` contains diag(orders).

    x is reduced column by column against the pivot rows; where the pivot d
    does not divide x's entry a, one unimodular Euclid step on the two rows
    puts gcd(d, a) on the pivot, and what is left of x is taken mod orders
    (which changes nothing in the lattice) and is done with once it is 0.
    The entries above each pivot are then reduced into [0, pivot).  The HNF
    is unique, so this is the key that the whole generator list would get."""
    rows = list(key)
    n = len(rows)
    first = n
    for c in range(n):
        h = rows[c]
        a, d = x[c], h[c]
        if a % d:
            g = gcd(d, a)
            dd, aa = d // g, a // g
            t = pow(aa, -1, dd)
            rows[c] = [(1 - t * aa) // dd * u + t * v for u, v in zip(h, x)]
            x = [(dd * v - aa * u) % o for u, v, o in zip(h, x, orders)]
            first = min(first, c)
            if not any(x):
                break
        elif a:
            x = [v - a // d * u for u, v in zip(h, x)]
    for c in range(first, n):
        piv = rows[c]
        for i in range(c):
            k = rows[i][c] // piv[c]
            if k:
                rows[i] = [u - k * v for u, v in zip(rows[i], piv)]
    return tuple(map(tuple, rows))


def _lattice_key(gens, mixed_orders) -> tuple:
    """HNF basis of the preimage lattice of the subgroup generated by `gens`
    inside (+) Z/n_i; a canonical subgroup identifier."""
    n = len(mixed_orders)
    key = tuple(tuple(o if j == i else 0 for j in range(n))
                for i, o in enumerate(mixed_orders))
    for g in gens:
        key = _insert(key, g, mixed_orders)
    return key


def _witness_matrix(key: tuple, mixed_orders) -> list[list[int]]:
    """Generator matrix (generators as columns) from an HNF lattice key,
    with relation-only columns dropped."""
    n = len(mixed_orders)
    cols = []
    for basis_row in key:
        col = [basis_row[i] % mixed_orders[i] for i in range(n)]
        if any(col):
            cols.append(col)
    return [[col[i] for col in cols] for i in range(n)]


# ---------------------------------------------------------------------------
# isotropic subgroup enumeration
# ---------------------------------------------------------------------------

class _SearchContext:
    def __init__(self, form: FiniteLinkingForm, bound: int):
        self.form = form
        self.orders = list(form.mixed_orders())
        self.size = prod(self.orders)
        if self.size > bound:
            raise SearchSpaceTooLarge(
                f"|T| = {self.size} exceeds the search bound {bound}")
        self.q = form.prime ** max(form.orders, default=1)
        # row i of N = q * gram mod q, so pair(x, y) = x^T N y mod q
        self.rows = [[int(x * self.q) % self.q for x in row]
                     for row in form.gram]

    def elements(self):
        return product(*[range(o) for o in self.orders])

    def closure(self, base, x) -> frozenset:
        ord_x = max(
            (o // gcd(xi, o) for xi, o in zip(x, self.orders)), default=1)
        out = set()
        for h in base:
            for _ in range(ord_x):
                out.add(h)
                h = tuple(map(mod, map(add, h, x), self.orders))
        return frozenset(out)


def _elements(mask: int, cands) -> list:
    """The elements of `cands` whose bits are set in `mask`."""
    out = []
    while mask:
        low = mask & -mask
        out.append(cands[low.bit_length() - 1])
        mask ^= low
    return out


def _isotropic_subgroups(ctx: _SearchContext):
    """Every self-annihilating subgroup, as (hnf_key, element_mask) in
    breadth-first discovery order, and the list `cands` the masks index.

    `cands` holds the self-annihilating elements in enumeration order, so
    bit 0 is the zero element.  A node's candidates (those orthogonal to its
    generators), its elements and the elements it has covered are masks.  A
    child's candidates are its parent's ANDed with the new generator x's
    orthogonality mask, built once per x from its functional x^T N: the form
    is epsilon-symmetric, so x^T N y = 0 exactly when y^T N x = 0.  A child's
    key is its parent's with x inserted, and its elements the closure of the
    parent's, decoded only for a parent with a new child.  When a child has
    index p over its parent, every element of it outside the parent gives
    the same child, so those are skipped."""
    q = ctx.q
    # x^T N for every x in T, in `elements` order and unreduced: each
    # coordinate step adds one multiple of a row of N
    funcs = [(0,) * ctx.form.rank]
    for o, row in zip(ctx.orders, ctx.rows):
        steps = [[a * r for r in row] for a in range(o)]
        funcs = [tuple(map(add, f, s)) for f in funcs for s in steps]
    table = [(x, f) for x, f in zip(ctx.elements(), funcs)
             if not sum(map(mul, x, f)) % q]
    cands = [x for x, _ in table]
    index = {x: i for i, x in enumerate(cands)}
    orth = {}
    start_key = _lattice_key([], ctx.orders)
    seen = {start_key: 1}  # the zero element comes first
    queue = deque([(start_key, 1, (1 << len(cands)) - 1)])
    found = []
    while queue:
        key, mask, todo = queue.popleft()
        found.append((key, mask))
        elems = None
        index_p = ctx.form.prime * mask.bit_count()
        rest = todo & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            i = low.bit_length() - 1
            new_key = _insert(key, cands[i], ctx.orders)
            child = seen.get(new_key)
            if child is None:
                if elems is None:
                    elems = _elements(mask, cands)
                grown = ctx.closure(elems, cands[i])
                child = seen[new_key] = sum(1 << index[y] for y in grown)
                if i not in orth:
                    f = table[i][1]
                    orth[i] = sum(1 << j for j, y in enumerate(cands)
                                  if not sum(map(mul, f, y)) % q)
                queue.append((new_key, child, todo & orth[i]))
            if child.bit_count() == index_p:
                rest &= ~child
    return found, cands


def _is_pure(elems, ctx: _SearchContext) -> bool:
    """Pure subgroups (H intersect p^k T = p^k H for all k) are exactly the
    direct summands of a finite abelian p-group."""
    p = ctx.form.prime
    top = max(ctx.form.orders) if ctx.form.orders else 1
    for k in range(1, top):
        pk = p**k
        in_pkt = {
            x for x in elems
            if all(xi % min(pk, o) == 0 for xi, o in zip(x, ctx.orders))
        }
        pk_h = {
            tuple((pk * xi) % o for xi, o in zip(x, ctx.orders)) for x in elems
        }
        if in_pkt != pk_h:
            return False
    return True


# ---------------------------------------------------------------------------
# public oracles
# ---------------------------------------------------------------------------

def brute_force_lagrangians(
    form: FiniteLinkingForm,
    bound: int = DEFAULT_SEARCH_BOUND,
) -> dict:
    """Exhaustive lagrangian search: one enumeration answers every mode.

    mode "any": a subgroup with lambda|_L = 0 and |L|^2 = |T| (equivalently
    L = L-perp, since the form is nonsingular).
    mode "split": additionally a direct summand of T.
    mode "complementary_pair": two lagrangians meeting trivially, so their
    internal direct sum is all of T.

    Returns {mode: {"mode", "witnesses", "exhausted"}} for each mode in
    MODES; witnesses hold generator matrices (generators as columns), chosen
    minimal in HNF order, and are empty when the exhaustive search certifies
    absence.
    """
    ctx = _SearchContext(form, bound)
    found, cands = _isotropic_subgroups(ctx)
    lagrangians = sorted(
        (t for t in found if t[1].bit_count() ** 2 == ctx.size),
        key=lambda t: t[0])
    keys = {
        "any": [key for key, _ in lagrangians[:1]],
        "split": next(
            ([key] for key, mask in lagrangians
             if _is_pure(_elements(mask, cands), ctx)), []),
        # two lagrangians meet trivially when they share bit 0 (zero) only
        "complementary_pair": next(
            ([key_a, key_b] for key_a, a in lagrangians
             for key_b, b in lagrangians if a & b == 1),
            []),
    }
    return {
        mode: {"mode": mode,
               "witnesses": [_witness_matrix(k, ctx.orders) for k in keys[mode]],
               "exhausted": True}
        for mode in MODES
    }
