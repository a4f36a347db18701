"""The brute-force lagrangian search on finite linking forms.

Lagrangian search enumerates isotropic subgroups only: a subgroup extension
stays isotropic exactly when the new generator self-annihilates and pairs to
zero with the existing generators, so the search tree prunes early.
Deduplication keys subgroups by the Hermite normal form of the lattice
generated by the generator tuple together with the relation lattice; that
key is also the deterministic witness order.  One enumeration serves all
three questions: `brute_force_lagrangians(form)` returns
{mode: {"mode", "witnesses", "exhausted"}} for every mode in MODES.  Any
prime is allowed here, including 2.
"""

from __future__ import annotations

from collections import deque
from itertools import product
from math import gcd, prod

from wittkit.errors import SearchSpaceTooLarge
from wittkit.finite import FiniteLinkingForm

DEFAULT_SEARCH_BOUND = 10**4

MODES = ("any", "split", "complementary_pair")


# ---------------------------------------------------------------------------
# integer row Hermite normal form (unique echelon form)
# ---------------------------------------------------------------------------

def _hnf_rows(rows: list[list[int]], ncols: int) -> list[list[int]]:
    mat = [list(r) for r in rows]
    m = len(mat)
    r = 0
    for c in range(ncols):
        if r == m:
            break
        while True:
            nz = [i for i in range(r, m) if mat[i][c]]
            if not nz:
                break
            i0 = min(nz, key=lambda i: abs(mat[i][c]))
            if i0 != r:
                mat[r], mat[i0] = mat[i0], mat[r]
            piv = mat[r][c]
            clean = True
            for i in range(r + 1, m):
                if mat[i][c]:
                    q = mat[i][c] // piv
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
                    if mat[i][c]:
                        clean = False
            if clean:
                break
        if r < m and mat[r][c]:
            if mat[r][c] < 0:
                mat[r] = [-a for a in mat[r]]
            piv = mat[r][c]
            for i in range(r):
                q = mat[i][c] // piv
                if q:
                    mat[i] = [a - q * b for a, b in zip(mat[i], mat[r])]
            r += 1
    return mat[:r]


def _lattice_key(gens, mixed_orders) -> tuple:
    """HNF basis of the preimage lattice of the subgroup generated by `gens`
    inside (+) Z/n_i; a canonical subgroup identifier."""
    n = len(mixed_orders)
    rows = [list(g) for g in gens]
    rows += [[mixed_orders[i] if j == i else 0 for j in range(n)]
             for i in range(n)]
    return tuple(tuple(r) for r in _hnf_rows(rows, n))


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
        p = form.prime
        big = max(form.orders) if form.orders else 1
        self.q = p**big
        self.columns = [
            [int(form.gram[i][j] * self.q) % self.q for i in range(form.rank)]
            for j in range(form.rank)
        ]

    def functional(self, x) -> tuple:
        """x^T N mod q, so that pair(x, y) = functional(x) . y mod q."""
        return tuple(sum(a * b for a, b in zip(x, c)) % self.q
                     for c in self.columns)

    def pair(self, x, y) -> int:
        return sum(a * b for a, b in zip(self.functional(x), y)) % self.q

    def elements(self):
        return product(*[range(o) for o in self.orders])

    def add(self, x, y):
        return tuple((a + b) % o for a, b, o in zip(x, y, self.orders))

    def closure(self, base: frozenset, x) -> frozenset:
        ord_x = max(
            (o // gcd(xi, o) for xi, o in zip(x, self.orders)), default=1)
        out = set()
        for h in base:
            step = h
            for _ in range(ord_x):
                out.add(step)
                step = self.add(step, x)
        return frozenset(out)


def _isotropic_subgroups(ctx: _SearchContext):
    """Every self-annihilating subgroup, as (hnf_key, element_set), in
    breadth-first discovery order.  Each node carries the self-annihilating
    elements orthogonal to its generators, and a child filters that list by
    the new generator's functional x^T N: the form is epsilon-symmetric, so
    x^T N y = 0 exactly when y^T N x = 0.  A child's key is the HNF of its
    parent's key plus x.  When a child has index p over its parent, every
    element of it outside the parent gives the same child, so those are
    skipped."""
    n = ctx.form.rank
    q = ctx.q
    functional = {x: ctx.functional(x) for x in ctx.elements()
                  if ctx.pair(x, x) == 0}
    start_key = _lattice_key([], ctx.orders)
    seen = {start_key: frozenset({(0,) * n})}
    queue = deque([(start_key, seen[start_key], list(functional))])
    found = []
    while queue:
        key, elems, cands = queue.popleft()
        found.append((key, elems))
        covered = set(elems)
        for x in cands:
            if x in covered:
                continue
            new_key = tuple(tuple(r) for r in _hnf_rows([*key, x], n))
            if new_key not in seen:
                seen[new_key] = ctx.closure(elems, x)
                f = functional[x]
                queue.append((new_key, seen[new_key], [
                    y for y in cands if not sum(a * b for a, b in zip(f, y)) % q
                ]))
            if len(seen[new_key]) == ctx.form.prime * len(elems):
                covered |= seen[new_key]
    return found


def _is_pure(elems: frozenset, ctx: _SearchContext) -> bool:
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
    lagrangians = sorted(
        (t for t in _isotropic_subgroups(ctx) if len(t[1]) ** 2 == ctx.size),
        key=lambda t: t[0])
    keys = {
        "any": [key for key, _ in lagrangians[:1]],
        "split": next(
            ([key] for key, elems in lagrangians if _is_pure(elems, ctx)), []),
        "complementary_pair": next(
            ([key_a, key_b] for key_a, elems_a in lagrangians
             for key_b, elems_b in lagrangians if len(elems_a & elems_b) == 1),
            []),
    }
    return {
        mode: {"mode": mode,
               "witnesses": [_witness_matrix(k, ctx.orders) for k in keys[mode]],
               "exhausted": True}
        for mode in MODES
    }
