"""The brute-force lagrangian search on finite linking forms.

T = (+) Z/o_i, o_i = p^(a_i), and a subgroup H is keyed by the Hermite
normal form of its preimage lattice in Z^n (which contains diag(o_i)): row
i is o_i e_i, or p^b e_i + t with b < a_i and t_j in [0, pivot_j) for
j > i.  The key is unique, and it is also the deterministic witness order.

The search builds each key from the last column up.  A node W_c is the
subgroup H meets on the coordinates >= c, spanned by rows c..n-1, so
0 = W_n <= W_(n-1) <= ... <= W_0 = H is a chain of subgroups of H, each
itself isotropic, and every subgroup is reached along exactly one path: by
its own key's rows.  Row c-1 is either o e_(c-1) or g = p^b e_(c-1) + t,
and g is kept only when
- g is self-annihilating and orthogonal to W_c (one bit of the node's
  candidate mask),
- (o/p^b) t lies in W_c: the lattice holds o e_(c-1), which is
  (o/p^b) g - (o/p^b) t, so otherwise g is not its HNF row, and
- the child's order |W_c| o/p^b, known before any closure, can still end
  at the requested order: it does not exceed it, and times the largest
  order the columns before c-1 can add, o_0 ... o_(c-2), it reaches it.
The order bound drops only subgroups of other orders, so a search for
order sqrt|T| finds every lagrangian.  Candidate and element sets are int
bitmasks over the self-annihilating elements, which one linear table of the
functionals x^T N finds.  One enumeration serves all three questions:
`brute_force_lagrangians(form)` returns {mode: {"mode", "witnesses",
"exhausted"}} for every mode in MODES.  Any prime is allowed here,
including 2.
"""

from __future__ import annotations

from itertools import product
from math import gcd, isqrt, prod
from operator import add, mod, mul

from wittkit.errors import SearchSpaceTooLarge
from wittkit.finite import FiniteLinkingForm

DEFAULT_SEARCH_BOUND = 10**4

MODES = ("any", "split", "complementary_pair")


# ---------------------------------------------------------------------------
# HNF keys and isotropic subgroup enumeration
# ---------------------------------------------------------------------------

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


class _SearchContext:
    def __init__(self, form: FiniteLinkingForm, bound: int):
        self.form = form
        self.orders = list(form.mixed_orders())
        self.size = prod(self.orders)
        if self.size > bound:
            raise SearchSpaceTooLarge(
                f"|T| = {self.size} exceeds the search bound {bound}")
        # pair(x, y) = x^T N y mod q, N the form's numerators over q
        self.q = form.q
        self.rows = form.num

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


def _isotropic_subgroups(ctx: _SearchContext, order: int):
    """Every self-annihilating subgroup of exactly `order` elements, each
    once, as (hnf_key, element_mask), and the list `cands` the masks index;
    ([], []) at once when `order` lies outside [1, |T|].

    `cands` holds the self-annihilating elements in enumeration order, so
    bit 0 is the zero element.  A node carries its rows, order, element
    mask and `todo`: the candidates orthogonal to it and reduced against
    its pivots, which are the only possible rows above it.  A child's
    `todo` is its parent's ANDed with the new row g's orthogonality mask,
    built once per g from its functional g^T N (the form is
    epsilon-symmetric, so g^T N y = 0 exactly when y^T N g = 0), and with
    the mask of elements below g's pivot in g's column.  A child's elements
    are the closure of its parent's with g, decoded only for a parent with
    a kept child."""
    orders = ctx.orders
    n = len(orders)
    # head[c]: the largest order the columns before c can add
    head = [1]
    for o in orders:
        head.append(head[-1] * o)
    if not 1 <= order <= head[n]:
        return [], []
    q = ctx.q
    # x^T N for every x in T, in `elements` order and unreduced: each
    # coordinate step adds one multiple of a row of N
    funcs = [(0,) * n]
    for o, row in zip(orders, ctx.rows):
        steps = [[a * r for r in row] for a in range(o)]
        funcs = [tuple(map(add, f, s)) for f in funcs for s in steps]
    table = [(x, f) for x, f in zip(ctx.elements(), funcs)
             if not sum(map(mul, x, f)) % q]
    cands = [x for x, _ in table]
    index = {x: i for i, x in enumerate(cands)}
    everything = (1 << len(cands)) - 1
    # col[c][v]: the candidates whose coordinate c is v
    col = [[0] * o for o in orders]
    for i, x in enumerate(cands):
        for c, v in enumerate(x):
            col[c][v] |= 1 << i
    # pivots[c]: (d, the candidates zero before column c and d at it, those
    # below d at it) for each pivot d = o_c/p, o_c/p^2, ..., 1 of column c
    p = ctx.form.prime
    pivots = []
    zero_before = everything
    for c, o in enumerate(orders):
        below = [0]
        for bits in col[c]:
            below.append(below[-1] | bits)
        pivots.append([])
        d = o // p
        while d:
            pivots[c].append((d, zero_before & col[c][d], below[d]))
            d //= p
        zero_before &= col[c][0]
    trivial = [tuple(o if j == c else 0 for j in range(n))
               for c, o in enumerate(orders)]
    orth = {}
    found = []
    stack = [(n, (), 1, 1, everything)]
    while stack:
        c, rows, size, mask, todo = stack.pop()
        if not c:
            found.append((rows, mask))
            continue
        c -= 1
        o = orders[c]
        if size * head[c] >= order:
            stack.append((c, (trivial[c],) + rows, size, mask, todo))
        elems = None
        for d, led, under in pivots[c]:
            grown = size * (o // d)
            if grown > order:
                break
            if grown * head[c] < order:
                continue
            rest = todo & led
            while rest:
                low = rest & -rest
                rest ^= low
                i = low.bit_length() - 1
                g = cands[i]
                # (o/d) g, zero at column c, must lie in W_c
                if not mask >> index[tuple(
                        o // d * x % m for x, m in zip(g, orders))] & 1:
                    continue
                if elems is None:
                    elems = _elements(mask, cands)
                child = sum(1 << index[y] for y in ctx.closure(elems, g))
                if i not in orth:
                    f = table[i][1]
                    orth[i] = sum(1 << j for j, y in enumerate(cands)
                                  if not sum(map(mul, f, y)) % q)
                stack.append((c, (g,) + rows, grown, child,
                              todo & orth[i] & under))
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
    # a lagrangian has order sqrt|T|, so a non-square |T| admits none
    root = isqrt(ctx.size)
    found, cands = _isotropic_subgroups(
        ctx, root if root * root == ctx.size else 0)
    lagrangians = sorted(found, key=lambda t: t[0])
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
