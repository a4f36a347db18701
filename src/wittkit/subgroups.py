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
- the child's order |W_c| o/p^b, known before it is built, can still end
  at the requested order: it does not exceed it, and times the largest
  order the columns before c-1 can add, o_0 ... o_(c-2), it reaches it.
The order bound drops only subgroups of other orders, so a search for
order sqrt|T| finds every lagrangian.  Candidate and element sets are int
bitmasks over the self-annihilating elements, found by a recurrence of
x^T N x over the columns.  Orthogonality masks come from the column masks,
and a child is its parent's cosets by multiples of g.  One enumeration
answers every mode in MODES.  Any prime is allowed here, including 2.
"""

from __future__ import annotations

from itertools import accumulate, compress, product
from math import isqrt, prod
from operator import mul, or_

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
    cols = [col for row in key
            if any(col := [x % o for x, o in zip(row, mixed_orders)])]
    return [[col[i] for col in cols] for i in range(len(mixed_orders))]


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


class _Table:
    """The self-annihilating elements `cands` in enumeration order and the
    kernels on bitmasks over them.  Packed into one int, x_c in a b-bit field
    (o_c <= 2^(b-1)), w + h in T is one sum and a fold of fields >= o_c."""

    def __init__(self, ctx: _SearchContext):
        orders, rows, q = ctx.orders, ctx.rows, ctx.q
        self.q, self.columns = q, list(zip(*rows))
        n = len(orders)
        b = max(orders, default=1).bit_length() + 1
        # each prefix x_0..x_(c-1) in enumeration order, packed, with x^T N x
        # over it and cross[j] = sum_(i<c) x_i (N_ij + N_ji) for each j >= c
        vals, packed, cross = [0], [0], [[0] for _ in orders]
        for c, o in enumerate(orders):
            vals = [val + v * (s + v * rows[c][c])
                    for val, s in zip(vals, cross[c]) for v in range(o)]
            packed = [x << b | v for x in packed for v in range(o)]
            for j in range(c + 1, n):
                steps = [v * (rows[c][j] + rows[j][c]) for v in range(o)]
                cross[j] = [s + t for s in cross[j] for t in steps]
        keep = [not val % q for val in vals]
        self.cands = list(compress(ctx.elements(), keep))
        self.packed = list(compress(packed, keep))
        self.bit = {x: 1 << i for i, x in enumerate(self.packed)}
        self.everything = (1 << len(self.cands)) - 1
        # col[c][v]: the candidates whose coordinate c is v
        self.col = [[0] * o for o in orders]
        for bit, x in zip(self.bit.values(), self.cands):
            for c, v in enumerate(x):
                self.col[c][v] |= bit
        self.live = [[(v, m) for v, m in enumerate(col) if m]
                     for col in self.col]
        self.shifts = [b * (n - 1 - c) for c in range(n)]
        carry = sum(1 << b - 1 << s for s in self.shifts)
        wrap = sum(o << s for o, s in zip(orders, self.shifts))
        self.fold = b - 1, (1 << b) - 1, carry, carry - wrap, wrap

    def orthogonal(self, i: int) -> int:
        """The candidates y with g^T N y = 0, g = cands[i]: a residue
        recurrence over the columns, through the values column c takes."""
        g, q = self.cands[i], self.q
        acc = {0: self.everything}
        for column, live in zip(self.columns, self.live):
            fc = sum(map(mul, g, column)) % q
            if fc:
                nxt = {}
                for r, m in acc.items():
                    for v, bits in live:
                        if both := m & bits:
                            k = (r + fc * v) % q
                            nxt[k] = nxt.get(k, 0) | both
                acc = nxt
        return acc.get(0, 0)

    def child(self, elems: list, i: int, index: int):
        """W + <g> for g = cands[i] and W's packed `elems`, with index * g
        in W: the cosets W + k g for k < index, packed, and their mask."""
        shift, field, carry, bias, wrap = self.fold
        g, out = self.packed[i], list(elems)
        for _ in range(index - 1):
            out += [(s := w + g) - (wrap & ((s + bias & carry) >> shift)
                                    * field) for w in out[-len(elems):]]
        return sum(map(self.bit.__getitem__, out)), out


def _isotropic_subgroups(ctx: _SearchContext, order: int):
    """Every self-annihilating subgroup of exactly `order` elements, each
    once, as (hnf_key, element_mask), and the list `cands` the masks index
    (bit 0 is zero); ([], []) at once when `order` lies outside [1, |T|].

    A node carries its rows, order, element mask, packed elements and
    `todo`: the candidates orthogonal to it and reduced against its pivots,
    the only possible rows above it.  A child's `todo` is its parent's ANDed
    with the mask below g's pivot in g's column and with g's orthogonality
    mask, built once per kept g (epsilon-symmetry makes it two-sided)."""
    orders = ctx.orders
    n = len(orders)
    # head[c]: the largest order the columns before c can add
    head = [prod(orders[:c]) for c in range(n + 1)]
    if not 1 <= order <= head[n]:
        return [], []
    table = _Table(ctx)
    cands, col, shifts = table.cands, table.col, table.shifts
    # pivots[c]: (d, the candidates zero before column c and d at it, those
    # below d at it) for each pivot d = o_c/p, o_c/p^2, ..., 1 of column c
    pivots = []
    zero_before = table.everything
    for c, o in enumerate(orders):
        below = list(accumulate(col[c], or_, initial=0))
        pivots.append([(d, zero_before & col[c][d], below[d])
                       for d in range(o - 1, 0, -1) if not o % d])
        zero_before &= col[c][0]
    trivial = [tuple(o if j == c else 0 for j in range(n))
               for c, o in enumerate(orders)]
    orth, scaled, found = {}, {}, []
    stack = [(n, (), 1, 1, [0], table.everything)]
    while stack:
        c, rows, size, mask, elems, todo = stack.pop()
        if not c:
            found.append((rows, mask))
            continue
        c -= 1
        o = orders[c]
        if size * head[c] >= order:
            stack.append((c, (trivial[c],) + rows, size, mask, elems, todo))
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
                # (o/d) g, zero at column c, must lie in W_c
                if i not in scaled:
                    scaled[i] = table.bit[sum(o // d * x % m << s for x, m, s
                                          in zip(cands[i], orders, shifts))]
                if mask & scaled[i]:
                    if i not in orth:
                        orth[i] = table.orthogonal(i)
                    stack.append((c, (cands[i],) + rows, grown,
                                  *table.child(elems, i, o // d),
                                  todo & orth[i] & under))
    return found, cands


def _is_pure(elems, ctx: _SearchContext) -> bool:
    """Pure subgroups (H intersect p^k T = p^k H for all k) are exactly the
    direct summands of a finite abelian p-group."""
    orders = ctx.orders
    for k in range(1, max(ctx.form.orders, default=1)):
        pk = ctx.form.prime**k
        if ({x for x in elems if all(xi % min(pk, o) == 0
                                     for xi, o in zip(x, orders))}
                != {tuple(pk * xi % o for xi, o in zip(x, orders))
                    for x in elems}):
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
        # a mask's elements: its binary digits, lowest first, select cands
        "split": next(
            ([key] for key, mask in lagrangians
             if _is_pure([*compress(cands, map(int, bin(mask)[:1:-1]))], ctx)),
            []),
        # two lagrangians meet trivially when they share bit 0 (zero) only
        "complementary_pair": next(
            ([key_a, key_b] for key_a, a in lagrangians
             for key_b, b in lagrangians if a & b == 1),
            []),
    }
    return {mode: {"mode": mode, "witnesses": [_witness_matrix(k, ctx.orders)
                                               for k in keys[mode]],
                   "exhausted": True} for mode in MODES}
