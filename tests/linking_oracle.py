"""Oracles on finite linking forms and integral boundaries.

Slow, exhaustive or structural routes that `wittkit.finite` and
`wittkit.subgroups` no longer need, kept to check them against:

- `is_homogeneous`, `direct_sum` and `negate`: the constructions the
  acceptance criteria need of finite forms, which nothing in `wittkit`
  reads.
- `primary_decompose`: the p-primary parts of a pairing on (+) Z/n_i
  given as rationals mod 1, through the split `boundary_of_form` makes.
- `mixed_multisignature`: the multisignature of a mixed-order
  presentation, as the sum over the parts `primary_decompose` returns.
- `homogeneous_split`: an orthogonal splitting into pieces of one level,
  whose multisignatures must add up to the whole form's.
- `brute_force_isomorphism`: a backtracking search for a pairing-preserving
  group isomorphism between two forms, any prime, including 2.
- `verify_boundary_complementary`: exactness of the sequence a pair of
  complementary S-lagrangians of an integral form must give.
- `_insert`, `_lattice_key` and `_hnf_rows`: the integer row Hermite
  normal form of a lattice grown one generator at a time, and of a whole
  generator list; `_lattice_key` is also the isomorphism search's test
  that the chosen images generate.
- `list_filter_subgroups`: the breadth-first isotropic subgroup enumeration
  that filters candidate lists by dot products and keys each child by the
  HNF of its parent's key plus the new generator, deduplicating by key,
  which `wittkit.subgroups` replaced by bitmasks and one HNF row per
  column.
- `functional_table`, `dot_orthogonal` and `closure`: the candidates from
  one table of the functionals x^T N over all of T, a row's orthogonality
  mask by one dot product per candidate, and a subgroup's closure with a
  new element by ord(x) steps over tuples, which `wittkit.subgroups`
  replaced by a prefix recurrence, a residue recurrence on column masks and
  cosets of packed elements.
- `_check_pairing`, `_adjoint_is_iso` and `witt_class_fp`: the checks of a
  gram of reduced `Fraction`s, the adjoint's bijectivity by a Smith form of
  [N | diag(n)], and the Witt class by a `Fraction` determinant, which
  `wittkit.finite` replaced by integer numerators and one elimination
  mod p; `fraction_check`, `fraction_gram`, `fraction_primary_grams` and
  `fraction_boundary_gram` are the validation and the grams of those
  `Fraction` routes.  `fraction_boundary_gram` keeps the pairing
  U^{-T} V D^{-1}, with U^{-1} the inverse over Q of the Smith transform U
  of `snf_oracle`, which `boundary_of_form` replaced by epsilon D^{-1}
  (V^T alpha V) D^{-1} on integers.
- `integral_member`: membership in a lattice read entry by entry off the
  Smith transform U of `snf_oracle`, with `Fraction` products, which
  `seifert`'s witness check replaced by one `_gauss_jordan` of [B | E B].
"""

from __future__ import annotations

from collections import deque
from fractions import Fraction
from math import gcd
from operator import add, mod, mul

from wittkit.errors import (
    ComputationError,
    EvenPrimeUnsupported,
    SingularForm,
    SingularOverFractionField,
)
from wittkit.exact.matrix import Matrix
from wittkit.exact.snf import smith_normal_form
from wittkit.finite import (
    DWMultiSignatureZ,
    FiniteLinkingForm,
    WittClassFp,
    _as_int_matrix,
    _factor,
    _legendre,
    _numerators,
    _primary_parts,
    dw_multisignature,
)
from wittkit.subgroups import DEFAULT_SEARCH_BOUND, _SearchContext

from elimination_oracle import hstack, rank, vstack
import snf_oracle


class NotAnSLagrangian(ComputationError):
    pass


def _mod1(x) -> Fraction:
    return Fraction(x) % 1


def _den_exp(x: Fraction, p: int) -> int:
    """k with denominator(x) = p^k, or -1 if the denominator is not a p power."""
    d = x.denominator
    k = 0
    while d % p == 0:
        d //= p
        k += 1
    return k if d == 1 else -1


def form_order(f: FiniteLinkingForm) -> int:
    """|T| = p^(l_1 + ... + l_r)."""
    return f.prime ** sum(f.orders)


def is_homogeneous(f: FiniteLinkingForm) -> bool:
    return len(set(f.orders)) <= 1


def direct_sum(a: FiniteLinkingForm,
               b: FiniteLinkingForm) -> FiniteLinkingForm:
    if (a.prime, a.epsilon) != (b.prime, b.epsilon):
        raise ValueError("direct sum needs matching prime and symmetry")
    orders = a.orders + b.orders
    q = a.prime ** max(orders, default=0)
    sa, sb = q // a.q, q // b.q
    num = ([[x * sa for x in row] + [0] * b.rank for row in a.num]
           + [[0] * a.rank + [x * sb for x in row] for row in b.num])
    return FiniteLinkingForm._built(a.prime, orders, num, a.epsilon)


def negate(f: FiniteLinkingForm) -> FiniteLinkingForm:
    num = [[-x % f.q for x in row] for row in f.num]
    return FiniteLinkingForm._built(f.prime, f.orders, num, f.epsilon)


def multisignature_support(ms) -> list:
    """The (prime, level) keys of a `DWMultiSignatureZ`, sorted."""
    return sorted(ms.entries)


def primary_decompose(orders, gram, epsilon: int) -> dict:
    """Split a pairing on (+) Z/n_i, given as rationals mod 1, into
    orthogonal p-primary linking forms: `finite._primary_parts` on its
    numerators, which checks the whole pairing once."""
    orders = [int(n) for n in orders]
    if any(n < 1 for n in orders):
        raise ValueError("orders must be positive")
    return _primary_parts(orders, *_numerators(gram), epsilon)


def mixed_multisignature(orders, gram, epsilon: int) -> DWMultiSignatureZ:
    """The multisignature of a pairing on (+) Z/n_i: the sum of the primary
    parts' multisignatures, so a 2-primary part raises."""
    total = DWMultiSignatureZ({})
    for part in primary_decompose(orders, gram, epsilon).values():
        total = total + dw_multisignature(part)
    return total


# ---------------------------------------------------------------------------
# homogeneous splitting
# ---------------------------------------------------------------------------

def homogeneous_split(form: FiniteLinkingForm) -> list[tuple[int, FiniteLinkingForm]]:
    """Orthogonal splitting into pieces with all generators of one order,
    returned as (level, form) with levels ascending.

    Top-down: at each step the maximal level L of the remaining module admits
    a Gram entry with denominator exactly p^L (else the form is singular);
    the lowest such diagonal entry splits off a rank-1 piece, otherwise the
    lowest row-major off-diagonal entry anchors a rank-2 piece.  The
    orthogonalization coefficients are integers, so generator orders are
    preserved.
    """
    p, eps = form.prime, form.epsilon
    levels = list(form.orders)
    gram = [list(r) for r in form.gram]
    pieces: dict[int, list] = {}

    def record(level, block):
        pieces.setdefault(level, []).append(block)

    while levels:
        big = max(levels)
        m = len(levels)
        diag = next(
            (i for i in range(m) if _den_exp(gram[i][i], p) == big), None)
        if diag is not None:
            i = diag
            a = (gram[i][i] * p**big).numerator % p**big  # unit mod p
            inv = pow(a, -1, p**big)
            keep = [k for k in range(m) if k != i]
            coeff = {}
            for k in keep:
                b = int(gram[k][i] * p**big)  # integer: denom exp <= big
                coeff[k] = b * inv % p**big
            new_gram = [
                [
                    _mod1(
                        gram[a1][b1]
                        - coeff[b1] * gram[a1][i]
                        - coeff[a1] * gram[i][b1]
                        + coeff[a1] * coeff[b1] * gram[i][i]
                    )
                    for b1 in keep
                ]
                for a1 in keep
            ]
            record(big, [[gram[i][i]]])
            levels = [levels[k] for k in keep]
            gram = new_gram
            continue
        off = None
        for i in range(m):
            for j in range(m):
                if j != i and _den_exp(gram[i][j], p) == big:
                    off = (min(i, j), max(i, j))
                    break
            if off is not None:
                break
        if off is None:
            raise SingularForm("no Gram entry realizes the maximal level")
        i, j = off
        q = p**big
        mat = [
            [int(gram[i][i] * q) % q, int(gram[j][i] * q) % q],
            [int(gram[i][j] * q) % q, int(gram[j][j] * q) % q],
        ]
        det = mat[0][0] * mat[1][1] - mat[0][1] * mat[1][0]
        det_inv = pow(det % q, -1, q)
        keep = [k for k in range(m) if k not in (i, j)]
        coeff = {}
        for k in keep:
            r0 = int(gram[k][i] * q) % q
            r1 = int(gram[k][j] * q) % q
            ak = det_inv * (mat[1][1] * r0 - mat[0][1] * r1) % q
            bk = det_inv * (-mat[1][0] * r0 + mat[0][0] * r1) % q
            coeff[k] = (ak, bk)

        def adjusted(a1, b1):
            aa, ba = coeff[a1]
            ab, bb = coeff[b1]
            val = (
                gram[a1][b1]
                - ab * gram[a1][i] - bb * gram[a1][j]
                - aa * gram[i][b1] - ba * gram[j][b1]
                + aa * ab * gram[i][i] + aa * bb * gram[i][j]
                + ba * ab * gram[j][i] + ba * bb * gram[j][j]
            )
            return _mod1(val)

        new_gram = [[adjusted(a1, b1) for b1 in keep] for a1 in keep]
        record(big, [[gram[i][i], gram[i][j]], [gram[j][i], gram[j][j]]])
        levels = [levels[k] for k in keep]
        gram = new_gram

    out = []
    for level in sorted(pieces):
        blocks = pieces[level]
        size = sum(len(b) for b in blocks)
        gram_l = [[Fraction(0)] * size for _ in range(size)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                for j, x in enumerate(row):
                    gram_l[at + i][at + j] = x
            at += len(b)
        out.append(
            (level,
             FiniteLinkingForm(p, [level] * size, gram_l, eps))
        )
    return out


# ---------------------------------------------------------------------------
# isomorphism search
# ---------------------------------------------------------------------------

def _pair(ctx: _SearchContext, x, y) -> int:
    """lambda(x, y) = x^T N y mod q."""
    return sum(a * b * r for a, row in zip(x, ctx.rows)
               for b, r in zip(y, row)) % ctx.q


def brute_force_isomorphism(
    f: FiniteLinkingForm,
    g: FiniteLinkingForm,
    bound: int = DEFAULT_SEARCH_BOUND,
):
    """Backtracking search for a pairing-preserving group isomorphism,
    returned as an integer matrix C (columns = images of f's generators)
    with C^T gram_g C = gram_f in Q/Z, or None.
    """
    if (f.prime, f.epsilon) != (g.prime, g.epsilon):
        return None
    if sorted(f.orders) != sorted(g.orders):
        return None
    ctx = _SearchContext(g, bound)
    n = f.rank
    q = ctx.q
    target = [
        [int(f.gram[i][j] * q) % q for j in range(n)] for i in range(n)
    ]
    elements = list(ctx.elements())
    candidates = []
    for i in range(n):
        order_i = f.mixed_orders()[i]
        cand = [
            x for x in elements
            if all((order_i * xj) % o == 0 for xj, o in zip(x, ctx.orders))
            and _pair(ctx, x, x) == target[i][i]
        ]
        candidates.append(cand)

    full_key = _lattice_key(
        [[1 if j == i else 0 for j in range(n)] for i in range(n)],
        ctx.orders,
    )
    chosen: list = []

    def extend(i: int):
        if i == n:
            return _lattice_key(chosen, ctx.orders) == full_key
        for x in candidates[i]:
            if all(
                _pair(ctx, x, chosen[k]) == target[i][k] for k in range(i)
            ):
                chosen.append(x)
                if extend(i + 1):
                    return True
                chosen.pop()
        return False

    if not extend(0):
        return None
    return [[chosen[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# HNF keys: one row at a time, and of a whole generator list
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


# ---------------------------------------------------------------------------
# isotropic subgroups by list filtering and whole-list HNF keys
# ---------------------------------------------------------------------------

def functional_table(ctx: _SearchContext) -> list:
    """The self-annihilating elements x in enumeration order, each with its
    unreduced functional x^T N: one table over all of T, each coordinate
    step adding one multiple of a row of N."""
    funcs = [(0,) * len(ctx.orders)]
    for o, row in zip(ctx.orders, ctx.rows):
        steps = [[a * r for r in row] for a in range(o)]
        funcs = [tuple(map(add, f, s)) for f in funcs for s in steps]
    return [(x, f) for x, f in zip(ctx.elements(), funcs)
            if not sum(map(mul, x, f)) % ctx.q]


def dot_orthogonal(ctx: _SearchContext, table: list, f) -> int:
    """The mask of the candidates y in `table` with f . y = 0 mod q, one dot
    product each."""
    return sum(1 << j for j, (y, _) in enumerate(table)
               if not sum(map(mul, f, y)) % ctx.q)


def closure(ctx: _SearchContext, base, x) -> frozenset:
    """The subgroup `base` + <x>, by ord(x) steps from each element."""
    ord_x = max(
        (o // gcd(xi, o) for xi, o in zip(x, ctx.orders)), default=1)
    out = set()
    for h in base:
        for _ in range(ord_x):
            out.add(h)
            h = tuple(map(mod, map(add, h, x), ctx.orders))
    return frozenset(out)


def list_filter_subgroups(ctx: _SearchContext):
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
    columns = [[int(ctx.form.gram[i][j] * q) % q for i in range(n)]
               for j in range(n)]

    def dual(x) -> tuple:
        """x^T N mod q, so that pair(x, y) = dual(x) . y mod q."""
        return tuple(sum(a * b for a, b in zip(x, c)) % q for c in columns)

    functional = {x: dual(x) for x in ctx.elements()
                  if not sum(a * b for a, b in zip(dual(x), x)) % q}
    diag = [[o if j == i else 0 for j in range(n)]
            for i, o in enumerate(ctx.orders)]
    start_key = tuple(tuple(r) for r in _hnf_rows(diag, n))
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
                seen[new_key] = closure(ctx, elems, x)
                f = functional[x]
                queue.append((new_key, seen[new_key], [
                    y for y in cands if not sum(a * b for a, b in zip(f, y)) % q
                ]))
            if len(seen[new_key]) == ctx.form.prime * len(elems):
                covered |= seen[new_key]
    return found


# ---------------------------------------------------------------------------
# boundary-complementary verification
# ---------------------------------------------------------------------------

def _kernel_basis(mat: Matrix) -> list[list[int]]:
    """Basis of the integer kernel, as column vectors."""
    res = smith_normal_form(mat)
    n = mat.ncols
    out = []
    for j in range(n):
        d = res.divisors[j] if j < len(res.divisors) else 0
        if d == 0:
            out.append([res.V[i, j] for i in range(n)])
    return out


def _check_s_lagrangian(alpha: Matrix, j: Matrix) -> None:
    n = alpha.nrows
    if n % 2 != 0:
        raise NotAnSLagrangian("odd rank admits no S-lagrangian")
    if j.nrows != n or j.ncols != n // 2:
        raise NotAnSLagrangian("basis matrix must be n x n/2")
    if rank(j) != n // 2:
        raise NotAnSLagrangian("submodule does not halve the rank over Q")
    prod = j.transpose() * alpha * j
    if any(prod[i, k] != 0 for i in range(j.ncols) for k in range(j.ncols)):
        raise NotAnSLagrangian("alpha does not vanish on the submodule")


def verify_boundary_complementary(alpha, lplus, lminus) -> bool:
    """Exactness of
        0 -> L+ (+) L- -> K (+) K^* -> L+^* (+) L-^* -> 0
    with maps [[j+, j-], [0, alpha j-]] and [[-j+^T alpha, j+^T], [0, j-^T]].
    Preconditions (S-lagrangian checks) raise; exactness failures return
    False."""
    a = _as_int_matrix(alpha)
    jp = _as_int_matrix(lplus)
    jm = _as_int_matrix(lminus)
    if a.nrows and Matrix.from_ints(a.rows).det() == 0:
        raise SingularOverFractionField("alpha is singular over Q")
    _check_s_lagrangian(a, jp)
    _check_s_lagrangian(a, jm)
    n = a.nrows
    r = n // 2
    zero_nr = Matrix([[0] * r] * n)
    zero_rn = Matrix([[0] * n] * r)
    phi = vstack(hstack(jp, jm), hstack(zero_nr, a * jm))
    psi = vstack(hstack(-1 * (jp.transpose() * a), jp.transpose()),
                 hstack(zero_rn, jm.transpose()))
    if any(x != 0 for row in (psi * phi).rows for x in row):
        return False
    if rank(phi) != 2 * r:
        return False
    res = smith_normal_form(psi)
    divs = [d for d in res.divisors if d]
    if len(divs) != 2 * r or any(d != 1 for d in divs):
        return False  # psi not onto
    # im(phi) sits inside ker(psi) already; exactness needs the reverse
    member = integral_member(phi)
    for vec in _kernel_basis(psi):
        if not member(vec):
            return False
    return True


# ---------------------------------------------------------------------------
# the Fraction checks, adjoint and Witt class
# ---------------------------------------------------------------------------

def _check_pairing(mixed_orders: list[int], gram, epsilon: int) -> None:
    """Raise unless the reduced gram is an epsilon-symmetric pairing on
    (+) Z/n_i that the orders annihilate and whose adjoint is bijective."""
    n = len(mixed_orders)
    if len(gram) != n or any(len(r) != n for r in gram):
        raise ValueError("gram shape does not match the generator count")
    for i, o in enumerate(mixed_orders):
        for j, x in enumerate(gram[i]):
            if _mod1(x - epsilon * gram[j][i]) != 0:
                raise ValueError("gram breaks epsilon-symmetry")
            if (x * o).denominator != 1:
                raise ValueError("pairing not annihilated by generator orders")
    if not _adjoint_is_iso(mixed_orders, gram):
        raise SingularForm("adjoint T -> T^ is not an isomorphism")


def _adjoint_is_iso(mixed_orders: list[int], gram) -> bool:
    """The adjoint sends generator j to sum_i (n_i * gram[i][j]) chi_i in
    T^ = (+) Z/n_i (integers: `_check_pairing` checked the annihilation
    first); it is onto iff [N | diag(n)] has all SNF divisors 1."""
    n = len(mixed_orders)
    rows = [[x.numerator * (o // x.denominator) for x in gram[i]]
            + [o if j == i else 0 for j in range(n)]
            for i, o in enumerate(mixed_orders)]
    divs = [d for d in smith_normal_form(Matrix(rows)).divisors if d]
    return len(divs) == n and all(d == 1 for d in divs)


def witt_class_fp(prime: int, gram, symmetry: int = 1) -> WittClassFp:
    """Witt class of a nonsingular v-symmetric F_p form, odd p.  Skew forms
    are always hyperbolic over a field, so they map to the zero class."""
    if prime == 2:
        raise EvenPrimeUnsupported("Witt classification requires odd p")
    rows = [list(r) for r in (gram.rows if isinstance(gram, Matrix) else gram)]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("gram must be square")
    for i in range(n):
        for j in range(n):
            if (rows[i][j] - symmetry * rows[j][i]) % prime != 0:
                raise ValueError("gram breaks its claimed symmetry")
    if n == 0:
        return WittClassFp.zero(prime)
    det = int(Matrix.from_ints(rows).det()) % prime
    if det == 0:
        raise SingularForm("singular form over F_p")
    if symmetry == -1:
        return WittClassFp.zero(prime)
    signed = (-1) ** (n * (n - 1) // 2) * det
    s = _legendre(signed, prime)
    return WittClassFp(prime, n % 2, "square" if s == 1 else "nonsquare")


def fraction_gram(gram) -> tuple:
    """A gram reduced into [0, 1) as `Fraction`s, as forms stored it."""
    return tuple(tuple(_mod1(x) for x in row) for row in gram)


def fraction_check(prime: int, orders, gram, epsilon: int) -> None:
    """The `Fraction` validation of a p-primary form: p-power denominators,
    then `_check_pairing` on the reduced gram."""
    g = fraction_gram(gram)
    if any(_den_exp(x, prime) < 0 for row in g for x in row):
        raise ValueError("gram denominators must be powers of p")
    _check_pairing([prime**l for l in orders], g, epsilon)


def fraction_primary_grams(orders, gram) -> dict:
    """{p: reduced `Fraction` gram of the p-part} of a checked pairing on
    (+) Z/n_i, on the generators c_a g_a, c_a = n_a / p^v_p(n_a)."""
    g = fraction_gram(gram)
    factors = [_factor(m) for m in orders]
    out = {}
    for p in sorted(set().union(*factors)):
        idx = [i for i, f in enumerate(factors) if p in f]
        cofs = [orders[i] // p**factors[i][p] for i in idx]
        out[p] = tuple(tuple(_mod1(g[a][b] * ca * cb)
                             for b, cb in zip(idx, cofs))
                       for a, ca in zip(idx, cofs))
    return out


def fraction_boundary_gram(alpha) -> tuple[list[int], list]:
    """(orders, gram) of the boundary pairing of a nonsingular integral
    alpha on its Smith generators of order > 1, by `Fraction` products:
    U^{-T} V D^{-1}, with U^{-1} inverted over Q."""
    res = snf_oracle.smith_normal_form(_as_int_matrix(alpha), "Z")
    divisors = res.divisors
    n = len(divisors)
    vd = Matrix(
        [[Fraction(res.V[i, j], divisors[j]) for j in range(n)]
         for i in range(n)]
    )
    pairing = res.U.map(Fraction).inverse().transpose() * vd
    keep = [i for i in range(n) if divisors[i] != 1]
    orders = [divisors[i] for i in keep]
    gram = [[_mod1(pairing[i, j]) for j in keep] for i in keep]
    return orders, gram


def integral_member(mat: Matrix):
    """Whether an integer vector lies in the Z-span of mat's columns: the
    entries of U vec, each a sum of U[i, j] vec[j], against the divisors."""
    res = snf_oracle.smith_normal_form(mat, "Z")
    m = mat.nrows
    padded = list(res.divisors) + [0] * (m - len(res.divisors))

    def member(vec) -> bool:
        c = [sum(res.U[i, j] * vec[j] for j in range(m)) for i in range(m)]
        return all(ci % d == 0 if d else ci == 0 for ci, d in zip(c, padded))

    return member
