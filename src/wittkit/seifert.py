"""Seifert and autometric forms and their covering linking forms.

A Seifert form (K, psi) with psi + eps psi^T invertible covers a P-torsion
linking form; an autometric form (K, theta, h) covers a Q-torsion one.  The
trace function chi recovers the autometric form from its covering exactly,
which is what verify_roundtrip certifies, on integers like chi itself.
Both covering constructions flip the symmetry sign.  Both modules are
Q-spaces with z acting as an automorphism h: Q^n for (K, theta, h),
Trotter's nonsingular part of e with h = 1 - e^-1 for a Seifert form.  A
rational canonical decomposition of h over Q gives the generators, and the
module records its Q-basis h^a g_i, which `canonical_identification`
returns.  A Seifert form holds psi as given and as its integer pair, and
theta and e only as the reduced integer pairs its readers take; an
autometric form holds theta and h as such pairs, with `Fraction` views.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import mul

from wittkit.errors import (
    NotEInvariant,
    SingularAutometricForm,
    SingularMatrix,
    SingularSeifertForm,
    check,
)
from wittkit.exact import matrix, polys
from wittkit.exact.matrix import Matrix, _imul, _integral_rows, _shift
from wittkit.exact.ratfunc import series_expand, series_ints
from wittkit.exact.snf import smith_normal_form
from wittkit.laurent_forms import (
    LaurentLinkingForm,
    LaurentModule,
    _frobenius,
    _pencil_reduction,
)


def _is_isometry(theta: tuple, h: tuple) -> bool:
    """H^T T H = d_h^2 T: h = H / d_h preserves theta = T / d_t."""
    return (_imul(list(zip(*h[0])), _imul(theta[0], h[0]))
            == [[h[1] ** 2 * x for x in r] for r in theta[0]])


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class SeifertForm:
    """(K, psi) with theta = psi + eps psi^T invertible; e = theta^{-1} psi
    satisfies psi = theta e exactly.  psi is kept as given and as its
    reduced integer pair `psi_pair` = P / d, theta and e only as reduced
    integer pairs: with T = P + eps P^T, `theta_pair` is T / d, and
    `_solve` gives T^-1 = X / delta, so `e_pair` is e = T^-1 P = X P /
    delta.  In Z mode theta must be unimodular, which keeps e integral:
    d = 1, and as det T det T^-1 = 1, T is unimodular exactly when
    delta = 1."""

    def __init__(self, psi, epsilon: int, coefficients: str = "Z"):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if coefficients not in ("Z", "Q"):
            raise ValueError("coefficients must be 'Z' or 'Q'")
        psi = Matrix.from_ints(psi)
        if not psi.is_square():
            raise ValueError("psi must be square")
        p, d = _integral_rows(psi.rows)
        if coefficients == "Z" and d != 1:
            raise ValueError("Z-coefficient form with non-integral entries")
        self.psi, self.epsilon, self.coefficients = psi, epsilon, coefficients
        self.psi_pair = p, d
        t = [[a + epsilon * b for a, b in zip(*rc)] for rc in zip(p, zip(*p))]
        try:
            x, delta = matrix._solve(t, Matrix.identity(len(t), 1).rows)
        except SingularMatrix:
            raise SingularSeifertForm("psi + eps psi^T is singular") from None
        if coefficients == "Z" and delta != 1:
            raise SingularSeifertForm(
                "psi + eps psi^T is not unimodular over Z")
        self.theta_pair = matrix._reduced_rows(t, d)
        self.e_pair = matrix._reduced_rows(_imul(x, p), delta)

    @property
    def rank(self) -> int:
        return self.psi.nrows


class AutometricForm:
    """(K, theta, h): theta an eps-symmetric invertible Q-form, h an
    isometry of it, both checked exactly on the reduced integer pairs
    `theta_pair` and `h_pair`; `theta` and `h` are `Fraction` views."""

    def __init__(self, theta, h, epsilon: int):
        self._adopt((_integral_rows(Matrix.from_ints(m).rows)
                     for m in (theta, h)), epsilon)

    @classmethod
    def _from_pairs(cls, theta: tuple, h: tuple, epsilon: int):
        (form := cls.__new__(cls))._adopt((theta, h), epsilon)
        return form

    def _adopt(self, pairs, epsilon: int) -> None:
        """Check, in order, and keep the pairs theta = T / d_t and h =
        H / d_h; `pairs` is read only once epsilon has passed."""
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        t, hp = pairs
        if list(map(len, t[0] + hp[0])) != [n := len(t[0])] * 2 * n:
            raise ValueError("theta and h must be square of equal size")
        if t[0] != [[epsilon * x for x in c] for c in zip(*t[0])]:
            raise ValueError("theta is not eps-symmetric")
        if len(matrix._gauss_jordan(t[0])[1]) < n:
            raise SingularAutometricForm("theta is singular")
        if not _is_isometry(t, hp):
            raise ValueError("h does not preserve theta")
        self.theta_pair, self.h_pair, self.epsilon = t, hp, epsilon

    theta = cached_property(lambda f: Matrix(
        [[Fraction(x, f.theta_pair[1]) for x in r] for r in f.theta_pair[0]]))
    h = cached_property(lambda f: Matrix(
        [[Fraction(x, f.h_pair[1]) for x in r] for r in f.h_pair[0]]))

    @property
    def rank(self) -> int:
        return len(self.theta_pair[0])

    def __eq__(self, other):  # reduced pairs are canonical
        return isinstance(other, AutometricForm) and (
            self.theta_pair, self.h_pair, self.epsilon) == (
            other.theta_pair, other.h_pair, other.epsilon)


class SeifertSubmodule:
    """A basis of full column rank, kept as given and as its reduced
    integer pair `basis_pair` = B / d, as `SeifertForm` keeps `psi_pair`;
    e-invariance is checked at use sites against the ambient form."""

    def __init__(self, basis):
        basis = Matrix.from_ints(basis)
        self.basis, self.basis_pair = basis, _integral_rows(basis.rows)
        cols = list(zip(*self.basis_pair[0]))
        if len(matrix._gauss_jordan(cols)[1]) < basis.ncols:
            raise ValueError("basis columns are dependent")


# ---------------------------------------------------------------------------
# covering functors
# ---------------------------------------------------------------------------

def _covering_module(mode: str, h: tuple, embed,
                     e_r) -> tuple[LaurentModule, list]:
    """The Q-space with z acting as h, with the Krylov blocks of
    `_frobenius` (generated by e_r in P mode, None in Q mode); embed (None:
    identity), a pair (B, d_b), maps its Q-basis into the form's space."""
    blocks = _frobenius(h, e_r)
    cols = [x for xs, _ in blocks for x in xs]
    if embed is not None:
        images = zip(*_imul(embed[0], list(zip(*(x for x, _ in cols)))))
        cols = [matrix._reduced(y, embed[1] * d)
                for y, (_, d) in zip(images, cols)]
    return LaurentModule([m for _, m in blocks], cols, mode), blocks


def _seifert_module(f: SeifertForm) -> LaurentModule:
    """The covering module of f, the cokernel of (1-e) + ez: Trotter's
    nonsingular part R with z acting as h = 1 - (e|R)^-1, from
    `_pencil_reduction`.  No pairing is built."""
    b, h, e_r = _pencil_reduction(f.e_pair)
    if not h[0]:
        return LaurentModule([], None, "P")
    return _covering_module("P", h, b, e_r)[0]


def _pairing_entry(c: tuple, m: list, s: list) -> tuple:
    """lambda_ij = s N / m* as the reduced pair (R, e), R of degree
    < deg m, read as R / (e m*): for the block's gram row c = C / den, an
    integer s and the divisor's primitive list m, m* = m reversed, each N_k
    is an integer dot product n_k over den, and the pseudo-division
    t s n = Q m* + R (`polys.divmod_poly`) gives e = t den."""
    (big_c, den), d = c, len(m) - 1
    num = [sum(map(mul, m[d - k:], big_c)) for k in range(d)]
    _, rem, scale = polys.divmod_poly(polys.mul(s, num), m[::-1])
    return matrix._reduced(rem, scale * den)


def _covering_form(mode: str, theta: tuple, h: tuple, epsilon: int,
                   embed=None, e_r=None) -> LaurentLinkingForm:
    """The epsilon-symmetric covering form on `_covering_module(mode, h,
    embed, e_r)`, certified over Q and built unchecked.  theta = T / d_t
    is the form on its Q-space (on R in P mode) and h = H / d_h the action
    of z there.  With A = (z^-1 - h)^-1, lambda(x, y) = s z^-1 theta'(x, A y),
    where s = -1 and theta' = theta (Q mode) or s = 1 - z and theta'(x, y)
    = theta(x, (1-h) y) = theta(x, e^-1 y) (P mode): conjugate-linear in y,
    the one placement that is exactly symmetric and well defined.  For
    m = d_j of degree D, m(z^-1) - m(h) = (z^-1 - h) sum_a m_a sum_{b<a}
    z^(b+1-a) h^b makes lambda(g_i, g_j) = s N / m*, with m* = z^D m(1/z)
    and N_k = sum_{a >= D-k} m_a theta'(g_i, h^(k-D+a) g_j), m primitive
    as in `LaurentModule.chain`.  The form stores s N mod m* as its integer
    pair (`LaurentLinkingForm`); no entry is canonicalized over Q(z).

    The three checks below serve both functors and stand in for the check
    over Q(z) that the tests run as `covering_oracle.validate_over_qz`:
    theta (-epsilon)-symmetric and nonsingular, and h an isometry of it,
    give, modulo Q[z, z^-1],
    - symmetry: h's adjoint is h^-1, and (z - h^-1)^-1 = z^-1 - z^-2 A and
      h^-1 A = z (h^-1 + A) turn bar lambda(y, x) into epsilon lambda(x, y);
    - annihilation: these and A h = z^-1 A - 1 give lambda(h x, y) =
      z lambda(x, y) = lambda(x, h^-1 y), so d_i(h) g_i = 0 = d_j(h) g_j
      make d_i and d_j* kill entry ij;
    - a bijective adjoint: expanding A at z = 0 and at z = oo gives
      chi(lambda(x, y)) = theta(x, c y), c = -1 (Q) or -(1-h)^2 h^-1 (P),
      invertible, so lambda(x, -) = 0 forces x = 0, and the module and its
      dual have the same dimension over Q.
    On integers they read T = -epsilon T^T, T of full rank and
    H^T T H = d_h^2 T, before the module is built from h and e_r."""
    t, d_t = theta
    check(t == [[-epsilon * x for x in c] for c in zip(*t)],
          "covering theta is not symmetric")
    check(len(matrix._gauss_jordan(t)[1]) == len(t),
          "covering theta is singular")
    check(_is_isometry(theta, h), "h is not an isometry of the covering theta")
    module, blocks = _covering_module(mode, h, embed, e_r)
    s = [-1]
    if mode == "P":
        s = [1, -1]
        t, d_t = _imul(t, _shift(h[0], h[1])), d_t * h[1]
    cols = [x for xs, _ in blocks for x in xs]
    starts = [0]
    for _, m in blocks[:-1]:
        starts.append(starts[-1] + len(m) - 1)
    heads = [(_imul([cols[i][0]], t)[0], cols[i][1] * d_t) for i in starts]
    # each gram row over one denominator: d of its head times that of cols
    den = lcm(*(d_x for _, d_x in cols))
    gram = [([sum(map(mul, w, x)) * (den // d_x) for x, d_x in cols], d * den)
            for w, d in heads]
    pairing = [[_pairing_entry((row[at:], d), m, s)
                for at, (_, m) in zip(starts, blocks)] for row, d in gram]
    return LaurentLinkingForm(module, pairing, epsilon)


def covering_seifert(f: SeifertForm) -> LaurentLinkingForm:
    """Covering linking form -(1 - z^{-1}) theta(x, ((1-e) + ez)^{-1} y) on
    the P-torsion module presented by (1-e) + ez; (-eps)-symmetric.  The
    pencil is unimodular on ker (e(1-e))^n, so the module is Trotter's
    nonsingular part R = im (e(1-e))^n, where (1-e) + ez = e(z - h) with
    h = 1 - e^-1.  psi = theta e gives e^T theta = theta (1 - e), which
    makes h an isometry of theta|R; `_covering_form` checks that on the
    h it is handed."""
    b, h, e_r = _pencil_reduction(f.e_pair)
    if not h[0]:
        return LaurentLinkingForm(LaurentModule([], None, "P"), [], -f.epsilon)
    t, d_t = f.theta_pair
    if b is not None:  # theta|R = b^T theta b
        t, d_t = _imul(list(zip(*b[0])), _imul(t, b[0])), d_t * b[1] ** 2
    return _covering_form("P", matrix._reduced_rows(t, d_t), h, -f.epsilon,
                          b, e_r)


def covering_autometric(f: AutometricForm) -> LaurentLinkingForm:
    """Covering linking form -z^{-1} theta(x, (z - h)^{-1} y) on the
    Q-torsion module presented by z - h, which is Q^n with z acting as h;
    (-eps)-symmetric."""
    if f.rank == 0:
        return LaurentLinkingForm(LaurentModule([], None, "Q"), [], -f.epsilon)
    return _covering_form("Q", f.theta_pair, f.h_pair, -f.epsilon)


# ---------------------------------------------------------------------------
# trace and monodromy
# ---------------------------------------------------------------------------

def trace_chi(num: tuple, den: list) -> Fraction:
    """Degree-zero discrepancy between the two Novikov expansions of
    N / (d den), num = (N, d), as `series_expand` reads them.  Linear over
    Q and zero on Laurent polynomials, so well defined on classes."""
    return (series_expand(num, den, "plus", 0, 0)[0]
            - series_expand(num, den, "minus", 0, 0)[0])


def monodromy(form: LaurentLinkingForm) -> AutometricForm:
    """Underlying Q-space with h = multiplication by z in companion form
    and theta recovered through the trace function; inverts
    covering_autometric up to the canonical basis identification.  The
    trace is applied to the conjugated pairing value, the orientation that
    makes the round-trip exact rather than exact-up-to-sign:
    theta[(i,a),(j,b)] = -chi(z^(a-b) lambda_ij), read off one integer
    expansion of lambda_ij = N / (d M_j*) on each side over the lcm of their
    scales, h from d_j = M_j / lc(M_j) over d_h = lcm(lc(M_j)).  Neither
    needs lowest terms: M_j*(0) = lc(M_j) and M_j(0) are nonzero."""
    chain = form.module.chain
    dims = [len(m) - 1 for m in chain]
    sides = [[[series_ints(x, m[::-1], side, 1 - di, dj - 1)
               for side in ("minus", "plus")]
              for x, dj, m in zip(row, dims, chain)]
             for di, row in zip(dims, form.num)]
    den, theta = lcm(*(s for r in sides for pair in r for _, s in pair)), []
    for di, row in zip(dims, sides):  # degree b - a at b - a + di - 1
        diffs = [[x * (den // s) - y * (den // t) for x, y in zip(c, e)]
                 for (c, s), (e, t) in row]
        theta += [[v[b - a + di - 1] for dj, v in zip(dims, diffs)
                   for b in range(dj)] for a in range(di)]
    d_h = lcm(*(m[-1] for m in chain))
    h = Matrix.block_diag([Matrix(
        [[-m[a] * (d_h // m[-1]) if b == dj - 1 else d_h * (a == b + 1)
          for b in range(dj)] for a in range(dj)])
        for dj, m in zip(dims, chain)], 0).rows
    return AutometricForm._from_pairs(matrix._reduced_rows(theta, den),
                                      (h, d_h), -form.epsilon)


def canonical_identification(f: AutometricForm,
                             cov: LaurentLinkingForm) -> Matrix:
    """The monodromy basis z^a g_i of cov = covering_autometric(f) in f's
    Q-basis: the covering records it as the columns h^a g_i."""
    return cov.module.basis_change


def verify_roundtrip(f: AutometricForm) -> bool:
    """monodromy(covering_autometric(f)) must equal f exactly after the
    canonical identification P = Q / d of underlying spaces, the covering's
    basis over one denominator, compared as reduced integer pairs.  P needs
    no rank check: the monodromy's theta' is nonsingular, as its
    `AutometricForm` checked, so theta' = P^T theta P forces P to be
    nonsingular too."""
    cov = covering_autometric(f)
    mono, n = monodromy(cov), f.rank
    if n == 0:
        return mono.rank == 0
    d = lcm(*(d_v for _, d_v in cov.module.basis))
    cols = [[x * (d // d_v) for x in v] for v, d_v in cov.module.basis]
    if len(cols) != n or mono.rank != n or any(len(v) != n for v in cols):
        return False
    q = list(zip(*cols))
    (t, d_t), (big_h, d_h) = f.theta_pair, f.h_pair
    s, (big_m, d_m) = mono.theta_pair, mono.h_pair
    # h P = P h', theta' = P^T theta P; s is reduced, d_s an lcm of theirs
    return (matrix._reduced_rows(_imul(big_h, q), d_h)
            == matrix._reduced_rows(_imul(q, big_m), d_m)
            and s == matrix._reduced_rows(_imul(cols, _imul(t, q)),
                                          d * d * d_t))


# ---------------------------------------------------------------------------
# lagrangians
# ---------------------------------------------------------------------------

def _spans(b: list, k: int, img: list, integral: bool) -> bool:
    """Do the k independent columns of the integer rows b span the columns
    of img over Q (over Z if integral)?  One `_gauss_jordan` of the rows
    of [b | img]: the Q-span holds img exactly when the rank stays k.  The
    pivots are then b's columns, and the reduced rows q / delta hold
    [I | X] with b X = img, so the Z-span holds img exactly when delta
    divides every entry of q past column k."""
    out, pivots, delta = matrix._gauss_jordan([r + s for r, s in zip(b, img)])
    return len(pivots) == k and not (
        integral and any(x % delta for q in out for x in q[k:]))


def verify_seifert_lagrangian(f: SeifertForm, sub: SeifertSubmodule) -> str:
    """Classify a candidate: isotropic half-rank e-invariant submodules are
    lagrangians (theta being nonsingular makes the dual sequence exact over
    the fraction field); split additionally needs a torsion-free cokernel
    in Z mode.  e-invariance is a precondition, not a verdict."""
    (big_b, d_b), n, k = sub.basis_pair, f.rank, sub.basis.ncols
    if sub.basis.nrows != n:
        raise ValueError("basis does not live in the form's space")
    integral = f.coefficients == "Z"
    if integral and d_b != 1:
        raise ValueError("Z-coefficient submodule with non-integral basis")
    # e B = E B / (d_e d_b) spans what E B does, and d_e = d_b = 1 in Z mode
    if not _spans(big_b, k, _imul(f.e_pair[0], big_b), integral):
        raise NotEInvariant("e does not preserve the submodule")
    # psi vanishes on B / d_b exactly when B^T P B = 0, psi = P / d
    if any(map(any, _imul(list(zip(*big_b)), _imul(f.psi_pair[0], big_b)))):
        return "not_lagrangian"
    if n % 2 != 0 or k != n // 2:
        return "not_lagrangian"
    # split: in Z mode the cokernel is torsion-free, every Smith divisor 1
    if not integral or all(
            d == 1 for d in smith_normal_form(Matrix(big_b)).divisors):
        return "split_lagrangian"
    return "lagrangian"


def hyperbolic_witness_sum(f: SeifertForm):
    """Split lagrangian pair for psi (+) -psi: the diagonal and the graph
    of the near-projection twist ((1-e)x, -ex).  With e = E / d, the twist
    is passed as the integer rows of d - E over -E: d times the graph's
    basis, which spans the same submodule.  In Z mode d = 1."""
    e, d = f.e_pair
    ident = _shift(e, 1, 0)  # I = 1 I - 0 E
    return (SeifertSubmodule(ident + ident),
            SeifertSubmodule(_shift(e, d) + _shift(e, 0)))


def is_complementary(f_sum: SeifertForm, a: SeifertSubmodule,
                     b: SeifertSubmodule) -> bool:
    """Do the two submodules decompose the ambient space (lattice, in Z
    mode) as a direct sum?  With bases A / d_a of k columns and B / d_b of
    l, det [A / d_a | B / d_b] = det [A | B] / (d_a^k d_b^l), and det [A | B]
    is +-the `_gauss_jordan` minor when [A | B] has full rank."""
    (big_a, d_a), (big_b, d_b) = a.basis_pair, b.basis_pair
    k, l, n = a.basis.ncols, b.basis.ncols, f_sum.rank
    if a.basis.nrows != n or b.basis.nrows != n:
        raise ValueError("basis does not live in the form's space")
    if k + l != n:
        return False
    _, pivots, minor = matrix._gauss_jordan(
        [r + s for r, s in zip(big_a, big_b)])  # minor 1 when empty
    return len(pivots) == n and (f_sum.coefficients == "Q"
                                 or abs(minor) == d_a ** k * d_b ** l)
