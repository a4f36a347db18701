"""Seifert and autometric forms and their covering linking forms.

A Seifert form (K, psi) with psi + eps psi^T invertible covers a P-torsion
linking form; an autometric form (K, theta, h) covers a Q-torsion one.  The
trace function chi recovers the autometric form from its covering exactly,
which is what verify_roundtrip certifies.  Both covering constructions flip
the symmetry sign.  Both modules are Q-spaces with z acting as an
automorphism h: Q^n for (K, theta, h), Trotter's nonsingular part of e with
h = 1 - e^-1 for a Seifert form.  A rational canonical decomposition of h
over Q gives the generators, and the module records its Q-basis h^a g_i,
which `canonical_identification` returns.
"""

from __future__ import annotations

from fractions import Fraction

from wittkit.errors import (
    NotEInvariant,
    SingularAutometricForm,
    SingularMatrix,
    SingularSeifertForm,
    check,
)
from wittkit.exact import matrix, polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix, _imul, _integral_rows, _products
from wittkit.exact.ratfunc import series_expand
from wittkit.finite import _integral_solver
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
    satisfies psi = theta e exactly.  With psi = P / d and theta = T / d,
    T = P + eps P^T, `_solve` gives T^-1 = X / delta in lowest terms, and e
    = T^-1 P is the integer pair `e_pair` = (X P, delta).  In Z mode theta
    must be unimodular, which keeps e integral: d = 1, and as det T
    det T^-1 = 1, T is unimodular exactly when delta = 1."""

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
        self.theta = psi + psi.transpose().map(lambda x: x * epsilon)
        t = [[a + epsilon * b for a, b in zip(*rc)] for rc in zip(p, zip(*p))]
        try:
            x, delta = matrix._solve(t, Matrix.identity(len(t), 1).rows)
        except SingularMatrix:
            raise SingularSeifertForm("psi + eps psi^T is singular") from None
        if coefficients == "Z" and delta != 1:
            raise SingularSeifertForm(
                "psi + eps psi^T is not unimodular over Z")
        self.e_pair = _imul(x, p), delta
        self.e = Matrix(self.e_pair[0]).scale(Fraction(1, delta))

    @property
    def rank(self) -> int:
        return self.psi.nrows

    def direct_sum(self, other: "SeifertForm") -> "SeifertForm":
        if self.epsilon != other.epsilon:
            raise ValueError("direct sum needs matching symmetry")
        coeff = "Z" if self.coefficients == other.coefficients == "Z" else "Q"
        return SeifertForm(
            Matrix.block_diag([self.psi, other.psi]), self.epsilon, coeff)

    def negate(self) -> "SeifertForm":
        return SeifertForm(self.psi.map(lambda x: -x), self.epsilon,
                           self.coefficients)


class AutometricForm:
    """(K, theta, h): theta an eps-symmetric invertible Q-form, h an
    isometry of it.  Both identities are checked exactly, on integers."""

    def __init__(self, theta, h, epsilon: int):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        theta = Matrix.from_ints(theta)
        h = Matrix.from_ints(h)
        if not theta.is_square() or theta.shape != h.shape:
            raise ValueError("theta and h must be square of equal size")
        if theta != theta.transpose().map(lambda x: x * epsilon):
            raise ValueError("theta is not eps-symmetric")
        if theta.rank() < theta.nrows:
            raise SingularAutometricForm("theta is singular")
        if not _is_isometry(*map(_integral_rows, (theta.rows, h.rows))):
            raise ValueError("h does not preserve theta")
        self.theta, self.h, self.epsilon = theta, h, epsilon

    @property
    def rank(self) -> int:
        return self.theta.nrows

    def __eq__(self, other):
        return (
            isinstance(other, AutometricForm)
            and self.theta == other.theta
            and self.h == other.h
            and self.epsilon == other.epsilon
        )


class SeifertSubmodule:
    """Full-column-rank basis matrix; e-invariance is checked at use sites
    against the ambient form."""

    def __init__(self, basis):
        basis = Matrix.from_ints(basis)
        if basis.ncols and basis.rank() != basis.ncols:
            raise ValueError("basis columns are dependent")
        self.basis = basis


# ---------------------------------------------------------------------------
# covering functors
# ---------------------------------------------------------------------------

def _covering_module(mode: str, h: tuple, embed,
                     e_r) -> tuple[LaurentModule, list]:
    """The Q-space with z acting as h, with the Krylov blocks of
    `_frobenius` (generated by e_r in P mode, None in Q mode); embed (None:
    identity) maps its Q-basis into the form's space."""
    blocks = _frobenius(h, e_r)
    basis = Matrix([x for xs, _ in blocks for x in xs]).transpose()
    module = LaurentModule(
        [LaurentPoly.from_dense(m) for _, m in blocks],
        basis if embed is None else embed * basis, mode)
    return module, blocks


def _seifert_module(f: SeifertForm) -> LaurentModule:
    """The covering module of f, the cokernel of (1-e) + ez: Trotter's
    nonsingular part R with z acting as h = 1 - (e|R)^-1, from
    `_pencil_reduction`.  No pairing is built."""
    b, h, e_r = _pencil_reduction(f.e_pair)
    if not h[0]:
        return LaurentModule([], None, "P")
    return _covering_module("P", h, b, e_r)[0]


def _pairing_entry(c: list, m: list, s: list) -> LaurentPoly:
    """The numerator over m* of lambda_ij: s N mod m*, of degree < deg m."""
    d = len(m) - 1
    num = [sum(m[a] * c[k - d + a] for a in range(d - k, d + 1))
           for k in range(d)]
    return LaurentPoly.from_dense(polys.mod(polys.mul(s, num), m[::-1]))


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
    and N_k = sum_{a >= D-k} m_a theta'(g_i, h^(k-D+a) g_j).  The form
    stores the numerator s N mod m* over the conjugate divisor m*, as
    `LaurentLinkingForm` does for every form; no entry is canonicalized
    over Q(z).

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
    check(Matrix(t).rank() == len(t), "covering theta is singular")
    check(_is_isometry(theta, h), "h is not an isometry of the covering theta")
    module, blocks = _covering_module(mode, h, embed, e_r)
    s = [Fraction(-1)]
    if mode == "P":
        s = [Fraction(1), Fraction(-1)]
        t, d_t = _imul(t, matrix._shift(h[0], h[1])), d_t * h[1]
    cols = [x for xs, _ in blocks for x in xs]
    starts = [0]
    for _, m in blocks[:-1]:
        starts.append(starts[-1] + len(m) - 1)
    heads = map(matrix._integral, (cols[i] for i in starts))
    gram = _products([[Fraction(x, d * d_t) for x in _imul([w], t)[0]]
                      for w, d in heads], cols)
    pairing = [[_pairing_entry(row[at:], m, s)
                for at, (_, m) in zip(starts, blocks)] for row in gram]
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
    theta = f.theta if b is None else b.transpose() * f.theta * b
    return _covering_form("P", _integral_rows(theta.rows), h, -f.epsilon, b,
                          e_r)


def covering_autometric(f: AutometricForm) -> LaurentLinkingForm:
    """Covering linking form -z^{-1} theta(x, (z - h)^{-1} y) on the
    Q-torsion module presented by z - h, which is Q^n with z acting as h;
    (-eps)-symmetric."""
    if f.rank == 0:
        return LaurentLinkingForm(LaurentModule([], None, "Q"), [], -f.epsilon)
    return _covering_form("Q", _integral_rows(f.theta.rows),
                          _integral_rows(f.h.rows), -f.epsilon)


# ---------------------------------------------------------------------------
# trace and monodromy
# ---------------------------------------------------------------------------

def trace_chi(num: LaurentPoly, den: list) -> Fraction:
    """Degree-zero discrepancy between the two Novikov expansions of
    num / den, read as `series_expand` reads them.  Linear over Q and zero
    on Laurent polynomials, so well defined on classes."""
    plus = series_expand(num, den, "plus", 0, 0)[0]
    minus = series_expand(num, den, "minus", 0, 0)[0]
    return plus - minus


def _companion(d: LaurentPoly) -> Matrix:
    dense, _ = d.ordinary()
    m = len(dense) - 1
    return Matrix([[-dense[a] if b == m - 1 else Fraction(int(a == b + 1))
                    for b in range(m)] for a in range(m)])


def monodromy(form: LaurentLinkingForm) -> AutometricForm:
    """Underlying Q-space with h = multiplication by z in companion form
    and theta recovered through the trace function; inverts
    covering_autometric up to the canonical basis identification.  The
    trace is applied to the conjugated pairing value, the orientation that
    makes the round-trip exact rather than exact-up-to-sign:
    theta[(i,a),(j,b)] = -chi(z^(a-b) lambda_ij), read off one expansion
    of lambda_ij = num_ij / d_j* on each side.  Neither needs lowest
    terms: d_j*(0) = 1, d_j being monic, and its top coefficient d_j(0)
    is nonzero."""
    divisors = form.module.divisors
    stars = [d.ordinary()[0][::-1] for d in divisors]
    dims = [len(star) - 1 for star in stars]
    theta = []
    for i, di in enumerate(dims):
        sides = [(dj, *(series_expand(form.num[i, j], star, side, 1 - di,
                                      dj - 1) for side in ("minus", "plus")))
                 for j, (dj, star) in enumerate(zip(dims, stars))]
        theta += [[minus[b - a] - plus[b - a] for dj, minus, plus in sides
                   for b in range(dj)] for a in range(di)]
    h = Matrix.block_diag([_companion(d) for d in divisors])
    return AutometricForm(theta, h, -form.epsilon)


def canonical_identification(f: AutometricForm,
                             cov: LaurentLinkingForm) -> Matrix:
    """The monodromy basis z^a g_i of cov = covering_autometric(f) in f's
    Q-basis: the covering records it as the columns h^a g_i."""
    return cov.module.basis_change


def verify_roundtrip(f: AutometricForm) -> bool:
    """monodromy(covering_autometric(f)) must equal f exactly after the
    canonical identification of underlying spaces."""
    cov = covering_autometric(f)
    mono = monodromy(cov)
    if f.rank == 0:
        return mono.rank == 0
    p = canonical_identification(f, cov)
    if p.nrows != f.rank or p.ncols != f.rank or p.det() == 0:
        return False
    return (f.h * p == p * mono.h
            and mono.theta == p.transpose() * f.theta * p)


# ---------------------------------------------------------------------------
# lagrangians
# ---------------------------------------------------------------------------

def verify_seifert_lagrangian(f: SeifertForm, sub: SeifertSubmodule) -> str:
    """Classify a candidate: isotropic half-rank e-invariant submodules are
    lagrangians (theta being nonsingular makes the dual sequence exact over
    the fraction field); split additionally needs a torsion-free cokernel
    in Z mode.  e-invariance is a precondition, not a verdict."""
    basis = sub.basis
    n = f.rank
    if basis.nrows != n:
        raise ValueError("basis does not live in the form's space")
    integral = f.coefficients == "Z"
    if integral and _integral_rows(basis.rows)[1] != 1:
        raise ValueError("Z-coefficient submodule with non-integral basis")
    img = f.e * basis
    # e is integral in Z mode, and the Smith-form test also decides Q-span
    # membership (coordinates with divisor 0 must vanish)
    if integral:
        member, divisors = _integral_solver(basis)
        invariant = all(map(member, img.transpose().rows))
    else:
        invariant = basis.hstack(img).rank() == basis.ncols
    if not invariant:
        raise NotEInvariant("e does not preserve the submodule")
    if basis.transpose() * f.psi * basis != Matrix.zeros(
            basis.ncols, basis.ncols):
        return "not_lagrangian"
    if n % 2 != 0 or basis.ncols != n // 2:
        return "not_lagrangian"
    if not integral:
        return "split_lagrangian"
    # split: the cokernel is torsion-free, every Smith divisor being 1
    if all(d == 1 for d in divisors):
        return "split_lagrangian"
    return "lagrangian"


def hyperbolic_witness_sum(f: SeifertForm):
    """Split lagrangian pair for psi (+) -psi: the diagonal and the graph
    of the near-projection twist ((1-e)x, -ex)."""
    n = f.rank
    if n == 0:
        return SeifertSubmodule(Matrix([])), SeifertSubmodule(Matrix([]))
    ident = Matrix.identity(n)
    diag = ident.vstack(ident)
    twist = (ident - f.e).vstack(f.e.map(lambda x: -x))
    return SeifertSubmodule(diag), SeifertSubmodule(twist)


def is_complementary(f_sum: SeifertForm, a: SeifertSubmodule,
                     b: SeifertSubmodule) -> bool:
    """Do the two submodules decompose the ambient space (lattice, in Z
    mode) as a direct sum?"""
    n = f_sum.rank
    if a.basis.ncols + b.basis.ncols != n:
        return False
    if n == 0:
        return True
    joint = a.basis.hstack(b.basis)
    det = joint.det()
    if f_sum.coefficients == "Z":
        return abs(det) == 1
    return det != 0
