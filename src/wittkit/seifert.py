"""Seifert and autometric forms and their covering linking forms.

A Seifert form (K, psi) with psi + eps psi^T invertible covers a P-torsion
linking form; an autometric form (K, theta, h) covers a Q-torsion one.  The
trace function chi recovers the autometric form from its covering exactly,
which is what verify_roundtrip certifies.  Both covering constructions flip
the symmetry sign, and both record enough basis data to push submodules
through.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from wittkit.errors import (
    NotEInvariant,
    NotNearProjection,
    SingularAutometricForm,
    SingularSeifertForm,
    check,
)
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix, pencil_adjugate
from wittkit.exact.ratfunc import RatFunc, series_expand
from wittkit.exact.snf import smith_normal_form
from wittkit.finite import _integral_solver
from wittkit.laurent_forms import LaurentLinkingForm, LaurentModule, decompose_module


def _q_matrix(rows) -> Matrix:
    if isinstance(rows, Matrix):
        rows = rows.rows
    return Matrix([[Fraction(x) for x in row] for row in rows])


def _is_integral(m: Matrix) -> bool:
    return all(x.denominator == 1 for row in m.rows for x in row)


# ---------------------------------------------------------------------------
# forms
# ---------------------------------------------------------------------------

class SeifertForm:
    """(K, psi) with theta = psi + eps psi^T invertible; e = theta^{-1} psi
    satisfies psi = theta e exactly.  In Z mode theta must be unimodular,
    which keeps e integral."""

    def __init__(self, psi, epsilon: int, coefficients: str = "Z"):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        if coefficients not in ("Z", "Q"):
            raise ValueError("coefficients must be 'Z' or 'Q'")
        psi = _q_matrix(psi)
        if not psi.is_square():
            raise ValueError("psi must be square")
        if coefficients == "Z" and not _is_integral(psi):
            raise ValueError("Z-coefficient form with non-integral entries")
        self.psi = psi
        self.epsilon = epsilon
        self.coefficients = coefficients
        self.theta = psi + psi.transpose().map(lambda x: x * epsilon)
        det = self.theta.det() if psi.nrows else Fraction(1)
        if det == 0:
            raise SingularSeifertForm("psi + eps psi^T is singular")
        if coefficients == "Z" and abs(det) != 1:
            raise SingularSeifertForm(
                "psi + eps psi^T is not unimodular over Z")
        self.e = self.theta.inverse() * psi if psi.nrows else Matrix([])

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
    isometry of it.  Both identities are checked exactly."""

    def __init__(self, theta, h, epsilon: int):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        theta = _q_matrix(theta)
        h = _q_matrix(h)
        if not theta.is_square() or theta.shape != h.shape:
            raise ValueError("theta and h must be square of equal size")
        if theta != theta.transpose().map(lambda x: x * epsilon):
            raise ValueError("theta is not eps-symmetric")
        if theta.nrows and theta.det() == 0:
            raise SingularAutometricForm("theta is singular")
        if h.transpose() * theta * h != theta:
            raise ValueError("h does not preserve theta")
        self.theta = theta
        self.h = h
        self.epsilon = epsilon

    @property
    def rank(self) -> int:
        return self.theta.nrows

    def direct_sum(self, other: "AutometricForm") -> "AutometricForm":
        if self.epsilon != other.epsilon:
            raise ValueError("direct sum needs matching symmetry")
        return AutometricForm(
            Matrix.block_diag([self.theta, other.theta]),
            Matrix.block_diag([self.h, other.h]),
            self.epsilon,
        )

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
        basis = _q_matrix(basis)
        if basis.ncols and basis.rank() != basis.ncols:
            raise ValueError("basis columns are dependent")
        self.basis = basis


# ---------------------------------------------------------------------------
# covering functors
# ---------------------------------------------------------------------------

def _empty_covering(mode: str, epsilon: int) -> LaurentLinkingForm:
    module = LaurentModule(Matrix([]), [], None, mode, [])
    return LaurentLinkingForm(module, [], epsilon, validate=False)


def _snf_pairing(num: Matrix, den: LaurentPoly, module) -> list:
    """Rewrite the pairing matrix num / den from the presentation basis into
    the kept Smith basis: generators g_i are the kept columns of U^{-1}."""
    g = Matrix([[row[i] for i in module.kept_indices]
                for row in module.basis_change.U_inv.rows])
    changed = g.transpose() * num * g.bar()
    return [[RatFunc.make(x, den).frac_class() for x in row]
            for row in changed.rows]


def covering_seifert(f: SeifertForm) -> LaurentLinkingForm:
    """Covering linking form -(1 - z^{-1}) theta(x, ((1-e) + ez)^{-1} y) on
    the P-torsion module presented by (1-e) + ez; (-eps)-symmetric."""
    n = f.rank
    if n == 0:
        return _empty_covering("P", -f.epsilon)
    e = f.e
    pres = Matrix([[LaurentPoly({0: (1 if i == j else 0) - e[i, j],
                                 1: e[i, j]})
                    for j in range(n)] for i in range(n)])
    module = decompose_module(pres, "P")
    if module.is_zero:
        return _empty_covering("P", -f.epsilon)
    # theta extended conjugate-linearly in the second slot, so the inverted
    # presentation appears conjugated; this is the unique placement passing
    # both the symmetry check and exact well-definedness.  The conjugated
    # presentation (1-e) + ez^{-1} is the pencil I - (1 - z^{-1}) e.
    scale = LaurentPoly({-1: Fraction(1), 0: Fraction(-1)})
    adj, det = pencil_adjugate(e, LaurentPoly.one(), -scale)
    pairing = _snf_pairing(f.theta * adj * scale, det, module)
    return LaurentLinkingForm(module, pairing, -f.epsilon)


def covering_autometric(f: AutometricForm) -> LaurentLinkingForm:
    """Covering linking form -z^{-1} theta(x, (z - h)^{-1} y) on the
    Q-torsion module presented by z - h; (-eps)-symmetric."""
    n = f.rank
    if n == 0:
        return _empty_covering("Q", -f.epsilon)
    pres = Matrix([[LaurentPoly({0: -f.h[i, j], 1: Fraction(1 if i == j else 0)})
                    for j in range(n)] for i in range(n)])
    module = decompose_module(pres, "Q")
    if module.is_zero:
        return _empty_covering("Q", -f.epsilon)
    # the conjugated presentation z^{-1} - h is the pencil at (z^{-1}, 1)
    adj, det = pencil_adjugate(f.h, LaurentPoly.z(-1), LaurentPoly.one())
    scale = LaurentPoly({-1: Fraction(-1)})
    pairing = _snf_pairing(f.theta * adj * scale, det, module)
    return LaurentLinkingForm(module, pairing, -f.epsilon)


# ---------------------------------------------------------------------------
# trace and monodromy
# ---------------------------------------------------------------------------

def trace_chi(f) -> Fraction:
    """Degree-zero discrepancy between the two Novikov expansions.  Linear
    over Q and zero on Laurent polynomials, so well defined on classes."""
    if not isinstance(f, RatFunc):
        f = RatFunc.make(f)
    plus = series_expand(f, "plus", 0, 0)[0]
    minus = series_expand(f, "minus", 0, 0)[0]
    return plus - minus


def _companion(d: LaurentPoly) -> Matrix:
    dense, _ = d.ordinary()
    m = len(dense) - 1
    out = [[Fraction(0)] * m for _ in range(m)]
    for a in range(m - 1):
        out[a + 1][a] = Fraction(1)
    for a in range(m):
        out[a][m - 1] = -dense[a]
    return Matrix(out)


def monodromy(form: LaurentLinkingForm) -> AutometricForm:
    """Underlying Q-space with h = multiplication by z in companion form
    and theta recovered through the trace function; inverts
    covering_autometric up to the canonical basis identification.  The
    trace is applied to the conjugated pairing value, the orientation that
    makes the round-trip exact rather than exact-up-to-sign."""
    module = form.module
    divisors = module.divisors
    dims = [len(d.ordinary()[0]) - 1 for d in divisors]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    total = sum(dims)
    h = Matrix.block_diag([_companion(d) for d in divisors]) if divisors \
        else Matrix([])
    theta = [[Fraction(0)] * total for _ in range(total)]
    for i in range(len(divisors)):
        for j in range(len(divisors)):
            lam = form.pairing[i, j]
            for a in range(dims[i]):
                for b in range(dims[j]):
                    val = -trace_chi(lam * LaurentPoly.monomial(1, a - b))
                    theta[offsets[i] + a][offsets[j] + b] = val
    return AutometricForm(theta, h, -form.epsilon)


def _poly_at_matrix(p: LaurentPoly, h: Matrix, h_inv: Matrix) -> Matrix:
    n = h.nrows
    out = Matrix.zeros(n, n)
    for k, c in sorted(p.coeffs.items()):
        pw = Matrix.identity(n)
        step = h if k >= 0 else h_inv
        for _ in range(abs(k)):
            pw = pw * step
        out = out + pw.map(lambda x: x * c)
    return out


def canonical_identification(f: AutometricForm,
                             cov: LaurentLinkingForm) -> Matrix:
    """Columns express the monodromy basis z^a g_i of the covering module in
    the original Q-basis of f, using that z acts as h on coker(z - h)."""
    n = f.rank
    h_inv = f.h.inverse()
    u_inv = cov.module.basis_change.U_inv
    cols = []
    for pos, i in enumerate(cov.module.kept_indices):
        lift = [u_inv[a, i] for a in range(n)]
        base = [Fraction(0)] * n
        base_vec = Matrix([[x] for x in base])
        for a, p in enumerate(lift):
            contrib = _poly_at_matrix(p, f.h, h_inv)
            base_vec = base_vec + Matrix([[contrib[r, a]] for r in range(n)])
        deg = len(cov.module.divisors[pos].ordinary()[0]) - 1
        vec = base_vec
        for _ in range(deg):
            cols.append([vec[r, 0] for r in range(n)])
            vec = f.h * vec
    return Matrix(cols).transpose()


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
    p_inv = p.inverse()
    return (mono.h == p_inv * f.h * p
            and mono.theta == p.transpose() * f.theta * p)


# ---------------------------------------------------------------------------
# lagrangians
# ---------------------------------------------------------------------------

def _solve_membership(basis: Matrix, vec: list, integral: bool) -> bool:
    """Is vec in the column span of basis (lattice span when integral)?"""
    if basis.ncols == 0:
        return all(x == 0 for x in vec)
    aug = basis.hstack(Matrix([[v] for v in vec]))
    if aug.rank() != basis.ncols:
        return False
    if not integral:
        return True
    scale = lcm(*(x.denominator for row in basis.rows + [vec] for x in row))
    int_basis = Matrix([[int(x * scale) for x in row] for row in basis.rows])
    return _integral_solver(int_basis)([int(x * scale) for x in vec])


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
    if integral and not _is_integral(basis):
        raise ValueError("Z-coefficient submodule with non-integral basis")
    for j in range(basis.ncols):
        img = f.e * Matrix([[basis[i, j]] for i in range(n)])
        if not _solve_membership(basis, [img[i, 0] for i in range(n)],
                                 integral):
            raise NotEInvariant("e does not preserve the submodule")
    if basis.transpose() * f.psi * basis != Matrix.zeros(
            basis.ncols, basis.ncols):
        return "not_lagrangian"
    if n % 2 != 0 or basis.ncols != n // 2:
        return "not_lagrangian"
    if not integral:
        return "split_lagrangian"
    int_basis = Matrix([[int(x) for x in row] for row in basis.rows])
    res = smith_normal_form(int_basis, ring="Z")
    div = [res.D[i, i] for i in range(min(res.D.nrows, res.D.ncols))]
    nonzero = [abs(d) for d in div if d != 0]
    if len(nonzero) == basis.ncols and all(d == 1 for d in nonzero):
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


def covering_submodule_image(cov: LaurentLinkingForm,
                             sub: SeifertSubmodule) -> Matrix:
    """Push a Seifert submodule through the covering: coordinates of its
    basis vectors in the kept Smith generator basis."""
    res = cov.module.basis_change
    lifted = res.U * sub.basis.map(LaurentPoly.const)
    return Matrix([[lifted[i, j] for j in range(sub.basis.ncols)]
                   for i in cov.module.kept_indices])


# ---------------------------------------------------------------------------
# near projections
# ---------------------------------------------------------------------------

def near_projection_decompose(k_rank: int, e) -> tuple[Matrix, Matrix]:
    """Split the space as K+ (+) K- with 1-e nilpotent on K+ and e nilpotent
    on K-, via the projection (e^k + (1-e)^k)^{-1} e^k."""
    e = _q_matrix(e)
    if e.nrows != k_rank or e.ncols != k_rank:
        raise ValueError("e must be k_rank x k_rank")
    if k_rank == 0:
        return Matrix([]), Matrix([])
    ident = Matrix.identity(k_rank)
    prod = e * (ident - e)
    power = ident
    for _ in range(k_rank):
        power = power * prod
    if power != Matrix.zeros(k_rank, k_rank):
        raise NotNearProjection("e(1-e) is not nilpotent")
    e_k = ident
    one_minus_k = ident
    for _ in range(k_rank):
        e_k = e_k * e
        one_minus_k = one_minus_k * (ident - e)
    p_e = (e_k + one_minus_k).inverse() * e_k
    check(p_e * p_e == p_e, "near projection is not idempotent")
    plus = _column_space_basis(p_e)
    minus = _column_space_basis(ident - p_e)
    return plus, minus


def _column_space_basis(m: Matrix) -> Matrix:
    cols = []
    rank = 0
    for j in range(m.ncols):
        cand = cols + [[m[i, j] for i in range(m.nrows)]]
        if Matrix(cand).rank() > rank:
            cols = cand
            rank += 1
    return Matrix(cols).transpose() if cols else Matrix([])
