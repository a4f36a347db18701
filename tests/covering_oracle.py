"""Oracles on covering forms: the check of a linking form over Q(z),
submodules pushed through the covering, and the near-projection splitting
of a Seifert form's space.

- `covering_pencil` rebuilds the presentation of a covering module from
  its form, the pencil (1-e) + ez or z - h, which the module does not keep;
  `restricted_e` rebuilds e|R, which `_pencil_reduction` does not return.
- `covering_submodule_image` writes a Seifert submodule in the covering
  module's generators, through `LaurentModule.basis_change`;
  `is_lagrangian_submodule` (with `submodule_dimension_q`) then checks
  that a Seifert lagrangian covers a lagrangian of the linking form.
- `near_projection_decompose` splits the space as K+ (+) K- for an e with
  e(1-e) nilpotent.
- `validate_over_qz` checks a `LaurentLinkingForm` over Q(z): its
  symmetry, annihilation by the row and column divisors and a bijective
  adjoint.  The constructor checks none of these and the covering functors
  certify them over Q, so this is the oracle for that certificate and for
  the forms tests build directly.
- `module_dimension_q`, `laurent_direct_sum` and `laurent_negate` are what
  only tests need of modules and linking forms over Q[z, z^-1], and
  `autometric_direct_sum` what they need of autometric forms.
- `pairing_entry_oracle` is a covering pairing entry canonicalized in two
  passes, `RatFunc.make` and then `frac_class`.
"""

from __future__ import annotations

from fractions import Fraction

from wittkit.errors import ComputationError, SingularForm, check
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.ratfunc import RatFunc
from wittkit.exact.residue import ResidueField
from wittkit.laurent_forms import (
    LaurentLinkingForm,
    LaurentModule,
    _as_laurent,
    _dense,
    _fitting_power,
)
from wittkit.seifert import AutometricForm, SeifertForm, SeifertSubmodule


class NotNearProjection(ComputationError):
    pass


# ---------------------------------------------------------------------------
# modules and forms
# ---------------------------------------------------------------------------

def covering_pencil(f) -> Matrix:
    """The presentation of f's covering module over Q[z, z^-1]: (1-e) + ez
    for a SeifertForm, z - h for an AutometricForm."""
    if isinstance(f, SeifertForm):
        return f.e.map(lambda x: LaurentPoly({0: -x, 1: x})) + Matrix.identity(
            f.rank, LaurentPoly.one())
    return f.h.map(lambda x: LaurentPoly.const(-x)) + Matrix.identity(
        f.rank, LaurentPoly.z())


def restricted_e(f: SeifertForm, b: Matrix) -> Matrix:
    """e|R in the coordinates of `_pencil_reduction`'s basis b of R: b is 1
    at its own pivot of the Fitting power's rref and 0 at the others, so
    e|R is those rows of e b."""
    sel = _fitting_power(f.e).transpose().rref()[1]
    eb = (f.e * b).rows
    return Matrix([eb[s] for s in sel])


def validate_over_qz(form: LaurentLinkingForm) -> None:
    """Raise unless form's pairing is epsilon-symmetric modulo
    Q[z, z^-1], killed by its row and column divisors, and has a bijective
    adjoint T -> T^."""
    eps = form.epsilon
    lam = form.pairing
    divisors = form.module.divisors
    r = form.module.rank
    for i in range(r):
        for j in range(r):
            entry = lam[i, j]
            if not entry.class_equals(lam[j, i].bar() * Fraction(eps)):
                raise ValueError("pairing breaks epsilon-symmetry")
            # entries are canonical: d kills one exactly when den | d
            if polys.mod(_dense(divisors[i]), entry.den):
                raise ValueError("pairing not annihilated by the row divisor")
            if polys.mod(_dense(divisors[j])[::-1], entry.den):
                raise ValueError(
                    "pairing not annihilated by the column divisor")
    if not _adjoint_bijective(form):
        raise SingularForm("adjoint T -> T^ is not an isomorphism")


def _adjoint_bijective(form: LaurentLinkingForm) -> bool:
    """The Q-linear map u |-> (sum_j d_i lambda_ij u_j mod d_i) must be a
    bijection of a sum of residue fields with itself; conjugation on the
    inputs is a Q-linear bijection, so it drops out."""
    divisors = form.module.divisors
    r = form.module.rank
    fields = [ResidueField(_dense(d)) for d in divisors]
    dims = [len(_dense(d)) - 1 for d in divisors]
    total = sum(dims)
    if total == 0:
        return True
    offsets = [sum(dims[:i]) for i in range(r)]
    cols = []
    for j in range(r):
        numerators = []
        for i in range(r):
            num = form.pairing[i, j] * divisors[i]
            numerators.append(fields[i].from_laurent(num.as_laurent()))
        for b in range(dims[j]):
            col = [Fraction(0)] * total
            for i in range(r):
                shifted = numerators[i] * fields[i].gen() ** b
                for a, c in enumerate(shifted.coeffs):
                    col[offsets[i] + a] = c
            cols.append(col)
    big = Matrix([[cols[j][i] for j in range(total)] for i in range(total)])
    return big.det() != 0


def module_dimension_q(module: LaurentModule) -> int:
    return sum(len(_dense(d)) - 1 for d in module.divisors)


def laurent_direct_sum(a: LaurentLinkingForm,
                       b: LaurentLinkingForm) -> LaurentLinkingForm:
    if a.epsilon != b.epsilon:
        raise ValueError("direct sum needs matching symmetry")
    if a.module.torsion_mode != b.module.torsion_mode:
        raise ValueError("direct sum needs matching torsion mode")
    # concatenated divisors sorted by degree; not a divisibility chain in
    # general, which nothing downstream requires
    divs = a.module.divisors + b.module.divisors
    perm = sorted(range(len(divs)),
                  key=lambda k: (len(_dense(divs[k])), _dense(divs[k])))
    module = LaurentModule([divs[k] for k in perm], None,
                           a.module.torsion_mode)
    combined = Matrix.block_diag([a.pairing, b.pairing], RatFunc.zero())
    gram = [[combined[i, j] for j in perm] for i in perm]
    return LaurentLinkingForm(module, gram, a.epsilon)


def laurent_negate(f: LaurentLinkingForm) -> LaurentLinkingForm:
    gram = [[-x for x in row] for row in f.pairing.rows]
    return LaurentLinkingForm(f.module, gram, f.epsilon)


def autometric_direct_sum(a: AutometricForm,
                          b: AutometricForm) -> AutometricForm:
    if a.epsilon != b.epsilon:
        raise ValueError("direct sum needs matching symmetry")
    return AutometricForm(Matrix.block_diag([a.theta, b.theta]),
                          Matrix.block_diag([a.h, b.h]), a.epsilon)


def pairing_entry_oracle(c: list, m: list, s: list) -> RatFunc:
    """`seifert._pairing_entry`'s s N / m* modulo Q[z, z^-1]: reduced to
    lowest terms first, then to its class."""
    d = len(m) - 1
    num = [sum(m[a] * c[k - d + a] for a in range(d - k, d + 1))
           for k in range(d)]
    sn = LaurentPoly.from_dense(s) * LaurentPoly.from_dense(num)
    return RatFunc.make(sn, m[::-1]).frac_class()


# ---------------------------------------------------------------------------
# submodules through the covering
# ---------------------------------------------------------------------------

def covering_submodule_image(f: SeifertForm, cov: LaurentLinkingForm,
                             sub: SeifertSubmodule) -> Matrix:
    """Push a submodule of f through its covering cov: coordinates of its
    basis vectors in the generator basis, sum_a c_a z^a for sum_a c_a h^a
    g_i.  In P mode a vector's class is its part in R; the Fitting power
    kills the other part and is injective on R, so the coordinates are
    solved after applying it."""
    module = cov.module
    if module.is_zero:
        return Matrix([])
    p, vecs = module.basis_change, sub.basis
    if module.torsion_mode == "P":
        kill = _fitting_power(f.e)
        p, vecs = kill * p, kill * vecs
    # exact normal equations: p has full column rank, vecs lie in its span
    coords = ((p.transpose() * p).inverse() * p.transpose() * vecs).transpose()
    ends = [0]
    for d in module.divisors:
        ends.append(ends[-1] + len(d.ordinary()[0]) - 1)
    return Matrix([[LaurentPoly.from_dense(c[a:b]) for c in coords.rows]
                   for a, b in zip(ends, ends[1:])])


def submodule_dimension_q(module: LaurentModule, cols: Matrix) -> int:
    """Q-dimension of the submodule generated by the given column vectors
    (Laurent entries, coordinates in the divisor basis).  The span of the
    z-orbit stabilizes because multiplication by z is a linear bijection."""
    fields = [ResidueField(_dense(d)) for d in module.divisors]
    dims = [f.degree for f in fields]
    offsets = [sum(dims[:i]) for i in range(len(dims))]
    total = sum(dims)

    def flatten(blocks):
        out = [Fraction(0)] * total
        for i, e in enumerate(blocks):
            for a, c in enumerate(e.coeffs):
                out[offsets[i] + a] = c
        return out

    vecs = []
    for j in range(cols.ncols):
        vecs.append([fields[i].from_laurent(cols[i, j])
                     for i in range(len(fields))])
    if not vecs or total == 0:
        return 0
    span = [flatten(v) for v in vecs]
    rank = Matrix(span).rank()
    frontier = vecs
    while True:
        frontier = [[fields[i].gen() * e for i, e in enumerate(v)]
                    for v in frontier]
        span.extend(flatten(v) for v in frontier)
        new_rank = Matrix(span).rank()
        if new_rank == rank:
            return rank
        rank = new_rank


def is_lagrangian_submodule(form: LaurentLinkingForm, cols) -> bool:
    """Whether the submodule generated by the columns is a lagrangian: the
    pairing vanishes on it and it fills half the Q-dimension, which for a
    nonsingular form forces it to equal its own annihilator."""
    if not isinstance(cols, Matrix):
        cols = Matrix([[_as_laurent(x) for x in row] for row in cols])
    module = form.module
    r = module.rank
    if cols.nrows != r:
        raise ValueError("column vectors do not live in the module")
    for i in range(cols.ncols):
        for j in range(cols.ncols):
            acc = RatFunc.zero()
            for a in range(r):
                for b in range(r):
                    acc = acc + form.pairing[a, b] * (
                        cols[a, i] * cols[b, j].bar())
            if not acc.is_laurent():
                return False
    total = module_dimension_q(module)
    if total % 2 != 0:
        return False
    return submodule_dimension_q(module, cols) == total // 2


# ---------------------------------------------------------------------------
# near projections
# ---------------------------------------------------------------------------

def near_projection_decompose(k_rank: int, e) -> tuple[Matrix, Matrix]:
    """Split the space as K+ (+) K- with 1-e nilpotent on K+ and e nilpotent
    on K-, via the projection (e^k + (1-e)^k)^{-1} e^k."""
    e = Matrix.from_ints(e)
    if e.nrows != k_rank or e.ncols != k_rank:
        raise ValueError("e must be k_rank x k_rank")
    if k_rank == 0:
        return Matrix([]), Matrix([])
    ident = Matrix.identity(k_rank)
    if _fitting_power(e) != Matrix.zeros(k_rank, k_rank):
        raise NotNearProjection("e(1-e) is not nilpotent")
    e_k, one_minus_k = ident, ident
    for _ in range(k_rank):
        e_k, one_minus_k = e_k * e, one_minus_k * (ident - e)
    p_e = (e_k + one_minus_k).inverse() * e_k
    check(p_e * p_e == p_e, "near projection is not idempotent")
    return _column_space_basis(p_e), _column_space_basis(ident - p_e)


def _column_space_basis(m: Matrix) -> Matrix:
    rows = m.transpose().rref()[0]
    return Matrix(rows).transpose() if rows else Matrix([])
