"""Oracles on covering forms: a linking form over Q(z), submodules pushed
through the covering, and the near-projection splitting of a Seifert
form's space.

- `covering_pencil` rebuilds the presentation of a covering module from
  its form, the pencil (1-e) + ez or z - h, which the module does not keep;
  `restricted_e` rebuilds e|R from R's basis and the Fitting power, the
  oracle for the e|R that `_pencil_reduction` returns.
- `covering_submodule_image` writes a Seifert submodule in the covering
  module's generators, through `LaurentModule.basis_change`;
  `is_lagrangian_submodule` (with `submodule_dimension_q`) then checks
  that a Seifert lagrangian covers a lagrangian of the linking form.
- `near_projection_decompose` splits the space as K+ (+) K- for an e with
  e(1-e) nilpotent.
- `QZ` is a `RatFunc` with the field operations of Q(z): sums, products,
  inverses and the involution z -> z^-1, which only tests perform.
- `frac_class` is the canonical representative of a rational function
  modulo Q[z, z^-1]; `qz_pairing` is a form's pairing over Q(z), each
  entry num_ij / d_j* brought to it, and `form_from_qz` the numerators of a pairing given over
  Q(z): it refuses an entry with a pole deeper than its column divisor,
  which no numerator over d_j* can carry.
- `validate_over_qz` checks a `LaurentLinkingForm` over Q(z): its
  symmetry, annihilation by the row divisors and a bijective adjoint (the
  numerators carry the column annihilation).  The constructor checks none
  of these and the covering functors certify them over Q, so this is the
  oracle for that certificate and for the forms tests build directly.
- `qz_auxiliary_gram` and `qz_monodromy_theta` are the Q(z) routes that
  `auxiliary_hermitian` and `monodromy` replaced: the level form as the
  product p^l cof_i bar(cof_j) lambda_ij over Q(z), with entries in the
  `Fraction` residue field of `hermitian_oracle`, and theta from the
  expansions of the canonical entries.
- `series_expand_oracle` is the `Fraction` recurrence that the integer
  `series_expand` replaced, and `verify_roundtrip_oracle` the round trip's
  check on `Fraction` matrices through `canonical_identification`, which
  the integer check replaced.
- `module_dimension_q`, `laurent_direct_sum` and `laurent_negate` are what
  only tests need of modules and linking forms over Q[z, z^-1],
  `autometric_direct_sum` what they need of autometric forms, and
  `seifert_direct_sum` and `seifert_negate` of Seifert forms.
- `pairing_entry_oracle` is a covering pairing entry canonicalized in two
  passes, `QZ.make` and then `frac_class`.
"""

from __future__ import annotations

from fractions import Fraction

from wittkit.errors import (
    ComputationError,
    NotInvertibleInNovikov,
    SingularForm,
    check,
)
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.ratfunc import RatFunc
from wittkit.laurent_forms import (
    LaurentLinkingForm,
    LaurentModule,
    _as_laurent,
)
from wittkit import seifert
from wittkit.seifert import AutometricForm, SeifertForm, SeifertSubmodule

from elimination_oracle import fitting_power, fraction_matrix, rref
from hermitian_oracle import ResidueField
import qpolys


class NotNearProjection(ComputationError):
    pass


class QZ(RatFunc):
    """A canonical `RatFunc` with the arithmetic of the field Q(z)."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "QZ":
        return cls(LaurentPoly.zero(), [Fraction(1)])

    @classmethod
    def one(cls) -> "QZ":
        return cls(LaurentPoly.one(), [Fraction(1)])

    def is_zero(self) -> bool:
        return self.num.is_zero()

    def __bool__(self) -> bool:
        return bool(self.num)

    def __add__(self, other) -> "QZ":
        other = _to_qz(other)
        d1 = LaurentPoly.from_dense(self.den)
        d2 = LaurentPoly.from_dense(other.den)
        return QZ.make(self.num * d2 + other.num * d1, d1 * d2)

    __radd__ = __add__

    def __neg__(self) -> "QZ":
        return QZ(-self.num, self.den)

    def __sub__(self, other) -> "QZ":
        return self + (-_to_qz(other))

    def __rsub__(self, other) -> "QZ":
        return _to_qz(other) - self

    def __mul__(self, other) -> "QZ":
        other = _to_qz(other)
        d1 = LaurentPoly.from_dense(self.den)
        d2 = LaurentPoly.from_dense(other.den)
        return QZ.make(self.num * other.num, d1 * d2)

    __rmul__ = __mul__

    def inverse(self) -> "QZ":
        if self.is_zero():
            raise NotInvertibleInNovikov("inverting zero")
        return QZ.make(LaurentPoly.from_dense(self.den), self.num)

    def __truediv__(self, other) -> "QZ":
        return self * _to_qz(other).inverse()

    def __rtruediv__(self, other) -> "QZ":
        return _to_qz(other) / self

    def bar(self) -> "QZ":
        """The involution z -> z^-1."""
        return QZ.make(self.num.bar(), LaurentPoly.from_dense(self.den).bar())



def monic_ordinary(p: LaurentPoly) -> LaurentPoly:
    """Strip the z-power unit and rescale to a monic ordinary polynomial."""
    return LaurentPoly.from_dense(qpolys.monic(p.ordinary()[0]))

def _to_qz(x) -> QZ:
    if isinstance(x, QZ):
        return x
    if isinstance(x, RatFunc):
        return QZ(x.num, x.den)
    return QZ.make(x)


# ---------------------------------------------------------------------------
# modules and forms
# ---------------------------------------------------------------------------

def covering_pencil(f) -> Matrix:
    """The presentation of f's covering module over Q[z, z^-1]: (1-e) + ez
    for a SeifertForm, z - h for an AutometricForm."""
    if isinstance(f, SeifertForm):
        return fraction_matrix(f.e_pair).map(
            lambda x: LaurentPoly({0: -x, 1: x})) + Matrix.identity(
            f.rank, LaurentPoly.one())
    return f.h.map(lambda x: LaurentPoly.const(-x)) + Matrix.identity(
        f.rank, LaurentPoly.z())


def restricted_e(f: SeifertForm, b: Matrix) -> Matrix:
    """e|R in the coordinates of `_pencil_reduction`'s basis b of R: b is 1
    at its own pivot of the Fitting power's rref and 0 at the others, so
    e|R is those rows of e b."""
    e = fraction_matrix(f.e_pair)
    sel = rref(fitting_power(e).transpose())[1]
    eb = (e * b).rows
    return Matrix([eb[s] for s in sel])


def frac_class(f) -> QZ:
    """Canonical representative of [f] in Q(z) / Q[z,z^-1]: with den(0) != 0
    z is invertible modulo den, so it is the unique c/den with c ordinary of
    degree < deg den (zero class -> 0)."""
    f = _to_qz(f)
    if f.is_laurent():
        return QZ.zero()
    den = f.den
    n0, m = f.num.ordinary()
    c = qpolys.mod(n0, den)
    if m > 0:
        zm = qpolys.mod([Fraction(0)] * m + [Fraction(1)], den)
        c = qpolys.mod(qpolys.mul(c, zm), den)
    elif m < 0:
        # den = 0 mod den, so z^-1 = -(den - den(0)) / (den(0) z)
        zinv = [-x / den[0] for x in den[1:]]
        for _ in range(-m):
            c = qpolys.mod(qpolys.mul(c, zinv), den)
    return QZ.make(LaurentPoly.from_dense(c), den)


def _dense(p: LaurentPoly) -> list:
    """The dense coefficients of an ordinary polynomial."""
    dense, off = p.ordinary()
    if off != 0:
        raise ValueError("expected an ordinary polynomial")
    return dense


def _conjugate_divisor(d: LaurentPoly) -> list:
    """d* = z^D d(1/z), dense."""
    return _dense(d)[::-1]


def qz_pairing(form: LaurentLinkingForm) -> Matrix:
    """lambda_ij = num_ij / d_j* as canonical classes in Q(z) / Q[z, z^-1]."""
    stars = [_conjugate_divisor(d) for d in form.module.divisors]
    return Matrix([[frac_class(QZ.make(x, star))
                    for x, star in zip(row, stars)] for row in form.num.rows])


def form_from_qz(module: LaurentModule, pairing,
                 epsilon: int) -> LaurentLinkingForm:
    """The form with the given Q(z) pairing in the divisor basis: num_ij =
    d_j* lambda_ij, refused unless a Laurent polynomial, that is unless d_j*
    clears the pole of lambda_ij."""
    rows = pairing.rows if isinstance(pairing, Matrix) else pairing
    stars = [QZ.make(LaurentPoly.from_dense(_conjugate_divisor(d)))
             for d in module.divisors]
    nums = []
    for i, row in enumerate(rows):
        nums.append([])
        for j, x in enumerate(row):
            num = stars[j] * x
            if not num.is_laurent():
                raise ValueError(
                    f"pairing not annihilated by the column divisor: entry "
                    f"({i}, {j}) has a pole deeper than d_{j}*")
            nums[-1].append(num.num)
    return LaurentLinkingForm(module, nums, epsilon)


def validate_over_qz(form: LaurentLinkingForm) -> None:
    """Raise unless form's pairing is killed by its row divisors,
    epsilon-symmetric modulo Q[z, z^-1] and has a bijective adjoint
    T -> T^.  The column divisors kill it by construction: d_j* clears
    num_ij / d_j*.  Annihilation is checked first, because with the
    columns killed a symmetric pairing is killed by its rows too."""
    eps = form.epsilon
    lam = qz_pairing(form)
    divisors = form.module.divisors
    r = form.module.rank
    for i in range(r):
        for j in range(r):
            entry = lam[i, j]
            # entries are canonical: d kills one exactly when den | d
            if qpolys.mod(_dense(divisors[i]), entry.den):
                raise ValueError("pairing not annihilated by the row divisor")
            if entry != frac_class(lam[j, i].bar() * Fraction(eps)):
                raise ValueError("pairing breaks epsilon-symmetry")
    if not _adjoint_bijective(divisors, lam):
        raise SingularForm("adjoint T -> T^ is not an isomorphism")


def _adjoint_bijective(divisors: list, lam: Matrix) -> bool:
    """The Q-linear map u |-> (sum_j d_i lambda_ij u_j mod d_i) must be a
    bijection of a sum of residue fields with itself; conjugation on the
    inputs is a Q-linear bijection, so it drops out."""
    r = len(divisors)
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
            num = lam[i, j] * divisors[i]
            check(num.is_laurent(), "row divisor left a pole")
            numerators.append(fields[i].from_laurent(num.num))
        for b in range(dims[j]):
            col = [Fraction(0)] * total
            for i in range(r):
                shifted = numerators[i] * fields[i].gen() ** b
                for a, c in enumerate(shifted.coeffs):
                    col[offsets[i] + a] = c
            cols.append(col)
    big = Matrix([[cols[j][i] for j in range(total)] for i in range(total)])
    return big.det() != 0


def qz_auxiliary_gram(form: LaurentLinkingForm, p: LaurentPoly,
                      l: int) -> Matrix:
    """The level-l form at p before normalization, by products over Q(z):
    p^l cof_i bar(cof_j) lambda_ij reduced mod p, on the divisors
    d_i = p^l cof_i of exact valuation l."""
    p = monic_ordinary(p)
    field = ResidueField(_dense(p))
    lam = qz_pairing(form)
    divisors = form.module.divisors
    p_pow = p**l
    cof = {}
    for i, d in enumerate(divisors):
        q, rem = qpolys.divmod_poly(_dense(d), _dense(p_pow))
        if not rem and qpolys.mod(q, _dense(p)):
            cof[i] = LaurentPoly.from_dense(q)
    entries = []
    for i in cof:
        row = []
        for j in cof:
            e = lam[i, j] * (p_pow * cof[i] * cof[j].bar())
            check(e.is_laurent(), "level entry escapes the coefficient ring")
            row.append(field.from_laurent(e.num))
        entries.append(row)
    return Matrix(entries)


def qz_monodromy_theta(form: LaurentLinkingForm) -> Matrix:
    """`monodromy`'s theta, read off the expansions of the canonical
    entries: theta[(i,a),(j,b)] = -chi(z^(a-b) lambda_ij)."""
    lam = qz_pairing(form)
    dims = [len(_dense(d)) - 1 for d in form.module.divisors]
    theta = []
    for i, di in enumerate(dims):
        sides = [(dj, *(series_expand_oracle(lam[i, j].num, lam[i, j].den,
                                             side, 1 - di, dj - 1)
                        for side in ("minus", "plus")))
                 for j, dj in enumerate(dims)]
        theta += [[minus[b - a] - plus[b - a] for dj, minus, plus in sides
                   for b in range(dj)] for a in range(di)]
    return Matrix(theta)


def series_expand_oracle(num: LaurentPoly, den: list, side: str, lo: int,
                         hi: int) -> dict[int, Fraction]:
    """`series_expand` by its `Fraction` recurrence, `_inverse_coeffs`, on
    den or on den reversed: what the integer recurrence replaced."""
    if side not in ("plus", "minus"):
        raise ValueError("side must be 'plus' or 'minus'")
    if not den or not den[0 if side == "plus" else -1]:
        raise NotInvertibleInNovikov(f"denominator not invertible in the "
                                     f"{side} completion")
    out = {d: Fraction(0) for d in range(lo, hi + 1)}
    if num.is_zero():
        return out
    D = qpolys.deg(den)
    num_degs = sorted(num.coeffs)
    if side == "plus":
        # 1/den = sum_{j>=0} b_j z^j, driven by den(0) != 0
        need = hi - num_degs[0]
        b = _inverse_coeffs(den, max(need, -1))
        for r, a in num.coeffs.items():
            for d in range(lo, hi + 1):
                j = d - r
                if 0 <= j <= need:
                    out[d] += a * b[j]
    else:
        # 1/den = sum_{j>=0} c_j z^(-D-j): the same recurrence on den reversed
        need = num_degs[-1] - D - lo
        c = _inverse_coeffs(den[::-1], max(need, -1))
        for r, a in num.coeffs.items():
            for d in range(lo, hi + 1):
                j = r - D - d
                if 0 <= j <= need:
                    out[d] += a * c[j]
    return out


def _inverse_coeffs(den: list, upto: int) -> list[Fraction]:
    """b_0, ..., b_upto with 1/den = sum_j b_j z^j in Q[[z]]; den(0) != 0."""
    inv = Fraction(1) / den[0]
    b = [inv]
    for j in range(1, upto + 1):
        b.append(-inv * sum(den[i] * b[j - i]
                            for i in range(1, min(j, len(den) - 1) + 1)))
    return b[:upto + 1]


def verify_roundtrip_oracle(f: AutometricForm) -> bool:
    """`verify_roundtrip` on `Fraction` matrices: h P = P mono.h and
    mono.theta = P^T theta P for P = `canonical_identification`, through
    `seifert`'s own names, so a test that patches them patches both."""
    cov = seifert.covering_autometric(f)
    mono = seifert.monodromy(cov)
    if f.rank == 0:
        return mono.rank == 0
    p = seifert.canonical_identification(f, cov)
    if p.nrows != f.rank or p.ncols != f.rank or p.det() == 0:
        return False
    return (f.h * p == p * mono.h
            and mono.theta == p.transpose() * f.theta * p)


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
    # the numerators of column j are over d_j*, which the permutation
    # moves with the column
    combined = Matrix.block_diag([a.num, b.num], LaurentPoly.zero())
    num = [[combined[i, j] for j in perm] for i in perm]
    return LaurentLinkingForm(module, num, a.epsilon)


def laurent_negate(f: LaurentLinkingForm) -> LaurentLinkingForm:
    return LaurentLinkingForm(f.module, [[-x for x in row]
                                         for row in f.num.rows], f.epsilon)


def autometric_direct_sum(a: AutometricForm,
                          b: AutometricForm) -> AutometricForm:
    if a.epsilon != b.epsilon:
        raise ValueError("direct sum needs matching symmetry")
    return AutometricForm(Matrix.block_diag([a.theta, b.theta]),
                          Matrix.block_diag([a.h, b.h]), a.epsilon)


def seifert_direct_sum(a: SeifertForm, b: SeifertForm) -> SeifertForm:
    """a (+) b from psi blocks, over Z when both are."""
    if a.epsilon != b.epsilon:
        raise ValueError("direct sum needs matching symmetry")
    coeff = "Z" if a.coefficients == b.coefficients == "Z" else "Q"
    return SeifertForm(Matrix.block_diag([a.psi, b.psi]), a.epsilon, coeff)


def seifert_negate(f: SeifertForm) -> SeifertForm:
    return SeifertForm(-f.psi, f.epsilon, f.coefficients)


def pairing_entry_oracle(c: list, m: list, s: list) -> QZ:
    """`seifert._pairing_entry`'s s N / m* modulo Q[z, z^-1]: reduced to
    lowest terms first, then to its class."""
    d = len(m) - 1
    num = [sum(m[a] * c[k - d + a] for a in range(d - k, d + 1))
           for k in range(d)]
    sn = LaurentPoly.from_dense(s) * LaurentPoly.from_dense(num)
    return frac_class(QZ.make(sn, m[::-1]))


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
        kill = fitting_power(fraction_matrix(f.e_pair))
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
    lam = qz_pairing(form)
    for i in range(cols.ncols):
        for j in range(cols.ncols):
            acc = QZ.zero()
            for a in range(r):
                for b in range(r):
                    acc = acc + lam[a, b] * (
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
    if fitting_power(e) != Matrix.zeros(k_rank, k_rank):
        raise NotNearProjection("e(1-e) is not nilpotent")
    e_k, one_minus_k = ident, ident
    for _ in range(k_rank):
        e_k, one_minus_k = e_k * e, one_minus_k * (ident - e)
    p_e = (e_k + one_minus_k).inverse() * e_k
    check(p_e * p_e == p_e, "near projection is not idempotent")
    return _column_space_basis(p_e), _column_space_basis(ident - p_e)


def _column_space_basis(m: Matrix) -> Matrix:
    rows = rref(m.transpose())[0]
    return Matrix(rows).transpose() if rows else Matrix([])
