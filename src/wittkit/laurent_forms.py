"""Linking forms over the rational Laurent polynomial ring.

A torsion module is presented by a square matrix with nonzero determinant
and normalized to its elementary divisor chain d_1 | ... | d_r.  No Euclid
over Q[z, z^-1] finds the chain: every module here is a Q-space with z
acting as an automorphism h (Trotter's reduction of a pencil
(z - c) E + 1, reached from any presentation through its block companion
pencil), and the rational canonical decomposition of h over Q gives the
divisors, the same routine the covering functors use.  The order's
irreducible factors are integer records, primitive lists with their
multiplicities in the report's order (`factor.factor_rational_poly`), keyed
by `factor.factor_key`.  For each self-conjugate irreducible factor p and
level l the pairing induces a hermitian form over Q[z]/(p); its signatures
at the unit-circle roots of p assemble into the multisignature.  Conjugate
factor pairs and factors with no unit-circle roots contribute
hyperbolically and carry no signature.

Sign conventions.  A self-conjugate even-degree factor satisfies
p = z^{2m} bar(p); the symmetry scalar of the level-l auxiliary form is
epsilon z^{2ml}.  The normalizing unit u with u/bar(u) equal to that scalar
is only canonical up to the fixed field, so the signature at each root
z = e^{i theta} is oriented by requiring u(e^{i theta}) to be a positive
real multiple of e^{im l theta} (epsilon = +1) or of i e^{im l theta}
(epsilon = -1).  On top of that, the reported value at a root is the
signature of the real localization at that root's quadratic z^2 - y0 z + 1:
splitting off the other roots of p rescales an odd-level form by
prod (y0 - y_other) = g'(y0), with g the minimal polynomial of y = z + 1/z,
so odd levels also carry sign(g'(y0)).  Reported values are signatures of
the underlying real form: twice the hermitian signature for complex residue
fields, plain signatures at z = +-1.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from functools import cached_property, reduce
from itertools import chain
from operator import mul

from wittkit.errors import (
    InvariantViolated,
    NotPTorsion,
    NotSelfConjugate,
    NotTorsion,
    SingularForm,
    SingularMatrix,
    check,
)
from wittkit.exact import matrix, polys
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.exact.residue import ResidueField
from wittkit.exact.roots import (
    DEFAULT_PRECISION,
    CertifiedRoot,
    hermitian_signature_at_root,
    unit_circle_roots,
)

# Global orientation of every reported signature; fixed once by the trefoil
# calibration (total odd-level signature -2 at theta = pi/3).
SIGMA_SIGN = 1


def _as_laurent(x) -> LaurentPoly:
    return x if isinstance(x, LaurentPoly) else LaurentPoly.const(x)


def _monic(p: list) -> list:
    """The integer polynomial p made monic, over Q."""
    return [Fraction(c, p[-1]) for c in p]


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

class LaurentModule:
    """Torsion module (+) A/(d_i) with its elementary divisor chain, units
    dropped: chain[i] is `_frobenius`'s primitive integer list M_i, with
    M_i(0) != 0 and d_i = M_i / lc(M_i).

    A covering module is a Q-space V with z acting as an automorphism h;
    basis is then the Q-basis P of V as reduced pairs, columns h^a g_i
    (a < deg d_i) in the coordinates of the form's space (Q^n, or Q^n
    around Trotter's part R for a Seifert form): it traces generators back
    to the form.  It is None for other modules.  No presentation over
    Q[z, z^-1] is kept.  Equality reads the three fields, not the caches."""

    def __init__(self, chain: list, basis: list | None, torsion_mode: str):
        self.chain, self.basis, self.torsion_mode = chain, basis, torsion_mode
        self._splits = {}

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.chain, self.basis, self.torsion_mode) == (
            other.chain, other.basis, other.torsion_mode)

    def __repr__(self):
        return (f"LaurentModule({self.chain!r}, {self.basis!r}, "
                f"{self.torsion_mode!r})")

    @property
    def divisors(self) -> list:
        """The chain as monic `LaurentPoly`s; the package never reads it."""
        return [LaurentPoly.from_dense(_monic(m)) for m in self.chain]

    @property
    def rank(self) -> int:
        return len(self.chain)

    @property
    def is_zero(self) -> bool:
        return not self.chain

    @cached_property
    def total_divisor(self) -> list:
        """The chain's product, once for `factors` and the order: primitive
        as each M_i is (Gauss's lemma)."""
        return reduce(polys.mul, self.chain, [1])

    @cached_property
    def factors(self) -> list:
        """Primitive irreducible factors of the order, with multiplicities,
        in the report's order: the largest divisor's (`factor_rational_poly`),
        each with the sum of its levels in the chain (`_split`)."""
        found = factor_rational_poly(self.chain[-1] if self.chain else [1])
        if len(self.chain) < 2:  # the order itself, as checked there
            return found
        out = [(g, sum(l for l, _ in self._split(g)[1].values()))
               for g, _ in found]
        prod = reduce(polys.mul, (g for g, m in out for _ in range(m)), [1])
        check(prod == self.total_divisor, "factors do not give the order")
        return out

    @cached_property
    def factor_keys(self) -> dict:
        """Each factor's key (`factor_key`) by its tuple, made once."""
        return {tuple(g): factor_key(g) for g, _ in self.factors}

    def _split(self, p: list) -> tuple:
        """(P, {i: (l, C)}) once per factor p, its primitive list P (any
        multiple of it is made primitive), and M_i = P^l C, l > 0, with
        C primitive, by exact division over Z (Gauss's lemma), where
        `polys.divmod_poly` leaves no remainder."""
        prim = polys.primitive(p)
        if (key := tuple(prim)) not in self._splits:
            if len(prim) < 2:
                raise ValueError("factor must have positive degree")
            split = {}
            for i, cof in enumerate(self.chain):
                level = 0
                while not (qr := polys.divmod_poly(cof, prim))[1]:
                    cof, level = qr[0], level + 1
                if level:
                    split[i] = level, cof
            self._splits[key] = prim, split
        return self._splits[key]


def _powers(m: list, w: list, k: int) -> list:
    """w, m w, ..., m^k w for an integer matrix m and vector w."""
    out = [w]
    for _ in range(k):
        out.append([sum(map(mul, row, out[-1])) for row in m])
    return out


def _krylov(h: tuple, g: tuple, c, v: tuple) -> tuple:
    """v, hv, ..., h^D v, the local minimal polynomial of v (primitive,
    dense, degree D), w, Gw, ..., G^(D-1) w and alpha, off integers (H, d_h),
    h = H / d_h, and (G, d), G = d h (g is h) or d (c - h)^-1.  For
    v = (w, d_v), w, Gw, ..., G^n w have pivots the first D and column D
    gives alpha(G) w = sum alpha_i G^i w = 0, monic and integral as G is,
    so sum alpha_i d^i h^i v = 0, or, times (c - h)^D, sum alpha_i d^i
    (c - h)^(D-i) v = 0: degree D as alpha_0 != 0, and no lower degree, G
    and h having the same invariant subspaces.  h^k v is the reduced pair
    of (H^k w, d_h^k d_v)."""
    w, d_v = v
    gs = _powers(g[0], w, len(w))
    red, piv, minor = matrix._gauss_jordan(list(zip(*gs)))
    top, rel, d = len(piv), dict(zip(piv, red)), g[1]
    alpha = [-rel[i][top] // minor for i in range(top)] + [1]
    a, hs = [x * d**i for i, x in enumerate(alpha)], gs
    if g is not h:
        hs, a = _powers(h[0], w, top), polys.compose(a[::-1], c, -1)
    return ([matrix._reduced(hs[k], h[1]**k * d_v) for k in range(top + 1)],
            polys.primitive(a), gs[:top], alpha)


def _coprime_part(a: list, b: list) -> list:
    """a with every irreducible factor it shares with b divided out."""
    g = polys.gcd(a, b)
    while len(g) > 1:
        a = polys.divmod_poly(a, g)[0]
        g = polys.gcd(a, g)
    return a


def _frobenius(h: tuple, e_r: tuple | None = None, c=1) -> list:
    """Rational canonical decomposition of h = H / d_h: (Krylov vectors of
    g_i, d_i), d_1 | ... | d_r, vectors as reduced pairs and each d_i
    primitive on integers, as `LaurentModule.chain` keeps it, every other
    step on `_krylov`'s integer generator G: E for e|R = (E, d_e) when
    given (P mode), certified as (c d_h - H) E = d_h d_e I, and H
    otherwise.  On the h-invariant V = span(span), gcd splitting merges the
    spanning vectors into w with the minimal polynomial mu of h on V: if
    lcm(mu, nu) = a b, a | mu and b | nu coprime, then (mu/a)(h) w +
    (nu/b)(h) u, mu/a and nu/b monic, has it, built on integers over
    lc(mu/a) lc(nu/b); if w's relation alpha(G), a unit times mu(h), kills
    u, then nu | mu and u is skipped.  C = <w> splits off with
    W = {x in V : phi G^j x = 0, j < D}, G-invariant as alpha(G) = 0 on V,
    phi = (1, k, ..., k^(n-1)) for the first k >= 0 that makes T = Phi U^T
    nonsingular, rows phi G^j of Phi and G^j w of U (Wiedemann 1986), and
    x - U^T T^-1 Phi x projects onto C along W.  phi fails only if it is a
    non-unit of Q[y]/(alpha) on C, in one of at most D proper subspaces
    that the curve meets n - 1 times at most: k <= (n - 1) D.
    """
    n, gen = len(h[0]), h if e_r is None else e_r
    check(e_r is None or matrix._imul(matrix._shift(h[0], c * h[1]), e_r[0])
          == Matrix.identity(n, h[1] * e_r[1]).rows,
          "h is not c - (e|R)^-1")
    span, dim, blocks = [(r, 1) for r in Matrix.identity(n, 1).rows], n, []
    while dim:
        vecs, mu, us, alpha = _krylov(h, gen, c, span[0])
        for u in span[1:]:
            if len(us) == dim:
                break
            gu = _powers(gen[0], u[0], len(us))
            if any(sum(map(mul, alpha, x)) for x in zip(*gu)):
                powers, nu = _krylov(h, gen, c, u)[:2]
                # keep = mu / a and cut = nu / b applied to h
                keep = _coprime_part(mu, polys.divmod_poly(
                    mu, polys.gcd(mu, nu))[0])
                cut = polys.divmod_poly(nu, _coprime_part(
                    nu, polys.divmod_poly(mu, keep)[0]))[0]
                vecs, mu, us, alpha = _krylov(h, gen, c, matrix._combination(
                    [x * cut[-1] for x in keep] + [x * keep[-1] for x in cut],
                    keep[-1] * cut[-1], vecs[:len(keep)] + powers[:len(cut)]))
        deg = len(us)
        blocks.insert(0, (vecs[:deg], mu))
        dim -= deg
        if dim:
            u_t, (xs, ds) = list(zip(*us)), zip(*span)
            for k in range((n - 1) * deg + 1):
                rows = _powers(list(zip(*gen[0])), [k**i for i in range(n)],
                               deg - 1)
                try:
                    z, s = matrix._solve(matrix._imul(rows, u_t),
                                         matrix._imul(rows, list(zip(*xs))))
                    break
                except SingularMatrix:
                    continue
            else:
                raise InvariantViolated("no covector cuts out a complement")
            cols = zip(*matrix._imul(u_t, z))
            span = [matrix._reduced(x, s * d) for x, d in (
                ([s * p - q for p, q in zip(x, col)], d)
                for x, d, col in zip(xs, ds, cols)) if any(x)]
    return blocks


def _pencil_reduction(e: tuple, c=1) -> tuple:
    """The pencil (z - c) e + 1 over Q[z, z^-1], e = E / d.  On
    ker (e(1 - ce))^n it is unimodular (e or 1 - ce is nilpotent there,
    the other invertible), so that part dies in its cokernel; on
    R = im (e(1 - ce))^n it is e(z - h) with h = c - (e|R)^-1 invertible.
    One `_gauss_jordan` of each integer power F = (E(d - cE))^k gives its
    rank and the rref of F^T, whose rows span R.  Returns R's basis b
    (columns; None for the identity, as when F has full rank and its
    pivots come in order), h and e|R as reduced pairs, with no rows when
    R = 0; e|R, with e b = b e|R, read off b's unit rows, generates h.
    Full rank with pivots out of order gives b = (P, 1), P a permutation."""
    big_e, d = e = matrix._reduced_rows(*e)
    n = len(big_e)
    power = matrix._imul(big_e, matrix._shift(big_e, d, c))
    basis, sel, minor = matrix._gauss_jordan(list(zip(*power)))
    while 0 < len(sel) < n:
        power = matrix._imul(power, power)
        square = matrix._gauss_jordan(list(zip(*power)))
        if len(square[1]) == len(sel):
            break
        basis, sel, minor = square
    b = None
    if sel != list(range(n)):
        # R's basis vectors are 1 at their own index of sel and 0 at the
        # others: b = basis^T / minor, and e|R = (E b)[sel] / d
        b = matrix._reduced_rows(list(zip(*basis)), minor)
        eb = matrix._imul(big_e, b[0])
        e = matrix._reduced_rows([eb[s] for s in sel], d * b[1])
    # h = c - d_e E^-1 = E^-1 (c E - d_e)
    return b, matrix._solve(e[0], matrix._shift(e[0], -e[1], -c)), e


def decompose_module(presentation, torsion_mode: str = "Q") -> LaurentModule:
    """Elementary divisors of the module an n x n presentation A presents,
    by linear algebra over Q.  Scaling each row by a unit c z^k makes
    A = A_0 + ... + A_d z^d with integer A_i; the block companion pencil
    z B - C, B = diag(1, ..., 1, A_d) and C shifting block j + 1 into
    block j above a last block row (-A_0, ..., -A_{d-1}), presents the same
    module (d = 0 counts as d = 1 with A_1 = 0, so B = 0).  det(z B - C)
    has degree at most N = n d, so if none of c = 0, ..., N makes c B - C
    invertible, A is singular.  Otherwise z B - C = (c B - C)((z - c) E + 1)
    with E = (c B - C)^-1 B, so the module is Q^m with z acting as the h of
    `_pencil_reduction`, and the invariant factors of h are the divisors.
    P mode additionally demands every divisor be invertible at z = 1, the
    condition that makes 1 - z act invertibly on the module.  The cost is
    cubic in N, so a presentation of high degree d is far slower here than
    by Euclid over Q[z, z^-1].  The module keeps the chain, not A."""
    if torsion_mode not in ("P", "Q"):
        raise ValueError("torsion_mode must be 'P' or 'Q'")
    rows = presentation.rows if isinstance(presentation, Matrix) else presentation
    m = [[_as_laurent(x) for x in row] for row in rows]
    n = len(m)
    if any(len(row) != n for row in m):
        raise ValueError("presentation must be square")
    low = [min((k for x in row for k in x.coeffs), default=0) for row in m]
    d = max([1] + [k - lo for row, lo in zip(m, low)
                   for x in row for k in x.coeffs])
    scaled = [matrix._integral([x.coefficient(lo + k) for k in range(d + 1)
                                for x in row])[0]
              for row, lo in zip(m, low)]
    # row i < n (d - 1) of B is the unit row e_i, of C e_(i + n)
    unit = Matrix.identity(n * d, 1).rows
    big_b = unit[:n * (d - 1)] + [[0] * (n * d - n) + r[n * d:] for r in scaled]
    big_c = unit[n:] + [[-x for x in r[:n * d]] for r in scaled]
    for c in range(n * d + 1):
        try:
            e = matrix._solve([[c * x - y for x, y in zip(*r)]
                               for r in zip(big_b, big_c)], big_b)
        except SingularMatrix:
            continue
        break
    else:
        raise NotTorsion("presentation is singular over the fraction field")
    _, h, e_r = _pencil_reduction(e, c)
    chain = [mu for _, mu in _frobenius(h, e_r, c)]
    if torsion_mode == "P":
        for mu in chain:
            if sum(mu) == 0:
                raise NotPTorsion(f"divisor {mu} vanishes at z = 1")
    return LaurentModule(chain, None, torsion_mode)


def level_multiplicities(module: LaurentModule, p: list) -> dict[int, int]:
    """How many divisors carry each positive p-adic valuation, for the
    primitive factor p (`LaurentModule._split`)."""
    levels = [v for v, _ in module._split(p)[1].values()]
    return {v: levels.count(v) for v in sorted(set(levels))}


# ---------------------------------------------------------------------------
# linking forms
# ---------------------------------------------------------------------------

class LaurentLinkingForm:
    """Epsilon-symmetric linking form on a Laurent torsion module, stored as
    integer numerators in the divisor basis: num[i][j] is a reduced pair
    (N, d), N dense from degree 0, and lambda_ij = N / (d M_j*) modulo
    Q[z, z^-1], M_j* = z^D M_j(1/z) the chain's M_j reversed.  Every
    linking form has such numerators: lambda is conjugate-linear in its
    second argument and M_j g_j = 0, so M_j* lambda_ij is a Laurent
    polynomial, with no negative power modulo M_j* as M_j*(0) != 0.
    Construction checks only epsilon and the shape: `seifert._covering_form`
    certifies the covering forms over Q, and the tests check forms over
    Q(z) with `covering_oracle.validate_over_qz`."""

    def __init__(self, module: LaurentModule, num: list, epsilon: int):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        r = module.rank
        if len(num) != r or any(len(row) != r for row in num):
            raise ValueError("pairing shape does not match the divisor count")
        self.module = module
        self.num = num
        self.epsilon = epsilon


# ---------------------------------------------------------------------------
# auxiliary hermitian forms
# ---------------------------------------------------------------------------

class AuxiliaryHermitian(namedtuple(
        "AuxiliaryHermitian", "field gram symmetry unit", defaults=(None,))):
    """field: the `ResidueField`; gram: the form's rows, lists of its
    `ResidueElem`s; symmetry: +1 after normalization, -1 only for a skew
    real residue; unit: the normalizing unit as a `ResidueElem`, when one
    is used."""

    __slots__ = ()

    @property
    def rank(self) -> int:
        return len(self.gram)


def _hilbert90_unit(field: ResidueField, v):
    """u with v = u / bar(u): u = c0 + v bar(c0) works for the first probe
    c0 making it nonzero."""
    gen = field.gen()
    # the powers are built only if the first probes fail, which is rare
    probes = chain((field.one(), gen, field.one() + gen),
                   (gen ** k for k in range(2, field.degree + 1)))
    u = next((u for u in (c0 + v * c0.bar() for c0 in probes)
              if not u.is_zero()), None)
    check(u is not None, "no nonzero Hilbert-90 probe; involution broken")
    return u


def auxiliary_hermitian(form: LaurentLinkingForm, p: list,
                        l: int) -> AuxiliaryHermitian:
    """Level-l auxiliary form at a self-conjugate irreducible factor p, its
    primitive integer list (`LaurentModule._split`): on the
    divisor classes of exact p-valuation l, the residue of p^l lambda(u_i,
    u_j) mod p, normalized to a hermitian form by a Hilbert-90 unit;
    `hermitian_signature_at_root` refuses it unless hermitian and
    nonsingular; a skew one is checked where its rank is read.

    The entry is read off the numerators without a product over Q(z).
    With P = u bar(P), u = s z^n, s = sign P(0), M_i = P^l C_i and
    D_j = deg M_j, M_j* = z^(D_j) bar(P)^l bar(C_j), so for num_ij = (N, d)
    the level's entry p^l lambda(cof_i g_i, cof_j g_j), p = P / lc(P) and
    cof_i = C_i / lc(C_i), is N C_i u^l z^(-D_j) / (d lc(M_j) lc(C_i)): one
    integer product N C_i over s^l d lc(M_j) lc(C_i), shifted by
    n l - D_j = -deg C_j and reduced once.  Another representative
    N / d + k M_j* moves it by k p^l cof_i bar(cof_j), 0 mod p as l >= 1."""
    prim, split = form.module._split(p)
    field = ResidueField(prim)
    if not field.self_conjugate:
        raise NotSelfConjugate(
            "factor pairs with its conjugate; the pair contributes "
            "hyperbolically and carries no auxiliary form")
    if l < 1:
        raise ValueError("level must be >= 1")
    n, unit = field.degree, (1 if prim[0] > 0 else -1) ** l  # s = sign P(0)
    cofs = {i: cof for i, (v, cof) in split.items() if v == l}

    def entry(i, j):  # n l - D_j = -deg C_j
        (num, den), lc_j = form.num[i][j], form.module.chain[j][-1]
        return field.element(polys.mul(num, cofs[i]),
                             unit * den * lc_j * cofs[i][-1], 1 - len(cofs[j]))

    gram0 = [[entry(i, j) for j in cofs] for i in cofs]
    v = field.element([form.epsilon * unit], 1, n * l)
    if n == 1:
        return AuxiliaryHermitian(field, gram0, 1 if v == field.one() else -1)
    u = _hilbert90_unit(field, v)
    ubar = u.bar()
    return AuxiliaryHermitian(
        field, [[ubar * x for x in row] for row in gram0], 1, u)


# ---------------------------------------------------------------------------
# multisignature
# ---------------------------------------------------------------------------

class DWMultiSignatureLaurent:
    """Association (factor, certified root, level) -> signature of the real
    form, plus rank-only entries where the auxiliary is skew over a real
    residue field and notes for conjugate factor pairs."""

    def __init__(self, signatures=None, roots=None, rank_only=None,
                 conjugate_pairs=None):
        self.signatures = dict(signatures or {})
        self.roots = dict(roots or {})
        self.rank_only = dict(rank_only or {})
        self.conjugate_pairs = list(conjugate_pairs or [])

    @property
    def all_zero(self) -> bool:
        return all(s == 0 for s in self.signatures.values())

    @property
    def is_metabolic(self) -> bool:
        """Zero in the single Witt group: every odd-level sum vanishes."""
        return not any(witt_forgetful_laurent(self).values())

    def entries(self):
        return sorted(self.signatures.items())

    def theta(self, key: tuple, root_index: int) -> CertifiedRoot:
        return self.roots[(key, root_index)]

    def __add__(self, other: "DWMultiSignatureLaurent"):
        sigs, ranks = dict(self.signatures), dict(self.rank_only)
        for out, theirs in ((sigs, other.signatures), (ranks, other.rank_only)):
            for k, s in theirs.items():
                out[k] = out.get(k, 0) + s
        roots = {**self.roots, **other.roots}
        pairs = list(self.conjugate_pairs)
        for pr in other.conjugate_pairs:
            if pr not in pairs:
                pairs.append(pr)
        return DWMultiSignatureLaurent(sigs, roots, ranks, pairs)

    def __neg__(self):
        return DWMultiSignatureLaurent(
            {k: -s for k, s in self.signatures.items()},
            self.roots, dict(self.rank_only), list(self.conjugate_pairs))

    def __eq__(self, other):
        return (
            isinstance(other, DWMultiSignatureLaurent)
            and self.signatures == other.signatures
            and self.rank_only == other.rank_only
        )

    def __repr__(self):
        inner = ", ".join(
            f"(deg {len(k[0]) - 1} factor, root {k[1]}, l={k[2]}): {s:+d}"
            for k, s in self.entries()
        )
        return f"DWMultiSignatureLaurent({{{inner}}})"


def _phase_signs(u, shift: int, roots: list, epsilon: int) -> list[int]:
    """Certified sign, at each root, of w = u(e^{i theta}) e^{-i shift theta}
    (epsilon +1, where w is real) or of w / i (epsilon -1, where w is purely
    imaginary): there the real part of w (e^{-i theta} - e^{i theta}) =
    -2i sin(theta) w is read instead, which has the sign of w / i since
    sin theta > 0.  u = N / d, d > 0, is read as N."""
    num, offset = list(u.num), -shift
    if epsilon == -1:  # times z^-1 - z = z^-1 (1 - z^2)
        num, offset = polys.mul(num, [1, 0, -1]), offset - 1
    g = polys.cos_poly(num, offset)
    signs = [root.sign_of(g) for root in roots]
    check(all(signs), "normalizing unit vanished at a root")
    return signs


def dw_multisignature_laurent(
    form: LaurentLinkingForm,
    precision: Fraction = DEFAULT_PRECISION,
) -> DWMultiSignatureLaurent:
    """Signature of the normalized auxiliary form at every unit-circle root
    of every self-conjugate factor, at every occupied level; each factor is
    read once (`LaurentModule._split`)."""
    module = form.module
    out = DWMultiSignatureLaurent()
    keys = module.factor_keys
    for p, _mult in module.factors:
        pk = keys[tuple(p)]
        if not polys.self_conjugate(p):
            bar = tuple(polys.primitive(p[::-1]))  # bar(p) | the order
            pair = tuple(sorted((pk, keys.get(bar) or factor_key(bar))))
            if pair not in out.conjugate_pairs:
                out.conjugate_pairs.append(pair)
            continue
        deg = len(p) - 1
        roots = unit_circle_roots(p, precision)
        if not roots:
            continue
        for ridx, root in enumerate(roots):
            out.roots[(pk, ridx)] = root
        for l in level_multiplicities(module, p):
            aux = auxiliary_hermitian(form, p, l)
            if aux.symmetry != 1:  # z = +-1: a skew form over Q
                if not Matrix([[Fraction(sum(x.num), x.den) for x in row]
                               for row in aux.gram]).det():
                    raise SingularForm("auxiliary form is singular")
                out.rank_only[(pk, l)] = aux.rank
                continue
            sigs = hermitian_signature_at_root(aux.gram, roots)
            if deg == 1:
                out.signatures[(pk, 0, l)] = SIGMA_SIGN * sigs[0]
                continue
            flips = _phase_signs(aux.unit, deg // 2 * l, roots, form.epsilon)
            for ridx, (root, sig, flip) in enumerate(zip(roots, sigs, flips)):
                orient = 1
                if l % 2:
                    # localizing p^l at this root's real quadratic rescales
                    # the level form by prod (y0 - y_other)^l = g'(y0)^l
                    orient = root.sign_of(polys.derivative(root.y_poly))
                    check(orient != 0,
                          "square factor leaked into the root data")
                out.signatures[(pk, ridx, l)] = (
                    SIGMA_SIGN * flip * orient * 2 * sig)
    return out


def witt_forgetful_laurent(ms: DWMultiSignatureLaurent) -> dict:
    """Odd-level sums per (factor, root): the single Witt-group image whose
    vanishing is the slice-type necessary condition."""
    out: dict = {}
    for (pk, ridx, l), s in ms.signatures.items():
        key = (pk, ridx)
        out.setdefault(key, 0)
        if l % 2 == 1:
            out[key] += s
    return out
