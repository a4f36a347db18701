"""Linking forms over the rational Laurent polynomial ring.

A torsion module is presented by a square matrix with nonzero determinant
and normalized to its elementary divisor chain d_1 | ... | d_r.  No Euclid
over Q[z, z^-1] finds the chain: every module here is a Q-space with z
acting as an automorphism h (Trotter's reduction of a pencil
(z - c) E + 1, reached from any presentation through its block companion
pencil), and the rational canonical decomposition of h over Q gives the
divisors, the same routine the covering functors use.  For each
self-conjugate irreducible factor p and level l the pairing induces a
hermitian form over Q[z]/(p); its signatures at the unit-circle roots of p
assemble into the multisignature.  Conjugate factor pairs and factors with
no unit-circle roots contribute hyperbolically and carry no signature.

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

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import chain
from operator import mul

from wittkit.errors import (
    NotPTorsion,
    NotSelfConjugate,
    NotTorsion,
    SingularForm,
    SingularMatrix,
    check,
)
from wittkit.exact import matrix, polys
from wittkit.exact.factor import factor_rational_poly
from wittkit.exact.laurent import LaurentPoly, is_self_conjugate
from wittkit.exact.matrix import Matrix, _products
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


def _monic_ordinary(p: LaurentPoly) -> LaurentPoly:
    """Strip the z-power unit and rescale to a monic ordinary polynomial."""
    dense, _ = p.ordinary()
    lead = dense[-1]
    return LaurentPoly.from_dense([c / lead for c in dense])


def _dense(p: LaurentPoly) -> list:
    dense, off = p.ordinary()
    if off != 0:
        raise ValueError("expected an ordinary polynomial")
    return dense


def _valuation(d: LaurentPoly, p: LaurentPoly) -> int:
    num = _dense(_monic_ordinary(d))
    div = _dense(_monic_ordinary(p))
    count = 0
    while len(num) >= len(div):
        q, r = polys.divmod_poly(num, div)
        if r:
            break
        num = q if q else [Fraction(0)]
        count += 1
        if num == [Fraction(1)] or len(num) == 1:
            break
    return count


def _factor_key(p: LaurentPoly) -> tuple:
    return tuple(_dense(_monic_ordinary(p)))


# ---------------------------------------------------------------------------
# modules
# ---------------------------------------------------------------------------

@dataclass
class LaurentModule:
    """Torsion module (+) A/(d_i) with its elementary divisor chain (units
    dropped, each d_i monic ordinary with nonzero constant term).

    A covering module is a Q-space V with z acting as an automorphism h;
    basis_change is then the Q-basis P of V, columns h^a g_i (a < deg d_i)
    in the coordinates of the form's space (Q^n, or Q^n around Trotter's
    part R for a Seifert form), which traces generators back to the form.
    It is None for other modules.  No presentation over Q[z, z^-1] is
    kept: V and h are the module."""

    divisors: list
    basis_change: Matrix | None
    torsion_mode: str

    @property
    def rank(self) -> int:
        return len(self.divisors)

    @property
    def is_zero(self) -> bool:
        return not self.divisors

    def total_divisor(self) -> LaurentPoly:
        out = LaurentPoly.one()
        for d in self.divisors:
            out = out * d
        return out

    @cached_property
    def factors(self) -> list:
        """Monic irreducible factors of the order, with multiplicities."""
        return factor_rational_poly(self.total_divisor())[1]


def _apply(a: list, x: list) -> list:
    return [row[0] for row in _products(a, [x])]


def _powers(m: list, w: list, k: int) -> list:
    """w, m w, ..., m^k w for an integer matrix m and vector w."""
    out = [w]
    for _ in range(k):
        out.append([sum(map(mul, row, out[-1])) for row in m])
    return out


def _krylov(h: tuple, g: tuple, c, v: list) -> tuple[list, list]:
    """v, hv, ..., h^D v and the local minimal polynomial of v (monic,
    dense, degree D), off integers (H, d_h), h = H / d_h, and (G, d),
    G = d h (g is h) or d (c - h)^-1.  For v = w / d_v, w, Gw, ..., G^n w
    have pivots the first D and column D gives sum a_i G^i w = 0, so
    sum a_i d^i h^i v = 0, or, times (c - h)^D, sum a_i d^i (c - h)^(D-i)
    v = 0: degree D as a_0 != 0, and no lower degree, G and h having the
    same invariant subspaces.  h's vectors are H^k w / (d_h^k d_v)."""
    w, d_v = matrix._integral(v)
    gs = _powers(g[0], w, len(v))
    red, piv, minor = matrix._gauss_jordan(list(zip(*gs)))
    top, rel, d = len(piv), dict(zip(piv, red)), g[1]
    a = [-rel[i][top] * d**i for i in range(top)] + [minor * d**top]
    hs = gs
    if g is not h:
        hs, p = _powers(h[0], w, top), [a[0]]
        for b in a[1:]:  # Horner in c - z
            p = [c * p[0] + b] + [c * x - y for x, y in zip(p[1:] + [0], p)]
        a = p
    return ([[Fraction(x, h[1]**k * d_v) for x in hs[k]]
             for k in range(top + 1)], [Fraction(x, a[-1]) for x in a])


def _coprime_part(a: list, b: list) -> list:
    """a with every irreducible factor it shares with b divided out."""
    g = polys.gcd(a, b)
    while len(g) > 1:
        a = polys.divmod_poly(a, g)[0]
        g = polys.gcd(a, g)
    return a


def _frobenius(h: tuple, e_r: tuple | None = None, c=1) -> list:
    """Rational canonical decomposition of h = H / d_h: (Krylov vectors of
    g_i, d_i), d_1 | ... | d_r.  On the h-invariant V = span(span), gcd
    splitting merges the spanning vectors into w with the minimal
    polynomial mu of h on V: if lcm(mu, nu) = a b, a | mu and b | nu
    coprime, then (mu/a)(h) w + (nu/b)(h) u has it.  C = <w> splits off
    with the complement W = {x : phi(h^k x) = 0, k < D}, phi dual to
    h^(D-1) w on C's Krylov basis (the one use of h as Fractions).  Each mu
    comes from `_krylov`'s generator, e|R = (E, d_e) when given (P mode),
    certified as (c d_h - H) E = d_h d_e I, and H otherwise."""
    ident, gen = Matrix.identity(len(h[0])), h if e_r is None else e_r
    check(e_r is None or matrix._imul(matrix._shift(h[0], c * h[1]), e_r[0])
          == Matrix.identity(ident.nrows, h[1] * e_r[1]).rows,
          "h is not c - (e|R)^-1")
    span, dim, blocks = ident.rows, ident.nrows, []
    while dim:
        vecs, mu = _krylov(h, gen, c, span[0])
        for u in span[1:]:
            if len(mu) - 1 == dim:
                break
            powers, nu = _krylov(h, gen, c, u)
            if polys.mod(mu, nu):
                # keep = mu / a and cut = nu / b applied to h
                keep = _coprime_part(mu, polys.divmod_poly(
                    mu, polys.gcd(mu, nu))[0])
                cut = polys.divmod_poly(nu, _coprime_part(
                    nu, polys.divmod_poly(mu, keep)[0]))[0]
                vecs, mu = _krylov(h, gen, c, [x + y for x, y in zip(
                    _apply(list(zip(*vecs)), keep),
                    _apply(list(zip(*powers)), cut))])
        vecs = vecs[:len(mu) - 1]
        blocks.insert(0, (vecs, mu))
        dim -= len(vecs)
        if dim:
            h_t = [[Fraction(x, h[1]) for x in r] for r in zip(*h[0])]
            k = Matrix(vecs)
            rows = [((k * k.transpose()).inverse() * k).rows[-1]]
            for _ in vecs[1:]:
                rows.append(_apply(h_t, rows[-1]))
            k, phi = k.transpose(), Matrix(rows)
            proj = ident - k * (phi * k).inverse() * phi
            span = [x for x in (Matrix(span) * proj.transpose()).rows
                    if any(x)]
    return blocks


def _pencil_reduction(e: tuple, c=1) -> tuple:
    """The pencil (z - c) e + 1 over Q[z, z^-1], e = E / d.  On
    ker (e(1 - ce))^n it is unimodular (e or 1 - ce is nilpotent there,
    the other invertible), so that part dies in its cokernel; on
    R = im (e(1 - ce))^n it is e(z - h) with h = c - (e|R)^-1 invertible.
    One `_gauss_jordan` of each integer power F = (E(d - cE))^k gives its
    rank and the rref of F^T, whose rows span R.  Returns R's basis b
    (columns; None for the identity, as when F has full rank and its
    pivots come in order), h and e|R as integer pairs, with no rows when
    R = 0; e|R, with e b = b e|R, read off b's unit rows, generates h."""
    (big_e, d), n = e, len(e[0])
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
        # others: e b = E basis^T / (d minor), and e|R its rows sel
        b = Matrix([[Fraction(x, minor) for x in r] for r in zip(*basis)])
        eb = matrix._imul(big_e, list(zip(*basis)))
        e = [[minor * x for x in eb[s]] for s in sel], d * minor * minor
    # h = c - d_e E^-1 = E^-1 (c E - d_e)
    return b, matrix._solve(e[0], matrix._shift(e[0], -e[1], -c)), e


def decompose_module(presentation, torsion_mode: str = "Q") -> LaurentModule:
    """Elementary divisors of the module an n x n presentation A presents,
    by linear algebra over Q.  Scaling each row by a z-power unit makes
    A = A_0 + ... + A_d z^d; the block companion pencil z B - C, with
    B = diag(1, ..., 1, A_d) and C shifting block j + 1 into block j above
    a last block row (-A_0, ..., -A_{d-1}), presents the same module
    (d = 0 counts as d = 1 with A_1 = 0, so B = 0).  det(z B - C) has
    degree at most N = n d, so if none of c = 0, ..., N makes c B - C
    invertible, A is singular.  Otherwise z B - C = (c B - C)((z - c) E + 1)
    with E = (c B - C)^-1 B, so the module is Q^m with z acting as the h of
    `_pencil_reduction`, and the invariant factors of h are the divisors.
    P mode additionally demands every divisor be invertible at z = 1, the
    condition that makes 1 - z act invertibly on the module.  The cost is
    cubic in N, so a presentation of high degree d is far slower here than
    by Euclid over Q[z, z^-1].  The module keeps the divisors, not A."""
    if torsion_mode not in ("P", "Q"):
        raise ValueError("torsion_mode must be 'P' or 'Q'")
    rows = presentation.rows if isinstance(presentation, Matrix) else presentation
    m = Matrix([[_as_laurent(x) for x in row] for row in rows])
    if m.nrows != m.ncols:
        raise ValueError("presentation must be square")
    n = m.nrows
    low = [min((k for x in row for k in x.coeffs), default=0) for row in m.rows]
    d = max([1] + [k - lo for row, lo in zip(m.rows, low)
                   for x in row for k in x.coeffs])
    coeffs = [Matrix([[x.coefficient(lo + k) for x in row]
                      for row, lo in zip(m.rows, low)]) for k in range(d + 1)]
    big_b = Matrix.block_diag([Matrix.identity(n)] * (d - 1) + [coeffs[d]])
    # row i < n (d - 1) of C is the unit row e_(i + n)
    big_c = Matrix(
        [[Fraction(int(j == i + n)) for j in range(n * d)]
         for i in range(n * (d - 1))]
        + [[-x for a in coeffs[:d] for x in a.rows[r]] for r in range(n)])
    for c in range(n * d + 1):
        try:
            e = matrix._solve((big_b.scale(c) - big_c).rows, big_b.rows)
        except SingularMatrix:
            continue
        break
    else:
        raise NotTorsion("presentation is singular over the fraction field")
    _, h, e_r = _pencil_reduction(e, c)
    divisors = [LaurentPoly.from_dense(mu) for _, mu in _frobenius(h, e_r, c)]
    if torsion_mode == "P":
        for div in divisors:
            if div(1) == 0:
                raise NotPTorsion(f"divisor {div!r} vanishes at z = 1")
    return LaurentModule(divisors, None, torsion_mode)


def level_multiplicities(module: LaurentModule, p) -> dict[int, int]:
    """How many divisors carry each positive p-adic valuation."""
    p = _monic_ordinary(_as_laurent(p))
    out: dict[int, int] = {}
    for d in module.divisors:
        v = _valuation(d, p)
        if v:
            out[v] = out.get(v, 0) + 1
    return dict(sorted(out.items()))


# ---------------------------------------------------------------------------
# linking forms
# ---------------------------------------------------------------------------

class LaurentLinkingForm:
    """Epsilon-symmetric linking form on a Laurent torsion module, stored as
    numerators in the divisor basis: lambda_ij = num_ij / d_j* modulo
    Q[z, z^-1], with num_ij a `LaurentPoly` and d_j* = z^D d_j(1/z),
    D = deg d_j, the conjugate divisor.  Every linking form has such
    numerators: lambda is conjugate-linear in its second argument and
    d_j g_j = 0, so bar(d_j) lambda_ij, and with it d_j* lambda_ij, is a
    Laurent polynomial.  Construction checks only epsilon and the shape:
    `seifert._covering_form` certifies the covering forms over Q, and the
    tests check forms over Q(z) with `covering_oracle.validate_over_qz`."""

    def __init__(self, module: LaurentModule, num, epsilon: int):
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        rows = num.rows if isinstance(num, Matrix) else num
        r = module.rank
        if len(rows) != r or any(len(row) != r for row in rows):
            raise ValueError("pairing shape does not match the divisor count")
        self.module = module
        self.num = Matrix(rows)
        self.epsilon = epsilon


# ---------------------------------------------------------------------------
# auxiliary hermitian forms
# ---------------------------------------------------------------------------

@dataclass
class AuxiliaryHermitian:
    factor: LaurentPoly
    level: int
    field: ResidueField
    gram: Matrix  # ResidueElem entries
    symmetry: int  # +1 after normalization; -1 only for skew real residue
    unit: object = None  # normalizing unit as a ResidueElem, when one is used

    @property
    def rank(self) -> int:
        return self.gram.nrows


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


def auxiliary_hermitian(form: LaurentLinkingForm, p, l: int) -> AuxiliaryHermitian:
    """Level-l auxiliary form at a self-conjugate irreducible factor: on the
    divisor classes of exact p-valuation l, the residue of p^l lambda(u_i,
    u_j) mod p, normalized to a hermitian form by a Hilbert-90 unit;
    `hermitian_signature_at_root` refuses it unless hermitian and
    nonsingular; a skew one is checked where its rank is read.

    The entry is read off the numerators without a product over Q(z).
    With p = u bar(p) (u = +-z^k from `is_self_conjugate`), d_i = p^l cof_i
    and D_j = deg d_j, d_j* = z^(D_j) bar(d_j) = z^(D_j) bar(p)^l bar(cof_j),
    so the level's entry p^l lambda(cof_i g_i, cof_j g_j) is
    p^l cof_i bar(cof_j) num_ij / d_j* = num_ij cof_i u^l z^(-D_j), a
    Laurent polynomial.  It does not depend on the representative:
    num_ij + k d_j* changes it by k cof_i u^l bar(d_j) =
    k cof_i p^l bar(cof_j), which is 0 mod p since l >= 1."""
    p = _monic_ordinary(_as_laurent(p))
    unit_p = is_self_conjugate(p)
    if unit_p is None:
        raise NotSelfConjugate(
            "factor pairs with its conjugate; the pair contributes "
            "hyperbolically and carries no auxiliary form")
    if l < 1:
        raise ValueError("level must be >= 1")
    module = form.module
    field = ResidueField(_dense(p))
    idx = [i for i, d in enumerate(module.divisors) if _valuation(d, p) == l]

    p_pow, unit_l = _dense(p**l), unit_p**l
    row, shift = {}, {}  # cof_i u^l and -D_i
    for i in idx:
        dense_d = _dense(module.divisors[i])
        q, r = polys.divmod_poly(dense_d, p_pow)
        check(not r, "valuation bookkeeping broke")
        row[i] = LaurentPoly.from_dense(q) * unit_l
        shift[i] = 1 - len(dense_d)
    gram0 = Matrix([[field.from_laurent((form.num[i, j] * row[i]).shift(
        shift[j])) for j in idx] for i in idx])

    v = field.from_laurent(unit_l)
    if form.epsilon == -1:
        v = -v
    if field.degree == 1:
        sym = 1 if v == field.one() else -1
        aux = AuxiliaryHermitian(p, l, field, gram0, sym, None)
    else:
        u = _hilbert90_unit(field, v)
        ubar = u.bar()
        aux = AuxiliaryHermitian(p, l, field, gram0.map(lambda x: ubar * x),
                                 1, u)
    return aux


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

    def get(self, factor, root_index: int, level: int):
        key = (_factor_key(_as_laurent(factor)), root_index, level)
        return self.signatures.get(key)

    def theta(self, factor, root_index: int) -> CertifiedRoot:
        key = factor if isinstance(factor, tuple) \
            else _factor_key(_as_laurent(factor))
        return self.roots[(key, root_index)]

    def __add__(self, other: "DWMultiSignatureLaurent"):
        sigs = dict(self.signatures)
        for k, s in other.signatures.items():
            sigs[k] = sigs.get(k, 0) + s
        ranks = dict(self.rank_only)
        for k, s in other.rank_only.items():
            ranks[k] = ranks.get(k, 0) + s
        roots = dict(self.roots)
        roots.update(other.roots)
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


def _phase_sign(u, shift: int, root: CertifiedRoot, epsilon: int) -> int:
    """Certified sign of w = u(e^{i theta}) e^{-i shift theta} (epsilon +1,
    where w is real) or of w / i (epsilon -1, where w is purely imaginary):
    there the real part of w (e^{-i theta} - e^{i theta}) = -2i sin(theta) w
    is read instead, which has the sign of w / i since sin theta > 0."""
    coeffs, offset = list(u.coeffs), -shift
    if epsilon == -1:  # times z^-1 - z = z^-1 (1 - z^2)
        coeffs = polys.mul(coeffs, polys.from_ints([1, 0, -1]))
        offset -= 1
    s = root.sign_of(polys.cos_poly(coeffs, offset))
    check(s != 0, "normalizing unit vanished at a root")
    return s


def dw_multisignature_laurent(
    form: LaurentLinkingForm,
    precision: Fraction = DEFAULT_PRECISION,
) -> DWMultiSignatureLaurent:
    """Signature of the normalized auxiliary form at every unit-circle root
    of every self-conjugate factor, at every occupied level."""
    module = form.module
    out = DWMultiSignatureLaurent()
    seen_pairs = set()
    for p, _mult in module.factors:
        pk = _factor_key(p)
        if is_self_conjugate(p) is None:
            partner = _factor_key(_monic_ordinary(p.bar()))
            pair = tuple(sorted((pk, partner)))
            if pair not in seen_pairs:
                seen_pairs.add(pair)
                out.conjugate_pairs.append(pair)
            continue
        levels = level_multiplicities(module, p)
        deg = len(pk) - 1
        roots = unit_circle_roots(p, precision)
        if not roots:
            continue
        for ridx, root in enumerate(roots):
            out.roots[(pk, ridx)] = root
        for l in levels:
            aux = auxiliary_hermitian(form, p, l)
            if aux.symmetry != 1:  # z = +-1: a skew form over Q
                if not aux.gram.map(lambda x: sum(x.coeffs)).det():
                    raise SingularForm("auxiliary form is singular")
                out.rank_only[(pk, l)] = aux.rank
                continue
            sigs = hermitian_signature_at_root(aux.gram, roots)
            if deg == 1:
                out.signatures[(pk, 0, l)] = SIGMA_SIGN * sigs[0]
                continue
            half = deg // 2
            for ridx, (root, sig) in enumerate(zip(roots, sigs)):
                flip = _phase_sign(aux.unit, half * l, root, form.epsilon)
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
