"""Knot pipeline: Seifert matrix in, obstruction report out.

The report aggregates the Alexander polynomial, the rational Blanchfield
form, its multisignature, certified Levine-Tristram signatures, and the
slice / doubly-slice flags.  Everything is exact; angles on the unit circle
enter as rational turns t (omega = e^{2 pi i t}) so signatures stay
certified, and Levine-Tristram signatures are evaluated over Q, at a
rational u = tan(pi t) between the unit-circle roots of D = det(z psi -
psi^T), which is built and factored, and its roots found, on integer
lists; without such roots no enclosure of 2 cos(2 pi t) is taken.
Vanishing obstructions are reported as "no_obstruction_found", never as a
sliceness certificate, and every report carries that caveat.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from functools import cached_property, lru_cache

from wittkit.errors import (
    MixedSymmetry,
    NotAKnotForm,
    NotSymmetricCase,
    SignatureNotDivisibleBy8,
    SingularAtRoot,
    SingularSeifertForm,
    check,
)
from wittkit.exact import polys
from wittkit.exact.factor import factor_key, factor_rational_poly
from wittkit.exact.matrix import Matrix, _berkowitz
from wittkit.exact.roots import (
    DEFAULT_PRECISION,
    signature_of_int_rows,
    unit_circle_roots,
)
from wittkit.laurent_forms import (
    SIGMA_SIGN,
    LaurentLinkingForm,
    LaurentModule,
    dw_multisignature_laurent,
)
from wittkit.seifert import (
    SeifertForm,
    _seifert_module,
    covering_seifert,
    hyperbolic_witness_sum,
    is_complementary,
    verify_seifert_lagrangian,
)

COMPLETENESS_CAVEAT = (
    "obstructions are evaluated over the real numbers; "
    "'no_obstruction_found' is a necessary-condition report, not a "
    "sliceness certificate"
)
CLASSICAL_CAVEAT = (
    "dimension 1: the algebraic invariants are realized by every class "
    "but do not determine classical concordance"
)


class KnotInput:
    """A knot presented by an integer Seifert matrix.  The symmetrized
    matrix must be unimodular; dimension_hint n = 2k+1, when given, must
    match epsilon = (-1)^(k+1)."""

    def __init__(self, name: str, psi, epsilon: int,
                 dimension_hint: int | None = None):
        self.name = str(name)
        try:
            self.seifert_form = SeifertForm(psi, epsilon, "Z")
        except (SingularSeifertForm, ValueError) as exc:
            raise NotAKnotForm(str(exc))
        self.psi = self.seifert_form.psi
        self.epsilon = epsilon
        if dimension_hint is not None:
            if dimension_hint < 1 or dimension_hint % 2 == 0:
                raise NotAKnotForm("dimension must be a positive odd integer")
            k = (dimension_hint - 1) // 2
            if epsilon != (-1) ** (k + 1):
                raise NotAKnotForm(
                    "epsilon does not match the stated dimension")
        self.dimension_hint = dimension_hint

    @property
    def rank(self) -> int:
        return self.psi.nrows

    @cached_property
    def lt_steps(self) -> SignatureSteps:
        return SignatureSteps(self)


# multisignature is a `DWMultiSignatureLaurent`; rochlin and witnesses (the
# diagonal and twisted-graph submodules) may be None
ObstructionReport = namedtuple("ObstructionReport", (
    "name alexander factorization multisignature slice_obstructed "
    "doubly_slice_obstructed rochlin witnesses notes convention"))


def connected_sum(a: KnotInput, b: KnotInput) -> KnotInput:
    if a.epsilon != b.epsilon:
        raise MixedSymmetry("summands have different symmetry signs")
    psi = Matrix.block_diag([a.psi, b.psi])
    hint = a.dimension_hint if a.dimension_hint == b.dimension_hint else None
    return KnotInput(f"{a.name} # {b.name}", psi.rows, a.epsilon, hint)


def knot_inverse(k: KnotInput) -> KnotInput:
    """Concordance inverse: negated Seifert matrix.  The negated transpose
    is an equivalent choice; every reported invariant agrees on the two."""
    return KnotInput(f"-{k.name}", k.psi.map(lambda x: -x).rows, k.epsilon,
                     k.dimension_hint)


def _det_one_minus(k: KnotInput) -> list:
    """D(z) = det(z psi - psi^T) = det(theta) det((z + eps) e - eps I) up
    to a constant, as det(I - (1 + eps z) e): det(tI - e) reversed at
    t = 1 + eps z (`_berkowitz` on e = theta^-1 psi, integral as theta is
    unimodular), made primitive: as D(-eps) = 1, that fixes the sign."""
    e, d = k.seifert_form.e_pair
    check(d == 1, "e = theta^-1 psi is not integral")
    return polys.primitive(polys.compose(_berkowitz(e)[::-1], 1, k.epsilon))


def _module_order(module: LaurentModule) -> list:
    """The divisors' primitive product: det((1-e) + ez) up to c z^k
    (Trotter's), so it is the Alexander polynomial when |p(1)| = 1."""
    order = module.total_divisor
    check(abs(sum(order)) == 1, "Alexander polynomial is not integral")
    return order


def alexander_polynomial(k: KnotInput) -> list:
    """The Blanchfield module's order, a primitive integer list with
    positive leading coefficient; the pairing is not built."""
    return _module_order(_seifert_module(k.seifert_form))


def blanchfield_form(k: KnotInput) -> LaurentLinkingForm:
    return covering_seifert(k.seifert_form)


def _u_in_y_gap(y_low: Fraction, y_high: Fraction) -> Fraction:
    """A rational u > 0 with y_low < y(u) = 2(1 - u^2)/(1 + u^2) < y_high;
    y(u) = 2 cos(2 pi t) for u = tan(pi t).  u is sqrt((2 - y)/(2 + y)) at
    the gap's midpoint y = m / 2be (y_low = a / b, y_high = c / e), cut to
    the fewest binary digits r / 2^k that land inside, tested on integers:
    a (4^k + r^2) < 2b (4^k - r^2) and 2e (4^k - r^2) < c (4^k + r^2)."""
    check(-2 <= y_low < y_high <= 2, "the y-gap is empty or leaves [-2, 2]")
    (a, b), (c, e) = y_low.as_integer_ratio(), y_high.as_integer_ratio()
    m, whole = a * e + c * b, 4 * b * e
    k = 0
    while True:
        r = math.isqrt((whole - m) * 4**k // (whole + m))
        minus, plus = 4**k - r * r, 4**k + r * r
        if a * plus < 2 * b * minus and 2 * e * minus < c * plus:
            return Fraction(r, 2**k)
        k += 1


def _signature_at_u(psi: list, u: Fraction) -> int:
    """Levine-Tristram signature at u = tan(pi t), 0 < t < 1/2, of the
    integer rows psi.  There (1-omega) psi + (1-conj(omega)) psi^T =
    2 sin(pi t) cos(pi t) (u S + i K) with S = psi + psi^T and
    K = psi^T - psi, so its signature is that of the hermitian n x n
    n_u S + i d_u K (u = n_u / d_u), eliminated over Z[i] on the integer
    rows of its two parts."""
    n, d = u.numerator, u.denominator
    pairs = [list(zip(row, col)) for row, col in zip(psi, zip(*psi))]
    return signature_of_int_rows([[n * (x + y) for x, y in r] for r in pairs],
                                 [[d * (y - x) for x, y in r] for r in pairs])


@lru_cache(maxsize=32)  # bits doubles from 64: one entry per doubling
def _pi(bits: int) -> tuple[int, int]:
    """pi and its error in units of 2^-bits: 16 atan(1/5) - 4 atan(1/239)."""
    one = 1 << bits
    pi = err = 0
    for coeff, x in ((16, 5), (-4, 239)):
        power, k = one // x, 0  # floor(one / x^(2k+1)), exactly
        while power:
            pi += coeff * (-1) ** k * (power // (2 * k + 1))
            power //= x * x
            k += 1
        err += abs(coeff) * (k + 1)
    return pi, err


def _two_cos_bracket(t: Fraction, bits: int) -> tuple[Fraction, Fraction]:
    """Rational lo < 2 cos(2 pi t) < hi for 0 < t < 1/2, in integer fixed
    point with unit 2^-bits: pi by Machin's formula once per precision
    (`_pi`), then cos x, x = 2 pi t <= pi/2, by its Taylor series.  Every
    floor division errs by under one unit and every alternating tail is
    below its first omitted term, so `err` is a few units per bit."""
    n, d, sign = t.numerator, t.denominator, 1
    if 4 * n > d:  # cos(pi - x) = -cos x
        n, d, sign = d - 2 * n, 2 * d, -1
    one = 1 << bits
    pi, err = _pi(bits)
    x = 2 * pi * n // d  # off by < err/2 + 1 units
    total = term = one
    k = 0
    while term:  # each term off by < 3 units (x/one < 1.6)
        k += 1
        term = term * x // one * x // one // ((2 * k - 1) * (2 * k))
        total += (-1) ** k * term
    err += 3 * k + 3
    lo, hi = Fraction(2 * (total - err), one), Fraction(2 * (total + err), one)
    return (lo, hi) if sign == 1 else (-hi, -lo)


class SignatureSteps:
    """The Levine-Tristram signature of one knot as a step function of
    y = 2 cos(2 pi t), built once per `KnotInput` (its `lt_steps`) from
    one factorization of D = `_det_one_minus`, all on integer lists.
    `roots` are the unit-circle roots of D's factors as (key, root_index,
    CertifiedRoot) with disjoint y-brackets, by decreasing y (increasing
    angle), refined only as far as separation needs; gap i lies below i
    of them, and its signature is taken once, at a rational u = tan(pi t)
    inside it.  Without roots, no bracket of y is taken.  `cyclotomic` is
    the set of e with Phi_e | D: a monic integral factor p with all its
    roots on the circle is some Phi_e (Kronecker), and e is the order of
    z mod p, at most 2 (deg p)^2 since phi(e) >= sqrt(e/2)."""

    def __init__(self, k: KnotInput):
        self.psi = k.seifert_form.psi_pair[0]  # d = 1 in Z mode
        self.roots, self.cyclotomic = _circle_roots(_det_one_minus(k))
        self._values, self.turns = {}, {}  # sigma by gap, by (n, d)

    def value(self, gap: int) -> int:
        if gap not in self._values:
            roots = [root for _, _, root in self.roots]
            y_high = roots[gap - 1].lo if gap else Fraction(2)
            y_low = roots[gap].hi if gap < len(roots) else Fraction(-2)
            self._values[gap] = _signature_at_u(self.psi,
                                                _u_in_y_gap(y_low, y_high))
        return self._values[gap]

    def gap_at(self, n: int, d: int) -> int:
        """The gap holding y0 = 2 cos(2 pi n / d), 0 < n / d <= 1/2 in
        lowest terms, when y0 is no root: y0 is exact for n / d in {1/2,
        1/3, 1/4, 1/6}; otherwise its enclosure and the brackets it meets
        narrow until they part."""
        if not self.roots:
            return 0
        exact = {2: -2, 3: -1, 4: 0, 6: 1}.get(d)
        bits = 64
        lo, hi = ((Fraction(exact),) * 2 if exact is not None
                  else _two_cos_bracket(Fraction(n, d), bits))
        while True:
            clash = [root for _, _, root in self.roots
                     if root.lo <= hi and lo <= root.hi]
            if not clash:
                return sum(root.lo > hi for _, _, root in self.roots)
            for root in clash:
                root.refine((root.hi - root.lo) / 2)
            if all(root.hi - root.lo < hi - lo for root in clash):
                bits *= 2
                lo, hi = _two_cos_bracket(Fraction(n, d), bits)


def levine_tristram_signature(k: KnotInput, turn) -> int:
    """Certified signature of (1-omega) psi + (1-conj(omega)) psi^T at
    omega = e^{2 pi i turn}: singular exactly where D = `_det_one_minus`
    vanishes, and otherwise the value of `k.lt_steps` on the gap holding
    y0 = 2 cos(2 pi turn).  omega is a primitive d-th root of unity, a
    root of D exactly when Phi_d is one of D's factors, so the singular
    test is a lookup of d in `k.lt_steps.cyclotomic`.  The turn n / d is
    normalized on integers, and its value kept in `k.lt_steps.turns`."""
    if isinstance(turn, float):
        raise TypeError(
            "pass the turn exactly (Fraction, int, or string), not a float")
    if not isinstance(turn, (int, Fraction)):
        turn = Fraction(turn)  # "num/den" strings and other rationals
    d = turn.denominator
    n = min(turn.numerator % d, -turn.numerator % d)  # conjugate symmetry
    if k.rank == 0:
        return 0
    if n == 0:
        raise SingularAtRoot("omega = 1 degenerates the form")
    steps = k.lt_steps
    if d in steps.cyclotomic:
        raise SingularAtRoot(f"omega at turn {n}/{d} is an Alexander root")
    if (n, d) not in steps.turns:
        steps.turns[n, d] = steps.value(steps.gap_at(n, d))
    return steps.turns[n, d]


def _circle_roots(det: list) -> tuple[list, set]:
    """Unit-circle roots of the integer `det`'s self-conjugate factors as
    (key, root_index, CertifiedRoot), by increasing angle, with disjoint
    y-brackets, and the set of e with Phi_e | det; refining to width 4
    leaves each isolating bracket as it is."""
    marked, cyclotomic = [], set()
    for g, _ in factor_rational_poly(det):
        if not polys.self_conjugate(g):
            continue
        roots = unit_circle_roots(g, Fraction(4))
        n = len(g) - 1
        # Kronecker: monic, integral, every root on the circle (one root
        # for n = 1, n/2 pairs otherwise), so g = Phi_e, e = ord(z mod g)
        if 2 * len(roots) >= n and g[-1] == 1:
            power = [1]  # z^e mod g
            for e in range(1, 2 * n * n + 1):
                power = polys.divmod_poly([0] + power, g)[1]
                if power == [1]:
                    cyclotomic.add(e)
                    break
        key = factor_key(g)
        for ridx, root in enumerate(roots):
            while not root.is_rational and (root.lo == -2 or root.hi == 2):
                root.refine((root.hi - root.lo) / 2)  # keep end gaps open
            marked.append((key, ridx, root))
    # distinct irreducible factors never share a root, so refinement
    # eventually separates every pair of brackets
    changed = True
    while changed:
        changed = False
        for i in range(len(marked)):
            for j in range(i + 1, len(marked)):
                a, b = marked[i][2], marked[j][2]
                if a.lo <= b.hi and b.lo <= a.hi:
                    width = max(a.hi - a.lo, b.hi - b.lo)
                    a.refine(width / 4)
                    b.refine(width / 4)
                    changed = True
    marked.sort(key=lambda item: (-item[2].hi, -item[2].lo))
    return marked, cyclotomic


def lt_jumps(k: KnotInput) -> dict:
    """Jump of the Levine-Tristram signature across each unit-circle
    Alexander root, keyed like the multisignature entries: the difference
    of `k.lt_steps` on the gaps on either side.  The brackets are refined
    only as far as separation needs, so no precision enters.

    Skew forms only.  The sampled matrix (1-w) psi + (1-conj(w)) psi^T
    degenerates exactly on the Alexander roots when epsilon = -1; for
    epsilon = +1 its singular set is det(z psi - psi^T) instead, so the
    signature is not locally constant between Alexander roots and the
    jump bookkeeping here would be meaningless."""
    if k.epsilon != -1:
        raise ValueError(
            "signature jumps across Alexander roots are defined for "
            "epsilon = -1 Seifert forms only")
    steps = k.lt_steps
    return {(key, ridx): steps.value(i + 1) - steps.value(i)
            for i, (key, ridx, _root) in enumerate(steps.roots)}


def rochlin_invariant(k: KnotInput) -> int:
    """(signature / 8) mod 2 of the symmetrized Seifert matrix; defined
    only in the symmetric case, where that signature must be divisible
    by 8 for the input to be realizable."""
    if k.epsilon != 1:
        raise NotSymmetricCase("the residue invariant needs epsilon = +1")
    theta, _ = k.seifert_form.theta_pair  # theta = T, d = 1 in Z mode
    sig = signature_of_int_rows([list(r) for r in theta],
                                [[0] * len(r) for r in theta])
    if sig % 8 != 0:
        raise SignatureNotDivisibleBy8(
            f"signature {sig} of the symmetrization is not divisible by 8")
    return (sig // 8) % 2


def _mirror_halves(rows: list) -> list | None:
    """The top-left block A of the integer rows of psi when psi is
    exactly blockdiag(A, -A), compared in place."""
    n = len(rows) // 2
    if 2 * n == len(rows) and all(
            not top[n + j] and not bottom[j] and bottom[n + j] == -top[j]
            for top, bottom in zip(rows[:n], rows[n:]) for j in range(n)):
        return [r[:n] for r in rows[:n]]


def analyze(k: KnotInput,
            precision: Fraction = DEFAULT_PRECISION) -> ObstructionReport:
    """Full report; deterministic given the input and precision.  Every
    entry reads one Blanchfield form and its one multisignature."""
    form = blanchfield_form(k)
    ms = dw_multisignature_laurent(form, precision)
    slice_flag, ds_flag = ("no_obstruction_found" if clear else "yes"
                           for clear in (ms.is_metabolic, ms.all_zero))
    notes = [COMPLETENESS_CAVEAT]
    if k.dimension_hint == 1:
        notes.append(CLASSICAL_CAVEAT)

    rochlin = None
    if k.epsilon == 1:
        try:
            rochlin = rochlin_invariant(k)
        except SignatureNotDivisibleBy8 as exc:
            notes.append(f"residue invariant unavailable: {exc}")

    witnesses = None
    half = _mirror_halves(k.seifert_form.psi_pair[0])
    if half:
        # psi is exactly A (+) -A, so the sum is the knot's own form
        fsum = k.seifert_form
        diag, twist = hyperbolic_witness_sum(SeifertForm(half, k.epsilon))
        if (verify_seifert_lagrangian(fsum, diag) == "split_lagrangian"
                and verify_seifert_lagrangian(fsum, twist)
                == "split_lagrangian"
                and is_complementary(fsum, diag, twist)):
            witnesses = (diag, twist)
            notes.append(
                "the Seifert matrix splits as a form plus its negative; "
                "the diagonal and twisted-graph submodules verify as "
                "complementary split lagrangians")

    return ObstructionReport(
        name=k.name,
        alexander=_module_order(form.module),
        factorization=[(form.module.factor_keys[tuple(g)], m)
                       for g, m in form.module.factors],
        multisignature=ms,
        slice_obstructed=slice_flag,
        doubly_slice_obstructed=ds_flag,
        rochlin=rochlin,
        witnesses=witnesses,
        notes=notes,
        convention={"sigma_sign": SIGMA_SIGN, "precision": precision},
    )
