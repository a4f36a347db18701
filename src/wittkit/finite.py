"""Finite linking forms over (Z, Z \\ {0}).

A form lives on T = (+) Z/p^{l_i} with pairing values in Q/Z stored as
reduced fractions in [0, 1).  The classification pipeline at odd primes runs

    primary parts -> auxiliary forms over F_p -> Witt classes -> multisignature

where the level-l auxiliary form of a p-primary pairing has F_p Gram matrix
p^l * gram[i][j] mod p over the generators of exact order p^l.  Witt classes
over F_p are the pair (rank mod 2, signed discriminant square class): the
signed discriminant (-1)^{r(r-1)/2} det is the determinant made stable under
adding hyperbolic planes, which the plain determinant is not.

Everything rejects p = 2 except the types and the boundary construction;
the brute-force oracle in `subgroups` covers p = 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from wittkit.errors import (
    EvenPrimeUnsupported,
    SingularForm,
    SingularOverFractionField,
)
from wittkit.exact.matrix import Matrix
from wittkit.exact.snf import smith_normal_form


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    return all(n % d for d in range(2, isqrt(n) + 1))


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


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class WittClassFp:
    """Witt class of a nonsingular symmetric form over F_p, odd p.  The class
    is determined by (rank mod 2, square class of the signed discriminant);
    addition twists the discriminants by (-1)^{r1 r2}."""

    prime: int
    rank_mod_2: int
    discriminant_class: str  # "square" | "nonsquare"

    def __post_init__(self):
        if self.discriminant_class not in ("square", "nonsquare"):
            raise ValueError("bad discriminant class")
        if self.rank_mod_2 not in (0, 1):
            raise ValueError("bad rank parity")

    @classmethod
    def zero(cls, p: int) -> "WittClassFp":
        return cls(p, 0, "square")

    @property
    def is_zero(self) -> bool:
        return self.rank_mod_2 == 0 and self.discriminant_class == "square"

    def _sign(self) -> int:
        return 1 if self.discriminant_class == "square" else -1

    def __add__(self, other: "WittClassFp") -> "WittClassFp":
        if other == 0:
            return self
        if self.prime != other.prime:
            raise ValueError("mixed primes")
        chi = _legendre(-1, self.prime)
        s = self._sign() * other._sign()
        if self.rank_mod_2 and other.rank_mod_2:
            s *= chi
        return WittClassFp(
            self.prime,
            (self.rank_mod_2 + other.rank_mod_2) % 2,
            "square" if s == 1 else "nonsquare",
        )

    __radd__ = __add__  # so sum() works with the 0 start value

    def __neg__(self) -> "WittClassFp":
        chi = _legendre(-1, self.prime)
        s = self._sign() * (chi if self.rank_mod_2 else 1)
        return WittClassFp(self.prime, self.rank_mod_2,
                           "square" if s == 1 else "nonsquare")

    def __repr__(self):
        return (f"WittClassFp(p={self.prime}, rank={self.rank_mod_2}, "
                f"disc={self.discriminant_class})")


@dataclass(frozen=True)
class AuxiliaryFormFp:
    """Level-l auxiliary form over F_p: Gram matrix with the v-symmetry
    gram = v * gram^T."""

    prime: int
    level: int
    gram: tuple  # tuple of tuples of ints in [0, p)
    v: int  # +1 or -1

    def __post_init__(self):
        p = self.prime
        for i, row in enumerate(self.gram):
            for j, x in enumerate(row):
                if (x - self.v * self.gram[j][i]) % p != 0:
                    raise ValueError("auxiliary gram breaks its v-symmetry")

    @property
    def rank(self) -> int:
        return len(self.gram)


class DWMultiSignatureZ:
    """Finitely supported association (p, l) -> WittClassFp.  A key is
    present exactly when the level-l part of the p-primary module is nonzero,
    even when the attached class is zero."""

    def __init__(self, entries: dict):
        self.entries = dict(entries)

    def get(self, p: int, l: int):
        return self.entries.get((p, l))

    def items(self):
        return sorted(self.entries.items())

    @property
    def all_zero(self) -> bool:
        return all(c.is_zero for c in self.entries.values())

    @property
    def is_metabolic(self) -> bool:
        """Zero in the single Witt group: every odd-level sum vanishes."""
        return all(c.is_zero for c in forgetful_witt(self).values())

    def __add__(self, other: "DWMultiSignatureZ") -> "DWMultiSignatureZ":
        out = dict(self.entries)
        for (p, l), c in other.entries.items():
            out[(p, l)] = out[(p, l)] + c if (p, l) in out else c
        return DWMultiSignatureZ(out)

    def __neg__(self) -> "DWMultiSignatureZ":
        return DWMultiSignatureZ({k: -c for k, c in self.entries.items()})

    def __eq__(self, other):
        return isinstance(other, DWMultiSignatureZ) and self.entries == other.entries

    def __repr__(self):
        inner = ", ".join(f"({p},{l}): {c!r}" for (p, l), c in self.items())
        return f"DWMultiSignatureZ({{{inner}}})"


class FiniteLinkingForm:
    """Nonsingular epsilon-symmetric linking form on (+) Z/p^{l_i}."""

    def __init__(self, prime: int, orders, gram, epsilon: int, validate: bool = True):
        if not _is_prime(prime):
            raise ValueError(f"{prime} is not prime")
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        orders = [int(l) for l in orders]
        if any(l < 1 for l in orders):
            raise ValueError("generator orders must be positive prime powers")
        n = len(orders)
        g = [[_mod1(x) for x in row] for row in gram]
        if len(g) != n or any(len(r) != n for r in g):
            raise ValueError("gram shape does not match the generator count")
        self.prime = prime
        self.orders = tuple(orders)
        self.gram = tuple(tuple(r) for r in g)
        self.epsilon = epsilon
        if validate:
            self._validate()

    def _validate(self):
        p, eps = self.prime, self.epsilon
        for i in range(self.rank):
            for j in range(self.rank):
                x = self.gram[i][j]
                k = _den_exp(x, p)
                if k < 0:
                    raise ValueError("gram denominators must be powers of p")
                if k > min(self.orders[i], self.orders[j]):
                    raise ValueError("pairing not annihilated by generator orders")
                if _mod1(x - eps * self.gram[j][i]) != 0:
                    raise ValueError("gram breaks epsilon-symmetry")
        if not _adjoint_is_iso([p**l for l in self.orders], self.gram):
            raise SingularForm("adjoint T -> T^ is not an isomorphism")

    # -- basic queries --

    @property
    def rank(self) -> int:
        return len(self.orders)

    def mixed_orders(self) -> list[int]:
        return [self.prime**l for l in self.orders]

    def is_homogeneous(self) -> bool:
        return len(set(self.orders)) <= 1

    # -- constructions --

    def direct_sum(self, other: "FiniteLinkingForm") -> "FiniteLinkingForm":
        if (self.prime, self.epsilon) != (other.prime, other.epsilon):
            raise ValueError("direct sum needs matching prime and symmetry")
        n, m = self.rank, other.rank
        gram = [[Fraction(0)] * (n + m) for _ in range(n + m)]
        for i in range(n):
            for j in range(n):
                gram[i][j] = self.gram[i][j]
        for i in range(m):
            for j in range(m):
                gram[n + i][n + j] = other.gram[i][j]
        return FiniteLinkingForm(
            self.prime, self.orders + other.orders, gram, self.epsilon,
            validate=False,
        )

    def negate(self) -> "FiniteLinkingForm":
        gram = [[_mod1(-x) for x in row] for row in self.gram]
        return FiniteLinkingForm(self.prime, self.orders, gram, self.epsilon,
                                 validate=False)

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLinkingForm)
            and self.prime == other.prime
            and self.orders == other.orders
            and self.gram == other.gram
            and self.epsilon == other.epsilon
        )

    def __hash__(self):
        return hash((self.prime, self.orders, self.gram, self.epsilon))

    def __repr__(self):
        return (f"FiniteLinkingForm(p={self.prime}, orders={list(self.orders)}, "
                f"epsilon={self.epsilon:+d})")


def _adjoint_is_iso(mixed_orders: list[int], gram) -> bool:
    """The adjoint sends generator j to sum_i (n_i * gram[i][j]) chi_i in
    T^ = (+) Z/n_i; it is onto iff [N | diag(n)] has all SNF divisors 1."""
    n = len(mixed_orders)
    rows = []
    for i, o in enumerate(mixed_orders):
        if any(o % x.denominator for x in gram[i]):
            return False
        rows.append([x.numerator * (o // x.denominator) for x in gram[i]]
                    + [o if j == i else 0 for j in range(n)])
    divs = smith_normal_form(Matrix(rows)).nonzero_divisors
    return len(divs) == n and all(d == 1 for d in divs)


# ---------------------------------------------------------------------------
# primary decomposition
# ---------------------------------------------------------------------------

def primary_decompose(orders, gram, epsilon: int) -> dict[int, FiniteLinkingForm]:
    """Split a pairing on (+) Z/n_i into orthogonal p-primary linking forms.

    The p-part is generated by (n_i / p^{v_p(n_i)}) g_i; pairings between
    different primary parts are integral, hence vanish in Q/Z.
    """
    orders = [int(n) for n in orders]
    if any(n < 1 for n in orders):
        raise ValueError("orders must be positive")
    n = len(orders)
    g = [[_mod1(x) for x in row] for row in gram]
    for i in range(n):
        for j in range(n):
            if _mod1(g[i][j] - epsilon * g[j][i]) != 0:
                raise ValueError("gram breaks epsilon-symmetry")
            if (g[i][j] * orders[i]).denominator != 1:
                raise ValueError("pairing not annihilated by generator orders")
    if not _adjoint_is_iso(orders, g):
        raise SingularForm("adjoint T -> T^ is not an isomorphism")

    primes = set()
    for m in orders:
        d = 2
        while d * d <= m:
            if m % d == 0:
                primes.add(d)
                while m % d == 0:
                    m //= d
            d += 1
        if m > 1:
            primes.add(m)

    out = {}
    for p in sorted(primes):
        idx, exps, cofs = [], [], []
        for i, m in enumerate(orders):
            v = 0
            while m % p == 0:
                m //= p
                v += 1
            if v:
                idx.append(i)
                exps.append(v)
                cofs.append(orders[i] // p**v)
        sub = [
            [_mod1(g[a][b] * cofs[ii] * cofs[jj]) for jj, b in enumerate(idx)]
            for ii, a in enumerate(idx)
        ]
        out[p] = FiniteLinkingForm(p, exps, sub, epsilon)
    return out


# ---------------------------------------------------------------------------
# auxiliary forms and Witt classes
# ---------------------------------------------------------------------------

def auxiliary_modules(form: FiniteLinkingForm) -> dict[int, int]:
    """Rank of each level quotient: the number of order-p^l cyclic summands."""
    out: dict[int, int] = {}
    for l in form.orders:
        out[l] = out.get(l, 0) + 1
    return dict(sorted(out.items()))


def auxiliary_form(form: FiniteLinkingForm, l: int) -> AuxiliaryFormFp:
    """Level-l auxiliary F_p form: entries p^l * gram[i][j] mod p over the
    exact-level-l generators.  The value is presentation-independent because
    orthogonalization against other levels changes the entries by multiples
    of p after the p^l scaling."""
    p = form.prime
    if p == 2:
        raise EvenPrimeUnsupported(
            "auxiliary forms need a half-unit, absent at p = 2")
    if l < 1:
        raise ValueError("level must be >= 1")
    idx = [i for i, li in enumerate(form.orders) if li == l]
    scale = p**l
    gram = tuple(
        tuple(int(form.gram[a][b] * scale) % p for b in idx) for a in idx
    )
    aux = AuxiliaryFormFp(p, l, gram, form.epsilon)
    if idx:
        det = Matrix.from_ints([list(r) for r in gram]).det()
        if int(det) % p == 0:
            raise SingularForm("auxiliary form is singular; source was not "
                               "a nonsingular linking form")
    return aux


def witt_class_fp(prime: int, gram, symmetry: int = 1) -> WittClassFp:
    """Witt class of a nonsingular v-symmetric F_p form, odd p.  Skew forms
    are always hyperbolic over a field, so they map to the zero class."""
    if prime == 2:
        raise EvenPrimeUnsupported("Witt classification requires odd p")
    rows = [list(r) for r in (gram.rows if isinstance(gram, Matrix) else gram)]
    n = len(rows)
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


def dw_multisignature(orders, gram, epsilon: int) -> DWMultiSignatureZ:
    """sigma_{p,l} for every (p, l) with a nonzero level part.  The input is
    a mixed-order presentation; any 2-primary part is rejected."""
    parts = primary_decompose(orders, gram, epsilon)
    if 2 in parts:
        raise EvenPrimeUnsupported(
            "multisignature is defined away from p = 2; "
            "use brute_force_lagrangians for the 2-primary part")
    entries = {}
    for p, part in parts.items():
        for l in auxiliary_modules(part):
            aux = auxiliary_form(part, l)
            entries[(p, l)] = witt_class_fp(p, aux.gram, aux.v)
    return DWMultiSignatureZ(entries)


def forgetful_witt(ms: DWMultiSignatureZ) -> dict[int, WittClassFp]:
    """Per-prime sum over odd levels: the image in the single Witt group."""
    out: dict[int, WittClassFp] = {}
    for (p, l), c in ms.items():
        if p not in out:
            out[p] = WittClassFp.zero(p)
        if l % 2 == 1:
            out[p] = out[p] + c
    return out


def classify(form: FiniteLinkingForm, question: str) -> bool:
    """Decide metabolic or hyperbolic at an odd prime.

    Metabolic == the odd-level Witt sum vanishes at every prime; hyperbolic
    == every sigma_{p,l} is the zero class (stably hyperbolic == hyperbolic).
    """
    if form.prime == 2:
        raise EvenPrimeUnsupported("classification requires odd p")
    ms = dw_multisignature(form.mixed_orders(), form.gram, form.epsilon)
    if question == "metabolic":
        return ms.is_metabolic
    if question == "hyperbolic":
        return ms.all_zero
    raise ValueError("question must be 'metabolic' or 'hyperbolic'")


# ---------------------------------------------------------------------------
# boundaries of integral forms
# ---------------------------------------------------------------------------

def _strict_int(x) -> int:
    f = Fraction(x)
    if f.denominator != 1:
        raise ValueError("integral matrix expected")
    return int(f)


def _as_int_matrix(alpha) -> Matrix:
    rows = alpha.rows if isinstance(alpha, Matrix) else alpha
    return Matrix([[_strict_int(x) for x in row] for row in rows])


def boundary_of_form(alpha, epsilon: int) -> dict[int, FiniteLinkingForm]:
    """Boundary linking form of an integral epsilon-symmetric form:
    lambda([x],[y]) = x^T alpha^{-1} y mod Z on coker(alpha), presented on
    the Smith-basis generators and split into primary parts."""
    a = _as_int_matrix(alpha)
    if a.transpose() != a.map(lambda x: epsilon * x):
        raise ValueError("alpha is not epsilon-symmetric")
    if a.nrows and Matrix.from_ints(a.rows).det() == 0:
        raise SingularOverFractionField("alpha is singular over Q")
    if a.nrows == 0:
        return {}
    res = smith_normal_form(a)
    # alpha^{-1} = V D^{-1} U, and the coker basis transform U gives the
    # pairing matrix U^{-T} V D^{-1} on the Smith generators
    divisors = res.divisors
    n = a.nrows
    vd = Matrix(
        [[Fraction(res.V[i, j], divisors[j]) for j in range(n)]
         for i in range(n)]
    )
    pairing = res.U_inv.map(Fraction).transpose() * vd
    keep = [i for i in range(n) if divisors[i] != 1]
    orders = [divisors[i] for i in keep]
    gram = [[_mod1(pairing[i, j]) for j in keep] for i in keep]
    return primary_decompose(orders, gram, epsilon)


# ---------------------------------------------------------------------------
# integral membership
# ---------------------------------------------------------------------------

def _integral_solver(mat: Matrix):
    """Returns a predicate telling whether an integer vector lies in the
    Z-span of the columns of mat."""
    res = smith_normal_form(mat)
    divisors = res.divisors
    m = mat.nrows

    def member(vec) -> bool:
        c = [sum(res.U[i, j] * vec[j] for j in range(m)) for i in range(m)]
        for i, ci in enumerate(c):
            d = divisors[i] if i < len(divisors) else 0
            if d == 0:
                if ci != 0:
                    return False
            elif ci % d != 0:
                return False
        return True

    return member
