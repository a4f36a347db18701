"""Finite linking forms over (Z, Z \\ {0}).

A form lives on T = (+) Z/p^{l_i} with pairing values in Q/Z stored as
integer numerators over q = p^max(l_i).  The classification pipeline at odd
primes runs

    primary parts -> auxiliary forms over F_p -> Witt classes -> multisignature

where the level-l auxiliary form of a p-primary pairing has F_p Gram matrix
p^l * b(e_i, e_j) mod p over the generators of exact order p^l.  Witt classes
over F_p are the pair (rank mod 2, signed discriminant square class): the
signed discriminant (-1)^{r(r-1)/2} det is the determinant made stable under
adding hyperbolic planes, which the plain determinant is not.

Everything rejects p = 2 except the types and the boundary construction;
the brute-force oracle in `subgroups` covers p = 2.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import lcm
from operator import index

from wittkit.errors import (
    EvenPrimeUnsupported,
    FactorizationTooLarge,
    SingularForm,
    SingularOverFractionField,
)
from wittkit.exact.matrix import Matrix, _imul
from wittkit.exact.snf import smith_normal_form


_TRIAL_BOUND = 10**6


def _factor(m: int) -> dict[int, int]:
    """{p: v_p(m)} by trial division; {} for m < 2.  Divisors stop at
    _TRIAL_BOUND: a cofactor with no divisor up to it is prime only when
    it is below _TRIAL_BOUND^2, and a larger one is refused."""
    out, d = {}, 2
    while d * d <= m:
        if d > _TRIAL_BOUND:
            raise FactorizationTooLarge(
                f"cannot factor {m}: it has no prime factor up to "
                f"{_TRIAL_BOUND} and is too large for trial division")
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    if m > 1:
        out[m] = 1
    return out


def _numerators(gram, q: int = 1) -> tuple[list, int]:
    """(num, Q): the entries of gram as num / Q mod 1 with 0 <= num < Q, Q
    the lcm of q and their denominators."""
    rows = [[Fraction(x) for x in row] for row in gram]
    big = lcm(q, *(x.denominator for row in rows for x in row))
    return [[x.numerator * (big // x.denominator) % big for x in row]
            for row in rows], big


def _det_mod_p(rows, p: int) -> int:
    """The determinant mod p of a square integer matrix, by elimination
    over F_p."""
    rows, det = [[x % p for x in row] for row in rows], 1
    for c in range(len(rows)):
        k = next((k for k in range(c, len(rows)) if rows[k][c]), None)
        if k is None:
            return 0
        top, rows[k] = rows[k], rows[c]
        det = (det if k == c else -det) * top[c] % p
        inv = pow(top[c], -1, p)
        rows[c + 1:] = [[(a - r[c] * inv * b) % p for a, b in zip(r, top)]
                        for r in rows[c + 1:]]
    return det


def _legendre(a: int, p: int) -> int:
    a %= p
    if a == 0:
        return 0
    return 1 if pow(a, (p - 1) // 2, p) == 1 else -1


# ---------------------------------------------------------------------------
# types
# ---------------------------------------------------------------------------

class WittClassFp(namedtuple("WittClassFp",
                             "prime rank_mod_2 discriminant_class")):
    """Witt class of a nonsingular symmetric form over F_p, odd p.  The class
    is determined by (rank mod 2, square class of the signed discriminant,
    "square" or "nonsquare"); addition twists the discriminants by
    (-1)^{r1 r2}."""

    __slots__ = ()

    def __new__(cls, prime: int, rank_mod_2: int, discriminant_class: str):
        if discriminant_class not in ("square", "nonsquare"):
            raise ValueError("bad discriminant class")
        if rank_mod_2 not in (0, 1):
            raise ValueError("bad rank parity")
        return super().__new__(cls, prime, rank_mod_2, discriminant_class)

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


class AuxiliaryFormFp(namedtuple("AuxiliaryFormFp", "prime level gram v")):
    """Level-l auxiliary form over F_p: Gram matrix, a tuple of tuples of
    ints in [0, p), with the v-symmetry gram = v * gram^T (v = +-1), which
    `witt_class_fp` checks."""

    __slots__ = ()

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
    """Nonsingular epsilon-symmetric linking form on (+) Z/p^{l_i}, stored
    on integers: b(e_i, e_j) = num[i][j] / q, q = p^max(l_i), 0 <= num < q."""

    def __init__(self, prime: int, orders, gram, epsilon: int):
        if _factor(index(prime)) != {prime: 1}:
            raise ValueError(f"{prime} is not prime")
        if epsilon not in (1, -1):
            raise ValueError("epsilon must be +1 or -1")
        orders = [int(l) for l in orders]
        if any(l < 1 for l in orders):
            raise ValueError("generator orders must be positive prime powers")
        self.prime = prime
        self.orders = tuple(orders)
        self.epsilon = epsilon
        self.q = prime ** max(orders, default=0)
        num, big = _numerators(gram, self.q)
        # big divides p^k for k >= log_2 big exactly when it is a power of p
        if prime ** big.bit_length() % big:
            raise ValueError("gram denominators must be powers of p")
        _check_pairing(self.mixed_orders(), num, big, epsilon)
        # the orders annihilate the pairing, so q clears its denominators
        self.num = tuple(tuple(x * self.q // big for x in row) for row in num)

    @classmethod
    def _built(cls, prime: int, orders, num, epsilon: int):
        """A form from numerators over p^max(orders), built unchecked."""
        form = cls.__new__(cls)
        form.prime, form.orders, form.epsilon = prime, tuple(orders), epsilon
        form.q = prime ** max(orders, default=0)
        form.num = tuple(map(tuple, num))
        return form

    # -- basic queries --

    @property
    def gram(self) -> tuple:
        """b(e_i, e_j) as reduced `Fraction`s in [0, 1)."""
        return tuple(tuple(Fraction(x, self.q) for x in row)
                     for row in self.num)

    @property
    def rank(self) -> int:
        return len(self.orders)

    def mixed_orders(self) -> list[int]:
        return [self.prime**l for l in self.orders]

    def __eq__(self, other):
        return (
            isinstance(other, FiniteLinkingForm)
            and self.prime == other.prime
            and self.orders == other.orders
            and self.num == other.num
            and self.epsilon == other.epsilon
        )

    def __hash__(self):
        return hash((self.prime, self.orders, self.num, self.epsilon))

    def __repr__(self):
        return (f"FiniteLinkingForm(p={self.prime}, orders={list(self.orders)}, "
                f"epsilon={self.epsilon:+d})")


def _check_pairing(mixed_orders: list[int], num, q: int, epsilon: int) -> None:
    """Raise unless b(e_i, e_j) = num[i][j] / q is an epsilon-symmetric
    pairing on (+) Z/n_i that the orders annihilate and whose adjoint is
    bijective."""
    n = len(mixed_orders)
    if len(num) != n or any(len(r) != n for r in num):
        raise ValueError("gram shape does not match the generator count")
    for i, o in enumerate(mixed_orders):
        for j, x in enumerate(num[i]):
            if (x - epsilon * num[j][i]) % q:
                raise ValueError("gram breaks epsilon-symmetry")
            if x * o % q:
                raise ValueError("pairing not annihilated by generator orders")
    if not _adjoint_is_iso(mixed_orders, num, q):
        raise SingularForm("adjoint T -> T^ is not an isomorphism")


def _adjoint_is_iso(mixed_orders: list[int], num, q: int) -> bool:
    """The adjoint sends generator j to column j of M_ij = n_i b(e_i, e_j)
    in T^ = (+) Z/n_i (integers: `_check_pairing` checked the annihilation
    first).  It is onto, so bijective, iff the columns of [M | diag(n)] span
    Z^n, that is (Nakayama) F_p^n for each p | prod n_i.  With
    I = {i : p | n_i}, b(e_i, e_j) has denominator prime to p for i in I
    and j not, so M_ij = 0 mod p: that holds iff det M[I, I] != 0 mod p."""
    m = [[o * x // q for x in row] for o, row in zip(mixed_orders, num)]
    for p in set().union(*map(_factor, mixed_orders)):
        idx = [i for i, o in enumerate(mixed_orders) if o % p == 0]
        if not _det_mod_p([[m[i][j] for j in idx] for i in idx], p):
            return False
    return True


# ---------------------------------------------------------------------------
# primary decomposition
# ---------------------------------------------------------------------------

def _primary_parts(orders: list[int], num, q: int, epsilon: int) -> dict:
    """The p-primary parts of the pairing num / q on (+) Z/n_i.

    A mixed-order presentation is checked here, once, by `_check_pairing`.
    The p-part is generated by c_a g_a, c_a = n_a / p^{v_a}, for each a with
    v_a = v_p(n_a) > 0, and is built unchecked: the whole-pairing checks
    imply `_check_pairing` on each part, because
    - the parts are orthogonal, as pairings across primes are integral
      (both orders kill them), so T = (+) T_p is an orthogonal sum;
    - T^ splits the same way and the adjoint maps T_p into T_p^, so it is
      bijective exactly when each part's adjoint is;
    - p^{v_a} c_a c_b g_ab = n_a c_b g_ab is integral, and so is p^{v_b}
      c_a c_b g_ab by the symmetry, so the part's entries have p-power
      denominators that its orders annihilate; c_a c_b (g_ab - epsilon
      g_ba) is integral, so the part is epsilon-symmetric.
    So its numerators over q_p = p^max(v_a), q_p c_a c_b g_ab, are integers.
    """
    _check_pairing(orders, num, q, epsilon)
    factors = [_factor(m) for m in orders]
    out = {}
    for p in sorted(set().union(*factors)):
        idx = [i for i, f in enumerate(factors) if p in f]
        exps = [factors[i][p] for i in idx]
        qp = p ** max(exps)
        cofs = [orders[i] // p**v for i, v in zip(idx, exps)]
        sub = [[num[a][b] * ca * cb * qp // q % qp
                for b, cb in zip(idx, cofs)] for a, ca in zip(idx, cofs)]
        out[p] = FiniteLinkingForm._built(p, exps, sub, epsilon)
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
    of p after the p^l scaling.  It is nonsingular when the form is;
    `witt_class_fp` takes its determinant and raises `SingularForm` if not."""
    p = form.prime
    if p == 2:
        raise EvenPrimeUnsupported(
            "auxiliary forms need a half-unit, absent at p = 2")
    if l < 1:
        raise ValueError("level must be >= 1")
    idx = [i for i, li in enumerate(form.orders) if li == l]
    # an order-p^l generator's row has denominators dividing p^l
    scale = form.q // p**l
    gram = tuple(
        tuple(form.num[a][b] // scale % p for b in idx) for a in idx
    )
    return AuxiliaryFormFp(p, l, gram, form.epsilon)


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
    det = _det_mod_p(rows, prime)
    if det == 0:
        raise SingularForm("singular form over F_p")
    if symmetry == -1:
        return WittClassFp.zero(prime)
    signed = (-1) ** (n * (n - 1) // 2) * det
    s = _legendre(signed, prime)
    return WittClassFp(prime, n % 2, "square" if s == 1 else "nonsquare")


def dw_multisignature(form: FiniteLinkingForm) -> DWMultiSignatureZ:
    """sigma_{p,l} for every level l with a nonzero level part of one
    validated p-primary form, p odd.  The form is not checked again: a
    mixed-order pairing is checked and split into such forms where it is
    made (`boundary_of_form`), and the multisignature of the whole is the
    sum over its parts."""
    p = form.prime
    if p == 2:
        raise EvenPrimeUnsupported(
            "multisignature is defined away from p = 2; "
            "use brute_force_lagrangians for the 2-primary part")
    entries = {}
    for l in auxiliary_modules(form):
        aux = auxiliary_form(form, l)
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
    """Decide metabolic or hyperbolic for one validated p-primary form at an
    odd prime, from its multisignature (which raises at p = 2); a
    mixed-order pairing is split into such forms first.

    Metabolic == the odd-level Witt sum vanishes; hyperbolic == every
    sigma_{p,l} is the zero class (stably hyperbolic == hyperbolic).
    """
    ms = dw_multisignature(form)
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
    if epsilon not in (1, -1):
        raise ValueError("epsilon must be +1 or -1")
    a = _as_int_matrix(alpha)
    if a.transpose() != a.map(lambda x: epsilon * x):
        raise ValueError("alpha is not epsilon-symmetric")
    if a.nrows == 0:
        return {}
    res = smith_normal_form(a)
    if 0 in res.divisors:
        raise SingularOverFractionField("alpha is singular over Q")
    # alpha^{-1} = V D^{-1} U, and the coker basis transform U gives the
    # pairing matrix U^{-T} V D^{-1} on the Smith generators.  It is read
    # off V alone: U alpha V = D makes alpha^T = V^{-T} D U^{-T}, and
    # alpha^T = epsilon alpha then gives U^{-T} = epsilon D^{-1} V^T alpha,
    # so U^{-T} V D^{-1} = epsilon D^{-1} (V^T alpha V) D^{-1}.  Both d_i
    # and d_j divide (V^T alpha V)_ij, so entry ij is the integer
    # epsilon (V^T alpha V)_ij / d_i over d_j.
    vt = [c for c, d in zip(zip(*res.V.rows), res.divisors) if d != 1]
    orders = [d for d in res.divisors if d != 1]
    # the divisors form a chain, so the last is the lcm of all
    q = orders[-1] if orders else 1
    w = _imul(vt, _imul(a.rows, list(zip(*vt))))
    num = [[epsilon * x // di % dj * (q // dj) for x, dj in zip(row, orders)]
           for row, di in zip(w, orders)]
    return _primary_parts(orders, num, q, epsilon)
