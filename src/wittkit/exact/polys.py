"""Dense univariate polynomials over Q.

Polynomials are lists of Fractions, low degree first, with no trailing zeros;
the empty list is zero.  One sign-normalized remainder loop serves both the
monic gcd and Sturm chains.  `LaurentPoly` remains the user-facing type
(conversion via `LaurentPoly.ordinary` and `from_dense`).
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from itertools import zip_longest
from math import gcd as int_gcd, lcm
from typing import Sequence

Poly = list  # list[Fraction]


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def from_ints(cs, d: int = 1) -> Poly:
    """The polynomial with coefficients c / d."""
    return trim([Fraction(c, d) for c in cs])


def deg(p: Sequence) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def divmod_poly(p: Sequence, q: Sequence) -> tuple[Poly, Poly]:
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    r = [Fraction(x) for x in p]
    quot = [Fraction(0)] * max(len(p) - len(q) + 1, 0)
    dq = len(q) - 1
    lc = q[-1]
    while len(trim(r)) - 1 >= dq:
        r = trim(r)
        k = len(r) - 1 - dq
        c = r[-1] / lc
        quot[k] = c
        for i, b in enumerate(q):
            r[k + i] -= c * b
        r[-1] = Fraction(0)
    return trim(quot), trim(r)


def mod(p: Sequence, q: Sequence) -> Poly:
    return divmod_poly(p, q)[1]


def int_rem(p: Sequence, q: Sequence) -> tuple[list, int]:
    """(r, s) with r the remainder of s p by q, s > 0, for integer p and q
    with q's leading coefficient a > 0: each step clears p's top
    coefficient c as (a/g) p - (c/g) z^k q, g = gcd(a, c), and puts a/g
    into s, so no step leaves the integers."""
    p, n, a, s = list(p), len(q) - 1, q[-1], 1
    while len(p) > n:
        c = p.pop()
        if c:
            g = int_gcd(a, c)
            t, c, k = a // g, c // g, len(p) - n
            if t != 1:
                p, s = [t * x for x in p], s * t
            p[k:] = [x - c * y for x, y in zip(p[k:], q)]
    return trim(p), s


def monic(p: Sequence) -> Poly:
    p = trim(p)
    return [c / p[-1] for c in p] if p and p[-1] != 1 else p


def _remainders(a: Sequence, b: Sequence) -> list[Poly]:
    """Euclid's remainder sequence a, b, r_2, ... over Q up to its last
    nonzero member, a gcd of a and b: r_(k+1) = -rem(r_(k-1), r_k) / |lc|.
    A remainder scales with its dividend and ignores a scalar on the
    divisor, so each member is a positive multiple of the unnormalized
    -rem(r_(k-1), r_k) and the Sturm counts of the two sequences agree."""
    seq = [trim(a), trim(b)]
    while seq[-1]:
        r = mod(seq[-2], seq[-1])
        seq.append([c / -abs(r[-1]) for c in r])
    seq.pop()
    return seq


def gcd(p: Sequence, q: Sequence) -> Poly:
    """Monic gcd."""
    return monic(_remainders(p, q)[-1])


def derivative(p: Sequence) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def eval_at(p: Sequence, x) -> Fraction:
    x = Fraction(x)
    total = Fraction(0)
    for c in reversed(list(p)):
        total = total * x + c
    return total


def content_primitive(p: Sequence) -> tuple[Fraction, list[int]]:
    """Write p = content * primitive with primitive an integer polynomial of
    content 1 and positive leading coefficient."""
    p = trim(p)
    if not p:
        return Fraction(0), []
    den = 1
    for c in p:
        den = den * c.denominator // int_gcd(den, c.denominator)
    ints = [int(c * den) for c in p]
    g = 0
    for c in ints:
        g = int_gcd(g, abs(c))
    ints = [c // g for c in ints]
    sign = 1
    if ints[-1] < 0:
        ints = [-c for c in ints]
        sign = -1
    return Fraction(sign * g, den), ints


# ---- real root machinery (Sturm) ----

def sturm_chain(p: Sequence) -> list[Poly]:
    """The Sturm sequence of p: the remainder sequence of (p, p')."""
    return _remainders(p, derivative(p))


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: list[Poly], a, b) -> int:
    """Number of distinct real roots in (a, b] for a squarefree chain."""
    va = _sign_changes([eval_at(q, a) for q in chain])
    vb = _sign_changes([eval_at(q, b) for q in chain])
    return va - vb


def isolate_real_roots(p: Sequence, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open-ended rational intervals (a, b], one distinct real root
    of p in each, all roots of p inside (lo, hi].  p need not be squarefree:
    the last member of its Sturm chain is gcd(p, p') up to a scalar, and a
    nonconstant one divides out before the roots are isolated."""
    chain = sturm_chain(p)
    if deg(chain[-1]) > 0:
        chain = sturm_chain(divmod_poly(p, chain[-1])[0])
    sf = chain[0]
    if deg(sf) <= 0:
        return []
    lo, hi = Fraction(lo), Fraction(hi)
    out: list[tuple[Fraction, Fraction]] = []

    def split(a: Fraction, b: Fraction, count: int) -> None:
        if count == 0:
            return
        if count == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        # nudge off a root so interval endpoints stay root-free
        while eval_at(sf, m) == 0:
            m = (a + m) / 2
        cl = sturm_count(chain, a, m)
        split(a, m, cl)
        split(m, b, count - cl)

    split(lo, hi, sturm_count(chain, lo, hi))
    out.sort()
    return out


# ---- the substitution y = z + 1/z ----

@lru_cache(maxsize=64)
def _chebyshev(top: int) -> tuple:
    """Q_0, ..., Q_top (and Q_1) on integers: Q_0 = 2, Q_1 = y and
    Q_{j+1} = y Q_j - Q_{j-1}, where Q_j(z + 1/z) = z^j + z^-j."""
    table = [(2,), (0, 1)]
    while len(table) <= top:
        table.append(tuple(a - b for a, b in zip_longest(
            (0,) + table[-1], table[-2], fillvalue=0)))
    return tuple(table)


def cos_poly(coeffs: Sequence, offset: int = 0) -> Poly:
    """g with g(2 cos t) = sum_k c_k cos((k + offset) t): the real part at
    z = e^{it} of sum_k c_k z^(k + offset).  With c_k = n_k / d on integers,
    2 d g = sum_k n_k Q_|k + offset|, read off one table (`_chebyshev`)."""
    den = lcm(*(c.denominator for c in coeffs))
    js = [abs(k + offset) for k in range(len(coeffs))]
    table, out = _chebyshev(max(js, default=0)), [0] * (max(js, default=0) + 1)
    for j, c in zip(js, coeffs):
        n = c.numerator * (den // c.denominator)
        out[:j + 1] = [x + n * q for x, q in zip(out, table[j])]
    return trim([Fraction(x, 2 * den) for x in out])


def palindromic_to_y(p: Sequence) -> Poly:
    """For palindromic p of even degree 2m (coefficients c_i = c_{2m-i})
    return Y of degree m with p(z) = z^m * Y(z + 1/z)."""
    p = trim(p)
    n = deg(p)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    m = n // 2
    if any(p[i] != p[n - i] for i in range(m)):
        raise ValueError("polynomial is not palindromic")
    return cos_poly(p, -m)
