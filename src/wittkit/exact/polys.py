"""Dense univariate polynomials on integers.

Polynomials are lists of integers, low degree first, with no trailing
zeros; the empty list is zero.  A rational polynomial is carried as its
primitive integer multiple with a positive leading coefficient
(`primitive`), which is all that gcds, Sturm signs and divisibility read.
One pseudo-division (`divmod_poly`) gives remainders and exact quotients,
and one primitive remainder sequence (W. S. Brown, J. ACM 18, 1971) serves
both the gcd and Sturm chains.  Every integer polynomial loop but
`factor`'s division, gcd and powering mod p and `roots._interval_horner`
is here, z -> a + b z (`compose`) and the one self-conjugacy test
(`self_conjugate`) among them.  A factor stays such a list from
`factor.factor_rational_poly` to the report, as the Alexander polynomial
and a covering form's divisors and numerator pairs do from where they are
made; `LaurentPoly` serves only the `decompose_module` path (conversion
via `LaurentPoly.ordinary` and `from_dense`).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import zip_longest
from math import gcd as int_gcd, lcm
from typing import Sequence

Poly = list  # list[int]


def trim(p: Sequence) -> Poly:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def deg(p: Sequence) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def primitive(p: Sequence) -> Poly:
    """The integer multiple of p with content 1 and a positive leading
    coefficient, for integer or rational coefficients; zero for zero."""
    p = trim(p)
    if not p:
        return []
    d = lcm(*(c.denominator for c in p))
    ints = [c.numerator * (d // c.denominator) for c in p]
    g = int_gcd(*ints) * (1 if ints[-1] > 0 else -1)
    return [c // g for c in ints]


def mul(p: Sequence, q: Sequence) -> Poly:
    if not p or not q:
        return []
    out = [0] * (len(p) + len(q) - 1)
    for i, x in enumerate(p):
        for j, y in enumerate(q):
            out[i + j] += x * y
    return out


def value(g: Sequence, n: int, d: int) -> int:
    """d^deg(g) g(n / d), for d > 0: g(n / d) times a positive integer."""
    v, scale = 0, 1
    for c in reversed(g):
        v, scale = v * n + c * scale, scale * d
    return v


def compose(p: Sequence, a: int, b: int) -> Poly:
    """p(a + b z), by Horner on integers."""
    out = []
    for c in reversed(p):
        out = [a * x + b * y for x, y in zip(out + [0], [0] + out)]
        out[0] += c
    return trim(out)


def divmod_poly(p: Sequence, q: Sequence) -> tuple[Poly, Poly, int]:
    """(quot, rem, s) with s p = quot q + rem, deg rem < deg q and s > 0:
    each step clears p's top coefficient c as (a/g) p - (c/g) z^k q,
    a = lc(q), g = +-gcd(a, c) with a/g > 0, and puts a/g into s, so no
    step leaves the integers.  If q divides p over Z, every a/g is 1:
    s = 1 and quot is the exact quotient, as it is for a primitive q
    dividing p over Q (Gauss's lemma)."""
    if not q:
        raise ZeroDivisionError("polynomial division by zero")
    p, n, a, s = list(p), len(q) - 1, q[-1], 1
    steps = []  # (c/g, s after the step), top degree first
    while len(p) > n:
        c = p.pop()
        if c:
            g = int_gcd(a, c) * (1 if a > 0 else -1)
            t, c, k = a // g, c // g, len(p) - n
            if t != 1:
                p, s = [t * x for x in p], s * t
            p[k:] = [x - c * y for x, y in zip(p[k:], q)]
        steps.append((c, s))
    # a later step's a/g scales every earlier quotient coefficient
    quot = [c * (s // t) if t != s else c for c, t in reversed(steps)]
    return trim(quot), trim(p), s


def _remainders(a: Sequence, b: Sequence) -> list[Poly]:
    """The primitive remainder sequence a, b, r_2, ... up to its last
    nonzero member, a gcd of a and b: r_(k+1) is the pseudo-remainder of
    r_(k-1) by r_k, negated and divided by its content.  A pseudo-remainder
    is a positive multiple of the remainder over Q, so each member is a
    positive multiple of Euclid's -rem(r_(k-1), r_k) and the Sturm counts
    of the two sequences agree."""
    seq = [trim(a), trim(b)]
    while seq[-1]:
        r = divmod_poly(seq[-2], seq[-1])[1]
        g = int_gcd(*r)
        seq.append([-c // g for c in r])
    seq.pop()
    return seq


def gcd(p: Sequence, q: Sequence) -> Poly:
    """The primitive gcd, with positive leading coefficient."""
    return primitive(_remainders(p, q)[-1])


def derivative(p: Sequence) -> Poly:
    return trim([c * i for i, c in enumerate(p)][1:])


def self_conjugate(p: Poly) -> bool:
    """Whether p, with p(0) != 0, is self-conjugate: z^deg(p) p(1/z), p
    reversed, is +-p."""
    return p[::-1] in (p, [-c for c in p])


# ---- real root machinery (Sturm) ----

def sturm_chain(p: Sequence) -> list[Poly]:
    """The Sturm sequence of p: the remainder sequence of (p, p')."""
    return _remainders(p, derivative(p))


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: list[Poly], a: int, b: int, d: int) -> int:
    """Number of distinct real roots in (a/d, b/d], d > 0, for a squarefree
    chain."""
    va = _sign_changes([value(q, a, d) for q in chain])
    vb = _sign_changes([value(q, b, d) for q in chain])
    return va - vb


def isolate_real_roots(p: Sequence, lo, hi) -> list[tuple[int, int, int]]:
    """Brackets (a, b, d), d > 0, of disjoint open-ended intervals
    (a/d, b/d], one distinct real root of p in each, all roots of p inside
    (lo, hi], for rationals lo < hi, in increasing order: bisection keeps
    both ends over one denominator, doubled at each midpoint.  p need not
    be squarefree: the last member of its Sturm chain is gcd(p, p') up to
    a scalar, and a nonconstant one divides out before the roots are
    isolated."""
    chain = sturm_chain(p)
    if deg(chain[-1]) > 0:
        chain = sturm_chain(divmod_poly(p, chain[-1])[0])
    sf = chain[0]
    if deg(sf) <= 0:
        return []
    d = lcm(lo.denominator, hi.denominator)
    a = lo.numerator * (d // lo.denominator)
    b = hi.numerator * (d // hi.denominator)
    out, todo = [], [(a, b, d, sturm_count(chain, a, b, d))]
    while todo:  # a stack, not recursion: close roots take many levels
        a, b, d, count = todo.pop()
        if count == 1:
            out.append((a, b, d))
        elif count > 1:
            a, m, b, d = 2 * a, a + b, 2 * b, 2 * d
            # nudge off a root so interval endpoints stay root-free
            while not value(sf, m, d):
                a, m, b, d = 2 * a, a + m, 2 * b, 2 * d
            cl = sturm_count(chain, a, m, d)
            todo += [(m, b, d, count - cl), (a, m, d, cl)]
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
    """2 g, for g with g(2 cos t) = sum_k c_k cos((k + offset) t): twice
    the real part at z = e^{it} of sum_k c_k z^(k + offset), for integers
    c_k.  2 g = sum_k c_k Q_|k + offset|, read off one table
    (`_chebyshev`)."""
    js = [abs(k + offset) for k in range(len(coeffs))]
    table, out = _chebyshev(max(js, default=0)), [0] * (max(js, default=0) + 1)
    for j, c in zip(js, coeffs):
        out[:j + 1] = [x + c * q for x, q in zip(out, table[j])]
    return trim(out)


def palindromic_to_y(p: Sequence) -> Poly:
    """For palindromic integer p of even degree 2m (coefficients
    c_i = c_{2m-i}) return the integer Y of degree m with
    p(z) = z^m * Y(z + 1/z): `cos_poly(p, -m)` is 2 Y, each of its terms
    a pair's c_i Q_j twice, or the middle c_m Q_0 = 2 c_m."""
    p = trim(p)
    n = deg(p)
    if n % 2 != 0:
        raise ValueError("degree must be even")
    m = n // 2
    if any(p[i] != p[n - i] for i in range(m)):
        raise ValueError("polynomial is not palindromic")
    return [c // 2 for c in cos_poly(p, -m)]
