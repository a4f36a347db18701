"""Factorization of polynomials over Q, on integer lists.

Pipeline: a polynomial is its primitive integer multiple
(`polys.primitive`); dropping the unit z^k leaves f, with leading
coefficient b > 0.  An odd prime p (among the first eleven)
with p not dividing b and f squarefree mod p certifies that f is
squarefree over Q, since g^2 | f has lc(g) | b, so g^2 | f mod p keeps
deg g; p is then the lifting prime.  Only without one does f give way to
its squarefree part f / gcd(f, f'), from one primitive remainder
sequence (`polys.gcd`), and only then is each irreducible factor's
multiplicity read by exact division of f (`polys.divmod_poly`); a
certified squarefree f has every multiplicity 1.  No prime is sought
for a line or a quadratic a z^2 + b z + c with b^2 != 4ac, both
squarefree; the quadratic is irreducible unless b^2 - 4ac = s^2, and
then splits into the primitive parts of 2az + b -+ s.  Longer ones go by
Zassenhaus's modular route: factor b^-1 f mod p (distinct-degree, then
Cantor-Zassenhaus with a fixed RNG seed), Hensel-lift the monic factors
to p^k above twice 2^(n+1) |f|_2 b, and recombine subsets: the primitive
part of lc * prod(u_i) mod p^k (symmetric range) is a factor exactly
when it divides the rest over Z.  Products and derivatives mod m are
`polys.mul` and `polys.derivative` reduced once mod m; only division, gcd
and powering mod p, which need inverses mod p, run on loops of their own.

`factor_rational_poly` gives the primitive factors g_i of f with
multiplicities m_i, checked as prod(g_i ** m_i) == f on either route, in
the order of the report, sorted on integers; a factor is keyed by g_i
made monic (`factor_key`), the one place a `Fraction` is made for it.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from functools import reduce
from math import gcd as int_gcd, isqrt, lcm

from wittkit.errors import check
from wittkit.exact import polys

_RNG_SEED = 0x5EED


# ---- integer polynomials modulo p (dense int lists, low degree first) ----

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b, p):
    return _ptrim([(x + y) % p for x, y in
                   itertools.zip_longest(a, b, fillvalue=0)])


def _psub(a, b, p):
    return _padd(a, [(-c) % p for c in b], p)


def _zmod(a, m):
    return _ptrim([c % m for c in a])


def _pmul(a, b, p):
    return _zmod(polys.mul(a, b), p)


def _pdivmod(a, b, p):
    a = [c % p for c in a]
    b = _ptrim([c % p for c in b])
    if not b:
        raise ZeroDivisionError
    inv = pow(b[-1], -1, p)
    a = _ptrim(a)
    q = [0] * max(len(a) - len(b) + 1, 0)
    while len(a) >= len(b):
        c = a[-1] * inv % p
        k = len(a) - len(b)
        q[k] = c
        for i, y in enumerate(b):
            a[k + i] = (a[k + i] - c * y) % p
        a = _ptrim(a)
    return _ptrim(q), a


def _pgcd(a, b, p):
    a, b = _ptrim([c % p for c in a]), _ptrim([c % p for c in b])
    while b:
        a, b = b, _pdivmod(a, b, p)[1]
    if a:
        inv = pow(a[-1], -1, p)
        a = [c * inv % p for c in a]
    return a


def _pext_gcd(a, b, p):
    a0, b0 = _ptrim([c % p for c in a]), _ptrim([c % p for c in b])
    sa, sb = [1], []
    ta, tb = [], [1]
    while b0:
        q, r = _pdivmod(a0, b0, p)
        a0, b0 = b0, r
        sa, sb = sb, _psub(sa, _pmul(q, sb, p), p)
        ta, tb = tb, _psub(ta, _pmul(q, tb, p), p)
    inv = pow(a0[-1], -1, p)
    return (
        [c * inv % p for c in a0],
        [c * inv % p for c in sa],
        [c * inv % p for c in ta],
    )


def _ppow_mod(base, exp: int, mod_poly, p):
    result = [1]
    base = _pdivmod(base, mod_poly, p)[1]
    while exp:
        if exp & 1:
            result = _pdivmod(_pmul(result, base, p), mod_poly, p)[1]
        base = _pdivmod(_pmul(base, base, p), mod_poly, p)[1]
        exp >>= 1
    return result


def _pderiv(a, p):
    return _zmod(polys.derivative(a), p)


# ---- factoring mod p ----

def _distinct_degree(f, p):
    """f monic squarefree mod p -> list of (product of degree-d factors, d)."""
    out = []
    g = list(f)
    x = [0, 1]
    xp = list(x)
    d = 0
    while len(g) - 1 >= 2 * (d + 1):
        d += 1
        xp = _ppow_mod(xp, p, g, p)
        h = _pgcd(_psub(xp, x, p), g, p)
        if len(h) > 1:
            out.append((h, d))
            g = _pdivmod(g, h, p)[0]
            xp = _pdivmod(xp, g, p)[1]
    if len(g) > 1:
        out.append((g, len(g) - 1))
    return out


def _equal_degree(f, d, p, rng):
    """Cantor-Zassenhaus splitting of a monic product of degree-d irreducibles."""
    n = len(f) - 1
    if n == d:
        return [f]
    while True:
        a = _ptrim([rng.randrange(p) for _ in range(n)])
        if len(a) <= 1:
            continue
        g = _pgcd(a, f, p)
        if 1 < len(g) < len(f):
            break
        b = _ppow_mod(a, (p**d - 1) // 2, f, p)
        g = _pgcd(_psub(b, [1], p), f, p)
        if 1 < len(g) < len(f):
            break
    left = _equal_degree(g, d, p, rng)
    right = _equal_degree(_pdivmod(f, g, p)[0], d, p, rng)
    return left + right


def _factor_mod_p(f, p, rng):
    out = []
    for block, d in _distinct_degree(f, p):
        out.extend(_equal_degree(block, d, p, rng))
    return out


# ---- Hensel lifting (all factors monic) ----

def _hensel_step(f, g, h, s, t, m):
    """One quadratic step: from f = g*h and s*g + t*h = 1 (mod m) to the same
    relations mod m^2, with g, h monic.  The modulus m^2 is not prime, but
    the mod-p helpers only invert leading coefficients, which are 1 here."""
    m2 = m * m
    e = _psub(f, _pmul(g, h, m2), m2)
    q, r = _pdivmod(_pmul(s, e, m2), h, m2)
    g1 = _padd(_padd(g, _pmul(t, e, m2), m2), _pmul(q, g, m2), m2)
    h1 = _padd(h, r, m2)
    b = _psub(_padd(_pmul(s, g1, m2), _pmul(t, h1, m2), m2), [1], m2)
    c, d = _pdivmod(_pmul(s, b, m2), h1, m2)
    s1 = _psub(s, d, m2)
    t1 = _psub(_psub(t, _pmul(t, b, m2), m2), _pmul(c, g1, m2), m2)
    return g1, h1, s1, t1


def _hensel_lift(f, factors, p, target):
    """Lift monic factors of monic f from mod p to mod target = p^(2^t)."""
    if len(factors) == 1:
        return [_zmod(f, target)]
    half = len(factors) // 2
    g = [1]
    for fac in factors[:half]:
        g = _pmul(g, fac, p)
    h = [1]
    for fac in factors[half:]:
        h = _pmul(h, fac, p)
    _, s, t = _pext_gcd(g, h, p)
    m = p
    while m < target:
        g, h, s, t = _hensel_step(_zmod(f, m * m), g, h, s, t, m)
        m = m * m
    g, h = _zmod(g, target), _zmod(h, target)
    return _hensel_lift(g, factors[:half], p, target) + _hensel_lift(
        h, factors[half:], p, target
    )


# ---- recombination over Z ----

def _symmetric(a, m):
    return [c - m if c > m // 2 else c for c in _zmod(a, m)]


def _quotient(g, f):
    """f / g for a primitive g, or None when g does not divide f: the
    constant terms rule most candidates out at once, and a primitive g
    that divides f over Q divides it over Z (Gauss's lemma), where
    `polys.divmod_poly` returns the exact quotient."""
    if not g[0] or f[0] % g[0]:
        return None
    quot, rem, _ = polys.divmod_poly(f, g)
    return None if rem else quot


def _multiplicity(g: list[int], f: list[int]) -> int:
    """The largest m with g^m | f over Z."""
    m = 0
    while (f := _quotient(g, f)) is not None:
        m += 1
    return m


def _factor_squarefree_int(f: list[int], p: int) -> list[list[int]]:
    """Irreducible primitive factors of a primitive squarefree integer
    polynomial f with positive leading coefficient b, given an odd prime p
    with p not dividing b and f squarefree mod p past degree 2."""
    n = len(f) - 1
    if n <= 1:
        return [f] if n == 1 else []
    if n == 2:  # c + b z + a z^2 splits over Q iff b^2 - 4ac is a square s^2
        c, b, a = f
        s = isqrt(max(disc := b * b - 4 * a * c, 0))
        if s * s != disc:
            return [f]
        return [[x // int_gcd(b + r, 2 * a) for x in (b + r, 2 * a)]
                for r in (-s, s)]  # (2az + b - s)(2az + b + s) = 4a f
    b = f[-1]
    binv = pow(b, -1, p)
    mod_factors = sorted(_factor_mod_p([c * binv % p for c in f], p,
                                       random.Random(_RNG_SEED)))
    if len(mod_factors) == 1:
        return [f]
    bound = 2 ** (n + 1) * (isqrt(sum(c * c for c in f)) + 1) * b
    target = p
    while target <= 2 * bound:
        target *= target
    binv = pow(b, -1, target)
    lifted = _hensel_lift(_zmod([c * binv for c in f], target), mod_factors,
                          p, target)
    result = []
    remaining = list(range(len(lifted)))
    current = f
    size = 1
    while 2 * size <= len(remaining):
        for combo in itertools.combinations(remaining, size):
            prod = reduce(lambda u, i: _pmul(u, lifted[i], target), combo,
                          [current[-1]])
            cand = _symmetric(prod, target)  # lc(cand) = lc(current) > 0
            g = int_gcd(*cand)
            cand = [c // g for c in cand]
            quot = _quotient(cand, current)
            if quot is not None:
                result.append(cand)
                current = quot
                remaining = [i for i in remaining if i not in combo]
                break
        else:
            size += 1
    return result + [current] if len(current) > 1 else result


def _odd_primes():
    n = 1
    while True:
        n += 2
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


def _lifting_prime(f: list[int], primes) -> int | None:
    """The first of `primes` not dividing lc(f) with f squarefree mod p."""
    for p in primes:
        fp = _zmod(f, p)
        if f[-1] % p and len(_pgcd(fp, _pderiv(fp, p), p)) == 1:
            return p


# ---- driver ----

def factor_key(g: list[int]) -> tuple:
    """The report's key of a factor g: its coefficients, low degree
    first, made monic over Q."""
    return tuple(Fraction(c, g[-1]) for c in g)


def factor_rational_poly(f: list) -> list[tuple[list[int], int]]:
    """The irreducible factors over Q of f, an integer or rational list,
    but z (a unit): each primitive, with its multiplicity, 1 if f is
    certified squarefree and else read by division, so that prod(g ** m)
    is `polys.primitive(f)` up to z^k.  They come in the report's order:
    by degree, then by the nonzero (degree, coefficient) pairs of their
    keys (`factor_key`), each c / lc read as the integer c L / lc for the
    lcm L of the leading coefficients."""
    f = polys.primitive(f)
    if not f:
        raise ValueError("cannot factor zero")
    f = f[next(i for i, c in enumerate(f) if c):]
    sf, q = f, None
    if len(f) > 3 or len(f) == 3 and f[1] ** 2 == 4 * f[0] * f[2]:
        q = _lifting_prime(f, itertools.islice(_odd_primes(), 11))
        if q is None:  # f may repeat a factor; f / gcd(f, f') does not
            sf = polys.divmod_poly(f, polys.gcd(f, polys.derivative(f)))[0]
            q = _lifting_prime(sf, _odd_primes())
    factors = [(g, 1 if sf is f else _multiplicity(g, f))
               for g in _factor_squarefree_int(sf, q)]
    prod = reduce(polys.mul, (g for g, m in factors for _ in range(m)), [1])
    check(prod == f, "factorization lost a factor")
    big = lcm(*(g[-1] for g, _ in factors))
    return sorted(factors, key=lambda gm: (len(gm[0]), [
        (i, c * (big // gm[0][-1])) for i, c in enumerate(gm[0]) if c]))
