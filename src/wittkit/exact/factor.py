"""Factorization of Laurent polynomials over Q.

Pipeline: strip the unit c*z^k, take the primitive integer part, split off
squarefree parts (Yun), then factor each squarefree integer polynomial by the
classical modular route: reduce modulo a small odd prime keeping the
reduction squarefree, factor there (distinct-degree then Cantor-Zassenhaus
splitting with a fixed RNG seed), Hensel-lift the factors above the Mignotte
coefficient bound, and recombine subsets.  Non-monic inputs are handled by
the monic substitution y = lc*x, which keeps every lift monic.

Factors are returned as monic ordinary polynomials (LaurentPoly with lowest
degree 0) together with multiplicities and the leftover unit, so that

    unit * prod(f_i ** m_i) == input

holds exactly.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from wittkit.errors import check
from wittkit.exact import polys
from wittkit.exact.laurent import LaurentPoly

_RNG_SEED = 0x5EED


# ---- integer polynomials modulo p (dense int lists, low degree first) ----

def _ptrim(a: list[int]) -> list[int]:
    while a and a[-1] == 0:
        a.pop()
    return a


def _padd(a, b, p):
    n = max(len(a), len(b))
    out = [0] * n
    for i, c in enumerate(a):
        out[i] = c
    for i, c in enumerate(b):
        out[i] = (out[i] + c) % p
    return _ptrim([c % p for c in out])


def _psub(a, b, p):
    return _padd(a, [(-c) % p for c in b], p)


def _pmul(a, b, p):
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % p
    return _ptrim(out)


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
    return _ptrim([(i * c) % p for i, c in enumerate(a)][1:])


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
        a = [rng.randrange(p) for _ in range(n)]
        a = _ptrim(a)
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

def _zmod(a, m):
    return _ptrim([c % m for c in a])


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


def _int_divides(cand, f):
    """Exact division test of integer polynomials (cand monic)."""
    r = list(f)
    q = [0] * max(len(r) - len(cand) + 1, 0)
    while len(r) >= len(cand):
        c = r[-1]
        k = len(r) - len(cand)
        q[k] = c
        for i, y in enumerate(cand):
            r[k + i] -= c * y
        while r and r[-1] == 0:
            r.pop()
    if r:
        return None
    return q


def _factor_squarefree_monic_int(f: list[int]) -> list[list[int]]:
    """Irreducible monic integer factors of a monic squarefree integer poly."""
    n = len(f) - 1
    if n <= 1:
        return [f] if n == 1 else []
    rng = random.Random(_RNG_SEED)
    p = None
    for cand in _odd_primes():
        fp = _ptrim([c % cand for c in f])
        if len(fp) - 1 != n:
            continue
        if len(_pgcd(fp, _pderiv(fp, cand), cand)) == 1:
            p = cand
            break
    mod_factors = sorted(_factor_mod_p(_ptrim([c % p for c in f]), p, rng))
    if len(mod_factors) == 1:
        return [f]
    norm = isqrt(sum(c * c for c in f)) + 1
    bound = 2 ** (n + 1) * norm
    target = p
    while target <= 2 * bound:
        target *= target
    lifted = _hensel_lift(f, mod_factors, p, target)
    result = []
    remaining = list(range(len(lifted)))
    current = list(f)
    size = 1
    while 2 * size <= len(remaining):
        found = False
        for combo in itertools.combinations(remaining, size):
            prod = [1]
            for i in combo:
                prod = _pmul(prod, lifted[i], target)
            cand = _symmetric(prod, target)
            quot = _int_divides(cand, current)
            if quot is not None:
                result.append(cand)
                current = quot
                remaining = [i for i in remaining if i not in combo]
                found = True
                break
        if not found:
            size += 1
    if len(current) > 1:
        result.append(current)
    return result


def _odd_primes():
    yield from (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53)
    n = 55
    while True:
        n += 2
        if all(n % d for d in range(3, isqrt(n) + 1, 2)):
            yield n


# ---- driver ----

def factor_rational_poly(p: LaurentPoly) -> tuple[LaurentPoly, list[tuple[LaurentPoly, int]]]:
    """Factor p over Q[z, z^-1].

    Returns (unit, factors) where unit = c * z^k, the factors are monic
    irreducible ordinary polynomials (as LaurentPoly) paired with their
    multiplicities, and unit * prod(f**m) == p exactly.
    """
    if p.is_zero():
        raise ValueError("cannot factor zero")
    dense, k = p.ordinary()
    factors: list[tuple[LaurentPoly, int]] = []
    for sf, mult in polys.squarefree_decomposition(dense):
        _, prim = polys.content_primitive(sf)
        for g in _factor_primitive_int(prim):
            glp = LaurentPoly.from_dense(polys.monic([Fraction(x) for x in g]))
            factors.append((glp, mult))
    factors.sort(key=lambda fm: (fm[0].max_deg(), sorted(fm[0].coeffs.items())))
    prod = LaurentPoly.one()
    for f, m in factors:
        prod = prod * f**m
    # whatever is left over is the unit c * z^k
    quot_dense, rem = polys.divmod_poly(dense, prod.ordinary()[0])
    check(not rem and polys.deg(quot_dense) == 0,
          "factorization lost a factor")
    unit_scalar = quot_dense[0]
    unit = LaurentPoly.monomial(unit_scalar, k)
    return unit, factors


def _factor_primitive_int(f: list[int]) -> list[list[int]]:
    """Monic-substitution wrapper: factors a primitive squarefree integer
    polynomial, returning integer factor polynomials (not necessarily monic
    after mapping back; callers normalize)."""
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [f]
    lc = f[-1]
    if lc == 1:
        monic_f = list(f)
        scale = 1
    else:
        # y = lc * x turns f into a monic polynomial in y of the same degree
        scale = lc
        monic_f = [c * lc ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    parts = _factor_squarefree_monic_int(monic_f)
    if scale == 1:
        return parts
    out = []
    for part in parts:
        d = len(part) - 1
        mapped = [c * scale**i for i, c in enumerate(part)]
        _, prim = polys.content_primitive([Fraction(c) for c in mapped])
        out.append(prim)
    return out

