"""Oracle for `wittkit.exact.factor.factor_rational_poly`.

The route the factorizer took before it ran on integers from end to end:
squarefree parts by Yun's algorithm over `Fraction`s
(`squarefree_decomposition`, on the monic gcd of `remainder_oracle`), then
each primitive squarefree part made monic by the substitution y = lc*x
(which multiplies the i-th coefficient by lc^(n-1-i)), its monic factors
Hensel-lifted above the bound of the substituted polynomial and recombined,
and the factors mapped back by x = y/lc.  The product check ran on
`LaurentPoly`s with a `Fraction` division.  Factoring modulo p and the
quadratic Hensel step are shared with `wittkit`; only the driver around them
is kept here, and the schoolbook product mod m (`schoolbook_mul_mod`) that
`factor._pmul` was before it reduced `polys.mul` once."""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import isqrt

from wittkit.exact import polys
from wittkit.exact.factor import (
    _RNG_SEED,
    _factor_mod_p,
    _hensel_lift,
    _odd_primes,
    _pderiv,
    _pgcd,
    _pmul,
    _ptrim,
    _symmetric,
)
from wittkit.exact.laurent import LaurentPoly

from remainder_oracle import gcd
import qpolys


def squarefree_decomposition(p):
    """Yun's algorithm over Q.  Returns monic squarefree factors with
    multiplicities; the product with multiplicities equals monic(p)."""
    p = qpolys.monic(p)
    if qpolys.deg(p) <= 0:
        return []
    out = []
    g = gcd(p, qpolys.derivative(p))
    w = qpolys.divmod_poly(p, g)[0]
    y = qpolys.divmod_poly(qpolys.derivative(p), g)[0]
    z = qpolys.sub(y, qpolys.derivative(w))
    i = 1
    while qpolys.deg(w) > 0:
        gi = gcd(w, z)
        if qpolys.deg(gi) > 0:
            out.append((qpolys.monic(gi), i))
        w = qpolys.divmod_poly(w, gi)[0]
        y = qpolys.divmod_poly(z, gi)[0]
        z = qpolys.sub(y, qpolys.derivative(w))
        i += 1
    return out


def schoolbook_mul_mod(a, b, m):
    """a b mod m, coefficients in [0, m), by the double loop reduced at
    every step that `factor._pmul` ran before it reduced `polys.mul`
    once."""
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] = (out[i + j] + x * y) % m
    return _ptrim(out)


def _monic_divides(cand, f):
    """Quotient of f by the monic integer polynomial cand, or None."""
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
    return None if r else q


def _factor_squarefree_monic_int(f):
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
            quot = _monic_divides(cand, current)
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


def _factor_primitive_int(f):
    """Integer factors of a primitive squarefree integer polynomial through
    the monic substitution y = lc*x."""
    n = len(f) - 1
    if n <= 0:
        return []
    if n == 1:
        return [f]
    lc = f[-1]
    if lc == 1:
        return _factor_squarefree_monic_int(list(f))
    monic_f = [c * lc ** (n - 1 - i) for i, c in enumerate(f[:-1])] + [1]
    out = []
    for part in _factor_squarefree_monic_int(monic_f):
        mapped = [Fraction(c * lc**i) for i, c in enumerate(part)]
        out.append(polys.primitive(mapped))
    return out


def factor_rational_poly(p: LaurentPoly):
    """(unit, [(monic factor, multiplicity)]) with unit * prod == p."""
    if p.is_zero():
        raise ValueError("cannot factor zero")
    dense, k = p.ordinary()
    factors = []
    for sf, mult in squarefree_decomposition(dense):
        prim = polys.primitive(sf)
        for g in _factor_primitive_int(prim):
            glp = LaurentPoly.from_dense(qpolys.monic([Fraction(x) for x in g]))
            factors.append((glp, mult))
    factors.sort(key=lambda fm: (fm[0].max_deg(),
                                 sorted(fm[0].coeffs.items())))
    prod = LaurentPoly.one()
    for f, m in factors:
        prod = prod * f**m
    quot, rem = qpolys.divmod_poly(dense, prod.ordinary()[0])
    if rem or qpolys.deg(quot) != 0:
        raise AssertionError("oracle factorization lost a factor")
    return LaurentPoly.monomial(quot[0], k), factors
