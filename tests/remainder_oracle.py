"""Oracle for the remainder sequence in `wittkit.exact.polys`.

Euclid's loops over Q (`qpolys`), with `Fraction` coefficients: a gcd made
monic at every step, a Sturm chain r_(k+1) = -rem(r_(k-1), r_k) with
unnormalized coefficients, Sturm counts at rational points, and root
isolation on a squarefree part taken by a separate gcd(p, p').  The
integer primitive remainder sequence must give the same gcd up to a
positive scalar, chain members that are positive multiples of these, and
the same counts and brackets."""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence

from qpolys import deg, derivative, divmod_poly, eval_at, mod, monic, neg, trim


def gcd(p: Sequence, q: Sequence) -> list:
    """Monic gcd."""
    a, b = trim(p), trim(q)
    while b:
        a, b = b, mod(a, b)
        b = monic(b)  # keeps coefficients small
    return monic(a)


def sturm_chain(p: Sequence) -> list[list]:
    chain = [trim(p), derivative(p)]
    while chain[-1]:
        r = mod(chain[-2], chain[-1])
        chain.append(neg(r))
    chain.pop()
    return chain


def _sign_changes(values) -> int:
    signs = [1 if v > 0 else -1 for v in values if v != 0]
    return sum(1 for a, b in zip(signs, signs[1:]) if a != b)


def sturm_count(chain: list[list], a, b) -> int:
    """Number of distinct real roots in (a, b] for a squarefree chain."""
    va = _sign_changes([eval_at(q, a) for q in chain])
    vb = _sign_changes([eval_at(q, b) for q in chain])
    return va - vb


def isolate_real_roots(p: Sequence, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open-ended rational intervals (a, b], one distinct real root
    of p in each, all roots of p inside (lo, hi].  p need not be squarefree;
    roots are isolated for the squarefree part."""
    sf = monic(divmod_poly(p, gcd(p, derivative(p)))[0]) if deg(p) > 0 else trim(p)
    if deg(sf) <= 0:
        return []
    chain = sturm_chain(sf)
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
