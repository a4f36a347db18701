"""Oracle for the remainder sequence in `wittkit.exact.polys`.

Euclid's loops over Q (`qpolys`), with `Fraction` coefficients: a gcd made
monic at every step, a Sturm chain r_(k+1) = -rem(r_(k-1), r_k) with
unnormalized coefficients, Sturm counts at rational points, and root
isolation on a squarefree part taken by a separate gcd(p, p').  The
integer primitive remainder sequence must give the same gcd up to a
positive scalar, chain members that are positive multiples of these, and
the same counts and brackets.  Signs at a point are read on each member's
positive integer multiple (`_cleared`), by Horner on integers: the same
signs as `qpolys.eval_at`, without a `Fraction` per step."""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from typing import Sequence

from qpolys import deg, derivative, divmod_poly, mod, monic, neg, trim


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


def _cleared(p: Sequence) -> list[int]:
    """p times the lcm of its denominators: a positive integer multiple,
    with p's signs at every point."""
    p = [Fraction(c) for c in p]
    d = lcm(*(c.denominator for c in p))
    return [c.numerator * (d // c.denominator) for c in p]


def _sign_at(p: list[int], x: Fraction) -> int:
    """The sign of p(x) for integer p, from den(x)^deg(p) p(x) by Horner
    on integers: `eval_at` over `Fraction`s gives the same sign at many
    times the cost."""
    n, d = x.numerator, x.denominator
    v, scale = 0, 1
    for c in reversed(p):
        v, scale = v * n + c * scale, scale * d
    return (v > 0) - (v < 0)


def variations(chain: list[list], x) -> int:
    """Sign changes of the chain at x, read on its members' cleared
    denominators."""
    return _variations([_cleared(q) for q in chain], Fraction(x))


def _variations(cleared: list[list[int]], x: Fraction) -> int:
    return _sign_changes([_sign_at(q, x) for q in cleared])


def sturm_count(chain: list[list], a, b) -> int:
    """Number of distinct real roots in (a, b] for a squarefree chain."""
    return variations(chain, a) - variations(chain, b)


def isolate_real_roots(p: Sequence, lo, hi) -> list[tuple[Fraction, Fraction]]:
    """Disjoint open-ended rational intervals (a, b], one distinct real root
    of p in each, all roots of p inside (lo, hi].  p need not be squarefree;
    roots are isolated for the squarefree part."""
    sf = monic(divmod_poly(p, gcd(p, derivative(p)))[0]) if deg(p) > 0 else trim(p)
    if deg(sf) <= 0:
        return []
    chain = [_cleared(q) for q in sturm_chain(sf)]
    lo, hi = Fraction(lo), Fraction(hi)
    out: list[tuple[Fraction, Fraction]] = []

    def count(a: Fraction, b: Fraction) -> int:
        return _variations(chain, a) - _variations(chain, b)

    def split(a: Fraction, b: Fraction, count_ab: int) -> None:
        if count_ab == 0:
            return
        if count_ab == 1:
            out.append((a, b))
            return
        m = (a + b) / 2
        # nudge off a root so interval endpoints stay root-free
        while _sign_at(chain[0], m) == 0:
            m = (a + m) / 2
        cl = count(a, m)
        split(a, m, cl)
        split(m, b, count_ab - cl)

    split(lo, hi, count(lo, hi))
    out.sort()
    return out
