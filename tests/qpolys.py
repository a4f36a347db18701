"""Sums and products of dense polynomials over Q that only tests and
oracles need: `wittkit.exact.polys` keeps the remainders, gcds and Sturm
chains, and wittkit's products run on integers."""

from fractions import Fraction

from wittkit.exact.polys import trim


def add(p, q) -> list:
    out = [Fraction(0)] * max(len(p), len(q))
    for i, c in enumerate(p):
        out[i] += c
    for i, c in enumerate(q):
        out[i] += c
    return trim(out)


def neg(p) -> list:
    return [-c for c in p]


def sub(p, q) -> list:
    return add(p, neg(q))


def scal(c, p) -> list:
    c = Fraction(c)
    return [c * x for x in p] if c else []


def mul(p, q) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            out[i + j] += a * b
    return trim(out)
