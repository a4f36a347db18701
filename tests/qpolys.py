"""Dense polynomials over Q, as lists of `Fraction`s, low degree first,
with no trailing zeros: the reference that `wittkit.exact.polys`, which
runs on integers, is compared with, and the arithmetic the other oracles
do over Q.  Euclid's remainder sequences over Q are `remainder_oracle`'s."""

from fractions import Fraction
from math import lcm
from typing import Sequence


def trim(p: Sequence) -> list:
    p = list(p)
    while p and not p[-1]:
        p.pop()
    return p


def from_ints(cs, d: int = 1) -> list:
    """The polynomial with coefficients c / d."""
    return trim([Fraction(c, d) for c in cs])


def ints(p: Sequence) -> list:
    """p times the lcm of its denominators: an integer polynomial that is a
    positive multiple of p."""
    d = lcm(*(Fraction(c).denominator for c in p))
    return [int(c * d) for c in trim(p)]


def deg(p: Sequence) -> int:
    """Degree; -1 for the zero polynomial."""
    return len(p) - 1


def divmod_poly(p: Sequence, q: Sequence) -> tuple[list, list]:
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


def mod(p: Sequence, q: Sequence) -> list:
    return divmod_poly(p, q)[1]


def monic(p: Sequence) -> list:
    p = trim(p)
    return [c / p[-1] for c in p] if p and p[-1] != 1 else p


def derivative(p: Sequence) -> list:
    return trim([c * i for i, c in enumerate(p)][1:])


def eval_at(p: Sequence, x) -> Fraction:
    x = Fraction(x)
    total = Fraction(0)
    for c in reversed(list(p)):
        total = total * x + c
    return total


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


def compose(p: Sequence, a, b) -> list:
    """p(a + b z), by Horner over Q."""
    out: list = []
    for c in reversed(list(p)):
        out = add(mul(out, [Fraction(a), Fraction(b)]), [Fraction(c)])
    return out


# ---- the substitution y = z + 1/z ----

def cos_poly(coeffs: Sequence, offset: int = 0) -> list:
    """g with g(2 cos t) = sum_k c_k cos((k + offset) t), by the recurrence
    Q_0 = 2, Q_1 = y, Q_{j+1} = y Q_j - Q_{j-1}, Q_j(z + 1/z) = z^j + z^-j:
    g = sum_k c_k Q_|k + offset| / 2."""
    qs = [[Fraction(2)], [Fraction(0), Fraction(1)]]
    out: list = []
    for k, c in enumerate(coeffs):
        j = abs(k + offset)
        while len(qs) <= j:
            qs.append(sub(mul([Fraction(0), Fraction(1)], qs[-1]), qs[-2]))
        out = add(out, scal(Fraction(c) / 2, qs[j]))
    return out

