"""Reference computations made apart from wittkit.

Every check here uses only ``fractions.Fraction`` and plain integers, so a
fault in wittkit's exact layers cannot hide itself by also corrupting the
value it is compared against.  Each ``check_*`` function returns a list of
failure messages; an empty list means the answer passed.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import product


# ---------------------------------------------------------------------------
# linear algebra over Q
# ---------------------------------------------------------------------------

def det(rows) -> Fraction:
    """Determinant by Gaussian elimination over Q."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    out = Fraction(1)
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != k:
            a[k], a[piv] = a[piv], a[k]
            out = -out
        out *= a[k][k]
        for i in range(k + 1, n):
            if a[i][k] != 0:
                f = a[i][k] / a[k][k]
                a[i] = [x - f * y for x, y in zip(a[i], a[k])]
    return out


def interpolate(xs, ys) -> list:
    """Coefficients (constant first) of the polynomial of degree
    < len(xs) through the points, by Newton divided differences."""
    n = len(xs)
    coef = [Fraction(y) for y in ys]
    for j in range(1, n):
        for i in range(n - 1, j - 1, -1):
            coef[i] = (coef[i] - coef[i - 1]) / (xs[i] - xs[i - j])
    poly = [Fraction(0)] * n
    for i in range(n - 1, -1, -1):
        # poly = poly * (x - xs[i]) + coef[i]
        shifted = [Fraction(0)] + poly[:-1]
        poly = [s - xs[i] * p for s, p in zip(shifted, poly)]
        poly[0] += coef[i]
    return poly


def det_pencil(a, b) -> list:
    """Coefficients of det(t*a + b) in t, by evaluation at n + 1 points
    and interpolation."""
    n = len(a)
    xs = [Fraction(k) for k in range(n + 1)]
    ys = [det([[x * a[i][j] + b[i][j] for j in range(n)] for i in range(n)])
          for x in xs]
    return trim(interpolate(xs, ys))


def trim(p) -> list:
    p = list(p)
    while p and p[-1] == 0:
        p.pop()
    return p


def poly_mul(p, q) -> list:
    if not p or not q:
        return []
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def normalized_alexander(psi, epsilon: int) -> list:
    """det(t psi + eps psi^T) with leading zeros of low degree dropped and a
    positive top coefficient: wittkit's normalization of the Alexander
    polynomial."""
    n = len(psi)
    if n == 0:
        return [Fraction(1)]
    psit = [[epsilon * psi[j][i] for j in range(n)] for i in range(n)]
    p = det_pencil(psi, psit)
    while p and p[0] == 0:
        p.pop(0)
    if p and p[-1] < 0:
        p = [-c for c in p]
    return p


def charpoly(h) -> list:
    """Monic det(z I - h), constant first."""
    n = len(h)
    ident = [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]
    neg_h = [[-Fraction(x) for x in row] for row in h]
    return det_pencil(ident, neg_h)


def signature(rows) -> int:
    """Signature of a symmetric rational matrix by congruence
    diagonalization; a zero diagonal pivot is cured by adding a row and
    column that carry an off-diagonal entry."""
    a = [[Fraction(x) for x in row] for row in rows]
    n = len(a)
    pos = neg = 0
    active = list(range(n))
    while active:
        k = next((i for i in active if a[i][i] != 0), None)
        if k is None:
            pair = next(((i, j) for i in active for j in active
                         if i != j and a[i][j] != 0), None)
            if pair is None:
                break  # the rest is zero
            i, j = pair
            for m in range(n):
                a[i][m] += a[j][m]
            for m in range(n):
                a[m][i] += a[m][j]
            k = i
        piv = a[k][k]
        if piv > 0:
            pos += 1
        else:
            neg += 1
        active.remove(k)
        for i in active:
            if a[i][k] != 0:
                f = a[i][k] / piv
                for m in range(n):
                    a[i][m] -= f * a[k][m]
        for i in active:
            a[i][k] = a[k][i] = Fraction(0)
    return pos - neg


def symmetrized(psi) -> list:
    n = len(psi)
    return [[psi[i][j] + psi[j][i] for j in range(n)] for i in range(n)]


# ---------------------------------------------------------------------------
# JSON readers
# ---------------------------------------------------------------------------

def dense_from_json(obj) -> list:
    """Dense coefficient list (constant first) of a {degree: "coeff"} JSON
    polynomial whose degrees are all non-negative."""
    coeffs = {int(d): Fraction(c) for d, c in obj.items()}
    if not coeffs:
        return []
    if min(coeffs) < 0:
        raise ValueError("negative degree in an ordinary polynomial")
    return trim([coeffs.get(d, Fraction(0)) for d in range(max(coeffs) + 1)])


# ---------------------------------------------------------------------------
# knot reports
# ---------------------------------------------------------------------------

def check_analyze(doc: dict, psi, epsilon: int, mirror: bool) -> list:
    """An `analyze` JSON report against the Seifert matrix it came from."""
    errors = []
    alex = dense_from_json(doc["alexander"])
    want = normalized_alexander(psi, epsilon)
    if alex != want:
        errors.append(f"alexander {alex} != det(t psi - psi^T) {want}")
    odd = sum(e["signature"] for e in doc["multisignature"]
              if e["level"] % 2 == 1)
    sig = signature(symmetrized(psi))
    if odd != sig:
        errors.append(f"odd-level sum {odd} != signature(psi + psi^T) {sig}")
    if mirror:
        for key in ("slice_obstructed", "doubly_slice_obstructed"):
            if doc[key] != "no_obstruction_found":
                errors.append(f"K # -K reports {key} = {doc[key]}")
        if not doc["witnesses"]:
            errors.append("K # -K carries no witnesses")
        else:
            errors += check_seifert_lagrangians(
                psi, [w["basis"] for w in doc["witnesses"]])
    return errors


def check_seifert_lagrangians(psi, bases) -> list:
    """Each basis spans a half-rank subspace on which psi vanishes."""
    errors = []
    n = len(psi)
    for basis in bases:
        b = [[Fraction(x) for x in row] for row in basis]
        cols = len(b[0]) if b else 0
        if 2 * cols != n:
            errors.append(f"witness has {cols} columns at rank {n}")
            continue
        for a in range(cols):
            for c in range(cols):
                val = sum(b[i][a] * psi[i][j] * b[j][c]
                          for i in range(n) for j in range(n))
                if val != 0:
                    errors.append("witness is not isotropic for psi")
                    break
        gram = [[sum(b[i][a] * b[i][c] for i in range(n))
                 for c in range(cols)] for a in range(cols)]
        if det(gram) == 0:
            errors.append("witness columns are dependent")
    return errors


def check_jumps(jumps: dict, odd_sums: dict, psi) -> list:
    errors = []
    for key, jump in jumps.items():
        if jump != odd_sums.get(key, 0):
            errors.append(f"jump {jump} != odd-level sum "
                          f"{odd_sums.get(key, 0)} at {key}")
    total = sum(jumps.values())
    sig = signature(symmetrized(psi))
    if total != sig:
        errors.append(f"jumps add up to {total}, signature(psi + psi^T) "
                      f"is {sig}")
    return errors


def lt_signatures(psi, turns) -> list:
    """Levine-Tristram signatures at omega = e^{2 pi i t}, 0 < t < 1/2,
    computed apart from wittkit's roots and cyclotomic fields.

    With u = tan(pi t) > 0, (1 - omega) psi + (1 - conj(omega)) psi^T is a
    positive multiple of the hermitian u S + i K, where S = psi + psi^T and
    K = psi^T - psi, so its signature is half that of the real symmetric
    M(u) = [[u S, -K], [K, u S]].  That is constant in u between the real
    roots of q(u) = det M(u), so it is taken exactly at a rational u_m near
    tan(pi t), once q is certified to have no root within delta of u_m:
    |q(u_m)| > delta * max |q'| on the interval.  delta covers the rounding
    of u_m plus 1e-9, far above the error of the float tan(pi t)."""
    n = len(psi)
    zero = [[Fraction(0)] * n for _ in range(n)]
    skew = [[psi[j][i] - psi[i][j] for j in range(n)] for i in range(n)]
    lin = _blocks(symmetrized(psi), zero, zero, symmetrized(psi))
    const = _blocks(zero, [[-x for x in row] for row in skew], skew, zero)
    q = det_pencil(lin, const)
    out = []
    for turn in turns:
        u_float = Fraction(math.tan(math.pi * turn))
        u = u_float.limit_denominator(10 ** 6)
        delta = abs(u - u_float) + Fraction(1, 10 ** 9)
        q_u = sum(c * u ** i for i, c in enumerate(q))
        slope = sum(i * abs(c) * (u + delta) ** (i - 1)
                    for i, c in enumerate(q) if i)
        if abs(q_u) <= slope * delta:
            raise ArithmeticError(f"cannot certify the sign pattern at "
                                  f"turn {turn}: an Alexander root is near")
        m = [[u * x + y for x, y in zip(lrow, crow)]
             for lrow, crow in zip(lin, const)]
        out.append(signature(m) // 2)
    return out


def _blocks(a, b, c, d) -> list:
    """The block matrix [[a, b], [c, d]]."""
    return ([ra + rb for ra, rb in zip(a, b)]
            + [rc + rd for rc, rd in zip(c, d)])


def check_turns(values, reference) -> list:
    """values: (turn, sigma(turn)) pairs from wittkit; reference: the
    signatures at the same turns from `lt_signatures`."""
    return [f"sigma({turn}) = {s}, the signature of the hermitian form "
            f"there is {want}"
            for (turn, s), want in zip(values, reference) if s != want]


# ---------------------------------------------------------------------------
# finite linking forms
# ---------------------------------------------------------------------------

def subgroup(gens, moduli) -> set:
    """All elements of the subgroup of (+) Z/moduli generated by gens."""
    zero = tuple(0 for _ in moduli)
    elems = {zero}
    frontier = [zero]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = tuple((a + b) % m for a, b, m in zip(x, g, moduli))
                if y not in elems:
                    elems.add(y)
                    nxt.append(y)
        frontier = nxt
    return elems


def check_witness(form: dict, matrix) -> tuple:
    """(errors, elements) for an oracle witness: generators are the
    columns of `matrix` in the form's generator basis."""
    p = form["prime"]
    moduli = [p ** int(l) for l in form["orders"]]
    gram = [[Fraction(x) for x in row] for row in form["gram"]]
    n = len(moduli)
    gens = [tuple(matrix[i][c] % moduli[i] for i in range(n))
            for c in range(len(matrix[0]) if matrix else 0)]
    errors = []
    for x, y in product(gens, repeat=2):
        val = sum(x[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
        if val.denominator != 1:
            errors.append(f"witness generators {x}, {y} pair to {val % 1}")
    elems = subgroup(gens, moduli)
    order = 1
    for m in moduli:
        order *= m
    if len(elems) ** 2 != order:
        errors.append(f"|L|^2 = {len(elems) ** 2} but |T| = {order}")
    return errors, elems


def check_linking_part(part: dict, form: dict, homogeneous_even: bool) -> list:
    """A `linking --search-bound` part: witnesses verified from scratch,
    classify against the oracle, and the even-level metabolic law."""
    errors = []
    oracle = part["oracle"]
    if oracle is None:
        return ["no oracle result"]
    found = {}
    for mode in ("any", "split", "complementary_pair"):
        res = oracle[mode]
        if not res["exhausted"]:
            errors.append(f"{mode}: search not exhausted")
        found[mode] = []
        for w in res["witnesses"]:
            errs, elems = check_witness(form, w)
            errors += [f"{mode}: {e}" for e in errs]
            found[mode].append(elems)
    pair = found["complementary_pair"]
    if len(pair) == 2 and len(pair[0] & pair[1]) != 1:
        errors.append("complementary pair meets nontrivially")
    if form["prime"] != 2:
        if part["metabolic"] != bool(found["any"]):
            errors.append(f"classify metabolic={part['metabolic']} but the "
                          f"oracle found {len(found['any'])} witnesses")
        if part["hyperbolic"] != bool(pair):
            errors.append(f"classify hyperbolic={part['hyperbolic']} but "
                          "the oracle disagrees")
    if homogeneous_even and not (part["metabolic"] and found["any"]):
        errors.append("even-level homogeneous form is not metabolic")
    return errors
