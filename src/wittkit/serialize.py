"""JSON codecs for the form types and reports.

Emission is deterministic: association keys are sorted, matrices are
row-major, and rationals are "num/den" strings (bare numerator when the
denominator is 1).  Every document emitted for a form type re-parses into
an equal value through the matching from_json function.  A scalar is read
from an integer or from such a string only: no float, bool, decimal point,
exponent or zero denominator.
"""

from __future__ import annotations

import re
from fractions import Fraction
from json.encoder import encode_basestring_ascii
from math import gcd, isfinite

from wittkit.errors import NotAKnotForm
from wittkit.exact.factor import factor_key
from wittkit.exact.laurent import LaurentPoly
from wittkit.exact.matrix import Matrix
from wittkit.finite import FiniteLinkingForm
from wittkit.knots import KnotInput, ObstructionReport
from wittkit.laurent_forms import DWMultiSignatureLaurent
from wittkit.seifert import SeifertSubmodule


def dumps(doc) -> str:
    """`json.dumps(doc, sort_keys=True, indent=2) + "\\n"`, byte for byte,
    without json's pure-Python indenting encoder, for dicts with `str`
    keys, lists, tuples, `str`, `int`, finite `float`, `bool` and None;
    anything else raises TypeError."""
    out = []
    _write(doc, "\n", out)
    return "".join(out) + "\n"


def _write(x, newline: str, out: list) -> None:
    if isinstance(x, (list, tuple, dict)) and x:
        inner = newline + "  "
        sep, is_dict = inner, isinstance(x, dict)
        out.append("{" if is_dict else "[")
        for k in sorted(x) if is_dict else x:
            if not is_dict:
                head, v = sep, k
            elif isinstance(k, str):
                head, v = sep + encode_basestring_ascii(k) + ": ", x[k]
            else:
                raise TypeError("JSON object keys must be str")
            # a scalar member is written with its separator in one piece
            if isinstance(v, (list, tuple, dict)):
                out.append(head)
                _write(v, inner, out)
            else:
                out.append(head + _scalar_json(v))
            sep = "," + inner
        out.append(newline + ("}" if is_dict else "]"))
    else:
        out.append("{}" if isinstance(x, dict) else "[]"
                   if isinstance(x, (list, tuple)) else _scalar_json(x))


def _scalar_json(x) -> str:
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None or isinstance(x, bool):
        return "null" if x is None else "true" if x else "false"
    if isinstance(x, int):
        return int.__repr__(x)
    if isinstance(x, float) and isfinite(x):
        return float.__repr__(x)
    raise TypeError(f"{type(x).__name__} {x!r:.40} is not JSON")


def fraction_str(x) -> str:
    return str(Fraction(x))


def _scalar(x):
    """int when integral, "num/den" string otherwise."""
    f = Fraction(x)
    return int(f) if f.denominator == 1 else str(f)


_RATIONAL = re.compile(r"\s*([+-]?\d+)(?:\s*/\s*(\d*[1-9]\d*))?\s*")


def parse_fraction(s) -> Fraction:
    """An integer, or a "num" or "num/den" string with den > 0: no bool,
    float, decimal point or exponent, as `Fraction` alone would read
    "1e999999", 9 bytes, as a million-digit integer."""
    if isinstance(s, str) and (m := _RATIONAL.fullmatch(s)):
        return Fraction(int(m[1]), int(m[2] or 1))
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise ValueError(f"{s!r:.40} is not an integer or a 'num/den' string "
                     "with den > 0")


def parse_int(s) -> int:
    if isinstance(s, int) and not isinstance(s, bool):
        return s
    f = parse_fraction(s)
    if f.denominator != 1:
        raise ValueError(f"expected an integer, got {s!r}")
    return int(f)


# -- Laurent polynomials --

def laurent_to_json(p: LaurentPoly) -> dict:
    return {str(d): fraction_str(c) for d, c in sorted(p.coeffs.items())}


def _key_json(key: tuple) -> dict:
    """A factor's key (`factor.factor_key`, `Fraction`s) as its Laurent
    polynomial."""
    return {str(d): str(c) for d, c in enumerate(key) if c}


def laurent_from_json(obj) -> LaurentPoly:
    if not isinstance(obj, dict):
        raise ValueError("a Laurent polynomial is a {degree: coefficient} "
                         "object")
    return LaurentPoly({int(d): parse_fraction(c) for d, c in obj.items()})


def _matrix_json(m: Matrix, cell) -> list:
    return [[cell(m[i, j]) for j in range(m.ncols)] for i in range(m.nrows)]


def _rows_from_json(rows, cell) -> list:
    if not isinstance(rows, list) or any(not isinstance(r, list) for r in rows):
        raise ValueError("a matrix is a row-major array of arrays")
    return [[cell(x) for x in row] for row in rows]


# -- finite linking forms --

def finite_form_to_json(form: FiniteLinkingForm) -> dict:
    q = form.q
    return {
        "prime": form.prime,
        "orders": list(form.orders),
        # x / q in lowest terms, as fraction_str writes it
        "gram": [[f"{x // g}/{q // g}" if (g := gcd(x, q)) < q else "0"
                  for x in row] for row in form.num],
        "epsilon": form.epsilon,
    }


def finite_form_from_json(obj) -> FiniteLinkingForm:
    if not isinstance(obj["orders"], list):
        raise ValueError("'orders' is an array of integers")
    return FiniteLinkingForm(
        parse_int(obj["prime"]),
        [parse_int(l) for l in obj["orders"]],
        _rows_from_json(obj["gram"], parse_fraction),
        parse_int(obj["epsilon"]),
    )


def oracle_result_to_json(result: dict) -> dict:
    return {
        "mode": result["mode"],
        "witnesses": [[[int(x) for x in row] for row in w]
                      for w in result["witnesses"]],
        "exhausted": bool(result["exhausted"]),
    }


def submodule_to_json(sub: SeifertSubmodule) -> dict:
    return {"basis": _matrix_json(sub.basis, _scalar)}


# -- knots and reports --

def knot_to_json(k: KnotInput) -> dict:
    doc = {
        "name": k.name,
        "psi": _matrix_json(k.psi, _scalar),
        "epsilon": k.epsilon,
    }
    if k.dimension_hint is not None:
        doc["dimension_hint"] = k.dimension_hint
    return doc


def knot_from_json(obj) -> KnotInput:
    if not isinstance(obj, dict) or "psi" not in obj or "epsilon" not in obj:
        raise NotAKnotForm("a knot document needs 'psi' and 'epsilon'")
    hint = obj.get("dimension_hint")
    return KnotInput(
        obj.get("name", "knot"),
        _rows_from_json(obj["psi"], parse_fraction),
        parse_int(obj["epsilon"]),
        None if hint is None else parse_int(hint),
    )


def multisignature_to_json(ms: DWMultiSignatureLaurent) -> list:
    out = []
    for (pk, ridx, level), signature in ms.entries():
        root = ms.theta(pk, ridx)
        lo, hi = root.theta_interval()
        out.append({
            "factor": _key_json(pk),
            "theta": {"interval": [lo, hi], "approx": (lo + hi) / 2},
            "level": level,
            "signature": signature,
        })
    return out


def multisignature_notes(ms: DWMultiSignatureLaurent) -> list:
    """Rank-only and conjugate-pair bookkeeping as report notes: those
    levels carry no real signature but should stay visible."""
    notes = []
    for (pk, level), rank in sorted(ms.rank_only.items()):
        poly = LaurentPoly.from_dense(list(pk))
        notes.append(
            f"level {level} at factor {poly!r} is skew over a real residue "
            f"field: rank {rank}, no signature")
    for pa, pb in sorted(ms.conjugate_pairs):
        qa = LaurentPoly.from_dense(list(pa))
        qb = LaurentPoly.from_dense(list(pb))
        notes.append(
            f"factors {qa!r} and {qb!r} are conjugate partners and "
            "contribute hyperbolically")
    return notes


def report_to_json(report: ObstructionReport) -> dict:
    witnesses = None
    if report.witnesses is not None:
        witnesses = [submodule_to_json(sub) for sub in report.witnesses]
    return {
        "name": report.name,
        "alexander": laurent_to_json(report.alexander),
        "factorization": [
            {"factor": _key_json(factor_key(p)), "multiplicity": mult}
            for p, mult in report.factorization
        ],
        "multisignature": multisignature_to_json(report.multisignature),
        "slice_obstructed": report.slice_obstructed,
        "doubly_slice_obstructed": report.doubly_slice_obstructed,
        "rochlin": report.rochlin,
        "witnesses": witnesses,
        "notes": list(report.notes) + multisignature_notes(
            report.multisignature),
        "convention": {
            "sigma_sign": report.convention["sigma_sign"],
            "precision": fraction_str(report.convention["precision"]),
        },
    }
