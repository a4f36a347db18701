"""Command-line front end: input ingestion, report emission, oracle access,
catalog, and self-test.

Exit codes: 0 ok, 1 selftest failure, 2 input error, 3 computational error.
JSON output is deterministic (sorted keys); text output is a human summary.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
import time
from fractions import Fraction

from wittkit import serialize
from wittkit.catalog import CATALOG, catalog_knot, catalog_names
from wittkit.errors import (
    ComputationError,
    EvenPrimeUnsupported,
    InputError,
    check,
)
from wittkit.exact.roots import DEFAULT_PRECISION
from wittkit.finite import (
    FiniteLinkingForm,
    auxiliary_modules,
    boundary_of_form,
    dw_multisignature,
)
from wittkit.knots import (
    KnotInput,
    alexander_polynomial,
    analyze,
    blanchfield_form,
    connected_sum,
    knot_inverse,
    levine_tristram_signature,
    lt_jumps,
)
from wittkit.laurent_forms import (
    dw_multisignature_laurent,
    witt_forgetful_laurent,
)
from wittkit.seifert import (
    AutometricForm,
    covering_autometric,
    trace_chi,
    verify_roundtrip,
)
from wittkit.subgroups import (
    DEFAULT_SEARCH_BOUND,
    MODES,
    brute_force_lagrangians,
)


def parse_precision(text: str) -> Fraction:
    """Accept "num/den" (`serialize.parse_fraction`) or "2^-k" with k a
    nonnegative integer, in (0, 1] and with a denominator that the report
    can write (`sys.get_int_max_str_digits`, 0 for no limit)."""
    text = text.strip()
    if text.startswith("2^-"):
        if not text[3:].isdecimal():
            raise ValueError("in 2^-k, k must be a nonnegative integer")
        k, limit = int(text[3:]), sys.get_int_max_str_digits()
        if limit and k >= (10 ** limit).bit_length():  # 2^k >= 10^limit
            raise ValueError(f"cannot write 2^{k}: over {limit} digits")
        value = Fraction(1, 2 ** k)
    else:
        value = serialize.parse_fraction(text)
    if not 0 < value <= 1:
        raise ValueError("precision must be in (0, 1]")
    return value


_OPTIONS = {  # each command accepts only the options its cmd_* reads
    "input": dict(help="input JSON path ('-' for stdin)"),
    "output": dict(help="output path (default stdout)"),
    "format": dict(choices=("json", "text"), default="json"),
    "precision": dict(help="root isolation width, 'num/den' or '2^-k' "
                           "(env WITTKIT_PRECISION)"),
    "search-bound": dict(type=int,
                         help="subgroup budget for the brute-force oracle; "
                              "for 'linking' its presence requests oracle "
                              "witnesses"),
    "catalog": dict(metavar="NAME",
                    help="use a bundled Seifert matrix as the input"),
}


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wittkit",
        description="Witt-group invariants of linking forms and the "
                    "slice / doubly-slice obstructions of Seifert matrices",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb, options in (
        ("analyze", "obstruction report for a knot document",
         ("input", "output", "format", "precision", "catalog")),
        ("oracle", "brute-force lagrangian search on a finite linking form",
         ("input", "output", "format", "search-bound")),
        ("linking", "multisignature and classification of a linking form",
         ("input", "output", "format", "search-bound")),
        ("selftest", "run the built-in anchor suite", ("output", "precision")),
        ("catalog", "list or emit the bundled Seifert matrices",
         ("output", "format", "catalog")),
    ):
        p = sub.add_parser(name, help=blurb)
        for option in options:
            p.add_argument(f"--{option}", **_OPTIONS[option])
    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Read --precision (or WITTKIT_PRECISION) into a Fraction in place and
    refuse a bad value or a search bound below 1 with ValueError.  Each
    command's namespace carries only the options that command accepts."""
    if hasattr(args, "precision"):
        text, name = args.precision, "--precision"
        if text is None:
            text = os.environ.get("WITTKIT_PRECISION") or None
            name = "--precision from WITTKIT_PRECISION"
        try:
            args.precision = (DEFAULT_PRECISION if text is None
                              else parse_precision(text))
        except ValueError as exc:
            raise ValueError(f"{name} {text!r:.40}: {exc}") from None
    if getattr(args, "search_bound", None) is not None \
            and args.search_bound < 1:
        raise ValueError("--search-bound must be positive")


def _load_doc(config: argparse.Namespace):
    if config.input is None:
        raise ValueError("no --input given")
    try:  # json.load recurses once per level of nesting
        if config.input == "-":
            return json.load(sys.stdin)
        with open(config.input) as fh:
            return json.load(fh)
    except RecursionError:
        raise ValueError("the document nests too deeply") from None


def _emit(config: argparse.Namespace, text: str) -> None:
    if config.output is None or config.output == "-":
        sys.stdout.write(text)
    else:
        with open(config.output, "w") as fh:
            fh.write(text)


# ---------------------------------------------------------------------------
# text rendering
# ---------------------------------------------------------------------------

def _report_text(doc: dict) -> str:
    lines = [f"knot: {doc['name']}",
             f"alexander: {serialize.poly_text(doc['alexander'])}"]
    factors = " * ".join(
        f"({serialize.poly_text(f['factor'])})^{f['multiplicity']}"
        for f in doc["factorization"])
    lines.append(f"factorization: {factors}")
    if doc["multisignature"]:
        lines.append("multisignature:")
        for entry in doc["multisignature"]:
            lines.append(
                f"  factor {serialize.poly_text(entry['factor'])}, "
                f"theta ~ {entry['theta']['approx']:.6f}, "
                f"level {entry['level']}: {entry['signature']:+d}")
    else:
        lines.append("multisignature: empty")
    lines.append(f"slice obstruction: {doc['slice_obstructed']}")
    lines.append(f"doubly-slice obstruction: {doc['doubly_slice_obstructed']}")
    if doc["rochlin"] is not None:
        lines.append(f"rochlin: {doc['rochlin']}")
    if doc["witnesses"] is not None:
        lines.append("hyperbolic witnesses:")
        for w in doc["witnesses"]:
            lines.append(f"  basis {w['basis']}")
    lines.append("notes:")
    for note in doc["notes"]:
        lines.append(f"  - {note}")
    conv = doc["convention"]
    lines.append(f"convention: sigma_sign {conv['sigma_sign']:+d}, "
                 f"precision {conv['precision']}")
    return "\n".join(lines) + "\n"


def _linking_text(doc: dict) -> str:
    lines = []
    for part in doc["parts"]:
        form = part["form"]
        lines.append(f"part p = {form['prime']}: orders {form['orders']}, "
                     f"epsilon {form['epsilon']:+d}")
        if part["multisignature"] is None:
            lines.append("  multisignature: unavailable at p = 2")
        elif part["multisignature"]:
            for e in part["multisignature"]:
                lines.append(
                    f"  sigma({e['prime']}, level {e['level']}): rank "
                    f"{e['rank_mod_2']} mod 2, {e['discriminant']} "
                    "discriminant")
        else:
            lines.append("  multisignature: empty")
        for q in ("metabolic", "hyperbolic"):
            if part[q] is not None:
                lines.append(f"  {q}: {'yes' if part[q] else 'no'}")
        if part["oracle"] is not None:
            lines.append(f"  oracle verdict: {part['verdict']}")
            for mode in MODES:
                res = part["oracle"][mode]
                lines.append(f"    {mode}: witnesses {res['witnesses']}")
        for note in part["notes"]:
            lines.append(f"  note: {note}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# commands
# ---------------------------------------------------------------------------

def cmd_analyze(config: argparse.Namespace) -> int:
    if config.catalog is not None:
        knot = catalog_knot(config.catalog)
    else:
        knot = serialize.knot_from_json(_load_doc(config))
    report = serialize.report_to_json(analyze(knot, config.precision))
    if config.format == "json":
        _emit(config, serialize.dumps(report))
    else:
        _emit(config, _report_text(report))
    return 0


def _run_oracle(form: FiniteLinkingForm, bound: int) -> dict:
    found = brute_force_lagrangians(form, bound)
    return {mode: serialize.oracle_result_to_json(found[mode])
            for mode in MODES}


def _oracle_verdict(results: dict) -> str:
    lagrangian, split, pair = (results[mode]["witnesses"] for mode in MODES)
    if not lagrangian:
        return "not metabolic"
    if not split:
        return "metabolic, not split metabolic"
    if pair:
        return "hyperbolic: complementary split lagrangians found"
    return "split metabolic, no complementary pair"


def _linking_part(form: FiniteLinkingForm,
                  config: argparse.Namespace) -> dict:
    part = {
        "form": serialize.finite_form_to_json(form),
        "multisignature": None,
        "metabolic": None,
        "hyperbolic": None,
        "oracle": None,
        "verdict": None,
        "notes": [],
    }
    want_oracle = config.search_bound is not None
    if form.prime == 2:
        if not want_oracle:
            raise EvenPrimeUnsupported(
                "the 2-primary classification has no multisignature; "
                "request the brute-force oracle with --search-bound or "
                "the oracle command")
        part["notes"].append(
            "p = 2: no multisignature; classification below comes from "
            "the exhaustive lagrangian search")
    else:
        ms = dw_multisignature(form)
        part["multisignature"] = [
            {"prime": p, "level": l, "rank_mod_2": c.rank_mod_2,
             "discriminant": c.discriminant_class}
            for (p, l), c in ms.items()
        ]
        part["metabolic"] = ms.is_metabolic
        part["hyperbolic"] = ms.all_zero
    if want_oracle:
        results = _run_oracle(form, config.search_bound)
        part["oracle"] = results
        part["verdict"] = _oracle_verdict(results)
    return part


def cmd_linking(config: argparse.Namespace) -> int:
    doc = _load_doc(config)
    if isinstance(doc, dict) and "prime" in doc:
        forms = [serialize.finite_form_from_json(doc)]
    elif isinstance(doc, dict) and "alpha" in doc:
        alpha = serialize._rows_from_json(doc["alpha"], serialize.parse_int)
        parts = boundary_of_form(alpha, serialize.parse_int(doc["epsilon"]))
        forms = [parts[p] for p in sorted(parts)]
    else:
        raise ValueError(
            "a linking document is an object with 'prime' (finite form) or "
            "'alpha' (boundary of an integral form)")
    out = {"parts": [_linking_part(f, config) for f in forms]}
    if config.format == "json":
        _emit(config, serialize.dumps(out))
    else:
        _emit(config, _linking_text(out))
    return 0


def cmd_oracle(config: argparse.Namespace) -> int:
    form = serialize.finite_form_from_json(_load_doc(config))
    bound = config.search_bound or DEFAULT_SEARCH_BOUND
    results = _run_oracle(form, bound)
    out = {
        "form": serialize.finite_form_to_json(form),
        "results": results,
        "verdict": _oracle_verdict(results),
    }
    if config.format == "json":
        _emit(config, serialize.dumps(out))
    else:
        lines = [f"verdict: {out['verdict']}"]
        for mode in MODES:
            lines.append(f"{mode}: witnesses {results[mode]['witnesses']}")
        _emit(config, "\n".join(lines) + "\n")
    return 0


def cmd_catalog(config: argparse.Namespace) -> int:
    if config.catalog is not None:
        doc = serialize.knot_to_json(catalog_knot(config.catalog))
        doc["note"] = CATALOG[config.catalog]["note"]
        if config.format == "json":
            _emit(config, serialize.dumps(doc))
        else:
            _emit(config, f"{doc['name']}: psi {doc['psi']}, epsilon "
                          f"{doc['epsilon']:+d}\n  {doc['note']}\n")
        return 0
    if config.format == "json":
        entries = [
            dict(serialize.knot_to_json(catalog_knot(name)),
                 note=CATALOG[name]["note"])
            for name in catalog_names()
        ]
        _emit(config, serialize.dumps({"entries": entries}))
    else:
        lines = [f"{name}: {CATALOG[name]['note']}"
                 for name in catalog_names()]
        _emit(config, "\n".join(lines) + "\n")
    return 0


# ---------------------------------------------------------------------------
# selftest
# ---------------------------------------------------------------------------

def _selftest_anchors(precision: Fraction):
    def trace_function():
        for a in (Fraction(1), Fraction(2), Fraction(-3), Fraction(1, 2)):
            # 1/(a - z) = q / (p - q z) for a = p / q
            p, q = a.numerator, a.denominator
            check(trace_chi(([q], 1), [p, -q]) == 1 / a,
                  f"chi(1/({a}-z)) != 1/{a}")

    def covering_sign():
        cov = covering_autometric(AutometricForm([[1]], [[-1]], 1))
        check(cov.epsilon == -1, "covering must flip the symmetry")
        # M = 1 + z = M*, so -1/(1+z) has the numerator (-1, 1) over M*
        check(cov.module.chain == [[1, 1]] and cov.num == [[([-1], 1)]],
              "rank-one covering class is not -1/(1+z)")

    def monodromy_roundtrip():
        check(verify_roundtrip(AutometricForm([[1]], [[-1]], 1)),
              "rank-one round trip differs")
        check(verify_roundtrip(AutometricForm(
            [[0, 1], [1, 0]], [[2, 0], [0, Fraction(1, 2)]], 1)),
            "hyperbolic round trip differs")

    def auxiliary_levels():
        form = FiniteLinkingForm(
            2, [1, 2, 5],
            [[Fraction(1, 2), 0, 0], [0, Fraction(1, 4), 0],
             [0, 0, Fraction(1, 32)]], 1)
        check(auxiliary_modules(form) == {1: 1, 2: 1, 5: 1},
              "expected one auxiliary module at levels 1, 2 and 5")

    def boundary_lagrangian():
        parts = boundary_of_form([[4]], 1)
        form = parts[2]
        check(form.orders == (2,), "boundary of (4) must be Z/4")
        found = brute_force_lagrangians(form)
        check(found["any"]["witnesses"] == [[[2]]], "expected the subgroup <2>")
        check(found["split"]["exhausted"] and not found["split"]["witnesses"],
              "<2> is not a direct summand, no split lagrangian exists")

    def trefoil_pipeline():
        k = KnotInput("trefoil", [[-1, 1], [0, -1]], -1)
        check(alexander_polynomial(k) == [1, -1, 1],
              "trefoil Alexander polynomial is not 1 - z + z^2")
        ms = dw_multisignature_laurent(blanchfield_form(k), precision)
        values = [s for _, s in ms.entries()]
        check(values == [-2], f"calibration: expected [-2], got {values}")
        check(levine_tristram_signature(k, Fraction(2, 5)) == -2,
              "trefoil signature at turn 2/5 is not -2")
        report = analyze(k, precision)
        check(report.slice_obstructed == "yes"
              and report.doubly_slice_obstructed == "yes",
              "trefoil must be slice and doubly-slice obstructed")

    def figure_eight_clear():
        k = KnotInput("figure-eight", [[1, 1], [0, -1]], -1)
        check(alexander_polynomial(k) == [1, -3, 1],
              "figure-eight Alexander polynomial is not 1 - 3z + z^2")
        report = analyze(k, precision)
        check(report.multisignature.entries() == []
              and report.slice_obstructed == "no_obstruction_found"
              and report.doubly_slice_obstructed == "no_obstruction_found",
              "figure-eight must carry no obstruction")

    def mirror_witnesses():
        k = KnotInput("trefoil", [[-1, 1], [0, -1]], -1)
        report = analyze(connected_sum(k, knot_inverse(k)), precision)
        check(report.doubly_slice_obstructed == "no_obstruction_found",
              "K # -K must carry no doubly-slice obstruction")
        check(report.witnesses is not None,
              "hyperbolic witnesses must attach to K # -K")

    def lt_consistency():
        k = KnotInput("trefoil", [[-1, 1], [0, -1]], -1)
        sums = witt_forgetful_laurent(
            dw_multisignature_laurent(blanchfield_form(k), precision))
        jumps = lt_jumps(k)
        check(jumps, "trefoil has a unit-circle Alexander root")
        check(set(jumps) == set(sums),
              f"jump keys {set(jumps)} != odd-level sum keys {set(sums)}")
        for key, jump in jumps.items():
            check(jump == sums[key],
                  f"jump {jump} != odd-level sum {sums[key]} at {key}")

    return [
        ("trace-function", trace_function),
        ("covering-sign", covering_sign),
        ("monodromy-roundtrip", monodromy_roundtrip),
        ("auxiliary-levels", auxiliary_levels),
        ("boundary-lagrangian", boundary_lagrangian),
        ("trefoil-pipeline", trefoil_pipeline),
        ("figure-eight-clear", figure_eight_clear),
        ("mirror-witnesses", mirror_witnesses),
        ("lt-consistency", lt_consistency),
    ]


def cmd_selftest(config: argparse.Namespace) -> int:
    failures = 0
    lines = []
    for name, anchor in _selftest_anchors(config.precision):
        start, verdict, note = time.perf_counter(), "PASS", ""
        try:
            anchor()
        except Exception as exc:  # noqa: BLE001 - report and keep going
            failures, verdict, note = failures + 1, "FAIL", f": {exc}"
        ms = (time.perf_counter() - start) * 1000
        lines.append(f"{verdict} {name} ({ms:.1f} ms){note}")
    lines.append(
        "selftest: all anchors pass" if not failures
        else f"selftest: {failures} anchor(s) failed")
    _emit(config, "\n".join(lines) + "\n")
    return 0 if not failures else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

_COMMANDS = {
    "analyze": cmd_analyze,
    "oracle": cmd_oracle,
    "linking": cmd_linking,
    "selftest": cmd_selftest,
    "catalog": cmd_catalog,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        config = parser.parse_args(argv)
        _check_args(config)
    except SystemExit as exc:
        return 0 if exc.code in (0, None) else 2
    except ValueError as exc:
        print(f"wittkit: input error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[config.command](config)
    except (InputError, json.JSONDecodeError, OSError,
            KeyError, TypeError, ValueError) as exc:
        print(f"wittkit: input error: {exc}", file=sys.stderr)
        return 2
    except (ComputationError, ArithmeticError) as exc:
        print(f"wittkit: computation failed: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
