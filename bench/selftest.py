#!/usr/bin/env python3
"""Self-tests of the benchmark's independent checks.

    python3 bench/selftest.py

Each check must accept wittkit's genuine answer and reject a deliberately
corrupted one.  A check that accepts a corrupted answer would let a wrong
speed-up through, so this exits 1 if any corruption goes unnoticed.
"""

from __future__ import annotations

import copy
import json
import sys
from fractions import Fraction

import run


def _trefoil_report():
    import workloads
    from wittkit.catalog import CATALOG

    psi = CATALOG["trefoil"]["psi"]
    item = workloads._analyze_item("trefoil", psi)
    return item, json.loads(item.run())


def _flip_signature(doc):
    doc["multisignature"][0]["signature"] *= -1
    return doc


def _bump_alexander(doc):
    key = sorted(doc["alexander"])[0]
    doc["alexander"][key] = str(Fraction(doc["alexander"][key]) + 1)
    return doc


def _linking_item():
    import workloads

    # Z/9 with lambda(x, y) = xy/9 is metabolic: its lagrangian is <3>
    return workloads._form_item("p=3 level 2",
                                workloads.diagonal_doc(3, [2], [1]))


def _break_witness(doc):
    doc["parts"][0]["oracle"]["any"]["witnesses"] = [[[1]]]
    return doc


def _flip_classify(doc):
    doc["parts"][0]["metabolic"] = not doc["parts"][0]["metabolic"]
    return doc


def _by_label(items, label):
    return next(item for item in items if item.label == label)


def cases() -> list:
    """(name, item, genuine output, corrupted output)."""
    import workloads

    out = []
    trefoil, report = _trefoil_report()
    for name, corrupt in (("sign-flipped multisignature entry",
                           _flip_signature),
                          ("wrong Alexander coefficient", _bump_alexander)):
        out.append((name, trefoil, json.dumps(report),
                    json.dumps(corrupt(copy.deepcopy(report)))))
    form_item = _linking_item()
    answer = json.loads(form_item.run())
    for name, corrupt in (("witness that is not isotropic", _break_witness),
                          ("classify disagreeing with the oracle",
                           _flip_classify)):
        out.append((name, form_item, json.dumps(answer),
                    json.dumps(corrupt(copy.deepcopy(answer)))))
    rt = _by_label(workloads.build_roundtrip(0, quick=True), "rank4#0")
    out.append(("verify_roundtrip forced to False", rt, rt.run(), False))
    lt = workloads.build_lt_signatures(0, quick=True)
    jumps_item = _by_label(lt, "jumps K_1 # K_2")
    jumps = jumps_item.run()
    key = next(iter(jumps))
    out.append(("jump off by two", jumps_item, jumps,
                {**jumps, key: jumps[key] + 2}))
    turns_item = _by_label(lt, "turns genus2#0")
    values = turns_item.run()
    t, s = values[0]
    out.append(("Levine-Tristram signature off by two", turns_item, values,
                [(t, s + 2)] + values[1:]))
    return out


def main() -> int:
    run.load_wittkit()
    status = 0
    for name, item, genuine, corrupted in cases():
        accepted = not item.check(genuine)
        rejected = bool(item.check(corrupted))
        ok = accepted and rejected
        status |= not ok
        print(f"{'PASS' if ok else 'FAIL'} {name}: genuine "
              f"{'accepted' if accepted else 'REJECTED'}, corrupted "
              f"{'rejected' if rejected else 'ACCEPTED'}")
    return status


if __name__ == "__main__":
    sys.exit(main())
