#!/usr/bin/env python3
"""Golden outputs: `wittkit analyze` and `wittkit linking` JSON, compared
byte for byte with the files checked in under ``bench/golden/``.

    python3 bench/golden.py               # compare; exit 1 on any change
    python3 bench/golden.py --regenerate  # rewrite the checked-in files

A speed-up must leave every byte of these reports unchanged.  Correctness
itself rests on the independent checks in ``refcheck.py``; this check only
catches a report that changed.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from pathlib import Path

import run

GOLDEN = run.BENCH / "golden"


def cases() -> list:
    """(file name, CLI argv, stdin text) for every golden report."""
    import workloads
    from wittkit.catalog import catalog_names

    out = [(f"analyze-{name}.json", ["analyze", "--catalog", name], "")
           for name in catalog_names()]
    rng = random.Random("golden")
    for genus in (1, 2, 3):
        psi = workloads.ladder_psi(rng, genus)
        out.append((f"analyze-genus{genus}.json", ["analyze", "--input", "-"],
                    json.dumps({"name": f"genus{genus}", "psi": psi,
                                "epsilon": -1})))
    psi = workloads.mirror_sum(workloads.ladder_psi(rng, 1))
    out.append(("analyze-genus1-inverse-sum.json", ["analyze", "--input", "-"],
                json.dumps({"name": "genus1 # inverse", "psi": psi,
                            "epsilon": -1})))
    linking = ["linking", "--input", "-", "--search-bound",
               str(workloads.SEARCH_BOUND)]
    forms = {
        "linking-p3-level2.json": workloads.diagonal_doc(3, [2], [1]),
        "linking-p3-levels211.json": workloads.diagonal_doc(3, [2, 1, 1],
                                                            [1, 1, 2]),
        "linking-p5-levels11.json": workloads.diagonal_doc(5, [1, 1], [1, 2]),
        "linking-p7-level3.json": workloads.diagonal_doc(7, [3], [3]),
    }
    out += [(name, linking, json.dumps(doc)) for name, doc in forms.items()]
    for name, alpha in (("linking-boundary-4.json", [[4]]),
                        ("linking-boundary-2x2.json", [[2, 1], [1, -6]])):
        out.append((name, linking, json.dumps({"alpha": alpha,
                                               "epsilon": 1})))
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--regenerate", action="store_true")
    args = parser.parse_args(argv)
    run.load_wittkit()
    import workloads

    status = 0
    GOLDEN.mkdir(exist_ok=True)
    for name, argv_, text in cases():
        path = GOLDEN / name
        got = workloads.run_cli(argv_, text).encode()
        if args.regenerate:
            path.write_bytes(got)
            print(f"wrote {path.relative_to(run.ROOT)}")
        elif not path.is_file():
            print(f"MISSING {name}")
            status = 1
        elif path.read_bytes() != got:
            print(f"CHANGED {name}")
            status = 1
        else:
            print(f"same {name}")
    return status


if __name__ == "__main__":
    sys.exit(main())
