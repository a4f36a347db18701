"""Levine-Tristram answers pinned on the catalog knots and every
`fixtures/scale-*.json` knot: `lt_jumps` (keys, root indices, jumps, in
order of increasing angle) and the signature at seven turns, compared
exactly with `fixtures/lt/pins.json`.  A change to how the step function
is computed may not move one of them.  The file is this module's `pins`
on each knot, written by

    PYTHONPATH=src python tests/test_lt_pins.py
"""

import json
from fractions import Fraction
from pathlib import Path

import pytest

from wittkit.catalog import catalog_knot, catalog_names
from wittkit.errors import SingularAtRoot
from wittkit.knots import KnotInput, levine_tristram_signature, lt_jumps

FIXTURES = Path(__file__).parent / "fixtures"
PINS = FIXTURES / "lt" / "pins.json"
TURNS = ("1/8", "1/5", "1/4", "1/3", "3/8", "2/5", "1/1009")


def pinned_knots() -> dict:
    out = {name: (lambda name=name: catalog_knot(name))
           for name in catalog_names()}
    for path in sorted(FIXTURES.glob("scale-*.json")):
        doc = json.loads(path.read_text())
        out[path.stem] = (lambda doc=doc: KnotInput(
            doc["name"], doc["psi"], doc["epsilon"]))
    return out


def _sigma(knot, turn):
    try:
        return levine_tristram_signature(knot, Fraction(turn))
    except SingularAtRoot:
        return "singular"


def pins(knot) -> dict:
    """The jumps as [key as strings, root index, jump], then sigma at each
    of `TURNS` ("singular" at an Alexander root)."""
    jumps = [[[str(c) for c in key], ridx, jump]
             for (key, ridx), jump in lt_jumps(knot).items()]
    return {"lt_jumps": jumps,
            "sigma": {t: _sigma(knot, t) for t in TURNS}}


def test_every_pinned_knot_is_in_the_file():
    assert sorted(json.loads(PINS.read_text())) == sorted(pinned_knots())


@pytest.mark.parametrize("name", sorted(pinned_knots()))
def test_lt_answers_are_pinned(name):
    assert pins(pinned_knots()[name]()) == json.loads(PINS.read_text())[name]


if __name__ == "__main__":
    doc = {name: pins(make()) for name, make in pinned_knots().items()}
    PINS.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
