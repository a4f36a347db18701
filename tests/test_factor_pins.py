"""Pinned factor records of the orders wittkit factors.

`tests/fixtures/factor/pins.json` holds `factor_rational_poly`'s records
(primitive factors with multiplicities, in the report's order) of
D = det(z psi - psi^T) and of the Blanchfield module's order for every
top-level fixture knot, the genus-40 ladder knot `lt/scale-40.json`, the
catalog knots and the sums K_n # K_{n+1}, K_n = [[-1, 1], [0, -n]].  Any
route the factorizer takes must give these records unchanged."""

import json
from pathlib import Path

import pytest

from wittkit.catalog import catalog_knot, catalog_names
from wittkit.exact.factor import factor_rational_poly
from wittkit.knots import (
    KnotInput,
    _det_one_minus,
    blanchfield_form,
    connected_sum,
)

FIXTURES = Path(__file__).parent / "fixtures"
# under factor/, as the report pins glob the top level for knots
PINS = json.loads((FIXTURES / "factor" / "pins.json").read_text())
# the genus-40 covering module takes about 8 s to build, so its order is
# read off the pin of D, the same Alexander polynomial
SLOW_MODULES = {"lt/scale-40.json"}


def k_n(n):
    return KnotInput(f"K_{n}", [[-1, 1], [0, -n]], -1)


def pinned_knots():
    """(label, KnotInput) for every pinned knot, in the pins' order."""
    out = []
    for path in sorted(FIXTURES.glob("*.json")) + [FIXTURES / "lt" /
                                                    "scale-40.json"]:
        doc = json.loads(path.read_text())
        if "psi" in doc:
            out.append((str(path.relative_to(FIXTURES)),
                        KnotInput(doc["name"], doc["psi"], doc["epsilon"])))
    out += [(f"catalog:{name}", catalog_knot(name))
            for name in catalog_names()]
    out += [(f"K_{n} # K_{n + 1}", connected_sum(k_n(n), k_n(n + 1)))
            for n in (1, 2, 5, 10, 20, 100)]
    return out


def records(pin):
    return [(g, m) for g, m in pin]


def test_every_pinned_knot_is_pinned():
    assert [label for label, _ in pinned_knots()] == list(PINS)


@pytest.mark.parametrize("label,knot", pinned_knots(),
                         ids=[label for label, _ in pinned_knots()])
def test_factor_records_match_the_pins(label, knot):
    pin = PINS[label]
    assert factor_rational_poly(_det_one_minus(knot)) == records(pin["D"])
    if label in SLOW_MODULES:
        assert pin["order"] == pin["D"]
        return
    module = blanchfield_form(knot).module
    assert factor_rational_poly(module.total_divisor) == records(
        pin["order"])
    assert module.factors == records(pin["order"])
