"""Spans around wittkit's public functions, installed from outside the
program for the traced run.

``install`` replaces each target with a wrapper that records (name, start,
end, parent) into a ``Recorder``: in the defining module or class, and in
every other ``wittkit`` module (or extra module passed in) that bound the
same function object with ``from ... import``.  ``uninstall`` puts the
originals back.  Untraced runs never call ``install``, so they run the
program exactly as shipped.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from contextlib import contextmanager
from time import perf_counter

# (span name, module, attribute or Class.attribute)
TARGETS = (
    ("exact.ratfunc.make", "wittkit.exact.ratfunc", "RatFunc.make"),
    ("exact.polys.gcd", "wittkit.exact.polys", "gcd"),
    ("exact.polys.divmod_poly", "wittkit.exact.polys", "divmod_poly"),
    ("exact.matrix.inverse", "wittkit.exact.matrix", "Matrix.inverse"),
    ("exact.matrix.mul", "wittkit.exact.matrix", "Matrix.__mul__"),
    ("exact.matrix.det", "wittkit.exact.matrix", "Matrix.det"),
    ("exact.matrix.charpoly", "wittkit.exact.matrix", "Matrix.charpoly"),
    ("exact.snf.smith_normal_form", "wittkit.exact.snf", "smith_normal_form"),
    ("exact.factor.factor_rational_poly", "wittkit.exact.factor",
     "factor_rational_poly"),
    ("exact.roots.unit_circle_roots", "wittkit.exact.roots",
     "unit_circle_roots"),
    ("exact.roots.refine", "wittkit.exact.roots", "CertifiedRoot.refine"),
    ("exact.roots.hermitian_signature_at_root", "wittkit.exact.roots",
     "hermitian_signature_at_root"),
    ("exact.residue.field", "wittkit.exact.residue", "ResidueField.__init__"),
    ("exact.residue.inverse", "wittkit.exact.residue", "ResidueElem.inverse"),
    ("laurent_forms.decompose_module", "wittkit.laurent_forms",
     "decompose_module"),
    ("laurent_forms.validate", "wittkit.laurent_forms",
     "LaurentLinkingForm.__init__"),
    ("laurent_forms.dw_multisignature_laurent", "wittkit.laurent_forms",
     "dw_multisignature_laurent"),
    ("seifert.verify_roundtrip", "wittkit.seifert", "verify_roundtrip"),
    ("seifert.covering_autometric", "wittkit.seifert", "covering_autometric"),
    ("seifert.covering_seifert", "wittkit.seifert", "covering_seifert"),
    ("seifert.monodromy", "wittkit.seifert", "monodromy"),
    ("seifert.canonical_identification", "wittkit.seifert",
     "canonical_identification"),
    ("seifert.verify_seifert_lagrangian", "wittkit.seifert",
     "verify_seifert_lagrangian"),
    ("knots.analyze", "wittkit.knots", "analyze"),
    ("knots.alexander_polynomial", "wittkit.knots", "alexander_polynomial"),
    ("knots.levine_tristram_signature", "wittkit.knots",
     "levine_tristram_signature"),
    ("knots.lt_jumps", "wittkit.knots", "lt_jumps"),
    ("finite.classify", "wittkit.finite", "classify"),
    ("finite.dw_multisignature", "wittkit.finite", "dw_multisignature"),
    ("finite.boundary_of_form", "wittkit.finite", "boundary_of_form"),
    ("subgroups.brute_force_lagrangians", "wittkit.subgroups",
     "brute_force_lagrangians"),
    ("serialize.report_to_json", "wittkit.serialize", "report_to_json"),
    ("serialize.dumps", "wittkit.serialize", "dumps"),
    ("cli.main", "wittkit.cli", "main"),
)

# the per-layer metrics a traced run reports: (span name, field)
METRICS = (
    ("exact.ratfunc.make", "calls"), ("exact.ratfunc.make", "self_s"),
    ("exact.polys.gcd", "calls"), ("exact.polys.gcd", "self_s"),
    ("exact.polys.divmod_poly", "calls"),
    ("exact.matrix.inverse", "calls"), ("exact.matrix.inverse", "self_s"),
    ("exact.matrix.mul", "self_s"),
    ("seifert.covering_autometric", "self_s"),
    ("seifert.monodromy", "self_s"),
    ("seifert.canonical_identification", "self_s"),
    ("seifert.covering_seifert", "self_s"),
    ("exact.matrix.det", "self_s"),
    ("exact.matrix.charpoly", "self_s"),
    ("knots.alexander_polynomial", "self_s"),
    ("exact.snf.smith_normal_form", "calls"),
    ("exact.snf.smith_normal_form", "self_s"),
    ("laurent_forms.decompose_module", "self_s"),
    ("laurent_forms.validate", "self_s"),
    ("laurent_forms.dw_multisignature_laurent", "self_s"),
    ("exact.factor.factor_rational_poly", "self_s"),
    ("seifert.verify_seifert_lagrangian", "self_s"),
    ("exact.roots.unit_circle_roots", "self_s"),
    ("exact.roots.refine", "calls"), ("exact.roots.refine", "self_s"),
    ("exact.roots.hermitian_signature_at_root", "self_s"),
    ("exact.residue.field", "calls"),
    ("exact.residue.inverse", "calls"),
    ("knots.levine_tristram_signature", "calls"),
    ("knots.levine_tristram_signature", "self_s"),
    ("knots.lt_jumps", "self_s"),
    ("finite.classify", "self_s"),
    ("finite.dw_multisignature", "self_s"),
    ("finite.boundary_of_form", "self_s"),
    ("subgroups.brute_force_lagrangians", "calls"),
    ("subgroups.brute_force_lagrangians", "self_s"),
    ("serialize.report_to_json", "self_s"),
    ("serialize.dumps", "self_s"),
    ("cli.main", "self_s"),
)

ITEM_SPAN = "bench.item"


class Recorder:
    """Spans of one traced run, kept in flat arrays until written out."""

    def __init__(self):
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.current = -1

    def _intern(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _open(self, nid: int) -> int:
        idx = len(self.start)
        self.name_id.append(nid)
        self.parent.append(self.current)
        self.end.append(0.0)
        self.current = idx
        self.start.append(perf_counter())
        return idx

    def _close(self, idx: int) -> None:
        self.end[idx] = perf_counter()
        self.current = self.parent[idx]

    def wrap(self, name: str, fn):
        nid = self._intern(name)
        open_span, close_span = self._open, self._close

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = open_span(nid)
            try:
                return fn(*args, **kwargs)
            finally:
                close_span(idx)
        return traced

    @contextmanager
    def span(self, name: str):
        idx = self._open(self._intern(name))
        try:
            yield
        finally:
            self._close(idx)

    def summary(self) -> dict:
        """{name: {"calls", "total_s", "self_s"}}; self time is a span's
        duration minus the durations of its direct children, which nest
        inside it and never overlap on one thread."""
        n = len(self.start)
        dur = [self.end[i] - self.start[i] for i in range(n)]
        child = [0.0] * n
        for i in range(n):
            p = self.parent[i]
            if p >= 0:
                child[p] += dur[i]
        out = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0}
               for name in self.names}
        for i in range(n):
            row = out[self.names[self.name_id[i]]]
            row["calls"] += 1
            row["total_s"] += dur[i]
            row["self_s"] += dur[i] - child[i]
        return out

    def write(self, path) -> None:
        """Columnar JSON: span i is (names[name[i]], start[i], end[i],
        parent[i]), times in seconds from the first span's start."""
        t0 = self.start[0] if self.start else 0.0
        doc = {
            "names": self.names,
            "name": self.name_id.tolist(),
            "parent": self.parent.tolist(),
            "start": [round(t - t0, 9) for t in self.start],
            "end": [round(t - t0, 9) for t in self.end],
        }
        with open(path, "w") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def install(recorder: Recorder, extra_modules=()) -> list:
    """Wrap every target; returns the patches that ``uninstall`` undoes."""
    patches = []

    def patch(owner, attr, value):
        patches.append((owner, attr, owner.__dict__[attr]
                        if isinstance(owner, type) else getattr(owner, attr)))
        setattr(owner, attr, value)

    for name, module_name, path in TARGETS:
        module = importlib.import_module(module_name)
        if "." in path:
            cls_name, attr = path.split(".")
            cls = getattr(module, cls_name)
            raw = cls.__dict__[attr]
            if isinstance(raw, classmethod):
                patch(cls, attr, classmethod(recorder.wrap(name, raw.__func__)))
            else:
                patch(cls, attr, recorder.wrap(name, raw))
            continue
        orig = getattr(module, path)
        wrapped = recorder.wrap(name, orig)
        holders = [m for key, m in list(sys.modules.items())
                   if key == "wittkit" or key.startswith("wittkit.")]
        for holder in holders + list(extra_modules):
            for key, value in list(vars(holder).items()):
                if value is orig:
                    patch(holder, key, wrapped)
    return patches


def uninstall(patches: list) -> None:
    for owner, attr, value in reversed(patches):
        setattr(owner, attr, value)
