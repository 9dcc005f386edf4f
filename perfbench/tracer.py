"""Layer-boundary tracing from outside the program.

The recorder replaces, in each caller's namespace, the names one module
of weiltate calls in another (and a few names a module calls in
itself, where a layer boundary sits inside one file).  Each call
becomes a span: (span id, parent span id, op id, name, start ns, end ns).
Spans stay in memory and are written out when the run ends.

Per-element helpers such as ``galois.compose`` (about 191k calls per
main g=6 document) are never wrapped: a wrapper there would measure
itself.  A name a later version of the program no longer has is
reported absent instead of failing the run.
"""

from __future__ import annotations

import functools
import importlib
import json
from collections import defaultdict
from math import comb
from time import perf_counter_ns

ROOT = "cli.main"


def _count_classify(rec, args, result):
    n = args[0].group.degree
    rec.counts["classifier.tate_orbits"] += len(result.orbits)
    rec.counts["classifier.tate_subsets"] += sum(o.rank for o in result.orbits)
    rec.counts["classifier.even_subsets_scanned"] += sum(comb(n, w) for w in result.weights)


def _count_orbit(rec, args, result):
    rec.counts["galois.orbit_of_subset.members"] += len(result)


def _count_group(rec, args, result):
    rec.maxima["galois.group_order"] = max(rec.maxima["galois.group_order"], len(result.elements))


def _count_forge(rec, args, result):
    bits = max(abs(c).bit_length() for c in result.poly)
    rec.maxima["algebra.coeff_bits"] = max(rec.maxima["algebra.coeff_bits"], bits)


# (namespace module, attribute, span name, counter hook)
PATCHES = (
    ("weiltate.cli", "_emit_json", "cli.emit_json", None),
    ("weiltate.cli", "classify_orbits", "classifier.classify_orbits", _count_classify),
    ("weiltate.cli", "honda_tate_endomorphism", "classifier.honda_tate_endomorphism", None),
    ("weiltate.cli", "report_to_doc", "classifier.report_to_doc", None),
    ("weiltate.cli", "frobenius_rank", "slopes.frobenius_rank", None),
    ("weiltate.cli", "minimal_field_index", "slopes.minimal_field_index", None),
    ("weiltate.forge", "scenario_main", "forge.scenario", None),
    ("weiltate.forge", "scenario_ramified", "forge.scenario", None),
    ("weiltate.forge", "scenario_split", "forge.scenario", None),
    ("weiltate.forge", "forge_totally_real", "forge.forge_totally_real", _count_forge),
    ("weiltate.forge", "build_group", "galois.build_group", _count_group),
    ("weiltate.forge", "sturm_real_roots", "algebra.sturm_real_roots", None),
    ("weiltate.forge", "factor_degree_pattern", "algebra.factor_degree_pattern", None),
    ("weiltate.forge", "count_distinct_roots_mod", "algebra.count_distinct_roots_mod", None),
    ("weiltate.forge", "crt_poly", "algebra.crt_poly", None),
    ("weiltate.galois", "build_group", "galois.build_group", _count_group),
    ("weiltate.classifier", "orbit_of_subset", "galois.orbit_of_subset", _count_orbit),
    ("weiltate.classifier", "index2_overgroups", "galois.index2_overgroups", None),
    ("weiltate.classifier", "fix_of_slope", "slopes.fix_of_slope", None),
    ("weiltate.slopes", "fix_of_slope", "slopes.fix_of_slope", None),
    ("weiltate.classifier", "hodge_type", "cmtypes.hodge_type", None),
    ("weiltate.classifier", "q_pairs", "classifier.q_pairs", None),
    ("weiltate.classifier", "has_qpair_matching", "classifier.has_qpair_matching", None),
    ("weiltate.classifier", "weil_tate_submotives", "classifier.weil_tate_submotives", None),
)


class Recorder:
    """Spans and counters of one traced pass; patches are undone on exit."""

    def __init__(self):
        self.spans = []
        self.counts = defaultdict(int)
        self.maxima = defaultdict(int)
        self.absent = []
        self.op_id = None
        self._stack = []
        self._next_id = 0
        self._undo = []

    def wrap(self, fn, name, hook=None):
        rec = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span_id = rec._next_id
            rec._next_id += 1
            parent = rec._stack[-1] if rec._stack else None
            rec._stack.append(span_id)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter_ns()
                rec._stack.pop()
                rec.spans.append((span_id, parent, rec.op_id, name, start, end))
            if hook is not None:
                hook(rec, args, result)
            return result

        return traced

    def __enter__(self):
        for module_name, attr, name, hook in PATCHES:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if not callable(fn):
                self.absent.append(f"{module_name}.{attr}")
                continue
            setattr(module, attr, self.wrap(fn, name, hook))
            self._undo.append((module, attr, fn))
        return self

    def __exit__(self, *exc):
        for module, attr, fn in reversed(self._undo):
            setattr(module, attr, fn)
        self._undo.clear()
        return False

    def layer_totals(self, scales=None) -> dict:
        """name -> {"s": inclusive seconds, "self_s": minus traced children, "calls"}.

        `scales` maps an op id to the factor that brings its times to the
        reference machine state (calibrate.py).
        """
        scales = scales or {}
        child_ns = defaultdict(int)
        for _, parent, _, _, start, end in self.spans:
            if parent is not None:
                child_ns[parent] += end - start
        out = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})  # absent names read 0
        for span_id, _, op_id, name, start, end in self.spans:
            scale = scales.get(op_id, 1.0) / 1e9
            row = out[name]
            row["s"] += (end - start) * scale
            row["self_s"] += (end - start - child_ns[span_id]) * scale
            row["calls"] += 1
        return out

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, op_id, name, start, end in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent, "op": op_id,
                                     "name": name, "start_ns": start, "end_ns": end}) + "\n")
