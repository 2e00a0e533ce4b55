"""In-memory spans around calls into the package, installed from outside ``src/``.

Each wrapped name is replaced at the place where it is looked up: a module
attribute that other code reads at call time (``search.check_axioms`` is the
search module's own binding of the core function), or an entry of
``center._METHOD_FNS``, through which the centrality methods are dispatched.
A span records its name, its parent span, and its start and end times.
Counters taken from return values ride along.  ``uninstall`` restores every
original binding.
"""
from __future__ import annotations

import contextlib
import json
import time
from collections import defaultdict

from workloads import A006966, AUDIT, SEARCH, STRUCTURE


def _search_result(rec, result, args, kwargs):
    rec.counts["search.nodes"] += result.nodes
    rec.counts["search.models"] += len(result.models)


def _sum_tables(rec, result, args, kwargs):
    n, constraint = args
    rec.counts["search.sum_tables.roots"] += len(result)
    if constraint.idempotent_add and constraint.integral and len(result) != A006966[n]:
        raise AssertionError(
            f"{len(result)} lattice sum tables at n={n}, A006966 says {A006966[n]}")


def _congruence_lattice(rec, result, args, kwargs):
    rec.counts["congruences.distinct"] += len(result)


# (module, attribute, span name, counter hook)
WRAPS = (
    ("search", "_canonical_add_tables", "search.sum_tables", _sum_tables),
    ("search", "_involution_candidates", "search.involutions", None),
    ("search", "_column_candidates", "search.column_candidates", None),
    ("search", "identity_first_violation", "search.identity_checks", None),
    ("search", "_verify", "search.leaf", None),
    ("search", "check_axioms", "search.leaf_verify", None),
    ("search", "canonical_form", "search.canonical_form", None),
    ("cli", "enumerate_models", "search.enumerate_models", _search_result),
    ("cli", "find_model", "search.find_model", _search_result),
    ("cli", "all_congruences", "congruences.all_congruences", _congruence_lattice),
    ("cli", "central_elements", "center.central_elements", None),
    ("cli", "center_algebra", "center.center_algebra", None),
    ("cli", "decompose", "center.decompose", None),
    ("congruences", "all_congruences", "congruences.all_congruences", _congruence_lattice),
    ("congruences", "principal_congruence", "congruences.principal_congruence", None),
    ("congruences", "is_congruence", "congruences.is_congruence", None),
    ("congruences", "join_partitions", "congruences.join_partitions", None),
    ("congruences", "witness_term_checks", "congruences.witness_term_checks", None),
    ("center", "principal_congruence", "congruences.principal_congruence", None),
    ("center", "is_factor_pair", "congruences.is_factor_pair", None),
    ("center", "central_elements", "center.central_elements", None),
    ("center", "center_algebra", "center.center_algebra", None),
    ("center", "interval_algebra", "center.interval_algebra", None),
    ("center", "check_axioms", "core.check_axioms", None),
    ("center", "_METHOD_FNS", {"equational": "center.equational",
                               "full-conditions": "center.full_conditions",
                               "congruence": "center.congruence"}, None),
    ("core", "load_algebra", "core.load_algebra", None),
    ("core", "check_axioms", "core.check_axioms", None),
    ("core", "induced_order", "core.induced_order", None),
    ("core", "core_property_suite", "core.core_property_suite", None),
    ("core", "dual_algebra", "core.dual_algebra", None),
    ("varieties", "check_axioms", "core.check_axioms", None),
    ("varieties", "check_lukasiewicz", "varieties.check_lukasiewicz", None),
    ("varieties", "lukasiewicz_suite", "varieties.lukasiewicz_suite", None),
    ("varieties", "check_orthomodular_ns", "varieties.check_orthomodular_ns", None),
    ("varieties", "check_basic_algebra", "varieties.check_basic_algebra", None),
    ("varieties", "check_oml", "varieties.check_oml", None),
    ("transforms", "check_lukasiewicz", "varieties.check_lukasiewicz", None),
    ("transforms", "check_orthomodular_ns", "varieties.check_orthomodular_ns", None),
    ("transforms", "check_basic_algebra", "varieties.check_basic_algebra", None),
    ("transforms", "check_oml", "varieties.check_oml", None),
    ("transforms", "roundtrip_check", "transforms.roundtrip_check", None),
    ("fixtures", "fixture", "fixtures.fixture", None),
)

# spans that must fire at least once on their workload; cli.main and
# core.report_render are opened by the benchmark itself
HOME = {
    SEARCH: ("cli.main", "search.sum_tables", "search.involutions",
             "search.column_candidates", "search.identity_checks", "search.leaf",
             "search.leaf_verify", "search.canonical_form", "search.enumerate_models",
             "search.find_model"),
    STRUCTURE: ("cli.main", "fixtures.fixture", "congruences.all_congruences",
                "congruences.principal_congruence", "congruences.is_congruence",
                "congruences.join_partitions", "congruences.is_factor_pair",
                "center.central_elements", "center.center_algebra", "center.decompose",
                "center.interval_algebra", "center.equational", "center.full_conditions",
                "center.congruence", "core.check_axioms"),
    AUDIT: ("fixtures.fixture", "core.load_algebra", "core.check_axioms",
            "core.report_render", "core.induced_order", "core.core_property_suite",
            "core.dual_algebra", "varieties.check_lukasiewicz",
            "varieties.lukasiewicz_suite", "varieties.check_orthomodular_ns",
            "varieties.check_basic_algebra", "varieties.check_oml",
            "transforms.roundtrip_check", "congruences.witness_term_checks",
            "center.center_algebra", "center.equational"),
}


class Recorder:
    """Spans kept in memory as [name, parent index, start, end]."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = defaultdict(int)
        self._saved = []

    @contextlib.contextmanager
    def span(self, name):
        """A span opened by the benchmark itself; records only while installed."""
        if not self._saved:
            yield
            return
        index = len(self.spans)
        record = [name, self.stack[-1] if self.stack else -1, time.perf_counter(), None]
        self.spans.append(record)
        self.stack.append(index)
        try:
            yield
        finally:
            record[3] = time.perf_counter()
            self.stack.pop()

    def wrap(self, fn, name, hook=None):
        spans, stack, clock = self.spans, self.stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            record = [name, stack[-1] if stack else -1, clock(), None]
            spans.append(record)
            stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                record[3] = clock()
                stack.pop()
            if hook is not None:
                hook(self, result, args, kwargs)
            return result
        traced.__wrapped__ = fn
        return traced

    def install(self, nsr):
        """Replace every name in WRAPS; returns self for use in a with block."""
        for module_name, attr, name, hook in WRAPS:
            module = getattr(nsr, module_name)
            original = getattr(module, attr)
            if isinstance(name, dict):
                for key, span_name in name.items():
                    self._saved.append((original, key, original[key]))
                    original[key] = self.wrap(original[key], span_name, hook)
            else:
                self._saved.append((module, attr, original))
                setattr(module, attr, self.wrap(original, name, hook))
        return self

    def uninstall(self):
        for target, key, original in reversed(self._saved):
            if isinstance(target, dict):
                target[key] = original
            else:
                setattr(target, key, original)
        self._saved.clear()

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.uninstall()

    def write(self, path):
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][2] if self.spans else 0.0
        rows = [[index[s[0]], s[1], round((s[2] - t0) * 1e6), round((s[3] - t0) * 1e6)]
                for s in self.spans]
        path.write_text(json.dumps({"unit": "us", "names": names,
                                    "columns": ["name", "parent", "start", "end"],
                                    "spans": rows}, separators=(",", ":")),
                        encoding="utf-8")


class SpanStats:
    """Calls, busy time and self time per span name over a slice of spans."""

    def __init__(self, spans, start=0):
        self.calls = defaultdict(int)
        self.busy = defaultdict(float)
        self.self_time = defaultdict(float)
        self.child_calls = defaultdict(int)        # (parent name, child name) -> calls
        child_time = defaultdict(float)
        for i in range(start, len(spans)):
            name, parent, t0, t1 = spans[i]
            self.calls[name] += 1
            if parent >= start:
                child_time[parent] += t1 - t0
                self.child_calls[(spans[parent][0], name)] += 1
            if not self._nested_in_same(spans, i, start):
                self.busy[name] += t1 - t0
        for i in range(start, len(spans)):
            name, _parent, t0, t1 = spans[i]
            self.self_time[name] += (t1 - t0) - child_time.get(i, 0.0)

    @staticmethod
    def _nested_in_same(spans, i, start):
        name, parent = spans[i][0], spans[i][1]
        while parent >= start:
            if spans[parent][0] == name:
                return True
            parent = spans[parent][1]
        return False
