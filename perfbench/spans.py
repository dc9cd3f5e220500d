"""Spans and work counters around ordsgp's layers, installed from outside.

Every public function of each layer module is replaced, at every binding in
the ordsgp package (the defining module, each module that imported it, and
module-level dispatch tables such as ``predicates.PREDICATES``), by a
wrapper that records one span per call.  A call that returns an iterator
gets one more span per ``next()``, so lazy generators are timed where their
work happens.  Spans stay in memory with their parent; a layer's self time
is the duration of its spans minus the part their child spans cover.

Nothing under ``src/`` is edited; ``uninstall`` restores every binding.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import sys
import time
from array import array
from collections.abc import Iterator

LAYERS = ("enumeration", "core", "relations", "predicates", "congruences", "harness", "cli")

# Inner-loop primitives called millions of times per catalog: a span would
# cost more than the call, so their time counts as self time of the caller.
UNWRAPPED = {"core": frozenset({"bits_iter", "power_profile", "joint_power_exponents"})}

# Private functions that mark one unit of work a counter needs:
# a semilattice-class check, a 2^n subset search, one catalog structure.
EXTRA = {
    "congruences": ("_class_holds",),
    "predicates": ("_subset_masks",),
    "harness": ("_verify_chunk",),
}

SPAN_COLUMNS = (("id", "q"), ("parent", "q"), ("name", "H"), ("start", "d"), ("end", "d"))


class Tracer:
    """Patches ordsgp on ``install``; holds spans and counts until ``uninstall``."""

    def __init__(self):
        self.names = []
        self.layer_of = []
        self.calls = []
        self.items = []
        self.inclusive_s = []
        self.self_s = [0.0] * len(LAYERS)
        self.cache_lookups = 0
        self.cache_hits = 0
        self.semilattice_congruences = 0
        self.columns = {col: array(code) for col, code in SPAN_COLUMNS}
        self._stack = [[-1, 0.0]]
        self._next_id = 0
        self._patches = []

    # -- spans --------------------------------------------------------------

    def _name_id(self, name, layer):
        self.names.append(name)
        self.layer_of.append(LAYERS.index(layer))
        self.calls.append(0)
        self.items.append(0)
        self.inclusive_s.append(0.0)
        return len(self.names) - 1

    def _enter(self):
        frame = [self._next_id, 0.0]
        self._next_id += 1
        parent = self._stack[-1]
        self._stack.append(frame)
        return frame, parent, time.perf_counter()

    def _leave(self, frame, parent, nid, t0):
        t1 = time.perf_counter()
        self._stack.pop()
        duration = t1 - t0
        parent[1] += duration
        self.self_s[self.layer_of[nid]] += duration - frame[1]
        self.calls[nid] += 1
        self.inclusive_s[nid] += duration
        cols = self.columns
        cols["id"].append(frame[0])
        cols["parent"].append(parent[0])
        cols["name"].append(nid)
        cols["start"].append(t0)
        cols["end"].append(t1)

    def _timed_iter(self, it, nid):
        try:
            while True:
                frame, parent, t0 = self._enter()
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    self._leave(frame, parent, nid, t0)
                self.items[nid] += 1
                yield item
        finally:
            close = getattr(it, "close", None)
            if close is not None:
                close()

    def _wrap(self, fn, name, layer, on_result=None):
        nid = self._name_id(name, layer)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, parent, t0 = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(frame, parent, nid, t0)
            if on_result is not None:
                on_result(result)
            if isinstance(result, Iterator):
                return self._timed_iter(result, nid)
            return result

        return wrapper

    # -- patching -----------------------------------------------------------

    def _count_semilattice(self, certificate):
        if certificate.is_congruence and certificate.is_semilattice:
            self.semilattice_congruences += 1

    def install(self):
        modules = {layer: importlib.import_module(f"ordsgp.{layer}") for layer in LAYERS}
        wrappers = {}
        for layer, mod in modules.items():
            skip = UNWRAPPED.get(layer, frozenset())
            extra = EXTRA.get(layer, ())
            for attr, value in list(vars(mod).items()):
                if attr in skip or (attr.startswith("_") and attr not in extra):
                    continue
                if isinstance(value, type) or not callable(value):
                    continue
                if getattr(value, "__module__", None) != mod.__name__:
                    continue
                hook = self._count_semilattice if attr == "classify_partition" else None
                wrappers[id(value)] = self._wrap(value, f"{layer}.{attr}", layer, hook)

        for name in [m for m in sys.modules if m == "ordsgp" or m.startswith("ordsgp.")]:
            namespace = vars(sys.modules[name])
            for attr, value in list(namespace.items()):
                if id(value) in wrappers:
                    self._patch(namespace, attr, wrappers[id(value)])
                elif isinstance(value, dict) and not attr.startswith("__"):
                    for key, entry in list(value.items()):
                        if id(entry) in wrappers:
                            self._patch(value, key, wrappers[id(entry)])

        cls = modules["core"].OrderedSemigroup
        init = self._wrap(cls.__init__, "core.OrderedSemigroup", "core")
        cached = cls.cached

        def counting_cached(S, key, fn):
            self.cache_lookups += 1
            if key in S._cache:
                self.cache_hits += 1
            return cached(S, key, fn)

        self._patches.append((cls, "__init__", cls.__init__, True))
        self._patches.append((cls, "cached", cached, True))
        cls.__init__ = init
        cls.cached = counting_cached

    def _patch(self, namespace, key, wrapper):
        self._patches.append((namespace, key, namespace[key], False))
        namespace[key] = wrapper

    def uninstall(self):
        for target, key, original, is_attr in reversed(self._patches):
            if is_attr:
                setattr(target, key, original)
            else:
                target[key] = original
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def _named(self, name, field):
        try:
            return field[self.names.index(name)]
        except ValueError:
            return 0

    def durations_ms(self, name):
        """Span durations of one wrapped function, ascending, in ms."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        cols = self.columns
        return sorted(
            (end - start) * 1e3
            for n, start, end in zip(cols["name"], cols["start"], cols["end"])
            if n == nid
        )

    def layer_calls(self, layer):
        index = LAYERS.index(layer)
        return sum(c for c, lay in zip(self.calls, self.layer_of) if lay == index)

    def layer_metrics(self):
        """Per-layer counts, ratios and times; see perfbench/README.md."""
        calls = lambda name: self._named(name, self.calls)
        items = lambda name: self._named(name, self.items)
        secs = lambda name: self._named(name, self.inclusive_s)
        ratio = lambda num, den: num / den if den else 0.0
        self_s = dict(zip(LAYERS, self.self_s))
        structure_ms = self.durations_ms("harness._verify_chunk")
        classified = calls("congruences.classify_partition")
        canonical = calls("enumeration.canonical_form")
        out = {
            "core.structures_built": calls("core.OrderedSemigroup"),
            "core.build_s": secs("core.OrderedSemigroup"),
            "core.restrict_calls": calls("core.restrict"),
            "core.restrict_s": secs("core.restrict"),
            "core.cache_hit_ratio": ratio(self.cache_hits, self.cache_lookups),
            "relations.calls": self.layer_calls("relations"),
            "predicates.subset_searches": calls("predicates._subset_masks"),
            "congruences.partitions_classified": classified,
            "congruences.class_checks": calls("congruences._class_holds"),
            "congruences.semilattice_ratio": ratio(self.semilattice_congruences, classified),
            "enumeration.tables_yielded": items("enumeration.enumerate_tables"),
            "enumeration.orders_yielded": items("enumeration.enumerate_compatible_orders"),
            "enumeration.canonical_forms": canonical,
            "enumeration.iso_keep_ratio": ratio(
                items("enumeration.enumerate_ordered_semigroups"), canonical
            ),
            "harness.verdicts": calls("harness.verify"),
            "harness.structure_ms_p50": _quantile(structure_ms, 0.50),
            "harness.structure_ms_p99": _quantile(structure_ms, 0.99),
            "trace.spans": len(self.columns["id"]),
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = self_s[layer]
        return out

    def write(self, stem):
        """Spans as ``<stem>.bin`` (columns back to back) plus a JSON header."""
        cols = self.columns
        with open(f"{stem}.bin", "wb") as fh:
            for col, _ in SPAN_COLUMNS:
                cols[col].tofile(fh)
        header = {
            "count": len(cols["id"]),
            "columns": [[col, code, cols[col].itemsize] for col, code in SPAN_COLUMNS],
            "names": self.names,
            "layers": [LAYERS[i] for i in self.layer_of],
            "clock": "time.perf_counter seconds; parent -1 is the benchmark",
        }
        with open(f"{stem}.json", "w", encoding="utf-8") as fh:
            json.dump(header, fh)


def _quantile(sorted_values, q):
    """Nearest-rank quantile of an ascending list; 0.0 when empty."""
    if not sorted_values:
        return 0.0
    rank = max(1, math.ceil(q * len(sorted_values)))
    return sorted_values[rank - 1]
