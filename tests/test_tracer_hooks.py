"""The benchmark tracer's hook points still exist.

``perfbench/spans.py`` patches ordsgp from outside by name: every public
layer function, a few private ones that mark a unit of work, and
``OrderedSemigroup.__init__`` and ``cached``.  A rename in ``src/`` would
make its counters read 0 without an error, so this runs the tracer around
a small catalog and checks each named hook is reached.
"""

import importlib
import sys
from pathlib import Path

from ordsgp import OrderedSemigroup, core, harness
from ordsgp.congruences import _semilattice_congruences
from ordsgp.predicates import _closed_supersets

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))
from spans import LAYERS, Tracer  # noqa: E402

# the hook behind each counter, named as the tracer names its spans
HOOKS = (
    "core.OrderedSemigroup",
    "harness._verify_chunk",
    "congruences._class_holds",
    "predicates._subset_masks",
    "congruences.classify_partition",
)


def bindings():
    """id of every value the tracer may patch: each ordsgp module attribute,
    each function in a module-level dict, and the two patched methods."""
    out = {}
    for name in [m for m in sys.modules if m == "ordsgp" or m.startswith("ordsgp.")]:
        for attr, value in vars(sys.modules[name]).items():
            out[name, attr] = id(value)
            if isinstance(value, dict) and not attr.startswith("__"):
                for key, entry in value.items():
                    if callable(entry):
                        out[name, attr, key] = id(entry)
    for method in ("__init__", "cached"):
        out["OrderedSemigroup", method] = id(vars(OrderedSemigroup)[method])
    return out


def test_tracer_hooks_are_reached_and_restored():
    for layer in LAYERS:
        importlib.import_module(f"ordsgp.{layer}")
    expected = harness.run_suite("all", max_order=3, workers=1).to_dict()
    before = bindings()
    # the table memos are warm now: clear them, so that the traced run
    # reaches the hooks behind them, such as the subset search
    table_memos = (core._exponents, _semilattice_congruences, _closed_supersets)
    for memo in table_memos:
        memo.cache_clear()
    tracer = Tracer()
    tracer.install()
    try:
        traced = harness.run_suite("all", max_order=3, workers=1).to_dict()
    finally:
        tracer.uninstall()
    assert bindings() == before
    assert traced == expected
    counted = dict(zip(tracer.names, tracer.calls))
    calls = {name: counted.get(name, 0) for name in HOOKS}
    assert all(calls.values()), calls
    assert tracer.cache_lookups > 0
