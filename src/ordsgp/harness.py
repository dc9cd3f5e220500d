"""Equivalence suites, hypothesis gating, suite reports, and model search.

Each suite evaluates a battery of conditions on one structure.  For an
equivalence suite the verdict is ``equivalent`` when all condition truth
values agree, ``DISCREPANCY`` when they do not while the hypothesis holds,
and ``hypothesis_not_met`` otherwise.  Law and implication suites demand
that every condition hold once the hypothesis (antecedent) does.

``_outcome`` is the one verdict rule: it gives a suite's verdict row
``(suite id, verdict, disagreeing diagnostics)`` on one structure.
``verify`` is the one renderer: it writes an ``EquivalenceReport`` around
that row, with the hypothesis truth values, every condition result and the
diagnostics.  A catalog run walks (table, leq) pairs, takes the verdict
rows of each isomorphism class from ``_outcome`` on the class's first
pair, and renders a report only for a DISCREPANCY row, the one row whose
report the suite report keeps, from the pair it belongs to.
"""

from __future__ import annotations

import concurrent.futures
import os
import time
from collections import deque
from contextlib import closing
from dataclasses import dataclass
from itertools import chain, islice, starmap, tee

from .core import OrderedSemigroup, structure_key
from .enumeration import (
    GenerationConfig,
    _check_count,
    _check_int,
    _check_order,
    _class_key,
    _pairs,
    _sample_pairs,
    enumerate_ordered_semigroups,
)
from .predicates import _conj, _predicate_key, read

WORKERS_ENV = "ORDSGP_WORKERS"

VERDICT_EQUIVALENT = "equivalent"
VERDICT_HYPOTHESIS = "hypothesis_not_met"
VERDICT_DISCREPANCY = "DISCREPANCY"


def _truths(result):
    if isinstance(result, tuple):
        return [r.holds for r in result]
    return result.holds


# suite id -> (kind, hypotheses, conditions, diagnostics).  kind
# "equivalence" wants all condition booleans equal, "law" and
# "implication" want them all true.  Every name is a reading of
# ``predicates.READINGS``; hypotheses are reported under their snake_case
# keys.  A condition is a reading (a battery contributes each of its
# results) or a tuple of readings that must all hold; conditions are
# numbered from 1.  A diagnostic (name, plain, other) records whether two
# readings give the same truth values.
_SUITES = {
    "thm2": ("equivalence", (), ("thm2",), ()),
    "thm4": (
        "equivalence",
        (),
        ("thm4",),
        (("complete_reading_agrees", "thm4", "thm4-complete"),),
    ),
    "thm5": (
        "equivalence",
        ("pi-regular",),
        ("thm5",),
        (("readings_agree", "thm5", "thm5-all-powers"),),
    ),
    "thm6": (
        "equivalence",
        (),
        ("right-pi-inverse", "thm6"),
        (("strict_reading_agrees", "right-pi-inverse", "right-pi-inverse-all-powers"),),
    ),
    "thm7-open": (
        "equivalence",
        ("regular",),
        (("left-simple", "pi-regular"), "lstar-unique-idempotent"),
        (),
    ),
    "thm8": (
        "equivalence",
        ("right-pi-inverse",),
        ("thm8",),
        (("complete_reading_agrees", "thm8", "thm8-complete"),),
    ),
    "thm51": ("equivalence", ("regular",), ("thm51",), ()),
    "thm-wc": (
        "implication",
        ("right-weakly-commutative", "right-archimedean", "lstar-unique-idempotent"),
        ("left-pi-t-simple",),
        (),
    ),
    "lemma3": ("law", (), ("lemma3",), ()),
    "lemma7": ("law", ("right-pi-inverse",), ("lemma7",), ()),
    "cor1": ("equivalence", (), ("cor1",), ()),
    "cor-pi-inverse": (
        "equivalence",
        (),
        ("pi-inverse", ("left-pi-inverse", "right-pi-inverse")),
        (),
    ),
    "cor-pi-t-simple": (
        "implication",
        ("right-pi-inverse", "left-pi-t-simple"),
        ("pi-t-simple",),
        (),
    ),
    "cor-hstar": (
        "equivalence",
        ("pi-inverse",),
        ("cor-hstar",),
        (("complete_reading_agrees", "cor-hstar", "cor-hstar-complete"),),
    ),
    "cor-cpr": ("equivalence", ("right-pi-inverse", "left-pi-regular"), ("cor-cpr",), ()),
}

THEOREM_IDS = tuple(_SUITES)


@dataclass(frozen=True)
class EquivalenceReport:
    theorem: str
    structure_key: str
    hypothesis: dict
    conditions: tuple
    verdict: str
    diagnostics: dict

    def to_dict(self):
        return {
            "theorem": self.theorem,
            "structure_key": self.structure_key,
            "hypothesis": dict(self.hypothesis),
            "conditions": [dict(c) for c in self.conditions],
            "verdict": self.verdict,
            "diagnostics": dict(self.diagnostics),
        }


def _condition_entry(index, result):
    entry = {"index": index, "holds": result.holds, "witness": None, "counterexample": None}
    if result.witnesses:
        entry["witness"] = result.witnesses[0]
    elif result.data is not None:
        entry["witness"] = result.data
    if result.counterexample is not None:
        entry["counterexample"] = result.counterexample
    return entry


def _conditions(S, specs):
    out = []
    for spec in specs:
        if isinstance(spec, tuple):
            out.append(_conj(*((name.replace("-", "_"), read(S, name)) for name in spec)))
        else:
            result = read(S, spec)
            out.extend(result if isinstance(result, tuple) else (result,))
    return out


def _suite(theorem_id):
    try:
        return _SUITES[theorem_id]
    except KeyError:
        raise ValueError(f"unknown theorem id {theorem_id!r}") from None


def _outcome(S, theorem_id):
    """The one verdict rule: the verdict row ``(suite id, verdict,
    disagreeing diagnostics)`` of one suite on one structure.  Every
    hypothesis and every diagnostic pair is read; the conditions are
    computed only when the hypothesis holds, since a gated verdict needs
    none."""
    kind, hypotheses, specs, readings = _suite(theorem_id)
    gated = not all([read(S, name).holds for name in hypotheses])
    disagreements = tuple(
        [
            name
            for name, plain, other in readings
            if _truths(read(S, plain)) != _truths(read(S, other))
        ]
    )
    if gated:
        return theorem_id, VERDICT_HYPOTHESIS, disagreements
    holds = [res.holds for res in _conditions(S, specs)]
    ok = len(set(holds)) == 1 if kind == "equivalence" else all(holds)
    return theorem_id, VERDICT_EQUIVALENT if ok else VERDICT_DISCREPANCY, disagreements


def verify(S, theorem_id):
    """Evaluate one suite on one structure and render its report: the
    verdict of ``_outcome``, the hypothesis truth values under snake_case
    keys, every condition result, gated or not, and each diagnostic."""
    _, verdict, disagreements = _outcome(S, theorem_id)
    _, hypotheses, specs, readings = _SUITES[theorem_id]
    conditions = _conditions(S, specs)
    return EquivalenceReport(
        theorem_id,
        structure_key(S),
        {name.replace("-", "_"): read(S, name).holds for name in hypotheses},
        tuple(_condition_entry(i, res) for i, res in enumerate(conditions, start=1)),
        verdict,
        {name: name not in disagreements for name, _, _ in readings},
    )


def _resolve_ids(theorems):
    if theorems in (None, "all"):
        return THEOREM_IDS
    if isinstance(theorems, str):
        theorems = (theorems,)
    ids = tuple(theorems)
    if not ids:
        raise ValueError("no theorem ids given")
    for tid in ids:
        _suite(tid)
        if ids.count(tid) > 1:
            raise ValueError(f"theorem id {tid!r} given more than once")
    return ids


def iter_catalog(max_order, sample_count=10_000, sample_seed=0):
    """The verification catalog: every structure (all compatible orders) up
    to order 3, plus at order 4 the discrete-order structures exhaustively
    and a seeded sample of non-discrete ones."""
    return starmap(OrderedSemigroup, _catalog_pairs(max_order, sample_count, sample_seed))


def _catalog_pairs(max_order, sample_count, sample_seed):
    """The (table, leq) pairs of ``iter_catalog``, in its order, none of
    them built; the arguments are checked at the call."""
    _check_order(max_order, "max_order")
    _check_count(sample_count, "sample_count")
    walks = [_pairs(GenerationConfig(n)) for n in range(1, min(max_order, 3) + 1)]
    if max_order >= 4:
        walks.append(_pairs(GenerationConfig(4, order_mode="discrete_only")))
        walks.append(_sample_pairs(4, sample_count, sample_seed))
    return chain.from_iterable(walks)


@dataclass(frozen=True)
class SuiteReport:
    config: dict
    structures: int
    totals: dict
    by_theorem: dict
    discrepancies: tuple
    diagnostics: dict
    runtime_seconds: float

    def to_dict(self):
        return {
            "config": dict(self.config),
            "structures": self.structures,
            "totals": dict(self.totals),
            "by_theorem": {tid: dict(counts) for tid, counts in self.by_theorem.items()},
            "discrepancies": [dict(d) for d in self.discrepancies],
            "diagnostics": dict(self.diagnostics),
        }

    def table(self):
        """Human-readable per-suite verdict table."""
        width = max(len(tid) for tid in self.by_theorem)
        header = f"{'suite':<{width}}  {'equivalent':>10}  {'gated':>7}  {'DISCREPANCY':>11}"
        lines = [header, "-" * len(header)]
        for tid, counts in self.by_theorem.items():
            lines.append(
                f"{tid:<{width}}  {counts[VERDICT_EQUIVALENT]:>10}  "
                f"{counts[VERDICT_HYPOTHESIS]:>7}  {counts[VERDICT_DISCREPANCY]:>11}"
            )
        return "\n".join(lines)


def effective_workers(workers=None):
    """``workers``, or else ``ORDSGP_WORKERS`` (default 1), an integer clamped
    to the CPU count, since a pool starts all its processes at once; at
    least 1."""
    if workers is None:
        raw = os.environ.get(WORKERS_ENV, "1")
        try:
            workers = int(raw)
        except ValueError:
            raise ValueError(f"{WORKERS_ENV} must be an integer, got {raw!r}") from None
    _check_int(workers, "workers")
    return max(1, min(workers, os.cpu_count() or 1))


def _verify_chunk(ids, S):
    """Verdict rows of one structure, one ``_outcome`` row per suite id:
    facts of its isomorphism class."""
    return tuple([_outcome(S, tid) for tid in ids])


def _verify_batch(payload):
    """Pool task: the rows of a batch of pairs (a structure does not pickle)."""
    return list(_rows(*payload, 1))


def _structure_rows(ids, pairs, workers):
    """(pair, verdict rows) per catalog (table, leq) pair, in catalog order.

    Verdicts and diagnostics do not change under isomorphism, so only the
    first pair of each isomorphism class is built and verified, by
    ``_rows``; a later one takes its rows from a memo keyed by
    ``_class_key``.  The memo holds each distinct rows value once: a
    catalog of thousands of classes gives only a handful.

    Precondition: int table entries and bool order entries, as the catalog
    walks give them.  The first pair of each key is built, inline or in a
    pool worker, and so validated; a table outside the associative store
    makes ``_class_key`` build the pair itself.  A later pair has the key
    of a validated structure: its table relabels onto the same orbit-least
    table T0, and its order carried onto T0 is an ``Aut(T0)``-image of that
    structure's order carried onto T0.  So it is a relabelling of that
    structure, which keeps every axiom; but a key compares values, so its
    entry types are never checked (a 1 passes for True)."""
    memo, distinct = {}, {}

    def keyed():  # first is decided once for both branches: ``_rows`` runs ahead
        for pair in pairs:
            key = _class_key(*pair)
            first = key not in memo
            memo.setdefault(key, None)  # filled in when the walk reaches it
            yield key, pair, first

    walk, ahead = tee(keyed())
    with closing(_rows(ids, (p for _, p, first in ahead if first), workers)) as rows:
        for key, pair, first in walk:
            if first:
                found = next(rows)
                memo[key] = distinct.setdefault(found, found)
            yield pair, memo[key]


def _rows(ids, pairs, workers):
    """The verdict rows of each (table, leq) pair, in order, inline or in a
    pool.  The pool path sends batches of up to 64 pairs, which the
    workers build, and keeps at most ``2 * workers`` batches in flight, so
    a consumer that stops early (``fail_fast``) and closes this generator
    leaves only those to finish; queued batches are cancelled."""
    if workers == 1:
        yield from (_verify_chunk(ids, OrderedSemigroup(*pair)) for pair in pairs)
        return
    pairs = iter(pairs)
    window = deque()
    pool = concurrent.futures.ProcessPoolExecutor(max_workers=workers)
    try:
        for batch in iter(lambda: tuple(islice(pairs, 64)), ()):
            window.append(pool.submit(_verify_batch, (ids, batch)))
            if len(window) == 2 * workers:
                yield from window.popleft().result()
        for future in window:
            yield from future.result()
    finally:
        pool.shutdown(cancel_futures=True)


def run_suite(
    theorems="all",
    max_order=3,
    sample_count=10_000,
    sample_seed=0,
    workers=None,
    fail_fast=False,
):
    """Run suites over the verification catalog.

    The report is independent of the worker count: structures are processed
    in catalog order and merged deterministically, and ``fail_fast`` stops
    after the first structure with a discrepancy, whose reports are built
    here from its pair.  Wall-clock time lives only in ``runtime_seconds``,
    which the canonical serialization omits.
    """
    ids = _resolve_ids(theorems)
    workers = effective_workers(workers)
    started = time.perf_counter()
    totals = {VERDICT_EQUIVALENT: 0, VERDICT_HYPOTHESIS: 0, VERDICT_DISCREPANCY: 0}
    by_theorem = {tid: dict(totals) for tid in ids}
    discrepancies = []
    reading_disagreements = {}
    # rows value -> [pairs with it, suite ids of its DISCREPANCY rows], in
    # order of first appearance, so the tallies below keep catalog order
    tally = {}

    pairs = _catalog_pairs(max_order, sample_count, sample_seed)
    with closing(_structure_rows(ids, pairs, workers)) as structure_rows:
        for pair, rows in structure_rows:
            entry = tally.get(rows)
            if entry is None:
                found = [tid for tid, verdict, _ in rows if verdict == VERDICT_DISCREPANCY]
                entry = tally[rows] = [0, found]
            entry[0] += 1
            if entry[1]:
                S = OrderedSemigroup(*pair)
                discrepancies.extend(verify(S, tid).to_dict() for tid in entry[1])
                if fail_fast:
                    break

    for rows, (count, _) in tally.items():
        for tid, verdict, disagreements in rows:
            totals[verdict] += count
            by_theorem[tid][verdict] += count
            for name in disagreements:
                key = f"{tid}.{name}"
                reading_disagreements[key] = reading_disagreements.get(key, 0) + count

    config = {
        "theorems": list(ids),
        "max_order": max_order,
        "sample_count": sample_count if max_order >= 4 else 0,
        "sample_seed": sample_seed if max_order >= 4 else 0,
        "fail_fast": fail_fast,
    }
    return SuiteReport(
        config,
        sum(count for count, _ in tally.values()),
        totals,
        by_theorem,
        tuple(discrepancies),
        {"reading_disagreements": reading_disagreements},
        time.perf_counter() - started,
    )


@dataclass(frozen=True)
class SearchResult:
    structure: OrderedSemigroup | None
    checked: int
    satisfy: tuple
    violate: tuple
    details: dict

    @property
    def found(self):
        return self.structure is not None

    def to_dict(self):
        out = {
            "found": self.found,
            "checked": self.checked,
            "satisfy": list(self.satisfy),
            "violate": list(self.violate),
            "details": dict(self.details),
        }
        if self.structure is not None:
            out["structure"] = self.structure.to_dict()
        return out


def search_model(satisfy=(), violate=(), max_order=3):
    """First structure, in catalog order, satisfying every named predicate
    in ``satisfy`` and violating every one in ``violate``; a bare string is
    one name."""
    _check_order(max_order, "max_order")
    satisfy, violate = ((x,) if isinstance(x, str) else tuple(x) for x in (satisfy, violate))
    # (details label, vocabulary key, wanted truth), satisfy before violate
    wanted = [(name, _predicate_key(name), True) for name in satisfy]
    wanted += [(f"not:{name}", _predicate_key(name), False) for name in violate]
    checked = 0
    for n in range(1, max_order + 1):
        for S in enumerate_ordered_semigroups(GenerationConfig(n)):
            checked += 1
            if all(read(S, key).holds == holds for _, key, holds in wanted):
                details = {label: read(S, key).to_dict() for label, key, _ in wanted}
                return SearchResult(S, checked, satisfy, violate, details)
    return SearchResult(None, checked, satisfy, violate, {})
