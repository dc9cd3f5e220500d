import concurrent.futures
import hashlib
import json
import subprocess
import sys
from contextlib import closing
from itertools import islice

import pytest

from ordsgp import (
    THEOREM_IDS,
    GenerationConfig,
    OrderedSemigroup,
    PredicateResult,
    enumerate_ordered_semigroups,
    lz2,
    n2,
    named_predicate,
    run_suite,
    rz2,
    search_model,
    sl2,
    structure_from_key,
    structure_key,
    t1,
    verify,
)
from ordsgp import harness
from ordsgp.enumeration import _class_key
from ordsgp.harness import iter_catalog
from ordsgp.relations import starred

import oracles
from conftest import child_env
from families import members


@pytest.fixture(autouse=True)
def four_cpus(monkeypatch):
    # effective_workers clamps a worker count to the CPU count, so the pool
    # tests (2 workers) start a real pool on any host; a test that needs
    # another count patches its own
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)


ALL_IDS = (
    "thm2",
    "thm4",
    "thm5",
    "thm6",
    "thm7-open",
    "thm8",
    "thm51",
    "thm-wc",
    "lemma3",
    "lemma7",
    "cor1",
    "cor-pi-inverse",
    "cor-pi-t-simple",
    "cor-hstar",
    "cor-cpr",
)


def test_theorem_id_registry():
    assert set(THEOREM_IDS) == set(ALL_IDS)


# suite id: (hypothesis keys, condition indices, diagnostic names)
REPORT_SCHEMA = {
    "thm2": (set(), range(1, 9), set()),
    "thm4": (set(), range(1, 6), {"complete_reading_agrees"}),
    "thm5": ({"pi_regular"}, range(1, 6), {"readings_agree"}),
    "thm6": (set(), range(1, 3), {"strict_reading_agrees"}),
    "thm7-open": ({"regular"}, range(1, 3), set()),
    "thm8": ({"right_pi_inverse"}, range(1, 5), {"complete_reading_agrees"}),
    "thm51": ({"regular"}, range(1, 6), set()),
    "thm-wc": (
        {"right_weakly_commutative", "right_archimedean", "lstar_unique_idempotent"},
        range(1, 2),
        set(),
    ),
    "lemma3": (set(), range(1, 2), set()),
    "lemma7": ({"right_pi_inverse"}, range(1, 2), set()),
    "cor1": (set(), range(1, 6), set()),
    "cor-pi-inverse": (set(), range(1, 3), set()),
    "cor-pi-t-simple": ({"right_pi_inverse", "left_pi_t_simple"}, range(1, 2), set()),
    "cor-hstar": ({"pi_inverse"}, range(1, 5), {"complete_reading_agrees"}),
    "cor-cpr": ({"right_pi_inverse", "left_pi_regular"}, range(1, 5), set()),
}


@pytest.mark.parametrize("tid", ALL_IDS)
def test_report_schema_per_suite(tid):
    # T1 meets every hypothesis, agrees with itself under every reading
    hypotheses, indices, diagnostics = REPORT_SCHEMA[tid]
    rep = verify(t1(), tid)
    assert set(rep.hypothesis) == hypotheses
    assert all(rep.hypothesis.values())
    assert [c["index"] for c in rep.conditions] == list(indices)
    assert set(rep.diagnostics) == diagnostics
    assert all(rep.diagnostics.values())
    assert rep.verdict == "equivalent"


def test_verify_examples():
    rep = verify(n2(), "thm2")
    assert rep.verdict == "equivalent"
    assert all(c["holds"] for c in rep.conditions)

    rep = verify(lz2(), "thm8")
    assert rep.verdict == "hypothesis_not_met"
    assert rep.hypothesis == {"right_pi_inverse": False}
    holds = {c["index"]: c["holds"] for c in rep.conditions}
    assert holds[1] is True and holds[4] is False

    rep = verify(sl2(), "thm51")
    assert rep.verdict == "equivalent"
    assert rep.hypothesis == {"regular": True}
    assert all(c["holds"] for c in rep.conditions)

    with pytest.raises(ValueError):
        verify(t1(), "thm99")


def test_verify_gating_and_laws():
    # lemma7's conclusion fails on LZ2 but so does its hypothesis
    rep = verify(lz2(), "lemma7")
    assert rep.verdict == "hypothesis_not_met"
    assert not rep.conditions[0]["holds"]
    rep = verify(lz2(), "lemma3")
    assert rep.verdict == "equivalent"
    # implication suite with false antecedent never reports a discrepancy
    rep = verify(rz2(), "thm-wc")
    assert rep.verdict == "hypothesis_not_met"
    rep = verify(n2(), "thm-wc")
    assert rep.verdict == "equivalent"
    assert rep.hypothesis == {
        "right_weakly_commutative": True,
        "right_archimedean": True,
        "lstar_unique_idempotent": True,
    }


def test_verify_is_deterministic_and_cache_free():
    for tid in ALL_IDS:
        first = json.dumps(verify(sl2(), tid).to_dict(), sort_keys=True)
        second = json.dumps(verify(sl2(), tid).to_dict(), sort_keys=True)
        assert first == second, tid


def test_cor1_indices_follow_source_numbering():
    rep = verify(n2(), "cor1")
    assert [c["index"] for c in rep.conditions] == [1, 2, 3, 4, 5]
    assert rep.verdict == "equivalent"


def test_iter_catalog_counts():
    assert sum(1 for _ in iter_catalog(1)) == 1
    assert sum(1 for _ in iter_catalog(2)) == 21
    n4 = sum(1 for _ in iter_catalog(4, sample_count=10, sample_seed=0))
    assert n4 == 992 + 3492 + 10
    with pytest.raises(ValueError):
        list(iter_catalog(5))


def test_empty_or_negative_catalog_is_rejected():
    for max_order in (0, -2):
        with pytest.raises(ValueError, match="max_order must be at least 1"):
            list(iter_catalog(max_order))
        with pytest.raises(ValueError, match="max_order must be at least 1"):
            search_model(satisfy=["regular"], max_order=max_order)
    with pytest.raises(ValueError, match="sample_count must not be negative"):
        list(iter_catalog(4, sample_count=-5))


def test_iter_catalog_rejects_at_call():
    # checked when called, before the first structure is asked for
    with pytest.raises(ValueError, match="max_order must be at least 1"):
        iter_catalog(0)
    with pytest.raises(ValueError, match="capped at 4"):
        iter_catalog(5)
    with pytest.raises(ValueError, match="sample_count must not be negative"):
        iter_catalog(3, sample_count=-1)


def test_run_suite_rejects_order_before_pool(monkeypatch):
    def no_pool(*args, **kwargs):
        raise AssertionError("pool built for a rejected max_order")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", no_pool)
    with pytest.raises(ValueError, match="capped at 4"):
        run_suite(max_order=5, workers=2)


def test_run_suite_checks_explicit_workers_before_the_pool(monkeypatch):
    # the executor is patched, so no process starts
    started = []

    def recording_pool(max_workers):
        started.append(max_workers)
        raise RuntimeError("no pool in this test")

    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    with pytest.raises(RuntimeError, match="no pool in this test"):
        run_suite("thm2", max_order=2, workers=64)
    for bad in (2.5, True, "2"):
        with pytest.raises(ValueError, match="workers must be an integer"):
            run_suite("thm2", max_order=2, workers=bad)
    assert started == [2]


def test_importing_ordsgp_loads_no_process_pool():
    # the pool module (multiprocessing, socket, pickle) loads only when a
    # pool is started
    probe = "import sys, ordsgp; print('multiprocessing' in sys.modules)"
    proc = subprocess.run(
        [sys.executable, "-c", probe],
        env=child_env("1"),
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "False\n", "")


def test_run_suite_small_exhaustive():
    rep = run_suite("all", max_order=2)
    assert rep.structures == 21
    assert rep.totals["DISCREPANCY"] == 0
    assert rep.totals["equivalent"] + rep.totals["hypothesis_not_met"] == 21 * len(ALL_IDS)
    assert rep.diagnostics == {"reading_disagreements": {}}
    assert rep.config["theorems"] == list(ALL_IDS)
    assert set(rep.by_theorem) == set(ALL_IDS)
    for counts in rep.by_theorem.values():
        assert sum(counts.values()) == 21
    # every suite without a hypothesis gate is equivalent everywhere
    assert rep.by_theorem["thm2"]["equivalent"] == 21
    assert "thm2" in rep.table() and "DISCREPANCY" in rep.table()

    single = run_suite("lemma3", max_order=1)
    assert single.totals == {"equivalent": 1, "hypothesis_not_met": 0, "DISCREPANCY": 0}
    with pytest.raises(ValueError):
        run_suite("nope", max_order=1)


def test_run_suite_rejects_a_repeated_suite_id():
    # a repeated id would count each structure twice under that suite
    for theorems in (("thm2", "thm2"), ["lemma3", "thm2", "lemma3"]):
        with pytest.raises(ValueError, match="theorem id '(thm2|lemma3)' given more than once"):
            run_suite(theorems, max_order=2)
    with pytest.raises(ValueError, match="unknown theorem id 'nope'"):
        run_suite(("thm2", "nope", "nope"), max_order=1)


def test_each_suite_tallies_every_structure_once():
    rep = run_suite("all", max_order=3)
    assert rep.config["theorems"] == list(ALL_IDS)
    for tid, counts in rep.by_theorem.items():
        assert sum(counts.values()) == rep.structures, tid
    assert rep.totals == {
        verdict: sum(counts[verdict] for counts in rep.by_theorem.values())
        for verdict in rep.totals
    }


def test_run_suite_rejects_an_empty_suite_list():
    # An empty report would have no rows for table() to size its columns by.
    for theorems in ((), []):
        with pytest.raises(ValueError, match="no theorem ids given"):
            run_suite(theorems, max_order=1)


def test_run_suite_singleton_satisfies_everything():
    rep = run_suite("all", max_order=1)
    # the one-element structure meets every hypothesis and every condition
    assert rep.totals == {
        "equivalent": len(ALL_IDS),
        "hypothesis_not_met": 0,
        "DISCREPANCY": 0,
    }


def test_verify_thm7_open_and_thm_wc_conditions():
    rep = verify(lz2(), "thm7-open")
    assert rep.verdict == "equivalent"
    assert rep.hypothesis == {"regular": True}
    assert [c["holds"] for c in rep.conditions] == [True, True]
    rep = verify(sl2(), "thm7-open")
    assert [c["holds"] for c in rep.conditions] == [False, False]
    rep = verify(n2(), "thm-wc")
    assert rep.conditions[0]["holds"]


def test_run_suite_worker_independence(monkeypatch):
    real_pool = concurrent.futures.ProcessPoolExecutor
    started = []

    def recording_pool(max_workers):
        started.append(max_workers)
        return real_pool(max_workers=max_workers)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", recording_pool)
    one = run_suite("thm6", max_order=2, workers=1)
    two = run_suite("thm6", max_order=2, workers=2)
    assert started == [2]
    assert json.dumps(one.to_dict(), sort_keys=True) == json.dumps(
        two.to_dict(), sort_keys=True
    )


def test_fail_fast_report_is_worker_independent(monkeypatch):
    # every order-2 structure is made to look discrepant; forked pool
    # workers inherit the patch
    real_outcome = harness._outcome

    def faulty_outcome(S, tid):
        row = real_outcome(S, tid)
        if S.order == 2:
            return tid, "DISCREPANCY", row[2]
        return row

    monkeypatch.setattr(harness, "_outcome", faulty_outcome)
    one, two = (
        run_suite("thm2", max_order=2, workers=w, fail_fast=True).to_dict() for w in (1, 2)
    )
    assert one == two
    assert one["structures"] == 2
    assert one["totals"] == {"equivalent": 1, "hypothesis_not_met": 0, "DISCREPANCY": 1}
    assert [d["structure_key"] for d in one["discrepancies"]] == ["n2:0000:1001"]


def test_fail_fast_pool_stops_within_the_in_flight_window(monkeypatch, tmp_path):
    # forked pool workers inherit both patches and log each structure they
    # verify; after the stop only the batches already in flight may finish
    log = tmp_path / "verified.log"
    real_outcome, real_chunk = harness._outcome, harness._verify_chunk

    def faulty_outcome(S, tid):
        row = real_outcome(S, tid)
        if S.order == 2:
            return tid, "DISCREPANCY", row[2]
        return row

    def logging_chunk(ids, S):
        with open(log, "a", encoding="utf-8") as fh:
            fh.write(structure_key(S) + "\n")
        return real_chunk(ids, S)

    monkeypatch.setattr(harness, "_outcome", faulty_outcome)
    monkeypatch.setattr(harness, "_verify_chunk", logging_chunk)
    workers = 2
    report = run_suite("thm4", max_order=3, workers=workers, fail_fast=True)
    assert report.structures == 2
    verified = log.read_text().splitlines()
    assert len(verified) <= 2 * workers * 64  # of the 992 catalog structures


def test_repeated_class_discrepancies_match_the_labelled_loop(monkeypatch):
    # the fault is invariant under isomorphism, so later members of a class
    # reuse rows holding a DISCREPANCY; each must still report under its
    # own key, in catalog order, as the labelled loop does
    real_outcome = harness._outcome

    def faulty_outcome(S, tid):
        row = real_outcome(S, tid)
        if S.order == 2:
            return tid, "DISCREPANCY", row[2]
        return row

    monkeypatch.setattr(harness, "_outcome", faulty_outcome)
    labelled = [verify(S, "thm2").to_dict() for S in iter_catalog(2) if S.order == 2]
    assert len({d["structure_key"] for d in labelled}) == 20
    for workers in (1, 2):
        report = run_suite("thm2", max_order=2, workers=workers).to_dict()
        assert report["discrepancies"] == labelled
        assert report["totals"] == {"equivalent": 1, "hypothesis_not_met": 0, "DISCREPANCY": 20}


def test_a_catalog_without_discrepancy_renders_no_report(monkeypatch):
    # verdict rows come from truth values and no row of the order <= 3
    # catalog is a DISCREPANCY, so no report is rendered; forked pool
    # workers inherit the patch
    expected = run_suite("all", max_order=3).to_dict()

    def rendering_refused(S, tid):
        raise AssertionError(f"report rendered for {tid} on {structure_key(S)}")

    monkeypatch.setattr(harness, "verify", rendering_refused)
    for workers in (1, 2):
        assert run_suite("all", max_order=3, workers=workers).to_dict() == expected


def row_from_report(report):
    """The verdict row a full report implies, by each kind's rule: the
    hypothesis first, then the conditions' truth values, then the
    diagnostics that disagree."""
    truths = [c["holds"] for c in report["conditions"]]
    if not all(report["hypothesis"].values()):
        verdict = "hypothesis_not_met"
    elif harness._SUITES[report["theorem"]][0] == "equivalence":
        verdict = "equivalent" if len(set(truths)) == 1 else "DISCREPANCY"
    else:
        verdict = "equivalent" if all(truths) else "DISCREPANCY"
    disagreements = tuple(name for name, agree in report["diagnostics"].items() if not agree)
    return report["theorem"], verdict, disagreements


@pytest.mark.parametrize("catalog", ["order3", "order4-discrete", "families"])
def test_verdict_rows_match_the_full_reports(catalog):
    # a row skips a gated suite's conditions; the report computes them all
    structures = {
        "order3": lambda: iter_catalog(3),
        "order4-discrete": lambda: enumerate_ordered_semigroups(
            GenerationConfig(4, order_mode="discrete_only")
        ),
        "families": lambda: (S for _, S in members()),
    }[catalog]()
    for S in structures:
        rows = harness._verify_chunk(THEOREM_IDS, S)
        expected = tuple(row_from_report(verify(S, tid).to_dict()) for tid in THEOREM_IDS)
        assert rows == expected, structure_key(S)


@pytest.mark.parametrize("order", [3, 4])
def test_structure_rows_equal_the_labelled_rows(order):
    # one verification per isomorphism class gives each pair with the rows
    # of verifying its labelled structure: the order <= 3 catalog, or the
    # order-4 discrete-order catalog
    def catalog():
        if order == 3:
            return iter_catalog(3)
        return enumerate_ordered_semigroups(GenerationConfig(4, order_mode="discrete_only"))

    labelled = [((S.table, S.leq), harness._verify_chunk(THEOREM_IDS, S)) for S in catalog()]
    for workers in (1, 2):
        pairs = ((S.table, S.leq) for S in catalog())
        assert list(harness._structure_rows(THEOREM_IDS, pairs, workers)) == labelled


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize(
    "table, leq, message",
    [
        (
            ((1, 0), (0, 0)),
            ((True, False), (False, True)),
            "not an ordered semigroup: associativity fails",
        ),
        (
            ((0, 1), (1, 0)),
            ((True, True), (False, True)),
            "not an ordered semigroup: left-compatibility fails",
        ),
        (((0, 0), (0, 1)), ((1, 0), (0, 1)), r"order entry \(0,0\) = 1 is not a boolean"),
        (
            ((False, False), (False, True)),
            ((True, False), (False, True)),
            r"table entry \(0,0\) = False outside carrier",
        ),
    ],
    ids=["non-associative", "incompatible", "int-order", "bool-table"],
)
def test_structure_rows_raise_the_validator_error_on_a_first_pair(table, leq, message, workers):
    # the first pair of a key is built, inline or in a pool worker, and a
    # table outside the associative store is built by its key; the last
    # two pairs equal a catalog pair in value, and alone each is the first
    # of its key, so the validator refuses its entry types
    with pytest.raises(ValueError, match=message):
        list(harness._structure_rows(THEOREM_IDS, [(table, leq)], workers))


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_equal_the_rows_of_each_pair(workers):
    # 130 pairs span three pool batches of up to 64
    pairs = [(S.table, S.leq) for S in islice(iter_catalog(3), 130)]
    expected = [harness._verify_chunk(THEOREM_IDS, OrderedSemigroup(*p)) for p in pairs]
    assert list(harness._rows(THEOREM_IDS, pairs, workers)) == expected


def test_rows_read_at_most_the_window_ahead():
    # at 2 workers at most 2 * 2 batches of 64 pairs are in flight
    read = []

    def counting():
        for S in iter_catalog(3):
            read.append(S)
            yield S.table, S.leq

    with closing(harness._rows(THEOREM_IDS, counting(), 2)) as rows:
        assert next(rows) == harness._verify_chunk(THEOREM_IDS, read[0])
        assert 64 <= len(read) <= 2 * 2 * 64


@pytest.mark.parametrize("workers", [1, 2])
def test_structure_rows_with_a_repeated_pair_object(workers):
    # whether a pair is first is decided once per keyed pair, not by each
    # branch of the walk: the pool branch runs ahead, and a repeated pair
    # object would be first to it and later to the walk
    order2 = [(S.table, S.leq) for S in iter_catalog(2)]
    p, q = order2[-1], order2[-2]
    pairs = [p, p, q, p] + order2
    labelled = [(x, harness._verify_chunk(THEOREM_IDS, OrderedSemigroup(*x))) for x in pairs]
    assert list(harness._structure_rows(THEOREM_IDS, iter(pairs), workers)) == labelled


def test_run_suite_builds_one_structure_per_class(monkeypatch):
    # the inline path builds each class's first pair and nothing else; with
    # a pool the workers build them and the parent builds none
    built = []

    def counting(table, leq):
        built.append(_class_key(table, leq))
        return OrderedSemigroup(table, leq)

    keys = list(dict.fromkeys(_class_key(S.table, S.leq) for S in iter_catalog(3)))
    expected = run_suite("all", max_order=3, workers=1).to_dict()
    monkeypatch.setattr(harness, "OrderedSemigroup", counting)
    assert run_suite("all", max_order=3, workers=1).to_dict() == expected
    assert built == keys and len(keys) == 185
    built.clear()
    assert run_suite("all", max_order=3, workers=2).to_dict() == expected
    assert built == []


def test_golden_report_digest_order3():
    # byte-level guard for speed-ups: every suite report over the order <= 3
    # catalog, in catalog order, hashed as canonical JSON
    digest = hashlib.sha256()
    for S in iter_catalog(3):
        for tid in THEOREM_IDS:
            digest.update(json.dumps(verify(S, tid).to_dict(), sort_keys=True).encode())
    assert digest.hexdigest() == (
        "93fa82c0bf11ae834af68d39e03f4f9ecca157a1ab7a206b5863fd42de028e31"
    )


def test_search_model_examples():
    res = search_model(satisfy=["left-simple"], violate=["right-simple"], max_order=2)
    assert res.found
    assert res.structure == lz2()
    assert res.checked == 8

    res = search_model(satisfy=["pi-regular"], max_order=1)
    assert structure_key(res.structure) == "n1:0:1"

    # frozen from the first exhaustive run: the right-zero pair is the
    # earliest right-pi-inverse structure that is not left-pi-inverse
    res = search_model(
        satisfy=["right-pi-inverse"], violate=["left-pi-inverse"], max_order=4
    )
    assert res.found
    assert structure_key(res.structure) == "n2:0101:1001"
    assert res.checked == 11

    nothing = search_model(satisfy=["left-simple", "right-simple"], violate=["simple"], max_order=2)
    assert not nothing.found
    assert nothing.checked == 21

    with pytest.raises(ValueError):
        search_model(satisfy=["unknown-pred"], max_order=1)
    with pytest.raises(ValueError):
        search_model(max_order=9)


def test_search_model_reads_a_bare_string_as_one_name():
    for satisfy, violate in (("left-simple", "right-simple"), ("left_simple", ["right-simple"])):
        res = search_model(satisfy=satisfy, violate=violate, max_order=2)
        assert res.structure == lz2()
        assert res.satisfy == (satisfy,)
        assert set(res.details) == {satisfy, "not:right-simple"}
    assert search_model(satisfy="regular", max_order=1).satisfy == ("regular",)
    with pytest.raises(ValueError, match="unknown predicate name 'bogus-name'"):
        search_model(satisfy="bogus-name", max_order=1)
    with pytest.raises(ValueError, match="unknown predicate name 3"):
        search_model(violate=[3], max_order=1)


def test_search_model_builds_details_only_for_the_structure_it_returns(monkeypatch):
    # a rejected structure is tested on truth values alone: one details dict
    # per wanted name is built, for the returned structure, whichever failed
    built = []
    to_dict = PredicateResult.to_dict
    monkeypatch.setattr(PredicateResult, "to_dict", lambda r: built.append(r) or to_dict(r))
    res = search_model(
        satisfy=["right-pi-inverse"], violate=["left-pi-inverse"], max_order=4
    )
    assert res.checked == 11 and len(built) == 2
    assert res.details == {
        "right-pi-inverse": to_dict(named_predicate(res.structure, "right-pi-inverse")),
        "not:left-pi-inverse": to_dict(named_predicate(res.structure, "left-pi-inverse")),
    }
    built.clear()
    nothing = search_model(satisfy=["left-simple", "right-simple"], violate=["simple"], max_order=2)
    assert (nothing.checked, nothing.details, built) == (21, {}, [])


def test_report_schema_shape():
    rep = verify(sl2(), "thm8").to_dict()
    assert set(rep) == {
        "theorem",
        "structure_key",
        "hypothesis",
        "conditions",
        "verdict",
        "diagnostics",
    }
    for cond in rep["conditions"]:
        assert set(cond) == {"index", "holds", "witness", "counterexample"}
    json.dumps(rep)


# The Brandt semigroup B2 (0 the zero) under the discrete order and under
# the order with 0 least.  Its cor-hstar verdict is an open finding: the
# suite's encoding has not been checked against the paper's statement.
B2_TABLE = "0000000012012000003403400"
B2_KEYS = (
    f"n5:{B2_TABLE}:1000001000001000001000001",
    f"n5:{B2_TABLE}:1111101000001000001000001",
)


@pytest.mark.parametrize("key", B2_KEYS, ids=("discrete", "zero-least"))
def test_brandt_b2_pinned_values(key):
    S = structure_from_key(key)
    table, leq = [list(r) for r in S.table], [list(r) for r in S.leq]
    expected = {
        "L": [[0], [1, 3], [2, 4]],
        "R": [[0], [1, 2], [3, 4]],
        "H": [[0], [1], [2], [3], [4]],
    }
    for kind, classes in expected.items():
        assert oracles.starred_classes(table, leq, kind) == classes
        assert starred(S, kind).to_lists() == classes
    hstar = verify(S, "cor-hstar")
    assert hstar.hypothesis == {"pi_inverse": True}
    assert [c["holds"] for c in hstar.conditions] == [True, False, False, False]
    assert hstar.verdict == "DISCREPANCY"
    thm8 = verify(S, "thm8")
    assert [c["holds"] for c in thm8.conditions] == [False, False, False, False]
    assert thm8.verdict == "equivalent"


@pytest.mark.parametrize("key", B2_KEYS, ids=("discrete", "zero-least"))
def test_b2_rows_render_only_the_cor_hstar_report(key):
    # the rows hold verdicts only; cor-hstar is the one DISCREPANCY, the one
    # report a catalog run renders, and every verdict is the rendered one
    S = structure_from_key(key)
    rows = harness._verify_chunk(THEOREM_IDS, S)
    assert [tid for tid, verdict, _ in rows if verdict == "DISCREPANCY"] == ["cor-hstar"]
    assert [(tid, verdict) for tid, verdict, _ in rows] == [
        (tid, verify(S, tid).verdict) for tid in THEOREM_IDS
    ]


def test_workers_env_is_clamped_to_cpu_count(monkeypatch):
    # only effective_workers is called: no pool is started
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    for raw, workers in (("100000", 2), ("2", 2), ("1", 1), ("0", 1), ("-3", 1)):
        monkeypatch.setenv("ORDSGP_WORKERS", raw)
        assert harness.effective_workers() == workers
    monkeypatch.setattr(harness.os, "cpu_count", lambda: None)
    monkeypatch.setenv("ORDSGP_WORKERS", "8")
    assert harness.effective_workers() == 1
    # an explicit worker count is checked and clamped the same way
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 2)
    for workers, effective in ((8, 2), (2, 2), (1, 1), (0, 1), (-3, 1)):
        assert harness.effective_workers(workers) == effective
    for bad in (2.5, 8.0, True, "8"):
        with pytest.raises(ValueError, match="workers must be an integer"):
            harness.effective_workers(bad)
    monkeypatch.delenv("ORDSGP_WORKERS")
    assert harness.effective_workers() == 1
