import dataclasses
import gc
import tracemalloc
from itertools import chain

import pytest

from ordsgp import (
    THEOREM_IDS,
    GenerationConfig,
    Partition,
    PredicateResult,
    classify_partition,
    enumerate_ordered_semigroups,
    enumerate_semilattice_congruences,
    lz2,
    n2,
    named_predicate,
    restrict,
    rz2,
    semilattice_decomposition,
    sl2,
    t1,
    theorem8_conditions,
    validate,
    verify,
)
from ordsgp.congruences import _eta, all_partitions
from ordsgp.harness import _verify_chunk, iter_catalog


def test_classify_singletons_on_sl2():
    cert = classify_partition(sl2(), Partition.singletons(2))
    assert cert.is_congruence
    assert cert.is_semilattice
    # 0 <= 1 asks for 0 ~ 0*1 = 0, which is reflexive: completeness holds
    assert cert.is_complete
    assert cert.counterexamples == {}


def test_classify_one_class_partition():
    for build in (t1, lz2, rz2, sl2, n2):
        cert = classify_partition(build(), Partition.one_class(build().order))
        assert cert.is_congruence and cert.is_semilattice and cert.is_complete


def test_classify_singletons_on_lz2():
    cert = classify_partition(lz2(), Partition.singletons(2))
    assert cert.is_congruence
    assert not cert.is_semilattice
    assert cert.counterexamples["semilattice"] == {"a": 0, "b": 1, "law": "a*b ~ b*a"}


def test_classify_rejects_wrong_carrier():
    with pytest.raises(ValueError):
        classify_partition(sl2(), Partition.singletons(3))


def test_classify_idempotent_under_canonicalization():
    S = sl2()
    p = Partition(2, ["x", "y"])
    q = Partition(2, p.class_of)
    a, b = classify_partition(S, p), classify_partition(S, q)
    assert (a.is_congruence, a.is_semilattice, a.is_complete) == (
        b.is_congruence,
        b.is_semilattice,
        b.is_complete,
    )


def test_all_partitions_counts_and_order():
    assert len(list(all_partitions(1))) == 1
    assert len(list(all_partitions(3))) == 5
    assert len(list(all_partitions(4))) == 15
    # coarsest first
    assert list(all_partitions(3))[0].num_classes == 1
    assert list(all_partitions(3))[-1].num_classes == 3
    with pytest.raises(ValueError):
        all_partitions(11)


def test_all_partitions_is_lazy():
    # Bell(10) is 115975 partitions; the first must come without the rest.
    gc.collect()
    tracemalloc.start()
    try:
        first = next(all_partitions(10))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert first.num_classes == 1
    assert peak < 1_000_000, peak


def test_enumerate_semilattice_congruences_examples():
    assert [p.to_lists() for p in enumerate_semilattice_congruences(t1())] == [[[0]]]
    assert [p.to_lists() for p in enumerate_semilattice_congruences(lz2())] == [[[0, 1]]]
    assert [p.to_lists() for p in enumerate_semilattice_congruences(sl2())] == [
        [[0, 1]],
        [[0], [1]],
    ]


def test_semilattice_congruence_classes_product_closed():
    for build in (t1, lz2, rz2, sl2, n2):
        S = build()
        for p in enumerate_semilattice_congruences(S):
            for mask in p.classes:
                members = [x for x in S.elements() if mask >> x & 1]
                for a in members:
                    for b in members:
                        assert mask >> S.table[a][b] & 1


def test_semilattice_decomposition_examples():
    from ordsgp.predicates import _thm2_all_hold

    res = semilattice_decomposition(sl2(), _thm2_all_hold)[0]
    assert res.holds and res.data == {"partition": [[0], [1]]}
    res = semilattice_decomposition(lz2(), _thm2_all_hold)[0]
    assert res.holds and res.data == {"partition": [[0, 1]]}
    res = semilattice_decomposition(
        lz2(), lambda sub: named_predicate(sub, "right-pi-t-simple").holds
    )[0]
    assert not res.holds
    # on SL2 the singletons are also a complete semilattice congruence
    res = semilattice_decomposition(sl2(), _thm2_all_hold)[1]
    assert res.holds and res.data == {"partition": [[0], [1]]}


def test_theorem8_conditions_examples():
    conds = theorem8_conditions(sl2())
    assert [c.holds for c in conds] == [True] * 4
    # identity partition is a congruence, but the semilattice law a*b ~ b*a
    # fails, the canonical exhibit for why the gate matters
    conds = theorem8_conditions(lz2())
    assert [c.holds for c in conds] == [True, False, False, False]
    conds = theorem8_conditions(t1())
    assert [c.holds for c in conds] == [True] * 4


def test_corollary_suites_report():
    def summary(S, tid):
        rep = verify(S, tid)
        holds = [c["holds"] for c in rep.conditions]
        return rep.hypothesis, holds, len(set(holds)) == 1

    hyp, _, agree = summary(sl2(), "cor-hstar")
    assert hyp == {"pi_inverse": True}
    assert agree
    hyp, holds, _ = summary(n2(), "cor-cpr")
    assert hyp == {
        "right_pi_inverse": True,
        "left_pi_regular": True,
    }
    assert holds == [True] * 4
    _, hstar, hstar_agree = summary(t1(), "cor-hstar")
    _, cpr, cpr_agree = summary(t1(), "cor-cpr")
    assert hstar == [True] * 4
    assert cpr == [True] * 4
    assert hstar_agree and cpr_agree


def test_eta_scan_equals_the_bell_scan():
    # Every semilattice congruence contains eta, so scanning the partitions
    # of the eta-classes must find exactly what the scan of all Bell(n)
    # partitions finds, in the same coarsest-first order.  A decomposition
    # search must return what a first-match scan of the Bell list returns.
    order4 = enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))
    count = 0
    for S in chain(iter_catalog(3), order4):
        certs = [
            cert
            for cert in (classify_partition(S, p) for p in all_partitions(S.order))
            if cert.is_semilattice_congruence()
        ]
        bell = tuple(cert.partition for cert in certs)
        found = enumerate_semilattice_congruences(S)
        assert found == bell, S
        eta = _eta(S.table)
        assert found[-1] == eta, S
        assert all(eta.refines(p) for p in found), S
        for name in ("left-pi-t-simple", "right-pi-t-simple", "pi-t-simple"):
            got = semilattice_decomposition(S, lambda sub: named_predicate(sub, name).holds)
            for complete_only in (False, True):
                candidates = [c.partition for c in certs if c.is_complete or not complete_only]
                want = next(
                    (
                        PredicateResult(True, data={"partition": p.to_lists()})
                        for p in candidates
                        if all(
                            named_predicate(restrict(S, mask)[0], name).holds
                            for mask in p.classes
                        )
                    ),
                    PredicateResult(
                        False, counterexample={"semilattice_congruences": len(candidates)}
                    ),
                )
                assert got[complete_only] == want, (S, name, complete_only)
        count += 1
    assert count == 5745


def test_second_readings_reuse_the_first_build(monkeypatch):
    # The complete and every-power readings come from the build that the
    # first reading made: no class check and no shared condition runs again.
    from ordsgp import congruences, predicates

    catalog = list(iter_catalog(3))
    for S in catalog:
        for name in ("thm4", "thm5", "thm8", "cor-hstar"):
            predicates.read(S, name)

    def recomputed(*args, **kwargs):
        raise AssertionError("a second reading recomputed a shared check")

    monkeypatch.setattr(congruences, "_class_holds", recomputed)
    for name in ("_thm4_c2", "_thm4_c4", "_thm5_c3", "_thm5_c4"):
        monkeypatch.setattr(predicates, name, recomputed)
    for S in catalog:
        assert len(predicates.read(S, "thm4-complete")) == 5
        assert len(predicates.read(S, "thm5-all-powers")) == 5
        assert len(predicates.read(S, "thm8-complete")) == 4
        assert len(predicates.read(S, "cor-hstar-complete")) == 4


def test_semilattice_scan_keeps_no_per_partition_state():
    # The order-8 min-chain has one eta-class per element, so the scan
    # classifies all 4140 partitions of its carrier for 128 semilattice
    # congruences.  Only those are kept, on S, and nothing outlives S.
    n = 8
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        S = validate(
            [[min(i, j) for j in range(n)] for i in range(n)],
            [[i <= j for j in range(n)] for i in range(n)],
        )
        assert len(enumerate_semilattice_congruences(S)) == 2 ** (n - 1)
        entries = len(S._cache)
        del S
        gc.collect()
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert entries <= 3, entries
    assert retained < 100_000, retained


def _reachable(value):
    yield value
    if isinstance(value, (tuple, list)):
        members = value
    elif isinstance(value, dict):
        members = chain(value.keys(), value.values())
    elif isinstance(value, PredicateResult):
        members = (getattr(value, f.name) for f in dataclasses.fields(value))
    else:
        return
    for member in members:
        yield from _reachable(member)


def test_cached_values_never_refer_back_to_their_structure():
    # A cache entry that holds S itself makes a reference cycle, which
    # keeps every structure of a catalog walk alive until the collector runs.
    for S in iter_catalog(2):
        _verify_chunk(THEOREM_IDS, S)
        assert not any(v is S for v in _reachable(list(S._cache.values()))), S
