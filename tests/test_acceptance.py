"""Acceptance suite: one test per criterion, summarized at the end of the run.

The heavy catalogs are shared session fixtures so each criterion reads from
one deterministic pass.
"""

import json
import subprocess
import sys

import pytest

from ordsgp import OrderedSemigroup, harness, run_suite, validate
from ordsgp.core import _close, _prod, power_profile, principal_ideal
from ordsgp.enumeration import enumerate_compatible_orders, enumerate_tables
from ordsgp.harness import THEOREM_IDS, iter_catalog
from ordsgp.predicates import (
    _thm2_c4,
    _thm5_c3,
    named_predicate,
    theorem2_conditions,
    theorem4_conditions,
    theorem5_conditions,
    theorem6_condition,
    theorem8_conditions,
)
from ordsgp.relations import regularity_profile
from ordsgp import lz2, n2, rz2, sl2

from conftest import child_env, record_criterion

SAMPLE_COUNT = 10_000
SAMPLE_SEED = 0
ORDER3_TOTAL = 992  # 1 + 20 + 971 labeled ordered semigroups


@pytest.fixture(scope="session")
def suite_order3():
    return run_suite("all", max_order=3)


@pytest.fixture(scope="session")
def suite_order4():
    return run_suite(
        "all", max_order=4, sample_count=SAMPLE_COUNT, sample_seed=SAMPLE_SEED
    )


def test_criterion_1_zero_discrepancy_order3(suite_order3):
    rep = suite_order3
    ok = False
    try:
        assert list(rep.config["theorems"]) == list(THEOREM_IDS)
        assert len(THEOREM_IDS) == 15
        assert rep.structures == ORDER3_TOTAL
        assert rep.totals["DISCREPANCY"] == 0
        assert rep.discrepancies == ()
        assert rep.runtime_seconds < 60
        ok = True
    finally:
        record_criterion(
            1,
            f"zero discrepancies, all 15 suites, every structure of order <= 3 "
            f"({rep.structures} structures, {rep.runtime_seconds:.1f}s)",
            ok,
        )


def test_criterion_2_zero_discrepancy_order4_regime(suite_order4):
    rep = suite_order4
    ok = False
    try:
        # table supply cross-checked against the published labeled counts
        assert len(list(enumerate_tables(3))) == 113
        assert len(list(enumerate_tables(4))) == 3492
        assert rep.structures == ORDER3_TOTAL + 3492 + SAMPLE_COUNT
        assert rep.totals["DISCREPANCY"] == 0
        assert rep.runtime_seconds < 600
        ok = True
    finally:
        record_criterion(
            2,
            f"zero discrepancies at order 4: 3492 discrete tables + "
            f"{SAMPLE_COUNT} sampled nontrivial orders ({rep.runtime_seconds:.1f}s)",
            ok,
        )


def test_criterion_3_oracle_agreement():
    checked = 0
    ok = False
    try:
        for S in iter_catalog(4, sample_count=SAMPLE_COUNT, sample_seed=SAMPLE_SEED):
            direct = named_predicate(S, "left-pi-t-simple").holds
            c4 = _thm2_c4(S).holds
            c7 = (
                named_predicate(S, "pi-regular").holds
                and named_predicate(S, "left-archimedean").holds
            )
            assert direct == c4 == c7, S
            rpi = named_predicate(S, "right-pi-inverse").holds
            c3 = _thm5_c3(S).holds
            t6 = theorem6_condition(S).holds
            assert rpi == c3 == t6, S
            checked += 1
        assert checked == ORDER3_TOTAL + 3492 + SAMPLE_COUNT
        ok = True
    finally:
        record_criterion(
            3,
            f"direct-definition oracles agree with their batteries on all "
            f"{checked} structures, exact equality",
            ok,
        )


def test_criterion_4_fixture_ledger():
    ok = False
    try:
        # 1. the chain semilattice data validates
        assert isinstance(validate([[0, 0], [0, 1]], [[True, True], [False, True]]), OrderedSemigroup)
        # 2. the left-zero table is order-compatible with the chain 0 <= 1,
        #    and admits exactly three compatible orders in total
        assert isinstance(validate([[0, 0], [1, 1]], [[True, True], [False, True]]), OrderedSemigroup)
        assert len(list(enumerate_compatible_orders(((0, 0), (1, 1))))) == 3
        # 3. the non-associative 2x2 example first fails at triple (0, 0, 1)
        report = validate([[1, 0], [0, 0]], [[True, False], [False, True]])
        assert report.violations[0].axiom == "associativity"
        assert report.violations[0].witness == (0, 0, 1)
        # 4. LZ2 fails every thm5 condition; (3) breaks at e=0, f=1
        t5 = theorem5_conditions(lz2())
        assert [r.holds for r in t5] == [False] * 5
        assert t5[2].counterexample == {"e": 0, "f": 1}
        # 5. N2 satisfies all of thm2 with kernel {0}
        t2 = theorem2_conditions(n2())
        assert [r.holds for r in t2] == [True] * 8
        assert t2[7].data["kernel"] == [0]
        # 6. SL2 satisfies all of thm5
        assert [r.holds for r in theorem5_conditions(sl2())] == [True] * 5
        # 7. SL2 fails all of thm2; (4) breaks at a=1, b=0
        t2s = theorem2_conditions(sl2())
        assert [r.holds for r in t2s] == [False] * 8
        assert t2s[3].counterexample == {"a": 1, "b": 0}
        # 8. RZ2 fails thm4 condition (2) (and with it the whole battery)
        assert [r.holds for r in theorem4_conditions(rz2())] == [False] * 5
        # 9. LZ2 under thm8: hypothesis fails while (1) holds and (4) fails
        assert not named_predicate(lz2(), "right-pi-inverse").holds
        t8 = theorem8_conditions(lz2())
        assert [r.holds for r in t8] == [True, False, False, False]
        # 10. N2 is left pi-t-simple via H = {0} with exponents 1 and 2
        direct = named_predicate(n2(), "left-pi-t-simple")
        assert direct.holds
        assert direct.data == {"subsemigroup": [0], "exponents": {0: 1, 1: 2}}
        ok = True
    finally:
        record_criterion(4, "ten oracle-confirmed fixture facts hold", ok)


def _closure_calculus_holds(S):
    full = S.full
    subsets = range(full + 1)
    closures = [_close(S, A) for A in subsets]
    for A in subsets:
        cA = closures[A]
        if A & ~cA:  # extensive
            return False
        if _close(S, cA) != cA:  # idempotent
            return False
    for A in subsets:
        for B in subsets:
            if not A & ~B and closures[A] & ~closures[B]:  # monotone
                return False
            lhs = _close(S, _prod(S, closures[A], closures[B]))
            rhs = _close(S, _prod(S, A, B))
            if lhs != rhs:  # ((A](B]] = (AB]
                return False
    for a in S.elements():
        left = principal_ideal(S, a, "left").bits
        right = principal_ideal(S, a, "right").bits
        two = principal_ideal(S, a, "two_sided").bits
        bi = principal_ideal(S, a, "bi").bits
        if _prod(S, full, left) & ~left:
            return False
        if _prod(S, right, full) & ~right:
            return False
        if (_prod(S, full, two) | _prod(S, two, full)) & ~two:
            return False
        for ideal in (left, right, two, bi):
            if not ideal >> a & 1:
                return False
        for ideal in (left, right, two, bi):
            if _close(S, ideal) != ideal:
                return False
    profile = regularity_profile(S)
    for a in S.elements():
        m = profile.smallest_regular_power[a]
        v = power_profile(S, a).value(m)
        x = profile.witness[a]
        if not S.leq[v][S.table[S.table[v][x]][v]]:  # finite => pi-regular
            return False
    return True


def test_criterion_5_closure_calculus_properties():
    checked = 0
    ok = False
    try:
        for n in (1, 2, 3):
            for table in enumerate_tables(n):
                for leq in enumerate_compatible_orders(table):
                    assert _closure_calculus_holds(OrderedSemigroup(table, leq))
                    checked += 1
        assert checked == ORDER3_TOTAL
        ok = True
    finally:
        record_criterion(
            5,
            f"closure laws, product law, ideal absorption, and pi-regularity "
            f"hold on 100% of {checked} structures at order <= 3",
            ok,
        )


def test_criterion_6_worker_determinism(monkeypatch):
    # a CPU count of 4 lets the in-process 3-worker run start a real pool on
    # any host
    monkeypatch.setattr(harness.os, "cpu_count", lambda: 4)
    ok = False
    try:
        lib_runs = [
            json.dumps(
                run_suite("all", max_order=2, workers=w).to_dict(), sort_keys=True
            )
            for w in (1, 3)
        ]
        assert lib_runs[0] == lib_runs[1]
        cli_runs = []
        for workers in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-m", "ordsgp.cli", "verify", "--theorem", "all",
                 "--max-order", "2"],
                capture_output=True,
                text=True,
                env=child_env(workers),
            )
            assert proc.returncode == 0, proc.stderr
            cli_runs.append(proc.stdout)
        assert cli_runs[0] == cli_runs[1]
        ok = True
    finally:
        record_criterion(
            6, "reports byte-identical across ORDSGP_WORKERS settings", ok
        )
