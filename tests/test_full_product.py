"""Opt-in exhaustive checks beyond the default regime.

Runs every suite over all 107688 ordered semigroups on four elements
(every associative table with every compatible order), and counts the
semigroup tables of order 6 up to isomorphism.  Each takes minutes, so
they only run when ORDSGP_ACCEPT_FULL is set; the default acceptance
regime (discrete exhaustive + seeded sample) lives in test_acceptance.py.
"""

import os

import pytest

from ordsgp import OrderedSemigroup, verify
from ordsgp.enumeration import _least_tables, enumerate_compatible_orders, enumerate_tables
from ordsgp.harness import THEOREM_IDS

pytestmark = pytest.mark.skipif(
    not os.environ.get("ORDSGP_ACCEPT_FULL"),
    reason="set ORDSGP_ACCEPT_FULL=1 to run the full order-4 product and the order-6 count",
)


def test_full_order4_product_zero_discrepancy():
    structures = 0
    for table in enumerate_tables(4):
        for leq in enumerate_compatible_orders(table):
            S = OrderedSemigroup(table, leq)
            for tid in THEOREM_IDS:
                report = verify(S, tid)
                assert report.verdict != "DISCREPANCY", report.to_dict()
                assert all(report.diagnostics.values()), report.to_dict()
            structures += 1
    assert structures == 107688


def test_order6_tables_up_to_isomorphism():
    # semigroups of order 6 up to isomorphism, OEIS A027851
    assert sum(1 for _ in _least_tables(6)) == 28634
