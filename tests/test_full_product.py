"""Opt-in exhaustive check of the complete order-4 product.

Runs every suite over all 107688 ordered semigroups on four elements
(every associative table with every compatible order).  Takes a few
minutes, so it only runs when ORDSGP_ACCEPT_FULL is set; the default
acceptance regime (discrete exhaustive + seeded sample) lives in
test_acceptance.py.
"""

import os

import pytest

from ordsgp import OrderedSemigroup, verify
from ordsgp.enumeration import enumerate_compatible_orders, enumerate_tables
from ordsgp.harness import THEOREM_IDS

pytestmark = pytest.mark.skipif(
    not os.environ.get("ORDSGP_ACCEPT_FULL"),
    reason="set ORDSGP_ACCEPT_FULL=1 to run the full order-4 product",
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
