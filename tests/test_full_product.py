"""Opt-in exhaustive checks beyond the default regime.

Runs every suite over all 107688 ordered semigroups on four elements
(every associative table with every compatible order), counts the
compatible orders of the order-5 tables and their isomorphism classes, and
counts the semigroup tables of order 6 up to isomorphism and the partial
orders on six elements.  Each takes
seconds to minutes, so they only run when ORDSGP_ACCEPT_FULL is set; the
default acceptance regime (discrete exhaustive + seeded sample) lives in
test_acceptance.py.
"""

import hashlib
import os

import pytest

from ordsgp import OrderedSemigroup, verify
from ordsgp.enumeration import (
    _least_tables,
    _relabel,
    all_partial_orders,
    enumerate_compatible_orders,
    enumerate_tables,
)
from ordsgp.harness import THEOREM_IDS

pytestmark = pytest.mark.skipif(
    not os.environ.get("ORDSGP_ACCEPT_FULL"),
    reason="set ORDSGP_ACCEPT_FULL=1 for the full order-4 product and the order-5 and 6 counts",
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


def test_order5_compatible_orders_and_classes():
    # orders of the 1915 orbit-least tables, and their Aut(T)-orbits: the
    # ordered semigroups of order 5 up to isomorphism
    orders = classes = 0
    for table, automorphisms in _least_tables(5):
        found = list(enumerate_compatible_orders(table))
        orders += len(found)
        classes += len({min(_relabel(leq, p, False) for p in automorphisms) for leq in found})
    assert orders == 274601
    assert classes == 198838


def test_order6_tables_up_to_isomorphism():
    # semigroups of order 6 up to isomorphism, OEIS A027851, and the sha256
    # of repr(list(_least_tables(6))), which pins their order and automorphisms;
    # uncached, so the 28634 tables are not held for the rest of the session
    least = list(_least_tables.__wrapped__(6))
    assert len(least) == 28634
    digest = hashlib.sha256(repr(least).encode()).hexdigest()
    assert digest == "c9ec2fc82352a61d2b579692449aaf2ca7c9eb66870143d76b8735a2cdf3969c"


def test_order6_partial_orders():
    # labelled partial orders on six elements, OEIS A001035; uncached, so
    # the 130023 matrices are not held for the rest of the session
    assert len(all_partial_orders.__wrapped__(6)) == 130023
