"""Every suite on the structured families of ``families.py``, orders 5-30.

The catalog digests stop at order 4, so these pins are the ones that show
witness order (and with it the order of every bit scan) unchanged at
orders 6-30.
"""

import hashlib
import json

import pytest

from ordsgp import THEOREM_IDS, verify

from families import members

MEMBERS = dict(members())

# suite -> (verdict, condition truth vector), the same on every member: one
# DISCREPANCY, on cor-hstar, the open finding of README.
SUITE_ROWS = {
    "thm2": ("equivalent", "FFFFFFFF"),
    "thm4": ("equivalent", "FFFFF"),
    "thm5": ("equivalent", "TTTTT"),
    "thm6": ("equivalent", "TT"),
    "thm7-open": ("equivalent", "FF"),
    "thm8": ("equivalent", "FFFF"),
    "thm51": ("equivalent", "TTTTT"),
    "thm-wc": ("hypothesis_not_met", "F"),
    "lemma3": ("equivalent", "T"),
    "lemma7": ("equivalent", "T"),
    "cor1": ("equivalent", "FFFFF"),
    "cor-pi-inverse": ("equivalent", "TT"),
    "cor-pi-t-simple": ("hypothesis_not_met", "F"),
    "cor-hstar": ("DISCREPANCY", "TFFF"),
    "cor-cpr": ("equivalent", "FFFF"),
}

# sha256 of json.dumps([verify(S, tid).to_dict() for tid in THEOREM_IDS],
# sort_keys=True) per member
REPORT_DIGESTS = {
    "B2/discrete": "ab2ce1b52cbe950f162b99bc44bd90eb1e56b5c75abc9b6ae662d25ae51b2166",
    "B2/natural": "2bbff280f7125e08965c8b4aadd9d92dd93c4b6e7591c10445b3064a7ae5cc13",
    "B2^1/discrete": "caacfdd6d4e00e4e8717432d3212a2c91e39ae1997500ddbd9255491c8bacdc7",
    "B2^1/natural": "165e2091fcd01890c3f44060b2d070d767ed9523abac30e3ed52cb301ef79c57",
    "B3/discrete": "4ed4d4ae05f518ab850a25c3ca71864fa7f68ce35fa84e147b37312b46ae1a20",
    "B3/natural": "22384c60387bb15bab2b97eca675f6c204512d395dde6cdf29ade414ec91cddb",
    "B2xY2/discrete": "70c6bf0f41ff3fe1388ddd7601ee5b2c96bdaf6479f9d6ebb37f64c8ced73c67",
    "B2xY2/natural": "03a91511ae7084542cdefc7ec6c20c23e30ece17d1a01dffa7e8f3097d89971e",
    "B4/discrete": "c4539a40b03c7bff09db6a915e03f1e833b0983d8537baafb56d691186812770",
    "B4/natural": "3a9b9de8cc19211436a36bb4450d35ae22149f59188be8b7440a6a6bbc927b21",
    "B3xY2/discrete": "11746878867119e3c17f42d0377a96f628d4a9452a0ebfb6a0dc13c5f844d958",
    "B3xY2/natural": "c0dcf57db184cf855fe868cfa2d96116f85d605986a9891d3d70d988d29d70e2",
    "B2xC6/discrete": "08b31a28f6190f6cf931b85ca074d7b8c642c16f07d39667df5a148521650a8f",
    "B2xC6/natural": "7f2bc8686f25c7b91f0646de2e6818cbdcb668db28017a148ab8d10d339da52c",
}


def test_family_orders():
    assert {name: S.order for name, S in MEMBERS.items()} == {
        name: order
        for family, order in (
            ("B2", 5), ("B2^1", 6), ("B3", 10), ("B2xY2", 10),
            ("B4", 17), ("B3xY2", 20), ("B2xC6", 30),
        )
        for name in (f"{family}/discrete", f"{family}/natural")
    }


@pytest.mark.parametrize("name", sorted(MEMBERS))
def test_family_member_reports_are_pinned(name):
    reports = [verify(MEMBERS[name], tid).to_dict() for tid in THEOREM_IDS]
    rows = {
        rep["theorem"]: (rep["verdict"], "".join("TF"[not c["holds"]] for c in rep["conditions"]))
        for rep in reports
    }
    assert rows == SUITE_ROWS
    digest = hashlib.sha256(json.dumps(reports, sort_keys=True).encode()).hexdigest()
    assert digest == REPORT_DIGESTS[name]
