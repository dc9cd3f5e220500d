"""Left-right duality law over the catalog through order 4.

S^op has the transposed table, a*b in S^op being b*a in S, and the same
order.  A left notion on S is the right notion on S^op, so each one-sided
fact computed on S must equal its mirror computed on S^op: a slip that
reads the wrong side in one place breaks the law on some small structure.
"""

import itertools

from ordsgp import GenerationConfig, OrderedSemigroup, enumerate_ordered_semigroups
from ordsgp.core import _as, _sa
from ordsgp.harness import iter_catalog
from ordsgp.predicates import PREDICATES, read
from ordsgp.relations import _factors, green, starred

import oracles

SIDES = sorted(name.removeprefix("left-") for name in PREDICATES if name.startswith("left-"))
TWO_SIDED = [name for name in PREDICATES if not name.startswith(("left-", "right-"))]


def opposite(S):
    return OrderedSemigroup(tuple(zip(*S.table)), S.leq)


def swap_ab(case):
    return None if case is None else {**case, "a": case["b"], "b": case["a"]}


def weakly_commutative_fails(S, a, b):
    """No (ab)^n <= b*s: left weak commutativity fails at (a, b)."""
    ab = S.table[a][b]
    return all(
        oracles.least_factor(S.table, S.leq, oracles.power(S.table, ab, n), b, "right") is None
        for n in range(1, S.order + 2)
    )


def test_left_on_s_is_right_on_the_opposite():
    assert SIDES == [
        "archimedean",
        "pi-inverse",
        "pi-regular",
        "pi-t-simple",
        "simple",
        "weakly-commutative",
    ]
    assert len(TWO_SIDED) == 10
    structures = itertools.chain(
        iter_catalog(3), enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))
    )
    count = 0
    for S in structures:
        count += 1
        op = opposite(S)
        assert op.leq == S.leq and opposite(op).table == S.table
        for side in SIDES:
            mine, mirror = read(S, f"left-{side}"), read(op, f"right-{side}")
            assert mine.holds == mirror.holds, (S.table, S.leq, side)
            if side != "weakly-commutative":
                assert mine == mirror, (S.table, S.leq, side)
                continue
            # As the code stands, the mirror of the case (a, b) is the case
            # (b, a): its witness names a and b swapped, and the cases are
            # walked in (a, b) order on both sides, so the counterexample on
            # S^op names the failing pair of S that comes first in (b, a)
            # order.
            wits = sorted(map(swap_ab, mirror.witnesses), key=lambda w: (w["a"], w["b"]))
            assert mine.witnesses == tuple(wits), (S.table, S.leq)
            if not mine.holds:
                fails = [
                    (a, b)
                    for b, a in itertools.product(S.elements(), repeat=2)
                    if weakly_commutative_fails(S, a, b)
                ]
                first = {"a": fails[0][0], "b": fails[0][1]}
                assert mine.counterexample == {"a": min(fails)[0], "b": min(fails)[1]}
                assert swap_ab(mirror.counterexample) == first, (S.table, S.leq)
        for name in TWO_SIDED:
            assert read(S, name).holds == read(op, name).holds, (S.table, S.leq, name)
        assert _sa(S) == _as(op)
        assert _factors(S, "left") == _factors(op, "right")
        assert green(S, "L") == green(op, "R") and green(S, "R") == green(op, "L")
        assert starred(S, "L") == starred(op, "R") and starred(S, "R") == starred(op, "L")
    assert count == 992 + 4753
