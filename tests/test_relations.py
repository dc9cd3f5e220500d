from itertools import chain, product

import pytest

from ordsgp import (
    Partition,
    classify_partition,
    green,
    is_rho_unique,
    lz2,
    n2,
    ordered_idempotents,
    ordered_inverses,
    regularity_profile,
    rz2,
    sl2,
    smallest_regular_power,
    starred,
    t1,
)
from ordsgp.enumeration import (
    GenerationConfig,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_tables,
)
from ordsgp.core import OrderedSemigroup
from ordsgp.harness import iter_catalog
from ordsgp.predicates import named_predicate
from ordsgp.relations import _factors, _middles, regular_power_value

import oracles


def small_catalog(max_order):
    for n in range(1, max_order + 1):
        for table in enumerate_tables(n):
            for leq in enumerate_compatible_orders(table):
                yield OrderedSemigroup(table, leq)


def test_partition_canonical_labels():
    p = Partition(3, ["b", "a", "b"])
    assert p.class_of == (0, 1, 0)
    assert p.to_lists() == [[0, 2], [1]]
    assert p.same(0, 2) and not p.same(0, 1)
    assert p.mask_of(2) == 0b101
    q = Partition.singletons(3)
    assert q.refines(p) and not p.refines(q)
    assert p.meet(q) == q
    assert Partition.one_class(3).num_classes == 1


def test_green_examples():
    assert green(lz2(), "L").to_lists() == [[0, 1]]
    assert green(rz2(), "L").to_lists() == [[0], [1]]
    assert green(t1(), "J").to_lists() == [[0]]
    with pytest.raises(ValueError):
        green(t1(), "D")


def test_green_matches_oracle_everywhere_small():
    for S in small_catalog(3):
        for kind in ("L", "R", "J"):
            assert green(S, kind).to_lists() == oracles.green_classes(
                S.table, S.leq, kind
            )
        meet = green(S, "H")
        assert meet == green(S, "L").meet(green(S, "R"))


def test_ordered_idempotents():
    assert ordered_idempotents(sl2()).elements() == [0, 1]
    assert ordered_idempotents(n2()).elements() == [0]
    assert ordered_idempotents(lz2()).elements() == [0, 1]


def test_ordered_inverses_examples():
    assert ordered_inverses(sl2(), 1).elements() == [1]
    assert ordered_inverses(n2(), 1).elements() == []
    assert ordered_inverses(lz2(), 0).elements() == [0, 1]


def test_per_element_relations_refuse_an_element_outside_the_carrier():
    L = lz2()
    for call in (ordered_inverses, smallest_regular_power, regular_power_value):
        for bad in (-1, 2, None):
            with pytest.raises(ValueError, match=f"element {bad!r} outside carrier of size 2"):
                call(L, bad)


def test_regularity_profile_examples():
    prof = regularity_profile(n2())
    assert prof.smallest_regular_power == (1, 2)
    assert not prof.regular[1]
    prof = regularity_profile(sl2())
    assert prof.smallest_regular_power == (1, 1)
    prof = regularity_profile(lz2())
    assert prof.regular == (True, True)
    assert prof.witness == (0, 0)  # a*x*a = a for any x, least is 0


def test_every_structure_is_pi_regular_and_witness_rechecks():
    for S in small_catalog(3):
        prof = regularity_profile(S)
        for a in S.elements():
            m = prof.smallest_regular_power[a]
            assert m == oracles.smallest_regular_power(S.table, S.leq, a)
            v = oracles.power(S.table, a, m)
            x = prof.witness[a]
            assert S.leq[v][S.table[S.table[v][x]][v]]


def order_four_classes():
    return enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))


def test_regularity_flags_agree_with_the_predicates():
    # law: the profile's flags and the predicates match the oracles'
    # definitions (a <= axa for some x, a in (a^2Sa^2], a in (Sa^2S]), over
    # the order <= 3 catalog and one structure of every order-4
    # isomorphism class
    oracle = {
        "regular": oracles.is_regular_element,
        "completely-regular": oracles.is_completely_regular_element,
        "intra-regular": oracles.is_intra_regular_element,
    }
    counted = 0
    for S in chain(small_catalog(3), order_four_classes()):
        prof = regularity_profile(S)
        for name, flags in (
            ("regular", prof.regular),
            ("completely-regular", prof.completely_regular),
            ("intra-regular", prof.intra_regular),
        ):
            expected = tuple(oracle[name](S.table, S.leq, a) for a in S.elements())
            assert flags == expected, (S, name)
            result = named_predicate(S, name)
            assert result.holds == all(flags), (S, name)
            if not result.holds:
                assert result.counterexample == {"a": flags.index(False)}, (S, name)
        counted += 1
    assert counted == 992 + 4753


def test_least_solution_tables_match_the_oracles():
    # each table entry is the first s of a plain scan of its defining
    # inequality, over the order <= 3 catalog and the order-4 classes
    counted = 0
    for S in chain(iter_catalog(3), order_four_classes()):
        table, leq, elems = S.table, S.leq, S.elements()
        middles = _middles(S)
        for side in ("left", "right"):
            factors = _factors(S, side)
            assert factors == [
                [oracles.least_factor(table, leq, v, w, side) for w in elems] for v in elems
            ], (S, side)
        for v, u, w in product(elems, repeat=3):
            assert middles[v][u][w] == oracles.least_middle(table, leq, v, u, w), (S, v, u, w)
        counted += 1
    assert counted == 992 + 4753


def test_is_rho_unique_refuses_a_partition_of_another_carrier():
    S, other = n2(), Partition(3, (0, 1, 2))
    for call in (
        lambda: is_rho_unique(S, other, S.subset([0])),
        lambda: classify_partition(S, other),
    ):
        with pytest.raises(ValueError, match="partition does not cover the carrier"):
            call()


def test_starred_examples():
    assert starred(n2(), "L").to_lists() == [[0, 1]]
    assert starred(rz2(), "R").to_lists() == [[0, 1]]
    assert starred(t1(), "H").to_lists() == [[0]]


def test_green_refines_starred_on_regular_elements():
    for S in small_catalog(3):
        prof = regularity_profile(S)
        for kind in ("L", "R", "J", "H"):
            g, st = green(S, kind), starred(S, kind)
            for a in S.elements():
                for b in S.elements():
                    if prof.regular[a] and prof.regular[b] and g.same(a, b):
                        assert st.same(a, b)


def test_relation_shape_invariants():
    for S in small_catalog(3):
        L, R, J, H = (green(S, k) for k in ("L", "R", "J", "H"))
        assert H.refines(L) and H.refines(R)
        assert L.refines(J) and R.refines(J)
        # L is a right congruence, R a left congruence
        for a in S.elements():
            for b in S.elements():
                for c in S.elements():
                    if L.same(a, b):
                        assert L.same(S.table[a][c], S.table[b][c])
                    if R.same(a, b):
                        assert R.same(S.table[c][a], S.table[c][b])
        for kind in ("L", "R", "J", "H"):
            st = starred(S, kind)
            assert st.n == S.order


def test_smallest_regular_power_search_order():
    # increasing exponent: the first regular power wins even if later
    # powers are regular too
    S = n2()
    assert smallest_regular_power(S, 1) == 2
    assert smallest_regular_power(S, 0) == 1


def test_is_rho_unique():
    S = sl2()
    res = is_rho_unique(S, starred(S, "L"), ordered_idempotents(S))
    assert not res.holds and res.counterexample == {"pair": (0, 1)}
    L = lz2()
    assert is_rho_unique(L, starred(L, "L"), ordered_idempotents(L)).holds
    T = t1()
    assert is_rho_unique(T, green(T, "H"), T.subset([0])).holds
