import itertools
import json
import operator
import random
import re

import pytest

from ordsgp import (
    FIXTURES,
    OrderedSemigroup,
    SubsetMask,
    ValidationReport,
    downward_closure,
    enumerate_semilattice_congruences,
    lz2,
    n2,
    ordered_inverses,
    power_profile,
    principal_ideal,
    restrict,
    rz2,
    sl2,
    smallest_regular_power,
    structure_from_dict,
    structure_from_key,
    structure_key,
    subset_product,
    t1,
    validate,
)
from ordsgp import core
from ordsgp.congruences import _semilattice_congruences
from ordsgp.core import _discrete, _exponents, _joint_powers, derived
from ordsgp.enumeration import GenerationConfig, _pairs, enumerate_ordered_semigroups
from ordsgp.harness import iter_catalog
from ordsgp.predicates import (
    PREDICATE_NAMES,
    _closed_supersets,
    _closed_under_product,
    named_predicate,
    nil_extension_search,
    read,
)
from ordsgp.relations import green, starred

import oracles

DISCRETE2 = [[True, False], [False, True]]


def test_fixture_catalog_validates():
    for name, build in FIXTURES.items():
        S = build()
        assert isinstance(S, OrderedSemigroup), name
        again = validate([list(r) for r in S.table], [list(r) for r in S.leq])
        assert isinstance(again, OrderedSemigroup)


def test_validate_sl2_data_is_valid():
    result = validate([[0, 0], [0, 1]], [[True, True], [False, True]])
    assert isinstance(result, OrderedSemigroup)


def test_validate_lz2_with_chain_order_is_valid():
    # x*0 <= x*1 reduces to x <= x and 0*x <= 1*x to 0 <= 1, so the chain
    # order on the left-zero table satisfies every axiom
    result = validate([[0, 0], [1, 1]], [[True, True], [False, True]])
    assert isinstance(result, OrderedSemigroup)


def test_validate_nonassociative_table():
    result = validate([[1, 0], [0, 0]], DISCRETE2)
    assert isinstance(result, ValidationReport)
    assert not result.ok
    assert result.violations[0].axiom == "associativity"
    # (0*0)*1 = 1*1 = 0 but 0*(0*1) = 0*0 = 1: first failing triple
    assert result.violations[0].witness == (0, 0, 1)
    assert {v.witness for v in result.violations if v.axiom == "associativity"} == {
        (0, 0, 1),
        (0, 1, 1),
        (1, 0, 0),
        (1, 1, 0),
    }


def test_validate_incompatible_order():
    # two-element group: adding 0 <= 1 breaks compatibility at x = 1
    result = validate([[0, 1], [1, 0]], [[True, True], [False, True]])
    assert isinstance(result, ValidationReport)
    axioms = {v.axiom for v in result.violations}
    assert axioms == {"left-compatibility", "right-compatibility"}
    assert result.violations[0].witness == (0, 1, 1)


def test_validate_order_axioms():
    bad_refl = validate([[0]], [[False]])
    assert bad_refl.violations[0].axiom == "reflexivity"
    bad_anti = validate([[0, 0], [0, 0]], [[True, True], [True, True]])
    assert any(v.axiom == "antisymmetry" for v in bad_anti.violations)
    leq = [
        [True, True, False],
        [False, True, True],
        [False, False, True],
    ]
    bad_trans = validate([[0] * 3] * 3, leq)
    assert any(v.axiom == "transitivity" for v in bad_trans.violations)


def _law_pairs():
    """Every 2x2 table with every 2x2 boolean matrix, then seeded random
    order-3 (table, leq) pairs."""
    cells = [(i, j) for i in range(2) for j in range(2)]
    for entries in itertools.product(range(2), repeat=4):
        for flags in itertools.product((False, True), repeat=4):
            table = [[0] * 2 for _ in range(2)]
            leq = [[False] * 2 for _ in range(2)]
            for (i, j), v, f in zip(cells, entries, flags):
                table[i][j], leq[i][j] = v, f
            yield table, leq
    rng = random.Random(2024)
    for _ in range(300):
        table = [[rng.randrange(3) for _ in range(3)] for _ in range(3)]
        leq = [[i == j or rng.random() < 0.3 for j in range(3)] for i in range(3)]
        yield table, leq


def test_construction_raises_the_first_violation_validate_lists():
    # one violation stream: the constructor stops at its first item,
    # validate lists them all
    built = raised = 0
    for table, leq in _law_pairs():
        result = validate(table, leq)
        if isinstance(result, ValidationReport):
            first = result.violations[0]
            message = f"not an ordered semigroup: {first.axiom} fails at {first.witness}"
            with pytest.raises(ValueError) as info:
                OrderedSemigroup(table, leq)
            assert str(info.value) == message
            raised += 1
        else:
            assert OrderedSemigroup(table, leq) == result
            built += 1
    assert built and raised and built + raised == 256 + 300


def _clear_axiom_memos():
    core._table_violations.cache_clear()
    core._order_facts.cache_clear()


def _memo_law_pairs():
    """``_law_pairs``, then each labelled pair of order <= 3 between two
    pairs that share its table: one under the order 0 < 1 alone, which may
    break compatibility, and one under the full relation, which breaks
    antisymmetry from order 2 on."""
    yield from _law_pairs()
    for n in (1, 2, 3):
        chain01 = [[i == j or (i, j) == (0, 1) for j in range(n)] for i in range(n)]
        full = [[True] * n for _ in range(n)]
        for table, leq in _pairs(GenerationConfig(n)):
            yield table, chain01
            yield table, leq
            yield table, full


def test_memoised_violation_stream_matches_the_naive_checker():
    # the memoised table and order parts give the unmemoised stream, on
    # cold memos and on warm ones; the constructor raises its first item
    # or holds the down-sets of the order
    pairs = list(_memo_law_pairs())
    _clear_axiom_memos()
    for _ in ("cold", "warm"):
        built = raised = 0
        for table, leq in pairs:
            expect = oracles.axiom_violations(table, leq)
            result = validate(table, leq)
            if expect:
                assert isinstance(result, ValidationReport), (table, leq)
                assert [(v.axiom, v.witness) for v in result.violations] == expect
                axiom, witness = expect[0]
                with pytest.raises(ValueError) as info:
                    OrderedSemigroup(table, leq)
                assert str(info.value) == f"not an ordered semigroup: {axiom} fails at {witness}"
                raised += 1
                continue
            S = OrderedSemigroup(table, leq)
            assert S == result
            assert [sorted(oracles.closure(leq, {a})) for a in S.elements()] == [
                list(core.bits_iter(mask)) for mask in S.below
            ]
            built += 1
        assert built >= 992 and raised


def test_compatibility_violations_match_the_oracle_on_every_pair():
    # every labelled table of order <= 3 with every partial order of its
    # size, incompatible pairs included: the mask test lets through exactly
    # the compatible pairs, and the walk lists the rest as the oracle does
    pairs = incompatible = 0
    for n in (1, 2, 3):
        orders = [tuple(map(tuple, leq)) for leq in oracles.all_orders(n)]
        for table in oracles.all_tables(n):
            tab = tuple(map(tuple, table))
            for lm in orders:
                expect = [
                    (axiom, witness)
                    for axiom, witness in oracles.axiom_violations(tab, lm)
                    if axiom.endswith("compatibility")
                ]
                got = core._compatibility_violations(tab, lm)
                assert [(v.axiom, v.witness) for v in got] == expect, (tab, lm)
                pairs += 1
                incompatible += bool(expect)
    assert (pairs, incompatible) == (1 + 8 * 3 + 113 * 19, 1180)


def test_axiom_memos_never_serve_a_bool_table_or_an_int_order():
    # True == 1 and hash(True) == hash(1): the memos see only checked input
    OrderedSemigroup(((1, 1), (1, 1)), _discrete(2))
    with pytest.raises(ValueError, match=r"table entry \(0,0\) = True outside carrier"):
        OrderedSemigroup([[True, True], [True, True]], _discrete(2))
    OrderedSemigroup([[0, 0], [0, 0]], _discrete(2))
    with pytest.raises(ValueError, match=r"order entry \(0,0\) = 1 is not a boolean"):
        OrderedSemigroup([[0, 0], [0, 0]], [[1, 0], [0, 1]])


def test_axiom_memos_miss_once_per_distinct_table_and_order():
    # the order-4 classes share 188 tables and 212 orders
    _clear_axiom_memos()
    built = sum(1 for _ in enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True)))
    assert built == 4753
    assert core._table_violations.cache_info().misses == 188
    assert core._order_facts.cache_info().misses == 212


def test_table_memos_miss_once_per_distinct_table():
    # the powers, the semilattice congruences and the closed subsets read
    # the table alone: the 4753 order-4 classes share 188 tables, and every
    # class of one table gets the one memoised object
    memos = (_exponents, _semilattice_congruences, _closed_supersets)
    for memo in memos:
        memo.cache_clear()
    first = {}
    for S in enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True)):
        facts = tuple(memo(S.table) for memo in memos)
        assert facts[1] is enumerate_semilattice_congruences(S)
        assert all(map(operator.is_, first.setdefault(S.table, facts), facts)), S
    assert len(first) == 188
    assert [memo.cache_info().misses for memo in memos] == [188] * 3


def test_validate_malformed_input_raises():
    with pytest.raises(ValueError):
        validate([], [])
    with pytest.raises(ValueError):
        validate([[0, 1]], [[True, True]])
    with pytest.raises(ValueError):
        validate([[2, 0], [0, 0]], DISCRETE2)
    with pytest.raises(ValueError):
        validate([[0, 0], [0, 0]], [[True], [True]])


def test_downward_closure_examples():
    S = sl2()
    assert downward_closure(S, S.subset([1])).elements() == [0, 1]
    assert downward_closure(S, S.subset([])).elements() == []
    L = lz2()
    assert downward_closure(L, L.subset([0])).elements() == [0]


def test_subset_product_examples():
    L = lz2()
    assert subset_product(L, L.subset([0, 1]), L.subset([0])).elements() == [0, 1]
    N = n2()
    assert subset_product(N, N.subset([0, 1]), N.subset([0, 1])).elements() == [0]
    S = sl2()
    assert subset_product(S, S.subset([1]), S.subset([0])).elements() == [0]


def test_principal_ideal_examples():
    L = lz2()
    assert principal_ideal(L, 0, "left").elements() == [0, 1]
    assert principal_ideal(L, 1, "left").elements() == [0, 1]
    R = rz2()
    assert principal_ideal(R, 0, "left").elements() == [0]
    assert principal_ideal(R, 1, "left").elements() == [1]
    S = sl2()
    assert principal_ideal(S, 0, "two_sided").elements() == [0]
    with pytest.raises(ValueError):
        principal_ideal(S, 0, "nope")


def test_principal_ideals_match_oracle_on_fixtures():
    oracle = {
        "left": oracles.left_ideal,
        "right": oracles.right_ideal,
        "two_sided": oracles.two_sided_ideal,
        "bi": oracles.bi_ideal,
    }
    structures = itertools.chain((build() for build in FIXTURES.values()), iter_catalog(3))
    for S in structures:
        for a in S.elements():
            for kind, fn in oracle.items():
                expect = sorted(fn(S.table, S.leq, a))
                assert principal_ideal(S, a, kind).elements() == expect, (S, a, kind)


def test_power_profile_examples():
    N = n2()
    prof = power_profile(N, 1)
    assert (prof.index, prof.period, prof.powers) == (2, 1, (1, 0))
    S = sl2()
    prof = power_profile(S, 1)
    assert (prof.index, prof.period, prof.powers) == (1, 1, (1,))
    L = lz2()
    prof = power_profile(L, 0)
    assert (prof.index, prof.period) == (1, 1)


def test_per_element_api_refuses_an_element_outside_the_carrier():
    # a fresh structure: the check of the cached power_profile runs on a miss
    L = lz2()
    for bad in (-1, 2, 5, True, 1.0, "0"):
        for call in (
            lambda a: power_profile(L, a),
            lambda a: principal_ideal(L, a, "left"),
            lambda a: L.pow(a, 1),
        ):
            with pytest.raises(ValueError, match=f"element {bad!r} outside carrier of size 2"):
                call(bad)


def test_per_element_api_checks_the_element_before_any_cached_answer():
    # element 1 is computed first on the same S, so 1.0 and True would find
    # its answer if the check ran only on a cache miss
    S = n2()
    calls = (
        lambda a: power_profile(S, a),
        lambda a: principal_ideal(S, a, "left"),
        lambda a: ordered_inverses(S, a),
        lambda a: smallest_regular_power(S, a),
        lambda a: S.pow(a, 2),
    )
    for call in calls:
        call(1)
        for bad in (1.0, True, -1, S.order):
            message = re.escape(f"element {bad!r} outside carrier of size 2")
            with pytest.raises(ValueError, match=message):
                call(bad)


def test_element_and_mask_arguments_are_type_checked():
    S = n2()
    for bad in (1.0, True, "0", None, 2, -1):
        message = re.escape(f"element {bad!r} outside carrier of size 2")
        for call in (
            lambda: SubsetMask.from_elements(2, [bad]),
            lambda: S.subset([0, bad]),
            lambda: downward_closure(S, [bad]),
            lambda: subset_product(S, [0], [bad]),
        ):
            with pytest.raises(ValueError, match=message):
                call()
    for T in (S, t1()):  # True equals the full mask 1 of the one-element carrier
        for bad in (1.5, True, None, "1"):
            with pytest.raises(ValueError, match=re.escape(f"bitmask {bad!r} is not an int")):
                restrict(T, bad)
        for bad in (-1, 1 << T.order):
            with pytest.raises(ValueError, match=f"does not fit a carrier of size {T.order}"):
                restrict(T, bad)


def test_membership_refuses_a_non_element():
    # an int outside the carrier is no member; any other argument is refused
    mask = n2().subset([0, 1])
    for bad in (1.0, True, "1", None):
        with pytest.raises(ValueError, match=re.escape(f"element {bad!r} outside carrier")):
            bad in mask
    assert [x in mask for x in (0, 1, 2, -1)] == [True, True, False, False]
    assert [x in n2().subset([1]) for x in (0, 1)] == [False, True]


def test_exponents_below_one_are_refused():
    N = n2()
    prof = power_profile(N, 1)
    for bad in (0, -1, 1.5, True):
        with pytest.raises(ValueError, match=f"exponent {bad!r} must be an integer >= 1"):
            prof.value(bad)
        with pytest.raises(ValueError, match="exponent"):
            N.pow(1, bad)
    assert (prof.value(1), N.pow(1, 1), prof.value(2), N.pow(1, 3)) == (1, 1, 0, 0)


def test_power_profile_cycle_invariant():
    for build in FIXTURES.values():
        S = build()
        for a in S.elements():
            prof = power_profile(S, a)
            walk = oracles.power(S.table, a, prof.index + prof.period)
            assert walk == oracles.power(S.table, a, prof.index)
            assert len(set(prof.powers)) == len(prof.powers)
            for m in range(1, 2 * S.order + 3):
                assert prof.value(m) == oracles.power(S.table, a, m)


def test_joint_powers_covers_all_values():
    S = n2()
    seen = dict(_joint_powers(S, (1, 0)))
    # m = 1 gives (1, 0); any later m gives (0, 0)
    assert seen[1] == (1, 0)
    assert seen[2] == (0, 0)


def naive_joint_powers(S, specs):
    """(m, (x ** (c*m + d) for each spec)) for m = 1, 2, ... up to the first
    repeated tuple, by S.pow alone."""
    out, seen, m = [], set(), 1
    while True:
        values = tuple(S.pow(x, c * m + d) for x, c, d in specs)
        if values in seen:
            return out
        seen.add(values)
        out.append((m, values))
        m += 1


def test_joint_powers_match_the_naive_listing():
    # every element tuple the predicates pass, on every order <= 3 structure
    for S in iter_catalog(3):
        elems = S.elements()
        shapes = [(a, b) for a in elems for b in elems]
        shapes.append(tuple(elems))
        for elements in shapes:
            got = list(_joint_powers(S, elements))
            specs = [(x, 1, 0) for x in elements]
            assert got == naive_joint_powers(S, specs), (structure_key(S), elements)


def test_power_steps_are_read_from_the_exponents_of_one_element():
    # law: a^2m = a^m*a^m and (ba)^(m+1) = b*(ab)^m*a, so the strided steps
    # of the pi-regularity conditions and of thm4 (4) are the exponents of a
    # and of ab, over the order <= 3 catalog and the order-4 classes
    order4 = enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))
    counted = 0
    for S in itertools.chain(iter_catalog(3), order4):
        table, exps = S.table, _exponents(S.table)
        for a in S.elements():
            squares = [(m, (v, table[v][v])) for m, v in exps[a]]
            assert squares == naive_joint_powers(S, ((a, 1, 0), (a, 2, 0))), (S, a)
            for b in S.elements():
                ab, ba = table[a][b], table[b][a]
                steps = [(m, (u, table[table[b][u]][a])) for m, u in exps[ab]]
                assert steps == naive_joint_powers(S, ((ab, 1, 0), (ba, 1, 1))), (S, a, b)
        counted += 1
    assert counted == 992 + 4753


def naive_bits(mask):
    return tuple(i for i in range(mask.bit_length()) if mask >> i & 1)


def test_bits_iter_is_an_ascending_scan():
    for mask in range(1 << 13):
        assert core.bits_iter(mask) == naive_bits(mask), mask
    rng = random.Random(18)
    for _ in range(2000):
        mask = rng.getrandbits(rng.randint(14, 40))
        assert core.bits_iter(mask) == naive_bits(mask), mask


def test_bits_iter_memo_is_bounded():
    maxsize = core.bits_iter.cache_info().maxsize
    assert maxsize is not None and maxsize > 0


def test_power_profile_exponents_enumerate_the_powers():
    for S in iter_catalog(3):
        for a in S.elements():
            prof = power_profile(S, a)
            assert _exponents(S.table)[a] == tuple(enumerate(prof.powers, 1))


def test_cached_builds_once_per_key_and_never_on_a_hit():
    S = sl2()
    calls = []

    def build(T, key):
        calls.append((T, key))
        return len(calls)

    assert S.cached(("probe", 1), build) == 1
    assert S.cached(("probe", 1), build) == 1
    assert S.cached(("probe", 2), build) == 2
    assert S.cached(("probe", 1), build) == 1
    assert calls == [(S, ("probe", 1)), (S, ("probe", 2))]
    assert all(T is S for T, _ in calls)
    # a derived value of arity 1 and of arity 2 is built once per key
    del DERIVED_CALLS[:]
    S = sl2()
    assert _count_whole(S) == 1 and _count_whole(S) == 1
    assert _count_at(S, 1) == 2 and _count_at(S, 2) == 3
    assert _count_at(S, 1) == 2 and _count_whole(S) == 1
    assert DERIVED_CALLS == [(S,), (S, 1), (S, 2)]
    assert set(S._cache) == {
        (_count_whole.__wrapped__,),
        (_count_at.__wrapped__, 1),
        (_count_at.__wrapped__, 2),
    }
    assert (_count_whole.__name__, _count_at.__doc__) == ("_count_whole", "Counts its builds.")


def test_derived_argument_errors_store_nothing_and_raise_every_time():
    S = sl2()
    bad = (
        (green, "X", "unknown Green relation 'X'"),
        (starred, "X", "unknown starred relation 'X'"),
        (nil_extension_search, "bogus", "unknown kernel tag 'bogus'"),
        (read, "bogus", "unknown reading name 'bogus'"),
        # an unhashable argument reaches the function's own check
        (green, ["L"], r"unknown Green relation \['L'\]"),
        (starred, ["L"], r"unknown starred relation \['L'\]"),
        (nil_extension_search, ["simple"], r"unknown kernel tag \['simple'\]"),
        (read, ["x"], r"unknown reading name \['x'\]"),
    )
    for fn, arg, message in bad:
        for _ in range(2):
            with pytest.raises(ValueError, match=message) as info:
                fn(S, arg)
            assert info.value.__context__ is None
    assert S._cache == {}


DERIVED_CALLS = []


@derived
def _count_whole(S):
    """Counts its builds."""
    DERIVED_CALLS.append((S,))
    return len(DERIVED_CALLS)


@derived
def _count_at(S, x):
    """Counts its builds."""
    DERIVED_CALLS.append((S, x))
    return len(DERIVED_CALLS)


def test_subset_mask_behaviour():
    m = SubsetMask.from_elements(4, [0, 2])
    it = iter(m)
    assert iter(it) is it and next(it) == 0
    assert list(m) == [0, 2]
    assert 2 in m and 1 not in m
    assert len(m) == 2
    assert (m | SubsetMask.from_elements(4, [1])).elements() == [0, 1, 2]
    assert (m & SubsetMask.from_elements(4, [2, 3])).elements() == [2]
    assert (m - SubsetMask.from_elements(4, [0])).elements() == [2]
    assert m.issubset(SubsetMask(4, 0b1111))
    with pytest.raises(ValueError):
        SubsetMask(2, 0b100)
    with pytest.raises(ValueError):
        m | SubsetMask(3, 0b1)


@pytest.mark.parametrize("bits", [1.5, True, "1", None])
def test_subset_mask_rejects_a_mask_that_is_not_an_int(bits):
    with pytest.raises(ValueError, match="is not an int"):
        SubsetMask(2, bits)


def test_structure_equality_and_key_roundtrip():
    S = sl2()
    assert S == sl2()
    assert S != lz2()
    key = structure_key(S)
    assert structure_from_key(key) == S
    with pytest.raises(ValueError):
        structure_from_key("bogus")


def test_structure_key_roundtrips_only_single_digit_tables():
    n = 11
    discrete = [[i == j for j in range(n)] for i in range(n)]
    null = validate([[0] * n for _ in range(n)], discrete)
    assert structure_from_key(structure_key(null)) == null
    # the left-zero band writes entry 10 as two digits, so its table part
    # is longer than n*n characters and cannot be read back
    left_zero = validate([[i] * n for i in range(n)], discrete)
    with pytest.raises(ValueError, match="malformed structure key"):
        structure_from_key(structure_key(left_zero))


@pytest.mark.parametrize("key", ["n1:0:2", "n2:0000:1x01", "n2:0000:1 01"])
def test_structure_from_key_rejects_an_order_character_other_than_0_or_1(key):
    with pytest.raises(ValueError, match="malformed structure key"):
        structure_from_key(key)


@pytest.mark.parametrize("key", ["1:0:1", "n+1:0:1", "n 1:0:1", "n1:\u0660:1"])
def test_structure_from_key_rejects_keys_that_structure_key_never_writes(key):
    # int() would read a sign, a space or any Unicode decimal digit
    with pytest.raises(ValueError, match="malformed structure key"):
        structure_from_key(key)


def test_validate_normalizes_and_walks_the_violations_once(monkeypatch):
    calls = []

    def counting(name):
        original = getattr(core, name)

        def wrapper(*args):
            calls.append(name)
            return original(*args)

        monkeypatch.setattr(core, name, wrapper)

    counting("_normalize")
    counting("_compatibility_violations")
    assert isinstance(validate([[0, 0], [0, 1]], [[True, True], [False, True]]), OrderedSemigroup)
    assert calls == ["_normalize", "_compatibility_violations"]
    # a pair that breaks axioms is listed in full from the same one walk
    calls.clear()
    table, leq = [[0, 0], [1, 1]], [[True, True], [True, True]]
    report = validate(table, leq)
    assert isinstance(report, ValidationReport)
    assert [(v.axiom, v.witness) for v in report.violations] == oracles.axiom_violations(
        table, leq
    )
    assert calls == ["_normalize", "_compatibility_violations"]


def test_json_roundtrip():
    for build in FIXTURES.values():
        S = build()
        payload = json.loads(json.dumps(S.to_dict()))
        back = structure_from_dict(payload)
        assert isinstance(back, OrderedSemigroup)
        assert back == S


def test_structure_from_dict_errors():
    with pytest.raises(ValueError):
        structure_from_dict([1, 2])
    with pytest.raises(ValueError):
        structure_from_dict({"order": 1, "table": [[0]]})
    with pytest.raises(ValueError):
        structure_from_dict({"order": 2, "table": [[0]], "leq": [[True]]})
    report = structure_from_dict(
        {"order": 2, "table": [[1, 0], [0, 0]], "leq": DISCRETE2}
    )
    assert isinstance(report, ValidationReport)


@pytest.mark.parametrize("order", [True, 1.0, "1", None])
def test_structure_from_dict_rejects_an_order_field_that_is_not_an_int(order):
    with pytest.raises(ValueError, match="order field .* is not an integer"):
        structure_from_dict({"order": order, "table": [[0]], "leq": [[True]]})


MALFORMED_ROWS = (
    ({"leq": [[True, True], 5]}, "order matrix row 1 is not an array: 5"),
    ({"table": [[0, 0], 7]}, "table row 1 is not an array: 7"),
    ({"table": [[0, 0], "00"]}, "table row 1 is not an array: '00'"),
    ({"leq": [[True, "false"], [False, True]]}, r"order entry \(0,1\) = 'false' is not a bool"),
    ({"leq": [[1, 0], [0, 1]]}, r"order entry \(0,0\) = 1 is not a boolean"),
)


@pytest.mark.parametrize("change, message", MALFORMED_ROWS)
def test_structure_from_dict_rejects_malformed_rows(change, message):
    payload = {"order": 2, "table": [[0, 0], [0, 0]], "leq": [[True, False], [False, True]]}
    with pytest.raises(ValueError, match=message):
        structure_from_dict({**payload, **change})


def test_restrict():
    N = n2()
    sub, elems = restrict(N, 0b01)
    assert sub.order == 1 and elems == (0,)
    with pytest.raises(ValueError):
        restrict(N, 0b10)  # {1} is not product-closed: 1*1 = 0
    with pytest.raises(ValueError):
        restrict(N, 0)


def test_restrict_full_carrier_is_the_structure():
    for S in (t1(), lz2(), sl2(), n2()):
        sub, elems = restrict(S, S.full)
        assert sub is S
        assert elems == tuple(range(S.order))


def test_restrict_rejects_mask_outside_carrier():
    for bits in (0b101, -1):
        with pytest.raises(ValueError, match="does not fit"):
            restrict(n2(), bits)


def test_restrict_interns_equal_substructures():
    # {0} re-labels to the same one-element structure in both parents
    a, _ = restrict(n2(), 0b01)
    b, _ = restrict(lz2(), 0b01)
    assert a is b
    assert a == t1()
    # {1} of the right-zero pair is the same structure; elems maps back to 1
    c, elems = restrict(rz2(), 0b10)
    assert c is a and elems == (1,)


def test_restrict_builds_large_substructures_afresh():
    # only substructures below the exhaustive cap are interned
    zero5 = OrderedSemigroup([[0] * 5 for _ in range(5)], _discrete(5))
    small, _ = restrict(zero5, 0b00111)
    assert restrict(zero5, 0b00111)[0] is small
    interned = core._interned.cache_info().currsize
    big, elems = restrict(zero5, 0b01111)
    again, _ = restrict(zero5, 0b01111)
    assert elems == (0, 1, 2, 3) and big.order == 4
    assert big == again and big is not again
    assert core._interned.cache_info().currsize == interned


def test_interned_substructures_agree_with_fresh_builds():
    # law over the order <= 3 catalog: the one interned instance that every
    # parent's product-closed proper subset restricts to has the same
    # predicates as a fresh build of its table and order
    checked = set()
    for S in iter_catalog(3):
        for mask in range(1, S.full):
            if not _closed_under_product(S.table, mask):
                continue
            sub, _ = restrict(S, mask)
            if id(sub) in checked:
                continue
            fresh = OrderedSemigroup(sub.table, sub.leq)
            assert fresh == sub and fresh is not sub
            for name in PREDICATE_NAMES:
                assert named_predicate(sub, name).to_dict() == named_predicate(fresh, name).to_dict()
            checked.add(id(sub))
    assert len(checked) == 21  # every structure of order <= 2 occurs


def test_structures_are_immutable():
    S = t1()
    with pytest.raises(AttributeError):
        S.order = 2
