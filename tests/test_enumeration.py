import hashlib
import json
from collections import Counter
from math import factorial

import pytest

from ordsgp import (
    GenerationConfig,
    OrderedSemigroup,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_tables,
    lz2,
    rz2,
    sample_structures,
    sl2,
    structure_key,
    validate,
)
from ordsgp import enumeration
from ordsgp.core import _discrete
from ordsgp.enumeration import (
    _class_key,
    _compatible_orders,
    _least_tables,
    _orbit_map,
    _order_masks,
    _pairs,
    _relabel,
    _table_classes,
    all_partial_orders,
)
from ordsgp.harness import iter_catalog

import oracles

LZ2_TABLE = ((0, 0), (1, 1))
N2_TABLE = ((0, 0), (0, 0))
Z2_TABLE = ((0, 1), (1, 0))


def canonical_form(S):
    return oracles.canonical_form(S.table, S.leq)


def test_table_counts_match_naive_filter():
    assert len(list(enumerate_tables(1))) == 1
    naive2 = oracles.all_tables(2)
    assert len(naive2) == 8
    assert sorted(enumerate_tables(2)) == sorted(tuple(map(tuple, t)) for t in naive2)
    assert len(list(enumerate_tables(3))) == len(oracles.all_tables(3)) == 113


def test_table_count_order_four_published_value():
    assert len(list(enumerate_tables(4))) == 3492


def test_enumerate_tables_cap():
    with pytest.raises(ValueError):
        next(enumerate_tables(5))


def test_order_below_one_is_rejected():
    with pytest.raises(ValueError, match="order must be at least 1"):
        enumerate_tables(0)
    with pytest.raises(ValueError, match="order must be at least 1"):
        sample_structures(0, 3, 0)


def test_least_tables_order_five_counts():
    least = list(_least_tables(5))
    # semigroups up to isomorphism (OEIS A027851) and labelled (A023814)
    assert len(least) == 1915
    assert sum(factorial(5) // len(automorphisms) for _, automorphisms in least) == 183732
    assert [table for table, _ in least] == sorted(table for table, _ in least)


def test_least_table_automorphisms_match_oracle():
    for n in (1, 2, 3, 4):
        discrete = [[i == j for j in range(n)] for i in range(n)]
        for table, automorphisms in _least_tables(n):
            assert len(automorphisms) == oracles.automorphism_count(table, discrete)


def test_least_table_automorphisms_equal_the_oracle_by_value():
    for n in (1, 2, 3, 4):
        for table, automorphisms in _least_tables(n):
            assert automorphisms == oracles.table_automorphisms(table), table


# sha256 of repr(list(_least_tables(n))): the same tables, in the same order,
# each with the same automorphisms in the same order
LEAST_TABLES_SHA256 = {
    1: "08b13cb2c07ba293fa31e42f97cd152576c87f31c1cc89e9e8a8494fa20bb4da",
    2: "792f9c88aa54e749bc56e84f25cc8ff2145fcfedf105f8c1d743a8a5feb2da31",
    3: "f1d71cfab0468a6a811f80828fe19cd04bc04b4819927e32f7ef8d207a509769",
    4: "e041502034cce0cae799c3d38cb77982706ad75be7f59e5ddd2aaffd521d3f1b",
    5: "f944ceb12d3609945f677d155c8d70853e95a55623f970a27857fd1efb85a9dc",
}


@pytest.mark.parametrize("n", sorted(LEAST_TABLES_SHA256))
def test_least_tables_output_is_pinned(n):
    digest = hashlib.sha256(repr(list(_least_tables(n))).encode()).hexdigest()
    assert digest == LEAST_TABLES_SHA256[n]


def test_class_key_separates_exactly_the_isomorphism_classes():
    # equal keys exactly when the oracle's canonical forms are equal, over
    # every labelled structure of order <= 3, the order-4 discrete-order
    # catalog and a sample of non-discrete order-4 structures
    discrete4 = GenerationConfig(4, order_mode="discrete_only")
    catalogs = [enumerate_ordered_semigroups(GenerationConfig(n)) for n in (1, 2, 3)]
    catalogs += [enumerate_ordered_semigroups(discrete4), sample_structures(4, 200, 1)]
    counts = []
    pairs = set()
    for catalog in catalogs:
        keys = set()
        for S in catalog:
            key = _class_key(S.table, S.leq)
            keys.add(key)
            pairs.add((key, canonical_form(S)))
        counts.append(len(keys))
    assert counts[:4] == [1, 11, 173, 188]
    assert len(pairs) == len({key for key, _ in pairs}) == len({form for _, form in pairs})


def test_class_key_equals_the_always_relabelled_key():
    # a discrete structure keys on its own order without relabelling; every
    # key equals the one of relabelling onto T0 and minimising over Aut(T0)
    def relabelled_key(S):
        least, p, automorphisms = _orbit_map(S.order)[S.table]
        leq = tuple(tuple(S.leq[pa][pb] for pb in p) for pa in p)
        return least, min(_relabel(leq, a, relabel_entries=False) for a in automorphisms)

    structures = discrete = 0
    for S in iter_catalog(4, sample_count=300, sample_seed=5):
        assert _class_key(S.table, S.leq) == relabelled_key(S), S.to_dict()
        structures += 1
        discrete += S.leq == tuple(tuple(i == j for j in S.elements()) for i in S.elements())
    assert (structures, discrete) == (4784, 3614)


def test_incompatible_orders_key_outside_the_catalog():
    # a key names a relabelling of the structure that first had it, so an
    # order that is not compatible with its table never shares a key with
    # a catalog structure; here every table of order <= 3 with every order
    catalog = {_class_key(S.table, S.leq) for S in iter_catalog(3)}
    incompatible = 0
    for n in (1, 2, 3):
        for table in enumerate_tables(n):
            compatible = set(enumerate_compatible_orders(table))
            for leq in all_partial_orders(n):
                if leq not in compatible:
                    incompatible += 1
                    assert _class_key(table, leq) not in catalog, (table, leq)
    assert (len(catalog), incompatible) == (185, 1180)


def test_enumerate_tables_order4_golden_digest():
    # ``sample_structures`` indexes this stream, so its order fixes every sampled report
    lines = "".join(json.dumps(t, separators=(",", ":")) + "\n" for t in enumerate_tables(4))
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "223a481a20467ead5a1fbde185656052f09478f6e13b637ad975503e7f932425"


def test_all_partial_orders_match_naive():
    # the reference filter's orders in the same order: fewest true cells
    # first, then by matrix
    for n in (1, 2, 3, 4):
        naive = sorted(
            (tuple(map(tuple, m)) for m in oracles.all_orders(n)),
            key=lambda m: (sum(map(sum, m)), m),
        )
        assert list(all_partial_orders(n)) == naive
    assert len(all_partial_orders(2)) == 3
    assert len(all_partial_orders(3)) == 19
    assert len(all_partial_orders(4)) == 219


def test_compatible_orders_examples():
    assert len(list(enumerate_compatible_orders(((0,),)))) == 1
    # left-zero: x*0 <= x*1 iff x <= x and 0*x <= 1*x iff 0 <= 1, so both
    # chain orders join the discrete one
    assert len(list(enumerate_compatible_orders(LZ2_TABLE))) == 3
    assert len(list(enumerate_compatible_orders(N2_TABLE))) == 3
    # the two-element group admits only the discrete order
    assert len(list(enumerate_compatible_orders(Z2_TABLE))) == 1
    # a malformed table gets the constructor's table error before any
    # per-n memo is read
    memo = _order_masks.cache_info()
    bad = [
        ([[0, 1]], "table row 0 has length 2, expected 1"),
        ([[0, 5], [0, 0]], r"table entry \(0,1\) = 5 outside carrier 0..1"),
        ([], "empty carrier"),
    ]
    for table, message in bad:
        with pytest.raises(ValueError, match=message):
            list(enumerate_compatible_orders(table))
    assert _order_masks.cache_info() == memo


def test_compatible_orders_match_oracle_filter():
    # every labelled table up to order 3, and the 188 orbit-least tables of
    # order 4: the same orders as the reference filter, in the same order
    tables = [table for n in (1, 2, 3) for table in enumerate_tables(n)]
    least4 = [table for table, _ in _least_tables(4)]
    assert len(least4) == 188
    for table in tables + least4:
        expected = [
            leq for leq in all_partial_orders(len(table)) if oracles.is_compatible(table, leq)
        ]
        assert list(enumerate_compatible_orders(table)) == expected


def test_discrete_order_always_compatible():
    for table in enumerate_tables(3):
        orders = list(enumerate_compatible_orders(table))
        discrete = tuple(tuple(i == j for j in range(3)) for i in range(3))
        assert discrete in orders


def test_enumerate_ordered_semigroups_counts():
    assert len(list(enumerate_ordered_semigroups(GenerationConfig(1)))) == 1
    # dual naive generator: all 16 tables x all 3 order candidates
    naive = 0
    for table in oracles.all_tables(2):
        for leq in oracles.all_orders(2):
            if oracles.is_compatible(table, leq):
                naive += 1
    mine = list(enumerate_ordered_semigroups(GenerationConfig(2)))
    assert len(mine) == naive == 20
    discrete_only = list(
        enumerate_ordered_semigroups(GenerationConfig(3, order_mode="discrete_only"))
    )
    assert len(discrete_only) == 113


def test_enumerate_emits_valid_structures():
    for S in enumerate_ordered_semigroups(GenerationConfig(2)):
        assert isinstance(
            validate([list(r) for r in S.table], [list(r) for r in S.leq]),
            OrderedSemigroup,
        )


def test_enumerate_limit_and_config_validation():
    limited = list(enumerate_ordered_semigroups(GenerationConfig(3, limit=5)))
    assert len(limited) == 5
    with pytest.raises(ValueError):
        GenerationConfig(0)
    with pytest.raises(ValueError, match="capped at 4"):
        GenerationConfig(5)
    with pytest.raises(ValueError):
        GenerationConfig(2, order_mode="sideways")
    with pytest.raises(ValueError):
        GenerationConfig(2, limit=0)


def test_up_to_iso_stream_is_duplicate_free():
    seen = []
    for S in enumerate_ordered_semigroups(GenerationConfig(2, up_to_iso=True)):
        key = canonical_form(S)
        assert key not in seen
        seen.append(key)
    full = len(list(enumerate_ordered_semigroups(GenerationConfig(2))))
    assert len(seen) < full


def reference_iso_stream(n, order_mode, limit=None):
    """The up-to-iso stream as the first labelled member of each class:
    the labelled stream deduplicated by ``canonical_form``."""
    seen = set()
    out = []
    for S in enumerate_ordered_semigroups(GenerationConfig(n, order_mode=order_mode)):
        key = canonical_form(S)
        if key not in seen:
            seen.add(key)
            out.append(S.to_dict())
            if len(out) == limit:
                break
    return out


def iso_stream(n, order_mode, limit=None):
    config = GenerationConfig(n, up_to_iso=True, order_mode=order_mode, limit=limit)
    return [S.to_dict() for S in enumerate_ordered_semigroups(config)]


@pytest.fixture(scope="module")
def iso4():
    return iso_stream(4, "all_partial_orders")


@pytest.mark.parametrize("limit", (None, 7))
@pytest.mark.parametrize("order_mode", ("all_partial_orders", "discrete_only"))
@pytest.mark.parametrize("n", (1, 2, 3))
def test_up_to_iso_stream_matches_canonical_dedupe(n, order_mode, limit):
    assert iso_stream(n, order_mode, limit) == reference_iso_stream(n, order_mode, limit)


def test_up_to_iso_discrete_order4_matches_canonical_dedupe():
    assert iso_stream(4, "discrete_only") == reference_iso_stream(4, "discrete_only")


def test_up_to_iso_class_counts(iso4):
    assert [len(iso_stream(n, "all_partial_orders")) for n in (1, 2, 3)] == [1, 11, 173]
    assert len(iso4) == 4753
    # semigroups up to isomorphism, OEIS A027851
    assert [len(iso_stream(n, "discrete_only")) for n in (1, 2, 3, 4)] == [1, 5, 24, 188]


def test_up_to_iso_order4_golden_digest(iso4):
    # one line per structure as ``ordsgp enumerate --order 4 --up-to-iso`` writes it
    lines = "".join(json.dumps(d, sort_keys=True, separators=(",", ":")) + "\n" for d in iso4)
    digest = hashlib.sha256(lines.encode()).hexdigest()
    assert digest == "079909444c6e32322ee1b5a9bb3401678ca4161d83dcba157f14521b8f80ad5a"


@pytest.mark.parametrize(
    "order_mode, labelled",
    [("all_partial_orders", (1, 20, 971, 107688)), ("discrete_only", (1, 8, 113, 3492))],
)
def test_orbit_stabiliser_recovers_labelled_counts(iso4, order_mode, labelled):
    # each class of order n stands for n!/|Aut(S)| labelled structures
    for n, expected in zip((1, 2, 3, 4), labelled):
        stream = iso4 if (n, order_mode) == (4, "all_partial_orders") else iso_stream(n, order_mode)
        sizes = [factorial(n) // oracles.automorphism_count(d["table"], d["leq"]) for d in stream]
        assert sum(sizes) == expected


def test_table_classes_orbit_sizes_match_the_oracle():
    # a class (T, leq) holds n! * |orbit of leq under Aut(T)| / |Aut(T)|
    # labelled structures, which is n!/|Aut(T, leq)|; the classes of every
    # orbit-least table are the up-to-iso stream, so the sizes sum to the
    # labelled counts
    totals = []
    for n in (1, 2, 3, 4):
        total = 0
        for table, automorphisms in _least_tables(n):
            for leq, orbit in _table_classes(table, automorphisms):
                size, rest = divmod(factorial(n) * orbit, len(automorphisms))
                assert rest == 0
                assert size == factorial(n) // oracles.automorphism_count(table, leq), (table, leq)
                total += size
        totals.append(total)
    assert totals == [1, 20, 971, 107688]
    assert sum(totals) == 108680


def class_sizes(n, discrete_only):
    """{(T, leq): labelled structures in its class} for each class of the
    up-to-iso stream, in its order: n! * |orbit of leq| / |Aut(T)|, the
    discrete order being alone in its orbit."""
    sizes = {}
    for table, automorphisms in _least_tables(n):
        classes = [(_discrete(n), 1)] if discrete_only else _table_classes(table, automorphisms)
        for leq, orbit in classes:
            sizes[table, leq] = factorial(n) * orbit // len(automorphisms)
    return sizes


@pytest.mark.parametrize(
    "config",
    [GenerationConfig(n) for n in (1, 2, 3)]
    + [GenerationConfig(4, order_mode="discrete_only"), GenerationConfig(4)],
    ids=["order1", "order2", "order3", "order4-discrete", "order4"],
)
def test_class_multiplicities_are_orbit_sizes(config):
    # the labelled walk meets each class as often as its orbit size says,
    # and first meets the classes in the order of the up-to-iso stream
    counts = Counter(_class_key(*pair) for pair in _pairs(config))
    sizes = class_sizes(config.order, config.order_mode == "discrete_only")
    assert counts == sizes
    assert list(counts) == list(sizes)
    if config == GenerationConfig(4):
        assert (counts.total(), len(counts)) == (107688, 4753)


def test_orbit_map_and_the_walk_read_one_store_of_least_tables():
    # one tuple per n: the orbit map stores its very tables and
    # automorphism tuples, and the up-to-iso walk yields its very tables
    least = _least_tables(4)
    assert least is _least_tables(4)
    stored = {(id(t0), id(automorphisms)) for t0, _, automorphisms in _orbit_map(4).values()}
    assert stored == {(id(table), id(automorphisms)) for table, automorphisms in least}
    walked = {id(table) for table, _ in _pairs(GenerationConfig(4, up_to_iso=True))}
    assert walked == {id(table) for table, _ in least}


def test_a_repeated_walk_does_no_table_work(monkeypatch):
    config = GenerationConfig(4, up_to_iso=True)
    first = list(enumerate_ordered_semigroups(config))
    memos = (_least_tables, _table_classes, _compatible_orders)
    misses = [memo.cache_info().misses for memo in memos]
    calls = []
    for name in ("_relabel", "_associates_at"):
        original = getattr(enumeration, name)

        def counting(*args, name=name, original=original, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)

        monkeypatch.setattr(enumeration, name, counting)
    assert list(enumerate_ordered_semigroups(config)) == first
    assert [memo.cache_info().misses for memo in memos] == misses
    assert calls == []
    # the counters see the work of a walk that is not memoised
    table, automorphisms = next(t for t in _least_tables(4) if len(t[1]) > 1)
    _table_classes.__wrapped__(table, automorphisms)
    _least_tables.__wrapped__(2)
    assert set(calls) == {"_relabel", "_associates_at"}


def test_canonical_form_examples():
    # SL2 relabelled through the swap: product becomes max, order flips
    swapped = OrderedSemigroup([[0, 1], [1, 1]], [[True, False], [True, True]])
    assert canonical_form(sl2()) == canonical_form(swapped)
    assert canonical_form(lz2()) != canonical_form(rz2())
    sl2_discrete = OrderedSemigroup([[0, 0], [0, 1]], [[True, False], [False, True]])
    assert canonical_form(sl2()) != canonical_form(sl2_discrete)


def test_sample_structures_deterministic_and_nontrivial():
    first = [structure_key(S) for S in sample_structures(3, 25, seed=5)]
    second = [structure_key(S) for S in sample_structures(3, 25, seed=5)]
    assert first == second
    for S in sample_structures(3, 10, seed=5):
        assert sum(sum(row) for row in S.leq) > S.order


def test_sample_structures_order_one_is_rejected():
    # the one order-1 table admits only the discrete order
    with pytest.raises(ValueError, match="non-discrete compatible order"):
        sample_structures(1, 3, seed=0)


def test_sample_structures_negative_count_is_rejected():
    # rejected when called, before any draw, as iter_catalog rejects it
    with pytest.raises(ValueError, match="count must not be negative"):
        sample_structures(4, -5, seed=0)
    assert list(sample_structures(4, 0, seed=0)) == []
