import hashlib
import itertools
import json

import pytest

from ordsgp import (
    FIXTURES,
    GenerationConfig,
    OrderedSemigroup,
    PredicateResult,
    enumerate_ordered_semigroups,
    green,
    lemma3_predicate,
    lemma7_predicate,
    lz2,
    n2,
    named_predicate,
    nil_extension_search,
    rz2,
    sl2,
    starred,
    t1,
    theorem2_conditions,
    theorem4_conditions,
    theorem5_conditions,
    theorem6_condition,
    theorem51_conditions,
)
from ordsgp import harness
from ordsgp.harness import THEOREM_IDS, iter_catalog
from ordsgp.predicates import (
    PREDICATE_NAMES,
    READINGS,
    _closed_supersets,
    _closed_under_product,
    _is_ideal,
    _nil_exponents,
    _subset_masks,
    lstar_unique_idempotent,
    read,
)


def holds_vector(results):
    return [r.holds for r in results]


def test_named_predicate_examples():
    assert named_predicate(lz2(), "left-simple").holds
    res = named_predicate(sl2(), "left_simple")
    assert not res.holds
    assert res.counterexample == {"a": 0, "ideal": [0]}
    for name in PREDICATE_NAMES:
        assert named_predicate(t1(), name).holds, name
    res = named_predicate(n2(), "left-archimedean")
    assert res.holds
    by_pair = {(w["a"], w["b"]): w for w in res.witnesses}
    assert by_pair[(1, 0)]["n"] == 2
    with pytest.raises(ValueError):
        named_predicate(t1(), "bogus-name")
    for bad in (3, None, ("regular",)):
        with pytest.raises(ValueError, match="unknown predicate name"):
            named_predicate(t1(), bad)


def test_named_predicate_is_cached_per_structure():
    # every name, and its snake_case alias, returns the result computed first
    for build in FIXTURES.values():
        S = build()
        for name in PREDICATE_NAMES:
            first = named_predicate(S, name)
            assert named_predicate(S, name) is first, name
            assert named_predicate(S, name.replace("-", "_")) is first, name


def test_direct_definitions_share_the_named_predicate_cache():
    # each pi-t-simple and pi-inverse definition is one cache entry on S,
    # and a repeated call adds none
    direct = (
        "left-pi-t-simple",
        "right-pi-t-simple",
        "pi-t-simple",
        "left-pi-inverse",
        "right-pi-inverse",
        "pi-inverse",
    )
    for build in FIXTURES.values():
        S = build()
        for name in direct:
            result = named_predicate(S, name)
            assert sum(value is result for value in S._cache.values()) == 1, name
        S = build()
        for name in PREDICATE_NAMES:
            named_predicate(S, name)
        entries = len(S._cache)
        for name in direct:
            named_predicate(S, name)
        assert len(S._cache) == entries


def test_golden_named_predicate_digest_order3():
    # byte-level guard for the predicate layer: every named predicate's
    # verdict, full witness list, counterexample and data over the order <= 3
    # catalog, in catalog order, hashed as canonical JSON
    digest = hashlib.sha256()
    for S in iter_catalog(3):
        for name in PREDICATE_NAMES:
            r = named_predicate(S, name)
            blob = [r.holds, r.witnesses, r.counterexample, r.data]
            digest.update(json.dumps(blob, sort_keys=True).encode())
    assert digest.hexdigest() == (
        "fd41a5725003145e73a13ecd9147dda5c4f08f36f93eadfa5a543dfa50ec0eea"
    )


def flat_results(value):
    """The PredicateResults of a reading, in order: one result, a battery's
    tuple of them, or a two-reading build's pair of batteries."""
    if isinstance(value, PredicateResult):
        yield value
    else:
        for item in value:
            yield from flat_results(item)


def test_golden_every_reading_digest():
    # every reading of READINGS, with its full witness list, counterexample
    # and data (a report shows only the first witness), over the order <= 3
    # catalog and the order-4 discrete classes, hashed by repr so that dict
    # order and tuple-versus-list are pinned too
    digest = hashlib.sha256()
    structures = itertools.chain(
        iter_catalog(3),
        enumerate_ordered_semigroups(
            GenerationConfig(4, up_to_iso=True, order_mode="discrete_only")
        ),
    )
    for S in structures:
        for name in READINGS:
            for r in flat_results(read(S, name)):
                blob = (name, r.holds, r.witnesses, r.counterexample, r.data)
                digest.update(repr(blob).encode())
    assert digest.hexdigest() == (
        "eb563beb5f8482190da5feec826330e4288263e1f5022696edd0d33f3e556839"
    )


def test_golden_order4_reading_and_row_digests():
    # every reading and every verdict row on all 4753 order-4 classes, in
    # stream order: the non-discrete classes that the digest above leaves
    # out are where the least-solution tables and regularity facts vary
    readings, rows = hashlib.sha256(), hashlib.sha256()
    for S in enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True)):
        for name in READINGS:
            readings.update(repr(read(S, name)).encode())
        rows.update(repr(harness._verify_chunk(THEOREM_IDS, S)).encode())
    assert readings.hexdigest() == (
        "5a7669470c463bf3a220d6122b36acd91b486276e4fa804369dbb035a6f07fee"
    )
    assert rows.hexdigest() == (
        "15a5d3013ce050b021e6022844a0da6bad6948d431ac0e34af1457e4713cb067"
    )


def test_named_predicates_on_fixtures():
    S = sl2()
    expect = {
        "regular": True,
        "completely-regular": True,
        "intra-regular": True,
        "left-simple": False,
        "right-simple": False,
        "simple": False,
        "weakly-commutative": True,
        "left-archimedean": False,
        "archimedean": False,
    }
    for name, want in expect.items():
        assert named_predicate(S, name).holds == want, name
    N = n2()
    assert not named_predicate(N, "regular").holds
    assert named_predicate(N, "pi-regular").holds
    assert named_predicate(N, "archimedean").holds
    assert named_predicate(N, "completely-pi-regular").holds


def test_witnesses_recheck_against_defining_inequalities():
    for build in FIXTURES.values():
        S = build()
        res = named_predicate(S, "pi-regular")
        if res.holds:
            for w in res.witnesses:
                v = S.pow(w["a"], w["m"])
                assert S.leq[v][S.table[S.table[v][w["x"]]][v]]
        res = named_predicate(S, "left-archimedean")
        if res.holds:
            for w in res.witnesses:
                v = S.pow(w["a"], w["n"])
                assert S.leq[v][S.table[w["s"]][w["b"]]]
        res = named_predicate(S, "right-weakly-commutative")
        if res.holds:
            for w in res.witnesses:
                v = S.pow(S.table[w["a"]][w["b"]], w["n"])
                assert S.leq[v][S.table[w["s"]][w["a"]]]


def test_left_pi_t_simple_direct_examples():
    res = named_predicate(lz2(), "left-pi-t-simple")
    assert res.holds and res.data["subsemigroup"] == [0, 1]
    res = named_predicate(n2(), "left-pi-t-simple")
    assert res.holds
    assert res.data == {"subsemigroup": [0], "exponents": {0: 1, 1: 2}}
    assert not named_predicate(sl2(), "left-pi-t-simple").holds


def test_theorem2_battery():
    assert holds_vector(theorem2_conditions(n2())) == [True] * 8
    assert holds_vector(theorem2_conditions(t1())) == [True] * 8
    results = theorem2_conditions(sl2())
    assert holds_vector(results) == [False] * 8
    assert results[3].counterexample == {"a": 1, "b": 0}


def test_nil_extension_search_examples():
    res = nil_extension_search(n2(), "left_simple")
    assert res.holds and res.data["kernel"] == [0]
    res = nil_extension_search(lz2(), "left_simple")
    assert res.holds and res.data["kernel"] == [0, 1]
    assert not nil_extension_search(lz2(), "t_simple").holds
    assert not nil_extension_search(sl2(), "left_simple").holds
    with pytest.raises(ValueError):
        nil_extension_search(t1(), "weird")


def test_theorem4_battery():
    assert holds_vector(theorem4_conditions(sl2())) == [True] * 5
    assert theorem4_conditions(sl2())[0].data == {"partition": [[0], [1]]}
    assert holds_vector(theorem4_conditions(lz2())) == [True] * 5
    assert theorem4_conditions(lz2())[0].data == {"partition": [[0, 1]]}
    # right-zero: ab = b and ba = a stay in different L*-classes
    assert holds_vector(theorem4_conditions(rz2())) == [False] * 5


def test_right_pi_inverse_examples():
    assert named_predicate(sl2(), "right-pi-inverse").holds
    res = named_predicate(lz2(), "right-pi-inverse")
    assert not res.holds
    assert res.counterexample == {"a": 0, "m": 1, "generators": [0, 1]}
    assert named_predicate(t1(), "right-pi-inverse").holds
    assert named_predicate(rz2(), "right-pi-inverse").holds
    assert not named_predicate(rz2(), "left-pi-inverse").holds
    assert named_predicate(lz2(), "left-pi-inverse").holds


def test_theorem5_battery():
    assert holds_vector(theorem5_conditions(sl2())) == [True] * 5
    results = theorem5_conditions(lz2())
    assert holds_vector(results) == [False] * 5
    assert results[2].counterexample == {"e": 0, "f": 1}
    assert holds_vector(theorem5_conditions(t1())) == [True] * 5
    # the stricter every-power reading agrees on the fixtures
    for build in FIXTURES.values():
        S = build()
        assert holds_vector(theorem5_conditions(S)) == holds_vector(
            read(S, "thm5-all-powers")
        )


def test_theorem6_condition():
    assert theorem6_condition(sl2()).holds
    res = theorem6_condition(lz2())
    assert not res.holds and res.counterexample == {"e": 0, "f": 1}
    assert theorem6_condition(t1()).holds


def test_theorem51_battery():
    assert holds_vector(theorem51_conditions(sl2())) == [True] * 5
    results = theorem51_conditions(lz2())
    assert holds_vector(results) == [False] * 5
    cex = results[3].counterexample
    assert cex["intersection"] == [] and cex["product_ideal"] == [0]
    assert holds_vector(theorem51_conditions(t1())) == [True] * 5


def test_dual_predicates():
    assert named_predicate(rz2(), "right-pi-t-simple").holds
    assert named_predicate(lz2(), "left-pi-inverse").holds
    assert named_predicate(sl2(), "pi-inverse").holds
    assert named_predicate(sl2(), "pi-inverse").holds == (
        named_predicate(sl2(), "left-pi-inverse").holds
        and named_predicate(sl2(), "right-pi-inverse").holds
    )
    assert not named_predicate(lz2(), "pi-t-simple").holds
    assert named_predicate(n2(), "pi-t-simple").holds


def _mirror(name):
    for side, other in (("left-", "right-"), ("right-", "left-")):
        if name.startswith(side):
            return other + name[len(side):]
    return name


def _iso_representatives():
    for n in (1, 2, 3):
        yield from enumerate_ordered_semigroups(GenerationConfig(n, up_to_iso=True))
    discrete4 = GenerationConfig(4, up_to_iso=True, order_mode="discrete_only")
    yield from enumerate_ordered_semigroups(discrete4)


def test_duality_law_over_iso_classes():
    # S^op multiplies the other way round under the same order, so every
    # left notion of S is the right notion of S^op and symmetric ones stay.
    # Predicates are isomorphism invariant: one structure per class covers
    # the order <= 3 catalog and the order-4 discrete tables.
    assert all(_mirror(name) in PREDICATE_NAMES for name in PREDICATE_NAMES)
    green_mirror = {"L": "R", "R": "L", "J": "J", "H": "H"}
    count = 0
    for S in _iso_representatives():
        dual = OrderedSemigroup([list(col) for col in zip(*S.table)], S.leq)
        for name in PREDICATE_NAMES:
            assert (
                named_predicate(S, name).holds == named_predicate(dual, _mirror(name)).holds
            ), (name, S.to_dict())
        for kind, other in green_mirror.items():
            for relation in (green, starred):
                assert relation(S, kind).to_lists() == relation(dual, other).to_lists(), (
                    relation.__name__,
                    kind,
                    S.to_dict(),
                )
        count += 1
    assert count == 1 + 11 + 173 + 188


def test_closed_subsets_absorb_powers_exactly_over_the_idempotents():
    # the absorbing searches test only the supersets of E(S): a candidate
    # subset absorbs a power of every element exactly when it holds every
    # idempotent, over the order <= 3 catalog and every order-4 class.  An
    # ideal is closed, so the ideals filtered from the memoised closed
    # supersets of E(S) are those of the whole scan of the supersets
    order4 = enumerate_ordered_semigroups(GenerationConfig(4, up_to_iso=True))
    candidates = absorbing = 0
    for S in itertools.chain(iter_catalog(3), order4):
        idempotents = sum(1 << a for a in S.elements() if S.table[a][a] == a)
        for mask in range(1, 1 << S.order):
            closed = _closed_under_product(S.table, mask)
            assert closed or not _is_ideal(S, mask), (S.to_dict(), mask)
            if closed or _is_ideal(S, mask):
                absorbs = _nil_exponents(S, mask) is not None
                assert absorbs == (mask & idempotents == idempotents), (S.to_dict(), mask)
                candidates += 1
                absorbing += absorbs
        scan = _subset_masks(S.order, idempotents)
        supersets = _closed_supersets(S.table)
        assert supersets == tuple(m for m in scan if _closed_under_product(S.table, m)), S
        ideals = [m for m in supersets if _is_ideal(S, m)]
        assert ideals == [m for m in scan if _is_ideal(S, m)], S
    assert (candidates, absorbing) == (53424, 13944)


def test_lemma_predicates():
    for build in FIXTURES.values():
        S = build()
        assert lemma3_predicate(S).holds
    assert lemma7_predicate(sl2()).holds
    # LZ2 fails lemma 7's conclusion; its hypothesis fails too, which the
    # harness is responsible for gating
    assert not lemma7_predicate(lz2()).holds


def test_lstar_unique_idempotent():
    assert lstar_unique_idempotent(lz2()).holds
    assert not lstar_unique_idempotent(sl2()).holds


def test_pi_inverse_def_examples():
    assert named_predicate(sl2(), "pi-inverse").holds
    assert not named_predicate(lz2(), "pi-inverse").holds
    assert named_predicate(n2(), "pi-inverse").holds


def _relabel(S, p):
    n = S.order
    inv = [0] * n
    for i, pi in enumerate(p):
        inv[pi] = i
    from ordsgp import OrderedSemigroup

    table = [[p[S.table[inv[i]][inv[j]]] for j in range(n)] for i in range(n)]
    leq = [[S.leq[inv[i]][inv[j]] for j in range(n)] for i in range(n)]
    return OrderedSemigroup(table, leq)


def test_predicates_invariant_under_isomorphism():
    from itertools import islice, permutations

    from ordsgp import GenerationConfig, enumerate_ordered_semigroups

    structures = list(enumerate_ordered_semigroups(GenerationConfig(2)))
    structures += list(islice(enumerate_ordered_semigroups(GenerationConfig(3)), 40))
    for S in structures:
        base = {name: named_predicate(S, name).holds for name in PREDICATE_NAMES}
        for p in permutations(range(S.order)):
            T = _relabel(S, p)
            for name in PREDICATE_NAMES:
                assert named_predicate(T, name).holds == base[name], (name, p)
