"""Exhaustive generation of finite ordered semigroups.

Every associative table of order n by a deterministic backtrack, every
compatible partial order of a table, the labelled catalog and its orderly
up-to-isomorphism stream, and the seeded sample of non-discrete order-n
structures that the order-4 verification regime draws.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .core import EXHAUSTIVE_TABLE_CAP, OrderedSemigroup, _discrete

ORDER_MODES = ("all_partial_orders", "discrete_only")


@dataclass(frozen=True)
class GenerationConfig:
    order: int
    up_to_iso: bool = False
    order_mode: str = "all_partial_orders"
    limit: int | None = None

    def __post_init__(self):
        if self.order < 1:
            raise ValueError("order must be at least 1")
        if self.order > EXHAUSTIVE_TABLE_CAP:
            raise ValueError(f"exhaustive table enumeration capped at {EXHAUSTIVE_TABLE_CAP}")
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}")
        if self.limit is not None and self.limit < 1:
            raise ValueError("limit must be at least 1 when present")


def enumerate_tables(n):
    """All associative tables on {0..n-1}, generated by backtracking with
    associativity pruning; deterministic lexicographic order."""
    if n > EXHAUSTIVE_TABLE_CAP:
        raise ValueError(f"exhaustive table enumeration capped at {EXHAUSTIVE_TABLE_CAP}")
    return iter(_all_tables(n))


@lru_cache(maxsize=None)
def _all_tables(n):
    """Depth-first row-major cell fill pruned by partial associativity."""
    table = [[-1] * n for _ in range(n)]
    found = []

    def fill(k):
        if k == n * n:
            found.append(tuple(tuple(row) for row in table))
            return
        i, j = divmod(k, n)
        for v in range(n):
            table[i][j] = v
            if _partial_consistent(table, n):
                fill(k + 1)
        table[i][j] = -1

    fill(0)
    return tuple(found)


def _partial_consistent(table, n):
    """No determinable triple breaks associativity in the partial table."""
    span = range(n)
    for a in span:
        row_a = table[a]
        for b in span:
            ab = row_a[b]
            if ab < 0:
                continue
            row_ab = table[ab]
            row_b = table[b]
            for c in span:
                bc = row_b[c]
                if bc < 0:
                    continue
                left = row_ab[c]
                right = row_a[bc]
                if left >= 0 and right >= 0 and left != right:
                    return False
    return True


@lru_cache(maxsize=None)
def all_partial_orders(n):
    """Every partial order on {0..n-1} as a leq matrix, discrete first."""
    pairs = [(i, j) for i in range(n) for j in range(i + 1, n)]
    found = []
    for states in product((0, 1, 2), repeat=len(pairs)):
        leq = [[i == j for j in range(n)] for i in range(n)]
        for (i, j), st in zip(pairs, states):
            if st == 1:
                leq[i][j] = True
            elif st == 2:
                leq[j][i] = True
        if _transitive(leq):
            found.append(tuple(tuple(row) for row in leq))
    found.sort(key=lambda m: (sum(sum(row) for row in m), m))
    return tuple(found)


def _transitive(leq):
    n = len(leq)
    for a in range(n):
        row_a = leq[a]
        for b in range(n):
            if a != b and row_a[b]:
                row_b = leq[b]
                for c in range(n):
                    if row_b[c] and not row_a[c]:
                        return False
    return True


def is_compatible(table, leq):
    """Multiplication by any element preserves the order on both sides."""
    n = len(table)
    for a in range(n):
        for b in range(n):
            if a != b and leq[a][b]:
                for x in range(n):
                    if not leq[table[x][a]][table[x][b]]:
                        return False
                    if not leq[table[a][x]][table[b][x]]:
                        return False
    return True


def enumerate_compatible_orders(table):
    """All partial orders compatible with the table; includes the discrete
    order, which is compatible with every associative table."""
    for leq in all_partial_orders(len(table)):
        if is_compatible(table, leq):
            yield leq


@lru_cache(maxsize=None)
def _compatible_orders_cached(table):
    return tuple(enumerate_compatible_orders(table))


def enumerate_ordered_semigroups(config):
    """Validated structures for every (table, compatible order) pair, or
    for every table with the discrete order under ``discrete_only``.

    Tables come in ``enumerate_tables`` order and, per table, orders in
    ``all_partial_orders`` order.  With ``up_to_iso`` the stream holds the
    first structure of each isomorphism class in that labelled stream, and
    is generated orderly instead of by canonicalising every structure:

    - A table T that some relabelling maps to a lexicographically smaller
      table T' is skipped.  Each of its structures (T, <=) is isomorphic to
      (T', <=') with <=' the relabelled order, which is compatible with T'
      (and discrete when <= is), so its class was met earlier.
    - A structure isomorphic to one on an orbit-least table T lies on a
      relabelling of T, which is T itself or a later table; so the classes
      met on T are met on no earlier table, and (T, <=1), (T, <=2) are
      isomorphic exactly when an automorphism of T maps <=1 to <=2.  An
      order of T is therefore emitted unless it is the image, under
      ``Aut(T)``, of an order already emitted for T.

    Only emitted structures are built.
    """
    n = config.order
    emitted = 0
    discrete = (_discrete(n),)
    perms = tuple(permutations(range(n)))
    for table in enumerate_tables(n):
        automorphisms = _least_table_automorphisms(table, perms) if config.up_to_iso else ()
        if automorphisms is None:
            continue
        if config.order_mode == "discrete_only":
            orders = discrete
        else:
            orders = enumerate_compatible_orders(table)
        images = set()
        for leq in orders:
            if leq in images:
                continue
            images.update(_relabel(leq, p, relabel_entries=False) for p in automorphisms)
            yield OrderedSemigroup(table, leq)
            emitted += 1
            if config.limit is not None and emitted >= config.limit:
                return


def _least_table_automorphisms(table, perms):
    """The permutations fixing ``table``, or None when one of ``perms``
    relabels it to a lexicographically smaller table."""
    automorphisms = []
    for p in perms:
        image = _relabel(table, p, relabel_entries=True)
        if image < table:
            return None
        if image == table:
            automorphisms.append(p)
    return automorphisms


def _relabel(matrix, p, relabel_entries):
    """``matrix`` with every element a renamed p[a]: row p[a], column p[b]
    holds matrix[a][b], itself renamed when ``relabel_entries`` (a product
    table rather than an order)."""
    inv = [0] * len(p)
    for a, pa in enumerate(p):
        inv[pa] = a
    if relabel_entries:
        return tuple(tuple(p[matrix[a][b]] for b in inv) for a in inv)
    return tuple(tuple(matrix[a][b] for b in inv) for a in inv)


def sample_structures(n, count, seed):
    """Seeded sample of structures at order n: uniformly random associative
    table from the exhaustive catalog, then a random non-discrete compatible
    order (tables admitting only the discrete order are skipped).

    Raises ValueError for a negative count, and when no table of order n
    admits a non-discrete compatible order (order 1), where no draw could
    ever succeed.
    """
    if count < 0:
        raise ValueError("count must not be negative")
    tables = tuple(enumerate_tables(n))
    # every table admits the discrete order, so a second one is non-discrete
    if not any(len(_compatible_orders_cached(t)) > 1 for t in tables):
        raise ValueError(f"no table of order {n} admits a non-discrete compatible order")
    return _draw_structures(n, tables, count, random.Random(seed))


def _draw_structures(n, tables, count, rng):
    emitted = 0
    while emitted < count:
        table = tables[rng.randrange(len(tables))]
        orders = tuple(o for o in _compatible_orders_cached(table) if sum(map(sum, o)) > n)
        if not orders:
            continue
        leq = orders[rng.randrange(len(orders))]
        yield OrderedSemigroup(table, leq)
        emitted += 1
