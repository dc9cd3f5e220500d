"""Exhaustive and seeded-random generation of finite ordered semigroups."""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import permutations, product

from .core import EXHAUSTIVE_TABLE_CAP, OrderedSemigroup, _discrete

CANONICAL_CAP = 6
RANDOM_CAP = 8

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


class SamplingBudgetExceeded(RuntimeError):
    """Random generation ran out of attempts; carries the attempt count."""

    def __init__(self, attempts):
        super().__init__(f"sampling budget exhausted after {attempts} attempts")
        self.attempts = attempts


def enumerate_tables(n):
    """All associative tables on {0..n-1}, generated by backtracking with
    associativity pruning; deterministic lexicographic order."""
    if n > EXHAUSTIVE_TABLE_CAP:
        raise ValueError(f"exhaustive table enumeration capped at {EXHAUSTIVE_TABLE_CAP}")
    return iter(_all_tables(n))


@lru_cache(maxsize=None)
def _all_tables(n):
    return tuple(_tables_backtrack(n, None, None))


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


def _tables_backtrack(n, rng, budget):
    """Depth-first cell fill pruned by partial associativity.

    Deterministic lexicographic order without rng; with rng the values are
    shuffled and cells are filled by leading principal submatrices, which
    surfaces contradictions early enough to sample large tables.  ``budget``
    caps the total number of cell placements.
    """
    if rng is None:
        cells = [(i, j) for i in range(n) for j in range(n)]
    else:
        cells = sorted(((i, j) for i in range(n) for j in range(n)), key=lambda c: (max(c), c))
    table = [[-1] * n for _ in range(n)]
    placements = 0

    def fill(k):
        nonlocal placements
        if k == len(cells):
            yield tuple(tuple(row) for row in table)
            return
        i, j = cells[k]
        values = list(range(n))
        if rng is not None:
            rng.shuffle(values)
        for v in values:
            placements += 1
            if budget is not None and placements > budget:
                raise SamplingBudgetExceeded(placements)
            table[i][j] = v
            if _partial_consistent(table, n):
                yield from fill(k + 1)
            table[i][j] = -1

    yield from fill(0)


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


def canonical_form(S):
    """Least relabelling of (table, order) over all carrier permutations.

    Equal keys mean the structures are isomorphic as ordered semigroups,
    i.e. related by a product- and order-preserving bijection.
    """
    n = S.order
    if n > CANONICAL_CAP:
        raise ValueError(f"canonicalization capped at {CANONICAL_CAP} elements")
    table, leq = S.table, S.leq
    best = None
    for p in permutations(range(n)):
        flat_t = []
        flat_o = []
        inv = [0] * n
        for i, pi in enumerate(p):
            inv[pi] = i
        for i in range(n):
            a = inv[i]
            row_t = table[a]
            row_o = leq[a]
            for j in range(n):
                b = inv[j]
                flat_t.append(p[row_t[b]])
                flat_o.append(row_o[b])
        key = (tuple(flat_t), tuple(flat_o))
        if best is None or key < best:
            best = key
    return (n,) + best


def random_ordered_semigroup(n, seed, max_attempts=500_000):
    """Seeded random structure: a random associative table (randomized
    backtracking with associativity pruning, restarted in slices so one bad
    prefix cannot eat the budget) plus a random compatible order.
    Deterministic for a fixed seed; raises :class:`SamplingBudgetExceeded`
    with the attempt count when the placement budget runs out."""
    if n > RANDOM_CAP:
        raise ValueError(f"random generation capped at {RANDOM_CAP} elements")
    rng = random.Random(seed)
    per_restart = min(max_attempts, 30_000)
    spent = 0
    while spent < max_attempts:
        try:
            for table in _tables_backtrack(n, rng, min(per_restart, max_attempts - spent)):
                leq = _random_compatible_order(table, rng)
                return OrderedSemigroup(table, leq)
            spent += per_restart
        except SamplingBudgetExceeded as exc:
            spent += exc.attempts
    raise SamplingBudgetExceeded(spent)


def _random_compatible_order(table, rng):
    """Random compatible order by incremental pair insertion."""
    n = len(table)
    if n <= EXHAUSTIVE_TABLE_CAP:
        orders = _compatible_orders_cached(tuple(map(tuple, table)))
        return orders[rng.randrange(len(orders))]
    leq = [[i == j for j in range(n)] for i in range(n)]
    for _ in range(2 * n * n):
        i = rng.randrange(n)
        j = rng.randrange(n)
        if i == j or leq[i][j] or leq[j][i]:
            continue
        trial = [row[:] for row in leq]
        trial[i][j] = True
        _close_transitively(trial)
        if _antisymmetric(trial) and is_compatible(table, trial):
            leq = trial
    return tuple(tuple(row) for row in leq)


def _close_transitively(leq):
    n = len(leq)
    changed = True
    while changed:
        changed = False
        for a in range(n):
            for b in range(n):
                if leq[a][b]:
                    for c in range(n):
                        if leq[b][c] and not leq[a][c]:
                            leq[a][c] = True
                            changed = True


def _antisymmetric(leq):
    n = len(leq)
    return not any(leq[a][b] and leq[b][a] for a in range(n) for b in range(a + 1, n))


def sample_structures(n, count, seed):
    """Seeded sample of structures at order n: uniformly random associative
    table from the exhaustive catalog, then a random non-discrete compatible
    order (tables admitting only the discrete order are skipped).

    Raises ValueError when no table of order n admits a non-discrete
    compatible order (order 1), where no draw could ever succeed.
    """
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
