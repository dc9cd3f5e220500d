"""Exhaustive generation of finite ordered semigroups.

One orderly backtrack gives every associative table of order n up to
relabelling, with its automorphisms; their orbits are the labelled tables.
Also every compatible partial order of a table, the labelled catalog and
its up-to-isomorphism stream, and the seeded sample of non-discrete order-n
structures that the order-4 verification regime draws.  The catalog and
the sample are walked as raw (table, leq) pairs, which the public streams
build into validated structures; ``_class_key`` keys a pair unbuilt.

Each fact is computed once per process: per n, the orbit-least tables
(``_least_tables``, one tuple that every walk and the orbit map read);
per table, its compatible orders and, for an orbit-least table, its
isomorphism classes with their orbit sizes (``_table_classes``).  So a
walk over tables already walked relabels and scans nothing.

Compatible orders are found with int masks over the n*n cells: per table,
once, the cells each strict pair a <= b forces into the order
(``core._requirement_masks``); per n, once, the cells and strict cells of
each partial order.  Testing an order is ``core._compatible``, one mask
test per strict cell, the very test the validator runs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from functools import lru_cache
from itertools import islice, permutations, starmap

from .core import (
    _MEMO_SIZE,
    OrderedSemigroup,
    _compatible,
    _discrete,
    _normalize_table,
    _order_cells,
    _requirement_masks,
    bits_iter,
)

# Largest order whose tables, and so whose catalogs, are enumerated exhaustively.
EXHAUSTIVE_TABLE_CAP = 4

ORDER_MODES = ("all_partial_orders", "discrete_only")


def _check_int(value, name):
    """Reject the argument ``name`` unless it is an int; a bool is not one."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ValueError(f"{name} must be an integer, got {value!r}")


def _check_count(value, name):
    """The one check of a count, the argument ``name``: an int, not negative."""
    _check_int(value, name)
    if value < 0:
        raise ValueError(f"{name} must not be negative")


def _check_order(order, name="order"):
    """The one check of a catalog order, the argument ``name``: an int, 1 <= order <= cap."""
    _check_int(order, name)
    if order < 1:
        raise ValueError(f"{name} must be at least 1")
    if order > EXHAUSTIVE_TABLE_CAP:
        raise ValueError(f"exhaustive table enumeration capped at {EXHAUSTIVE_TABLE_CAP}")


@dataclass(frozen=True)
class GenerationConfig:
    order: int
    up_to_iso: bool = False
    order_mode: str = "all_partial_orders"
    limit: int | None = None

    def __post_init__(self):
        _check_order(self.order)
        if self.order_mode not in ORDER_MODES:
            raise ValueError(f"order_mode must be one of {ORDER_MODES}")
        if self.limit is not None:
            _check_int(self.limit, "limit")
            if self.limit < 1:
                raise ValueError("limit must be at least 1 when present")


def enumerate_tables(n):
    """All associative tables on {0..n-1}, in lexicographic order: the
    orbits, under every relabelling, of the tables of ``_least_tables``."""
    _check_order(n)
    return iter(_orbit_map(n))


@lru_cache(maxsize=None)
def _orbit_map(n):
    """The process-wide labelled table store, bounded by the cap of
    ``enumerate_tables``: each labelled table, in lexicographic order, mapped
    to (T0, p, Aut(T0)) where T0 is the orbit-least table of its orbit and
    the table is p(T0); T0 and Aut(T0) are the objects of ``_least_tables``."""
    perms = tuple(permutations(range(n)))
    orbits = {}
    for least, automorphisms in _least_tables(n):
        for p in perms:
            orbits.setdefault(_relabel(least, p, True), (least, p, automorphisms))
    return dict(sorted(orbits.items()))


def _class_key(table, leq):
    """(T0, the least image under Aut(T0) of the order carried onto T0), for
    a (table, leq) pair of order at most the cap of ``enumerate_tables``:
    two ordered semigroups are isomorphic exactly when their keys are equal
    (see ``enumerate_ordered_semigroups``).  Every relabelling fixes the
    discrete order, so a discrete pair keys on its own order.

    A table outside the store is no associative table on {0..n-1}; the
    pair is then built, so that the validator raises its own ValueError.
    Keys compare values and check no entry type: a pair with bools in its
    table or ints in its order keys like the pair it equals."""
    n = len(table)
    try:
        least, p, automorphisms = _orbit_map(n)[table]
    except KeyError:
        OrderedSemigroup(table, leq)
        raise
    if leq == _discrete(n):
        return least, leq
    leq = tuple(tuple(leq[pa][pb] for pb in p) for pa in p)
    return least, min(_relabel(leq, a, relabel_entries=False) for a in automorphisms)


@lru_cache(maxsize=None)
def _least_tables(n):
    """Each associative table on {0..n-1} that no relabelling makes
    lexicographically smaller, with its automorphisms, in lexicographic
    order, as one tuple per n: the process-wide store that ``_orbit_map``
    and ``_pairs`` read.  It is one depth-first row-major cell fill.  Row
    and column n of the working table hold n, the mark of an undefined
    cell, so a product through an undefined cell is undefined.

    A placement fails when a determined triple that reads the cell does
    not associate (``_associates_at``), or when some relabelling p maps the
    filled cells to a smaller table, compared row-major up to the first
    cell q whose image reads an unplaced cell.  A p that maps them to a
    larger table is dropped.  Each p still in play is an entry (p, inverse
    of p, q) in the waiting list of one cell: the later of q and the cell
    its image reads, whose placement decides the comparison.  So placing
    cell k re-examines only cell k's list, from each entry's q on, and
    appends each survivor to the list of a later cell; the appends are
    undone on backtrack.  The inverse is padded with 0, so an entry that
    compares equal on every cell waits in list n*n: those entries are
    Aut(T), in ascending order, so the identity is first."""
    cells = n * n
    table = [[n] * (n + 1) for _ in range(n + 1)]
    waiting = [[] for _ in range(cells + 1)]
    waiting[0] = [(p, tuple(map(p.index, range(n))) + (0,), 0) for p in permutations(range(n))]

    def fill(k):
        if k == cells:
            automorphisms = tuple(sorted(p for p, _, _ in waiting[cells]))
            yield tuple(tuple(row[:n]) for row in table[:n]), automorphisms
            return
        i, j = divmod(k, n)
        for v in range(n):
            table[i][j] = v
            if not _associates_at(table, n, i, j):
                continue
            moved = []
            for p, inv, q in waiting[k]:
                image = cell = 0
                while image == cell:
                    r, c = divmod(q, n)
                    a, b = inv[r], inv[c]
                    w = a * n + b
                    if q > k or w > k:
                        w = q if q > w else w
                        waiting[w].append((p, inv, q))
                        moved.append(w)
                        break
                    image, cell = p[table[a][b]], table[r][c]
                    q += 1
                if image < cell:
                    break
            else:
                yield from fill(k + 1)
            for w in moved:
                waiting[w].pop()
        table[i][j] = n

    return tuple(fill(0))


def _associates_at(table, n, i, j):
    """Whether every determined triple that reads the placed cell (i, j)
    associates: a*b = (i, j), b*c = (i, j), (a*b)*c with a*b = i and c = j,
    and a*(b*c) with a = i and b*c = j.  A product through n, the undefined
    mark, is itself undefined and agrees with anything."""
    v, row_i = table[i][j], table[i]
    for x in range(n):
        row_x = table[x]
        if n != table[v][x] != row_i[table[j][x]] != n:
            return False
        if n != table[row_x[i]][j] != row_x[v] != n:
            return False
        for y in range(n):
            if row_x[y] == i and v != row_x[table[y][j]] != n:
                return False
            if row_x[y] == j and v != table[row_i[x]][y] != n:
                return False
    return True


def all_partial_orders(n):
    """Every partial order on {0..n-1} as a leq matrix, discrete first;
    built anew on each call (``_order_masks`` is the one per-n store).

    An order on {0..k} is an order on {0..k-1} with the set D of elements
    below k, down-closed, and the set U above k, up-closed, every d < u."""
    orders = [()]
    for k in range(n):
        grown = []
        for leq in orders:
            up = [sum(leq[a][b] << b for b in range(k)) for a in range(k)]
            down = [sum(leq[a][b] << a for a in range(k)) for b in range(k)]
            masks = range(1 << k)
            downsets = [m for m in masks if all(down[d] | m == m for d in bits_iter(m))]
            upsets = [m for m in masks if all(up[u] | m == m for u in bits_iter(m))]
            for D in downsets:
                for U in upsets:
                    if not D & U and all(U | up[d] == up[d] for d in bits_iter(D)):
                        col = [bool(D >> a & 1) for a in range(k)]
                        last = tuple(bool(U >> b & 1) for b in range(k)) + (True,)
                        grown.append(tuple(r + (c,) for r, c in zip(leq, col)) + (last,))
        orders = grown
    return tuple(sorted(orders, key=lambda m: (sum(map(sum, m)), m)))


@lru_cache(maxsize=None)
def _order_masks(n):
    """For each order of ``all_partial_orders(n)``, in that order: (leq, the
    int mask of its true cells, its strict cells), as ``core._order_cells``
    gives them."""
    return tuple((leq, *_order_cells(leq)) for leq in all_partial_orders(n))


def enumerate_compatible_orders(table):
    """All partial orders compatible with the table (multiplication by any
    element preserves the order on both sides), in ``all_partial_orders``
    order; includes the discrete order, which is compatible with every
    associative table.  The table is checked as the constructor checks it,
    but for associativity."""
    return iter(_compatible_orders(_normalize_table(table)))


@lru_cache(maxsize=_MEMO_SIZE)
def _compatible_orders(table):
    """The one store of the compatible orders of a normalised table, in
    ``all_partial_orders`` order: each order that passes ``core._compatible``
    against the table's requirement masks, read once."""
    required = _requirement_masks(table)
    orders = _order_masks(len(table))
    return tuple(leq for leq, mask, strict in orders if _compatible(required, mask, strict))


def enumerate_ordered_semigroups(config):
    """Validated structures for every (table, compatible order) pair, or
    for every table with the discrete order under ``discrete_only``.

    Tables come in ``enumerate_tables`` order and, per table, orders in
    ``all_partial_orders`` order.  With ``up_to_iso`` the stream holds the
    first structure of each isomorphism class in that labelled stream.  It
    walks only the orbit-least tables of ``_least_tables``, and takes no
    canonical form:

    - The tables of a class's structures form one orbit under relabelling,
      whose least table T comes first in the labelled stream, so the class
      is first met on T: relabelling a structure (T', <=) onto T gives
      (T, <=') with <=' compatible with T, and discrete when <= is.
    - (T, <=1) and (T, <=2) are isomorphic exactly when an automorphism of
      T maps <=1 to <=2.  An order of T is therefore emitted unless it is
      the image, under ``Aut(T)``, of an order already emitted for T.

    By the same two facts, two structures are isomorphic exactly when they
    relabel onto the same orbit-least table T with orders in one
    ``Aut(T)``-orbit, which is what ``_class_key`` compares.

    Only emitted structures are built: this is ``_pairs`` with each pair
    built, and the classes of each orbit-least table are one memo of the
    table, ``_table_classes``, so a second walk in one process reads them.
    """
    return starmap(OrderedSemigroup, _pairs(config))


def _pairs(config):
    """The (table, leq) pairs of ``enumerate_ordered_semigroups``, in its
    order, none of them built: the one catalog walk.  Up to isomorphism it
    reads the one tuple of ``_least_tables`` and, with all orders, each
    table's ``_table_classes`` without their sizes."""
    n = config.order
    if config.up_to_iso:
        tables = _least_tables(n)
    else:
        tables = ((table, ()) for table in enumerate_tables(n))
    if config.order_mode == "discrete_only":
        discrete = _discrete(n)
        pairs = ((table, discrete) for table, _ in tables)
    elif config.up_to_iso:
        pairs = (
            (table, leq)
            for table, automorphisms in tables
            for leq, _ in _table_classes(table, automorphisms)
        )
    else:
        pairs = ((table, leq) for table, _ in tables for leq in _compatible_orders(table))
    yield from islice(pairs, config.limit)


@lru_cache(maxsize=_MEMO_SIZE)
def _table_classes(table, automorphisms):
    """The isomorphism classes of the ordered semigroups on an orbit-least
    table T with automorphisms ``Aut(T)`` (sorted, so the identity first),
    in ``all_partial_orders`` order: (leq, |orbit of leq under Aut(T)|)
    for each compatible order that is no image of an earlier one.  The
    class then holds n! * |orbit| / |Aut(T)| labelled structures, that is
    n!/|Aut(T, leq)|."""
    classes = []
    images = set()
    for leq in _compatible_orders(table):
        if leq in images:
            continue
        orbit = {leq, *(_relabel(leq, p, relabel_entries=False) for p in automorphisms[1:])}
        images |= orbit
        classes.append((leq, len(orbit)))
    return tuple(classes)


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

    Raises ValueError for a negative count, for an order that
    ``enumerate_tables`` rejects, and when no table of order n admits a
    non-discrete compatible order (order 1), where no draw could ever
    succeed.
    """
    return starmap(OrderedSemigroup, _sample_pairs(n, count, seed))


def _sample_pairs(n, count, seed):
    """The (table, leq) pairs of ``sample_structures``, none of them built;
    the arguments are checked at the call."""
    _check_count(count, "count")
    tables = tuple(enumerate_tables(n))
    # every table admits the discrete order, so a second one is non-discrete
    if not any(len(_compatible_orders(t)) > 1 for t in tables):
        raise ValueError(f"no table of order {n} admits a non-discrete compatible order")
    return _draw_pairs(tables, count, random.Random(seed))


def _draw_pairs(tables, count, rng):
    emitted = 0
    while emitted < count:
        table = tables[rng.randrange(len(tables))]
        # The discrete order comes first: every table admits it, and it has
        # the fewest true cells, which ``all_partial_orders`` sorts by.  So
        # [1:] is exactly the non-discrete orders that a draw picks from.
        orders = _compatible_orders(table)[1:]
        if not orders:
            continue
        leq = orders[rng.randrange(len(orders))]
        yield table, leq
        emitted += 1
