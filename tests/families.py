"""Structured families of ordered semigroups beyond the exhaustive orders.

Each generator returns a multiplication table on {0, ..., n-1}.  Every
family here is an inverse semigroup, so it carries two compatible orders:
the discrete order and its natural partial order, a <= b iff a = eb for
some idempotent e (Lawson, *Inverse Semigroups*, 1998).
"""

from ordsgp import OrderedSemigroup
from ordsgp.core import _discrete


def brandt(k):
    """The Brandt semigroup B_k of order k*k + 1: 0 is the zero and
    1 + i*k + j is the matrix unit (i, j), with (i, j)(j, l) = (i, l) and
    every other product 0."""
    n = k * k + 1

    def mul(x, y):
        if not x or not y:
            return 0
        (i, j), (p, q) = divmod(x - 1, k), divmod(y - 1, k)
        return 1 + i * k + q if j == p else 0

    return [[mul(x, y) for y in range(n)] for x in range(n)]


def adjoin_identity(table):
    """T with a new identity element, labelled n."""
    n = len(table)
    return [list(row) + [x] for x, row in enumerate(table)] + [list(range(n + 1))]


def direct_product(left, right):
    """The direct product, with (x, y) labelled x * len(right) + y."""
    m = len(right)
    pairs = [(x, y) for x in range(len(left)) for y in range(m)]
    return [[left[x][u] * m + right[y][v] for u, v in pairs] for x, y in pairs]


def natural_order(table):
    """a <= b iff a = eb for some idempotent e."""
    n = len(table)
    idempotents = [e for e in range(n) if table[e][e] == e]
    return [[any(table[e][b] == a for e in idempotents) for b in range(n)] for a in range(n)]


def min_chain(k):
    """The chain C_k = {0 < 1 < ... < k-1} under min, a semilattice."""
    return [[min(x, y) for y in range(k)] for x in range(k)]


# The semilattice Y2 = {0 < 1} under min.
Y2 = min_chain(2)

TABLES = {
    "B2": brandt(2),
    "B2^1": adjoin_identity(brandt(2)),
    "B3": brandt(3),
    "B2xY2": direct_product(brandt(2), Y2),
    "B4": brandt(4),
    "B3xY2": direct_product(brandt(3), Y2),
    "B2xC6": direct_product(brandt(2), min_chain(6)),
}


def members():
    """(name, structure) for each family table under the discrete and the
    natural order."""
    for name, table in TABLES.items():
        yield f"{name}/discrete", OrderedSemigroup(table, _discrete(len(table)))
        yield f"{name}/natural", OrderedSemigroup(table, natural_order(table))
