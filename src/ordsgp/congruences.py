"""Congruences, semilattice congruences, and decomposition checks.

Semilattice congruences are closed under intersection, so each contains the
least one, eta (Tamura, Semigroup Forum 4, 1972; Kehayopulu's relation N on
ordered semigroups).  The search therefore scans only the partitions of the
eta-classes, and ``PARTITION_CAP`` bounds their number, not the order.

The semilattice congruences are memoised on the table, so eta, the last
of them (the only one with as many classes), is computed once per table;
the completeness flags are cached on S.  A decomposition search is one
plain scan over them that gives both readings, over all semilattice
congruences and over complete ones; each class check reads the class
substructure cached on S and applies the class predicate it is given.
This layer lies below ``predicates``, which builds the batteries on it,
and imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from .core import _MEMO_SIZE, PredicateResult, bits_iter, derived, restrict
from .relations import Partition

PARTITION_CAP = 10


@dataclass(frozen=True)
class CongruenceCertificate:
    """Classification of one partition against the congruence laws.

    ``is_semilattice`` covers the two semilattice laws (a ~ a*a and
    a*b ~ b*a) on their own; a semilattice congruence additionally needs
    ``is_congruence``.  ``is_complete`` checks a <= b implies a ~ a*b.
    """

    partition: Partition
    is_congruence: bool
    is_semilattice: bool
    is_complete: bool
    counterexamples: dict

    def is_semilattice_congruence(self):
        return self.is_congruence and self.is_semilattice


def _congruence_gap(table, partition):
    """The first pair (a, b) of one class and element c with c*a, c*b (side
    "left") or a*c, b*c in different classes, or None for a congruence."""
    cls = partition.class_of
    for mask in partition.classes:
        a, *rest = bits_iter(mask)
        for b in rest:
            for c, row in enumerate(table):
                if cls[row[a]] != cls[row[b]]:
                    return {"pair": (a, b), "c": c, "side": "left"}
                if cls[table[a][c]] != cls[table[b][c]]:
                    return {"pair": (a, b), "c": c, "side": "right"}
    return None


def _complete_gap(S, partition):
    """The first a <= b with a and a*b in different classes, or None."""
    cls = partition.class_of
    for a in S.elements():
        for b in S.elements():
            if S.leq[a][b] and cls[a] != cls[S.table[a][b]]:
                return {"a": a, "b": b}
    return None


def classify_partition(S, partition):
    """Evaluate compatibility, the semilattice laws, and completeness."""
    if partition.n != S.order:
        raise ValueError("partition does not cover the carrier")
    table = S.table
    cls = partition.class_of

    def semilattice_gap():
        for a in S.elements():
            if cls[a] != cls[table[a][a]]:
                return {"a": a, "law": "a ~ a*a"}
        for a in S.elements():
            for b in S.elements():
                if cls[table[a][b]] != cls[table[b][a]]:
                    return {"a": a, "b": b, "law": "a*b ~ b*a"}
        return None

    gaps = {
        "congruence": _congruence_gap(table, partition),
        "semilattice": semilattice_gap(),
        "complete": _complete_gap(S, partition),
    }
    counterexamples = {k: v for k, v in gaps.items() if v is not None}
    return CongruenceCertificate(
        partition,
        gaps["congruence"] is None,
        gaps["semilattice"] is None,
        gaps["complete"] is None,
        counterexamples,
    )


def all_partitions(n):
    """Every partition of {0..n-1}, lazily and coarsest first (fewest
    classes, then lexicographic by restricted-growth string); the
    semilattice-congruence search partitions the classes of eta.  The cap is
    checked at the call."""
    if n > PARTITION_CAP:
        raise ValueError(
            f"partition enumeration capped at {PARTITION_CAP} classes"
            " of the least semilattice congruence"
        )

    def grow(rgs, width, k):
        # rgs uses labels 0..width-1; a label is tried only if the places
        # left can still bring the count of labels up to k
        if len(rgs) == n:
            yield Partition(n, rgs)
            return
        for v in range(min(width + 1, k)):
            if max(width, v + 1) + n - len(rgs) - 1 >= k:
                yield from grow(rgs + [v], max(width, v + 1), k)

    return (p for k in range(1, n + 1) for p in grow([0], 1, k))


def _eta(table):
    """The least semilattice congruence of a table: the equivalence generated
    by a ~ a*a and a*b ~ b*a, closed under multiplication on both sides."""
    elems = range(len(table))
    parent = list(elems)

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]
        return x

    def union(x, y):
        x, y = find(x), find(y)
        if x == y:
            return False
        parent[max(x, y)] = min(x, y)
        return True

    for a in elems:
        union(a, table[a][a])
        for b in elems:
            union(table[a][b], table[b][a])
    changed = True
    while changed:
        changed = False
        for x in elems:
            r = find(x)
            for c in elems:
                changed |= union(table[c][x], table[c][r])
                changed |= union(table[x][c], table[r][c])
    return Partition(len(table), [find(x) for x in elems])


@lru_cache(maxsize=_MEMO_SIZE)
def _semilattice_congruences(table):
    """The semilattice congruences of a table, coarsest first: the
    partitions of the eta-classes, lifted through eta's labels, that are
    congruences.  Being coarser than eta, each keeps a ~ a*a and a*b ~ b*a."""
    eta = _eta(table)
    lifted = (
        Partition(len(table), [p.class_of[c] for c in eta.class_of])
        for p in all_partitions(eta.num_classes)
    )
    return tuple(p for p in lifted if _congruence_gap(table, p) is None)


@derived
def _complete(S):
    """Whether each semilattice congruence is complete; cached on S."""
    return tuple(_complete_gap(S, p) is None for p in _semilattice_congruences(S.table))


def enumerate_semilattice_congruences(S):
    """All semilattice congruences, coarsest first."""
    return _semilattice_congruences(S.table)


def semilattice_decomposition(S, class_predicate):
    """Search for a semilattice congruence whose classes all satisfy the
    predicate as standalone ordered semigroups; returns ``(plain, complete)``,
    the readings over all semilattice congruences and over complete ones.

    One coarsest-first pass checks every candidate until the plain witness
    is found, then only complete ones, and stops at the first complete
    witness.  A reading without a witness counts its candidates.  Classes
    of a semilattice congruence are closed under the product; the closure
    is still checked explicitly before restricting.
    """
    congruences, complete = _semilattice_congruences(S.table), _complete(S)
    plain = None
    for partition, is_complete in zip(congruences, complete):
        if (plain is None or is_complete) and all(
            _class_holds(S, mask, class_predicate) for mask in partition.classes
        ):
            found = PredicateResult(True, data={"partition": partition.to_lists()})
            plain = plain or found
            if is_complete:
                return plain, found

    def miss(candidates):
        return PredicateResult(False, counterexample={"semilattice_congruences": candidates})

    return plain or miss(len(congruences)), miss(sum(complete))


@derived
def _class_sub(S, mask):
    """The proper product-closed class ``mask`` as an ordered semigroup."""
    return restrict(S, mask)[0]


def _class_holds(S, mask, class_predicate):
    # the full carrier is S itself and is not cached, so that no cache
    # entry of S refers back to S
    return bool(class_predicate(S if mask == S.full else _class_sub(S, mask)))
