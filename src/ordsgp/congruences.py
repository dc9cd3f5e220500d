"""Congruences, semilattice congruences, and decomposition checks.

Semilattice congruences are closed under intersection, so each contains the
least one, eta (Tamura, Semigroup Forum 4, 1972; Kehayopulu's relation N on
ordered semigroups).  The search therefore scans only the partitions of the
eta-classes, and ``PARTITION_CAP`` bounds their number, not the order.

The certificates of the semilattice congruences are the one cache of this
layer, on S.  A decomposition search is one plain scan over them that gives
both readings, over all semilattice congruences and over complete ones; each
class check reads the class substructure cached on S and applies the class
predicate it is given.  This layer lies below ``predicates``, which builds
the batteries on it, and imports nothing from it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PredicateResult, bits_iter, derived, restrict
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


def classify_partition(S, partition):
    """Evaluate compatibility, the semilattice laws, and completeness."""
    if partition.n != S.order:
        raise ValueError("partition does not cover the carrier")
    table = S.table
    cls = partition.class_of

    def congruence_gap():
        for mask in partition.classes:
            members = list(bits_iter(mask))
            a = members[0]
            for b in members[1:]:
                for c in S.elements():
                    if cls[table[c][a]] != cls[table[c][b]]:
                        return {"pair": (a, b), "c": c, "side": "left"}
                    if cls[table[a][c]] != cls[table[b][c]]:
                        return {"pair": (a, b), "c": c, "side": "right"}
        return None

    def semilattice_gap():
        for a in S.elements():
            if cls[a] != cls[table[a][a]]:
                return {"a": a, "law": "a ~ a*a"}
        for a in S.elements():
            for b in S.elements():
                if cls[table[a][b]] != cls[table[b][a]]:
                    return {"a": a, "b": b, "law": "a*b ~ b*a"}
        return None

    def complete_gap():
        for a in S.elements():
            for b in S.elements():
                if S.leq[a][b] and cls[a] != cls[table[a][b]]:
                    return {"a": a, "b": b}
        return None

    gaps = {
        "congruence": congruence_gap(),
        "semilattice": semilattice_gap(),
        "complete": complete_gap(),
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


def _eta(S):
    """The least semilattice congruence: the equivalence generated by
    a ~ a*a and a*b ~ b*a, closed under multiplication on both sides."""
    table = S.table
    parent = list(S.elements())

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

    for a in S.elements():
        union(a, table[a][a])
        for b in S.elements():
            union(table[a][b], table[b][a])
    changed = True
    while changed:
        changed = False
        for x in S.elements():
            r = find(x)
            for c in S.elements():
                changed |= union(table[c][x], table[c][r])
                changed |= union(table[x][c], table[r][c])
    return Partition(S.order, [find(x) for x in S.elements()])


@derived
def _semilattice_certificates(S):
    """Certificates of the semilattice congruences, coarsest first; cached
    on S.  Only the partitions of the eta-classes are classified, lifted
    through eta's restricted-growth labels, which keeps the coarsest-first
    order of :func:`all_partitions` on the whole carrier."""
    eta = _eta(S)
    certs = (
        classify_partition(S, Partition(S.order, [p.class_of[c] for c in eta.class_of]))
        for p in all_partitions(eta.num_classes)
    )
    return tuple(cert for cert in certs if cert.is_semilattice_congruence())


def enumerate_semilattice_congruences(S):
    """All semilattice congruences, coarsest first."""
    return tuple(cert.partition for cert in _semilattice_certificates(S))


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
    certs = _semilattice_certificates(S)
    plain = None
    for cert in certs:
        if (plain is None or cert.is_complete) and all(
            _class_holds(S, mask, class_predicate) for mask in cert.partition.classes
        ):
            found = PredicateResult(True, data={"partition": cert.partition.to_lists()})
            plain = plain or found
            if cert.is_complete:
                return plain, found

    def miss(candidates):
        return PredicateResult(False, counterexample={"semilattice_congruences": candidates})

    return plain or miss(len(certs)), miss(sum(cert.is_complete for cert in certs))


@derived
def _class_sub(S, mask):
    """The proper product-closed class ``mask`` as an ordered semigroup."""
    return restrict(S, mask)[0]


def _class_holds(S, mask, class_predicate):
    # the full carrier is S itself and is not cached, so that no cache
    # entry of S refers back to S
    return bool(class_predicate(S if mask == S.full else _class_sub(S, mask)))
