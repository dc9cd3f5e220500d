"""Congruences, semilattice congruences, and decomposition checks.

Semilattice congruences are closed under intersection, so each contains the
least one, eta (Tamura, Semigroup Forum 4, 1972; Kehayopulu's relation N on
ordered semigroups).  The search therefore scans only the partitions of the
eta-classes, and ``PARTITION_CAP`` bounds their number, not the order.

The certificates of the semilattice congruences are the one cache of this
layer, on S.  A decomposition search is a plain scan over them; each class
check reads the class substructure cached on S and that substructure's own
cached predicates.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import PredicateResult, bits_iter, restrict
from .relations import Partition, starred

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
    """Every partition of {0..n-1} as restricted-growth strings, coarsest
    first (fewest classes, then lexicographic); the semilattice-congruence
    search partitions the classes of eta."""
    if n > PARTITION_CAP:
        raise ValueError(
            f"partition enumeration capped at {PARTITION_CAP} classes"
            " of the least semilattice congruence"
        )
    out = []

    def grow(prefix, width):
        if len(prefix) == n:
            out.append(tuple(prefix))
            return
        for v in range(width + 1):
            prefix.append(v)
            grow(prefix, max(width, v + 1))
            prefix.pop()

    grow([0], 1)
    out.sort(key=lambda rgs: (max(rgs) + 1, rgs))
    return tuple(Partition(n, rgs) for rgs in out)


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


def _semilattice_certificates(S):
    """Certificates of the semilattice congruences, coarsest first; cached
    on S.  Only the partitions of the eta-classes are classified, lifted
    through eta's restricted-growth labels, which keeps the coarsest-first
    order of :func:`all_partitions` on the whole carrier."""
    def build():
        eta = _eta(S)
        certs = (
            classify_partition(S, Partition(S.order, [p.class_of[c] for c in eta.class_of]))
            for p in all_partitions(eta.num_classes)
        )
        return tuple(cert for cert in certs if cert.is_semilattice_congruence())

    return S.cached(("semilattice-congruences",), build)


def enumerate_semilattice_congruences(S):
    """All semilattice congruences, coarsest first."""
    return tuple(cert.partition for cert in _semilattice_certificates(S))


def semilattice_decomposition(S, class_predicate, complete_only=False):
    """Search for a semilattice congruence whose classes all satisfy the
    predicate as standalone ordered semigroups.

    Classes of a semilattice congruence are closed under the product; the
    closure is still checked explicitly before restricting.  The coarsest
    witness (fewest classes) is returned.  ``complete_only`` restricts the
    search to complete semilattice congruences.
    """
    certs = _semilattice_certificates(S)
    if complete_only:
        certs = tuple(cert for cert in certs if cert.is_complete)
    for cert in certs:
        partition = cert.partition
        if all(_class_holds(S, mask, class_predicate) for mask in partition.classes):
            return PredicateResult(True, data={"partition": partition.to_lists()})
    return PredicateResult(False, counterexample={"semilattice_congruences": len(certs)})


def _class_sub(S, mask):
    """The product-closed class ``mask`` as an ordered semigroup, cached per
    mask; the full carrier is S itself and is not cached, so that no cache
    entry of S refers back to S."""
    if mask == S.full:
        return S

    def build():
        for a in bits_iter(mask):
            row = S.table[a]
            for b in bits_iter(mask):
                if not mask >> row[b] & 1:
                    raise AssertionError("semilattice congruence class not product-closed")
        return restrict(S, mask)[0]

    return S.cached(("class-sub", mask), build)


def _class_holds(S, mask, class_predicate):
    return bool(class_predicate(_class_sub(S, mask)))


def _congruence_conditions(cert, data=None):
    """The congruence and semilattice-congruence conditions (1 and 4) of
    the thm8-family batteries, read off one certificate."""
    gaps = cert.counterexamples
    sl_ok = cert.is_semilattice_congruence()
    return (
        PredicateResult(cert.is_congruence, counterexample=gaps.get("congruence"), data=data),
        PredicateResult(
            sl_ok,
            counterexample=None if sl_ok else gaps.get("congruence") or gaps["semilattice"],
            data=data,
        ),
    )


def theorem8_conditions(S):
    """Four-way battery for semilattices of right pi-t-simple ordered
    semigroups (suite id ``thm8``); meaningful under the right pi-inverse
    hypothesis."""
    from .predicates import named_predicate

    def build():
        Rs = starred(S, "R")
        c1, c4 = _congruence_conditions(classify_partition(S, Rs), {"classes": Rs.to_lists()})
        Ls = starred(S, "L")
        if Ls.refines(Rs):
            c2 = PredicateResult(True, ({"lstar_classes": Ls.to_lists()},))
        else:
            pair = next(
                (a, b)
                for a in S.elements()
                for b in S.elements()
                if Ls.same(a, b) and not Rs.same(a, b)
            )
            c2 = PredicateResult(False, counterexample={"pair": pair})
        c3 = semilattice_decomposition(
            S, lambda sub: named_predicate(sub, "right-pi-t-simple").holds
        )
        return (c1, c2, c3, c4)

    return S.cached(("thm8",), build)


def cor_hstar_conditions(S):
    """H*-flavoured variant of the thm8 battery (suite id ``cor-hstar``);
    meaningful under the pi-inverse hypothesis."""
    from .predicates import named_predicate

    def build():
        Hs = starred(S, "H")
        c1, c4 = _congruence_conditions(classify_partition(S, Hs))
        Ls, Rs = starred(S, "L"), starred(S, "R")
        if Ls == Rs and Rs == Hs:
            c2 = PredicateResult(True, ({"classes": Hs.to_lists()},))
        else:
            c2 = PredicateResult(
                False,
                counterexample={
                    "lstar": Ls.to_lists(),
                    "rstar": Rs.to_lists(),
                    "hstar": Hs.to_lists(),
                },
            )
        c3 = semilattice_decomposition(
            S, lambda sub: named_predicate(sub, "pi-t-simple").holds
        )
        return (c1, c2, c3, c4)

    return S.cached(("cor-hstar",), build)


def cor_cpr_conditions(S):
    """Completely pi-regular variant (suite id ``cor-cpr``); meaningful when
    S is right pi-inverse and left pi-regular."""
    from .predicates import _conj, named_predicate

    def build():
        c1, c2, c3, _ = theorem8_conditions(S)
        c4 = _conj(
            ("completely_pi_regular", named_predicate(S, "completely-pi-regular")),
            ("left_weakly_commutative", named_predicate(S, "left-weakly-commutative")),
        )
        return (c1, c2, c3, c4)

    return S.cached(("cor-cpr",), build)

