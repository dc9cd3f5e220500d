"""Congruences, semilattice congruences, and decomposition checks.

Semilattice congruences are closed under intersection, so each contains the
least one, eta (Tamura, Semigroup Forum 4, 1972; Kehayopulu's relation N on
ordered semigroups).  The search therefore scans only the partitions of the
eta-classes, and ``PARTITION_CAP`` bounds their number, not the order.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

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


def _certificate(S, partition):
    return S.cached(("cert", partition.class_of), lambda: classify_partition(S, partition))


@lru_cache(maxsize=None)
def all_partitions(n):
    """Every partition of {0..n-1} as restricted-growth strings, coarsest
    first (fewest classes, then lexicographic)."""
    if n > PARTITION_CAP:
        raise ValueError(f"partition enumeration capped at {PARTITION_CAP} elements")
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


def enumerate_semilattice_congruences(S):
    """All semilattice congruences, coarsest first.

    Only partitions coarser than eta are classified; lifted from the
    partitions of the eta-classes, they keep the coarsest-first order of
    :func:`all_partitions` on the whole carrier."""
    def build():
        eta = _eta(S)
        if eta.num_classes == S.order:
            # eta is the identity, so every partition is coarser than it;
            # reusing the cached ones avoids a second copy of Bell(n) of them
            lifted = all_partitions(S.order)
        else:
            lifted = sorted(
                (
                    Partition(S.order, [p.class_of[c] for c in eta.class_of])
                    for p in all_partitions(eta.num_classes)
                ),
                key=lambda p: (p.num_classes, p.class_of),
            )
        return tuple(p for p in lifted if _certificate(S, p).is_semilattice_congruence())

    return S.cached(("semilattice-congruences",), build)


def semilattice_decomposition(S, class_predicate, cache_key=None, complete_only=False):
    """Search for a semilattice congruence whose classes all satisfy the
    predicate as standalone ordered semigroups.

    Classes of a semilattice congruence are closed under the product; the
    closure is still checked explicitly before restricting.  The coarsest
    witness (fewest classes) is returned.  ``complete_only`` restricts the
    search to complete semilattice congruences.
    """
    def class_ok(mask):
        if cache_key is None:
            return _class_holds(S, mask, class_predicate)
        return S.cached(
            ("class-ok", mask, cache_key),
            lambda: _class_holds(S, mask, class_predicate),
        )

    def build():
        candidates = enumerate_semilattice_congruences(S)
        if complete_only:
            candidates = tuple(
                p for p in candidates if _certificate(S, p).is_complete
            )
        for partition in candidates:
            if all(class_ok(mask) for mask in partition.classes):
                return PredicateResult(True, data={"partition": partition.to_lists()})
        return PredicateResult(
            False, counterexample={"semilattice_congruences": len(candidates)}
        )

    if cache_key is None:
        return build()
    return S.cached(("decomposition", cache_key, complete_only), build)


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


def theorem8_conditions(S):
    """Four-way battery for semilattices of right pi-t-simple ordered
    semigroups (suite id ``thm8``); meaningful under the right pi-inverse
    hypothesis."""
    from .predicates import right_pi_t_simple_direct

    def build():
        Rs = starred(S, "R")
        cert = _certificate(S, Rs)
        c1 = PredicateResult(
            cert.is_congruence,
            counterexample=None if cert.is_congruence else cert.counterexamples["congruence"],
            data={"classes": Rs.to_lists()},
        )
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
            S, lambda sub: right_pi_t_simple_direct(sub).holds, cache_key="right-pi-t-simple"
        )
        sl_ok = cert.is_congruence and cert.is_semilattice
        bad = None
        if not sl_ok:
            bad = cert.counterexamples.get("congruence") or cert.counterexamples["semilattice"]
        c4 = PredicateResult(
            sl_ok, counterexample=bad, data={"classes": Rs.to_lists()}
        )
        return (c1, c2, c3, c4)

    return S.cached(("thm8",), build)


def cor_hstar_conditions(S):
    """H*-flavoured variant of the thm8 battery (suite id ``cor-hstar``);
    meaningful under the pi-inverse hypothesis."""
    from .predicates import pi_t_simple_direct

    def build():
        Hs = starred(S, "H")
        cert = _certificate(S, Hs)
        c1 = PredicateResult(
            cert.is_congruence,
            counterexample=None if cert.is_congruence else cert.counterexamples["congruence"],
        )
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
            S, lambda sub: pi_t_simple_direct(sub).holds, cache_key="pi-t-simple"
        )
        sl_ok = cert.is_congruence and cert.is_semilattice
        bad = None
        if not sl_ok:
            bad = cert.counterexamples.get("congruence") or cert.counterexamples["semilattice"]
        c4 = PredicateResult(sl_ok, counterexample=bad)
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

