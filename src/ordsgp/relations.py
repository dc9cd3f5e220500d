"""Green's relations, starred relations, ordered idempotents and inverses."""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    PredicateResult,
    SubsetMask,
    _check_element,
    _exponents,
    _principal_bits,
    bits_iter,
    derived,
    power_profile,
)


class Partition:
    """Equivalence classes over the carrier, with canonical class ids.

    Class ids follow first occurrence, so the class containing element 0 is
    class 0 and ids increase with each class's smallest member.
    """

    __slots__ = ("n", "class_of", "classes")

    def __init__(self, n, labels):
        if len(labels) != n:
            raise ValueError(f"expected {n} labels, got {len(labels)}")
        relabel = {}
        class_of = []
        for x in range(n):
            lab = labels[x]
            if lab not in relabel:
                relabel[lab] = len(relabel)
            class_of.append(relabel[lab])
        masks = [0] * len(relabel)
        for x, c in enumerate(class_of):
            masks[c] |= 1 << x
        self.n = n
        self.class_of = tuple(class_of)
        self.classes = tuple(masks)

    @classmethod
    def singletons(cls, n):
        return cls(n, tuple(range(n)))

    @classmethod
    def one_class(cls, n):
        return cls(n, (0,) * n)

    @property
    def num_classes(self):
        return len(self.classes)

    def same(self, a, b):
        return self.class_of[a] == self.class_of[b]

    def mask_of(self, a):
        return self.classes[self.class_of[a]]

    def refines(self, other):
        """True iff every class of self sits inside one class of other."""
        return all(
            c & ~other.classes[other.class_of[(c & -c).bit_length() - 1]] == 0
            for c in self.classes
        )

    def meet(self, other):
        return Partition(self.n, tuple(zip(self.class_of, other.class_of)))

    def to_lists(self):
        return [list(bits_iter(c)) for c in self.classes]

    def __eq__(self, other):
        return isinstance(other, Partition) and self.class_of == other.class_of

    def __hash__(self):
        return hash(self.class_of)

    def __repr__(self):
        return f"Partition({self.to_lists()})"


GREEN_KINDS = ("L", "R", "J", "H")

_IDEAL_KIND = {"L": "left", "R": "right", "J": "two_sided"}


@derived
def green(S, kind):
    """Green's relation L, R, J (equal principal ideals) or H = L meet R."""
    if kind not in GREEN_KINDS:
        raise ValueError(f"unknown Green relation {kind!r}")
    if kind == "H":
        return green(S, "L").meet(green(S, "R"))
    ideal = _IDEAL_KIND[kind]
    return Partition(S.order, tuple(_principal_bits(S, a, ideal) for a in S.elements()))


@derived
def ordered_idempotents(S):
    """All e with e <= e*e."""
    bits = 0
    for e in S.elements():
        if S.leq[e][S.table[e][e]]:
            bits |= 1 << e
    return SubsetMask(S.order, bits)


@derived
def _inverse_masks(S):
    """The ordered inverses of each element as a bitmask, indexed by it;
    cached on S."""
    table, leq, elems = S.table, S.leq, S.elements()
    return tuple(
        sum(
            1 << b
            for b in elems
            if leq[a][table[table[a][b]][a]] and leq[b][table[table[b][a]][b]]
        )
        for a in elems
    )


def ordered_inverses(S, a):
    """V(a) = {b : a <= a*b*a and b <= b*a*b}."""
    _check_element(S.order, a)
    return SubsetMask(S.order, _inverse_masks(S)[a])


# -- least solutions ------------------------------------------------------
# Each table walks s in ascending order and marks every v of the down-set
# (p] of the product p that no earlier s marked, so an entry is the least
# s, or None.  A larger order only adds solutions: an entry can only fall
# or fill.

@derived
def _factors(S, side):
    """The least s with v <= s*w (side "left") or v <= w*s (side "right"),
    or None, for each v and w, indexed by v and then w; cached on S."""
    table, below, elems = S.table, S.below, S.elements()
    out = [[None] * S.order for _ in elems]
    for w in elems:
        todo = S.full
        for s, p in enumerate([row[w] for row in table] if side == "left" else table[w]):
            new = todo & below[p]
            if new:
                todo ^= new
                for v in bits_iter(new):
                    out[v][w] = s
                if not todo:
                    break
    return out


@derived
def _middles(S):
    """The least s with v <= u*s*w, or None, for each v, u and w, indexed
    by v, then u, then w; cached on S."""
    table, below, elems = S.table, S.below, S.elements()
    out = [[[None] * S.order for _ in elems] for _ in elems]
    for u in elems:
        row = table[u]
        for w in elems:
            todo = S.full
            for s in elems:
                new = todo & below[table[row[s]][w]]
                if new:
                    todo ^= new
                    for v in bits_iter(new):
                        out[v][u][w] = s
                    if not todo:
                        break
    return out


@dataclass(frozen=True)
class RegularityProfile:
    """Per-element regularity flags and smallest regular powers.

    ``witness[a]`` is the least x with a^m <= a^m * x * a^m at
    m = ``smallest_regular_power[a]``.  Finiteness guarantees the power
    exists: some power is a multiplicative idempotent, hence regular.
    """

    regular: tuple
    completely_regular: tuple
    intra_regular: tuple
    smallest_regular_power: tuple
    witness: tuple


@derived
def regularity_profile(S):
    table, middles, right = S.table, _middles(S), _factors(S, "right")
    completely, intra, smallest, witness = [], [], [], []
    for a, steps in enumerate(_exponents(table)):
        a2 = table[a][a]
        completely.append(middles[a][a2][a2] is not None)
        intra.append(any(right[a][row[a2]] is not None for row in table))
        for m, v in steps:
            x = middles[v][v][v]
            if x is not None:
                smallest.append(m)
                witness.append(x)
                break
        else:
            raise AssertionError(f"element {a} has no regular power")
    regular = tuple(m == 1 for m in smallest)
    return RegularityProfile(
        regular, tuple(completely), tuple(intra), tuple(smallest), tuple(witness)
    )


def smallest_regular_power(S, a):
    _check_element(S.order, a)
    return regularity_profile(S).smallest_regular_power[a]


def regular_power_value(S, a):
    """a^m for the smallest m making a^m regular."""
    return power_profile(S, a).value(smallest_regular_power(S, a))


@derived
def starred(S, kind):
    """Starred relation: compare smallest regular powers under Green's relation.

    a ~ b iff a^m and b^n are Green-related, where m and n are the least
    exponents with a^m and b^n regular; H* is the meet of L* and R*.
    """
    if kind not in GREEN_KINDS:
        raise ValueError(f"unknown starred relation {kind!r}")
    if kind == "H":
        return starred(S, "L").meet(starred(S, "R"))
    base = green(S, kind)
    return Partition(
        S.order, tuple(base.class_of[regular_power_value(S, a)] for a in S.elements())
    )


def is_rho_unique(S, partition, subset):
    """All members of subset fall in a single class of the partition."""
    if partition.n != S.order:
        raise ValueError("partition does not cover the carrier")
    members = list(S.subset(subset))
    for i in range(1, len(members)):
        if not partition.same(members[0], members[i]):
            return PredicateResult(
                False, counterexample={"pair": (members[0], members[i])}
            )
    return PredicateResult(True, witnesses=({"members": members},))
