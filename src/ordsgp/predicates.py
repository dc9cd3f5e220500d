"""Structure predicates, the equivalence-condition batteries, and the one
table of named readings.

``READINGS`` names every reading the suites use: each predicate of the
public vocabulary, each battery and lemma, and each second reading.
``read(S, name)`` is the one entry point and the one cache of a reading on
S; the functions behind the names do not cache themselves, and no function
calls another's vocabulary function directly, so a check on a substructure
(an absorbing search's kernel check) is read, and computed once per
substructure.  A two-reading battery is one builder of its (plain, other)
pair, and its two names index that build, so conditions shared by both
readings are computed once.

Every universally quantified condition goes through ``_forall``, the one
loop: it calls ``witness(*case)`` on each case, an argument tuple, in
input order, and collects the witnesses; at the first case whose witness
is None it stops and builds that case's counterexample, and no other.
``_forall_elements``, ``_forall_pairs`` and ``_idempotent_pairs`` walk
every a, every (a, b) and every pair (e, f) of ordered idempotents, with
the counterexample {"a"}, {"a", "b"} or {"e", "f"}; a condition whose
counterexample says more (the first failing power, say) passes its own
builder.  A witness is found by a nested search function that scans
exponents, smallest first, and returns the first witness found, or None.
The least mediator s of an inequality v <= s*w, v <= w*s or v <= u*s*w is
read from a least-solution table of ``relations``; a witness with two
mediators (s, t) scans s in ascending order and reads the least t for it.
So the witness carries the smallest satisfying exponent and the
lexicographically least mediators for it.  The order reaches this module
only through ``relations``, the down-set closures and the ideals: it names
no ``leq``.  Existential exponents are bounded through power profiles: the
power sequence of an element cycles, so its distinct values exhaust all
powers, and a power of a^m, such as a^2m = a^m*a^m or (ba)^(m+1) =
b(ab)^m a, is read from a^m, so its steps are those of a.  What several
conditions read of the table alone is memoised on it: the exponents and
the closed subsets that absorb a power of every element.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import product

from .congruences import classify_partition, semilattice_decomposition
from .core import (
    _MEMO_SIZE,
    PredicateResult,
    _as,
    _close,
    _exponents,
    _joint_powers,
    _prod,
    _sa,
    _sas,
    bits_iter,
    derived,
    restrict,
)
from .relations import (
    _factors,
    _inverse_masks,
    _middles,
    green,
    is_rho_unique,
    ordered_idempotents,
    regularity_profile,
    starred,
)

SUBSET_SEARCH_CAP = 12


def _forall(cases, witness, counterexample):
    """All witnesses ``witness(*case)`` over the argument tuples ``cases``,
    in input order, or ``counterexample(*case)`` of the first case whose
    witness is None."""
    wits = []
    for case in cases:
        wit = witness(*case)
        if wit is None:
            return PredicateResult(False, counterexample=counterexample(*case))
        wits.append(wit)
    return PredicateResult(True, tuple(wits))


def _case_a(a):
    return {"a": a}


def _case_ab(a, b):
    return {"a": a, "b": b}


def _case_ef(e, f):
    return {"e": e, "f": f}


def _forall_elements(S, witness, counterexample=_case_a):
    """_forall over every element a, with the witness ``witness(a)``."""
    return _forall(zip(S.elements()), witness, counterexample)


def _forall_pairs(S, witness):
    """_forall over every (a, b), with the witness ``witness(a, b)``."""
    return _forall(_pairs(S.order), witness, _case_ab)


def _idempotent_pairs(S, witness):
    """_forall over every pair (e, f) of ordered idempotents, with the
    witness ``witness(e, f)``."""
    return _forall(_pairs_of_idempotents(S), witness, _case_ef)


@lru_cache(maxsize=None)
def _pairs(n):
    """Every pair (a, b) of {0..n-1}, in lexicographic order."""
    return tuple(product(range(n), repeat=2))


@derived
def _pairs_of_idempotents(S):
    """Every pair (e, f) of ordered idempotents, in lexicographic order;
    cached on S."""
    return tuple(product(ordered_idempotents(S), repeat=2))


# -- structure-level predicates -------------------------------------------

def _p_regular(S):
    prof = regularity_profile(S)
    regular, xs = prof.regular, prof.witness
    return _forall_elements(S, lambda a: {"a": a, "x": xs[a]} if regular[a] else None)


def _p_completely_regular(S):
    xs = regularity_profile(S)._completely
    return _forall_elements(S, lambda a: None if xs[a] is None else {"a": a, "x": xs[a]})


def _p_intra_regular(S):
    found = regularity_profile(S)._intra

    def witness(a):
        return None if found[a] is None else {"a": a, "s": found[a][0], "t": found[a][1]}

    return _forall_elements(S, witness)


def _p_pi_regular(S):
    prof = regularity_profile(S)
    ms, xs = prof.smallest_regular_power, prof.witness
    return _forall_elements(S, lambda a: {"a": a, "m": ms[a], "x": xs[a]})


def _p_completely_pi_regular(S):
    table, exps, middles = S.table, _exponents(S.table), _middles(S)

    def witness(a):
        for m, u in exps[a]:
            w = table[u][u]  # a^2m
            x = middles[u][w][w]
            if x is not None:
                return {"a": a, "m": m, "x": x}
        return None

    return _forall_elements(S, witness)


def _pi_regular_side(S, side):
    """Some a^m <= s*a^2m (side "left") or a^m <= a^2m*s, with the least m
    and the least s for it."""
    table, exps, factors = S.table, _exponents(S.table), _factors(S, side)

    def witness(a):
        for m, u in exps[a]:
            s = factors[u][table[u][u]]
            if s is not None:
                return {"a": a, "m": m, "s": s}
        return None

    return _forall_elements(S, witness)


def _only_ideal_is_all(S, ideals):
    for a, bits in enumerate(ideals):
        if bits != S.full:
            return PredicateResult(
                False, counterexample={"a": a, "ideal": list(bits_iter(bits))}
            )
    return PredicateResult(True, ({"note": "every principal ideal is the whole carrier"},))


def _p_left_simple(S):
    return _only_ideal_is_all(S, _sa(S))


def _p_right_simple(S):
    return _only_ideal_is_all(S, _as(S))


def _p_simple(S):
    return _only_ideal_is_all(S, _sas(S))


def _archimedean_side(S, side):
    """Some a^n <= s*b (side "left") or a^n <= b*s, for every a and b, with
    the least n and the least s for it."""
    exps, factors = _exponents(S.table), _factors(S, side)

    def witness(a, b):
        for n, v in exps[a]:
            s = factors[v][b]
            if s is not None:
                return {"a": a, "b": b, "n": n, "s": s}
        return None

    return _forall_pairs(S, witness)


def _p_archimedean(S):
    table, exps, right = S.table, _exponents(S.table), _factors(S, "right")

    def witness(a, b):
        for n, v in exps[a]:
            for s, row in enumerate(table):
                t = right[v][row[b]]
                if t is not None:
                    return {"a": a, "b": b, "n": n, "s": s, "t": t}
        return None

    return _forall_pairs(S, witness)


def _p_weakly_commutative(S):
    table, exps, middles = S.table, _exponents(S.table), _middles(S)

    def witness(a, b):
        for n, v in exps[table[a][b]]:
            s = middles[v][b][a]
            if s is not None:
                return {"a": a, "b": b, "n": n, "s": s}
        return None

    return _forall_pairs(S, witness)


def _weakly_commutative_side(S, side):
    """Some (ab)^n <= s*a (side "left") or (ab)^n <= b*s, for every a and b,
    with the least n and the least s for it."""
    table, exps, factors = S.table, _exponents(S.table), _factors(S, side)

    def witness(a, b):
        w = a if side == "left" else b
        for n, v in exps[table[a][b]]:
            s = factors[v][w]
            if s is not None:
                return {"a": a, "b": b, "n": n, "s": s}
        return None

    return _forall_pairs(S, witness)


# -- subsemigroup and ideal searches --------------------------------------

def _subset_masks(n, base):
    """Every mask on n elements that contains ``base``, fewest elements
    first, then by value."""
    free = ((1 << n) - 1) & ~base
    subs = [free]  # every submask of free, descending
    while subs[-1]:
        subs.append((subs[-1] - 1) & free)
    return sorted([base | sub for sub in reversed(subs)], key=int.bit_count)


def _closed_under_product(table, bits):
    for a in bits_iter(bits):
        row = table[a]
        for b in bits_iter(bits):
            if not bits >> row[b] & 1:
                return False
    return True


def _nil_exponents(S, bits):
    """Smallest power of each element landing inside bits, as a tuple
    indexed by element, or None."""
    exps = []
    for powers in _exponents(S.table):
        for m, v in powers:
            if bits >> v & 1:
                exps.append(m)
                break
        else:
            return None
    return tuple(exps)


# Kernel tag -> the readings the absorbing subset must pass as an ordered
# semigroup in its own right, besides pi-regularity.
_KERNEL_CHECKS = {
    "left_simple": ("left-simple",),
    "right_simple": ("right-simple",),
    "t_simple": ("left-simple", "right-simple"),
    "simple": ("simple",),
}


def _is_ideal(S, bits):
    """bits is a downward-closed two-sided ideal."""
    return (
        _close(S, bits) == bits
        and not _prod(S, S.full, bits) & ~bits
        and not _prod(S, bits, S.full) & ~bits
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _closed_supersets(table):
    """Each product-closed mask of a table that absorbs a power of every
    element, fewest elements first, then by value.  A closed subset does so
    exactly when it holds every idempotent: an idempotent is its own only
    power, and the powers of a power of a include the idempotent power of
    a.  So only the supersets of E(S) are tested: 2^k masks for the k
    non-idempotent elements, the count that ``SUBSET_SEARCH_CAP`` bounds."""
    n = len(table)
    idempotents = sum(1 << a for a in range(n) if table[a][a] == a)
    if n - idempotents.bit_count() > SUBSET_SEARCH_CAP:
        raise ValueError(
            f"subset search capped at {SUBSET_SEARCH_CAP} non-idempotent elements"
        )
    return tuple(m for m in _subset_masks(n, idempotents) if _closed_under_product(table, m))


def _absorbing_search(S, masks, kernel_tag, label, **extra):
    """First of the closed absorbing ``masks`` whose subset passes the tag's
    simplicity checks as an ordered semigroup in its own right.  It is
    pi-regular as well, as every finite ordered semigroup is: some power of
    each element is idempotent, hence regular.  The subset is reported
    under ``label`` in the result data."""
    checks = _KERNEL_CHECKS[kernel_tag]
    for mask in masks:
        sub, elems = restrict(S, mask)
        if all(read(sub, name).holds for name in checks):
            exps = dict(enumerate(_nil_exponents(S, mask)))
            return PredicateResult(True, data={label: list(elems), "exponents": exps, **extra})
    return PredicateResult(False, counterexample={"searched_subsets": (1 << S.order) - 1})


def _t_simple_search(S, kernel_tag):
    return _absorbing_search(S, _closed_supersets(S.table), kernel_tag, "subsemigroup")


@derived
def nil_extension_search(S, kernel_tag):
    """First two-sided ideal K with the tagged property such that every
    element has a power inside K.  An ideal is closed under the product, as
    K*K lies in S*K, so the ideals are filtered from the closed subsets."""
    if not isinstance(kernel_tag, str) or kernel_tag not in _KERNEL_CHECKS:
        raise ValueError(f"unknown kernel tag {kernel_tag!r}")
    ideals = (m for m in _closed_supersets(S.table) if _is_ideal(S, m))
    return _absorbing_search(S, ideals, kernel_tag, "kernel", tag=kernel_tag)


# -- the eight-way battery for left pi-t-simple ---------------------------

def _conj(*parts):
    """All-of combination; keeps the first counterexample, tags its source."""
    flags, failed = {}, None
    for name, res in parts:
        flags[name] = res.holds
        if failed is None and not res.holds:
            failed = {"failed": name, **(res.counterexample or {})}
    if failed is None:
        return PredicateResult(True, ({"parts": list(flags)},), data=flags)
    return PredicateResult(False, counterexample=failed, data=flags)


def _one_lstar_class(S):
    return is_rho_unique(S, starred(S, "L"), S.subset(range(S.order)))


def lstar_unique_idempotent(S):
    """The ordered idempotents exist and all fall in one L*-class."""
    E = ordered_idempotents(S)
    if not E:
        return PredicateResult(False, counterexample={"no_ordered_idempotent": True})
    return is_rho_unique(S, starred(S, "L"), E)


def _thm2_c4(S):
    exps, middles = _exponents(S.table), _middles(S)

    def witness(a, b):
        for m, v in exps[a]:
            s = middles[v][v][b]
            if s is not None:
                return {"a": a, "b": b, "m": m, "s": s}
        return None

    return _forall_pairs(S, witness)


def _thm2_c5(S):
    exps = _exponents(S.table)
    powers = [sum(1 << w for _, w in exps[b]) for b in S.elements()]
    reach = [
        sum(1 << w for w, s in enumerate(rows[v]) if s is not None)
        for v, rows in enumerate(_middles(S))
    ]

    def witness(a, b):
        for m, v in exps[a]:
            if not powers[b] & ~reach[v]:
                return {"a": a, "b": b, "m": m}
        return None

    return _forall_pairs(S, witness)


def _thm2_c6(S):
    middles = _middles(S)

    def witness(a, b):
        for m, (u, w) in _joint_powers(S, (a, b)):
            s = middles[u][u][w]
            if s is not None:
                return {"a": a, "b": b, "m": m, "s": s}
        return None

    return _forall_pairs(S, witness)


def theorem2_conditions(S):
    """Battery of eight equivalent characterizations of a left pi-t-simple
    ordered semigroup (suite id ``thm2``), in source numbering."""
    pi_regular = ("pi_regular", read(S, "pi-regular"))
    return (
        read(S, "left-pi-t-simple"),
        _conj(pi_regular, ("lstar_unique_idempotent", read(S, "lstar-unique-idempotent"))),
        _conj(pi_regular, ("lstar_one_class", _one_lstar_class(S))),
        read(S, "thm2-c4"),
        _thm2_c5(S),
        _thm2_c6(S),
        _conj(pi_regular, ("left_archimedean", read(S, "left-archimedean"))),
        nil_extension_search(S, "left_simple"),
    )


def _thm2_all_hold(S):
    """Conjunction of all eight thm2 conditions, cheapest first."""
    return read(S, "thm2-c4").holds and all(r.holds for r in read(S, "thm2"))


# -- semilattice battery ----------------------------------------------------

def _thm4_c2(S):
    Ls = starred(S, "L")
    table = S.table
    for a in S.elements():
        for b in S.elements():
            if not Ls.same(table[a][b], table[b][a]):
                return PredicateResult(False, counterexample={"a": a, "b": b})
    return PredicateResult(True, ({"lstar_classes": Ls.to_lists()},))


def _thm4_c4(S):
    table, exps, middles = S.table, _exponents(S.table), _middles(S)

    def witness(a, b):
        row = table[b]
        for m, u in exps[table[a][b]]:
            s = middles[u][u][table[row[u]][a]]  # b(ab)^m a = (ba)^(m+1)
            if s is not None:
                return {"a": a, "b": b, "m": m, "s": s}
        return None

    return _forall_pairs(S, witness)


def _thm4_readings(S):
    """thm4 over all and over complete semilattice congruences: each
    decomposition search gives both readings, and (2)-(4) are shared."""
    c1 = semilattice_decomposition(S, _thm2_all_hold)
    pi_regular = read(S, "pi-regular")
    c2 = _conj(("pi_regular", pi_regular), ("ab_lstar_ba", _thm4_c2(S)))
    c3 = _conj(
        ("pi_regular", pi_regular),
        ("right_weakly_commutative", read(S, "right-weakly-commutative")),
    )
    c4 = _thm4_c4(S)
    c5 = semilattice_decomposition(
        S, lambda sub: nil_extension_search(sub, "left_simple").holds
    )
    return tuple((c1[i], c2, c3, c4, c5[i]) for i in (0, 1))


def theorem4_conditions(S):
    """Battery of five equivalent characterizations of a semilattice of left
    pi-t-simple ordered semigroups (suite id ``thm4``), in source numbering;
    the decomposition conditions range over all semilattice congruences."""
    return read(S, "thm4-readings")[0]


# -- right pi-inverse and its battery --------------------------------------

@derived
def _ideal_generators(S, side):
    """Per element v: the ordered idempotents generating (Sv] (side "left")
    or (vS], and whether they are R-unique (L-unique); cached on S."""
    ideals, rel = (_sa(S), green(S, "R")) if side == "left" else (_as(S), green(S, "L"))
    idempotents, cls = list(ordered_idempotents(S)), rel.class_of
    by_ideal = {}
    for ideal in ideals:
        if ideal not in by_ideal:
            gens = [e for e in idempotents if ideals[e] == ideal]
            by_ideal[ideal] = gens, len({cls[e] for e in gens}) == 1
    return [by_ideal[ideal] for ideal in ideals]


def _pi_inverse_side(S, side, all_powers=False):
    """For some power m of each element a or, with ``all_powers``, for every
    power whose ideal has generators at all, the generators of (Sa^m] (side
    "left") or (a^mS] are R-unique (L-unique).  The counterexample is the
    first power whose generators are not unique; when no power works, that
    is the first power with generators."""
    gens, exps = _ideal_generators(S, side), _exponents(S.table)

    def works(a):
        for m, v in exps[a]:
            generators, unique = gens[v]
            if unique:
                return {"a": a, "m": m, "generators": generators}
        return None

    def bad(a):
        for m, v in exps[a]:
            generators, unique = gens[v]
            if generators and not unique:
                return {"a": a, "m": m, "generators": generators}
        return None

    if not all_powers:
        return _forall_elements(S, works, bad)
    res = _forall_elements(S, lambda a: None if bad(a) else {"a": a}, bad)
    return PredicateResult(True, ({"reading": "all-powers"},)) if res.holds else res


@derived
def _unrelated_inverses(S, kind):
    """Per element v: its ordered inverses, and the first pair of them, led
    by the least, that Green's relation ``kind`` does not relate (or None);
    cached on S."""
    rel = green(S, kind)
    out = []
    for mask in _inverse_masks(S):
        inv = list(bits_iter(mask))
        bad = next(((inv[0], y) for y in inv[1:] if not rel.same(inv[0], y)), None)
        out.append((inv, bad))
    return out


def _p_pi_inverse(S):
    # when no power works, the first offending power is m = 1
    inverses, exps = _unrelated_inverses(S, "H"), _exponents(S.table)

    def witness(a):
        for m, v in exps[a]:
            if inverses[v][1] is None:
                return {"a": a, "m": m, "inverses": inverses[v][0]}
        return None

    return _forall_elements(S, witness, lambda a: {"a": a, "m": 1, "pair": inverses[a][1]})


def _thm5_c2(S, all_powers=False):
    """The ordered inverses of a^m are R-related for some m or, with
    ``all_powers``, for every m.  The counterexample is the first m whose
    inverses are not; when no m works, that is m = 1."""
    pair = [p for _, p in _unrelated_inverses(S, "R")]
    exps = _exponents(S.table)

    def bad(a):
        for m, v in exps[a]:
            if pair[v]:
                return {"a": a, "m": m, "pair": pair[v]}
        return None

    def works(a):
        for m, v in exps[a]:
            if pair[v] is None:
                return {"a": a, "m": m}
        return None

    if all_powers:
        return _forall_elements(S, lambda a: None if bad(a) else {"a": a}, bad)
    return _forall_elements(S, works, lambda a: {"a": a, "m": 1, "pair": pair[a]})


def _thm5_c3(S):
    table, exps, middles = S.table, _exponents(S.table), _middles(S)

    def witness(e, f):
        for n, v in exps[table[e][f]]:
            s = middles[v][f][f]
            if s is not None:
                return {"e": e, "f": f, "n": n, "s": s}
        return None

    return _idempotent_pairs(S, witness)


def _thm5_c4(S):
    right, exps = _as(S), _exponents(S.table)

    def witness(e, f):
        for n, v in exps[S.table[e][f]]:
            if not right[v] & ~(right[e] & right[f]):
                return {"e": e, "f": f, "n": n}
        return None

    return _idempotent_pairs(S, witness)


def _es_offence(se, es, inverses, values):
    """First (x, y) with values[x] in the mask se, of (Se], and y an ordered
    inverse of values[x], read from ``inverses``, outside the mask es, of
    (eS]; or None."""
    for x, v in enumerate(values):
        if se >> v & 1:
            bad = inverses[v] & ~es
            if bad:
                return x, (bad & -bad).bit_length() - 1
    return None


def _thm5_c5(S):
    """For every ordered idempotent e, the ordered inverses of each x^m in
    (Se] lie in (eS], with one exponent m shared by all x: the pair of
    readings "for some m" and "for every m", from one scan of each e's
    offences.  The counterexample is the first m that fails; when no m
    works, that is m = 1."""
    steps = list(_joint_powers(S, S.elements()))
    left, right, inverses = _sa(S), _as(S), _inverse_masks(S)
    scans = []  # (e, first failing m's offence, first working m) per e
    for e in ordered_idempotents(S):
        bad = works = None
        for m, values in steps:
            off = _es_offence(left[e], right[e], inverses, values)
            if off is None:
                works = works or {"e": e, "m": m}
            else:
                bad = bad or {"e": e, "m": m, "x": off[0], "inverse": off[1]}
            if bad and works:
                break
        scans.append((e, bad, works))
        if works is None:
            break  # both readings fail by this e

    def some(e, bad, works):
        return works

    def every(e, bad, works):
        return None if bad else {"e": e}

    def offence(e, bad, works):
        return bad

    return _forall(scans, some, offence), _forall(scans, every, offence)


def _thm5_readings(S):
    """thm5 with "some power works" and with the stricter "every power
    works" in (2) and (5); (1), (3) and (4) are shared."""
    c1, c3, c4 = read(S, "right-pi-inverse"), _thm5_c3(S), _thm5_c4(S)
    return tuple(
        (c1, _thm5_c2(S, every), c3, c4, c5)
        for every, c5 in zip((False, True), _thm5_c5(S))
    )


def theorem5_conditions(S):
    """Battery of five equivalent characterizations of a right pi-inverse
    ordered semigroup (suite id ``thm5``), in source numbering, with the
    "some power works" reading of conditions (2) and (5)."""
    return read(S, "thm5-readings")[0]


def theorem6_condition(S):
    """L*-related ordered idempotents are R*-related (suite id ``thm6``)."""
    Ls, Rs = starred(S, "L"), starred(S, "R")
    E = list(ordered_idempotents(S))
    for e in E:
        for f in E:
            if Ls.same(e, f) and not Rs.same(e, f):
                return PredicateResult(False, counterexample={"e": e, "f": f})
    return PredicateResult(True, ({"idempotents": E},))


# -- regular-case battery ---------------------------------------------------

def _thm51_c1(S):
    """m = 1 restriction of the right pi-inverse definition."""
    gens = _ideal_generators(S, "left")

    def case(a):
        return {"a": a, "generators": gens[a][0]}

    return _forall_elements(S, lambda a: case(a) if gens[a][1] else None, case)


def _thm51_c2(S):
    unrelated = _unrelated_inverses(S, "R")

    def witness(a):
        inverses, pair = unrelated[a]
        return None if pair else {"a": a, "inverses": inverses}

    return _forall_elements(S, witness, lambda a: {"a": a, "pair": unrelated[a][1]})


def _thm51_c3(S):
    table, middles = S.table, _middles(S)

    def witness(e, f):
        least = middles[table[e][f]]
        for s, fs in enumerate(table[f]):
            t = least[table[fs][e]][f]
            if t is not None:
                return {"e": e, "f": f, "s": s, "t": t}
        return None

    return _idempotent_pairs(S, witness)


def _thm51_c4(S):
    table, right = S.table, _as(S)
    E = list(ordered_idempotents(S))
    for e in E:
        for f in E:
            lhs = right[e] & right[f]
            rhs = right[table[e][f]]
            if lhs != rhs:
                return PredicateResult(
                    False,
                    counterexample={
                        "e": e,
                        "f": f,
                        "intersection": list(bits_iter(lhs)),
                        "product_ideal": list(bits_iter(rhs)),
                    },
                )
    return PredicateResult(True, ({"idempotents": E},))


def _thm51_c5(S):
    left, right, inverses = _sa(S), _as(S), _inverse_masks(S)

    def offence(e):
        return _es_offence(left[e], right[e], inverses, S.elements())

    def counterexample(e):
        x, inverse = offence(e)
        return {"e": e, "x": x, "inverse": inverse}

    return _forall(
        zip(ordered_idempotents(S)),
        lambda e: None if offence(e) else {"e": e},
        counterexample,
    )


def theorem51_conditions(S):
    """Five-way battery for right inverse regular ordered semigroups
    (suite id ``thm51``); meaningful under the regularity hypothesis."""
    return (_thm51_c1(S), _thm51_c2(S), _thm51_c3(S), _thm51_c4(S), _thm51_c5(S))


# -- the thm8 family: starred congruences and right pi-t-simple classes -----

def _star_readings(S, star, c2, name, data=None):
    """Plain and complete batteries of the thm8 family on the partition
    ``star``: (1) it is a congruence, (2) ``c2``, (3) S is a semilattice of
    ordered semigroups meeting ``name``, over all or over complete semilattice
    congruences, from one search, and (4) it is a semilattice congruence."""
    cert = classify_partition(S, star)
    gaps = cert.counterexamples
    sl_ok = cert.is_semilattice_congruence()
    c1 = PredicateResult(cert.is_congruence, counterexample=gaps.get("congruence"), data=data)
    c4 = PredicateResult(
        sl_ok,
        counterexample=None if sl_ok else gaps.get("congruence") or gaps["semilattice"],
        data=data,
    )
    readings = semilattice_decomposition(S, lambda sub: read(sub, name).holds)
    return tuple((c1, c2, c3, c4) for c3 in readings)


def _thm8_readings(S):
    """Plain and complete thm8 batteries."""
    Ls, Rs = starred(S, "L"), starred(S, "R")
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
    return _star_readings(S, Rs, c2, "right-pi-t-simple", {"classes": Rs.to_lists()})


def theorem8_conditions(S):
    """Four-way battery for semilattices of right pi-t-simple ordered
    semigroups (suite id ``thm8``); meaningful under the right pi-inverse
    hypothesis."""
    return read(S, "thm8-readings")[0]


def _cor_hstar_readings(S):
    """Plain and complete cor-hstar batteries."""
    Ls, Rs, Hs = starred(S, "L"), starred(S, "R"), starred(S, "H")
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
    return _star_readings(S, Hs, c2, "pi-t-simple")


def cor_hstar_conditions(S):
    """H*-flavoured variant of the thm8 battery (suite id ``cor-hstar``);
    meaningful under the pi-inverse hypothesis.

    As encoded here, ``pi-inverse`` says that every a has a power a^m whose
    ordered inverses all lie in one H-class.  H* relates a and b when their
    least regular powers are H-related.  The conditions are:
    (1) H* is a congruence; (2) L* = R* = H*; (3) S is a semilattice of
    pi-t-simple ordered semigroups, over all semilattice congruences (the
    ``cor-hstar-complete`` reading: over complete ones); (4) H* is a
    semilattice congruence.  This is thm8 with H* for R* and pi-t-simple
    for right pi-t-simple.  The encoding could not be checked against the
    paper's statement of the corollary, whose full text is not at hand.

    Evidence: on the Brandt semigroup B2, under the discrete order and
    under 0 least, pi-inverse holds and the vector is TFFF, a DISCREPANCY.
    ``starred`` compares least regular powers, so on a regular structure
    such as B2 H* is H; B2 is combinatorial, so H is equality, and (1)
    holds with no further check.  Conditions (2)-(4) fail: L* has classes
    {0}, {1,3}, {2,4} and R* has {0}, {1,2}, {3,4}.  On B2, ``thm8`` and
    ``cor-cpr`` give FFFF.  The 8 discrepancies of the discrete order-6
    tables all reduce to B2: 7 hold B2 as a subsemigroup, and the Rees
    quotient of n6:000333010335002343333000343002335010 (discrete order)
    by its ideal {0, 3} is B2."""
    return read(S, "cor-hstar-readings")[0]


def cor_cpr_conditions(S):
    """Completely pi-regular variant (suite id ``cor-cpr``); meaningful when
    S is right pi-inverse and left pi-regular."""
    c1, c2, c3, _ = read(S, "thm8")
    c4 = _conj(
        ("completely_pi_regular", read(S, "completely-pi-regular")),
        ("left_weakly_commutative", read(S, "left-weakly-commutative")),
    )
    return (c1, c2, c3, c4)


# -- lemma-level predicates -------------------------------------------------

def lemma3_predicate(S):
    """For every a some (Sa^m] is generated by an ordered idempotent, the
    least one reported."""
    gens, exps = _ideal_generators(S, "left"), _exponents(S.table)

    def witness(a):
        for m, v in exps[a]:
            if gens[v][0]:
                return {"a": a, "m": m, "e": gens[v][0][0]}
        return None

    return _forall_elements(S, witness)


def lemma7_predicate(S):
    """L*-related elements have all products inverse*power R*-related."""
    Ls, Rs = starred(S, "L"), starred(S, "R")
    table, regular = S.table, regularity_profile(S)._values
    inverses = _inverse_masks(S)
    checked = 0
    for a in S.elements():
        for b in S.elements():
            if not Ls.same(a, b):
                continue
            u, w = regular[a], regular[b]
            for a1 in bits_iter(inverses[u]):
                for b1 in bits_iter(inverses[w]):
                    if not Rs.same(table[a1][u], table[b1][w]):
                        return PredicateResult(
                            False,
                            counterexample={
                                "a": a,
                                "b": b,
                                "a_inverse": a1,
                                "b_inverse": b1,
                            },
                        )
                    checked += 1
    return PredicateResult(True, ({"pairs_checked": checked},))


# -- public vocabulary ------------------------------------------------------

PREDICATES = {
    "regular": _p_regular,
    "completely-regular": _p_completely_regular,
    "intra-regular": _p_intra_regular,
    "pi-regular": _p_pi_regular,
    "completely-pi-regular": _p_completely_pi_regular,
    "left-pi-regular": lambda S: _pi_regular_side(S, "left"),
    "right-pi-regular": lambda S: _pi_regular_side(S, "right"),
    "left-simple": _p_left_simple,
    "right-simple": _p_right_simple,
    "simple": _p_simple,
    # a side names where the least factor s stands: right weak
    # commutativity is (ab)^n <= s*a, left weak commutativity (ab)^n <= b*s
    "left-archimedean": lambda S: _archimedean_side(S, "left"),
    "right-archimedean": lambda S: _archimedean_side(S, "right"),
    "archimedean": _p_archimedean,
    "left-weakly-commutative": lambda S: _weakly_commutative_side(S, "right"),
    "right-weakly-commutative": lambda S: _weakly_commutative_side(S, "left"),
    "weakly-commutative": _p_weakly_commutative,
    # some left simple (right simple; left and right simple) pi-regular
    # subsemigroup absorbs a power of every element
    "left-pi-t-simple": lambda S: _t_simple_search(S, "left_simple"),
    "right-pi-t-simple": lambda S: _t_simple_search(S, "right_simple"),
    "pi-t-simple": lambda S: _t_simple_search(S, "t_simple"),
    # some (Sa^m] ((a^mS]) is generated by R-unique (L-unique) ordered
    # idempotents; some a^m has all its ordered inverses H-related
    "right-pi-inverse": lambda S: _pi_inverse_side(S, "left"),
    "left-pi-inverse": lambda S: _pi_inverse_side(S, "right"),
    "pi-inverse": _p_pi_inverse,
}

PREDICATE_NAMES = tuple(sorted(PREDICATES))

# A battery returns a tuple of results in source numbering, the others one
# result.  The (plain, other) build of a two-reading battery is read under
# "<battery>-readings".
READINGS = {
    **PREDICATES,
    "lstar-unique-idempotent": lstar_unique_idempotent,
    "lemma3": lemma3_predicate,
    "lemma7": lemma7_predicate,
    "thm2": theorem2_conditions,
    "thm2-c4": _thm2_c4,
    "thm4-readings": _thm4_readings,
    "thm4": theorem4_conditions,
    "thm4-complete": lambda S: read(S, "thm4-readings")[1],
    "thm5-readings": _thm5_readings,
    "thm5": theorem5_conditions,
    "thm5-all-powers": lambda S: read(S, "thm5-readings")[1],
    "thm6": theorem6_condition,
    "thm8-readings": _thm8_readings,
    "thm8": theorem8_conditions,
    "thm8-complete": lambda S: read(S, "thm8-readings")[1],
    "thm51": theorem51_conditions,
    # Corollary 1 restates thm2 conditions 8, 5, 4, 6, 7 in its own order.
    "cor1": lambda S: tuple(read(S, "thm2")[i - 1] for i in (8, 5, 4, 6, 7)),
    "cor-hstar-readings": _cor_hstar_readings,
    "cor-hstar": cor_hstar_conditions,
    "cor-hstar-complete": lambda S: read(S, "cor-hstar-readings")[1],
    "cor-cpr": cor_cpr_conditions,
    "right-pi-inverse-all-powers": lambda S: _pi_inverse_side(S, "left", all_powers=True),
}


@derived
def read(S, name):
    """The reading ``name`` of ``READINGS`` on S, computed once and cached
    on S."""
    if not isinstance(name, str) or name not in READINGS:
        raise ValueError(f"unknown reading name {name!r}")
    return READINGS[name](S)


def _predicate_key(name):
    """The one check of a predicate name: the key in ``PREDICATES`` of
    ``name``, a snake_case name read as its kebab-case form."""
    key = name.replace("_", "-") if isinstance(name, str) else None
    if key not in PREDICATES:
        raise ValueError(f"unknown predicate name {name!r}")
    return key


def named_predicate(S, name):
    """Evaluate any predicate from the public kebab-case vocabulary (a
    snake_case name is read as its kebab-case form); cached on S."""
    return read(S, _predicate_key(name))
