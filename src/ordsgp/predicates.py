"""Structure predicates and the equivalence-condition batteries.

Every predicate decides a universally quantified condition whose
existential exponents are bounded through power profiles (the power
sequence of an element cycles, so its distinct values exhaust all powers).
Results carry witnesses with the smallest satisfying exponent and the
lexicographically least mediating elements, or the first counterexample
in input order.
"""

from __future__ import annotations

from .core import (
    PredicateResult,
    _as,
    _close,
    _prod,
    _sa,
    _sas,
    bits_iter,
    joint_power_exponents,
    power_profile,
    restrict,
)
from .relations import (
    _inverses_bits,
    _regular_value,
    green,
    is_rho_unique,
    ordered_idempotents,
    smallest_regular_power,
    starred,
)

SUBSET_SEARCH_CAP = 12


# -- structure-level predicates -------------------------------------------

def _p_regular(S):
    wits = []
    for a in S.elements():
        x = _regular_value(S, a)
        if x is None:
            return PredicateResult(False, counterexample={"a": a})
        wits.append({"a": a, "x": x})
    return PredicateResult(True, tuple(wits))


def _p_completely_regular(S):
    table = S.table
    wits = []
    for a in S.elements():
        a2 = table[a][a]
        for x in S.elements():
            if S.leq[a][table[table[a2][x]][a2]]:
                wits.append({"a": a, "x": x})
                break
        else:
            return PredicateResult(False, counterexample={"a": a})
    return PredicateResult(True, tuple(wits))


def _p_intra_regular(S):
    table = S.table
    wits = []
    for a in S.elements():
        a2 = table[a][a]
        hit = next(
            (
                (s, t)
                for s in S.elements()
                for t in S.elements()
                if S.leq[a][table[table[s][a2]][t]]
            ),
            None,
        )
        if hit is None:
            return PredicateResult(False, counterexample={"a": a})
        wits.append({"a": a, "s": hit[0], "t": hit[1]})
    return PredicateResult(True, tuple(wits))


def _p_pi_regular(S):
    wits = []
    for a in S.elements():
        for m, v in power_profile(S, a).exponents():
            x = _regular_value(S, v)
            if x is not None:
                wits.append({"a": a, "m": m, "x": x})
                break
        else:
            return PredicateResult(False, counterexample={"a": a})
    return PredicateResult(True, tuple(wits))


def _shared_power_search(S, a, check):
    """First (m, witness) with check(a^m, a^2m) truthy, scanning one cycle."""
    for m, (u, w) in joint_power_exponents(S, ((a, 1, 0), (a, 2, 0))):
        hit = check(u, w)
        if hit is not None:
            return m, hit
    return None


def _p_completely_pi_regular(S):
    table = S.table
    wits = []
    for a in S.elements():
        found = _shared_power_search(
            S,
            a,
            lambda u, w: next(
                (x for x in S.elements() if S.leq[u][table[table[w][x]][w]]), None
            ),
        )
        if found is None:
            return PredicateResult(False, counterexample={"a": a})
        wits.append({"a": a, "m": found[0], "x": found[1]})
    return PredicateResult(True, tuple(wits))


def _p_left_pi_regular(S):
    table = S.table
    wits = []
    for a in S.elements():
        found = _shared_power_search(
            S, a, lambda u, w: next((s for s in S.elements() if S.leq[u][table[s][w]]), None)
        )
        if found is None:
            return PredicateResult(False, counterexample={"a": a})
        wits.append({"a": a, "m": found[0], "s": found[1]})
    return PredicateResult(True, tuple(wits))


def _p_right_pi_regular(S):
    table = S.table
    wits = []
    for a in S.elements():
        found = _shared_power_search(
            S, a, lambda u, w: next((s for s in S.elements() if S.leq[u][table[w][s]]), None)
        )
        if found is None:
            return PredicateResult(False, counterexample={"a": a})
        wits.append({"a": a, "m": found[0], "s": found[1]})
    return PredicateResult(True, tuple(wits))


def _only_ideal_is_all(S, ideal_of):
    for a in S.elements():
        bits = ideal_of(S, a)
        if bits != S.full:
            return PredicateResult(
                False, counterexample={"a": a, "ideal": list(bits_iter(bits))}
            )
    return PredicateResult(True, ({"note": "every principal ideal is the whole carrier"},))


def _p_left_simple(S):
    return _only_ideal_is_all(S, _sa)


def _p_right_simple(S):
    return _only_ideal_is_all(S, _as)


def _p_simple(S):
    return _only_ideal_is_all(S, _sas)


def _power_pair_search(S, base, check):
    """Smallest (n, witness) with check(base^n) truthy over distinct powers."""
    for n, v in power_profile(S, base).exponents():
        hit = check(v)
        if hit is not None:
            return n, hit
    return None


def _archimedean_family(target_of):
    def pred(S):
        table = S.table
        wits = []
        for a in S.elements():
            for b in S.elements():
                found = _power_pair_search(S, a, lambda v: target_of(S, table, v, b))
                if found is None:
                    return PredicateResult(False, counterexample={"a": a, "b": b})
                n, hit = found
                wits.append({"a": a, "b": b, "n": n, **hit})
        return PredicateResult(True, tuple(wits))

    return pred


_p_left_archimedean = _archimedean_family(
    lambda S, table, v, b: next(
        ({"s": s} for s in S.elements() if S.leq[v][table[s][b]]), None
    )
)
_p_right_archimedean = _archimedean_family(
    lambda S, table, v, b: next(
        ({"s": s} for s in S.elements() if S.leq[v][table[b][s]]), None
    )
)
_p_archimedean = _archimedean_family(
    lambda S, table, v, b: next(
        (
            {"s": s, "t": t}
            for s in S.elements()
            for t in S.elements()
            if S.leq[v][table[table[s][b]][t]]
        ),
        None,
    )
)


def _weakly_commutative_family(target_of):
    def pred(S):
        table = S.table
        wits = []
        for a in S.elements():
            for b in S.elements():
                ab = table[a][b]
                found = _power_pair_search(S, ab, lambda v: target_of(S, table, v, a, b))
                if found is None:
                    return PredicateResult(False, counterexample={"a": a, "b": b})
                n, hit = found
                wits.append({"a": a, "b": b, "n": n, **hit})
        return PredicateResult(True, tuple(wits))

    return pred


_p_weakly_commutative = _weakly_commutative_family(
    lambda S, table, v, a, b: next(
        ({"s": s} for s in S.elements() if S.leq[v][table[table[b][s]][a]]), None
    )
)
_p_right_weakly_commutative = _weakly_commutative_family(
    lambda S, table, v, a, b: next(
        ({"s": s} for s in S.elements() if S.leq[v][table[s][a]]), None
    )
)
_p_left_weakly_commutative = _weakly_commutative_family(
    lambda S, table, v, a, b: next(
        ({"s": s} for s in S.elements() if S.leq[v][table[b][s]]), None
    )
)


# -- subsemigroup and ideal searches --------------------------------------

def _subset_masks(n):
    return sorted(range(1, 1 << n), key=lambda m: (m.bit_count(), m))


def _closed_under_product(S, bits):
    for a in bits_iter(bits):
        row = S.table[a]
        for b in bits_iter(bits):
            if not bits >> row[b] & 1:
                return False
    return True


def _nil_exponents(S, bits):
    """Smallest power of each element landing inside bits, or None."""
    exps = {}
    for a in S.elements():
        for m, v in power_profile(S, a).exponents():
            if bits >> v & 1:
                exps[a] = m
                break
        else:
            return None
    return exps


# Kernel tag -> simplicity checks the absorbing subset must pass as an
# ordered semigroup in its own right, besides pi-regularity.
_KERNEL_CHECKS = {
    "left_simple": (_p_left_simple,),
    "right_simple": (_p_right_simple,),
    "t_simple": (_p_left_simple, _p_right_simple),
    "simple": (_p_simple,),
}


def _is_ideal(S, bits):
    """bits is a downward-closed two-sided ideal."""
    return (
        _close(S, bits) == bits
        and not _prod(S, S.full, bits) & ~bits
        and not _prod(S, bits, S.full) & ~bits
    )


def _absorbing_search(S, candidate, kernel_tag, label, **extra):
    """First subset, fewest elements first, that passes ``candidate``,
    absorbs a power of every element, and is pi-regular and passes the
    tag's simplicity checks as an ordered semigroup in its own right.  The
    subset is reported under ``label`` in the result data."""
    if S.order > SUBSET_SEARCH_CAP:
        raise ValueError(f"subset search capped at {SUBSET_SEARCH_CAP} elements")
    checks = _KERNEL_CHECKS[kernel_tag]
    for mask in _subset_masks(S.order):
        if not candidate(S, mask):
            continue
        exps = _nil_exponents(S, mask)
        if exps is None:
            continue
        sub, elems = restrict(S, mask)
        if all(check(sub).holds for check in checks) and _p_pi_regular(sub).holds:
            return PredicateResult(
                True, data={label: list(elems), "exponents": exps, **extra}
            )
    return PredicateResult(
        False, counterexample={"searched_subsets": (1 << S.order) - 1}
    )


def _t_simple_search(S, kernel_tag):
    return _absorbing_search(S, _closed_under_product, kernel_tag, "subsemigroup")


def left_pi_t_simple_direct(S):
    """Direct definition: some left simple, pi-regular subsemigroup absorbs
    a power of every element."""
    return S.cached(("t-simple", "left"), lambda: _t_simple_search(S, "left_simple"))


def right_pi_t_simple_direct(S):
    """Mirror of :func:`left_pi_t_simple_direct` with a right simple kernel."""
    return S.cached(("t-simple", "right"), lambda: _t_simple_search(S, "right_simple"))


def pi_t_simple_direct(S):
    """Two-sided variant: the absorbing subsemigroup is left and right simple."""
    return S.cached(("t-simple", "both"), lambda: _t_simple_search(S, "t_simple"))


def nil_extension_search(S, kernel_tag):
    """First two-sided ideal K with the tagged property (and pi-regularity)
    such that every element has a power inside K."""
    if kernel_tag not in _KERNEL_CHECKS:
        raise ValueError(f"unknown kernel tag {kernel_tag!r}")
    return S.cached(
        ("nilext", kernel_tag),
        lambda: _absorbing_search(S, _is_ideal, kernel_tag, "kernel", tag=kernel_tag),
    )


# -- the eight-way battery for left pi-t-simple ---------------------------

def _conj(*parts):
    """All-of combination; keeps the first counterexample, tags its source."""
    names = [name for name, _ in parts]
    flags = {}
    for name, res in parts:
        flags[name] = res.holds
    for name, res in parts:
        if not res.holds:
            return PredicateResult(
                False,
                counterexample={"failed": name, **(res.counterexample or {})},
                data=flags,
            )
    return PredicateResult(True, ({"parts": names},), data=flags)


def _one_lstar_class(S):
    return is_rho_unique(S, starred(S, "L"), S.subset(range(S.order)))


def lstar_unique_idempotent(S):
    """The ordered idempotents exist and all fall in one L*-class."""
    def build():
        E = ordered_idempotents(S)
        if not E:
            return PredicateResult(False, counterexample={"no_ordered_idempotent": True})
        return is_rho_unique(S, starred(S, "L"), E)

    return S.cached(("lstar-unique-E",), build)


def _c2_power_search(S, a, b, check):
    wits = None
    for m, v in power_profile(S, a).exponents():
        hit = check(v)
        if hit is not None:
            wits = {"a": a, "b": b, "m": m, **hit}
            break
    return wits


def _thm2_c4(S):
    table = S.table
    wits = []
    for a in S.elements():
        for b in S.elements():
            wit = _c2_power_search(
                S,
                a,
                b,
                lambda v: next(
                    ({"s": s} for s in S.elements() if S.leq[v][table[table[v][s]][b]]),
                    None,
                ),
            )
            if wit is None:
                return PredicateResult(False, counterexample={"a": a, "b": b})
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def _thm2_c5(S):
    table = S.table
    wits = []
    for a in S.elements():
        for b in S.elements():
            b_powers = power_profile(S, b).powers

            def all_n(v):
                for w in b_powers:
                    if not any(
                        S.leq[v][table[table[v][s]][w]] for s in S.elements()
                    ):
                        return None
                return {}

            wit = _c2_power_search(S, a, b, all_n)
            if wit is None:
                return PredicateResult(False, counterexample={"a": a, "b": b})
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def _thm2_c6(S):
    table = S.table
    wits = []
    for a in S.elements():
        for b in S.elements():
            wit = None
            for m, (u, w) in joint_power_exponents(S, ((a, 1, 0), (b, 1, 0))):
                s = next(
                    (s for s in S.elements() if S.leq[u][table[table[u][s]][w]]), None
                )
                if s is not None:
                    wit = {"a": a, "b": b, "m": m, "s": s}
                    break
            if wit is None:
                return PredicateResult(False, counterexample={"a": a, "b": b})
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def theorem2_conditions(S):
    """Battery of eight equivalent characterizations of a left pi-t-simple
    ordered semigroup (suite id ``thm2``), in source numbering."""
    def build():
        return (
            left_pi_t_simple_direct(S),
            _conj(
                ("pi_regular", named_predicate(S, "pi-regular")),
                ("lstar_unique_idempotent", lstar_unique_idempotent(S)),
            ),
            _conj(
                ("pi_regular", named_predicate(S, "pi-regular")),
                ("lstar_one_class", _one_lstar_class(S)),
            ),
            _thm2_c4(S),
            _thm2_c5(S),
            _thm2_c6(S),
            _conj(
                ("pi_regular", named_predicate(S, "pi-regular")),
                ("left_archimedean", named_predicate(S, "left-archimedean")),
            ),
            nil_extension_search(S, "left_simple"),
        )

    return S.cached(("thm2",), build)


def _thm2_all_hold(S):
    """Conjunction of all eight thm2 conditions, cheapest first."""
    if not _thm2_c4(S).holds:
        return False
    return all(r.holds for r in theorem2_conditions(S))


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
    table = S.table
    wits = []
    for a in S.elements():
        for b in S.elements():
            ab, ba = table[a][b], table[b][a]
            wit = None
            for m, (u, w) in joint_power_exponents(S, ((ab, 1, 0), (ba, 1, 1))):
                s = next(
                    (s for s in S.elements() if S.leq[u][table[table[u][s]][w]]), None
                )
                if s is not None:
                    wit = {"a": a, "b": b, "m": m, "s": s}
                    break
            if wit is None:
                return PredicateResult(False, counterexample={"a": a, "b": b})
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def theorem4_conditions(S, complete_only=False):
    """Battery of five equivalent characterizations of a semilattice of left
    pi-t-simple ordered semigroups (suite id ``thm4``), in source numbering.

    ``complete_only`` switches the two decomposition conditions to complete
    semilattice congruences; the default follows the plain reading.
    """
    from .congruences import semilattice_decomposition

    def build():
        c1 = semilattice_decomposition(
            S,
            _thm2_all_hold,
            cache_key="left-pi-t-simple-battery",
            complete_only=complete_only,
        )
        c2 = _conj(
            ("pi_regular", named_predicate(S, "pi-regular")),
            ("ab_lstar_ba", _thm4_c2(S)),
        )
        c3 = _conj(
            ("pi_regular", named_predicate(S, "pi-regular")),
            ("right_weakly_commutative", named_predicate(S, "right-weakly-commutative")),
        )
        c4 = _thm4_c4(S)
        c5 = semilattice_decomposition(
            S,
            lambda sub: nil_extension_search(sub, "left_simple").holds,
            cache_key="nil-ext-left-simple",
            complete_only=complete_only,
        )
        return (c1, c2, c3, c4, c5)

    return S.cached(("thm4", complete_only), build)


# -- right pi-inverse and its battery --------------------------------------

def _ideal_generators(S, ideal_bits, side):
    """Ordered idempotents generating the given principal ideal."""
    gen_ideal = _sa if side == "left" else _as
    return [e for e in bits_iter(ordered_idempotents(S).bits) if gen_ideal(S, e) == ideal_bits]


def _pi_inverse_side(S, side):
    """Every (Sa^m] (or (a^mS]) is generated by an R-unique (L-unique)
    ordered idempotent, for a suitable power m per element."""
    ideal_of = _sa if side == "left" else _as
    rel = green(S, "R" if side == "left" else "L")
    wits = []
    for a in S.elements():
        first_nonempty = None
        wit = None
        for m, v in power_profile(S, a).exponents():
            gens = _ideal_generators(S, ideal_of(S, v), side)
            if gens and first_nonempty is None:
                first_nonempty = (m, gens)
            if gens and all(rel.same(gens[0], e) for e in gens[1:]):
                wit = {"a": a, "m": m, "generators": gens}
                break
        if wit is None:
            m, gens = first_nonempty
            return PredicateResult(
                False, counterexample={"a": a, "m": m, "generators": gens}
            )
        wits.append(wit)
    return PredicateResult(True, tuple(wits))


def right_pi_inverse_def(S):
    """Definition: some (Sa^m] is generated by an R-unique ordered idempotent."""
    return S.cached(("pi-inverse", "right"), lambda: _pi_inverse_side(S, "left"))


def left_pi_inverse_def(S):
    """Mirror definition with right ideals (a^mS] and L-uniqueness."""
    return S.cached(("pi-inverse", "left"), lambda: _pi_inverse_side(S, "right"))


def _pi_inverse_side_all_powers(S, side):
    """Stricter reading: generator sets of every power's ideal, when
    nonempty, must already be relation-unique."""
    ideal_of = _sa if side == "left" else _as
    rel = green(S, "R" if side == "left" else "L")
    for a in S.elements():
        for m, v in power_profile(S, a).exponents():
            gens = _ideal_generators(S, ideal_of(S, v), side)
            if gens and not all(rel.same(gens[0], e) for e in gens[1:]):
                return PredicateResult(
                    False, counterexample={"a": a, "m": m, "generators": gens}
                )
    return PredicateResult(True, ({"reading": "all-powers"},))


def pi_inverse_def(S):
    """Some power of each element has all its ordered inverses H-related."""
    def build():
        H = green(S, "H")
        wits = []
        for a in S.elements():
            wit = None
            first_bad = None
            for m, v in power_profile(S, a).exponents():
                members = list(bits_iter(_inverses_bits(S, v)))
                bad = next(
                    (
                        (members[0], y)
                        for y in members[1:]
                        if not H.same(members[0], y)
                    ),
                    None,
                )
                if bad is None:
                    wit = {"a": a, "m": m, "inverses": members}
                    break
                if first_bad is None:
                    first_bad = {"a": a, "m": m, "pair": bad}
            if wit is None:
                return PredicateResult(False, counterexample=first_bad)
            wits.append(wit)
        return PredicateResult(True, tuple(wits))

    return S.cached(("pi-inverse", "both"), build)


def _thm5_c2(S, all_powers=False):
    R = green(S, "R")

    def bad_pair(v):
        members = list(bits_iter(_inverses_bits(S, v)))
        return next(
            ((members[0], y) for y in members[1:] if not R.same(members[0], y)), None
        )

    wits = []
    for a in S.elements():
        if all_powers:
            for m, v in power_profile(S, a).exponents():
                bad = bad_pair(v)
                if bad is not None:
                    return PredicateResult(
                        False, counterexample={"a": a, "m": m, "pair": bad}
                    )
            wits.append({"a": a})
        else:
            wit = None
            first_bad = None
            for m, v in power_profile(S, a).exponents():
                bad = bad_pair(v)
                if bad is None:
                    wit = {"a": a, "m": m}
                    break
                if first_bad is None:
                    first_bad = {"a": a, "m": m, "pair": bad}
            if wit is None:
                return PredicateResult(False, counterexample=first_bad)
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def _thm5_c3(S):
    table = S.table
    E = list(ordered_idempotents(S))
    wits = []
    for e in E:
        for f in E:
            found = _power_pair_search(
                S,
                table[e][f],
                lambda v: next(
                    ({"s": s} for s in S.elements() if S.leq[v][table[table[f][s]][f]]),
                    None,
                ),
            )
            if found is None:
                return PredicateResult(False, counterexample={"e": e, "f": f})
            n, hit = found
            wits.append({"e": e, "f": f, "n": n, **hit})
    return PredicateResult(True, tuple(wits))


def _thm5_c4(S):
    table = S.table
    E = list(ordered_idempotents(S))
    wits = []
    for e in E:
        for f in E:
            cap = _as(S, e) & _as(S, f)
            found = _power_pair_search(
                S, table[e][f], lambda v: {} if not _as(S, v) & ~cap else None
            )
            if found is None:
                return PredicateResult(False, counterexample={"e": e, "f": f})
            wits.append({"e": e, "f": f, "n": found[0]})
    return PredicateResult(True, tuple(wits))


def _thm5_c5(S, all_powers=False):
    specs = tuple((x, 1, 0) for x in S.elements())
    wits = []
    for e in list(ordered_idempotents(S)):
        se, es = _sa(S, e), _as(S, e)

        def offender(values):
            for x, v in enumerate(values):
                if se >> v & 1:
                    bad = _inverses_bits(S, v) & ~es
                    if bad:
                        return x, (bad & -bad).bit_length() - 1
            return None

        wit = None
        first_bad = None
        for m, values in joint_power_exponents(S, specs):
            bad = offender(values)
            if bad is None:
                if not all_powers:
                    wit = {"e": e, "m": m}
                    break
            else:
                if all_powers:
                    return PredicateResult(
                        False,
                        counterexample={"e": e, "m": m, "x": bad[0], "inverse": bad[1]},
                    )
                if first_bad is None:
                    first_bad = {"e": e, "m": m, "x": bad[0], "inverse": bad[1]}
        if all_powers:
            wits.append({"e": e})
        else:
            if wit is None:
                return PredicateResult(False, counterexample=first_bad)
            wits.append(wit)
    return PredicateResult(True, tuple(wits))


def theorem5_conditions(S, all_powers=False):
    """Battery of five equivalent characterizations of a right pi-inverse
    ordered semigroup (suite id ``thm5``), in source numbering.

    ``all_powers`` switches conditions (2) and (5) from the default
    "some power works" reading to the stricter "every power works" one.
    """
    def build():
        return (
            right_pi_inverse_def(S),
            _thm5_c2(S, all_powers),
            _thm5_c3(S),
            _thm5_c4(S),
            _thm5_c5(S, all_powers),
        )

    return S.cached(("thm5", all_powers), build)


def theorem6_condition(S):
    """L*-related ordered idempotents are R*-related (suite id ``thm6``)."""
    def build():
        Ls, Rs = starred(S, "L"), starred(S, "R")
        E = list(ordered_idempotents(S))
        for e in E:
            for f in E:
                if Ls.same(e, f) and not Rs.same(e, f):
                    return PredicateResult(False, counterexample={"e": e, "f": f})
        return PredicateResult(True, ({"idempotents": E},))

    return S.cached(("thm6",), build)


# -- regular-case battery ---------------------------------------------------

def _thm51_c1(S):
    """m = 1 restriction of the right pi-inverse definition."""
    R = green(S, "R")
    wits = []
    for a in S.elements():
        gens = _ideal_generators(S, _sa(S, a), "left")
        if not gens or not all(R.same(gens[0], e) for e in gens[1:]):
            return PredicateResult(False, counterexample={"a": a, "generators": gens})
        wits.append({"a": a, "generators": gens})
    return PredicateResult(True, tuple(wits))


def _thm51_c2(S):
    R = green(S, "R")
    wits = []
    for a in S.elements():
        members = list(bits_iter(_inverses_bits(S, a)))
        bad = next(
            ((members[0], y) for y in members[1:] if not R.same(members[0], y)), None
        )
        if bad is not None:
            return PredicateResult(False, counterexample={"a": a, "pair": bad})
        wits.append({"a": a, "inverses": members})
    return PredicateResult(True, tuple(wits))


def _thm51_c3(S):
    table = S.table
    E = list(ordered_idempotents(S))
    wits = []
    for e in E:
        for f in E:
            ef = table[e][f]
            hit = next(
                (
                    (s, t)
                    for s in S.elements()
                    for t in S.elements()
                    if S.leq[ef][table[table[table[table[f][s]][e]][t]][f]]
                ),
                None,
            )
            if hit is None:
                return PredicateResult(False, counterexample={"e": e, "f": f})
            wits.append({"e": e, "f": f, "s": hit[0], "t": hit[1]})
    return PredicateResult(True, tuple(wits))


def _thm51_c4(S):
    table = S.table
    E = list(ordered_idempotents(S))
    for e in E:
        for f in E:
            lhs = _as(S, e) & _as(S, f)
            rhs = _close(S, _prod(S, 1 << table[e][f], S.full))
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
    wits = []
    for e in list(ordered_idempotents(S)):
        se, es = _sa(S, e), _as(S, e)
        for x in S.elements():
            if not (se >> x & 1):
                continue
            bad = _inverses_bits(S, x) & ~es
            if bad:
                return PredicateResult(
                    False,
                    counterexample={
                        "e": e,
                        "x": x,
                        "inverse": (bad & -bad).bit_length() - 1,
                    },
                )
        wits.append({"e": e})
    return PredicateResult(True, tuple(wits))


def theorem51_conditions(S):
    """Five-way battery for right inverse regular ordered semigroups
    (suite id ``thm51``); meaningful under the regularity hypothesis."""
    def build():
        return (_thm51_c1(S), _thm51_c2(S), _thm51_c3(S), _thm51_c4(S), _thm51_c5(S))

    return S.cached(("thm51",), build)


# -- lemma-level predicates -------------------------------------------------

def lemma3_predicate(S):
    """For every a some (Sa^m] is generated by an ordered idempotent."""
    def build():
        wits = []
        for a in S.elements():
            wit = None
            for m, v in power_profile(S, a).exponents():
                ideal = _sa(S, v)
                e = next(
                    (e for e in bits_iter(ordered_idempotents(S).bits) if _sa(S, e) == ideal),
                    None,
                )
                if e is not None:
                    wit = {"a": a, "m": m, "e": e}
                    break
            if wit is None:
                return PredicateResult(False, counterexample={"a": a})
            wits.append(wit)
        return PredicateResult(True, tuple(wits))

    return S.cached(("lemma3",), build)


def lemma7_predicate(S):
    """L*-related elements have all products inverse*power R*-related."""
    def build():
        Ls, Rs = starred(S, "L"), starred(S, "R")
        table = S.table
        checked = 0
        for a in S.elements():
            for b in S.elements():
                if not Ls.same(a, b):
                    continue
                m = smallest_regular_power(S, a)
                n = smallest_regular_power(S, b)
                u = power_profile(S, a).value(m)
                w = power_profile(S, b).value(n)
                for a1 in bits_iter(_inverses_bits(S, u)):
                    for b1 in bits_iter(_inverses_bits(S, w)):
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

    return S.cached(("lemma7",), build)


# -- public vocabulary ------------------------------------------------------

PREDICATES = {
    "regular": _p_regular,
    "completely-regular": _p_completely_regular,
    "intra-regular": _p_intra_regular,
    "pi-regular": _p_pi_regular,
    "completely-pi-regular": _p_completely_pi_regular,
    "left-pi-regular": _p_left_pi_regular,
    "right-pi-regular": _p_right_pi_regular,
    "left-simple": _p_left_simple,
    "right-simple": _p_right_simple,
    "simple": _p_simple,
    "left-archimedean": _p_left_archimedean,
    "right-archimedean": _p_right_archimedean,
    "archimedean": _p_archimedean,
    "left-weakly-commutative": _p_left_weakly_commutative,
    "right-weakly-commutative": _p_right_weakly_commutative,
    "weakly-commutative": _p_weakly_commutative,
    "left-pi-t-simple": left_pi_t_simple_direct,
    "right-pi-t-simple": right_pi_t_simple_direct,
    "pi-t-simple": pi_t_simple_direct,
    "right-pi-inverse": right_pi_inverse_def,
    "left-pi-inverse": left_pi_inverse_def,
    "pi-inverse": pi_inverse_def,
}

PREDICATE_NAMES = tuple(sorted(PREDICATES))


def named_predicate(S, name):
    """Evaluate any predicate from the public kebab-case vocabulary (a
    snake_case name is read as its kebab-case form); cached on S."""
    key = name.replace("_", "-")
    if key not in PREDICATES:
        raise ValueError(f"unknown predicate name {name!r}")
    return S.cached(("pred", key), lambda: PREDICATES[key](S))
