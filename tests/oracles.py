"""Independent brute-force reference implementations.

Everything here works on plain lists and sets, recomputing definitions
directly, so expected values in the tests never depend on the code paths
they check.
"""

from itertools import permutations, product


def closure(leq, subset):
    n = len(leq)
    return {x for x in range(n) for a in subset if leq[x][a]}


def set_product(table, A, B):
    return {table[a][b] for a in A for b in B}


def left_ideal(table, leq, a):
    n = len(table)
    return closure(leq, {a} | {table[s][a] for s in range(n)})


def right_ideal(table, leq, a):
    n = len(table)
    return closure(leq, {a} | {table[a][s] for s in range(n)})


def two_sided_ideal(table, leq, a):
    n = len(table)
    sa = {table[s][a] for s in range(n)}
    as_ = {table[a][s] for s in range(n)}
    sas = {table[x][s] for x in sa for s in range(n)}
    return closure(leq, {a} | sa | as_ | sas)


def bi_ideal(table, leq, a):
    n = len(table)
    asa = {table[table[a][s]][a] for s in range(n)}
    return closure(leq, {a} | asa)


def is_associative(table):
    n = len(table)
    return all(
        table[table[a][b]][c] == table[a][table[b][c]]
        for a in range(n)
        for b in range(n)
        for c in range(n)
    )


def is_partial_order(leq):
    n = len(leq)
    if not all(leq[a][a] for a in range(n)):
        return False
    if any(leq[a][b] and leq[b][a] for a in range(n) for b in range(n) if a != b):
        return False
    return all(
        leq[a][c]
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if leq[a][b] and leq[b][c]
    )


def is_compatible(table, leq):
    n = len(table)
    return all(
        leq[table[x][a]][table[x][b]] and leq[table[a][x]][table[b][x]]
        for a in range(n)
        for b in range(n)
        for x in range(n)
        if leq[a][b]
    )


def axiom_violations(table, leq):
    """Every broken ordered-semigroup axiom as (axiom, witness), listed as
    the validator lists them: associativity triples, reflexivity,
    antisymmetry, transitivity, then per strict pair a < b and per x the
    left- and the right-compatibility of multiplying by x."""
    n = len(table)
    span = range(n)
    out = []
    for a, b, c in product(span, repeat=3):
        if table[table[a][b]][c] != table[a][table[b][c]]:
            out.append(("associativity", (a, b, c)))
    for a in span:
        if not leq[a][a]:
            out.append(("reflexivity", (a,)))
    for a, b in product(span, repeat=2):
        if a != b and leq[a][b] and leq[b][a]:
            out.append(("antisymmetry", (a, b)))
    for a, b, c in product(span, repeat=3):
        if leq[a][b] and leq[b][c] and not leq[a][c]:
            out.append(("transitivity", (a, b, c)))
    for a, b in product(span, repeat=2):
        if a == b or not leq[a][b]:
            continue
        for x in span:
            if not leq[table[x][a]][table[x][b]]:
                out.append(("left-compatibility", (a, b, x)))
            if not leq[table[a][x]][table[b][x]]:
                out.append(("right-compatibility", (a, b, x)))
    return out


def all_tables(n):
    """Every associative table by filtering the full n^(n*n) space."""
    out = []
    for flat in product(range(n), repeat=n * n):
        table = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if is_associative(table):
            out.append(table)
    return out


def all_orders(n):
    """Every partial order by filtering all boolean matrices."""
    out = []
    for flat in product((False, True), repeat=n * n):
        leq = [list(flat[i * n : (i + 1) * n]) for i in range(n)]
        if is_partial_order(leq):
            out.append(leq)
    return out


def power(table, a, m):
    v = a
    for _ in range(m - 1):
        v = table[v][a]
    return v


def is_regular_element(table, leq, v):
    n = len(table)
    return any(leq[v][table[table[v][x]][v]] for x in range(n))


def is_completely_regular_element(table, leq, a):
    """a lies in (a^2 S a^2]."""
    n, a2 = len(table), table[a][a]
    return a in closure(leq, set_product(table, set_product(table, {a2}, range(n)), {a2}))


def is_intra_regular_element(table, leq, a):
    """a lies in (S a^2 S]."""
    n, a2 = len(table), table[a][a]
    return a in closure(leq, set_product(table, set_product(table, range(n), {a2}), range(n)))


def least_factor(table, leq, v, w, side):
    """The least s with v <= s*w (side "left") or v <= w*s, or None."""
    for s in range(len(table)):
        product = table[s][w] if side == "left" else table[w][s]
        if leq[v][product]:
            return s
    return None


def least_middle(table, leq, v, u, w):
    """The least s with v <= u*s*w, or None."""
    for s in range(len(table)):
        if leq[v][table[table[u][s]][w]]:
            return s
    return None


def smallest_regular_power(table, leq, a):
    # powers cycle within n + 1 steps, so this bound is exhaustive
    for m in range(1, len(table) + 2):
        if is_regular_element(table, leq, power(table, a, m)):
            return m
    return None


def green_classes(table, leq, kind):
    """Partition of the carrier by equality of principal ideals."""
    n = len(table)
    ideal = {"L": left_ideal, "R": right_ideal, "J": two_sided_ideal}[kind]
    keyed = {}
    for a in range(n):
        keyed.setdefault(frozenset(ideal(table, leq, a)), []).append(a)
    return sorted(sorted(c) for c in keyed.values())



def starred_classes(table, leq, kind):
    """Partition by a ~ b iff a^m and b^k are Green-related, with m and k
    the smallest exponents making a^m and b^k regular; H* is the meet of
    L* and R*."""
    n = len(table)
    labels = []
    for k in ("L", "R") if kind == "H" else (kind,):
        class_of = {a: i for i, c in enumerate(green_classes(table, leq, k)) for a in c}
        labels.append(
            [class_of[power(table, a, smallest_regular_power(table, leq, a))] for a in range(n)]
        )
    keyed = {}
    for a in range(n):
        keyed.setdefault(tuple(label[a] for label in labels), []).append(a)
    return sorted(sorted(c) for c in keyed.values())

def automorphism_count(table, leq):
    """Number of carrier permutations preserving both product and order."""
    n = len(table)
    span = range(n)
    return sum(
        all(
            p[table[a][b]] == table[p[a]][p[b]] and leq[a][b] == leq[p[a]][p[b]]
            for a in span
            for b in span
        )
        for p in permutations(span)
    )


def table_automorphisms(table):
    """The carrier permutations p with p(T) = T, in ``permutations`` order:
    p[a*b] == p[a]*p[b] for every pair."""
    n = len(table)
    span = range(n)
    return tuple(
        p
        for p in permutations(span)
        if all(p[table[a][b]] == table[p[a]][p[b]] for a in span for b in span)
    )


def canonical_form(table, leq):
    """Least relabelled (table, order) over all carrier permutations.

    Equal forms mean the structures are isomorphic as ordered semigroups,
    i.e. related by a product- and order-preserving bijection.
    """
    n = len(table)
    span = range(n)
    best = None
    for p in permutations(span):
        inv = [0] * n
        for a, pa in enumerate(p):
            inv[pa] = a
        key = (
            tuple(p[table[inv[i]][inv[j]]] for i in span for j in span),
            tuple(leq[inv[i]][inv[j]] for i in span for j in span),
        )
        if best is None or key < best:
            best = key
    return (n,) + best
