"""Finite ordered semigroups: carrier, validation, closures, ideals, powers.

An ordered semigroup here is an associative multiplication table on the
carrier {0, ..., n-1} together with a partial order that multiplication
preserves on both sides.  Carriers are dense 0-based integers and subsets
are int bitmasks, so every set operation is a couple of machine words.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache, wraps
from itertools import chain


@lru_cache(maxsize=1 << 16)
def bits_iter(mask):
    """The set bit positions of an int mask, ascending, as a tuple.

    A pure function of the int, memoised process-wide in a bounded table:
    the element masks of a carrier of order n are only 2^n ints."""
    bits = []
    while mask:
        low = mask & -mask
        bits.append(low.bit_length() - 1)
        mask ^= low
    return tuple(bits)


def _check_element(n, a):
    """The one check of an element argument: an int of the carrier {0..n-1}."""
    if isinstance(a, bool) or not isinstance(a, int) or not 0 <= a < n:
        raise ValueError(f"element {a!r} outside carrier of size {n}")


def _check_mask(n, bits):
    """The one check of a mask argument: an int with no bit outside {0..n-1}."""
    if isinstance(bits, bool) or not isinstance(bits, int):
        raise ValueError(f"bitmask {bits!r} is not an int")
    if bits < 0 or bits >> n:
        raise ValueError(f"bitmask {bits:#x} does not fit a carrier of size {n}")


class SubsetMask:
    """Subset of a fixed carrier {0, ..., n-1}, backed by an int bitmask."""

    __slots__ = ("n", "bits")

    def __init__(self, n, bits=0):
        _check_mask(n, bits)
        self.n = n
        self.bits = bits

    @classmethod
    def from_elements(cls, n, elements):
        bits = 0
        for x in elements:
            _check_element(n, x)
            bits |= 1 << x
        return cls(n, bits)

    def elements(self):
        return list(bits_iter(self.bits))

    def _match(self, other):
        if not isinstance(other, SubsetMask) or other.n != self.n:
            raise ValueError("subset masks refer to different carriers")
        return other

    def __contains__(self, x):
        if isinstance(x, bool) or not isinstance(x, int):
            _check_element(self.n, x)  # raises: an int outside is simply no member
        return 0 <= x < self.n and bool(self.bits >> x & 1)

    def __iter__(self):
        return iter(bits_iter(self.bits))

    def __len__(self):
        return self.bits.bit_count()

    def __bool__(self):
        return self.bits != 0

    def __or__(self, other):
        return SubsetMask(self.n, self.bits | self._match(other).bits)

    def __and__(self, other):
        return SubsetMask(self.n, self.bits & self._match(other).bits)

    def __sub__(self, other):
        return SubsetMask(self.n, self.bits & ~self._match(other).bits)

    def issubset(self, other):
        return not (self.bits & ~self._match(other).bits)

    def __eq__(self, other):
        return isinstance(other, SubsetMask) and (self.n, self.bits) == (other.n, other.bits)

    def __hash__(self):
        return hash((self.n, self.bits))

    def __repr__(self):
        return f"SubsetMask({self.n}, {{{', '.join(map(str, self))}}})"


@dataclass(frozen=True)
class Violation:
    """One failed axiom with the witness tuple that breaks it."""

    axiom: str
    witness: tuple


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple = ()

    def __post_init__(self):
        assert self.ok == (not self.violations)


@dataclass(frozen=True, slots=True)
class PredicateResult:
    """Outcome of a decidable condition: a verdict plus evidence.

    ``witnesses`` holds one dict per universally quantified input with the
    satisfying exponents / mediating elements; ``counterexample`` names the
    first failing input in lexicographic order.  ``data`` carries structured
    evidence such as a kernel, a subsemigroup, or a decomposition partition.
    """

    holds: bool
    witnesses: tuple = ()
    counterexample: dict | None = None
    data: dict | None = None

    def __post_init__(self):
        assert self.holds == (self.counterexample is None)

    def __bool__(self):
        return self.holds

    def to_dict(self):
        out = {"holds": self.holds}
        if self.witnesses:
            out["witness"] = self.witnesses[0]
        if self.counterexample is not None:
            out["counterexample"] = self.counterexample
        if self.data is not None:
            out["data"] = self.data
        return out


def _rows(matrix, name):
    """The rows of a matrix as tuples; every row must be a list or tuple."""
    rows = tuple(matrix)
    for i, row in enumerate(rows):
        if not isinstance(row, (list, tuple)):
            raise ValueError(f"{name} row {i} is not an array: {row!r}")
    return tuple(map(tuple, rows))


def _normalize_table(table):
    """Shape-, type- and range-check a raw table; returns it as tuples."""
    tab = _rows(table, "table")
    n = len(tab)
    if n < 1:
        raise ValueError("empty carrier: need at least one element")
    for i, row in enumerate(tab):
        if len(row) != n:
            raise ValueError(f"table row {i} has length {len(row)}, expected {n}")
        for j, v in enumerate(row):
            if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
                raise ValueError(f"table entry ({i},{j}) = {v!r} outside carrier 0..{n - 1}")
    return tab


def _normalize(table, leq):
    """Shape-, type- and range-check raw input; returns canonical tuples."""
    tab = _normalize_table(table)
    n = len(tab)
    lm = _rows(leq, "order matrix")
    if len(lm) != n or any(len(row) != n for row in lm):
        raise ValueError(f"order matrix is not {n}x{n}")
    for i, row in enumerate(lm):
        for j, v in enumerate(row):
            if not isinstance(v, bool):
                raise ValueError(f"order entry ({i},{j}) = {v!r} is not a boolean")
    return tab, lm


# Every fact of one matrix alone (its violations, requirement masks, powers,
# semilattice congruences, closed subsets, compatible orders, classes) is an
# lru_cache keyed on it under this one bound, which holds the 3492 labelled
# tables and 219 orders of the order-4 catalog.  Only tuples that
# ``_normalize`` has type-checked reach them, so a table of bools never
# meets an int table that compares equal.
_MEMO_SIZE = 1 << 12


@lru_cache(maxsize=_MEMO_SIZE)
def _table_violations(tab):
    """The associativity violations of a normalised table, in (a, b, c) order."""
    rng = range(len(tab))
    return tuple(
        Violation("associativity", (a, b, c))
        for a in rng
        for b in rng
        for c in rng
        if tab[tab[a][b]][c] != tab[a][tab[b][c]]
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _requirement_masks(table):
    """Per cell (a, b) of a normalised table, the mask of the cells (x*a, x*b)
    and (a*x, b*x), cell (c, d) being bit c*n + d: what an order compatible
    with the table must hold wherever it holds a <= b."""
    n = len(table)
    return tuple(
        sum({1 << (table[x][a] * n + table[x][b]) for x in range(n)}
            | {1 << (table[a][x] * n + table[b][x]) for x in range(n)})
        for a in range(n)
        for b in range(n)
    )


@lru_cache(maxsize=_MEMO_SIZE)
def _order_facts(lm):
    """(violations, below) of a normalised order matrix: its reflexivity,
    antisymmetry and transitivity violations in stream order, and the
    down-set mask ``(a]`` of each element."""
    rng = range(len(lm))
    bad = [Violation("reflexivity", (a,)) for a in rng if not lm[a][a]]
    bad += [
        Violation("antisymmetry", (a, b))
        for a in rng
        for b in rng
        if a != b and lm[a][b] and lm[b][a]
    ]
    bad += [
        Violation("transitivity", (a, b, c))
        for a in rng
        for b in rng
        if lm[a][b]
        for c in rng
        if lm[b][c] and not lm[a][c]
    ]
    below = tuple(sum(1 << i for i in rng if lm[i][j]) for j in rng)
    return tuple(bad), below


@lru_cache(maxsize=_MEMO_SIZE)
def _order_cells(lm):
    """(mask, strict) of a normalised order matrix: the int mask of its true
    cells, cell (a, b) being bit a*n + b, and its true cells with a != b."""
    n = len(lm)
    cells = [a * n + b for a in range(n) for b in range(n) if lm[a][b]]
    return sum(1 << c for c in cells), tuple(c for c in cells if c // n != c % n)


def _compatible(required, mask, strict):
    """The one compatibility test: whether each strict cell c of an order
    (``_order_cells``) has its requirement mask ``required[c]``
    (``_requirement_masks``) inside the order's cell mask."""
    outside = ~mask
    for c in strict:
        if required[c] & outside:
            return False
    return True


def _compatibility_violations(tab, lm):
    """For each pair a < b and each x, in that order: x*a <= x*b, then
    a*x <= b*x.  Only an order that fails ``_compatible`` is walked."""
    mask, strict = _order_cells(lm)
    if not strict or _compatible(_requirement_masks(tab), mask, strict):
        return ()
    return _compatibility_walk(tab, lm)


def _compatibility_walk(tab, lm):
    """The compatibility violations of ``_compatibility_violations``, listed."""
    rng = range(len(tab))
    for a in rng:
        row_a, above_a = tab[a], lm[a]
        for b in rng:
            if above_a[b] and a != b:
                row_b = tab[b]
                for x in rng:
                    row_x = tab[x]
                    if not lm[row_x[a]][row_x[b]]:
                        yield Violation("left-compatibility", (a, b, x))
                    if not lm[row_a[x]][row_b[x]]:
                        yield Violation("right-compatibility", (a, b, x))


def _violations(tab, lm):
    """Every broken axiom with its witness, in a fixed deterministic order:
    associativity, the order axioms, then compatibility."""
    return chain(
        _table_violations(tab),
        _order_facts(lm)[0],
        _compatibility_violations(tab, lm),
    )


class _Violated(ValueError):
    """The constructor's error for a well-formed pair that breaks an axiom,
    naming the first violation; it carries them all, for ``validate``."""

    def __init__(self, violations):
        first = violations[0]
        super().__init__(f"not an ordered semigroup: {first.axiom} fails at {first.witness}")
        self.violations = violations

    def __reduce__(self):
        # a pool worker's error reaches the parent process pickled
        return type(self), (self.violations,)


class OrderedSemigroup:
    """Validated finite ordered semigroup.

    ``table[i][j]`` is the product i*j and ``leq[i][j]`` means i <= j.
    Instances are immutable; derived data (ideals, relations, profiles)
    is cached per instance, so sharing across threads is safe once built.
    """

    __slots__ = ("order", "table", "leq", "below", "full", "_cache")

    def __init__(self, table, leq):
        tab, lm = _normalize(table, leq)
        violations = _violations(tab, lm)
        bad = next(violations, None)
        if bad is not None:
            raise _Violated((bad, *violations))
        n = len(tab)
        object.__setattr__(self, "order", n)
        object.__setattr__(self, "table", tab)
        object.__setattr__(self, "leq", lm)
        object.__setattr__(self, "below", _order_facts(lm)[1])
        object.__setattr__(self, "full", (1 << n) - 1)
        object.__setattr__(self, "_cache", {})

    def __setattr__(self, name, value):
        raise AttributeError("OrderedSemigroup is immutable")

    def elements(self):
        return range(self.order)

    def pow(self, a, m):
        """a**m for m >= 1 under the semigroup product."""
        _check_element(self.order, a)
        _check_exponent(m)
        v = a
        for _ in range(m - 1):
            v = self.table[v][a]
        return v

    def subset(self, elements=()):
        if isinstance(elements, SubsetMask):
            if elements.n != self.order:
                raise ValueError("subset mask refers to a different carrier")
            return elements
        return SubsetMask.from_elements(self.order, elements)

    def cached(self, key, build):
        """The value derived under ``key``: ``build(self, key)`` on the first
        lookup, the stored value afterwards.  :func:`derived` is the one
        caller; a build that raises stores nothing, and an unhashable key
        is built on every lookup, so the function checks its argument."""
        try:
            return self._cache[key]
        except KeyError:
            store = True
        except TypeError:
            store = False
        value = build(self, key)
        if store:
            self._cache[key] = value
        return value

    def __eq__(self, other):
        return (
            isinstance(other, OrderedSemigroup)
            and self.table == other.table
            and self.leq == other.leq
        )

    def __hash__(self):
        return hash((self.table, self.leq))

    def __repr__(self):
        return f"OrderedSemigroup({structure_key(self)!r})"

    def to_dict(self):
        return {
            "order": self.order,
            "table": [list(row) for row in self.table],
            "leq": [list(row) for row in self.leq],
        }


def _derive(S, key):
    return key[0](S)


def _derive_at(S, key):
    return key[0](S, key[1])


def _check_exponent(m):
    if isinstance(m, bool) or not isinstance(m, int) or m < 1:
        raise ValueError(f"exponent {m!r} must be an integer >= 1")


def derived(f):
    """Decorator: ``f(S)`` or ``f(S, x)`` computed once per structure S and
    argument x, then read from S's cache.  The function itself is the key,
    followed by x, so ``f`` must be a module-level function: a nested one
    would be a new key on every call.  ``f`` checks its own arguments; a
    call that raises stores nothing."""
    if f.__code__.co_argcount == 1:
        key = (f,)

        @wraps(f)
        def lookup(S):
            return S.cached(key, _derive)

    else:

        @wraps(f)
        def lookup(S, x):
            return S.cached((f, x), _derive_at)

    return lookup


def validate(table, leq):
    """Check all ordered-semigroup axioms.

    Returns a validated :class:`OrderedSemigroup` when every axiom holds,
    otherwise a :class:`ValidationReport` listing every violated axiom with
    a witness.  Malformed input (wrong shape, out-of-range entry) raises
    ``ValueError`` instead of being reported.  The input is checked once,
    by the constructor, whose error carries every violation.
    """
    try:
        return OrderedSemigroup(table, leq)
    except _Violated as exc:
        return ValidationReport(False, exc.violations)


@derived
def structure_key(S):
    """Compact deterministic identifier of the exact table and order; cached.

    Table entries are written without separators, so keys are unique and
    round-trip through :func:`structure_from_key` only when every entry is a
    single digit."""
    t = "".join(str(v) for row in S.table for v in row)
    o = "".join("1" if v else "0" for row in S.leq for v in row)
    return f"n{S.order}:{t}:{o}"


_DIGITS = frozenset("0123456789")


def structure_from_key(key):
    """Rebuild a structure from its :func:`structure_key` string.  A key is
    rejected unless its size part is ``n`` followed by ASCII digits, its
    table part holds only ASCII digits and its order part only 0 and 1,
    and both are n*n characters long (which a table with a multi-digit
    entry is not)."""
    try:
        head, t, o = key.split(":")
        if head[:1] != "n" or not head[1:] or not set(head[1:]) <= _DIGITS:
            raise ValueError("size part is not n followed by ASCII digits")
        if not set(t) <= _DIGITS:
            raise ValueError("table part holds a character other than an ASCII digit")
        n = int(head[1:])
        if len(t) != n * n or len(o) != n * n:
            raise ValueError("table or order part is not n*n characters long")
        if not set(o) <= {"0", "1"}:
            raise ValueError("order part holds a character other than 0 and 1")
        table = [[int(t[i * n + j]) for j in range(n)] for i in range(n)]
        leq = [[o[i * n + j] == "1" for j in range(n)] for i in range(n)]
    except (ValueError, IndexError) as exc:
        raise ValueError(f"malformed structure key {key!r}") from exc
    return OrderedSemigroup(table, leq)


def structure_from_dict(d):
    """Build a structure from the JSON dict format.

    The format is ``{"order": n, "table": [[...]], "leq": [[bool, ...], ...]}``
    with row i, column j giving i*j and i <= j respectively.  Returns the
    validated structure or a :class:`ValidationReport`; raises ``ValueError``
    on malformed payloads.
    """
    if not isinstance(d, dict):
        raise ValueError("structure payload must be a JSON object")
    missing = {"order", "table", "leq"} - set(d)
    if missing:
        raise ValueError(f"structure payload missing keys: {sorted(missing)}")
    table, leq = d["table"], d["leq"]
    if not isinstance(table, (list, tuple)) or not isinstance(leq, (list, tuple)):
        raise ValueError("table and leq must be arrays")
    if not isinstance(d["order"], int) or isinstance(d["order"], bool):
        raise ValueError(f"order field {d['order']!r} is not an integer")
    if d["order"] != len(table):
        raise ValueError(f"order field {d['order']!r} disagrees with table size {len(table)}")
    return validate(table, leq)


# -- closure and ideal calculus ------------------------------------------

def _close(S, bits):
    out = 0
    for a in bits_iter(bits):
        out |= S.below[a]
    return out


def _prod(S, abits, bbits):
    out = 0
    table = S.table
    bs = bits_iter(bbits)
    for a in bits_iter(abits):
        row = table[a]
        for b in bs:
            out |= 1 << row[b]
    return out


@derived
def _sa(S):
    """(Sa] of each element a as a bitmask, indexed by a; cached on S."""
    return tuple([_close(S, _prod(S, S.full, 1 << a)) for a in S.elements()])


@derived
def _as(S):
    """(aS] of each element a as a bitmask, indexed by a; cached on S."""
    return tuple([_close(S, _prod(S, 1 << a, S.full)) for a in S.elements()])


@derived
def _sas(S):
    """(SaS] of each element a as a bitmask, indexed by a; cached on S."""
    return tuple([_close(S, _prod(S, _prod(S, S.full, 1 << a), S.full)) for a in S.elements()])


def downward_closure(S, A):
    """(A]: every element lying below some member of A."""
    A = S.subset(A)
    return SubsetMask(S.order, _close(S, A.bits))


def subset_product(S, A, B):
    """Elementwise product set {a*b : a in A, b in B}, not downward-closed."""
    A, B = S.subset(A), S.subset(B)
    return SubsetMask(S.order, _prod(S, A.bits, B.bits))


def _principal_bits(S, a, kind):
    """Bitmask of the principal ideal of the given kind generated by a: (a]
    joined with the cached (Sa], (aS] or both and (SaS]."""
    if kind == "left":
        ideal = _sa(S)[a]
    elif kind == "right":
        ideal = _as(S)[a]
    elif kind == "two_sided":
        ideal = _sa(S)[a] | _as(S)[a] | _sas(S)[a]
    elif kind == "bi":
        bit = 1 << a
        return _close(S, bit | _prod(S, _prod(S, bit, S.full), bit))
    else:
        raise ValueError(f"unknown ideal kind {kind!r}")
    return S.below[a] | ideal


def principal_ideal(S, a, kind):
    """Principal left/right/two-sided/bi-ideal generated by a."""
    _check_element(S.order, a)
    return SubsetMask(S.order, _principal_bits(S, a, kind))


@dataclass(frozen=True)
class PowerProfile:
    """Eventual cycle of the power sequence a, a^2, a^3, ...

    ``powers`` lists the pairwise distinct values a^1 .. a^(index+period-1);
    a^(index+period) equals a^index, so these values exhaust every power.
    """

    element: int
    index: int
    period: int
    powers: tuple

    def value(self, m):
        """Value of a^m for any exponent m >= 1."""
        _check_exponent(m)
        if m <= len(self.powers):
            return self.powers[m - 1]
        return self.powers[self.index - 1 + (m - self.index) % self.period]


@lru_cache(maxsize=_MEMO_SIZE)
def _exponents(table):
    """(m, a^m) for each distinct power of each element a of a table, in
    increasing exponent order, indexed by a: the one store of power steps."""
    out = []
    for a, row in enumerate(table):
        powers = [a]
        v = row[a]  # a * a^k = a^(k+1)
        while v not in powers:
            powers.append(v)
            v = row[v]
        out.append(tuple(enumerate(powers, 1)))
    return tuple(out)


def power_profile(S, a):
    """Index, period, and distinct values of the power sequence of a."""
    _check_element(S.order, a)
    powers = tuple(v for _, v in _exponents(S.table)[a])
    index = powers.index(S.table[a][powers[-1]]) + 1
    return PowerProfile(a, index, len(powers) + 1 - index, powers)


def _joint_powers(S, elements):
    """Yield (m, (x^m for each x in elements)) for m = 1, 2, ... until the
    tuple repeats.  Each step multiplies entry k by elements[k], so the
    tuple sequence is the orbit of a deterministic map and the first repeat
    starts an exact cycle: a quantifier over a shared exponent m is decided
    by scanning just the yielded steps."""
    table = S.table
    cur = tuple(elements)
    seen = {cur}
    m = 1
    while True:
        yield m, cur
        cur = tuple([table[v][x] for v, x in zip(cur, elements)])
        if cur in seen:
            return
        seen.add(cur)
        m += 1


# restrict interns only substructures of at most this order, in a table
# that lives as long as the process: at most the 992 labelled ordered
# semigroups of order <= 3, where order 4 would admit up to 107688 more.
# So the table never reaches the bound ``_MEMO_SIZE`` of the matrix memos.
_INTERN_MAX_ORDER = 3


@lru_cache(maxsize=_MEMO_SIZE)
def _interned(table, leq):
    """The one instance per process of a re-labelled substructure."""
    return OrderedSemigroup(table, leq)


def restrict(S, bits):
    """Substructure induced on a product-closed subset.

    Returns (sub, elems) where elems maps new labels (ascending) back to the
    original carrier.  Raises ``ValueError`` when the mask is not an int or
    has a bit outside the carrier, or the subset is empty or not closed
    under the product.

    The full carrier gives S itself, so its cached results are reused.  A
    proper substructure of order at most ``_INTERN_MAX_ORDER`` is interned
    process-wide by its re-labelled ``(table, leq)``: equal substructures of
    different parents are one instance, so their cached predicates, each a
    pure function of ``(table, leq)``, are computed once per process.
    Larger substructures are built afresh on every call.
    """
    _check_mask(S.order, bits)
    if bits == S.full:
        return S, tuple(range(S.order))
    elems = bits_iter(bits)
    if not elems:
        raise ValueError("cannot restrict to the empty subset")
    pos = {x: i for i, x in enumerate(elems)}
    rows, orders = S.table, S.leq
    try:
        table = tuple([tuple([pos[rows[a][b]] for b in elems]) for a in elems])
    except KeyError as exc:
        raise ValueError(f"subset not closed under product: hit {exc.args[0]}") from None
    leq = tuple([tuple([orders[a][b] for b in elems]) for a in elems])
    if len(elems) > _INTERN_MAX_ORDER:
        return OrderedSemigroup(table, leq), elems
    return _interned(table, leq), elems


@lru_cache(maxsize=None)
def _discrete(n):
    """The discrete order (equality) on {0..n-1}, which every table admits;
    cached, so each n has one matrix."""
    return tuple(tuple(i == j for j in range(n)) for i in range(n))


# -- named fixtures -------------------------------------------------------

def t1():
    """One-element semigroup."""
    return OrderedSemigroup([[0]], _discrete(1))


def lz2():
    """Two-element left-zero semigroup (x*y = x), discrete order."""
    return OrderedSemigroup([[0, 0], [1, 1]], _discrete(2))


def rz2():
    """Two-element right-zero semigroup (x*y = y), discrete order."""
    return OrderedSemigroup([[0, 1], [0, 1]], _discrete(2))


def sl2():
    """Two-element chain semilattice (x*y = min, 0 <= 1)."""
    return OrderedSemigroup([[0, 0], [0, 1]], [[True, True], [False, True]])


def n2():
    """Two-element null semigroup (all products 0), discrete order."""
    return OrderedSemigroup([[0, 0], [0, 0]], _discrete(2))


FIXTURES = {"T1": t1, "LZ2": lz2, "RZ2": rz2, "SL2": sl2, "N2": n2}
