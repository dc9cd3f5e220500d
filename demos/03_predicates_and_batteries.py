# The predicate vocabulary and the equivalence-condition batteries.
#
# Every predicate returns a verdict plus witnesses (smallest exponents,
# least mediating elements) or the first counterexample.

from ordsgp import (
    lz2,
    n2,
    named_predicate,
    nil_extension_search,
    rz2,
    sl2,
    theorem2_conditions,
    theorem5_conditions,
)
from ordsgp.predicates import PREDICATE_NAMES

# %% The kebab-case vocabulary drives the CLI's --satisfy/--violate flags.
S = sl2()
print("SL2 predicate profile:")
for name in PREDICATE_NAMES:
    print(f"  {name}: {named_predicate(S, name).holds}")

# %% Witness detail: N2 is left Archimedean with exponent 2 on the pair (1, 0).
res = named_predicate(n2(), "left-archimedean")
by_pair = {(w["a"], w["b"]): w for w in res.witnesses}
print("\nN2 left-archimedean witness for (1,0):", by_pair[(1, 0)])

# %% The direct definition of left pi-t-simple searches for a left simple,
# pi-regular subsemigroup absorbing a power of every element.
res = named_predicate(n2(), "left-pi-t-simple")
print("\nN2 left pi-t-simple:", res.holds, res.data)
res = nil_extension_search(n2(), "left_simple")
print("N2 nil extension kernel:", res.data)

# %% The eight-way battery (suite id thm2): all conditions agree everywhere.
for fixture, name in ((n2(), "N2"), (sl2(), "SL2"), (lz2(), "LZ2")):
    flags = [r.holds for r in theorem2_conditions(fixture)]
    print(f"thm2 on {name}: {flags}")

# %% The right pi-inverse battery (suite id thm5): SL2 passes, LZ2 fails
# with the counterexample e=0, f=1 on condition (3).
print("\nthm5 on SL2:", [r.holds for r in theorem5_conditions(sl2())])
results = theorem5_conditions(lz2())
print("thm5 on LZ2:", [r.holds for r in results], results[2].counterexample)

# %% Duals come from the mirrored formulas.
duals = ("left-pi-inverse", "right-pi-t-simple", "pi-inverse", "pi-t-simple")
print("\nRZ2 duals:", {name: named_predicate(rz2(), name).holds for name in duals})
