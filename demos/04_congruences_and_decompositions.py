# Congruence classification, semilattice congruences, and decomposition
# searches.

from ordsgp import (
    Partition,
    classify_partition,
    enumerate_semilattice_congruences,
    lz2,
    named_predicate,
    semilattice_decomposition,
    sl2,
    theorem8_conditions,
    verify,
)

# %% Classifying partitions: the singleton partition on SL2 satisfies the
# congruence, semilattice, and completeness laws; on LZ2 the semilattice
# law a*b ~ b*a breaks.
cert = classify_partition(sl2(), Partition.singletons(2))
print("SL2 singletons:", cert.is_congruence, cert.is_semilattice, cert.is_complete)
cert = classify_partition(lz2(), Partition.singletons(2))
print("LZ2 singletons:", cert.is_congruence, cert.is_semilattice, cert.counterexamples)

# %% All semilattice congruences, coarsest first.
print("\nSL2 semilattice congruences:",
      [p.to_lists() for p in enumerate_semilattice_congruences(sl2())])
print("LZ2 semilattice congruences:",
      [p.to_lists() for p in enumerate_semilattice_congruences(lz2())])

# %% Decomposition search: SL2 splits into singleton left pi-t-simple
# classes; LZ2 is itself one qualifying class.  The search gives the plain
# reading first and the complete-congruence reading second.
def left_pi_t_simple(sub):
    return named_predicate(sub, "left-pi-t-simple").holds


print("\nSL2 decomposition:", semilattice_decomposition(sl2(), left_pi_t_simple)[0].data)
print("LZ2 decomposition:", semilattice_decomposition(lz2(), left_pi_t_simple)[0].data)

# %% The R*-congruence battery (suite id thm8).  LZ2 fails the gate (it is
# not right pi-inverse) and exhibits why the gate matters: R* is a
# congruence there, yet not a semilattice congruence.
print("\nthm8 on SL2:", [r.holds for r in theorem8_conditions(sl2())])
print("thm8 on LZ2:", [r.holds for r in theorem8_conditions(lz2())])

# %% Corollary batteries with their hypothesis flags, through the harness.
for tid in ("cor-hstar", "cor-cpr"):
    rep = verify(sl2(), tid)
    print(f"\n{tid} on SL2:", rep.hypothesis, [c["holds"] for c in rep.conditions], rep.verdict)
