# Exhaustive enumeration, isomorph-free generation, and seeded sampling.

from ordsgp import (
    GenerationConfig,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_tables,
    lz2,
    rz2,
    sample_structures,
    structure_key,
)

# %% Associative table counts: 1, 8, 113, 3492 for orders 1 to 4.
for n in (1, 2, 3, 4):
    print(f"associative tables on {n} elements:", sum(1 for _ in enumerate_tables(n)))

# %% Compatible orders per table: the left-zero table admits three, the
# two-element group only the discrete one.
print("\nleft-zero orders:", len(list(enumerate_compatible_orders(((0, 0), (1, 1))))))
print("group orders:", len(list(enumerate_compatible_orders(((0, 1), (1, 0))))))

# %% The full catalog at order 2: 20 labeled ordered semigroups.
catalog = list(enumerate_ordered_semigroups(GenerationConfig(2)))
print("\norder-2 catalog size:", len(catalog))

# %% The discrete-order slice: every table once, with the discrete order,
# as the verification catalog walks order 4.
discrete = GenerationConfig(3, order_mode="discrete_only")
print("order-3 discrete slice:", sum(1 for _ in enumerate_ordered_semigroups(discrete)))

# %% One structure per isomorphism class, generated orderly: only tables
# least among their relabellings, with orders reduced by the table's
# automorphisms.  The stream holds one member of each class, so two of its
# entries are never isomorphic: LZ2 and RZ2 are both in it, as distinct
# classes.
up_to_iso = list(enumerate_ordered_semigroups(GenerationConfig(2, up_to_iso=True)))
print("order-2 catalog up to isomorphism:", len(up_to_iso))
positions = (up_to_iso.index(lz2()), up_to_iso.index(rz2()))
print("LZ2 and RZ2 are distinct classes, at stream positions", positions)

# %% Samples used by the order-4 verification regime: random table from the
# exhaustive catalog plus a random non-discrete compatible order (tables
# admitting only the discrete order are skipped).
for S in sample_structures(4, 3, seed=0):
    print("sampled:", structure_key(S))
