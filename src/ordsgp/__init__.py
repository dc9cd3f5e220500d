"""Toolkit for finite ordered semigroups.

Builds, validates, and enumerates finite ordered semigroups; computes
Green's and starred relations, regularity data, and congruences; decides a
vocabulary of structure predicates; and machine-checks the classical
equivalence batteries for pi-t-simple and pi-inverse ordered semigroups
over exhaustively enumerated small models.
"""

from .congruences import (
    CongruenceCertificate,
    classify_partition,
    enumerate_semilattice_congruences,
    semilattice_decomposition,
)
from .core import (
    FIXTURES,
    OrderedSemigroup,
    PowerProfile,
    PredicateResult,
    SubsetMask,
    ValidationReport,
    Violation,
    downward_closure,
    lz2,
    n2,
    power_profile,
    principal_ideal,
    restrict,
    rz2,
    sl2,
    structure_from_dict,
    structure_from_key,
    structure_key,
    subset_product,
    t1,
    validate,
)
from .enumeration import (
    GenerationConfig,
    enumerate_compatible_orders,
    enumerate_ordered_semigroups,
    enumerate_tables,
    sample_structures,
)
from .harness import (
    THEOREM_IDS,
    EquivalenceReport,
    SearchResult,
    SuiteReport,
    run_suite,
    search_model,
    verify,
)
from .predicates import (
    PREDICATE_NAMES,
    lemma3_predicate,
    lemma7_predicate,
    named_predicate,
    nil_extension_search,
    theorem2_conditions,
    theorem4_conditions,
    theorem5_conditions,
    theorem6_condition,
    theorem8_conditions,
    theorem51_conditions,
)
from .relations import (
    Partition,
    RegularityProfile,
    green,
    is_rho_unique,
    ordered_idempotents,
    ordered_inverses,
    regularity_profile,
    smallest_regular_power,
    starred,
)

__version__ = "0.1.0"
