"""Finite-group sumset laboratory.

Dense Cayley-table groups, subgroup and quotient machinery, factor-system
decompositions of solvable groups, and exhaustive/sampled verification of
product-size lower bounds, with a step-by-step replay of the solvable-group
induction on concrete inputs.
"""

from .engine import (BoundCheck, Caps, SamplingPlan, VerificationReport,
                     cd_bound, find_extremal, product_set,
                     restricted_product_set, verify_exhaustive, verify_sampled)
from .factor_system import (FactorSystem, build_factor_system,
                            decompose_subset, factor_system_json)
from .groups import (FiniteGroup, GroupBuildError, GroupSpec, InputError,
                     SubsetMask, build_group, element_order, parse_group_spec,
                     validate_group)
from .replay import (ProofTrace, ReplayInvariantError,
                     ReplayPreconditionError, replay_solvable_proof)
from .rng import SplitMix64
from .structure import (INFINITY, QuotientGroup, SolvableChain, Subgroup,
                        choose_decomposition_subgroup, commutator_subgroup,
                        derived_series, generated_subgroup, is_normal,
                        is_solvable, minimal_torsion, quotient,
                        smallest_prime_factor, solvable_chain,
                        subgroup_as_group, trivial_subgroup, whole_subgroup)

__version__ = "0.1.0"
