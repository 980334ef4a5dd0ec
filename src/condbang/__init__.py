"""Conditional-expectation vector measures made executable: coarseness
diagnostics, exact Lyapunov partitions on splittable grids with certified
residual bounds on atomic ones, extreme-point decomposition and bang-bang
selections, and Young-measure purification."""

__version__ = "0.1.0"

from .spaces import (Mode, Grid, BlockPartition, RefinedSet, CoarsenessVerdict,
                     CellRefinement, build_grid, grid_from_weights, make_partition,
                     trivial_partition, block_masses, full_set, set_from_cells,
                     set_from_triples, refine_partition, coarseness_check,
                     split_cells, subdivide)
from .condexp import (SimpleFunction, BlockFunction, simple_function,
                      constant_function, cond_exp, ce_measure, weighted_ce_measure,
                      integrate_against, lift_to_cells, lift_function, indicator,
                      sf_add, sf_scale, sf_mul, sf_stack, bf_add, bf_sub)
from .polytope import (PolytopeMap, CaratheodoryDecomposition, HullMembershipError,
                       NoExtremePointError, polytope_map, extreme_point_indices,
                       caratheodory_decompose, decompose_selection)
from .lyapunov import (PartitionResult, HalfSetResult, AnnihilatorWitness,
                       lyapunov_partition, partition_with_moments, half_set,
                       annihilator_witness, witness_block_integrals,
                       lyapunov_partition_multi, DEFAULT_POLISH_BUDGET)
from .bangbang import ExtremeSelection, BangBangReport, bang_bang, pointset_bang_bang
from .purify import (ActionSet, YoungMeasure, IntegrandFamily, PureStrategy,
                     PurifyReport, action_set, young_measure, dirac_measure,
                     integrand_family, stack_integrands, barycenter,
                     support_polytope, purify, density_step)
from .oracle import (direct_integrate, direct_payoff, direct_mixture_payoff,
                     enumerate_atomic_partitions, EnumerationBudgetError)
