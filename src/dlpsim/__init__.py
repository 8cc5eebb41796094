"""Discrete variational mechanics with Lie-group symmetry reduction.

Simulate discrete variational systems on fiber bundles, reduce them by
symmetry groups using discrete connections, reconstruct full trajectories
from reduced ones, reduce in two stages, and verify the structural
identities (equivariance, momentum evolution, symplecticity, Poisson
descent) numerically.
"""

from .errors import (DomainError, MatchingError, NonConvergence,
                     RegularityError, SimulationError, SingularJacobian,
                     SolverError, ValidationError)
from .smooth import (DEFAULT_FD_STEP, NewtonConfig, SmoothMapHandle,
                     jacobian_fd, newton_solve)
from .lie import (ActionModel, LieGroupModel, se2_group, se2_two_point_action,
                  t2_group, t2_two_point_action, u1_group, u1_plane_action)
from .connection import (DiscreteConnection, QuotientModel, ad,
                         check_equivariance)
from .dlps import (DiscretePath, DlpsSystem, FiberBundleModel,
                   action_derivative, action_sum,
                   build_fixed_endpoint_variation, del_residual,
                   free_particle_dms, from_dms, harmonic_oscillator_dms,
                   make_path, path_from_points, simulate, step)
from .reduction import (ReducedModel, ReductionResult, build_upsilon,
                        check_morphism, check_symmetry, project_path,
                        reconstruct_path, reduce, solve_matching,
                        two_stage)
from .diagnostics import (bracket_of_pullbacks, momentum,
                          momentum_evolution_check, poisson_descent_check,
                          symplectic_check)
from .example_se2 import (StagedSetup, TwoBodyConfig, closed_form_reduced_step,
                          make_full_system, make_reduced_model,
                          make_reduced_system, make_se2_connection,
                          make_staged_setup, make_t2_connection,
                          potential_handle)

__version__ = "0.1.0"
