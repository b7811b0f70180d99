"""confpp: exact subset-lattice calculus and a Monte Carlo point-process lab.

The exact layer tabulates functionals of finite configurations over a
weighted finite site set and computes transforms, convolutions, correlation
functionals and birth--death generator images in closed form.  The
statistical layer samples Poisson, mixed-Poisson and Gibbs processes on
continuum boxes and verifies the defining integral identities.
"""

__version__ = "0.1.0"

from .core import (BoxWindow, Configuration, DiscreteGround,
                   PointConfiguration, SetFunction, constant_function,
                   indicator_empty, lp_integral, lp_integral_mc, make_ground,
                   power_function, split_streams)
from .errors import (CapacityError, CocycleError, ConfppError,
                     EvaluationError, GroundMismatchError, OverlapError,
                     StabilityError, UndefinedConditionalError,
                     ValidationError)
from .generators import (BirthDeathKernel, LatticeOperator, MoveOperator,
                         contact_kernel, derive_kernels, hat_L_action,
                         hat_L_bruteforce, hat_L_closed,
                         hat_L_continuum_action)
from .processes import (DiscreteTable, Gibbs, MixedPoisson, MixingDensity,
                        PapangelouSpec, Poisson, Superposition,
                        convolve_measures, correlation_functional,
                        exponential_mixing, lenard_pd_check,
                        mixing_convolution, papangelou_of_table,
                        point_mass_mixing, projection_density,
                        recover_correlation, to_discrete_table,
                        uniqueness_diagnostic)
from .samplers import (IdentityReport, PointBatch, RunPlan, constant_h,
                       count_distribution_check, estimate_correlation,
                       sample_batch, sample_gibbs_bd, strauss_spec,
                       verify_gnz, verify_mecke)
from .transforms import (conv_disjoint, conv_union, exp_vector, k_inverse,
                         k_transform, minlos_pairing, norm_fit)
from .two_type import (PairConfiguration, PairSetFunction, conv_star2,
                       kk_inverse, kk_transform, marginal_correlation,
                       pair_product)
