"""clarklab: a numerical laboratory for Clark measures of inner functions.

Compute Clark atoms and masses, test the one-component condition records
on truncated measures, estimate Cauchy-transform section norms and arc
ratios, evaluate the potential conditions for the equality of a
de Branges-Rovnyak space with a harmonically weighted Dirichlet space,
and construct new one-component Clark measures by controlled
perturbation.
"""

__version__ = "0.1.0"

from .circle import Arc, AtomicMeasure
from .inner import (FiniteBlaschke, InnerFunction, Product, PythagoreanPair,
                    SingularAtomic, angular_derivative, boundary_phase,
                    evaluate, monomial, pythagorean_pair, spectrum)
from .clark import (ClarkData, clark_data, find_atoms, partition_regularity,
                    phase_partition)
from .potentials import (AtomPotentialSup, KernelNorms, PotentialReport,
                         atom_potential_sup, dirichlet_quadrature, kernel_norms,
                         mass_ratio_check, potential, radial_limit_check,
                         sup_inf_scan)
from .cauchy import (CauchySection, OperatorNormEstimate, TolsaReport,
                     hilbert_route, nested_sections, operator_norm,
                     tail_integral_check, tolsa_scan)
from .verify import BessonovReport, bessonov_check, perturbed_admissibility
from .perturb import (PerturbationPlan, admissible_alpha_bound, generate,
                      interaction_sup, random_plan, squared_measure)
from .families import (CounterexampleBlaschke, ExpSingular, Monomial,
                       clark_data_for, divergence_ladder, exp_clark_data,
                       exp_lattice, exp_tail_mass_bound,
                       exp_tail_potential_bound, exp_total_mass,
                       inner_function, parse_family)
from . import errors
