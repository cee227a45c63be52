"""Weighted L^p approximation of smooth convex functions by maxima of
finitely many tangent planes, with the matching quantization asymptotics.

The pipeline: pick a convex function from the catalog (``convex_core``),
place tangent points by one of the strategies (``approximator``, backed by
the metric quantizer in ``quantizer``), evaluate the weighted error
(``error_eval``), and compare m^(2p/n)-rescaled errors against the
predicted limit built from the mass integral and the quantization
constant (``functionals``).  ``dual_ma`` adds the Legendre/Monge-Ampere
side; ``harness_cli`` exposes everything as the ``maxaffine`` command.
"""

from .convex_core import (CircumscriptionError, Domain, DomainError,
                          MetricError, NumericsError, PiecewiseAffineMax,
                          QuadraticForm, SmoothConvexFunction, WeightError,
                          WeightFunction, catalog_entry, hessian_fd_check,
                          is_circumscribed, max_violation, sup_gap,
                          tangent_planes)
from .quadrature import ErrorReport, QuadratureSpec, integrate
from .quantizer import (PointSet, QuantizerConfig, brute_force_1d, quantize,
                        quantizer_objective, whiten)
from .functionals import (ZadorConstant, hexagonal_moment, theoretical_limit,
                          weighted_mass, zador_closed_form_1d, zador_estimate,
                          zador_reference)
from .approximator import (Allocation, Partition, STRATEGIES,
                           allocate_budget, build_approximation,
                           exact_1d_optimal, optimal_tangent_abscissas_1d,
                           partition_domain)
from .error_eval import exact_1d_piecewise_integral, weighted_lp_error
from .sweep import SweepOutcome, SweepRecord, run_sweep, spearman_trend
from .dual_ma import (GridFunction, SupportRestriction,
                      dual_approximation_sweep, legendre_transform,
                      monge_ampere_det, monge_ampere_subgradient,
                      weighted_affine_surface)
from .harness_cli import (ConfigError, FitResult, emit, fit_limit, main,
                          parse_config, parse_records, validate_config)

__version__ = "0.1.0"

__all__ = [
    "Allocation", "CircumscriptionError", "ConfigError",
    "Domain", "DomainError", "ErrorReport", "FitResult", "GridFunction",
    "MetricError", "NumericsError", "Partition", "PiecewiseAffineMax",
    "PointSet", "QuadraticForm", "QuadratureSpec", "QuantizerConfig",
    "STRATEGIES", "SmoothConvexFunction", "SupportRestriction",
    "SweepOutcome", "SweepRecord", "WeightError", "WeightFunction",
    "ZadorConstant", "allocate_budget", "brute_force_1d",
    "build_approximation", "catalog_entry", "dual_approximation_sweep",
    "emit", "exact_1d_optimal",
    "exact_1d_piecewise_integral", "fit_limit", "hessian_fd_check",
    "hexagonal_moment", "integrate", "is_circumscribed",
    "legendre_transform", "main", "max_violation", "monge_ampere_det",
    "monge_ampere_subgradient", "optimal_tangent_abscissas_1d",
    "parse_config", "parse_records", "partition_domain", "quantize",
    "quantizer_objective", "run_sweep", "spearman_trend", "sup_gap",
    "tangent_planes", "theoretical_limit", "validate_config",
    "weighted_affine_surface", "weighted_lp_error", "weighted_mass",
    "whiten", "zador_closed_form_1d", "zador_estimate", "zador_reference",
]
