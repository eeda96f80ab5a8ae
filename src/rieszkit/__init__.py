"""rieszkit: high-order Riesz fractional derivative approximations and
Crank-Nicolson schemes for the fractional turbulent diffusion equation."""

from .analysis import (
    BoundCheckRecord,
    SymbolScan,
    alpha_limit_order4,
    bound_families,
    check_symbol_nonnegativity,
    evaluate_bounds,
    monotonicity_scan,
    symbol_values,
)
from .coefficients import (
    CoefficientTable,
    GeneratorPolynomial,
    closed_form_table,
    expand_generating_function,
    first_order_sequence,
    generator_polynomial,
)
from .reports import ConvergenceReport, ConvergenceRow
from .riesz import (
    operator_convergence,
    point_approximation,
    poly_profile,
    reference_riesz,
    riesz_apply,
)
from .solver import (
    ProblemSpec,
    SchemeMatrices,
    SolutionGrid,
    SolverError,
    assemble,
    builtin_problem,
    convergence_study,
    solve,
    step,
)
from .stability import (
    AmplificationQuery,
    StabilityReport,
    amplification_factor,
    stability_scan,
)

__version__ = "0.1.0"
