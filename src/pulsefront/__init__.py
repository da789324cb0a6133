"""Free-boundary epidemic dynamics under periodic disinfection impulses."""

from .classify import (
    Classification,
    ThresholdResult,
    Verdict,
    analytic_regime,
    classify_analytic,
    critical_length,
    detect_outcome,
    find_kappa_threshold,
    find_mu_threshold,
)
from .eigen import (
    EigenReport,
    RobinEigenReport,
    dirichlet_lambda0,
    eigenfunction_envelope_bounds,
    lambda_at_h0,
    lambda_front,
    lambda_infinity,
    principal_eigenvalue_closed_form,
    principal_eigenvalue_monodromy,
    robin_eigen,
)
from .errors import ConfigurationError, NumericalError, PreconditionError
from .model import (
    BevertonHoltGrowth,
    IdentityImpulse,
    InitialData,
    LinearGrowth,
    LinearImpulse,
    ModelParams,
    SaturatingImpulse,
    ValidationReport,
    density_bounds,
    eval_growth,
    eval_impulse,
    validate_assumptions,
)
from .periodic import PeriodicOrbit, fixed_domain_periodic, ode_periodic_orbit
from .solver import (
    SolverConfig,
    TimeSeries,
    Trajectory,
    apply_impulse,
    run,
    transform_step,
)

__version__ = "0.1.0"
