"""Free-boundary epidemic dynamics under periodic disinfection impulses."""

from .classify import (
    Classification,
    ThresholdResult,
    Verdict,
    classify_analytic,
    critical_length,
    detect_outcome,
    find_kappa_threshold,
    find_mu_threshold,
)
from .eigen import (
    EigenReport,
    dirichlet_lambda0,
    lambda_at_h0,
    lambda_infinity,
    principal_eigenvalue_monodromy,
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
    validate_assumptions,
)
from .periodic import PeriodicOrbit, fixed_domain_periodic, ode_periodic_orbit
from .solver import (
    SolverConfig,
    TimeSeries,
    Trajectory,
    apply_impulse,
    run,
)

__version__ = "0.1.0"
