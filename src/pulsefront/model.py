"""Model definition: coefficients, growth and disinfection families, initial data.

The model couples a bacteria density u and an infected-individual density v on
a moving interval (g(t), h(t)).  Between disinfection events the pair obeys

    u_t = d1 u_xx - a11 u + a12 v,
    v_t = d2 v_xx - a22 v + f(u),

with u = v = 0 at the fronts and Stefan-type front motion
h' = -mu1 u_x - mu2 v_x (same combination at g).  Every tau time units the
bacteria density is reset pointwise, u <- G(u), while v is untouched.

Growth f and disinfection response G are closed enumerations rather than
arbitrary callables so that f'(0), G'(0) and the quadratic lower-bound
constants are available in closed form; the eigenvalue routines depend on
exact slopes.  Each growth family also writes f(u) into a given buffer, for
the solver's step, and gives the Taylor coefficients of f(U(t)) from those
of U(t), for the homogeneous period map's integrator.  The family
constructors admit only the shapes of A2-A4 (0 < f'(0), f(u)/u
non-increasing; 0 < G(u) <= u, G non-decreasing; a positive finite H), so
only A1 and the asymptotic slope margin are checked.
"""

from __future__ import annotations

import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from typing import Callable, Union

import numpy as np

from .errors import ConfigurationError

__all__ = [
    "LinearGrowth",
    "BevertonHoltGrowth",
    "GrowthFn",
    "IdentityImpulse",
    "LinearImpulse",
    "SaturatingImpulse",
    "ImpulseFn",
    "ModelParams",
    "COEFFICIENTS",
    "InitialData",
    "AssumptionCheck",
    "ValidationReport",
    "validate_assumptions",
    "density_bounds",
]


# ---------------------------------------------------------------------------
# growth family


@dataclass(frozen=True)
class LinearGrowth:
    """f(u) = p*u."""

    p: float

    kind = "linear"

    def __post_init__(self):
        if not 0 < self.p < math.inf:
            raise ConfigurationError(f"linear growth slope must be positive and finite, got p={self.p}")

    def __call__(self, u):
        return self.p * u

    def into(self, u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """f(u) written to ``out``, bit for bit; ``scratch`` is unused."""
        return np.multiply(self.p, u, out=out)

    def taylor_term(self, us: list[float], aux: list[float]) -> float:
        """Taylor coefficient F_k = p U_k of f(U(t)), k = len(us) - 1; ``aux`` is unused."""
        return self.p * us[-1]

    @property
    def slope_at_zero(self) -> float:
        return self.p

    @property
    def slope_at_infinity(self) -> float:
        """Limit of f(u)/u as u grows; equals the slope for the linear family."""
        return self.p

    def lower_bound_constants(self) -> tuple[float, float]:
        """(H, kappa) with f(u) >= f'(0)u - H u^kappa for all u >= 0.

        Any positive H works for a linear f; a fixed H keeps the validator
        deterministic.
        """
        return 1.0, 2.0


@dataclass(frozen=True)
class BevertonHoltGrowth:
    """f(u) = m*u / (a + u), saturating infection response."""

    m: float
    a: float

    kind = "beverton-holt"

    def __post_init__(self):
        # H = m/a^2 = f'(0)/a in (0, inf) keeps f'(0) = m/a from rounding to 0 or overflowing
        if not (self.m > 0 and self.a > 0 and 0 < self.m / self.a / self.a < math.inf):
            raise ConfigurationError(
                "Beverton-Holt growth needs m>0, a>0 and m/a, m/a^2 positive and finite, "
                f"got m={self.m}, a={self.a}"
            )

    def __call__(self, u):
        return self.m * u / (self.a + u)

    def into(self, u: np.ndarray, out: np.ndarray, scratch: np.ndarray) -> np.ndarray:
        """f(u) written to ``out``, bit for bit, with a + u formed in ``scratch``."""
        np.multiply(self.m, u, out=out)
        return np.divide(out, np.add(self.a, u, out=scratch), out=out)

    def taylor_term(self, us: list[float], aux: list[float]) -> float:
        """Taylor coefficient F_k = m q_k of f(U(t)), k = len(us) - 1, for q = U/(a + U):
        (a + U_0) q_k = U_k - sum_{j=1..k} U_j q_{k-j}.  ``aux`` holds q_0..q_{k-1} on
        entry and gains q_k."""
        k = len(us) - 1
        total = us[k]
        for j in range(1, k + 1):
            total -= us[j] * aux[k - j]
        aux.append(total / (self.a + us[0]))
        return self.m * aux[k]

    @property
    def slope_at_zero(self) -> float:
        return self.m / self.a

    @property
    def slope_at_infinity(self) -> float:
        return 0.0

    def lower_bound_constants(self) -> tuple[float, float]:
        # m*u/(a+u) - [(m/a)u - (m/a^2)u^2] = m u^3 / (a^2 (a+u)) >= 0 on u >= 0;
        # dividing by a twice cannot underflow a^2 to a zero divisor
        return self.m / self.a / self.a, 2.0


GrowthFn = Union[LinearGrowth, BevertonHoltGrowth]


# ---------------------------------------------------------------------------
# disinfection (impulse) family


@dataclass(frozen=True)
class IdentityImpulse:
    """G(u) = u: explicit no-intervention mode."""

    kind = "identity"

    def __call__(self, u):
        return u

    @property
    def slope_at_zero(self) -> float:
        return 1.0

    def lower_bound_constants(self) -> tuple[float, float]:
        return 1.0, 2.0


@dataclass(frozen=True)
class LinearImpulse:
    """G(u) = rho*u with 0 < rho <= 1."""

    rho: float

    kind = "linear"

    def __post_init__(self):
        if not (0.0 < self.rho <= 1.0):
            raise ConfigurationError(f"linear impulse needs 0 < rho <= 1, got rho={self.rho}")

    def __call__(self, u):
        return self.rho * u

    @property
    def slope_at_zero(self) -> float:
        return self.rho

    def lower_bound_constants(self) -> tuple[float, float]:
        return 1.0, 2.0


@dataclass(frozen=True)
class SaturatingImpulse:
    """G(u) = c*u / (b + u) with 0 < c < b, so G(u) < u and G'(0) = c/b < 1."""

    c: float
    b: float

    kind = "saturating"

    def __post_init__(self):
        # as for Beverton-Holt growth: G'(0) = c/b and H = c/b^2 must not round to 0
        if not (0.0 < self.c < self.b and 0 < self.c / self.b / self.b < math.inf):
            raise ConfigurationError(
                "saturating impulse needs 0 < c < b and c/b, c/b^2 positive and finite, "
                f"got c={self.c}, b={self.b}"
            )

    def __call__(self, u):
        return self.c * u / (self.b + u)

    @property
    def slope_at_zero(self) -> float:
        return self.c / self.b

    def lower_bound_constants(self) -> tuple[float, float]:
        return self.c / self.b / self.b, 2.0


ImpulseFn = Union[IdentityImpulse, LinearImpulse, SaturatingImpulse]


# ---------------------------------------------------------------------------
# parameters and initial data


@dataclass(frozen=True)
class ModelParams:
    """All model coefficients.

    d1, d2      diffusion of bacteria / infecteds      (length^2 / time)
    a11, a22    decay of bacteria / infecteds          (1 / time)
    a12         bacteria growth fed by infecteds       (1 / time)
    mu1, mu2    expansion capacities in the front law  (length^2 / (time*density))
    h0          initial half-width of the interval     (length)
    tau         disinfection period                    (time)

    Construction enforces the structural sign conditions, among them a
    coupling a12*f'(0) that is a positive float (the eigenvalue routines
    divide by it), and the growth and impulse constructors the shapes of
    A2-A4.  The asymptotic slope condition lim f(u)/u < a11*a22/a12 couples
    the growth to the coefficients; it is checked by ``validate_assumptions``
    so that parameter sets violating it can still be constructed and
    reported on.
    """

    d1: float
    d2: float
    a11: float
    a12: float
    a22: float
    mu1: float
    mu2: float
    h0: float
    tau: float
    growth: GrowthFn = field(default_factory=lambda: LinearGrowth(p=0.05))
    impulse: ImpulseFn = field(default_factory=IdentityImpulse)

    def __post_init__(self):
        infinite = [k for k in COEFFICIENTS if not math.isfinite(getattr(self, k))]
        if infinite:
            raise ConfigurationError(f"fields must be finite: {', '.join(infinite)}")
        bad = [k for k in COEFFICIENTS if k not in ("mu1", "mu2") and not getattr(self, k) > 0]
        if bad:
            raise ConfigurationError(f"fields must be strictly positive: {', '.join(bad)}")
        if not self.h0 <= 0.5 * sys.float_info.max:
            raise ConfigurationError(f"h0={self.h0:g} is too large: the width 2*h0 is not finite")
        if self.mu1 < 0 or self.mu2 < 0:
            raise ConfigurationError("expansion capacities mu1, mu2 must be non-negative")
        if not self.mu1 + self.mu2 > 0:
            raise ConfigurationError("mu1 + mu2 must be positive: some species must push the front")
        fp0 = self.growth.slope_at_zero
        if not self.a12 * fp0 > 0:
            raise ConfigurationError(f"a12*f'(0) rounds to 0: a12={self.a12:g}, f'(0)={fp0:g}")

    def with_(self, **changes) -> "ModelParams":
        return replace(self, **changes)


# the nine scalar coefficients, in declaration order: the configuration's
# "model" keys besides growth and impulse, and the sweep axes
COEFFICIENTS = tuple(f.name for f in fields(ModelParams) if f.type == "float")


@dataclass(frozen=True)
class InitialData:
    """Initial density profiles on [-h0, h0], zero at the endpoints."""

    u0: Callable[[np.ndarray], np.ndarray]
    v0: Callable[[np.ndarray], np.ndarray]

    @classmethod
    def cos_quarter(cls, h0: float, amp_u: float, amp_v: float) -> "InitialData":
        """A*cos(pi*x/(2*h0)) humps, the standard smooth compactly supported seed."""
        if not (0 < amp_u < math.inf and 0 < amp_v < math.inf):
            raise ConfigurationError(
                f"cos-quarter amplitudes must be finite and positive, got {amp_u}, {amp_v}"
            )
        half = float(h0)

        def u0(x):
            return amp_u * np.cos(np.pi * np.asarray(x, dtype=float) / (2 * half))

        def v0(x):
            return amp_v * np.cos(np.pi * np.asarray(x, dtype=float) / (2 * half))

        return cls(u0=u0, v0=v0)

    @classmethod
    def from_table(cls, x: np.ndarray, u: np.ndarray, v: np.ndarray) -> "InitialData":
        """Tabulated profiles; linear interpolation between samples."""
        x = np.asarray(x, dtype=float)
        u = np.asarray(u, dtype=float)
        v = np.asarray(v, dtype=float)
        if x.ndim != 1 or x.size < 2 or np.any(np.diff(x) <= 0):
            raise ConfigurationError("tabulated x must be strictly increasing with >= 2 samples")
        if u.shape != x.shape or v.shape != x.shape:
            raise ConfigurationError("tabulated u, v must match the x sample count")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(u)) and np.all(np.isfinite(v))):
            raise ConfigurationError("tabulated x, u, v must be finite (no NaN or infinity)")
        return cls(
            u0=lambda q: np.interp(np.asarray(q, dtype=float), x, u),
            v0=lambda q: np.interp(np.asarray(q, dtype=float), x, v),
        )

    def scaled(self, factor_u: float, factor_v: float) -> "InitialData":
        """Pointwise rescaling, used by comparison tests and threshold searches."""
        u0, v0 = self.u0, self.v0
        return InitialData(u0=lambda x: factor_u * u0(x), v0=lambda x: factor_v * v0(x))

    def sample(self, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        x = np.asarray(x, dtype=float)
        return np.asarray(self.u0(x), dtype=float), np.asarray(self.v0(x), dtype=float)


# ---------------------------------------------------------------------------
# assumption validation

VALIDATION_SAMPLES = 1000


@dataclass(frozen=True)
class AssumptionCheck:
    label: str
    passed: bool
    informational: bool
    detail: str


@dataclass(frozen=True)
class ValidationReport:
    checks: tuple[AssumptionCheck, ...]

    @property
    def all_pass(self) -> bool:
        """True when no hard failure is present; informational flags do not count."""
        return all(c.passed or c.informational for c in self.checks)

    def failures(self) -> tuple[AssumptionCheck, ...]:
        return tuple(c for c in self.checks if not c.passed and not c.informational)

    def to_json_dict(self) -> dict:
        return {"all_pass": self.all_pass, "checks": [asdict(c) for c in self.checks]}


def validate_assumptions(params: ModelParams, init: InitialData) -> ValidationReport:
    """Check the admissibility conditions A1-A4 and report each one.

    The initial profiles are data, so A1 is sampled on VALIDATION_SAMPLES
    points of [-h0, h0].  The shapes of f and G in A2-A4 hold by
    construction of their families; of A2 only the asymptotic slope margin
    lim f(u)/u < a11*a22/a12 is checked, and A3 flags the identity-like
    responses informationally.  Failures are reported, never raised.  A pure
    function of its inputs.
    """
    checks: list[AssumptionCheck] = []

    # A1: initial profiles vanish at the endpoints and are positive inside.
    xs = np.linspace(-params.h0, params.h0, VALIDATION_SAMPLES)
    u0, v0 = init.sample(xs)
    end_tol = 1e-9 * max(float(np.max(np.abs(u0))), float(np.max(np.abs(v0))), 1e-300)
    ends_ok = (
        abs(float(u0[0])) <= end_tol
        and abs(float(u0[-1])) <= end_tol
        and abs(float(v0[0])) <= end_tol
        and abs(float(v0[-1])) <= end_tol
    )
    interior_ok = bool(np.all(u0[1:-1] > 0) and np.all(v0[1:-1] > 0))
    checks.append(
        AssumptionCheck(
            "A1: initial data",
            ends_ok and interior_ok,
            False,
            "u0, v0 vanish at +-h0 and are positive inside"
            if ends_ok and interior_ok
            else "endpoint zeros or interior positivity violated",
        )
    )

    # A2: the asymptotic slope margin; f(0) = 0 < f'(0) and a non-increasing
    # f(u)/u hold by construction
    f = params.growth
    slope_cap = params.a11 * params.a22 / params.a12
    checks.append(
        AssumptionCheck(
            "A2: growth function",
            f.slope_at_infinity < slope_cap,
            False,
            f"limit of f(u)/u is {f.slope_at_infinity:.6g}, bound a11*a22/a12 = {slope_cap:.6g}",
        )
    )

    # A3: 0 < G(u) <= u and a non-decreasing G hold by construction.  For these
    # concave families G(u)/u < 1 fails exactly when G'(0) = 1, the identity
    # response, which is flagged informationally as no-intervention.
    G = params.impulse
    identity_like = G.slope_at_zero == 1.0
    checks.append(
        AssumptionCheck(
            "A3: impulse function",
            not identity_like,
            identity_like,
            "no-intervention mode: G(u)/u = 1 violates the strict bound"
            if identity_like
            else "0 < G(u) < u and G non-decreasing",
        )
    )

    # A4: rho(u) >= rho'(0)u - H u^kappa with the family's closed-form constants
    details = [
        f"{name}: H={H:.6g}, kappa={kappa:g}, ok"
        for name, (H, kappa) in (("f", f.lower_bound_constants()), ("G", G.lower_bound_constants()))
    ]
    checks.append(AssumptionCheck("A4: lower-bound constants", True, False, "; ".join(details)))

    return ValidationReport(checks=tuple(checks))


def density_bounds(params: ModelParams, densities: np.ndarray | None = None) -> tuple[float, float]:
    """Uniform supersolution constants (C2, C3) dominating (u, v) for all time.

    Built from the decoupled balance f(M) < a11*a22/(a12+eps)*M with a margin;
    requires the asymptotic slope condition, otherwise no uniform bound exists.
    When the initial ``densities`` (rows u, v on the run's nodes) are given,
    the constants also dominate them.
    """
    slope_inf = params.growth.slope_at_infinity
    cap = params.a11 * params.a22 / params.a12
    if slope_inf >= cap:
        raise ConfigurationError(
            "no uniform density bound: lim f(u)/u must stay below a11*a22/a12"
        )
    if slope_inf > 0:
        eps = min(params.a12 / 2, (params.a11 * params.a22 / slope_inf - params.a12) / 2)
    else:
        eps = params.a12 / 2
    target = params.a11 * params.a22 / (params.a12 + eps)
    if not target > 0:  # a12 + eps overflows, or the quotient underflows
        raise ConfigurationError("no uniform density bound: a11*a22/(a12 + eps) rounds to 0")

    # smallest M with f(M)/M below the target, per family
    g = params.growth
    if isinstance(g, LinearGrowth):
        m_shape = 0.0 if g.p < target else math.inf
    else:
        m_shape = max(0.0, g.m / target - g.a)

    m_init = 0.0
    if densities is not None:
        u0, v0 = densities
        m_init = max(float(np.max(u0)), (params.a12 + eps) / params.a11 * float(np.max(v0)))

    M = 1.1 * max(m_shape, m_init, 1.0)
    # u <= M for all time and the numerators m*u, c*u, p*u, rho*u are
    # monotone: finite at M, f and G stay finite along the whole run
    for role, fn in (("growth", params.growth), ("impulse", params.impulse)):
        if not math.isfinite(fn(M)):
            constants = ", ".join(f"{f.name}={getattr(fn, f.name):g}" for f in fields(fn))
            raise ConfigurationError(
                f"{fn.kind} {role} ({constants}) overflows at the density bound C2={M:.6g}"
            )
    c3 = params.a11 * M / (params.a12 + eps)
    if not math.isfinite(c3):
        raise ConfigurationError(
            f"no uniform density bound: C3 = a11*C2/(a12 + eps) overflows at C2={M:.6g}"
        )
    return M, c3
