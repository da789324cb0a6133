import numpy as np
import pytest

import pulsefront.classify as classify
from pulsefront.model import (
    BevertonHoltGrowth,
    IdentityImpulse,
    InitialData,
    LinearGrowth,
    LinearImpulse,
    ModelParams,
    SaturatingImpulse,
)
from pulsefront.presets import base_params_cd
from pulsefront.solver import SolverConfig

# acceptance criterion 10's search, as (search, mu2, n, steps per period,
# bracket, tol, t_end); the certificate test runs it too
CRITERION10_SEARCH = ("mu2", 1.0, 256, 1000, (1.0, 10.0), 0.3, None)


@pytest.fixture
def params_benchmark() -> ModelParams:
    """The shared coefficient set of the reference scenarios, no disinfection."""
    return ModelParams(
        d1=0.1, d2=0.4, a11=0.3, a12=0.5, a22=0.1, mu1=10.0, mu2=15.0,
        h0=2.0, tau=5.0,
        growth=BevertonHoltGrowth(m=1.0, a=10.0),
        impulse=IdentityImpulse(),
    )


@pytest.fixture
def params_disinfected(params_benchmark) -> ModelParams:
    return params_benchmark.with_(impulse=SaturatingImpulse(c=0.5, b=10.0))


@pytest.fixture
def init_cos() -> InitialData:
    return InitialData.cos_quarter(2.0, 0.3, 0.1)


def random_valid_params(rng: np.random.Generator, interval=True):
    """Log-uniform coefficient draw in [0.01, 10] with a random impulse slope,
    tau in [0.5, 10]; returns (params, interval length in [1, 100])."""
    d1, d2, a11, a12, a22, fp0 = np.exp(rng.uniform(np.log(0.01), np.log(10.0), 6))
    gp0 = float(rng.uniform(0.01, 1.0))
    impulse = IdentityImpulse() if gp0 >= 0.999 else LinearImpulse(rho=gp0)
    p = ModelParams(
        d1=float(d1), d2=float(d2), a11=float(a11), a12=float(a12), a22=float(a22),
        mu1=1.0, mu2=1.0, h0=1.0, tau=float(rng.uniform(0.5, 10.0)),
        growth=LinearGrowth(p=float(fp0)), impulse=impulse,
    )
    if not interval:
        return p
    return p, float(rng.uniform(1.0, 100.0))


def certified_search(search, mu2, n, steps, bracket, tol, t_end):
    """A threshold search on base_params_cd(mu2) from cos-quarter(2, 0.3, 0.1)
    with the vanishing certificate spied on; returns the ThresholdResult and
    the trajectories the certificate stopped."""
    certified = []
    real_certificate = classify._vanishing_certificate

    def spied_certificate(traj, params, upper):
        certificate = real_certificate(traj, params, upper)
        if certificate is not None:
            certified.append(traj)
        return certificate

    params, init = base_params_cd(mu2), InitialData.cos_quarter(2.0, 0.3, 0.1)
    find = classify.find_mu_threshold if search == "mu2" else classify.find_kappa_threshold
    cfg = SolverConfig(n=n, steps_per_period=steps)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(classify, "_vanishing_certificate", spied_certificate)
        result = find(params, init, cfg, bracket, tol, t_end=t_end)
    return result, certified


@pytest.fixture(scope="session")
def criterion10_search():
    """Criterion 10's search, run once a session for both tests that read it;
    the certificate test advances the certified trajectories in place."""
    return certified_search(*CRITERION10_SEARCH)
