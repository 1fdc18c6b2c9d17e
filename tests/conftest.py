import numpy as np
import pytest
from hypothesis import settings

from poolshrink.model import ModelSpec
from poolshrink.risksim import simulate_many, table1_preset

ACCEPTANCE_REPLICATIONS = 100_000
ACCEPTANCE_SEED = 2024

# Property tests run a fixed, derandomized set of examples with no deadline,
# so the suite is reproducible and independent of machine load.
settings.register_profile("poolshrink", derandomize=True, deadline=None, database=None)
settings.load_profile("poolshrink")


@pytest.fixture(scope="session")
def table1_reports():
    """The full benchmark run shared by the acceptance criteria: label ->
    RiskReport at 10^5 replications, from one engine call."""
    jobs = table1_preset(replications=ACCEPTANCE_REPLICATIONS, seed=ACCEPTANCE_SEED)
    reports = simulate_many([plan for _, plan in jobs])
    return {label: report for (label, _), report in zip(jobs, reports)}


@pytest.fixture(scope="session")
def dense_spec():
    """A dense p = 20, k = 6 model with scattered means: V_i = s_i (I + W W'
    / 2p) and Q the inverse of one more such matrix."""
    rng = np.random.default_rng(0)
    p, k = 20, 6

    def spd(scale):
        w = rng.standard_normal((p, p))
        return scale * (np.eye(p) + w @ w.T / (2.0 * p))

    V = tuple(spd(0.5 + 0.25 * i) for i in range(k))
    Q = np.linalg.inv(spd(0.5))
    mu = tuple(rng.normal(0.0, 1.0, p) for _ in range(k))
    return ModelSpec(p=p, k=k, n=30, V=V, Q=0.5 * (Q + Q.T), sigma2=1.5, mu=mu)
