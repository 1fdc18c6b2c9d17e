import pytest
from hypothesis import settings

from poolshrink.risksim import simulate_risk, table1_preset

ACCEPTANCE_REPLICATIONS = 100_000
ACCEPTANCE_SEED = 2024

# Property tests run a fixed, derandomized set of examples with no deadline,
# so the suite is reproducible and independent of machine load.
settings.register_profile("poolshrink", derandomize=True, deadline=None, database=None)
settings.load_profile("poolshrink")


@pytest.fixture(scope="session")
def table1_reports():
    """The full benchmark run shared by the acceptance criteria: label ->
    RiskReport at 10^5 replications."""
    jobs = table1_preset(replications=ACCEPTANCE_REPLICATIONS, seed=ACCEPTANCE_SEED)
    return {label: simulate_risk(plan) for label, plan in jobs}
