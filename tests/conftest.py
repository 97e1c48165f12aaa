import pytest
from hypothesis import HealthCheck, settings

from ultradyn import dynamics, spectral

settings.register_profile(
    "suite",
    max_examples=50,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(autouse=True)
def _fresh_analyses():
    """Start each test with empty LinearAnalysis and MapAnalysis interns, so
    a test that counts the work done for a matrix or a map does not see an
    analysis that an earlier test left behind."""
    spectral._interned.cache_clear()
    dynamics._map_analysis.cache_clear()
