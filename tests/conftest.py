import pytest

from hypflats import analytic, montecarlo


@pytest.fixture(autouse=True)
def fresh_memos():
    # the unit-curvature laws, the radial masses and the Monte Carlo samplers
    # are memoised; clearing them makes a test that counts or patches
    # quadrature calls, or reads a sampler's proposal counters, see the same
    # calls whatever ran before it
    analytic._unit_law.cache_clear()
    analytic.log_radial_mass.cache_clear()
    montecarlo._get_sampler.cache_clear()
    yield
