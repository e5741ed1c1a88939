import pytest

from hypflats import analytic


@pytest.fixture(autouse=True)
def fresh_radial_mass_cache():
    # log_radial_mass is memoised; clearing it makes a test that counts or
    # patches quadrature calls see the same calls whatever ran before it
    analytic.log_radial_mass.cache_clear()
    yield
