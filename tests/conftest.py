import os
from pathlib import Path

import pytest

from hypflats import analytic, montecarlo

# the tests that start a fresh interpreter (the CLI's determinism and import
# cost) import the package from this checkout too, installed or not
SRC = Path(__file__).resolve().parents[1] / "src"
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


@pytest.fixture(autouse=True)
def fresh_memos():
    # the unit-curvature laws (with their radial masses), rho's integrals and
    # the Monte Carlo samplers are memoised; clearing them makes a test that
    # counts or patches quadrature calls, or reads a sampler's proposal
    # counters, see the same calls whatever ran before it
    analytic._unit_law.cache_clear()
    analytic._rho_integral.cache_clear()
    montecarlo._get_sampler.cache_clear()
    yield


@pytest.fixture
def radial_mass_calls(monkeypatch):
    """The arguments of every analytic._radial_mass_parts call in the test:
    the unit-curvature law is its only caller in a configuration's functions."""
    calls = []
    parts = analytic._radial_mass_parts

    def spy(*args):
        calls.append(args)
        return parts(*args)

    monkeypatch.setattr(analytic, "_radial_mass_parts", spy)
    return calls
