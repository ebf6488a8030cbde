import math

import pytest

from bbmlab.drift import CBAR_CRITICAL
from bbmlab.oscillator import SpectralBasis, default_y_grid, trapezoid_weights
from bbmlab.pipeline import make_config, rate_report, selfsimilar_run


@pytest.fixture(scope="session")
def y_grid():
    return default_y_grid()


@pytest.fixture(scope="session")
def weights(y_grid):
    return trapezoid_weights(y_grid.size, y_grid[1] - y_grid[0])


@pytest.fixture(scope="session")
def basis12(y_grid):
    return SpectralBasis(y_grid, 12)


def _run(cbar):
    import time
    t0 = time.perf_counter()
    cfg = make_config({"cbar": cbar})
    traj, series = selfsimilar_run(cfg)
    report = rate_report(traj, series, cfg["fit.window"])
    report["wall_seconds"] = time.perf_counter() - t0
    return traj, series, report


@pytest.fixture(scope="session")
def run_critical():
    return _run(CBAR_CRITICAL)


@pytest.fixture(scope="session")
def run_cbar0():
    return _run(0.0)


@pytest.fixture(scope="session")
def run_cbar10():
    return _run(10.0)


def _killed_density(t, x, y, c):
    def heat(z):
        return math.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)
    return math.exp(c * (y - x) / 2.0 - c * c * t / 4.0) * (heat(y - x) - heat(y + x))


@pytest.fixture(scope="session")
def killed_density():
    """f(t, x, y, c): the density at y of variance-2 Brownian motion with
    drift c from x, killed at 0 (the method of images)."""
    return _killed_density
