"""Shared fixtures: expensive solver runs reused across test modules."""

import warnings

import pytest

from maxcool import spectral as sp


@pytest.fixture(scope="session")
def steady_e09():
    """Stationary rescaled profile at e = 0.9 (n=2048, x_max=40)."""
    grid = sp.RadialGrid(2048, 40.0)
    cfg = sp.SolverConfig(dt=0.01, t_max=200.0, frame="rescaled-g")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sp.steady_profile(0.9, config=cfg, tol=1e-7, grid=grid)
