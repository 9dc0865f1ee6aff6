"""Shared fixtures (expensive solver runs reused across test modules) and helpers."""

import warnings

import numpy as np
import pytest

from maxcool import spectral as sp


def _filled_plan(positions, n, h):
    """An `_InterpPlan` with every one of the (flattened) positions filled.

    The oracle of the full evaluation, every query gathered, the tail
    included, that each tail skip must reproduce bit for bit.
    """
    p = np.asarray(positions, dtype=float).ravel()
    plan = sp._InterpPlan(len(p), n, h)
    plan.fill(p)
    return plan


@pytest.fixture(scope="session")
def steady_e09():
    """Stationary rescaled profile at e = 0.9 (n=2048, x_max=40)."""
    grid = sp.RadialGrid(2048, 40.0)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return sp.steady_profile(0.9, tol=1e-7, grid=grid)


@pytest.fixture
def read_series():
    """Reader of a `dsmc.save_series` CSV: (column names, body), '#' lines skipped."""
    def read(path):
        with open(path, "r", encoding="utf-8") as fh:
            lines = [ln for ln in fh.read().splitlines() if not ln.startswith("#")]
        return lines[0].split(","), np.loadtxt(lines[1:], delimiter=",", ndmin=2)

    return read
