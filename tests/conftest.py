import numpy as np
import pytest

from hbfourier.measure import (
    PiecewiseLinearDensity,
    StieltjesMeasure,
    from_fejer,
    from_pd_profile,
)


@pytest.fixture
def no_large_linspace(monkeypatch):
    """np.linspace refusing more than 1e5 points: a scan over its budget must refuse before its grid."""
    linspace = np.linspace

    def small(start, stop, num=50, **kwargs):
        assert num <= 100_000, "np.linspace reached before the budget check"
        return linspace(start, stop, num, **kwargs)

    monkeypatch.setattr(np, "linspace", small)


@pytest.fixture
def no_large_arange(monkeypatch):
    """np.arange refusing a float grid of more than 1e7 points: a grid whose size
    follows the unit of x, not the problem, fails here instead of allocating."""
    arange = np.arange

    def small(*args, **kwargs):
        if any(isinstance(a, float) for a in args):
            start, stop, step = {1: (0.0, args[0], 1.0), 2: (*args, 1.0), 3: args}[len(args)]
            assert (stop - start) / step <= 1e7, "np.arange asked for a float grid over 1e7 points"
        return arange(*args, **kwargs)

    monkeypatch.setattr(np, "arange", small)


@pytest.fixture
def fejer2():
    """Atoms {0.5@1, 0.5@2}, sigma = 2: C(x) = (1 + cos x)/2."""
    return from_fejer(2, 1.0, 1.0)


@pytest.fixture
def unit_density():
    """g = 1 on [0, 1]."""
    return StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0]))


@pytest.fixture
def ramp_density():
    """g(t) = t on [0, 1]."""
    return StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0]))


@pytest.fixture
def triangle_case2():
    """Triangular profile with jump -1/2 at sigma: total mass 1/2, left limit 1."""
    return from_pd_profile([0.0, 1.0], [1.0, 0.0], -0.5)


@pytest.fixture
def two_unit_atoms():
    """F(z) = 1 + e^{iz}: real zeros at odd multiples of pi."""
    return StieltjesMeasure(1.0, ((0.0, 1.0), (1.0, 1.0)))


@pytest.fixture
def sign_breaking_atoms():
    """F(z) = 2 - e^{iz}: both grid hypotheses fail; one zero at -i ln 2."""
    return StieltjesMeasure(1.0, ((0.0, 2.0), (1.0, -1.0)))


def random_atomic_measure(rng, max_atoms=5, sigma_range=(0.5, 4.0)):
    sigma = float(rng.uniform(*sigma_range))
    n = int(rng.integers(1, max_atoms + 1))
    locs = np.sort(rng.uniform(0.0, sigma, size=n))
    while len(np.unique(locs)) != n:
        locs = np.sort(rng.uniform(0.0, sigma, size=n))
    jumps = rng.uniform(-3.0, 3.0, size=n)
    jumps[np.abs(jumps) < 1e-3] = 1.0
    return StieltjesMeasure(sigma, tuple(zip(locs, jumps)))
