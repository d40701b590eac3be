"""No verdict depends on the units of mu.

Scaling mu by 2^k scales every transform by exactly 2^k.  The sigma twin of mu
(t -> 2^k t, sigma -> 2^k sigma, density values / 2^k) has the transform
x -> F(2^k x), so it shows at x / 2^k what mu shows at x, again exactly.  Both
are exact in binary, so a verdict that changes under either comes from a
threshold that does not follow the scale of its quantity.
"""

import functools
import math

import numpy as np
import pytest

from hbfourier.inequality import OmegaConfig, check_inequality, default_grid, fit_equality_witness
from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_monomial_density, from_pd_profile
from hbfourier.zeros import Rectangle, _reflected_on_grid, check_derivative_hb, classify

MEASURES = {
    "fejer2": lambda: from_fejer(2, 1.0, 1.0),
    "monomial": lambda: from_monomial_density(1.5, 0.8),
    "pd-profile": lambda: from_pd_profile([0.0, 1.0], [1.0, 0.0], 0.3),
    # scenarios/root_at_zero.json
    "root-at-zero": lambda: StieltjesMeasure(
        1.0, ((1.0, -1.0),), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])
    ),
}
#: (n, tau) of every family; OmegaConfig admits each or not
CONFIGS = ((0, 0.0), (0, 0.3), (0, -0.3), (1, -math.pi / 2), (-1, -math.pi / 2))


def _twin(m: StieltjesMeasure, k: int) -> StieltjesMeasure:
    f = 2.0**k
    dens = m.density
    if dens is not None:
        dens = PiecewiseLinearDensity(
            tuple(f * t for t in dens.nodes), tuple(v / f for v in dens.left), tuple(v / f for v in dens.right)
        )
    return StieltjesMeasure(f * m.sigma, tuple((f * t, c) for t, c in m.atoms), dens)


def _verdicts(m: StieltjesMeasure, unit: float = 1.0, hypothesis_grid: bool = True) -> dict:
    """Every verdict on m, with x measured in `unit`: grids and rectangles are
    those of unit 1 divided by unit, and located points are multiplied back.
    Without `hypothesis_grid`, the checks that scan the C, S >= 0 grid are left out."""
    out = {}
    for n, tau in CONFIGS:
        try:
            cfg = OmegaConfig(m, n, tau)
        except ValueError:
            out[n, tau] = "refused"
            continue
        grid = default_grid(cfg, -30.0 / unit, 30.0 / unit)
        rep = check_inequality(cfg, grid)
        out[n, tau] = (rep.hypothesis_ok, rep.global_equality, fit_equality_witness(cfg, grid) is None)
        out["points", n, tau] = np.array(rep.equality_points) * unit
    rect = Rectangle(-20.0 / unit, 20.0 / unit, -6.0 / unit, -1e-3 / unit)
    for order in (1, 2):
        out["derivative", order] = check_derivative_hb(m, order, rect).ok
    if hypothesis_grid:
        c = classify(m, rect)
        out["classify"] = (c.verdict, c.c_nonneg, c.s_nonneg, tuple(mult for _, mult in c.real_zeros))
        out["points", "classify"] = np.array([x for x, _ in c.real_zeros]) * unit
        out["hypothesis grid"] = _reflected_on_grid(m)
    return out


@functools.cache
def _reference(name: str) -> dict:
    return _verdicts(MEASURES[name]())


def _assert_same(got: dict, want: dict, sigma: float):
    assert got.keys() <= want.keys()
    for key, value in got.items():
        if key[0] == "points":
            # root-at-zero has an equality point at x = 0 to within rounding,
            # so points are compared relative to |x| or to the length 1 / sigma
            np.testing.assert_allclose(value, want[key], rtol=1e-9, atol=1e-9 / sigma, err_msg=str(key))
        else:
            assert value == want[key], key


@pytest.mark.parametrize("k", [-40, -20, 20, 40])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_scaling_mu_keeps_every_verdict(name, k):
    m = MEASURES[name]()
    _assert_same(_verdicts(m.scaled(2.0**k)), _reference(name), m.sigma)


@pytest.mark.parametrize("k", [-10, -4, 4, 10])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_sigma_twin_keeps_every_verdict(name, k):
    # the C, S >= 0 grid spans [0, 20 pi max(1, 1 / sigma)), so it grows to
    # 1000 sigma points for sigma > 1; on 2049 panels and sigma = 1024 that
    # scan takes minutes
    hypothesis_grid = not (name == "monomial" and k == 10)
    m = MEASURES[name]()
    _assert_same(_verdicts(_twin(m, k), 2.0**k, hypothesis_grid), _reference(name), m.sigma)
