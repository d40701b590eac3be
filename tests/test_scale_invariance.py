"""No verdict depends on the units of mu, or on the unit of x.

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

from hbfourier import zeros
from hbfourier.inequality import OmegaConfig, check_inequality, default_grid, fit_equality_witness
from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_monomial_density, from_pd_profile
from hbfourier.posdef import _detect_equidistant_steps
from hbfourier.sampling import from_omega_config
from hbfourier.transforms import _bracketed_newton
from hbfourier.zeros import (
    DEFAULT_LOWER_RECT,
    Rectangle,
    _imaginary_zero,
    _reflected_on_grid,
    check_derivative_hb,
    classify,
    find_real_zeros,
    locate_zero,
)

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


def _verdicts(m: StieltjesMeasure, unit: float = 1.0) -> dict:
    """Every verdict on m, with x measured in `unit`: grids and rectangles are
    those of unit 1 divided by unit, and located points are multiplied back."""
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
    rect = _rect(DEFAULT_LOWER_RECT, unit)
    for order in (1, 2):
        out["derivative", order] = check_derivative_hb(m, order, rect).ok
    c = classify(m, rect)
    out["classify"] = (c.verdict, c.c_nonneg, c.s_nonneg, tuple(mult for _, mult in c.real_zeros))
    out["points", "classify"] = np.array([x for x, _ in c.real_zeros]) * unit
    out["hypothesis grid"] = _reflected_on_grid(m)
    return out


def _rect(sides, unit: float = 1.0) -> Rectangle:
    """The rectangle of `sides` (x0, x1, y0, y1) with x measured in `unit`."""
    return Rectangle(*(v / unit for v in sides))


@functools.cache
def _reference(name: str) -> dict:
    return _verdicts(MEASURES[name]())


def _assert_same(got: dict, want: dict, sigma: float):
    assert got.keys() == want.keys()
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


@pytest.mark.usefixtures("no_large_arange")
@pytest.mark.parametrize("k", [-40, -20, -10, -4, 4, 10, 20, 40])
@pytest.mark.parametrize("name", sorted(MEASURES))
def test_sigma_twin_keeps_every_verdict(name, k):
    # every grid and rectangle is that of the reference divided by 2^k, so a
    # grid whose size follows the unit of x trips the fixture
    m = MEASURES[name]()
    _assert_same(_verdicts(_twin(m, k), 2.0**k), _reference(name), m.sigma)


#: the borderline triangle: one zero on the negative imaginary axis, at y* = -1.59
TRIANGLE = from_pd_profile([0.0, 1.0], [1.0, 0.0], -0.5)
#: F = (1 - e^{iz})^2, sigma = 2: a double real zero at every multiple of 2 pi
SQUARE = StieltjesMeasure(2.0, ((0.0, 1.0), (1.0, -2.0), (2.0, 1.0)))


class TestLengthUnit:
    """Every x-length of the package is a constant times 1 / sigma or |x|, so
    each site gives on the sigma twin what it gives on the measure, bit for bit."""

    def test_hypothesis_grid_evaluates_at_most_1000_points(self, monkeypatch):
        # two unit atoms at sigma = 2048, where the grid once had 2.05M points
        atoms = StieltjesMeasure(1.0, ((0.0, 1.0), (1.0, 1.0)))
        want = _reflected_on_grid(atoms)
        evaluator = zeros._grid_moments
        sizes = []
        monkeypatch.setattr(zeros, "_grid_moments", lambda m, z, k: sizes.append(np.size(z)) or evaluator(m, z, k))
        assert _reflected_on_grid(_twin(atoms, 11)) == want
        assert sum(sizes) <= 1000

    @pytest.mark.parametrize("k", [-40, -20])
    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_boundary_floor_follows_the_target(self, name, k):
        m = MEASURES[name]()
        for order in (1, 2):
            want = check_derivative_hb(m, order, _rect(DEFAULT_LOWER_RECT))
            got = check_derivative_hb(_twin(m, k), order, _rect(DEFAULT_LOWER_RECT, 2.0**k))
            assert (got.ok, got.lower_count) == (want.ok, want.lower_count)
            assert got.real_argmin * 2.0**k == want.real_argmin
            assert got.real_min * 2.0 ** (-k * order) == want.real_min

    def test_bracketed_newton_stops_in_the_callers_unit(self):
        # sin(sigma x) has its root pi / sigma in [2, 4] / sigma; sigma = 2^40
        # makes every iterate an exact scaling of those for sigma = 1
        def roots(sigma):
            fn = lambda x, _: (-np.sin(sigma * x), -sigma * np.cos(sigma * x), x)
            return _bracketed_newton(fn, 2.0 / sigma, 4.0 / sigma, 2.0 / sigma, 1.0 / sigma)[0]

        assert roots(2.0**40)[0] * 2.0**40 == roots(1.0)[0] == pytest.approx(math.pi, rel=1e-15)

    def test_imaginary_zero(self):
        assert _imaginary_zero(_twin(TRIANGLE, 40)) * 2.0**40 == _imaginary_zero(TRIANGLE)

    @pytest.mark.parametrize("k", [-30, -20, 24, 30, 40])
    def test_real_zeros(self, k):
        # Fejer-2 has simple zeros at the odd multiples of pi, (1 - e^{iz})^2 a
        # double one at 0
        for m, (a, b) in ((from_fejer(2, 1.0, 1.0), (-20.0, 20.0)), (SQUARE, (-3.0, 3.0))):
            want = find_real_zeros(m, (a, b))
            got = find_real_zeros(_twin(m, k), (a / 2.0**k, b / 2.0**k))
            assert [(x * 2.0**k, mult) for x, mult in got] == want

    @pytest.mark.parametrize("name, n, tau", [("fejer2", 0, 0.0), ("root-at-zero", -1, -math.pi / 2)])
    def test_equality_points(self, name, n, tau):
        def points(m, k):
            cfg = OmegaConfig(m, n, tau)
            return np.array(check_inequality(cfg, default_grid(cfg, -30.0 / 2.0**k, 30.0 / 2.0**k)).equality_points)

        m = MEASURES[name]()
        want = points(m, 0)
        assert want.size >= 8
        np.testing.assert_allclose(points(_twin(m, 40), 40) * 2.0**40, want, rtol=1e-9, atol=1e-9 / m.sigma)

    def test_scales_of_e_p_and_q_carry_x_to_the_n(self):
        def verdicts(m, k):
            cfg = OmegaConfig(m, 1, -math.pi / 2)
            grid = default_grid(cfg, -30.0 / 2.0**k, 30.0 / 2.0**k)
            return check_inequality(cfg, grid).global_equality, fit_equality_witness(cfg, grid)

        m = from_monomial_density(1.5, 0.8)
        assert verdicts(_twin(m, 40), 40) == verdicts(m, 0) == (False, None)

    @pytest.mark.parametrize("k", [-20, 20, 40])
    def test_locate_zero(self, k):
        y = _imaginary_zero(TRIANGLE)
        box = (-0.5, 0.5, 2.0 * y, 0.5 * y)
        got = locate_zero(_twin(TRIANGLE, k), _rect(box, 2.0**k))
        assert got * 2.0**k == locate_zero(TRIANGLE, _rect(box))

    @pytest.mark.parametrize("k", [-12, -10, 10, 12])
    @pytest.mark.parametrize("target", ["F", "zF", "F/z"])
    def test_locate_zero_accepts_at_the_scale_of_its_target(self, target, k):
        # F(0) = 0, so F/z is defined; the zero near 5 pi is that of F, zF and
        # F/z alike.  Accepting zF and F/z at V instead of sigma^(k-n) V failed
        # zF for k < 0 and F/z for k > 0
        m = StieltjesMeasure(1.0, ((0.0, -1.0), (0.6, 2.5), (1.0, -1.5)))
        box = (14.0, 16.0, -6.0, -1e-3)
        want = locate_zero(m, _rect(box), target)
        assert want == pytest.approx(15.707963267949 - 1.62782037517807j, abs=1e-12)
        assert locate_zero(_twin(m, k), _rect(box, 2.0**k), target) * 2.0**k == want

    def test_sampled_function_probes_in_the_unit_of_x(self):
        # f = Re F for Fejer-2's twin at sigma = 2048
        f = from_omega_config(OmegaConfig(_twin(from_fejer(2, 1.0, 1.0), 10), 0, 0.0), 0.0)
        assert f.sigma == 2048.0

    def test_equidistant_steps_in_the_unit_of_t(self):
        def steps(nodes, f):
            return _detect_equidistant_steps(PiecewiseLinearDensity(tuple(f * t for t in nodes), (2.0, 1.0), (2.0, 1.0)))

        for f in (1.0, 2.0**-40):
            assert not steps((0.0, 0.4, 1.0), f).equidistant
            assert steps((0.0, 0.5, 1.0), f).piece_width == 0.5 * f

