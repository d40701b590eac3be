"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest -s tests/test_acceptance.py` to see the per-criterion lines.
Every tolerance is fixed here; nothing is deferred to runtime calibration.
"""

import math
import time

import numpy as np
import pytest
from scipy.integrate import quad
from scipy.optimize import brentq

from hbfourier.inequality import (
    OmegaConfig,
    borderline_growth_d,
    check_inequality,
    eval_d,
    margin_values,
)
from hbfourier.measure import (
    PiecewiseLinearDensity,
    StieltjesMeasure,
    from_fejer,
    from_pd_profile,
)
from hbfourier.posdef import autocorr_h, check_h_hat_identity, laplace_limit_check
from hbfourier.sampling import SampledFunction, from_omega_config, interp_lhs, interp_rhs
from hbfourier.transforms import eval_Delta, eval_F, eval_F_derivative, identity_residuals
from hbfourier.zeros import (
    Rectangle,
    check_derivative_hb,
    classify,
    count_zeros,
    find_imaginary_zero,
    locate_zero,
)

from .conftest import random_atomic_measure


def _report(number, description):
    def decorator(fn):
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException as exc:
                print(f"[criterion {number:02d}] FAIL {description}: {exc}")
                raise
            print(f"[criterion {number:02d}] PASS {description}")

        wrapper.__name__ = fn.__name__
        return wrapper

    return decorator


@_report(1, "structural identities on random atomic measures")
def test_criterion_1_identity_suite():
    rng = np.random.default_rng(20240801)
    x = np.linspace(-50.0, 50.0, 200)
    start = time.perf_counter()
    for _ in range(100):
        m = random_atomic_measure(rng, max_atoms=5, sigma_range=(0.5, 4.0))
        res = identity_residuals(m, x)
        assert res.max_linear() <= 1e-10 * res.linear_scale
        assert res.max_quadratic() <= 1e-10 * res.quadratic_scale
    elapsed = time.perf_counter() - start
    assert elapsed < 5.0, f"identity suite took {elapsed:.2f}s"


@_report(2, "global equality for the endpoint atom")
def test_criterion_2_endpoint_atom_equality():
    m = StieltjesMeasure(1.0, ((1.0, 2.0),))
    cfg = OmegaConfig(m, 0, math.pi / 2)
    grid = np.arange(-10.0, 10.0 + 1e-12, math.pi / 50.0)
    assert np.max(np.abs(eval_Delta(m, grid) - 4.0)) <= 1e-12
    report = check_inequality(cfg, grid)
    assert report.global_equality
    assert np.max(np.abs(report.margin)) <= 1e-10


@_report(3, "inequality margins for the cosine and decay families")
def test_criterion_3_margins_and_equality_points():
    grid = np.arange(-20.0 * math.pi, 20.0 * math.pi + 1e-9, math.pi / 100.0)

    fejer = from_fejer(2, 1.0, 1.0)
    cfg = OmegaConfig(fejer, 0, 0.0)
    report = check_inequality(cfg, grid)
    assert report.hypothesis_ok
    assert report.worst_relative_margin >= -1e-9
    assert report.equality_points
    for x_star in report.equality_points:
        k = round((x_star / math.pi - 1.0) / 2.0)
        assert abs(x_star - (2 * k + 1) * math.pi) <= 1e-6

    ramp = StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0]))
    cfg2 = OmegaConfig(ramp, 1, -math.pi / 2)
    report2 = check_inequality(cfg2, grid)
    assert report2.hypothesis_ok
    assert report2.worst_relative_margin >= -1e-9


@_report(4, "no lower-half-plane zeros for nonnegative cosine families")
def test_criterion_4_lower_halfplane_counts():
    rng = np.random.default_rng(7)
    rect = Rectangle(-20.0, 20.0, -6.0, -1e-3)
    x_grid = np.arange(0.0, 20.0 * math.pi, 0.01)
    start = time.perf_counter()
    from hbfourier.transforms import real_transforms

    for _ in range(25):
        m = from_fejer(int(rng.integers(1, 5)), float(rng.uniform(0.1, 1.0)), float(rng.uniform(1.0, 3.0)))
        c_vals = real_transforms(m, x_grid, order=0).C
        assert c_vals.min() >= -1e-12 * m.total_variation
        result = count_zeros(m, rect)
        assert result.count == 0
        assert result.winding_residual <= 0.25
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"zero counting took {elapsed:.2f}s"


@_report(5, "single imaginary lower zero exactly in the open mass window")
def test_criterion_5_lower_zero_dichotomy():
    u_star = brentq(lambda u: math.exp(u) * (2.0 - u) - 2.0, 0.5, 1.9, xtol=1e-14)
    for f0 in (-0.25, 0.0, 0.25, 0.5, 0.75, 1.0, 1.25):
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], f0 - 1.0)
        y_star = find_imaginary_zero(m)
        expect_zero = f0 in (0.25, 0.5, 0.75)
        if expect_zero:
            assert y_star is not None
            rect = Rectangle(-20.0, 20.0, min(-6.0, 1.5 * y_star), -1e-3)
            assert count_zeros(m, rect).count == 1
            if f0 == 0.5:
                assert abs(y_star + u_star) <= 1e-8
                assert abs(eval_F(m, complex(0.0, y_star))) <= 1e-10
        else:
            assert y_star is None
            assert count_zeros(m, Rectangle(-20.0, 20.0, -6.0, -1e-3)).count == 0


@_report(6, "interpolation series against its closed form and tail bound")
def test_criterion_6_interpolation():
    rng = np.random.default_rng(99)
    for _ in range(20):
        sigma = float(rng.uniform(0.5, 3.0))
        alpha = float(rng.uniform(0.0, math.pi))
        x = float(rng.uniform(-5.0, 5.0))
        f = SampledFunction(
            evaluate=lambda t, s=sigma, a=alpha: np.cos(s * np.asarray(t, dtype=float) + a),
            derivative=lambda t, s=sigma, a=alpha: -s * np.sin(s * np.asarray(t, dtype=float) + a),
            sigma=sigma,
            envelope=lambda r: 1.0,
        )
        res = interp_rhs(f, sigma, alpha, x, 10_000)
        assert abs(res.value - sigma) <= 1e-3

    fejer = from_fejer(2, 1.0, 1.0)
    cfg = OmegaConfig(fejer, 0, 0.0)
    for _ in range(5):
        alpha = float(rng.uniform(0.0, math.pi))
        x = float(rng.uniform(-5.0, 5.0))
        f = from_omega_config(cfg, alpha)
        lhs = interp_lhs(f, fejer.sigma, alpha, x)
        rhs = interp_rhs(f, fejer.sigma, alpha, x, 10_000)
        assert abs(lhs - rhs.value) <= rhs.tail_bound + 1e-9


@_report(7, "autocorrelation profile and its transform identity")
def test_criterion_7_autocorrelation():
    g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])
    # independent brute-force oracle fixes the autocorrelation first:
    # h(a) = int_a^1 (2u - a) du = 1 - a, so h-hat(0) = 1 (not (1-a)^2)
    for a in (0.0, 0.2, 0.5, 0.9):
        oracle = quad(lambda u, aa=a: (2.0 * u - aa), a, 1.0)[0]
        assert oracle == pytest.approx(1.0 - a, abs=1e-12)
        assert autocorr_h(g, a) == pytest.approx(1.0 - a, abs=1e-10)
    hhat0_oracle = 2.0 * quad(lambda a: 1.0 - a, 0.0, 1.0)[0]
    assert hhat0_oracle == pytest.approx(1.0, abs=1e-12)

    report = check_h_hat_identity(g, [0.0, 0.5, 1.0, 2.0, 5.0])
    assert report.h_hat[0] == pytest.approx(hhat0_oracle, abs=1e-8)
    assert report.two_delta[0] == pytest.approx(hhat0_oracle, abs=1e-12)
    assert report.residuals.max() <= 1e-6


@_report(8, "borderline-growth regression and hypothesis-violated classification")
def test_criterion_8_borderline_growth():
    assert borderline_growth_d(-0.75, 0.1) < 0.0
    assert borderline_growth_d(-0.75, 100.0) > 0.0
    m = StieltjesMeasure(1.0, ((0.0, 2.0), (1.0, -1.0)))
    assert classify(m).verdict == "hypothesis_violated"
    rect = Rectangle(-1.0, 1.0, -2.0, -0.1)
    assert count_zeros(m, rect).count == 1
    z = locate_zero(m, rect)
    assert abs(z - complex(0.0, -math.log(2.0))) <= 1e-8


@_report(9, "derivative stays zero-free for the monotone density")
def test_criterion_9_derivative_zero_free():
    ramp = StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0]))
    report = check_derivative_hb(ramp, 1, Rectangle(-20.0, 20.0, -6.0, -1e-3), (-20.0, 20.0))
    assert report.lower_count == 0
    assert report.real_min > 1e-6


@_report(10, "Laplace integral converges to the jump at the origin")
def test_criterion_10_laplace_limit():
    m = StieltjesMeasure(
        1.0, ((0.0, 0.5),), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])
    )
    estimate, target = laplace_limit_check(m, 200.0)
    assert target == 0.5
    assert abs(estimate - target) <= m.total_variation / 200.0
