import cmath
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_monomial_density
from hbfourier.transforms import (
    _BLOCK,
    _grid_moments,
    eval_CS,
    eval_Delta,
    eval_Delta_reflected,
    eval_E,
    eval_F,
    eval_F_derivative,
    eval_F_scaled,
    eval_GH,
    eval_h_alpha,
    eval_h_alpha_scaled,
    identity_residuals,
    real_transforms,
    transform_sample,
)

from .conftest import random_atomic_measure
from .strategies import atomic_measures, measures_with_density


class TestEvalF:
    def test_constant_transform(self):
        m = StieltjesMeasure(1.0, ((0.0, 1.0),))
        for z in (0.3, complex(1.0, -2.0), complex(-4.0, 5.0)):
            assert eval_F(m, z) == pytest.approx(1.0, abs=1e-14)

    def test_two_atom_cancellation(self, two_unit_atoms):
        assert abs(eval_F(two_unit_atoms, math.pi)) <= 1e-14

    def test_unit_density_at_zero(self, unit_density):
        assert eval_F(unit_density, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_density_against_closed_form(self, unit_density):
        # int_0^1 e^{ixt} dt = sin(x)/x + i (1 - cos x)/x, in cancellation-free form
        for x in (0.5, 3.0, -11.0, 1e-6):
            expected = complex(math.sin(x) / x, 2.0 * math.sin(x / 2.0) ** 2 / x)
            assert eval_F(unit_density, x) == pytest.approx(expected, abs=1e-14)

    def test_scaled_form_survives_deep_arguments(self):
        m = StieltjesMeasure(2.0, ((0.0, 1.0), (2.0, 1.0)))
        mant, scale = eval_F_scaled(m, complex(0.0, -400.0))
        assert np.isfinite(mant.real) and np.isfinite(mant.imag)
        assert scale == pytest.approx(800.0)
        with pytest.raises(OverflowError):
            eval_F(m, complex(0.0, -400.0))


class TestComponents:
    def test_atom_at_sigma_reflects_to_constant(self):
        m = StieltjesMeasure(1.5, ((1.5, 0.7),))
        x = np.linspace(-8.0, 8.0, 41)
        rt = real_transforms(m, x, order=0)
        assert np.allclose(rt.C, 0.7, atol=1e-14)
        assert np.allclose(rt.S, 0.0, atol=1e-14)

    def test_atom_at_zero_reflects_to_full_phase(self):
        m = StieltjesMeasure(2.0, ((0.0, 0.9),))
        x = np.linspace(-5.0, 5.0, 31)
        rt = real_transforms(m, x, order=0)
        assert np.allclose(rt.C, 0.9 * np.cos(2.0 * x), atol=1e-13)
        assert np.allclose(rt.S, 0.9 * np.sin(2.0 * x), atol=1e-13)

    def test_unit_density_sine_component(self, unit_density):
        x = np.linspace(0.3, 40.0, 57)
        rt = real_transforms(unit_density, x, order=0)
        assert np.allclose(rt.S, (1.0 - np.cos(x)) / x, atol=1e-13)
        assert rt.S.min() >= -1e-13

    def test_complex_gh_match_euler_combination(self):
        m = StieltjesMeasure(1.0, ((0.25, 1.0), (1.0, -0.5)))
        z = complex(1.3, -2.2)
        G, H = eval_GH(m, z)
        assert G + 1j * H == pytest.approx(eval_F(m, z), rel=1e-13)
        C, S = eval_CS(m, z)
        assert C - 1j * S == pytest.approx(eval_F(m, z) * cmath.exp(-1j * m.sigma * z), rel=1e-12)


class TestDerivatives:
    def test_constant_has_zero_derivative(self):
        m = StieltjesMeasure(1.0, ((0.0, 1.0),))
        assert abs(eval_F_derivative(m, 0.7, 1)) <= 1e-15
        assert abs(eval_F_derivative(m, complex(0.3, -1.0), 2)) <= 1e-15

    def test_single_atom_derivative_at_zero(self):
        m = StieltjesMeasure(1.0, ((1.0, 1.0),))
        assert eval_F_derivative(m, 0.0, 1) == pytest.approx(1j, abs=1e-15)

    def test_against_central_differences(self):
        rng = np.random.default_rng(42)
        h = 1e-5
        for _ in range(20):
            m = random_atomic_measure(rng)
            if rng.uniform() < 0.5:
                dens = PiecewiseLinearDensity.interpolant(
                    [0.0, m.sigma], sorted(rng.uniform(0.1, 1.0, size=2))
                )
                m = StieltjesMeasure(m.sigma, m.atoms, dens)
            x = float(rng.uniform(-10.0, 10.0))
            fd = (eval_F(m, x + h) - eval_F(m, x - h)) / (2.0 * h)
            an = eval_F_derivative(m, x, 1)
            denom = max(abs(an), abs(fd), 1e-6 * m.sigma * m.total_variation)
            assert abs(fd - an) / denom <= 1e-6


class TestDelta:
    def test_atom_at_sigma_constant(self):
        m = StieltjesMeasure(1.0, ((1.0, 2.0),))
        x = np.linspace(-10.0, 10.0, 101)
        assert np.allclose(eval_Delta(m, x), 4.0, atol=1e-12)

    def test_zero_measure(self):
        m = StieltjesMeasure(1.0, ())
        assert eval_Delta(m, np.array([0.3]))[0] == 0.0

    def test_two_atom_closed_form(self):
        c0, c1, sig = 0.8, -1.3, 1.7
        m = StieltjesMeasure(sig, ((0.0, c0), (sig, c1)))
        x = np.linspace(-6.0, 6.0, 61)
        expected = sig * c1 * (c0 * np.cos(sig * x) + c1)
        assert np.allclose(eval_Delta(m, x), expected, atol=1e-12)

    def test_reflected_form_agrees(self, unit_density, fejer2):
        x = np.linspace(-15.0, 15.0, 101)
        for m in (unit_density, fejer2):
            a = eval_Delta(m, x)
            b = eval_Delta_reflected(m, x)
            assert np.max(np.abs(a - b)) <= 1e-12 * max(1.0, m.total_variation) ** 2 * 10


class TestRotationAndE:
    def test_h_zero_is_g(self, fejer2):
        x = np.linspace(-7.0, 7.0, 29)
        assert np.allclose(eval_h_alpha(fejer2, 0.0, x), real_transforms(fejer2, x, 0).G, atol=1e-15)

    def test_scaled_h_alpha_matches_components(self):
        m = StieltjesMeasure(1.0, ((0.25, 1.0), (1.0, -0.5)))
        for alpha in (0.7, -1.9):
            for z in (complex(1.3, -0.2), complex(-2.0, -3.5)):
                mant, scale = eval_h_alpha_scaled(m, alpha, z)
                G, H = eval_GH(m, z)
                expected = G * math.cos(alpha) - H * math.sin(alpha)
                assert mant * math.exp(scale) == pytest.approx(expected, rel=1e-13)

    def test_atom_at_sigma_constant_e(self):
        m = StieltjesMeasure(1.0, ((1.0, 0.6),))
        x = np.linspace(-9.0, 9.0, 33)
        assert np.allclose(eval_E(m, 0.0, 0, x), 0.6, atol=1e-14)

    def test_fejer_cosine_combination(self, fejer2):
        x = np.linspace(-20.0, 20.0, 201)
        e_vals = eval_E(fejer2, 0.0, 0, x)
        assert np.allclose(e_vals, (1.0 + np.cos(x)) / 2.0, atol=1e-13)
        assert e_vals.min() >= -1e-13

    def test_removable_origin_for_inverse_power(self):
        m = StieltjesMeasure(1.0, ((0.25, 1.0), (0.75, -1.0)))  # F(0) = 0
        val = eval_E(m, -math.pi / 2, -1, 0.0)
        refl = m.reflected()
        assert val == pytest.approx(refl.moment(1) * math.sin(math.pi / 2), abs=1e-14)

    def test_inverse_power_requires_vanishing_mass(self):
        m = StieltjesMeasure(1.0, ((0.5, 1.0),))
        with pytest.raises(ValueError, match="F\\(0\\) = 0"):
            eval_E(m, -math.pi / 2, -1, 0.0)


def mixed_measure():
    """Atoms plus a density with panel widths 0.05 to 0.7: at |z| near 2 or 3
    some panels take the series below the cut |z| w = 1 and some the closed form."""
    dens = PiecewiseLinearDensity((0.0, 0.05, 0.3, 1.0, 1.5), (1.0, 0.4, -0.7, 0.0), (0.2, -1.1, 0.5, 2.0))
    return StieltjesMeasure(1.5, ((0.0, 0.8), (0.7, -0.3), (1.5, 1.2)), dens)


def bits(values):
    return np.ascontiguousarray(values, dtype=complex).reshape(-1).view(np.uint64)


class TestSingleEvaluator:
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_batch_invariance(self, order):
        # a point's moments are the same bits alone and inside any batch, which
        # is what lets a contour round evaluate all its new samples in one call
        rng = np.random.default_rng(3)
        few = mixed_measure()  # 4 panels: a block holds _BLOCK // 4 points
        many = from_monomial_density(1.5, 0.8)  # 2049 panels: one point per block
        mixed = np.concatenate(
            [rng.uniform(-40.0, 40.0, 5), rng.uniform(-20.0, 20.0, 5) + 1j * rng.uniform(-400.0, 3.0, 5)]
        )
        large = rng.uniform(-30.0, 30.0, _BLOCK) + 1j * rng.uniform(-5.0, 1.0, _BLOCK)
        for m, batch in ((few, mixed), (many, mixed), (few, large)):
            T, E = _grid_moments(m, batch, order)
            for i in range(0, len(batch), max(1, len(batch) // 12)):
                z = batch[i] if batch[i].imag else float(batch[i].real)
                T1, E1 = _grid_moments(m, z, order)
                assert np.array_equal(bits(T[:, i]), bits(T1))
                assert E[i] == E1 == max(0.0, -z.imag * m.sigma)

    def test_against_mpmath_at_complex_points(self):
        mpmath = pytest.importorskip("mpmath")
        m = mixed_measure()
        zs = [0.3 - 1.0j, 3.0 - 0.5j, 0.4 - 2.0j, -7.5 + 1.2j, 12.0 - 30.0j, 0.5 - 400.0j]
        T, E = _grid_moments(m, np.array(zs), 2)
        with mpmath.workdps(30):
            for i, z in enumerate(zs):
                # the scaled moments int t^k e^{izt - E} dmu(t)
                kernel = lambda t, k: t**k * mpmath.exp(1j * mpmath.mpc(z) * t - E[i])
                for k in range(3):
                    exact = sum(c * kernel(mpmath.mpf(t), k) for t, c in m.atoms)
                    for t0, t1, v0, v1 in m.density.panels:
                        g = lambda t: v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                        exact += mpmath.quad(lambda t: g(t) * kernel(t, k), [t0, t1])
                    scale = m.total_variation * m.sigma**k
                    assert abs(T[k, i] - complex(exact)) <= 1e-14 * scale, (z, k)


class TestSample:
    def test_sample_fields_are_real(self, fejer2):
        s = transform_sample(fejer2, 1.234)
        assert s.F == pytest.approx(complex(s.G, s.H), abs=1e-15)
        assert s.Fp == pytest.approx(complex(s.Gp, s.Hp), abs=1e-15)
        assert s.Delta == pytest.approx(s.G * s.Hp - s.Gp * s.H, abs=1e-15)


class TestIdentities:
    def test_zero_measure_residuals_vanish(self):
        m = StieltjesMeasure(1.0, ())
        res = identity_residuals(m, np.array([0.0, 1.0, 3.7]))
        assert res.max_linear() == 0.0
        assert res.max_quadratic() == 0.0

    def test_random_four_atom_measure(self):
        rng = np.random.default_rng(11)
        m = random_atomic_measure(rng, max_atoms=4)
        res = identity_residuals(m, np.array([3.7]))
        assert res.max_linear() <= 1e-10 * res.linear_scale
        assert res.max_quadratic() <= 1e-10 * res.quadratic_scale

    def test_density_wronskian_pair(self, unit_density):
        res = identity_residuals(unit_density, np.array([2.0]), alpha=0.3, beta=-1.1)
        assert res.wronskian_pair[0] <= 1e-10 * res.quadratic_scale

    @pytest.mark.parametrize("tau", [0.0, math.pi / 2, -math.pi / 2, 0.7])
    def test_phase_mix_across_tau(self, fejer2, tau):
        x = np.linspace(-50.0, 50.0, 257)
        res = identity_residuals(fejer2, x, tau=tau)
        assert res.phase_mix.max() <= 1e-10 * res.linear_scale

    @given(measures_with_density())
    @settings(max_examples=30, deadline=None)
    def test_identities_hold_for_arbitrary_measures(self, m):
        x = np.linspace(-50.0, 50.0, 101)
        res = identity_residuals(m, x)
        assert res.max_linear() <= 1e-10 * res.linear_scale
        assert res.max_quadratic() <= 1e-10 * res.quadratic_scale

    @given(atomic_measures(), st.floats(0.1, 40.0))
    @settings(max_examples=30, deadline=None)
    def test_parity(self, m, x):
        rt_pos = real_transforms(m, np.array([x]), order=0)
        rt_neg = real_transforms(m, np.array([-x]), order=0)
        tol = 1e-12 * max(1.0, m.total_variation)
        assert abs(rt_pos.G[0] - rt_neg.G[0]) <= tol
        assert abs(rt_pos.C[0] - rt_neg.C[0]) <= tol
        assert abs(rt_pos.H[0] + rt_neg.H[0]) <= tol
        assert abs(rt_pos.S[0] + rt_neg.S[0]) <= tol

    @given(atomic_measures(), st.floats(-20.0, 20.0), st.floats(-30.0, 10.0))
    @settings(max_examples=40, deadline=None)
    def test_growth_bound(self, m, x, y):
        mant, scale = eval_F_scaled(m, complex(x, y))
        bound = m.total_variation * max(1.0, math.exp(min(-y * m.sigma, 700.0)))
        log_val = math.log(abs(mant)) + scale if mant != 0.0 else -math.inf
        assert log_val <= math.log(bound) + 1e-9
