import cmath
import concurrent.futures
import functools
import gc
import math
import sys
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hbfourier import transforms
from hbfourier.measure import (
    PiecewiseLinearDensity,
    StieltjesMeasure,
    from_fejer,
    from_monomial_density,
    from_pd_profile,
)
from hbfourier.transforms import (
    _BLOCK,
    _CLUSTER_RHO,
    _CLUSTER_TERMS,
    _EQUI_BLOCK,
    _MAX_ORDER,
    _SERIES_CUT,
    _SERIES_RECIPROCALS,
    _bracketed_newton,
    _grid_minima,
    _cluster_level,
    _cluster_sum,
    _density_tables,
    _equispaced_head,
    _equispaced_moments,
    _grid_moments,
    _reflected,
    _segment_moments,
    _series_length,
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

from . import reference_refinement as reference
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

    def test_direct_moments_alone_give_the_bits_of_the_bundle(self, fejer2, monkeypatch):
        m = from_monomial_density(1.5, 0.8)
        x = np.linspace(-40.0, 40.0, 301)
        for measure in (m, fejer2):
            want = real_transforms(measure, x, 1).Delta
            calls = []
            grid_moments = transforms._grid_moments

            def counted(*args):
                calls.append(args[0])
                return grid_moments(*args)

            monkeypatch.setattr(transforms, "_grid_moments", counted)
            got = eval_Delta(measure, x)
            monkeypatch.undo()
            assert calls == [measure]
            assert np.array_equal(bits(got), bits(want))

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
        # the scaled h_alpha combines F(z) and F(-z) with complex coefficients,
        # on a 2-panel measure with atoms; alpha varies with the order
        two_panel = StieltjesMeasure(
            1.5, ((0.0, 0.7), (1.1, -0.4)), PiecewiseLinearDensity.interpolant([0.0, 0.5, 1.5], [0.3, 1.0, 0.2])
        )
        batch = rng.uniform(-10.0, 10.0, 40) + 1j * rng.uniform(-6.0, 1.0, 40)
        mant, scale = eval_h_alpha_scaled(two_panel, 0.3 + order, batch)
        for i, z in enumerate(batch):
            mant1, scale1 = eval_h_alpha_scaled(two_panel, 0.3 + order, z)
            assert np.array_equal(bits(mant[i]), bits(mant1))
            assert scale[i] == scale1

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


class TestSegmentSeries:
    @staticmethod
    def thirty_terms(w_powers, a, beta):
        """The series branch of _segment_moments with all 30 terms and plain divisions."""
        w = w_powers[0]
        aw = a * w
        m1 = np.arange(1.0, len(w_powers) + 1)[:, None]
        term = np.ones_like(aw)
        acc = term / m1
        for j in range(1, 30):
            term = term * aw / j
            acc += term / (m1 + j)
        return acc * np.exp(beta) * np.array(w_powers)

    @pytest.mark.parametrize("order", range(_MAX_ORDER + 2))
    def test_adaptive_length_keeps_every_bit(self, order):
        # the term count follows the block's largest |aw|; each block mixes
        # tiny, middling and just-below-the-cut |aw| at every phase, including
        # real a (imaginary z) and imaginary a (real z)
        rng = np.random.default_rng(order)
        for block in range(12):
            n = 64
            w = rng.uniform(1e-3, 2.0, n)
            size = np.concatenate(
                [rng.uniform(0.0, 1.0, n - 8), 1.0 - rng.uniform(0.0, 1e-9, 4), 10.0 ** -rng.uniform(3, 12, 4)]
            )
            phases = (rng.uniform(-math.pi, math.pi, n), np.full(n, math.pi / 2), np.zeros(n), np.full(n, math.pi))
            phase = phases[block % 4]
            a = size[rng.permutation(n)] * _SERIES_CUT / w * np.exp(1j * phase)
            beta = -rng.uniform(0.0, 3.0, n) + 1j * rng.normal(size=n)
            w_powers = np.array([[x**k for x in w] for k in range(1, order + 2)])
            assert np.all(np.abs(a) * w < _SERIES_CUT)
            got = _segment_moments(w_powers, a, beta)
            assert np.array_equal(bits(got), bits(self.thirty_terms(w_powers, a, beta)))


@functools.lru_cache(maxsize=None)
def _mp_nodes(density):
    """Nodes t of a density, the nodes where g jumps, and the jumps a of g
    and b of g' times t^j for j = 0..3, at 40 digits.  A jump is taken as
    (panel ending at t) - (panel starting at t).  The closed form of
    int q e^{lam t} on a panel is e^{lam t} sum_k (-1)^k q^(k) / lam^(k+1), so
    the density integral is a sum over nodes of these jumps."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(40):
        jumps = {}
        for t0, t1, v0, v1 in density.panels:
            slope = (mpmath.mpf(v1) - v0) / (mpmath.mpf(t1) - t0)
            a0, s0 = jumps.get(t0, (0, 0))
            jumps[t0] = (a0 - v0, s0 - slope)
            a1, s1 = jumps.get(t1, (0, 0))
            jumps[t1] = (a1 + v1, s1 + slope)
        keys = sorted(jumps)
        nodes = [mpmath.mpf(t) for t in keys]
        # g is continuous at most nodes: keep the nodes where it jumps apart
        steps = [i for i, t in enumerate(keys) if jumps[t][0] != 0]
        a_t = [[jumps[keys[i]][0] for i in steps]]
        b_t = [[jumps[t][1] for t in keys]]
        for _ in range(3):
            a_t.append([a * nodes[i] for a, i in zip(a_t[-1], steps)])
            b_t.append([b * t for b, t in zip(b_t[-1], nodes)])
        return nodes, steps, a_t, b_t


def _mp_scaled_moments(density, z, scale, order):
    """int t^m g(t) e^{izt - scale} dt, m = 0..order <= 3, at 40 digits; each
    node's exponential is computed once and shared by all orders."""
    import mpmath

    nodes, steps, a_t, b_t = _mp_nodes(density)
    with mpmath.workdps(40):
        z = mpmath.mpc(z)
        lam = 1j * z
        if z.imag == 0:
            exps = [mpmath.expj(z.real * t) for t in nodes]
        else:
            exps = [mpmath.exp(lam * t - scale) for t in nodes]
        sa = [mpmath.fdot(a, [exps[i] for i in steps]) for a in a_t[: order + 1]]
        sb = [mpmath.fdot(b, exps) for b in b_t[: order + 1]]
        moments = []
        for m in range(order + 1):
            # the jump of q^(k) for q = t^m g is ff(m, k) t^(m-k) a + k ff(m, k-1) t^(m-k+1) b
            acc = 0
            for k in range(m + 2):
                term = mpmath.ff(m, k) * sa[m - k] if k <= m else 0
                if k >= 1:
                    term += k * mpmath.ff(m, k - 1) * sb[m - k + 1]
                acc += (-1) ** k * term / lam ** (k + 1)
            moments.append(complex(acc))
        return moments


class TestClusterPath:
    @pytest.mark.parametrize("mu_exp,nu_exp", [(1.5, 0.8), (3.0, 2.0)])
    def test_against_mpmath(self, mu_exp, nu_exp):
        pytest.importorskip("mpmath")
        m = from_monomial_density(mu_exp, nu_exp)
        xs = (0.37, 2.9, 11.3, 41.7, 60.0, 250.0, 1000.0, 1900.0, 2100.0)
        exact = {x: _mp_scaled_moments(m.density, x, 0.0, 2) for x in xs}
        for z in (7.3 - 2.1j, 3.3 - 400.0j, 1500.0 - 900.0j):
            exact[z] = _mp_scaled_moments(m.density, z, -z.imag, 2)
        # one ulp either side of every switch: from level to level, and from
        # the finest level (2048 cells) to the panel path; one oracle call at
        # the switch x serves both sides, as
        # T_m(x + d) = T_m(x) + i d T_(m+1)(x) + O(d^2) with d ~ 1e-14
        limits = _density_tables(m.density).limits
        assert limits[-1] == 2048.0
        for edge in map(float, limits):
            at_edge = _mp_scaled_moments(m.density, edge, 0.0, 3)
            for x in (float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, np.inf))):
                exact[x] = [at_edge[k] + 1j * (x - edge) * at_edge[k + 1] for k in range(3)]
        zs = list(exact)
        T, E = _grid_moments(m, np.array(zs, dtype=complex), 2)
        for i, z in enumerate(zs):
            assert E[i] == max(0.0, -z.imag)
            for k in range(3):
                scale = m.total_variation * m.sigma**k
                assert abs(T[k, i] - exact[z][k]) <= 1e-14 * scale, (z, k)

    @pytest.mark.parametrize("order", [0, 2])
    def test_batch_invariance_across_levels_and_paths(self, order):
        # one batch holds points of every cluster level and of the panel path;
        # the 4099 points of the coarsest level (2 clusters) fill three of its
        # blocks of _BLOCK // 2 points, and the panel path takes one point per block
        rng = np.random.default_rng(8)
        m = from_monomial_density(3.0, 2.0)
        limits = _density_tables(m.density).limits
        edges = np.concatenate([[0.0], limits, [1.5 * limits[-1]]])
        parts = [rng.uniform(0.0, limits[0], _BLOCK + 3)]
        for lo, hi in zip(edges[1:-1], edges[2:]):
            parts.append(rng.uniform(lo, hi, 40 if hi <= limits[-1] else 4))
        radius = np.concatenate(parts)
        batch = radius * np.exp(1j * rng.uniform(-0.5 * math.pi, 0.1, radius.size))
        batch[::3] = batch[::3].real
        T, E = _grid_moments(m, batch, order)
        block_edges = [0, _BLOCK // 2 - 1, _BLOCK // 2, _BLOCK - 1, _BLOCK, _BLOCK + 2]
        picks = np.concatenate([block_edges, np.arange(_BLOCK + 3, batch.size, 7)])
        for i in picks:
            z = batch[i] if batch[i].imag else float(batch[i].real)
            T1, E1 = _grid_moments(m, z, order)
            assert np.array_equal(bits(T[:, i]), bits(T1))
            assert E[i] == E1


def _mp_moments(measure, x, order):
    """int t^m e^{ixt} dmu for m = 0..order at a real x != 0, at 50 digits: the atoms, and
    each panel's polynomial P = t^m g by parts, sum_k (-1)^k [P^(k) e^{ixt}] / (ix)^(k+1)."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        x = mpmath.mpf(x)
        lam = 1j * x
        out = []
        for m in range(order + 1):
            value = mpmath.fsum(mpmath.mpf(c) * mpmath.mpf(t) ** m * mpmath.expj(x * t) for t, c in measure.atoms)
            for panel in measure.density.panels if measure.density is not None else ():
                t0, t1, v0, v1 = (mpmath.mpf(v) for v in panel)
                slope = (v1 - v0) / (t1 - t0)
                # P = slope t^(m+1) + (v0 - slope t0) t^m
                terms = [(slope, m + 1), (v0 - slope * t0, m)]
                for k in range(m + 2):
                    at = [sum(c * mpmath.ff(e, k) * t ** (e - k) for c, e in terms if e >= k) for t in (t0, t1)]
                    value += (-1) ** k * (at[1] * mpmath.expj(x * t1) - at[0] * mpmath.expj(x * t0)) / lam ** (k + 1)
            out.append(complex(value))
        return out


def _equispaced_cases():
    """Measures for the equispaced kernel on the nodes of [-40, 40] in steps of 1/8."""
    rng = np.random.default_rng(12)
    atoms = tuple(zip(rng.uniform(0.0, 1.0, 5), rng.uniform(-1.0, 1.0, 5)))
    widths = 10.0 ** rng.uniform(-4.0, -1.0, 60)
    graded = np.concatenate([[0.0], np.cumsum(widths) / np.sum(widths)])
    return {
        # the atoms alone, every block by one product
        "atoms": StieltjesMeasure(1.0, atoms),
        # panels of width 1/4: narrow within |x| <= 4, wide, by parts, past it
        "wide": StieltjesMeasure(1.0, atoms[:2], PiecewiseLinearDensity.interpolant(np.linspace(0.0, 1.0, 5), rng.uniform(-1.0, 2.0, 5))),
        # panels of width 1/64: narrow on every node, |x| w <= 0.63
        "narrow": StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant(np.linspace(0.0, 1.0, 65), rng.uniform(-1.0, 2.0, 65))),
        # widths over three decades: every tier, and wide and narrow pieces on one block
        "graded": StieltjesMeasure(1.0, atoms, PiecewiseLinearDensity.interpolant(graded, rng.uniform(-1.0, 2.0, 61))),
    }


class TestEquispaced:
    @pytest.mark.parametrize("case", ["atoms", "wide", "narrow", "graded"])
    def test_against_grid_moments_and_mpmath(self, case):
        m = _equispaced_cases()[case]
        step, shift, first, count, order = 0.125, 0.0301, -320, 641, 2
        T = _equispaced_moments(m, step, shift, first, count, order)
        x = step * np.arange(first, first + count) + shift
        G = _grid_moments(m, x, order)[0]
        scale = m.total_variation * m.sigma ** np.arange(order + 1.0)
        assert np.all(np.abs(T - G).max(axis=1) <= 1e-14 * scale)
        for i in [*range(0, count, 40), 319, 320, 321, count - 1]:
            exact = _mp_moments(m, x[i], order)
            assert all(abs(T[k, i] - exact[k]) <= 1e-14 * scale[k] for k in range(order + 1)), (case, x[i])

    def test_the_cases_take_both_forms(self):
        # the kernel's blocks as the cases above lay them out, from the origin to |x| = 40
        cases = _equispaced_cases()
        heads = {}
        for case in ("wide", "narrow", "graded"):
            widths = sorted(np.diff(cases[case].density.nodes).tolist())
            heads[case] = _equispaced_head(0.0301, 0.125, 321, widths)
        assert heads["wide"][1] < 321 and heads["narrow"][1] == 321
        # on the graded density one block holds wide and narrow pieces
        assert any(0 < cuts[0] < 60 for _, _, _, cuts in heads["graded"][0])

    @pytest.mark.parametrize("measure", [mixed_measure(), from_monomial_density(1.5, 0.8)], ids=["mixed", "monomial"])
    def test_far_nodes_match_grid_moments(self, measure):
        # the nodes of `hbf interp` at 2000 terms, past the cluster levels; the
        # phases of both routes carry the rounding of x t, eps |x| sigma at most
        step, count = math.pi / measure.sigma, 4001
        T = _equispaced_moments(measure, step, -0.3 / measure.sigma, -2000, count, 1)
        x = step * np.arange(-2000, 2001) - 0.3 / measure.sigma
        picks = np.arange(0, count, 17)
        G = _grid_moments(measure, x[picks], 1)[0]
        for k in range(2):
            bound = 4 * np.finfo(float).eps * (1.0 + np.abs(x[picks]) * measure.sigma) * measure.bound(k)
            assert np.all(np.abs(T[k, picks] - G[k]) <= bound)

    def test_a_node_at_the_origin(self):
        # a block of its own, where every series term but the first vanishes,
        # also where a piece is wider than 2 / step
        wide = StieltjesMeasure(2048.0, ((5.0, 0.3),), PiecewiseLinearDensity.interpolant([0.0, 1000.0, 2048.0], [1.0, -0.5, 2.0]))
        for m, step in ((_equispaced_cases()["graded"], 0.25), (wide, 0.01)):
            T = _equispaced_moments(m, step, 0.0, -4, 9, 1)
            assert np.all(T[:, 4].imag == 0.0)
            assert all(abs(T[k, 4].real - m.moment(k)) <= 1e-15 * m.bound(k) for k in range(2))
            G = _grid_moments(m, step * np.arange(-4.0, 5.0), 1)[0]
            assert all(np.max(np.abs(T[k] - G[k])) <= 1e-14 * m.bound(k) for k in range(2))

    def test_a_long_grid_of_wide_pieces(self):
        # 2049 panels of one width are wide past |x| = 2049 on every block of a long
        # grid; the products are taken a few blocks at a time
        g = PiecewiseLinearDensity.interpolant(np.linspace(0.0, 1.0, 2050), np.linspace(1.0, 0.0, 2050))
        m = StieltjesMeasure(1.0, (), g)
        T = _equispaced_moments(m, math.pi, -0.4, -20000, 40001)
        x = math.pi * np.arange(-20000, 20001) - 0.4
        picks = np.arange(0, 40001, 999)
        G = _grid_moments(m, x[picks], 0)[0]
        assert np.all(np.abs(T[0, picks] - G[0]) <= 4 * np.finfo(float).eps * (1.0 + np.abs(x[picks])) * m.total_variation)


def _triangle(panels: int):
    """The borderline triangle of the paper on `panels` equal panels: a step
    density with an atom of -1/2 at sigma = 1."""
    return from_pd_profile([i / panels for i in range(panels + 1)], [1.0 - i / panels for i in range(panels + 1)], -0.5)


def _jump_mesh():
    """A 1000-panel graded mesh on [0, 1.5] whose values jump at every node
    (left != right) and change sign; its widest panel is at the right end."""
    rng = np.random.default_rng(21)
    nodes = 1.5 * np.linspace(0.0, 1.0, 1001) ** 1.5
    dens = PiecewiseLinearDensity(nodes, rng.uniform(-0.5, 2.0, 1000), rng.uniform(-0.5, 2.0, 1000))
    return StieltjesMeasure(1.5, (), dens)


def _one_panel():
    return StieltjesMeasure(1.5, (), PiecewiseLinearDensity((0.0, 1.5), (0.3,), (1.7,)))


class TestLeaf:
    """The finest cluster levels, the leaves of the one dyadic hierarchy: its
    levels run from 2 cells to about one cell per panel, whatever the panels'
    sizes, and the panel path takes every point past them."""

    @pytest.mark.parametrize(
        "make",
        [lambda: _triangle(16), lambda: _triangle(64), lambda: _triangle(128), _jump_mesh, _one_panel],
        ids=["triangle16", "triangle64", "triangle128", "jump_mesh", "one_panel"],
    )
    def test_against_mpmath(self, make):
        pytest.importorskip("mpmath")
        m = make()
        m = StieltjesMeasure(m.sigma, (), m.density)  # the oracle sums the density alone
        limits = _density_tables(m.density).limits
        cells = 2 ** np.arange(1, len(limits) + 1)
        assert cells[-1] <= max(2, len(m.density.panels)) < 2 * cells[-1]
        # a complex point inside every level, turning through the lower half-plane
        inner = np.concatenate([[0.0], limits[:-1]])
        zs = [0.5 * (lo + hi) * cmath.exp(-1j * (0.3 + 0.4 * n)) for n, (lo, hi) in enumerate(zip(inner, limits))]
        # real and complex points the finest level serves, at up to 0.95 of its radius
        finest = float(limits[-1])
        served = [0.6 * finest, -0.77 * finest, -0.95j * finest, 0.8 * finest * cmath.exp(-2.5j)]
        assert all(inner[-1] < abs(z) <= finest for z in served)
        zs += served
        exact = {z: _mp_scaled_moments(m.density, z, max(0.0, -z.imag * m.sigma), 2) for z in zs}
        # Im z = -400: the panel path on every one of these densities
        exact[3.3 - 400.0j] = _mp_scaled_moments(m.density, 3.3 - 400.0j, 400.0 * m.sigma, 2)
        # one ulp either side of every switch, the last one to the panel path
        for edge in map(float, limits):
            at_edge = _mp_scaled_moments(m.density, edge, 0.0, 3)
            for x in (float(np.nextafter(edge, 0.0)), float(np.nextafter(edge, np.inf))):
                exact[x] = [at_edge[k] + 1j * (x - edge) * at_edge[k + 1] for k in range(3)]
        zs = list(exact)
        T, E = _grid_moments(m, np.array(zs, dtype=complex), 2)
        for i, z in enumerate(zs):
            for k in range(3):
                scale = m.total_variation * m.sigma**k
                assert abs(T[k, i] - exact[z][k]) <= 1e-14 * scale, (z, k)

    def test_cells_cut_a_panel_wider_than_themselves(self):
        # a graded mesh whose widest panel, [0, 0.6], spans 38.4 of the 64
        # cells of its finest level, so every cell it reaches cuts it
        nodes = np.concatenate([[0.0], np.linspace(0.6, 1.0, 64)])
        m = StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant(nodes, 1.0 + nodes**2))
        assert _density_tables(m.density).limits.tolist() == [2.0, 4.0, 8.0, 16.0, 32.0, 64.0]
        zs = [1.8, 1.5 - 0.9j, 2.5, 11.0 - 7.0j, 50.0, 40.0 - 41.0j, 70.0]
        T, E = _grid_moments(m, np.array(zs), 2)
        for i, z in enumerate(zs):
            exact = _mp_scaled_moments(m.density, z, E[i], 2)
            for k in range(3):
                assert abs(T[k, i] - exact[k]) <= 1e-14 * m.total_variation, (z, k)

    def test_one_panel_is_split_in_two(self):
        density = _one_panel().density
        assert _density_tables(density).limits.tolist() == [0.5 / 0.375]
        h, centres, coeffs = _cluster_level(_density_tables(density).pieces, 2)
        assert h == 0.375 and centres.ravel().tolist() == [0.375, 1.125] and coeffs.shape[-2:] == (2, 1)

    @pytest.mark.parametrize("order", [0, 2])
    @pytest.mark.parametrize("make", [lambda: _triangle(128), _one_panel], ids=["triangle128", "one_panel"])
    def test_batch_invariance_across_level_leaf_and_panels(self, make, order):
        # 128 panels: levels of 2 to 128 cells, the finest serving |z| <= 128
        # in blocks of _BLOCK // 128 = 32 points, and the panel path past it.
        # One panel: its two cells, then the panel path; a level of one cell
        # would differ in the last bit at order 0
        rng = np.random.default_rng(12)
        m = make()
        limits = _density_tables(m.density).limits
        edges = np.concatenate([[0.0], limits])
        radius = [rng.uniform(lo, hi, 75 if hi == limits[-1] else 20) for lo, hi in zip(edges[:-1], edges[1:])]
        radius += [limits, np.nextafter(limits, np.inf), rng.uniform(limits[-1], 2.5 * limits[-1], 6)]
        radius = rng.permutation(np.concatenate(radius))
        batch = radius * np.exp(1j * rng.uniform(-math.pi, 0.1, radius.size))
        batch[::3] = batch[::3].real
        T, E = _grid_moments(m, batch, order)
        for i, z in enumerate(batch):
            z = z if z.imag else float(z.real)
            T1, E1 = _grid_moments(m, z, order)
            assert np.array_equal(bits(T[:, i]), bits(T1))
            assert E[i] == E1

    def test_built_only_for_the_points_it_serves(self):
        # a 2049-panel density evaluated at |x| <= 60, as the real-axis checks
        # do, builds no level finer than 64 cells, nor the panel path's table,
        # the last; a farther point builds its own level and no other
        m = from_monomial_density(2.5, 1.5)
        levels = _density_tables(m.density).levels
        assert len(levels) == 12 and not any(levels)
        real_transforms(m, np.linspace(-60.0, 60.0, 301), order=2)
        eval_F(m, 60.0 * cmath.exp(-1j))
        assert [level is not None for level in levels] == [True] * 6 + [False] * 6
        eval_F(m, np.array([700.0, 650.0 - 100.0j]))
        assert [level is not None for level in levels] == [True] * 6 + [False, False, False, True, False, False]
        eval_F(m, 3000.0)
        assert levels[-1] is not None and levels[-2] is None

    def test_threads_that_build_levels_together_agree(self):
        # eight threads race to build the levels of one fresh density, with
        # thread switches forced often; every point keeps its lone bits
        m = from_monomial_density(2.0, 1.5)
        points = np.geomspace(1.0, 3000.0, 40) * np.exp(-0.3j)
        switch = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with concurrent.futures.ThreadPoolExecutor(8) as pool:
                got = list(pool.map(lambda z: _grid_moments(m, z, 1)[0], np.tile(points, 4), timeout=120))
        finally:
            sys.setswitchinterval(switch)
        del vars(m.density)["_derived"]
        for z, T in zip(np.tile(points, 4), got):
            assert np.array_equal(bits(T), bits(_grid_moments(m, z, 1)[0]))


def _cluster_sum_reference(out, a, E, h, centres, B):
    """`_cluster_sum` as first written: real B[m, k, j], u broadcast over the cells."""
    B = B[: len(out), :, :, None]
    step = max(1, _BLOCK // len(centres))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        u = a[blk] * h
        acc = B[:, -1] * np.ones_like(u)
        for k in range(_CLUSTER_TERMS - 2, -1, -1):
            acc *= u
            acc += B[:, k]
        acc *= np.exp(centres[:, None] * a[blk] - E[blk])
        terms = np.concatenate([out[:, None, blk], acc], axis=1)
        out[:, blk] = np.cumsum(terms, axis=1)[:, -1]


def _segment_moments_reference(w_powers, a, beta):
    """`_segment_moments` as first written: every operand broadcast, both branches masked."""
    w_powers = np.asarray(w_powers, dtype=float)
    order = len(w_powers) - 1
    a, beta, *w_powers = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(beta, dtype=complex), *w_powers)
    w = w_powers[0]
    out = np.empty((order + 1,) + a.shape, dtype=complex)
    aw_abs = np.abs(a) * w
    small = aw_abs < _SERIES_CUT
    if small.any():
        aw = a[small] * w[small]
        recip = _SERIES_RECIPROCALS[: order + 1]
        term = np.ones_like(aw)
        acc = term * recip[:, :1]
        for j in range(1, _series_length(float(np.max(aw_abs[small])))):
            term = term * aw / j
            acc += term * recip[:, j : j + 1]
        acc *= np.exp(beta[small])
        acc *= np.array([wp[small] for wp in w_powers])
        out[:, small] = acc
    big = ~small
    if big.any():
        ab, wb = a[big], w[big]
        e1 = np.exp(ab * wb + beta[big])
        e0 = np.exp(beta[big])
        prev = (e1 - e0) / ab
        out[0][big] = prev
        wm = 1.0
        for m in range(1, order + 1):
            wm = wm * wb
            prev = (wm * e1 - m * prev) / ab
            out[m][big] = prev
    return out


def _atom_loop_reference(measure, z, order):
    """The atom loop of `_grid_moments` as first written, and its scale: one
    exponential per atom, E subtracted."""
    z = np.asarray(z)
    E = np.maximum(-measure.sigma * z.imag, 0.0)
    a = 1j * z
    T = np.zeros((order + 1,) + z.shape, dtype=complex)
    for t, c in measure.atoms:
        phase = np.exp(a * t - E)
        tm = 1.0
        for m in range(order + 1):
            T[m] += (c * tm) * phase
            tm *= t
    return T, E


class _DensityTablesReference(NamedTuple):
    t0: np.ndarray
    w_powers: np.ndarray
    rows: tuple
    limits: np.ndarray
    levels: list


def _lay_out_reference(density):
    """`_lay_out` as it was before pieces: a density's panels and cluster levels."""
    panels = density.panels
    widths = [t1 - t0 for t0, t1, _, _ in panels]
    rows = []
    for m in range(_MAX_ORDER + 1):
        q = np.zeros((len(panels), m + 2))
        for p, ((t0, _, v0, v1), w) in enumerate(zip(panels, widths)):
            slope = (v1 - v0) / w
            for j in range(m + 1):
                b = math.comb(m, j) * t0 ** (m - j)
                q[p, j] += b * v0
                q[p, j + 1] += b * slope
        piece, j = np.nonzero(q)
        rows.append((j * len(q) + piece, q[piece, j][:, None]))
    t0 = np.array([p[0] for p in panels])[:, None]
    span = density.nodes[-1] - density.nodes[0]
    counts = 2 ** np.arange(1, max(2, len(panels)).bit_length())
    limits = _CLUSTER_RHO / (span / (2 * counts))
    w_powers = np.array([[w**k for w in widths] for k in range(1, _MAX_ORDER + 3)])[:, :, None]
    return _DensityTablesReference(t0, w_powers, tuple(rows), limits, [None] * len(counts))


def _cluster_level_reference(density, count):
    """`_cluster_level` as it was before pieces: the panels cut at the union of nodes and cell edges."""
    nodes = np.array(density.nodes)
    left, right = np.array(density.left), np.array(density.right)
    lo, hi = nodes[0], nodes[-1]
    h = (hi - lo) / (2 * count)
    edges = lo + 2.0 * h * np.arange(count + 1)
    edges[-1] = hi
    centres = lo + h * (2.0 * np.arange(count) + 1.0)
    cuts = np.sort(np.concatenate([nodes, edges]))
    cuts = cuts[np.concatenate([[True], cuts[1:] > cuts[:-1]])]
    start, end = cuts[:-1], cuts[1:]
    p = np.searchsorted(nodes, start, side="right") - 1
    j = np.minimum(np.searchsorted(edges, start, side="right") - 1, count - 1)
    t0, t1, v0, v1 = nodes[p], nodes[p + 1], left[p], right[p]
    va = np.where(start == t0, v0, v0 + (v1 - v0) * ((start - t0) / (t1 - t0)))
    vb = np.where(end == t1, v1, v0 + (v1 - v0) * ((end - t0) / (t1 - t0)))
    half = 0.5 * (end - start)
    d, s = (0.5 * (start + end) - centres[j]) / h, half / h
    n_moments = _CLUSTER_TERMS + _MAX_ORDER
    own = [half * s**i * ((va + vb) / (i + 1) if i % 2 == 0 else (vb - va) / (i + 2)) for i in range(n_moments)]
    d_pow = [np.ones_like(d)]
    for _ in range(1, n_moments):
        d_pow.append(d_pow[-1] * d)
    moments = np.empty((n_moments, count))
    for k in range(n_moments):
        piece = sum(math.comb(k, n) * d_pow[k - n] * own[n] for n in range(k + 1))
        moments[k] = np.bincount(j, weights=piece, minlength=count)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(_CLUSTER_TERMS)])[:, None]
    B = np.zeros((_MAX_ORDER + 1, _CLUSTER_TERMS, count))
    for m in range(_MAX_ORDER + 1):
        for n in range(m + 1):
            B[m] += math.comb(m, n) * h**n * centres ** (m - n) * moments[n : n + _CLUSTER_TERMS]
    coeffs = np.ascontiguousarray((B * inv_fact).transpose(1, 0, 2)[..., None], dtype=complex)
    return h, centres[:, None], coeffs


def _panel_sum_reference(out, a, E, t0, w_powers, rows):
    """`_panel_sum` as it was before pieces, taking the density's panel operands."""
    step = max(1, _BLOCK // len(t0))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        M = _segment_moments(w_powers, a[blk], a[blk] * t0 - E[blk])
        M = M.reshape(-1, M.shape[-1])
        for m, (rows_m, q) in enumerate(rows):
            terms = np.empty((len(q) + 1, M.shape[-1]), dtype=complex)
            terms[0] = out[m, blk]
            np.take(M, rows_m, axis=0, out=terms[1:])
            terms[1:] *= q
            out[m, blk] = np.cumsum(terms, axis=0)[-1]


def _grid_moments_reference(measure, z, order, tables):
    """`_grid_moments` as it was before pieces: the atoms' rows, then the density's
    level dispatch inline, over the reference tables (whose levels it fills)."""
    T, E = _grid_moments(StieltjesMeasure(measure.sigma, measure.atoms), z, order)
    z, E = np.asarray(z), np.asarray(E)
    a = 1j * z
    a, E, flat = a.reshape(-1), E.reshape(-1), T.reshape(order + 1, -1)
    level = np.searchsorted(tables.limits, np.abs(a))
    first = int(level[0])
    if a.size == 1 or not np.any(level != first):
        groups = [(first, slice(None))]
    else:
        groups = [(lv, np.flatnonzero(level == lv)) for lv in np.flatnonzero(np.bincount(level))]
    for lv, pts in groups:
        part = flat[:, pts]
        if lv < len(tables.levels):
            if tables.levels[lv] is None:
                tables.levels[lv] = _cluster_level_reference(measure.density, 2 << lv)
            _cluster_sum(part, a[pts], E[pts], *tables.levels[lv])
        else:
            _panel_sum_reference(part, a[pts], E[pts], tables.t0, tables.w_powers[: order + 2], tables.rows[: order + 1])
        if not isinstance(pts, slice):
            flat[:, pts] = part
    return T


#: the densities of the bit test of `_grid_moments` against its reference before pieces
DENSITY_MEASURES = {
    "monomial_1.5_0.8": lambda: from_monomial_density(1.5, 0.8),
    "monomial_3_2": lambda: from_monomial_density(3.0, 2.0),
    "triangle128": lambda: _triangle(128),
    "jump_mesh": _jump_mesh,
    "one_panel": _one_panel,
}


#: measures whose atoms, or their reflections', sit at t = 0 and at sigma
ATOM_MEASURES = {
    **{f"fejer{k}": functools.partial(from_fejer, k) for k in range(1, 7)},
    "triangle": lambda: _triangle(16),
    "atom-sigma-eq": lambda: StieltjesMeasure(1.0, ((1.0, 2.0),)),  # scenarios/atom_sigma_eq.json
}


class TestSameBits:
    """The evaluator's kernels against the formulas they replaced, bit for bit:
    laying operands out differently may not move a single output bit."""

    @pytest.mark.parametrize("name", sorted(ATOM_MEASURES))
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_real_axis_atom_loop(self, name, order):
        # on a real z the evaluator takes no exponential for an atom at t = 0,
        # subtracts no E and makes E as zeros; a density's sum starts from the
        # atoms' rows and reads E, so these two decide whether the moments keep
        # their bits
        m = ATOM_MEASURES[name]()
        grid = np.concatenate([[-0.0, 0.0], np.linspace(-40.0, 40.0, 201), [1e-300, -5e-324]])
        for measure in (m, _reflected(m)):
            atoms = StieltjesMeasure(measure.sigma, measure.atoms)
            for z in (grid, 0.0, -0.0, 1.3, np.float64(-2.5)):
                want, scale = _atom_loop_reference(atoms, z, order)
                assert np.array_equal(bits(_grid_moments(atoms, z, order)[0]), bits(want)), z
                got = np.asarray(_grid_moments(measure, z, order)[1])
                assert got.shape == scale.shape and np.array_equal(got.view(np.uint64), scale.view(np.uint64)), z
            # a point that is not finite keeps its NaN
            z = np.array([0.5, math.nan, math.inf, -math.inf])
            with np.errstate(invalid="ignore"):
                got, want = _grid_moments(atoms, z, order)[0], _atom_loop_reference(atoms, z, order)[0]
            assert np.array_equal(got, want, equal_nan=True)
        assert any(t == 0.0 for t, _ in _reflected(m).atoms)

    @pytest.mark.parametrize("name", sorted(DENSITY_MEASURES))
    def test_density_moments_before_pieces(self, name):
        # the evaluator's density sums against a copy of its layout, its
        # levels and its dispatch from before they took pieces: real and
        # complex points inside every level, one ulp either side of every
        # switch, and on the panel path, alone and in one batch, orders 0-2
        m = DENSITY_MEASURES[name]()
        tables = _lay_out_reference(m.density)
        limits = tables.limits
        assert np.array_equal(limits, _density_tables(m.density).limits)
        inner = np.concatenate([[0.0], limits[:-1]])
        radius = np.concatenate([0.5 * (inner + limits), limits, np.nextafter(limits, 0.0), np.nextafter(limits, np.inf)])
        radius = np.concatenate([radius, [1.7 * limits[-1], 40.0 * limits[-1]]])
        zs = np.concatenate([radius, -radius, radius * np.exp(-0.7j), radius * np.exp(-2.9j), [3.3 - 400.0j]])
        for order in (0, 1, 2):
            want = _grid_moments_reference(m, zs, order, tables)
            assert np.array_equal(bits(_grid_moments(m, zs, order)[0]), bits(want)), order
            for i in range(0, zs.size, 5):
                z = zs[i] if zs[i].imag else float(zs[i].real)
                assert np.array_equal(bits(_grid_moments(m, z, order)[0]), bits(want[:, i])), (order, z)

    @pytest.mark.parametrize("cells", [2, 4, 8, 16, 32, 64, 128])
    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_cluster_sum(self, cells, order):
        rng = np.random.default_rng(cells + 1000 * order)
        density = _triangle(128).density
        h, centres, coeffs = _cluster_level(_density_tables(density).pieces, cells)
        B = coeffs[..., 0].real.transpose(1, 0, 2)  # B[m, k, j]
        assert np.array_equal(coeffs.imag, np.zeros_like(coeffs.imag))
        for n in (1, 2, 7, 33, 300):
            # points the level serves, |z| h <= 1/2, real and complex
            z = rng.uniform(0.0, 0.5 / h, n) * np.exp(1j * rng.uniform(-math.pi, 0.1, n))
            z[::3] = z[::3].real
            a, E = 1j * z, np.maximum(-z.imag, 0.0)
            start = rng.normal(size=(order + 1, n)) + 1j * rng.normal(size=(order + 1, n))
            got, want = start.copy(), start.copy()
            _cluster_sum(got, a, E, h, centres, coeffs)
            _cluster_sum_reference(want, a, E, h, centres.ravel(), B)
            assert np.array_equal(bits(got), bits(want)), n

    @pytest.mark.parametrize("order", [0, 1, 2])
    @pytest.mark.parametrize("mix", ["series", "closed", "mixed"])
    def test_segment_moments(self, order, mix):
        # the panel path's shapes, (order + 2, P, 1) powers against P x points,
        # and posdef's, scalar powers against a row or a grid of points
        rng = np.random.default_rng(order + 10 * len(mix))
        for n in (1, 2, 7, 33, 300):
            w = rng.uniform(1e-3, 0.7, (16, 1))
            reach = {"series": 0.99, "closed": 50.0, "mixed": 4.0}[mix]
            lo = {"series": 0.0, "closed": 1.0 / w.min(), "mixed": 0.0}[mix]
            z = rng.uniform(lo, lo + reach / w.max(), n) * np.exp(1j * rng.uniform(-math.pi, 0.0, n))
            a = 1j * z
            w_powers = np.array([[[x**k for x in col] for col in w] for k in range(1, order + 3)])
            beta = a * np.linspace(0.0, 1.0, 16)[:, None] - np.maximum(-z.imag, 0.0)
            small = np.abs(a) * w < _SERIES_CUT
            branches = {"series": small.all(), "closed": not small.any(), "mixed": 0 < small.sum() < small.size}
            assert branches[mix] or n == 1
            got = _segment_moments(w_powers, a, beta)
            assert np.array_equal(bits(got), bits(_segment_moments_reference(w_powers, a, beta)))
            scalar = [0.3**k for k in range(1, order + 3)]
            for args in ((scalar, a, 0.3 * a), (np.ones(order + 2), a * w, 0.0)):
                got = _segment_moments(*args)
                assert got.shape == _segment_moments_reference(*args).shape
                assert np.array_equal(bits(got), bits(_segment_moments_reference(*args)))


class TestTableCache:
    def test_the_zero_workloads_densities_all_stay(self):
        # twenty small densities of 1 to 128 panels and their reflections, more
        # than the complex-plane workload holds, each evaluated through every
        # level and the panel path, as the contour searches do
        rng = np.random.default_rng(4)
        ms = []
        for p in (1, 2, 3, 4, 5, 6, 8, 12, 16, 16, 16, 16, 16, 24, 32, 32, 48, 64, 100, 128):
            nodes = np.linspace(0.0, 1.0, p + 1)
            density = PiecewiseLinearDensity.interpolant(nodes, rng.uniform(0.5, 2.0, p + 1))
            m = StieltjesMeasure(1.0, ((1.0, -0.5),), density)
            ms += [m, m.reflected()]
        first = []
        for m in ms:
            limits = _density_tables(m.density).limits
            _grid_moments(m, np.concatenate([limits, 2.0 * limits[-1:]]) * np.exp(-0.4j), 1)
            first.append((m.density, _density_tables(m.density)))
        assert len({id(d) for d, _ in first}) == 40
        assert all(list(vars(d)["_derived"]) == ["pieces"] for d, _ in first)
        assert all(_density_tables(d) is tables for d, tables in first)

    def test_derived_data_dies_with_its_measure(self):
        # C and a far complex point derive every entry: the reflection, its density
        # and origin series, and the tables of both densities out to the panel
        # path; once the measure and its density are dropped, all of it dies
        density = PiecewiseLinearDensity.interpolant([0.0, 0.4, 1.3], [1.0, 2.5, 0.5])
        m = StieltjesMeasure(1.3, ((1.3, -density.mass()),), density)
        eval_CS(m, np.linspace(-5.0, 5.0, 11))
        eval_E(m, -math.pi / 2, -1, 0.0)
        eval_F(m, 900.0 - 300.0j)
        _equispaced_moments(m, 0.5, 0.1, -10, 21)
        reflected = vars(m)["_derived"]["reflected"]
        mirror = reflected.density
        assert set(vars(m)["_derived"]) == {"reflected", ("equispaced", 0)}
        assert set(vars(density)["_derived"]) == {"pieces", ("mirror", 1.3)}
        assert vars(density)["_derived"][("mirror", 1.3)] is mirror
        assert set(vars(reflected)["_derived"]) == {"origin"} and set(vars(mirror)["_derived"]) == {"pieces"}
        refs = [weakref.ref(owner) for owner in (m, density, mirror, reflected)]
        del m, density, mirror, reflected
        gc.collect()
        assert [ref() for ref in refs] == [None] * 4

    def test_a_fresh_measure_over_a_held_density_finds_its_tables(self, monkeypatch):
        # monotone_density_S builds a new measure on every call; it reads S
        # alone, so the density's reflection and the reflection's tables are
        # built once, and the density's own tables never
        from hbfourier.posdef import monotone_density_S

        g = PiecewiseLinearDensity.step([0.0, 0.35, 0.9, 1.7], [0.5, 1.25, 2.0])
        laid_out, reflections = [], []
        lay_out, reflect = transforms._lay_out, PiecewiseLinearDensity.reflected

        def counted_lay_out(pieces):
            laid_out.append(pieces)
            return lay_out(pieces)

        def counted_reflect(density, sigma):
            reflections.append(density)
            return reflect(density, sigma)

        monkeypatch.setattr(transforms, "_lay_out", counted_lay_out)
        monkeypatch.setattr(PiecewiseLinearDensity, "reflected", counted_reflect)
        seen = []
        for _ in range(2):
            monotone_density_S(g, np.linspace(0.5, 30.0, 60))
            mirror = vars(g)["_derived"][("mirror", 1.7)]
            seen.append((mirror, vars(mirror)["_derived"]["pieces"]))
        assert all(first is second for first, second in zip(*seen))
        # one layout, of the reflection's panels, whose tables hold the very pieces laid out
        assert len(laid_out) == 1 and laid_out[0] is seen[0][1].pieces and reflections == [g]
        assert laid_out[0][0].tolist() == list(seen[0][0].nodes[:-1]) and "pieces" not in vars(g)["_derived"]

    def test_a_held_density_serves_every_measure_and_an_equal_one_builds_its_own(self, monkeypatch):
        # what is derived lives on the density object: new measures over one held
        # density find its tables and its reflection, while an equal density built
        # apart lays out and reflects its own, to the same bits
        laid_out, reflections = [], []
        lay_out, reflect = transforms._lay_out, PiecewiseLinearDensity.reflected
        monkeypatch.setattr(transforms, "_lay_out", lambda pieces: laid_out.append(pieces) or lay_out(pieces))
        monkeypatch.setattr(PiecewiseLinearDensity, "reflected", lambda d, sigma: reflections.append(d) or reflect(d, sigma))
        nodes, values = [0.0, 0.5, 1.0], [1.0, 2.0, 0.5]
        held = PiecewiseLinearDensity.interpolant(nodes, values)
        apart = PiecewiseLinearDensity.interpolant(nodes, values)
        assert held == apart and held is not apart
        x = np.array([0.5, 3.0, 40.0])
        got = []
        for density in (held, held, held, apart):
            m = StieltjesMeasure(1.0, (), density)
            got.append(np.array([eval_F(m, x), *eval_CS(m, x)]))
        assert _density_tables(held) is not _density_tables(apart)
        # one layout of each density's panels and of each reflection's
        assert len(laid_out) == 4 and [id(d) for d in reflections] == [id(held), id(apart)]
        assert all(np.array_equal(bits(v), bits(got[0])) for v in got)


def _one_side_readers():
    """(module, reader) for every reader of one side of `real_transforms`."""
    from hbfourier import inequality, posdef, zeros

    g = PiecewiseLinearDensity.interpolant([0.0, 0.3, 1.0, 1.7], [0.2, 0.5, 0.5, 1.4])
    decaying, mixed = StieltjesMeasure(1.7, (), g), mixed_measure()
    cfgs = (inequality.OmegaConfig(decaying, 1, -math.pi / 2), inequality.OmegaConfig(mixed, 0, 0.4))
    return {
        "monotone_density_S": (posdef, lambda x: posdef.monotone_density_S(g, x)[0]),
        "eval_Delta_reflected": (transforms, lambda x: (eval_Delta_reflected(decaying, x), eval_Delta_reflected(mixed, x))),
        "eval_D": (inequality, lambda x: [inequality.eval_D(cfg, x) for cfg in cfgs]),
        "eval_d": (inequality, lambda x: [inequality.eval_d(cfg, x) for cfg in cfgs]),
        "squared_bracket_direct": (inequality, lambda x: [inequality.squared_bracket_direct(cfg, x) for cfg in cfgs]),
        "delta_xi": (zeros, lambda x: (zeros.delta_xi(decaying, 0.7, x), zeros.delta_xi(mixed, 1.3, x))),
    }


class TestOneSide:
    """A reader of one side of the real-axis transforms makes that side's
    evaluator pass alone, and reads the bits that both passes give."""

    @pytest.mark.parametrize("name", list(_one_side_readers()))
    def test_one_pass_with_the_bits_of_both(self, name, monkeypatch):
        module, reader = _one_side_readers()[name]
        x = np.linspace(-12.0, 12.0, 241)
        evaluator, calls = transforms._grid_moments, []
        monkeypatch.setattr(transforms, "_grid_moments", lambda *args: calls.append(args[0]) or evaluator(*args))
        got = reader(x)
        assert len(calls) == (1 if name == "monotone_density_S" else 2)  # one per measure read
        # both sides, as `real_transforms` gives them
        monkeypatch.setattr(module, "_one_side", lambda measure, x, order, mirrored: real_transforms(measure, x, order))
        want = reader(x)
        assert np.array_equal(bits(got), bits(want))


class TestBracketedNewton:
    def test_roots_of_either_orientation(self):
        # cos falls through pi/2 and 5 pi/2 and rises through 3 pi/2
        sign = np.array([-1.0, 1.0, -1.0])
        moving = []

        def fn(x, k):
            moving.append(len(k))
            return sign[k] * np.cos(x), -sign[k] * np.sin(x), x

        roots = _bracketed_newton(fn, [1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [1.0, 5.0, 7.5], 1.0)[0]
        assert np.allclose(roots, [0.5 * math.pi, 1.5 * math.pi, 2.5 * math.pi], rtol=1e-15, atol=0.0)
        assert moving[0] == 3 and len(moving) < 10

    def test_returns_each_brackets_last_evaluation(self):
        # rows (x, k + 10 x) name the call they come from; the brackets stop at
        # different iterations, and each keeps the point and rows of its last call
        sign, calls = np.array([-1.0, 1.0, -1.0]), []

        def fn(x, k):
            calls.append((x.copy(), k.copy()))
            return sign[k] * np.cos(x), -sign[k] * np.sin(x), np.array([x, k + 10.0 * x])

        x, at, rows = _bracketed_newton(fn, [1.0, 4.0, 7.0], [2.0, 5.0, 8.0], [1.0, 5.0, 7.5], 1.0)
        assert len({len(k) for _, k in calls}) >= 2
        for j in range(3):
            last = [xs[ks == j][0] for xs, ks in calls if j in ks][-1]
            assert at[j] == last and rows[:, j].tolist() == [last, j + 10.0 * last]
            assert abs(x[j] - at[j]) <= transforms._NEWTON_XTOL * max(1.0, abs(x[j]))
        calls.clear()
        x, at, rows = _bracketed_newton(fn, [], [], [], 1.0)
        assert x.size == at.size == 0 and rows is None and not calls

    def test_no_sign_change_runs_into_the_end_bisection_reaches(self):
        # f > 0 throughout ends at lo, f < 0 throughout at hi: the minimum of
        # the function whose slope f is
        shift = np.array([10.0, -10.0])
        x = _bracketed_newton(lambda x, k: (x + shift[k], np.ones_like(x), x), 0.0, 1.0, [0.5, 0.5], 1.0)[0]
        assert x == pytest.approx([0.0, 1.0], abs=1e-13)

    def test_matches_the_reference_loop_bit_for_bit(self):
        # the moving brackets are carried as compacted arrays with the same
        # arithmetic: every call and every root keep the reference's bits.
        # Bracket 0 starts on the root of cos's shifted copy and stops at once
        # on f = 0; 1 and 2 start near and far from their roots, so they stop
        # at different iterations; 3 takes a NaN step at its start; 4 has no
        # sign change and runs into its end
        lo = np.array([0.0, 1.0, 4.0, 7.0, 0.0])
        hi = np.array([1.0, 2.0, 5.0, 8.0, 1.0])
        x0 = np.array([0.5, 1.5707963, 4.0, 7.25, 0.5])
        sign = np.array([1.0, -1.0, 1.0, -1.0, 1.0])

        def fn(calls):
            def f(x, k):
                calls.append((x.tobytes(), k.tobytes()))
                value = np.where(k == 0, x - 0.5, np.where(k == 4, x + 10.0, sign[k] * np.cos(x)))
                slope = np.where(k == 0, 1.0, np.where(k == 4, 1.0, -sign[k] * np.sin(x)))
                return value, np.where((k == 3) & (x == 7.25), np.nan, slope), x

            return f

        calls, ref_calls = [], []
        roots = _bracketed_newton(fn(calls), lo, hi, x0, 1.0)[0]
        want = reference.bracketed_newton(fn(ref_calls), lo, hi, x0, 1.0)
        assert roots.tobytes() == want.tobytes()
        assert calls == ref_calls
        assert roots[0] == 0.5 and 0.0 <= roots[4] <= 1e-14
        assert len({len(k) for _, k in calls}) >= 3  # the brackets stop at different iterations


class TestGridMinima:
    @pytest.mark.parametrize("seed", range(5))
    def test_matches_the_padded_reference(self, seed):
        # ties, NaNs and both ends, against the copy that pads mod with +inf
        rng = np.random.default_rng(seed)
        mod = rng.integers(0, 4, 60).astype(float)
        mod[rng.integers(0, 60, 5)] = np.nan
        mod[0], mod[-1] = rng.choice([0.0, 1.0, np.nan], 2)
        low = mod <= 2.0 if seed % 2 else rng.random(60) < 0.7
        got, want = _grid_minima(mod, low), reference.grid_minima(mod, low)
        for a, b in zip(got, want):
            assert a.tolist() == b.tolist()

    def test_two_points_and_no_candidate(self):
        for mod in ([1.0, 1.0], [0.0, 1.0], [np.nan, 0.0]):
            mod = np.array(mod)
            low = np.ones(2, dtype=bool)
            assert [a.tolist() for a in _grid_minima(mod, low)] == [a.tolist() for a in reference.grid_minima(mod, low)]
        assert all(a.size == 0 for a in _grid_minima(np.array([1.0, 2.0]), np.zeros(2, dtype=bool)))


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
