import math

import numpy as np
import pytest

from hbfourier import sampling
from hbfourier.inequality import OmegaConfig
from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_pd_profile
from hbfourier.sampling import (
    SampledFunction,
    _trigamma,
    from_omega_config,
    interp_lhs,
    interp_rhs,
)


def cosine_function(sigma, alpha):
    return SampledFunction(
        evaluate=lambda x: np.cos(sigma * np.asarray(x, dtype=float) + alpha),
        derivative=lambda x: -sigma * np.sin(sigma * np.asarray(x, dtype=float) + alpha),
        sigma=sigma,
        envelope=lambda r: 1.0,
    )


def sine_function(sigma, alpha):
    return SampledFunction(
        evaluate=lambda x: np.sin(sigma * np.asarray(x, dtype=float) + alpha),
        derivative=lambda x: sigma * np.cos(sigma * np.asarray(x, dtype=float) + alpha),
        sigma=sigma,
        envelope=lambda r: 1.0,
    )


def constant_function(sigma=1.0):
    return SampledFunction(
        evaluate=lambda x: np.ones_like(np.asarray(x, dtype=float)),
        derivative=lambda x: np.zeros_like(np.asarray(x, dtype=float)),
        sigma=sigma,
        envelope=lambda r: 1.0,
    )


class TestSampledFunction:
    def test_mismatched_derivative_rejected(self):
        with pytest.raises(ValueError, match="central difference"):
            SampledFunction(
                evaluate=lambda x: np.sin(np.asarray(x, dtype=float)),
                derivative=lambda x: 2.0 * np.cos(np.asarray(x, dtype=float)),
                sigma=1.0,
                envelope=lambda r: 1.0,
            )

    @pytest.mark.parametrize("scale", [1.0, 1e-12])
    def test_mismatched_derivative_rejected_at_any_scale(self, scale):
        # the check is relative to max |f|, with no absolute floor
        with pytest.raises(ValueError, match="central difference"):
            SampledFunction(lambda x: scale * np.sin(x), lambda x: 2.0 * scale * np.cos(x), 1.0, lambda r: scale)

    def test_zero_function_passes(self):
        SampledFunction(lambda x: 0.0 * x, lambda x: 0.0 * x, 1.0, lambda r: 0.0)

    def test_nan_derivative_rejected(self):
        with pytest.raises(ValueError, match="central difference"):
            SampledFunction(np.sin, lambda x: np.full_like(x, np.nan), 1.0, lambda r: 1.0)

    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            constant_function(sigma=0.0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf])
    def test_rejects_a_sigma_that_is_not_finite(self, sigma):
        with pytest.raises(ValueError, match="positive and finite"):
            constant_function(sigma=sigma)

    def test_probes_take_one_evaluation(self):
        # the probes and both neighbours in one call, which a batch does not change
        sizes = []
        SampledFunction(lambda x: sizes.append(np.size(x)) or np.sin(x), np.cos, 1.0, lambda r: 1.0)
        assert sizes == [30]


class TestLhs:
    def test_sine_collapses(self):
        f = sine_function(1.3, 0.4)
        for x in (-2.0, 0.0, 0.7):
            assert interp_lhs(f, 1.3, 0.4, x) == pytest.approx(0.0, abs=1e-12)

    def test_cosine_gives_sigma(self):
        f = cosine_function(1.3, 0.4)
        for x in (-2.0, 0.1, 5.5):
            assert interp_lhs(f, 1.3, 0.4, x) == pytest.approx(1.3, abs=1e-12)

    def test_constant_gives_modulated_sigma(self):
        f = constant_function()
        x = 0.9
        assert interp_lhs(f, 1.0, 0.2, x) == pytest.approx(math.cos(x + 0.2), abs=1e-12)


class TestRhs:
    def test_sine_vanishes_at_all_nodes(self):
        f = sine_function(1.1, 0.3)
        for n in (1, 10, 500):
            assert interp_rhs(f, 1.1, 0.3, 0.7, n).value == pytest.approx(0.0, abs=1e-12)

    def test_cosine_matches_sigma(self):
        sigma, alpha = 1.7, 0.9
        f = cosine_function(sigma, alpha)
        res = interp_rhs(f, sigma, alpha, 0.37, 10_000)
        assert abs(res.value - sigma) <= 1e-3

    def test_constant_matches_lhs(self):
        f = constant_function()
        lhs = interp_lhs(f, 1.0, 0.2, 0.3)
        res = interp_rhs(f, 1.0, 0.2, 0.3, 10_000)
        assert abs(res.value - lhs) <= 1e-3

    def test_rejects_bad_term_count(self):
        f = constant_function()
        with pytest.raises(ValueError):
            interp_rhs(f, 1.0, 0.0, 0.0, 0)

    @pytest.mark.parametrize("sigma", [math.nan, math.inf, -math.inf, 0.0, -1.0])
    def test_both_sides_refuse_a_sigma_that_is_not_positive_and_finite(self, sigma):
        # NaN fails `sigma <= 0` and would give a NaN value and tail bound; inf
        # would end in a math domain error
        f = constant_function()
        with pytest.raises(ValueError, match="positive and finite"):
            interp_lhs(f, sigma, 0.2, 0.3)
        with pytest.raises(ValueError, match="positive and finite"):
            interp_rhs(f, sigma, 0.2, 0.3, 10)

    def test_node_coincidence_uses_removable_value(self):
        sigma, alpha = 1.3, 0.4
        f = cosine_function(sigma, alpha)
        x0 = (5.0 * math.pi - alpha) / sigma  # theta lands exactly on a node
        res = interp_rhs(f, sigma, alpha, x0, 2000)
        assert res.value == pytest.approx(sigma, abs=1e-6)

    def test_series_evaluates_only_its_nodes(self):
        # the tail bound comes from the envelope, with no node past the series
        f = cosine_function(1.3, 0.4)
        sizes = []
        counted = SampledFunction(lambda x: sizes.append(np.size(x)) or f.evaluate(x), f.derivative, 1.3, f.envelope)
        sizes.clear()
        res = interp_rhs(counted, 1.3, 0.4, 0.7, 500)
        assert sizes == [1001]
        assert res.tail_bound == interp_rhs(f, 1.3, 0.4, 0.7, 500).tail_bound

    def test_tail_bound_decreases_with_more_terms(self):
        f = cosine_function(1.0, 0.25)
        tails = [interp_rhs(f, 1.0, 0.25, 0.4, n).tail_bound for n in (100, 200, 400, 800)]
        assert all(b > s for b, s in zip(tails, tails[1:]))


class TestTrigamma:
    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(11)
        positive = np.concatenate([10.0 ** rng.uniform(0.0, 6.0, 300), [1.0, 2.0, 9.999999, 10.0, 10.5, 1e6]])
        negative = -rng.uniform(0.0, 40.0, 100)
        negative = np.concatenate([negative[negative != np.floor(negative)], [-0.5, -2.25, -1e-3, -7.999]])
        with mpmath.workdps(30):
            for x in np.concatenate([positive, negative]):
                exact = mpmath.psi(1, mpmath.mpf(float(x)))
                assert abs(_trigamma(float(x)) - exact) <= 1e-14 * abs(exact), x

    def test_poles(self):
        assert _trigamma(0.0) == math.inf
        assert _trigamma(-3.0) == math.inf


class TestOmegaConfigFunctions:
    def test_identity_within_tail_for_fejer_family(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        rng = np.random.default_rng(5)
        for _ in range(20):
            x = float(rng.uniform(-8.0, 8.0))
            alpha = float(rng.uniform(0.0, math.pi))
            f = from_omega_config(cfg, alpha)
            lhs = interp_lhs(f, fejer2.sigma, alpha, x)
            rhs = interp_rhs(f, fejer2.sigma, alpha, x, 4000)
            assert abs(lhs - rhs.value) <= rhs.tail_bound + 1e-9

    def test_identity_for_decay_family(self, ramp_density):
        cfg = OmegaConfig(ramp_density, 1, -math.pi / 2)
        f = from_omega_config(cfg, 0.8)
        lhs = interp_lhs(f, 1.0, 0.8, 1.9)
        rhs = interp_rhs(f, 1.0, 0.8, 1.9, 4000)
        assert abs(lhs - rhs.value) <= rhs.tail_bound + 1e-9

    def test_nonnegative_node_transfer(self, fejer2):
        # (-1)^k f(lambda_k) equals the nonnegative combination at shifted
        # nodes, so every series term is nonnegative for this family
        cfg = OmegaConfig(fejer2, 0, 0.0)
        alpha = 0.55
        f = from_omega_config(cfg, alpha)
        k = np.arange(-400, 401)
        nodes = (k * math.pi - alpha) / fejer2.sigma
        signed = np.where(k % 2 == 0, 1.0, -1.0) * f.evaluate(nodes)
        assert signed.min() >= -1e-12
        res = interp_rhs(f, fejer2.sigma, alpha, 0.9, 400)
        assert res.value >= -res.tail_bound

    def test_symmetric_pairing_matches_plain_sum(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        alpha = 0.3
        f = from_omega_config(cfg, alpha)
        x, n = 1.1, 600
        res = interp_rhs(f, fejer2.sigma, alpha, x, n)
        theta = fejer2.sigma * x + alpha
        k = np.arange(-n, n + 1)
        nodes = (k * math.pi - alpha) / fejer2.sigma
        vals = np.asarray(f.evaluate(nodes))
        signs = np.where(k % 2 == 0, 1.0, -1.0)
        terms = np.sin(theta) ** 2 / (theta - k * math.pi) ** 2 * signs * vals
        brute_up = fejer2.sigma * float(np.sum(terms))
        brute_down = fejer2.sigma * float(np.sum(terms[::-1]))
        assert res.value == pytest.approx(brute_up, abs=1e-10)
        assert res.value == pytest.approx(brute_down, abs=1e-10)

    def test_determinism(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        f = from_omega_config(cfg, 0.3)
        a = interp_rhs(f, fejer2.sigma, 0.3, 1.1, 500)
        b = interp_rhs(f, fejer2.sigma, 0.3, 1.1, 500)
        assert a.value == b.value and a.tail_bound == b.tail_bound

    def test_identity_for_root_family(self):
        # omega = F / z with F(0) = 0; the probes include points near the
        # origin of u = x - tau / sigma, where f takes its exact limits
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)
        cfg = OmegaConfig(m, -1, -math.pi / 2)
        shift = cfg.tau / m.sigma
        rng = np.random.default_rng(9)
        for x in [*rng.uniform(-6.0, 6.0, 4), shift, shift + 0.5e-6, shift + 1e-3]:
            alpha = float(rng.uniform(0.0, math.pi))
            f = from_omega_config(cfg, alpha)
            lhs = interp_lhs(f, m.sigma, alpha, float(x))
            rhs = interp_rhs(f, m.sigma, alpha, float(x), 4000)
            assert abs(lhs - rhs.value) <= rhs.tail_bound + 1e-9

    def test_root_family_continuous_across_the_origin_cut(self):
        # where |u| sigma <= 1/2, f and f' come from the series of F(u) / u;
        # past that switch they are quotients of G and H, whose rounding eps V
        # grows to eps V / u in f and eps V / u^2 in f', and bounds the jumps
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)
        cfg = OmegaConfig(m, -1, -math.pi / 2)
        shift = cfg.tau / m.sigma
        switch = 0.5 / m.sigma
        rounding = np.finfo(float).eps * m.total_variation / switch
        for alpha in (0.0, 0.7, math.pi / 2):
            f = from_omega_config(cfg, alpha)
            for side in (1.0, -1.0):
                edge = shift + side * switch
                x = edge + side * abs(np.spacing(edge)) * np.array([-1.0, 1.0])
                assert abs(x[0] - shift) <= switch < abs(x[1] - shift)
                value, slope = f.evaluate(x), f.derivative(x)
                # f moves by its slope times the 2-ulp step, f' by 2 ulps times f''
                assert abs(value[1] - value[0] - slope[0] * (x[1] - x[0])) <= rounding
                assert abs(slope[1] - slope[0]) <= rounding / switch

    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_series_nodes_take_the_equispaced_kernel(self, n, monkeypatch):
        measure = {
            0: from_fejer(2, 1.0, 1.0),
            1: StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 0.0])),
            -1: from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0),
        }[n]
        f = from_omega_config(OmegaConfig(measure, n, 0.0 if n == 0 else -math.pi / 2), 0.4)
        calls = []
        grid, kernel = sampling._grid_moments, sampling._equispaced_moments
        monkeypatch.setattr(sampling, "_grid_moments", lambda *args: calls.append("grid") or grid(*args))
        monkeypatch.setattr(sampling, "_equispaced_moments", lambda *args: calls.append("kernel") or kernel(*args))
        k_pi, signed, _ = sampling._node_samples(f, measure.sigma, 0.4, 300)
        assert calls == ["kernel"]
        nodes = (np.arange(-300, 301) * math.pi - 0.4) / measure.sigma
        values = np.where(np.arange(-300, 301) % 2 == 0, 1.0, -1.0) * f.evaluate(nodes)
        assert np.array_equal(k_pi, np.arange(-300, 301) * math.pi)
        assert np.max(np.abs(signed - values)) <= 1e-14 * measure.bound(-n) * (1.0 + 300 * math.pi)

    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_one_evaluator_pass_per_evaluation(self, n, monkeypatch):
        measure = {
            0: from_fejer(2, 1.0, 1.0),
            1: StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 0.0])),
            -1: from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0),
        }[n]
        f = from_omega_config(OmegaConfig(measure, n, 0.0 if n == 0 else -math.pi / 2), 0.4)
        calls = []
        original = sampling._grid_moments
        monkeypatch.setattr(sampling, "_grid_moments", lambda *args: calls.append(args) or original(*args))
        x = np.array([-3.0, -math.pi / 2, 0.0, 1.3])  # u = 0 at the second point for n = -1
        f.evaluate(x)
        assert len(calls) == 1
        f.derivative(x)
        assert len(calls) == 2

    @pytest.mark.parametrize("n", [0, 1, -1])
    def test_joint_pass_gives_the_bits_of_both(self, n, monkeypatch):
        # row 0 of an order-1 pass has the bits of an order-0 pass, so the probe
        # check and interp_lhs take one pass each and print what they printed
        measure = {
            0: from_fejer(2, 1.0, 1.0),
            1: StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 0.0])),
            -1: from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0),
        }[n]
        cfg = OmegaConfig(measure, n, 0.0 if n == 0 else -math.pi / 2)
        calls = []
        original = sampling._grid_moments
        monkeypatch.setattr(sampling, "_grid_moments", lambda m, z, order: calls.append((np.size(z), order)) or original(m, z, order))
        f = from_omega_config(cfg, 0.4)
        assert calls == [(30, 1)]  # the probes and both neighbours
        x = np.array([-3.0, -math.pi / 2, -math.pi / 2 + 1e-7, 0.0, 1.3])  # u = 0 at the second point for n = -1
        value, slope = f.joint(x)
        assert value.tobytes() == f.evaluate(x).tobytes()
        assert slope.tobytes() == f.derivative(x).tobytes()
        calls.clear()
        lhs = interp_lhs(f, measure.sigma, 0.4, 1.3)
        assert calls == [(1, 1)]
        phase = measure.sigma * 1.3 + 0.4
        assert lhs == measure.sigma * float(value[-1]) * math.cos(phase) - float(slope[-1]) * math.sin(phase)

    def test_probes_are_the_generators_draws(self):
        # written out once, the same ten points in the unit 1 / sigma as the generator gives
        assert sampling._PROBES.tolist() == np.random.default_rng(20240917).uniform(-3.0, 3.0, size=10).tolist()


def _envelope_measure(rng, n):
    """A measure for `from_omega_config` with n: a random density, with atoms unless n = 1,
    and for n = -1 an atom at sigma that makes F(0) = 0."""
    sigma = float(rng.uniform(0.5, 3.0))
    nodes = np.sort(np.concatenate([[0.0, sigma], rng.uniform(0.0, sigma, int(rng.integers(1, 8)))]))
    density = PiecewiseLinearDensity.interpolant(nodes, rng.uniform(-1.0, 2.0, len(nodes)))
    atoms = () if n == 1 else tuple(zip(rng.uniform(0.0, 0.9 * sigma, 3), rng.uniform(-1.0, 1.0, 3)))
    m = StieltjesMeasure(sigma, atoms, density)
    return StieltjesMeasure(sigma, atoms + ((sigma, -m.total_mass),), density) if n == -1 else m


class TestEnvelope:
    @pytest.mark.parametrize("n", [-1, 0, 1])
    @pytest.mark.parametrize("seed", range(4))
    def test_bounds_the_tail(self, n, seed):
        rng = np.random.default_rng([seed, n + 1])
        m = _envelope_measure(rng, n)
        cfg = OmegaConfig(m, n, float(rng.uniform(-math.pi, math.pi)) if n == 0 else -math.pi / 2)
        alpha = float(rng.uniform(0.0, math.pi))
        f = from_omega_config(cfg, alpha)
        n_terms = 40
        r = ((n_terms + 1) * math.pi - alpha) / m.sigma
        envelope = f.envelope(r)
        # 10^4 dense nodes of |x| >= r
        dense = r + np.linspace(0.0, 300.0 / m.sigma, 5000)
        assert envelope >= np.max(np.abs(f.evaluate(np.concatenate([dense, -dense]))))
        # and at the next 2 n_terms series nodes on each side, a sampled maximum
        k = np.arange(n_terms + 1, 3 * n_terms + 1)
        far = np.concatenate([(k * math.pi - alpha) / m.sigma, (-k * math.pi - alpha) / m.sigma])
        assert envelope >= np.max(np.abs(f.evaluate(far)))

    def test_the_kernel_near_u_0_for_the_root_family(self):
        # f = Re(e^{i alpha} F(u) / u) on nodes through u = 1e-9, against 50 digits
        mpmath = pytest.importorskip("mpmath")
        m = StieltjesMeasure(1.0, ((0.3, 0.4), (1.0, -1.65)), PiecewiseLinearDensity.interpolant([0.0, 0.5, 1.0], [1.0, 2.0, 0.0]))
        cfg = OmegaConfig(m, -1, -math.pi / 2)
        alpha, shift = 0.7, cfg.tau / m.sigma
        f = from_omega_config(cfg, alpha)
        step, first, count = 0.05, -200, 401
        values = f.on_nodes(step, shift + 1e-9, first, count)
        u = step * np.arange(first, first + count) + (shift + 1e-9 - shift)
        assert abs(u[200]) < 2e-9
        scale = m.bound(1)
        assert np.max(np.abs(values - f.evaluate(u + shift))) <= 1e-14 * scale
        with mpmath.workdps(50):
            def exact(x):
                x = mpmath.mpf(x)
                w = mpmath.fsum(mpmath.mpf(c) * (mpmath.expj(x * t) - 1) for t, c in m.atoms)
                for panel in m.density.panels:
                    t0, t1, v0, v1 = (mpmath.mpf(v) for v in panel)
                    g = lambda t: v0 + (v1 - v0) * (t - t0) / (t1 - t0)
                    w += mpmath.quad(lambda t: g(t) * (mpmath.expj(x * t) - 1), [t0, t1])
                return float((mpmath.expj(alpha) * w / x).real)

            for i in [*range(190, 211), 0, 100, 300, count - 1]:
                assert abs(values[i] - exact(u[i])) <= 1e-14 * scale, u[i]
