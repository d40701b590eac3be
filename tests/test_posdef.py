import math

import numpy as np
import pytest
from scipy.integrate import quad

from hbfourier.measure import (
    PiecewiseLinearDensity,
    StieltjesMeasure,
    fejer_profile,
    from_fejer,
    from_monomial_density,
    from_pd_profile,
)
from hbfourier.posdef import (
    alternating_sign_table,
    autocorr_h,
    check_h_hat_identity,
    cm_finite_difference_check,
    damped_kernel_integral,
    fejer_cosine_poly,
    h_prime_zero_checks,
    laplace_limit_check,
    monotone_density_S,
    recover_pd_profile,
)
from hbfourier.transforms import _segment_moments, real_transforms


@pytest.fixture
def unit_g():
    return PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])


class TestProfileRecovery:
    def test_triangle_roundtrip(self, triangle_case2):
        rep = recover_pd_profile(triangle_case2)
        ts = np.linspace(-1.2, 1.2, 61)
        assert np.allclose(rep.profile.f(ts), np.maximum(1.0 - np.abs(ts), 0.0), atol=1e-14)
        assert rep.s_nonneg
        assert rep.pd_bound_ok
        assert rep.f0 == pytest.approx(1.0)

    def test_atom_at_sigma_has_flat_profile(self):
        m = StieltjesMeasure(1.0, ((1.0, 2.0),))
        rep = recover_pd_profile(m)
        assert rep.s_nonneg
        assert np.allclose(rep.profile.f(np.linspace(-1, 1, 21)), 0.0)
        # S == 0 identically corresponds to the pure-phase transform
        x = np.linspace(0.1, 20.0, 100)
        assert np.allclose(real_transforms(m, x, 0).S, 0.0, atol=1e-14)

    def test_sign_breaking_measure_fails_verdict(self, sign_breaking_atoms):
        rep = recover_pd_profile(sign_breaking_atoms)
        assert not rep.s_nonneg

    def test_sine_equals_x_times_cosine_transform(self, triangle_case2, ramp_density):
        for m in (triangle_case2, ramp_density):
            rep = recover_pd_profile(m)
            x = np.linspace(0.05, 30.0, 173)
            s_vals = real_transforms(m, x, 0).S
            k_vals = rep.profile.K(x)
            assert np.max(np.abs(s_vals - x * k_vals)) <= 1e-10 * max(1.0, m.total_variation)

    def test_many_panel_profile_is_the_reflected_distribution(self):
        from hbfourier.measure import from_monomial_density

        m = from_monomial_density(1.5, 0.8)
        profile = recover_pd_profile(m).profile
        assert len(profile.pieces) == len(m.density.nodes) - 1
        t = np.concatenate([1.0 - np.array(m.density.nodes), np.random.default_rng(3).uniform(0.0, 1.0, 2000)])
        expected = m.density.cumulative(m.sigma - t)
        assert np.max(np.abs(profile.f(t) - expected)) <= 1e-14 * m.total_variation
        assert np.array_equal(profile.f(-t), profile.f(t))

    @pytest.mark.parametrize("mu, nu", [(1.0, 0.5), (2.0, 0.5), (1.5, 0.8)])
    def test_steep_panels_keep_the_profile_exact(self, mu, nu):
        # g(b0) is taken in each panel's own coordinate: a global intercept
        # cancelled on the steep panels next to t = 1 and put f0 = f(0)
        # 5.7e-13 off the left-limit mass on (1.0, 0.5)
        from hbfourier.measure import from_monomial_density

        m = from_monomial_density(mu, nu)
        rep = recover_pd_profile(m)
        assert rep.f0 == m.left_limit_mass
        t = np.concatenate([m.sigma - np.array(m.density.nodes), np.random.default_rng(3).uniform(0.0, m.sigma, 2000)])
        expected = m.density.cumulative(m.sigma - t)
        assert np.max(np.abs(rep.profile.f(t) - expected)) <= 2e-15 * m.total_variation

    def test_pd_bound_holds_under_verdict(self, ramp_density):
        rep = recover_pd_profile(ramp_density)
        assert rep.s_nonneg
        grid = np.linspace(-1.0, 1.0, 501)
        assert np.max(np.abs(rep.profile.f(grid))) <= rep.f0 + 1e-12


class TestMomentSigns:
    def test_ramp_density_gets_nonneg_sign(self, ramp_density):
        rep = h_prime_zero_checks(ramp_density)
        assert rep.expected_sign == "nonneg"
        assert rep.sign_ok
        assert rep.h_prime_zero == pytest.approx(1.0 / 3.0, abs=1e-13)
        assert rep.strict_positive_triple == (True, True, True)

    def test_atom_at_sigma_positive_moment(self):
        rep = h_prime_zero_checks(StieltjesMeasure(1.0, ((1.0, 2.0),)))
        assert rep.h_prime_zero == pytest.approx(2.0)
        assert rep.expected_sign == "nonneg" and rep.sign_ok

    def test_borderline_fixture_is_indeterminate(self, triangle_case2):
        rep = h_prime_zero_checks(triangle_case2)
        assert rep.expected_sign == "indeterminate"
        assert rep.sign_ok is None

    def test_requires_sine_hypothesis(self, sign_breaking_atoms):
        from hbfourier.zeros import HypothesisViolation

        with pytest.raises(HypothesisViolation):
            h_prime_zero_checks(sign_breaking_atoms)


class TestLaplaceLimit:
    def test_pure_atom_at_origin(self):
        m = StieltjesMeasure(1.0, ((0.0, 1.0),))
        estimate, target = laplace_limit_check(m, 200.0)
        assert estimate == pytest.approx(1.0, abs=1e-15)
        assert target == 1.0

    def test_pure_density_decays(self, unit_g):
        m = StieltjesMeasure(1.0, (), unit_g)
        estimate, target = laplace_limit_check(m, 200.0)
        assert target == 0.0
        assert estimate == pytest.approx((1.0 - math.exp(-200.0)) / 200.0, rel=1e-12)

    def test_atom_plus_density(self, unit_g):
        m = StieltjesMeasure(1.0, ((0.0, 0.5),), unit_g)
        estimate, target = laplace_limit_check(m, 200.0)
        assert target == 0.5
        assert abs(estimate - target) <= 1.0 / 200.0 * m.total_variation

    @pytest.mark.parametrize("t_max", [0.0, -1.0, math.nan, math.inf])
    def test_refuses_a_t_max_that_is_not_finite_and_positive(self, unit_g, t_max):
        with pytest.raises(ValueError, match="t_max"):
            laplace_limit_check(StieltjesMeasure(1.0, (), unit_g), t_max)


class TestDampedKernel:
    def test_triangle_value_against_quadrature(self, triangle_case2):
        profile = recover_pd_profile(triangle_case2).profile
        value = damped_kernel_integral(profile, 1.0, 1.0)
        oracle = 2.0 * quad(lambda t: math.exp(-t) * (1.0 - t) * max(1.0 - t, 0.0), 0.0, 1.0)[0]
        assert value == pytest.approx(oracle, abs=1e-12)
        assert value > 0.0

    def test_smaller_tilt_gives_larger_value(self, triangle_case2):
        profile = recover_pd_profile(triangle_case2).profile
        assert damped_kernel_integral(profile, 1.0, 0.0) > damped_kernel_integral(profile, 1.0, 1.0)

    def test_rejections(self, triangle_case2):
        profile = recover_pd_profile(triangle_case2).profile
        with pytest.raises(ValueError):
            damped_kernel_integral(profile, 1.0, 1.5)
        with pytest.raises(ValueError):
            damped_kernel_integral(profile, -1.0, 0.0)
        # NaN and inf fail the guards instead of passing as NaN
        for alpha, beta in ((math.nan, 0.0), (math.inf, 0.0), (1.0, math.nan), (math.nan, math.nan)):
            with pytest.raises(ValueError):
                damped_kernel_integral(profile, alpha, beta)
        zero_profile = recover_pd_profile(StieltjesMeasure(1.0, ((1.0, 1.0),))).profile
        with pytest.raises(ValueError, match="vanish"):
            damped_kernel_integral(zero_profile, 1.0, 0.0)

    def test_positive_for_random_admissible_parameters(self, triangle_case2):
        profile = recover_pd_profile(triangle_case2).profile
        rng = np.random.default_rng(2)
        for _ in range(20):
            alpha = float(rng.uniform(0.1, 4.0))
            beta = float(rng.uniform(-alpha, alpha))
            assert damped_kernel_integral(profile, alpha, beta) > 0.0


def _K_per_piece(profile, x):
    """K summed piece by piece, one `_segment_moments` call per piece: the reference for `PosDefProfile.K`."""
    x = np.asarray(x, dtype=float)
    total = np.zeros(x.shape if x.ndim else (1,), dtype=float)
    xv = x if x.ndim else x.reshape(1)
    a = 1j * xv
    for t0, t1, coeffs in profile.pieces:
        w = t1 - t0
        if w <= 0.0:
            continue
        M = _segment_moments([w**k for k in range(1, 4)], a, 1j * xv * t0)
        for j, cj in enumerate(coeffs):
            if cj != 0.0:
                total += cj * M[j].real
    return total if x.ndim else float(total[0])


def _damped_per_piece(profile, alpha, beta):
    """`damped_kernel_integral` summed piece by piece: its reference formula."""
    total = 0.0
    a = np.array([-alpha + 0.0j])
    for t0, t1, (c0, c1, c2) in profile.pieces:
        w = t1 - t0
        if w <= 0.0:
            continue
        k0 = 1.0 - beta * t0
        q = (k0 * c0, k0 * c1 - beta * c0, k0 * c2 - beta * c1, -beta * c2)
        M = _segment_moments([w**k for k in range(1, 5)], a, np.array([-alpha * t0 + 0.0j]))
        total += sum(qj * M[j][0].real for j, qj in enumerate(q) if qj != 0.0)
    return 2.0 * total


def _abs_integral(profile):
    """int_0^sigma |f|, by the trapezoid rule on 20001 points: the scale of K and the damped integral."""
    t = np.linspace(0.0, profile.sigma, 20001)
    y = np.abs(profile.f(t))
    return float(np.sum(0.5 * (y[1:] + y[:-1]) * np.diff(t)))


def _mp_moments(pieces, order):
    """lam -> [int t^m p(t) e^{lam t} dt summed over pieces (t0, t1, c), p = sum_k c_k (t - t0)^k, for
    m = 0..order] at 50 digits.  The antiderivative of q e^{lam t} is e^{lam t} sum_k (-1)^k q^(k) / lam^(k+1),
    so the sum runs over the piece ends, each with the jumps there of q^(k) for q = t^m p, found once."""
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(50):
        ends, at_zero = {}, [mpmath.mpf(0)] * (order + 1)
        for t0, t1, c in pieces:
            start, w = mpmath.mpf(t0), mpmath.mpf(t1) - mpmath.mpf(t0)
            q = [mpmath.mpf(v) for v in c]
            for m in range(order + 1):
                at_zero[m] += sum(qk * w ** (k + 1) / (k + 1) for k, qk in enumerate(q))
                for t, u, sign in ((t1, w, 1), (t0, 0, -1)):
                    jumps = ends.setdefault(t, [[0] * (len(c) + order) for _ in range(order + 1)])[m]
                    for k in range(len(q)):
                        jumps[k] += sign * sum(math.perm(j, k) * q[j] * u ** (j - k) for j in range(k, len(q)))
                q = [start * qk + (q[k - 1] if k else 0) for k, qk in enumerate(q + [0])]  # times t = t0 + u
        nodes = [mpmath.mpf(t) for t in sorted(ends)]
        jumps = [[[ends[t][m][k] for t in sorted(ends)] for k in range(len(c) + order)] for m in range(order + 1)]

    def moments(lam):
        with mpmath.workdps(50):
            lam = mpmath.mpmathify(lam)
            if lam == 0:
                return at_zero
            e = [mpmath.expj(lam.imag * t) for t in nodes] if lam.real == 0 else [mpmath.exp(lam * t) for t in nodes]
            return [sum((-1) ** k * mpmath.fdot(e, jk) / lam ** (k + 1) for k, jk in enumerate(jm)) for jm in jumps]

    return moments


def _oracle_points(limits):
    """A point inside every cluster level, one ulp either side of every switch, and two on the panel path."""
    inner = np.concatenate([[0.0], limits[:-1]])
    edges = np.concatenate([np.nextafter(limits, 0.0), np.nextafter(limits, np.inf)])
    return np.concatenate([0.5 * (inner + limits), edges, [1.5 * limits[-1], 7.0 * limits[-1]]])


def _random_profile_measure(seed):
    rng = np.random.default_rng(seed)
    sig = float(rng.uniform(0.5, 3.0))
    panels = int(rng.integers(1, 9))
    density = PiecewiseLinearDensity.interpolant(np.linspace(0.0, sig, panels + 1), rng.uniform(-1.0, 2.0, panels + 1))
    atoms = ((float(rng.uniform(0.0, sig)), float(rng.uniform(-1.0, 1.0))), (sig, float(rng.uniform(-1.0, 1.0))))
    return StieltjesMeasure(sig, atoms if seed % 2 else (), density)


class TestPieceSums:
    """K, the damped integral and h-hat are summed by the evaluator's panel path."""

    @pytest.fixture(params=["monomial", "triangle", "ramp", "random0", "random1", "random2", "random3"])
    def profile(self, request, triangle_case2, ramp_density):
        from hbfourier.measure import from_monomial_density

        if request.param == "monomial":
            m = from_monomial_density(1.5, 0.8)
        elif request.param in ("triangle", "ramp"):
            m = triangle_case2 if request.param == "triangle" else ramp_density
        else:
            m = _random_profile_measure(int(request.param[-1]))
        return recover_pd_profile(m).profile

    def test_K_is_the_per_piece_sum_bit_for_bit(self, profile):
        # bit for bit where K takes the panel path, past the finest cluster
        # level; the points that the levels serve hold the oracle bound
        rng = np.random.default_rng(4)
        xs = [0.0, 1.3, -250.0, np.array([0.0]), np.array([0.0, 0.5, -2.0]), np.linspace(-40.0, 40.0, 161)]
        xs += [rng.uniform(-300.0, 300.0, 40), np.geomspace(1e-6, 1e3, 30).reshape(5, 6)]
        xs += [np.array([-2.5, 2.5, 1e4]) * profile._tables().limits[-1]]
        finest, scale = profile._tables().limits[-1], _abs_integral(profile)
        panel_points = 0
        for x in xs:
            got, want = profile.K(x), _K_per_piece(profile, x)
            assert type(got) is type(want)
            assert np.shape(got) == np.shape(want)
            past = np.abs(x) > finest
            panel_points += int(np.sum(past))
            assert np.asarray(got)[past].tobytes() == np.asarray(want)[past].tobytes(), x
            assert np.all(np.abs(np.asarray(got) - want)[~past] <= 1e-14 * scale), x
        assert panel_points >= 3

    def test_damped_integral_is_the_per_piece_formula(self, profile):
        for alpha, beta in ((1.0, 1.0), (0.3, -0.2), (4.0, 0.0), (100.0, 50.0)):
            want = _damped_per_piece(profile, alpha, beta)
            assert damped_kernel_integral(profile, alpha, beta) == pytest.approx(want, rel=1e-14, abs=0.0)

    def test_posdef_keeps_no_summation_loop_of_its_own(self):
        import hbfourier.posdef as posdef

        assert not hasattr(posdef, "_segment_moments") and not hasattr(posdef, "_BLOCK")


#: measures whose profiles the oracle tests transform; on "zero_width" the
#: profile has a piece of no width, [1, 1], from the density's node at 1e-17
ORACLE_PROFILES = {
    "monomial": lambda: from_monomial_density(1.5, 0.8),
    "triangle": lambda: from_pd_profile([0.0, 1.0], [1.0, 0.0], -0.5),
    "random1": lambda: _random_profile_measure(1),
    "random3": lambda: _random_profile_measure(3),
    "zero_width": lambda: StieltjesMeasure(
        1.0, ((0.5, 0.25),), PiecewiseLinearDensity.interpolant([0.0, 1e-17, 1.0], [1.0, 1.5, 2.0])
    ),
}


class TestAgainstMpmath:
    """K, the damped integral and h-hat against 80-digit closed forms: a point
    inside every cluster level of their pieces, one ulp either side of every
    switch, and the panel path past the finest level."""

    @pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
    def test_K(self, name):
        profile = recover_pd_profile(ORACLE_PROFILES[name]()).profile
        xs = _oracle_points(profile._tables().limits)
        xs = np.concatenate([xs, -xs[:3], [0.0]])
        got, scale, moments = profile.K(xs), _abs_integral(profile), _mp_moments(profile.pieces, 0)
        for x, k in zip(xs, got):
            assert abs(k - float(moments(1j * x)[0].real)) <= 1e-14 * scale, x

    @pytest.mark.parametrize("name", sorted(ORACLE_PROFILES))
    def test_damped_integral(self, name):
        profile = recover_pd_profile(ORACLE_PROFILES[name]()).profile
        scale, moments = 2.0 * _abs_integral(profile), _mp_moments(profile.pieces, 1)
        for alpha in _oracle_points(profile._tables().limits):
            T0, T1 = moments(-alpha)
            for beta in (alpha, -alpha, alpha / 3.0):
                exact = float(2 * (T0 - beta * T1))
                assert abs(damped_kernel_integral(profile, alpha, beta) - exact) <= 1e-14 * scale, (alpha, beta)

    @pytest.mark.parametrize("seed", [0, 3, 7])
    def test_h_hat(self, seed):
        # h-hat = 2 Delta exactly; Delta from the density's own moments at 80 digits
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(seed)
        panels = int(rng.integers(8, 25))
        nodes = np.sort(rng.uniform(0.0, 3.0, panels + 1))
        g = PiecewiseLinearDensity(tuple(nodes), tuple(rng.uniform(-2, 2, panels)), tuple(rng.uniform(-2, 2, panels)))
        check_h_hat_identity(g, [1.0])
        xs = _oracle_points(vars(g)["_derived"]["h"].limits)
        report = check_h_hat_identity(g, xs)
        moments = _mp_moments([(t0, t1, (v0, (v1 - v0) / (t1 - t0))) for t0, t1, v0, v1 in g.panels], 1)
        measure = StieltjesMeasure(g.nodes[-1], (), g)
        scale = 2.0 * measure.sigma * measure.total_variation**2
        for x, h_hat in zip(xs, report.h_hat):
            with mpmath.workdps(50):
                T0, T1 = moments(1j * x)
                two_delta = 2 * (T0.real * T1.real + T1.imag * T0.imag)
            assert abs(h_hat - float(two_delta)) <= 1e-14 * scale, x


class TestAutocorrelation:
    def test_unit_box_gives_triangle(self, unit_g):
        for x in (0.0, 0.25, 0.5, 0.9, -0.7):
            assert autocorr_h(unit_g, x) == pytest.approx(1.0 - abs(x), abs=1e-14)

    def test_vanishes_outside_support(self, unit_g):
        assert autocorr_h(unit_g, 1.0) == 0.0
        assert autocorr_h(unit_g, 2.3) == 0.0

    def test_center_value(self, unit_g):
        assert autocorr_h(unit_g, 0.0) == pytest.approx(1.0, abs=1e-14)

    def test_against_brute_quadrature_for_ramp(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0])
        for a in (0.0, 0.3, 0.8):
            oracle = quad(lambda u: (2.0 * u - a) * u * (u - a), a, 1.0)[0]
            assert autocorr_h(g, a) == pytest.approx(oracle, abs=1e-12)

    def test_transform_identity_for_unit_box(self, unit_g):
        report = check_h_hat_identity(unit_g, [0.0, 0.5, 1.0, 2.0, 5.0])
        assert report.h_hat[0] == pytest.approx(1.0, abs=1e-8)
        assert report.residuals.max() <= 1e-6

    def test_transform_identity_for_ramp(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0])
        report = check_h_hat_identity(g, [0.0, 0.7, 2.0])
        assert report.residuals.max() <= 1e-6

    def test_zero_density(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 0.0])
        report = check_h_hat_identity(g, [0.0, 1.0])
        assert report.residuals.max() == 0.0


def _random_density(seed):
    rng = np.random.default_rng(seed)
    panels = int(rng.integers(2, 7))
    nodes = np.sort(rng.uniform(0.0, 3.0, panels + 1))
    return PiecewiseLinearDensity(
        tuple(nodes), tuple(rng.uniform(-2.0, 2.0, panels)), tuple(rng.uniform(-2.0, 2.0, panels))
    )


class TestExactHHat:
    """h-hat is exact, so h-hat = 2 Delta holds to rounding of 2 sigma V^2."""

    X = np.concatenate([[0.0], np.geomspace(0.01, 60.0, 40)])

    @pytest.mark.parametrize(
        "g",
        [
            PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0]),  # unit box
            PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0]),  # ramp
            PiecewiseLinearDensity.step([0.0, 0.3, 0.7, 1.0], [1.0, -0.5, 2.0]),  # jumps
            PiecewiseLinearDensity.interpolant([0.4, 0.9, 1.3], [0.5, 1.0, -0.3]),  # support from 0.4
        ]
        + [_random_density(seed) for seed in range(6)],
        ids=["unit_box", "ramp", "step_with_jumps", "support_from_0.4"] + [f"random{seed}" for seed in range(6)],
    )
    def test_identity_to_rounding(self, g):
        report = check_h_hat_identity(g, self.X)
        measure = StieltjesMeasure(g.nodes[-1], (), g)
        assert report.residuals.max() <= 1e-13 * 2.0 * measure.sigma * measure.total_variation**2
        assert report.samples % 5 == 0 and 0 < report.samples <= 5 * 3 * 21  # 3 pieces per panel pair

    def test_unit_box_at_zero(self, unit_g):
        # h(x) = 1 - |x| on [-1, 1], so h-hat(0) = 1
        assert check_h_hat_identity(unit_g, [0.0]).h_hat[0] == pytest.approx(1.0, abs=1e-15)

    def test_over_budget_is_refused_by_panel_count(self):
        nodes = np.linspace(0.0, 1.0, 210)  # 209 panels: up to 65835 pieces
        g = PiecewiseLinearDensity.interpolant(nodes, np.ones_like(nodes))
        with pytest.raises(ValueError, match="209-panel"):
            check_h_hat_identity(g, [1.0])


class TestCosinePolynomial:
    def test_matches_half_width_triangle(self):
        prof = lambda t: fejer_profile(t, 2, 1.0, 1.0)
        x = np.linspace(0.0, 2.0 * math.pi, 181)
        assert np.allclose(fejer_cosine_poly(prof, 2, x), 1.0 + np.cos(x), atol=1e-14)

    def test_zero_profile(self):
        assert fejer_cosine_poly(lambda t: 0.0, 3, np.array([0.3]))[0] == 0.0

    def test_quartic_family_stays_nonnegative(self):
        prof = lambda t: fejer_profile(t, 4, 1.0, 2.0)
        x = np.linspace(0.0, 2.0 * math.pi, 20001)
        assert fejer_cosine_poly(prof, 4, x).min() >= -1e-12

    def test_equals_twice_cosine_component(self):
        for m_count, lam, delta in [(2, 1.0, 1.0), (3, 0.5, 2.0), (4, 1.0, 1.5)]:
            m = from_fejer(m_count, lam, delta)
            prof = lambda t: fejer_profile(t, m_count, lam, delta)
            x = np.linspace(-10.0, 10.0, 101)
            c_vals = real_transforms(m, x, 0).C
            assert np.max(np.abs(fejer_cosine_poly(prof, m_count, x) - 2.0 * c_vals)) <= 1e-12


class TestMonotoneDensity:
    def test_ramp_is_strictly_positive(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0])
        s_vals, det = monotone_density_S(g, np.linspace(0.05, 50.0, 500))
        assert s_vals.min() > 0.0
        assert not det.equidistant

    def test_constant_density_detector_fires(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])
        s_vals, det = monotone_density_S(g, np.array([2.0 * math.pi, 4.0 * math.pi]))
        assert det.equidistant and det.piece_width == pytest.approx(1.0)
        assert np.allclose(s_vals, 0.0, atol=1e-13)

    def test_two_level_step_detector(self):
        g = PiecewiseLinearDensity.step([0.0, 0.5, 1.0], [1.0, 2.0])
        s_vals, det = monotone_density_S(g, np.array([4.0 * math.pi, 2.0 * math.pi]))
        assert det.equidistant and det.piece_width == pytest.approx(0.5)
        assert abs(s_vals[0]) <= 1e-13  # S(4 pi k) = 0
        assert s_vals[1] > 0.1  # but not at 2 pi

    def test_merging_equal_levels(self):
        g = PiecewiseLinearDensity.step([0.0, 0.3, 1.0], [1.0, 1.0])
        _, det = monotone_density_S(g, np.array([1.0]))
        assert det.equidistant and det.piece_width == pytest.approx(1.0)

    def test_rejects_decreasing_density(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 0.5])
        with pytest.raises(ValueError, match="nondecreasing"):
            monotone_density_S(g, np.array([1.0]))

    def test_rejects_negative_density(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [-0.1, 1.0])
        with pytest.raises(ValueError, match="nonnegative"):
            monotone_density_S(g, np.array([1.0]))


class TestMonomialFamily:
    @pytest.mark.parametrize("mu_exp,nu_exp", [(1.0, 0.5), (2.0, 0.5), (1.5, 0.8)])
    def test_sine_component_positive_on_grid(self, mu_exp, nu_exp):
        # grid-verified only: the density decreases near t = 1 for nu < 1, so
        # monotonicity arguments do not apply; any violation would be a finding
        from hbfourier.measure import from_monomial_density

        m = from_monomial_density(mu_exp, nu_exp)
        x = np.arange(0.05, 40.0, 0.05)
        s_vals = real_transforms(m, x, 0).S
        assert s_vals.min() > 0.0


class TestCompleteMonotonicity:
    def test_flat_pair(self):
        report = cm_finite_difference_check(1.0, 1.0, np.linspace(0.5, 5.0, 10), 0.05, 6)
        assert report.ok

    def test_classical_reciprocal(self):
        report = alternating_sign_table(lambda x: 1.0 / np.asarray(x, dtype=float), np.linspace(0.5, 5.0, 10), 0.05, 6)
        assert report.ok

    def test_fractional_pair(self):
        report = cm_finite_difference_check(2.0, 0.5, np.linspace(0.5, 5.0, 10), 0.05, 6)
        assert report.ok

    def test_rejects_deep_orders(self):
        with pytest.raises(ValueError, match="cancellation"):
            alternating_sign_table(lambda x: 1.0 / np.asarray(x), [1.0], 0.05, 11)

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            cm_finite_difference_check(0.5, 0.5, [1.0], 0.05, 4)
        with pytest.raises(ValueError):
            cm_finite_difference_check(1.0, 1.5, [1.0], 0.05, 4)

    def test_refuses_a_step_or_grid_point_that_is_not_finite_and_positive(self):
        with pytest.raises(ValueError, match="positive and finite"):
            alternating_sign_table(lambda x: np.exp(-np.asarray(x)), [1.0], math.nan, 3)
        with pytest.raises(ValueError, match="positive and finite"):
            cm_finite_difference_check(1.0, 0.5, [math.nan], 0.1, 3)
        for step, grid in ((math.inf, [1.0]), (0.1, [1.0, math.inf]), (0.1, [0.0]), (-0.1, [1.0])):
            with pytest.raises(ValueError):
                alternating_sign_table(lambda x: np.exp(-np.asarray(x)), grid, step, 3)

    @pytest.mark.parametrize("max_order", [0, -3])
    def test_refuses_an_order_below_one(self, max_order):
        # order 0 would check nothing and report ok with an infinite margin;
        # -3 would end in numpy's zero-size array error
        with pytest.raises(ValueError, match="max_order must be 1 to 10"):
            alternating_sign_table(lambda x: 1.0 / np.asarray(x), [1.0], 0.05, max_order)
        with pytest.raises(ValueError, match="max_order must be 1 to 10"):
            cm_finite_difference_check(1.0, 0.5, [1.0], 0.05, max_order)

    def test_refuses_an_empty_grid(self):
        with pytest.raises(ValueError, match="must not be empty"):
            alternating_sign_table(lambda x: 1.0 / np.asarray(x), [], 0.05, 3)
        with pytest.raises(ValueError, match="must not be empty"):
            cm_finite_difference_check(1.0, 0.5, np.array([]), 0.05, 3)

    def test_a_nan_difference_fails(self):
        report = alternating_sign_table(lambda x: np.where(np.asarray(x) > 1.1, math.nan, 1.0), [1.0], 0.1, 3)
        assert not report.ok and math.isnan(report.worst_margin)
        assert [n for _, n, _ in report.failures] == [1, 2, 3]

    def test_detects_non_monotone_function(self):
        report = alternating_sign_table(lambda x: np.sin(np.asarray(x, dtype=float)), np.linspace(0.5, 5.0, 10), 0.3, 4)
        assert not report.ok
