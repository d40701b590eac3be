import math

import numpy as np
import pytest

from hbfourier import inequality, transforms
from hbfourier.inequality import (
    HypothesisKind,
    OmegaConfig,
    borderline_growth_d,
    check_inequality,
    default_grid,
    eval_D,
    eval_d,
    fit_equality_witness,
    margin_scale,
    margin_values,
    squared_bracket_direct,
)
from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_pd_profile
from hbfourier.sampling import from_omega_config
from hbfourier.transforms import eval_E


@pytest.fixture
def atom_at_sigma():
    return StieltjesMeasure(1.0, ((1.0, 2.0),))


@pytest.fixture
def balanced_atoms():
    """F(0) = 0, admissible for the n = -1 family."""
    return StieltjesMeasure(1.0, ((0.25, 1.0), (0.75, -1.0)))


#: (measure, n, tau) of each family the two bracket routes are compared on
BRACKET_CASES = {
    "cosine-fejer2": lambda: OmegaConfig(from_fejer(2, 1.0, 1.0), 0, 0.0),
    "decay-ramp": lambda: OmegaConfig(
        StieltjesMeasure(1.0, (), PiecewiseLinearDensity.interpolant([0.0, 1.0], [0.0, 1.0])), 1, -math.pi / 2
    ),
    "rotated-few-panel": lambda: OmegaConfig(
        StieltjesMeasure(
            1.5, ((0.0, 0.7), (1.1, -0.4)), PiecewiseLinearDensity.interpolant([0.0, 0.5, 1.5], [0.3, 1.0, 0.2])
        ),
        0,
        0.3,
    ),
    "root-triangle": lambda: OmegaConfig(from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0), -1, -math.pi / 2),
}


class TestConfig:
    def test_kind_assignment(self, fejer2, ramp_density, balanced_atoms, atom_at_sigma):
        assert OmegaConfig(fejer2, 0, 0.0).kind is HypothesisKind.COSINE_NONNEG
        assert OmegaConfig(atom_at_sigma, 0, math.pi / 2).kind is HypothesisKind.ROTATED_NONNEG
        assert OmegaConfig(ramp_density, 1, -math.pi / 2).kind is HypothesisKind.SINE_NONNEG_DECAY
        assert OmegaConfig(balanced_atoms, -1, -math.pi / 2).kind is HypothesisKind.SINE_NONNEG_ROOT

    def test_rejects_mixed_pairs(self, fejer2, ramp_density):
        with pytest.raises(ValueError):
            OmegaConfig(ramp_density, 1, 0.0)
        with pytest.raises(ValueError):
            OmegaConfig(fejer2, -1, 0.3)
        with pytest.raises(ValueError):
            OmegaConfig(fejer2, 2, 0.0)

    def test_decay_family_rejects_atoms(self, fejer2):
        with pytest.raises(ValueError, match="never decay"):
            OmegaConfig(fejer2, 1, -math.pi / 2)

    def test_root_family_requires_vanishing_mass(self, fejer2):
        with pytest.raises(ValueError, match="F\\(0\\) = 0"):
            OmegaConfig(fejer2, -1, -math.pi / 2)


class TestEvalD:
    def test_atom_at_sigma_constant(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        x = np.linspace(-12.0, 12.0, 97)
        assert np.allclose(eval_d(cfg, x), 4.0, atol=1e-12)

    def test_zero_measure(self):
        cfg = OmegaConfig(StieltjesMeasure(1.0, ()), 0, 0.0)
        assert eval_d(cfg, 0.7) == 0.0

    def test_two_atom_value_at_origin(self):
        c0, c1, sig = 0.8, -1.3, 1.0
        m = StieltjesMeasure(sig, ((0.0, c0), (sig, c1)))
        cfg = OmegaConfig(m, 0, 0.0)
        assert eval_d(cfg, 0.0) == pytest.approx(sig * c1 * (c0 + c1), abs=1e-13)

    def test_inverse_power_limit_is_continuous(self, balanced_atoms):
        cfg = OmegaConfig(balanced_atoms, -1, -math.pi / 2)
        d0 = eval_d(cfg, 0.0)
        m1 = balanced_atoms.moment(1)
        m2 = balanced_atoms.moment(2)
        assert d0 == pytest.approx(0.5 * m1 * m2, abs=1e-14)
        assert eval_d(cfg, 2e-4) == pytest.approx(d0, abs=1e-6)
        assert eval_d(cfg, 1e-2) == pytest.approx(d0, rel=1e-3)


class TestEvalBigD:
    def test_atom_at_sigma_squared_bracket(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        x = np.linspace(-5.0, 5.0, 41)
        assert np.allclose(eval_D(cfg, x), 16.0 * x * x, atol=1e-12)

    def test_zero_measure(self):
        cfg = OmegaConfig(StieltjesMeasure(1.0, ()), 0, 0.0)
        assert eval_D(cfg, 1.3) == 0.0

    def test_cross_check_against_direct_bracket(self, ramp_density):
        cfg = OmegaConfig(ramp_density, 1, -math.pi / 2)
        x = math.pi
        assert abs(eval_D(cfg, x) - squared_bracket_direct(cfg, x)) <= 1e-9


class TestCheckInequality:
    def test_global_equality_for_atom_at_sigma(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        rep = check_inequality(cfg, default_grid(cfg, -10.0, 10.0))
        assert rep.global_equality
        assert rep.hypothesis_ok
        assert np.max(np.abs(rep.margin)) <= 1e-10

    def test_fejer_margins_and_equality_points(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = np.arange(-20.0 * math.pi, 20.0 * math.pi + 1e-9, math.pi / 100.0)
        rep = check_inequality(cfg, grid)
        assert rep.hypothesis_ok
        assert rep.worst_relative_margin >= -1e-9
        assert rep.equality_points
        for x_star in rep.equality_points:
            k = round((x_star / math.pi - 1.0) / 2.0)
            assert abs(x_star - (2 * k + 1) * math.pi) <= 1e-6

    def test_fejer_equality_points_to_rounding(self, fejer2):
        # E = C = (1 + cos x) / 2 touches 0 at the odd multiples of pi, where
        # E' has simple roots that Newton steps locate to rounding level
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = np.arange(-20.0 * math.pi, 20.0 * math.pi + 1e-9, math.pi / 100.0)
        rep = check_inequality(cfg, grid)
        odd = (2.0 * np.arange(-10, 10) + 1.0) * math.pi
        assert len(rep.equality_points) == len(odd)
        assert np.max(np.abs(np.array(rep.equality_points) - odd)) <= 1e-12

    def test_ramp_skips_the_structural_zero(self, ramp_density, monkeypatch):
        # x E(x) vanishes at x = 0 for n = 1 whatever the measure; no search
        # goes there, so the check is its one order-1 pass alone
        sizes = []
        evaluator = transforms._grid_moments

        def counted(measure, z, order):
            sizes.append(np.size(z))
            return evaluator(measure, z, order)

        monkeypatch.setattr(transforms, "_grid_moments", counted)
        monkeypatch.setattr(inequality, "_grid_moments", counted)
        cfg = OmegaConfig(ramp_density, 1, -math.pi / 2)
        grid = default_grid(cfg, -10.0, 10.0)  # the grid of `hbf demo ramp`
        rep = check_inequality(cfg, grid)
        assert rep.equality_points == ()
        assert sizes == [grid.size] * 2  # direct and mirrored moments; E reads the mirrored ones

    def test_ramp_density_positive_margin_no_equalities(self, ramp_density):
        cfg = OmegaConfig(ramp_density, 1, -math.pi / 2)
        grid = np.arange(-20.0 * math.pi, 20.0 * math.pi + 1e-9, math.pi / 100.0)
        rep = check_inequality(cfg, grid)
        assert rep.hypothesis_ok
        assert rep.worst_relative_margin >= -1e-9
        assert rep.equality_points == ()

    def test_hypothesis_violation_is_reported_not_raised(self, sign_breaking_atoms):
        cfg = OmegaConfig(sign_breaking_atoms, 0, 0.0)
        rep = check_inequality(cfg, default_grid(cfg, -10.0, 10.0))
        assert not rep.hypothesis_ok

    def test_equality_dichotomy_with_separating_bands(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = np.arange(-20.0 * math.pi, 20.0 * math.pi + 1e-9, math.pi / 100.0)
        rep = check_inequality(cfg, grid)
        scale = rep.scale
        tight_margin = np.abs(rep.margin) <= 1e-10 * scale
        loose_e = np.abs(rep.e_values) <= 1e-6 * np.sqrt(scale)
        assert np.all(loose_e[tight_margin])
        tight_e = np.abs(rep.e_values) <= 1e-8 * np.sqrt(scale)
        loose_margin = np.abs(rep.margin) <= 1e-6 * scale
        assert np.all(loose_margin[tight_e])

    def test_global_equality_implies_component_vanishing(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        rep = check_inequality(cfg, default_grid(cfg, -10.0, 10.0))
        assert rep.global_equality
        from hbfourier.transforms import real_transforms

        rt = real_transforms(atom_at_sigma, rep.grid, order=0)
        v = atom_at_sigma.total_variation
        assert np.max(np.abs(rt.C * math.cos(cfg.tau))) <= 1e-12 * v
        assert np.max(np.abs(rt.S * math.sin(cfg.tau))) <= 1e-12 * v

    @pytest.mark.parametrize("case", sorted(BRACKET_CASES))
    def test_one_parameter_and_component_brackets_agree(self, case):
        # the bracket written through P, Q and the bracket written through
        # C, S are the same function for every n and tau
        cfg = BRACKET_CASES[case]()
        x = np.linspace(-15.0, 15.0, 301)
        if cfg.n == -1:
            x = x[np.abs(x) > 0.5]  # the direct route divides by x
        from hbfourier.inequality import _margin_pieces

        _, rhs, _, _ = _margin_pieces(cfg, x)
        direct = squared_bracket_direct(cfg, x)
        scale = np.maximum(np.abs(rhs), 1.0)
        assert np.max(np.abs(rhs - direct) / scale) <= 1e-9

    def test_inverse_power_margin_finite_and_nonnegative(self, balanced_atoms):
        cfg = OmegaConfig(balanced_atoms, -1, -math.pi / 2)
        grid = default_grid(cfg, -30.0, 30.0)
        rep = check_inequality(cfg, grid)
        assert np.all(np.isfinite(rep.margin))
        if rep.hypothesis_ok:
            assert rep.worst_relative_margin >= -1e-9

    def test_inverse_power_family_on_admissible_fixture(self):
        # triangle profile with jump -1: F(0) = 0 and the sine hypothesis holds,
        # so the n = -1 family applies; S = (1 - cos x)/x vanishes at 2 pi k,
        # which are genuine equality points of the bound
        from hbfourier.measure import from_pd_profile

        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)
        cfg = OmegaConfig(m, -1, -math.pi / 2)
        rep = check_inequality(cfg, default_grid(cfg, -40.0, 40.0))
        assert rep.hypothesis_ok
        assert rep.worst_relative_margin >= -1e-9
        assert rep.equality_points
        for x_star in rep.equality_points:
            k = round(x_star / (2.0 * math.pi))
            assert k != 0
            assert abs(x_star - 2.0 * math.pi * k) <= 1e-6


class TestWitness:
    def test_atom_at_sigma_witness(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        w = fit_equality_witness(cfg, default_grid(cfg, -10.0, 10.0))
        assert w is not None
        assert w.c == pytest.approx(0.0, abs=1e-10)
        assert abs(w.gamma) == pytest.approx(2.0, abs=1e-10)
        # d stays identically gamma^2 sigma
        assert eval_d(cfg, 0.37) == pytest.approx(w.gamma**2 * 1.0, abs=1e-12)

    def test_fejer_is_not_in_the_equality_family(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = np.arange(-20.0, 20.0, math.pi / 100.0)
        assert fit_equality_witness(cfg, grid) is None

    def test_zero_measure_witness(self):
        cfg = OmegaConfig(StieltjesMeasure(1.0, ()), 0, 0.0)
        w = fit_equality_witness(cfg, np.linspace(-5.0, 5.0, 201))
        assert w == pytest.approx((0.0, 0.0, 0.0)) or (w.c == 0.0 and w.gamma == 0.0)


class TestBorderlineGrowth:
    def test_negative_near_origin(self):
        assert borderline_growth_d(-0.75, 0.1) < 0.0

    def test_positive_far_out(self):
        assert borderline_growth_d(-0.75, 100.0) > 0.0

    def test_zero_at_origin(self):
        assert borderline_growth_d(-0.75, 0.0) == 0.0

    def test_small_x_asymptotics(self):
        a = -0.6
        x = 1e-3
        expected = x * x * (a + 1.0) * (a + 0.5)
        assert borderline_growth_d(a, x) == pytest.approx(expected, rel=1e-4)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            borderline_growth_d(-0.4, 1.0)
        with pytest.raises(ValueError):
            borderline_growth_d(-1.0, 1.0)


class TestMarginScale:
    def test_scale_floors_at_one(self, fejer2):
        cfg = OmegaConfig(fejer2, 0, 0.0)
        assert np.all(margin_scale(cfg, np.linspace(-5, 5, 11)) >= 1.0)

    def test_margin_values_scalar(self, atom_at_sigma):
        cfg = OmegaConfig(atom_at_sigma, 0, math.pi / 2)
        assert margin_values(cfg, 0.9) == pytest.approx(0.0, abs=1e-12)


def _rotated_case(tau):
    return lambda: OmegaConfig(BRACKET_CASES["rotated-few-panel"]().measure, 0, tau)


#: configs on which every route to E is compared; root-at-zero is scenarios/root_at_zero.json
E_CASES = {
    "rotated+0.3": _rotated_case(0.3),
    "rotated-0.3": _rotated_case(-0.3),
    "decay-ramp": BRACKET_CASES["decay-ramp"],
    "root-at-zero": lambda: OmegaConfig(
        StieltjesMeasure(1.0, ((1.0, -1.0),), PiecewiseLinearDensity.interpolant([0.0, 1.0], [1.0, 1.0])),
        -1,
        -math.pi / 2,
    ),
}


class TestOneE:
    """E is Re W for the one mirrored W of `transforms._omega_rows`, whichever route reads it."""

    @pytest.mark.parametrize("name", sorted(E_CASES))
    def test_every_route_gives_the_same_bits(self, name):
        cfg = E_CASES[name]()
        x = np.linspace(-30.0, 30.0, 1001)
        routes = {
            "check_inequality": check_inequality(cfg, x).e_values,
            "eval_E": eval_E(cfg.measure, cfg.tau, cfg.n, x),
            "_e_derivatives": inequality._e_derivatives(cfg, x)[0],
            "_margin_pieces": inequality._margin_pieces(cfg, x)[3],
        }
        bits = {route: np.asarray(e, dtype=float).view(np.uint64) for route, e in routes.items()}
        for route, b in bits.items():
            assert np.count_nonzero(b != bits["eval_E"]) == 0, route


def _mp_omega(measure, x, phase=1):
    """(w, w') for w = phase (F(x) - F(0)) / x, from mpmath quadrature of the
    stored representation; subtracting F(0) drops the rounding-level mass
    that makes the stored F / x a genuine pole."""
    mpmath = pytest.importorskip("mpmath")
    x = mpmath.mpf(x)

    def transform(x, k):  # int t^k e^{ixt} dmu
        value = sum(mpmath.mpf(c) * mpmath.mpf(t) ** k * mpmath.expj(x * t) for t, c in measure.atoms)
        for t0, t1, v0, v1 in measure.density.panels:
            t0, t1, v0, v1 = (mpmath.mpf(v) for v in (t0, t1, v0, v1))
            g = lambda t: v0 + (v1 - v0) * (t - t0) / (t1 - t0)
            value += mpmath.quad(lambda t: g(t) * t**k * mpmath.expj(x * t), [t0, t1], method="gauss-legendre")
        return value

    w = (transform(x, 0) - transform(0, 0)) / x
    return phase * w, phase * (1j * transform(x, 1) - w) / x


def _few_panel_root():
    """Three panels and two atoms on [0, 1.5]; the atom at sigma cancels the mass, so F(0) = 0."""
    dens = PiecewiseLinearDensity.interpolant([0.0, 0.4, 1.1, 1.5], [1.0, 0.3, -0.5, 0.8])
    return StieltjesMeasure(1.5, ((0.7, 0.6), (1.5, -0.6 - dens.mass())), dens)


class TestOriginSeries:
    """n = -1 values near x = 0, where F / x is removable, against mpmath."""

    MEASURES = {"root-at-zero": lambda: from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0), "few-panel": _few_panel_root}

    @pytest.mark.parametrize("name", sorted(MEASURES))
    def test_against_mpmath(self, name):
        # the quotient F / x lost up to 3.6e-9 of the margin's scale just past
        # the old cut |x| = 1e-4.  Near the origin |w| <= sigma V and
        # |w'| <= sigma^2 V, so d and the margin's two terms are bounded by
        # multiples of sigma^3 V^2 and sigma^4 V^2: the scales below.  Just past
        # the switch |x| sigma = 1/2 the quotient's rounding reaches 2.6e-15 of
        # margin_scale, which floors at 1, on the few-panel measure
        mpmath = pytest.importorskip("mpmath")
        m = self.MEASURES[name]()
        cfg = OmegaConfig(m, -1, -math.pi / 2)
        sig, v = m.sigma, m.total_variation
        switch = 0.5 / sig
        alpha, shift = 0.7, cfg.tau / sig
        f = from_omega_config(cfg, alpha)
        points = [1e-8, -3e-6, 1.01e-4, -1e-3, 1e-2, switch * (1 - 1e-4), -switch * (1 + 1e-4), switch * (1 + 1e-4)]
        with mpmath.workdps(40):
            rot, e_alpha = mpmath.expj(cfg.tau), mpmath.expj(alpha)
            for x in points:
                w, wp = _mp_omega(m, x)
                W, Wp = _mp_omega(m.reflected(), x, rot)
                d = (mpmath.conj(w) * wp).imag
                margin = 4 * sig * d - (Wp.real + 2 * sig * W.imag) ** 2
                assert abs(margin_values(cfg, x) - margin) <= 1e-15 * sig**4 * v * v, x
                assert abs(eval_d(cfg, x) - d) <= 1e-15 * sig**3 * v * v, x
                assert abs(eval_E(m, cfg.tau, -1, x) - W.real) <= 1e-15 * sig * v, x
                u = np.array([x + shift])  # f reads u = x - shift, which rounds
                wu, wup = _mp_omega(m, float(u[0] - shift))
                assert abs(f.evaluate(u)[0] - (e_alpha * wu).real) <= 1e-15 * sig * v, x
                assert abs(f.derivative(u)[0] - (e_alpha * wup).real) <= 1e-15 * sig * sig * v, x
