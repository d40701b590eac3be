import json
import math
from pathlib import Path

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

from . import reference_refinement as reference


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

    @pytest.mark.parametrize("tau", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("n", [0, -1, 1])
    def test_rejects_a_tau_that_is_not_finite(self, balanced_atoms, ramp_density, n, tau):
        # NaN != 0, so with n = 0 a NaN tau would be taken for ROTATED_NONNEG
        with pytest.raises(ValueError, match="tau must be finite"):
            OmegaConfig(ramp_density if n == 1 else balanced_atoms, n, tau)

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
    @pytest.mark.parametrize("grid", [[], [0.5], [[0.0, 1.0]]])
    def test_refuses_a_grid_of_fewer_than_two_points(self, atom_at_sigma, grid):
        with pytest.raises(ValueError, match="at least 2 points"):
            check_inequality(OmegaConfig(atom_at_sigma, 0, 0.0), grid)

    @pytest.mark.parametrize("grid", [[0.0, 0.0, 1.0], [1.0, 0.5]])
    def test_refuses_a_grid_that_does_not_increase(self, atom_at_sigma, grid):
        with pytest.raises(ValueError, match="strictly increasing"):
            check_inequality(OmegaConfig(atom_at_sigma, 0, 0.0), grid)

    @pytest.mark.parametrize(
        "grid", [[0.0, math.nan, 1.0], [math.nan, 0.0], [0.0, 1.0, math.nan], [-math.inf, 0.0, 1.0], [0.0, math.inf]]
    )
    def test_refuses_a_grid_that_is_not_finite(self, atom_at_sigma, grid):
        with pytest.raises(ValueError, match="finite and strictly increasing"):
            check_inequality(OmegaConfig(atom_at_sigma, 0, 0.0), grid)

    def test_fejer_check_takes_three_passes(self, fejer2, monkeypatch):
        # the grid pass, then two Newton passes on the 20 brackets: each starts
        # at the secant root of E' from the grid pass, and the acceptance reads
        # the last Newton pass, so the refined points take no pass of their own
        sizes = []
        evaluator = transforms._grid_moments

        def counted(measure, z, order):
            sizes.append(np.size(z))
            return evaluator(measure, z, order)

        monkeypatch.setattr(transforms, "_grid_moments", counted)
        monkeypatch.setattr(inequality, "_grid_moments", counted)
        grid = np.arange(-20.0 * math.pi + 0.37, 20.0 * math.pi + 0.37, math.pi / 100.0)
        rep = check_inequality(OmegaConfig(fejer2, 0, 0.0), grid)
        assert len(rep.equality_points) == 20
        assert sizes == [grid.size, 20, 20]

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

    def test_equality_points_of_z_times_f(self):
        # g = 1 on [0, 1] with n = 1, tau = -pi / 2: E = x Im F = 1 - cos x touches 0
        # at the nonzero multiples of 2 pi, accepted from the Leibniz bounds of x W0
        m = StieltjesMeasure(1.0, (), PiecewiseLinearDensity.step([0.0, 1.0], [1.0]))
        cfg = OmegaConfig(m, 1, -math.pi / 2.0)
        rep = check_inequality(cfg, default_grid(cfg, -20.0, 20.0))
        want = 2.0 * math.pi * np.array([-3.0, -2.0, -1.0, 1.0, 2.0, 3.0])
        assert rep.hypothesis_ok and len(rep.equality_points) == len(want)
        assert np.all(np.abs(np.array(rep.equality_points) - want) <= transforms._NEWTON_XTOL * np.abs(want))

    def test_two_brackets_reaching_one_point_report_it_once(self, fejer2, monkeypatch):
        # pi lies midway between two grid points, each a minimum of |E| whose
        # bracket holds pi; both searches end there, and the point counts once
        roots, newton = [], inequality._bracketed_newton
        monkeypatch.setattr(inequality, "_bracketed_newton", lambda *args: roots.append(newton(*args)) or roots[-1])
        grid = math.pi + (np.arange(-200, 200) + 0.5) * 0.01
        points = check_inequality(OmegaConfig(fejer2, 0, 0.0), grid).equality_points
        tol = transforms._NEWTON_XTOL * math.pi
        assert len(roots) == 1 and np.sum(np.abs(roots[0][0] - math.pi) <= tol) == 2
        assert len(points) == 1 and abs(points[0] - math.pi) <= tol

    @pytest.mark.parametrize("end", ["first", "last"])
    def test_equality_point_in_an_end_cell(self, fejer2, end):
        # cut to start at pi - 0.00265, the grid's first point is the least |E|
        # near pi; reflected about 2 pi, the last point is the least near 3 pi
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = np.arange(0.5, 12.0, math.pi / 100.0)[84:]
        assert grid[0] == pytest.approx(math.pi - 0.00265, abs=1e-5)
        if end == "last":
            grid = np.flip(4.0 * math.pi - grid)
        points = check_inequality(cfg, grid).equality_points
        assert len(points) == 2
        assert np.max(np.abs(np.array(points) - [math.pi, 3.0 * math.pi])) <= 1e-12

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
        assert sizes == [grid.size]  # the mirrored moments serve the margin and E

    @pytest.mark.parametrize("route", ["check_inequality", "margin_values", "margin_scale"])
    def test_one_reflected_pass_on_the_grid(self, fejer2, monkeypatch, route):
        # the margin, its scale and E come from the reflected measure's order-1
        # moments alone; the refinement's passes are on its brackets, not the grid
        calls = []
        evaluator = transforms._grid_moments

        def counted(measure, z, order):
            calls.append((measure, np.size(z)))
            return evaluator(measure, z, order)

        monkeypatch.setattr(transforms, "_grid_moments", counted)
        monkeypatch.setattr(inequality, "_grid_moments", counted)
        cfg = OmegaConfig(fejer2, 0, 0.0)
        grid = default_grid(cfg, -10.0, 10.0)
        result = getattr(inequality, route)(cfg, grid)
        if route == "check_inequality":
            assert result.equality_points  # the refinement ran
        on_grid = [measure for measure, size in calls if size == grid.size]
        assert len(on_grid) == 1
        assert on_grid[0] is transforms._reflected(fejer2)

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

        rhs = _margin_pieces(cfg, x)[1]
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

    @pytest.mark.parametrize("tau", [math.pi / 2, -math.pi / 2])
    @pytest.mark.parametrize("sig, mass", [(1.0, 2.0), (0.3, -0.7), (5.0, 1e-3)])
    def test_an_atom_at_sigma_has_gamma_the_mass(self, sig, mass, tau):
        cfg = OmegaConfig(StieltjesMeasure(sig, ((sig, mass),)), 0, tau)
        w = fit_equality_witness(cfg, default_grid(cfg, -10.0 / sig, 10.0 / sig))
        assert (w.c, w.beta) == (0.0, 0.0)
        assert w.gamma == pytest.approx(mass * math.sin(tau), rel=1e-12)

    def test_every_witness_has_c_zero(self):
        # E's frequencies lie in [0, sigma], so c sin^2(sigma x + tau + beta), of
        # frequency 2 sigma, never fits it with c != 0: each config gives None or c = 0
        rng = np.random.default_rng(7)
        witnesses = 0
        for _ in range(60):
            sig = float(rng.choice([0.5, 1.0, 3.0]))
            locs = sorted({0.0, sig, *rng.uniform(0.0, sig, size=int(rng.integers(0, 3))).tolist()})
            atoms = tuple((t, float(c)) for t, c in zip(locs, rng.uniform(-2.0, 2.0, len(locs))))
            density = PiecewiseLinearDensity.interpolant([0.0, 0.4 * sig, sig], rng.uniform(0.0, 2.0, 3))
            n = int(rng.integers(-1, 2))
            if n == 1:
                m = StieltjesMeasure(sig, (), density)
            elif n == -1:
                m = StieltjesMeasure(sig, ((sig, -density.mass()),), density)
            else:
                m = StieltjesMeasure(sig, atoms[-int(rng.integers(1, len(atoms) + 1)) :])
            tau = -math.pi / 2 if n else float(rng.choice([0.0, math.pi / 2, -math.pi / 2, rng.uniform(-3.0, 3.0)]))
            cfg = OmegaConfig(m, n, tau)
            w = fit_equality_witness(cfg, default_grid(cfg, -8.0 / sig, 8.0 / sig))
            if w is not None:
                witnesses += 1
                assert (w.c, w.beta) == (0.0, 0.0)
        assert witnesses >= 3

    def test_vanishing_E_with_a_varying_d_has_no_witness(self):
        # a tiny atom at 1/2 leaves E within the 1e-8 V gate, but d varies by
        # more than 1e-8 sigma V^2, so the equality family does not fit
        m = StieltjesMeasure(1.0, ((0.5, 9e-9), (1.0, 1.0)))
        cfg = OmegaConfig(m, 0, math.pi / 2)
        grid = default_grid(cfg, -20.0, 20.0)
        v = m.total_variation
        assert np.max(np.abs(eval_E(m, cfg.tau, 0, grid))) <= 1e-8 * v
        d = eval_d(cfg, grid)
        assert np.max(np.abs(d - np.mean(d))) > 1e-8 * m.sigma * v * v
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
        # the floor is sigma^2 V^2 for n = 0: 4 for Fejer-2 (sigma = 2, V = 1)
        cfg = OmegaConfig(fejer2, 0, 0.0)
        assert np.all(margin_scale(cfg, np.linspace(-5, 5, 11)) >= 4.0)

    @pytest.mark.parametrize("k", [-40, 0, 40])
    def test_floor_at_the_origin_follows_the_measure(self, ramp_density, k):
        # for n = 1 both sides vanish at x = 0, where the scale is the floor
        # V^2 = 1/4 of the ramp (sigma = 1, V = 1/2), times 4^k for mu * 2^k
        cfg = OmegaConfig(ramp_density.scaled(2.0**k), 1, -math.pi / 2)
        assert margin_scale(cfg, 0.0) == 0.25 * 4.0**k

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
            "the Newton passes": transforms._mirrored_rows(
                cfg.measure, cfg.tau, cfg.n, x, transforms._grid_moments(transforms._reflected(cfg.measure), x, 2)[0]
            )[0].real,
            "_margin_pieces": inequality._margin_pieces(cfg, x)[3],
        }
        bits = {route: np.asarray(e, dtype=float).view(np.uint64) for route, e in routes.items()}
        for route, b in bits.items():
            assert np.count_nonzero(b != bits["eval_E"]) == 0, route


def _mp_transform(measure, x, k):
    """int t^k e^{ixt} dmu at the working precision, by mpmath quadrature of the stored representation."""
    mpmath = pytest.importorskip("mpmath")
    x = mpmath.mpf(x)
    value = sum(mpmath.mpf(c) * mpmath.mpf(t) ** k * mpmath.expj(x * t) for t, c in measure.atoms)
    for t0, t1, v0, v1 in measure.density.panels if measure.density is not None else ():
        t0, t1, v0, v1 = (mpmath.mpf(v) for v in (t0, t1, v0, v1))
        g = lambda t: v0 + (v1 - v0) * (t - t0) / (t1 - t0)
        value += mpmath.quad(lambda t: g(t) * t**k * mpmath.expj(x * t), [t0, t1], method="gauss-legendre")
    return value


def _mp_omega(measure, x, phase=1):
    """(w, w') for w = phase (F(x) - F(0)) / x, from mpmath quadrature of the
    stored representation; subtracting F(0) drops the rounding-level mass
    that makes the stored F / x a genuine pole."""
    mpmath = pytest.importorskip("mpmath")
    x = mpmath.mpf(x)
    w = (_mp_transform(measure, x, 0) - _mp_transform(measure, 0, 0)) / x
    return phase * w, phase * (1j * _mp_transform(measure, x, 1) - w) / x


def _mp_margin(cfg, x):
    """4 sigma x^{2n} Delta - (E' + 2 sigma E~)^2 as printed, at the working
    precision: Delta from the direct moments, and C + i S = e^{i sigma x} conj(F)."""
    mpmath = pytest.importorskip("mpmath")
    x, sig, n = mpmath.mpf(x), mpmath.mpf(cfg.measure.sigma), cfg.n
    f, f1 = _mp_transform(cfg.measure, x, 0), _mp_transform(cfg.measure, x, 1)
    delta = f.real * f1.real + f1.imag * f.imag  # G H' - G' H with G' = -Im T_1, H' = Re T_1
    rot = mpmath.expj(cfg.tau + sig * x)
    v, vp = rot * mpmath.conj(f), rot * (1j * sig * mpmath.conj(f) + mpmath.conj(1j * f1))
    w, wp = x**n * v, n * x ** (n - 1) * v + x**n * vp
    return 4 * sig * x ** (2 * n) * delta - (wp.real + 2 * sig * w.imag) ** 2


#: configs whose margin is checked against mpmath; root-at-zero is scenarios/root_at_zero.json
MARGIN_CASES = {
    "fejer2": lambda: OmegaConfig(from_fejer(2, 1.0, 1.0), 0, 0.0),
    "fejer4": lambda: OmegaConfig(from_fejer(4, 1.0, 2.0), 0, 0.0),  # scenarios/fejer4_ineq.json
    "ramp": BRACKET_CASES["decay-ramp"],
    "few-panel": BRACKET_CASES["rotated-few-panel"],
    "root-at-zero": E_CASES["root-at-zero"],
}


class TestMarginRoutes:
    """The margin read from the reflected moments alone against routes that do not share them."""

    @pytest.mark.parametrize("name", sorted(set(BRACKET_CASES) | set(E_CASES)))
    def test_direct_route_cross_checks_the_margin(self, name):
        # 4 sigma d from the direct moments, and the bracket through P, Q = x^n (G, H);
        # the direct bracket divides by x, so |x| sigma stays above 1/2
        cfg = {**BRACKET_CASES, **E_CASES}[name]()
        x = np.linspace(-30.0, 30.0, 1001) / cfg.measure.sigma
        x = x[np.abs(x) * cfg.measure.sigma > 0.5]
        direct = 4.0 * cfg.measure.sigma * eval_d(cfg, x) - squared_bracket_direct(cfg, x)
        assert np.max(np.abs(margin_values(cfg, x) - direct) / margin_scale(cfg, x)) <= 1e-12

    @pytest.mark.parametrize("name", sorted(MARGIN_CASES))
    def test_check_inequality_margin_against_mpmath(self, name):
        # a grid through the origin's neighbourhood, where n = -1 takes the series,
        # and out to |x| sigma of about 50
        mpmath = pytest.importorskip("mpmath")
        cfg = MARGIN_CASES[name]()
        grid = np.linspace(-12.0, 12.0, 96)
        rep = check_inequality(cfg, grid)
        with mpmath.workdps(40):
            exact = np.array([float(_mp_margin(cfg, x)) for x in grid])
        assert np.max(np.abs(rep.margin - exact) / rep.scale) <= 1e-14


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
        # the switch |x| sigma = 1/2 the quotient's rounding is largest, on the
        # few-panel measure
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


def _scenario_config(name):
    doc = json.loads((Path(__file__).resolve().parent.parent / "scenarios" / f"{name}.json").read_text(encoding="utf-8"))
    atoms = tuple((a["t"], a["c"]) for a in doc["atoms"])
    density = doc["density"] and PiecewiseLinearDensity.interpolant(doc["density"]["nodes"], doc["density"]["values"])
    cfg = OmegaConfig(StieltjesMeasure(doc["sigma"], atoms, density or None), doc["task"]["n"], doc["task"]["tau"])
    grid = doc["task"].get("grid")
    return cfg, (default_grid(cfg, grid["start"], grid["stop"]) if grid else default_grid(cfg, -40.0, 40.0))


#: a measure whose E changes sign: C = 0.3 + the transform of a density that dips below 0
_SIGN_CHANGE = StieltjesMeasure(1.0, ((0.0, 0.3),), PiecewiseLinearDensity.interpolant([0.0, 0.5, 1.0], [1.0, -0.5, 1.0]))
_BENCH_STEP = math.pi / 100.0

#: (config, grid) on which the refinement gives the reference's bits
SAME_BITS = {
    "fejer2-scenario": lambda: _scenario_config("fejer2_ineq"),
    "fejer2-bench": lambda: (OmegaConfig(from_fejer(2, 1.0, 1.0), 0, 0.0), np.arange(-63.4, -63.4 + 40.0 * math.pi, _BENCH_STEP)),
    "fejer4-scenario": lambda: _scenario_config("fejer4_ineq"),
    "ramp-demo": lambda: (BRACKET_CASES["decay-ramp"](), default_grid(BRACKET_CASES["decay-ramp"](), -10.0, 10.0)),
    "root-at-zero": lambda: _scenario_config("root_at_zero"),
    "sign-change": lambda: (OmegaConfig(_SIGN_CHANGE, 0, 0.0), np.linspace(-20.0, 20.0, 40001)),
}
#: (config, grid) on which Newton's last step, from another point, moves a root by a few ulps
NEAR_BITS = {
    "fejer4": lambda: (OmegaConfig(from_fejer(4, 1.0, 1.0), 0, 0.0), np.arange(-40.0, 40.0, _BENCH_STEP)),
    "fejer6": lambda: (OmegaConfig(from_fejer(6, 1.0, 1.0), 0, 0.0), np.arange(-40.0, 40.0, 0.013)),
    "rotated-sign-change": lambda: (
        OmegaConfig(StieltjesMeasure(1.0, ((0.0, 1.0), (1.0, 1.0))), 0, 0.2),
        np.linspace(-9.0 * math.pi, 9.0 * math.pi, 1801) - 0.4,
    ),
}


def _refined(cfg, grid, monkeypatch):
    """(report, Newton roots) of check_inequality, and (points, Newton roots) of the reference."""
    roots, ref_roots = [], []
    newton = inequality._bracketed_newton

    def record(*args):
        found = newton(*args)
        roots.append(found[0])
        return found

    monkeypatch.setattr(inequality, "_bracketed_newton", record)
    rep = check_inequality(cfg, grid)
    e_vals = inequality._margin_pieces(cfg, rep.grid)[3]
    points = reference.refine_equality_points(cfg, rep.grid, e_vals, inequality.E_TOL * cfg.measure.bound(-cfg.n), ref_roots)
    return rep, roots, points, ref_roots


class TestRefinementAgainstReference:
    """The refinement's start and acceptance come from the passes the check already makes;
    the equality points and the Newton roots keep the bits of the reference copy."""

    @pytest.mark.parametrize("name", sorted(SAME_BITS))
    def test_same_bits(self, name, monkeypatch):
        cfg, grid = SAME_BITS[name]()
        rep, roots, points, ref_roots = _refined(cfg, grid, monkeypatch)
        assert rep.equality_points == points
        assert len(roots) == len(ref_roots)
        for got, want in zip(roots, ref_roots):
            assert got.tobytes() == want.tobytes()
        if name == "sign-change":  # its brackets hold sign changes of E, roots of E itself
            assert not rep.hypothesis_ok and roots[0].size
        if name in ("fejer2-scenario", "fejer2-bench", "root-at-zero"):
            assert points

    @pytest.mark.parametrize("name", sorted(NEAR_BITS))
    def test_same_points_to_newtons_tolerance(self, name, monkeypatch):
        cfg, grid = NEAR_BITS[name]()
        rep, roots, points, ref_roots = _refined(cfg, grid, monkeypatch)
        unit = 1.0 / cfg.measure.sigma
        assert len(rep.equality_points) == len(points)
        assert len(roots) == len(ref_roots) == 1
        tol = transforms._NEWTON_XTOL * np.maximum(unit, np.abs(ref_roots[0]))
        assert np.all(np.abs(roots[0] - ref_roots[0]) <= tol)
        got, want = np.array(rep.equality_points), np.array(points)
        assert np.all(np.abs(got - want) <= transforms._NEWTON_XTOL * np.maximum(unit, np.abs(want)))

    @pytest.mark.parametrize("name", ["fejer2-bench", "root-at-zero"])
    def test_acceptance_is_certified_at_the_refined_points(self, name):
        # a fresh pass at the refined points shows what the Taylor allowance covers
        cfg, grid = SAME_BITS[name]()
        rep = check_inequality(cfg, grid)
        x = np.array(rep.equality_points)
        margin, _, scale, e_vals, _ = inequality._margin_pieces(cfg, x)
        assert np.all(np.abs(e_vals) <= inequality.E_TOL * cfg.measure.bound(-cfg.n))
        assert np.all(np.abs(margin) <= inequality.MARGIN_TOL * scale)
