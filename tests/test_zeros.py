import math

import numpy as np
import pytest

import hbfourier.zeros as zeros_module
from hbfourier.measure import PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_pd_profile
from hbfourier.transforms import eval_Delta, eval_F
from hbfourier.zeros import (
    BoundaryZeroError,
    DiagnosticFailure,
    HypothesisViolation,
    Rectangle,
    _target_fn,
    _winding_count,
    check_derivative_hb,
    classify,
    count_h_alpha_zeros,
    count_zeros,
    delta_xi,
    find_imaginary_zero,
    find_real_zeros,
    locate_zero,
)

LOWER = Rectangle(-10.0, 10.0, -5.0, -1e-3)


class TestCountZeros:
    def test_one_evaluator_call_per_refinement_round(self, triangle_case2):
        fn = _target_fn(triangle_case2, "F'")
        sizes = []

        def counted(z):
            sizes.append(z.size)
            return fn(z)

        rect = Rectangle(-20.0, 20.0, -6.0, -1e-3)
        result = _winding_count(counted, rect, math.log(1e-12))
        assert sizes[0] == 4 * 64 and len(sizes) >= 2  # the start samples, then one call per round
        assert sum(sizes) == result.boundary_samples
        assert result == count_zeros(triangle_case2, rect, "F'")

    def test_huge_mantissas_keep_the_refinement(self, two_unit_atoms):
        # neighbouring samples near 1e300 overflow their product, not their quotient,
        # so the refinement and the final phases both read the quotient
        result = count_zeros(two_unit_atoms.scaled(1e300), LOWER)
        unscaled = count_zeros(two_unit_atoms, LOWER)
        assert result.count == 0
        assert result.boundary_samples == unscaled.boundary_samples
        assert result.winding_residual == unscaled.winding_residual
        # the log-moduli near 690 hold about 1e-13 absolute
        assert abs(result.zero_sum - unscaled.zero_sum) <= 1e-12

    def test_real_zeros_do_not_count_below_axis(self, two_unit_atoms):
        result = count_zeros(two_unit_atoms, LOWER)
        assert result.count == 0
        assert result.winding_residual <= 0.25

    def test_single_lower_zero(self, sign_breaking_atoms):
        result = count_zeros(sign_breaking_atoms, Rectangle(-1.0, 1.0, -2.0, -0.1))
        assert result.count == 1

    def test_nonvanishing_constant(self):
        m = StieltjesMeasure(1.0, ((0.0, 1.0),))
        assert count_zeros(m, Rectangle(-3.0, 3.0, -3.0, -0.01)).count == 0

    def test_split_additivity(self, sign_breaking_atoms):
        rect = Rectangle(-1.0, 1.0, -2.0, -0.1)
        left, right = rect.split()
        total = count_zeros(sign_breaking_atoms, rect).count
        # the zero sits at x = 0 on the shared cut; shift the split to avoid it
        left = Rectangle(-1.0, 0.3, -2.0, -0.1)
        right = Rectangle(0.3, 1.0, -2.0, -0.1)
        assert total == count_zeros(sign_breaking_atoms, left).count + count_zeros(sign_breaking_atoms, right).count

    def test_boundary_zero_detected(self, sign_breaking_atoms):
        # zero at -i ln 2 placed exactly on the bottom edge
        rect = Rectangle(-1.0, 1.0, -math.log(2.0), -0.1)
        with pytest.raises((BoundaryZeroError, DiagnosticFailure)):
            count_zeros(sign_breaking_atoms, rect)

    def test_derivative_target(self, two_unit_atoms):
        # F' = i e^{iz} never vanishes
        assert count_zeros(two_unit_atoms, LOWER, "F'").count == 0

    def test_inverse_target_requires_vanishing_mass(self, two_unit_atoms):
        with pytest.raises(ValueError):
            count_zeros(two_unit_atoms, LOWER, "F/z")

    def test_inverse_target_contour_through_the_origin(self):
        # F(0) = 0 and F'(0) = -i/2, so F / z is entire and nonzero at z = 0,
        # where the top edge of the rectangle has a sample
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)
        w, scale = _target_fn(m, "F/z")(np.array([0j, 0.3 - 0.2j]))
        assert w[0] == pytest.approx(1j * m.moment(1), abs=1e-16)
        assert w[1] * math.exp(scale[1]) == pytest.approx(eval_F(m, 0.3 - 0.2j) / (0.3 - 0.2j), abs=1e-15)
        assert count_zeros(m, Rectangle(-1.0, 1.0, -1.0, 0.0), "F/z").count == 0


class TestLocate:
    def test_locates_log_two_zero(self, sign_breaking_atoms):
        z = locate_zero(sign_breaking_atoms, Rectangle(-1.0, 1.0, -2.0, -0.1))
        assert abs(z - complex(0.0, -math.log(2.0))) <= 1e-8

    @pytest.mark.parametrize("target", ["F", "zF", "F/z"])
    def test_omega_targets_share_the_lower_zero(self, target):
        # F = (w - 1)(w - 2) with w = e^{iz}: F(0) = 0, and z^n F keeps the zero -i ln 2
        m = StieltjesMeasure(2.0, ((0.0, 2.0), (1.0, -3.0), (2.0, 1.0)))
        z = locate_zero(m, Rectangle(-1.0, 1.0, -1.2, -0.2), target)
        assert abs(z - complex(0.0, -math.log(2.0))) <= 1e-12

    def test_requires_exactly_one_zero(self, two_unit_atoms):
        with pytest.raises(ValueError, match="exactly 1"):
            locate_zero(two_unit_atoms, LOWER)

    def test_accepts_the_zero_of_the_target_it_located(self):
        # zF vanishes at z = 0, where F = 3/2 does not
        m = _triangle(4, 0.5)
        rect = Rectangle(-0.5, 0.6, -0.4, 0.5)
        assert count_zeros(m, rect, "zF").count == 1
        assert abs(locate_zero(m, rect, "zF")) <= 1e-12


def _triangle(panels: int, jump: float):
    """The triangular profile (1 - t)_+ on `panels` equal panels with a jump at
    sigma = 1; jump in (-1, 0) puts one zero on the negative imaginary axis."""
    return from_pd_profile([i / panels for i in range(panels + 1)], [1.0 - i / panels for i in range(panels + 1)], jump)


def _around(y: float) -> Rectangle:
    """A rectangle about the zero i y, shaped as the benchmark's locate tasks."""
    return Rectangle(-0.6, 0.7, y - 0.45, min(y + 0.5, -1e-3))


class TestNewtonStart:
    @pytest.mark.parametrize("jump", [-0.65, -0.5, -0.35])
    def test_zero_sum_estimates_the_zero(self, jump):
        m = _triangle(16, jump)
        y = find_imaginary_zero(m)
        result = count_zeros(m, _around(y))
        assert result.count == 1
        assert abs(result.zero_sum - complex(0.0, y)) <= 1e-4

    @pytest.mark.parametrize(
        "x_min,x_max,below,above", [(-30.0, 30.0, 0.01, 0.5), (-0.6, 0.7, 0.45, 1e-4)], ids=["wide", "zero_at_the_top"]
    )
    def test_estimate_outside_the_rectangle_still_locates(self, x_min, x_max, below, above):
        # a wide flat rectangle, or the zero 1e-4 below the top edge: the
        # samples estimate the zero outside, and Newton starts from the centre
        m = _triangle(16, -0.5)
        y = find_imaginary_zero(m)
        rect = Rectangle(x_min, x_max, y - below, y + above)
        assert not rect.contains(count_zeros(m, rect).zero_sum)
        assert abs(locate_zero(m, rect) - complex(0.0, y)) <= 1e-12

    def test_subdivision_takes_over_where_newton_leaves(self, monkeypatch):
        # F = (w - 1)(w - 2) with w = e^{iz}: the zero -i ln 2 lies 1e-3 inside
        # the left edge, the estimate falls outside, Newton from the centre
        # leaves the window, and the quadrant counts find the zero
        m = StieltjesMeasure(2.0, ((0.0, 2.0), (1.0, -3.0), (2.0, 1.0)))
        rect = Rectangle(-0.001, 6.0, -3.0, -0.1)
        assert not rect.contains(count_zeros(m, rect).zero_sum)
        counts = []
        monkeypatch.setattr(zeros_module, "count_zeros", lambda *args: counts.append(1) or count_zeros(*args))
        assert abs(locate_zero(m, rect) - complex(0.0, -math.log(2.0))) <= 1e-12
        assert len(counts) > 1

    def test_probe_keeps_its_value_with_fewer_evaluations(self, monkeypatch):
        # the benchmark's probe, around the correctly rounded 40-digit zero
        # -1.593624260040040092i: the contour, three Newton steps and the
        # acceptance check, where the centre start took two steps more
        y_ref = -1.59362426004004
        evaluator = zeros_module._grid_moments
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluator(*args)

        monkeypatch.setattr(zeros_module, "_grid_moments", counted)
        z = locate_zero(_triangle(16, -0.5), _around(y_ref))
        assert abs(z.imag - y_ref) <= math.ulp(y_ref) and abs(z.real) <= 1e-30
        assert len(calls) == 5


class TestRealZeros:
    def test_two_atom_zeros_at_odd_pi(self, two_unit_atoms):
        zeros_found = find_real_zeros(two_unit_atoms, (0.0, 10.0))
        assert len(zeros_found) == 2
        (x1, m1), (x2, m2) = zeros_found
        assert x1 == pytest.approx(math.pi, abs=1e-9)
        assert x2 == pytest.approx(3.0 * math.pi, abs=1e-9)
        assert m1 == m2 == 1

    def test_pure_phase_has_no_zeros(self):
        m = StieltjesMeasure(1.0, ((1.0, 0.7),))
        assert find_real_zeros(m, (-20.0, 20.0)) == []

    def test_monotone_density_has_no_real_zeros(self, ramp_density):
        assert find_real_zeros(ramp_density, (-30.0, 30.0)) == []

    def test_simple_zero_at_origin_when_first_moment_survives(self):
        # triangular profile with jump -1: F(0) = 0 but F'(0) = -i/2, so simple
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)
        zeros_found = find_real_zeros(m, (-3.0, 3.0))
        assert zeros_found == [(pytest.approx(0.0, abs=1e-10), 1)]

    def test_double_zero_at_origin(self):
        # F(z) = (e^{iz/2} - 1)^2: mass and first moment both vanish
        m = StieltjesMeasure(1.0, ((0.0, 1.0), (0.5, -2.0), (1.0, 1.0)))
        zeros_found = find_real_zeros(m, (-3.0, 3.0))
        assert any(abs(x) <= 1e-8 and mult == 2 for x, mult in zeros_found)

    def test_close_pair_sharing_one_grid_minimum(self):
        # F(z) = 2 e^{iz/2} (cos(z/2) - cos t) has simple zeros at +-2t, here
        # 0.7 grid steps from 0; the grid point at -0.8 steps is the only
        # minimum of |F|^2 near 0, and its bracket misses the zero at +2t,
        # which only the sign change of G on (0.2, 1.2) steps finds
        step = math.pi / 40.0  # sigma = 1
        t = 0.35 * step
        m = StieltjesMeasure(1.0, ((0.0, 1.0), (0.5, -2.0 * math.cos(t)), (1.0, 1.0)))
        zeros_found = find_real_zeros(m, (-4.8 * step, 11.2 * step))
        assert zeros_found == [(pytest.approx(-2.0 * t, abs=1e-12), 1), (pytest.approx(2.0 * t, abs=1e-12), 1)]

    def test_reports_no_duplicates_when_both_passes_hit(self, fejer2):
        zeros_found = find_real_zeros(fejer2, (-13.0, 13.0))
        locations = [x for x, _ in zeros_found]
        assert len(locations) == len(set(round(x, 6) for x in locations))
        assert len(locations) == 4  # odd multiples of pi inside (-13, 13)

    def test_double_zero_off_origin_is_a_diagnostic_failure(self):
        # F(z) = (1 + e^{iz/2})^2 has double zeros at 2 pi + 4 pi k; the
        # multiplicity cap admits depth 2 only at the origin
        m = StieltjesMeasure(1.0, ((0.0, 1.0), (0.5, 2.0), (1.0, 1.0)))
        with pytest.raises(DiagnosticFailure, match="not simple"):
            find_real_zeros(m, (5.0, 8.0))

    def test_one_evaluator_call_per_newton_iteration(self, fejer2, monkeypatch):
        # every candidate of a search moves in the same call, so the number of
        # calls does not grow with the number of zeros
        evaluator = zeros_module._grid_moments

        def calls_for(interval):
            sizes = []

            def counted(measure, z, order):
                sizes.append(np.size(z))
                return evaluator(measure, z, order)

            monkeypatch.setattr(zeros_module, "_grid_moments", counted)
            return find_real_zeros(fejer2, interval), sizes

        narrow, narrow_sizes = calls_for((-13.0, 13.0))
        wide, wide_sizes = calls_for((-200.0, 200.0))
        assert len(narrow) == 4 and len(wide) == 64  # odd multiples of pi inside
        assert len(wide_sizes) == len(narrow_sizes) < len(wide)
        assert max(wide_sizes[1:]) == len(wide)  # after the scan: all candidates at once

    def test_floor_drops_the_noise_minima_of_a_single_atom(self, monkeypatch):
        # |F| = 1 on the whole axis, far above the floor sigma V step, so
        # neither the grid minima of |F|^2 (rounding noise) nor the 6 sign
        # changes of G = cos(x / 2) are searched: the scan and an empty
        # acceptance test, where the unfloored scan searched 342 brackets
        evaluator = zeros_module._grid_moments
        sizes = []

        def counted(measure, z, order):
            sizes.append(np.size(z))
            return evaluator(measure, z, order)

        monkeypatch.setattr(zeros_module, "_grid_moments", counted)
        assert find_real_zeros(StieltjesMeasure(1.0, ((0.5, 1.0),)), (-20.0, 20.0)) == []
        assert sizes == [511, 0]

    def test_floor_keeps_every_minimum_at_a_zero(self, two_unit_atoms, fejer2):
        # |F| dips to 0 at each odd multiple of pi: the minima there survive
        for measure in (two_unit_atoms, fejer2):
            found = find_real_zeros(measure, (-13.0, 13.0))
            assert [round(x / math.pi) for x, _ in found] == [-3, -1, 1, 3]

    def test_wronskian_has_double_zero_at_simple_real_zeros(self, fejer2):
        # at every real zero the Wronskian vanishes to second order
        for x0, mult in find_real_zeros(fejer2, (0.0, 12.0)):
            assert mult == 1
            h = 1e-4
            d0 = float(eval_Delta(fejer2, np.array([x0]))[0])
            dm = float(eval_Delta(fejer2, np.array([x0 - h]))[0])
            dp = float(eval_Delta(fejer2, np.array([x0 + h]))[0])
            assert abs(d0) <= 1e-10
            assert (dp - 2.0 * d0 + dm) / h**2 > 0.1


class TestImaginaryZero:
    def test_borderline_mass_produces_unique_root(self, triangle_case2):
        y_star = find_imaginary_zero(triangle_case2)
        u_star = 1.59362426004004  # root of e^u (2 - u) = 2, solved independently
        assert y_star == pytest.approx(-u_star, abs=1e-10)
        assert abs(eval_F(triangle_case2, complex(0.0, y_star))) <= 1e-10

    def test_boundary_masses_return_none(self):
        assert find_imaginary_zero(from_pd_profile([0.0, 1.0], [1.0, 0.0], 0.0)) is None
        assert find_imaginary_zero(from_pd_profile([0.0, 1.0], [1.0, 0.0], -1.0)) is None

    def test_hypothesis_violation_raises(self, sign_breaking_atoms):
        with pytest.raises(HypothesisViolation):
            find_imaginary_zero(sign_breaking_atoms)


class TestCompensatedWronskian:
    def test_nonnegative_for_borderline_fixture(self, triangle_case2):
        y_star = find_imaginary_zero(triangle_case2)
        xs = np.linspace(-30.0, 30.0, 3001)
        vals = delta_xi(triangle_case2, -y_star, xs)
        assert vals.min() >= -1e-9

    def test_plain_wronskian_nonnegative_under_cosine_hypothesis(self, fejer2, ramp_density):
        xs = np.linspace(-40.0, 40.0, 4001)
        assert eval_Delta(fejer2, xs).min() >= -1e-12
        assert eval_Delta(ramp_density, xs).min() >= -1e-12


class TestClassify:
    def test_fejer_keeps_real_zeros(self, fejer2):
        result = classify(fejer2)
        assert result.verdict == "hb_bar_nontrivial"
        assert result.lower_zero is None
        assert result.defect == pytest.approx(1.5)
        assert all(mult == 1 for _, mult in result.real_zeros)
        assert any(abs(x - math.pi) < 1e-8 for x, _ in result.real_zeros)

    def test_borderline_fixture_has_one_lower_zero(self, triangle_case2):
        result = classify(triangle_case2)
        assert result.verdict == "one_lower_zero"
        assert result.lower_zero == pytest.approx(complex(0.0, -1.59362426004004), abs=1e-8)
        assert result.defect == pytest.approx(0.5)

    def test_atom_at_sigma_is_pure_phase(self):
        result = classify(StieltjesMeasure(1.0, ((1.0, 3.0),)))
        assert result.verdict == "hb"
        assert result.real_zeros == ()
        assert result.defect == pytest.approx(1.0)

    def test_constant_is_trivial(self):
        result = classify(StieltjesMeasure(1.0, ((0.0, 3.0),)))
        assert result.verdict == "trivial_constant_phase"

    def test_zero_measure(self):
        result = classify(StieltjesMeasure(1.0, ()))
        assert result.verdict == "identically_zero"

    def test_hypothesis_violation_verdict(self, sign_breaking_atoms):
        result = classify(sign_breaking_atoms)
        assert result.verdict == "hypothesis_violated"
        assert not result.c_nonneg and not result.s_nonneg

    def test_monotone_density_is_hb(self, ramp_density):
        result = classify(ramp_density)
        assert result.verdict == "hb"
        assert result.real_zeros == ()


class TestDerivativeChecks:
    def test_ramp_derivative_clear_of_lower_halfplane(self, ramp_density):
        report = check_derivative_hb(ramp_density, 1, Rectangle(-20.0, 20.0, -6.0, -1e-3))
        assert report.ok
        assert report.lower_count == 0
        assert report.real_min > 1e-6

    def test_pure_phase_derivative(self, two_unit_atoms):
        report = check_derivative_hb(two_unit_atoms, 1)
        assert report.ok and report.lower_count == 0

    def test_zero_measure_flagged(self):
        report = check_derivative_hb(StieltjesMeasure(1.0, ()), 1)
        assert report.ok
        assert report.note == "identically_zero"

    def test_second_derivative_for_fejer(self, fejer2):
        report = check_derivative_hb(fejer2, 2, Rectangle(-10.0, 10.0, -4.0, -1e-3))
        assert report.lower_count == 0


class TestRotatedZeros:
    def test_borderline_fixture_has_complex_rotated_zeros(self, triangle_case2):
        counts = [
            count_h_alpha_zeros(triangle_case2, float(a), Rectangle(-5.0, 5.0, -4.0, -1e-3)).count
            for a in np.linspace(0.0, math.pi, 9)
        ]
        assert any(c >= 1 for c in counts)

    def test_case_one_rotated_zeros_stay_real(self, ramp_density):
        for alpha in (0.0, 0.7, 1.9):
            assert count_h_alpha_zeros(ramp_density, alpha, Rectangle(-5.0, 5.0, -4.0, -1e-3)).count == 0


class TestLowerZeroDichotomy:
    def test_sweep_over_boundary_masses(self):
        for f0, expect in [(-0.25, 0), (0.0, 0), (0.25, 1), (0.5, 1), (0.75, 1), (1.0, 0), (1.25, 0)]:
            m = from_pd_profile([0.0, 1.0], [1.0, 0.0], f0 - 1.0)
            y_star = find_imaginary_zero(m)
            if expect:
                assert y_star is not None
                rect = Rectangle(-20.0, 20.0, min(-6.0, 1.5 * y_star), -1e-3)
                assert count_zeros(m, rect).count == 1
            else:
                assert y_star is None
                assert count_zeros(m, Rectangle(-20.0, 20.0, -6.0, -1e-3)).count == 0
