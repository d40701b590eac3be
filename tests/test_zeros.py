import math

import numpy as np
import pytest

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

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_huge_mantissas_keep_the_refinement(self, two_unit_atoms):
        # neighbouring samples near 1e300 overflow their product, not their quotient
        result = count_zeros(two_unit_atoms.scaled(1e300), LOWER)
        assert result.count == 0
        assert result.boundary_samples == count_zeros(two_unit_atoms, LOWER).boundary_samples

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


class TestLocate:
    def test_locates_log_two_zero(self, sign_breaking_atoms):
        z = locate_zero(sign_breaking_atoms, Rectangle(-1.0, 1.0, -2.0, -0.1))
        assert abs(z - complex(0.0, -math.log(2.0))) <= 1e-8

    def test_requires_exactly_one_zero(self, two_unit_atoms):
        with pytest.raises(ValueError, match="exactly 1"):
            locate_zero(two_unit_atoms, LOWER)


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
