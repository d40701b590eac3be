import math

import numpy as np
import pytest

import hbfourier.zeros as zeros_module
from hbfourier.measure import HYPOTHESIS_TOL, PiecewiseLinearDensity, StieltjesMeasure, from_fejer, from_pd_profile
from hbfourier.transforms import _ROUNDING, _reflected, eval_Delta, eval_F
from hbfourier.zeros import (
    DEFAULT_LOWER_RECT,
    ZERO_TOL,
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


def lattice_zeros(coeffs, x_min, x_max):
    """Zeros of F = sum_k c_k e^{ikz} with x_min - 1 <= Re z <= x_max + 1.

    They are z = -i log w + 2 pi j over the roots w of sum_k c_k w^k.
    """
    out = []
    for w in np.roots(coeffs[::-1]):
        x0, y = float(np.angle(w)), -math.log(abs(w))
        j_lo, j_hi = math.floor((x_min - 1.0 - x0) / (2.0 * math.pi)), math.ceil((x_max + 1.0 - x0) / (2.0 * math.pi))
        out.extend(complex(x0 + 2.0 * math.pi * j, y) for j in range(j_lo, j_hi + 1))
    return out


def inside_and_clearance(zs, x_min, x_max, y_min, y_max):
    """(zeros strictly inside the rectangle, least distance of a zero from its boundary)."""
    inside, clearance = 0, math.inf
    for z in zs:
        dx, dy = max(x_min - z.real, 0.0, z.real - x_max), max(y_min - z.imag, 0.0, z.imag - y_max)
        if dx == dy == 0.0:
            inside += 1
            clearance = min(clearance, z.real - x_min, x_max - z.real, z.imag - y_min, y_max - z.imag)
        else:
            clearance = min(clearance, math.hypot(dx, dy))
    return inside, clearance


class TestCountZeros:
    def test_one_evaluator_call_per_refinement_round(self, triangle_case2):
        fn = _target_fn(triangle_case2, "F'")
        sizes = []

        def counted(z):
            sizes.append(z.size)
            return fn(z)

        rect = Rectangle(-20.0, 20.0, -6.0, -1e-3)
        result = _winding_count(counted, rect, math.log(1e-12), 1.0 / triangle_case2.sigma)
        # the start samples, 64 per edge at sigma = 1, then one call per round
        assert sizes[0] == 4 * 64 and len(sizes) >= 2
        assert sum(sizes) == result.boundary_samples
        assert result == count_zeros(triangle_case2, rect, "F'")

    def test_integer_atoms_match_the_root_oracle(self):
        # wide rectangles at sigma up to 8: a start of 64 points per edge steps
        # over whole turns of the phase there, which no refinement round sees
        rng = np.random.default_rng(20)
        mismatches, cases = [], 0
        while cases < 60:
            degree = int(rng.integers(2, 9))
            coeffs = rng.integers(-5, 6, size=degree + 1).astype(float)
            if coeffs[0] == 0.0 or coeffs[-1] == 0.0:
                continue
            width, y_min = float(rng.uniform(10.0, 300.0)), float(rng.uniform(-3.0, -0.3))
            x_min, y_max = float(rng.uniform(-width, 0.0)), float(rng.uniform(y_min + 0.3, 1.5))
            rect = (x_min, x_min + width, y_min, y_max)
            expected, clearance = inside_and_clearance(lattice_zeros(coeffs, x_min, x_min + width), *rect)
            if clearance < 0.15:
                continue
            cases += 1
            m = StieltjesMeasure(float(degree), tuple((float(k), c) for k, c in enumerate(coeffs) if c))
            counted = count_zeros(m, Rectangle(*rect)).count
            if counted != expected:
                mismatches.append((coeffs.tolist(), rect, counted, expected))
        assert mismatches == []

    def test_huge_mantissas_keep_the_refinement(self, two_unit_atoms):
        # neighbouring samples near 1e300 overflow their product, not their quotient,
        # so the refinement and the final phases both read the quotient
        for measure in (two_unit_atoms, StieltjesMeasure(2.0, ((0.0, 1.0), (2.0, 1.0)))):
            result = count_zeros(measure.scaled(1e300), LOWER)
            unscaled = count_zeros(measure, LOWER)
            assert result.count == 0
            assert result.boundary_samples == unscaled.boundary_samples
            assert result.winding_residual == unscaled.winding_residual
            # the log-modulus increments come from the quotients and the scale
            # differences, never from absolute log-moduli near 690
            assert abs(result.zero_sum - unscaled.zero_sum) <= 1e-13

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

    @pytest.mark.parametrize("target", ["F'", "F''", "G"])
    def test_refuses_targets_outside_the_f_family(self, sign_breaking_atoms, target):
        with pytest.raises(ValueError, match="F-family targets only"):
            locate_zero(sign_breaking_atoms, Rectangle(-1.0, 1.0, -2.0, -0.1), target)

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
        # the benchmark's locate rectangles: 64 samples on every edge, none
        # refined, so the sum is extrapolated; the plain sum S_h is 2.8e-6 off
        for panels in (1, 4, 16, 64):
            m = _triangle(panels, jump)
            y = find_imaginary_zero(m)
            result = count_zeros(m, _around(y))
            assert result.count == 1 and result.boundary_samples == 4 * 64
            assert abs(result.zero_sum - complex(0.0, y)) <= 1e-9

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
        # -1.593624260040040092i: the contour and two Newton steps from its
        # extrapolated zero sum, the second confirming the first, with the
        # acceptance certified from the last step instead of a fifth call
        y_ref = -1.59362426004004
        evaluator = zeros_module._grid_moments
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluator(*args)

        monkeypatch.setattr(zeros_module, "_grid_moments", counted)
        z = locate_zero(_triangle(16, -0.5), _around(y_ref))
        assert abs(z.imag - y_ref) <= math.ulp(y_ref) and abs(z.real) <= 1e-30
        assert len(calls) == 3


def _zero_sum_reference(fn, rect: Rectangle, unit: float):
    """(start samples, samples, zero sum) of `_winding_count` as first written:
    the plain sum S_h, with np.roll for each sample's successor."""
    spacing = 0.25 * math.pi * unit
    width, height = (max(side / spacing, 64.0) for side in (rect.x_max - rect.x_min, rect.y_max - rect.y_min))
    corners = list(rect.corners)
    edges = zip(corners, corners[1:] + corners[:1], (width, height) * 2)
    zs = np.concatenate([a + np.linspace(0.0, 1.0, math.ceil(n) + 1)[:-1] * (b - a) for a, b, n in edges])
    start = len(zs)
    ws, scales = fn(zs)
    while True:
        q = np.roll(ws, -1) / ws
        dphi = np.angle(q)
        split = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if not split.size:
            break
        zm = 0.5 * (zs[split] + np.roll(zs, -1)[split])
        zs = np.insert(zs, split + 1, zm)
        wm, em = fn(zm)
        ws, scales = np.insert(ws, split + 1, wm), np.insert(scales, split + 1, em)
    dlog = np.log(np.abs(q)) + (np.roll(scales, -1) - scales) + 1j * dphi
    return start, len(zs), complex(np.sum(0.5 * (zs + np.roll(zs, -1)) * dlog) / (2j * math.pi))


class TestExtrapolatedZeroSum:
    @pytest.mark.parametrize(
        "case,target,refined",
        [("triangle", "F'", True), ("fejer", "F", True), ("two atoms", "F", True), ("atoms 4", "F", True),
         ("atoms 5", "F", False)],
    )
    def test_other_contours_keep_the_plain_sum(self, case, target, refined):
        # on the default rectangle: contours that refine, and one that does not
        # but has 255 samples on its long edges, give the plain sum bit for bit
        rect = Rectangle(*DEFAULT_LOWER_RECT)
        if case == "triangle":
            m = _triangle(4, -0.5)
        elif case == "fejer":
            m = from_fejer(4)
        elif case == "two atoms":
            m = StieltjesMeasure(1.0, ((0.0, 1.0), (1.0, 1.0)))
        else:
            n = int(case.split()[1])
            coeffs = np.random.default_rng(n).integers(-3, 4, n + 1)
            m = StieltjesMeasure(float(n), tuple((float(k), float(c)) for k, c in enumerate(coeffs)))
        start, samples, plain = _zero_sum_reference(_target_fn(m, target), rect, 1.0 / m.sigma)
        result = count_zeros(m, rect, target)
        assert result.boundary_samples == samples and (samples > start) == refined
        assert refined or start == 2 * (255 + 64)
        assert result.zero_sum.real == plain.real and result.zero_sum.imag == plain.imag


class TestCertifiedAcceptance:
    """The zero searches accept their last Newton iterate from a bound, with no
    evaluation at it; the bound must cover what an evaluation there gives."""

    @staticmethod
    def record(monkeypatch):
        events = []
        evaluator, residual = zeros_module._grid_moments, zeros_module._newton_residual

        def bound(f, fp, d, m2, scale):
            value = residual(f, fp, d, m2, scale)
            events.append((value, abs(d)))
            return value

        monkeypatch.setattr(zeros_module, "_grid_moments", lambda *args: events.append("grid") or evaluator(*args))
        monkeypatch.setattr(zeros_module, "_newton_residual", bound)
        return events

    @pytest.mark.parametrize(
        "case,target",
        [("atoms", "F"), ("atoms", "zF"), ("atoms", "F/z"), ("triangle 1", "F"), ("triangle 16", "F"),
         ("triangle 16", "zF"), ("triangle 64", "zF"), ("origin", "zF")],
    )
    def test_locate_zero(self, case, target, monkeypatch):
        if case == "atoms":  # F = (w - 1)(w - 2) with w = e^{iz}, sigma = 2: F(0) = 0
            m = StieltjesMeasure(2.0, ((0.0, 2.0), (1.0, -3.0), (2.0, 1.0)))
            rect = Rectangle(-1.0, 1.0, -1.2, -0.2)
        elif case == "origin":  # the zero z = 0 of zF, where the scale of zF vanishes
            m, rect = _triangle(4, 0.5), Rectangle(-0.5, 0.6, -0.4, 0.5)
        else:
            m = _triangle(int(case.split()[1]), -0.5)
            rect = _around(find_imaginary_zero(m))
        events = self.record(monkeypatch)
        z = locate_zero(m, rect, target)
        monkeypatch.undo()
        assert isinstance(events[-1], tuple)  # no evaluator call after the last Newton step
        value, d = events[-1]
        (w,), _ = zeros_module._target(m, target, z, 0)
        assert abs(w) <= value * math.exp(2.0 * m.sigma * d) <= ZERO_TOL * m.bound()

    @pytest.mark.parametrize("panels", [1, 2, 4, 8, 16, 32, 64])
    @pytest.mark.parametrize("jump", [-0.65, -0.5, -0.35, -0.001])
    def test_imaginary_zero(self, panels, jump, monkeypatch):
        m = _triangle(panels, jump)
        events = self.record(monkeypatch)
        y = zeros_module._imaginary_zero(m)
        monkeypatch.undo()
        assert isinstance(events[-1], tuple)
        g = zeros_module._target(m, "F", complex(0.0, y), 0)[0][0].real
        assert abs(g) <= events[-1][0] <= ZERO_TOL * m.bound()

    @staticmethod
    def record_newton(monkeypatch, events):
        """The returns of `_bracketed_newton`, each followed in events by "newton"."""
        newton, found = zeros_module._bracketed_newton, []

        def wrapped(*args):
            found.append(newton(*args))
            events.append("newton")
            return found[-1]

        monkeypatch.setattr(zeros_module, "_bracketed_newton", wrapped)
        return found

    #: (measure, interval) of real-axis scans with candidates: Fejer-2's simple zeros at
    #: +-pi and +-3 pi, a close pair 0.7 grid steps apart, the double zero of (1 - e^{iz/2})^2
    #: at 0, and F = (w - 1)(w - 2), w = e^{iz}, whose F'' has a candidate near 0
    REAL = {
        "fejer2": lambda: (from_fejer(2, 1.0, 1.0), (-13.0, 13.0)),
        "close pair": lambda: (_close_pair(0.7)[0], (-4.8 * CLOSE_STEP, 11.2 * CLOSE_STEP)),
        "origin": lambda: (StieltjesMeasure(1.0, ((0.0, 1.0), (0.5, -2.0), (1.0, 1.0))), (-3.0, 3.0)),
        "atoms": lambda: (StieltjesMeasure(2.0, ((0.0, 2.0), (1.0, -3.0), (2.0, 1.0))), (-3.0, 3.0)),
    }

    @pytest.mark.parametrize("case, multiplicities", [("fejer2", [1, 1, 1, 1]), ("close pair", [1, 1]), ("origin", [2])])
    def test_find_real_zeros(self, case, multiplicities, monkeypatch):
        m, interval = self.REAL[case]()
        events = self.record(monkeypatch)
        found = self.record_newton(monkeypatch, events)
        zeros_found = find_real_zeros(m, interval)
        monkeypatch.undo()
        assert [mult for _, mult in zeros_found] == multiplicities
        # the scan's Newton pass makes the last evaluator call; only the certificate follows
        assert len(found) == 1 and events.index("newton") == len(events) - 2 and isinstance(events[-1], tuple)
        x, value = found[0][0], events[-1][0]
        for x0, _ in zeros_found:
            fresh = np.abs(zeros_module._target(m, "F", np.array([x0]), 0)[0][0])
            covering = value[x == x0]
            assert covering.size and np.all(fresh <= covering) and np.all(covering <= ZERO_TOL * m.bound())

    @pytest.mark.parametrize("case, order", [("close pair", 1), ("origin", 1), ("atoms", 2)])
    def test_check_derivative_hb(self, case, order, monkeypatch):
        m, interval = self.REAL[case]()
        events = self.record(monkeypatch)
        found = self.record_newton(monkeypatch, events)
        report = check_derivative_hb(m, order, real_interval=interval)
        monkeypatch.undo()
        assert len(found) == 1 and events[-1] == "newton"  # no evaluator call after the last Newton pass
        _, at, rows = found[0]
        # the least |F^(k)| is a candidate's last Newton evaluation, and a fresh one agrees
        j = np.flatnonzero(at == report.real_argmin)
        assert j.size and report.real_min == np.min(np.abs(rows[0][j]))
        fresh = np.abs(zeros_module._target(m, "F'" if order == 1 else "F''", np.array([report.real_argmin]), 0)[0][0])
        assert abs(fresh[0] - report.real_min) <= _ROUNDING * m.bound(order)

    @pytest.mark.parametrize("bound", [2.0 * ZERO_TOL, math.nan])
    def test_imaginary_zero_refuses_a_bound_over_the_threshold(self, bound, monkeypatch):
        # V = 1.5 here, so 2 ZERO_TOL exceeds the threshold ZERO_TOL V; NaN fails every comparison
        monkeypatch.setattr(zeros_module, "_newton_residual", lambda *args: bound)
        with pytest.raises(DiagnosticFailure, match="did not drive"):
            zeros_module._imaginary_zero(_triangle(4, -0.5))


CLOSE_STEP = math.pi / 40.0  # the real scan's grid step for sigma = 1


def _close_pair(zero):
    """(F(z) = 2 e^{iz/2} (cos(z/2) - cos t), t) with simple zeros at +-2t, `zero` grid steps from 0."""
    t = 0.5 * zero * CLOSE_STEP
    return StieltjesMeasure(1.0, ((0.0, 1.0), (0.5, -2.0 * math.cos(t)), (1.0, 1.0))), t


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

    def test_zero_measure_has_no_real_zeros(self):
        assert find_real_zeros(StieltjesMeasure(1.0, ()), (-20.0, 20.0)) == []

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

    @pytest.mark.parametrize("p, message", [(3, "real zero at 2.15683e-08 is not simple"), (4, "deeper than multiplicity 2")])
    def test_origin_zero_deeper_than_two_is_refused(self, p, message):
        # F = (1 - e^{iz})^p, atoms C(p, k) (-1)^k at t = k, has a zero of order p at 0.
        # For p = 3 Newton stops 2.2e-8 from 0, sigma |x| past _ORIGIN_RADIUS; for p = 4
        # it stops at 0, where F'' vanishes too
        m = StieltjesMeasure(float(p), tuple((float(k), math.comb(p, k) * (-1.0) ** k) for k in range(p + 1)))
        with pytest.raises(DiagnosticFailure, match=message):
            find_real_zeros(m, (-1.0, 1.0))

    def test_close_pair_sharing_one_grid_minimum(self):
        # F(z) = 2 e^{iz/2} (cos(z/2) - cos t) has simple zeros at +-2t, here
        # 0.7 grid steps from 0; the grid point at -0.8 steps is the only
        # minimum of |F|^2 near 0, and its bracket misses the zero at +2t,
        # which only the sign change of G on (0.2, 1.2) steps finds
        m, t = _close_pair(0.7)
        zeros_found = find_real_zeros(m, (-4.8 * CLOSE_STEP, 11.2 * CLOSE_STEP))
        assert zeros_found == [(pytest.approx(-2.0 * t, abs=1e-12), 1), (pytest.approx(2.0 * t, abs=1e-12), 1)]

    @pytest.mark.parametrize(
        "zero, grid_point", [(0.45, -0.3), (0.45, 0.3), (0.3, 0.0), (0.2, -0.1)], ids=["0.45@-0.3", "0.45@0.3", "0.3@0", "0.2@-0.1"]
    )
    def test_close_pair_at_other_grid_offsets(self, zero, grid_point):
        # the pair at +-`zero` grid steps, with a grid point at `grid_point`
        # steps, the only minimum of |F|^2 near 0: the other zero is the root
        # of G's sign change in the next cell, where the slope of |F|^2 can
        # keep one sign, since the cell also holds the maximum of |F| between
        # the pair
        m, t = _close_pair(zero)
        zeros_found = find_real_zeros(m, ((grid_point - 4.0) * CLOSE_STEP, (grid_point + 12.0) * CLOSE_STEP))
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

    def test_triple_zero_is_not_reported_as_a_double_zero(self):
        # F(z) = (1 - e^{iz})^3 has triple zeros at 2 pi k.  It is so flat
        # there that a candidate about 1e-5 off passes |F| <= ZERO_TOL V, and
        # |F''| at that candidate clears the double-zero test; until the
        # multiplicity comes from a count, the zero must be refused, not
        # returned as a double zero off by about 1e-5
        m = StieltjesMeasure(3.0, ((0.0, 1.0), (1.0, -3.0), (2.0, 3.0), (3.0, -1.0)))
        with pytest.raises(DiagnosticFailure):
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
        # changes of G = cos(x / 2) are searched: the scan alone, with no
        # acceptance call, where the unfloored scan searched 342 brackets
        evaluator = zeros_module._grid_moments
        sizes = []

        def counted(measure, z, order):
            sizes.append(np.size(z))
            return evaluator(measure, z, order)

        monkeypatch.setattr(zeros_module, "_grid_moments", counted)
        assert find_real_zeros(StieltjesMeasure(1.0, ((0.5, 1.0),)), (-20.0, 20.0)) == []
        assert sizes == [511]

    def test_floor_keeps_every_minimum_at_a_zero(self, two_unit_atoms, fejer2):
        # |F| dips to 0 at each odd multiple of pi: the minima there survive
        for measure in (two_unit_atoms, fejer2):
            found = find_real_zeros(measure, (-13.0, 13.0))
            assert [round(x / math.pi) for x, _ in found] == [-3, -1, 1, 3]

    @pytest.mark.parametrize("interval", [(math.pi - 0.01, 6.0), (0.0, math.pi + 1e-4)], ids=["left", "right"])
    def test_zero_in_an_end_cell(self, two_unit_atoms, interval):
        # G = 1 + cos x only touches 0 at pi, and the grid end next to pi is
        # the least |F| of the scan: only an end minimum brackets the zero
        assert find_real_zeros(two_unit_atoms, interval) == [(pytest.approx(math.pi, abs=1e-14), 1)]

    def test_matches_the_unit_circle_roots_of_palindromic_atoms(self):
        # F = sum c_k e^{ikx} with c_k = c_{N-k} vanishes on the axis at the
        # angles of the unit-circle roots of sum c_k u^k; one end of each
        # interval lies a random fraction of a grid step past such a zero
        rng = np.random.default_rng(20161)
        checked = 0
        for _ in range(400):
            n = int(rng.integers(2, 9))
            half = rng.integers(-4, 5, n // 2 + 1).astype(float)
            c = np.concatenate([half, half[: (n + 1) // 2][::-1]])
            if c[0] == 0:
                continue
            roots = np.roots(c[::-1])
            off = np.abs(np.abs(roots) - 1.0)
            angles = np.sort(np.angle(roots[off <= 1e-6]))
            # only simple zeros, with every root clearly on or off the circle
            if not angles.size or np.any((off > 1e-6) & (off <= 1e-3)):
                continue
            if np.min(np.diff(np.append(angles, angles[0] + 2.0 * math.pi))) <= 1e-3:
                continue
            m = StieltjesMeasure(float(n), tuple((float(t), float(v)) for t, v in enumerate(c) if v))
            x0 = float(rng.choice(angles)) + 2.0 * math.pi * int(rng.integers(-3, 4))
            past = float(rng.uniform(0.0, 1.0)) * math.pi / (40.0 * n)
            other = float(rng.uniform(2.0, 15.0))
            a, b = (x0 - past, x0 + other) if rng.integers(2) else (x0 - other, x0 + past)
            images = (angles[None, :] + 2.0 * math.pi * np.arange(-6, 7)[:, None]).ravel()
            expected = np.sort(images[(a <= images) & (images <= b)])
            found = find_real_zeros(m, (a, b))
            assert [mult for _, mult in found] == [1] * expected.size, (c, a, b)
            assert np.allclose([x for x, _ in found], expected, rtol=0.0, atol=1e-9), (c, a, b)
            checked += 1
        assert checked >= 300

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

    @pytest.mark.parametrize("panels", [1, 64])
    def test_batched_bracket_matches_the_sequential_search(self, panels, monkeypatch):
        # F(0) = 0.999 puts y* near -1000, ten doublings past y = -1: the four
        # first probes in one call, and the rest one at a time, must hand Newton
        # the bracket and start of the search that probes one y per call
        m = _triangle(panels, -0.001)
        y_hi, g_hi, y_lo = 0.0, m.total_mass, -1.0
        while (g_lo := zeros_module._target(m, "F", complex(0.0, y_lo), 0)[0][0].real) >= 0.0:
            y_hi, g_hi, y_lo = y_lo, g_lo, 2.0 * y_lo
        assert y_lo < -16.0
        y0 = y_lo + (y_hi - y_lo) * g_lo / (g_lo - g_hi)

        def slope(y, _):
            f, fp = zeros_module._target(m, "F", 1j * y, 1)[0]
            return f.real, m.sigma * f.real - fp.imag, f

        newton = zeros_module._bracketed_newton
        brackets = []
        monkeypatch.setattr(
            zeros_module, "_bracketed_newton", lambda fn, *args: brackets.append(args) or newton(fn, *args)
        )
        y_star = zeros_module._imaginary_zero(m)
        assert brackets == [(y_lo, y_hi, y0, 1.0)]
        assert y_star == float(newton(slope, y_lo, y_hi, y0, 1.0)[0][0])

    def test_first_four_probes_share_one_call(self, monkeypatch):
        # the benchmark's triangles bracket y* = -1.59 between -1 and -2
        evaluator = zeros_module._grid_moments
        sizes = []
        monkeypatch.setattr(zeros_module, "_grid_moments", lambda m, z, k: sizes.append(np.size(z)) or evaluator(m, z, k))
        zeros_module._imaginary_zero(_triangle(64, -0.5))
        assert sizes[0] == 4 and sizes[1:] == [1] * (len(sizes) - 1)


def _dense_reflected_on_grid(measure):
    """(C >= 0, S >= 0) from every point of the hypothesis grid: the reference for `_reflected_on_grid`."""
    sig = measure.sigma
    grid = np.arange(1000) * (math.pi / (50.0 * sig))
    values = zeros_module._grid_moments(_reflected(measure), grid, 0)[0][0]
    slack = HYPOTHESIS_TOL * measure.total_variation
    return bool(np.min(values.real) >= -slack), bool(np.min(values[1:].imag) >= -slack)


def _scaled_triangle(sigma: float, panels: int, jump: float):
    """`_triangle` stretched to [0, sigma]: S = (1 - cos sigma x) / (sigma x) >= 0,
    with tangent zeros, and C = sin(sigma x) / (sigma x) + jump."""
    return from_pd_profile([sigma * i / panels for i in range(panels + 1)], [1.0 - i / panels for i in range(panels + 1)], jump)


def _hypothesis_cases():
    rng = np.random.default_rng(16)
    cases = []
    for sig in (0.5, 1.0, 2.0, 3.0):
        # C = 1 + e + cos(sigma x): failing, tangent to 0, passing
        cases += [StieltjesMeasure(sig, ((0.0, 1.0), (sig, 1.0 + e))) for e in (-0.1, 0.0, 0.1)]
        for _ in range(4):
            n = int(rng.integers(1, 5))
            locs = np.sort(rng.choice(np.linspace(0.0, sig, 17), size=n, replace=False))
            cases.append(StieltjesMeasure(sig, tuple(zip(locs, rng.uniform(-3.0, 3.0, size=n)))))
        cases += [_scaled_triangle(sig, p, jump) for p in (1, 2, 7, 16, 64) for jump in (-0.5, 0.25)]
        for _ in range(4):
            k = int(rng.integers(1, 5))
            density = PiecewiseLinearDensity.interpolant(np.linspace(0.0, sig, k + 1), rng.uniform(-0.5, 1.5, k + 1))
            atoms = ((sig, float(rng.uniform(-1.0, 1.0))),) if rng.integers(2) else ()
            cases.append(StieltjesMeasure(sig, atoms, density))
        # g = 1: S = (1 - cos sigma x) / x, tangent to 0, and C fails
        cases.append(StieltjesMeasure(sig, (), PiecewiseLinearDensity.interpolant([0.0, sig], [1.0, 1.0])))
    cases += [from_fejer(m, lam, delta) for m in (1, 2, 3) for lam, delta in ((1.0, 1.0), (0.5, 2.0))]
    cases += [cases[2].scaled(1e300), _scaled_triangle(2.0, 16, 0.25).scaled(1e-300)]
    return cases


class TestHypothesisGrid:
    def test_matches_every_point_of_the_grid(self):
        verdicts = set()
        for m in _hypothesis_cases():
            expected = _dense_reflected_on_grid(m)
            assert zeros_module._reflected_on_grid(m) == expected, m
            assert zeros_module.s_nonneg_on_grid(m) == expected[1], m
            verdicts.add(expected)
        assert verdicts == {(False, False), (False, True), (True, False), (True, True)}

    def test_the_grid_has_1000_points_for_every_sigma(self, monkeypatch):
        # np.arange(0, 20 pi / sigma, check_step) had 1001 points for about a
        # quarter of sigma, by rounding; the grid is k check_step, k < 1000
        evaluator = zeros_module._grid_moments
        points = []
        monkeypatch.setattr(zeros_module, "_grid_moments", lambda m, z, k: points.append(z) or evaluator(m, z, k))
        for sig in np.random.default_rng(25).uniform(0.01, 100.0, 200):
            m = StieltjesMeasure(float(sig), ((0.0, 1.0), (float(sig), 1.0)))
            points.clear()
            zeros_module._reflected_on_grid(m)
            assert np.max(np.concatenate(points)) == 999 * m.check_step

    def test_evaluates_a_fifth_of_the_grid_in_two_calls(self, monkeypatch):
        # the benchmark's triangle: 126 nodes, then the points near the tangent
        # zeros of S; C fails at a node and sends none
        evaluator = zeros_module._grid_moments
        sizes = []
        monkeypatch.setattr(zeros_module, "_grid_moments", lambda m, z, k: sizes.append(np.size(z)) or evaluator(m, z, k))
        m = _triangle(64, -0.5)
        assert zeros_module._reflected_on_grid(m) == (False, True)
        assert len(sizes) <= 2 and sum(sizes) <= 200

    @pytest.mark.parametrize("slope_too", [False, True], ids=["unsure_point", "nan_bound"])
    def test_a_nan_between_nodes_fails_the_check(self, slope_too, monkeypatch):
        # S of the triangle touches 0 at 2 pi, grid point 100, so the bound
        # leaves that point to the second call; at pi, grid point 50, S is
        # near 0.64 and the bound clears it, unless a NaN slope at node 48
        # makes the bound NaN.  Either NaN value must fail the check.
        m = _triangle(64, -0.5)
        step = math.pi / 50.0
        x0 = 50 * step if slope_too else 100 * step
        evaluator = zeros_module._grid_moments

        def poisoned(measure, z, order):
            T, E = evaluator(measure, z, order)
            T[:, z == x0] = complex(math.nan, math.nan)
            if slope_too:
                T[1:, z == 48 * step] = complex(math.nan, math.nan)
            return T, E

        monkeypatch.setattr(zeros_module, "_grid_moments", poisoned)
        assert _dense_reflected_on_grid(m) == (False, False)
        assert zeros_module._reflected_on_grid(m) == (False, False)


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

    @pytest.mark.parametrize(
        "m_count, verdict",
        [(4, "hb_bar_nontrivial"), (5, "hb"), (6, "hb_bar_nontrivial"), (7, "hb"), (8, "hb_bar_nontrivial")],
    )
    def test_fejer_at_large_sigma(self, m_count, verdict):
        # sigma = m_count: the default rectangle is about 10 sigma / pi wide in
        # units of the phase's turn, so its contours need the start in 1 / sigma
        m = from_fejer(m_count)
        rect = Rectangle(*zeros_module.DEFAULT_LOWER_RECT)
        assert [count_zeros(m, rect, target).count for target in ("F", "F'", "F''")] == [0, 0, 0]
        assert classify(m).verdict == verdict
        assert check_derivative_hb(m, 1).ok and check_derivative_hb(m, 2).ok

    @pytest.mark.parametrize("jump", [-0.9999, -0.99999, -0.999999, -0.9999999])
    def test_count_rectangle_reaches_up_to_the_lower_zero(self, jump):
        # y* between -2e-4 and -2e-7 lies above the default rectangle's top edge
        # at -1e-3; the count runs on the rectangle taken up to y* / 2
        m = _triangle(4, jump)
        y = find_imaginary_zero(m)
        assert DEFAULT_LOWER_RECT[3] < y < 0.0
        result = classify(m)
        assert result.verdict == "one_lower_zero" and result.lower_count == 1
        assert result.lower_zero == complex(0.0, y)

    def test_count_rectangle_reaches_down_to_the_lower_zero(self, triangle_case2):
        # y* = -1.594 lies below the rectangle, which holds no zero itself; the
        # count runs on the rectangle taken down to 1.5 y*
        rect = Rectangle(-20.0, 20.0, -1.0, -1e-3)
        assert count_zeros(triangle_case2, rect).count == 0
        result = classify(triangle_case2, rect)
        assert result.verdict == "one_lower_zero" and result.lower_count == 1
        assert result.lower_zero == pytest.approx(complex(0.0, -1.59362426004004), abs=1e-8)

    def test_hypothesis_violation_verdict(self, sign_breaking_atoms):
        result = classify(sign_breaking_atoms)
        assert result.verdict == "hypothesis_violated"
        assert not result.c_nonneg and not result.s_nonneg

    def test_monotone_density_is_hb(self, ramp_density):
        result = classify(ramp_density)
        assert result.verdict == "hb"
        assert result.real_zeros == ()

    def test_real_zeros_in_the_end_cells_break_hb(self, two_unit_atoms):
        # F(+-pi) = 0, 0.01 inside either end of the rectangle's x-range
        result = classify(two_unit_atoms, Rectangle(-math.pi - 0.01, math.pi + 0.01, -6.0, -1e-3))
        assert result.verdict == "hb_bar_nontrivial"
        assert result.real_zeros == ((pytest.approx(-math.pi, abs=1e-14), 1), (pytest.approx(math.pi, abs=1e-14), 1))


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

    def test_lower_zeros_of_the_derivative(self):
        # F = (w - 1)(w - 2) with w = e^{iz}: F' = i w (2 w - 3) vanishes at
        # -i ln(3/2) + 2 pi j, seven times for |Re z| < 20
        m = StieltjesMeasure(2.0, ((0.0, 2.0), (1.0, -3.0), (2.0, 1.0)))
        report = check_derivative_hb(m, 1)
        assert not report.ok and report.lower_count == 7
        assert report.note == "lower-half-plane zeros found"

    def test_zero_in_an_end_cell(self):
        # F' = i e^{ix} (1 + e^{ix}) vanishes at pi, 0.01 inside the left end
        m = StieltjesMeasure(2.0, ((1.0, 1.0), (2.0, 0.5)))
        report = check_derivative_hb(m, 1, Rectangle(-20.0, 20.0, -6.0, -1e-3), (math.pi - 0.01, 9.0))
        assert not report.ok and report.lower_count == 0
        assert report.real_min <= 1e-15 and report.real_argmin == pytest.approx(math.pi, abs=1e-14)

    def test_no_evaluator_call_without_a_candidate(self, ramp_density, monkeypatch):
        # |F'| stays far above the floor: one contour probe, which needs no
        # refinement round, and the scan
        evaluator = zeros_module._grid_moments
        calls = []

        def counted(*args):
            calls.append(1)
            return evaluator(*args)

        monkeypatch.setattr(zeros_module, "_grid_moments", counted)
        assert check_derivative_hb(ramp_density, 1, Rectangle(-20.0, 20.0, -6.0, -1e-3)).ok
        assert len(calls) == 2

    @pytest.mark.parametrize("interval", [(5.0, 1.0), (2.0, 2.0), (0.0, math.inf), (math.nan, 1.0)])
    @pytest.mark.parametrize("atoms", [((0.0, 1.0), (1.0, 1.0)), ()], ids=["two_unit_atoms", "zero_measure"])
    def test_refuses_an_interval_that_is_not_finite_and_ordered(self, atoms, interval):
        m = StieltjesMeasure(1.0, atoms)
        with pytest.raises(ValueError, match="finite with a < b"):
            find_real_zeros(m, interval)
        with pytest.raises(ValueError, match="finite with a < b"):
            check_derivative_hb(m, 1, LOWER, interval)

    @pytest.mark.parametrize("interval", [(0.0, 1e6), (-1e308, 1e308)], ids=["over", "overflowing"])
    @pytest.mark.usefixtures("no_large_linspace")
    def test_refuses_a_scan_over_the_budget_before_allocating(self, two_unit_atoms, interval):
        with pytest.raises(ValueError, match="over the budget"):
            find_real_zeros(two_unit_atoms, interval)
        with pytest.raises(ValueError, match="over the budget"):
            check_derivative_hb(two_unit_atoms, 1, LOWER, interval)


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
