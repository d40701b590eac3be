import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hbfourier
from hbfourier.inequality import OmegaConfig
from hbfourier.measure import (
    MASS_TOL,
    PiecewiseLinearDensity,
    ScenarioError,
    StieltjesMeasure,
    _beta,
    from_fejer,
    from_monomial_density,
    from_pd_profile,
    mass_summary,
    parse_scenario,
)
from hbfourier.transforms import eval_E, eval_F, real_transforms
from hbfourier.zeros import Rectangle, count_zeros

from .strategies import atomic_measures, measures_with_density


class TestMassSummary:
    def test_single_atom_at_endpoint(self):
        m = StieltjesMeasure(1.0, ((1.0, 2.0),))
        s = mass_summary(m)
        assert s.total_mass == 2.0
        assert s.left_limit_mass == 0.0
        assert s.jump_at_sigma == 2.0
        assert s.support_interval == (1.0, 1.0)

    def test_unit_density(self, unit_density):
        s = mass_summary(unit_density)
        assert s.total_mass == pytest.approx(1.0, abs=1e-15)
        assert s.left_limit_mass == pytest.approx(1.0, abs=1e-15)
        assert s.jump_at_sigma == 0.0
        assert s.support_interval == (0.0, 1.0)

    def test_two_atoms(self, two_unit_atoms):
        s = mass_summary(two_unit_atoms)
        assert s.total_mass == 2.0
        assert s.left_limit_mass == 1.0
        assert s.support_interval == (0.0, 1.0)

    def test_total_consistency(self):
        m = StieltjesMeasure(2.0, ((0.5, -1.0), (2.0, 0.25)))
        s = mass_summary(m)
        assert s.total_mass == pytest.approx(s.left_limit_mass + s.jump_at_sigma, abs=1e-15)


class TestValidation:
    def test_rejects_nonpositive_sigma(self):
        with pytest.raises(ValueError):
            StieltjesMeasure(0.0, ())

    def test_rejects_atom_outside_support(self):
        with pytest.raises(ValueError, match="outside support"):
            StieltjesMeasure(1.0, ((2.0, 1.0),))

    def test_rejects_duplicate_atoms(self):
        with pytest.raises(ValueError, match="one atom per location"):
            StieltjesMeasure(1.0, ((0.5, 1.0), (0.5, 2.0)))

    def test_drops_zero_jumps_and_sorts(self):
        m = StieltjesMeasure(1.0, ((0.9, 1.0), (0.1, 0.0), (0.2, -1.0)))
        assert [a.t for a in m.atoms] == [0.2, 0.9]

    def test_density_must_fit_support(self):
        dens = PiecewiseLinearDensity.interpolant([0.0, 2.0], [1.0, 1.0])
        with pytest.raises(ValueError, match="density nodes"):
            StieltjesMeasure(1.0, (), dens)


class TestFejer:
    def test_m2_atoms(self):
        m = from_fejer(2, 1.0, 1.0)
        assert m.sigma == 2.0
        assert [(a.t, a.c) for a in m.atoms] == [(1.0, 0.5), (2.0, 0.5)]

    def test_m1_single_atom(self):
        m = from_fejer(1, 1.0, 1.0)
        assert [(a.t, a.c) for a in m.atoms] == [(1.0, 0.5)]

    def test_cosine_component_nonnegative_on_grid(self):
        rng = np.random.default_rng(7)
        x = np.arange(0.0, 20.0 * math.pi, 0.01)
        for _ in range(8):
            m = from_fejer(int(rng.integers(1, 5)), float(rng.uniform(0.1, 1.0)), float(rng.uniform(1.0, 3.0)))
            c_vals = real_transforms(m, x, order=0).C
            assert c_vals.min() >= -1e-12 * m.total_variation

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            from_fejer(0)
        with pytest.raises(ValueError):
            from_fejer(2, lam=1.5)
        with pytest.raises(ValueError):
            from_fejer(2, delta=0.5)


class TestMonomialDensity:
    def test_flat_case(self):
        with pytest.warns(UserWarning):
            m = from_monomial_density(1.0, 1.0)
        assert m.total_mass == pytest.approx(1.0, abs=1e-12)
        assert m.density(0.5) == pytest.approx(1.0)

    def test_ramp_case(self):
        m = from_monomial_density(2.0, 1.0)
        assert m.total_mass == pytest.approx(0.5, abs=1e-12)
        assert m.density(0.25) == pytest.approx(0.25, abs=1e-12)

    def test_singular_mass_is_half_pi(self):
        m = from_monomial_density(1.0, 0.5)
        assert m.total_mass == pytest.approx(math.pi / 2.0, abs=1e-6)

    def test_beta_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(13)
        moderate = [(0.75, 0.8), (1.5, 2.0), (0.5, 0.5)] + [
            (float(a), float(b)) for a, b in zip(rng.uniform(0.5, 10.0, 200), rng.uniform(1e-3, 10.0, 200))
        ]
        large = [(100.0, 80.0), (0.5, 300.0), (150.0, 150.0)]  # past the range of Gamma
        with mpmath.workdps(30):
            for (a, b), tol in [(ab, 1e-14) for ab in moderate] + [(ab, 1e-12) for ab in large]:
                exact = mpmath.beta(a, b)
                assert abs(_beta(a, b) - exact) <= tol * exact, (a, b)

    @pytest.mark.parametrize("mu_exp,nu_exp", [(1.0, 0.5), (2.0, 0.5), (1.5, 0.8)])
    def test_moments_against_mpmath(self, mu_exp, nu_exp):
        # the steep panels next to t = 1 cancel in any global-coordinate form
        mpmath = pytest.importorskip("mpmath")
        m = from_monomial_density(mu_exp, nu_exp)
        with mpmath.workdps(40):
            for k in range(4):
                exact = mpmath.mpf(0)
                for t0, t1, v0, v1 in m.density.panels:
                    t0, t1, v0, v1 = map(mpmath.mpf, (t0, t1, v0, v1))
                    slope = (v1 - v0) / (t1 - t0)
                    exact += (v0 - slope * t0) * (t1 ** (k + 1) - t0 ** (k + 1)) / (k + 1)
                    exact += slope * (t1 ** (k + 2) - t0 ** (k + 2)) / (k + 2)
                assert abs(m.moment(k) - exact) <= 1e-14 * exact, k

    def test_builds_without_numpy_ma(self):
        # np.unique would import numpy.ma, 1.3 MB and 16-34 ms that nothing else
        # of the package needs; a fresh interpreter shows whether it was loaded
        src = str(Path(hbfourier.__file__).resolve().parent.parent)
        code = (
            "import sys\n"
            "from hbfourier.measure import from_monomial_density\n"
            "from_monomial_density(1.5, 0.8)\n"
            "from_monomial_density(3.0, 2.0)\n"
            "print('numpy.ma' in sys.modules)\n"
        )
        env = dict(os.environ, PYTHONPATH=src)
        done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "False"

    def test_rejects_bad_exponents(self):
        with pytest.raises(ValueError):
            from_monomial_density(0.5, 0.5)
        with pytest.raises(ValueError):
            from_monomial_density(1.0, 0.0)


class TestPdProfile:
    def test_triangle_with_negative_jump(self):
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], -0.5)
        assert m.total_mass == pytest.approx(0.5, abs=1e-15)
        assert m.left_limit_mass == pytest.approx(1.0, abs=1e-15)

    def test_zero_profile_gives_single_atom(self):
        m = from_pd_profile([0.0, 1.0], [0.0, 0.0], 0.7)
        assert m.density is None
        assert [(a.t, a.c) for a in m.atoms] == [(1.0, 0.7)]

    def test_triangle_without_jump(self):
        m = from_pd_profile([0.0, 1.0], [1.0, 0.0], 0.0)
        assert m.total_mass == pytest.approx(1.0, abs=1e-15)

    def test_rejects_profile_not_vanishing(self):
        with pytest.raises(ValueError, match="vanish"):
            from_pd_profile([0.0, 1.0], [1.0, 0.5], 0.0)


class TestScenario:
    def test_two_atoms(self):
        doc = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 1.0}, {"t": 1.0, "c": 1.0}]}
        m, task = parse_scenario(json.dumps(doc))
        assert len(m.atoms) == 2
        assert m.sigma == 1.0
        assert task is None

    def test_atom_outside_support(self):
        doc = {"sigma": 1.0, "atoms": [{"t": 2.0, "c": 1.0}]}
        with pytest.raises(ScenarioError, match="outside support"):
            parse_scenario(json.dumps(doc))

    def test_density_interpolant(self):
        doc = {"sigma": 1.0, "density": {"nodes": [0.0, 0.5, 1.0], "values": [0.0, 0.5, 1.0]}}
        m, _ = parse_scenario(json.dumps(doc))
        assert m.density(0.25) == pytest.approx(0.25)

    def test_unknown_fields_rejected(self):
        with pytest.raises(ScenarioError, match="unknown fields"):
            parse_scenario(json.dumps({"sigma": 1.0, "bogus": 1}))
        with pytest.raises(ScenarioError, match="unknown fields"):
            parse_scenario(json.dumps({"sigma": 1.0, "atoms": [{"t": 0.0, "c": 1.0, "x": 2}]}))

    def test_integer_beyond_float_range_refused(self):
        # float() of such an integer raises OverflowError, not a scenario error
        with pytest.raises(ScenarioError, match="sigma: must be finite"):
            parse_scenario(json.dumps({"sigma": 10**400}))

    def test_bad_json_reports_location(self):
        with pytest.raises(ScenarioError, match="line 1"):
            parse_scenario("{bad json")

    def test_task_passthrough(self):
        doc = {"sigma": 1.0, "atoms": [{"t": 1.0, "c": 2.0}], "task": {"command": "ineq"}}
        _, task = parse_scenario(json.dumps(doc))
        assert task == {"command": "ineq"}


class TestVanishesAtZero:
    @pytest.mark.parametrize("ratio, accepted", [(0.5, True), (2.0, False)])
    @pytest.mark.parametrize("entry", ["OmegaConfig", "eval_E", "count_zeros"])
    def test_entry_points_agree_at_the_edge(self, ratio, accepted, entry):
        # |F(0)| = ratio * MASS_TOL * V with V about 4, so a slack
        # without the scale would refuse ratio 0.5 as well
        m = StieltjesMeasure(1.0, ((0.25, 2.0), (0.75, 4.0 * ratio * MASS_TOL - 2.0)))
        assert abs(m.total_mass) / (MASS_TOL * m.total_variation) == pytest.approx(ratio, rel=1e-3)
        calls = {
            "OmegaConfig": lambda: OmegaConfig(m, -1, -math.pi / 2),
            "eval_E": lambda: eval_E(m, -math.pi / 2, -1, 0.0),
            "count_zeros": lambda: count_zeros(m, Rectangle(-5.0, 5.0, -3.0, -0.5), "F/z"),
        }
        if accepted:
            calls[entry]()
        else:
            with pytest.raises(ValueError, match=r"F\(0\) = 0"):
                calls[entry]()


class TestProperties:
    @given(measures_with_density())
    @settings(max_examples=40, deadline=None)
    def test_total_mass_equals_transform_at_zero(self, m):
        f0 = eval_F(m, np.array([0.0]))[0]
        assert abs(f0.real - m.total_mass) <= 1e-12 * max(1.0, m.total_variation)
        assert abs(f0.imag) <= 1e-12 * max(1.0, m.total_variation)

    @given(atomic_measures(), st.sampled_from([0.5, 2.0, 8.0]))
    @settings(max_examples=40, deadline=None)
    def test_scaling_is_exact_for_binary_factors(self, m, lam):
        scaled = m.scaled(lam)
        assert scaled.total_mass == lam * m.total_mass
        assert scaled.left_limit_mass == lam * m.left_limit_mass

    @given(st.floats(0.1, 3.0), st.floats(-1.0, 1.0))
    @settings(max_examples=25, deadline=None)
    def test_pd_profile_roundtrip(self, peak, jump):
        m = from_pd_profile([0.0, 0.4, 1.0], [peak, peak * 0.25, 0.0], jump)
        s = mass_summary(m)
        assert s.left_limit_mass == pytest.approx(peak, abs=1e-13)
        assert s.jump_at_sigma == pytest.approx(jump if jump != 0.0 else 0.0, abs=1e-15)


class TestDensityRepresentation:
    def test_step_density_jumps(self):
        g = PiecewiseLinearDensity.step([0.0, 0.5, 1.0], [1.0, 2.0])
        assert g(0.25) == 1.0
        assert g(0.75) == 2.0
        assert g.mass() == pytest.approx(1.5)
        assert not g.is_continuous

    def test_abs_mass_with_sign_change(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 1.0], [-1.0, 1.0])
        assert g.abs_mass() == pytest.approx(0.5)
        assert g.mass() == pytest.approx(0.0)

    def test_cumulative_matches_quadrature(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 0.3, 1.0], [0.2, 1.0, 0.4])
        xs = np.linspace(0.0, 1.0, 11)
        fine = np.linspace(0.0, 1.0, 200001)
        vals = g(fine)
        for x in xs:
            direct = np.trapezoid(vals[fine <= x], fine[fine <= x])
            assert g.cumulative(x) == pytest.approx(direct, abs=5e-6)

    def test_reflected_density(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 0.25, 1.0], [0.0, 1.0, 0.5])
        r = g.reflected(1.0)
        ts = np.linspace(0.0, 1.0, 37)
        assert np.allclose(r(ts), g(1.0 - ts))


class TestExactSums:
    @pytest.mark.parametrize("mu, nu", [(1.5, 0.8), (3.0, 2.0), (2.0, 0.5)])
    def test_masses_are_exact_sums_rounded_once(self, mu, nu):
        g = from_monomial_density(mu, nu).density
        masses = [(v0 + v1) * 0.5 * (t1 - t0) for t0, t1, v0, v1 in g.panels]
        assert g.mass() == math.fsum(masses)
        cum = g.cumulative(np.array(g.nodes))
        assert cum.tolist() == [math.fsum(masses[:i]) for i in range(len(g.nodes))]
        assert g.cumulative(g.nodes[-1]) == g.mass()

    def test_total_mass_is_one_exact_sum(self):
        g = PiecewiseLinearDensity.interpolant([0.0, 0.3, 0.5, 1.0], [1.0, -0.4, 0.8, 0.2])
        m = StieltjesMeasure(1.0, ((0.0, 0.1), (0.5, 1e16), (1.0, -1e16)), g)
        assert m.total_mass == math.fsum([0.1, 1e16, -1e16, g.mass()])

    def test_variation_counts_every_jump(self):
        # g on the line: from 0 up to 1 and back to 0 at the ends, 1.4 + 1.2 + 0.6 within
        assert PiecewiseLinearDensity.interpolant([0.0, 0.3, 0.5, 1.0], [1.0, -0.4, 0.8, 0.2]).variation() == pytest.approx(4.4)
        # a step: 1 and 2 at the ends, 3 at the jump between its panels
        assert PiecewiseLinearDensity.step([0.0, 0.5, 1.0], [1.0, -2.0]).variation() == 6.0


class TestCachedAggregates:
    def test_panel_sums_run_once_and_match_a_fresh_sum(self, monkeypatch):
        calls = {"mass": 0, "abs_mass": 0}
        for name in calls:
            original = getattr(PiecewiseLinearDensity, name)

            def counted(self, original=original, name=name):
                calls[name] += 1
                return original(self)

            monkeypatch.setattr(PiecewiseLinearDensity, name, counted)
        dens = PiecewiseLinearDensity.interpolant([0.0, 0.3, 0.5, 1.0], [1.0, -0.4, 0.8, 0.2])
        m = StieltjesMeasure(1.0, ((0.0, 0.7), (1.0, -0.25)), dens)
        reads = [(m.total_mass, m.total_variation, m.left_limit_mass, m.bound()) for _ in range(4)]
        m.vanishes_at_zero, mass_summary(m)
        assert calls == {"mass": 1, "abs_mass": 1}
        assert len(set(reads)) == 1
        fresh_mass = float(0.7 - 0.25 + PiecewiseLinearDensity.mass(dens))
        fresh_variation = float(0.7 + 0.25 + PiecewiseLinearDensity.abs_mass(dens))
        assert reads[0][:2] == (fresh_mass, fresh_variation)
        assert reads[0][2:] == (fresh_mass - (-0.25), fresh_variation)

    def test_cached_measure_still_equals_and_hashes_like_a_fresh_one(self):
        cached = from_monomial_density(1.5, 0.8)
        fresh = StieltjesMeasure(cached.sigma, cached.atoms, cached.density)
        cached.total_mass, cached.total_variation
        assert "total_variation" in vars(cached) and "total_variation" not in vars(fresh)
        assert cached == fresh and fresh == cached
        assert hash(cached) == hash(fresh)
        assert len({cached, fresh}) == 1

    def test_equal_densities_hash_equal(self):
        a = PiecewiseLinearDensity.interpolant([0.0, 0.3, 1.0], [1.0, -0.4, 0.2])
        b = PiecewiseLinearDensity((0, 0.3, 1), (1, -0.4), (-0.4, 0.2))
        c = PiecewiseLinearDensity.interpolant([0.0, 0.3, 1.0], [1.0, -0.4, 0.25])
        assert a == b and hash(a) == hash(b) == hash((a.nodes, a.left, a.right))
        assert a != c and len({a, b, c}) == 2
        assert "_hash" not in repr(a)

    def test_lookups_do_not_rehash_the_nodes(self):
        # the evaluator keeps what it derives on the density itself, so no call
        # hashes the density, its nodes or its values
        hashed = []

        class Counted(tuple):
            def __hash__(self):
                hashed.append(len(self))
                return super().__hash__()

        dens = PiecewiseLinearDensity.interpolant(np.linspace(0.0, 1.0, 65), np.linspace(1.0, 0.0, 65))
        for name in ("nodes", "left", "right"):
            object.__setattr__(dens, name, Counted(getattr(dens, name)))
        m = StieltjesMeasure(1.0, (), dens)
        for _ in range(2):
            eval_F(m, np.array([0.5, 30.0, 200.0]))
            eval_E(m, 0.0, 0, 3.0)
        assert hashed == []
