"""Real Stieltjes measures on [0, sigma]: atoms plus a piecewise-linear density.

The measure is the single data source for every transform in the package.  It
is immutable after construction, so instances can be shared freely between
concurrent evaluators.  Distribution-function values follow the left-continuous
convention: an atom at t contributes to mu(s) only for s > t.
"""

from __future__ import annotations

import functools
import json
import math
import sys
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

#: slack of F(0) = 0 and the other mass comparisons, times the total variation V,
#: which bounds every mass
MASS_TOL = 1e-12
#: slack of the grid hypotheses E, C, S >= 0, times the scale of each: V, which bounds
#: |C| and |S|, and sigma^-n V for E, which carries x^n; their grids are spaced
#: `StieltjesMeasure.check_step`
HYPOTHESIS_TOL = 1e-9


class ScenarioError(ValueError):
    """Malformed scenario document.  `field` names the offending entry."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message if field is None else f"{field}: {message}")
        self.field = field


class Atom(NamedTuple):
    t: float
    c: float


def _exact_running_sums(values) -> list:
    """[fsum(values[:1]), fsum(values[:2]), ...]: Shewchuk's partials of the
    running sum, which add up to it exactly, updated per value and rounded once."""
    partials, out = [], []
    for x in values:
        i = 0
        for y in partials:
            if abs(x) < abs(y):
                x, y = y, x
            hi = x + y
            lo = y - (hi - x)
            if lo:
                partials[i] = lo
                i += 1
            x = hi
        partials[i:] = [x]
        out.append(math.fsum(partials))
    return out


@dataclass(frozen=True)
class PiecewiseLinearDensity:
    """Piecewise-linear density, zero outside [nodes[0], nodes[-1]].

    The density is stored per panel (value at the panel start and at the panel
    end) so that jump discontinuities at breakpoints are represented exactly.
    A continuous interpolant in the classic (nodes, values) form is built with
    `interpolant`; a pure step function with `step`.
    """

    nodes: tuple
    left: tuple
    right: tuple

    def __post_init__(self):
        nodes = tuple(float(t) for t in self.nodes)
        left = tuple(float(v) for v in self.left)
        right = tuple(float(v) for v in self.right)
        if len(nodes) < 2:
            raise ValueError("density needs at least 2 nodes")
        if len(left) != len(nodes) - 1 or len(right) != len(nodes) - 1:
            raise ValueError("need one (left, right) value pair per panel")
        if any(not math.isfinite(v) for v in nodes + left + right):
            raise ValueError("density nodes and values must be finite")
        if any(b <= a for a, b in zip(nodes, nodes[1:])):
            raise ValueError("density nodes must be strictly increasing")
        for t0, t1, v0, v1 in zip(nodes, nodes[1:], left, right):
            if not math.isfinite((v1 - v0) / (t1 - t0)):
                raise ValueError("panel too narrow for its value change (slope overflows)")
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "left", left)
        object.__setattr__(self, "right", right)

    @classmethod
    def interpolant(cls, nodes: Sequence[float], values: Sequence[float]) -> "PiecewiseLinearDensity":
        """Continuous piecewise-linear interpolant of (nodes, values)."""
        nodes = tuple(float(t) for t in nodes)
        values = tuple(float(v) for v in values)
        if len(values) != len(nodes):
            raise ValueError("need one value per node")
        return cls(nodes, values[:-1], values[1:])

    @classmethod
    def step(cls, nodes: Sequence[float], levels: Sequence[float]) -> "PiecewiseLinearDensity":
        """Piecewise-constant density: levels[i] on (nodes[i], nodes[i+1])."""
        nodes = tuple(float(t) for t in nodes)
        levels = tuple(float(v) for v in levels)
        if len(levels) != len(nodes) - 1:
            raise ValueError("need one level per panel")
        return cls(nodes, levels, levels)

    @property
    def panels(self):
        """Iterate (t0, t1, v0, v1) over panels."""
        return list(zip(self.nodes[:-1], self.nodes[1:], self.left, self.right))

    @property
    def is_continuous(self) -> bool:
        return all(abs(r - l2) == 0.0 for r, l2 in zip(self.right[:-1], self.left[1:]))

    def _panel_of(self, t):
        """(index, t0, t1, v0, v1) of the panel holding each t; the first or last panel outside the nodes."""
        nodes = np.asarray(self.nodes)
        idx = np.clip(np.searchsorted(nodes, t, side="right") - 1, 0, len(nodes) - 2)
        return idx, nodes[idx], nodes[idx + 1], np.asarray(self.left)[idx], np.asarray(self.right)[idx]

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        _, t0, t1, v0, v1 = self._panel_of(t)
        inside = (t >= self.nodes[0]) & (t <= self.nodes[-1])
        out = np.where(inside, v0 + (v1 - v0) * ((t - t0) / (t1 - t0)), 0.0)
        return out if out.ndim else float(out)

    def _panel_masses(self) -> list:
        return [(v0 + v1) * 0.5 * (t1 - t0) for t0, t1, v0, v1 in self.panels]

    def mass(self) -> float:
        """int g, the panel masses summed exactly and rounded once."""
        return math.fsum(self._panel_masses())

    def variation(self) -> float:
        """Total variation of g on the real line: its jumps from and to 0 at the
        ends, the jumps between panels and the rise or fall within each panel."""
        ends = [abs(self.left[0]), abs(self.right[-1])]
        inner = [abs(b - a) for a, b in zip(self.right[:-1], self.left[1:])]
        return math.fsum(ends + inner + [abs(v1 - v0) for v0, v1 in zip(self.left, self.right)])

    def abs_mass(self) -> float:
        """Exact integral of |g|; used as the density's variation contribution."""
        total = 0.0
        for t0, t1, v0, v1 in self.panels:
            w = t1 - t0
            if v0 * v1 >= 0.0:
                total += abs(v0 + v1) * 0.5 * w
            else:
                # linear sign change inside the panel
                theta = v0 / (v0 - v1)
                total += 0.5 * w * (theta * abs(v0) + (1.0 - theta) * abs(v1))
        return total

    def cumulative(self, s):
        """Vectorized int_0^s g(u) du for s within [0, nodes[-1]].

        The masses before each panel are running sums kept exact, as the
        partials of `math.fsum`, and rounded once, so each equals `math.fsum`
        of its panels and cumulative(nodes[-1]) == mass().
        """
        s = np.asarray(s, dtype=float)
        cum = np.array([0.0] + _exact_running_sums(self._panel_masses()))
        idx, t0, t1, v0, v1 = self._panel_of(s)
        u = np.clip(s - t0, 0.0, t1 - t0)
        slope = (v1 - v0) / (t1 - t0)
        partial = v0 * u + 0.5 * slope * u * u
        out = np.where(s <= self.nodes[0], 0.0, np.where(s >= self.nodes[-1], cum[-1], cum[idx] + partial))
        return out if out.ndim else float(out)

    def support(self) -> tuple[float, float] | None:
        """Endpoints of the smallest interval outside which g vanishes identically."""
        live = [(t0, t1) for t0, t1, v0, v1 in self.panels if v0 != 0.0 or v1 != 0.0]
        if not live:
            return None
        return live[0][0], live[-1][1]

    def reflected(self, sigma: float) -> "PiecewiseLinearDensity | None":
        """Density of t -> g(sigma - t).

        Panels whose width collapses below one ulp of sigma after the
        subtraction are dropped (they carry no mass); None is returned if
        nothing survives.
        """
        panels = [
            (sigma - t1, sigma - t0, v1, v0)
            for t0, t1, v0, v1 in reversed(self.panels)
        ]
        panels = [p for p in panels if p[1] > p[0]]
        if not panels:
            return None
        nodes = (panels[0][0],) + tuple(p[1] for p in panels)
        return PiecewiseLinearDensity(nodes, tuple(p[2] for p in panels), tuple(p[3] for p in panels))

    def scaled(self, factor: float) -> "PiecewiseLinearDensity":
        return PiecewiseLinearDensity(
            self.nodes,
            tuple(factor * v for v in self.left),
            tuple(factor * v for v in self.right),
        )


@dataclass(frozen=True)
class StieltjesMeasure:
    """Real measure on [0, sigma]: atomic jumps plus an optional density."""

    sigma: float
    atoms: tuple = ()
    density: PiecewiseLinearDensity | None = None

    def __post_init__(self):
        sigma = float(self.sigma)
        if not (math.isfinite(sigma) and sigma > 0.0):
            raise ValueError("sigma must be positive and finite")
        atoms = tuple(Atom(float(t), float(c)) for t, c in self.atoms)
        atoms = tuple(a for a in atoms if a.c != 0.0)
        atoms = tuple(sorted(atoms, key=lambda a: a.t))
        for a in atoms:
            if not (math.isfinite(a.t) and math.isfinite(a.c)):
                raise ValueError("atom data must be finite")
            if a.t < 0.0 or a.t > sigma:
                raise ValueError("atom outside support [0, sigma]")
        for a, b in zip(atoms, atoms[1:]):
            if a.t == b.t:
                raise ValueError("at most one atom per location")
        if self.density is not None:
            if self.density.nodes[0] < 0.0 or self.density.nodes[-1] > sigma:
                raise ValueError("density nodes outside [0, sigma]")
        object.__setattr__(self, "sigma", sigma)
        object.__setattr__(self, "atoms", atoms)

    # -- aggregate quantities -------------------------------------------------
    # the measure is frozen, so the two panel sums are computed on first read

    @functools.cached_property
    def total_mass(self) -> float:
        """The atoms' jumps and the density's mass, summed exactly and rounded once."""
        density = [self.density.mass()] if self.density is not None else []
        return math.fsum([c for _, c in self.atoms] + density)

    @property
    def jump_at_sigma(self) -> float:
        for t, c in self.atoms:
            if t == self.sigma:
                return c
        return 0.0

    @property
    def jump_at_zero(self) -> float:
        for t, c in self.atoms:
            if t == 0.0:
                return c
        return 0.0

    @property
    def left_limit_mass(self) -> float:
        return self.total_mass - self.jump_at_sigma

    @functools.cached_property
    def total_variation(self) -> float:
        v = sum(abs(c) for _, c in self.atoms)
        if self.density is not None:
            v += self.density.abs_mass()
        return float(v)

    @property
    def check_step(self) -> float:
        """pi / (50 sigma), the step of every default check grid: 100 points per period of e^{i sigma x}."""
        return math.pi / (50.0 * self.sigma)

    def bound(self, k: int = 0) -> float:
        """sigma^k V, V the total variation: the bound of |F^(k)| on the real axis.

        |F^(k)(x)| = |int (it)^k e^{itx} dmu(t)| <= int t^k |dmu| <= sigma^k V.
        Every acceptance threshold of the package is a constant times the
        bound of its quantity, so no verdict changes when mu is scaled by a
        power of 2, or t by one power of 2 and x by its inverse.
        """
        return self.sigma**k * self.total_variation

    @property
    def vanishes_at_zero(self) -> bool:
        """F(0) = 0: |total mass| <= MASS_TOL * V."""
        return abs(self.total_mass) <= MASS_TOL * self.total_variation

    @property
    def is_zero(self) -> bool:
        return not self.atoms and (self.density is None or self.density.support() is None)

    def moment(self, k: int) -> float:
        """Exact int t^k dmu(t).

        On a panel, t^k is expanded about the panel's start t0, so no
        difference of large powers of t cancels; the terms are summed exactly.
        """
        atoms, panels = self._moment_terms(k)
        return math.fsum(atoms + panels.ravel().tolist())

    def _moment_terms(self, k: int):
        """(atom terms, panel terms) of `moment(k)`; row j of the panel terms
        holds C(k, j) t0^(k-j) int_0^w u^j (v0 + slope u) du, panel by panel."""
        atoms = [c * t**k for t, c in self.atoms]
        if self.density is None:
            return atoms, np.zeros((0, 0))
        dens = self.density
        t0, w, v0 = np.array(dens.nodes[:-1]), np.diff(dens.nodes), np.array(dens.left)
        slope = (np.array(dens.right) - v0) / w
        parts = [
            math.comb(k, j) * t0 ** (k - j) * (v0 * w ** (j + 1) / (j + 1) + slope * w ** (j + 2) / (j + 2))
            for j in range(k + 1)
        ]
        return atoms, np.array(parts)

    def reflected(self) -> "StieltjesMeasure":
        """Measure nu with nu-transforms equal to the reflected transforms of mu.

        Atoms move to sigma - t with the same jump; the density becomes
        t -> g(sigma - t).  Used to evaluate the C and S components.  Distinct
        locations may collide after the subtraction when they differ by less
        than one ulp of sigma; such jumps are merged.
        """
        merged: dict[float, float] = {}
        for t, c in self.atoms:
            loc = self.sigma - t
            merged[loc] = merged.get(loc, 0.0) + c
        atoms = tuple(Atom(t, c) for t, c in sorted(merged.items()) if c != 0.0)
        density = self.density.reflected(self.sigma) if self.density is not None else None
        return StieltjesMeasure(self.sigma, atoms, density)

    def scaled(self, factor: float) -> "StieltjesMeasure":
        atoms = tuple(Atom(t, factor * c) for t, c in self.atoms)
        density = self.density.scaled(factor) if self.density is not None else None
        return StieltjesMeasure(self.sigma, atoms, density)

    def plateau_interval(self) -> tuple[float, float]:
        """(a1, b1): support interval after trimming constancy plateaus.

        a1 is the largest tau with mu constant on [0, tau]; b1 the smallest tau
        with mu constant on (tau, sigma].  For the zero measure the interval is
        undefined and (0, 0) is returned by convention.
        """
        starts = [t for t, _ in self.atoms]
        ends = list(starts)
        if self.density is not None:
            sup = self.density.support()
            if sup is not None:
                starts.append(sup[0])
                ends.append(sup[1])
        if not starts:
            return (0.0, 0.0)
        return (min(starts), max(ends))


@dataclass(frozen=True)
class MassSummary:
    total_mass: float
    left_limit_mass: float
    jump_at_sigma: float
    support_interval: tuple


def mass_summary(m: StieltjesMeasure) -> MassSummary:
    """Total mass, left-limit mass, jump at sigma, and the trimmed support."""
    return MassSummary(
        total_mass=m.total_mass,
        left_limit_mass=m.left_limit_mass,
        jump_at_sigma=m.jump_at_sigma,
        support_interval=m.plateau_interval(),
    )


# -- constructors for the example families ------------------------------------


def fejer_profile(x, m_count: int, lam: float, delta: float):
    """(1 - (|x|/m)^lam)_+^delta, the canonical compactly supported p.d. profile."""
    x = np.asarray(x, dtype=float)
    base = 1.0 - (np.abs(x) / m_count) ** lam
    out = np.where(base > 0.0, np.maximum(base, 0.0) ** delta, 0.0)
    return out if out.ndim else float(out)


def from_fejer(m_count: int, lam: float = 1.0, delta: float = 1.0) -> StieltjesMeasure:
    """Atomic measure with jumps sampled from the Fejer-type profile.

    sigma = m_count, atoms at integer locations k with jumps f(m - k) for
    k < m and f(0)/2 at k = m; zero jumps are dropped.  The resulting cosine
    component C is a nonnegative cosine polynomial.
    """
    if m_count < 1 or int(m_count) != m_count:
        raise ValueError("m_count must be a positive integer")
    if not (0.0 < lam <= 1.0):
        raise ValueError("lam must be in (0, 1]")
    if delta < 1.0:
        raise ValueError("delta must be >= 1")
    m_count = int(m_count)
    atoms = []
    for k in range(m_count + 1):
        c = fejer_profile(m_count - k, m_count, lam, delta)
        if k == m_count:
            c = fejer_profile(0, m_count, lam, delta) / 2.0
        if c != 0.0:
            atoms.append((float(k), float(c)))
    return StieltjesMeasure(float(m_count), tuple(atoms))


def _monomial_g(t, mu_exp: float, nu_exp: float):
    t = np.asarray(t, dtype=float)
    out = np.power(t, mu_exp - 1.0) * np.power(np.maximum(1.0 - t * t, 0.0), nu_exp - 1.0)
    return out


def _beta(a: float, b: float) -> float:
    """Euler's beta function B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) for a, b > 0."""
    if a + b < 170.0:  # Gamma stays finite below 171.6
        return math.gamma(b) / math.gamma(a + b) * math.gamma(a)
    return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))


def from_monomial_density(mu_exp: float, nu_exp: float) -> StieltjesMeasure:
    """Piecewise-linear approximation of g(t) = t^(mu-1) (1-t^2)^(nu-1) on [0, 1].

    The grid is graded cubically toward 0 and geometrically toward the t = 1
    endpoint, where the density is unbounded for nu < 1.  The final panel is
    adjusted so the total mass matches the closed-form value (a beta-function
    value) to within 1e-6.
    """
    if nu_exp <= 0.0:
        raise ValueError("nu_exp must be positive")
    if mu_exp < 1.0:
        raise ValueError("mu_exp must be >= 1")
    if (mu_exp, nu_exp) == (1.0, 1.0):
        warnings.warn("(mu, nu) == (1, 1) is the flat edge case excluded from the strict-positivity family")
        dens = PiecewiseLinearDensity.interpolant((0.0, 1.0), (1.0, 1.0))
        return StieltjesMeasure(1.0, (), dens)
    if nu_exp == 1.0 and mu_exp == 2.0:
        dens = PiecewiseLinearDensity.interpolant((0.0, 1.0), (0.0, 1.0))
        return StieltjesMeasure(1.0, (), dens)

    target = 0.5 * _beta(mu_exp / 2.0, nu_exp)
    singular = nu_exp < 1.0
    eps = 1e-8
    n_half = 1024
    u = np.linspace(0.0, 1.0, n_half + 1)
    left_nodes = 0.5 * u**3
    if singular:
        right_nodes = 1.0 - 0.5 * (2.0 * eps) ** u
    else:
        right_nodes = 1.0 - 0.5 * u[::-1] ** 3
    # sorted and deduplicated; np.unique would import numpy.ma, which no other
    # part of the package needs
    nodes = np.sort(np.concatenate([left_nodes, right_nodes]))
    nodes = nodes[np.concatenate([[True], nodes[1:] > nodes[:-1]])]
    values = list(_monomial_g(nodes, mu_exp, nu_exp))
    nodes = list(nodes)
    if singular:
        # final panel [1 - eps, 1] absorbs the mass beyond the last sample
        dens = PiecewiseLinearDensity.interpolant(nodes, values)
        rest = target - dens.mass()
        nodes.append(1.0)
        values.append(max(2.0 * rest / eps - values[-1], 0.0))
    dens = PiecewiseLinearDensity.interpolant(nodes, values)
    # interpolation bias is a uniform relative shift of ~1e-5 at this grid;
    # rescale so the total mass matches the closed form exactly
    dens = dens.scaled(target / dens.mass())
    measure = StieltjesMeasure(1.0, (), dens)
    if abs(measure.total_mass - target) > 1e-6:
        raise RuntimeError("density grid failed to reach the 1e-6 mass tolerance")
    return measure


def from_pd_profile(nodes: Sequence[float], values: Sequence[float], jump_at_sigma: float) -> StieltjesMeasure:
    """Measure whose distribution is mu(t) = f(sigma - t) plus an atom at sigma.

    (nodes, values) give the even profile f on its nonnegative half [0, sigma]
    (sigma = nodes[-1]); f must vanish at sigma.  The induced density is the
    step function -f'(sigma - t), so the construction is exact, with
    total mass f(0) + jump and left-limit mass f(0).
    """
    nodes = tuple(float(t) for t in nodes)
    values = tuple(float(v) for v in values)
    if len(nodes) != len(values) or len(nodes) < 2:
        raise ValueError("need matching nodes/values with at least 2 entries")
    if nodes[0] != 0.0:
        raise ValueError("profile nodes must start at 0")
    if values[-1] != 0.0:
        raise ValueError("profile must vanish at sigma")
    sigma = nodes[-1]
    slopes = [(v1 - v0) / (t1 - t0) for t0, t1, v0, v1 in zip(nodes, nodes[1:], values, values[1:])]
    # panel [a_i, a_{i+1}] of f maps to density level -slope_i on [sigma-a_{i+1}, sigma-a_i]
    breaks = tuple(sigma - t for t in reversed(nodes))
    levels = tuple(-s for s in reversed(slopes))
    density = None
    if any(lv != 0.0 for lv in levels):
        density = PiecewiseLinearDensity.step(breaks, levels)
    atoms = ((sigma, jump_at_sigma),) if jump_at_sigma != 0.0 else ()
    return StieltjesMeasure(sigma, atoms, density)


# -- scenario ingestion --------------------------------------------------------

_MEASURE_KEYS = {"sigma", "atoms", "density", "task"}
_ATOM_KEYS = {"t", "c"}
_DENSITY_KEYS = {"nodes", "values"}


def _require_number(value, field):
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ScenarioError(f"expected a number, got {value!r}", field)
    # compared before float(), which overflows on a huge integer
    if not abs(value) <= sys.float_info.max:
        raise ScenarioError(f"must be finite, got {value!r}", field)
    return float(value)


def parse_scenario(text: str):
    """Parse a scenario document into (measure, task dict or None).

    The measure part is fully validated; unknown fields are rejected at every
    level.  The task dict is shape-checked only, its field semantics belong to
    the CLI layer.
    """
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ScenarioError(f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ScenarioError("scenario must be a JSON object")
    unknown = set(doc) - _MEASURE_KEYS
    if unknown:
        raise ScenarioError(f"unknown fields {sorted(unknown)}")
    if "sigma" not in doc:
        raise ScenarioError("missing required field", "sigma")
    sigma = _require_number(doc["sigma"], "sigma")

    atoms = []
    for i, entry in enumerate(doc.get("atoms", []) or []):
        if not isinstance(entry, dict):
            raise ScenarioError("atom entries must be objects", f"atoms[{i}]")
        unknown = set(entry) - _ATOM_KEYS
        if unknown:
            raise ScenarioError(f"unknown fields {sorted(unknown)}", f"atoms[{i}]")
        if "t" not in entry or "c" not in entry:
            raise ScenarioError("atom needs both t and c", f"atoms[{i}]")
        atoms.append((_require_number(entry["t"], f"atoms[{i}].t"), _require_number(entry["c"], f"atoms[{i}].c")))

    density = None
    if doc.get("density") is not None:
        dd = doc["density"]
        if not isinstance(dd, dict):
            raise ScenarioError("density must be an object or null", "density")
        unknown = set(dd) - _DENSITY_KEYS
        if unknown:
            raise ScenarioError(f"unknown fields {sorted(unknown)}", "density")
        nodes = [_require_number(v, "density.nodes") for v in dd.get("nodes", [])]
        values = [_require_number(v, "density.values") for v in dd.get("values", [])]
        try:
            density = PiecewiseLinearDensity.interpolant(nodes, values)
        except ValueError as exc:
            raise ScenarioError(str(exc), "density") from exc

    task = doc.get("task")
    if task is not None and not isinstance(task, dict):
        raise ScenarioError("task must be an object", "task")

    try:
        measure = StieltjesMeasure(sigma, tuple(atoms), density)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    return measure, task
