"""Positive-definiteness side of the library.

The sign of S on (0, inf) is equivalent to the distribution tail
mu(t) - mu(0) = f(sigma - t) coming from an even, compactly supported,
continuous positive definite profile f.  This module recovers that profile
from the stored representation, exposes its cosine transform K (S(x) = x K(x)
exactly), and carries the companion checks: the sign of H'(0) under the mass
trichotomy, the Laplace limit toward the jump at 0, strict positivity of the
exponentially damped integrals, the autocorrelation profile h with its
transform identity h-hat = 2 Delta (h-hat is exact, from the piecewise-quartic
h, for densities within a budget on the number of panels), nonnegative cosine
polynomials from sampled profiles, monotone-density sine transforms with the
equidistant-step equality detector, and an alternating-sign finite-difference
test of complete monotonicity.  The evaluator sums the pieces of f and of h.

Positive definiteness is always reported as grid-verified; nothing here is a
proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import MASS_TOL, PiecewiseLinearDensity, StieltjesMeasure
from .transforms import _H_TABLES, _TABLES, _derived, _lay_out, _one_side, _piece_moments, _polynomial_pieces
from .transforms import eval_Delta, eval_F
from .zeros import HypothesisViolation, _in_borderline_range, s_nonneg_on_grid

_GL3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)
#: Chebyshev points in (0, 1) at which each quartic piece of h is sampled, in units of its width from its start
_CHEB5 = 0.5 + 0.5 * np.cos((2 * np.arange(5) + 1) * math.pi / 10)
#: the most quartic pieces of h that check_h_hat_identity transforms; a density
#: of P panels has up to 3 P (P + 1) / 2, so 208 panels fit
_MAX_HHAT_PIECES = 1 << 16
#: step pieces count as equidistant when their widths agree to this, times sigma, the
#: last node of the density: a t-length, so the test does not depend on the unit of t
_WIDTH_TOL = 1e-12


@dataclass(frozen=True)
class PosDefProfile:
    """Even profile f(t) = mu((sigma - |t|)+) - mu(0), stored piecewise.

    pieces are (t_start, t_end, (c0, c1, c2)) with f = c0 + c1 u + c2 u^2 in
    u = t - t_start on [t_start, t_end]; quadratic pieces arise from linear
    density panels, jumps from interior atoms.  K is the finite cosine
    transform of f, summed by the evaluator; S(x) = x K(x) holds identically.
    """

    sigma: float
    pieces: tuple

    def __post_init__(self):  # the dataclass hash, computed once: the profile keys its tables
        object.__setattr__(self, "_hash", hash((self.sigma, self.pieces)))

    def __hash__(self):
        return self._hash

    def _tables(self):
        return _derived(_TABLES, self, lambda: _lay_out(_polynomial_pieces(*zip(*self.pieces))))

    def f(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        starts = np.array([p[0] for p in self.pieces])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(self.pieces) - 1)
        c0, c1, c2 = np.array([p[2] for p in self.pieces])[idx].T
        u = t - starts[idx]
        out = np.where(t <= self.sigma, c0 + c1 * u + c2 * u * u, 0.0)
        return out if out.ndim else float(out)

    def K(self, x):
        """K(x) = int_0^sigma f(t) cos(xt) dt."""
        x = np.asarray(x, dtype=float)
        out = _piece_moments(np.zeros((1, x.size), complex), self._tables(), 1j * x.reshape(-1), np.zeros(x.size))
        out = out[0].real
        return out.reshape(x.shape) if x.ndim else float(out[0])

    @property
    def f0(self) -> float:
        return float(self.f(0.0))

    @property
    def is_zero(self) -> bool:
        return all(c == (0.0, 0.0, 0.0) for _, _, c in self.pieces)


def _profile_pieces(measure: StieltjesMeasure):
    """Pieces of f(t) = distribution(sigma - t) on [0, sigma]."""
    sig = measure.sigma
    breaks = {0.0, sig}
    breaks.update(t for t, _ in measure.atoms if 0.0 < t < sig)
    dens = measure.density
    if dens is not None:
        breaks.update(t for t in dens.nodes if 0.0 < t < sig)
    s_breaks = np.array(sorted(breaks))
    b0, b1 = s_breaks[:-1], s_breaks[1:]
    w = b1 - b0
    # D1 = D(b1-): the atoms at t <= b0 plus the density's mass up to b1
    atom_t = np.array([t for t, _ in measure.atoms])
    atom_cum = np.concatenate([[0.0], np.cumsum([c for _, c in measure.atoms])])
    D1 = atom_cum[np.searchsorted(atom_t, b0, side="right")]
    slope, g_b0 = np.zeros(b0.shape), np.zeros(b0.shape)
    if dens is not None:
        D1 = D1 + dens.cumulative(b1)
        # g(b0) = v0 + slope (b0 - t0) on the panel holding the midpoint, with no intercept to cancel
        mid = 0.5 * (b0 + b1)
        inside = (mid > dens.nodes[0]) & (mid < dens.nodes[-1])
        _, t0, t1, v0, v1 = dens._panel_of(mid)
        slope = np.where(inside, (v1 - v0) / (t1 - t0), 0.0)
        g_b0 = np.where(inside, v0 + slope * (b0 - t0), 0.0)
    # D(s) = D1 - g(b0) (w - u) - slope/2 (w^2 - u^2) on (b0, b1], u = s - b0; the
    # reflected piece is t in [sig - b1, sig - b0], f(t) = D(sig - t), which starts
    # at D1, so f(0) is the density's exact mass plus the atoms below sigma
    c0 = D1
    c1 = -(g_b0 + slope * w)
    c2 = 0.5 * slope
    order = np.argsort(sig - b1, kind="stable")
    coeffs = zip(*(c[order].tolist() for c in (c0, c1, c2)))
    return tuple(zip((sig - b1)[order].tolist(), (sig - b0)[order].tolist(), coeffs))


@dataclass(frozen=True)
class ProfileReport:
    profile: PosDefProfile
    s_nonneg: bool
    f0: float
    pd_bound_ok: bool | None


def recover_pd_profile(measure: StieltjesMeasure) -> ProfileReport:
    """Recover f from the representation and grid-check the sine hypothesis.

    When the verdict is positive, the positive definite bound |f| <= f(0) and
    f(0) = mu(sigma - 0) - mu(0) >= 0 are checked as well (grid-verified).
    """
    profile = PosDefProfile(measure.sigma, _profile_pieces(measure))
    verdict = s_nonneg_on_grid(measure)
    pd_ok = None
    if verdict:
        f0 = profile.f0
        grid = np.linspace(0.0, measure.sigma, 2001)
        tol = MASS_TOL * measure.total_variation
        pd_ok = bool(
            f0 >= -tol and np.max(np.abs(profile.f(grid))) <= f0 + tol and abs(f0 - measure.left_limit_mass) <= tol
        )
    return ProfileReport(profile=profile, s_nonneg=verdict, f0=profile.f0, pd_bound_ok=pd_ok)


@dataclass(frozen=True)
class MomentSignReport:
    h_prime_zero: float
    total_mass: float
    left_limit_mass: float
    expected_sign: str  # "nonneg" | "nonpos" | "indeterminate"
    sign_ok: bool | None
    strict_positive_triple: tuple | None


def h_prime_zero_checks(measure: StieltjesMeasure) -> MomentSignReport:
    """Sign of H'(0) = int t dmu predicted by the mass trichotomy.

    Below the left-limit mass and above 0 the sign is not determined
    ("indeterminate").  For a vanishing-at-infinity measure (no atoms) the
    strict triple F(0) > 0, H'(0) > 0, Delta(0) > 0 is evaluated as well.
    """
    if not s_nonneg_on_grid(measure):
        raise HypothesisViolation("S(x) >= 0 failed on the grid")
    return _moment_signs(measure)


def _moment_signs(measure: StieltjesMeasure) -> MomentSignReport:
    """`h_prime_zero_checks` for a measure whose sine hypothesis is already checked."""
    h1 = measure.moment(1)
    f0 = measure.total_mass
    left = measure.left_limit_mass
    tol = MASS_TOL * measure.total_variation
    if _in_borderline_range(measure):
        expected, ok = "indeterminate", None
    elif f0 <= tol:
        expected, ok = "nonpos", bool(h1 <= tol * measure.sigma)
    else:
        expected, ok = "nonneg", bool(h1 >= -tol * measure.sigma)
    triple = None
    if not measure.atoms and not measure.is_zero:
        delta0 = float(eval_Delta(measure, np.array([0.0]))[0])
        triple = (bool(f0 > 0.0), bool(h1 > 0.0), bool(delta0 > 0.0))
    return MomentSignReport(
        h_prime_zero=float(h1),
        total_mass=f0,
        left_limit_mass=left,
        expected_sign=expected,
        sign_ok=ok,
        strict_positive_triple=triple,
    )


def laplace_limit_check(measure: StieltjesMeasure, t_max: float | None = None):
    """(estimate, target): int e^{-t u} dnu(u) at t = t_max against nu(+0) - nu(0).

    The integral tends to the jump of nu at 0; the decay of the density part
    is O(V / t).
    """
    if t_max is None:
        t_max = 200.0 / measure.sigma
    if not 0.0 < t_max < math.inf:  # NaN fails too
        raise ValueError("t_max must be positive and finite")
    estimate = float(np.real(eval_F(measure, complex(0.0, t_max))))
    return estimate, measure.jump_at_zero


def damped_kernel_integral(profile: PosDefProfile, alpha: float, beta: float) -> float:
    """int e^{-alpha |x|} (1 - beta |x|) f(x) dx over [-sigma, sigma], exact: 2 (T_0 - beta T_1) at z = i alpha.

    Strictly positive for every nonzero grid-verified profile when
    |beta| <= alpha; the kernel's cosine transform is nonnegative there.
    """
    if not 0.0 < alpha < math.inf:  # NaN fails these tests too
        raise ValueError("alpha must be positive and finite")
    if not abs(beta) <= alpha:
        raise ValueError("|beta| must not exceed alpha")
    if profile.is_zero:
        raise ValueError("profile must not vanish identically")
    T = _piece_moments(np.zeros((2, 1), complex), profile._tables(), np.array([-alpha + 0.0j]), np.zeros(1))[:, 0]
    return 2.0 * float((T[0] - beta * T[1]).real)


def _pair_h(g: PiecewiseLinearDensity, x, i, j):
    """The part of h(x) where u lies in panel i of g and u - x in panel j.

    x, i and j broadcast together.  On the overlap of the two panels the
    integrand (2u - x) g(u) g(u - x) is a cubic in u, which the 3-point Gauss
    rule integrates exactly.
    """
    nodes, left, right = (np.asarray(v) for v in (g.nodes, g.left, g.right))
    a0, b0 = nodes[i], nodes[j]
    lo = np.maximum(a0, b0 + x)
    half = 0.5 * np.maximum(np.minimum(nodes[i + 1], nodes[j + 1] + x) - lo, 0.0)
    slopes = (right - left) / np.diff(nodes)
    total = 0.0
    for node, weight in zip(_GL3_NODES, _GL3_WEIGHTS):
        u = lo + half * (1.0 + node)
        g_u = left[i] + slopes[i] * (u - a0)
        g_shifted = left[j] + slopes[j] * (u - x - b0)
        total = total + weight * (2.0 * u - x) * g_u * g_shifted
    return half * total


def autocorr_h(g: PiecewiseLinearDensity, x: float) -> float:
    """h(x) = int_{|x|}^{sigma} (2u - |x|) g(u) g(u - |x|) du, 0 for |x| >= sigma.

    Exact: a sum over the pairs of panels of g that overlap after the shift.
    """
    a = abs(float(x))
    nodes = np.asarray(g.nodes)
    if a >= nodes[-1]:
        return 0.0
    i, j = np.nonzero((nodes[:-1, None] < nodes[None, 1:] + a) & (nodes[1:, None] > nodes[None, :-1] + a))
    return float(np.sum(_pair_h(g, a, i, j)))


def _h_pieces(g: PiecewiseLinearDensity):
    """h on [0, sigma] as quartic pieces in x - lo on [lo, hi], refused past the budget before any work.

    The part of h from a pair of panels i >= j is a quartic in x between the
    shifts where an end of one panel passes an end of the other, so each pair
    gives at most three pieces, which overlap those of other pairs.  Each
    quartic is interpolated from five exact values.
    """
    panels = len(g.nodes) - 1
    bound = 3 * panels * (panels + 1) // 2
    if bound > _MAX_HHAT_PIECES:
        raise ValueError(
            f"h-hat of a {panels}-panel density needs up to {bound} quartic pieces, "
            f"over the budget of {_MAX_HHAT_PIECES}"
        )
    nodes = np.asarray(g.nodes)
    i, j = np.tril_indices(panels)
    kinks = (nodes[i] - nodes[j], nodes[i + 1] - nodes[j + 1])
    edges = np.stack(
        [nodes[i] - nodes[j + 1], np.minimum(*kinks), np.maximum(*kinks), nodes[i + 1] - nodes[j]], axis=1
    )
    edges = np.maximum(edges, 0.0)
    live = edges[:, 1:] > edges[:, :-1]
    pair = np.nonzero(live)[0]
    lo, hi = edges[:, :-1][live], edges[:, 1:][live]
    values = _pair_h(g, lo[:, None] + (hi - lo)[:, None] * _CHEB5, i[pair][:, None], j[pair][:, None])
    # the piece's monomial coefficients in (x - lo) / (hi - lo), then in x - lo
    coeffs = np.linalg.solve(np.vander(_CHEB5, 5, increasing=True), values.T).T
    return _polynomial_pieces(lo, hi, coeffs / (hi - lo)[:, None] ** np.arange(5))


@dataclass(frozen=True)
class AutocorrelationReport:
    x: np.ndarray
    h_hat: np.ndarray
    two_delta: np.ndarray
    residuals: np.ndarray
    samples: int  # exact evaluations of h's pair parts that its tables were built from, five per quartic piece


def check_h_hat_identity(g: PiecewiseLinearDensity, x_samples) -> AutocorrelationReport:
    """Residuals of h-hat(x) = 2 Delta(x) for the autocorrelation profile of g.

    h-hat(x) = 2 int_0^sigma h(u) cos(xu) du is exact up to rounding: h is
    piecewise quartic (`_h_pieces`), and the evaluator sums its pieces.  A
    density of P panels has up to 3 P (P + 1) / 2 pieces; past
    _MAX_HHAT_PIECES the check raises ValueError before any work.  Delta
    comes from the transform side, so the two routes are independent.
    """
    sigma = g.nodes[-1]
    x = np.asarray(x_samples, dtype=float)
    # h-hat(x) = 2 Re int_0^sigma h(t) e^{ixt} dt, as h is real
    tables = _derived(_H_TABLES, g, lambda: _lay_out(_h_pieces(g)))
    hhat = _piece_moments(np.zeros((1, x.size), complex), tables, 1j * x.reshape(-1), np.zeros(x.size))[0]
    hhat = 2.0 * hhat.real.reshape(x.shape)
    measure = StieltjesMeasure(sigma, (), g if g.support() is not None else None)
    if measure.is_zero:
        two_delta = np.zeros_like(x)
    else:
        two_delta = 2.0 * eval_Delta(measure, x)
    return AutocorrelationReport(
        x=x,
        h_hat=hhat,
        two_delta=two_delta,
        residuals=np.abs(hhat - two_delta),
        samples=5 * len(tables.pieces[0]),
    )


def fejer_cosine_poly(profile, m_count: int, x):
    """f(0) + 2 sum_{k=1}^{m} f(k) cos(kx) for a sampled even profile f.

    Equals twice the cosine component C of the atomic measure built from the
    same profile; nonnegative whenever f is positive definite.
    """
    if m_count < 1:
        raise ValueError("m_count must be >= 1")
    x = np.asarray(x, dtype=float)
    out = np.full(x.shape, float(profile(0.0)))
    for k in range(1, m_count + 1):
        out = out + 2.0 * float(profile(float(k))) * np.cos(k * x)
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class StepStructure:
    """Equidistant piecewise-constant structure of a monotone density.

    When `equidistant` is set, the sine transform vanishes exactly at
    x = 2 pi k / piece_width; otherwise S is strictly positive for x > 0.
    The test is exact on the representation (zero panel slopes, equal merged
    widths), never inferred from S numerically.
    """

    equidistant: bool
    piece_width: float | None
    zero_spacing: float | None


def _detect_equidistant_steps(g: PiecewiseLinearDensity) -> StepStructure:
    if any(l != r for l, r in zip(g.left, g.right)):
        return StepStructure(False, None, None)
    pieces = []
    for (t0, t1, v0, _v1) in g.panels:
        if pieces and pieces[-1][2] == v0:
            pieces[-1] = (pieces[-1][0], t1, v0)
        else:
            pieces.append((t0, t1, v0))
    while pieces and pieces[0][2] == 0.0:
        pieces.pop(0)
    if not pieces or any(level == 0.0 for _, _, level in pieces):
        return StepStructure(False, None, None)
    widths = [t1 - t0 for t0, t1, _ in pieces]
    d = widths[0]
    if any(abs(w - d) > _WIDTH_TOL * g.nodes[-1] for w in widths):
        return StepStructure(False, None, None)
    return StepStructure(True, d, 2.0 * math.pi / d)


def monotone_density_S(g: PiecewiseLinearDensity, x):
    """S(x) for the absolutely continuous measure with density g, plus the
    exact equality-structure detector.

    g must be nonnegative and nondecreasing on its support (validated on the
    representation); then S(x) >= 0 for x > 0, with real zeros exactly when g
    is piecewise constant with equidistant pieces reaching sigma.
    """
    values = list(g.left) + list(g.right)
    if min(values) < 0.0:
        raise ValueError("density must be nonnegative")
    for l, r in zip(g.left, g.right):
        if r < l:
            raise ValueError("density must be nondecreasing within panels")
    for r, l_next in zip(g.right[:-1], g.left[1:]):
        if l_next < r:
            raise ValueError("density must be nondecreasing across panel boundaries")
    sigma = g.nodes[-1]
    measure = StieltjesMeasure(sigma, (), g)
    s_vals = _one_side(measure, x, 0, mirrored=True).S
    return s_vals, _detect_equidistant_steps(g)


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    worst_margin: float
    failures: tuple


def alternating_sign_table(f, x_grid, step: float, max_order: int) -> MonotonicityReport:
    """Check (-1)^n Delta_step^n f(x) >= -tol for n <= max_order (forward differences) at x > 0; NaN fails."""
    x_grid = np.asarray(x_grid, dtype=float)
    if not 0.0 < step < math.inf or not np.all((x_grid > 0.0) & (x_grid < math.inf)):  # NaN fails too
        raise ValueError("step and x_grid must be positive and finite")
    if max_order > 10:
        raise ValueError("orders beyond 10 drown in cancellation at double precision")
    failures, margins = [], [math.inf]
    for x in x_grid:
        d = np.asarray(f(x + step * np.arange(max_order + 1)), dtype=float)
        scale = float(np.max(np.abs(d)))
        for n in range(1, max_order + 1):
            d = np.diff(d)
            signed = (-1.0) ** n * d[0]
            tol = 1e-11 * (2.0**n) * scale
            margins.append(signed + tol)
            if not signed >= -tol:
                failures.append((float(x), n, float(signed)))
    return MonotonicityReport(ok=not failures, worst_margin=float(np.min(margins)), failures=tuple(failures))


def cm_finite_difference_check(
    mu_exp: float,
    nu_exp: float,
    x_grid,
    step: float,
    max_order: int,
) -> MonotonicityReport:
    """Alternating-sign spot check of x^{-mu} (1 + x^2)^{-nu} on (0, inf).

    A necessary (finite-difference) condition for complete monotonicity; the
    order cap keeps rounding noise below the signal.
    """
    if mu_exp < 1.0 or not (0.0 < nu_exp <= 1.0):
        raise ValueError("need mu_exp >= 1 and 0 < nu_exp <= 1")

    def f(x):
        x = np.asarray(x, dtype=float)
        return x ** (-mu_exp) * (1.0 + x * x) ** (-nu_exp)

    return alternating_sign_table(f, x_grid, step, max_order)
