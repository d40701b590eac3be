"""Sharp Wronskian inequality for omega(z) = z^n F(z) on the real axis.

For a config (measure, n, tau) drawn from the admissible hypothesis families,
the inequality reads 4 sigma d(x) >= x^{2n-2} D(x) with d = x^{2n} Delta and
D the squared phase bracket built from C, S and their derivatives.  Its right
side is one expression for every n: x^{2n-2} D = (E' + 2 sigma E~)^2, where
E + i E~ = x^n e^{i tau} (C + i S), so the margin is

  4 sigma x^{2n} Delta - (E' + 2 sigma E~)^2.

Every measure here is real, so the reflected Wronskian identity
Delta = C'S - C S' + sigma (C^2 + S^2) holds, and with it
x^{2n} Delta = sigma |W|^2 - Im(conj(W) W') for W = E + i E~.  The margin
then reduces exactly to

  4 sigma^2 E^2 - 4 sigma E E~' - E'^2,

which `check_inequality` reads from the mirrored rows alone
(`transforms._mirrored_rows`, which `eval_E` shares): one evaluator pass, on
the reflected measure.  The direct route, d = Im(conj(w) w') for w = x^n F
(`eval_d`), stays as the independent cross-check of the margin.
`transforms._omega_rows` forms w, W and their derivatives from the moments
alone, so no removable power is ever divided out; near the origin it sums
n = -1's F / x as a series.

Equality on the whole line or at isolated points is detected.  The equality
family's witness (c, beta, gamma) has E = c sin^2(sigma x + tau + beta); E is
built from transforms of a measure on [0, sigma], so its frequencies lie in
[0, sigma], and c sin^2, of frequency 2 sigma, fits it only with c = 0: the
witness is (0, 0, gamma), found where E vanishes and d is constant.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .measure import HYPOTHESIS_TOL, StieltjesMeasure
from .transforms import (
    _ORIGIN_RADIUS,
    _ROUNDING,
    _bracketed_newton,
    _grid_minima,
    _grid_moments,
    _leibniz_bounds,
    _mirrored_rows,
    _newton_residual,
    _omega_rows,
    _one_side,
    _reflected,
    real_transforms,
)

#: |margin| <= MARGIN_TOL * scale counts as equality at a point
MARGIN_TOL = 1e-8
#: |E| <= E_TOL * sigma^-n V counts as a vanishing combination: E carries x^n, so its
#: scale is `StieltjesMeasure.bound(-n)`, the total variation V for n = 0
E_TOL = 1e-6


class HypothesisKind(enum.Enum):
    """Which admissible (n, tau) family a config claims."""

    COSINE_NONNEG = "cosine_nonneg"            # n = 0,  tau = 0,      C >= 0
    SINE_NONNEG_DECAY = "sine_nonneg_decay"    # n = 1,  tau = -pi/2,  S >= 0, F vanishing at infinity
    SINE_NONNEG_ROOT = "sine_nonneg_root"      # n = -1, tau = -pi/2,  S >= 0, F(0) = 0
    ROTATED_NONNEG = "rotated_nonneg"          # n = 0,  tau = +-tau0, C cos tau0 - S sin tau0 >= 0


@dataclass(frozen=True)
class OmegaConfig:
    """Selects omega(z) = z^n F(z) and the phase tau.

    The constructor refuses a tau that is not finite and (n, tau) pairs outside
    the four admissible families, and records which family is claimed.  The grid
    hypothesis itself (E >= 0) is checked later by `check_inequality`, never proved.
    """

    measure: StieltjesMeasure
    n: int
    tau: float
    kind: HypothesisKind = field(init=False)

    def __post_init__(self):
        if self.n not in (-1, 0, 1):
            raise ValueError("n must be -1, 0, or 1")
        tau = float(self.tau)
        if not math.isfinite(tau):
            raise ValueError("tau must be finite")
        if self.n == 0:
            kind = HypothesisKind.COSINE_NONNEG if tau == 0.0 else HypothesisKind.ROTATED_NONNEG
        elif not math.isclose(tau, -math.pi / 2, rel_tol=0.0, abs_tol=1e-12):
            raise ValueError(f"n = {self.n} requires tau = -pi/2")
        elif self.n == 1:
            if self.measure.atoms:
                raise ValueError(
                    "n = 1 requires F vanishing at infinity; atomic parts never decay"
                )
            kind = HypothesisKind.SINE_NONNEG_DECAY
        else:
            if not self.measure.vanishes_at_zero:
                raise ValueError("n = -1 requires F(0) = 0")
            kind = HypothesisKind.SINE_NONNEG_ROOT
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "kind", kind)


def default_grid(cfg: OmegaConfig, x_min: float, x_max: float) -> np.ndarray:
    """Uniform grid on [x_min, x_max] with step `StieltjesMeasure.check_step`."""
    step = cfg.measure.check_step
    return np.arange(x_min, x_max + 0.5 * step, step)


def _d_values(cfg: OmegaConfig, x: np.ndarray, rt):
    """d = x^{2n} Delta = Im(conj(w) w') at x for w = x^n F, from the order-1 transforms rt."""
    w, wp = _omega_rows(cfg.measure, x, rt.direct, n=cfg.n)
    return (np.conj(w) * wp).imag


def eval_d(cfg: OmegaConfig, x):
    """d(x) = x^{2n} Delta(x); removable at 0 for n = -1."""
    x = np.asarray(x, dtype=float)
    out = _d_values(cfg, x, _one_side(cfg.measure, x, 1, mirrored=False))
    return out if out.ndim else float(out)


def eval_D(cfg: OmegaConfig, x):
    """The squared bracket D(x) exactly as printed (x-powers not cancelled)."""
    x = np.asarray(x, dtype=float)
    rt = _one_side(cfg.measure, x, 1, mirrored=True)
    n, tau = cfg.n, cfg.tau
    sig = cfg.measure.sigma
    bracket = (2.0 * sig * x * rt.S + x * rt.Cp + n * rt.C) * math.cos(tau) + (
        2.0 * sig * x * rt.C - x * rt.Sp - n * rt.S
    ) * math.sin(tau)
    out = bracket * bracket
    return out if out.ndim else float(out)


def _margin_terms(sig: float, w, wp):
    """(margin, rhs) from the mirrored rows W and W' (see `_margin_pieces`)."""
    e, ep = w.real, wp.real
    margin = 4.0 * sig * e * (sig * e - wp.imag) - ep * ep
    return margin, (ep + 2.0 * sig * w.imag) ** 2


def _margin_floor(measure: StieltjesMeasure, n: int, x):
    """V^2 sigma^(2 - 2n) max(sigma |x|, 1)^(2n), the floor of the margin's scale (see `_margin_pieces`)."""
    b = measure.bound(1 - n)  # b * b overflows to inf, where b ** 2 would raise
    return b * b * np.maximum(measure.sigma * np.abs(x), 1.0) ** (2 * n) if n else b * b


def _margin_pieces(cfg: OmegaConfig, x: np.ndarray, mirrored=None):
    """(margin, rhs, scale, E, E') at x from the mirrored W = E + i E~ = x^n e^{i tau} (C + i S)
    alone, one formula for every n.  With x^{2n} Delta = sigma |W|^2 - Im(conj(W) W')
    (the reflected Wronskian identity, which holds for every real measure),
    the margin 4 sigma x^{2n} Delta - (E' + 2 sigma E~)^2 is exactly
    4 sigma^2 E^2 - 4 sigma E E~' - E'^2: its E~^2 and E' E~ terms cancel in
    the algebra, not in rounding, and it is 0 wherever E = E' = 0.  rhs is
    (E' + 2 sigma E~)^2.  The margin's scale is max(|lhs|, rhs) with
    lhs = margin + rhs = 4 sigma (sigma |W|^2 - Im(conj(W) W')), floored at
    V^2 sigma^(2 - 2n) max(sigma |x|, 1)^(2n), the size of both sides where
    x^n F and its derivative are as large as |F^(k)| <= sigma^k V allows; it
    is sigma^2 V^2 for n = 0 and stays nonzero at x = 0 for n = +-1.  Where
    the scale is 0, lhs = rhs = 0 (the zero measure), so the margin is 0 in
    any unit and the scale reads 1.  mirrored holds the reflected measure's
    order-1 moments at x when the caller has them already; else they take
    one evaluator pass."""
    m, n = cfg.measure, cfg.n
    if mirrored is None:
        mirrored = _grid_moments(_reflected(m), x, 1)[0]
    w, wp = _mirrored_rows(m, cfg.tau, n, x, mirrored)
    margin, rhs = _margin_terms(m.sigma, w, wp)
    scale = np.maximum(np.maximum(np.abs(margin + rhs), rhs), _margin_floor(m, n, x))
    b = m.bound(1 - n)
    if n < 0 or not b * b > 0.0:  # else the floor, at least b^2, keeps every scale above 0
        scale = np.where(scale == 0.0, 1.0, scale)
    return margin, rhs, scale, w.real, wp.real


def margin_values(cfg: OmegaConfig, x):
    out = _margin_pieces(cfg, np.asarray(x, dtype=float))[0]
    return out if out.ndim else float(out)


def margin_scale(cfg: OmegaConfig, x):
    out = _margin_pieces(cfg, np.asarray(x, dtype=float))[2]
    return out if out.ndim else float(out)


def squared_bracket_direct(cfg: OmegaConfig, x):
    """x^{2n-2} D(x) computed from P = x^n G, Q = x^n H directly.

    Uses the one-parameter bracket {(sigma P + Q')sin(sigma x + tau)
    + (P' - sigma Q)cos(sigma x + tau)}^2, an independent route to the
    right-hand side (valid away from x = 0 for n != 0).
    """
    x = np.asarray(x, dtype=float)
    rt = _one_side(cfg.measure, x, 1, mirrored=False)
    sig = cfg.measure.sigma
    n = cfg.n
    xn = x.astype(float) ** n if n != 0 else np.ones_like(x)
    P = xn * rt.G
    Q = xn * rt.H
    if n == 0:
        Pp = rt.Gp
        Qp = rt.Hp
    else:
        Pp = n * x ** (n - 1) * rt.G + xn * rt.Gp
        Qp = n * x ** (n - 1) * rt.H + xn * rt.Hp
    phase = sig * x + cfg.tau
    bracket = (sig * P + Qp) * np.sin(phase) + (Pp - sig * Q) * np.cos(phase)
    out = bracket * bracket
    return out if out.ndim else float(out)


@dataclass(frozen=True)
class InequalityReport:
    """Grid margins of the sharp inequality plus equality diagnostics.

    margin is 4 sigma^2 E^2 - 4 sigma E E~' - E'^2, the printed margin
    4 sigma x^{2n} Delta - (E' + 2 sigma E~)^2 read from the mirrored W alone,
    and scale its per-point scale (`_margin_pieces`); e_values is E.
    hypothesis_ok records only that E >= 0 held on the grid ("grid-verified",
    never "verified").  equality_points are refined locations where both E and
    the margin vanish within tolerance; for a globally vanishing E the flag
    global_equality is set instead and the list stays empty.
    """

    grid: np.ndarray
    margin: np.ndarray
    e_values: np.ndarray
    scale: np.ndarray
    min_margin: float
    equality_points: tuple
    hypothesis_ok: bool
    global_equality: bool

    @property
    def worst_relative_margin(self) -> float:
        return float(np.min(self.margin / self.scale))


def _accepted(cfg: OmegaConfig, x, at, rows, e_tol):
    """Where |E| <= e_tol and |margin| <= MARGIN_TOL scale are certified at x, from the
    rows W, W', W'' that Newton evaluated at the nearby points `at`.

    Between `at` and x, |W^(j)| <= b_j, `_leibniz_bounds` at r = |at| + |x - at|.
    `_newton_residual` bounds |E(x)| with |E''| <= b_2.  The margin, lhs and
    rhs (`_margin_pieces`) are quadratic in W and W', with slopes at most
    8 sigma^2 b0 b1 + 4 sigma (b1^2 + b0 b2) + 2 b1 b2,
    4 sigma (2 sigma b0 b1 + b0 b2) and 2 (b1 + 2 sigma b0)(b2 + 2 sigma b1),
    so each moves by at most its slope times |x - at| along the step, and the
    scale at x is at least max(|lhs|, rhs) at `at` less the larger move, or
    its floor at x.  As in `_newton_residual`, _ROUNDING times the scale
    allows for the evaluator's own error.
    """
    m, n, sig = cfg.measure, cfg.n, cfg.measure.sigma
    d = x - at
    step = np.abs(d)
    b0, b1, b2 = _leibniz_bounds(m, n, np.abs(at) + step)
    w, wp, _ = rows
    margin, rhs = _margin_terms(sig, w, wp)
    margin_slope = 8.0 * sig * sig * b0 * b1 + 4.0 * sig * (b1 * b1 + b0 * b2) + 2.0 * b1 * b2
    scale_slope = np.maximum(4.0 * sig * (2.0 * sig * b0 * b1 + b0 * b2), 2.0 * (b1 + 2.0 * sig * b0) * (b2 + 2.0 * sig * b1))
    scale = np.maximum(np.maximum(np.abs(margin + rhs), rhs) - scale_slope * step, _margin_floor(m, n, x))
    e_ok = _newton_residual(w.real, wp.real, d, b2, b0) <= e_tol
    return e_ok & (np.abs(margin) + margin_slope * step + _ROUNDING * scale <= MARGIN_TOL * scale)


def _refine_equality_points(cfg: OmegaConfig, grid, e_vals, ep_vals, e_abs, e_scale, e_tol):
    """Refine the grid's local minima of |E| and keep those where E and the margin vanish.

    Both grid ends count as minima (`_grid_minima`, as in `zeros._real_minima`),
    so an equality point in the first or last grid cell is not lost.  A minimum
    where E keeps its sign across the bracket is a root of E'; one where E
    changes sign, possible only where the hypothesis fails, is a root of E.
    Each search starts at the secant root of its target between the bracket's
    ends, from the grid pass's E and E', or at the grid point where that root
    is not strictly inside.  All brackets are solved together by
    `_bracketed_newton`, and the acceptance reads the rows of each bracket's
    last Newton pass (`_accepted`), so the refined points take no pass of
    their own.  For n != 0 the
    factor x^n gives E a structural zero at x = 0, which is not an equality of
    the transforms; brackets reaching within `_ORIGIN_RADIUS` / sigma of it
    are not searched.  Points closer than 1e-9 max(1 / sigma, |x|) count once.
    """
    threshold = max(100.0 * e_tol, 1e-3 * e_scale)
    i, below, above = _grid_minima(e_abs, e_abs <= threshold)
    lo, hi = grid[below], grid[above]
    sig = cfg.measure.sigma
    if cfg.n != 0:
        away = (sig * lo > _ORIGIN_RADIUS) | (sig * hi < -_ORIGIN_RADIUS)
        i, below, above, lo, hi = i[away], below[away], above[away], lo[away], hi[away]
    if not i.size:
        return ()
    e_lo, e_hi = e_vals[below], e_vals[above]
    sign_hi = np.sign(e_hi)
    crossing = np.sign(e_lo) * sign_hi < 0
    # orient each target to rise; E' rises through a minimum of an E that is
    # positive at the bracket's ends, whatever the sign of the rounding near 0
    sign = np.where(crossing, sign_hi, np.sign(e_lo + e_hi))
    f_lo = np.where(crossing, e_lo, ep_vals[below])
    f_hi = np.where(crossing, e_hi, ep_vals[above])
    with np.errstate(divide="ignore", invalid="ignore"):
        secant = lo - f_lo * (hi - lo) / (f_hi - f_lo)
    m, reflected = cfg.measure, _reflected(cfg.measure)

    def target(x, k):  # (E, E') across a sign change, else (E', E''), oriented to rise; and W, W', W''
        w = np.array(_mirrored_rows(m, cfg.tau, cfg.n, x, _grid_moments(reflected, x, 2)[0]))
        return (*(sign[k] * np.where(crossing[k], w[:2].real, w[1:].real)), w)

    x, at, rows = _bracketed_newton(target, lo, hi, np.where((secant > lo) & (secant < hi), secant, grid[i]), 1.0 / sig)
    points = []
    for x_star in x[_accepted(cfg, x, at, rows, e_tol)].tolist():
        if points and abs(points[-1] - x_star) < 1e-9 * max(1.0 / sig, abs(x_star)):
            continue
        points.append(x_star)
    return tuple(points)


def check_inequality(cfg: OmegaConfig, grid) -> InequalityReport:
    """Margins of the inequality on a sorted finite grid.

    The margins, their scales, E and E' come from one order-1 evaluator pass
    of the reflected measure (`_margin_pieces`); the refinement of equality
    points evaluates only its brackets.  A hypothesis violation (E < 0
    somewhere) is reported, not raised; margins are still computed so the
    caller can inspect the failure.  Raises ValueError for a grid that is
    not 1-d, has fewer than 2 points, or is not finite and strictly
    increasing.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    # a NaN fails every comparison; with the order held, only the ends can be infinite
    if not (np.all(grid[1:] > grid[:-1]) and math.isfinite(grid[0]) and math.isfinite(grid[-1])):
        raise ValueError("grid must be finite and strictly increasing")
    # one order-1 pass of the reflected measure serves the margins, E and E'
    margin, _, scale, e_vals, ep_vals = _margin_pieces(cfg, grid)
    v = cfg.measure.bound(-cfg.n)  # the scale of E, which carries x^n
    hypothesis_ok = bool(np.min(e_vals) >= -HYPOTHESIS_TOL * v)
    e_tol = E_TOL * v
    e_abs = np.abs(e_vals)
    e_scale = float(np.max(e_abs))
    global_equality = e_scale <= e_tol
    if global_equality:
        points = ()
    else:
        points = _refine_equality_points(cfg, grid, e_vals, ep_vals, e_abs, e_scale, e_tol)
    return InequalityReport(
        grid=grid,
        margin=margin,
        e_values=e_vals,
        scale=scale,
        min_margin=float(np.min(margin)),
        equality_points=points,
        hypothesis_ok=hypothesis_ok,
        global_equality=global_equality,
    )


@dataclass(frozen=True)
class EqualityWitness:
    """Closed-form equality family: E = c sin^2(sigma x + tau + beta), with

    P(x) = c sin(beta) sin(sigma x + tau + beta) + gamma sin(sigma x + tau)
    Q(x) = c cos(beta) sin(sigma x + tau + beta) - gamma cos(sigma x + tau)

    and d identically gamma^2 sigma, where P + i Q = x^n F.  E's frequencies
    lie in [0, sigma] and c sin^2 has frequency 2 sigma, so every witness has
    c = beta = 0; the sign of gamma is fixed by matching P at a sample point.
    """

    c: float
    beta: float
    gamma: float


def fit_equality_witness(cfg: OmegaConfig, grid) -> EqualityWitness | None:
    """The witness (0, 0, gamma) if E vanishes, d is constant and P, Q match the family on the grid."""
    grid = np.asarray(grid, dtype=float)
    m = cfg.measure
    sig = m.sigma
    v = m.bound(-cfg.n)  # the scale of E, P and Q, which carry x^n

    # one order-1 pass serves E, d and P + i Q = x^n F
    rt = real_transforms(m, grid, order=1)
    e_vals = _mirrored_rows(m, cfg.tau, cfg.n, grid, rt.mirrored[:1])[0].real
    if float(np.max(np.abs(e_vals))) > 1e-8 * v:
        return None

    d_vals = _d_values(cfg, grid, rt)
    d_bar = float(np.mean(d_vals))
    quad_scale = v * v * sig
    if float(np.max(np.abs(d_vals - d_bar))) > 1e-8 * quad_scale or d_bar < -1e-8 * quad_scale:
        return None
    gamma_abs = math.sqrt(max(d_bar, 0.0) / sig)

    # fix the sign of gamma from the P identity at a well-conditioned point
    pq = _omega_rows(m, grid, rt.direct[:1], n=cfg.n)[0]
    P, Q = pq.real, pq.imag
    phase = sig * grid + cfg.tau
    i_star = int(np.argmax(np.abs(np.sin(phase))))
    gamma = math.copysign(gamma_abs, P[i_star] / math.sin(phase[i_star])) if gamma_abs > 0.0 else 0.0

    # validate both closed forms on the grid before accepting
    if float(np.max(np.abs(P - gamma * np.sin(phase)))) > 1e-6 * v:
        return None
    if float(np.max(np.abs(Q + gamma * np.cos(phase)))) > 1e-6 * v:
        return None
    return EqualityWitness(c=0.0, beta=0.0, gamma=gamma)


def borderline_growth_d(a: float, x):
    """Closed-form d for omega(z) = sin z + a z cos z + i (a z sin z + 1 - cos z).

    This omega grows like O(x) instead of o(x) on the real axis; its Wronskian
    d(x) = a^2 x^2 + a x sin x + (a+1)(1 - cos x) changes sign for
    a in (-1, -1/2) (negative like x^2 (a+1)(a+1/2) near 0, positive like
    a^2 x^2 at infinity), so the strict decay condition cannot be weakened.
    """
    if not (-1.0 < a < -0.5):
        raise ValueError("a must lie in (-1, -1/2)")
    x = np.asarray(x, dtype=float)
    out = a * a * x * x + a * x * np.sin(x) + (a + 1.0) * (1.0 - np.cos(x))
    return out if out.ndim else float(out)
