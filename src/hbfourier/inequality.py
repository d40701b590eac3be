"""Sharp Wronskian inequality for omega(z) = z^n F(z) on the real axis.

For a config (measure, n, tau) drawn from the admissible hypothesis families,
the inequality reads 4 sigma d(x) >= x^{2n-2} D(x) with d = x^{2n} Delta and
D the squared phase bracket built from C, S and their derivatives.  Its right
side is one expression for every n: x^{2n-2} D = (E' + 2 sigma E~)^2, where
E + i E~ = x^n e^{i tau} (C + i S), so the margin is

  4 sigma x^{2n} Delta - (E' + 2 sigma E~)^2.

Both sides come from omega's rows: d = Im(conj(w) w') for w = x^n F, and E is
Re W for the mirrored W (`transforms._mirrored_rows`, which `eval_E` shares).
`transforms._omega_rows` forms w, W and their derivatives from the moments
alone, so no removable power is ever divided out; near the origin it sums
n = -1's F / x as a series.

Equality on the whole line or at isolated points is detected, and the
closed-form witness (c, beta, gamma) of the equality family is fitted when the
nonnegative combination E matches c sin^2(sigma x + tau + beta).
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field

import numpy as np

from .measure import HYPOTHESIS_TOL, StieltjesMeasure
from .transforms import _bracketed_newton, _grid_moments, _mirrored_rows, _omega_rows, _reflected, real_transforms

#: |margin| <= MARGIN_TOL * scale counts as equality at a point
MARGIN_TOL = 1e-8
#: |E| <= E_TOL * sqrt(total variation) counts as a vanishing combination
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

    The constructor refuses (n, tau) pairs outside the four admissible
    families and records which family is claimed.  The grid hypothesis itself
    (E >= 0) is checked later by `check_inequality`, never proved.
    """

    measure: StieltjesMeasure
    n: int
    tau: float
    kind: HypothesisKind = field(init=False)

    def __post_init__(self):
        if self.n not in (-1, 0, 1):
            raise ValueError("n must be -1, 0, or 1")
        tau = float(self.tau)
        if self.n == 0:
            kind = HypothesisKind.COSINE_NONNEG if tau == 0.0 else HypothesisKind.ROTATED_NONNEG
        elif self.n == 1:
            if not math.isclose(tau, -math.pi / 2, rel_tol=0.0, abs_tol=1e-12):
                raise ValueError("n = 1 requires tau = -pi/2")
            if self.measure.atoms:
                raise ValueError(
                    "n = 1 requires F vanishing at infinity; atomic parts never decay"
                )
            kind = HypothesisKind.SINE_NONNEG_DECAY
        else:
            if not math.isclose(tau, -math.pi / 2, rel_tol=0.0, abs_tol=1e-12):
                raise ValueError("n = -1 requires tau = -pi/2")
            if not self.measure.vanishes_at_zero:
                raise ValueError("n = -1 requires F(0) = 0")
            kind = HypothesisKind.SINE_NONNEG_ROOT
        object.__setattr__(self, "tau", tau)
        object.__setattr__(self, "kind", kind)


def default_grid(cfg: OmegaConfig, x_min: float, x_max: float) -> np.ndarray:
    """Uniform grid with step pi / (50 sigma): >= 100 points per oscillation."""
    step = math.pi / (50.0 * cfg.measure.sigma)
    return np.arange(x_min, x_max + 0.5 * step, step)


def _d_values(cfg: OmegaConfig, x: np.ndarray, rt):
    """d = x^{2n} Delta = Im(conj(w) w') at x for w = x^n F, from the order-1 transforms rt."""
    w, wp = _omega_rows(cfg.measure, x, rt.direct, n=cfg.n)
    return (np.conj(w) * wp).imag


def eval_d(cfg: OmegaConfig, x):
    """d(x) = x^{2n} Delta(x); removable at 0 for n = -1."""
    x = np.asarray(x, dtype=float)
    out = _d_values(cfg, x, real_transforms(cfg.measure, x, order=1))
    return out if out.ndim else float(out)


def eval_D(cfg: OmegaConfig, x):
    """The squared bracket D(x) exactly as printed (x-powers not cancelled)."""
    x = np.asarray(x, dtype=float)
    rt = real_transforms(cfg.measure, x, order=1)
    n, tau = cfg.n, cfg.tau
    sig = cfg.measure.sigma
    bracket = (2.0 * sig * x * rt.S + x * rt.Cp + n * rt.C) * math.cos(tau) + (
        2.0 * sig * x * rt.C - x * rt.Sp - n * rt.S
    ) * math.sin(tau)
    out = bracket * bracket
    return out if out.ndim else float(out)


def _margin_pieces(cfg: OmegaConfig, x: np.ndarray, rt=None):
    """(lhs, rhs, scale, E) with margin = lhs - rhs, one formula for every n:
    lhs = 4 sigma x^{2n} Delta and rhs = (Re W' + 2 sigma Im W)^2 for the
    mirrored W = E + i E~ = x^n e^{i tau} (C + i S), and the margin's scale
    max(|lhs|, |rhs|, 1).  rt holds the order-1 transforms at x when the
    caller has them already."""
    if rt is None:
        rt = real_transforms(cfg.measure, x, order=1)
    sig = cfg.measure.sigma
    w, wp = _mirrored_rows(cfg.measure, cfg.tau, cfg.n, x, rt.mirrored)
    lhs, rhs = 4.0 * sig * _d_values(cfg, x, rt), (wp.real + 2.0 * sig * w.imag) ** 2
    return lhs, rhs, np.maximum(np.maximum(np.abs(lhs), np.abs(rhs)), 1.0), w.real


def margin_values(cfg: OmegaConfig, x):
    x = np.asarray(x, dtype=float)
    lhs, rhs, _, _ = _margin_pieces(cfg, x)
    out = lhs - rhs
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
    rt = real_transforms(cfg.measure, x, order=1)
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


def _e_derivatives(cfg: OmegaConfig, x):
    """E, E' and E'' at x, the real parts of W, W' and W'' (see `transforms._mirrored_rows`)."""
    T = _grid_moments(_reflected(cfg.measure), x, 2)[0]
    return [w.real for w in _mirrored_rows(cfg.measure, cfg.tau, cfg.n, x, T)]


def _refine_equality_points(cfg: OmegaConfig, grid, e_vals, e_tol):
    """Refine the grid's local minima of |E| and keep those where E and the margin vanish.

    A minimum where E keeps its sign across the bracket is a root of E'; one
    where E changes sign, possible only where the hypothesis fails, is a root
    of E.  All brackets are solved together by `_bracketed_newton`.  For
    n != 0 the factor x^n gives E a structural zero at x = 0, which is not an
    equality of the transforms; brackets reaching it are not searched.
    """
    e_abs = np.abs(e_vals)
    e_scale = float(np.max(e_abs)) if e_abs.size else 0.0
    threshold = max(100.0 * e_tol, 1e-3 * e_scale)
    i = np.arange(1, len(grid) - 1)
    i = i[(e_abs[i] <= e_abs[i - 1]) & (e_abs[i] <= e_abs[i + 1]) & (e_abs[i] <= threshold)]
    lo, hi = grid[i - 1], grid[i + 1]
    if cfg.n != 0:
        away = (lo > 1e-8) | (hi < -1e-8)
        i, lo, hi = i[away], lo[away], hi[away]
    if not i.size:
        return ()
    crossing = np.sign(e_vals[i - 1]) * np.sign(e_vals[i + 1]) < 0
    # orient each target to rise; E' rises through a minimum of an E that is
    # positive at the bracket's ends, whatever the sign of the rounding near 0
    sign = np.where(crossing, np.sign(e_vals[i + 1]), np.sign(e_vals[i - 1] + e_vals[i + 1]))

    def target(x, k):
        e0, e1, e2 = _e_derivatives(cfg, x)
        return sign[k] * np.where(crossing[k], e0, e1), sign[k] * np.where(crossing[k], e1, e2)

    x = _bracketed_newton(target, lo, hi, grid[i])
    lhs, rhs, scale, e_star = _margin_pieces(cfg, x)
    points = []
    for x_star, e, margin, sc in zip(x, np.abs(e_star), lhs - rhs, scale):
        if not (e <= e_tol and abs(margin) <= MARGIN_TOL * sc):
            continue
        if points and abs(points[-1] - x_star) < 1e-9 * max(1.0, abs(x_star)):
            continue
        points.append(float(x_star))
    return tuple(points)


def check_inequality(cfg: OmegaConfig, grid) -> InequalityReport:
    """Margins of the inequality on a sorted finite grid.

    A hypothesis violation (E < 0 somewhere) is reported, not raised; margins
    are still computed so the caller can inspect the failure.
    """
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size < 2:
        raise ValueError("grid must be a 1-d array with at least 2 points")
    if np.any(np.diff(grid) <= 0):
        raise ValueError("grid must be strictly increasing")
    # one order-1 pass serves the margins and, from its mirrored moments, E
    lhs, rhs, scale, e_vals = _margin_pieces(cfg, grid)
    margin = lhs - rhs
    hypothesis_ok = bool(np.min(e_vals) >= -HYPOTHESIS_TOL * cfg.measure.tol_scale)
    e_tol = E_TOL * math.sqrt(max(cfg.measure.total_variation, 1e-30))
    global_equality = bool(np.max(np.abs(e_vals)) <= e_tol)
    if global_equality:
        points = ()
    else:
        points = _refine_equality_points(cfg, grid, e_vals, e_tol)
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

    and d identically gamma^2 sigma.  beta is normalized to [0, pi); the sign
    of gamma is fixed by matching P at a sample point.
    """

    c: float
    beta: float
    gamma: float


def fit_equality_witness(cfg: OmegaConfig, grid) -> EqualityWitness | None:
    """Fit (c, beta, gamma) if E matches the equality family on the grid."""
    grid = np.asarray(grid, dtype=float)
    m = cfg.measure
    sig = m.sigma
    v = m.total_variation
    tol = 1e-8 * max(v, 1.0)

    # one order-1 pass serves E, d and P + i Q = x^n F
    rt = real_transforms(m, grid, order=1)
    e_vals = _mirrored_rows(m, cfg.tau, cfg.n, grid, rt.mirrored[:1])[0].real
    # E = A + B cos(2 sigma x + 2 tau) + C sin(2 sigma x + 2 tau) with
    # A = c/2, B = -(c/2) cos(2 beta), C = (c/2) sin(2 beta)
    theta = 2.0 * sig * grid + 2.0 * cfg.tau
    design = np.column_stack([np.ones_like(grid), np.cos(theta), np.sin(theta)])
    coef, *_ = np.linalg.lstsq(design, e_vals, rcond=None)
    resid = e_vals - design @ coef
    if float(np.max(np.abs(resid))) > tol:
        return None
    A, B, C = (float(c) for c in coef)
    amp = math.hypot(B, C)
    if abs(A - amp) > tol or A < -tol:
        return None
    c = max(2.0 * A, 0.0)
    if c <= tol:
        c = 0.0
        beta = 0.0
    else:
        beta = 0.5 * math.atan2(C, -B)
        beta %= math.pi

    d_vals = _d_values(cfg, grid, rt)
    d_bar = float(np.mean(d_vals))
    quad_scale = max(v * v * sig, 1.0)
    if float(np.max(np.abs(d_vals - d_bar))) > 1e-8 * quad_scale or d_bar < -1e-8 * quad_scale:
        return None
    gamma_abs = math.sqrt(max(d_bar, 0.0) / sig)

    # fix the sign of gamma from the P identity at a well-conditioned point
    pq = _omega_rows(m, grid, rt.direct[:1], n=cfg.n)[0]
    P, Q = pq.real, pq.imag
    phase = sig * grid + cfg.tau
    i_star = int(np.argmax(np.abs(np.sin(phase))))
    denom = math.sin(phase[i_star])
    gamma_est = (P[i_star] - c * math.sin(beta) * math.sin(phase[i_star] + beta)) / denom
    gamma = math.copysign(gamma_abs, gamma_est) if gamma_abs > 0.0 else 0.0

    # validate both closed forms on the grid before accepting
    P_model = c * math.sin(beta) * np.sin(phase + beta) + gamma * np.sin(phase)
    Q_model = c * math.cos(beta) * np.sin(phase + beta) - gamma * np.cos(phase)
    if float(np.max(np.abs(P - P_model))) > 1e-6 * max(v, 1.0):
        return None
    if float(np.max(np.abs(Q - Q_model))) > 1e-6 * max(v, 1.0):
        return None
    return EqualityWitness(c=c, beta=beta, gamma=gamma)


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
