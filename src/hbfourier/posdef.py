"""Positive-definiteness side of the library.

The sign of S on (0, inf) is equivalent to the distribution tail
mu(t) - mu(0) = f(sigma - t) coming from an even, compactly supported,
continuous positive definite profile f.  This module recovers that profile
from the stored representation, exposes its cosine transform K (S(x) = x K(x)
exactly), and carries the companion checks: the sign of H'(0) under the mass
trichotomy, the Laplace limit toward the jump at 0, strict positivity of the
exponentially damped integrals, the autocorrelation profile h with its
transform identity h-hat = 2 Delta, nonnegative cosine polynomials from
sampled profiles, monotone-density sine transforms with the equidistant-step
equality detector, and an alternating-sign finite-difference test of complete
monotonicity.

Positive definiteness is always reported as grid-verified; nothing here is a
proof.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .measure import PiecewiseLinearDensity, StieltjesMeasure
from .transforms import _segment_moments, eval_F, real_transforms
from .zeros import HypothesisViolation, s_nonneg_on_grid

_GL3_NODES = (-math.sqrt(0.6), 0.0, math.sqrt(0.6))
_GL3_WEIGHTS = (5.0 / 9.0, 8.0 / 9.0, 5.0 / 9.0)


@dataclass(frozen=True)
class PosDefProfile:
    """Even profile f(t) = mu((sigma - |t|)+) - mu(0), stored piecewise.

    pieces are (t_start, t_end, (c0, c1, c2)) with f = c0 + c1 u + c2 u^2 in
    u = t - t_start on [t_start, t_end]; quadratic pieces arise from linear
    density panels, jumps from interior atoms.  K is the finite cosine
    transform of f, evaluated panel-exactly; S(x) = x K(x) holds identically.
    """

    sigma: float
    pieces: tuple

    def f(self, t):
        t = np.abs(np.asarray(t, dtype=float))
        out = np.zeros_like(t)
        starts = np.array([p[0] for p in self.pieces])
        idx = np.clip(np.searchsorted(starts, t, side="right") - 1, 0, len(self.pieces) - 1)
        for i, (t0, t1, (c0, c1, c2)) in enumerate(self.pieces):
            mask = (idx == i) & (t <= self.sigma)
            if mask.any():
                u = t[mask] - t0
                out[mask] = c0 + c1 * u + c2 * u * u
        return out if out.ndim else float(out)

    def K(self, x):
        """K(x) = int_0^sigma f(t) cos(xt) dt, closed form per piece."""
        x = np.asarray(x, dtype=float)
        total = np.zeros(x.shape if x.ndim else (1,), dtype=float)
        xv = x if x.ndim else x.reshape(1)
        a = 1j * xv
        for t0, t1, coeffs in self.pieces:
            w = t1 - t0
            if w <= 0.0:
                continue
            M = _segment_moments([w**k for k in range(1, 4)], a, 1j * xv * t0)
            for j, cj in enumerate(coeffs):
                if cj != 0.0:
                    total += cj * M[j].real
        return total if x.ndim else float(total[0])

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
    s_breaks = sorted(breaks)

    def density_linear_on(mid):
        if dens is None:
            return 0.0, 0.0
        nodes = dens.nodes
        if mid <= nodes[0] or mid >= nodes[-1]:
            return 0.0, 0.0
        i = int(np.searchsorted(nodes, mid, side="right") - 1)
        t0, t1 = nodes[i], nodes[i + 1]
        v0, v1 = dens.left[i], dens.right[i]
        slope = (v1 - v0) / (t1 - t0)
        return v0 - slope * t0, slope  # g(s) = a0 + slope * s

    out = []
    for b0, b1 in zip(s_breaks, s_breaks[1:]):
        w = b1 - b0
        mid = 0.5 * (b0 + b1)
        a0, slope = density_linear_on(mid)
        g_b0 = a0 + slope * b0
        # D(s) = D0 + g(b0) u + slope/2 u^2 on (b0, b1], u = s - b0
        D0 = sum(c for t, c in measure.atoms if t <= b0)
        if dens is not None:
            D0 += float(dens.cumulative(b0))
        # reflected piece: t in [sig - b1, sig - b0], f(t) = D(sig - t)
        c0 = D0 + g_b0 * w + 0.5 * slope * w * w
        c1 = -(g_b0 + slope * w)
        c2 = 0.5 * slope
        out.append((sig - b1, sig - b0, (c0, c1, c2)))
    out.sort(key=lambda p: p[0])
    return tuple(out)


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
        pd_ok = bool(
            f0 >= -1e-12 * max(measure.total_variation, 1.0)
            and np.max(np.abs(profile.f(grid))) <= f0 + 1e-12 * max(measure.total_variation, 1.0)
            and abs(f0 - measure.left_limit_mass) <= 1e-12 * max(measure.total_variation, 1.0)
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
    h1 = measure.moment(1)
    f0 = measure.total_mass
    left = measure.left_limit_mass
    tol = 1e-12 * max(measure.total_variation, 1.0)
    if f0 <= tol:
        expected, ok = "nonpos", bool(h1 <= tol * measure.sigma)
    elif f0 >= left - tol:
        expected, ok = "nonneg", bool(h1 >= -tol * measure.sigma)
    else:
        expected, ok = "indeterminate", None
    triple = None
    if not measure.atoms and not measure.is_zero:
        delta0 = float(real_transforms(measure, np.array([0.0]), order=1).Delta[0])
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
    if t_max <= 0:
        raise ValueError("t_max must be positive")
    estimate = float(np.real(eval_F(measure, complex(0.0, t_max))))
    return estimate, measure.jump_at_zero


def damped_kernel_integral(profile: PosDefProfile, alpha: float, beta: float) -> float:
    """int e^{-alpha |x|} (1 - beta |x|) f(x) dx over [-sigma, sigma], exact.

    Strictly positive for every nonzero grid-verified profile when
    |beta| <= alpha; the kernel's cosine transform is nonnegative there.
    """
    if alpha <= 0.0:
        raise ValueError("alpha must be positive")
    if abs(beta) > alpha:
        raise ValueError("|beta| must not exceed alpha")
    if profile.is_zero:
        raise ValueError("profile must not vanish identically")
    total = 0.0
    a = np.array([-alpha + 0.0j])
    for t0, t1, coeffs in profile.pieces:
        w = t1 - t0
        if w <= 0.0:
            continue
        # (1 - beta t) * (c0 + c1 u + c2 u^2) as a cubic in u = t - t0
        c0, c1, c2 = coeffs
        k0 = 1.0 - beta * t0
        q = (k0 * c0, k0 * c1 - beta * c0, k0 * c2 - beta * c1, -beta * c2)
        M = _segment_moments([w**k for k in range(1, 5)], a, np.array([-alpha * t0 + 0.0j]))
        total += sum(qj * M[j][0].real for j, qj in enumerate(q) if qj != 0.0)
    return 2.0 * total


def autocorr_h(g: PiecewiseLinearDensity, x: float) -> float:
    """h(x) = int_{|x|}^{sigma} (2u - |x|) g(u) g(u - |x|) du, 0 for |x| >= sigma.

    The integrand is piecewise cubic, integrated exactly with 3-point Gauss
    panels split at every node of g(u) and g(u - |x|).
    """
    a = abs(float(x))
    sigma = g.nodes[-1]
    if a >= sigma:
        return 0.0
    cuts = np.union1d(np.asarray(g.nodes), np.asarray(g.nodes) + a)
    cuts = cuts[(cuts >= a) & (cuts <= sigma)]
    cuts = np.union1d(cuts, [a, sigma])
    total = 0.0
    for u0, u1 in zip(cuts[:-1], cuts[1:]):
        if u1 - u0 <= 1e-15:
            continue
        half = 0.5 * (u1 - u0)
        midp = 0.5 * (u0 + u1)
        for node, weight in zip(_GL3_NODES, _GL3_WEIGHTS):
            u = midp + half * node
            total += weight * half * (2.0 * u - a) * float(g(u)) * float(g(u - a))
    return total


@dataclass(frozen=True)
class AutocorrelationReport:
    x: np.ndarray
    h_hat: np.ndarray
    two_delta: np.ndarray
    residuals: np.ndarray
    samples: int
    refinement_drift: float


def _hhat_from_samples(sample_u: np.ndarray, sample_h: np.ndarray, x: np.ndarray) -> np.ndarray:
    """2 int_0^sigma PL(h)(u) cos(xu) du for the sampled piecewise-linear h."""
    w = sample_u[1] - sample_u[0]
    out = np.zeros(x.shape, dtype=float)
    for i, xv in enumerate(x):
        a = complex(0.0, xv)
        beta = 1j * xv * sample_u[:-1]
        M = _segment_moments([w, w**2], np.full(len(beta), a), beta)
        v0 = sample_h[:-1]
        v1 = sample_h[1:]
        slope = (v1 - v0) / w
        out[i] = 2.0 * float(np.sum(v0 * M[0].real + slope * M[1].real))
    return out


def check_h_hat_identity(g: PiecewiseLinearDensity, x_samples) -> AutocorrelationReport:
    """Residuals of h-hat(x) = 2 Delta(x) for the autocorrelation profile of g.

    h is sampled uniformly, interpolated piecewise-linearly, and integrated
    panel-exactly against the cosine kernel; the sampling is doubled until two
    successive refinements agree to 1e-8 (starting from 2048 panels).  Delta
    comes from the transform side, so the two routes are independent.
    """
    sigma = g.nodes[-1]
    x = np.asarray(x_samples, dtype=float)
    n = 2048
    prev = None
    while True:
        u = np.linspace(0.0, sigma, n + 1)
        h_vals = np.array([autocorr_h(g, float(t)) for t in u])
        hhat = _hhat_from_samples(u, h_vals, x)
        if prev is not None:
            drift = float(np.max(np.abs(hhat - prev)))
            if drift < 1e-8 or n >= 65536:
                break
        prev = hhat
        n *= 2
    measure = StieltjesMeasure(sigma, (), g if g.support() is not None else None)
    if measure.is_zero:
        two_delta = np.zeros_like(x)
    else:
        two_delta = 2.0 * real_transforms(measure, x, order=1).Delta
    return AutocorrelationReport(
        x=x,
        h_hat=hhat,
        two_delta=two_delta,
        residuals=np.abs(hhat - two_delta),
        samples=n,
        refinement_drift=drift,
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
    if any(abs(w - d) > 1e-12 * max(d, 1.0) for w in widths):
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
    s_vals = real_transforms(measure, np.asarray(x, dtype=float), order=0).S
    return s_vals, _detect_equidistant_steps(g)


@dataclass(frozen=True)
class MonotonicityReport:
    ok: bool
    worst_margin: float
    failures: tuple


def alternating_sign_table(f, x_grid, step: float, max_order: int, tol_factor: float = 1e-11) -> MonotonicityReport:
    """Check (-1)^n Delta_step^n f(x) >= -tol for n <= max_order (forward differences)."""
    if step <= 0:
        raise ValueError("step must be positive")
    if max_order > 10:
        raise ValueError("orders beyond 10 drown in cancellation at double precision")
    failures = []
    worst = math.inf
    for x in np.asarray(x_grid, dtype=float):
        fv = np.asarray(f(x + step * np.arange(max_order + 1)), dtype=float)
        scale = float(np.max(np.abs(fv)))
        d = fv
        for n in range(1, max_order + 1):
            d = np.diff(d)
            signed = (-1.0) ** n * d[0]
            tol = tol_factor * (2.0**n) * scale
            worst = min(worst, signed + tol)
            if signed < -tol:
                failures.append((float(x), n, float(signed)))
    return MonotonicityReport(ok=not failures, worst_margin=float(worst), failures=tuple(failures))


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
    x_grid = np.asarray(x_grid, dtype=float)
    if np.any(x_grid <= 0.0):
        raise ValueError("x_grid must be positive")

    def f(x):
        x = np.asarray(x, dtype=float)
        return x ** (-mu_exp) * (1.0 + x * x) ** (-nu_exp)

    return alternating_sign_table(f, x_grid, step, max_order)
