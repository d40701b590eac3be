"""Zero location and Hermite-Biehler classification for the transforms.

Counting uses the argument principle over axis-avoiding rectangles: the
boundary is sampled adaptively until consecutive phase increments stay below
pi/2, and the winding number is the (integer) sum of principal-branch phase
increments.  Scaled function values keep contours far below the real axis
overflow-free.  Real zeros are found separately on the axis, and the unique
purely imaginary lower zero of the borderline mass range is bracketed on the
strictly monotone section g(y) = F(iy) e^{sigma y}.

Any mismatch between the zero structure implied by a grid-verified hypothesis
and the counted structure raises DiagnosticFailure; it is never reconciled
silently.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .measure import HYPOTHESIS_TOL, MASS_TOL, StieltjesMeasure
from .transforms import (
    _bracketed_newton,
    _grid_moments,
    _omega_rows,
    _reflected,
    eval_h_alpha_scaled,
    real_transforms,
)

#: |target| must exceed this multiple of the total variation on the boundary
BOUNDARY_MODULUS_FACTOR = 1e-12
#: |F| or |F^(k)| below this, times `StieltjesMeasure.tol_scale`, counts as a zero
ZERO_TOL = 1e-10
#: boundary samples a contour count may refine to
_MAX_CONTOUR_POINTS = 400_000
#: default axis-avoiding window for "open lower half-plane" checks
DEFAULT_LOWER_RECT = (-20.0, 20.0, -6.0, -1e-3)
#: each zero target as (k, n): the target is z^n F^(k)
_TARGETS = {"F": (0, 0), "zF": (0, 1), "F/z": (0, -1), "F'": (1, 0), "F''": (2, 0)}


class BoundaryZeroError(RuntimeError):
    """The target nearly vanishes on the contour; nudge the rectangle by ~1e-6."""


class DiagnosticFailure(RuntimeError):
    """Numerical result contradicts the hypothesis-implied structure."""


class HypothesisViolation(RuntimeError):
    """A grid-checked sign hypothesis failed where the caller required it."""


@dataclass(frozen=True)
class Rectangle:
    x_min: float
    x_max: float
    y_min: float
    y_max: float

    def __post_init__(self):
        if not (self.x_min < self.x_max and self.y_min < self.y_max):
            raise ValueError("rectangle must have positive width and height")

    @property
    def corners(self):
        return (
            complex(self.x_min, self.y_min),
            complex(self.x_max, self.y_min),
            complex(self.x_max, self.y_max),
            complex(self.x_min, self.y_max),
        )

    def split(self):
        xm = 0.5 * (self.x_min + self.x_max)
        return (
            Rectangle(self.x_min, xm, self.y_min, self.y_max),
            Rectangle(xm, self.x_max, self.y_min, self.y_max),
        )

    def quadrants(self):
        xm = 0.5 * (self.x_min + self.x_max)
        ym = 0.5 * (self.y_min + self.y_max)
        return (
            Rectangle(self.x_min, xm, self.y_min, ym),
            Rectangle(xm, self.x_max, self.y_min, ym),
            Rectangle(self.x_min, xm, ym, self.y_max),
            Rectangle(xm, self.x_max, ym, self.y_max),
        )

    def contains(self, z: complex, pad: float = 0.0) -> bool:
        return (
            self.x_min - pad <= z.real <= self.x_max + pad
            and self.y_min - pad <= z.imag <= self.y_max + pad
        )


@dataclass(frozen=True)
class ZeroCountResult:
    count: int
    winding_residual: float
    boundary_samples: int
    #: the sum of the zeros inside, (1 / 2 pi i) times the contour integral of
    #: z w'/w dz, from the same samples; an estimate, so left out of equality
    zero_sum: complex | None = field(default=None, compare=False)


def _winding_count(fn, rect: Rectangle, min_log_modulus: float) -> ZeroCountResult:
    """Winding number of fn along the rectangle boundary (counterclockwise).

    fn maps an array of points to (mantissas, log-scales); only the mantissa
    phase and the total log-modulus are used.  Sampling starts proportional
    to the perimeter and bisects every interval whose phase increment reaches
    pi/2, all midpoints of a round in one call of fn, so the final polygonal
    path cannot wrap the origin undetected unless the true phase moves by
    >= pi between samples.  The same samples give the zero sum: each segment
    adds its midpoint times its increment of log w, that of log|w| plus i
    times the phase increment.
    """
    corners = list(rect.corners)
    n0 = 64  # initial points per edge; adaptive bisection supplies the rest
    seg = np.linspace(0.0, 1.0, n0 + 1)[:-1]
    zs = np.concatenate([a + seg * (b - a) for a, b in zip(corners, corners[1:] + corners[:1])])

    def probe(z):
        mant, scale = fn(z)
        with np.errstate(divide="ignore"):
            logmod = np.log(np.abs(mant)) + scale
        low = np.flatnonzero(logmod < min_log_modulus)
        if low.size:
            raise BoundaryZeroError(
                f"|target| below the boundary floor at z = {complex(z[low[0]]):.6g}; nudge the rectangle by ~1e-6"
            )
        return mant, logmod

    ws, logs = probe(zs)
    for _ in range(64):
        # the quotient of neighbouring samples cannot overflow, unlike a product
        dphi = np.angle(np.roll(ws, -1) / ws)
        split = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if not split.size:
            break
        zm = 0.5 * (zs[split] + np.roll(zs, -1)[split])
        zs = np.insert(zs, split + 1, zm)
        wm, lm = probe(zm)
        ws, logs = np.insert(ws, split + 1, wm), np.insert(logs, split + 1, lm)
        if len(zs) > _MAX_CONTOUR_POINTS:
            raise DiagnosticFailure("contour refinement exceeded the sample budget")
    else:
        raise DiagnosticFailure("contour refinement did not converge")

    winding = float(np.sum(dphi) / (2.0 * math.pi))
    count = int(round(winding))
    residual = abs(winding - count)
    if residual > 0.25:
        raise DiagnosticFailure(f"non-integer winding number {winding:.3f} after refinement")
    if count < 0:
        raise DiagnosticFailure(f"negative winding count {count}; the target is not analytic inside")
    dlog = np.roll(logs, -1) - logs + 1j * dphi
    zero_sum = complex(np.sum(0.5 * (zs + np.roll(zs, -1)) * dlog) / (2j * math.pi))
    return ZeroCountResult(count=count, winding_residual=residual, boundary_samples=len(zs), zero_sum=zero_sum)


def _boundary_floor(measure: StieltjesMeasure) -> float:
    """log of the smallest |target| a contour may pass, BOUNDARY_MODULUS_FACTOR * V."""
    return math.log(BOUNDARY_MODULUS_FACTOR * max(measure.total_variation, 1e-300))


def _target(measure: StieltjesMeasure, target: str, z, order: int):
    """([w, w', ..., w^(order)], E) for w = z^n F^(k) of a `_TARGETS` entry, at real or complex z.

    Each entry is a mantissa: the value is the entry times e^E.  One
    `_grid_moments` pass gives the moments, and `transforms._omega_rows`
    forms the rows from them; nowhere in this module is i^j or z^n written.
    """
    k, n = _TARGETS[target]
    T, E = _grid_moments(measure, z, k + order)
    return _omega_rows(measure, z, T, E, n, k), E


def _target_fn(measure: StieltjesMeasure, target: str):
    """Scaled evaluator z -> (mantissa, log-scale) over arrays, for a named target."""
    if target not in _TARGETS:
        raise ValueError(f"unknown target {target!r}")
    if target == "F/z" and not measure.vanishes_at_zero:
        raise ValueError("target F/z requires F(0) = 0")

    def fn(z):
        (w,), E = _target(measure, target, z, 0)
        return w, E

    return fn


def count_zeros(measure: StieltjesMeasure, rect: Rectangle, target: str = "F") -> ZeroCountResult:
    """Argument-principle zero count of the target inside the rectangle."""
    return _winding_count(_target_fn(measure, target), rect, _boundary_floor(measure))


def count_h_alpha_zeros(measure: StieltjesMeasure, alpha: float, rect: Rectangle) -> ZeroCountResult:
    """Zero count of h_alpha = G cos(alpha) - H sin(alpha) inside the rectangle."""
    fn = lambda z: eval_h_alpha_scaled(measure, alpha, z)
    return _winding_count(fn, rect, _boundary_floor(measure))


def locate_zero(measure: StieltjesMeasure, rect: Rectangle, target: str = "F") -> complex:
    """Locate the unique zero of the target inside the rectangle.

    Counts first (must be exactly 1), then polishes with Newton iterations
    from the count's zero sum, which with one zero inside estimates the zero
    itself, or from the rectangle centre where that estimate lies outside;
    it falls back to quadrant subdivision if Newton leaves the window.  A
    zero is accepted where the target itself nearly vanishes.
    """
    if target not in ("F", "zF", "F/z"):
        raise ValueError("locate_zero supports the F-family targets only")
    result = count_zeros(measure, rect, target)
    if result.count != 1:
        raise ValueError(f"rectangle holds {result.count} zeros; need exactly 1")

    def newton_from(z0: complex, box: Rectangle):
        z = z0
        for _ in range(60):
            (f, fp), _ = _target(measure, target, z, 1)
            if fp == 0:
                return None
            step = f / fp
            z_new = z - step
            if not box.contains(z_new, pad=1.0):
                return None
            if abs(step) < 1e-14 * (1.0 + abs(z_new)):
                return z_new
            z = z_new
        return None

    box = rect
    for _ in range(40):
        z0 = result.zero_sum
        if not box.contains(z0):
            z0 = complex(0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max))
        z_star = newton_from(z0, rect)
        if z_star is not None and rect.contains(z_star, pad=1e-9):
            (f,), _ = _target(measure, target, z_star, 0)
            if abs(f) <= 1e-9 * measure.tol_scale:
                return z_star
        for q in box.quadrants():
            try:
                counted = count_zeros(measure, q, target)
            except BoundaryZeroError:
                continue  # the zero sits on this quadrant's edge
            if counted.count == 1:
                box, result = q, counted
                break
        else:
            raise DiagnosticFailure("zero localization lost the zero during subdivision")
    raise DiagnosticFailure("zero localization did not converge")


# -- real axis -----------------------------------------------------------------


def _modulus_slope(w, wp, wpp):
    """Re(conj(w) w') and its derivative, from a target's w, w' and w'' at real points.

    The first is half the slope of |w|^2, so it rises through each minimum of |w|.
    """
    return (w.conj() * wp).real, (wp.conj() * wp).real + (w.conj() * wpp).real


def find_real_zeros(measure: StieltjesMeasure, interval):
    """Real zeros of F on a bounded interval, as (location, multiplicity) pairs.

    Candidates come from two kinds of brackets on the scan grid, solved
    together by `_bracketed_newton`: sign changes of G, solved for the root
    of G (G' = Re F'), and local minima of |F|^2, solved for the root of
    Re(conj(F) F') (G need not change sign at a tangential zero).  Neither
    kind alone suffices: two zeros closer than about two grid steps can share
    one grid minimum, while G still changes sign at each of them.  Since
    |F'| <= sigma V, a bracket where |F| exceeds sigma V times the grid step
    (plus a rounding margin) at every grid point cannot lead to an accepted
    zero and is dropped.
    Each candidate is polished by Newton steps on F/F' and accepted when
    |F| <= 1e-10 * total variation.  Multiplicity 1 is certified by |F'| away
    from 0; a double zero is admitted at x = 0 only, and anything deeper
    raises DiagnosticFailure.
    """
    a, b = float(interval[0]), float(interval[1])
    if not a < b:
        raise ValueError("interval must satisfy a < b")
    m = measure
    v = max(m.total_variation, 1e-300)
    if m.is_zero:
        return []
    sig = m.sigma
    step = math.pi / (40.0 * sig)
    n = max(int(math.ceil((b - a) / step)), 8)
    grid = np.linspace(a, b, n + 1)
    F = _target(m, "F", grid, 0)[0][0]
    G = F.real
    absF2 = F.real**2 + F.imag**2

    # |F'| <= sigma V, so |F| stays above the acceptance tolerance within a
    # step of a grid point above this floor (ten times that tolerance covers
    # rounding): a sign change or a minimum between such points holds no zero
    floor = v * (sig * step + 1e-9)
    low = absF2 <= floor * floor
    roots = np.flatnonzero((np.sign(G[:-1]) * np.sign(G[1:]) < 0) & (low[:-1] | low[1:]))
    mid = np.arange(1, len(grid) - 1)
    dips = (absF2[mid] <= absF2[mid - 1]) & (absF2[mid] <= absF2[mid + 1])
    minima = mid[dips & low[mid]]
    lo = np.concatenate([grid[roots], grid[minima - 1]])
    hi = np.concatenate([grid[roots + 1], grid[minima + 1]])
    # a sign change starts from the secant root of G, a minimum from its grid point
    secant = grid[roots] - G[roots] * (grid[roots + 1] - grid[roots]) / (G[roots + 1] - G[roots])
    x0 = np.concatenate([secant, grid[minima]])
    on_g = np.arange(lo.size) < roots.size
    g_sign = np.concatenate([np.sign(G[roots + 1]), np.ones(minima.size)])

    def target(x, k):
        f, fp, fpp = _target(m, "F", x, 2)[0]
        slope, slope_p = _modulus_slope(f, fp, fpp)
        return np.where(on_g[k], g_sign[k] * f.real, slope), np.where(on_g[k], g_sign[k] * fp.real, slope_p)

    x = _bracketed_newton(target, lo, hi, x0)
    # Newton polish on F/F' sharpens the location to machine precision
    live = np.arange(x.size)
    for _ in range(3):
        if not live.size:
            break
        f, fp = _target(m, "F", x[live], 1)[0]
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = (f / fp).real
        ok = (fp != 0) & (np.abs(shift) <= step)
        x[live[ok]] -= shift[ok]
        live = live[ok]
    x = x[(a - 1e-12 <= x) & (x <= b + 1e-12)]
    f, fp = _target(m, "F", x, 1)[0]
    keep = np.abs(f) <= 1e-10 * v
    x, fp_abs = x[keep], np.abs(fp[keep])

    out = []
    fp_tol = 1e-8 * sig * v
    # the two kinds of brackets can locate the same zero; merge after sorting
    for j in np.argsort(x, kind="stable"):
        x0 = float(x[j])
        if out and abs(out[-1][0] - x0) < 1e-6 * max(1.0, abs(x0)):
            continue
        if fp_abs[j] > fp_tol:
            mult = 1
        else:
            if abs(x0) > 1e-8:
                raise DiagnosticFailure(f"real zero at {x0:.6g} is not simple")
            fpp = abs(_target(m, "F''", 0.0, 0)[0][0])
            if fpp <= 1e-8 * sig * sig * v:
                raise DiagnosticFailure("zero at the origin is deeper than multiplicity 2")
            mult = 2
        out.append((x0, mult))
    return out


def _reflected_on_grid(measure: StieltjesMeasure):
    """(C >= 0, S >= 0) on the grid [0, 20 pi max(1, 1/sigma)) of step pi / (50 sigma), from one pass.

    x = 0 is left out of the sine check, since S(0) = 0.
    """
    sig = measure.sigma
    grid = np.arange(0.0, 20.0 * math.pi * max(1.0, 1.0 / sig), math.pi / (50.0 * sig))
    values = _grid_moments(_reflected(measure), grid, 0)[0][0]
    slack = HYPOTHESIS_TOL * measure.tol_scale
    return bool(np.min(values.real) >= -slack), bool(np.min(values[1:].imag) >= -slack)


def s_nonneg_on_grid(measure: StieltjesMeasure) -> bool:
    return _reflected_on_grid(measure)[1]


def _in_borderline_range(measure: StieltjesMeasure) -> bool:
    """0 < F(0) < mu(sigma - 0) - mu(0), with a margin of MASS_TOL * tol_scale."""
    edge = MASS_TOL * measure.tol_scale
    return edge < measure.total_mass < measure.left_limit_mass - edge


def find_imaginary_zero(measure: StieltjesMeasure):
    """The unique purely imaginary zero i y* (y* < 0), if the mass lies in the
    open borderline range 0 < F(0) < mu(sigma-0) - mu(0); otherwise None.

    Requires the sine hypothesis S >= 0 on the grid, and raises
    HypothesisViolation without it.
    """
    if not s_nonneg_on_grid(measure):
        raise HypothesisViolation("S(x) >= 0 failed on the grid")
    if not _in_borderline_range(measure):
        return None
    return _imaginary_zero(measure)


def _imaginary_zero(measure: StieltjesMeasure) -> float:
    """y* of the borderline range, without checking the hypothesis or the range.

    g(y) = F(iy) e^{sigma y} is strictly increasing on (-inf, 0] under the
    sine hypothesis, with g(0) = F(0) > 0 and g(-inf) = F(0) - left-limit
    mass < 0.  A doubling bracket holds its one root, which Newton steps on
    g'(y) = (sigma F(iy) + i F'(iy)) e^{sigma y} locate.
    """

    def g(y):
        return _target(measure, "F", complex(0.0, y), 0)[0][0].real

    y_hi, g_hi = 0.0, measure.total_mass
    y_lo = -1.0
    for _ in range(200):
        g_lo = g(y_lo)
        if g_lo < 0.0:
            break
        y_hi, g_hi = y_lo, g_lo
        y_lo *= 2.0
    else:
        raise DiagnosticFailure("failed to bracket the imaginary zero")

    def slope(y, _):
        f, fp = _target(measure, "F", 1j * y, 1)[0]
        return f.real, measure.sigma * f.real - fp.imag

    y0 = y_lo + (y_hi - y_lo) * g_lo / (g_lo - g_hi)  # secant start
    y_star = float(_bracketed_newton(slope, y_lo, y_hi, y0)[0])
    if abs(g(y_star)) > ZERO_TOL * measure.tol_scale:
        raise DiagnosticFailure("Newton iteration did not drive |F(iy)| e^{sigma y} to zero")
    return y_star


def delta_xi(measure: StieltjesMeasure, xi: float, x):
    """Delta(x) + xi (G^2 + H^2) / (xi^2 + x^2), the compensated Wronskian
    that stays nonnegative when the single lower zero -i xi is divided out."""
    x = np.asarray(x, dtype=float)
    rt = real_transforms(measure, x, order=1)
    out = rt.Delta + xi * (rt.G**2 + rt.H**2) / (xi * xi + x * x)
    return out if out.ndim else float(out)


# -- classification ------------------------------------------------------------

VERDICT_IDENTICALLY_ZERO = "identically_zero"
VERDICT_TRIVIAL = "trivial_constant_phase"
VERDICT_HB_BAR = "hb_bar_nontrivial"
VERDICT_HB = "hb"
VERDICT_ONE_LOWER_ZERO = "one_lower_zero"
VERDICT_HYPOTHESIS_VIOLATED = "hypothesis_violated"


@dataclass(frozen=True)
class Classification:
    verdict: str
    real_zeros: tuple
    lower_zero: complex | None
    defect: float
    c_nonneg: bool
    s_nonneg: bool
    lower_count: int | None


def classify(measure: StieltjesMeasure, rect: Rectangle | None = None) -> Classification:
    """Classify F against the lower-half-plane zero criteria.

    Checks the cosine hypothesis (C >= 0 on a grid) and the sine hypothesis
    (S >= 0 for x > 0 with the mass trichotomy); confirms the implied zero
    structure by an argument-principle count over an axis-avoiding rectangle
    and a real-axis scan over its x-range.  Hypotheses are grid-verified only.
    """
    if rect is None:
        rect = Rectangle(*DEFAULT_LOWER_RECT)
    real_interval = (rect.x_min, rect.x_max)

    a1, b1 = measure.plateau_interval()
    defect = 0.5 * (a1 + b1)

    if measure.is_zero:
        return Classification(VERDICT_IDENTICALLY_ZERO, (), None, 0.0, True, True, None)

    if len(measure.atoms) == 1 and (measure.density is None or measure.density.support() is None):
        loc = measure.atoms[0].t
        # F = c e^{i loc z}: a pure phase; constant for loc = 0, otherwise
        # zero-free with strict phase contraction
        verdict = VERDICT_TRIVIAL if loc == 0.0 else VERDICT_HB
        return Classification(verdict, (), None, defect, True, True, 0)

    c_ok, s_ok = _reflected_on_grid(measure)

    if not (c_ok or s_ok):
        real = tuple(find_real_zeros(measure, real_interval))
        return Classification(VERDICT_HYPOTHESIS_VIOLATED, real, None, defect, c_ok, s_ok, None)

    expected_lower = 0
    y_star = None
    if not c_ok and _in_borderline_range(measure):
        # s_ok holds here, the hypothesis find_imaginary_zero would check again
        y_star = _imaginary_zero(measure)
        expected_lower = 1

    count_rect = rect
    if y_star is not None and not rect.contains(complex(0.0, y_star)):
        count_rect = Rectangle(rect.x_min, rect.x_max, min(rect.y_min, 1.5 * y_star), rect.y_max)
    counted = count_zeros(measure, count_rect, "F").count
    if counted != expected_lower:
        raise DiagnosticFailure(
            f"counted {counted} lower zeros but the hypothesis implies {expected_lower}"
        )

    real = tuple(find_real_zeros(measure, real_interval))
    if expected_lower == 1:
        return Classification(
            VERDICT_ONE_LOWER_ZERO, real, complex(0.0, y_star), defect, c_ok, s_ok, counted
        )
    verdict = VERDICT_HB if not real else VERDICT_HB_BAR
    return Classification(verdict, real, None, defect, c_ok, s_ok, counted)


@dataclass(frozen=True)
class DerivativeZeroReport:
    ok: bool
    lower_count: int
    winding_residual: float
    real_min: float
    real_argmin: float
    note: str


def check_derivative_hb(
    measure: StieltjesMeasure,
    order: int,
    rect: Rectangle | None = None,
    real_interval: tuple | None = None,
) -> DerivativeZeroReport:
    """Verify F^(k) (k in {1, 2}) has no lower-half-plane and no real zeros.

    The real-axis check reports the refined minimum of |F^(k)| over the
    interval; the lower half-plane is checked by winding count over the
    axis-avoiding rectangle.
    """
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    if measure.is_zero:
        return DerivativeZeroReport(True, 0, 0.0, 0.0, 0.0, VERDICT_IDENTICALLY_ZERO)
    if rect is None:
        rect = Rectangle(*DEFAULT_LOWER_RECT)
    if real_interval is None:
        real_interval = (rect.x_min, rect.x_max)
    target = "F'" if order == 1 else "F''"
    result = count_zeros(measure, rect, target)

    a, b = float(real_interval[0]), float(real_interval[1])
    grid = np.linspace(a, b, max(int((b - a) * 40 * measure.sigma / math.pi), 64) + 1)
    vals = np.abs(_target(measure, target, grid, 0)[0][0])
    best = float(np.min(vals))
    best_x = float(grid[int(np.argmin(vals))])
    mid = np.arange(1, len(grid) - 1)
    minima = mid[(vals[mid] <= vals[mid - 1]) & (vals[mid] <= vals[mid + 1])]
    if minima.size:
        slope = lambda x, _: _modulus_slope(*_target(measure, target, x, 2)[0])
        x = _bracketed_newton(slope, grid[minima - 1], grid[minima + 1], grid[minima])
        refined = np.abs(_target(measure, target, x, 0)[0][0])
        j = int(np.argmin(refined))
        if refined[j] < best:
            best = float(refined[j])
            best_x = float(x[j])
    ok = result.count == 0 and best > ZERO_TOL * measure.tol_scale
    if ok:
        note = ""
    elif result.count != 0:
        note = "lower-half-plane zeros found"
    else:
        note = f"|derivative| drops to {best:.3e} near x = {best_x:.6g}"
    return DerivativeZeroReport(
        ok=ok,
        lower_count=result.count,
        winding_residual=result.winding_residual,
        real_min=best,
        real_argmin=best_x,
        note=note,
    )
