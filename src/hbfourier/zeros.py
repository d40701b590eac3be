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
from dataclasses import dataclass

import numpy as np
from scipy import optimize

from .measure import StieltjesMeasure, mass_summary
from .inequality import HYPOTHESIS_TOL
from .transforms import (
    _grid_moments,
    _reflected,
    eval_F,
    eval_F_derivative,
    eval_h_alpha_scaled,
    real_transforms,
)

#: |target| must exceed this multiple of the total variation on the boundary
BOUNDARY_MODULUS_FACTOR = 1e-12
#: default axis-avoiding window for "open lower half-plane" checks
DEFAULT_LOWER_RECT = (-20.0, 20.0, -6.0, -1e-3)


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


def _winding_count(fn, rect: Rectangle, min_log_modulus: float, max_points: int = 400_000) -> ZeroCountResult:
    """Winding number of fn along the rectangle boundary (counterclockwise).

    fn maps an array of points to (mantissas, log-scales); only the mantissa
    phase and the total log-modulus are used.  Sampling starts proportional
    to the perimeter and bisects every interval whose phase increment reaches
    pi/2, all midpoints of a round in one call of fn, so the final polygonal
    path cannot wrap the origin undetected unless the true phase moves by
    >= pi between samples.
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
        return mant

    ws = probe(zs)
    for _ in range(64):
        # the quotient of neighbouring samples cannot overflow, unlike a product
        split = np.flatnonzero(np.abs(np.angle(np.roll(ws, -1) / ws)) >= 0.5 * math.pi)
        if not split.size:
            break
        zm = 0.5 * (zs[split] + np.roll(zs, -1)[split])
        zs = np.insert(zs, split + 1, zm)
        ws = np.insert(ws, split + 1, probe(zm))
        if len(zs) > max_points:
            raise DiagnosticFailure("contour refinement exceeded the sample budget")
    else:
        raise DiagnosticFailure("contour refinement did not converge")

    dphi = np.angle(np.roll(ws, -1) * np.conj(ws))
    winding = float(np.sum(dphi) / (2.0 * math.pi))
    count = int(round(winding))
    residual = abs(winding - count)
    if residual > 0.25:
        raise DiagnosticFailure(f"non-integer winding number {winding:.3f} after refinement")
    if count < 0:
        raise DiagnosticFailure(f"negative winding count {count}; the target is not analytic inside")
    return ZeroCountResult(count=count, winding_residual=residual, boundary_samples=len(zs))


def _target_fn(measure: StieltjesMeasure, target: str):
    """Scaled evaluator z -> (mantissa, log-scale) over arrays, for a named target."""
    if target == "F/z" and abs(measure.total_mass) > 1e-12 * max(1.0, measure.total_variation):
        raise ValueError("target F/z requires F(0) = 0")
    forms = {
        "F": (0, lambda z, T: T[0]),
        "zF": (0, lambda z, T: z * T[0]),
        "F/z": (0, lambda z, T: T[0] / z),
        "F'": (1, lambda z, T: 1j * T[1]),
        "F''": (2, lambda z, T: -T[2]),
    }
    if target not in forms:
        raise ValueError(f"unknown target {target!r}")
    order, form = forms[target]

    def fn(z):
        T, s = _grid_moments(measure, z, order)
        return form(z, T), s

    return fn


def count_zeros(measure: StieltjesMeasure, rect: Rectangle, target: str = "F") -> ZeroCountResult:
    """Argument-principle zero count of the target inside the rectangle."""
    v = max(measure.total_variation, 1e-300)
    fn = _target_fn(measure, target)
    return _winding_count(fn, rect, min_log_modulus=math.log(BOUNDARY_MODULUS_FACTOR * v))


def count_h_alpha_zeros(measure: StieltjesMeasure, alpha: float, rect: Rectangle) -> ZeroCountResult:
    """Zero count of h_alpha = G cos(alpha) - H sin(alpha) inside the rectangle."""
    v = max(measure.total_variation, 1e-300)
    fn = lambda z: eval_h_alpha_scaled(measure, alpha, z)
    return _winding_count(fn, rect, min_log_modulus=math.log(BOUNDARY_MODULUS_FACTOR * v))


def locate_zero(measure: StieltjesMeasure, rect: Rectangle, target: str = "F") -> complex:
    """Locate the unique zero of the target inside the rectangle.

    Counts first (must be exactly 1), then polishes with Newton iterations
    from the rectangle center, falling back to quadrant subdivision if Newton
    leaves the window.
    """
    if target not in ("F", "zF", "F/z"):
        raise ValueError("locate_zero supports the F-family targets only")
    result = count_zeros(measure, rect, target)
    if result.count != 1:
        raise ValueError(f"rectangle holds {result.count} zeros; need exactly 1")

    def newton_from(z0: complex, box: Rectangle):
        z = z0
        for _ in range(60):
            T, _ = _grid_moments(measure, z, 1)
            f = T[0]
            fp = 1j * T[1]
            if target == "zF":
                f, fp = z * f, f + z * fp
            elif target == "F/z":
                f, fp = f / z, (fp * z - f) / (z * z)
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
        z0 = complex(0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max))
        z_star = newton_from(z0, rect)
        if z_star is not None and rect.contains(z_star, pad=1e-9):
            mant, _ = _grid_moments(measure, z_star, 0)
            if abs(mant[0]) <= 1e-9 * max(measure.total_variation, 1.0):
                return z_star
        sub = list(box.quadrants())
        counts = []
        for q in sub:
            try:
                counts.append(count_zeros(measure, q, target).count)
            except BoundaryZeroError:
                counts.append(-1)  # zero sits on the cut; retry after shrink
        hits = [q for q, c in zip(sub, counts) if c == 1]
        if not hits:
            raise DiagnosticFailure("zero localization lost the zero during subdivision")
        box = hits[0]
    raise DiagnosticFailure("zero localization did not converge")


# -- real axis -----------------------------------------------------------------


def find_real_zeros(measure: StieltjesMeasure, interval, with_multiplicity: bool = True):
    """Real zeros of F on a bounded interval, as (location, multiplicity) pairs.

    Candidates come from two passes that are merged: bracketed sign changes of
    G followed by |F|^2 minimization, and local minima of |F|^2 on the scan
    grid (G need not change sign at a tangential zero).  A candidate is
    accepted when |F| <= 1e-10 * total variation.  Multiplicity 1 is certified
    by |F'| away from 0; a double zero is admitted at x = 0 only, and anything
    deeper raises DiagnosticFailure.
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
    rt = real_transforms(m, grid, order=0)
    G = rt.G
    absF2 = rt.G**2 + rt.H**2

    def abs_f(x):
        val = eval_F(m, complex(x))
        return abs(val) ** 2

    candidates = []
    sign_change = np.where(np.sign(G[:-1]) * np.sign(G[1:]) < 0)[0]
    for i in sign_change:
        try:
            root = optimize.brentq(lambda t: _g_at(m, t), grid[i], grid[i + 1], xtol=1e-13)
        except ValueError:
            continue
        candidates.append((max(grid[i], root - step), min(grid[i + 1], root + step), root))
    for i in range(1, len(grid) - 1):
        if absF2[i] <= absF2[i - 1] and absF2[i] <= absF2[i + 1]:
            candidates.append((grid[i - 1], grid[i + 1], grid[i]))

    found = []
    tol_f = 1e-10 * v
    for lo, hi, mid in candidates:
        res = optimize.minimize_scalar(abs_f, bounds=(lo, hi), method="bounded", options={"xatol": 1e-12})
        x0 = float(res.x)
        # Newton polish on F/F' sharpens the location to machine precision
        for _ in range(3):
            fval = eval_F(m, complex(x0))
            fp = eval_F_derivative(m, complex(x0), 1)
            if fp == 0:
                break
            shift = (fval / fp).real
            if abs(shift) > step:
                break
            x0 -= shift
        if not (a - 1e-12 <= x0 <= b + 1e-12):
            continue
        if abs(eval_F(m, complex(x0))) > tol_f:
            continue
        found.append(x0)
    # the two passes can locate the same zero; merge after sorting
    accepted = []
    for x0 in sorted(found):
        if accepted and abs(accepted[-1][0] - x0) < 1e-6 * max(1.0, abs(x0)):
            continue
        accepted.append((x0, 0))

    out = []
    fp_tol = 1e-8 * sig * v
    for x0, _ in accepted:
        fp = abs(eval_F_derivative(m, complex(x0), 1))
        if fp > fp_tol:
            mult = 1
        else:
            if abs(x0) > 1e-8:
                raise DiagnosticFailure(f"real zero at {x0:.6g} is not simple")
            fpp = abs(eval_F_derivative(m, complex(0.0), 2))
            if fpp <= 1e-8 * sig * sig * v:
                raise DiagnosticFailure("zero at the origin is deeper than multiplicity 2")
            mult = 2
        out.append((x0, mult) if with_multiplicity else (x0, 0))
    return out


def _g_at(measure: StieltjesMeasure, x: float) -> float:
    return float(np.real(eval_F(measure, complex(float(x)))))


def _reflected_on_grid(measure: StieltjesMeasure, x_max: float | None):
    """C + iS on the grid [0, x_max) of step pi / (50 sigma), and the sign-check slack."""
    sig = measure.sigma
    if x_max is None:
        x_max = 20.0 * math.pi * max(1.0, 1.0 / sig)
    grid = np.arange(0.0, x_max, math.pi / (50.0 * sig))
    values = _grid_moments(_reflected(measure), grid, 0)[0][0]
    return values, HYPOTHESIS_TOL * max(measure.total_variation, 1.0)


def s_nonneg_on_grid(measure: StieltjesMeasure, x_max: float | None = None) -> bool:
    values, slack = _reflected_on_grid(measure, x_max)
    return bool(np.min(values[1:].imag) >= -slack)  # x = 0 is left out: S(0) = 0


def c_nonneg_on_grid(measure: StieltjesMeasure, x_max: float | None = None) -> bool:
    values, slack = _reflected_on_grid(measure, x_max)
    return bool(np.min(values.real) >= -slack)


def find_imaginary_zero(measure: StieltjesMeasure):
    """The unique purely imaginary zero i y* (y* < 0), if the mass lies in the
    open borderline range 0 < F(0) < mu(sigma-0) - mu(0); otherwise None.

    g(y) = F(iy) e^{sigma y} is strictly increasing on (-inf, 0] under the
    sine hypothesis, with g(0) = F(0) and g(-inf) = F(0) - left-limit mass, so
    plain bisection on a doubling bracket is reliable.
    """
    if not s_nonneg_on_grid(measure):
        raise HypothesisViolation("S(x) >= 0 failed on the grid")
    f0 = measure.total_mass
    left = measure.left_limit_mass
    edge = 1e-12 * max(measure.total_variation, 1.0)
    if not (f0 > edge and f0 < left - edge):
        return None

    def g(y: float) -> float:
        mant, _ = _grid_moments(measure, complex(0.0, y), 0)
        return mant[0].real

    y_hi = 0.0
    y_lo = -1.0
    for _ in range(200):
        if g(y_lo) < 0.0:
            break
        y_hi = y_lo
        y_lo *= 2.0
    else:
        raise DiagnosticFailure("failed to bracket the imaginary zero")
    y_star = optimize.bisect(g, y_lo, y_hi, xtol=1e-14, maxiter=300)
    if abs(g(y_star)) > 1e-10 * max(measure.total_variation, 1.0):
        raise DiagnosticFailure("bisection did not drive |F(iy)| e^{sigma y} to zero")
    return float(y_star)


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


def classify(
    measure: StieltjesMeasure,
    rect: Rectangle | None = None,
    real_interval: tuple | None = None,
) -> Classification:
    """Classify F against the lower-half-plane zero criteria.

    Checks the cosine hypothesis (C >= 0 on a grid) and the sine hypothesis
    (S >= 0 for x > 0 with the mass trichotomy); confirms the implied zero
    structure by an argument-principle count over an axis-avoiding rectangle
    and a real-axis scan.  Hypotheses are grid-verified only.
    """
    if rect is None:
        rect = Rectangle(*DEFAULT_LOWER_RECT)
    if real_interval is None:
        real_interval = (rect.x_min, rect.x_max)

    summary = mass_summary(measure)
    defect = 0.5 * (summary.support_interval[0] + summary.support_interval[1])

    if measure.is_zero:
        return Classification(VERDICT_IDENTICALLY_ZERO, (), None, 0.0, True, True, None)

    if len(measure.atoms) == 1 and (measure.density is None or measure.density.support() is None):
        loc = measure.atoms[0].t
        # F = c e^{i loc z}: a pure phase; constant for loc = 0, otherwise
        # zero-free with strict phase contraction
        verdict = VERDICT_TRIVIAL if loc == 0.0 else VERDICT_HB
        return Classification(verdict, (), None, defect, True, True, 0)

    c_ok = c_nonneg_on_grid(measure)
    s_ok = s_nonneg_on_grid(measure)

    if not (c_ok or s_ok):
        real = tuple(find_real_zeros(measure, real_interval))
        return Classification(VERDICT_HYPOTHESIS_VIOLATED, real, None, defect, c_ok, s_ok, None)

    expected_lower = 0
    y_star = None
    if not c_ok:
        f0 = summary.total_mass
        left = summary.left_limit_mass
        edge = 1e-12 * max(measure.total_variation, 1.0)
        if f0 > edge and f0 < left - edge:
            y_star = find_imaginary_zero(measure)
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
    vals = np.abs(eval_F_derivative(measure, grid, order))

    def f_abs(x):
        return abs(eval_F_derivative(measure, complex(x), order))

    best = float(np.min(vals))
    best_x = float(grid[int(np.argmin(vals))])
    for i in range(1, len(grid) - 1):
        if vals[i] <= vals[i - 1] and vals[i] <= vals[i + 1]:
            res = optimize.minimize_scalar(
                f_abs, bounds=(grid[i - 1], grid[i + 1]), method="bounded", options={"xatol": 1e-12}
            )
            if res.fun < best:
                best = float(res.fun)
                best_x = float(res.x)
    ok = result.count == 0 and best > 1e-10 * max(measure.total_variation, 1.0)
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
