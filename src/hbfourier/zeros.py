"""Zero location and Hermite-Biehler classification for the transforms.

Counting uses the argument principle over axis-avoiding rectangles: the
boundary is sampled from a start spaced at most pi / (4 sigma), then
adaptively until consecutive phase increments stay below pi/2, and the
winding number is the (integer) sum of principal-branch phase
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
    _NEWTON_XTOL,
    _ORIGIN_RADIUS,
    _bracketed_newton,
    _grid_minima,
    _grid_moments,
    _mirrored_rows,
    _omega_rows,
    _one_side,
    _reflected,
    eval_h_alpha_scaled,
)

#: |target| must exceed this multiple of its bound on the boundary (see `_boundary_floor`)
BOUNDARY_MODULUS_FACTOR = 1e-12
#: |z^n F^(k)| below this, times its scale sigma^(k-n) V (`_target_scale`), counts as a zero
ZERO_TOL = 1e-10
#: the evaluator's error, relative to the scale of a target, that a certified residual allows for;
#: the transforms' tests hold it to 1e-14 against 40-digit references
_ROUNDING = 1e-13
#: boundary samples a contour count may refine to
_MAX_CONTOUR_POINTS = 400_000
#: grid points a real-axis scan may allocate
_MAX_SCAN_POINTS = 1_000_000
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
        _real_interval(self.x_min, self.x_max)
        _real_interval(self.y_min, self.y_max)

    @property
    def corners(self):
        return (
            complex(self.x_min, self.y_min),
            complex(self.x_max, self.y_min),
            complex(self.x_max, self.y_max),
            complex(self.x_min, self.y_max),
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


def _winding_count(fn, rect: Rectangle, min_log_modulus: float, unit: float) -> ZeroCountResult:
    """Winding number of fn along the rectangle boundary (counterclockwise).

    fn maps an array of points to (mantissas, log-scales) of a function of
    type 1 / unit; only the mantissa phase and the total log-modulus are used.
    Sampling starts at most pi unit / 4 apart, and at least 64 points per
    edge, since the phase turns by up to 1 / unit per unit of length: from a
    coarser start a step over a turn of about 2 pi aliases to no turn, and no
    round refines it.  A start over _MAX_CONTOUR_POINTS raises ValueError
    before anything is allocated.  Every interval whose phase increment reaches
    pi/2 is bisected, all midpoints of a round in one call of fn, so the final
    polygonal path cannot wrap the origin undetected unless the true phase
    moves by >= pi between samples.

    The same samples give the zero sum (Delves & Lyness, Math. Comp. 21,
    1967): each segment adds its midpoint times its increment of log w, log q
    plus the increment of the log-scale for the quotient q of its end
    mantissas, so that scales near 700 cost the increments no digits.  This
    sum S_h is the midpoint rule on every edge, off by c h^2 + O(h^4) for the
    spacing h of each edge.  Where the start needed no refinement and every
    edge holds an even number of samples, every other sample is the same rule
    at spacing 2h, S_2h, and the zero sum is (4 S_h - S_2h) / 3, in which the
    h^2 terms cancel; a refined contour keeps S_h, since its spacings are not
    uniform along an edge and the h^2 terms do not cancel there.
    """
    spacing = 0.25 * math.pi * unit
    # floats, so an edge whose length overflows to inf is refused too
    width, height = (max(side / spacing, 64.0) for side in (rect.x_max - rect.x_min, rect.y_max - rect.y_min))
    start = 2.0 * (width + height)
    if not start <= _MAX_CONTOUR_POINTS:
        raise ValueError(f"contour start needs about {start:.3g} points, over the budget of {_MAX_CONTOUR_POINTS}")
    counts = [math.ceil(n) for n in (width, height) * 2]
    edge = np.repeat(np.arange(4), counts)  # the edge of each sample
    first = np.cumsum([0] + counts[:3])
    corners = np.array(rect.corners)
    # sample i of an edge of n is at i * (1 / n) along it, as np.linspace(0, 1, n + 1) puts it
    t = (np.arange(edge.size) - first[edge]) * (1.0 / np.array(counts, dtype=float))[edge]
    zs = corners[edge] + t * (corners[[1, 2, 3, 0]] - corners)[edge]

    def probe(z):
        mant, scale = fn(z)
        with np.errstate(divide="ignore"):
            logmod = np.log(np.abs(mant)) + scale
        low = np.flatnonzero(logmod < min_log_modulus)
        if low.size:
            raise BoundaryZeroError(
                f"|target| below the boundary floor at z = {complex(z[low[0]]):.6g}; nudge the rectangle by ~1e-6"
            )
        return mant, scale

    ws, scales = probe(zs)
    for rounds in range(64):
        nxt = np.arange(1, len(zs) + 1)  # each sample's successor along the boundary
        nxt[-1] = 0
        # the quotient of neighbouring samples cannot overflow, unlike a product
        q = ws[nxt] / ws
        dphi = np.angle(q)
        split = np.flatnonzero(np.abs(dphi) >= 0.5 * math.pi)
        if not split.size:
            break
        zm = 0.5 * (zs[split] + zs[nxt[split]])
        zs = np.insert(zs, split + 1, zm)
        wm, em = probe(zm)
        ws, scales = np.insert(ws, split + 1, wm), np.insert(scales, split + 1, em)
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
    dlog = np.log(np.abs(q)) + (scales[nxt] - scales) + 1j * dphi
    zero_sum = complex(np.sum(0.5 * (zs + zs[nxt]) * dlog) / (2j * math.pi))
    if rounds == 0 and not any(n % 2 for n in counts):
        # the start alone, every edge even: its corners are among every other sample
        ends = np.append(zs[2::2], zs[0])
        coarse = complex(np.sum(0.5 * (zs[::2] + ends) * (dlog[::2] + dlog[1::2])) / (2j * math.pi))
        zero_sum = (4.0 * zero_sum - coarse) / 3.0
    return ZeroCountResult(count=count, winding_residual=residual, boundary_samples=len(zs), zero_sum=zero_sum)


def _target_scale(measure: StieltjesMeasure, target: str) -> float:
    """sigma^(k-n) V, `StieltjesMeasure.bound(k - n)`: the scale of the target z^n F^(k).

    It carries the unit of x to the power n - k, so a threshold that is a
    constant times it follows the target when t and x are rescaled against
    each other.
    """
    k, n = _TARGETS[target]
    return measure.bound(k - n)


def _boundary_floor(measure: StieltjesMeasure, target: str) -> float:
    """log of the smallest |target| a contour may pass, BOUNDARY_MODULUS_FACTOR times `_target_scale`."""
    return math.log(BOUNDARY_MODULUS_FACTOR * max(_target_scale(measure, target), 1e-300))


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
    return _winding_count(_target_fn(measure, target), rect, _boundary_floor(measure, target), 1.0 / measure.sigma)


def count_h_alpha_zeros(measure: StieltjesMeasure, alpha: float, rect: Rectangle) -> ZeroCountResult:
    """Zero count of h_alpha = G cos(alpha) - H sin(alpha) inside the rectangle."""
    fn = lambda z: eval_h_alpha_scaled(measure, alpha, z)
    return _winding_count(fn, rect, _boundary_floor(measure, "F"), 1.0 / measure.sigma)  # h_alpha's type and V are F's


def _newton_residual(f, fp, d, m2: float, scale: float) -> float:
    """A bound on |w(x + d)| from w(x) = f and w'(x) = fp, where |w''| <= m2 between.

    Taylor's theorem gives w(x + d) = f + d fp + R with |R| <= m2 |d|^2 / 2.
    A Newton step d = -f / fp leaves |f + d fp| at rounding; the evaluator's
    own error on f and fp, which a fresh evaluation at x + d would show too,
    is allowed for by _ROUNDING times the scale of w.
    """
    return abs(f + d * fp) + 0.5 * m2 * abs(d) ** 2 + _ROUNDING * scale


def locate_zero(measure: StieltjesMeasure, rect: Rectangle, target: str = "F") -> complex:
    """Locate the unique zero of the target inside the rectangle.

    Counts first (must be exactly 1), then refines with Newton iterations
    from the count's zero sum, which with one zero inside estimates the zero
    itself, or from the rectangle centre where that estimate lies outside;
    it falls back to quadrant subdivision if Newton leaves the window.  A
    zero is accepted where |target| e^{-sigma max(0, -Im z)} <= ZERO_TOL
    sigma^(k-n) V, the target's scale (`_target_scale`): V for F, V / sigma
    for zF, sigma V for F/z; below the axis V bounds |F| e^{-sigma |Im z|}.
    Its lengths are in the unit 1 / sigma: Newton stops at a step below
    1e-14 (1 / sigma + |z|), may leave the rectangle by 1 / sigma, and its
    zero by 1e-9 / sigma.

    The acceptance is certified from the last Newton step d, with no
    evaluation at the zero: `_newton_residual` bounds the mantissa there by
    |w + d w'| + M |d|^2 / 2 plus a rounding allowance, times e^{2 sigma |d|}
    for the change of the scale E along the step.  M e^E bounds |w''|: for
    F, sigma^2 V; for zF = z F'' + 2 F', (|z| + 2 |d|) sigma^2 V + 2 sigma V
    by Leibniz's rule; for F / z = int_0^1 F'(u z) du, sigma^3 V / 3.  The
    allowance is _ROUNDING times the scale of w: V, (|z| + |d|) V, sigma V.
    """
    if target not in ("F", "zF", "F/z"):
        raise ValueError("locate_zero supports the F-family targets only")
    result = count_zeros(measure, rect, target)
    if result.count != 1:
        raise ValueError(f"rectangle holds {result.count} zeros; need exactly 1")
    sig = measure.sigma
    unit = 1.0 / sig
    V = measure.bound()
    accept = _target_scale(measure, target)

    def newton_from(z0: complex, box: Rectangle):
        """(z*, bound on the mantissa of the target at z*), or None where Newton fails."""
        z = z0
        for _ in range(60):
            (f, fp), _ = _target(measure, target, z, 1)
            if fp == 0:
                return None
            step = f / fp
            z_new = z - step
            if not box.contains(z_new, pad=unit):
                return None
            if abs(step) < _NEWTON_XTOL * (unit + abs(z_new)):
                d = abs(z_new - z)
                if target == "F":
                    m2, scale = sig * sig * V, V
                elif target == "zF":
                    m2, scale = (abs(z_new) + 2.0 * d) * sig * sig * V + 2.0 * sig * V, (abs(z_new) + d) * V
                else:
                    m2, scale = sig**3 * V / 3.0, sig * V
                return z_new, _newton_residual(f, fp, z_new - z, m2, scale) * math.exp(2.0 * sig * d)
            z = z_new
        return None

    box = rect
    for _ in range(40):
        z0 = result.zero_sum
        if not box.contains(z0):
            z0 = complex(0.5 * (box.x_min + box.x_max), 0.5 * (box.y_min + box.y_max))
        found = newton_from(z0, rect)
        if found is not None and rect.contains(found[0], pad=1e-9 * unit) and found[1] <= ZERO_TOL * accept:
            return found[0]
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


def _real_interval(a, b):
    """(a, b) as floats; ValueError unless both are finite with a < b."""
    a, b = float(a), float(b)
    if not (math.isfinite(a) and math.isfinite(b) and a < b):
        raise ValueError(f"real interval ({a}, {b}) must be finite with a < b")
    return a, b


def _real_minima(measure: StieltjesMeasure, target: str, a: float, b: float):
    """(grid, w on the grid, candidates) of the real-axis scan of w = F^(k), a `_TARGETS` entry.

    The grid spans [a, b] in steps of at most pi / (40 sigma).  Two kinds of
    brackets can hold a zero of w: sign changes of Re w, and local minima of
    |w|, where both grid ends count as minima, so that a zero within a step
    of an end is bracketed even where Re w only touches 0.  Neither kind
    alone suffices: two zeros closer than about two grid steps can share one
    grid minimum, while Re w still changes sign at each of them.  Since
    |w'| <= sigma^(k+1) V, |w| stays above 10 ZERO_TOL sigma^k V within a
    step of a grid point above the floor sigma^(k+1) V step + 10 ZERO_TOL
    sigma^k V; a bracket with no grid point below the floor holds no point
    that the acceptance threshold ZERO_TOL sigma^k V admits, and is dropped.
    One `_bracketed_newton` call solves every bracket left: a sign change for
    the root of Re w it is sure to hold, from the secant root, and a minimum
    for the root of Re(conj(w) w'), where |w| is least, from the grid point.
    The slope would not do for a sign change: a cell that also holds the
    maximum of |w| between a close pair gives it the same sign at both ends.
    The candidates are the solutions, unsorted and untested; without a
    bracket they are empty, at no evaluator call.  Raises ValueError unless
    a < b are finite, and before allocating a grid of more than
    _MAX_SCAN_POINTS points.
    """
    a, b = _real_interval(a, b)
    k, _ = _TARGETS[target]
    sig = measure.sigma
    step = math.pi / (40.0 * sig)
    # a float, so a span that overflows to inf is refused too
    span = (b - a) / step
    if not span < _MAX_SCAN_POINTS - 1:
        raise ValueError(f"real scan needs about {span:.3g} points, over the budget of {_MAX_SCAN_POINTS}")
    n = max(math.ceil(span), 8)
    grid = np.linspace(a, b, n + 1)
    w = _target(measure, target, grid, 0)[0][0]
    real = w.real
    floor = measure.bound(k + 1) * step + 10.0 * ZERO_TOL * measure.bound(k)
    absw2 = real**2 + w.imag**2
    low = absw2 <= floor * floor
    roots = np.flatnonzero((np.sign(real[:-1]) * np.sign(real[1:]) < 0) & (low[:-1] | low[1:]))
    minima, below, above = _grid_minima(absw2, low)
    lo = np.concatenate([grid[roots], grid[below]])
    hi = np.concatenate([grid[roots + 1], grid[above]])
    secant = grid[roots] - real[roots] * (grid[roots + 1] - grid[roots]) / (real[roots + 1] - real[roots])
    # +-1 orients Re w to rise through the root of a sign change; 0 marks a minimum
    orient = np.concatenate([np.sign(real[roots + 1]), np.zeros(minima.size)])

    def solve(x, j):
        rows = _target(measure, target, x, 2)[0]
        slope, slope_p = _modulus_slope(*rows)
        s = orient[j]
        return np.where(s != 0, s * rows[0].real, slope), np.where(s != 0, s * rows[1].real, slope_p)

    return grid, w, _bracketed_newton(solve, lo, hi, np.concatenate([secant, grid[minima]]), 1.0 / sig)


def find_real_zeros(measure: StieltjesMeasure, interval):
    """Real zeros of F on a bounded interval, as (location, multiplicity) pairs.

    The candidates of `_real_minima` are accepted where |F| <= ZERO_TOL V;
    without a candidate there is no further evaluator call.
    Where two brackets located the same zero, within 1e-6 max(1 / sigma, |x|),
    the candidate of least |F| stands for it: a minimum's solution is
    conditioned by |F'|, a sign change's by |Re F'| only.  Multiplicity 1 is
    certified by |F'| away from 0; a double zero is admitted at the origin
    only, sigma |x| <= `_ORIGIN_RADIUS`, and anything deeper raises DiagnosticFailure.
    Raises ValueError for an interval that is not finite with a < b, even
    for the zero measure, or whose scan would exceed the grid budget.
    """
    m = measure
    a, b = _real_interval(*interval)
    if m.is_zero:
        return []
    sig = m.sigma
    x = _real_minima(m, "F", a, b)[2]
    if not x.size:
        return []
    f, fp = _target(m, "F", x, 1)[0]
    keep = np.abs(f) <= ZERO_TOL * m.bound()
    x, f_abs, fp_abs = x[keep], np.abs(f[keep]), np.abs(fp[keep])
    picked = []
    for j in np.argsort(x, kind="stable"):
        if picked and abs(x[picked[-1]] - x[j]) < 1e-6 * max(1.0 / sig, abs(x[j])):
            if f_abs[j] < f_abs[picked[-1]]:
                picked[-1] = j
            continue
        picked.append(j)

    out = []
    fp_tol = 1e-8 * m.bound(1)
    for j in picked:
        x0 = float(x[j])
        if fp_abs[j] > fp_tol:
            mult = 1
        else:
            if sig * abs(x0) > _ORIGIN_RADIUS:
                raise DiagnosticFailure(f"real zero at {x0:.6g} is not simple")
            fpp = abs(_target(m, "F''", 0.0, 0)[0][0])
            if fpp <= 1e-8 * m.bound(2):
                raise DiagnosticFailure("zero at the origin is deeper than multiplicity 2")
            mult = 2
        out.append((x0, mult))
    return out


def _reflected_on_grid(measure: StieltjesMeasure, cosine: bool = True):
    """(C >= 0, S >= 0) on the grid k `StieltjesMeasure.check_step`, k < 1000, of [0, 20 pi / sigma), for every sigma.

    A grid value passes at -HYPOTHESIS_TOL V, V the total variation, which
    bounds |C| and |S|, and x = 0 is left out of the sine check, since
    S(0) = 0.  The verdict is that of evaluating every grid point, from far
    fewer.  One order-1 pass takes C, S and their derivatives at every 8th
    grid point and the last.  On a cell [a, b] of
    these nodes, f = C or S is at least H(x) - sigma^4 V (x - a)^2 (x - b)^2 / 24,
    H the cubic Hermite interpolant of the node values and slopes, since
    |f''''| <= int t^4 |d mu~| <= sigma^4 V for the reflected measure mu~ on
    [0, sigma].  A point whose bound is at least -slack / 2 passes: its
    value clears -slack by more than the evaluator's error, so evaluating it
    would pass too.  The other points, a NaN bound among them, go to one
    second call, which a point's batch does not change; only components not
    yet decided send points, so a component that fails at a node sends none.
    With cosine=False only S is checked, and the first entry is None.
    """
    grid = np.arange(1000) * measure.check_step
    slack = HYPOTHESIS_TOL * measure.total_variation
    nodes = np.append(np.arange(0, grid.size, 8), grid.size - 1)
    T = _grid_moments(_reflected(measure), grid[nodes], 1)[0]
    f, fp = _mirrored_rows(measure, 0.0, 0, grid[nodes], T)  # C + iS and C' + iS' at the nodes
    inner = np.flatnonzero(np.arange(nodes[-1]) % 8)  # the grid points inside the cells
    j = inner // 8  # and the cell of each
    a, width = grid[nodes[j]], grid[nodes[j + 1]] - grid[nodes[j]]
    s = (grid[inner] - a) / width
    r = 1.0 - s
    # the cubic Hermite basis in s: h00 f_a + h01 f_b + width (h10 f'_a + h11 f'_b)
    hermite = (1.0 + 2.0 * s) * r * r * f[j] + s * s * (3.0 - 2.0 * s) * f[j + 1]
    hermite += s * r * width * (r * fp[j] - s * fp[j + 1])
    remainder = measure.bound(4) * (s * r * width * width) ** 2 / 24.0
    verdicts, unsure = [], []
    for at_nodes, h, wanted in ((f.real, hermite.real, cosine), (f.imag[1:], hermite.imag, True)):
        ok = wanted and bool(np.all(at_nodes >= -slack))
        verdicts.append(ok)
        # a NaN bound fails the comparison, so its point is evaluated
        unsure.append(ok & ~(h - remainder >= -0.5 * slack))
    todo = unsure[0] | unsure[1]
    if np.any(todo):
        values = _grid_moments(_reflected(measure), grid[inner[todo]], 0)[0][0]
        parts = (values.real, values.imag)
        verdicts = [ok and bool(np.all(v[u[todo]] >= -slack)) for ok, v, u in zip(verdicts, parts, unsure)]
    return (verdicts[0] if cosine else None), verdicts[1]


def s_nonneg_on_grid(measure: StieltjesMeasure) -> bool:
    return _reflected_on_grid(measure, cosine=False)[1]


def _in_borderline_range(measure: StieltjesMeasure) -> bool:
    """0 < F(0) < mu(sigma - 0) - mu(0), with a margin of MASS_TOL * V, V the total variation."""
    edge = MASS_TOL * measure.total_variation
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
    g'(y) = (sigma F(iy) + i F'(iy)) e^{sigma y} locate.  One call probes
    y = -1, -2, -4 and -8 in the unit 1 / sigma, where the bracket closes on
    every measure of the benchmark, and the doubling goes on one probe at a
    time past -8 / sigma.  The root is accepted without evaluating g there:
    from the last (y, g, g') that Newton evaluated, `_newton_residual` bounds
    |g(y*)| with |g''| <= sigma^2 V, since g(y) = int e^{y (sigma - t)} d mu
    for y <= 0; a bound above ZERO_TOL V raises DiagnosticFailure.
    """

    def g(y):
        return _target(measure, "F", y * 1j, 0)[0][0].real

    unit = 1.0 / measure.sigma
    ys = np.array([-1.0, -2.0, -4.0, -8.0]) * unit
    gs = g(ys)
    y_hi, g_hi = 0.0, measure.total_mass
    for k in range(200):
        y_lo = ys[k] if k < len(ys) else 2.0 * y_hi
        g_lo = gs[k] if k < len(ys) else g(y_lo)
        if g_lo < 0.0:
            break
        y_hi, g_hi = y_lo, g_lo
    else:
        raise DiagnosticFailure("failed to bracket the imaginary zero")

    last = []  # (y, g, g') of the latest evaluation

    def slope(y, _):
        f, fp = _target(measure, "F", 1j * y, 1)[0]
        g_y, gp_y = f.real, measure.sigma * f.real - fp.imag
        last[:] = [float(y[0]), float(g_y[0]), float(gp_y[0])]
        return g_y, gp_y

    y0 = y_lo + (y_hi - y_lo) * g_lo / (g_lo - g_hi)  # secant start
    y_star = float(_bracketed_newton(slope, y_lo, y_hi, y0, unit)[0])
    y, g_y, gp_y = last
    V = measure.bound()
    # g'' = int (sigma - t)^2 e^{y (sigma - t)} d mu, at most sigma^2 V for y <= 0;
    # a NaN bound fails the comparison and raises
    if not _newton_residual(g_y, gp_y, y_star - y, measure.bound(2), V) <= ZERO_TOL * V:
        raise DiagnosticFailure("Newton iteration did not drive |F(iy)| e^{sigma y} to zero")
    return y_star


def delta_xi(measure: StieltjesMeasure, xi: float, x):
    """Delta(x) + xi (G^2 + H^2) / (xi^2 + x^2), the compensated Wronskian
    that stays nonnegative when the single lower zero -i xi is divided out."""
    x = np.asarray(x, dtype=float)
    rt = _one_side(measure, x, 1, mirrored=False)
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
        # down to 1.5 y* where y* lies below the rectangle, up to y* / 2 where it
        # lies above: either way half its depth inside the edge that moved
        count_rect = Rectangle(rect.x_min, rect.x_max, min(rect.y_min, 1.5 * y_star), max(rect.y_max, 0.5 * y_star))
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

    The lower half-plane is checked by winding count over the axis-avoiding
    rectangle.  The real-axis check reports the least |F^(k)| over the
    interval's scan grid and the candidates of `_real_minima`: the refined
    minimum of every minimum bracket and the root of Re F^(k) of every
    sign change, elsewhere a grid value, which the scan's floor keeps above
    the threshold ZERO_TOL sigma^k V.  Raises ValueError for a real interval
    that is not finite with a < b, even for the zero measure, or whose scan
    would exceed the grid budget.
    """
    if order not in (1, 2):
        raise ValueError("derivative order must be 1 or 2")
    if rect is None:
        rect = Rectangle(*DEFAULT_LOWER_RECT)
    if real_interval is None:
        real_interval = (rect.x_min, rect.x_max)
    a, b = _real_interval(*real_interval)
    if measure.is_zero:
        return DerivativeZeroReport(True, 0, 0.0, 0.0, 0.0, VERDICT_IDENTICALLY_ZERO)
    target = "F'" if order == 1 else "F''"
    xs, w, x = _real_minima(measure, target, a, b)
    result = count_zeros(measure, rect, target)
    if x.size:  # the refined minima join the grid's; no evaluator call without one
        xs, w = np.concatenate([xs, x]), np.concatenate([w, _target(measure, target, x, 0)[0][0]])
    vals = np.abs(w)
    j = int(np.argmin(vals))
    best, best_x = float(vals[j]), float(xs[j])
    ok = result.count == 0 and best > ZERO_TOL * measure.bound(order)
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
