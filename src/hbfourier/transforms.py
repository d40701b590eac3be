"""Finite Fourier-Stieltjes transforms and their structural identities.

Evaluates F(z) = sum_k c_k e^{i z t_k} + int g(t) e^{i z t} dt together with
the cosine and sine components G, H, the reflected components C, S (the same
transforms taken against the measure reflected about sigma/2), analytic
derivatives up to second order, the Wronskian Delta = G H' - G' H, and the
rotated combination h_alpha = G cos(alpha) - H sin(alpha).

All density integrals are closed-form moment recurrences with a power-series
fallback on short panels; no quadrature is used anywhere, so values are exact
for the stored representation up to rounding.  Derivatives are moment
transforms (e.g. G'(x) = -int t sin(xt) dmu), never finite differences.

One evaluator, `_grid_moments`, serves real grids and complex points alike.
It takes a real or complex scalar or array z and returns scaled moments: the
mantissas T_m with int t^m e^{izt} dmu = T_m e^E and the scale
E = max(0, -Im z * sigma), which is 0 on the real axis.  Every exponential it
evaluates has a nonpositive real exponent, so contour sweeps far below the
real axis cannot overflow; the public functions fold the scale back in, or
hand the pair on, as `eval_F_scaled` does.

The evaluator sums a density in one of two ways.  The cluster path is the
far-field expansion of the fast multipole method and the type-3 nonuniform
FFT (Greengard & Rokhlin, J. Comput. Phys. 73, 1987; Barnett, Magland &
af Klinteberg, SIAM J. Sci. Comput. 41, 2019).  Cells of half-width h and
centre c contribute e^{izc - E} sum_k (izh)^k / k! int g(t) t^m ((t - c) / h)^k dt,
with the moments tabulated per density.  There is one hierarchy of levels:
dyadic cuts of the density's span into 2, 4, 8, ... cells, down to about
one cell per panel.  A cell's moments are sums over the pieces that its
edges cut from the panels, each expanded about its own midpoint and moved
to the cell's centre; a piece inside its cell lies within |d| + s <= 1 of
it in units of h (d its offset, s its half-width), so the binomial weights
of the move add up to at most 1 and its rounding stays a few ulps of the
piece's integral of |g|, however the cells cut the panels.  A point takes the
coarsest level with |z| h <= 1/2, chosen from |z| alone, so 16 terms reach
rounding and none cancel.  A level's table is built on the first point
that needs it.  A point past the finest level takes the panel path, which
integrates every panel exactly: a closed-form recurrence, or a power series
whose length follows the largest |z| w of the block and is cut where the
omitted terms could not change a bit.

Values of omega = z^n F for n = -1, 0, 1, turned by a phase e^{i tau} or
taken of a derivative F^(k), come from the moments through one helper,
`_omega_rows`: F^(j) = i^j T_j, Leibniz's rule or its quotient for z^n, and,
for F / z near the origin, the Taylor series from the measure's moments.

Located points (real zeros, the imaginary lower zero, equality points of the
inequality) are roots of functions built from these moments.
`_bracketed_newton` finds them with Newton steps on the analytic derivatives,
safeguarded by bisection, moving all brackets of a search with one evaluator
call per iteration.

All functions are pure; measures are immutable, so grid sweeps may share them
across workers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .measure import PiecewiseLinearDensity, StieltjesMeasure

# series fallback below |a| * w; the closed-form recurrence loses ~|result/terms|
# digits to cancellation as |a| w -> 0 while the series is eps-exact here
_SERIES_CUT = 1.0
_SERIES_TERMS = 30
_FOLD_LIMIT = 700.0  # log threshold beyond which a scaled value cannot be folded
_MAX_ORDER = 4  # highest moment order any caller needs: the Newton slope of |F''|^2
#: a series term below this bound relative to its sum's parts is dropped (see _series_length)
_SERIES_OMIT = 2.0**-55 * math.cos(1.0) / math.e
#: 1 / (m + 1 + j), the divisors of the series, for m up to _MAX_ORDER + 1
_SERIES_RECIPROCALS = 1.0 / (np.arange(1.0, _MAX_ORDER + 3)[:, None] + np.arange(float(_SERIES_TERMS)))
#: a Newton iteration stops once its step is below this multiple of max(1, |x|)
_NEWTON_XTOL = 1e-14
_NEWTON_MAXITER = 100
# points x panels evaluated together: the temporaries of a 4096 block peak near
# 1 MB, and larger blocks raise the peak memory in proportion without running faster
_BLOCK = 4096
# the cluster path (see _cluster_level): a point is served by the coarsest level
# whose half-width h has |z| h <= _CLUSTER_RHO, where _CLUSTER_TERMS Taylor terms
# leave a remainder below rho^K / K! < 1e-18 of sigma^m times the cell's variation
_CLUSTER_RHO = 0.5
_CLUSTER_TERMS = 16


def _series_length(r: float) -> int:
    """Terms of the series (aw)^j / j! that decide every bit when |aw| <= r < 1.

    With |aw| < 1, Re N >= cos(1) e^{-1} / (m + 1) and |Im N| >= sin(1) e^{-1}
    |Im aw| / (m + 2) for the normalized moment N = sum_j (aw)^j / (j! (m+1+j)),
    while term j adds at most r^j / j! to the real part and
    |Im aw| r^(j-1) / (j-1)! to the imaginary part.  Past the count returned,
    every term is below a quarter ulp of both parts of the sum, so adding it
    would not change a bit: the sum equals the full _SERIES_TERMS series.
    """
    n, bound = 1, 1.0  # bound = r^(n-1) / (n-1)!
    while n < _SERIES_TERMS and bound >= _SERIES_OMIT:
        bound *= r / n
        n += 1
    return n


def _segment_moments(w_powers, a, beta):
    """Moments N_m = int_0^w u^m exp(a u + beta) du for m = 0..len(w_powers) - 1.

    w_powers[k] holds w ** (k + 1) as Python's float pow gives it (numpy's
    power differs in the last bit); w, `a` and `beta` broadcast together.  The
    caller must arrange Re(a w + beta) <= 0 and Re(beta) <= 0 so that no
    exponential overflows.  Returns an array of shape (len(w_powers),) +
    broadcast shape.
    """
    w_powers = np.asarray(w_powers, dtype=float)
    order = len(w_powers) - 1
    a, beta, *w_powers = np.broadcast_arrays(
        np.asarray(a, dtype=complex), np.asarray(beta, dtype=complex), *w_powers
    )
    w = w_powers[0]
    out = np.empty((order + 1,) + a.shape, dtype=complex)

    aw_abs = np.abs(a) * w
    small = aw_abs < _SERIES_CUT
    if small.any():
        aw = a[small] * w[small]
        # the terms (aw)^j / j! are shared by every m; only the divisors differ,
        # and numpy divides a complex by a real as a product with its reciprocal
        recip = _SERIES_RECIPROCALS[: order + 1]
        term = np.ones_like(aw)
        acc = term * recip[:, :1]
        for j in range(1, _series_length(float(np.max(aw_abs[small])))):
            term = term * aw / j
            acc += term * recip[:, j : j + 1]
        acc *= np.exp(beta[small])
        acc *= np.array([wp[small] for wp in w_powers])
        out[:, small] = acc
    big = ~small
    if big.any():
        ab = a[big]
        wb = w[big]
        e1 = np.exp(ab * wb + beta[big])
        e0 = np.exp(beta[big])
        prev = (e1 - e0) / ab
        out[0][big] = prev
        wm = 1.0
        for m in range(1, order + 1):
            wm = wm * wb
            prev = (wm * e1 - m * prev) / ab
            out[m][big] = prev
    return out


class _DensityTables(NamedTuple):
    """A density laid out for `_grid_moments`; see `_density_tables`."""

    t0: np.ndarray
    w_powers: np.ndarray
    rows: tuple
    limits: np.ndarray
    levels: list


@functools.lru_cache(maxsize=64)  # an entry of a 2049-panel density is 0.77 MB, 3.4 MB with every level built
def _density_tables(density: PiecewiseLinearDensity) -> _DensityTables:
    """A density's panels and cluster levels, laid out on its first evaluation.

    The panel path: t0 and w_powers[k] = w ** (k + 1) are columns of shape
    (P, 1).  For a panel p, q_j are the coefficients of t^m (v0 + slope u) as
    a polynomial in u = t - t0, so the panel adds sum_j q_j N_j to T_m.
    rows[m] = (index, q) lists the nonzero q_j, panel by panel, with
    index = j * P + p locating N_j of panel p in the moments flattened to
    shape ((order + 2) * P, points).

    The cluster path: level L cuts the span [lo, hi] into 2^(L+1) cells of
    half-width h = (hi - lo) / 2^(L+2), from 2 cells up to the most that do
    not outnumber the panels (still 2 for a one-panel density), and
    limits[L] = _CLUSTER_RHO / h is the largest |z| it serves.  levels[L]
    holds its table (h, centres, B) from `_cluster_level` once a point has
    needed it, else None: real-axis work on a many-panel density stays on
    the coarse levels and never builds the fine ones.
    """
    panels = density.panels
    widths = [t1 - t0 for t0, t1, _, _ in panels]
    w_powers = np.array([[w**k for w in widths] for k in range(1, _MAX_ORDER + 3)])
    rows = []
    for m in range(_MAX_ORDER + 1):
        q = np.zeros((len(panels), m + 2))
        for p, ((t0, _, v0, v1), w) in enumerate(zip(panels, widths)):
            slope = (v1 - v0) / w
            for j in range(m + 1):
                b = math.comb(m, j) * t0 ** (m - j)
                q[p, j] += b * v0
                q[p, j + 1] += b * slope
        panel, j = np.nonzero(q)
        rows.append((j * len(panels) + panel, q[panel, j][:, None]))
    t0 = np.array([p[0] for p in panels])[:, None]
    span = density.nodes[-1] - density.nodes[0]
    counts = 2 ** np.arange(1, max(2, len(panels)).bit_length())
    limits = _CLUSTER_RHO / (span / (2 * counts))
    return _DensityTables(t0, w_powers[:, :, None], tuple(rows), limits, [None] * len(counts))


def _cluster_level(density: PiecewiseLinearDensity, count: int) -> tuple:
    """The cluster table (h, centres, B) of a density's level of `count` cells.

    The level cuts the density's span [lo, hi] into cells of half-width
    h = (hi - lo) / (2 count) and centres c_j, and
    B[m, k, j] = int_{cell j} g(t) t^m ((t - c_j) / h)^k dt / k!
    for m <= _MAX_ORDER and k < _CLUSTER_TERMS.  Every panel is cut at the
    cell edges.  A piece of midpoint p and half-width h_p, on which
    g(p + h_p x) = alpha + beta x for x in [-1, 1], has the moments
    int g(t) ((t - p) / h)^i dt = h_p s^i (2 alpha / (i + 1) or 2 beta / (i + 2)),
    even or odd i, with s = h_p / h; the binomial sum
    sum_i C(k, i) d^(k-i) (...)_i with d = (p - c_j) / h moves them to the
    cell's centre.  A piece inside its cell has |d| + s <= 1, so the
    weights C(k, i) |d|^(k-i) s^i add up to (|d| + s)^k <= 1 and the move
    costs a few ulps of the piece's integral of |g| (the well-conditioned
    translation of Greengard and Rokhlin).  About the piece's start, with
    d = (start - c_j) / h, they could reach 3^k, which the Taylor factors
    rho^k / k! of `_cluster_sum` damp to at most e^(3 rho), about 4.5.  A level
    needs two cells, not one: with one cell, order 0 and one point, every
    product of `_cluster_sum` would be a lone complex element, which numpy
    multiplies without the fused multiply-add of its array loops, and the
    point's bits would depend on its batch.
    """
    nodes = np.array(density.nodes)
    left, right = np.array(density.left), np.array(density.right)
    lo, hi = nodes[0], nodes[-1]
    h = (hi - lo) / (2 * count)
    edges = lo + 2.0 * h * np.arange(count + 1)
    edges[-1] = hi
    centres = lo + h * (2.0 * np.arange(count) + 1.0)
    # the sorted union of nodes and edges; np.union1d would import numpy.ma,
    # which adds about 1.8 MB to the peak memory of a process without it
    cuts = np.sort(np.concatenate([nodes, edges]))
    cuts = cuts[np.concatenate([[True], cuts[1:] > cuts[:-1]])]
    start, end = cuts[:-1], cuts[1:]
    p = np.searchsorted(nodes, start, side="right") - 1
    j = np.minimum(np.searchsorted(edges, start, side="right") - 1, count - 1)
    t0, t1, v0, v1 = nodes[p], nodes[p + 1], left[p], right[p]
    va = np.where(start == t0, v0, v0 + (v1 - v0) * ((start - t0) / (t1 - t0)))
    vb = np.where(end == t1, v1, v0 + (v1 - v0) * ((end - t0) / (t1 - t0)))
    half = 0.5 * (end - start)
    d, s = (0.5 * (start + end) - centres[j]) / h, half / h
    n_moments = _CLUSTER_TERMS + _MAX_ORDER
    # only the even powers of x integrate to nonzero against alpha, the odd ones against beta x
    own = [half * s**i * ((va + vb) / (i + 1) if i % 2 == 0 else (vb - va) / (i + 2)) for i in range(n_moments)]
    d_pow = [np.ones_like(d)]
    for _ in range(1, n_moments):
        d_pow.append(d_pow[-1] * d)
    moments = np.empty((n_moments, count))
    for k in range(n_moments):
        piece = sum(math.comb(k, n) * d_pow[k - n] * own[n] for n in range(k + 1))
        moments[k] = np.bincount(j, weights=piece, minlength=count)
    inv_fact = np.array([1.0 / math.factorial(k) for k in range(_CLUSTER_TERMS)])[:, None]
    B = np.zeros((_MAX_ORDER + 1, _CLUSTER_TERMS, count))
    # t^m = sum_i C(m, i) c^(m-i) h^i ((t - c) / h)^i
    for m in range(_MAX_ORDER + 1):
        for n in range(m + 1):
            B[m] += math.comb(m, n) * h**n * centres ** (m - n) * moments[n : n + _CLUSTER_TERMS]
    return h, centres, B * inv_fact


def _panel_sum(out, a, E, tables: _DensityTables):
    """Add every panel's moments at the points a = iz to out, in panel order.

    out has shape (order + 1, points) and holds the points' sums so far.
    """
    order = len(out) - 1
    step = max(1, _BLOCK // len(tables.t0))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        M = _segment_moments(tables.w_powers[: order + 2], a[blk], a[blk] * tables.t0 - E[blk])
        M = M.reshape(-1, M.shape[-1])
        for m in range(order + 1):
            rows_m, q = tables.rows[m]
            terms = np.empty((len(q) + 1, M.shape[-1]), dtype=complex)
            terms[0] = out[m, blk]
            np.take(M, rows_m, axis=0, out=terms[1:])
            terms[1:] *= q
            # cumulative sum down the rows adds the panel terms in order
            out[m, blk] = np.cumsum(terms, axis=0)[-1]
        del M, terms  # free this block's arrays before the next block's


def _cluster_sum(out, a, E, h, centres, B):
    """Add every cell of one level at the points a = iz to out, in cell order.

    A cell adds e^{izc - E} sum_k (izh)^k B[m, k] to out[m], the Taylor
    series summed by Horner's rule; |z| h <= _CLUSTER_RHO bounds its terms.
    """
    B = B[: len(out), :, :, None]
    step = max(1, _BLOCK // len(centres))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        u = a[blk] * h
        acc = B[:, -1] * np.ones_like(u)
        for k in range(_CLUSTER_TERMS - 2, -1, -1):
            acc *= u
            acc += B[:, k]
        acc *= np.exp(centres[:, None] * a[blk] - E[blk])
        terms = np.concatenate([out[:, None, blk], acc], axis=1)
        out[:, blk] = np.cumsum(terms, axis=1)[:, -1]


def _grid_moments(measure: StieltjesMeasure, z, order: int):
    """Scaled moments (T, E) with int t^m e^{izt} dmu(t) = T[m] e^E, m = 0..order.

    z is a real or complex scalar or array; E = max(0, -Im z * sigma), which
    is 0 on real input, and every exponential evaluated has a nonpositive
    real part, so points far below the real axis cannot overflow.  Atoms are
    added one by one.  The density is summed, in a fixed order, over the
    cells of the level that |z| selects, or over all panels where |z| is
    past the finest level; each block of points is evaluated element by
    element, so a point's moments do not depend on the other points of the
    call.  T has shape (order + 1,) + z.shape.
    """
    z = np.asarray(z)
    E = np.maximum(-measure.sigma * z.imag, 0.0)
    a = 1j * z
    T = np.zeros((order + 1,) + z.shape, dtype=complex)
    for t, c in measure.atoms:
        phase = np.exp(a * t - E)
        tm = 1.0
        for m in range(order + 1):
            T[m] += (c * tm) * phase
            tm *= t
    if measure.density is not None:
        tables = _density_tables(measure.density)
        a, E, flat = a.reshape(-1), E.reshape(-1), T.reshape(order + 1, -1)
        # the coarsest level with |z| h <= rho; len(limits) marks the panel path
        level = np.searchsorted(tables.limits, np.abs(a))
        counts = np.bincount(level)
        for lv in np.flatnonzero(counts):
            whole = counts[lv] == a.size
            pts = slice(None) if whole else np.flatnonzero(level == lv)
            part = flat[:, pts]  # a view when whole, else a copy written back below
            if lv < len(tables.levels):
                # threads that race here each build the same table; either store is kept
                if tables.levels[lv] is None:
                    tables.levels[lv] = _cluster_level(measure.density, 2 << lv)
                _cluster_sum(part, a[pts], E[pts], *tables.levels[lv])
            else:
                _panel_sum(part, a[pts], E[pts], tables)
            if not whole:
                flat[:, pts] = part
    return T, E.reshape(z.shape)[()]  # [()] gives a scalar E for a scalar z


@functools.lru_cache(maxsize=512)
def _reflected(measure: StieltjesMeasure) -> StieltjesMeasure:
    return measure.reflected()


def _fold(value, scale):
    """value * e^scale, refusing results that cannot be represented."""
    if not np.any(scale):
        return value
    with np.errstate(divide="ignore"):
        if np.any(np.log(np.abs(value)) + scale > _FOLD_LIMIT):
            raise OverflowError("transform value is unrepresentable; use the scaled form")
    return value * np.exp(scale)


# -- real-axis bundle ----------------------------------------------------------


@dataclass(frozen=True)
class RealTransforms:
    """All real-axis components at once: direct moments and reflected moments.

    direct[m] = int t^m e^{ixt} dmu, mirrored[m] the same for the reflected
    measure; fields below unpack them into G, H, C, S and derivatives.
    """

    x: np.ndarray
    direct: np.ndarray
    mirrored: np.ndarray

    @property
    def F(self):
        return self.direct[0]

    @property
    def G(self):
        return self.direct[0].real

    @property
    def H(self):
        return self.direct[0].imag

    @property
    def Gp(self):
        return -self.direct[1].imag

    @property
    def Hp(self):
        return self.direct[1].real

    @property
    def C(self):
        return self.mirrored[0].real

    @property
    def S(self):
        return self.mirrored[0].imag

    @property
    def Cp(self):
        return -self.mirrored[1].imag

    @property
    def Sp(self):
        return self.mirrored[1].real

    @property
    def Delta(self):
        return self.G * self.Hp - self.Gp * self.H


def real_transforms(measure: StieltjesMeasure, x, order: int = 1) -> RealTransforms:
    """Evaluate all components on a real grid; order 2 adds the second moments."""
    x = np.asarray(x, dtype=float)
    return RealTransforms(
        x=x,
        direct=_grid_moments(measure, x, order)[0],
        mirrored=_grid_moments(_reflected(measure), x, order)[0],
    )


@dataclass(frozen=True)
class TransformSample:
    """One evaluation point: values, first derivatives, and the Wronskian."""

    x: float
    F: complex
    G: float
    H: float
    C: float
    S: float
    Fp: complex
    Gp: float
    Hp: float
    Cp: float
    Sp: float
    Delta: float


def transform_sample(measure: StieltjesMeasure, x: float) -> TransformSample:
    rt = real_transforms(measure, np.array([float(x)]), order=1)
    return TransformSample(
        x=float(x),
        F=complex(rt.F[0]),
        G=float(rt.G[0]),
        H=float(rt.H[0]),
        C=float(rt.C[0]),
        S=float(rt.S[0]),
        Fp=complex(rt.Gp[0], rt.Hp[0]),
        Gp=float(rt.Gp[0]),
        Hp=float(rt.Hp[0]),
        Cp=float(rt.Cp[0]),
        Sp=float(rt.Sp[0]),
        Delta=float(rt.Delta[0]),
    )


# -- point evaluation ----------------------------------------------------------


def eval_F_scaled(measure: StieltjesMeasure, z):
    """(mantissa, E) with F(z) = mantissa * e^E; safe arbitrarily deep in Im z."""
    T, scale = _grid_moments(measure, z, 0)
    return T[0], scale


def eval_F(measure: StieltjesMeasure, z):
    """F(z) at real or complex z, scalar or array."""
    return _fold(*eval_F_scaled(measure, z))


def eval_F_derivative(measure: StieltjesMeasure, z, k: int = 1):
    """k-th derivative of F (k <= 2), from analytic moment transforms."""
    if k not in (0, 1, 2):
        raise ValueError("derivative order must be 0, 1, or 2")
    T, scale = _grid_moments(measure, z, k)
    return _fold(_omega_rows(measure, z, T, k=k)[0], scale)


def _combine_scaled(pairs):
    """Sum of terms coef * mant * e^E given (coef, mant, E); returns (mant, E).

    A lone point is multiplied as a 1-d array too: numpy's product of complex
    scalars skips the fused multiply-add of its array loops.
    """
    shape = np.shape(pairs[0][1])
    emax = functools.reduce(np.maximum, (np.atleast_1d(E) for _, _, E in pairs))
    total = sum(coef * np.atleast_1d(mant) * np.exp(E - emax) for coef, mant, E in pairs)
    return total.reshape(shape)[()], emax.reshape(shape)[()]


def eval_GH(measure: StieltjesMeasure, z):
    """G(z) = int cos(zt) dmu and H(z) = int sin(zt) dmu, from F(z) and F(-z).

    Complex-valued; at real z their imaginary parts vanish for a real measure.
    """
    vp, ep = eval_F_scaled(measure, z)
    vm, em = eval_F_scaled(measure, -np.asarray(z))
    g, eg = _combine_scaled([(0.5, vp, ep), (0.5, vm, em)])
    h, eh = _combine_scaled([(-0.5j, vp, ep), (0.5j, vm, em)])
    return _fold(g, eg), _fold(h, eh)


def eval_CS(measure: StieltjesMeasure, z):
    """C and S (reflected components), computed from the reflected measure.

    They are not derived from G and H, so the modulation identities relating
    the two families are genuine cross-checks.
    """
    return eval_GH(_reflected(measure), z)


def eval_h_alpha(measure: StieltjesMeasure, alpha: float, x):
    """h_alpha = G cos(alpha) - H sin(alpha) on the real axis."""
    F = eval_F(measure, x)
    return F.real * math.cos(alpha) - F.imag * math.sin(alpha)


def eval_h_alpha_scaled(measure: StieltjesMeasure, alpha: float, z):
    """Scaled h_alpha at complex points (for contour work)."""
    vp, ep = eval_F_scaled(measure, z)
    vm, em = eval_F_scaled(measure, -np.asarray(z))
    # h_alpha(z) = (e^{i alpha} F(z) + e^{-i alpha} F(-z)) / 2 for real measures
    return _combine_scaled(
        [(0.5 * cmath.exp(1j * alpha), vp, ep), (0.5 * cmath.exp(-1j * alpha), vm, em)]
    )


def eval_Delta(measure: StieltjesMeasure, x):
    """Delta = G H' - G' H on the real axis (vectorized)."""
    return real_transforms(measure, x, order=1).Delta


def eval_Delta_reflected(measure: StieltjesMeasure, x):
    """The same Wronskian assembled from the reflected components:
    C'S - C S' + sigma (C^2 + S^2).  Independent of eval_Delta; cross-check."""
    rt = real_transforms(measure, x, order=1)
    return rt.Cp * rt.S - rt.C * rt.Sp + measure.sigma * (rt.C**2 + rt.S**2)


def eval_E(measure: StieltjesMeasure, tau: float, n: int, x):
    """E(x) = Re x^n e^{i tau} (C + i S), removable at 0 for n = -1 when F(0) = 0;
    a nonzero F(0) makes x = 0 a pole and raises ValueError where |x| sigma <= 1/2."""
    if n not in (-1, 0, 1):
        raise ValueError("n must be -1, 0, or 1")
    x = np.asarray(x, dtype=float)
    out = _mirrored_rows(measure, tau, n, x, _grid_moments(_reflected(measure), x, 0)[0])[0].real
    return out if out.ndim else float(out)


def _mirrored_rows(measure: StieltjesMeasure, tau: float, n: int, x, T):
    """[W, W', ...] at x for the mirrored W = E + i E~ = x^n e^{i tau} (C + i S),
    from the reflected measure's moments T; E is Re W on every route."""
    return _omega_rows(_reflected(measure), x, T, n=n, phase=cmath.exp(1j * tau))


@functools.lru_cache(maxsize=64)
def _origin_series(measure: StieltjesMeasure) -> np.ndarray:
    """a[k] = i^(k+1) m_(k+1) / (k+1)!, so F(x) / x = sum_k a[k] x^k when F(0) = 0.

    At |x| sigma <= 1/2 the terms fall as fast as the cluster path's.  Each panel's
    `_moment_terms` are added in numpy before one exact sum: about 30 ms on 2049
    panels, where 20 calls of `moment` take 0.2 s.
    """
    a = []
    for j in range(1, _CLUSTER_TERMS + _MAX_ORDER + 1):
        atoms, panels = measure._moment_terms(j)
        a.append((1j) ** j * math.fsum(atoms + panels.sum(axis=0).tolist()) / math.factorial(j))
    return np.array(a)


def _omega_rows(measure: StieltjesMeasure, x, T, E=0.0, n: int = 0, k: int = 0, phase=1):
    """Mantissa rows [w, w', ...] at the points x of w = x^n phase F^(k), for n = -1, 0, 1.

    T and E are the caller's `_grid_moments(measure, x, order)`, so the rows run
    to w^(order - k).  With d_j = phase F^(k+j) and F^(j) = i^j T_j, n = 1 is
    Leibniz's rule, e_j = x d_j + j d_{j-1}; n = -1 solves it for d_0 / x,
    e_j = (d_j - j e_{j-1}) / x, which loses eps V / |x|^(j+1).  So where
    |x| sigma <= 1/2, n = -1 (with k = 0 and F(0) = 0) takes e_j from the
    derivatives of phase e^{-E} sum_k a[k] x^k (`_origin_series`) instead.
    Every value of omega = z^n F takes its i^j and its power here, except
    the reference `inequality.squared_bracket_direct`.
    """
    d = [(1j) ** j * T[j] * phase for j in range(k, len(T))]
    e = []
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the series
        for j, dj in enumerate(d):
            if n == 1:
                e.append(x * dj + j * d[j - 1] if j else x * dj)
            elif n == -1:
                e.append((dj - j * e[j - 1]) / x if j else dj / x)
            else:
                e.append(dj)
    near = n == -1 and np.abs(x) * measure.sigma <= _CLUSTER_RHO
    if not np.any(near):
        return e
    if not measure.vanishes_at_zero:
        raise ValueError("n = -1 near x = 0 requires F(0) = 0")
    a, xs, factor = _origin_series(measure), np.where(near, x, 0.0), phase * np.exp(-E)
    for j in range(len(d)):
        w = 0.0
        for i in range(len(a) - 1, j - 1, -1):
            w = w * xs + math.perm(i, j) * a[i]
        e[j] = np.where(near, w * factor, e[j])[()]
    return e


# -- structural identities -----------------------------------------------------


@dataclass(frozen=True)
class IdentityResiduals:
    """Absolute residuals of the structural identities, with natural scales.

    Each residual compares two independently computed sides (direct moments
    versus reflected moments), so these are genuine cross-checks of the
    numerics.  `linear_scale` bounds the single-transform identities,
    `quadratic_scale` the Wronskian-type ones.
    """

    x: np.ndarray
    euler_split: np.ndarray
    modulation: np.ndarray
    g_recombination: np.ndarray
    h_recombination: np.ndarray
    phase_mix: np.ndarray
    rotation: np.ndarray
    wronskian_pair: np.ndarray
    wronskian_reflected: np.ndarray
    linear_scale: float
    quadratic_scale: float

    # np.max, unlike the builtin max, passes a NaN residual on to the caller

    def max_linear(self) -> float:
        parts = (self.euler_split, self.modulation, self.g_recombination)
        parts += (self.h_recombination, self.phase_mix, self.rotation)
        return float(np.max([np.max(part) for part in parts]))

    def max_quadratic(self) -> float:
        return float(np.max([np.max(self.wronskian_pair), np.max(self.wronskian_reflected)]))


def identity_residuals(
    measure: StieltjesMeasure,
    x,
    tau: float = 0.7,
    alpha: float = 0.3,
    beta: float = -1.1,
) -> IdentityResiduals:
    """Residuals of the structural identities at real points x.

    Checked identities (LHS from direct moments, RHS from reflected ones):
      * F = G + i H and F e^{-i sigma x} = C - i S
      * G = C cos(sigma x) + S sin(sigma x), H = C sin(sigma x) - S cos(sigma x)
      * G cos(sigma x + tau) + H sin(sigma x + tau) = C cos(tau) - S sin(tau)
      * h_alpha = C cos(sigma x + alpha) + S sin(sigma x + alpha)
      * h_alpha h_beta' - h_alpha' h_beta = Delta sin(alpha - beta)
      * Delta = C'S - C S' + sigma (C^2 + S^2)
    """
    x = np.asarray(x, dtype=float)
    sig = measure.sigma
    rt = real_transforms(measure, x, order=1)
    G, H, C, S = rt.G, rt.H, rt.C, rt.S
    Gp, Hp, Cp, Sp = rt.Gp, rt.Hp, rt.Cp, rt.Sp
    cos_s = np.cos(sig * x)
    sin_s = np.sin(sig * x)

    euler = np.abs(rt.F - (G + 1j * H))
    modulation = np.abs(rt.F * np.exp(-1j * sig * x) - (C - 1j * S))
    g_rec = np.abs(G - (C * cos_s + S * sin_s))
    h_rec = np.abs(H - (C * sin_s - S * cos_s))
    phase = np.abs(
        G * np.cos(sig * x + tau) + H * np.sin(sig * x + tau) - (C * math.cos(tau) - S * math.sin(tau))
    )
    h_a = G * math.cos(alpha) - H * math.sin(alpha)
    h_b = G * math.cos(beta) - H * math.sin(beta)
    hp_a = Gp * math.cos(alpha) - Hp * math.sin(alpha)
    hp_b = Gp * math.cos(beta) - Hp * math.sin(beta)
    rotation = np.abs(h_a - (C * np.cos(sig * x + alpha) + S * np.sin(sig * x + alpha)))
    delta = rt.Delta
    wr_pair = np.abs(h_a * hp_b - hp_a * h_b - delta * math.sin(alpha - beta))
    wr_refl = np.abs(delta - (Cp * S - C * Sp + sig * (C**2 + S**2)))

    v = measure.total_variation
    moment_bound = sig * v
    return IdentityResiduals(
        x=x,
        euler_split=euler,
        modulation=modulation,
        g_recombination=g_rec,
        h_recombination=h_rec,
        phase_mix=phase,
        rotation=rotation,
        wronskian_pair=wr_pair,
        wronskian_reflected=wr_refl,
        linear_scale=max(2.0 * v, 1e-300),
        quadratic_scale=max(4.0 * v * moment_bound + 2.0 * sig * v * v, 1e-300),
    )


# -- root finding ----------------------------------------------------------------


def _bracketed_newton(fn, lo, hi, x0):
    """Roots of fn in the brackets [lo, hi], one per bracket, from the starts x0.

    fn(x, k) returns (f, f') at the points x of the brackets with indices k,
    oriented so that f rises through the root: f(lo) <= 0 <= f(hi).  Every
    bracket still moving is evaluated in one call per iteration.  A Newton
    step that leaves its bracket, or is not finite, becomes a bisection step.
    Where f does not change sign, the iteration runs into the end that
    bisection would reach: lo where f > 0, hi where f < 0, which is the
    minimum when f is the slope of a function minimized on the bracket.  A
    bracket stops at f = 0, or once the step or the bracket width falls below
    _NEWTON_XTOL * max(1, |x|).  Returns the points as an array.
    """
    x = np.array(x0, dtype=float).reshape(-1)
    lo = np.array(np.broadcast_to(lo, x.shape), dtype=float)
    hi = np.array(np.broadcast_to(hi, x.shape), dtype=float)
    k = np.arange(x.size)
    for _ in range(_NEWTON_MAXITER):
        if not k.size:
            break
        xk = x[k]
        f, fp = fn(xk, k)
        lo[k] = np.where(f < 0.0, xk, lo[k])
        hi[k] = np.where(f > 0.0, xk, hi[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xk - f / fp
        tol = _NEWTON_XTOL * np.maximum(1.0, np.abs(xk))
        # a step below the tolerance ends the search even where rounding puts
        # it on the bracket's edge; a NaN step fails every comparison
        converged = (f == 0.0) | (np.abs(newton - xk) <= tol)
        inside = (newton > lo[k]) & (newton < hi[k])
        x[k] = np.where(f == 0.0, xk, np.where(converged | inside, newton, 0.5 * (lo[k] + hi[k])))
        k = k[~(converged | (hi[k] - lo[k] <= tol))]
    return x
