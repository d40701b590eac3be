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

The evaluator sums polynomial pieces of degree 1 to 4 (a density's panels
or, in `posdef`, the pieces of the positive definite profile and of the
autocorrelation h) in one of two ways chosen by `_piece_moments`.  The
cluster path is the far-field expansion of the fast multipole method and
the type-3 nonuniform FFT (Greengard & Rokhlin, J. Comput. Phys. 73, 1987;
Barnett, Magland & af Klinteberg, SIAM J. Sci. Comput. 41, 2019) over the
cells of one dyadic hierarchy of levels (`_cluster_level`), tabulated per
owner of the pieces and built on the first point that needs them; a point
takes the coarsest level with |z| h <= 1/2, so 16 terms reach rounding and
none cancel.  A point past the finest level takes the panel path, which
integrates every piece exactly: a closed-form recurrence, or a power series
whose length follows the largest |z| w of the block and is cut where the
omitted terms could not change a bit.

Equispaced real nodes, those of the sine-kernel series in `sampling`, have
an entry point of their own, `_equispaced_moments`: blocks of nodes share
their phases through matrix products, pieces wide against 1 / |x| integrate
by parts and narrow ones take their series, so a value there depends on its
block, while `_grid_moments` keeps a point's value independent of its batch.

Values of omega = z^n F for n = -1, 0, 1, turned by a phase e^{i tau} or
taken of a derivative F^(k), come from the moments through one helper,
`_omega_rows`: F^(j) = i^j T_j, Leibniz's rule or its quotient for z^n, and,
for F / z near the origin, the Taylor series from the measure's moments.

Located points (real zeros, the imaginary lower zero, equality points of the
inequality) are roots of functions built from these moments.
`_bracketed_newton` finds them with Newton steps on the analytic derivatives,
safeguarded by bisection, one evaluator call per iteration for all brackets of
a search, and returns each bracket's last evaluation, which certifies its root.

All functions are pure; measures are immutable, so grid sweeps may share them
across workers.  What the evaluator derives from an object (a density's or a
profile's tables, a measure's reflection and origin series) is kept on that
object, in its own `__dict__` as `functools.cached_property` keeps a value,
and lives exactly as long as it.
"""

from __future__ import annotations

import bisect
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
_MAX_DEGREE = 4  # highest degree of a piece: the quartics of posdef's autocorrelation profile
#: a series term below this bound relative to its sum's parts is dropped (see _series_length)
_SERIES_OMIT = 2.0**-55 * math.cos(1.0) / math.e
#: 1 / (m + 1 + j), the divisors of the series, for m up to _MAX_ORDER + _MAX_DEGREE
_SERIES_RECIPROCALS = 1.0 / (np.arange(1.0, _MAX_ORDER + _MAX_DEGREE + 2)[:, None] + np.arange(float(_SERIES_TERMS)))
#: a Newton iteration stops once its step is below this multiple of max(unit, |x|)
_NEWTON_XTOL = 1e-14
_NEWTON_MAXITER = 100
#: the evaluator's error, relative to the scale of a target, that a certified residual allows for;
#: the transforms' tests hold it to 1e-14 against 40-digit references
_ROUNDING = 1e-13
#: a point within this many units 1 / sigma of 0 is the origin
_ORIGIN_RADIUS = 1e-8
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
    broadcast shape.  Each element takes the power series where |a| w is below
    _SERIES_CUT, else the closed-form recurrence.  The operands are masked
    only where one call mixes the two: numpy's array loops give an element
    the same bits whatever its neighbours and layout, which the tests hold
    against the masked form for every shape the callers pass.
    """
    w_powers = np.asarray(w_powers, dtype=float)
    a, beta = np.asarray(a, dtype=complex), np.asarray(beta, dtype=complex)
    shape = np.broadcast_shapes(a.shape, beta.shape, w_powers.shape[1:])
    # w_powers[k] aligned with the trailing axes of the broadcast shape
    w_powers = w_powers.reshape((len(w_powers),) + (1,) * (len(shape) + 1 - w_powers.ndim) + w_powers.shape[1:])
    aw_abs = np.abs(a) * w_powers[0]
    small = aw_abs < _SERIES_CUT
    if small.all():
        return _series_moments(w_powers, a, beta, shape, float(np.max(aw_abs)))
    if not small.any():
        return _closed_moments(w_powers, a, beta, shape)
    out = np.empty((len(w_powers),) + shape, dtype=complex)
    a, beta, small = (np.broadcast_to(v, shape) for v in (a, beta, small))
    w_powers = np.broadcast_to(w_powers, out.shape)
    big = ~small
    r = float(np.max(np.broadcast_to(aw_abs, shape)[small]))
    out[:, small] = _series_moments(w_powers[:, small], a[small], beta[small], (int(small.sum()),), r)
    out[:, big] = _closed_moments(w_powers[:, big], a[big], beta[big], (int(big.sum()),))
    return out


def _series_moments(w_powers, a, beta, shape, r):
    """`_segment_moments` by the power series, for |a| w <= r < _SERIES_CUT."""
    aw = a * w_powers[0]
    # the terms (aw)^j / j! are shared by every m; only the divisors differ,
    # and numpy divides a complex by a real as a product with its reciprocal
    recip = _SERIES_RECIPROCALS[: len(w_powers)].reshape((len(w_powers), _SERIES_TERMS) + (1,) * len(shape))
    term = np.ones(shape, dtype=complex)
    acc = term * recip[:, 0]
    for j in range(1, _series_length(r)):
        term = term * aw / j
        acc += term * recip[:, j]
    acc *= np.exp(beta)
    acc *= w_powers
    return acc


def _closed_moments(w_powers, a, beta, shape):
    """`_segment_moments` by the closed-form recurrence, for |a| w >= _SERIES_CUT."""
    out = np.empty((len(w_powers),) + shape, dtype=complex)
    w = w_powers[0]
    e1 = np.exp(a * w + beta)
    e0 = np.exp(beta)
    prev = (e1 - e0) / a
    out[0] = prev
    wm = 1.0
    for m in range(1, len(out)):
        wm = wm * w
        prev = (wm * e1 - m * prev) / a
        out[m] = prev
    return out


def _polynomial_pieces(start, end, poly):
    """The pieces (see `_lay_out`) of coefficients poly[i], all but those of no width."""
    start, end, poly = (np.asarray(v, dtype=float) for v in (start, end, poly))
    start, end, poly = start[end > start], end[end > start], poly[end > start]
    return start, end, poly[:, 0] + poly[:, 1] * (end - start), poly


class _PieceTables(NamedTuple):
    """Pieces laid out for `_piece_moments`; see `_lay_out`."""

    pieces: tuple
    limits: np.ndarray
    levels: list


def _lay_out(pieces: tuple) -> _PieceTables:
    """The cluster levels and the panel path of the pieces (start, end, right, poly), the polynomials
    p(t) = sum_k poly[i, k] (t - start[i])^k on [start[i], end[i]] of degree 1 to _MAX_DEGREE, whose
    linear parts run from poly[i, 0] to right[i], laid out on their first evaluation.

    Level L cuts the pieces' span [lo, hi] into 2^(L+1) cells of half-width h = (hi - lo) / 2^(L+2),
    from 2 cells up to the most that do not outnumber the pieces; limits[L] = _CLUSTER_RHO / h is the
    largest |z| it serves.  levels[L] holds its `_cluster_level` table, and levels[len(limits)] the
    `_panel_layout` of the panel path past the finest level, once a point has needed it, else None:
    real-axis work builds only the coarse levels.
    """
    counts = 2 ** np.arange(1, max(2, len(pieces[0])).bit_length())
    limits = _CLUSTER_RHO / ((pieces[1].max() - pieces[0].min()) / (2 * counts))
    return _PieceTables(pieces, limits, [None] * (len(counts) + 1))


def _panel_layout(pieces: tuple) -> tuple:
    """The operands (t0, w_powers, rows) of `_panel_sum` for the pieces.

    t0 and w_powers[k] = w ** (k + 1), by Python's float pow as t0's powers are, are columns (P, 1).
    For a piece p, q_j are the coefficients of t^m p(t) in u = t - t0, so the piece adds
    sum_j q_j N_j to T_m; rows[m] holds (index, q) for the nonzero q_j, index = j * P + p.
    """
    start, end, _, poly = pieces
    widths, degree = (end - start).tolist(), poly.shape[1] - 1
    rows = []
    for q in _shifted_polynomials(start, poly, _MAX_ORDER):
        piece, j = np.nonzero(q)
        rows.append((j * len(q) + piece, q[piece, j][:, None]))
    w_powers = np.array([[w**k for w in widths] for k in range(1, _MAX_ORDER + degree + 2)])[:, :, None]
    return start[:, None], w_powers, tuple(rows)


def _shifted_polynomials(start, poly, order: int) -> list:
    """[q_0, ..., q_order]: q_m[p, j] is the coefficient of u^j in t^m p(t), u = t - start[p],
    for the pieces' polynomials p(t) = sum_k poly[p, k] u^k; start's powers by Python's float pow."""
    starts, degree = start.tolist(), poly.shape[1] - 1
    t0_powers = [np.array([t**e for t in starts]) for e in range(order + 1)]
    out = []
    for m in range(order + 1):
        q = np.zeros((len(starts), m + degree + 1))
        for j in range(m + 1):
            b = math.comb(m, j) * t0_powers[m - j]
            for k in range(degree + 1):
                q[:, j + k] += b * poly[:, k]
        out.append(q)
    return out


def _derived(owner, key, build):
    """The entry `key` of what is derived from the immutable `owner`, built by build()
    on the first call and kept in the owner's `_derived` dict, in its own `__dict__`,
    so that it lives exactly as long as the owner; threads that race to build one
    entry each build the same value, and the first stored is kept."""
    try:
        return owner.__dict__["_derived"][key]
    except KeyError:
        return vars(owner).setdefault("_derived", {}).setdefault(key, build())


def _density_tables(density: PiecewiseLinearDensity) -> _PieceTables:
    """The tables of a density's panels, with its stored values at the ends."""

    def pieces():
        nodes, left, right = (np.array(v) for v in (density.nodes, density.left, density.right))
        return nodes[:-1], nodes[1:], right, np.stack([left, (right - left) / np.diff(nodes)], axis=1)

    return _derived(density, "pieces", lambda: _lay_out(pieces()))


def _cluster_level(pieces: tuple, count: int) -> tuple:
    """The cluster table (h, centres, coeffs) of the pieces' level of `count` cells.

    The level cuts the pieces' span [lo, hi] into cells of half-width
    h = (hi - lo) / (2 count) and centres c_j, a column of shape (count, 1), and
    B[m, k, j] = int_{cell j} p(t) t^m ((t - c_j) / h)^k dt / k!, summed over
    the pieces, for m <= _MAX_ORDER and k < _CLUSTER_TERMS; coeffs[k] is B[:, k]
    as a contiguous complex array of shape (_MAX_ORDER + 1, count, 1), the
    operand that `_cluster_sum` adds at Horner step k, so that no step converts
    it again.  Each piece, which may overlap others, is cut at the edges of the
    cells it crosses.  On a cut of midpoint q and half-width h_q, t = q + h_q x
    for x in [-1, 1], the piece's linear part, interpolated from its end values,
    is alpha + beta x and its terms of degree 2 or more (none on a density's
    panel) sum_l r_l x^l, so int p(t) ((t - q) / h)^i dt = h_q s^i (2 alpha / (i + 1)
    or 2 beta / (i + 2), even or odd i, + sum of 2 r_l / (i + l + 1) over even
    i + l) with s = h_q / h; the binomial sum sum_i C(k, i) d^(k-i) (...)_i with
    d = (q - c_j) / h moves them to the cell's centre.  A cut inside its cell has |d| + s <= 1, so the
    weights C(k, i) |d|^(k-i) s^i add up to (|d| + s)^k <= 1 and the move
    costs a few ulps of the cut's integral of |p| (the well-conditioned
    translation of Greengard and Rokhlin).  About the cut's start, with
    d = (start - c_j) / h, they could reach 3^k, which the Taylor factors
    rho^k / k! of `_cluster_sum` damp to at most e^(3 rho), about 4.5.  A level
    needs two cells, not one: with one cell, order 0 and one point, every
    product of `_cluster_sum` would be a lone complex element, which numpy
    multiplies without the fused multiply-add of its array loops, and the
    point's bits would depend on its batch.
    """
    starts, ends, right, poly = pieces
    lo, hi = starts.min(), ends.max()
    h = (hi - lo) / (2 * count)
    edges = lo + 2.0 * h * np.arange(count + 1)
    edges[-1] = hi
    centres = lo + h * (2.0 * np.arange(count) + 1.0)
    # piece i crosses the n[i] cells from first[i]; cut number c lies in piece p[c] and cell j[c]
    first = np.minimum(np.searchsorted(edges, starts, side="right") - 1, count - 1)
    n = np.searchsorted(edges, ends, side="left") - first
    p = np.repeat(np.arange(len(n)), n)
    j = np.arange(n.sum()) - np.repeat(np.cumsum(n) - n - first, n)
    t0, t1, v0, v1 = starts[p], ends[p], poly[p, 0], right[p]
    start, end = np.maximum(t0, edges[j]), np.minimum(t1, edges[j + 1])
    va = np.where(start == t0, v0, v0 + (v1 - v0) * ((start - t0) / (t1 - t0)))
    vb = np.where(end == t1, v1, v0 + (v1 - v0) * ((end - t0) / (t1 - t0)))
    half = 0.5 * (end - start)
    d, s = (0.5 * (start + end) - centres[j]) / h, half / h
    # the terms of degree 2 or more, in u = t - t0, as sum_l r_l x^l about the cut's midpoint u = um
    um, degree = 0.5 * (start + end) - t0, poly.shape[1] - 1
    r = [sum(math.comb(k, l) * poly[p, k] * um ** (k - l) for k in range(max(2, l), degree + 1)) * half**l
         for l in range(degree + 1)]
    n_moments = _CLUSTER_TERMS + _MAX_ORDER
    # only the even powers of x integrate to nonzero against alpha, the odd ones against beta x
    line = [(va + vb) / (i + 1) if i % 2 == 0 else (vb - va) / (i + 2) for i in range(n_moments)]
    own = [half * s**i * (line[i] + sum(2.0 / (i + l + 1) * r[l] for l in range(i % 2, degree + 1, 2)))
           for i in range(n_moments)]
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
    coeffs = np.ascontiguousarray((B * inv_fact).transpose(1, 0, 2)[..., None], dtype=complex)
    return h, centres[:, None], coeffs


def _panel_sum(out, a, E, t0, w_powers, rows):
    """Add every piece's moments at the points a = iz to out, in piece order.

    out has shape (len(rows), points) and holds the points' sums so far.  rows[m]
    (see `_lay_out`) adds sum_j q_j int_0^w u^j e^{a (t0 + u) - E} du of every piece to out[m].
    """
    step = max(1, _BLOCK // len(t0))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        M = _segment_moments(w_powers, a[blk], a[blk] * t0 - E[blk])
        M = M.reshape(-1, M.shape[-1])
        for m, (rows_m, q) in enumerate(rows):
            terms = np.empty((len(q) + 1, M.shape[-1]), dtype=complex)
            terms[0] = out[m, blk]
            np.take(M, rows_m, axis=0, out=terms[1:])
            terms[1:] *= q
            # cumulative sum down the rows adds the piece terms in order
            out[m, blk] = np.cumsum(terms, axis=0)[-1]
        del M, terms  # free this block's arrays before the next block's


def _cluster_sum(out, a, E, h, centres, coeffs):
    """Add every cell of one level at the points a = iz to out, in cell order.

    A cell adds e^{izc - E} sum_k (izh)^k B[m, k] to out[m], the Taylor
    series summed by Horner's rule; |z| h <= _CLUSTER_RHO bounds its terms.
    u = izh is laid out once per block in the shape of the accumulator, and
    coeffs[k] (see `_cluster_level`) is added as it is stored, so each Horner
    step is two array operations on contiguous operands, which numpy runs on
    its fast path.
    """
    n = len(out)
    coeffs = coeffs[:, :n]
    step = max(1, _BLOCK // len(centres))
    for lo in range(0, a.size, step):
        blk = slice(lo, lo + step)
        ab = a[blk]
        acc = np.empty((n, len(centres), ab.size), dtype=complex)
        acc[...] = coeffs[-1]
        u = np.empty_like(acc)
        u[...] = ab * h
        for c in coeffs[-2::-1]:
            acc *= u
            acc += c
        acc *= np.exp(centres * ab - E[blk])
        terms = np.concatenate([out[:, None, blk], acc], axis=1)
        out[:, blk] = np.cumsum(terms, axis=1)[:, -1]


def _piece_moments(out, tables: _PieceTables, a, E):
    """Add int t^m p(t) e^{at - E} dt over the pieces to out[m], m < len(out), at the 1-d points a = iz
    with Re(a t) <= E on the pieces, and return out.  A point takes the cells of the level that |z| selects
    or, past the finest level, every piece, in a fixed order and alone, so its moments do not depend on the
    other points of the call; only a call whose points take more than one path groups them."""
    # the coarsest level with |z| h <= rho; len(limits) marks the panel path
    level = np.searchsorted(tables.limits, np.abs(a))
    first = int(level[0])
    if a.size == 1 or not np.any(level != first):
        groups = [(first, slice(None))]
    else:
        groups = [(lv, np.flatnonzero(level == lv)) for lv in np.flatnonzero(np.bincount(level))]
    for lv, pts in groups:
        part = out[:, pts]  # a view for a slice, else a copy written back below
        cluster = lv < len(tables.limits)
        if tables.levels[lv] is None:  # threads that race here build the same table
            tables.levels[lv] = _cluster_level(tables.pieces, 2 << lv) if cluster else _panel_layout(tables.pieces)
        if cluster:
            _cluster_sum(part, a[pts], E[pts], *tables.levels[lv])
        else:
            t0, w_powers, rows = tables.levels[lv]
            # N_j for j up to the order plus the pieces' degree
            _panel_sum(part, a[pts], E[pts], t0, w_powers[: len(out) + tables.pieces[3].shape[1] - 1], rows[: len(out)])
        if not isinstance(pts, slice):
            out[:, pts] = part
    return out


def _grid_moments(measure: StieltjesMeasure, z, order: int):
    """Scaled moments (T, E) with int t^m e^{izt} dmu(t) = T[m] e^E, m = 0..order.

    z is a real or complex scalar or array; E = max(0, -Im z * sigma), which
    is 0 on real input, and every exponential evaluated has a nonpositive
    real part, so points far below the real axis cannot overflow.  Atoms are
    added one by one; on a finite real z an atom at t = 0 adds its mass to
    T[0] without an exponential, with the same bits.  `_piece_moments` adds
    the density's panels.  T has shape (order + 1,) + z.shape.
    """
    z = np.asarray(z)
    real = not np.iscomplexobj(z)
    E = np.zeros(z.shape) if real else np.maximum(-measure.sigma * z.imag, 0.0)
    a = 1j * z
    T = np.zeros((order + 1,) + z.shape, dtype=complex)
    for t, c in measure.atoms:
        if real and t == 0.0 and np.all(np.isfinite(z)):  # the phase is exactly 1
            T[0] += c
            continue
        phase = np.exp(a * t) if real else np.exp(a * t - E)
        tm = 1.0
        for m in range(order + 1):
            T[m] += (c * tm) * phase
            tm *= t
    if measure.density is not None and z.size:
        _piece_moments(T.reshape(order + 1, -1), _density_tables(measure.density), a.reshape(-1), E.reshape(-1))
    return T, E.reshape(z.shape)[()]  # [()] gives a scalar E for a scalar z


# -- equispaced real nodes -----------------------------------------------------

#: the most nodes in a block of `_equispaced_moments`
_EQUI_BLOCK = 128
#: a block's narrow pieces keep rho = |x| w < _NARROW_RHO, and are summed in tiers of rho <= _TIER_RHO[l],
#: each by the series terms its largest rho needs (`_series_length`), at most _NARROW_TERMS
_NARROW_RHO = 2.0
_TIER_RHO = _NARROW_RHO * 16.0 ** -np.arange(9.0)
_NARROW_TERMS = _series_length(_NARROW_RHO)


class _EquispacedTables(NamedTuple):
    """A measure's atoms and pieces laid out for `_equispaced_moments`; pieces in order of width."""

    width: np.ndarray  # (P,)
    points: np.ndarray  # (2 P + atoms,): start and end of each piece in turn, then the atoms
    parts: np.ndarray  # (2 P + atoms, columns, order + 1): the terms of y^c at each point, by (c, m)
    series: np.ndarray  # (P, _NARROW_TERMS, order + 1): i^j s_j of each piece's series, by (j, m)


def _equispaced_tables(measure: StieltjesMeasure, order: int) -> _EquispacedTables:
    """The tables of the measure's atoms and density panels for the moments of order <= `order`.

    With y = s / x for a block's scale s, an atom c at t adds c t^m e^{ixt} y^0.  On a
    piece, with P_m(t) = t^m p(t) = sum_i q_i u^i in u = t - start (`_shifted_polynomials`),
    int P_m e^{ixt} dt = sum_j (-1)^j [P_m^(j)(t) e^{ixt}]_start^end (-i / x)^(j+1), where
    P_m^(j)(start) = j! q_j, so its ends add (-i / s)^(j+1) times that to y^(j+1).  Its
    series is e^{ix start} sum_j i^j s_j (xw)^j, with s_j = sum_i q_i w^(i+1) / ((i + j + 1) j!).
    """
    t, c = (np.array(v, dtype=float) for v in zip(*measure.atoms)) if measure.atoms else np.zeros((2, 0))
    atoms = (c[:, None] * t[:, None] ** np.arange(order + 1.0))[:, None]
    no_pieces = (np.zeros(0), np.zeros(0), None, np.zeros((0, 2)))
    start, end, _, poly = _density_tables(measure.density).pieces if measure.density is not None else no_pieces
    by_width = np.argsort(end - start, kind="stable")
    start, end, poly = start[by_width], end[by_width], poly[by_width]
    w = end - start
    qs = _shifted_polynomials(start, poly, order)
    parts = np.zeros((len(w), 2, qs[-1].shape[1] + 1, order + 1), dtype=complex)
    series = np.zeros((len(w), _NARROW_TERMS, order + 1), dtype=complex)
    for m, q in enumerate(qs):
        for j in range(q.shape[1]):
            sign = (-1.0) ** j * (-1j) ** (j + 1)
            parts[:, 0, j + 1, m] = -sign * math.factorial(j) * q[:, j]
            parts[:, 1, j + 1, m] = sign * sum(math.perm(i, j) * q[:, i] * w ** (i - j) for i in range(j, q.shape[1]))
        for j in range(_NARROW_TERMS):
            series[:, j, m] = 1j**j / math.factorial(j) * sum(q[:, i] * w ** (i + 1) / (i + j + 1) for i in range(q.shape[1]))
    parts = parts.reshape((2 * len(w),) + parts.shape[2:])
    atoms = np.concatenate([atoms, np.zeros((len(t), parts.shape[1] - 1, order + 1))], axis=1)
    points = np.concatenate([np.stack([start, end], axis=1).reshape(-1), t])
    return _EquispacedTables(w, points, np.concatenate([parts, atoms]), series)


def _equispaced_moments(measure: StieltjesMeasure, step: float, shift: float, first: int, count: int, order: int = 0):
    """T[m] = int t^m e^{i x_k t} dmu at the nodes x_k = k step + shift, first <= k < first + count,
    for m <= order and step > 0.

    The moments `_grid_moments` gives at real points, for equispaced nodes,
    different in rounding only; k step + shift keeps the nodes near 0 as
    accurate as a small shift allows.  The measure is real, so T(-x) = conj T(x),
    and each side of the origin is cut, outward, into blocks of at most
    _EQUI_BLOCK nodes a + r step.  On a block e^{ixt} = e^{iat} e^{i r step t},
    so every sum over atoms or piece ends is a matrix product of the block's
    phases with the phases e^{i r step t} that all blocks share, and no other
    exponential is taken.  A piece of width w is wide on a block whose least
    |x| has |x| w > _SERIES_CUT, and integrates by parts (`_equispaced_tables`); a narrow
    piece takes its series, whose terms fall as rho^j / j! with rho = |x| w,
    grouped in the tiers of `_TIER_RHO`.  A block where pieces are narrow ends
    before rho reaches _NARROW_RHO on any of them (`_equispaced_head`).  A narrow piece
    never takes the by-parts form, whose end terms, of size |p| / |x|, would
    cancel to the integral's |p| w.  Every power of x is scaled by the block's
    largest |x|, so none overflows.  A node's value depends on its block,
    which the nodes fix, and not on a batch.
    """
    x = step * np.arange(first, first + count) + shift
    neg = int(np.searchsorted(x, 0.0))
    tables = _derived(measure, ("equispaced", order), lambda: _equispaced_tables(measure, order))
    widths = tables.width.tolist()
    # the blocks from the origin outward, on x < 0, then on x >= 0, grouped by their cuts
    nodes, lengths, most, groups = [], [], [], {}
    for k, size, sign in ((neg - 1, neg, -1), (neg, count - neg, 1)):
        inner = abs(float(x[k])) if size else 0.0
        head, rest = _equispaced_head(inner, step, size, widths)
        for start, length, last, cuts in head:
            groups.setdefault(cuts, []).append(len(most))
            nodes.append([k + sign * start])
            lengths.append([length])
            most.append(last)
        # past the head every piece is wide, and a block takes _EQUI_BLOCK nodes
        starts = np.arange(rest, size, _EQUI_BLOCK)
        if starts.size:
            groups.setdefault((0,) * len(_TIER_RHO), []).extend(range(len(most), len(most) + len(starts)))
        nodes.append(k + sign * starts)
        lengths.append(np.minimum(size - starts, _EQUI_BLOCK))
        most.extend((inner + step * (starts + lengths[-1] - 1)).tolist())
    lengths = np.concatenate(lengths)
    least = np.abs(x[np.concatenate(nodes)])
    out = _equispaced_sums(tables, least, step * np.arange(_EQUI_BLOCK), np.array(most), lengths.tolist(), groups, order + 1)
    # the rows within each block's length, in node order from the origin outward
    rows = np.repeat(_EQUI_BLOCK * np.arange(len(least)) - np.cumsum(lengths) + lengths, lengths) + np.arange(count)
    values = out.reshape(order + 1, -1)[:, rows]
    return np.concatenate([values[:, neg - 1 :: -1].conj() if neg else values[:, :0], values[:, neg:]], axis=1)


def _equispaced_head(inner: float, step: float, size: int, widths: list):
    """([(first node, length, largest |x|, cuts), ...], first node past them) of the blocks of
    the nodes |x| = inner + k step, k < size, up to the first node at which every piece of
    the sorted `widths` is wide (see `_equispaced_moments`).

    The pieces with a w <= _SERIES_CUT are narrow on a block from |x| = a, and its largest
    |x| stays below _NARROW_RHO / w for the widest of them, so that rho = |x| w < _NARROW_RHO
    on every narrow piece; it holds at most _EQUI_BLOCK nodes.  cuts[0] is the number of narrow
    pieces, cuts[l] that of the pieces in tiers l and above (rho <= _TIER_RHO[l]).
    A lone node at 0 takes the scale 1 / w of the widest piece for its rho; its terms
    past the first vanish.
    """
    head, k = [], 0
    while k < size:
        a = inner + k * step
        narrow = bisect.bisect_right(widths, _SERIES_CUT / a) if a > 0.0 else len(widths)
        if not narrow:
            break
        length = max(1, min(_EQUI_BLOCK, size - k, math.ceil((_NARROW_RHO / widths[narrow - 1] - a) / step)))
        last = a + (length - 1) * step
        scale = last if last > 0.0 else 1.0 / widths[-1]
        head.append((k, length, last, (narrow, *(bisect.bisect_right(widths, rho / scale, 0, narrow) for rho in _TIER_RHO[1:]))))
        k += length
    return head, k


def _block_sums(R, t, a, coef, powers):
    """sum_p e^{i a_b t_p} coef[p, j, m] powers[p, j, ., b] R[p, r], by (j, m, block b, row r)."""
    D = np.exp(1j * np.outer(t, a))[:, None, None] * coef[..., None] * powers
    return (D.reshape(len(t), -1).T @ R).reshape(D.shape[1:] + (R.shape[1],))


def _power_sum(A, y):
    """sum_j A[j] y^j for A by (j, m, block, row) and y by (block, row)."""
    return (A * y ** np.arange(float(len(A)))[:, None, None, None]).sum(axis=0)


def _equispaced_sums(tables: _EquispacedTables, least, offsets, most, lengths: list, groups: dict, n: int):
    """The moments (m, block, row) of order < n at the blocks of nodes least + offsets, whose
    largest |x| within their lengths is `most`, summed per group of blocks of equal cuts (see
    `_equispaced_head`), at most _BLOCK * 16 products of a phase and a coefficient at once; the
    rows of a group past its longest block are left 0, and the rows of a block past its length
    are computed and dropped."""
    w, xk = tables.width, least[:, None] + offsets
    scale = np.where(most > 0.0, most, 1.0 / w[-1] if len(w) else 1.0)  # see `_equispaced_head`
    R = np.exp(1j * np.outer(tables.points, offsets))
    out = np.zeros((n,) + xk.shape, dtype=complex)
    chunk = max(1, _BLOCK * 16 // max(1, tables.parts[:, :, :n].size, tables.series[:, :, :n].size))
    for cut, group in groups.items():
        for i in range(0, len(group), chunk):
            blocks = group[i : i + chunk]
            rows = slice(max(lengths[b] for b in blocks))
            if blocks[-1] - blocks[0] == len(blocks) - 1:
                blocks = slice(blocks[0], blocks[-1] + 1)
            s, a, x = scale[blocks], least[blocks], xk[blocks, rows]
            if 2 * cut[0] < len(R):  # the atoms, and the wide pieces' ends by parts
                wide = slice(2 * cut[0], None)
                if cut[0] < len(w):
                    inv = s ** -np.arange(float(tables.parts.shape[1]))[:, None, None]
                    A = _block_sums(R[wide, rows], tables.points[wide], a, tables.parts[wide, :, :n], inv)
                    out[:, blocks, rows] += _power_sum(A, s[:, None] / x)
                else:  # the atoms alone, at y^0
                    out[:, blocks, rows] += _block_sums(R[wide, rows], tables.points[wide], a, tables.parts[wide, :1, :n], 1.0)[0]
            bounds = [*cut, 0]
            for lo, hi in zip(bounds[1:], bounds):  # the narrow pieces by tier, from the widest
                if lo < hi:  # the terms past these fall below 2^-55 |p| w on every piece
                    terms = _series_length(float(np.max(s)) * w[hi - 1])
                    rho = (w[lo:hi, None] * s)[:, None, None] ** np.arange(float(terms))[:, None, None]
                    starts = slice(2 * lo, 2 * hi, 2)
                    A = _block_sums(R[starts, rows], tables.points[starts], a, tables.series[lo:hi, :terms, :n], rho)
                    out[:, blocks, rows] += _power_sum(A, x / s[:, None])
    return out


def _reflected(measure: StieltjesMeasure) -> StieltjesMeasure:
    """`measure.reflected()`, built once per measure; measures over one density
    and sigma share the reflected density, and so its tables."""

    def build():
        atoms = StieltjesMeasure(measure.sigma, measure.atoms).reflected().atoms
        density = measure.density
        if density is not None:
            density = _derived(density, ("mirror", measure.sigma), lambda: measure.density.reflected(measure.sigma))
        return StieltjesMeasure(measure.sigma, atoms, density)

    return _derived(measure, "reflected", build)


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
        return _wronskian(self.direct)


def _wronskian(T):
    """Delta = G H' - G' H from the direct moments T of order 1 or more."""
    return T[0].real * T[1].real - (-T[1].imag) * T[0].imag


def real_transforms(measure: StieltjesMeasure, x, order: int = 1) -> RealTransforms:
    """Evaluate all components on a real grid; order 2 adds the second moments."""
    x = np.asarray(x, dtype=float)
    return RealTransforms(
        x=x,
        direct=_grid_moments(measure, x, order)[0],
        mirrored=_grid_moments(_reflected(measure), x, order)[0],
    )


def _one_side(measure: StieltjesMeasure, x, order: int, mirrored: bool) -> RealTransforms:
    """`real_transforms` with one evaluator pass, for a reader of one side: the
    mirrored moments (C, S and their derivatives) or the direct ones, the other None."""
    x = np.asarray(x, dtype=float)
    T = _grid_moments(_reflected(measure) if mirrored else measure, x, order)[0]
    return RealTransforms(x=x, direct=None if mirrored else T, mirrored=T if mirrored else None)


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
    """Delta = G H' - G' H on the real axis (vectorized), from the direct moments alone."""
    return _wronskian(_grid_moments(measure, np.asarray(x, dtype=float), 1)[0])


def eval_Delta_reflected(measure: StieltjesMeasure, x):
    """The same Wronskian assembled from the reflected components:
    C'S - C S' + sigma (C^2 + S^2).  Independent of eval_Delta; cross-check."""
    rt = _one_side(measure, x, 1, mirrored=True)
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


def _origin_series(measure: StieltjesMeasure) -> np.ndarray:
    """a[k] = i^(k+1) m_(k+1) / (k+1)!, so F(x) / x = sum_k a[k] x^k when F(0) = 0.

    At |x| sigma <= 1/2 the terms fall as fast as the cluster path's.  Each panel's
    `_moment_terms` are added in numpy before one exact sum: about 30 ms on 2049
    panels, where 20 calls of `moment` take 0.2 s, so `_omega_rows` keeps it per measure.
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
    if n == 0:
        return d
    e = []
    with np.errstate(divide="ignore", invalid="ignore"):  # x = 0 takes the series
        for j, dj in enumerate(d):
            if n == 1:
                e.append(x * dj + j * d[j - 1] if j else x * dj)
            else:
                e.append((dj - j * e[j - 1]) / x if j else dj / x)
    near = n == -1 and np.abs(x) * measure.sigma <= _CLUSTER_RHO
    if not np.any(near):
        return e
    if not measure.vanishes_at_zero:
        raise ValueError("n = -1 near x = 0 requires F(0) = 0")
    a = _derived(measure, "origin", lambda: _origin_series(measure))
    xs, factor = np.where(near, x, 0.0), phase * np.exp(-E)
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

    Every residual but `wronskian_pair` compares a side from the direct
    moments with one from the reflected moments, two independent evaluator
    passes, so these are genuine cross-checks of the numerics;
    `wronskian_pair` checks the direct moments' h_alpha against their own
    Wronskian.  `linear_scale` bounds the single-transform identities,
    `quadratic_scale` the Wronskian-type ones.
    """

    x: np.ndarray
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
        parts = (self.modulation, self.g_recombination, self.h_recombination, self.phase_mix, self.rotation)
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

    Checked identities (LHS from direct moments, RHS from reflected ones, but
    the h_alpha Wronskian, whose sides both come from the direct moments):
      * F e^{-i sigma x} = C - i S
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


def _grid_minima(mod, low):
    """(i, i - 1, i + 1) for the local minima i of mod on a grid where low holds; both grid
    ends count as minima, and the neighbours are clipped.  A clipped neighbour is the
    point itself, which mod[i] <= mod[i] admits unless it is NaN; only the points
    where low holds are compared."""
    i = np.flatnonzero(low)
    below, above = np.maximum(i - 1, 0), np.minimum(i + 1, len(mod) - 1)
    here = mod[i]
    keep = (here <= mod[below]) & (here <= mod[above])
    return i[keep], below[keep], above[keep]


def _bracketed_newton(fn, lo, hi, x0, unit):
    """Roots of fn in the brackets [lo, hi], one per bracket, from the starts x0.

    fn(x, k) returns (f, f', rows) at the points x of the brackets with indices
    k, f oriented to rise through the root, f(lo) <= 0 <= f(hi), and rows an
    array over x in its last axis.  Every bracket still moving is evaluated in
    one call per iteration, carried as compacted arrays.  A Newton
    step that leaves its bracket, or is not finite, becomes a bisection step.
    Where f does not change sign, the iteration runs into the end that
    bisection would reach: lo where f > 0, hi where f < 0, which is the
    minimum when f is the slope of a function minimized on the bracket.  A
    bracket stops at f = 0, or once the step or the bracket width falls below
    _NEWTON_XTOL * max(unit, |x|), so that near 0 the tolerance is a length
    of the caller's problem: every caller passes 1 / sigma, the unit in which
    the transforms of type sigma vary.  Returns (x, at, rows): the roots, each
    bracket's last evaluated point, within that tolerance of its root or a
    last step short of it after _NEWTON_MAXITER iterations, and that call's
    rows (None without a bracket), from which each caller certifies its roots.
    """
    x = np.array(x0, dtype=float).reshape(-1)
    lo = np.array(np.broadcast_to(lo, x.shape), dtype=float)
    hi = np.array(np.broadcast_to(hi, x.shape), dtype=float)
    k, xk = np.arange(x.size), x.copy()
    at, rows = x.copy(), None
    for _ in range(_NEWTON_MAXITER):
        if not k.size:
            break
        f, fp, r = fn(xk, k)
        rows = np.empty(r.shape[:-1] + x.shape, r.dtype) if rows is None else rows
        at[k], rows[..., k] = xk, r
        lo = np.where(f < 0.0, xk, lo)
        hi = np.where(f > 0.0, xk, hi)
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xk - f / fp
        tol = _NEWTON_XTOL * np.maximum(unit, np.abs(xk))
        # a step below the tolerance ends the search even where rounding puts
        # it on the bracket's edge; a NaN step fails every comparison
        zero = f == 0.0
        converged = zero | (np.abs(newton - xk) <= tol)
        inside = (newton > lo) & (newton < hi)
        xk = np.where(zero, xk, np.where(converged | inside, newton, 0.5 * (lo + hi)))
        x[k] = xk
        moving = ~(converged | (hi - lo <= tol))
        k, xk, lo, hi = k[moving], xk[moving], lo[moving], hi[moving]
    return x, at, rows


def _leibniz_bounds(measure: StieltjesMeasure, n: int, r):
    """(b0, b1, b2), bounds of |w^(j)| for w = x^n W0 on |x| <= r, from Bernstein's
    |W0^(j)| <= sigma^j V: sigma^j V for n = 0; r sigma^j V + j sigma^(j-1) V for
    n = 1, by Leibniz's rule; sigma^(j+1) V / (j + 1) for n = -1, where W0(0) = 0
    gives w = int_0^1 W0'(u x) du.  r may be an array."""
    b = measure.bound
    if n == 0:
        return b(0), b(1), b(2)
    if n == 1:
        return r * b(0), r * b(1) + b(0), r * b(2) + 2.0 * b(1)
    return b(1), b(2) / 2.0, b(3) / 3.0


def _newton_residual(f, fp, d, m2, scale):
    """A bound on |w(x + d)| from w(x) = f and w'(x) = fp, where |w''| <= m2 between.

    Taylor's theorem gives w(x + d) = f + d fp + R with |R| <= m2 |d|^2 / 2.
    A Newton step d = -f / fp leaves |f + d fp| at rounding; the evaluator's
    own error on f and fp, which a fresh evaluation at x + d would show too,
    is allowed for by _ROUNDING times the scale of w.  The arguments may be
    arrays.
    """
    return np.abs(f + d * fp) + 0.5 * m2 * np.abs(d) ** 2 + _ROUNDING * scale
