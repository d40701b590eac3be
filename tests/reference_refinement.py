"""Reference copies of the equality refinement as it was before it read its start
and its acceptance from the passes the check already makes.

The grid pass (`_margin_pieces`) is unchanged, so the reference reads it from
the package; everything after it is copied: the padded `_grid_minima`, the
`_bracketed_newton` loop that indexes every array by the moving brackets, the
refinement that starts each search at its grid point, and the acceptance from
a fresh `_margin_pieces` pass at the refined points.  The tests compare the
package with these bit for bit.
"""

import numpy as np

from hbfourier.inequality import MARGIN_TOL, _margin_pieces
from hbfourier.transforms import (
    _NEWTON_MAXITER,
    _NEWTON_XTOL,
    _ORIGIN_RADIUS,
    _grid_moments,
    _mirrored_rows,
    _reflected,
)


def grid_minima(mod, low):
    padded = np.concatenate([[np.inf], mod, [np.inf]])
    i = np.flatnonzero((mod <= padded[:-2]) & (mod <= padded[2:]) & low)
    return i, np.maximum(i - 1, 0), np.minimum(i + 1, len(mod) - 1)


def bracketed_newton(fn, lo, hi, x0, unit):
    x = np.array(x0, dtype=float).reshape(-1)
    lo = np.array(np.broadcast_to(lo, x.shape), dtype=float)
    hi = np.array(np.broadcast_to(hi, x.shape), dtype=float)
    k = np.arange(x.size)
    for _ in range(_NEWTON_MAXITER):
        if not k.size:
            break
        xk = x[k]
        f, fp = fn(xk, k)[:2]
        lo[k] = np.where(f < 0.0, xk, lo[k])
        hi[k] = np.where(f > 0.0, xk, hi[k])
        with np.errstate(divide="ignore", invalid="ignore"):
            newton = xk - f / fp
        tol = _NEWTON_XTOL * np.maximum(unit, np.abs(xk))
        converged = (f == 0.0) | (np.abs(newton - xk) <= tol)
        inside = (newton > lo[k]) & (newton < hi[k])
        x[k] = np.where(f == 0.0, xk, np.where(converged | inside, newton, 0.5 * (lo[k] + hi[k])))
        k = k[~(converged | (hi[k] - lo[k] <= tol))]
    return x


def e_derivatives(cfg, x):
    T = _grid_moments(_reflected(cfg.measure), x, 2)[0]
    return [w.real for w in _mirrored_rows(cfg.measure, cfg.tau, cfg.n, x, T)]


def refine_equality_points(cfg, grid, e_vals, e_tol, roots=None):
    """The equality points; `roots`, a list, receives every bracket's Newton result."""
    e_abs = np.abs(e_vals)
    e_scale = float(np.max(e_abs)) if e_abs.size else 0.0
    threshold = max(100.0 * e_tol, 1e-3 * e_scale)
    i, below, above = grid_minima(e_abs, e_abs <= threshold)
    lo, hi = grid[below], grid[above]
    sig = cfg.measure.sigma
    if cfg.n != 0:
        away = (sig * lo > _ORIGIN_RADIUS) | (sig * hi < -_ORIGIN_RADIUS)
        i, below, above, lo, hi = i[away], below[away], above[away], lo[away], hi[away]
    if not i.size:
        return ()
    crossing = np.sign(e_vals[below]) * np.sign(e_vals[above]) < 0
    sign = np.where(crossing, np.sign(e_vals[above]), np.sign(e_vals[below] + e_vals[above]))

    def target(x, k):
        e0, e1, e2 = e_derivatives(cfg, x)
        return sign[k] * np.where(crossing[k], e0, e1), sign[k] * np.where(crossing[k], e1, e2)

    x = bracketed_newton(target, lo, hi, grid[i], 1.0 / sig)
    if roots is not None:
        roots.append(x)
    margin, _, scale, e_star = _margin_pieces(cfg, x)[:4]
    points = []
    for x_star, e, mg, sc in zip(x.tolist(), np.abs(e_star).tolist(), margin.tolist(), scale.tolist()):
        if not (e <= e_tol and abs(mg) <= MARGIN_TOL * sc):
            continue
        if points and abs(points[-1] - x_star) < 1e-9 * max(1.0 / sig, abs(x_star)):
            continue
        points.append(x_star)
    return tuple(points)
