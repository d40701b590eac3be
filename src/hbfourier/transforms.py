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

All functions are pure; measures are immutable, so grid sweeps may share them
across workers.
"""

from __future__ import annotations

import cmath
import functools
import math
from dataclasses import dataclass

import numpy as np

from .measure import PiecewiseLinearDensity, StieltjesMeasure

# series fallback below |a| * w; the closed-form recurrence loses ~|result/terms|
# digits to cancellation as |a| w -> 0 while the series is eps-exact here
_SERIES_CUT = 1.0
_SERIES_TERMS = 30
_FOLD_LIMIT = 700.0  # log threshold beyond which a scaled value cannot be folded
_MAX_ORDER = 2  # highest moment order any caller needs (second derivatives)
# points x panels evaluated together: the temporaries of a 4096 block peak near
# 1 MB, and larger blocks raise the peak memory in proportion without running faster
_BLOCK = 4096


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

    small = np.abs(a) * w < _SERIES_CUT
    if small.any():
        aw = a[small] * w[small]
        # the terms (aw)^j / j! are shared by every m; only the divisors differ
        m1 = np.arange(1.0, order + 2)[:, None]
        term = np.ones_like(aw)
        acc = term / m1
        for j in range(1, _SERIES_TERMS):
            term = term * aw / j
            acc += term / (m1 + j)
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


@functools.lru_cache(maxsize=64)  # an entry of a 2049-panel density is about 0.4 MB
def _panel_arrays(density: PiecewiseLinearDensity):
    """A density's panels laid out for evaluating all of them at once.

    Returns (t0, w_powers, rows).  t0 and w_powers[k] = w ** (k + 1) are
    columns of shape (P, 1).  For a panel p, q_j are the coefficients of
    t^m (v0 + slope u) as a polynomial in u = t - t0, so the panel adds
    sum_j q_j N_j to T_m.  rows[m] = (index, q) lists the nonzero q_j, panel
    by panel, with index = j * P + p locating N_j of panel p in the moments
    flattened to shape ((order + 2) * P, points).
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
    return t0, w_powers[:, :, None], tuple(rows)


def _grid_moments(measure: StieltjesMeasure, z, order: int):
    """Scaled moments (T, E) with int t^m e^{izt} dmu(t) = T[m] e^E, m = 0..order.

    z is a real or complex scalar or array; E = max(0, -Im z * sigma), which
    is 0 on real input, and every exponential evaluated has a nonpositive
    real part, so points far below the real axis cannot overflow.  Atoms are
    added one by one; all density panels of a block of points are evaluated
    together and summed in panel order, so a point's moments do not depend on
    the other points of the call.  T has shape (order + 1,) + z.shape.
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
        t0, w_powers, rows = _panel_arrays(measure.density)
        a, E, flat = a.reshape(-1), E.reshape(-1), T.reshape(order + 1, -1)
        step = max(1, _BLOCK // len(t0))
        for lo in range(0, a.size, step):
            blk = slice(lo, lo + step)
            M = _segment_moments(w_powers[: order + 2], a[blk], a[blk] * t0 - E[blk])
            M = M.reshape(-1, M.shape[-1])
            for m in range(order + 1):
                rows_m, q = rows[m]
                terms = np.empty((len(q) + 1, M.shape[-1]), dtype=complex)
                terms[0] = flat[m, blk]
                np.take(M, rows_m, axis=0, out=terms[1:])
                terms[1:] *= q
                # cumulative sum down the rows adds the panel terms in order
                flat[m, blk] = np.cumsum(terms, axis=0)[-1]
            del M, terms  # free this block's arrays before the next block's
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
    def Gpp(self):
        return -self.direct[2].real

    @property
    def Hpp(self):
        return -self.direct[2].imag

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
    def Cpp(self):
        return -self.mirrored[2].real

    @property
    def Spp(self):
        return -self.mirrored[2].imag

    @property
    def Delta(self):
        return self.G * self.Hp - self.Gp * self.H


def real_transforms(measure: StieltjesMeasure, x, order: int = 1) -> RealTransforms:
    """Evaluate all components on a real grid; order 2 adds second derivatives."""
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
        Fp=complex(1j * rt.direct[1][0]),
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
    return _fold((1j) ** k * T[k], scale)


def _combine_scaled(pairs):
    """Sum of terms coef * mant * e^E given (coef, mant, E); returns (mant, E)."""
    emax = functools.reduce(np.maximum, (E for _, _, E in pairs))
    total = sum(coef * mant * np.exp(E - emax) for coef, mant, E in pairs)
    return total, emax


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
    """E(x) = x^n (C cos(tau) - S sin(tau)); removable x = 0 case for n = -1.

    For n = -1 the limit at 0 is -S'(0) sin(tau) and requires F(0) = 0; a
    nonzero F(0) makes x = 0 a genuine pole and raises ValueError.
    """
    if n not in (-1, 0, 1):
        raise ValueError("n must be -1, 0, or 1")
    x = np.asarray(x, dtype=float)
    reflected = _grid_moments(_reflected(measure), x, 0)[0][0]  # C + iS
    base = reflected.real * math.cos(tau) - reflected.imag * math.sin(tau)
    if n == 0:
        out = base
    elif n == 1:
        out = x * base
    else:
        at_zero = np.abs(x) < 1e-12
        if at_zero.any():
            f0 = measure.total_mass
            if abs(f0) > 1e-12 * max(1.0, measure.total_variation):
                raise ValueError("x = 0 with n = -1 requires F(0) = 0")
            sp0 = _reflected(measure).moment(1)  # S'(0) of the reflected transform
            out = np.where(at_zero, -sp0 * math.sin(tau), base / np.where(at_zero, 1.0, x))
        else:
            out = base / x
    return out if out.ndim else float(out)


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
