"""Sine-kernel interpolation identity for exponential-type functions.

For f of exponential type <= sigma with f(x) = o(x) on the real axis,

  sigma f(x) cos(sigma x + alpha) - f'(x) sin(sigma x + alpha)
    = sigma * lim_n sum_{k=-n}^{n} sin^2(sigma x + alpha) / (sigma x + alpha - k pi)^2
                    * (-1)^k f((k pi - alpha) / sigma).

Only this first-derivative instance against sin(sigma z + alpha) is provided;
the partial sums are always symmetric in k (the terms are paired +-k, with a
fixed reduction order so results are bit-stable), and a truncation bound is
reported alongside the value: the exact trigamma tail of the kernel times a
certified bound on |f| past the last node, which the function supplies as
its `envelope`.  For f built from a measure the envelope follows from the
measure alone (`from_omega_config`), so no node past the series is
evaluated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inequality import OmegaConfig
from .transforms import _equispaced_moments, _grid_moments, _omega_rows

#: |sigma x + alpha - k pi| below which the kernel takes its removable value 1
NODE_COINCIDENCE = 1e-8
# the trigamma asymptotic series is used from this argument on; its first
# omitted term, B_18 / x^19, is then below 1e-16 of the value
_TRIGAMMA_CUT = 10.0
_BERNOULLI = (1 / 6, -1 / 30, 1 / 42, -1 / 30, 5 / 66, -691 / 2730, 7 / 6, -3617 / 510)  # B_2 .. B_16


def _trigamma(x: float) -> float:
    """psi_1(x) = sum_{k >= 0} 1 / (x + k)^2, infinite at the poles x = 0, -1, -2, ...

    Negative arguments use the reflection psi_1(x) = pi^2 / sin^2(pi x) -
    psi_1(1 - x); the recurrence psi_1(x) = 1 / x^2 + psi_1(x + 1) carries
    the rest up to the cut, where the asymptotic series
    1/x + 1/(2 x^2) + sum_k B_2k / x^(2k+1) takes over.
    """
    if x <= 0.0:
        if x == math.floor(x):
            return math.inf
        # x - round(x) is exact, so the sine keeps full relative accuracy
        return (math.pi / math.sin(math.pi * (x - round(x)))) ** 2 - _trigamma(1.0 - x)
    head = 0.0
    while x < _TRIGAMMA_CUT:
        head += 1.0 / (x * x)
        x += 1.0
    inv2 = 1.0 / (x * x)
    tail = 0.0
    for b in reversed(_BERNOULLI):
        tail = (tail + b) * inv2
    return head + (1.0 + 0.5 / x + tail) / x


@dataclass(frozen=True)
class SampledFunction:
    """A real function of exponential type <= sigma with its derivative.

    Both callables must accept numpy arrays.  `envelope(r)` must be a
    certified bound on |f(x)| over |x| >= r: the series' tail bound rests on
    it.  `on_nodes(step, offset, first, count)`, if given, returns f at the
    nodes k step + offset, first <= k < first + count, as `evaluate` would up
    to rounding; without it the nodes are passed to `evaluate`.  The
    constructor cross-checks the derivative against a central difference at
    a fixed set of probe points in (-3 / sigma, 3 / sigma), with the step
    6e-6 / sigma, so mismatched (evaluate, derivative) pairs fail fast.  The check is relative to the
    larger of the two derivatives and 1e-4 max |f| at the probes, so it does
    not depend on the units of f or x; the zero function passes, and a NaN
    fails.  f is evaluated once at the probes and both neighbours.
    """

    evaluate: Callable
    derivative: Callable
    sigma: float
    envelope: Callable
    on_nodes: Callable | None = None

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        rng = np.random.default_rng(20240917)
        probes = rng.uniform(-3.0, 3.0, size=10) / self.sigma
        h = 6e-6 / self.sigma
        values, up, down = np.reshape(self.evaluate(np.concatenate([probes, probes + h, probes - h])), (3, -1))
        f_scale = float(np.max(np.abs(values)))
        fd = (up - down) / (2.0 * h)
        an = self.derivative(probes)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-4 * f_scale)
        # |an - fd| <= 2 denom, so denom is positive wherever the error is; a NaN fails
        err = np.abs(an - fd)
        bad = ~(err <= 1e-6 * denom)
        if np.any(bad):
            worst = float(np.max(err[bad] / denom[bad]))
            raise ValueError(f"derivative disagrees with central difference (rel {worst:.2e})")


def from_omega_config(cfg: OmegaConfig, alpha: float) -> SampledFunction:
    """f(x) = Re(e^{i alpha} u^n F(u)) = P(u) cos(alpha) - Q(u) sin(alpha) at u = x - tau/sigma.

    P = x^n G and Q = x^n H for the config's measure; such f has exponential
    type <= sigma and is o(x), so the interpolation identity applies to it.
    f and f' each take one pass of the evaluator over the direct moments,
    which `transforms._omega_rows` turns into (u^n F)^(j); for n = -1 it
    forms F(u) / u near u = 0 from its Taylor series.  Equispaced nodes take
    `transforms._equispaced_moments`.

    The envelope: |F(u)| <= A + min(V_g, B_1 / |u|), with A the atoms' sum of
    |c|, V_g = int |g| and B_1 the total variation of the density g on the
    line, its jumps at the ends included, since integrating by parts gives
    int g e^{iut} dt = -(1 / iu) int e^{iut} dg.  Times |u|^n, its supremum
    over |u| >= rho = max(0, r - |tau| / sigma) is finite for every
    admissible config: for n = 1 there are no atoms and it is B_1; for
    n = -1, F(0) = 0 also gives |F(u) / u| <= sup |F'| <= sigma V (Bernstein).
    """
    m = cfg.measure
    sig = m.sigma
    shift = cfg.tau / sig
    ca, sa = math.cos(alpha), math.sin(alpha)

    def rows(u, T, j):  # f^(j) at u + shift from the moments T at u
        pq = _omega_rows(m, u, T, n=cfg.n)[j]
        return pq.real * ca - pq.imag * sa

    def derivative(x, j):  # f^(j)(x) for j = 0 or 1
        u = np.asarray(x, dtype=float) - shift
        return rows(u, _grid_moments(m, u, j)[0], j)

    def on_nodes(step, offset, first, count):
        u = step * np.arange(first, first + count) + (offset - shift)
        return rows(u, _equispaced_moments(m, step, offset - shift, first, count), 0)

    def envelope(r):
        v_g, b_1 = (m.density.abs_mass(), m.density.variation()) if m.density is not None else (0.0, 0.0)
        if cfg.n == 1:  # OmegaConfig refuses atoms for n = 1
            return b_1
        rho = max(r - abs(shift), 0.0)
        bound = math.fsum(abs(c) for _, c in m.atoms) + (min(v_g, b_1 / rho) if rho > 0.0 else v_g)
        if cfg.n == 0:
            return bound
        return min(m.bound(1), bound / rho) if rho > 0.0 else m.bound(1)

    return SampledFunction(lambda x: derivative(x, 0), lambda x: derivative(x, 1), sig, envelope, on_nodes)


@dataclass(frozen=True)
class SeriesEvaluation:
    value: float
    n_terms: int
    tail_bound: float


def interp_lhs(f: SampledFunction, sigma: float, alpha: float, x: float) -> float:
    """sigma f(x) cos(sigma x + alpha) - f'(x) sin(sigma x + alpha)."""
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    phase = sigma * x + alpha
    fx = float(np.asarray(f.evaluate(np.array([x])))[0])
    fpx = float(np.asarray(f.derivative(np.array([x])))[0])
    return sigma * fx * math.cos(phase) - fpx * math.sin(phase)


def _kernel_terms(theta: float, k_pi: np.ndarray, signed_values: np.ndarray) -> np.ndarray:
    """sin^2(theta) / (theta - k pi)^2 * (-1)^k f(lambda_k), with removable poles, from the
    nodes' k pi and (-1)^k f(lambda_k)."""
    gaps = theta - k_pi
    near = np.abs(gaps) < NODE_COINCIDENCE
    if not near.any():
        return math.sin(theta) ** 2 / gaps**2 * signed_values
    kernel = np.where(near, 1.0, math.sin(theta) ** 2 / np.where(near, 1.0, gaps) ** 2)
    return kernel * signed_values


def _node_samples(f: SampledFunction, sigma: float, alpha: float, n_terms: int):
    """(k pi and (-1)^k f at the 2 n_terms + 1 series nodes (k pi - alpha) / sigma, |k| <= n_terms,
    and f's envelope past them): the samples `_series_at` sums, the same for every x."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = np.arange(-n_terms, n_terms + 1)
    if f.on_nodes is not None:
        values = f.on_nodes(math.pi / sigma, -alpha / sigma, -n_terms, 2 * n_terms + 1)
    else:
        values = f.evaluate((k * math.pi - alpha) / sigma)
    signed = np.array(values, dtype=float)
    signed[(n_terms + 1) % 2 :: 2] *= -1.0  # the odd k
    # every omitted node has |x| >= ((n_terms + 1) pi - |alpha|) / sigma
    return k * math.pi, signed, float(f.envelope(((n_terms + 1) * math.pi - abs(alpha)) / sigma))


def _series_at(samples, sigma: float, alpha: float, x: float) -> SeriesEvaluation:
    """The series of `interp_rhs` at x, from the node samples of `_node_samples`."""
    k_pi, signed, envelope = samples
    n_terms = len(signed) // 2
    theta = sigma * x + alpha
    terms = _kernel_terms(theta, k_pi, signed)
    center = terms[n_terms]
    pos = terms[n_terms + 1 :]
    neg = terms[n_terms - 1 :: -1]
    value = sigma * (center + float(np.add.reduce(pos + neg)))
    a = theta / math.pi
    tail_sum = (_trigamma(n_terms + 1 - a) + _trigamma(n_terms + 1 + a)) / math.pi**2
    return SeriesEvaluation(value=float(value), n_terms=int(n_terms), tail_bound=float(sigma * envelope * tail_sum))


def interp_rhs(f: SampledFunction, sigma: float, alpha: float, x: float, n_terms: int) -> SeriesEvaluation:
    """Symmetric partial sum of the interpolation series plus a certified tail bound.

    The terms are paired +-k and reduced in ascending |k| order, so the value
    does not depend on evaluation scheduling.  tail_bound multiplies f's
    envelope past the last node by the exact trigamma tail of the kernel, a
    certified bound on the omitted terms; sin^2 <= 1 is not used to sharpen it.
    """
    return _series_at(_node_samples(f, sigma, alpha, n_terms), sigma, alpha, x)
