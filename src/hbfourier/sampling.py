"""Sine-kernel interpolation identity for exponential-type functions.

For f of exponential type <= sigma with f(x) = o(x) on the real axis,

  sigma f(x) cos(sigma x + alpha) - f'(x) sin(sigma x + alpha)
    = sigma * lim_n sum_{k=-n}^{n} sin^2(sigma x + alpha) / (sigma x + alpha - k pi)^2
                    * (-1)^k f((k pi - alpha) / sigma).

Only this first-derivative instance against sin(sigma z + alpha) is provided;
the partial sums are always symmetric in k (the terms are paired +-k, with a
fixed reduction order so results are bit-stable), and a truncation envelope is
reported alongside the value.  The class gives no quantitative decay rate, so
the envelope samples |f| on the next block of nodes; it is an estimate, not a
certified bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .inequality import OmegaConfig
from .transforms import _grid_moments, _omega_rows

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

    Both callables must accept numpy arrays.  The constructor cross-checks the
    derivative against a central difference at a fixed set of probe points, so
    mismatched (evaluate, derivative) pairs fail fast.
    """

    evaluate: Callable
    derivative: Callable
    sigma: float

    def __post_init__(self):
        if self.sigma <= 0:
            raise ValueError("sigma must be positive")
        rng = np.random.default_rng(20240917)
        probes = rng.uniform(-3.0, 3.0, size=10)
        h = 6e-6
        f_scale = float(np.max(np.abs(self.evaluate(probes)))) + 1.0
        fd = (self.evaluate(probes + h) - self.evaluate(probes - h)) / (2.0 * h)
        an = self.derivative(probes)
        denom = np.maximum(np.maximum(np.abs(an), np.abs(fd)), 1e-4 * f_scale)
        worst = float(np.max(np.abs(an - fd) / denom))
        if worst > 1e-6:
            raise ValueError(f"derivative disagrees with central difference (rel {worst:.2e})")


def from_omega_config(cfg: OmegaConfig, alpha: float) -> SampledFunction:
    """f(x) = Re(e^{i alpha} u^n F(u)) = P(u) cos(alpha) - Q(u) sin(alpha) at u = x - tau/sigma.

    P = x^n G and Q = x^n H for the config's measure; such f has exponential
    type <= sigma and is o(x), so the interpolation identity applies to it.
    f and f' each take one pass of the evaluator over the direct moments,
    which `transforms._omega_rows` turns into (u^n F)^(j); for n = -1 it
    forms F(u) / u near u = 0 from its Taylor series.
    """
    m = cfg.measure
    sig = m.sigma
    shift = cfg.tau / sig
    ca, sa = math.cos(alpha), math.sin(alpha)

    def derivative(x, j):  # f^(j)(x) for j = 0 or 1
        u = np.asarray(x, dtype=float) - shift
        pq = _omega_rows(m, u, _grid_moments(m, u, j)[0], n=cfg.n)[j]
        return pq.real * ca - pq.imag * sa

    return SampledFunction(evaluate=lambda x: derivative(x, 0), derivative=lambda x: derivative(x, 1), sigma=sig)


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


def _kernel_terms(theta: float, k: np.ndarray, node_values: np.ndarray) -> np.ndarray:
    """sin^2(theta) / (theta - k pi)^2 * (-1)^k f(lambda_k), with removable poles."""
    gaps = theta - k * math.pi
    signs = np.where(k % 2 == 0, 1.0, -1.0)
    near = np.abs(gaps) < NODE_COINCIDENCE
    safe = np.where(near, 1.0, gaps)
    kernel = np.where(near, 1.0, math.sin(theta) ** 2 / safe**2)
    return kernel * signs * node_values


def _node_samples(f: SampledFunction, sigma: float, alpha: float, n_terms: int):
    """(f at the 2 n_terms + 1 series nodes, max |f| over the next 2 n_terms
    on each side): the samples `_series_at` sums, the same for every x."""
    if n_terms < 1:
        raise ValueError("n_terms must be >= 1")
    if sigma <= 0:
        raise ValueError("sigma must be positive")
    k = np.arange(-n_terms, n_terms + 1)
    values = np.asarray(f.evaluate((k * math.pi - alpha) / sigma), dtype=float)
    k_far = np.arange(n_terms + 1, 3 * n_terms + 1)
    far_nodes = np.concatenate([(k_far * math.pi - alpha) / sigma, (-k_far * math.pi - alpha) / sigma])
    f_max = float(np.max(np.abs(np.asarray(f.evaluate(far_nodes), dtype=float))))
    return values, f_max


def _series_at(samples, sigma: float, alpha: float, x: float) -> SeriesEvaluation:
    """The series of `interp_rhs` at x, from the node samples of `_node_samples`."""
    values, f_max = samples
    n_terms = len(values) // 2
    theta = sigma * x + alpha
    terms = _kernel_terms(theta, np.arange(-n_terms, n_terms + 1), values)
    center = terms[n_terms]
    pos = terms[n_terms + 1 :]
    neg = terms[n_terms - 1 :: -1]
    value = sigma * (center + float(np.add.reduce(pos + neg)))
    a = theta / math.pi
    tail_sum = (_trigamma(n_terms + 1 - a) + _trigamma(n_terms + 1 + a)) / math.pi**2
    return SeriesEvaluation(value=float(value), n_terms=int(n_terms), tail_bound=float(sigma * f_max * tail_sum))


def interp_rhs(f: SampledFunction, sigma: float, alpha: float, x: float, n_terms: int) -> SeriesEvaluation:
    """Symmetric partial sum of the interpolation series plus a tail envelope.

    The terms are paired +-k and reduced in ascending |k| order, so the value
    does not depend on evaluation scheduling.  tail_bound multiplies the
    sampled maximum of |f| over the next 2 n_terms nodes by the exact
    trigamma tail of the kernel; sin^2 <= 1 is not used to sharpen it.
    """
    return _series_at(_node_samples(f, sigma, alpha, n_terms), sigma, alpha, x)
