"""Independent high-precision oracles for the benchmark's correctness checks.

Nothing here calls into hbfourier's numerics.  A measure is read only through
its stored representation (sigma, atoms, density panels), and every value is
recomputed with mpmath at `DPS` decimal digits:

* `MpTransforms` evaluates F, F', G, H, C, S, their first derivatives and
  Delta in closed form.  The density integral is summed node by node after
  integrating each linear panel by parts, so one exponential per node suffices;
  the working precision absorbs the cancellation between nodes.
* `atomic_zeros` finds the zeros of F for atoms at integer positions from the
  roots of the polynomial in w = e^{iz}: z = arg(w) + 2 pi k - i ln|w|, so
  Im z < 0 exactly when |w| > 1.
* `imaginary_zero` solves F(iy) = 0 with mpmath.findroot on a bracket found by
  its own scan.
* `fejer2_equality_points` and the global equality of the single atom at sigma
  are closed forms of the inequality's equality cases.
"""

from __future__ import annotations

import math

import mpmath

#: working precision; values are compared at double precision, and the node
#: sums lose at most ~25 digits to cancellation on the benchmark's measures
DPS = 60
#: digits reported when the program's value matches the oracle exactly
MAX_DIGITS = 17.0


class MpTransforms:
    """40-digit-or-better transforms of one measure's stored representation."""

    def __init__(self, measure):
        with mpmath.workdps(DPS):
            self.sigma = mpmath.mpf(measure.sigma)
            self.atoms = [(mpmath.mpf(t), mpmath.mpf(c)) for t, c in measure.atoms]
            # per node: (t_j, jump of the density value, jump of the slope),
            # each jump taken as (panel ending at t_j) - (panel starting at t_j)
            nodes: dict = {}
            self.panels = []
            dens = measure.density
            if dens is not None:
                for t0, t1, v0, v1 in zip(dens.nodes, dens.nodes[1:], dens.left, dens.right):
                    t0m, t1m = mpmath.mpf(t0), mpmath.mpf(t1)
                    v0m, v1m = mpmath.mpf(v0), mpmath.mpf(v1)
                    self.panels.append((t0m, t1m, v0m, v1m))
                    slope = (v1m - v0m) / (t1m - t0m)
                    a0, s0 = nodes.get(t0, (0, 0))
                    nodes[t0] = (a0 - v0m, s0 - slope)
                    a1, s1 = nodes.get(t1, (0, 0))
                    nodes[t1] = (a1 + v1m, s1 + slope)
            self.nodes = [(mpmath.mpf(t), a, s) for t, (a, s) in sorted(nodes.items())]
            self.variation = sum(abs(c) for _, c in self.atoms) + (
                mpmath.mpf(dens.abs_mass()) if dens is not None else 0
            )

    def moments(self, z, order: int = 1):
        """[T_0, ..., T_order] with T_m = int t^m e^{izt} dmu(t), at DPS digits."""
        with mpmath.workdps(DPS):
            z = mpmath.mpmathify(z)
            lam = 1j * z
            T = [mpmath.mpc(0)] * (order + 1)
            for t, c in self.atoms:
                e = c * mpmath.exp(lam * t)
                for m in range(order + 1):
                    T[m] += e * t**m
            if lam == 0:
                for t0, t1, v0, v1 in self.panels:
                    s = (v1 - v0) / (t1 - t0)
                    a0 = v0 - s * t0  # density a0 + s t on the panel
                    for m in range(order + 1):
                        T[m] += a0 * (t1 ** (m + 1) - t0 ** (m + 1)) / (m + 1)
                        T[m] += s * (t1 ** (m + 2) - t0 ** (m + 2)) / (m + 2)
            elif self.nodes:
                # per node, sa[j] = sum e^{lam t} a t^j and sb[j] likewise for b
                sa = [mpmath.mpc(0)] * (order + 1)
                sb = [mpmath.mpc(0)] * (order + 1)
                for t, a, b in self.nodes:
                    e = mpmath.exp(lam * t)
                    tj = mpmath.mpf(1)
                    for j in range(order + 1):
                        sa[j] += a * e * tj
                        sb[j] += b * e * tj
                        tj *= t
                # q = t^m p with p linear: int q e^{lam t} = e^{lam t} sum_k
                # (-1)^k q^(k) / lam^(k+1), and the jump of q^(k) at a node is
                # ff(m, k) t^(m-k) a + k ff(m, k-1) t^(m-k+1) b
                for m in range(order + 1):
                    acc = mpmath.mpc(0)
                    for k in range(m + 2):
                        term = 0
                        if k <= m:
                            term += _falling(m, k) * sa[m - k]
                        if k >= 1:
                            term += k * _falling(m, k - 1) * sb[m - k + 1]
                        acc += (-1) ** k * term / lam ** (k + 1)
                    T[m] += acc
            return T

    def real_values(self, x) -> dict:
        """Every real-axis component at the real point x, as mpf values."""
        with mpmath.workdps(DPS):
            x = mpmath.mpf(x)
            T0, T1 = self.moments(x, 1)
            F = T0
            Fp = 1j * T1
            rot = mpmath.exp(-1j * self.sigma * x)
            cs = rot * F  # C - iS
            csp = rot * (Fp - 1j * self.sigma * F)  # C' - iS'
            G, H = F.real, F.imag
            Gp, Hp = -T1.imag, T1.real
            return {
                "F_re": G,
                "F_im": H,
                "G": G,
                "H": H,
                "Gp": Gp,
                "Hp": Hp,
                "C": cs.real,
                "S": -cs.imag,
                "Cp": csp.real,
                "Sp": -csp.imag,
                "Delta": G * Hp - Gp * H,
            }

    def scales(self) -> dict:
        """Natural bound of each component on the real axis (|F| <= V, ...)."""
        v = float(self.variation)
        sig = float(self.sigma)
        first = sig * v
        return {
            "F_re": v,
            "F_im": v,
            "G": v,
            "H": v,
            "C": v,
            "S": v,
            "Gp": first,
            "Hp": first,
            "Cp": first,
            "Sp": first,
            "Delta": 2.0 * v * first,
        }

    def F(self, z):
        return self.moments(z, 0)[0]


def _falling(m: int, k: int) -> int:
    """m (m - 1) ... (m - k + 1), the k-th derivative factor of t^m."""
    out = 1
    for i in range(k):
        out *= m - i
    return out


def digits(value, exact, scale: float) -> float:
    """Correct significant digits of `value`, relative to max(|exact|, scale).

    Near a zero of the component the natural scale takes over, so that a
    value crossing zero is not charged for meaningless relative digits.
    """
    exact_f = complex(exact)
    err = abs(complex(value) - exact_f)
    ref = max(abs(exact_f), scale)
    if err == 0.0:
        return MAX_DIGITS
    return min(MAX_DIGITS, -math.log10(err / ref))


def atomic_zeros(measure, dps: int = 40):
    """Zeros of F for atoms at integer positions, as (x0, y) pairs.

    The zeros are x0 + 2 pi k + i y for every integer k, with x0 in (-pi, pi].
    """
    coeffs: dict = {}
    for t, c in measure.atoms:
        k = int(round(t))
        if k != t:
            raise ValueError("atomic_zeros needs atoms at integer positions")
        coeffs[k] = c
    lo = min(coeffs)
    hi = max(coeffs)
    if hi == lo:
        return []
    # F = w^lo * P(w) with P of degree hi - lo and P(0) != 0
    poly = [coeffs.get(k, 0.0) for k in range(hi, lo - 1, -1)]
    with mpmath.workdps(dps):
        roots = mpmath.polyroots(poly, maxsteps=200, extraprec=2 * dps)
        return [(float(mpmath.arg(w)), float(-mpmath.log(abs(w)))) for w in roots]


def zeros_in_rect(zero_list, x_min, x_max, y_min, y_max):
    """Zeros (from `atomic_zeros`) strictly inside the rectangle."""
    out = []
    for x0, y in zero_list:
        if not (y_min < y < y_max):
            continue
        k_lo = math.ceil((x_min - x0) / (2.0 * math.pi))
        k_hi = math.floor((x_max - x0) / (2.0 * math.pi))
        for k in range(k_lo, k_hi + 1):
            x = x0 + 2.0 * math.pi * k
            if x_min < x < x_max:
                out.append(complex(x, y))
    return out


def boundary_distance(zero_list, x_min, x_max, y_min, y_max) -> float:
    """Smallest distance from any zero to the rectangle's boundary."""
    best = math.inf
    for x0, y in zero_list:
        k_lo = math.floor((x_min - x0) / (2.0 * math.pi)) - 1
        k_hi = math.ceil((x_max - x0) / (2.0 * math.pi)) + 1
        for k in range(k_lo, k_hi + 1):
            x = x0 + 2.0 * math.pi * k
            dx = max(x_min - x, 0.0, x - x_max)
            dy = max(y_min - y, 0.0, y - y_max)
            if dx == 0.0 and dy == 0.0:
                d = min(x - x_min, x_max - x, y - y_min, y_max - y)
            else:
                d = math.hypot(dx, dy)
            best = min(best, d)
    return best


def imaginary_zero(mp: MpTransforms, dps: int = 40):
    """y* < 0 with F(i y*) = 0, or None if F(iy) keeps its sign on [-64, 0).

    F(iy) is real for a real measure; the bracket comes from a doubling scan.
    """
    with mpmath.workdps(dps):
        def g(y):
            return mpmath.re(mp.F(mpmath.mpc(0, y)))

        hi = mpmath.mpf("-1e-6")
        g_hi = g(hi)
        lo = mpmath.mpf(-0.25)
        while lo >= -64:
            g_lo = g(lo)
            if g_lo * g_hi < 0:
                root = mpmath.findroot(g, (lo, hi), solver="anderson")
                return float(root)
            hi, g_hi = lo, g_lo
            lo *= 2
        return None


def fejer2_equality_points(x_lo: float, x_hi: float):
    """Odd multiples of pi in [x_lo, x_hi]: where C = (1 + cos x)/2 vanishes."""
    k_lo = math.ceil((x_lo / math.pi - 1.0) / 2.0)
    k_hi = math.floor((x_hi / math.pi - 1.0) / 2.0)
    return [(2 * k + 1) * math.pi for k in range(k_lo, k_hi + 1)]
