"""The benchmark's three workloads: inputs, oracle answers and tasks.

Each workload is built in three steps.  `build(seed)` makes the inputs with
hbfourier's public constructors; it is all that a cold start runs, so it
imports nothing else.  `expect(fixtures)` computes the independent answers
with `oracle` (mpmath) before any timing.  `tasks(fixtures, expected, workdir)`
returns the round: a list of `Task`s whose `run` calls the program and whose
`check` compares the output with the expected answer.

Sizes are fixed; the seed moves points, coefficients, rectangles and offsets
only, so the cost of a round barely depends on it.  Tasks marked `probe` have
seed-independent inputs; `accuracy_digits` is their fewest correct digits, so
that it measures precision rather than where the seed put the points.
"""

from __future__ import annotations

import json
import math
import os
import selectors
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from hbfourier import inequality, measure, posdef, sampling, transforms, zeros

#: correct digits every checked value must reach, probe or not
MIN_DIGITS = 9.0
#: fixed real points of the axis accuracy probe
AXIS_PROBE_X = (0.37, 2.9, 11.3, 41.7)
#: series length of every interpolation task
INTERP_TERMS = 2000
#: components of the real-axis bundle compared with the oracle
RT_FIELDS = ("G", "H", "Gp", "Hp", "C", "S", "Cp", "Sp", "Delta")

OK, FAILED, WRONG = "ok", "failed", "wrong"


@dataclass
class Outcome:
    status: str
    digits: list = field(default_factory=list)
    note: str = ""


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Outcome]
    probe: bool = False


def _rng(seed: int, stream: int):
    return np.random.default_rng([int(seed), stream])


def _judge(digits: list, note: str = "", ok: bool = True) -> Outcome:
    if not ok:
        return Outcome(WRONG, digits, note)
    low = [d for d in digits if d < MIN_DIGITS]
    if low:
        return Outcome(WRONG, digits, f"{note} only {min(low):.2f} correct digits".strip())
    return Outcome(OK, digits, note)


# -- shared fixtures --------------------------------------------------------------


def ramp(sigma: float = 1.0, height: float = 1.0):
    dens = measure.PiecewiseLinearDensity.interpolant([0.0, sigma], [0.0, height])
    return measure.StieltjesMeasure(sigma, (), dens)


def triangle(panels: int, jump: float, sigma: float = 1.0):
    """Triangular profile (1 - t/sigma)_+ on `panels` panels, jump at sigma.

    F(0) = 1 + jump and the left-limit mass is 1, so jump in (-1, 0) is the
    borderline window with one zero on the negative imaginary axis.
    """
    nodes = [sigma * i / panels for i in range(panels + 1)]
    values = [1.0 - i / panels for i in range(panels + 1)]
    return measure.from_pd_profile(nodes, values, jump)


def integer_atoms(rng, degree: int):
    """Atoms c_k at t = 0..degree with |c_k| in [0.3, 1] and random signs."""
    c = rng.uniform(0.3, 1.0, degree + 1) * rng.choice([-1.0, 1.0], degree + 1)
    return measure.StieltjesMeasure(float(degree), tuple((float(k), float(c[k])) for k in range(degree + 1)))


def seeded_rectangle(rng, zero_list, margin: float = 0.15):
    """A rectangle whose boundary stays `margin` away from every known zero."""
    import oracle

    while True:
        x_min = float(rng.uniform(-12.0, 4.0))
        x_max = x_min + float(rng.uniform(6.0, 10.0))
        y_min = float(rng.uniform(-2.5, -0.6))
        y_max = float(rng.uniform(0.4, 2.0))
        if oracle.boundary_distance(zero_list, x_min, x_max, y_min, y_max) >= margin:
            return (x_min, x_max, y_min, y_max)


def _margin_oracle(ref: dict, sigma, n: int, tau: float, x):
    """(lhs, rhs) of 4 sigma d >= x^{2n-2} D for n in {0, 1}, from oracle values."""
    ct, st = math.cos(tau), math.sin(tau)
    delta = ref["Delta"]
    if n == 0:
        bracket = (2 * sigma * ref["S"] + ref["Cp"]) * ct + (2 * sigma * ref["C"] - ref["Sp"]) * st
        return 4 * sigma * delta, bracket**2
    bracket = (2 * sigma * x * ref["S"] + x * ref["Cp"] + ref["C"]) * ct + (
        2 * sigma * x * ref["C"] - x * ref["Sp"] - ref["S"]
    ) * st
    return 4 * sigma * x * x * delta, bracket**2


def _equality_points_hold(mp, cfg, points, variation):
    """Every reported equality point is one per the oracle: E and margin vanish."""
    import mpmath

    scale_e = 1e-5 * max(variation, 1.0)
    for x in points:
        ref = mp.real_values(x)
        e = float(ref["C"] * math.cos(cfg.tau) - ref["S"] * math.sin(cfg.tau)) * (x**cfg.n)
        lhs, rhs = _margin_oracle(ref, mp.sigma, cfg.n, cfg.tau, mpmath.mpf(x))
        margin = float(lhs - rhs)
        if abs(e) > scale_e or abs(margin) > 1e-6 * max(abs(float(lhs)), abs(float(rhs)), 1.0):
            return False, f"x = {x!r} is no equality point (E {e:.3g}, margin {margin:.3g})"
    return True, ""


# -- axis: real-axis checks -------------------------------------------------------


def build_axis(seed: int) -> dict:
    rng = _rng(seed, 1)
    fx: dict = {}
    fx["singular"] = measure.from_monomial_density(1.5, 0.8)
    fx["smooth"] = measure.from_monomial_density(3.0, 2.0)
    fx["rt_x"] = np.array(AXIS_PROBE_X + tuple(np.sort(rng.uniform(0.2, 60.0, 2))))
    fx["idres_x"] = np.sort(rng.uniform(-60.0, 60.0, 64))
    # one panel, and values small enough that the sampled h-hat settles at
    # 4096 samples for every seed: each extra panel or doubling costs seconds
    values = [float(v) for v in rng.uniform(0.05, 0.25, 2)]
    fx["hhat_g"] = measure.PiecewiseLinearDensity.interpolant([0.0, 1.0], values)
    fx["hhat_x"] = np.sort(rng.uniform(0.2, 6.0, 4))
    fx["fejer2"] = measure.from_fejer(2, 1.0, 1.0)
    # six like-sized Fejer-2 checks between four cheaper and four costlier
    # tasks: the median task of a round is one of them for every seed
    step = math.pi / 100.0
    fx["fejer_grids"] = [
        np.arange(x0, x0 + 40.0 * math.pi, step) for x0 in -20.0 * math.pi + rng.uniform(-1.0, 1.0, 6)
    ]
    fx["atom_cases"] = [
        (measure.StieltjesMeasure(1.0, ((1.0, float(c)),)), np.arange(-10.0 + u, 10.0 + u, math.pi / 50.0))
        for c, u in zip(rng.uniform(0.5, 3.0, 2), rng.uniform(-0.5, 0.5, 2))
    ]
    fx["ramp"] = ramp()
    # the grid of `hbf demo ramp`: its point nearest 0 sends the equality
    # refinement into the structural zero of x E at the origin
    ramp_step = math.pi / 50.0
    fx["ramp_grid"] = np.arange(-10.0, 10.0 + 0.5 * ramp_step, ramp_step)
    fx["interp_cases"] = [
        ("fejer2", 0, 0.0, float(rng.uniform(0, math.pi)), float(rng.uniform(-5, 5))),
        ("ramp", 1, -math.pi / 2, float(rng.uniform(0, math.pi)), float(rng.uniform(-5, 5))),
    ]
    return fx


def expect_axis(fx: dict) -> dict:
    import oracle

    ex: dict = {}
    mp_sing = oracle.MpTransforms(fx["singular"])
    ex["singular_scales"] = mp_sing.scales()
    ex["rt"] = [mp_sing.real_values(x) for x in fx["rt_x"]]
    hmeasure = measure.StieltjesMeasure(1.0, (), fx["hhat_g"])
    mp_h = oracle.MpTransforms(hmeasure)
    ex["hhat_two_delta"] = [2 * mp_h.real_values(x)["Delta"] for x in fx["hhat_x"]]
    ex["hhat_scale"] = mp_h.scales()["Delta"]
    ex["mp"] = {name: oracle.MpTransforms(fx[name]) for name in ("fejer2", "ramp")}
    # margins at two points of each grid, from the oracle's components
    ex["fejer_margins"] = []
    for grid in fx["fejer_grids"]:
        idx = (1, len(grid) // 2)
        ex["fejer_margins"].append(
            [(i, _margin_oracle(ex["mp"]["fejer2"].real_values(grid[i]), 2, 0, 0.0, grid[i])) for i in idx]
        )
    ramp_idx = (3, len(fx["ramp_grid"]) - 4)
    ex["ramp_margins"] = [
        (i, _margin_oracle(ex["mp"]["ramp"].real_values(fx["ramp_grid"][i]), 1, 1, -math.pi / 2, fx["ramp_grid"][i]))
        for i in ramp_idx
    ]
    ex["interp_lhs"] = []
    for name, n, tau, alpha, x in fx["interp_cases"]:
        ex["interp_lhs"].append(_interp_lhs_oracle(ex["mp"][name], n, tau, alpha, x))
    return ex


def _interp_lhs_oracle(mp, n: int, tau: float, alpha: float, x: float):
    """sigma f cos(sigma x + alpha) - f' sin(sigma x + alpha), f = P cos a - Q sin a."""
    import mpmath

    with mpmath.workdps(30):
        sig = mp.sigma
        u = mpmath.mpf(x) - mpmath.mpf(tau) / sig
        ref = mp.real_values(u)
        G, H, Gp, Hp = ref["G"], ref["H"], ref["Gp"], ref["Hp"]
        if n == 0:
            P, Q, Pp, Qp = G, H, Gp, Hp
        else:
            P, Q, Pp, Qp = u * G, u * H, G + u * Gp, H + u * Hp
        ca, sa = mpmath.cos(alpha), mpmath.sin(alpha)
        f = P * ca - Q * sa
        fp = Pp * ca - Qp * sa
        phase = sig * mpmath.mpf(x) + alpha
        return sig * f * mpmath.cos(phase) - fp * mpmath.sin(phase)


def tasks_axis(fx: dict, ex: dict, workdir: Path) -> list:
    import oracle

    out = []

    def check_rt(rt):
        sc = ex["singular_scales"]
        probe_digits, other_digits = [], []
        for i, ref in enumerate(ex["rt"]):
            row = [oracle.digits(getattr(rt, f)[i], ref[f], sc[f]) for f in RT_FIELDS]
            (probe_digits if i < len(AXIS_PROBE_X) else other_digits).extend(row)
        res = _judge(probe_digits + other_digits)
        res.digits = probe_digits
        return res

    out.append(
        Task("real_transforms", lambda: transforms.real_transforms(fx["singular"], fx["rt_x"], 1), check_rt, probe=True)
    )

    def check_idres(res):
        lin, quad = res.max_linear(), res.max_quadratic()
        ok = lin <= 1e-10 * res.linear_scale and quad <= 1e-10 * res.quadratic_scale
        return _judge([], f"identity residuals {lin:.3g}, {quad:.3g}", ok)

    out.append(Task("identity_residuals", lambda: transforms.identity_residuals(fx["smooth"], fx["idres_x"]), check_idres))

    def check_hhat(rep):
        two_delta = ex["hhat_two_delta"]
        d = [oracle.digits(rep.two_delta[i], two_delta[i], ex["hhat_scale"]) for i in range(len(two_delta))]
        gap = max(abs(rep.h_hat[i] - float(two_delta[i])) for i in range(len(two_delta)))
        return _judge(d, f"h-hat gap {gap:.3g}", gap <= 1e-6)

    out.append(Task("h_hat_identity", lambda: posdef.check_h_hat_identity(fx["hhat_g"], fx["hhat_x"]), check_hhat))

    fejer_cfg = inequality.OmegaConfig(fx["fejer2"], 0, 0.0)
    for grid, margins in zip(fx["fejer_grids"], ex["fejer_margins"]):
        allowed = oracle.fejer2_equality_points(grid[0], grid[-1])
        required = oracle.fejer2_equality_points(grid[2], grid[-3])

        def check_fejer(rep, margins=margins, allowed=allowed, required=required):
            found = list(rep.equality_points)
            ok = rep.hypothesis_ok and rep.worst_relative_margin >= -1e-9 and not rep.global_equality
            # every found point is an odd multiple of pi, and every odd
            # multiple clear of the grid's end points is found
            ok = ok and all(min(abs(x - p) for p in allowed + [math.inf]) <= 1e-6 for x in found)
            ok = ok and all(min(abs(x - p) for x in found + [math.inf]) <= 1e-6 for p in required)
            d = [oracle.digits(rep.margin[i], lhs - rhs, float(max(abs(lhs), abs(rhs), 1))) for i, (lhs, rhs) in margins]
            return _judge(d, f"{len(found)} equality points", ok)

        out.append(Task("ineq_fejer2", lambda grid=grid: inequality.check_inequality(fejer_cfg, grid), check_fejer))

    for atom_measure, grid in fx["atom_cases"]:
        cfg = inequality.OmegaConfig(atom_measure, 0, math.pi / 2)

        def check_atom(rep):
            worst = float(np.max(np.abs(rep.margin) / rep.scale))
            ok = rep.global_equality and not rep.equality_points and rep.hypothesis_ok and worst <= 1e-10
            return _judge([], f"global equality {rep.global_equality}, margin {worst:.3g}", ok)

        out.append(Task("ineq_atom_sigma", lambda cfg=cfg, grid=grid: inequality.check_inequality(cfg, grid), check_atom))

    ramp_cfg = inequality.OmegaConfig(fx["ramp"], 1, -math.pi / 2)

    def check_ramp(rep):
        ok = rep.hypothesis_ok and rep.worst_relative_margin >= -1e-9
        held, note = _equality_points_hold(ex["mp"]["ramp"], ramp_cfg, rep.equality_points, 1.0)
        d = [
            oracle.digits(rep.margin[i], lhs - rhs, float(max(abs(lhs), abs(rhs), 1)))
            for i, (lhs, rhs) in ex["ramp_margins"]
        ]
        return _judge(d, note, ok and held)

    out.append(Task("ineq_ramp", lambda: inequality.check_inequality(ramp_cfg, fx["ramp_grid"]), check_ramp))

    for (name, n, tau, alpha, x), lhs_ref in zip(fx["interp_cases"], ex["interp_lhs"]):
        cfg = inequality.OmegaConfig(fx[name], n, tau)
        sig = fx[name].sigma

        def run_interp(cfg=cfg, alpha=alpha, x=x, sig=sig):
            f = sampling.from_omega_config(cfg, alpha)
            return sampling.interp_lhs(f, sig, alpha, x), sampling.interp_rhs(f, sig, alpha, x, INTERP_TERMS)

        def check_interp(res, lhs_ref=lhs_ref):
            lhs, rhs = res
            gap = abs(float(lhs_ref) - rhs.value)
            d = [oracle.digits(lhs, lhs_ref, 1.0)]
            return _judge(d, f"series gap {gap:.3g} vs tail {rhs.tail_bound:.3g}", gap <= rhs.tail_bound + 1e-9)

        out.append(Task("interp_rhs", run_interp, check_interp))
    return out


# -- zeros: complex-plane work ------------------------------------------------------


DEFAULT_RECT = (-8.0, 8.0, -6.0, -1e-3)


def build_zeros(seed: int) -> dict:
    rng = _rng(seed, 2)
    fx: dict = {}
    fx["atomic"] = [integer_atoms(rng, d) for d in (4, 5, 6)]
    fx["rect_rng_state"] = int(rng.integers(2**62))
    # sigma stays 1: the real-axis scans grow with sigma, and the seed should
    # move the answers, not the amount of work
    fx["classify"] = [
        ("above", triangle(4, float(rng.uniform(0.3, 0.6)))),
        ("borderline", triangle(4, float(rng.uniform(-0.65, -0.35)))),
        ("below", triangle(4, float(rng.uniform(-1.8, -1.3)))),
    ]
    fx["imag"] = [(False, triangle(32, float(rng.uniform(-0.65, -0.35)))), (True, triangle(64, -0.5))]
    # five like-sized locate tasks fill the middle of the round's cost order,
    # so that the median task is one of them for every seed
    fx["locate"] = [(False, triangle(16, float(rng.uniform(-0.65, -0.35)))) for _ in range(4)] + [
        (True, triangle(16, -0.5))
    ]
    fx["deriv"] = [(k, ramp(1.0, float(rng.uniform(0.5, 2.0)))) for k in (1, 2)]
    return fx


def expect_zeros(fx: dict) -> dict:
    import oracle

    ex: dict = {}
    rng = np.random.default_rng(fx["rect_rng_state"])
    ex["counts"] = []
    for m in fx["atomic"]:
        zl = oracle.atomic_zeros(m)
        rect = seeded_rectangle(rng, zl)
        ex["counts"].append((rect, len(oracle.zeros_in_rect(zl, *rect))))
    ex["y_star"] = {}
    for m in [m for _, m in fx["classify"]] + [m for _, m in fx["imag"]] + [m for _, m in fx["locate"]]:
        ex["y_star"][id(m)] = oracle.imaginary_zero(oracle.MpTransforms(m))
    ex["mp"] = {id(m): oracle.MpTransforms(m) for _, m in fx["classify"] + fx["deriv"]}
    return ex


def _real_zeros_hold(mp, real_zeros) -> tuple:
    v = float(mp.variation)
    for x, _mult in real_zeros:
        value = abs(complex(mp.F(x)))
        if value > 1e-9 * v:
            return False, f"|F({x!r})| = {value:.3g} is no zero"
    return True, ""


def tasks_zeros(fx: dict, ex: dict, workdir: Path) -> list:
    import oracle

    out = []
    for m, (rect, expected) in zip(fx["atomic"], ex["counts"]):

        def check_count(res, expected=expected):
            return _judge([], f"count {res.count} vs {expected}", res.count == expected)

        out.append(
            Task("count_zeros", lambda m=m, rect=rect: zeros.count_zeros(m, zeros.Rectangle(*rect)), check_count)
        )

    for case, m in fx["classify"]:
        y_ref = ex["y_star"][id(m)]
        mp = ex["mp"][id(m)]

        def check_classify(res, case=case, y_ref=y_ref, mp=mp):
            held, note = _real_zeros_hold(mp, res.real_zeros)
            if case == "borderline":
                ok = res.verdict == "one_lower_zero" and res.lower_count == 1 and y_ref is not None
                d = [oracle.digits(res.lower_zero.imag, y_ref, 0.0)] if ok else []
                ok = ok and res.lower_zero.real == 0.0
            else:
                ok = res.verdict in ("hb", "hb_bar_nontrivial") and res.lower_count == 0 and y_ref is None
                d = []
            return _judge(d, f"{case}: {res.verdict} {note}", ok and held)

        out.append(
            Task("classify", lambda m=m: zeros.classify(m, zeros.Rectangle(*DEFAULT_RECT)), check_classify)
        )

    for probe, m in fx["imag"]:
        y_ref = ex["y_star"][id(m)]

        def check_imag(y, y_ref=y_ref):
            ok = y is not None and y_ref is not None
            return _judge([oracle.digits(y, y_ref, 0.0)] if ok else [], f"y* {y!r}", ok)

        out.append(Task("imaginary_zero", lambda m=m: zeros.find_imaginary_zero(m), check_imag, probe=probe))

    for probe, m in fx["locate"]:
        y_ref = ex["y_star"][id(m)]
        rect = zeros.Rectangle(-0.6, 0.7, y_ref - 0.45, min(y_ref + 0.5, -1e-3))

        def check_locate(z, y_ref=y_ref):
            return _judge([oracle.digits(z, complex(0.0, y_ref), 0.0)], f"z* {z!r}")

        out.append(Task("locate_zero", lambda m=m, rect=rect: zeros.locate_zero(m, rect), check_locate, probe=probe))

    for order, m in fx["deriv"]:
        mp = ex["mp"][id(m)]

        def check_deriv(rep, order=order, mp=mp):
            exact = abs(complex(mp.moments(rep.real_argmin, order)[order]))
            ok = rep.ok and rep.lower_count == 0 and rep.real_min > 1e-6
            return _judge([oracle.digits(rep.real_min, exact, 0.0)], rep.note, ok)

        out.append(
            Task(
                "derivative_hb",
                lambda m=m, order=order: zeros.check_derivative_hb(
                    m, order, zeros.Rectangle(*DEFAULT_RECT), (DEFAULT_RECT[0], DEFAULT_RECT[1])
                ),
                check_deriv,
            )
        )
    return out


# -- cli: hbf processes -------------------------------------------------------------


def _scenario(m, task: dict | None = None) -> dict:
    doc: dict = {"sigma": m.sigma, "atoms": [{"t": t, "c": c} for t, c in m.atoms], "density": None}
    if m.density is not None:
        dens = m.density
        if not dens.is_continuous:
            raise ValueError("scenario densities are continuous interpolants")
        doc["density"] = {"nodes": list(dens.nodes), "values": list(dens.left) + [dens.right[-1]]}
    if task is not None:
        doc["task"] = task
    return doc


def triangle_scenario(panels: int, jump: float, sigma: float):
    """`triangle` as a scenario can hold it: the same measure, with its
    constant density 1/sigma written as a continuous interpolant."""
    nodes = [sigma * i / panels for i in range(panels)] + [sigma]
    dens = measure.PiecewiseLinearDensity.interpolant(nodes, [1.0 / sigma] * len(nodes))
    return _scenario(measure.StieltjesMeasure(sigma, ((sigma, jump),), dens))


def _few_panel(rng, sigma: float):
    nodes = np.sort(np.concatenate([[0.0, sigma], rng.uniform(0.1 * sigma, 0.9 * sigma, 2)]))
    atoms = tuple((float(t), float(c)) for t, c in zip(rng.uniform(0.0, sigma, 2), rng.uniform(-1.0, 1.0, 2)))
    dens = measure.PiecewiseLinearDensity.interpolant(nodes, rng.uniform(-0.5, 1.5, len(nodes)))
    return measure.StieltjesMeasure(sigma, atoms, dens)


#: fixed measure of the cli accuracy probe (`hbf eval`)
EVAL_PROBE = measure.StieltjesMeasure(
    1.5, ((0.0, 0.7), (1.1, -0.4)), measure.PiecewiseLinearDensity.interpolant([0.0, 0.5, 1.5], [0.3, 1.0, 0.2])
)
EVAL_GRID = "-6:6:0.75"
#: scenario of the known fault: huge atoms overflow the quadratic residuals
OVERFLOW_SCENARIO = {"sigma": 1.0, "atoms": [{"t": 0.0, "c": 1e300}, {"t": 1.0, "c": 1e300}], "density": None}


def build_cli(seed: int) -> dict:
    """Scenario documents (parsed once, as `hbf` will) and the argument lists."""
    rng = _rng(seed, 3)
    fx: dict = {}
    fejer = measure.from_fejer(3, float(rng.uniform(0.5, 1.0)), float(rng.uniform(1.0, 2.0)))
    shift = float(rng.uniform(-1.0, 1.0))
    fx["ineq"] = _scenario(
        fejer, {"command": "ineq", "tau": 0.0, "n": 0, "grid": {"start": -10.0 + shift, "stop": 10.0 + shift}}
    )
    fx["classify"] = triangle_scenario(3, float(rng.uniform(-0.75, -0.25)), float(rng.uniform(0.8, 1.25)))
    fx["identities"] = _scenario(_few_panel(rng, float(rng.uniform(1.0, 2.0))))
    fx["eval"] = _scenario(EVAL_PROBE)
    fx["interp"] = _scenario(measure.from_fejer(2, 1.0, 1.0), {"command": "interp", "alpha": float(rng.uniform(0, math.pi))})
    fx["posdef"] = triangle_scenario(2, float(rng.uniform(0.0, 1.0)), float(rng.uniform(0.8, 1.25)))
    fx["imag"] = triangle_scenario(4, float(rng.uniform(-0.75, -0.25)), float(rng.uniform(0.8, 1.25)))
    atoms = integer_atoms(rng, 4)
    fx["count"] = _scenario(atoms)
    fx["count_rng_state"] = int(rng.integers(2**62))
    fx["growth_a"] = float(rng.uniform(-0.95, -0.55))
    fx["overflow"] = OVERFLOW_SCENARIO
    fx["measures"] = {
        name: measure.parse_scenario(json.dumps(fx[name]))[0]
        for name in ("ineq", "classify", "identities", "eval", "interp", "posdef", "imag", "count", "overflow")
    }
    return fx


def expect_cli(fx: dict) -> dict:
    import mpmath
    import oracle

    ms = fx["measures"]
    ex: dict = {"mp": {name: oracle.MpTransforms(m) for name, m in ms.items() if name != "overflow"}}
    lo, hi, step = (float(v) for v in EVAL_GRID.split(":"))
    ex["eval_x"] = list(np.arange(lo, hi + 0.5 * step, step))
    ex["eval_rows"] = [ex["mp"]["eval"].real_values(x) for x in ex["eval_x"]]
    for name in ("classify", "imag"):
        ex[f"{name}_y"] = oracle.imaginary_zero(ex["mp"][name])
    zl = oracle.atomic_zeros(ms["count"])
    rng = np.random.default_rng(fx["count_rng_state"])
    ex["count_rect"] = seeded_rectangle(rng, zl)
    ex["count"] = len(oracle.zeros_in_rect(zl, *ex["count_rect"]))
    ex["posdef_h1"] = ex["mp"]["posdef"].moments(0, 1)[1].real
    a = mpmath.mpf(fx["growth_a"])
    ex["growth_d"] = {
        key: a * a * x * x + a * x * mpmath.sin(x) + (a + 1) * (1 - mpmath.cos(x))
        for key, x in (("d_at_0.1", mpmath.mpf("0.1")), ("d_at_100", mpmath.mpf(100)))
    }
    return ex


def _strict_json(text: str):
    """Parse every stdout line; NaN and Infinity tokens are rejected."""

    def reject(token):
        raise ValueError(f"non-finite token {token}")

    return [json.loads(line, parse_constant=reject) for line in text.splitlines() if line.strip()]


def child_env() -> dict:
    """Environment of every child: `src` importable, bytecode cached as a
    user's install would have it (the untimed first start writes it)."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


@dataclass
class ChildResult:
    exit_code: int
    stdout: str
    stderr: str
    maxrss_kb: int
    wall_s: float


def run_child(argv: list, env: dict, cwd: Path, timeout: float = 120.0) -> ChildResult:
    """Run one process to its end; its own peak RSS comes from wait4.

    A child still running after `timeout` seconds is killed (and then fails
    its check), so a run always ends with every child reaped.
    """
    start = time.perf_counter()
    proc = subprocess.Popen(argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=cwd)
    chunks = {proc.stdout: [], proc.stderr: []}
    with selectors.DefaultSelector() as sel:
        for stream in chunks:
            sel.register(stream, selectors.EVENT_READ)
        while sel.get_map():
            if time.perf_counter() - start > timeout and proc.poll() is None:
                proc.kill()
            for key, _ in sel.select(timeout=1.0):
                data = os.read(key.fileobj.fileno(), 65536)
                if data:
                    chunks[key.fileobj].append(data)
                else:
                    sel.unregister(key.fileobj)
                    key.fileobj.close()
    _, status, usage = os.wait4(proc.pid, 0)
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ChildResult(
        proc.returncode,
        b"".join(chunks[proc.stdout]).decode(),
        b"".join(chunks[proc.stderr]).decode(),
        usage.ru_maxrss,
        wall,
    )


def cli_argvs(fx: dict, ex: dict, workdir: Path) -> list:
    """(kind, argv after `python -m hbfourier`, expects a refusal) per cli task."""
    paths = {}
    for name in ("ineq", "classify", "identities", "eval", "interp", "posdef", "imag", "count", "overflow"):
        paths[name] = workdir / f"{name}.json"
        paths[name].write_text(json.dumps(fx[name], sort_keys=True) + "\n", encoding="utf-8")
    rect = ",".join(repr(v) for v in ex["count_rect"])
    js = ["--out", "json"]
    return [
        ("ineq", ["ineq", str(paths["ineq"])] + js, False),
        ("zeros-classify", ["zeros-classify", str(paths["classify"])] + js, False),
        ("identities", ["identities", str(paths["identities"])] + js, False),
        ("eval", ["eval", str(paths["eval"]), f"--grid={EVAL_GRID}"] + js, False),
        ("interp", ["interp", str(paths["interp"]), "--grid=-3:3:0.25", f"--terms={INTERP_TERMS}"] + js, False),
        ("posdef", ["posdef", str(paths["posdef"])] + js, False),
        ("zeros-imag", ["zeros-imag", str(paths["imag"])] + js, False),
        ("zeros-count", ["zeros-count", str(paths["count"]), f"--rect={rect}"] + js, False),
        ("demo", ["demo", "growth-limit", f"--a={fx['growth_a']!r}"] + js, False),
        ("refuse_nan_tau", ["demo", "atom-sigma", "--tau", "nan"] + js, True),
        ("refuse_overflow", ["identities", str(paths["overflow"])] + js, True),
    ]


def check_refusal(res: ChildResult) -> Outcome:
    """A non-finite input must end in exit 1 with a message, or exit 2 with a
    strict-JSON violation record; exit 0 or a NaN/Infinity token is a failure."""
    try:
        docs = _strict_json(res.stdout)
    except ValueError as exc:
        return Outcome(FAILED, [], f"exit {res.exit_code}, stdout is not strict JSON: {exc}")
    if res.exit_code == 1 and res.stderr.strip():
        return Outcome(OK)
    if res.exit_code == 2 and docs and "violation" in docs[-1]:
        return Outcome(OK)
    return Outcome(FAILED, [], f"exit {res.exit_code} without a refusal")


def cli_checks(fx: dict, ex: dict) -> dict:
    """kind -> check of the parsed JSON documents of one successful run."""
    import oracle

    mp = ex["mp"]

    def ineq(docs):
        doc = docs[0]
        cfg = inequality.OmegaConfig(fx["measures"]["ineq"], 0, 0.0)
        held, note = _equality_points_hold(mp["ineq"], cfg, doc["equality_points"], float(mp["ineq"].variation))
        ok = doc["hypothesis_ok"] and doc["worst_relative_margin"] >= -1e-9 and held
        return _judge([], note, ok)

    def classify(docs):
        doc = docs[0]
        ok = doc["verdict"] == "one_lower_zero" and doc["lower_zero"]["re"] == 0.0
        return _judge([oracle.digits(doc["lower_zero"]["im"], ex["classify_y"], 0.0)], doc["verdict"], ok)

    def identities(docs):
        doc = docs[0]
        v = float(mp["identities"].variation)
        ok = doc["max_linear_residual"] <= 1e-10 * doc["linear_scale"]
        ok = ok and doc["max_quadratic_residual"] <= 1e-10 * doc["quadratic_scale"]
        return _judge([oracle.digits(doc["linear_scale"], 2 * v, 0.0)], "", ok)

    def eval_(docs):
        rows = docs[0]
        if [r["x"] for r in rows] != ex["eval_x"]:
            return Outcome(WRONG, [], "eval grid differs")
        sc = mp["eval"].scales()
        sigma = mp["eval"].sigma
        d = []
        for row, ref in zip(rows, ex["eval_rows"]):
            d += [oracle.digits(row[f], ref[f], sc[f]) for f in ("F_re", "F_im", "G", "H", "C", "S", "Delta")]
            d.append(oracle.digits(row["E"], ref["C"], sc["C"]))
            lhs, rhs = _margin_oracle(ref, sigma, 0, 0.0, row["x"])
            d.append(oracle.digits(row["margin"], lhs - rhs, 4 * float(sigma) * sc["Delta"]))
        return _judge(d)

    def interp(docs):
        alpha = fx["interp"]["task"]["alpha"]
        ok = True
        d = []
        for row in docs[0]:
            lhs_ref = _interp_lhs_oracle(mp["interp"], 0, 0.0, alpha, row["x"])
            d.append(oracle.digits(row["lhs"], lhs_ref, 1.0))
            ok = ok and abs(float(lhs_ref) - row["rhs"]) <= row["tail_bound"] + 1e-9
        return _judge(d, "", ok)

    def posdef_(docs):
        doc = docs[0]
        ok = doc["s_nonneg"] and doc["pd_bound_ok"] and doc["expected_sign"] == "nonneg" and doc["sign_ok"]
        return _judge([oracle.digits(doc["f0"], 1.0, 0.0), oracle.digits(doc["h_prime_zero"], ex["posdef_h1"], 1.0)], "", ok)

    def imag(docs):
        return _judge([oracle.digits(docs[0]["y_star"], ex["imag_y"], 0.0)])

    def count(docs):
        doc = docs[0]
        return _judge([], f"count {doc['count']} vs {ex['count']}", doc["count"] == ex["count"])

    def demo(docs):
        doc = docs[0]
        d = [oracle.digits(doc[k], v, 0.0) for k, v in ex["growth_d"].items()]
        return _judge(d, "", doc["sign_change"] is True)

    return {
        "ineq": ineq,
        "zeros-classify": classify,
        "identities": identities,
        "eval": eval_,
        "interp": interp,
        "posdef": posdef_,
        "zeros-imag": imag,
        "zeros-count": count,
        "demo": demo,
    }


def tasks_cli(fx: dict, ex: dict, workdir: Path) -> list:
    env = child_env()
    root = Path(__file__).resolve().parents[1]
    checks = cli_checks(fx, ex)
    out = []
    for kind, argv, refusal in cli_argvs(fx, ex, workdir):
        full = [sys.executable, "-m", "hbfourier"] + argv

        def check(res, kind=kind, refusal=refusal):
            if refusal:
                return check_refusal(res)
            if res.exit_code != 0:
                return Outcome(FAILED, [], f"exit {res.exit_code}: {res.stderr.strip()[-200:]}")
            try:
                docs = _strict_json(res.stdout)
            except ValueError as exc:
                return Outcome(FAILED, [], f"stdout is not strict JSON: {exc}")
            return checks[kind](docs)

        out.append(Task(kind, lambda full=full: run_child(full, env, root), check, probe=(kind == "eval")))
    return out


WORKLOADS = {
    "axis": (build_axis, expect_axis, tasks_axis),
    "zeros": (build_zeros, expect_zeros, tasks_zeros),
    "cli": (build_cli, expect_cli, tasks_cli),
}
