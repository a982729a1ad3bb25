"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines and timings inline.
"""

import math
import time

import numpy as np
import pytest

from hyperheat import (
    GridParams,
    SolveConfig,
    Window,
    checks,
    gaussian,
    gaussian_heat_kernel,
    integrate,
    kernel_slice,
    propagator,
    solve,
)


def _report(num: int, description: str, ok: bool, detail: str, elapsed: float,
            budget: float) -> None:
    in_budget = elapsed < budget
    status = "PASS" if (ok and in_budget) else "FAIL"
    print(f"ACCEPTANCE {num} [{status}] {description}: {detail} ({elapsed:.1f}s < {budget:.0f}s)")
    assert ok, f"criterion {num} ({description}): {detail}"
    assert in_budget, f"criterion {num} exceeded its {budget:.0f}s budget ({elapsed:.1f}s)"


def test_criterion_1_inversion_constant(rng):
    t0 = time.monotonic()
    worst = checks.inversion((1, 2, 4, 8, 16), 100, rng)
    _report(1, "round trip is exactly twice the identity", worst <= 1.0,
            f"max residual/tolerance = {worst:.2e}", time.monotonic() - t0, 10)


def test_criterion_2_convolution_theorem(rng):
    t0 = time.monotonic()
    worst = checks.convolution_theorem((1, 2, 4, 8, 16), 100, rng)
    _report(2, "transform factorises convolutions (both directions)", worst <= 1.0,
            f"max residual/tolerance = {worst:.2e}", time.monotonic() - t0, 10)


def test_criterion_3_derivative_transform_identities(rng):
    t0 = time.monotonic()
    worst = checks.derivative_identities((1, 2, 4, 8), 100, rng)
    _report(3, "difference transforms equal symbol times transform minus corrections",
            worst <= 1.0, f"max residual/tolerance = {worst:.2e}", time.monotonic() - t0, 10)


def test_criterion_4_spectral_formula_vs_stepper(rng):
    t0 = time.monotonic()
    # with corrections: arbitrary data at n = 2, 4; without: data supported
    # away from the boundary rows at n = 2, 4, 8
    worst = checks.stepper_vs_spectral((2, 4), 1, rng, supported_ns=(2, 4, 8))
    _report(4, "closed-form frequency solution matches the explicit stepper",
            worst <= 1.0, f"max residual/tolerance = {worst:.2e}", time.monotonic() - t0, 30)


def test_criterion_5_kernel_mass():
    t0 = time.monotonic()
    worst = 0.0
    for n in (64, 256):
        p = GridParams(n)
        for radius in (2.0, 3.0):
            w = Window(p, radius)
            for t in (0.25, 0.5, 1.0):
                worst = max(worst, abs(integrate(kernel_slice(w, t)) - 1.0))
    _report(5, "kernel mass is exactly 1", worst <= 1e-12,
            f"max |mass - 1| = {worst:.2e}", time.monotonic() - t0, 10)


def test_criterion_6_kernel_gaussian_limit():
    t0 = time.monotonic()
    errs = {}
    for n in (256, 512):
        p = GridParams(n)
        w = Window(p, 3.0)
        worst = 0.0
        for t in (0.25, 0.5, 1.0):
            sl = kernel_slice(w, t)
            z = p.space_points()
            sel = np.abs(z) <= 3.0
            gauss = np.array([gaussian_heat_kernel(t, zz) for zz in z[sel]])
            worst = max(worst, float(np.abs(sl.values[sel].real - gauss).max()))
        errs[n] = worst
    ratio = errs[512] / errs[256]
    ok = errs[256] <= 5e-3 and ratio <= 0.65
    _report(6, "kernel converges to the Gaussian at first order",
            ok, f"err(256) = {errs[256]:.2e}, err(512)/err(256) = {ratio:.2f}",
            time.monotonic() - t0, 60)


def test_criterion_7_end_to_end_solution():
    t0 = time.monotonic()
    bc = gaussian(1.0, 1.0)
    xs = tuple(np.linspace(-2, 2, 41))
    errors = {}
    for n in (128, 256, 512):
        config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=bc,
                             times=(0.5,), xs=xs)
        res = solve(config)
        errors[n] = max(abs(u_re - bc.closed_form(0.5, x).real)
                        for x, u_re in zip(xs, res.u[0].real))
    order = checks.fitted_order(list(errors), list(errors.values()))
    ok = errors[256] <= 2e-2 and 0.7 <= order <= 1.3
    _report(7, "solution matches the classical closed form and converges",
            ok, f"err(256) = {errors[256]:.2e}, fitted order = {order:.3f}",
            time.monotonic() - t0, 120)


def test_criterion_8_footnote_bounds():
    t0 = time.monotonic()
    # quad_order cannot pass: the lattice sum of the analytic Gaussian is
    # exact to the float floor, so its errors carry no 1/n decay order
    judged = ("p_bound", "tail_bound", "t_order", "quad_order")
    rows = [r for r in checks.rate_verdicts() if r[0] in judged]
    assert {r[0] for r in rows} == set(judged)
    failed = [f"{check} {param}: {observed:.3g} not {bound}"
              for check, param, observed, bound, ok in rows if not ok]
    detail = "; ".join(failed) or f"all {len(rows)} verdicts hold"
    _report(8, "footnote bounds and rate fits", not failed, detail, time.monotonic() - t0, 30)


def test_criterion_9_stability_band():
    t0 = time.monotonic()
    worst = 0.0
    for n in (64, 256):
        p = GridParams(n)
        g = np.abs(propagator(n, p.space_indices()))
        x = p.space_points()
        worst = max(worst, float(g[np.abs(x) <= 3.0].max()))
    _report(9, "growth factor contracts inside the radius-3 window", worst <= 1.0,
            f"max |growth| = {worst:.10f}", time.monotonic() - t0, 5)
