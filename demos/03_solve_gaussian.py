#!/usr/bin/env python3
"""End-to-end solve against the classical closed form.

Initial data g(y) = exp(-y^2) has the classical solution
u(t, x) = (1+4t)^{-1/2} exp(-x^2/(1+4t)).  The spectral pipeline
(truncate data -> transform onto the window band -> multiply by the
growth powers -> invert at the queries) reproduces it to O(1/n), and the
convolution route through the discrete kernel gives the same numbers to
rounding on grid-aligned queries.
"""

import numpy as np

from hyperheat import SolveConfig, checks, gaussian, solve, solve_via_convolution

bc = gaussian(1.0, 1.0)
T = 0.5

print("solution profile at n=256 (omega=4, omega'=3, t=0.5):\n")
xs = tuple(np.linspace(-2, 2, 9))
config = SolveConfig(n=256, omega=4.0, omega_prime=3.0, boundary=bc, times=(T,), xs=xs)
result = solve(config)
print(f"{'x':>6} {'u(t,x)':>12} {'classical':>12} {'abs err':>10} {'imag diag':>10}")
for x, u in zip(xs, result.u[0]):
    ref = bc.closed_form(T, x).real
    print(f"{x:>6.2f} {u.real:>12.6f} {ref:>12.6f} {abs(u.real - ref):>10.2e} {abs(u.imag):>10.2e}")
print(f"\nparameter-regime flag (sufficient conditions hold): {result.regime_flag}")

print("\ngrid refinement (same query set, 41 points):")
xs41 = tuple(np.linspace(-2, 2, 41))
errs = {}
for n in (64, 128, 256, 512):
    cfg = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=bc, times=(T,), xs=xs41)
    res = solve(cfg)
    errs[n] = max(abs(u - bc.closed_form(T, x).real) for x, u in zip(xs41, res.u[0].real))
    print(f"  n={n:>4}: max error {errs[n]:.3e}")
order = checks.fitted_order(list(errs), list(errs.values()))
print(f"fitted convergence order: {order:.3f}")

print("\ncross-check via the kernel-convolution route at n=32 (grid queries):")
n = 32
grid_xs = tuple(np.arange(-16, 17) / n)
cfg = SolveConfig(n=n, omega=2.0, omega_prime=2.0, boundary=bc, times=(T,), xs=grid_xs)
a = solve(cfg).u
b = solve_via_convolution(cfg).u
print(f"  max |spectral - convolution| = {np.abs(a - b).max():.3e}")
print("  (the two routes are the same finite identity, so they agree to rounding)")
