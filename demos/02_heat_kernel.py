#!/usr/bin/env python3
"""The discrete heat kernel and its Gaussian limit.

The kernel is the inverse transform of (window * growth^steps).  Three of
its properties are worth seeing side by side:

  * its mass is exactly 1 at every grid size (a consequence of the exact
    x2 round trip against the window's value 1/2) -- no drift, ever;
  * pointwise it converges to the classical Gaussian kernel at first
    order in 1/n;
  * truncation ringing exists but is tiny: the L1 norm stays near 1.
"""

import numpy as np

from hyperheat import GridParams, Window, gaussian_heat_kernel, integrate, kernel, kernel_slice

T = 0.5
RADIUS = 3.0

print(f"windowed kernel at t={T}, frequency radius {RADIUS}\n")
print(f"{'n':>5} {'|mass-1|':>10} {'max err vs Gaussian':>20} {'L1 norm':>9}")
for n in (64, 128, 256, 512):
    params = GridParams(n)
    window = Window(params, RADIUS)
    sl = kernel_slice(window, T)
    mass = integrate(sl)
    z = params.space_points()
    sel = np.abs(z) <= 3.0
    gauss = np.array([gaussian_heat_kernel(T, zz) for zz in z[sel]])
    err = np.abs(sl.values[sel].real - gauss).max()
    l1 = np.sum(np.abs(sl.values)) / n
    print(f"{n:>5} {abs(mass - 1):>10.2e} {err:>20.3e} {l1:>9.5f}")

print("\nthe error column halves when n doubles: first-order convergence.")

params = GridParams(256)
window = Window(params, RADIUS)
print(f"\nkernel profile at n=256 against the Gaussian (t={T}):")
print(f"{'z':>6} {'kernel':>12} {'gaussian':>12} {'diff':>10}")
zs = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)
for z, k in zip(zs, kernel(window, (T,), zs).u[0].real):
    g = gaussian_heat_kernel(T, z)
    print(f"{z:>6.2f} {k:>12.6f} {g:>12.6f} {k - g:>10.2e}")

print("\nnote: the kernel is exactly real (Hermitian band) but only")
print("approximately even -- the growth factor carries an O(x^3/n) phase,")
print("so kernel(t,z) - kernel(t,-z) also shrinks like 1/n:")
zs = np.array([0.5, 1.0, 2.0])
for n in (64, 128, 256):
    w = Window(GridParams(n), RADIUS)
    odd = np.abs(kernel(w, (T,), zs).u - kernel(w, (T,), -zs).u).max()
    print(f"  n={n:>4}: max odd component {odd:.2e}")
