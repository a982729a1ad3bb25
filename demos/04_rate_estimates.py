#!/usr/bin/env python3
"""Convergence-rate machinery behind the solver's Gaussian limit.

The propagator's limit rests on scalar facts: the forward-difference
symbol tends to i*pi*y at rate 1/n with an explicit constant bound, the
compounded growth tends to the Gaussian at rate 1/n, grid Gaussian tails
obey a closed-form bound, and the grid transform of the exact Gaussian is
already spectrally accurate (which is why no 1/n rate is measurable for
it -- an upper bound is not an asymptotic).
"""

import math

from hyperheat.checks import rate_verdicts
from hyperheat.oracle import difference_symbol_residual, gaussian_symbol_residual, lattice_error

print("every rate verdict (the rows `hyperheat rates` writes):")
for check, param, observed, bound, ok in rate_verdicts():
    print(f"  {check:<15} {param:<22} {observed:>12.4e}  {bound:<14} {'ok' if ok else 'FAILS'}")
print(f"\nexact first term: residual(1) = {difference_symbol_residual(1):.6f} = -2 - i*pi")

print("\ngaussian-symbol residual |(1+s_n^2/n)^n - e^{-pi^2 y^2}| at y=1:")
for n in (100, 1000, 10**4):
    print(f"  n={n:>6}: {abs(gaussian_symbol_residual(n, 1.0)):.4e}")

print("\ngrid transform of the exact Gaussian symbol vs its closed form (t=1, z=0):")
for n in (64, 128, 256):
    print(f"  n={n:>4}: error {lattice_error(1.0, 0.0, n):.2e}")
print("the lattice sum of an analytic Gaussian is a full trapezoidal rule,")
print("so its true error is O(exp(-n^2/t)) -- these numbers are rounding")
print("noise, far below any 1/n curve.  A decay-order fit on them is")
print("meaningless, which is why the quad_order verdict above fails.")
print(f"\n(t=1, z=0 transform integral is 1/sqrt(pi) = {1 / math.sqrt(math.pi):.5f})")
