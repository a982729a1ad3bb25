"""Spectral solver for the 1-D heat equation on a half-frequency Fourier grid.

The grid has 2n^2 space points of spacing 1/n covering [-n, n); on it the
discrete Fourier pair inverts with constant exactly 2, convolutions
factorise exactly, and forward differences transform exactly through the
difference symbol plus boundary corrections.  Solving rides those exact
identities: window the transformed data, apply the per-frequency growth
factor, invert at the query points, and compare against the classical
Gaussian-kernel solution.
"""

from .grid import GridFunction, GridParams, d_t, d_x, d_xx, integrate
from .transform import (
    BoundaryCorrections,
    boundary_corrections,
    forward,
    inverse,
    spectral_symbols,
)
from .evolution import (
    EvolutionOverflowError,
    SolveConfig,
    SolveResult,
    Window,
    convolve,
    evolve,
    kernel,
    kernel_slice,
    propagator,
    solve,
    solve_via_convolution,
    spectral_hat,
    stability_radius,
    step,
)
from .oracle import (
    BoundaryCondition,
    bump,
    classical_column,
    classical_solution,
    gaussian,
    gaussian_heat_kernel,
    gaussian_transform_identity,
    indicator,
    sampled,
    tail_bound_check,
)

__version__ = "0.1.0"
