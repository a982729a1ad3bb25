"""Randomised checks of the four exact identities (acceptance criteria 1-4).

Each ``*_ratio`` function judges one draw of data, as residual over
tolerance (at most 1 when the identity holds): it computes its identity's
residual and holds its criterion's only tolerance.  Each criterion function
returns the worst ratio over ``trials`` random complex grid functions per
``n`` in ``ns``, drawn from ``rng``; ``hyperheat validate`` and the
acceptance suite both run them.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from . import transform
from .evolution import convolve, evolve, spectral_hat
from .grid import GridFunction, GridParams, d_x, d_xx

__all__ = [
    "inversion_ratio",
    "convolution_ratio",
    "derivative_ratio",
    "inversion",
    "convolution_theorem",
    "derivative_identities",
    "stepper_vs_spectral",
]


def inversion_ratio(f: GridFunction) -> float:
    """Both round trips against ``2 f``, tolerance ``1e-9 (1 + max|f|)``."""
    r = np.abs(transform.inverse(transform.forward(f)).values - 2.0 * f.values).max()
    s = np.abs(transform.forward(transform.inverse(f)).values - 2.0 * f.values).max()
    return float(max(r, s) / (1e-9 * (1.0 + f.max_abs())))


def convolution_ratio(f: GridFunction, g: GridFunction) -> float:
    """``hat(f*g) = f_hat g_hat`` and its inverse analogue, tolerance ``1e-9 (1 + max|f_hat g_hat|)``."""
    conv = convolve(f, g)
    fg_hat = transform.forward(f).values * transform.forward(g).values
    r_fwd = np.abs(transform.forward(conv).values - fg_hat).max()
    r_inv = np.abs(transform.inverse(conv).values
                   - transform.inverse(f).values * transform.inverse(g).values).max()
    return float(max(r_fwd, r_inv)) / (1e-9 * (1.0 + np.abs(fg_hat).max()))


def derivative_ratio(f: GridFunction) -> float:
    """``hat(d_x f) = psi f_hat - e`` and ``hat(d_xx f) = psi^2 f_hat - f_corr``.

    Tolerances ``1e-9 (1 + n max|f|)`` and ``1e-9 (1 + n^2 max|f|)``.
    """
    n = f.params.n
    psi = transform.spectral_symbols(f.params).values
    f_hat = transform.forward(f).values
    corr = transform.boundary_corrections(f)
    r_dx = np.abs(transform.forward(d_x(f)).values - (psi * f_hat - corr.e.values)).max()
    r_dxx = np.abs(transform.forward(d_xx(f)).values - (psi * psi * f_hat - corr.f_corr.values)).max()
    return max(float(r_dx) / (1e-9 * (1.0 + n * f.max_abs())),
               float(r_dxx) / (1e-9 * (1.0 + n * n * f.max_abs())))


def _stepper_ratio(g: GridFunction, steps: int, corrected: bool) -> float:
    # relative tolerance 1e-8: the stepper amplifies by up to 1 + 4n per step
    slices = evolve(g, steps)
    corrections = ([transform.boundary_corrections(s).f_corr for s in slices[:steps]]
                   if corrected else None)
    ghat = transform.forward(g)
    worst = 0.0
    for i, s in enumerate(slices):
        ref = transform.forward(s)
        got = spectral_hat(ghat, corrections, i)
        worst = max(worst, np.abs(got.values - ref.values).max() / (1e-8 * max(1.0, ref.max_abs())))
    return float(worst)


def _worst(ratio, arity: int, ns: Iterable[int], trials: int, rng) -> float:
    """Largest ``ratio`` over ``trials`` draws of ``arity`` random functions per ``n``."""
    def draw(p: GridParams) -> GridFunction:
        return GridFunction(p, rng.standard_normal(p.space_count) + 1j * rng.standard_normal(p.space_count))

    return max((ratio(*(draw(GridParams(n)) for _ in range(arity))) for n in ns for _ in range(trials)),
               default=0.0)


def inversion(ns: Iterable[int], trials: int, rng) -> float:
    """Criterion 1: the round trip is exactly twice the identity."""
    return _worst(inversion_ratio, 1, ns, trials, rng)


def convolution_theorem(ns: Iterable[int], trials: int, rng) -> float:
    """Criterion 2: the transform factorises convolutions, both directions."""
    return _worst(convolution_ratio, 2, ns, trials, rng)


def derivative_identities(ns: Iterable[int], trials: int, rng) -> float:
    """Criterion 3: difference transforms equal symbol times transform minus corrections."""
    return _worst(derivative_ratio, 1, ns, trials, rng)


def stepper_vs_spectral(ns: Iterable[int], trials: int, rng, supported_ns: Iterable[int] = ()) -> float:
    """Criterion 4: the closed-form frequency solution matches the explicit stepper.

    Per ``n`` in ``ns``, ``trials`` arbitrary slices stepped ``min(6, n^2 - 1)``
    times, with the boundary corrections.  Per ``n`` in ``supported_ns``, one
    real slice per step count ``s < 9`` on ``[-n^2 + 2 + 2s, n^2 - 3]``, off
    the boundary rows for all ``s`` steps, without corrections.
    """
    worst = _worst(lambda g: _stepper_ratio(g, min(6, g.params.time_count - 1), True),
                   1, ns, trials, rng)
    for n in supported_ns:
        p = GridParams(n)
        for steps in range(min(9, p.time_count)):
            lo, hi = -n * n + 2 + 2 * steps, n * n - 3
            if lo > hi:
                continue
            v = np.zeros(p.space_count, dtype=complex)
            v[p.position(lo): p.position(hi) + 1] = rng.standard_normal(hi - lo + 1)
            worst = max(worst, _stepper_ratio(GridFunction(p, v), steps, False))
    return worst
