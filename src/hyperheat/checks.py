"""The verdicts of the library, each tolerance, bound and bracket written once.

Exact identities (criteria 1-4): each ``*_ratio`` function judges one draw
of data, or a stack of draws, as residual over its identity's only tolerance
(at most 1 when it holds), taken per slice; each criterion function returns
the worst ratio over ``trials`` random complex grid functions per ``n`` in
``ns``, drawn from ``rng``.  Criteria 1-3 judge the ``trials`` draws of one
``n`` as one stack, and the arrays a ratio transforms together are stacked
too.  Per ``n``, the convolution theorem makes one call in each direction
over ``(f, g, f*g)``, and the difference identities one ``forward`` over
``(f, d_x f, d_xx f)`` and one ``boundary_corrections``; the two round trips
are two calls in each direction, because each transforms the other's input.
Criterion 4 stacks the slices stepped from one draw: one ``forward`` and
one ``boundary_corrections`` per draw.
Rate estimates (criterion 8) carry existence-only constants, so
:func:`rate_verdicts` judges shapes: a fitted decay order inside a bracket,
or a concrete bound evaluated numerically.
"""

from __future__ import annotations

import math
from typing import Iterable, Sequence

import numpy as np

from . import oracle, transform
from .evolution import convolve, evolve, spectral_hat
from .grid import GridFunction, GridParams, d_x

# Tolerance of the exact identities (criteria 1-3), scaled per identity.
_IDENTITY_TOL = 1e-9

# Relative tolerance of criterion 4: the stepper amplifies by up to 1 + 4n per step.
_STEPPER_TOL = 1e-8

__all__ = [
    "inversion_ratio",
    "convolution_ratio",
    "derivative_ratio",
    "inversion",
    "convolution_theorem",
    "derivative_identities",
    "stepper_vs_spectral",
    "fitted_order",
    "rate_verdicts",
]


def _peak(values: np.ndarray) -> np.ndarray:
    """``max|values|`` of each slice: over the last axis, never across a stack."""
    return np.abs(values).max(axis=-1)


def inversion_ratio(f: GridFunction) -> float:
    """Both round trips against ``2 f``, tolerance ``_IDENTITY_TOL (1 + max|f|)``."""
    r = _peak(transform.inverse(transform.forward(f)).values - 2.0 * f.values)
    s = _peak(transform.forward(transform.inverse(f)).values - 2.0 * f.values)
    return float((np.maximum(r, s) / (_IDENTITY_TOL * (1.0 + _peak(f.values)))).max())


def convolution_ratio(f: GridFunction, g: GridFunction) -> float:
    """``hat(f*g) = f_hat g_hat`` and its inverse analogue.

    The tolerance is ``_IDENTITY_TOL (1 + max|f_hat g_hat|)``.  ``f`` and
    ``g`` are stacks of one shape: :func:`convolve` takes them whole, and
    each direction transforms ``f``, ``g`` and ``f*g`` in one call.
    """
    stack = GridFunction(f.params, (f.values, g.values, convolve(f, g).values))
    fwd, inv = transform.forward(stack).values, transform.inverse(stack).values
    fg_hat = fwd[0] * fwd[1]
    r_fwd = _peak(fwd[2] - fg_hat)
    r_inv = _peak(inv[2] - inv[0] * inv[1])
    return float((np.maximum(r_fwd, r_inv) / (_IDENTITY_TOL * (1.0 + _peak(fg_hat)))).max())


def derivative_ratio(f: GridFunction) -> float:
    """``hat(d_x f) = psi f_hat - e`` and ``hat(d_xx f) = psi^2 f_hat - f_corr``.

    Tolerances ``_IDENTITY_TOL (1 + n max|f|)`` and ``_IDENTITY_TOL (1 + n^2 max|f|)``.
    """
    n = f.params.n
    psi = transform.spectral_symbols(f.params).values
    df = d_x(f)                                     # d_xx(f) is d_x(d_x(f))
    stack = GridFunction(f.params, (f.values, df.values, d_x(df).values))
    f_hat, dx_hat, dxx_hat = transform.forward(stack).values
    corr = transform.boundary_corrections(f)
    peak = _peak(f.values)
    r_dx = _peak(dx_hat - (psi * f_hat - corr.e.values))
    r_dxx = _peak(dxx_hat - (psi * psi * f_hat - corr.f_corr.values))
    return float(np.maximum(r_dx / (_IDENTITY_TOL * (1.0 + n * peak)),
                            r_dxx / (_IDENTITY_TOL * (1.0 + n * n * peak))).max())


def _stepper_ratio(g: GridFunction, steps: int, corrected: bool) -> float:
    """Worst residual over tolerance of slices ``0 .. steps`` stepped from one slice ``g``.

    The stepped slices are one stack: one transform gives ``g_hat`` (row 0)
    and every reference, one boundary-corrections call every correction.
    """
    p = g.params
    slices = GridFunction(p, [s.values for s in evolve(g, steps)])
    refs = transform.forward(slices).values
    corrections = ([GridFunction(p, c) for c in
                    transform.boundary_corrections(GridFunction(p, slices.values[:steps])).f_corr.values]
                   if corrected else None)
    ghat = GridFunction(p, refs[0])
    got = np.stack([spectral_hat(ghat, corrections, i).values for i in range(steps + 1)])
    return float((_peak(got - refs) / (_STEPPER_TOL * np.maximum(1.0, _peak(refs)))).max())


def _worst(ratio, arity: int, ns: Iterable[int], trials: int, rng) -> float:
    """Largest ``ratio`` over ``trials`` draws of ``arity`` random functions per ``n``.

    Each of the ``arity`` arguments is a stack of ``trials`` slices, one per
    draw.  The generator is read in the order of one draw at a time: per
    draw, per function, the real parts and then the imaginary parts.
    """
    def draw(p: GridParams) -> list[GridFunction]:
        z = rng.standard_normal((trials, arity, 2, p.space_count))
        return [GridFunction(p, z[:, a, 0] + 1j * z[:, a, 1]) for a in range(arity)]

    return max((ratio(*draw(GridParams(n))) for n in ns if trials > 0), default=0.0)


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
    def per_draw(g: GridFunction) -> float:
        steps = min(6, g.params.time_count - 1)
        return max(_stepper_ratio(GridFunction(g.params, v), steps, True) for v in g.values)

    worst = _worst(per_draw, 1, ns, trials, rng)
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


def fitted_order(params: Sequence[float], errors: Sequence[float]) -> float:
    """Least-squares slope of ``-log(err)`` against ``log(param)``; a zero error counts as 1e-300."""
    p = np.log(np.asarray(params, dtype=float))
    e = np.log(np.maximum(np.asarray(errors, dtype=float), 1e-300))
    return float(-np.polyfit(p, e, 1)[0])


def rate_verdicts() -> list[tuple[str, str, float, str, bool]]:
    """Rows ``(check, param, observed, bound_or_bracket, pass)``, one per rate verdict.

    A bound row passes when ``observed <= limit`` and reads ``<=limit``; a
    bracket row passes when ``lo <= observed <= hi`` and reads ``[lo,hi]``.
    ``quad_order`` fails: the lattice sum is exact to the float floor, so no
    decay order is observable (see :func:`oracle.lattice_error`).
    """
    rows = []

    def bound(check: str, param: str, observed: float, limit: float) -> None:
        rows.append((check, param, observed, f"<={limit:.6g}", observed <= limit))

    def bracket(check: str, param: str, observed: float, lo: float, hi: float) -> None:
        rows.append((check, param, observed, f"[{lo},{hi}]", lo <= observed <= hi))

    # |n (e^{i pi/n} - 1) - i pi| <= pi^2 e^pi / n, at rate 1/n
    p_ns = (1, 10, 100, 1000, 10_000, 100_000, 1_000_000)
    p_errs = [abs(oracle.difference_symbol_residual(n)) for n in p_ns]
    for n, err in zip(p_ns, p_errs):
        bound("p_bound", f"n={n}", err, math.pi**2 * math.exp(math.pi) / n)
    bracket("p_order", "n=1e2..1e6", fitted_order(p_ns[2:], p_errs[2:]), 0.8, 1.2)

    for t, thr in ((1.0, 1.0), (0.25, 2.0)):
        left, right = oracle.tail_bound_check(t, thr, 100)
        bound("tail_bound", f"t={t},thr={thr},n=100", left, right)

    # the compounded growth tends to exp(-pi^2 y^2) at rate 1/n, and vanishes at large y
    t_ns = (100, 1000, 10_000)
    bracket("t_order", "y=1",
            fitted_order(t_ns, [abs(oracle.gaussian_symbol_residual(n, 1.0)) for n in t_ns]), 0.8, 1.2)
    bound("t_vanish", "y=5,n=1e4", abs(oracle.gaussian_symbol_approx(10_000, 5.0)), 1e-3)

    q_ns = (64, 128, 256)
    bracket("quad_order", "t=1,z=0",
            fitted_order(q_ns, [oracle.lattice_error(1.0, 0.0, n) for n in q_ns]), 0.8, 1.5)
    bound("quad_error", "t=1,z=1,n=256", oracle.lattice_error(1.0, 1.0, 256), 1e-2)

    for t, z in ((1.0, 0.0), (0.5, 1.0)):
        bound("gauss_transform", f"t={t},z={z}", oracle.gaussian_transform_identity(t, z), 1e-8)
    return rows
