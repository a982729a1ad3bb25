import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperheat
from hyperheat import (GridFunction, GridParams, SolveConfig, SolveResult, Window, convolve,
                       kernel_slice, transform)
from hyperheat.checks import _STEPPER_TOL
from hyperheat.evolution import _truncated_samples, evolve, spectral_hat


def fresh_env() -> dict:
    """Environment of a new interpreter that imports this ``hyperheat`` and prints every warning."""
    src = str(Path(hyperheat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS="default",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter (see :func:`fresh_env`)."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_grid_function(params: GridParams, rng, real=False) -> GridFunction:
    M = params.space_count
    v = rng.standard_normal(M)
    if not real:
        v = v + 1j * rng.standard_normal(M)
    return GridFunction(params, v)


def random_stack(params: GridParams, rng, rows: int = 3) -> GridFunction:
    """``rows`` random complex slices on one grid, as one grid function of shape ``(rows, 2n^2)``."""
    shape = (rows, params.space_count)
    return GridFunction(params, rng.standard_normal(shape) + 1j * rng.standard_normal(shape))


def same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    """Equal shape and dtype, and equal bit for bit (so ``-0.0`` differs from ``0.0``)."""
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def reference_forward(f: GridFunction) -> np.ndarray:
    """Independent direct-sum transform: per-frequency np.sum, no shared kernel matrix."""
    n = f.params.n
    js = f.params.space_indices()
    out = np.empty(f.params.space_count, dtype=np.complex128)
    for p, k in enumerate(js):
        out[p] = np.sum(f.values * np.exp(-1j * np.pi * js * k / (n * n))) / n
    return out


def reference_inverse(f: GridFunction) -> np.ndarray:
    n = f.params.n
    js = f.params.space_indices()
    out = np.empty(f.params.space_count, dtype=np.complex128)
    for p, k in enumerate(js):
        out[p] = np.sum(f.values * np.exp(1j * np.pi * js * k / (n * n))) / n
    return out


def gather_transform(f: GridFunction, sign: int) -> np.ndarray:
    """The transform pair as one FFT of period ``M = 2 n^2``, reordered by a gather.

    Frequency ``k`` is read from FFT position ``k mod M`` by fancy indexing,
    times ``(-1)^k`` and ``1/n``; ``sign < 0`` is :func:`forward`, else
    :func:`inverse`.  The library's rotation by ``n^2`` must equal it bit for bit.
    """
    M = f.params.space_count
    spec = np.fft.fft(f.values, axis=-1) if sign < 0 else M * np.fft.ifft(f.values, axis=-1)
    k = f.params.space_indices()
    return (np.where(k % 2, -1.0, 1.0) * spec[..., k % M]) / f.params.n


def stepper_ratio_per_slice(g: GridFunction, steps: int, corrected: bool) -> float:
    """Criterion 4's ratio for one slice ``g``, one transform and one correction per stepped slice.

    The reference for ``checks._stepper_ratio``, which stacks the slices.
    """
    slices = evolve(g, steps)
    corrections = ([transform.boundary_corrections(s).f_corr for s in slices[:steps]]
                   if corrected else None)
    ghat = transform.forward(g)
    worst = 0.0
    for i, s in enumerate(slices):
        ref = transform.forward(s)
        got = spectral_hat(ghat, corrections, i)
        tol = _STEPPER_TOL * max(1.0, ref.max_abs())
        worst = max(worst, np.abs(got.values - ref.values).max() / tol)
    return float(worst)


def reference_restricted_forward(js: np.ndarray, vals: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """Independent direct band sum ``(1/n) sum_j vals_j e^{-i pi j k / n^2}``: per-frequency np.sum."""
    out = np.empty(ks.size, dtype=np.complex128)
    for p, k in enumerate(ks):
        out[p] = np.sum(vals * np.exp(-1j * np.pi * js * k / (n * n))) / n
    return out


def reference_query(xs: np.ndarray, ks: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Independent direct sum ``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}``.

    One np.sum per point, no shared query matrix.  The phase ``x_j k / n``
    (in half turns) is formed in long double and reduced mod 2 before the
    exponential: in double precision it would round by about 1e-16 of its
    size, which at ``|x k / n| = 30`` is half of the ``1e-14`` the routes
    are held to.
    """
    out = np.empty((coeffs.shape[1], xs.size), dtype=np.complex128)
    kl = ks.astype(np.longdouble)
    for j, x in enumerate(xs):
        half_turns = np.fmod(np.longdouble(x) * kl / n, 2).astype(np.float64)
        out[:, j] = np.sum(coeffs * np.exp(1j * np.pi * half_turns)[:, None], axis=0) / n
    return out


def solve_via_convolution(config: SolveConfig) -> SolveResult:
    """Reference route for :func:`hyperheat.solve`: the discrete heat kernel convolved with the data.

    Produces cell values, so each query ``x`` reads the cell ``floor(n x)``;
    on grid-aligned queries this matches ``solve`` to rounding.  It builds
    full-grid kernels and convolves them directly, so it suits small ``n``.
    """
    params = config.params
    js, gvals = _truncated_samples(config)
    full = np.zeros(params.space_count, dtype=np.complex128)
    full[js + params.n**2] = gvals
    g = GridFunction(params, full)
    window = Window(params, config.omega_prime)
    positions = [params.position(math.floor(config.n * x)) for x in config.xs]
    u = np.empty((len(config.times), len(config.xs)), dtype=np.complex128)
    for i, t in enumerate(config.times):
        u[i] = convolve(kernel_slice(window, t), g).values[positions]
    return SolveResult(config.times, config.xs, u, config.regime_flag)
