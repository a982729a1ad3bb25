"""Time evolution of the discrete heat equation and the windowed spectral solver.

Two routes compute the same evolution:

* :func:`step` / :func:`evolve` -- the explicit recursion
  ``f(i+1) = f(i) + (1/n) d_xx f(i)``.  Its time step over space step
  squared is ``n``, so it amplifies high frequencies by up to ``1 + 4n``
  per step: it is a *validation oracle*, not a production solver, and
  carries an overflow guard.
* :func:`spectral_hat` -- the closed form in frequency space,
  ``f_hat(i) = g_hat * growth^i - (1/n) sum_j F_j * growth^{i-j-1}``,
  where ``growth = 1 + psi^2/n`` and ``F_j`` is the second-difference
  boundary correction of slice ``j``.  With the corrections supplied the
  two routes agree to rounding for arbitrary data; without them they agree
  while the support stays off the three boundary-sensitive indices.

Production solving (:func:`solve`) truncates the boundary data in space,
transforms it onto the window band only with a chirp-z transform, applies
the value-1/2 frequency window and ``growth^{floor(nt)}`` on that band, and
inverse-transforms at the query points only.  It never builds an array over
the full 2n^2 grid: time is O(omega n log(omega n) + |xs| omega' n) and
memory O(omega n).  Frequencies inside the window satisfy ``|growth| <= 1``
whenever the window radius stays inside the stability band (roughly
``sqrt(2n)/pi``), which keeps the powers tame.  The full-grid views
(:attr:`Propagator.growth`, :attr:`Window.values`) serve the exact-identity
layer, :func:`spectral_hat` and :func:`kernel_slice`.

:func:`convolve` is the ``1/n``-weighted circular convolution (period
``2 n^2``); the transform turns it into a pointwise product exactly, and
:func:`solve_via_convolution` exploits that to re-derive ``solve`` through
the discrete heat kernel as a cross-check.
"""

from __future__ import annotations

import math
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Iterator, Sequence

import numpy as np

from .grid import Field, GridFunction, GridParams, d_xx
from .transform import _psi, inverse, spectral_symbols

__all__ = [
    "OVERFLOW_LIMIT",
    "EvolutionOverflowError",
    "step",
    "evolve",
    "Propagator",
    "propagator",
    "spectral_hat",
    "convolve",
    "check_convolution_theorem",
    "Window",
    "kernel",
    "kernel_slice",
    "SolveConfig",
    "SolveResult",
    "solve",
    "solve_via_convolution",
]

# Running-magnitude bound for the explicit stepper; see EvolutionOverflowError.
OVERFLOW_LIMIT = 1e100

# solve_via_convolution materialises full-grid kernels; cap the grid size.
_CONVOLUTION_N_LIMIT = 64

# Largest n at which the chirp's exact phase reduction (intermediates < 8 n^2) fits in int64.
_INT64_CHIRP_N = math.isqrt((2**63 - 1) // 8)

# Complex entries in one block of the query matrix exp(i pi x k / n): 4 MiB.
_QUERY_BLOCK_ENTRIES = 1 << 18


class EvolutionOverflowError(RuntimeError):
    """Raised when the explicit stepper's running maximum exceeds OVERFLOW_LIMIT."""


def step(slice_: GridFunction) -> GridFunction:
    """One explicit Euler step with dt = 1/n: ``slice + (1/n) d_xx(slice)``.

    The forced-zero rows of ``d_xx`` give the boundary behaviour: the value
    at the top index is carried unchanged, and the row below it sees the
    one-sided difference.
    """
    return slice_ + (1.0 / slice_.params.n) * d_xx(slice_)


def evolve(g: GridFunction, steps: int) -> Field:
    """Iterate :func:`step` from boundary data ``g``; slice 0 is ``g`` itself.

    Slices are produced on demand through a cursor (sequential access is
    O(1) per slice; jumping backwards restarts from ``g``), so memory stays
    O(n^2).  Producing a slice whose max modulus exceeds ``OVERFLOW_LIMIT``
    raises :class:`EvolutionOverflowError` with the offending step index.
    """
    params = g.params
    if not 0 <= steps <= params.time_count - 1:
        raise ValueError(f"steps must lie in [0, {params.time_count - 1}], got {steps}")
    cursor = {"i": 0, "slice": g}

    def producer(i: int) -> GridFunction:
        if i < cursor["i"]:
            cursor["i"], cursor["slice"] = 0, g
        while cursor["i"] < i:
            nxt = step(cursor["slice"])
            cursor["i"] += 1
            cursor["slice"] = nxt
            m = nxt.max_abs()
            if not np.isfinite(m) or m > OVERFLOW_LIMIT:
                raise EvolutionOverflowError(
                    f"explicit step {cursor['i']}: max modulus {m:.3e} exceeds "
                    f"{OVERFLOW_LIMIT:.0e}; the scheme amplifies by up to 1+4n "
                    f"per step (n={params.n}) and is meant for short validation runs"
                )
        return cursor["slice"]

    return Field(params, producer, max_index=steps)


@dataclass(frozen=True)
class Propagator:
    """Per-frequency growth factor of the explicit scheme.

    ``growth(x) = 1 + psi(x)^2 / n``; after ``m`` steps a frequency is
    multiplied by ``growth(x)^m``.  ``|growth(x)| <= 1`` holds exactly for
    ``2 n sin^2(theta/2) <= cos(theta)`` with ``theta = pi x / n``, i.e. up
    to :meth:`stability_radius` (which is ``sqrt(2n)/pi`` up to an O(1/n)
    correction -- the closed-form radius itself overshoots the discrete
    band edge by a couple of grid points).

    :meth:`at` evaluates the factor on a set of frequency indices only;
    :attr:`growth` is the full-grid view, built on first access.
    """

    params: GridParams

    @cached_property
    def growth(self) -> GridFunction:
        """``1 + psi^2 / n`` over all 2n^2 frequencies (``psi`` from :func:`spectral_symbols`)."""
        return GridFunction(self.params, 1.0 + spectral_symbols(self.params).psi.values**2 / self.params.n)

    def at(self, ks: np.ndarray) -> np.ndarray:
        """Growth factor at frequency indices ``ks``.

        Same elementwise arithmetic as :func:`spectral_symbols` and
        :attr:`growth`, so the values are bit-identical to
        ``growth.values[ks + n^2]``.
        """
        n = self.params.n
        return 1.0 + _psi(ks / n, n) ** 2 / n

    def power(self, steps: int) -> GridFunction:
        """``growth^steps`` over the full grid.

        Unbounded outside the stability band: for large ``steps`` the values
        there overflow to inf.  Windowed paths mask before powering.
        """
        return GridFunction(self.params, self.growth.values**steps)

    def magnitude_squared_closed_form(self) -> np.ndarray:
        """``|growth|^2 = 1 - 8 n sin^2(t/2) cos(t) + 16 n^2 sin^4(t/2)``, t = pi x/n."""
        n = self.params.n
        theta = np.pi * self.params.space_points() / n
        s2 = np.sin(theta / 2.0) ** 2
        return 1.0 - 8.0 * n * s2 * np.cos(theta) + 16.0 * n * n * s2 * s2

    def stability_radius(self) -> float:
        """Largest grid ``|x|`` such that ``|growth| <= 1`` for all grid points up to it."""
        n = self.params.n
        k = np.arange(0, n * n)
        theta = np.pi * k / (n * n)
        ok = 2.0 * n * np.sin(theta / 2.0) ** 2 <= np.cos(theta)
        # the stable set is an interval around 0, so the first failure ends it
        bad = np.flatnonzero(~ok)
        k_edge = (bad[0] - 1) if bad.size else (n * n - 1)
        return k_edge / n


def propagator(params: GridParams) -> Propagator:
    """The growth factor of the grid ``params``; builds no array until one is asked for."""
    return Propagator(params)


def spectral_hat(
    g_hat: GridFunction,
    corrections_per_step: Sequence[GridFunction] | None,
    i: int,
) -> GridFunction:
    """Closed-form frequency-space solution after ``i`` steps.

    ``g_hat * growth^i - (1/n) sum_{j<i} corrections[j] * growth^{i-j-1}``,
    where ``corrections[j]`` is the ``f_corr`` boundary correction of the
    *pre-step* slice ``j``.  With the list omitted, the pure product is
    returned (exact while the evolving support avoids the boundary rows).
    """
    params = g_hat.params
    if not 0 <= i <= params.time_count - 1:
        raise ValueError(f"step index must lie in [0, {params.time_count - 1}], got {i}")
    if corrections_per_step is not None and len(corrections_per_step) < i:
        raise ValueError(f"need {i} per-step corrections, got {len(corrections_per_step)}")
    growth = propagator(params).growth.values
    acc = g_hat.values * growth**i
    if corrections_per_step is not None:
        for j in range(i):
            acc = acc - corrections_per_step[j].values * growth ** (i - j - 1) / params.n
    return GridFunction(params, acc)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """``(f*g)_j = (1/n) sum_k f_{(j-k) mod 2n^2} g_k`` (periodic indices).

    Periodicity with period ``2 n^2`` is exactly the convention under which
    the transform of a convolution factorises; a unit-mass discrete delta
    ``n * delta_0`` is the identity element.
    """
    if f.params != g.params:
        raise ValueError("grid mismatch")
    M = f.params.space_count
    lin = np.convolve(f.values, g.values)      # direct summation, not FFT
    circ = lin[:M].copy()
    circ[: M - 1] += lin[M:]
    # positions encode index+n^2, so the folded result is rotated by n^2
    return GridFunction(f.params, np.roll(circ, -(M // 2)) / f.params.n)


def check_convolution_theorem(f: GridFunction, g: GridFunction, method: str = "auto") -> float:
    """Max-abs residual of both ``hat(f*g) = f_hat g_hat`` and its inverse analog."""
    from .transform import forward

    conv = convolve(f, g)
    r_fwd = np.abs(forward(conv, method).values - (forward(f, method) * forward(g, method)).values).max()
    r_inv = np.abs(inverse(conv, method).values - (inverse(f, method) * inverse(g, method)).values).max()
    return float(max(r_fwd, r_inv))


class Window:
    """Value-1/2 indicator of the frequency band ``|k| <= floor(radius * n)``.

    The 1/2 compensates the transform pair's round-trip constant 2.  For
    ``radius * n < n^2`` there are exactly ``2 floor(radius n) + 1`` nonzero
    entries, symmetric about 0; for larger radii the window covers the whole
    grid (every entry 1/2).  :attr:`values` is the full-grid view, built on
    first access; the solve reads only :meth:`band_indices`.
    """

    def __init__(self, params: GridParams, radius: float) -> None:
        if radius <= 0:
            raise ValueError(f"window radius must be positive, got {radius}")
        self.params = params
        self.radius = float(radius)
        self.cutoff = min(int(math.floor(self.radius * params.n)), params.n**2)

    @cached_property
    def values(self) -> GridFunction:
        k = self.params.space_indices()
        return GridFunction(self.params, np.where(np.abs(k) <= self.cutoff, 0.5, 0.0))

    def band_indices(self) -> np.ndarray:
        """The frequency indices carrying weight 1/2 (clipped to the grid)."""
        lo = max(-self.cutoff, -self.params.n**2)
        hi = min(self.cutoff, self.params.n**2 - 1)
        return np.arange(lo, hi + 1)


def _steps_of(params: GridParams, t: float) -> int:
    if not 0.0 <= t < params.n:
        raise ValueError(f"time {t} outside [0, n) for n={params.n}")
    return int(math.floor(params.n * t))


def _windowed_symbol(window: Window, t: float) -> GridFunction:
    """``window * growth^{floor(nt)}`` with powers taken only inside the band."""
    params = window.params
    m = _steps_of(params, t)
    ks = window.band_indices()
    q = np.zeros(params.space_count, dtype=np.complex128)
    q[ks + params.n**2] = 0.5 * propagator(params).at(ks) ** m
    return GridFunction(params, q)


def kernel_slice(window: Window, t: float) -> GridFunction:
    """The discrete heat kernel over all grid offsets: ``inverse(window * growth^m)``."""
    return inverse(_windowed_symbol(window, t), method="fft")


def kernel(t: float, z: float, window: Window) -> complex:
    """Kernel value at a single offset ``z`` (direct sum over the band).

    Mass over offsets is exactly 1 (the round-trip constant 2 against the
    window's 1/2); Hermitian symmetry of the band makes the value real up
    to rounding and even in ``z``.
    """
    if not math.isfinite(z):
        raise ValueError(f"kernel offset must be finite, got z={z}")
    params = window.params
    m = _steps_of(params, t)
    ks = window.band_indices()
    growth = propagator(params).at(ks)
    phases = np.exp(1j * np.pi * (ks / params.n) * z)
    return complex(np.sum(0.5 * growth**m * phases) / params.n)


@dataclass(frozen=True)
class SolveConfig:
    """Inputs of the windowed spectral solve.

    ``boundary`` must be callable on arrays of points in ``[-omega, omega)``.
    ``regime_flag`` records whether the sufficiency conditions
    ``omega_prime < sqrt(log n)`` and ``omega < sqrt(omega_prime)`` hold;
    runs outside that regime are allowed (the conditions are sufficient,
    not necessary, and at desk scale they would force n > e^(omega'^2)).
    """

    n: int
    omega: float
    omega_prime: float
    boundary: Callable[[np.ndarray], np.ndarray]
    times: tuple[float, ...]
    xs: tuple[float, ...]

    def __post_init__(self) -> None:
        params = GridParams(self.n)  # validates n
        if not 0 < self.omega < self.n:
            raise ValueError(f"need 0 < omega < n, got omega={self.omega}, n={self.n}")
        if not 0 < self.omega_prime <= self.n:
            raise ValueError(f"need 0 < omega_prime <= n, got {self.omega_prime}")
        if not self.times:
            raise ValueError("need at least one query time")
        for t in self.times:
            if not 0.0 < t < self.n:
                raise ValueError(f"query times must lie in (0, n); got t={t}")
        for x in self.xs:
            if not math.isfinite(x):
                raise ValueError(f"query points must be finite; got x={x}")
        object.__setattr__(self, "times", tuple(float(t) for t in self.times))
        object.__setattr__(self, "xs", tuple(float(x) for x in self.xs))

    @property
    def params(self) -> GridParams:
        return GridParams(self.n)

    @property
    def regime_flag(self) -> bool:
        return self.omega_prime < math.sqrt(math.log(self.n)) and self.omega < math.sqrt(
            self.omega_prime
        )


@dataclass
class SolveResult:
    """Solution table: ``u[i, j]`` is the value at ``times[i]``, ``xs[j]``.

    The physically meaningful answer is ``u.real``; the imaginary residue
    (small but nonzero, since the propagator is first order in 1/n) is kept
    as a diagnostic rather than silently dropped.
    """

    times: tuple[float, ...]
    xs: tuple[float, ...]
    u: np.ndarray
    regime_flag: bool = False
    max_growth: float = 0.0   # max |growth| over the frequency band

    def rows(self) -> Iterator[tuple[float, float, float, float]]:
        """Yield ``(t, x, u_re, |u_im|)`` in row-major order."""
        for i, t in enumerate(self.times):
            for j, x in enumerate(self.xs):
                yield t, x, float(self.u[i, j].real), float(abs(self.u[i, j].imag))

    def max_imag(self) -> float:
        return float(np.abs(self.u.imag).max()) if self.u.size else 0.0

    def first_non_finite(self) -> tuple[float, float] | None:
        """The first ``(t, x)``, in row-major order, whose value is NaN or infinite."""
        bad = np.flatnonzero(~np.isfinite(self.u))
        if not bad.size:
            return None
        i, j = divmod(int(bad[0]), len(self.xs))
        return self.times[i], self.xs[j]


def _truncated_samples(config: SolveConfig) -> tuple[np.ndarray, np.ndarray]:
    """Indices ``j`` with ``j/n`` in ``[-omega, omega)`` and the boundary values there."""
    n = config.n
    lo = int(math.ceil(-config.omega * n))
    hi = int(math.ceil(config.omega * n))  # exclusive
    lo, hi = max(lo, -n * n), min(hi, n * n)
    js = np.arange(lo, hi)
    vals = np.asarray(config.boundary(js / n), dtype=np.complex128)
    if vals.shape != js.shape:
        raise ValueError("boundary callable must return one value per sample point")
    if not np.isfinite(vals).all():
        raise ValueError("boundary data contains non-finite values")
    return js, vals


def _chirp(m: np.ndarray, n: int) -> np.ndarray:
    """``exp(-i pi m^2 / (2 n^2))`` for integers ``m``.

    The phase has period ``4 n^2`` in ``m^2``, and ``m^2 mod 4n^2`` depends
    only on ``m mod 2n^2``.  The reduction is exact integer arithmetic done
    before ``exp``, so the phase stays accurate however large ``m^2`` is;
    floating-point ``m^2`` loses it (``scipy.signal.czt`` is off by ~5e-10
    on the n=2048 band).  Splitting ``m mod 2n^2 = a n + b`` keeps every
    intermediate below ``8 n^2``, so int64 suffices up to ``n = 2^30``.
    """
    half = n * n
    if n > _INT64_CHIRP_N:
        m = m.astype(object)                              # Python integers: exact at any n
    r = m % (2 * half)
    a, b = r // n, r % n                                  # r = a n + b, 0 <= a < 2n, 0 <= b < n
    residue = (half * (a * a % 4) + 2 * n * (a * b % (2 * n)) + b * b) % (4 * half)
    return np.exp(-2j * np.pi * (residue / (4 * half)).astype(np.float64))


def _restricted_forward(js: np.ndarray, vals: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """``(1/n) sum_j vals_j e^{-i pi j k / n^2}`` for each k (Bluestein chirp-z).

    ``js`` and ``ks`` are contiguous ascending integer ranges.  With
    ``jk = (j^2 + k^2 - (k-j)^2) / 2`` the sum is ``chirp(k)`` times the
    linear convolution of ``vals * chirp(j)`` with ``conj(chirp(d))`` over
    every difference ``d = k - j``, done by one FFT convolution in
    O((J + K) log(J + K)).
    """
    J, K = js.size, ks.size
    ds = np.arange(ks[0] - js[-1], ks[-1] - js[0] + 1)     # J + K - 1 differences
    size = 1 << (ds.size - 1).bit_length()                 # >= J + K - 1: no wrap-around
    a = np.fft.fft(vals * _chirp(js, n), size)
    b = np.fft.fft(np.conj(_chirp(ds, n)), size)
    conv = np.fft.ifft(a * b)[J - 1 : J - 1 + K]
    return _chirp(ks, n) * conv / n


def _check_band_stability(config: SolveConfig, growth_band: np.ndarray) -> float:
    """Warn when ``|growth|`` exceeds 1 inside the window; return its maximum."""
    gmax = float(np.abs(growth_band).max())
    if gmax > 1.0 + 1e-12:
        warnings.warn(
            f"|growth| reaches {gmax:.6g} inside the frequency window "
            f"(omega_prime={config.omega_prime}, n={config.n}); powers will grow",
            RuntimeWarning,
            stacklevel=3,
        )
    return gmax


def solve(config: SolveConfig, threads: int = 1) -> SolveResult:
    """Windowed spectral solution at the query points.

    Pipeline: sample and truncate the boundary data to ``[-omega, omega)``;
    forward-transform onto the window band only (chirp-z); multiply by the
    window and ``growth^{floor(nt)}``, one column per time; inverse-transform
    by direct summation at the query points, all times in one matrix
    product per block of points.  Work is
    O(omega n log(omega n) + |xs| omega' n) and memory O(omega n); no array
    spans the full 2n^2 grid.

    ``threads > 1`` spreads the point blocks over threads.  The blocks do
    not depend on the thread count, so results are identical at any count.
    """
    params = config.params
    js, gvals = _truncated_samples(config)
    ks = Window(params, config.omega_prime).band_indices()
    ghat = _restricted_forward(js, gvals, ks, config.n)

    growth = propagator(params).at(ks)
    gmax = _check_band_stability(config, growth)
    coeffs = np.empty((ks.size, len(config.times)), dtype=np.complex128)
    for i, t in enumerate(config.times):
        coeffs[:, i] = 0.5 * ghat * growth ** _steps_of(params, t)

    xs = np.asarray(config.xs, dtype=float)
    u = np.empty((len(config.times), xs.size), dtype=np.complex128)
    freqs = ks / config.n

    def fill_block(sl: slice) -> None:
        u[:, sl] = (np.exp(1j * np.pi * np.outer(xs[sl], freqs)) @ coeffs).T / config.n

    rows = max(1, _QUERY_BLOCK_ENTRIES // ks.size)
    blocks = [slice(s, s + rows) for s in range(0, xs.size, rows)]
    if threads > 1 and len(blocks) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            list(pool.map(fill_block, blocks))
    else:
        for sl in blocks:
            fill_block(sl)

    return SolveResult(config.times, config.xs, u, config.regime_flag, gmax)


def solve_via_convolution(config: SolveConfig) -> SolveResult:
    """Cross-check route: convolve the discrete heat kernel with the data.

    Produces cell values, so each query ``x`` reads the cell ``floor(n x)``;
    on grid-aligned queries this matches :func:`solve` to rounding.  Guarded
    to n <= 64 because it materialises full-grid kernels.
    """
    if config.n > _CONVOLUTION_N_LIMIT:
        raise ValueError(
            f"solve_via_convolution materialises the full grid; n={config.n} exceeds "
            f"the guard {_CONVOLUTION_N_LIMIT}"
        )
    params = config.params
    js, gvals = _truncated_samples(config)
    full = np.zeros(params.space_count, dtype=np.complex128)
    full[js + params.n**2] = gvals
    g = GridFunction(params, full)
    window = Window(params, config.omega_prime)
    gmax = _check_band_stability(config, propagator(params).at(window.band_indices()))

    positions = [params.position(int(math.floor(config.n * x))) for x in config.xs]
    u = np.empty((len(config.times), len(config.xs)), dtype=np.complex128)
    for i, t in enumerate(config.times):
        conv = convolve(kernel_slice(window, t), g)
        u[i, :] = conv.values[positions]
    return SolveResult(config.times, config.xs, u, config.regime_flag, gmax)
