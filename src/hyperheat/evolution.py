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
inverse-transforms at the query points only: by a second chirp-z transform
when they are uniformly spaced, by direct summation otherwise.  It never
builds an array over the full 2n^2 grid: time is
O((omega n + |xs|) log(omega n + |xs|)) on uniform points; on others it is
O(omega n log(omega n)) plus O(|xs| sqrt(omega' n)) exponentials and one
matrix product of O(|xs| omega' n |times|).  Memory is O(omega n + |xs|).
Frequencies inside the window satisfy ``|growth| <= 1`` whenever the
window radius stays inside the stability band (roughly ``sqrt(2n)/pi``),
which keeps the powers tame.  :func:`kernel` tabulates the discrete heat
kernel through the same powers and query evaluation, with the data
transform replaced by 1.  :func:`propagator` gives the growth factor at
any set of frequency indices: the band here, the full grid in
:func:`spectral_hat`.

:func:`convolve` is the ``1/n``-weighted circular convolution (period
``2 n^2``); the transform turns it into a pointwise product exactly, and
:func:`solve_via_convolution` exploits that to re-derive ``solve`` through
the discrete heat kernel as a cross-check.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import GridFunction, GridParams, d_xx
from .transform import _psi, inverse

__all__ = [
    "OVERFLOW_LIMIT",
    "EvolutionOverflowError",
    "step",
    "evolve",
    "propagator",
    "stability_radius",
    "spectral_hat",
    "convolve",
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

# Largest chirp index whose square fits in int64.
_MAX_CHIRP_INDEX = math.isqrt(2**63 - 1)

# Complex entries in one block of the factored query product (points x coarse x times): 4 MiB.
_QUERY_BLOCK_ENTRIES = 1 << 18

# Uniform query sets of this many points take the chirp-z evaluation.
_MIN_CHIRP_POINTS = 16


class EvolutionOverflowError(RuntimeError):
    """Raised when the explicit stepper's running maximum exceeds OVERFLOW_LIMIT."""


def step(slice_: GridFunction) -> GridFunction:
    """One explicit Euler step with dt = 1/n: ``slice + (1/n) d_xx(slice)``.

    The forced-zero rows of ``d_xx`` give the boundary behaviour: the value
    at the top index is carried unchanged, and the row below it sees the
    one-sided difference.
    """
    return slice_ + (1.0 / slice_.params.n) * d_xx(slice_)


def evolve(g: GridFunction, steps: int) -> list[GridFunction]:
    """The slices ``0 .. steps`` of :func:`step` iterated from boundary data ``g``; slice 0 is ``g``.

    All ``steps + 1`` slices are kept, which suits the short validation runs
    the stepper is for.  A slice whose max modulus exceeds ``OVERFLOW_LIMIT``
    raises :class:`EvolutionOverflowError` with the offending step index.
    """
    params = g.params
    if not 0 <= steps <= params.time_count - 1:
        raise ValueError(f"steps must lie in [0, {params.time_count - 1}], got {steps}")
    slices = [g]
    for i in range(1, steps + 1):
        nxt = step(slices[-1])
        m = nxt.max_abs()
        if not np.isfinite(m) or m > OVERFLOW_LIMIT:
            raise EvolutionOverflowError(
                f"explicit step {i}: max modulus {m:.3e} exceeds "
                f"{OVERFLOW_LIMIT:.0e}; the scheme amplifies by up to 1+4n "
                f"per step (n={params.n}) and is meant for short validation runs"
            )
        slices.append(nxt)
    return slices


def propagator(n: int, ks: np.ndarray) -> np.ndarray:
    """Per-frequency growth factor ``1 + psi(k/n)^2 / n`` of one explicit step, at indices ``ks``.

    After ``m`` steps a frequency is multiplied by ``growth^m``.  The
    arithmetic is that of :func:`spectral_symbols`, so on the full grid
    (``ks = params.space_indices()``) the values are bit-identical to
    ``1 + spectral_symbols(params).values**2 / n``.
    """
    return 1.0 + _psi(ks / n, n) ** 2 / n


def stability_radius(n: int) -> float:
    """Largest grid ``|x|`` such that ``|growth| <= 1`` for all grid points up to it.

    ``|growth(x)| <= 1`` holds exactly for ``2 n sin^2(theta/2) <= cos(theta)``
    with ``theta = pi x / n``, that is ``cos(theta) >= n/(n+1)``, so the edge
    index is ``floor(n^2 arccos(n/(n+1)) / pi)``; its neighbours are then
    checked against the inequality itself, as evaluated in floats.  The
    radius is ``sqrt(2n)/pi`` up to an O(1/n) correction (the closed-form
    radius overshoots the discrete band edge by a couple of grid points).
    """
    nn = n * n

    def stable(k: int) -> bool:
        theta = np.pi * k / nn
        return bool(2.0 * n * np.sin(theta / 2.0) ** 2 <= np.cos(theta))

    # the stable set is an interval around 0 (k = 0 is in it): step to its last index
    k_edge = int(nn * math.acos(n / (n + 1)) / math.pi)
    while k_edge + 1 < nn and stable(k_edge + 1):
        k_edge += 1
    while not stable(k_edge):
        k_edge -= 1
    return k_edge / n


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
    growth = propagator(params.n, params.space_indices())
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


class Window:
    """Value-1/2 indicator of the frequency band ``|k| <= floor(radius * n)``.

    The 1/2 compensates the transform pair's round-trip constant 2.  The
    one window rule is ``0 < radius <= n``.  Below ``n`` the band holds
    exactly ``2 floor(radius n) + 1`` frequencies, symmetric about 0; at
    ``n`` it is the whole grid.  The window is kept as its band
    (:meth:`band_indices`); the weight is applied where the band is used.
    """

    def __init__(self, params: GridParams, radius: float) -> None:
        if not 0 < radius <= params.n:
            raise ValueError(f"need 0 < omega_prime <= n, got {radius}")
        self.params = params
        self.radius = float(radius)
        self.cutoff = int(math.floor(self.radius * params.n))

    def band_indices(self) -> np.ndarray:
        """The frequency indices carrying weight 1/2 (clipped to the grid)."""
        hi = min(self.cutoff, self.params.n**2 - 1)
        return np.arange(-self.cutoff, hi + 1)


def _windowed_symbol(window: Window, t: float) -> GridFunction:
    """``window * growth^{floor(nt)}``, the powers taken on the band as :func:`solve` takes them."""
    params = window.params
    ks = window.band_indices()
    q = np.zeros(params.space_count, dtype=np.complex128)
    q[ks + params.n**2] = _coefficients(params, propagator(params.n, ks), 1.0, (t,))[:, 0]
    return GridFunction(params, q)


def kernel_slice(window: Window, t: float) -> GridFunction:
    """The discrete heat kernel over all grid offsets: ``inverse(window * growth^m)``."""
    return inverse(_windowed_symbol(window, t))


def _queries(n: int, times: Sequence[float], xs: Sequence[float]
             ) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """``times`` and ``xs`` as float tuples, once they pass the rules of every query.

    There must be at least one time and one point, each time must lie in
    ``(0, n)`` and each point must be finite.
    """
    if not len(times):
        raise ValueError("need at least one query time")
    for t in times:
        if not 0.0 < t < n:
            raise ValueError(f"query times must lie in (0, n); got t={t}")
    if not len(xs):
        raise ValueError("need at least one query point")
    for x in xs:
        if not math.isfinite(x):
            raise ValueError(f"query points must be finite; got x={x}")
    return tuple(map(float, times)), tuple(map(float, xs))


def kernel(window: Window, times: Sequence[float], zs: Sequence[float]) -> SolveResult:
    """Kernel table ``u[i, j]`` at ``times[i]`` and offsets ``xs[j] = zs[j]``.

    The solve's query stage with coefficients ``0.5 growth^{floor(n t)}`` on
    the band: a chirp-z transform for a uniform ``zs``, direct summation
    otherwise.  Mass over offsets is exactly 1 (the round-trip constant 2
    against the window's 1/2); Hermitian symmetry of the band makes the
    values real, so the imaginary part is rounding.  ``max_growth`` is the
    largest ``|growth|`` in the band; above 1 it is warned about as in
    :func:`solve`.  ``times`` and ``zs`` obey the rules of :class:`SolveConfig`.
    Overflow in the powers leaves non-finite values for
    :meth:`SolveResult.first_non_finite` to report.
    """
    params = window.params
    times, zs = _queries(params.n, times, zs)
    ks = window.band_indices()
    growth = propagator(params.n, ks)
    gmax = _check_band_stability(params.n, window.radius, growth)
    u = _table(params, ks, growth, 1.0, times, np.asarray(zs))
    return SolveResult(times, zs, u, max_growth=gmax)


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
        Window(params, self.omega_prime)  # validates omega_prime
        times, xs = _queries(self.n, self.times, self.xs)
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "xs", xs)

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

    For real boundary data the answer is ``u.real`` and ``u.imag`` is
    rounding; for complex data ``u.imag`` is the imaginary half of the
    answer.  Both are kept.
    """

    times: tuple[float, ...]
    xs: tuple[float, ...]
    u: np.ndarray
    regime_flag: bool = False
    max_growth: float = 0.0   # max |growth| over the frequency band

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
    hi = int(math.ceil(config.omega * n))  # exclusive; omega < n keeps both inside the grid
    js = np.arange(lo, hi)
    vals = np.asarray(config.boundary(js / n), dtype=np.complex128)
    if vals.shape != js.shape:
        raise ValueError("boundary callable must return one value per sample point")
    if not np.isfinite(vals).all():
        raise ValueError("boundary data contains non-finite values")
    return js, vals


def _squares(m: np.ndarray) -> np.ndarray:
    """``m^2`` in int64 for integers ``m``, each ``|m|`` at most ``isqrt(2^63 - 1)``."""
    if max(-int(m.min()), int(m.max())) > _MAX_CHIRP_INDEX:
        raise ValueError(f"chirp index beyond {_MAX_CHIRP_INDEX}: its square overflows int64")
    return m * m


def _chirp(m: np.ndarray, n: int) -> np.ndarray:
    """``exp(-i pi m^2 / (2 n^2))`` for integers ``m`` (see :func:`_squares`).

    The phase has period ``4 n^2`` in ``m^2``, reduced in exact integers
    before ``exp``: floating-point ``m^2`` would lose it.
    """
    period = 4 * n * n
    # every square is below 2^63 - 1 (itself no square), so a longer period leaves it as it is
    residue = _squares(m) % min(period, 2**63 - 1)
    return np.exp(-2j * np.pi * (residue / float(period)))


def _rate_chirp(m: np.ndarray, rate: float) -> np.ndarray:
    """``exp(2 pi i rate m^2)`` for integers ``m`` (see :func:`_squares`), reduced mod 1.

    ``rate`` splits into two halves of at most 26 significant bits
    (Veltkamp) and ``m^2`` into 26-bit parts, so every partial product, and
    its fractional part, is exact in float64; only the sum of the fractions
    rounds.  Floating-point ``rate * m^2`` would lose the phase in
    proportion to its size.
    """
    split = 134217729.0 * rate                            # 2^27 + 1
    rate_hi = split - (split - rate)
    sq = _squares(m)
    sq_parts = [((sq >> s) & (2**26 - 1)).astype(np.float64) * 2.0**s for s in (0, 26, 52)]
    turns = sum(np.modf(r * q)[0] for r in (rate_hi, rate - rate_hi) for q in sq_parts)
    return np.exp(2j * np.pi * (turns - np.round(turns)))


def _bluestein(
    vals: np.ndarray, ins: np.ndarray, outs: np.ndarray, chirp: Callable[[np.ndarray], np.ndarray]
) -> np.ndarray:
    """``chirp(p) sum_q vals[..., q] chirp(q) conj(chirp(p - q))`` for each ``p`` in ``outs``.

    ``ins`` indexes the last axis of ``vals``; ``ins`` and ``outs`` are
    contiguous ascending integer ranges, and leading axes are batched.  The
    sum is a linear convolution over every difference ``d = p - q``, done by
    one FFT convolution in O((Q + P) log(Q + P)) (Bluestein's chirp-z).
    """
    Q, P = ins.size, outs.size
    d0, d1 = outs[0] - ins[-1], outs[-1] - ins[0]              # Q + P - 1 differences
    size = 1 << (Q + P - 2).bit_length()                       # >= Q + P - 1: no wrap-around
    # one chirp over the hull of all three ranges (ins may stick out of the
    # differences, e.g. for a one-frequency band), sliced three times
    lo = min(ins[0], outs[0], d0)
    c = chirp(np.arange(lo, max(ins[-1], outs[-1], d1) + 1))
    a = np.fft.fft(vals * c[ins[0] - lo : ins[-1] - lo + 1], size)
    b = np.fft.fft(np.conj(c[d0 - lo : d1 - lo + 1]), size)
    return c[outs[0] - lo : outs[-1] - lo + 1] * np.fft.ifft(a * b)[..., Q - 1 : Q - 1 + P]


def _restricted_forward(js: np.ndarray, vals: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """``(1/n) sum_j vals_j e^{-i pi j k / n^2}`` for each k (Bluestein chirp-z).

    ``js`` and ``ks`` are contiguous ascending integer ranges.  With
    ``jk = (j^2 + k^2 - (k-j)^2) / 2`` the sum is a chirp-z transform with
    the exactly reduced chirp ``exp(-i pi m^2 / (2 n^2))``.  Overflow is
    left in the result as inf or NaN, as in :func:`_table`.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        return _bluestein(vals, js, ks, lambda m: _chirp(m, n)) / n


def _uniform_step(xs: np.ndarray) -> float | None:
    """The step ``h`` when ``xs`` is an arithmetic progression of at least
    ``_MIN_CHIRP_POINTS`` points, else ``None``.

    Every point must lie within 4 ulps of ``max|x|`` of ``xs[0] + j h``, with
    ``h = (xs[-1] - xs[0]) / (J - 1)``; ``lo:hi:count`` query sets do.
    """
    J = xs.size
    if J < _MIN_CHIRP_POINTS:
        return None
    h = (xs[-1] - xs[0]) / (J - 1)
    tol = 4.0 * np.spacing(np.abs(xs).max())
    return float(h) if np.abs(xs - (xs[0] + np.arange(J) * h)).max() <= tol else None


def _chirp_query(
    coeffs: np.ndarray, ks: np.ndarray, xs: np.ndarray, h: float, n: int
) -> np.ndarray:
    """``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}`` on the uniform set ``xs``.

    Points are taken as ``x_j = xs[c] + (j - c) h`` about the middle index
    ``c``, so that ``e^{i pi x_j k / n} = e^{i pi xs[c] k / n} e^{i pi h (j - c) k / n}``;
    the second factor is a chirp-z transform of rate ``pi h / (2n)`` over the
    band, done for all times at once.  Centring keeps ``|j - c - k|`` small.
    """
    c = (xs.size - 1) // 2
    ps = np.arange(-c, xs.size - c)
    vals = coeffs.T * np.exp(1j * np.pi * (ks / n) * xs[c])
    rate = math.fmod(h, 2 * n) / (4 * n)                 # the factor has period 2n in h
    return _bluestein(vals, ks, ps, lambda m: _rate_chirp(m, rate)) / n


def _matrix_query(coeffs: np.ndarray, ks: np.ndarray, xs: np.ndarray, n: int) -> np.ndarray:
    """``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}`` at any points ``xs``.

    Each band index is written ``k = ks[0] + a B + b`` with ``0 <= b < B =
    ceil(sqrt(|ks|))``, so ``e^{i pi x k / n} = e^{i pi x (ks[0] + a B) / n}
    e^{i pi x b / n}``.  A block of points then needs ``A + B`` exponentials
    per point, one matrix product of the fine factors against the
    zero-padded coefficients (all coarse indices ``a`` and times at once),
    and one reduction over ``a`` with the coarse factors.
    """
    T = coeffs.shape[1]
    B = math.isqrt(ks.size - 1) + 1
    A = -(-ks.size // B)
    padded = np.pad(coeffs, ((0, A * B - ks.size), (0, 0)))      # row a B + b: k = ks[0] + a B + b
    table = padded.reshape(A, B, T).transpose(1, 0, 2).reshape(B, A * T)      # [b, a T + t]
    fine, coarse = np.arange(B) / n, (ks[0] + B * np.arange(A)) / n
    u = np.empty((T, xs.size), dtype=np.complex128)
    rows = max(1, _QUERY_BLOCK_ENTRIES // (A * T + B))
    for s in range(0, xs.size, rows):
        x = xs[s : s + rows]
        partial = (np.exp(1j * np.pi * np.outer(x, fine)) @ table).reshape(x.size, A, T)
        u[:, s : s + rows] = np.einsum("pa,pat->tp", np.exp(1j * np.pi * np.outer(x, coarse)),
                                       partial) / n
    return u


def _coefficients(params: GridParams, growth: np.ndarray, ghat: np.ndarray | float,
                  times: Sequence[float]) -> np.ndarray:
    """``0.5 ghat_k growth_k^{floor(n t_i)}``, one column per time ``t_i`` in ``[0, n)``.

    The powers come from one complex logarithm, ``growth^m = e^{m Re L}
    e^{i m Im L}`` with ``L = log growth``, which stays closer to the exact
    power than ``growth ** m`` or ``log|growth|`` and the angle taken apart.
    ``L`` lives only here, so the query stage does not hold it.
    """
    log_growth = np.log(growth)
    coeffs = np.empty((growth.size, len(times)), dtype=np.complex128)
    for i, t in enumerate(times):
        if not 0.0 <= t < params.n:
            raise ValueError(f"time {t} outside [0, n) for n={params.n}")
        m = math.floor(params.n * t)
        power = np.exp(m * log_growth.real) * np.exp(1j * (m * log_growth.imag))
        coeffs[:, i] = 0.5 * ghat * power
    return coeffs


def _table(params: GridParams, ks: np.ndarray, growth: np.ndarray, ghat: np.ndarray | float,
           times: Sequence[float], xs: np.ndarray) -> np.ndarray:
    """``u[i, j] = (1/n) sum_k 0.5 ghat_k growth_k^{floor(n t_i)} e^{i pi x_j k / n}``.

    A uniform ``xs`` (at least ``_MIN_CHIRP_POINTS`` points in arithmetic
    progression, as ``lo:hi:count`` gives) takes a chirp-z transform,
    O((|xs| + |ks|) log); any other set takes the factored direct sum of
    :func:`_matrix_query`, O(|xs| |ks| |times|).  Overflow in the powers is
    left in the table as inf or NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        coeffs = _coefficients(params, growth, ghat, times)
        h = _uniform_step(xs)
        if h is None:
            return _matrix_query(coeffs, ks, xs, params.n)
        return _chirp_query(coeffs, ks, xs, h, params.n)


def _check_band_stability(n: int, omega_prime: float, growth_band: np.ndarray) -> float:
    """Warn when ``|growth|`` exceeds 1 inside the window; return its maximum."""
    gmax = float(np.abs(growth_band).max())
    if gmax > 1.0 + 1e-12:
        warnings.warn(
            f"|growth| reaches {gmax:.6g} inside the frequency window "
            f"(omega_prime={omega_prime}, n={n}); powers will grow",
            RuntimeWarning,
            stacklevel=3,
        )
    return gmax


def solve(config: SolveConfig) -> SolveResult:
    """Windowed spectral solution at the query points.

    Pipeline: sample and truncate the boundary data to ``[-omega, omega)``;
    forward-transform onto the window band only (chirp-z); multiply by the
    window and ``growth^{floor(nt)}``, one column per time; inverse-transform
    at the query points, all times together (chirp-z for a uniform set,
    O((|xs| + omega' n) log); direct summation otherwise, O(|xs| omega' n |times|)).
    Memory is O(omega n + |xs|); no array spans the full 2n^2 grid.
    Overflow in the powers is left to :meth:`SolveResult.first_non_finite`
    to report.
    """
    params = config.params
    js, gvals = _truncated_samples(config)
    ks = Window(params, config.omega_prime).band_indices()
    ghat = _restricted_forward(js, gvals, ks, config.n)

    growth = propagator(config.n, ks)
    gmax = _check_band_stability(config.n, config.omega_prime, growth)
    u = _table(params, ks, growth, ghat, config.times, np.asarray(config.xs, dtype=float))
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
    gmax = _check_band_stability(config.n, config.omega_prime,
                                 propagator(config.n, window.band_indices()))

    positions = [params.position(int(math.floor(config.n * x))) for x in config.xs]
    u = np.empty((len(config.times), len(config.xs)), dtype=np.complex128)
    for i, t in enumerate(config.times):
        conv = convolve(kernel_slice(window, t), g)
        u[i, :] = conv.values[positions]
    return SolveResult(config.times, config.xs, u, config.regime_flag, gmax)
