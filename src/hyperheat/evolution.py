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

Production solving is :func:`solve`, whose docstring is the one
statement of the pipeline; :func:`kernel` is its band stage on data
transforms of 1.  :func:`propagator` gives the growth factor at any set
of frequency indices: the band there, the full grid in :func:`spectral_hat`.

:func:`convolve` is the ``1/n``-weighted circular convolution (period
``2 n^2``); the transform turns it into a pointwise product exactly.
"""

from __future__ import annotations

import math
import threading
import warnings
from collections import OrderedDict
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .grid import GridFunction, GridParams, d_xx
from .transform import _psi, inverse, spectral_symbols

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
]

# Running-magnitude bound for the explicit stepper; see EvolutionOverflowError.
OVERFLOW_LIMIT = 1e100

# Largest chirp index whose square fits in int64.
_MAX_CHIRP_INDEX = math.isqrt(2**63 - 1)

# Complex entries in one block's largest array, 4 MiB: the factored query product's
# (points x coarse x times), or the FFT buffer of the operator's rows (see _operator).
_QUERY_BLOCK_ENTRIES = 1 << 18

# Bytes of plan parts and their keys kept between calls (see _part): 32 MiB.
_PLAN_BUDGET = 32 << 20

# Largest max |growth| in the band taken as stable: above it solve and kernel warn.
_STABLE_GROWTH = 1.0 + 1e-12

_plans: OrderedDict[tuple, tuple | int] = OrderedDict()   # key -> part or count (see _part), LRU first
_plans_lock = threading.Lock()
_plans_bytes = 0        # _nbytes of every entry of _plans, kept by _keep


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
    growth = 1.0 + spectral_symbols(params).values ** 2 / params.n   # propagator on the full grid
    acc = g_hat.values * growth**i
    if corrections_per_step is not None:
        for j in range(i):
            acc = acc - corrections_per_step[j].values * growth ** (i - j - 1) / params.n
    return GridFunction(params, acc)


def convolve(f: GridFunction, g: GridFunction) -> GridFunction:
    """``(f*g)_j = (1/n) sum_k f_{(j-k) mod 2n^2} g_k`` (periodic indices).

    Periodicity with period ``2 n^2`` is exactly the convention under which
    the transform of a convolution factorises; a unit-mass discrete delta
    ``n * delta_0`` is the identity element.  ``f`` and ``g`` are slices or
    stacks of one shape, convolved slice with slice, each by a direct sum
    (not an FFT), with the same result as each pair on its own.
    """
    if f.params != g.params:
        raise ValueError("grid mismatch")
    if f.values.shape != g.values.shape:
        raise ValueError(f"stack shapes differ: {f.values.shape} and {g.values.shape}")
    M = f.params.space_count
    h = M // 2
    lin = np.array([np.convolve(a, b) for a, b in
                    zip(f.values.reshape(-1, M), g.values.reshape(-1, M))])
    circ = lin[:, :M].copy()
    circ[:, : M - 1] += lin[:, M:]
    # positions encode index+n^2, so the folded result is rotated by n^2
    folded = np.concatenate((circ[:, h:], circ[:, :h]), axis=-1)
    return GridFunction(f.params, folded.reshape(f.values.shape) / f.params.n)


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
    q[ks + params.n**2] = 0.5 * _powers(params.n, propagator(params.n, ks), (t,))[:, 0]
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

    :func:`solve` from real data transforms of 1, so the mass over offsets
    is exactly 1 (the round-trip constant 2 against the window's 1/2);
    ``times`` and ``zs`` obey the rules of :class:`SolveConfig`.
    """
    times, zs = _queries(window.params.n, times, zs)
    powers, gmax = _band(window, times)
    ones = np.ones((1, window.cutoff + 1), dtype=np.complex128)
    u = _band_table(window, ones, powers, np.asarray(zs))
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

    For real boundary data with ``omega' < n`` the answer is ``u.real`` and
    ``u.imag`` is exactly 0; for complex data ``u.imag`` is the imaginary
    half of the answer.  At ``omega' = n`` the band's unpaired index
    ``-n^2`` adds a complex term, so ``u.imag`` is not 0 even for real data.
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


def _read_only(value):
    """``value`` as a read-only array; a scalar as it is."""
    if isinstance(value, np.ndarray):
        value.setflags(write=False)
    return value


def _nbytes(key: tuple, entry: tuple | int) -> int:
    """Bytes of the arrays in a part (a count has none) and of the ``bytes`` in its ``key``."""
    arrays = entry if isinstance(entry, tuple) else ()
    return (sum(v.nbytes for v in arrays if isinstance(v, np.ndarray))
            + sum(len(v) for v in key if isinstance(v, bytes)))


def _keep(key: tuple, entry: tuple | int) -> None:
    """Cache ``entry`` under ``key``, in place of any, as the most recently used, and evict the
    least recently used entries until the cache fits ``_PLAN_BUDGET``; hold ``_plans_lock``.

    The cache's bytes are a running total, restarted from 0 when the cache is
    found empty (cleared, or replaced by an empty one)."""
    global _plans_bytes
    if not _plans:
        _plans_bytes = 0
    if key in _plans:
        _plans_bytes -= _nbytes(key, _plans.pop(key))
    _plans[key] = entry
    _plans_bytes += _nbytes(key, entry)
    while _plans_bytes > _PLAN_BUDGET and _plans:
        _plans_bytes -= _nbytes(*_plans.popitem(last=False))


def _part(key: tuple, build: Callable[[], tuple], repeats: int = 0) -> tuple | None:
    """The plan part under ``key``, from the cache shared by all calls or from ``build()``;
    ``None`` for each of the key's first ``repeats`` requests.

    A part is a tuple of read-only arrays (and scalars) that depends only on
    the grid quantities in its key: a chirp-z's chirps and filter, the
    band's growth powers, the query's centring phase or exponentials, the
    samples-to-table operator.  A hit becomes the most recently used.  Each
    of the key's first ``repeats`` requests builds nothing and keeps the
    count of its requests so far as the key's entry (:func:`_keep`).  The
    next builds the part, kept in place of the count when it alone, with
    its key, fits ``_PLAN_BUDGET``; a larger one is used by its call and not
    kept, and its count restarts from 0, as when the budget evicts a count
    or a part, or ``_plans.clear()`` empties the cache.
    """
    with _plans_lock:
        entry = _plans.get(key, 0)
        if isinstance(entry, tuple):
            _plans.move_to_end(key)
            return entry
        if entry < repeats:
            _keep(key, entry + 1)
            return None
    part = tuple(map(_read_only, build()))
    fits = _nbytes(key, part) <= _PLAN_BUDGET
    if fits or repeats:
        with _plans_lock:
            _keep(key, part if fits else 0)
    return part


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


def _fft_length(m: int) -> int:
    """The smallest ``2^a 3^b 5^c 7^d >= m``: numpy's FFT is fast at such lengths."""
    best = 1 << max(m - 1, 0).bit_length()
    p7 = 1
    while p7 < best:
        p5 = p7
        while p5 < best:
            p3 = p5
            while p3 < best:      # the smallest p3 2^a >= m
                best = min(best, p3 << (-(-m // p3) - 1).bit_length())
                p3 *= 3
            p5 *= 5
        p7 *= 7
    return best


def _chirp_part(ins: np.ndarray, outs: np.ndarray,
                chirp: Callable[[np.ndarray], np.ndarray]) -> tuple:
    """The plan part of :func:`_chirp_z` from ``ins`` onto ``outs``: ``chirp`` on each, and the filter.

    ``ins`` and ``outs`` are contiguous ascending integer ranges.  The
    filter is ``conj(chirp(d))`` over every difference ``d = p - q``,
    transformed at the 7-smooth length :func:`_fft_length` of the
    differences, the shortest with no wrap-around.  ``chirp`` is even in
    ``m``, so it is evaluated once at every ``|m|`` of the three ranges.
    """
    diffs = np.arange(outs[0] - ins[-1], outs[-1] - ins[0] + 1)
    ranges = [np.abs(r) for r in (ins, outs, diffs)]
    even = chirp(np.arange(max(int(r.max()) for r in ranges) + 1))
    c_in, c_out, c_diff = (even[r] for r in ranges)
    return c_in, c_out, np.fft.fft(np.conj(c_diff, out=c_diff), _fft_length(diffs.size))


def _chirp_z(part: tuple, vals: np.ndarray) -> np.ndarray:
    """``chirp(p) sum_q vals[..., q] chirp(q) conj(chirp(p - q))`` for each ``p`` in ``outs``.

    ``part`` is :func:`_chirp_part` of ``ins``, ``outs`` and ``chirp``; the
    last axis of ``vals`` runs over ``ins``, and leading axes are batched.
    The sum is a linear convolution over every difference, done by one FFT
    convolution with the part's filter (Bluestein's chirp-z).
    """
    c_in, c_out, filter_hat = part
    a = np.fft.fft(vals * c_in, filter_hat.size)
    a *= filter_hat
    return c_out * np.fft.ifft(a)[..., c_in.size - 1 : c_in.size - 1 + c_out.size]


def _restricted_forward(js: np.ndarray, vals: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """``(1/n) sum_j vals_j e^{-i pi j k / n^2}`` for each k, over the ranges ``js`` and ``ks``.

    With ``jk = (j^2 + k^2 - (k-j)^2) / 2`` the sum is :func:`_chirp_z` with
    the exactly reduced chirp ``exp(-i pi m^2 / (2 n^2))``.  Overflow is
    left in the result as inf or NaN.
    """
    with np.errstate(over="ignore", invalid="ignore"):
        part = _part(("forward", n, int(js[0]), js.size, int(ks[0]), ks.size),
                     lambda: _chirp_part(js, ks, lambda m: _chirp(m, n)))
        return _chirp_z(part, vals) / n


def _query_step(xs: np.ndarray, bands: int) -> float | None:
    """The step ``h`` of :func:`_chirp_query` over ``bands`` band indices, or ``None`` for :func:`_matrix_query`.

    The chirp-z takes an arithmetic progression of ``J >= 2`` points once it
    fills one fine block of the matrix, ``J^2 >= bands``.  Every point must
    lie within 4 ulps of ``max|x|`` of ``xs[0] + j h``, with
    ``h = (xs[-1] - xs[0]) / (J - 1)``; ``lo:hi:count`` query sets do.
    """
    J = xs.size
    if J < 2 or J * J < bands:
        return None
    h = (xs[-1] - xs[0]) / (J - 1)
    tol = 4.0 * np.spacing(np.abs(xs).max())
    return float(h) if np.abs(xs - (xs[0] + np.arange(J) * h)).max() <= tol else None


def _fft_flops(m: int) -> float:
    """The usual count of one complex FFT of length ``m``: ``5 m log2 m`` flops."""
    return 5 * m * math.log2(m)


def _chirp_query(coeffs: np.ndarray, ks: np.ndarray, xs: np.ndarray, h: float, n: int) -> np.ndarray:
    """``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}`` on the uniform set ``xs``.

    Points are taken as ``x_j = xs[c] + (j - c) h`` about the middle index
    ``c``, so that ``e^{i pi x_j k / n} = e^{i pi xs[c] k / n} e^{i pi h (j - c) k / n}``;
    the second factor is :func:`_chirp_z` of rate ``pi h / (2n)`` over the
    band, done for all times at once.  Centring keeps ``|j - c - k|`` small.
    The centring phase is a plan part of its own, beside the chirp-z
    part, which depends only on ``h`` and the number of points.
    """
    c = (xs.size - 1) // 2
    rate = math.fmod(h, 2 * n) / (4 * n)                     # the factor has period 2n in h
    key = ("chirp", n, int(ks[0]), ks.size)
    phase, = _part(key + (xs.tobytes(),), lambda: (np.exp(1j * np.pi * (ks / n) * xs[c]),))
    part = _part(key + (h, xs.size),
                 lambda: _chirp_part(ks, np.arange(-c, xs.size - c), lambda m: _rate_chirp(m, rate)))
    return _chirp_z(part, coeffs.T * phase) / n


def _matrix_query(coeffs: np.ndarray, ks: np.ndarray, xs: np.ndarray, n: int) -> np.ndarray:
    """``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}`` at any points ``xs``.

    Each band index is written ``k = ks[0] + a B + b`` with ``0 <= b < B =
    ceil(sqrt(|ks|))``, so ``e^{i pi x k / n} = e^{i pi x (ks[0] + a B) / n}
    e^{i pi x b / n}``.  A block of points then needs ``A + B`` exponentials
    per point, one matrix product of the fine factors against the
    zero-padded coefficients (all coarse indices ``a`` and times at once),
    and one reduction over ``a`` with the coarse factors.  Each block's
    exponentials are a plan part, so memory stays bounded by the block
    size when the parts are not kept.
    """
    T = coeffs.shape[1]
    B = math.isqrt(ks.size - 1) + 1
    A = -(-ks.size // B)
    padded = np.pad(coeffs, ((0, A * B - ks.size), (0, 0)))      # row a B + b: k = ks[0] + a B + b
    table = padded.reshape(A, B, T).transpose(1, 0, 2).reshape(B, A * T)      # [b, a T + t]
    u = np.empty((T, xs.size), dtype=np.complex128)
    rows = max(1, _QUERY_BLOCK_ENTRIES // (A * T + B))
    for s in range(0, xs.size, rows):
        x = xs[s : s + rows]
        fine, coarse = _part(
            ("matrix", n, int(ks[0]), ks.size, x.tobytes()),
            lambda: (np.exp(1j * np.pi * np.outer(x, np.arange(B) / n)),
                     np.exp(1j * np.pi * np.outer(x, (ks[0] + B * np.arange(A)) / n))))
        partial = (fine @ table).reshape(x.size, A, T)
        u[:, s : s + rows] = np.einsum("pa,pat->tp", coarse, partial) / n
    return u


def _powers(n: int, growth: np.ndarray, times: Sequence[float]) -> np.ndarray:
    """``growth_k^{floor(n t_i)}``, one column per time ``t_i`` in ``[0, n)``.

    The powers come from one complex logarithm,
    ``growth^m = e^{m Re L} e^{i m Im L}`` with ``L = log growth``, which
    stays closer to the exact power than ``growth ** m`` or ``log|growth|``
    and the angle taken apart.
    """
    log_growth = np.log(growth)
    powers = np.empty((growth.size, len(times)), dtype=np.complex128)
    for i, t in enumerate(times):
        if not 0.0 <= t < n:
            raise ValueError(f"time {t} outside [0, n) for n={n}")
        m = math.floor(n * t)
        powers[:, i] = np.exp(m * log_growth.real) * np.exp(1j * (m * log_growth.imag))
    return powers


def _band(window: Window, times: tuple[float, ...]) -> tuple[np.ndarray, float]:
    """The band's growth powers, one column per time, and its max ``|growth|``.

    The warning names the caller of :func:`solve` or :func:`kernel`.
    """
    n = window.params.n

    def build():
        growth = propagator(n, np.arange(window.cutoff + 1))
        return _powers(n, growth, times), float(np.abs(growth).max())

    with np.errstate(over="ignore", invalid="ignore"):
        powers, gmax = _part(("band", n, window.cutoff, times), build)
    if gmax > _STABLE_GROWTH:
        warnings.warn(
            f"|growth| reaches {gmax:.6g} inside the frequency window "
            f"(omega_prime={window.radius}, n={n}); powers will grow",
            RuntimeWarning,
            stacklevel=3,
        )
    return powers, gmax


def _complex(parts: np.ndarray) -> np.ndarray:
    """``parts[0] + 1j parts[1]``, or ``parts[0]`` with an imaginary part of 0 for one part.

    The halves are set apart: ``re + 1j * im`` would turn an infinite
    ``im`` into a NaN real part.
    """
    u = np.zeros(parts.shape[1:], dtype=np.complex128)
    u.real = parts[0]
    if len(parts) > 1:
        u.imag = parts[1]
    return u


def _band_table(window: Window, parts: np.ndarray, powers: np.ndarray, xs: np.ndarray) -> np.ndarray:
    """The table ``u`` of :func:`solve` from the transforms and the band's powers (:func:`_band`).

    ``parts`` holds the transforms, one row per part, on the half band
    ``k = 0..window.cutoff``; each row is one block of columns of the
    query.
    """
    n = window.params.n
    ks = np.arange(window.cutoff + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        unpaired = window.cutoff == n * n
        data = np.zeros((ks.size, 2 if unpaired else len(parts)), dtype=np.complex128)
        data[:, : len(parts)] = 2.0 * parts.T          # the weight 2 of k > 0; k = 0 has weight 1
        data[0] *= 0.5
        if unpaired:                                   # the conjugate term of -n^2
            ghat = np.conj(parts[0, -1] + (1j * parts[1, -1] if len(parts) > 1 else 0))
            data[-1] = ghat, 1j * ghat
        coeffs = (0.5 * data[:, :, None] * powers[:, None, :]).reshape(ks.size, -1)
        h = _query_step(xs, ks.size)
        if h is None:
            sums = _matrix_query(coeffs, ks, xs, n)
        else:
            sums = _chirp_query(coeffs, ks, xs, h, n)
        return _complex(sums.real.reshape(-1, powers.shape[1], xs.size))


def _operator(window: Window, js: np.ndarray, times: tuple[float, ...], xs: np.ndarray,
              powers: np.ndarray, gmax: float) -> np.ndarray | None:
    """The real matrix ``A`` from the samples to the table's cells, or ``None`` for the spectral route.

    Row ``(t, x)`` of ``A`` (row-major over ``times`` and ``xs``) is
    ``(1/n^2) sum_k w_k growth_k^{floor(nt)} e^{i pi x k / n} e^{-i pi j k / n^2}``
    over the half band ``k = 0..K`` at the samples ``j``, real part, with
    ``w_0 = 1/2`` and ``w_k = 1``: ``Re g @ A.T`` is the real part of the
    table, and ``Im g @ A.T`` its imaginary part.  Every row is one
    :func:`_chirp_z` from ``k`` onto ``j`` (the phase ``jk`` is symmetric),
    built in blocks of ``_QUERY_BLOCK_ENTRIES`` entries of FFT buffer, all
    with one chirp-z part that is not kept.

    The operator is never built, and its set holds no cache entry:

    * where ``|growth|`` exceeds ``_STABLE_GROWTH`` in the band, so never at
      ``omega' = n``, where the unpaired index would add a complex term
      (``growth(n^2) = 1 + 4n``);
    * where its ``8 |times| |xs| J`` bytes, ``J`` the sample count, would
      not fit the plan budget beside the band's powers;
    * where its product, 2 flops an entry per part, does not take fewer
      flops than the spectral route's FFTs alone (:func:`_fft_flops` of the
      differences each convolves, which its 7-smooth length only
      lengthens: two for the transform, and two per time for a chirp-z
      query), as for 401 points at two times on ``n = 512``.  This gate
      depends only on the key, so a set with an entry (its operator or
      count, looked up first) skips it.

    Otherwise a row costs at most about one solve, so the operator is a part
    with ``repeats = |times| |xs|`` (:func:`_part`), built on the first solve
    after ``|times| |xs|`` earlier ones of its set (ski rental: as each
    solve after the build is the cheaper, any sequence of solves costs at
    most about twice the cheaper route's in hindsight).
    """
    n, K = window.params.n, window.cutoff
    rows = len(times) * xs.size
    if gmax > _STABLE_GROWTH or powers.nbytes + 8 * rows * js.size > _PLAN_BUDGET:
        return None
    key = ("operator", n, int(js[0]), js.size, K, times, xs.tobytes())
    with _plans_lock:
        seen = key in _plans
    if not seen:
        # each FFT is at least as long as the differences it convolves
        ffts = 2 * _fft_flops(K + js.size)
        if _query_step(xs, K + 1) is not None:
            ffts += 2 * len(times) * _fft_flops(K + xs.size)
        if 2 * rows * js.size >= ffts:
            return None

    def build():
        ks = np.arange(K + 1)
        t_of, x_of = np.divmod(np.arange(rows), xs.size)
        block = max(1, _QUERY_BLOCK_ENTRIES // _fft_length(K + js.size))
        # the operator first: the chirp part built before it raised solve-band's peak RSS by 0.35 MB
        operator = np.empty((rows, js.size))
        part = _chirp_part(ks, js, lambda m: _chirp(m, n))
        for s in range(0, rows, block):
            r = slice(s, s + block)
            vals = powers.T[t_of[r]] * np.exp(1j * np.pi * np.outer(xs[x_of[r]], ks / n))
            vals[:, 0] *= 0.5
            operator[r] = _chirp_z(part, vals / n).real / n
        return (operator,)

    part = _part(key, build, rows)
    return None if part is None else part[0]


def solve(config: SolveConfig) -> SolveResult:
    """Windowed spectral solution at the query points.

    Pipeline: sample the boundary data on ``[-omega, omega)``; transform
    ``Re g`` and, for complex data, ``Im g`` onto the half band ``k = 0..K``,
    ``K = floor(omega' n)``, by one batched chirp-z transform; multiply by
    the window's 1/2 and ``growth^{floor(nt)}``, one column per time and
    part; inverse-transform at the query points, all columns at once,
    keeping real parts: chirp-z, O((|xs| + omega' n) log), for a uniform
    set of ``|xs|^2 >= K + 1`` points (:func:`_query_step`), so at least
    one fine block of the matrix; the factored direct sum,
    O(|xs| omega' n |times|), otherwise.  The band is Hermitian,
    ``growth(-k) = conj(growth(k))``, so for real parts the sum over
    ``-K..K`` is ``Re`` of the sum over ``k >= 0`` with ``k > 0`` weighted
    by 2.  At ``omega' = n`` the band is ``-n^2..n^2 - 1``: the unpaired
    ``-n^2`` takes the transforms at ``k = n^2``, as
    ``e^{-i pi j} = e^{i pi j}``, and its term is the conjugate of a
    ``k = n^2`` term with ``conj(ghat)``, in the real part's columns, and
    ``i conj(ghat)``, in the imaginary part's, real data's too.  Real data
    takes one part, and ``u.imag`` is then exactly 0 below ``omega' = n``.
    Memory is O((omega n + |xs|) |times|) on this route; no array spans
    the full 2n^2 grid.  Everything that does not depend on the data
    (chirps, filter spectra, growth powers, query exponentials) is the
    grid's plan: each part is taken from the cache shared by all calls or
    built and kept there (:func:`_part`), within ``_PLAN_BUDGET`` bytes,
    least recently used out first.  Later solves and :func:`kernel` tables on
    that grid reuse it with the same result bit for bit, up to the
    operator below.  A part larger than the budget is used by its call and
    not kept; a call whose parts together exceed it keeps those that fit,
    evicting other grids' parts.

    All of it but the sampling is linear in the samples and fixed by the
    grid, the window, the times and the points: one real matrix from the
    samples to the table's cells (:func:`_operator`, which also names the
    sets that never take it).  The cache entry under the matrix's key counts
    the set's solves: the first ``|times| |xs|`` take the route above, the
    next builds the matrix in place of the count, at about the cost of one
    solve per cell, and it and every later one (the kept matrix looked up
    before the flop gate) return ``Re g`` and ``Im g`` times it, with no
    FFT.  These tables differ from the route above by rounding, so the last
    bits of a result depend on the earlier calls in the process: evicting
    the count or the matrix (other grids' parts, from any thread, or
    ``_plans.clear()``) restarts the count, and the set takes the route above
    again for its next ``|times| |xs|`` solves, and then the matrix again.

    ``max_growth`` is the largest ``|growth|`` in the band; above 1, outside
    the stability band (:func:`stability_radius`), a ``RuntimeWarning``
    says so on every call, and overflow in the powers is left to
    :meth:`SolveResult.first_non_finite` to report.
    """
    js, gvals = _truncated_samples(config)
    window = Window(config.params, config.omega_prime)
    xs = np.asarray(config.xs, dtype=float)
    powers, gmax = _band(window, config.times)
    rows = np.stack((gvals.real, gvals.imag)) if gvals.imag.any() else gvals.real[None]
    operator = _operator(window, js, config.times, xs, powers, gmax)
    if operator is None:
        parts = _restricted_forward(js, rows, np.arange(window.cutoff + 1), config.n)
        u = _band_table(window, parts, powers, xs)
    else:
        u = _complex((rows @ operator.T).reshape(len(rows), len(config.times), xs.size))
    return SolveResult(config.times, config.xs, u, config.regime_flag, gmax)
