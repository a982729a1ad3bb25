"""Classical Gaussian-kernel reference solution and the scalars behind the rate estimates.

Everything here is deliberately independent of the discrete solver: the
classical solution is evaluated by adaptive quadrature of the heat kernel
(the tests pin the Gaussian's closed form to that quadrature), and the
rate estimates are scalar sequences and sums.  Together they are
the yardstick the grid pipeline is measured against.

The quadrature works on columns: :func:`classical_column` integrates every
query point of one time in a single adaptive pass, split at the data's
breakpoints (support edges, jumps, the Gaussian's peak) and at the query
points, so that no compact support, narrow peak or narrow kernel can slip
between the quadrature nodes.  The pass is :func:`_integrate`, a numpy
Gauss-Kronrod bisection that evaluates a whole level of intervals in
blocks; nothing here loads scipy.

The bounds and brackets of the rate estimates, and the verdicts on them,
are in :func:`hyperheat.checks.rate_verdicts`.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "BoundaryCondition",
    "gaussian",
    "indicator",
    "bump",
    "sampled",
    "classical_solution",
    "classical_column",
    "gaussian_heat_kernel",
    "gaussian_transform_identity",
    "difference_symbol",
    "compound_growth",
    "gaussian_symbol_approx",
    "difference_symbol_residual",
    "gaussian_symbol_residual",
    "tail_bound_check",
    "lattice_error",
]

_QUAD_ABS_TOL = 1e-10
_NEGLIGIBLE = 1e-14


@dataclass(frozen=True)
class BoundaryCondition:
    """Initial data ``g``, its bound ``sup|g|``, and an optional closed form.

    Builtin kinds: ``gaussian`` / ``bump`` are continuous; ``indicator`` and
    ``sampled`` are piecewise constant and sit outside the continuity
    hypotheses of the classical theory -- supported for experimentation,
    excluded from convergence guarantees.

    ``bound`` is ``sup|g|``: it sizes the quadrature window, outside which
    the kernel times ``bound`` is below 1e-14.  ``breakpoints`` are the
    points where the quadrature oracle starts its subdivision: where ``g``
    or a derivative jumps (support edges, steps), and peaks narrow enough
    to slip between the nodes of a wide interval.
    """

    fn: Callable[[np.ndarray], np.ndarray]
    bound: float
    label: str
    closed_form_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=np.complex128)

    def closed_form(self, t: float, x):
        """Closed-form classical solution at ``x`` (a scalar or an array).

        A plain evaluation of the formula: it integrates nothing.  The tests
        pin it to :func:`classical_column` at 1e-9 absolute.
        """
        if self.closed_form_fn is None:
            raise ValueError(f"boundary {self.label} has no closed-form solution")
        return self.closed_form_fn(t, x)


def gaussian(a: float = 1.0, b: float = 1.0) -> BoundaryCondition:
    """``g(y) = a exp(-b y^2)`` with the exact solution known in closed form."""
    if not (math.isfinite(a) and 0 < b < math.inf):
        raise ValueError(f"gaussian needs a finite a and a finite b > 0, got {a},{b}")

    def fn(y: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore"):            # a large b y^2 overflows, and the value is 0
            return a * np.exp(-b * y * y)

    def closed(t: float, x) -> np.ndarray:
        s = 1.0 + 4.0 * b * t
        x = np.asarray(x, dtype=float)
        with np.errstate(over="ignore"):            # a far x: x^2 overflows, and the value is 0
            if math.isinf(s):                       # 4bt overflows: divide through by b
                r = 1.0 / b + 4.0 * t
                return (a * math.sqrt(1.0 / b) / math.sqrt(r) * np.exp(-x * x / r)).astype(np.complex128)
            return (a / math.sqrt(s) * np.exp(-b * x * x / s)).astype(np.complex128)

    # the peak is a breakpoint: data too narrow for the nodes cannot slip between them
    return BoundaryCondition(fn, abs(a), f"gaussian({a},{b})", closed, (0.0,))


def indicator(lo: float, hi: float) -> BoundaryCondition:
    """``g = 1`` on ``[lo, hi)``, 0 elsewhere (piecewise constant)."""
    if not lo < hi:
        raise ValueError("indicator needs lo < hi")

    def fn(y: np.ndarray) -> np.ndarray:
        return np.where((y >= lo) & (y < hi), 1.0, 0.0)

    return BoundaryCondition(fn, 1.0, f"indicator({lo},{hi})", breakpoints=(lo, hi))


def bump(center: float = 0.0, width: float = 1.0) -> BoundaryCondition:
    """Smooth compactly supported mollifier, value 1 at ``center``, 0 outside ``|y-center| >= width``."""
    if not (math.isfinite(center) and 0 < width < math.inf):
        raise ValueError(f"bump needs a finite center and a finite width > 0, got {center},{width}")

    def fn(y: np.ndarray) -> np.ndarray:
        u = (np.atleast_1d(np.asarray(y, dtype=float)) - center) / width
        out = np.zeros_like(u)
        inside = np.abs(u) < 1.0
        out[inside] = np.exp(1.0 - 1.0 / (1.0 - u[inside] ** 2))
        return out if np.ndim(y) else out[0]

    return BoundaryCondition(fn, 1.0, f"bump({center},{width})", breakpoints=(center - width, center + width))


def sampled(points: Sequence[tuple[float, complex]]) -> BoundaryCondition:
    """Piecewise-constant data: each query takes the value of the nearest sample, the left one on a tie."""
    if not points:
        raise ValueError("sampled boundary needs at least one point")
    xs = np.array([float(x) for x, _ in points])
    vs = np.array([complex(v) for _, v in points], dtype=np.complex128)
    finite = np.isfinite(xs) & np.isfinite(vs)
    if not finite.all():
        i = int(np.argmin(finite))
        raise ValueError(f"sampled boundary needs finite samples, got x={xs[i]}, value={vs[i]}")
    order = np.argsort(xs)
    xs, vs = xs[order], vs[order]
    repeated = xs[1:][xs[1:] == xs[:-1]]
    if repeated.size:
        raise ValueError(f"sampled boundary needs distinct x, got x={repeated[0]} more than once")
    mids = (xs[:-1] + xs[1:]) / 2

    def fn(y) -> np.ndarray:
        return vs[np.searchsorted(mids, y)]

    return BoundaryCondition(fn, float(np.abs(vs).max()), f"sampled({xs.size} pts)",
                             breakpoints=tuple(mids.tolist()))


def _integration_halfwidth(bound: float, t: float) -> float:
    """Window half-width where the kernel times ``bound`` drops below 1e-14."""
    L = max(10.0 * math.sqrt(t), 1.0)
    for _ in range(200):
        if math.exp(-L * L / (4.0 * t)) * bound < _NEGLIGIBLE:
            return L
        L *= 1.5
    raise RuntimeError(f"could not find an integration window for data bounded by {bound!r}")


# The Gauss-Kronrod 21-point rule on [-1, 1] (Kronrod 1965; QUADPACK's qk21),
# from -1 to the middle: the nodes, the Kronrod weights, and the weights of
# the embedded 10-point Gauss rule, whose nodes are every second Kronrod node.
# (numpy.polynomial.legendre.leggauss has these weights too; the table keeps
# that import off the commands that never integrate.)
_GK21_HALF = np.array((0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
                       0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
                       0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
                       0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
                       0.294392862701460198131126603103866, 0.148874338981631210884826001129720,
                       0.0))
_KRONROD_HALF = np.array((0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
                          0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
                          0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
                          0.123491976262065851077958109831074, 0.134709217311473325928054001771707,
                          0.142775938577060080797094273138717, 0.147739104901338491374841515972068,
                          0.149445554002916905664936468389821))
_GAUSS_HALF = (0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
               0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
               0.295524224714752870173892994651338)
_GK21_NODES = np.concatenate([-_GK21_HALF, _GK21_HALF[-2::-1]])
_KRONROD_W = np.concatenate([_KRONROD_HALF, _KRONROD_HALF[-2::-1]])
_GAUSS_W = np.zeros(21)
_GAUSS_W[1::2] = [*_GAUSS_HALF, *reversed(_GAUSS_HALF)]
# Columns: the Kronrod estimate, and its difference from the Gauss estimate.
_GK21_RULES = np.stack([_KRONROD_W, _KRONROD_W - _GAUSS_W], axis=1)

# The tolerance is the larger of _QUAD_ABS_TOL and _QUAD_REL_TOL times the
# largest part of the integral; an interval within its rounding (_ROUNDING
# times its integral of |kernel data|) is accepted too, and a result whose
# accepted estimates sum to more than _REFUSAL times the tolerance (1e-6 up
# to an integral of 100, relative above it) is refused.
_QUAD_REL_TOL = 1e-12
_ROUNDING = 50 * np.finfo(float).eps
_REFUSAL = 1e4
# Kernel values evaluated at once, and intervals halved before the rest are
# taken as they are: _MAX_HALVED plus 64 per starting interval (the tests'
# columns halve at most about 60 in all).
_BLOCK_ENTRIES = 2**18
_MAX_HALVED = 10_000


def _integrate(kernel: Callable[[np.ndarray], np.ndarray], data: Callable[[np.ndarray], np.ndarray],
               edges: np.ndarray, size: int, scale: float = 1.0) -> np.ndarray:
    """``int kernel(y) data(y) dy / scale`` over ``[edges[0], edges[-1]]``, ``size`` values at once.

    For nodes ``y`` of shape ``(I, 21)``, ``kernel(y)`` is real, non-negative
    and of shape ``(I, size, 21)``, and ``data(y)`` complex of shape
    ``(I, 21)``.  Gauss-Kronrod 21-point bisection, level by level, from the
    intervals between ``edges``.  An interval's error estimate is its
    Kronrod minus its Gauss value, in the max norm over the real and
    imaginary parts of all ``size`` values.  It is accepted when that is at
    most its length's share of the tolerance, or at most its rounding
    estimate; the others are halved for the next level.  The tolerance is
    1e-10 on the first level, and from the second the larger of that and
    1e-12 times the largest part of the first level's total.  Short of the
    cap, the accepted estimates thus sum to at most the tolerance, plus
    rounding.  The integrand is evaluated in blocks of about
    ``_BLOCK_ENTRIES`` values, and only interval edges pass between levels.
    Once more than the cap of intervals have been halved, the level's
    rejected intervals are taken as they are.  Raises ``RuntimeError`` on a
    non-finite value or estimate, or when the accepted estimates sum to more
    than 1e4 times the tolerance.  The rules see ``data / scale``, so data
    of size ``scale`` cannot overflow their sums; the tolerance and the
    error in the message stay in the units of ``data``.
    """
    a, b = edges[:-1], edges[1:]
    abs_tol = _QUAD_ABS_TOL / scale
    tol, window = abs_tol, edges[-1] - edges[0]
    cap = _MAX_HALVED + 64 * a.size
    step = max(1, _BLOCK_ENTRIES // (21 * size))
    total = np.zeros(size, dtype=np.complex128)
    spent, halved = 0.0, 0
    while a.size:
        share, rejected = tol / window, []
        # the Kronrod values and the estimates of the intervals this level rejects
        open_total, open_err = np.zeros(size, dtype=np.complex128), 0.0
        for s in range(0, a.size, step):
            lo, hi = a[s:s + step], b[s:s + step]
            h = (hi - lo) / 2
            y = (lo + h)[:, None] + h[:, None] * _GK21_NODES
            with np.errstate(over="ignore", invalid="ignore"):   # checked just below
                d, k = data(y) / scale, kernel(y)
                # the data times the two rules, as real columns: (I, 21, 4)
                weighted = (d[..., None] * _GK21_RULES).view(np.float64)
                sums = np.matmul(k, weighted) * h[:, None, None]
            if not np.isfinite(sums).all():
                raise RuntimeError("quadrature did not converge (non-finite integrand)")
            err = np.abs(sums[..., 2:]).max(axis=(1, 2))
            ok = err <= share * (hi - lo)
            # halving cannot shrink an estimate that is already within its rounding
            rest = np.flatnonzero(~ok)
            if rest.size:
                magnitude = np.matmul(k[rest], (np.abs(d[rest]) * _KRONROD_W)[..., None]).max(axis=(1, 2))
                ok[rest] = err[rest] <= _ROUNDING * h[rest] * magnitude
            total += sums[ok, :, :2].sum(axis=0).view(np.complex128)[:, 0]
            open_total += sums[~ok, :, :2].sum(axis=0).view(np.complex128)[:, 0]
            spent, open_err = spent + err[ok].sum(), open_err + err[~ok].sum()
            rejected.append(s + np.flatnonzero(~ok))
        bad = np.concatenate(rejected)
        if not halved:      # after the first level
            first_level = (total + open_total).view(np.float64)
            tol = max(abs_tol, _QUAD_REL_TOL * float(np.abs(first_level).max()))
        halved += bad.size
        if halved > cap:    # take the rejected intervals as they are
            total, spent = total + open_total, spent + open_err
            break
        mid = (a[bad] + b[bad]) / 2
        a, b = np.concatenate([a[bad], mid]), np.concatenate([mid, b[bad]])
    if spent > _REFUSAL * tol:
        raise RuntimeError(f"quadrature did not converge (err={spent * scale:.2e})")
    return total


def _sorted_distinct(values: np.ndarray) -> np.ndarray:
    """The sorted values, each once: ``np.unique`` without its first-call import of ``numpy.ma``."""
    values = np.sort(values)
    return np.concatenate((values[:1], values[1:][values[1:] != values[:-1]]))


def classical_column(g: BoundaryCondition, t: float, xs) -> np.ndarray:
    """Heat-kernel convolution ``(4 pi t)^{-1/2} int exp(-(x-y)^2/4t) g(y) dy`` at every ``x`` in ``xs``.

    One vector-valued pass of :func:`_integrate` (Gauss-Kronrod bisection,
    max norm over the real and imaginary parts of all points) to 1e-10
    absolute, or 1e-12 relative to a larger integral.  The window is the
    hull of the points widened by the half-width at which ``g.bound`` times
    the kernel falls below 1e-14.  The subdivision starts at the boundary's
    breakpoints inside the window and at the query points.  The rules see
    ``g / g.bound``, so data up to the largest float integrates; data
    bounded by 0 has the column 0.
    """
    if t <= 0:
        raise ValueError(f"classical solution defined for t > 0, got t={t}")
    xs = np.asarray(xs, dtype=float)
    if g.bound == 0:
        return np.zeros(xs.size, dtype=np.complex128)
    L = _integration_halfwidth(g.bound, t)
    lo, hi = float(xs.min()) - L, float(xs.max()) + L
    # The query points split the window too, with no gap between them longer
    # than L: a narrow kernel then peaks at an interval edge, next to a node.
    q = _sorted_distinct(xs)
    fill = [np.linspace(a, b, int(np.ceil((b - a) / L)), endpoint=False)[1:]
            for a, b in zip(q[:-1], q[1:])]
    inside = [p for p in g.breakpoints if lo < p < hi]
    edges = _sorted_distinct(np.concatenate([[lo, hi], q, *fill, inside]))

    def kernel(y: np.ndarray) -> np.ndarray:
        d = xs[:, None] - y[:, None, :]
        np.square(d, out=d)
        np.divide(d, -4.0 * t, out=d)
        return np.exp(d, out=d)

    return _integrate(kernel, g, edges, xs.size, g.bound) / math.sqrt(4.0 * math.pi * t) * g.bound


def classical_solution(g: BoundaryCondition, t: float, x: float) -> complex:
    """:func:`classical_column` at the single point ``x``."""
    return complex(classical_column(g, t, [x])[0])


def gaussian_heat_kernel(t: float, z):
    """The classical kernel ``(4 pi t)^{-1/2} exp(-z^2 / 4t)`` at ``z`` (a scalar or an array)."""
    if t <= 0:
        raise ValueError("kernel defined for t > 0")
    z = np.asarray(z, dtype=float)
    with np.errstate(over="ignore"):                # a far z: z^2 overflows, and the value is 0
        return np.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def gaussian_transform_identity(t: float, z: float) -> float:
    """Residual of ``int exp(i pi w z - pi^2 t w^2) dw = (pi t)^{-1/2} exp(-z^2/4t)``.

    The left side is evaluated by quadrature, real and imaginary parts in one
    pass of :func:`_integrate` (the imaginary part integrates to ~0 by oddness).
    """
    if t <= 0:
        raise ValueError("identity holds for t > 0")
    L = math.sqrt(40.0 / (math.pi**2 * t))
    left = _integrate(lambda w: np.exp(-math.pi**2 * t * w * w)[:, None, :],
                      lambda w: np.exp(1j * math.pi * w * z), np.array([-L, L]), 1)
    target = math.exp(-z * z / (4.0 * t)) / math.sqrt(math.pi * t)
    return abs(complex(left[0]) - target)


# -- scalar sequences behind the propagator's Gaussian limit ----------------


def difference_symbol(n: int, y) -> complex:
    """``n (exp(i pi y / n) - 1)`` -- the forward-difference symbol; -> i pi y."""
    return n * (np.exp(1j * np.pi * np.asarray(y) / n) - 1.0)


def compound_growth(n: int, w) -> complex:
    """``(1 + w/n)^n`` -> ``exp(w)`` (principal branch for complex w)."""
    return (1.0 + np.asarray(w) / n) ** n


def gaussian_symbol_approx(n: int, y) -> complex:
    """``compound_growth(n, difference_symbol(n,y)^2)`` -> ``exp(-pi^2 y^2)``."""
    return compound_growth(n, difference_symbol(n, y) ** 2)


def difference_symbol_residual(n: int) -> complex:
    """``difference_symbol(n, 1) - i pi``; decays like 1/n, bounded by pi^2 e^pi / n."""
    return complex(difference_symbol(n, 1.0) - 1j * np.pi)


def gaussian_symbol_residual(n: int, y: float) -> complex:
    """``gaussian_symbol_approx(n, y) - exp(-pi^2 y^2)``; O(1/n) at fixed y."""
    return complex(gaussian_symbol_approx(n, y) - math.exp(-math.pi**2 * y * y))


def tail_bound_check(t: float, threshold: float, n: int) -> tuple[float, float]:
    """Both sides of the grid Gaussian tail bound at cut ``|x| >= threshold``.

    Left: ``(1/n) sum_{|k| >= j} exp(-pi^2 t (k/n)^2)`` with ``j = round(threshold n)``.
    Right: ``(1/(pi sqrt(t))) exp(-pi^2 t ((j-1)/n)^2)``, valid once
    ``(j-1)/n >= 1/(pi sqrt(t))`` (raises below that).
    """
    if t <= 0:
        raise ValueError("tail bound needs t > 0")
    j = int(round(threshold * n))
    if (j - 1) / n < 1.0 / (math.pi * math.sqrt(t)):
        raise ValueError(
            f"threshold too small: need (j-1)/n >= 1/(pi sqrt(t)) = "
            f"{1.0 / (math.pi * math.sqrt(t)):.4f}, got {(j - 1) / n:.4f}"
        )
    k = np.arange(-n * n, n * n)
    x = k / n
    left = float(np.sum(np.exp(-math.pi**2 * t * x * x)[np.abs(k) >= j]) / n)
    right = math.exp(-math.pi**2 * t * ((j - 1) / n) ** 2) / (math.pi * math.sqrt(t))
    return left, right


def lattice_error(t: float, z: float, n: int) -> float:
    """Error of the grid transform of the Gaussian symbol against its closed form.

    Computes ``(1/n) sum_k exp(-pi^2 t (k/n)^2 + i pi (k/n) z)`` over the
    grid and returns its distance from ``(pi t)^{-1/2} exp(-z^2/4t)``.

    The grid sum is a full-lattice trapezoidal rule of an analytic, rapidly
    decaying integrand, so its true error is O(exp(-(n - z/2)^2 / t)) -- far
    below double precision for any usable n.  What it returns is then
    rounding noise at the floor (~1e-16), with no measurable decay order.
    """
    if t <= 0:
        raise ValueError("needs t > 0")
    target = math.exp(-z * z / (4.0 * t)) / math.sqrt(math.pi * t)
    k = np.arange(-n * n, n * n)
    x = k / n
    s = np.sum(np.exp(-math.pi**2 * t * x * x) * np.exp(1j * math.pi * x * z)) / n
    return abs(complex(s) - target)
