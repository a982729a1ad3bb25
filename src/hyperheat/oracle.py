"""Classical Gaussian-kernel reference solution and the scalars behind the rate estimates.

Everything here is deliberately independent of the discrete solver: the
classical solution is evaluated by adaptive quadrature of the heat kernel
(the tests pin the Gaussian's closed form to that quadrature), and the
rate estimates are scalar sequences and sums.  Together they are
the yardstick the grid pipeline is measured against.

The quadrature works on columns: :func:`classical_column` integrates every
query point of one time in a single adaptive pass, split at the data's
breakpoints (support edges and jumps) and at the query points, so that no
compact support or narrow kernel can slip between the quadrature nodes.

The bounds and brackets of the rate estimates, and the verdicts on them,
are in :func:`hyperheat.checks.rate_verdicts`.

``scipy.integrate`` is imported at the first quadrature, not with the
package, so a caller that never integrates never loads scipy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "GrowthCertificate",
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
class GrowthCertificate:
    """Bound ``|g(y)| <= scale * exp(rate * |y|**exponent)`` with exponent < 2.

    Exponent strictly below 2 is what lets the heat kernel dominate the
    data at infinity, so quadrature windows can be truncated safely.
    """

    scale: float
    rate: float
    exponent: float

    def __post_init__(self) -> None:
        if not self.exponent < 2:
            raise ValueError("growth certificate requires exponent < 2")

    def bound(self, y) -> np.ndarray:
        return self.scale * np.exp(self.rate * np.abs(y) ** self.exponent)


@dataclass(frozen=True)
class BoundaryCondition:
    """Initial data ``g`` with a growth certificate and optional closed form.

    Builtin kinds: ``gaussian`` / ``bump`` are continuous; ``indicator`` and
    ``sampled`` are piecewise constant and sit outside the continuity
    hypotheses of the classical theory -- supported for experimentation,
    excluded from convergence guarantees.

    ``breakpoints`` are the points where ``g`` or a derivative jumps (support
    edges, steps); the quadrature oracle starts its subdivision there.
    """

    kind: str
    fn: Callable[[np.ndarray], np.ndarray]
    certificate: GrowthCertificate
    label: str
    closed_form_fn: Callable[[float, np.ndarray], np.ndarray] | None = None
    breakpoints: tuple[float, ...] = ()

    def __call__(self, y) -> np.ndarray:
        return np.asarray(self.fn(np.asarray(y, dtype=float)), dtype=np.complex128)

    @property
    def has_closed_form(self) -> bool:
        return self.closed_form_fn is not None

    def closed_form(self, t: float, x):
        """Closed-form classical solution at ``x`` (a scalar or an array).

        A plain evaluation of the formula: it integrates nothing.  The tests
        pin it to :func:`classical_column` at 1e-9 absolute.
        """
        if self.closed_form_fn is None:
            raise ValueError(f"boundary kind {self.kind!r} has no closed-form solution")
        return self.closed_form_fn(t, x)


def gaussian(a: float = 1.0, b: float = 1.0) -> BoundaryCondition:
    """``g(y) = a exp(-b y^2)`` with the exact solution known in closed form."""
    if not (math.isfinite(a) and 0 < b < math.inf):
        raise ValueError(f"gaussian needs a finite a and a finite b > 0, got {a},{b}")

    def fn(y: np.ndarray) -> np.ndarray:
        return a * np.exp(-b * y * y)

    def closed(t: float, x) -> np.ndarray:
        s = 1.0 + 4.0 * b * t
        x = np.asarray(x, dtype=float)
        return (a / math.sqrt(s) * np.exp(-b * x * x / s)).astype(np.complex128)

    return BoundaryCondition(
        "gaussian", fn, GrowthCertificate(abs(a), 0.0, 1.0), f"gaussian({a},{b})", closed
    )


def indicator(lo: float, hi: float) -> BoundaryCondition:
    """``g = 1`` on ``[lo, hi)``, 0 elsewhere (piecewise constant)."""
    if not lo < hi:
        raise ValueError("indicator needs lo < hi")

    def fn(y: np.ndarray) -> np.ndarray:
        return np.where((y >= lo) & (y < hi), 1.0, 0.0)

    return BoundaryCondition("indicator", fn, GrowthCertificate(1.0, 0.0, 1.0), f"indicator({lo},{hi})",
                             breakpoints=(lo, hi))


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

    return BoundaryCondition("bump", fn, GrowthCertificate(1.0, 0.0, 1.0), f"bump({center},{width})",
                             breakpoints=(center - width, center + width))


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

    return BoundaryCondition(
        "sampled", fn, GrowthCertificate(float(np.abs(vs).max()), 0.0, 1.0),
        f"sampled({xs.size} pts)", breakpoints=tuple(mids.tolist())
    )


def _integration_halfwidth(g: BoundaryCondition, t: float, x: float) -> float:
    """Window half-width where kernel times the growth certificate drops below 1e-14."""
    L = max(10.0 * math.sqrt(t), 1.0)
    for _ in range(200):
        tail = math.exp(-L * L / (4.0 * t)) * float(g.certificate.bound(abs(x) + L))
        if tail < _NEGLIGIBLE:
            return L
        L *= 1.5
    raise RuntimeError("could not find an integration window (certificate too weak?)")


def classical_column(g: BoundaryCondition, t: float, xs) -> np.ndarray:
    """Heat-kernel convolution ``(4 pi t)^{-1/2} int exp(-(x-y)^2/4t) g(y) dy`` at every ``x`` in ``xs``.

    One vector-valued adaptive quadrature (Gauss-Kronrod bisection, max
    norm over the real and imaginary parts of all points) to absolute
    tolerance 1e-10.  The window is the hull of the points widened by the
    half-width of the largest ``|x|``: the certificate grows with ``|y|``,
    so the kernel dominates the data beyond it for every point.  The
    subdivision starts at the boundary's breakpoints inside the window and
    at the query points.
    """
    from scipy.integrate import quad_vec
    if t <= 0:
        raise ValueError(f"classical solution defined for t > 0, got t={t}")
    xs = np.asarray(xs, dtype=float)
    L = _integration_halfwidth(g, t, float(np.abs(xs).max()))
    lo, hi = float(xs.min()) - L, float(xs.max()) + L
    # The query points split the window too, with no gap between them longer
    # than L: a narrow kernel then peaks at an interval edge, next to a node.
    q = np.unique(xs)
    fill = [np.linspace(a, b, int(np.ceil((b - a) / L)), endpoint=False)[1:]
            for a, b in zip(q[:-1], q[1:])]
    inside = [p for p in g.breakpoints if lo < p < hi]
    points = np.unique(np.concatenate([q, *fill, inside])).tolist()

    def kernel_times_data(y: float) -> np.ndarray:
        val = g(y).item()
        k = np.exp(-np.square(xs - y) / (4.0 * t))
        return np.concatenate((k * val.real, k * val.imag))

    # workers=map is the serial path without importing multiprocessing (an int would)
    res, err = quad_vec(kernel_times_data, lo, hi, epsabs=_QUAD_ABS_TOL, epsrel=1e-12,
                        norm="max", limit=400 + len(points), points=points, workers=map)
    if err > 1e-6:
        raise RuntimeError(f"quadrature did not converge (err={err:.2e})")
    return (res[:xs.size] + 1j * res[xs.size:]) / math.sqrt(4.0 * math.pi * t)


def classical_solution(g: BoundaryCondition, t: float, x: float) -> complex:
    """:func:`classical_column` at the single point ``x``."""
    return complex(classical_column(g, t, [x])[0])


def gaussian_heat_kernel(t: float, z):
    """The classical kernel ``(4 pi t)^{-1/2} exp(-z^2 / 4t)`` at ``z`` (a scalar or an array)."""
    if t <= 0:
        raise ValueError("kernel defined for t > 0")
    z = np.asarray(z, dtype=float)
    return np.exp(-z * z / (4.0 * t)) / math.sqrt(4.0 * math.pi * t)


def gaussian_transform_identity(t: float, z: float) -> float:
    """Residual of ``int exp(i pi w z - pi^2 t w^2) dw = (pi t)^{-1/2} exp(-z^2/4t)``.

    The left side is evaluated by quadrature (real and imaginary parts
    separately; the imaginary part integrates to ~0 by oddness).
    """
    from scipy.integrate import quad
    if t <= 0:
        raise ValueError("identity holds for t > 0")
    L = math.sqrt(40.0 / (math.pi**2 * t))
    re, _ = quad(lambda w: math.exp(-math.pi**2 * t * w * w) * math.cos(math.pi * w * z),
                 -L, L, epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=400)
    im, _ = quad(lambda w: math.exp(-math.pi**2 * t * w * w) * math.sin(math.pi * w * z),
                 -L, L, epsabs=_QUAD_ABS_TOL, epsrel=1e-12, limit=400)
    target = math.exp(-z * z / (4.0 * t)) / math.sqrt(math.pi * t)
    return abs(complex(re, im) - target)


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
