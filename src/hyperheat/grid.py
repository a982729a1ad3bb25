"""Uniform space/time grids, grid functions, and forward-difference calculus.

The computational domain is controlled by a single integer parameter ``n``:

* space is the 2n^2 points ``j/n`` for ``j = -n^2 .. n^2 - 1`` (covering
  ``[-n, n)`` with spacing ``1/n``),
* time is the n^2 points ``i/n`` for ``i = 0 .. n^2 - 1`` (covering ``[0, n)``),
* integration is the ``1/n``-weighted sum over all space points.

A value stored at index ``j`` represents the constant value of a step
function on the cell ``[j/n, (j+1)/n)``.  All derivatives are forward
differences with the value at the topmost index forced to zero, which is
what makes the summation-by-parts identities in :mod:`hyperheat.transform`
exact rather than approximate.

A grid function holds one slice, or a stack of slices on the same grid with
values of shape ``(..., 2n^2)``.  The space differences act on the last
axis, so a stack goes through the same code as one slice.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

__all__ = [
    "GridParams",
    "GridFunction",
    "integrate",
    "d_x",
    "d_xx",
    "d_t",
]


@dataclass(frozen=True)
class GridParams:
    """Grid parameter ``n`` and the index ranges/spacings derived from it.

    Attributes
    ----------
    n : int
        Positive integer grid parameter.  Space resolution, time resolution
        and the integration weight are all ``1/n``.
    """

    n: int

    def __post_init__(self) -> None:
        if not isinstance(self.n, (int, np.integer)) or self.n < 1:
            raise ValueError(f"grid parameter must be a positive integer, got {self.n!r}")

    @property
    def space_count(self) -> int:
        """Number of space points, ``2 n^2``."""
        return 2 * self.n * self.n

    @property
    def time_count(self) -> int:
        """Number of time points, ``n^2``."""
        return self.n * self.n

    @property
    def dx(self) -> float:
        """Grid spacing ``1/n`` (also the time step and integration weight)."""
        return 1.0 / self.n

    def space_indices(self) -> np.ndarray:
        """Integer space indices ``j = -n^2 .. n^2 - 1``."""
        return np.arange(-self.n * self.n, self.n * self.n)

    def space_points(self) -> np.ndarray:
        """Space coordinates ``j/n``, covering ``[-n, n)``."""
        return self.space_indices() / self.n

    def position(self, j: int) -> int:
        """Array position of space index ``j`` (stored order is ascending ``j``)."""
        p = int(j) + self.n * self.n
        if not 0 <= p < self.space_count:
            raise IndexError(f"space index {j} outside [-n^2, n^2-1] for n={self.n}")
        return p


class GridFunction:
    """A complex-valued function on one time slice of the space grid, or a stack of them.

    The values have shape ``(2n^2,)`` for one slice and ``(..., 2n^2)`` for
    a stack; the space index is always the last axis.  Pointwise algebra
    broadcasts as numpy does.

    Immutable: the value buffer is write-protected after construction and
    every operation returns a fresh instance.
    """

    __slots__ = ("params", "_values")

    def __init__(self, params: GridParams, values: np.ndarray) -> None:
        arr = np.array(values, dtype=np.complex128)    # always a fresh copy, made once
        if arr.ndim == 0 or arr.shape[-1] != params.space_count:
            raise ValueError(
                f"expected {params.space_count} values on the last axis for n={params.n}, "
                f"got shape {arr.shape}"
            )
        arr.setflags(write=False)
        self.params = params
        self._values = arr

    # -- constructors ------------------------------------------------------

    @classmethod
    def zeros(cls, params: GridParams) -> "GridFunction":
        return cls(params, np.zeros(params.space_count, dtype=np.complex128))

    @classmethod
    def delta(cls, params: GridParams, j: int = 0, value: complex = 1.0) -> "GridFunction":
        """Single nonzero value at space index ``j``."""
        v = np.zeros(params.space_count, dtype=np.complex128)
        v[params.position(j)] = value
        return cls(params, v)

    # -- access ------------------------------------------------------------

    @property
    def values(self) -> np.ndarray:
        """Read-only value buffer, last axis in ascending index order ``j = -n^2 .. n^2-1``."""
        return self._values

    def max_abs(self) -> float:
        """Largest modulus over every value, of a whole stack too."""
        return float(np.abs(self._values).max())

    # -- algebra (pointwise) -------------------------------------------------

    def _coerce(self, other) -> np.ndarray | complex:
        if isinstance(other, GridFunction):
            if other.params != self.params:
                raise ValueError("grid mismatch")
            return other._values
        return other

    def __add__(self, other) -> "GridFunction":
        return GridFunction(self.params, self._values + self._coerce(other))

    def __sub__(self, other) -> "GridFunction":
        return GridFunction(self.params, self._values - self._coerce(other))

    def __mul__(self, other) -> "GridFunction":
        return GridFunction(self.params, self._values * self._coerce(other))

    __rmul__ = __mul__

    def __neg__(self) -> "GridFunction":
        return GridFunction(self.params, -self._values)

    def conj(self) -> "GridFunction":
        return GridFunction(self.params, np.conj(self._values))

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"GridFunction(n={self.params.n}, max|f|={self.max_abs():.3g})"


def integrate(f: GridFunction) -> complex:
    """``(1/n) * sum_j f(j/n)`` over all 2n^2 space points of one slice; NaN/Inf propagate."""
    return complex(np.sum(f.values, axis=-1) * f.params.dx)


def d_x(f: GridFunction) -> GridFunction:
    """Forward space difference ``n*(f_{j+1} - f_j)``, zero at the top index.

    The forced zero at ``j = n^2 - 1`` (instead of a wrap-around) is load
    bearing: it is what makes ``integrate(d_x(f))`` telescope exactly to
    ``f_{n^2-1} - f_{-n^2}``.
    """
    v = f.values
    out = np.empty_like(v)
    out[..., :-1] = f.params.n * (v[..., 1:] - v[..., :-1])
    out[..., -1] = 0.0
    return GridFunction(f.params, out)


def d_xx(f: GridFunction) -> GridFunction:
    """Second space difference, defined as the exact composition ``d_x(d_x(f))``.

    Expands to ``n^2 (f_{j+2} - 2 f_{j+1} + f_j)`` for ``j <= n^2 - 3``, to
    ``-n^2 (f_{n^2-1} - f_{n^2-2})`` at ``j = n^2 - 2``, and to 0 at the top
    index, because the inner difference is already forced to zero there.
    """
    return d_x(d_x(f))


def d_t(slices: Sequence[GridFunction], i: int) -> GridFunction:
    """Forward time difference ``n*(f(i+1,.) - f(i,.))`` of ``slices``, zero at index ``n^2 - 1``.

    The solver does not call it.  It stays as the paper's time difference:
    with it, ``tests/test_grid.py`` checks on a delta that one explicit step
    is the discrete heat equation ``d_t u = d_xx u``.
    """
    params = slices[0].params
    if not 0 <= i <= params.time_count - 1:
        raise IndexError(f"time index {i} outside [0, {params.time_count - 1}]")
    if i == params.time_count - 1:
        return GridFunction.zeros(params)
    return GridFunction(params, params.n * (slices[i + 1].values - slices[i].values))
