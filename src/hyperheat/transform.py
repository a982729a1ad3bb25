r"""Half-frequency discrete Fourier pair, difference symbol and boundary corrections.

The transform pair on the grid of ``M = 2 n^2`` points is

.. math::

    \hat f(k/n)   = \frac1n \sum_j f(j/n)\, e^{-i\pi jk/n^2}, \qquad
    \check f(k/n) = \frac1n \sum_j f(j/n)\, e^{+i\pi jk/n^2},

i.e. an ordinary DFT of period ``M`` up to an index shift, but carrying the
``1/n`` integration weight on *both* directions.  The round trip therefore
multiplies by exactly 2 rather than 1:

    ``inverse(forward(f)) == forward(inverse(f)) == 2 f``.

Because space differences are forward differences with a forced zero at the
top index (no periodic wrap), transforming them picks up boundary terms.
Summation by parts gives the exact identities

    ``forward(d_x(f))  == psi * forward(f)  - e``
    ``forward(d_xx(f)) == psi^2 * forward(f) - f_corr``

where ``psi(x) = n (e^{i\pi x/n} - 1)`` is the symbol of the forward
difference and ``e``, ``f_corr`` collect the values of the slice (and of its
first difference) at the three affected indices ``-n^2``, ``-n^2 + 1`` and
``n^2 - 1``.  These identities hold to rounding error at every finite ``n``;
:func:`hyperheat.checks.derivative_ratio` measures the residual.

Both directions are evaluated by one FFT of period ``M``; the test-suite pins
them to an independent per-frequency direct sum.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction, GridParams, d_x

__all__ = [
    "forward",
    "inverse",
    "spectral_symbols",
    "BoundaryCorrections",
    "boundary_corrections",
]

@lru_cache(maxsize=8)
def _half_period_signs(n: int) -> np.ndarray:
    """``(-1)^k`` for k = -n^2..n^2-1 (phase from shifting the DFT origin)."""
    k = np.arange(-n * n, n * n)
    return np.where(k % 2 == 0, 1.0, -1.0)


def _transform(f: GridFunction, sign: int) -> GridFunction:
    # Index shift j -> j + n^2 turns the kernel into a plain DFT of
    # period M = 2 n^2, at the price of the (-1)^k prefactor.
    n = f.params.n
    M = f.params.space_count
    if sign < 0:
        spec = np.fft.fft(f.values)
    else:
        spec = M * np.fft.ifft(f.values)
    k = np.arange(-n * n, n * n)
    return GridFunction(f.params, (_half_period_signs(n) * spec[k % M]) / n)


def forward(f: GridFunction) -> GridFunction:
    """Transform with kernel ``e^{-i pi x y}`` and weight ``1/n``."""
    return _transform(f, -1)


def inverse(f: GridFunction) -> GridFunction:
    """Transform with kernel ``e^{+i pi x y}``; ``inverse(forward(f)) == 2 f``."""
    return _transform(f, +1)


def _psi(x: np.ndarray, n: int) -> np.ndarray:
    """``psi(x) = n (e^{i pi x/n} - 1)`` at the frequencies ``x``."""
    return n * (np.exp(1j * np.pi * x / n) - 1.0)


@lru_cache(maxsize=8)
def spectral_symbols(params: GridParams) -> GridFunction:
    """The forward-difference symbol ``psi`` on the frequency grid.

    ``psi(0) = 0`` and ``|psi(x)| = 2 n |sin(pi x / 2n)| <= 2n``; the
    backward-difference symbol ``n (e^{-i pi x/n} - 1)`` is ``conj(psi)``,
    bit for bit.
    """
    return GridFunction(params, _psi(params.space_points(), params.n))


@dataclass(frozen=True)
class BoundaryCorrections:
    """Frequency-side boundary terms of the difference-transform identities.

    ``e`` enters the ``d_x`` identity and ``f_corr`` the ``d_xx`` identity.
    Both are built from three scalars of the source slice: its value at the
    bottom index ``-n^2``, its value at the top index ``n^2 - 1``, and its
    forward difference at the bottom index.  A slice vanishing at space
    indices ``{-n^2, -n^2+1, n^2-1}`` therefore has both corrections == 0.
    """

    e: GridFunction
    f_corr: GridFunction


def boundary_corrections(slice_: GridFunction) -> BoundaryCorrections:
    """Evaluate both correction functions on the full frequency grid."""
    params = slice_.params
    n = params.n
    psi = spectral_symbols(params).values
    phi = np.conj(psi)                              # backward-difference symbol

    f_top = slice_.values[-1]                       # value at (n^2-1)/n
    f_bot = slice_.values[0]                        # value at -n
    df_bot = d_x(slice_).values[0]                  # forward difference at -n

    k = params.space_indices()
    # e^{-i pi ((n^2-1)/n) x} and e^{-i pi (-n) x} at frequency x = k/n; the
    # latter collapses to (-1)^k on the grid.
    exp_top = np.exp(-1j * np.pi * (n * n - 1) * k / (n * n))
    exp_bot = _half_period_signs(n).astype(np.complex128)
    exp_cell = np.exp(1j * np.pi * k / (n * n))     # e^{+i pi x / n}

    c = f_top * exp_top - f_bot * exp_bot
    d = -(1.0 / n) * f_bot * exp_cell * exp_bot
    c_prime = -df_bot * exp_bot
    d_prime = -(1.0 / n) * df_bot * exp_cell * exp_bot
    e = phi * d - c
    f_corr = psi * phi * d - psi * c + phi * d_prime - c_prime
    return BoundaryCorrections(GridFunction(params, e), GridFunction(params, f_corr))
