r"""Half-frequency discrete Fourier pair and its exact difference identities.

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
:func:`check_dx_identity` / :func:`check_dxx_identity` measure the residual.

Two evaluation paths are provided: dense kernel summation (the reference,
used for n <= 16) and an FFT specialisation (production).  They agree to
~1e-13 and the test-suite pins that agreement.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .grid import GridFunction, GridParams, d_x

__all__ = [
    "forward",
    "inverse",
    "SpectralSymbols",
    "spectral_symbols",
    "BoundaryCorrections",
    "boundary_corrections",
    "check_dx_identity",
    "check_dxx_identity",
]

# Largest n routed to the dense-kernel path by default; beyond this the
# M x M kernel matrix (M = 2 n^2) stops being cheap to build.
_DIRECT_LIMIT = 16


@lru_cache(maxsize=8)
def _kernel_matrix(n: int, sign: int) -> np.ndarray:
    """Dense transform kernel ``exp(sign * i pi j k / n^2)``, j,k = -n^2..n^2-1."""
    idx = np.arange(-n * n, n * n)
    return np.exp(sign * 1j * np.pi * np.outer(idx, idx) / (n * n))


@lru_cache(maxsize=8)
def _half_period_signs(n: int) -> np.ndarray:
    """``(-1)^k`` for k = -n^2..n^2-1 (phase from shifting the DFT origin)."""
    k = np.arange(-n * n, n * n)
    return np.where(k % 2 == 0, 1.0, -1.0)


def _transform(f: GridFunction, sign: int, method: str) -> GridFunction:
    n = f.params.n
    if method == "auto":
        method = "direct" if n <= _DIRECT_LIMIT else "fft"
    if method == "direct":
        out = (_kernel_matrix(n, sign) @ f.values) / n
    elif method == "fft":
        # Index shift j -> j + n^2 turns the kernel into a plain DFT of
        # period M = 2 n^2, at the price of the (-1)^k prefactor.
        M = f.params.space_count
        if sign < 0:
            spec = np.fft.fft(f.values)
        else:
            spec = M * np.fft.ifft(f.values)
        k = np.arange(-n * n, n * n)
        out = (_half_period_signs(n) * spec[k % M]) / n
    else:
        raise ValueError(f"unknown transform method {method!r}")
    return GridFunction(f.params, out)


def forward(f: GridFunction, method: str = "auto") -> GridFunction:
    """Transform with kernel ``e^{-i pi x y}`` and weight ``1/n``."""
    return _transform(f, -1, method)


def inverse(f: GridFunction, method: str = "auto") -> GridFunction:
    """Transform with kernel ``e^{+i pi x y}``; ``inverse(forward(f)) == 2 f``."""
    return _transform(f, +1, method)


@dataclass(frozen=True)
class SpectralSymbols:
    """Symbols of the forward difference on the frequency grid.

    ``psi(x) = n (e^{+i pi x/n} - 1)`` and ``phi(x) = n (e^{-i pi x/n} - 1)``;
    on the (real) grid ``phi = conj(psi)``, ``psi(0) = 0`` and
    ``|psi(x)| = 2 n |sin(pi x / 2n)| <= 2n``.
    """

    params: GridParams
    psi: GridFunction
    phi: GridFunction


def _psi(x: np.ndarray, n: int) -> np.ndarray:
    """``psi(x) = n (e^{i pi x/n} - 1)`` at the frequencies ``x``."""
    return n * (np.exp(1j * np.pi * x / n) - 1.0)


@lru_cache(maxsize=8)
def spectral_symbols(params: GridParams) -> SpectralSymbols:
    n = params.n
    x = params.space_points()
    psi = _psi(x, n)
    phi = n * (np.exp(-1j * np.pi * x / n) - 1.0)
    return SpectralSymbols(params, GridFunction(params, psi), GridFunction(params, phi))


@dataclass(frozen=True)
class BoundaryCorrections:
    """Frequency-side boundary terms of the difference-transform identities.

    All seven are built from three scalars of the source slice: its value at
    the bottom index ``-n^2``, its value at the top index ``n^2 - 1``, and
    its forward difference at the bottom index.  A slice vanishing at space
    indices ``{-n^2, -n^2+1, n^2-1}`` therefore has all corrections == 0.
    """

    c: GridFunction
    d: GridFunction
    c_prime: GridFunction
    d_prime: GridFunction
    e: GridFunction
    e_prime: GridFunction
    f_corr: GridFunction


def boundary_corrections(slice_: GridFunction) -> BoundaryCorrections:
    """Evaluate all seven correction functions on the full frequency grid."""
    params = slice_.params
    n = params.n
    sym = spectral_symbols(params)
    psi, phi = sym.psi.values, sym.phi.values

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
    e_prime = phi * d_prime - c_prime
    f_corr = psi * phi * d - psi * c + phi * d_prime - c_prime

    g = lambda a: GridFunction(params, a)
    return BoundaryCorrections(g(c), g(d), g(c_prime), g(d_prime), g(e), g(e_prime), g(f_corr))


def check_dx_identity(slice_: GridFunction, method: str = "auto") -> float:
    """Max-abs residual of ``forward(d_x f) - (psi * forward(f) - e)``.

    Exact up to rounding: stays below ``1e-9 * (1 + n * max|f|)`` for n <= 8.
    """
    sym = spectral_symbols(slice_.params)
    corr = boundary_corrections(slice_)
    lhs = forward(d_x(slice_), method=method)
    rhs = sym.psi * forward(slice_, method=method) - corr.e
    return float(np.abs(lhs.values - rhs.values).max())


def check_dxx_identity(slice_: GridFunction, method: str = "auto") -> float:
    """Max-abs residual of ``forward(d_xx f) - (psi^2 * forward(f) - f_corr)``."""
    from .grid import d_xx

    sym = spectral_symbols(slice_.params)
    corr = boundary_corrections(slice_)
    lhs = forward(d_xx(slice_), method=method)
    rhs = sym.psi * sym.psi * forward(slice_, method=method) - corr.f_corr
    return float(np.abs(lhs.values - rhs.values).max())
