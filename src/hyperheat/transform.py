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
them to an independent per-frequency direct sum.  The transforms and the
boundary corrections act on the last axis, so a stacked
:class:`~hyperheat.grid.GridFunction` of shape ``(..., M)`` is transformed
slice by slice in one batched FFT call, with the same result as each slice
on its own.
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
def _half_shift_signs(params: GridParams) -> np.ndarray:
    """``(-1)^k`` at the frequency indices ``k = -n^2 .. n^2 - 1``, read-only.

    It is ``e^{-i pi (-n) x}`` at the frequencies ``x = k/n``.  The values
    are ``-1 + 0j`` and ``1 + 0j``: a product with a complex value casts a
    real ``-1.0`` or ``1.0`` to these, so the complex type saves the cast
    and changes no bit.
    """
    signs = np.where(params.space_indices() % 2, -1.0 + 0j, 1.0 + 0j)
    signs.setflags(write=False)
    return signs


def _transform(f: GridFunction, sign: int) -> GridFunction:
    # Index shift j -> j + n^2 turns the kernel into a plain DFT of
    # period M = 2 n^2, at the price of the (-1)^k prefactor.  Frequency k
    # sits at DFT position k mod M: k < 0 in the top half, k >= 0 in the
    # bottom half, so the reorder is a rotation by h = n^2.
    p = f.params
    M, h = p.space_count, p.n * p.n
    spec = np.fft.fft(f.values, axis=-1) if sign < 0 else M * np.fft.ifft(f.values, axis=-1)
    out = np.concatenate((spec[..., h:], spec[..., :h]), axis=-1)
    np.multiply(_half_shift_signs(p), out, out=out)     # signs first: NaN bits follow operand order
    out /= p.n
    return GridFunction(p, out)


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
    Both are built from three scalars of each source slice: its value at the
    bottom index ``-n^2``, its value at the top index ``n^2 - 1``, and its
    forward difference at the bottom index.  A slice vanishing at space
    indices ``{-n^2, -n^2+1, n^2-1}`` therefore has both corrections == 0.
    """

    e: GridFunction
    f_corr: GridFunction


@lru_cache(maxsize=8)
def _boundary_phases(params: GridParams) -> tuple[np.ndarray, np.ndarray]:
    """``e^{-i pi ((n^2-1)/n) x}`` and ``e^{+i pi x / n}`` at the frequencies ``x = k/n``, read-only.

    With :func:`_half_shift_signs`, the phases of :func:`boundary_corrections`.
    """
    n = params.n
    k = params.space_indices()
    exp_top = np.exp(-1j * np.pi * (n * n - 1) * k / (n * n))
    exp_cell = np.exp(1j * np.pi * k / (n * n))
    exp_top.setflags(write=False)
    exp_cell.setflags(write=False)
    return exp_top, exp_cell


def boundary_corrections(slice_: GridFunction) -> BoundaryCorrections:
    """Evaluate both correction functions on the full frequency grid, per slice of a stack."""
    params = slice_.params
    n = params.n
    psi = spectral_symbols(params).values
    phi = np.conj(psi)                              # backward-difference symbol

    # one column per slice, broadcast against the frequency grid
    f_top = slice_.values[..., -1:]                 # value at (n^2-1)/n
    f_bot = slice_.values[..., :1]                  # value at -n
    df_bot = d_x(slice_).values[..., :1]            # forward difference at -n

    exp_top, exp_cell = _boundary_phases(params)
    exp_bot = _half_shift_signs(params)
    c = f_top * exp_top - f_bot * exp_bot
    d = -(1.0 / n) * f_bot * exp_cell * exp_bot
    c_prime = -df_bot * exp_bot
    d_prime = -(1.0 / n) * df_bot * exp_cell * exp_bot
    e = phi * d - c
    f_corr = psi * phi * d - psi * c + phi * d_prime - c_prime
    return BoundaryCorrections(GridFunction(params, e), GridFunction(params, f_corr))
