import numpy as np
import pytest

from hyperheat import GridFunction, GridParams


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_grid_function(params: GridParams, rng, real=False) -> GridFunction:
    M = params.space_count
    v = rng.standard_normal(M)
    if not real:
        v = v + 1j * rng.standard_normal(M)
    return GridFunction(params, v)


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


def reference_restricted_forward(js: np.ndarray, vals: np.ndarray, ks: np.ndarray, n: int) -> np.ndarray:
    """Independent direct band sum ``(1/n) sum_j vals_j e^{-i pi j k / n^2}``: per-frequency np.sum."""
    out = np.empty(ks.size, dtype=np.complex128)
    for p, k in enumerate(ks):
        out[p] = np.sum(vals * np.exp(-1j * np.pi * js * k / (n * n))) / n
    return out
