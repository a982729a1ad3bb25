import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hyperheat
from hyperheat import GridFunction, GridParams


def fresh_env() -> dict:
    """Environment of a new interpreter that imports this ``hyperheat`` and prints every warning."""
    src = str(Path(hyperheat.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONWARNINGS="default",
                PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run_fresh(code: str) -> str:
    """Standard output of ``code`` run in a new interpreter (see :func:`fresh_env`)."""
    proc = subprocess.run([sys.executable, "-c", code], env=fresh_env(),
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


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


def reference_query(xs: np.ndarray, ks: np.ndarray, coeffs: np.ndarray, n: int) -> np.ndarray:
    """Independent direct sum ``u[i, j] = (1/n) sum_k coeffs[k, i] e^{i pi x_j k / n}``.

    One np.sum per point, no shared query matrix.
    """
    out = np.empty((coeffs.shape[1], xs.size), dtype=np.complex128)
    for j, x in enumerate(xs):
        out[:, j] = np.sum(coeffs * np.exp(1j * np.pi * x * ks / n)[:, None], axis=0) / n
    return out
