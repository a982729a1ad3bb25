"""Correctness checks for the benchmark's operations.

Every reference here is computed by the benchmark itself, never read from
the program's ``oracle`` or ``abs_err`` columns: the Gaussian closed form
``a/sqrt(1+4bt) exp(-b x^2/(1+4bt))`` and the heat kernel
``(4 pi t)^(-1/2) exp(-z^2/4t)``.  Each check returns the largest absolute
error it saw and raises :class:`CheckError` on a wrong output.
"""

from __future__ import annotations

import csv
import math
from pathlib import Path

import numpy as np

# First-order constants: |error| <= constant * scale / n.  Measured at
# n = 128..512 (omega = 4, omega' = 3): n * err / a stays below 0.40 for
# Gaussians with b <= 1.2 at t in [0.25, 2], and n * err stays below 1.0
# for the kernel at t >= 0.25 over |z| <= 3.  Each constant leaves a factor
# of about two over those figures.
SOLVE_ERROR_CONSTANT = 0.75
KERNEL_ERROR_CONSTANT = 2.0

# Fitted convergence order the converge sweep must show (1.00 at n = 64..256).
ORDER_BRACKET = (0.9, 1.1)

VALIDATE_IDENTITIES = ("inversion", "convolution-theorem", "derivative-transform", "stepper-spectral")


class CheckError(AssertionError):
    """An operation's output is wrong."""


def gaussian_solution(a: float, b: float, t, x):
    """Classical solution for the data ``a exp(-b y^2)``."""
    s = 1.0 + 4.0 * b * np.asarray(t, dtype=float)
    return a / np.sqrt(s) * np.exp(-b * np.asarray(x, dtype=float) ** 2 / s)


def heat_kernel(t, z):
    """Classical heat kernel ``(4 pi t)^(-1/2) exp(-z^2 / 4t)``."""
    t = np.asarray(t, dtype=float)
    return np.exp(-np.asarray(z, dtype=float) ** 2 / (4.0 * t)) / np.sqrt(4.0 * math.pi * t)


def read_csv(path: str | Path) -> tuple[list[str], list[list[str]]]:
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows:
        raise CheckError(f"{path}: empty CSV")
    return rows[0], rows[1:]


def _require_finite(values: np.ndarray, what: str) -> None:
    if not np.isfinite(values).all():
        raise CheckError(f"{what}: {int((~np.isfinite(values)).sum())} non-finite values")


def _require_grid(got: np.ndarray, want: np.ndarray, what: str) -> None:
    if got.shape != want.shape or not np.allclose(got, want, rtol=0.0, atol=1e-12):
        raise CheckError(f"{what}: rows do not match the requested query grid")


def check_gaussian_solve(u: np.ndarray, times, xs, a: float, b: float, n: int) -> float:
    """``u[i, j]`` at ``(times[i], xs[j])`` against the closed form, within the first-order bound."""
    u = np.asarray(u)
    if u.shape != (len(times), len(xs)):
        raise CheckError(f"solve result has shape {u.shape}, want {(len(times), len(xs))}")
    _require_finite(u, "solve result")
    ref = gaussian_solution(a, b, np.asarray(times, dtype=float)[:, None], np.asarray(xs)[None, :])
    err = float(np.abs(u.real - ref).max())
    bound = SOLVE_ERROR_CONSTANT * abs(a) / n
    if err > bound:
        raise CheckError(f"solve error {err:.3e} exceeds the first-order bound {bound:.3e} (n={n})")
    return err


def check_solve_csv(path, times, xs, a: float, b: float, n: int) -> float:
    """A ``hyperheat solve`` CSV: one row per (t, x) in row-major order, checked like a solve result."""
    header, rows = read_csv(path)
    if header[:4] != ["t", "x", "u_re", "u_im_diag"]:
        raise CheckError(f"unexpected solve header {header}")
    table = np.array([[float(v) for v in row[:3]] for row in rows]).reshape(-1, 3)
    tt, xx = np.meshgrid(np.asarray(times, dtype=float), np.asarray(xs, dtype=float), indexing="ij")
    _require_grid(table[:, 0], tt.ravel(), "solve CSV t column")
    _require_grid(table[:, 1], xx.ravel(), "solve CSV x column")
    return check_gaussian_solve(table[:, 2].reshape(tt.shape), times, xs, a, b, n)


def check_kernel_csv(path, times, zs, n: int) -> float:
    """A ``hyperheat kernel`` table against the classical heat kernel, within the first-order bound."""
    header, rows = read_csv(path)
    if header[:3] != ["t", "z", "kernel_re"]:
        raise CheckError(f"unexpected kernel header {header}")
    table = np.array([[float(v) for v in row[:3]] for row in rows]).reshape(-1, 3)
    tt, zz = np.meshgrid(np.asarray(times, dtype=float), np.asarray(zs, dtype=float), indexing="ij")
    _require_grid(table[:, 0], tt.ravel(), "kernel CSV t column")
    _require_grid(table[:, 1], zz.ravel(), "kernel CSV z column")
    _require_finite(table[:, 2], "kernel values")
    err = float(np.abs(table[:, 2] - heat_kernel(tt.ravel(), zz.ravel())).max())
    bound = KERNEL_ERROR_CONSTANT / n
    if err > bound:
        raise CheckError(f"kernel error {err:.3e} exceeds the first-order bound {bound:.3e} (n={n})")
    return err


def check_converge_csv(path, n_list) -> float:
    """Errors fall with every refinement and fit an order inside ``ORDER_BRACKET``; returns the order."""
    header, rows = read_csv(path)
    if header != ["n", "max_err", "regime_flag"]:
        raise CheckError(f"unexpected converge header {header}")
    if len(rows) != len(n_list) + 1 or rows[-1][0] != "order":
        raise CheckError("converge table must hold one row per n and a final order row")
    ns = [int(r[0]) for r in rows[:-1]]
    errs = np.array([float(r[1]) for r in rows[:-1]])
    if ns != list(n_list):
        raise CheckError(f"converge rows are for n={ns}, want {list(n_list)}")
    _require_finite(errs, "converge errors")
    if not (errs > 0).all() or not (np.diff(errs) < 0).all():
        raise CheckError(f"converge errors do not decrease: {errs.tolist()}")
    order = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    if not ORDER_BRACKET[0] <= order <= ORDER_BRACKET[1]:
        raise CheckError(f"fitted order {order:.4f} outside {ORDER_BRACKET}")
    reported = float(rows[-1][1])
    if not abs(reported - order) <= 1e-9:
        raise CheckError(f"reported order {reported} differs from the fit {order}")
    return order


def check_validate_csv(path) -> float:
    """Every identity suite present, passing, with residual/tolerance <= 1; returns the worst ratio."""
    header, rows = read_csv(path)
    if header != ["identity", "residual_over_tolerance", "pass"]:
        raise CheckError(f"unexpected validate header {header}")
    names = [r[0] for r in rows]
    if names != list(VALIDATE_IDENTITIES):
        raise CheckError(f"validate rows {names}, want {list(VALIDATE_IDENTITIES)}")
    ratios = np.array([float(r[1]) for r in rows])
    _require_finite(ratios, "validate ratios")
    if (ratios > 1.0).any() or any(r[2] != "True" for r in rows):
        raise CheckError(f"validate residuals out of contract: {ratios.tolist()}")
    return float(ratios.max())
