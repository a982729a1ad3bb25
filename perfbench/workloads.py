"""The benchmark's three workloads: inputs drawn from a seed, one operation, its check.

Each workload holds a *round* of inputs drawn from the seed; operation ``i``
uses ``round[i % len(round)]``.  Parameters are drawn by stratified sampling
(one draw from each equal slice of a range, so a round always spans the
whole range) so that the largest error of a run, which the top slice sets,
moves little from seed to seed.

Operations call only stable public API: ``evolution.SolveConfig``,
``evolution.solve``, the ``oracle`` boundary constructors and
``cli.main(argv)``.  They never pass ``--threads`` or ``threads=``.
"""

from __future__ import annotations

import contextlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

from hyperheat import cli, evolution, oracle

import checks

ROUND = 8

# solve-band: the largest n at which a 30 s run still holds dozens of solves.
BAND_N, BAND_OMEGA, BAND_OMEGA_PRIME = 512, 4.0, 3.0
BAND_TIMES = (0.5, 1.0)
BAND_XS = tuple(np.linspace(-2.0, 2.0, 41))

# solve-surface: a pricing surface, 8 times x 2001 points at a small n.
SURFACE_N = 128
SURFACE_TIMES, SURFACE_XS = "0.25:2:8", "-4:4:2001"

# verify-sweep: validate, a kernel table, a converge sweep with a bump (no closed form).
VALIDATE_N = 16
KERNEL_N, KERNEL_TIMES, KERNEL_Z_COUNT = 256, "0.25,1", 61
KERNEL_Z_SHIFT = (0.0, 0.1)   # the offsets [-3, 3] move right by a drawn shift
CONVERGE_NS, CONVERGE_TIMES, CONVERGE_XS = (64, 128, 256), "0.5", "-2:2:7"

# The bump stays fixed: the quadrature's cost moves by about 10% with its
# centre and width, which would make op_p50_s depend on the seed.
CONVERGE_BOUNDARY = "bump:0,1"

GAUSSIAN_A, GAUSSIAN_B = (0.9, 1.1), (0.9, 1.1)


def parse_floats(text: str) -> tuple[float, ...]:
    """The CLI's list syntax: ``a,b,c`` or ``lo:hi:count`` (inclusive linspace)."""
    if ":" in text:
        lo, hi, count = text.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(p) for p in text.split(","))


def _stratified(rng: np.random.Generator, lo: float, hi: float) -> np.ndarray:
    """One draw from each of ``ROUND`` equal slices of ``[lo, hi]``, ascending."""
    return lo + (np.arange(ROUND) + rng.random(ROUND)) * (hi - lo) / ROUND


def _gaussian_round(rng: np.random.Generator) -> list[tuple[float, float]]:
    # a and b ascend together, so the largest error of a round comes from its
    # top slice whatever the seed; the order of operations is shuffled.
    pairs = list(zip(_stratified(rng, *GAUSSIAN_A).tolist(), _stratified(rng, *GAUSSIAN_B).tolist()))
    return [pairs[k] for k in rng.permutation(ROUND)]


@dataclass
class Workload:
    name: str
    round: list[Any]
    operate: Callable[[Any, Path], Any]
    check: Callable[[Any, Any], float]

    def input(self, i: int) -> Any:
        return self.round[i % len(self.round)]


def _cli(argv: list[str]) -> tuple[int, str]:
    """``cli.main(argv)`` with its standard error captured."""
    with contextlib.redirect_stderr(io.StringIO()) as err:
        rc = cli.main(argv)
    return rc, err.getvalue()


def _require_exit_zero(rc: int, stderr: str, what: str) -> None:
    if rc != 0:
        raise checks.CheckError(f"{what} exited {rc}: {stderr.strip()}")


def solve_band(seed: int) -> Workload:
    def operate(ab, workdir: Path):
        a, b = ab
        config = evolution.SolveConfig(n=BAND_N, omega=BAND_OMEGA, omega_prime=BAND_OMEGA_PRIME,
                                       boundary=oracle.gaussian(a, b), times=BAND_TIMES, xs=BAND_XS)
        return evolution.solve(config).u

    def check(ab, u) -> float:
        return checks.check_gaussian_solve(u, BAND_TIMES, BAND_XS, *ab, BAND_N)

    return Workload("solve-band", _gaussian_round(np.random.default_rng(seed)), operate, check)


def solve_surface(seed: int) -> Workload:
    times, xs = parse_floats(SURFACE_TIMES), parse_floats(SURFACE_XS)

    def operate(ab, workdir: Path):
        out = workdir / "surface.csv"
        a, b = ab
        return _cli(["solve", "--n", str(SURFACE_N), "--g", f"gaussian:{a!r},{b!r}",
                     "--times", SURFACE_TIMES, f"--xs={SURFACE_XS}", "--out", str(out)]), out

    def check(ab, output) -> float:
        (rc, stderr), out = output
        _require_exit_zero(rc, stderr, "hyperheat solve")
        return checks.check_solve_csv(out, times, xs, *ab, SURFACE_N)

    return Workload("solve-surface", _gaussian_round(np.random.default_rng(seed)), operate, check)


def verify_sweep(seed: int) -> Workload:
    rng = np.random.default_rng(seed)
    validate_seeds = rng.integers(0, 2**31, ROUND).tolist()
    shifts = _stratified(rng, *KERNEL_Z_SHIFT)[rng.permutation(ROUND)].tolist()
    kernel_zs = [f"{-3.0 + d!r}:{3.0 + d!r}:{KERNEL_Z_COUNT}" for d in shifts]
    kernel_times = parse_floats(KERNEL_TIMES)

    def operate(inp, workdir: Path):
        validate_seed, zs = inp
        outs = {k: workdir / f"{k}.csv" for k in ("validate", "kernel", "converge")}
        rcs = {
            "validate": _cli(["validate", "--n", str(VALIDATE_N), "--seed", str(validate_seed),
                              "--out", str(outs["validate"])]),
            "kernel": _cli(["kernel", "--n", str(KERNEL_N), "--times", KERNEL_TIMES,
                            f"--xs={zs}", "--out", str(outs["kernel"])]),
            "converge": _cli(["converge", "--n-list", ",".join(map(str, CONVERGE_NS)),
                              "--g", CONVERGE_BOUNDARY, "--times", CONVERGE_TIMES,
                              f"--xs={CONVERGE_XS}", "--out", str(outs["converge"])]),
        }
        return rcs, outs

    def check(inp, output) -> float:
        rcs, outs = output
        for command, (rc, stderr) in rcs.items():
            _require_exit_zero(rc, stderr, f"hyperheat {command}")
        checks.check_validate_csv(outs["validate"])
        checks.check_converge_csv(outs["converge"], CONVERGE_NS)
        return checks.check_kernel_csv(outs["kernel"], kernel_times, parse_floats(inp[1]), KERNEL_N)

    return Workload("verify-sweep", list(zip(validate_seeds, kernel_zs)), operate, check)


WORKLOADS = {"solve-band": solve_band, "solve-surface": solve_surface, "verify-sweep": verify_sweep}
