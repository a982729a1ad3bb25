"""Batch command line: validation suites, solves, kernel tables, sweeps, rate checks.

Exit codes: 0 success, 1 a validation/bound verdict failed, 2 bad configuration.
All tabular output is RFC 4180 CSV (UTF-8, '.' decimal, round-trip float
formatting); identical arguments and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import os
import sys
from pathlib import Path
from typing import Sequence

import numpy as np

from . import evolution, oracle, transform
from .grid import GridFunction, GridParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

_VALIDATE_NS = (1, 2, 4, 8, 16)
_VALIDATE_MAX_N = 16


def _fmt(v) -> str:
    """Full round-trip formatting for floats; everything else via str()."""
    if isinstance(v, (float, np.floating)):
        return repr(float(v))
    return str(v)


def _write_csv(out: str | None, header: Sequence[str], rows) -> None:
    if out:
        fh = open(out, "w", encoding="utf-8", newline="")
    else:
        fh = sys.stdout
    try:
        w = csv.writer(fh)
        w.writerow(header)
        for row in rows:
            w.writerow([_fmt(v) for v in row])
    finally:
        if out:
            fh.close()


def parse_boundary(spec: str) -> oracle.BoundaryCondition:
    """``name:p1,p2`` builtin or a path to a sampled-data file of ``x,re,im`` lines."""
    name, _, rest = spec.partition(":")
    params = [p for p in rest.split(",") if p] if rest else []
    if name == "gaussian":
        a, b = (float(p) for p in params) if params else (1.0, 1.0)
        return oracle.gaussian(a, b)
    if name == "indicator":
        lo, hi = (float(p) for p in params)
        return oracle.indicator(lo, hi)
    if name == "bump":
        c, w = (float(p) for p in params) if params else (0.0, 1.0)
        return oracle.bump(c, w)
    if name == "sampled":
        return _load_sampled(rest)
    if os.path.exists(spec):
        return _load_sampled(spec)
    raise ValueError(
        f"unknown boundary {spec!r}: use gaussian:a,b | indicator:lo,hi | bump:c,w | "
        f"sampled:FILE or a path to an x,re,im file"
    )


def _load_sampled(path: str) -> oracle.BoundaryCondition:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot read boundary file {path!r}: {exc.strerror or exc}") from exc
    pts = []
    for line in text.splitlines():
        line = line.strip()
        if not line:
            continue
        x, re, im = (float(c) for c in line.split(","))
        pts.append((x, complex(re, im)))
    return oracle.sampled(pts)


def _parse_floats(text: str) -> tuple[float, ...]:
    """Comma list ``a,b,c`` or linspace sugar ``lo:hi:count``."""
    if ":" in text:
        lo, hi, count = text.split(":")
        return tuple(np.linspace(float(lo), float(hi), int(count)))
    return tuple(float(p) for p in text.split(","))


# -- validate ----------------------------------------------------------------


def _random_grid_functions(params: GridParams, count: int, rng) -> list[GridFunction]:
    M = params.space_count
    return [
        GridFunction(params, rng.standard_normal(M) + 1j * rng.standard_normal(M))
        for _ in range(count)
    ]


def _check_inversion(ns, rng, trials=25):
    worst = 0.0
    for n in ns:
        params = GridParams(n)
        for f in _random_grid_functions(params, trials, rng):
            tol = 1e-9 * (1.0 + f.max_abs())
            r = np.abs(transform.inverse(transform.forward(f)).values - 2.0 * f.values).max()
            s = np.abs(transform.forward(transform.inverse(f)).values - 2.0 * f.values).max()
            worst = max(worst, max(r, s) / tol)
    return worst


def _check_convolution(ns, rng, trials=10):
    worst = 0.0
    for n in ns:
        if n > 8:
            continue
        params = GridParams(n)
        fs = _random_grid_functions(params, trials, rng)
        gs = _random_grid_functions(params, trials, rng)
        for f, g in zip(fs, gs):
            # |f_hat| <= 2n max|f|, so the product comparison lives at scale 4n^2
            scale = 1.0 + 4.0 * n * n * f.max_abs() * g.max_abs()
            worst = max(worst, evolution.check_convolution_theorem(f, g) / (1e-9 * scale))
    return worst


def _check_derivative_identities(ns, rng, trials=25):
    worst = 0.0
    for n in ns:
        if n > 8:
            continue
        params = GridParams(n)
        for f in _random_grid_functions(params, trials, rng):
            tol1 = 1e-9 * (1.0 + n * f.max_abs())
            tol2 = 1e-9 * (1.0 + n * n * f.max_abs())
            worst = max(worst, transform.check_dx_identity(f) / tol1)
            worst = max(worst, transform.check_dxx_identity(f) / tol2)
    return worst


def _check_stepper_spectral(rng):
    worst = 0.0
    for n in (2, 4):
        params = GridParams(n)
        steps = min(6, params.time_count - 1)
        g = _random_grid_functions(params, 1, rng)[0]
        field = evolution.evolve(g, steps)
        ghat = transform.forward(g)
        corrections = [transform.boundary_corrections(field.slice(j)).f_corr
                       for j in range(steps)]
        for i in range(steps + 1):
            ref = transform.forward(field.slice(i))
            got = evolution.spectral_hat(ghat, corrections, i)
            scale = max(1.0, ref.max_abs())
            worst = max(worst, np.abs(got.values - ref.values).max() / (1e-8 * scale))
    return worst


_VALIDATION_CHECKS = (
    ("inversion", _check_inversion, True),
    ("convolution-theorem", _check_convolution, True),
    ("derivative-transform", _check_derivative_identities, True),
    ("stepper-spectral", _check_stepper_spectral, False),
)


def run_validate(seed: int, max_n: int, out: str | None = None) -> int:
    """Exact-identity suites on random data; exit 0 iff every residual is in contract."""
    if max_n > _VALIDATE_MAX_N:
        raise ValueError(f"validate supports n up to {_VALIDATE_MAX_N}, got {max_n}")
    ns = [n for n in _VALIDATE_NS if n <= max_n]
    if not ns:
        raise ValueError(f"no grid sizes <= {max_n}")
    rng = np.random.default_rng(seed)
    rows = []
    failed: str | None = None
    for name, check, takes_ns in _VALIDATION_CHECKS:
        ratio = check(ns, rng) if takes_ns else check(rng)
        ok = ratio <= 1.0
        rows.append((name, ratio, ok))
        if not ok and failed is None:
            failed = name
    _write_csv(out, ("identity", "residual_over_tolerance", "pass"), rows)
    if failed is not None:
        print(f"validation failed: {failed}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# -- solve / kernel / converge ------------------------------------------------


def _solve_config(args, bc) -> evolution.SolveConfig:
    return evolution.SolveConfig(
        n=args.n,
        omega=args.omega,
        omega_prime=args.omega_prime,
        boundary=bc,
        times=_parse_floats(args.times),
        xs=_parse_floats(args.xs),
    )


def _non_finite_message(result: evolution.SolveResult) -> str | None:
    """One line naming the first non-finite ``(t, x)`` of ``result``, or ``None``."""
    bad = result.first_non_finite()
    if bad is None:
        return None
    t, x = bad
    return (f"non-finite value at t={_fmt(t)}, x={_fmt(x)}; "
            f"max |growth| in the band is {result.max_growth:.6g}")


def run_solve(args) -> int:
    bc = parse_boundary(args.g)
    config = _solve_config(args, bc)
    result = evolution.solve(config, threads=args.threads)
    bad = _non_finite_message(result)
    if bad is not None:
        print(f"solve failed: {bad}", file=sys.stderr)
        return EXIT_VALIDATION
    with_oracle = bc.has_closed_form
    header = ["t", "x", "u_re", "u_im_diag"] + (["oracle", "abs_err"] if with_oracle else [])
    rows = []
    for t, x, u_re, u_im in result.rows():
        row = [t, x, u_re, u_im]
        if with_oracle:
            ref = bc.closed_form(t, x).real
            row += [ref, abs(u_re - ref)]
        rows.append(row)
    _write_csv(args.out, header, rows)
    return EXIT_OK


def run_kernel(args) -> int:
    params = GridParams(args.n)
    window = evolution.Window(params, args.omega_prime)
    times = _parse_floats(args.times)
    zs = _parse_floats(args.xs)
    rows = []
    for t in times:
        if t <= 0:
            raise ValueError("kernel tables need t > 0")
        for z in zs:
            val = evolution.kernel(t, z, window)
            ref = oracle.gaussian_heat_kernel(t, z)
            rows.append((t, z, val.real, abs(val.imag), ref, abs(val.real - ref)))
    _write_csv(args.out, ("t", "z", "kernel_re", "kernel_im_diag", "oracle", "abs_err"), rows)
    return EXIT_OK


def run_converge(args) -> int:
    if args.n_list is None:
        raise ValueError("converge needs --n-list")
    n_list = [int(v) for v in args.n_list.split(",")]
    if len(n_list) < 3:
        raise ValueError("converge needs at least 3 grid sizes")
    bc = parse_boundary(args.g)
    times = _parse_floats(args.times)
    xs = _parse_floats(args.xs)
    configs = [evolution.SolveConfig(n=n, omega=args.omega, omega_prime=args.omega_prime,
                                     boundary=bc, times=times, xs=xs) for n in n_list]
    # the reference does not depend on n: one evaluation per (t, x)
    reference = bc.closed_form if bc.has_closed_form else (
        lambda t, x: oracle.classical_solution(bc, t, x))
    refs = np.array([[reference(t, x).real for x in configs[0].xs] for t in configs[0].times])
    errs = []
    rows = []
    for config in configs:
        result = evolution.solve(config, threads=args.threads)
        bad = _non_finite_message(result)
        if bad is not None:
            print(f"converge failed at n={config.n}: {bad}", file=sys.stderr)
            return EXIT_VALIDATION
        err = float(np.abs(result.u.real - refs).max(initial=0.0))
        errs.append(err)
        rows.append((config.n, err, config.regime_flag))
    order = float(-np.polyfit(np.log(n_list), np.log(errs), 1)[0])
    rows.append(("order", order, ""))
    _write_csv(args.out, ("n", "max_err", "regime_flag"), rows)
    print(f"fitted convergence order: {order:.4f}", file=sys.stderr)
    return EXIT_OK


# -- rates ---------------------------------------------------------------------


def run_rates(args) -> int:
    """One row per bound/order verdict; exit 0 iff all pass."""
    rows = []

    def add(check: str, param: str, observed: float, bound: str, ok: bool) -> None:
        rows.append((check, param, observed, bound, ok))

    p_ns = [1, 10, 100, 1000, 10_000, 100_000, 1_000_000]
    rep = oracle.rate_check_p(p_ns)
    for n, obs, bnd in zip(rep.params, rep.observed, rep.bounds):
        add("p_bound", f"n={int(n)}", obs, f"<={bnd:.6g}", obs <= bnd)
    fit = oracle.rate_check_p([n for n in p_ns if n >= 100])
    add("p_order", "n=1e2..1e6", fit.fitted_order, "[0.8,1.2]", fit.order_in_bracket)

    for t, thr in ((1.0, 1.0), (0.25, 2.0)):
        left, right = oracle.tail_bound_check(t, thr, 100)
        add("tail_bound", f"t={t},thr={thr},n=100", left, f"<={right:.6g}", left <= right)

    (trep,) = oracle.rate_check_t([1.0], [100, 1000, 10_000])
    add("t_order", "y=1", trep.fitted_order, "[0.8,1.2]", trep.order_in_bracket)
    (vrep,) = oracle.rate_check_t([5.0], [10_000])
    add("t_vanish", "y=5,n=1e4", vrep.observed[0], "<=0.001", vrep.observed[0] <= 1e-3)

    qrep = oracle.quadrature_rate_check(1.0, 0.0, [64, 128, 256])
    add("quad_order", "t=1,z=0", qrep.fitted_order, "[0.8,1.5]", qrep.order_in_bracket)
    qerr = oracle.quadrature_rate_check(1.0, 1.0, [256])
    add("quad_error", "t=1,z=1,n=256", qerr.observed[0], "<=0.01", qerr.observed[0] <= 1e-2)

    for t, z in ((1.0, 0.0), (0.5, 1.0)):
        resid = oracle.gaussian_transform_identity(t, z)
        add("gauss_transform", f"t={t},z={z}", resid, "<=1e-08", resid <= 1e-8)

    _write_csv(args.out, ("check", "param", "observed", "bound_or_bracket", "pass"), rows)
    bad = [r[0] for r in rows if not r[4]]
    if bad:
        print(f"rate checks failed: {', '.join(sorted(set(bad)))}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperheat",
        description="Spectral heat-equation solver on a half-frequency Fourier grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, n_default: int = 256) -> None:
        p.add_argument("--n", type=int, default=n_default,
                       help="grid parameter (for validate: largest n, <=16)")
        p.add_argument("--omega", type=float, default=4.0, help="space truncation radius")
        p.add_argument("--omega-prime", dest="omega_prime", type=float, default=3.0,
                       help="frequency window radius")
        p.add_argument("--g", default="gaussian:1,1",
                       help="boundary data: gaussian:a,b | indicator:lo,hi | bump:c,w | "
                            "sampled:FILE (x,re,im lines)")
        p.add_argument("--times", default="0.5", help="query times: a,b,c or lo:hi:count")
        p.add_argument("--xs", default="-2:2:41", help="query points: a,b,c or lo:hi:count")
        p.add_argument("--out", default=None, help="CSV output path (default stdout)")
        p.add_argument("--seed", type=int, default=0, help="seed for randomized suites")
        p.add_argument("--threads", type=int,
                       default=int(os.environ.get("HYPERHEAT_THREADS", "1")),
                       help="worker threads for query-point loops "
                            "(default $HYPERHEAT_THREADS or 1)")
        p.add_argument("--n-list", dest="n_list", default=None,
                       help="comma list of grid sizes for converge")

    for name, help_, n_default in (
        ("validate", "run the exact-identity suites on random data", 8),
        ("solve", "solve and tabulate u(t, x)", 256),
        ("kernel", "tabulate the discrete heat kernel against the Gaussian", 256),
        ("converge", "error sweep over --n-list with fitted order", 256),
        ("rates", "bound/order verdicts for the convergence-rate estimates", 256),
    ):
        common(sub.add_parser(name, help=help_), n_default)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "validate":
            return run_validate(args.seed, args.n, args.out)
        if args.command == "solve":
            return run_solve(args)
        if args.command == "kernel":
            return run_kernel(args)
        if args.command == "converge":
            return run_converge(args)
        if args.command == "rates":
            return run_rates(args)
        raise ValueError(f"unknown command {args.command!r}")
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
