"""Batch command line: validation suites, solves, kernel tables, sweeps, rate checks.

Exit codes: 0 success, 1 a validation/bound verdict failed, a computation
gave up or ran out of memory, or the output could not be written (one line
``<command> failed: ...``), or the reader closed stdout (no message), 2 bad
configuration.
All tabular output is RFC 4180 CSV (UTF-8, '.' decimal, round-trip float
formatting); identical arguments and seed give byte-identical files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import functools
import itertools
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Iterator, Sequence, TextIO

import numpy as np

from . import checks, evolution, oracle
from .grid import GridParams

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CONFIG = 2

_VALIDATE_NS = (1, 2, 4, 8, 16)
_VALIDATE_MAX_N = _VALIDATE_NS[-1]
_VALIDATE_SMALL_N = 8   # the convolution and difference suites stop here

# Value cells from which a solve or kernel table is formatted in numpy (see _write_table),
# and the rows of one block of such a table (see _write_blocks).
_VECTOR_CELLS = 4096
_BLOCK_ROWS = 4096


@contextmanager
def _output(out: str | None) -> Iterator[TextIO]:
    """The ``--out`` file, created or truncated, or stdout when ``out`` is not given.

    A file that cannot be opened is a configuration error naming the path
    and the reason.
    """
    if not out:
        yield sys.stdout
        return
    try:
        fh = open(out, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ValueError(f"cannot write --out file {out!r}: {exc.strerror or exc}") from None
    with fh:
        yield fh


def _write_csv(out: str | None, header: Sequence[str], rows) -> None:
    """Write ``rows`` under ``header`` through :mod:`csv`.

    For the small mixed tables (``validate``, ``converge``, ``rates``), whose
    cells may need quoting.
    """
    with _output(out) as fh:
        w = csv.writer(fh)
        w.writerow(header)
        w.writerows(rows)


def parse_boundary(spec: str) -> oracle.BoundaryCondition:
    """``name:p1,p2`` builtin or a path to a sampled-data file of ``x,re,im`` lines."""
    name, _, rest = spec.partition(":")
    syntax = {"gaussian": "a,b", "indicator": "lo,hi", "bump": "c,w"}.get(name)
    if syntax is not None:
        if not rest and name != "indicator":
            return getattr(oracle, name)()              # the gaussian's and the bump's defaults
        try:
            p, q = (float(v) for v in rest.split(","))
        except ValueError:
            raise ValueError(f"--g expects {name}:{syntax} (two numbers), got {spec!r}") from None
        return getattr(oracle, name)(p, q)
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
    for number, line in enumerate(text.splitlines(), 1):
        if line.strip():
            try:
                x, re, im = (float(c) for c in line.split(","))
            except ValueError:
                raise ValueError(f"--g file {path!r}, line {number}: expected x,re,im, got {line!r}") from None
            pts.append((x, complex(re, im)))
    return oracle.sampled(pts)


def _parse_floats(flag: str, text: str) -> tuple[float, ...]:
    """The value of ``--flag``: comma list ``a,b,c`` or linspace sugar ``lo:hi:count``."""
    try:
        if ":" not in text:
            return tuple(float(p) for p in text.split(","))
        lo, hi, count = text.split(":")
        with np.errstate(over="ignore", invalid="ignore"):
            values = np.linspace(float(lo), float(hi), int(count))
    except ValueError:
        raise ValueError(f"--{flag} expects a,b,c or lo:hi:count with a whole count >= 0, got {text!r}") from None
    if not np.isfinite(values).all():
        raise ValueError(f"--{flag} expects lo, hi and hi - lo finite, got {text!r}")
    return tuple(values)


# -- validate ----------------------------------------------------------------


def run_validate(args) -> int:
    """Exact-identity suites on random data; exit 0 iff every residual is in contract."""
    if args.n > _VALIDATE_MAX_N:
        raise ValueError(f"validate supports n up to {_VALIDATE_MAX_N}, got {args.n}")
    if args.seed < 0:
        raise ValueError(f"--seed expects a whole number >= 0, got {args.seed}")
    ns = [n for n in _VALIDATE_NS if n <= args.n]
    if not ns:
        raise ValueError(f"no grid sizes <= {args.n}")
    small = [n for n in ns if n <= _VALIDATE_SMALL_N]
    rng = np.random.default_rng(args.seed)
    rows = []
    failed: str | None = None
    for name, check, check_ns, trials in (
        ("inversion", checks.inversion, ns, 25),
        ("convolution-theorem", checks.convolution_theorem, small, 10),
        ("derivative-transform", checks.derivative_identities, small, 25),
        ("stepper-spectral", checks.stepper_vs_spectral, (2, 4), 1),
    ):
        ratio = check(check_ns, trials, rng)
        ok = ratio <= 1.0
        rows.append((name, ratio, ok))
        if not ok and failed is None:
            failed = name
    _write_csv(args.out, ("identity", "residual_over_tolerance", "pass"), rows)
    if failed is not None:
        print(f"validation failed: {failed}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# -- solve / kernel / converge ------------------------------------------------


def _solve_config(args, bc, n: int) -> evolution.SolveConfig:
    return evolution.SolveConfig(
        n=n,
        omega=args.omega,
        omega_prime=args.omega_prime,
        boundary=bc,
        times=_parse_floats("times", args.times),
        xs=_parse_floats("xs", args.xs),
    )


def _non_finite_message(result: evolution.SolveResult, point: str = "x") -> str | None:
    """One line naming the first non-finite ``(t, point)`` of ``result``, or ``None``."""
    bad = result.first_non_finite()
    if bad is None:
        return None
    return (f"non-finite value at t={bad[0]!r}, {point}={bad[1]!r}; "
            f"max |growth| in the band is {result.max_growth:.6g}")


def _write_table(command: str, out: str | None, result: evolution.SolveResult,
                 header: tuple[str, ...], reference=None) -> int:
    """Write one row ``t, point, re, im`` per value of ``result``.

    With ``reference``, each row also gets ``oracle, abs_err`` against
    ``reference(t, points)``, called once per time with all of ``result.xs``
    as one array.
    A non-finite value, oracle or error fails with one line before the file
    is opened.  Every cell is then a finite float, which never needs
    quoting, so the text is written without :mod:`csv`, in the bytes it
    would write: each float as its shortest round-trip ``repr``.  An
    imaginary column that is all ``+0.0`` (real data, whose ``u`` only ever
    had its real part set) is written as the literal ``0.0``; a ``-0.0``
    anywhere in it keeps every cell's ``repr``.

    The value cells (``re``, ``im`` unless it is the literal, ``oracle``,
    ``abs_err``) are formatted on one of two paths, by their count:

    * below ``_VECTOR_CELLS`` (4,096), each cell is a Python ``repr``: each
      time and point is formatted once, each row is one f-string, and each
      time is one ``write``;
    * from there on, :func:`_floatrepr.reprs` formats whole arrays in numpy
      and each block of ``_BLOCK_ROWS`` (4,096) rows (:func:`_write_blocks`)
      is one byte matrix and one ``write``.

    Both write the same bytes.  The cut sits between two measured crossovers
    (README).  In a warm process the numpy path took 1.08–1.11 of ``repr``'s
    time at 750 cells and 0.84–0.86 at 1,500.  In a fresh process, which
    first imports the formatter (4–7 ms), it took 1.10 at 4,098 cells, 1.00
    at 6,000 and 0.90 at 8,004.
    """
    bad = _non_finite_message(result, header[1])
    u = result.u
    columns = [u.real, u.imag]
    if bad is None and reference is not None:
        xs = np.asarray(result.xs)
        ref = np.array([reference(t, xs) for t in result.times])
        columns += [ref, np.abs(u.real - ref)]
        header += ("oracle", "abs_err")
        for name, column in zip(header[4:], columns[2:]):
            cells = np.flatnonzero(~np.isfinite(column))
            if cells.size:
                i, j = divmod(int(cells[0]), len(result.xs))
                bad = f"non-finite {name} at t={result.times[i]!r}, {header[1]}={result.xs[j]!r}"
                break
    if bad is not None:
        print(f"{command} failed: {bad}", file=sys.stderr)
        return EXIT_VALIDATION
    zero_im = not u.imag.any() and not np.signbit(u.imag).any()
    formatted = [None if zero_im and i == 1 else c for i, c in enumerate(columns)]  # None: the literal
    count = u.size * sum(c is not None for c in formatted)
    with _output(out) as fh:
        fh.write(",".join(header) + "\r\n")
        if count >= _VECTOR_CELLS:
            _write_blocks(fh, result, formatted)
            return EXIT_OK
        points = [repr(x) + "," for x in result.xs]
        for t, real, imag, *checks in zip(result.times, *columns):      # one row of each column
            lead = repr(t) + ","
            # ``{b}`` formats a Python float as its ``repr``, and the literal as itself
            cells = zip(points, real.tolist(), itertools.repeat("0.0") if zero_im else imag.tolist(),
                        *(v.tolist() for v in checks))
            if checks:
                rows = [f"{lead}{p}{a!r},{b},{c!r},{d!r}\r\n" for p, a, b, c, d in cells]
            else:
                rows = [f"{lead}{p}{a!r},{b}\r\n" for p, a, b in cells]
            fh.write("".join(rows))
    return EXIT_OK


def _write_blocks(fh: TextIO, result: evolution.SolveResult, columns: list) -> None:
    """The rows of :func:`_write_table` from :func:`_floatrepr.reprs`, in blocks of
    ``_BLOCK_ROWS`` rows (on the pricing surface blocks of 2,048 rows ran 3-5% slower and
    of 8,192 about 10% slower), each block's value cells from one call over the block's
    slice of each column; a column ``None`` is the literal ``0.0``.

    A block is one ``uint8`` matrix of rows ``t,x,cells\\r\\n`` in which each float takes
    its ``repr``'s bytes padded with NULs to ``WIDTH``; the NULs are dropped on writing.
    """
    from . import _floatrepr     # imported with cli, it held 0.1 MB in runs that write no such table

    width = _floatrepr.WIDTH
    values = [c.reshape(-1) for c in columns if c is not None]     # row r is (t, x) = divmod(r, |xs|)
    n = values[0].size
    cells = [b"\0" * width] * 2 + [b"0.0" if c is None else b"\0" * width for c in columns]
    ends = np.cumsum([len(cell) + 1 for cell in cells])     # one past each cell's separator
    spans = [slice(end - 1 - width, end - 1) for cell, end in zip(cells, ends) if len(cell) == width]
    rows = np.tile(np.frombuffer(b",".join(cells) + b"\r\n", np.uint8), (min(_BLOCK_ROWS, n), 1))
    stamps, points = np.split(_floatrepr.reprs(np.concatenate([result.times, result.xs])),
                              [len(result.times)])
    for r0 in range(0, n, len(rows)):
        t, x = np.divmod(np.arange(r0, min(r0 + len(rows), n)), len(points))
        block = rows[:len(t)]
        block[:, spans[0]] = stamps.take(t, axis=0)
        block[:, spans[1]] = points.take(x, axis=0)
        text = _floatrepr.reprs(np.concatenate([v[r0:r0 + len(t)] for v in values]))
        for span, column in zip(spans[2:], text.reshape(len(values), len(t), width)):
            block[:, span] = column
        fh.write(block.tobytes().translate(None, b"\0").decode("ascii"))


def run_solve(args) -> int:
    bc = parse_boundary(args.g)
    result = evolution.solve(_solve_config(args, bc, args.n))
    reference = (lambda t, x: bc.closed_form(t, x).real) if bc.closed_form_fn is not None else None
    return _write_table("solve", args.out, result, ("t", "x", "u_re", "u_im_diag"), reference)


def run_kernel(args) -> int:
    window = evolution.Window(GridParams(args.n), args.omega_prime)
    result = evolution.kernel(window, _parse_floats("times", args.times), _parse_floats("xs", args.xs))
    return _write_table("kernel", args.out, result,
                        ("t", "z", "kernel_re", "kernel_im_diag"),
                        oracle.gaussian_heat_kernel)


def run_converge(args) -> int:
    if args.n_list is None:
        raise ValueError("converge needs --n-list")
    try:
        n_list = [int(v) for v in args.n_list.split(",")]
    except ValueError:
        raise ValueError(f"--n-list expects whole numbers a,b,c, got {args.n_list!r}") from None
    if len(n_list) < 3:
        raise ValueError("converge needs at least 3 grid sizes")
    if len(set(n_list)) < len(n_list):
        raise ValueError(f"converge needs distinct grid sizes, got {args.n_list}")
    bc = parse_boundary(args.g)
    first = _solve_config(args, bc, n_list[0])      # parses --times and --xs once
    configs = [dataclasses.replace(first, n=n) for n in n_list]
    # the reference does not depend on n: one evaluation per time, over all points
    reference = bc.closed_form if bc.closed_form_fn is not None else (
        lambda t, xs: oracle.classical_column(bc, t, xs))
    refs = np.array([reference(t, configs[0].xs).real for t in configs[0].times])
    rows = []
    for config in configs:
        result = evolution.solve(config)
        bad = _non_finite_message(result)
        if bad is not None:
            print(f"converge failed at n={config.n}: {bad}", file=sys.stderr)
            return EXIT_VALIDATION
        err = float(np.abs(result.u.real - refs).max())
        if err == 0.0:
            print(f"converge failed at n={config.n}: the error is exactly 0, "
                  f"so no convergence order can be fitted", file=sys.stderr)
            return EXIT_VALIDATION
        rows.append((config.n, err, config.regime_flag))
    order = checks.fitted_order(n_list, [err for _, err, _ in rows])
    rows.append(("order", order, ""))
    _write_csv(args.out, ("n", "max_err", "regime_flag"), rows)
    print(f"fitted convergence order: {order:.4f}", file=sys.stderr)
    return EXIT_OK


# -- rates ---------------------------------------------------------------------


def run_rates(args) -> int:
    """One row per verdict of :func:`checks.rate_verdicts`; exit 0 iff all pass."""
    rows = checks.rate_verdicts()
    _write_csv(args.out, ("check", "param", "observed", "bound_or_bracket", "pass"), rows)
    bad = sorted({check for check, *_, ok in rows if not ok})
    if bad:
        print(f"rate checks failed: {', '.join(bad)}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_OK


# -- entry point -----------------------------------------------------------------


# Each subcommand takes only the flags it reads.
_FLAGS = {
    "n": dict(type=int, default=256, help="grid parameter (for validate: largest n, <=16)"),
    "n-list": dict(default=None, help="comma list of grid sizes for converge"),
    "omega": dict(type=float, default=4.0, help="space truncation radius"),
    "omega-prime": dict(type=float, default=3.0, help="frequency window radius"),
    "g": dict(default="gaussian:1,1",
              help="boundary data: gaussian:a,b | indicator:lo,hi | bump:c,w | "
                   "sampled:FILE (x,re,im lines)"),
    "times": dict(default="0.5", help="query times: a,b,c or lo:hi:count"),
    "xs": dict(default="-2:2:41", help="query points: a,b,c or lo:hi:count"),
    "out": dict(default=None, help="CSV output path (default stdout)"),
    "seed": dict(type=int, default=0, help="seed for randomized suites"),
}
_SOLVE_FLAGS = ("omega", "omega-prime", "g", "times", "xs", "out")
_COMMANDS = (
    ("validate", run_validate, "run the exact-identity suites on random data", ("n", "seed", "out")),
    ("solve", run_solve, "solve and tabulate u(t, x)", ("n",) + _SOLVE_FLAGS),
    ("kernel", run_kernel, "tabulate the discrete heat kernel against the Gaussian",
     ("n", "omega-prime", "times", "xs", "out")),
    ("converge", run_converge, "error sweep over --n-list with fitted order", ("n-list",) + _SOLVE_FLAGS),
    ("rates", run_rates, "bound/order verdicts for the convergence-rate estimates", ("out",)),
)


@functools.cache       # parse_args leaves the parser as it is: one build per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperheat",
        description="Spectral heat-equation solver on a half-frequency Fourier grid",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, run, help_, flags in _COMMANDS:
        # no abbreviations: "--omega" must not stand for "--omega-prime"
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.set_defaults(run=run)
        for flag in flags:
            p.add_argument(f"--{flag}", **_FLAGS[flag])
    sub.choices["validate"].set_defaults(n=8)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.run(args)
        sys.stdout.flush()
        return code
    except OSError as exc:
        # the output could not be written: one line for a full disk, none for a reader
        # that closed stdout (``| head``).  Rows may still sit in the buffer; pointing
        # stdout at /dev/null keeps the interpreter's last flush quiet.
        if not isinstance(exc, BrokenPipeError):
            print(f"{args.command} failed: cannot write output: {exc.strerror or exc}", file=sys.stderr)
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_VALIDATION
    except MemoryError as exc:
        print(f"{args.command} failed: not enough memory: {exc}", file=sys.stderr)
        return EXIT_VALIDATION
    except ValueError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (RuntimeError, RuntimeWarning) as exc:   # the oracle gave up, or a warning raised as an error
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return EXIT_VALIDATION


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
