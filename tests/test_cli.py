import contextlib
import csv
import io
import math
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hyperheat.transform
from conftest import fresh_env, run_fresh
from hyperheat import cli, evolution, oracle
from hyperheat.cli import _write_csv, _write_table, main, parse_boundary
from hyperheat.evolution import SolveConfig, SolveResult, solve
from hyperheat.grid import GridFunction


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def cli_command(args):
    """Argv and environment of ``python -m hyperheat.cli ARGS`` in a fresh interpreter
    that prints every warning."""
    return [sys.executable, "-m", "hyperheat.cli", *args], fresh_env()


def run_cli(args):
    argv, env = cli_command(args)
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)


def reference_table(result, header, reference):
    """The bytes :mod:`csv` writes for ``_write_table``'s rows: full ``t`` and
    ``x`` columns, each cell a Python float."""
    ts = np.repeat(result.times, len(result.xs)).tolist()
    xs = np.tile(result.xs, len(result.times)).tolist()
    u = result.u.ravel()
    columns = [ts, xs, u.real.tolist(), u.imag.tolist()]
    if reference is not None:
        ref = np.concatenate([reference(t, result.xs) for t in result.times])
        columns += [ref.tolist(), np.abs(u.real - ref).tolist()]
        header += ("oracle", "abs_err")
    fh = io.StringIO(newline="")
    w = csv.writer(fh)
    w.writerow(header)
    w.writerows(zip(*columns))
    return fh.getvalue().encode("utf-8")


# where repr changes notation (1e-05, 1e+16), signed zero, subnormals, +-1e300 and +-1e-300
_EDGE_FLOATS = (0.0, -0.0, 5e-324, -2.225e-308, 1e-05, 9.99e-05, -1e-05, 1e16, 9999999999999998.0,
                -1.2e17, 1e-300, -3e-300, 1e300, -7.5e299, 0.1, 1.0)
_cells = st.one_of(st.sampled_from(_EDGE_FLOATS),
                   st.floats(-1e300, 1e300, allow_nan=False, allow_infinity=False))


@st.composite
def table_cases(draw):
    """A result of 1-3 times and 1-50 points (drawn from a few values, so they
    repeat), a header pair, an optional reference table and the output target."""
    times = tuple(draw(st.lists(_cells, min_size=1, max_size=3)))
    pool = draw(st.lists(_cells, min_size=1, max_size=6))
    xs = tuple(draw(st.lists(st.sampled_from(pool), min_size=1, max_size=50)))

    def table():
        return np.array(draw(st.lists(_cells, min_size=len(times) * len(xs),
                                      max_size=len(times) * len(xs)))).reshape(len(times), len(xs))

    u = np.empty((len(times), len(xs)), dtype=np.complex128)
    # set apart: re + 1j * im would lose a -0.0.  An all +0.0 imaginary column is
    # written as a literal; all -0.0 and random columns are not
    imag = draw(st.sampled_from(["+0.0", "-0.0", "random"]))
    u.real, u.imag = table(), table() if imag == "random" else float(imag)
    refs = table() if draw(st.booleans()) else None
    header = draw(st.sampled_from([("t", "x", "u_re", "u_im_diag"),
                                   ("t", "z", "kernel_re", "kernel_im_diag")]))
    return SolveResult(times, xs, u), header, refs, draw(st.booleans())


class TestCsvFormat:
    def test_cells_print_as_python_scalars(self, tmp_path):
        out = tmp_path / "cells.csv"
        _write_csv(str(out), ("a", "b", "c", "d", "e", "f"),
                   [(np.float64(0.1), 1e-05, -0.0, np.True_, 3, "order")])
        assert out.read_bytes() == b"a,b,c,d,e,f\r\n0.1,1e-05,-0.0,True,3,order\r\n"

    @settings(max_examples=200, deadline=None)
    @given(case=table_cases(), block=st.integers(1, 7))
    def test_table_bytes_match_the_csv_module(self, case, block):
        # on both paths: the numpy formatter (a cut of 0 cells), in blocks of 1-7 rows so
        # that a table of more rows spans several, and repr per cell
        result, header, refs, to_file = case
        reference = None if refs is None else (lambda t, xs: refs[result.times.index(t)])
        for cut in (0, math.inf):
            with mock.patch.object(cli, "_VECTOR_CELLS", cut), mock.patch.object(cli, "_BLOCK_ROWS", block):
                if to_file:
                    with tempfile.TemporaryDirectory() as tmp:
                        out = os.path.join(tmp, "table.csv")
                        assert _write_table("solve", out, result, header, reference) == 0
                        got = Path(out).read_bytes()
                else:
                    buf = io.StringIO(newline="")
                    with contextlib.redirect_stdout(buf):
                        assert _write_table("solve", None, result, header, reference) == 0
                    got = buf.getvalue().encode("utf-8")
            assert got == reference_table(result, header, reference)

    @pytest.mark.parametrize("reference", [None, lambda t, xs: oracle.gaussian().closed_form(t, xs).real],
                             ids=["no-oracle", "oracle"])
    def test_surface_bytes_match_the_csv_module(self, tmp_path, reference):
        # the pricing surface's 8 x 2001 values: its all +0.0 imaginary column is the literal
        config = SolveConfig(n=128, omega=4.0, omega_prime=3.0, boundary=oracle.gaussian(),
                             times=tuple(np.linspace(0.25, 2, 8)), xs=tuple(np.linspace(-4, 4, 2001)))
        result = solve(config)
        assert result.u.shape == (8, 2001) and not result.u.imag.any()
        out = tmp_path / "surface.csv"
        header = ("t", "x", "u_re", "u_im_diag")
        for cut in (0, math.inf):
            with mock.patch.object(cli, "_VECTOR_CELLS", cut):
                assert _write_table("solve", str(out), result, header, reference) == 0
            assert out.read_bytes() == reference_table(result, header, reference)

    def test_large_table_with_a_nan_oracle_cell(self, tmp_path, capsys):
        # every cell must be finite, the oracle's too: one line and no file
        config = SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=oracle.gaussian(),
                             times=tuple(np.linspace(0.25, 2, 8)), xs=tuple(np.linspace(-2, 2, 601)))
        result = solve(config)
        assert result.u.size * 3 >= cli._VECTOR_CELLS
        out = tmp_path / "nan.csv"

        def reference(t, xs):
            ref = oracle.gaussian().closed_form(t, xs).real
            if t == result.times[2]:
                ref[7] = math.nan
            return ref

        assert _write_table("solve", str(out), result, ("t", "x", "u_re", "u_im_diag"), reference) == 1
        assert not out.exists()
        assert capsys.readouterr().err == \
            f"solve failed: non-finite oracle at t={result.times[2]!r}, x={result.xs[7]!r}\n"


class TestBoundaryParsing:
    def test_builtins(self):
        assert parse_boundary("gaussian:2,0.5")(0.0) == pytest.approx(2.0)
        assert parse_boundary("indicator:-1,1")(0.5) == 1.0
        assert parse_boundary("bump:0,2")(0.0) == pytest.approx(1.0)

    def test_sampled_file(self, tmp_path):
        f = tmp_path / "data.csv"
        f.write_text("0.0,1.0,0.5\n1.0,2.0,0.0\n", encoding="utf-8")
        bc = parse_boundary(f"sampled:{f}")
        assert bc(0.1) == 1.0 + 0.5j
        bc2 = parse_boundary(str(f))  # bare path works too
        assert bc2(0.9) == 2.0

    def test_unknown_rejected(self):
        with pytest.raises(ValueError):
            parse_boundary("mystery:1,2")

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["solve", "--n", "32", "--g", f"sampled:{missing}"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: cannot read boundary file")

    @pytest.mark.parametrize("line", ["0,nan,0", "inf,1,0"], ids=["nan-value", "inf-x"])
    @pytest.mark.parametrize("argv", [["solve", "--n", "64"], ["converge", "--n-list", "64,128,256"]],
                             ids=["solve", "converge"])
    def test_non_finite_sample_is_config_error(self, tmp_path, capsys, line, argv):
        f = tmp_path / "data.csv"
        f.write_text(f"{line}\n0.5,1,0\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main([*argv, "--g", f"sampled:{f}", "--xs", "0,0.5", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("configuration error: sampled boundary needs finite samples")

    def test_repeated_sample_x_is_config_error(self, tmp_path, capsys):
        f = tmp_path / "data.csv"
        f.write_text("0,1,0\n0,2,0\n1,1,0\n", encoding="utf-8")
        out = tmp_path / "out.csv"
        assert main(["solve", "--n", "64", "--g", f"sampled:{f}", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "configuration error: sampled boundary needs distinct x, got x=0.0 more than once\n")


class TestValidate:
    def test_fresh_build_passes(self, capsys):
        assert main(["validate", "--n", "8", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "inversion" in out and "stepper-spectral" in out

    def test_max_n_guard(self, capsys):
        assert main(["validate", "--n", "32"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_no_grid_size_fails_closed(self, capsys):
        assert main(["validate", "--n", "0"]) == 2
        assert capsys.readouterr().err == "configuration error: no grid sizes <= 0\n"

    def test_report_values_are_plain_round_trip_floats(self, tmp_path):
        out = tmp_path / "validate.csv"
        assert main(["validate", "--n", "4", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert "np." not in row[1]  # numpy scalar reprs must not leak
            float(row[1])

    def test_fault_injection_names_inversion(self, monkeypatch, capsys):
        real_inverse = hyperheat.transform.inverse

        def corrupted(f):
            out = real_inverse(f)
            return GridFunction(out.params, out.values * 1.001)

        monkeypatch.setattr(hyperheat.transform, "inverse", corrupted)
        assert main(["validate", "--n", "4", "--seed", "1"]) == 1
        assert "inversion" in capsys.readouterr().err


class TestSolve:
    def test_gaussian_row_near_closed_form(self, tmp_path):
        out = tmp_path / "solve.csv"
        code = main(["solve", "--n", "256", "--omega", "4", "--omega-prime", "3",
                     "--g", "gaussian:1,1", "--times", "0.5", "--xs=-2:2:41",
                     "--out", str(out)])
        assert code == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "u_re", "u_im_diag", "oracle", "abs_err"]
        assert len(rows) == 41
        at_zero = [r for r in rows if float(r[1]) == 0.0]
        assert len(at_zero) == 1
        assert abs(float(at_zero[0][2]) - 1 / math.sqrt(3)) <= 2e-2
        assert all(float(r[5]) <= 2e-2 for r in rows)

    def test_zero_boundary(self, tmp_path):
        out = tmp_path / "zero.csv"
        assert main(["solve", "--n", "64", "--g", "gaussian:0,1", "--times", "0.5,1.0",
                     "--xs", "0,1", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert len(rows) == 4  # |times| * |xs|
        assert all(float(r[2]) == 0.0 for r in rows)

    def test_invalid_time_is_config_error(self, capsys):
        assert main(["solve", "--n", "32", "--times", "0"]) == 2
        assert main(["solve", "--n", "32", "--times", "-0.5"]) == 2

    def test_non_finite_query_point_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "u.csv"
        assert main(["solve", "--xs=nan,0", "--out", str(out)]) == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "configuration error: query points must be finite; got x=nan\n"

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_fails_without_rows(self, tmp_path, capsys):
        # omega'=20 lies far outside the stability band at n=64: growth^640 overflows;
        # a point list and a uniform set (the chirp-z evaluation) both fail closed
        out = tmp_path / "u.csv"
        for xs, first in (("0,1", "0.0"), ("-1:1:41", "-1.0")):
            assert main(["solve", "--n", "64", "--omega-prime", "20", "--times", "10",
                         f"--xs={xs}", "--out", str(out)]) == 1
            assert not out.exists()
            err = capsys.readouterr().err
            assert err.startswith(f"solve failed: non-finite value at t=10.0, x={first}; "
                                  "max |growth| in the band is ")
            assert err.count("\n") == 1

    def test_non_finite_result_prints_no_numpy_warnings(self, tmp_path):
        out = tmp_path / "u.csv"
        proc = run_cli(["solve", "--n", "64", "--omega-prime", "20", "--times", "10",
                        "--xs", "0,1", "--out", str(out)])
        assert proc.returncode == 1
        assert "encountered in" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("solve failed: ")

    def test_overflowing_data_fails_in_one_line(self, tmp_path):
        # a=1e308 overflows the forward transform; numpy must not warn about it first
        out = tmp_path / "u.csv"
        proc = run_cli(["solve", "--g", "gaussian:1e308,1", "--xs", "0", "--times", "0.5",
                        "--out", str(out)])
        assert proc.returncode == 1
        assert proc.stderr == ("solve failed: non-finite value at t=0.5, x=0.0; "
                               "max |growth| in the band is 1\n")
        assert not out.exists()

    def test_narrow_gaussian_oracle_is_finite_under_warnings_as_errors(self, tmp_path):
        # b t overflows 1 + 4 b t in the closed form and b y^2 the sampling: no NaN, no warning
        out = tmp_path / "u.csv"
        argv, env = cli_command(["solve", "--g", "gaussian:1,1e308", "--times", "0.5", "--xs=-2:2:5",
                                 "--out", str(out)])
        proc = subprocess.run(argv, env=dict(env, PYTHONWARNINGS="error"),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, rows = read_csv(out)
        assert header[-2:] == ["oracle", "abs_err"] and len(rows) == 5
        assert all(math.isfinite(float(cell)) for row in rows for cell in row)

    def test_non_closed_form_boundary_omits_oracle(self, tmp_path):
        out = tmp_path / "ind.csv"
        assert main(["solve", "--n", "64", "--g", "indicator:-1,1", "--times", "0.5",
                     "--xs", "0,1", "--out", str(out)]) == 0
        header, _ = read_csv(out)
        assert header == ["t", "x", "u_re", "u_im_diag"]

    def test_sampled_boundary_end_to_end(self, tmp_path):
        data = tmp_path / "g.csv"
        # a crude sampled gaussian: the pipeline only needs evaluability
        lines = [f"{x},{math.exp(-x * x)},0.0" for x in np.linspace(-3, 3, 121)]
        data.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "u.csv"
        assert main(["solve", "--n", "64", "--omega", "3", "--g", str(data),
                     "--times", "0.5", "--xs", "0,1", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        # coarse data, but the smoothed answer still lands near the true value
        assert abs(float(rows[0][2]) - 1 / math.sqrt(3)) <= 5e-2

    def test_complex_sampled_data_keeps_the_sign_of_the_imaginary_part(self, tmp_path):
        # data x, 0, -e^{-x^2}: u is -i e^{-x^2/(1+4t)} / sqrt(1+4t), so about -0.577i at x=0, t=0.5
        data = tmp_path / "g.csv"
        lines = [f"{x!r},0.0,{-math.exp(-x * x)!r}" for x in np.linspace(-4, 4, 801).tolist()]
        data.write_text("\n".join(lines), encoding="utf-8")
        out = tmp_path / "u.csv"
        assert main(["solve", "--n", "128", "--g", f"sampled:{data}",
                     "--times", "0.5", "--xs", "0", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "x", "u_re", "u_im_diag"]
        assert abs(float(rows[0][3]) + 1 / math.sqrt(3)) <= 5e-3
        assert abs(float(rows[0][2])) <= 1e-10

    def test_gaussian_surface_imaginary_cells_read_zero(self, tmp_path):
        # real data below omega' = n: the half band leaves u.imag exactly 0
        out = tmp_path / "surface.csv"
        assert main(["solve", "--n", "128", "--times", "0.25:2:8", "--xs=-4:4:2001",
                     "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header[3] == "u_im_diag" and len(rows) == 8 * 2001
        assert {r[3] for r in rows} == {"0.0"}

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_complex_result_names_the_first_point(self, tmp_path, capsys):
        # growth^640 overflows at t=10 but not at t=0.5; complex data takes two half-band
        # parts and must fail at the same first (t, x) as its real part alone
        data = tmp_path / "g.csv"
        for im in (0.0, 0.5):
            data.write_text("\n".join(f"{x!r},{math.exp(-x * x)!r},{im * x!r}"
                                       for x in np.linspace(-4, 4, 401).tolist()), encoding="utf-8")
            for xs, first in (("0,1", "0.0"), ("-1:1:41", "-1.0")):
                assert main(["solve", "--n", "64", "--omega-prime", "20", "--times", "0.5,10",
                             "--g", f"sampled:{data}", f"--xs={xs}"]) == 1
                assert capsys.readouterr().err == (
                    f"solve failed: non-finite value at t=10.0, x={first}; "
                    "max |growth| in the band is 56.3376\n")

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", "--n", "64", "--times", "0.25,0.5", "--xs=-1:1:9"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestKernelCommand:
    def test_table_matches_gaussian(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--n", "256", "--omega-prime", "3",
                     "--times", "0.5", "--xs", "0,1,2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "z", "kernel_re", "kernel_im_diag", "oracle", "abs_err"]
        assert len(rows) == 3
        assert abs(float(rows[0][2]) - 1 / math.sqrt(2 * math.pi)) <= 5e-3
        assert all(abs(float(r[3])) <= 1e-10 for r in rows)

    def test_rejects_t_zero(self):
        assert main(["kernel", "--n", "64", "--times", "0", "--xs", "0"]) == 2

    def test_non_finite_result_fails_without_rows(self, tmp_path):
        # omega'=20 lies far outside the stability band at n=64: growth^640 overflows.
        # stderr holds the unstable-window warning (its message and source line) and
        # then the one failure line, nothing else
        out = tmp_path / "k.csv"
        proc = run_cli(["kernel", "--n", "64", "--omega-prime", "20", "--times", "10",
                        "--xs", "0,1", "--out", str(out)])
        assert proc.returncode == 1
        assert not out.exists()
        lines = proc.stderr.splitlines()
        assert len(lines) == 3
        assert "RuntimeWarning: |growth| reaches 56.3376 inside the frequency window" in lines[0]
        assert lines[2].startswith("kernel failed: non-finite value at t=10.0, z=0.0; "
                                   "max |growth| in the band is ")

    def test_unstable_window_warns_as_solve_does(self, tmp_path):
        window = ["--n", "64", "--omega-prime", "20", "--times", "0.5", "--xs", "0,1"]
        warned = []
        for command in ("kernel", "solve"):
            proc = run_cli([command, *window, "--out", str(tmp_path / f"{command}.csv")])
            assert proc.returncode == 0
            warned.append(proc.stderr.splitlines()[0].partition(" RuntimeWarning: ")[2])
        assert warned[0] == warned[1] == ("|growth| reaches 56.3376 inside the frequency window "
                                          "(omega_prime=20.0, n=64); powers will grow")

    @pytest.mark.parametrize("argv, line", [
        (["solve", "--n", "64", "--omega-prime", "20", "--times", "10", "--xs", "0,1"],
         "solve failed: |growth| reaches 56.3376 inside the frequency window (omega_prime=20.0, n=64); "
         "powers will grow"),
        (["kernel", "--n", "8", "--omega-prime", "8"],
         "kernel failed: |growth| reaches 33 inside the frequency window (omega_prime=8.0, n=8); "
         "powers will grow"),
    ], ids=["solve", "kernel"])
    def test_unstable_window_under_warnings_as_errors_is_one_line(self, tmp_path, argv, line):
        out = tmp_path / "u.csv"
        command, env = cli_command([*argv, "--out", str(out)])
        proc = subprocess.run(command, env=dict(env, PYTHONWARNINGS="error"),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 1
        assert proc.stderr == line + "\n"
        assert not out.exists()

    def test_stable_window_prints_nothing(self, tmp_path):
        # the kernel table of the benchmark's verification sweep
        proc = run_cli(["kernel", "--n", "256", "--omega-prime", "3", "--times", "0.25,1",
                        "--xs=-3:3:61", "--out", str(tmp_path / "k.csv")])
        assert proc.returncode == 0
        assert proc.stderr == ""

    @pytest.mark.parametrize("command", ["solve", "kernel"])
    def test_far_point_oracle_is_zero_under_warnings_as_errors(self, tmp_path, command):
        # x^2 overflows at x = 1e200 in the closed forms: the Gaussian there is 0, not an error
        out = tmp_path / "u.csv"
        argv, env = cli_command([command, "--n", "64", "--xs=1e200,0", "--out", str(out)])
        proc = subprocess.run(argv, env=dict(env, PYTHONWARNINGS="error"),
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert proc.stderr == ""
        header, rows = read_csv(out)
        assert [row[1] for row in rows] == ["1e+200", "0.0"]
        assert rows[0][header.index("oracle")] == "0.0"


class TestConverge:
    # n=32 with a radius-3 window pokes just outside the stability band; the
    # warning is expected and the offending modes carry negligible data mass
    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    def test_errors_decrease_and_order_near_one(self, tmp_path):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "32,64,128", "--g", "gaussian:1,1",
                     "--omega", "4", "--omega-prime", "3", "--times", "0.5",
                     "--xs=-2:2:9", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["n", "max_err", "regime_flag"]
        errs = [float(r[1]) for r in rows if r[0] != "order"]
        assert errs == sorted(errs, reverse=True)
        assert all(r[2] == "False" for r in rows if r[0] != "order")
        order = [float(r[1]) for r in rows if r[0] == "order"]
        assert len(order) == 1 and 0.7 <= order[0] <= 1.3

    def test_exact_zero_error_fails_without_rows(self, tmp_path, capsys):
        # zero data is solved exactly, and an order fitted through zero errors means
        # nothing; omega'=1 keeps n=16 inside the stability band, so nothing warns
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "16,32,64", "--omega-prime", "1", "--g", "gaussian:0,1",
                     "--xs=0,1", "--out", str(out)]) == 1
        assert not out.exists()
        assert capsys.readouterr().err == (
            "converge failed at n=16: the error is exactly 0, so no convergence order can be fitted\n")

    def test_needs_three_sizes(self):
        assert main(["converge", "--n-list", "32,64"]) == 2
        assert main(["converge"]) == 2

    def test_rejects_repeated_sizes(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "64,64,64", "--out", str(out)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            "configuration error: converge needs distinct grid sizes, got 64,64,64\n")

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_fails_without_rows(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "32,48,64", "--omega-prime", "20",
                     "--times", "10", "--xs", "0,1", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("converge failed at n=32: non-finite value at t=10.0, x=0.0; ")
        assert err.count("\n") == 1

    def test_non_finite_result_prints_no_numpy_warnings(self, tmp_path):
        out = tmp_path / "conv.csv"
        proc = run_cli(["converge", "--n-list", "32,48,64", "--omega-prime", "20",
                        "--times", "10", "--xs", "0,1", "--out", str(out)])
        assert proc.returncode == 1
        assert "encountered in" not in proc.stderr
        assert proc.stderr.splitlines()[-1].startswith("converge failed at n=32: ")

    def test_quadrature_failure_is_one_line(self, tmp_path):
        # samples of modulus 2.1e308 overflow the oracle's sup bound, so it finds no window
        f = tmp_path / "huge.csv"
        f.write_text("-1,1.5e308,1.5e308\n0,1.5e308,1.5e308\n1,1.5e308,1.5e308\n", encoding="utf-8")
        out = tmp_path / "conv.csv"
        proc = run_cli(["converge", "--n-list", "64,128,256", "--omega-prime", "2",
                        "--g", f"sampled:{f}", "--times", "0.5", "--xs", "0,0.5", "--out", str(out)])
        assert proc.returncode == 1
        assert not out.exists()
        assert "Traceback" not in proc.stderr
        assert proc.stderr.count("\n") == 1
        assert proc.stderr == ("converge failed: could not find an integration window "
                               "for data bounded by inf\n")

    def test_large_sampled_data_converges(self, tmp_path):
        # the oracle's tolerance is relative to the integral too, so data of size 1e7
        # converges, with 1e7 times the errors of the same data of size 1
        errs = []
        for peak in ("1", "1e7"):
            f = tmp_path / f"g{peak}.csv"
            f.write_text(f"-1,0,0\n0,{peak},0\n1,0,0\n", encoding="utf-8")
            out = tmp_path / f"conv{peak}.csv"
            assert main(["converge", "--n-list", "64,128,256", "--omega-prime", "2", "--g", f"sampled:{f}",
                         "--times", "0.5", "--xs", "0,0.5", "--out", str(out)]) == 0
            _, rows = read_csv(out)
            errs.append(np.array([float(row[1]) for row in rows[:3]]))
        assert np.allclose(errs[1], 1e7 * errs[0], rtol=1e-12, atol=0)

    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    def test_quadrature_reference_once_per_time(self, monkeypatch, tmp_path):
        calls = []
        real = oracle.classical_column

        def counting(bc, t, xs):
            calls.append((t, tuple(np.asarray(xs).tolist())))
            return real(bc, t, xs)

        monkeypatch.setattr(oracle, "classical_column", counting)
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "32,64,128", "--g", "bump:0,1", "--times", "0.5,1",
                     "--xs=-1.5:1.5:7", "--out", str(out)]) == 0
        assert [t for t, _ in calls] == [0.5, 1.0]
        assert all(len(set(xs)) == 7 for _, xs in calls)
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["32", "64", "128", "order"]

    def test_times_and_xs_parsed_once(self, monkeypatch, tmp_path):
        flags = []
        real = hyperheat.cli._parse_floats

        def counting(flag, text):
            flags.append(flag)
            return real(flag, text)

        monkeypatch.setattr(hyperheat.cli, "_parse_floats", counting)
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "64,128,256", "--times", "0.5", "--xs=-2:2:7",
                     "--out", str(out)]) == 0
        assert flags == ["times", "xs"]


@pytest.mark.parametrize("argv, message", [
    (["solve"], "need at least one query point"),
    (["kernel"], "need at least one query point"),
    (["converge", "--n-list", "16,32,64"], "need at least one query point"),
    (["converge", "--n-list", "16,32,64", "--g", "bump:0,1"], "need at least one query point"),
], ids=["solve", "kernel", "converge-gaussian", "converge-bump"])
def test_empty_query_set_is_config_error(tmp_path, argv, message):
    out = tmp_path / "out.csv"
    proc = run_cli([*argv, "--xs=0:1:0", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("params, got", [("1,inf", "1.0,inf"), ("1,nan", "1.0,nan"),
                                         ("inf,1", "inf,1.0"), ("1,0", "1.0,0.0")])
def test_bad_gaussian_is_one_line_before_any_numpy_warning(tmp_path, params, got):
    # a fresh interpreter: in-process, numpy's warnings would go to pytest, not to stderr
    out = tmp_path / "out.csv"
    proc = run_cli(["solve", "--g", f"gaussian:{params}", "--xs", "0,1", "--out", str(out)])
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: gaussian needs a finite a and a finite b > 0, got {got}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["kernel", "--omega-prime", "inf"], "need 0 < omega_prime <= n, got inf"),
    (["kernel", "--omega-prime", "nan"], "need 0 < omega_prime <= n, got nan"),
    (["kernel", "--times=0:1:0"], "need at least one query time"),
    (["solve", "--g", "bump:0,nan"], "bump needs a finite center and a finite width > 0, got 0.0,nan"),
    (["solve", "--g", "bump:inf,1"], "bump needs a finite center and a finite width > 0, got inf,1.0"),
    (["solve", "--xs=a,1"], "--xs expects a,b,c or lo:hi:count with a whole count >= 0, got 'a,1'"),
    (["kernel", "--times=0.5,b"],
     "--times expects a,b,c or lo:hi:count with a whole count >= 0, got '0.5,b'"),
    (["solve", "--g", "gaussian:1"], "--g expects gaussian:a,b (two numbers), got 'gaussian:1'"),
    (["solve", "--g", "bump:0"], "--g expects bump:c,w (two numbers), got 'bump:0'"),
    (["solve", "--g", "indicator:0"], "--g expects indicator:lo,hi (two numbers), got 'indicator:0'"),
    (["solve", "--g", "gaussian:1,2,3"], "--g expects gaussian:a,b (two numbers), got 'gaussian:1,2,3'"),
    (["converge", "--n-list", "16,x,64"], "--n-list expects whole numbers a,b,c, got '16,x,64'"),
    (["solve", "--g", "sampled:bad.csv"], "--g file 'bad.csv', line 3: expected x,re,im, got '1,2'"),
    (["validate", "--seed", "-1"], "--seed expects a whole number >= 0, got -1"),
    (["kernel", "--n", "4", "--omega-prime", "100", "--times", "0.5", "--xs", "0,1"],
     "need 0 < omega_prime <= n, got 100.0"),
    (["solve", "--n", "4", "--omega", "1", "--omega-prime", "4.5", "--xs", "0,1"],
     "need 0 < omega_prime <= n, got 4.5"),
], ids=["radius-inf", "radius-nan", "kernel-no-times", "bump-nan-width", "bump-inf-center",
        "xs-list", "times-list", "gaussian-one", "bump-one", "indicator-one", "gaussian-three",
        "n-list", "sampled-line", "negative-seed", "radius-above-n", "radius-half-above-n"])
def test_bad_input_is_one_line_config_error(tmp_path, monkeypatch, capsys, argv, message):
    monkeypatch.chdir(tmp_path)
    Path("bad.csv").write_text("0,1,0\n\n1,2\n", encoding="utf-8")   # line 3 lacks its imaginary part
    out = tmp_path / "out.csv"
    assert main([*argv, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("argv", [["solve", "--xs", "0,1"], ["kernel", "--xs", "0"],
                                  ["validate", "--n", "2"]], ids=["solve", "kernel", "validate"])
def test_unwritable_out_is_one_line_config_error(tmp_path, capsys, argv):
    out = str(tmp_path / "missing" / "out.csv")
    assert main([*argv, "--out", out]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: cannot write --out file {out!r}: No such file or directory\n")


def test_closed_stdout_pipe_ends_quietly():
    # 16,008 rows (1.4 MB) outgrow the pipe's buffer, so the writer meets the closed end
    argv, env = cli_command(["solve", "--n", "128", "--times", "0.25:2:8", "--xs=-4:4:2001"])
    proc = subprocess.Popen(argv, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        assert proc.stdout.readline() == b"t,x,u_re,u_im_diag,oracle,abs_err\r\n"
        proc.stdout.close()
        err = proc.stderr.read().decode()
        assert proc.wait(timeout=120) == 1
    finally:
        proc.kill()
        proc.stderr.close()
    assert err == ""        # no traceback, and no "Exception ignored" line from the last flush


_SURFACE = ["solve", "--n", "64", "--times", "0.25:2:8", "--xs=-4:4:2001"]


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="needs the /dev/full device")
@pytest.mark.parametrize("argv", [[*_SURFACE, "--out", "/dev/full"], _SURFACE, ["validate", "--n", "2"]],
                         ids=["solve-out", "solve-stdout", "validate-stdout"])
def test_failed_write_is_one_line(argv):
    # the surface outgrows the buffers, so its writes fail while rows remain; validate's
    # few rows fail only at the final flush
    cmd, env = cli_command(argv)
    with open("/dev/full", "wb") as full:
        proc = subprocess.run(cmd, env=env, stdout=full, stderr=subprocess.PIPE, text=True, timeout=120)
    assert proc.returncode == 1
    assert proc.stderr == f"{argv[0]} failed: cannot write output: No space left on device\n"


def test_solving_commands_load_no_scipy(tmp_path):
    # the quadrature oracle is numpy only: no command loads scipy, whether it
    # integrates (converge of non-Gaussian data, rates) or not
    samples = tmp_path / "g.csv"
    samples.write_text("-1,0,0\n0,1,0\n1,0,0\n", encoding="utf-8")
    loaded = run_fresh(f"""
import sys
import hyperheat, hyperheat.cli
from hyperheat import cli, evolution, oracle
evolution.solve(evolution.SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=oracle.gaussian(),
                                      times=(0.5, 1.0), xs=(-1.0, 0.0, 0.5)))
out = {str(tmp_path / "out.csv")!r}
assert cli.main(["kernel", "--n", "64", "--times", "0.5,1", "--xs=-1:1:5", "--out", out]) == 0
for g in ("gaussian:1,1", "indicator:-1,1", {f"sampled:{samples}"!r}):
    assert cli.main(["solve", "--n", "64", "--g", g, "--xs", "0,0.5", "--out", out]) == 0
for g in ("gaussian:1,1", "bump:0,1", "indicator:-1,1", {f"sampled:{samples}"!r}):
    assert cli.main(["converge", "--n-list", "16,32,64", "--g", g, "--xs", "0,0.5", "--out", out]) == 0
cli.main(["rates", "--out", out])     # exits 1 on the known red quad_order verdict
assert "gauss_transform" in open(out, encoding="utf-8").read()
print(sorted(m for m in sys.modules if m.partition(".")[0] == "scipy"))
""")
    assert loaded == "[]\n"


@pytest.mark.parametrize("argv", [["solve", "--n", "64"], ["solve", "--n", "128"], ["solve", "--n", "256"],
                                  ["converge", "--n-list", "64,128,256"]],
                         ids=["solve-64", "solve-128", "solve-256", "converge"])
def test_narrow_gaussian_is_solved(tmp_path, argv):
    # adaptive quadrature misses data this narrow; the closed form integrates nothing
    out = tmp_path / "out.csv"
    proc = run_cli([*argv, "--g", "gaussian:1,1e4", "--times", "0.5", "--xs", "0,1", "--out", str(out)])
    assert proc.returncode == 0
    # converge reports its fitted order on stderr; nothing else may appear there
    lines = proc.stderr.splitlines()
    assert len(lines) == (1 if argv[0] == "converge" else 0)
    assert all(line.startswith("fitted convergence order: ") for line in lines)
    assert out.exists()


@pytest.mark.parametrize("spec", ["1:2", "0:1:2.5", "0:1:-1"])
def test_malformed_range_names_its_syntax(tmp_path, capsys, spec):
    out = tmp_path / "out.csv"
    assert main(["solve", f"--xs={spec}", "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --xs expects a,b,c or lo:hi:count with a whole count >= 0, got {spec!r}\n")
    assert not out.exists()


@pytest.mark.parametrize("warning_mode", ["default", "error"])
@pytest.mark.parametrize("flag, spec", [("xs", "-1e308:1e308:20"), ("xs", "-1e308:1e308:1"),
                                        ("times", "-1e308:1e308:3")])
def test_overflowing_range_is_one_line_config_error(tmp_path, flag, spec, warning_mode):
    # every endpoint is finite, but hi - lo is not; numpy must not warn about it first
    out = tmp_path / "out.csv"
    argv, env = cli_command(["solve", "--n", "8", f"--{flag}={spec}", "--out", str(out)])
    proc = subprocess.run(argv, env=dict(env, PYTHONWARNINGS=warning_mode), capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 2
    assert proc.stderr == f"configuration error: --{flag} expects lo, hi and hi - lo finite, got {spec!r}\n"
    assert not out.exists()


@pytest.mark.parametrize("to_file", [False, True], ids=["stdout", "out"])
def test_allocation_failure_is_one_line(tmp_path, monkeypatch, capsys, to_file):
    # a stub: numpy refuses the n=3037000500 samples (181 GiB) at once, but a test must not ask
    message = "Unable to allocate 181. GiB for an array with shape (24296004000,) and data type int64"

    def refuse(config):
        raise MemoryError(message)

    monkeypatch.setattr(evolution, "solve", refuse)
    out = tmp_path / "out.csv"
    argv = ["solve", "--n", "3037000500", "--xs", "0"] + (["--out", str(out)] if to_file else [])
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.err == f"solve failed: not enough memory: {message}\n"
    assert captured.out == ""
    assert not out.exists()


class TestFlags:
    def test_parser_is_built_once_and_each_call_keeps_its_defaults(self, tmp_path):
        from hyperheat.cli import build_parser

        assert build_parser() is build_parser()
        assert main(["solve", "--n", "64", "--out", str(tmp_path / "u.csv")]) == 0
        # validate's own default n=8 (n=64 would be refused with exit 2)
        assert build_parser().parse_args(["validate"]).n == 8
        assert main(["validate", "--out", str(tmp_path / "v.csv")]) == 0
        assert build_parser().parse_args(["kernel"]).n == 256

    @pytest.mark.parametrize("argv", [["kernel", "--omega", "2"], ["rates", "--g", "bump"],
                                      ["validate", "--xs", "0"], ["solve", "--seed", "7"],
                                      ["converge", "--n", "64"]])
    def test_unread_flag_exits_2(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err


class TestRates:
    def test_sweep_rows_and_exit(self, tmp_path, capsys):
        out = tmp_path / "rates.csv"
        # the gaussian-quadrature order fit cannot land in a 1/n bracket: the
        # lattice sum is spectrally exact, so its errors sit at the float floor
        # and that one verdict honestly fails (exit 1)
        assert main(["rates", "--out", str(out)]) == 1
        assert "quad_order" in capsys.readouterr().err
        header, rows = read_csv(out)
        assert header == ["check", "param", "observed", "bound_or_bracket", "pass"]
        by_check = {}
        for r in rows:
            by_check.setdefault(r[0], []).append(r)
        for n in (1, 10, 100):
            assert any(r[1] == f"n={n}" for r in by_check["p_bound"])
        failing = {r[0] for r in rows if r[4] == "False"}
        assert failing == {"quad_order"}
