import csv
import math

import numpy as np
import pytest

import hyperheat.transform
from hyperheat import oracle
from hyperheat.cli import main, parse_boundary
from hyperheat.grid import GridFunction


def read_csv(path):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


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


class TestValidate:
    def test_fresh_build_passes(self, capsys):
        assert main(["validate", "--n", "8", "--seed", "42"]) == 0
        out = capsys.readouterr().out
        assert "inversion" in out and "stepper-spectral" in out

    def test_max_n_guard(self, capsys):
        assert main(["validate", "--n", "32"]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_report_values_are_plain_round_trip_floats(self, tmp_path):
        out = tmp_path / "validate.csv"
        assert main(["validate", "--n", "4", "--out", str(out)]) == 0
        _, rows = read_csv(out)
        for row in rows:
            assert "np." not in row[1]  # numpy scalar reprs must not leak
            float(row[1])

    def test_fault_injection_names_inversion(self, monkeypatch, capsys):
        real_inverse = hyperheat.transform.inverse

        def corrupted(f, method="auto"):
            out = real_inverse(f, method)
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
        # omega'=20 lies far outside the stability band at n=64: growth^640 overflows
        out = tmp_path / "u.csv"
        assert main(["solve", "--n", "64", "--omega-prime", "20", "--times", "10",
                     "--xs", "0,1", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("solve failed: non-finite value at t=10.0, x=0.0; "
                              "max |growth| in the band is ")
        assert err.count("\n") == 1

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

    def test_determinism_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        args = ["solve", "--n", "64", "--times", "0.25,0.5", "--xs=-1:1:9", "--seed", "7"]
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_flag_matches_single_thread(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        base = ["solve", "--n", "64", "--times", "0.5", "--xs=-1:1:13"]
        assert main(base + ["--out", str(a), "--threads", "1"]) == 0
        assert main(base + ["--out", str(b), "--threads", "3"]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_threads_default_comes_from_env(self, monkeypatch):
        from hyperheat.cli import build_parser

        monkeypatch.setenv("HYPERHEAT_THREADS", "4")
        assert build_parser().parse_args(["solve"]).threads == 4
        monkeypatch.delenv("HYPERHEAT_THREADS")
        assert build_parser().parse_args(["solve"]).threads == 1


class TestKernelCommand:
    def test_table_matches_gaussian(self, tmp_path):
        out = tmp_path / "kernel.csv"
        assert main(["kernel", "--n", "256", "--omega-prime", "3",
                     "--times", "0.5", "--xs", "0,1,2", "--out", str(out)]) == 0
        header, rows = read_csv(out)
        assert header == ["t", "z", "kernel_re", "kernel_im_diag", "oracle", "abs_err"]
        assert len(rows) == 3
        assert abs(float(rows[0][2]) - 1 / math.sqrt(2 * math.pi)) <= 5e-3
        assert all(float(r[3]) <= 1e-10 for r in rows)

    def test_rejects_t_zero(self):
        assert main(["kernel", "--n", "64", "--times", "0", "--xs", "0"]) == 2


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

    def test_needs_three_sizes(self):
        assert main(["converge", "--n-list", "32,64"]) == 2
        assert main(["converge"]) == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_result_fails_without_rows(self, tmp_path, capsys):
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "32,48,64", "--omega-prime", "20",
                     "--times", "10", "--xs", "0,1", "--out", str(out)]) == 1
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("converge failed at n=32: non-finite value at t=10.0, x=0.0; ")
        assert err.count("\n") == 1

    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    def test_quadrature_reference_once_per_point(self, monkeypatch, tmp_path):
        calls = []
        real = oracle.classical_solution

        def counting(bc, t, x):
            calls.append((t, x))
            return real(bc, t, x)

        monkeypatch.setattr(oracle, "classical_solution", counting)
        out = tmp_path / "conv.csv"
        assert main(["converge", "--n-list", "32,64,128", "--g", "bump:0,1", "--times", "0.5",
                     "--xs=-1.5:1.5:7", "--out", str(out)]) == 0
        assert len(calls) == 7 and len(set(calls)) == 7
        _, rows = read_csv(out)
        assert [r[0] for r in rows] == ["32", "64", "128", "order"]


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
