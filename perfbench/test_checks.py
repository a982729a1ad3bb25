"""Each correctness check accepts today's output and rejects a wrong one."""

from __future__ import annotations

import csv

import numpy as np
import pytest

import checks
import workloads


def _rewrite(src, dst, edit):
    """Copy a CSV, applying ``edit(header, rows)`` to its parsed rows."""
    header, rows = checks.read_csv(src)
    header, rows = edit(header, rows)
    with open(dst, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh).writerows([header, *rows])
    return dst


@pytest.fixture(scope="module")
def band():
    wl = workloads.solve_band(seed=3)
    inp = wl.input(0)
    return wl, inp, wl.operate(inp, None)


@pytest.fixture(scope="module")
def surface(tmp_path_factory):
    wl = workloads.solve_surface(seed=3)
    inp = wl.input(0)
    return wl, inp, wl.operate(inp, tmp_path_factory.mktemp("surface"))


@pytest.fixture(scope="module")
def sweep(tmp_path_factory):
    wl = workloads.verify_sweep(seed=3)
    inp = wl.input(0)
    return wl, inp, wl.operate(inp, tmp_path_factory.mktemp("sweep"))


# -- solve-band: library solve against the Gaussian closed form ---------------


def test_band_check_accepts_todays_solve(band):
    wl, inp, u = band
    err = wl.check(inp, u)
    assert 0 < err <= checks.SOLVE_ERROR_CONSTANT * inp[0] / workloads.BAND_N


def test_band_check_rejects_scaled_solve(band):
    wl, inp, u = band
    with pytest.raises(checks.CheckError, match="first-order bound"):
        wl.check(inp, u * 1.01)


def test_band_check_rejects_non_finite_solve(band):
    wl, inp, u = band
    bad = u.copy()
    bad[1, 7] = np.nan
    with pytest.raises(checks.CheckError, match="non-finite"):
        wl.check(inp, bad)


# -- solve-surface: CLI CSV against the Gaussian closed form -------------------


def test_surface_check_accepts_todays_csv(surface):
    wl, inp, output = surface
    assert wl.check(inp, output) > 0


@pytest.mark.parametrize("edit", ["scale", "time-shift"])
def test_surface_check_rejects_wrong_csv(surface, tmp_path, edit):
    wl, inp, (rc, out) = surface
    n_x = len(workloads.parse_floats(workloads.SURFACE_XS))

    def wrong(header, rows):
        if edit == "scale":          # every value 5% too large
            return header, [r[:2] + [repr(1.05 * float(r[2]))] + r[3:] for r in rows]
        # values of the next time under the labels of this one
        return header, [r[:2] + rows[min(i + n_x, len(rows) - 1)][2:] for i, r in enumerate(rows)]

    bad = _rewrite(out, tmp_path / "bad.csv", wrong)
    with pytest.raises(checks.CheckError, match="first-order bound"):
        wl.check(inp, (rc, bad))


def test_surface_check_rejects_missing_rows(surface, tmp_path):
    wl, inp, (rc, out) = surface
    bad = _rewrite(out, tmp_path / "bad.csv", lambda h, rows: (h, rows[:-1]))
    with pytest.raises(checks.CheckError, match="query grid"):
        wl.check(inp, (rc, bad))


def test_surface_check_rejects_failed_exit(surface):
    wl, inp, ((_, stderr), out) = surface
    with pytest.raises(checks.CheckError, match="exited 1"):
        wl.check(inp, ((1, stderr), out))


# -- verify-sweep: kernel, converge and validate tables -------------------------


def test_sweep_check_accepts_todays_tables(sweep):
    wl, inp, output = sweep
    err = wl.check(inp, output)
    assert 0 < err <= checks.KERNEL_ERROR_CONSTANT / workloads.KERNEL_N


def _zs_times(inp):
    return workloads.parse_floats(workloads.KERNEL_TIMES), workloads.parse_floats(inp[1])


def test_kernel_check_rejects_table_shifted_by_one_offset(sweep, tmp_path):
    _, inp, (_, outs) = sweep
    times, zs = _zs_times(inp)
    # each kernel value moved to the label of the next offset (within each time)
    shift = lambda h, rows: (h, [r[:2] + rows[i + 1 if (i + 1) % len(zs) else i][2:]
                                 for i, r in enumerate(rows)])
    bad = _rewrite(outs["kernel"], tmp_path / "kernel.csv", shift)
    with pytest.raises(checks.CheckError, match="first-order bound"):
        checks.check_kernel_csv(bad, times, zs, workloads.KERNEL_N)


def test_kernel_check_rejects_wrong_offsets(sweep):
    _, inp, (_, outs) = sweep
    times, zs = _zs_times(inp)
    with pytest.raises(checks.CheckError, match="z column"):
        checks.check_kernel_csv(outs["kernel"], times, tuple(z + 0.1 for z in zs), workloads.KERNEL_N)


def _converge_table(errs, order=None):
    ns = workloads.CONVERGE_NS
    if order is None:
        order = float(-np.polyfit(np.log(ns), np.log(errs), 1)[0])
    return lambda h, rows: (h, [[str(n), repr(e), "False"] for n, e in zip(ns, errs)] + [["order", repr(order), ""]])


@pytest.mark.parametrize("errs, order, match", [
    ([0.3 * n ** -0.5 for n in workloads.CONVERGE_NS], None, "fitted order 0.5"),
    ([4e-3, 5e-3, 1e-3], None, "do not decrease"),
    ([0.3 / n for n in workloads.CONVERGE_NS], 0.97, "differs from the fit"),
])
def test_converge_check_rejects_wrong_tables(sweep, tmp_path, errs, order, match):
    _, _, (_, outs) = sweep
    bad = _rewrite(outs["converge"], tmp_path / "converge.csv", _converge_table(errs, order))
    with pytest.raises(checks.CheckError, match=match):
        checks.check_converge_csv(bad, workloads.CONVERGE_NS)


def test_converge_check_accepts_todays_order(sweep):
    _, _, (_, outs) = sweep
    order = checks.check_converge_csv(outs["converge"], workloads.CONVERGE_NS)
    assert abs(order - 1.0) < 0.05


@pytest.mark.parametrize("edit, match", [
    (lambda rows: [r if i else [r[0], "1.5", "False"] for i, r in enumerate(rows)], "out of contract"),
    (lambda rows: rows[:-1], "validate rows"),
])
def test_validate_check_rejects_wrong_tables(sweep, tmp_path, edit, match):
    _, _, (_, outs) = sweep
    bad = _rewrite(outs["validate"], tmp_path / "validate.csv", lambda h, rows: (h, edit(rows)))
    with pytest.raises(checks.CheckError, match=match):
        checks.check_validate_csv(bad)


def test_validate_check_accepts_todays_table(sweep):
    _, _, (_, outs) = sweep
    assert checks.check_validate_csv(outs["validate"]) <= 1.0


def test_sweep_check_rejects_failed_exit(sweep):
    wl, inp, (rcs, outs) = sweep
    bad = dict(rcs, validate=(1, "validation failed: inversion"))
    with pytest.raises(checks.CheckError, match="hyperheat validate exited 1"):
        wl.check(inp, (bad, outs))
