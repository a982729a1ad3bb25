from pathlib import Path
from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import run_fresh
from hyperheat import _floatrepr, cli


def assert_reprs(values):
    """Each row of ``reprs`` is ``repr`` of its value, padded with NULs to ``WIDTH``."""
    a = np.asarray(values, dtype=np.float64)
    rows = _floatrepr.reprs(a)
    assert rows.shape == (a.size, _floatrepr.WIDTH) and rows.dtype == np.uint8
    want = b"".join(repr(v).encode("ascii").ljust(_floatrepr.WIDTH, b"\0") for v in a.tolist())
    assert rows.tobytes() == want


def from_bits(bits):
    return np.asarray(bits, dtype=np.uint64).view(np.float64)


def test_every_exponent_with_extreme_significands():
    # the smallest, next, middle and largest significands of each binade, both signs
    significands = np.array([0, 1, 2, 3, 1 << 51, (1 << 52) - 2, (1 << 52) - 1], dtype=np.uint64)
    exponents = np.arange(1, 2047, dtype=np.uint64) << np.uint64(52)
    bits = (exponents[:, None] | significands).ravel()
    assert_reprs(from_bits(bits))
    assert_reprs(-from_bits(bits))


def test_subnormals():
    # 5e-324, 1e-323, 8e-323 and 1e-322 among them: one and two digits
    assert_reprs(from_bits(np.arange(1, 1 << 16)))
    assert_reprs(-from_bits(np.arange(1, 1 << 16, 97)))


def test_powers_of_ten_zeros_and_notation_switches():
    assert_reprs([float(f"1e{k}") for k in range(-323, 309)])
    switches = [1e-05, 9.99e-05, 0.0001, 0.001, 1e16, 9999999999999998.0, 1e15, 123456789012345.6]
    near = [np.nextafter(v, d) for v in switches for d in (0.0, np.inf)]
    assert_reprs([0.0, -0.0, *switches, *near, *(-v for v in switches)])


def test_integers_near_1e16_and_1e17():
    for centre in (1e16, 1e17, 2.0**53):
        assert_reprs(centre + np.arange(-40, 41) * np.spacing(centre))
    assert_reprs(np.arange(-1000, 1000, dtype=np.float64) * 7919)


@settings(max_examples=100, deadline=None)
@given(hnp.arrays(np.float64, st.integers(0, 300),
                  elements=st.floats(allow_nan=False, allow_infinity=False)),
       st.integers(1, 64))
def test_arrays_match_repr(a, values_per_pass):
    # passes of 1-64 values, so that most arrays cross a pass's seam
    with mock.patch.object(_floatrepr, "PASS", values_per_pass):
        assert_reprs(a)


def test_importing_the_cli_builds_no_table():
    # the formatter builds its tables at import: a run that writes no large table skips both
    out = run_fresh("import sys, hyperheat.cli; print('hyperheat._floatrepr' in sys.modules)")
    assert out.split() == ["False"]


# six threads of one interpreter that each write the pricing surface through cli.main, the
# first use of the formatter in that process; the exit codes, then each table's bytes
_THREADED_SOLVES = """
import sys, threading
from hyperheat import cli
sys.setswitchinterval(1e-5)
start = threading.Barrier(6)
codes = [None] * 6
def run(i):
    start.wait()
    codes[i] = cli.main([*{args!r}, "--out", {out!r} + str(i)])
threads = [threading.Thread(target=run, args=(i,)) for i in range(6)]
for thread in threads:
    thread.start()
for thread in threads:
    thread.join(60)
print(*codes, *(thread.is_alive() for thread in threads))
"""


def test_threads_write_the_tables_of_a_serial_run(tmp_path):
    # three interpreters, one after another (run at once, they hit the lazily built tables'
    # race far less often): every thread exits 0 and writes the serial run's bytes
    args = ["solve", "--n", "64", "--times", "0.25:2:8", "--xs=-4:4:2001"]
    serial = tmp_path / "serial.csv"
    assert cli.main([*args, "--out", str(serial)]) == 0
    for p in range(3):
        out = tmp_path / f"process{p}-"
        codes_and_alive = run_fresh(_THREADED_SOLVES.format(args=args, out=str(out))).split()
        assert codes_and_alive == ["0"] * 6 + ["False"] * 6
        for i in range(6):
            assert Path(f"{out}{i}").read_bytes() == serial.read_bytes()
