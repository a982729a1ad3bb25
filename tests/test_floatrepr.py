import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from conftest import run_fresh
from hyperheat import _floatrepr


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
                  elements=st.floats(allow_nan=False, allow_infinity=False)))
def test_arrays_match_repr(a):
    assert_reprs(a)


def test_importing_the_cli_builds_no_table():
    out = run_fresh("import hyperheat.cli, hyperheat._floatrepr as f; print(f._g is None, f._tables)")
    assert out.split() == ["True", "{}"]
