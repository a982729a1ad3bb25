"""Property tests of the exact identities, judged by the tolerances in ``hyperheat.checks``,
and the consistency of the rate verdicts with the bounds they print."""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperheat import GridFunction, GridParams, checks


@st.composite
def supported_functions(draw, count):
    """``count`` random complex grid functions on one grid ``n <= 16``, each on a random contiguous support."""
    p = GridParams(draw(st.integers(1, 16)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fs = []
    for _ in range(count):
        length = draw(st.integers(1, p.space_count))
        start = draw(st.integers(0, p.space_count - length))
        v = np.zeros(p.space_count, dtype=complex)
        v[start:start + length] = rng.standard_normal(length) + 1j * rng.standard_normal(length)
        fs.append(GridFunction(p, v))
    return fs


class TestIdentityProperties:
    @settings(max_examples=40, deadline=None)
    @given(fs=supported_functions(1))
    def test_inversion(self, fs):
        assert checks.inversion_ratio(*fs) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(fs=supported_functions(2))
    def test_convolution_theorem(self, fs):
        assert checks.convolution_ratio(*fs) <= 1.0

    @settings(max_examples=40, deadline=None)
    @given(fs=supported_functions(1))
    def test_difference_identities(self, fs):
        assert checks.derivative_ratio(*fs) <= 1.0



def test_rate_bound_text_agrees_with_verdict():
    rows = checks.rate_verdicts()
    assert len(rows) == 16
    for check, param, observed, bound, ok in rows:
        if bound.startswith("<="):
            assert ok == (observed <= float(bound[2:])), (check, param)
        else:
            lo, hi = (float(v) for v in bound.strip("[]").split(","))
            assert ok == (lo <= observed <= hi), (check, param)
