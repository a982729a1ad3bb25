"""Property tests of the exact identities, judged by the tolerances in ``hyperheat.checks``,
the stacked criteria against one draw at a time, and the consistency of the rate verdicts
with the bounds they print."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hyperheat import GridFunction, GridParams, checks, transform
from hyperheat.transform import BoundaryCorrections

from conftest import stepper_ratio_per_slice


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


CRITERIA = [(checks.inversion, checks.inversion_ratio, 1),
            (checks.convolution_theorem, checks.convolution_ratio, 2),
            (checks.derivative_identities, checks.derivative_ratio, 1)]


def worst_single_draw(ratio, arity, ns, trials, rng) -> float:
    """The largest ``ratio`` over the criterion's draws, made one grid function at a time."""
    ratios = []
    for n in ns:
        p = GridParams(n)
        for _ in range(trials):
            fs = [GridFunction(p, rng.standard_normal(p.space_count) + 1j * rng.standard_normal(p.space_count))
                  for _ in range(arity)]
            ratios.append(ratio(*fs))
    return max(ratios)


@pytest.mark.parametrize("criterion, ratio, arity", CRITERIA, ids=["inversion", "convolution", "derivative"])
@pytest.mark.parametrize("ns, trials", [((1,), 1), ((1,), 4), ((1, 2, 4, 8), 3), ((2, 16), 1)])
@pytest.mark.parametrize("seed", [3, 11, 12345])
def test_stacked_criterion_equals_worst_single_draw(criterion, ratio, arity, ns, trials, seed):
    stacked = criterion(ns, trials, np.random.default_rng(seed))
    assert stacked == worst_single_draw(ratio, arity, ns, trials, np.random.default_rng(seed))


@pytest.mark.parametrize("seed", [3, 11, 12345])
def test_stacked_stepper_equals_per_slice_reference(monkeypatch, seed):
    # n = 1 steps 0 times; supported_ns adds uncorrected runs of 0 to 8 steps
    args = ((1, 2, 4), 1)
    stacked = checks.stepper_vs_spectral(*args, np.random.default_rng(seed), supported_ns=(2, 4, 8))
    monkeypatch.setattr(checks, "_stepper_ratio", stepper_ratio_per_slice)
    assert stacked == checks.stepper_vs_spectral(*args, np.random.default_rng(seed), supported_ns=(2, 4, 8))


# An additive residual of 1e-7 breaks the 1e-9 (1 + max|f|) tolerances of a slice of
# order 1 and fits those of a slice of order 1e6; a tolerance taken over the whole
# stack would hide it.
PLANT = 1e-7


def _plant(monkeypatch, case):
    if case == "inversion":
        inverse = transform.inverse
        monkeypatch.setattr(transform, "inverse", lambda f: inverse(f) + PLANT)
    elif case == "convolution":
        convolve = checks.convolve
        monkeypatch.setattr(checks, "convolve", lambda f, g: convolve(f, g) + PLANT)
    else:
        corrections = transform.boundary_corrections

        def shifted(f):
            corr = corrections(f)
            return BoundaryCorrections(corr.e + PLANT, corr.f_corr)

        monkeypatch.setattr(transform, "boundary_corrections", shifted)


@pytest.mark.parametrize("case, ratio, arity", [(c, r, a) for (_, r, a), c in
                                                zip(CRITERIA, ["inversion", "convolution", "derivative"])])
def test_each_slice_keeps_its_own_tolerance(monkeypatch, case, ratio, arity):
    p = GridParams(2)
    rng = np.random.default_rng(5)
    z = rng.standard_normal((arity, 2, p.space_count)) + 1j * rng.standard_normal((arity, 2, p.space_count))
    z[:, 0] *= 1e6                      # slice 0 is large, slice 1 of order 1
    _plant(monkeypatch, case)
    singles = [ratio(*(GridFunction(p, f[i]) for f in z)) for i in range(2)]
    assert singles[0] < 1.0 < singles[1]
    assert ratio(*(GridFunction(p, f) for f in z)) == max(singles)


def test_rate_bound_text_agrees_with_verdict():
    rows = checks.rate_verdicts()
    assert len(rows) == 16
    for check, param, observed, bound, ok in rows:
        if bound.startswith("<="):
            assert ok == (observed <= float(bound[2:])), (check, param)
        else:
            lo, hi = (float(v) for v in bound.strip("[]").split(","))
            assert ok == (lo <= observed <= hi), (check, param)
