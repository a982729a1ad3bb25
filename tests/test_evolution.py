import contextlib
import dataclasses
import math
import sys
import threading
import tracemalloc
import warnings
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperheat import checks, evolution
from hyperheat import (
    EvolutionOverflowError,
    GridFunction,
    GridParams,
    SolveConfig,
    Window,
    boundary_corrections,
    convolve,
    evolve,
    forward,
    gaussian,
    gaussian_heat_kernel,
    integrate,
    kernel,
    kernel_slice,
    propagator,
    sampled,
    solve,
    spectral_hat,
    spectral_symbols,
    stability_radius,
    step,
)
from hyperheat.evolution import (
    _chirp,
    _chirp_query,
    _restricted_forward,
    _query_step,
    _truncated_samples,
    _windowed_symbol,
)

from conftest import (random_grid_function, random_stack, reference_query, reference_restricted_forward,
                      same_bits, solve_via_convolution)


def supported_random(params, lo, hi, rng):
    """Random data supported on grid indices [lo, hi] (inclusive)."""
    v = np.zeros(params.space_count, dtype=complex)
    width = hi - lo + 1
    v[params.position(lo): params.position(hi) + 1] = (
        rng.standard_normal(width) + 1j * rng.standard_normal(width)
    )
    return GridFunction(params, v)


class TestStep:
    def test_constant_unchanged(self):
        p = GridParams(2)
        c = GridFunction(p, np.full(8, 1.7 - 0.3j))
        assert np.array_equal(step(c).values, c.values)

    def test_delta_example(self):
        p = GridParams(2)
        out = step(GridFunction.delta(p, j=0)).values
        expect = np.zeros(8, dtype=complex)
        expect[p.position(-2)] = 2
        expect[p.position(-1)] = -4
        expect[p.position(0)] = 3
        assert np.array_equal(out, expect)

    def test_support_spreads_left_by_two(self, rng):
        p = GridParams(4)
        f = supported_random(p, -3, 5, rng)
        out = step(f).values
        assert np.all(out[: p.position(-5)] == 0)
        assert np.all(out[p.position(5) + 1:] == 0)


class TestEvolve:
    def test_zero_steps_returns_boundary(self, rng):
        g = random_grid_function(GridParams(3), rng)
        slices = evolve(g, 0)
        assert len(slices) == 1 and np.array_equal(slices[0].values, g.values)

    def test_slice_zero_exact_and_sequence(self):
        p = GridParams(2)
        g = GridFunction.delta(p, j=0)
        slices = evolve(g, 3)
        assert len(slices) == 4
        assert np.array_equal(slices[0].values, g.values)
        assert np.array_equal(slices[1].values, step(g).values)
        assert np.array_equal(slices[2].values, step(step(g)).values)
        assert np.array_equal(slices[3].values, step(step(step(g))).values)

    def test_linearity(self, rng):
        p = GridParams(4)
        g1, g2 = random_grid_function(p, rng), random_grid_function(p, rng)
        a, b = 2.0 - 1j, 0.5
        lhs = evolve(a * g1 + b * g2, 4)[4].values
        rhs = a * evolve(g1, 4)[4].values + b * evolve(g2, 4)[4].values
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())

    def test_step_bounds_validated(self):
        g = GridFunction.zeros(GridParams(2))
        with pytest.raises(ValueError):
            evolve(g, 4)  # n^2 - 1 = 3 is the most
        with pytest.raises(IndexError):
            evolve(g, 2)[3]  # beyond the requested horizon

    def test_overflow_guard(self):
        # amplification ~ (1+4n) per step blows past 1e100 around step 62 at n=10
        g = GridFunction.delta(GridParams(10), j=0)
        with pytest.raises(EvolutionOverflowError, match="max modulus"):
            evolve(g, 99)


class TestSpectralHat:
    def test_zero_steps_is_identity(self, rng):
        ghat = forward(random_grid_function(GridParams(2), rng))
        assert np.array_equal(spectral_hat(ghat, None, 0).values, ghat.values)

    def test_delta_one_step_no_corrections(self):
        p = GridParams(2)
        g = GridFunction.delta(p, j=0)
        got = spectral_hat(forward(g), None, 1)
        ref = forward(evolve(g, 1)[1])
        assert np.abs(got.values - ref.values).max() <= 1e-12

    @pytest.mark.parametrize("n", [2, 4, 8])
    def test_supported_data_needs_no_corrections(self, n, rng):
        p = GridParams(n)
        for steps in range(0, min(9, p.time_count)):
            lo = -n * n + 2 + 2 * steps
            hi = n * n - 3
            if lo > hi:
                continue  # grid too small for this many steps off the boundary
            g = supported_random(p, lo, hi, rng)
            ref = forward(evolve(g, steps)[steps])
            got = spectral_hat(forward(g), None, steps)
            scale = max(1.0, ref.max_abs())
            assert np.abs(got.values - ref.values).max() <= 1e-8 * scale

    @pytest.mark.parametrize("n", [2, 4])
    def test_arbitrary_data_with_corrections(self, n, rng):
        p = GridParams(n)
        steps = min(6, p.time_count - 1)  # the time grid only holds n^2 slices
        g = random_grid_function(p, rng)
        slices = evolve(g, steps)
        corr = [boundary_corrections(s).f_corr for s in slices[:steps]]
        ghat = forward(g)
        for i, s in enumerate(slices):
            ref = forward(s)
            got = spectral_hat(ghat, corr, i)
            scale = max(1.0, ref.max_abs())
            assert np.abs(got.values - ref.values).max() <= 1e-8 * scale

    def test_growth_comes_from_the_cached_symbol(self, rng):
        # criterion 4 takes spectral_hat at every step index; none rebuilds the full-grid growth
        with mock.patch.object(evolution, "propagator", wraps=propagator) as growth:
            checks.stepper_vs_spectral((2, 4), 1, rng)
        assert growth.call_count == 0
        p = GridParams(4)
        ghat = forward(random_grid_function(p, rng))
        expected = ghat.values * propagator(4, p.space_indices()) ** 3
        assert same_bits(spectral_hat(ghat, None, 3).values, expected)

    def test_correction_list_length_checked(self, rng):
        p = GridParams(2)
        ghat = forward(random_grid_function(p, rng))
        with pytest.raises(ValueError):
            spectral_hat(ghat, [], 2)


class TestConvolve:
    def test_unit_mass_delta_is_identity(self, rng):
        p = GridParams(3)
        f = random_grid_function(p, rng)
        d = GridFunction.delta(p, j=0, value=p.n)
        assert np.abs(convolve(f, d).values - f.values).max() <= 1e-14 * (1 + f.max_abs())

    def test_zero_annihilates(self, rng):
        p = GridParams(2)
        f = random_grid_function(p, rng)
        assert np.all(convolve(f, GridFunction.zeros(p)).values == 0)

    def test_commutative(self, rng):
        p = GridParams(4)
        f, g = random_grid_function(p, rng), random_grid_function(p, rng)
        a, b = convolve(f, g).values, convolve(g, f).values
        assert np.abs(a - b).max() <= 1e-10 * (1 + np.abs(a).max())

    @pytest.mark.parametrize("n", [1, 2, 3, 8])
    def test_stack_equals_row_by_row_bit_for_bit(self, n, rng):
        p = GridParams(n)
        f, g = random_stack(p, rng), random_stack(p, rng)
        rows = [convolve(GridFunction(p, a), GridFunction(p, b)).values for a, b in zip(f.values, g.values)]
        assert same_bits(convolve(f, g).values, np.array(rows))
        with pytest.raises(ValueError, match="stack shapes differ"):
            convolve(f, GridFunction(p, g.values[0]))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_transform_factorises(self, n, rng):
        p = GridParams(n)
        for _ in range(10):
            f, g = random_grid_function(p, rng), random_grid_function(p, rng)
            assert checks.convolution_ratio(f, g) <= 1.0

    def test_delta_pair_spectrum(self):
        # two plain deltas: the convolution transform is the constant 1/n^2
        p = GridParams(2)
        d = GridFunction.delta(p, j=0)
        out = forward(convolve(d, d)).values
        assert np.abs(out - 1.0 / (p.n * p.n)).max() <= 1e-14


class TestWindow:
    # the windowed symbol at t = 0 (growth^0 = 1) is the window over the full grid
    def test_band_count_and_value(self):
        p = GridParams(4)
        w = Window(p, 2.5)
        values = _windowed_symbol(w, 0.0).values
        nonzero = np.flatnonzero(values)
        assert nonzero.size == 2 * math.floor(2.5 * 4) + 1
        assert np.all(values[nonzero] == 0.5)
        assert np.array_equal(nonzero - p.n**2, w.band_indices())

    def test_even(self):
        p = GridParams(4)
        values = _windowed_symbol(Window(p, 1.75), 0.0)
        for k in range(1, p.n**2):
            assert values.values[p.position(-k)] == values.values[p.position(k)]

    def test_full_grid_case(self):
        p = GridParams(3)
        w = Window(p, p.n)  # radius n covers every frequency
        assert np.all(_windowed_symbol(w, 0.0).values == 0.5)

    def test_rejects_radius_outside_the_window_rule(self):
        for radius in (0.0, -1.0, 2.5, math.inf, math.nan):
            with pytest.raises(ValueError, match=rf"^need 0 < omega_prime <= n, got {radius}$"):
                Window(GridParams(2), radius)

    def test_band_equals_the_solve_coefficients_bit_for_bit(self):
        # kernel_slice takes its powers where solve and kernel take theirs
        p = GridParams(16)
        w = Window(p, 1.5)
        ks = w.band_indices()
        for t in (0.0, 0.25, 1.0, 7.5):
            values = _windowed_symbol(w, t).values
            column = 0.5 * evolution._powers(p.n, propagator(p.n, ks), (t,))[:, 0]
            assert np.array_equal(values[ks + p.n**2], column)
            assert np.count_nonzero(values) == np.count_nonzero(column)


class TestPropagator:
    def test_growth_at_zero_and_power_zero(self):
        p = GridParams(8)
        growth = propagator(p.n, p.space_indices())
        assert growth[p.position(0)] == 1.0
        # exact everywhere, so the windowed symbol at t = 0 is the bare window
        assert np.all(growth ** 0 == 1.0)

    def test_magnitude_closed_form(self):
        # |growth|^2 = 1 - 8 n sin^2(t/2) cos(t) + 16 n^2 sin^4(t/2), t = pi x/n
        for n in (4, 64):
            p = GridParams(n)
            direct = np.abs(propagator(n, p.space_indices())) ** 2
            theta = np.pi * p.space_points() / n
            s2 = np.sin(theta / 2.0) ** 2
            closed = 1.0 - 8.0 * n * s2 * np.cos(theta) + 16.0 * n * n * s2 * s2
            assert np.abs(direct - closed).max() <= 1e-12 * (1 + closed.max())

    def test_band_values_bit_identical_to_full_grid(self):
        # pins spectral_hat (full grid) and the band powers of solve and kernel
        # to the growth built from the cached symbol, bit for bit
        for n in (7, 64, 129):
            p = GridParams(n)
            full = 1 + spectral_symbols(p).values ** 2 / n
            for lo, hi in ((-3 * n, 3 * n), (-n * n, n * n - 1), (5 - n * n, 17)):
                ks = np.arange(max(lo, -n * n), min(hi, n * n - 1) + 1)
                assert np.array_equal(propagator(n, ks), full[ks + n * n])

    def test_stability_radius_closed_form_matches_scan(self):
        def scanned(n):
            k = np.arange(0, n * n)
            theta = np.pi * k / (n * n)
            ok = 2.0 * n * np.sin(theta / 2.0) ** 2 <= np.cos(theta)
            bad = np.flatnonzero(~ok)
            return ((bad[0] - 1) if bad.size else (n * n - 1)) / n

        for n in range(1, 513):
            assert stability_radius(n) == scanned(n), n

    def test_stability_radius_matches_band_to_first_order(self):
        for n in (64, 256):
            p = GridParams(n)
            radius = stability_radius(n)
            band = math.sqrt(2 * n) / math.pi
            # the discrete edge sits just inside sqrt(2n)/pi
            assert 0 < band - radius < band / n + 2.0 / n
            x = p.space_points()
            g = np.abs(propagator(n, p.space_indices()))
            assert g[np.abs(x) <= radius].max() <= 1.0
            above = g[(np.abs(x) > radius) & (np.abs(x) <= band)]
            assert above.size == 0 or above.max() > 1.0


class TestKernel:
    def test_mass_is_one_small_grids(self):
        for n in (8, 16):
            p = GridParams(n)
            for radius in (1.5, 2.0):
                for t in (0.25, 1.0):
                    w = Window(p, radius)
                    mass = integrate(kernel_slice(w, t))
                    assert abs(mass - 1.0) <= 1e-12

    def test_real_up_to_rounding_and_even_to_first_order(self):
        # Hermitian symmetry of the band makes the value exactly real; it does
        # NOT make it even: the propagator carries an O(x^3/n) phase, so the
        # odd component decays like 1/n rather than vanishing.
        for n in (64, 128):
            p = GridParams(n)
            w = Window(p, 3.0)
            zs = np.array([0.0, 0.5, 1.25])
            a, b = kernel(w, (0.5,), zs).u[0], kernel(w, (0.5,), -zs).u[0]
            assert np.abs(a.imag).max() <= 1e-10
            assert np.abs(b.imag).max() <= 1e-10
            assert np.abs(a - b).max() <= 1.0 / n

    # the radius-2 window pokes out of the stability band at n=8; the warning is expected
    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    def test_point_evaluation_matches_full_slice(self):
        p = GridParams(8)
        w = Window(p, 2.0)
        sl = kernel_slice(w, 0.75)
        js = (-16, -3, 0, 5)
        table = kernel(w, (0.75,), [j / p.n for j in js]).u
        for j, value in zip(js, table[0]):
            assert abs(value - sl.values[p.position(j)]) <= 1e-12

    @pytest.mark.parametrize("zs", [np.linspace(-3, 3, 61), np.array([0.0, 0.7, -2.25])])
    def test_table_matches_reference_query(self, zs):
        # 61 uniform offsets take the chirp-z evaluation, 3 the query matrix
        n, times = 256, (0.25, 1.0)
        w = Window(GridParams(n), 3.0)
        ks = w.band_indices()
        growth = propagator(n, ks)
        coeffs = np.stack([0.5 * growth ** math.floor(n * t) for t in times], axis=1)
        assert (_query_step(zs, w.cutoff + 1) is None) == (zs.size == 3)
        assert np.abs(kernel(w, times, zs).u - reference_query(zs, ks, coeffs, n)).max() <= 1e-12

    def test_gaussian_shape_moderate_grid(self):
        # n=64 is already close to the classical kernel near the origin
        p = GridParams(64)
        w = Window(p, 3.0)
        err = abs(kernel(w, (0.5,), (0.0,)).u[0, 0].real - gaussian_heat_kernel(0.5, 0.0))
        assert err <= 2e-2

    def test_truncation_ringing_stays_small_in_l1(self):
        # small negative lobes are admissible; their total weight is bounded
        p = GridParams(128)
        w = Window(p, 3.0)
        for t in (0.25, 1.0):
            sl = kernel_slice(w, t)
            l1 = np.sum(np.abs(sl.values)) / p.n
            assert l1 <= 1.1

    def test_result_carries_points_and_band_growth(self):
        # omega'=20 lies far outside the stability band at n=64, so |growth| > 1 there
        w = Window(GridParams(64), 20.0)
        message = r"\|growth\| reaches 56.3376 .*omega_prime=20.0, n=64"
        with pytest.warns(RuntimeWarning, match=message) as record:
            res = kernel(w, np.array([0.5, 1.0]), np.array([0.0, 0.5]))
        assert len(record) == 1 and record[0].filename == __file__    # the caller's line
        assert res.times == (0.5, 1.0) and res.xs == (0.0, 0.5)
        assert all(type(v) is float for v in res.times + res.xs)
        assert res.max_growth == np.abs(propagator(64, w.band_indices())).max() > 1.0

    def test_full_grid_window_counts_the_unpaired_index(self):
        # at omega' = n the largest |growth| is 1 + 4n, at the unpaired index -n^2
        window = Window(GridParams(8), 8.0)
        with pytest.warns(RuntimeWarning, match=r"\|growth\| reaches 33 inside"):
            res = kernel(window, (0.5,), np.linspace(-1, 1, 5))
        assert res.max_growth == 33.0 == np.abs(propagator(8, window.band_indices())).max()

    def test_rejects_time_outside_range(self):
        w = Window(GridParams(4), 1.0)
        for t in (-0.5, 0.0, 4.0):
            with pytest.raises(ValueError, match=r"query times must lie in \(0, n\)"):
                kernel(w, (t,), (0.0,))

    def test_rejects_non_finite_offset(self):
        w = Window(GridParams(4), 1.0)
        for z in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel(w, (0.5,), (0.0, z))


class TestSolveConfig:
    def test_validation(self):
        bc = gaussian()
        with pytest.raises(ValueError):
            SolveConfig(n=8, omega=9.0, omega_prime=2.0, boundary=bc, times=(0.5,), xs=(0.0,))
        with pytest.raises(ValueError):
            SolveConfig(n=8, omega=2.0, omega_prime=0.0, boundary=bc, times=(0.5,), xs=(0.0,))
        with pytest.raises(ValueError):
            SolveConfig(n=8, omega=2.0, omega_prime=2.0, boundary=bc, times=(0.0,), xs=(0.0,))
        with pytest.raises(ValueError):
            SolveConfig(n=8, omega=2.0, omega_prime=2.0, boundary=bc, times=(-1.0,), xs=(0.0,))
        for x in (math.nan, -math.inf):
            with pytest.raises(ValueError, match="finite"):
                SolveConfig(n=8, omega=2.0, omega_prime=2.0, boundary=bc, times=(0.5,), xs=(0.0, x))

    def test_regime_flag(self):
        bc = gaussian()
        c = SolveConfig(n=256, omega=4.0, omega_prime=3.0, boundary=bc, times=(0.5,), xs=(0.0,))
        assert c.regime_flag is False  # would need n > e^9
        c = SolveConfig(n=10**9, omega=1.2, omega_prime=2.0, boundary=bc, times=(0.5,), xs=(0.0,))
        assert c.regime_flag is True


class TestSolve:
    def test_zero_boundary(self):
        config = SolveConfig(n=32, omega=2.0, omega_prime=2.0,
                             boundary=gaussian(0.0, 1.0), times=(0.5,), xs=(0.0, 1.0))
        res = solve(config)
        assert np.all(res.u == 0)

    def test_gaussian_against_closed_form(self):
        bc = gaussian()
        xs = tuple(np.linspace(-2, 2, 21))
        config = SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=bc,
                             times=(0.5,), xs=xs)
        res = solve(config)
        ref = np.array([[bc.closed_form(t, x).real for x in xs] for t in res.times])
        assert np.abs(res.u.real - ref).max() <= 1e-2
        assert np.abs(res.u.imag).max() <= 1e-10

    def test_linear_in_boundary_data(self, rng):
        xs = (0.0, 0.5, -1.0)
        times = (0.25, 0.75)

        def run(fn):
            cfg = SolveConfig(n=32, omega=3.0, omega_prime=2.0, boundary=fn,
                              times=times, xs=xs)
            return solve(cfg).u

        g1 = gaussian(1.0, 1.0)
        g2 = gaussian(0.5, 2.0)
        combined = run(lambda y: 2.0 * g1(y) - 1.5 * g2(y))
        parts = 2.0 * run(g1) - 1.5 * run(g2)
        assert np.abs(combined - parts).max() <= 1e-10 * (1 + np.abs(parts).max())

    def test_overflow_in_the_query_prints_no_numpy_warnings(self):
        # growth^640 overflows; the cubed points are not uniform, so they take
        # the factored matrix, and 6001 of them span three blocks of this band
        config = SolveConfig(n=64, omega=4.0, omega_prime=20.0, boundary=gaussian(),
                             times=(10.0,), xs=tuple(np.linspace(-1, 1, 6001) ** 3))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            res = solve(config)
        assert res.first_non_finite() is not None
        assert not [w for w in caught if "encountered in" in str(w.message)]

    def test_warns_outside_stability_band(self):
        # band at n=16 is sqrt(32)/pi ~ 1.8; a radius-4 window pokes out of it
        config = SolveConfig(n=16, omega=3.0, omega_prime=4.0,
                             boundary=gaussian(), times=(0.5,), xs=(0.0,))
        with pytest.warns(RuntimeWarning, match="growth") as record:
            solve(config)
        assert len(record) == 1 and record[0].filename == __file__    # the caller's line


class TestGrowthPowers:
    # numpy's `growth ** m` multiplies repeatedly below m = 100 and drifts to 7.6e-15
    # of the largest power there; the powers from one logarithm stay within 2e-16
    @pytest.mark.parametrize("n", [128, 512, 8192])
    def test_match_extended_precision(self, n):
        steps = np.array([1, 7, 50, 99, 100, 101, n // 2, 2 * n])
        growth = propagator(n, Window(GridParams(n), 3.0).band_indices())
        powers = evolution._powers(n, growth, tuple((steps + 0.5) / n))
        exact = growth.astype(np.clongdouble)[:, None] ** steps
        # relative to the largest power, 1 at k = 0
        assert np.abs(powers - exact).max() / np.abs(exact).max() <= 1e-15

    def test_zero_steps_leave_the_data_transform(self, rng):
        # t < 1/n takes m = 0 steps: the coefficients are exactly half the data transform
        params = GridParams(64)
        ks = Window(params, 3.0).band_indices()
        ghat = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
        coeffs = 0.5 * ghat[:, None] * evolution._powers(64, propagator(64, ks), (0.01, 0.5))
        assert np.array_equal(coeffs[:, 0], 0.5 * ghat)


@st.composite
def band_cases(draw):
    """A grid ``n <= 64``, contiguous sample and frequency ranges on it, and a data seed."""
    n = draw(st.integers(1, 64))
    half = n * n

    def contiguous():
        length = draw(st.integers(1, min(2 * half, 192)))
        start = draw(st.integers(-half, half - length))
        return np.arange(start, start + length)

    return n, contiguous(), contiguous(), draw(st.integers(0, 2**32 - 1))


@st.composite
def chirp_z_cases(draw):
    """Ranges ``ins`` and ``outs`` anywhere about 0, 1 to 3 rows of data, a chirp and a data seed."""
    def contiguous():
        start = draw(st.integers(-150, 150))
        return np.arange(start, start + draw(st.integers(1, 100)))

    n = draw(st.integers(1, 64))
    rate = draw(st.floats(-1.0, 1.0))
    chirp = draw(st.sampled_from([lambda m: _chirp(m, n), lambda m: evolution._rate_chirp(m, rate)]))
    return contiguous(), contiguous(), draw(st.integers(1, 3)), chirp, draw(st.integers(0, 2**32 - 1))


@settings(max_examples=60, deadline=None)
@given(case=chirp_z_cases())
@example(case=(np.arange(-40, -10), np.arange(5, 60), 2, lambda m: _chirp(m, 4), 0))
@example(case=(np.arange(-7, 9), np.arange(-30, 3), 3, lambda m: evolution._rate_chirp(m, 0.3), 1))
def test_chirp_z_routine_matches_direct_sum(case):
    ins, outs, rows, chirp, seed = case
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal((rows, ins.size)) + 1j * rng.standard_normal((rows, ins.size))
    got = evolution._chirp_z(evolution._chirp_part(ins, outs, chirp), vals)
    ref = np.array([[chirp(np.array([p]))[0] * np.sum(row * chirp(ins) * np.conj(chirp(p - ins)))
                     for p in outs] for row in vals])
    assert got.shape == (rows, outs.size)
    assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(vals).sum(axis=1).max())


class TestBandTransform:
    @settings(max_examples=60, deadline=None)
    @given(case=band_cases())
    @example(case=(16, np.arange(-256, 256), np.arange(-256, 256), 0))
    @example(case=(64, np.arange(-4096, -3904), np.arange(3904, 4096), 1))
    def test_chirp_z_matches_direct_sum(self, case):
        n, js, ks, seed = case
        rng = np.random.default_rng(seed)
        vals = rng.standard_normal(js.size) + 1j * rng.standard_normal(js.size)
        got = _restricted_forward(js, vals, ks, n)
        ref = reference_restricted_forward(js, vals, ks, n)
        assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(vals).sum() / n)

    def test_fft_length_is_the_smallest_7_smooth_integer(self):
        def smooth(m):
            for p in (2, 3, 5, 7):
                while m % p == 0:
                    m //= p
            return m == 1

        lengths = [m for m in range(1, 5200) if smooth(m)]
        for m in range(1, 5001):
            assert evolution._fft_length(m) == next(s for s in lengths if s >= m)
        assert evolution._fft_length(720_896) == 725_760        # the n=65536 forward transform
        # the solve-band forward (4096 samples onto k = 0..1536) and query (1537 onto 41 points)
        for ins, outs, size in ((np.arange(-2048, 2048), np.arange(1537), 5670),
                                (np.arange(1537), np.arange(-20, 21), 1600)):
            _, _, filter_hat = evolution._chirp_part(ins, outs, lambda m: _chirp(m, 512))
            assert filter_hat.size == evolution._fft_length(ins.size + outs.size - 1) == size

    # small grids put part of the window outside the stability band; the warning is expected
    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    @pytest.mark.parametrize("imaginary", [False, True])
    @pytest.mark.parametrize("n", range(1, 9))
    def test_solve_transforms_the_parts_onto_the_half_band(self, n, imaginary):
        for radius in (n / 2, n - 0.25, float(n)):
            config, vals = _random_data_solve(n, radius, np.linspace(-1, 1, 5), n, imaginary)
            with mock.patch.object(evolution, "_band_table", wraps=evolution._band_table) as spy:
                solve(config)
            parts = spy.call_args.args[1]
            js, _ = _truncated_samples(config)
            ks = np.arange(Window(config.params, radius).cutoff + 1)      # 0..n^2 at omega' = n
            rows = (vals.real, vals.imag) if imaginary else (vals.real,)
            assert parts.shape == (len(rows), ks.size)
            bound = 1e-12 * (1 + np.abs(vals).sum() / n)
            for got, row in zip(parts, rows):
                assert np.abs(got - reference_restricted_forward(js, row + 0j, ks, n)).max() <= bound
            if radius == n:                       # ghat(-n^2) from the k = n^2 entries
                unpaired = reference_restricted_forward(js, vals + 0j, np.array([-n * n]), n)[0]
                assert abs(parts[0, -1] + (1j * parts[1, -1] if imaginary else 0) - unpaired) <= bound

    def test_chirp_reduction_exact_at_large_n(self):
        # m^2 mod 4n^2 is one int64 step for every |m| up to isqrt(2^63 - 1), at any n
        def exact(m, n):
            period = 4 * n * n
            return np.exp(-2j * np.pi * np.array([(v * v) % period / period for v in m]))

        top = evolution._MAX_CHIRP_INDEX
        for n in (1000, 10**5, 10**9, 2**31):
            m = [-top, 1 - 2 * n * n, -n * n - 1, -3_000_000_017, -3, 0, 2_718_281_829,
                 12_345_678_901 % (2 * n * n), 2 * n * n - 1, top]
            m = [v for v in m if abs(v) <= top]
            assert np.abs(_chirp(np.array(m), n) - exact(m, n)).max() <= 1e-15
        # beyond the bound the square overflows int64: both chirps refuse with one line
        for m in ([0, top + 1], [-top - 1, 5], [1 - 2 * 2**62]):
            for chirp in (lambda m: _chirp(m, 2**31), lambda m: evolution._rate_chirp(m, 0.1)):
                with pytest.raises(ValueError, match=rf"^chirp index beyond {top}: its square "
                                                     r"overflows int64$"):
                    chirp(np.array(m))

    def test_solve_matches_reference_path(self):
        n = 1024
        bc = gaussian()
        config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=bc,
                             times=(0.5, 1.0), xs=tuple(np.linspace(-2, 2, 9)))
        got = solve(config).u
        js = np.arange(-4 * n, 4 * n)
        ks = np.arange(-3 * n, 3 * n + 1)
        ghat = reference_restricted_forward(js, bc(js / n).astype(complex), ks, n)
        growth = 1 + spectral_symbols(GridParams(n)).values[ks + n * n] ** 2 / n
        for i, t in enumerate(config.times):
            q = 0.5 * ghat * growth ** math.floor(n * t)
            for j, x in enumerate(config.xs):
                assert abs(got[i, j] - np.sum(q * np.exp(1j * np.pi * ks / n * x)) / n) <= 1e-12

    def test_solve_and_kernel_stay_off_the_full_grid(self):
        n = 4096   # one complex array over the 2n^2 grid would take 537 MB
        config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=(0.5, 1.0), xs=tuple(np.linspace(-2, 2, 41)))
        cached = spectral_symbols.cache_info().currsize
        tracemalloc.start()
        try:
            res = solve(config)
            kernel(Window(GridParams(n), 3.0), (0.5, 1.0), np.linspace(-3, 3, 61))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert spectral_symbols.cache_info().currsize == cached
        assert res.first_non_finite() is None


@st.composite
def uniform_query_cases(draw):
    """A grid ``n <= 256``, a window band, a uniform ``lo:hi:count`` set (either order), a seed."""
    n = draw(st.integers(1, 256))
    radius = draw(st.floats(0.5, min(4.0, n)))   # radius n is the full grid
    # six decimals: arbitrary steps, but no subnormal range, where linspace
    # itself strays by more than 4 ulps from an arithmetic progression
    lo, hi = (draw(st.floats(-8.0, 8.0).map(lambda v: round(v, 6))) for _ in range(2))
    count = draw(st.integers(2, 600))
    return n, radius, np.linspace(lo, hi, count), draw(st.integers(0, 2**32 - 1))


@st.composite
def scattered_query_cases(draw):
    """A grid ``n <= 256``, a contiguous band of up to 1600 indices with ``|k| <= 8n``
    (perfect-square sizes drawn often), 1-3 times, up to 300 points, a block size and a seed."""
    size = draw(st.one_of(st.integers(1, 40).map(lambda r: r * r), st.integers(1, 1600)))
    n = draw(st.integers(max(-(-size // 16), math.isqrt(size // 2) + 1), 256))
    start = draw(st.integers(max(-8 * n, -n * n), min(8 * n, n * n) - size))
    times, points = draw(st.integers(1, 3)), draw(st.integers(1, 300))
    entries = draw(st.integers(1, 4096))   # block sizes from one point up to every point at once
    return n, np.arange(start, start + size), times, points, entries, draw(st.integers(0, 2**32 - 1))


def _matrix_path_only(monkeypatch):
    """Make ``solve`` treat every query set as non-uniform."""
    monkeypatch.setattr(evolution, "_query_step", lambda xs, bands: None)


def _coefficient_scale(config):
    """``sum_k |c_k| / n`` over the solve's band coefficients at any time (``|growth| <= 1``)."""
    js, gvals = _truncated_samples(config)
    ks = Window(config.params, config.omega_prime).band_indices()
    return np.abs(0.5 * _restricted_forward(js, gvals, ks, config.n)).sum() / config.n


class TestUniformQuery:
    @settings(max_examples=60, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(256, 4.0, np.linspace(8.0, -8.0, 600), 0))
    @example(case=(3, 1.0, np.linspace(-0.5, 7.25, 16), 1))
    def test_chirp_z_matches_direct_sum(self, case):
        n, radius, xs, seed = case
        ks = Window(GridParams(n), radius).band_indices()
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((ks.size, 2)) + 1j * rng.standard_normal((ks.size, 2))
        h = _query_step(xs, 1)
        assert h is not None
        got = _chirp_query(coeffs, ks, xs, h, n)
        ref = reference_query(xs, ks, coeffs, n)
        assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(coeffs).sum(axis=0).max() / n)

    @settings(max_examples=60, deadline=None)
    @given(case=scattered_query_cases())
    @example(case=(32, np.arange(-64, 65), 2, 11, evolution._QUERY_BLOCK_ENTRIES, 0))
    @example(case=(32, np.arange(-64, 65), 2, 6103, evolution._QUERY_BLOCK_ENTRIES, 1))
    @example(case=(64, np.arange(-1280, 1281), 1, 400, evolution._QUERY_BLOCK_ENTRIES, 2))
    @example(case=(7, np.arange(3, 4), 3, 50, 1, 3))
    def test_factored_matrix_matches_direct_sum(self, case):
        n, ks, times, points, entries, seed = case
        rng = np.random.default_rng(seed)
        coeffs = rng.standard_normal((ks.size, times)) + 1j * rng.standard_normal((ks.size, times))
        # |x| <= 8: beyond it every route, the reference too, loses phase alike
        xs = rng.uniform(-8.0, 8.0, points)
        with mock.patch.object(evolution, "_QUERY_BLOCK_ENTRIES", entries):
            got = evolution._matrix_query(coeffs, ks, xs, n)
        ref = reference_query(xs, ks, coeffs, n)
        assert np.abs(got - ref).max() <= 1e-12 * (1 + np.abs(coeffs).sum(axis=0).max() / n)

    def test_rate_chirp_exact_at_large_index(self):
        # rate m^2 reaches 1e17 turns here; in floating point its phase would be lost
        m = np.array([0, 1, -7, 393_217, -2_000_003, 94_906_267, 3_000_000_000])
        for rate in (0.1 / (4 * 65536), -1 / 3, 0.2421875, 1e-12, 0.0):
            exact = [float(Fraction(rate) * v * v % 1) for v in m.tolist()]
            got = evolution._rate_chirp(m, rate)
            assert np.abs(got - np.exp(2j * np.pi * np.array(exact))).max() <= 1e-15

    def test_matches_matrix_path_on_large_grid(self, monkeypatch):
        n = 1024
        config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=(0.5, 1.0), xs=tuple(np.linspace(-2, 2, 4001)))
        got = solve(config).u
        _matrix_path_only(monkeypatch)
        ref = solve(config).u
        assert np.abs(got - ref).max() <= 1e-12 * (1 + _coefficient_scale(config))

    # omega' = n puts the window outside the stability band; the warning is expected
    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    @pytest.mark.parametrize("radius", [3.0, 8.0])
    def test_one_query_per_call(self, radius):
        # the unpaired index of omega' = n rides in the same query: a uniform set
        # of |xs|^2 >= |ks| points takes the chirp-z once, any other set the matrix
        for xs in (np.linspace(-1, 1, 21), np.linspace(-1, 1, 5)):
            config, _ = _random_data_solve(8, radius, xs, 0, imaginary=False)
            window = Window(config.params, radius)
            expected = (1, 0) if xs.size ** 2 >= window.cutoff + 1 else (0, 1)
            assert _query_calls(lambda: solve(config)) == expected
            assert _query_calls(lambda: kernel(window, config.times, xs)) == expected

    # at n=8, omega' = 3 reaches outside the stability band; the warning is expected
    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    @pytest.mark.parametrize("n", [8, 512, 4096])
    def test_chirp_z_from_one_fine_block(self, n):
        # B = ceil(sqrt(|ks|)) points, one fine block of the matrix, take the chirp-z; one fewer do not
        window = Window(GridParams(n), 3.0)
        block = math.isqrt(window.cutoff) + 1
        for count, expected in ((block - 1, (0, 1)), (block, (1, 0))):
            xs = np.linspace(-2, 2, count)
            config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                                 times=(0.5,), xs=tuple(xs))
            assert _query_calls(lambda: solve(config)) == expected
            assert _query_calls(lambda: kernel(window, (0.5,), xs)) == expected

    def test_set_below_one_fine_block_on_a_large_band(self):
        # 41 points against B = 79 at n=2048: the matrix, which matches the full band
        config, _ = _random_data_solve(2048, 3.0, np.linspace(-2, 2, 41), 0, imaginary=True)
        u = solve(config).u
        ref, bound = _full_band_reference(config)
        assert np.abs(u - ref).max() <= bound

    def test_gaussian_surface_is_real(self):
        config = SolveConfig(n=128, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=tuple(np.linspace(0.25, 2, 8)),
                             xs=tuple(np.linspace(-4, 4, 2001)))
        assert _query_step(np.asarray(config.xs), 1) is not None
        assert not solve(config).u.imag.any()

    def test_non_uniform_sets_take_the_matrix_path(self, monkeypatch):
        config = SolveConfig(n=256, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=(0.5, 1.0), xs=tuple(np.linspace(-3, 3, 301)))
        xs = np.asarray(config.xs)
        perm = np.random.default_rng(5).permutation(xs.size)

        def run(points):
            return solve(dataclasses.replace(config, xs=tuple(points))).u

        assert _query_step(xs[perm], 1) is None
        uniform, shuffled = run(xs), run(xs[perm])
        assert np.abs(shuffled - uniform[:, perm]).max() <= 1e-12 * (1 + _coefficient_scale(config))

        few = [(0.3,), (-1.0, 0.5)]
        default = [run(points) for points in few]
        _matrix_path_only(monkeypatch)
        assert np.array_equal(run(xs[perm]), shuffled)
        for points, u in zip(few, default):
            assert np.array_equal(run(points), u)


def _query_calls(run):
    """The calls of ``run()`` to the chirp-z and to the factored matrix query."""
    with mock.patch.object(evolution, "_matrix_query", wraps=evolution._matrix_query) as matrix, \
            mock.patch.object(evolution, "_chirp_query", wraps=evolution._chirp_query) as chirp:
        run()
    return chirp.call_count, matrix.call_count


def _random_data_solve(n, radius, xs, seed, imaginary):
    """A solve of random samples, with an imaginary part when ``imaginary``,
    on ``|x| <= min(2, n/2)`` at two times, and the samples themselves."""
    omega = min(2.0, n / 2)
    count = math.ceil(omega * n) - math.ceil(-omega * n)
    rng = np.random.default_rng(seed)
    vals = rng.standard_normal(count) + (1j * rng.standard_normal(count) if imaginary else 0.0)
    config = SolveConfig(n=n, omega=omega, omega_prime=radius, boundary=lambda y: vals,
                         times=(0.25, 0.5), xs=tuple(xs))
    return config, vals


def _full_band_reference(config, ghat=None):
    """``reference_query`` over the whole band with the solve's coefficients (data
    transform ``ghat``, by default the solve's), and its bound ``1e-14 (1 + sum|c|/n)``.

    Where ``|growth| > 1`` in the band the bound is four times that: there the
    full band's routes reach 1.6e-14 too, as the half band's do, while inside the
    stability band both stay within 2e-15.
    """
    js, gvals = _truncated_samples(config)
    ks = Window(config.params, config.omega_prime).band_indices()
    if ghat is None:
        ghat = _restricted_forward(js, gvals, ks, config.n)
    growth = propagator(config.n, ks)
    coeffs = 0.5 * np.reshape(ghat, (-1, 1)) * evolution._powers(config.n, growth, config.times)
    scale = 4e-14 if np.abs(growth).max() > 1.0 + 1e-12 else 1e-14
    bound = scale * (1 + np.abs(coeffs).sum(axis=0).max() / config.n)
    return reference_query(np.asarray(config.xs), ks, coeffs, config.n), bound


def _query_path(path):
    """The chirp-z path as ``solve`` chooses it, or every query set on the factored matrix."""
    if path == "chirp":
        return contextlib.nullcontext()
    return mock.patch.object(evolution, "_query_step", lambda xs, bands: None)


# small grids put part of the window outside the stability band; the warning is expected
@pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
@pytest.mark.parametrize("path", ["chirp", "matrix"])
class TestHermitianHalfBand:
    @settings(max_examples=40, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(256, 4.0, np.linspace(8.0, -8.0, 600), 0))
    @example(case=(3, 1.0, np.linspace(-0.5, 7.25, 16), 1))
    def test_real_data_has_no_imaginary_part(self, path, case):
        n, radius, xs, seed = case
        if radius == n:
            radius = n / 2                 # omega' = n has an unpaired index: tested below
        config, _ = _random_data_solve(n, radius, xs, seed, imaginary=False)
        with _query_path(path):
            u = solve(config).u
        ref, bound = _full_band_reference(config)
        assert not u.imag.any()
        assert np.abs(u - ref).max() <= bound

    @settings(max_examples=40, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(64, 3.0, np.linspace(-2.0, 2.0, 41), 2))
    def test_complex_data_is_the_sum_of_its_parts(self, path, case):
        n, radius, xs, seed = case
        if radius == n:
            radius = n / 2
        config, vals = _random_data_solve(n, radius, xs, seed, imaginary=True)
        with _query_path(path):
            u = solve(config).u
            re, im = (solve(dataclasses.replace(config, boundary=lambda y, v=part: v)).u.real
                      for part in (vals.real, vals.imag))
        ref, bound = _full_band_reference(config)
        assert np.abs(u.real - re).max() <= bound
        assert np.abs(u.imag - im).max() <= bound
        assert np.abs(u - ref).max() <= bound

    @settings(max_examples=30, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(8, 1.0, np.linspace(-1.0, 1.0, 16), 3))
    def test_full_grid_window_keeps_the_unpaired_index(self, path, case):
        # omega' = n: the band -n^2 .. n^2 - 1 pairs every index but -n^2
        n, _, xs, seed = case
        n = n % 8 + 1
        for imaginary in (False, True):
            config, _ = _random_data_solve(n, float(n), xs, seed, imaginary)
            with _query_path(path):
                u = solve(config).u
            ref, bound = _full_band_reference(config)
            assert np.abs(u.real - ref.real).max() <= bound
            assert np.abs(u.imag - ref.imag).max() <= bound

    @settings(max_examples=40, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(256, 4.0, np.linspace(8.0, -8.0, 600), 0))
    def test_kernel_is_real(self, path, case):
        n, radius, zs, _ = case
        if radius == n:
            radius = n / 2
        window = Window(GridParams(n), radius)
        times = (0.25, 0.5)
        with _query_path(path):
            u = kernel(window, times, zs).u
        config = SolveConfig(n=n, omega=n / 2, omega_prime=radius, boundary=gaussian(),
                             times=times, xs=tuple(zs))
        ref, bound = _full_band_reference(config, ghat=1.0)
        assert not u.imag.any()
        assert np.abs(u - ref).max() <= bound

    @pytest.mark.parametrize("zs", [np.linspace(-1, 1, 5), np.linspace(-1, 1, 21)])
    def test_full_grid_kernel_keeps_the_unpaired_index(self, path, zs):
        # omega' = n: the kernel's -n^2 folds into k = n^2 as a solve's does
        times = (0.25, 0.5)
        for n in (1, 3, 8):
            with _query_path(path):
                u = kernel(Window(GridParams(n), float(n)), times, zs).u
            config = SolveConfig(n=n, omega=n / 2, omega_prime=float(n), boundary=gaussian(),
                                 times=times, xs=tuple(zs))
            ref, bound = _full_band_reference(config, ghat=1.0)
            assert np.abs(u.real - ref.real).max() <= bound
            assert np.abs(u.imag - ref.imag).max() <= bound


def _cold_and_warm(run, inputs):
    """``run(x)`` for each input once with an empty plan cache, and then again with the
    plan that the last cold call left; the warm calls must build no part (the count of
    repeated solves, which each solve replaces, aside)."""
    cold = []
    for x in inputs:
        evolution._plans.clear()
        cold.append(run(x))
    kept = {key: part for key, part in evolution._plans.items() if key[0] != "calls"}
    assert kept
    warm = [run(x) for x in inputs]
    assert all(evolution._plans[key] is part for key, part in kept.items())
    return cold, warm


def _cached_arrays():
    return [v for part in evolution._plans.values() for v in part if isinstance(v, np.ndarray)]


def _entry_bytes(key, part):
    """Bytes of the arrays in a plan part and of the point sets in its key."""
    return (sum(v.nbytes for v in part if isinstance(v, np.ndarray))
            + sum(len(v) for v in key if isinstance(v, bytes)))


def _cached_bytes():
    """Bytes of the plan cache's parts and keys, as the budget counts them."""
    return sum(_entry_bytes(key, part) for key, part in evolution._plans.items())


@pytest.fixture
def empty_plans(monkeypatch):
    """A plan cache of this test's own, empty at its start."""
    monkeypatch.setattr(evolution, "_plans", evolution.OrderedDict())


# small grids put part of the window outside the stability band; the warning is expected
@pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
class TestPlan:
    @settings(max_examples=25, deadline=None)
    @given(case=uniform_query_cases())
    @example(case=(256, 4.0, np.linspace(8.0, -8.0, 600), 0))
    @example(case=(3, 1.0, np.linspace(-0.5, 7.25, 16), 1))
    @pytest.mark.parametrize("path", ["chirp", "matrix"])
    def test_warm_equals_cold_bit_for_bit(self, path, case):
        n, radius, xs, seed = case
        small = n % 8 + 1
        with _query_path(path):
            # real data, complex data, and omega' = n with its unpaired index
            for m, r, imaginary in ((n, radius, False), (n, radius, True), (small, small, True)):
                pair = [_random_data_solve(m, float(r), xs, seed + k, imaginary)[0] for k in range(2)]
                cold, warm = _cold_and_warm(lambda c: solve(c).u, pair)
                assert all(same_bits(a, b) for a, b in zip(cold, warm))
            window = Window(GridParams(n), radius)
            cold, warm = _cold_and_warm(lambda ts: kernel(window, ts, xs).u, [(0.25, 0.5), (0.25, 0.5)])
            assert same_bits(cold[0], warm[0])

    def test_sampled_complex_data_warm_equals_cold(self):
        pts = np.linspace(-3, 3, 121)
        data = [sampled([(x, complex(math.exp(-x * x), s * x * math.exp(-x * x))) for x in pts])
                for s in (-0.5, 0.25)]
        base = SolveConfig(n=128, omega=4.0, omega_prime=3.0, boundary=data[0], times=(0.5, 1.0),
                           xs=tuple(np.linspace(-2, 2, 41)))
        configs = [dataclasses.replace(base, boundary=g) for g in data]
        cold, warm = _cold_and_warm(lambda c: solve(c).u, configs)
        assert all(same_bits(a, b) for a, b in zip(cold, warm))
        assert cold[0].imag.any()

    def test_one_build_per_grid(self, empty_plans):
        config = SolveConfig(n=256, omega=4.0, omega_prime=3.0, boundary=gaussian(), times=(0.5, 1.0),
                             xs=tuple(np.linspace(-2, 2, 41)))
        with mock.patch.object(evolution, "propagator", wraps=propagator) as growth:
            for a in (1.0, 0.9, 1.1):
                solve(dataclasses.replace(config, boundary=gaussian(a, 1.0)))
            assert growth.call_count == 1
            keys = set(evolution._plans)
            # kernel shares the band and query parts of the same grid
            kernel(Window(config.params, 3.0), config.times, config.xs)
            assert growth.call_count == 1 and set(evolution._plans) == keys
        assert {key[0] for key in keys} == {"forward", "band", "chirp", "calls"}   # calls: solve's count

    def test_patched_uniform_step_still_forces_the_matrix_path(self, empty_plans):
        config = SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=gaussian(), times=(0.5,),
                             xs=tuple(np.linspace(-2, 2, 41)))
        solve(config)
        solve(config)                                  # warm on the chirp-z path
        with _query_path("matrix"):
            warm = solve(config).u
            assert "matrix" in {key[0] for key in evolution._plans}
            evolution._plans.clear()
            cold = solve(config).u
        assert same_bits(warm, cold)

    def test_unstable_window_warns_on_every_call(self, empty_plans):
        config = SolveConfig(n=16, omega=3.0, omega_prime=4.0, boundary=gaussian(), times=(0.5,),
                             xs=(0.0,))
        window = Window(config.params, 4.0)
        for _ in range(2):                             # cold, then a cache hit
            with pytest.warns(RuntimeWarning, match="growth") as record:
                solve(config)
            assert len(record) == 1 and record[0].filename == __file__
            with pytest.warns(RuntimeWarning, match="growth") as record:
                kernel(window, (0.5,), (0.0,))
            assert len(record) == 1 and record[0].filename == __file__

    def test_non_finite_data_on_a_warm_grid_fails_closed(self, empty_plans):
        config = SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=gaussian(), times=(0.5,),
                             xs=tuple(np.linspace(-2, 2, 41)))
        solve(config)
        kept = dict(evolution._plans)
        bad = dataclasses.replace(config, boundary=lambda y: np.where(y > 1, np.nan, 1.0))
        with pytest.raises(ValueError, match="non-finite"):
            solve(bad)
        assert dict(evolution._plans) == kept

    def test_result_is_fresh_and_the_cache_read_only(self, empty_plans):
        config = SolveConfig(n=64, omega=4.0, omega_prime=64.0, boundary=gaussian(), times=(0.5,),
                             xs=(0.0, 0.5, -1.0))                 # matrix path, unpaired index
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", RuntimeWarning)
            results = [solve(config).u for _ in range(2)]
            results.append(kernel(Window(config.params, 3.0), (0.5,), np.linspace(-2, 2, 41)).u)
        arrays = _cached_arrays()
        assert arrays
        for u in results:
            assert u.flags.writeable and u.flags.owndata
            assert not any(np.shares_memory(u, a) for a in arrays)
        assert not np.shares_memory(results[0], results[1])
        for a in arrays:
            assert not a.flags.writeable and a.base is None
            with pytest.raises(ValueError, match="read-only"):
                a.flat[0] = 0

    def test_budget_evicts_the_least_recently_used(self, empty_plans, monkeypatch):
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", 3000)

        def use(*keys, size=100):                        # 800 bytes per part
            for key in keys:
                evolution._part((key,), lambda: (np.zeros(size), 1.0))

        use("a"), use("b"), use("c")
        use("a")                                         # a becomes the most recent
        use("d")                                         # 3200 bytes: b, the least recent, goes
        assert list(evolution._plans) == [("c",), ("a",), ("d",)]
        use("e", "f", "g", "h")                          # each part is kept, evicting c, a, d and e
        use("big", size=400)                             # 3200 bytes alone: used, not kept
        assert list(evolution._plans) == [("f",), ("g",), ("h",)]
        assert _cached_bytes() == 2400

    def test_part_over_the_budget_is_not_kept(self, empty_plans, monkeypatch):
        config = SolveConfig(n=1024, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=(0.5, 1.0), xs=tuple(np.linspace(-2, 2, 41)))
        kept = solve(config).u
        sizes = {key: _entry_bytes(key, part) for key, part in evolution._plans.items()}
        largest = max(sizes, key=sizes.get)
        evolution._plans.clear()
        budget = sizes[largest] - 1
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", budget)
        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            u = solve(config).u
            retained = tracemalloc.get_traced_memory()[0] - before - u.nbytes
        finally:
            tracemalloc.stop()
        assert same_bits(u, kept)
        assert largest not in evolution._plans and evolution._plans    # the parts that fit are kept
        assert _cached_bytes() <= budget
        assert retained - _cached_bytes() < 4096         # no other plan array outlives the call

    def test_key_bytes_count_toward_the_budget(self, empty_plans, monkeypatch):
        # each 2001-point set keys its 3 kB centring phase by its 16 kB of points: 6.4 MB of keys
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", 1 << 20)
        for i in range(400):
            solve(SolveConfig(n=64, omega=4.0, omega_prime=3.0, boundary=gaussian(), times=(0.5,),
                              xs=tuple(np.linspace(-2 - i / 1000, 2, 2001))))
            assert _cached_bytes() <= 1 << 20
        assert any(isinstance(v, bytes) for key in evolution._plans for v in key)

    def test_retained_bytes_never_exceed_the_budget(self, empty_plans, monkeypatch):
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", 400_000)
        for n in (64, 128, 256, 64, 512, 128):
            for xs in (np.linspace(-2, 2, 41), np.array([0.0, 0.3])):
                solve(SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                                  times=(0.5,), xs=tuple(xs)))
                assert _cached_bytes() <= 400_000
        assert evolution._plans

    def test_threads_share_the_cache(self, empty_plans, monkeypatch):
        configs = [SolveConfig(n=n, omega=2.0, omega_prime=1.0, boundary=gaussian(a, 1.0),
                               times=(0.5,), xs=tuple(np.linspace(-2, 2, 41)))
                   for n in (16, 24, 32) for a in (0.9, 1.1)]
        expected = [solve(c).u for c in configs]
        # a budget for the two largest of the three grids' plans keeps the threads
        # evicting each other's parts
        sizes = [sum(_entry_bytes(key, part) for key, part in evolution._plans.items() if key[1] == n)
                 for n in (16, 24, 32)]
        budget = sum(sorted(sizes)[1:])
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", budget)
        evolution._plans.clear()
        failures = []

        def worker(seed):
            order = np.random.default_rng(seed).permutation(len(configs) * 40) % len(configs)
            try:
                for i in order:
                    if not same_bits(solve(configs[i]).u, expected[i]):
                        failures.append(i)
            except Exception as exc:                     # reported below, not lost in the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker, args=(seed,)) for seed in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        assert failures == []
        assert _cached_bytes() <= budget


def _operator_parts():
    """The samples-to-table operators in the plan cache."""
    return {key: part for key, part in evolution._plans.items() if key[0] == "operator"}


def _operator_solve(config):
    """``solve(config).u`` on the operator route: the ``|times| |xs|`` solves that
    take the spectral route, then the one that builds the operator."""
    built = len(_operator_parts())
    for _ in range(len(config.times) * len(config.xs)):
        solve(config)
    assert len(_operator_parts()) == built
    u = solve(config).u
    assert len(_operator_parts()) == built + 1
    return u


class TestOperator:
    @pytest.mark.parametrize("imaginary", [False, True])
    @pytest.mark.parametrize("n", [64, 128, 200])
    def test_matches_direct_sums(self, empty_plans, n, imaginary):
        # scattered points and a uniform set, inside the stability band
        for seed, xs in enumerate((np.linspace(-2.5, 2.5, 17), np.random.default_rng(n).uniform(-3, 3, 7))):
            config, vals = _random_data_solve(n, 3.0, xs, seed, imaginary)
            u = _operator_solve(config)
            js, _ = _truncated_samples(config)
            ks = Window(config.params, 3.0).band_indices()
            ref, bound = _full_band_reference(config, reference_restricted_forward(js, vals + 0j, ks, n))
            assert np.abs(u - ref).max() <= bound
            assert imaginary or not u.imag.any()
            assert same_bits(solve(config).u, u)           # the next call applies the same operator

    def test_built_once_after_one_solve_per_cell(self, empty_plans):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 5), 0, imaginary=True)
        cells = len(config.times) * len(config.xs)
        with mock.patch.object(evolution, "_chirp_z", wraps=evolution._chirp_z) as chirp_z:
            spectral = [solve(config).u for _ in range(cells)]
            assert not _operator_parts() and chirp_z.call_count == cells   # 5 points take the matrix
            switched = solve(config).u
            operator, = _operator_parts().values()
            kept = dict(evolution._plans)
            later = [solve(config).u for _ in range(3)]
            assert chirp_z.call_count == cells + 1            # the build, in one block at n=64
        assert all(evolution._plans[key] is part for key, part in kept.items())
        assert all(same_bits(u, spectral[0]) for u in spectral)
        assert all(same_bits(u, switched) for u in later)
        assert np.abs(switched - spectral[0]).max() <= 1e-14 * (1 + np.abs(spectral[0]).max())
        assert operator[0].shape == (cells, 4 * 64) and not operator[0].flags.writeable
        assert not [key for key in evolution._plans if key[0] == "calls"]   # the count goes at the switch

    def test_blocks_share_one_chirp_part(self, empty_plans, monkeypatch):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 5), 0, imaginary=False)
        whole = _operator_solve(config)
        evolution._plans.clear()
        monkeypatch.setattr(evolution, "_QUERY_BLOCK_ENTRIES", 1)         # one row per block
        for _ in range(len(config.times) * len(config.xs)):
            solve(config)
        with mock.patch.object(evolution, "_chirp", wraps=_chirp) as chirp:
            assert same_bits(solve(config).u, whole)
        assert chirp.call_count == 1

    @pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
    @pytest.mark.parametrize("n, radius", [(8, 8.0), (16, 4.0)], ids=["full-grid", "unstable"])
    def test_never_built_at_the_unpaired_index_or_above_unit_growth(self, empty_plans, n, radius):
        config, _ = _random_data_solve(n, radius, np.linspace(-1, 1, 3), 0, imaginary=False)
        first = solve(config)
        for _ in range(3 * len(config.times) * len(config.xs)):
            assert same_bits(solve(config).u, first.u)
        assert first.max_growth > evolution._STABLE_GROWTH      # at omega' = n, growth(n^2) = 1 + 4n
        assert not {key[0] for key in evolution._plans} & {"calls", "operator"}

    def test_never_built_over_the_budget(self, empty_plans, monkeypatch):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 41), 0, imaginary=False)
        band = 16 * (Window(config.params, 3.0).cutoff + 1) * len(config.times)
        operator = 8 * len(config.times) * len(config.xs) * 4 * 64
        # the operator must fit the budget beside the band's powers, which the call holds
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", band + operator - 1)
        for _ in range(2 * len(config.times) * len(config.xs)):
            solve(config)
        assert not {key[0] for key in evolution._plans} & {"calls", "operator"}
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", band + operator)
        _operator_solve(config)
        assert _cached_bytes() <= band + operator

    @pytest.mark.parametrize("xs, times", [(np.linspace(-2, 2, 401), (0.25, 0.5)),
                                           (np.random.default_rng(1).uniform(-2, 2, 101), (0.5,))],
                             ids=["chirp-query", "matrix-query"])
    def test_never_built_where_the_product_is_not_cheaper(self, empty_plans, xs, times):
        config, _ = _random_data_solve(64, 3.0, xs, 0, imaginary=False)
        config = dataclasses.replace(config, times=times)
        K, J = Window(config.params, 3.0).cutoff, 4 * 64
        rows = len(config.times) * xs.size
        ffts = 2 * evolution._fft_flops(K + J)
        if evolution._query_step(xs, K + 1) is not None:
            ffts += 2 * len(config.times) * evolution._fft_flops(K + xs.size)
        assert 2 * rows * J >= ffts                          # the product takes more flops than the FFTs
        assert 8 * rows * J < evolution._PLAN_BUDGET          # and would fit
        first = solve(config).u
        for _ in range(rows):
            assert same_bits(solve(config).u, first)
        assert not {key[0] for key in evolution._plans} & {"calls", "operator"}

    def test_a_set_whose_plan_does_not_fit_is_counted_and_switches(self, empty_plans, monkeypatch):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-1, 1, 2), 0, imaginary=False)
        config = dataclasses.replace(config, times=(0.5,))
        band, operator = 16 * (Window(config.params, 3.0).cutoff + 1), 8 * 2 * 4 * 64
        # the operator fits beside the band, but the forward transform's part alone does not fit
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", band + operator)
        for _ in range(len(config.times) * len(config.xs)):
            solve(config)
            assert "forward" not in {key[0] for key in evolution._plans}     # used, not kept
        assert not _operator_parts()
        solve(config)
        assert _operator_parts() and _cached_bytes() <= band + operator

    def test_an_evicted_operator_is_counted_for_again(self, empty_plans, monkeypatch):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 5), 0, imaginary=False)
        other, _ = _random_data_solve(64, 2.5, np.linspace(-2, 2, 5), 1, imaginary=False)
        cells = len(config.times) * len(config.xs)
        spectral = solve(config).u
        evolution._plans.clear()
        switched = _operator_solve(config)
        # a budget that holds the band and the operator, which another grid's plan then evicts
        band = 16 * (Window(config.params, 3.0).cutoff + 1) * len(config.times)
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", band + 8 * cells * 4 * 64)
        solve(other)
        assert not _operator_parts()
        for _ in range(cells):                               # the spectral route's bits again
            assert same_bits(solve(config).u, spectral)
        assert same_bits(solve(config).u, switched) and _operator_parts()

    def test_a_used_operator_outlives_newer_parts(self, empty_plans, monkeypatch):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 5), 0, imaginary=False)
        others = [_random_data_solve(n, 3.0, np.linspace(-2, 2, 5), 1, imaginary=False)[0] for n in (48, 56)]
        sizes = []
        for other in others:                             # each other grid's parts, on its own
            solve(other)
            sizes.append(_cached_bytes())
            evolution._plans.clear()
        switched = _operator_solve(config)
        held = sum(_entry_bytes(key, part) for key, part in evolution._plans.items()
                   if key[0] in ("band", "operator"))
        # room for the set's band and operator beside one other grid's parts, not two
        monkeypatch.setattr(evolution, "_PLAN_BUDGET", held + max(sizes))
        solve(others[0])
        assert same_bits(solve(config).u, switched)      # its operator becomes the most recent
        solve(others[1])                                 # so the first other grid's parts go first
        assert _operator_parts() and not [key for key in evolution._plans if key[1] == 48]
        assert same_bits(solve(config).u, switched)

    def test_threads_count_every_solve(self, empty_plans):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 41), 0, imaginary=False)
        failures = []

        def worker():
            try:
                for _ in range(10):
                    solve(config)
            except Exception as exc:                     # reported below, not lost in the thread
                failures.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=worker) for _ in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads) and failures == []
        # 80 solves, below the 82 cells: a lost update would leave fewer
        (calls,), = [part for key, part in evolution._plans.items() if key[0] == "calls"]
        assert calls == 80 and not _operator_parts()

    def test_kernel_counts_nothing(self, empty_plans):
        window = Window(GridParams(64), 3.0)
        for _ in range(10):
            kernel(window, (0.5,), (0.0, 1.0))
        assert {key[0] for key in evolution._plans} == {"band", "matrix"}

    def test_clearing_the_cache_restarts_the_count(self, empty_plans):
        config, _ = _random_data_solve(64, 3.0, np.linspace(-2, 2, 3), 0, imaginary=False)
        _operator_solve(config)
        evolution._plans.clear()
        _operator_solve(config)


@pytest.mark.filterwarnings("ignore:.*growth.*:RuntimeWarning")
class TestSolveViaConvolution:
    # small grids put part of the window outside the stability band; the
    # stability warning fires (by design) but the route identities still hold
    def test_agrees_with_spectral_solve_on_grid_queries(self, rng):
        n = 16
        pts = np.arange(-2 * n, 2 * n) / n
        values = rng.standard_normal(pts.size)
        bc = dict(zip(pts.tolist(), values))

        def boundary(y):
            y = np.atleast_1d(y)
            return np.array([bc.get(float(v), 0.0) for v in y])

        xs = tuple(np.arange(-8, 9) / n)  # grid-aligned queries
        config = SolveConfig(n=n, omega=2.0, omega_prime=3.0, boundary=boundary,
                             times=(0.5,), xs=xs)
        a = solve(config).u
        b = solve_via_convolution(config).u
        assert np.abs(a - b).max() <= 1e-8 * (1 + np.abs(a).max())

    def test_zero_boundary(self):
        config = SolveConfig(n=8, omega=2.0, omega_prime=2.0,
                             boundary=gaussian(0.0, 1.0), times=(0.5,), xs=(0.0,))
        assert np.all(solve_via_convolution(config).u == 0)

    def test_unit_mass_delta_reproduces_kernel(self):
        n = 16
        p = GridParams(n)

        def boundary(y):
            y = np.atleast_1d(y)
            return np.where(np.abs(y) < 0.5 / n, float(n), 0.0)  # n at cell j=0

        w = Window(p, 2.0)
        config = SolveConfig(n=n, omega=1.0, omega_prime=2.0, boundary=boundary,
                             times=(0.5,), xs=(0.0, 0.25, -0.5))
        res = solve_via_convolution(config)
        assert np.abs(res.u.real - kernel(w, config.times, config.xs).u.real).max() <= 1e-10
