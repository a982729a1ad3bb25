import dataclasses
import math
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
    solve,
    solve_via_convolution,
    spectral_hat,
    spectral_symbols,
    stability_radius,
    step,
)
from hyperheat.evolution import (
    _chirp,
    _chirp_query,
    _restricted_forward,
    _truncated_samples,
    _uniform_step,
    _windowed_symbol,
)

from conftest import random_grid_function, reference_query, reference_restricted_forward


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
            assert values.value_at(-k) == values.value_at(k)

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
            column = evolution._coefficients(p, propagator(p.n, ks), 1.0, (t,))[:, 0]
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
            assert abs(value - sl.value_at(j)) <= 1e-12

    @pytest.mark.parametrize("zs", [np.linspace(-3, 3, 61), np.array([0.0, 0.7, -2.25])])
    def test_table_matches_reference_query(self, zs):
        # 61 uniform offsets take the chirp-z evaluation, 3 the query matrix
        n, times = 256, (0.25, 1.0)
        w = Window(GridParams(n), 3.0)
        ks = w.band_indices()
        growth = propagator(n, ks)
        coeffs = np.stack([0.5 * growth ** math.floor(n * t) for t in times], axis=1)
        assert (_uniform_step(zs) is None) == (zs.size == 3)
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
        with pytest.warns(RuntimeWarning, match=r"\|growth\| reaches 56.3376 .*omega_prime=20.0, n=64"):
            res = kernel(w, np.array([0.5, 1.0]), np.array([0.0, 0.5]))
        assert res.times == (0.5, 1.0) and res.xs == (0.0, 0.5)
        assert all(type(v) is float for v in res.times + res.xs)
        assert res.max_growth == np.abs(propagator(64, w.band_indices())).max() > 1.0

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
        with pytest.warns(RuntimeWarning, match="growth"):
            solve(config)


class TestGrowthPowers:
    # numpy's `growth ** m` multiplies repeatedly below m = 100 and drifts to 7.6e-15
    # of the largest power there; the powers from one logarithm stay within 2e-16
    @pytest.mark.parametrize("n", [128, 512, 8192])
    def test_match_extended_precision(self, n):
        steps = np.array([1, 7, 50, 99, 100, 101, n // 2, 2 * n])
        params = GridParams(n)
        growth = propagator(n, Window(params, 3.0).band_indices())
        coeffs = evolution._coefficients(params, growth, 1.0, tuple((steps + 0.5) / n))
        exact = growth.astype(np.clongdouble)[:, None] ** steps
        # relative to the largest power, 1 at k = 0
        assert np.abs(2 * coeffs - exact).max() / np.abs(exact).max() <= 1e-15

    def test_zero_steps_leave_the_data_transform(self, rng):
        # t < 1/n takes m = 0 steps: the coefficients are exactly half the data transform
        params = GridParams(64)
        ks = Window(params, 3.0).band_indices()
        ghat = rng.standard_normal(ks.size) + 1j * rng.standard_normal(ks.size)
        coeffs = evolution._coefficients(params, propagator(64, ks), ghat, (0.01, 0.5))
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
    count = draw(st.integers(evolution._MIN_CHIRP_POINTS, 600))
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
    monkeypatch.setattr(evolution, "_uniform_step", lambda xs: None)


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
        h = _uniform_step(xs)
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

    def test_gaussian_surface_is_real(self):
        config = SolveConfig(n=128, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=tuple(np.linspace(0.25, 2, 8)),
                             xs=tuple(np.linspace(-4, 4, 2001)))
        assert _uniform_step(np.asarray(config.xs)) is not None
        assert np.abs(solve(config).u.imag).max() <= 1e-12

    def test_non_uniform_sets_take_the_matrix_path(self, monkeypatch):
        config = SolveConfig(n=256, omega=4.0, omega_prime=3.0, boundary=gaussian(),
                             times=(0.5, 1.0), xs=tuple(np.linspace(-3, 3, 301)))
        xs = np.asarray(config.xs)
        perm = np.random.default_rng(5).permutation(xs.size)

        def run(points):
            return solve(dataclasses.replace(config, xs=tuple(points))).u

        assert _uniform_step(xs[perm]) is None
        uniform, shuffled = run(xs), run(xs[perm])
        assert np.abs(shuffled - uniform[:, perm]).max() <= 1e-12 * (1 + _coefficient_scale(config))

        few = [(0.3,), (-1.0, 0.5)]
        default = [run(points) for points in few]
        _matrix_path_only(monkeypatch)
        assert np.array_equal(run(xs[perm]), shuffled)
        for points, u in zip(few, default):
            assert np.array_equal(run(points), u)


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

    def test_size_guard(self):
        config = SolveConfig(n=128, omega=2.0, omega_prime=2.0,
                             boundary=gaussian(), times=(0.5,), xs=(0.0,))
        with pytest.raises(ValueError, match="guard"):
            solve_via_convolution(config)
