import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from hyperheat import evolution
from hyperheat import (
    EvolutionOverflowError,
    GridFunction,
    GridParams,
    SolveConfig,
    Window,
    boundary_corrections,
    check_convolution_theorem,
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
    step,
)
from hyperheat.evolution import _chirp, _restricted_forward

from conftest import random_grid_function, reference_restricted_forward


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
        assert np.array_equal(evolve(g, 0).slice(0).values, g.values)

    def test_slice_zero_exact_and_sequence(self):
        p = GridParams(2)
        g = GridFunction.delta(p, j=0)
        field = evolve(g, 3)
        assert np.array_equal(field.slice(0).values, g.values)
        assert np.array_equal(field.slice(1).values, step(g).values)
        # backwards access restarts cleanly
        assert np.array_equal(field.slice(1).values, step(g).values)
        assert np.array_equal(field.slice(3).values, step(step(step(g))).values)

    def test_linearity(self, rng):
        p = GridParams(4)
        g1, g2 = random_grid_function(p, rng), random_grid_function(p, rng)
        a, b = 2.0 - 1j, 0.5
        lhs = evolve(a * g1 + b * g2, 4).slice(4).values
        rhs = a * evolve(g1, 4).slice(4).values + b * evolve(g2, 4).slice(4).values
        assert np.abs(lhs - rhs).max() <= 1e-10 * (1 + np.abs(rhs).max())

    def test_step_bounds_validated(self):
        g = GridFunction.zeros(GridParams(2))
        with pytest.raises(ValueError):
            evolve(g, 4)  # n^2 - 1 = 3 is the most
        with pytest.raises(IndexError):
            evolve(g, 2).slice(3)  # beyond the requested horizon

    def test_overflow_guard(self):
        # amplification ~ (1+4n) per step blows past 1e100 around step 62 at n=10
        g = GridFunction.delta(GridParams(10), j=0)
        field = evolve(g, 99)
        with pytest.raises(EvolutionOverflowError, match="max modulus"):
            field.slice(99)


class TestSpectralHat:
    def test_zero_steps_is_identity(self, rng):
        ghat = forward(random_grid_function(GridParams(2), rng))
        assert np.array_equal(spectral_hat(ghat, None, 0).values, ghat.values)

    def test_delta_one_step_no_corrections(self):
        p = GridParams(2)
        g = GridFunction.delta(p, j=0)
        got = spectral_hat(forward(g), None, 1)
        ref = forward(evolve(g, 1).slice(1))
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
            field = evolve(g, steps)
            ref = forward(field.slice(steps))
            got = spectral_hat(forward(g), None, steps)
            scale = max(1.0, ref.max_abs())
            assert np.abs(got.values - ref.values).max() <= 1e-8 * scale

    @pytest.mark.parametrize("n", [2, 4])
    def test_arbitrary_data_with_corrections(self, n, rng):
        p = GridParams(n)
        steps = min(6, p.time_count - 1)  # the time grid only holds n^2 slices
        g = random_grid_function(p, rng)
        field = evolve(g, steps)
        corr = [boundary_corrections(field.slice(j)).f_corr for j in range(steps)]
        ghat = forward(g)
        for i in range(steps + 1):
            ref = forward(field.slice(i))
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
            scale = 1 + np.abs(forward(f).values * forward(g).values).max()
            assert check_convolution_theorem(f, g) <= 1e-9 * scale

    def test_delta_pair_spectrum(self):
        # two plain deltas: the convolution transform is the constant 1/n^2
        p = GridParams(2)
        d = GridFunction.delta(p, j=0)
        out = forward(convolve(d, d)).values
        assert np.abs(out - 1.0 / (p.n * p.n)).max() <= 1e-14


class TestWindow:
    def test_band_count_and_value(self):
        p = GridParams(4)
        w = Window(p, 2.5)
        nonzero = np.flatnonzero(w.values.values)
        assert nonzero.size == 2 * math.floor(2.5 * 4) + 1
        assert np.all(w.values.values[nonzero] == 0.5)

    def test_even(self):
        p = GridParams(4)
        w = Window(p, 1.75)
        for k in range(1, p.n**2):
            assert w.values.value_at(-k) == w.values.value_at(k)

    def test_full_grid_case(self):
        p = GridParams(3)
        w = Window(p, p.n)  # radius n covers every frequency
        assert np.all(w.values.values == 0.5)

    def test_rejects_nonpositive_radius(self):
        with pytest.raises(ValueError):
            Window(GridParams(2), 0.0)


class TestPropagator:
    def test_growth_at_zero_and_power_zero(self):
        prop = propagator(GridParams(8))
        assert prop.growth.value_at(0) == 1.0
        assert np.all(prop.power(0).values == 1.0)

    def test_magnitude_closed_form(self):
        for n in (4, 64):
            prop = propagator(GridParams(n))
            direct = np.abs(prop.growth.values) ** 2
            closed = prop.magnitude_squared_closed_form()
            assert np.abs(direct - closed).max() <= 1e-12 * (1 + closed.max())

    def test_band_values_bit_identical_to_full_grid(self):
        for n in (7, 64, 129):
            prop = propagator(GridParams(n))
            for lo, hi in ((-3 * n, 3 * n), (-n * n, n * n - 1), (5 - n * n, 17)):
                ks = np.arange(max(lo, -n * n), min(hi, n * n - 1) + 1)
                assert np.array_equal(prop.at(ks), prop.growth.values[ks + n * n])

    def test_stability_radius_matches_band_to_first_order(self):
        for n in (64, 256):
            prop = propagator(GridParams(n))
            radius = prop.stability_radius()
            band = math.sqrt(2 * n) / math.pi
            # the discrete edge sits just inside sqrt(2n)/pi
            assert 0 < band - radius < band / n + 2.0 / n
            x = prop.params.space_points()
            g = np.abs(prop.growth.values)
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
            odd = 0.0
            for z in (0.0, 0.5, 1.25):
                a = kernel(0.5, z, w)
                b = kernel(0.5, -z, w)
                assert abs(a.imag) <= 1e-10
                assert abs(b.imag) <= 1e-10
                odd = max(odd, abs(a - b))
            assert odd <= 1.0 / n

    def test_point_evaluation_matches_full_slice(self):
        p = GridParams(8)
        w = Window(p, 2.0)
        sl = kernel_slice(w, 0.75)
        for j in (-16, -3, 0, 5):
            assert abs(kernel(0.75, j / p.n, w) - sl.value_at(j)) <= 1e-12

    def test_gaussian_shape_moderate_grid(self):
        # n=64 is already close to the classical kernel near the origin
        p = GridParams(64)
        w = Window(p, 3.0)
        err = abs(kernel(0.5, 0.0, w).real - gaussian_heat_kernel(0.5, 0.0))
        assert err <= 2e-2

    def test_truncation_ringing_stays_small_in_l1(self):
        # small negative lobes are admissible; their total weight is bounded
        p = GridParams(128)
        w = Window(p, 3.0)
        for t in (0.25, 1.0):
            sl = kernel_slice(w, t)
            l1 = np.sum(np.abs(sl.values)) / p.n
            assert l1 <= 1.1

    def test_rejects_time_outside_range(self):
        w = Window(GridParams(4), 1.0)
        with pytest.raises(ValueError):
            kernel(-0.5, 0.0, w)

    def test_rejects_non_finite_offset(self):
        w = Window(GridParams(4), 1.0)
        for z in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                kernel(0.5, z, w)


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
        worst = max(abs(u_re - bc.closed_form(t, x).real) for t, x, u_re, _ in res.rows())
        assert worst <= 1e-2
        assert res.max_imag() <= 1e-10

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

    def test_threads_do_not_change_output(self):
        bc = gaussian()
        band = 2 * 2 * 32 + 1
        # one block of points, then several (the block holds a bounded matrix)
        for count in (11, 3 * (evolution._QUERY_BLOCK_ENTRIES // band) + 7):
            config = SolveConfig(n=32, omega=3.0, omega_prime=2.0, boundary=bc,
                                 times=(0.5, 1.5), xs=tuple(np.linspace(-1, 1, count)))
            a = solve(config, threads=1).u
            b = solve(config, threads=3).u
            assert np.array_equal(a, b)

    def test_warns_outside_stability_band(self):
        # band at n=16 is sqrt(32)/pi ~ 1.8; a radius-4 window pokes out of it
        config = SolveConfig(n=16, omega=3.0, omega_prime=4.0,
                             boundary=gaussian(), times=(0.5,), xs=(0.0,))
        with pytest.warns(RuntimeWarning, match="growth"):
            solve(config)


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

    def test_chirp_reduction_exact_at_large_n(self, monkeypatch):
        # m^2 overflows int64 above n = 55108 and squares of 2n^2 far earlier
        def exact(m, n):
            period = 4 * n * n
            return np.exp(-2j * np.pi * np.array([(v * v) % period / period for v in m]))

        for n in (1000, 10**5, 10**9, 2**31):
            m = [1 - 2 * n * n, -n * n - 1, -3, 12_345_678_901 % (2 * n * n), 2 * n * n - 1]
            assert np.abs(_chirp(np.array(m), n) - exact(m, n)).max() <= 1e-15
        m = np.arange(-2 * 1000**2, 2 * 1000**2, 997)
        int64_path = _chirp(m, 1000)
        monkeypatch.setattr(evolution, "_INT64_CHIRP_N", 0)
        assert np.array_equal(_chirp(m, 1000), int64_path)

    def test_solve_matches_reference_path(self):
        n = 1024
        bc = gaussian()
        config = SolveConfig(n=n, omega=4.0, omega_prime=3.0, boundary=bc,
                             times=(0.5, 1.0), xs=tuple(np.linspace(-2, 2, 9)))
        got = solve(config).u
        js = np.arange(-4 * n, 4 * n)
        ks = np.arange(-3 * n, 3 * n + 1)
        ghat = reference_restricted_forward(js, bc(js / n).astype(complex), ks, n)
        growth = propagator(GridParams(n)).growth.values[ks + n * n]
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
            kernel(0.5, 0.0, Window(GridParams(n), 3.0))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64e6
        assert spectral_symbols.cache_info().currsize == cached
        assert res.first_non_finite() is None


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
        for t, x, u_re, _ in res.rows():
            assert abs(u_re - kernel(t, x, w).real) <= 1e-10

    def test_size_guard(self):
        config = SolveConfig(n=128, omega=2.0, omega_prime=2.0,
                             boundary=gaussian(), times=(0.5,), xs=(0.0,))
        with pytest.raises(ValueError, match="guard"):
            solve_via_convolution(config)
