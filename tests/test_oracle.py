import math
from decimal import Decimal, localcontext

import numpy as np
import pytest
from scipy.integrate import quad, quad_vec
from scipy.special import erf

from conftest import run_fresh
from hyperheat import checks, oracle
from hyperheat.oracle import (
    bump,
    classical_column,
    classical_solution,
    compound_growth,
    difference_symbol,
    difference_symbol_residual,
    gaussian,
    gaussian_heat_kernel,
    gaussian_symbol_approx,
    gaussian_symbol_residual,
    gaussian_transform_identity,
    indicator,
    lattice_error,
    sampled,
    tail_bound_check,
)


class TestBoundaryConditions:
    def test_values_and_sup_bound(self):
        g = gaussian(2.0, 0.5)
        assert g(0.0) == pytest.approx(2.0)
        assert g(np.array([1.0]))[0] == pytest.approx(2.0 * math.exp(-0.5))
        # the bound is sup|g|: never exceeded, and reached on a grid through the peaks 0 and 0.5
        y = np.linspace(-12.0, 12.0, 4801)
        complex_peak = sampled([(-1.5, 3.0 - 4.0j), (0.0, -4.0), (0.75, 0.5j)])
        for g, bound in ((g, 2.0), (gaussian(-3.0, 2.0), 3.0), (indicator(-1.0, 1.0), 1.0),
                         (bump(0.5, 2.0), 1.0), (complex_peak, 5.0)):
            assert g.bound == bound
            assert np.all(np.abs(g(y)) <= g.bound)
            assert np.abs(g(y)).max() == g.bound

    def test_indicator_halfopen(self):
        g = indicator(-1.0, 1.0)
        assert g(-1.0) == 1.0 and g(0.99) == 1.0
        assert g(1.0) == 0.0 and g(-1.01) == 0.0

    def test_bump_support_and_peak(self):
        g = bump(0.5, 2.0)
        assert g(0.5) == pytest.approx(1.0)
        assert g(2.5) == 0.0 and g(-1.5) == 0.0
        assert abs(g(2.4999)) < 1e-3  # decays continuously to the edge

    def test_sampled_nearest(self):
        g = sampled([(0.0, 1.0 + 1j), (1.0, 3.0)])
        assert g(0.2) == 1.0 + 1j
        assert g(0.8) == 3.0
        assert g(-5.0) == 1.0 + 1j
        assert np.array_equal(g(np.array([0.0, 1.0])), np.array([1 + 1j, 3.0]))

    def test_sampled_lookup_matches_nearest_distance(self):
        rng = np.random.default_rng(5)
        xs = np.sort(rng.uniform(-3.0, 3.0, 101))
        vs = rng.standard_normal(101) + 1j * rng.standard_normal(101)
        g = sampled(list(zip(xs, vs)))
        mids = np.array(g.breakpoints)
        y = rng.uniform(-4.0, 4.0, 20_000)
        y = y[np.abs(y[:, None] - mids).min(axis=1) > 1e-12]   # away from the jumps
        # nearest sample by distance, the left one on a tie
        nearest = np.abs(y[:, None] - xs).argmin(axis=1)
        assert np.array_equal(g(y), vs[nearest])
        assert g(y[0]) == vs[nearest[0]]

    def test_sampled_tie_takes_left_sample(self):
        g = sampled([(1.0, 10.0), (0.0, 1.0), (3.0, 30.0)])
        assert g.breakpoints == (0.5, 2.0)
        assert np.array_equal(g(np.array([0.5, 2.0])), [1.0, 10.0])
        assert g(np.nextafter(0.5, 1.0)) == 10.0 and g(np.nextafter(2.0, 3.0)) == 30.0

    def test_sampled_rejects_repeated_x(self):
        with pytest.raises(ValueError, match=r"distinct x, got x=0\.0"):
            sampled([(0.0, 1.0), (0.0, 2.0), (1.0, 1.0)])

    def test_constructor_validation(self):
        with pytest.raises(ValueError):
            gaussian(1.0, 0.0)
        with pytest.raises(ValueError):
            indicator(1.0, 1.0)
        with pytest.raises(ValueError):
            sampled([])
        for center, width in ((0.0, 0.0), (0.0, math.nan), (0.0, math.inf), (math.inf, 1.0), (math.nan, 1.0)):
            with pytest.raises(ValueError, match="bump needs"):
                bump(center, width)


class TestClassicalSolution:
    def test_rejects_nonpositive_time(self):
        with pytest.raises(ValueError):
            classical_solution(gaussian(), 0.0, 0.0)

    def test_small_time_continuity(self):
        g = gaussian()
        for x in (0.0, 1.0, -1.0):
            assert abs(classical_solution(g, 1e-6, x) - g(x)) <= 1e-3

    def test_gaussian_closed_form_value(self):
        # a=b=1, t=0.5: amplitude (1+4bt)^(-1/2) = 1/sqrt(3)
        assert classical_solution(gaussian(), 0.5, 0.0).real == pytest.approx(
            1 / math.sqrt(3), abs=1e-9
        )

    # closed_form is a plain evaluation; this is what pins it to the quadrature.
    # (0.9, 0.9) and (1.1, 1.1) are corners of the benchmark's data; (0.37, 0.61)
    # is an interior point.  b from 750 to 4000 is data narrower than the
    # window's first intervals: the peak, a breakpoint, keeps it from slipping
    # between the nodes.
    @pytest.mark.parametrize("a, b", [(1, 1), (0.9, 0.9), (1.1, 1.1), (1.3, 0.8), (2, 0.5), (1, 750),
                                      (1, 800), (1, 2000), (1, 4000)])
    def test_closed_form_vs_quadrature_lattice(self, a, b):
        g = gaussian(a, b)
        lattice = [(t, x) for t in (0.1, 0.25, 0.5, 1.0) for x in (0.0, 0.5, -0.5, 1.0, -1.0)]
        for t, x in lattice + [(0.37, 0.61)]:
            assert abs(g.closed_form(t, x) - classical_solution(g, t, x)) <= 1e-9

    @pytest.mark.parametrize("b", [1e308, 1.7e308, 5e307])
    def test_closed_form_where_1_plus_4bt_overflows(self, b):
        # against a (1 + 4bt)^(-1/2) exp(-b x^2 / (1 + 4bt)) in 50 digits; at 5e307 it does not overflow
        g, t, xs = gaussian(1.5, b), 0.5, np.array([0.0, 0.3, -1.0, 2.0, 30.0])
        with localcontext() as context:
            context.prec = 50
            s = 1 + 4 * Decimal(b) * Decimal(t)
            exact = [float(Decimal(1.5) / s.sqrt() * (-Decimal(b) * Decimal(x) ** 2 / s).exp()) for x in xs]
        assert np.allclose(g.closed_form(t, xs).real, exact, rtol=1e-14, atol=0)

    def test_mass_conservation(self):
        g = gaussian()
        boundary_mass, _ = quad(lambda y: float(g(y).real), -12, 12, epsabs=1e-12)
        for t in (0.25, 1.0):
            mass, _ = quad(lambda x: classical_solution(g, t, x).real, -14, 14,
                           epsabs=1e-8, limit=200)
            assert abs(mass - boundary_mass) <= 1e-6 * abs(boundary_mass)

    def test_satisfies_heat_equation(self):
        g = gaussian()
        h = 1e-3
        t = 0.5
        for x in (0.0, 0.5, -0.5, 1.0, -1.0):
            u = lambda tt, xx: classical_solution(g, tt, xx).real
            ut = (u(t + h, x) - u(t - h, x)) / (2 * h)
            uxx = (u(t, x + h) - 2 * u(t, x) + u(t, x - h)) / (h * h)
            assert abs(ut - uxx) <= 1e-4

    def test_closed_form_requires_gaussian(self):
        with pytest.raises(ValueError, match=r"^boundary indicator\(-1,1\) has no closed-form solution$"):
            indicator(-1, 1).closed_form(0.5, 0.0)

    def test_complex_data(self):
        g = oracle.BoundaryCondition(lambda y: (1 + 2j) * np.exp(-np.asarray(y) ** 2), math.sqrt(5.0),
                                     "complex-gaussian")
        val = classical_solution(g, 0.5, 0.0)
        # the kernel is linear, so the imag/real ratio of the data is preserved
        assert val.imag == pytest.approx(2 * val.real, rel=1e-6)
        assert val.real == pytest.approx(1 / math.sqrt(3), abs=1e-8)


def per_point_quad(g, t, x):
    """The scalar route the column oracle replaced: two ``quad`` calls over ``x -/+ L``."""
    L = oracle._integration_halfwidth(g.bound, t)

    def kernel_times_data(y, part):
        return math.exp(-((x - y) ** 2) / (4.0 * t)) * part(complex(np.atleast_1d(g(y))[0]))

    re, _ = quad(kernel_times_data, x - L, x + L, args=(np.real,), epsabs=1e-10, epsrel=1e-12, limit=400)
    im, _ = quad(kernel_times_data, x - L, x + L, args=(np.imag,), epsabs=1e-10, epsrel=1e-12, limit=400)
    return complex(re, im) / math.sqrt(4.0 * math.pi * t)


def step_solution(t, x, lo, hi):
    """Exact heat flow of the indicator of ``[lo, hi)`` (``lo``/``hi`` may be infinite)."""
    r = 2.0 * math.sqrt(t)
    return 0.5 * (erf((x - lo) / r) - erf((x - hi) / r))


def bump_over_support(t, x, center=0.0, width=1.0):
    """``bump(center, width)`` convolved with the kernel by ``quad`` over its support only."""
    g = bump(center, width)
    val, _ = quad(lambda y: math.exp(-((x - y) ** 2) / (4.0 * t)) * g(y).real,
                  center - width, center + width, epsabs=1e-14, epsrel=1e-13, limit=400)
    return val / math.sqrt(4.0 * math.pi * t)


XS21 = np.linspace(-2.0, 2.0, 21)


class TestClassicalColumn:
    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    def test_compact_support_found_at_large_time(self, t):
        # without breakpoints the window (|y - x| <= 10 sqrt(t) and more) can
        # hide [-1, 1] between the quadrature nodes: the integral was 0.0
        ind = classical_column(indicator(-1.0, 1.0), t, XS21)
        assert np.abs(ind - [step_solution(t, x, -1.0, 1.0) for x in XS21]).max() <= 1e-12
        bmp = classical_column(bump(0.0, 1.0), t, XS21)
        assert np.abs(bmp - [bump_over_support(t, x) for x in XS21]).max() <= 1e-12

    @pytest.mark.parametrize("t", [1.0, 2.0, 4.0])
    def test_narrow_support_found_one_point_at_a_time(self, t):
        # one query point splits the window only at itself, so here the
        # boundary's own breakpoints are what finds the support
        ind = [classical_solution(indicator(0.05, 0.15), t, x) for x in XS21]
        assert np.abs(np.subtract(ind, [step_solution(t, x, 0.05, 0.15) for x in XS21])).max() <= 1e-12
        bmp = [classical_solution(bump(0.1, 0.05), t, x) for x in XS21]
        ref = [bump_over_support(t, x, 0.1, 0.05) for x in XS21]
        assert np.abs(np.subtract(bmp, ref)).max() <= 1e-12

    # the per-point route is itself off by up to 1e-10 (its tolerance) for
    # the bump at t=0.05 and 0.25, so the bump is pinned to it where it is
    # accurate and to the quadrature over its support everywhere
    @pytest.mark.parametrize("g, t", [(gaussian(1.3, 0.8), 0.1), (gaussian(1.3, 0.8), 0.25),
                                      (gaussian(1.3, 0.8), 0.5), (bump(0.0, 1.0), 0.1),
                                      (bump(0.0, 1.0), 0.5)])
    def test_smooth_data_matches_per_point_quad(self, g, t):
        col = classical_column(g, t, XS21)
        assert np.abs(col - [per_point_quad(g, t, x) for x in XS21]).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.05, 0.25, 0.5])
    def test_bump_matches_quadrature_over_its_support(self, t):
        bmp = classical_column(bump(0.0, 1.0), t, XS21)
        assert np.abs(bmp - [bump_over_support(t, x) for x in XS21]).max() <= 1e-12

    @pytest.mark.parametrize("t", [0.05, 0.5, 1.3])
    def test_step_data_matches_erf_sums(self, t):
        ind = classical_column(indicator(-0.7, 1.1), t, XS21)
        assert np.abs(ind - [step_solution(t, x, -0.7, 1.1) for x in XS21]).max() <= 1e-12
        samples = [(-1.5, 1.0), (-0.25, 2.0 - 1.0j), (0.5, -0.5), (1.75, 0.5j)]
        sx = [p[0] for p in samples]
        edges = [-math.inf] + [(a + b) / 2 for a, b in zip(sx, sx[1:])] + [math.inf]
        exact = [sum(v * step_solution(t, x, a, b) for (_, v), a, b in zip(samples, edges, edges[1:]))
                 for x in XS21]
        assert np.abs(classical_column(sampled(samples), t, XS21) - exact).max() <= 1e-12
        # a peak of 1e12 is held to 1e-14 of its largest value: the refusal limit scales with the integral
        peak = 1e12 * np.array([step_solution(t, x, -0.5, 0.5) for x in XS21])
        column = classical_column(sampled([(-1.0, 0.0), (0.0, 1e12), (1.0, 0.0)]), t, XS21)
        assert np.abs(column - peak).max() <= 1e-14 * np.abs(peak).max()

    @pytest.mark.parametrize("t", [1e-5, 1e-6])
    def test_narrow_kernels_between_scattered_points(self, t):
        # at small t each kernel is far narrower than the gaps between points
        g = gaussian()
        xs = np.array([-2.9, -0.4, 0.37, 2.6])
        assert np.abs(classical_column(g, t, xs) - g.closed_form(t, xs)).max() <= 1e-12

    def test_unbounded_data_has_no_window(self):
        g = oracle.BoundaryCondition(lambda y: np.exp(np.asarray(y)), math.inf, "exp")
        with pytest.raises(RuntimeError, match="^could not find an integration window for data bounded by inf"):
            classical_column(g, 0.5, [0.0])

    def test_data_near_the_float_limit_integrates(self):
        # the 21-point sums of 1e308 overflowed; g / g.bound keeps them at size 1
        col = classical_column(sampled([(-1, 1e308), (0, 1e308), (1, 1e308)]), 0.5, [0, 0.5])
        assert np.isfinite(col).all()
        assert np.abs(col / 1e308 - 1).max() <= 1e-12

    def test_zero_data_has_a_zero_column(self):
        col = classical_column(sampled([(-1, 0.0), (1, 0.0)]), 0.5, [0.0, 2.0])
        assert col.dtype == np.complex128 and not col.any()

    def test_breakpoints(self):
        assert bump(0.5, 2.0).breakpoints == (-1.5, 2.5)
        assert indicator(-1.0, 3.0).breakpoints == (-1.0, 3.0)
        assert sampled([(1.0, 2.0), (0.0, 1.0), (3.0, 0.0)]).breakpoints == (0.5, 2.0)
        assert gaussian().breakpoints == (0.0,)

    def test_scalar_call_is_the_one_point_column(self):
        g = bump(0.0, 1.0)
        assert classical_solution(g, 0.7, 0.3) == classical_column(g, 0.7, [0.3])[0]

    def test_closed_forms_take_arrays(self):
        g = gaussian(1.3, 0.8)
        zs = np.linspace(-3.0, 3.0, 13)
        assert np.allclose(g.closed_form(0.5, zs), [g.closed_form(0.5, z) for z in zs], rtol=0, atol=1e-16)
        assert np.allclose(gaussian_heat_kernel(0.5, zs), [gaussian_heat_kernel(0.5, z) for z in zs],
                           rtol=0, atol=1e-16)


def quad_vec_column(g, t, xs):
    """The column by ``scipy.integrate.quad_vec`` over the same window and breakpoints."""
    L = oracle._integration_halfwidth(g.bound, t)
    q = np.unique(xs)
    fill = [np.linspace(a, b, int(np.ceil((b - a) / L)), endpoint=False)[1:] for a, b in zip(q[:-1], q[1:])]
    lo, hi = q[0] - L, q[-1] + L
    points = np.unique(np.concatenate([q, *fill, [p for p in g.breakpoints if lo < p < hi]]))

    def kernel_times_data(y):
        val = complex(g(y))
        k = np.exp(-np.square(xs - y) / (4.0 * t))
        return np.concatenate((k * val.real, k * val.imag))

    res, _ = quad_vec(kernel_times_data, lo, hi, epsabs=1e-10, epsrel=1e-12, norm="max",
                      limit=400 + points.size, points=points.tolist())
    return (res[:xs.size] + 1j * res[xs.size:]) / math.sqrt(4.0 * math.pi * t)


def ones(y):
    return np.ones(y.shape)[:, None, :]


class TestIntegrate:
    def test_gauss_kronrod_table(self):
        # the embedded rule is numpy's 10-point Gauss-Legendre rule; both are symmetric
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = oracle._GK21_RULES[:, 0] - oracle._GK21_RULES[:, 1]
        assert np.array_equal(oracle._GK21_NODES, -oracle._GK21_NODES[::-1])
        assert np.abs(oracle._GK21_NODES[1::2] - nodes).max() <= 1e-15
        assert np.abs(gauss[1::2] - weights).max() <= 1e-15 and not gauss[::2].any()

    @pytest.mark.parametrize("seed", range(8))
    def test_polynomials_up_to_degree_31_are_exact(self, seed):
        rng = np.random.default_rng(seed)
        for degree in range(32):
            poly = np.polynomial.Polynomial(rng.standard_normal(degree + 1)
                                            + 1j * rng.standard_normal(degree + 1))
            a, b = np.sort(rng.uniform(-1.0, 1.0, 2))
            exact = poly.integ()(b) - poly.integ()(a)
            (value,) = oracle._integrate(ones, poly, np.array([a, b]), 1)
            assert abs(value - exact) <= 1e-14 * (1 + abs(exact))

    def test_scale_keeps_the_tolerance_in_the_units_of_the_data(self):
        # dividing by a power of two is exact, so every acceptance must come out the same
        def data(y):
            return np.sin(50 * y) * np.exp(y) + 0j

        edges = np.array([0.0, 10.0])
        base = oracle._integrate(ones, data, edges, 1)
        for scale in (2.0**-20, 2.0**13, 2.0**1000):
            assert oracle._integrate(ones, data, edges, 1, scale) * scale == base

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan, complex(0, math.nan)])
    def test_non_finite_integrand_is_one_line_error(self, bad):
        def data(y):
            return np.where(y > 0.3, bad, 1.0 + 0j)

        with pytest.raises(RuntimeError, match="quadrature did not converge") as info:
            oracle._integrate(ones, data, np.array([-1.0, 0.0, 1.0]), 1)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("spike", [lambda y: 1 / np.abs(y - 1 / 3), lambda y: (y - 0.3) ** -2],
                             ids=["inverse", "inverse-square"])
    def test_non_integrable_spike_is_one_line_error(self, spike):
        # the spike's intervals are halved up to the cap, and their estimates stay far above
        # 1e4 times the tolerance
        with pytest.raises(RuntimeError, match=r"quadrature did not converge \(err=") as info:
            oracle._integrate(ones, lambda y: spike(y) + 0j, np.array([0.0, 1.0]), 1)
        assert "\n" not in str(info.value)

    @pytest.mark.parametrize("scale", [1e4, 1e8])
    def test_large_data_is_integrated_to_its_rounding(self, scale):
        # the tolerance is relative to the integral too, as quad_vec's was: the rounding
        # of data of 1e8 alone is above the absolute 1e-10
        poly = np.polynomial.Polynomial(scale * np.arange(1.0, 9.0))
        exact = poly.integ()(1.0) - poly.integ()(-1.0)
        (value,) = oracle._integrate(ones, lambda y: poly(y) + 0j, np.array([-1.0, 0.5, 1.0]), 1)
        assert abs(value - exact) <= 1e-14 * abs(exact)

    # 401 points split the window into more intervals than one block holds
    @pytest.mark.parametrize("g", [bump(0.0, 1.0), indicator(-1.0, 1.0),
                                   sampled([(-1.5, 1.0), (-0.25, 2.0 - 1.0j), (0.5, -0.5), (1.75, 0.5j)])],
                             ids=["bump", "indicator", "sampled"])
    def test_column_over_several_blocks_matches_quad_vec(self, g):
        xs = np.linspace(-3.0, 3.0, 401)
        assert 401 * 21 * 401 > 2 * oracle._BLOCK_ENTRIES
        assert np.abs(classical_column(g, 0.5, xs) - quad_vec_column(g, 0.5, xs)).max() <= 1e-12


class TestGaussianTransformIdentity:
    def test_zero_offset_value(self):
        # the t=1, z=0 integral is 1/sqrt(pi)
        left, _ = quad(lambda w: math.exp(-math.pi**2 * w * w), -4, 4, epsabs=1e-12)
        assert left == pytest.approx(1 / math.sqrt(math.pi), abs=1e-10)
        assert gaussian_transform_identity(1.0, 0.0) <= 1e-8

    def test_offset_case(self):
        assert gaussian_transform_identity(0.5, 1.0) <= 1e-8

    def test_imaginary_part_vanishes_by_oddness(self):
        im, _ = quad(lambda w: math.exp(-math.pi**2 * 0.5 * w * w) * math.sin(math.pi * w),
                     -6, 6, epsabs=1e-12)
        assert abs(im) <= 1e-10


@pytest.mark.parametrize("call, message", [
    (lambda: gaussian_heat_kernel(0.0, 1.0), "kernel defined for t > 0"),
    (lambda: gaussian_transform_identity(0.0, 1.0), "identity holds for t > 0"),
    (lambda: tail_bound_check(0.0, 1.0, 100), "tail bound needs t > 0"),
], ids=["heat-kernel", "transform-identity", "tail-bound"])
def test_time_zero_is_refused(call, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        call()


class TestSequences:
    def test_first_residual_exact(self):
        # n=1: 1*(e^{i pi} - 1) - i pi = -2 - i pi
        p1 = difference_symbol_residual(1)
        assert p1 == pytest.approx(-2 - 1j * math.pi)
        assert abs(p1) == pytest.approx(math.sqrt(4 + math.pi**2))

    def test_symbol_limit(self):
        assert difference_symbol(10**6, 2.0) == pytest.approx(2j * math.pi, abs=1e-4)

    def test_compound_growth_limit(self):
        assert compound_growth(10**6, -1.0 + 0.5j) == pytest.approx(
            np.exp(-1.0 + 0.5j), abs=1e-5
        )

    def test_gaussian_symbol_at_zero_is_exactly_one(self):
        for n in (1, 7, 1000):
            assert gaussian_symbol_approx(n, 0.0) == 1.0


@pytest.fixture(scope="module")
def verdicts():
    """``checks.rate_verdicts()`` grouped by check name."""
    by_check = {}
    for check, param, observed, bound, ok in checks.rate_verdicts():
        by_check.setdefault(check, []).append((param, observed, bound, ok))
    return by_check


class TestRateChecks:
    def test_p_bounds_and_order(self, verdicts):
        rows = verdicts["p_bound"]
        assert [param for param, *_ in rows] == [f"n={10**k}" for k in range(7)]
        assert all(ok for *_, ok in rows)
        assert rows[0][1] == pytest.approx(math.sqrt(4 + math.pi**2))
        assert rows[-1][1] <= 2.29e-4  # instantiated bound at n=1e6
        ((param, order, bracket, ok),) = verdicts["p_order"]
        assert param == "n=1e2..1e6" and bracket == "[0.8,1.2]"
        assert 0.8 <= order <= 1.2 and ok

    def test_t_order_fit(self, verdicts):
        errs = [abs(gaussian_symbol_residual(n, 1.0)) for n in (100, 1000, 10**4)]
        assert all(a > b for a, b in zip(errs, errs[1:]))
        ((_, order, _, ok),) = verdicts["t_order"]
        assert 0.8 <= order <= 1.2 and ok

    def test_t_vanishing_large_argument(self, verdicts):
        assert abs(gaussian_symbol_approx(10**4, 5.0)) <= 1e-3
        ((_, observed, bound, ok),) = verdicts["t_vanish"]
        assert observed <= 1e-3 and bound == "<=0.001" and ok


class TestTailBound:
    def test_reference_cases(self):
        left, right = tail_bound_check(1.0, 1.0, 100)
        assert left <= right
        assert left <= 1.66e-5  # ~ (1/pi) e^{-pi^2}
        left, right = tail_bound_check(0.25, 2.0, 100)
        assert left <= right

    def test_precondition_enforced(self):
        # cut below 1/(pi sqrt(t)) voids the bound
        with pytest.raises(ValueError):
            tail_bound_check(1.0, 0.25, 100)


class TestQuadratureCheck:
    def test_absolute_error_tiny(self, verdicts):
        assert lattice_error(1.0, 1.0, 256) <= 1e-2
        ((_, observed, _, ok),) = verdicts["quad_error"]
        assert observed <= 1e-2 and ok

    def test_errors_sit_at_float_floor(self, verdicts):
        # the lattice sum of an analytic Gaussian is spectrally exact, so no
        # 1/n rate is measurable: the order verdict must fail rather than pretend
        assert max(lattice_error(1.0, 0.0, n) for n in (64, 128, 256)) <= 1e-12
        ((_, order, bracket, ok),) = verdicts["quad_order"]
        assert bracket == "[0.8,1.5]"
        assert not 0.8 <= order <= 1.5 and not ok

    def test_rejects_bad_time(self):
        with pytest.raises(ValueError):
            lattice_error(0.0, 0.0, 64)


@pytest.mark.parametrize("call", [
    "oracle.classical_column(oracle.bump(0.0, 1.0), 0.5, [-1.5, 0.0, 0.3, 2.0])",
    "oracle.classical_solution(oracle.indicator(-1.0, 1.0), 0.25, 0.7)",
    "oracle.gaussian_transform_identity(0.5, 1.2)",
], ids=["classical_column", "classical_solution", "gaussian_transform_identity"])
def test_first_quadrature_in_a_fresh_interpreter(call):
    # the quadrature is numpy only: a cold call loads no scipy module and gives the same bits
    cold = run_fresh(f"""
import sys
import numpy as np
from hyperheat import oracle
value = {call}
assert not any(m.partition(".")[0] == "scipy" for m in sys.modules)
print(np.asarray(value).tobytes().hex())
""")
    assert cold == np.asarray(eval(call)).tobytes().hex() + "\n"


def test_converge_sweep_loads_no_masked_arrays(tmp_path):
    # np.unique imports numpy.ma on its first call; the quadrature's edges use a sort instead
    loaded = run_fresh(f"""
import sys
from hyperheat import cli
assert cli.main(["converge", "--n-list", "64,128,256", "--g", "bump:0,1", "--times", "0.5",
                 "--xs=-2:2:7", "--out", {str(tmp_path / "out.csv")!r}]) == 0
print("numpy.ma" in sys.modules)
""")
    assert loaded == "False\n"


@pytest.mark.parametrize("values", [[], [0.5], [2.0, -1.0, 2.0, 0.0, -0.0, -1.0], [-0.0, 0.0, 3.0, -0.0]])
def test_sorted_distinct_is_unique_bit_for_bit(values):
    values = np.array(values, dtype=float)
    assert oracle._sorted_distinct(values).tobytes() == np.unique(values).tobytes()
