import numpy as np
import pytest

from hyperheat import GridFunction, GridParams, d_t, d_x, d_xx, evolve, integrate, step

from conftest import random_grid_function


class TestGridParams:
    def test_derived_sizes(self):
        p = GridParams(3)
        assert p.space_count == 18
        assert p.time_count == 9
        assert p.dx == pytest.approx(1 / 3)

    def test_index_and_coordinate_ranges(self):
        p = GridParams(2)
        assert p.space_indices().tolist() == list(range(-4, 4))
        pts = p.space_points()
        assert pts[0] == -2.0 and pts[-1] == 1.5
        assert np.allclose(np.diff(pts), 0.5)

    @pytest.mark.parametrize("bad", [0, -1, 2.5])
    def test_rejects_bad_n(self, bad):
        with pytest.raises(ValueError):
            GridParams(bad)

    def test_position_bounds(self):
        p = GridParams(2)
        assert p.position(-4) == 0 and p.position(3) == 7
        with pytest.raises(IndexError):
            p.position(4)


class TestGridFunction:
    def test_length_enforced(self):
        with pytest.raises(ValueError):
            GridFunction(GridParams(2), np.zeros(7))

    def test_values_are_immutable(self):
        f = GridFunction.delta(GridParams(2))
        with pytest.raises(ValueError):
            f.values[0] = 1.0

    def test_value_at_uses_grid_indices(self):
        f = GridFunction(GridParams(1), [3.0, 4.0])
        assert f.value_at(-1) == 3.0
        assert f.value_at(0) == 4.0


class TestIntegrate:
    def test_zero(self):
        assert integrate(GridFunction.zeros(GridParams(3))) == 0

    def test_two_point_sum(self):
        # n=1: weight 1, two points
        assert integrate(GridFunction(GridParams(1), [1.0, 1.0])) == 2.0

    def test_unit_mass_delta(self):
        # value n at one cell integrates to exactly 1
        p = GridParams(2)
        assert integrate(GridFunction.delta(p, j=0, value=2.0)) == 1.0


class TestDx:
    def test_constant_maps_to_zero(self):
        f = GridFunction(GridParams(3), np.full(18, 2.5 + 1j))
        assert np.all(d_x(f).values == 0)

    def test_identity_coordinate(self):
        p = GridParams(2)
        f = GridFunction(p, p.space_points())
        expect = [1, 1, 1, 1, 1, 1, 1, 0]  # slope 1 everywhere, forced 0 at top
        assert np.allclose(d_x(f).values, expect)

    def test_two_point_grid(self):
        a, b = 2.0 + 1j, -0.5
        f = GridFunction(GridParams(1), [a, b])
        out = d_x(f).values
        assert out[0] == b - a
        assert out[1] == 0

    def test_telescope(self, rng):
        for n in (1, 2, 5, 16):
            f = random_grid_function(GridParams(n), rng)
            total = integrate(d_x(f))
            expect = f.values[-1] - f.values[0]
            assert abs(total - expect) <= 1e-12 * (1 + abs(expect))


class TestDxx:
    def test_constant(self):
        f = GridFunction(GridParams(2), np.full(8, 7.0))
        assert np.all(d_xx(f).values == 0)

    def test_delta_stencil(self):
        p = GridParams(2)
        out = d_xx(GridFunction.delta(p, j=0)).values
        expect = np.zeros(8)
        expect[p.position(-2)] = 4
        expect[p.position(-1)] = -8
        expect[p.position(0)] = 4
        assert np.array_equal(out, expect)

    def test_identity_coordinate_boundary_rows(self):
        p = GridParams(2)
        out = d_xx(GridFunction(p, p.space_points())).values
        assert np.allclose(out[:6], 0)
        assert out[p.position(2)] == -2  # one-sided row: -n^2*(f_top - f_{top-1})
        assert out[p.position(3)] == 0

    def test_is_exact_composition(self, rng):
        for n in (1, 2, 3, 8, 16):
            f = random_grid_function(GridParams(n), rng)
            assert np.array_equal(d_xx(f).values, d_x(d_x(f)).values)


class TestLinearity:
    @pytest.mark.parametrize("op", [d_x, d_xx])
    def test_space_ops(self, op, rng):
        for n in (1, 4, 16):
            p = GridParams(n)
            f, g = random_grid_function(p, rng), random_grid_function(p, rng)
            a, b = 1.3 - 0.2j, -0.7 + 2j
            lhs = op(a * f + b * g).values
            rhs = a * op(f).values + b * op(g).values
            scale = np.abs(rhs).max() + 1
            assert np.abs(lhs - rhs).max() <= 1e-12 * scale

    def test_time_op(self, rng):
        p = GridParams(4)
        slices_f = [random_grid_function(p, rng) for _ in range(3)]
        slices_g = [random_grid_function(p, rng) for _ in range(3)]
        a, b = 0.5 + 1j, -2.0
        combined = [a * f + b * g for f, g in zip(slices_f, slices_g)]
        for i in (0, 1):
            lhs = d_t(combined, i).values
            rhs = a * d_t(slices_f, i).values + b * d_t(slices_g, i).values
            assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())


class TestField:
    def test_constant_field_has_zero_time_derivative(self):
        p = GridParams(2)
        c = GridFunction(p, np.full(8, 3.0 - 1j))
        f = [c] * p.time_count
        for i in (0, 1, 3):
            assert np.all(d_t(f, i).values == 0)

    def test_linear_in_time_field(self):
        # slice i holds the constant value i/n: time slope is exactly 1
        p = GridParams(2)
        f = [GridFunction(p, np.full(8, i / p.n)) for i in range(p.time_count)]
        for i in range(p.time_count - 1):
            assert np.all(d_t(f, i).values == 1.0)
        assert np.all(d_t(f, p.time_count - 1).values == 0)

    def test_stepper_time_derivative_example(self):
        p = GridParams(2)
        g = GridFunction.delta(p, j=0)
        out = d_t(evolve(g, 1), 0).values
        assert out[p.position(-2)] == 4
        assert out[p.position(-1)] == -8
        assert out[p.position(0)] == 4

    def test_index_errors(self):
        p = GridParams(2)
        f = [GridFunction.zeros(p)] * p.time_count
        with pytest.raises(IndexError):
            d_t(f, -1)
        with pytest.raises(IndexError):
            d_t(f, p.time_count)
        with pytest.raises(IndexError):
            d_t(f[:2], 1)  # needs slice 2
