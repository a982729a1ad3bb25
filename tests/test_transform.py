import numpy as np
import pytest

from hyperheat import (
    GridFunction,
    GridParams,
    boundary_corrections,
    checks,
    d_x,
    forward,
    integrate,
    inverse,
    spectral_symbols,
)

from conftest import (gather_transform, random_grid_function, random_stack, reference_forward,
                      reference_inverse, same_bits)


class TestForwardInverseExamples:
    def test_zero(self):
        p = GridParams(3)
        assert np.all(forward(GridFunction.zeros(p)).values == 0)
        assert np.all(inverse(GridFunction.zeros(p)).values == 0)

    def test_delta_two_points(self):
        # n=1: delta at index 0 transforms to the constant 1
        f = GridFunction(GridParams(1), [0.0, 1.0])
        assert np.allclose(forward(f).values, [1.0, 1.0])

    def test_ones_two_points(self):
        f = GridFunction(GridParams(1), [1.0, 1.0])
        out = forward(f).values
        assert abs(out[0]) <= 1e-15          # k=-1: e^{i pi} + 1 = 0
        assert out[1] == pytest.approx(2.0)  # k=0

    def test_inverse_recovers_scaled_delta(self):
        f = GridFunction(GridParams(1), [1.0, 1.0])
        out = inverse(f).values
        assert abs(out[0]) <= 1e-15
        assert out[1] == pytest.approx(2.0)


class TestInversionConstant:
    @pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
    def test_round_trip_is_twice_identity(self, n, rng):
        p = GridParams(n)
        for _ in range(20):
            f = random_grid_function(p, rng)
            tol = 1e-9 * (1 + f.max_abs())
            assert np.abs(inverse(forward(f)).values - 2 * f.values).max() <= tol
            assert np.abs(forward(inverse(f)).values - 2 * f.values).max() <= tol

    def test_matches_reference_summation(self, rng):
        for n in (1, 2, 4, 7, 16):
            f = random_grid_function(GridParams(n), rng)
            assert np.abs(forward(f).values - reference_forward(f)).max() <= 1e-11
            assert np.abs(inverse(f).values - reference_inverse(f)).max() <= 1e-11


class TestStacks:
    """A ``(3, 2n^2)`` stack is transformed row by row, through the same code as one slice."""

    @pytest.mark.parametrize("n", [1, 2, 5, 16])
    def test_rows_equal_single_slices_bit_for_bit(self, n, rng):
        p = GridParams(n)
        stack = random_stack(p, rng)
        rows = [GridFunction(p, v) for v in stack.values]
        for op in (forward, inverse):
            got = op(stack).values
            assert got.shape == (3, p.space_count)
            assert all(same_bits(v, op(row).values) for v, row in zip(got, rows))
        corr = boundary_corrections(stack)
        for e, f_corr, row in zip(corr.e.values, corr.f_corr.values, rows):
            single = boundary_corrections(row)
            assert same_bits(e, single.e.values)
            assert same_bits(f_corr, single.f_corr.values)

    @pytest.mark.parametrize("n", [1, 2, 3, 5, 12, 16])
    def test_rotation_equals_gather_bit_for_bit(self, n, rng):
        p = GridParams(n)
        for f in (random_grid_function(p, rng), random_stack(p, rng)):
            for op, sign in ((forward, -1), (inverse, +1)):
                assert same_bits(op(f).values, gather_transform(f, sign))

    def test_rows_match_reference_summation(self, rng):
        for n in (1, 2, 4, 7):
            stack = random_stack(GridParams(n), rng)
            for fwd, inv, v in zip(forward(stack).values, inverse(stack).values, stack.values):
                row = GridFunction(stack.params, v)
                assert np.abs(fwd - reference_forward(row)).max() <= 1e-11
                assert np.abs(inv - reference_inverse(row)).max() <= 1e-11


class TestTransformStructure:
    def test_hermitian_symmetry_for_real_input(self, rng):
        for n in (2, 8):
            p = GridParams(n)
            fhat = forward(random_grid_function(p, rng, real=True)).values
            for k in range(1, n * n):
                a = fhat[p.position(-k)]
                b = fhat[p.position(k)]
                assert abs(a - np.conj(b)) <= 1e-12 * (1 + abs(a))

    def test_parseval_pairing(self, rng):
        # <f, g> equals half the spectral pairing (consequence of the x2 round trip)
        for n in (1, 4, 8):
            p = GridParams(n)
            f, g = random_grid_function(p, rng), random_grid_function(p, rng)
            lhs = integrate(f * g.conj())
            rhs = 0.5 * integrate(forward(f) * forward(g).conj())
            assert abs(lhs - rhs) <= 1e-9 * (1 + abs(lhs))

    def test_linearity_and_bound(self, rng):
        p = GridParams(4)
        f, g = random_grid_function(p, rng), random_grid_function(p, rng)
        a, b = 0.3 + 1j, -2.0
        lhs = forward(a * f + b * g).values
        rhs = a * forward(f).values + b * forward(g).values
        assert np.abs(lhs - rhs).max() <= 1e-12 * (1 + np.abs(rhs).max())
        assert np.abs(forward(f).values).max() <= 2 * p.n * f.max_abs() + 1e-12


class TestSpectralSymbols:
    @pytest.mark.parametrize("n", [1, 3, 16, 256])
    def test_conjugate_pair_and_zero(self, n):
        p = GridParams(n)
        psi = spectral_symbols(p)
        x = p.space_points()
        # boundary_corrections takes the backward-difference symbol as conj(psi)
        assert np.array_equal(np.conj(psi.values), n * (np.exp(-1j * np.pi * x / n) - 1.0))
        assert psi.values[p.position(0)] == 0
        expect_mag = 2 * n * np.abs(np.sin(np.pi * x / (2 * n)))
        assert np.abs(np.abs(psi.values) - expect_mag).max() <= 1e-12 * (1 + 2 * n)
        assert np.abs(psi.values).max() <= 2 * n + 1e-12


class TestBoundaryCorrections:
    def test_all_vanish_for_interior_support(self, rng):
        p = GridParams(3)
        v = np.zeros(18, dtype=complex)
        v[2:-2] = rng.standard_normal(14) + 1j * rng.standard_normal(14)
        corr = boundary_corrections(GridFunction(p, v))
        assert np.all(corr.e.values == 0)
        assert np.all(corr.f_corr.values == 0)

    def test_two_point_e_formula(self):
        # n=1, slice (a, b): e = phi d - C with C(y) = b - a e^{i pi y} and
        # d(y) = -a e^{2 i pi y}, which collapses to a - b at both grid y
        a, b = 1.5 - 0.5j, 2.0 + 1j
        corr = boundary_corrections(GridFunction(GridParams(1), [a, b]))
        assert np.abs(corr.e.values - (a - b)).max() <= 1e-14

    def test_compositions(self, rng):
        # d_xx = d_x(d_x), so f_corr(f) == psi*e(f) + e(d_x f) algebraically
        # (not bit-for-bit)
        p = GridParams(4)
        f = random_grid_function(p, rng)
        corr = boundary_corrections(f)
        alt = spectral_symbols(p).values * corr.e.values + boundary_corrections(d_x(f)).e.values
        scale = 1 + np.abs(alt).max()
        assert np.abs(corr.f_corr.values - alt).max() <= 1e-12 * scale


class TestDerivativeTransformIdentities:
    def test_zero_slice(self):
        assert checks.derivative_ratio(GridFunction.zeros(GridParams(2))) == 0

    def test_delta_slice_has_no_boundary_terms(self):
        # both residuals at most 1e-12: the ratio against the larger (d_xx) tolerance
        f = GridFunction.delta(GridParams(2), j=0)
        assert checks.derivative_ratio(f) <= 1e-12 / (1e-9 * (1 + 2 * 2 * f.max_abs()))

    @pytest.mark.parametrize("n", [1, 2, 4, 8])
    def test_random_slices_within_contract(self, n, rng):
        p = GridParams(n)
        for _ in range(100):
            assert checks.derivative_ratio(random_grid_function(p, rng)) <= 1.0

    def test_identity_against_reference_transform(self, rng):
        # same identity, residual measured entirely with the reference summation
        p = GridParams(4)
        f = random_grid_function(p, rng)
        corr = boundary_corrections(f)
        lhs = reference_forward(d_x(f))
        rhs = spectral_symbols(p).values * reference_forward(f) - corr.e.values
        assert np.abs(lhs - rhs).max() <= 1e-9 * (1 + p.n * f.max_abs())
