import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab.credal import InputError
from ergolab.gheat import CircleGrid, GHeatParams, cos_fn, indicator_fn, random_fn, solve
from ergolab.scenario import strong_regularity_audit
from ergolab.wrapped import (
    WrappedKernelSpec,
    kernel_matrix,
    linear_semigroup,
    regularity_bound,
    wrapped_gauss,
)
from oracles import constant_fn, dense_kernel

GRID512 = CircleGrid(512)


class TestWrappedGauss:
    def test_spec_validation(self):
        with pytest.raises(InputError):
            WrappedKernelSpec(0.0, 1.0)
        with pytest.raises(InputError):
            WrappedKernelSpec(1.0, 0.0)

    @pytest.mark.parametrize("sigma2, t", [(math.inf, 1.0), (math.nan, 1.0), (1.0, math.inf), (1.0, math.nan)])
    def test_non_finite_spec_rejected(self, sigma2, t):
        with pytest.raises(InputError, match="must be finite"):
            WrappedKernelSpec(sigma2, t)

    def test_underflowing_variance_rejected(self):
        with pytest.raises(InputError, match="underflows to 0"):
            WrappedKernelSpec(1e-300, 1e-300)

    @pytest.mark.parametrize("sigma2, t", [(1.0, 1e300), (1e200, 1e200), (1.0, 1e18)])
    def test_ratio_rounding_to_one_is_variance_too_large(self, sigma2, t):
        # exp(-(2*pi)^2 (2K+1) / (2 v)) rounds to 1 for every K <= 200
        with pytest.raises(InputError, match="variance too large"):
            WrappedKernelSpec(sigma2, t).truncation_order

    def test_truncation_order_matches_unguarded_loop(self):
        def ref_truncation_order(v):
            amp = 2.0 / math.sqrt(2.0 * math.pi * v)
            for k in range(1, 201):
                lead = math.exp(-((2.0 * math.pi * k) ** 2) / (2.0 * v))
                ratio = math.exp(-((2.0 * math.pi) ** 2) * (2 * k + 1) / (2.0 * v))
                if amp * lead / (1.0 - ratio) < 1e-15:
                    return k
            return None

        orders = set()
        for v in [*np.logspace(-8, 4, 400).tolist(), 0.25 * 1e-3, 1.0, 0.49, 30.0]:
            orders.add(WrappedKernelSpec(v, 1.0).truncation_order)
            assert WrappedKernelSpec(v, 1.0).truncation_order == ref_truncation_order(v), v
        assert len(orders) > 10

    def test_unit_mass_by_trapezoid(self):
        spec = WrappedKernelSpec(0.3, 0.9)
        dens = wrapped_gauss(spec, 1.234, GRID512.nodes())
        assert abs(float(np.sum(dens)) * GRID512.h - 1.0) <= 1e-12

    def test_nonnegative(self):
        spec = WrappedKernelSpec(0.25, 0.05)
        assert np.all(wrapped_gauss(spec, 0.0, GRID512.nodes()) >= 0.0)

    def test_symmetry_exact(self):
        spec = WrappedKernelSpec(0.7, 0.4)
        xs = GRID512.nodes()[:32]
        ys = GRID512.nodes()[100:132]
        assert np.array_equal(wrapped_gauss(spec, xs, ys), wrapped_gauss(spec, ys, xs))

    def test_large_variance_flattens_to_uniform(self):
        spec = WrappedKernelSpec(1.0, 50.0)
        dens = wrapped_gauss(spec, 0.0, GRID512.nodes())
        assert np.max(np.abs(dens - 1.0 / (2 * np.pi))) <= 1e-10

    @given(st.floats(0.05, 5.0), st.floats(0.05, 5.0))
    @settings(max_examples=40, deadline=None)
    def test_mass_for_random_specs(self, sigma2, t):
        spec = WrappedKernelSpec(sigma2, t)
        dens = wrapped_gauss(spec, 0.5, GRID512.nodes())
        assert abs(float(np.sum(dens)) * GRID512.h - 1.0) <= 1e-11


class TestLinearSemigroup:
    def test_constant_fixed(self):
        grid = CircleGrid(256)
        u = linear_semigroup(constant_fn(grid, 3.0), WrappedKernelSpec(0.25, 1.0))
        assert np.max(np.abs(u.values - 3.0)) <= 1e-12

    def test_cos_eigenfunction(self):
        u = linear_semigroup(cos_fn(GRID512), WrappedKernelSpec(0.64, 1.3))
        expect = math.exp(-0.64 * 1.3 / 2.0) * np.cos(GRID512.nodes())
        assert np.max(np.abs(u.values - expect)) <= 1e-6

    def test_mean_preserved_for_random_data(self):
        phi = random_fn(GRID512, 17)
        u = linear_semigroup(phi, WrappedKernelSpec(0.4, 0.6))
        assert abs(float(np.mean(u.values)) - float(np.mean(phi.values))) <= 1e-10

    def test_maximum_principle(self):
        phi = random_fn(GRID512, 23)
        u = linear_semigroup(phi, WrappedKernelSpec(0.4, 0.6))
        assert np.max(u.values) <= np.max(phi.values) + 1e-12
        assert np.min(u.values) >= np.min(phi.values) - 1e-12

    def test_chapman_composition(self):
        for phi in (cos_fn(GRID512), random_fn(GRID512, 3)):
            direct = linear_semigroup(phi, WrappedKernelSpec(0.25, 0.7))
            chained = linear_semigroup(
                linear_semigroup(phi, WrappedKernelSpec(0.25, 0.3)),
                WrappedKernelSpec(0.25, 0.4),
            )
            assert np.max(np.abs(direct.values - chained.values)) <= 1e-8

    def test_degenerate_band_matches_nonlinear_solver(self):
        from ergolab.gheat import indicator_fn, quad_fn

        grid = CircleGrid(256)
        suite = (cos_fn(grid), quad_fn(grid), indicator_fn(grid, 0.0, np.pi), random_fn(grid, 8))
        for sigma2 in (0.25, 1.0):
            p = GHeatParams(sigma2, sigma2)
            for phi in suite:
                for t in (0.1, 0.8):
                    pde = solve(phi, t, p)
                    ker = linear_semigroup(phi, WrappedKernelSpec(sigma2, t))
                    assert np.max(np.abs(pde.values - ker.values)) <= 2e-3

    def test_kernel_matrix_rows_sum_to_one(self):
        mat = kernel_matrix(256, 0.25, 1.0 / 64)
        assert np.max(np.abs(mat.sum(axis=1) - 1.0)) <= 1e-12


class TestCirculantKernel:
    """The FFT route against the dense pointwise operator `dense_kernel`."""

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("n", [1, 64])
    @pytest.mark.parametrize("sigma2", [0.25, 1.0])
    def test_linear_semigroup_matches_dense_operator(self, m, n, sigma2):
        # t = 1/n is the one-step kernel of an n-step DP lattice on [0, 1]
        grid = CircleGrid(m)
        mat = dense_kernel(m, sigma2, 1.0 / n)
        data = {"cos": cos_fn(grid), "random": random_fn(grid, 5), "indicator": indicator_fn(grid, 0.5, 2.0)}
        for name, phi in data.items():
            u = linear_semigroup(phi, WrappedKernelSpec(sigma2, 1.0 / n)).values
            assert np.max(np.abs(u - mat @ phi.values)) <= 1e-12, name

    @pytest.mark.parametrize("m", [256, 1024])
    def test_kernel_matrix_matches_dense_operator(self, m):
        assert np.max(np.abs(kernel_matrix(m, 0.25, 1.0 / 64) - dense_kernel(m, 0.25, 1.0 / 64))) <= 1e-14


class TestRegularityBound:
    def test_zero_measure(self):
        assert regularity_bound(1.0, 0.25, 0.0) == 0.0

    def test_linear_in_measure(self):
        b1 = regularity_bound(1.0, 0.25, 0.1)
        b2 = regularity_bound(1.0, 0.25, 0.2)
        assert b2 == pytest.approx(2.0 * b1, rel=1e-12)

    def test_closed_form_value(self):
        expect = 0.1 / math.sqrt(2 * math.pi) * math.exp(2 * math.pi**2) / (1 - math.exp(-math.pi**2))
        assert regularity_bound(1.0, 1.0, 0.1) == pytest.approx(expect, rel=1e-12)

    def test_monotone_decreasing_on_the_mid_window(self):
        # the bound decreases on lo2*t in [2*pi^2, 5*pi^2] and turns upward
        # after: the factor 1/(1 - exp(-pi^2/(lo2 t))) grows like lo2*t/pi^2
        lo2 = 1.0
        ts = np.linspace(2 * math.pi**2 / lo2, 5 * math.pi**2 / lo2, 24)
        vals = [regularity_bound(t, lo2, 0.1) for t in ts]
        assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))

    def test_grows_like_sqrt_t_for_late_times(self):
        lo2 = 1.0
        ts = np.linspace(6 * math.pi**2 / lo2, 12 * math.pi**2 / lo2, 12)
        vals = [regularity_bound(t, lo2, 0.1) for t in ts]
        assert all(b >= a for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InputError):
            regularity_bound(0.0, 1.0, 0.1)
        with pytest.raises(InputError):
            regularity_bound(1.0, 1.0, -0.1)

    @pytest.mark.parametrize(
        "t, sigma_lo2, leb",
        [(math.nan, 0.25, 0.1), (math.inf, 0.25, 0.1), (1.0, math.nan, 0.1), (1.0, math.inf, 0.1),
         (1.0, 0.25, math.nan), (1.0, 0.25, math.inf)],
    )
    def test_non_finite_inputs_rejected(self, t, sigma_lo2, leb):
        with pytest.raises(InputError, match="must be finite"):
            regularity_bound(t, sigma_lo2, leb)

    @pytest.mark.parametrize(
        "t, sigma_lo2",
        [(1e300, 0.25), (1e200, 1e200), (1e-300, 1e-300), (1e-3, 1e-3)],
        ids=["denominator-underflows", "product-overflows", "product-underflows", "exponential-overflows"],
    )
    def test_infinite_where_the_closed_form_breaks_down(self, t, sigma_lo2):
        assert regularity_bound(t, sigma_lo2, 0.1) == math.inf


class TestStrongRegularityAudit:
    def test_full_circle_is_constant_one(self):
        p = GHeatParams(0.25, 1.0)
        rep = strong_regularity_audit(p, 1.0, [(0.0, 2 * np.pi)])
        assert rep.rows[0].sup_value == pytest.approx(1.0, abs=1e-9)

    def test_shrinking_dyadic_intervals(self):
        p = GHeatParams(0.25, 1.0)
        intervals = [(0.0, 2 * np.pi / 2**n) for n in range(1, 7)]
        rep = strong_regularity_audit(p, 1.0, intervals)
        vals = [r.sup_value for r in rep.rows]
        assert all(b < a for a, b in zip(vals, vals[1:]))  # strictly decreasing here
        assert rep.ok
        assert vals[-1] <= 0.2

    def test_empty_interval_gives_zero(self):
        p = GHeatParams(0.25, 1.0)
        rep = strong_regularity_audit(p, 1.0, [(0.0, 0.0)])
        assert rep.rows[0].sup_value == 0.0
        assert rep.rows[0].closed_form_bound == 0.0

    def test_nesting_enforced(self):
        p = GHeatParams(0.25, 1.0)
        with pytest.raises(InputError):
            strong_regularity_audit(p, 1.0, [(0.0, 1.0), (0.0, 2.0)])
