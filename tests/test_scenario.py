import math
from functools import lru_cache

import numpy as np
import pytest

from ergolab.credal import InputError
from ergolab.gheat import CircleGrid, GHeatParams, GridFn, cos_fn, constant_fn, indicator_fn, quad_fn, random_fn, solve
from ergolab.scenario import (
    capacity_estimate,
    constant_policy,
    default_policy_suite,
    dp_upper_expectation,
    greedy_policy,
    random_switching_policy,
    simulate_path,
    slln_experiment,
    threshold_policy,
    time_average,
)
from ergolab.wrapped import WrappedKernelSpec, kernel_row, linear_semigroup, wrapped_gauss

GRID = CircleGrid(256)
PARAMS = GHeatParams(0.25, 1.0)
TWO_PI = 2.0 * math.pi


def stationary_feedback_average(high_on_cos_above: float | None, flip: bool = False) -> float:
    """Long-run cosine average of a bang-bang feedback diffusion, in closed form.

    A drift-free diffusion with squared volatility s(x) on the circle has
    stationary density proportional to 1/s(x); for s = hi2 on {cos > level}
    and lo2 elsewhere the average of cos is a one-dimensional integral with
    an elementary closed form.
    """
    lo2, hi2 = 0.25, 1.0
    x = np.arange(400000) * (TWO_PI / 400000)  # midpoint-free rectangle rule on a period
    c = np.cos(x)
    on = c > high_on_cos_above
    if flip:
        on = ~on
    w = np.where(on, 1.0 / hi2, 1.0 / lo2)
    return float(np.sum(c * w) / np.sum(w))


class TestPolicies:
    def test_constant_out_of_band_rejected(self):
        with pytest.raises(InputError):
            constant_policy(PARAMS, 2.0)

    def test_unknown_kind_rejected(self):
        from ergolab.scenario import VolPolicy

        with pytest.raises(InputError):
            VolPolicy("clairvoyant", 0.5, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_switching_policy(PARAMS, rate=math.nan),
            lambda: random_switching_policy(PARAMS, rate=math.inf),
            lambda: threshold_policy(PARAMS, math.nan),
            lambda: threshold_policy(PARAMS, -math.inf),
        ],
        ids=["rate-nan", "rate-inf", "level-nan", "level-minus-inf"],
    )
    def test_non_finite_rate_or_level_rejected(self, make):
        with pytest.raises(InputError, match="must be finite"):
            make()

    def test_negative_switching_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            random_switching_policy(PARAMS, seed=-2)

    def test_constant_defaults_to_high_volatility(self):
        assert constant_policy(PARAMS).sigma == 1.0

    def test_default_suite_has_one_per_kind(self):
        kinds = [p.kind for p in default_policy_suite(PARAMS)]
        assert kinds == ["constant", "random-switching", "threshold-feedback", "greedy-bang-bang"]


class TestSimulatePath:
    def test_zero_horizon(self):
        path = simulate_path(constant_policy(PARAMS, 1.0), 0.7, 0.0, 0.01, 1)
        assert path.positions.tolist() == [0.7]

    @pytest.mark.parametrize("horizon, dt", [(math.nan, 0.01), (math.inf, 0.01), (1.0, math.nan), (1.0, math.inf)])
    def test_non_finite_times_rejected(self, horizon, dt):
        with pytest.raises(InputError, match="must be finite"):
            simulate_path(constant_policy(PARAMS, 1.0), 0.0, horizon, dt, 1)

    def test_positions_stay_on_circle(self):
        for policy in default_policy_suite(PARAMS):
            path = simulate_path(policy, 0.0, 50.0, 0.01, 3)
            assert np.all(path.positions >= 0.0)
            assert np.all(path.positions < TWO_PI)

    def test_constant_policy_increment_variance(self):
        # unwrapped increments over many steps should have variance sigma^2 dt
        sigma, dt, steps = 0.5, 0.01, 100_000
        rng = np.random.default_rng(8)
        noise = rng.standard_normal(steps)
        # reproduce the simulator's stream to unwrap exactly
        path = simulate_path(constant_policy(PARAMS, sigma), 0.0, steps * dt, dt, 8)
        inc = np.diff(path.positions)
        inc = np.where(inc > np.pi, inc - TWO_PI, inc)
        inc = np.where(inc < -np.pi, inc + TWO_PI, inc)
        var = float(np.var(inc))
        se = sigma**2 * dt * math.sqrt(2.0 / steps)
        assert abs(var - sigma**2 * dt) <= 3 * se
        assert np.allclose(inc, sigma * math.sqrt(dt) * noise)

    def test_seed_determinism_bitwise(self):
        for policy in default_policy_suite(PARAMS):
            a = simulate_path(policy, 0.3, 20.0, 0.01, 42)
            b = simulate_path(policy, 0.3, 20.0, 0.01, 42)
            assert np.array_equal(a.positions, b.positions)

    def test_different_seeds_differ(self):
        a = simulate_path(constant_policy(PARAMS, 1.0), 0.3, 5.0, 0.01, 1)
        b = simulate_path(constant_policy(PARAMS, 1.0), 0.3, 5.0, 0.01, 2)
        assert not np.array_equal(a.positions, b.positions)

    def test_switching_policy_uses_both_levels(self):
        path = simulate_path(random_switching_policy(PARAMS, rate=5.0, seed=4), 0.0, 50.0, 0.01, 5)
        inc = np.abs(np.diff(path.positions))
        assert inc.max() > 0  # path actually moves


def ref_feedback_path(policy, x0, horizon, dt, seed):
    """simulate_path's two closed-form feedback loops as they stood before the merge."""
    n_steps = int(round(horizon / dt))
    x0 = float(np.mod(x0, TWO_PI))
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n_steps)
    sq = math.sqrt(dt)

    lo, hi = policy.sigma_lo, policy.sigma_hi
    noise_list = noise.tolist()
    out = np.empty(n_steps + 1)
    x = x0
    out[0] = x
    # cosine observable evaluated in closed form
    level = policy.level
    if policy.kind == "threshold-feedback":
        for k, z in enumerate(noise_list):
            s = hi if math.cos(x) > level else lo
            x = (x + s * sq * z) % TWO_PI
            out[k + 1] = x
    else:  # greedy: high volatility where curvature of cos is positive
        for k, z in enumerate(noise_list):
            s = hi if math.cos(x) < 0.0 else lo
            x = (x + s * sq * z) % TWO_PI
            out[k + 1] = x
    return out


class TestFeedbackLoopDifferential:
    @pytest.mark.parametrize("x0", [0.0, 1.0, math.pi])
    @pytest.mark.parametrize("seed", [5, 11])
    @pytest.mark.parametrize("level", [-0.5, 0.0, 0.3])
    def test_threshold_matches_reference_loop(self, x0, seed, level):
        policy = threshold_policy(PARAMS, level)
        got = simulate_path(policy, x0, 60.0, 0.01, seed).positions
        assert got.size == 6001
        assert np.array_equal(got, ref_feedback_path(policy, x0, 60.0, 0.01, seed))

    @pytest.mark.parametrize("x0", [0.0, 1.0, math.pi])
    @pytest.mark.parametrize("seed", [5, 11])
    def test_greedy_matches_reference_loop(self, x0, seed):
        policy = greedy_policy(PARAMS)
        got = simulate_path(policy, x0, 60.0, 0.01, seed).positions
        assert np.array_equal(got, ref_feedback_path(policy, x0, 60.0, 0.01, seed))


class TestTimeAverage:
    def test_constant_observable(self):
        path = simulate_path(constant_policy(PARAMS, 1.0), 0.0, 10.0, 0.01, 1)
        assert time_average(path, constant_fn(GRID, 3.0)) == pytest.approx(3.0, abs=1e-12)

    def test_point_path(self):
        path = simulate_path(constant_policy(PARAMS, 1.0), 1.0, 0.0, 0.01, 1)
        assert time_average(path, cos_fn(GRID)) == pytest.approx(math.cos(1.0), abs=1e-4)

    def test_interpolation_matches_closed_form(self):
        path = simulate_path(constant_policy(PARAMS, 1.0), 0.0, 20.0, 0.01, 7)
        by_interp = time_average(path, cos_fn(GRID))
        direct = float(np.mean(np.cos(path.positions[:-1])))
        assert by_interp == pytest.approx(direct, abs=1e-4)


class TestLongRunAverages:
    def test_constant_policy_averages_to_space_mean(self):
        path = simulate_path(constant_policy(PARAMS, 1.0), 0.0, 1e4, 0.01, 11)
        assert abs(time_average(path, cos_fn(GRID))) <= 0.05

    def test_threshold_policy_matches_stationary_density(self):
        # occupation tilts toward low-volatility territory: density ~ 1/s(x)
        expect = stationary_feedback_average(0.0)  # = -6/(5*pi) ~ -0.3820
        assert expect == pytest.approx(-6.0 / (5.0 * math.pi), abs=1e-6)
        path = simulate_path(threshold_policy(PARAMS, 0.0), 0.0, 5e3, 0.01, 11)
        assert time_average(path, cos_fn(GRID)) == pytest.approx(expect, abs=0.06)

    def test_greedy_policy_matches_mirrored_stationary_density(self):
        expect = stationary_feedback_average(0.0, flip=True)  # = +6/(5*pi)
        path = simulate_path(greedy_policy(PARAMS), 0.0, 5e3, 0.01, 11)
        assert time_average(path, cos_fn(GRID)) == pytest.approx(expect, abs=0.06)


class TestSllnExperiment:
    def test_constant_observable_has_zero_deviation(self):
        rep = slln_experiment(constant_fn(GRID, 2.0), default_policy_suite(PARAMS), 5.0, [1, 2])
        assert rep.max_deviation <= 1e-12 and rep.ok

    def test_state_blind_policies_meet_tolerance(self):
        # needs the full horizon: the asymptotic sd of the time average is
        # sqrt(2/(sigma^2 T)), i.e. ~0.028 for sigma^2=0.25 at T=1e4
        policies = [constant_policy(PARAMS, 1.0), constant_policy(PARAMS, 0.5),
                    random_switching_policy(PARAMS, 1.0, 0)]
        rep = slln_experiment(cos_fn(GRID), policies, 1e4, [11, 23], dt=0.01, tol=0.05)
        assert rep.ok, rep.flagged

    @pytest.mark.parametrize("tol", [float("nan"), -1.0, float("inf")])
    def test_bad_tol_rejected(self, tol):
        with pytest.raises(InputError, match="tol must be finite and >= 0"):
            slln_experiment(cos_fn(GRID), default_policy_suite(PARAMS), 1e4, [11], tol=tol)

    def test_feedback_policies_are_flagged(self):
        policies = [threshold_policy(PARAMS, 0.0), greedy_policy(PARAMS)]
        rep = slln_experiment(cos_fn(GRID), policies, 2e3, [11], dt=0.01, tol=0.05)
        assert not rep.ok
        assert len(rep.flagged) == 2
        assert rep.max_deviation > 0.3


class TestDpOracle:
    def test_constant_preserved(self):
        u = dp_upper_expectation(constant_fn(GRID, 1.5), 1.0, PARAMS, 32)
        assert np.max(np.abs(u.values - 1.5)) <= 1e-10

    def test_degenerate_band_matches_kernel(self):
        p = GHeatParams(0.49, 0.49)
        u = dp_upper_expectation(cos_fn(GRID), 1.0, p, 64)
        ker = linear_semigroup(cos_fn(GRID), WrappedKernelSpec(0.49, 1.0))
        assert np.max(np.abs(u.values - ker.values)) <= 1e-6

    def test_matches_pde_for_cosine(self):
        u = dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 64)
        pde = solve(cos_fn(GRID), 1.0, PARAMS)
        assert np.max(np.abs(u.values - pde.values)) <= 5e-3

    def test_dominates_endpoint_kernels(self):
        phi = quad_fn(GRID)
        u = dp_upper_expectation(phi, 1.0, PARAMS, 64).values
        for sigma2 in (PARAMS.sigma_lo2, PARAMS.sigma_hi2):
            ker = linear_semigroup(phi, WrappedKernelSpec(sigma2, 1.0)).values
            assert np.all(ker <= u + 1e-8)

    def test_monotone_in_the_datum(self):
        rng = np.random.default_rng(3)
        lo = random_fn(GRID, 3)
        hi = type(lo)(GRID, lo.values + rng.uniform(0.0, 1.0, GRID.m))
        ulo = dp_upper_expectation(lo, 0.5, PARAMS, 32).values
        uhi = dp_upper_expectation(hi, 0.5, PARAMS, 32).values
        assert np.all(ulo <= uhi + 1e-10)

    def test_doubling_steps_is_stable(self):
        a = dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 64).values
        b = dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 128).values
        assert np.max(np.abs(a - b)) <= 5e-3

    def test_step_count_validated(self):
        with pytest.raises(InputError):
            dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 0)


def two_irfft_recursion(phi, t, p, n_steps):
    """The DP recursion as it stood before the batched inverse: one forward and two inverse rFFTs a step."""
    m = phi.grid.m
    spectrum_lo = np.fft.rfft(kernel_row(m, p.sigma_lo2, t / n_steps))
    spectrum_hi = np.fft.rfft(kernel_row(m, p.sigma_hi2, t / n_steps))
    u = phi.values
    for _ in range(n_steps):
        f = np.fft.rfft(u)
        u = np.maximum(np.fft.irfft(f * spectrum_lo, n=m), np.fft.irfft(f * spectrum_hi, n=m))
    return u


class TestDpBatchedIrfftDifferential:
    """One batched inverse rFFT per step reproduces the two-irfft recursion byte for byte."""

    @pytest.mark.parametrize("m", [256, 512, 1024, 2048])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_two_irfft_recursion(self, m, n):
        grid = CircleGrid(m)
        data = {"random": random_fn(grid, 5), "rotated-cos": GridFn(grid, np.cos(grid.nodes() - 0.7))}
        for name, phi in data.items():
            got = dp_upper_expectation(phi, 1.0, PARAMS, n).values
            assert got.tobytes() == two_irfft_recursion(phi, 1.0, PARAMS, n).tobytes(), name


@lru_cache(maxsize=None)
def dense_kernel(m: int, sigma2: float, t: float) -> np.ndarray:
    """Independent reference: K[i, j] = h * p(t, x_i, x_j), pointwise from wrapped_gauss."""
    grid = CircleGrid(m)
    x = grid.nodes()
    return grid.h * wrapped_gauss(WrappedKernelSpec(sigma2, t), x[:, None], x[None, :])


class TestDpOracleDifferential:
    """The FFT recursion against a dense matrix-vector DP loop."""

    @pytest.mark.parametrize("m", [256, 1024])
    @pytest.mark.parametrize("n", [1, 64])
    def test_matches_dense_recursion(self, m, n):
        grid = CircleGrid(m)
        k_lo = dense_kernel(m, PARAMS.sigma_lo2, 1.0 / n)
        k_hi = dense_kernel(m, PARAMS.sigma_hi2, 1.0 / n)
        data = {"cos": cos_fn(grid), "random": random_fn(grid, 5), "indicator": indicator_fn(grid, 0.5, 2.0)}
        for name, phi in data.items():
            u = phi.values
            for _ in range(n):
                u = np.maximum(k_lo @ u, k_hi @ u)
            dp = dp_upper_expectation(phi, 1.0, PARAMS, n).values
            assert np.max(np.abs(dp - u)) <= 1e-12, name

    def test_under_resolved_lattice_message(self):
        with pytest.raises(InputError, match="rows sum to 1 only within"):
            dp_upper_expectation(cos_fn(CircleGrid(64)), 1.0, PARAMS, 512)


class TestCapacityEstimate:
    def test_always_true_event(self):
        up, lo = capacity_estimate(lambda p: True, default_policy_suite(PARAMS), 1.0, 0.01, [1, 2])
        assert (up, lo) == (1.0, 1.0)

    def test_always_false_event(self):
        up, lo = capacity_estimate(lambda p: False, default_policy_suite(PARAMS), 1.0, 0.01, [1, 2])
        assert (up, lo) == (0.0, 0.0)

    def test_visit_event_ordered_and_bounded(self):
        def visits_small_arc(path):
            return bool(np.any(path.positions <= 0.1))

        up, lo = capacity_estimate(
            visits_small_arc, default_policy_suite(PARAMS), 10.0, 0.01, [1, 2, 3, 4]
        )
        assert 0.0 <= lo <= up <= 1.0
