"""Tests of `ergolab.scenario`: volatility policies, paths, the strong-law experiment and the DP oracle.

The DP recursion is checked byte for byte against `oracles.dp_oracle`
(`TestDpBatchedIrfftDifferential`, `TestDpBufferDifferential`), and to 1e-12
against a dense matrix loop on `oracles.dense_kernel`
(`TestDpOracleDifferential`).  Feedback paths are checked against
`ref_feedback_path`, random-switching schedules byte for byte against
`one_draw_switching_sigma` and `concatenated_switching_sigma`, long-run
averages against `stationary_feedback_average`.
"""

import math
import tracemalloc

import numpy as np
import pytest

from ergolab.credal import InputError
from ergolab.gheat import CircleGrid, GHeatParams, GridFn, cos_fn, indicator_fn, quad_fn, random_fn, solve
from ergolab.scenario import (
    VolPolicy,
    _switching_sigma_per_step,
    capacity_estimate,
    constant_policy,
    default_policy_suite,
    dp_upper_expectation,
    greedy_policy,
    random_switching_policy,
    simulate_path,
    slln_experiment,
    strong_regularity_audit,
    threshold_policy,
    time_average,
)
from ergolab.wrapped import WrappedKernelSpec, linear_semigroup
from oracles import constant_fn, dense_kernel, dp_oracle

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
        with pytest.raises(InputError):
            VolPolicy("clairvoyant", 0.5, 1.0)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: random_switching_policy(PARAMS, rate=math.nan),
            lambda: random_switching_policy(PARAMS, rate=math.inf),
            lambda: threshold_policy(PARAMS, math.nan),
            lambda: threshold_policy(PARAMS, -math.inf),
            lambda: VolPolicy("greedy-bang-bang", 0.5, math.inf),
        ],
        ids=["rate-nan", "rate-inf", "level-nan", "level-minus-inf", "sigma-hi-inf"],
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

    @pytest.mark.parametrize("x0", [math.nan, math.inf, -math.inf])
    def test_non_finite_start_rejected(self, x0):
        for policy in default_policy_suite(PARAMS):
            with pytest.raises(InputError, match="x0 must be finite"):
                simulate_path(policy, x0, 1.0, 0.01, 1)

    @pytest.mark.parametrize("horizon, dt", [(1e300, 0.01), (1e300, 1e-300), (1.0, 1e-300)])
    def test_step_count_past_maxsize_rejected(self, horizon, dt):
        with pytest.raises(InputError, match="takes more than"):
            simulate_path(constant_policy(PARAMS, 1.0), 0.0, horizon, dt, 1)

    def test_step_count_past_any_address_space_rejected(self):
        # 10^17 steps of 8 bytes exceed every 64-bit address space, so nothing is allocated
        with pytest.raises(InputError, match="more than memory holds"):
            simulate_path(constant_policy(PARAMS, 1.0), 0.0, 1e14, 1e-3, 1)

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

    def test_shorter_horizon_is_a_prefix(self):
        # the switching schedule's start must not depend on how many gaps the horizon needs
        for switch_seed in range(12):
            policy = random_switching_policy(PARAMS, 1.0, switch_seed)
            short = simulate_path(policy, 0.0, 10.0, 0.01, 11).positions
            long = simulate_path(policy, 0.0, 1000.0, 0.01, 11).positions
            assert np.array_equal(short, long[: short.size]), switch_seed

    def test_switching_policy_uses_both_levels(self):
        path = simulate_path(random_switching_policy(PARAMS, rate=5.0, seed=4), 0.0, 50.0, 0.01, 5)
        inc = np.abs(np.diff(path.positions))
        assert inc.max() > 0  # path actually moves


def one_draw_switching_sigma(policy, n_steps, dt):
    """The random-switching volatility schedule, one exponential gap drawn at a time until the horizon is passed."""
    rng = np.random.default_rng(policy.switch_seed)
    start_high = bool(rng.integers(0, 2))
    horizon = n_steps * dt
    gaps, total = [], 0.0
    while total <= horizon:
        gaps.append(rng.exponential(1.0 / policy.rate))
        total += gaps[-1]
    parity = np.searchsorted(np.cumsum(gaps), dt * np.arange(n_steps), side="right") % 2
    return np.where(parity == (0 if start_high else 1), policy.sigma_hi, policy.sigma_lo)


def concatenated_switching_sigma(policy, n_steps, dt):
    """The random-switching volatility schedule from the blocks of switch times, all kept and joined."""
    rng = np.random.default_rng(policy.switch_seed)
    start_high = bool(rng.integers(0, 2))
    horizon = n_steps * dt
    size = int(min(policy.rate * horizon, n_steps)) + 1
    blocks, total = [], 0.0
    while total <= horizon:
        ends = np.cumsum(np.concatenate(([total], rng.exponential(1.0 / policy.rate, size))))
        blocks.append(ends[1:])
        total = ends[-1]
    parity = np.searchsorted(np.concatenate(blocks), dt * np.arange(n_steps), side="right") % 2
    return np.where(parity == (0 if start_high else 1), policy.sigma_hi, policy.sigma_lo)


class TestSwitchingSchedule:
    """Block-drawn switch gaps give the one-draw-at-a-time and the concatenated-blocks schedules byte for byte."""

    #: (n_steps, dt); with the rates below a block holds from 1 gap up to its cap of n_steps + 1
    STEPS = ((1, 0.1), (7, 0.3), (1000, 1e-4), (1000, 1e-3), (5000, 1e-2))

    @pytest.mark.parametrize("rate", [0.3, 1.0, 1e3, 1e5])
    def test_block_draws_match_one_draw_at_a_time(self, rate):
        levels = set()
        for seed in range(6):
            policy = random_switching_policy(PARAMS, rate, seed)
            for n_steps, dt in self.STEPS:
                if rate * n_steps * dt > 1e4:
                    continue  # the one-draw reference would take over 0.04 s
                got = _switching_sigma_per_step(policy, n_steps, dt)
                assert got.tobytes() == one_draw_switching_sigma(policy, n_steps, dt).tobytes(), (seed, n_steps)
                levels.update(got.tolist())
        assert levels == {policy.sigma_lo, policy.sigma_hi}

    @pytest.mark.parametrize("rate", [0.01, 1.0, 1e3, 1e5])
    def test_folded_counts_match_concatenated_switch_times(self, rate):
        steps = ((1, 0.1), (7, 0.3), (1000, 1e-3), (5000, 1e-2))
        for seed in range(6):
            policy = random_switching_policy(PARAMS, rate, seed)
            for n_steps, dt in steps:
                got = _switching_sigma_per_step(policy, n_steps, dt)
                assert got.tobytes() == concatenated_switching_sigma(policy, n_steps, dt).tobytes(), (seed, n_steps)

    def test_memory_does_not_grow_with_the_switch_count(self):
        # 10^6 switches on a 100-step path: held at once they would take 8 MB
        policy = random_switching_policy(PARAMS, 1e6, 3)
        _switching_sigma_per_step(random_switching_policy(PARAMS, 1.0, 3), 100, 0.01)  # numpy's first-call setup
        tracemalloc.start()
        try:
            _switching_sigma_per_step(policy, 100, 0.01)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 100_000

    @pytest.mark.parametrize("rate", [0.3, 1.0, 1e3, 1e5])
    def test_shorter_horizon_is_a_prefix(self, rate):
        for seed in range(6):
            policy = random_switching_policy(PARAMS, rate, seed)
            full = _switching_sigma_per_step(policy, 5000, 1e-3)
            for n_steps in (1, 7, 999, 4999):
                assert _switching_sigma_per_step(policy, n_steps, 1e-3).tobytes() == full[:n_steps].tobytes()


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

    @pytest.mark.parametrize("suite, seeds", [(False, [1]), (True, [])], ids=["no-policy", "no-seed"])
    def test_empty_scenario_family_rejected(self, suite, seeds):
        # an empty family would report ok with no entries, and max_deviation would raise
        policies = default_policy_suite(PARAMS) if suite else []
        with pytest.raises(InputError, match="need at least one policy and one seed"):
            slln_experiment(cos_fn(GRID), policies, 1.0, seeds)

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

    @pytest.mark.parametrize("n_steps", [64.0, 64.5, True, "64"])
    def test_step_count_must_be_an_integer(self, n_steps):
        with pytest.raises(InputError, match="n_steps must be an integer"):
            dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, n_steps)

    def test_numpy_integer_step_count_accepted(self):
        got = dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, np.int64(64)).values
        assert got.tobytes() == dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 64).values.tobytes()

    def test_regularity_audit_step_count_must_be_an_integer(self):
        with pytest.raises(InputError, match="n_steps must be an integer"):
            strong_regularity_audit(PARAMS, 0.5, [(0.0, 1.0)], steps=32.0)

    def test_regularity_audit_needs_an_interval(self):
        # no intervals would report ok with no rows
        with pytest.raises(InputError, match="need at least one interval"):
            strong_regularity_audit(PARAMS, 1.0, [])

    @pytest.mark.parametrize("m", [256.0, 256.5])
    def test_float_grid_size_rejected_before_any_fft(self, m):
        with pytest.raises(InputError, match="grid size m must be an integer"):
            dp_upper_expectation(cos_fn(CircleGrid(m)), 1.0, PARAMS, 64)


class TestDpBatchedIrfftDifferential:
    """One batched inverse rFFT per step equals the DP byte oracle `dp_oracle`, which takes two."""

    @pytest.mark.parametrize("m", [256, 512, 1024, 2048])
    @pytest.mark.parametrize("n", [16, 64, 128])
    def test_matches_two_irfft_recursion(self, m, n):
        grid = CircleGrid(m)
        data = {"random": random_fn(grid, 5), "rotated-cos": GridFn(grid, np.cos(grid.nodes() - 0.7))}
        for name, phi in data.items():
            got = dp_upper_expectation(phi, 1.0, PARAMS, n).values
            assert got.tobytes() == dp_oracle(phi, 1.0, PARAMS, n).tobytes(), name


def recording(fn, outs):
    """fn, with every out= argument it receives appended to outs."""

    def wrapper(*args, **kwargs):
        if kwargs.get("out") is not None:
            outs.append(kwargs["out"])
        return fn(*args, **kwargs)

    return wrapper


class TestDpBufferDifferential:
    """The recursion on reused buffers equals the allocating DP byte oracle `dp_oracle` byte for byte.

    It runs on the odd grids M = m - 1 and on a single step, which no other
    DP byte test covers.
    """

    @pytest.mark.parametrize("m", [256, 512, 1024, 2048])
    @pytest.mark.parametrize("n", [1, 64, 128])
    def test_matches_allocating_recursion(self, m, n):
        grid = CircleGrid(m - 1)
        data = {
            "random": random_fn(grid, 5),
            "rotated-cos": GridFn(grid, np.cos(grid.nodes() - 0.7)),
            "indicator": indicator_fn(grid, 0.5, 2.0),
        }
        for name, phi in data.items():
            got = dp_upper_expectation(phi, 1.0, PARAMS, n).values
            assert got.tobytes() == dp_oracle(phi, 1.0, PARAMS, n).tobytes(), name

    def test_buffers_are_reused_and_not_returned(self, monkeypatch):
        phi = random_fn(GRID, 5)
        before = phi.values.tobytes()
        outs = {"rfft": [], "multiply": [], "irfft": [], "maximum": []}
        monkeypatch.setattr(np.fft, "rfft", recording(np.fft.rfft, outs["rfft"]))
        monkeypatch.setattr(np.fft, "irfft", recording(np.fft.irfft, outs["irfft"]))
        monkeypatch.setattr(np, "multiply", recording(np.multiply, outs["multiply"]))
        monkeypatch.setattr(np, "maximum", recording(np.maximum, outs["maximum"]))
        u = dp_upper_expectation(phi, 1.0, PARAMS, 16).values
        monkeypatch.undo()
        buffers = []
        for name, seen in outs.items():
            assert len(seen) == 16, name  # one out= write per step
            assert all(b is seen[0] for b in seen), name  # into one buffer
            buffers.append(seen[0])
        assert phi.values.tobytes() == before
        assert not u.flags.writeable
        assert not np.shares_memory(u, phi.values)
        for buf in buffers:
            assert not np.shares_memory(u, buf)
            assert not np.shares_memory(buf, phi.values)


class TestDpOracleDifferential:
    """The FFT recursion against a dense matrix-vector DP loop on `dense_kernel`, to 1e-12."""

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
        # more steps narrow the one-step kernel below the grid, so the advice is fewer steps
        grid = CircleGrid(64)
        with pytest.raises(InputError, match="rows sum to 1 only within .*; decrease the step count or refine the grid"):
            dp_upper_expectation(cos_fn(grid), 1.0, PARAMS, 512)
        assert dp_upper_expectation(cos_fn(grid), 1.0, PARAMS, 16).values.shape == (64,)


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
