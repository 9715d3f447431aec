import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from ergolab import gheat
from ergolab.credal import ContractError, InputError
from ergolab.gheat import (
    CircleGrid,
    GHeatParams,
    GridFn,
    constant_fn,
    convergence_profile,
    cos_fn,
    g_operator,
    indicator_fn,
    invariant_expectation,
    mean,
    quad_fn,
    random_fn,
    read_csv,
    second_diff,
    semigroup_check,
    solve,
    steady_state_audit,
    step_explicit,
    to_csv_text,
    write_csv,
)
from ergolab.scenario import dp_upper_expectation

GRID = CircleGrid(256)
PARAMS = GHeatParams(0.25, 1.0)


def grid_values(m=64):
    return arrays(np.float64, (m,), elements=st.floats(-2.0, 2.0, width=64))


class TestTypes:
    def test_grid_too_small(self):
        with pytest.raises(InputError):
            CircleGrid(4)

    def test_gridfn_length_checked(self):
        with pytest.raises(InputError):
            GridFn(GRID, np.zeros(7))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_gridfn_non_finite_value_rejected(self, bad):
        values = np.zeros(GRID.m)
        values[3] = bad
        with pytest.raises(InputError, match="non-finite value"):
            GridFn(GRID, values)

    def test_random_fn_negative_seed_rejected(self):
        with pytest.raises(InputError, match="seed must be >= 0"):
            random_fn(GRID, -3)

    def test_gridfn_immutable(self):
        u = cos_fn(GRID)
        with pytest.raises(ValueError):
            u.values[0] = 3.0

    def test_params_validated(self):
        with pytest.raises(InputError):
            GHeatParams(0.0, 1.0)
        with pytest.raises(InputError):
            GHeatParams(2.0, 1.0)
        with pytest.raises(InputError):
            GHeatParams(0.25, 1.0, cfl=1.5)

    def test_dt_satisfies_monotonicity_bound(self):
        dt = PARAMS.dt(GRID)
        assert dt * PARAMS.sigma_hi2 / GRID.h**2 == pytest.approx(0.8)


class TestSecondDiff:
    def test_constant_gives_zero(self):
        assert np.all(second_diff(constant_fn(GRID, 3.0)).values == 0.0)

    def test_cosine_curvature(self):
        d = second_diff(cos_fn(GRID)).values
        assert np.max(np.abs(d + np.cos(GRID.nodes()))) <= 2 * GRID.h**2

    def test_sawtooth_spikes_only_at_seam(self):
        u = GridFn(GRID, np.arange(GRID.m, dtype=float))
        d = second_diff(u).values
        assert np.all(d[1:-1] == 0.0)
        assert d[0] != 0.0 and d[-1] != 0.0


class TestGOperator:
    def test_constant_in_kernel(self):
        assert np.all(g_operator(constant_fn(GRID, 5.0), PARAMS).values == 0.0)

    def test_sign_split_closed_form_concave_point(self):
        out = g_operator(cos_fn(GRID), PARAMS).values
        # at x=0 curvature is -1: low-volatility branch, 0.5*0.25*(-1)
        assert out[0] == pytest.approx(-0.125, abs=2 * GRID.h**2)

    def test_sign_split_closed_form_convex_point(self):
        out = g_operator(cos_fn(GRID), PARAMS).values
        assert out[GRID.m // 2] == pytest.approx(0.5, abs=2 * GRID.h**2)

    def test_degenerate_band_is_exactly_linear(self):
        p = GHeatParams(0.7, 0.7)
        u = random_fn(GRID, 11)
        expect = 0.5 * 0.7 * second_diff(u).values
        assert np.array_equal(g_operator(u, p).values, expect)


class TestStep:
    def test_constant_unchanged(self):
        u = constant_fn(GRID, 2.5)
        out = step_explicit(u, PARAMS, PARAMS.dt(GRID))
        assert np.all(out.values == 2.5)

    def test_cfl_violation_raises(self):
        with pytest.raises(ContractError):
            step_explicit(cos_fn(GRID), PARAMS, 2.0 * GRID.h**2 / PARAMS.sigma_hi2)

    @pytest.mark.parametrize("dt", [float("nan"), float("inf")])
    def test_non_finite_dt_rejected(self, dt):
        with pytest.raises(InputError, match="dt must be finite"):
            step_explicit(cos_fn(GRID), PARAMS, dt)

    @given(grid_values())
    @settings(max_examples=80, deadline=None)
    def test_maximum_principle(self, vals):
        g = CircleGrid(64)
        u = GridFn(g, vals)
        out = step_explicit(u, PARAMS, PARAMS.dt(g)).values
        assert np.max(out) <= np.max(vals) + 1e-12
        assert np.min(out) >= np.min(vals) - 1e-12

    def test_linear_step_damps_cosine_mode_by_stencil_eigenvalue(self):
        p = GHeatParams(0.49, 0.49)
        dt = p.dt(GRID)
        # eigenvalue of the periodic stencil: 1 - 2 sigma^2 dt sin^2(h/2)/h^2
        factor = 1.0 - 2.0 * 0.49 * dt * np.sin(GRID.h / 2) ** 2 / GRID.h**2
        out = step_explicit(cos_fn(GRID), p, dt).values
        assert np.max(np.abs(out - factor * np.cos(GRID.nodes()))) <= 1e-14


class TestSolve:
    @pytest.mark.parametrize("t", [float("nan"), float("inf")])
    def test_non_finite_time_rejected(self, t):
        with pytest.raises(InputError, match="t must be finite"):
            solve(cos_fn(GRID), t, PARAMS)

    def test_zero_time_identity(self):
        u = solve(cos_fn(GRID), 0.0, PARAMS)
        assert np.array_equal(u.values, cos_fn(GRID).values)

    def test_degenerate_closed_form(self):
        for sigma2 in (0.25, 1.0):
            p = GHeatParams(sigma2, sigma2)
            u = solve(cos_fn(GRID), 1.0, p)
            expect = np.exp(-sigma2 / 2.0) * np.cos(GRID.nodes())
            assert np.max(np.abs(u.values - expect)) <= 2e-3

    def test_nonlinear_matches_dp_oracle(self):
        u = solve(cos_fn(GRID), 1.0, PARAMS)
        dp = dp_upper_expectation(cos_fn(GRID), 1.0, PARAMS, 64)
        assert np.max(np.abs(u.values - dp.values)) <= 5e-3

    def test_constant_preserved_exactly(self):
        u = solve(constant_fn(GRID, -1.25), 3.0, PARAMS)
        assert np.all(u.values == -1.25)

    def test_order_preservation(self):
        rng = np.random.default_rng(5)
        lo = GridFn(GRID, rng.uniform(-1, 0, GRID.m))
        hi = GridFn(GRID, lo.values + rng.uniform(0, 1, GRID.m))
        ulo = solve(lo, 0.5, PARAMS).values
        uhi = solve(hi, 0.5, PARAMS).values
        assert np.all(ulo <= uhi + 1e-10)

    def test_flow_subadditive(self):
        rng = np.random.default_rng(6)
        a = GridFn(GRID, rng.uniform(-1, 1, GRID.m))
        b = GridFn(GRID, rng.uniform(-1, 1, GRID.m))
        ab = GridFn(GRID, a.values + b.values)
        lhs = solve(ab, 0.7, PARAMS).values
        rhs = solve(a, 0.7, PARAMS).values + solve(b, 0.7, PARAMS).values
        assert np.all(lhs <= rhs + 1e-8)

    def test_mean_monotone_under_flow(self):
        # d/dt mean(u) = (hi2-lo2)/2 * mean((u_xx)^+) >= 0 for periodic u
        u = cos_fn(GRID)
        means = [mean(solve(u, t, PARAMS)) for t in (0.0, 0.1, 0.5, 1.0, 2.0)]
        assert all(b >= a - 1e-12 for a, b in zip(means, means[1:]))
        assert means[-1] > means[0] + 0.05  # strict increase for a nonconstant datum

    def test_grid_refinement_against_fixed_fine_oracle(self):
        # independent oracle: DP on a 512-node lattice with 256 steps; the
        # coarse grids subsample its nodes exactly
        fine = dp_upper_expectation(cos_fn(CircleGrid(512)), 1.0, PARAMS, 256).values
        errs = {}
        for m in (64, 128):
            u = solve(cos_fn(CircleGrid(m)), 1.0, PARAMS).values
            errs[m] = float(np.max(np.abs(u - fine[:: 512 // m])))
        assert errs[128] < errs[64]


# The explicit chain as it stood before solve stepped a bare array: every step
# ran step_explicit -> g_operator -> second_diff on GridFn objects.
def chain_second_diff(u):
    v = u.values
    d = (np.roll(v, -1) - 2.0 * v + np.roll(v, 1)) / u.grid.h**2
    return GridFn(u.grid, d)


def chain_g_operator(u, p):
    d = chain_second_diff(u).values
    out = 0.5 * p.sigma_hi2 * np.maximum(d, 0.0) - 0.5 * p.sigma_lo2 * np.maximum(-d, 0.0)
    return GridFn(u.grid, out)


def chain_step_explicit(u, p, dt):
    if dt < 0:
        raise InputError("dt must be >= 0")
    lam = dt * p.sigma_hi2 / u.grid.h**2
    if lam > 1.0 + 1e-12:
        raise ContractError(f"CFL violation: dt*sigma_hi2/h^2 = {lam:.6f} > 1")
    return GridFn(u.grid, u.values + dt * chain_g_operator(u, p).values)


def chain_solve(phi, t, p):
    if t < 0:
        raise InputError("t must be >= 0")
    dt = p.dt(phi.grid)
    n_full = int(np.floor(t / dt + 1e-9))
    rem = t - n_full * dt
    u = phi
    for _ in range(n_full):
        u = chain_step_explicit(u, p, dt)
    if rem > 1e-12:
        u = chain_step_explicit(u, p, rem)
    return u


def differential_data(g):
    return {
        "cos": cos_fn(g),
        "quad": quad_fn(g),
        "indicator": indicator_fn(g, 0.0, np.pi),
        "random": random_fn(g, 3),
    }


class TestArrayStepperDifferential:
    """The bare-array stepper reproduces the GridFn chain bit for bit."""

    @pytest.mark.parametrize("m", [8, 64, 256])
    @pytest.mark.parametrize("band", [(0.25, 1.0), (0.7, 0.7)])
    @pytest.mark.parametrize("cfl", [0.5, 0.8, 0.99])
    def test_solve_matches_gridfn_chain(self, m, band, cfl):
        g = CircleGrid(m)
        p = GHeatParams(*band, cfl=cfl)
        for name, phi in differential_data(g).items():
            for t in (0.0, 0.37 * p.dt(g), 0.5, 1.0):
                got = solve(phi, t, p).values
                assert np.array_equal(got, chain_solve(phi, t, p).values), (name, t)

    @pytest.mark.parametrize("m", [8, 64, 256])
    @pytest.mark.parametrize("band", [(0.25, 1.0), (0.7, 0.7)])
    @pytest.mark.parametrize("cfl", [0.5, 0.8, 0.99])
    def test_wrappers_match_gridfn_chain(self, m, band, cfl):
        g = CircleGrid(m)
        p = GHeatParams(*band, cfl=cfl)
        for name, u in differential_data(g).items():
            assert np.array_equal(second_diff(u).values, chain_second_diff(u).values), name
            assert np.array_equal(g_operator(u, p).values, chain_g_operator(u, p).values), name
            for dt in (p.dt(g), 0.37 * p.dt(g)):
                got = step_explicit(u, p, dt).values
                assert np.array_equal(got, chain_step_explicit(u, p, dt).values), (name, dt)

    def test_solve_builds_one_gridfn(self, monkeypatch):
        phi = cos_fn(GRID)
        built = []
        init = GridFn.__init__

        def counting_init(self, grid, values):
            built.append(grid.m)
            init(self, grid, values)

        monkeypatch.setattr(GridFn, "__init__", counting_init)
        solve(phi, 1.0, PARAMS)
        assert built == [GRID.m]


def signed_zero_data(g):
    """Data whose zero rates must keep the two-branch form's sign bits."""
    rng = np.random.default_rng(g.m)
    subnormal = np.zeros(g.m)
    subnormal[0] = -0.0
    subnormal[1] = -5e-324  # for small lo2, b * d underflows to -0.0 at node 0, which holds -0.0
    return {
        "negative-zero": constant_fn(g, -0.0),
        "mixed-zeros": GridFn(g, np.where(rng.random(g.m) < 0.5, -0.0, 0.0)),
        "subnormal": GridFn(g, subnormal),
        "tiny": GridFn(g, 1e-300 * np.sin(3.0 * g.nodes())),
    }


class TestStepperBytes:
    """The in-place ghost-cell stepper reproduces the GridFn chain byte for byte, sign bits included."""

    @pytest.mark.parametrize("m", [9, 65, 129])
    def test_solve_bytes_match_gridfn_chain(self, m):
        g = CircleGrid(m)
        p = GHeatParams(1e-6, 1.0)
        data = {**differential_data(g), **signed_zero_data(g)}
        for name, phi in data.items():
            for t in (0.37 * p.dt(g), 3.0):
                got = solve(phi, t, p).values.tobytes()
                assert got == chain_solve(phi, t, p).values.tobytes(), (name, t)

    @pytest.mark.parametrize("m", [9, 64])
    @pytest.mark.parametrize("band", [(1e-6, 1.0), (0.25, 1.0), (0.7, 0.7)])
    def test_wrapper_bytes_match_gridfn_chain(self, m, band):
        g = CircleGrid(m)
        p = GHeatParams(*band)
        for name, u in {**differential_data(g), **signed_zero_data(g)}.items():
            assert g_operator(u, p).values.tobytes() == chain_g_operator(u, p).values.tobytes(), name
            got = step_explicit(u, p, p.dt(g)).values.tobytes()
            assert got == chain_step_explicit(u, p, p.dt(g)).values.tobytes(), name

    def test_solve_result_shares_no_memory(self, monkeypatch):
        phi = cos_fn(GRID)
        states = []
        advance = gheat._advance

        def recording_advance(*args):
            states.append(advance(*args))
            return states[-1]

        monkeypatch.setattr(gheat, "_advance", recording_advance)
        out = solve(phi, 0.5, PARAMS).values
        (state,) = states
        assert state.base is not None and state.base.size == GRID.m + 2
        assert not np.shares_memory(out, phi.values)
        assert not np.shares_memory(out, state.base)
        assert not out.flags.writeable


class TestSemigroup:
    def test_zero_legs_exact(self):
        phi = cos_fn(GRID)
        assert semigroup_check(phi, 0.0, 0.8, PARAMS) == 0.0
        assert semigroup_check(phi, 0.8, 0.0, PARAMS) == 0.0

    def test_cosine_split_half(self):
        assert semigroup_check(cos_fn(GRID), 0.5, 0.5, PARAMS) <= 5e-3


class TestMean:
    def test_constant(self):
        assert mean(constant_fn(GRID, 4.2)) == pytest.approx(4.2, abs=1e-15)

    def test_cosine_cancels(self):
        assert abs(mean(cos_fn(GRID))) <= 1e-14

    def test_half_indicator(self):
        assert mean(indicator_fn(GRID, 0.0, np.pi)) == 0.5


class TestInvariantExpectation:
    def test_constant_datum(self):
        assert invariant_expectation(constant_fn(GRID, 2.0), 1.0, PARAMS) == pytest.approx(2.0)

    def test_degenerate_band_is_delta_independent(self):
        p = GHeatParams(0.5, 0.5)
        vals = [invariant_expectation(cos_fn(GRID), d, p) for d in (0.1, 1.0, 5.0)]
        assert max(vals) - min(vals) <= 2e-3
        assert abs(vals[-1] - mean(cos_fn(GRID))) <= 2e-3

    def test_strict_band_drifts_upward_with_delta(self):
        # sign-split flow: the space mean strictly increases until flat,
        # so the three delays give strictly increasing values
        vals = [invariant_expectation(cos_fn(GRID), d, PARAMS) for d in (0.1, 1.0, 5.0)]
        assert vals[0] < vals[1] < vals[2]

    def test_delta_validation(self):
        with pytest.raises(InputError):
            invariant_expectation(cos_fn(GRID), 0.0, PARAMS)


class TestConvergenceProfile:
    def test_constant_datum_all_zero(self):
        prof = convergence_profile(constant_fn(GRID, 1.0), [0.5, 1.0], PARAMS)
        assert prof == [0.0, 0.0]

    def test_degenerate_matches_exponential_decay(self):
        p = GHeatParams(1.0, 1.0)
        times = [0.5, 1.0, 2.0]
        prof = convergence_profile(cos_fn(GRID), times, p)
        for t, val in zip(times, prof):
            assert val == pytest.approx(np.exp(-t / 2.0), abs=2e-3)

    def test_profile_non_increasing_for_strict_band(self):
        prof = convergence_profile(cos_fn(GRID), [1.0, 2.0, 5.0], PARAMS)
        assert all(b <= a + 1e-6 for a, b in zip(prof, prof[1:]))

    def test_times_must_increase(self):
        with pytest.raises(InputError):
            convergence_profile(cos_fn(GRID), [1.0, 1.0], PARAMS)


class TestSteadyState:
    def test_constant_passes_immediately(self):
        rep = steady_state_audit(constant_fn(GRID, 0.3), PARAMS, horizon=1.0)
        assert rep.ok and rep.oscillation == 0.0

    def test_cosine_flattens(self):
        rep = steady_state_audit(cos_fn(CircleGrid(128)), PARAMS, horizon=100.0)
        assert rep.ok, (rep.oscillation, rep.generator_norm)

    def test_seeded_random_flattens(self):
        rep = steady_state_audit(random_fn(CircleGrid(128), 42), PARAMS, horizon=100.0)
        assert rep.oscillation <= 1e-6
        assert rep.generator_norm <= 1e-8


class TestCsv:
    def test_roundtrip(self, tmp_path):
        u = random_fn(GRID, 9)
        path = tmp_path / "u.csv"
        write_csv(u, str(path))
        back = read_csv(str(path))
        assert back.grid.m == GRID.m
        assert np.array_equal(back.values, u.values)

    def test_header(self):
        text = to_csv_text(cos_fn(GRID))
        assert text.splitlines()[0] == "x,u"

    def test_bad_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b\n0,1\n")
        with pytest.raises(InputError):
            read_csv(str(path))

    @pytest.mark.parametrize("cell", [",nan", ",inf", ",-inf", ",abc", ""], ids=["nan", "inf", "-inf", "abc", "missing"])
    def test_bad_value_rejected(self, tmp_path, cell):
        path = tmp_path / "bad.csv"
        path.write_text("x,u\n" + "".join(f"{k}{cell}\n" for k in range(16)))
        with pytest.raises(InputError):
            read_csv(str(path))
