"""Acceptance suite.

One test per acceptance criterion, each printing a single PASS/FAIL line with
the measured quantities (run with -s to see the lines for passing criteria;
failing criteria carry the line in the assertion message as well).

The heat-flow criteria 6, 7, 8 and 10 measure against the invariant
expectation E[phi] of G-Brownian motion on the circle, not against the
spatial mean.  The flow T_t phi flattens to the constant E[phi], and
E[T_delta phi] = E[phi].  But for sigma_hi2 > sigma_lo2 the flow does not
preserve the spatial mean: d/dt mean(u) = (hi2-lo2)/2 * mean((u_xx)^+) > 0
for nonconstant u, so E[phi] lies strictly above mean(phi) and mean(T_delta
phi) rises with delta.  ``flat_limit`` computes E[phi] as mean(solve(phi,
60)); at that horizon every datum used here is flat to within criterion 9's
1e-6.

* 6 checks the kernel claim for convex data.  quad_fn is convex on
  (0, 2*pi), but on the circle it has a concave kink at the seam x = 0, so
  the claim is asserted on the arc [pi/2, 3*pi/2], which the seam cannot
  reach within three standard deviations of the fastest path.  Over the
  whole circle the nonlinear flow dominates the high-volatility kernel
  (constant sigma_hi is an admissible control), and FD and DP agree.
* 7 checks E[T_delta phi] = E[phi]: each E[T_delta phi] comes from a fresh
  flat-limit solve started at T_delta phi, and E[phi] is cross-checked
  against the Richardson-extrapolated DP oracle instead of mean(phi).
* 8 checks that sup|T_t phi - E[phi]| is non-increasing and small at t = 30.
* 10 checks each Monte Carlo time average against the closed-form
  stationary average of its own policy: a policy with squared volatility
  s(x) has occupation density proportional to 1/s(x), so the feedback
  policies settle at -+6/(5 pi), not at mean(cos) = 0.  Every average must
  also lie in the Birkhoff bracket [-E[-cos], E[cos]].

One leg stays red: quad in criterion 8.  The slowest decay rate of the flow
is (sigma_lo + sigma_hi)^2 / 8 = 0.28125, and quad's first Fourier
coefficient is 4, so its residual at t = 30 is about 1.3e-3, above the
1e-3 bound.  The failure message carries E[quad], the residual and the
measured rate.
"""

import math
import time
from functools import lru_cache

import numpy as np
import pytest

from ergolab.credal import PriorSet, ProbVector, Rv, upper_exp
from ergolab.finite import (
    enumerate_preserving_systems,
    fixed_space_audit,
    maximal_ergodic_check,
    orbit_decomposition,
    random_preserving_system,
    slln_audit,
    indecomposability_audit,
)
from ergolab.gheat import (
    CircleGrid,
    GHeatParams,
    GridFn,
    cos_fn,
    indicator_fn,
    invariant_expectation,
    mean,
    quad_fn,
    random_fn,
    solve,
    steady_state_audit,
)
from ergolab.scenario import default_policy_suite, dp_upper_expectation, slln_experiment, strong_regularity_audit
from ergolab.wrapped import WrappedKernelSpec, linear_semigroup, regularity_bound

GRID = CircleGrid(256)
BAND = GHeatParams(0.25, 1.0)
SEEDS = (11, 23, 37, 41, 53, 67, 79, 97)
FLAT_HORIZON = 60.0
DATA = {
    "cos": lambda: cos_fn(GRID),
    "-cos": lambda: GridFn(GRID, -cos_fn(GRID).values),
    "quad": lambda: quad_fn(GRID),
    "indicator": lambda: indicator_fn(GRID, 0.0, math.pi),
}


def report(num: int, passed: bool, detail: str) -> str:
    line = f"CRITERION {num:2d}: {'PASS' if passed else 'FAIL'} - {detail}"
    print(line, flush=True)
    return line


@lru_cache(maxsize=1)
def sweep():
    """Every expectation-preserving system with n <= 4 over the prior catalog."""
    systems = []
    for n in (1, 2, 3, 4):
        systems.extend(enumerate_preserving_systems(n))
    return systems


@lru_cache(maxsize=None)
def flat_limit(name: str, delta: float = 0.0) -> float:
    """E[T_delta phi] for the datum DATA[name]: the constant the flow from
    T_delta phi flattens to, read off as mean(solve(T_delta phi, 60))."""
    phi = DATA[name]()
    if delta > 0:
        phi = solve(phi, delta, BAND)
    u = solve(phi, FLAT_HORIZON, BAND)
    osc = float(np.ptp(u.values))
    assert osc <= 1e-6, f"{name} not flat at t = {FLAT_HORIZON} after delta = {delta}: oscillation {osc:.2e}"
    return mean(u)


def test_criterion_01_equivalence_audit_exhaustive():
    start = time.perf_counter()
    sweep.cache_clear()
    systems = sweep()
    bad = []
    for sys_ in systems:
        if not indecomposability_audit(sys_).consistent:
            bad.append((sys_, "four statements diverge"))
        if not fixed_space_audit(sys_).consistent:
            bad.append((sys_, "fixed space vs ergodicity"))
    elapsed = time.perf_counter() - start
    detail = (
        f"{len(systems)} preserving systems over all maps with n<=4, "
        f"{len(bad)} counterexamples, {elapsed:.1f}s"
    )
    line = report(1, not bad and elapsed < 60.0, detail)
    assert not bad, line
    assert elapsed < 60.0, line


def test_criterion_02_slln_exact_on_sweep():
    rng = np.random.default_rng(20240809)
    violations = []
    ergodic_count = 0
    for sys_ in sweep():
        if not sys_.ergodic:
            continue
        ergodic_count += 1
        for _ in range(50):
            x = Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n)))
            rep = slln_audit(sys_, x)
            if rep.bad_capacity > 1e-12:
                violations.append((sys_, x, rep.bad_capacity))
        # a payoff fixed along the map: constant on each grand-orbit class,
        # the classes numbered by first appearance
        first: dict[int, int] = {}
        class_of = [first.setdefault(c, len(first)) for c in orbit_decomposition(sys_.theta).cycle_index]
        labels = rng.uniform(-1.0, 1.0, max(class_of) + 1)
        xf = Rv(tuple(labels[np.asarray(class_of)]))
        rep = slln_audit(sys_, xf)
        if not rep.theta_fixed_qs or rep.fixed_bad_capacity > 1e-12:
            violations.append((sys_, xf, "fixed payoff equality"))
    detail = f"{ergodic_count} ergodic systems x 50 payoffs + fixed payoff, {len(violations)} violations"
    line = report(2, not violations, detail)
    assert not violations, line


def test_criterion_03_maximal_ergodic_trials():
    rng = np.random.default_rng(31337)
    worst = math.inf
    for _ in range(10_000):
        n = int(rng.integers(2, 7))
        sys_ = random_preserving_system(n, rng)
        xi = Rv(tuple(rng.uniform(-1.0, 1.0, n)))
        k = int(rng.integers(1, 9))
        worst = min(worst, maximal_ergodic_check(sys_, xi, k))
    detail = f"10^4 seeded (system, payoff, k<=8) trials, min value {worst:.3e}"
    line = report(3, worst >= -1e-12, detail)
    assert worst >= -1e-12, line


def test_criterion_04_linear_degenerate_cross_check():
    start = time.perf_counter()
    errs = []
    for sigma2 in (0.25, 1.0):
        p = GHeatParams(sigma2, sigma2)
        u = solve(cos_fn(GRID), 1.0, p)
        closed = math.exp(-sigma2 / 2.0) * np.cos(GRID.nodes())
        ker = linear_semigroup(cos_fn(GRID), WrappedKernelSpec(sigma2, 1.0))
        errs.append(float(np.max(np.abs(u.values - closed))))
        errs.append(float(np.max(np.abs(u.values - ker.values))))
    elapsed = time.perf_counter() - start
    detail = f"max sup-error vs closed form / kernel = {max(errs):.2e} (tol 2e-3), {elapsed:.1f}s"
    line = report(4, max(errs) <= 2e-3 and elapsed < 5.0, detail)
    assert max(errs) <= 2e-3, line
    assert elapsed < 5.0, line


def test_criterion_05_nonlinear_cross_oracle():
    start = time.perf_counter()
    u = solve(cos_fn(GRID), 1.0, BAND)
    dp = dp_upper_expectation(cos_fn(GRID), 1.0, BAND, 64)
    err = float(np.max(np.abs(u.values - dp.values)))
    elapsed = time.perf_counter() - start
    detail = f"sup|PDE - DP(N=64)| = {err:.2e} (tol 5e-3), {elapsed:.1f}s"
    line = report(5, err <= 5e-3 and elapsed < 30.0, detail)
    assert err <= 5e-3, line
    assert elapsed < 30.0, line


def test_criterion_06_convex_case_kernel_claim():
    phi = quad_fn(GRID)
    t = 0.25
    u = solve(phi, t, BAND)
    ker = linear_semigroup(phi, WrappedKernelSpec(BAND.sigma_hi2, t))
    dp = dp_upper_expectation(phi, t, BAND, 64)
    # the datum is convex on the arc, and the concave seam kink at x = 0 lies
    # more than three standard deviations of the fastest path away from it
    assert math.pi / 2 > 3.0 * math.sqrt(BAND.sigma_hi2 * t)
    x = GRID.nodes()
    arc = (x >= 0.5 * math.pi) & (x <= 1.5 * math.pi)
    err_dp = float(np.max(np.abs(u.values - dp.values)))
    err_ker = float(np.max(np.abs(u.values - ker.values)[arc]))
    err_dk = float(np.max(np.abs(dp.values - ker.values)[arc]))
    # constant high volatility is an admissible control: both routes dominate its flow
    floor_pde = float(np.min(u.values - ker.values))
    floor_dp = float(np.min(dp.values - ker.values))
    passed = max(err_ker, err_dp, err_dk) <= 5e-3 and min(floor_pde, floor_dp) >= -1e-8
    detail = (
        f"sup|PDE-DP| = {err_dp:.2e} on the circle, sup|PDE-kernel| = {err_ker:.2e} and "
        f"sup|DP-kernel| = {err_dk:.2e} on [pi/2, 3pi/2] (tol 5e-3); "
        f"min(PDE-kernel) = {floor_pde:.1e}, min(DP-kernel) = {floor_dp:.1e} (tol -1e-8)"
    )
    line = report(6, passed, detail)
    assert err_dp <= 5e-3, line  # the two independent nonlinear routes agree
    assert floor_pde >= -1e-8, line
    assert floor_dp >= -1e-8, line
    assert err_ker <= 5e-3, line
    assert err_dk <= 5e-3, line


def test_criterion_07_invariant_expectation_delta_independence():
    deltas = (0.1, 1.0, 5.0)
    rows = {}
    spreads = {}
    for name in ("cos", "quad", "indicator"):
        vals = [flat_limit(name, d) for d in deltas]
        rows[name] = vals
        spreads[name] = max(vals) - min(vals)
    # independent route: the DP oracle converges at first order from below,
    # so 2 DP(2N) - DP(N) removes its leading error
    offsets = {}
    for name in ("cos", "quad"):
        coarse, fine = (
            mean(dp_upper_expectation(DATA[name](), FLAT_HORIZON, BAND, n)) for n in (3840, 7680)
        )
        offsets[name] = abs(rows[name][-1] - (2.0 * fine - coarse))
    passed = all(s <= 2e-3 for s in spreads.values()) and all(o <= 2e-3 for o in offsets.values())
    detail = (
        f"spreads of E[T_delta phi] over delta in {deltas}: "
        + ", ".join(f"{n}={spreads[n]:.1e}" for n in rows)
        + " (tol 2e-3); |E[T_5 phi] - Richardson DP| = "
        + ", ".join(f"{n}={offsets[n]:.1e}" for n in offsets)
        + f" (tol 2e-3); E[cos] = {rows['cos'][-1]:.6f}"
    )
    line = report(7, passed, detail)
    for name in rows:
        assert spreads[name] <= 2e-3, line
    for name in offsets:
        assert offsets[name] <= 2e-3, line


def test_criterion_08_ergodic_convergence_profile():
    names = ("cos", "quad", "indicator")
    limits = {name: flat_limit(name) for name in names}
    start = time.perf_counter()
    times = [1.0, 2.0, 5.0, 10.0, 20.0, 30.0]
    finals = {}
    monotone = {}
    rates = {}
    for name in names:
        u = DATA[name]()
        prev_t = 0.0
        prof = []
        for t in times:
            u = solve(u, t - prev_t, BAND)
            prev_t = t
            prof.append(float(np.max(np.abs(u.values - limits[name]))))
        finals[name] = prof[-1]
        monotone[name] = all(b <= a + 1e-6 for a, b in zip(prof, prof[1:]))
        rates[name] = math.log(prof[-2] / prof[-1]) / (times[-1] - times[-2])
    elapsed = time.perf_counter() - start
    passed = all(monotone.values()) and all(f <= 1e-3 for f in finals.values()) and elapsed < 60.0
    slowest = (math.sqrt(BAND.sigma_lo2) + math.sqrt(BAND.sigma_hi2)) ** 2 / 8.0
    detail = (
        f"profiles non-increasing: {all(monotone.values())}; sup|T_30 phi - E[phi]| = "
        + ", ".join(f"{n}={v:.2e}" for n, v in finals.items())
        + f" (tol 1e-3); {elapsed:.1f}s"
    )
    line = report(8, passed, detail)
    assert all(monotone.values()), line
    assert elapsed < 60.0, line
    for name, final in finals.items():
        assert final <= 1e-3, (
            f"{line}; {name}: E[phi] = {limits[name]:.6f}, sup|T_30 phi - E[phi]| = {final:.2e}, "
            f"measured decay rate over [20, 30] = {rates[name]:.4f} "
            f"(slowest rate (sigma_lo + sigma_hi)^2 / 8 = {slowest:.5f})"
        )


def test_criterion_09_steady_state_flatness():
    rep = steady_state_audit(random_fn(GRID, 42), BAND, horizon=100.0)
    detail = (
        f"oscillation {rep.oscillation:.2e} (tol 1e-6), generator norm "
        f"{rep.generator_norm:.2e} (tol 1e-8)"
    )
    line = report(9, rep.ok, detail)
    assert rep.oscillation <= 1e-6, line
    assert rep.generator_norm <= 1e-8, line


def stationary_cos_average(kind: str, p: GHeatParams) -> float:
    """Closed-form long-run average of cos under a default-suite policy.

    A policy with squared volatility s(x) has occupation density proportional
    to 1/s(x).  Constant and exogenous switching volatility leave it uniform,
    so the average is mean(cos) = 0.  Threshold feedback takes hi2 where
    cos > 0, greedy bang-bang takes hi2 where cos < 0; with the integrals of
    cos over {cos > 0} and {cos < 0} equal to +2 and -2, each arc of length
    pi, the average is (2/s_pos - 2/s_neg) / (pi/s_pos + pi/s_neg), which is
    -+6/(5 pi) for the band (0.25, 1.0).
    """
    if kind in ("constant", "random-switching"):
        return 0.0
    if kind == "threshold-feedback":
        s_pos, s_neg = p.sigma_hi2, p.sigma_lo2
    else:
        s_pos, s_neg = p.sigma_lo2, p.sigma_hi2
    return (2.0 / s_pos - 2.0 / s_neg) / (math.pi / s_pos + math.pi / s_neg)


def test_criterion_10_monte_carlo_slln():
    upper, lower = flat_limit("cos"), -flat_limit("-cos")
    start = time.perf_counter()
    rep = slln_experiment(cos_fn(GRID), default_policy_suite(BAND), 1e4, list(SEEDS), dt=0.01, tol=0.05)
    elapsed = time.perf_counter() - start
    worst_by_kind = {}
    outside = []
    for e in rep.entries:
        kind = e.policy.split("(")[0]
        gap = abs(e.time_average - stationary_cos_average(kind, BAND))
        worst_by_kind[kind] = max(worst_by_kind.get(kind, 0.0), gap)
        if not lower - 0.05 <= e.time_average <= upper + 0.05:
            outside.append((e.policy, e.seed, e.time_average))
    worst = max(worst_by_kind.values())
    passed = worst <= 0.05 and not outside and elapsed < 60.0
    detail = (
        "worst |time avg - stationary avg| by policy: "
        + ", ".join(f"{k}={v:.3f}" for k, v in worst_by_kind.items())
        + f" (tol 0.05; feedback targets -+6/(5 pi) = -+{6 / (5 * math.pi):.3f}); "
        + f"{len(outside)} averages outside [-E[-cos], E[cos]] = [{lower:.4f}, {upper:.4f}] +- 0.05; "
        + f"{elapsed:.1f}s"
    )
    line = report(10, passed, detail)
    assert elapsed < 60.0, line
    assert worst <= 0.05, line
    assert not outside, line


def test_criterion_11_strong_regularity_shrinking_intervals():
    intervals = [(0.0, 2.0 * math.pi / 2**n) for n in range(1, 7)]
    rep = strong_regularity_audit(BAND, 1.0, intervals, grid=GRID, steps=64)
    vals = [r.sup_value for r in rep.rows]
    strictly_decreasing = all(b < a for a, b in zip(vals, vals[1:]))
    within = all(
        r.sup_value <= min(1.0, regularity_bound(1.0, BAND.sigma_lo2, r.leb)) + 1e-9
        for r in rep.rows
    )
    final_ok = vals[-1] <= 0.2
    passed = strictly_decreasing and within and final_ok
    detail = (
        f"sup flow values {[round(v, 4) for v in vals]}, strictly decreasing: "
        f"{strictly_decreasing}, final {vals[-1]:.3f} <= 0.2: {final_ok}, "
        f"within min(1, closed-form bound): {within}"
    )
    line = report(11, passed, detail)
    assert strictly_decreasing, line
    assert final_ok, line
    assert within, line


def test_zz_structural_findings_summary():
    """Informational: quantifies the mean drift that makes mean(phi) the wrong reference."""
    phi = cos_fn(GRID)
    means = {d: invariant_expectation(phi, d, BAND) for d in (0.1, 1.0, 5.0, 30.0)}
    # rigorous lower bound for the flat limit: the best stationary feedback
    # value max_a 3 sin a / (3a + pi) for the band (0.25, 1.0)
    a = np.linspace(1e-3, math.pi - 1e-3, 200001)
    feedback_value = float(np.max(3.0 * np.sin(a) / (3.0 * a + math.pi)))
    limit = means[30.0]
    print(
        "FINDINGS: mean(T_delta cos) = "
        + ", ".join(f"{d}: {v:+.4f}" for d, v in means.items())
        + f"; flat limit {limit:.4f} >= best stationary feedback value {feedback_value:.4f}"
        + "; mean drift rate d/dt mean(u) = (hi2-lo2)/2 * mean((u_xx)^+) > 0",
        flush=True,
    )
    assert limit >= feedback_value - 2e-3
    assert means[0.1] < means[1.0] < means[5.0] < means[30.0]
