"""Volatility scenarios on the circle: path simulation, DP oracle, Monte Carlo laws.

The nonlinear semigroup is a supremum over adapted volatility controls valued
in [sigma_lo, sigma_hi].  This module provides the two sides of that picture:

* a small library of admissible control policies plus an Euler path
  simulator with deterministic per-(policy, seed) random streams; a path's
  start does not depend on its horizon, so a shorter path is a prefix of a
  longer one with the same policy, start and seed, and

* a dynamic-programming oracle that discretizes time, restricts controls to
  the endpoint volatilities per step (the per-step objective is linear in the
  squared volatility through the step variance, so endpoints suffice in the
  small-step limit), and uses exact wrapped-Gaussian one-step transitions so
  the oracle carries no finite-difference bias.  The strong-regularity audit
  of shrinking indicators runs on this oracle.

State-dependent policies genuinely matter here: a policy with squared
volatility s(x) has stationary density proportional to 1/s(x), so the
feedback scenarios (high volatility where cos(x), or -cos(x), exceeds a
level) tilt the long-run occupation of the circle and their time averages
converge to policy-dependent limits.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

from .credal import InputError, _count
from .gheat import CircleGrid, GHeatParams, GridFn, indicator_fn
from .wrapped import WrappedKernelSpec, kernel_row, regularity_bound, wrapped_gauss

TWO_PI = 2.0 * math.pi

POLICY_KINDS = ("constant", "random-switching", "threshold-feedback", "greedy-bang-bang")

#: start of every slln_experiment path, and of every capacity_estimate path
#: (opposite the CLI's default event arc at 0)
SLLN_X0 = 0.0
CAPACITY_X0 = math.pi


@dataclass(frozen=True, eq=False)
class VolPolicy:
    """An admissible volatility rule valued in [sigma_lo, sigma_hi].

    kind selects the rule: a constant volatility, exogenous random switching
    between the endpoints at a given rate, threshold feedback (high volatility
    where cos(x) exceeds the level), or greedy bang-bang (high volatility
    where cos has positive curvature, that is where cos(x) < 0, the
    instantaneous ascent direction for its expectation).
    """

    kind: str
    sigma_lo: float
    sigma_hi: float
    sigma: float | None = None
    rate: float = 1.0
    switch_seed: int = 0
    level: float = 0.0

    def __post_init__(self):
        if self.kind not in POLICY_KINDS:
            raise InputError(f"unknown policy kind {self.kind!r}")
        if not (0 < self.sigma_lo <= self.sigma_hi):
            raise InputError("need 0 < sigma_lo <= sigma_hi")
        if not math.isfinite(self.sigma_hi):
            raise InputError(f"sigma_hi must be finite; got {self.sigma_hi}")
        if self.kind == "constant":
            if self.sigma is None:
                raise InputError("constant policy needs sigma")
            if not (self.sigma_lo - 1e-12 <= self.sigma <= self.sigma_hi + 1e-12):
                raise InputError("constant sigma outside the admissible band")
        if self.kind == "random-switching" and self.rate <= 0:
            raise InputError("switching rate must be > 0")
        if not (math.isfinite(self.rate) and math.isfinite(self.level)):
            raise InputError(f"rate and level must be finite; got rate={self.rate}, level={self.level}")
        if self.switch_seed < 0:
            raise InputError(f"switching seed must be >= 0; got {self.switch_seed}")

    @property
    def label(self) -> str:
        if self.kind == "constant":
            return f"constant({self.sigma:g})"
        if self.kind == "random-switching":
            return f"random-switching(rate={self.rate:g},seed={self.switch_seed})"
        if self.kind == "threshold-feedback":
            return f"threshold-feedback(level={self.level:g})"
        return "greedy-bang-bang"


def _band(p: GHeatParams) -> tuple[float, float]:
    return math.sqrt(p.sigma_lo2), math.sqrt(p.sigma_hi2)


def constant_policy(p: GHeatParams, sigma: float | None = None) -> VolPolicy:
    lo, hi = _band(p)
    return VolPolicy("constant", lo, hi, sigma=hi if sigma is None else sigma)


def random_switching_policy(p: GHeatParams, rate: float = 1.0, seed: int = 0) -> VolPolicy:
    return VolPolicy("random-switching", *_band(p), rate=rate, switch_seed=seed)


def threshold_policy(p: GHeatParams, level: float = 0.0) -> VolPolicy:
    return VolPolicy("threshold-feedback", *_band(p), level=level)


def greedy_policy(p: GHeatParams) -> VolPolicy:
    return VolPolicy("greedy-bang-bang", *_band(p))


def default_policy_suite(p: GHeatParams) -> list[VolPolicy]:
    """One policy per kind: constant high vol, unit-rate switching, and the
    two cosine-feedback rules."""
    return [
        constant_policy(p),
        random_switching_policy(p),
        threshold_policy(p),
        greedy_policy(p),
    ]


@dataclass(frozen=True, eq=False)
class PathSample:
    """One simulated trajectory: its positions in [0, 2*pi)."""

    positions: np.ndarray

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        pos.flags.writeable = False
        object.__setattr__(self, "positions", pos)


def _periodic_interp(x: np.ndarray, phi: GridFn) -> np.ndarray:
    nodes = phi.grid.nodes()
    xp = np.concatenate([nodes, [TWO_PI]])
    fp = np.concatenate([phi.values, [phi.values[0]]])
    return np.interp(np.mod(x, TWO_PI), xp, fp)


def _switching_sigma_per_step(policy: VolPolicy, n_steps: int, dt: float) -> np.ndarray:
    """Exogenous endpoint-valued volatility path from the policy's own stream.

    The start level is drawn first and the switch gaps after it, so a shorter
    horizon's schedule is a prefix of a longer one's.  The gaps are drawn in
    blocks until the switch times pass the horizon: a block draw gives the
    same gaps as one draw at a time, and np.cumsum, run on from the last
    switch time, adds them in the same order, so the schedule does not depend
    on the block size.  A block holds about the expected number of gaps, at
    most n_steps + 1, so it is no larger than the path's own positions.  A
    block settles the switch count of each step that falls before its last
    switch time and after every earlier block's, and is then dropped, so
    memory grows with the path, not with rate * horizon; time still does.
    """
    rng = np.random.default_rng(policy.switch_seed)
    start_high = bool(rng.integers(0, 2))
    horizon = n_steps * dt
    size = int(min(policy.rate * horizon, n_steps)) + 1
    times = dt * np.arange(n_steps)
    counts = np.empty(n_steps, dtype=np.intp)
    done, start, total = 0, 0, 0.0
    while total <= horizon:
        ends = np.cumsum(np.concatenate(([total], rng.exponential(1.0 / policy.rate, size))))
        total = ends[-1]
        stop = int(np.searchsorted(times, total))
        if stop > start:  # at rates far above 1/dt most blocks end before the next step
            counts[start:stop] = done + np.searchsorted(ends[1:], times[start:stop], side="right")
        done, start = done + size, stop
    high = counts % 2 == (0 if start_high else 1)
    return np.where(high, policy.sigma_hi, policy.sigma_lo)


def simulate_path(policy: VolPolicy, x0: float, horizon: float, dt: float, seed: int) -> PathSample:
    """Euler recursion x_{k+1} = (x_k + sigma_k sqrt(dt) xi_k) mod 2*pi.

    The noise stream is seed-deterministic and private to this call, and
    sigma_k is the policy evaluated on the state before the k-th increment,
    so every policy is adapted.
    """
    if dt <= 0:
        raise InputError("dt must be > 0")
    if horizon < 0:
        raise InputError("horizon must be >= 0")
    if not (math.isfinite(dt) and math.isfinite(horizon)):
        raise InputError(f"dt and horizon must be finite; got dt={dt}, horizon={horizon}")
    if not horizon / dt <= sys.maxsize:
        raise InputError(f"horizon={horizon} takes more than {sys.maxsize} steps of dt={dt:g}")
    n_steps = int(round(horizon / dt))
    if not math.isfinite(x0):
        raise InputError(f"x0 must be finite; got {x0}")
    x0 = float(np.mod(x0, TWO_PI))
    if n_steps == 0:
        return PathSample(np.asarray([x0]))
    try:
        positions = _path_positions(policy, x0, n_steps, dt, seed)
    except MemoryError as exc:
        raise InputError(f"horizon={horizon} at dt={dt:g} takes {n_steps} steps, more than memory holds") from exc
    return PathSample(positions)


def _path_positions(policy: VolPolicy, x0: float, n_steps: int, dt: float, seed: int) -> np.ndarray:
    """The n_steps + 1 positions of simulate_path; the noise stream and the path are allocated whole."""
    rng = np.random.default_rng(seed)
    noise = rng.standard_normal(n_steps)
    sq = math.sqrt(dt)

    if policy.kind in ("constant", "random-switching"):
        if policy.kind == "constant":
            sig = np.full(n_steps, policy.sigma)
        else:
            sig = _switching_sigma_per_step(policy, n_steps, dt)
        increments = sig * sq * noise
        return np.mod(x0 + np.concatenate([[0.0], np.cumsum(increments)]), TWO_PI)

    # feedback: high volatility where sign * cos(x) > level on the current
    # state; greedy's cos(x) < 0 is where cos has positive curvature
    sign, level = (1.0, policy.level) if policy.kind == "threshold-feedback" else (-1.0, 0.0)
    lo, hi = policy.sigma_lo, policy.sigma_hi
    out = np.empty(n_steps + 1)
    x = x0
    out[0] = x
    for k, z in enumerate(noise.tolist()):
        s = hi if sign * math.cos(x) > level else lo
        x = (x + s * sq * z) % TWO_PI
        out[k + 1] = x
    return out


def time_average(path: PathSample, phi: GridFn) -> float:
    """Left-Riemann average of phi along the path (periodic linear interpolation)."""
    if path.positions.size == 0:
        raise InputError("path must be nonempty")
    if path.positions.size == 1:
        return float(_periodic_interp(path.positions, phi)[0])
    return float(np.mean(_periodic_interp(path.positions[:-1], phi)))


@dataclass(frozen=True)
class McSllnEntry:
    policy: str
    seed: int
    time_average: float
    deviation: float


@dataclass(frozen=True)
class McSllnReport:
    """Time-average deviations from the space mean across scenarios and seeds."""

    target: float
    tol: float
    entries: tuple[McSllnEntry, ...]

    @property
    def max_deviation(self) -> float:
        return max(e.deviation for e in self.entries)

    @property
    def flagged(self) -> tuple[McSllnEntry, ...]:
        return tuple(e for e in self.entries if e.deviation > self.tol)

    @property
    def ok(self) -> bool:
        return not self.flagged


def slln_experiment(
    phi: GridFn,
    policies: list[VolPolicy],
    horizon: float,
    seeds: list[int],
    dt: float = 0.01,
    tol: float = 0.05,
) -> McSllnReport:
    """Time averages of phi under every (policy, seed) scenario vs mean(phi).

    Deviations beyond the tolerance are flagged, not hidden: feedback
    scenarios converge to occupation averages weighted by 1/sigma^2(x), which
    differ from the plain space mean whenever the policy is state-dependent.
    A NaN tolerance would flag nothing and a negative one everything, so both
    are rejected before any path is simulated.
    """
    if not (math.isfinite(tol) and tol >= 0):
        raise InputError(f"tol must be finite and >= 0; got {tol}")
    if not policies or not seeds:
        raise InputError("need at least one policy and one seed")
    target = float(np.mean(phi.values))
    entries = []
    for policy in policies:
        for seed in seeds:
            path = simulate_path(policy, SLLN_X0, horizon, dt, seed)
            avg = time_average(path, phi)
            entries.append(McSllnEntry(policy.label, seed, avg, abs(avg - target)))
    return McSllnReport(target=target, tol=tol, entries=tuple(entries))


# ---------------------------------------------------------------------------
# dynamic-programming oracle
# ---------------------------------------------------------------------------


def dp_upper_expectation(phi: GridFn, t: float, p: GHeatParams, n_steps: int) -> GridFn:
    """Backward recursion u_k = max(K_lo u_{k+1}, K_hi u_{k+1}) from u_N = phi.

    The per-step maximum over the two endpoint volatilities realizes the
    supremum over step-constant controls; the recursion is an independent
    approximation of the nonlinear semigroup that shares nothing with the
    finite-difference scheme.  Each one-step kernel is an exact wrapped
    Gaussian and circulant, so it is held as its first column and applied
    through that column's real FFT spectrum.  The two spectra are stacked into
    one (2, M//2 + 1) array, so each step is one forward rFFT and one batched
    inverse rFFT that returns both candidates as the rows of a (2, M) array.
    The steps allocate nothing: the state (a copy of phi's values), its
    spectrum, the product and the two candidates live in four buffers that
    every step overwrites through the out= arguments of the ufuncs and of
    np.fft (numpy >= 2.0).
    The result is a GridFn, which copies the state, so it shares no memory
    with phi or with the buffers.
    """
    n_steps = _count("n_steps", n_steps)
    if t <= 0:
        raise InputError("t must be > 0")
    m = phi.grid.m
    spectra = []
    for sigma2 in (p.sigma_lo2, p.sigma_hi2):
        row = kernel_row(m, sigma2, t / n_steps)
        # every row of a circulant is a permutation of its first column, so
        # the first column's sum is the sum of every row
        err = abs(float(np.sum(row)) - 1.0)
        if err > 1e-12:
            raise InputError(
                f"one-step kernel rows sum to 1 only within {err:.2e}; "
                "decrease the step count or refine the grid"
            )
        spectra.append(np.fft.rfft(row))
    spectra = np.stack(spectra)
    u = np.array(phi.values)
    f = np.empty(spectra.shape[1], dtype=complex)
    product = np.empty_like(spectra)
    both = np.empty((2, m))
    lo, hi = both
    rfft, irfft, multiply, maximum = np.fft.rfft, np.fft.irfft, np.multiply, np.maximum
    for _ in range(n_steps):
        rfft(u, out=f)
        multiply(f, spectra, out=product)
        irfft(product, n=m, out=both)
        maximum(lo, hi, out=u)
    return GridFn(phi.grid, u)


@dataclass(frozen=True)
class RegularityAuditRow:
    leb: float
    sup_value: float
    closed_form_bound: float
    proxy_bound: float


@dataclass(frozen=True)
class RegularityAuditReport:
    """Vanishing of sup_x T_t 1_{A_n} along a shrinking interval family."""

    rows: tuple[RegularityAuditRow, ...]
    non_increasing: bool
    within_bounds: bool
    final_below_proxy: bool

    @property
    def ok(self) -> bool:
        return self.non_increasing and self.within_bounds and self.final_below_proxy


def strong_regularity_audit(
    p: GHeatParams,
    t: float,
    intervals: list[tuple[float, float]],
    grid: CircleGrid | None = None,
    steps: int = 64,
) -> RegularityAuditReport:
    """Evaluate sup_x of the nonlinear flow of shrinking indicators.

    The flow values come from the dynamic-programming oracle (the independent
    route, not the finite-difference scheme).  Checks that the sequence is
    non-increasing, that every value stays below min(1, closed-form bound),
    and that the final value falls below the practical proxy
    10 * leb * sup of the low-volatility kernel.
    """
    if grid is None:
        grid = CircleGrid(256)
    if t <= 0:
        raise InputError("t must be > 0")
    if not intervals:
        raise InputError("need at least one interval")
    for (a0, b0), (a1, b1) in zip(intervals, intervals[1:]):
        if a1 < a0 - 1e-12 or b1 > b0 + 1e-12:
            raise InputError("intervals must be nested decreasing")
    c_dominant = float(wrapped_gauss(WrappedKernelSpec(p.sigma_lo2, t), 0.0, 0.0))
    rows = []
    for a, b in intervals:
        ind = indicator_fn(grid, a, b)
        leb = float(np.sum(ind.values)) * grid.h
        val = float(np.max(dp_upper_expectation(ind, t, p, steps).values))
        rows.append(
            RegularityAuditRow(
                leb=leb,
                sup_value=val,
                closed_form_bound=regularity_bound(t, p.sigma_lo2, leb),
                proxy_bound=10.0 * leb * c_dominant,
            )
        )
    vals = [r.sup_value for r in rows]
    non_inc = all(b <= a + 1e-9 for a, b in zip(vals, vals[1:]))
    within = all(r.sup_value <= min(1.0, r.closed_form_bound) + 1e-9 for r in rows)
    return RegularityAuditReport(
        rows=tuple(rows),
        non_increasing=non_inc,
        within_bounds=within,
        final_below_proxy=rows[-1].sup_value <= rows[-1].proxy_bound,
    )


def capacity_estimate(
    event,
    policies: list[VolPolicy],
    horizon: float,
    dt: float,
    seeds: list[int],
) -> tuple[float, float]:
    """Empirical (max, min) frequency of a path event across the policy family.

    A finite-scenario surrogate for the upper/lower path capacities; the
    returned numbers are estimates over the given seeds, never exact values.
    """
    if not policies or not seeds:
        raise InputError("need at least one policy and one seed")
    freqs = []
    for policy in policies:
        hits = sum(bool(event(simulate_path(policy, CAPACITY_X0, horizon, dt, seed))) for seed in seeds)
        freqs.append(hits / len(seeds))
    return max(freqs), min(freqs)
