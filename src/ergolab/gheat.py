"""Monotone explicit solver for the sign-split heat flow on the circle.

The evolution is du/dt = H(u_xx) with H(d) = (hi2 * max(d,0) - lo2 * max(-d,0)) / 2:
high diffusivity acts on convex regions, low diffusivity on concave ones.
The scheme is explicit Euler on the periodic three-point stencil; it is
monotone under dt * hi2 / h^2 <= 1 and therefore obeys a discrete maximum
principle and converges to the viscosity solution.  `solve` and
`step_explicit` run one in-place stepper: a buffer of M + 2 values holds the
state with one ghost cell at each end, the ghost cells are written as scalars
before each step, and every array operation of the step writes into the
buffer or one of two work arrays, so a step allocates nothing.  The state is
wrapped in a GridFn once, at return; GridFn is the type at the API boundary
only, and `second_diff` and `g_operator` are thin GridFn wrappers over the
same stencil and rate.

The rate is computed as H(d) = max(a*d, b*d) + 0.0 with a = hi2/2 >= b =
lo2/2 > 0.  This is the two-branch form a*max(d,0) - b*max(-d,0) to the
last bit: rounding is monotone, so for d > 0 the maximum picks fl(a*d), and
for d < 0 it picks fl(b*d) = -fl(b*|d|).  The "+ 0.0" makes every zero rate
+0.0, as the difference 0.0 - 0.0 does: the maximum alone gives -0.0 for
d = -0.0 and wherever b*|d| underflows, and a step would then leave a node
holding -0.0 at -0.0 where the two-branch form makes it +0.0.

A structural fact worth keeping in mind when reading the audits: for
hi2 > lo2 the flow does not preserve the spatial mean.  Integrating the
equation over the circle gives
    d/dt mean(u) = (hi2 - lo2)/2 * mean(max(u_xx, 0)) >= 0,
with equality only for constant u, because the periodic second derivative
integrates to zero.  The mean therefore increases strictly until the
solution flattens, and the flat limit sits strictly above mean(phi) for
every nonconstant initial datum.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from itertools import chain, repeat

import numpy as np

from .credal import ContractError, InputError


@dataclass(frozen=True)
class CircleGrid:
    """M uniform nodes x_i = i * 2*pi/M on [0, 2*pi); indices wrap modulo M."""

    m: int

    def __post_init__(self):
        if self.m < 8:
            raise InputError("grid must have at least 8 nodes")

    @property
    def h(self) -> float:
        return 2.0 * np.pi / self.m

    def nodes(self) -> np.ndarray:
        return self.h * np.arange(self.m)


class GridFn:
    """Real values on the nodes of a CircleGrid; immutable after construction."""

    __slots__ = ("grid", "_values")

    def __init__(self, grid: CircleGrid, values):
        v = np.array(values, dtype=float)
        if v.shape != (grid.m,):
            raise InputError(f"expected {grid.m} values, got shape {v.shape}")
        if not np.isfinite(v).all():
            raise InputError(f"non-finite value at node {int(np.argmin(np.isfinite(v)))}")
        v.flags.writeable = False
        self.grid = grid
        self._values = v

    @property
    def values(self) -> np.ndarray:
        return self._values

    def __repr__(self):
        return f"GridFn(m={self.grid.m}, range=[{self._values.min():.3g}, {self._values.max():.3g}])"


def cos_fn(grid: CircleGrid) -> GridFn:
    return GridFn(grid, np.cos(grid.nodes()))


def quad_fn(grid: CircleGrid) -> GridFn:
    """(x - pi)^2 sampled on the nodes; convex on the interval, kinked at the seam."""
    return GridFn(grid, (grid.nodes() - np.pi) ** 2)


def indicator_fn(grid: CircleGrid, a: float, b: float) -> GridFn:
    """Indicator of the node-aligned half-open arc [a, b)."""
    x = grid.nodes()
    return GridFn(grid, ((x >= a - 1e-12) & (x < b - 1e-12)).astype(float))


def random_fn(grid: CircleGrid, seed: int) -> GridFn:
    if seed < 0:
        raise InputError(f"seed must be >= 0; got {seed}")
    rng = np.random.default_rng(seed)
    return GridFn(grid, rng.uniform(-1.0, 1.0, grid.m))


def constant_fn(grid: CircleGrid, c: float) -> GridFn:
    return GridFn(grid, np.full(grid.m, float(c)))


@dataclass(frozen=True)
class GHeatParams:
    """Squared volatility band and CFL safety factor of the solver."""

    sigma_lo2: float
    sigma_hi2: float
    cfl: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.sigma_lo2 <= self.sigma_hi2):
            raise InputError("need 0 < sigma_lo2 <= sigma_hi2")
        if not (0.0 < self.cfl < 1.0):
            raise InputError("cfl must lie in (0, 1)")

    def dt(self, grid: CircleGrid) -> float:
        """Stable step: dt * sigma_hi2 / h^2 = cfl < 1."""
        return self.cfl * grid.h**2 / self.sigma_hi2


def _second_diff_into(
    right: np.ndarray, v: np.ndarray, left: np.ndarray, h2: float, out: np.ndarray
) -> np.ndarray:
    """The three-point stencil (right - 2 v + left) / h2, written into `out`."""
    np.multiply(v, 2.0, out=out)
    np.subtract(right, out, out=out)
    np.add(out, left, out=out)
    np.divide(out, h2, out=out)
    return out


def _rate_into(d: np.ndarray, a: float, b: float, out: np.ndarray) -> np.ndarray:
    """The sign-split rate max(a*d, b*d) + 0.0, written into `out`; `d` is overwritten.

    With a = hi2/2 and b = lo2/2 this equals a*max(d,0) - b*max(-d,0) bit for
    bit (see the module docstring).
    """
    np.multiply(d, a, out=out)
    np.multiply(d, b, out=d)
    np.maximum(out, d, out=out)
    np.add(out, 0.0, out=out)
    return out


def _second_diff(v: np.ndarray, h2: float) -> np.ndarray:
    """The periodic three-point stencil (v_{i+1} - 2 v_i + v_{i-1}) / h2 on a bare array."""
    w = np.concatenate((v[-1:], v, v[:1]))
    return _second_diff_into(w[2:], v, w[:-2], h2, np.empty_like(v))


def _rate(v: np.ndarray, h2: float, p: GHeatParams) -> np.ndarray:
    """The sign-split rate H(v_xx): hi2/2 on positive curvature, lo2/2 on negative."""
    d = _second_diff(v, h2)
    return _rate_into(d, 0.5 * p.sigma_hi2, 0.5 * p.sigma_lo2, np.empty_like(d))


def _advance(values: np.ndarray, h2: float, p: GHeatParams, taus) -> np.ndarray:
    """Explicit Euler steps of the sizes in the iterable `taus`, in place on one ghost-cell buffer.

    Returns a view of the buffer; the caller wraps it in a GridFn, which copies.
    """
    m = values.size
    w = np.empty(m + 2)
    w[1:-1] = values
    v, left, right = w[1:-1], w[:-2], w[2:]
    d = np.empty(m)
    r = np.empty(m)
    a = 0.5 * p.sigma_hi2
    b = 0.5 * p.sigma_lo2
    for tau in taus:
        w[0] = w[m]
        w[m + 1] = w[1]
        _second_diff_into(right, v, left, h2, d)
        _rate_into(d, a, b, r)
        np.multiply(r, tau, out=r)
        np.add(v, r, out=v)
    return v


def second_diff(u: GridFn) -> GridFn:
    """Periodic three-point second difference (u_{i+1} - 2 u_i + u_{i-1}) / h^2."""
    return GridFn(u.grid, _second_diff(u.values, u.grid.h**2))


def g_operator(u: GridFn, p: GHeatParams) -> GridFn:
    """Sign-split diffusion: hi2/2 on positive curvature, lo2/2 on negative."""
    return GridFn(u.grid, _rate(u.values, u.grid.h**2, p))


def step_explicit(u: GridFn, p: GHeatParams, dt: float) -> GridFn:
    """One explicit Euler step; requires the monotonicity bound dt*hi2/h^2 <= 1."""
    if dt < 0:
        raise InputError("dt must be >= 0")
    if not np.isfinite(dt):
        raise InputError(f"dt must be finite; got {dt}")
    h2 = u.grid.h**2
    lam = dt * p.sigma_hi2 / h2
    if lam > 1.0 + 1e-12:
        raise ContractError(f"CFL violation: dt*sigma_hi2/h^2 = {lam:.6f} > 1")
    return GridFn(u.grid, _advance(u.values, h2, p, (dt,)))


def solve(phi: GridFn, t: float, p: GHeatParams) -> GridFn:
    """Evolve phi for time t; the last step is shortened to land exactly on t.

    Runs the in-place ghost-cell stepper of the module docstring.  p.dt
    satisfies the monotonicity bound, so the steps skip step_explicit's check.
    The returned GridFn holds a copy and shares no memory with phi or with the
    stepper's buffers.
    """
    if t < 0:
        raise InputError("t must be >= 0")
    if not np.isfinite(t):
        raise InputError(f"t must be finite; got {t}")
    dt = p.dt(phi.grid)
    n_full = int(np.floor(t / dt + 1e-9))
    rem = t - n_full * dt
    taus = chain(repeat(dt, n_full), (rem,) if rem > 1e-12 else ())
    return GridFn(phi.grid, _advance(phi.values, phi.grid.h**2, p, taus))


def semigroup_check(phi: GridFn, s: float, t: float, p: GHeatParams) -> float:
    """sup-norm defect of the flow property: |solve(phi, s+t) - solve(solve(phi, t), s)|."""
    if s < 0 or t < 0:
        raise InputError("times must be >= 0")
    direct = solve(phi, s + t, p)
    chained = solve(solve(phi, t, p), s, p)
    return float(np.max(np.abs(direct.values - chained.values)))


def mean(u: GridFn) -> float:
    """Normalized circle integral; on a uniform periodic grid this is the node mean."""
    return float(np.mean(u.values))


def invariant_expectation(phi: GridFn, delta: float, p: GHeatParams) -> float:
    """mean(solve(phi, delta)) for delta > 0.

    For sigma_lo2 == sigma_hi2 this is delta-independent and equals mean(phi).
    For a strict band it increases with delta (see the module docstring), so
    callers comparing several delta values measure that drift.
    """
    if delta <= 0:
        raise InputError("delta must be > 0")
    return mean(solve(phi, delta, p))


def convergence_profile(phi: GridFn, times: list[float], p: GHeatParams) -> list[float]:
    """sup_x |solve(phi, t) - mean(phi)| at each requested time."""
    if any(b <= a for a, b in zip(times, times[1:])):
        raise InputError("times must be strictly increasing")
    m0 = mean(phi)
    out = []
    u = phi
    prev_t = 0.0
    for t in times:
        u = solve(u, t - prev_t, p)
        prev_t = t
        out.append(float(np.max(np.abs(u.values - m0))))
    return out


#: steady_state_audit's bounds on the terminal oscillation and generator norm
FLAT_TOL = 1e-6
GENERATOR_TOL = 1e-8


@dataclass(frozen=True)
class SteadyStateReport:
    """Flatness of the long-time state and residual of the generator on it."""

    horizon: float
    oscillation: float
    generator_norm: float

    @property
    def ok(self) -> bool:
        return self.oscillation <= FLAT_TOL and self.generator_norm <= GENERATOR_TOL


def steady_state_audit(phi0: GridFn, p: GHeatParams, horizon: float = 100.0) -> SteadyStateReport:
    """Run to a long horizon and check the state is a constant steady state.

    The only periodic steady states of the sign-split flow are constants, so
    the oscillation of the terminal state and the sup norm of the generator
    applied to it must fall below FLAT_TOL and GENERATOR_TOL.
    """
    u = solve(phi0, horizon, p)
    osc = float(u.values.max() - u.values.min())
    gnorm = float(np.max(np.abs(g_operator(u, p).values)))
    return SteadyStateReport(horizon, osc, gnorm)


# ---------------------------------------------------------------------------
# CSV interchange: header "x,u", 17 significant digits
# ---------------------------------------------------------------------------


def write_csv(u: GridFn, path: str) -> None:
    with open(path, "w", newline="") as fh:
        _write_csv_stream(u, fh)


def to_csv_text(u: GridFn) -> str:
    buf = io.StringIO()
    _write_csv_stream(u, buf)
    return buf.getvalue()


def _write_csv_stream(u: GridFn, fh) -> None:
    writer = csv.writer(fh)
    writer.writerow(["x", "u"])
    for x, val in zip(u.grid.nodes(), u.values):
        writer.writerow([f"{x:.17g}", f"{val:.17g}"])


def read_csv(path: str) -> GridFn:
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["x", "u"]:
        raise InputError("expected CSV with header 'x,u'")
    try:
        vals = [float(r[1]) for r in rows[1:]]
    except (IndexError, ValueError) as exc:
        raise InputError(f"bad value in CSV column 'u': {exc}") from None
    return GridFn(CircleGrid(len(vals)), vals)
