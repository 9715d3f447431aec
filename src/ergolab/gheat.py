"""Monotone explicit solver for the sign-split heat flow on the circle.

The evolution is du/dt = H(u_xx) with H(d) = (hi2 * max(d,0) - lo2 * max(-d,0)) / 2:
high diffusivity acts on convex regions, low diffusivity on concave ones.
The scheme is explicit Euler on the periodic three-point stencil; it is
monotone under dt * hi2 / h^2 <= 1 and therefore obeys a discrete maximum
principle and converges to the viscosity solution.  `solve`,
`step_explicit` and `g_operator` run one in-place stepper: a buffer of M + 2
values holds the state with one ghost cell at each end, the ghost cells are
written as scalars before each step, and every array operation of the step
writes into the buffer or one of two work arrays, so a step allocates
nothing.  Every other operand of a step (2, h^2, hi2/2, lo2/2, the 0.0 below
and the step size) is an array of M equal values, filled before the loop:
numpy dispatches a ufunc whose operands are all arrays faster than one with
a Python float operand, and the arithmetic is the same to the last bit.  The state is wrapped in a
GridFn once, at return; GridFn is the type at the API boundary only.
`g_operator` is the stepper's own rate, read at one step of size 0.0.

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
import sys
from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .credal import ContractError, InputError, _count


@dataclass(frozen=True)
class CircleGrid:
    """M uniform nodes x_i = i * 2*pi/M on [0, 2*pi); indices wrap modulo M."""

    m: int

    def __post_init__(self):
        m = _count("grid size m", self.m, minimum=8)
        if m > (limit := np.iinfo(np.intp).max // 8):  # the longest float array numpy can address
            raise InputError(f"grid size m must be <= {limit}; got {m}")

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


@dataclass(frozen=True)
class GHeatParams:
    """Squared volatility band and CFL safety factor of the solver."""

    sigma_lo2: float
    sigma_hi2: float
    cfl: float = 0.8

    def __post_init__(self):
        if not (0.0 < self.sigma_lo2 <= self.sigma_hi2):
            raise InputError("need 0 < sigma_lo2 <= sigma_hi2")
        if not np.isfinite(self.sigma_hi2):
            raise InputError(f"sigma_hi2 must be finite; got {self.sigma_hi2}")
        if not (0.0 < self.cfl < 1.0):
            raise InputError("cfl must lie in (0, 1)")

    def dt(self, grid: CircleGrid) -> float:
        """Stable step: dt * sigma_hi2 / h^2 = cfl < 1."""
        return self.cfl * grid.h**2 / self.sigma_hi2


def _advance(values: np.ndarray, h2: float, p: GHeatParams, runs) -> tuple[np.ndarray, np.ndarray]:
    """Explicit Euler steps in place on one ghost-cell buffer; `runs` holds (step size, count) pairs.

    A step is two scalar ghost-cell stores and ten ufuncs: the stencil
    d = (v_{i+1} - 2 v_i + v_{i-1}) / h2, the rate r = max(a*d, b*d) + 0.0,
    then v += tau * r, with tau * r written into d's array.  Their operands
    are arrays filled before the loop, and tau's array is refilled once per
    run, so `solve` fills it at most twice: for dt and for the last-step
    remainder.  The arithmetic is kept as it is, operation for operation:
    multiplying by 1/h2 instead of dividing by h2, folding tau into a and b,
    or dropping the "+ 0.0" would each change the bits of some results, and
    the byte tests on ordinary and signed-zero data catch every one.  They
    compare against one oracle written from the scheme's definition,
    `fd_oracle` in tests/oracles.py: np.roll stencil, two-branch rate and
    u + tau * rate on a stack of data, one datum per row.

    Returns a view of the buffer and the rate array, which holds the rate at
    the state before the last step; the caller wraps one of them in a GridFn,
    which copies.
    """
    m = values.size
    w = np.empty(m + 2)
    w[1:-1] = values
    v, left, right = w[1:-1], w[:-2], w[2:]
    d = np.empty(m)
    r = np.empty(m)
    two, h2s, a, b, zero = (np.full(m, c) for c in (2.0, h2, 0.5 * p.sigma_hi2, 0.5 * p.sigma_lo2, 0.0))
    tau = np.empty(m)
    multiply, subtract, add, divide, maximum = np.multiply, np.subtract, np.add, np.divide, np.maximum
    for step, count in runs:
        tau.fill(step)
        for _ in repeat(None, count):
            w[0] = w[m]
            w[m + 1] = w[1]
            multiply(v, two, out=d)
            subtract(right, d, out=d)
            add(d, left, out=d)
            divide(d, h2s, out=d)
            multiply(d, a, out=r)
            multiply(d, b, out=d)
            maximum(r, d, out=r)
            add(r, zero, out=r)
            multiply(r, tau, out=d)
            add(v, d, out=v)
    return v, r


def g_operator(u: GridFn, p: GHeatParams) -> GridFn:
    """Sign-split diffusion: hi2/2 on positive curvature, lo2/2 on negative.

    The stepper's own rate, read after one step of size 0.0.
    """
    return GridFn(u.grid, _advance(u.values, u.grid.h**2, p, ((0.0, 1),))[1])


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
    return GridFn(u.grid, _advance(u.values, h2, p, ((dt, 1),))[0])


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
    if not (dt > 0.0 and t / dt <= sys.maxsize):
        raise InputError(f"t={t} takes more than {sys.maxsize} steps of dt={dt:g}")
    n_full = int(np.floor(t / dt + 1e-9))
    rem = t - n_full * dt
    runs = ((dt, n_full), (rem, 1)) if rem > 1e-12 else ((dt, n_full),)
    return GridFn(phi.grid, _advance(phi.values, phi.grid.h**2, p, runs)[0])


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
    return SteadyStateReport(osc, gnorm)


# ---------------------------------------------------------------------------
# CSV interchange: header "x,u", 17 significant digits
# ---------------------------------------------------------------------------


def to_csv_text(u: GridFn) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["x", "u"])
    for x, val in zip(u.grid.nodes(), u.values):
        writer.writerow([f"{x:.17g}", f"{val:.17g}"])
    return buf.getvalue()


def read_csv(path: str) -> GridFn:
    """Read to_csv_text's format: header 'x,u', then one row x,u per node, x the node itself.

    x must equal CircleGrid(m).nodes() for the m rows; 17 significant digits round-trip exactly.
    """
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != ["x", "u"]:
        raise InputError("expected CSV with header 'x,u'")
    if any(len(r) != 2 for r in rows[1:]):
        raise InputError("every CSV row must have exactly two fields x,u")
    try:
        xs = [float(x) for x, _ in rows[1:]]
        vals = [float(u) for _, u in rows[1:]]
    except ValueError as exc:
        raise InputError(f"bad number in CSV: {exc}") from None
    grid = CircleGrid(len(vals))
    if not np.array_equal(xs, grid.nodes()):
        raise InputError(f"CSV column 'x' must be the {grid.m} grid nodes 2*pi*k/{grid.m}")
    return GridFn(grid, vals)
