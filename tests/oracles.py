"""One definitional oracle per heat-engine quantity, shared by every test module.

- FD: `fd_oracle` takes explicit Euler steps u + tau * H(u_xx) of a (B, M)
  stack, one datum per row, with the np.roll stencil `fd_stencil` and the
  two-branch rate `fd_rate`; `fd_step_sizes` lists the steps `solve` takes.
- DP: `dp_oracle` is the recursion u <- max(K_lo u, K_hi u) with one forward
  and two allocating inverse rFFTs a step; it pins dp_upper_expectation's bytes.
- Kernels: `dense_kernel` is K[i, j] = h * p(t, x_i, x_j), pointwise from wrapped_gauss.

`constant_fn`, the constant datum, is shared test data, not an oracle.
"""

from functools import lru_cache

import numpy as np

from ergolab.gheat import CircleGrid, GridFn
from ergolab.wrapped import WrappedKernelSpec, kernel_row, wrapped_gauss


def constant_fn(grid: CircleGrid, c: float) -> GridFn:
    return GridFn(grid, np.full(grid.m, float(c)))


def fd_step_sizes(t, dt):
    """The steps that reach t: floor(t/dt + 1e-9) steps of dt, then the remainder if it exceeds 1e-12."""
    n_full = int(np.floor(t / dt + 1e-9))
    rem = t - n_full * dt
    return [dt] * n_full + ([rem] if rem > 1e-12 else [])


def fd_stencil(u, h):
    """The periodic second difference (u_{i+1} - 2 u_i + u_{i-1}) / h^2 along the last axis."""
    return (np.roll(u, -1, -1) - 2.0 * u + np.roll(u, 1, -1)) / h**2


def fd_rate(u, h, p):
    """The sign-split rate H(u_xx) in its two-branch form."""
    d = fd_stencil(u, h)
    return 0.5 * p.sigma_hi2 * np.maximum(d, 0.0) - 0.5 * p.sigma_lo2 * np.maximum(-d, 0.0)


def fd_oracle(u, h, p, taus):
    """Explicit Euler steps u + tau * H(u_xx) of a (B, M) stack (or one row), one step per tau."""
    for tau in taus:
        u = u + tau * fd_rate(u, h, p)
    return u


def dp_oracle(phi, t, p, n_steps):
    """The DP recursion from u = phi: one forward and two allocating inverse rFFTs a step."""
    m = phi.grid.m
    spectrum_lo = np.fft.rfft(kernel_row(m, p.sigma_lo2, t / n_steps))
    spectrum_hi = np.fft.rfft(kernel_row(m, p.sigma_hi2, t / n_steps))
    u = phi.values
    for _ in range(n_steps):
        f = np.fft.rfft(u)
        u = np.maximum(np.fft.irfft(f * spectrum_lo, n=m), np.fft.irfft(f * spectrum_hi, n=m))
    return u


@lru_cache(maxsize=None)
def dense_kernel(m: int, sigma2: float, t: float) -> np.ndarray:
    """K[i, j] = h * p(t, x_i, x_j), pointwise from wrapped_gauss."""
    grid = CircleGrid(m)
    x = grid.nodes()
    return grid.h * wrapped_gauss(WrappedKernelSpec(sigma2, t), x[:, None], x[None, :])
