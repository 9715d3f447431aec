"""Wrapped Gaussian heat kernels on the circle and the linear semigroups they generate.

The transition density of constant-volatility Brownian motion on [0, 2*pi) is
the 2*pi-periodized Gaussian; convolving against it on the uniform grid with
the trapezoid rule is spectrally accurate for smooth periodic integrands.
These linear semigroups are the reference targets the nonlinear solver is
cross-checked against, and single steps of them are the transition operators
of the dynamic-programming oracle.

The density depends on x - y only, so the trapezoid operator
K[i, j] = h * p(t, x_i, x_j) is circulant: K[i, j] = c[(i - j) mod M] with
c_k = h * p(t, x_k, 0).  Only that one row is computed, and K is
applied as the circular convolution irfft(rfft(c) * rfft(u)), which costs
O(M log M) time and O(M) memory.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .credal import InputError
from .gheat import CircleGrid, GridFn

#: kernel-image truncation tolerance
TAIL_TOL = 1e-15

TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class WrappedKernelSpec:
    """Variance rate and elapsed time of a wrapped kernel."""

    sigma2: float
    t: float

    def __post_init__(self):
        if not (math.isfinite(self.sigma2) and math.isfinite(self.t)):
            raise InputError(f"sigma2 and t must be finite; got sigma2={self.sigma2}, t={self.t}")
        if self.sigma2 <= 0:
            raise InputError("sigma2 must be > 0")
        if self.t <= 0:
            raise InputError("t must be > 0")
        if self.variance == 0.0:
            raise InputError(f"variance sigma2 * t underflows to 0; got sigma2={self.sigma2}, t={self.t}")

    @property
    def variance(self) -> float:
        return self.sigma2 * self.t

    @property
    def truncation_order(self) -> int:
        """Smallest K whose omitted image terms sum below TAIL_TOL.

        Bound: for |x - y| <= 2*pi the omitted centers sit at distance at
        least 2*pi*K, and successive terms decay at least geometrically with
        ratio exp(-(2*pi)^2 (2K+1) / (2 v)).  A ratio that rounds to 1 leaves
        the bound infinite at that K.
        """
        v = self.variance
        amp = 2.0 / math.sqrt(TWO_PI * v)
        for k in range(1, 201):
            lead = math.exp(-((TWO_PI * k) ** 2) / (2.0 * v))
            ratio = math.exp(-(TWO_PI**2) * (2 * k + 1) / (2.0 * v))
            if ratio < 1.0 and amp * lead / (1.0 - ratio) < TAIL_TOL:
                return k
        raise InputError("kernel truncation order exceeds 200; variance too large")


def wrapped_gauss(spec: WrappedKernelSpec, x, y):
    """Periodized Gaussian transition density p(t, x, y); vectorizes over x, y."""
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    v = spec.variance
    k_ord = spec.truncation_order
    d = x - y
    out = np.zeros(np.broadcast(x, y).shape)
    for k in range(-k_ord, k_ord + 1):
        out = out + np.exp(-((d - TWO_PI * k) ** 2) / (2.0 * v))
    return out / math.sqrt(TWO_PI * v)


def kernel_row(m: int, sigma2: float, t: float) -> np.ndarray:
    """c_k = h * p(t, x_k, 0): the first row and column of the trapezoid operator.

    p depends on x - y only and is even in it, so K[i, j] = c[(i - j) mod m].
    """
    grid = CircleGrid(m)
    spec = WrappedKernelSpec(sigma2, t)
    return grid.h * wrapped_gauss(spec, grid.nodes(), 0.0)


def kernel_matrix(m: int, sigma2: float, t: float) -> np.ndarray:
    """Dense trapezoid operator K[i, j] = c[(i - j) mod m], built on every call.

    Library code never builds it: the operator is applied by FFT from
    ``kernel_row``.  It exists to inspect the operator as a matrix.
    """
    idx = np.arange(m)
    return kernel_row(m, sigma2, t)[(idx[:, None] - idx[None, :]) % m]


def linear_semigroup(phi: GridFn, spec: WrappedKernelSpec) -> GridFn:
    """Quadrature convolution of phi with the wrapped kernel."""
    m = phi.grid.m
    row = kernel_row(m, spec.sigma2, spec.t)
    return GridFn(phi.grid, np.fft.irfft(np.fft.rfft(row) * np.fft.rfft(phi.values), n=m))


def regularity_bound(t: float, sigma_lo2: float, leb: float) -> float:
    """Uniform upper bound for the flow of an indicator of Lebesgue measure leb.

    Value: leb / sqrt(2*pi*lo2*t) * exp((2*pi)^2 / (2*lo2*t))
               / (1 - exp(-pi^2 / (lo2*t))).
    The exponential factor is enormous for small lo2*t, so the bound is only
    informative once it drops below 1; it vanishes linearly as leb -> 0 either
    way, which is the point of the estimate.  Where the exponential overflows
    or the denominator underflows to 0 the bound is infinite.
    """
    if not (math.isfinite(t) and math.isfinite(sigma_lo2) and math.isfinite(leb)):
        raise InputError(f"t, sigma_lo2 and leb must be finite; got t={t}, sigma_lo2={sigma_lo2}, leb={leb}")
    if t <= 0:
        raise InputError("t must be > 0")
    if sigma_lo2 <= 0:
        raise InputError("sigma_lo2 must be > 0")
    if leb < 0:
        raise InputError("leb must be >= 0")
    if leb == 0.0:
        return 0.0
    vt = sigma_lo2 * t
    try:
        grow = math.exp((TWO_PI**2) / (2.0 * vt))
    except (OverflowError, ZeroDivisionError):
        return math.inf
    denom = 1.0 - math.exp(-(math.pi**2) / vt)
    if denom == 0.0:
        return math.inf
    return leb / math.sqrt(TWO_PI * vt) * grow / denom
