"""Two-engine laboratory: exact ergodic audits for upper expectations on finite
spaces, and a computational study of circle heat flow under volatility
uncertainty (monotone PDE scheme, wrapped-Gaussian kernels, DP control oracle,
Monte Carlo scenarios).

The package exports the two exception types and the types a user builds;
every other function lives in its submodule (`credal`, `finite`, `gheat`,
`wrapped`, `scenario`, `cli`)."""

from .credal import ContractError, InputError, PriorSet, ProbVector, Rv
from .finite import FiniteMap, FiniteSystem
from .gheat import CircleGrid, GHeatParams, GridFn

__version__ = "0.1.0"
