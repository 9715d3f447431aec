"""Upper/lower expectations over a finite credal set of probability vectors.

The upper expectation of a payoff vector X over a finite set of priors is
max_p <p, X>; the lower expectation is the min.  Together they induce a pair
of capacities (upper, lower) on events.  Everything here is exact linear
algebra on small vectors; no sampling is involved except in the closure audit
of the payoffs without mean uncertainty, which draws seed-deterministic random
payoffs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

#: absolute tolerance for simplex membership and capacity comparisons
TOL_SIMPLEX = 1e-12
#: absolute tolerance for derived identities (audits, no-mean-uncertainty)
TOL_DERIVED = 1e-10


class InputError(ValueError):
    """Malformed input: bad dimensions, invalid weights, budget exceeded."""


class ContractError(RuntimeError):
    """A precondition on the mathematical state was violated."""


@dataclass(frozen=True)
class ProbVector:
    """A probability vector: nonnegative weights summing to one."""

    weights: tuple[float, ...]

    def __post_init__(self):
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must be a nonempty 1-d sequence")
        weights = tuple(w.tolist())
        object.__setattr__(self, "weights", weights)
        if not all(map(math.isfinite, weights)):
            raise InputError(f"non-finite weight in {weights}")
        if min(weights) < -TOL_SIMPLEX:
            raise InputError(f"negative weight in {weights}")
        # numpy's pairwise sum sets the accept/reject boundary; the ufunc's own
        # reduce skips ndarray.sum's Python wrapper
        s = float(np.add.reduce(w))
        if abs(s - 1.0) > TOL_SIMPLEX:
            raise InputError(f"weights sum to {s}, expected 1 within {TOL_SIMPLEX}")

    @property
    def n(self) -> int:
        return len(self.weights)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.weights, dtype=float)


@dataclass(frozen=True)
class PriorSet:
    """A nonempty finite family of priors of identical length."""

    priors: tuple[ProbVector, ...]

    def __post_init__(self):
        priors = tuple(
            p if isinstance(p, ProbVector) else ProbVector(tuple(p)) for p in self.priors
        )
        object.__setattr__(self, "priors", priors)
        if not priors:
            raise InputError("prior set must be nonempty")
        n = priors[0].n
        if any(p.n != n for p in priors):
            raise InputError("all priors must have the same length")

    @property
    def n(self) -> int:
        return self.priors[0].n

    def matrix(self) -> np.ndarray:
        """Priors stacked as rows, shape (len(priors), n)."""
        return np.asarray([p.weights for p in self.priors], dtype=float)


@dataclass(frozen=True)
class Rv:
    """A real payoff vector on the finite outcome space."""

    values: tuple[float, ...]

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InputError("values must be a nonempty 1-d sequence")
        object.__setattr__(self, "values", tuple(v.tolist()))
        if not all(map(math.isfinite, self.values)):
            raise InputError(f"non-finite value in {self.values}")

    @property
    def n(self) -> int:
        return len(self.values)

    def as_array(self) -> np.ndarray:
        return np.asarray(self.values, dtype=float)

    def __neg__(self) -> "Rv":
        return Rv(tuple(-x for x in self.values))


@dataclass(frozen=True)
class EventSet:
    """A subset of the outcome space {0, ..., n-1}."""

    n: int
    members: frozenset[int] = field(default_factory=frozenset)

    def __post_init__(self):
        # int() would truncate 1.7 and read True or "1" as 1
        object.__setattr__(self, "n", _count("n", self.n))
        object.__setattr__(self, "members", frozenset(_count("event member", i, minimum=0) for i in self.members))
        if any(i >= self.n for i in self.members):
            raise InputError(f"member outside 0..{self.n - 1}")

    def indicator(self) -> Rv:
        return Rv(tuple(1.0 if i in self.members else 0.0 for i in range(self.n)))

    def complement(self) -> "EventSet":
        return EventSet(self.n, frozenset(range(self.n)) - self.members)


def _count(name: str, value, minimum: int = 1) -> int:
    """A Python or numpy integer >= minimum, as an int; a bool, a float or a string is rejected."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise InputError(f"{name} must be an integer; got {value!r}")
    if value < minimum:
        raise InputError(f"{name} must be >= {minimum}")
    return int(value)


def _check_dims(prior_set: PriorSet, x: Rv) -> None:
    if prior_set.n != x.n:
        raise InputError(f"dimension mismatch: priors have n={prior_set.n}, payoff n={x.n}")


def upper_exp(prior_set: PriorSet, x: Rv) -> float:
    """max over priors of <p, X>; exact, no sampling."""
    _check_dims(prior_set, x)
    return float(np.max(prior_set.matrix() @ x.as_array()))


def lower_exp(prior_set: PriorSet, x: Rv) -> float:
    """min over priors of <p, X>, computed as -upper_exp(-X) bit-for-bit."""
    return -upper_exp(prior_set, -x)


def capacity(prior_set: PriorSet, event: EventSet) -> tuple[float, float]:
    """The pair (upper capacity, lower capacity) of the event.

    An event of upper capacity 0 is polar; what holds off a polar set holds quasi-surely.
    """
    if event.n != prior_set.n:
        raise InputError("event size does not match prior set")
    ind = event.indicator()
    return upper_exp(prior_set, ind), lower_exp(prior_set, ind)


def has_no_mean_uncertainty(prior_set: PriorSet, x: Rv) -> bool:
    """True iff the upper and lower expectations of X coincide."""
    return abs(upper_exp(prior_set, x) + upper_exp(prior_set, -x)) <= TOL_DERIVED


@dataclass(frozen=True)
class AuditReport:
    """Outcome of a randomized audit: trial count and any violations found."""

    trials: int
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.violations


def _certainty_basis(prior_set: PriorSet) -> np.ndarray:
    """Orthonormal basis of {X : <p, X> identical for every prior p}.

    These are exactly the payoffs with no mean uncertainty: the upper and
    lower envelopes of a finite family of linear functionals agree iff the
    functionals all take the same value.  The null space of the differences
    is read from a full SVD with the rank rule of scipy.linalg.null_space:
    singular values above max(s) * eps * max(rows, cols) count toward the rank.
    """
    mat = prior_set.matrix()
    diffs = mat[1:] - mat[0]
    if diffs.shape[0] == 0:
        return np.eye(prior_set.n)
    _, s, vh = np.linalg.svd(diffs, full_matrices=True)
    tol = np.amax(s, initial=0.0) * np.finfo(s.dtype).eps * max(diffs.shape)
    return vh[np.count_nonzero(s > tol) :].T


def mean_uncertainty_space_audit(prior_set: PriorSet, trials: int, seed: int) -> AuditReport:
    """Check closure of the no-mean-uncertainty payoffs under linear combinations.

    Draws random pairs X1, X2 from the certainty subspace (so both pass
    has_no_mean_uncertainty) and random reals lam1, lam2 of any sign, and
    asserts lam1*X1 + lam2*X2 also passes.
    """
    trials = _count("trials", trials)
    rng = np.random.default_rng(_count("seed", seed, minimum=0))
    basis = _certainty_basis(prior_set)
    violations: list[str] = []
    for k in range(trials):
        if basis.shape[1] == 0:
            break
        c1 = rng.uniform(-1.0, 1.0, basis.shape[1])
        c2 = rng.uniform(-1.0, 1.0, basis.shape[1])
        x1 = Rv(tuple(basis @ c1))
        x2 = Rv(tuple(basis @ c2))
        if not has_no_mean_uncertainty(prior_set, x1):
            violations.append(f"trial {k}: generated X1 has mean uncertainty")
            continue
        if not has_no_mean_uncertainty(prior_set, x2):
            violations.append(f"trial {k}: generated X2 has mean uncertainty")
            continue
        l1, l2 = rng.uniform(-2.0, 2.0, 2)
        combo = Rv(tuple(l1 * x1.as_array() + l2 * x2.as_array()))
        if not has_no_mean_uncertainty(prior_set, combo):
            violations.append(f"trial {k}: combination lam1*X1+lam2*X2 broke closure")
    return AuditReport(trials=trials, violations=tuple(violations))
