"""Finite dynamical systems under an upper expectation, with exact audits.

A system is a self-map theta of {0, ..., n-1} together with a credal set of
priors.  The upper expectation is the support function of the prior hull and
the pushforward theta_* is linear, so the map preserves the upper expectation
iff theta_* maps the hull onto itself, that is iff theta_* permutes the
hull's vertices.  A decision that needs the vertices finds them for that
call and compares two small vertex arrays.  A generator that one coordinate
separates from the other generators by more than HULL_TOL is a vertex by
that coordinate alone (the hull of the others lies between their
coordinate-wise min and max), so only the generators this proof cannot
settle cost a hull-distance LP, and scipy is imported only for such an LP.

Each record lives on the object it describes and dies with it, so no audit
hashes a system or a map to find it, and the package keeps no cache.  A map
holds its orbits, built on first use by orbit_decomposition: each point's
cycle, which labels its grand orbit, and the cycles.  System generation
reads no orbit record: invariant_prior_set takes the largest preperiod from
the shrinking images theta^k(space) and pushes until an iterate repeats.  A
system holds its read-only prior matrix, built only by the routes that form
a product with it (slln_audit, maximal_ergodic_check and upper_capacity),
its preservation and ergodicity verdicts, settled on first use so that the
fixed-space and four-statement audits read rather than decide them again,
and two bitmasks read from the priors' weight tuples: its support, the
points some prior weighs above TOL_SIMPLEX, and the points some prior weighs
other than zero.  A preservation decision therefore builds no matrix.  An
event is polar iff it misses the support, so polar events form an ideal, and
every polarity verdict is a mask test; the system is ergodic iff its support
lies in one grand-orbit class, and its fixed space is simple under the same
condition, because the class indicators span it.  Only slln_audit reports
capacities, through sys.upper_capacity: max(P @ 1_A) on the event's boolean
mask, the product upper_exp forms on its indicator.  slln_audit's envelope
is one product pv = P @ x, lower = min(pv) and upper = max(pv); negation
commutes with round to nearest, so min(P @ x) equals -max(P @ -x), and both
ends equal lower_exp and upper_exp up to the sign of a zero.  A cycle's mean
is np.add.reduce of the payoff's values on the cycle over its length,
np.mean's own sum and division, so it is np.mean bit for bit.  The per-call
paths stay in plain Python where numpy's fixed cost per call would exceed
the work on a few entries: the cycle decomposition walks the image tuple,
probability vectors are validated on their tuple, generators and hull
vertices are pushed forward on their weight tuples (np.add.at's additions,
in its order), events are member tuples or subset bitmasks, the envelope's
ends are Python min and max of one product's entries, and the maximal check
and the four-statement audit walk the image tuple.  Maxima and sums call
np.maximum.reduce and np.add.reduce, the ufunc reduction that ndarray.max()
and .sum() reach through a Python wrapper.

On a finite space every orbit is preperiodic, so Birkhoff averages are exact
cycle means, monotone limits of sets are attained after finitely many steps,
and the classical equivalences between indecomposability, simplicity of the
fixed space of the composition operator, and the strong law of large numbers
can be checked exhaustively.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .credal import (
    TOL_DERIVED,
    TOL_SIMPLEX,
    ContractError,
    InputError,
    PriorSet,
    ProbVector,
    Rv,
    _count,
)

#: L-infinity tolerance for convex-hull membership decisions
HULL_TOL = 1e-10


@dataclass(frozen=True)
class FiniteMap:
    """A self-map of {0, ..., n-1} given by its image table of Python or numpy integers."""

    image: tuple[int, ...]

    def __post_init__(self):
        image = tuple(self.image)
        # int() would truncate 1.7 and read True or "1" as 1
        if not all(type(i) is int for i in image):
            if any(isinstance(i, bool) or not isinstance(i, (int, np.integer)) for i in image):
                raise InputError(f"map entries must be integers; got {list(image)!r}")
            image = tuple(int(i) for i in image)
        object.__setattr__(self, "image", image)
        n = len(image)
        if n == 0:
            raise InputError("map must act on a nonempty space")
        if any(j < 0 or j >= n for j in image):
            raise InputError("image entry outside 0..n-1")

    @property
    def n(self) -> int:
        return len(self.image)

    @cached_property
    def orbits(self) -> OrbitDecomposition:
        """The map's orbit record, built on first use and held for the map's lifetime."""
        return orbit_decomposition(self)


@dataclass(frozen=True)
class FiniteSystem:
    """Outcome-space size, credal prior set, and a self-map; what its audits share is settled on first use and held here."""

    n: int
    priors: PriorSet
    theta: FiniteMap

    def __post_init__(self):
        object.__setattr__(self, "n", _count("n", self.n))
        if self.n != self.priors.n or self.n != self.theta.n:
            raise InputError(
                f"dimension mismatch: n={self.n}, priors n={self.priors.n}, map n={self.theta.n}"
            )

    @cached_property
    def matrix(self) -> np.ndarray:
        """The prior matrix, one row per prior, read-only because every audit of the system shares it."""
        matrix = self.priors.matrix()
        matrix.flags.writeable = False
        return matrix

    def __getstate__(self):
        # an unpickled array is writeable, so the matrix is rebuilt read-only on first use instead
        return {k: v for k, v in self.__dict__.items() if k != "matrix"}

    @cached_property
    def preserving(self) -> bool:
        """Whether theta preserves the upper expectation, decided once per system."""
        return is_expectation_preserving(self)

    @cached_property
    def support(self) -> int:
        """Bitmask of the points some prior weighs above TOL_SIMPLEX; an event is polar iff it misses it."""
        columns = zip(*(p.weights for p in self.priors.priors))
        return sum(1 << i for i, column in enumerate(columns) if max(column) > TOL_SIMPLEX)

    @cached_property
    def _weighted(self) -> int:
        """Bitmask of the points some prior weighs other than zero."""
        columns = zip(*(p.weights for p in self.priors.priors))
        return sum(1 << i for i, column in enumerate(columns) if any(column))

    @cached_property
    def ergodic(self) -> bool:
        """Every invariant set is polar or co-polar, that is the support lies in one grand-orbit class.

        A ContractError unless theta preserves the upper expectation.
        """
        _require_preserving(self)
        support = self.support
        return len({c for i, c in enumerate(self.theta.orbits.cycle_index) if support >> i & 1}) <= 1

    def upper_capacity(self, members: tuple[int, ...]) -> float:
        """Upper capacity max(P @ 1_A) of the event with the given members.

        An event no prior weighs is 0.0 without the product, which is the
        product's own +0.0: each row weighs some non-member above zero.
        """
        if _misses(self._weighted, members):
            return 0.0
        mask = np.zeros(self.n, dtype=bool)
        mask[list(members)] = True
        return _upper_capacity(self.matrix, mask)


def _misses(points: int, members) -> bool:
    """Whether no member lies in the bitmask of points."""
    return not any(points >> i & 1 for i in members)


@dataclass(frozen=True)
class OrbitDecomposition:
    """The eventual cycle of every point of a finite map, and its cycles.

    Each component of the functional graph {i -- theta(i)} holds exactly one
    cycle, so the grand orbits are the points grouped by cycle: there are
    len(cycles) of them, cycle_index labels each point's, and a set B
    satisfies theta^{-1}(B) = B exactly when B is a union of them.
    """

    cycle_index: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]

    def cycle_means(self, vals: np.ndarray) -> list[float]:
        """Exact long-run orbit average of vals started from each point.

        A cycle's mean is np.add.reduce of its values over its length, the
        sum and the division np.mean makes, so it is np.mean bit for bit.
        """
        per_cycle = [float(np.add.reduce(vals[list(c)]) / len(c)) for c in self.cycles]
        return [per_cycle[c] for c in self.cycle_index]


def _cycle_points(img: tuple[int, ...]) -> tuple[set[int], int]:
    """The union of the cycles and the largest preperiod P.

    The images theta^k(space) shrink until theta permutes them, and that
    last image is the union of the cycles.  They shrink for exactly P steps:
    theta^(P-1) of a point of preperiod P still lies off the cycles.
    """
    nodes = set(img)
    steps = 0 if len(nodes) == len(img) else 1
    while (shrunk := {img[i] for i in nodes}) != nodes:
        nodes = shrunk
        steps += 1
    return nodes, steps


def orbit_decomposition(theta: FiniteMap) -> OrbitDecomposition:
    """Cycles numbered by least member, each listed from it, and the cycle of every point."""
    img = theta.image
    nodes, _ = _cycle_points(img)
    cycles: list[tuple[int, ...]] = []
    cycle_id_of_node: dict[int, int] = {}
    for z in sorted(nodes):
        if z in cycle_id_of_node:
            continue
        cyc = [z]
        cur = img[z]
        while cur != z:
            cyc.append(cur)
            cur = img[cur]
        for node in cyc:
            cycle_id_of_node[node] = len(cycles)
        cycles.append(tuple(cyc))
    cycle_index = []
    for i in range(theta.n):
        cur = i
        while cur not in nodes:
            cur = img[cur]
        cycle_index.append(cycle_id_of_node[cur])
    return OrbitDecomposition(tuple(cycle_index), tuple(cycles))


def _push_weights(image: tuple[int, ...], weights: tuple[float, ...] | list[float]) -> tuple[float, ...]:
    """Pushforward of one weight sequence: the additions np.add.at makes, in its index order, into zeros."""
    out = [0.0] * len(weights)
    for j, w in zip(image, weights):
        out[j] += w
    return tuple(out)


def hull_distance(points: np.ndarray, q: np.ndarray) -> float:
    """L-infinity distance from q to the convex hull of the given points.

    Solved as the LP  min t  s.t.  |P^T lam - q| <= t,  sum lam = 1,  lam >= 0.
    scipy is imported here, so it is loaded only when an LP is solved.
    """
    from scipy.optimize import linprog

    pts = np.atleast_2d(np.asarray(points, dtype=float))
    q = np.asarray(q, dtype=float)
    m, n = pts.shape
    c = np.zeros(m + 1)
    c[-1] = 1.0
    ones_col = -np.ones((n, 1))
    a_ub = np.vstack([np.hstack([pts.T, ones_col]), np.hstack([-pts.T, ones_col])])
    b_ub = np.concatenate([q, -q])
    a_eq = np.concatenate([np.ones(m), [0.0]])[None, :]
    res = linprog(c, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0], bounds=(0, None), method="highs")
    if not res.success:
        raise ContractError(f"hull-distance LP failed: {res.message}")
    return float(res.fun)


def hull_vertices(priors: PriorSet) -> np.ndarray:
    """The vertices of the prior hull, as an array of prior rows.

    Exact duplicate rows are dropped, the first occurrence kept: weight
    tuples compare equal across the sign of a zero, so each row keeps its
    input's own zeros.  Each remaining generator is then tested,
    in order, against the generators still kept and dropped if it lies within
    HULL_TOL of their hull, so of two near-duplicates one representative
    stays.  A generator g is kept without an LP when one coordinate separates
    it from the others o by more than HULL_TOL, g_j - max_o o_j > HULL_TOL or
    min_o o_j - g_j > HULL_TOL: every point q of their hull has
    min_o o_j <= q_j <= max_o o_j, so ||g - q||_inf > HULL_TOL.  Against a
    single other generator no separated coordinate means an L-infinity
    distance within HULL_TOL; only the generators of larger sets that this
    proof cannot settle need hull-distance LPs.
    """
    rows = np.asarray(list(dict.fromkeys(p.weights for p in priors.priors)))
    keep = list(range(len(rows)))
    for i in range(len(rows)):
        others = rows[[j for j in keep if j != i]]
        if len(others) == 0:
            continue
        gap = np.maximum(rows[i] - others.max(axis=0), others.min(axis=0) - rows[i])
        if np.any(gap > HULL_TOL):
            continue  # separated by one coordinate: a vertex
        if len(others) == 1 or hull_distance(others, rows[i]) <= HULL_TOL:
            keep.remove(i)
    return rows[keep]


def is_expectation_preserving(sys: FiniteSystem) -> bool:
    """Whether E[X o theta] = E[X] for every payoff X, decided exactly.

    The upper expectation is the support function of the prior hull, so
    preservation is hull equality: theta_*(hull) = hull.  The pushforward
    theta_* is linear, so it maps the hull onto the hull of the pushed
    vertices; an affine map of a polytope onto itself is a bijection of its
    affine hull and sends vertices to vertices.  Preservation therefore holds
    iff theta_* permutes the vertices: every pushed vertex lies within
    HULL_TOL (L-infinity) of a vertex, and every vertex within HULL_TOL of a
    pushed vertex.  When the pushed generators equal the generators as a set,
    the answer is yes without finding the vertices.

    First, the answer is no unless theta maps the support S, the points some
    prior weighs above TOL_SIMPLEX, one to one onto itself.  If theta_* maps
    the hull onto itself exactly, the pushed hull's support is theta(S), so
    theta(S) = S; a map of a finite set onto itself is one to one, so theta
    permutes S, and S is a union of whole cycles.  The vertex comparison
    allows each coordinate to move by HULL_TOL, more than TOL_SIMPLEX, so
    without this test theta could leave a support point that nothing maps
    onto, and the four statements of indecomposability_audit, which read S,
    could disagree.  With it each of them says that S is one cycle.
    """
    image, priors, support = sys.theta.image, sys.priors.priors, sys.support
    if sum(1 << j for j in {image[i] for i in range(sys.n) if support >> i & 1}) != support:
        return False
    if {_push_weights(image, p.weights) for p in priors} == {p.weights for p in priors}:
        return True
    vertices = hull_vertices(sys.priors)
    pushed = np.asarray([_push_weights(image, v) for v in vertices.tolist()])
    close = np.max(np.abs(pushed[:, None, :] - vertices[None, :, :]), axis=2) <= HULL_TOL
    return bool(close.any(axis=1).all() and close.any(axis=0).all())


def _upper_capacity(matrix: np.ndarray, mask: np.ndarray) -> float:
    """Upper capacity of the event with the given boolean mask."""
    return float(np.maximum.reduce(matrix @ mask.astype(float)))


def _require_preserving(sys: FiniteSystem) -> None:
    if not sys.preserving:
        raise ContractError("map does not preserve the upper expectation")


@dataclass(frozen=True)
class FixedSpaceReport:
    """Verdict on whether every theta-fixed payoff is constant quasi-surely."""

    dimension: int
    simple: bool
    ergodic: bool

    @property
    def consistent(self) -> bool:
        return self.simple == self.ergodic


def fixed_space_audit(sys: FiniteSystem) -> FixedSpaceReport:
    """Compare simplicity of the fixed space of f -> f o theta with ergodicity.

    The fixed space {f : f o theta = f} is spanned by the grand-orbit class
    indicators, so its dimension is the number of classes.  A fixed f is
    constant quasi-surely iff it takes one value on the system's support,
    the points some prior weighs above TOL_SIMPLEX, so every fixed f is iff
    the support meets at most one class: the system's ergodicity verdict,
    read rather than decided again.
    """
    _require_preserving(sys)
    return FixedSpaceReport(dimension=len(sys.theta.orbits.cycles), simple=sys.ergodic, ergodic=sys.ergodic)


@dataclass(frozen=True)
class SllnReport:
    """Exact strong-law check for one payoff on one finite system."""

    ergodic: bool
    lower: float
    upper: float
    cycle_means: tuple[float, ...]
    bad_members: tuple[int, ...]
    bad_capacity: float
    bounds_hold_qs: bool
    theta_fixed_qs: bool
    fixed_bad_members: tuple[int, ...]
    fixed_bad_capacity: float
    equality_holds_qs: bool | None

    @property
    def ok(self) -> bool:
        """No violation of what the theory guarantees for this system."""
        if not self.ergodic:
            return True
        if not self.bounds_hold_qs:
            return False
        if self.theta_fixed_qs and self.equality_holds_qs is False:
            return False
        return True


def slln_audit(sys: FiniteSystem, x: Rv) -> SllnReport:
    """Check the exact orbit averages against the expectation envelope.

    Computes the set of points whose cycle mean escapes
    [lower_exp(x), upper_exp(x)] and its upper capacity; on an ergodic system
    that set must be polar.  If x is theta-fixed off a polar set, additionally
    checks that the cycle mean equals upper_exp(x) off a polar set.

    Ergodicity is a property of the system, not of the payoff, so it is
    decided once per system and reused for every payoff.  The cycle means
    come from the orbit record the map holds.  The envelope is one
    product pv = P @ x with lower = min(pv) and upper = max(pv), taken in
    Python on its few entries: round to nearest is symmetric under
    negation, so min(P @ x) equals the -max(P @ -x) that lower_exp
    computes, and max(pv) equals upper_exp, up to the sign of a zero.  Each
    of the three events (escaping points, moved points, and, for a
    theta-fixed payoff, points whose mean misses upper) is polar iff it
    misses the system's support.  The two reported capacities come from
    sys.upper_capacity, bit for bit the product upper_exp forms on the
    event's indicator.
    """
    _require_preserving(sys)
    if x.n != sys.n:
        raise InputError("payoff dimension mismatch")
    vals = x.as_array()
    means = sys.theta.orbits.cycle_means(vals)
    pv = (sys.matrix @ vals).tolist()
    lo, hi = min(pv), max(pv)
    below, above = lo - TOL_DERIVED, hi + TOL_DERIVED
    bad_members = tuple(i for i, m in enumerate(means) if m < below or m > above)
    support = sys.support

    xv, img = x.values, sys.theta.image
    theta_fixed_qs = not any(abs(xv[img[i]] - xv[i]) > TOL_SIMPLEX for i in range(sys.n) if support >> i & 1)

    fixed_bad_members: tuple[int, ...] = ()
    fixed_bad_cap = 0.0
    equality: bool | None = None
    if theta_fixed_qs:
        fixed_bad_members = tuple(i for i, m in enumerate(means) if abs(m - hi) > 1e-9)
        fixed_bad_cap = sys.upper_capacity(fixed_bad_members)
        equality = _misses(support, fixed_bad_members)

    return SllnReport(
        ergodic=sys.ergodic,
        lower=lo,
        upper=hi,
        cycle_means=tuple(means),
        bad_members=bad_members,
        bad_capacity=sys.upper_capacity(bad_members),
        bounds_hold_qs=_misses(support, bad_members),
        theta_fixed_qs=theta_fixed_qs,
        fixed_bad_members=fixed_bad_members,
        fixed_bad_capacity=fixed_bad_cap,
        equality_holds_qs=equality,
    )


def maximal_ergodic_check(sys: FiniteSystem, xi: Rv, k: int) -> float:
    """Upper expectation of xi restricted to {max of the first k partial orbit sums > 0}.

    With S_0 = 0 and S_j = xi + xi o theta + ... + xi o theta^{j-1}, returns
    E[xi * 1_{max_{0<=j<=k} S_j > 0}], which is >= 0 for every
    expectation-preserving system (the caller warrants preservation).
    """
    k = _count("k", k)
    if xi.n != sys.n:
        raise InputError("payoff dimension mismatch")
    vals = xi.values
    img = sys.theta.image
    # each point's S_j in the order S_{j-1} + xi(theta^{j-1} x); only whether
    # some S_j > 0 enters the integrand, so the walk stops at the first one
    integrand = []
    for i, v in enumerate(vals):
        s, cur = 0.0, i
        for _ in range(k):
            s += vals[cur]
            if s > 0.0:
                integrand.append(v)
                break
            cur = img[cur]
        else:
            integrand.append(0.0)
    return float(np.maximum.reduce(sys.matrix @ np.asarray(integrand)))


# ---------------------------------------------------------------------------
# exhaustive four-statement audit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class IndecomposabilityReport:
    """Truth values of the four indecomposability statements on one system.

    statements = (ergodic, almost-invariant sets are trivial, preimages of any
    non-polar set sweep out the space, any two non-polar sets communicate).
    """

    statements: tuple[bool, bool, bool, bool]

    @property
    def consistent(self) -> bool:
        return len(set(self.statements)) == 1


def indecomposability_audit(sys: FiniteSystem) -> IndecomposabilityReport:
    """Evaluate the four equivalent forms of indecomposability, each by its own logic.

    (1) every invariant set is polar or co-polar: the system's ergodicity
        verdict, that its support lies in one grand orbit;
    (2) every almost-invariant set (preimage symmetric difference polar) is
        polar or co-polar, over all 2^n subsets;
    (3) for every non-polar A the complement of union over n >= 1 of
        theta^{-n} A is polar, computed by preimage fixpoint iteration;
    (4) for every pair of non-polar sets A, B some theta^{-k} A, k >= 1,
        meets B in a non-polar set.  b lies in theta^{-k} {a} iff
        theta^k(b) = a, so theta^k(b), k >= 1, is walked until a point
        repeats, which takes at most n steps.  The walk is periodic from
        there on, so it has then met every point it ever reaches: the set
        that a search up to the largest preperiod plus the lcm of the cycle
        lengths collects.

    Statements (3) and (4) are monotone in the quantified sets, so they are
    evaluated on the non-polar singletons; that is an elementary reduction,
    not an appeal to the equivalence being audited.  The statements are
    independent in logic, not in their notion of a null set: they share one
    polarity definition, an event missing the system's support.
    """
    _require_preserving(sys)
    n = sys.n
    if n > 12:
        raise InputError("enumeration budget exceeded: audit requires n <= 12")
    img = sys.theta.image
    full = (1 << n) - 1
    support = sys.support

    def non_polar(mask: int) -> bool:
        return bool(mask & support)

    def preimage(mask: int) -> int:
        return sum(1 << i for i, j in enumerate(img) if mask >> j & 1)

    s1 = sys.ergodic

    s2 = not any(not non_polar(preimage(a) ^ a) and non_polar(a) and non_polar(full ^ a) for a in range(full + 1))

    points = [a for a in range(n) if non_polar(1 << a)]

    s3 = True
    for a in points:
        u = preimage(1 << a)
        while (nxt := u | preimage(u)) != u:
            u = nxt
        if non_polar(full ^ u):
            s3 = False
            break

    s4 = True
    for b in points:
        # theta^k(b) for k >= 1, up to the first repeat
        reached, cur = set(), img[b]
        while cur not in reached:
            reached.add(cur)
            cur = img[cur]
        if not reached.issuperset(points):
            s4 = False
            break

    return IndecomposabilityReport(statements=(s1, s2, s3, s4))


# ---------------------------------------------------------------------------
# system generators for sweeps and randomized trials
# ---------------------------------------------------------------------------


def prior_catalog(n: int) -> list[PriorSet]:
    """Fixed prior-set catalog for exhaustive sweeps.

    Contains the full vertex set, the uniform singleton, each vertex
    singleton, and two-point mixtures (a, 1-a, 0, ...) with a in
    {1/4, 1/2, 3/4} both as singletons and as symmetric pairs; this covers
    ergodic, non-ergodic, degenerate and polar-class situations.
    """
    if n < 1:
        raise InputError("n must be >= 1")
    if n == 1:
        return [PriorSet((ProbVector((1.0,)),))]
    vertices = [ProbVector(tuple(1.0 if j == i else 0.0 for j in range(n))) for i in range(n)]
    uniform = ProbVector(tuple(1.0 / n for _ in range(n)))
    catalog: list[PriorSet] = [PriorSet(tuple(vertices)), PriorSet((uniform,))]
    catalog.extend(PriorSet((v,)) for v in vertices)
    for a in (0.25, 0.5, 0.75):
        w = ProbVector((a, 1.0 - a) + (0.0,) * (n - 2))
        rw = ProbVector((1.0 - a, a) + (0.0,) * (n - 2))
        catalog.append(PriorSet((w,)))
        if w.weights != rw.weights:
            catalog.append(PriorSet((w, rw)))
    seen: set[frozenset[tuple[float, ...]]] = set()
    unique = []
    for ps in catalog:
        key = frozenset(p.weights for p in ps.priors)
        if key not in seen:
            seen.add(key)
            unique.append(ps)
    return unique


def all_maps(n: int):
    """All n^n self-maps of {0, ..., n-1}."""
    for image in itertools.product(range(n), repeat=n):
        yield FiniteMap(image)


def enumerate_preserving_systems(n: int, catalog: list[PriorSet] | None = None):
    """Yield every expectation-preserving (map, prior-set) combination, each with its verdict recorded."""
    if catalog is None:
        catalog = prior_catalog(n)
    for theta in all_maps(n):
        for priors in catalog:
            sys = FiniteSystem(n, priors, theta)
            if sys.preserving:
                yield sys


def invariant_prior_set(theta: FiniteMap, seed_prior: ProbVector) -> PriorSet:
    """A prior set preserved by theta, grown from one seed prior.

    Pushes the seed once per step while the images theta^k(space) still
    shrink, that is P times for the largest preperiod P, and then until an
    iterate repeats; the distinct iterates, in order, are the prior set.
    From step P on every weight off the cycles is +0.0, so a push only moves
    whole masses between cycle points: each cycle point's sum adds one
    cycle weight to zeros, which is exact up to the sign of a zero, and
    equal tuples compare equal across that sign.  The iterates are then
    periodic, the first repeat closes the period, and theta permutes them
    cyclically, so their collection has theta-invariant convex hull.  No
    orbit record is built.
    """
    if theta.n != seed_prior.n:
        raise InputError("dimension mismatch between map and prior")
    img = theta.image
    _, steps = _cycle_points(img)
    weights = seed_prior.weights
    for _ in range(steps):
        weights = _push_weights(img, weights)
    seen = set()
    unique = []
    while weights not in seen:
        seen.add(weights)
        unique.append(ProbVector(weights))
        weights = _push_weights(img, weights)
    return PriorSet(tuple(unique))


def random_preserving_system(n: int, rng: np.random.Generator) -> FiniteSystem:
    """A random system that preserves its upper expectation by construction."""
    n = _count("n", n)
    theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
    raw = rng.uniform(0.0, 1.0, n) + 1e-3
    seed_prior = ProbVector(tuple((raw / np.add.reduce(raw)).tolist()))
    priors = invariant_prior_set(theta, seed_prior)
    return FiniteSystem(n, priors, theta)
