import functools
import gc
import importlib
import itertools
import math
import operator
import pickle
import pkgutil
import weakref
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import ergolab
from ergolab import finite
from ergolab.credal import (
    TOL_DERIVED,
    TOL_SIMPLEX,
    ContractError,
    EventSet,
    InputError,
    PriorSet,
    ProbVector,
    Rv,
    lower_exp,
    upper_exp,
)
from ergolab.finite import (
    HULL_TOL,
    FiniteMap,
    FixedSpaceReport,
    IndecomposabilityReport,
    SllnReport,
    FiniteSystem,
    all_maps,
    enumerate_preserving_systems,
    fixed_space_audit,
    hull_distance,
    hull_vertices,
    invariant_prior_set,
    is_expectation_preserving,
    maximal_ergodic_check,
    orbit_decomposition,
    prior_catalog,
    random_preserving_system,
    slln_audit,
    indecomposability_audit,
)

UNIFORM3 = PriorSet(((1 / 3, 1 / 3, 1 / 3),))
CYCLE3 = FiniteMap((1, 2, 0))


def maps(n_max=6):
    return st.integers(2, n_max).flatmap(
        lambda n: st.lists(st.integers(0, n - 1), min_size=n, max_size=n).map(FiniteMap)
    )


class TestPushforward:
    """The pushforward of one weight tuple, `_push_weights`, on closed forms."""

    def test_identity(self):
        assert finite._push_weights((0, 1), (0.3, 0.7)) == (0.3, 0.7)

    def test_swap(self):
        assert finite._push_weights((1, 0), (0.3, 0.7)) == (0.7, 0.3)

    def test_mass_collapse(self):
        assert finite._push_weights((0, 0), (0.3, 0.7)) == (1.0, 0.0)

    @given(maps(), st.data())
    @settings(max_examples=100, deadline=None)
    def test_output_is_prob_vector(self, theta, data):
        raw = data.draw(
            st.lists(st.floats(0.01, 1.0), min_size=theta.n, max_size=theta.n)
        )
        p = ProbVector(tuple(np.asarray(raw) / np.sum(raw)))
        out = ProbVector(finite._push_weights(theta.image, p.weights))
        assert abs(sum(out.weights) - 1.0) <= 1e-12


@pytest.fixture
def lp_calls(monkeypatch):
    """The point counts of every hull-distance LP the finite engine solves."""
    calls = []

    def counting(points, q):
        calls.append(len(points))
        return hull_distance(points, q)

    monkeypatch.setattr(finite, "hull_distance", counting)
    return calls


class TestExpectationPreserving:
    def test_swap_uniform(self):
        assert is_expectation_preserving(FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((1, 0))))

    def test_swap_asymmetric_single_prior_fails(self):
        sys_ = FiniteSystem(2, PriorSet(((0.3, 0.7),)), FiniteMap((1, 0)))
        assert not is_expectation_preserving(sys_)
        # direct witness: the payoff (0, 1) changes its upper expectation
        x = Rv((0.0, 1.0))
        composed = Rv((1.0, 0.0))  # x o swap
        assert upper_exp(sys_.priors, composed) != upper_exp(sys_.priors, x)

    def test_swap_symmetric_pair_preserves(self):
        sys_ = FiniteSystem(2, PriorSet(((0.3, 0.7), (0.7, 0.3))), FiniteMap((1, 0)))
        assert is_expectation_preserving(sys_)
        # brute force over the indicator basis
        for members in ((), (0,), (1,), (0, 1)):
            ind = EventSet(2, frozenset(members)).indicator()
            composed = Rv(tuple(np.asarray(ind.values)[[1, 0]]))
            assert upper_exp(sys_.priors, composed) == pytest.approx(
                upper_exp(sys_.priors, ind), abs=1e-12
            )

    def test_hull_distance_interior_point(self):
        pts = np.asarray([[1.0, 0.0], [0.0, 1.0]])
        assert hull_distance(pts, np.asarray([0.5, 0.5])) <= 1e-10
        assert hull_distance(pts, np.asarray([0.9, 0.1])) <= 1e-10

    def test_hull_distance_outside_point(self):
        pts = np.asarray([[0.3, 0.7]])
        assert hull_distance(pts, np.asarray([0.7, 0.3])) == pytest.approx(0.4, abs=1e-8)

    @given(maps(5), st.data())
    @settings(max_examples=50, deadline=None)
    def test_constructed_invariant_prior_sets_preserve(self, theta, data):
        raw = data.draw(st.lists(st.floats(0.01, 1.0), min_size=theta.n, max_size=theta.n))
        seed_prior = ProbVector(tuple(np.asarray(raw) / np.sum(raw)))
        priors = invariant_prior_set(theta, seed_prior)
        assert is_expectation_preserving(FiniteSystem(theta.n, priors, theta))

    def test_hull_vertices_standard_basis_keeps_every_row(self):
        basis = PriorSet(tuple(ProbVector(tuple(np.eye(3)[i])) for i in range(3)))
        np.testing.assert_array_equal(hull_vertices(basis), np.eye(3))

    def test_hull_vertices_drops_interior_generator(self):
        priors = PriorSet(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.5, 0.3, 0.2), (0.0, 0.0, 1.0)))
        np.testing.assert_array_equal(hull_vertices(priors), np.eye(3))

    def test_hull_vertices_collapses_exact_duplicates(self):
        priors = PriorSet(((0.3, 0.7), (0.3, 0.7), (0.3, 0.7)))
        np.testing.assert_array_equal(hull_vertices(priors), [[0.3, 0.7]])

    def test_hull_vertices_keeps_one_of_two_near_duplicates(self):
        priors = PriorSet(((0.3, 0.7), (0.3 + 1e-13, 0.7 - 1e-13)))
        assert hull_vertices(priors).shape == (1, 2)

    def test_hull_vertices_keep_each_inputs_signed_zeros(self):
        # the two sets compare equal, so neither call may return the other's zeros
        plain = PriorSet(((1.0, 0.0), (0.0, 1.0)))
        signed = PriorSet(((1.0, -0.0), (-0.0, 1.0)))
        assert plain == signed
        for first, second in ((plain, signed), (signed, plain)):
            hull_vertices(first)
            assert hull_vertices(second).tobytes() == second.matrix().tobytes()
        # of two duplicate rows the first is kept, with its own zero
        duplicates = PriorSet(((-0.0, 1.0), (0.0, 1.0)))
        assert hull_vertices(duplicates).tobytes() == duplicates.matrix()[:1].tobytes()

    def test_sweep_finds_vertices_with_no_lp(self, lp_calls):
        # the n = 3 and n = 4 vertex-set entries are standard bases: each
        # generator is separated from the others by one coordinate
        for n in (1, 2, 3, 4):
            catalog = prior_catalog(n)
            for theta in all_maps(n):
                for priors in catalog:
                    is_expectation_preserving(FiniteSystem(n, priors, theta))
        assert len(lp_calls) == 0


def two_sided_lp_reference(sys, memo=None):
    """Hull equality by two-sided hull-inclusion LPs: the preservation oracle.

    A row that is itself a generator of the other side lies in that side's
    hull at distance 0, so an LP is solved only for the rows of each side
    that the other side lacks.  The verdict reads only the generator rows and
    their pushes, in order, so a memo, if given, holds it under that pair.
    """
    orig = tuple(p.weights for p in sys.priors.priors)
    fwd = tuple(tuple(ref_push_row(sys.theta, p.as_array()).tolist()) for p in sys.priors.priors)
    if memo is not None and (orig, fwd) in memo:
        return memo[orig, fwd]
    verdict = all(
        hull_distance(np.asarray(hull), np.asarray(row)) <= HULL_TOL
        for hull, rows in ((orig, set(fwd) - set(orig)), (fwd, set(orig) - set(fwd)))
        for row in rows
    )
    if memo is not None:
        memo[orig, fwd] = verdict
    return verdict


def random_pair(rng):
    """A random prior set and map; half the sets are made theta-invariant.

    An invariant set is the union of the cycle parts of the pushforward orbits
    of random seeds plus a random convex combination of them.  That interior
    generator's image is in general not a generator, so the decision cannot
    take the identical-set shortcut.
    """
    n = int(rng.integers(2, 5))
    theta = FiniteMap(tuple(int(i) for i in rng.integers(0, n, n)))
    raw = rng.uniform(0.0, 1.0, (int(rng.integers(1, 4)), n)) + 1e-3
    rows = [tuple(r) for r in raw / raw.sum(axis=1, keepdims=True)]
    if rng.random() < 0.5:
        rows = [p.weights for r in rows for p in invariant_prior_set(theta, ProbVector(r)).priors]
        w = rng.uniform(0.1, 1.0, len(rows))
        rows.append(tuple(w @ np.asarray(rows) / w.sum()))
    return FiniteSystem(n, PriorSet(tuple(ProbVector(r) for r in rows)), theta)


def tiny_weight_system(rng):
    """A random map on 2-4 points under one or two priors, each weight log-uniform in [1e-13, 1e-9] with probability 1/2."""
    n = int(rng.integers(2, 5))
    theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
    rows = []
    for _ in range(int(rng.integers(1, 3))):
        w = np.where(rng.random(n) < 0.5, 10.0 ** rng.uniform(-13.0, -9.0, n), rng.uniform(0.0, 1.0, n))
        rows.append(ProbVector(tuple((w / w.sum()).tolist())))
    return FiniteSystem(n, PriorSet(tuple(rows)), theta)


class TestSupportPermutation:
    """A preserving map permutes the support, so the four statements agree on every system it accepts."""

    def test_transient_support_point_is_not_preserving(self):
        # theta leaves point 0, weighed 1e-11 > TOL_SIMPLEX, and maps nothing onto it; the pushed
        # prior (0, 1) is within HULL_TOL of the prior, so the vertex comparison alone accepts it
        sys_ = FiniteSystem(2, PriorSet(((1e-11, 0.99999999999),)), FiniteMap((1, 1)))
        assert sys_.support == 0b11
        assert not is_expectation_preserving(sys_)
        assert not sys_.preserving

    def test_tiny_weight_sweep_gives_consistent_statements(self):
        # 1,000 seeded draws (seed 20261); without the support rule 137 are accepted, and 17 of those are inconsistent
        rng = np.random.default_rng(20261)
        accepts = 0
        for _ in range(1000):
            sys_ = tiny_weight_system(rng)
            if is_expectation_preserving(sys_):
                assert indecomposability_audit(sys_).consistent, sys_
                accepts += 1
        assert accepts >= 100


class TestVertexPermutationDifferential:
    """The vertex-permutation criterion agrees with the two-sided LP route."""

    def test_full_sweep_n_le_4(self):
        pairs = 0
        memo = {}
        for n in (1, 2, 3, 4):
            catalog = prior_catalog(n)
            for theta in all_maps(n):
                for priors in catalog:
                    sys_ = FiniteSystem(n, priors, theta)
                    assert is_expectation_preserving(sys_) is two_sided_lp_reference(sys_, memo), sys_
                    pairs += 1
        assert pairs == 2832

    def test_random_preserving_systems(self):
        rng = np.random.default_rng(20171)
        sizes = set()
        for _ in range(1000):
            sys_ = random_preserving_system(int(rng.integers(1, 9)), rng)
            assert is_expectation_preserving(sys_) is two_sided_lp_reference(sys_) is True
            sizes.add(sys_.n)
        assert sizes == set(range(1, 9))

    def test_random_prior_sets_and_maps(self):
        rng = np.random.default_rng(20172)
        accepts = 0
        for _ in range(1000):
            sys_ = random_pair(rng)
            verdict = is_expectation_preserving(sys_)
            assert verdict is two_sided_lp_reference(sys_), sys_
            accepts += verdict
        assert accepts >= 300

    def test_interior_generator_under_every_map(self):
        priors = PriorSet(((1.0, 0.0, 0.0), (0.0, 1.0, 0.0), (0.0, 0.0, 1.0), (0.5, 0.3, 0.2)))
        accepts = 0
        for theta in all_maps(3):
            sys_ = FiniteSystem(3, priors, theta)
            verdict = is_expectation_preserving(sys_)
            assert verdict is two_sided_lp_reference(sys_), theta
            accepts += verdict
        assert accepts == 6  # exactly the permutations


def ref_hull_vertices(priors: PriorSet) -> np.ndarray:
    """The hull's vertices by LPs alone: a generator goes when it lies within HULL_TOL of the generators still kept."""
    rows = priors.matrix()
    _, first = np.unique(rows, axis=0, return_index=True)
    rows = rows[np.sort(first)]
    keep = list(range(len(rows)))
    for i in range(len(rows)):
        others = rows[[j for j in keep if j != i]]
        if len(others) == 0:
            continue
        if len(others) == 1:
            dist = float(np.max(np.abs(others[0] - rows[i])))
        else:
            dist = hull_distance(others, rows[i])
        if dist <= HULL_TOL:
            keep.remove(i)
    return rows[keep]


class TestHullVerticesDifferential:
    """The separation proof keeps exactly the vertices the LP-only route keeps."""

    def test_every_catalog_entry_n_le_6(self):
        entries = 0
        for n in range(1, 7):
            for priors in prior_catalog(n):
                assert np.array_equal(hull_vertices(priors), ref_hull_vertices(priors)), priors
                entries += 1
        assert entries == 50

    def test_random_prior_sets(self, lp_calls):
        rng = np.random.default_rng(20173)
        for _ in range(1000):
            priors = random_pair(rng).priors
            assert np.array_equal(hull_vertices(priors), ref_hull_vertices(priors)), priors
        # interior generators still need an LP, so the proof cannot be vacuous
        assert 0 < len(lp_calls)


def package_caches():
    """Every attribute of every ergolab module that has cache_info, by qualified name."""
    found = {}
    for info in pkgutil.iter_modules(ergolab.__path__, "ergolab."):
        if info.name == "ergolab.__main__":
            continue
        module = importlib.import_module(info.name)
        for attr, value in vars(module).items():
            if hasattr(value, "cache_info"):
                found[f"{value.__module__}.{value.__qualname__}"] = value
    return found


# ---------------------------------------------------------------------------
# Definitional oracles: each finite quantity computed from its definition.
# They read the map's image tuple and the priors' weights, and reach the
# priors only through credal's upper_exp, lower_exp and EventSet, never
# through finite's orbit record, support or capacity routes.  Subsets of
# {0, ..., n-1} are bitmasks.
# ---------------------------------------------------------------------------


def ref_push_rows(theta: FiniteMap, rows: np.ndarray) -> np.ndarray:
    """Pushforward of every row of a prior matrix, by one scatter-add."""
    out = np.zeros_like(rows)
    np.add.at(out, (slice(None), np.asarray(theta.image, dtype=np.intp)), rows)
    return out


def ref_push_row(theta: FiniteMap, row: np.ndarray) -> np.ndarray:
    """One pushforward by the scatter-add of ref_push_rows, for a single row."""
    return ref_push_rows(theta, row[None, :])[0]


class Orbits(NamedTuple):
    """The orbits as the oracle finds them: each point's preperiod and cycle, the cycles, and grand-orbit labels."""

    preperiod: tuple[int, ...]
    cycle_index: tuple[int, ...]
    cycles: tuple[tuple[int, ...], ...]
    class_of: tuple[int, ...]


def oracle_orbits(theta: FiniteMap) -> Orbits:
    """Orbits found by iterating theta.

    A point lies on a cycle iff theta^k returns to it for some 1 <= k <= n,
    and its preperiod is the least k that takes it onto a cycle.  Cycles
    are listed from their least member and numbered by it.  theta^n maps
    every point onto its eventual cycle, so two points share a grand orbit
    iff their theta^n images lie on one cycle; grand orbits are numbered by
    their least member.
    """
    img, n = theta.image, theta.n
    walks = []
    for i in range(n):
        walk = [i]
        for _ in range(n):
            walk.append(img[walk[-1]])
        walks.append(walk)
    on_cycle = [i in walk[1:] for i, walk in enumerate(walks)]
    cycles: list[tuple[int, ...]] = []
    for z in range(n):
        if on_cycle[z] and not any(z in c for c in cycles):
            cycle = [z]
            while img[cycle[-1]] != z:
                cycle.append(img[cycle[-1]])
            cycles.append(tuple(cycle))
    cycle_of = {z: c for c, cycle in enumerate(cycles) for z in cycle}
    preperiod = tuple(next(k for k, j in enumerate(walk) if on_cycle[j]) for walk in walks)
    cycle_index = tuple(cycle_of[walk[n]] for walk in walks)
    least: dict[int, int] = {}
    for i, c in enumerate(cycle_index):
        least.setdefault(c, i)
    ranked = sorted(least, key=least.get)
    class_of = tuple(ranked.index(c) for c in cycle_index)
    return Orbits(preperiod, cycle_index, tuple(cycles), class_of)


def oracle_cycle_means(theta: FiniteMap, vals: np.ndarray) -> np.ndarray:
    """The Birkhoff mean from each point, the np.mean of x over one period of its eventual cycle.

    Past the preperiod the orbit repeats with the cycle's period, so the
    averages converge to the mean over one period; it is taken from the
    cycle's least member, the summation order the reports pin.
    """
    orbits = oracle_orbits(theta)
    per_cycle = [np.mean(vals[list(cycle)]) for cycle in orbits.cycles]
    return np.asarray([per_cycle[c] for c in orbits.cycle_index])


def preimage(theta: FiniteMap, mask: int) -> int:
    """theta^{-1} of a subset."""
    return sum(1 << i for i, j in enumerate(theta.image) if mask >> j & 1)


def heavy(sys_: FiniteSystem) -> int:
    """The points some prior weighs above TOL_SIMPLEX: a set is polar iff it holds none of them."""
    return sum(1 << i for i in range(sys_.n) if any(p.weights[i] > TOL_SIMPLEX for p in sys_.priors.priors))


def oracle_invariant_sets(sys_: FiniteSystem) -> list[int]:
    """Every B with theta^{-1}(B) = B among all 2^n subsets, ascending."""
    return [b for b in range(1 << sys_.n) if preimage(sys_.theta, b) == b]


def literal_ergodicity(sys_: FiniteSystem) -> bool:
    """Every B with theta^{-1}(B) = B, found among all 2^n subsets, is polar or co-polar.

    A set is polar when no prior weighs any of its members above TOL_SIMPLEX.
    """
    full, weighed = (1 << sys_.n) - 1, heavy(sys_)
    return not any(b & weighed and (full ^ b) & weighed for b in oracle_invariant_sets(sys_))


def fixed_space_oracle(sys_: FiniteSystem) -> FixedSpaceReport:
    """The fixed space's dimension, the number of minimal nonempty invariant sets, and its simplicity.

    The space is simple when every theta-fixed 0/1 function f is constant
    off a polar set, that is {f = 1} or {f = 0} is polar.
    """
    n, img = sys_.n, sys_.theta.image
    full, weighed = (1 << n) - 1, heavy(sys_)
    inv = [b for b in oracle_invariant_sets(sys_) if b]
    minimal = [b for b in inv if not any(c != b and c & b == c for c in inv)]
    fixed = [f for f in range(full + 1) if all(f >> img[i] & 1 == f >> i & 1 for i in range(n))]
    simple = not any(f & weighed and (full ^ f) & weighed for f in fixed)
    return FixedSpaceReport(dimension=len(minimal), simple=simple, ergodic=literal_ergodicity(sys_))


def slln_oracle(sys_: FiniteSystem, x: Rv) -> SllnReport:
    """The strong-law report from its definitions: Birkhoff means, the expectation envelope, capacities and polarity."""
    n, priors, xv, img = sys_.n, sys_.priors, x.values, sys_.theta.image
    means = oracle_cycle_means(sys_.theta, x.as_array()).tolist()
    lo, hi = lower_exp(priors, x), upper_exp(priors, x)
    weighed = heavy(sys_)

    def capacity(members):
        return upper_exp(priors, EventSet(n, frozenset(members)).indicator())

    def polar(members):
        return not any(weighed >> i & 1 for i in members)

    bad = tuple(i for i, m in enumerate(means) if m < lo - TOL_DERIVED or m > hi + TOL_DERIVED)
    theta_fixed_qs = polar(i for i in range(n) if abs(xv[img[i]] - xv[i]) > TOL_SIMPLEX)
    fixed_bad, fixed_bad_capacity, equality = (), 0.0, None
    if theta_fixed_qs:
        fixed_bad = tuple(i for i, m in enumerate(means) if abs(m - hi) > 1e-9)
        fixed_bad_capacity, equality = capacity(fixed_bad), polar(fixed_bad)
    return SllnReport(
        ergodic=literal_ergodicity(sys_),
        lower=lo,
        upper=hi,
        cycle_means=tuple(means),
        bad_members=bad,
        bad_capacity=capacity(bad),
        bounds_hold_qs=polar(bad),
        theta_fixed_qs=theta_fixed_qs,
        fixed_bad_members=fixed_bad,
        fixed_bad_capacity=fixed_bad_capacity,
        equality_holds_qs=equality,
    )


def maximal_oracle(sys_: FiniteSystem, xi: Rv, k: int) -> float:
    """E[xi * 1{max_{0<=j<=k} S_j > 0}] through upper_exp, with S_0 = 0 and S_j = S_{j-1} + xi(theta^{j-1} w) in orbit order."""
    vals, img = xi.values, sys_.theta.image
    integrand = []
    for i in range(sys_.n):
        sums, cur = [0.0], i
        for _ in range(k):
            sums.append(sums[-1] + vals[cur])
            cur = img[cur]
        integrand.append(vals[i] if max(sums) > 0.0 else 0.0)
    return upper_exp(sys_.priors, Rv(tuple(integrand)))


#: largest n on which four_statements_oracle quantifies over every pair of subsets
LITERAL_PAIRS_MAX_N = 6


def four_statements_oracle(sys_: FiniteSystem) -> IndecomposabilityReport:
    """The four indecomposability statements by their literal quantifiers.

    (1) every invariant set is polar or co-polar; (2) so is every set whose
    preimage differs from it by a polar set; (3) for every non-polar A the
    complement of the union of theta^{-m}A, m >= 1, is polar; (4) for every
    pair of non-polar A and B some theta^{-m}A, m >= 1, meets B in a
    non-polar set.  Each theta^{-m}A follows from the one before, so the
    sequence is followed until it repeats.  Past LITERAL_PAIRS_MAX_N points
    the pair quantifier is too costly and each statement is the literal
    ergodicity verdict, which the audited theorem says it equals.
    """
    if sys_.n > LITERAL_PAIRS_MAX_N:
        return IndecomposabilityReport(statements=(literal_ergodicity(sys_),) * 4)
    full, weighed = (1 << sys_.n) - 1, heavy(sys_)

    def trivial(b):
        return not (b & weighed and (full ^ b) & weighed)

    def preimages(a):
        seen, cur = [], preimage(sys_.theta, a)
        while cur not in seen:
            seen.append(cur)
            cur = preimage(sys_.theta, cur)
        return seen

    subsets = range(full + 1)
    non_polar = [a for a in subsets if a & weighed]
    sweeps = {a: preimages(a) for a in non_polar}
    statements = (
        literal_ergodicity(sys_),
        all(trivial(b) for b in subsets if not (preimage(sys_.theta, b) ^ b) & weighed),
        all(not (full ^ functools.reduce(operator.or_, sweeps[a])) & weighed for a in non_polar),
        all(any(p & b & weighed for p in sweeps[a]) for a in non_polar for b in non_polar),
    )
    return IndecomposabilityReport(statements=statements)


def oracle_invariant_prior_rows(theta: FiniteMap, p: np.ndarray) -> np.ndarray:
    """The distinct pushes theta_*^{rho+j} p for j < lcm of the cycle lengths, each pushed by np.add.at."""
    orbits = oracle_orbits(theta)
    row = p
    for _ in range(max(orbits.preperiod)):
        row = ref_push_row(theta, row)
    rows: list[np.ndarray] = []
    for _ in range(math.lcm(*map(len, orbits.cycles))):
        if not any(np.array_equal(row, r) for r in rows):
            rows.append(row)
        row = ref_push_row(theta, row)
    return np.asarray(rows)


def oracle_random_system(n: int, rng: np.random.Generator) -> FiniteSystem:
    """One integers(0, n, n) draw for the map, one uniform(0, 1, n) draw for the seed prior, and its invariant prior set."""
    theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
    raw = rng.uniform(0.0, 1.0, n) + 1e-3
    rows = oracle_invariant_prior_rows(theta, raw / raw.sum())
    return FiniteSystem(n, PriorSet(tuple(ProbVector(tuple(r.tolist())) for r in rows)), theta)


def preserving_n_le_4():
    """Every preserving system of the prior catalogs with n <= 4: 470 systems."""
    for n in (1, 2, 3, 4):
        yield from enumerate_preserving_systems(n)


def random_preserving_inputs(seed):
    """500 seeded random_preserving_system draws with n in 1..8, then the preserving ones among 300 random_pair sets."""
    rng = np.random.default_rng(seed)
    for _ in range(500):
        yield random_preserving_system(int(rng.integers(1, 9)), rng)
    for _ in range(300):
        sys_ = random_pair(rng)
        if sys_.preserving:
            yield sys_


def class_constant_payoff(rng, theta):
    """A theta-fixed payoff: one random value per grand orbit."""
    class_of = oracle_orbits(theta).class_of
    labels = rng.uniform(-1.0, 1.0, max(class_of) + 1).tolist()
    return Rv(tuple(labels[c] for c in class_of))


class TestSystemReportDifferential:
    """Per-system verdicts and reports equal the ergodicity, fixed-space and strong-law oracles, under ==."""

    @staticmethod
    def payoffs(sys_, rng, count=3):
        """Seeded random payoffs plus one theta-fixed (grand-orbit-class-constant) payoff."""
        rows = [Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n))) for _ in range(count)]
        return rows + [class_constant_payoff(rng, sys_.theta)]

    def assert_same(self, sys_, rng, tally):
        # decided cold, then read warm after the payoff audits
        ergodic = sys_.ergodic
        assert ergodic == literal_ergodicity(sys_), sys_
        assert fixed_space_audit(sys_) == fixed_space_oracle(sys_), sys_
        for x in self.payoffs(sys_, rng):
            rep = slln_audit(sys_, x)
            assert rep == slln_oracle(sys_, x), (sys_, x)
            tally["equality_checked"] += rep.equality_holds_qs is not None
        assert sys_.ergodic == ergodic
        tally["ergodic"] += ergodic
        tally["systems"] += 1

    def test_every_preserving_system_n_le_4(self):
        rng = np.random.default_rng(20181)
        tally = {"systems": 0, "ergodic": 0, "equality_checked": 0}
        for sys_ in preserving_n_le_4():
            self.assert_same(sys_, rng, tally)
        assert tally["systems"] == 470
        assert 0 < tally["ergodic"] < tally["systems"]
        assert tally["equality_checked"] >= tally["systems"]

    def test_random_preserving_systems(self):
        rng = np.random.default_rng(20182)
        tally = {"systems": 0, "ergodic": 0, "equality_checked": 0}
        for sys_ in random_preserving_inputs(20183):
            self.assert_same(sys_, rng, tally)
        assert 0 < tally["ergodic"] < tally["systems"]
        assert tally["systems"] > 600


class TestOrbitTableDifferential:
    """Grand orbits and the four-statement audit equal their oracles, under ==."""

    @staticmethod
    def assert_same(sys_, tally):
        report = indecomposability_audit(sys_)
        assert report == four_statements_oracle(sys_), sys_
        tally["systems"] += 1
        tally["indecomposable"] += all(report.statements)

    def test_every_preserving_system_n_le_4(self):
        tally = {"systems": 0, "indecomposable": 0}
        for sys_ in preserving_n_le_4():
            self.assert_same(sys_, tally)
        assert tally["systems"] == 470
        assert 0 < tally["indecomposable"] < tally["systems"]

    def test_random_preserving_systems(self):
        tally = {"systems": 0, "indecomposable": 0}
        for sys_ in random_preserving_inputs(20192):
            self.assert_same(sys_, tally)
        assert 0 < tally["indecomposable"] < tally["systems"]
        assert tally["systems"] > 600

    def test_four_statement_audit_at_its_size_guard(self):
        # n = 9-12, up to the audit's n <= 12 guard
        rng = np.random.default_rng(20194)
        systems = [random_preserving_system(int(rng.integers(9, 13)), rng) for _ in range(40)]
        # the 12-cycle, two 6-cycles, and coprime cycles whose lengths have lcm 35 and 60
        systems += [uniform_cycles(12), uniform_cycles(6, 6), uniform_cycles(5, 7), uniform_cycles(3, 4, 5)]
        indecomposable = 0
        for sys_ in systems:
            report = indecomposability_audit(sys_)
            assert report == four_statements_oracle(sys_), sys_
            indecomposable += all(report.statements)
        assert {sys_.n for sys_ in systems} == {9, 10, 11, 12}
        assert 0 < indecomposable < len(systems)


def random_cycle_system(rng, max_cycles=6, on_cycles=None, n_max=24):
    """A system on n <= n_max points with up to max_cycles cycles, of lengths up to n_max.

    on_cycles, if given, fixes how many points lie on cycles.

    The prior is uniform on the cycle points: theta_* moves each cycle point's
    mass to the next one and the tree points carry none, so it is preserved.
    """
    n = int(rng.integers(max(2, on_cycles or 0), n_max + 1))
    if on_cycles is None:
        on_cycles = int(rng.integers(1, n + 1))
    n_cuts = min(max_cycles, on_cycles) - 1
    cuts = sorted(rng.choice(np.arange(1, on_cycles), n_cuts, replace=False).tolist())
    image = [0] * n
    for start, stop in zip([0] + cuts, cuts + [on_cycles]):
        for i in range(start, stop):
            image[i] = i + 1 if i + 1 < stop else start
    for i in range(on_cycles, n):
        image[i] = int(rng.integers(0, i))
    perm = rng.permutation(n)  # perm[i] is the new label of point i
    theta = FiniteMap(tuple(int(perm[image[i]]) for i in np.argsort(perm)))
    weights = np.zeros(n)
    weights[perm[:on_cycles]] = 1.0 / on_cycles
    return FiniteSystem(n, PriorSet((ProbVector(tuple(weights)),)), theta)


def decomposition(theta: FiniteMap) -> tuple:
    dec = orbit_decomposition(theta)
    return dec.cycle_index, dec.cycles


def oracle_decomposition(theta: FiniteMap) -> tuple:
    """The oracle's cycle of every point, and its cycles."""
    orbits = oracle_orbits(theta)
    return orbits.cycle_index, orbits.cycles


def uniform_cycles(*lengths: int) -> FiniteSystem:
    """Consecutive cycles of the given lengths, each point mapped to the next on its cycle, under the uniform prior."""
    image: list[int] = []
    for length in lengths:
        start = len(image)
        image += [start + (i + 1) % length for i in range(length)]
    n = len(image)
    return FiniteSystem(n, PriorSet((ProbVector(tuple(1 / n for _ in range(n))),)), FiniteMap(tuple(image)))


class TestOrbitRecordDifferential:
    """The orbit record and the cycle means equal the orbit oracle and np.mean, byte for byte."""

    def test_orbit_decomposition_every_map_n_le_6(self):
        count = 0
        for n in range(1, 7):
            for theta in all_maps(n):
                assert decomposition(theta) == oracle_decomposition(theta), theta
                count += 1
        assert count == 50069

    def test_orbit_decomposition_random_maps(self):
        rng = np.random.default_rng(20211)
        for _ in range(300):
            n = int(rng.integers(7, 40))
            theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
            assert decomposition(theta) == oracle_decomposition(theta), theta

    def test_cycle_means_match_np_mean(self):
        rng = np.random.default_rng(20213)

        def systems():
            # first one cycle of each length 1..24, then random systems
            for k in range(600):
                if k < 24:
                    yield random_cycle_system(rng, max_cycles=1, on_cycles=k + 1)
                else:
                    yield random_cycle_system(rng, max_cycles=1 + k % 6)
            # identity maps up to n = 24, then maps of coprime cycles
            for n in range(1, 25):
                yield uniform_cycles(*(1,) * n)
            yield uniform_cycles(5, 7)
            yield uniform_cycles(3, 4, 5)

        lengths = set()
        for sys_ in systems():
            lengths.update(len(c) for c in oracle_orbits(sys_.theta).cycles)
            for _ in range(3):
                x = Rv(tuple(rng.standard_normal(sys_.n) * 10.0 ** rng.uniform(-6, 6, sys_.n)))
                got = np.asarray(slln_audit(sys_, x).cycle_means)
                assert got.tobytes() == oracle_cycle_means(sys_.theta, x.as_array()).tobytes(), (sys_.theta, x)
        # lengths from 8 on take numpy's pairwise sum
        assert set(range(1, 25)) <= lengths


def cancelling_payoff(rng, n):
    """Dyadic values with signed zeros, so that partial orbit sums often cancel to exactly 0.0."""
    return Rv(tuple(rng.choice([-1.0, -0.5, -0.25, -0.0, 0.0, 0.25, 0.5, 1.0], n).tolist()))


def hits_exact_zero(sys_: FiniteSystem, xi: Rv, k: int) -> bool:
    """Whether some point's partial sums reach exactly 0.0 and never exceed it within k steps."""
    for i in range(sys_.n):
        s, cur, sums = 0.0, i, []
        for _ in range(k):
            s += xi.values[cur]
            sums.append(s)
            cur = sys_.theta.image[cur]
        if max(sums) == 0.0:
            return True
    return False


class TestPushAndWalkDifferential:
    """The tuple pushes match np.add.at byte for byte, and the per-point maximal walk equals its oracle."""

    def test_tuple_push_matches_add_at(self):
        rng = np.random.default_rng(20231)
        subnormal = np.finfo(float).smallest_subnormal
        tally = {"subnormal": 0, "negative_zero_in": 0}
        for _ in range(2000):
            n = int(rng.integers(1, 10))
            theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
            row = rng.uniform(-1e-13, 1.0, n) * 10.0 ** rng.integers(-8, 3, n)
            pick = rng.uniform(size=n)
            row[pick < 0.15] = -0.0
            row[(0.15 <= pick) & (pick < 0.3)] = -1e-13
            tiny = pick >= 0.8
            row[tiny] = subnormal * rng.integers(-1000, 1000, int(tiny.sum()))
            got = np.asarray(finite._push_weights(theta.image, tuple(row.tolist())))
            assert got.tobytes() == ref_push_row(theta, row).tobytes(), (theta, row)
            tally["subnormal"] += bool(np.any((got != 0.0) & (np.abs(got) < np.finfo(float).tiny)))
            tally["negative_zero_in"] += bool(np.any(np.signbit(row) & (row == 0.0)))
            raw = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 1, n)
            p = ProbVector(tuple(raw / raw.sum()))
            got = np.asarray(finite._push_weights(theta.image, p.weights))
            assert got.tobytes() == ref_push_row(theta, p.as_array()).tobytes(), (theta, p)
        assert tally["subnormal"] >= 100 and tally["negative_zero_in"] >= 500

    def test_maximal_walk_every_preserving_system_n_le_4(self):
        rng = np.random.default_rng(20233)
        systems = 0
        for sys_ in preserving_n_le_4():
            n = sys_.n
            for k in range(1, 9):
                for xi in (Rv(tuple(rng.uniform(-1.0, 1.0, n))), cancelling_payoff(rng, n)):
                    assert maximal_ergodic_check(sys_, xi, k) == maximal_oracle(sys_, xi, k), (sys_, xi, k)
            systems += 1
        assert systems == 470

    def test_maximal_walk_random_systems(self):
        rng = np.random.default_rng(20234)
        exact_zero = 0
        draws = (random_preserving_system(int(rng.integers(1, 9)), rng) for _ in range(1500))
        pairs = (sys_ for sys_ in (random_pair(rng) for _ in range(300)) if sys_.preserving)
        for trial, sys_ in enumerate(itertools.chain(draws, pairs)):
            n = sys_.n
            k = int(rng.integers(1, 9))
            if trial % 3:
                xi = cancelling_payoff(rng, n)
            else:
                xi = Rv(tuple((rng.uniform(-1.0, 1.0, n) * 10.0 ** rng.integers(-300, 308, n)).tolist()))
            exact_zero += hits_exact_zero(sys_, xi, k)
            assert maximal_ergodic_check(sys_, xi, k) == maximal_oracle(sys_, xi, k), (sys_, xi, k)
        assert exact_zero >= 300


class TestRandomDraws:
    """random_preserving_system and invariant_prior_set equal the random-draw oracle, byte for byte."""

    def test_every_size_draws_once_from_a_fresh_generator(self):
        rng = np.random.default_rng(20182)
        sizes = set()
        for _ in range(500):
            n = int(rng.integers(1, 9))
            seed = int(rng.integers(0, 2**32))
            new_rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
            sys_, ref = random_preserving_system(n, new_rng), oracle_random_system(n, ref_rng)
            assert sys_ == ref
            assert sys_.priors.matrix().tobytes() == ref.priors.matrix().tobytes()
            assert new_rng.bit_generator.state == ref_rng.bit_generator.state
            sizes.add(n)
        assert sizes == set(range(1, 9))

    def test_invariant_prior_set_is_the_distinct_pushes(self):
        rng = np.random.default_rng(20212)
        for _ in range(500):
            n = int(rng.integers(1, 10))
            theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
            raw = rng.uniform(0.0, 1.0, n) * 10.0 ** rng.integers(-8, 1, n) + 1e-3
            seed = ProbVector(tuple(raw / raw.sum()))
            got = invariant_prior_set(theta, seed).matrix()
            assert got.tobytes() == oracle_invariant_prior_rows(theta, seed.as_array()).tobytes(), (theta, seed)
        # seeds with zero weights of either sign; 603 of them weigh no point of largest preperiod P,
        # so their pushes turn periodic before step P, and the prior order rests on pushing P times
        rng = np.random.default_rng(20271)
        early = 0
        for _ in range(1500):
            n = int(rng.integers(1, 10))
            theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
            preperiod = oracle_orbits(theta).preperiod
            deepest = max(preperiod)
            allowed = [i for i in range(n) if deepest == 0 or preperiod[i] < deepest or rng.random() < 2 / 3]
            raw = np.zeros(n)
            raw[allowed] = rng.uniform(0.0, 1.0, len(allowed)) * 10.0 ** rng.integers(-8, 1, len(allowed))
            raw[allowed] *= rng.random(len(allowed)) < 0.5
            raw[allowed[int(rng.integers(0, len(allowed)))]] += 1.0
            weights = [-0.0 if w == 0.0 and rng.random() < 0.5 else w for w in (raw / raw.sum()).tolist()]
            seed = ProbVector(tuple(weights))
            got = invariant_prior_set(theta, seed).matrix()
            assert got.tobytes() == oracle_invariant_prior_rows(theta, seed.as_array()).tobytes(), (theta, seed)
            early += deepest > 0 and not any(w for w, k in zip(weights, preperiod) if k == deepest)
        assert early >= 500


def subsets(n):
    """(ascending members, boolean mask) of every subset of {0, ..., n-1}."""
    for bits in range(1 << n):
        members = tuple(i for i in range(n) if bits >> i & 1)
        mask = np.zeros(n, dtype=bool)
        mask[list(members)] = True
        yield members, mask


def float_bytes(value: float) -> bytes:
    return np.float64(value).tobytes()


def capacity_test_systems():
    """Every preserving system with n <= 4, seeded random preserving systems with n <= 8, and random_pair sets."""
    yield from preserving_n_le_4()
    rng = np.random.default_rng(20241)
    for _ in range(500):
        yield random_preserving_system(int(rng.integers(1, 9)), rng)
    for _ in range(300):
        yield random_pair(rng)


def envelope_payoffs(rng, n):
    """A uniform payoff, a dyadic one with signed zeros, and the all-zero payoffs of either sign."""
    return [
        Rv(tuple(rng.uniform(-1.0, 1.0, n))),
        cancelling_payoff(rng, n),
        Rv((0.0,) * n),
        Rv((-0.0,) * n),
        Rv(tuple(rng.choice([-0.0, 0.0], n).tolist())),
    ]


class TestCapacityEnvelopeDifferential:
    """sys.upper_capacity and slln_audit's one-product envelope match the per-mask product, upper_exp and lower_exp."""

    def test_every_subset_matches_the_per_mask_product(self):
        kinds = {"preserving": 0, "not_preserving": 0}
        for sys_ in capacity_test_systems():
            kinds["preserving" if sys_.preserving else "not_preserving"] += 1
            for members, mask in subsets(sys_.n):
                got = sys_.upper_capacity(members)
                assert float_bytes(got) == float_bytes(finite._upper_capacity(sys_.matrix, mask)), (sys_, members)
                indicator = EventSet(sys_.n, frozenset(members)).indicator()
                assert float_bytes(got) == float_bytes(upper_exp(sys_.priors, indicator)), (sys_, members)
        assert kinds["preserving"] > 970 and kinds["not_preserving"] > 0

    def test_one_product_envelope_matches_two_products(self):
        rng = np.random.default_rng(20242)
        tally = {"reports": 0, "zero_sign_differs": 0}
        for sys_ in capacity_test_systems():
            matrix = sys_.matrix
            for x in envelope_payoffs(rng, sys_.n):
                v = x.as_array()
                pv = (matrix @ v).tolist()
                ends = (min(pv), max(pv))
                ref_ends = (-float(np.max(matrix @ -v)), float(np.max(matrix @ v)))
                assert ends == ref_ends, (sys_, x)
                # the only difference allowed is the sign of a zero
                for end, ref in zip(ends, ref_ends):
                    if float_bytes(end) != float_bytes(ref):
                        assert end == 0.0, (sys_, x)
                        tally["zero_sign_differs"] += 1
                if not is_expectation_preserving(sys_):
                    continue
                rep = slln_audit(sys_, x)
                assert [float_bytes(e) for e in (rep.lower, rep.upper)] == [float_bytes(e) for e in ends]
                assert rep.lower == lower_exp(sys_.priors, x) and rep.upper == upper_exp(sys_.priors, x)
                tally["reports"] += 1
        assert tally["reports"] >= 5 * 970
        assert tally["zero_sign_differs"] > 0  # the signed-zero payoffs reach the one allowed difference

    def test_systems_with_one_map_do_not_share_entries(self):
        # two systems with the same map and members but different priors
        a = FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1)))
        b = FiniteSystem(2, PriorSet(((1.0, 0.0),)), FiniteMap((0, 1)))
        assert a.upper_capacity((1,)) == 0.5
        assert b.upper_capacity((1,)) == 0.0


def permutations(n_max=6):
    return st.integers(1, n_max).flatmap(lambda n: st.permutations(range(n)).map(FiniteMap))


@st.composite
def tiny_weight_systems(draw, n_max=6):
    """Preserving systems whose priors hold weights in (0, 1e-12], signed zeros and small negatives.

    Each seed prior gets at most one negative weight, so no pushforward sum
    falls below -1e-12; on a permutation the seed itself is a prior, so its
    -0.0 weights survive.
    """
    theta = draw(st.one_of(maps(n_max), permutations(n_max)))
    n = theta.n
    rows = []
    for _ in range(draw(st.integers(1, 2))):
        # 6e-13 twice is a non-polar union of polar points under a capacity threshold
        small = st.one_of(st.sampled_from([6e-13, 1e-12, 0.0, -0.0]), st.floats(0.0, 1e-12, exclude_min=True))
        weights = draw(st.lists(small, min_size=n, max_size=n))
        if draw(st.booleans()):
            weights[draw(st.integers(0, n - 1))] = draw(st.floats(-1e-12, 0.0, exclude_max=True))
        ordinary = sorted(draw(st.sets(st.integers(0, n - 1), min_size=1)))
        raw = draw(st.lists(st.floats(0.01, 1.0), min_size=len(ordinary), max_size=len(ordinary)))
        rest = 1.0 - sum(w for i, w in enumerate(weights) if i not in ordinary)
        for i, r in zip(ordinary, raw):
            weights[i] = rest * r / sum(raw)
        rows += invariant_prior_set(theta, ProbVector(tuple(weights))).priors
    return FiniteSystem(n, PriorSet(tuple(rows)), theta)


class TestPolarIdeal:
    """An event is polar iff it misses the support, so a union of polar events is polar."""

    #: two points of weight 6e-13 each under the identity: each is polar, and so is their union
    TINY_PAIR = FiniteSystem(3, PriorSet(((6e-13, 6e-13, 1 - 1.2e-12),)), FiniteMap((0, 1, 2)))

    def test_union_of_polar_points_is_polar(self):
        sys_ = self.TINY_PAIR
        assert sys_.ergodic
        assert indecomposability_audit(sys_).statements == (True, True, True, True)
        fixed = fixed_space_audit(sys_)
        assert fixed.simple and fixed.consistent
        rng = np.random.default_rng(20251)
        for _ in range(20):
            rep = slln_audit(sys_, Rv(tuple(rng.uniform(-1.0, 1.0, 3))))
            assert rep.bounds_hold_qs and rep.theta_fixed_qs and rep.equality_holds_qs and rep.ok
            # the union's capacity is still reported, and exceeds the tolerance
            assert rep.bad_members == (0, 1) and rep.bad_capacity > TOL_SIMPLEX
        assert sys_.support == 0b100

    def test_support_matches_the_capacity_threshold(self):
        tally = {"systems": 0, "events": 0, "polar": 0, "ergodic": 0}
        for sys_ in capacity_test_systems():
            matrix = sys_.matrix
            assert not np.any((matrix > 0.0) & (matrix <= TOL_SIMPLEX)), sys_
            for bits, (members, mask) in enumerate(subsets(sys_.n)):
                polar = not bits & sys_.support
                assert polar == (finite._upper_capacity(matrix, mask) <= TOL_SIMPLEX), (sys_, members)
                tally["events"] += 1
                tally["polar"] += polar
            if sys_.preserving:
                ergodic = sys_.ergodic
                assert ergodic == literal_ergodicity(sys_), sys_
                tally["ergodic"] += ergodic
            tally["systems"] += 1
        assert tally["systems"] == 1270
        assert 0 < tally["polar"] < tally["events"] and 0 < tally["ergodic"]

    @given(tiny_weight_systems())
    @settings(max_examples=200, deadline=None)
    def test_ergodicity_matches_the_literal_definition(self, sys_):
        assert sys_.preserving
        literal = literal_ergodicity(sys_)
        assert sys_.ergodic == literal
        report = indecomposability_audit(sys_)
        assert report == four_statements_oracle(sys_)
        assert report.statements == (literal,) * 4
        assert fixed_space_audit(sys_) == fixed_space_oracle(sys_)
        n = sys_.n
        ramp = Rv(tuple(i - (n - 1) / 2 for i in range(n)))
        for x in (ramp, class_constant_payoff(np.random.default_rng(n), sys_.theta)):
            assert slln_audit(sys_, x) == slln_oracle(sys_, x), x
        assert maximal_ergodic_check(sys_, ramp, n) == maximal_oracle(sys_, ramp, n)
        for members, _ in subsets(n):
            indicator = EventSet(n, frozenset(members)).indicator()
            assert float_bytes(sys_.upper_capacity(members)) == float_bytes(upper_exp(sys_.priors, indicator)), members

    def test_verdicts_past_the_enumeration_budget(self):
        # 30 points and 30 orbit classes: the verdicts read bitmasks and enumerate no subsets
        n = 30
        uniform = PriorSet((ProbVector(tuple(1 / n for _ in range(n))),))
        one_point = PriorSet((ProbVector((1.0,) + (0.0,) * (n - 1)),))
        identity = FiniteMap(tuple(range(n)))
        cycle = FiniteSystem(n, uniform, FiniteMap(tuple((i + 1) % n for i in range(n))))
        spread = FiniteSystem(n, uniform, identity)
        pinned = FiniteSystem(n, one_point, identity)
        assert [s.ergodic for s in (cycle, spread, pinned)] == [True, False, True]
        assert fixed_space_audit(spread) == FixedSpaceReport(dimension=n, simple=False, ergodic=False)
        assert fixed_space_audit(pinned) == FixedSpaceReport(dimension=n, simple=True, ergodic=True)
        x = Rv(tuple(np.random.default_rng(20252).uniform(-1.0, 1.0, n)))
        assert slln_audit(cycle, x).ok
        rep = slln_audit(pinned, x)
        assert rep.ok and rep.bounds_hold_qs and rep.bad_members == tuple(range(1, n)) and rep.bad_capacity == 0.0

    @staticmethod
    def count_capacities(monkeypatch):
        """The member tuples of every event whose capacity is computed."""
        calls = []
        upper_capacity = finite._upper_capacity

        def counting(matrix, mask):
            calls.append(tuple(np.flatnonzero(mask).tolist()))
            return upper_capacity(matrix, mask)

        monkeypatch.setattr(finite, "_upper_capacity", counting)
        return calls

    def test_four_statement_audit_computes_no_capacity(self, monkeypatch):
        calls = self.count_capacities(monkeypatch)
        systems = 0
        for sys_ in preserving_n_le_4():
            indecomposability_audit(sys_)
            assert calls == [], sys_
            systems += 1
        assert systems == 470

    def test_catalog_verdicts_compute_no_capacity(self, monkeypatch):
        calls = self.count_capacities(monkeypatch)
        rng = np.random.default_rng(20253)
        reports = 0
        for sys_ in preserving_n_le_4():
            sys_.ergodic
            fixed_space_audit(sys_)
            assert calls == [], sys_
            for _ in range(3):
                rep = slln_audit(sys_, Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n))))
                # only the reported capacities, and none for an event no prior weighs
                weighed = [m for m in (rep.bad_members, rep.fixed_bad_members) if np.any(sys_.matrix[:, list(m)])]
                assert sorted(calls) == sorted(weighed), sys_
                calls.clear()
                reports += 1
        assert reports == 3 * 470


class TestFiniteMapEntries:
    @pytest.mark.parametrize(
        "image",
        [(1.7, 0), (1.0, 0), (True, 0), (np.bool_(True), 0), ("1", 0), (float("nan"), 0), (None, 0)],
        ids=repr,
    )
    def test_non_integer_entry_rejected(self, image):
        with pytest.raises(InputError, match="map entries must be integers"):
            FiniteMap(image)

    def test_numpy_integers_become_ints(self):
        theta = FiniteMap(tuple(np.asarray([1, 0], dtype=np.int32)))
        assert theta.image == (1, 0) and all(type(i) is int for i in theta.image)
        assert theta == FiniteMap((1, 0)) and hash(theta) == hash(FiniteMap((1, 0)))

    @pytest.mark.parametrize("image", [(), (2, 0), (-1, 0)])
    def test_out_of_range_still_rejected(self, image):
        with pytest.raises(InputError):
            FiniteMap(image)


class TestMapCaches:
    def test_package_keeps_no_cache(self):
        # every record lives on the object it describes, so no result outlives its inputs
        assert package_caches() == {}

    def test_audited_system_holds_no_per_event_record(self):
        # all 8,192 events of the uniform 13-cycle leave the system's records as they were
        n = 13
        priors = PriorSet((ProbVector(tuple(1.0 / n for _ in range(n))),))
        sys_ = FiniteSystem(n, priors, FiniteMap(tuple((i + 1) % n for i in range(n))))
        assert sys_.ergodic and fixed_space_audit(sys_).simple
        slln_audit(sys_, Rv(tuple(np.linspace(-1.0, 1.0, n))))
        records = set(vars(sys_))
        for members, mask in subsets(n):
            got = sys_.upper_capacity(members)
            assert float_bytes(got) == float_bytes(finite._upper_capacity(sys_.matrix, mask)), members
        assert set(vars(sys_)) == records
        assert records == {"n", "priors", "theta", "matrix", "preserving", "support", "_weighted", "ergodic"}

    def test_cached_prior_matrix_is_read_only(self):
        matrix = FiniteSystem(3, UNIFORM3, CYCLE3).matrix
        assert not matrix.flags.writeable
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0

    def test_non_preserving_system_raises_after_a_preserving_one_is_cached(self):
        preserving = FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((1, 0)))
        swapped = FiniteSystem(2, PriorSet(((0.3, 0.7),)), FiniteMap((1, 0)))
        assert preserving.ergodic
        for _ in range(2):
            with pytest.raises(ContractError):
                swapped.ergodic
            with pytest.raises(ContractError):
                slln_audit(swapped, Rv((0.0, 1.0)))
        assert preserving.ergodic


def signed_zero_system(rng):
    """The identity on 2-5 points under one to three priors weighing each point 0.0, -0.0, -1e-12, 1e-12 or 2e-12, and one point the rest."""
    n = int(rng.integers(2, 6))
    rows = []
    for _ in range(int(rng.integers(1, 4))):
        weights = rng.choice([0.0, -0.0, -1e-12, 1e-12, 2e-12], n).tolist()
        rest = int(rng.integers(0, n))
        weights[rest] = 1.0 - sum(w for i, w in enumerate(weights) if i != rest)
        rows.append(ProbVector(tuple(weights)))
    return FiniteSystem(n, PriorSet(tuple(rows)), FiniteMap(tuple(range(n))))


class TestRecordsBuiltOnDemand:
    """The masks come from the priors' weights; the matrix and the orbit record are built only by routes that read them."""

    def test_masks_match_their_matrix_definitions(self):
        rng = np.random.default_rng(20272)
        systems = [tiny_weight_system(rng) for _ in range(1000)] + [signed_zero_system(rng) for _ in range(1000)]
        partial = 0
        for sys_ in systems:
            support, weighted = sys_.support, sys_._weighted
            assert "matrix" not in vars(sys_)
            matrix = sys_.matrix
            assert support == sum(
                1 << i for i, w in enumerate(np.maximum.reduce(matrix).tolist()) if w > TOL_SIMPLEX
            ), sys_
            assert weighted == sum(1 << i for i, column in enumerate(matrix.T.tolist()) if any(column)), sys_
            partial += support != weighted
        assert partial >= 500

    def test_rejected_sweep_pairs_build_no_matrix(self):
        rejected = 0
        for n in (1, 2, 3):
            for theta in all_maps(n):
                for priors in prior_catalog(n):
                    sys_ = FiniteSystem(n, priors, theta)
                    rejected += not sys_.preserving
                    assert "matrix" not in vars(sys_), sys_
        assert rejected > 0

    @pytest.mark.parametrize("seed", [7, 20273])
    def test_drawn_and_decided_trials_build_no_orbit_record(self, seed):
        for sys_, xi, k in lab_trials(seed):
            assert is_expectation_preserving(sys_)
            maximal_ergodic_check(sys_, xi, k)
            assert "orbits" not in vars(sys_.theta), sys_


def lab_trials(seed, draw_system=random_preserving_system):
    """The maximal-inequality trial stream of the lab-sweep benchmark: (system, xi, k), 1,000 draws."""
    rng = np.random.default_rng([seed, 1])
    for _ in range(1000):
        n = int(rng.integers(2, 7))
        sys_ = draw_system(n, rng)
        xi = Rv(tuple(rng.uniform(-1.0, 1.0, n)))
        yield sys_, xi, int(rng.integers(1, 9))


class TestRecordsOnObjects:
    """A map holds its orbit record and a system its verdicts, matrix and support; no audit looks either up by hash."""

    def test_warm_audits_hash_no_system_or_map(self, monkeypatch):
        sys_ = FiniteSystem(3, UNIFORM3, FiniteMap((1, 2, 0)))
        x = Rv((0.1, -0.4, 0.9))

        def audits():
            sys_.ergodic
            fixed_space_audit(sys_)
            indecomposability_audit(sys_)
            slln_audit(sys_, x)
            maximal_ergodic_check(sys_, x, 4)

        audits()
        hashed = []
        for cls in (FiniteSystem, FiniteMap):
            unhooked = cls.__hash__

            def counting(self, unhooked=unhooked):
                hashed.append(type(self).__name__)
                return unhooked(self)

            monkeypatch.setattr(cls, "__hash__", counting)
        assert hash(sys_) == hash(FiniteSystem(3, UNIFORM3, FiniteMap((1, 2, 0))))
        assert hashed  # the hook counts
        hashed.clear()
        audits()
        for _ in range(5):
            slln_audit(sys_, x)
        assert hashed == []

    def test_preservation_decided_once_per_pair(self, monkeypatch):
        # the sweep records each verdict on its system, and the audits read it
        calls = []
        decide = finite.is_expectation_preserving

        def counting(sys_):
            calls.append(sys_)
            return decide(sys_)

        monkeypatch.setattr(finite, "is_expectation_preserving", counting)
        for n in (1, 2, 3):
            for sys_ in enumerate_preserving_systems(n):
                indecomposability_audit(sys_)
                fixed_space_audit(sys_)
        assert len(calls) == sum(n**n * len(prior_catalog(n)) for n in (1, 2, 3)) == 272

    def test_records_die_with_their_objects(self):
        sys_ = FiniteSystem(3, UNIFORM3, FiniteMap((1, 2, 0)))
        assert sys_.preserving
        records = [weakref.ref(sys_), weakref.ref(sys_.theta.orbits)]
        del sys_
        gc.collect()
        assert [r() for r in records] == [None, None]

    def test_one_preservation_decision_per_system(self, monkeypatch):
        decided = []
        decide = finite.is_expectation_preserving

        def counting(sys_):
            decided.append(sys_)
            return decide(sys_)

        monkeypatch.setattr(finite, "is_expectation_preserving", counting)
        rng = np.random.default_rng(20191)
        ergodic = 0
        for _ in range(20):
            sys_ = random_preserving_system(int(rng.integers(2, 7)), rng)
            ergodic += sys_.ergodic
            fixed_space_audit(sys_)
            indecomposability_audit(sys_)
            for _ in range(50):
                slln_audit(sys_, Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n))))
            assert len(decided) == 1 and decided.pop() is sys_
        assert 0 < ergodic < 20

    def test_system_matrix_is_read_only_and_read_by_upper_capacity(self, monkeypatch):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        assert not sys_.matrix.flags.writeable
        with pytest.raises(ValueError):
            sys_.matrix[0, 0] = 0.0
        read = []
        monkeypatch.setattr(finite, "_upper_capacity", lambda matrix, mask: read.append(matrix) or 0.0)
        sys_.upper_capacity((0,))
        assert read[0] is sys_.matrix
        assert np.array_equal(sys_.matrix, UNIFORM3.matrix())

    @staticmethod
    def audit(sys_, rng):
        """Every audit of the system, so that each of its records is built."""
        x = Rv(tuple(rng.uniform(-1.0, 1.0, sys_.n)))
        return (
            sys_.ergodic,
            fixed_space_audit(sys_),
            indecomposability_audit(sys_),
            slln_audit(sys_, x),
            maximal_ergodic_check(sys_, x, 4),
        )

    def test_audited_system_records_die_at_del_without_the_collector(self):
        sys_ = random_preserving_system(6, np.random.default_rng(1))
        self.audit(sys_, np.random.default_rng(2))
        records = [weakref.ref(sys_.matrix), weakref.ref(sys_.theta.orbits)]
        gc.disable()
        try:
            del sys_
            assert [r() is None for r in records] == [True, True]
        finally:
            gc.enable()

    def test_dropped_audited_systems_leave_nothing_reachable(self):
        rng = np.random.default_rng(1)
        objects = []
        for _ in range(300):
            sys_ = random_preserving_system(6, rng)
            slln_audit(sys_, Rv(tuple(rng.uniform(-1.0, 1.0, 6))))
            fixed_space_audit(sys_)
            objects += [weakref.ref(sys_), weakref.ref(sys_.theta)]
        del sys_
        gc.collect()
        assert [r for r in objects if r() is not None] == []

    def test_audited_system_round_trips_through_pickle(self):
        rng = np.random.default_rng(20195)
        ergodic = 0
        for _ in range(20):
            sys_ = random_preserving_system(int(rng.integers(2, 7)), rng)
            seed = int(rng.integers(0, 2**32))
            reports = self.audit(sys_, np.random.default_rng(seed))
            copy = pickle.loads(pickle.dumps(sys_))
            assert copy == sys_
            assert (copy.preserving, copy.ergodic) == (sys_.preserving, sys_.ergodic)
            assert not copy.matrix.flags.writeable and np.array_equal(copy.matrix, sys_.matrix)
            assert self.audit(copy, np.random.default_rng(seed)) == reports
            ergodic += copy.ergodic
        assert 0 < ergodic < 20

    @pytest.mark.parametrize("seed", [7, 20192])
    def test_maximal_check_matches_a_fresh_matrix_on_the_lab_trials(self, seed):
        # the oracle reads the priors through upper_exp, which builds a fresh prior matrix
        values = set()
        for sys_, xi, k in lab_trials(seed):
            got = maximal_ergodic_check(sys_, xi, k)
            assert got == maximal_oracle(sys_, xi, k), (sys_, xi, k)
            values.add(got > 0.0)
        assert values == {True, False}

    @pytest.mark.parametrize("seed", [7, 20193])
    def test_random_systems_match_the_sum_route(self, seed):
        # the random-draw oracle normalises its seed prior by raw.sum()
        new = lab_trials(seed)
        ref = lab_trials(seed, oracle_random_system)
        for (sys_, xi, k), (ref_sys, ref_xi, ref_k) in zip(new, ref, strict=True):
            assert (sys_, xi, k) == (ref_sys, ref_xi, ref_k)


class TestGrandOrbits:
    def test_three_cycle_single_class(self):
        assert CYCLE3.orbits.cycle_index == (0, 0, 0)

    def test_identity_singletons(self):
        assert FiniteMap((0, 1, 2)).orbits.cycle_index == (0, 1, 2)

    def test_swap_plus_fixed_point(self):
        assert FiniteMap((1, 0, 2)).orbits.cycle_index == (0, 0, 1)

    @given(maps(12))
    @settings(max_examples=30, deadline=None)
    def test_unions_of_classes_are_exactly_preimage_fixed_sets(self, theta):
        n = theta.n
        cycle_index = theta.orbits.cycle_index
        union_masks = {
            frozenset(i for i, c in enumerate(cycle_index) if bits >> c & 1)
            for bits in range(1 << (max(cycle_index) + 1))
        }
        for r in range(n + 1):
            for comb in itertools.combinations(range(n), r):
                s = frozenset(comb)
                pre = frozenset(i for i in range(n) if theta.image[i] in s)
                assert (pre == s) == (s in union_masks)


class TestErgodicity:
    def test_three_cycle_ergodic(self):
        assert FiniteSystem(3, UNIFORM3, CYCLE3).ergodic

    def test_identity_not_ergodic(self):
        assert not FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1))).ergodic

    def test_two_fixed_points_with_polar_one(self):
        assert FiniteSystem(2, PriorSet(((1.0, 0.0),)), FiniteMap((0, 1))).ergodic

    def test_non_preserving_system_raises(self):
        with pytest.raises(ContractError):
            FiniteSystem(2, PriorSet(((0.3, 0.7),)), FiniteMap((1, 0))).ergodic


class TestFixedSpace:
    def test_three_cycle(self):
        rep = fixed_space_audit(FiniteSystem(3, UNIFORM3, CYCLE3))
        assert rep.dimension == 1 and rep.simple and rep.ergodic and rep.consistent

    def test_identity_two_points(self):
        rep = fixed_space_audit(FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1))))
        assert rep.dimension == 2 and not rep.simple and not rep.ergodic and rep.consistent

    def test_polar_class_still_simple(self):
        rep = fixed_space_audit(FiniteSystem(3, PriorSet(((0.5, 0.5, 0.0),)), FiniteMap((1, 0, 2))))
        assert rep.simple and rep.ergodic and rep.consistent


class TestBirkhoff:
    """The exact orbit averages that slln_audit reports as cycle_means."""

    def test_three_cycle_mean(self):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        assert slln_audit(sys_, Rv((0.0, 1.0, 2.0))).cycle_means == (1.0, 1.0, 1.0)

    def test_identity_returns_value(self):
        sys_ = FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1)))
        assert slln_audit(sys_, Rv((3.0, -1.0))).cycle_means[1] == -1.0

    def test_preperiodic_point(self):
        # (0, 0.5, 0.5) is fixed by theta_*, so the system preserves its expectation
        sys_ = FiniteSystem(3, PriorSet(((0.0, 0.5, 0.5),)), FiniteMap((1, 2, 1)))
        assert slln_audit(sys_, Rv((5.0, 0.0, 2.0))).cycle_means[0] == 1.0

    @given(maps(7), st.data())
    @settings(max_examples=60, deadline=None)
    def test_orbit_invariance(self, theta, data):
        vals = data.draw(st.lists(st.floats(-3, 3), min_size=theta.n, max_size=theta.n))
        means = theta.orbits.cycle_means(Rv(tuple(vals)).as_array())
        for omega in range(theta.n):
            assert means[omega] == pytest.approx(means[theta.image[omega]], abs=1e-12)

class TestSlln:
    def test_three_cycle_equality(self):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        rep = slln_audit(sys_, Rv((0.0, 1.0, 2.0)))
        assert rep.ergodic and rep.bounds_hold_qs and rep.ok
        assert rep.cycle_means == (1.0, 1.0, 1.0)
        assert rep.lower == pytest.approx(1.0) and rep.upper == pytest.approx(1.0)

    def test_identity_reports_spread(self):
        sys_ = FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1)))
        rep = slln_audit(sys_, Rv((0.0, 1.0)))
        assert not rep.ergodic
        assert rep.bad_members == (0, 1)  # both cycle means escape [0.5, 0.5]
        assert rep.bad_capacity == pytest.approx(1.0)
        assert rep.ok  # nothing is asserted for non-ergodic systems

    def test_constant_payoff_no_violation(self):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        rep = slln_audit(sys_, Rv((2.0, 2.0, 2.0)))
        assert rep.bad_members == ()
        assert rep.theta_fixed_qs and rep.equality_holds_qs

    def test_theta_fixed_payoff_on_ergodic_system(self):
        # swap with a polar fixed point: payoff constant off the polar class
        sys_ = FiniteSystem(3, PriorSet(((0.5, 0.5, 0.0),)), FiniteMap((1, 0, 2)))
        rep = slln_audit(sys_, Rv((0.25, 0.25, 9.0)))
        assert rep.ergodic and rep.theta_fixed_qs and rep.equality_holds_qs and rep.ok


class TestMaximalErgodic:
    def test_nonnegative_payoff(self):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        assert maximal_ergodic_check(sys_, Rv((0.5, 0.1, 0.2)), 3) >= 0.0

    def test_nonpositive_payoff_gives_zero(self):
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        assert maximal_ergodic_check(sys_, Rv((-0.5, -0.1, -0.2)), 3) == 0.0

    def test_three_cycle_mixed_sign(self):
        # S_j enumerated by hand: only points 0 and 2 ever reach a positive
        # partial sum within two steps, so the integrand is (1, 0, 0)
        sys_ = FiniteSystem(3, UNIFORM3, CYCLE3)
        val = maximal_ergodic_check(sys_, Rv((1.0, -1.0, 0.0)), 2)
        assert val == pytest.approx(1 / 3, abs=1e-15)

    def test_k_validation(self):
        with pytest.raises(InputError):
            maximal_ergodic_check(FiniteSystem(3, UNIFORM3, CYCLE3), Rv((1.0, 0.0, 0.0)), 0)

    @pytest.mark.parametrize("k", [2.5, 2.0, True, np.bool_(True), "2", None], ids=repr)
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(InputError, match="k must be an integer"):
            maximal_ergodic_check(FiniteSystem(3, UNIFORM3, CYCLE3), Rv((1.0, 0.0, 0.0)), k)

    @pytest.mark.parametrize("k", [0, -1, np.int64(0)], ids=repr)
    def test_k_below_one_rejected(self, k):
        with pytest.raises(InputError, match="k must be >= 1"):
            maximal_ergodic_check(FiniteSystem(3, UNIFORM3, CYCLE3), Rv((1.0, 0.0, 0.0)), k)

    def test_numpy_integer_k_accepted(self):
        sys_, xi = FiniteSystem(3, UNIFORM3, CYCLE3), Rv((1.0, -1.0, 0.0))
        assert maximal_ergodic_check(sys_, xi, np.int32(2)) == maximal_ergodic_check(sys_, xi, 2)

    def test_randomized_trials_stay_nonnegative(self):
        rng = np.random.default_rng(2024)
        worst = np.inf
        for _ in range(500):
            n = int(rng.integers(2, 7))
            sys_ = random_preserving_system(n, rng)
            xi = Rv(tuple(rng.uniform(-1.0, 1.0, n)))
            k = int(rng.integers(1, 9))
            worst = min(worst, maximal_ergodic_check(sys_, xi, k))
        assert worst >= -1e-12


class TestIndecomposabilityAudit:
    def test_three_cycle_all_true(self):
        rep = indecomposability_audit(FiniteSystem(3, UNIFORM3, CYCLE3))
        assert rep.statements == (True, True, True, True)

    def test_identity_all_false(self):
        rep = indecomposability_audit(FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1))))
        assert rep.statements == (False, False, False, False)

    def test_single_point_all_true(self):
        rep = indecomposability_audit(FiniteSystem(1, PriorSet(((1.0,),)), FiniteMap((0,))))
        assert rep.statements == (True, True, True, True)

    def test_matches_direct_enumeration_on_sample(self):
        # seeded preserving (map, catalog prior set) pairs with n = 5 and 6, past
        # the n <= 4 sweep; the vertex singletons and pairs give polar classes
        rng = np.random.default_rng(20231)
        count, seen = 0, set()
        for n in (5, 6):
            catalog = prior_catalog(n)
            while count < 100 * (n - 4):
                theta = FiniteMap(tuple(rng.integers(0, n, n).tolist()))
                sys_ = FiniteSystem(n, catalog[int(rng.integers(len(catalog)))], theta)
                if sys_.preserving:
                    assert indecomposability_audit(sys_) == four_statements_oracle(sys_), sys_
                    seen.add((n, literal_ergodicity(sys_)))
                    count += 1
        assert count > 30  # the draws actually produced systems
        assert seen == {(n, ergodic) for n in (5, 6) for ergodic in (False, True)}

    def test_every_statement_reads_the_support(self):
        # with an empty support every set is polar, so all four statements hold
        sys_ = FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((0, 1)))
        vars(sys_)["support"] = 0
        rep = indecomposability_audit(sys_)
        assert rep.statements == (True, True, True, True)

    def test_budget_guard(self):
        n = 13
        sys_ = FiniteSystem(
            n,
            PriorSet((ProbVector(tuple(1 / n for _ in range(n))),)),
            FiniteMap(tuple((i + 1) % n for i in range(n))),
        )
        with pytest.raises(InputError):
            indecomposability_audit(sys_)


class TestCatalog:
    def test_catalog_n2_contents(self):
        cat = prior_catalog(2)
        keys = {frozenset(p.weights for p in ps.priors) for ps in cat}
        assert frozenset({(1.0, 0.0), (0.0, 1.0)}) in keys
        assert frozenset({(0.5, 0.5)}) in keys
        assert frozenset({(0.25, 0.75), (0.75, 0.25)}) in keys

    def test_catalog_unique(self):
        cat = prior_catalog(4)
        keys = [frozenset(p.weights for p in ps.priors) for ps in cat]
        assert len(keys) == len(set(keys))


class TestFiniteSystemSize:
    @pytest.mark.parametrize("n", [2.0, 2.5, "2", None], ids=repr)
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(InputError, match="n must be an integer"):
            FiniteSystem(n, PriorSet(((0.5, 0.5),)), FiniteMap((1, 0)))

    def test_bool_size_rejected(self):
        # True == 1 would match a one-point prior set and map
        with pytest.raises(InputError, match="n must be an integer"):
            FiniteSystem(True, PriorSet(((1.0,),)), FiniteMap((0,)))

    def test_size_below_one_rejected(self):
        with pytest.raises(InputError, match="n must be >= 1"):
            FiniteSystem(0, PriorSet(((1.0,),)), FiniteMap((0,)))

    def test_numpy_integer_size_stored_as_int(self):
        sys_ = FiniteSystem(np.int64(2), PriorSet(((0.5, 0.5),)), FiniteMap((1, 0)))
        assert type(sys_.n) is int
        assert sys_ == FiniteSystem(2, PriorSet(((0.5, 0.5),)), FiniteMap((1, 0)))
        assert sys_.ergodic


class TestRandomPreservingSystemSize:
    @pytest.mark.parametrize("n", [-1, 0, np.int64(0)], ids=repr)
    def test_size_below_one_rejected(self, n):
        rng = np.random.default_rng(3)
        state = rng.bit_generator.state
        with pytest.raises(InputError, match="n must be >= 1"):
            random_preserving_system(n, rng)
        assert rng.bit_generator.state == state

    @pytest.mark.parametrize("n", [2.5, 3.0, True, np.bool_(True), "3", None], ids=repr)
    def test_non_integer_size_rejected(self, n):
        with pytest.raises(InputError, match="n must be an integer"):
            random_preserving_system(n, np.random.default_rng(3))

    def test_numpy_integer_size_accepted(self):
        sys_ = random_preserving_system(np.int64(4), np.random.default_rng(3))
        assert sys_ == random_preserving_system(4, np.random.default_rng(3))
        assert type(sys_.n) is int
