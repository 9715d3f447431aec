import math

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from ergolab import credal
from ergolab.credal import (
    TOL_DERIVED,
    TOL_SIMPLEX,
    EventSet,
    InputError,
    PriorSet,
    ProbVector,
    Rv,
    capacity,
    has_no_mean_uncertainty,
    lower_exp,
    mean_uncertainty_space_audit,
    upper_exp,
)
from ergolab.finite import prior_catalog

VERTEX2 = PriorSet(((1.0, 0.0), (0.0, 1.0)))
SINGLE_HALF = PriorSet(((0.5, 0.5),))


def simplex_points(n, count):
    return st.lists(
        st.lists(st.floats(0.01, 1.0), min_size=n, max_size=n),
        min_size=1,
        max_size=count,
    ).map(lambda rows: PriorSet(tuple(tuple(np.asarray(r) / np.sum(r)) for r in rows)))


def payoffs(n):
    return st.lists(st.floats(-5, 5), min_size=n, max_size=n).map(lambda v: Rv(tuple(v)))


class TestValidation:
    def test_negative_weight_rejected(self):
        with pytest.raises(InputError):
            ProbVector((-0.1, 1.1))

    def test_bad_sum_rejected(self):
        with pytest.raises(InputError):
            ProbVector((0.5, 0.4))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_weight_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite weight"):
            ProbVector((bad, 1.0))

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_value_rejected(self, bad):
        with pytest.raises(InputError, match="non-finite value"):
            Rv((bad, 0.0, 0.0))

    def test_mixed_lengths_rejected(self):
        with pytest.raises(InputError):
            PriorSet(((1.0, 0.0), (1.0,)))

    def test_empty_prior_set_rejected(self):
        with pytest.raises(InputError):
            PriorSet(())

    def test_event_member_out_of_range(self):
        with pytest.raises(InputError):
            EventSet(2, frozenset({2}))

    @pytest.mark.parametrize(
        "members", [{1.7, True}, {1.7}, {1.0}, {True}, {np.bool_(True)}, {"1"}, {None}, {-1}], ids=repr
    )
    def test_non_integer_event_member_rejected(self, members):
        # int() would truncate 1.7 and read True or "1" as 1
        with pytest.raises(InputError, match="event member must be"):
            EventSet(3, frozenset(members))

    @pytest.mark.parametrize("n", [2.5, 2.0, True, np.bool_(True), "2", None], ids=repr)
    def test_non_integer_event_space_size_rejected(self, n):
        with pytest.raises(InputError, match="n must be an integer"):
            EventSet(n, frozenset({1}))

    def test_numpy_integer_event_entries_become_ints(self):
        event = EventSet(np.int64(3), frozenset({np.int32(1), np.intp(2)}))
        assert event == EventSet(3, frozenset({1, 2}))
        assert type(event.n) is int and all(type(i) is int for i in event.members)
        assert event.complement() == EventSet(3, frozenset({0}))

    def test_dimension_mismatch(self):
        with pytest.raises(InputError):
            upper_exp(VERTEX2, Rv((1.0, 2.0, 3.0)))


class RefProbVector:
    """ProbVector's validation before it dropped numpy's per-call reductions, copied verbatim."""

    def __init__(self, weights):
        self.weights = weights
        w = np.asarray(self.weights, dtype=float)
        self.weights = tuple(float(x) for x in w)
        if w.ndim != 1 or w.size == 0:
            raise InputError("weights must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(w)):
            raise InputError(f"non-finite weight in {self.weights}")
        if np.any(w < -credal.TOL_SIMPLEX):
            raise InputError(f"negative weight in {self.weights}")
        s = float(w.sum())
        if abs(s - 1.0) > credal.TOL_SIMPLEX:
            raise InputError(f"weights sum to {s}, expected 1 within {credal.TOL_SIMPLEX}")


class RefRv:
    """Rv's validation before it stored v.tolist(), copied verbatim."""

    def __init__(self, values):
        self.values = values
        v = np.asarray(self.values, dtype=float)
        if v.ndim != 1 or v.size == 0:
            raise InputError("values must be a nonempty 1-d sequence")
        self.values = tuple(float(x) for x in v)
        if not all(map(math.isfinite, self.values)):
            raise InputError(f"non-finite value in {self.values}")


NINTH = 1.0 / 9.0
VALIDATION_INPUTS = [
    (float("nan"), 1.0),
    (float("inf"), 0.0),
    (float("-inf"), 1.0),
    (0.5, float("nan"), 0.5),
    (-1e-13, 1.0 + 1e-13),
    (-1e-11, 1.0 + 1e-11),
    (0.5, 0.5 + 0.9e-12),
    (0.5, 0.5 - 0.9e-12),
    (0.5, 0.5 + 1.1e-12),
    (0.5, 0.5 - 1.1e-12),
    (1.0 + 0.9e-12,),
    (1.0 - 0.9e-12,),
    (1.0 + 1.1e-12,),
    (1.0 - 1.1e-12,),
    (1.0,),
    (-0.0, 1.0),
    # nine weights: numpy's sum is pairwise from eight on
    (NINTH,) * 8 + (1.0 - 8 * NINTH + 0.9e-12,),
    (NINTH,) * 8 + (1.0 - 8 * NINTH - 0.9e-12,),
    (NINTH,) * 8 + (1.0 - 8 * NINTH + 1.1e-12,),
    (NINTH,) * 8 + (1.0 - 8 * NINTH - 1.1e-12,),
    (NINTH,) * 9,
    (0, 1),
    (1,),
    (2, -1),
    (True, False),
    (np.int64(0), np.int64(1)),
    np.array([0.25, 0.75], dtype=np.float32),
    np.full(3, 1.0 / 3.0, dtype=np.float32),
    np.full(3, 1.0 / 3.0),
    [0.25, 0.75],
    ((0.5, 0.5), (0.5, 0.5)),
    ((1.0,),),
    [[]],
    (),
    [],
    np.zeros((0, 2)),
    1.0,
]


def outcome(cls, raw, field):
    """What constructing cls from raw gives: the stored tuple's repr, or the exception."""
    try:
        return ("ok", repr(getattr(cls(raw), field)))
    except Exception as exc:  # the exception itself is what is compared
        return (type(exc), str(exc))


class TestValidationDifferential:
    """ProbVector and Rv store, accept and reject exactly as the numpy-reduction route did.

    The one deliberate difference: where the old route raised numpy's bare
    TypeError on a nested or 0-d input, ProbVector raises InputError, as Rv does.
    """

    @pytest.mark.parametrize("raw", VALIDATION_INPUTS, ids=repr)
    def test_prob_vector(self, raw):
        ref = outcome(RefProbVector, raw, "weights")
        if ref[0] is TypeError:
            ref = (InputError, "weights must be a nonempty 1-d sequence")
        assert outcome(ProbVector, raw, "weights") == ref

    @pytest.mark.parametrize("raw", VALIDATION_INPUTS, ids=repr)
    def test_rv(self, raw):
        assert outcome(Rv, raw, "values") == outcome(RefRv, raw, "values")

    def test_inputs_reach_every_branch(self):
        kinds = {outcome(RefProbVector, raw, "weights")[0] for raw in VALIDATION_INPUTS}
        messages = " ".join(str(outcome(RefProbVector, raw, "weights")[1]) for raw in VALIDATION_INPUTS)
        assert {"ok", InputError, TypeError} <= kinds
        for fragment in ("non-finite", "negative", "sum to", "nonempty", "0-d", "0-dimensional"):
            assert fragment in messages


class TestUpperLower:
    def test_constant_payoff(self):
        assert upper_exp(VERTEX2, Rv((1.0, 1.0))) == 1.0

    def test_single_prior_is_linear(self):
        assert upper_exp(SINGLE_HALF, Rv((0.0, 1.0))) == 0.5
        assert lower_exp(SINGLE_HALF, Rv((0.0, 1.0))) == 0.5

    def test_vertex_priors_take_max_and_min(self):
        x = Rv((0.0, 1.0))
        assert upper_exp(VERTEX2, x) == 1.0
        assert lower_exp(VERTEX2, x) == 0.0

    def test_lower_constant(self):
        assert lower_exp(VERTEX2, Rv((3.5, 3.5))) == 3.5

    @given(simplex_points(3, 4), payoffs(3))
    @settings(max_examples=100, deadline=None)
    def test_lower_is_negated_upper_bitwise(self, priors, x):
        assert lower_exp(priors, x) == -upper_exp(priors, -x)

    @given(simplex_points(3, 4), payoffs(3), payoffs(3))
    @settings(max_examples=100, deadline=None)
    def test_subadditive(self, priors, x, y):
        xy = Rv(tuple(np.asarray(x.values) + np.asarray(y.values)))
        assert upper_exp(priors, xy) <= upper_exp(priors, x) + upper_exp(priors, y) + 1e-12

    @given(simplex_points(4, 1), payoffs(4))
    @settings(max_examples=100, deadline=None)
    def test_singleton_prior_degenerates_to_linear(self, priors, x):
        assert upper_exp(priors, x) == pytest.approx(lower_exp(priors, x), abs=1e-12)

    @given(simplex_points(3, 4), payoffs(3), st.lists(st.floats(0, 5), min_size=3, max_size=3))
    @settings(max_examples=100, deadline=None)
    def test_monotone(self, priors, x, gap):
        y = Rv(tuple(np.asarray(x.values) + np.asarray(gap)))  # x <= y pointwise
        assert upper_exp(priors, x) <= upper_exp(priors, y) + TOL_DERIVED

    @given(simplex_points(3, 4), payoffs(3), st.floats(-5, 5))
    @settings(max_examples=100, deadline=None)
    def test_constant_translation(self, priors, x, c):
        shifted = Rv(tuple(np.asarray(x.values) + c))
        assert abs(upper_exp(priors, shifted) - (upper_exp(priors, x) + c)) <= TOL_DERIVED

    @given(simplex_points(3, 4), payoffs(3), st.floats(0, 5))
    @settings(max_examples=100, deadline=None)
    def test_positive_homogeneous(self, priors, x, lam):
        scaled = Rv(tuple(lam * np.asarray(x.values)))
        assert abs(upper_exp(priors, scaled) - lam * upper_exp(priors, x)) <= TOL_DERIVED


class TestCapacity:
    def test_vertex_event(self):
        v_up, v_lo = capacity(VERTEX2, EventSet(2, frozenset({0})))
        assert v_up == 1.0
        assert v_lo == 0.0

    def test_upper_capacities_can_sum_to_two(self):
        a = EventSet(2, frozenset({0}))
        v_a, _ = capacity(VERTEX2, a)
        v_ac, _ = capacity(VERTEX2, a.complement())
        assert v_a + v_ac == 2.0

    def test_empty_event(self):
        v_up, v_lo = capacity(VERTEX2, EventSet(2))
        assert v_up == 0.0 and v_lo == 0.0

    @given(simplex_points(4, 3), st.sets(st.integers(0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_complement_upper_capacities_sum_at_least_one(self, priors, members):
        a = EventSet(4, frozenset(members))
        v_a, _ = capacity(priors, a)
        v_ac, _ = capacity(priors, a.complement())
        assert v_a + v_ac >= 1.0 - 1e-12

    @given(simplex_points(4, 3), st.sets(st.integers(0, 3)), st.sets(st.integers(0, 3)))
    @settings(max_examples=100, deadline=None)
    def test_union_subadditive(self, priors, mem_a, mem_b):
        v_ab, _ = capacity(priors, EventSet(4, frozenset(mem_a | mem_b)))
        v_a, _ = capacity(priors, EventSet(4, frozenset(mem_a)))
        v_b, _ = capacity(priors, EventSet(4, frozenset(mem_b)))
        assert v_ab <= v_a + v_b + 1e-12

    def test_ordering_lower_below_upper(self):
        v_up, v_lo = capacity(PriorSet(((0.3, 0.7), (0.6, 0.4))), EventSet(2, frozenset({0})))
        assert 0.0 <= v_lo <= v_up <= 1.0

    # an event is polar when its upper capacity is 0
    def test_empty_is_polar(self):
        assert capacity(VERTEX2, EventSet(2))[0] <= TOL_SIMPLEX

    def test_unweighted_point_is_polar(self):
        assert capacity(PriorSet(((1.0, 0.0),)), EventSet(2, frozenset({1})))[0] <= TOL_SIMPLEX

    def test_weighted_point_is_not_polar(self):
        assert not capacity(VERTEX2, EventSet(2, frozenset({1})))[0] <= TOL_SIMPLEX


class TestNoMeanUncertainty:
    def test_constant_has_none(self):
        assert has_no_mean_uncertainty(VERTEX2, Rv((2.0, 2.0)))

    def test_vertex_priors_have_uncertainty(self):
        assert not has_no_mean_uncertainty(VERTEX2, Rv((0.0, 1.0)))

    def test_two_prior_mixture(self):
        # (1,-1) against {(1/2,1/2), (1/4,3/4)}: upper mean 0, lower mean -1/2
        priors = PriorSet(((0.5, 0.5), (0.25, 0.75)))
        x = Rv((1.0, -1.0))
        assert upper_exp(priors, x) == 0.0
        assert upper_exp(priors, -x) == 0.5
        assert not has_no_mean_uncertainty(priors, x)


class TestAudits:
    def test_axiom_zero_scaling(self):
        x = Rv((0.3, -0.8))
        scaled = Rv((0.0, -0.0))
        assert upper_exp(VERTEX2, scaled) == 0.0
        assert upper_exp(VERTEX2, Rv(tuple(2 * v for v in x.values))) == pytest.approx(
            2 * upper_exp(VERTEX2, x), abs=1e-12
        )

    def test_mean_uncertainty_space_closure(self):
        for priors in (VERTEX2, SINGLE_HALF, PriorSet(((0.5, 0.5), (0.25, 0.75)))):
            report = mean_uncertainty_space_audit(priors, trials=300, seed=5)
            assert report.ok, report.violations

    @pytest.mark.parametrize("trials", [True, np.bool_(True), 2.5, 2.0, "2", None], ids=repr)
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(InputError, match="trials must be an integer"):
            mean_uncertainty_space_audit(VERTEX2, trials=trials, seed=5)

    @pytest.mark.parametrize("seed", [True, 1.5, "5", None], ids=repr)
    def test_non_integer_seed_rejected(self, seed):
        with pytest.raises(InputError, match="seed must be an integer"):
            mean_uncertainty_space_audit(VERTEX2, trials=3, seed=seed)

    @pytest.mark.parametrize("trials, seed, message", [(0, 5, "trials must be >= 1"), (3, -1, "seed must be >= 0")])
    def test_counts_out_of_range_rejected(self, trials, seed, message):
        with pytest.raises(InputError, match=message):
            mean_uncertainty_space_audit(VERTEX2, trials=trials, seed=seed)

    def test_seed_zero_and_numpy_integers_accepted(self):
        report = mean_uncertainty_space_audit(VERTEX2, trials=np.int64(3), seed=np.int32(0))
        assert report == mean_uncertainty_space_audit(VERTEX2, trials=3, seed=0)
        assert type(report.trials) is int

    def test_constants_are_certain_and_combine(self):
        x1 = Rv((1.0, 1.0))
        x2 = Rv((-2.0, -2.0))
        assert has_no_mean_uncertainty(VERTEX2, x1)
        assert has_no_mean_uncertainty(VERTEX2, x2)
        combo = Rv((1.0 * 1 - 1.0 * -2, 1.0 * 1 - 1.0 * -2))
        assert has_no_mean_uncertainty(VERTEX2, combo)

    def test_difference_of_identical_payoffs_is_certain(self):
        x = Rv((0.4, -1.2))
        zero = Rv(tuple(np.asarray(x.values) - np.asarray(x.values)))
        assert has_no_mean_uncertainty(VERTEX2, zero)


def ref_certainty_basis(prior_set: PriorSet) -> np.ndarray:
    """The scipy route the numpy SVD replaced, copied verbatim."""
    mat = prior_set.matrix()
    diffs = mat[1:] - mat[0]
    if diffs.shape[0] == 0:
        return np.eye(prior_set.n)
    return scipy.linalg.null_space(diffs)


def certainty_test_sets():
    """Every catalog entry for n <= 6, seeded random sets and rank-deficient sets."""
    for n in range(1, 7):
        yield from prior_catalog(n)
    rng = np.random.default_rng(20174)
    for _ in range(200):
        n = int(rng.integers(2, 9))
        raw = rng.uniform(0.0, 1.0, (int(rng.integers(1, 7)), n)) + 1e-3
        yield PriorSet(tuple(map(tuple, raw / raw.sum(axis=1, keepdims=True))))
    a, b = np.array([0.5, 0.3, 0.1, 0.1]), np.array([0.1, 0.2, 0.3, 0.4])
    # a duplicate row and two rows on the segment [a, b]: the differences have rank 1
    yield PriorSet(tuple(map(tuple, (a, a, b, 0.5 * a + 0.5 * b, 0.25 * a + 0.75 * b))))


class TestCertaintyBasisDifferential:
    """The numpy null space spans the same subspace as scipy.linalg.null_space."""

    def test_same_subspace(self):
        sets = 0
        for priors in certainty_test_sets():
            q, ref = credal._certainty_basis(priors), ref_certainty_basis(priors)
            assert q.shape == ref.shape, priors
            assert np.max(np.abs(q @ q.T - ref @ ref.T), initial=0.0) <= 1e-12, priors
            sets += 1
        assert sets == 251

    def test_rank_deficient_set_keeps_its_certain_payoffs(self):
        *_, priors = certainty_test_sets()
        assert credal._certainty_basis(priors).shape == (4, 3)

    def test_audit_reports_unchanged(self, monkeypatch):
        sets = list(certainty_test_sets())
        new = [mean_uncertainty_space_audit(priors, trials=20, seed=7) for priors in sets]
        monkeypatch.setattr(credal, "_certainty_basis", ref_certainty_basis)
        assert new == [mean_uncertainty_space_audit(priors, trials=20, seed=7) for priors in sets]
