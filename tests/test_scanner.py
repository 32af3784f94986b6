import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from safs import (
    OVER,
    UNDER,
    DataError,
    DiscreteDataset,
    ScanConfig,
    SearchSpaceError,
    SubgroupDescriptor,
    brute_force_scan,
    empirical_p_value,
    optimize_feature,
    q_mle,
    safs_rank,
    scan,
    score_subgroup,
    stratify,
    subgroup_mask,
    sweep_k,
    top_k,
)
from safs.dataset import constraints_bool_mask
from safs import scanner
from safs.scanner import (_BITS_MAX_CARD, _MAX_PASSES, _PERMUTE_KEY, _ascend, _bits_from_bool,
                           _climb, _random_constraints, _Restart, _restart_plan, _ScanKernel,
                           _score_counts)
from synth import make_dataset, noise_dataset, planted_dataset, random_dataset


def naive_best_subset(dataset, feature, direction):
    """Exhaustive max over the 2^C - 1 value subsets of one feature."""
    c = dataset.schemas[feature].cardinality
    best = None
    for r in range(1, c + 1):
        for combo in itertools.combinations(range(c), r):
            mask = np.isin(dataset.codes[:, feature], combo)
            if not mask.any():
                continue
            score, _ = score_subgroup(dataset, SubgroupDescriptor({feature: combo}),
                                      direction)
            if best is None or score > best[0]:
                best = (score, set(combo))
    return best


def _naive_score(n_s, sum_y, mu, direction):
    """1-D numeric maximization of the likelihood-ratio objective over q."""
    if direction == OVER:
        qs = np.concatenate([[1.0], np.geomspace(1.0, 1e6, 20001)])
    else:
        qs = np.concatenate([np.geomspace(1e-9, 1.0, 20001), [1.0]])
    with np.errstate(divide="ignore"):
        scores = np.log(qs) * sum_y - n_s * np.log(1 - mu + qs * mu)
    scores = np.where(np.isnan(scores), -np.inf, scores)
    i = int(np.argmax(scores))
    return max(0.0, float(scores[i])), float(qs[i])


class TestQMle:

    def test_rate_equals_global(self):
        assert q_mle(10, 2, 0.2) == pytest.approx(1.0)

    def test_closed_form(self):
        assert q_mle(10, 5, 0.25) == pytest.approx(3.0)

    def test_sentinels(self):
        assert q_mle(4, 4, 0.5) == math.inf
        assert q_mle(4, 0, 0.5) == 0.0

    def test_matches_numeric_maximizer(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            n_s = int(rng.integers(2, 50))
            sum_y = int(rng.integers(1, n_s))
            mu = float(rng.uniform(0.05, 0.95))
            q = q_mle(n_s, sum_y, mu)
            _, q_num = _naive_score(n_s, sum_y, mu, OVER if q >= 1 else UNDER)
            assert q == pytest.approx(q_num, rel=2e-3)

    def test_invalid(self):
        with pytest.raises(DataError):
            q_mle(10, 5, 0.0)
        with pytest.raises(DataError):
            q_mle(0, 0, 0.5)
        with pytest.raises(DataError):
            q_mle(3, 4, 0.5)


def dataset_with_counts():
    """40 records, mu=0.25; feature value A covers 10 rows with 5 positives."""
    codes = [[0]] * 10 + [[1]] * 30
    y = [1] * 5 + [0] * 5 + [1] * 5 + [0] * 25
    return make_dataset([2], codes, y)


class TestScoreSubgroup:

    def test_null_rate_scores_zero(self):
        ds = make_dataset([2], [[0], [0], [1], [1]], [1, 0, 1, 0])
        score, q = score_subgroup(ds, SubgroupDescriptor({0: {0}}), OVER)
        assert score == 0.0 and q == 1.0

    def test_derived_value(self):
        ds = dataset_with_counts()
        score, q = score_subgroup(ds, SubgroupDescriptor({0: {0}}), OVER)
        assert q == pytest.approx(3.0)
        assert score == pytest.approx(5 * math.log(3) - 10 * math.log(1.5), abs=1e-12)
        # independent grid search over q
        num_score, _ = _naive_score(10, 5, 0.25, OVER)
        assert score == pytest.approx(num_score, abs=1e-6)

    def test_whole_data_score_is_not_negative(self):
        # the whole data's q_hat is 1 only up to rounding (within an ulp)
        for seed in range(60):
            ds = noise_dataset(seed, n=97, m=2)
            for direction in (OVER, UNDER):
                assert score_subgroup(ds, SubgroupDescriptor(), direction)[0] >= 0.0

    def test_under_observed_clamps_in_over_scan(self):
        codes = [[0]] * 10 + [[1]] * 30
        y = [1] * 1 + [0] * 9 + [1] * 9 + [0] * 21
        ds = make_dataset([2], codes, y)
        score, q = score_subgroup(ds, SubgroupDescriptor({0: {0}}), OVER)
        assert (score, q) == (0.0, 1.0)

    def test_all_positive_limit(self):
        codes = [[0]] * 4 + [[1]] * 4
        ds = make_dataset([2], codes, [1, 1, 1, 1, 0, 0, 0, 0])
        score, q = score_subgroup(ds, SubgroupDescriptor({0: {0}}), OVER)
        assert q == math.inf
        assert score == pytest.approx(-4 * math.log(0.5))

    def test_under_direction(self):
        codes = [[0]] * 10 + [[1]] * 30
        y = [0] * 10 + [1] * 20 + [0] * 10
        ds = make_dataset([2], codes, y)
        score, q = score_subgroup(ds, SubgroupDescriptor({0: {0}}), UNDER)
        assert q == 0.0
        assert score == pytest.approx(-10 * math.log(1 - 0.5))

    def test_errors(self):
        ds = make_dataset([2], [[0], [1]], [1, 0])
        with pytest.raises(DataError):
            score_subgroup(ds, SubgroupDescriptor({0: {0}}), "sideways")
        degenerate = make_dataset([2], [[0], [1]], [1, 1])
        with pytest.raises(DataError):
            score_subgroup(degenerate, SubgroupDescriptor(), OVER)
        unmatched = make_dataset([2, 2], [[0, 1], [1, 0]], [1, 0])
        with pytest.raises(DataError, match="matches no records"):
            score_subgroup(unmatched, SubgroupDescriptor({0: {0}, 1: {0}}), OVER)


class TestOptimizeFeature:

    def test_picks_high_rate_value(self):
        codes = [[0]] * 20 + [[1]] * 20
        y = [1] * 18 + [0] * 2 + [1] * 2 + [0] * 18
        ds = make_dataset([2], codes, y)
        assert optimize_feature(ds, SubgroupDescriptor(), 0, OVER) == {0}

    def test_drops_vacuous_constraint(self):
        # both values have outcome rate exactly mu; no prefix can improve
        uniform = make_dataset([2], [[0], [0], [1], [1]] * 15,
                               [1, 0, 1, 0] * 15)
        assert optimize_feature(uniform, SubgroupDescriptor(), 0, OVER) is None

    def test_prefix_optimality_against_exhaustive(self):
        for seed in range(60):
            ds = random_dataset(seed, n=150, n_features=1, max_card=8)
            for direction in (OVER, UNDER):
                got = optimize_feature(ds, SubgroupDescriptor(), 0, direction)
                desc = SubgroupDescriptor({} if got is None else {0: got})
                got_score, _ = score_subgroup(ds, desc, direction)
                best_score, _ = naive_best_subset(ds, 0, direction)
                assert got_score == pytest.approx(best_score, abs=1e-6)

    def test_respects_other_constraints(self):
        ds, truth, _ = planted_dataset(0, n=2000)
        partial = SubgroupDescriptor({0: {0}, 2: {0}})
        got = optimize_feature(ds, partial, 1, OVER)
        assert got == {0, 1}

    def test_no_matching_records_raises(self):
        # feature 1 never takes value 0, so the fixed constraint matches nothing
        ds = make_dataset([2, 2], [[0, 1], [1, 1]], [1, 0])
        with pytest.raises(DataError):
            optimize_feature(ds, SubgroupDescriptor({1: {0}}), 0, OVER)


class TestScan:

    def test_recovers_planted_subgroup(self):
        ds, truth, inside = planted_dataset(0, n=3000)
        res = scan(ds, list(range(ds.n_features)), ScanConfig(restarts=5, seed=1))
        assert res.descriptor == truth
        assert set(res.matched.tolist()) == set(np.flatnonzero(inside).tolist())

    def test_seeded_determinism(self):
        ds = random_dataset(42)
        cfg = ScanConfig(restarts=8, seed=99)
        a = scan(ds, [0, 1, 2, 3], cfg)
        b = scan(ds, [0, 1, 2, 3], cfg)
        assert a.descriptor == b.descriptor
        assert a.score == b.score
        assert a.matched.tolist() == b.matched.tolist()

    def test_score_recomputes(self):
        for seed in range(10):
            ds = random_dataset(seed)
            res = scan(ds, list(range(ds.n_features)), ScanConfig(restarts=3, seed=seed))
            score, _ = score_subgroup(ds, res.descriptor, OVER)
            assert res.score == pytest.approx(score, abs=1e-9)
            assert 0 <= res.subset_outcome_sum <= res.subset_size

    def test_monotone_ascent(self):
        # each coordinate step never lowers the score
        rng = np.random.default_rng(5)
        for seed in range(10):
            ds = random_dataset(seed)
            descriptor = SubgroupDescriptor()
            score, _ = score_subgroup(ds, descriptor, OVER)
            for _ in range(12):
                f = int(rng.integers(0, ds.n_features))
                new = optimize_feature(ds, descriptor, f, OVER)
                descriptor = descriptor.replace(f, new)
                new_score, _ = score_subgroup(ds, descriptor, OVER)
                assert new_score >= score - 1e-12
                score = new_score

    def test_restart_monotonicity(self):
        ds = random_dataset(17)
        scores = [scan(ds, [0, 1, 2, 3], ScanConfig(restarts=r, seed=3)).score
                  for r in range(1, 7)]
        assert all(b >= a - 1e-12 for a, b in zip(scores, scores[1:]))

    @pytest.mark.parametrize("direction", [OVER, UNDER])
    def test_exact_scores_at_a_million_records(self, direction):
        # at N = 10^6 one ulp of the planted score is ~7e-12: the score the
        # search carries must still equal the rescoring bit for bit
        planted, _, _ = planted_dataset(0, n=10**6, n_noise=1)
        # plus a feature counted by bincount: 15 categories nested in f00's
        rng = np.random.default_rng(1)
        nested = planted.codes[:, 0] * 5 + rng.integers(0, 5, planted.n_records)
        wide = make_dataset([3, 3, 3, 2, 15], np.column_stack([planted.codes, nested]),
                            planted.outcome)
        assert wide.schemas[4].cardinality > _BITS_MAX_CARD
        for ds in (planted, wide):
            feats = list(range(ds.n_features))
            kernel = _ScanKernel(ds, feats, direction)
            scores = []
            for r in (1, 2, 3):
                config = ScanConfig(direction=direction, restarts=r)
                climbs = _climb(kernel, _restart_plan(kernel, config))
                for climb in climbs:
                    descriptor = SubgroupDescriptor(climb.constraints)
                    assert climb.score == score_subgroup(ds, descriptor, direction)[0]
                score = max(climb.score for climb in climbs)
                scores.append(score)
            assert scores == sorted(scores)
            assert scan(ds, feats, config).score == score

    def test_never_beats_oracle_and_usually_matches(self):
        matches = 0
        for seed in range(20):
            ds = random_dataset(seed)
            s = scan(ds, [0, 1, 2, 3], ScanConfig(restarts=20, seed=seed))
            b = brute_force_scan(ds, [0, 1, 2, 3], OVER)
            assert s.score <= b.score + 1e-9
            matches += s.score == b.score
        assert matches >= 19

    def test_under_direction_finds_low_rate_group(self):
        rng = np.random.default_rng(2)
        n = 2000
        codes = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)])
        low = codes[:, 0] == 1
        y = (rng.random(n) < np.where(low, 0.05, 0.5)).astype(int)
        ds = make_dataset([3, 2], codes, y)
        res = scan(ds, [0, 1], ScanConfig(direction=UNDER, restarts=5, seed=0))
        assert res.descriptor.constraints.get(0) == frozenset({1})

    def test_errors(self):
        ds = random_dataset(1)
        with pytest.raises(DataError):
            scan(ds, [], ScanConfig())
        with pytest.raises(DataError):
            scan(ds, [0, 0], ScanConfig())
        with pytest.raises(DataError, match="out of range"):
            scan(ds, [0, ds.n_features], ScanConfig())
        # numpy integers are indices
        assert (scan(ds, np.arange(2, dtype=np.int8), ScanConfig()).descriptor
                == scan(ds, [0, 1], ScanConfig()).descriptor)
        degenerate = make_dataset([2], [[0], [1]], [0, 0])
        with pytest.raises(DataError):
            scan(degenerate, [0], ScanConfig())

    @pytest.mark.parametrize("call, value", [
        (lambda ds: scan(ds, [0.9, 1.5]), "0.9"),
        (lambda ds: SubgroupDescriptor({0.7: {1.9}}), "0.7"),
        (lambda ds: subgroup_mask(ds, {0: [0.5]}), "0.5"),
        (lambda ds: sweep_k(ds, safs_rank(ds), [1.8, 2.2], ScanConfig(restarts=1)), "1.8"),
        (lambda ds: top_k(safs_rank(ds), 1.5), "1.5"),
        (lambda ds: stratify(ds, 0, 1.0), "1.0"),
    ])
    def test_non_integer_indices_are_rejected(self, call, value):
        # int() would truncate each of these to a valid index
        with pytest.raises(DataError, match=f"must be an integer, got {value}$"):
            call(random_dataset(1))

    @pytest.mark.parametrize("kwargs, message", [({"restarts": 0}, "restarts"),
                                                 ({"seed": -1}, "seed")])
    def test_config_errors(self, kwargs, message):
        with pytest.raises(DataError, match=message):
            ScanConfig(**kwargs)


class TestBruteForce:

    def test_single_binary_feature(self):
        codes = [[0]] * 6 + [[1]] * 6
        y = [1] * 5 + [0] * 1 + [1] * 1 + [0] * 5
        ds = make_dataset([2], codes, y)
        res = brute_force_scan(ds, [0], OVER)
        # best of {0}, {1}, unconstrained
        candidates = [SubgroupDescriptor({0: {0}}), SubgroupDescriptor({0: {1}}),
                      SubgroupDescriptor()]
        best = max(score_subgroup(ds, d, OVER)[0] for d in candidates)
        assert res.score == pytest.approx(best)
        assert res.descriptor == SubgroupDescriptor({0: {0}})

    def test_constant_rate_ties_break_to_empty(self):
        # every cell has outcome rate 1/2, so every descriptor scores 0
        rows = [(a, b) for a in range(2) for b in range(2) for _ in range(4)]
        y = [1, 1, 0, 0] * 4
        ds = make_dataset([2, 2], rows, y)
        res = brute_force_scan(ds, [0, 1], OVER)
        assert res.score == 0.0
        assert res.descriptor == SubgroupDescriptor()

    def test_guard(self):
        ds = random_dataset(3)
        big = make_dataset([12, 12, 12],
                           np.zeros((4, 3), dtype=int), [1, 0, 1, 0])
        with pytest.raises(SearchSpaceError):
            brute_force_scan(big, [0, 1, 2], OVER)

    def test_matched_set_consistency(self):
        ds = random_dataset(6)
        res = brute_force_scan(ds, [0, 1, 2, 3], OVER)
        assert set(res.matched.tolist()) == set(
            subgroup_mask(ds, res.descriptor).tolist())


class TestDescriptor:

    def test_empty_value_set_rejected(self):
        with pytest.raises(DataError):
            SubgroupDescriptor({0: set()})

    def test_equality_and_labels(self):
        ds = make_dataset([3], [[0], [1], [2]], [1, 0, 1], names=["color"])
        d = SubgroupDescriptor({0: {2, 0}})
        assert d == SubgroupDescriptor({0: {0, 2}})
        assert d.to_labels(ds) == {"color": ["0", "2"]}


def reference_step(dataset, descriptor, feature, direction):
    """One coordinate step the direct way: rebuild the mask of the other
    constraints, then run the rate-sorted prefix scan over its records."""
    mu = dataset.outcome_mean
    mask = constraints_bool_mask(dataset, descriptor.replace(feature, None).constraints)
    if not mask.any():
        raise DataError("no records match the remaining constraints")
    codes = dataset.codes[:, feature][mask]
    y = dataset.outcome[mask].astype(np.float64)
    c = dataset.schemas[feature].cardinality
    counts = np.bincount(codes, minlength=c).astype(np.float64)
    sums = np.bincount(codes, weights=y, minlength=c)
    supported = np.flatnonzero(counts > 0)
    rates = sums[supported] / counts[supported]
    sign = -1.0 if direction == OVER else 1.0
    order = supported[np.lexsort((supported, sign * rates))]
    scores = [_score_counts(n_s, sum_y, mu, direction)[0]
              for n_s, sum_y in zip(np.cumsum(counts[order]).tolist(),
                                    np.cumsum(sums[order]).tolist())]
    best = int(np.argmax(scores))
    if scores[-1] >= scores[best]:
        return None
    return frozenset(int(v) for v in order[: best + 1])


# cardinalities on both sides of the kernel's bit-count / bincount split
straddling_cards = st.one_of(st.integers(1, 4),
                             st.integers(_BITS_MAX_CARD - 1, _BITS_MAX_CARD + 3))


@st.composite
def kernel_cases(draw, cards=straddling_cards, max_rows=300):
    cards = draw(st.lists(cards, min_size=1, max_size=4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, c - 1) for c in cards]),
                         min_size=2, max_size=max_rows))
    y = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    y[0], y[1] = 1, 0  # a non-degenerate outcome
    dataset = make_dataset(cards, rows, y)
    constraints = {}
    for f, c in enumerate(cards):
        values = draw(st.one_of(st.none(), st.sets(st.integers(0, c - 1), min_size=1)))
        if values is not None:
            constraints[f] = values
    direction = draw(st.sampled_from([OVER, UNDER]))
    return dataset, SubgroupDescriptor(constraints), direction


def check_steps(ds, descriptor, direction, steps):
    """Load ``descriptor`` and step the features ``steps`` names (mod K) in
    turn: each step's set equals ``reference_step``'s and
    ``optimize_feature``'s, or all three raise, and each carried score is
    the rescored one, bit for bit."""
    kernel = _ScanKernel(ds, list(range(ds.n_features)), direction)
    score = kernel.load(descriptor)
    if constraints_bool_mask(ds, descriptor.constraints).any():
        assert score == score_subgroup(ds, descriptor, direction)[0]
    else:
        assert score is None
    for f in (s % ds.n_features for s in steps):
        try:
            expected = reference_step(ds, descriptor, f, direction)
        except DataError:
            with pytest.raises(DataError):
                optimize_feature(ds, descriptor, f, direction)
            with pytest.raises(DataError):
                kernel.step(f)
            return
        assert optimize_feature(ds, descriptor, f, direction) == expected
        values, score = kernel.step(f)
        assert values == expected
        descriptor = descriptor.replace(f, values)
        assert kernel.constraints == descriptor.constraints
        # exact: the carried score is the rescored one, bit for bit
        assert score == score_subgroup(ds, descriptor, direction)[0]


@st.composite
def two_value_cases(draw):
    """Two-category features only, and a descriptor over them. At times
    feature 0 takes value 1 on m copies of its value-0 records, so its two
    values have equal rates under any other constraints; and at times
    feature 1 never takes value 1, so that value is unsupported and the
    constraint {1} on it admits no record."""
    k = draw(st.integers(1, 4))
    rows = draw(st.lists(st.tuples(*[st.integers(0, 1)] * k), min_size=2, max_size=40))
    y = draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
    y[0], y[1] = 1, 0  # a non-degenerate outcome
    if draw(st.booleans()):
        m = draw(st.integers(1, 3))
        rows = [(0, *r[1:]) for r in rows] + [(1, *r[1:]) for r in rows] * m
        y = y * (m + 1)
    if k > 1 and draw(st.booleans()):
        rows = [(r[0], 0, *r[2:]) for r in rows]
    constraints = {}
    for f in range(k):
        values = draw(st.sampled_from([None, {0}, {1}, {0, 1}]))
        if values is not None:
            constraints[f] = values
    return make_dataset([2] * k, rows, y), SubgroupDescriptor(constraints)


class TestKernelProperties:

    @settings(max_examples=200, deadline=None)
    @given(case=kernel_cases(), steps=st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_steps_match_reference_and_rescoring(self, case, steps):
        check_steps(*case, steps)

    # the closed-form step of a two-category feature, at its edges
    @settings(max_examples=300, deadline=None)
    @given(case=two_value_cases(), direction=st.sampled_from([OVER, UNDER]),
           steps=st.lists(st.integers(0, 3), min_size=1, max_size=6))
    def test_two_value_steps_match_reference_and_rescoring(self, case, direction, steps):
        check_steps(*case, direction, steps)

    # equal rates never change the answer (the two values then score at most
    # what both do), so the memo shows the order: value 0 first, as the sort
    @settings(max_examples=300, deadline=None)
    @given(case=two_value_cases(), direction=st.sampled_from([OVER, UNDER]),
           feature=st.integers(0, 3))
    def test_two_value_step_scores_the_sorted_prefixes(self, case, direction, feature):
        ds, descriptor = case
        f = feature % ds.n_features
        closed, generic = (_ScanKernel(ds, list(range(ds.n_features)), direction)
                           for _ in range(2))
        closed.load(descriptor)
        generic.load(descriptor)
        others = closed._matching(skip=f)
        assume(others)
        assert closed._two_value_step(f, others) == generic._prefix_step(f, others)
        assert closed.scores.keys() == generic.scores.keys()

    @settings(max_examples=100, deadline=None)
    @given(case=kernel_cases(cards=st.integers(1, 4)),
           ops=st.lists(st.tuples(st.sampled_from(["load", "step", "relabel"]),
                                  st.integers(0, 2**16)), min_size=1, max_size=12))
    def test_kept_mask_is_the_and_of_every_constraint(self, case, ops):
        ds, descriptor, direction = case
        kernel = _ScanKernel(ds, list(range(ds.n_features)), direction)
        kernel.load(descriptor)
        for op, seed in ops:
            rng = np.random.default_rng(seed)
            if op == "load":
                kernel.load(SubgroupDescriptor(_random_constraints(kernel.cards, rng)))
            elif op == "step":
                try:
                    kernel.step(seed % ds.n_features)
                except DataError:
                    pass
            else:
                kernel.relabel(ds.outcome[rng.permutation(ds.n_records)])
            fresh = _bits_from_bool(constraints_bool_mask(ds, kernel.constraints))
            assert kernel.matched == fresh
            for f in range(ds.n_features):
                if f not in kernel.constraints:
                    assert kernel._matching(f) == fresh

    # feature 1 never takes value 0, so its constraint {0} admits no record;
    # features 0, 2 and 3 step by the closed form, bit counts and keys
    @pytest.mark.parametrize("feature", [0, 2, 3])
    def test_step_on_no_records_leaves_the_subgroup(self, feature):
        cards = [2, 2, 3, _BITS_MAX_CARD + 1]
        rows = [[i % 2, 1, i % 3, i % cards[3]] for i in range(40)]
        ds = make_dataset(cards, rows, [i % 3 == 0 for i in range(40)])
        kernel = _ScanKernel(ds, list(range(4)), OVER)
        assert kernel.load(SubgroupDescriptor({0: {0}, 1: {0}, 2: {1, 2}, 3: {0, 5}})) is None
        before = dict(kernel.constraints), dict(kernel.allowed), kernel.matched
        with pytest.raises(DataError, match="no records match the remaining constraints"):
            kernel.step(feature)
        assert (kernel.constraints, kernel.allowed, kernel.matched) == before

    @settings(max_examples=150, deadline=None)
    @given(case=kernel_cases(cards=st.integers(1, 6)), step=st.integers(0, 3))
    def test_step_beats_every_subset_of_supported_values(self, case, step):
        # prefix optimality under the other constraints
        ds, descriptor, direction = case
        f = step % ds.n_features
        others = descriptor.replace(f, None)
        matching = constraints_bool_mask(ds, others.constraints)
        assume(matching.any())
        values = optimize_feature(ds, descriptor, f, direction)
        got = score_subgroup(ds, others.replace(f, values), direction)[0]
        supported = np.unique(ds.codes[matching, f]).tolist()
        for r in range(1, len(supported) + 1):
            for subset in itertools.combinations(supported, r):
                score = score_subgroup(ds, others.replace(f, frozenset(subset)), direction)[0]
                # exact in real arithmetic; distinct counts may round within an ulp
                assert got >= score * (1 - 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(case=kernel_cases(cards=st.integers(1, 3), max_rows=60), seed=st.integers(0, 2**16))
    def test_scan_never_beats_oracle(self, case, seed):
        ds, _, direction = case
        feats = list(range(ds.n_features))
        got = scan(ds, feats, ScanConfig(direction=direction, restarts=3, seed=seed))
        assert got.score <= brute_force_scan(ds, feats, direction).score + 1e-9


def one_feature_kernel(card, n=1003):
    """A kernel on one feature of ``card`` categories, every one present,
    over ``n`` random records; and the feature's codes."""
    rng = np.random.default_rng(card)
    codes = rng.integers(0, card, n)
    codes[:card] = np.arange(card)
    y = rng.integers(0, 2, n)
    y[:2] = 1, 0
    return _ScanKernel(make_dataset([card], codes[:, None], y), [0], OVER), codes


class TestKernelRoutes:

    # a wide feature counts the keys its unpacked mask selects up to n/16
    # admitted records, else weighs every key by that mask. The last record,
    # in the mask's part-filled last byte (n = 1003), is always admitted.
    # Both routes also count a permuted outcome's keys
    @pytest.mark.parametrize("card", [_BITS_MAX_CARD + 1, 64, 65, 300])
    @pytest.mark.parametrize("admitted", [1, 1003 // 64, 1003 // 16, 1003 // 16 + 1,
                                          1003 // 5, 1003])
    def test_wide_value_counts_match_a_direct_tally(self, card, admitted):
        kernel, codes = one_feature_kernel(card)
        rng = np.random.default_rng(admitted)
        mask = np.zeros(kernel.n, dtype=bool)
        mask[np.r_[kernel.n - 1, rng.permutation(kernel.n - 1)[:admitted - 1]]] = True
        for y in (kernel.outcome, rng.permutation(kernel.outcome)):
            kernel.relabel(y)
            both = np.bincount(2 * codes + y, weights=mask, minlength=2 * card).astype(int)
            counts, sums = kernel._value_counts(0, _bits_from_bool(mask))
            assert counts == (both[0::2] + both[1::2]).tolist()
            assert sums == both[1::2].tolist()

    # ORed value masks up to 64 categories, a rebuild from the keys above
    @pytest.mark.parametrize("card", [_BITS_MAX_CARD, _BITS_MAX_CARD + 1, 64, 65])
    def test_constrained_mask_matches_isin(self, card):
        kernel, codes = one_feature_kernel(card)
        rng = np.random.default_rng(0)
        for size in (1, 2, card // 2, card - 1):
            values = frozenset(rng.choice(card, size, replace=False).tolist())
            assert kernel._mask(0, values) == _bits_from_bool(np.isin(codes, sorted(values)))


@st.composite
def synth_cases(draw):
    """A small tests/synth.py dataset, a direction and a restart count."""
    seed = draw(st.integers(0, 2**16))
    make = draw(st.sampled_from([
        lambda: planted_dataset(seed, n=300, n_noise=3)[0],
        lambda: random_dataset(seed, n=150),
        lambda: random_dataset(seed, n=150, max_card=_BITS_MAX_CARD + 4),
        lambda: noise_dataset(seed, n=90),
    ]))
    direction = draw(st.sampled_from([OVER, UNDER]))
    restarts = draw(st.sampled_from([1, 5]))
    return make(), ScanConfig(direction=direction, restarts=restarts, seed=seed)


def every_step_ascent(kernel, score, features, rng):
    """The coordinate ascent that steps every feature in every pass."""
    for _ in range(_MAX_PASSES):
        start = score
        for f in rng.permutation(np.asarray(features)):
            _, score = kernel.step(int(f))
        if score <= start:
            break
    return SubgroupDescriptor(kernel.constraints), score


class CountingKernel(_ScanKernel):
    steps = 0

    def step(self, feature):
        self.steps += 1
        return super().step(feature)


class TestAscent:

    @settings(max_examples=60, deadline=None)
    @given(case=synth_cases())
    def test_skipping_settled_steps_changes_nothing(self, case):
        ds, config = case
        feats = list(range(ds.n_features))
        skipping = CountingKernel(ds, feats, config.direction)
        every = CountingKernel(ds, feats, config.direction)
        for child in np.random.SeedSequence(config.seed).spawn(config.restarts):
            rng = np.random.default_rng(child)
            start = SubgroupDescriptor(_random_constraints(skipping.cards, rng))
            score = skipping.load(start)
            assume(score is not None)
            assert every.load(start) == score
            rng_skipping, rng_every = (np.random.default_rng(child) for _ in range(2))
            skipped_score, _ = _ascend(skipping, _Restart(start, rng_skipping))
            assert ((SubgroupDescriptor(skipping.constraints), skipped_score)
                    == every_step_ascent(every, score, feats, rng_every))
            # the same passes: the same draws
            assert rng_skipping.random() == rng_every.random()
        assert skipping.steps <= every.steps


def per_feature_descriptor(cards, features, rng):
    """The random start drawn one ``rng.random(c)`` call per feature."""
    constraints = {}
    for f in features:
        c = cards[f]
        while True:
            picks = np.flatnonzero(rng.random(c) < 0.5)
            if picks.size:
                break
        if picks.size < c:
            constraints[f] = frozenset(int(v) for v in picks)
    return SubgroupDescriptor(constraints)


class TestRandomStart:

    @settings(max_examples=200, deadline=None)
    @given(cards=st.lists(st.one_of(st.just(1), st.just(2), st.integers(3, 15)),
                          min_size=1, max_size=8),
           seed=st.integers(0, 2**32 - 1), starts=st.integers(1, 6))
    def test_start_matches_the_per_feature_loop(self, cards, seed, starts):
        # cardinality 1 and 2 features retry often, which moves later draws
        features = list(range(len(cards)))[::-1]
        card_of = {f: cards[f] for f in features}
        batched, looped = (np.random.default_rng(seed) for _ in range(2))
        for _ in range(starts):
            assert (SubgroupDescriptor(_random_constraints(card_of, batched))
                    == per_feature_descriptor(card_of, features, looped))
        assert batched.bit_generator.state == looped.bit_generator.state


class TestRelabelledScores:

    @settings(max_examples=40, deadline=None)
    @given(case=synth_cases(), permutations=st.integers(1, 6))
    def test_shared_kernel_matches_a_fresh_scan_per_replicate(self, case, permutations):
        ds, config = case
        feats = list(range(ds.n_features))
        seeds = np.random.SeedSequence([_PERMUTE_KEY, config.seed]).spawn(permutations)
        orders = [np.random.default_rng(s).permutation(ds.n_records) for s in seeds]
        # reference: the scan of a dataset built with each permuted outcome
        expected = [scan(DiscreteDataset(ds.schemas, ds.codes, ds.outcome[order],
                                         ds.outcome_name), feats, config).score
                    for order in orders]
        result = scan(ds, feats, config)
        assert result._search.permuted_scores(permutations)[0] == expected
        exceed = sum(1 for s in expected if s >= result.score)
        assert empirical_p_value(result, permutations) == (1 + exceed) / (permutations + 1)


def reference_scan(dataset, features, config):
    """(score, descriptor, cut off) of each restart of the restart loop
    without a plan or a memo: a generator per restart, up to 100 random
    starts before the unconstrained fallback, a fresh ``rng.permutation`` per
    pass, and every step and score recomputed from the records by
    ``reference_step`` and ``score_subgroup``."""
    cards = {f: dataset.schemas[f].cardinality for f in features}
    found = []
    for r, child in enumerate(np.random.SeedSequence(config.seed).spawn(config.restarts)):
        rng = np.random.default_rng(child)
        descriptor = SubgroupDescriptor()
        if r > 0:
            for _ in range(100):
                drawn = SubgroupDescriptor(_random_constraints(cards, rng))
                if constraints_bool_mask(dataset, drawn.constraints).any():
                    descriptor = drawn
                    break
        score = score_subgroup(dataset, descriptor, config.direction)[0]
        cut_off = True
        for _ in range(scanner._MAX_PASSES):
            start = score
            for f in rng.permutation(np.asarray(features)).tolist():
                values = reference_step(dataset, descriptor, f, config.direction)
                descriptor = descriptor.replace(f, values)
                score = score_subgroup(dataset, descriptor, config.direction)[0]
            if score <= start:
                cut_off = False
                break
        found.append((score, descriptor, cut_off))
    return found


def best_restart(found):
    """(score, descriptor) of the winning restart: ties go to the smaller sort key."""
    score, descriptor, _ = min(found, key=lambda d: (-d[0], d[1].sort_key()))
    return score, descriptor


def check_restarts(dataset, features, config):
    """Scan, and check the scan and each of its restarts against
    ``reference_scan``; returns the scan's result."""
    got = scan(dataset, features, config)
    found = reference_scan(dataset, features, config)
    assert (got.score, got.descriptor) == best_restart(found)
    assert got.truncated_ascents == sum(cut_off for _, _, cut_off in found)
    check_climbs(dataset, _climb(got._search.kernel, got._search.plan), found)
    return got


def check_climbs(dataset, climbs, found):
    """``_climb``'s records equal ``reference_scan``'s restart by restart, and
    each bitmask holds the records its constraints match."""
    assert [(c.score, SubgroupDescriptor(c.constraints), c.cut_off) for c in climbs] == found
    for c in climbs:
        assert c.matched == _bits_from_bool(constraints_bool_mask(dataset, c.constraints))


@st.composite
def plan_cases(draw):
    """A dataset, a direction and 1-5 restarts; on 2-4 records over 12-24
    binary features most random starts match no record and fall back."""
    seed = draw(st.integers(0, 2**16))
    make = draw(st.sampled_from([
        lambda: planted_dataset(seed, n=200, n_noise=3)[0],
        lambda: random_dataset(seed, n=120, max_card=_BITS_MAX_CARD + 4),
        lambda: noise_dataset(seed, n=60),
        lambda: random_dataset(seed, n=draw(st.integers(2, 4)),
                               n_features=draw(st.integers(12, 24)), max_card=2),
    ]))
    config = ScanConfig(direction=draw(st.sampled_from([OVER, UNDER])),
                        restarts=draw(st.integers(1, 5)), seed=seed)
    return make(), config


class TestRestartPlan:

    @settings(max_examples=60, deadline=None)
    @given(case=plan_cases(), permutations=st.integers(1, 3))
    def test_plan_and_memo_match_the_per_restart_loop(self, case, permutations):
        ds, config = case
        feats = list(range(ds.n_features))
        got = check_restarts(ds, feats, config)
        seeds = np.random.SeedSequence([_PERMUTE_KEY, config.seed]).spawn(permutations)
        orders = [np.random.default_rng(s).permutation(ds.n_records) for s in seeds]
        expected = [reference_scan(DiscreteDataset(ds.schemas, ds.codes, ds.outcome[order],
                                                   ds.outcome_name), feats, config)
                    for order in orders]
        assert got._search.permuted_scores(permutations) == (
            [best_restart(found)[0] for found in expected],
            sum(cut_off for found in expected for _, _, cut_off in found))
        kernel, plan = got._search.kernel, got._search.plan
        for order, found in zip(orders, expected):
            kernel.relabel(ds.outcome[order])
            check_climbs(ds, _climb(kernel, plan), found)
        kernel.relabel(ds.outcome)
        # ascents cut off after one pass
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(scanner, "_MAX_PASSES", 1)
            check_restarts(ds, feats, config)

    # 3 records over 30 binary features: every random start falls back; on
    # 20 records, a third of the draws over 26-77 categories match none, and
    # the 77-category feature builds its masks from its keys
    @pytest.mark.parametrize("make", [
        lambda: random_dataset(0, n=3, n_features=30, max_card=2),
        lambda: random_dataset(1, n=4, n_features=12, max_card=2),
        lambda: random_dataset(2, n=40, n_features=6, max_card=5),
        lambda: random_dataset(0, n=20, n_features=4, max_card=90),
    ])
    def test_rejected_starts_match_the_loaded_draws(self, make):
        ds = make()
        feats = list(range(ds.n_features))
        config = ScanConfig(restarts=6, seed=7)
        plan = _restart_plan(_ScanKernel(ds, feats, OVER), config)
        # the loop that built and loaded every drawn descriptor
        kernel = _ScanKernel(ds, feats, OVER)
        for r, (restart, child) in enumerate(
                zip(plan, np.random.SeedSequence(config.seed).spawn(config.restarts))):
            rng = np.random.default_rng(child)
            start, fell_back = SubgroupDescriptor(), False
            if r > 0:
                for _ in range(100):
                    drawn = SubgroupDescriptor(_random_constraints(kernel.cards, rng))
                    if kernel.load(drawn) is not None:
                        start = drawn
                        break
                else:
                    fell_back = True
            assert (restart.start, restart.fell_back) == (start, fell_back)
            assert restart.rng.bit_generator.state == rng.bit_generator.state
        if ds.n_features == 30:
            assert [r.fell_back for r in plan] == [False] + [True] * 5

    def test_memo_is_shared_by_replicates(self):
        ds = planted_dataset(0, n=500, n_noise=3)[0]
        kernel = _ScanKernel(ds, list(range(ds.n_features)), OVER)
        plan = _restart_plan(kernel, ScanConfig(restarts=3))
        for restart in plan:
            _ascend(kernel, restart)
        entries, passes = len(kernel.scores), [len(r.orders) for r in plan]
        assert entries > 0
        # the same labels again: every prefix score and pass order is reused
        for restart in plan:
            _ascend(kernel, restart)
        assert (len(kernel.scores), [len(r.orders) for r in plan]) == (entries, passes)

    def test_relabelling_must_keep_the_positives(self):
        ds = planted_dataset(0, n=200, n_noise=1)[0]
        kernel = _ScanKernel(ds, [0, 1], OVER)
        kernel.relabel(ds.outcome[::-1])
        with pytest.raises(DataError, match="positive"):
            kernel.relabel(1 - ds.outcome)


class TestSearchLimits:

    def test_fallback_starts_are_counted(self):
        # a random start over 30 binary features matches one of 2 records
        # with probability 2 * (2/3)^30: every random restart falls back
        ds = random_dataset(0, n=2, n_features=30, max_card=2)
        result = scan(ds, list(range(30)), ScanConfig(restarts=4))
        assert (result.fallback_starts, result.truncated_ascents) == (3, 0)
        planted = planted_dataset(0, n=500, n_noise=3)[0]
        result = scan(planted, [0, 1, 2, 3], ScanConfig(restarts=4))
        assert (result.fallback_starts, result.truncated_ascents) == (0, 0)

    def test_truncated_ascents_are_counted(self, monkeypatch):
        ds = planted_dataset(0, n=500, n_noise=3)[0]
        config = ScanConfig(restarts=4)
        full = scan(ds, [0, 1, 2, 3], config)
        monkeypatch.setattr(scanner, "_MAX_PASSES", 1)
        # from the unconstrained start the first pass always improves here
        cut = check_restarts(ds, [0, 1, 2, 3], config)
        assert cut.truncated_ascents >= 1
        assert full.truncated_ascents == 0
        assert brute_force_scan(ds, [0, 1, 2], OVER).truncated_ascents == 0


# global rates mu = positives / N that a dataset of N records can have
rates = st.integers(2, 10**9).flatmap(
    lambda total: st.integers(1, total - 1).map(lambda positives: positives / total))


@st.composite
def score_cases(draw):
    """Aggregate counts, sum_y in {0, n_s} included, a rate and a direction."""
    n_s = draw(st.integers(1, 10**9))
    sum_y = draw(st.one_of(st.just(0), st.just(n_s), st.integers(0, n_s)))
    return n_s, sum_y, draw(rates), draw(st.sampled_from([OVER, UNDER]))


class TestScoreProperties:

    @settings(max_examples=500, deadline=None)
    @given(case=score_cases())
    def test_score_and_q_hat_ranges(self, case):
        n_s, sum_y, mu, direction = case
        score, q_hat = _score_counts(n_s, sum_y, mu, direction)
        assert score >= 0.0
        assert q_hat >= 1.0 if direction == OVER else q_hat <= 1.0

    @settings(max_examples=500, deadline=None)
    @given(n_s=st.integers(2, 10**9), mu=rates, data=st.data())
    def test_matches_closed_form_away_from_limits(self, n_s, mu, data):
        sum_y = data.draw(st.integers(1, n_s - 1))
        q = (sum_y * (1.0 - mu)) / (mu * (n_s - sum_y))
        # near q = 1 the two terms cancel to rounding noise
        assume(abs(math.log(q)) > 1e-2)
        direction = OVER if q > 1.0 else UNDER
        score, q_hat = _score_counts(n_s, sum_y, mu, direction)
        assert q_hat == q
        expected = math.log(q) * sum_y - n_s * math.log(1.0 - mu + q * mu)
        assert score == pytest.approx(expected, rel=1e-12)
