import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from safs import (
    ContingencyTable,
    DataError,
    gini_index,
    mutual_information_rank,
    safs_rank,
    stratify,
    top_k,
    yules_y,
)
from safs.ranking import yules_y_per_value
from synth import make_dataset, random_dataset

# --- independent reference implementations -------------------------------

def naive_yule(a, b, d, g):
    if min(a, b, d, g) == 0:
        a, b, d, g = a + 0.5, b + 0.5, d + 0.5, g + 0.5
    ag, bd = math.sqrt(a * g), math.sqrt(b * d)
    return (ag - bd) / (ag + bd)


def naive_gini(values):
    v = sorted(values)
    c = len(v)
    total = sum(v)
    if total == 0:
        return 0.0
    return 1.0 - 2.0 * sum(v[i - 1] / total * ((c - i + 0.5) / c)
                           for i in range(1, c + 1))


def naive_safs_scores(dataset):
    """Literal per-value stratification, association, sparsity chain."""
    scores = []
    for m in range(dataset.n_features):
        c = dataset.schemas[m].cardinality
        if c == 1:
            scores.append(0.0)
            continue
        coeffs = []
        for u in range(c):
            t = stratify(dataset, m, u)
            coeffs.append(abs(naive_yule(t.alpha, t.beta, t.delta, t.gamma)))
        scores.append(naive_gini(coeffs))
    return scores


class TestYulesY:

    def test_balanced_table_is_zero(self):
        assert yules_y(ContingencyTable(1, 1, 1, 1)) == 0.0

    def test_derived_value(self):
        # (sqrt(1200) - sqrt(200)) / (sqrt(1200) + sqrt(200))
        assert yules_y(ContingencyTable(30, 10, 20, 40)) == pytest.approx(
            0.420204102887, abs=1e-10)

    def test_zero_cell_correction(self):
        # +0.5 on all cells: (10.5 - 0.5) / 11
        assert yules_y(ContingencyTable(10, 0, 0, 10)) == pytest.approx(
            10 / 11, abs=1e-12)

    def test_all_zero_raises(self):
        with pytest.raises(DataError):
            yules_y(ContingencyTable(0, 0, 0, 0))

    def test_range_and_sign(self):
        rng = np.random.default_rng(0)
        tables = rng.integers(1, 200, size=(10_000, 4))
        for a, b, d, g in tables:
            y = yules_y(ContingencyTable(int(a), int(b), int(d), int(g)))
            assert -1.0 <= y <= 1.0
            assert np.sign(y) == np.sign(a * g - b * d)

    def test_symmetry_negation(self):
        rng = np.random.default_rng(1)
        for a, b, d, g in rng.integers(1, 100, size=(500, 4)):
            y = yules_y(ContingencyTable(int(a), int(b), int(d), int(g)))
            swapped = yules_y(ContingencyTable(int(b), int(a), int(g), int(d)))
            assert swapped == pytest.approx(-y, abs=1e-12)

    @settings(max_examples=100, deadline=None)
    @given(data=st.data())
    def test_table_route_is_the_per_value_entry(self, data):
        card = data.draw(st.integers(1, 5))
        rows = data.draw(st.lists(st.integers(0, card - 1), min_size=1, max_size=200))
        y = data.draw(st.lists(st.integers(0, 1), min_size=len(rows), max_size=len(rows)))
        ds = make_dataset([card], [[r] for r in rows], y)
        per_value = yules_y_per_value(ds, 0)
        for u in range(card):
            assert yules_y(stratify(ds, 0, u)) == per_value[u]

    def test_vectorized_matches_scalar_route(self):
        for seed in range(10):
            ds = random_dataset(seed)
            for m in range(ds.n_features):
                vec = yules_y_per_value(ds, m)
                for u in range(ds.schemas[m].cardinality):
                    assert vec[u] == pytest.approx(
                        yules_y(stratify(ds, m, u)), abs=1e-12)


class TestGiniIndex:

    @pytest.mark.parametrize("c", [1, 2, 5, 17])
    @pytest.mark.parametrize("value", [0.3, 1.0, 42.0])
    def test_uniform_is_zero(self, c, value):
        assert gini_index([value] * c) == pytest.approx(0.0, abs=1e-12)

    def test_one_hot(self):
        assert gini_index([0, 0, 1]) == pytest.approx(2 / 3, abs=1e-12)
        for c in (2, 4, 10):
            v = [0.0] * c
            v[-1] = 5.0
            assert gini_index(v) == pytest.approx(1 - 1 / c, abs=1e-12)

    def test_hand_evaluated(self):
        assert gini_index([0.1, 0.2, 0.7]) == pytest.approx(0.4, abs=1e-12)

    def test_zero_vector(self):
        assert gini_index([0.0, 0.0]) == 0.0

    def test_matches_reference_on_random_vectors(self):
        rng = np.random.default_rng(2)
        for _ in range(200):
            v = rng.random(int(rng.integers(1, 30))) * 10
            assert gini_index(v) == pytest.approx(naive_gini(v), abs=1e-12)

    def test_range(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            v = rng.random(int(rng.integers(1, 64)))
            assert 0.0 <= gini_index(v) < 1.0

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            gini_index([])
        with pytest.raises(DataError):
            gini_index([1.0, -0.1])


class TestSafsRank:

    def test_single_feature(self):
        ds = make_dataset([2], [[0], [1], [0], [1]], [1, 0, 1, 1])
        r = safs_rank(ds)
        assert r.features == [0]

    def test_sparse_coefficients_beat_uniform(self):
        # direct statement of the ranking criterion on coefficient vectors
        assert gini_index([0.9, 0.0, 0.0]) > gini_index([0.3, 0.3, 0.3]) == 0.0

    def test_determining_feature_beats_noise(self):
        # f0: one value of three fully determines y; f1: binary uniform noise
        rng = np.random.default_rng(11)
        n = 1000
        codes = np.column_stack([rng.integers(0, 3, n), rng.integers(0, 2, n)])
        y = (codes[:, 0] == 0).astype(int)
        ds = make_dataset([3, 2], codes, y)
        r = safs_rank(ds)
        assert r.features[0] == 0
        # dual route: brute-force chain of stratify -> Yule -> Gini
        expected = naive_safs_scores(ds)
        for f, score in r.entries:
            assert score == pytest.approx(expected[f], abs=1e-12)

    def test_matches_reference_chain(self):
        for seed in range(5):
            ds = random_dataset(seed, n_features=5, max_card=4)
            expected = naive_safs_scores(ds)
            for f, score in safs_rank(ds).entries:
                assert score == pytest.approx(expected[f], abs=1e-12)

    def test_deterministic(self):
        ds = random_dataset(7)
        assert safs_rank(ds) == safs_rank(ds)

    def test_invariant_to_record_order(self):
        ds = random_dataset(8)
        perm = np.random.default_rng(0).permutation(ds.n_records)
        shuffled = make_dataset(
            [s.cardinality for s in ds.schemas], ds.codes[perm], ds.outcome[perm])
        assert safs_rank(shuffled).entries == safs_rank(ds).entries

    def test_invariant_to_label_renaming(self):
        ds = random_dataset(9)
        # reverse the code order of feature 0; scores must not change
        c = ds.schemas[0].cardinality
        codes = ds.codes.copy()
        codes[:, 0] = c - 1 - codes[:, 0]
        renamed = make_dataset([s.cardinality for s in ds.schemas], codes, ds.outcome)
        got = dict(safs_rank(renamed).entries)
        want = dict(safs_rank(ds).entries)
        assert got == pytest.approx(want)

    def test_single_valued_feature_scores_zero(self):
        ds = make_dataset([1, 2], [[0, 0], [0, 1], [0, 0]], [1, 0, 1])
        assert dict(safs_rank(ds).entries)[0] == 0.0

    def test_ranking_is_permutation_sorted_desc(self):
        ds = random_dataset(10, n_features=6)
        r = safs_rank(ds)
        assert sorted(r.features) == list(range(6))
        scores = [s for _, s in r.entries]
        assert scores == sorted(scores, reverse=True)


class TestMutualInformation:

    def test_independent_feature_is_zero(self):
        # exact product joint: 2 values x 2 outcomes, each cell 25 rows
        codes = [[v] for v in [0] * 50 + [1] * 50]
        y = ([1] * 25 + [0] * 25) * 2
        ds = make_dataset([2], codes, y)
        assert dict(mutual_information_rank(ds).entries)[0] == pytest.approx(0.0, abs=1e-12)

    def test_identical_to_outcome(self):
        codes = [[1], [1], [0], [0]]
        ds = make_dataset([2], codes, [1, 1, 0, 0])
        assert dict(mutual_information_rank(ds).entries)[0] == pytest.approx(
            math.log(2), abs=1e-12)

    def test_four_row_example(self):
        ds = make_dataset([2], [[0], [0], [1], [1]], [1, 1, 0, 0])
        assert dict(mutual_information_rank(ds).entries)[0] == pytest.approx(
            0.6931471805599453, abs=1e-12)

    def test_non_negative(self):
        for seed in range(10):
            ds = random_dataset(seed)
            assert all(s >= -1e-15 for _, s in mutual_information_rank(ds).entries)


class TestTopK:

    def test_full_and_head(self):
        ds = random_dataset(12, n_features=5)
        r = safs_rank(ds)
        assert top_k(r, 5) == r.features
        assert top_k(r, 1) == [r.features[0]]

    def test_out_of_range(self):
        r = safs_rank(random_dataset(13))
        with pytest.raises(DataError):
            top_k(r, 0)
        with pytest.raises(DataError):
            top_k(r, len(r.entries) + 1)

    def test_fraction_of_features_retained(self):
        # 20 of 41 features is 48.8% of the feature set
        assert round(100 * 20 / 41, 1) == 48.8
