import numpy as np
import pytest

from safs import (
    DataError,
    ScanConfig,
    jaccard,
    overlap_matrix,
    rank_biased_overlap,
    safs_rank,
    sweep_k,
)
from synth import planted_dataset, random_dataset


class TestRankBiasedOverlap:

    def test_identical(self):
        assert rank_biased_overlap([3, 1, 2], [3, 1, 2]) == pytest.approx(1.0)
        assert rank_biased_overlap(list(range(50)), list(range(50))) == pytest.approx(1.0)

    def test_reversed_pair(self):
        # depth 2: agreements are 0 then 1, extrapolated with p = 0.9
        assert rank_biased_overlap([0, 1], [1, 0]) == pytest.approx(0.9, abs=1e-12)

    def test_reversed_long_list_is_low(self):
        items = list(range(40))
        value = rank_biased_overlap(items, items[::-1])
        assert value == pytest.approx(0.0661574, abs=1e-6)
        assert value < 0.5

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            a = list(rng.permutation(12))
            b = list(rng.permutation(12))
            assert rank_biased_overlap(a, b) == pytest.approx(
                rank_biased_overlap(b, a), abs=1e-12)

    def test_top_weighted(self):
        # swapping the top pair hurts more than swapping the bottom pair
        base = list(range(10))
        top_swap = [1, 0] + base[2:]
        bottom_swap = base[:8] + [9, 8]
        assert rank_biased_overlap(base, top_swap) < rank_biased_overlap(base, bottom_swap)

    def test_range(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            n = int(rng.integers(1, 20))
            a, b = list(rng.permutation(n)), list(rng.permutation(n))
            assert 0.0 < rank_biased_overlap(a, b) <= 1.0 + 1e-12

    def test_invalid_inputs(self):
        with pytest.raises(DataError):
            rank_biased_overlap([0, 1], [0, 2])
        with pytest.raises(DataError):
            rank_biased_overlap([0, 1, 1], [1, 0, 1])
        with pytest.raises(DataError):
            rank_biased_overlap([0, 1], [1, 0], p=1.0)
        with pytest.raises(DataError):
            rank_biased_overlap([0, 1], [1, 0], p=0.0)
        with pytest.raises(DataError):
            rank_biased_overlap([], [])


class TestOverlapMatrix:

    def test_structure(self):
        rng = np.random.default_rng(2)
        rankings = {name: list(rng.permutation(8)) for name in ("a", "b", "c")}
        m = overlap_matrix(rankings)
        assert m.methods == ("a", "b", "c")
        assert np.allclose(np.diag(m.matrix), 1.0)
        assert np.allclose(m.matrix, m.matrix.T)
        assert ((m.matrix > 0) & (m.matrix <= 1.0 + 1e-12)).all()

    def test_entries_match_pairwise_calls(self):
        rankings = {"x": [0, 1, 2, 3], "y": [3, 2, 1, 0]}
        m = overlap_matrix(rankings)
        assert m.matrix[0, 1] == pytest.approx(rank_biased_overlap([0, 1, 2, 3], [3, 2, 1, 0]))


class TestJaccard:

    def test_basics(self):
        assert jaccard([1, 2, 3], [1, 2, 3]) == 1.0
        assert jaccard([1, 2], [3, 4]) == 0.0
        assert jaccard([1, 2, 3], [2, 3, 4]) == pytest.approx(0.5)
        assert jaccard([], []) == 1.0
        assert jaccard([], [1]) == 0.0

    def test_distance_triangle_inequality(self):
        rng = np.random.default_rng(3)
        universe = np.arange(20)
        for _ in range(100):
            a, b, c = (set(rng.choice(universe, int(rng.integers(0, 15)),
                                      replace=False).tolist()) for _ in range(3))
            dab, dbc, dac = 1 - jaccard(a, b), 1 - jaccard(b, c), 1 - jaccard(a, c)
            assert dac <= dab + dbc + 1e-12


class TestSweepK:

    def test_planted_sweep(self):
        ds, truth, inside = planted_dataset(0, n=1500, n_noise=5)
        ranking = safs_rank(ds)
        config = ScanConfig(restarts=5, seed=0)
        entries = sweep_k(ds, ranking, [2, 4, 6, 8], config)
        assert [e.k for e in entries] == [2, 4, 6, 8]
        # K = M entry is compared against itself
        assert entries[-1].jaccard_vs_full == pytest.approx(1.0)
        for e in entries:
            assert 0.0 <= e.jaccard_vs_full <= 1.0
            assert e.result.elapsed > 0
            assert e.report.subset_size == e.result.subset_size
            assert e.report.p_value is None

    def test_optional_p_values(self):
        ds = random_dataset(4, n=150, n_features=3)
        entries = sweep_k(ds, safs_rank(ds), [1, 3], ScanConfig(restarts=2, seed=1),
                          permutations=19)
        for e in entries:
            assert e.report.p_value is not None
            assert 1 / 20 <= e.report.p_value <= 1.0

    def test_k_validation(self):
        ds = random_dataset(5)
        ranking = safs_rank(ds)
        config = ScanConfig(restarts=1, seed=0)
        for bad in ([], [0, 2], [2, 5], [3, 2], [2, 2]):
            with pytest.raises(DataError):
                sweep_k(ds, ranking, bad, config)
        with pytest.raises(DataError):
            sweep_k(ds, ranking, [1, 2], config, permutations=-1)
