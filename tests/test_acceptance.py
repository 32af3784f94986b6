"""End-to-end acceptance checks. Each test prints one PASS line with the
measured quantity so a full run gives a one-screen scorecard:

    python3 -m pytest tests/test_acceptance.py -v -s
"""

import itertools
import os
import time

import numpy as np
import pytest

from safs import (
    ContingencyTable,
    ScanConfig,
    SubgroupDescriptor,
    brute_force_scan,
    empirical_p_value,
    gini_index,
    jaccard,
    load_csv,
    mutual_information_rank,
    optimize_feature,
    safs_rank,
    scan,
    score_subgroup,
    subgroup_mask,
    top_k,
    yules_y,
)
from synth import PLANTED_CONSTRAINTS, make_dataset, noise_dataset, planted_dataset, random_dataset


def _spearman(x, y):
    """Spearman rank correlation (ties broken by position; inputs distinct)."""
    rx = np.argsort(np.argsort(x)).astype(float)
    ry = np.argsort(np.argsort(y)).astype(float)
    return float(np.corrcoef(rx, ry)[0, 1])


def test_acceptance_1_gini_axioms():
    rng = np.random.default_rng(0)
    t0 = time.perf_counter()
    checked = 0
    for _ in range(1000):
        c = int(rng.integers(2, 65))
        v = rng.random(c) * 10 + 1e-6
        g = gini_index(v)

        # Robin Hood: moving mass from a larger to a smaller entry lowers it
        hi, lo = int(np.argmax(v)), int(np.argmin(v))
        transfer = 0.25 * (v[hi] - v[lo])
        if transfer > 0:
            w = v.copy()
            w[hi] -= transfer
            w[lo] += transfer
            assert gini_index(w) < g

        # Scaling: invariant under positive rescaling
        scale = float(rng.uniform(0.01, 100.0))
        assert abs(gini_index(scale * v) - g) <= 1e-12

        # Rising Tide: adding a constant to all entries lowers it (non-uniform v)
        if np.ptp(v) > 1e-9:
            assert gini_index(v + float(rng.uniform(0.1, 5.0))) < g

        # Cloning: duplicating the population leaves it unchanged
        assert abs(gini_index(np.concatenate([v, v])) - g) <= 1e-9

        # Bill Gates: growing one entry without bound raises it monotonically
        w = v.copy()
        grown = []
        for factor in (10.0, 100.0, 1e4, 1e6, 1e8):
            w2 = v.copy()
            w2[hi] = v.max() * factor
            grown.append(gini_index(w2))
        assert all(grown[i] < grown[i + 1] for i in range(len(grown) - 1))

        # Babies: appending a zero entry strictly raises it
        assert gini_index(np.append(v, 0.0)) > g
        checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0
    print(f"\nACCEPTANCE 1 PASS: gini axioms on {checked} vectors, "
          f"0 violations, {elapsed:.2f}s")


def test_acceptance_2_yules_y_contract():
    rng = np.random.default_rng(1)
    tables = rng.integers(1, 500, size=(100_000, 4))
    for a, b, d, g in tables:
        y = yules_y(ContingencyTable(int(a), int(b), int(d), int(g)))
        assert -1.0 <= y <= 1.0
        assert np.sign(y) == np.sign(int(a) * int(g) - int(b) * int(d))
    # uncorrected symmetry negation on a subsample
    for a, b, d, g in tables[:2000]:
        swapped = yules_y(ContingencyTable(int(b), int(a), int(g), int(d)))
        assert abs(swapped + yules_y(ContingencyTable(int(a), int(b), int(d), int(g)))) <= 1e-12
    value = yules_y(ContingencyTable(30, 10, 20, 40))
    assert value == pytest.approx(0.4202, abs=1e-4)
    print(f"\nACCEPTANCE 2 PASS: 100000 tables in range with correct sign, "
          f"symmetry to 1e-12, reference table = {value:.6f}")


def test_acceptance_3_scanner_vs_oracle():
    t0 = time.perf_counter()
    exact = 0
    for seed in range(100):
        ds = random_dataset(seed, n=200, n_features=4, max_card=3)
        features = list(range(4))
        got = scan(ds, features, ScanConfig(restarts=20, seed=seed)).score
        best = brute_force_scan(ds, features).score
        assert got <= best + 1e-9
        exact += abs(got - best) <= 1e-9
    elapsed = time.perf_counter() - t0
    assert exact >= 95
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 3 PASS: scan matched the exhaustive optimum in "
          f"{exact}/100 instances (never above), {elapsed:.1f}s")


def test_acceptance_4_prefix_optimality():
    rng = np.random.default_rng(2)
    hits = 0
    for _ in range(500):
        c = int(rng.integers(2, 9))
        n = int(rng.integers(30, 120))
        codes = rng.integers(0, c, (n, 1))
        y = (rng.random(n) < rng.uniform(0.15, 0.85, c)[codes[:, 0]]).astype(int)
        if y.sum() in (0, n):
            y[0] = 1 - y[0]
        ds = make_dataset([c], codes, y)
        chosen = optimize_feature(ds, SubgroupDescriptor(), 0)
        chosen_score = score_subgroup(
            ds, SubgroupDescriptor({} if chosen is None else {0: chosen}))[0]
        best = max(
            score_subgroup(ds, SubgroupDescriptor({0: frozenset(sub)}))[0]
            for r in range(1, c + 1)
            for sub in itertools.combinations(range(c), r)
            if any((codes[:, 0] == v).any() for v in sub))
        assert chosen_score == pytest.approx(best, abs=1e-9)
        hits += 1
    print(f"\nACCEPTANCE 4 PASS: single-feature optimization matched the "
          f"exhaustive best subset in {hits}/500 instances")


def _planted_batch():
    outcomes = []
    for seed in range(20):
        ds, truth, inside = planted_dataset(seed)
        ranking = safs_rank(ds)
        outcomes.append((ds, truth, inside, ranking))
    return outcomes


@pytest.fixture(scope="module")
def planted_batch():
    return _planted_batch()


def test_acceptance_5_planted_recovery(planted_batch):
    successes = 0
    for ds, truth, inside, ranking in planted_batch:
        features = top_k(ranking, 5)
        result = scan(ds, features, ScanConfig(restarts=10, seed=0))
        truth_idx = subgroup_mask(ds, truth)
        score = jaccard(result.matched.tolist(), truth_idx.tolist())
        successes += score >= 0.9
    assert successes >= 18
    print(f"\nACCEPTANCE 5 PASS: Jaccard >= 0.9 vs planted records in "
          f"{successes}/20 seeds")


def test_acceptance_6_ranking_separates_signal(planted_batch):
    signal = set(PLANTED_CONSTRAINTS)
    successes = 0
    for ds, truth, inside, ranking in planted_batch:
        successes += set(ranking.features[: len(signal)]) == signal
    assert successes >= 19
    print(f"\nACCEPTANCE 6 PASS: planted features outranked all noise in "
          f"{successes}/20 seeds")


def test_acceptance_7_detection_time_scaling():
    rng = np.random.default_rng(3)
    n, m = 4000, 32
    codes = rng.integers(0, 3, (n, m))
    logits = sum(rng.normal(0, 0.5, 3)[codes[:, j]] for j in range(6)) - 1.0
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-logits))).astype(int)
    ds = make_dataset([3] * m, codes, y)
    ks = [4, 8, 16, 32]
    medians = []
    for k in ks:
        features = list(range(k))
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            scan(ds, features, ScanConfig(restarts=5, seed=0))
            times.append(time.perf_counter() - t0)
        medians.append(float(np.median(times)))
    rho = _spearman(np.array(ks, dtype=float), np.array(medians))
    assert rho > 0
    print(f"\nACCEPTANCE 7 PASS: scan time grows with K "
          f"(spearman {rho:.2f}, medians {[f'{t:.3f}' for t in medians]})")


def test_acceptance_8_permutation_calibration():
    significant = 0
    config = ScanConfig(restarts=1, seed=0)
    for seed in range(200):
        ds = noise_dataset(seed, n=100, m=3)
        features = [0, 1, 2]
        result = scan(ds, features, config)
        p = empirical_p_value(result, permutations=100)
        assert p > 0
        significant += p <= 0.05
    fraction = significant / 200
    assert 0.02 <= fraction <= 0.08
    print(f"\nACCEPTANCE 8 PASS: fraction significant at 5% level = "
          f"{fraction:.3f} over 200 noise datasets, p never 0")


def test_acceptance_9_ranking_speed():
    rng = np.random.default_rng(4)
    n, m = 50_000, 100
    cards = [int(c) for c in rng.integers(2, 6, m)]
    codes = np.column_stack([rng.integers(0, c, n) for c in cards])
    y = (rng.random(n) < 0.3).astype(int)
    ds = make_dataset(cards, codes, y)

    def best_of(fn, repeats=5):
        fn(ds)  # warm-up
        times = []
        for _ in range(repeats):
            t0 = time.perf_counter()
            fn(ds)
            times.append(time.perf_counter() - t0)
        return min(times)

    t_safs = best_of(safs_rank)
    t_mi = best_of(mutual_information_rank)
    assert t_safs <= 2 * t_mi
    assert t_safs < 30 and t_mi < 30
    print(f"\nACCEPTANCE 9 PASS: sparsity ranking {t_safs:.3f}s vs "
          f"mutual information {t_mi:.3f}s (ratio {t_safs / t_mi:.2f} <= 2)")


_CLAIMS_CSV = os.environ.get("SAFS_CLAIMS_CSV", "")


@pytest.mark.skipif(not (_CLAIMS_CSV and os.path.exists(_CLAIMS_CSV)),
                    reason="staged insurance-claims CSV not present "
                           "(set SAFS_CLAIMS_CSV)")
def test_acceptance_10_claims_reproduction():
    # expects a prepared CSV: 109 categorical feature columns plus a binary
    # outcome column "y" (1 when the loss exceeds the training median)
    ds = load_csv(_CLAIMS_CSV, "y")
    assert ds.n_features == 109
    ranking = safs_rank(ds)
    config = ScanConfig(restarts=10, seed=0)
    result_20 = scan(ds, top_k(ranking, 20), config)
    result_all = scan(ds, top_k(ranking, ds.n_features), config)

    from safs import build_report
    report = build_report(ds, result_20)
    similarity = jaccard(result_20.matched.tolist(), result_all.matched.tolist())
    assert abs(report.subset_pct - 24) <= 2
    assert abs(report.odds_ratio - 8.79) <= 0.5
    assert similarity >= 0.90
    print(f"\nACCEPTANCE 10 PASS: subset {report.subset_pct}%, "
          f"OR {report.odds_ratio:.2f}, Jaccard vs full scan {similarity:.3f}")
