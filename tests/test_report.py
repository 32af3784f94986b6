import math

import numpy as np
import pytest

from safs import (
    OVER,
    UNDER,
    ContingencyTable,
    DataError,
    ScanConfig,
    ScanResult,
    SubgroupDescriptor,
    build_report,
    empirical_p_value,
    odds_ratio_ci,
    scan,
    score_subgroup,
)
from safs.report import report_text
from synth import make_dataset, noise_dataset, planted_dataset


class TestOddsRatioCi:

    def test_derived_value(self):
        ratio, lo, hi = odds_ratio_ci(ContingencyTable(30, 10, 20, 40))
        assert ratio == pytest.approx(6.0)
        # Woolf: exp(ln 6 +- 1.96 * sqrt(1/30 + 1/10 + 1/20 + 1/40))
        assert lo == pytest.approx(2.4526, abs=1e-3)
        assert hi == pytest.approx(14.6783, abs=1e-3)

    def test_no_association(self):
        ratio, lo, hi = odds_ratio_ci(ContingencyTable(10, 10, 10, 10))
        assert ratio == pytest.approx(1.0)
        # CI symmetric about 1 on the log scale
        assert math.log(lo) == pytest.approx(-math.log(hi), abs=1e-12)

    def test_zero_cell_correction(self):
        ratio, lo, hi = odds_ratio_ci(ContingencyTable(10, 0, 5, 10))
        assert math.isfinite(ratio) and 0 < lo <= ratio <= hi

    def test_all_zero_raises(self):
        with pytest.raises(DataError):
            odds_ratio_ci(ContingencyTable(0, 0, 0, 0))

    def test_reciprocal_on_role_swap(self):
        rng = np.random.default_rng(0)
        for a, b, d, g in rng.integers(1, 80, size=(100, 4)):
            ratio, lo, hi = odds_ratio_ci(ContingencyTable(int(a), int(b), int(d), int(g)))
            swapped, s_lo, s_hi = odds_ratio_ci(ContingencyTable(int(d), int(g), int(a), int(b)))
            assert swapped == pytest.approx(1 / ratio, rel=1e-12)
            assert s_lo == pytest.approx(1 / hi, rel=1e-12)
            assert s_hi == pytest.approx(1 / lo, rel=1e-12)

    def test_bounds_bracket_ratio(self):
        rng = np.random.default_rng(1)
        for a, b, d, g in rng.integers(0, 40, size=(200, 4)):
            if a + b + d + g == 0:
                continue
            ratio, lo, hi = odds_ratio_ci(ContingencyTable(int(a), int(b), int(d), int(g)))
            assert lo <= ratio <= hi


class TestEmpiricalPValue:

    def test_zero_score_gives_p_one(self):
        ds = noise_dataset(0)
        cfg = ScanConfig(restarts=1, seed=0)
        assert empirical_p_value(ds, [0, 1, 2], cfg, 0.0, permutations=19) == 1.0

    def test_planted_subgroup_hits_floor(self):
        ds, _, _ = planted_dataset(1, n=800)
        cfg = ScanConfig(restarts=10, seed=5)
        observed = scan(ds, list(range(ds.n_features)), cfg).score
        p = empirical_p_value(ds, list(range(ds.n_features)), cfg, observed,
                              permutations=100)
        assert p == pytest.approx(1 / 101)

    def test_range_and_determinism(self):
        ds = noise_dataset(3)
        cfg = ScanConfig(restarts=1, seed=7)
        observed = scan(ds, [0, 1, 2], cfg).score
        p1 = empirical_p_value(ds, [0, 1, 2], cfg, observed, permutations=30)
        p2 = empirical_p_value(ds, [0, 1, 2], cfg, observed, permutations=30)
        assert p1 == p2
        assert 1 / 31 <= p1 <= 1.0

    def test_nan_observed_score_raises(self):
        # no replicate score is >= nan, which would give the 1/(R+1) floor
        with pytest.raises(DataError):
            empirical_p_value(noise_dataset(0), [0, 1, 2], ScanConfig(restarts=1),
                              float("nan"), permutations=19)

    def test_invalid(self):
        ds = noise_dataset(5)
        with pytest.raises(DataError):
            empirical_p_value(ds, [0], ScanConfig(), 1.0, permutations=0)


class TestBuildReport:

    def test_planted_report(self):
        ds, truth, inside = planted_dataset(2, n=2000)
        result = scan(ds, list(range(ds.n_features)), ScanConfig(restarts=5, seed=0))
        report = build_report(ds, result, p_value=0.01)
        assert report.n_features == truth.n_features
        assert report.n_values == truth.n_values
        assert report.subset_size == result.subset_size
        assert report.subset_pct == round(100 * result.subset_size / ds.n_records)
        assert report.ci_low <= report.odds_ratio <= report.ci_high
        assert report.odds_ratio > 1
        assert not report.no_divergence

    def test_percentage_rounding_convention(self):
        assert round(100 * 3078 / 19658) == 16

    def test_whole_data_subgroup_flagged(self):
        from safs import ScanResult, SubgroupDescriptor

        ds = noise_dataset(6)
        result = ScanResult(SubgroupDescriptor(), 0.0, 1.0,
                            np.arange(ds.n_records), ds.n_records,
                            int(ds.outcome.sum()), 0.0)
        report = build_report(ds, result)
        assert report.subset_pct == 100
        assert report.odds_ratio == 1.0
        assert report.no_divergence
        assert "flag: no divergence" in report_text(report, ds).splitlines()

    @pytest.mark.parametrize("size, positives, direction", [(3, 1, OVER), (5, 2, UNDER)])
    def test_subgroup_at_the_global_rate_flagged(self, size, positives, direction):
        # both values have the global rate; q_hat is 1 only up to an ulp
        # (1 + 2**-52 over, 1 - 2**-53 under), which rounds the formula to ~1e-16
        y = ([1] * positives + [0] * (size - positives)) * 2
        ds = make_dataset([2], [[0]] * size + [[1]] * size, y)
        descriptor = SubgroupDescriptor({0: {0}})
        score, q_hat = score_subgroup(ds, descriptor, direction)
        assert score == 0.0
        result = ScanResult(descriptor, score, q_hat, np.arange(size), size, positives, 0.0)
        assert build_report(ds, result).no_divergence

    def test_text_rendering(self):
        ds, _, _ = planted_dataset(3, n=1000)
        result = scan(ds, list(range(3)), ScanConfig(restarts=3, seed=0))
        report = build_report(ds, result, p_value=0.02)
        text = report_text(report, ds)
        for needle in ("#Feats (#Vals)", "Subset size", "Odds ratio", "CI", "p"):
            assert needle in text
