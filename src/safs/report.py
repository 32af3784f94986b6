"""Post-discovery characterization: odds ratio with 95% CI, empirical
permutation p-value, and subgroup summary reports."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .dataset import ContingencyTable, DiscreteDataset, table_cells
from .errors import DataError
from .scanner import ScanConfig, ScanResult, SubgroupDescriptor, _relabelled_scores

_Z95 = 1.959963984540054  # two-sided 95% normal quantile

# domain separator so permutation draws never collide with scan restarts
_PERMUTE_KEY = 0x70657200


@dataclass(frozen=True)
class SubgroupReport:
    """Table-style summary of one discovered subgroup."""

    descriptor: SubgroupDescriptor
    n_features: int
    n_values: int
    subset_size: int
    subset_pct: int
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float | None
    score: float
    elapsed: float
    no_divergence: bool = False


def odds_ratio_ci(table: ContingencyTable) -> tuple[float, float, float]:
    """Odds ratio with Woolf (log-normal) 95% CI.

    A zero anywhere triggers the Haldane correction (+0.5 on all cells).
    """
    a, b, d, g = table.alpha, table.beta, table.delta, table.gamma
    if a + b + d + g == 0:
        raise DataError("all-zero contingency table")
    if min(a, b, d, g) == 0:
        a, b, d, g = a + 0.5, b + 0.5, d + 0.5, g + 0.5
    ratio = (a * g) / (b * d)
    half_width = _Z95 * math.sqrt(1 / a + 1 / b + 1 / d + 1 / g)
    log_or = math.log(ratio)
    return ratio, math.exp(log_or - half_width), math.exp(log_or + half_width)


def empirical_p_value(dataset: DiscreteDataset, features: Sequence[int],
                      config: ScanConfig, observed_score: float,
                      permutations: int = 100) -> float:
    """Empirical p-value from label-permutation reruns of the scan.

    Each replicate permutes the outcome labels (seeded independently of the
    scan's restart stream) and reruns the scan with the identical config;
    p = (1 + #{score >= observed}) / (permutations + 1). Replicates run
    serially in the calling process.
    """
    if permutations < 1:
        raise DataError("permutations must be >= 1")
    if math.isnan(observed_score):
        raise DataError("observed score is nan")
    seeds = np.random.SeedSequence([_PERMUTE_KEY, config.seed]).spawn(permutations)
    orders = (np.random.default_rng(s).permutation(dataset.n_records) for s in seeds)
    scores = _relabelled_scores(dataset, features, config, orders)
    exceed = sum(1 for s in scores if s >= observed_score)
    return (1 + exceed) / (permutations + 1)


def build_report(dataset: DiscreteDataset, scan_result: ScanResult,
                 p_value: float | None = None) -> SubgroupReport:
    """Assemble the per-subgroup report (feature/value counts, subset size and
    percentage, odds ratio with CI, p-value, score, elapsed time)."""
    n = dataset.n_records
    n_s = scan_result.subset_size
    if n_s == n:
        # whole-data subgroup: no complement to compare against
        ratio, lo, hi = 1.0, 1.0, 1.0
    else:
        ratio, lo, hi = odds_ratio_ci(ContingencyTable(*table_cells(
            n, int(dataset.outcome.sum()), n_s, scan_result.subset_outcome_sum)))
    descriptor = scan_result.descriptor
    return SubgroupReport(
        descriptor=descriptor,
        n_features=descriptor.n_features,
        n_values=descriptor.n_values,
        subset_size=n_s,
        subset_pct=round(100 * n_s / n),
        odds_ratio=ratio,
        ci_low=lo,
        ci_high=hi,
        p_value=p_value,
        score=scan_result.score,
        elapsed=scan_result.elapsed,
        no_divergence=descriptor.n_features == 0 or scan_result.score == 0.0,
    )


def report_text(report: SubgroupReport, dataset: DiscreteDataset) -> str:
    """Aligned plain-text rendering of a subgroup report."""
    p_txt = "n/a" if report.p_value is None else f"{report.p_value:.4g}"
    rows = [
        ("#Feats (#Vals)", f"{report.n_features} ({report.n_values})"),
        ("Subset size", f"{report.subset_size}"),
        ("%", f"{report.subset_pct}"),
        ("Odds ratio", f"{report.odds_ratio:.2f}"),
        ("CI", f"({report.ci_low:.2f}, {report.ci_high:.2f})"),
        ("p", p_txt),
        ("Score", f"{report.score:.4f}"),
        ("Elapsed (s)", f"{report.elapsed:.3f}"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    if report.no_divergence:
        lines.append("flag: no divergence")
    for name, labels in report.descriptor.to_labels(dataset).items():
        lines.append(f"  {name} in {{{', '.join(labels)}}}")
    return "\n".join(lines)
