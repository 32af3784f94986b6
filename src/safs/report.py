"""Post-discovery characterization: odds ratio with 95% CI, empirical
permutation p-value, and subgroup summary reports."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .dataset import ContingencyTable, DiscreteDataset, table_cells
from .errors import DataError
from .scanner import ScanResult

_Z95 = 1.959963984540054  # two-sided 95% normal quantile


@dataclass(frozen=True)
class SubgroupReport:
    """Summary of one discovered subgroup: its scan result, plus what the
    report computes: the share of records in whole percent, the odds ratio
    with its Woolf 95% CI, and the permutation p-value (None if not run)."""

    result: ScanResult
    subset_pct: int
    odds_ratio: float
    ci_low: float
    ci_high: float
    p_value: float | None


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


def empirical_p_value(result: ScanResult, permutations: int = 100) -> float:
    """Empirical p-value of a :func:`~safs.scanner.scan` result.

    Each replicate permutes the outcome labels (seeded from the scan's seed,
    apart from its restart stream) and climbs the scan's own kernel and
    restart plan, reusing its starts, pass orders and score memo (about 170
    bytes per (records, positives) pair); p = (1 + #{score >= result.score})
    / (permutations + 1). The labels are restored after, so one result's
    p-value must not run from two threads at once. A ``brute_force_scan``
    result keeps no search and raises ``DataError``.
    """
    return _permutation_test(result, permutations)[0]


def _permutation_test(result: ScanResult, permutations: int) -> tuple[float, int]:
    """:func:`empirical_p_value` and how many replicate ascents were cut off
    at ``_MAX_PASSES`` passes while still improving."""
    if permutations < 1:
        raise DataError("permutations must be >= 1")
    if math.isnan(result.score):
        raise DataError("observed score is nan")
    if (search := result._search) is None:
        raise DataError("the result keeps no search to rerun: only scan() results do")
    scores, cut_off = search.permuted_scores(permutations)
    exceed = sum(1 for s in scores if s >= result.score)
    return (1 + exceed) / (permutations + 1), cut_off


def build_report(dataset: DiscreteDataset, scan_result: ScanResult,
                 p_value: float | None = None) -> SubgroupReport:
    """Assemble the per-subgroup report (subset percentage, odds ratio with
    CI, p-value) around the scan result."""
    n = dataset.n_records
    n_s = scan_result.subset_size
    if n_s == n:
        # whole-data subgroup: no complement to compare against
        ratio, lo, hi = 1.0, 1.0, 1.0
    else:
        ratio, lo, hi = odds_ratio_ci(ContingencyTable(*table_cells(
            n, int(dataset.outcome.sum()), n_s, scan_result.subset_outcome_sum)))
    return SubgroupReport(result=scan_result, subset_pct=round(100 * n_s / n),
                          odds_ratio=ratio, ci_low=lo, ci_high=hi, p_value=p_value)


def report_text(report: SubgroupReport, dataset: DiscreteDataset) -> str:
    """Aligned plain-text rendering of a subgroup report."""
    result = report.result
    p_txt = "n/a" if report.p_value is None else f"{report.p_value:.4g}"
    rows = [
        ("#Feats (#Vals)", f"{result.descriptor.n_features} ({result.descriptor.n_values})"),
        ("Subset size", f"{result.subset_size}"),
        ("%", f"{report.subset_pct}"),
        ("Odds ratio", f"{report.odds_ratio:.2f}"),
        ("CI", f"({report.ci_low:.2f}, {report.ci_high:.2f})"),
        ("p", p_txt),
        ("Score", f"{result.score:.4f}"),
        ("Elapsed (s)", f"{result.elapsed:.3f}"),
    ]
    width = max(len(k) for k, _ in rows)
    lines = [f"{k:<{width}}  {v}" for k, v in rows]
    if result.no_divergence:
        lines.append("flag: no divergence")
    for name, labels in result.descriptor.to_labels(dataset).items():
        lines.append(f"  {name} in {{{', '.join(labels)}}}")
    return "\n".join(lines)
