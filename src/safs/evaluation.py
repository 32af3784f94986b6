"""Comparison metrics across rankings and scans: rank-biased overlap, Jaccard
similarity of detected record sets, and top-K sweeps with timing capture."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .dataset import DiscreteDataset
from .errors import DataError
from .ranking import FeatureRanking, top_k
from .report import SubgroupReport, build_report, empirical_p_value
from .scanner import ScanConfig, ScanResult, scan


@dataclass(frozen=True)
class RankOverlapMatrix:
    methods: tuple[str, ...]
    matrix: np.ndarray
    p: float


@dataclass(frozen=True)
class SweepEntry:
    k: int
    result: ScanResult
    report: SubgroupReport
    jaccard_vs_full: float


def rank_biased_overlap(a: Sequence, b: Sequence, p: float = 0.9) -> float:
    """Extrapolated rank-biased overlap of two equal-length rankings.

    1 for identical rankings; top-weighted disagreement lowers it, with
    persistence p controlling how far down the lists weight extends.
    """
    if not 0 < p < 1:
        raise DataError(f"persistence p must be in (0, 1), got {p}")
    if not len(a) or len(a) != len(b) or set(a) != set(b):
        raise DataError("rankings must be non-empty permutations of the same item set")
    if len(set(a)) != len(a):
        raise DataError("rankings must not contain duplicates")
    depth = len(a)
    seen_a: set = set()
    seen_b: set = set()
    overlap = 0
    agreement_sum = 0.0
    agreement_d = 0.0
    for d in range(1, depth + 1):
        x, y = a[d - 1], b[d - 1]
        if x == y:
            overlap += 1
        else:
            overlap += (x in seen_b) + (y in seen_a)
            seen_a.add(x)
            seen_b.add(y)
        agreement_d = overlap / d
        agreement_sum += p ** d * agreement_d
    return agreement_d * p ** depth + (1 - p) / p * agreement_sum


def overlap_matrix(rankings: Mapping[str, Sequence], p: float = 0.9) -> RankOverlapMatrix:
    """Pairwise RBO matrix across named rankings."""
    names = tuple(rankings)
    n = len(names)
    matrix = np.ones((n, n))
    for i in range(n):
        for j in range(i + 1, n):
            matrix[i, j] = matrix[j, i] = rank_biased_overlap(
                rankings[names[i]], rankings[names[j]], p)
    return RankOverlapMatrix(names, matrix, p)


def jaccard(a, b) -> float:
    """|a & b| / |a | b| over record index sets; 1 when both are empty."""
    a, b = set(a), set(b)
    if not a and not b:
        return 1.0
    return len(a & b) / len(a | b)


def sweep_k(dataset: DiscreteDataset, ranking: FeatureRanking,
            k_values: Sequence[int], config: ScanConfig,
            permutations: int = 0) -> list[SweepEntry]:
    """Scan each top-K prefix of a ranking, timing each scan and comparing its
    matched records against the full-feature (K = M) run."""
    m = dataset.n_features
    ks = [int(k) for k in k_values]
    if not ks or any(k < 1 or k > m for k in ks):
        raise DataError(f"k values must lie in [1, {m}]")
    if ks != sorted(ks) or len(set(ks)) != len(ks):
        raise DataError("k values must be strictly ascending")
    if permutations < 0:
        raise DataError(f"permutations must be >= 0, got {permutations}")

    full = scan(dataset, top_k(ranking, m), config)
    full_set = set(full.matched.tolist())

    entries = []
    for k in ks:
        features = top_k(ranking, k)
        result = full if k == m else scan(dataset, features, config)
        p_value = None
        if permutations > 0:
            p_value = empirical_p_value(dataset, features, config,
                                        result.score, permutations)
        entries.append(SweepEntry(
            k=k,
            result=result,
            report=build_report(dataset, result, p_value),
            jaccard_vs_full=jaccard(result.matched.tolist(), full_set),
        ))
    return entries
