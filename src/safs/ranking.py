"""Feature ranking: Yule's Y association, Gini sparsity, and the
sparsity-based ranking, plus a mutual-information filter baseline."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import ContingencyTable, DiscreteDataset
from .errors import DataError

METHOD_SAFS = "safs"
METHOD_MI = "mutual-information"


@dataclass(frozen=True)
class FeatureRanking:
    """All features ordered by descending score; ties broken by ascending
    feature index."""

    method: str
    entries: tuple[tuple[int, float], ...]  # (feature index, score)

    def __post_init__(self):
        scores = [s for _, s in self.entries]
        if any(scores[i] < scores[i + 1] for i in range(len(scores) - 1)):
            raise DataError("ranking scores must be non-increasing")

    @property
    def features(self) -> list[int]:
        return [f for f, _ in self.entries]


def yules_y(table: ContingencyTable) -> float:
    """Yule's Y coefficient (sqrt(ag) - sqrt(bd)) / (sqrt(ag) + sqrt(bd)).

    Any zero cell triggers a +0.5 continuity correction on all four cells, so
    the result is always finite and strictly inside (-1, 1) for corrected
    tables.
    """
    if table.total == 0:
        raise DataError("all-zero contingency table")
    cells = np.array([[table.alpha], [table.beta], [table.delta], [table.gamma]],
                     dtype=np.float64)
    return float(_yules_y_cells(cells)[0])


def gini_index(values) -> float:
    """Gini sparsity of a non-negative vector, in [0, 1).

    0 for uniform vectors, 1 - 1/C for one-hot, defined as 0 when the vector
    sums to 0.
    """
    v = np.asarray(values, dtype=float)
    if v.ndim != 1 or v.size < 1:
        raise DataError("gini_index expects a non-empty 1-D vector")
    if (v < 0).any():
        raise DataError("gini_index expects non-negative entries")
    total = v.sum()
    if total == 0:
        return 0.0
    c = v.size
    ranked = np.sort(v)
    weights = (c - np.arange(1, c + 1) + 0.5) / c
    # clamp float noise on uniform vectors; the measure is >= 0 exactly
    return max(0.0, float(1.0 - 2.0 * np.dot(ranked / total, weights)))


def _per_value_tables(dataset: DiscreteDataset, feature: int):
    """Vectorized (alpha, beta, delta, gamma) arrays, one row per value."""
    codes = dataset.codes[:, feature]
    c = dataset.schemas[feature].cardinality
    joint = np.bincount(codes * 2 + dataset.outcome, minlength=2 * c).reshape(c, 2)
    alpha = joint[:, 1].astype(np.float64)
    beta = joint[:, 0].astype(np.float64)
    total_pos = int(dataset.outcome.sum())
    delta = total_pos - alpha
    gamma = dataset.n_records - total_pos - beta
    return alpha, beta, delta, gamma


def _yules_y_cells(cells: np.ndarray) -> np.ndarray:
    """Yule's Y per column of a (4, C) array of (alpha, beta, delta, gamma)
    counts, with the zero-cell correction of :func:`yules_y`."""
    cells = cells + 0.5 * (cells == 0).any(axis=0)
    ag = np.sqrt(cells[0] * cells[3])
    bd = np.sqrt(cells[1] * cells[2])
    return (ag - bd) / (ag + bd)


def yules_y_per_value(dataset: DiscreteDataset, feature: int) -> np.ndarray:
    """Yule's Y for every value of one feature (the table of
    ``stratify(dataset, feature, value)``)."""
    return _yules_y_cells(np.stack(_per_value_tables(dataset, feature)))


def _ordered_entries(method: str, scores: np.ndarray) -> FeatureRanking:
    order = sorted(range(scores.size), key=lambda m: (-scores[m], m))
    return FeatureRanking(method, tuple((m, float(scores[m])) for m in order))


def safs_rank(dataset: DiscreteDataset) -> FeatureRanking:
    """Rank features by the Gini sparsity of their per-value |Yule's Y|.

    Single-valued features get score 0 (their complement stratum is empty).
    """
    scores = np.zeros(dataset.n_features)
    for m in range(dataset.n_features):
        if dataset.schemas[m].cardinality == 1:
            continue
        scores[m] = gini_index(np.abs(yules_y_per_value(dataset, m)))
    return _ordered_entries(METHOD_SAFS, scores)


def mutual_information_rank(dataset: DiscreteDataset) -> FeatureRanking:
    """Rank features by empirical mutual information with the outcome
    (natural log)."""
    n = dataset.n_records
    y = dataset.outcome.astype(np.int64)
    p_y = np.array([1.0 - y.mean(), y.mean()])
    scores = np.zeros(dataset.n_features)
    for m in range(dataset.n_features):
        c = dataset.schemas[m].cardinality
        joint = np.bincount(dataset.codes[:, m] * 2 + y, minlength=2 * c)
        p_uy = joint.reshape(c, 2) / n
        p_u = p_uy.sum(axis=1)
        with np.errstate(divide="ignore", invalid="ignore"):
            terms = p_uy * np.log(p_uy / (p_u[:, None] * p_y[None, :]))
        scores[m] = np.nansum(terms)
    return _ordered_entries(METHOD_MI, scores)


def top_k(ranking: FeatureRanking, k: int) -> list[int]:
    """First k feature indices of the ranking, order preserved."""
    if not 1 <= k <= len(ranking.entries):
        raise DataError(f"k must be in [1, {len(ranking.entries)}], got {k}")
    return ranking.features[:k]
