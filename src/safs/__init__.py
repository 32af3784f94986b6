"""Sparsity-based feature selection and divergent subgroup discovery for
tabular data with a binary outcome."""

from .dataset import (
    ContingencyTable,
    DiscreteDataset,
    DiscretizationSpec,
    FeatureSchema,
    load_csv,
    stratify,
    subgroup_mask,
)
from .errors import DataError, SafsError, SearchSpaceError
from .evaluation import (
    RankOverlapMatrix,
    SweepEntry,
    jaccard,
    overlap_matrix,
    rank_biased_overlap,
    sweep_k,
)
from .ranking import (
    FeatureRanking,
    gini_index,
    mutual_information_rank,
    safs_rank,
    top_k,
    yules_y,
)
from .report import SubgroupReport, build_report, empirical_p_value, odds_ratio_ci
from .scanner import (
    OVER,
    UNDER,
    ScanConfig,
    ScanResult,
    SubgroupDescriptor,
    brute_force_scan,
    optimize_feature,
    q_mle,
    scan,
    score_subgroup,
)

__version__ = "0.1.0"

__all__ = [
    "ContingencyTable", "DiscreteDataset", "DiscretizationSpec", "FeatureSchema",
    "load_csv", "stratify", "subgroup_mask",
    "DataError", "SafsError", "SearchSpaceError",
    "FeatureRanking", "gini_index", "mutual_information_rank", "safs_rank",
    "top_k", "yules_y",
    "OVER", "UNDER", "ScanConfig", "ScanResult", "SubgroupDescriptor",
    "brute_force_scan", "optimize_feature", "q_mle", "scan", "score_subgroup",
    "SubgroupReport", "build_report", "empirical_p_value", "odds_ratio_ci",
    "RankOverlapMatrix", "SweepEntry", "jaccard",
    "overlap_matrix", "rank_biased_overlap", "sweep_k",
    "__version__",
]
