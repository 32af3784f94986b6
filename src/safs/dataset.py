"""Tabular data model: CSV ingestion, quantile discretization, stratification.

Records are stored as integer category codes, column-major so that each
feature's column is contiguous, plus a binary outcome vector. The dataset is
immutable after construction and safe to share across threads.

``load_csv`` checks the header, maps the outcome, merges empty cells into the
missing label and bins numbers; ``tokenizer.read_csv`` reads every byte.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError
from .tokenizer import read_csv

DEFAULT_BINS = 5
DEFAULT_MISSING_LABEL = "⟨missing⟩"

_OUTCOME_MAP = {"0": 0, "false": 0, "1": 1, "true": 1}


@dataclass(frozen=True)
class FeatureSchema:
    """One categorical feature: its name and the ordered category labels."""

    name: str
    values: tuple[str, ...]

    def __post_init__(self):
        if not self.values:
            raise DataError(f"feature {self.name!r} has no categories")
        if len(set(self.values)) != len(self.values):
            raise DataError(f"feature {self.name!r} has duplicate category labels")
        if any(v == "" for v in self.values):
            raise DataError(f"feature {self.name!r} has an empty category label")

    @property
    def cardinality(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class ContingencyTable:
    """2x2 counts for one stratification: (stratum, complement) x (y=1, y=0)."""

    alpha: int  # in stratum, y=1
    beta: int   # in stratum, y=0
    delta: int  # in complement, y=1
    gamma: int  # in complement, y=0

    def __post_init__(self):
        if min(self.alpha, self.beta, self.delta, self.gamma) < 0:
            raise DataError("contingency counts must be non-negative")

    @property
    def total(self) -> int:
        return self.alpha + self.beta + self.delta + self.gamma


def table_cells(n, positives, n_s, sum_y):
    """(alpha, beta, delta, gamma) of a stratum of ``n_s`` records with
    ``sum_y`` positives, among ``n`` records with ``positives`` in all.
    Elementwise on numpy arrays as well as on ints."""
    return sum_y, n_s - sum_y, positives - sum_y, n - n_s - positives + sum_y


@dataclass(frozen=True)
class DiscretizationSpec:
    """How numeric columns are binned during ingestion.

    ``bins`` is the quantile-bin count of every numeric column. Missing
    cells (empty string) map to a dedicated category in every feature.
    """

    bins: int = DEFAULT_BINS
    missing_label: str = DEFAULT_MISSING_LABEL

    def __post_init__(self):
        if self.bins < 1:
            raise DataError(f"bin count must be >= 1, got {self.bins}")


class DiscreteDataset:
    """N records over M categorical features plus a binary outcome.

    ``codes`` is an (N, M) integer array, column-major so that column m, a
    contiguous view, indexes into ``schemas[m].values``. Immutable after
    construction; ``outcome_counts`` is its one (value, outcome) tally.
    """

    def __init__(self, schemas: Sequence[FeatureSchema], codes: np.ndarray,
                 outcome: np.ndarray, outcome_name: str = "y"):
        schemas = tuple(schemas)
        # private copies: freezing them below must not freeze the caller's arrays
        codes = np.array(codes, dtype=np.int32, order="F")
        outcome = np.array(outcome, dtype=np.int8)
        if codes.ndim != 2 or codes.shape[1] != len(schemas):
            raise DataError("codes must be an (N, M) array matching the schemas")
        if codes.shape[0] < 1:
            raise DataError("dataset must contain at least one record")
        if outcome.shape != (codes.shape[0],):
            raise DataError("outcome length must equal the number of records")
        if ((outcome != 0) & (outcome != 1)).any():
            raise DataError("outcome must be binary {0, 1}")
        cards = np.array([schema.cardinality for schema in schemas])
        bad = np.flatnonzero((codes.min(axis=0) < 0) | (codes.max(axis=0) >= cards))
        if bad.size:
            raise DataError(f"feature {schemas[bad[0]].name!r} has out-of-range codes")
        codes.setflags(write=False)
        outcome.setflags(write=False)
        self.schemas = schemas
        self.codes = codes
        self.outcome = outcome
        self.outcome_name = outcome_name

    @property
    def n_records(self) -> int:
        return self.codes.shape[0]

    @property
    def n_features(self) -> int:
        return len(self.schemas)

    @property
    def outcome_mean(self) -> float:
        """Global outcome rate mu_g. A constant outcome raises ``DataError``:
        no feature is associated with it and no subgroup diverges from it,
        so neither ranking nor scanning has anything to find."""
        mu = float(self.outcome.mean())
        if not 0 < mu < 1:
            raise DataError("outcome is degenerate (all 0 or all 1); "
                            "nothing to rank or scan for")
        return mu

    def feature_index(self, name: str) -> int:
        for m, schema in enumerate(self.schemas):
            if schema.name == name:
                return m
        raise DataError(f"unknown feature {name!r}")

    def decode(self, feature: int, code: int) -> str:
        """Category label for a (feature, code) pair."""
        return self.schemas[feature].values[code]

    def outcome_counts(self, feature: int) -> np.ndarray:
        """(C, 2) count of records per (value, outcome 0/1) of a feature."""
        c = self.schemas[feature].cardinality
        keys = 2 * self.codes[:, feature] + self.outcome
        return np.bincount(keys, minlength=2 * c).reshape(c, 2)


def _encode_outcome(labels: list[str], codes: np.ndarray, column: str) -> np.ndarray:
    """The outcome cells, given as their distinct labels and each row's
    code, as 0/1; the mapping runs once per distinct cell."""
    values = np.array([_OUTCOME_MAP.get(v.strip().lower(), -1) for v in labels], dtype=np.int8)
    outcome = values[codes]
    bad = np.flatnonzero(outcome < 0)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"outcome column {column!r} row {i + 2}: "
                        f"{labels[codes[i]]!r} is not a binary value")
    return outcome


def _bin_labels(edges: np.ndarray) -> list[str]:
    # the fewest significant digits, from 6, at which the edges print apart;
    # distinct floats always differ at 17
    for digits in range(6, 18):
        printed = [format(e, f".{digits}g") for e in edges]
        if len(set(printed)) == len(printed):
            break
    bounds = ["-inf"] + printed + ["inf"]
    return [f"({bounds[i]}, {bounds[i + 1]}]" for i in range(len(bounds) - 1)]


def _encode_numeric(name: str, parsed: np.ndarray, bins: int,
                    missing_label: str) -> tuple[list[str], np.ndarray]:
    finite = parsed[np.isfinite(parsed)]  # -inf and inf join the edge bins
    if not finite.size:
        raise DataError(f"numeric column {name!r} has no finite value")
    # -0.0 becomes 0.0: the sort may place the two zeros either way, and a
    # zero edge would print "-0" or "0" by the cells' order. The codes below
    # read the raw cells, where -0.0 and 0.0 compare equal
    finite += 0.0
    # np.quantile partitions a sorted copy much faster than the cells in
    # their own order: a sort plus np.quantile took 0.33 ms on a column of
    # 20k lognormal values, np.quantile alone 0.68 ms
    ordered = np.sort(finite)
    edges = np.quantile(ordered, np.linspace(0.0, 1.0, bins + 1)[1:-1])
    # an edge stays when its bin holds a cell and some cell lies above it:
    # tied edges, and an interpolated edge with no cell between it and the
    # one below, collapse, possibly down to a single bin
    cuts = np.searchsorted(ordered, edges, side="right")
    edges = edges[(np.diff(cuts, prepend=0) > 0) & (cuts < ordered.size)]
    labels = _bin_labels(edges)
    # a cell's bin is the number of edges below it; nan is below none
    codes = np.zeros(parsed.size, dtype=np.int32)
    for edge in edges:
        codes += parsed > edge
    missing = np.isnan(parsed)  # empty and nan cells are missing
    if missing.any():
        codes[missing] = len(labels)
        labels.append(missing_label)
    return labels, codes


def _encode_text(labels: list[str], codes: np.ndarray,
                 missing_label: str) -> tuple[list[str], np.ndarray]:
    """A text column's distinct cells and row codes, with empty cells as the
    missing label: one category with any cell that holds that label."""
    if "" in labels:
        labels[labels.index("")] = missing_label
        if labels.count(missing_label) > 1:
            kept, dropped = [i for i, label in enumerate(labels) if label == missing_label]
            remap = np.arange(len(labels))
            remap[dropped] = kept
            remap[dropped + 1:] -= 1
            del labels[dropped]
            codes = remap[codes]
    return labels, codes


def load_csv(path, outcome_column: str,
             discretization: DiscretizationSpec | None = None) -> DiscreteDataset:
    """Load a header-bearing CSV into a DiscreteDataset.

    Numeric columns are quantile-binned per the discretization spec: tied
    edges, and edges with no cell between them, collapse, so every bin holds
    a record, and the labels depend only on the column's values, not on
    their order. Text columns keep their distinct values in first-appearance
    order. A column is numeric when Python's ``float()`` accepts every
    non-empty cell. Missing cells (empty fields, and nan in numeric columns)
    become a dedicated category; a column of empty cells only is that one
    category, but a numeric column with no finite cell (all nan or inf) is
    a ``DataError``. The outcome column must parse to {0, 1} ("0"/"1"/"true"/
    "false", case-insensitive). A UTF-8 byte-order mark is skipped; duplicate
    column names and NUL bytes are rejected.
    """
    spec = discretization or DiscretizationSpec()
    try:
        header, columns = read_csv(
            path, lambda names: _check_header(names, outcome_column, path))
        y_col = header.index(outcome_column)
        features = [j for j in range(len(header)) if j != y_col]
        numbers = columns.numbers(features)
        outcome = _encode_outcome(*columns.categories(y_col), outcome_column)
        schemas, codes = [], []
        for j in features:
            # each column's spans or parsed cells are freed as it is encoded,
            # and the file's bytes below, before the dataset copies the codes
            labels, column_codes = (
                _encode_numeric(header[j], numbers.pop(j), spec.bins, spec.missing_label)
                if j in numbers else _encode_text(*columns.categories(j), spec.missing_label))
            schemas.append(FeatureSchema(header[j], tuple(labels)))
            codes.append(column_codes)
        del columns
        return DiscreteDataset(schemas, np.array(codes, dtype=np.int32).T, outcome, outcome_column)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc


def _check_header(header: list[str], outcome_column: str, path) -> None:
    """A usable header: unique names, the outcome among them and a feature."""
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    if outcome_column not in header:
        raise DataError(f"outcome column {outcome_column!r} not found in header")
    if len(header) < 2:
        raise DataError(f"{path}: no feature columns besides the outcome")


def _index(value, what: str) -> int:
    """``value`` as an int: numpy integers pass, a float raises, none is truncated."""
    try:
        return operator.index(value)
    except TypeError:
        raise DataError(f"{what} must be an integer, got {value!r}") from None


def stratify(dataset: DiscreteDataset, feature: int, value: int) -> ContingencyTable:
    """2x2 contingency table of (feature == value) against the outcome."""
    feature, value = _index(feature, "feature index"), _index(value, "value code")
    if not 0 <= feature < dataset.n_features:
        raise DataError(f"feature index {feature} out of range")
    if not 0 <= value < dataset.schemas[feature].cardinality:
        raise DataError(f"value code {value} out of range for feature "
                        f"{dataset.schemas[feature].name!r}")
    counts = dataset.outcome_counts(feature)
    return ContingencyTable(*table_cells(dataset.n_records, int(counts[:, 1].sum()),
                                         int(counts[value].sum()), int(counts[value, 1])))


def _validate_constraints(constraints: Mapping[int, Iterable[int]],
                          dataset: DiscreteDataset | None = None) -> dict[int, frozenset[int]]:
    """A constraint mapping as feature index -> non-empty frozenset of codes,
    in feature order. Given a dataset, every feature index and value code
    must also lie in its range."""
    items = dict(constraints)
    out: dict[int, frozenset[int]] = {}
    for key in sorted(items):
        feature = _index(key, "feature index")
        if dataset is not None and not 0 <= feature < dataset.n_features:
            raise DataError(f"descriptor references unknown feature index {feature}")
        values = frozenset(_index(v, "value code") for v in items[key])
        if not values:
            raise DataError(f"descriptor has an empty value set for feature {feature}")
        if dataset is not None and not all(
                0 <= v < dataset.schemas[feature].cardinality for v in values):
            raise DataError(f"descriptor references out-of-range values for feature {feature}")
        out[feature] = values
    return out


def constraints_bool_mask(dataset: DiscreteDataset,
                          constraints: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Boolean record mask for an AND-of-ORs constraint mapping."""
    valid = _validate_constraints(constraints, dataset)
    mask = np.ones(dataset.n_records, dtype=bool)
    for feature, values in valid.items():
        mask &= np.isin(dataset.codes[:, feature], sorted(values))
    return mask


def subgroup_mask(dataset: DiscreteDataset, descriptor) -> np.ndarray:
    """Indices of records matched by a subgroup descriptor.

    A record matches iff, for every constrained feature, its code lies in that
    feature's included-value set. An empty descriptor matches everything.
    """
    constraints = getattr(descriptor, "constraints", descriptor)
    return np.flatnonzero(constraints_bool_mask(dataset, constraints))
