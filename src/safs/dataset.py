"""Tabular data model: CSV ingestion, quantile discretization, stratification.

Records are stored as integer category codes (one column per feature) plus a
binary outcome vector. The dataset is immutable after construction and safe to
share across threads.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from typing import Iterable, Mapping, Sequence

import numpy as np

from .errors import DataError

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


@dataclass(frozen=True)
class DiscretizationSpec:
    """How numeric columns are binned during ingestion.

    ``bins`` is the default quantile-bin count; ``per_column`` overrides it
    for named columns. Missing cells (empty string) map to a dedicated
    category in every feature.
    """

    bins: int = DEFAULT_BINS
    per_column: Mapping[str, int] = field(default_factory=dict)
    missing_label: str = DEFAULT_MISSING_LABEL

    def bins_for(self, column: str) -> int:
        n = int(self.per_column.get(column, self.bins))
        if n < 1:
            raise DataError(f"bin count for {column!r} must be >= 1, got {n}")
        return n


class DiscreteDataset:
    """N records over M categorical features plus a binary outcome.

    ``codes`` is an (N, M) integer array; column m indexes into
    ``schemas[m].values``. Immutable after construction.
    """

    def __init__(self, schemas: Sequence[FeatureSchema], codes: np.ndarray,
                 outcome: np.ndarray, outcome_name: str = "y"):
        schemas = tuple(schemas)
        codes = np.ascontiguousarray(codes, dtype=np.int32)
        outcome = np.asarray(outcome, dtype=np.int8)
        if codes.ndim != 2 or codes.shape[1] != len(schemas):
            raise DataError("codes must be an (N, M) array matching the schemas")
        if codes.shape[0] < 1:
            raise DataError("dataset must contain at least one record")
        if outcome.shape != (codes.shape[0],):
            raise DataError("outcome length must equal the number of records")
        if not np.isin(outcome, (0, 1)).all():
            raise DataError("outcome must be binary {0, 1}")
        for m, schema in enumerate(schemas):
            col = codes[:, m]
            if col.min() < 0 or col.max() >= schema.cardinality:
                raise DataError(f"feature {schema.name!r} has out-of-range codes")
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
        """Global outcome rate mu_g."""
        return float(self.outcome.mean())

    def feature_index(self, name: str) -> int:
        for m, schema in enumerate(self.schemas):
            if schema.name == name:
                return m
        raise DataError(f"unknown feature {name!r}")

    def decode(self, feature: int, code: int) -> str:
        """Category label for a (feature, code) pair."""
        return self.schemas[feature].values[code]

    def with_outcome(self, outcome: np.ndarray) -> "DiscreteDataset":
        """Same records with a replacement outcome vector (used by
        permutation testing)."""
        return DiscreteDataset(self.schemas, self.codes, outcome, self.outcome_name)


def _parse_outcome(raw: str, column: str, row: int) -> int:
    value = _OUTCOME_MAP.get(raw.strip().lower())
    if value is None:
        raise DataError(
            f"outcome column {column!r} row {row}: {raw!r} is not a binary value")
    return value


def _parse_numbers(cells: list[str]) -> np.ndarray | None:
    """A numeric column's cells as floats (empty cells become nan), or None
    when some cell is not a number or every cell is empty."""
    try:
        parsed = np.array([float(c) if c != "" else np.nan for c in cells])
    except ValueError:
        return None
    return parsed if any(c != "" for c in cells) else None


def _bin_labels(edges: np.ndarray) -> list[str]:
    bounds = ["-inf"] + [format(e, "g") for e in edges] + ["inf"]
    return [f"({bounds[i]}, {bounds[i + 1]}]" for i in range(len(bounds) - 1)]


def _encode_numeric(name: str, parsed: np.ndarray, bins: int,
                    missing_label: str) -> tuple[list[str], np.ndarray]:
    present = ~np.isnan(parsed)  # empty and nan cells are missing
    values = parsed[present]
    if not np.isfinite(values).any():
        raise DataError(f"numeric column {name!r} has no finite value")
    # interior quantile edges; ties collapse, possibly down to a single bin
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(values, qs)) if qs.size else np.array([])
    # an edge at or above the max (or below the min) would leave a dead bin
    edges = edges[(edges >= values.min()) & (edges < values.max())]
    labels = _bin_labels(edges)
    codes = np.zeros(parsed.size, dtype=np.int32)
    codes[present] = np.digitize(values, edges, right=True)
    if not present.all():
        codes[~present] = len(labels)
        labels.append(missing_label)
    return labels, codes


def _encode_text(cells: list[str], missing_label: str) -> tuple[list[str], np.ndarray]:
    labels: list[str] = []
    index: dict[str, int] = {}
    codes = np.zeros(len(cells), dtype=np.int32)
    for i, cell in enumerate(cells):
        label = missing_label if cell == "" else cell
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        codes[i] = index[label]
    return labels, codes


def load_csv(path, outcome_column: str,
             discretization: DiscretizationSpec | None = None) -> DiscreteDataset:
    """Load a header-bearing CSV into a DiscreteDataset.

    Numeric columns are quantile-binned per the discretization spec; text
    columns keep their distinct values in first-appearance order. Missing
    cells (empty fields, and nan in numeric columns) become a dedicated
    category. The outcome column must parse to {0, 1} ("0"/"1"/"true"/
    "false", case-insensitive). A UTF-8 byte-order mark is skipped; duplicate
    column names are rejected.
    """
    spec = discretization or DiscretizationSpec()
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            rows = [row for row in reader if row]
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc

    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    if outcome_column not in header:
        raise DataError(f"outcome column {outcome_column!r} not found in header")
    if not rows:
        raise DataError(f"{path}: no data rows")
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise DataError(f"{path}: row {i + 2} has {len(row)} fields, expected {len(header)}")

    y_col = header.index(outcome_column)
    outcome = np.array([_parse_outcome(row[y_col], outcome_column, i + 2)
                        for i, row in enumerate(rows)], dtype=np.int8)

    schemas: list[FeatureSchema] = []
    columns: list[np.ndarray] = []
    for j, name in enumerate(header):
        if j == y_col:
            continue
        cells = [row[j] for row in rows]
        parsed = _parse_numbers(cells)
        if parsed is not None:
            labels, codes = _encode_numeric(name, parsed, spec.bins_for(name),
                                            spec.missing_label)
        else:
            labels, codes = _encode_text(cells, spec.missing_label)
        schemas.append(FeatureSchema(name, tuple(labels)))
        columns.append(codes)

    if not schemas:
        raise DataError(f"{path}: no feature columns besides the outcome")
    return DiscreteDataset(schemas, np.column_stack(columns), outcome, outcome_column)


def stratify(dataset: DiscreteDataset, feature: int, value: int) -> ContingencyTable:
    """2x2 contingency table of (feature == value) against the outcome."""
    if not 0 <= feature < dataset.n_features:
        raise DataError(f"feature index {feature} out of range")
    if not 0 <= value < dataset.schemas[feature].cardinality:
        raise DataError(f"value code {value} out of range for feature "
                        f"{dataset.schemas[feature].name!r}")
    in_stratum = dataset.codes[:, feature] == value
    y = dataset.outcome.astype(np.int64)
    alpha = int(y[in_stratum].sum())
    beta = int(in_stratum.sum()) - alpha
    delta = int(y.sum()) - alpha
    gamma = dataset.n_records - alpha - beta - delta
    return ContingencyTable(alpha, beta, delta, gamma)


def _validate_constraints(dataset: DiscreteDataset,
                          constraints: Mapping[int, Iterable[int]]) -> dict[int, frozenset[int]]:
    out: dict[int, frozenset[int]] = {}
    for feature, values in constraints.items():
        if not 0 <= feature < dataset.n_features:
            raise DataError(f"descriptor references unknown feature index {feature}")
        values = frozenset(int(v) for v in values)
        card = dataset.schemas[feature].cardinality
        if not values:
            raise DataError(f"descriptor has an empty value set for feature {feature}")
        if any(not 0 <= v < card for v in values):
            raise DataError(f"descriptor references out-of-range values for feature {feature}")
        out[feature] = values
    return out


def constraints_bool_mask(dataset: DiscreteDataset,
                          constraints: Mapping[int, Iterable[int]]) -> np.ndarray:
    """Boolean record mask for an AND-of-ORs constraint mapping."""
    valid = _validate_constraints(dataset, constraints)
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
