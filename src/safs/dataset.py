"""Tabular data model: CSV ingestion, quantile discretization, stratification.

Records are stored as integer category codes (one column per feature) plus a
binary outcome vector. The dataset is immutable after construction and safe to
share across threads.

Ingest cost. ``load_csv`` reads the file's bytes once; without a double quote,
numpy finds their line ends and commas, O(bytes), to check the row lengths and
to size each text column to its widest cell. One ``np.loadtxt`` pass of numpy's
C tokenizer then parses every column: float64 where the first cell is a number
or empty, text otherwise. Each text column and the outcome are encoded with one
``np.unique``, O(N log N); each numeric column is binned with one quantile and
one digitize. ``float()`` runs per cell only as the fallback, for columns in
which numpy's float parser rejects a cell (an empty cell, ``1_000``, non-ASCII
digits, a text cell below a number).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
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


def _encode_outcome(cells: np.ndarray, column: str) -> np.ndarray:
    """The outcome cells as 0/1; the mapping runs once per distinct cell."""
    distinct, inverse = np.unique(cells, return_inverse=True)
    values = np.array([_OUTCOME_MAP.get(v.strip().lower(), -1) for v in distinct.tolist()],
                      dtype=np.int8)
    outcome = values[inverse]
    bad = np.flatnonzero(outcome < 0)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"outcome column {column!r} row {i + 2}: "
                        f"{str(cells[i])!r} is not a binary value")
    return outcome


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
    finite = values[np.isfinite(values)]  # -inf and inf join the edge bins
    if not finite.size:
        raise DataError(f"numeric column {name!r} has no finite value")
    # interior quantile edges; ties collapse, possibly down to a single bin
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(finite, qs)) if qs.size else np.array([])
    # an edge at or above the max (or below the min) would leave a dead bin
    edges = edges[(edges >= finite.min()) & (edges < finite.max())]
    labels = _bin_labels(edges)
    codes = np.zeros(parsed.size, dtype=np.int32)
    codes[present] = np.digitize(values, edges, right=True)
    if not present.all():
        codes[~present] = len(labels)
        labels.append(missing_label)
    return labels, codes


def _encode_text(cells: np.ndarray, missing_label: str) -> tuple[list[str], np.ndarray]:
    """Distinct cells in first-appearance order; empty cells are the missing
    label."""
    empty = cells == ""
    if empty.any():
        cells = np.where(empty, missing_label, cells)
    labels, first, inverse = np.unique(cells, return_index=True, return_inverse=True)
    order = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.arange(order.size)
    return labels[order].tolist(), codes[inverse]


def _check_fields(fields: np.ndarray, ncols: int, path) -> None:
    """Every non-blank record must have one field per header column."""
    bad = np.flatnonzero(fields != ncols)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: row {i + 2} has {fields[i]} fields, expected {ncols}")


def _text_kind(width: int, limit: float) -> str:
    """The numpy dtype for a text column whose widest cell has ``width``
    characters: fixed-width str, which np.unique sorts about 3x faster than
    Python strings, unless that cell is longer than ``limit``, the file's
    mean line length, so that the array takes at most 4 bytes per file byte."""
    return f"U{max(width, 1)}" if width <= limit else "O"


def _scan_unquoted(raw: np.ndarray, ncols: int, path) -> list[str]:
    """Check the row lengths of CSV bytes without a quote character and
    return each column's text dtype, sized by its widest cell in bytes (which
    bounds its width in characters). A line ends at LF, CR or CRLF, as in
    csv.reader."""
    cr, lf = (np.flatnonzero(raw == ord(c)) for c in "\r\n")
    # a CRLF ends its line at the CR, and the next line begins after the LF
    stops = np.append(np.union1d(cr, lf[~np.isin(lf - 1, cr)]), raw.size)
    starts = np.concatenate(([0], np.union1d(cr[~np.isin(cr + 1, lf)], lf) + 1))
    commas = np.flatnonzero(raw == ord(","))
    first, last = np.searchsorted(commas, starts), np.searchsorted(commas, stops)
    filled = stops[1:] > starts[1:]  # line 0 is the header; blank lines are skipped
    _check_fields((last - first + 1)[1:][filled], ncols, path)
    # every data line now holds ncols - 1 commas, in file order
    bounds = commas[last[0]:].reshape(-1, ncols - 1)
    widths = np.empty(ncols, dtype=np.int64)
    widths[0] = (bounds[:, 0] - starts[1:][filled]).max()
    widths[1:-1] = (np.diff(bounds, axis=1) - 1).max(axis=0)
    widths[-1] = (stops[1:][filled] - bounds[:, -1] - 1).max()
    return [_text_kind(int(w), raw.size / len(bounds)) for w in widths]


def _loadtxt(fh, start: int, kinds: list[str]) -> np.ndarray:
    """Every record after the header as one record array, field j of numpy
    dtype kinds[j], parsed by numpy's C tokenizer: commas, double quotes, and
    '#' an ordinary character. A record with a field too many or too few
    raises ValueError."""
    fh.seek(start)
    dtype = np.dtype([(str(j), kind) for j, kind in enumerate(kinds)])
    return np.loadtxt(fh, dtype=dtype, delimiter=",", quotechar='"', comments=None, ndmin=1)


def load_csv(path, outcome_column: str,
             discretization: DiscretizationSpec | None = None) -> DiscreteDataset:
    """Load a header-bearing CSV into a DiscreteDataset.

    Numeric columns are quantile-binned per the discretization spec; text
    columns keep their distinct values in first-appearance order. A column is
    numeric when Python's ``float()`` accepts every non-empty cell. Missing
    cells (empty fields, and nan in numeric columns) become a dedicated
    category. The outcome column must parse to {0, 1} ("0"/"1"/"true"/
    "false", case-insensitive). A UTF-8 byte-order mark is skipped; duplicate
    column names and NUL bytes are rejected.
    """
    spec = discretization or DiscretizationSpec()
    try:
        with open(path, "rb") as fh:
            data = fh.read()
        if b"\0" in data:
            raise DataError(f"{path}: contains a NUL byte, so it is not UTF-8 CSV text")
        with open(path, newline="", encoding="utf-8-sig") as fh:
            # readline, not iteration, keeps fh.tell() usable
            lines = csv.reader(iter(fh.readline, ""))
            try:
                header = next(lines)
            except StopIteration:
                raise DataError(f"{path}: empty file") from None
            start = fh.tell()
            y_col = _check_header(header, outcome_column, path)
            first = next(filter(None, lines), None)
            if first is None:
                raise DataError(f"{path}: no data rows")
            # with no quote character the bytes give the rows and the widths
            text = (None if b'"' in data else
                    _scan_unquoted(np.frombuffer(data, dtype=np.uint8), len(header), path))
            del data
            return _load_columns(fh, start, path, header, y_col, first, text, spec)
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc}") from exc
    except UnicodeDecodeError as exc:
        raise DataError(f"{path} is not UTF-8 text: {exc}") from exc
    except csv.Error as exc:
        raise DataError(f"{path}: {exc}") from exc


def _check_header(header: list[str], outcome_column: str, path) -> int:
    """The outcome column's index, once the header is known to be usable."""
    seen: set[str] = set()
    for name in header:
        if name in seen:
            raise DataError(f"{path}: duplicate column name {name!r}")
        seen.add(name)
    if outcome_column not in header:
        raise DataError(f"outcome column {outcome_column!r} not found in header")
    if len(header) < 2:
        raise DataError(f"{path}: no feature columns besides the outcome")
    return header.index(outcome_column)


def _load_columns(fh, start: int, path, header: list[str], y_col: int,
                  first: list[str], text: list[str] | None,
                  spec: DiscretizationSpec) -> DiscreteDataset:
    """Parse every column in one numpy pass and encode it. A column is read
    as float64 when its first cell is a number or empty, else as text: of the
    given dtypes, or as Python strings when the row lengths are unchecked."""
    text = text or ["O"] * len(header)
    maybe_numeric = [j for j, cell in enumerate(first) if j != y_col
                     and (cell == "" or _parse_numbers([cell]) is not None)]
    kinds = [("f8" if j in maybe_numeric else kind) for j, kind in enumerate(text)]
    try:
        records = _loadtxt(fh, start, kinds)
    except ValueError:
        # numpy's float parser takes a subset of what float() takes. Finding
        # the rejected columns would cost a pass over the file per column, so
        # all the candidates are read as text and float() decides per cell
        try:
            records = _loadtxt(fh, start, text)
        except ValueError as exc:
            # a row of the wrong length; csv.reader finds it to name it
            fh.seek(start)
            fields = np.array([len(row) for row in csv.reader(fh) if row])
            _check_fields(fields, len(header), path)
            raise DataError(f"{path}: {exc}") from exc

    outcome = _encode_outcome(records[str(y_col)], header[y_col])

    schemas: list[FeatureSchema] = []
    columns: list[np.ndarray] = []
    for j, name in enumerate(header):
        if j == y_col:
            continue
        column = records[str(j)]
        parsed = column if column.dtype == np.float64 else None
        if parsed is None and j in maybe_numeric:
            parsed = _parse_numbers(column.tolist())
        if parsed is not None:
            labels, codes = _encode_numeric(name, parsed, spec.bins, spec.missing_label)
        else:
            labels, codes = _encode_text(column, spec.missing_label)
        schemas.append(FeatureSchema(name, tuple(labels)))
        columns.append(codes)
    return DiscreteDataset(schemas, np.column_stack(columns), outcome, header[y_col])


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


def _validate_constraints(constraints: Mapping[int, Iterable[int]],
                          dataset: DiscreteDataset | None = None) -> dict[int, frozenset[int]]:
    """A constraint mapping as feature index -> non-empty frozenset of codes,
    in feature order. Given a dataset, every feature index and value code
    must also lie in its range."""
    items = dict(constraints)
    out: dict[int, frozenset[int]] = {}
    for key in sorted(items):
        feature = int(key)
        if dataset is not None and not 0 <= feature < dataset.n_features:
            raise DataError(f"descriptor references unknown feature index {feature}")
        values = frozenset(int(v) for v in items[key])
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
