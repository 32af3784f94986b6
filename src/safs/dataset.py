"""Tabular data model: CSV ingestion, quantile discretization, stratification.

Records are stored as integer category codes, column-major so that each
feature's column is contiguous, plus a binary outcome vector. The dataset is
immutable after construction and safe to share across threads.

Ingest cost. ``load_csv`` reads the file's bytes once; without a double quote,
numpy finds their line ends and commas with elementwise passes, O(bytes), to
check the row lengths and to size each text column to its widest cell. One
``np.loadtxt`` pass of numpy's C tokenizer then parses every column: float64
where the first cell is a number or empty, text otherwise. A fixed-width text
column whose cells fit one 63-bit word (9 ASCII characters, 3 astral ones) is
packed into one int64 key per cell and encoded in first-appearance order by
one argsort of the keys, O(N log N) integer work with no string compared; a
column of wider cells or of Python strings (a file with a double quote, an
over-long cell) sorts its strings instead. The outcome is encoded with one
``np.unique``; each numeric column is binned with one quantile and one
comparison per bin edge. ``float()`` runs per cell only as the fallback, for
columns in which numpy's float parser rejects a cell (an empty cell,
``1_000``, non-ASCII digits, a text cell below a number).
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
    # interior quantile edges; ties collapse, possibly down to a single bin
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.unique(np.quantile(finite, qs)) if qs.size else np.array([])
    # an edge at or above the max (or below the min) would leave a dead bin
    edges = edges[(edges >= finite.min()) & (edges < finite.max())]
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


def _encode_text(cells: np.ndarray, missing_label: str) -> tuple[list[str], np.ndarray]:
    """Distinct cells in first-appearance order; empty cells are the missing
    label."""
    empty = cells == ""
    if empty.any():
        cells = np.where(empty, missing_label, cells)
    # np.unique's grouping, with each group's first row as its least row:
    # return_index would sort stably, which took 3x as long on int64 keys
    keys = _keys(cells)
    rows = np.argsort(keys)
    sorted_keys = keys[rows]
    new = np.concatenate(([True], sorted_keys[1:] != sorted_keys[:-1]))
    first = np.minimum.reduceat(rows, np.flatnonzero(new))
    order = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.arange(order.size)
    row_codes = np.empty_like(rows)
    row_codes[rows] = codes[np.cumsum(new) - 1]
    return cells[first[order]].tolist(), row_codes


def _keys(cells: np.ndarray) -> np.ndarray:
    """Sort keys for a text column, equal exactly where the cells are equal:
    one int64 per cell for a fixed-width str column whose cells fit one
    63-bit word, else the cells themselves.

    A str cell is a row of code points below 2**21, zero-padded to the
    column's width. Each takes the bits of the column's largest code point,
    so a word holds 9 ASCII or 3 astral code points.
    """
    if cells.dtype.kind != "U":
        return cells
    n, width = cells.size, cells.dtype.itemsize // 4
    units = np.ascontiguousarray(cells).view(np.uint32).reshape(n, width)
    bits = max(int(units.max()).bit_length(), 1)
    if width * bits > 63:
        return cells
    key = np.zeros(n, dtype=np.int64)
    for j in range(width):
        key |= np.left_shift(units[:, j], bits * j, dtype=np.int64)
    return key


def _check_fields(fields: np.ndarray, ncols: int, path) -> None:
    """Every non-blank record must have one field per header column."""
    bad = np.flatnonzero(fields != ncols)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: row {i + 2} has {fields[i]} fields, expected {ncols}")


def _text_kind(width: int, limit: float) -> str:
    """The numpy dtype for a text column whose widest cell has ``width``
    characters: fixed-width str, which encodes several times faster than
    Python strings, unless that cell is longer than ``limit``, the file's
    mean line length, so that the array takes at most 4 bytes per file byte."""
    return f"U{max(width, 1)}" if width <= limit else "O"


def _scan_unquoted(raw: np.ndarray, ncols: int, path) -> list[str]:
    """Check the row lengths of CSV bytes without a quote character and
    return each column's text dtype, sized by its widest cell in bytes (which
    bounds its width in characters). A line ends at LF, CR or CRLF, as in
    csv.reader: every CR and LF ends a line here, and the empty line inside a
    CRLF is skipped with the blank lines."""
    ends = np.flatnonzero((raw == ord("\r")) | (raw == ord("\n")))
    stops = np.append(ends, raw.size)
    starts = np.concatenate(([0], ends + 1))
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
    # the dataset copies its codes: free the parsed cells first, so that the
    # copy does not raise the load's peak memory
    del records, column
    return DiscreteDataset(schemas, np.array(columns, dtype=np.int32).T, outcome, header[y_col])


def stratify(dataset: DiscreteDataset, feature: int, value: int) -> ContingencyTable:
    """2x2 contingency table of (feature == value) against the outcome."""
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
