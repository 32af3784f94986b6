"""Tabular data model: CSV ingestion, quantile discretization, stratification.

Records are stored as integer category codes, column-major so that each
feature's column is contiguous, plus a binary outcome vector. The dataset is
immutable after construction and safe to share across threads.

Ingest cost. ``load_csv`` reads the file's bytes once. numpy finds their
line ends and commas with elementwise passes, O(bytes), which check the row
lengths and give every cell's byte span. A text column, the outcome too, is
keyed from those bytes: a cell of at most 8 bytes is one 64-bit word read at
its start, a wider cell a fixed-width bytes string of such words. One
argsort of the keys encodes the column in first-appearance order, O(N log N)
integer work with no string built; only each category's first cell is
decoded, for its label. Python strings are built only for a column whose
widest cell is longer than the file's mean line, which bounds the keys at
about one byte per file byte.

Quotes are read as ``csv.reader`` reads them, over runs of adjacent quote
bytes and with whole-array passes, O(bytes + quotes). A run opens a quoted
cell when it starts a cell: it follows a comma or a line end outside quotes,
or starts the text. Inside a quoted cell each pair of quotes is one literal
quote, and a run of odd length closes the cell at its last quote; text after
a closing quote joins the cell (``"ab"cd`` is ``abcd``), and any other quote
is text (``5'10"``, ``a""b``). A cell that is never closed runs to the end of
the file. An even run leaves the state as it is, an odd run at a cell start
flips it and any other odd run resets it to outside, so the state after a
run is the parity of the flips since the last reset, a cumulative XOR over
the runs. Only commas and line ends outside quoted cells delimit; a
cumulative XOR over the bytes marks those inside. A quoted cell's span
moves in past its quotes, and only a cell that holds a doubled quote or text
after its closing quote is copied, unescaped, to a buffer after the file's
bytes; a file without a quote runs none of this.

A numeric candidate, a column whose first cell is a number or empty, is
parsed from the same words, in blocks of 64k cells: a cell of at most 8
bytes matching ``-?[0-9]*\\.?[0-9]*`` loses its sign and dot, its digits
become an integer by three multiplies, and one division by a power of ten
gives what ``float()`` gives, bit for bit; an empty cell is nan. Every other
cell is declined (a wider cell, an exponent, a space, text). When the
declined cells are fewer than two a row, ``float()`` decides each one,
decoded from its span; else one ``np.loadtxt`` pass of numpy's C tokenizer
parses the candidates that hold them, as float64, and where numpy's float
parser rejects a cell (an empty cell, ``1_000``, non-ASCII digits, a text
cell below a number) ``float()`` decides every cell of those columns. Each
numeric column is binned with one sort, its quantile edges read from the
sorted copy, and one comparison per bin edge.
"""

from __future__ import annotations

import codecs
import csv
import operator
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
    # np.quantile partitions a sorted copy much faster than the cells in
    # their own order: a sort plus np.quantile took 0.33 ms on a column of
    # 20k lognormal values, np.quantile alone 0.68 ms
    ordered = np.sort(finite)
    # interior quantile edges; ties collapse, possibly down to a single bin
    qs = np.linspace(0.0, 1.0, bins + 1)[1:-1]
    edges = np.quantile(ordered, qs) if qs.size else np.array([])
    # equal floats are equal bit for bit but for -0.0 and 0.0, which the two
    # orders may place apart, and a nonzero interpolation does not depend on
    # the sign of a zero: only a zero edge may print otherwise ("-0", "0")
    if not edges.all():
        edges = np.quantile(finite, qs)
    edges = np.unique(edges)
    # an edge at or above the max (or below the min) would leave a dead bin
    edges = edges[(edges >= ordered[0]) & (edges < ordered[-1])]
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


# A text column's cells are byte spans of the file: cell i of a column is
# data[lo[i] + 1:hi[i]], between the delimiters at lo[i] and hi[i]. The data
# holds no NUL and ends with at least 7 bytes past its last cell, so that an
# 8-byte word can be read at any cell's start.
_PAD = bytes(8)
# _MASKS[n] keeps the first n bytes of a little-endian word
_MASKS = np.array([(1 << 8 * n) - 1 for n in range(9)], dtype=np.uint64)


def _picks(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The byte offsets of the cells at spans lo, hi, each cell's bytes and
    then its delimiter at hi, in one array, and where each cell's part of it
    ends."""
    sizes = hi - lo
    ends = np.cumsum(sizes)
    return np.arange(int(ends[-1])) + np.repeat(hi + 1 - ends, sizes), ends


def _cells(data: bytes, lo: np.ndarray, hi: np.ndarray) -> list[str]:
    """A column's cells at byte spans of UTF-8 data, decoded."""
    # each cell's bytes and the delimiter after it, which becomes a NUL, are
    # gathered into one buffer; one decode and one split build the strings
    picks, ends = _picks(lo, hi)
    joined = np.frombuffer(data, dtype=np.uint8)[picks]
    joined[ends - 1] = 0
    return joined.tobytes().decode().split("\0")[:-1]


def _words(data: bytes, starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """The bytes at each start of data, as many as its length (0-8), as one
    little-endian 64-bit word, zero above them."""
    # every 8-byte window of data, one at each byte
    windows = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    return windows[starts] & _MASKS[lengths]


def _decimals(data: bytes, lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The cells at byte spans of data as float64, and a mask of the cells
    parsed: an empty cell is nan, and a cell of at most 8 bytes matching
    ``-?[0-9]*\\.?[0-9]*`` with a digit is the value ``float()`` gives it,
    bit for bit. Every other cell is declined; its value is undefined.

    A cell's word has its sign byte and dot taken out and its digits
    converted by three multiplies (Lemire, "Number Parsing at a Gigabyte per
    Second", 2021). The integer, below 10**8, over a power of ten of at most
    10**8 is one correctly rounded division of exact doubles, so it equals
    the correctly rounded decimal (Clinger, PLDI 1990).
    """
    values = np.empty(lo.size)
    parsed = np.zeros(lo.size, dtype=bool)
    # blocks of cells keep the temporaries cache-sized: at 10^6 rows a
    # column took 130-170 ms in one piece and 60-70 ms in blocks of 16k-64k
    block = 1 << 16
    for a in range(0, lo.size, block):
        starts = lo[a:a + block] + 1
        lengths = hi[a:a + block] - starts
        # a cell of 9 or more bytes is declined unread
        short = lengths <= 8
        if short.all():
            rows = slice(a, a + block)
        elif short.any():
            rows = np.flatnonzero(short)
            starts, lengths = starts[rows], lengths[rows]
            rows += a
        else:
            continue
        values[rows], parsed[rows] = _parse_words(data, starts, lengths)
    return values, parsed


def _parse_words(data: bytes, starts: np.ndarray,
                 lengths: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``_decimals`` of the cells of 0-8 bytes at starts of data."""
    u8, u64 = np.uint8, np.uint64
    ones = u64(0x0101010101010101)
    word = _words(data, starts, lengths)
    neg = (word & u64(0xFF)) == u64(ord("-"))
    word >>= neg.view(u8) << u8(3)
    # one flag byte, 0x01, per digit, per dot and (in `body`) per byte of the
    # cell after its sign; the bytes past the cell are zero, neither digit
    # nor dot
    chars = word.view(u8)
    digits = ((chars - u8(ord("0"))) < 10).view(u64)
    dots = (chars == ord(".")).view(u64)
    body = (_MASKS & ones)[lengths - neg]
    # every bit below the dot's byte; every bit when there is no dot
    below = dots - u64(1)
    empty = lengths == 0
    ok = ((digits | dots) == body) & ((dots & below) == 0) & ((digits != 0) | empty)
    # the digits before the dot, as a byte sum: the top byte of a product by
    # `ones` adds up the bytes
    before = ((body & below) * ones) >> u64(56)
    # drop the dot: the bytes above it move down one
    word = (word & below) | ((word >> u64(8)) & ~below)
    # the digits, first at the lowest byte and zero-padded to 8, as an
    # integer, which the padding scales by 10**(8 - before)
    word = (word & u64(0x0F0F0F0F0F0F0F0F)) * u64(10 * 2**8 + 1) >> u64(8)
    word = (word & u64(0x00FF00FF00FF00FF)) * u64(100 * 2**16 + 1) >> u64(16)
    word = (word & u64(0x0000FFFF0000FFFF)) * u64(10000 * 2**32 + 1) >> u64(32)
    scales = np.array([10 ** (8 - k) for k in range(9)], dtype=np.float64)
    values = word.astype(np.float64) / scales[before]
    np.negative(values, out=values, where=neg)  # last, so -0 is -0.0
    values[empty] = np.nan
    return values, ok


def _keys(data: bytes, lo: np.ndarray, hi: np.ndarray, limit: float) -> np.ndarray:
    """Sort keys for the cells at byte spans of data, equal exactly where the
    cells are equal.

    A cell's key is its bytes, zero-padded to the column's widest cell: one
    little-endian 64-bit word when that cell has at most 8 bytes, else a
    fixed-width bytes string of such words. An empty cell is zero, and no
    other is, since no cell holds a NUL. A column whose widest cell is
    longer than ``limit`` bytes, the file's mean line length, is keyed by
    its cells as Python strings instead, so that the keys take at most
    about one byte per file byte.
    """
    starts = lo + 1
    lengths = hi - starts
    width = int(lengths.max())
    if width > limit:
        return np.array(_cells(data, lo, hi), dtype=object)
    if width <= 8:
        return _words(data, starts, lengths)
    words = [_words(data, np.minimum(starts + k, hi), np.clip(lengths - k, 0, 8))
             for k in range(0, width, 8)]
    return np.column_stack(words).view(f"S{8 * len(words)}").ravel()


def _distinct(data: bytes, lo: np.ndarray, hi: np.ndarray,
              limit: float) -> tuple[list[str], np.ndarray]:
    """The distinct cells at byte spans of data, in first-appearance order,
    and each cell's index among them. Only one cell per category is decoded."""
    keys = _keys(data, lo, hi, limit)
    # np.unique's grouping, with each group's first row as its least row:
    # return_index would sort stably, which took 3x as long on 64-bit keys
    rows = np.argsort(keys)
    sorted_keys = keys.take(rows)
    new = np.empty(rows.size, dtype=bool)
    new[0] = True
    # the operator, not np.not_equal: numpy before 1.25 has no ufunc loop
    # comparing bytes strings
    new[1:] = sorted_keys[1:] != sorted_keys[:-1]
    bounds = np.flatnonzero(new)
    first = np.minimum.reduceat(rows, bounds)
    order = np.argsort(first)
    codes = np.empty_like(order)
    codes[order] = np.arange(order.size)
    row_codes = np.empty_like(rows)
    row_codes[rows] = np.repeat(codes, np.concatenate((bounds[1:], [rows.size])) - bounds)
    # one cell per category: decoded one at a time, which costs less than
    # _cells's fixed numpy overhead at these counts
    first = first[order]
    labels = [data[a + 1:b].decode() for a, b in zip(lo[first].tolist(), hi[first].tolist())]
    return labels, row_codes


def _encode_text(data: bytes, lo: np.ndarray, hi: np.ndarray, limit: float,
                 missing_label: str) -> tuple[list[str], np.ndarray]:
    """Distinct cells in first-appearance order; empty cells are the missing
    label, one category with any cell that holds that label."""
    labels, codes = _distinct(data, lo, hi, limit)
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


def _check_fields(fields: np.ndarray, ncols: int, path) -> None:
    """Every non-blank record must have one field per header column."""
    bad = np.flatnonzero(fields != ncols)
    if bad.size:
        i = int(bad[0])
        raise DataError(f"{path}: row {i + 2} has {fields[i]} fields, expected {ncols}")


def _scan(data: bytes, size: int, ncols: int, path) -> list[tuple]:
    """Check the row lengths of CSV bytes (``size`` bytes of data, then its
    padding) and return each column's cells as byte spans (data, lo, hi):
    cell i is data[lo[i] + 1:hi[i]]. An unquoted cell lies between its
    delimiters, the first of which ends the line before in the first
    column; ``_unquote`` moves a quoted cell's span. A line ends at LF, CR
    or CRLF, as in csv.reader: every CR and LF outside quotes ends a line
    here, and the empty line inside a CRLF is skipped with the blank lines."""
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    ends = np.flatnonzero((raw == ord("\r")) | (raw == ord("\n")))
    commas = np.flatnonzero(raw == ord(","))
    quoted = b'"' in data
    if quoted:
        in_quotes, *runs = _quotes(raw, 3 if data.startswith(codecs.BOM_UTF8) else 0)
        ends, commas = ends[~in_quotes[ends]], commas[~in_quotes[commas]]
    stops = np.append(ends, raw.size)
    starts = np.concatenate(([0], ends + 1))
    # the commas before each line's end; no comma is a line end, so a
    # line's first comma follows the last one of the line before
    last = np.searchsorted(commas, stops)
    filled = stops[1:] > starts[1:]  # line 0 is the header; blank lines are skipped
    _check_fields(np.diff(last, prepend=0)[1:][filled] + 1, ncols, path)
    # every data line now holds ncols - 1 commas, in file order
    bounds = commas[last[0]:].reshape(-1, ncols - 1)
    row_lo, row_hi = starts[1:][filled] - 1, stops[1:][filled]
    # a contiguous copy of each column, which is read several times: 20k
    # offsets took about 7 us to read contiguous, 40 us strided across rows.
    # Column by column, the copies loaded scan-large inputs about 3 ms
    # faster than one transposed copy of the whole matrix
    if quoted:
        data, lo, hi = _unquote(data, size, row_lo, bounds, row_hi, in_quotes, *runs)
        lo, hi = [c.copy() for c in lo], [c.copy() for c in hi]
    else:
        cols = [c.copy() for c in bounds.T]
        lo, hi = [row_lo, *cols], [*cols, row_hi]
    return [(data, a, b) for a, b in zip(lo, hi)]


def _quotes(raw: np.ndarray, origin: int) -> tuple[np.ndarray, ...]:
    """Where csv.reader's quoted cells lie in CSV bytes with a quote, whose
    text starts at byte ``origin``: a mask of the bytes inside a quoted
    cell (at a quote, whether one is open after the quote's run), and the
    runs of adjacent quote bytes, as their starts, their lengths and
    whether each starts a cell.

    A run starts a cell when it starts the text or follows a comma, CR or
    LF. The runs decide the state on their own: an even run leaves it as it
    is, an odd run at a cell start flips it (it opens a cell, or closes one
    at a comma inside it), and any other odd run resets it to outside (it
    closes a cell, or is text).
    """
    quotes = np.flatnonzero(raw == ord('"'))
    head = np.ones(quotes.size + 1, dtype=bool)
    np.not_equal(np.diff(quotes), 1, out=head[1:-1])
    heads = np.flatnonzero(head)
    start, length = quotes[heads[:-1]], np.diff(heads)
    odd = (length & 1).astype(bool)
    before = raw[start - 1]
    at_cell = (before == ord(",")) | (before == ord("\r")) | (before == ord("\n"))
    at_cell[0] |= start[0] == origin
    # the state after a run is the parity of the flips since the last reset:
    # the parity of all flips so far, less that parity at the last reset
    toggles = odd & at_cell
    resets = np.flatnonzero(odd & ~at_cell)
    parity = np.logical_xor.accumulate(toggles)[resets]
    toggles[resets[1:]] = parity[1:] ^ parity[:-1]
    toggles[resets[:1]] = parity[:1]
    # each byte's state is the one after the last run before it
    in_quotes = np.zeros(raw.size, dtype=bool)
    in_quotes[start] = toggles
    np.logical_xor.accumulate(in_quotes, out=in_quotes)
    return in_quotes, start, length, at_cell


def _unquote(data: bytes, size: int, row_lo: np.ndarray, bounds: np.ndarray, row_hi: np.ndarray,
             in_quotes: np.ndarray, start: np.ndarray, length: np.ndarray,
             at_cell: np.ndarray) -> tuple[bytes, np.ndarray, np.ndarray]:
    """The spans lo, hi of a quoted file's columns, from the delimiters
    before and after each data row and the commas between (``bounds``),
    with each cell whose first byte is a quote read as csv.reader reads it,
    given ``_quotes``.

    Such a cell starts after its opening quote and ends before its last
    byte when that is a quote too: ``"…"`` and ``""`` are then read, and
    so is an unclosed ``"…``, which only the file's end ends. A cell that
    still holds a quote, a doubled one or one that closes it before more
    text, is unescaped into a buffer after the file's bytes."""
    padded = np.frombuffer(data, dtype=np.uint8)
    # a row of cells per record, in file order
    lo = np.concatenate((row_lo[:, None], bounds), axis=1)
    hi = np.concatenate((bounds, row_hi[:, None]), axis=1)
    opened = padded[1:][lo] == ord('"')  # each cell's first byte
    # the quote bytes left in the data rows; the header is csv.reader's
    left = length[np.searchsorted(start, lo[0, 0]):].sum() - np.count_nonzero(opened)
    lo += opened
    hi -= 1  # each cell's last byte, for now
    closed = opened & (hi > lo) & (padded[hi] == ord('"'))
    hi += ~closed
    left -= np.count_nonzero(closed)
    if not left:
        return data, lo.T, hi.T
    # the cells that still hold a quote
    quotes = np.flatnonzero(padded[:size] == ord('"'))
    row, col = np.nonzero(opened)
    held = np.searchsorted(quotes, hi[row, col]) > np.searchsorted(quotes, lo[row, col] + 1)
    row, col = row[held], col[held]
    if not row.size:
        return data, lo.T, hi.T  # the quotes left are text in unquoted cells
    # their bytes after the opening quote, less the quotes csv.reader drops,
    # and the byte at their end, which becomes a separator
    drop = quotes[_syntax(quotes, start, length, at_cell, in_quotes)]
    picks, ends = _picks(lo[row, col], hi[row, col] + closed[row, col])
    keep = drop[np.minimum(np.searchsorted(drop, picks), drop.size - 1)] != picks
    keep[ends - 1] = True
    seps = size + np.cumsum(keep)[ends - 1] - 1
    lo[row, col], hi[row, col] = np.append(size - 1, seps[:-1]), seps
    return b"".join((memoryview(data)[:size], padded[picks[keep]], _PAD)), lo.T, hi.T


def _syntax(quotes: np.ndarray, start: np.ndarray, length: np.ndarray, at_cell: np.ndarray,
            in_quotes: np.ndarray) -> np.ndarray:
    """A mask of the quote bytes at ``quotes`` that csv.reader drops, given
    ``_quotes``: a cell's opening quote, the first of each pair inside a
    quoted cell, and a closing quote."""
    inside = in_quotes[start - 1] & (start > 0)  # before each run
    opens = at_cell & ~inside
    run = np.repeat(np.arange(start.size), length)
    offset = quotes - start[run]
    phase = opens[run]  # an opening run's first quote opens its cell
    return (phase | inside[run]) & ((offset == 0) | ((offset + phase) & 1 == 0))


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
        if not data.isascii():
            # most cells are keyed from their bytes and never decoded
            data.decode("utf-8")
        size = len(data)
        data += _PAD
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
            # a column may be numeric when its first cell is a number or empty
            numeric = [j for j, cell in enumerate(first) if j != y_col
                       and (cell == "" or _parse_numbers([cell]) is not None)]
            columns = _columns(fh, start, path, data, size, header, numeric)
        del data
        return _encode_columns(header, y_col, columns, size, spec)
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


def _columns(fh, start: int, path, data: bytes, size: int, header: list[str],
             numeric: list[int]) -> list:
    """The columns of CSV bytes (``size`` bytes of data, then its padding),
    the records after the header starting at ``start`` of the open file fh:
    parsed float64 cells for a numeric column, else the cells' byte spans
    (data, lo, hi). ``_decimals`` parses the numeric candidates' plain
    decimals from their words; ``float()`` or one ``np.loadtxt`` pass
    decides the cells it declines."""
    columns = _scan(data, size, len(header), path)
    rows = columns[0][1].size
    parsed, done = {}, {}
    for j in numeric:
        parsed[j], done[j] = _decimals(*columns[j])
    declined = {j: done[j].size - np.count_nonzero(done[j]) for j in numeric}
    rest = [j for j in numeric if declined[j]]
    # Cells the word parse declined (over 8 bytes, exponents, spaces, text)
    # are decided by float() when they are fewer than two a row, else by one
    # np.loadtxt pass over their columns. On scan-large inputs float() costs
    # about 0.2 us a cell, decoding included, and a np.loadtxt pass 0.65 us
    # a row converting one column and 1.1 us converting ten. On 20k rows of
    # short decimals, one %.8f column (one declined cell a row) loaded in
    # 35.9 ms by float() against 41.9 ms by np.loadtxt, two such columns
    # tied, and three were faster by np.loadtxt.
    if sum(declined.values()) < 2 * rows:
        for j in rest:
            data, lo, hi = columns[j]
            cells = np.flatnonzero(~done[j])
            try:
                parsed[j][cells] = [float(c) for c in _cells(data, lo[cells], hi[cells])]
            except ValueError:
                parsed[j] = None
    else:
        try:
            # one copy makes each column contiguous: binning ten 20k-row
            # columns took 8.4 ms, against 10.6 ms on the rows' strided ones
            # numpy's C tokenizer: commas, double quotes opening a cell only
            # at its start, as in csv.reader, and '#' an ordinary character
            fh.seek(start)
            loaded = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None,
                                usecols=rest, ndmin=2)
            loaded = np.ascontiguousarray(loaded.T)
            parsed.update(zip(rest, loaded))
        except ValueError:
            # numpy's float parser takes a subset of what float() takes;
            # finding the columns it rejected would cost a pass per column,
            # so float() decides every cell of these columns
            parsed.update((j, _parse_numbers(_cells(*columns[j]))) for j in rest)
    for j, values in parsed.items():
        # parsed cells are never nan but empty ones: a column of empty
        # cells only is text
        if values is not None and (declined[j] or not np.isnan(values).all()):
            columns[j] = values
    return columns


def _encode_columns(header: list[str], y_col: int, columns: list, size: int,
                    spec: DiscretizationSpec) -> DiscreteDataset:
    """Encode every column: the outcome to 0/1, a numeric column to quantile
    bins, a text column to its distinct cells. ``size`` is the file's byte
    count; a text column wider than a mean line keys Python strings."""
    limit = size / len(columns[y_col][1])
    outcome = _encode_outcome(*_distinct(*columns[y_col], limit), header[y_col])
    schemas: list[FeatureSchema] = []
    codes: list[np.ndarray] = []
    for j, name in enumerate(header):
        if j == y_col:
            continue
        # a column is dropped as it is encoded, so that the parsed cells of
        # the encoded columns are freed while the others are encoded
        column, columns[j] = columns[j], None
        if isinstance(column, tuple):
            labels, column_codes = _encode_text(*column, limit, spec.missing_label)
        else:
            labels, column_codes = _encode_numeric(name, column, spec.bins, spec.missing_label)
        schemas.append(FeatureSchema(name, tuple(labels)))
        codes.append(column_codes)
    # the dataset copies its codes: free the parsed cells first, so that the
    # copy does not raise the load's peak memory
    columns.clear()
    del column
    return DiscreteDataset(schemas, np.array(codes, dtype=np.int32).T, outcome, header[y_col])


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
