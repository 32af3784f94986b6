"""CSV bytes to columns: every byte-level decision behind ``load_csv``.

``read_csv`` reads the file once and returns the header's names and a
``Columns``, which hands each column out once, as float64 numbers or as its
distinct cells and row codes: this module decides how each cell is read and
which columns hold numbers, ``dataset.py`` what they mean. One byte scan
reads all of the file, the header row too: numpy finds the line ends and
commas with elementwise passes, O(bytes), which give the names, the row
lengths and every cell's byte span. A text column, the outcome too, is keyed
from those bytes: a cell of at most 8 bytes is one 64-bit word read at its
start, a wider cell a fixed-width bytes string of such words. Python strings
are built only for a column whose widest cell is longer than a mean record,
which bounds the keys at about one byte per file byte.

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
cell is declined (a wider cell, an exponent, a space, text).
"""

from __future__ import annotations

import codecs
import io
from typing import Callable, Iterable

import numpy as np

from .errors import DataError


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
    longer than ``limit`` bytes, the mean record's length, is keyed by
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
    and each cell's index among them, keyed by ``_keys`` with ``limit``.
    Only one cell per category is decoded."""
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


class Columns:
    """The cells of a CSV file's columns at byte spans of ``data``: row i of
    column j is data[lo[j][i] + 1:hi[j][i]], row 0 its name, and ``records``
    the bytes after the header. ``numbers`` and ``categories`` hand each
    column's records out once and drop its spans."""

    def __init__(self, data: bytes, lo: list, hi: list, records: memoryview):
        self._data, self._records, self._rows = data, records, lo[0].size - 1
        self._spans = {j: (a[1:], b[1:]) for j, (a, b) in enumerate(zip(lo, hi))}

    def categories(self, j: int) -> tuple[list[str], np.ndarray]:
        """Column j's distinct cells in first-appearance order, and each row's
        index among them; a column whose widest cell is longer than a mean
        record is keyed by Python strings (``_keys``)."""
        lo, hi = self._spans.pop(j)
        return _distinct(self._data, lo, hi, len(self._records) / self._rows)

    def numbers(self, columns: Iterable[int]) -> dict[int, np.ndarray]:
        """Those of the given columns that hold numbers, as float64, an empty
        cell nan: whose first cell is a number or empty, and whose cells
        ``float()`` takes, but not all empty. ``_decimals`` parses the plain
        decimals; ``float()`` or one ``np.loadtxt`` pass over the records
        decides the cells it declines, ``float()`` when numpy rejects one."""
        data, parsed, done = self._data, {}, {}
        for j in columns:
            lo, hi = self._spans[j]
            try:
                float(data[lo[0] + 1:hi[0]].decode() or "0")
            except ValueError:
                continue
            parsed[j], done[j] = _decimals(data, lo, hi)
        declined = {j: done[j].size - np.count_nonzero(done[j]) for j in parsed}
        rest = [j for j in parsed if declined[j]]
        # Cells the word parse declined (over 8 bytes, exponents, spaces, text)
        # are decided by float() when they are fewer than two a row, else by one
        # np.loadtxt pass over their columns. On scan-large inputs float() costs
        # about 0.2 us a cell, decoding included, and a np.loadtxt pass 0.65 us
        # a row converting one column and 1.1 us converting ten. On 20k rows of
        # short decimals, one %.8f column (one declined cell a row) loaded in
        # 35.9 ms by float() against 41.9 ms by np.loadtxt, two such columns
        # tied, and three were faster by np.loadtxt.
        if sum(declined.values()) >= 2 * self._rows:
            try:
                # numpy's C tokenizer: commas, double quotes opening a cell only
                # at its start, as in csv.reader, and '#' an ordinary character;
                # it splits CR-only lines from text (newline=""), not from bytes
                with io.TextIOWrapper(io.BytesIO(self._records), "utf-8", newline="") as text:
                    loaded = np.loadtxt(text, delimiter=",", quotechar='"', comments=None,
                                        usecols=rest, ndmin=2)
                # one copy makes each column contiguous: binning ten 20k-row
                # columns took 8.4 ms, against 10.6 ms on the rows' strided ones
                parsed.update(zip(rest, np.ascontiguousarray(loaded.T)))
                rest = []
            except ValueError:
                # numpy's float parser takes a subset of what float() takes (it
                # rejects an empty cell, or one such as 1_000): float() decides
                # the declined cells; the word-parsed ones hold float()'s values
                pass
        for j in rest:
            lo, hi = self._spans[j]
            cells = np.flatnonzero(~done[j])
            try:
                parsed[j][cells] = [float(c) for c in _cells(data, lo[cells], hi[cells])]
            except ValueError:
                del parsed[j]
        # parsed cells are never nan but empty ones: a column of empty cells
        # only is text
        numbers = {j: v for j, v in parsed.items() if declined[j] or not np.isnan(v).all()}
        for j in numbers:
            del self._spans[j]
        return numbers


def read_csv(path, check_header: Callable) -> tuple[list[str], Columns]:
    """Read the CSV file at ``path``, in one read: its header's names and the
    records' cells, as ``Columns``. ``check_header`` sees the names before
    any record's length is checked.

    Line 0 is the header. An unquoted cell lies between its delimiters, the
    first of which ends the line before in the first column; ``_unquote``
    moves a quoted cell's span. A line ends at LF, CR or CRLF, as in
    csv.reader: every CR and LF outside quotes ends a line here, and the
    empty line inside a CRLF is skipped with the blank lines."""
    with open(path, "rb") as fh:
        data = fh.read()
    if b"\0" in data:
        raise DataError(f"{path}: contains a NUL byte, so it is not UTF-8 CSV text")
    if not data.isascii():
        # most cells are keyed from their bytes and never decoded
        data.decode("utf-8")
    size = len(data)
    data += _PAD
    origin = 3 if data.startswith(codecs.BOM_UTF8) else 0
    if size == origin:
        raise DataError(f"{path}: empty file")
    raw = np.frombuffer(data, dtype=np.uint8, count=size)
    ends = np.flatnonzero((raw == ord("\r")) | (raw == ord("\n")))
    commas = np.flatnonzero(raw == ord(","))
    quoted = b'"' in data
    if quoted:
        in_quotes, *runs = _quotes(raw, origin)
        ends, commas = ends[~in_quotes[ends]], commas[~in_quotes[commas]]
    stops = np.append(ends, raw.size)
    starts = np.concatenate(([origin], ends + 1))
    # the commas before each line's end; no comma is a line end, so a
    # line's first comma follows the last one of the line before
    last = np.searchsorted(commas, stops)
    ncols = int(last[0]) + 1
    keep = np.append(True, stops[1:] > starts[1:])  # line 0, the header; no blank line
    fields = np.diff(last, prepend=0)[keep] + 1
    bad = np.flatnonzero(fields != ncols)[:1]  # the first record of the wrong length
    records, fields = fields.size - 1, fields[bad]  # keeps only the count an error names
    # the rows of spans, the header's and the records' when each holds ncols
    # fields: every such line holds ncols - 1 commas, in file order
    keep[1:] &= not bad.size
    row_lo, row_hi = starts[keep] - 1, stops[keep]
    bounds = commas[:last[0] if bad.size else None].reshape(row_lo.size, ncols - 1)
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
    # cell 0 of each column is its name; csv.reader reads a blank line 0 as no names
    header = [data[a[0] + 1:b[0]].decode() for a, b in zip(lo, hi)] if stops[0] > origin else []
    check_header(header)
    if not records:
        raise DataError(f"{path}: no data rows")
    if bad.size:
        raise DataError(f"{path}: row {bad[0] + 1} has {fields[0]} fields, expected {ncols}")
    return header, Columns(data, lo, hi, memoryview(data)[stops[0] + 1:size])


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
    before and after each row, the header's too, and the commas between
    (``bounds``), with each cell whose first byte is a quote read as
    csv.reader reads it, given ``_quotes``.

    Such a cell starts after its opening quote and ends before its last
    byte when that is a quote too: ``"…"`` and ``""`` are then read, and
    so is an unclosed ``"…``, which only the file's end ends. A cell that
    still holds a quote, a doubled one or one that closes it before more
    text, is unescaped into a buffer after the file's bytes."""
    padded = np.frombuffer(data, dtype=np.uint8)
    # a row of cells per line, in file order
    lo = np.concatenate((row_lo[:, None], bounds), axis=1)
    hi = np.concatenate((bounds, row_hi[:, None]), axis=1)
    opened = padded[lo + 1] == ord('"')  # each cell's first byte
    left = length.sum() - np.count_nonzero(opened)  # the quote bytes left
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
