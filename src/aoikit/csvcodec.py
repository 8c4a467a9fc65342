"""The array paths of the trace CSV format: rows written in blocks
through a table of four-byte words, and plain input read in blocks,
one separator scan a block. `aoikit.trace` imports this module on its
first write or read, so a command that touches no trace CSV does not
load it."""

from __future__ import annotations

import functools
from typing import Iterator, Optional, Sequence

import numpy as np

from .trace import _HEADER_LINE, _I64_MAX, _LOST

# rows formatted per write; bounds the writer's memory, which holds
# about 16 bytes a word of a block at its peak (an intp index, the
# words taken and their bytes), near 0.7 MB for rows of 11 words
WRITE_CHUNK = 4096
# bytes of rows scanned per read step; bounds the reader's memory
# beside its columns, under 1 MB of separator offsets, words and
# masks for rows of 38 bytes
READ_BLOCK = 256 * 1024


# The writer spells a field as four-byte words: the field's last three
# digits and its separator, and above them chunks of four digits. Words
# are padded with spaces, which it deletes once a block is formatted.
_CHUNK = 10**4
_COMMA_LAST = 2 * _CHUNK  # "%03d," then "%3d," for a leading chunk
_NEWLINE_LAST = _COMMA_LAST + 2000  # the same, ending the row
_EMPTY_FIELD = _NEWLINE_LAST + 2000  # "   ,", a lost packet's recv_ns


@functools.cache  # built once, on the first write
def _words() -> np.ndarray:
    """Every word the writer uses, as uint32, at the indices above:
    inner chunks "%04d" from 0, then a blank chunk above the leading
    one, and the leading chunks "%4d" from 1."""
    text = b"".join([
        b"%04d" * _CHUNK % tuple(range(_CHUNK)),
        b"    ",
        b"%4d" * (_CHUNK - 1) % tuple(range(1, _CHUNK)),
        *(fmt * 1000 % tuple(range(1000)) for fmt in (b"%03d,", b"%3d,", b"%03d\n", b"%3d\n")),
        b"   ,",
    ])
    return np.frombuffer(text, np.uint32)  # read-only: shared by every write


# The reader converts a field from the little-endian 64-bit words that
# end 0, 8 and 16 bytes before its separator. _FIELD_MASKS[w, n] selects
# the bytes of word w that hold digits of an n-digit field.
_FIELD_MASKS = np.array(
    [[2**64 - 2**(64 - 8 * min(8, max(0, n - 8 * w))) for n in range(20)]
     for w in range(3)], dtype=np.uint64)
_ROW_SEPARATORS = int.from_bytes(b",,,\n", "little")


def write_blocks(columns: Sequence[np.ndarray]) -> Iterator[bytes]:
    """The rows of four int64 columns as CSV text in blocks of
    `WRITE_CHUNK` rows. Values are non-negative but for _LOST in the
    third column, written as an empty field. Only one block's arrays
    are alive at a time."""
    table = _words()
    for lo in range(0, len(columns[0]), WRITE_CHUNK):
        block = [c[lo:lo + WRITE_CHUNK] for c in columns]
        # chunks of four digits above the last three (none for _LOST)
        uppers = [len(str(int(c.max()))) // 4 for c in block]
        # a row of indices into the table per word, the rows' words in
        # order; contiguous, so `take` reads it without a copy
        index = np.empty((sum(uppers) + 4, len(block[0])), dtype=np.intp)
        at = 0
        for col, (values, k) in enumerate(zip(block, uppers)):
            lost = None
            if col == 2:
                lost = values == _LOST
                values = np.where(lost, 0, values)
            upper = values // 1000
            last = index[at + k]
            np.subtract(values, upper * 1000, out=last)
            last += _NEWLINE_LAST if col == 3 else _COMMA_LAST
            np.add(last, 1000, out=last, where=upper == 0)
            if lost is not None:
                last[lost] = _EMPTY_FIELD
            for row in range(at + k - 1, at - 1, -1):
                higher = upper // _CHUNK
                np.subtract(upper, higher * _CHUNK, out=index[row])
                np.add(index[row], _CHUNK, out=index[row], where=higher == 0)
                upper = higher
            at += k + 1
        yield table.take(index).T.tobytes().translate(None, b" ")
        del index  # before the next block's


def _eight_digits(words: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The number spelt by the ASCII digits under `mask` in each
    little-endian word, the first digit in the lowest byte; three
    multiply-shift steps join digits in pairs, fours and eights. Works
    in place on `words`."""
    words ^= np.uint64(0x3030303030303030)  # "0" is 0x30
    words &= mask
    for factor, shift, keep in ((2561, 8, 0x00FF00FF00FF00FF),
                                (6553601, 16, 0x0000FFFF0000FFFF),
                                (42949672960001, 32, None)):
        words *= np.uint64(factor)
        words >>= np.uint64(shift)
        if keep is not None:
            words &= np.uint64(keep)
    return words


def read_columns(data: bytes) -> Optional[list[np.ndarray]]:
    """The int64 columns in `data` if it is the exact header followed
    by newline-terminated rows of four decimal fields, only `recv_ns`
    possibly empty (_LOST); otherwise None.

    The rows are read in blocks of about `READ_BLOCK` bytes, each
    ending at a newline, into columns made for every row at the start.
    Every byte below "0" ends a field, so one scan of a block finds its
    fields; each converts from the words that end at its separator. A
    field of more than 19 digits, or one above 2**63 - 1, is refused."""
    header = _HEADER_LINE.encode("ascii")
    if not data.startswith(header) or not data.endswith(b"\n"):
        return None
    rows = data.count(b"\n", len(header))
    columns = [np.empty(rows, dtype=np.int64) for _ in range(4)]
    # the eight bytes that start at each offset (the header precedes
    # every field, so no word starts before the data)
    words = np.ndarray((len(data) - 7,), "<u8", data, strides=(1,))
    start, row = len(header), 0
    while start < len(data):
        # the last newline in the block, or the one that ends a row
        # longer than a block
        end = data.rfind(b"\n", start, start + READ_BLOCK)
        if end < 0:
            end = data.index(b"\n", start + READ_BLOCK)
        end += 1
        # no byte above "9", and each below "0" a separator in its
        # place: digits, three commas and a newline a row
        body = np.frombuffer(data, np.uint8, end - start, start)
        if body.max() > ord("9"):
            return None
        ends = np.flatnonzero(body < ord("0"))
        if len(ends) % 4 or not (body[ends].view("<u4") == _ROW_SEPARATORS).all():
            return None
        ends += start
        fields = ends.reshape(-1, 4)
        # each field starts after the separator before it: the previous
        # row's newline (the one before the block for its first row),
        # then its own commas
        row_starts = np.roll(fields[:, 3], 1)
        row_starts[:1] = start - 1
        for col, before in enumerate([row_starts, *fields[:, :3].T]):
            values = _read_column(words, fields[:, col], before, col == 2)
            if values is None:
                return None
            columns[col][row:row + len(fields)] = values
        start, row = end, row + len(fields)
    return columns


def _read_column(words: np.ndarray, end: np.ndarray, before: np.ndarray,
                 may_be_empty: bool) -> Optional[np.ndarray]:
    """The int64 values of the fields after the separators at offsets
    `before` and up to those at `end`, _LOST for an empty one; None if
    one is empty (unless `may_be_empty`), longer than 19 digits or above
    2**63 - 1."""
    length = end - before - 1
    digits = int(length.max(initial=0))
    if digits > 19 or not (may_be_empty or length.all()):
        return None
    value = _eight_digits(words[end - 8], _FIELD_MASKS[0][length])
    for w in range(1, (digits + 7) // 8):
        part = _eight_digits(words[end - 8 * (w + 1)], _FIELD_MASKS[w][length])
        part *= np.uint64(10 ** (8 * w))
        value += part  # below 10**19 < 2**64
    if digits == 19 and int(value.max()) > _I64_MAX:
        return None
    column = value.view(np.int64)
    if may_be_empty:
        column[length == 0] = _LOST
    return column
