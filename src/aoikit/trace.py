"""Timestamp traces of status-update packets.

All timestamps are integer nanoseconds; values are converted to float
seconds only when a statistic is reported. Packets that never arrived
carry an empty reception stamp and are excluded from age math but
counted as losses.
"""

from __future__ import annotations

import io
import itertools
import os
from typing import Optional, Sequence

import numpy as np

from .errors import ConfigError, RangeError, TraceFormatError

CSV_HEADER = ("id", "gen_ns", "recv_ns", "size_bytes")

_LOST = -1  # internal sentinel for "no reception stamp"
_I64_MAX = 2**63 - 1
_U64_MAX = 2**64 - 1
_HEADER_LINE = ",".join(CSV_HEADER) + "\n"


_NS_RANGE = 2.0**63  # int64 nanoseconds: about 292 years either side of 0


def _out_of_range(t_s) -> ConfigError:
    return ConfigError(f"a time of {t_s!r} s is outside the int64 nanosecond "
                       f"range of a trace (2**63 ns, about 292 years)")


def seconds_to_ns(t_s: float) -> int:
    """Float seconds to integer nanoseconds, rounded half to even, as
    `AgeTrace.from_seconds` converts whole columns; nan, inf or 2**63
    ns or more from 0 raises `ConfigError`."""
    ns = t_s * 1e9
    if not abs(ns) < _NS_RANGE:
        raise _out_of_range(t_s)
    return int(round(ns))


_STAMP_BLOCK = 8192  # stamps converted per step: 64 KiB of floats


def _stamps_ns(t_s) -> np.ndarray:
    """Float-second stamps to int64 nanoseconds as `seconds_to_ns`
    rounds and bounds them, nan to `_LOST`, a block at a time, so that
    the int64 column is the only array as long as the input."""
    t_s = np.asarray(t_s, dtype=float)
    ns = np.empty(len(t_s), dtype=np.int64)
    for lo in range(0, len(t_s), _STAMP_BLOCK):
        with np.errstate(over="ignore"):  # refused below, as inf
            block = np.multiply(t_s[lo:lo + _STAMP_BLOCK], 1e9)
        block[np.isnan(block)] = _LOST
        np.rint(block, out=block)
        if not -_NS_RANGE < block.min() <= block.max() < _NS_RANGE:
            k = int(np.argmax(~(np.abs(block) < _NS_RANGE)))
            raise _out_of_range(float(t_s[lo + k]))
        ns[lo:lo + _STAMP_BLOCK] = block
    return ns


class AgeTrace:
    """An ordered packet trace plus its observation window.

    The substrate of every age statistic. Stored column-wise so that
    million-packet traces stay cheap. A trace whose ids are its row
    numbers 0..n-1 (`ids` None when built) keeps no ids column.
    """

    def __init__(
        self,
        ids: Optional[np.ndarray],
        gen_ns: np.ndarray,
        recv_ns: np.ndarray,
        sizes: np.ndarray,
        t_start_ns: int,
        t_end_ns: int,
        initial_age_ns: int = 0,
        bias_declared: bool = False,
    ):
        self._ids = ids
        self.gen_ns = gen_ns
        self.recv_ns = recv_ns  # _LOST where the packet never arrived
        self.sizes = sizes
        self.t_start_ns = int(t_start_ns)
        self.t_end_ns = int(t_end_ns)
        self.initial_age_ns = int(initial_age_ns)
        self.bias_declared = bias_declared
        self._delivered_cache: Optional[tuple[np.ndarray, np.ndarray]] = None
        self._obsolete_count: Optional[int] = None
        self._validate()

    # -- construction ------------------------------------------------

    @classmethod
    def from_arrays(
        cls,
        ids: Sequence[int] | np.ndarray | None,
        gen_ns: Sequence[int] | np.ndarray,
        recv_ns: Sequence[Optional[int]] | np.ndarray,
        sizes: Sequence[int] | np.ndarray | None = None,
        t_start_ns: Optional[int] = None,
        t_end_ns: Optional[int] = None,
        initial_age_ns: int = 0,
        bias_declared: bool = False,
    ) -> "AgeTrace":
        """A trace of the given columns; `ids` None numbers the rows
        0..n-1 and `sizes` None makes every size 0."""
        ids_a = None if ids is None else np.asarray(ids, dtype=np.int64)
        gen_a = np.asarray(gen_ns, dtype=np.int64)
        if isinstance(recv_ns, np.ndarray) and recv_ns.dtype == np.int64:
            recv_a = recv_ns
        else:
            recv_a = np.array(
                [_LOST if r is None else int(r) for r in recv_ns], dtype=np.int64
            )
        if sizes is None:
            sizes_a = np.zeros(len(gen_a), dtype=np.int64)
        else:
            sizes_a = np.asarray(sizes, dtype=np.int64)
        # the delivered stamps' range, read in place: a lost stamp (-1)
        # is the largest unsigned value and below every delivered one,
        # and `_validate` refuses a negative delivered stamp before it
        # reads the window
        if t_start_ns is None:
            lo = [0] if len(gen_a) == 0 else [int(gen_a.min())]
            first = int(recv_a.view(np.uint64).min(initial=_U64_MAX))
            if first != _U64_MAX:
                lo.append(first)
            t_start_ns = min(lo)
        if t_end_ns is None:
            hi = [t_start_ns]
            if len(gen_a):
                hi.append(int(gen_a.max()))
            last = int(recv_a.max(initial=_LOST))
            if last != _LOST:
                hi.append(last)
            t_end_ns = max(hi)
        return cls(
            ids_a, gen_a, recv_a, sizes_a,
            t_start_ns, t_end_ns, initial_age_ns, bias_declared,
        )

    @classmethod
    def from_seconds(
        cls,
        gen_s: Sequence[float],
        recv_s: Sequence[float],
        t_end_ns: Optional[int] = None,
        size_bytes: int = 0,
    ) -> "AgeTrace":
        """Trace with ids 0..n-1 of `size_bytes` each, observed from time
        0, from float-second stamps, nan marking a lost packet,
        converted as `seconds_to_ns` converts them. An `array('d')` or
        float array is read in place, the ids are row numbers, and the
        sizes column is one read-only value broadcast to every row."""
        return cls.from_arrays(
            None, _stamps_ns(gen_s), _stamps_ns(recv_s),
            np.broadcast_to(np.int64(size_bytes), len(recv_s)),
            t_start_ns=0, t_end_ns=t_end_ns,
        )

    def _validate(self) -> None:
        """Refuse what the trace CSV cannot carry, among the rest: every
        column the same length, every value non-negative (an empty
        recv_ns aside) and at most 2**63 - 1."""
        n = len(self.gen_ns)
        ids = self._ids
        if not len(self.recv_ns) == len(self.sizes) == n or (
                ids is not None and len(ids) != n):
            raise ValueError("ids, gen_ns, recv_ns and sizes must have equal length")
        if ids is not None and n:  # row numbers pass both id checks
            if np.any(ids[1:] <= ids[:-1]):
                raise ValueError("packet ids must be strictly increasing")
            if ids[0] < 0:  # the smallest, as ids increase
                raise RangeError("negative packet id")
        if n and int(self.sizes.min()) < 0:
            raise RangeError("negative packet size")
        if n and int(self.gen_ns.min()) < 0:
            raise RangeError("negative generation timestamp")
        recv = self.recv_ns
        delivered = recv != _LOST
        bad = recv < 0
        bad &= delivered
        if bad.any():
            raise RangeError("negative reception timestamp")
        if not self.bias_declared:
            np.less(recv, self.gen_ns, out=bad)
            bad &= delivered
            if bad.any():
                raise ValueError("reception before generation with zero declared bias")
        if delivered.any():
            # every delivered stamp is non-negative, so above a lost one
            last = int(recv.max())
            if not (self.t_end_ns >= last >= self.t_start_ns):
                raise RangeError(
                    "observation window must satisfy t_end >= last recv >= t_start"
                )

    # -- views -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.gen_ns)

    @property
    def ids(self) -> np.ndarray:
        """The packet ids; row numbers are built on each read, read-only."""
        if self._ids is not None:
            return self._ids
        ids = np.arange(len(self.gen_ns), dtype=np.int64)
        ids.flags.writeable = False
        return ids

    @property
    def loss_count(self) -> int:
        """Packets with no reception stamp (parallel loss statistic)."""
        return int(np.count_nonzero(self.recv_ns == _LOST))

    @property
    def obsolete_count(self) -> int:
        """Delivered packets dropped by obsolete filtering."""
        self.delivered()
        assert self._obsolete_count is not None
        return self._obsolete_count

    def delivered(self) -> tuple[np.ndarray, np.ndarray]:
        """(gen_ns, recv_ns) of delivered packets in delivery order,
        after obsolete filtering.

        A packet whose generation stamp does not exceed that of every
        earlier delivery cannot reduce age and is dropped. The arrays
        are read-only. Where nothing is filtered, or only a tail of
        undelivered rows (the packets still in flight when a run
        ended), they are views of the leading rows of the trace's own
        columns; any other loss, reordering or obsolete packet copies.
        """
        if self._delivered_cache is None:
            gen, recv = self.gen_ns, self.recv_ns
            got = recv != _LOST
            k = int(np.count_nonzero(got))
            if got[:k].all():  # the k delivered rows lead
                gen, recv = gen[:k], recv[:k]
            else:
                gen, recv = gen[got], recv[got]
            del got
            if np.any(recv[1:] < recv[:-1]):
                order = np.argsort(recv, kind="stable")
                gen, recv = gen[order], recv[order]
            self._obsolete_count = 0
            if np.any(gen[1:] <= gen[:-1]):
                keep = np.empty(len(gen), dtype=bool)
                keep[0] = True
                np.greater(gen[1:], np.maximum.accumulate(gen)[:-1], out=keep[1:])
                self._obsolete_count = int(len(gen) - np.count_nonzero(keep))
                gen, recv = gen[keep], recv[keep]
            gen, recv = gen.view(), recv.view()
            gen.flags.writeable = recv.flags.writeable = False
            self._delivered_cache = (gen, recv)
        return self._delivered_cache

    # -- file format ---------------------------------------------------

    def write_csv(self, path_or_file) -> None:
        """Write `id,gen_ns,recv_ns,size_bytes` rows, LF endings,
        empty recv_ns for lost packets; a file object is written text."""
        from .csvcodec import write_blocks  # loaded on first use

        blocks = itertools.chain(
            [_HEADER_LINE.encode("ascii")],
            write_blocks((self._ids, self.gen_ns, self.recv_ns, self.sizes)))
        if isinstance(path_or_file, (str, bytes, os.PathLike)):
            with open(path_or_file, "wb") as f:
                f.writelines(blocks)
        else:
            for block in blocks:
                path_or_file.write(block.decode("ascii"))


def read_csv(path_or_file, bias_declared: bool = False) -> AgeTrace:
    """Parse a trace CSV, aborting with the line number on any
    malformed row.

    The input is read whole. Plain rows parse in bulk; anything else,
    from CRLF endings to a malformed row, goes to the row parser, which
    alone reports line numbers.
    """
    if isinstance(path_or_file, (str, bytes, os.PathLike)):
        with open(path_or_file, "rb") as f:
            data = f.read()
        text = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8", newline="")
    else:
        content = path_or_file.read()
        data = content.encode("ascii") if content.isascii() else b""
        text = io.StringIO(content, newline="")
    trace = _read_plain(data, bias_declared)
    return trace if trace is not None else _read_rows(text, bias_declared)


def _read_plain(data: bytes, bias_declared: bool) -> Optional[AgeTrace]:
    """The trace in `data` if it is the exact header followed by
    newline-terminated rows of four decimal fields, only `recv_ns`
    possibly empty, that form a valid trace; otherwise None."""
    from .csvcodec import read_columns  # loaded on first use

    columns = read_columns(data)
    if columns is None:
        return None
    try:
        return AgeTrace.from_arrays(*columns, bias_declared=bias_declared)
    except ValueError:  # ids not increasing, gen_ns < 0, recv before gen
        return None


def _read_rows(f, bias_declared: bool) -> AgeTrace:
    """Parse CSV lines one at a time, raising TraceFormatError with the
    number of the first malformed line."""
    import csv  # loaded on first use

    reader = csv.reader(f)
    try:
        header = next(reader)
    except StopIteration:
        raise TraceFormatError(1, "empty file") from None
    if tuple(h.strip() for h in header) != CSV_HEADER:
        raise TraceFormatError(1, f"expected header {','.join(CSV_HEADER)}")
    ids: list[int] = []
    gen: list[int] = []
    recv: list[int] = []
    sizes: list[int] = []
    prev_id = -1
    for line_no, row in enumerate(reader, start=2):
        if not row:
            continue
        if len(row) != 4:
            raise TraceFormatError(line_no, f"expected 4 fields, got {len(row)}")
        try:
            pid = int(row[0])
            g = int(row[1])
            r = _LOST if row[2].strip() == "" else int(row[2])
            s = int(row[3])
        except ValueError as exc:
            raise TraceFormatError(line_no, str(exc)) from None
        if pid < 0 or g < 0 or s < 0 or (r != _LOST and r < 0):
            raise TraceFormatError(line_no, "negative field")
        # the format allows unsigned 64-bit decimals, but stamps
        # beyond signed-64 range (year 2262 in epoch nanoseconds)
        # exceed the internal representation
        if max(pid, g, r, s) > _I64_MAX:
            raise TraceFormatError(line_no, "value exceeds signed 64-bit range")
        if pid <= prev_id:
            raise TraceFormatError(line_no, "ids must strictly increase")
        if not bias_declared and r != _LOST and r < g:
            raise TraceFormatError(line_no, "reception before generation")
        prev_id = pid
        ids.append(pid)
        gen.append(g)
        recv.append(r)
        sizes.append(s)
    return AgeTrace.from_arrays(
        ids, gen, np.array(recv, dtype=np.int64), sizes,
        bias_declared=bias_declared,
    )
