"""Timestamp traces of status-update packets.

All timestamps are integer nanoseconds; values are converted to float
seconds only when a statistic is reported. Packets that never arrived
carry an empty reception stamp and are excluded from age math but
counted as losses.
"""

from __future__ import annotations

import csv
import io
import os
import warnings
from typing import Optional, Sequence

import numpy as np

from .errors import RangeError, TraceFormatError

CSV_HEADER = ("id", "gen_ns", "recv_ns", "size_bytes")

_LOST = -1  # internal sentinel for "no reception stamp"
_I64_MAX = 2**63 - 1
_HEADER_LINE = ",".join(CSV_HEADER) + "\n"
_WRITE_CHUNK = 8192  # rows formatted per write; bounds the writer's memory


def seconds_to_ns(t_s):
    """Float seconds to integer nanoseconds, rounded half to even; an
    array gives an int64 array. Every stamp a simulated or emulated
    run produces goes through this one conversion."""
    if isinstance(t_s, np.ndarray):
        return np.rint(t_s * 1e9).astype(np.int64)
    return int(round(t_s * 1e9))


class AgeTrace:
    """An ordered packet trace plus its observation window.

    The substrate of every age statistic. Stored column-wise so that
    million-packet traces stay cheap.
    """

    def __init__(
        self,
        ids: np.ndarray,
        gen_ns: np.ndarray,
        recv_ns: np.ndarray,
        sizes: np.ndarray,
        t_start_ns: int,
        t_end_ns: int,
        initial_age_ns: int = 0,
        bias_declared: bool = False,
    ):
        self.ids = ids
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
        ids: Sequence[int] | np.ndarray,
        gen_ns: Sequence[int] | np.ndarray,
        recv_ns: Sequence[Optional[int]] | np.ndarray,
        sizes: Sequence[int] | np.ndarray | None = None,
        t_start_ns: Optional[int] = None,
        t_end_ns: Optional[int] = None,
        initial_age_ns: int = 0,
        bias_declared: bool = False,
    ) -> "AgeTrace":
        ids_a = np.asarray(ids, dtype=np.int64)
        gen_a = np.asarray(gen_ns, dtype=np.int64)
        if isinstance(recv_ns, np.ndarray) and recv_ns.dtype == np.int64:
            recv_a = recv_ns
        else:
            recv_a = np.array(
                [_LOST if r is None else int(r) for r in recv_ns], dtype=np.int64
            )
        if sizes is None:
            sizes_a = np.zeros(len(ids_a), dtype=np.int64)
        else:
            sizes_a = np.asarray(sizes, dtype=np.int64)
        delivered = recv_a[recv_a != _LOST]
        if t_start_ns is None:
            lo = [0] if len(gen_a) == 0 else [int(gen_a.min())]
            if len(delivered):
                lo.append(int(delivered.min()))
            t_start_ns = min(lo)
        if t_end_ns is None:
            hi = [t_start_ns]
            if len(gen_a):
                hi.append(int(gen_a.max()))
            if len(delivered):
                hi.append(int(delivered.max()))
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
    ) -> "AgeTrace":
        """Trace with ids 0..n-1, observed from time 0, from float-second
        stamps, nan marking a lost packet, converted in bulk by
        `seconds_to_ns`."""
        recv = np.array(recv_s, dtype=float)
        recv_ns = np.full(len(recv), _LOST, dtype=np.int64)
        got = ~np.isnan(recv)
        recv_ns[got] = seconds_to_ns(recv[got])
        return cls.from_arrays(
            np.arange(len(recv), dtype=np.int64),
            seconds_to_ns(np.array(gen_s, dtype=float)), recv_ns,
            t_start_ns=0, t_end_ns=t_end_ns,
        )

    def _validate(self) -> None:
        if len(self.ids) and np.any(np.diff(self.ids) <= 0):
            raise ValueError("packet ids must be strictly increasing")
        if len(self.gen_ns) and int(self.gen_ns.min()) < 0:
            raise RangeError("negative generation timestamp")
        delivered = self.recv_ns != _LOST
        if np.any(self.recv_ns[delivered] < 0):
            raise RangeError("negative reception timestamp")
        if not self.bias_declared and np.any(
            self.recv_ns[delivered] < self.gen_ns[delivered]
        ):
            raise ValueError("reception before generation with zero declared bias")
        if np.any(delivered):
            last = int(self.recv_ns[delivered].max())
            if not (self.t_end_ns >= last >= self.t_start_ns):
                raise RangeError(
                    "observation window must satisfy t_end >= last recv >= t_start"
                )

    # -- views -------------------------------------------------------

    def __len__(self) -> int:
        return len(self.ids)

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
        earlier delivery cannot reduce age and is dropped.
        """
        if self._delivered_cache is None:
            mask = self.recv_ns != _LOST
            gen = self.gen_ns[mask]
            recv = self.recv_ns[mask]
            order = np.argsort(recv, kind="stable")
            gen, recv = gen[order], recv[order]
            if len(gen):
                running = np.maximum.accumulate(gen)
                prev = np.empty_like(running)
                prev[0] = np.iinfo(np.int64).min
                prev[1:] = running[:-1]
                keep = gen > prev
                self._obsolete_count = int(len(gen) - np.count_nonzero(keep))
                gen, recv = gen[keep], recv[keep]
            else:
                self._obsolete_count = 0
            self._delivered_cache = (gen, recv)
        return self._delivered_cache

    # -- file format ---------------------------------------------------

    def write_csv(self, path_or_file) -> None:
        """Write `id,gen_ns,recv_ns,size_bytes` rows, LF endings,
        empty recv_ns for lost packets."""
        own = isinstance(path_or_file, (str, bytes, os.PathLike))
        f = open(path_or_file, "w", encoding="utf-8", newline="\n") if own \
            else path_or_file
        try:
            f.write(_HEADER_LINE)
            for lo in range(0, len(self.ids), _WRITE_CHUNK):
                hi = lo + _WRITE_CHUNK
                rows = np.column_stack((self.ids[lo:hi], self.gen_ns[lo:hi],
                                        self.recv_ns[lo:hi], self.sizes[lo:hi]))
                fields = rows.ravel().tolist()
                for i in np.flatnonzero(rows[:, 2] == _LOST).tolist():
                    fields[4 * i + 2] = ""
                f.write("%d,%d,%s,%d\n" * len(rows) % tuple(fields))
        finally:
            if own:
                f.close()


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
    header = _HEADER_LINE.encode("ascii")
    if not data.startswith(header) or not data.endswith(b"\n"):
        return None
    body = data[len(header):]
    # no row, or a blank first line, is left to the row parser: loadtxt
    # warns on input that holds no row
    if body[:1] in (b"", b"\n") or body.translate(None, b"0123456789,\n"):
        return None
    # With digits only, -1 can come only from an empty gen_ns or recv_ns
    # (the first and last fields stay empty and fail), and from_arrays
    # refuses gen_ns < 0. A value beyond int64 raises ValueError, or, in
    # numpy versions that still retry a failed integer as a float, warns
    # DeprecationWarning and casts to a wrong int64; both are refused.
    with warnings.catch_warnings():
        warnings.simplefilter("error", DeprecationWarning)
        try:
            rows = np.loadtxt(io.BytesIO(body.replace(b",,", b",-1,")),
                              dtype=np.int64, delimiter=",", comments=None,
                              ndmin=2)
        except (ValueError, DeprecationWarning):
            return None
    if rows.shape != (body.count(b"\n"), 4):  # loadtxt skips blank lines
        return None
    ids, gen, recv, sizes = rows.T.copy()
    try:
        return AgeTrace.from_arrays(ids, gen, recv, sizes,
                                    bias_declared=bias_declared)
    except ValueError:  # ids not increasing, gen_ns < 0, recv before gen
        return None


def _read_rows(f, bias_declared: bool) -> AgeTrace:
    """Parse CSV lines one at a time, raising TraceFormatError with the
    number of the first malformed line."""
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
