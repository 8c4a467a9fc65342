"""Live UDP measurement: echo server, paced sampler-transceiver, and
clock-offset estimation against a real peer.

Data packets are stamped from the monotonic clock (immune to wall
clock steps mid-run); only the time-request/response exchange uses
the wall clock, since a clock offset is only meaningful there. In the
echo topology both stamps of a packet come from the sender's clock, so
age statistics need no synchronization at all.
"""

from __future__ import annotations

import socket
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .emulate import OffsetEstimate, check_schedule, offset_from_exchanges
from .errors import AoiError, MalformedPacketError
from .trace import AgeTrace, seconds_to_ns
from . import wire

RECV_BUF = 65536
# the largest datagram an IPv4 UDP socket sends: 65,535 bytes less the
# 20-byte IP and 8-byte UDP headers
MAX_DATAGRAM = 65_507


class EchoServer:
    """Answers data packets with byte-identical echoes (message type
    flipped) and time requests with its wall-clock stamp. Datagrams it
    cannot parse are dropped and counted."""

    def __init__(self, bind_host: str = "127.0.0.1", port: int = 0):
        self.sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        try:
            self.sock.bind((bind_host, port))
        except OSError:
            self.sock.close()
            raise
        self.sock.settimeout(0.25)
        self.host, self.port = self.sock.getsockname()[:2]
        self.rx = 0
        self.echoed = 0
        self.malformed = 0
        self.time_requests = 0
        self._stop = threading.Event()
        self._thread: Optional[threading.Thread] = None

    def stats_line(self) -> str:
        return f"rx={self.rx} echoed={self.echoed} malformed={self.malformed}"

    def _handle(self, data: bytes, addr) -> None:
        self.rx += 1
        if (
            len(data) < wire.HEADER_LEN
            or data[: len(wire.MAGIC)] != wire.MAGIC
        ):
            self.malformed += 1
            return
        msg_type = data[wire.MSG_TYPE_OFFSET]
        if msg_type == wire.MSG_DATA:
            self.sock.sendto(wire.echo_reply_bytes(data), addr)
            self.echoed += 1
        elif msg_type == wire.MSG_TIME_REQUEST:
            try:
                req = wire.decode(data)
            except MalformedPacketError:
                self.malformed += 1
                return
            resp = wire.WirePacket(
                wire.MSG_TIME_RESPONSE, req.id, req.gen_ts_ns,
                extra_ts_ns=time.time_ns(),
            )
            self.sock.sendto(resp.encode(), addr)
            self.time_requests += 1
        else:
            self.malformed += 1

    def serve_forever(self, stats_every_s: Optional[float] = None) -> None:
        next_stats = time.monotonic() + (stats_every_s or 0)
        while not self._stop.is_set():
            try:
                data, addr = self.sock.recvfrom(RECV_BUF)
            except socket.timeout:
                data = None
            except OSError:
                break
            if data is not None:
                self._handle(data, addr)
            if stats_every_s and time.monotonic() >= next_stats:
                print(self.stats_line(), flush=True)
                next_stats = time.monotonic() + stats_every_s

    def start(self) -> "EchoServer":
        self._thread = threading.Thread(target=self.serve_forever, daemon=True)
        self._thread.start()
        return self

    def stop(self) -> None:
        self._stop.set()
        if self._thread is not None:
            self._thread.join(timeout=2.0)
        self.sock.close()


@dataclass
class SamplerResult:
    trace: AgeTrace
    sent: int
    received: int
    duplicates: int
    unmatched: int
    aborted: bool = False


class _TraceSink:
    """Serialized append-only store matching replies to sends by id."""

    def __init__(self):
        self._lock = threading.Lock()
        self.gen_ns: list[int] = []
        self.recv_ns: dict[int, int] = {}
        self.duplicates = 0
        self.unmatched = 0

    def note_send(self, pid: int, gen_ns: int) -> None:
        with self._lock:
            assert pid == len(self.gen_ns)
            self.gen_ns.append(gen_ns)

    def note_reply(self, pid: int, recv_ns: int) -> None:
        with self._lock:
            if pid >= len(self.gen_ns):
                self.unmatched += 1
            elif pid in self.recv_ns:
                self.duplicates += 1
            else:
                self.recv_ns[pid] = recv_ns


def run_sampler(
    dest: tuple[str, int],
    schedule: list[tuple[float, float]],
    size_bytes: int = wire.DEFAULT_DATA_SIZE,
    linger_s: float = 0.25,
) -> SamplerResult:
    """Send data packets at the scheduled rates and record echo
    arrivals. The send and receive paths run concurrently: sending
    never blocks on reception. On a socket error the partial trace is
    returned with the aborted flag set."""
    check_schedule(schedule)
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(0.1)
    sink = _TraceSink()
    stop = threading.Event()
    aborted = threading.Event()

    def receive_loop():
        while not stop.is_set():
            try:
                data, _ = sock.recvfrom(RECV_BUF)
            except socket.timeout:
                continue
            except OSError:
                break
            now = time.monotonic_ns()
            try:
                pkt = wire.decode(data)
            except MalformedPacketError:
                continue
            if pkt.msg_type == wire.MSG_ECHO:
                sink.note_reply(pkt.id, now)

    rx = threading.Thread(target=receive_loop, daemon=True)
    rx.start()
    pid = 0
    try:
        for rate, duration in schedule:
            period_ns = int(round(1e9 / rate))
            seg_start = time.monotonic_ns()
            seg_end = seg_start + seconds_to_ns(duration)
            next_send = seg_start + period_ns
            while next_send <= seg_end:
                delay = next_send - time.monotonic_ns()
                if delay > 0:
                    time.sleep(delay / 1e9)
                gen = time.monotonic_ns()
                pkt = wire.data_packet(pid, gen, size_bytes)
                sink.note_send(pid, gen)
                sock.sendto(pkt.encode(), dest)
                pid += 1
                next_send += period_ns
    except OSError:
        aborted.set()
    finally:
        time.sleep(linger_s)
        stop.set()
        rx.join(timeout=2.0)
        sock.close()

    gen = sink.gen_ns
    recv = [sink.recv_ns.get(i) for i in range(len(gen))]
    trace = AgeTrace.from_arrays(
        np.arange(len(gen), dtype=np.int64), gen, recv,
        np.full(len(gen), size_bytes, dtype=np.int64),
    )
    return SamplerResult(
        trace=trace,
        sent=len(gen),
        received=len(sink.recv_ns),
        duplicates=sink.duplicates,
        unmatched=sink.unmatched,
        aborted=aborted.is_set(),
    )


def estimate_offset(
    peer: tuple[str, int],
    n_pings: int = 100,
    spacing_s: float = 0.01,
    timeout_s: float = 0.5,
    retries: int = 3,
) -> OffsetEstimate:
    """Ping the peer's time service and average the per-exchange
    offsets under the symmetric-delay assumption."""
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(timeout_s)
    send_ns, peer_ns, rtt_samples = array("q"), array("d"), array("d")
    try:
        for k in range(n_pings):
            got = False
            for _ in range(retries):
                send_wall = time.time_ns()
                send_mono = time.monotonic_ns()
                req = wire.time_request(k, send_wall)
                try:
                    sock.sendto(req.encode(), peer)
                    while True:
                        data, _ = sock.recvfrom(RECV_BUF)
                        rtt_s = (time.monotonic_ns() - send_mono) / 1e9
                        try:
                            pkt = wire.decode(data)
                        except MalformedPacketError:
                            continue
                        if pkt.msg_type == wire.MSG_TIME_RESPONSE and pkt.id == k:
                            send_ns.append(send_wall)
                            peer_ns.append(pkt.extra_ts_ns)
                            rtt_samples.append(rtt_s)
                            got = True
                            break
                except socket.timeout:
                    continue
                if got:
                    break
            if not got:
                raise AoiError(f"time request {k} unanswered after {retries} tries")
            time.sleep(spacing_s)
    finally:
        sock.close()
    return offset_from_exchanges(send_ns, peer_ns, rtt_samples)
