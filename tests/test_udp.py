import socket
import time

import pytest

from aoikit.metrics import average_age_by_reception
from aoikit.udp import EchoServer, estimate_offset, run_sampler
from aoikit import wire


@pytest.fixture()
def server():
    srv = EchoServer().start()
    yield srv
    srv.stop()


def test_echo_round_trip_preserves_fields(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(1.0)
    pkt = wire.data_packet(5, 123456, total_size=100)
    sock.sendto(pkt.encode(), ("127.0.0.1", server.port))
    data, _ = sock.recvfrom(65536)
    sock.close()
    reply = wire.decode(data)
    assert reply.msg_type == wire.MSG_ECHO
    assert reply.id == 5
    assert reply.gen_ts_ns == 123456
    assert data[5:] == pkt.encode()[5:]


def test_time_request_carries_server_clock(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(1.0)
    before = time.time_ns()
    sock.sendto(wire.time_request(1, before).encode(), ("127.0.0.1", server.port))
    data, _ = sock.recvfrom(65536)
    after = time.time_ns()
    sock.close()
    resp = wire.decode(data)
    assert resp.msg_type == wire.MSG_TIME_RESPONSE
    assert before <= resp.extra_ts_ns <= after


def test_malformed_datagrams_dropped_and_counted(server):
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.settimeout(0.2)
    sock.sendto(b"not a packet", ("127.0.0.1", server.port))
    sock.sendto(b"AOI1" + bytes([0x7F]) + bytes(26), ("127.0.0.1", server.port))
    with pytest.raises(socket.timeout):
        sock.recvfrom(65536)
    sock.close()
    deadline = time.time() + 1.0
    while server.malformed < 2 and time.time() < deadline:
        time.sleep(0.01)
    assert server.malformed == 2
    assert server.echoed == 0


def test_loopback_sampler_short_run(server):
    res = run_sampler(("127.0.0.1", server.port), [(100.0, 2.0)], size_bytes=200)
    assert res.sent == 200
    assert res.echo_ratio >= 0.99
    assert not res.aborted
    assert res.duplicates == 0
    age = average_age_by_reception(res.trace)
    assert 0 < age < 0.05  # loopback: dominated by half the period


def test_sampler_counts_losses_when_nothing_answers():
    # closed port: every packet is lost, trace still written
    sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    sock.bind(("127.0.0.1", 0))
    port = sock.getsockname()[1]
    sock.close()  # nothing listens here now
    res = run_sampler(("127.0.0.1", port), [(50.0, 0.5)], size_bytes=64,
                      linger_s=0.05)
    assert res.sent == 25
    assert res.received == 0
    assert res.trace.loss_count == 25


def test_offset_estimation_against_local_server(server):
    est = estimate_offset(("127.0.0.1", server.port), n_pings=20,
                          spacing_s=0.001)
    # same host, same wall clock: offset is bounded by the rtt scale
    assert abs(est.offset_ns) < 5_000_000
    assert est.n == 20
    assert len(est.rtt_samples_s) == 20


@pytest.mark.parametrize("rate", [2e9, float("inf"), float("nan")])
def test_sampler_refuses_rates_past_one_packet_per_ns_before_opening_a_socket(
        monkeypatch, rate):
    # a period 1/rate that rounds to 0 ns would never advance the send loop
    from aoikit import udp
    from aoikit.errors import ConfigError

    def no_socket(*args, **kwargs):
        raise AssertionError("socket opened")

    monkeypatch.setattr(udp.socket, "socket", no_socket)
    with pytest.raises(ConfigError):
        run_sampler(("127.0.0.1", 9), [(rate, 1.0)])
