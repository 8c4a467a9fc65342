"""Binary datagram format for the measurement harness.

Fixed-width big-endian header so timestamps survive with nanosecond
precision and every packet of a given payload size is byte-identical
in length:

    offset  size  field
    0       4     magic "AOI1"
    4       1     msg_type (0x01 data, 0x02 echo-reply,
                  0x03 time-request, 0x04 time-response)
    5       8     id, unsigned
    13      8     gen_ts, unsigned nanoseconds
    21      8     extra_ts, unsigned nanoseconds (responder stamp in
                  0x04 replies, zero otherwise)
    29      2     payload_len, unsigned
    31      -     payload (zero padding up to the requested size)
"""

from __future__ import annotations

import struct

from .errors import ConfigError, MalformedPacketError
from .records import FrozenRecord

MAGIC = b"AOI1"
HEADER = struct.Struct(">4sBQQQH")
HEADER_LEN = HEADER.size  # 31 bytes

MSG_DATA = 0x01
MSG_ECHO = 0x02
MSG_TIME_REQUEST = 0x03
MSG_TIME_RESPONSE = 0x04
MSG_TYPES = (MSG_DATA, MSG_ECHO, MSG_TIME_REQUEST, MSG_TIME_RESPONSE)

MSG_TYPE_OFFSET = 4  # byte index of msg_type within the datagram

DEFAULT_DATA_SIZE = 1058  # total datagram bytes, headers included

_U64_MAX = 2**64 - 1


class WirePacket(FrozenRecord):
    _fields = ("msg_type", "id", "gen_ts_ns", "extra_ts_ns", "payload")

    def __init__(self, msg_type: int, id: int, gen_ts_ns: int, extra_ts_ns: int = 0,
                 payload: bytes = b""):
        if msg_type not in MSG_TYPES:
            raise ConfigError(f"unknown message type {msg_type:#x}")
        for name, v in (("id", id), ("gen_ts", gen_ts_ns), ("extra_ts", extra_ts_ns)):
            if not (0 <= v <= _U64_MAX):
                raise ConfigError(f"{name} out of unsigned 64-bit range")
        if len(payload) > 0xFFFF:
            raise ConfigError("payload too large")
        vars(self).update(msg_type=msg_type, id=id, gen_ts_ns=gen_ts_ns,
                          extra_ts_ns=extra_ts_ns, payload=payload)

    def encode(self) -> bytes:
        return HEADER.pack(
            MAGIC, self.msg_type, self.id, self.gen_ts_ns,
            self.extra_ts_ns, len(self.payload),
        ) + self.payload


def decode(data: bytes) -> WirePacket:
    if len(data) < HEADER_LEN:
        raise MalformedPacketError(f"datagram too short ({len(data)} bytes)")
    magic, msg_type, pid, gen, extra, plen = HEADER.unpack_from(data)
    if magic != MAGIC:
        raise MalformedPacketError("bad magic")
    if msg_type not in MSG_TYPES:
        raise MalformedPacketError(f"unknown message type {msg_type:#x}")
    if len(data) != HEADER_LEN + plen:
        raise MalformedPacketError(
            f"length mismatch: header says {plen} payload bytes, "
            f"datagram carries {len(data) - HEADER_LEN}"
        )
    return WirePacket(msg_type, pid, gen, extra, data[HEADER_LEN:])


def data_packet(pid: int, gen_ts_ns: int,
                total_size: int = DEFAULT_DATA_SIZE) -> WirePacket:
    """Data packet zero-padded to the requested total datagram size."""
    if total_size < HEADER_LEN:
        raise ConfigError(f"datagram must be >= {HEADER_LEN} bytes")
    return WirePacket(MSG_DATA, pid, gen_ts_ns,
                      payload=bytes(total_size - HEADER_LEN))


def time_request(pid: int, gen_ts_ns: int) -> WirePacket:
    return WirePacket(MSG_TIME_REQUEST, pid, gen_ts_ns)


def echo_reply_bytes(data: bytes) -> bytes:
    """Byte-identical echo with only the message type flipped."""
    return data[:MSG_TYPE_OFFSET] + bytes([MSG_ECHO]) + data[MSG_TYPE_OFFSET + 1:]
