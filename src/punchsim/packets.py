"""Wire-level primitives shared by the NAT and transport layers."""

from __future__ import annotations

from collections import namedtuple
from dataclasses import dataclass
from enum import Enum
from functools import partial

# The TTL of a packet that sets none: Packet's default, the default of
# Host.datagram and QuicPort.prime, and the TTL of every Port._send packet.
DEFAULT_TTL = 64


class Endpoint(namedtuple("Endpoint", "host port")):
    """A (host-id, port) pair; the unit NATs translate and filter on.

    A tuple, so hashing, equality and ordering by (host, port) run in C.
    The constructor validates, and unpickling goes through it too.
    """

    __slots__ = ()

    def __new__(cls, host: str, port: int):
        self = tuple.__new__(cls, (host, port))
        self.__post_init__()
        return self

    def __post_init__(self):
        if not self.host:
            raise ValueError("host must be non-empty")
        if not 0 <= self.port <= 65535:
            raise ValueError(f"port out of range: {self.port}")

    def __str__(self) -> str:
        return f"{self.host}:{self.port}"


# unchecked_endpoint((host, port)) builds an Endpoint without validating
# it, for a port taken from a range that was checked already.
unchecked_endpoint = partial(tuple.__new__, Endpoint)


class PacketKind(Enum):
    TCP_SYN = "TCP_SYN"
    TCP_SYNACK = "TCP_SYNACK"
    TCP_ACK = "TCP_ACK"
    TCP_RST = "TCP_RST"
    UDP_DATAGRAM = "UDP_DATAGRAM"
    QUIC_INITIAL = "QUIC_INITIAL"
    QUIC_REPLY = "QUIC_REPLY"

    @property
    def is_tcp(self) -> bool:
        return self in _TCP_KINDS


# The members as module names. On Python 3.10 and 3.11 the Enum metaclass
# defines __getattr__, which sends every `PacketKind.MEMBER` read through
# CPython's slow attribute hook, several times the cost of reading a
# module name; the per-packet paths compare against these names instead.
(TCP_SYN, TCP_SYNACK, TCP_ACK, TCP_RST, UDP_DATAGRAM, QUIC_INITIAL,
 QUIC_REPLY) = PacketKind
_TCP_KINDS = (TCP_SYN, TCP_SYNACK, TCP_ACK, TCP_RST)


@dataclass(slots=True)
class Packet:
    """Simulated datagram/segment."""

    src: Endpoint
    dst: Endpoint
    kind: PacketKind
    ttl: int = DEFAULT_TTL
    size_bytes: int = 0
    tag: object = None

    def __post_init__(self):
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")
        if self.size_bytes < 0:
            raise ValueError("size_bytes must be >= 0")
