"""Wire-level primitives shared by the NAT and transport layers, and the
one table of in-sim messages. No packet carries a size: `wire_bytes(pkt)`
computes it from its kind (`SEGMENT_BYTES`) or, for a UDP datagram, from
the message it carries (`MESSAGES`, read by `message_bytes`)."""

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
    __hash__ = object.__hash__  # by identity, in C: Enum's is a Python call per segment

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
# A segment's size in bytes; a UDP datagram's follows from its message.
SEGMENT_BYTES = {TCP_SYN: 60, TCP_SYNACK: 60, TCP_ACK: 60, TCP_RST: 40,
                 QUIC_INITIAL: 1_200, QUIC_REPLY: 300}

REPLY = "reply"  # the kind of every answer to a request; tag[1] echoes its token
SERVED = ("ping", REPLY)  # the kinds `net.Host.serve` handles on any carrier


def _book(field: int):  # the size rule of a message whose tag[field] is an address book
    return lambda tag: 96 + 8 * len(tag[field])


# Message kind -> its size in bytes, or a rule that computes it from the
# tag. The relay kinds model circuit-relay v2's HopMessage and StopMessage;
# the circuit payloads, identify and DCUtR's CONNECT and SYNC.
MESSAGES = {
    "ping": 32,  # (ping, token), on a port or through a circuit
    REPLY: lambda tag: 32 if len(tag) == 2 else 24,  # (reply, token[, a relay's value])
    "obs": 24,  # (obs, token): which endpoint sent this?
    "rsv-req": 24,  # (rsv-req, token, peer id): HOP RESERVE
    "conn-req": 24,  # (conn-req, token, listener, dialer): HOP CONNECT
    "conn-in": 24,  # (conn-in, cid, dialer): STOP CONNECT
    "circ": 8,  # (circ, cid, payload): the frame's header; its payload adds its own
    "circ-close": 24,  # (circ-close, cid)
    "circ-reset": 24,  # (circ-reset, cid, reason)
    "dummy": 30,  # a bare string: a QUIC server's NAT-priming datagram
    "id": _book(1),  # (id, addrs): identify
    "stream-open": 32,  # (stream-open,): the initiator opens the punch stream
    "stream-ack": 32,  # (stream-ack,)
    "connect": _book(2),  # (connect, attempt, addrs)
    "connect-reply": _book(2),  # (connect-reply, attempt, addrs, listener's NAT RTT)
    "sync": 16,  # (sync, attempt)
}


def message_bytes(tag) -> int:
    """The wire size of `tag`, a circuit frame's payload included; KeyError for no row."""
    size = 0
    if type(tag) is tuple and tag[0] == "circ":
        size, tag = MESSAGES["circ"], tag[2]
    rule = MESSAGES[tag if type(tag) is str else tag[0]]
    return size + (rule if type(rule) is int else rule(tag))


@dataclass(slots=True)
class Packet:
    """Simulated datagram/segment."""

    src: Endpoint
    dst: Endpoint
    kind: PacketKind
    ttl: int = DEFAULT_TTL
    tag: object = None

    def __post_init__(self):
        if self.ttl < 1:
            raise ValueError("ttl must be >= 1")


def wire_bytes(pkt: Packet) -> int:
    """A packet's size: its segment's, or its datagram's message's; KeyError for no row."""
    return message_bytes(pkt.tag) if pkt.kind is UDP_DATAGRAM else SEGMENT_BYTES[pkt.kind]
