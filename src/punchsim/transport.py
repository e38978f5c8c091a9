"""Connection establishment over simulated packets: one port interface
(`Port`) for TCP with simultaneous open and for a QUIC-style
one-round-trip UDP handshake with NAT priming, and RTT probing. A port
names the segment kind of its dial's first flight (`Port.FIRST_FLIGHT`)."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .net import Host
from .packets import (DEFAULT_TTL, QUIC_INITIAL, QUIC_REPLY, TCP_ACK, TCP_RST, TCP_SYN,
                      TCP_SYNACK, Endpoint, Packet, PacketKind)

TCP_SYN_RETRANSMIT_MS = 1_000.0
QUIC_RETRANSMIT_MS = 500.0
DUMMY_SPACING_MS = 5.0
DEFAULT_DIAL_DEADLINE_MS = 15_000.0
MAX_RTT_SAMPLES = 10  # pings per RTT measurement: the most, and the default


class Transport(Enum):
    TCP = "TCP"
    QUIC = "QUIC"
    __hash__ = object.__hash__  # by identity, in C: the dicts in dcutr are keyed by it


# Module names for the members, as for PacketKind's (see packets.py).
TCP, QUIC = Transport


@dataclass
class DialResult:
    established: bool
    reason: Optional[str] = None  # "rst" | "timeout" when failed


class ConnState(Enum):
    OPENING = "opening"      # we dialed; the first flight repeats
    ACCEPTING = "accepting"  # the remote dialed; we answered
    ESTABLISHED = "established"
    FAILED = "failed"


# Module names for the per-packet state checks, as for PacketKind's members.
OPENING, ACCEPTING, ESTABLISHED, FAILED = ConnState


@dataclass(slots=True)
class _Conn:
    remote: Endpoint
    state: ConnState
    on_done: Optional[Callable[[DialResult], None]] = None
    timers: list = field(default_factory=list)  # a dial's [retransmit, deadline]


class Port:
    """A bound port that dials and is dialed. A dial sends its first
    flight, a `FIRST_FLIGHT` segment, repeats it every `RETRANSMIT_MS` and
    fails at its deadline; it settles once, and settling cancels both
    timers. Subclasses supply both and the packet handler `_on_packet(pkt)`."""

    FIRST_FLIGHT: PacketKind
    RETRANSMIT_MS: float

    def __init__(self, host: Host, port: Optional[int] = None):
        self.net = host.net
        self.host = host
        self.port = host.bind(self._on_packet, port)
        self.local = host.endpoint(self.port)
        self.conns: dict[Endpoint, _Conn] = {}
        # Fires once per connection that reaches ESTABLISHED.
        self.on_established: Optional[Callable[[Endpoint], None]] = None

    def dial(self, remote: Endpoint, deadline_ms: float = DEFAULT_DIAL_DEADLINE_MS,
             on_done: Optional[Callable[[DialResult], None]] = None) -> None:
        conn = _Conn(remote, OPENING, on_done)
        self.conns[remote] = conn
        self._send(remote, self.FIRST_FLIGHT)
        sim = self.net.sim
        conn.timers = [
            sim.schedule(lambda: self._retransmit(conn), sim.now + self.RETRANSMIT_MS),
            sim.schedule(lambda: self._settle(conn, DialResult(False, "timeout")),
                         sim.now + deadline_ms)]

    def _retransmit(self, conn: _Conn) -> None:
        self._send(conn.remote, self.FIRST_FLIGHT)
        sim = self.net.sim
        conn.timers[0] = sim.schedule(lambda: self._retransmit(conn),
                                      sim.now + self.RETRANSMIT_MS)

    def _send(self, remote: Endpoint, kind: PacketKind) -> None:
        self.net.send(self.host, Packet(self.local, remote, kind))

    def _settle(self, conn: _Conn, result: DialResult) -> None:
        """End an open connection; callers check that it is open."""
        conn.state = ESTABLISHED if result.established else FAILED
        for timer in conn.timers:
            self.net.sim.cancel(timer)
        if conn.on_done is not None:
            conn.on_done(result)
        if result.established and self.on_established is not None:
            self.on_established(conn.remote)


_OPEN = (OPENING, ACCEPTING)


class TcpPort(Port):
    """A TCP port that can listen and dial concurrently, as hole punching
    requires. Crossing SYNs complete via simultaneous open."""

    FIRST_FLIGHT = TCP_SYN
    RETRANSMIT_MS = TCP_SYN_RETRANSMIT_MS

    def _on_packet(self, pkt: Packet) -> None:
        conn = self.conns.get(pkt.src)
        state = conn.state if conn is not None else None
        kind = pkt.kind
        if kind is TCP_RST:
            if state in _OPEN:
                self._settle(conn, DialResult(False, "rst"))
        elif kind is TCP_SYN:
            # A SYN that crossed ours is a simultaneous open.
            if state in _OPEN or conn is None:
                if conn is None:
                    self.conns[pkt.src] = _Conn(pkt.src, ACCEPTING)
                self._send(pkt.src, TCP_SYNACK)
        elif kind is TCP_SYNACK:
            if state in _OPEN:
                self._send(pkt.src, TCP_ACK)
                self._settle(conn, DialResult(True))
        elif kind is TCP_ACK:
            if state is ACCEPTING:
                self._settle(conn, DialResult(True))


class QuicPort(Port):
    """A UDP port speaking a one-round-trip QUIC-style handshake.

    In hole punching one side dials (client) while the other primes its
    NAT with dummy datagrams and answers the client's first flight, which
    establishes that side at once."""

    FIRST_FLIGHT = QUIC_INITIAL
    RETRANSMIT_MS = QUIC_RETRANSMIT_MS

    def __init__(self, host: Host, port: Optional[int] = None):
        super().__init__(host, port)
        self._accepted: set[Endpoint] = set()

    def prime(self, toward: Endpoint, count: int = 3, ttl: int = DEFAULT_TTL) -> None:
        """Emit dummy datagrams toward the peer to create outbound NAT
        state; with a low TTL they die in the core after passing our NAT."""
        if count < 1:
            raise ValueError("count must be >= 1")
        sim = self.net.sim
        for i in range(count):
            sim.schedule(lambda: self.host.datagram(self.local, toward, "dummy", ttl),
                         sim.now + i * DUMMY_SPACING_MS)

    def _on_packet(self, pkt: Packet) -> None:
        if pkt.kind is QUIC_INITIAL:
            self._send(pkt.src, QUIC_REPLY)
            if pkt.src not in self._accepted:
                self._accepted.add(pkt.src)
                if self.on_established is not None:
                    self.on_established(pkt.src)
        elif pkt.kind is QUIC_REPLY:
            conn = self.conns.get(pkt.src)
            if conn is not None and conn.state is OPENING:
                self._settle(conn, DialResult(True))


class RttProbe:
    """Sequential pings over any carrier (`send(tag)` is False once it is
    gone), each a `Host.request` of ("ping",) awaiting its `packets.REPLY`.
    Reports the RTTs' mean and stddev, or None if none came back."""

    def __init__(self, host: Host, send: Callable[[tuple], bool],
                 samples: int = MAX_RTT_SAMPLES, timeout_ms: float = 2_000.0, *,
                 on_done: Callable[[Optional[tuple[float, float]]], None]):
        if not 1 <= samples <= MAX_RTT_SAMPLES:
            raise ValueError(f"samples must be in 1..{MAX_RTT_SAMPLES}")
        self.net = host.net
        self.host = host
        self.send = send
        self.samples = samples
        self.timeout_ms = timeout_ms
        self.on_done = on_done
        self.rtts: list[float] = []
        self._sent = 0
        self._sent_at = 0.0

    def start(self) -> None:
        self._send_next()

    def _send_next(self) -> None:
        if self._sent < self.samples and self.host.request(
                self.send, ("ping",), self._on_packet, self.timeout_ms, self._send_next):
            self._sent += 1
            self._sent_at = self.net.sim.now
            return
        self.on_done(mean_stddev(self.rtts) if self.rtts else None)

    def _on_packet(self, tag: tuple) -> None:
        self.rtts.append(self.net.sim.now - self._sent_at)
        self._send_next()


def mean_stddev(values: list[float]) -> tuple[float, float]:
    n = len(values)
    mean = sum(values) / n
    if n < 2:
        return mean, 0.0
    var = sum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var)


def measure_rtt(host: Host, port: int, target: Endpoint, samples: int = MAX_RTT_SAMPLES, *,
                on_done: Callable[[Optional[tuple[float, float]]], None]) -> None:
    """Direct-path RTT measurement from a bound port; relayed paths are
    measured over their circuit (see the relay module)."""
    src = host.endpoint(port)
    RttProbe(host, partial(host.datagram, src, target), samples=samples,
             on_done=on_done).start()
