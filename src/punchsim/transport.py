"""Connection establishment over simulated packets: TCP with simultaneous
open, a QUIC-style one-round-trip UDP handshake with NAT priming, and RTT
probing."""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import Callable, Optional

from .net import Host, Network
from .packets import Endpoint, Packet, PacketKind

TCP_SEGMENT_BYTES = 60
TCP_SYN_RETRANSMIT_MS = 1_000.0
QUIC_INITIAL_BYTES = 1_200
QUIC_REPLY_BYTES = 300
QUIC_RETRANSMIT_MS = 500.0
DUMMY_PACKET_BYTES = 30
PING_BYTES = 32
DEFAULT_DIAL_DEADLINE_MS = 15_000.0
DEFAULT_RTT_SAMPLES = 10


class Transport(Enum):
    TCP = "TCP"
    QUIC = "QUIC"


@dataclass
class DialResult:
    established: bool
    reason: Optional[str] = None  # "rst" | "timeout" when failed
    remote: Optional[Endpoint] = None
    at: float = 0.0


class _TcpState(Enum):
    SYN_SENT = "syn-sent"
    SYN_RCVD = "syn-rcvd"
    ESTABLISHED = "established"
    FAILED = "failed"


class _TcpConn:
    __slots__ = ("remote", "state", "on_done", "done")

    def __init__(self, remote: Endpoint, state: _TcpState,
                 on_done: Optional[Callable[[DialResult], None]] = None):
        self.remote = remote
        self.state = state
        self.on_done = on_done
        self.done = False


class TcpPort:
    """A bound TCP port that can listen and dial concurrently, as hole
    punching requires. Crossing SYNs complete via simultaneous open."""

    def __init__(self, net: Network, host: Host, port: Optional[int] = None,
                 listening: bool = True):
        self.net = net
        self.host = host
        self.listening = listening
        self.port = host.bind(self._on_packet, port)
        self.local = host.endpoint(self.port)
        self.conns: dict[Endpoint, _TcpConn] = {}
        # Fires once per remote that reaches ESTABLISHED, dialed or accepted.
        self.on_established: Optional[Callable[[Endpoint], None]] = None

    def dial(self, remote: Endpoint, deadline_ms: float = DEFAULT_DIAL_DEADLINE_MS,
             on_done: Optional[Callable[[DialResult], None]] = None) -> None:
        conn = _TcpConn(remote, _TcpState.SYN_SENT, on_done)
        self.conns[remote] = conn
        self._send(remote, PacketKind.TCP_SYN)
        self.net.sim.schedule_in(lambda: self._retransmit(conn), TCP_SYN_RETRANSMIT_MS)
        self.net.sim.schedule_in(lambda: self._deadline(conn), deadline_ms)

    def _send(self, remote: Endpoint, kind: PacketKind) -> None:
        self.host.send(Packet(src=self.local, dst=remote, kind=kind,
                              size_bytes=TCP_SEGMENT_BYTES))

    def _retransmit(self, conn: _TcpConn) -> None:
        if conn.done or conn.state is not _TcpState.SYN_SENT:
            return
        self._send(conn.remote, PacketKind.TCP_SYN)
        self.net.sim.schedule_in(lambda: self._retransmit(conn), TCP_SYN_RETRANSMIT_MS)

    def _deadline(self, conn: _TcpConn) -> None:
        if not conn.done and conn.state is not _TcpState.ESTABLISHED:
            self._finish(conn, DialResult(False, "timeout"))

    def _finish(self, conn: _TcpConn, result: DialResult) -> None:
        if conn.done:
            return
        conn.done = True
        if not result.established:
            conn.state = _TcpState.FAILED
        if conn.on_done is not None:
            conn.on_done(result)
        if result.established and self.on_established is not None:
            self.on_established(conn.remote)

    def _establish(self, conn: _TcpConn) -> None:
        if conn.state is _TcpState.ESTABLISHED:
            return
        conn.state = _TcpState.ESTABLISHED
        self._finish(conn, DialResult(True, remote=conn.remote, at=self.net.sim.now))

    def _on_packet(self, pkt: Packet) -> None:
        conn = self.conns.get(pkt.src)
        kind = pkt.kind
        if kind is PacketKind.TCP_RST:
            if conn is not None and conn.state is not _TcpState.ESTABLISHED:
                self._finish(conn, DialResult(False, "rst"))
            return
        if kind is PacketKind.TCP_SYN:
            if conn is None:
                if not self.listening:
                    return
                conn = _TcpConn(pkt.src, _TcpState.SYN_RCVD)
                self.conns[pkt.src] = conn
                self._send(pkt.src, PacketKind.TCP_SYNACK)
            elif conn.state is _TcpState.SYN_SENT:
                # Simultaneous open: our SYN crossed theirs.
                self._send(pkt.src, PacketKind.TCP_SYNACK)
            elif conn.state is _TcpState.SYN_RCVD:
                self._send(pkt.src, PacketKind.TCP_SYNACK)
            return
        if kind is PacketKind.TCP_SYNACK:
            if conn is not None and conn.state in (_TcpState.SYN_SENT, _TcpState.SYN_RCVD):
                self._send(pkt.src, PacketKind.TCP_ACK)
                self._establish(conn)
            return
        if kind is PacketKind.TCP_ACK:
            if conn is not None and conn.state is _TcpState.SYN_RCVD:
                self._establish(conn)


class QuicPort:
    """A bound UDP port speaking a one-round-trip QUIC-style handshake.

    In hole punching one side dials (client) while the other primes its
    NAT with dummy datagrams and answers the client's first flight."""

    def __init__(self, net: Network, host: Host, port: Optional[int] = None,
                 accepting: bool = True):
        self.net = net
        self.host = host
        self.accepting = accepting
        self.port = host.bind(self._on_packet, port)
        self.local = host.endpoint(self.port)
        self._dials: dict[Endpoint, dict] = {}
        self.on_established: Optional[Callable[[Endpoint], None]] = None
        self._accepted: set[Endpoint] = set()

    def dial(self, remote: Endpoint, deadline_ms: float = DEFAULT_DIAL_DEADLINE_MS,
             on_done: Optional[Callable[[DialResult], None]] = None) -> None:
        state = {"remote": remote, "on_done": on_done, "done": False}
        self._dials[remote] = state
        self._send_initial(state)
        self.net.sim.schedule_in(lambda: self._deadline(state), deadline_ms)

    def prime(self, toward: Endpoint, count: int = 3, ttl: int = 64,
              spacing_ms: float = 5.0) -> None:
        """Emit dummy datagrams toward the peer to create outbound NAT
        state; with a low TTL they die in the core after passing our NAT."""
        if count < 1:
            raise ValueError("count must be >= 1")
        for i in range(count):
            self.net.sim.schedule_in(
                lambda: self.host.send(Packet(src=self.local, dst=toward,
                                              kind=PacketKind.UDP_DATAGRAM,
                                              ttl=ttl, size_bytes=DUMMY_PACKET_BYTES,
                                              tag="dummy")),
                i * spacing_ms)

    def _send_initial(self, state: dict) -> None:
        if state["done"]:
            return
        self.host.send(Packet(src=self.local, dst=state["remote"],
                              kind=PacketKind.QUIC_INITIAL,
                              size_bytes=QUIC_INITIAL_BYTES))
        self.net.sim.schedule_in(lambda: self._send_initial(state), QUIC_RETRANSMIT_MS)

    def _deadline(self, state: dict) -> None:
        if not state["done"]:
            state["done"] = True
            if state["on_done"] is not None:
                state["on_done"](DialResult(False, "timeout"))

    def _on_packet(self, pkt: Packet) -> None:
        if pkt.kind is PacketKind.QUIC_INITIAL:
            if not self.accepting:
                return
            self.host.send(Packet(src=self.local, dst=pkt.src,
                                  kind=PacketKind.QUIC_REPLY,
                                  size_bytes=QUIC_REPLY_BYTES))
            if pkt.src not in self._accepted:
                self._accepted.add(pkt.src)
                if self.on_established is not None:
                    self.on_established(pkt.src)
            return
        if pkt.kind is PacketKind.QUIC_REPLY:
            state = self._dials.get(pkt.src)
            if state is not None and not state["done"]:
                state["done"] = True
                if state["on_done"] is not None:
                    state["on_done"](DialResult(True, remote=pkt.src, at=self.net.sim.now))
                if self.on_established is not None:
                    self.on_established(pkt.src)


class RttProbe:
    """Sequential pings over any carrier (`send(tag)` is False once it is
    gone), each awaiting its pong on a fresh token in the host's reply
    table. Reports the RTTs' mean and stddev, or None if none came back."""

    def __init__(self, net: Network, host: Host, send: Callable[[tuple], bool],
                 samples: int = DEFAULT_RTT_SAMPLES, timeout_ms: float = 2_000.0,
                 on_done: Callable[[Optional[tuple[float, float]]], None] = None):
        if not 1 <= samples <= 10:
            raise ValueError("samples must be in 1..10")
        self.net = net
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
        if self._sent < self.samples:
            token = self.net.sim.next_token()
            if self.send(("ping", token)):
                self._sent += 1
                self._sent_at = self.net.sim.now
                self.host.expect(token, self._on_packet, self.timeout_ms, self._send_next)
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


def measure_rtt(net: Network, host: Host, port: int, target: Endpoint,
                samples: int = DEFAULT_RTT_SAMPLES,
                on_done: Callable[[Optional[tuple[float, float]]], None] = None) -> None:
    """Direct-path RTT measurement from a bound port; relayed paths are
    measured over their circuit (see the relay module)."""
    src = host.endpoint(port)

    def send(tag: tuple) -> bool:
        host.send(Packet(src=src, dst=target, kind=PacketKind.UDP_DATAGRAM,
                         size_bytes=PING_BYTES, tag=tag))
        return True

    RttProbe(net, host, send, samples=samples, on_done=on_done).start()
