"""Host and network layer: routes packets between hosts through their NAT
devices with latency, hop/TTL, and loss semantics.

Timing model for a packet sent at t0 from a to b with one-way draw L:
the sender's NAT processes it at t0 + leg(a), the receiver's NAT at
t0 + L - leg(b), and the receiving host sees it at t0 + L. Only the NAT
passage times matter for hole-punch synchronization.

Requests and replies: a request's tag is (kind, token, ...) with a token
from `Simulation.next_token()`; its reply's tag is (one of `REPLY_KINDS`,
token, ...). The requester files a callback under the token in its host's
`replies` table (`Host.expect` adds a timeout), and `Host.serve` hands it
the reply, whether that reached a bound port or came through a circuit.
`serve` also answers ("ping", token) with ("pong", token) on either carrier.
"""

from __future__ import annotations

from typing import Callable, Optional

from .kernel import Simulation, Topology, sample_latency
from .nat import InboundAction, NatConfig, NatState, SessionTableFull
from .packets import Endpoint, Packet, PacketKind

FIRST_DYNAMIC_PORT = 10_000
# Tag kinds that answer a request; tag[1] echoes the request's token.
REPLY_KINDS = frozenset({"pong", "obsr", "rsv-ok", "rsv-refused", "conn-ok",
                         "conn-refused"})


class Host:
    """A simulated host: bound ports with packet handlers, optionally
    behind a NAT device."""

    def __init__(self, network: "Network", host_id: str, nat: Optional[NatState]):
        self.net = network
        self.id = host_id
        self.nat = nat
        self.handlers: dict[int, Callable[[Packet], None]] = {}
        self.replies: dict[int, Callable[[tuple], None]] = {}
        self._next_port = FIRST_DYNAMIC_PORT

    def bind(self, handler: Callable[[Packet], None], port: Optional[int] = None) -> int:
        if port is None:
            port = self._next_port
            self._next_port += 1
        if port in self.handlers:
            raise ValueError(f"port {port} already bound on {self.id}")
        self.handlers[port] = handler
        return port

    def endpoint(self, port: int) -> Endpoint:
        return Endpoint(self.id, port)

    def send(self, pkt: Packet) -> None:
        self.net.send(self.id, pkt)

    def expect(self, token: int, on_reply: Callable[[tuple], None],
               timeout_ms: float, on_timeout: Callable[[], None]) -> None:
        """Wait for the reply echoing `token`: `on_reply(tag)` if it
        arrives within `timeout_ms`, else `on_timeout()`."""
        self.replies[token] = on_reply
        self.net.sim.schedule_in(lambda: self._expire(token, on_timeout), timeout_ms)

    def _expire(self, token: int, on_timeout: Callable[[], None]) -> None:
        if self.replies.pop(token, None) is not None:
            on_timeout()

    def serve(self, tag, answer: Callable[[tuple, object], None], via) -> bool:
        """Answer a ping with `answer(pong_tag, via)`, or hand a reply to
        the callback its token names (a reply nobody waits for is dropped).
        False when `tag` is neither, so the message is the application's."""
        if type(tag) is not tuple:
            return False
        kind = tag[0]
        if kind == "ping":
            answer(("pong",) + tag[1:], via)
        elif kind in REPLY_KINDS:
            on_reply = self.replies.pop(tag[1], None)
            if on_reply is not None:
                on_reply(tag)
        else:
            return False
        return True

    def _dispatch(self, pkt: Packet) -> None:
        handler = self.handlers.get(pkt.dst.port)
        if handler is not None and not self.serve(pkt.tag, self._answer, pkt):
            handler(pkt)

    def _answer(self, tag: tuple, request: Packet) -> None:
        self.send(Packet(src=request.dst, dst=request.src, kind=PacketKind.UDP_DATAGRAM,
                         size_bytes=request.size_bytes, tag=tag))


class Network:
    """One simulation instance's hosts plus the routing fabric."""

    def __init__(self, sim: Simulation, topology: Topology):
        self.sim = sim
        self.topology = topology
        self.hosts: dict[str, Host] = {}
        self._owner: dict[str, str] = {}  # addressable host-id -> host-id
        self._latency_rng = sim.stream("latency")
        self._loss_rng = sim.stream("loss")
        self.dropped_session_full = 0
        self.dropped_in_core = 0

    def add_host(self, host_id: str, mean_latency: float = 10.0,
                 stddev_latency: float = 0.0, nat_config: Optional[NatConfig] = None,
                 nat_leg: float = 0.0) -> Host:
        if host_id in self.hosts:
            raise ValueError(f"duplicate host {host_id!r}")
        nat = None
        if nat_config is not None:
            nat = NatState(nat_config, public_host=f"{host_id}#nat",
                           rng=self.sim.stream(f"nat/{host_id}"))
            self._owner[nat.public_host] = host_id
        host = Host(self, host_id, nat)
        self.hosts[host_id] = host
        self._owner[host_id] = host_id
        self.topology.add_host(host_id, mean_latency, stddev_latency,
                               nat_leg=nat_leg if nat is not None else 0.0)
        return host

    def public_endpoint_host(self, host_id: str) -> str:
        """The host-id packets addressed to this host must carry."""
        host = self.hosts[host_id]
        return host.nat.public_host if host.nat is not None else host.id

    def send(self, from_host: str, pkt: Packet, skip_sender_nat: bool = False) -> None:
        """Inject a packet into the fabric. Drops (filtering, TTL, loss,
        table exhaustion) are outcomes, not errors."""
        sim = self.sim
        topo = self.topology
        sender = self.hosts[from_host]
        t0 = sim.now

        if sender.nat is not None and not skip_sender_nat:
            try:
                pkt = sender.nat.process_outbound(pkt, t0 + topo.leg(from_host))
            except SessionTableFull:
                self.dropped_session_full += 1
                return

        to_host = self._owner.get(pkt.dst.host)
        if to_host is None:
            return
        if from_host != to_host and pkt.ttl < topo.hop_distance(from_host, to_host):
            self.dropped_in_core += 1
            return
        if topo.loss_rate > 0.0 and self._loss_rng.random() < topo.loss_rate:
            return

        latency = sample_latency(topo, from_host, to_host, self._latency_rng)
        if skip_sender_nat and sender.nat is not None:
            # The packet originates at the NAT box itself, one access leg
            # closer to the destination than the host.
            latency = max(0.0, latency - topo.leg(from_host))
        receiver = self.hosts[to_host]
        t_arrival = t0 + latency
        if receiver.nat is not None and pkt.dst.host == receiver.nat.public_host:
            t_nat = min(t_arrival, max(t0, t_arrival - topo.leg(to_host)))
            sim.schedule(lambda: self._at_receiver_nat(receiver, pkt, t_arrival), t_nat)
        elif pkt.dst.host == receiver.id and receiver.nat is None:
            sim.schedule(lambda: receiver._dispatch(pkt), t_arrival)
        # A NAT'd host's internal address is not routable from outside.

    def _at_receiver_nat(self, receiver: Host, pkt: Packet, t_arrival: float) -> None:
        action, translated = receiver.nat.process_inbound(pkt, self.sim.now)
        if action is InboundAction.DELIVER:
            self.sim.schedule(lambda: receiver._dispatch(translated), t_arrival)
        elif action is InboundAction.REJECT_RST:
            rst = Packet(src=pkt.dst, dst=pkt.src, kind=PacketKind.TCP_RST,
                         size_bytes=40)
            self.send(receiver.id, rst, skip_sender_nat=True)
