"""Host and network layer: routes packets between hosts through their NAT
devices with latency, hop/TTL, and loss semantics.

Timing model for a packet sent at t0 from a to b with one-way draw L:
the sender's NAT processes it at t0 + leg(a), the receiver's NAT at
t0 + L - leg(b), and the receiving host sees it at t0 + L. Only the NAT
passage times matter for hole-punch synchronization.

Every in-sim message is a tag carried by a UDP datagram (`Host.datagram`)
or, through a relay, by a circuit. Requests and replies: `Host.request`
sends a request whose tag is (kind, token, ...), with a fresh token from
`Simulation.next_token()`, and files a callback under the token in the
host's `replies` table; the reply's tag is (one of `REPLY_KINDS`, token,
...). `Host.serve` hands it the reply, whether that reached a bound port
or came through a circuit, and cancels the request's timeout.
`serve` also answers ("ping", token) with ("pong", token) on either carrier.

The benchmark's tracer (perfbench/tracer.py) sees this layer only through
calls, so a fast path here must keep them: every event goes through
`Simulation.schedule` as a punchsim lambda or bound method, every latency
or loss draw through a `RandomStream` method, every packet a host builds
through `Packet.__post_init__`, every send through `Network.send`, and
every delivery through `Host._dispatch`. `tests/test_hook_counts.py`
pins how often each is called.
"""

from __future__ import annotations

from typing import Callable, Optional

from .kernel import Simulation, Topology, draw_latency
from .nat import DELIVER, REJECT_RST, NatConfig, NatState, SessionTableFull
from .packets import DEFAULT_TTL, TCP_RST, UDP_DATAGRAM, Endpoint, Packet

FIRST_DYNAMIC_PORT = 10_000
# Tag kinds that answer a request; tag[1] echoes the request's token.
REPLY_KINDS = frozenset({"pong", "obsr", "rsv-ok", "rsv-refused", "conn-ok",
                         "conn-refused"})


class Host:
    """A simulated host: bound ports with packet handlers, optionally
    behind a NAT device."""

    def __init__(self, network: "Network", host_id: str, nat: Optional[NatState],
                 leg: float = 0.0):
        self.net = network
        self.id = host_id
        self.nat = nat
        self.leg = leg  # one-way latency to its own NAT
        self.handlers: dict[int, Callable[[Packet], None]] = {}
        # token -> (on_reply, timeout handle or None)
        self.replies: dict[int, tuple[Callable[[tuple], None], Optional[list]]] = {}
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

    def datagram(self, src: Endpoint, dst: Endpoint, tag, size: int,
                 ttl: int = DEFAULT_TTL) -> bool:
        """Send `tag` from `src`, one of this host's endpoints, in a UDP
        datagram. True: it always leaves, though the network may drop it."""
        # Positional: a keyword call to Packet's __init__ costs about twice as much.
        self.net.send(self.id, Packet(src, dst, UDP_DATAGRAM, ttl, size, tag))
        return True

    def request(self, send: Callable[[int], bool], on_reply: Callable[[tuple], None],
                timeout_ms: Optional[float] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> bool:
        """`send(token)` a request under a fresh token; False, and nothing
        waits, if `send` is (its carrier is gone). `on_reply(tag)` gets the
        reply echoing the token, unless `on_timeout()` runs at `timeout_ms`;
        without a timeout the reply is awaited while the simulation runs."""
        token = self.net.sim.next_token()
        if not send(token):
            return False
        timer = None if timeout_ms is None else self.net.sim.schedule_in(
            lambda: self._expire(token, on_timeout), timeout_ms)
        self.replies[token] = (on_reply, timer)
        return True

    def _expire(self, token: int, on_timeout: Callable[[], None]) -> None:
        del self.replies[token]  # a delivered reply cancelled this timer
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
            waiting = self.replies.pop(tag[1], None)
            if waiting is not None:
                on_reply, timer = waiting
                if timer is not None:
                    self.net.sim.cancel(timer)
                on_reply(tag)
        else:
            return False
        return True

    def _dispatch(self, pkt: Packet) -> None:
        handler = self.handlers.get(pkt.dst.port)
        if handler is not None:
            tag = pkt.tag
            if type(tag) is not tuple or not self.serve(tag, self._answer, pkt):
                handler(pkt)

    def _answer(self, tag: tuple, request: Packet) -> None:
        self.datagram(request.dst, request.src, tag, request.size_bytes)


class Network:
    """One simulation instance's hosts plus the routing fabric."""

    def __init__(self, sim: Simulation, topology: Topology):
        self.sim = sim
        self.topology = topology
        self.hosts: dict[str, Host] = {}
        self._owner: dict[str, Host] = {}  # addressable host-id -> host
        self._latency_rng = sim.stream("latency")
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
        leg = nat_leg if nat is not None else 0.0
        self.topology.add_host(host_id, mean_latency, stddev_latency, nat_leg=leg)
        host = Host(self, host_id, nat, self.topology.leg(host_id))
        self.hosts[host_id] = host
        self._owner[host_id] = host
        if nat is not None:
            self._owner[nat.public_host] = host
        return host

    def owner(self, host_id: str) -> Optional[Host]:
        """The host that packets addressed to `host_id` reach: that host,
        or the one behind the NAT whose public name it is."""
        return self._owner.get(host_id)

    def public_endpoint_host(self, host_id: str) -> str:
        """The host-id packets addressed to this host must carry."""
        host = self.hosts[host_id]
        return host.nat.public_host if host.nat is not None else host.id

    def send(self, from_host: str, pkt: Packet, skip_sender_nat: bool = False) -> None:
        """Inject a packet into the fabric. Drops (filtering, TTL, loss,
        table exhaustion) are outcomes, not errors."""
        sim = self.sim
        sender = self.hosts[from_host]
        t0 = sim.now

        if sender.nat is not None and not skip_sender_nat:
            try:
                pkt = sender.nat.process_outbound(pkt, t0 + sender.leg)
            except SessionTableFull:
                self.dropped_session_full += 1
                return

        dst_host = pkt.dst.host
        receiver = self._owner.get(dst_host)
        if receiver is None:
            return
        topo = self.topology
        # Topology.route's cache, read here without its call frame.
        mean, stddev, hops = (topo._routes.get((from_host, receiver.id))
                              or topo.route(from_host, receiver.id))
        if pkt.ttl < hops:
            self.dropped_in_core += 1
            return
        # The loss stream is made on first use: a lossless run never seeds it.
        if topo.loss_rate > 0.0 and sim.stream("loss").random() < topo.loss_rate:
            return

        latency = draw_latency(self._latency_rng, mean, stddev)
        if skip_sender_nat and sender.nat is not None:
            # The packet originates at the NAT box itself, one access leg
            # closer to the destination than the host.
            latency = max(0.0, latency - sender.leg)
        t_arrival = t0 + latency
        rnat = receiver.nat
        if rnat is not None and dst_host == rnat.public_host:
            t_nat = max(t0, t_arrival - receiver.leg)
            sim.schedule(lambda: self._at_receiver_nat(receiver, pkt, t_arrival), t_nat)
        elif rnat is None:
            sim.schedule(lambda: receiver._dispatch(pkt), t_arrival)
        # A NAT'd host's internal address is not routable from outside.

    def _at_receiver_nat(self, receiver: Host, pkt: Packet, t_arrival: float) -> None:
        action, translated = receiver.nat.process_inbound(pkt, self.sim.now)
        if action is DELIVER:
            self.sim.schedule(lambda: receiver._dispatch(translated), t_arrival)
        elif action is REJECT_RST:
            rst = Packet(src=pkt.dst, dst=pkt.src, kind=TCP_RST, size_bytes=40)
            self.send(receiver.id, rst, skip_sender_nat=True)
