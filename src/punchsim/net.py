"""Host and network layer: routes packets between hosts through their NAT
devices with latency, hop/TTL, and loss semantics.

The fabric is a star. Each host has an access latency (mean and stddev,
ms) and a NAT leg: the one-way latency between the host and its own NAT
(0 for a public host). A packet's one-way latency is one normal draw
with the sender's and the receiver's access latencies summed, floored at
`MIN_LATENCY_MS`. Distinct hosts are `HOP_DISTANCE` hops apart, used only
for TTL: a host's own NAT sits at hop 1. `loss_rate` drops each packet
independently. `Network.hosts` maps each host id and each NAT's public
name (`<id>#nat`) to its host; `Network.send` takes the sending `Host`.

Timing model for a packet sent at t0 from a to b with one-way draw L:
the sender's NAT processes it at t0 + leg(a), the receiver's NAT at
t0 + L - leg(b), and the receiving host sees it at t0 + L. Only the NAT
passage times matter for hole-punch synchronization.

Every in-sim message is a tag, a row of `packets.MESSAGES` that gives its
size (no packet carries one), carried by a UDP datagram (`Host.datagram`)
or through a relay's circuit. Requests and replies: `Host.request` sends a
request tag (kind, ...) as (kind, token, ...), with a fresh token from
`Simulation.next_token()`, and files a callback under the token in the
host's `replies` table; every reply's tag is (`REPLY`, token, ...), the
request's kind left to the callback. `Host.serve` hands it the reply,
whether that reached a bound port or came through a circuit, and cancels
the request's timeout. For ("ping", token) `serve` returns (`REPLY`,
token), which the carrier sends back. Both dispatchers, `Host._dispatch`
and `relay.RelayClient` for a circuit, call `serve` only for a tag whose
kind is in `packets.SERVED`, `ping` or `REPLY`; any other message is the
application's. A layer above takes only its `Host` and reaches the network
as `host.net`.

The benchmark's tracer (perfbench/tracer.py) sees this layer only through
calls, so a fast path here must keep them: every event goes through
`Simulation.schedule` as a punchsim lambda or bound method (a packet's
events carry it in their argument slot, so no closure is built), every
latency or loss draw through a `RandomStream` method, every packet a host
builds through `Packet.__post_init__`, every send through `Network.send`,
and every delivery through `Host._dispatch`, looked up when scheduled.
`tests/test_hook_counts.py` pins how often each is called. A traced
delivery's callback is the tracer's wrapper, so its span is `bench.event`.
"""

from __future__ import annotations

from typing import Callable, Optional

from .kernel import Simulation, check_number
from .nat import DELIVER, REJECT_RST, NatConfig, NatState, SessionTableFull
from .packets import (DEFAULT_TTL, MESSAGES, REPLY, SERVED, TCP_RST, UDP_DATAGRAM, Endpoint,
                      Packet)

FIRST_DYNAMIC_PORT = 10_000
# Floor applied to every latency draw so causality is never violated.
MIN_LATENCY_MS = 0.01
# Hops between two distinct hosts; a packet whose TTL is lower dies in the core.
HOP_DISTANCE = 6


class Host:
    """A simulated host: bound ports with packet handlers, optionally
    behind a NAT device."""

    def __init__(self, network: "Network", host_id: str, nat: Optional[NatState],
                 mean_latency: float, stddev_latency: float, leg: float):
        self.net = network
        self.id = host_id
        self.nat = nat
        self.mean_latency = mean_latency  # one-way access latency, ms
        self.stddev_latency = stddev_latency
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

    def datagram(self, src: Endpoint, dst: Endpoint, tag, ttl: int = DEFAULT_TTL) -> bool:
        """Send message `tag` from `src`, one of this host's endpoints, in a UDP
        datagram; True (the network may drop it), or KeyError for no `MESSAGES` row."""
        MESSAGES[tag if type(tag) is str else tag[0]]
        # Positional: a keyword call to Packet's __init__ costs about twice as much.
        self.net.send(self, Packet(src, dst, UDP_DATAGRAM, ttl, tag))
        return True

    def request(self, send: Callable[[tuple], bool], tag: tuple,
                on_reply: Callable[[tuple], None], timeout_ms: Optional[float] = None,
                on_timeout: Optional[Callable[[], None]] = None) -> bool:
        """`send` request `tag` (kind, ...) as (kind, token, ...), a fresh token;
        False, and nothing waits, if `send` is (its carrier is gone). The
        reply echoing the token goes to `on_reply(tag)` unless `on_timeout()`
        runs at `timeout_ms`; with no timeout it is awaited as the sim runs."""
        sim = self.net.sim
        token = sim.next_token()
        if not send((tag[0], token) + tag[1:]):
            return False
        timer = None if timeout_ms is None else sim.schedule(
            lambda: self._expire(token, on_timeout), sim.now + timeout_ms)
        self.replies[token] = (on_reply, timer)
        return True

    def _expire(self, token: int, on_timeout: Callable[[], None]) -> None:
        del self.replies[token]  # a delivered reply cancelled this timer
        on_timeout()

    def serve(self, tag: tuple) -> Optional[tuple]:
        """Hand a `REPLY` tag to the callback its token names (a reply
        nobody waits for is dropped) and return None, or return a ping's
        answer, (`REPLY`, token), for the carrier to send back. A carrier
        calls this for the `SERVED` kinds only."""
        if tag[0] != REPLY:
            return (REPLY,) + tag[1:]
        waiting = self.replies.pop(tag[1], None)
        if waiting is not None:
            on_reply, timer = waiting
            if timer is not None:
                self.net.sim.cancel(timer)
            on_reply(tag)

    def _dispatch(self, pkt: Packet) -> None:
        handler = self.handlers.get(pkt.dst.port)
        if handler is not None:
            tag = pkt.tag
            if type(tag) is tuple and tag[0] in SERVED:
                reply = self.serve(tag)
                if reply is not None:
                    self.datagram(pkt.dst, pkt.src, reply)
            else:
                handler(pkt)


class Network:
    """One simulation instance's hosts plus the routing fabric."""

    def __init__(self, sim: Simulation, loss_rate: float = 0.0):
        check_number("loss_rate", loss_rate, 0.0, 1.0)
        self.sim = sim
        self.loss_rate = loss_rate
        self.hosts: dict[str, Host] = {}  # host id or NAT public name -> host
        self._latency_rng = sim.stream("latency")
        self.dropped_session_full = 0
        self.dropped_in_core = 0

    def add_host(self, host_id: str, mean_latency: float = 10.0,
                 stddev_latency: float = 0.0, nat_config: Optional[NatConfig] = None,
                 nat_leg: float = 0.0) -> Host:
        public_name = None if nat_config is None else f"{host_id}#nat"
        for name in (host_id, public_name):
            if name in self.hosts:
                raise ValueError(f"duplicate host {name!r}")
        check_number("mean_latency", mean_latency, 0.0)
        check_number("stddev_latency", stddev_latency, 0.0)
        check_number("nat_leg", nat_leg, 0.0)
        nat = None
        if nat_config is not None:
            nat = NatState(nat_config, public_host=public_name,
                           rng=self.sim.stream(f"nat/{host_id}"))
        host = Host(self, host_id, nat, mean_latency, stddev_latency,
                    nat_leg if nat is not None else 0.0)
        self.hosts[host_id] = host
        if nat is not None:
            self.hosts[public_name] = host
        return host

    def send(self, sender: Host, pkt: Packet, skip_sender_nat: bool = False) -> None:
        """Inject a packet from `sender` into the fabric. Drops (filtering,
        TTL, loss, table exhaustion) are outcomes, not errors."""
        sim = self.sim
        t0 = sim.now

        if sender.nat is not None and not skip_sender_nat:
            try:
                pkt = sender.nat.process_outbound(pkt, t0 + sender.leg)
            except SessionTableFull:
                self.dropped_session_full += 1
                return

        dst_host = pkt.dst.host
        receiver = self.hosts.get(dst_host)
        if receiver is None:
            return
        if pkt.ttl < (HOP_DISTANCE if receiver is not sender else 0):
            self.dropped_in_core += 1
            return
        # The loss stream is made on first use: a lossless run never seeds it.
        loss_rate = self.loss_rate
        if loss_rate > 0.0 and sim.stream("loss").random() < loss_rate:
            return

        latency = self._latency_rng.normal(sender.mean_latency + receiver.mean_latency,
                                           sender.stddev_latency + receiver.stddev_latency)
        if not latency > MIN_LATENCY_MS:  # a NaN draw is floored too
            latency = MIN_LATENCY_MS
        if skip_sender_nat and sender.nat is not None:
            # The packet originates at the NAT box itself, one access leg
            # closer to the destination than the host.
            latency = max(0.0, latency - sender.leg)
        t_arrival = t0 + latency
        rnat = receiver.nat
        if rnat is not None and dst_host == rnat.public_host:
            t_nat = t_arrival - receiver.leg
            if t_nat < t0:
                t_nat = t0
            sim.schedule(self._at_receiver_nat, t_nat)[3] = (receiver, pkt, t_arrival)
        elif rnat is None:
            sim.schedule(receiver._dispatch, t_arrival)[3] = pkt
        # A NAT'd host's internal address is not routable from outside.

    def _at_receiver_nat(self, hop: tuple[Host, Packet, float]) -> None:
        receiver, pkt, t_arrival = hop
        action, translated = receiver.nat.process_inbound(pkt, self.sim.now)
        if action is DELIVER:
            self.sim.schedule(receiver._dispatch, t_arrival)[3] = translated
        elif action is REJECT_RST:
            self.send(receiver, Packet(pkt.dst, pkt.src, TCP_RST), skip_sender_nat=True)

    def close(self) -> None:
        """End this world: cancel every pending event, unbind every host
        (its `handlers` and awaited `replies`) and empty the name table,
        so no callback keeps a host on a reference cycle; the drop counters
        stay readable. A campaign closes a fresh-world trial's world, with
        `dcutr.PeerRuntime.close`, once its record is built."""
        self.sim.cancel_all()
        for host in self.hosts.values():
            host.handlers.clear()
            host.replies.clear()
        self.hosts.clear()
