"""Precursor protocols: relay reservations and limited relayed
connections, observed-address exchange, and dial-back reachability
classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Callable, Optional

from .net import Host, Network
from .packets import Endpoint, Packet, PacketKind
from .transport import DialResult, QuicPort, TcpPort, Transport, mean_stddev

RELAY_PORT = 1
DEFAULT_RESERVATION_MS = 3_600_000.0
DEFAULT_DATA_BUDGET_BYTES = 4_096
DEFAULT_RELAYED_CONN_LIMIT = 16
DEFAULT_RESERVATION_CAPACITY = 128
CONTROL_BYTES = 24
CIRCUIT_HEADER_BYTES = 8
PING_BYTES = 32


class Reachability(Enum):
    PUBLIC = "public"
    PRIVATE = "private"
    UNKNOWN = "unknown"


@dataclass
class Reservation:
    relay: str
    client: str
    client_endpoint: Endpoint
    expires: float
    data_budget_bytes: int = DEFAULT_DATA_BUDGET_BYTES
    relayed_conn_limit: int = DEFAULT_RELAYED_CONN_LIMIT
    active_conns: int = 0


@dataclass
class PeerAddressInfo:
    """What a peer knows about its own addressing, plus what it learned
    about the remote over Identify."""

    observed_public: list[tuple[Endpoint, Transport]] = field(default_factory=list)
    port_mapping_active: bool = False

    def endpoint_for(self, transport: Transport) -> Optional[Endpoint]:
        for ep, tr in self.observed_public:
            if tr is transport:
                return ep
        return None


class Circuit:
    """One peer's handle on a relayed connection."""

    def __init__(self, client: "RelayClient", relay_ep: Endpoint, cid: int,
                 peer_id: Optional[str] = None):
        self.client = client
        self.relay_ep = relay_ep
        self.cid = cid
        self.peer_id = peer_id
        self.open = True
        self.on_message: Optional[Callable[[tuple, int], None]] = None
        self.on_closed: Optional[Callable[[str], None]] = None

    def send(self, tag: tuple, size_bytes: int) -> None:
        if not self.open:
            return
        self.client._send_control(self.relay_ep,
                                  ("circ", self.cid, tag),
                                  size_bytes + CIRCUIT_HEADER_BYTES)

    def close(self) -> None:
        if self.open:
            self.open = False
            self.client._send_control(self.relay_ep, ("circ-close", self.cid),
                                      CONTROL_BYTES)

    def _closed(self, reason: str) -> None:
        if self.open:
            self.open = False
            if self.on_closed is not None:
                self.on_closed(reason)


class RelayService:
    """Circuit v2-style relay running on a public host. Forwards circuit
    payloads unmodified; only reservation and budget limits can terminate
    a relayed connection."""

    def __init__(self, net: Network, host: Host, port: int = RELAY_PORT,
                 capacity: int = DEFAULT_RESERVATION_CAPACITY,
                 reservation_ms: float = DEFAULT_RESERVATION_MS,
                 data_budget_bytes: int = DEFAULT_DATA_BUDGET_BYTES,
                 relayed_conn_limit: int = DEFAULT_RELAYED_CONN_LIMIT):
        if host.nat is not None:
            raise ValueError("relays must be public peers")
        self.net = net
        self.host = host
        self.port = host.bind(self._on_packet, port)
        self.capacity = capacity
        self.reservation_ms = reservation_ms
        self.data_budget_bytes = data_budget_bytes
        self.relayed_conn_limit = relayed_conn_limit
        self.reservations: dict[str, Reservation] = {}
        # cid -> {side endpoint -> (other endpoint, reservation)}, plus
        # per-direction byte counters.
        self._circuits: dict[int, dict] = {}
        self._next_cid = 1

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.host.id, self.port)

    def _send(self, dst: Endpoint, tag: tuple, size: int = CONTROL_BYTES) -> None:
        self.host.send(Packet(src=self.endpoint, dst=dst,
                              kind=PacketKind.UDP_DATAGRAM, size_bytes=size,
                              tag=tag))

    def _live_reservations(self) -> int:
        now = self.net.sim.now
        return sum(1 for r in self.reservations.values() if r.expires > now)

    def _on_packet(self, pkt: Packet) -> None:
        tag = pkt.tag
        if not isinstance(tag, tuple):
            return
        now = self.net.sim.now
        if tag[0] == "obs":
            self._send(pkt.src, ("obsr", tag[1], pkt.src))
        elif tag[0] == "rsv-req":
            peer_id = tag[1]
            if self._live_reservations() >= self.capacity and peer_id not in self.reservations:
                self._send(pkt.src, ("rsv-refused", peer_id))
                return
            rsv = Reservation(relay=self.host.id, client=peer_id,
                              client_endpoint=pkt.src,
                              expires=now + self.reservation_ms,
                              data_budget_bytes=self.data_budget_bytes,
                              relayed_conn_limit=self.relayed_conn_limit)
            self.reservations[peer_id] = rsv
            self._send(pkt.src, ("rsv-ok", peer_id, rsv.expires))
        elif tag[0] == "conn-req":
            listener_id, dialer_id = tag[1], tag[2]
            rsv = self.reservations.get(listener_id)
            if rsv is None or rsv.expires <= now or rsv.active_conns >= rsv.relayed_conn_limit:
                self._send(pkt.src, ("conn-refused", listener_id))
                return
            cid = self._next_cid
            self._next_cid += 1
            rsv.active_conns += 1
            self._circuits[cid] = {
                "sides": {pkt.src: rsv.client_endpoint,
                          rsv.client_endpoint: pkt.src},
                "used": {pkt.src: 0, rsv.client_endpoint: 0},
                "budget": rsv.data_budget_bytes,
                "rsv": rsv,
            }
            self._send(pkt.src, ("conn-ok", cid, listener_id))
            self._send(rsv.client_endpoint, ("conn-in", cid, dialer_id))
        elif tag[0] == "circ":
            cid, payload = tag[1], tag[2]
            circ = self._circuits.get(cid)
            if circ is None:
                return
            other = circ["sides"].get(pkt.src)
            if other is None:
                return
            size = pkt.size_bytes - CIRCUIT_HEADER_BYTES
            circ["used"][pkt.src] += size
            if circ["used"][pkt.src] > circ["budget"]:
                self._close_circuit(cid, "budget-exhausted")
                return
            self._send(other, ("circ", cid, payload), pkt.size_bytes)
        elif tag[0] == "circ-close":
            self._close_circuit(tag[1], "closed", notify=pkt.src)

    def _close_circuit(self, cid: int, reason: str,
                       notify: Optional[Endpoint] = None) -> None:
        circ = self._circuits.pop(cid, None)
        if circ is None:
            return
        circ["rsv"].active_conns -= 1
        for side in circ["sides"]:
            if side != notify:
                self._send(side, ("circ-reset", cid, reason))


class RelayClient:
    """Peer-side relay protocol endpoint: holds reservations, dials and
    accepts circuits, answers circuit-level pings."""

    def __init__(self, net: Network, host: Host, peer_id: Optional[str] = None):
        self.net = net
        self.host = host
        self.peer_id = peer_id or host.id
        self.port = host.bind(self._on_packet)
        self.reservations: dict[str, float] = {}  # relay-id -> expires
        # Circuit ids are assigned relay-locally, so key by (relay, cid).
        self.circuits: dict[tuple[str, int], Circuit] = {}
        self.on_incoming_circuit: Optional[Callable[[Circuit], None]] = None
        self._waiters: dict[str, Callable] = {}
        self._ping_waiters: dict[tuple, Callable[[float], None]] = {}

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.host.id, self.port)

    def _send_control(self, dst: Endpoint, tag: tuple, size: int = CONTROL_BYTES) -> None:
        self.host.send(Packet(src=self.endpoint, dst=dst,
                              kind=PacketKind.UDP_DATAGRAM, size_bytes=size,
                              tag=tag))

    def reserve(self, relay_ep: Endpoint, on_done: Callable[[bool], None],
                timeout_ms: float = 5_000.0) -> None:
        key = f"rsv/{relay_ep.host}"
        self._waiters[key] = on_done
        self._send_control(relay_ep, ("rsv-req", self.peer_id))
        self.net.sim.schedule_in(lambda: self._timeout(key, False), timeout_ms)

    def connect_via(self, listener_id: str, relay_addrs: list[Endpoint],
                    on_done: Callable[[Optional[Circuit]], None],
                    timeout_ms: float = 10_000.0) -> None:
        """Dial the listener through every given relay; the first circuit
        to open wins, the rest are closed."""
        state = {"done": False, "refused": 0, "n": len(relay_addrs)}

        def settle(circuit: Optional[Circuit]) -> None:
            if state["done"]:
                if circuit is not None:
                    circuit.close()
                return
            if circuit is None:
                state["refused"] += 1
                if state["refused"] >= state["n"]:
                    state["done"] = True
                    on_done(None)
                return
            state["done"] = True
            on_done(circuit)

        if not relay_addrs:
            on_done(None)
            return
        for relay_ep in relay_addrs:
            key = f"conn/{relay_ep.host}/{listener_id}"
            self._waiters[key] = settle
            self._send_control(relay_ep, ("conn-req", listener_id, self.peer_id))
        self.net.sim.schedule_in(
            lambda: (not state["done"] and (state.update(done=True), on_done(None))),
            timeout_ms)

    def circuit_ping(self, circuit: Circuit, samples: int,
                     on_done: Callable[[Optional[tuple[float, float]]], None],
                     timeout_ms: float = 5_000.0) -> None:
        """RTT of the relayed path via sequential circuit-level pings."""
        rtts: list[float] = []
        state = {"seq": 0}
        # Circuit ids are relay-local, so (relay, cid) names the circuit.
        key = (circuit.relay_ep.host, circuit.cid)

        def send_next() -> None:
            if state["seq"] >= samples or not circuit.open:
                on_done(mean_stddev(rtts) if rtts else None)
                return
            state["seq"] += 1
            token = ("cping", *key, state["seq"])
            sent_at = self.net.sim.now

            def on_pong() -> None:
                rtts.append(self.net.sim.now - sent_at)
                send_next()

            self._ping_waiters[("cpong", *key, state["seq"])] = on_pong
            seq = state["seq"]
            circuit.send(token, PING_BYTES)
            self.net.sim.schedule_in(lambda: check_timeout(seq), timeout_ms)

        def check_timeout(seq: int) -> None:
            if self._ping_waiters.pop(("cpong", *key, seq), None) is not None:
                if state["seq"] == seq:
                    send_next()

        send_next()

    def observe_via(self, observer_ep: Endpoint, port: int,
                    on_done: Callable[[Optional[Endpoint]], None],
                    timeout_ms: float = 5_000.0) -> None:
        """Learn the external endpoint of one of this host's bound ports
        as seen by a public observer (Identify's address discovery).

        The probe must leave from the observed port itself so the answer
        reflects that port's translation, so the port's handler is wrapped
        until the answer (or the timeout) arrives.
        """
        token = ("obsw", self.peer_id, port, self.net.sim.now)
        outer = self.host.handlers[port]
        state = {"done": False}

        def settle(value: Optional[Endpoint]) -> None:
            if state["done"]:
                return
            state["done"] = True
            self.host.handlers[port] = outer
            on_done(value)

        def wrapped(pkt: Packet) -> None:
            tag = pkt.tag
            if isinstance(tag, tuple) and tag and tag[0] == "obsr" and tag[1] == token:
                settle(tag[2])
                return
            outer(pkt)

        self.host.handlers[port] = wrapped
        self.host.send(Packet(src=Endpoint(self.host.id, port), dst=observer_ep,
                              kind=PacketKind.UDP_DATAGRAM, size_bytes=CONTROL_BYTES,
                              tag=("obs", token)))
        self.net.sim.schedule_in(lambda: settle(None), timeout_ms)

    def _timeout(self, key, value) -> None:
        waiter = self._waiters.pop(key, None)
        if waiter is not None:
            waiter(value)

    def _on_packet(self, pkt: Packet) -> None:
        tag = pkt.tag
        if not isinstance(tag, tuple):
            return
        kind = tag[0]
        if kind == "rsv-ok":
            waiter = self._waiters.pop(f"rsv/{pkt.src.host}", None)
            if waiter is not None:
                self.reservations[pkt.src.host] = tag[2]
                waiter(True)
        elif kind == "rsv-refused":
            waiter = self._waiters.pop(f"rsv/{pkt.src.host}", None)
            if waiter is not None:
                waiter(False)
        elif kind in ("conn-ok", "conn-refused"):
            listener_id = tag[2] if kind == "conn-ok" else tag[1]
            settle = self._waiters.pop(f"conn/{pkt.src.host}/{listener_id}", None)
            if settle is None:
                return
            if kind == "conn-refused":
                settle(None)
                return
            circuit = Circuit(self, pkt.src, tag[1], peer_id=listener_id)
            self.circuits[(pkt.src.host, circuit.cid)] = circuit
            settle(circuit)
        elif kind == "conn-in":
            circuit = Circuit(self, pkt.src, tag[1], peer_id=tag[2])
            self.circuits[(pkt.src.host, circuit.cid)] = circuit
            if self.on_incoming_circuit is not None:
                self.on_incoming_circuit(circuit)
        elif kind == "circ":
            circuit = self.circuits.get((pkt.src.host, tag[1]))
            if circuit is None or not circuit.open:
                return
            payload = tag[2]
            if isinstance(payload, tuple) and payload and payload[0] == "cping":
                circuit.send(("cpong",) + payload[1:], PING_BYTES)
                return
            if isinstance(payload, tuple) and payload and payload[0] == "cpong":
                waiter = self._ping_waiters.pop(payload, None)
                if waiter is not None:
                    waiter()
                return
            if circuit.on_message is not None:
                circuit.on_message(payload, pkt.size_bytes - CIRCUIT_HEADER_BYTES)
        elif kind == "circ-reset":
            circuit = self.circuits.get((pkt.src.host, tag[1]))
            if circuit is not None:
                circuit._closed(tag[2])


def autonat_check(net: Network, advertised: list[tuple[Endpoint, Transport]],
                  helpers: list[str],
                  on_done: Callable[[Reachability], None],
                  deadline_ms: float = 5_000.0) -> None:
    """Dial-back reachability classification: public iff some helper's
    unsolicited dial to an advertised address establishes."""
    if not helpers:
        on_done(Reachability.UNKNOWN)
        return
    if not advertised:
        on_done(Reachability.PRIVATE)
        return
    attempts = [(h, ep, tr) for h in helpers for ep, tr in advertised]
    state = {"done": False, "pending": len(attempts)}

    def finish(result: DialResult) -> None:
        if state["done"]:
            return
        state["pending"] -= 1
        if result.established:
            state["done"] = True
            on_done(Reachability.PUBLIC)
        elif state["pending"] == 0:
            state["done"] = True
            on_done(Reachability.PRIVATE)

    for helper, ep, transport in attempts:
        host = net.hosts[helper]
        if transport is Transport.TCP:
            TcpPort(net, host, listening=False).dial(ep, deadline_ms, finish)
        else:
            QuicPort(net, host, accepting=False).dial(ep, deadline_ms, finish)
