"""Precursor protocols: relay reservations and limited relayed
connections, observed-address exchange, and dial-back reachability
classification."""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .net import Host, Network
from .packets import Endpoint, Packet, PacketKind
from .transport import PING_BYTES, DialResult, QuicPort, RttProbe, TcpPort, Transport

RELAY_PORT = 1
DEFAULT_RESERVATION_MS = 3_600_000.0
DEFAULT_DATA_BUDGET_BYTES = 4_096
DEFAULT_RELAYED_CONN_LIMIT = 16
DEFAULT_RESERVATION_CAPACITY = 128
CONTROL_BYTES = 24
CIRCUIT_HEADER_BYTES = 8


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

    def send(self, tag: tuple, size_bytes: int) -> bool:
        """Send a payload through the relay; False once the circuit closed."""
        if not self.open:
            return False
        self.client._send_control(self.relay_ep,
                                  ("circ", self.cid, tag),
                                  size_bytes + CIRCUIT_HEADER_BYTES)
        return True

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
            token, peer_id = tag[1], tag[2]
            if self._live_reservations() >= self.capacity and peer_id not in self.reservations:
                self._send(pkt.src, ("rsv-refused", token))
                return
            rsv = Reservation(relay=self.host.id, client=peer_id,
                              client_endpoint=pkt.src,
                              expires=now + self.reservation_ms,
                              data_budget_bytes=self.data_budget_bytes,
                              relayed_conn_limit=self.relayed_conn_limit)
            self.reservations[peer_id] = rsv
            self._send(pkt.src, ("rsv-ok", token, rsv.expires))
        elif tag[0] == "conn-req":
            token, listener_id, dialer_id = tag[1], tag[2], tag[3]
            rsv = self.reservations.get(listener_id)
            if rsv is None or rsv.expires <= now or rsv.active_conns >= rsv.relayed_conn_limit:
                self._send(pkt.src, ("conn-refused", token))
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
            self._send(pkt.src, ("conn-ok", token, cid))
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

    @property
    def endpoint(self) -> Endpoint:
        return Endpoint(self.host.id, self.port)

    def _send_control(self, dst: Endpoint, tag: tuple, size: int = CONTROL_BYTES) -> None:
        self.host.send(Packet(src=self.endpoint, dst=dst,
                              kind=PacketKind.UDP_DATAGRAM, size_bytes=size,
                              tag=tag))

    def reserve(self, relay_ep: Endpoint, on_done: Callable[[bool], None],
                timeout_ms: float = 5_000.0) -> None:
        token = self.net.sim.next_token()
        self._send_control(relay_ep, ("rsv-req", token, self.peer_id))

        def on_reply(tag: tuple) -> None:
            if tag[0] == "rsv-ok":
                self.reservations[relay_ep.host] = tag[2]
            on_done(tag[0] == "rsv-ok")

        self.host.expect(token, on_reply, timeout_ms, lambda: on_done(False))

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

        def on_reply(relay_ep: Endpoint, tag: tuple) -> None:
            if tag[0] == "conn-refused":
                settle(None)
                return
            circuit = Circuit(self, relay_ep, tag[2], peer_id=listener_id)
            self.circuits[(relay_ep.host, circuit.cid)] = circuit
            settle(circuit)

        if not relay_addrs:
            on_done(None)
            return
        for relay_ep in relay_addrs:
            token = self.net.sim.next_token()
            # No timeout per request: `settle` closes a circuit that opens
            # late, so the relay frees its slot.
            self.host.replies[token] = partial(on_reply, relay_ep)
            self._send_control(relay_ep, ("conn-req", token, listener_id, self.peer_id))
        self.net.sim.schedule_in(
            lambda: (not state["done"] and (state.update(done=True), on_done(None))),
            timeout_ms)

    def circuit_ping(self, circuit: Circuit, samples: int,
                     on_done: Callable[[Optional[tuple[float, float]]], None],
                     timeout_ms: float = 5_000.0) -> None:
        """RTT of the relayed path via sequential pings through the
        circuit; the far end's RelayClient answers them."""
        RttProbe(self.net, self.host, lambda tag: circuit.send(tag, PING_BYTES),
                 samples=samples, timeout_ms=timeout_ms, on_done=on_done).start()

    def observe_via(self, observer_ep: Endpoint, port: int,
                    on_done: Callable[[Optional[Endpoint]], None],
                    timeout_ms: float = 5_000.0) -> None:
        """Learn the external endpoint of one of this host's bound ports
        as seen by a public observer (Identify's address discovery). The
        probe leaves from the observed port itself so the answer reflects
        that port's translation."""
        token = self.net.sim.next_token()
        self.host.send(Packet(src=self.host.endpoint(port), dst=observer_ep,
                              kind=PacketKind.UDP_DATAGRAM, size_bytes=CONTROL_BYTES,
                              tag=("obs", token)))
        self.host.expect(token, lambda tag: on_done(tag[2]), timeout_ms,
                         lambda: on_done(None))

    def _on_packet(self, pkt: Packet) -> None:
        tag = pkt.tag
        if not isinstance(tag, tuple):
            return
        kind = tag[0]
        if kind == "conn-in":
            circuit = Circuit(self, pkt.src, tag[1], peer_id=tag[2])
            self.circuits[(pkt.src.host, circuit.cid)] = circuit
            if self.on_incoming_circuit is not None:
                self.on_incoming_circuit(circuit)
        elif kind == "circ":
            circuit = self.circuits.get((pkt.src.host, tag[1]))
            if circuit is None or not circuit.open:
                return
            payload = tag[2]
            size = pkt.size_bytes - CIRCUIT_HEADER_BYTES
            if (not self.host.serve(payload, circuit.send, size)
                    and circuit.on_message is not None):
                circuit.on_message(payload, size)
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
