"""Precursor protocols: relay reservations, limited relayed connections
(circuits) with pings through them, and observed-address exchange. Each
message is a row of `packets.MESSAGES`, and the relay charges each side's
data budget the table size of the payloads it forwards, not their
frames'. A circuit payload whose kind is in `packets.SERVED` (a `ping` or
a `REPLY`) goes to `net.Host.serve`, as on a bound port, and its answer
back through the circuit; any other goes to the circuit's `on_message`."""

from __future__ import annotations

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from .net import Host
from .packets import MESSAGES, REPLY, SERVED, Endpoint, Packet, message_bytes
from .transport import RttProbe

RELAY_PORT = 1
DEFAULT_RESERVATION_MS = 3_600_000.0
DEFAULT_DATA_BUDGET_BYTES = 4_096
DEFAULT_RELAYED_CONN_LIMIT = 16
DEFAULT_RESERVATION_CAPACITY = 128
# How long a client awaits a `packets.REPLY` (reservation, address, ping); for a circuit.
REQUEST_TIMEOUT_MS = 5_000.0
CONNECT_TIMEOUT_MS = 10_000.0


@dataclass
class Reservation:
    client_endpoint: Endpoint
    expires: float
    active_conns: int = 0


class Circuit:
    """One peer's handle on a relayed connection."""

    def __init__(self, client: "RelayClient", relay_ep: Endpoint, cid: int):
        self.client = client
        self.relay_ep = relay_ep
        self.cid = cid
        self.open = True
        self.on_message: Optional[Callable[[tuple], None]] = None
        self.on_closed: Optional[Callable[[str], None]] = None

    def send(self, tag) -> bool:
        """Send a payload through the relay: False once closed, KeyError for no `MESSAGES` row."""
        if not self.open:
            return False
        MESSAGES[tag if type(tag) is str else tag[0]]
        client = self.client
        return client.host.datagram(client.endpoint, self.relay_ep, ("circ", self.cid, tag))

    def close(self) -> None:
        if self.open:
            self.open = False
            client = self.client
            client.host.datagram(client.endpoint, self.relay_ep, ("circ-close", self.cid))

    def _closed(self, reason: str) -> None:
        if self.open:
            self.open = False
            if self.on_closed is not None:
                self.on_closed(reason)


class RelayService:
    """Circuit v2-style relay running on a public host. Forwards circuit
    payloads unmodified; only reservation and budget limits can terminate
    a relayed connection. A request is answered (`REPLY`, token, value):
    the observed endpoint, the reservation's expiry or the circuit id, and
    None for a refusal."""

    def __init__(self, host: Host, capacity: int = DEFAULT_RESERVATION_CAPACITY,
                 data_budget_bytes: int = DEFAULT_DATA_BUDGET_BYTES,
                 relayed_conn_limit: int = DEFAULT_RELAYED_CONN_LIMIT):
        if host.nat is not None:
            raise ValueError("relays must be public peers")
        self.host = host
        self.port = host.bind(self._on_packet, RELAY_PORT)
        self.endpoint = Endpoint(host.id, self.port)
        self.capacity = capacity
        self.data_budget_bytes = data_budget_bytes
        self.relayed_conn_limit = relayed_conn_limit
        self.reservations: dict[str, Reservation] = {}
        # cid -> {side endpoint -> (other endpoint, reservation)}, plus
        # per-direction byte counters.
        self._circuits: dict[int, dict] = {}
        self._next_cid = 1

    def _live_reservations(self) -> int:
        now = self.host.net.sim.now
        return sum(1 for r in self.reservations.values() if r.expires > now)

    def _on_packet(self, pkt: Packet) -> None:
        tag = pkt.tag
        if type(tag) is not tuple:
            return
        kind = tag[0]
        # Circuit payloads first: they are most of a relay's traffic.
        if kind == "circ":
            cid = tag[1]
            circ = self._circuits.get(cid)
            if circ is None:
                return
            other = circ["sides"].get(pkt.src)
            if other is None:
                return
            circ["used"][pkt.src] += message_bytes(tag[2])
            if circ["used"][pkt.src] > self.data_budget_bytes:
                self._close_circuit(cid, "budget-exhausted")
                return
            self.host.datagram(self.endpoint, other, tag)
        elif kind == "obs":
            self.host.datagram(self.endpoint, pkt.src, (REPLY, tag[1], pkt.src))
        elif kind == "rsv-req":
            token, peer_id = tag[1], tag[2]
            now = self.host.net.sim.now
            rsv = self.reservations.get(peer_id)
            # At capacity, only the refresh of a live reservation is admitted.
            if ((rsv is None or rsv.expires <= now)
                    and self._live_reservations() >= self.capacity):
                self.host.datagram(self.endpoint, pkt.src, (REPLY, token, None))
                return
            expires = now + DEFAULT_RESERVATION_MS
            if rsv is None:
                self.reservations[peer_id] = Reservation(pkt.src, expires)
            else:
                # Refreshed in place: its open circuits count against it.
                rsv.client_endpoint, rsv.expires = pkt.src, expires
            self.host.datagram(self.endpoint, pkt.src, (REPLY, token, expires))
        elif kind == "conn-req":
            token, listener_id, dialer_id = tag[1], tag[2], tag[3]
            rsv = self.reservations.get(listener_id)
            if (rsv is None or rsv.expires <= self.host.net.sim.now
                    or rsv.active_conns >= self.relayed_conn_limit):
                self.host.datagram(self.endpoint, pkt.src, (REPLY, token, None))
                return
            cid = self._next_cid
            self._next_cid += 1
            rsv.active_conns += 1
            self._circuits[cid] = {
                "sides": {pkt.src: rsv.client_endpoint,
                          rsv.client_endpoint: pkt.src},
                "used": {pkt.src: 0, rsv.client_endpoint: 0},
                "rsv": rsv,
            }
            self.host.datagram(self.endpoint, pkt.src, (REPLY, token, cid))
            self.host.datagram(self.endpoint, rsv.client_endpoint,
                               ("conn-in", cid, dialer_id))
        elif kind == "circ-close":
            self._close_circuit(tag[1], "closed", notify=pkt.src)

    def _close_circuit(self, cid: int, reason: str,
                       notify: Optional[Endpoint] = None) -> None:
        circ = self._circuits.pop(cid, None)
        if circ is None:
            return
        circ["rsv"].active_conns -= 1
        for side in circ["sides"]:
            if side != notify:
                self.host.datagram(self.endpoint, side, ("circ-reset", cid, reason))


class RelayClient:
    """Peer-side relay protocol endpoint: holds reservations, dials and
    accepts circuits, answers circuit-level pings."""

    def __init__(self, host: Host):
        self.host = host
        self.port = host.bind(self._on_packet)
        self.endpoint = Endpoint(host.id, self.port)
        self.reservations: dict[str, float] = {}  # relay-id -> expires
        # Circuit ids are assigned relay-locally, so key by (relay, cid).
        self.circuits: dict[tuple[str, int], Circuit] = {}
        self.on_incoming_circuit: Optional[Callable[[Circuit], None]] = None

    def reserve(self, relay_ep: Endpoint, on_done: Callable[[bool], None]) -> None:
        def on_reply(tag: tuple) -> None:
            expires = tag[2]  # None: refused
            if expires is not None:
                self.reservations[relay_ep.host] = expires
            on_done(expires is not None)

        self.host.request(partial(self.host.datagram, self.endpoint, relay_ep),
                          ("rsv-req", self.host.id), on_reply, REQUEST_TIMEOUT_MS,
                          lambda: on_done(False))

    def connect_via(self, listener_id: str, relay_addrs: list[Endpoint],
                    on_done: Callable[[Optional[Circuit]], None]) -> None:
        """Dial the listener through every given relay; the first circuit
        to open wins, the rest are closed. The overall timeout is live
        exactly while the dial is unsettled."""
        if not relay_addrs:
            on_done(None)
            return
        refused = 0
        timeout = None

        def settle(circuit: Optional[Circuit]) -> None:
            nonlocal timeout
            if timeout is None:  # settled already
                if circuit is not None:
                    circuit.close()
                return
            self.host.net.sim.cancel(timeout)
            timeout = None
            on_done(circuit)

        def on_reply(relay_ep: Endpoint, tag: tuple) -> None:
            nonlocal refused
            cid = tag[2]  # None: refused
            if cid is None:
                refused += 1
                if refused == len(relay_addrs):
                    settle(None)
                return
            circuit = Circuit(self, relay_ep, cid)
            self.circuits[(relay_ep.host, circuit.cid)] = circuit
            settle(circuit)

        for relay_ep in relay_addrs:
            # No timeout per request: `settle` closes a circuit that opens
            # late, so the relay frees its slot.
            self.host.request(partial(self.host.datagram, self.endpoint, relay_ep),
                              ("conn-req", listener_id, self.host.id), partial(on_reply, relay_ep))
        sim = self.host.net.sim
        timeout = sim.schedule(lambda: settle(None), sim.now + CONNECT_TIMEOUT_MS)

    def circuit_ping(self, circuit: Circuit, samples: int,
                     on_done: Callable[[Optional[tuple[float, float]]], None]) -> None:
        """RTT of the relayed path via sequential pings through the
        circuit; the far end's RelayClient answers them."""
        RttProbe(self.host, circuit.send, samples=samples, timeout_ms=REQUEST_TIMEOUT_MS,
                 on_done=on_done).start()

    def observe_via(self, observer_ep: Endpoint, port: int,
                    on_done: Callable[[Optional[Endpoint]], None],
                    timeout_ms: float = REQUEST_TIMEOUT_MS) -> None:
        """Learn the external endpoint of one of this host's bound ports
        as seen by a public observer (Identify's address discovery). The
        probe leaves from the observed port itself so the answer reflects
        that port's translation."""
        self.host.request(partial(self.host.datagram, self.host.endpoint(port), observer_ep),
                          ("obs",), lambda tag: on_done(tag[2]), timeout_ms, lambda: on_done(None))

    def _on_packet(self, pkt: Packet) -> None:
        tag = pkt.tag
        if type(tag) is not tuple:
            return
        kind = tag[0]
        if kind == "conn-in":
            circuit = Circuit(self, pkt.src, tag[1])
            self.circuits[(pkt.src.host, circuit.cid)] = circuit
            if self.on_incoming_circuit is not None:
                self.on_incoming_circuit(circuit)
        elif kind == "circ":
            circuit = self.circuits.get((pkt.src.host, tag[1]))
            if circuit is None or not circuit.open:
                return
            payload = tag[2]
            if type(payload) is tuple and payload[0] in SERVED:
                reply = self.host.serve(payload)
                if reply is not None:
                    circuit.send(reply)
            elif circuit.on_message is not None:
                circuit.on_message(payload)
        elif kind == "circ-reset":
            circuit = self.circuits.get((pkt.src.host, tag[1]))
            if circuit is not None:
                circuit._closed(tag[2])
