"""Relay-coordinated direct connection upgrade.

The peer that dialed the relayed connection is the listener; the peer
that accepted it (the reservation holder) is the initiator. The initiator
may first try Connection Reversal against a listener that looks publicly
dialable; otherwise both run the synchronized hole punch: address
exchange with an RTT measurement, a go signal, a half-RTT wait on the
initiator side, then simultaneous dials. Up to three attempts per result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import partial
from typing import Callable, Optional

from .net import Host, Network
from .packets import Endpoint
from .relay import Circuit, PeerAddressInfo, RelayClient
from .strategies import assign_roles, check_priming_ttl, refined_wait_time
from .transport import QuicPort, TcpPort, Transport, measure_rtt

STREAM_OPEN_BYTES = 32
CONNECT_BYTES_BASE = 96
CONNECT_BYTES_PER_ADDR = 8
SYNC_BYTES = 16


class OutcomeResult(Enum):
    UNKNOWN = "UNKNOWN"
    NO_CONNECTION = "NO_CONNECTION"
    NO_STREAM = "NO_STREAM"
    CONNECTION_REVERSED = "CONNECTION_REVERSED"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"
    SUCCESS = "SUCCESS"


class OutcomeAttempt(Enum):
    UNKNOWN = "UNKNOWN"
    DIRECT_DIAL = "DIRECT_DIAL"
    PROTOCOL_ERROR = "PROTOCOL_ERROR"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"
    FAILED = "FAILED"
    SUCCESS = "SUCCESS"


@dataclass
class HolePunchAttempt:
    index: int
    outcome: OutcomeAttempt
    rtt_relayed: Optional[tuple[float, float]] = None
    transport_used: Optional[Transport] = None
    started: float = 0.0
    ended: float = 0.0


@dataclass
class HolePunchResult:
    client: str
    remote: str
    relay_addrs: list[str] = field(default_factory=list)
    attempts: list[HolePunchAttempt] = field(default_factory=list)
    outcome: OutcomeResult = OutcomeResult.UNKNOWN
    protocol_filter: Optional[Transport] = None
    port_mapping_active: bool = False
    listen_endpoints: list[tuple[str, str]] = field(default_factory=list)
    direct_endpoints_used: list[str] = field(default_factory=list)
    rtt_to_relay: Optional[tuple[float, float]] = None
    rtt_relayed: Optional[tuple[float, float]] = None
    rtt_direct_after: Optional[tuple[float, float]] = None
    started: float = 0.0
    ended: float = 0.0
    # Control-plane accounting over the relay, bytes per direction.
    control_bytes: dict = field(default_factory=lambda: {"initiator": 0, "listener": 0})


@dataclass
class DcutrConfig:
    stream_timeout_ms: float = 15_000.0
    attempt_deadline_ms: float = 15_000.0
    reversal_deadline_ms: float = 5_000.0
    max_attempts: int = 3
    rtt_samples: int = 10
    refined_wait: bool = False
    alternate_roles: bool = False
    ttl_priming: bool = False
    priming_ttl: int = 3
    priming_interval_ms: float = 200.0
    dummy_count: int = 3
    # Test hook: constant offset added to the computed wait time.
    sync_error_ms: float = 0.0
    # Campaign instrumentation pings (to-relay / via-relay / direct-after).
    measure_rtts: bool = True


class PeerRuntime:
    """A peer's live protocol state: relay client, one bound port per
    transport, and its address book."""

    def __init__(self, net: Network, host: Host,
                 transports: frozenset = frozenset({Transport.TCP, Transport.QUIC}),
                 port_mapping: bool = False, mapping_lies: bool = False):
        if not transports:
            raise ValueError("peer must support at least one transport")
        self.net = net
        self.host = host
        self.peer_id = host.id
        self.transports = frozenset(transports)
        self.relay = RelayClient(net, host)
        self.tcp = TcpPort(net, host) if Transport.TCP in transports else None
        self.quic = QuicPort(net, host) if Transport.QUIC in transports else None
        self.info = PeerAddressInfo(port_mapping_active=port_mapping)
        self.mapped_endpoints: dict[Transport, Endpoint] = {}
        if port_mapping and host.nat is not None:
            for transport, port_obj in ((Transport.TCP, self.tcp),
                                        (Transport.QUIC, self.quic)):
                if port_obj is None:
                    continue
                external = Endpoint(host.nat.public_host, port_obj.port)
                if not mapping_lies:
                    host.nat.install_static_mapping(port_obj.local, port_obj.port)
                self.mapped_endpoints[transport] = external

    def port_for(self, transport: Transport):
        return self.tcp if transport is Transport.TCP else self.quic

    def advertised(self, filter: Optional[Transport] = None) -> list[tuple[Endpoint, Transport]]:
        """Candidate public addresses: mapped endpoints take precedence
        over relay-observed ones for the same transport."""
        out: list[tuple[Endpoint, Transport]] = []
        for transport in (Transport.QUIC, Transport.TCP):
            if filter is not None and transport is not filter:
                continue
            if transport not in self.transports:
                continue
            ep = self.mapped_endpoints.get(transport) or self.info.endpoint_for(transport)
            if ep is not None:
                out.append((ep, transport))
        return out

    def appears_public(self) -> bool:
        return self.host.nat is None or self.info.port_mapping_active


class HolePunch:
    """One hole-punch probe between a client (listener side) and a remote
    (initiator side), driven entirely by simulator events."""

    def __init__(self, net: Network, client: PeerRuntime, remote: PeerRuntime,
                 relay_addrs: list[Endpoint], cfg: Optional[DcutrConfig] = None,
                 transport_filter: Optional[Transport] = None,
                 on_done: Callable[[HolePunchResult], None] = None):
        self.net = net
        self.sim = net.sim
        self.cfg = cfg or DcutrConfig()
        self.client = client
        self.remote = remote
        self.relay_addrs = relay_addrs
        self.filter = transport_filter
        self.on_done = on_done
        self.result = HolePunchResult(
            client=client.peer_id, remote=remote.peer_id,
            relay_addrs=[str(ep) for ep in relay_addrs],
            protocol_filter=transport_filter,
            port_mapping_active=client.info.port_mapping_active,
            started=self.sim.now)
        self.done = False
        self.c_circ: Optional[Circuit] = None
        self.r_circ: Optional[Circuit] = None
        self.stream_open = False
        self.reversed_established = False
        self._identified = 0
        self._attempt_gen = 0
        self._attempt_started = 0.0
        self._attempt_rtt: Optional[float] = None
        self._remote_addrs: list[tuple[Endpoint, Transport]] = []
        self._client_addrs: list[tuple[Endpoint, Transport]] = []
        self._client_direct: Optional[tuple[Endpoint, Endpoint, Transport]] = None
        self._awaiting_client_direct = False

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.remote.relay.on_incoming_circuit = self._on_remote_circuit
        self.client.relay.connect_via(self.remote.peer_id, self.relay_addrs,
                                      on_done=self._on_client_circuit)

    def _finish(self, outcome: OutcomeResult) -> None:
        if self.done:
            return
        self.done = True
        self.result.outcome = outcome
        self.result.ended = self.sim.now
        self.result.listen_endpoints = [
            (str(ep), tr.value) for ep, tr in self.client.advertised()]
        if self.c_circ is not None:
            self.c_circ.on_closed = None
            self.c_circ.close()
        if self.r_circ is not None:
            self.r_circ.on_closed = None
        self.remote.relay.on_incoming_circuit = None
        for runtime in (self.client, self.remote):
            for port in (runtime.tcp, runtime.quic):
                if port is not None:
                    port.on_established = None
        if self.on_done is not None:
            self.on_done(self.result)

    def cancel(self) -> None:
        """Explicit abort (campaign shutdown); never occurs spontaneously."""
        if not self.done:
            if self._attempt_gen >= 1:
                self.result.attempts.append(HolePunchAttempt(
                    index=self._attempt_gen, outcome=OutcomeAttempt.CANCELLED,
                    started=self._attempt_started, ended=self.sim.now))
            self._finish(OutcomeResult.CANCELLED)

    # -- circuit establishment -------------------------------------------------

    def _on_client_circuit(self, circuit: Optional[Circuit]) -> None:
        if self.done:
            return
        if circuit is None:
            self._finish(OutcomeResult.NO_CONNECTION)
            return
        self.c_circ = circuit
        circuit.on_message = self._client_message
        circuit.on_closed = self._on_circuit_closed
        self.sim.schedule_in(self._stream_deadline, self.cfg.stream_timeout_ms)
        self._observe_and_identify(self.client, circuit)

    def _on_remote_circuit(self, circuit: Circuit) -> None:
        """The client may race the dial across several relays, so the
        remote can see one incoming circuit per relay. Adopt whichever one
        the client's first message actually arrives on; the client closes
        the losers itself."""
        if self.done:
            return
        circuit.on_message = lambda tag, size: self._remote_adopt(circuit, tag, size)

    def _remote_adopt(self, circuit: Circuit, tag: tuple, size: int) -> None:
        if self.done:
            return
        if self.r_circ is None:
            self.r_circ = circuit
            circuit.on_message = self._remote_message
            circuit.on_closed = self._on_circuit_closed
            self._observe_and_identify(self.remote, circuit)
        if circuit is self.r_circ:
            self._remote_message(tag, size)

    def _on_circuit_closed(self, reason: str) -> None:
        if self.done:
            return
        if self._attempt_gen >= 1:
            self.result.attempts.append(HolePunchAttempt(
                index=self._attempt_gen, outcome=OutcomeAttempt.PROTOCOL_ERROR,
                started=self._attempt_started, ended=self.sim.now))
            self._finish(OutcomeResult.FAILED)
        else:
            self._finish(OutcomeResult.NO_STREAM)

    def _stream_deadline(self) -> None:
        if self.done or self.stream_open:
            return
        if self.reversed_established:
            self._finish(OutcomeResult.CONNECTION_REVERSED)
        else:
            self._finish(OutcomeResult.NO_STREAM)

    # -- identify --------------------------------------------------------------

    def _observe_and_identify(self, runtime: PeerRuntime, circuit: Circuit) -> None:
        ports = [(tr, runtime.port_for(tr).port) for tr in
                 (Transport.TCP, Transport.QUIC) if tr in runtime.transports]
        pending = {"n": len(ports)}

        def send_identify() -> None:
            addrs = tuple(runtime.advertised())
            circuit.send(("id", addrs),
                         CONNECT_BYTES_BASE + CONNECT_BYTES_PER_ADDR * len(addrs))

        for transport, port in ports:
            def on_obs(observed: Optional[Endpoint], transport=transport,
                       port=port) -> None:
                if runtime.host.nat is None:
                    observed = Endpoint(runtime.host.id, port)  # its own address
                if observed is not None:
                    runtime.info.observed_public = [
                        (ep, tr) for ep, tr in runtime.info.observed_public
                        if tr is not transport] + [(observed, transport)]
                pending["n"] -= 1
                if pending["n"] == 0:
                    send_identify()

            runtime.relay.observe_via(circuit.relay_ep, port, on_obs)

    def _peer_identified(self) -> None:
        self._identified += 1
        if self._identified == 2:
            self._hook_establishment()
            self._maybe_reverse()

    # -- connection reversal -----------------------------------------------------

    def _maybe_reverse(self) -> None:
        """Connection Reversal: the initiator dials the listener's first
        eligible address when the listener looks publicly dialable;
        otherwise (or when that dial fails) the punch stream opens."""
        if self.done:
            return
        candidates = [(ep, tr) for ep, tr in self._client_addrs
                      if self.filter is None or tr is self.filter]
        port = None
        if self.client.appears_public() and candidates:
            target, transport = candidates[0]
            port = self.remote.port_for(transport)
        if port is None:
            self._open_stream()
            return

        def on_dial(res) -> None:
            if self.done:
                return
            if res.established:
                self.result.direct_endpoints_used = [str(target)]
                self._finish(OutcomeResult.CONNECTION_REVERSED)
            else:
                self._open_stream()

        port.dial(target, self.cfg.reversal_deadline_ms, on_dial)

    # -- stream open and measurements ---------------------------------------------

    def _send_control(self, side: str, circuit: Circuit, tag: tuple, size: int) -> None:
        self.result.control_bytes[side] += size
        circuit.send(tag, size)

    def _open_stream(self) -> None:
        if self.done:
            return
        self._send_control("initiator", self.r_circ, ("stream-open",), STREAM_OPEN_BYTES)

    def _client_message(self, tag: tuple, size: int) -> None:
        """Messages arriving at the listener (client) side."""
        if self.done or not isinstance(tag, tuple):
            return
        kind = tag[0]
        if kind == "id":
            self._remote_addrs = list(tag[1])
            self._peer_identified()
        elif kind == "stream-open":
            self.stream_open = True
            self._send_control("listener", self.c_circ, ("stream-ack",), STREAM_OPEN_BYTES)
        elif kind == "connect":
            gen = tag[1]
            self._remote_addrs = list(tag[2]) or self._remote_addrs
            if self.cfg.ttl_priming:
                self._start_priming("listener", gen, until=self.sim.now + 2_000.0)
            addrs = tuple(self.client.advertised(self.filter))
            rtt_nat = 2.0 * self.net.topology.leg(self.client.host.id)
            self._send_control("listener", self.c_circ,
                               ("connect-reply", gen, addrs, rtt_nat),
                               CONNECT_BYTES_BASE + CONNECT_BYTES_PER_ADDR * len(addrs))
        elif kind == "sync":
            self._act(tag[1], "listener")

    def _remote_message(self, tag: tuple, size: int) -> None:
        """Messages arriving at the initiator (remote) side."""
        if self.done or not isinstance(tag, tuple):
            return
        kind = tag[0]
        if kind == "id":
            self._client_addrs = list(tag[1])
            self._peer_identified()
        elif kind == "stream-ack":
            self._measure_then_punch()
        elif kind == "connect-reply":
            self._on_connect_reply(tag[1], tag[2], tag[3])

    def _measure_then_punch(self) -> None:
        if self.done:
            return
        if not self.cfg.measure_rtts:
            self._start_attempt(1)
            return

        def got_to_relay(rtt) -> None:
            if self.done:
                return
            self.result.rtt_to_relay = rtt
            self.client.relay.circuit_ping(self.c_circ, self.cfg.rtt_samples,
                                           got_relayed)

        def got_relayed(rtt) -> None:
            if self.done:
                return
            self.result.rtt_relayed = rtt
            self._start_attempt(1)

        measure_rtt(self.net, self.client.host, self.client.relay.port,
                    self.c_circ.relay_ep, samples=self.cfg.rtt_samples,
                    on_done=got_to_relay)

    # -- synchronized punch attempts ------------------------------------------------

    def _choose_transport(self) -> Optional[Transport]:
        remote_set = {tr for _, tr in self._remote_addrs}
        client_set = {tr for _, tr in self._client_addrs}
        for transport in (Transport.QUIC, Transport.TCP):
            if self.filter is not None and transport is not self.filter:
                continue
            if transport in remote_set and transport in client_set:
                return transport
        return None

    def _peer_endpoint(self, addrs, transport) -> Optional[Endpoint]:
        for ep, tr in addrs:
            if tr is transport:
                return ep
        return None

    def _start_attempt(self, index: int) -> None:
        if self.done:
            return
        self._attempt_gen = index
        self._attempt_started = self.sim.now
        self._attempt_rtt = None
        gen = index
        addrs = tuple(self.remote.advertised(self.filter))
        self._connect_sent_at = self.sim.now
        self._send_control("initiator", self.r_circ, ("connect", gen, addrs),
                           CONNECT_BYTES_BASE + CONNECT_BYTES_PER_ADDR * len(addrs))
        self.sim.schedule_in(lambda: self._connect_timeout(gen),
                             self.cfg.attempt_deadline_ms)

    def _connect_timeout(self, gen: int) -> None:
        if self.done or self._attempt_gen != gen or self._attempt_rtt is not None:
            return
        self._end_attempt(gen, OutcomeAttempt.TIMEOUT)

    def _on_connect_reply(self, gen: int, addrs, rtt_listener_nat: float) -> None:
        if self.done or gen != self._attempt_gen:
            return
        self._client_addrs = list(addrs) or self._client_addrs
        rtt = self.sim.now - self._connect_sent_at
        self._attempt_rtt = rtt
        if self.cfg.refined_wait:
            rtt_initiator_nat = 2.0 * self.net.topology.leg(self.remote.host.id)
            wait = refined_wait_time(rtt, rtt_listener_nat, rtt_initiator_nat)
        else:
            wait = rtt / 2.0
        wait = max(0.0, wait + self.cfg.sync_error_ms)
        self._send_control("initiator", self.r_circ, ("sync", gen), SYNC_BYTES)
        if self.cfg.ttl_priming:
            self._start_priming("initiator", gen, until=self.sim.now + wait)
        self.sim.schedule_in(lambda: self._act(gen, "initiator"), wait)
        deadline = wait + self.cfg.attempt_deadline_ms
        self.sim.schedule_in(lambda: self._attempt_deadline(gen), deadline)

    def _roles(self, index: int) -> tuple:
        base = ("listener", "initiator")  # (quic client, quic server)
        if self.cfg.alternate_roles:
            return assign_roles(index, base)
        return base

    def _side(self, side: str) -> tuple[PeerRuntime, list[tuple[Endpoint, Transport]]]:
        """One side's runtime and the addresses it holds for its peer."""
        if side == "listener":
            return self.client, self._remote_addrs
        return self.remote, self._client_addrs

    def _act(self, index: int, side: str) -> None:
        """Dial phase for one side, at its synchronization instant."""
        if self.done or index != self._attempt_gen:
            return
        transport = self._choose_transport()
        if transport is None:
            return
        runtime, peer_addrs = self._side(side)
        target = self._peer_endpoint(peer_addrs, transport)
        if target is None:
            return
        if transport is Transport.TCP:
            runtime.tcp.dial(target, self.cfg.attempt_deadline_ms)
            return
        quic_client, _ = self._roles(index)
        if side == quic_client:
            runtime.quic.dial(target, self.cfg.attempt_deadline_ms)
        else:
            runtime.quic.prime(target, count=self.cfg.dummy_count, ttl=64)

    def _attempt_deadline(self, gen: int) -> None:
        if self.done or self._attempt_gen != gen:
            return
        self._end_attempt(gen, OutcomeAttempt.FAILED)

    def _end_attempt(self, gen: int, outcome: OutcomeAttempt,
                     transport: Optional[Transport] = None) -> None:
        """Record attempt `gen`; `transport` is the one a successful
        attempt established."""
        rtt = (self._attempt_rtt, 0.0) if self._attempt_rtt is not None else None
        self.result.attempts.append(HolePunchAttempt(
            index=gen, outcome=outcome, rtt_relayed=rtt, transport_used=transport,
            started=self._attempt_started, ended=self.sim.now))
        if outcome is OutcomeAttempt.SUCCESS:
            self._after_success()
        elif gen >= self.cfg.max_attempts:
            self._finish(OutcomeResult.FAILED)
        else:
            self._start_attempt(gen + 1)

    # -- establishment detection -----------------------------------------------------

    def _hook_establishment(self) -> None:
        for runtime in (self.client, self.remote):
            for transport in (Transport.TCP, Transport.QUIC):
                port_obj = runtime.port_for(transport)
                if port_obj is not None:
                    port_obj.on_established = partial(
                        self._on_established, runtime, port_obj, transport)

    def _on_established(self, runtime: PeerRuntime, port_obj,
                        transport: Transport, remote_ep: Endpoint) -> None:
        if self.done:
            return
        if runtime is self.client:
            self._client_direct = (port_obj.local, remote_ep, transport)
            if self._awaiting_client_direct:
                self._awaiting_client_direct = False
                self._measure_direct()
                return
        if self._attempt_gen == 0:
            # Direct connection before any attempt: reversal landed.
            if runtime is self.client:
                self.reversed_established = True
            return
        if not self.result.direct_endpoints_used:
            self.result.direct_endpoints_used = [str(remote_ep)]
        gen = self._attempt_gen
        if self.result.attempts and self.result.attempts[-1].index == gen:
            return  # attempt already settled
        self._end_attempt(gen, OutcomeAttempt.SUCCESS, transport)

    def _after_success(self) -> None:
        if self.r_circ is not None:
            self.r_circ.on_closed = None
        if self.c_circ is not None:
            self.c_circ.on_closed = None
            self.c_circ.close()
        if not self.cfg.measure_rtts:
            self._finish(OutcomeResult.SUCCESS)
            return
        if self._client_direct is None:
            # One side established first; the other's handshake packet is
            # still in flight. Give it a grace window before giving up on
            # the direct-path measurement.
            self._awaiting_client_direct = True
            self.sim.schedule_in(self._direct_grace_expired, 2_000.0)
            return
        self._measure_direct()

    def _direct_grace_expired(self) -> None:
        if self.done or not self._awaiting_client_direct:
            return
        self._awaiting_client_direct = False
        self._finish(OutcomeResult.SUCCESS)

    def _measure_direct(self) -> None:
        local, remote_ep, _ = self._client_direct

        def got_direct(rtt) -> None:
            self.result.rtt_direct_after = rtt
            self._finish(OutcomeResult.SUCCESS)

        measure_rtt(self.net, self.client.host, local.port, remote_ep,
                    samples=self.cfg.rtt_samples, on_done=got_direct)

    # -- low-TTL priming ---------------------------------------------------------------

    def _start_priming(self, side: str, gen: int, until: float) -> None:
        runtime, peer_addrs = self._side(side)
        target = self._peer_endpoint(peer_addrs, Transport.QUIC)
        if target is None or runtime.quic is None:
            return
        owner = self.net.hosts.get(target.host.split("#", 1)[0])
        check_priming_ttl(self.net.topology, runtime.host.id,
                          owner.id if owner else target.host, self.cfg.priming_ttl)
        self._prime_loop(runtime.quic, target, gen, until=until)

    def _prime_loop(self, quic: QuicPort, target: Endpoint, gen: int,
                    until: float) -> None:
        if self.done or self._attempt_gen != gen or self.sim.now > until:
            return
        quic.prime(target, count=1, ttl=self.cfg.priming_ttl)
        self.sim.schedule_in(
            lambda: self._prime_loop(quic, target, gen, until),
            self.cfg.priming_interval_ms)
