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
from enum import Enum, IntEnum
from functools import partial
from typing import Callable, Optional

from .kernel import bounded, check_fields
from .net import HOP_DISTANCE, Host
from .packets import Endpoint
from .relay import Circuit, RelayClient
from .strategies import assign_roles, refined_wait_time
from .transport import (MAX_RTT_SAMPLES, QUIC, TCP, Port, QuicPort, TcpPort, Transport,
                        measure_rtt)

def _preferred(filter: Optional[Transport]) -> tuple[Transport, ...]:
    """The transports to try, in order: QUIC then TCP, or only `filter`."""
    return (QUIC, TCP) if filter is None else (filter,)


class OutcomeResult(Enum):
    NO_CONNECTION = "NO_CONNECTION"
    NO_STREAM = "NO_STREAM"
    CONNECTION_REVERSED = "CONNECTION_REVERSED"
    CANCELLED = "CANCELLED"
    FAILED = "FAILED"
    SUCCESS = "SUCCESS"


# The members as module names, as for PacketKind's (see packets.py): a
# trial compares against them at every step.
NO_CONNECTION, NO_STREAM, CONNECTION_REVERSED, CANCELLED, FAILED, SUCCESS = OutcomeResult


class OutcomeAttempt(Enum):
    PROTOCOL_ERROR = "PROTOCOL_ERROR"
    CANCELLED = "CANCELLED"
    TIMEOUT = "TIMEOUT"
    FAILED = "FAILED"
    SUCCESS = "SUCCESS"


(ATTEMPT_PROTOCOL_ERROR, ATTEMPT_CANCELLED, ATTEMPT_TIMEOUT, ATTEMPT_FAILED,
 ATTEMPT_SUCCESS) = OutcomeAttempt


@dataclass
class HolePunchAttempt:
    index: int
    outcome: OutcomeAttempt
    rtt_relayed: Optional[tuple[float, float]] = None
    transport_used: Optional[Transport] = None


@dataclass
class HolePunchResult:
    """The punch's findings; its peers and relays stay on the `HolePunch`."""
    attempts: list[HolePunchAttempt] = field(default_factory=list)
    outcome: Optional[OutcomeResult] = None  # set when the punch ends
    listen_endpoints: list[tuple[str, str]] = field(default_factory=list)
    rtt_to_relay: Optional[tuple[float, float]] = None
    rtt_relayed: Optional[tuple[float, float]] = None
    rtt_direct_after: Optional[tuple[float, float]] = None
    started: float = 0.0
    ended: float = 0.0


@dataclass
class DcutrConfig:
    stream_timeout_ms: float = bounded(15_000.0, 0.0)
    attempt_deadline_ms: float = bounded(15_000.0, 0.0)
    reversal_deadline_ms: float = bounded(5_000.0, 0.0)
    max_attempts: int = bounded(3, 1)
    rtt_samples: int = bounded(MAX_RTT_SAMPLES, 1, MAX_RTT_SAMPLES)
    refined_wait: bool = False
    alternate_roles: bool = False
    ttl_priming: bool = False
    # A priming packet goes to the peer, so it must die before its hop distance.
    priming_ttl: int = bounded(3, 1, HOP_DISTANCE - 1)
    # A shorter priming interval may not move the clock at all.
    priming_interval_ms: float = bounded(200.0, 1.0)
    dummy_count: int = bounded(3, 1)
    # Test hook: constant offset added to the computed wait time.
    sync_error_ms: float = 0.0
    # Campaign instrumentation pings (to-relay / via-relay / direct-after).
    measure_rtts: bool = True

    def __post_init__(self):
        check_fields(self)


class PeerRuntime:
    """A peer's live protocol state: relay client, one bound port per
    transport, and its address book."""

    def __init__(self, host: Host, port_mapping: bool = False, mapping_lies: bool = False):
        self.host = host
        self.relay = RelayClient(host)
        # TCP binds first; port numbers follow the binding order.
        self.ports: dict[Transport, Port] = {TCP: TcpPort(host), QUIC: QuicPort(host)}
        # Public endpoints of its own ports, as a relay observed them.
        self.observed: dict[Transport, Endpoint] = {}
        self.mapped_endpoints: dict[Transport, Endpoint] = {}
        if port_mapping and host.nat is not None:
            for transport, port_obj in self.ports.items():
                external = Endpoint(host.nat.public_host, port_obj.port)
                if not mapping_lies:
                    host.nat.install_static_mapping(port_obj.local, port_obj.port)
                self.mapped_endpoints[transport] = external

    def advertised(self, filter: Optional[Transport] = None) -> dict[Transport, Endpoint]:
        """Candidate public addresses, QUIC first: mapped endpoints take
        precedence over relay-observed ones for the same transport."""
        out: dict[Transport, Endpoint] = {}
        for transport in _preferred(filter):
            ep = self.mapped_endpoints.get(transport) or self.observed.get(transport)
            if ep is not None:
                out[transport] = ep
        return out

    def appears_public(self) -> bool:
        return self.host.nat is None or bool(self.mapped_endpoints)

    def close(self) -> None:
        """Forget the relay client's circuits, detaching their callbacks,
        and each port's connections; `Network.close` does the rest."""
        for circuit in self.relay.circuits.values():
            circuit.on_message = circuit.on_closed = None
        self.relay.circuits.clear()
        for port in self.ports.values():
            port.conns.clear()


class Phase(IntEnum):
    """Where a punch stands. Phases only move forward; each attempt
    re-enters ATTEMPT."""
    CIRCUIT = 1    # the listener dials the relayed connection
    IDENTIFY = 2   # both sides learn their public addresses
    REVERSAL = 3   # the initiator dials a publicly dialable listener
    STREAM = 4     # the initiator opened the punch stream, awaits its ack
    MEASURE = 5    # RTTs to and through the relay
    ATTEMPT = 6    # one CONNECT/SYNC exchange and its simultaneous dials
    DIRECT = 7     # punched; the direct-path RTT measurement
    DONE = 8


CIRCUIT, IDENTIFY, REVERSAL, STREAM, MEASURE, ATTEMPT, DIRECT, DONE = Phase


class HolePunch:
    """One hole-punch probe between a client (listener side) and a remote
    (initiator side), driven entirely by simulator events.

    Each timer is cancelled when the punch leaves the phases it covers,
    so a timer that fires is always current. A relay message may arrive
    late, so `connect-reply` and `sync` name their attempt."""

    def __init__(self, client: PeerRuntime, remote: PeerRuntime,
                 relay_addrs: list[Endpoint], cfg: Optional[DcutrConfig] = None,
                 transport_filter: Optional[Transport] = None):
        if remote.host.net is not client.host.net:
            raise ValueError(f"{client.host.id} and {remote.host.id} are on different networks")
        self.sim = client.host.net.sim
        self.cfg = cfg or DcutrConfig()
        self.client = client
        self.remote = remote
        self.relay_addrs = relay_addrs
        self.filter = transport_filter
        self.result = HolePunchResult(started=self.sim.now)
        self.phase = CIRCUIT
        # timer name -> (last phase it covers, kernel handle)
        self._timers: dict[str, tuple[Phase, list]] = {}
        self.c_circ: Optional[Circuit] = None
        self.r_circ: Optional[Circuit] = None
        self._identified = 0
        self._attempt = 0
        self._attempt_started = 0.0
        self._attempt_rtt: Optional[float] = None
        # What each side learned of the other's addresses.
        self._remote_addrs: dict[Transport, Endpoint] = {}
        self._client_addrs: dict[Transport, Endpoint] = {}
        # The listener's direct connection (local, remote), once its port reports one.
        self._client_direct: Optional[tuple[Endpoint, Endpoint]] = None

    @property
    def done(self) -> bool:
        return self.phase is DONE

    # -- phases and their timers ---------------------------------------------

    def _arm(self, name: str, fn: Callable[[], None], delay: float,
             last: Optional[Phase] = None) -> None:
        """(Re)arm timer `name` to cover the phases from now to `last`."""
        self._disarm(name)
        self._timers[name] = (last or self.phase, self.sim.schedule(fn, self.sim.now + delay))

    def _disarm(self, name: str) -> None:
        timer = self._timers.pop(name, None)
        if timer is not None:
            self.sim.cancel(timer[1])

    def _enter(self, phase: Phase) -> None:
        """Move to `phase`. A timer survives only a forward move that stays
        within its last phase, so a new attempt cancels the old one's."""
        for name, (last, _) in list(self._timers.items()):
            if not self.phase < phase <= last:
                self._disarm(name)
        self.phase = phase

    # -- lifecycle -----------------------------------------------------------

    def start(self) -> None:
        self.remote.relay.on_incoming_circuit = self._on_remote_circuit
        self.client.relay.connect_via(self.remote.host.id, self.relay_addrs,
                                      on_done=self._on_client_circuit)

    def _finish(self, outcome: OutcomeResult) -> None:
        self._enter(DONE)
        self.result.outcome = outcome
        self.result.ended = self.sim.now
        self.result.listen_endpoints = [
            (str(ep), tr.value) for tr, ep in self.client.advertised().items()]
        self._release_circuits()
        self.remote.relay.on_incoming_circuit = None
        for runtime in (self.client, self.remote):
            for port in runtime.ports.values():
                port.on_established = None

    def cancel(self) -> None:
        """Explicit abort, e.g. at the campaign's time bound."""
        if not self.done:
            self._abort(ATTEMPT_CANCELLED, CANCELLED, CANCELLED)

    def _abort(self, attempt_outcome: OutcomeAttempt, in_attempt: OutcomeResult,
               otherwise: OutcomeResult) -> None:
        """End the punch now. An attempt in flight is recorded as
        `attempt_outcome`, without its relayed RTT, and the punch ends
        `in_attempt`; outside ATTEMPT it ends `otherwise`."""
        if self.phase is not ATTEMPT:
            self._finish(otherwise)
            return
        self.result.attempts.append(HolePunchAttempt(self._attempt, attempt_outcome))
        self._finish(in_attempt)

    # -- circuit establishment -------------------------------------------------

    def _on_client_circuit(self, circuit: Optional[Circuit]) -> None:
        if self.phase is not CIRCUIT:
            # The punch ended first; free the relay's slot.
            if circuit is not None:
                circuit.close()
            return
        if circuit is None:
            self._finish(NO_CONNECTION)
            return
        self._enter(IDENTIFY)
        self.c_circ = circuit
        circuit.on_message = self._client_message
        circuit.on_closed = self._on_circuit_closed
        self._arm("stream", self._stream_deadline, self.cfg.stream_timeout_ms, last=STREAM)
        self._observe_and_identify(self.client, circuit)

    def _on_remote_circuit(self, circuit: Circuit) -> None:
        """The client may race the dial across several relays, so the
        remote can see one incoming circuit per relay. Adopt whichever one
        the client's first message actually arrives on; the client closes
        the losers itself."""
        circuit.on_message = lambda tag: self._remote_adopt(circuit, tag)

    def _remote_adopt(self, circuit: Circuit, tag: tuple) -> None:
        if self.done:
            return
        if self.r_circ is None:
            self.r_circ = circuit
            circuit.on_message = self._remote_message
            circuit.on_closed = self._on_circuit_closed
            self._observe_and_identify(self.remote, circuit)
        if circuit is self.r_circ:
            self._remote_message(tag)

    def _on_circuit_closed(self, reason: str) -> None:
        self._abort(ATTEMPT_PROTOCOL_ERROR, FAILED, NO_STREAM)

    def _stream_deadline(self) -> None:
        """No stream-ack reached the initiator in time. A reversal dial
        that landed at the listener still counts as reversed."""
        if self._client_direct is not None:
            self._finish(CONNECTION_REVERSED)
        else:
            self._finish(NO_STREAM)

    # -- identify --------------------------------------------------------------

    def _observe_and_identify(self, runtime: PeerRuntime, circuit: Circuit) -> None:
        pending = {"n": len(runtime.ports)}
        for transport, port in runtime.ports.items():
            def on_obs(observed: Optional[Endpoint], transport=transport,
                       local=port.local) -> None:
                if runtime.host.nat is None:
                    observed = local  # its own address
                if observed is not None:
                    runtime.observed[transport] = observed
                pending["n"] -= 1
                if pending["n"] == 0:
                    circuit.send(("id", runtime.advertised()))

            runtime.relay.observe_via(circuit.relay_ep, port.port, on_obs)

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
        candidates = [tr for tr in _preferred(self.filter) if tr in self._client_addrs]
        if not (self.client.appears_public() and candidates):
            self._open_stream()
            return
        transport = candidates[0]
        target = self._client_addrs[transport]

        def on_dial(res) -> None:
            if self.phase is not REVERSAL:
                return
            if res.established:
                self._finish(CONNECTION_REVERSED)
            else:
                self._open_stream()

        self._enter(REVERSAL)
        self.remote.ports[transport].dial(target, self.cfg.reversal_deadline_ms, on_dial)

    # -- stream open and measurements ---------------------------------------------

    def _open_stream(self) -> None:
        self._enter(STREAM)
        self.r_circ.send(("stream-open",))

    def _client_message(self, tag: tuple) -> None:
        """Messages arriving at the listener (client) side; none arrives
        after DONE, since finishing closes `c_circ`."""
        kind = tag[0]
        if kind == "id":
            self._remote_addrs = tag[1]
            self._peer_identified()
        elif kind == "stream-open":
            self.c_circ.send(("stream-ack",))
        elif kind == "connect":
            gen = tag[1]
            self._remote_addrs = tag[2] or self._remote_addrs
            if self.cfg.ttl_priming and self._is_current(gen):
                self._prime("listener", until=self.sim.now + 2_000.0)
            addrs = self.client.advertised(self.filter)
            self.c_circ.send(("connect-reply", gen, addrs, 2.0 * self.client.host.leg))
        elif kind == "sync" and self._is_current(tag[1]):
            self._act("listener")

    def _remote_message(self, tag: tuple) -> None:
        """Messages arriving at the initiator (remote) side. `r_circ` stays
        open past DONE until the relay resets it, so late ones arrive."""
        if self.done:
            return
        kind = tag[0]
        if kind == "id":
            self._client_addrs = tag[1]
            self._peer_identified()
        elif kind == "stream-ack":
            self._measure_then_punch()
        elif kind == "connect-reply" and self._is_current(tag[1]):
            self._on_connect_reply(tag[2], tag[3])

    def _measure_then_punch(self) -> None:
        self._enter(MEASURE)
        if not self.cfg.measure_rtts:
            self._start_attempt(1)
            return

        def got_to_relay(rtt) -> None:
            if self.phase is MEASURE:
                self.result.rtt_to_relay = rtt
                self.client.relay.circuit_ping(self.c_circ, self.cfg.rtt_samples,
                                               got_relayed)

        def got_relayed(rtt) -> None:
            if self.phase is MEASURE:
                self.result.rtt_relayed = rtt
                self._start_attempt(1)

        measure_rtt(self.client.host, self.client.relay.port, self.c_circ.relay_ep,
                    samples=self.cfg.rtt_samples, on_done=got_to_relay)

    # -- synchronized punch attempts ------------------------------------------------

    def _choose_transport(self) -> Optional[Transport]:
        for transport in _preferred(self.filter):
            if transport in self._remote_addrs and transport in self._client_addrs:
                return transport
        return None

    def _is_current(self, index: int) -> bool:
        """Whether a message about attempt `index` is for the attempt in
        flight; one sent for an earlier attempt may arrive late."""
        return self.phase is ATTEMPT and index == self._attempt

    def _start_attempt(self, index: int) -> None:
        self._enter(ATTEMPT)
        self._attempt = index
        self._attempt_started = self.sim.now
        self._attempt_rtt = None
        self.r_circ.send(("connect", index, self.remote.advertised(self.filter)))
        self._arm("attempt", self._attempt_expired, self.cfg.attempt_deadline_ms)

    def _on_connect_reply(self, addrs, rtt_listener_nat: float) -> None:
        self._client_addrs = addrs or self._client_addrs
        rtt = self.sim.now - self._attempt_started
        self._attempt_rtt = rtt
        if self.cfg.refined_wait:
            rtt_initiator_nat = 2.0 * self.remote.host.leg
            wait = refined_wait_time(rtt, rtt_listener_nat, rtt_initiator_nat)
        else:
            wait = rtt / 2.0
        wait = max(0.0, wait + self.cfg.sync_error_ms)
        self.r_circ.send(("sync", self._attempt))
        if self.cfg.ttl_priming:
            self._prime("initiator", until=self.sim.now + wait)
        # The initiator dials at its instant even if the listener's dial
        # already won the attempt.
        self._arm("act", lambda: self._act("initiator"), wait, last=DIRECT)
        self._arm("attempt", self._attempt_expired, wait + self.cfg.attempt_deadline_ms)

    def _attempt_expired(self) -> None:
        """The attempt timer: TIMEOUT while no connect-reply came back,
        FAILED once the dials had their time."""
        self._end_attempt(ATTEMPT_TIMEOUT if self._attempt_rtt is None else ATTEMPT_FAILED)

    def _side(self, side: str) -> tuple[PeerRuntime, dict[Transport, Endpoint]]:
        """One side's runtime and the addresses it holds for its peer."""
        if side == "listener":
            return self.client, self._remote_addrs
        return self.remote, self._client_addrs

    def _act(self, side: str) -> None:
        """Dial phase for one side, at its synchronization instant."""
        transport = self._choose_transport()
        if transport is None:
            return
        runtime, peer_addrs = self._side(side)
        target = peer_addrs[transport]  # both books hold `transport`
        port = runtime.ports[transport]
        roles = ("listener", "initiator")  # (QUIC client, QUIC server)
        if self.cfg.alternate_roles:
            roles = assign_roles(self._attempt, roles)
        if transport is TCP or side == roles[0]:
            port.dial(target, self.cfg.attempt_deadline_ms)
        else:  # the QUIC server primes its NAT
            port.prime(target, count=self.cfg.dummy_count)

    def _end_attempt(self, outcome: OutcomeAttempt,
                     transport: Optional[Transport] = None) -> None:
        """Record the attempt in flight; `transport` is the one a
        successful attempt established."""
        rtt = (self._attempt_rtt, 0.0) if self._attempt_rtt is not None else None
        self.result.attempts.append(
            HolePunchAttempt(self._attempt, outcome, rtt, transport))
        if outcome is ATTEMPT_SUCCESS:
            self._after_success()
        elif self._attempt >= self.cfg.max_attempts:
            self._finish(FAILED)
        else:
            self._start_attempt(self._attempt + 1)

    # -- establishment detection -----------------------------------------------------

    def _hook_establishment(self) -> None:
        for runtime in (self.client, self.remote):
            for transport, port_obj in runtime.ports.items():
                port_obj.on_established = partial(
                    self._on_established, runtime, port_obj, transport)

    def _on_established(self, runtime: PeerRuntime, port_obj,
                        transport: Transport, remote_ep: Endpoint) -> None:
        if runtime is self.client:
            if self.phase is DIRECT:
                if self._client_direct is None:  # in the grace window
                    self._client_direct = (port_obj.local, remote_ep)
                    self._disarm("grace")
                    self._measure_direct()
                return
            self._client_direct = (port_obj.local, remote_ep)
        # Before the attempts this is a reversal dial landing, which the
        # stream deadline reads; after a success the attempt is settled.
        if self.phase is not ATTEMPT:
            return
        self._end_attempt(ATTEMPT_SUCCESS, transport)

    def _after_success(self) -> None:
        self._enter(DIRECT)
        self._release_circuits()
        if not self.cfg.measure_rtts:
            self._finish(SUCCESS)
        elif self._client_direct is None:
            # One side established first; the other's handshake packet is
            # still in flight. Give it a grace window before giving up on
            # the direct-path measurement.
            self._arm("grace", lambda: self._finish(SUCCESS), 2_000.0)
        else:
            self._measure_direct()

    def _release_circuits(self) -> None:
        """Stop watching both circuits and close the listener's, which
        frees its relay slot; the relay resets the initiator's."""
        if self.r_circ is not None:
            self.r_circ.on_closed = None
        if self.c_circ is not None:
            self.c_circ.on_closed = None
            self.c_circ.close()

    def _measure_direct(self) -> None:
        local, remote_ep = self._client_direct

        def got_direct(rtt) -> None:
            if self.phase is DIRECT:
                self.result.rtt_direct_after = rtt
                self._finish(SUCCESS)

        measure_rtt(self.client.host, local.port, remote_ep,
                    samples=self.cfg.rtt_samples, on_done=got_direct)

    # -- low-TTL priming ---------------------------------------------------------------

    def _prime(self, side: str, until: float) -> None:
        """One low-TTL dummy toward the peer's QUIC address, repeated every
        `priming_interval_ms` until `until`."""
        runtime, peer_addrs = self._side(side)
        target = peer_addrs.get(QUIC)
        if target is None or self.sim.now > until:
            return
        runtime.ports[QUIC].prime(target, count=1, ttl=self.cfg.priming_ttl)
        self._arm("prime-" + side, lambda: self._prime(side, until),
                  self.cfg.priming_interval_ms, last=DIRECT)
