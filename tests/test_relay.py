import pytest
from hypothesis import settings
from hypothesis import strategies as st
from hypothesis.stateful import (RuleBasedStateMachine, initialize, invariant,
                                 precondition, rule)

from punchsim.dcutr import HolePunch, OutcomeAttempt, OutcomeResult, PeerRuntime
from punchsim.kernel import Simulation
from punchsim.nat import ARCHETYPE_NATS, NatConfig
from punchsim.net import Network
from punchsim.packets import Endpoint, Packet, PacketKind, message_bytes
from punchsim.relay import (CONNECT_TIMEOUT_MS, DEFAULT_DATA_BUDGET_BYTES,
                            DEFAULT_RESERVATION_MS, RelayClient, RelayService)
from punchsim.transport import TcpPort, Transport, measure_rtt


def build_world(seed=1, relay_kwargs=None, n_relays=1):
    net = Network(Simulation(seed=seed))
    services = []
    for i in range(n_relays):
        net.add_host(f"relay-{i}", 5.0)
        services.append(RelayService(net.hosts[f"relay-{i}"],
                                     **(relay_kwargs or {})))
    net.add_host("alice", 10.0, nat_config=NatConfig(), nat_leg=1.0)
    net.add_host("bob", 20.0, nat_config=NatConfig(), nat_leg=2.0)
    alice = RelayClient(net.hosts["alice"])
    bob = RelayClient(net.hosts["bob"])
    return net, services, alice, bob


def reserve(net, client, service):
    out = []
    client.reserve(service.endpoint, out.append)
    net.sim.run(until=net.sim.now + 6_000)
    return out


def open_circuit(net, dialer, listener, services):
    reserve(net, listener, services[0])
    circuits = []
    listener.on_incoming_circuit = circuits.append
    out = []
    dialer.connect_via(listener.host.id, [s.endpoint for s in services],
                       on_done=out.append)
    net.sim.run(until=net.sim.now + 6_000)
    return out[0], circuits


def test_open_circuit_leaves_nothing_queued():
    """`connect_via` cancels its overall timeout when a circuit opens."""
    net, services, alice, bob = build_world()
    circuit, _ = open_circuit(net, alice, bob, services)
    assert circuit is not None and circuit.open
    assert net.sim.pending() == 0


class TestReservation:
    def test_reserve_succeeds_and_records_expiry(self):
        net, services, alice, bob = build_world()
        out = reserve(net, bob, services[0])
        assert out == [True]
        assert bob.reservations["relay-0"] > net.sim.now

    def test_capacity_refuses_additional_reservations(self):
        net, services, alice, bob = build_world(relay_kwargs={"capacity": 1})
        assert reserve(net, bob, services[0]) == [True]
        assert reserve(net, alice, services[0]) == [False]

    def test_rereserving_same_peer_is_not_refused_at_capacity(self):
        net, services, alice, bob = build_world(relay_kwargs={"capacity": 1})
        assert reserve(net, bob, services[0]) == [True]
        assert reserve(net, bob, services[0]) == [True]

    def test_expired_reservation_is_not_refreshed_at_capacity(self):
        # bob took alice's slot after hers expired; her refresh is a new
        # reservation, and the relay is full.
        net, services, alice, bob = build_world(relay_kwargs={"capacity": 1})
        assert reserve(net, alice, services[0]) == [True]
        net.sim.run(until=net.sim.now + DEFAULT_RESERVATION_MS)
        assert reserve(net, bob, services[0]) == [True]
        assert reserve(net, alice, services[0]) == [False]
        assert services[0]._live_reservations() == 1

    def test_relay_must_be_public(self):
        net = Network(Simulation(seed=1))
        net.add_host("natted", 10.0, nat_config=NatConfig())
        try:
            RelayService(net.hosts["natted"])
            assert False, "expected ValueError"
        except ValueError:
            pass


class TestCircuits:
    def test_connect_via_without_reservation_is_refused(self):
        net, services, alice, bob = build_world()
        out = []
        alice.connect_via("bob", [services[0].endpoint], on_done=out.append)
        net.sim.run(until=net.sim.now + 12_000)
        assert out == [None]

    def test_connect_via_opens_circuit_and_forwards_messages(self):
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        assert a_circ is not None and a_circ.open
        assert len(incoming) == 1
        b_circ = incoming[0]

        got_a, got_b = [], []
        a_circ.on_message = got_a.append
        b_circ.on_message = got_b.append
        used = services[0]._circuits[a_circ.cid]["used"]
        a_circ.send(("stream-open",))
        b_circ.send(("sync", 1))
        net.sim.run(until=net.sim.now + 2_000)
        assert got_b == [("stream-open",)]
        assert got_a == [("sync", 1)]
        # The relay charges each side its payloads' table sizes, not the frames'.
        assert sorted(used.values()) == [16, 32]

    def test_a_payload_that_is_not_a_tuple_reaches_the_application(self):
        """`Host.serve` answers pings and replies, which are tuples; any
        other payload is the application's, as on a bound port."""
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        got = []
        incoming[0].on_message = got.append
        a_circ.send("dummy")
        net.sim.run(until=net.sim.now + 2_000)
        assert got == ["dummy"]

    def test_a_payload_with_no_message_kind_raises_at_its_sender(self):
        net, services, alice, bob = build_world()
        a_circ, _ = open_circuit(net, alice, bob, services)
        queued = net.sim.pending()
        for payload in ("raw", ("hello",)):
            with pytest.raises(KeyError):
                a_circ.send(payload)
        assert net.sim.pending() == queued  # nothing was sent

    def test_circuit_close_resets_other_side(self):
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        closed = []
        incoming[0].on_closed = closed.append
        a_circ.close()
        net.sim.run(until=net.sim.now + 2_000)
        assert closed == ["closed"]
        assert not incoming[0].open

    def test_data_budget_terminates_circuit(self):
        # A CONNECT with an empty address book is 96 bytes, its frame 104:
        # the budget charges the payload, so the first one fits exactly.
        net, services, alice, bob = build_world(
            relay_kwargs={"data_budget_bytes": 96})
        a_circ, incoming = open_circuit(net, alice, bob, services)
        got_b, closed_a = [], []
        incoming[0].on_message = got_b.append
        a_circ.on_closed = closed_a.append
        a_circ.send(("connect", 1, {}))
        a_circ.send(("connect", 2, {}))  # exceeds the 96-byte budget
        net.sim.run(until=net.sim.now + 2_000)
        assert got_b == [("connect", 1, {})]
        assert closed_a == ["budget-exhausted"]

    def test_relayed_conn_limit(self):
        net, services, alice, bob = build_world(
            relay_kwargs={"relayed_conn_limit": 1})
        first, _ = open_circuit(net, alice, bob, services)
        assert first is not None
        out = []
        alice.connect_via("bob", [services[0].endpoint], on_done=out.append)
        net.sim.run(until=net.sim.now + 12_000)
        assert out == [None]

    def test_relayed_conn_limit_holds_across_a_refresh(self):
        net, services, alice, bob = build_world(
            relay_kwargs={"relayed_conn_limit": 1})
        first, _ = open_circuit(net, alice, bob, services)
        assert first is not None
        rsv = services[0].reservations["bob"]
        assert reserve(net, bob, services[0]) == [True]
        out = []
        alice.connect_via("bob", [services[0].endpoint], on_done=out.append)
        net.sim.run(until=net.sim.now + 12_000)
        assert out == [None]
        assert len(services[0]._circuits) == 1
        assert services[0].reservations["bob"] is rsv

    def test_multi_relay_race_keeps_one_circuit(self):
        net, services, alice, bob = build_world(n_relays=2)
        for svc in services:
            reserve(net, bob, svc)
        incoming = []
        bob.on_incoming_circuit = incoming.append
        out = []
        alice.connect_via("bob", [s.endpoint for s in services],
                          on_done=out.append)
        net.sim.run(until=net.sim.now + 6_000)
        assert out[0] is not None
        # The loser was closed by the dialer; only the winner stays open
        # on alice's side.
        assert sum(c.open for c in alice.circuits.values()) == 1

    def test_circuit_ping_matches_relayed_path_rtt(self):
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        out = []
        alice.circuit_ping(a_circ, samples=5, on_done=out.append)
        net.sim.run(until=net.sim.now + 10_000)
        mean, std = out[0]
        # alice<->relay 15 each way, relay<->bob 25 each way: 80 ms total.
        assert mean == 80.0
        assert std == 0.0

    def test_ping_over_a_closed_circuit_waits_for_nothing(self):
        net, services, alice, bob = build_world()
        a_circ, _ = open_circuit(net, alice, bob, services)
        a_circ.close()
        pending = net.sim.pending()
        out = []
        alice.circuit_ping(a_circ, samples=3, on_done=out.append)
        # The first send fails, so no reply is filed and no timeout armed.
        assert out == [None]
        assert alice.host.replies == {}
        assert net.sim.pending() == pending

    def test_circuit_ping_tokens_name_the_circuit_not_the_object(self):
        worlds = []
        for _ in range(2):
            net, services, alice, bob = build_world()
            a_circ, _ = open_circuit(net, alice, bob, services)
            alice.circuit_ping(a_circ, samples=1, on_done=lambda rtt: None)
            worlds.append((a_circ, set(alice.host.replies)))
        (first, waiting), (second, waiting_again) = worlds
        assert first is not second
        # One ping's reply awaited, on a token from the simulation's own counter.
        assert waiting == waiting_again and len(waiting) == 1


class TestStrayTraffic:
    def test_datagrams_without_a_tuple_tag_are_ignored(self):
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        relay_ep = services[0].endpoint
        bob_ep = services[0].reservations["bob"].client_endpoint
        for tag in (None, "dummy"):
            net.send(alice.host, Packet(src=alice.endpoint, dst=relay_ep,
                                        kind=PacketKind.UDP_DATAGRAM, tag=tag))
            net.send(services[0].host, Packet(src=relay_ep, dst=bob_ep,
                                              kind=PacketKind.UDP_DATAGRAM, tag=tag))
        net.sim.run(until=net.sim.now + 1_000)
        got = []
        incoming[0].on_message = got.append
        a_circ.send(("sync", 1))
        net.sim.run(until=net.sim.now + 1_000)
        assert got == [("sync", 1)] and a_circ.open and incoming[0].open

    def test_payload_from_a_rebound_endpoint_is_dropped(self):
        # Alice idles past her NAT's mapping TTL, so her next payload
        # leaves from a new external port that is not a side of the circuit.
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        got = []
        incoming[0].on_message = got.append
        net.sim.run(until=net.sim.now + NatConfig().mapping_ttl + 1_000)
        a_circ.send(("sync", 1))
        net.sim.run(until=net.sim.now + 1_000)
        assert got == []
        circuit = services[0]._circuits[a_circ.cid]
        assert set(circuit["used"].values()) == {0}

    def test_crossing_closes_free_the_slot_once(self):
        # Both sides close at once; bob's late payload and close reach the
        # relay after alice's close removed the circuit.
        net, services, alice, bob = build_world()
        a_circ, incoming = open_circuit(net, alice, bob, services)
        b_circ = incoming[0]
        a_circ.close()
        b_circ.send(("sync", 1))
        b_circ.close()
        net.sim.run(until=net.sim.now + 1_000)
        assert services[0]._circuits == {}
        assert services[0].reservations["bob"].active_conns == 0


class TestObserve:
    def test_observe_via_reports_nat_external_endpoint(self):
        net, services, alice, bob = build_world()
        port_obj = TcpPort(net.hosts["alice"])
        out = []
        alice.observe_via(services[0].endpoint, port_obj.port, out.append)
        net.sim.run(until=net.sim.now + 6_000)
        observed = out[0]
        assert observed is not None
        assert observed.host == "alice#nat"
        # EIM: the same mapping carries traffic to any destination.
        assert alice.host.nat._by_port[observed.port].internal == port_obj.local

    def test_observe_via_restores_handler_and_keeps_port_usable(self):
        net, services, alice, bob = build_world()
        handler = net.hosts["alice"].handlers[alice.port]
        out = []
        alice.observe_via(services[0].endpoint, alice.port, out.append)
        net.sim.run(until=net.sim.now + 6_000)
        assert out[0] is not None
        assert net.hosts["alice"].handlers[alice.port] is handler

    def test_observe_and_rtt_probe_share_a_port(self):
        # Replies are matched by token, so two exchanges in flight on one
        # port both complete, and the port keeps the handler bound to it.
        net, services, alice, bob = build_world()
        host = net.hosts["alice"]
        handler = host.handlers[alice.port]
        observed, rtts = [], []
        alice.observe_via(services[0].endpoint, alice.port, observed.append)
        measure_rtt(host, alice.port, services[0].endpoint, samples=3,
                    on_done=rtts.append)
        net.sim.run(until=net.sim.now + 10_000)
        assert observed[0].host == "alice#nat"
        # alice<->relay is 15 ms each way.
        assert rtts == [(30.0, 0.0)]
        assert host.handlers[alice.port] is handler

    def test_observe_via_timeout_reports_none(self):
        net, services, alice, bob = build_world()
        out = []
        alice.observe_via(Endpoint("relay-0", 999), alice.port, out.append,
                          timeout_ms=1_000)
        net.sim.run(until=net.sim.now + 6_000)
        assert out == [None]



# -- reservations, circuits, budgets and punches in one world ------------------

PAIRS = [(a, b) for a in range(3) for b in range(3) if a != b]
RELAY_SETS = [(0,), (1,), (0, 1)]


class RelayWorld(RuleBasedStateMachine):
    """Two relays, each holding at most two reservations and two circuits
    per reservation, and three NAT'd peers. Rules reserve, let every
    reservation expire, dial through one or both relays, send until the
    data budget resets a circuit, close either side of one, and run whole
    hole punches in the same world. Two peers start with a reservation on
    each relay."""

    @initialize(budget=st.sampled_from([300, 500, 800, DEFAULT_DATA_BUDGET_BYTES]),
                nats=st.lists(st.sampled_from(list(ARCHETYPE_NATS.values())),
                              min_size=3, max_size=3),
                seed=st.integers(0, 1_000))
    def build(self, budget, nats, seed):
        self.budget = budget
        self.net = Network(Simulation(seed=seed))
        self.services = []
        for i in range(2):
            host = self.net.add_host(f"relay-{i}", 5.0 * (i + 1))
            self.services.append(RelayService(host, capacity=2,
                                              data_budget_bytes=budget,
                                              relayed_conn_limit=2))
        self.peers = []
        for i, nat in enumerate(nats):
            host = self.net.add_host(f"peer-{i}", 10.0 * (i + 1),
                                     nat_config=NatConfig(**nat), nat_leg=1.0)
            peer = PeerRuntime(host)
            peer.relay.on_incoming_circuit = self._track
            self.peers.append(peer)
        self.dials = []     # per connect_via, what it settled with
        self.resets = {}    # circuit -> the reasons it was closed with
        self.received = {}  # circuit -> payload bytes it delivered
        for peer in self.peers[:2]:  # the third is refused until they expire
            for svc in self.services:
                peer.relay.reserve(svc.endpoint, lambda ok: None)
        self._run(6_000)

    def _track(self, circuit):
        self.resets[circuit] = []
        self.received[circuit] = 0
        circuit.on_closed = self.resets[circuit].append

        def got(tag):
            self.received[circuit] += message_bytes(tag)
        circuit.on_message = got

    def _run(self, ms):
        self.net.sim.run(until=self.net.sim.now + ms)

    @rule(peer=st.integers(0, 2), relay=st.integers(0, 1))
    def reserve(self, peer, relay):
        svc, client = self.services[relay], self.peers[peer].relay
        rsv = svc.reservations.get(client.host.id)
        admitted = (svc._live_reservations() < svc.capacity
                    or (rsv is not None and rsv.expires > self.net.sim.now))
        out = []
        client.reserve(svc.endpoint, out.append)
        self._run(6_000)
        assert out == [admitted]

    @rule()
    def expire(self):
        self._run(DEFAULT_RESERVATION_MS + 1.0)
        assert all(svc._live_reservations() == 0 for svc in self.services)

    @rule(pair=st.sampled_from(PAIRS), relays=st.sampled_from(RELAY_SETS))
    def connect(self, pair, relays):
        dialer, listener = (self.peers[i] for i in pair)
        results = []
        self.dials.append(results)

        def settled(circuit):
            results.append(circuit)
            if circuit is not None:
                self._track(circuit)
        dialer.relay.connect_via(listener.host.id,
                                 [self.services[i].endpoint for i in relays], settled)
        self._run(CONNECT_TIMEOUT_MS + 1_000)

    @precondition(lambda self: any(c.open for c in self.resets))
    @rule(data=st.data())
    def exhaust(self, data):
        circuit = data.draw(st.sampled_from([c for c in self.resets if c.open]))
        for i in range(50):  # 4 800 bytes pass every budget here
            if not circuit.send(("connect", i, {})):
                break
            self._run(200)

    @precondition(lambda self: any(c.open for c in self.resets))
    @rule(data=st.data())
    def close(self, data):
        data.draw(st.sampled_from([c for c in self.resets if c.open])).close()
        self._run(1_000)

    @rule(pair=st.sampled_from(PAIRS), relays=st.sampled_from(RELAY_SETS),
          tf=st.sampled_from([None, *Transport]))
    def punch(self, pair, relays, tf):
        client, remote = (self.peers[i] for i in pair)
        hp = HolePunch(client, remote,
                       [self.services[i].endpoint for i in relays], transport_filter=tf)
        hp.start()
        queue, horizon = self.net.sim._queue, self.net.sim.now + 300_000
        while not hp.done and queue and queue[0][0] <= horizon:
            self.net.sim.run(until=queue[0][0])
        # The invariants of test_punch_ends_once_with_consistent_attempts.
        assert hp.done and not [e for e in queue if e[2] is not None
                                and getattr(e[2], "__module__", "") == "punchsim.dcutr"]
        res, ended = hp.result, hp.result.ended
        remote.relay.on_incoming_circuit = self._track
        self._run(1_000)
        assert res.ended == ended
        assert [a.index for a in res.attempts] == list(range(1, len(res.attempts) + 1))
        assert len(res.attempts) <= hp.cfg.max_attempts
        assert res.outcome is not OutcomeResult.CANCELLED
        if res.outcome is OutcomeResult.SUCCESS:
            assert res.attempts[-1].outcome is OutcomeAttempt.SUCCESS

    @invariant()
    def active_conns_count_open_circuits(self):
        for svc in self.services:
            held = [c["rsv"] for c in svc._circuits.values()]
            for rsv in [*svc.reservations.values(), *held]:
                assert rsv.active_conns == sum(r is rsv for r in held)

    @invariant()
    def live_reservations_within_capacity(self):
        assert all(svc._live_reservations() <= svc.capacity for svc in self.services)

    @invariant()
    def each_dial_settles_once(self):
        assert all(len(results) == 1 for results in self.dials)

    @invariant()
    def reset_circuits_stay_closed(self):
        for circuit, reasons in self.resets.items():
            assert len(reasons) <= 1
            assert not (reasons and circuit.open)
            assert self.received[circuit] <= self.budget


TestRelayWorld = RelayWorld.TestCase
TestRelayWorld.settings = settings(max_examples=60, stateful_step_count=15,
                                   deadline=None)
