from punchsim.kernel import Simulation, Topology
from punchsim.nat import NatConfig
from punchsim.net import Network
from punchsim.packets import Endpoint
from punchsim.relay import RelayClient, RelayService
from punchsim.transport import TcpPort, measure_rtt


def build_world(seed=1, relay_kwargs=None, n_relays=1):
    net = Network(Simulation(seed=seed), Topology())
    services = []
    for i in range(n_relays):
        net.add_host(f"relay-{i}", 5.0)
        services.append(RelayService(net, net.hosts[f"relay-{i}"],
                                     **(relay_kwargs or {})))
    net.add_host("alice", 10.0, nat_config=NatConfig(), nat_leg=1.0)
    net.add_host("bob", 20.0, nat_config=NatConfig(), nat_leg=2.0)
    alice = RelayClient(net, net.hosts["alice"])
    bob = RelayClient(net, net.hosts["bob"])
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
    dialer.connect_via(listener.peer_id, [s.endpoint for s in services],
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

    def test_relay_must_be_public(self):
        net = Network(Simulation(seed=1), Topology())
        net.add_host("natted", 10.0, nat_config=NatConfig())
        try:
            RelayService(net, net.hosts["natted"])
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
        assert b_circ.peer_id == "alice"

        got_a, got_b = [], []
        a_circ.on_message = lambda tag, size: got_a.append((tag, size))
        b_circ.on_message = lambda tag, size: got_b.append((tag, size))
        a_circ.send(("hello",), 100)
        b_circ.send(("world",), 50)
        net.sim.run(until=net.sim.now + 2_000)
        assert got_b == [(("hello",), 100)]
        assert got_a == [(("world",), 50)]

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
        net, services, alice, bob = build_world(
            relay_kwargs={"data_budget_bytes": 250})
        a_circ, incoming = open_circuit(net, alice, bob, services)
        got_b, closed_a = [], []
        incoming[0].on_message = lambda tag, size: got_b.append(size)
        a_circ.on_closed = closed_a.append
        a_circ.send(("chunk", 1), 200)
        a_circ.send(("chunk", 2), 200)  # exceeds the 250-byte budget
        net.sim.run(until=net.sim.now + 2_000)
        assert got_b == [200]
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

    def test_circuit_ping_tokens_name_the_circuit_not_the_object(self):
        worlds = []
        for _ in range(2):
            net, services, alice, bob = build_world()
            a_circ, _ = open_circuit(net, alice, bob, services)
            alice.circuit_ping(a_circ, samples=1, on_done=lambda rtt: None)
            worlds.append((a_circ, set(alice.host.replies)))
        (first, waiting), (second, waiting_again) = worlds
        assert first is not second
        # One pong awaited, on a token from the simulation's own counter.
        assert waiting == waiting_again and len(waiting) == 1


class TestObserve:
    def test_observe_via_reports_nat_external_endpoint(self):
        net, services, alice, bob = build_world()
        port_obj = TcpPort(net, net.hosts["alice"])
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
        measure_rtt(net, host, alice.port, services[0].endpoint, samples=3,
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

