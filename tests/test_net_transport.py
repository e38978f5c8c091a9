from punchsim.kernel import Simulation, Topology
from punchsim.nat import FilteringBehavior, MappingBehavior, NatConfig
from punchsim.net import Network
from punchsim.packets import Endpoint, Packet, PacketKind
from punchsim.transport import QuicPort, RttProbe, TcpPort, measure_rtt


def build_net(seed=1, loss=0.0):
    topo = Topology(loss_rate=loss)
    return Network(Simulation(seed=seed), topo)


def udp(src, dst, **kw):
    return Packet(src=src, dst=dst, kind=PacketKind.UDP_DATAGRAM, **kw)


class Sink:
    def __init__(self):
        self.received = []

    def __call__(self, pkt):
        self.received.append(pkt)


def learn_external(net, host, port, stun_host, stun_port):
    """Send one datagram to a public observer and return the source
    endpoint it saw (the sender's external endpoint)."""
    seen = []
    net.hosts[stun_host].handlers[stun_port] = lambda pkt: seen.append(pkt.src)
    net.hosts[host].send(udp(Endpoint(host, port), Endpoint(stun_host, stun_port)))
    net.sim.run()
    return seen[-1]


class TestDelivery:
    def test_plain_delivery_between_public_hosts(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        a.send(udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert len(sink.received) == 1
        assert net.sim.now == 30.0

    def test_low_ttl_dropped_in_core(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        a.send(udp(Endpoint("a", 1), Endpoint("b", 80), ttl=3))
        net.sim.run()
        assert sink.received == []
        assert net.dropped_in_core == 1

    def test_high_ttl_passes_default_hops(self):
        net = build_net()
        net.topology.hop_override[("a", "b")] = 4
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        a.send(udp(Endpoint("a", 1), Endpoint("b", 80), ttl=64))
        net.sim.run()
        assert len(sink.received) == 1

    def test_low_ttl_still_creates_mapping_at_own_nat(self):
        # TTL property: state changes only at NATs up to hop index ttl.
        net = build_net()
        a = net.add_host("a", 10.0, nat_config=NatConfig(), nat_leg=1.0)
        b = net.add_host("b", 20.0, nat_config=NatConfig(), nat_leg=1.0)
        b_pub = net.public_endpoint_host("b")
        a.send(udp(Endpoint("a", 1), Endpoint(b_pub, 4000), ttl=3))
        net.sim.run()
        assert a.nat.session_count() == 1
        assert b.nat.session_count() == 0
        assert not b.nat.denylist

    def test_loss_rate_drops_fraction(self):
        net = build_net(seed=5, loss=0.3)
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        for _ in range(2_000):
            a.send(udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert abs(len(sink.received) / 2_000 - 0.7) < 0.03


class TestTcp:
    def test_single_sided_dial_to_public_listener(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        listener = TcpPort(net, net.hosts["b"], port=443)
        dialer = TcpPort(net, net.hosts["a"], listening=False)
        results = []
        dialer.dial(Endpoint("b", 443), on_done=results.append)
        net.sim.run()
        assert results and results[0].established
        assert listener.conns[dialer.local].state.value == "established"

    def test_simultaneous_open_through_port_restricted_nats(self):
        net = build_net()
        cfg = NatConfig(filtering=FilteringBehavior.APDF)
        net.add_host("a", 10.0, nat_config=NatConfig(filtering=FilteringBehavior.APDF))
        net.add_host("b", 20.0, nat_config=cfg)
        net.add_host("stun", 5.0)
        net.hosts["stun"].bind(lambda pkt: None, 1)
        pa = TcpPort(net, net.hosts["a"])
        pb = TcpPort(net, net.hosts["b"])
        ext_a = learn_external(net, "a", pa.port, "stun", 1)
        ext_b = learn_external(net, "b", pb.port, "stun", 1)
        res_a, res_b = [], []
        pa.dial(ext_b, on_done=res_a.append)
        pb.dial(ext_a, on_done=res_b.append)
        net.sim.run()
        assert res_a[0].established and res_b[0].established

    def test_unsolicited_syn_gets_rst(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0,
                     nat_config=NatConfig(rst_on_unsolicited_tcp=True))
        dialer = TcpPort(net, net.hosts["a"], listening=False)
        results = []
        b_pub = net.public_endpoint_host("b")
        dialer.dial(Endpoint(b_pub, 40_000), on_done=results.append)
        net.sim.run(until=20_000)
        assert results and not results[0].established
        assert results[0].reason == "rst"


class TestQuic:
    def _pair(self, server_filtering=FilteringBehavior.APDF):
        net = build_net()
        net.add_host("client", 10.0)
        net.add_host("server", 20.0,
                     nat_config=NatConfig(filtering=server_filtering))
        net.add_host("stun", 5.0)
        net.hosts["stun"].bind(lambda pkt: None, 1)
        server = QuicPort(net, net.hosts["server"])
        client = QuicPort(net, net.hosts["client"])
        ext_server = learn_external(net, "server", server.port, "stun", 1)
        return net, client, server, ext_server

    def test_primed_server_accepts_initial(self):
        net, client, server, ext_server = self._pair()
        server.prime(toward=client.local, count=3)
        results = []
        client.dial(ext_server, on_done=results.append)
        net.sim.run(until=20_000)
        assert results and results[0].established

    def test_unprimed_server_times_out(self):
        net, client, server, ext_server = self._pair()
        results = []
        client.dial(ext_server, on_done=results.append)
        net.sim.run(until=20_000)
        assert results and not results[0].established
        assert results[0].reason == "timeout"

    def test_low_ttl_prime_never_reaches_remote(self):
        net, client, server, ext_server = self._pair()
        before = net.dropped_in_core
        server.prime(toward=client.local, count=3, ttl=3)
        net.sim.run(until=1_000)
        assert net.hosts["server"].nat.session_count() >= 1
        assert net.dropped_in_core == before + 3

    def test_dual_client_dials_form_two_connections(self):
        # Both sides acting as client can yield two distinct connections.
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        pa = QuicPort(net, net.hosts["a"])
        pb = QuicPort(net, net.hosts["b"])
        ra, rb = [], []
        pa.dial(pb.local, on_done=ra.append)
        pb.dial(pa.local, on_done=rb.append)
        net.sim.run(until=20_000)
        assert ra[0].established and rb[0].established


class TestRtt:
    def test_direct_rtt_zero_jitter(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        net.hosts["b"].bind(lambda pkt: None, 7)
        port = net.hosts["a"].bind(lambda pkt: None)
        out = []
        measure_rtt(net, net.hosts["a"], port, Endpoint("b", 7),
                    samples=10, on_done=out.append)
        net.sim.run()
        mean, std = out[0]
        assert mean == 60.0
        assert std == 0.0

    def test_unreachable_target_reports_failure(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0, nat_config=NatConfig())
        port = net.hosts["a"].bind(lambda pkt: None)
        out = []
        b_pub = net.public_endpoint_host("b")
        measure_rtt(net, net.hosts["a"], port, Endpoint(b_pub, 40_000),
                    samples=3, on_done=out.append)
        net.sim.run(until=30_000)
        assert out == [None]

    def test_fresh_worlds_issue_the_same_probe_token(self):
        # Probe tokens come from the simulation, not from process-wide
        # state, so a replayed world repeats them.
        tokens = []
        for _ in range(2):
            net = build_net()
            net.add_host("a", 10.0)
            port = net.hosts["a"].bind(lambda pkt: None)
            probe = RttProbe(net, net.hosts["a"], port, Endpoint("b", 7),
                             on_done=lambda rtt: None)
            tokens.append(probe.token)
        assert tokens[0] == tokens[1]
