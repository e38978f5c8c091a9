import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchsim.kernel import RandomStream, Simulation
from punchsim.nat import FilteringBehavior, MappingBehavior, NatConfig
from punchsim.net import HOP_DISTANCE, MIN_LATENCY_MS, Network
from punchsim.packets import Endpoint, Packet, PacketKind
from punchsim.transport import QuicPort, RttProbe, TcpPort, measure_rtt


def build_net(seed=1, loss=0.0):
    return Network(Simulation(seed=seed), loss_rate=loss)


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
    net.send(net.hosts[host], udp(Endpoint(host, port), Endpoint(stun_host, stun_port)))
    net.sim.run()
    return seen[-1]


class TestDelivery:
    def test_plain_delivery_between_public_hosts(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert len(sink.received) == 1
        assert net.sim.now == 30.0

    def test_low_ttl_dropped_in_core(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80), ttl=3))
        net.sim.run()
        assert sink.received == []
        assert net.dropped_in_core == 1

    def test_high_ttl_passes_default_hops(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80), ttl=64))
        net.sim.run()
        assert len(sink.received) == 1

    def test_low_ttl_still_creates_mapping_at_own_nat(self):
        # TTL property: state changes only at NATs up to hop index ttl.
        net = build_net()
        a = net.add_host("a", 10.0, nat_config=NatConfig(), nat_leg=1.0)
        b = net.add_host("b", 20.0, nat_config=NatConfig(), nat_leg=1.0)
        b_pub = net.hosts["b"].nat.public_host
        net.send(a, udp(Endpoint("a", 1), Endpoint(b_pub, 4000), ttl=3))
        net.sim.run()
        assert a.nat.session_count() == 1
        assert b.nat.session_count() == 0
        assert not b.nat.denylist

    def test_ttl_boundary_is_hop_distance(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        for ttl in (HOP_DISTANCE - 1, HOP_DISTANCE):
            net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80), ttl=ttl, tag=ttl))
        net.sim.run()
        assert [pkt.tag for pkt in sink.received] == [HOP_DISTANCE]
        assert net.dropped_in_core == 1

    def test_packet_to_itself_crosses_no_hop(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        sink = Sink()
        a.bind(sink, 80)
        net.send(a, udp(Endpoint("a", 1), Endpoint("a", 80), ttl=1))
        net.sim.run()
        assert len(sink.received) == 1 and net.dropped_in_core == 0
        assert net.sim.now == 20.0  # its access latency, out and back

    def test_public_host_has_no_nat_leg(self):
        net = build_net()
        a = net.add_host("a", 10.0, 2.0, nat_leg=3.0)
        b = net.add_host("b", 20.0, 1.0, nat_config=NatConfig(), nat_leg=3.0)
        assert (a.mean_latency, a.stddev_latency, a.leg) == (10.0, 2.0, 0.0)
        assert (b.mean_latency, b.stddev_latency, b.leg) == (20.0, 1.0, 3.0)

    def test_rst_leaves_from_the_receiver_nat(self):
        # The SYN passes b's NAT one leg before it would reach b (t=26);
        # the NAT's RST starts there, one leg closer to a (26 + 30 - 4).
        net = build_net()
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0, nat_config=NatConfig(rst_on_unsolicited_tcp=True),
                         nat_leg=4.0)
        arrivals = []
        a.bind(lambda pkt: arrivals.append((pkt.kind, pkt.size_bytes, net.sim.now)), 1)
        net.send(a, Packet(src=Endpoint("a", 1), dst=Endpoint(b.nat.public_host, 80),
                           kind=PacketKind.TCP_SYN))
        net.sim.run()
        assert arrivals == [(PacketKind.TCP_RST, 40, 52.0)]

    def test_both_names_of_a_natted_host_reach_it(self):
        # Its NAT's public name reaches it from outside; its own id does
        # not, and a name no host holds reaches nothing.
        net = build_net()
        a = net.add_host("a", 10.0, nat_config=NatConfig(), nat_leg=1.0)
        a.nat.install_static_mapping(Endpoint("a", 80), 80)
        b = net.add_host("b", 20.0)
        sinks = {"a": Sink(), "b": Sink()}
        a.bind(sinks["a"], 80)
        b.bind(sinks["b"], 80)
        net.send(b, udp(Endpoint("b", 1), Endpoint(a.nat.public_host, 80), tag=1))
        net.send(b, udp(Endpoint("b", 1), Endpoint("a", 80), tag=2))
        net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80), tag=3))
        net.send(a, udp(Endpoint("a", 1), Endpoint("nowhere", 80), tag=4))
        net.sim.run()
        assert [p.tag for p in sinks["a"].received] == [1]
        assert [p.tag for p in sinks["b"].received] == [3]

    def test_host_id_that_names_a_nat_is_refused(self):
        net = build_net()
        a = net.add_host("a", 10.0, nat_config=NatConfig(), nat_leg=1.0)
        a.nat.install_static_mapping(Endpoint("a", 80), 80)
        sink = Sink()
        a.bind(sink, 80)
        with pytest.raises(ValueError, match="duplicate host 'a#nat'"):
            net.add_host(a.nat.public_host, 5.0)
        net.add_host("b", 20.0)
        net.send(net.hosts["b"], udp(Endpoint("b", 1), Endpoint(a.nat.public_host, 80)))
        net.sim.run()
        assert len(sink.received) == 1 and list(net.hosts) == ["a", "a#nat", "b"]

    def test_nat_name_that_names_a_host_is_refused(self):
        net = build_net()
        first = net.add_host("a#nat", 10.0)
        sink = Sink()
        first.bind(sink, 80)
        with pytest.raises(ValueError, match="duplicate host 'a#nat'"):
            net.add_host("a", 10.0, nat_config=NatConfig(), nat_leg=1.0)
        net.add_host("b", 20.0)
        net.send(net.hosts["b"], udp(Endpoint("b", 1), Endpoint("a#nat", 80)))
        net.sim.run()
        assert len(sink.received) == 1 and list(net.hosts) == ["a#nat", "b"]

    @pytest.mark.parametrize("means, arrival", [
        ((0.0, 0.0), MIN_LATENCY_MS),  # floored
        ((12.5, 7.25), 19.75),          # stddev 0: exactly the mean sum
    ], ids=["zero-latency", "zero-stddev"])
    def test_degenerate_latency_arrives_at_its_floor_or_mean_sum(self, means, arrival):
        net = build_net()
        net.add_host("a", means[0], 0.0)
        b = net.add_host("b", means[1], 0.0)
        b.bind(Sink(), 80)
        net.send(net.hosts["a"], udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert net.sim.now == arrival

    def test_arrival_delay_moments(self):
        # Law-of-large-numbers check against N(50 + 50, 25 + 25), floored.
        net = build_net(seed=7)
        net.add_host("a", 50.0, 25.0)
        b = net.add_host("b", 50.0, 25.0)
        delays = []
        b.bind(lambda pkt: delays.append(net.sim.now), 80)
        for _ in range(10_000):
            net.send(net.hosts["a"], udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert len(delays) == 10_000 and min(delays) >= MIN_LATENCY_MS
        mean = sum(delays) / len(delays)
        std = math.sqrt(sum((d - mean) ** 2 for d in delays) / (len(delays) - 1))
        assert abs(mean - 100.0) < 2.0
        assert abs(std - 50.0) < 3.0

    def test_full_table_drops_at_the_sender(self):
        net = build_net()
        a = net.add_host("a", 10.0, nat_config=NatConfig(max_sessions=1), nat_leg=1.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        for port in (1, 2):  # one mapping per internal endpoint
            net.send(a, udp(Endpoint("a", port), Endpoint("b", 80)))
        net.sim.run()
        assert len(sink.received) == 1
        assert net.dropped_session_full == 1

    def test_unroutable_destination_is_dropped(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        net.send(a, udp(Endpoint("a", 1), Endpoint("nowhere", 80)))
        assert net.sim.pending() == 0
        assert net.dropped_session_full == net.dropped_in_core == 0

    def test_duplicate_host_and_port_rejected(self):
        net = build_net()
        a = net.add_host("a", 10.0)
        with pytest.raises(ValueError, match="duplicate host"):
            net.add_host("a", 20.0)
        a.bind(Sink(), 80)
        with pytest.raises(ValueError, match="already bound"):
            a.bind(Sink(), 80)

    @pytest.mark.parametrize("build, message", [
        (lambda: build_net(loss=1.5), "loss_rate"),
        (lambda: build_net().add_host("c", -1.0), "mean_latency"),
        (lambda: build_net().add_host("c", 5.0, -1.0), "stddev_latency"),
        (lambda: build_net().add_host("c", 5.0, nat_config=NatConfig(), nat_leg=-1.0),
         "nat_leg"),
        (lambda: build_net().add_host("c", math.nan), "mean_latency"),
        (lambda: build_net().add_host("c", 10.0, math.inf), "stddev_latency"),
    ], ids=["loss-rate", "negative-mean", "negative-stddev", "negative-leg", "nan-mean",
            "infinite-stddev"])
    def test_bad_parameters_rejected(self, build, message):
        with pytest.raises(ValueError, match=message):
            build()

    def test_loss_rate_drops_fraction(self):
        net = build_net(seed=5, loss=0.3)
        a = net.add_host("a", 10.0)
        b = net.add_host("b", 20.0)
        sink = Sink()
        b.bind(sink, 80)
        for _ in range(2_000):
            net.send(a, udp(Endpoint("a", 1), Endpoint("b", 80)))
        net.sim.run()
        assert abs(len(sink.received) / 2_000 - 0.7) < 0.03


_hosts = st.lists(st.tuples(st.floats(0.0, 40.0), st.floats(0.0, 10.0),
                            st.one_of(st.none(), st.floats(0.0, 5.0))),
                  min_size=2, max_size=5)
_sends = st.lists(st.tuples(st.integers(0, 4), st.integers(0, 4), st.integers(1, 9)),
                  min_size=1, max_size=20)


@settings(max_examples=300, deadline=None)
@given(hosts=_hosts, sends=_sends,
       loss=st.sampled_from([0.0, 0.2, 0.5]), seed=st.integers(0, 1000))
def test_sends_match_the_latency_model(hosts, sends, loss, seed):
    """Arrival times, NAT passage times, core drops and loss drops equal
    a reference computed from each host's latency and NAT leg and from
    `HOP_DISTANCE`, with the same streams. A packet a host sends itself
    crosses no hop."""
    net = build_net(seed=seed, loss=loss)
    names = [f"h{i}" for i in range(len(hosts))]
    params = dict(zip(names, hosts))
    nat_times = []  # (kind, host, time the packet passed the NAT)
    arrivals = []   # (send index, receiver, arrival time)
    for name, (mean, stddev, leg) in zip(names, hosts):
        host = net.add_host(name, mean, stddev, nat_leg=leg or 0.0,
                            nat_config=None if leg is None else NatConfig())
        host.bind(lambda pkt, name=name: arrivals.append((pkt.tag, name, net.sim.now)), 80)
        if host.nat is not None:
            # Inbound port 80 reaches the host, whoever sends.
            host.nat.install_static_mapping(Endpoint(name, 80), 80)
            for kind in ("process_outbound", "process_inbound"):
                def passing(pkt, now, name=name, kind=kind,
                            real=getattr(host.nat, kind)):
                    nat_times.append((kind, name, now))
                    return real(pkt, now)
                setattr(host.nat, kind, passing)

    latency_rng = RandomStream(seed, "latency")
    loss_rng = RandomStream(seed, "loss")
    expected_arrivals, expected_nat, core_drops = [], [], 0

    def send(k, i, j, ttl):
        nonlocal core_drops
        a, b = names[i % len(names)], names[j % len(names)]
        (mean_a, stddev_a, leg_a), (mean_b, stddev_b, leg_b) = params[a], params[b]
        t0 = net.sim.now
        if leg_a is not None:
            expected_nat.append(("process_outbound", a, t0 + leg_a))
        if ttl < (HOP_DISTANCE if a != b else 0):
            core_drops += 1
        elif not (loss > 0.0 and loss_rng.random() < loss):
            draw = latency_rng.normal(mean_a + mean_b, stddev_a + stddev_b)
            t_arrival = t0 + max(MIN_LATENCY_MS, draw)
            if leg_b is not None:
                expected_nat.append(("process_inbound", b,
                                     max(t0, t_arrival - leg_b)))
            expected_arrivals.append((k, b, t_arrival))
        dst = Endpoint(b if net.hosts[b].nat is None else net.hosts[b].nat.public_host, 80)
        net.send(net.hosts[a], udp(Endpoint(a, 1000 + k), dst, ttl=ttl, tag=k))

    for k, (i, j, ttl) in enumerate(sends):
        net.sim.schedule(lambda k=k, i=i, j=j, ttl=ttl: send(k, i, j, ttl), 10.0 * k)
    net.sim.run()

    assert sorted(arrivals) == sorted(expected_arrivals)
    assert sorted(nat_times) == sorted(expected_nat)
    assert net.dropped_in_core == core_drops


class TestTcp:
    def test_single_sided_dial_to_public_listener(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        listener = TcpPort(net.hosts["b"], port=443)
        dialer = TcpPort(net.hosts["a"])
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
        pa = TcpPort(net.hosts["a"])
        pb = TcpPort(net.hosts["b"])
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
        dialer = TcpPort(net.hosts["a"])
        results = []
        b_pub = net.hosts["b"].nat.public_host
        dialer.dial(Endpoint(b_pub, 40_000), on_done=results.append)
        net.sim.run(until=20_000)
        assert results and not results[0].established
        assert results[0].reason == "rst"


def test_settled_dials_leave_nothing_queued():
    """A dial cancels its retransmit and deadline timers when it settles,
    so once its packets have landed nothing of it is left to run."""
    net = build_net()
    net.add_host("a", 10.0)
    net.add_host("b", 20.0)
    net.add_host("c", 20.0, nat_config=NatConfig(rst_on_unsolicited_tcp=True))
    TcpPort(net.hosts["b"], port=443)
    QuicPort(net.hosts["b"], port=4433)
    tcp = TcpPort(net.hosts["a"])
    quic = QuicPort(net.hosts["a"])
    established, refused, quic_done = [], [], []
    tcp.dial(Endpoint("b", 443), on_done=established.append)
    tcp.dial(Endpoint(net.hosts["c"].nat.public_host, 40_000), on_done=refused.append)
    quic.dial(Endpoint("b", 4433), on_done=quic_done.append)
    # Every dial settles within 100 ms, before any retransmit is due.
    net.sim.run(until=400.0)
    assert established[0].established and quic_done[0].established
    assert refused[0].reason == "rst"
    assert net.sim.pending() == 0


class TestQuic:
    def _pair(self, server_filtering=FilteringBehavior.APDF):
        net = build_net()
        net.add_host("client", 10.0)
        net.add_host("server", 20.0,
                     nat_config=NatConfig(filtering=server_filtering))
        net.add_host("stun", 5.0)
        net.hosts["stun"].bind(lambda pkt: None, 1)
        server = QuicPort(net.hosts["server"])
        client = QuicPort(net.hosts["client"])
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

    def test_prime_needs_a_packet(self):
        net, client, server, ext_server = self._pair()
        with pytest.raises(ValueError, match="count"):
            server.prime(toward=client.local, count=0)

    def test_dual_client_dials_form_two_connections(self):
        # Both sides acting as client can yield two distinct connections.
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        pa = QuicPort(net.hosts["a"])
        pb = QuicPort(net.hosts["b"])
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
        measure_rtt(net.hosts["a"], port, Endpoint("b", 7),
                    samples=10, on_done=out.append)
        net.sim.run()
        mean, std = out[0]
        assert mean == 60.0
        assert std == 0.0

    def test_delivered_reply_cancels_its_timeout(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0)
        net.hosts["b"].bind(lambda pkt: None, 7)
        port = net.hosts["a"].bind(lambda pkt: None)
        out = []
        measure_rtt(net.hosts["a"], port, Endpoint("b", 7),
                    samples=1, on_done=out.append)
        assert net.sim.pending() == 2  # the ping and its timeout
        net.sim.run(until=60.0)
        assert out == [(60.0, 0.0)]
        assert net.sim.pending() == 0
        assert net.hosts["a"].replies == {}
        net.sim.run()
        assert net.sim.now == 60.0

    def test_unreachable_target_reports_failure(self):
        net = build_net()
        net.add_host("a", 10.0)
        net.add_host("b", 20.0, nat_config=NatConfig())
        port = net.hosts["a"].bind(lambda pkt: None)
        out = []
        b_pub = net.hosts["b"].nat.public_host
        measure_rtt(net.hosts["a"], port, Endpoint(b_pub, 40_000),
                    samples=3, on_done=out.append)
        net.sim.run(until=30_000)
        assert out == [None]

    @pytest.mark.parametrize("samples", [0, 11])
    def test_sample_count_out_of_range_rejected(self, samples):
        net = build_net()
        host = net.add_host("a", 10.0)
        with pytest.raises(ValueError, match="samples"):
            RttProbe(host, lambda tag: True, samples=samples)

    def test_fresh_worlds_issue_the_same_probe_token(self):
        # Probe tokens come from the simulation, not from process-wide
        # state, so a replayed world repeats them.
        worlds = []
        for _ in range(2):
            net = build_net()
            host = net.add_host("a", 10.0)
            sent = []
            RttProbe(host, lambda tag: sent.append(tag) or True,
                     on_done=lambda rtt: None).start()
            worlds.append((sent, set(host.replies)))
        assert worlds[0] == worlds[1]
        (sent, waiting), _ = worlds
        assert sent == [("ping", *waiting)]
