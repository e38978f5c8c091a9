from punchsim.dcutr import (DcutrConfig, HolePunch, OutcomeAttempt,
                            OutcomeResult, PeerRuntime)
from punchsim.kernel import Simulation, Topology
from punchsim.nat import (FilteringBehavior, MappingBehavior, NatConfig,
                          PortAllocation)
from punchsim.net import Network
from punchsim.relay import RelayService
from punchsim.transport import Transport

CONE = dict(mapping=MappingBehavior.EIM, filtering=FilteringBehavior.APDF)
SYMMETRIC = dict(mapping=MappingBehavior.APDM,
                 filtering=FilteringBehavior.APDF,
                 port_alloc=PortAllocation.RANDOM)


def build_world(client_nat=CONE, remote_nat=CONE, client_mapping=False,
                mapping_lies=False, seed=3, client_lat=10.0, remote_lat=20.0,
                client_leg=1.0, remote_leg=2.0):
    net = Network(Simulation(seed=seed), Topology())
    net.add_host("relay", 5.0)
    svc = RelayService(net, net.hosts["relay"])
    net.add_host("client", client_lat,
                 nat_config=NatConfig(**client_nat) if client_nat else None,
                 nat_leg=client_leg)
    net.add_host("remote", remote_lat,
                 nat_config=NatConfig(**remote_nat) if remote_nat else None,
                 nat_leg=remote_leg)
    client = PeerRuntime(net, net.hosts["client"],
                         port_mapping=client_mapping,
                         mapping_lies=mapping_lies)
    remote = PeerRuntime(net, net.hosts["remote"])
    remote.relay.reserve(svc.endpoint, lambda ok: None)
    net.sim.run(until=net.sim.now + 6_000)
    return net, svc, client, remote


def run_punch(net, client, remote, relay_addrs, cfg=None, tf=None,
              horizon_ms=600_000):
    out = []
    hp = HolePunch(net, client, remote, relay_addrs, cfg,
                   transport_filter=tf, on_done=out.append)
    hp.start()
    net.sim.run(until=net.sim.now + horizon_ms)
    assert out, "hole punch never finished"
    return hp, out[0]


class TestBasePunch:
    def test_cone_to_cone_succeeds_first_attempt(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.SUCCESS
        assert len(res.attempts) == 1
        assert res.attempts[0].outcome is OutcomeAttempt.SUCCESS
        assert res.attempts[0].transport_used is Transport.QUIC
        assert res.rtt_to_relay is not None
        assert res.rtt_relayed is not None
        assert res.rtt_direct_after is not None
        assert res.direct_endpoints_used

    def test_direct_rtt_beats_relayed_rtt(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.rtt_direct_after[0] < res.rtt_relayed[0]

    def test_tcp_filter_uses_simultaneous_open(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [svc.endpoint],
                           tf=Transport.TCP)
        assert res.outcome is OutcomeResult.SUCCESS
        assert res.attempts[0].transport_used is Transport.TCP

    def test_control_bytes_stay_under_budget(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert 0 < res.control_bytes["initiator"] < 500
        assert 0 < res.control_bytes["listener"] < 500

    def test_symmetric_remote_quic_fails_all_attempts(self):
        net, svc, client, remote = build_world(remote_nat=SYMMETRIC)
        _, res = run_punch(net, client, remote, [svc.endpoint],
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.FAILED
        assert len(res.attempts) == 3
        assert all(a.outcome is OutcomeAttempt.FAILED for a in res.attempts)


class TestEarlyOutcomes:
    def test_no_relays_is_no_connection(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [])
        assert res.outcome is OutcomeResult.NO_CONNECTION
        assert res.attempts == []

    def test_unreserved_relay_is_no_connection(self):
        net, svc, client, remote = build_world()
        svc.reservations.clear()
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.NO_CONNECTION

    def test_unresponsive_remote_is_no_stream(self):
        net, svc, client, remote = build_world()
        hp = HolePunch(net, client, remote, [svc.endpoint],
                       on_done=lambda r: None)
        hp.start()
        # The remote's application never picks up incoming circuits.
        remote.relay.on_incoming_circuit = None
        net.sim.run(until=net.sim.now + 60_000)
        assert hp.result.outcome is OutcomeResult.NO_STREAM

    def test_cancel_before_attempts(self):
        net, svc, client, remote = build_world()
        out = []
        hp = HolePunch(net, client, remote, [svc.endpoint],
                       on_done=out.append)
        hp.start()
        net.sim.run(until=net.sim.now + 100)
        hp.cancel()
        assert out and out[0].outcome is OutcomeResult.CANCELLED
        assert out[0].attempts == []

    def test_cancel_during_rtt_probe_leaves_rtts_unset(self):
        net, svc, client, remote = build_world()
        out = []
        hp = HolePunch(net, client, remote, [svc.endpoint],
                       on_done=out.append)
        hp.start()
        while not hp.stream_open and net.sim.now < 60_000:
            net.sim.run(until=net.sim.now + 1)
        # The stream-ack reaches the remote about 40 ms later; its
        # to-relay probe then sends ten pings 30 ms apart.
        net.sim.run(until=net.sim.now + 100)
        hp.cancel()
        net.sim.run(until=net.sim.now + 60_000)
        assert out[0].outcome is OutcomeResult.CANCELLED
        assert out[0].rtt_to_relay is None
        assert out[0].rtt_relayed is None


class TestReversal:
    def test_public_client_gets_reversed(self):
        net, svc, client, remote = build_world(client_nat=None,
                                               client_leg=0.0)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.CONNECTION_REVERSED
        assert res.attempts == []
        assert res.direct_endpoints_used

    def test_mapped_client_gets_reversed(self):
        net, svc, client, remote = build_world(client_mapping=True)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.CONNECTION_REVERSED
        assert res.attempts == []
        assert res.port_mapping_active

    def test_lying_mapping_is_not_reversed(self):
        net, svc, client, remote = build_world(client_mapping=True,
                                               mapping_lies=True)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is not OutcomeResult.CONNECTION_REVERSED
        # The fake address also poisons the punch itself.
        assert res.outcome is OutcomeResult.FAILED
        assert len(res.attempts) >= 1


class TestAttemptMachinery:
    def test_max_attempts_respected(self):
        net, svc, client, remote = build_world(remote_nat=SYMMETRIC)
        cfg = DcutrConfig(max_attempts=2)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.FAILED
        assert [a.index for a in res.attempts] == [1, 2]

    def test_attempt_rtt_recorded(self):
        net, svc, client, remote = build_world()
        _, res = run_punch(net, client, remote, [svc.endpoint])
        rtt = res.attempts[0].rtt_relayed
        assert rtt is not None and rtt[0] > 0

    def test_skipping_measurements_still_succeeds(self):
        net, svc, client, remote = build_world()
        cfg = DcutrConfig(measure_rtts=False)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.SUCCESS
        assert res.rtt_to_relay is None
        assert res.rtt_relayed is None
        assert res.rtt_direct_after is None

    def test_large_sync_error_fails_against_rst_nat(self):
        strict = dict(CONE, rst_on_unsolicited_tcp=True)
        net, svc, client, remote = build_world(
            client_nat=strict, remote_nat=strict,
            client_lat=10.0, remote_lat=10.0,
            client_leg=5.0, remote_leg=5.0, seed=9)
        cfg = DcutrConfig(max_attempts=1, sync_error_ms=-15.0)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.TCP)
        assert res.outcome is OutcomeResult.FAILED

    def test_zero_sync_error_succeeds_on_same_fixture(self):
        strict = dict(CONE, rst_on_unsolicited_tcp=True)
        net, svc, client, remote = build_world(
            client_nat=strict, remote_nat=strict,
            client_lat=10.0, remote_lat=10.0,
            client_leg=5.0, remote_leg=5.0, seed=9)
        cfg = DcutrConfig(max_attempts=1)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.TCP)
        assert res.outcome is OutcomeResult.SUCCESS


class TestOptimizations:
    def test_ttl_priming_succeeds_without_touching_remote_nat(self):
        net, svc, client, remote = build_world()
        cfg = DcutrConfig(ttl_priming=True)
        before = dict(remote.host.nat.denylist)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.SUCCESS
        assert remote.host.nat.denylist == before

    def test_refined_wait_succeeds_on_symmetric_fixture(self):
        net, svc, client, remote = build_world()
        cfg = DcutrConfig(refined_wait=True)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.SUCCESS

    def test_role_alternation_recovers_on_second_attempt(self):
        asym_client = dict(mapping=MappingBehavior.EIM,
                           filtering=FilteringBehavior.ADF)
        net, svc, client, remote = build_world(client_nat=asym_client,
                                               remote_nat=SYMMETRIC)
        cfg = DcutrConfig(alternate_roles=True)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.SUCCESS
        assert [a.outcome for a in res.attempts] == [
            OutcomeAttempt.FAILED, OutcomeAttempt.SUCCESS]
