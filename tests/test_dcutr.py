from contextlib import contextmanager
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchsim.dcutr import (DcutrConfig, HolePunch, OutcomeAttempt,
                            OutcomeResult, Phase)
from punchsim.nat import (ARCHETYPE_NATS, FilteringBehavior, MappingBehavior, NatConfig,
                          PortAllocation)
from punchsim.net import Host
from punchsim.transport import Port, Transport

from punch_world import CONE, build_world, run_punch

SYMMETRIC = NatConfig(mapping=MappingBehavior.APDM,
                      filtering=FilteringBehavior.APDF,
                      port_alloc=PortAllocation.RANDOM)


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

    def test_symmetric_remote_quic_fails_all_attempts(self):
        net, svc, client, remote = build_world(remote_nat=SYMMETRIC)
        _, res = run_punch(net, client, remote, [svc.endpoint],
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.FAILED
        assert len(res.attempts) == 3
        assert all(a.outcome is OutcomeAttempt.FAILED for a in res.attempts)

    def test_peers_on_two_networks_are_refused(self):
        # A punch runs on one network's clock and packets; a remote on
        # another network could never be reached from it.
        _, svc, client, _ = build_world()
        _, _, _, remote = build_world(seed=4)
        with pytest.raises(ValueError, match="client and remote are on different networks"):
            HolePunch(client, remote, [svc.endpoint])


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
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        # The remote's application never picks up incoming circuits.
        remote.relay.on_incoming_circuit = None
        net.sim.run(until=net.sim.now + 60_000)
        assert hp.result.outcome is OutcomeResult.NO_STREAM

    def test_lost_stream_ack_ends_no_stream(self):
        # With this seed the listener gets stream-open but its stream-ack
        # is lost on the way to the initiator.
        net, svc, client, remote = build_world(seed=2, loss=0.02)
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        while hp.phase is Phase.CIRCUIT:
            net.sim.run(until=net.sim.now + 1)
        opened = net.sim.now  # the stream deadline runs from here
        net.sim.run()
        assert hp.result.outcome is OutcomeResult.NO_STREAM
        assert hp.result.ended - opened <= hp.cfg.stream_timeout_ms

    def test_cancel_before_attempts(self):
        net, svc, client, remote = build_world()
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        net.sim.run(until=net.sim.now + 100)
        hp.cancel()
        assert hp.done and hp.result.outcome is OutcomeResult.CANCELLED
        assert hp.result.attempts == []

    def test_circuit_opening_after_a_cancel_is_closed(self):
        net, svc, client, remote = build_world()
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        net.sim.run(until=net.sim.now + 1)
        hp.cancel()
        net.sim.run()
        assert hp.result.outcome is OutcomeResult.CANCELLED
        assert svc._circuits == {}
        assert svc.reservations["remote"].active_conns == 0
        assert not any(c.open for c in client.relay.circuits.values())

    def test_cancel_during_rtt_probe_leaves_rtts_unset(self):
        net, svc, client, remote = build_world()
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        while hp.phase is not Phase.MEASURE and net.sim.now < 60_000:
            net.sim.run(until=net.sim.now + 1)
        # The stream-ack reached the remote; the to-relay probe now sends
        # ten pings 30 ms apart.
        net.sim.run(until=net.sim.now + 60)
        hp.cancel()
        net.sim.run(until=net.sim.now + 60_000)
        assert hp.result.outcome is OutcomeResult.CANCELLED
        assert hp.result.rtt_to_relay is None
        assert hp.result.rtt_relayed is None

    def test_circuit_reset_before_the_attempts_is_no_stream(self):
        # The listener's ten relayed pings pass the 300-byte budget.
        net, svc, client, remote = build_world(
            relay_kwargs={"data_budget_bytes": 300})
        hp, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.NO_STREAM
        assert res.attempts == [] and hp.done

    def test_circuit_reset_in_an_attempt_is_a_protocol_error(self):
        # The initiator's CONNECT passes the 500-byte budget.
        net, svc, client, remote = build_world(
            relay_kwargs={"data_budget_bytes": 500})
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.FAILED
        assert [(a.index, a.outcome) for a in res.attempts] == [
            (1, OutcomeAttempt.PROTOCOL_ERROR)]

    @pytest.mark.parametrize("timeout_ms, adopted", [(50.0, False), (230.0, True)],
                             ids=["identify", "stream-ack"])
    def test_messages_after_the_end_are_ignored(self, timeout_ms, adopted):
        # The stream deadline ends the punch before the listener's identify
        # (50 ms) or its stream-ack (230 ms) reaches the initiator.
        net, svc, client, remote = build_world()
        cfg = DcutrConfig(stream_timeout_ms=timeout_ms)
        hp, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.NO_STREAM
        assert hp.done and res.rtt_to_relay is None
        assert (hp.r_circ is not None) is adopted
        assert bool(remote.observed) is adopted

    def test_no_common_transport_dials_nothing(self):
        # A two-entry table holds the client's relay and TCP mappings, so
        # its QUIC observation is dropped and the QUIC-only punch has no
        # address to dial.
        net, svc, client, remote = build_world(client_nat=replace(CONE, max_sessions=2))
        _, res = run_punch(net, client, remote, [svc.endpoint], tf=Transport.QUIC)
        assert net.dropped_session_full == 1
        assert list(client.observed) == [Transport.TCP]
        assert [a.outcome for a in res.attempts] == [OutcomeAttempt.FAILED] * 3
        assert all(not port.conns for runtime in (client, remote)
                   for port in runtime.ports.values())


class TestReversal:
    def test_public_client_gets_reversed(self):
        net, svc, client, remote = build_world(client_nat=None,
                                               client_leg=0.0)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.CONNECTION_REVERSED
        assert res.attempts == []

    def test_mapped_client_gets_reversed(self):
        net, svc, client, remote = build_world(client_mapping=True)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is OutcomeResult.CONNECTION_REVERSED
        assert res.attempts == []
        assert client.appears_public()

    def test_lying_mapping_is_not_reversed(self):
        net, svc, client, remote = build_world(client_mapping=True,
                                               mapping_lies=True)
        _, res = run_punch(net, client, remote, [svc.endpoint])
        assert res.outcome is not OutcomeResult.CONNECTION_REVERSED
        # The fake address also poisons the punch itself.
        assert res.outcome is OutcomeResult.FAILED
        assert len(res.attempts) >= 1

    def test_reversal_dial_settling_after_the_stream_deadline(self):
        net, svc, client, remote = build_world(client_mapping=True,
                                               mapping_lies=True)
        cfg = DcutrConfig(reversal_deadline_ms=20_000, stream_timeout_ms=15_000)
        hp, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.NO_STREAM
        assert hp.done and res.attempts == []

    def test_stream_deadline_after_the_reversal_landed(self):
        # The listener accepts the reversal dial 30 ms before the
        # initiator hears back; the stream deadline falls in between.
        def world():
            return build_world(client_nat=None, client_leg=0.0)

        net, svc, client, remote = world()
        hp = HolePunch(client, remote, [svc.endpoint])
        hp.start()
        while hp.phase is Phase.CIRCUIT:
            net.sim.run(until=net.sim.now + 1)
        opened = net.sim.now
        while hp._client_direct is None:
            net.sim.run(until=net.sim.now + 1)
        accepted = net.sim.now
        net.sim.run()
        landed = hp.result
        assert landed.outcome is OutcomeResult.CONNECTION_REVERSED
        cfg = DcutrConfig(stream_timeout_ms=(accepted + landed.ended) / 2 - opened)
        net, svc, client, remote = world()
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.CONNECTION_REVERSED
        assert res.ended < landed.ended


class TestAttemptMachinery:
    def test_max_attempts_respected(self):
        net, svc, client, remote = build_world(remote_nat=SYMMETRIC)
        cfg = DcutrConfig(max_attempts=2)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.FAILED
        assert [a.index for a in res.attempts] == [1, 2]

    def test_deadline_during_direct_measurement_adds_no_attempt(self):
        # The attempt timer would fire while the direct RTT is measured.
        net, svc, client, remote = build_world()
        cfg = DcutrConfig(attempt_deadline_ms=200.0)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg)
        assert res.outcome is OutcomeResult.SUCCESS
        assert res.rtt_direct_after is not None
        assert [a.outcome for a in res.attempts] == [OutcomeAttempt.SUCCESS]

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
        strict = replace(CONE, rst_on_unsolicited_tcp=True)
        net, svc, client, remote = build_world(
            client_nat=strict, remote_nat=strict,
            client_lat=10.0, remote_lat=10.0,
            client_leg=5.0, remote_leg=5.0, seed=9)
        cfg = DcutrConfig(max_attempts=1, sync_error_ms=-15.0)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.TCP)
        assert res.outcome is OutcomeResult.FAILED

    def test_zero_sync_error_succeeds_on_same_fixture(self):
        strict = replace(CONE, rst_on_unsolicited_tcp=True)
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
        asym_client = NatConfig(mapping=MappingBehavior.EIM,
                                filtering=FilteringBehavior.ADF)
        net, svc, client, remote = build_world(client_nat=asym_client,
                                               remote_nat=SYMMETRIC)
        cfg = DcutrConfig(alternate_roles=True)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg,
                           tf=Transport.QUIC)
        assert res.outcome is OutcomeResult.SUCCESS
        assert [a.outcome for a in res.attempts] == [
            OutcomeAttempt.FAILED, OutcomeAttempt.SUCCESS]


ATTEMPT_EXCHANGE = ("connect", "connect-reply", "sync")
CIRCUIT_ENDS = ("circ-close", "circ-reset")
# The kinds whose second field `peer_sends` logs: an attempt or a circuit id.
NUMBERED = (*ATTEMPT_EXCHANGE, "conn-in", *CIRCUIT_ENDS)


@contextmanager
def peer_sends():
    """Each peer's own sends in order, as (host id, message kind, number):
    its datagrams, a circuit payload in place of the frame that carries it,
    and a "dial" for each `Port.dial`, whose first flight is no datagram.
    Of the relay's sends, its conn-in and circ-reset messages. The number
    is the attempt of a connect, connect-reply or sync, the circuit id of a
    conn-in, circ-close or circ-reset, else None."""
    sends = []
    datagram, dial = vars(Host)["datagram"], vars(Port)["dial"]

    def logged_datagram(host, src, dst, tag, *args):
        message = tag[2] if type(tag) is tuple and tag[0] == "circ" else tag
        kind = message if type(message) is str else message[0]
        if host.id != "relay" or kind in ("conn-in", "circ-reset"):
            sends.append((host.id, kind, message[1] if kind in NUMBERED else None))
        return datagram(host, src, dst, tag, *args)

    def logged_dial(port, *args, **kwargs):
        sends.append((port.host.id, "dial", None))
        return dial(port, *args, **kwargs)

    Host.datagram, Port.dial = logged_datagram, logged_dial
    try:
        yield sends
    finally:
        Host.datagram, Port.dial = datagram, dial


@pytest.mark.parametrize("alternate_roles", [False, True], ids=["fixed", "alternating"])
@pytest.mark.parametrize("tf", [Transport.TCP, Transport.QUIC], ids=["tcp", "quic"])
@pytest.mark.parametrize("remote_nat, attempts", [
    (SYMMETRIC, [OutcomeAttempt.FAILED] * 3),
    (CONE, [OutcomeAttempt.SUCCESS])], ids=["failing", "succeeding"])
class TestMessageOrder:
    """The DCUtR and circuit-relay message order of one punch, over TCP
    and QUIC, fixed and alternating roles, and a failing and a succeeding
    NAT pair."""

    def punch(self, remote_nat, attempts, tf, alternate_roles):
        """The punch's sends (see `peer_sends`) and its config."""
        net, svc, client, remote = build_world(remote_nat=remote_nat)
        cfg = DcutrConfig(alternate_roles=alternate_roles)
        with peer_sends() as sends:
            _, res = run_punch(net, client, remote, [svc.endpoint], cfg=cfg, tf=tf)
        assert [a.outcome for a in res.attempts] == attempts
        return sends, cfg

    def test_each_attempt_is_connect_reply_then_sync(self, remote_nat, attempts, tf,
                                                     alternate_roles):
        """Attempt k is the initiator's (remote's) connect(k), the listener's
        (client's) connect-reply(k) and the initiator's sync(k), in that
        order. Both sides act only after the sync: over TCP both dial; over
        QUIC the attempt's QUIC client dials and its server sends dummies,
        and alternating roles swaps the two on even attempts."""
        sends, cfg = self.punch(remote_nat, attempts, tf, alternate_roles)
        numbers = [index for _, kind, index in sends if kind == "connect"]
        assert numbers == list(range(1, len(numbers) + 1))
        assert 1 <= len(numbers) <= cfg.max_attempts
        for k in numbers:
            assert [(who, kind) for who, kind, index in sends
                    if kind in ATTEMPT_EXCHANGE and index == k] == [
                ("remote", "connect"), ("client", "connect-reply"), ("remote", "sync")]
        attempt, synced = 0, False
        for who, kind, index in sends:
            if kind == "connect":
                attempt, synced = index, False
            elif kind == "sync":
                synced = True
            elif kind in ("dial", "dummy"):
                assert attempt and synced, (who, kind, attempt)
                if tf is Transport.TCP:
                    assert kind == "dial"
                else:
                    swapped = alternate_roles and attempt % 2 == 0
                    server = "client" if swapped else "remote"
                    assert (who == server) == (kind == "dummy"), (who, kind, attempt)

    def test_identify_then_stream_then_connect(self, remote_nat, attempts, tf,
                                               alternate_roles):
        """Each peer sends its `id` before the initiator's stream-open, and
        the listener's stream-ack comes before the first connect."""
        sends, _ = self.punch(remote_nat, attempts, tf, alternate_roles)
        kinds = [(who, kind) for who, kind, _ in sends]
        stream_open = kinds.index(("remote", "stream-open"))
        assert {who for who, kind in kinds[:stream_open] if kind == "id"} == {
            "client", "remote"}
        assert stream_open < kinds.index(("client", "stream-ack")) < kinds.index(
            ("remote", "connect"))

    def test_every_circuit_ends_closed_or_reset(self, remote_nat, attempts, tf,
                                                alternate_roles):
        """Every circuit the relay opened for the punch is closed by a peer
        (circ-close) or reset by the relay (circ-reset) after it opened."""
        sends, _ = self.punch(remote_nat, attempts, tf, alternate_roles)
        opened, ended = set(), set()
        for who, kind, cid in sends:
            if kind == "conn-in":
                opened.add(cid)
            elif kind in CIRCUIT_ENDS:
                assert cid in opened, (who, kind, cid)
                ended.add(cid)
        assert opened and ended == opened


# -- invariants over small worlds ------------------------------------------------

_NATS = [NatConfig(**nat) for nat in ARCHETYPE_NATS.values()]


@settings(max_examples=100, deadline=None)
@given(client_nat=st.sampled_from([None, *_NATS]),  # None: a public client
       remote_nat=st.sampled_from(_NATS),
       client_mapping=st.sampled_from([False, False, False, True]),
       tf=st.sampled_from([None, *Transport]),
       loss=st.sampled_from([0.0, 0.02, 0.1]), seed=st.integers(0, 10_000),
       cancel_at=st.one_of(st.none(), st.floats(0.0, 40_000.0)))
def test_punch_ends_once_with_consistent_attempts(client_nat, remote_nat,
                                                  client_mapping, tf, loss,
                                                  seed, cancel_at):
    net, svc, client, remote = build_world(
        client_nat=client_nat, remote_nat=remote_nat, seed=seed, loss=loss,
        client_mapping=client_mapping and client_nat is not None,
        client_leg=1.0 if client_nat else 0.0)
    hp = HolePunch(client, remote, [svc.endpoint], transport_filter=tf)
    hp.start()
    if cancel_at is not None:
        net.sim.run(until=net.sim.now + cancel_at)
        hp.cancel()
    queue = net.sim._queue
    while not hp.done and queue:
        net.sim.run(until=queue[0][0])
    assert hp.done
    # The punch's own timers are the events dcutr scheduled; transport
    # retransmits and deadlines belong to the ports.
    assert not [e for e in queue if e[2] is not None
                and getattr(e[2], "__module__", "") == "punchsim.dcutr"]
    res, ended = hp.result, hp.result.ended
    net.sim.run()
    assert res.ended == ended  # it ended once
    assert [a.index for a in res.attempts] == list(range(1, len(res.attempts) + 1))
    assert len(res.attempts) <= hp.cfg.max_attempts
    if res.outcome is OutcomeResult.SUCCESS:
        assert res.attempts[-1].outcome is OutcomeAttempt.SUCCESS
    if cancel_at is None:
        assert res.outcome is not OutcomeResult.CANCELLED
