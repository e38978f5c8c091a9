import math
from dataclasses import astuple

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchsim.kernel import RandomStream
from punchsim.nat import (ARCHETYPE_NATS, Archetype, FilteringBehavior, InboundAction,
                          MappingBehavior, NatConfig, NatState,
                          PortAllocation, SessionTableFull, archetype)
from punchsim.packets import Endpoint, Packet, PacketKind


def make_nat(**kwargs):
    cfg = NatConfig(**kwargs)
    return NatState(cfg, public_host="pub", rng=RandomStream(11, "nat"))


def udp(src, dst, **kw):
    return Packet(src=src, dst=dst, kind=PacketKind.UDP_DATAGRAM, **kw)


INT = Endpoint("lan", 5000)
DST1 = Endpoint("x", 443)
DST2 = Endpoint("y", 443)
DST1B = Endpoint("x", 8443)


class TestMapping:
    def test_eim_reuses_external_across_destinations(self):
        nat = make_nat(mapping=MappingBehavior.EIM)
        p1 = nat.process_outbound(udp(INT, DST1), 0.0)
        p2 = nat.process_outbound(udp(INT, DST2), 1.0)
        assert p1.src == p2.src

    def test_apdm_distinct_ports_per_destination_endpoint(self):
        nat = make_nat(mapping=MappingBehavior.APDM)
        p1 = nat.process_outbound(udp(INT, DST1), 0.0)
        p2 = nat.process_outbound(udp(INT, DST1B), 1.0)
        assert p1.src.port != p2.src.port

    def test_adm_keyed_by_destination_host(self):
        nat = make_nat(mapping=MappingBehavior.ADM)
        p1 = nat.process_outbound(udp(INT, DST1), 0.0)
        p1b = nat.process_outbound(udp(INT, DST1B), 1.0)
        p2 = nat.process_outbound(udp(INT, DST2), 2.0)
        assert p1.src == p1b.src
        assert p1.src.port != p2.src.port

    def test_sequential_allocation(self):
        nat = make_nat(port_alloc=PortAllocation.SEQUENTIAL,
                       mapping=MappingBehavior.APDM)
        p1 = nat.process_outbound(udp(INT, DST1), 0.0)
        p2 = nat.process_outbound(udp(INT, DST2), 1.0)
        assert (p1.src.port, p2.src.port) == (40_000, 40_001)

    def test_preserve_best_effort(self):
        nat = make_nat(port_alloc=PortAllocation.PRESERVE)
        p1 = nat.process_outbound(udp(INT, DST1), 0.0)
        assert p1.src.port == INT.port
        other = Endpoint("lan2", 5000)
        p2 = nat.process_outbound(udp(other, DST1), 1.0)
        assert p2.src.port != 5000

    def test_preserve_keeps_to_the_port_range(self):
        nat = make_nat(port_alloc=PortAllocation.PRESERVE, port_range=(100, 200))
        inside = Endpoint("lan", 150)
        assert nat.process_outbound(udp(inside, DST1), 0.0).src.port == 150
        # lan:5000 lies outside the range, so its port is drawn inside it.
        assert 100 <= nat.process_outbound(udp(INT, DST1), 1.0).src.port <= 200

    def test_session_table_full_is_distinct_signal(self):
        nat = make_nat(mapping=MappingBehavior.APDM, max_sessions=1)
        nat.process_outbound(udp(INT, DST1), 0.0)
        with pytest.raises(SessionTableFull):
            nat.process_outbound(udp(INT, DST2), 1.0)

    def test_full_table_of_expired_mappings_admits_new_mapping(self):
        # Expiry is lazy: no sweep runs between packets, so the
        # capacity check itself must not count idle mappings past the TTL.
        nat = make_nat(mapping=MappingBehavior.APDM, mapping_ttl=1000,
                       max_sessions=4)
        for port in range(4):
            nat.process_outbound(udp(INT, Endpoint("x", 1000 + port)), 0.0)
        assert nat.session_count() == 4
        nat.process_outbound(udp(INT, DST2), 11_000.0)
        assert nat.session_count() == 1

    def test_static_mapping_over_live_dynamic_port_replaces_it(self):
        nat = make_nat(mapping=MappingBehavior.APDM)
        ext = nat.process_outbound(udp(INT, DST1), 0.0).src
        other = Endpoint("lan2", 7000)
        static = nat.install_static_mapping(other, ext.port)
        assert nat.session_count() == 0
        # The replaced dynamic mapping is gone from both tables, so a
        # later outbound packet neither reuses it nor evicts the static one.
        again = nat.process_outbound(udp(INT, DST1), 1.0).src
        assert again.port != ext.port
        assert nat.session_count() == 1
        action, pkt = nat.process_inbound(udp(DST2, ext), 2.0)
        assert action is InboundAction.DELIVER and pkt.dst == other
        assert nat._by_port[ext.port] is static


class TestFiltering:
    def _mapped(self, filtering):
        nat = make_nat(filtering=filtering)
        out = nat.process_outbound(udp(INT, DST1), 0.0)
        return nat, out.src

    def test_full_cone_admits_any_source(self):
        nat, ext = self._mapped(FilteringBehavior.EIF)
        action, pkt = nat.process_inbound(udp(Endpoint("stranger", 1), ext), 1.0)
        assert action is InboundAction.DELIVER
        assert pkt.dst == INT

    def test_adf_admits_contacted_host_any_port(self):
        nat, ext = self._mapped(FilteringBehavior.ADF)
        action, _ = nat.process_inbound(udp(Endpoint("x", 999), ext), 1.0)
        assert action is InboundAction.DELIVER

    def test_port_restricted_rejects_other_port_of_contacted_host(self):
        nat, ext = self._mapped(FilteringBehavior.APDF)
        action, _ = nat.process_inbound(udp(Endpoint("x", 999), ext), 1.0)
        assert action is InboundAction.DROP
        action, _ = nat.process_inbound(udp(DST1, ext), 1.0)
        assert action is InboundAction.DELIVER

    def test_filtering_monotonicity(self):
        # Any packet delivered under APDF is delivered under ADF, and any
        # under ADF is delivered under EIF.
        probes = [DST1, Endpoint("x", 999), Endpoint("stranger", 1)]
        admitted = {}
        for filt in (FilteringBehavior.APDF, FilteringBehavior.ADF,
                     FilteringBehavior.EIF):
            nat, ext = self._mapped(filt)
            admitted[filt] = {
                p for p in probes
                if nat.process_inbound(udp(p, ext), 1.0)[0] is InboundAction.DELIVER
            }
        assert admitted[FilteringBehavior.APDF] <= admitted[FilteringBehavior.ADF]
        assert admitted[FilteringBehavior.ADF] <= admitted[FilteringBehavior.EIF]

    def test_empty_table_drops_everything(self):
        nat = make_nat()
        action, _ = nat.process_inbound(udp(DST1, Endpoint("pub", 40_000)), 0.0)
        assert action is InboundAction.DROP

    def test_rst_on_unsolicited_tcp(self):
        nat = make_nat(rst_on_unsolicited_tcp=True)
        syn = Packet(src=DST1, dst=Endpoint("pub", 40_000), kind=PacketKind.TCP_SYN)
        action, _ = nat.process_inbound(syn, 0.0)
        assert action is InboundAction.REJECT_RST
        udp_pkt = udp(DST1, Endpoint("pub", 40_000))
        action, _ = nat.process_inbound(udp_pkt, 0.0)
        assert action is InboundAction.DROP


class TestDenylist:
    def test_unsolicited_udp_triggers_denylist(self):
        nat = make_nat(denylist_on_unsolicited=True, denylist_duration=5_000)
        action, _ = nat.process_inbound(udp(DST1, Endpoint("pub", 40_000)), 0.0)
        assert action is InboundAction.DROP
        # Legitimate exchange with that host now blocked until expiry.
        ext = nat.process_outbound(udp(INT, DST1), 1.0).src
        action, _ = nat.process_inbound(udp(DST1, ext), 2.0)
        assert action is InboundAction.DROP
        action, _ = nat.process_inbound(udp(DST1, ext), 5_000.0)
        assert action is InboundAction.DELIVER

    def test_denylist_entry_expires_inclusive(self):
        nat = make_nat(denylist_on_unsolicited=True, denylist_duration=1_000)
        nat.process_inbound(udp(DST1, Endpoint("pub", 40_000)), 0.0)
        assert "x" in nat.denylist
        ext = nat.process_outbound(udp(INT, DST1), 1.0).src
        # A solicited reply at exactly the expiry time passes, and the
        # entry goes (an unsolicited one would denylist "x" again).
        action, _ = nat.process_inbound(udp(DST1, ext), 1_000.0)
        assert action is InboundAction.DELIVER
        assert "x" not in nat.denylist


class TestExpiry:
    def test_idle_mapping_removed_past_ttl(self):
        nat = make_nat(mapping_ttl=30_000)
        ext = nat.process_outbound(udp(INT, DST1), 0.0).src
        action, _ = nat.process_inbound(udp(DST1, ext), 30_001.0)
        assert action is InboundAction.DROP

    def test_refreshed_mapping_retained(self):
        nat = make_nat(mapping_ttl=30_000)
        nat.process_outbound(udp(INT, DST1), 0.0)
        ext = nat.process_outbound(udp(INT, DST1), 29_999.0).src
        action, _ = nat.process_inbound(udp(DST1, ext), 30_000.0)
        assert action is InboundAction.DELIVER

    def test_idle_exactly_ttl_retained(self):
        nat = make_nat(mapping_ttl=30_000)
        ext = nat.process_outbound(udp(INT, DST1), 0.0).src
        action, _ = nat.process_inbound(udp(DST1, ext), 30_000.0)
        assert action is InboundAction.DELIVER


class TestArchetype:
    @pytest.mark.parametrize("mapping,filtering,expected", [
        (MappingBehavior.EIM, FilteringBehavior.EIF, Archetype.FULL_CONE),
        (MappingBehavior.EIM, FilteringBehavior.ADF, Archetype.RESTRICTED_CONE),
        (MappingBehavior.EIM, FilteringBehavior.APDF, Archetype.PORT_RESTRICTED_CONE),
        (MappingBehavior.APDM, FilteringBehavior.APDF, Archetype.SYMMETRIC),
        (MappingBehavior.ADM, FilteringBehavior.EIF, Archetype.SYMMETRIC),
    ])
    def test_classification(self, mapping, filtering, expected):
        assert archetype(NatConfig(mapping=mapping, filtering=filtering)) is expected

    @pytest.mark.parametrize("arch", list(Archetype))
    def test_each_archetype_table_entry_classifies_as_its_archetype(self, arch):
        assert archetype(NatConfig(**ARCHETYPE_NATS[arch])) is arch


# The servers of an RFC 5780 behaviour-discovery run: two hosts, A and B,
# each answering on ports p1, p2 and p3.
A1, A2, B1, B3 = (Endpoint("A", 3478), Endpoint("A", 3479),
                  Endpoint("B", 3478), Endpoint("B", 3480))


def discover(config, kind, seed):
    """The mapping and filtering behaviour of a NAT, found as RFC 5780
    §4.3 and §4.4 find them: from the outside, by what arrives where,
    and the external ports seen on the way. Every probe goes out within
    the mapping TTL of the one before."""
    step = config.mapping_ttl / 8
    nat = NatState(config, "pub", RandomStream(seed, "nat"))
    # §4.3: one internal endpoint sends to (A,p1), (A,p2) and (B,p1).
    seen = [nat.process_outbound(Packet(src=INT, dst=dst, kind=kind), i * step).src
            for i, dst in enumerate((A1, A2, B1))]
    mapping = {(1, True): MappingBehavior.EIM, (2, True): MappingBehavior.ADM,
               (3, False): MappingBehavior.APDM}.get((len(set(seen)), seen[0] == seen[1]))
    # §4.4: after a send to (A,p1), a fresh NAT is sent to from (A,p2) and (B,p3).
    nat = NatState(config, "pub", RandomStream(seed, "nat"))
    out = nat.process_outbound(Packet(src=INT, dst=A1, kind=kind), 0.0)
    delivered = tuple(
        nat.process_inbound(Packet(src=src, dst=out.src, kind=kind), (i + 1) * step)[0]
        is InboundAction.DELIVER for i, src in enumerate((A2, B3)))
    filtering = {(True, True): FilteringBehavior.EIF, (True, False): FilteringBehavior.ADF,
                 (False, False): FilteringBehavior.APDF}.get(delivered)
    return mapping, filtering, {ep.port for ep in seen} | {out.src.port}


@settings(max_examples=150, deadline=None)
@given(mapping=st.sampled_from(list(MappingBehavior)),
       filtering=st.sampled_from(list(FilteringBehavior)),
       port_alloc=st.sampled_from(list(PortAllocation)),
       denylist=st.booleans(), rst=st.booleans(),
       ttl=st.floats(0.001, 1e6), lo=st.integers(0, 65533), width=st.integers(2, 200),
       kind=st.sampled_from([PacketKind.UDP_DATAGRAM, PacketKind.TCP_SYN,
                             PacketKind.QUIC_INITIAL]),
       seed=st.integers(0, 2**32))
def test_rfc5780_discovery_finds_the_configured_behaviour(mapping, filtering, port_alloc,
                                                          denylist, rst, ttl, lo, width,
                                                          kind, seed):
    config = NatConfig(mapping=mapping, filtering=filtering, port_alloc=port_alloc,
                       denylist_on_unsolicited=denylist, rst_on_unsolicited_tcp=rst,
                       mapping_ttl=ttl, port_range=(lo, min(lo + width, 65535)))
    found_mapping, found_filtering, ports = discover(config, kind, seed)
    assert (found_mapping, found_filtering) == (mapping, filtering)
    # Every policy maps into the range, PRESERVE too (internal port 5000).
    assert all(config.port_range[0] <= port <= config.port_range[1] for port in ports)
    # An EIM NAT is the archetype of its filtering; an endpoint-dependent
    # mapping makes any NAT Symmetric, whose entry maps endpoint-dependently.
    entry = ARCHETYPE_NATS[archetype(config)]
    if mapping is MappingBehavior.EIM:
        assert (entry["mapping"], entry["filtering"]) == (mapping, filtering)
    else:
        assert archetype(config) is Archetype.SYMMETRIC
        assert entry["mapping"] is not MappingBehavior.EIM


def test_hole_punch_enabler():
    # After both peers behind port-restricted NATs send one packet to each
    # other's true external endpoints, traffic flows in both directions.
    nat_a = make_nat(filtering=FilteringBehavior.APDF)
    nat_b = NatState(NatConfig(filtering=FilteringBehavior.APDF), "pubB",
                     RandomStream(12, "nat"))
    int_a, int_b = Endpoint("lanA", 1000), Endpoint("lanB", 2000)
    # Learn externals via a rendezvous first.
    rendezvous = Endpoint("relay", 1)
    ext_a = nat_a.process_outbound(udp(int_a, rendezvous), 0.0).src
    ext_b = nat_b.process_outbound(udp(int_b, rendezvous), 0.0).src
    # Simultaneous outbound toward each other's externals.
    nat_a.process_outbound(udp(int_a, ext_b), 1.0)
    nat_b.process_outbound(udp(int_b, ext_a), 1.0)
    act_ab, _ = nat_b.process_inbound(udp(ext_a, ext_b), 2.0)
    act_ba, _ = nat_a.process_inbound(udp(ext_b, ext_a), 2.0)
    assert act_ab is InboundAction.DELIVER
    assert act_ba is InboundAction.DELIVER


def test_static_mapping_admits_unsolicited():
    nat = make_nat(filtering=FilteringBehavior.APDF)
    nat.install_static_mapping(INT, 6000)
    action, pkt = nat.process_inbound(udp(DST1, Endpoint("pub", 6000)), 0.0)
    assert action is InboundAction.DELIVER
    assert pkt.dst == INT


def test_static_mapping_carries_outbound_until_replaced():
    nat = make_nat(mapping=MappingBehavior.APDM)
    nat.install_static_mapping(INT, INT.port)
    assert nat.process_outbound(udp(INT, DST1), 0.0).src == Endpoint("pub", INT.port)
    assert nat.session_count() == 0
    # Another internal endpoint takes the forwarded port over; INT's
    # traffic then needs a dynamic mapping of its own.
    nat.install_static_mapping(Endpoint("lan2", 7000), INT.port)
    out = nat.process_outbound(udp(INT, DST1), 1.0)
    assert out.src != Endpoint("pub", INT.port)
    assert nat.session_count() == 1
    assert nat._statics == 1


def test_port_forward_carries_outbound_whatever_its_external_port():
    # The forward keeps its external port for outbound traffic too, and a
    # new forward of the same internal endpoint replaces the old one.
    nat = make_nat(mapping=MappingBehavior.APDM)
    nat.install_static_mapping(INT, 6000)
    assert nat.process_outbound(udp(INT, DST1), 0.0).src == Endpoint("pub", 6000)
    nat.install_static_mapping(INT, 7000)
    assert nat.process_outbound(udp(INT, DST2), 1.0).src == Endpoint("pub", 7000)
    assert (nat.session_count(), list(nat._by_port)) == (0, [7000])
    action, _ = nat.process_inbound(udp(DST1, Endpoint("pub", 6000)), 2.0)
    assert action is InboundAction.DROP


INTERNALS = [Endpoint("lan", 5000), Endpoint("lan", 5001), Endpoint("lan2", 5000)]
DESTS = [Endpoint("x", 443), Endpoint("x", 8443), Endpoint("y", 443)]
PORT_LO, PORT_HI = 40_000, 40_015
STATIC_PORTS = [40_000, 40_001, 40_002, 6000, 5000]

_steps = st.lists(st.one_of(
    st.tuples(st.just("out"), st.sampled_from(INTERNALS), st.sampled_from(DESTS)),
    st.tuples(st.just("in"), st.sampled_from(DESTS), st.integers(PORT_LO, PORT_HI)),
    st.tuples(st.just("static"), st.sampled_from(INTERNALS),
              st.sampled_from(STATIC_PORTS)),
).flatmap(lambda step: st.tuples(st.just(step), st.floats(0.0, 800.0))),
    max_size=40)


def _check_tables(nat):
    dynamic = sum(1 for m in nat._by_port.values() if not m.static)
    assert nat.session_count() == dynamic
    assert nat._statics == len(nat._by_port) - dynamic
    for port, m in nat._by_port.items():
        assert m.external.port == port
        assert nat._by_key.get(m.key) is m
    for key, m in nat._by_key.items():
        assert m.key == key
        assert nat._by_port.get(m.external.port) is m
    assert nat.session_count() <= nat.config.max_sessions


@settings(max_examples=300, deadline=None)
@given(mapping=st.sampled_from(list(MappingBehavior)),
       port_alloc=st.sampled_from(list(PortAllocation)),
       max_sessions=st.integers(1, 4), steps=_steps)
def test_table_invariants_hold_under_random_traffic(mapping, port_alloc,
                                                    max_sessions, steps):
    # A 16-port range keeps inbound probes landing on live mappings; the
    # 3 static ports inside it and at most 4 sessions never fill it. A
    # static port carries its internal endpoint's outbound traffic too.
    nat = make_nat(mapping=mapping, port_alloc=port_alloc, mapping_ttl=1000,
                   max_sessions=max_sessions, port_range=(PORT_LO, PORT_HI))
    now = 0.0
    for step, dt in steps:
        now += dt
        if step[0] == "out":
            try:
                nat.process_outbound(udp(step[1], step[2]), now)
            except SessionTableFull:
                assert nat.session_count() == max_sessions
        elif step[0] == "in":
            nat.process_inbound(udp(step[1], Endpoint("pub", step[2])), now)
        else:
            nat.install_static_mapping(step[1], step[2])
        _check_tables(nat)


class TestPacketsAreNotKept:
    """The NAT rewrites the header of the packet it passes in place and
    keeps no reference to it, so a caller may readdress its packet and
    pass it again (`strategies.birthday_punch` does)."""

    @staticmethod
    def tables(nat):
        return ({key: astuple(m) for key, m in nat._by_key.items()},
                {port: astuple(m) for port, m in nat._by_port.items()})

    @pytest.mark.parametrize("mapping", list(MappingBehavior))
    def test_readdressing_the_input_changes_nothing(self, mapping):
        nat = make_nat(mapping=mapping, filtering=FilteringBehavior.APDF)
        pkt = udp(INT, DST1, ttl=9, size_bytes=40, tag=("ping", 7))
        assert nat.process_outbound(pkt, 0.0) is pkt
        external, tables = pkt.src, self.tables(nat)
        assert external.host == "pub" and pkt.dst == DST1
        assert (pkt.ttl, pkt.size_bytes, pkt.tag) == (9, 40, ("ping", 7))
        pkt.src, pkt.dst = Endpoint("lan", 6000), DST2
        assert self.tables(nat) == tables
        # APDF lets the reply from DST1 in, its destination rewritten, and
        # drops the one from DST2 as it came.
        for src, expected in ((DST1, InboundAction.DELIVER),
                              (DST2, InboundAction.DROP)):
            pkt = udp(src, external)
            action, delivered = nat.process_inbound(pkt, 1.0)
            assert action is expected
            if expected is InboundAction.DELIVER:
                assert delivered is pkt and (pkt.src, pkt.dst) == (src, INT)
            else:
                assert delivered is None and (pkt.src, pkt.dst) == (src, external)
            tables = self.tables(nat)
            pkt.src, pkt.dst = Endpoint("z", 1), Endpoint("pub", 1)
            assert self.tables(nat) == tables

    def test_a_rejected_packet_keeps_its_header(self):
        # The network answers it with a RST from its own addresses.
        nat = make_nat(rst_on_unsolicited_tcp=True)
        pkt = Packet(src=DST1, dst=Endpoint("pub", 7), kind=PacketKind.TCP_SYN)
        assert nat.process_inbound(pkt, 0.0) == (InboundAction.REJECT_RST, None)
        assert (pkt.src, pkt.dst) == (DST1, Endpoint("pub", 7))


class TestPortRange:
    @pytest.mark.parametrize("bad", [(70_000, 60_000), (5_000, 4_000),
                                     (60_000, 70_000), (-1, 10)])
    def test_reversed_or_out_of_space_range_rejected(self, bad):
        with pytest.raises(ValueError, match="port_range"):
            NatConfig(port_range=bad)

    @pytest.mark.parametrize("bad", [(0.5, 10), (0, 10.0), (True, 10), ("0", 10)])
    def test_non_integer_end_rejected_at_construction(self, bad):
        # (0.5, 10) used to pass here and fail at the first outbound
        # packet, with an AttributeError from RandomStream.randint.
        with pytest.raises(ValueError, match="^port_range must be an integer"):
            NatConfig(port_range=bad)

    @pytest.mark.parametrize("field, value", [("mapping_ttl", 0.0),
                                              ("max_sessions", 0)])
    def test_non_positive_ttl_or_table_size_rejected(self, field, value):
        with pytest.raises(ValueError, match=field):
            NatConfig(**{field: value})

    @pytest.mark.parametrize("field, value", [("mapping_ttl", math.nan),
                                              ("max_sessions", 2.5),
                                              ("denylist_duration", -5)])
    def test_mistyped_or_out_of_range_field_rejected(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} "):
            NatConfig(**{field: value})

    @pytest.mark.parametrize("alloc", list(PortAllocation))
    def test_exhausted_range_raises_session_table_full(self, alloc):
        nat = make_nat(mapping=MappingBehavior.APDM, port_alloc=alloc,
                       port_range=(40_000, 40_001), max_sessions=4)
        internal = Endpoint("lan", 40_000)
        ports = {nat.process_outbound(udp(internal, Endpoint("x", 1000 + i)),
                                      0.0).src.port for i in range(2)}
        assert ports == {40_000, 40_001}
        with pytest.raises(SessionTableFull):
            nat.process_outbound(udp(internal, DST2), 1.0)
        assert nat.session_count() == 2

    def test_expired_mappings_give_range_ports_back(self):
        nat = make_nat(mapping=MappingBehavior.APDM, mapping_ttl=1_000,
                       port_range=(40_000, 40_001))
        for i in range(2):
            nat.process_outbound(udp(INT, Endpoint("x", 1000 + i)), 0.0)
        ext = nat.process_outbound(udp(INT, DST2), 5_000.0).src
        assert ext.port in (40_000, 40_001)
        assert nat.session_count() == 1

    def test_sequential_allocation_starts_inside_range(self):
        nat = make_nat(mapping=MappingBehavior.APDM,
                       port_alloc=PortAllocation.SEQUENTIAL,
                       port_range=(1_000, 1_010))
        ports = [nat.process_outbound(udp(INT, dst), 0.0).src.port
                 for dst in (DST1, DST2)]
        assert ports == [1_000, 1_001]

    def test_sequential_allocation_keeps_default_start(self):
        nat = make_nat(mapping=MappingBehavior.APDM,
                       port_alloc=PortAllocation.SEQUENTIAL)
        ports = [nat.process_outbound(udp(INT, dst), 0.0).src.port
                 for dst in (DST1, DST2)]
        assert ports == [40_000, 40_001]
