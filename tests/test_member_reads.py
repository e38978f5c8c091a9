"""The packet paths compare Enum members through module names.

On Python 3.10 and 3.11 the Enum metaclass defines __getattr__, so each
`SomeEnum.MEMBER` read goes through CPython's slow attribute hook. These
tests wrap the metaclass's __getattribute__, count the members it returns
by the code object that read them, and check that the per-packet and
per-probe functions read none.
"""

import sys
from collections import Counter
from contextlib import contextmanager

from punchsim import campaign, dcutr, nat, net, packets, strategies, transport
from punchsim.campaign import CampaignConfig, PopulationSpec, TransportPolicy, run_campaign
from punchsim.kernel import RandomStream, Simulation
from punchsim.nat import InboundAction, NatConfig, NatState
from punchsim.packets import Endpoint
from punchsim.strategies import BirthdayPlan, birthday_punch
from punchsim.transport import TcpPort

# Functions that run per packet or per probe.
DATA_PATH = {
    nat.NatState.process_outbound, nat.NatState._alloc_port,
    nat.NatState.process_inbound, nat.NatState._note_unsolicited,
    net.Network.send, net.Network._at_receiver_nat, net.Host.datagram,
    net.Host._dispatch, net.Host.serve,
    transport.Port._send, transport.TcpPort._on_packet, transport.QuicPort._on_packet,
    vars(packets.PacketKind)["is_tcp"].fget, packets.message_bytes,
    *(rule for rule in packets.MESSAGES.values() if callable(rule)),
    strategies.birthday_punch,
}
DATA_PATH_CODE = {fn.__code__ for fn in DATA_PATH}
# Functions that run several times per trial.
PER_TRIAL = {
    dcutr._preferred, vars(dcutr.HolePunch)["done"].fget, dcutr.PeerRuntime.__init__,
    dcutr.HolePunch._on_client_circuit, dcutr.HolePunch._is_current,
    dcutr.HolePunch._act, dcutr.HolePunch._on_established,
    campaign._pick_filter,
}
PER_TRIAL_CODE = {fn.__code__ for fn in PER_TRIAL}


def name_of(code) -> str:
    return getattr(code, "co_qualname", code.co_name)  # 3.10 has no co_qualname


@contextmanager
def member_reads():
    """A Counter of Enum member reads through their class, by the code
    object that made each read."""
    meta = type(InboundAction)  # EnumType; EnumMeta on 3.10
    own = vars(meta).get("__getattribute__")
    inner = meta.__getattribute__
    reads = Counter()

    def getattribute(cls, name):
        value = inner(cls, name)
        if type(value) is cls:
            reads[sys._getframe(1).f_code] += 1
        return value

    meta.__getattribute__ = getattribute
    try:
        yield reads
    finally:
        if own is None:
            del meta.__getattribute__
        else:
            meta.__getattribute__ = own


def reads_in(codes: set, reads: Counter) -> dict:
    return {name_of(code): n for code, n in reads.items() if code in codes}


def data_path_reads(reads: Counter) -> dict:
    return reads_in(DATA_PATH_CODE, reads)


def test_the_counter_sees_a_member_read():
    with member_reads() as reads:
        InboundAction.DROP
    assert reads == {test_the_counter_sees_a_member_read.__code__: 1}
    assert "__getattribute__" not in vars(type(InboundAction))


def test_a_campaign_reads_no_member_on_the_data_path():
    config = CampaignConfig(
        population=PopulationSpec(n_clients=6, n_remotes=6, jitter=0.5,
                                  port_mapping_prevalence=0.2, seed=3),
        policy=TransportPolicy.RANDOM)
    with member_reads() as reads:
        run_campaign(config, n_trials=12, seed=7)
        # A NAT that answers an unsolicited SYN with a RST, which no
        # campaign archetype does.
        network = net.Network(Simulation(seed=1))
        network.add_host("a", 10.0)
        network.add_host("b", 20.0, nat_config=NatConfig(rst_on_unsolicited_tcp=True))
        results = []
        TcpPort(network.hosts["a"]).dial(
            Endpoint(network.hosts["b"].nat.public_host, 40_000), on_done=results.append)
        network.sim.run(until=20_000)
    assert results[0].reason == "rst"
    assert data_path_reads(reads) == {}


def punch_reads(size: int) -> Counter:
    plan = BirthdayPlan(m_open=size, k_probe=size)
    edm = NatConfig(mapping=nat.APDM, filtering=nat.APDF, port_alloc=nat.RANDOM)
    with member_reads() as reads:
        birthday_punch(plan, NatState(edm, "edm#nat", RandomStream(5, "nat/0")),
                       "edm-host", Endpoint("peer", 4242), RandomStream(5, "mc/0"))
    return reads


def test_a_punch_reads_as_many_members_at_any_size():
    small, large = punch_reads(16), punch_reads(256)
    assert data_path_reads(large) == {}
    assert sum(large.values()) == sum(small.values())


def test_a_trial_reads_no_member_in_its_per_trial_functions():
    # Each transport filter policy, so `_pick_filter` takes every branch.
    with member_reads() as reads:
        for policy in TransportPolicy:
            config = CampaignConfig(
                population=PopulationSpec(n_clients=6, n_remotes=6, jitter=0.5,
                                          port_mapping_prevalence=0.2, seed=3),
                policy=policy)
            run_campaign(config, n_trials=12, seed=7)
    assert reads_in(PER_TRIAL_CODE, reads) == {}
