"""The two-peer punch world that the DCUtR and acceptance tests share.

A public relay, a client (the listener side of a punch) and a remote (the
initiator side), each peer behind its own NAT or public. The remote holds
a reservation on the relay before the world is handed out.
"""

from punchsim.dcutr import HolePunch, PeerRuntime
from punchsim.kernel import Simulation
from punchsim.nat import FilteringBehavior, MappingBehavior, NatConfig
from punchsim.net import Network
from punchsim.relay import REQUEST_TIMEOUT_MS, RelayService

CONE = NatConfig(mapping=MappingBehavior.EIM, filtering=FilteringBehavior.APDF)


def build_world(client_nat=CONE, remote_nat=CONE, client_mapping=False,
                mapping_lies=False, seed=3, client_lat=10.0, remote_lat=20.0,
                client_leg=1.0, remote_leg=2.0, loss=0.0, relay_lat=5.0,
                relay_kwargs=None):
    """(net, svc, client, remote). A NAT is a `NatConfig`, or None for a
    public peer; `relay_kwargs` go to the `RelayService`."""
    net = Network(Simulation(seed=seed), loss_rate=loss)
    net.add_host("relay", relay_lat)
    svc = RelayService(net.hosts["relay"], **(relay_kwargs or {}))
    net.add_host("client", client_lat, nat_config=client_nat, nat_leg=client_leg)
    net.add_host("remote", remote_lat, nat_config=remote_nat, nat_leg=remote_leg)
    client = PeerRuntime(net.hosts["client"], port_mapping=client_mapping,
                         mapping_lies=mapping_lies)
    remote = PeerRuntime(net.hosts["remote"])
    remote.relay.reserve(svc.endpoint, lambda ok: None)
    net.sim.run(until=net.sim.now + (REQUEST_TIMEOUT_MS + 1_000))
    return net, svc, client, remote


def run_punch(net, client, remote, relay_addrs, cfg=None, tf=None):
    """Run one punch for up to 600 s of simulated time; it must end."""
    hp = HolePunch(client, remote, relay_addrs, cfg, transport_filter=tf)
    hp.start()
    net.sim.run(until=net.sim.now + 600_000)
    assert hp.done, "hole punch never finished"
    return hp, hp.result
