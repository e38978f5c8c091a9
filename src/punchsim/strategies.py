"""Pluggable traversal strategies: birthday-paradox probing with an
analytic oracle, refined asymmetric wait time, role alternation on
retries, and low-TTL NAT priming."""

from __future__ import annotations

import math
from dataclasses import MISSING, dataclass, replace
from enum import Enum
from typing import Optional

from .kernel import RandomStream, Topology, bounded, check_fields, run_strided
from .nat import DELIVER, NatConfig, NatState, SessionTableFull
from .packets import UDP_DATAGRAM, Endpoint, Packet, unchecked_endpoint

DEFAULT_PORT_SPACE = 65_536


class BirthdayScenario(Enum):
    EDM_VS_EIM = "mixed"
    EDM_VS_EDM = "both-edm"


# Module names for the members, as for nat's (see packets.py).
EDM_VS_EIM, EDM_VS_EDM = BirthdayScenario


@dataclass
class BirthdayPlan:
    m_open: int = bounded(MISSING, 1)  # MISSING: no default
    k_probe: int = bounded(MISSING, 1)
    port_space: int = bounded(DEFAULT_PORT_SPACE, 1)
    scenario: BirthdayScenario = EDM_VS_EIM

    def __post_init__(self):
        check_fields(self)
        if max(self.m_open, self.k_probe) > self.port_space:
            raise ValueError(f"m_open or k_probe exceeds port_space {self.port_space}")


def _log_comb(n: int, k: int) -> float:
    """log C(n, k), for 0 <= k <= n."""
    return math.lgamma(n + 1) - math.lgamma(k + 1) - math.lgamma(n - k + 1)


def birthday_probability(plan: BirthdayPlan) -> float:
    """Analytic collision probability for a birthday-style punch.

    Mixed case (one endpoint-dependent mapper): the k distinct probed
    ports must intersect the m randomly mapped ports, an exact
    hypergeometric tail computed in log-space.

    Both-EDM case: each of the k*m (probe, opening) pairs must hit a
    specific source/destination port pair, independent with probability
    1/S^2 under the uniform-allocation model.
    """
    replace(plan)  # checks fields assigned after construction too
    s, m, k = plan.port_space, plan.m_open, plan.k_probe
    if plan.scenario is EDM_VS_EIM:
        if k > s - m:
            return 1.0
        log_miss = _log_comb(s - m, k) - _log_comb(s, k)
        return -math.expm1(log_miss)
    return -math.expm1(k * m * math.log1p(-1.0 / (s * s)))


def expected_gain(edm_share: float, mixed_success: float) -> float:
    """Expected overall success-rate improvement from applying birthday
    probing to the mixed EDM/EIM share of peer pairings."""
    if not 0.0 <= edm_share <= 1.0 or not 0.0 <= mixed_success <= 1.0:
        raise ValueError("inputs must be probabilities")
    return mixed_pair_share(edm_share) * mixed_success


def mixed_pair_share(edm_share: float) -> float:
    return 2.0 * edm_share * (1.0 - edm_share)


def both_edm_pair_share(edm_share: float) -> float:
    return edm_share * edm_share


def refined_wait_time(rtt_listener_initiator: float, rtt_listener_nat: float,
                      rtt_initiator_nat: float) -> float:
    """Asymmetry-corrected synchronization delay before the initiator's
    dial, clamped at zero; reduces to half the peer RTT when both access
    legs are equal."""
    if min(rtt_listener_initiator, rtt_listener_nat, rtt_initiator_nat) < 0:
        raise ValueError("RTT inputs must be non-negative")
    t = 0.5 * (rtt_listener_initiator + rtt_listener_nat - rtt_initiator_nat)
    return max(0.0, t)


def assign_roles(attempt_index: int, base: tuple) -> tuple:
    """Role assignment for a retry: odd attempts keep the base
    assignment, even attempts swap it."""
    if attempt_index < 1:
        raise ValueError("attempt_index must be >= 1")
    return base if attempt_index % 2 == 1 else (base[1], base[0])


def dial_arrival_skew(topology: Topology, initiator: str, listener: str,
                      wait_ms: float, relay_one_way_ms: float) -> float:
    """Absolute difference between the times the two synchronized dials
    pass their own NATs, given the initiator waits ``wait_ms`` after
    sending its go signal through a relay path with the given one-way
    latency. Zero means the dials cross symmetrically."""
    t_pass_initiator = wait_ms + topology.leg(initiator)
    t_pass_listener = relay_one_way_ms + topology.leg(listener)
    return abs(t_pass_initiator - t_pass_listener)


class PrimingConfigError(ValueError):
    """Low-TTL priming packets would reach the remote NAT."""


def check_priming_ttl(topology: Topology, from_host: str, to_host: str,
                      ttl: int) -> None:
    if ttl >= topology.hop_distance(from_host, to_host):
        raise PrimingConfigError(
            f"ttl={ttl} reaches the remote side at hop distance "
            f"{topology.hop_distance(from_host, to_host)}")


def birthday_punch(plan: BirthdayPlan, edm_nat: NatState, edm_host: str,
                   peer_external: Endpoint, rng: RandomStream,
                   prober_nat: Optional[NatState] = None,
                   prober_host: str = "prober", now: float = 0.0) -> bool:
    """Execute one birthday-style punch against a NAT with random port
    allocation and report whether any probe landed.

    The EDM side opens ``m_open`` outbound mappings from distinct internal
    ports; the other side probes ``k_probe`` distinct uniformly random
    ports on the EDM side's public host. The punch succeeds iff a probe
    hits an active mapping whose filtering admits it.

    In the both-EDM scenario the EDM side must guess the peer's mapped
    port, so each opening targets a uniformly random port, and the probes
    themselves leave through the prober's own endpoint-dependent NAT.

    The plan is not checked again here, once per punch, as `run_trial`
    does not check its config; `birthday_monte_carlo` checks it once.
    """
    lo, hi = edm_nat.config.port_range
    if hi - lo + 1 != plan.port_space:
        raise ValueError("plan port_space does not match the NAT's range")
    both_edm = plan.scenario is EDM_VS_EDM
    # Validate the highest source ports and one packet up front, so a plan
    # too large for them fails before any NAT is touched; every other
    # endpoint below has a port from a checked range and skips validation.
    # The packet carries every opening and direct probe, readdressed in
    # place: the NAT keeps no reference to the packet it gets.
    Endpoint(edm_host, 20_000 + plan.m_open - 1)
    if prober_nat is not None:
        Endpoint(prober_host, 30_000 + plan.k_probe - 1)
    carrier = Packet(src=peer_external,
                     dst=Endpoint(edm_nat.public_host, lo),
                     kind=UDP_DATAGRAM)
    carrier.dst = peer_external  # every opening's target unless both-EDM
    for i in range(plan.m_open):
        if both_edm:
            carrier.dst = unchecked_endpoint((peer_external.host, rng.randint(lo, hi)))
        carrier.src = unchecked_endpoint((edm_host, 20_000 + i))
        # SessionTableFull propagates
        edm_nat.process_outbound(carrier, now)

    probe_ports = rng.sample(range(lo, hi + 1), plan.k_probe)
    public_host = edm_nat.public_host
    carrier.src = peer_external
    for j, dst_port in enumerate(probe_ports):
        carrier.dst = unchecked_endpoint((public_host, dst_port))
        if prober_nat is not None:
            carrier.src = unchecked_endpoint((prober_host, 30_000 + j))
            probe = prober_nat.process_outbound(carrier, now)
        else:
            probe = carrier
        action, _ = edm_nat.process_inbound(probe, now)
        if action is DELIVER:
            return True
    return False


def _monte_carlo_punches(args) -> list:
    plan, nat_config, seed, indices = args
    peer = Endpoint("peer", 4242)
    return [birthday_punch(plan,
                           NatState(nat_config, public_host="edm#nat",
                                    rng=RandomStream(seed, f"nat/{i}")),
                           "edm-host", peer, RandomStream(seed, f"mc/{i}"))
            for i in indices]


def birthday_monte_carlo(plan: BirthdayPlan, nat_config: NatConfig, seed: int,
                         n: int, workers: int = 1) -> list:
    """The verdicts of n mixed-scenario birthday punches, in index order.

    Punch i opens its mappings on a fresh NAT with `nat_config`, whose
    ports come from stream ``nat/i``, and probes from the public endpoint
    peer:4242 with stream ``mc/i``. Each punch is self-seeded, so
    ``workers`` processes (`kernel.run_strided`, the pool `run_campaign`
    uses) return the same verdicts as one.
    """
    replace(plan)  # checks fields assigned after construction too
    if plan.scenario is not EDM_VS_EIM:
        raise ValueError("the Monte Carlo punches the mixed scenario only")
    return run_strided(_monte_carlo_punches, (plan, nat_config, seed), n, workers)
