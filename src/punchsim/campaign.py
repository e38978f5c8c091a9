"""Measurement campaign harness: population generation, batched trial
execution, aggregation, and the results files of a campaign: the format a
path takes, and the seed and config they carry. `results` holds the format.

Each trial pairs one client (the dialer of the relayed connection, which
makes it the hole-punch listener) with one private remote peer reachable
only through relays, runs the coordinator, and flattens the outcome into
a record of `results.RECORD_FIELDS`."""

from __future__ import annotations

import hashlib
import json
from bisect import bisect_right
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from itertools import accumulate
from typing import Optional

from .analysis import apply_success_filters, latency_ratios, relay_path_bins
from .dcutr import DcutrConfig, HolePunch, PeerRuntime
from .kernel import (RandomStream, Simulation, bounded, check_fields, check_number,
                     derive_seed, run_strided)
from .nat import ARCHETYPE_NATS, Archetype, NatConfig
from .net import Network
from .relay import REQUEST_TIMEOUT_MS, RelayService
from .results import read_csv, validate_records, write_csv, write_json
from .transport import QUIC, TCP, Transport

CAMPAIGN_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)

ARCHETYPE_NAMES = {archetype.value for archetype in Archetype}


class TransportPolicy(Enum):
    NONE = "none"
    RANDOM = "random"
    TCP = "TCP"
    QUIC = "QUIC"


# Module names for the members `_pick_filter` reads once per trial (see packets.py).
POLICY_NONE, POLICY_RANDOM = TransportPolicy.NONE, TransportPolicy.RANDOM


@dataclass
class PeerSpec:
    peer_id: str
    nat: Optional[NatConfig]
    port_mapping_active: bool = False
    mapping_lies: bool = False
    access_latency_ms: float = 20.0
    latency_stddev_ms: float = 0.0
    nat_leg_ms: float = 2.0
    as_id: int = 64512
    private_addrs: tuple = ()


@dataclass
class PopulationSpec:
    n_clients: int = bounded(50, 1)
    n_remotes: int = bounded(50, 1)
    n_relays: int = bounded(2, 1)
    # Archetype shares; must sum to 1.
    shares: dict = field(default_factory=lambda: {
        "FullCone": 0.10, "RestrictedCone": 0.15,
        "PortRestrictedCone": 0.55, "Symmetric": 0.20})
    # Overrides the Symmetric share when set (EDM is the Symmetric archetype
    # here); the cone shares renormalize, and below 1 one must be positive.
    edm_share: Optional[float] = None
    port_mapping_prevalence: float = bounded(0.0, 0.0, 1.0)
    mapping_lies_share: float = bounded(0.0, 0.0, 1.0)
    latency_range_ms: tuple = (10.0, 60.0)
    jitter: float = bounded(0.0, 0.0)  # per-draw latency stddev as a fraction of the mean
    nat_leg_fraction: float = bounded(0.1, 0.0)
    seed: int = 0

    def __post_init__(self):
        check_fields(self)
        if not isinstance(self.shares, dict) or not set(self.shares) <= ARCHETYPE_NAMES:
            raise ValueError(f"shares must map archetypes {sorted(ARCHETYPE_NAMES)} "
                             "to probabilities")
        for name, share in self.shares.items():
            check_number(f"shares[{name}]", share, 0.0, 1.0)
        if abs(sum(self.shares.values()) - 1.0) > 1e-9:
            raise ValueError("archetype shares must sum to 1")
        if self.edm_share is not None:
            check_number("edm_share", self.edm_share, 0.0, 1.0)
            if self.edm_share < 1 and not any(
                    v > 0 for k, v in self.shares.items() if k != "Symmetric"):
                raise ValueError("an edm_share below 1 needs a positive non-Symmetric share")
        low_high = self.latency_range_ms
        if not isinstance(low_high, (tuple, list)) or len(low_high) != 2:
            raise ValueError("latency_range_ms must be a [low, high] pair")
        for value in low_high:
            check_number("latency_range_ms", value, lo=0.0)

    def effective_shares(self) -> dict:
        if self.edm_share is None:
            return dict(self.shares)
        cone_total = sum(v for k, v in self.shares.items() if k != "Symmetric")
        scale = (1.0 - self.edm_share) / cone_total if cone_total else 0.0
        out = {k: v * scale for k, v in self.shares.items() if k != "Symmetric"}
        out["Symmetric"] = self.edm_share
        return out


@dataclass
class Population:
    clients: list
    remotes: list
    relays: list


@dataclass
class CampaignConfig:
    population: PopulationSpec = field(default_factory=PopulationSpec)
    policy: TransportPolicy = TransportPolicy.NONE
    persistent_nat: bool = False
    # Over a day, timestamps pass year 9999 after a few million trials.
    trial_spacing_s: float = bounded(90.0, 0.0, 86_400.0)
    dcutr: DcutrConfig = field(default_factory=DcutrConfig)

    def __post_init__(self):
        check_fields(self)


@dataclass
class CampaignReport:
    n_results: int
    outcome_distribution: dict
    success_rate: Optional[float]
    n_filtered: int
    attempt_histogram: dict
    per_transport_success: dict
    rtt_ratios: list
    relay_path_bins: dict
    seed: int
    config_hash: str


def generate_population(spec: PopulationSpec) -> Population:
    """Deterministic population from the spec's seed. Relays are public;
    remotes are all private (reachable only through relays); clients may
    additionally hold an active port mapping."""
    rng = RandomStream(spec.seed, "population")
    shares = spec.effective_shares()
    names = sorted(shares)
    bounds = list(accumulate(shares[n] for n in names))  # running sums

    def draw_archetype() -> str:  # clamped: rounding may leave a draw past the sum
        return names[min(bisect_right(bounds, rng.random()), len(names) - 1)]

    def draw_access() -> tuple[float, float, float]:
        lo, hi = spec.latency_range_ms
        mean = rng.uniform(lo, hi)
        return mean, spec.jitter * mean, spec.nat_leg_fraction * mean

    def make_peer(peer_id: str, index: int, can_map: bool) -> PeerSpec:
        mean, stddev, leg = draw_access()
        mapped = can_map and rng.random() < spec.port_mapping_prevalence
        lies = mapped and rng.random() < spec.mapping_lies_share
        return PeerSpec(
            peer_id=peer_id,
            nat=NatConfig(**ARCHETYPE_NATS[Archetype(draw_archetype())]),
            port_mapping_active=mapped, mapping_lies=lies,
            access_latency_ms=mean, latency_stddev_ms=stddev, nat_leg_ms=leg,
            as_id=64512 + index % 64,
            private_addrs=(f"10.{index // 256 % 256}.{index % 256}.1",))

    clients = [make_peer(f"client-{i:05d}", i, True)
               for i in range(spec.n_clients)]
    remotes = [make_peer(f"remote-{i:05d}", i, False)
               for i in range(spec.n_remotes)]
    relays = []
    for i in range(spec.n_relays):
        mean, stddev, _ = draw_access()
        relays.append(PeerSpec(peer_id=f"relay-{i:02d}", nat=None,
                               access_latency_ms=mean,
                               latency_stddev_ms=stddev, nat_leg_ms=0.0))
    return Population(clients=clients, remotes=remotes, relays=relays)


def _add_peer_host(net: Network, spec: PeerSpec):
    return net.add_host(spec.peer_id, spec.access_latency_ms,
                        spec.latency_stddev_ms, nat_config=spec.nat,
                        nat_leg=spec.nat_leg_ms)


def _join(world: tuple, spec: PeerSpec) -> PeerRuntime:
    """The peer's runtime in `world`, added on its first trial there."""
    net, _, peers = world
    if spec.peer_id not in peers:
        peers[spec.peer_id] = PeerRuntime(_add_peer_host(net, spec),
                                          port_mapping=spec.port_mapping_active,
                                          mapping_lies=spec.mapping_lies)
    return peers[spec.peer_id]


def _pick_filter(policy: TransportPolicy, rng: RandomStream) -> Optional[Transport]:
    if policy is POLICY_NONE:
        return None
    if policy is POLICY_RANDOM:
        return TCP if rng.random() < 0.5 else QUIC
    return Transport(policy.value)


def _draw_trial(population: Population, config: CampaignConfig, seed: int,
                trial: int) -> tuple[PeerSpec, PeerSpec, Optional[Transport]]:
    """The (client, remote, transport filter) of one trial."""
    rng = RandomStream(seed, f"trial/{trial}")
    client_spec = population.clients[rng.randint(0, len(population.clients) - 1)]
    remote_spec = population.remotes[rng.randint(0, len(population.remotes) - 1)]
    return client_spec, remote_spec, _pick_filter(config.policy, rng)


def _build_world(population: Population, seed: int, label: str) -> tuple:
    """A world seeded from (seed, label): its network, the relays' services,
    and a table of the peers that join it later, by peer id."""
    net = Network(Simulation(seed=derive_seed(seed, label)))
    services = [RelayService(_add_peer_host(net, relay_spec))
                for relay_spec in population.relays]
    return net, services, {}


def _close_world(world: tuple) -> None:
    """Free `world` by reference counting once no trial will run in it
    again: its peers forget their circuits and connections and the
    network its events, bindings and hosts."""
    net, _, peers = world
    for runtime in peers.values():
        runtime.close()
    net.close()


def run_trial(population: Population, config: CampaignConfig, seed: int,
              trial: int) -> dict:
    """One independent trial in a fresh world, fully determined by
    (population seed, campaign seed, trial index). It does not check
    `config` again, as `run_campaign` does: perfbench times it per trial."""
    world = _build_world(population, seed, f"sim/{trial}")
    record = _trial_in(world, population, config, seed, trial, shared=False)
    _close_world(world)
    return record


def _trial_in(world: tuple, population: Population, config: CampaignConfig,
              seed: int, trial: int, shared: bool) -> dict:
    """Trial `trial` in `world`: draw its pair, join both peers, reserve
    the remote on every relay and let 6 s pass. Then start the hole punch
    and step the clock in 1 s slices until it is done; after 1 000 slices
    it is cancelled. `shared` says whether the world outlives the trial."""
    net, services, _ = world
    client_spec, remote_spec, tf = _draw_trial(population, config, seed, trial)
    client = _join(world, client_spec)
    remote = _join(world, remote_spec)
    for svc in services:
        remote.relay.reserve(svc.endpoint, lambda ok: None)
    # Let every reservation settle (answered or timed out) without idling
    # the NAT mappings toward the relays past their TTL.
    net.sim.run(until=net.sim.now + (REQUEST_TIMEOUT_MS + 1_000))
    # A trial's own world holds only its reservations, in the order they
    # were confirmed; a shared world lists, in relay order, every one the
    # remote holds, earlier trials' included.
    held = remote.relay.reservations
    endpoints = {svc.host.id: svc.endpoint for svc in services}
    relay_addrs = [endpoints[relay_id] for relay_id in (endpoints if shared else held)
                   if relay_id in held]
    punch = HolePunch(client, remote, relay_addrs, config.dcutr, transport_filter=tf)
    punch.start()
    for _ in range(1_000):
        if punch.done:
            break
        net.sim.run(until=net.sim.now + 1_000)
    punch.cancel()  # a no-op once the punch is done
    return _record(punch, client_spec, remote_spec, trial, config)


def _rtt_fields(prefix: str, rtt: Optional[tuple]) -> dict:
    if rtt is None:
        return {f"{prefix}_mean": None, f"{prefix}_stddev": None}
    return {f"{prefix}_mean": round(rtt[0], 6), f"{prefix}_stddev": round(rtt[1], 6)}


def _record(punch: HolePunch, client_spec: PeerSpec, remote_spec: PeerSpec,
            trial: int, config: CampaignConfig) -> dict:
    result, tf = punch.result, punch.filter
    ts = CAMPAIGN_EPOCH + timedelta(seconds=trial * config.trial_spacing_s)
    return {  # in `results.RECORD_FIELDS` order
        "trial": trial,
        "timestamp": ts.isoformat(),
        "client": client_spec.peer_id,
        "remote": remote_spec.peer_id,
        "as_id": client_spec.as_id,
        "private_addrs": list(client_spec.private_addrs),
        "public_endpoints": [[ep, tr] for ep, tr in result.listen_endpoints],
        "port_mapping_active": client_spec.port_mapping_active,
        "protocol_filter": tf.value if tf is not None else None,
        "outcome": result.outcome.value,
        "attempts": [{
            "index": a.index,
            "outcome": a.outcome.value,
            "transport": a.transport_used.value if a.transport_used else None,
            **_rtt_fields("rtt_relayed", a.rtt_relayed),
        } for a in result.attempts],
        **_rtt_fields("rtt_to_relay", result.rtt_to_relay),
        **_rtt_fields("rtt_relayed", result.rtt_relayed),
        **_rtt_fields("rtt_direct_after", result.rtt_direct_after),
        "relay_addrs": [str(ep) for ep in punch.relay_addrs],
    }


def _run_trials(args) -> list:
    population, config, seed, trials = args
    return [run_trial(population, config, seed, t) for t in trials]


def run_campaign(config: CampaignConfig, n_trials: int, seed: int,
                 workers: int = 1) -> list[dict]:
    """Run n_trials independent trials; parallel and serial execution
    produce identical records (each trial is self-seeded)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    for part in (config, config.population, config.dcutr):
        replace(part)  # checks fields assigned after construction too
    population = generate_population(config.population)
    if config.persistent_nat:
        # Sequential trials in one shared world so NAT device state (mapping
        # tables, denylists) carries across trials. Always single-threaded.
        world = _build_world(population, seed, "sim/persistent")
        records = [_trial_in(world, population, config, seed, trial, shared=True)
                   for trial in range(n_trials)]
        _close_world(world)
        return records
    return run_strided(_run_trials, (population, config, seed), n_trials, workers)


# -- aggregation ---------------------------------------------------------------


def aggregate(records: list[dict], seed: int = 0, config_hash: str = "",
              min_per_client: int = 0) -> CampaignReport:
    """Campaign summary over validated records and the standard success
    filters of the analysis module (`analysis.apply_success_filters`),
    with relay-path bins from `analysis.relay_path_bins`."""
    if not records:
        raise ValueError("no records to aggregate")
    validate_records(records)
    distribution: dict[str, int] = {}
    for rec in records:
        distribution[rec["outcome"]] = distribution.get(rec["outcome"], 0) + 1

    filtered = apply_success_filters(records, min_per_client)
    successes = [rec for rec in filtered if rec["outcome"] == "SUCCESS"]
    success_rate = len(successes) / len(filtered) if filtered else None

    attempt_histogram: dict[int, int] = {}
    for rec in successes:
        n = len(rec["attempts"])
        attempt_histogram[n] = attempt_histogram.get(n, 0) + 1

    per_transport: dict[str, Optional[float]] = {}
    for transport in ("TCP", "QUIC"):
        subset = [rec for rec in filtered if rec.get("protocol_filter") == transport]
        if subset:
            per_transport[transport] = (
                sum(rec["outcome"] == "SUCCESS" for rec in subset) / len(subset))

    rtt_ratios = [round(ratio, 6) for ratio in latency_ratios(successes)]

    bins, _skipped = relay_path_bins(filtered)
    relay_path = {label: {"successes": s, "total": n}
                  for label, (s, n) in bins.items()}

    return CampaignReport(
        n_results=len(records), outcome_distribution=distribution,
        success_rate=success_rate, n_filtered=len(filtered),
        attempt_histogram=attempt_histogram,
        per_transport_success=per_transport, rtt_ratios=rtt_ratios,
        relay_path_bins=relay_path, seed=seed, config_hash=config_hash)


# -- configuration and export -----------------------------------------------------


# Strategy switches whose home is DcutrConfig. Configs may also set them at
# the top level, and exports mirror them there, so results files and
# config hashes stay comparable with those written before the move.
DCUTR_ALIASES = ("refined_wait", "alternate_roles", "ttl_priming")


def config_to_dict(config: CampaignConfig) -> dict:
    blob = asdict(config)
    blob["policy"] = config.policy.value
    pop = blob["population"]
    pop["latency_range_ms"] = list(pop["latency_range_ms"])
    for key in DCUTR_ALIASES:
        blob[key] = blob["dcutr"][key]
    return blob


def config_from_dict(raw: dict) -> CampaignConfig:
    raw = dict(raw)
    pop_raw = dict(raw.pop("population", {}))
    if "latency_range_ms" in pop_raw:
        pop_raw["latency_range_ms"] = tuple(pop_raw["latency_range_ms"])
    dcutr_raw = dict(raw.pop("dcutr", {}))
    for key in DCUTR_ALIASES:
        if key in raw:
            value = raw.pop(key)
            DcutrConfig(**{key: value})  # the field's own check, since 1 == True
            if dcutr_raw.setdefault(key, value) != value:
                raise ValueError(f"{key} is {value!r} at the top level but "
                                 f"{dcutr_raw[key]!r} under dcutr")
    policy = TransportPolicy(raw.pop("policy", "none"))
    return CampaignConfig(population=PopulationSpec(**pop_raw),
                          policy=policy, dcutr=DcutrConfig(**dcutr_raw),
                          **raw)


def config_hash(config: CampaignConfig) -> str:
    blob = json.dumps(config_to_dict(config), sort_keys=True,
                      separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()[:16]


def export_results(records: list[dict], path: str, seed: int,
                   config: CampaignConfig) -> None:
    """Write records with the campaign's seed and config hash: as CSV for a
    .csv path, else as one JSON document of `seed`, `config_hash`, `config`
    and `records`, both in the layout of `results`."""
    if str(path).endswith(".csv"):
        return write_csv(records, path, seed, config_hash(config))
    write_json({"seed": seed, "config_hash": config_hash(config),
                "config": config_to_dict(config), "records": records}, path)


def export_report(report: CampaignReport, path: str) -> None:
    write_json(asdict(report), path)


def load_results(path: str) -> tuple[list[dict], dict]:
    """The records of a file that `export_results` wrote, and its `seed` and
    `config_hash`, with `config` for JSON. The JSON document is read as UTF-8,
    with or without a byte-order mark."""
    if str(path).endswith(".csv"):
        return read_csv(path)
    with open(path, encoding="utf-8-sig") as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a results document must be a JSON object")
    return doc["records"], {"seed": doc["seed"], "config_hash": doc["config_hash"],
                            "config": doc.get("config")}
