"""Measurement campaign harness: population generation, batched trial
execution, aggregation, and result export.

Each trial pairs one client (the dialer of the relayed connection, which
makes it the hole-punch listener) with one private remote peer reachable
only through relays, runs the coordinator, and flattens the outcome into
a plain record suitable for JSON/CSV export and downstream analysis.
"""

from __future__ import annotations

import csv
import hashlib
import json
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass, field
from datetime import datetime, timedelta, timezone
from enum import Enum
from typing import Optional

from .analysis import apply_success_filters, relay_path_bins, validate_records
from .dcutr import DcutrConfig, HolePunch, HolePunchResult, PeerRuntime
from .kernel import RandomStream, Simulation, Topology, derive_seed
from .nat import (Archetype, FilteringBehavior, MappingBehavior, NatConfig,
                  PortAllocation)
from .net import Network
from .relay import RelayService
from .transport import Transport

CAMPAIGN_EPOCH = datetime(2026, 1, 1, tzinfo=timezone.utc)

# Reference figures measured on a live peer-to-peer deployment at network
# scale. They reflect that deployment's real NAT vendor mix, latency
# distribution, and client churn, none of which a desk-scale simulated
# population reproduces; simulations therefore validate directional
# properties (first-attempt dominance, transport parity, reversal lift)
# rather than these absolute numbers.
FIELD_BASELINES = {
    "overall_success_rate": {"value": 0.70, "stddev": 0.071,
                             "reproducible": False},
    "first_attempt_share": {"value": 0.976, "reproducible": False},
    "quic_share": {"value": 0.80, "reproducible": False},
    "rtt_accuracy_within_10pct": {"value": 0.90, "reproducible": False},
}

CSV_COLUMNS = [
    "trial", "timestamp", "client", "remote", "as_id", "private_addrs",
    "public_endpoints", "port_mapping_active", "protocol_filter", "outcome",
    "attempts", "rtt_to_relay_mean", "rtt_to_relay_stddev",
    "rtt_relayed_mean", "rtt_relayed_stddev", "rtt_direct_after_mean",
    "rtt_direct_after_stddev", "relay_addrs", "seed", "config_hash",
]

ARCHETYPE_NATS = {
    Archetype.FULL_CONE: dict(mapping=MappingBehavior.EIM,
                              filtering=FilteringBehavior.EIF),
    Archetype.RESTRICTED_CONE: dict(mapping=MappingBehavior.EIM,
                                    filtering=FilteringBehavior.ADF),
    Archetype.PORT_RESTRICTED_CONE: dict(mapping=MappingBehavior.EIM,
                                         filtering=FilteringBehavior.APDF),
    Archetype.SYMMETRIC: dict(mapping=MappingBehavior.APDM,
                              filtering=FilteringBehavior.APDF,
                              port_alloc=PortAllocation.RANDOM),
}


class TransportPolicy(Enum):
    NONE = "none"
    RANDOM = "random"
    TCP = "TCP"
    QUIC = "QUIC"


@dataclass
class PeerSpec:
    peer_id: str
    nat: Optional[NatConfig]
    port_mapping_active: bool = False
    mapping_lies: bool = False
    transports: frozenset = frozenset({Transport.TCP, Transport.QUIC})
    access_latency_ms: float = 20.0
    latency_stddev_ms: float = 0.0
    nat_leg_ms: float = 2.0
    as_id: int = 64512
    private_addrs: tuple = ()

    def __post_init__(self):
        if not self.transports:
            raise ValueError("transports must be non-empty")
        if self.is_public and self.nat is not None:
            raise ValueError("public peers carry no NAT config")

    @property
    def is_public(self) -> bool:
        return self.nat is None


@dataclass
class PopulationSpec:
    n_clients: int = 50
    n_remotes: int = 50
    n_relays: int = 2
    # Archetype shares; must sum to 1.
    shares: dict = field(default_factory=lambda: {
        "FullCone": 0.10, "RestrictedCone": 0.15,
        "PortRestrictedCone": 0.55, "Symmetric": 0.20})
    # Overrides the Symmetric share when set (endpoint-dependent mappers
    # are exactly the Symmetric archetype here); cone shares renormalize.
    edm_share: Optional[float] = None
    port_mapping_prevalence: float = 0.0
    mapping_lies_share: float = 0.0
    latency_range_ms: tuple = (10.0, 60.0)
    jitter: float = 0.0  # per-draw latency stddev as a fraction of the mean
    nat_leg_fraction: float = 0.1
    seed: int = 0

    def __post_init__(self):
        if min(self.n_clients, self.n_remotes) < 1 or self.n_relays < 1:
            raise ValueError("population counts must be >= 1")
        if abs(sum(self.shares.values()) - 1.0) > 1e-9:
            raise ValueError("archetype shares must sum to 1")
        if self.edm_share is not None and not 0.0 <= self.edm_share <= 1.0:
            raise ValueError("edm_share must be a probability")

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
    spec: PopulationSpec


@dataclass
class CampaignConfig:
    population: PopulationSpec = field(default_factory=PopulationSpec)
    policy: TransportPolicy = TransportPolicy.NONE
    persistent_nat: bool = False
    trial_spacing_s: float = 90.0
    dcutr: DcutrConfig = field(default_factory=DcutrConfig)


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


def _nat_for(archetype_name: str) -> NatConfig:
    return NatConfig(**ARCHETYPE_NATS[Archetype(archetype_name)])


def generate_population(spec: PopulationSpec) -> Population:
    """Deterministic population from the spec's seed. Relays are public;
    remotes are all private (reachable only through relays); clients may
    additionally hold an active port mapping."""
    rng = RandomStream(spec.seed, "population")
    shares = spec.effective_shares()
    names = sorted(shares)
    weights = [shares[n] for n in names]

    def draw_archetype() -> str:
        x = rng.random()
        acc = 0.0
        for name, w in zip(names, weights):
            acc += w
            if x < acc:
                return name
        return names[-1]

    def draw_latency() -> tuple[float, float, float]:
        lo, hi = spec.latency_range_ms
        mean = rng.uniform(lo, hi)
        return mean, spec.jitter * mean, spec.nat_leg_fraction * mean

    def make_peer(peer_id: str, index: int, can_map: bool) -> PeerSpec:
        mean, stddev, leg = draw_latency()
        mapped = can_map and rng.random() < spec.port_mapping_prevalence
        lies = mapped and rng.random() < spec.mapping_lies_share
        return PeerSpec(
            peer_id=peer_id, nat=_nat_for(draw_archetype()),
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
        mean, stddev, _ = draw_latency()
        relays.append(PeerSpec(peer_id=f"relay-{i:02d}", nat=None,
                               access_latency_ms=mean,
                               latency_stddev_ms=stddev, nat_leg_ms=0.0))
    return Population(clients=clients, remotes=remotes, relays=relays,
                      spec=spec)


def _add_peer_host(net: Network, spec: PeerSpec):
    return net.add_host(spec.peer_id, spec.access_latency_ms,
                        spec.latency_stddev_ms, nat_config=spec.nat,
                        nat_leg=spec.nat_leg_ms)


def _add_peer(net: Network, spec: PeerSpec) -> PeerRuntime:
    return PeerRuntime(net, _add_peer_host(net, spec), transports=spec.transports,
                       port_mapping=spec.port_mapping_active,
                       mapping_lies=spec.mapping_lies)


def _pick_filter(policy: TransportPolicy, rng: RandomStream) -> Optional[Transport]:
    if policy is TransportPolicy.NONE:
        return None
    if policy is TransportPolicy.RANDOM:
        return Transport.TCP if rng.random() < 0.5 else Transport.QUIC
    return Transport(policy.value)


def _draw_trial(population: Population, config: CampaignConfig, seed: int,
                trial: int) -> tuple[PeerSpec, PeerSpec, Optional[Transport]]:
    """The (client, remote, transport filter) of one trial."""
    rng = RandomStream(seed, f"trial/{trial}")
    client_spec = population.clients[rng.randint(0, len(population.clients) - 1)]
    remote_spec = population.remotes[rng.randint(0, len(population.remotes) - 1)]
    return client_spec, remote_spec, _pick_filter(config.policy, rng)


def _build_world(population: Population, seed: int,
                 label: str) -> tuple[Network, list[RelayService]]:
    """A world seeded from (seed, label) holding the relays and their
    services; peers join it later."""
    net = Network(Simulation(seed=derive_seed(seed, label)), Topology())
    services = [RelayService(net, _add_peer_host(net, relay_spec))
                for relay_spec in population.relays]
    return net, services


def run_trial(population: Population, config: CampaignConfig, seed: int,
              trial: int) -> dict:
    """One independent trial in a fresh world, fully determined by
    (population seed, campaign seed, trial index)."""
    client_spec, remote_spec, tf = _draw_trial(population, config, seed, trial)
    net, services = _build_world(population, seed, f"sim/{trial}")
    client = _add_peer(net, client_spec)
    remote = _add_peer(net, remote_spec)

    # Relay addresses in the order the reservations are confirmed.
    reserved = []
    for svc in services:
        remote.relay.reserve(svc.endpoint,
                             lambda ok, ep=svc.endpoint: reserved.append((ep, ok)))
    # Let the reservation handshakes settle without idling the NAT
    # mappings toward the relays past their TTL.
    net.sim.run(until=net.sim.now + 6_000)
    relay_addrs = [ep for ep, ok in reserved if ok]

    result = _punch(net, client, remote, relay_addrs, config, tf)
    return _record(result, client_spec, remote_spec, tf, trial, config)


def _punch(net: Network, client: PeerRuntime, remote: PeerRuntime,
           relay_addrs: list, config: CampaignConfig,
           tf: Optional[Transport]) -> Optional[HolePunchResult]:
    """Start one hole punch and step the clock in 1 s slices until it
    reports (None after 1 000 slices without a report)."""
    results = []
    HolePunch(net, client, remote, relay_addrs, config.dcutr,
              transport_filter=tf, on_done=results.append).start()
    for _ in range(1_000):
        if results:
            break
        net.sim.run(until=net.sim.now + 1_000)
    return results[0] if results else None


def _rtt_fields(prefix: str, rtt: Optional[tuple]) -> dict:
    if rtt is None:
        return {f"{prefix}_mean": None, f"{prefix}_stddev": None}
    return {f"{prefix}_mean": round(rtt[0], 6), f"{prefix}_stddev": round(rtt[1], 6)}


def _record(result, client_spec: PeerSpec, remote_spec: PeerSpec,
            tf: Optional[Transport], trial: int, config: CampaignConfig) -> dict:
    ts = CAMPAIGN_EPOCH + timedelta(seconds=trial * config.trial_spacing_s)
    rec = {
        "trial": trial,
        "timestamp": ts.isoformat(),
        "client": client_spec.peer_id,
        "remote": remote_spec.peer_id,
        "as_id": client_spec.as_id,
        "private_addrs": list(client_spec.private_addrs),
        "port_mapping_active": client_spec.port_mapping_active,
        "protocol_filter": tf.value if tf is not None else None,
    }
    if result is None:
        rec.update({"public_endpoints": [], "outcome": "UNKNOWN", "attempts": [],
                    "relay_addrs": []})
        rec.update(_rtt_fields("rtt_to_relay", None))
        rec.update(_rtt_fields("rtt_relayed", None))
        rec.update(_rtt_fields("rtt_direct_after", None))
        return rec
    rec.update({
        "public_endpoints": [[ep, tr] for ep, tr in result.listen_endpoints],
        "outcome": result.outcome.value,
        "attempts": [{
            "index": a.index,
            "outcome": a.outcome.value,
            "transport": a.transport_used.value if a.transport_used else None,
            **_rtt_fields("rtt_relayed", a.rtt_relayed),
        } for a in result.attempts],
        "relay_addrs": list(result.relay_addrs),
    })
    rec.update(_rtt_fields("rtt_to_relay", result.rtt_to_relay))
    rec.update(_rtt_fields("rtt_relayed", result.rtt_relayed))
    rec.update(_rtt_fields("rtt_direct_after", result.rtt_direct_after))
    return rec


def _worker(args) -> list:
    config_blob, seed, trials = args
    config = config_from_dict(json.loads(config_blob))
    population = generate_population(config.population)
    return [run_trial(population, config, seed, t) for t in trials]


def run_campaign(config: CampaignConfig, n_trials: int, seed: int,
                 workers: int = 1) -> list[dict]:
    """Run n_trials independent trials; parallel and serial execution
    produce identical records (each trial is self-seeded)."""
    if n_trials < 1:
        raise ValueError("n_trials must be >= 1")
    population = generate_population(config.population)
    if config.persistent_nat:
        return _run_persistent(population, config, n_trials, seed)
    if workers <= 1:
        return [run_trial(population, config, seed, t) for t in range(n_trials)]
    blob = json.dumps(config_to_dict(config), sort_keys=True)
    chunks = [(blob, seed, list(range(w, n_trials, workers)))
              for w in range(workers)]
    records: list[dict] = []
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for part in pool.map(_worker, chunks):
            records.extend(part)
    records.sort(key=lambda r: r["trial"])
    return records


def _run_persistent(population: Population, config: CampaignConfig,
                    n_trials: int, seed: int) -> list[dict]:
    """Sequential trials in one shared world so NAT device state (mapping
    tables, denylists) carries across trials. Always single-threaded."""
    net, services = _build_world(population, seed, "sim/persistent")
    runtimes: dict[str, PeerRuntime] = {}

    def runtime_for(spec: PeerSpec) -> PeerRuntime:
        if spec.peer_id not in runtimes:
            runtimes[spec.peer_id] = _add_peer(net, spec)
        return runtimes[spec.peer_id]

    records = []
    for trial in range(n_trials):
        client_spec, remote_spec, tf = _draw_trial(population, config, seed, trial)
        client = runtime_for(client_spec)
        remote = runtime_for(remote_spec)
        for svc in services:
            remote.relay.reserve(svc.endpoint, lambda ok: None)
        net.sim.run(until=net.sim.now + 6_000)
        relay_addrs = [svc.endpoint for svc in services
                       if svc.host.id in remote.relay.reservations]
        result = _punch(net, client, remote, relay_addrs, config, tf)
        records.append(_record(result, client_spec, remote_spec, tf, trial, config))
    return records


# -- aggregation ---------------------------------------------------------------


def aggregate(records: list[dict], seed: int = 0, config_hash: str = "",
              min_per_client: int = 0, bin_width: float = 0.05) -> CampaignReport:
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
        subset = [rec for rec in filtered if rec["protocol_filter"] == transport]
        if subset:
            per_transport[transport] = (
                sum(rec["outcome"] == "SUCCESS" for rec in subset) / len(subset))

    rtt_ratios = [round(rec["rtt_direct_after_mean"] / rec["rtt_relayed_mean"], 6)
                  for rec in successes
                  if rec["rtt_direct_after_mean"] and rec["rtt_relayed_mean"]]

    bins, _skipped = relay_path_bins(filtered, bin_width)
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
    """Write records as JSON (single document) or CSV (one row per record,
    nested fields JSON-encoded) based on the path suffix."""
    chash = config_hash(config)
    if str(path).endswith(".csv"):
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=CSV_COLUMNS)
            writer.writeheader()
            for rec in records:
                row = dict(rec)
                for key in ("private_addrs", "public_endpoints", "attempts",
                            "relay_addrs"):
                    row[key] = json.dumps(row[key], sort_keys=True,
                                          separators=(",", ":"))
                row["seed"] = seed
                row["config_hash"] = chash
                writer.writerow(row)
        return
    doc = {"seed": seed, "config_hash": chash,
           "config": config_to_dict(config), "records": records}
    with open(path, "w") as fh:
        json.dump(doc, fh, sort_keys=True, indent=1)
        fh.write("\n")


def export_report(report: CampaignReport, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(asdict(report), fh, sort_keys=True, indent=1)
        fh.write("\n")


def load_results(path: str) -> tuple[list[dict], dict]:
    """Read a results file (JSON or CSV) back into records plus metadata."""
    if str(path).endswith(".csv"):
        records = []
        seed, chash = 0, ""
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                rec = dict(row)
                seed = int(rec.pop("seed"))
                chash = rec.pop("config_hash")
                rec["trial"] = int(rec["trial"])
                rec["as_id"] = int(rec["as_id"])
                rec["port_mapping_active"] = rec["port_mapping_active"] == "True"
                rec["protocol_filter"] = rec["protocol_filter"] or None
                for key in ("private_addrs", "public_endpoints", "attempts",
                            "relay_addrs"):
                    rec[key] = json.loads(rec[key])
                for key in ("rtt_to_relay_mean", "rtt_to_relay_stddev",
                            "rtt_relayed_mean", "rtt_relayed_stddev",
                            "rtt_direct_after_mean", "rtt_direct_after_stddev"):
                    rec[key] = float(rec[key]) if rec[key] else None
                records.append(rec)
        return records, {"seed": seed, "config_hash": chash}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a results document must be a JSON object")
    return doc["records"], {"seed": doc["seed"], "config_hash": doc["config_hash"],
                            "config": doc.get("config")}
