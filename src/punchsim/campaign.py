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
from dataclasses import asdict, dataclass, field, replace
from datetime import datetime, timedelta, timezone
from enum import Enum
from functools import partial
from json.encoder import c_make_encoder, encode_basestring_ascii
from operator import countOf
from typing import Optional

from .analysis import (NULLABLE, RECORD_FIELDS, apply_success_filters,
                       latency_ratios, relay_path_bins, validate_records)
from .dcutr import DcutrConfig, HolePunch, HolePunchResult, PeerRuntime
from .kernel import (RandomStream, Simulation, Topology, bounded, check_fields,
                     check_number, derive_seed, run_strided)
from .nat import ARCHETYPE_NATS, Archetype, NatConfig
from .net import Network
from .relay import RelayService
from .transport import QUIC, TCP, Transport

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

CSV_COLUMNS = [*RECORD_FIELDS, "seed", "config_hash"]
# Per record field in column order, whether its CSV cell holds JSON; `csv`
# writes the others with str(), null as an empty cell.
_CSV_CELLS = tuple((k, cell == "json") for k, (_, cell, _) in RECORD_FIELDS.items())

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
    # Overrides the Symmetric share when set (endpoint-dependent mappers
    # are exactly the Symmetric archetype here); cone shares renormalize.
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
        mean, stddev, _ = draw_latency()
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
        peers[spec.peer_id] = PeerRuntime(net, _add_peer_host(net, spec),
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
    net = Network(Simulation(seed=derive_seed(seed, label)), Topology())
    services = [RelayService(net, _add_peer_host(net, relay_spec))
                for relay_spec in population.relays]
    return net, services, {}


def run_trial(population: Population, config: CampaignConfig, seed: int,
              trial: int) -> dict:
    """One independent trial in a fresh world, fully determined by
    (population seed, campaign seed, trial index). It does not check
    `config` again, as `run_campaign` does: perfbench times it per trial."""
    world = _build_world(population, seed, f"sim/{trial}")
    return _trial_in(world, population, config, seed, trial, shared=False)


def _trial_in(world: tuple, population: Population, config: CampaignConfig,
              seed: int, trial: int, shared: bool) -> dict:
    """Trial `trial` in `world`: draw its pair, join both peers, reserve
    the remote on every relay and let 6 s pass. Then start the hole punch
    and step the clock in 1 s slices until it reports; after 1 000 slices
    it is cancelled. `shared` says whether the world outlives the trial."""
    net, services, _ = world
    client_spec, remote_spec, tf = _draw_trial(population, config, seed, trial)
    client = _join(world, client_spec)
    remote = _join(world, remote_spec)
    confirmed = []
    for svc in services:
        remote.relay.reserve(svc.endpoint,
                             lambda ok, ep=svc.endpoint: confirmed.append((ep, ok)))
    # Let the reservation handshakes settle without idling the NAT
    # mappings toward the relays past their TTL.
    net.sim.run(until=net.sim.now + 6_000)
    if shared:
        # Relay order, over every reservation the remote holds, earlier
        # trials' included.
        relay_addrs = [svc.endpoint for svc in services
                       if svc.host.id in remote.relay.reservations]
    else:
        # Relay addresses in the order the reservations are confirmed.
        relay_addrs = [ep for ep, ok in confirmed if ok]
    results = []
    punch = HolePunch(net, client, remote, relay_addrs, config.dcutr,
                      transport_filter=tf, on_done=results.append)
    punch.start()
    for _ in range(1_000):
        if results:
            break
        net.sim.run(until=net.sim.now + 1_000)
    if not results:
        punch.cancel()
    return _record(results[0], client_spec, remote_spec, tf, trial, config)


def _rtt_fields(prefix: str, rtt: Optional[tuple]) -> dict:
    if rtt is None:
        return {f"{prefix}_mean": None, f"{prefix}_stddev": None}
    return {f"{prefix}_mean": round(rtt[0], 6), f"{prefix}_stddev": round(rtt[1], 6)}


def _record(result: HolePunchResult, client_spec: PeerSpec, remote_spec: PeerSpec,
            tf: Optional[Transport], trial: int, config: CampaignConfig) -> dict:
    ts = CAMPAIGN_EPOCH + timedelta(seconds=trial * config.trial_spacing_s)
    return {  # in `analysis.RECORD_FIELDS` order
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
        "relay_addrs": list(result.relay_addrs),
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
        return [_trial_in(world, population, config, seed, trial, shared=True)
                for trial in range(n_trials)]
    return run_strided(_run_trials, (population, config, seed), n_trials, workers)


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
        subset = [rec for rec in filtered if rec.get("protocol_filter") == transport]
        if subset:
            per_transport[transport] = (
                sum(rec["outcome"] == "SUCCESS" for rec in subset) / len(subset))

    rtt_ratios = [round(ratio, 6) for ratio in latency_ratios(successes)]

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
    """Write records as JSON (single document) or CSV (one row per record,
    `as_id` and nested fields JSON-encoded) based on the path suffix."""
    chash = config_hash(config)
    if str(path).endswith(".csv"):
        # A JSON cell is json.dumps(cell, sort_keys=True, separators=(",", ":")),
        # through the C encoder that call builds, built once per file. Its
        # markers dict, which detects circular references, ends with the export.
        encoder = c_make_encoder({}, json.JSONEncoder().default, encode_basestring_ascii,
                                 None, ":", ",", True, False, True)
        rows = [CSV_COLUMNS]
        for rec in records:
            # `seed` and `config_hash` name columns too: the file's
            # metadata must not overwrite a record's own.
            if not RECORD_FIELDS.keys() >= rec.keys():
                unknown = ", ".join(repr(k) for k in rec if k not in RECORD_FIELDS)
                raise ValueError(f"record has fields outside the record "
                                 f"schema: {unknown}")
            rows.append([("".join(encoder(rec[k], 0)) if is_json else rec[k])
                         if k in rec else "" for k, is_json in _CSV_CELLS]
                        + [seed, chash])
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)
        return
    write_json({"seed": seed, "config_hash": chash,
                "config": config_to_dict(config), "records": records}, path)


def export_report(report: CampaignReport, path: str) -> None:
    write_json(asdict(report), path)


def write_json(value, path: str) -> None:
    """Write `value` to `path` byte for byte as `json.dumps` with
    `sort_keys=True` and an indent of 1 writes it, plus a newline: the
    layout of every JSON file punchsim writes. That indent turns json's C
    encoder off; this writer costs about half its pure-Python one. Each
    set of exact `str` dict keys is sorted and encoded once per file and
    depth."""
    out: list[str] = []
    _write_json(value, "\n", out, {})
    out.append("\n")
    with open(path, "w") as fh:
        fh.write("".join(out))


# json's names for the floats that float.__repr__ writes as nan, inf and -inf.
_NON_FINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_float(value: float) -> str:
    text = float.__repr__(value)
    return _NON_FINITE.get(text, text)


# json's encoding of each scalar type.
_JSON_LEAVES = {str: encode_basestring_ascii, int: int.__repr__,
                float: _json_float, type(None): {None: "null"}.__getitem__,
                bool: {True: "true", False: "false"}.__getitem__}


def _json_leaf(value) -> str:
    """json's encoding of a scalar. A subclass of str, int or float (an
    `IntEnum`, say) is written as its base type, as json writes it."""
    for kind in (value.__class__, str, int, float):
        if kind in _JSON_LEAVES and isinstance(value, kind):
            return _JSON_LEAVES[kind](value)
    raise TypeError(f"Object of type {value.__class__.__name__} "
                    "is not JSON serializable")


def _json_key(key) -> str:
    """A dict key as json writes it: a str as it is, an int, float, bool or
    None as its JSON text."""
    if isinstance(key, str):
        return key
    if key is not None and not isinstance(key, (int, float)):
        raise TypeError("keys must be str, int, float, bool or None, "
                        f"not {key.__class__.__name__}")
    return _json_leaf(key)


def _heads(keys: list, indent: str) -> list:
    """What precedes each value of a dict at `indent` whose sorted keys,
    as strings, are `keys`: "{" or ",", the line break and indent, the
    encoded key and ": "."""
    sep = "," + indent + " "
    heads = [sep + encode_basestring_ascii(key) + ": " for key in keys]
    heads[0] = "{" + heads[0][1:]
    return heads


def _write_json(value, indent: str, out: list, memo: dict) -> None:
    """Append `value` laid out at the depth whose line break and indent
    is `indent`. Dict keys are sorted as they are, then written as
    strings, as json does: int keys sort as ints. json's C encoder, with
    this depth's item separator, writes a list of more than 8 items of
    exact leaf types; for fewer, the call costs more than the loop. `memo`
    maps each set of exact `str` keys in insertion order, with its indent,
    to its sorted keys and their heads."""
    if isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + " "
        if len(value) > 8 and all(map(_JSON_LEAVES.__contains__, map(type, value))):
            # Leaves only: no cycle to catch, nothing for a default.
            encoder = c_make_encoder(None, None, encode_basestring_ascii, None, ": ",
                                     "," + inner, True, False, True)
            out.append("[" + inner + "".join(encoder(value, 0))[1:-1] + indent + "]")
            return
        sep = "[" + inner
        for item in value:
            leaf = _JSON_LEAVES.get(item.__class__)
            if leaf is None:
                out.append(sep)
                _write_json(item, inner, out, memo)
            else:
                out.append(sep + leaf(item))
            sep = "," + inner
        out.append(indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        keys = tuple(value)
        # Exact str keys sort the same way in every dict; a str subclass
        # may compare otherwise, and other keys sort by their own types.
        if countOf(map(type, keys), str) == len(keys):
            entry = memo.get((keys, indent))
            if entry is None:
                order = sorted(keys)
                entry = memo[keys, indent] = order, _heads(order, indent)
            order, heads = entry
            items = map(value.__getitem__, order)
        else:
            pairs = sorted(value.items())  # as json sorts
            heads = _heads([_json_key(key) for key, _ in pairs], indent)
            items = [item for _, item in pairs]
        inner = indent + " "
        for head, item in zip(heads, items):
            leaf = _JSON_LEAVES.get(item.__class__)
            if leaf is None:
                out.append(head)
                _write_json(item, inner, out, memo)
            else:
                out.append(head + leaf(item))
        out.append(indent + "}")
    else:
        out.append(_json_leaf(value))


_scan_once = json.JSONDecoder().scan_once


def _json_cell(cell: str):
    """json.loads(cell). The C scanner reads a cell that holds one JSON
    value and nothing else; json.loads decides any other cell: surrounding
    whitespace, trailing data or an error."""
    try:
        value, end = _scan_once(cell, 0)
        if end == len(cell):
            return value
    except (StopIteration, ValueError, RecursionError):
        pass
    return json.loads(cell)


def _number_cell(kinds: tuple, cell: str):
    """The one JSON number that fills `cell`, read by the C scanner, if
    its type is one of `kinds`; else ValueError."""
    try:
        value, end = _scan_once(cell, 0)
    except (StopIteration, RecursionError):
        raise ValueError(cell) from None
    if end != len(cell) or type(value) not in kinds:
        raise ValueError(cell)
    return value


# How a non-empty CSV cell of each kind but text reads back; an integer
# RTT stays an int.
_CELL_DECODERS = {"json": _json_cell, "int": partial(_number_cell, (int,)),
                  "bool": {"True": True, "False": False}.__getitem__,
                  "number": partial(_number_cell, (int, float))}
_DECODED = tuple((k, _CELL_DECODERS[cell]) for k, (_, cell, _) in RECORD_FIELDS.items()
                 if cell != "text")
# The fields whose empty cell reads as absent; a nullable field's reads as null.
_ABSENT_IF_EMPTY = frozenset(k for k, (presence, _, _) in RECORD_FIELDS.items()
                             if presence != NULLABLE)


def load_results(path: str) -> tuple[list[dict], dict]:
    """Read a results file (JSON or CSV) back into records plus metadata.
    A CSV cell decodes as its field's kind in `analysis.RECORD_FIELDS`;
    a malformed or missing cell, or a row whose seed and config hash are
    not the first row's, raises ValueError."""
    if str(path).endswith(".csv"):
        records = []
        first = None
        seed = 0
        with open(path, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ValueError("the CSV file has no header line")
            for row in reader:
                if None in row.values():
                    raise ValueError(f"line {reader.line_num} has fewer cells "
                                     "than the header")
                meta = (row.pop("seed"), row.pop("config_hash"))
                first = first or meta
                if meta != first:
                    raise ValueError(f"line {reader.line_num}: seed and config_hash "
                                     f"{' '.join(meta)} differ from the first "
                                     f"row's {' '.join(first)}")
                # A column outside the schema stays for validation to reject.
                rec = {key: cell or None for key, cell in row.items()
                       if cell or key not in _ABSENT_IF_EMPTY}
                try:
                    key, cell = "seed", meta[0]
                    seed = _CELL_DECODERS["int"](cell)
                    for key, decode in _DECODED:
                        cell = rec.get(key)
                        if cell is not None:
                            rec[key] = decode(cell)
                except (KeyError, ValueError):
                    raise ValueError(f"line {reader.line_num}: {key} cell "
                                     f"{cell!r} is malformed") from None
                records.append(rec)
        return records, {"seed": seed, "config_hash": first[1] if first else ""}
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict):
        raise ValueError("a results document must be a JSON object")
    return doc["records"], {"seed": doc["seed"], "config_hash": doc["config_hash"],
                            "config": doc.get("config")}
