"""The benchmark's three workloads.

Each workload makes its inputs from the workload seed, exposes one timed
operation, says which results count as failed operations, and gates its
outputs against committed digests. Only public punchsim functions are
called, always through their module so that a traced run's wrappers
see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import time

from punchsim import campaign, cli, strategies
from punchsim.campaign import CampaignConfig, PopulationSpec, TransportPolicy
from punchsim.kernel import RandomStream
from punchsim.nat import FilteringBehavior, MappingBehavior, NatConfig, NatState, PortAllocation
from punchsim.packets import Endpoint

DEFAULT_SEED = 42
# The population is the fixed scenario (the default 40x40 campaign at
# population seed 42); the workload seed drives the trials.
# Drawing the population from the workload seed changes the archetype mix
# of its 80 peers, which moved trials/s by about 15% between seeds.
POPULATION_SEED = 42
# Warm-up operations use indices far from the measured ones.
WARMUP_BASE = 10_000_000

GOLDEN_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")


def campaign_config(persistent_nat: bool = False) -> CampaignConfig:
    """40 clients x 40 remotes x 2 relays, default archetype shares,
    jitter 0.5, 10% port-mapped clients, random transport policy, RTT
    instrumentation on (the DcutrConfig default)."""
    return CampaignConfig(
        population=PopulationSpec(n_clients=40, n_remotes=40, n_relays=2,
                                  jitter=0.5, port_mapping_prevalence=0.1,
                                  seed=POPULATION_SEED),
        policy=TransportPolicy.RANDOM, persistent_nat=persistent_nat)


def sha256_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def trial_failed(record) -> bool:
    """A trial fails when it raised (no record) or ended UNKNOWN, i.e.
    without saying why. FAILED and NO_STREAM are simulated results."""
    return record is None or record.get("outcome") == "UNKNOWN"


def oracle_tolerance(p: float, n: int) -> float:
    """Allowed |hit rate - oracle| over n punches: 0.02, the margin of the
    20 000-punch acceptance test (about six standard errors there), or six
    standard errors when that is wider."""
    return max(0.02, 6.0 * math.sqrt(p * (1.0 - p) / n))


class Workload:
    name = ""
    item = ""          # what items_per_s counts
    op_label = ""      # what one timed operation is
    items_per_op = 1
    tail_pct = 99.0    # tail percentile of the operation time
    gate_ops = 1       # operations whose outputs the gate digests
    window_ops = 1     # operations whose counters the traced run reports

    def __init__(self, seed: int, workdir: str):
        self.seed = seed
        self.workdir = workdir
        self.population_s = 0.0

    def setup(self) -> None:
        raise NotImplementedError

    def op(self, i: int):
        raise NotImplementedError

    def failed(self, result) -> bool:
        """Whether an operation that returned `result` failed."""
        return False

    def keep(self, i: int, result) -> None:
        """Retain what the gate needs from operation i."""

    def output_bytes(self, result) -> bytes:
        """The operation's output, for comparing traced and untraced runs."""
        raise NotImplementedError

    def gate(self) -> tuple[dict, dict]:
        """(digests, checks) over the retained outputs; every check must
        be True."""
        raise NotImplementedError

    def after_traced_op(self, tracer, result) -> None:
        """Add counters that are read from results or simulator objects."""

    def golden_checks(self, digests: dict) -> dict:
        if self.seed != DEFAULT_SEED:
            return {}
        with open(GOLDEN_PATH) as fh:
            golden = json.load(fh)[self.name]
        return {f"golden.{k}": digests.get(k) == v for k, v in golden.items()}


class CampaignSerial(Workload):
    """campaign.run_trial once per trial index, each in a fresh world."""

    name = "campaign-serial"
    item = "trials"
    op_label = "trial"
    tail_pct = 99.0
    gate_ops = 500
    window_ops = 500
    persistent_trials = 100

    def setup(self) -> None:
        self.config = campaign_config()
        t0 = time.perf_counter()
        self.population = campaign.generate_population(self.config.population)
        self.population_s = time.perf_counter() - t0
        self.records: list[dict] = []
        self.outcomes: dict[str, int] = {}

    def op(self, i: int):
        return campaign.run_trial(self.population, self.config, self.seed, i)

    def failed(self, result) -> bool:
        return trial_failed(result)

    def keep(self, i: int, result) -> None:
        outcome = result["outcome"] if result is not None else "raised"
        self.outcomes[outcome] = self.outcomes.get(outcome, 0) + 1
        if i < self.gate_ops:
            self.records.append(result)

    def output_bytes(self, result) -> bytes:
        return json.dumps(result, sort_keys=True).encode()

    def gate(self) -> tuple[dict, dict]:
        path = os.path.join(self.workdir, "campaign-serial.json")
        campaign.export_results(self.records[:self.gate_ops], path,
                                seed=self.seed, config=self.config)
        persistent = campaign_config(persistent_nat=True)
        records = campaign.run_campaign(persistent, self.persistent_trials, self.seed)
        ppath = os.path.join(self.workdir, "persistent.json")
        campaign.export_results(records, ppath, seed=self.seed, config=persistent)
        digests = {"export_sha256": sha256_file(path),
                   "persistent_sha256": sha256_file(ppath)}
        checks = {"persistent.no_unknown": not any(map(trial_failed, records))}
        checks.update(self.golden_checks(digests))
        return digests, checks

    def after_traced_op(self, tracer, result) -> None:
        counts = tracer.counts
        for net in tracer.networks:
            counts["net.drops_in_core"] += net.dropped_in_core
            counts["net.drops_session_full"] += net.dropped_session_full
        for hp in tracer.hole_punches:
            if hp.done:
                counts["dcutr.sim_ms"] += hp.result.ended - hp.result.started
        tracer.networks.clear()
        tracer.hole_punches.clear()
        if result is not None:
            attempts = len(result["attempts"])
            counts["dcutr.attempts"] += attempts
            counts["dcutr.trials_with_attempts"] += attempts > 0
            counts["dcutr.first_attempt_successes"] += (
                result["outcome"] == "SUCCESS" and attempts == 1)
            counts["dcutr.successes"] += result["outcome"] == "SUCCESS"


class BirthdayMC(Workload):
    """strategies.birthday_punch at m = k = 256, mixed scenario, with a
    fresh APDM/APDF/RANDOM NatState per punch; per-punch streams are
    derived from the seed as the 20k-punch acceptance test derives them."""

    name = "birthday-mc"
    item = "punches"
    op_label = "punch"
    tail_pct = 99.0
    gate_ops = 1000
    window_ops = 300

    def setup(self) -> None:
        self.plan = strategies.BirthdayPlan(m_open=256, k_probe=256)
        self.nat_config = NatConfig(mapping=MappingBehavior.APDM,
                                    filtering=FilteringBehavior.APDF,
                                    port_alloc=PortAllocation.RANDOM)
        self.peer = Endpoint("peer", 4242)
        self.oracle = strategies.birthday_probability(self.plan)
        self.verdicts = bytearray()

    def op(self, i: int):
        nat = NatState(self.nat_config, public_host="edm#nat",
                       rng=RandomStream(self.seed, f"nat/{i}"))
        return strategies.birthday_punch(self.plan, nat, "edm-host", self.peer,
                                         RandomStream(self.seed, f"mc/{i}"))

    def keep(self, i: int, result) -> None:
        self.verdicts.append(2 if result is None else int(result))

    def output_bytes(self, result) -> bytes:
        return b"1" if result else b"0"

    def gate(self) -> tuple[dict, dict]:
        done = [v for v in self.verdicts if v != 2]
        hit_rate = sum(done) / len(done)
        digests = {"verdicts_sha256":
                   hashlib.sha256(bytes(self.verdicts[:self.gate_ops])).hexdigest()}
        checks = {"oracle": abs(hit_rate - self.oracle)
                  <= oracle_tolerance(self.oracle, len(done))}
        checks.update(self.golden_checks(digests))
        return digests, checks

    def after_traced_op(self, tracer, result) -> None:
        tracer.counts["strategies.hits"] += bool(result)


class AnalyzeFile(Workload):
    """Campaign records generated at set-up; each timed pass exports them
    to JSON and CSV, runs `punchsim analyze` on both files, and
    aggregates them."""

    name = "analyze-file"
    item = "records"
    op_label = "pass"
    tail_pct = 90.0
    gate_ops = 1
    window_ops = 3
    n_records = 250
    items_per_op = n_records
    first = None  # (report bytes, aggregate repr) of the first pass

    def setup(self) -> None:
        self.config = campaign_config()
        t0 = time.perf_counter()
        population = campaign.generate_population(self.config.population)
        self.population_s = time.perf_counter() - t0
        self.records = [campaign.run_trial(population, self.config, self.seed, i)
                        for i in range(self.n_records)]
        self.config_hash = campaign.config_hash(self.config)
        self.paths = {k: os.path.join(self.workdir, f"analyze-{k}")
                      for k in ("records.json", "records.csv",
                                "report-json.json", "report-csv.json")}

    def op(self, i: int):
        p = self.paths
        campaign.export_results(self.records, p["records.json"], seed=self.seed,
                                config=self.config)
        campaign.export_results(self.records, p["records.csv"], seed=self.seed,
                                config=self.config)
        with contextlib.redirect_stdout(io.StringIO()):
            rc_json = cli.main(["analyze", "--in", p["records.json"],
                                "--out", p["report-json.json"]])
            rc_csv = cli.main(["analyze", "--in", p["records.csv"],
                               "--out", p["report-csv.json"]])
        report = campaign.aggregate(self.records, seed=self.seed,
                                    config_hash=self.config_hash)
        return rc_json, rc_csv, report

    def output_bytes(self, result) -> bytes:
        with open(self.paths["report-json.json"], "rb") as fh:
            report = fh.read()
        return report + repr(result[2]).encode()

    def failed(self, result) -> bool:
        """A pass fails when it raised, a CLI call failed, the JSON and
        CSV reports differ, or an output differs from the first pass's."""
        if result is None or result[0] != 0 or result[1] != 0:
            return True
        with open(self.paths["report-json.json"], "rb") as fh:
            from_json = fh.read()
        with open(self.paths["report-csv.json"], "rb") as fh:
            from_csv = fh.read()
        if from_json != from_csv:
            return True
        outputs = (from_json, repr(result[2]))
        if self.first is None:
            self.first = outputs
        return outputs != self.first

    def gate(self) -> tuple[dict, dict]:
        digests = {"report_sha256": hashlib.sha256(self.first[0]).hexdigest()
                   if self.first else None}
        checks = {"report_written": self.first is not None}
        checks.update(self.golden_checks(digests))
        return digests, checks

    def after_traced_op(self, tracer, result) -> None:
        tracer.counts["campaign.bytes_written"] += sum(
            os.path.getsize(self.paths[k]) for k in ("records.json", "records.csv"))


WORKLOADS = {cls.name: cls for cls in (CampaignSerial, BirthdayMC, AnalyzeFile)}
