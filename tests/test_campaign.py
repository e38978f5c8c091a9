import concurrent.futures
import csv
import dataclasses
import gc
import io
import json
import math
import os
import re
import sys
from collections import Counter, OrderedDict
from datetime import timedelta, timezone
from enum import IntEnum
from functools import partial

import pytest
import yaml
from hypothesis import HealthCheck, assume, example, given, settings
from hypothesis import strategies as st

from punchsim import campaign, cli, results
from punchsim.analysis import analyze, latency_ratio_cdf, relay_path_location
from punchsim.campaign import (CampaignConfig, PopulationSpec,
                               TransportPolicy, aggregate, config_from_dict,
                               config_hash, config_to_dict, export_results,
                               generate_population, load_results,
                               run_campaign, run_trial)
from punchsim.dcutr import DcutrConfig
from punchsim.nat import MappingBehavior, NatConfig
from punchsim.results import (OUTCOMES, RECORD_FIELDS, RTT_FIELDS, MalformedRecord,
                              validate_records)
from punchsim.strategies import BirthdayPlan, BirthdayScenario, birthday_probability

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.workloads import DEFAULT_SEED, campaign_config  # noqa: E402

VALID_OUTCOMES = {"NO_CONNECTION", "NO_STREAM",
                  "CONNECTION_REVERSED", "CANCELLED", "FAILED", "SUCCESS"}


def small_config(**pop_kwargs):
    pop = dict(n_clients=10, n_remotes=10, seed=5)
    pop.update(pop_kwargs)
    return CampaignConfig(population=PopulationSpec(**pop))


def make_record(trial=0, outcome="SUCCESS", to_relay=10.0, relayed=40.0):
    """One record in the campaign export schema."""
    return {
        "trial": trial, "timestamp": "2026-01-01T00:00:00+00:00",
        "client": "client-00000", "remote": "remote-00000", "as_id": 64512,
        "private_addrs": ["10.0.0.1"],
        "public_endpoints": [["client-00000#nat:4001", "QUIC"]],
        "port_mapping_active": False, "protocol_filter": None,
        "outcome": outcome, "attempts": [],
        "rtt_to_relay_mean": to_relay, "rtt_to_relay_stddev": 0.0,
        "rtt_relayed_mean": relayed, "rtt_relayed_stddev": 0.0,
        "rtt_direct_after_mean": None, "rtt_direct_after_stddev": None,
        "relay_addrs": ["relay-00:1"],
    }


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text()
    | st.floats(allow_nan=False, allow_infinity=False),
    lambda kids: st.lists(kids, max_size=3)
    | st.dictionaries(st.text(max_size=4), kids, max_size=3),
    max_leaves=6)
FINITE = st.integers() | st.floats(allow_nan=False, allow_infinity=False)
ZONES = st.none() | st.builds(timezone, st.timedeltas(
    min_value=timedelta(hours=-23), max_value=timedelta(hours=23)))


@st.composite
def valid_records(draw):
    """Records as a results file holds them (JSON values, so endpoint
    pairs are lists), over every field of the export schema, with the
    optional ones present or absent."""
    timestamp = draw(st.dates().map(lambda d: d.isoformat())
                     | st.datetimes(timezones=ZONES).map(lambda t: t.isoformat()))
    rec = {
        "client": draw(st.text(min_size=1)),
        "timestamp": timestamp,
        "public_endpoints": draw(st.lists(
            st.text() | st.lists(st.text(), min_size=2, max_size=2), max_size=3)),
        "private_addrs": draw(st.lists(st.text(), max_size=3)),
        "as_id": draw(st.integers() | st.text()),
        "outcome": draw(st.sampled_from(sorted(OUTCOMES))),
        "attempts": draw(st.lists(JSON_VALUES, max_size=3)),
        "port_mapping_active": draw(st.booleans()),
    }
    optional = {"trial": st.integers(), "remote": st.text(min_size=1),
                "protocol_filter": st.sampled_from([None, "TCP", "QUIC"]),
                "relay_addrs": st.lists(JSON_VALUES, max_size=3),
                **{key: st.none() | FINITE for key in RTT_FIELDS}}
    for key, values in optional.items():
        if draw(st.booleans()):
            rec[key] = draw(values)
    return rec


class Level(IntEnum):
    LOW = 2
    HIGH = 12


class Text(str):
    pass


class Ratio(float):
    pass


class Items(list):
    pass


class Backwards(str):
    """A str that sorts in reverse, as json's sort of dict items sees it."""

    def __lt__(self, other):
        return str.__gt__(self, other)


# Strings with non-ASCII, control and lone surrogate characters.
STRINGS = st.text(st.characters() | st.characters(categories=["Cs"]), max_size=6)
JSON_KEYS = st.one_of(
    STRINGS, st.integers(0, 20), st.floats(), st.booleans(), st.none(),
    st.sampled_from(Level), STRINGS.map(Text))
TREE_LEAVES = st.one_of(
    st.none(), st.booleans(), STRINGS, STRINGS.map(Text),
    st.integers(), st.integers(2**64, 2**80), st.sampled_from(Level),
    st.floats(), st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 1e300]),
    st.floats().map(Ratio))
# Nested dicts, lists and tuples, empty ones included; a dict's keys are
# all strings, all ints (either side of 10), or any mix of key types.
JSON_TREES = st.recursive(
    TREE_LEAVES,
    lambda kids: st.one_of(
        st.lists(kids, max_size=4), st.lists(kids, max_size=4).map(tuple),
        st.lists(kids, max_size=4).map(Items),
        st.dictionaries(STRINGS, kids, max_size=4),
        st.dictionaries(st.integers(0, 20), kids, max_size=4),
        st.dictionaries(JSON_KEYS, kids, max_size=3),
        st.dictionaries(STRINGS, kids, max_size=4).map(OrderedDict)),
    max_leaves=12)


ODD_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 12), st.text(max_size=3),
    st.floats(-10.0, 1e4), st.sampled_from([math.nan, math.inf, -math.inf, 1e300]),
    st.sampled_from(["TCP", "QUIC", "random", "FullCone"]),
    st.lists(st.integers(-3, 70) | st.floats(-1.0, 70.0), max_size=3),
    st.dictionaries(st.sampled_from(["FullCone", "Symmetric", "x"]),
                    st.floats(-1.0, 2.0) | st.text(max_size=2), max_size=3))
CONFIG_FIELDS = {
    None: [*config_to_dict(CampaignConfig()), "bogus"],
    "population": [*config_to_dict(CampaignConfig())["population"], "bogus"],
    "dcutr": [*config_to_dict(CampaignConfig())["dcutr"], "bogus"],
}


# A reference CSV reading rule, on `csv.DictReader` rows: each field's empty
# cell dropped unless it is nullable or outside the schema, then the cells
# decoded in schema order. `results.read_csv` must read every file as it does.
DICT_READER_CELLS = {
    "trial": partial(results._number_cell, (int,)), "as_id": results._json_cell,
    "private_addrs": results._json_cell, "public_endpoints": results._json_cell,
    "port_mapping_active": {"True": True, "False": False}.__getitem__,
    "attempts": results._json_cell,
    **dict.fromkeys(RTT_FIELDS, partial(results._number_cell, (int, float))),
    "relay_addrs": results._json_cell}
KEPT_IF_EMPTY = {"protocol_filter", *RTT_FIELDS}


def dict_reader_csv(path):
    records = []
    first = None
    seed = 0
    with open(path, newline="", encoding="utf-8-sig") as fh:
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
            rec = {key: cell or None for key, cell in row.items()
                   if cell or key in KEPT_IF_EMPTY or key not in RECORD_FIELDS}
            try:
                key, cell = "seed", meta[0]
                seed = DICT_READER_CELLS["trial"](cell)
                for key, decode in DICT_READER_CELLS.items():
                    cell = rec.get(key)
                    if cell is not None:
                        rec[key] = decode(cell)
            except (KeyError, ValueError):
                raise ValueError(f"line {reader.line_num}: {key} cell "
                                 f"{cell!r} is malformed") from None
            records.append(rec)
    return records, {"seed": seed, "config_hash": first[1] if first else ""}


@st.composite
def config_documents(draw):
    """A small campaign config as YAML with up to four fields (or whole
    sections) replaced by values of any shape."""
    doc = {"population": {"n_clients": 2, "n_remotes": 2, "n_relays": 1},
           "dcutr": {"max_attempts": 2}}
    for _ in range(draw(st.integers(1, 4))):
        section = draw(st.sampled_from(sorted(CONFIG_FIELDS, key=str)))
        key = draw(st.sampled_from(CONFIG_FIELDS[section]))
        target = doc if section is None else doc.get(section)
        if isinstance(target, dict):
            target[key] = draw(ODD_VALUES)
    return yaml.safe_dump(doc)


class TestPopulation:
    def test_generation_is_deterministic(self):
        spec = PopulationSpec(n_clients=20, n_remotes=20, seed=42)
        a = generate_population(spec)
        b = generate_population(spec)
        assert a.clients == b.clients
        assert a.remotes == b.remotes
        assert a.relays == b.relays

    def test_different_seeds_differ(self):
        a = generate_population(PopulationSpec(seed=1))
        b = generate_population(PopulationSpec(seed=2))
        assert a.clients != b.clients

    def test_edm_share_override_hits_target(self):
        spec = PopulationSpec(n_clients=10_000, n_remotes=1, edm_share=0.11,
                              seed=7)
        pop = generate_population(spec)
        symmetric = sum(p.nat.mapping is MappingBehavior.APDM
                        for p in pop.clients)
        assert abs(symmetric - 1_100) <= 100

    def test_effective_shares_renormalize_cones(self):
        spec = PopulationSpec(edm_share=0.5)
        shares = spec.effective_shares()
        assert abs(sum(shares.values()) - 1.0) < 1e-12
        assert shares["Symmetric"] == 0.5
        # Cone proportions keep their relative weights.
        assert abs(shares["FullCone"] / shares["RestrictedCone"]
                   - 0.10 / 0.15) < 1e-9

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            PopulationSpec(n_clients=0)
        with pytest.raises(ValueError):
            PopulationSpec(shares={"FullCone": 0.5, "Symmetric": 0.4})
        with pytest.raises(ValueError):
            PopulationSpec(edm_share=1.5)

    def test_relays_are_public(self):
        pop = generate_population(PopulationSpec(seed=3))
        assert all(r.nat is None for r in pop.relays)


class TestCampaignRuns:
    def test_records_conserve_trials_and_outcomes(self):
        records = run_campaign(small_config(), n_trials=100, seed=8)
        assert [r["trial"] for r in records] == list(range(100))
        assert all(r["outcome"] in VALID_OUTCOMES for r in records)
        assert all(len(r["attempts"]) <= 3 for r in records)
        report = aggregate(records, seed=8)
        assert sum(report.outcome_distribution.values()) == 100
        assert report.n_filtered <= report.n_results

    def test_serial_equals_parallel(self):
        cfg = small_config()
        serial = run_campaign(cfg, n_trials=60, seed=12, workers=1)
        parallel = run_campaign(cfg, n_trials=60, seed=12, workers=4)
        assert json.dumps(serial, sort_keys=True) == \
            json.dumps(parallel, sort_keys=True)

    def test_no_more_workers_than_trials(self, monkeypatch):
        started = []

        class Recorder:
            """Stands in for the process pool; starts no process."""

            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, chunks):
                chunks = list(chunks)
                started.append([len(trials) for *_, trials in chunks])
                return map(fn, chunks)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", Recorder)
        cfg = small_config()
        records = run_campaign(cfg, n_trials=3, seed=4, workers=8)
        assert started == [3, [1, 1, 1]]
        assert records == run_campaign(cfg, n_trials=3, seed=4)

    def test_identical_seed_identical_records(self):
        cfg = small_config()
        a = run_campaign(cfg, n_trials=40, seed=21)
        b = run_campaign(cfg, n_trials=40, seed=21)
        assert a == b

    def test_random_policy_splits_filters_evenly(self):
        cfg = small_config()
        cfg.policy = TransportPolicy.RANDOM
        records = run_campaign(cfg, n_trials=400, seed=17)
        tcp = sum(r["protocol_filter"] == "TCP" for r in records)
        assert abs(tcp / 400 - 0.5) < 0.1

    def test_success_rate_declines_with_symmetric_share(self):
        rates = []
        for share in (0.0, 0.5, 1.0):
            cfg = small_config(edm_share=share)
            records = run_campaign(cfg, n_trials=250, seed=33)
            rates.append(aggregate(records, seed=33).success_rate)
        assert rates[0] > rates[1] > rates[2]

    def test_persistent_world_runs_and_is_deterministic(self):
        cfg = small_config()
        cfg.persistent_nat = True
        a = run_campaign(cfg, n_trials=30, seed=14)
        b = run_campaign(cfg, n_trials=30, seed=14)
        assert a == b
        assert all(r["outcome"] in VALID_OUTCOMES for r in a)

    def test_punch_past_the_time_bound_is_cancelled(self):
        # An attempt deadline beyond the 1 000 s bound: the punch is still
        # in its first attempt when the campaign stops waiting.
        cfg = small_config(edm_share=1.0)
        cfg.policy = TransportPolicy.QUIC
        cfg.dcutr.attempt_deadline_ms = 2_000_000
        population = generate_population(cfg.population)
        record = run_trial(population, cfg, seed=1, trial=0)
        assert record["outcome"] == "CANCELLED"
        assert [(a["index"], a["outcome"]) for a in record["attempts"]] == [
            (1, "CANCELLED")]

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_campaign(small_config(), n_trials=0, seed=1)

    @pytest.mark.parametrize("persistent", [False, True], ids=["fresh", "persistent"])
    @pytest.mark.parametrize("assign, field", [
        (lambda cfg: setattr(cfg, "trial_spacing_s", -5.0), "trial_spacing_s"),
        (lambda cfg: setattr(cfg, "population", {"n_clients": 3}), "population"),
        (lambda cfg: setattr(cfg.population, "n_clients", 0), "n_clients"),
        (lambda cfg: setattr(cfg.dcutr, "max_attempts", 0), "max_attempts"),
    ], ids=["trial_spacing_s", "population", "population.n_clients",
            "dcutr.max_attempts"])
    def test_fields_assigned_after_construction_are_checked(self, monkeypatch,
                                                            persistent, assign, field):
        def no_trial(*args, **kwargs):
            raise AssertionError("a trial ran")
        cfg = small_config()
        cfg.persistent_nat = persistent
        assign(cfg)
        monkeypatch.setattr(campaign, "_trial_in", no_trial)
        with pytest.raises(ValueError, match=f"^{field} "):
            run_campaign(cfg, n_trials=2, seed=1)

    def test_a_valid_assignment_after_construction_runs(self):
        cfg = small_config()
        cfg.policy = TransportPolicy.TCP
        cfg.dcutr.max_attempts = 1
        records = run_campaign(cfg, n_trials=5, seed=1)
        assert {r["protocol_filter"] for r in records} == {"TCP"}
        assert all(len(r["attempts"]) <= 1 for r in records)


class TestWorldClose:
    def test_closed_worlds_leave_no_cyclic_garbage(self):
        """A fresh-world trial closes its world once its record is built,
        and a persistent campaign after its last trial, so reference
        counting frees every world and the cyclic collector finds
        nothing. Each group's count is the garbage it left."""
        bench = campaign_config()
        population = generate_population(bench.population)
        cancelled = small_config(edm_share=1.0)  # as the time-bound test
        cancelled.policy = TransportPolicy.QUIC
        cancelled.dcutr.attempt_deadline_ms = 2_000_000
        groups = {
            "bench": [(population, bench, t) for t in range(200)],
            "no-rtts": [(population, dataclasses.replace(
                bench, dcutr=DcutrConfig(measure_rtts=False)), t) for t in range(5)],
            "alternate-roles": [(population, dataclasses.replace(
                bench, dcutr=DcutrConfig(alternate_roles=True)), t) for t in range(5)],
            "cancelled": [(generate_population(cancelled.population), cancelled, 0)],
        }
        outcomes, garbage = Counter(), {}
        enabled = gc.isenabled()
        gc.collect()
        gc.disable()
        try:
            for name, trials in groups.items():
                for pop, cfg, trial in trials:
                    outcomes[name, run_trial(pop, cfg, DEFAULT_SEED, trial)["outcome"]] += 1
                garbage[name] = gc.collect()
            run_campaign(campaign_config(persistent_nat=True), 20, DEFAULT_SEED)
            garbage["persistent"] = gc.collect()
        finally:
            if enabled:
                gc.enable()
        assert garbage == dict.fromkeys([*groups, "persistent"], 0)
        assert {outcome for name, outcome in outcomes if name == "bench"} >= {
            "SUCCESS", "FAILED", "CONNECTION_REVERSED"}
        assert outcomes["cancelled", "CANCELLED"] == 1


class TestAggregation:
    def test_port_mapped_clients_filtered_out(self):
        cfg = small_config(port_mapping_prevalence=1.0)
        records = run_campaign(cfg, n_trials=50, seed=4)
        report = aggregate(records, seed=4)
        assert report.n_filtered == 0
        assert report.success_rate is None

    def test_min_per_client_threshold(self):
        records = run_campaign(small_config(), n_trials=100, seed=8)
        relaxed = aggregate(records, seed=8, min_per_client=1)
        strict = aggregate(records, seed=8, min_per_client=1_000)
        assert relaxed.n_filtered > 0
        assert strict.n_filtered == 0

    def test_attempt_histogram_counts_successes_only(self):
        records = run_campaign(small_config(), n_trials=100, seed=8)
        report = aggregate(records, seed=8)
        successes = sum(r["outcome"] == "SUCCESS"
                        and not r["port_mapping_active"] for r in records)
        assert sum(report.attempt_histogram.values()) == successes


class TestExport:
    def test_json_round_trip_is_exact(self, tmp_path):
        cfg = small_config()
        records = run_campaign(cfg, n_trials=40, seed=9)
        path = tmp_path / "results.json"
        export_results(records, str(path), seed=9, config=cfg)
        loaded, meta = load_results(str(path))
        assert loaded == records
        assert meta["seed"] == 9
        assert meta["config_hash"] == config_hash(cfg)

    def test_csv_round_trip_is_exact(self, tmp_path):
        cfg = small_config()
        records = run_campaign(cfg, n_trials=40, seed=9)
        path = tmp_path / "results.csv"
        export_results(records, str(path), seed=9, config=cfg)
        loaded, meta = load_results(str(path))
        assert loaded == records
        assert meta["seed"] == 9

    @pytest.mark.parametrize("suffix", [".json", ".csv"])
    def test_byte_order_mark_is_read_past(self, tmp_path, suffix):
        # A spreadsheet may re-save a results file with a UTF-8 byte-order mark.
        path = tmp_path / f"results{suffix}"
        export_results([make_record(0), make_record(1), make_record(2)], str(path),
                       seed=3, config=CampaignConfig())
        marked = tmp_path / f"marked{suffix}"
        marked.write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        loaded, meta = load_results(str(marked))
        assert (loaded, meta) == load_results(str(path))
        assert [rec["trial"] for rec in loaded] == [0, 1, 2]
        assert (meta["seed"], meta["config_hash"]) == (3, config_hash(CampaignConfig()))

    @staticmethod
    def edited_csv(path, row, column, cell):
        """Set one cell of an exported CSV file, rows counted from the
        header as 0."""
        with open(path, newline="") as fh:
            rows = list(csv.reader(fh))
        rows[row][results.CSV_COLUMNS.index(column)] = cell
        with open(path, "w", newline="") as fh:
            csv.writer(fh).writerows(rows)

    @pytest.mark.parametrize("edits", [[("seed", "1")], [("config_hash", "deadbeef")],
                                       [("seed", "1"), ("config_hash", "deadbeef")]],
                             ids=["seed", "config-hash", "both"])
    def test_csv_rows_from_two_campaigns_are_refused(self, tmp_path, capsys, edits):
        path = str(tmp_path / "results.csv")
        export_results([make_record(0), make_record(1), make_record(2)], path,
                       seed=3, config=CampaignConfig())
        for column, cell in edits:
            self.edited_csv(path, 1, column, cell)
        # The first row sets the campaign; the second is the first to differ.
        with pytest.raises(ValueError, match="^line 3: seed and config_hash "):
            load_results(path)
        rc = cli.main(["analyze", "--in", path, "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_CONFIG
        assert "line 3: seed and config_hash" in capsys.readouterr().err

    @pytest.mark.parametrize("field", ["trial", "rtt_relayed_mean"])
    @pytest.mark.parametrize("cell", ["\u0663", "1_0", " 7 ", "true", "7x", "[7]"])
    def test_csv_number_cells_read_strictly(self, tmp_path, field, cell):
        # int() and float() read the first three; a JSON scan reads "true"
        # and "[7]" whole and "7x" in part. No export writes any of them.
        path = str(tmp_path / "results.csv")
        export_results([make_record()], path, seed=3, config=CampaignConfig())
        self.edited_csv(path, 1, field, cell)
        with pytest.raises(ValueError, match=re.escape(
                f"line 2: {field} cell {cell!r} is malformed")):
            load_results(path)

    @pytest.mark.parametrize("cell", [" \u0667 ", "1_0", " 7 "])
    def test_csv_seed_cells_read_strictly(self, tmp_path, capsys, cell):
        # int() reads these as 7, 10 and 7; the seed column reads as an int cell.
        path = str(tmp_path / "results.csv")
        export_results([make_record(0), make_record(1)], path, seed=7,
                       config=CampaignConfig())
        assert load_results(path)[1]["seed"] == 7
        for row in (1, 2):
            self.edited_csv(path, row, "seed", cell)
        with pytest.raises(ValueError, match=re.escape(
                f"line 2: seed cell {cell!r} is malformed")):
            load_results(path)
        rc = cli.main(["analyze", "--in", path, "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_CONFIG
        assert "seed cell" in capsys.readouterr().err

    @given(FINITE)
    def test_every_number_cell_written_reads_back_as_written(self, value):
        # What `csv` writes for an int or finite float cell, str(value),
        # reads back as the same value of the same type.
        assert repr(results.RULES["number"].decode(str(value))) == repr(value)
        if isinstance(value, int):
            assert repr(results.RULES["integer"].decode(str(value))) == repr(value)

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(valid_records(), min_size=1, max_size=4))
    def test_any_valid_record_round_trips(self, tmp_path, records):
        validate_records(records)
        loaded = {}
        for suffix in ("json", "csv"):
            path = str(tmp_path / f"results.{suffix}")
            export_results(records, path, seed=3, config=CampaignConfig())
            loaded[suffix] = load_results(path)[0]
        assert loaded["json"] == records
        # An absent field comes back absent, except that CSV has one
        # column per field: an absent protocol_filter or RTT field comes
        # back null there.
        nulls = dict.fromkeys(("protocol_filter", *RTT_FIELDS))
        assert loaded["csv"] == [{**nulls, **rec} for rec in records]
        assert analyze(loaded["json"]) == analyze(loaded["csv"])

    @settings(max_examples=100, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(valid_records(), st.none() | st.text(max_size=6) | st.integers(),
           JSON_VALUES)
    def test_validation_accepts_only_what_exports_to_csv(self, tmp_path, rec,
                                                         key, value):
        assume(key not in RECORD_FIELDS)
        path = str(tmp_path / "results.csv")
        validate_records([rec])
        export_results([rec], path, seed=3, config=CampaignConfig())
        rec[key] = value
        with pytest.raises(MalformedRecord, match=f"schema: {re.escape(repr(key))}"):
            validate_records([rec])
        with pytest.raises(ValueError):
            export_results([rec], path, seed=3, config=CampaignConfig())

    @pytest.mark.parametrize("key", ["seed", "config_hash"])
    def test_csv_export_refuses_a_record_holding_file_metadata(self, tmp_path, key):
        # Both name CSV columns, so DictWriter's unknown-key check lets them
        # through; the file's own seed and hash must not overwrite them.
        rec = {**make_record(), key: 99}
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match=repr(key)):
            export_results([make_record(), rec], str(path), seed=3,
                           config=CampaignConfig())
        assert not path.exists()  # no half-written file

    def test_records_hold_the_schema_fields_in_column_order(self):
        cfg = small_config()
        population = generate_population(cfg.population)
        cfg.persistent_nat = True
        for rec in [run_trial(population, cfg, 1, 0),
                    *run_campaign(cfg, n_trials=3, seed=1)]:
            assert list(rec) == list(RECORD_FIELDS)
        assert results.CSV_COLUMNS == [*RECORD_FIELDS, "seed", "config_hash"]

    @pytest.mark.parametrize("edit", [
        lambda rec: rec.pop("trial"), lambda rec: rec.pop("remote"),
        lambda rec: rec.pop("relay_addrs"),
        lambda rec: rec.update(dict.fromkeys(RTT_FIELDS)),
    ], ids=["no-trial", "no-remote", "no-relay_addrs", "null-rtts"])
    def test_csv_reloads_as_the_json_round_trip(self, tmp_path, edit):
        records = [make_record(0), make_record(1, "FAILED", relayed=41), make_record(2)]
        for rec in records[1:]:
            edit(rec)
        loaded = {}
        for suffix in ("json", "csv"):
            path = str(tmp_path / f"results.{suffix}")
            export_results(records, path, seed=3, config=CampaignConfig())
            loaded[suffix] = load_results(path)
        assert loaded["csv"][0] == loaded["json"][0] == records
        assert loaded["csv"][1]["seed"] == loaded["json"][1]["seed"] == 3

    def test_malformed_seed_in_the_first_row_only_is_malformed(self, tmp_path):
        path = str(tmp_path / "results.csv")
        export_results([make_record(0), make_record(1)], path, seed=7,
                       config=CampaignConfig())
        self.edited_csv(path, 1, "seed", "7x")
        with pytest.raises(ValueError, match=re.escape(
                "line 2: seed cell '7x' is malformed")):
            load_results(path)

    @pytest.mark.parametrize("row", [2, 3])
    def test_a_later_row_with_another_seed_is_refused(self, tmp_path, row):
        # Seed cells are compared as text, before either is decoded.
        path = str(tmp_path / "results.csv")
        export_results([make_record(i) for i in range(3)], path, seed=7,
                       config=CampaignConfig())
        self.edited_csv(path, row, "seed", "07")
        with pytest.raises(ValueError, match=f"^line {row + 1}: seed and config_hash "
                           "07 [0-9a-f]+ differ from the first row's 7 "):
            load_results(path)

    def test_string_as_id_and_absent_fields_export_to_csv(self, tmp_path):
        rec = make_record()
        rec["as_id"] = "AS64512"
        del rec["remote"], rec["relay_addrs"], rec["trial"]
        path = str(tmp_path / "results.csv")
        export_results([rec], path, seed=3, config=CampaignConfig())
        assert load_results(path)[0] == [rec]

    def test_re_export_is_byte_identical(self, tmp_path):
        cfg = small_config()
        records = run_campaign(cfg, n_trials=30, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_results(records, str(p1), seed=2, config=cfg)
        loaded, _ = load_results(str(p1))
        export_results(loaded, str(p2), seed=2, config=cfg)
        assert p1.read_bytes() == p2.read_bytes()

    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(JSON_TREES)
    @example({2: [], 10: {}, "x": None})
    @example({"leaf": b"bytes"})
    @example({(1, 2): "tuple key"})
    @example([{3: 1.5, 12: (), True: "a"}, Items(), OrderedDict(b=1, a=2)])
    # One key set in two insertion orders, the first one at two depths.
    @example({"a": 1, "b": {"b": 2, "a": {"a": 3, "b": [{"b": 4, "a": 5}]}}})
    @example([{"a": 1, "b": 2}, {Backwards("a"): 1, Backwards("b"): 2},
              {Text("b"): 3, Text("a"): 4}])
    @example([{"1": "a", "10": "b", "2": "c"}, {1: "a", 10: "b", 2: "c"},
              {1: "a", 2: "b"}, {True: "a", 2: "b"}])
    @example({"x": {1: "a", "b": 2}, "y": [{1: "a", "b": 2}]})
    def test_writer_writes_what_json_dumps_writes(self, tmp_path, value):
        path = tmp_path / "value.json"
        try:
            expected = json.dumps(value, sort_keys=True, indent=1) + "\n"
        except (TypeError, ValueError):
            with pytest.raises((TypeError, ValueError)):
                results.write_json(value, str(path))
        else:
            results.write_json(value, str(path))
            assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.recursive(
        st.lists(TREE_LEAVES, min_size=1, max_size=20)
        | st.lists(TREE_LEAVES, min_size=1, max_size=20).map(tuple)
        | st.lists(TREE_LEAVES, min_size=9, max_size=20).map(Items),
        lambda kids: st.lists(kids, max_size=3)
        | st.dictionaries(STRINGS, kids, max_size=3), max_leaves=4))
    # json's C encoder writes a long list of exact leaf types.
    @example([0.5, math.nan, math.inf, -math.inf, -0.0, 1e300, True, None, 2**70, "\u00e9"])
    @example({"a": [Level.LOW] * 9 + [Ratio(0.5)], "b": [[1] * 9, list(range(10))]})
    def test_writer_writes_lists_of_leaves_as_json_dumps(self, tmp_path, value):
        path = tmp_path / "value.json"
        expected = json.dumps(value, sort_keys=True, indent=1) + "\n"
        results.write_json(value, str(path))
        assert path.read_bytes() == expected.encode("ascii")

    @settings(max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.lists(st.tuples(JSON_TREES, JSON_TREES), min_size=1, max_size=4))
    def test_csv_json_cells_are_what_json_dumps_writes(self, tmp_path, cells):
        path = tmp_path / "results.csv"
        path.unlink(missing_ok=True)  # left by an earlier example
        records = [{"as_id": as_id, "attempts": attempts} for as_id, attempts in cells]
        try:
            expected = [[json.dumps(value, sort_keys=True, separators=(",", ":"))
                         for value in pair] for pair in cells]
        except (TypeError, ValueError) as exc:
            with pytest.raises(exc.__class__):
                export_results(records, str(path), seed=3, config=CampaignConfig())
            assert not path.exists()
            return
        export_results(records, str(path), seed=3, config=CampaignConfig())
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [[row["as_id"], row["attempts"]] for row in rows] == expected

    def test_circular_record_refused_on_csv_export(self, tmp_path):
        rec = make_record()
        rec["attempts"] = [{"index": 0}]
        rec["attempts"].append(rec["attempts"])
        path = tmp_path / "results.csv"
        with pytest.raises(ValueError, match="Circular reference"):
            export_results([make_record(), rec], str(path), seed=3,
                           config=CampaignConfig())
        assert not path.exists()
        # The failed export's markers went with it: the same list, no
        # longer holding itself, exports.
        rec["attempts"].pop()
        export_results([make_record(), rec], str(path), seed=3, config=CampaignConfig())
        assert load_results(str(path))[0] == [make_record(), rec]

    # json.loads's own RecursionError depends on the depth of its caller's
    # stack, so the nesting depths stay far from the recursion limit.
    @settings(max_examples=400, deadline=None)
    @given(st.one_of(
        st.text(max_size=12),
        st.builds(lambda pre, value, post: pre + json.dumps(value) + post,
                  st.sampled_from(["", " ", "\n", "\t", "\ufeff", "x"]), JSON_VALUES,
                  st.sampled_from(["", " ", "\r\n", "x", "]", "}", "1", ",2", " 3"])),
        st.sampled_from(["NaN", "-Infinity", "Infinity", "-NaN", "nan", "[NaN]",
                         '"\\ud800"', "[1,", "{", "", " ", "1e999", "-0"]),
        st.builds(lambda n, post: "[" * n + "]" * n + post,
                  st.sampled_from([1, 50, 200, 100_000]), st.sampled_from(["", " ", "]"]))))
    def test_csv_json_cell_reads_as_json_loads_reads_it(self, cell):
        try:
            expected = json.loads(cell)
        except (ValueError, RecursionError) as exc:
            with pytest.raises(exc.__class__) as raised:
                results._json_cell(cell)
            assert str(raised.value) == str(exc)
        else:
            got = results._json_cell(cell)
            assert repr(got) == repr(expected)

    def test_config_dict_round_trip_preserves_hash(self):
        cfg = small_config(edm_share=0.3, jitter=0.4)
        cfg.policy = TransportPolicy.QUIC
        cfg.dcutr.refined_wait = True
        restored = config_from_dict(config_to_dict(cfg))
        assert config_hash(restored) == config_hash(cfg)
        assert restored == cfg


class TestOneRecordPipeline:
    def test_zero_rtt_to_relay_binned_like_analysis(self):
        # A relay RTT of 0.0 is a measurement (the relay sits at the
        # client's end of the path); only a missing one is skipped.
        records = [make_record(0, "SUCCESS", to_relay=0.0),
                   make_record(1, "FAILED", to_relay=20.0),
                   make_record(2, "SUCCESS", to_relay=None)]
        report = aggregate(records)
        location = relay_path_location(records)
        assert report.relay_path_bins["0.00"] == {"successes": 1, "total": 1}
        assert report.relay_path_bins == {
            label: {"successes": b["successes"], "total": b["total"]}
            for label, b in location["bins"].items()}
        assert location["skipped"] == 1

    @pytest.mark.parametrize("field, value", [("timestamp", "yesterday"),
                                              ("outcome", "MAYBE")])
    def test_aggregate_rejects_malformed_records(self, field, value):
        records = [make_record(0), make_record(1)]
        records[1][field] = value
        with pytest.raises(MalformedRecord, match="record 1"):
            aggregate(records)

    def test_aggregate_reads_absent_optional_fields_as_null(self):
        records = [make_record(i) for i in range(4)]
        for rec in records:
            rec["rtt_direct_after_mean"] = 20.0
        del records[0]["protocol_filter"]
        del records[1]["rtt_direct_after_mean"]
        del records[2]["rtt_relayed_mean"]
        report = aggregate(records)
        assert report.rtt_ratios == [0.5, 0.5]
        assert report.rtt_ratios == latency_ratio_cdf(records)["ratios"]
        assert report.per_transport_success == {}

    def test_aggregate_needs_a_record(self):
        with pytest.raises(ValueError, match="no records"):
            aggregate([])

    def test_aggregate_rejects_missing_field(self):
        bad = make_record()
        del bad["port_mapping_active"]
        with pytest.raises(MalformedRecord):
            aggregate([bad])


class TestConfigHome:
    def test_dcutr_block_sets_strategy_switches(self):
        cfg = config_from_dict({"dcutr": {"refined_wait": True}})
        assert cfg.dcutr.refined_wait
        blob = config_to_dict(cfg)
        assert blob["refined_wait"] is True
        assert blob["dcutr"]["refined_wait"] is True
        assert config_from_dict(blob) == cfg

    def test_top_level_keys_are_aliases(self):
        cfg = config_from_dict({"alternate_roles": True, "ttl_priming": True})
        assert cfg.dcutr.alternate_roles and cfg.dcutr.ttl_priming
        assert not cfg.dcutr.refined_wait

    def test_conflicting_switch_is_a_config_error(self, tmp_path, capsys):
        path = tmp_path / "campaign.yaml"
        path.write_text("refined_wait: true\ndcutr:\n  refined_wait: false\n")
        out = tmp_path / "results.json"
        rc = cli.main(["simulate", "--config", str(path), "--trials", "1",
                       "--seed", "1", "--out", str(out)])
        err = capsys.readouterr().err
        assert rc == cli.EXIT_CONFIG
        assert "refined_wait" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("raw", [
        {"refined_wait": 1, "dcutr": {"refined_wait": True}},
        {"refined_wait": 1},
        {"ttl_priming": "no", "dcutr": {"ttl_priming": "no"}},
    ], ids=["equal-to-dcutr-value", "top-level-only", "same-string-under-dcutr"])
    def test_top_level_switch_must_be_a_bool(self, raw):
        key = next(iter(raw))
        with pytest.raises(ValueError, match=f"^{key} must be true or false"):
            config_from_dict(raw)

    def test_default_config_export_layout_unchanged(self):
        blob = config_to_dict(CampaignConfig())
        assert set(blob) == {"population", "policy", "refined_wait",
                             "alternate_roles", "ttl_priming", "persistent_nat",
                             "trial_spacing_s", "dcutr"}
        assert config_hash(CampaignConfig()) == "6fd1505934db1ed4"


# Each config dataclass, with the fields it needs beyond its defaults.
CONFIGS = {PopulationSpec: {}, CampaignConfig: {}, DcutrConfig: {}, NatConfig: {},
           BirthdayPlan: {"m_open": 1, "k_probe": 1}}
# For each field no bool, int or float rule covers, a value its class
# refuses. An Enum field refuses its member's string value, and a nested
# config a value that is not an instance of its class.
OTHER_FIELDS = {"shares": {"FullCone": 0.5}, "edm_share": 1.5,
                "latency_range_ms": (10.0,), "port_range": (5_000, 4_000),
                "population": {}, "policy": "none", "dcutr": "x", "mapping": "EIM",
                "filtering": "APDF", "port_alloc": "random", "scenario": "mixed"}


def scalar_refusals(f: dataclasses.Field) -> list:
    """Values a bool, int or float config field must refuse: for a number,
    non-finite, bool, string and non-integral values and the nearest
    values outside its `kernel.bounded` range."""
    if f.type == "bool":
        return [1, "no", None]
    lo, hi = f.metadata.get("lo", -math.inf), f.metadata.get("hi", math.inf)
    bad = [math.nan, math.inf, -math.inf, True, "7"]
    if f.type == "int":
        bad += [2.5] + [lo - 1] * (lo > -math.inf) + [hi + 1] * (hi < math.inf)
    else:
        bad += [math.nextafter(lo, -math.inf)] * (lo > -math.inf)
        bad += [math.nextafter(hi, math.inf)] * (hi < math.inf)
    return bad


class TestConfigFields:
    @pytest.mark.parametrize("cls", list(CONFIGS), ids=lambda cls: cls.__name__)
    def test_every_field_refuses_what_its_rule_refuses(self, cls):
        base = CONFIGS[cls]
        cls(**base)
        for f in dataclasses.fields(cls):
            if f.type not in ("bool", "int", "float"):
                assert f.name in OTHER_FIELDS, f"{cls.__name__}.{f.name} has no rule"
                bad = [OTHER_FIELDS[f.name]]
                match = re.escape(f.name)
            else:
                bad = scalar_refusals(f)
                match = f"^{f.name} "
                # A range is inclusive at both ends.
                for edge in (f.metadata.get("lo"), f.metadata.get("hi")):
                    if edge not in (None, math.inf):
                        cls(**{**base, f.name: edge})
            for value in bad:
                with pytest.raises(ValueError, match=match):
                    cls(**{**base, f.name: value})

    def test_other_fields_names_only_fields(self):
        names = {f.name for cls in CONFIGS for f in dataclasses.fields(cls)
                 if f.type not in ("bool", "int", "float")}
        assert names == set(OTHER_FIELDS)


class TestCliExits:
    def test_report_with_no_filtered_record_prints_na(self, tmp_path, capsys):
        # Every client holds a port mapping, so the success filters keep
        # no record and the success rate is undefined.
        path = tmp_path / "campaign.yaml"
        path.write_text("population:\n  n_clients: 3\n  n_remotes: 3\n"
                        "  port_mapping_prevalence: 1.0\n")
        report = tmp_path / "report.json"
        rc = cli.main(["simulate", "--config", str(path), "--trials", "5",
                       "--seed", "1", "--out", str(tmp_path / "results.json"),
                       "--report", str(report)])
        assert rc == cli.EXIT_OK
        assert "success rate n/a" in capsys.readouterr().out
        assert '"success_rate": null' in report.read_text()

    @staticmethod
    def forbid_trials(monkeypatch):
        def no_run(*args, **kwargs):
            raise AssertionError("a trial ran")
        monkeypatch.setattr(campaign, "run_campaign", no_run)

    def simulate_exit(self, tmp_path, capsys, text, trials=5):
        path = tmp_path / "campaign.yaml"
        path.write_text(text)
        rc = cli.main(["simulate", "--config", str(path), "--trials", str(trials),
                       "--seed", "1", "--out", str(tmp_path / "results.json")])
        assert "Traceback" not in capsys.readouterr().err
        return rc

    # A small all-Symmetric population over QUIC fails its attempts, so
    # every attempt-dependent setting is read.
    FAILING = ("policy: QUIC\npopulation: {n_clients: 2, n_remotes: 2, "
               "shares: {Symmetric: 1.0}}\n")

    @pytest.mark.parametrize("text", [
        "population: {shares: 5}\n",
        "population: {latency_range_ms: [1]}\n",
        FAILING + "trial_spacing_s: x\n",
        FAILING + "dcutr: {max_attempts: x}\n",
        FAILING + "dcutr: {rtt_samples: 20}\n",
        FAILING + "dcutr: {ttl_priming: true, priming_ttl: 6}\n",
    ])
    def test_config_that_crashed_the_run_exits_2(self, tmp_path, capsys, text):
        assert self.simulate_exit(tmp_path, capsys, text) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("text, field", [
        ('persistent_nat: "no"\n', "persistent_nat"),
        ('dcutr: {refined_wait: "false"}\n', "refined_wait"),
        ("refined_wait: 1\n", "refined_wait"),
        ("refined_wait: 1\ndcutr: {refined_wait: true}\n", "refined_wait"),
        ("population: {seed: 7.5}\n", "seed"),
        ('population: {seed: "7"}\n', "seed"),
        ("dcutr: {ttl_priming: true, priming_ttl: 6}\n", "priming_ttl"),
    ])
    def test_mistyped_field_exits_2_before_any_trial(self, tmp_path, capsys,
                                                     monkeypatch, text, field):
        self.forbid_trials(monkeypatch)
        path = tmp_path / "campaign.yaml"
        path.write_text(text)
        out = tmp_path / "results.json"
        rc = cli.main(["simulate", "--config", str(path), "--trials", "2",
                       "--seed", "1", "--out", str(out)])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith(f"error: invalid config: {field} ")
        assert not out.exists()

    def test_config_byte_outside_its_encoding_exits_2(self, tmp_path, capsys):
        path = tmp_path / "campaign.yaml"
        path.write_bytes(self.SMALL.encode()[:-1] + b"  # r\xe9seau\n")  # Latin-1
        rc = cli.main(["simulate", "--config", str(path), "--trials", "2",
                       "--seed", "1", "--out", str(tmp_path / "results.json")])
        assert rc == cli.EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: config file is not valid YAML")

    def test_alternating_roles_past_three_attempts(self, tmp_path, capsys):
        text = self.FAILING + "dcutr: {max_attempts: 5, alternate_roles: true}\n"
        assert self.simulate_exit(tmp_path, capsys, text) == cli.EXIT_OK
        records, _ = load_results(str(tmp_path / "results.json"))
        assert [len(rec["attempts"]) for rec in records] == [5] * 5

    @settings(max_examples=60, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.one_of(st.text(max_size=40), config_documents()))
    def test_any_config_document_runs_or_exits_2(self, tmp_path, capsys, text):
        rc = self.simulate_exit(tmp_path, capsys, text, trials=2)
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)

    SMALL = "population: {n_clients: 2, n_remotes: 2, n_relays: 1}\n"

    @pytest.mark.parametrize("command", [
        ["simulate", "--out", "{missing}/results.json"],
        ["simulate", "--out", "{tmp}/results.json", "--report", "{missing}/report.json"],
        ["simulate", "--out", "{tmp}"],
        ["analyze", "--in", "{tmp}/in.json", "--out", "{missing}/report.json"],
    ], ids=["simulate-out", "simulate-report", "simulate-out-is-a-directory",
            "analyze-out"])
    def test_unwritable_output_exits_2(self, tmp_path, capsys, command):
        (tmp_path / "campaign.yaml").write_text(self.SMALL)
        export_results([make_record()], str(tmp_path / "in.json"), seed=1,
                       config=CampaignConfig())
        args = [arg.format(tmp=tmp_path, missing=tmp_path / "missing")
                for arg in command]
        if command[0] == "simulate":
            args += ["--config", str(tmp_path / "campaign.yaml"),
                     "--trials", "2", "--seed", "1"]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert "error: cannot write" in err and "Traceback" not in err

    @pytest.mark.parametrize("out, report", [("missing/results.json", None),
                                             ("results.json", "missing/report.json")],
                             ids=["out", "report"])
    def test_simulate_checks_its_outputs_before_any_trial(self, tmp_path,
                                                          monkeypatch, out, report):
        self.forbid_trials(monkeypatch)
        (tmp_path / "campaign.yaml").write_text(self.SMALL)
        args = ["simulate", "--config", str(tmp_path / "campaign.yaml"),
                "--trials", "2", "--seed", "1", "--out", str(tmp_path / out)]
        if report:
            args += ["--report", str(tmp_path / report)]
        assert cli.main(args) == cli.EXIT_CONFIG

    @pytest.mark.parametrize("command, message", [
        (["simulate", "--config", "{tmp}/missing.yaml"], "cannot read config file"),
        (["simulate", "--trials", "0"], "--trials must be positive"),
        (["analyze", "--in", "{tmp}/missing.json"], "cannot read input file"),
        (["analyze", "--min-per-client", "-1"], "--min-per-client must be non-negative"),
        (["analyze", "--bin-width", "0"], "--bin-width must be in (0, 1]"),
    ], ids=["missing-config", "zero-trials", "missing-input", "negative-minimum",
            "zero-bin-width"])
    def test_bad_argument_exits_2(self, tmp_path, capsys, command, message):
        (tmp_path / "campaign.yaml").write_text(self.SMALL)
        export_results([make_record()], str(tmp_path / "in.json"), seed=1,
                       config=CampaignConfig())
        defaults = {"simulate": ["--config", "{tmp}/campaign.yaml", "--trials", "2",
                                 "--seed", "1", "--out", "{tmp}/results.json"],
                    "analyze": ["--in", "{tmp}/in.json", "--out", "{tmp}/report.json"]}
        # argparse keeps the last of a repeated option.
        args = [arg.format(tmp=tmp_path) for arg in
                [command[0], *defaults[command[0]], *command[1:]]]
        assert cli.main(args) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {message}") and "Traceback" not in err

    @pytest.mark.parametrize("workers", ["0", "-1", "3"])
    def test_workers_outside_one_to_cpu_count_exit_2(self, tmp_path, capsys,
                                                     monkeypatch, workers):
        class NoPool:
            def __init__(self, *args, **kwargs):
                raise AssertionError("a worker pool was built")
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", NoPool)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        (tmp_path / "campaign.yaml").write_text(self.SMALL)
        out = tmp_path / "results.json"
        rc = cli.main(["simulate", "--config", str(tmp_path / "campaign.yaml"),
                       "--trials", "5", "--seed", "1", "--out", str(out),
                       "--workers", workers])
        assert rc == cli.EXIT_CONFIG
        assert "error: --workers must be in 1..2" in capsys.readouterr().err
        assert not out.exists()

    def test_workers_up_to_cpu_count_run(self, tmp_path, monkeypatch):
        asked = []

        def run(config, n_trials, seed, workers):
            asked.append(workers)
            return []
        monkeypatch.setattr(campaign, "run_campaign", run)
        monkeypatch.setattr(os, "cpu_count", lambda: 2)
        (tmp_path / "campaign.yaml").write_text(self.SMALL)
        for workers in ("1", "2"):
            assert cli.main(["simulate", "--config", str(tmp_path / "campaign.yaml"),
                             "--trials", "5", "--seed", "1", "--workers", workers,
                             "--out", str(tmp_path / "results.json")]) == cli.EXIT_OK
        assert asked == [1, 2]

    @pytest.mark.parametrize("argv, plan, sure", [
        ("--m 256 --k 256 --scenario mixed", BirthdayPlan(256, 256), False),
        ("--m 256 --k 2048 --scenario both-edm --space 65536",
         BirthdayPlan(256, 2048, scenario=BirthdayScenario.EDM_VS_EDM), False),
        # 200 ports open and 100 probed in a space of 256 must collide.
        ("--m 200 --k 100 --space 256 --scenario mixed", BirthdayPlan(200, 100, 256), True),
    ], ids=["readme-mixed", "readme-both-edm", "pigeonhole"])
    def test_oracle_prints_the_closed_form(self, capsys, argv, plan, sure):
        assert cli.main(["oracle", *argv.split()]) == cli.EXIT_OK
        assert json.loads(capsys.readouterr().out) == {
            "m": plan.m_open, "k": plan.k_probe, "port_space": plan.port_space,
            "scenario": plan.scenario.value,
            "probability": birthday_probability(plan)}
        assert (birthday_probability(plan) == 1.0) is sure

    @pytest.mark.parametrize("argv", ["--m 0 --k 5", "--m 5 --k 5 --space 0"],
                             ids=["no-openings", "no-port-space"])
    def test_oracle_rejects_an_impossible_plan(self, capsys, argv):
        assert cli.main(["oracle", *argv.split(), "--scenario", "mixed"]) == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: invalid plan") and "Traceback" not in err

    def analyze_exit(self, tmp_path, capsys, text, suffix="json"):
        path = tmp_path / f"results.{suffix}"
        if isinstance(text, bytes):
            path.write_bytes(text)
        else:
            path.write_text(text)
        rc = cli.main(["analyze", "--in", str(path),
                       "--out", str(tmp_path / "report.json")])
        assert "Traceback" not in capsys.readouterr().err
        return rc

    CSV_HEADER = ",".join(results.CSV_COLUMNS) + "\n"

    def test_zero_byte_csv_exits_2(self, tmp_path, capsys):
        path = tmp_path / "results.csv"
        path.write_bytes(b"")
        rc = cli.main(["analyze", "--in", str(path),
                       "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "no header line" in err

    def test_header_only_csv_is_zero_records(self, tmp_path, capsys):
        path = str(tmp_path / "results.csv")
        export_results([], path, seed=3, config=CampaignConfig())
        assert load_results(path)[0] == []
        rc = cli.main(["analyze", "--in", path, "--out", str(tmp_path / "report.json")])
        assert rc == cli.EXIT_OK
        assert "analyzed 0 records" in capsys.readouterr().out

    def test_short_csv_row_exits_2(self, tmp_path, capsys):
        text = self.CSV_HEADER + "0,2026-01-01T00:00:00+00:00\n"
        assert self.analyze_exit(tmp_path, capsys, text, "csv") == cli.EXIT_CONFIG

    def test_record_key_outside_the_schema_exits_2(self, tmp_path, capsys):
        rec = {**make_record(), "network": "client-00000/net-0"}
        doc = json.dumps({"seed": 1, "config_hash": "", "records": [rec]})
        assert self.analyze_exit(tmp_path, capsys, doc) == cli.EXIT_CONFIG
        # A row longer than the header files its extra cells under None.
        path = str(tmp_path / "results.csv")
        export_results([make_record()], path, seed=1, config=CampaignConfig())
        with open(path) as fh:
            text = fh.read().rstrip("\n") + ",extra\n"
        assert self.analyze_exit(tmp_path, capsys, text, "csv") == cli.EXIT_CONFIG
        with pytest.raises(MalformedRecord, match="schema: None"):
            validate_records(load_results(path)[0])

    @pytest.mark.parametrize("field, value", [
        ("rtt_relayed_mean", 10 ** 400),  # overflows the float division
        ("attempts", "[" * 100_000 + "]" * 100_000),  # nests past the recursion limit
    ], ids=["int-beyond-float", "deep-json"])
    def test_oversized_value_exits_2(self, tmp_path, capsys, field, value):
        doc = json.dumps({"seed": 1, "config_hash": "", "records": [make_record()]})
        doc = doc.replace(f'"{field}": {json.dumps(make_record()[field])}',
                          f'"{field}": {value}')
        assert self.analyze_exit(tmp_path, capsys, doc) == cli.EXIT_CONFIG

    @staticmethod
    def mutated_csv(text, data):
        """The CSV text with a row cut short, one cell dropped or added in
        a row, a column renamed or added, or a cell blanked or replaced by
        any text."""
        rows = list(csv.reader(io.StringIO(text)))
        r = data.draw(st.integers(1, len(rows) - 1))
        c = data.draw(st.integers(0, len(rows[0]) - 1))
        cell = data.draw(st.text(max_size=8))
        how = data.draw(st.sampled_from(["cut", "drop", "add", "rename",
                                         "column", "blank", "replace"]))
        if how == "cut":
            del rows[r][c:]
        elif how == "drop":
            del rows[r][c]
        elif how == "add":
            rows[r].insert(c, cell)
        elif how == "rename":
            rows[0][c] = cell
        elif how == "column":
            rows[0].insert(c, cell)
            for row in rows[1:]:
                row.insert(c, data.draw(st.text(max_size=8)))
        else:
            rows[r][c] = "" if how == "blank" else cell
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()

    @settings(max_examples=120, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_any_malformed_results_file_exits_0_or_2(self, tmp_path, capsys, data):
        records = [make_record(0), make_record(1, "FAILED")]
        kind = data.draw(st.sampled_from(["bytes", "csv", "json"]))
        if kind == "bytes":
            suffix = data.draw(st.sampled_from(["json", "csv"]))
            text = data.draw(st.binary(max_size=200))
        elif kind == "csv":
            suffix = "csv"
            path = str(tmp_path / "valid.csv")
            export_results(records, path, seed=1, config=CampaignConfig())
            with open(path) as fh:
                text = self.mutated_csv(fh.read(), data)
        else:
            suffix = "json"
            rec = records[data.draw(st.integers(0, 1))]
            key = data.draw(st.sampled_from(list(RECORD_FIELDS)) | st.text(max_size=6))
            rec[key] = data.draw(ODD_VALUES)
            text = json.dumps({"seed": 1, "config_hash": "", "records": records})
        rc = self.analyze_exit(tmp_path, capsys, text, suffix)
        assert rc in (cli.EXIT_OK, cli.EXIT_CONFIG)

    @staticmethod
    def rearranged_csv(text, data):
        """The CSV text, maybe mutated as `mutated_csv` mutates it, with its
        columns permuted in every row, cells maybe added past the end of one
        row, and blank lines put in anywhere."""
        if data.draw(st.booleans()):
            text = TestCliExits.mutated_csv(text, data)
        rows = list(csv.reader(io.StringIO(text)))
        width = len(rows[0])
        order = data.draw(st.permutations(range(width)))
        rows = [[row[i] for i in order if i < len(row)] + row[width:] for row in rows]
        rows[data.draw(st.integers(0, len(rows) - 1))] += data.draw(
            st.lists(st.text(max_size=4), max_size=2))
        for _ in range(data.draw(st.integers(0, 3))):
            rows.insert(data.draw(st.integers(0, len(rows))), [])
        out = io.StringIO()
        csv.writer(out).writerows(rows)
        return out.getvalue()

    @settings(max_examples=200, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.data())
    def test_reader_reads_as_the_dict_reader_did(self, tmp_path, data):
        # Same records (in the same key order), seed and config hash, or
        # the same exception class, naming the same line.
        path = str(tmp_path / "results.csv")
        export_results([make_record(0), make_record(1, "FAILED")], path, seed=1,
                       config=CampaignConfig())
        with open(path, newline="", encoding="utf-8") as fh:
            text = self.rearranged_csv(fh.read(), data)
        with open(path, "w", newline="", encoding="utf-8") as fh:
            fh.write(text)
        outcome = {}
        for name, read in (("reference", dict_reader_csv), ("reader", results.read_csv)):
            try:
                outcome[name] = repr(read(path))
            except (KeyError, ValueError, csv.Error) as exc:
                line = re.match(r"line \d+", str(exc))
                outcome[name] = exc.__class__, line and line.group()
        assert outcome["reader"] == outcome["reference"]

    def test_non_object_record_exits_2(self, tmp_path, capsys):
        doc = '{"seed": 1, "config_hash": "", "records": [1]}'
        assert self.analyze_exit(tmp_path, capsys, doc) == cli.EXIT_CONFIG

    def test_top_level_array_exits_2(self, tmp_path, capsys):
        assert self.analyze_exit(tmp_path, capsys, "[1, 2]") == cli.EXIT_CONFIG

    @pytest.mark.parametrize("field, value", [
        ("public_endpoints", 5),
        ("public_endpoints", [5]),
        ("rtt_relayed_mean", "x"),
        ("client", [1]),
        ("private_addrs", None),
    ])
    def test_wrongly_typed_field_exits_2(self, tmp_path, capsys, field, value):
        rec = make_record()
        rec[field] = value
        doc = json.dumps({"seed": 1, "config_hash": "", "records": [rec]})
        assert self.analyze_exit(tmp_path, capsys, doc) == cli.EXIT_CONFIG

    def test_validation_names_the_wrongly_typed_field(self):
        for field, value, reason in [
                ("remote", 7, "remote must be a string"),
                ("outcome", ["SUCCESS"], "outcome must be a string"),
                ("attempts", {}, "attempts must be a list"),
                ("relay_addrs", "relay-00:1", "relay_addrs must be a list"),
                ("public_endpoints", [["a:1", "QUIC", "x"]], "public_endpoints"),
                ("rtt_to_relay_stddev", [0.0], "rtt_to_relay_stddev must be a number"),
                ("client", "", "client must not be empty"),
                ("protocol_filter", "UDP", "protocol_filter must be TCP, QUIC or null"),
                ("port_mapping_active", 1, "port_mapping_active must be a boolean"),
                ("as_id", 1.5, "as_id must be an integer or a string"),
                ("as_id", True, "as_id must be an integer or a string"),
                ("private_addrs", [1], "private_addrs entries must be strings")]:
            rec = make_record()
            rec[field] = value
            with pytest.raises(MalformedRecord, match=f"record 1: {reason}"):
                aggregate([make_record(), rec])
        # Plain endpoint strings and missing optional fields stay valid.
        rec = make_record()
        rec["public_endpoints"] = ["client-00000#nat:4001"]
        del rec["remote"], rec["relay_addrs"], rec["rtt_relayed_mean"]
        aggregate([rec])

    def test_validation_names_the_first_bad_field_in_the_record_order(self):
        rec = make_record()
        rec.update(trial="0", client=7)
        with pytest.raises(MalformedRecord, match="record 0: trial must be an integer"):
            validate_records([rec])
        del rec["trial"]
        rec["trial"] = "0"  # now after client
        with pytest.raises(MalformedRecord, match="record 0: client must be a string"):
            validate_records([rec])

    def test_validation_rejects_non_list_and_non_object_records(self):
        with pytest.raises(MalformedRecord, match="record 1: not an object"):
            aggregate([make_record(), "x"])
        with pytest.raises(MalformedRecord, match="must be a list"):
            aggregate({"0": make_record()})

    def test_load_results_rejects_non_object_document(self, tmp_path):
        path = tmp_path / "results.json"
        path.write_text("[]")
        with pytest.raises(ValueError, match="JSON object"):
            load_results(str(path))
