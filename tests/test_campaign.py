import json

import pytest

from punchsim import cli
from punchsim.analysis import MalformedRecord, relay_path_location
from punchsim.campaign import (CampaignConfig, PopulationSpec,
                               TransportPolicy, aggregate, config_from_dict,
                               config_hash, config_to_dict, export_results,
                               generate_population, load_results,
                               run_campaign)
from punchsim.nat import MappingBehavior

VALID_OUTCOMES = {"UNKNOWN", "NO_CONNECTION", "NO_STREAM",
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

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            run_campaign(small_config(), n_trials=0, seed=1)


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

    def test_re_export_is_byte_identical(self, tmp_path):
        cfg = small_config()
        records = run_campaign(cfg, n_trials=30, seed=2)
        p1, p2 = tmp_path / "a.json", tmp_path / "b.json"
        export_results(records, str(p1), seed=2, config=cfg)
        loaded, _ = load_results(str(p1))
        export_results(loaded, str(p2), seed=2, config=cfg)
        assert p1.read_bytes() == p2.read_bytes()

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

    def test_default_config_export_layout_unchanged(self):
        blob = config_to_dict(CampaignConfig())
        assert set(blob) == {"population", "policy", "refined_wait",
                             "alternate_roles", "ttl_priming", "persistent_nat",
                             "trial_spacing_s", "dcutr"}
        assert config_hash(CampaignConfig()) == "6fd1505934db1ed4"


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

    def analyze_exit(self, tmp_path, capsys, text):
        path = tmp_path / "results.json"
        path.write_text(text)
        rc = cli.main(["analyze", "--in", str(path),
                       "--out", str(tmp_path / "report.json")])
        assert "Traceback" not in capsys.readouterr().err
        return rc

    def test_non_object_record_exits_2(self, tmp_path, capsys):
        doc = '{"seed": 1, "config_hash": "", "records": [1]}'
        assert self.analyze_exit(tmp_path, capsys, doc) == cli.EXIT_CONFIG

    def test_top_level_array_exits_2(self, tmp_path, capsys):
        assert self.analyze_exit(tmp_path, capsys, "[1, 2]") == cli.EXIT_CONFIG

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
