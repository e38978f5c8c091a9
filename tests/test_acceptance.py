"""End-to-end acceptance checks: analytic oracle values, Monte Carlo
agreement, directional campaign properties, protocol-optimization
fixtures, analysis exactness, and determinism guarantees."""

import json

from punchsim.analysis import analyze
from punchsim.campaign import (CampaignConfig, PopulationSpec, TransportPolicy,
                               aggregate, export_results, load_results,
                               run_campaign)
from punchsim.dcutr import DcutrConfig, OutcomeAttempt, OutcomeResult
from punchsim.kernel import RandomStream
from punchsim.nat import (FilteringBehavior, MappingBehavior, NatConfig,
                          PortAllocation)
from punchsim.strategies import (BirthdayPlan, BirthdayScenario,
                                 birthday_monte_carlo, birthday_probability,
                                 both_edm_pair_share, dial_arrival_skew,
                                 expected_gain, mixed_pair_share,
                                 refined_wait_time)
from punchsim.transport import Transport

from punch_world import build_world, run_punch


class TestBirthdayOracleValues:
    def test_mixed_256_256_reaches_64_percent(self):
        p = birthday_probability(BirthdayPlan(m_open=256, k_probe=256))
        assert 0.62 <= p <= 0.65

    def test_mixed_256_2048_exceeds_99_9_percent(self):
        p = birthday_probability(BirthdayPlan(m_open=256, k_probe=2048))
        assert p >= 0.999

    def test_both_edm_256_2048_near_one_hundredth_percent(self):
        p = birthday_probability(BirthdayPlan(
            m_open=256, k_probe=2048, scenario=BirthdayScenario.EDM_VS_EDM))
        assert 1.0e-4 <= p <= 1.4e-4


class TestMonteCarloAgreement:
    def test_20k_punches_within_two_points_of_oracle(self):
        plan = BirthdayPlan(m_open=256, k_probe=256)
        expected = birthday_probability(plan)
        cfg = NatConfig(mapping=MappingBehavior.APDM,
                        filtering=FilteringBehavior.APDF,
                        port_alloc=PortAllocation.RANDOM)
        n = 20_000
        hits = sum(birthday_monte_carlo(plan, cfg, 99, n, workers=2))
        assert abs(hits / n - expected) < 0.02


class TestExpectedGainArithmetic:
    def test_gain_at_11_percent_edm(self):
        assert 0.124 <= expected_gain(0.11, 0.64) <= 0.126

    def test_pair_shares_match_rounded_values(self):
        assert round(mixed_pair_share(0.11), 3) == 0.196
        assert round(both_edm_pair_share(0.11), 3) == 0.012


class TestFirstAttemptDominance:
    def test_cone_population_succeeds_on_first_attempt(self):
        cfg = CampaignConfig(
            population=PopulationSpec(
                n_clients=40, n_remotes=40, seed=42,
                shares={"FullCone": 0.1, "RestrictedCone": 0.2,
                        "PortRestrictedCone": 0.7, "Symmetric": 0.0},
                jitter=1.0),
            policy=TransportPolicy.RANDOM)
        records = run_campaign(cfg, n_trials=10_000, seed=42, workers=2)
        histogram = aggregate(records, seed=42).attempt_histogram
        successes = sum(histogram.values())
        assert successes > 0
        assert histogram.get(1, 0) / successes >= 0.95


class TestTransportAgnosticism:
    def test_tcp_and_quic_rates_within_two_points(self):
        """Parity holds by cell, not everywhere. This population (0.8
        PortRestrictedCone, 0.2 Symmetric) has no FullCone or
        RestrictedCone client meeting a Symmetric remote: the one cell
        where TCP succeeds and QUIC fails, because the listener is DCUtR's
        only QUIC dialer. `DcutrConfig(alternate_roles=True)` recovers that
        cell over QUIC."""
        rates = {}
        for policy in (TransportPolicy.TCP, TransportPolicy.QUIC):
            cfg = CampaignConfig(
                population=PopulationSpec(
                    n_clients=40, n_remotes=40, seed=42,
                    shares={"FullCone": 0.0, "RestrictedCone": 0.0,
                            "PortRestrictedCone": 0.8, "Symmetric": 0.2}),
                policy=policy)
            records = run_campaign(cfg, n_trials=10_000, seed=42, workers=2)
            rates[policy] = aggregate(records, seed=42).success_rate
        assert abs(rates[TransportPolicy.TCP]
                   - rates[TransportPolicy.QUIC]) <= 0.02


class TestSyncMargin:
    """Jitter-free symmetric fixture: both access latencies 10 ms with a
    5 ms NAT leg each, so the NAT-to-NAT one-way latency is 10 ms. A wait
    error of f times that margin makes the early dial's SYN reach the
    peer NAT f*10 ms before the peer's own dial passes it."""

    def run_with_error_factor(self, factor):
        strict = NatConfig(rst_on_unsolicited_tcp=True)
        net, svc, client, remote = build_world(
            client_nat=strict,
            remote_nat=NatConfig(rst_on_unsolicited_tcp=True),
            client_lat=10.0, remote_lat=10.0,
            client_leg=5.0, remote_leg=5.0, seed=9)
        cfg = DcutrConfig(max_attempts=1, sync_error_ms=-factor * 10.0)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg,
                           Transport.TCP)
        return res.outcome

    def test_errors_below_margin_succeed(self):
        for factor in (0.0, 0.5, 0.9):
            assert self.run_with_error_factor(factor) is \
                OutcomeResult.SUCCESS, factor

    def test_errors_above_margin_fail(self):
        for factor in (1.1, 1.5):
            assert self.run_with_error_factor(factor) is \
                OutcomeResult.FAILED, factor


class TestRefinedWait:
    """Asymmetric fixture: the listener sits 20 ms behind its NAT
    (device RTT 40 ms) while the initiator sits 5 ms behind its own
    (device RTT 10 ms), leaving under 15 ms of margin for the half-RTT
    baseline."""

    def build(self):
        strict_c = NatConfig(rst_on_unsolicited_tcp=True)
        strict_r = NatConfig(rst_on_unsolicited_tcp=True)
        return build_world(client_nat=strict_c, remote_nat=strict_r,
                           client_lat=22.0, remote_lat=10.0,
                           client_leg=20.0, remote_leg=5.0, seed=9)

    def test_baseline_half_rtt_fails(self):
        net, svc, client, remote = self.build()
        cfg = DcutrConfig(max_attempts=1, refined_wait=False)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg,
                           Transport.TCP)
        assert res.outcome is OutcomeResult.FAILED

    def test_refined_wait_succeeds(self):
        net, svc, client, remote = self.build()
        cfg = DcutrConfig(max_attempts=1, refined_wait=True)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg,
                           Transport.TCP)
        assert res.outcome is OutcomeResult.SUCCESS

    def test_arrival_skew_inequality_over_random_topologies(self):
        rng = RandomStream(7, "skew")
        for i in range(1_000):
            leg_l = rng.uniform(0.0, 50.0)
            leg_i = rng.uniform(0.0, 50.0)
            relay_ow = rng.uniform(1.0, 200.0)
            rtt = 2.0 * relay_ow
            refined = refined_wait_time(rtt, 2.0 * leg_l, 2.0 * leg_i)
            skew_refined = dial_arrival_skew(leg_i, leg_l, refined, relay_ow)
            skew_base = dial_arrival_skew(leg_i, leg_l, rtt / 2.0, relay_ow)
            assert skew_refined <= skew_base + 1e-9


class TestConnectionReversal:
    def test_mapped_clients_get_reversed_without_punching(self):
        cfg = CampaignConfig(
            population=PopulationSpec(n_clients=40, n_remotes=40, seed=42,
                                      port_mapping_prevalence=0.3))
        records = run_campaign(cfg, n_trials=2_000, seed=42)

        def reversed_share(recs):
            return (sum(r["outcome"] == "CONNECTION_REVERSED" for r in recs)
                    / len(recs))

        mapped = [r for r in records if r["port_mapping_active"]]
        unmapped = [r for r in records if not r["port_mapping_active"]]
        assert mapped and unmapped
        share_mapped = reversed_share(mapped)
        share_unmapped = reversed_share(unmapped)
        assert share_mapped >= 10 * max(share_unmapped, 1e-9) or \
            share_unmapped == 0.0
        assert share_mapped > 0.5
        for r in records:
            if r["outcome"] == "CONNECTION_REVERSED":
                assert r["attempts"] == []


class TestRoleAlternation:
    def build(self):
        return build_world(
            client_nat=NatConfig(mapping=MappingBehavior.EIM,
                                 filtering=FilteringBehavior.ADF),
            remote_nat=NatConfig(mapping=MappingBehavior.APDM,
                                 filtering=FilteringBehavior.APDF,
                                 port_alloc=PortAllocation.RANDOM),
            client_lat=10.0, remote_lat=20.0,
            client_leg=1.0, remote_leg=2.0, seed=9)

    def test_alternation_recovers_on_second_attempt(self):
        net, svc, client, remote = self.build()
        cfg = DcutrConfig(alternate_roles=True)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg,
                           Transport.QUIC)
        assert res.outcome is OutcomeResult.SUCCESS
        assert [a.outcome for a in res.attempts] == [
            OutcomeAttempt.FAILED, OutcomeAttempt.SUCCESS]

    def test_without_alternation_all_three_attempts_fail(self):
        net, svc, client, remote = self.build()
        cfg = DcutrConfig(alternate_roles=False)
        _, res = run_punch(net, client, remote, [svc.endpoint], cfg,
                           Transport.QUIC)
        assert res.outcome is OutcomeResult.FAILED
        assert [a.outcome for a in res.attempts] == [
            OutcomeAttempt.FAILED] * 3


class TestAnalysisRoundTrip:
    # Hand-computed analysis fixtures live in test_analysis.py; this
    # covers the export -> ingest -> analyze bit-identity.

    def test_json_round_trip_analysis_is_bit_identical(self, tmp_path):
        cfg = CampaignConfig(population=PopulationSpec(
            n_clients=10, n_remotes=10, seed=5))
        records = run_campaign(cfg, n_trials=120, seed=5)
        path = tmp_path / "results.json"
        export_results(records, str(path), seed=5, config=cfg)
        loaded, _ = load_results(str(path))
        direct = json.dumps(analyze(records), sort_keys=True)
        round_trip = json.dumps(analyze(loaded), sort_keys=True)
        assert direct == round_trip
        assert aggregate(records, seed=5) == aggregate(loaded, seed=5)

    def test_csv_round_trip_analysis_is_bit_identical(self, tmp_path):
        cfg = CampaignConfig(population=PopulationSpec(
            n_clients=10, n_remotes=10, seed=5))
        records = run_campaign(cfg, n_trials=120, seed=5)
        path = tmp_path / "results.csv"
        export_results(records, str(path), seed=5, config=cfg)
        loaded, _ = load_results(str(path))
        assert json.dumps(analyze(records), sort_keys=True) == \
            json.dumps(analyze(loaded), sort_keys=True)


class TestDeterminism:
    def test_repeat_runs_export_byte_identical_files(self, tmp_path):
        cfg = CampaignConfig(population=PopulationSpec(
            n_clients=10, n_remotes=10, seed=6))
        p1, p2 = tmp_path / "run1.json", tmp_path / "run2.json"
        export_results(run_campaign(cfg, n_trials=80, seed=6),
                       str(p1), seed=6, config=cfg)
        export_results(run_campaign(cfg, n_trials=80, seed=6),
                       str(p2), seed=6, config=cfg)
        assert p1.read_bytes() == p2.read_bytes()

    def test_parallel_export_matches_serial(self, tmp_path):
        cfg = CampaignConfig(population=PopulationSpec(
            n_clients=10, n_remotes=10, seed=6))
        p1, p2 = tmp_path / "serial.json", tmp_path / "parallel.json"
        export_results(run_campaign(cfg, n_trials=80, seed=6, workers=1),
                       str(p1), seed=6, config=cfg)
        export_results(run_campaign(cfg, n_trials=80, seed=6, workers=4),
                       str(p2), seed=6, config=cfg)
        assert p1.read_bytes() == p2.read_bytes()
