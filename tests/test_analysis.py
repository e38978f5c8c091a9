import math

import pytest

from punchsim.analysis import (MULTI_NETWORK, ZERO_PUBLIC, _UnionFind, analyze,
                               apply_success_filters, identify_networks,
                               latency_ratio_cdf, latency_ratios, relay_path_bins,
                               relay_path_location, rtt_accuracy, success_rate_series)
from punchsim.campaign import (CampaignConfig, PopulationSpec, TransportPolicy,
                               generate_population, run_campaign)
from punchsim.results import MalformedRecord, validate_records


def rec(client="c1", ts="2026-01-01T00:00:00+00:00", ips=("1.1.1.1",),
        priv=("10.0.0.1",), asn=64512, outcome="SUCCESS", mapped=False,
        to_relay=None, relayed=None, direct=None, to_relay_std=None,
        relayed_std=None, direct_std=None, network=None):
    out = {
        "client": client,
        "timestamp": ts,
        "public_endpoints": [[f"{ip}:4001", "QUIC"] for ip in ips],
        "private_addrs": list(priv),
        "as_id": asn,
        "outcome": outcome,
        "attempts": [],
        "port_mapping_active": mapped,
        "rtt_to_relay_mean": to_relay, "rtt_to_relay_stddev": to_relay_std,
        "rtt_relayed_mean": relayed, "rtt_relayed_stddev": relayed_std,
        "rtt_direct_after_mean": direct, "rtt_direct_after_stddev": direct_std,
    }
    if network is not None:
        out["network"] = network
    return out


class TestIdentifyNetworks:
    def test_same_ip_is_same_network(self):
        out = identify_networks([rec(ips=("1.1.1.1",)),
                                 rec(ips=("1.1.1.1",))])
        assert out[0]["network"] == out[1]["network"] == "c1/net-0"

    def test_ip_change_same_lan_is_same_network(self):
        out = identify_networks([
            rec(ips=("1.1.1.1",), priv=("10.0.0.1",)),
            rec(ips=("2.2.2.2",), priv=("10.0.0.1",),
                ts="2026-01-02T00:00:00+00:00"),
        ])
        assert out[0]["network"] == out[1]["network"] == "c1/net-0"

    def test_ip_change_different_lan_is_new_network(self):
        out = identify_networks([
            rec(ips=("1.1.1.1",), priv=("10.0.0.1",)),
            rec(ips=("2.2.2.2",), priv=("192.168.0.7",),
                ts="2026-01-02T00:00:00+00:00"),
        ])
        assert out[0]["network"] == "c1/net-0"
        assert out[1]["network"] == "c1/net-1"

    def test_different_as_is_new_network(self):
        out = identify_networks([
            rec(ips=("1.1.1.1",), asn=64512),
            rec(ips=("2.2.2.2",), asn=64513,
                ts="2026-01-02T00:00:00+00:00"),
        ])
        assert {out[0]["network"], out[1]["network"]} == \
            {"c1/net-0", "c1/net-1"}

    def test_lans_sharing_an_ip_chain_into_one_network(self):
        # LAN A moves from IP 1 to IP 2, LAN B from IP 3 to IP 1, so all
        # three IPs are one network, however often IP 2 is looked up.
        days = iter(range(1, 10))
        out = identify_networks([
            rec(ips=(ip,), priv=(lan,), ts=f"2026-01-0{next(days)}T00:00:00+00:00")
            for lan, ip in [("10.0.0.1", "1.1.1.1"), ("10.0.0.1", "2.2.2.2"),
                            ("192.168.0.7", "3.3.3.3"), ("192.168.0.7", "1.1.1.1"),
                            ("172.16.0.1", "2.2.2.2")]])
        assert {r["network"] for r in out} == {"c1/net-0"}

    def test_repeated_ips_of_one_lan_make_one_union(self, monkeypatch):
        # Seen 6 times on IP 1, then twice on IP 2, behind the same LAN:
        # one network, and each IP of the LAN is joined to the first once.
        unions = []
        inner = _UnionFind.union
        monkeypatch.setattr(_UnionFind, "union",
                            lambda uf, a, b: unions.append((a, b)) or inner(uf, a, b))
        out = identify_networks([
            rec(ips=(ip,), ts=f"2026-01-0{day}T00:00:00+00:00")
            for day, ip in enumerate(["1.1.1.1"] * 6 + ["2.2.2.2"] * 2, start=1)])
        assert {r["network"] for r in out} == {"c1/net-0"}
        assert unions == [("1.1.1.1", "2.2.2.2")]

    def test_zero_public_label(self):
        out = identify_networks([rec(ips=())])
        assert out[0]["network"] == ZERO_PUBLIC

    def test_multi_network_label(self):
        out = identify_networks([
            rec(ips=("1.1.1.1",), priv=("10.0.0.1",)),
            rec(ips=("2.2.2.2",), priv=("192.168.0.7",),
                ts="2026-01-02T00:00:00+00:00"),
            rec(ips=("1.1.1.1", "2.2.2.2"), priv=("10.0.0.1",),
                ts="2026-01-03T00:00:00+00:00"),
        ])
        assert out[2]["network"] == MULTI_NETWORK

    def test_clients_partition_independently(self):
        out = identify_networks([rec(client="a", ips=("1.1.1.1",)),
                                 rec(client="b", ips=("1.1.1.1",))])
        assert out[0]["network"] == "a/net-0"
        assert out[1]["network"] == "b/net-0"

    def test_labels_partition_every_record(self):
        records = [rec(ips=("1.1.1.1",)), rec(ips=()),
                   rec(client="c2", ips=("3.3.3.3",))]
        out = identify_networks(records)
        assert len(out) == len(records)
        assert all("network" in r for r in out)

    def test_malformed_record_reports_position(self):
        bad = [rec(), {"client": "x"}]
        with pytest.raises(MalformedRecord) as err:
            validate_records(bad)
        assert err.value.index == 1

    def test_unknown_outcome_rejected(self):
        with pytest.raises(MalformedRecord):
            validate_records([rec(outcome="MAYBE")])

    def test_bad_timestamp_rejected(self):
        with pytest.raises(MalformedRecord):
            validate_records([rec(ts="not-a-date")])


class TestSuccessRateSeries:
    def fixture(self):
        day1, day2 = "2026-01-01T12:00:00+00:00", "2026-01-02T12:00:00+00:00"
        n1, n2 = "c1/net-0", "c2/net-0"
        return [
            rec(client="c1", ts=day1, outcome="SUCCESS", network=n1),
            rec(client="c1", ts=day1, outcome="SUCCESS", network=n1),
            rec(client="c1", ts=day1, outcome="SUCCESS", network=n1),
            rec(client="c1", ts=day1, outcome="FAILED", network=n1),
            rec(client="c1", ts=day2, outcome="SUCCESS", network=n1),
            rec(client="c1", ts=day2, outcome="FAILED", network=n1),
            rec(client="c2", ts=day1, outcome="SUCCESS", network=n2),
            rec(client="c2", ts=day1, outcome="SUCCESS", network=n2),
        ]

    def test_hand_computed_points_and_trend(self):
        out = success_rate_series(self.fixture(), min_per_client=1)
        assert [(p["network"], p["day"], p["x"], p["rate"], p["n"])
                for p in out["points"]] == [
            ("c1/net-0", "2026-01-01", 0, 0.75, 4),
            ("c1/net-0", "2026-01-02", 1, 0.5, 2),
            ("c2/net-0", "2026-01-01", 0, 1.0, 2),
        ]
        assert out["slope"] == pytest.approx(-0.375, abs=1e-12)
        assert out["intercept"] == pytest.approx(0.875, abs=1e-12)
        assert out["mean_rate"] == 0.75
        assert out["stddev_rate"] == 0.25
        assert out["n_records"] == 8

    def test_count_weighted_trend_differs(self):
        plain = success_rate_series(self.fixture(), min_per_client=1)
        weighted = success_rate_series(self.fixture(), min_per_client=1,
                                       count_weighted=True)
        assert weighted["slope"] != plain["slope"]

    def test_min_per_client_excludes_small_contributors(self):
        out = success_rate_series(self.fixture(), min_per_client=3)
        assert {p["network"] for p in out["points"]} == {"c1/net-0"}
        assert out["n_records"] == 6

    def test_filters_drop_mapped_and_non_terminal(self):
        records = self.fixture() + [
            rec(client="c1", outcome="SUCCESS", mapped=True,
                network="c1/net-0"),
            rec(client="c1", outcome="NO_STREAM", network="c1/net-0"),
            rec(client="c3", outcome="SUCCESS", network=ZERO_PUBLIC),
        ]
        out = success_rate_series(records, min_per_client=1)
        assert out["n_records"] == 8

    def test_empty_after_filters_raises(self):
        with pytest.raises(ValueError):
            success_rate_series([rec(mapped=True, network="c1/net-0")],
                                min_per_client=1)


class TestRelayPathLocation:
    def test_hand_computed_bins(self):
        records = [
            rec(outcome="SUCCESS", to_relay=11.0, relayed=40.0),   # 0.275
            rec(outcome="FAILED", to_relay=11.5, relayed=40.0),    # 0.2875
            rec(outcome="SUCCESS", to_relay=33.0, relayed=40.0),   # 0.825
            rec(outcome="SUCCESS", to_relay=60.0, relayed=40.0),   # clip 1.0
            rec(outcome="SUCCESS", to_relay=None, relayed=40.0),   # skipped
        ]
        out = relay_path_location(records)
        assert out["bins"] == {
            "0.25": {"successes": 1, "total": 2, "rate": 0.5},
            "0.80": {"successes": 1, "total": 1, "rate": 1.0},
            "0.95": {"successes": 1, "total": 1, "rate": 1.0},
        }
        assert out["skipped"] == 1

    def test_fine_bins_keep_distinct_labels(self):
        # At width 0.004, bins 0 and 1 once both printed as 0.00.
        records = [rec(outcome="SUCCESS", to_relay=0.1, relayed=100.0),   # bin 0
                   rec(outcome="FAILED", to_relay=0.5, relayed=100.0),    # bin 1
                   rec(outcome="SUCCESS", to_relay=0.9, relayed=100.0),   # bin 2
                   rec(outcome="SUCCESS", to_relay=0.45, relayed=100.0)]  # bin 1
        out = relay_path_location(records, bin_width=0.004)
        assert out["bins"] == {
            "0.000": {"successes": 1, "total": 1, "rate": 1.0},
            "0.004": {"successes": 1, "total": 2, "rate": 0.5},
            "0.008": {"successes": 1, "total": 1, "rate": 1.0},
        }

    @pytest.mark.parametrize("width, locations, expected", [
        (0.005, [0.002, 0.007, 0.012, 0.017],
         {"0.000": 1, "0.005": 1, "0.010": 1, "0.015": 1}),
        # A width that does not divide 1 leaves a partial top bin.
        (0.7, [0.1, 0.9, 1.0], {"0.00": 1, "0.70": 2}),
        (0.4, [0.5, 0.9, 1.0], {"0.40": 1, "0.80": 2}),
        # A location on a decimal edge starts its bin, and the float just
        # under an edge stays in the bin below.
        (0.1, [0.3, 0.6, 0.7], {"0.30": 1, "0.60": 1, "0.70": 1}),
        (0.09, [0.44999999999999996, 0.45], {"0.36": 1, "0.45": 1}),
    ])
    def test_each_location_lands_in_the_bin_that_holds_it(self, width, locations, expected):
        bins, skipped = relay_path_bins(
            [rec(to_relay=loc, relayed=1.0) for loc in locations], width)
        assert {label: total for label, (_, total) in bins.items()} == expected
        assert list(bins) == sorted(expected) and skipped == 0

    def test_invalid_bin_width_rejected(self):
        with pytest.raises(ValueError):
            relay_path_location([], bin_width=0.0)


class TestRttDistributions:
    def test_rtt_accuracy_hand_computed(self):
        records = [
            rec(to_relay=10.0, to_relay_std=1.0),
            rec(to_relay=20.0, to_relay_std=5.0),
            rec(to_relay=0.0, to_relay_std=0.0),  # zero mean: skipped
            rec(),                                # missing: ignored
        ]
        out = rtt_accuracy(records)
        assert out["to_relay"]["ratios"] == [0.1, 0.25]
        assert out["to_relay"]["skipped"] == 1
        assert out["via_relay"]["ratios"] == []

    def test_latency_ratio_cdf_hand_computed(self):
        records = [
            rec(outcome="SUCCESS", direct=30.0, relayed=60.0),
            rec(outcome="SUCCESS", direct=80.0, relayed=40.0),
            rec(outcome="FAILED", direct=10.0, relayed=40.0),
            rec(outcome="SUCCESS", direct=None, relayed=40.0),
        ]
        out = latency_ratio_cdf(records)
        assert out["ratios"] == [0.5, 2.0]
        assert out["fraction_over_one"] == 0.5
        assert out["n"] == 2


class TestFiltersAndPipeline:
    def test_apply_success_filters_idempotent(self):
        records = [rec(outcome="SUCCESS"), rec(outcome="NO_STREAM"),
                   rec(outcome="FAILED", mapped=True)]
        once = apply_success_filters(records)
        assert apply_success_filters(once) == once
        assert once == [records[0]]

    def test_analyze_produces_full_report(self):
        records = [rec(outcome="SUCCESS", to_relay=10.0, to_relay_std=0.5,
                       relayed=40.0, relayed_std=1.0, direct=20.0,
                       direct_std=0.2),
                   rec(outcome="FAILED", to_relay=12.0, relayed=40.0,
                       ts="2026-01-01T01:00:00+00:00")]
        report = analyze(records, min_per_client=1)
        assert report["n_records"] == 2
        assert report["n_networks"] == 1
        assert report["success_rate_series"]["mean_rate"] == 0.5
        assert report["latency_ratio_cdf"]["ratios"] == [0.5]
        assert math.isclose(
            report["rtt_accuracy"]["to_relay"]["ratios"][0], 0.05)


# -- the RTT analyses against the latency model that produced them -------------


@pytest.fixture(scope="module")
def modelled():
    """Records of a one-relay campaign whose jitter (stddev half the mean)
    reaches the latency floor, each with the access means of its client
    c, the relay r and its remote m. A one-way draw has mean (sender's +
    receiver's), so a ping to the relay takes 2(c+r) on average, one
    through the circuit 2(c+r) + 2(r+m), and one direct 2(c+m)."""
    config = CampaignConfig(
        population=PopulationSpec(n_clients=40, n_remotes=40, n_relays=1,
                                  jitter=0.5, seed=7),
        policy=TransportPolicy.RANDOM)
    population = generate_population(config.population)
    access = {peer.peer_id: peer.access_latency_ms
              for peer in population.clients + population.remotes}
    r = population.relays[0].access_latency_ms
    return [(record, access[record["client"]], r, access[record["remote"]])
            for record in run_campaign(config, 600, seed=7)]


class TestAgainstTheLatencyModel:
    # The noise of a 10-ping mean at this jitter puts some records past
    # one bin of their truth; at most these shares may be.
    BIN_WIDTH = 0.1
    MISBINNED = 0.10
    RATIO_MISSES = 0.15

    @pytest.mark.parametrize("field,model", [
        ("rtt_to_relay_mean", lambda c, r, m: 2 * (c + r)),
        ("rtt_relayed_mean", lambda c, r, m: 2 * (c + r) + 2 * (r + m)),
        ("rtt_direct_after_mean", lambda c, r, m: 2 * (c + m)),
    ], ids=["to-relay", "relayed", "direct-after"])
    def test_rtt_means_are_unbiased(self, modelled, field, model):
        ratios = [rec[field] / model(c, r, m) for rec, c, r, m in modelled
                  if rec[field] is not None]
        n = len(ratios)
        mean = sum(ratios) / n
        se = math.sqrt(sum((x - mean) ** 2 for x in ratios) / (n - 1) / n)
        assert n >= 300
        assert abs(mean - 1.0) < 6 * se, (mean, se)

    def test_relay_path_bins_place_records_at_the_true_location(self, modelled):
        placed = misbinned = 0
        for rec, c, r, m in modelled:
            bins, skipped = relay_path_bins([rec], self.BIN_WIDTH)
            if skipped:
                continue
            (label,) = bins
            true_bin = int((c + r) / (c + 2 * r + m) / self.BIN_WIDTH)
            placed += 1
            misbinned += abs(round(float(label) / self.BIN_WIDTH) - true_bin) > 1
        assert placed >= 500
        assert misbinned <= self.MISBINNED * placed

    def test_latency_ratios_match_the_true_ratio(self, modelled):
        measured = misses = 0
        for rec, c, r, m in modelled:
            ratio = latency_ratios([rec])
            if ratio:
                measured += 1
                misses += abs(ratio[0] - (c + m) / (c + 2 * r + m)) > self.BIN_WIDTH
        assert measured >= 300
        assert misses <= self.RATIO_MISSES * measured
