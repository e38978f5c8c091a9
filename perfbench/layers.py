"""Per-layer metrics of a traced run.

Counters are per operation over the first `window_ops` operations of the
run, so two traced runs of one commit report identical counts; host times
are per operation over the whole traced region.
"""

from __future__ import annotations

from perfbench.tracer import PACKET_KINDS, VERDICTS, layer_self_times

LAYERS = ("kernel", "net", "nat", "transport", "relay", "dcutr", "strategies",
          "campaign", "analysis", "cli", "bench")


def per_layer(wl, tracer, spans: dict, window: dict, n_ops: int, traced_s: float,
              replay) -> dict:
    """`spans`: `tracer.self_times()`; `window`: the tracer's counters
    after `wl.window_ops` operations; `replay`: host times of the same
    operations run again untraced."""
    c = window
    w = wl.window_ops
    layers = layer_self_times(spans)

    def per(key):
        return c.get(key, 0.0) / w

    def ratio(num, den):
        return c.get(num, 0.0) / c[den] if c.get(den) else 0.0

    def self_s(name):
        return spans.get(name, (0, 0.0, 0.0))[2] / n_ops

    def dur_s(name):
        return spans.get(name, (0, 0.0, 0.0))[1] / n_ops

    punches = c.get("strategies.punches", 0.0)
    hit_rate = ratio("strategies.hits", "strategies.punches")
    m = {
        "kernel.events_per_trial": per("kernel.events"),
        "kernel.events_per_s": c.get("kernel.events", 0.0) / sum(replay[:w]),
        "kernel.dispatch_self_s": self_s("kernel.run"),
        "kernel.rng_draws_per_trial": per("kernel.rng_draws"),
        "kernel.streams_per_trial": per("kernel.streams"),
        "net.sends_per_trial": per("net.sends"),
        "net.send_self_s": self_s("net.send"),
        "net.deliveries_per_trial": per("net.deliveries"),
        "net.drops_in_core": per("net.drops_in_core"),
        "net.drops_session_full": per("net.drops_session_full"),
        "nat.outbound_calls": per("nat.outbound_calls"),
        "nat.outbound_self_s": self_s("nat.outbound"),
        "nat.inbound_calls": per("nat.inbound_calls"),
        "nat.inbound_self_s": self_s("nat.inbound"),
        "nat.inbound_deliver_ratio": ratio("nat.verdict.DELIVER", "nat.inbound_calls"),
        "nat.rst_rejects": per("nat.verdict.REJECT_RST"),
        "nat.session_count_calls": per("nat.session_count_calls"),
        "nat.session_count_s": self_s("nat.session_count"),
        "packets.packets_built": per("packets.packets_built"),
        "packets.endpoints_built": per("packets.endpoints_built"),
        "transport.handler_self_s": self_s("transport.handler"),
        "transport.dials_per_trial": per("transport.dials"),
        "transport.rtt_pings_per_trial": per("transport.rtt_pings"),
        "relay.handler_self_s": self_s("relay.handler"),
        "relay.control_msgs_per_trial": per("relay.handled"),
        "relay.reservations_ok_ratio": ratio("relay.reservations_ok", "relay.reservations"),
        "dcutr.self_s": layers.get("dcutr", 0.0) / n_ops,
        "dcutr.attempts_per_trial": per("dcutr.attempts"),
        "dcutr.first_attempt_share": ratio("dcutr.first_attempt_successes",
                                           "dcutr.successes"),
        "dcutr.sim_ms_per_trial": per("dcutr.sim_ms"),
        "strategies.punch_self_s": self_s("strategies.punch"),
        "strategies.probes_per_punch": ratio("nat.inbound_calls", "strategies.punches"),
        "strategies.hit_rate": hit_rate,
        "strategies.oracle_gap": hit_rate - wl.oracle if punches else 0.0,
        "campaign.population_s": wl.population_s,
        "campaign.world_build_s": tracer.timings["campaign.world_build_s"] / n_ops,
        "campaign.reserve_phase_s": tracer.timings["campaign.reserve_phase_s"] / n_ops,
        "campaign.export_json_s": dur_s("campaign.export_json"),
        "campaign.export_csv_s": dur_s("campaign.export_csv"),
        "campaign.load_json_s": dur_s("campaign.load_json"),
        "campaign.load_csv_s": dur_s("campaign.load_csv"),
        "campaign.aggregate_s": dur_s("campaign.aggregate"),
        "campaign.bytes_written": per("campaign.bytes_written"),
        "analysis.identify_networks_s": dur_s("analysis.identify_networks"),
        "analysis.success_rate_series_s": dur_s("analysis.success_rate_series"),
        "analysis.relay_path_location_s": dur_s("analysis.relay_path_location"),
        "analysis.rtt_accuracy_s": dur_s("analysis.rtt_accuracy"),
        "analysis.latency_ratio_cdf_s": dur_s("analysis.latency_ratio_cdf"),
        "cli.analyze_self_s": self_s("cli.main"),
        "trace.overhead_ratio": traced_s / sum(replay),
        "trace.missing_hooks": float(len(tracer.missing_hooks)),
    }
    for verdict in VERDICTS:
        m[f"nat.verdicts.{verdict}"] = per(f"nat.verdict.{verdict}")
    for kind in PACKET_KINDS:
        m[f"packets.by_kind.{kind}"] = per(f"packets.by_kind.{kind}")
    for layer in LAYERS:
        m[f"{layer}.layer_self_s"] = layers.get(layer, 0.0) / n_ops
    return m


PER_LAYER_UNITS = (  # (suffix, unit), first match wins
    ("_ratio", "ratio"), ("_share", "ratio"), ("hit_rate", "ratio"),
    ("oracle_gap", "ratio"), ("events_per_s", "1/s"), ("sim_ms_per_trial", "ms"),
    ("bytes_written", "B"), ("_s", "s"))


def unit_of(name: str) -> str:
    for suffix, unit in PER_LAYER_UNITS:
        if name.endswith(suffix):
            return unit
    return "count"
