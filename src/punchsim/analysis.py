"""Batch analysis over hole-punch record files: client-network
identification, filtered success-rate time series with a trend line,
relay-path-location binning, RTT measurement accuracy, and the
direct-vs-relayed latency ratio distribution.

Input records follow the results-file schema, `results.RECORD_FIELDS`;
files produced elsewhere can be converted to it externally.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from datetime import datetime
from decimal import Decimal
from typing import Optional

from .results import RTT_CLASSES, validate_records

ZERO_PUBLIC = "zero-public"
MULTI_NETWORK = "multi-network"


def _public_ips(rec: dict) -> list[str]:
    ips = []
    for entry in rec["public_endpoints"]:
        endpoint = entry[0] if isinstance(entry, (list, tuple)) else entry
        ip = endpoint.rsplit(":", 1)[0]
        if ip not in ips:
            ips.append(ip)
    return ips


class _UnionFind:
    def __init__(self):
        self.parent: dict = {}

    def find(self, x):
        self.parent.setdefault(x, x)
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[rb] = ra


def identify_networks(records: list[dict]) -> list[dict]:
    """Annotate each record with a ``network`` label.

    Per client: records sharing a public IP belong to the same network;
    additionally, public IPs observed under the same autonomous system
    with an identical private-address set belong to the same network
    (the client kept its LAN but its public IP changed). Records without
    public endpoints get the zero-public label; records whose public IPs
    span several identified networks get the multi-network label.
    """
    validate_records(records)
    ordered = sorted(range(len(records)),
                     key=lambda i: (records[i]["client"],
                                    records[i]["timestamp"], i))
    by_client: dict[str, list[int]] = {}
    for i in ordered:
        by_client.setdefault(records[i]["client"], []).append(i)

    out = [dict(rec) for rec in records]
    public_ips = [_public_ips(rec) for rec in records]
    for client, indices in by_client.items():
        uf = _UnionFind()
        # (as_id, private-address set) -> its single IPs, each kept once.
        context_ips: dict[tuple, dict[str, None]] = {}
        for i in indices:
            ips = public_ips[i]
            if not ips:
                continue
            for ip in ips:
                uf.find(ip)
            # Only unambiguous (single-IP) observations drive the
            # same-LAN unification; a record spanning several IPs is
            # classified against the networks, never merges them.
            if len(ips) == 1:
                key = (records[i]["as_id"],
                       frozenset(records[i]["private_addrs"]))
                context_ips.setdefault(key, {})[ips[0]] = None
        for group in context_ips.values():
            first, *rest = group
            for ip in rest:
                uf.union(first, ip)

        labels: dict[str, int] = {}
        for i in indices:
            ips = public_ips[i]
            if not ips:
                out[i]["network"] = ZERO_PUBLIC
                continue
            roots = {uf.find(ip) for ip in ips}
            if len(roots) > 1:
                out[i]["network"] = MULTI_NETWORK
                continue
            root = roots.pop()
            if root not in labels:
                labels[root] = len(labels)
            out[i]["network"] = f"{client}/net-{labels[root]}"
    return out


# -- success-rate series -------------------------------------------------------


def apply_success_filters(records: list[dict],
                          min_per_client: int = 0) -> list[dict]:
    """The standard success-rate filters: drop port-mapped clients, keep
    only SUCCESS/FAILED outcomes, then drop clients below the minimum
    contribution count. Idempotent."""
    stage = [rec for rec in records
             if not rec["port_mapping_active"]
             and rec["outcome"] in ("SUCCESS", "FAILED")]
    counts: dict[str, int] = {}
    for rec in stage:
        counts[rec["client"]] = counts.get(rec["client"], 0) + 1
    return [rec for rec in stage if counts[rec["client"]] >= min_per_client]


def _day(rec: dict) -> str:
    return datetime.fromisoformat(rec["timestamp"]).date().isoformat()


def _ols(points: list[tuple[float, float]],
         weights: Optional[list[float]] = None) -> tuple[float, float]:
    """Least-squares slope and intercept; optionally weighted."""
    w = weights if weights is not None else [1.0] * len(points)
    sw = sum(w)
    mx = sum(wi * x for wi, (x, _) in zip(w, points)) / sw
    my = sum(wi * y for wi, (_, y) in zip(w, points)) / sw
    sxx = sum(wi * (x - mx) ** 2 for wi, (x, _) in zip(w, points))
    if sxx == 0.0:
        return 0.0, my
    sxy = sum(wi * (x - mx) * (y - my) for wi, (x, y) in zip(w, points))
    slope = sxy / sxx
    return slope, my - slope * mx


def success_rate_series(records: list[dict], min_per_client: int = 1000,
                        count_weighted: bool = False) -> dict:
    """Per-network daily success rates with a least-squares trend.

    Records must already carry network labels; ambiguous records are
    excluded. Reports both the dispersion of the daily points and the
    dispersion of the fit residuals.
    """
    keyed = [rec for rec in records
             if rec.get("network") not in (None, ZERO_PUBLIC, MULTI_NETWORK)]
    filtered = apply_success_filters(keyed, min_per_client)
    if not filtered:
        raise ValueError("no records survive the filters")

    groups: dict[tuple[str, str], list[dict]] = {}
    for rec in filtered:
        groups.setdefault((rec["network"], _day(rec)), []).append(rec)

    day0 = min(day for _, day in groups)
    origin = datetime.fromisoformat(day0 + "T00:00:00+00:00")
    points = []
    for (network, day), recs in sorted(groups.items()):
        at = datetime.fromisoformat(day + "T00:00:00+00:00")
        x = (at - origin).days
        rate = sum(rec["outcome"] == "SUCCESS" for rec in recs) / len(recs)
        points.append({"network": network, "day": day, "x": x,
                       "rate": rate, "n": len(recs)})

    xy = [(p["x"], p["rate"]) for p in points]
    weights = [float(p["n"]) for p in points] if count_weighted else None
    slope, intercept = _ols(xy, weights)
    rates = [p["rate"] for p in points]
    mean = sum(rates) / len(rates)
    stddev = (math.sqrt(sum((r - mean) ** 2 for r in rates) / (len(rates) - 1))
              if len(rates) > 1 else 0.0)
    residuals = [y - (slope * x + intercept) for x, y in xy]
    residual_stddev = (math.sqrt(sum(r * r for r in residuals)
                                 / (len(residuals) - 1))
                       if len(residuals) > 1 else 0.0)
    return {"points": points, "slope": slope, "intercept": intercept,
            "mean_rate": mean, "stddev_rate": stddev,
            "residual_stddev": residual_stddev, "n_records": len(filtered)}


# -- relay path location ----------------------------------------------------------


def relay_path_bins(filtered: list[dict], bin_width: float = 0.05
                    ) -> tuple[dict[str, list[int]], int]:
    """Success counts by where the relay sits on the path, location =
    RTT-to-relay / RTT-via-relay clipped to [0, 1], over records that
    already passed the success filters. Bin i holds the locations from the
    float nearest i * bin_width (0.3 starts bin 3 at width 0.1) up to the
    next bin's start, the last bin the rest up to 1.0, and is labelled by
    its start with as many decimals as the width has (at least two).
    Returns ({bin label: [successes, total]} in bin order, records skipped
    for lacking an RTT-to-relay or a nonzero relayed RTT)."""
    if not 0.0 < bin_width <= 1.0:
        raise ValueError("bin_width must be in (0, 1]")
    width = Decimal(str(bin_width))  # as written, so that 0.05 divides 1 exactly
    last = math.ceil(1 / width) - 1
    places = max(2, -width.as_tuple().exponent)
    num, den = width.as_integer_ratio()
    starts = [i * num / den for i in range(last + 1)]  # the float nearest i * width
    bins: dict[int, list[int]] = {}
    skipped = 0
    for rec in filtered:
        to_relay = rec.get("rtt_to_relay_mean")
        relayed = rec.get("rtt_relayed_mean")
        if to_relay is None or not relayed:
            skipped += 1
            continue
        loc = min(1.0, max(0.0, to_relay / relayed))
        i = bisect_right(starts, loc) - 1
        hit = bins.setdefault(i, [0, 0])
        hit[0] += rec["outcome"] == "SUCCESS"
        hit[1] += 1
    return {f"{i * width:.{places}f}": bins[i] for i in sorted(bins)}, skipped


def relay_path_location(records: list[dict], bin_width: float = 0.05) -> dict:
    """Success rate as a function of where the relay sits on the path
    (see `relay_path_bins`), over the standard success filters."""
    bins, skipped = relay_path_bins(apply_success_filters(records), bin_width)
    return {"bins": {label: {"successes": s, "total": n, "rate": s / n}
                     for label, (s, n) in bins.items()},
            "skipped": skipped}


# -- RTT accuracy and latency ratios ------------------------------------------------


def rtt_accuracy(records: list[dict]) -> dict:
    """Dispersion of each RTT measurement class: stddev/mean per record,
    returned sorted (an empirical CDF); zero-mean records are skipped."""
    out = {}
    for name, prefix in RTT_CLASSES.items():
        mean_key, stddev_key = f"{prefix}_mean", f"{prefix}_stddev"
        ratios = []
        skipped = 0
        for rec in records:
            mean = rec.get(mean_key)
            stddev = rec.get(stddev_key)
            if mean is None or stddev is None:
                continue
            if mean == 0.0:
                skipped += 1
                continue
            ratios.append(stddev / mean)
        out[name] = {"ratios": sorted(ratios), "skipped": skipped}
    return out


def latency_ratios(records: list[dict]) -> list[float]:
    """Direct-path RTT over relayed RTT, in record order, of each SUCCESS
    record that measured both as nonzero."""
    return [rec["rtt_direct_after_mean"] / rec["rtt_relayed_mean"] for rec in records
            if rec["outcome"] == "SUCCESS" and rec.get("rtt_direct_after_mean")
            and rec.get("rtt_relayed_mean")]


def latency_ratio_cdf(records: list[dict]) -> dict:
    """Distribution of direct-path RTT relative to the relayed RTT among
    successes (`latency_ratios`); the share of peers whose direct path
    came out slower is reported separately."""
    ratios = sorted(latency_ratios(records))
    over_one = sum(r > 1.0 for r in ratios)
    return {"ratios": ratios,
            "fraction_over_one": over_one / len(ratios) if ratios else None,
            "n": len(ratios)}


def analyze(records: list[dict], min_per_client: int = 0,
            bin_width: float = 0.05) -> dict:
    """Full pipeline over raw records; returns one JSON-serializable
    report with every analysis product."""
    annotated = identify_networks(records)
    label_counts: dict[str, int] = {}
    for rec in annotated:
        kind = rec["network"]
        if kind not in (ZERO_PUBLIC, MULTI_NETWORK):
            kind = "keyed"
        label_counts[kind] = label_counts.get(kind, 0) + 1
    try:
        series = success_rate_series(annotated, min_per_client=min_per_client)
    except ValueError:
        series = None
    return {
        "n_records": len(records),
        "record_labels": label_counts,
        "n_networks": len({rec["network"] for rec in annotated
                           if rec["network"] not in (ZERO_PUBLIC, MULTI_NETWORK)}),
        "success_rate_series": series,
        "relay_path_location": relay_path_location(annotated, bin_width),
        "rtt_accuracy": rtt_accuracy(annotated),
        "latency_ratio_cdf": latency_ratio_cdf(annotated),
    }
