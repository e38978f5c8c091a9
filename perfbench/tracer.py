"""In-memory span tracer for the traced benchmark run.

The tracer never edits punchsim: it installs wrappers around punchsim's
functions and methods from outside, and `uninstall` puts every original
back. Spans are kept in four parallel arrays (name, parent, start, end)
and written out once, when the run ends.

Most of a discrete-event simulation runs inside event callbacks and packet
handlers, so besides per-function spans the tracer wraps two dispatch
points: callbacks passed to `Simulation.schedule` and handlers registered
through `Host.bind`. Each callback or handler runs in a span named after
the module that defined it, so its work is charged to that layer.
"""

from __future__ import annotations

import json
import sys
import time
from array import array
from collections import defaultdict

PERF = time.perf_counter
ROOT = "bench.root"

PACKET_KINDS = ("TCP_SYN", "TCP_SYNACK", "TCP_ACK", "TCP_RST",
                "UDP_DATAGRAM", "QUIC_INITIAL", "QUIC_REPLY")
VERDICTS = ("DELIVER", "DROP", "REJECT_RST")
RNG_METHODS = ("normal", "uniform", "random", "randint", "sample", "choice",
               "shuffle")


def layer_of(obj) -> str:
    """The punchsim module that defined a function, bound method or
    lambda; code outside punchsim belongs to the benchmark ("bench")."""
    module = getattr(obj, "__module__", None) or ""
    if module.startswith("punchsim."):
        return module.split(".", 2)[1]
    return "bench"


class Tracer:
    """Spans and counters of one traced run."""

    def __init__(self):
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        # Hardware-independent counters, and host-time accumulators.
        self.counts: dict[str, float] = defaultdict(float)
        self.timings: dict[str, float] = defaultdict(float)
        # Objects created while an operation runs, read after it ends.
        self.networks: list = []
        self.hole_punches: list = []
        # Entry time of the current trial until its first simulation run.
        self.trial_start = None
        self._patches: list[tuple[object, str, bool, object]] = []
        self.missing_hooks: list[str] = []
        self.root_index = -1
        self.root_last = -1

    # -- spans -----------------------------------------------------------

    def name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str, at: float | None = None) -> int:
        idx = len(self.start)
        self.name.append(self.name_id(name))
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(PERF() if at is None else at)
        return idx

    def close(self, idx: int, at: float | None = None) -> None:
        self.end[idx] = PERF() if at is None else at
        popped = self._stack.pop()
        if popped != idx:
            raise RuntimeError("spans closed out of order")

    def open_root(self) -> None:
        self.root_index = self.open(ROOT)

    def close_root(self) -> None:
        self.close(self.root_index)
        self.root_last = len(self.start) - 1

    def spanned(self, fn, name: str, count: str | None = None):
        """`fn` wrapped so that each call runs in a span called `name`."""
        nid = self.name_id(name)
        names, parents, starts, ends = self.name, self.parent, self.start, self.end
        stack, counts = self._stack, self.counts

        def wrapper(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(idx)
            if count is not None:
                counts[count] += 1
            starts.append(PERF())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = PERF()
                stack.pop()

        return wrapper

    # -- self time -------------------------------------------------------

    def self_times(self) -> dict[str, tuple[int, float, float]]:
        """Per span name among the root and its descendants: (calls,
        total duration, total self time). Self time is a span's duration
        minus the time its direct children cover."""
        lo, hi = self.root_index, self.root_last + 1
        parent, start, end = self.parent, self.start, self.end
        child = [0.0] * (hi - lo)
        for i in range(lo + 1, hi):
            child[parent[i] - lo] += end[i] - start[i]
        out: dict[str, list] = {}
        for i in range(lo, hi):
            dur = end[i] - start[i]
            entry = out.setdefault(self.names[self.name[i]], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += dur
            entry[2] += dur - child[i - lo]
        return {k: tuple(v) for k, v in out.items()}

    def root_duration(self) -> float:
        return self.end[self.root_index] - self.start[self.root_index]

    def dump(self, path_stem: str) -> None:
        """Write the spans: a JSON header and the four raw arrays."""
        with open(path_stem + ".json", "w") as fh:
            json.dump({"names": self.names, "spans": len(self.start),
                       "root_index": self.root_index,
                       "arrays": [["name", "i"], ["parent", "i"],
                                  ["start", "d"], ["end", "d"]],
                       "byteorder": sys.byteorder}, fh)
        with open(path_stem + ".bin", "wb") as fh:
            for arr in (self.name, self.parent, self.start, self.end):
                arr.tofile(fh)

    # -- patching --------------------------------------------------------

    def patch(self, owner, attr: str, make_wrapper) -> None:
        """Replace owner.attr by make_wrapper(original). A missing target
        is recorded, not fatal, so a renamed function costs attribution
        rather than the whole run."""
        if not hasattr(owner, attr):
            self.missing_hooks.append(f"{owner.__name__}.{attr}")
            return
        had_own = attr in vars(owner)
        own = vars(owner).get(attr)
        setattr(owner, attr, make_wrapper(getattr(owner, attr)))
        self._patches.append((owner, attr, had_own, own))

    def patch_function(self, module, attr: str, make_wrapper) -> None:
        """Replace a module-level function everywhere punchsim bound it,
        including `from module import name` copies in other modules."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing_hooks.append(f"{module.__name__}.{attr}")
            return
        wrapper = make_wrapper(original)
        for mod in list(sys.modules.values()):
            if not getattr(mod, "__name__", "").startswith("punchsim"):
                continue
            for name, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, name, wrapper)
                    self._patches.append((mod, name, True, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, had_own, original = self._patches.pop()
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)


def layer_self_times(per_name: dict) -> dict[str, float]:
    """Self time summed per layer (the span name's first component)."""
    out: dict[str, float] = defaultdict(float)
    for span_name, (_calls, _dur, self_s) in per_name.items():
        out[span_name.split(".", 1)[0]] += self_s
    return dict(out)


# -- the wrappers --------------------------------------------------------------


def _counted(counts, key: str, fn):
    def wrapper(*args, **kwargs):
        counts[key] += 1
        return fn(*args, **kwargs)
    return wrapper


def _recording(sink: list, init):
    def wrapper(self, *args, **kwargs):
        sink.append(self)
        return init(self, *args, **kwargs)
    return wrapper


def _schedule(tr: Tracer, schedule):
    def wrapper(sim, fn, at):
        return schedule(sim, tr.spanned(fn, layer_of(fn) + ".event",
                                        count="kernel.events"), at)
    return wrapper


def _bind(tr: Tracer, bind):
    def wrapper(host, handler, port=None):
        layer = layer_of(handler)
        return bind(host, tr.spanned(handler, layer + ".handler",
                                     count=layer + ".handled"), port)
    return wrapper


def _sim_run(tr: Tracer, run):
    """kernel.run spans; inside a trial, the first run is the reserve
    phase and the time before it is the world build."""
    spanned = tr.spanned(run, "kernel.run")
    timings = tr.timings

    def wrapper(sim, until=None):
        if tr.trial_start is None:
            return spanned(sim, until)
        t0 = PERF()
        timings["campaign.world_build_s"] += t0 - tr.trial_start
        tr.trial_start = None
        try:
            return spanned(sim, until)
        finally:
            timings["campaign.reserve_phase_s"] += PERF() - t0
    return wrapper


def _trial(tr: Tracer, run_trial):
    spanned = tr.spanned(run_trial, "campaign.trial")

    def wrapper(*args, **kwargs):
        tr.trial_start = PERF()
        try:
            return spanned(*args, **kwargs)
        finally:
            tr.trial_start = None
    return wrapper


def _send(tr: Tracer, send):
    spanned = tr.spanned(send, "net.send", count="net.sends")
    counts = tr.counts

    def wrapper(network, from_host, pkt, *args, **kwargs):
        tag = pkt.tag
        if type(tag) is tuple and tag and tag[0] == "ping":
            counts["transport.rtt_pings"] += 1
        return spanned(network, from_host, pkt, *args, **kwargs)
    return wrapper


def _inbound(tr: Tracer, process_inbound):
    spanned = tr.spanned(process_inbound, "nat.inbound", count="nat.inbound_calls")
    counts = tr.counts

    def wrapper(*args, **kwargs):
        result = spanned(*args, **kwargs)
        counts["nat.verdict." + result[0].name] += 1
        return result
    return wrapper


def _packet_built(counts, post_init):
    def wrapper(pkt):
        counts["packets.packets_built"] += 1
        counts["packets.by_kind." + pkt.kind.name] += 1
        return post_init(pkt)
    return wrapper


def _reserve(tr: Tracer, reserve):
    spanned = tr.spanned(reserve, "relay.api")
    counts = tr.counts

    def wrapper(client, relay_ep, on_done, *args, **kwargs):
        counts["relay.reservations"] += 1

        def done(ok):
            counts["relay.reservations_ok"] += bool(ok)
            return on_done(ok)
        return spanned(client, relay_ep, done, *args, **kwargs)
    return wrapper


def _by_suffix(tr: Tracer, fn, prefix: str, path_pos: int):
    as_json = tr.spanned(fn, prefix + "_json")
    as_csv = tr.spanned(fn, prefix + "_csv")

    def wrapper(*args, **kwargs):
        path = kwargs["path"] if "path" in kwargs else args[path_pos]
        return (as_csv if str(path).endswith(".csv") else as_json)(*args, **kwargs)
    return wrapper


def instrument(tr: Tracer) -> None:
    """Install every wrapper; `tr.uninstall()` removes them all."""
    import inspect

    from punchsim import (analysis, campaign, cli, dcutr, kernel, nat, net, packets,
                          relay, strategies, transport)

    counts = tr.counts
    spans = tr.spanned
    # kernel: the dispatch loop, event callbacks, streams and draws.
    tr.patch(kernel.Simulation, "run", lambda f: _sim_run(tr, f))
    tr.patch(kernel.Simulation, "schedule", lambda f: _schedule(tr, f))
    tr.patch(kernel.RandomStream, "__init__",
             lambda f: _counted(counts, "kernel.streams", f))
    for method in RNG_METHODS:
        tr.patch(kernel.RandomStream, method,
                 lambda f: _counted(counts, "kernel.rng_draws", f))
    # net: sends, deliveries, handlers bound to ports.
    tr.patch(net.Network, "__init__", lambda f: _recording(tr.networks, f))
    tr.patch(net.Network, "send", lambda f: _send(tr, f))
    tr.patch(net.Host, "bind", lambda f: _bind(tr, f))
    tr.patch(net.Host, "_dispatch", lambda f: _counted(counts, "net.deliveries", f))
    # nat
    tr.patch(nat.NatState, "process_outbound",
             lambda f: spans(f, "nat.outbound", count="nat.outbound_calls"))
    tr.patch(nat.NatState, "process_inbound", lambda f: _inbound(tr, f))
    tr.patch(nat.NatState, "session_count",
             lambda f: spans(f, "nat.session_count", count="nat.session_count_calls"))
    # packets: constructions only; their cost stays with the caller.
    tr.patch(packets.Packet, "__post_init__", lambda f: _packet_built(counts, f))
    tr.patch(packets.Endpoint, "__post_init__",
             lambda f: _counted(counts, "packets.endpoints_built", f))
    # transport: dials and priming; RttProbe installs its packet handler
    # by assignment rather than through Host.bind.
    for cls in (transport.TcpPort, transport.QuicPort):
        tr.patch(cls, "dial", lambda f: spans(f, "transport.dial", count="transport.dials"))
    tr.patch(transport.QuicPort, "prime", lambda f: spans(f, "transport.prime"))
    tr.patch(transport.RttProbe, "start", lambda f: spans(f, "transport.rtt"))
    tr.patch(transport.RttProbe, "_on_packet", lambda f: spans(f, "transport.handler"))
    # relay: the client API and circuits.
    tr.patch(relay.RelayClient, "reserve", lambda f: _reserve(tr, f))
    for method in ("connect_via", "circuit_ping", "observe_via"):
        tr.patch(relay.RelayClient, method, lambda f: spans(f, "relay.api"))
    for method in ("send", "close"):
        tr.patch(relay.Circuit, method, lambda f: spans(f, "relay.api"))
    # dcutr: every HolePunch method, since the relay layer calls into the
    # coordinator through circuit callbacks.
    for name, raw in list(vars(dcutr.HolePunch).items()):
        if inspect.isfunction(raw) and name != "__init__":
            tr.patch(dcutr.HolePunch, name, lambda f: spans(f, "dcutr.hole_punch"))
    tr.patch(dcutr.HolePunch, "__init__", lambda f: _recording(tr.hole_punches, f))
    # strategies, campaign, analysis, cli: module functions.
    tr.patch_function(strategies, "birthday_punch", lambda f: spans(f, "strategies.punch", count="strategies.punches"))
    tr.patch_function(campaign, "run_trial", lambda f: _trial(tr, f))
    tr.patch_function(campaign, "export_results",
                      lambda f: _by_suffix(tr, f, "campaign.export", 1))
    tr.patch_function(campaign, "load_results",
                      lambda f: _by_suffix(tr, f, "campaign.load", 0))
    tr.patch_function(campaign, "aggregate", lambda f: spans(f, "campaign.aggregate"))
    for fn in ("identify_networks", "success_rate_series", "relay_path_location",
               "rtt_accuracy", "latency_ratio_cdf", "analyze"):
        tr.patch_function(analysis, fn, lambda f, fn=fn: spans(f, "analysis." + fn))
    tr.patch_function(cli, "main", lambda f: spans(f, "cli.main"))
