"""Stateful NAT/firewall device model.

Implements the RFC 4787-style behavior taxonomy: endpoint-independent vs
endpoint-dependent mapping, the three filtering levels, port allocation
policies, idle expiry of mappings, and two pathologies observed on real
gateways: denylisting of sources whose inbound traffic precedes any
outbound packet, and RST rejection of unsolicited TCP.

The data path is `NatState.process_outbound` and `process_inbound`. Each
runs its common case inline: a RANDOM port for a new mapping while the
table is smaller than the port range, and the drop of an unsolicited
packet under a config that neither denylists nor answers with a RST;
`_alloc_port` and `_note_unsolicited` keep the other cases. Both read the
config on every call, since a `NatConfig` may change. The benchmark's
tracer (perfbench/tracer.py) sees the NAT only through calls, so a fast
path must keep them: every passage goes through one of the two methods,
and every port draw through a `RandomStream` method. As a NAT device does,
both rewrite the header of the packet they pass in place and keep no
reference to it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Optional

from .kernel import RandomStream, bounded, check_fields, check_number
from .packets import TCP_RST, Endpoint, Packet, unchecked_endpoint

PORT_SPACE = 65536


class MappingBehavior(Enum):
    EIM = "EIM"    # endpoint-independent
    ADM = "ADM"    # address-dependent
    APDM = "APDM"  # address-and-port-dependent


class FilteringBehavior(Enum):
    EIF = "EIF"
    ADF = "ADF"
    APDF = "APDF"


class PortAllocation(Enum):
    SEQUENTIAL = "sequential"
    RANDOM = "random"
    PRESERVE = "preserve-best-effort"


class Archetype(Enum):
    FULL_CONE = "FullCone"
    RESTRICTED_CONE = "RestrictedCone"
    PORT_RESTRICTED_CONE = "PortRestrictedCone"
    SYMMETRIC = "Symmetric"


class InboundAction(Enum):
    DELIVER = "deliver"
    DROP = "drop"
    REJECT_RST = "reject-rst"


# The members as module names, which the data path compares against: on
# Python 3.10 and 3.11 the Enum metaclass's __getattr__ makes each read
# like `InboundAction.DROP` several times slower (see packets.py).
EIM, ADM, APDM = MappingBehavior
EIF, ADF, APDF = FilteringBehavior
SEQUENTIAL, RANDOM, PRESERVE = PortAllocation
DELIVER, DROP, REJECT_RST = InboundAction


class SessionTableFull(Exception):
    """Outbound packet dropped because the translation table is at
    capacity; distinct from a filtering drop."""


@dataclass
class NatConfig:
    mapping: MappingBehavior = MappingBehavior.EIM
    filtering: FilteringBehavior = FilteringBehavior.APDF
    port_alloc: PortAllocation = PortAllocation.RANDOM
    mapping_ttl: float = 30_000.0  # positive, checked below
    max_sessions: int = bounded(65_536, 1)
    denylist_on_unsolicited: bool = False
    denylist_duration: float = bounded(60_000.0, 0.0)
    rst_on_unsolicited_tcp: bool = False
    # Inclusive allocation range; the full 16-bit space by default so the
    # uniform-port assumption behind birthday-collision math holds.
    port_range: tuple[int, int] = (0, PORT_SPACE - 1)

    def __post_init__(self):
        check_fields(self)
        if self.mapping_ttl <= 0:
            raise ValueError("mapping_ttl must be positive")
        lo, hi = self.port_range
        for end in (lo, hi):
            check_number("port_range", end, 0, PORT_SPACE - 1, integer=True)
        if lo > hi:
            raise ValueError(f"port_range must be an ordered pair, got {self.port_range}")


# The NAT settings of each archetype; the rest are NatConfig's defaults.
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


def archetype(config: NatConfig) -> Archetype:
    """The `ARCHETYPE_NATS` archetype of a config. Any endpoint-dependent
    mapping defeats address prediction regardless of filtering, so ADM and
    APDM both classify as Symmetric; an EIM config, by its filtering."""
    if config.mapping is not MappingBehavior.EIM:
        return Archetype.SYMMETRIC
    return next(name for name, nat in ARCHETYPE_NATS.items()
                if (nat["mapping"], nat["filtering"]) == (config.mapping, config.filtering))


@dataclass(slots=True)
class NatMapping:
    internal: Endpoint
    external: Endpoint
    key: tuple
    # Destination endpoint -> time the first packet toward it passed the
    # device. Filtering must not honor a contact before that instant.
    contacted: dict = field(default_factory=dict)
    created: float = 0.0
    last_activity: float = 0.0
    static: bool = False  # pre-installed port mapping: EIF-like, never expires

    def contacted_host_since(self, host: str) -> Optional[float]:
        times = [t for ep, t in self.contacted.items() if ep.host == host]
        return min(times) if times else None


class NatState:
    """A single NAT device: translation table plus denylist.

    Owned by one simulation instance; all times are the virtual clock of
    that instance, taken at the moment the packet passes the device.
    """

    def __init__(self, config: NatConfig, public_host: str, rng: RandomStream):
        self.config = config
        self.public_host = public_host
        self.rng = rng
        self._by_key: dict[tuple, NatMapping] = {}
        self._by_port: dict[int, NatMapping] = {}
        self._sessions = 0  # non-static mappings in _by_port
        self._statics = 0   # static mappings in _by_port
        self.denylist: dict[str, float] = {}
        lo, hi = config.port_range
        self.next_sequential_port = 40_000 if lo <= 40_000 <= hi else lo

    # -- mapping bookkeeping -------------------------------------------------

    def _expired(self, m: NatMapping, now: float) -> bool:
        return not m.static and now - m.last_activity > self.config.mapping_ttl

    def _drop_mapping(self, m: NatMapping) -> None:
        if self._by_key.get(m.key) is m:
            del self._by_key[m.key]
        port = m.external.port
        if self._by_port.get(port) is m:
            del self._by_port[port]
            if m.static:
                self._statics -= 1
            else:
                self._sessions -= 1

    def _drop_expired(self, now: float) -> None:
        for m in [m for m in self._by_port.values() if self._expired(m, now)]:
            self._drop_mapping(m)

    def _alloc_port(self, internal: Endpoint, lo: int, hi: int, now: float) -> Optional[int]:
        """The port PRESERVE or SEQUENTIAL picks, or None for a random draw
        (RANDOM, and PRESERVE's fallback for a taken or out-of-range port).
        A table as large as the range first gives back its expired
        mappings, and raises if none is free."""
        policy = self.config.port_alloc
        port = internal.port
        if policy is PRESERVE and lo <= port <= hi and port not in self._by_port:
            return port
        if len(self._by_port) > hi - lo:
            # Only a table at least as large as the range can have used it
            # up; expired mappings give their ports back first.
            self._drop_expired(now)
            if all(port in self._by_port for port in range(lo, hi + 1)):
                raise SessionTableFull(f"{internal}: no free port in {lo}..{hi}")
        if policy is SEQUENTIAL:
            port = self.next_sequential_port
            while port in self._by_port:
                port = lo if port >= hi else port + 1
            self.next_sequential_port = lo if port >= hi else port + 1
            return port
        return None

    def session_count(self) -> int:
        """Dynamic mappings in the table, in O(1). Expiry is lazy, so this
        includes idle mappings not yet dropped; the capacity check in
        `process_outbound` drops those before it refuses a new mapping."""
        return self._sessions

    def install_static_mapping(self, internal: Endpoint, external_port: int) -> NatMapping:
        """Pre-installed port mapping (UPnP/PMP analogue): fixed external
        port, endpoint-independent filtering, no expiry. It replaces the
        mapping on its external port and an earlier forward of `internal`."""
        external = Endpoint(self.public_host, external_port)
        key = ("static", internal)
        for old in (self._by_port.get(external_port), self._by_key.get(key)):
            if old is not None:
                self._drop_mapping(old)
        m = NatMapping(internal=internal, external=external, key=key, static=True)
        self._by_port[external_port] = m
        self._by_key[m.key] = m
        self._statics += 1
        return m

    # -- data path -----------------------------------------------------------

    def process_outbound(self, pkt: Packet, now: float) -> Packet:
        """Translate an outbound packet, creating or refreshing the mapping
        selected by the configured mapping behavior.

        Raises SessionTableFull when no matching mapping exists and the
        table holds max_sessions dynamic mappings that have not expired:
        a full table first drops its expired mappings (RFC 4787 §4.3).
        Also raised when every port in ``port_range`` is taken.

        Rewrites ``pkt.src`` in place and returns ``pkt``, keeping no
        reference to it, so a caller may readdress it and pass it again.
        """
        src, dst = pkt.src, pkt.dst
        config = self.config
        mode = config.mapping
        if mode is EIM:
            key = (src,)
        elif mode is ADM:
            key = (src, dst.host)
        else:
            key = (src, dst)
        m = self._by_key.get(key)
        # Dynamic keys never name a static mapping, so only the TTL counts.
        if m is not None and now - m.last_activity > config.mapping_ttl:
            self._drop_mapping(m)
            m = None
        if m is None:
            # A static mapping for the same internal endpoint carries
            # outbound traffic too (the router keeps the forwarded port).
            if self._statics:
                m = self._by_key.get(("static", src))
            if m is None:
                if self._sessions >= config.max_sessions:
                    self._drop_expired(now)
                    if self._sessions >= config.max_sessions:
                        raise SessionTableFull(str(src))
                lo, hi = config.port_range
                by_port = self._by_port
                port = None
                if config.port_alloc is not RANDOM or len(by_port) > hi - lo:
                    port = self._alloc_port(src, lo, hi, now)
                if port is None:
                    rng = self.rng
                    port = rng.randint(lo, hi)
                    while port in by_port:
                        port = rng.randint(lo, hi)
                # NatConfig checked the range the port comes from.
                external = unchecked_endpoint((self.public_host, port))
                self._by_key[key] = by_port[port] = NatMapping(
                    src, external, key, {dst: now}, now, now)
                self._sessions += 1
                pkt.src = external
                return pkt
        contacted = m.contacted
        if dst not in contacted:
            contacted[dst] = now
        if now > m.last_activity:
            m.last_activity = now
        pkt.src = m.external
        return pkt

    def _note_unsolicited(self, pkt: Packet, now: float) -> InboundAction:
        """The side effects of an unsolicited packet that a config turns
        on: denylisting its source, answering TCP with a RST."""
        cfg = self.config
        if cfg.denylist_on_unsolicited:
            self.denylist[pkt.src.host] = now + cfg.denylist_duration
        if cfg.rst_on_unsolicited_tcp and pkt.kind.is_tcp and pkt.kind is not TCP_RST:
            return REJECT_RST
        return DROP

    def process_inbound(self, pkt: Packet, now: float) -> tuple[InboundAction, Optional[Packet]]:
        """Filter an inbound packet addressed to this device's public host.

        Returns (DELIVER, pkt) with ``pkt.dst`` rewritten in place, or
        (DROP, None) or (REJECT_RST, None) with ``pkt`` left as it was;
        like `process_outbound`, it keeps no reference to ``pkt``.
        """
        denylist = self.denylist
        if denylist:
            src_host = pkt.src.host
            expiry = denylist.get(src_host)
            if expiry is not None:
                if expiry > now:
                    return DROP, None
                del denylist[src_host]

        cfg = self.config
        m = self._by_port.get(pkt.dst.port)
        if m is not None:
            static = m.static
            if not static and now - m.last_activity > cfg.mapping_ttl:
                self._drop_mapping(m)
                m = None
            elif m.created > now:
                m = None
            elif not static:
                filt = cfg.filtering
                if filt is not EIF:
                    since = (m.contacted.get(pkt.src) if filt is APDF
                             else m.contacted_host_since(pkt.src.host))
                    if since is None or since > now:
                        m = None
        if m is None:
            if cfg.denylist_on_unsolicited or cfg.rst_on_unsolicited_tcp:
                return self._note_unsolicited(pkt, now), None
            return DROP, None

        if now > m.last_activity:
            m.last_activity = now
        pkt.dst = m.internal
        return DELIVER, pkt

