"""Deterministic discrete-event engine: virtual clock, event queue, seeded
randomness streams, and the latency/topology model everything else runs on.

All times are milliseconds on a monotonically non-decreasing virtual clock.
Two runs with the same seed and configuration produce identical event traces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
from dataclasses import dataclass, field
from typing import Callable, Optional

# Floor applied to every latency draw so causality is never violated.
MIN_LATENCY_MS = 0.01


class ScheduleInPastError(ValueError):
    """Raised when an event is scheduled before the current virtual time."""


def derive_seed(seed: int, stream_id: str) -> int:
    """Map a (campaign seed, stream label) pair to a 64-bit child seed.

    Uses SHA-256 so the derivation is stable across platforms and Python
    versions, unlike the builtin hash().
    """
    digest = hashlib.sha256(f"{seed}/{stream_id}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


class RandomStream:
    """A named, independently seeded random stream.

    Identical (seed, stream_id, draw sequence) yields identical values
    across runs and platforms.
    """

    def __init__(self, seed: int, stream_id: str):
        self.seed = seed
        self.stream_id = stream_id
        self.rng = random.Random(derive_seed(seed, stream_id))

    def normal(self, mean: float, stddev: float) -> float:
        if stddev <= 0.0:
            return mean
        return self.rng.gauss(mean, stddev)

    def uniform(self, a: float, b: float) -> float:
        return self.rng.uniform(a, b)

    def random(self) -> float:
        return self.rng.random()

    def randint(self, a: int, b: int) -> int:
        return self.rng.randint(a, b)

    def sample(self, population, k):
        return self.rng.sample(population, k)

    def choice(self, seq):
        return self.rng.choice(seq)

    def shuffle(self, seq) -> None:
        self.rng.shuffle(seq)


@dataclass
class Topology:
    """Star topology: per-host access latency, summed per pair, with
    optional per-pair overrides.

    access: host-id -> (mean ms, stddev ms) one-way access-network latency.
    nat_leg: host-id -> one-way latency between the host and its own NAT
        (a fraction of the access latency; 0 for public hosts). Only the
        relative timing of NAT passage depends on it.
    hop_distance: symmetric hop count between distinct hosts, used solely
        for TTL semantics. A host's own NAT sits at hop 1; the remote NAT
        effectively at hop ``hop_distance``.
    loss_rate: independent Bernoulli drop probability per traversal.
    """

    access: dict[str, tuple[float, float]] = field(default_factory=dict)
    nat_leg: dict[str, float] = field(default_factory=dict)
    pair_override: dict[tuple[str, str], tuple[float, float]] = field(default_factory=dict)
    hop_override: dict[tuple[str, str], int] = field(default_factory=dict)
    default_hop_distance: int = 6
    loss_rate: float = 0.0

    def __post_init__(self):
        for host, (mean, std) in self.access.items():
            if mean < 0 or std < 0:
                raise ValueError(f"negative latency parameters for {host!r}")
        if not 0.0 <= self.loss_rate <= 1.0:
            raise ValueError("loss_rate must be within [0, 1]")

    def add_host(self, host: str, mean: float, stddev: float = 0.0,
                 nat_leg: float = 0.0) -> None:
        if mean < 0 or stddev < 0 or nat_leg < 0:
            raise ValueError("latency parameters must be non-negative")
        self.access[host] = (mean, stddev)
        if nat_leg:
            self.nat_leg[host] = nat_leg

    def _pair_key(self, a: str, b: str) -> tuple[str, str]:
        return (a, b) if a <= b else (b, a)

    def pair_params(self, a: str, b: str) -> tuple[float, float]:
        """(mean, stddev) of the one-way latency between a and b."""
        for host in (a, b):
            if host not in self.access:
                raise KeyError(f"unknown host {host!r}")
        override = self.pair_override.get(self._pair_key(a, b))
        if override is not None:
            return override
        ma, sa = self.access[a]
        mb, sb = self.access[b]
        return ma + mb, sa + sb

    def hop_distance(self, a: str, b: str) -> int:
        if a == b:
            return 0
        return self.hop_override.get(self._pair_key(a, b), self.default_hop_distance)

    def leg(self, host: str) -> float:
        return self.nat_leg.get(host, 0.0)


def sample_latency(topology: Topology, a: str, b: str, rng: RandomStream) -> float:
    """One-way latency draw for a packet traversing a -> b.

    Truncated normal: max(floor, N(mean, stddev)) with mean/stddev from the
    pair override if present, else the sum of both hosts' access parameters.
    """
    mean, stddev = topology.pair_params(a, b)
    return max(MIN_LATENCY_MS, rng.normal(mean, stddev))


class Simulation:
    """Single-threaded event loop with a FIFO tie-break for simultaneous
    events. One instance per trial; instances share nothing.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self._queue: list[tuple[float, int, Callable[[], None]]] = []
        self._seq = 0
        self._streams: dict[str, RandomStream] = {}
        self._tokens = 0

    def next_token(self) -> int:
        """A number unique within this simulation, for protocol tokens, so
        they never depend on process-wide state."""
        self._tokens += 1
        return self._tokens

    def stream(self, stream_id: str) -> RandomStream:
        """Named random stream, created on first use."""
        if stream_id not in self._streams:
            self._streams[stream_id] = RandomStream(self.seed, stream_id)
        return self._streams[stream_id]

    def schedule(self, fn: Callable[[], None], at: float) -> int:
        if at < self.now:
            raise ScheduleInPastError(f"cannot schedule at t={at} (now={self.now})")
        self._seq += 1
        heapq.heappush(self._queue, (at, self._seq, fn))
        return self._seq

    def schedule_in(self, fn: Callable[[], None], delay: float) -> int:
        return self.schedule(fn, self.now + delay)

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order until the queue drains or the
        clock would pass ``until``."""
        while self._queue:
            at, _, fn = self._queue[0]
            if until is not None and at > until:
                break
            heapq.heappop(self._queue)
            self.now = at
            fn()
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        return len(self._queue)
