"""A fixed reference workload that measures how fast the machine runs
Python right now.

The benchmark's host is shared: other tenants slow it by up to half for
stretches of seconds to minutes, and a slowdown moves every timing of a
run together. The benchmark therefore times this reference next to its
own operations and reports timings scaled to a machine on which the
reference takes REFERENCE_NOMINAL_S.

The reference is a small discrete-event simulation (a heap of timed
callbacks, frozen dataclass addresses, message objects, dict counters and
Gaussian draws), so the machine's slowdowns hit it the way they hit
punchsim. It belongs to the benchmark and never changes with punchsim.
"""

from __future__ import annotations

import heapq
import random
import statistics
import time
from dataclasses import dataclass

REFERENCE_NOMINAL_S = 0.0015
REPS = 5


@dataclass(frozen=True)
class _Addr:
    node: int
    port: int


@dataclass
class _Msg:
    src: _Addr
    dst: _Addr
    kind: str
    ttl: int = 8


class _Node:
    def __init__(self, sim: "_Sim", ident: int):
        self.sim = sim
        self.id = ident
        self.table: dict = {}
        self.seen = 0

    def receive(self, msg: _Msg) -> None:
        self.seen += 1
        key = (msg.src, msg.kind)
        self.table[key] = self.table.get(key, 0) + 1
        if msg.ttl > 1:
            nxt = _Addr((self.id * 7 + msg.ttl) % len(self.sim.nodes), msg.dst.port)
            self.sim.send(_Msg(src=_Addr(self.id, msg.dst.port), dst=nxt,
                               kind=msg.kind, ttl=msg.ttl - 1))


class _Sim:
    def __init__(self, seed: int, n_nodes: int):
        self.rng = random.Random(seed)
        self.now = 0.0
        self.queue: list = []
        self.seq = 0
        self.nodes = [_Node(self, i) for i in range(n_nodes)]

    def send(self, msg: _Msg) -> None:
        node = self.nodes[msg.dst.node]
        self.seq += 1
        heapq.heappush(self.queue, (self.now + self.rng.gauss(10.0, 2.0), self.seq,
                                    lambda: node.receive(msg)))

    def run(self) -> None:
        while self.queue:
            self.now, _, fn = heapq.heappop(self.queue)
            fn()


def reference_once() -> int:
    sim = _Sim(7, 16)
    for i in range(40):
        sim.send(_Msg(src=_Addr(i % 16, 1000 + i), dst=_Addr(i * 5 % 16, 2000 + i),
                      kind=f"k{i % 3}"))
    sim.run()
    return sum(node.seen for node in sim.nodes)


def reference_once_s() -> float:
    """Host time of one run of the reference."""
    t0 = time.perf_counter()
    reference_once()
    return time.perf_counter() - t0


def reference_s() -> float:
    """Mean host time of REPS runs of the reference."""
    return statistics.fmean(reference_once_s() for _ in range(REPS))


def speed_factor(ref_s: float) -> float:
    """Multiplier from host time to reference-scaled time."""
    return REFERENCE_NOMINAL_S / ref_s
