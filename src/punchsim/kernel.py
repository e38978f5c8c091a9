"""Deterministic discrete-event engine: virtual clock, event queue, seeded
randomness streams, config-field checks, and the one worker pool that runs
self-seeded work in parallel.

All times are milliseconds on a monotonically non-decreasing virtual clock.
Two runs with the same seed and configuration produce identical event traces.
"""

from __future__ import annotations

import hashlib
import heapq
import math
import random
import sys
from dataclasses import field, fields, is_dataclass
from enum import Enum
from math import cos, log, sin, sqrt
from typing import Callable, Optional

# Unbound, so a copied stream draws from its own generator; a bound method
# cached per stream would be shared by its copies.
_getrandbits = random.Random.getrandbits
_TWOPI = 2.0 * math.pi  # as random.py computes it


def check_number(name: str, value, lo: float = -math.inf, hi: float = math.inf,
                 integer: bool = False) -> None:
    """Raise ValueError unless `value` is a finite number (an int when
    `integer`, never a bool) within [lo, hi]. Config fields use this."""
    if (isinstance(value, bool) or not isinstance(value, int if integer else (int, float))
            or not lo <= value <= hi or abs(value) == math.inf):
        kind = "an integer" if integer else "a finite number"
        raise ValueError(f"{name} must be {kind} in [{lo}, {hi}], not {value!r}")


def bounded(default, lo: float, hi: float = math.inf):
    """A config dataclass field whose number `check_fields` keeps in [lo, hi]."""
    return field(default=default, metadata={"lo": lo, "hi": hi})


def check_fields(config) -> None:
    """Check each bool, int, float, Enum and nested-config field of a config
    dataclass by its annotation, a string resolved in the module of the class."""
    names = vars(sys.modules[type(config).__module__])
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "bool" and not isinstance(value, bool):
            raise ValueError(f"{f.name} must be true or false, not {value!r}")
        if f.type in ("int", "float"):
            check_number(f.name, value, **f.metadata, integer=f.type == "int")
        cls = names.get(f.type)
        # The data paths compare members by identity, so a member's value
        # (mapping="EIM") would run as none of them; a nested config is read
        # by attribute, so a dict would fail only once a trial reads it.
        if (isinstance(cls, type) and (issubclass(cls, Enum) or is_dataclass(cls))
                and not isinstance(value, cls)):
            kind = " member" if issubclass(cls, Enum) else ""
            raise ValueError(f"{f.name} must be a {cls.__name__}{kind}, not {value!r}")


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
        self.rng = random.Random(derive_seed(seed, stream_id))

    def normal(self, mean: float, stddev: float) -> float:
        """`Random.gauss(mean, stddev)` for a positive stddev, else `mean`.
        CPython's gauss body inlined (the same on 3.10-3.13), without
        its Python frame; `tests/test_kernel.py` pins the draws."""
        if stddev <= 0.0:
            return mean
        rng = self.rng
        z = rng.gauss_next
        rng.gauss_next = None
        if z is None:
            x2pi = rng.random() * _TWOPI
            g2rad = sqrt(-2.0 * log(1.0 - rng.random()))
            z = cos(x2pi) * g2rad
            rng.gauss_next = sin(x2pi) * g2rad
        return mean + z * stddev

    def uniform(self, a: float, b: float) -> float:
        return self.rng.uniform(a, b)

    def random(self) -> float:
        return self.rng.random()

    def randint(self, a: int, b: int) -> int:
        """A uniform integer in [a, b], drawn exactly as CPython's
        `Random.randint` draws it (`_randbelow_with_getrandbits`: redraw
        `k` bits while they reach `n`) without its three Python frames.
        `tests/test_kernel.py` pins the draws against `Random.randint`."""
        n = b - a + 1
        if n <= 0:
            raise ValueError(f"empty range for randint({a}, {b})")
        rng = self.rng
        k = n.bit_length()
        r = _getrandbits(rng, k)
        while r >= n:
            r = _getrandbits(rng, k)
        return a + r

    def sample(self, population, k: int) -> list:
        """k distinct elements of `population`, drawn exactly as CPython's
        `Random.sample` draws them, through either of its branches, with
        each index drawn as `randint` draws. `tests/test_kernel.py` pins
        the draws against `Random.sample`."""
        n = len(population)
        if not 0 <= k <= n:
            raise ValueError(f"cannot sample {k} of {n}")
        rng = self.rng
        # CPython's choice: a small set's size less an empty list's, plus
        # the table size of a k-element set.
        setsize = 21
        if k > 5:
            setsize += 4 ** math.ceil(math.log(k * 3, 4))
        if n <= setsize:
            # Pool branch: take pool[j] from the i unchosen elements, then
            # move the last unchosen element into its place.
            pool = list(population)
            result = []
            for i in range(n, n - k, -1):
                bits = i.bit_length()
                j = _getrandbits(rng, bits)
                while j >= i:
                    j = _getrandbits(rng, bits)
                result.append(pool[j])
                pool[j] = pool[i - 1]
            return result
        # Set branch: redraw an index past the end or already chosen. The
        # dict keeps the chosen indices in draw order.
        bits = n.bit_length()
        chosen = {}
        for _ in range(k):
            j = _getrandbits(rng, bits)
            while j >= n or j in chosen:
                j = _getrandbits(rng, bits)
            chosen[j] = None
        return [population[j] for j in chosen]

    def choice(self, seq):
        return self.rng.choice(seq)

    def shuffle(self, seq) -> None:
        self.rng.shuffle(seq)


class Simulation:
    """Single-threaded event loop with a FIFO tie-break for simultaneous
    events. One instance per trial; instances share nothing.

    `schedule` returns the queue entry ``[at, seq, fn, arg]`` as the handle;
    `run` calls ``fn(arg)`` if a caller set ``arg``, else ``fn()``. `cancel`
    clears both (lazy deletion); `run` drops them without moving the clock.
    """

    def __init__(self, seed: int = 0):
        self.seed = seed
        self.now = 0.0
        self._queue: list[list] = []
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

    def schedule(self, fn: Callable[[], None], at: float) -> list:
        if not at >= self.now:  # a NaN time is refused too
            raise ScheduleInPastError(f"cannot schedule at t={at} (now={self.now})")
        self._seq += 1
        entry = [at, self._seq, fn, None]
        heapq.heappush(self._queue, entry)
        return entry

    def cancel(self, handle: list) -> None:
        """Make sure a scheduled event never runs; idempotent."""
        handle[2] = handle[3] = None

    def cancel_all(self) -> None:
        """Cancel every pending event, so none holds its callback or argument."""
        for entry in self._queue:
            entry[2] = entry[3] = None

    def run(self, until: Optional[float] = None) -> None:
        """Execute events in time order until the queue drains or the
        clock would pass ``until``."""
        queue = self._queue
        pop = heapq.heappop
        bound = math.inf if until is None else until
        while queue and queue[0][0] <= bound:
            at, _, fn, arg = pop(queue)
            if fn is not None:
                self.now = at
                if arg is None:
                    fn()
                else:
                    fn(arg)
        if until is not None and until > self.now:
            self.now = until

    def pending(self) -> int:
        """Events still to run; cancelled entries do not count."""
        return sum(entry[2] is not None for entry in self._queue)


def run_strided(work: Callable[[tuple], list], args: tuple, n: int,
                workers: int = 1) -> list:
    """`work(args + (indices,))` over 0..n-1, one result per index, in
    index order. `workers` processes (never more than n) take the indices
    by stride, i, i + workers, ..., so results that depend on their index
    alone merge back exactly."""
    workers = min(workers, n)  # no idle worker processes
    if workers <= 1:
        return work(args + (range(n),))
    # Imported here, so that a start that runs no pool loads no multiprocessing.
    from concurrent.futures import ProcessPoolExecutor
    results = [None] * n
    chunks = [args + (range(w, n, workers),) for w in range(workers)]
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for w, part in enumerate(pool.map(work, chunks)):
            results[w::workers] = part
    return results
