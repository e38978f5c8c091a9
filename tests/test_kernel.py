import copy
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from punchsim.kernel import RandomStream, ScheduleInPastError, Simulation


def test_schedule_fires_once_at_time():
    sim = Simulation(seed=1)
    fired = []
    sim.schedule(lambda: fired.append(sim.now), 5.0)
    sim.run()
    assert fired == [5.0]


def test_tie_break_is_insertion_order():
    sim = Simulation(seed=1)
    order = []
    sim.schedule(lambda: order.append("a"), 5.0)
    sim.schedule(lambda: order.append("b"), 5.0)
    sim.run()
    assert order == ["a", "b"]


def test_an_event_gets_the_argument_set_in_its_handle():
    sim = Simulation(seed=1)
    got = []
    sim.schedule(got.append, 5.0)[3] = 0  # a falsy argument is passed too
    sim.schedule(lambda: got.append("none"), 5.0)
    sim.schedule(got.append, 4.0)[3] = ("hop", 1)
    sim.run()
    assert got == [("hop", 1), 0, "none"]


def test_a_cancelled_handle_holds_neither_callback_nor_argument():
    sim = Simulation(seed=1)
    ran = []
    kept = sim.schedule(ran.append, 1.0)
    kept[3] = "kept"
    dropped = sim.schedule(ran.append, 2.0)
    dropped[3] = "dropped"
    sim.cancel(dropped)
    assert dropped[2:] == [None, None]
    sim.run()
    assert ran == ["kept"]

    handles = [sim.schedule(ran.append, 3.0), sim.schedule(ran.append, 4.0)]
    for n, handle in enumerate(handles):
        handle[3] = n
    sim.cancel_all()
    assert [handle[2:] for handle in handles] == [[None, None]] * 2
    assert sim.pending() == 0
    sim.run()
    assert ran == ["kept"] and sim.now == 1.0  # cancelled, they moved no clock


def test_schedule_in_past_rejected():
    sim = Simulation(seed=1)
    sim.schedule(lambda: None, 2.0)
    sim.run()
    assert sim.now == 2.0
    with pytest.raises(ScheduleInPastError):
        sim.schedule(lambda: None, 1.0)
    # NaN is not at or after any time; queued, it would stall `run`.
    with pytest.raises(ScheduleInPastError):
        sim.schedule(lambda: None, float("nan"))


def test_clock_monotone():
    sim = Simulation(seed=3)
    times = []
    for t in [7.0, 3.0, 3.0, 9.5]:
        sim.schedule(lambda: times.append(sim.now), t)
    sim.run()
    assert times == sorted(times)


def test_random_stream_reproducible():
    a = RandomStream(42, "latency")
    b = RandomStream(42, "latency")
    c = RandomStream(42, "other")
    seq_a = [a.random() for _ in range(10)]
    seq_b = [b.random() for _ in range(10)]
    seq_c = [c.random() for _ in range(10)]
    assert seq_a == seq_b
    assert seq_a != seq_c


# Ranges wide and narrow, with and without a power-of-two width, negative
# and beyond 32 bits, where getrandbits draws more than one word.
PIN_RANGES = [(0, 65535), (5, 5), (0, 1), (1024, 65535), (40000, 40010),
              (-3, 7), (0, 2**32), (7, 2**32 + 7), (0, 2**40)]


def test_randint_draws_exactly_as_cpython_randint():
    # RandomStream.randint re-implements Random.randint's getrandbits
    # rejection loop; a CPython change to that loop fails here instead of
    # silently shifting every port draw and digest.
    for seed in range(200):
        stream = RandomStream(seed, "pin")
        reference = random.Random()
        reference.setstate(stream.rng.getstate())
        for a, b in PIN_RANGES * 3:
            assert stream.randint(a, b) == reference.randint(a, b), (seed, a, b)
        assert stream.rng.getstate() == reference.getstate()


@pytest.mark.parametrize("a, b", [(5, 4), (0, -1), (2**40, 0)])
def test_randint_empty_range_raises_without_drawing(a, b):
    stream = RandomStream(1, "pin")
    state = stream.rng.getstate()
    with pytest.raises(ValueError, match="empty range"):
        stream.randint(a, b)
    with pytest.raises(ValueError):
        random.Random().randint(a, b)
    assert stream.rng.getstate() == state


def test_normal_draws_exactly_as_cpython_gauss():
    # RandomStream.normal inlines Random.gauss, which keeps every second
    # value in gauss_next; random() draws between them share its state.
    for seed in range(200):
        stream = RandomStream(seed, "pin")
        reference = copy.deepcopy(stream.rng)
        for i, (mean, stddev) in enumerate([(0.0, 1.0), (30.0, 15.0), (-5.0, 1e-3)] * 17):
            assert stream.normal(mean, stddev) == reference.gauss(mean, stddev), (seed, i)
            if i % 3 == 0:
                assert stream.random() == reference.random(), (seed, i)
        assert stream.rng.getstate() == reference.getstate()


# (n, k) on both sides of each setsize edge of Random.sample: the pool
# branch takes n <= 21 for k <= 5, n <= 85 for 6 <= k <= 21 and n <= 1045
# for 86 <= k <= 341; the set branch takes the rest, the punch's
# (65536, 256) among them.
SAMPLE_CASES = [(21, 5), (22, 5), (85, 6), (86, 6), (1045, 256), (1046, 256),
                (65536, 256), (1, 1), (7, 7), (30, 1), (200, 100), (2**40, 4),
                (16, 0), (0, 0)]
# The cases of SAMPLE_CASES that the pool branch takes.
POOL_CASES = {(21, 5), (85, 6), (1045, 256), (1, 1), (7, 7), (200, 100), (16, 0), (0, 0)}


def test_sample_draws_exactly_as_cpython_sample():
    # RandomStream.sample picks Random.sample's branch itself, calls
    # Random.sample for the pool branch and re-implements the set branch;
    # a CPython change to the threshold or to the set branch fails here
    # instead of silently moving every probe draw and the birthday digests.
    # The pool-branch cases also draw from a list and a tuple.
    populations = []
    for n, k in SAMPLE_CASES:
        population = range(1000, 1000 + n)
        populations += [(population, k)]
        if (n, k) in POOL_CASES:
            populations += [(list(population), k), (tuple(population), k)]
    for seed in range(200):
        stream = RandomStream(seed, "pin")
        reference = copy.deepcopy(stream.rng)
        for population, k in populations:
            case = (seed, type(population).__name__, len(population), k)
            assert stream.sample(population, k) == reference.sample(population, k), case
            assert stream.rng.getstate() == reference.getstate(), case


@pytest.mark.parametrize("n", [1, 21, 22, 1046])
def test_sample_of_none_or_all(n):
    stream = RandomStream(3, "pin")
    state = stream.rng.getstate()
    assert stream.sample(range(n), 0) == []
    assert stream.rng.getstate() == state
    everything = stream.sample(range(n), n)
    assert sorted(everything) == list(range(n))


@pytest.mark.parametrize("n, k", [(5, -1), (5, 6), (0, 1), (70_000, 70_001)])
def test_sample_out_of_range_raises_without_drawing(n, k):
    stream = RandomStream(1, "pin")
    state = stream.rng.getstate()
    with pytest.raises(ValueError, match=f"cannot sample {k} of {n}"):
        stream.sample(range(n), k)
    with pytest.raises(ValueError):
        random.Random().sample(range(n), k)
    assert stream.rng.getstate() == state


# -- kernel invariants under random schedules ---------------------------------

_delays = st.integers(0, 5).map(float)
# An event's children: (delay after it runs, their own children).
_children = st.recursive(
    st.just(()),
    lambda kids: st.lists(st.tuples(_delays, kids), max_size=3).map(tuple),
    max_leaves=12)


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.tuples(st.integers(0, 20).map(float), _children),
                      max_size=12),
       until=st.integers(0, 30).map(float),
       cancels=st.lists(st.tuples(st.one_of(st.just(-1), st.integers(0, 11)),
                                  st.integers(0, 11)), max_size=8))
def test_events_run_in_time_then_fifo_order(roots, until, cancels):
    # `cancels` holds (canceller, victim) pairs: when event `canceller` runs
    # (-1: before the first run) it cancels event `victim`, by scheduling
    # order, if that one is scheduled by then. Pairs may repeat, and a
    # victim may already have run, or be the canceller itself. Every odd
    # event gets its order through its handle's argument slot.
    sim = Simulation(seed=1)
    scheduled = []  # time of each event, in the order it was scheduled
    handles = []
    ran = []        # (clock, scheduling order) of each event that ran
    cancelled = set()  # events cancelled before they ran

    def add(at, children):
        order = len(scheduled)
        scheduled.append(at)

        def fire(arg=None):
            assert arg == (order if order % 2 else None)
            ran.append((sim.now, order))
            with pytest.raises(ScheduleInPastError):
                sim.schedule(lambda: None, sim.now - 1.0)
            for delay, kids in children:
                add(sim.now + delay, kids)
            cancel_from(order)

        handle = sim.schedule(fire, at)
        if order % 2:
            handle[3] = order
        handles.append(handle)

    def cancel_from(canceller):
        for c, victim in cancels:
            if c == canceller and victim < len(handles):
                if victim not in {o for _, o in ran}:
                    cancelled.add(victim)
                sim.cancel(handles[victim])
                assert handles[victim][2:] == [None, None]

    for at, children in roots:
        add(at, children)
    cancel_from(-1)
    # Later than any other event: if it moved the clock, the last check sees it.
    sim.cancel(sim.schedule(lambda: ran.append((sim.now, -1)), 1_000.0))

    sim.run(until)
    assert sim.now == until
    assert all(t <= until for t, _ in ran)
    live = set(range(len(scheduled))) - {o for _, o in ran} - cancelled
    assert all(scheduled[o] > until for o in live)
    assert sim.pending() == len(live)
    with pytest.raises(ScheduleInPastError):
        sim.schedule(lambda: None, until - 0.5)

    sim.run()
    assert sim.pending() == 0
    # Every event ran exactly once unless it was cancelled before its
    # time, and a cancelled entry never moved the clock.
    assert sorted(o for _, o in ran) == sorted(set(range(len(scheduled))) - cancelled)
    assert sim.now == max([until] + [t for t, _ in ran])
    # Each event ran at its own time, the clock never went back, and
    # events at equal times ran in the order they were scheduled.
    assert all(t == scheduled[o] for t, o in ran)
    assert ran == sorted(ran)
