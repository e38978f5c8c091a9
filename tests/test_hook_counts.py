"""The calls the traced benchmark counts, counted here at fixed totals.

perfbench's tracer sees punchsim only through the functions it wraps
(`perfbench/tracer.py`): every event through `Simulation.schedule`, every
draw through a `RandomStream` method, every send through `Network.send`,
every built packet through `Packet.__post_init__`, every delivery through
`Host._dispatch` and every NAT passage through `NatState.process_outbound`
or `process_inbound`. This test wraps the same functions on their classes,
as the tracer does, runs seed-42 campaign trials and birthday punches of
the benchmark's workloads, and pins the totals. A fast path that skips one
of these calls changes a total and fails here, not only in a traced run.
"""

import os
import sys
from collections import Counter
from contextlib import contextmanager

from punchsim import kernel, nat, net, packets

# The benchmark package sits at the root of the checkout.
sys.path.insert(0, os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
from perfbench.tracer import RNG_METHODS  # noqa: E402
from perfbench.workloads import DEFAULT_SEED, WORKLOADS  # noqa: E402

HOOKS = [(kernel.Simulation, "schedule"), (net.Network, "send"),
         (net.Host, "_dispatch"), (packets.Packet, "__post_init__"),
         (nat.NatState, "process_outbound"), (nat.NatState, "process_inbound")]
HOOKS += [(kernel.RandomStream, method) for method in RNG_METHODS]

# Totals at seed 42. They follow from the simulated traffic alone, so a
# change that keeps every hooked call keeps them.
CAMPAIGN_TRIALS = 200
CAMPAIGN_TOTALS = {
    "Simulation.schedule": 49510, "Network.send": 25185, "Host._dispatch": 20672,
    "Packet.__post_init__": 25185, "NatState.process_outbound": 16064,
    "NatState.process_inbound": 16439, "RandomStream.normal": 25185,
    "RandomStream.randint": 1680, "RandomStream.random": 200,
}
PUNCHES = 100
PUNCH_TOTALS = {
    "Packet.__post_init__": 100, "NatState.process_outbound": 25600,
    "NatState.process_inbound": 16432, "RandomStream.randint": 25646,
    "RandomStream.sample": 100,
}


@contextmanager
def counted_calls():
    """A Counter of calls to each hook, by "Class.method"."""
    calls = Counter()
    originals = []
    for owner, attr in HOOKS:
        original = vars(owner)[attr]
        key = f"{owner.__name__}.{attr}"

        def wrapper(*args, _fn=original, _key=key, **kwargs):
            calls[_key] += 1
            return _fn(*args, **kwargs)

        originals.append((owner, attr, original))
        setattr(owner, attr, wrapper)
    try:
        yield calls
    finally:
        for owner, attr, original in originals:
            setattr(owner, attr, original)


def run_ops(name, n, tmp_path):
    workload = WORKLOADS[name](DEFAULT_SEED, str(tmp_path))
    workload.setup()
    with counted_calls() as calls:
        for i in range(n):
            workload.op(i)
    return dict(calls)


def test_campaign_trials_make_the_pinned_calls(tmp_path):
    assert run_ops("campaign-serial", CAMPAIGN_TRIALS, tmp_path) == CAMPAIGN_TOTALS


def test_birthday_punches_make_the_pinned_calls(tmp_path):
    assert run_ops("birthday-mc", PUNCHES, tmp_path) == PUNCH_TOTALS
